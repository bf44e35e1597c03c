"""Seeded inputs and checked operations for the three benchmark workloads.

Every input is generated here with plain numpy (Wishart states, Stinespring
channels from a QR factor, Haar unitaries), never with ``qduality.randomgen``,
so a change to the package's own generators cannot change a workload.  The
qduality objects are built through their public constructors during set-up;
an operation (op) is then one timed call into the package plus a check of its
output at the README tolerances.

Each workload is a fixed cycle of op classes repeated over a pool of inputs.
The cycles are weighted so that neither the 50th nor the 90th percentile
rank of a run's latencies falls on a boundary between classes of different
cost (see README.md in this directory).
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import qduality
from qduality import cli

ROUNDTRIP_TOL = 1e-9
REEMBED_TOL = 1e-8

# duality_roundtrip: rank_half ops cost about half a full-rank op, so they
# take the cheapest quarter of the ranks.  One near-cutoff op in sixteen
# keeps its failures (counted as infinite latency) at the top 3-6% of the
# ranks, clear of the 90th percentile.
ROUNDTRIP_CYCLE = (
    "wishart", "rank_half", "graded", "wishart",
    "graded", "rank_half", "wishart", "graded",
    "rank_half", "wishart", "graded", "near_cutoff",
    "rank_half", "wishart", "graded", "wishart",
)
# fixed_algebra: a depolarizing op costs about 1.3x a structured one.  With
# six structured ops in ten, the class boundary sits at the 60th (or, if the
# costs swap, the 40th) percentile rank, clear of both the 50th and the 90th.
FIXED_CYCLE = (
    "structured", "depolarizing", "structured_rot", "depolarizing_rot", "structured",
    "structured_rot", "depolarizing", "structured", "depolarizing_rot", "structured_rot",
)
# cli_files: five classes, one of each in turn, so the 50th and 90th
# percentile ranks sit in the middle of the third and fifth cheapest class.
CLI_CYCLE = ("iso_forward", "iso_reverse", "verify_equivalence", "sample", "decompose")

# workload name -> its cycle of op classes
WORKLOADS = {
    "duality_roundtrip": ROUNDTRIP_CYCLE,
    "fixed_algebra": FIXED_CYCLE,
    "cli_files": CLI_CYCLE,
}
# workloads whose ops spend most of their time streaming memory (the
# full-matrices SVD in the package's nullspace routine); their host-speed
# probe adds a memory-bound part, see speed.py
MEMORY_BOUND = {"fixed_algebra"}


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of every workload and of the dimension sweep."""

    roundtrip_d: int
    roundtrip_pool_cycles: int
    fixed_struct: tuple  # (d, dimension the channel leaves untouched)
    fixed_depol_identity: int  # m in I_m x (depolarizing on a qubit)
    fixed_pool_cycles: int
    cli_iso_d: int
    cli_kraus: int
    cli_equivalence_dims: tuple
    cli_equivalence_trials: int
    cli_sample_trials: int
    cli_decompose_d: int
    cli_pool_cycles: int
    sweep_iso_dims: tuple
    sweep_decompose_dims: tuple


FULL = Sizes(
    roundtrip_d=12,
    roundtrip_pool_cycles=12,
    fixed_struct=(7, 4),
    fixed_depol_identity=4,
    fixed_pool_cycles=2,
    cli_iso_d=8,
    cli_kraus=4,
    cli_equivalence_dims=(3, 3),
    cli_equivalence_trials=7,
    cli_sample_trials=100000,
    cli_decompose_d=4,
    cli_pool_cycles=4,
    sweep_iso_dims=(4, 8, 12, 16),
    # stops at d = 8: at d = 10 the full-matrices SVD in the package's
    # nullspace routine allocates about 590 MiB and takes about 2.4 s, and
    # d = 16 would need about 10 GiB
    sweep_decompose_dims=(4, 6, 8),
)

# for the self-test: every code path, a few milliseconds per op
TINY = Sizes(
    roundtrip_d=4,
    roundtrip_pool_cycles=2,
    fixed_struct=(4, 2),
    fixed_depol_identity=2,
    fixed_pool_cycles=1,
    cli_iso_d=3,
    cli_kraus=2,
    cli_equivalence_dims=(2, 2),
    cli_equivalence_trials=2,
    cli_sample_trials=100000,
    cli_decompose_d=3,
    cli_pool_cycles=1,
    sweep_iso_dims=(2, 3, 4),
    sweep_decompose_dims=(3, 4),
)


@dataclass(frozen=True)
class Op:
    """One timed call into the package and the check of its output."""

    cls: str
    run: Callable[[], object]
    check: Callable[[object], bool]


# ---------------------------------------------------------------- inputs


def complex_gaussian(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def haar_unitary(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(complex_gaussian(rng, (d, d)))
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def wishart(rng, d: int, rank: int) -> np.ndarray:
    g = complex_gaussian(rng, (d, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def with_spectrum(rng, eigenvalues) -> np.ndarray:
    """State with the given eigenvalues in a Haar-random eigenbasis."""
    u = haar_unitary(rng, len(eigenvalues))
    m = (u * np.asarray(eigenvalues)) @ u.conj().T
    m = (m + m.conj().T) / 2
    return m / np.trace(m).real


def graded(d: int, smallest: float | None = None) -> np.ndarray:
    """Spectrum proportional to 2^-k; optionally the last one set to `smallest`."""
    w = 2.0 ** -np.arange(d)
    if smallest is None:
        return w / w.sum()
    head = w[:-1] / w[:-1].sum() * (1 - smallest)
    return np.append(head, smallest)


def stinespring_kraus(rng, din: int, dout: int, count: int) -> tuple:
    """Kraus operators cut from a random (dout*count) x din isometry."""
    q, _ = np.linalg.qr(complex_gaussian(rng, (dout * count, din)))
    return tuple(q[i * dout : (i + 1) * dout, :] for i in range(count))


def structured_kraus(rng, d: int, keep: int) -> tuple:
    """Identity on `keep` basis states, full dephasing on the other d - keep.

    Which basis states are kept is a seeded choice.
    """
    order = rng.permutation(d)
    proj = np.zeros((d, d), dtype=complex)
    proj[order[:keep], order[:keep]] = 1.0
    kraus = [proj]
    for j in order[keep:]:
        e = np.zeros((d, d), dtype=complex)
        e[j, j] = 1.0
        kraus.append(e)
    return tuple(kraus)


def depolarizing_kraus(rng, identity_dim: int) -> tuple:
    """I_m x (qubit depolarizing channel with a seeded strength)."""
    p = rng.uniform(0.3, 0.7)
    paulis = (
        np.eye(2),
        np.array([[0, 1], [1, 0]]),
        np.array([[0, -1j], [1j, 0]]),
        np.diag([1.0, -1.0]),
    )
    weights = (1 - 3 * p / 4, p / 4, p / 4, p / 4)
    eye = np.eye(identity_dim)
    return tuple(np.kron(eye, np.sqrt(w) * s).astype(complex) for w, s in zip(weights, paulis))


def rotate(rng, kraus: tuple) -> tuple:
    u = haar_unitary(rng, kraus[0].shape[0])
    return tuple(u @ k @ u.conj().T for k in kraus)


def dual_state(rho: np.ndarray, kraus: tuple) -> np.ndarray:
    """tau = sum_k (I x K) |phi><phi| (I x K)^dag with phi = vec(sqrt(rho^T)).

    An independent implementation of the forward duality map, used only to
    write the inputs of `iso reverse`.
    """
    w, v = np.linalg.eigh(rho.T)
    root = (v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T
    cols = np.stack([(root @ k.T).reshape(-1) for k in kraus], axis=1)
    tau = cols @ cols.conj().T
    tau = (tau + tau.conj().T) / 2
    return tau / np.trace(tau).real


def _failing(err: Exception) -> Callable[[], object]:
    def run():
        raise err

    return run


def _construct(build: Callable[[], object]):
    """Build a package object during set-up.

    If the constructor rejects the input, the op is kept and fails every time
    it runs, so no failing op is dropped from the count.
    """
    try:
        return build(), None
    except qduality.QdualityError as err:
        return None, err


# ---------------------------------------------------- duality_roundtrip


def _roundtrip_ops(rng, sizes: Sizes) -> list:
    d = sizes.roundtrip_d
    cycles = sizes.roundtrip_pool_cycles
    near = ROUNDTRIP_CYCLE.count("near_cutoff") * cycles
    # smallest eigenvalue 10^-e, e stratified over [6, 10) so every seed
    # covers the whole range
    exponents = iter(6 + 4 * (np.arange(near) + rng.random(near)) / near)
    ops = []
    for _ in range(cycles):
        for cls in ROUNDTRIP_CYCLE:
            if cls == "wishart":
                rho = wishart(rng, d, d)
            elif cls == "rank_half":
                rho = wishart(rng, d, d // 2)
            elif cls == "graded":
                rho = with_spectrum(rng, graded(d))
            else:
                rho = with_spectrum(rng, graded(d, 10.0 ** -next(exponents)))
            kraus = stinespring_kraus(rng, d, d, d)
            pair, err = _construct(
                lambda: qduality.IsoPair(
                    qduality.DensityOperator(rho), qduality.KrausChannel(kraus, d, d)
                )
            )
            run = _failing(err) if err else (lambda p=pair: qduality.verify_roundtrip(p))
            ops.append(Op(cls, run, _roundtrip_ok))
    return ops


def _roundtrip_ok(res) -> bool:
    return max(res["rho_deviation"], res["channel_deviation"]) <= ROUNDTRIP_TOL


# -------------------------------------------------------- fixed_algebra


def _fixed_ops(rng, sizes: Sizes) -> list:
    d, keep = sizes.fixed_struct
    m = sizes.fixed_depol_identity
    expected = {
        "structured": [(keep, 1)] + [(1, 1)] * (d - keep),
        "depolarizing": [(m, 2)],
    }
    ops = []
    for _ in range(sizes.fixed_pool_cycles):
        for cls in FIXED_CYCLE:
            base = cls.removesuffix("_rot")
            if base == "structured":
                kraus = structured_kraus(rng, d, keep)
            else:
                kraus = depolarizing_kraus(rng, m)
            if cls.endswith("_rot"):
                kraus = rotate(rng, kraus)
            dim = kraus[0].shape[0]
            # five random first-factor states per block, as the CLI's check uses
            mus = {d1: [wishart(rng, d1, d1) for _ in range(5)] for d1, _ in expected[base]}
            channel, err = _construct(lambda: qduality.KrausChannel(kraus, dim, dim))
            if err:
                run = _failing(err)
            else:
                run = lambda e=channel, mus=mus: _decompose_and_reembed(e, mus)
            ops.append(Op(cls, run, lambda out, want=sorted(expected[base]): _fixed_ok(out, want)))
    return ops


def _decompose_and_reembed(e, mus: dict):
    """decompose_fixed_algebra plus the CLI's block re-embedding check."""
    blocks = qduality.decompose_fixed_algebra(e)
    worst = 0.0
    for block in blocks:
        for mu in mus.get(block.d1, ()):
            lifted = block.embed(mu)
            worst = max(worst, float(np.max(np.abs(e(lifted) - lifted))))
    return sorted((b.d1, b.d2) for b in blocks), worst


def _fixed_ok(out, want) -> bool:
    dims, worst = out
    return dims == want and worst <= REEMBED_TOL


# ------------------------------------------------------------ cli_files


def _matrix_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "data": [[float(x.real), float(x.imag)] for x in m.reshape(-1)],
    }


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def _state_json(rho: np.ndarray) -> dict:
    return {"dim": rho.shape[0], "matrix": _matrix_json(rho)}


def _channel_json(kraus: tuple) -> dict:
    dout, din = kraus[0].shape
    return {"din": din, "dout": dout, "kraus": [_matrix_json(k) for k in kraus]}


def _cli_ops(rng, sizes: Sizes, workdir: Path) -> list:
    d = sizes.cli_iso_d
    da, db = sizes.cli_equivalence_dims
    tau_out = str(workdir / "tau_out.json")
    ops = []
    for i in range(sizes.cli_pool_cycles):
        for cls in CLI_CYCLE:
            if cls == "iso_forward":
                rho = _write(workdir / f"rho{i}.json", _state_json(wishart(rng, d, d)))
                chan = stinespring_kraus(rng, d, d, sizes.cli_kraus)
                chan = _write(workdir / f"channel{i}.json", _channel_json(chan))
                argv = ["iso", "forward", "--rho", rho, "--channel", chan, "--out", tau_out]
            elif cls == "iso_reverse":
                tau = dual_state(wishart(rng, d, d), stinespring_kraus(rng, d, d, sizes.cli_kraus))
                tau = _write(workdir / f"tau{i}.json", _state_json(tau))
                argv = ["iso", "reverse", "--tau", tau, "--dimA", str(d), "--dimB", str(d)]
            elif cls == "verify_equivalence":
                argv = [
                    "verify", "equivalence", "--dimA", str(da), "--dimB", str(db),
                    "--trials", str(sizes.cli_equivalence_trials),
                    "--seed", str(int(rng.integers(2**31))),
                ]
            elif cls == "sample":
                probs = rng.random((3, 4)) + 0.05
                probs /= probs.sum()
                table = {
                    "probs": _matrix_json(probs),
                    "m_labels": ["a", "b", "c"],
                    "n_labels": ["w", "x", "y", "z"],
                }
                table = _write(workdir / f"table{i}.json", table)
                argv = [
                    "sample", "--table", table,
                    "--trials", str(sizes.cli_sample_trials),
                    "--seed", str(int(rng.integers(2**31))),
                ]
            else:
                dd = sizes.cli_decompose_d
                kraus = rotate(rng, structured_kraus(rng, dd, (dd + 1) // 2))
                chan = _write(workdir / f"decompose{i}.json", _channel_json(kraus))
                argv = ["decompose", "--channel", chan]
            ops.append(Op(cls, lambda a=argv: _cli_main(a), _cli_ok))
    return ops


class CliExit(Exception):
    """The CLI returned a nonzero exit code other than a failed check."""


def _cli_main(argv):
    """In-process qduality.cli.main with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    if code not in (0, 2):
        raise CliExit(f"exit {code}: {err.getvalue().strip()}")
    return code, out.getvalue()


def _cli_ok(out) -> bool:
    code, text = out
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return False
    checks = report.get("checks") or []
    return code == 0 and bool(checks) and all(c["pass"] for c in checks)


# ---------------------------------------------------------------- entry


def build(name: str, rng, sizes: Sizes, workdir: Path) -> list:
    """The pool of ops of one workload, in the order they run."""
    if name == "duality_roundtrip":
        return _roundtrip_ops(rng, sizes)
    if name == "fixed_algebra":
        return _fixed_ops(rng, sizes)
    if name == "cli_files":
        return _cli_ops(rng, sizes, workdir)
    raise ValueError(f"unknown workload {name!r}")
