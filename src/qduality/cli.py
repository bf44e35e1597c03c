"""Command-line front end: every verification is a subcommand with a JSON report.

Exit codes: 0 all checks pass, 1 input validation failure, 2 a check exceeded
its tolerance, 3 unsupported structure or unmet theorem hypothesis.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import correlations, duality, fixedpoints, randomgen, serialize, witnesses
from . import tolerances as tol
from .duality import BipartiteState, IsoPair, eigenbasis, iso_forward, iso_reverse
from .errors import (
    PreconditionError,
    QdualityError,
    UnsupportedStructureError,
    ValidationError,
)
from .linalg import dagger, hermitize
from .qobjects import DensityOperator, KrausChannel, identity_channel

_EPILOG = """\
verification map (claim -> subcommand):
  duality round trip (state, channel-on-support) <-> joint state   verify roundtrip
  parallel vs prepare-evolve-measure statistics agree               verify equivalence
  partial trace commutes with channel application                   verify trace-commute
  commuting measurement commutes with the duality map               verify measure-commute
  fixed operators form a direct sum of tensor-product blocks        fixed-points, decompose
  broadcasting two noncommuting fixed states forces clonable pairs  broadcast-demo
  post-selected joint states are pure and entangled on both wings   monogamy-demo
  cloning a nonorthogonal pure ensemble gives entangled pure duals  cloning-demo
  universal broadcasting <-> maximally entangled pure joint states  universal-demo
  joint-statistics Monte Carlo regression                           sample
"""


class _Run:
    """Collects loaded-file bytes, checks and outputs for one invocation."""

    def __init__(self, argv):
        self.argv = list(argv)
        self.digest = hashlib.sha256(json.dumps(self.argv).encode())
        self.checks = []
        self.extras = {}
        self.seed = None
        self.start = time.monotonic()

    def load(self, path):
        raw = Path(path).read_bytes()
        self.digest.update(raw)
        return serialize.loads(raw, path)

    def check(self, name, value, tolerance, larger_ok=False):
        self.checks.append(witnesses.check(name, value, tolerance, larger_ok))

    def report(self, command):
        return {
            "command": command,
            "inputsDigest": self.digest.hexdigest(),
            "checks": self.checks,
            "seed": self.seed,
            "elapsedMs": (time.monotonic() - self.start) * 1000.0,
            **self.extras,
        }


def _write_out(path, obj):
    if path:
        serialize.save(path, obj)


def _load_state(run, path) -> DensityOperator:
    return serialize.state_from_json(run.load(path))


def _load_channel(run, path) -> KrausChannel:
    return serialize.channel_from_json(run.load(path))


def _load_bipartite(run, path, da, db) -> BipartiteState:
    rho = _load_state(run, path)
    return BipartiteState(rho, (da, db))


def _reverse(run, args) -> IsoPair:
    """Load tau and recover (rho, channel) by iso_reverse.

    The rebuilt tau is checked against the loaded one through their
    factors, so neither (dA dB)^2 matrix is formed.
    """
    tau = _load_bipartite(run, args.tau, args.dimA, args.dimB)
    pair = iso_reverse(tau)
    dev = duality.factor_distance(
        iso_forward(pair).state.factor(), tau.state.factor()
    )
    run.check("reconstructed_joint_state", dev, args.tol)
    return pair


def _cmd_iso(run, args):
    if args.mode == "forward":
        pair = IsoPair(_load_state(run, args.rho), _load_channel(run, args.channel))
        tau = iso_forward(pair)
        # tau_A = X~ X~† with X~ tau's factor folded to dA x (dB k): tau's
        # (dA dB)^2 matrix is never formed
        folded = tau.state.factor().reshape(pair.rho.dim, -1)
        dev = np.max(np.abs(folded @ folded.conj().T - pair.rho.matrix.T))
        run.check("marginal_matches_transposed_input", dev, tol.MARGINAL_TOL)
        _write_out(args.out, serialize.factor_to_json(tau.state.factor()))
    else:
        pair = _reverse(run, args)
        run.extras["supportRank"] = pair.support_rank
        _write_out(args.out_rho, serialize.state_to_json(pair.rho))
        _write_out(args.out_channel, serialize.channel_to_json(pair.channel))


def _cmd_std_iso(run, args):
    if args.mode == "forward":
        e = _load_channel(run, args.channel)
        # the Choi state X X† as its factor; its A-marginal is X~ X~†
        x = e.factor(np.eye(e.din) / np.sqrt(e.din))
        if e.is_trace_preserving:
            folded = x.reshape(e.din, -1)
            run.check(
                "maximally_mixed_marginal",
                np.max(np.abs(folded @ folded.conj().T - np.eye(e.din) / e.din)),
                tol.MARGINAL_TOL,
            )
        _write_out(args.out, serialize.factor_to_json(x))
    else:
        # a Choi state is the dual state of (I/dA, E); its channel is
        # trace-nonincreasing exactly when dA rho <= I
        pair = _reverse(run, args)
        top = float(pair.support.eigenvalues[0])
        if args.dimA * top > 1 + tol.TP_TOL:
            raise ValidationError(
                f"not a Choi state: its A-marginal has largest eigenvalue {top:.6g}"
                f" > 1/dimA = {1 / args.dimA:.6g}"
            )
        _write_out(args.out, serialize.channel_to_json(pair.channel))


def _roundtrip_trial(rng, da, db):
    res = duality.verify_roundtrip(randomgen.random_iso_pair(da, db, rng))
    return max(res["rho_deviation"], res["channel_deviation"])


def _equivalence_trial(rng, da, db):
    pair = randomgen.random_iso_pair(da, db, rng)
    m = randomgen.random_povm(da, int(rng.integers(2, 6)), rng)
    n = randomgen.random_povm(db, int(rng.integers(2, 6)), rng)
    return correlations.verify_equivalence(pair, m, n)


def _trace_commute_trial(rng, da, db):
    rho = randomgen.random_density(da * db, rng)
    e = randomgen.random_channel(da * db, da * db, rng)
    return duality.verify_trace_commute(rho, e, (da, db))


def _measure_commute_trial(rng, da, db):
    pair = randomgen.random_iso_pair(da, db, rng)
    basis = eigenbasis(pair.rho)
    m = randomgen.random_diagonal_povm(da, int(rng.integers(2, 5)), rng, basis=basis)
    outcome = int(rng.integers(len(m)))
    return duality.verify_measure_commute(pair.rho, pair.channel, m, outcome, basis)


# `verify` suites: each draws one trial from the shared stream and returns its
# deviation; the keys are the parser's choices and tol.VERIFY_TOL's keys
_SUITES = {
    "roundtrip": _roundtrip_trial,
    "equivalence": _equivalence_trial,
    "trace-commute": _trace_commute_trial,
    "measure-commute": _measure_commute_trial,
}


def _cmd_verify(run, args):
    rng = randomgen.rng_from(args.seed)
    run.seed = args.seed
    trial = _SUITES[args.what]
    worst = 0.0
    for _ in range(args.trials):
        worst = max(worst, trial(rng, args.dimA, args.dimB))
    run.check("max_deviation", worst, tol.VERIFY_TOL[args.what] if args.tol is None else args.tol)
    run.extras["trials"] = args.trials


def _cmd_fixed_points(run, args):
    e = _load_channel(run, args.channel)
    space = fixedpoints.fixed_point_space(e)
    worst = float(np.max(np.abs(e(space.basis) - space.basis), initial=0.0))
    run.check("basis_invariance", worst, tol.FIX_TOL)
    run.extras["dim"] = space.dim


def _cmd_decompose(run, args):
    e = _load_channel(run, args.channel)
    blocks = fixedpoints.decompose_fixed_algebra(e)
    # five random states mu = G G† / ||G||_F^2 per block, drawn and normed
    # as five random_density calls draw and norm them, lifted as one stack
    # per block; the channel is applied once to all of them
    rng = randomgen.rng_from(0)
    lifted = []
    for block in blocks:
        z = rng.standard_normal((5, 2, 1, block.d1 * block.d1))
        # ||G||_F^2 = Re G . Re G + Im G . Im G, the two dot products of np.linalg.norm
        norm = np.sqrt((z @ z.swapaxes(-1, -2)).sum(axis=(1, 2, 3)))
        g = (z[:, 0, 0] + 1j * z[:, 1, 0]).reshape(5, block.d1, block.d1) / norm[:, None, None]
        lifted.append(block.embed(hermitize(g @ dagger(g))))
    lifted = np.concatenate(lifted)
    worst = float(np.max(np.abs(e(lifted) - lifted)))
    run.check("block_reconstruction", worst, tol.EMBEDDED_FIX_TOL)
    run.extras["blocks"] = [{"d1": b.d1, "d2": b.d2} for b in blocks]
    run.extras["fixedSpaceDim"] = sum(b.d1 * b.d1 for b in blocks)


def _demo_channels(run, args, dim):
    e1 = _load_channel(run, args.channel1) if args.channel1 else identity_channel(dim)
    e2 = _load_channel(run, args.channel2) if args.channel2 else identity_channel(dim)
    return e1, e2


def _cmd_broadcast(run, args):
    s1 = _load_state(run, args.sigma1)
    s2 = _load_state(run, args.sigma2)
    e1, e2 = _demo_channels(run, args, s1.dim)
    w = witnesses.broadcast_obstruction(s1, s2, e1, e2)
    run.check("witness_overlap_above_zero", w.overlap, tol.OVERLAP_TOL, larger_ok=True)
    run.check("witness_overlap_below_one", w.overlap, 1 - tol.OVERLAP_TOL)
    # both witnesses |v><v| lifted as one stack, each channel applied once
    v = np.stack(w.clonable_states)
    full = w.block.embed(v[:, :, None] * v[:, None, :].conj())
    dev = np.max([np.max(np.abs(ch(full) - full), axis=(1, 2)) for ch in (e1, e2)], axis=0)
    for name, value in zip(("witness1", "witness2"), dev):
        run.check(f"{name}_fixed_by_both_channels", value, tol.EMBEDDED_FIX_TOL)
    run.extras["blockIndex"] = w.block_index
    run.extras["overlap"] = w.overlap


def _cmd_monogamy(run, args):
    s1 = _load_state(run, args.sigma1)
    s2 = _load_state(run, args.sigma2)
    e1, e2 = _demo_channels(run, args, s1.dim)
    result = witnesses.monogamy_demo(args.p, s1, s2, e1, e2)
    run.checks.extend(result["checks"])
    run.extras["results"] = result["results"]


def _cmd_cloning(run, args):
    ens = serialize.ensemble_from_json(run.load(args.ensemble))
    e1, e2 = _demo_channels(run, args, ens.dim)
    result = witnesses.cloning_demo(ens, e1, e2)
    run.checks.extend(result["checks"])
    run.extras["results"] = result["results"]


def _cmd_universal(run, args):
    if args.direction == "a":
        e1 = _load_channel(run, args.channel1)
        e2 = _load_channel(run, args.channel2)
        result = witnesses.universal_from_channels(e1, e2)
    else:
        t1 = _load_bipartite(run, args.tau1, args.dimA, args.dimB)
        t2 = _load_bipartite(run, args.tau2, args.dimA, args.dimB)
        result = witnesses.universal_from_states(t1, t2)
    run.checks.extend(result["checks"])
    run.extras["verdict"] = result["verdict"]
    if not result["verdict"] and all(c["pass"] for c in result["checks"]):
        run.extras["verdictNote"] = "not universal-broadcasting evidence"


def _cmd_sample(run, args):
    table = serialize.table_from_json(run.load(args.table))
    run.seed = args.seed
    rep = correlations.sample(table, args.trials, args.seed)
    run.check("tv_distance", rep.tv_distance, args.tol)
    run.extras["counts"] = [[int(c) for c in row] for row in rep.counts]
    run.extras["trials"] = rep.trials


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors are invalid input, not argparse's exit 2."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command's parser, built once per process; parse_args leaves it unchanged."""
    parser = _Parser(
        prog="qduality",
        description="Channel-state duality toolkit: verify, decompose, demo.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("iso", help="state-dependent channel/state duality map")
    p.add_argument("mode", choices=["forward", "reverse"])
    p.add_argument("--rho")
    p.add_argument("--channel")
    p.add_argument("--tau")
    p.add_argument("--dimA", type=int)
    p.add_argument("--dimB", type=int)
    p.add_argument("--tol", type=float, default=tol.ROUNDTRIP_TOL)
    p.add_argument("--out")
    p.add_argument("--out-rho")
    p.add_argument("--out-channel")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("std-iso", help="standard channel/state duality map")
    p.add_argument("mode", choices=["forward", "reverse"])
    p.add_argument("--channel")
    p.add_argument("--tau")
    p.add_argument("--dimA", type=int)
    p.add_argument("--dimB", type=int)
    p.add_argument("--tol", type=float, default=tol.ROUNDTRIP_TOL)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_std_iso)

    p = sub.add_parser("verify", help="randomized property suites")
    p.add_argument("what", choices=list(_SUITES))
    p.add_argument("--dimA", type=int, default=2)
    p.add_argument("--dimB", type=int, default=2)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("fixed-points", help="dimension of the invariant-operator space")
    p.add_argument("--channel", required=True)
    p.set_defaults(func=_cmd_fixed_points)

    p = sub.add_parser("decompose", help="tensor-product block structure of fixed points")
    p.add_argument("--channel", required=True)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("broadcast-demo", help="clonable witness from broadcasting")
    p.add_argument("--sigma1", required=True)
    p.add_argument("--sigma2", required=True)
    p.add_argument("--channel1")
    p.add_argument("--channel2")
    p.set_defaults(func=_cmd_broadcast)

    p = sub.add_parser("monogamy-demo", help="pure entangled post-selected factors")
    p.add_argument("--sigma1", required=True)
    p.add_argument("--sigma2", required=True)
    p.add_argument("--channel1")
    p.add_argument("--channel2")
    p.add_argument("--p", type=float, default=0.5)
    p.set_defaults(func=_cmd_monogamy)

    p = sub.add_parser("cloning-demo", help="entangled pure duals from a cloned ensemble")
    p.add_argument("--ensemble", required=True)
    p.add_argument("--channel1")
    p.add_argument("--channel2")
    p.set_defaults(func=_cmd_cloning)

    p = sub.add_parser("universal-demo", help="universal broadcasting equivalence")
    p.add_argument("--direction", choices=["a", "b"], required=True)
    p.add_argument("--channel1")
    p.add_argument("--channel2")
    p.add_argument("--tau1")
    p.add_argument("--tau2")
    p.add_argument("--dimA", type=int)
    p.add_argument("--dimB", type=int)
    p.set_defaults(func=_cmd_universal)

    p = sub.add_parser("sample", help="seeded Monte Carlo joint-statistics regression")
    p.add_argument("--table", required=True)
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--tol", type=float, default=tol.SAMPLE_TV_TOL)
    p.set_defaults(func=_cmd_sample)

    return parser


# arguments each (command, mode) needs beyond what the parser enforces; like
# the parser's own usage errors, a missing one is invalid input (exit 1)
_REQUIRED = {
    ("iso", "forward"): ("rho", "channel"),
    ("iso", "reverse"): ("tau", "dimA", "dimB"),
    ("std-iso", "forward"): ("channel",),
    ("std-iso", "reverse"): ("tau", "dimA", "dimB"),
    ("universal-demo", "a"): ("channel1", "channel2"),
    ("universal-demo", "b"): ("tau1", "tau2", "dimA", "dimB"),
}


def _validate(args) -> None:
    """Reject missing per-mode arguments, nonpositive counts, a mixing
    weight outside (0, 1) and a tolerance outside (0, inf) before any work."""
    mode = getattr(args, "mode", None) or getattr(args, "direction", None)
    missing = [
        f"--{name}"
        for name in _REQUIRED.get((args.command, mode), ())
        if getattr(args, name) is None
    ]
    if missing:
        raise ValidationError(f"{args.command} {mode} needs {' and '.join(missing)}")
    for name in ("trials", "dimA", "dimB"):
        value = getattr(args, name, None)
        if value is not None and value < 1:
            raise ValidationError(f"--{name} must be at least 1, got {value}")
    p = getattr(args, "p", None)
    if p is not None and not 0 < p < 1:
        raise ValidationError(f"--p must lie strictly between 0 and 1, got {p}")
    # an infinite tolerance would pass every check and print Infinity, not JSON
    t = getattr(args, "tol", None)
    if t is not None and not 0 < t < np.inf:
        raise ValidationError(f"--tol must be positive and finite, got {t}")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    run = _Run(argv)
    try:
        args = build_parser().parse_args(argv)
        _validate(args)
        args.func(run, args)
    except (UnsupportedStructureError, PreconditionError) as err:
        print(f"unsupported structure: {err}", file=sys.stderr)
        return 3
    except (ValidationError, QdualityError, OSError) as err:
        print(f"invalid input: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:
        print(f"invalid input: too large to hold in memory: {err}", file=sys.stderr)
        return 1
    sub = getattr(args, "mode", None) or getattr(args, "what", None)
    rep = run.report(args.command + (f" {sub}" if sub else ""))
    print(serialize.dumps(rep), end="")
    return 0 if all(c["pass"] for c in run.checks) else 2


if __name__ == "__main__":
    sys.exit(main())
