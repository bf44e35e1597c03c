"""Command-line front end: every verification is a subcommand with a JSON report.

Exit codes: 0 all checks pass, 1 input validation failure, 2 a check exceeded
its tolerance, 3 unsupported structure or unmet theorem hypothesis.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import correlations, duality, fixedpoints, linalg, randomgen, serialize, witnesses
from . import tolerances as tol
from .duality import BipartiteState, IsoPair, iso_forward, iso_reverse
from .errors import (
    PreconditionError,
    QdualityError,
    UnsupportedStructureError,
    ValidationError,
)
from .linalg import dagger, hermitize
from .qobjects import DensityOperator, KrausChannel, check_unit_trace, identity_channel

_EPILOG = """\
verification map (claim -> subcommand):
  duality round trip (state, channel-on-support) <-> joint state   verify roundtrip
  parallel vs prepare-evolve-measure statistics agree               verify equivalence
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

    def read(self, path, build):
        """build(the JSON value in the file at path), the file's bytes added to
        the inputs digest: every input file is read here.

        The bytes are decoded and built with the cyclic garbage collector
        paused, and the collector is left as it was found, also when build
        raises.  The decoded tree is acyclic and dies inside this call, freed
        by reference counting, so no sweep could free any of it; with the
        collector running, the 4097 lists of a 64 x 64 matrix file set off
        sweeps that walk them all.
        """
        raw = Path(path).read_bytes()
        self.digest.update(raw)
        enabled = gc.isenabled()
        gc.disable()
        try:
            return build(serialize.loads(raw, path))
        finally:
            if enabled:
                gc.enable()

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
    return run.read(path, serialize.state_from_json)


def _load_channel(run, path) -> KrausChannel:
    return run.read(path, serialize.channel_from_json)


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


def _cmd_iso_forward(run, args):
    pair = IsoPair(_load_state(run, args.rho), _load_channel(run, args.channel))
    tau = iso_forward(pair)
    dev = np.max(np.abs(tau.marginal("A") - pair.rho.matrix.T))
    run.check("marginal_matches_transposed_input", dev, tol.MARGINAL_TOL)
    _write_out(args.out, serialize.factor_to_json(tau.state.factor()))


def _cmd_iso_reverse(run, args):
    pair = _reverse(run, args)
    run.extras["supportRank"] = pair.support_rank
    _write_out(args.out_rho, serialize.state_to_json(pair.rho))
    _write_out(args.out_channel, serialize.channel_to_json(pair.channel))


def _cmd_std_iso_forward(run, args):
    e = _load_channel(run, args.channel)
    # the Choi state X X† as its factor
    x = e.factor(np.eye(e.din) / np.sqrt(e.din))
    if e.is_trace_preserving:
        marginal = linalg.factor_partial_trace(x, (e.din, e.dout), "A")
        dev = np.max(np.abs(marginal - np.eye(e.din) / e.din))
        run.check("maximally_mixed_marginal", dev, tol.MARGINAL_TOL)
    _write_out(args.out, serialize.factor_to_json(x))


def _cmd_std_iso_reverse(run, args):
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


def _pairs_and_taus(g, a, db):
    """The stacked pairs of random_iso_pair from their Gaussians, with the factors of their taus."""
    rho, vecs, ranks, root, kraus = randomgen.iso_pair_stack(np.stack(g), np.stack(a), db)
    x = duality.forward_factor(root, kraus)
    check_unit_trace(x)
    return rho, vecs, ranks, root, kraus, x


def _roundtrip_check(draws, da, db):
    rho, vecs, ranks, _, kraus, x = _pairs_and_taus(*zip(*draws), db)
    back_rho, back_kraus = duality.reverse_stack(x, (da, db))
    return np.maximum(*duality.roundtrip_deviations(rho, vecs, ranks, kraus, back_rho, back_kraus))


def _equivalence_draw(da, db, rng):
    g, a = randomgen.draw_iso_pair(da, db, rng)
    zm = rng.standard_normal((int(rng.integers(2, 6)), 2, da, da))
    return g, a, zm, rng.standard_normal((int(rng.integers(2, 6)), 2, db, db))


def _equivalence_check(draws, da, db):
    g, a, zm, zn = zip(*draws)
    _, _, _, root, kraus, x = _pairs_and_taus(g, a, db)
    m, n = randomgen.povm_stack(zm), randomgen.povm_stack(zn)
    return correlations.equivalence_deviations(root, kraus, x, m, n, (da, db))


def _measure_commute_draw(da, db, rng):
    g, a = randomgen.draw_iso_pair(da, db, rng)
    w = rng.random((int(rng.integers(2, 5)), da))
    return g, a, w, int(rng.integers(len(w)))


def _measure_commute_check(draws, da, db):
    # each POVM is diagonal in its rho's eigenbasis, complete for a square draw
    g, a, w, outcomes = zip(*draws)
    _, vecs, _, root, kraus = randomgen.iso_pair_stack(np.stack(g), np.stack(a), db)
    els = randomgen.diagonal_povm_stack(w, vecs)
    m_root = linalg.support(els[np.arange(len(els)), outcomes]).power(0.5)
    return duality.measure_commute_deviations(root, kraus, m_root, vecs)


class _Suite(NamedTuple):
    """A `verify` suite.  `draw(dA, dB, rng)` reads one trial's raw numbers
    from the shared stream, in the order the suite has always read them;
    `check(draws, dA, dB)` builds a list of draws as one stack and gives
    each trial's deviation, one array, from one stacked kernel; `numbers(dA,
    dB)` bounds from above how many random numbers one draw holds."""

    draw: Callable
    check: Callable
    numbers: Callable


def _pair_numbers(da, db):
    """The random numbers of draw_iso_pair(dA, dB): a (2, dA, dA) state and a
    (2, dB dA, dA) Stinespring isometry."""
    return 2 * da * da * (1 + db)


# `verify` suites; the keys are the parser's choices and tol.VERIFY_TOL's keys
_SUITES = {
    "roundtrip": _Suite(randomgen.draw_iso_pair, _roundtrip_check, _pair_numbers),
    "equivalence": _Suite(
        _equivalence_draw,
        _equivalence_check,
        lambda da, db: _pair_numbers(da, db) + 10 * (da * da + db * db),
    ),
    "measure-commute": _Suite(
        _measure_commute_draw, _measure_commute_check, lambda da, db: _pair_numbers(da, db) + 4 * da
    ),
}

# a trial drawing more random numbers than this (256 PiB of them) could be
# held by no machine.  Up to it, every array a trial forms, at most 32 times
# the bytes of the numbers its suite's bound allows, has a size numpy can
# address: a run too large for memory then fails with MemoryError, not with
# numpy's ValueError on an unaddressable shape
_MAX_TRIAL_NUMBERS = 1 << 55
# `sample` counts are 64-bit integers
_MAX_SAMPLE_TRIALS = int(np.iinfo(np.int64).max)

# the random numbers the trials of one chunk may draw: a chunk is checked as
# one stack, so this bounds a run's memory however many trials it has
_CHUNK_NUMBERS = 1 << 16


def _deviations(suite, rng, da, db, trials):
    """Each trial's deviation, one array per chunk of trials, drawn in stream order.

    A chunk takes trials until their draws hold _CHUNK_NUMBERS random
    numbers; every trial's deviation is the same whatever chunk it is in.
    """
    left = trials
    while left:
        draws, numbers = [], 0
        while left and numbers < _CHUNK_NUMBERS:
            draws.append(suite.draw(da, db, rng))
            numbers += sum(map(np.size, draws[-1]))
            left -= 1
        yield suite.check(draws, da, db)


def _cmd_verify(run, args):
    rng = randomgen.rng_from(args.seed)
    run.seed = args.seed
    worst, worst_trial, start = 0.0, None, 0
    for devs in _deviations(_SUITES[args.what], rng, args.dimA, args.dimB, args.trials):
        # argmax, like max, takes the first nan: a nan trial is the worst and fails the check
        i = int(np.argmax(devs))
        if worst_trial is None or (not np.isnan(worst) and not devs[i] <= worst):
            worst, worst_trial = devs[i], start + i
        start += len(devs)
    run.check("max_deviation", worst, tol.VERIFY_TOL[args.what] if args.tol is None else args.tol)
    run.extras["trials"] = args.trials
    run.extras["worstTrial"] = worst_trial
    # a worst deviation of a few ulps per dimension is rounding: which trial it is says nothing
    floor = tol.WORST_TRIAL_FLOOR_PER_DIM * args.dimA * args.dimB
    run.extras["worstTrialResolved"] = not worst <= floor


def _cmd_fixed_points(run, args):
    e = _load_channel(run, args.channel)
    space = fixedpoints.fixed_point_space(e)
    worst = float(np.max(fixedpoints.fixed_deviation(e, space.basis), initial=0.0))
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
        g = randomgen.density_factor(rng.standard_normal((5, 2, block.d1, block.d1)))
        lifted.append(block.embed(hermitize(g @ dagger(g))))
    lifted = np.concatenate(lifted)
    worst = float(np.max(fixedpoints.fixed_deviation(e, lifted)))
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
    dev = np.max([fixedpoints.fixed_deviation(ch, full) for ch in (e1, e2)], axis=0)
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
    ens = run.read(args.ensemble, serialize.ensemble_from_json)
    e1, e2 = _demo_channels(run, args, ens.dim)
    result = witnesses.cloning_demo(ens, e1, e2)
    run.checks.extend(result["checks"])
    run.extras["results"] = result["results"]


# the inputs of each universal-demo direction; a direction reads no other
_UNIVERSAL_INPUTS = {"a": ("channel1", "channel2"), "b": ("tau1", "tau2", "dimA", "dimB")}


def _cmd_universal(run, args):
    needs = _UNIVERSAL_INPUTS[args.direction]
    missing = [f"--{name}" for name in needs if getattr(args, name) is None]
    if missing:
        raise ValidationError(f"universal-demo {args.direction} needs {' and '.join(missing)}")
    unread = [
        f"--{name}"
        for names in _UNIVERSAL_INPUTS.values()
        for name in names
        if name not in needs and getattr(args, name) is not None
    ]
    if unread:
        raise ValidationError(
            f"universal-demo {args.direction} does not read {' or '.join(unread)}"
        )
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
    table = run.read(args.table, serialize.table_from_json)
    run.seed = args.seed
    rep = correlations.sample(table, args.trials, args.seed)
    run.check("tv_distance", rep.tv_distance, args.tol)
    run.extras["counts"] = [[int(c) for c in row] for row in rep.counts]
    run.extras["trials"] = rep.trials


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors are invalid input, not argparse's exit 2."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def _reverse_parser(modes, summary):
    """The `reverse` mode of `iso` or `std-iso`: tau, its factor dimensions
    and the tolerance of the rebuilt tau, all that `_reverse` reads."""
    p = modes.add_parser("reverse", help=summary)
    p.add_argument("--tau", required=True)
    p.add_argument("--dimA", type=int, required=True)
    p.add_argument("--dimB", type=int, required=True)
    p.add_argument("--tol", type=float, default=tol.ROUNDTRIP_TOL)
    return p


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
    modes = p.add_subparsers(dest="mode", required=True)
    p = modes.add_parser("forward", help="(rho, channel) -> tau")
    p.add_argument("--rho", required=True)
    p.add_argument("--channel", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_iso_forward)
    p = _reverse_parser(modes, "tau -> (rho, channel on its support)")
    p.add_argument("--out-rho")
    p.add_argument("--out-channel")
    p.set_defaults(func=_cmd_iso_reverse)

    p = sub.add_parser("std-iso", help="standard channel/state duality map")
    modes = p.add_subparsers(dest="mode", required=True)
    p = modes.add_parser("forward", help="channel -> Choi state")
    p.add_argument("--channel", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_std_iso_forward)
    p = _reverse_parser(modes, "Choi state -> channel")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_std_iso_reverse)

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


def _validate(args) -> None:
    """Reject nonpositive counts, sizes no array could hold, a negative seed,
    a mixing weight outside (0, 1) and a tolerance outside (0, inf) before
    any work."""
    for name in ("trials", "dimA", "dimB"):
        value = getattr(args, name, None)
        if value is not None and value < 1:
            raise ValidationError(f"--{name} must be at least 1, got {value}")
    what = getattr(args, "what", None)
    if what is not None and _SUITES[what].numbers(args.dimA, args.dimB) > _MAX_TRIAL_NUMBERS:
        raise ValidationError(
            f"--dimA {args.dimA} --dimB {args.dimB}: a {what} trial is too large to hold in memory"
        )
    if args.command == "sample" and args.trials > _MAX_SAMPLE_TRIALS:
        raise ValidationError(f"--trials {args.trials} is too large to hold in memory")
    seed = getattr(args, "seed", None)
    if seed is not None and seed < 0:
        raise ValidationError(f"--seed must be nonnegative, got {seed}")
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
        args, unknown = build_parser().parse_known_args(argv)
        sub = getattr(args, "mode", None) or getattr(args, "what", None)
        command = args.command + (f" {sub}" if sub else "")
        if unknown:
            # named here: argparse reports a subcommand's extras as the root parser's
            raise ValidationError(
                f"qduality {command}: unrecognized arguments: {' '.join(unknown)}"
            )
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
    rep = run.report(command)
    print(serialize.dumps(rep), end="")
    return 0 if all(c["pass"] for c in run.checks) else 2


if __name__ == "__main__":
    sys.exit(main())
