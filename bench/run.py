"""Closed-loop benchmark of qduality, measured from outside the package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One caller in one process runs a fixed, seeded sequence of ops; each op
starts when the previous one has returned and its output is checked.  The
package is imported from ``src/`` next to this directory; without it the
benchmark exits with code 2 and prints no result.

--trace 0 sets up SETUP_REPEATS times (reporting the median as setup_s),
then times whole passes over the ops for at least S seconds and prints the
end-to-end metrics.  Every time it reports is scaled to a reference host
speed by the probe in speed.py, timed before and after each op and set-up.
--trace 1 sets up once, then for up to S seconds runs whole passes in which
each cycle of ops runs untraced and again traced, and prints per-op means of
the per-layer counters, the traced over untraced goodput, and the scaling
exponents of a dimension sweep.

Both print a details line (machine, versions, raw wall-clock figures, raw
per-op latencies) and, as the last line of standard output, one JSON object
with the keys correct, attempted, failed and metrics.  `failed` counts ops
that raised or whose output missed its tolerance; `correct` is false when an
op returned an output that missed its tolerance.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

# one BLAS thread: the host is small and shared, and extra threads only add
# scheduling noise to a single caller
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 7
SETUP_PROBES = 7
# at least ten samples beyond the 90th percentile
MIN_OPS = 100
SWEEP_REPEATS = 5

IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import numpy, qduality, qduality.cli\n"
    "print(time.perf_counter() - t)\n"
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qduality" / "__init__.py").is_file():
        print(f"qduality sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    import qduality

    if Path(qduality.__file__).resolve().parent != SRC / "qduality":
        print(f"imported qduality from {qduality.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    bench = Bench(args, workloads.TINY if args.tiny else workloads.FULL)
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR))
    try:
        result, details = bench.run_traced(workdir) if args.trace else bench.run(workdir)
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


class BenchError(Exception):
    """A run that cannot report its metrics."""


class Bench:
    def __init__(self, args, sizes):
        import workloads

        self.args = args
        self.sizes = sizes
        self.workloads = workloads
        self.cycle = workloads.WORKLOADS[args.workload]

    # ------------------------------------------------------------ set-up

    def import_seconds(self) -> float:
        """Time to import numpy and qduality in a fresh interpreter."""
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        return float(out.stdout.strip().splitlines()[-1])

    def set_up(self, workdir):
        """Generate inputs, build the ops and run one op of each class."""
        import numpy as np

        start = perf_counter()
        rng = np.random.Generator(np.random.PCG64(self.args.seed))
        ops = self.workloads.build(self.args.workload, rng, self.sizes, workdir)
        warmed = set()
        for op in ops:
            if op.cls not in warmed:
                warmed.add(op.cls)
                run_op(op)
        return ops, perf_counter() - start

    def scaled_set_up(self, workdir, probe):
        """One set-up with its import, in raw and in reference-speed seconds.

        A set-up is one interval of a second or so, not hundreds of ops, so
        each probe time that brackets it is the median of several.
        """
        probe.factor(SETUP_PROBES)  # fresh probe times right before
        raw = self.import_seconds()
        ops, built = self.set_up(workdir)
        raw += built
        return ops, raw, raw * probe.factor(SETUP_PROBES)

    # -------------------------------------------------------------- runs

    def run(self, workdir):
        """Untraced run: the end-to-end metrics, at reference host speed."""
        import speed

        probe = speed.SpeedProbe(memory=self.args.workload in self.workloads.MEMORY_BOUND)
        raw_setups, setups = [], []
        for _ in range(SETUP_REPEATS):
            ops, raw, scaled = self.scaled_set_up(workdir, probe)
            raw_setups.append(raw)
            setups.append(scaled)
        loop = timed_loop(ops, self.args.seconds, probe)
        scaled = loop.percentiles(scaled=True)
        raw = loop.percentiles(scaled=False)
        metrics = {
            "goodput_ops_per_s": (loop.goodput(scaled=True), "ops/s"),
            "latency_p50_ms": (scaled["p50"] * 1e3, "ms"),
            "latency_p90_ms": (scaled["p90"] * 1e3, "ms"),
            "pass_rate": (loop.passed / len(loop.records), "ratio"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        factors = [r[3] for r in loop.records]
        details = self.details(loop)
        details.update(
            samples=len(loop.records),
            beyond_p90=scaled["beyond_p90"],
            setup_repeats_s=setups,
            wall_clock={
                "goodput_ops_per_s": loop.goodput(scaled=False),
                "latency_p50_ms": raw["p50"] * 1e3,
                "latency_p90_ms": raw["p90"] * 1e3,
                "setup_s": statistics.median(raw_setups),
                "setup_repeats_s": raw_setups,
            },
            speed_factor={
                "reference_probe_ms": probe.reference_s * 1e3,
                "median_probe_ms": statistics.median(probe.times) * 1e3,
                "min": min(factors),
                "median": statistics.median(factors),
                "max": max(factors),
            },
            latencies_ms=[round(r[1] * 1e3, 4) for r in loop.records],
            factors=[round(r[3], 4) for r in loop.records],
        )
        return result(loop, [loop], metrics), details

    def run_traced(self, workdir):
        """Traced run: per-layer metrics, trace overhead and the sweep.

        Each cycle of ops runs untraced and then traced, so both goodputs see
        the same ops under the same host conditions.  The traced ops cover
        whole passes over the input pool, so their counts repeat exactly; a
        pass starts only if it is expected to end within `seconds`, but at
        least one runs.
        """
        import spans
        import speed

        ops, _ = self.set_up(workdir)
        tracer = spans.Tracer()
        plain, traced = Loop(), Loop()
        cycle = len(self.cycle)
        start = perf_counter()
        while True:
            pass_start = perf_counter()
            for i in range(0, len(ops), cycle):
                chunk = ops[i : i + cycle]
                plain.extend(chunk)
                tracer.install()
                try:
                    traced.extend(chunk)
                finally:
                    tracer.uninstall()
            now = perf_counter()
            if now - start + (now - pass_start) > self.args.seconds:
                break
        if not plain.passed:
            raise BenchError("no op passed; no goodput to compare")
        metrics = {name: (value, unit_of(name)) for name, value in tracer.per_op(len(traced.records)).items()}
        metrics["trace.overhead_ratio"] = (traced.goodput(scaled=False) / plain.goodput(scaled=False), "ratio")
        # the sweep's ops are the same on every workload, and a memory-bound
        # probe part would evict their inputs from cache before each call
        times, exponents = sweep(self.sizes, self.args.seed, speed.SpeedProbe())
        for name, value in exponents.items():
            metrics[f"{name}.d_exp"] = (value, "exponent")
        details = self.details(traced)
        details.update(untraced_wall_s=plain.wall, sweep_ms=times)
        return result(traced, [plain, traced], metrics), details

    def details(self, loop) -> dict:
        import numpy as np

        try:
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
            blas = f"{blas['name']} {blas['version']}"
        except (KeyError, TypeError):
            blas = "unknown"
        failures = {}
        for i, (cls, _, status, _) in enumerate(loop.records):
            if status != "pass":
                failures.setdefault(f"{cls}:{status}", []).append(i)
        return {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "seconds": self.args.seconds,
            "trace": self.args.trace,
            "tiny": self.args.tiny,
            "cycle": list(self.cycle),
            "machine": {
                "nproc": os.cpu_count(),
                "affinity": len(os.sched_getaffinity(0)),
                "cpu_model": cpu_model(),
                "python": platform.python_version(),
                "numpy": np.__version__,
                "blas": blas,
                "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            },
            "loop_wall_s": loop.wall,
            "failures": failures,
        }


# ---------------------------------------------------------------- loop


class Loop:
    """Per-op records of a closed loop and the time spent in its ops."""

    def __init__(self, probe=None):
        # (op class, latency in s, "pass" | "wrong" | exception name,
        #  host-speed factor); the factor is 1 without a probe
        self.records = []
        self.probe = probe
        self.passed = 0
        self.wrong = 0
        self.wall = 0.0  # run and check of every op, probes excluded
        self.scaled_wall = 0.0

    def extend(self, ops):
        """Run the ops one after another, each after the previous returned."""
        for op in ops:
            start = perf_counter()
            latency, status = run_op(op)
            elapsed = perf_counter() - start
            factor = self.probe.factor() if self.probe else 1.0
            self.records.append((op.cls, latency, status, factor))
            self.passed += status == "pass"
            self.wrong += status == "wrong"
            self.wall += elapsed
            self.scaled_wall += elapsed * factor

    def goodput(self, scaled: bool) -> float:
        return self.passed / (self.scaled_wall if scaled else self.wall)

    def percentiles(self, scaled: bool) -> dict:
        """Nearest-rank p50 and p90 with failed ops as +inf."""
        lat = sorted(
            (r[1] * (r[3] if scaled else 1.0)) if r[2] == "pass" else math.inf for r in self.records
        )
        p50, _ = nearest_rank(lat, 0.5)
        p90, beyond = nearest_rank(lat, 0.9)
        if beyond < 10:
            raise BenchError(f"only {beyond} samples beyond the 90th percentile")
        if math.isinf(p90):
            raise BenchError("more than a tenth of the ops failed; no latency percentile")
        return {"p50": p50, "p90": p90, "beyond_p90": beyond}


def run_op(op):
    start = perf_counter()
    try:
        out = op.run()
    except Exception as err:  # every exception is a failed op, named in the details
        return perf_counter() - start, type(err).__name__
    latency = perf_counter() - start
    try:
        ok = op.check(out)
    except (KeyError, TypeError, ValueError):
        ok = False
    return latency, "pass" if ok else "wrong"


def timed_loop(ops, seconds, probe) -> Loop:
    """Run whole passes over the ops until `seconds` have passed and at least
    MIN_OPS ops have run, so every run of a seed times the same ops."""
    loop = Loop(probe)
    probe.factor()  # a fresh probe time right before the first op
    start = perf_counter()
    while len(loop.records) < MIN_OPS or perf_counter() - start < seconds:
        loop.extend(ops)
    return loop


def nearest_rank(sorted_values, q):
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = math.ceil(q * len(sorted_values))
    return sorted_values[rank - 1], len(sorted_values) - rank


def result(main_loop, loops, metrics) -> dict:
    return {
        "correct": not any(loop.wrong for loop in loops),
        "attempted": len(main_loop.records),
        "failed": len(main_loop.records) - main_loop.passed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms/op"
    if name.endswith("_mib"):
        return "MiB/op"
    return "calls/op"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


# --------------------------------------------------------------- sweep


def sweep(sizes, seed, probe):
    """Best-of-SWEEP_REPEATS times over a dimension grid, at reference host
    speed, and fitted d-exponents."""
    import numpy as np

    import qduality
    import workloads as w

    rng = np.random.Generator(np.random.PCG64(seed))
    times = {"duality.iso_forward": {}, "duality.iso_reverse": {}, "qobjects.choi": {}, "fixedpoints.decompose": {}}
    for d in sizes.sweep_iso_dims:
        chan = qduality.KrausChannel(w.stinespring_kraus(rng, d, d, d), d, d)
        pair = qduality.IsoPair(qduality.DensityOperator(w.wishart(rng, d, d)), chan)
        tau = qduality.iso_forward(pair)
        times["duality.iso_forward"][d] = best_of(lambda: qduality.iso_forward(pair), probe)
        times["duality.iso_reverse"][d] = best_of(lambda: qduality.iso_reverse(tau), probe)
        times["qobjects.choi"][d] = best_of(chan.choi, probe)
    for d in sizes.sweep_decompose_dims:
        chan = qduality.KrausChannel(w.structured_kraus(rng, d, d // 2), d, d)
        times["fixedpoints.decompose"][d] = best_of(lambda: qduality.decompose_fixed_algebra(chan), probe)
    exponents = {}
    for name, by_d in times.items():
        dims = np.array(list(by_d))
        exponents[name] = float(np.polyfit(np.log(dims), np.log(list(by_d.values())), 1)[0])
    ms = {name: {str(d): t * 1e3 for d, t in by_d.items()} for name, by_d in times.items()}
    return ms, exponents


def best_of(fn, probe) -> float:
    best = math.inf
    for _ in range(SWEEP_REPEATS):
        probe.factor()
        start = perf_counter()
        fn()
        elapsed = perf_counter() - start
        best = min(best, elapsed * probe.factor())
    return best


if __name__ == "__main__":
    sys.exit(main())
