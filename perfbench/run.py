"""Benchmark of hesselab: one workload, one seed, one single-threaded process.

Run from the repository root:

    python3 perfbench/run.py --workload certify-n3 --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` as the test suite does.  Whole rounds
of the workload run until ``--seconds`` of timed calls have passed.
``wall_s`` is the timed time of the run divided by its number of rounds,
and ``unit_p50_ms`` the median time of one unit, one of the workload's
alike operations.  Set-up is timed once before the first round and
``SETUP_PER_ROUND`` times after each round, so that its samples see the
same changes of host speed as the rounds; ``setup_s`` is their median.
Only calls into the program are timed; inputs are built and outputs
checked outside the timed sections.  With ``--trace 1`` a fixed number of rounds runs under
the per-layer tracer instead, so that the call counts repeat exactly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# before numpy is imported anywhere: one BLAS thread, one process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

# third-party imports happen once, before set-up timing starts
import numpy  # noqa: E402,F401
import scipy.interpolate  # noqa: E402,F401
import scipy.optimize  # noqa: E402,F401
import scipy.sparse  # noqa: E402,F401

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
MODULES = ("errors", "domains", "jets", "potentials", "_extrema", "curvature",
           "flow", "reaction", "transport")
SETUP_PER_ROUND = 2
TRACE_ROUNDS = 2


def package_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if name == "hesselab" or name.startswith("hesselab.")}


def set_up(workload, seed: int, r: int):
    """Import the package afresh and build the context and round ``r``'s
    inputs; returns the time this took, the modules, context and inputs."""
    start = time.perf_counter()
    for name in package_modules():
        del sys.modules[name]
    hl = types.SimpleNamespace(
        **{m: importlib.import_module(f"hesselab.{m}") for m in MODULES})
    ctx = workload.setup(hl, seed)
    inputs = workload.inputs(hl, ctx, r)
    return time.perf_counter() - start, hl, ctx, inputs


def setup_sample(workload, seed: int, r: int) -> float:
    """Time one more set-up, then put back the modules the run is using, so
    that the rounds keep one copy of the package and its warm caches."""
    kept = package_modules()
    elapsed = set_up(workload, seed, r)[0]
    for name in package_modules():
        del sys.modules[name]
    sys.modules.update(kept)
    return elapsed


class Clock:
    """Times the calls into the program; the tracer records only inside them."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.units = []
        self.total = 0.0

    def _timed(self, fn, args):
        if self.tracer:
            self.tracer.active = True
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.total += time.perf_counter() - start
            if self.tracer:
                self.tracer.active = False

    def unit(self, fn, *args):
        """One operation: its time is a sample of ``unit_p50_ms``."""
        before = self.total
        out = self._timed(fn, args)
        self.units.append(self.total - before)
        return out

    def section(self, fn, *args):
        """Timed work of a round that is not a sample of ``unit_p50_ms``."""
        return self._timed(fn, args)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hesselab" / "__init__.py").is_file():
        print(f"error: no hesselab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    elapsed, hl, ctx, inputs = set_up(workload, args.seed, 0)
    setup_times = [elapsed]
    if not Path(hl.curvature.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: hesselab was imported from {hl.curvature.__file__}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(hl)

    attempted = failed = 0
    unexpected = []
    round_times, unit_times = [], []
    r = 0
    while True:
        if r:
            inputs = workload.inputs(hl, ctx, r)
        clock = Clock(tracer)
        outputs = workload.run_round(hl, ctx, inputs, clock)
        round_times.append(clock.total)
        unit_times += clock.units
        for problems in workload.check_round(hl, ctx, r, inputs, outputs):
            attempted += 1
            failed += bool(problems)
            unexpected += [p.message for p in problems if not p.known]
        r += 1
        if not tracer:
            setup_times += [setup_sample(workload, args.seed, r)
                            for _ in range(SETUP_PER_ROUND)]
        if r >= TRACE_ROUNDS if args.trace else sum(round_times) >= args.seconds:
            break

    for msg in unexpected[:10]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(f"{workload.name}: {r} rounds, {len(unit_times)} units, "
          f"{sum(round_times):.3f} s timed, {sum(round_times) / r:.4f} s per round, "
          f"unit median {statistics.median(unit_times):.4f} s, "
          f"set-up median {statistics.median(setup_times):.4f} s"
          + (" (traced)" if tracer else ""), file=sys.stderr)

    if tracer:
        missing = tracer.missing(workload.name)
        if missing:
            print(f"error: no calls recorded on {workload.name} for {missing}",
                  file=sys.stderr)
            return 1
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json")
        metrics = tracer.metrics()
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": sum(round_times) / r, "unit": "s"},
            "unit_p50_ms": {"value": 1e3 * statistics.median(unit_times), "unit": "ms"},
            "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MiB"},
        }
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
