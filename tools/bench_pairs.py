"""Alternating benchmark pairs of a parent commit and the working tree.

Run from the repository root:

    python3 tools/bench_pairs.py --parent HEAD --pr 24 --pairs ot-window=10 \\
        --pairs flow-torus=5 --seed0 2400 --trace-runs 5

The parent's ``src/``, ``perfbench/`` and ``BENCHMARK.json`` are exported
with ``git archive`` into a scratch directory, and the working tree's into
another beside it, so that both sides run from copies of the same shape.
Each pair runs the benchmark's command (``BENCHMARK.json``) once on each
side with the same workload, seed and run length (``run_seconds`` in
``BENCHMARK.json``); the parent goes first in even pairs and the change in
odd ones.  Pair i uses seed ``seed0 + i``.

With ``--trace-runs K`` each workload also runs K times per side under
``--trace 1`` on one seed, alternated the same way; the file keeps each
layer's call counts and the median of its self times.

The output, ``BENCH_<pr>.json`` at the repository root, holds every run's
JSON and, per workload and end-to-end metric, each side's median and
quartiles (``statistics.quantiles``, inclusive), the pairs the change wins
(ties count for neither side), the ratio of the medians, the parent's
quartile spread and whether the change's median stays within the metric's
bound.
Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPORTED = ("src", "perfbench", "BENCHMARK.json")
SIDES = ("parent", "change")


def export_parent(rev: str, dest: Path) -> str:
    """Extract EXPORTED at rev into dest; returns rev's full hash."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    archive = dest.parent / "parent.tar"
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", sha, *EXPORTED], cwd=ROOT, check=True, stdout=fh)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()
    return sha


def copy_working_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".perfbench_out", "*.pyc")
    dest.mkdir()
    for name in EXPORTED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        else:
            shutil.copy2(src, dest / name)


def run_once(bench: dict, cwd: Path, workload: str, seed: int, trace: int) -> dict:
    """One benchmark run of bench's command and run length: its exit code, its
    JSON (the last line of stdout) and the tail of its stderr."""
    args = bench["command"] + ["--workload", workload, "--seed", str(seed), "--seconds",
                               repr(bench["run_seconds"]), "--trace", str(trace)]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(args, cwd=cwd, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return {"seed": seed, "exit_code": proc.returncode, "result": result,
            "stderr_tail": proc.stderr.strip().splitlines()[-3:]}


def quartiles(values: list) -> dict:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def compare(spec: dict, parent: list, change: list) -> dict:
    """The pair statistics of one end-to-end metric (spec from BENCHMARK.json)
    over the pairs in which both runs report it."""
    both = [(p, c) for p, c in zip(parent, change) if p is not None and c is not None]
    if not both:
        return {"unit": spec["unit"], "pairs_reported": 0}
    parent, change = map(list, zip(*both))
    sign = 1.0 if spec["better"] == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    ties = sum(p == c for p, c in zip(parent, change))
    qp, qc = quartiles(parent), quartiles(change)
    gap = sign * (qp["median"] - qc["median"])  # > 0: the change reads better
    worse = -gap / abs(qp["median"]) if qp["median"] else 0.0
    return {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            "parent": qp, "change": qc, "parent_runs": parent, "change_runs": change,
            "change_wins": wins, "ties": ties,
            "median_ratio": qc["median"] / qp["median"] if qp["median"] else None,
            "parent_iqr": qp["q3"] - qp["q1"], "median_gap": gap,
            "within_bound": worse <= spec["bound"]}


def side_summary(runs: list) -> dict:
    results = [r["result"] or {} for r in runs]
    return {"all_correct": all(r.get("correct", False) for r in results),
            "failed": sum(r.get("failed", 0) for r in results),
            "attempted": sum(r.get("attempted", 0) for r in results),
            "exit_codes": [r["exit_code"] for r in runs]}


def metric_values(runs: list, name: str) -> list:
    """The metric's value in each run, None where a run did not report it."""
    return [r["result"]["metrics"][name]["value"]
            if r["result"] and name in r["result"].get("metrics", {}) else None
            for r in runs]


def run_pairs(bench: dict, dirs: dict, workload: str, pairs: int, seed0: int) -> dict:
    runs = {side: [] for side in SIDES}
    for i in range(pairs):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            run = run_once(bench, dirs[side], workload, seed0 + i, 0)
            runs[side].append(run)
            print(f"  {workload} pair {i + 1}/{pairs} {side}: exit {run['exit_code']}, "
                  f"wall_s {metric_values([run], 'wall_s')[0]}", file=sys.stderr)
    out = {"seeds": [seed0 + i for i in range(pairs)], "pairs": pairs,
           "first_in_pair": "parent in even pairs (0-based), change in odd ones"}
    out.update({side: side_summary(runs[side]) for side in SIDES})
    out["metrics"] = {spec["name"]: compare(spec, metric_values(runs["parent"], spec["name"]),
                                            metric_values(runs["change"], spec["name"]))
                      for spec in bench["end_to_end"]}
    out["runs"] = {side: runs[side] for side in SIDES}
    return out


def run_traces(bench: dict, dirs: dict, workload: str, count: int, seed: int) -> dict:
    runs = {side: [] for side in SIDES}
    for i in range(count):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            runs[side].append(run_once(bench, dirs[side], workload, seed, 1))
    layers = {}
    names = sorted({name for side in SIDES for r in runs[side] if r["result"]
                    for name in r["result"]["metrics"]})
    for name in names:
        values = {side: [v for v in metric_values(runs[side], name) if v is not None]
                  for side in SIDES}
        if name.endswith(".calls"):
            layers[name] = {side: sorted(set(values[side])) for side in SIDES}
            layers[name]["equal"] = (len(set(values["parent"] + values["change"])) == 1
                                     and len(values["parent"]) == len(values["change"]) == count)
        else:
            layers[name] = {f"{side}_median": statistics.median(values[side])
                            for side in SIDES if values[side]}
            layers[name].update({f"{side}_runs": values[side] for side in SIDES})
    return {"seed": seed, "runs_per_side": count,
            "exit_codes": {side: [r["exit_code"] for r in runs[side]] for side in SIDES},
            "correct": {side: all((r["result"] or {}).get("correct", False)
                                  for r in runs[side]) for side in SIDES},
            "layers": layers}


def host() -> str:
    probe = ("import numpy, scipy; print(f'numpy {numpy.__version__}, "
             "scipy {scipy.__version__}')")
    libs = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True).stdout.strip()
    return (f"{os.cpu_count()} CPUs, {platform.system()} {platform.release()}, "
            f"Python {platform.python_version()}, {libs}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent commit (any git revision)")
    parser.add_argument("--pr", required=True, help="names the output, BENCH_<pr>.json")
    parser.add_argument("--pairs", action="append", default=[], metavar="WORKLOAD=N",
                        help="run N pairs of WORKLOAD (repeatable)")
    parser.add_argument("--seed0", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--trace-runs", type=int, default=0,
                        help="traced runs per side and workload (0: none)")
    parser.add_argument("--trace-seed", type=int, default=3)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in bench["workloads"]]
    plan = []
    for item in args.pairs:
        name, _, count = item.partition("=")
        if name not in known or not count.isdigit() or int(count) < 1:
            parser.error(f"--pairs {item!r}: want WORKLOAD=N with N >= 1, WORKLOAD in {known}")
        plan.append((name, int(count)))
    out_path = ROOT / f"BENCH_{args.pr}.json"

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        dirs = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        dirs["parent"].mkdir()
        sha = export_parent(args.parent, dirs["parent"])
        copy_working_tree(dirs["change"])
        report = {"parent_commit": sha,
                  "command": " ".join(bench["command"]) + " --workload W --seed N "
                             f"--seconds {bench['run_seconds']:g} --trace 0, run from a "
                             f"copy of each side's {', '.join(EXPORTED)}",
                  "host": host(),
                  "quartiles": "statistics.quantiles(runs, n=4, method='inclusive'); "
                               "change_wins counts pairs where the change reads better",
                  "workloads": {}}
        for name, count in plan:
            report["workloads"][name] = run_pairs(bench, dirs, name, count, args.seed0)
        if args.trace_runs:
            report["trace"] = {name: run_traces(bench, dirs, name, args.trace_runs,
                                                args.trace_seed) for name in known}
    out_path.write_text(json.dumps(report, indent=1) + "\n")

    for name, w in report["workloads"].items():
        for metric, m in w["metrics"].items():
            if not m.get("pairs_reported", 1):
                print(f"{name:13} {metric:12} reported by no pair", file=sys.stderr)
                continue
            print(f"{name:13} {metric:12} parent {m['parent']['median']:.6g} "
                  f"change {m['change']['median']:.6g} wins {m['change_wins']}/{w['pairs']} "
                  f"iqr {m['parent_iqr']:.3g} within bound {m['within_bound']}",
                  file=sys.stderr)
    print(f"wrote {out_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
