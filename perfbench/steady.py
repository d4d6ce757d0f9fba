"""Steadiness self-check: is each end-to-end metric repeatable?

Runs ``run.py`` repeatedly on unchanged code, one fresh process per run and
a different seed each time, then prints for every workload and end-to-end
metric the median, the quartiles and the spread -- interquartile distance
as a share of the median -- against the metric's bound in
``BENCHMARK.json``.  A spread over the bound is flagged ``FAIL``; over a
third of it, ``tight``.  With ``--sets 2`` it makes a second set of runs and
also flags a metric whose second median is worse than the first by more
than the bound.  Every metric, ``setup_s`` included, is held to both.

    python3 perfbench/steady.py --runs 10 --sets 2 --out perfbench/out/steady.json
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import quartiles, spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stdout}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def report(bench: dict, values: dict) -> bool:
    """Print the table; ``values[workload][set][metric]`` is a list of runs."""
    ok = True
    for workload, sets in values.items():
        print(f"\n{workload}")
        print(f"  {'metric':<18} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8} {'bound':>6}  status")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for runs in sets:
                q1, q2, q3 = quartiles(runs[name])
                medians.append(q2)
                s = spread(runs[name])
                status = "ok"
                if s > bound:
                    status, ok = "FAIL", False
                elif s > bound / 3:
                    status = "tight"
                print(f"  {name:<18} {q1:12.6g} {q2:12.6g} {q3:12.6g} {s:8.4f} {bound:6.3f}  {status}")
            for first, second in zip(medians, medians[1:]):
                drift = worse_by(first, second, metric["better"])
                if drift > bound:
                    ok = False
                    print(f"  {name}: second median worse by {drift:.4f} > bound {bound}  FAIL")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="steadiness self-check")
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", help="write every run's metrics to this JSON file")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    values: dict = {}
    for workload in workloads:
        values[workload] = []
        for set_index in range(args.sets):
            runs: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
            for i in range(args.runs):
                seed = args.first_seed + set_index * args.runs + i
                result = run_once(workload, seed, bench["run_seconds"])
                for name in runs:
                    runs[name].append(result["metrics"][name]["value"])
                print(f"{workload} set {set_index} seed {seed}: "
                      + " ".join(f"{k}={v[-1]:.6g}" for k, v in runs.items()), flush=True)
            values[workload].append(runs)
    if args.out:
        Path(args.out).write_text(json.dumps(values, indent=1) + "\n")
    return 0 if report(bench, values) else 1


if __name__ == "__main__":
    sys.exit(main())
