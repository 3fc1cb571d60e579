"""Run the benchmark over many seeds and judge its steadiness.

Usage (from the root of a checkout)::

    python3 perfbench/runset.py --workloads serial-ind,query-stream \
        --seeds 1-10 --sets 2 --out runs.json

Each run is a fresh ``perfbench/run.py`` process. For every workload and
end-to-end metric this prints the median, the quartiles of
``statistics.quantiles(values, n=4)`` and the spread ``(q3 - q1) /
median``, judged against the metric's bound in ``BENCHMARK.json``
(``setup_s``'s spread is reported but not judged). With ``--sets 2``
the same seeds run twice: every count and ratio must then repeat
exactly per seed, and no median of the second set may be worse than
the first by more than its bound. Exits 1 if any run is incorrect or
any judgement fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
#: Units whose values must repeat exactly for a repeated seed.
EXACT_UNITS = {"count", "ratio", "bytes"}


def _seeds(text: str):
    if "-" in text:
        low, high = (int(part) for part in text.split("-"))
        return list(range(low, high + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    start = perf_counter()
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=900, cwd=ROOT)
    elapsed = perf_counter() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n"
                         f"{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    diagnostics = json.loads(lines[-2])["diagnostics"] if len(lines) > 1 else {}
    return {"workload": workload, "seed": seed, "elapsed_s": elapsed,
            "result": result, "diagnostics": diagnostics}


def spread(values):
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / abs(median) if median else 0.0


def judge(runs, bench, sets: int) -> bool:
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    good = True
    for run in runs:
        result = run["result"]
        if not result["correct"] or result["failed"]:
            print(f"INCORRECT {run['workload']} seed {run['seed']}: {result}")
            good = False
    workloads = sorted({run["workload"] for run in runs})
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload]
        print(f"\n== {workload}: {len(mine)} runs, "
              f"{statistics.median(r['elapsed_s'] for r in mine):.1f} s per run")
        names = list(mine[0]["result"]["metrics"])
        medians = {}
        for s in range(sets):
            group = [r for r in mine if r["set"] == s]
            for name in names:
                values = [r["result"]["metrics"][name]["value"] for r in group]
                median, q1, q3, share = spread(values)
                medians[(s, name)] = median
                bound = metrics.get(name, {}).get("bound")
                verdict = ""
                if bound is not None and name != "setup_s":
                    verdict = ("over bound" if share > bound else
                               "over a third" if share > bound / 3 else "ok")
                    good = good and share <= bound
                print(f"  set {s} {name:<16} median {median:<12.6g} "
                      f"q1 {q1:<12.6g} q3 {q3:<12.6g} spread {share:.4f}"
                      + (f" / bound {bound} {verdict}" if bound else ""))
        for s in range(1, sets):
            for name in names:
                metric = metrics.get(name)
                if metric is None:
                    continue
                first, later = medians[(0, name)], medians[(s, name)]
                worse = (later - first) / first if metric["better"] == "lower" \
                    else (first - later) / first
                if worse > metric["bound"]:
                    print(f"  MEDIAN DRIFT {name}: set {s} worse by {worse:.4f}")
                    good = False
        for seed in sorted({r["seed"] for r in mine}):
            repeats = [r for r in mine if r["seed"] == seed]
            for name in names:
                unit = repeats[0]["result"]["metrics"][name]["unit"]
                values = {r["result"]["metrics"][name]["value"] for r in repeats}
                if unit in EXACT_UNITS and len(values) > 1:
                    print(f"  INEXACT {name} seed {seed}: {sorted(values)}")
                    good = False
    return good


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", help="comma list; default all")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    runs = []
    for s in range(args.sets):
        for workload in workloads:
            for seed in _seeds(args.seeds):
                run = run_once(workload, seed, bench["run_seconds"], args.trace)
                run["set"] = s
                runs.append(run)
                metrics = run["result"]["metrics"]
                print(f"set {s} {workload} seed {seed}: {run['elapsed_s']:.1f} s "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in metrics.items()
                                 if k in ("wall_s", "questions", "rounds")),
                      flush=True)
                if args.out:
                    args.out.write_text(json.dumps(runs, indent=1))
    good = judge(runs, bench, args.sets)
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
