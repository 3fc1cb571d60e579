"""Tiny-size self-test of the benchmark itself.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py

Runs every workload at the ``tiny`` sizes of ``workloads.json``, untraced
and traced, and prints every metric with its unit; checks that each run
reports exactly the metrics ``BENCHMARK.json`` declares, with their
units; shows that a deliberately wrong skyline, a dropped SKY_AK tuple
and a replay that disagrees with its live run each fail the result
check; and shows that ``run.py`` fails without printing a result in a
directory that holds only the benchmark. Exits 1 on any failure.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench-work-selftest"


def _run(workload: str, trace: int, cwd: Path = ROOT):
    command = [sys.executable, str(cwd / "perfbench" / "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(command, capture_output=True, text=True,
                          timeout=300, cwd=cwd)


def check_metrics(bench) -> list:
    problems = []
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            done = _run(workload, trace)
            if done.returncode != 0:
                problems.append(f"{workload} trace {trace} exited "
                                f"{done.returncode}: {done.stderr[-500:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            print(f"\n{workload} --trace {trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"  {name:<30} {metric['value']:<14.6g} {metric['unit']}")
            if got != declared[trace]:
                problems.append(f"{workload} trace {trace}: metrics {got} "
                                f"differ from BENCHMARK.json {declared[trace]}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace {trace} reported failures")
            if trace == 0:
                zero = [k for k, v in result["metrics"].items() if not v["value"]]
                if zero:
                    problems.append(f"{workload}: end-to-end metrics read 0: {zero}")
    return problems


def check_wrong_results() -> list:
    """Each tampered output must fail ``check_pass``."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    specs = workloads.load_specs("tiny")
    SCRATCH.mkdir(parents=True, exist_ok=True)
    problems = []

    def expect_failure(label, inputs, result):
        verdict = workloads.check_pass(inputs, result)
        print(f"  {label}: failed {verdict.failed} of {verdict.attempted}")
        if verdict.failed == 0:
            problems.append(f"tampered output passed: {label}")

    def replace_live(result, live=None, replay=None):
        old_live, old_replay = result.outputs[0]
        outputs = [(live or old_live, replay or old_replay)] + result.outputs[1:]
        return dataclasses.replace(result, outputs=outputs)

    print("\nwrong results must fail the check:")
    for name in ("serial-ind", "parallel-sl-ant-noisy"):
        inputs = workloads.prepare(name, specs[name], 7)
        result = workloads.run_pass(inputs, SCRATCH)
        if workloads.check_pass(inputs, result).failed:
            problems.append(f"{name}: untampered output failed its check")
        live, replay = result.outputs[0]
        sky_a, sky_ak = workloads._relation_truth(inputs)
        dropped = dataclasses.replace(live, skyline=set(live.skyline) - {min(sky_ak)})
        expect_failure(f"{name}, a SKY_AK tuple dropped", inputs,
                       replace_live(result, live=dropped))
        if replay is None:
            extra = next(t for t in range(len(inputs.relation)) if t not in sky_a)
            added = dataclasses.replace(live, skyline=set(live.skyline) | {extra})
            expect_failure(f"{name}, a dominated tuple added", inputs,
                           replace_live(result, live=added))
        else:
            stats = dataclasses.replace(replay.stats, questions=replay.stats.questions + 1)
            expect_failure(f"{name}, replay asked one question more", inputs,
                           replace_live(result, replay=dataclasses.replace(replay, stats=stats)))

    inputs = workloads.prepare("query-stream", specs["query-stream"], 7)
    result = workloads.run_pass(inputs, SCRATCH)
    first = result.outputs[0]
    wrong = dataclasses.replace(first, indices=first.indices[1:])
    expect_failure("query-stream, one result row dropped", inputs,
                   dataclasses.replace(result, outputs=[wrong] + result.outputs[1:]))
    return problems


def check_bare_directory() -> list:
    """Without the program's sources, run.py must fail and print nothing."""
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = _run("serial-ind", 0, cwd=bare)
    print(f"\nbare directory: exit {done.returncode}, stdout {done.stdout!r}")
    if done.returncode == 0 or done.stdout.strip():
        return ["run.py printed a result or exited 0 without the sources"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        problems = check_metrics(bench) + check_wrong_results() + check_bare_directory()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    for problem in problems:
        print(f"FAIL: {problem}")
    print("\nself-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
