"""CrowdSky benchmark: one run of one workload, result JSON on the last line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serial-ind --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload with no wrappers installed and prints
the end-to-end metrics. ``--trace 1`` runs the same work untraced, then
again with ``layers.py``'s wrappers, and prints the per-layer metrics
plus the tracing overhead. Every run checks every query's result; the
last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
The line before it holds diagnostics (host-speed probe, per-query and
tail latencies, sample counts) that are reported but not gated.
"""

from time import perf_counter

PROCESS_START = perf_counter()

import argparse  # noqa: E402  (the set-up clock starts before imports)
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("serial-ind", "parallel-sl-ant-noisy", "query-stream")
#: Set-up is timed this many times per run (this process + children);
#: ``setup_s`` is the median.
SETUP_SAMPLES = 5
#: Tail percentiles are reported only with at least this many samples
#: beyond them.
TAIL_SAMPLES = 10


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=20,
                        help="measuring budget; at least one full pass runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def host_probe_ms(repeats: int = 7) -> float:
    """Median time of a fixed pure-Python loop: a diagnostic of host
    speed recorded beside each run, never used to rescale a metric."""
    samples = []
    for _ in range(repeats):
        start = perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        samples.append((perf_counter() - start) * 1e3)
    return statistics.median(samples)


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _tail(values, q: float):
    """``percentile(values, q)`` if enough samples lie beyond it, else None."""
    if values and len(values) * (100.0 - q) / 100.0 >= TAIL_SAMPLES:
        return percentile(values, q)
    return None


def _setup_samples(args, own_s: float):
    """``own_s`` plus set-up timed in fresh child processes."""
    samples = [own_s]
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--size", args.size, "--setup-probe"]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=120, check=True, cwd=ROOT)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def _summarize(args, passes, verdict, setup, probes, rss_mb):
    """End-to-end metrics and the diagnostics printed beside them."""
    first = passes[0]
    gaps_ms = [g * 1e3 for p in passes for g in p.gaps_s]
    query_ms = [q * 1e3 for p in passes for q in p.query_s]
    metrics = {
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "questions": (first.questions, "count"),
        "rounds": (first.rounds, "count"),
        "precision": (_ratio(verdict.correct_new, verdict.predicted_new), "ratio"),
        "recall": (_ratio(verdict.correct_new, verdict.truth_new), "ratio"),
    }
    diagnostics = {
        "workload": args.workload,
        "seed": args.seed,
        "pass_wall_s": [p.wall_s for p in passes],
        "setup_samples_s": setup,
        "host_probe_ms": probes,
        "round_gaps": len(gaps_ms),
        "queries": len(query_ms),
        "query_p50_ms": statistics.median(query_ms),
        "query_p90_ms": _tail(query_ms, 90),
        "round_p50_ms": statistics.median(gaps_ms) if gaps_ms else None,
        "round_p99_ms": _tail(gaps_ms, 99),
        "error_rate": verdict.failed / verdict.attempted,
        "counts": first.counts(),
    }
    if first.journaled_questions:
        diagnostics["journal_bytes_per_question"] = (
            first.journal_bytes / first.journaled_questions
        )
    return metrics, diagnostics


def _ratio(num, den):
    """Accuracy ratio; 1.0 when nothing was claimed or nothing missed."""
    return num / den if den else 1.0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    spec = workloads.load_specs(args.size)[args.workload]
    inputs = workloads.prepare(args.workload, spec, args.seed)
    setup_own = perf_counter() - PROCESS_START
    if args.setup_probe:
        print(repr(setup_own))
        return 0

    workdir = ROOT / f".perfbench-work-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.trace:
            result = _traced(args, spec, inputs, workdir)
        else:
            result = _timed(args, inputs, workdir, setup_own)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _timed(args, inputs, workdir, setup_own):
    import workloads

    setup = _setup_samples(args, setup_own)
    probes = [host_probe_ms()]
    passes = []
    started = perf_counter()
    while True:
        passes.append(workloads.run_pass(inputs, workdir))
        if len(passes) == 1:
            # The first pass's peak, however many passes the host allows.
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed = perf_counter() - started
        if elapsed + passes[-1].wall_s > args.seconds:
            break
    probes.append(host_probe_ms())

    verdict = workloads.check_pass(inputs, passes[0])
    for later in passes[1:]:
        verdict.merge(workloads.check_pass(inputs, later, reference=passes[0]))
    metrics, diagnostics = _summarize(args, passes, verdict, setup, probes, rss_mb)
    print(json.dumps({"diagnostics": diagnostics}))
    return _result(verdict, metrics)


def _traced(args, spec, inputs, workdir):
    import layers
    import workloads

    plain = workloads.run_pass(inputs, workdir)
    tracer = layers.LayerTracer()
    installed = layers.install(tracer)
    try:
        traced_inputs = workloads.prepare(args.workload, spec, args.seed)
        traced = workloads.run_pass(traced_inputs, workdir)
    finally:
        installed.restore()
    verdict = workloads.check_pass(traced_inputs, traced, reference=plain)
    metrics = layers.layer_metrics(tracer, traced, plain)
    timed = {k: v for k, (v, unit) in metrics.items()
             if unit == "s" and k != "data.generate_s"}
    shares = {k: round(v / traced.wall_s, 4)
              for k, v in sorted(timed.items(), key=lambda kv: -kv[1]) if v}
    shares["(outside wrapped layers)"] = round(
        1 - sum(timed.values()) / traced.wall_s, 4)
    print(json.dumps({"diagnostics": {
        "workload": args.workload, "seed": args.seed,
        "untraced_wall_s": plain.wall_s, "traced_wall_s": traced.wall_s,
        "self_time_shares": shares,
    }}))
    return _result(verdict, metrics)


def _result(verdict, metrics):
    return {
        "correct": verdict.failed == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


if __name__ == "__main__":
    sys.exit(main())
