"""Quickstart: compute a crowdsourced skyline on synthetic data.

Generates the paper's default workload (independent distribution,
``|AK| = 4`` known attributes, one crowd attribute), runs all three
CrowdSky schedulers against a simulated crowd, and compares cost/latency
with the tournament-sort Baseline.

Run with::

    python examples/quickstart.py
"""

from repro import (
    Distribution,
    FaultPlan,
    RetryPolicy,
    SimulatedCrowd,
    baseline_skyline,
    crowdsky,
    generate_synthetic,
    ground_truth_skyline,
    observe,
    parallel_dset,
    parallel_sl,
    summarize_trace,
)


def main() -> None:
    relation = generate_synthetic(
        500,
        num_known=4,
        num_crowd=1,
        distribution=Distribution.INDEPENDENT,
        seed=0,
    )
    truth = ground_truth_skyline(relation)
    print(f"dataset: n={len(relation)}, |AK|=4, |AC|=1 (IND)")
    print(f"latent ground-truth skyline size: {len(truth)}\n")

    algorithms = (
        ("Baseline (tournament sort)", baseline_skyline),
        ("CrowdSky (serial)", crowdsky),
        ("ParallelDSet", parallel_dset),
        ("ParallelSL", parallel_sl),
    )
    print(f"{'algorithm':30} {'questions':>9} {'rounds':>7} "
          f"{'cost':>8} {'exact?':>7}")
    for name, algorithm in algorithms:
        # A fresh relation handle per run keeps crowds independent.
        data = generate_synthetic(
            500, 4, 1, Distribution.INDEPENDENT, seed=0
        )
        result = algorithm(data)
        exact = result.skyline == truth
        print(
            f"{name:30} {result.stats.questions:9d} "
            f"{result.stats.rounds:7d} "
            f"${result.stats.hit_cost():7.2f} {str(exact):>7}"
        )

    print(
        "\nWith a perfect crowd every algorithm is exact; CrowdSky asks a "
        "fraction of the Baseline's questions, and ParallelSL needs only "
        "a few dozen rounds."
    )

    # Fault tolerance: the same run with an unreliable platform — 20% of
    # assignments abandoned, 10% of HITs expiring — survives via retries
    # and degrades gracefully when a question exhausts its attempts.
    print("\nfault-tolerant run (abandonment 0.2, HIT expiry 0.1):")
    data = generate_synthetic(500, 4, 1, Distribution.INDEPENDENT, seed=0)
    crowd = SimulatedCrowd(
        data,
        seed=0,
        faults=FaultPlan(abandonment_rate=0.2, hit_timeout_rate=0.1, seed=1),
        retry=RetryPolicy(max_attempts=3),
    )
    result = parallel_sl(data, crowd)
    print(result.summary())
    if result.fault_stats is not None:
        print(f"injected faults: {result.fault_stats.as_dict()}")
    print(
        "unresolved pairs are kept conservatively incomparable, so the "
        "degraded skyline never drops a true skyline tuple."
    )

    # Observability: the same run under an active trace. Inside the
    # observe() scope every round, vote, retry and fault becomes a
    # structured event, and the result's summary gains wall-clock time.
    print("\ntraced run (see docs/observability.md):")
    data = generate_synthetic(200, 4, 1, Distribution.INDEPENDENT, seed=0)
    with observe() as observation:
        result = parallel_sl(data)
    print(result.summary())
    print()
    print(summarize_trace(observation.tracer.events))
    print(
        "pass trace_path=/metrics_path= to observe() — or --trace/"
        "--metrics on the CLI — to persist the artifacts."
    )

    # Closure backends: all runs above used the default numpy
    # (packed-bit) transitive closure. CrowdSkyConfig(backend="reference") — or
    # REPRO_PREF_BACKEND=reference — selects the original cached-DFS
    # implementation; results are guaranteed identical (see
    # docs/performance.md).


if __name__ == "__main__":
    main()
