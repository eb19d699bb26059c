"""E12 — ablation: clean vs. random injection (Section 5.4.2 rationale).

"Randomly injecting an anomaly into the background data is undesirable
because of the high probability that a mixture of foreign or rare
boundary sequences is introduced."

The bench injects the same anomaly many times with the naive random
strategy and counts the injections that violate the clean-boundary
policy, versus the boundary-checked procedure (which never does).
"""

from __future__ import annotations

import numpy as np

from _artifacts import write_artifact

from repro.analysis.report import format_table
from repro.datagen.anomalies import AnomalySynthesizer
from repro.datagen.injection import InjectionPolicy, inject_anomaly, inject_randomly

ANOMALY_SIZE = 6
TRIALS = 50


def _boundary_violations(injected, store, window_lengths) -> int:
    counts = store.window_counts(injected.stream, *window_lengths)
    violations = 0
    for window_length in window_lengths:
        for start, count in enumerate(counts[window_length].tolist()):
            overlap = injected.window_overlap(start, window_length)
            if 0 < overlap < injected.anomaly_size and count == 0:
                violations += 1
    return violations


def test_ablation_injection_policy(benchmark, training):
    anomaly = AnomalySynthesizer(training).synthesize(ANOMALY_SIZE)
    window_lengths = (2, 5, 9, 15)
    policy = InjectionPolicy(
        window_lengths=training.params.window_sizes,
        rare_threshold=training.params.rare_threshold,
    )
    store = training.analyzer.store_for(*window_lengths)

    def random_trials():
        rng = np.random.default_rng(42)
        dirty = 0
        total_spurious = 0
        for _ in range(TRIALS):
            injected = inject_randomly(anomaly.sequence, training, 400, rng)
            spurious = _boundary_violations(injected, store, window_lengths)
            if spurious:
                dirty += 1
                total_spurious += spurious
        return dirty, total_spurious

    dirty, total_spurious = benchmark(random_trials)

    clean = inject_anomaly(anomaly.sequence, training, policy, stream_length=400)
    clean_spurious = _boundary_violations(clean, store, window_lengths)

    # Paper shape: random injection usually dirty; checked injection never.
    assert clean_spurious == 0
    assert dirty > TRIALS // 2

    table = format_table(
        headers=("injection strategy", "dirty injections", "spurious foreign windows"),
        rows=[
            ("random (naive)", f"{dirty}/{TRIALS}", total_spurious),
            ("boundary-checked (paper)", "0/1", clean_spurious),
        ],
        title=(
            "Ablation E12 — injection strategy vs. spurious boundary anomalies "
            f"(AS={ANOMALY_SIZE}, windows {window_lengths})"
        ),
    )
    write_artifact("ablation_injection", table)
