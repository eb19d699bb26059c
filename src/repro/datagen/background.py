"""Clean background test data (Section 5.4.1 of the paper).

The background data is composed solely of the commonly occurring
sequences of the training data — a repetition of the cycle
``1 2 3 4 5 6 7 8`` — so that any detector window sliding over it
encounters only common training sequences, and any anomalous response
in a test stream is attributable to the injected anomaly alone.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DataGenerationError
from repro.sequences.ngram_store import NgramStore


def generate_background(
    alphabet_size: int, length: int, phase: int = 0
) -> np.ndarray:
    """Return a pure-cycle stream of ``length`` elements.

    Args:
        alphabet_size: number of cycle states.
        length: number of elements; must be positive.
        phase: code of the first element (the cycle can start at any
            point; injection uses this to align boundary sequences).

    Returns:
        1-D ``int64`` array walking the cycle from ``phase``.
    """
    if alphabet_size < 2:
        raise DataGenerationError(f"alphabet_size must be >= 2, got {alphabet_size}")
    if length <= 0:
        raise DataGenerationError(f"background length must be positive, got {length}")
    if not 0 <= phase < alphabet_size:
        raise DataGenerationError(
            f"phase {phase} out of range for alphabet of size {alphabet_size}"
        )
    return (np.arange(length, dtype=np.int64) + phase) % alphabet_size


def verify_background_clean(
    background: np.ndarray,
    training_store: NgramStore,
    window_lengths: tuple[int, ...],
    rare_threshold: float,
) -> None:
    """Check that the background contains only common training sequences.

    Every window of every requested length must occur in training with
    relative frequency at or above ``rare_threshold``; otherwise the
    background itself would register foreign or rare sequences and
    confound the evaluation (the paper's "clean" requirement).

    Raises:
        DataGenerationError: naming the first offending window.
    """
    lengths = [length for length in window_lengths if length <= len(background)]
    counts = training_store.window_counts(background, *lengths)
    for length in lengths:
        found, total = counts[length], training_store.total(length)
        frequencies = found / total if total else np.zeros(len(found))
        offenders = np.flatnonzero(
            (frequencies == 0.0) | (frequencies < rare_threshold)
        )
        if not len(offenders):
            continue
        start = int(offenders[0])
        window = tuple(int(code) for code in background[start : start + length])
        frequency = float(frequencies[start])
        if frequency == 0.0:
            raise DataGenerationError(
                f"background window {window} is foreign to training"
            )
        raise DataGenerationError(
            f"background window {window} is rare in training "
            f"(relative frequency {frequency:.5f} < {rare_threshold})"
        )
