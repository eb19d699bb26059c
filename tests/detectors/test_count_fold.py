"""The count families' one fold: a cold fit folds each training
stream's sorted packed (codes, counts) table into an empty table.

The reference below is the multi-stream merge the fold replaced:
``np.unique`` over the concatenated per-stream tables plus a
scatter-add of their counts.  Fitted states must match it bit for bit,
with and without a window cache, and must hash to digests recorded
before the fold went in.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.detectors.registry import create_detector
from repro.runtime import WindowCache
from repro.runtime.deltafit import fit_states_equal
from repro.sequences.windows import pack_windows, windows_array

FAMILIES = ("stide", "t-stide", "markov")


def _reference_table(streams, length: int, alphabet_size: int):
    """Sorted packed codes and counts of every stream's ``length``-grams."""
    values, counts = [], []
    for stream in streams:
        if len(stream) < length:
            continue
        rows, row_counts = np.unique(
            windows_array(stream, length), axis=0, return_counts=True
        )
        values.append(pack_windows(rows, alphabet_size))
        counts.append(row_counts)
    merged, inverse = np.unique(np.concatenate(values), return_inverse=True)
    total = np.zeros(len(merged), dtype=np.int64)
    np.add.at(total, inverse.reshape(-1), np.concatenate(counts))
    return merged, total


def _reference_state(family: str, streams, window: int, alphabet_size: int):
    codes, counts = _reference_table(streams, window, alphabet_size)
    if family == "stide":
        return {"packed_db": codes}
    total = int(counts.sum())
    if family == "t-stide":
        return {
            "common_packed": codes[counts >= 0.005 * total],
            "table_values": codes,
            "table_counts": counts,
            "table_total": np.asarray(total, dtype=np.int64),
        }
    context_codes, context_counts = _reference_table(
        streams, window - 1, alphabet_size
    )
    return {
        "joint_codes": codes,
        "joint_counts": counts,
        "context_codes": context_codes,
        "context_counts": context_counts,
        "total": np.asarray(total, dtype=np.int64),
    }


@pytest.mark.parametrize("cached", (False, True), ids=("direct", "cached"))
@pytest.mark.parametrize("family", FAMILIES)
def test_fold_matches_the_unique_scatter_add_merge(family, cached):
    """AS {2, 5, 8, 9} x DW 2..15 x {one stream, three streams with one
    exactly DW long}."""
    rng = np.random.default_rng(20261019)
    for alphabet_size in (2, 5, 8, 9):
        for window in range(2, 16):
            lone = [rng.integers(0, alphabet_size, size=400)]
            several = [
                rng.integers(0, alphabet_size, size=300),
                rng.integers(0, alphabet_size, size=window),
                rng.integers(0, alphabet_size, size=170),
            ]
            for streams in (lone, several):
                detector = create_detector(family, window, alphabet_size)
                if cached:
                    detector.attach_cache(WindowCache())
                detector.fit_many(streams)
                expected = _reference_state(family, streams, window, alphabet_size)
                assert fit_states_equal(detector.export_fit_state(), expected), (
                    f"{family} AS={alphabet_size} DW={window} "
                    f"streams={len(streams)}"
                )


def _digest(states) -> str:
    digest = hashlib.sha256()
    for state in states:
        for name in sorted(state):
            array = np.ascontiguousarray(state[name])
            digest.update(name.encode())
            digest.update(array.dtype.str.encode())
            digest.update(repr(array.shape).encode())
            digest.update(array.tobytes())
    return digest.hexdigest()


#: sha256 of ``export_fit_state()`` over DW 2..15 at AS 8, and at the
#: unpackable AS 32 / DW 13, for the seeded streams below.
PINNED = {
    "stide": (
        "4d238398c12354ff081a51921ee6c31a0aabd974a9d9ac368fc558c5bafdc038",
        "5fa4c999cc538cff9d0e9783aeca3151b5679cc3eadf173657ffc337a209de08",
    ),
    "t-stide": (
        "ecd78ee8332befd5d911884adc68280641ac35fc1f47e3353de3bec4b9ea461b",
        "0b2603a65e1f41f6dcb8f0835879fb20c51684f14a3f17c81affea55b4b782ad",
    ),
    "markov": (
        "c319e998325474405e30799984d0cf72663f52260a8dc179a1f6ba5abf8949fb",
        "bba6cdc77650b0c8c9aba6168a760d66e3796227ca75741b9ac424b65fc87d11",
    ),
}


@pytest.mark.parametrize("cached", (False, True), ids=("direct", "cached"))
@pytest.mark.parametrize("family", FAMILIES)
def test_fit_states_match_pinned_digests(family, cached):
    rng = np.random.default_rng(20261019)
    small, large = rng.integers(0, 8, size=3000), rng.integers(0, 32, size=3000)
    cache = WindowCache() if cached else None
    states = []
    for window in range(2, 16):
        detector = create_detector(family, window, 8).attach_cache(cache)
        states.append(detector.fit(small).export_fit_state())
    corner = create_detector(family, 13, 32).attach_cache(cache).fit(large)
    assert (_digest(states), _digest([corner.export_fit_state()])) == PINNED[family]
