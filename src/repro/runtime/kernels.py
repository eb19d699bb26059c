"""Vectorized batch-scoring kernels shared by the detector families.

Scoring a performance-map cell reduces, for every family, to the same
shape of work: *given a batch of windows, produce one response per
row*.  The scalar path walks that batch row by row through Python
(tuple keys, dict lookups, one ``_score`` call per window); the kernels
in this module replace the walk with a single NumPy pass per batch:

* **membership** — Stide/t-Stide database membership is one
  ``searchsorted`` bisection over the packed normal database
  (:func:`sorted_membership`);
* **count lookup** — the Markov detector's joint/context counts come
  from integer-indexed count tables (:func:`count_lookup`), and the
  floor/unseen scoring rule is applied to the whole batch at once
  (:func:`markov_batch_response`);
* **similarity** — L&B's adjacency-weighted similarity and the Hamming
  foil run as broadcasted comparison tensors with cumulative-run
  accumulation (:func:`lb_batch_similarity`,
  :func:`hamming_batch_distance`), chunked to bound memory;
* **dispatch** — ``AnomalyDetector.score_windows`` is the one
  array-in/array-out entry point, and ``score_stream`` runs the same
  batch; each family's ``_score_windows`` calls the kernels above (the
  neural network's batched forward pass lives there too).

Every kernel is **bit-identical** to the scalar per-window rule it
replaces — the same IEEE-754 operations in the same order per
element — which
``tests/runtime/test_kernels.py`` asserts over randomized alphabets,
window lengths and the unseen/floor edge cases.  The kernels are pure
functions of arrays: no detector state, no imports from
:mod:`repro.detectors` (detectors import *this* module).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import WindowError
from repro.sequences.windows import windows_array

__all__ = [
    "count_lookup",
    "fused_stream_windows",
    "hamming_batch_distance",
    "lb_batch_similarity",
    "markov_batch_response",
    "merge_sorted_counts",
    "merge_sorted_unique",
    "sorted_membership",
]

def sorted_membership(probes: np.ndarray, database: np.ndarray) -> np.ndarray:
    """Whether each probe occurs in an already-sorted database.

    A ``searchsorted`` bisection per probe — ``O(n log m)`` without the
    hash/sort machinery of ``np.isin``, and measurably faster when the
    database is already sorted (``np.unique`` output), which is how the
    sequence detectors store their packed normal databases.  See
    ``benchmarks/bench_throughput.py`` for the comparison.
    """
    if not len(database):
        return np.zeros(len(probes), dtype=bool)
    positions = np.searchsorted(database, probes)
    positions[positions == len(database)] = len(database) - 1
    return database[positions] == probes


def merge_sorted_unique(
    table: np.ndarray, delta: np.ndarray
) -> np.ndarray:
    """Union of two sorted unique arrays, exploiting the sortedness.

    Bit-identical to ``np.union1d(table, delta)`` but ``O(m log n)``
    instead of re-sorting the concatenation: absent delta values are
    located by bisection and spliced in with one ``np.insert`` pass.
    When every delta value is already present — the steady state of a
    fleet tenant whose window vocabulary has saturated — the *same*
    table array is returned, so the caller does no allocation at all.
    """
    if not len(table):
        return delta.astype(np.int64, copy=False)
    fresh = delta[~sorted_membership(delta, table)]
    if not len(fresh):
        return table
    return np.insert(table, np.searchsorted(table, fresh), fresh)


def merge_sorted_counts(
    values: np.ndarray,
    counts: np.ndarray,
    delta_values: np.ndarray,
    delta_counts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge a sorted delta count table into a sorted count table.

    Both tables are ``np.unique``-style (sorted unique values with
    aligned counts).  Bit-identical to the multi-stream merge idiom
    (``np.unique`` over the concatenation plus a scatter-add) at the
    cost of one bisection over the delta: counts of values already
    present add in place on a copy; genuinely new values splice in
    via ``np.insert``.
    """
    if not len(values):
        return (
            delta_values.astype(np.int64, copy=False),
            delta_counts.astype(np.int64, copy=False),
        )
    present = sorted_membership(delta_values, values)
    merged = counts.astype(np.int64, copy=True)
    if present.any():
        # delta values are unique, so the target positions are too.
        merged[np.searchsorted(values, delta_values[present])] += delta_counts[
            present
        ]
    if present.all():
        return values, merged
    fresh_values = delta_values[~present]
    positions = np.searchsorted(values, fresh_values)
    return (
        np.insert(values, positions, fresh_values),
        np.insert(merged, positions, delta_counts[~present]),
    )


def count_lookup(
    probes: np.ndarray, codes: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Occurrence counts for packed probes against a sorted count table.

    ``codes`` must be sorted ascending (``np.unique`` output) with
    ``counts[i]`` the occurrence count of ``codes[i]``.  Probes absent
    from the table count 0 — exactly ``dict.get(key, 0)`` over the
    whole batch in one bisection.
    """
    if not len(codes):
        return np.zeros(len(probes), dtype=np.int64)
    positions = np.searchsorted(codes, probes)
    positions[positions == len(codes)] = len(codes) - 1
    found = codes[positions] == probes
    return np.where(found, counts[positions], 0).astype(np.int64, copy=False)


def markov_batch_response(
    joint: np.ndarray,
    context: np.ndarray,
    floor_count: float,
    unseen_context_response: float,
) -> np.ndarray:
    """The Markov floor/unseen scoring rule over a whole batch.

    Vectorizes ``MarkovDetector._window_response`` element for element:

    * a transition whose joint count is 0 **or** below ``floor_count``
      is floored — response 1, except that a window whose *context* is
      also unseen (``context == 0 and joint == 0``) emits
      ``unseen_context_response``;
    * otherwise the response is ``1 - joint / context`` (with the
      defensive ``context == 0`` branch mapping to 1), clipped to
      ``[0, 1]``.

    ``floor_count`` is the precomputed ``rare_floor * total_windows``
    bound; pass 0.0 for the unfloored estimator (a joint count of 0 is
    still floored, matching the scalar rule's ``joint == 0`` arm).

    Args:
        joint: per-row joint ``DW``-gram training counts.
        context: per-row ``(DW-1)``-gram training counts.
        floor_count: absolute count bound below which a seen transition
            is treated as probability 0 (0.0 disables the floor).
        unseen_context_response: response for rows whose context never
            occurred in training.

    Returns:
        ``float64`` responses in ``[0, 1]``, one per row.
    """
    floored = joint == 0
    if floor_count > 0.0:
        floored = floored | (joint < floor_count)
    with np.errstate(divide="ignore", invalid="ignore"):
        graded = 1.0 - joint / context
    graded = np.where(context == 0, 1.0, graded)
    responses = np.where(
        floored,
        np.where((context == 0) & (joint == 0), unseen_context_response, 1.0),
        graded,
    )
    return np.clip(responses, 0.0, 1.0)


def lb_batch_similarity(
    windows: np.ndarray, database: np.ndarray, chunk_elements: int
) -> np.ndarray:
    """Best L&B similarity against the database for each window row.

    For each chunk the ``(rows, database, DW)`` boolean comparison
    tensor is reduced with the cumulative-run recurrence
    ``run = (run + 1) * match`` — the adjacency weighting — summed into
    per-pair similarities, then maximized over the database axis.

    Args:
        windows: ``(n, DW)`` batch of windows.
        database: ``(m, DW)`` distinct normal windows.
        chunk_elements: soft bound on the comparison tensor per chunk.

    Returns:
        ``int64`` best similarities, one per row.
    """
    window_length = windows.shape[1]
    matches_shape = len(database) * window_length
    chunk = max(1, chunk_elements // max(1, matches_shape))
    best = np.empty(len(windows), dtype=np.int64)
    for start in range(0, len(windows), chunk):
        block = windows[start : start + chunk]
        # matches: (block, db, DW) boolean comparison tensor.
        matches = block[:, None, :] == database[None, :, :]
        run = np.zeros(matches.shape[:2], dtype=np.int64)
        similarity = np.zeros(matches.shape[:2], dtype=np.int64)
        for j in range(window_length):
            run = (run + 1) * matches[:, :, j]
            similarity += run
        best[start : start + chunk] = similarity.max(axis=1)
    return best


def hamming_batch_distance(
    windows: np.ndarray, database: np.ndarray, chunk_elements: int
) -> np.ndarray:
    """Minimum Hamming distance to the database for each window row.

    The positional foil to :func:`lb_batch_similarity`: the same
    chunked comparison tensor, reduced by mismatch count instead of
    adjacency-weighted runs.

    Args:
        windows: ``(n, DW)`` batch of windows.
        database: ``(m, DW)`` distinct normal windows.
        chunk_elements: soft bound on the comparison tensor per chunk.

    Returns:
        ``int64`` minimum distances, one per row.
    """
    window_length = windows.shape[1]
    per_window = len(database) * window_length
    chunk = max(1, chunk_elements // max(1, per_window))
    best = np.empty(len(windows), dtype=np.int64)
    for start in range(0, len(windows), chunk):
        block = windows[start : start + chunk]
        mismatches = (block[:, None, :] != database[None, :, :]).sum(axis=2)
        best[start : start + chunk] = mismatches.min(axis=1)
    return best


def fused_stream_windows(
    streams: list[np.ndarray], window_length: int
) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """One sliding-window pass over several concatenated streams.

    The serving batcher fuses many per-tenant test streams into a
    single kernel call: the streams are concatenated, *one*
    ``sliding_window_view`` covers the whole batch, and each stream's
    windows are the contiguous row span ``[start, stop)`` returned per
    input.  Rows that straddle a junction between two streams are
    simply outside every span — stream ``j`` starting at offset ``S``
    with length ``L`` owns rows ``S .. S + L - window_length`` and no
    junction-crossing row falls in that range — so slicing the fused
    matrix by its span yields exactly ``windows_array(stream_j, DW)``
    element for element.

    Args:
        streams: one-dimensional integer arrays, each at least
            ``window_length`` long.
        window_length: the shared detector window ``DW``.

    Returns:
        ``(windows, spans)`` — the fused ``(N, DW)`` window matrix over
        the concatenation and one ``(start, stop)`` row span per input
        stream.

    Raises:
        WindowError: if any stream is shorter than the window.
        ValueError: if ``streams`` is empty.
    """
    if not streams:
        raise ValueError("fused_stream_windows needs at least one stream")
    arrays = [np.ascontiguousarray(s) for s in streams]
    for data in arrays:
        if len(data) < window_length:
            raise WindowError(
                f"stream of length {len(data)} is shorter than "
                f"window length {window_length}"
            )
    if len(arrays) == 1:
        windows = windows_array(arrays[0], window_length)
        return windows, [(0, len(windows))]
    concat = np.concatenate(arrays)
    windows = windows_array(concat, window_length)
    spans: list[tuple[int, int]] = []
    offset = 0
    for data in arrays:
        count = len(data) - window_length + 1
        spans.append((offset, offset + count))
        offset += len(data)
    return windows, spans
