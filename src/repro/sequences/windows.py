"""Fixed-length sliding windows over categorical streams.

The fixed-length sequence obtained by sliding a *detector window* of
length ``DW`` across a data stream is the basic event analyzed by every
detector in Tan & Maxion's study (Section 4.2).  This module provides
the window iteration primitives shared by detectors, generators and the
evaluation harness.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from repro.exceptions import WindowError

Window = tuple[int, ...]

#: Signed 64-bit integers leave 63 usable bits for packed window keys.
PACK_BIT_BUDGET = 63


def symbol_bits(alphabet_size: int) -> int:
    """Bits needed to hold one symbol code in ``0..alphabet_size-1``.

    ``ceil(log2(alphabet_size))``, with a floor of 1 bit so the
    degenerate two-symbol alphabet still occupies a lane.  The paper's
    AS=8 alphabet packs at 3 bits per symbol.

    Raises:
        WindowError: if ``alphabet_size`` < 2.
    """
    if alphabet_size < 2:
        raise WindowError(f"alphabet_size must be >= 2, got {alphabet_size}")
    return max(1, int(alphabet_size - 1).bit_length())


def packable(alphabet_size: int, window_length: int) -> bool:
    """Whether ``window_length`` symbols fit one 63-bit packed key.

    Bit-width budget: ``window_length * symbol_bits(alphabet_size) <= 63``.
    For AS=8 this admits every DW up to 21; AS=32/DW=13 needs 65 bits
    and stays unpackable (tuple/bisect fallback paths).
    """
    _check_window_length(window_length)
    return window_length * symbol_bits(alphabet_size) <= PACK_BIT_BUDGET


def _check_window_length(window_length: int) -> None:
    if window_length <= 0:
        raise WindowError(f"window length must be positive, got {window_length}")


def window_count(stream_length: int, window_length: int) -> int:
    """Number of windows of ``window_length`` in a stream of ``stream_length``.

    Returns 0 when the stream is shorter than the window.
    """
    _check_window_length(window_length)
    if stream_length < 0:
        raise WindowError(f"stream length must be non-negative, got {stream_length}")
    return max(0, stream_length - window_length + 1)


def iter_windows(stream: Sequence[int], window_length: int) -> Iterator[Window]:
    """Yield every contiguous window of ``window_length`` as a tuple.

    Windows are yielded in stream order; the window starting at index
    ``i`` covers ``stream[i : i + window_length]``.

    Args:
        stream: the categorical stream (any integer sequence).
        window_length: length of the sliding window; must be positive.

    Raises:
        WindowError: if ``window_length`` is not positive.
    """
    _check_window_length(window_length)
    stream_tuple = tuple(stream)
    for start in range(len(stream_tuple) - window_length + 1):
        yield stream_tuple[start : start + window_length]


def windows_array(stream: Sequence[int] | np.ndarray, window_length: int) -> np.ndarray:
    """Return all windows as a 2-D NumPy view-like array.

    The result has shape ``(window_count, window_length)``; row ``i`` is
    the window starting at stream position ``i``.  Uses stride tricks,
    so no data is copied for array input.

    Args:
        stream: the categorical stream.
        window_length: length of the sliding window; must be positive
            and no longer than the stream.

    Raises:
        WindowError: if the window does not fit in the stream.
    """
    _check_window_length(window_length)
    data = np.asarray(stream)
    if data.ndim != 1:
        raise WindowError(f"stream must be one-dimensional, got shape {data.shape}")
    if len(data) < window_length:
        raise WindowError(
            f"stream of length {len(data)} is shorter than window length {window_length}"
        )
    return np.lib.stride_tricks.sliding_window_view(data, window_length)


def pack_windows(windows: np.ndarray, alphabet_size: int) -> np.ndarray:
    """Pack integer windows into single integers for O(1) hashing.

    Each window ``(c_0, ..., c_{k-1})`` with codes in ``0..alphabet_size-1``
    occupies ``symbol_bits(alphabet_size)`` bit lanes of one signed
    64-bit key: ``sum c_i << (bits * (k-1-i))``.  Bit-width packing is
    injective for windows of a fixed length and preserves lexicographic
    order (the first symbol owns the highest lane), so sorting packed
    keys sorts the underlying windows — which is what lets the
    membership kernels bisect packed databases.  For power-of-two
    alphabets the values coincide with the historical base-``AS``
    encoding; for other alphabets the budget is strictly wider
    (``k * ceil(log2 AS) <= 63`` instead of ``k * log2 AS < 63``).

    Args:
        windows: 2-D array of shape ``(n, k)`` with codes in range.
        alphabet_size: number of symbols; must exceed every code.

    Raises:
        WindowError: if codes are out of range or packing would overflow
            the 63-bit signed integer budget.
    """
    if windows.ndim != 2:
        raise WindowError(f"windows must be 2-D, got shape {windows.shape}")
    length = windows.shape[1]
    bits = symbol_bits(alphabet_size)
    if length * bits > PACK_BIT_BUDGET:
        raise WindowError(
            f"packing windows of length {length} over alphabet {alphabet_size} "
            "would overflow 63-bit integers"
        )
    if windows.size and (windows.min() < 0 or windows.max() >= alphabet_size):
        raise WindowError("window codes out of range for the given alphabet size")
    weights = np.left_shift(
        np.int64(1), bits * np.arange(length - 1, -1, -1, dtype=np.int64)
    )
    return windows.astype(np.int64) @ weights


def pack_window(window: Sequence[int], alphabet_size: int) -> int:
    """Pack a single window into an integer (see :func:`pack_windows`)."""
    packed = pack_windows(np.asarray([tuple(window)], dtype=np.int64), alphabet_size)
    return int(packed[0])
