"""Foreignness, rarity, and minimal-foreign-sequence analysis.

This module implements the anomaly vocabulary of Tan & Maxion
(Section 5.1):

* a **foreign sequence** of length *N* is composed entirely of
  training-alphabet symbols but does not itself occur in the training
  data;
* a **rare sequence** occurs with relative frequency below a threshold
  (the paper uses 0.5%);
* a **minimal foreign sequence (MFS)** is a foreign sequence whose every
  proper contiguous subsequence occurs in the training data — a foreign
  sequence containing no smaller foreign sequence.

The key structural fact used throughout: a sequence ``s`` of length
``n >= 2`` is an MFS iff ``s`` is foreign *and* both of its
length-``n-1`` windows (the prefix ``s[:-1]`` and the suffix ``s[1:]``)
occur in training.  Every shorter subsequence of ``s`` is contained in
one of those two windows, and any substring of a string occurring in
the training stream itself occurs in the training stream.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from repro.exceptions import WindowError
from repro.sequences.ngram_store import NgramStore

Ngram = tuple[int, ...]


def is_foreign(sequence: Sequence[int], store: NgramStore) -> bool:
    """Whether ``sequence`` never occurs in the data indexed by ``store``.

    Raises:
        WindowError: if the store does not index ``len(sequence)``.
    """
    return not store.contains(sequence)

def is_rare(sequence: Sequence[int], store: NgramStore, threshold: float) -> bool:
    """Whether ``sequence`` occurs, but with relative frequency below ``threshold``.

    A foreign sequence (frequency zero) is *not* rare under the paper's
    usage: rarity presumes occurrence.
    """
    count = store.count(sequence)
    if count == 0:
        return False
    return store.relative_frequency(sequence) < threshold


def is_common(sequence: Sequence[int], store: NgramStore, threshold: float) -> bool:
    """Whether ``sequence`` occurs with relative frequency >= ``threshold``."""
    return store.relative_frequency(sequence) >= threshold


def is_minimal_foreign(sequence: Sequence[int], store: NgramStore) -> bool:
    """Whether ``sequence`` is a minimal foreign sequence.

    Requires the store to index both ``len(sequence)`` and
    ``len(sequence) - 1``.

    Raises:
        WindowError: if either required length is not indexed, or the
            sequence is shorter than 2 (a length-1 MFS cannot exist when
            composed of training-alphabet symbols, see Section 6).
    """
    key = tuple(int(code) for code in sequence)
    if len(key) < 2:
        raise WindowError(
            "minimal foreign sequences have length >= 2; a length-1 sequence "
            "over the training alphabet cannot be foreign"
        )
    if store.contains(key):
        return False
    return store.contains(key[:-1]) and store.contains(key[1:])


def proper_subsequences(sequence: Sequence[int]) -> Iterator[Ngram]:
    """Yield every proper contiguous subsequence of ``sequence`` (length >= 1)."""
    key = tuple(int(code) for code in sequence)
    for length in range(1, len(key)):
        for start in range(len(key) - length + 1):
            yield key[start : start + length]


class ForeignSequenceAnalyzer:
    """Foreign/rare/MFS queries over a fixed training stream.

    The analyzer owns an :class:`NgramStore` over the training stream
    and lazily extends it with new window lengths as queries require,
    so callers never need to predeclare which lengths they will ask
    about.

    Args:
        training_stream: the encoded training data.
        rare_threshold: relative-frequency bound defining rarity.
    """

    def __init__(
        self, training_stream: Sequence[int] | np.ndarray, rare_threshold: float = 0.005
    ) -> None:
        self._stream = np.asarray(training_stream)
        if self._stream.ndim != 1:
            raise WindowError(
                f"training stream must be one-dimensional, got shape {self._stream.shape}"
            )
        if len(self._stream) == 0:
            raise WindowError("training stream must be non-empty")
        if not 0.0 < rare_threshold < 1.0:
            raise WindowError(
                f"rare_threshold must lie in (0, 1), got {rare_threshold}"
            )
        self._rare_threshold = float(rare_threshold)
        self._store = NgramStore.from_stream(self._stream, (1,))

    @property
    def rare_threshold(self) -> float:
        """Relative-frequency bound below which a sequence is rare."""
        return self._rare_threshold

    @property
    def training_length(self) -> int:
        """Number of elements in the analyzed training stream."""
        return len(self._stream)

    def store_for(self, *lengths: int) -> NgramStore:
        """Return the backing store, indexing ``lengths`` (building as needed)."""
        self._store.index(*lengths)
        return self._store

    # -- single-sequence queries ----------------------------------------------

    def count(self, sequence: Sequence[int]) -> int:
        """Occurrences of ``sequence`` in the training stream."""
        return self.store_for(len(tuple(sequence))).count(sequence)

    def is_foreign(self, sequence: Sequence[int]) -> bool:
        """Whether ``sequence`` does not occur in training."""
        return is_foreign(sequence, self.store_for(len(tuple(sequence))))

    def is_rare(self, sequence: Sequence[int]) -> bool:
        """Whether ``sequence`` occurs but below the rarity threshold."""
        return is_rare(sequence, self.store_for(len(tuple(sequence))), self._rare_threshold)

    def is_common(self, sequence: Sequence[int]) -> bool:
        """Whether ``sequence`` occurs at or above the rarity threshold."""
        return is_common(sequence, self.store_for(len(tuple(sequence))), self._rare_threshold)

    def is_minimal_foreign(self, sequence: Sequence[int]) -> bool:
        """Whether ``sequence`` is an MFS with respect to training."""
        length = len(tuple(sequence))
        return is_minimal_foreign(sequence, self.store_for(length, length - 1))

    def verify_minimal_foreign(self, sequence: Sequence[int]) -> None:
        """Exhaustively verify the MFS property, raising on violation.

        Unlike :meth:`is_minimal_foreign` (which uses the two-window
        shortcut), this checks *every* proper contiguous subsequence,
        serving as an independent oracle for tests.

        Raises:
            WindowError: if the sequence is not foreign, or some proper
                subsequence is itself foreign.
        """
        key = tuple(int(code) for code in sequence)
        lengths = range(1, len(key) + 1)
        store = self.store_for(*lengths)
        if store.contains(key):
            raise WindowError(f"sequence {key} occurs in training; not foreign")
        counts = store.window_counts(np.asarray(key), *lengths)
        for length in lengths[:-1]:  # proper_subsequences order
            absent = np.flatnonzero(counts[length] == 0)
            if len(absent):
                sub = key[absent[0] : absent[0] + length]
                raise WindowError(
                    f"proper subsequence {sub} of {key} is foreign; {key} is not minimal"
                )

    # -- enumeration ----------------------------------------------------------

    def minimal_foreign_sequences(
        self, length: int, rare_parts_only: bool = False, limit: int | None = None
    ) -> list[Ngram]:
        """Enumerate MFSs of ``length`` constructible over this training data.

        An MFS of length ``n`` is the overlap-join of two observed
        ``(n-1)``-grams ``a`` and ``b`` with ``a[1:] == b[:-1]`` whose
        join ``a + (b[-1],)`` is unobserved.  The enumeration walks all
        such joins in deterministic (sorted) order.

        Args:
            length: the MFS length ``n >= 2``.
            rare_parts_only: if true, only joins of two *rare*
                ``(n-1)``-grams are returned — the paper composes its
                anomalies exclusively from rare subsequences.
            limit: optional cap on the number of results.

        Returns:
            MFS tuples in lexicographic order (possibly empty).
        """
        if length < 2:
            raise WindowError(f"MFS length must be >= 2, got {length}")
        store = self.store_for(length, length - 1)
        if rare_parts_only:
            parts = store.rare_ngrams(length - 1, self._rare_threshold)
        else:
            parts = list(store.ngrams(length - 1))
        # Parts come in lexicographic order, so indexing the right parts
        # by their (n-2)-prefix keeps the joins in lexicographic order.
        by_prefix: dict[Ngram, list[Ngram]] = {}
        for part in parts:
            by_prefix.setdefault(part[:-1], []).append(part)
        joins = [
            left + (right[-1],)
            for left in parts
            for right in by_prefix.get(left[1:], ())
        ]
        probes = np.asarray(joins, dtype=np.int64).reshape(-1, length)
        counts = store.window_counts(probes, length)[length][:, 0]
        results = [join for join, count in zip(joins, counts.tolist()) if count == 0]
        return results if limit is None else results[:limit]


def minimal_foreign_sequences(
    training_stream: Sequence[int] | np.ndarray,
    length: int,
    rare_threshold: float = 0.005,
    rare_parts_only: bool = False,
    limit: int | None = None,
) -> list[Ngram]:
    """Convenience wrapper: enumerate MFSs directly from a stream.

    See :meth:`ForeignSequenceAnalyzer.minimal_foreign_sequences`.
    """
    analyzer = ForeignSequenceAnalyzer(training_stream, rare_threshold=rare_threshold)
    return analyzer.minimal_foreign_sequences(
        length, rare_parts_only=rare_parts_only, limit=limit
    )
