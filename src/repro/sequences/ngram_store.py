"""Exact n-gram occurrence counts over one categorical stream.

An :class:`NgramStore` records, for selected window lengths, how many
times each fixed-length sequence occurs in a stream.  It answers the
two questions the paper's machinery asks constantly:

* *does this sequence exist in training?* (foreignness, Stide's test);
* *how often, relative to all windows of its length?* (rarity — the
  paper defines rare as relative frequency below 0.5%).

The counts come from one chain of orders (DESIGN S53, S56), built by
the counting refinement of DESIGN S52.  It is the only window-count
chain in the package: the evaluation suite's checks query it, and
:class:`~repro.runtime.cache.WindowCache` keeps one per stream for the
detector fits and test-stream dedup of a sweep.
Order 1 keeps the sorted distinct symbols.  Order ``L`` keys the window
starting at ``i`` as ``group_{L-1}[i] * span + rank[i + L - 1]``, where
``rank`` is a symbol's order-1 group and ``span`` the number of
distinct symbols, and keeps its sorted distinct keys with their counts
and first starts.  A probe walks the same chain: one ``np.searchsorted``
per order, with -1 carried through once a prefix is absent.  Every
query is a batched array lookup, and neither symbol values nor window
lengths are bounded by a packing budget.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.exceptions import WindowError
from repro.sequences.windows import windows_array

Ngram = tuple[int, ...]


def count_keys(
    keys: np.ndarray, space: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(inverse, counts, first)`` of the integer ``keys`` in ``[0, space)``.

    Groups are the distinct keys in ascending order, each first seen
    at its smallest position — exactly what ``np.unique(keys,
    return_index=True, return_inverse=True, return_counts=True)``
    returns.  A dense count when ``space`` is no larger than the number
    of keys, else one 1-D ``np.unique`` (DESIGN S52).
    """
    n = len(keys)
    if space <= n:  # a dense table no larger than the keys
        table = np.bincount(keys, minlength=space)
        present = table > 0
        inverse = (np.cumsum(present) - 1)[keys]
        first = np.full(space, n, dtype=np.int64)
        np.minimum.at(first, keys, np.arange(n))
        return inverse, table[present], first[present]
    _keys, first, inverse, counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True
    )
    return inverse, counts, first


class NgramStore:
    """Occurrence counts of fixed-length sequences of one stream.

    The store indexes a set of window lengths; queries at an unindexed
    length raise :class:`~repro.exceptions.WindowError` rather than
    silently returning zero, because "never counted" and "counted zero
    times" mean very different things for foreignness tests.
    :meth:`index` adds lengths later, extending the chain from the
    highest order already built.

    Args:
        lengths: the window lengths to index; each must be positive.
        stream: the 1-D stream to count (empty by default: every count
            is zero).
    """

    def __init__(
        self, lengths: Iterable[int], stream: Sequence[int] | np.ndarray = ()
    ) -> None:
        data = np.asarray(stream)
        if data.ndim != 1:
            raise WindowError(f"stream must be one-dimensional, got shape {data.shape}")
        self._stream = data if data.size else data.astype(np.int64)
        # Per order L (list index L - 1): the sorted distinct keys, the
        # counts with a trailing 0 (so an absent probe's group -1 reads
        # 0), and each group's first start.
        self._keys: list[np.ndarray] = []
        self._counts: list[np.ndarray] = []
        self._first: list[np.ndarray] = []
        # Group of every window at the highest built order: the only
        # per-window int64 array kept, so that :meth:`index` can extend.
        self._inverse = np.zeros(0, dtype=np.int64)
        # Order-1 group of every symbol, in the narrowest integer type.
        self._ranks = np.zeros(0, dtype=np.uint8)
        self._lengths: tuple[int, ...] = ()
        lengths = tuple(lengths)
        if not lengths:
            raise WindowError("an NgramStore requires at least one window length")
        self.index(*lengths)

    @classmethod
    def from_stream(
        cls, stream: Sequence[int] | np.ndarray, lengths: Iterable[int]
    ) -> "NgramStore":
        """Build a store by counting all windows of ``lengths`` in ``stream``."""
        return cls(lengths, stream)

    def index(self, *lengths: int) -> None:
        """Index ``lengths`` as well, counting any order not yet built."""
        fresh = {int(length) for length in lengths}
        if fresh and min(fresh) <= 0:
            raise WindowError(f"window lengths must be positive, got {min(fresh)}")
        self._lengths = tuple(sorted(set(self._lengths) | fresh))
        top = max(self._lengths, default=0)
        while len(self._keys) < top:
            self._extend()

    def _extend(self) -> None:
        """Count order ``L = built + 1`` from order ``L - 1``."""
        order = len(self._keys) + 1
        n = len(self._stream) - order + 1
        if order == 1:  # the distinct symbols themselves
            keys, first, inverse, counts = np.unique(
                self._stream, return_index=True, return_inverse=True, return_counts=True
            )
            inverse = inverse.reshape(-1)
            self._ranks = inverse.astype(np.min_scalar_type(max(len(keys) - 1, 0)))
        elif n < 1:
            keys = counts = first = inverse = np.zeros(0, dtype=np.int64)
        else:
            span = len(self._keys[0])
            keys = self._inverse[:n] * span + self._ranks[order - 1 :]
            inverse, counts, first = count_keys(keys, len(self._keys[-1]) * span)
            keys = keys[first]
        self._keys.append(keys)
        self._counts.append(np.append(counts, 0))
        self._first.append(first)
        self._inverse = inverse

    # -- basic introspection -------------------------------------------------

    @property
    def lengths(self) -> tuple[int, ...]:
        """The indexed window lengths, ascending."""
        return self._lengths

    def _check(self, length: int) -> None:
        if length not in self._lengths:
            raise WindowError(
                f"length {length} is not indexed by this store (indexed: {self.lengths})"
            )

    def total(self, length: int) -> int:
        """Total number of windows of ``length`` counted."""
        self._check(length)
        return max(0, len(self._stream) - length + 1)

    def distinct(self, length: int) -> int:
        """Number of distinct ``length``-grams observed."""
        self._check(length)
        return len(self._first[length - 1])

    def first(self, length: int) -> np.ndarray:
        """Start of each distinct ``length``-gram's first occurrence.

        Aligned with :meth:`rows`: exactly ``np.unique(view, axis=0,
        return_index=True)``'s index.
        """
        self._check(length)
        return self._first[length - 1]

    def rows(self, length: int) -> np.ndarray:
        """The distinct ``length``-grams as rows, in lexicographic order."""
        first = self.first(length)
        if not len(first):
            return np.zeros((0, length), dtype=self._stream.dtype)
        return windows_array(self._stream, length)[first]

    def row_counts(self, length: int) -> np.ndarray:
        """Occurrences of each of :meth:`rows`, aligned with them.

        Exactly ``np.unique(view, axis=0, return_counts=True)``'s
        counts; the store's own array, not a copy.
        """
        self._check(length)
        return self._counts[length - 1][:-1]

    def groups(self, length: int) -> np.ndarray:
        """Group of every ``length``-window of the stream, in stream order.

        ``rows(length)[groups(length)]`` is the sliding view: exactly
        ``np.unique(view, axis=0, return_inverse=True)``'s inverse.
        The highest built order's groups are kept; any other order
        costs one walk of the stream up the chain.
        """
        self._check(length)
        if length == len(self._keys):
            return self._inverse
        for _order, groups in self._walk(self._stream, length):
            pass
        return groups

    def ngrams(self, length: int) -> Iterator[Ngram]:
        """Iterate over the distinct ``length``-grams, lexicographically."""
        return map(tuple, self.rows(length).tolist())

    def counts(self, length: int) -> Mapping[Ngram, int]:
        """The count table for ``length``, in lexicographic order (a copy)."""
        counts = self._counts[length - 1][:-1].tolist()
        return dict(zip(self.ngrams(length), counts))

    # -- batched lookup --------------------------------------------------------

    def _find(self, order: int, keys: np.ndarray) -> np.ndarray:
        """Group of each key at ``order``, or -1 where the key is absent."""
        table = self._keys[order - 1]
        if not len(table):
            return np.full(keys.shape, -1, dtype=np.int64)
        position = np.minimum(np.searchsorted(table, keys), len(table) - 1)
        return np.where(table[position] == keys, position, -1)

    def _walk(self, data: np.ndarray, top: int) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(L, groups)`` for ``L = 1..top`` along ``data``'s last axis.

        ``groups[..., i]`` is the order-``L`` group of the window
        starting at ``i``, or -1 when that window never occurs.
        """
        ranks = groups = self._find(1, data)
        yield 1, groups
        span = len(self._keys[0])
        for order in range(2, top + 1):
            previous, symbol = groups[..., :-1], ranks[..., order - 1 :]
            found = self._find(order, previous * span + symbol)
            groups = np.where((previous >= 0) & (symbol >= 0), found, -1)
            yield order, groups

    def window_counts(
        self, data: Sequence[int] | np.ndarray, *lengths: int
    ) -> dict[int, np.ndarray]:
        """Counts of every window of each of ``lengths`` in ``data``.

        Windows slide along the last axis: ``result[L][..., i]`` is the
        number of occurrences of ``data[..., i : i + L]`` in the stream.
        A 1-D ``data`` is one probe stream; a 2-D ``data`` of shape
        ``(k, L)`` is ``k`` probes, counted in ``result[L][:, 0]``.
        All lengths share one walk up the chain.

        Raises:
            WindowError: if some length is not indexed.
        """
        for length in lengths:
            self._check(length)
        wanted = set(lengths)
        counts: dict[int, np.ndarray] = {}
        if not wanted:
            return counts
        for order, groups in self._walk(np.asarray(data), max(wanted)):
            if order in wanted:
                counts[order] = self._counts[order - 1][groups]
        return counts

    # -- membership, frequency, rarity ---------------------------------------

    def count(self, ngram: Sequence[int]) -> int:
        """Occurrences of ``ngram`` (0 if never observed)."""
        probe = np.asarray(tuple(int(code) for code in ngram), dtype=np.int64)
        return int(self.window_counts(probe, len(probe))[len(probe)][0])

    def contains(self, ngram: Sequence[int]) -> bool:
        """Whether ``ngram`` occurred at least once (i.e. is not foreign)."""
        return self.count(ngram) > 0

    def __contains__(self, ngram: object) -> bool:
        if not isinstance(ngram, (tuple, list)):
            return False
        try:
            return self.contains(ngram)  # type: ignore[arg-type]
        except WindowError:
            return False

    def relative_frequency(self, ngram: Sequence[int]) -> float:
        """Occurrences of ``ngram`` divided by all same-length windows.

        Returns 0.0 when no windows of that length have been counted.
        """
        key = tuple(int(code) for code in ngram)
        total = self.total(len(key))
        if total == 0:
            return 0.0
        return self.count(key) / total

    def rare_ngrams(self, length: int, threshold: float) -> list[Ngram]:
        """Observed ``length``-grams with relative frequency below ``threshold``.

        This is the paper's rarity criterion (Section 5.3): a rare
        sequence has relative frequency under 0.5% in training.
        Returned in lexicographic order.
        """
        total = self.total(length)
        if total == 0:
            return []
        rare = self._counts[length - 1][:-1] < threshold * total
        return list(map(tuple, self.rows(length)[rare].tolist()))

    def __repr__(self) -> str:
        sizes = ", ".join(
            f"{length}:{self.distinct(length)}" for length in self.lengths
        )
        return f"NgramStore(lengths->distinct: {{{sizes}}})"
