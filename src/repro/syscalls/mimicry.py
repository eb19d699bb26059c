"""Mimicry attacks: making an exploit manifest as normal behavior.

Wagner & Soto (cited as [19]) showed that attacks can be manipulated to
manifest as sequences "invisible to a given anomaly-based intrusion
detection system".  The paper uses this to motivate question C of
Figure 1: detecting attacks that manifest as normal behavior is out of
scope for *any* anomaly detector.

:func:`pad_to_mimic` implements the classic padding transformation: the
attacker interleaves no-op system calls into the exploit sequence so
that every window of the padded sequence exists in the normal
behavior.  The transformation searches over insertions of observed
call subsequences; when it succeeds, the padded exploit slips past
Stide at the targeted window length — turning a DETECTED verdict into
NOT_ANOMALOUS in the Figure-1 chain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import DataGenerationError
from repro.sequences.ngram_store import NgramStore


@dataclass(frozen=True)
class MimicryResult:
    """Outcome of a padding search.

    Attributes:
        padded: the transformed call sequence (original calls in order,
            with normal padding interleaved), or ``None`` on failure.
        original_length: length of the unpadded exploit.
        attempts: number of search states expanded.
    """

    padded: tuple[int, ...] | None
    original_length: int
    attempts: int

    @property
    def succeeded(self) -> bool:
        """Whether a fully normal-looking padding was found."""
        return self.padded is not None

    @property
    def overhead(self) -> int:
        """Extra calls inserted (0 when the search failed)."""
        if self.padded is None:
            return 0
        return len(self.padded) - self.original_length


def window_is_normal(
    window: tuple[int, ...], store: NgramStore, window_length: int
) -> bool:
    """Whether every complete ``window_length``-gram of ``window`` is known."""
    if len(window) < window_length:
        return True
    counts = store.window_counts(np.asarray(window), window_length)[window_length]
    return bool(counts.all())


def pad_to_mimic(
    exploit: tuple[int, ...],
    store: NgramStore,
    window_length: int,
    max_padding: int = 32,
    max_attempts: int = 200_000,
) -> MimicryResult:
    """Search for a padding that makes the exploit look normal to Stide.

    The search explores, depth-first, sequences that preserve the
    exploit's calls in order while inserting observed symbols between
    them, pruning any prefix containing an unknown
    ``window_length``-gram.  Success means the padded sequence contains
    no foreign window — Stide at that window length cannot see it.

    Args:
        exploit: the attack's call sequence (alphabet codes).  The
            attacker must still execute these calls in order.
        store: n-gram store of normal behavior; must index
            ``window_length``.
        window_length: the deployed Stide window to evade.
        max_padding: maximum number of inserted calls.
        max_attempts: search-state budget.

    Returns:
        A :class:`MimicryResult`; ``padded`` is ``None`` when no
        normal-looking interleaving exists within the budgets (the
        defender's win).

    Raises:
        DataGenerationError: on an empty exploit or bad window length.
    """
    if not exploit:
        raise DataGenerationError("exploit sequence must be non-empty")
    if window_length < 2:
        raise DataGenerationError(
            f"window_length must be >= 2, got {window_length}"
        )
    symbols = sorted(
        {ngram[0] for ngram in store.ngrams(window_length)}
        | {ngram[-1] for ngram in store.ngrams(window_length)}
    )
    attempts = 0

    def extend(prefix: tuple[int, ...], remaining: tuple[int, ...],
               padding_left: int) -> tuple[int, ...] | None:
        nonlocal attempts
        attempts += 1
        if attempts > max_attempts:
            return None
        # Prune: the newest complete window must be normal.
        if len(prefix) >= window_length and not store.contains(
            prefix[-window_length:]
        ):
            return None
        if not remaining:
            return prefix
        # Option 1: emit the next exploit call.
        result = extend(prefix + (remaining[0],), remaining[1:], padding_left)
        if result is not None:
            return result
        # Option 2: insert one padding call.
        if padding_left > 0:
            for symbol in symbols:
                result = extend(
                    prefix + (symbol,), remaining, padding_left - 1
                )
                if result is not None:
                    return result
        return None

    padded = extend((), tuple(int(c) for c in exploit), max_padding)
    if padded is not None and not window_is_normal(padded, store, window_length):
        raise DataGenerationError("mimicry search returned a non-normal sequence")
    return MimicryResult(
        padded=padded, original_length=len(exploit), attempts=attempts
    )
