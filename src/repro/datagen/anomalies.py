"""Minimal-foreign-sequence synthesis (Section 5.4.2 of the paper).

The paper composes its anomalies — minimal foreign sequences of sizes
2 through 9 — by concatenating short *rare* sequences from the training
trace and verifying foreignness and minimality.  The synthesizer here
performs the equivalent construction exactly: an MFS of length ``n``
is the overlap-join of two observed ``(n-1)``-grams whose length-``n``
join never occurs, which guarantees both properties by construction
(every proper subsequence of the join lies inside one of the two
observed parts).

For sizes 3 and up the two parts are required to be rare, matching the
paper.  For size 2 the proper subsequences are single symbols, all of
which are common in the paper's corpus (the cycle visits the whole
alphabet), so the rarity requirement is vacuous and is dropped — the
paper's own size-2 anomalies necessarily have this property as well.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datagen.training import TrainingData
from repro.exceptions import AnomalySynthesisError


@dataclass(frozen=True)
class SynthesizedAnomaly:
    """A verified minimal foreign sequence and its provenance.

    Attributes:
        sequence: the MFS, as a tuple of alphabet codes.
        size: ``len(sequence)`` (the paper's ``AS``).
        left_part: the observed ``size-1``-gram forming the prefix.
        right_part: the observed ``size-1``-gram forming the suffix.
        parts_rare: whether both parts are rare in training (true for
            every size >= 3 under the default synthesis).
        left_part_frequency: relative frequency of the prefix part.
        right_part_frequency: relative frequency of the suffix part.
    """

    sequence: tuple[int, ...]
    size: int
    left_part: tuple[int, ...]
    right_part: tuple[int, ...]
    parts_rare: bool
    left_part_frequency: float
    right_part_frequency: float

    def __post_init__(self) -> None:
        if self.size != len(self.sequence):
            raise AnomalySynthesisError(
                f"size {self.size} disagrees with sequence length {len(self.sequence)}"
            )
        if self.sequence[:-1] != self.left_part or self.sequence[1:] != self.right_part:
            raise AnomalySynthesisError(
                "left/right parts must be the (n-1)-prefix and (n-1)-suffix of the MFS"
            )


class AnomalySynthesizer:
    """Synthesize verified MFS anomalies against a training corpus.

    Args:
        training: the corpus the anomalies must be foreign to.
    """

    def __init__(self, training: TrainingData) -> None:
        self._training = training
        self._analyzer = training.analyzer
        self._candidates: dict[tuple[int, bool], list[tuple[int, ...]]] = {}

    def candidates(
        self, size: int, rare_parts_only: bool | None = None, limit: int | None = None
    ) -> list[tuple[int, ...]]:
        """Enumerate candidate MFSs of ``size`` in deterministic order.

        Args:
            size: anomaly length (>= 2).
            rare_parts_only: require both (size-1)-parts to be rare.
                Defaults to true for sizes >= 3 and false for size 2
                (see module docstring).
            limit: optional cap on the number of candidates returned.

        Each ``(size, rare_parts_only)`` list is enumerated once per
        synthesizer and reused by every later call.
        """
        if size < 2:
            raise AnomalySynthesisError(
                f"anomaly size must be >= 2, got {size}; a size-1 foreign "
                "sequence over the training alphabet cannot exist (Section 6)"
            )
        if rare_parts_only is None:
            rare_parts_only = size >= 3
        key = (size, rare_parts_only)
        if key not in self._candidates:
            self._candidates[key] = self._analyzer.minimal_foreign_sequences(
                size, rare_parts_only=rare_parts_only
            )
        return self._candidates[key][:limit]

    def synthesize(
        self,
        size: int,
        rare_parts_only: bool | None = None,
        index: int = 0,
    ) -> SynthesizedAnomaly:
        """Return the ``index``-th candidate MFS of ``size``, fully verified.

        The candidate enumeration is deterministic (lexicographic), so a
        fixed ``(size, index)`` always yields the same anomaly for a
        fixed training corpus — the replicability the paper's suite
        construction requires.

        Args:
            size: anomaly length (the paper's ``AS``; >= 2).
            rare_parts_only: see :meth:`candidates`.
            index: which candidate to take (0-based).

        Raises:
            AnomalySynthesisError: if no MFS with the requested
                properties exists, or ``index`` is out of range.
        """
        found = self.candidates(size, rare_parts_only=rare_parts_only)
        if not found:
            raise AnomalySynthesisError(
                f"training corpus admits no minimal foreign sequence of size {size}"
                + (" with rare parts" if (rare_parts_only or size >= 3) else "")
            )
        if not 0 <= index < len(found):
            raise AnomalySynthesisError(
                f"anomaly index {index} out of range; {len(found)} candidates of "
                f"size {size} exist"
            )
        sequence = found[index]
        # Independent exhaustive verification (tests rely on this oracle).
        self._analyzer.verify_minimal_foreign(sequence)
        left, right = sequence[:-1], sequence[1:]
        return SynthesizedAnomaly(
            sequence=sequence,
            size=size,
            left_part=left,
            right_part=right,
            parts_rare=self._analyzer.is_rare(left) and self._analyzer.is_rare(right),
            left_part_frequency=self._frequency(left),
            right_part_frequency=self._frequency(right),
        )

    def _frequency(self, part: tuple[int, ...]) -> float:
        store = self._analyzer.store_for(len(part))
        return store.relative_frequency(part)
