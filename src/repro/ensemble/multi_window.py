"""Multi-window detector banks: coverage without probabilities.

The paper's motivating deployment problem: an attack manifests as a
minimal foreign sequence "but the size of this foreign sequence is
unknown (making Stide unreliable as the main detector since Stide
would only detect such a manifestation if its detector window is set
to at least the known size)".  The paper's answer is the Markov
detector; the brute-force alternative is a *bank* of Stide instances
at every affordable window length, alarming when any member does.

:class:`MultiWindowBank` implements the bank for any registered
detector family.  Member responses at different window lengths are
aligned on the **window start index** and combined per start with a
maximum, so the bank exposes the same response-array contract as a
single detector with the bank's minimum window length.

The bank's coverage equals the union of its members' map rows — for
Stide with windows up to ``W`` that is every anomaly size up to ``W``
— at the cost of one normal database per window and the members'
summed false alarms (the E20 bench quantifies both sides against the
Markov-gated-by-Stide pairing).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.detectors.base import AnomalyDetector
from repro.detectors.registry import create_detector
from repro.exceptions import DetectorConfigurationError
from repro.sequences.windows import window_count


class MultiWindowBank(AnomalyDetector):
    """One detector family deployed at several window lengths at once.

    The bank subclasses :class:`AnomalyDetector` with
    ``window_length = min(window_lengths)``: every window start that
    the shortest member scores gets a combined response (longer
    members simply contribute nothing at the trailing starts they
    cannot reach).

    Args:
        window_lengths: member window lengths (>= 2, at least one).
        alphabet_size: number of symbol codes.
        family: registered detector name to instantiate per window.
        **family_kwargs: forwarded to each member's constructor.
    """

    name = "multi-window"

    def __init__(
        self,
        window_lengths: Iterable[int],
        alphabet_size: int,
        family: str = "stide",
        **family_kwargs: object,
    ) -> None:
        lengths = tuple(sorted(set(int(w) for w in window_lengths)))
        if not lengths:
            raise DetectorConfigurationError(
                "a multi-window bank needs at least one window length"
            )
        if lengths[0] < 2:
            raise DetectorConfigurationError(
                f"window lengths must be >= 2, got {lengths[0]}"
            )
        members = [
            create_detector(family, length, alphabet_size, **family_kwargs)
            for length in lengths
        ]
        tolerance = max(member.response_tolerance for member in members)
        super().__init__(lengths[0], alphabet_size, response_tolerance=tolerance)
        self._lengths = lengths
        self._members = members
        self._family = family
        self.name = f"multi-window-{family}"

    def attach_cache(self, cache: object | None) -> "MultiWindowBank":
        """Share a window cache with the bank and every member.

        The members slide the same streams at different window
        lengths; a shared :class:`repro.runtime.WindowCache` derives
        each (stream, window length) artifact once across repeated
        fits and scores — and across any other detectors attached to
        the same cache.
        """
        super().attach_cache(cache)
        for member in self._members:
            member.attach_cache(cache)
        return self

    @property
    def member_window_lengths(self) -> tuple[int, ...]:
        """The bank's window lengths, ascending."""
        return self._lengths

    @property
    def members(self) -> tuple[AnomalyDetector, ...]:
        """The member detectors (fitted iff the bank is fitted)."""
        return tuple(self._members)

    def _fit(self, training_streams: list[np.ndarray]) -> None:
        for member in self._members:
            member.fit_many(training_streams)

    def _score(self, test_stream: np.ndarray) -> np.ndarray:
        # Members slide the stream at their own window lengths, so the
        # bank combines whole member streams rather than one batch.
        combined = np.zeros(
            window_count(len(test_stream), self._lengths[0]), dtype=np.float64
        )
        for member in self._members:
            if len(test_stream) < member.window_length:
                continue
            responses = member.score_stream(test_stream)
            np.maximum(
                combined[: len(responses)],
                responses,
                out=combined[: len(responses)],
            )
        return combined

    def _score_windows(self, windows: np.ndarray) -> np.ndarray:
        # A batch row is one window of the bank's (shortest) length:
        # only the shortest member can score it.
        return self._members[0].score_windows(windows)

    def member_responses(
        self, test_stream: Sequence[int] | np.ndarray
    ) -> dict[int, np.ndarray]:
        """Per-member response arrays, keyed by window length."""
        self._require_fitted()
        data = self._validated(test_stream)
        return {
            member.window_length: member.score_stream(data)
            for member in self._members
            if len(data) >= member.window_length
        }
