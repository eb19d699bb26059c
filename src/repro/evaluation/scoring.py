"""Incident-span scoring: blind, weak, capable (Section 5.5).

When a detector window slides over an injected anomaly, every window
containing at least one anomaly element — the *incident span* — may
produce a response influenced by the anomaly.  The paper classifies a
detector on an anomaly by the maximum response registered in the span:

* **blind** — the response is 0 for every sequence of the span: the
  anomaly is perceived as completely normal;
* **weak** — the maximum response is strictly between 0 and maximal:
  something abnormal was seen, but not with certainty;
* **capable** — at least one maximal response was registered.

"Maximal" honors the detector's ``response_tolerance`` (graded
detectors emit ``1 - epsilon`` for events they respond to maximally;
binary detectors use tolerance 0, i.e. exactly 1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.datagen.injection import InjectedStream
from repro.detectors.base import AnomalyDetector
from repro.exceptions import EvaluationError


class ResponseClass(enum.Enum):
    """The paper's three detection-capability classes, plus undefined.

    ``UNDEFINED`` marks grid cells outside the experiment's domain
    (anomaly size 1: a length-1 foreign-and-rare sequence cannot
    exist, Section 6).
    """

    BLIND = "blind"
    WEAK = "weak"
    CAPABLE = "capable"
    UNDEFINED = "undefined"

    @property
    def detects(self) -> bool:
        """Whether this class counts as a detection (a star in the maps)."""
        return self is ResponseClass.CAPABLE


def classify_response(max_response: float, tolerance: float = 0.0) -> ResponseClass:
    """Classify a maximum in-span response.

    Args:
        max_response: the largest response registered in the incident
            span; must lie in ``[0, 1]``.
        tolerance: responses at or above ``1 - tolerance`` are maximal.
    """
    if not 0.0 <= max_response <= 1.0:
        raise EvaluationError(
            f"responses must lie in [0, 1], got {max_response}"
        )
    if not 0.0 <= tolerance < 1.0:
        raise EvaluationError(f"tolerance must lie in [0, 1), got {tolerance}")
    if max_response >= 1.0 - tolerance:
        return ResponseClass.CAPABLE
    if max_response > 0.0:
        return ResponseClass.WEAK
    return ResponseClass.BLIND


@dataclass(frozen=True)
class DetectionOutcome:
    """A detector's scored encounter with one injected anomaly.

    Attributes:
        response_class: blind/weak/capable per the span maximum.
        max_in_span: maximum response inside the incident span.
        max_outside_span: maximum response outside the span (a nonzero
            value flags residual background sensitivity; a *maximal*
            value would be a spurious alarm, which the clean-injection
            policy is designed to preclude).
        span_start: first window index of the incident span.
        span_stop: one past the last window index of the span.
        spurious_alarms: number of maximal responses outside the span.
    """

    response_class: ResponseClass
    max_in_span: float
    max_outside_span: float
    span_start: int
    span_stop: int
    spurious_alarms: int

    @property
    def detected(self) -> bool:
        """Whether the anomaly registered a maximal response in the span."""
        return self.response_class.detects


def score_injected(
    detector: AnomalyDetector, injected: InjectedStream
) -> DetectionOutcome:
    """Deploy a fitted detector on an injected stream and score it.

    Args:
        detector: a fitted detector; its ``window_length`` defines the
            incident span and its ``response_tolerance`` the maximal
            criterion.
        injected: the test stream with injection metadata.

    Returns:
        The classified outcome.
    """
    responses = detector.score_stream(injected.stream)
    tolerance = detector.response_tolerance
    span = injected.incident_span(detector.window_length)
    if span.stop <= span.start:
        raise EvaluationError("incident span is empty; stream too short")
    in_span = responses[span.start : span.stop]
    outside = np.concatenate([responses[: span.start], responses[span.stop :]])
    max_in_span = float(in_span.max())
    max_outside = float(outside.max()) if len(outside) else 0.0
    spurious = int((outside >= 1.0 - tolerance).sum()) if len(outside) else 0
    return DetectionOutcome(
        response_class=classify_response(max_in_span, tolerance),
        max_in_span=max_in_span,
        max_outside_span=max_outside,
        span_start=span.start,
        span_stop=span.stop,
        spurious_alarms=spurious,
    )
