"""Boundary-clean anomaly injection (Section 5.4.2, Figure 2).

Randomly dropping an anomaly into background data is undesirable: the
elements of the anomaly interact with the background inside the sliding
detector window and can create *unintended* foreign or rare sequences at
the injection boundary.  The paper requires an injection for which every
window mixing anomaly and background elements is a sequence that exists
in the training data, and for which the background itself registers
nothing anomalous; when no such injection exists the anomaly is redrawn.

Because the background is a phase of the training cycle, the search
space is the pair of cycle phases flanking the anomaly.  The injector
tries all phase pairs and verifies the full policy on the composed
stream; this is the deterministic equivalent of the paper's brute-force
effort.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.datagen.background import generate_background
from repro.datagen.training import TrainingData
from repro.exceptions import EvaluationError, InjectionError
from repro.sequences.ngram_store import NgramStore


@dataclass(frozen=True)
class InjectionPolicy:
    """What a clean injection must guarantee, and at which window lengths.

    Attributes:
        window_lengths: every detector-window length the stream will be
            analyzed at; the policy is enforced for each.
        rare_threshold: the corpus rarity bound (windows entirely of
            background must be common, i.e. at or above it).
        require_common_outside: windows with no anomaly overlap must be
            common training sequences (the paper's clean-background
            requirement).
        forbid_foreign_boundary: windows overlapping the anomaly
            *partially* must exist in training.  Such windows are
            allowed to be rare — they necessarily inherit the rare
            context of the anomaly's parts — but a foreign boundary
            window would hand Stide a spurious detection and is
            rejected.
    """

    window_lengths: tuple[int, ...]
    rare_threshold: float
    require_common_outside: bool = True
    forbid_foreign_boundary: bool = True

    def __post_init__(self) -> None:
        if not self.window_lengths or min(self.window_lengths) < 2:
            raise InjectionError("policy requires window lengths >= 2")
        if not 0.0 < self.rare_threshold < 1.0:
            raise InjectionError(
                f"rare_threshold must lie in (0, 1), got {self.rare_threshold}"
            )


@dataclass(frozen=True)
class InjectedStream:
    """A test stream containing exactly one injected anomaly.

    Attributes:
        stream: the composed test data.
        anomaly: the injected sequence (alphabet codes).
        position: index of the anomaly's first element in ``stream``.
        left_phase: cycle code of the element preceding the anomaly.
        right_phase: cycle code of the element following the anomaly.
    """

    stream: np.ndarray = field(repr=False)
    anomaly: tuple[int, ...]
    position: int
    left_phase: int
    right_phase: int

    def __post_init__(self) -> None:
        if self.stream.ndim != 1:
            raise InjectionError("injected stream must be one-dimensional")
        size = len(self.anomaly)
        if not 0 <= self.position <= len(self.stream) - size:
            raise InjectionError(
                f"anomaly at position {self.position} (size {size}) does not fit "
                f"in a stream of length {len(self.stream)}"
            )
        actual = tuple(int(code) for code in
                       self.stream[self.position : self.position + size])
        if actual != self.anomaly:
            raise InjectionError("stream content at position disagrees with anomaly")

    @property
    def anomaly_size(self) -> int:
        """Length of the injected anomaly (the paper's ``AS``)."""
        return len(self.anomaly)

    def incident_span(self, window_length: int) -> range:
        """Window-start indices of the incident span for ``window_length``.

        The incident span comprises every window containing at least one
        element of the anomaly (Figure 2): starts from
        ``position - window_length + 1`` through ``position + AS - 1``,
        clipped to valid window starts.

        Raises:
            EvaluationError: if the stream has no window of that length.
        """
        last_start = len(self.stream) - window_length
        if last_start < 0:
            raise EvaluationError(
                f"stream of length {len(self.stream)} has no windows of "
                f"length {window_length}"
            )
        first = max(0, self.position - window_length + 1)
        last = min(last_start, self.position + self.anomaly_size - 1)
        return range(first, last + 1)

    def window_overlap(self, start: int, window_length: int) -> int:
        """Number of anomaly elements inside the window starting at ``start``."""
        lo = max(start, self.position)
        hi = min(start + window_length, self.position + self.anomaly_size)
        return max(0, hi - lo)

    def is_boundary_window(self, start: int, window_length: int) -> bool:
        """Whether the window mixes anomaly and background elements."""
        overlap = self.window_overlap(start, window_length)
        return 0 < overlap < min(window_length, self.anomaly_size) or (
            0 < overlap == self.anomaly_size < window_length
        )


def _verify_policy(
    candidate: InjectedStream, store: NgramStore, policy: InjectionPolicy
) -> str | None:
    """Return a rejection reason, or None if the stream satisfies the policy.

    The reason names the first failing window start of the first
    failing length, in ``policy.window_lengths`` order.  One walk up
    the store's chain counts every window at every length at once.
    """
    stream = candidate.stream
    position, size = candidate.position, candidate.anomaly_size
    counts = store.window_counts(
        stream, *(length for length in policy.window_lengths if length <= len(stream))
    )
    for window_length in policy.window_lengths:
        if len(stream) < window_length:
            return f"stream shorter than window length {window_length}"
        found, total = counts[window_length], store.total(window_length)
        frequency = found / total if total else np.zeros(len(found))
        starts = np.arange(len(frequency))
        ends = np.minimum(starts + window_length, position + size)
        overlap = np.maximum(ends - np.maximum(starts, position), 0)
        background = overlap == 0
        failing = np.zeros(len(starts), dtype=bool)
        if policy.require_common_outside:
            failing |= background & (frequency < policy.rare_threshold)
        if policy.forbid_foreign_boundary:
            # A window holding the full anomaly is foreign by design.
            failing |= ~background & (overlap != size) & (frequency == 0.0)
        hits = np.flatnonzero(failing)
        if not len(hits):
            continue
        start = int(hits[0])
        window = tuple(int(code) for code in stream[start : start + window_length])
        if background[start]:
            kind = "foreign" if frequency[start] == 0.0 else "rare"
            return (
                f"background window {window} at start {start} is {kind} "
                f"(length {window_length})"
            )
        return (
            f"boundary window {window} at start {start} is foreign "
            f"(length {window_length})"
        )
    return None


def inject_anomaly(
    anomaly: tuple[int, ...] | list[int],
    training: TrainingData,
    policy: InjectionPolicy,
    stream_length: int = 1000,
    position: int | None = None,
) -> InjectedStream:
    """Compose a test stream with one boundary-clean injected anomaly.

    The stream is ``background-prefix + anomaly + background-suffix``
    where the prefix and suffix are phases of the training cycle.  All
    flanking phase pairs are tried in deterministic order; the first
    composition satisfying ``policy`` at every window length wins.

    Args:
        anomaly: the sequence to inject (alphabet codes).
        training: the corpus defining foreignness/rarity.
        policy: the cleanliness requirements.
        stream_length: total length of the composed test stream.
        position: index for the anomaly's first element; defaults to the
            center of the stream.

    Raises:
        InjectionError: if the anomaly does not fit, or no phase pair
            yields a clean injection (the caller should redraw the
            anomaly, as the paper does).
    """
    sequence = tuple(int(code) for code in anomaly)
    if len(sequence) < 1:
        raise InjectionError("cannot inject an empty anomaly")
    size = len(sequence)
    max_window = max(policy.window_lengths)
    if position is None:
        position = (stream_length - size) // 2
    prefix_length = position
    suffix_length = stream_length - size - position
    if prefix_length < max_window or suffix_length < max_window:
        raise InjectionError(
            f"anomaly of size {size} at position {position} leaves less than one "
            f"max-length window ({max_window}) of background on a side"
        )
    alphabet_size = training.alphabet.size
    store = training.analyzer.store_for(*policy.window_lengths)
    failures: list[str] = []
    for left_end in range(alphabet_size):
        # Prefix is the cycle segment ending at code ``left_end``.
        left_phase = (left_end - (prefix_length - 1)) % alphabet_size
        prefix = generate_background(alphabet_size, prefix_length, phase=left_phase)
        for right_start in range(alphabet_size):
            suffix = generate_background(alphabet_size, suffix_length, phase=right_start)
            stream = np.concatenate(
                [prefix, np.asarray(sequence, dtype=np.int64), suffix]
            )
            candidate = InjectedStream(
                stream=stream,
                anomaly=sequence,
                position=position,
                left_phase=left_end,
                right_phase=right_start,
            )
            reason = _verify_policy(candidate, store, policy)
            if reason is None:
                return candidate
            failures.append(
                f"phases (end={left_end}, start={right_start}): {reason}"
            )
    raise InjectionError(
        f"no clean injection exists for anomaly {sequence}; tried "
        f"{alphabet_size * alphabet_size} phase pairs. Last failure: {failures[-1]}"
    )


def inject_randomly(
    anomaly: tuple[int, ...] | list[int],
    training: TrainingData,
    stream_length: int,
    rng: np.random.Generator,
    margin: int = 16,
) -> InjectedStream:
    """Inject without boundary checks (the ablation baseline, E12).

    Picks a uniformly random position and random flanking phases.  The
    result generally violates the clean-injection policy, producing the
    spurious boundary anomalies the paper warns about.
    """
    sequence = tuple(int(code) for code in anomaly)
    size = len(sequence)
    if stream_length < size + 2 * margin:
        raise InjectionError(
            f"stream length {stream_length} too short for anomaly of size {size} "
            f"with margin {margin}"
        )
    alphabet_size = training.alphabet.size
    position = int(rng.integers(margin, stream_length - size - margin + 1))
    prefix = generate_background(
        alphabet_size, position, phase=int(rng.integers(alphabet_size))
    )
    suffix = generate_background(
        alphabet_size,
        stream_length - size - position,
        phase=int(rng.integers(alphabet_size)),
    )
    stream = np.concatenate([prefix, np.asarray(sequence, dtype=np.int64), suffix])
    return InjectedStream(
        stream=stream,
        anomaly=sequence,
        position=position,
        left_phase=int(stream[position - 1]),
        right_phase=int(stream[position + size]),
    )
