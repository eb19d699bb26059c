"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still being able to distinguish specific failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class AlphabetError(ReproError):
    """A symbol or encoding operation violated the alphabet contract.

    Raised when a symbol is not a member of an :class:`~repro.sequences.alphabet.Alphabet`,
    when an encoded value is out of range, or when an alphabet is constructed
    from invalid symbols (duplicates, empty symbol sets, ...).
    """


class WindowError(ReproError):
    """A sliding-window operation received an invalid window length.

    Window lengths must be positive and no longer than the stream they are
    applied to.
    """


class DataGenerationError(ReproError):
    """Synthetic data could not be generated with the requested properties.

    Raised, for example, when a Markov transition matrix does not define a
    proper probability distribution, or when a requested stream length is
    not positive.
    """


class AnomalySynthesisError(DataGenerationError):
    """No minimal foreign sequence with the requested properties exists.

    The search for a minimal foreign sequence composed of rare subsequences
    is exhaustive over the training corpus; this error signals that the
    corpus does not admit such a sequence for the requested anomaly size.
    """


class InjectionError(DataGenerationError):
    """An anomaly could not be cleanly injected into background data.

    The clean-injection procedure of Tan & Maxion requires every boundary
    window (a window mixing anomaly and background elements) to be a
    common training sequence.  When no injection site satisfies the policy
    this error is raised so the caller can re-draw the anomaly.
    """


class NotFittedError(ReproError):
    """A detector was asked to score data before being trained.

    Detectors follow a two-phase protocol: :meth:`fit` on training data,
    then :meth:`score`/:meth:`score_stream` on test data.
    """


class DetectorConfigurationError(ReproError):
    """A detector was constructed with invalid hyperparameters."""


class EvaluationError(ReproError):
    """An evaluation-harness operation received inconsistent inputs.

    Raised for malformed incident spans, test streams without injection
    metadata, or performance-map queries outside the evaluated grid.
    Within sweep execution this is the *fatal* side of the failure
    taxonomy: an :class:`EvaluationError` aborts a sweep immediately,
    whereas a :class:`TransientTaskError` is retried.
    """


class TransientTaskError(ReproError):
    """A sweep task failed in a way worth retrying.

    The retryable side of the sweep failure taxonomy: worker crashes,
    corrupt block results, and injected transient faults are wrapped in
    this class so the resilience layer re-attempts them under its retry
    budget.  Anything else that escapes a task is treated as fatal.
    """


class TaskTimeoutError(TransientTaskError):
    """A sweep task exceeded its wall-clock timeout.

    Raised (and retried) by the resilience layer when one
    (family, window) block runs past ``ResiliencePolicy.task_timeout``.
    On the process backend the hung worker is terminated; on the
    serial backend the attempt's watchdog thread is abandoned and a
    fresh attempt is scheduled.
    """


class CheckpointError(ReproError):
    """A sweep checkpoint file is missing, malformed, or inconsistent."""


class SweepAbortedError(EvaluationError):
    """A resilient sweep gave up after exhausting its recovery options.

    Raised when a task fails fatally or exhausts its retry budget.  The
    cells completed before the abort are already streamed to the
    checkpoint file (when one was configured), so a re-run with
    ``resume_from`` continues where the sweep stopped.  The partial
    :class:`~repro.runtime.resilience.RunReport` is attached as
    ``report`` (``None`` when unavailable).
    """

    def __init__(self, message: str, report: "object | None" = None) -> None:
        super().__init__(message)
        self.report = report


class TelemetryError(ReproError):
    """A telemetry trace file is unreadable or violates its schema.

    Raised by the trace readers/validators in
    :mod:`repro.runtime.telemetry` (``repro trace validate`` turns it
    into a nonzero exit code).  Never raised on the emission path —
    collecting telemetry must not be able to fail a sweep.
    """


class ServeError(ReproError):
    """A serving-layer operation failed.

    Base of the online scoring service's failure taxonomy
    (:mod:`repro.serve`).  Everything under it is an *explicit*
    failure: the service refuses or retries, it never silently
    degrades a score.
    """


class TenantRecoveryError(ServeError):
    """A tenant's persisted state could not be recovered faithfully.

    Raised when the write-ahead log is corrupt beyond the tolerated
    torn tail (mid-file damage, a sequence gap) or when the snapshot
    an already-compacted log depends on is unreadable.  The tenant is
    quarantined — scoring requests are refused with an advisory —
    rather than served from a state that might differ from what was
    acknowledged before the crash.
    """


class ScoreRefusal(ServeError):
    """The service declined to score a request — never a wrong score.

    The serving pipeline's only alternative to a correct score: over
    budget, invalid input, breaker open, queue saturated, a failed
    kernel call, or tenant quarantined.  Carries the HTTP status and a
    machine-readable advisory so clients can distinguish retryable
    refusals (429/503/504, honor ``retry_after``) from permanent ones
    (4xx).
    """

    def __init__(
        self,
        message: str,
        status: int = 503,
        reason: str = "refused",
        retry_after: float | None = None,
    ) -> None:
        super().__init__(message)
        self.status = int(status)
        self.reason = str(reason)
        self.retry_after = retry_after

    @property
    def retryable(self) -> bool:
        """Whether a client should retry (server-side, transient)."""
        return self.status in (429, 503, 504)


class PlanError(ReproError):
    """An experiment plan is malformed or cannot be executed.

    Raised by :mod:`repro.plans` when a plan file fails to parse, a
    stage references an unknown dependency, the stage graph contains a
    cycle, or a dispatch run violates its protocol (an unclaimable
    stage, a missing run directory).  Every message names the stage at
    fault — a bad plan must fail loudly at validation, never hang the
    DAG executor.
    """


class CoverageError(ReproError):
    """Coverage-algebra operands are incompatible.

    Coverage sets can only be combined when they were computed over the
    same (anomaly size x detector window) grid.
    """
