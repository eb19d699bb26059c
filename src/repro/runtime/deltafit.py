"""Delta-fit verification: streaming updates audited against cold refits.

The count-based families (Stide, t-Stide, Markov) support
:meth:`~repro.detectors.base.AnomalyDetector.update_batch`: the
windows of the appended tail are counted by one packed ``np.unique``
and folded into the sorted packed tables by bisection — the fold a
cold fit runs per training stream — at a cost proportional to the
batch.  The whole design rests on one claim —
the merged state is *bit-identical* to refitting cold on the full
stream — and this module is the audit for that claim.

:func:`verify_delta` fits a fresh clone of the detector on the full
accumulated stream and compares serialized states array for array.
The serving layer calls it periodically (``delta_verify_every``) and
the fleet benchmark samples it across the run; any divergence is
charged to the ``serve.delta.diverged`` counter, which both
``repro trace validate`` and the benchmark regression gate hold to
zero.  Verification costs one cold refit, which is exactly why it is a
sampled hook rather than a per-batch check.
"""

from __future__ import annotations

import numpy as np

from repro.detectors.base import AnomalyDetector

__all__ = ["fit_states_equal", "verify_delta"]


def fit_states_equal(
    left: dict[str, np.ndarray] | None,
    right: dict[str, np.ndarray] | None,
) -> bool:
    """Whether two serialized fit states are bit-identical.

    Equality is strict: same keys, and per array same dtype, shape and
    values.  ``None`` states (families without a serializable state)
    only equal ``None``.
    """
    if left is None or right is None:
        return left is None and right is None
    if set(left) != set(right):
        return False
    for name, array in left.items():
        a = np.asarray(array)
        b = np.asarray(right[name])
        if a.dtype != b.dtype or a.shape != b.shape:
            return False
        if not np.array_equal(a, b):
            return False
    return True


def verify_delta(
    detector: AnomalyDetector,
    full_stream: np.ndarray,
) -> bool:
    """Audit a delta-updated detector against a cold refit.

    Args:
        detector: a fitted detector whose state accumulated through
            :meth:`~repro.detectors.base.AnomalyDetector.update_batch`.
        full_stream: the complete training stream those updates
            reconstruct — the original fit stream plus every appended
            batch, in order.

    Returns:
        ``True`` when the detector's serialized state is bit-identical
        to fitting an unfitted clone on ``full_stream``.
    """
    twin = detector.clone_unfitted()
    twin.fit(np.asarray(full_stream))
    return fit_states_equal(detector.export_fit_state(), twin.export_fit_state())
