"""Zero-copy shared-memory transport for sweep suites.

Every process-backend sweep task needs the same handful of large
arrays: the training stream and one injected test stream per anomaly
size.  Pickling them into each task repeats megabytes of payload per
(family, window) block — pure serialization overhead, since the arrays
are immutable for the whole sweep.  This module materializes them
exactly once:

* :class:`WindowArena` — the parent-side owner.  ``publish`` copies an
  array into a named ``multiprocessing.shared_memory`` segment (one
  copy, ever) and returns a picklable :class:`ArrayDescriptor`;
  segments are refcounted per source array and unlinked on ``release``
  or ``close``.
* :class:`ArrayDescriptor` — the wire format.  A task ships only
  ``(name, shape, dtype)`` — tens of bytes — instead of the array.
* :func:`attach_array` — the worker side.  Attaches the named segment
  (once per process; later descriptors for the same name reuse the
  mapping) and reconstructs a read-only ``np.ndarray`` view directly
  over the shared pages: zero copies, zero pickling.
* :class:`SharedSuite` / :func:`share_suite` — an
  :class:`~repro.datagen.suite.EvaluationSuite` flattened to
  descriptors plus its small scalar metadata; ``restore`` rebuilds a
  real suite through the ordinary constructors (validation included),
  memoized per process so every task in a worker sees the *same*
  stream objects — which is what makes a worker-wide
  :class:`~repro.runtime.cache.WindowCache` (keyed by array identity)
  effective across tasks.

Only the process backend publishes an arena.  When shared memory is
unavailable (platform, permissions) or publishing fails, the process
tasks carry the pickled suite instead; the serial backend never
involves the arena (its blocks run in the parent's address space).

**Resource-tracker note.**  Attaching a segment registers it with the
``multiprocessing`` resource tracker as if the attaching process owned
it (bpo-39959).  One tracker process serves the whole fork tree and
keys segments by name, so the workers' registrations collapse into the
parent's own and the parent's explicit ``unlink`` clears the single
entry.  Workers deliberately do *not* unregister: concurrent
unregisters from several workers race inside the tracker (KeyError
noise), while the redundant registrations are harmless — and double as
a safety net that unlinks the segments if the parent dies without
cleaning up.
"""

from __future__ import annotations

import atexit
import itertools
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from repro.datagen.injection import InjectedStream
from repro.datagen.suite import EvaluationSuite
from repro.datagen.training import TrainingData
from repro.exceptions import EvaluationError
from repro.runtime import telemetry

try:  # pragma: no cover - import succeeds on all supported platforms
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover - exotic platforms only
    shared_memory = None  # type: ignore[assignment]

#: Prefix of every segment this module creates.  Leak tests (and
#: operators) can audit ``/dev/shm`` for stragglers by this name.
SEGMENT_PREFIX = "repro-arena"

_SEGMENT_IDS = itertools.count()


@dataclass(frozen=True)
class ArrayDescriptor:
    """The wire format of one published array.

    What a sweep task ships instead of the array itself: the shared
    segment's ``name`` plus the ``shape`` and ``dtype`` needed to
    reconstruct the ``np.ndarray`` view on the worker side.
    """

    name: str
    shape: tuple[int, ...]
    dtype: str

    @property
    def nbytes(self) -> int:
        """Size of the described array's data in bytes."""
        count = 1
        for extent in self.shape:
            count *= int(extent)
        return count * np.dtype(self.dtype).itemsize


def _destroy_segment(segment: "shared_memory.SharedMemory") -> None:
    """Close and unlink one owned segment, swallowing teardown races."""
    try:
        segment.close()
    except Exception:  # teardown must not raise
        pass
    try:
        segment.unlink()
    except Exception:  # already unlinked is fine
        pass


_AVAILABLE: bool | None = None


class WindowArena:
    """Parent-side owner of the sweep's shared-memory segments.

    One arena serves one sweep: the engine publishes the suite's
    arrays before submitting tasks and closes the arena — unlinking
    every segment — in a ``finally`` that also covers aborted sweeps.

    Publishing is refcounted by source-array identity: publishing the
    same array again returns the existing descriptor and bumps its
    count; :meth:`release` unlinks the segment only when the count
    reaches zero (this is what lets :meth:`WindowCache.evict
    <repro.runtime.cache.WindowCache.evict>` release a stream's
    segments without tearing down co-published ones).
    """

    def __init__(self) -> None:
        if shared_memory is None:  # pragma: no cover - exotic platforms
            raise EvaluationError("shared memory is unavailable on this platform")
        self._lock = threading.Lock()
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        self._descriptors: dict[str, ArrayDescriptor] = {}
        #: id(source array) -> (segment name, refcount)
        self._published: dict[int, tuple[str, int]] = {}
        #: Pin published arrays so their id() stays valid for our life.
        self._arrays: dict[int, np.ndarray] = {}
        self._closed = False

    @staticmethod
    def available() -> bool:
        """Whether this platform supports named shared-memory segments.

        Probes by actually creating (and immediately destroying) a
        minimal segment; the verdict is cached for the process.
        """
        global _AVAILABLE
        if _AVAILABLE is None:
            if shared_memory is None:  # pragma: no cover
                _AVAILABLE = False
            else:
                try:
                    probe = shared_memory.SharedMemory(
                        name=f"{SEGMENT_PREFIX}-probe-{os.getpid()}",
                        create=True,
                        size=1,
                    )
                except Exception:  # any failure means "no"
                    _AVAILABLE = False
                else:
                    _destroy_segment(probe)
                    _AVAILABLE = True
        return _AVAILABLE

    def __len__(self) -> int:
        with self._lock:
            return len(self._segments)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    def segment_names(self) -> tuple[str, ...]:
        """Names of the currently live segments (for tests/audits)."""
        with self._lock:
            return tuple(self._segments)

    def publish(self, array: np.ndarray) -> ArrayDescriptor:
        """Copy ``array`` into a shared segment (once) and describe it.

        Repeat publications of the same array (by identity) return the
        existing descriptor with its refcount bumped.

        Raises:
            EvaluationError: when the arena is already closed.
        """
        with self._lock:
            if self._closed:
                raise EvaluationError("cannot publish into a closed arena")
            key = id(array)
            held = self._published.get(key)
            if held is not None:
                name, refs = held
                self._published[key] = (name, refs + 1)
                return self._descriptors[name]
            data = np.ascontiguousarray(array)
            name = f"{SEGMENT_PREFIX}-{os.getpid()}-{next(_SEGMENT_IDS)}"
            segment = shared_memory.SharedMemory(
                name=name, create=True, size=max(1, data.nbytes)
            )
            try:
                view = np.ndarray(data.shape, dtype=data.dtype, buffer=segment.buf)
                view[...] = data
                del view  # drop the buffer export before any later close()
            except Exception:
                _destroy_segment(segment)
                raise
            descriptor = ArrayDescriptor(
                name=name, shape=tuple(data.shape), dtype=str(data.dtype)
            )
            self._segments[name] = segment
            self._descriptors[name] = descriptor
            self._published[key] = (name, 1)
            self._arrays[key] = array
            return descriptor

    def release(self, array: np.ndarray) -> bool:
        """Drop one reference to ``array``'s segment; unlink at zero.

        Returns:
            ``True`` when the segment was actually destroyed.  Unknown
            arrays are a no-op (``False``) — callers like the window
            cache release unconditionally on evict.
        """
        with self._lock:
            key = id(array)
            held = self._published.get(key)
            if held is None:
                return False
            name, refs = held
            if refs > 1:
                self._published[key] = (name, refs - 1)
                return False
            del self._published[key]
            del self._arrays[key]
            segment = self._segments.pop(name)
            del self._descriptors[name]
        _destroy_segment(segment)
        return True

    def close(self) -> None:
        """Unlink every live segment.  Idempotent; never raises."""
        with self._lock:
            self._closed = True
            segments = list(self._segments.values())
            self._segments.clear()
            self._descriptors.clear()
            self._published.clear()
            self._arrays.clear()
        for segment in segments:
            _destroy_segment(segment)


# -- worker side -------------------------------------------------------------

_ATTACH_LOCK = threading.Lock()
#: segment name -> (mapping, reconstructed view); one attach per process.
_ATTACHED: dict[str, tuple["shared_memory.SharedMemory", np.ndarray]] = {}
#: restore() memo: segment-name tuple -> the reconstructed suite.
_RESTORED: dict[tuple[str, ...], EvaluationSuite] = {}


def attach_array(descriptor: ArrayDescriptor) -> np.ndarray:
    """A zero-copy, read-only view of a published array.

    The named segment is mapped at most once per process; every later
    descriptor naming it reuses the same ``np.ndarray`` object, giving
    the arrays stable identity across tasks (which the worker-wide
    window cache keys on).
    """
    if shared_memory is None:  # pragma: no cover - exotic platforms
        raise EvaluationError("shared memory is unavailable on this platform")
    with _ATTACH_LOCK:
        held = _ATTACHED.get(descriptor.name)
        if held is not None:
            return held[1]
        segment = shared_memory.SharedMemory(name=descriptor.name)
        array: np.ndarray = np.ndarray(
            descriptor.shape, dtype=np.dtype(descriptor.dtype), buffer=segment.buf
        )
        array.flags.writeable = False
        _ATTACHED[descriptor.name] = (segment, array)
        return array


def detach_all() -> None:
    """Drop every attachment and restored suite in this process.

    Registered via ``atexit`` so worker shutdown closes its mappings;
    also the test hook for simulating a fresh worker.  Close failures
    (live buffer exports at interpreter teardown) are swallowed — the
    mappings die with the process either way, and the segments
    themselves are the parent's to unlink.
    """
    with _ATTACH_LOCK:
        held = list(_ATTACHED.values())
        _ATTACHED.clear()
        _RESTORED.clear()
    for segment, _array in held:
        try:
            segment.close()
        except Exception:  # teardown must not raise
            pass


atexit.register(detach_all)


# -- suite transport ---------------------------------------------------------


@dataclass(frozen=True)
class SharedCase:
    """One injected test stream, flattened to a descriptor + scalars."""

    anomaly_size: int
    stream: ArrayDescriptor
    anomaly: tuple[int, ...]
    position: int
    left_phase: int
    right_phase: int


@dataclass(frozen=True)
class SharedTable:
    """One derived training decomposition, flattened to descriptors.

    The (rows, inverse, counts) unique-window decomposition of the
    training stream at one window length — the table every detector
    family's fit reduces to.  Publishing the *derived* tables, not
    just the raw streams, means process workers never redo the
    training sort: they attach the parent's arrays and seed their
    worker-global cache (see :meth:`SharedSuite.restore`).
    """

    window_length: int
    rows: ArrayDescriptor
    inverse: ArrayDescriptor
    counts: ArrayDescriptor


@dataclass(frozen=True)
class SharedSuite:
    """An :class:`EvaluationSuite` flattened for descriptor transport.

    The wire format of a zero-copy sweep task: the large arrays (the
    training stream, each injected test stream, and optionally the
    training stream's derived unique-window tables) travel as
    :class:`ArrayDescriptor` names; everything else — alphabet,
    generating source, parameters, synthesized anomalies, injection
    scalars — is small and pickles as-is.
    """

    alphabet: object
    source: object
    params: object
    training_stream: ArrayDescriptor
    anomalies: dict[int, object] = field(repr=False)
    cases: tuple[SharedCase, ...] = ()
    training_tables: tuple[SharedTable, ...] = ()

    def descriptors(self) -> tuple[ArrayDescriptor, ...]:
        """Every array descriptor the transport references."""
        described = [self.training_stream]
        described.extend(case.stream for case in self.cases)
        for table in self.training_tables:
            described.extend((table.rows, table.inverse, table.counts))
        return tuple(described)

    def restore(self, cache: "object | None" = None) -> EvaluationSuite:
        """Rebuild a real suite over zero-copy shared views.

        Reconstruction goes through the ordinary
        :class:`TrainingData`/:class:`InjectedStream`/:class:`EvaluationSuite`
        constructors, so their validation applies unchanged.  The
        result is memoized per process: every task of a worker sees
        the same suite object, hence the same stream identities.

        Args:
            cache: a :class:`~repro.runtime.cache.WindowCache` to
                credit — each descriptor served from the arena counts
                as a cache *hit* (the artifact existed and was reused;
                nothing was recomputed).
        """
        with telemetry.span("arena", "restore"):
            return self._restore(cache)

    def _restore(self, cache: "object | None") -> EvaluationSuite:
        key = tuple(descriptor.name for descriptor in self.descriptors())
        with _ATTACH_LOCK:
            suite = _RESTORED.get(key)
        if suite is None:
            training = TrainingData(
                stream=attach_array(self.training_stream),
                alphabet=self.alphabet,
                source=self.source,
                params=self.params,
            )
            streams = {
                case.anomaly_size: InjectedStream(
                    stream=attach_array(case.stream),
                    anomaly=case.anomaly,
                    position=case.position,
                    left_phase=case.left_phase,
                    right_phase=case.right_phase,
                )
                for case in self.cases
            }
            suite = EvaluationSuite(
                training=training,
                anomalies=dict(self.anomalies),
                streams=streams,
            )
            with _ATTACH_LOCK:
                suite = _RESTORED.setdefault(key, suite)
        if cache is not None:
            if self.training_tables:
                training_stream = suite.training.stream
                for table in self.training_tables:
                    cache.seed_decomposition(  # type: ignore[attr-defined]
                        training_stream,
                        table.window_length,
                        attach_array(table.rows),
                        attach_array(table.inverse),
                        attach_array(table.counts),
                    )
            cache.credit(len(key))  # type: ignore[attr-defined]
        return suite


def share_suite(
    arena: WindowArena,
    suite: EvaluationSuite,
    cache: "object | None" = None,
    window_lengths: tuple[int, ...] = (),
) -> SharedSuite:
    """Publish a suite's arrays into ``arena`` and build its transport.

    Args:
        arena: the parent-side segment owner.
        suite: the suite to flatten.
        cache: a :class:`~repro.runtime.cache.WindowCache` through
            which to derive the training stream's unique-window
            decompositions (they come from its incremental training
            index, one counting pass per order of the DW axis).
        window_lengths: the sweep's window lengths; with ``cache``
            given, each length's (rows, inverse, counts) tables are
            published as :class:`SharedTable` entries so workers skip
            the training index build entirely.
    """
    with telemetry.span("arena", "publish"):
        return _share_suite(arena, suite, cache, window_lengths)


def _share_suite(
    arena: WindowArena,
    suite: EvaluationSuite,
    cache: "object | None",
    window_lengths: tuple[int, ...],
) -> SharedSuite:
    cases = []
    for anomaly_size in suite.anomaly_sizes:
        injected = suite.stream(anomaly_size)
        cases.append(
            SharedCase(
                anomaly_size=anomaly_size,
                stream=arena.publish(injected.stream),
                anomaly=injected.anomaly,
                position=injected.position,
                left_phase=injected.left_phase,
                right_phase=injected.right_phase,
            )
        )
    training_stream = suite.training.stream
    tables = []
    if cache is not None:
        for window_length in sorted(set(window_lengths)):
            if window_length > len(training_stream):
                continue
            rows, inverse = cache.unique(  # type: ignore[attr-defined]
                training_stream, window_length
            )
            _rows, counts = cache.unique_counts(  # type: ignore[attr-defined]
                training_stream, window_length
            )
            tables.append(
                SharedTable(
                    window_length=window_length,
                    rows=arena.publish(rows),
                    inverse=arena.publish(inverse),
                    counts=arena.publish(counts),
                )
            )
    return SharedSuite(
        alphabet=suite.training.alphabet,
        source=suite.training.source,
        params=suite.training.params,
        training_stream=arena.publish(training_stream),
        anomalies={size: suite.anomaly(size) for size in suite.anomaly_sizes},
        cases=tuple(cases),
        training_tables=tuple(tables),
    )
