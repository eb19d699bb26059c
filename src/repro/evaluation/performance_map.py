"""Performance maps: detection coverage over (anomaly size x window).

A performance map is the grid behind Figures 3-6: for every anomaly
size ``AS`` and detector window ``DW``, the blind/weak/capable outcome
of one detector family on the suite's injected minimal foreign
sequence of that size, analyzed at that window.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass

from repro.datagen.suite import EvaluationSuite
from repro.detectors.base import AnomalyDetector
from repro.detectors.registry import create_detector
from repro.evaluation.scoring import DetectionOutcome, ResponseClass, score_injected
from repro.exceptions import EvaluationError

Cell = tuple[int, int]  # (anomaly_size, window_length)


@dataclass(frozen=True)
class CellResult:
    """One grid cell: a detector's outcome on one (AS, DW) case."""

    anomaly_size: int
    window_length: int
    outcome: DetectionOutcome

    @property
    def response_class(self) -> ResponseClass:
        """Shortcut to the cell's blind/weak/capable class."""
        return self.outcome.response_class


class PerformanceMap:
    """Detection-coverage grid for one detector family.

    Args:
        detector_name: family label (used by renders and reports).
        cells: mapping from (anomaly size, window length) to results.
    """

    def __init__(self, detector_name: str, cells: Mapping[Cell, CellResult]) -> None:
        if not cells:
            raise EvaluationError("a performance map requires at least one cell")
        self._detector_name = detector_name
        self._cells = dict(cells)
        self._anomaly_sizes = tuple(sorted({a for a, _w in self._cells}))
        self._window_lengths = tuple(sorted({w for _a, w in self._cells}))
        expected = len(self._anomaly_sizes) * len(self._window_lengths)
        if len(self._cells) != expected:
            raise EvaluationError(
                f"performance map is not a full grid: {len(self._cells)} cells "
                f"for {len(self._anomaly_sizes)} x {len(self._window_lengths)}"
            )

    @property
    def detector_name(self) -> str:
        """The detector family this map describes."""
        return self._detector_name

    @property
    def anomaly_sizes(self) -> tuple[int, ...]:
        """Anomaly sizes of the grid, ascending."""
        return self._anomaly_sizes

    @property
    def window_lengths(self) -> tuple[int, ...]:
        """Detector-window lengths of the grid, ascending."""
        return self._window_lengths

    def cell(self, anomaly_size: int, window_length: int) -> CellResult:
        """The result at one grid position.

        Raises:
            EvaluationError: for positions outside the evaluated grid.
        """
        try:
            return self._cells[(anomaly_size, window_length)]
        except KeyError:
            raise EvaluationError(
                f"cell (AS={anomaly_size}, DW={window_length}) outside the grid"
            ) from None

    def response_class(self, anomaly_size: int, window_length: int) -> ResponseClass:
        """The blind/weak/capable class at one grid position."""
        return self.cell(anomaly_size, window_length).response_class

    def __iter__(self) -> Iterator[CellResult]:
        for key in sorted(self._cells):
            yield self._cells[key]

    def __len__(self) -> int:
        return len(self._cells)

    def cells_in_class(self, response_class: ResponseClass) -> frozenset[Cell]:
        """Grid positions whose outcome is ``response_class``."""
        return frozenset(
            key
            for key, result in self._cells.items()
            if result.response_class is response_class
        )

    def capable_cells(self) -> frozenset[Cell]:
        """Positions where the detector registered a maximal response."""
        return self.cells_in_class(ResponseClass.CAPABLE)

    def blind_cells(self) -> frozenset[Cell]:
        """Positions where the anomaly was perceived as completely normal."""
        return self.cells_in_class(ResponseClass.BLIND)

    def weak_cells(self) -> frozenset[Cell]:
        """Positions with a non-maximal, nonzero response."""
        return self.cells_in_class(ResponseClass.WEAK)

    def detection_fraction(self) -> float:
        """Fraction of grid cells that are capable."""
        return len(self.capable_cells()) / len(self._cells)

    def spurious_alarm_total(self) -> int:
        """Total maximal responses outside incident spans across the grid."""
        return sum(result.outcome.spurious_alarms for result in self)

    def __repr__(self) -> str:
        return (
            f"PerformanceMap({self._detector_name!r}, "
            f"{len(self._anomaly_sizes)}x{len(self._window_lengths)}, "
            f"capable={len(self.capable_cells())})"
        )


DetectorFactory = Callable[[int], AnomalyDetector]


def build_performance_map(
    detector: str | DetectorFactory,
    suite: EvaluationSuite,
    **detector_kwargs: object,
) -> PerformanceMap:
    """Evaluate one detector family over the whole suite grid.

    The plain reference loop: for each window length a fresh detector
    is constructed and fitted once on the training stream, then
    deployed on every injected test stream — the paper's replication
    of the 8 test streams across the 14 window lengths.  It shares no
    cache, store or scheduler with anything, so tests and the figure
    benches use it as the bit-identity oracle for
    :class:`repro.runtime.SweepEngine`, the one place a sweep is
    configured, parallelised or checkpointed.

    Args:
        detector: a registered detector name, or a factory mapping a
            window length to an (unfitted) detector instance.
        suite: the evaluation corpus.
        **detector_kwargs: forwarded to the registry when ``detector``
            is a name (ignored for factories).

    Returns:
        The full-grid performance map.
    """
    alphabet_size = suite.training.alphabet.size
    if isinstance(detector, str):
        name = detector

        def factory(window_length: int) -> AnomalyDetector:
            return create_detector(
                name, window_length, alphabet_size, **detector_kwargs
            )

    else:
        factory = detector
        name = factory(min(suite.window_lengths)).name
    cells: dict[Cell, CellResult] = {}
    for window_length in suite.window_lengths:
        fitted = factory(window_length).fit(suite.training.stream)
        for anomaly_size in suite.anomaly_sizes:
            outcome = score_injected(fitted, suite.stream(anomaly_size))
            cells[(anomaly_size, window_length)] = CellResult(
                anomaly_size=anomaly_size,
                window_length=window_length,
                outcome=outcome,
            )
    return PerformanceMap(detector_name=name, cells=cells)
