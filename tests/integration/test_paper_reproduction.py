"""End-to-end reproduction of the paper's headline results.

These tests run the full experiment (Figures 3-6 plus the Sections 7-8
coverage analysis) on the reduced-scale corpus and assert the *shapes*
the paper reports.  They are the repository's ground truth: if one of
these fails, the reproduction is broken regardless of unit-test status.
"""

from __future__ import annotations

import pytest

from repro.datagen.suite import build_suite
from repro.datagen.training import generate_training_data
from repro.detectors.neural import NeuralDetector
from repro.ensemble.coverage import Coverage, coverage_gain
from repro.evaluation.experiment import run_paper_experiment
from repro.evaluation.scoring import ResponseClass
from repro.params import scaled_params
from repro.runtime.engine import SweepEngine


@pytest.fixture(scope="module")
def result(suite):
    """The full four-detector experiment (cached for the module)."""
    return run_paper_experiment(suite=suite)


class TestFigure3LaneBrodley:
    def test_blind_across_the_entire_space(self, result):
        """The L&B detector registers no maximal response anywhere."""
        lane_brodley = result.map_for("lane-brodley")
        assert len(lane_brodley.capable_cells()) == 0

    def test_close_to_normal_but_not_silent(self, result):
        """Section 7: L&B sees the MFS as *close to normal* — nonzero
        weak responses where the window reaches the anomaly."""
        lane_brodley = result.map_for("lane-brodley")
        assert len(lane_brodley.weak_cells()) > 0


class TestFigure4Markov:
    def test_capable_over_the_whole_grid(self, result):
        markov = result.map_for("markov")
        assert markov.detection_fraction() == 1.0

    def test_no_spurious_alarms(self, result):
        assert result.map_for("markov").spurious_alarm_total() == 0


class TestFigure5Stide:
    def test_capable_exactly_when_window_reaches_anomaly(self, result, suite):
        stide = result.map_for("stide")
        for anomaly_size in suite.anomaly_sizes:
            for window_length in suite.window_lengths:
                expected = (
                    ResponseClass.CAPABLE
                    if window_length >= anomaly_size
                    else ResponseClass.BLIND
                )
                assert (
                    stide.response_class(anomaly_size, window_length) is expected
                ), f"AS={anomaly_size}, DW={window_length}"

    def test_capable_cell_count(self, result):
        # For AS in 2..9 and DW in 2..15: sum(16 - AS) = 84 cells.
        assert len(result.map_for("stide").capable_cells()) == 84

    def test_no_spurious_alarms(self, result):
        assert result.map_for("stide").spurious_alarm_total() == 0


class TestFigure6NeuralNetwork:
    def test_mimics_the_markov_detector(self, result):
        neural = result.map_for("neural-network")
        markov = result.map_for("markov")
        assert neural.capable_cells() == markov.capable_cells()

    @pytest.mark.parametrize("seed", (1, 2))
    def test_mimics_the_markov_detector_at_other_seeds(self, params, seed):
        """Figure 6 is not an accident of one corpus: NN capable ==
        Markov capable on all 112 cells, with margin to the threshold."""
        training = generate_training_data(
            scaled_params(params.training_length, seed)
        )
        maps = SweepEngine(max_workers=1).sweep(
            ["markov", "neural-network"], build_suite(training=training)
        )
        neural, markov = maps["neural-network"], maps["markov"]
        assert len(markov.capable_cells()) == 112
        assert neural.capable_cells() == markov.capable_cells()
        threshold = 1.0 - NeuralDetector(2, 2).response_tolerance
        assert min(cell.outcome.max_in_span for cell in neural) > threshold
        assert neural.spurious_alarm_total() == 0


class TestDiversityConclusions:
    """Sections 7-8: the combination lessons."""

    def test_stide_coverage_strict_subset_of_markov(self, result):
        stide = Coverage.from_performance_map(result.map_for("stide"))
        markov = Coverage.from_performance_map(result.map_for("markov"))
        assert stide.is_strict_subset_of(markov)

    def test_stide_plus_lane_brodley_gains_nothing(self, result):
        stide = Coverage.from_performance_map(result.map_for("stide"))
        lane_brodley = Coverage.from_performance_map(
            result.map_for("lane-brodley")
        )
        assert coverage_gain(stide, lane_brodley) == frozenset()
        assert (stide | lane_brodley).cells == stide.cells

    def test_shared_blind_region_of_stide_and_lane_brodley(self, result):
        """Both are blind when DW < AS — the same region (Section 8)."""
        stide = Coverage.from_performance_map(result.map_for("stide"))
        lane_brodley = Coverage.from_performance_map(
            result.map_for("lane-brodley")
        )
        shared = stide.blind_region() & lane_brodley.blind_region()
        assert shared == stide.blind_region()

    def test_markov_plus_stide_gains_nothing_in_coverage(self, result):
        """The gain of that combination is false-alarm reduction, not
        coverage (Section 7) — Stide adds no cells to Markov."""
        stide = Coverage.from_performance_map(result.map_for("stide"))
        markov = Coverage.from_performance_map(result.map_for("markov"))
        assert coverage_gain(markov, stide) == frozenset()


class TestHypothesisRejected:
    def test_detectors_are_not_equally_capable(self, result):
        """The paper's hypothesis — all detectors equally capable — must
        fail: coverages differ across detector families."""
        fractions = {
            name: result.maps[name].detection_fraction() for name in result.maps
        }
        assert len(set(fractions.values())) > 1
