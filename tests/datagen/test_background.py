"""Tests for repro.datagen.background."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datagen.background import generate_background, verify_background_clean
from repro.exceptions import DataGenerationError


class TestGenerateBackground:
    def test_walks_the_cycle(self):
        assert generate_background(4, 6).tolist() == [0, 1, 2, 3, 0, 1]

    def test_phase_offsets_start(self):
        assert generate_background(4, 3, phase=2).tolist() == [2, 3, 0]

    def test_rejects_tiny_alphabet(self):
        with pytest.raises(DataGenerationError, match="alphabet_size"):
            generate_background(1, 10)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(DataGenerationError, match="positive"):
            generate_background(4, 0)

    def test_rejects_out_of_range_phase(self):
        with pytest.raises(DataGenerationError, match="phase"):
            generate_background(4, 10, phase=4)

    def test_every_transition_is_a_cycle_step(self):
        background = generate_background(8, 1000, phase=5)
        successors = (background[:-1] + 1) % 8
        assert np.array_equal(background[1:], successors)


class TestVerifyBackgroundClean:
    def test_clean_cycle_passes(self, training):
        background = generate_background(8, 300)
        store = training.analyzer.store_for(2, 5, 9)
        verify_background_clean(
            background, store, (2, 5, 9), training.params.rare_threshold
        )

    def test_every_phase_is_clean(self, training):
        store = training.analyzer.store_for(2, 7)
        for phase in range(8):
            background = generate_background(8, 100, phase=phase)
            verify_background_clean(
                background, store, (2, 7), training.params.rare_threshold
            )

    def test_foreign_window_rejected(self, training):
        corrupted = generate_background(8, 100)
        corrupted[50] = corrupted[49]  # repeat breaks the cycle: foreign pair
        store = training.analyzer.store_for(3)
        with pytest.raises(DataGenerationError, match="foreign"):
            verify_background_clean(
                corrupted, store, (3,), training.params.rare_threshold
            )

    def test_rare_window_rejected(self, training):
        # A jump pair exists in training but is rare; splicing one into
        # the background must be flagged.
        corrupted = generate_background(8, 100)
        source_state = int(corrupted[49])
        if source_state == 1:  # jumping from symbol 2 would be a cycle step
            source_state = int(corrupted[48])
            corrupted[49:] = 0  # simplify tail
        corrupted[50] = 2  # jump target; (source, 2) is rare in training
        # Re-lay the tail as a cycle so only the splice is suspicious.
        for i in range(51, len(corrupted)):
            corrupted[i] = (corrupted[i - 1] + 1) % 8
        store = training.analyzer.store_for(2)
        with pytest.raises(DataGenerationError, match="rare|foreign"):
            verify_background_clean(
                corrupted, store, (2,), training.params.rare_threshold
            )

    def test_short_background_skips_long_windows(self, training):
        background = generate_background(8, 3)
        store = training.analyzer.store_for(2, 9)
        # Window length 9 exceeds the stream; only length 2 is checked.
        verify_background_clean(
            background, store, (2, 9), training.params.rare_threshold
        )
