"""Fits read from the distinct-window table: L&B, Hamming, histogram, NN.

Each of these families reduces its training streams to the distinct
windows (and, for the neural network, their counts).  Their fitted
states must hash to digests recorded before the table moved into the
base class, for one training stream and for three (one of them exactly
``DW`` long), with and without a window cache.  The histogram family
has no serialized state, so its normal histograms are hashed.

The neural network's weights depend on the host's BLAS, so its fits
are compared with a network trained, in the same process, on the
multi-stream merge the table replaced: ``np.unique`` over the stacked
per-stream rows plus a scatter-add of their counts.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.detectors.mlp import MlpConfig, NextSymbolMlp
from repro.detectors.neural import NeuralDetector
from repro.detectors.registry import create_detector
from repro.runtime import WindowCache
from repro.runtime.deltafit import fit_states_equal
from repro.sequences.windows import windows_array

FAMILIES = ("lane-brodley", "hamming", "histogram")


def _state(detector) -> dict[str, np.ndarray]:
    if detector.name == "histogram":
        return {"histograms": detector._normal_histograms}
    return detector.export_fit_state()


def _digest(states) -> str:
    digest = hashlib.sha256()
    for state in states:
        for name in sorted(state):
            array = np.ascontiguousarray(state[name])
            digest.update(name.encode())
            digest.update(array.dtype.str.encode())
            digest.update(repr(array.shape).encode())
            digest.update(array.tobytes())
    return digest.hexdigest()


def _streams(rng, alphabet_size: int, window: int, several: bool):
    if not several:
        return [rng.integers(0, alphabet_size, size=3000)]
    return [
        rng.integers(0, alphabet_size, size=300),
        rng.integers(0, alphabet_size, size=window),
        rng.integers(0, alphabet_size, size=170),
    ]


#: sha256 of the fitted states over DW 2..15 at AS 8, and at the
#: unpackable AS 32 / DW 13, for the seeded streams below.
#: L&B and Hamming store the same database, so their digests agree.
PINNED = {
    ("lane-brodley", "one"): (
        "e598f7e987f0f14439ff2064a0f4228598dc56cdfae96da1df40ed7f9d7602a4",
        "a0b9f8df26b57389643cec69deda853f18836ca20db2ff746dfc298b71c86688",
    ),
    ("lane-brodley", "three"): (
        "210e0be72fe5a8a232fb1a2f00464dca0aca81bae7124239c8d9f0ee3677976e",
        "aceb0f59aac9a461400dbfc61f27ac71c4c24bec5107287d0bc22d9df5ffd55d",
    ),
    ("histogram", "one"): (
        "922c300c35524adfa6f7f9ee8af995c268d369058227244f58c4e7073f7b6334",
        "69b18c336e3ba393b35cf7eef73f3116ebbc39f559a009cecab66e5832e4910f",
    ),
    ("histogram", "three"): (
        "a8c71c4600f5a452f90faaf2b25499ab47946c19b31d452c242d33b585877b1f",
        "435914c842e47ecb7110542f9c65fea7fafa203f56e3a4b4c91dc45ebe2d846b",
    ),
}
PINNED[("hamming", "one")] = PINNED[("lane-brodley", "one")]
PINNED[("hamming", "three")] = PINNED[("lane-brodley", "three")]


@pytest.mark.parametrize("streams", ("one", "three"))
@pytest.mark.parametrize("cached", (False, True), ids=("direct", "cached"))
@pytest.mark.parametrize("family", FAMILIES)
def test_fit_states_match_pinned_digests(family, cached, streams):
    rng = np.random.default_rng(20261020)
    several = streams == "three"
    cache = WindowCache() if cached else None
    states = []
    for window in range(2, 16):
        training = _streams(rng, 8, window, several)
        detector = create_detector(family, window, 8).attach_cache(cache)
        states.append(_state(detector.fit_many(training)))
    training = _streams(rng, 32, 13, several)
    corner = create_detector(family, 13, 32).attach_cache(cache)
    assert (
        _digest(states),
        _digest([_state(corner.fit_many(training))]),
    ) == PINNED[(family, streams)]


FAST = MlpConfig(hidden_units=8, epochs=25)


def _reference_network_state(streams, window: int, alphabet_size: int):
    """The NN fit on the ``np.unique`` + ``np.add.at`` merged table."""
    parts = [
        np.unique(windows_array(stream, window), axis=0, return_counts=True)
        for stream in streams
        if len(stream) >= window
    ]
    windows, inverse = np.unique(
        np.concatenate([rows for rows, _ in parts]),
        axis=0,
        return_inverse=True,
    )
    counts = np.zeros(len(windows), dtype=np.int64)
    np.add.at(counts, inverse.reshape(-1), np.concatenate([c for _, c in parts]))
    encoder = NeuralDetector(window, alphabet_size, config=FAST)
    network = NextSymbolMlp(
        input_dim=(window - 1) * alphabet_size,
        output_dim=alphabet_size,
        config=FAST,
    )
    loss = network.train(
        encoder._one_hot_contexts(windows[:, :-1]),
        windows[:, -1],
        counts.astype(float),
    )
    state = network.export_weights()
    state["final_loss"] = np.asarray(loss, dtype=np.float64)
    return state


@pytest.mark.parametrize("cached", (False, True), ids=("direct", "cached"))
def test_neural_fit_matches_the_merged_table_network(cached):
    rng = np.random.default_rng(20261020)
    for alphabet_size, window in ((5, 2), (8, 4), (8, 6), (32, 3)):
        for several in (False, True):
            training = _streams(rng, alphabet_size, window, several)
            detector = NeuralDetector(window, alphabet_size, config=FAST)
            if cached:
                detector.attach_cache(WindowCache())
            detector.fit_many(training)
            expected = _reference_network_state(training, window, alphabet_size)
            assert fit_states_equal(detector.export_fit_state(), expected), (
                f"AS={alphabet_size} DW={window} streams={len(training)}"
            )
