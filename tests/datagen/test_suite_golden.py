"""Golden suite digests and a per-window reference for the injection policy.

The digests were recorded from the tuple-dict n-gram store that
preceded the counting chain (DESIGN S53); the suite must stay
byte-identical.  The reference below is that store's plain per-window
policy loop, run against dict counts of the training stream.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.datagen import injection
from repro.datagen.injection import InjectionPolicy
from repro.datagen.suite import build_suite
from repro.datagen.training import generate_training_data
from repro.params import scaled_params

GOLDEN = {
    (60_000, 0): "c6642f9820b3a2539a463cdd223ada0fd4d7489eca75b0e16f03436c21331a9b",
    (60_000, 1): "0fcb1b03c1237d49b1a277c7e3d9d3492833a1cc140f1567922788ace853fe4e",
    (60_000, 2): "d229826accf4acb99967a30bfe825e083dcb863f874eee447bfce8e71c04730b",
    (60_000, 3): "397740824a4ad164f72efabec1e7284c9a9bc19bafa9f1a028b7a28fcff8bb5e",
    (60_000, 4): "3eb0c75c6dfb15f2ca0cab9591dcf589a71bb03f9de449e309186ccda26189a5",
    (120_000, 7): "50d3ec6385ab8041a9a64438cf3f0d8b977ad404bbd0052b563282f4656e4b6b",
}


def suite_digest(suite) -> str:
    """SHA-256 over every size's stream bytes, anomaly, position and phases."""
    digest = hashlib.sha256()
    for size in suite.anomaly_sizes:
        injected = suite.stream(size)
        fields = (
            size,
            injected.anomaly,
            injected.position,
            injected.left_phase,
            injected.right_phase,
            suite.anomaly(size),
        )
        digest.update(repr(fields).encode())
        digest.update(np.ascontiguousarray(injected.stream, dtype=np.int64).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize(("length", "seed"), sorted(GOLDEN))
def test_suite_matches_golden_digest(length: int, seed: int):
    training = generate_training_data(scaled_params(length, seed))
    assert suite_digest(build_suite(training=training)) == GOLDEN[(length, seed)]


def reference_reason(candidate, tables, training_length, policy) -> str | None:
    """The per-window policy loop: first failing start per length, in order."""
    stream = candidate.stream
    for window_length in policy.window_lengths:
        if len(stream) < window_length:
            return f"stream shorter than window length {window_length}"
        total = max(0, training_length - window_length + 1)
        for start in range(len(stream) - window_length + 1):
            overlap = candidate.window_overlap(start, window_length)
            if overlap == candidate.anomaly_size:
                continue  # the full anomaly: foreign by design
            window = tuple(stream[start : start + window_length].tolist())
            frequency = tables[window_length].get(window, 0) / total if total else 0.0
            if overlap == 0:
                if policy.require_common_outside and frequency < policy.rare_threshold:
                    kind = "foreign" if frequency == 0.0 else "rare"
                    return (
                        f"background window {window} at start {start} is {kind} "
                        f"(length {window_length})"
                    )
            elif policy.forbid_foreign_boundary and frequency == 0.0:
                return (
                    f"boundary window {window} at start {start} is foreign "
                    f"(length {window_length})"
                )
    return None


def test_verify_policy_matches_per_window_reference(training, monkeypatch):
    """Every phase pair tried while building a suite gets the reference's
    reason, rejections included; dirtied copies of some pairs get it too,
    under the default policy and with each check switched off."""
    tried = []

    def recording(candidate, store, policy):
        reason = verify(candidate, store, policy)
        tried.append((candidate, store, policy, reason))
        return reason

    verify = injection._verify_policy
    monkeypatch.setattr(injection, "_verify_policy", recording)
    build_suite(training=training)
    monkeypatch.undo()

    stream = training.stream
    view = np.lib.stride_tricks.sliding_window_view
    tables = {
        length: Counter(map(tuple, view(stream, length).tolist()))
        for length in training.params.window_sizes
    }
    reasons = [reason for _candidate, _store, _policy, reason in tried]
    assert len(tried) > 100
    assert None in reasons
    assert any(reason and reason.startswith("boundary") for reason in reasons)
    for candidate, store, policy, reason in tried:
        assert reason == reference_reason(candidate, tables, len(stream), policy)

    # The suite's backgrounds are clean cycle phases, so dirty one
    # element of every 8th candidate to reach the background checks.
    rng = np.random.default_rng(0)
    dirty = []
    for candidate, store, policy, _reason in tried[::8]:
        data = candidate.stream.copy()
        data[int(rng.integers(0, candidate.position - 1))] = rng.integers(0, 8)
        dirty.append((replace(candidate, stream=data), store, policy))
    kinds = set()
    for candidate, store, policy in dirty:
        variants = (
            policy,
            InjectionPolicy(policy.window_lengths, policy.rare_threshold,
                            require_common_outside=False),
            InjectionPolicy(policy.window_lengths, policy.rare_threshold,
                            forbid_foreign_boundary=False),
        )
        for variant in variants:
            reason = verify(candidate, store, variant)
            assert reason == reference_reason(candidate, tables, len(stream), variant)
            if reason is not None:
                kinds.add(reason.split(" is ")[1].split()[0] + " " + reason.split()[0])
    assert {"foreign background", "rare background", "foreign boundary"} <= kinds
