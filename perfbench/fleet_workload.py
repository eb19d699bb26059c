"""``fleet``: Zipf touches on 1,000 tenants through the tiered model store.

Wired as ``repro serve --models-dir`` wires it: a ``TenantStateStore``
over a 64-shard ``ShardedStore`` with a 1 MiB hot tier (below the
1,000-model working set), delta verification every 256 updates and
64 KiB WAL segments.  Set-up provisions every ``SyntheticFleet`` tenant
(open, ingest its training stream, fit its detector), compacts the
shards and runs one warm-up step of touches.  Each op is one touch:
``get`` -> ``validate_events`` -> ``ingest`` -> ``detector_for`` ->
``score_stream``.

Verification, after the window: the program's own telemetry must show
no cold refit and no delta divergence since set-up; every eighth op's
scores must equal a cold refit on the tenant's stream at that op; and
the exported fit state of a sample of touched tenants must equal a
cold refit under ``fit_states_equal``.
"""

from __future__ import annotations

import os
import time
from collections import Counter

import numpy as np

from child import closed_loop, layer_percentiles
from common import Measured
from repro.detectors.registry import create_detector
from repro.runtime.deltafit import fit_states_equal
from repro.runtime.shardstore import ShardedStore
from repro.runtime.store import ArtifactStore
from repro.runtime.telemetry import Telemetry, activated
from repro.serve.tenants import TenantStateStore
from repro.syscalls import FleetSpec, SyntheticFleet

TENANTS = 1_000
SHARDS = 64
HOT_CAP_BYTES = 1024 * 1024
DELTA_VERIFY_EVERY = 256
WAL_SEGMENT_BYTES = 64 * 1024
WINDOW = 6
#: Families dealt out by activity rank, so every seed gives the hottest
#: tenants the same families and only the streams change with the seed.
FAMILIES = ("stide", "t-stide", "markov")
TOUCHES_PER_STEP = 512
#: Warm-up touches use steps far from the window's, so batches differ.
WARM_UP_STEP = 1_000_000
#: Every this-many-th op has its scores checked against a cold refit.
SCORE_CHECK_EVERY = 8
FIT_STATE_SAMPLE = 32


def tenant_id(tenant: int) -> str:
    return f"t{tenant:06d}"


def tree_bytes(root) -> int:
    total = 0
    for directory, _dirs, files in os.walk(root):
        for name in files:
            try:
                total += os.stat(os.path.join(directory, name)).st_size
            except FileNotFoundError:
                pass
    return total


class Workload:
    def __init__(self, seed, workdir, spans, trace, doctor):
        self.seed = seed
        self.workdir = workdir
        self.spans = spans
        self.trace = trace
        self.doctor = doctor
        self.setup_ok = True
        self.info: dict = {}
        self.telemetry = Telemetry()
        self.failed: set[int] = set()
        self.checked: dict[int, tuple] = {}
        self.touched: list[int] = []

    def family(self, tenant: int) -> str:
        return self.families[tenant]

    def setup(self) -> None:
        self.fleet = SyntheticFleet(FleetSpec(tenants=TENANTS, seed=self.seed))
        by_rank = np.argsort(-self.fleet.activity_weights, kind="stable")
        self.families = [""] * TENANTS
        for rank, tenant in enumerate(by_rank):
            self.families[int(tenant)] = FAMILIES[rank % len(FAMILIES)]
        self.models = ShardedStore(
            self.workdir / "models",
            shards=SHARDS,
            hot_cap_bytes=HOT_CAP_BYTES,
            cold=ArtifactStore(self.workdir / "models" / "cold"),
        )
        self.store = TenantStateStore(
            self.workdir / "state",
            models=self.models,
            delta_verify_every=DELTA_VERIFY_EVERY,
            wal_segment_bytes=WAL_SEGMENT_BYTES,
        )
        clock = time.perf_counter
        opened = ingested = fitted = 0.0
        for tenant in range(TENANTS):
            t0 = clock()
            state = self.store.open(tenant_id(tenant), alphabet_size=8)
            t1 = clock()
            events = self.store.validate_events(
                self.fleet.training_stream(tenant), 8
            )
            self.store.ingest(state, events)
            t2 = clock()
            self.store.detector_for(state, self.family(tenant), WINDOW)
            t3 = clock()
            opened += t1 - t0
            ingested += t2 - t1
            fitted += t3 - t2
        t0 = clock()
        self.models.compact_all()
        self.provision = (opened, ingested, fitted, clock() - t0)
        self.step_tenants = {}
        with activated(self.telemetry):
            for tenant in self.fleet.sample_tenants(WARM_UP_STEP, TOUCHES_PER_STEP):
                tenant = int(tenant)
                self.touch(tenant, self.fleet.batch(tenant, WARM_UP_STEP), None)
        self.counters_before = self.counters()

    def counters(self) -> dict:
        return dict(self.telemetry.metrics.snapshot()["counters"])

    def touch(self, tenant: int, batch: np.ndarray, root: int | None):
        store = self.store
        if root is None:
            state = store.get(tenant_id(tenant))
            batch = store.validate_events(batch, 8)
            store.ingest(state, batch)
            detector = store.detector_for(state, self.family(tenant), WINDOW)
            return state, detector.score_stream(batch)
        span = self.spans.span
        with span("get", root):
            state = store.get(tenant_id(tenant))
        with span("validate", root):
            batch = store.validate_events(batch, 8)
        with span("ingest", root):
            store.ingest(state, batch)
        with span("detector_for", root):
            detector = store.detector_for(state, self.family(tenant), WINDOW)
        with span("score_stream", root):
            scores = detector.score_stream(batch)
        return state, scores

    # -- window --------------------------------------------------------------

    def prepare(self, index: int) -> tuple[int, np.ndarray]:
        step, slot = divmod(index, TOUCHES_PER_STEP)
        if step not in self.step_tenants:
            self.step_tenants = {
                step: self.fleet.sample_tenants(step, TOUCHES_PER_STEP)
            }
        tenant = int(self.step_tenants[step][slot])
        return tenant, self.fleet.batch(tenant, step)

    def op(self, index: int, inputs: tuple[int, np.ndarray], root: int | None) -> None:
        tenant, batch = inputs
        self.touched.append(tenant)
        try:
            state, scores = self.touch(tenant, batch, root)
        except Exception:
            self.failed.add(index)
            return
        if index % SCORE_CHECK_EVERY == 0:
            self.checked[index] = (tenant, batch, state.event_count, scores.copy())

    def run(self, seconds: float):
        self.bytes_before = tree_bytes(self.workdir) if self.trace else 0
        self.memory_before = self.store.memory_stats()
        with activated(self.telemetry):
            window = closed_loop(self, seconds, self.trace, self.spans)
        self.memory_after = self.store.memory_stats()
        self.bytes_after = tree_bytes(self.workdir) if self.trace else 0
        return window

    # -- verification --------------------------------------------------------

    def verify(self, window) -> list[bool]:
        ok = [index not in self.failed for index in range(window.ops)]
        if self.doctor == "score" and self.checked:
            scores = self.checked[max(self.checked)][3]
            scores[0] += 1.0
        for index, (tenant, batch, count, scores) in self.checked.items():
            state = self.store.get(tenant_id(tenant))
            reference = create_detector(self.family(tenant), WINDOW, 8)
            reference.fit(state.events[:count])
            expected = reference.score_stream(batch)
            ok[index] = ok[index] and np.array_equal(scores, expected)
        sample = [t for t, _ in Counter(self.touched).most_common(FIT_STATE_SAMPLE)]
        wrong_state = set()
        with activated(self.telemetry):
            for tenant in sample:
                state = self.store.get(tenant_id(tenant))
                served = self.store.detector_for(
                    state, self.family(tenant), WINDOW
                ).export_fit_state()
                if self.doctor == "fit" and tenant == sample[-1]:
                    served = {name: np.asarray(a) + 1 for name, a in served.items()}
                cold = create_detector(self.family(tenant), WINDOW, 8)
                cold.fit(state.events)
                if not fit_states_equal(served, cold.export_fit_state()):
                    wrong_state.add(tenant)
        after = self.counters()
        refits = after.get("serve.fit", 0) - self.counters_before.get("serve.fit", 0)
        diverged = after.get("serve.delta.diverged", 0)
        self.info.update(cold_refits=refits, diverged=diverged)
        if refits or diverged:
            return [False] * window.ops
        return [
            good and tenant not in wrong_state
            for good, tenant in zip(ok, self.touched)
        ]

    # -- metrics -------------------------------------------------------------

    def layer_metrics(self, window) -> dict:
        opened, ingested, fitted, compacted = self.provision
        before, after = self.memory_before, self.memory_after
        hot = {k: after["hot_tier"][k] - before["hot_tier"][k] for k in ("hits", "misses", "evictions")}
        lookups = hot["hits"] + hot["misses"]
        layers = {
            "tenants.provision_open_s": Measured(opened, TENANTS),
            "tenants.provision_ingest_s": Measured(ingested, TENANTS),
            "tenants.provision_fit_s": Measured(fitted, TENANTS),
            "shardstore.compact_all_s": Measured(compacted, 1),
            "shardstore.hot_hit_ratio": Measured(hot["hits"] / lookups, lookups),
            "shardstore.hot_lookups": Measured(lookups, 1),
            "shardstore.warm_hits": Measured(
                after["model_store"]["warm_hits"] - before["model_store"]["warm_hits"],
                window.ops,
            ),
            "shardstore.hot_evictions": Measured(hot["evictions"], window.ops),
            "shardstore.compactions": Measured(
                after["model_store"]["compactions"]
                - before["model_store"]["compactions"],
                window.ops,
            ),
            "wal.bytes_per_op": Measured(
                (self.bytes_after - self.bytes_before) / window.ops, window.ops
            ),
            "tenants.resident_bytes": Measured(after["tenants_resident_bytes"], 1),
        }
        layers.update(
            layer_percentiles(
                self.spans,
                {
                    "tenants.get_p50_ms": ("get", 0.5),
                    "tenants.validate_p50_ms": ("validate", 0.5),
                    "tenants.ingest_p50_ms": ("ingest", 0.5),
                    "tenants.ingest_p90_ms": ("ingest", 0.9),
                    "tenants.detector_for_p50_ms": ("detector_for", 0.5),
                    "tenants.detector_for_p90_ms": ("detector_for", 0.9),
                    "detectors.score_stream_p50_ms": ("score_stream", 0.5),
                },
            )
        )
        return layers

    def close(self) -> None:
        pass
