"""``serve``: a closed loop of scores and trains against ``repro serve``.

Set-up starts a real ``python -m repro serve`` subprocess with default
flags, trains 32 tenants (2 x 400 events each) over HTTP and scores
every (tenant, cell) once as warm-up.  The window is a closed loop from
this one process over 2 keep-alive connections, one coroutine each:
90% scores of 200-event streams on the loadgen cells (stide DW 4,
t-stide DW 6, markov DW 2) and 10% trains of 50 events, to seeded,
uniformly chosen tenants.  Tenant ``i`` is only ever addressed over
connection ``i % 2``, so each tenant's ops are ordered and the client
knows the training stream behind every score.

Verification runs after the window: every train digest must equal
``stream_digest`` of the events the client sent, and every score must
equal ``create_detector(...).fit(...).score_stream(...)`` bit for bit.
"""

from __future__ import annotations

import asyncio
import json
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

from child import Window
from common import Measured, pid_cpu_s, pid_peak_rss_mb, process_cpu_s, summarize
from repro.detectors.registry import create_detector
from repro.runtime.store import stream_digest

TENANTS = 32
CONNECTIONS = 2
PRETRAIN_CHUNKS = 2
PRETRAIN_EVENTS = 400
TRAIN_EVENTS = 50
SCORE_EVENTS = 200
TRAIN_SHARE = 0.1
ALPHABET = 8
CELLS = (("stide", 4), ("t-stide", 6), ("markov", 2))
READY_TIMEOUT_S = 60.0


def sticky_walk(rng: np.random.Generator, length: int) -> np.ndarray:
    """A seeded stream with learnable structure: +1 steps or random jumps."""
    step = rng.random(length) < 0.6
    jumps = rng.integers(0, ALPHABET, length)
    step[0] = False
    index = np.arange(length)
    last_jump = np.maximum.accumulate(np.where(step, 0, index))
    return (jumps[last_jump] + index - last_jump) % ALPHABET


class Connection:
    """One keep-alive HTTP/1.1 connection; responses framed by length."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.reader = self.writer = None

    async def request(self, method: str, path: str, body=None):
        payload = json.dumps(body).encode() if body is not None else b""
        wire = (
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n"
        ).encode() + payload
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(
                "127.0.0.1", self.port
            )
        self.writer.write(wire)
        await self.writer.drain()
        status = int((await self.reader.readline()).split()[1])
        length, close = 0, False
        while (line := await self.reader.readline()) not in (b"\r\n", b""):
            name, _, value = line.decode().partition(":")
            if name.lower() == "content-length":
                length = int(value)
            elif name.lower() == "connection":
                close = "close" in value.lower()
        data = json.loads(await self.reader.readexactly(length)) if length else {}
        if close:
            await self.close()
        return status, data

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except ConnectionError:
                pass
        self.reader = self.writer = None


@dataclass
class Op:
    tenant: int
    kind: str  # "score" | "train"
    cell: int
    events: np.ndarray
    version: int  # training chunks behind the score / after the train
    refit: bool = False
    status: int = 0
    data: dict | None = None
    start: float = 0.0
    end: float = 0.0


class Workload:
    def __init__(self, seed, workdir, spans, trace, doctor):
        self.seed = seed
        self.workdir = workdir
        self.spans = spans
        self.trace = trace
        self.doctor = doctor
        self.setup_ok = True
        self.info: dict = {}
        self.server = None
        self.loop = asyncio.new_event_loop()
        self.chunks: dict[int, list[np.ndarray]] = {t: [] for t in range(TENANTS)}
        self.last_scored: dict[tuple[int, int], int] = {}
        self.setup_ops: list[Op] = []
        self.ops: list[Op] = []

    # -- set-up --------------------------------------------------------------

    def setup(self) -> None:
        started = time.perf_counter()
        ready = self.workdir / "port"
        with open(self.workdir / "server.log", "wb") as log:
            self.server = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--state-dir", str(self.workdir / "state"),
                    "--ready-file", str(ready),
                ],
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        while not (ready.exists() and ready.read_text().endswith("\n")):
            if self.server.poll() is not None:
                raise RuntimeError("repro serve exited during start-up")
            if time.perf_counter() - started > READY_TIMEOUT_S:
                raise RuntimeError("repro serve did not become ready")
            time.sleep(0.005)
        port = int(ready.read_text())
        self.connections = [Connection(port) for _ in range(CONNECTIONS)]
        spawned = time.perf_counter()
        self.loop.run_until_complete(self._gather(self._pretrain))
        self.spawn_ready_s = spawned - started
        self.pretrain_s = time.perf_counter() - spawned
        self.loop.run_until_complete(self._gather(self._warm_up))
        self.stats_before = self._stats()

    async def _gather(self, phase) -> None:
        await asyncio.gather(*(phase(c) for c in range(CONNECTIONS)))

    async def _pretrain(self, connection: int) -> None:
        for tenant in range(connection, TENANTS, CONNECTIONS):
            for chunk in range(PRETRAIN_CHUNKS):
                rng = np.random.default_rng([self.seed, 0x7EA1, tenant, chunk])
                op = self._train_op(tenant, sticky_walk(rng, PRETRAIN_EVENTS))
                await self._send(connection, op)
                self.setup_ops.append(op)

    async def _warm_up(self, connection: int) -> None:
        for tenant in range(connection, TENANTS, CONNECTIONS):
            for cell in range(len(CELLS)):
                rng = np.random.default_rng([self.seed, 0x3A2, tenant, cell])
                op = self._score_op(tenant, cell, sticky_walk(rng, SCORE_EVENTS))
                await self._send(connection, op)
                self.setup_ops.append(op)

    def _stats(self) -> dict:
        status, data = self.loop.run_until_complete(
            self.connections[0].request("GET", "/v1/stats")
        )
        if status != 200:
            raise RuntimeError(f"GET /v1/stats answered {status}")
        return data

    # -- ops -----------------------------------------------------------------

    def _train_op(self, tenant: int, events: np.ndarray) -> Op:
        # The client appends now: ops on one tenant are serialized, and a
        # refused train is caught by verification, not hidden here.
        self.chunks[tenant].append(events)
        return Op(tenant, "train", -1, events, len(self.chunks[tenant]))

    def _score_op(self, tenant: int, cell: int, events: np.ndarray) -> Op:
        version = len(self.chunks[tenant])
        refit = self.last_scored.get((tenant, cell)) != version
        self.last_scored[(tenant, cell)] = version
        return Op(tenant, "score", cell, events, version, refit)

    def _next_op(self, rng: np.random.Generator, connection: int) -> Op:
        tenant = int(rng.integers(TENANTS // CONNECTIONS)) * CONNECTIONS + connection
        if rng.random() < TRAIN_SHARE:
            return self._train_op(tenant, sticky_walk(rng, TRAIN_EVENTS))
        cell = int(rng.integers(len(CELLS)))
        return self._score_op(tenant, cell, sticky_walk(rng, SCORE_EVENTS))

    async def _send(self, connection: int, op: Op) -> None:
        if op.kind == "train":
            body = {"events": op.events.tolist(), "alphabet_size": ALPHABET}
        else:
            family, window = CELLS[op.cell]
            body = {"family": family, "window": window, "events": op.events.tolist()}
        path = f"/v1/tenants/t{op.tenant:02d}/{op.kind}"
        op.start = time.perf_counter()
        try:
            op.status, op.data = await self.connections[connection].request(
                "POST", path, body
            )
        except (ConnectionError, asyncio.IncompleteReadError):
            # A lost connection fails this op; the next op reconnects.
            op.status, op.data = 599, None
            await self.connections[connection].close()
        op.end = time.perf_counter()

    async def _drive(self, connection: int, deadline: float, out: list) -> None:
        rng = np.random.default_rng([self.seed, 0x5E7E, connection])
        while time.perf_counter() < deadline:
            op = self._next_op(rng, connection)
            await self._send(connection, op)
            out.append(op)

    # -- window --------------------------------------------------------------

    def run(self, seconds: float) -> Window:
        per_connection: list[list[Op]] = [[] for _ in range(CONNECTIONS)]
        cpu_before = pid_cpu_s(self.server.pid)
        client_before = process_cpu_s()
        started = time.perf_counter()
        deadline = started + seconds

        async def drive_all() -> None:
            await asyncio.gather(
                *(
                    self._drive(c, deadline, per_connection[c])
                    for c in range(CONNECTIONS)
                )
            )

        self.loop.run_until_complete(drive_all())
        client_cpu = process_cpu_s() - client_before
        server_cpu = pid_cpu_s(self.server.pid) - cpu_before
        self.ops = sorted(
            (op for ops in per_connection for op in ops), key=lambda op: op.start
        )
        window = Window(
            latencies=[op.end - op.start for op in self.ops],
            traced=[self.trace and i % 2 == 0 for i in range(len(self.ops))],
            wall_s=max(op.end for op in self.ops) - started,
            cpu_s=server_cpu,
            peak_rss_mb=pid_peak_rss_mb(self.server.pid),
        )
        for i, traced in enumerate(window.traced):
            root = None
            if traced:
                op = self.ops[i]
                root = self.spans.add("op", op.start, op.end)
                if op.kind == "score" and op.status == 200:
                    elapsed = min(float(op.data["elapsed"]), op.end - op.start)
                    self.spans.add("pipeline", op.end - elapsed, op.end, root)
            window.roots.append(root)
        self.client_cpu_s = client_cpu
        self.stats_after = self._stats()
        return window

    # -- verification --------------------------------------------------------

    def verify(self, window: Window) -> list[bool]:
        if self.doctor == "score":
            last = next(op for op in reversed(self.ops) if op.kind == "score")
            if last.data and last.data.get("scores"):
                last.data["scores"][0] += 1.0
        references: dict = {}
        prefixes: dict = {}

        def prefix(tenant: int, version: int) -> np.ndarray:
            key = (tenant, version)
            if key not in prefixes:
                prefixes[key] = np.concatenate(self.chunks[tenant][:version])
            return prefixes[key]

        def verified(op: Op) -> bool:
            if op.status != 200 or op.data is None:
                return False
            if op.kind == "train":
                return op.data.get("digest") == stream_digest(
                    prefix(op.tenant, op.version)
                )
            key = (op.tenant, op.cell, op.version)
            if key not in references:
                family, dw = CELLS[op.cell]
                detector = create_detector(family, dw, ALPHABET)
                detector.fit(prefix(op.tenant, op.version))
                references[key] = detector
            expected = references[key].score_stream(op.events)
            got = np.asarray(op.data.get("scores", []), dtype=float)
            return got.shape == expected.shape and np.array_equal(got, expected)

        self.setup_ok = all(verified(op) for op in self.setup_ops)
        return [verified(op) for op in self.ops]

    # -- metrics -------------------------------------------------------------

    def layer_metrics(self, window: Window) -> dict:
        traced = [op for op, was in zip(self.ops, window.traced) if was]
        own = self.spans.self_times()
        scores = [op for op in traced if op.kind == "score" and op.status == 200]
        trains = [op for op in traced if op.kind == "train"]

        def latencies(ops):
            return [(op.end - op.start) * 1e3 for op in ops]

        outside = [
            own[root] * 1e3
            for op, root in zip(self.ops, window.roots)
            if root is not None and op.kind == "score" and op.status == 200
        ]
        before, after = self.stats_before["batch"], self.stats_after["batch"]
        flushes = sum(after["flushes"].values()) - sum(before["flushes"].values())
        occupied = (
            after["occupancy_mean"] * sum(after["flushes"].values())
            - before["occupancy_mean"] * sum(before["flushes"].values())
        )
        timeouts = after["flushes"].get("timeout", 0) - before["flushes"].get(
            "timeout", 0
        )
        return {
            "server.spawn_ready_s": Measured(self.spawn_ready_s, 1),
            "server.pretrain_s": Measured(self.pretrain_s, 1),
            "serve.score_p50_ms": summarize(latencies(scores), 0.5),
            "serve.score_p90_ms": summarize(latencies(scores), 0.9),
            "serve.train_p50_ms": summarize(latencies(trains), 0.5),
            "serve.train_p90_ms": summarize(latencies(trains), 0.9),
            "serve.score_refit_p50_ms": summarize(
                latencies([op for op in scores if op.refit]), 0.5
            ),
            "serve.score_cached_p50_ms": summarize(
                latencies([op for op in scores if not op.refit]), 0.5
            ),
            "serve.refit_scores": Measured(
                sum(op.refit for op in scores), len(scores)
            ),
            "pipeline.elapsed_p50_ms": summarize(
                [float(op.data["elapsed"]) * 1e3 for op in scores], 0.5
            ),
            "server.outside_pipeline_p50_ms": summarize(outside, 0.5),
            "batching.occupancy_mean": Measured(
                occupied / flushes if flushes else None, flushes
            ),
            "batching.timeout_flush_share": Measured(
                timeouts / flushes if flushes else None, flushes
            ),
            "batching.flushes": Measured(flushes, 1),
            "client.cpu_ms_per_op": Measured(
                self.client_cpu_s * 1e3 / window.ops, window.ops
            ),
        }

    def close(self) -> None:
        try:
            for connection in getattr(self, "connections", []):
                self.loop.run_until_complete(connection.close())
        finally:
            self.loop.close()
            if self.server is not None and self.server.poll() is None:
                # The state directory is thrown away, so no drain: SIGINT
                # would wait for the server's worker threads.
                self.server.terminate()
                try:
                    self.server.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    self.server.kill()
                    self.server.wait()
