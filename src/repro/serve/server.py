"""Asyncio multi-tenant scoring server (stdlib only, no frameworks).

A deliberately small HTTP/1.1 server over ``asyncio`` streams — the
repository takes no web-framework dependency for the same reason it
takes no others: the serving layer must be auditable end to end.

Request path for tenant operations::

    HTTP parse → route → breaker.admit → lane.submit   (429 when full)
      lane worker: deadline check → chaos hooks →
        train: validate → WAL append → ingest → snapshot   (inline)
        score: hand off to the batch scheduler → fused
               kernel call per group                        (batcher)

Every tenant operation runs on the event-loop thread.  Trains run
inline in their lane job; scores go through the cross-tenant
micro-batcher (:mod:`repro.serve.batching`), which fuses queued jobs
from many lanes into one kernel call per (family, window, alphabet)
group.  The detectors are table lookups over short windows, so at
serving size a score or an ingest costs less than a hand-off to a
worker thread would.  The price is that a long operation — an
fsync'd WAL append (``fsync=True``) or a cold fit — blocks the loop
for its duration.  Per-tenant order is serial because each lane
awaits its job's outcome before taking the next.

Connections are **keep-alive** by default (HTTP/1.1): a client may
pipeline any number of requests over one connection; the server
closes on ``Connection: close``, on any error status, or after
``keepalive_timeout`` idle seconds.  Reuses are counted in telemetry
(``serve.http.keepalive_reuse``).

Endpoints::

    GET  /healthz                      liveness (always 200)
    GET  /readyz                       readiness (503 until recovered,
                                       and again after /drain)
    POST /drain                        stop admitting, finish queues
    GET  /v1/stats                     lanes, breakers, chaos, recovery
    GET  /v1/tenants/<id>              tenant metadata + state digest
    POST /v1/tenants/<id>/train        append training events
    POST /v1/tenants/<id>/score        score a test stream

Every refusal is an explicit JSON advisory ``{"error", "reason",
"retry_after"}`` with the matching HTTP status (422 invalid input, 429
queue full, 503 breaker/drain/crash, 504 deadline), so a client can
always distinguish "retry later" from "your request is wrong" — and
no response body ever carries a score the pipeline did not compute.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import asdict
from pathlib import Path

from repro.exceptions import ScoreRefusal
from repro.runtime import telemetry
from repro.runtime.shardstore import ShardedStore
from repro.serve.admission import AdmissionPolicy, Deadline, TenantLane
from repro.serve.batching import BatchPolicy, BatchScheduler, ScoreJob
from repro.serve.breaker import CircuitBreaker
from repro.serve.chaos import ChaosDirector
from repro.serve.pipeline import ScorePipeline
from repro.serve.tenants import (
    DEFAULT_DELTA_VERIFY_EVERY,
    RecoveryReport,
    TenantStateStore,
)

#: Largest request body accepted, in bytes (arrays of ~1e6 events).
MAX_BODY_BYTES = 16 * 1024 * 1024

_REASONS = {
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Refusal reasons that indicate the *tenant's pipeline* is unhealthy
#: (they advance its circuit breaker); admission refusals do not.
_BREAKER_REASONS = frozenset({"score-failed", "worker-crash"})


def _window_field(raw: object) -> int:
    """A score request's ``window`` as an int, or a 422 refusal.

    Accepts a JSON integer, or a float with no fractional part
    (``4.0``).  A bool, a fractional or non-finite number, a string or
    any other type is refused with ``invalid-window`` rather than
    coerced, and so is a window below 1.
    """
    if (
        isinstance(raw, bool)
        or not isinstance(raw, (int, float))
        or (isinstance(raw, float) and not raw.is_integer())
    ):
        raise ScoreRefusal(
            f"window must be an integer, got {raw!r}",
            status=422,
            reason="invalid-window",
        )
    window = int(raw)
    if window < 1:
        raise ScoreRefusal(
            f"window must be >= 1, got {window}",
            status=422,
            reason="invalid-window",
        )
    return window


class ScoringServer:
    """One service instance: tenants, lanes, breakers, HTTP front end.

    Args:
        root: state directory (WALs, manifests, snapshot store).
        host: bind address.
        port: bind port (0 picks a free one; see :attr:`port`).
        policy: admission limits; defaults to :class:`AdmissionPolicy`.
        chaos: fault director; ``None`` serves faithfully.
        snapshot_every: tenant snapshot cadence (0 disables).
        fsync: fsync WAL appends (power-loss durability).
        models: the tiered model store (hot LRU → mmap shards →
            cold), or the directory (relative to ``root``) to build
            :func:`~repro.serve.tenants.default_model_store` in.
        delta_verify_every: delta-fit verify cadence (0 disables).
        batching: micro-batcher knobs (``--batch-max``,
            ``--batch-wait-us``); defaults to
            :class:`~repro.serve.batching.BatchPolicy`.
        keepalive_timeout: idle seconds before a kept-alive
            connection is closed.
    """

    def __init__(
        self,
        root: str,
        host: str = "127.0.0.1",
        port: int = 0,
        policy: AdmissionPolicy | None = None,
        chaos: ChaosDirector | None = None,
        snapshot_every: int = 8,
        fsync: bool = False,
        models: ShardedStore | str | Path = "models",
        delta_verify_every: int = DEFAULT_DELTA_VERIFY_EVERY,
        batching: BatchPolicy | None = None,
        keepalive_timeout: float = 30.0,
    ) -> None:
        self.policy = policy if policy is not None else AdmissionPolicy()
        self.chaos = chaos if chaos is not None else ChaosDirector()
        self.tenants = TenantStateStore(
            root,
            snapshot_every=snapshot_every,
            fsync=fsync,
            models=models,
            delta_verify_every=delta_verify_every,
        )
        self.pipeline = ScorePipeline(self.tenants)
        self.batcher = BatchScheduler(
            self.pipeline,
            self.chaos,
            policy=batching if batching is not None else BatchPolicy(),
        )
        self.recovery: RecoveryReport | None = None
        self._host = host
        self._port = port
        self._server: asyncio.Server | None = None
        self._lanes: dict[str, TenantLane] = {}
        self._breakers: dict[str, CircuitBreaker] = {}
        self._connections: set[asyncio.StreamWriter] = set()
        self._keepalive_timeout = float(keepalive_timeout)
        self._draining = False
        self.requests = 0
        self.refusals: dict[int, int] = {}
        self.keepalive_reuses = 0

    # -- lifecycle --------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (after :meth:`start`)."""
        if self._server is None:
            return self._port
        return self._server.sockets[0].getsockname()[1]

    @property
    def ready(self) -> bool:
        """Whether the server admits traffic."""
        return (
            self._server is not None
            and self.recovery is not None
            and not self._draining
        )

    async def start(self) -> None:
        """Recover persisted tenants, then bind and listen."""
        with telemetry.span("serve", "recover"):
            self.recovery = self.tenants.recover_all(
                store_faulty=self.chaos.store_read_faulty("recover")
            )
        self._server = await asyncio.start_server(
            self._handle, self._host, self._port
        )

    async def drain(self) -> dict:
        """Stop admitting, let every lane finish its queue."""
        self._draining = True
        for lane in self._lanes.values():
            await lane.drain()
        telemetry.count("serve.drained")
        return {
            "drained": True,
            "lanes": {
                name: lane.snapshot() for name, lane in self._lanes.items()
            },
        }

    async def stop(self) -> None:
        """Drain, close the listener and connections."""
        if not self._draining:
            await self.drain()
        await self.batcher.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in tuple(self._connections):
            try:
                writer.close()
            except Exception:
                pass

    async def serve_forever(self) -> None:
        """Block until cancelled (used by ``repro serve``)."""
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # -- per-tenant plumbing ----------------------------------------------

    def _lane(self, tenant_id: str) -> TenantLane:
        lane = self._lanes.get(tenant_id)
        if lane is None:
            lane = TenantLane(
                tenant_id,
                queue_depth=self.policy.queue_depth,
                retry_after_hint=self.policy.retry_after_hint,
            )
            self._lanes[tenant_id] = lane
        return lane

    def _breaker(self, tenant_id: str) -> CircuitBreaker:
        breaker = self._breakers.get(tenant_id)
        if breaker is None:
            breaker = CircuitBreaker(
                failure_threshold=self.policy.breaker_failures,
                reset_timeout=self.policy.breaker_reset,
                name=tenant_id,
            )
            self._breakers[tenant_id] = breaker
        return breaker

    # -- request handling -------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one connection, keeping it alive across requests.

        The loop ends when the client closes, sends ``Connection:
        close``, idles past the keep-alive timeout, or triggers any
        error status (a connection whose framing may be corrupt is
        never reused).
        """
        self._connections.add(writer)
        served = 0
        try:
            while True:
                close_after = True
                try:
                    request = await self._read_request(
                        reader, idle_timeout=(
                            self._keepalive_timeout if served else None
                        )
                    )
                    if request is None:  # clean EOF / idle timeout
                        break
                    method, path, body, want_close = request
                    if served:
                        self.keepalive_reuses += 1
                        telemetry.count("serve.http.keepalive_reuse")
                    try:
                        status, payload = await self._respond(
                            method, path, body
                        )
                        close_after = want_close
                    except ScoreRefusal as refusal:
                        status, payload = self._refusal_payload(refusal)
                except ScoreRefusal as refusal:  # malformed framing
                    status, payload = self._refusal_payload(refusal)
                except Exception as error:  # never leak a hang
                    status = 500
                    payload = {"error": f"{type(error).__name__}: {error}"}
                    telemetry.count("serve.http.error")
                if status >= 400:
                    self.refusals[status] = self.refusals.get(status, 0) + 1
                    close_after = True
                served += 1
                body_bytes = json.dumps(payload).encode("utf-8")
                headers = [
                    f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}",
                    "Content-Type: application/json",
                    f"Content-Length: {len(body_bytes)}",
                    "Connection: "
                    + ("close" if close_after else "keep-alive"),
                ]
                retry_after = payload.get("retry_after")
                if retry_after:
                    headers.append(f"Retry-After: {retry_after}")
                writer.write(
                    ("\r\n".join(headers) + "\r\n\r\n").encode("ascii")
                    + body_bytes
                )
                await writer.drain()
                if close_after:
                    break
        except (ConnectionError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            self._connections.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    @staticmethod
    def _refusal_payload(refusal: ScoreRefusal) -> tuple[int, dict]:
        payload: dict = {
            "error": str(refusal),
            "reason": refusal.reason,
            "retryable": refusal.retryable,
        }
        if refusal.retry_after is not None:
            payload["retry_after"] = refusal.retry_after
        return refusal.status, payload

    async def _respond(
        self, method: str, path: str, body: dict
    ) -> tuple[int, dict]:
        self.requests += 1
        telemetry.count("serve.http.request")

        if path == "/healthz" and method == "GET":
            return 200, {"status": "ok"}
        if path == "/readyz" and method == "GET":
            if self.ready:
                return 200, {"ready": True}
            return 503, {"ready": False, "reason": "draining" if self._draining else "recovering"}
        if path == "/drain" and method == "POST":
            return 200, await self.drain()
        if path == "/v1/stats" and method == "GET":
            return 200, self._stats()

        parts = [p for p in path.split("/") if p]
        if len(parts) >= 2 and parts[0] == "v1" and parts[1] == "tenants":
            if len(parts) == 3 and method == "GET":
                return self._tenant_info(parts[2])
            if len(parts) == 4 and method == "POST":
                tenant_id, op = parts[2], parts[3]
                if op in ("train", "score"):
                    return await self._tenant_op(tenant_id, op, body)
        return 404, {"error": f"no route for {method} {path}"}

    async def _read_request(
        self,
        reader: asyncio.StreamReader,
        idle_timeout: float | None = None,
    ) -> tuple[str, str, dict, bool] | None:
        """Parse one request; ``None`` on clean EOF or idle timeout.

        Returns ``(method, path, body, want_close)`` where
        ``want_close`` reflects the client's ``Connection`` header.
        """
        try:
            if idle_timeout is not None:
                try:
                    request_line = await asyncio.wait_for(
                        reader.readline(), idle_timeout
                    )
                except asyncio.TimeoutError:
                    return None
            else:
                request_line = await reader.readline()
            if not request_line:
                return None
            parts = request_line.decode("ascii", "replace").split()
            if len(parts) < 2:
                raise ScoreRefusal(
                    "malformed request line", status=400, reason="bad-request"
                )
            method, path = parts[0].upper(), parts[1]
            content_length = 0
            want_close = False
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("ascii", "replace").partition(":")
                header = name.strip().lower()
                if header == "content-length":
                    content_length = int(value.strip())
                elif header == "connection":
                    want_close = "close" in value.strip().lower()
            if content_length > MAX_BODY_BYTES:
                raise ScoreRefusal(
                    f"body of {content_length} bytes exceeds "
                    f"{MAX_BODY_BYTES}",
                    status=413,
                    reason="payload-too-large",
                )
            raw = (
                await reader.readexactly(content_length)
                if content_length
                else b""
            )
        except (asyncio.IncompleteReadError, ValueError) as error:
            raise ScoreRefusal(
                f"malformed request: {error}", status=400, reason="bad-request"
            ) from None
        if not raw:
            return method, path, {}, want_close
        try:
            body = json.loads(raw)
        except ValueError as error:
            raise ScoreRefusal(
                f"body is not valid JSON: {error}",
                status=400,
                reason="bad-request",
            ) from None
        if not isinstance(body, dict):
            raise ScoreRefusal(
                "body must be a JSON object", status=400, reason="bad-request"
            )
        return method, path, body, want_close

    # -- tenant endpoints -------------------------------------------------

    def _tenant_info(self, tenant_id: str) -> tuple[int, dict]:
        state = self.tenants.get(tenant_id)
        return 200, {
            "tenant": state.tenant_id,
            "alphabet_size": state.alphabet_size,
            "seq": state.seq,
            "events": state.event_count,
            "digest": state.digest(),
        }

    async def _tenant_op(
        self, tenant_id: str, op: str, body: dict
    ) -> tuple[int, dict]:
        if self._draining:
            raise ScoreRefusal(
                "server is draining", status=503, reason="draining",
                retry_after=1.0,
            )
        breaker = self._breaker(tenant_id)
        breaker.admit()
        request_id = str(body.get("request_id", f"{op}-{self.requests}"))
        try:
            attempt = int(body.get("attempt", 1))
        except (TypeError, ValueError, OverflowError):
            raise ScoreRefusal(
                f"attempt must be an integer, got {body.get('attempt')!r}",
                status=422,
                reason="invalid-attempt",
            ) from None
        key = f"{tenant_id}|{op}|{request_id}"
        budget = self.policy.budget_for(body.get("budget"))
        deadline = Deadline.after(budget)
        lane = self._lane(tenant_id)

        async def job() -> dict:
            await self.chaos.maybe_latency(key, attempt)
            self.chaos.maybe_worker_crash(key, attempt)
            if op == "train":
                return self._train(tenant_id, body, key, attempt, deadline)
            return await self._score_via_batcher(
                tenant_id, body, key, attempt, deadline
            )

        try:
            result = await lane.submit(job, deadline)
        except ScoreRefusal as refusal:
            if refusal.reason in _BREAKER_REASONS:
                breaker.record_failure()
            raise
        breaker.record_success()
        assert isinstance(result, dict)
        return 200, result

    def _train(
        self,
        tenant_id: str,
        body: dict,
        key: str,
        attempt: int,
        deadline: Deadline,
    ) -> dict:
        deadline.check("train")
        state = self.tenants.open(tenant_id, body.get("alphabet_size"))
        events = self.chaos.maybe_corrupt_events(
            self.tenants.validate_events(
                body.get("events"), state.alphabet_size
            ),
            state.alphabet_size,
            key,
            attempt,
        )
        # Re-validate: a chaos-poisoned payload must be *caught*,
        # never journaled — this pair of calls is the invariant.
        events = self.tenants.validate_events(events, state.alphabet_size)
        seq = self.tenants.ingest(state, events)
        return {
            "tenant": tenant_id,
            "seq": seq,
            "events": state.event_count,
            "digest": state.digest(),
        }

    async def _score_via_batcher(
        self,
        tenant_id: str,
        body: dict,
        key: str,
        attempt: int,
        deadline: Deadline,
    ) -> dict:
        """Hand one score request to the micro-batch scheduler.

        Runs inside the tenant's lane worker, so awaiting the batched
        outcome keeps per-tenant ordering intact.  Validation that
        does not need tenant state happens here; everything stateful
        resolves when the scheduler scores the job's group.
        """
        family = str(body.get("family", "stide"))
        window = _window_field(body.get("window", 0))
        loop = asyncio.get_running_loop()
        job = ScoreJob(
            tenant_id=tenant_id,
            family=family,
            window=window,
            alphabet_size=self.tenants.peek_alphabet(tenant_id),
            events=body.get("events"),
            key=key,
            attempt=attempt,
            deadline=deadline,
            future=loop.create_future(),
            enqueued_at=loop.time(),
        )
        outcome = await self.batcher.submit(job)
        return {
            "tenant": tenant_id,
            "family": outcome.family,
            "window": outcome.window,
            "elapsed": round(outcome.elapsed, 6),
            "scores": list(outcome.scores),
        }

    # -- stats ------------------------------------------------------------

    def _stats(self) -> dict:
        return {
            "ready": self.ready,
            "requests": self.requests,
            "refusals": {str(k): v for k, v in sorted(self.refusals.items())},
            "tenants": {
                tid: {
                    "seq": state.seq,
                    "events": state.event_count,
                    "quarantined": state.quarantined,
                }
                for tid, state in sorted(self.tenants.tenants.items())
            },
            "lanes": {
                name: lane.snapshot()
                for name, lane in sorted(self._lanes.items())
            },
            "breakers": {
                name: breaker.snapshot()
                for name, breaker in sorted(self._breakers.items())
            },
            "chaos": dict(self.chaos.injected),
            "recovery": asdict(self.recovery) if self.recovery else None,
            "memory": self.tenants.memory_stats(),
            "batch": self.batcher.snapshot(),
            "http": {
                "keepalive_reuses": self.keepalive_reuses,
                "open_connections": len(self._connections),
            },
        }
