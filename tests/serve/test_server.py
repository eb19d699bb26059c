"""End-to-end tests of the asyncio scoring server (in-process)."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.detectors.registry import create_detector
from repro.runtime.telemetry import Telemetry, activated
from repro.serve import AdmissionPolicy, ScoringServer
from repro.serve.loadgen import request

ALPHABET = 8


def _events(seed: int, length: int = 160) -> list[int]:
    rng = np.random.default_rng(seed)
    return rng.integers(0, ALPHABET, size=length).tolist()


def run(coro):
    return asyncio.run(coro)


async def _with_server(scenario, **kwargs):
    import tempfile

    with tempfile.TemporaryDirectory() as root:
        server = ScoringServer(root, **kwargs)
        await server.start()
        try:
            return await scenario(server)
        finally:
            await server.stop()


class TestEndpoints:
    def test_health_and_readiness(self):
        async def scenario(server):
            host, port = "127.0.0.1", server.port
            status, body = await request(host, port, "GET", "/healthz")
            assert (status, body) == (200, {"status": "ok"})
            status, body = await request(host, port, "GET", "/readyz")
            assert status == 200 and body["ready"]
            status, _ = await request(host, port, "POST", "/drain")
            assert status == 200
            status, body = await request(host, port, "GET", "/readyz")
            assert status == 503 and not body["ready"]
            # liveness stays green while draining
            status, _ = await request(host, port, "GET", "/healthz")
            assert status == 200

        run(_with_server(scenario))

    def test_unknown_route_404(self):
        async def scenario(server):
            status, _ = await request(
                "127.0.0.1", server.port, "GET", "/nope"
            )
            assert status == 404

        run(_with_server(scenario))

    def test_bad_json_400(self):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            payload = b"not json"
            writer.write(
                b"POST /v1/tenants/t/train HTTP/1.1\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(payload), payload)
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            assert b"400" in raw.split(b"\r\n", 1)[0]

        run(_with_server(scenario))


class TestTrainAndScore:
    def test_roundtrip_scores_match_local_reference(self):
        async def scenario(server):
            host, port = "127.0.0.1", server.port
            training = _events(1, 400)
            status, ack = await request(
                host,
                port,
                "POST",
                "/v1/tenants/alpha/train",
                {"events": training, "alphabet_size": ALPHABET},
            )
            assert status == 200
            assert ack["seq"] == 1
            test = _events(2, 120)
            status, body = await request(
                host,
                port,
                "POST",
                "/v1/tenants/alpha/score",
                {"family": "stide", "window": 4, "events": test},
            )
            assert status == 200
            detector = create_detector("stide", 4, ALPHABET)
            detector.fit(np.asarray(training, dtype=np.int64))
            expected = detector.score_stream(np.asarray(test, dtype=np.int64))
            assert np.array_equal(np.asarray(body["scores"]), expected)
            assert set(body) == {
                "tenant", "family", "window", "elapsed", "scores"
            }

        run(_with_server(scenario))

    def test_default_server_delta_updates_instead_of_refitting(self):
        """A server built without ``models=`` keeps models current by
        delta fits: train → score → train → score fits the cell once."""
        chunks = [_events(11, 200), _events(12, 150)]
        probe = _events(13, 90)

        async def scenario(server):
            host, port = "127.0.0.1", server.port
            bodies = []
            for chunk in chunks:
                status, _ = await request(
                    host,
                    port,
                    "POST",
                    "/v1/tenants/delta/train",
                    {"events": chunk, "alphabet_size": ALPHABET},
                )
                assert status == 200
                status, body = await request(
                    host,
                    port,
                    "POST",
                    "/v1/tenants/delta/score",
                    {"family": "markov", "window": 4, "events": probe},
                )
                assert status == 200
                bodies.append(body)
            return bodies

        collector = Telemetry()
        with activated(collector):
            bodies = run(_with_server(scenario))
        counters = collector.metrics.snapshot()["counters"]
        assert counters.get("serve.fit", 0) == 1
        assert counters.get("serve.delta.update", 0) >= 1
        for count, body in zip((1, 2), bodies):
            reference = create_detector("markov", 4, ALPHABET)
            reference.fit(np.concatenate(chunks[:count]).astype(np.int64))
            np.testing.assert_array_equal(
                np.asarray(body["scores"]),
                reference.score_stream(np.asarray(probe, dtype=np.int64)),
            )

    def test_unknown_tenant_404(self):
        async def scenario(server):
            status, body = await request(
                "127.0.0.1",
                server.port,
                "POST",
                "/v1/tenants/ghost/score",
                {"family": "stide", "window": 4, "events": _events(3)},
            )
            assert status == 404
            assert body["reason"] == "unknown-tenant"
            assert not body["retryable"]

        run(_with_server(scenario))

    def test_path_like_tenant_id_is_refused_and_writes_nothing(self):
        import json

        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            payload = json.dumps(
                {"events": _events(1), "alphabet_size": ALPHABET}
            ).encode()
            # A raw request line: no client normalizes the ".." away.
            writer.write(
                b"POST /v1/tenants/../train HTTP/1.1\r\n"
                b"Connection: close\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(payload), payload)
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            status_line, _, rest = raw.partition(b"\r\n")
            assert b"422" in status_line
            assert b"invalid-tenant" in rest
            root = server.tenants.root
            assert not (root / "manifest.json").exists()
            assert not (root / "wal.jsonl").exists()
            assert list(root.rglob("manifest.json")) == []

        run(_with_server(scenario))

    def test_out_of_alphabet_events_422(self):
        async def scenario(server):
            host, port = "127.0.0.1", server.port
            await request(
                host,
                port,
                "POST",
                "/v1/tenants/t/train",
                {"events": _events(1), "alphabet_size": ALPHABET},
            )
            status, body = await request(
                host,
                port,
                "POST",
                "/v1/tenants/t/train",
                {"events": [1, 2, ALPHABET + 3]},
            )
            assert status == 422
            assert body["reason"] == "invalid-events"
            # the poisoned chunk was never journaled
            status, info = await request(
                host, port, "GET", "/v1/tenants/t"
            )
            assert info["seq"] == 1

        run(_with_server(scenario))

    def test_short_stream_422(self):
        async def scenario(server):
            host, port = "127.0.0.1", server.port
            await request(
                host,
                port,
                "POST",
                "/v1/tenants/t/train",
                {"events": _events(1), "alphabet_size": ALPHABET},
            )
            status, body = await request(
                host,
                port,
                "POST",
                "/v1/tenants/t/score",
                {"family": "stide", "window": 6, "events": [1, 2, 3]},
            )
            assert status == 422
            assert body["reason"] == "stream-too-short"

        run(_with_server(scenario))

    def test_deadline_budget_504(self):
        async def scenario(server):
            host, port = "127.0.0.1", server.port
            await request(
                host,
                port,
                "POST",
                "/v1/tenants/t/train",
                {"events": _events(1), "alphabet_size": ALPHABET},
            )
            status, body = await request(
                host,
                port,
                "POST",
                "/v1/tenants/t/score",
                {
                    "family": "stide",
                    "window": 4,
                    "events": _events(2),
                    "budget": 1e-5,
                },
            )
            assert status == 504
            assert body["reason"] == "deadline-exceeded"
            assert body["retryable"]

        run(_with_server(scenario))

    @pytest.mark.parametrize(
        "field, value, reason",
        [
            ("attempt", "x", "invalid-attempt"),
            ("budget", "abc", "invalid-deadline"),
            ("budget", [1], "invalid-deadline"),
            ("budget", float("nan"), "invalid-deadline"),
            ("family", "bogus", "invalid-detector"),
            ("family", ["stide"], "invalid-detector"),
            ("window", 1, "invalid-detector"),
            ("window", True, "invalid-window"),
            ("window", 1e400, "invalid-window"),
            ("window", 2.9, "invalid-window"),
        ],
        ids=[
            "attempt-str",
            "budget-str",
            "budget-list",
            "budget-nan",
            "family-bogus",
            "family-list",
            "window-1",
            "window-bool",
            "window-1e400",
            "window-fractional",
        ],
    )
    def test_malformed_request_field_422(self, field, value, reason):
        async def scenario(server):
            host, port = "127.0.0.1", server.port
            await request(
                host,
                port,
                "POST",
                "/v1/tenants/t/train",
                {"events": _events(1), "alphabet_size": ALPHABET},
            )
            status, body = await request(
                host,
                port,
                "POST",
                "/v1/tenants/t/score",
                {
                    "family": "stide",
                    "window": 4,
                    "events": _events(2),
                    field: value,
                },
            )
            assert status == 422, body
            assert body["reason"] == reason
            assert not body["retryable"]
            assert server.refusals == {422: 1}

        run(_with_server(scenario))

    def test_bad_family_refusals_leave_the_breaker_closed(self):
        async def scenario(server):
            host, port = "127.0.0.1", server.port
            path = "/v1/tenants/a/score"
            await request(
                host,
                port,
                "POST",
                "/v1/tenants/a/train",
                {"events": _events(1), "alphabet_size": ALPHABET},
            )
            for _ in range(6):
                status, body = await request(
                    host,
                    port,
                    "POST",
                    path,
                    {"family": "bogus", "window": 4, "events": _events(2)},
                )
                assert (status, body["reason"]) == (422, "invalid-detector")
            status, body = await request(
                host,
                port,
                "POST",
                path,
                {"family": "stide", "window": 4, "events": _events(2)},
            )
            assert status == 200, body

        run(_with_server(scenario))

    def test_train_ack_carries_stream_digest(self):
        async def scenario(server):
            host, port = "127.0.0.1", server.port
            first, second = _events(1, 100), _events(2, 100)
            await request(
                host,
                port,
                "POST",
                "/v1/tenants/t/train",
                {"events": first, "alphabet_size": ALPHABET},
            )
            status, ack = await request(
                host, port, "POST", "/v1/tenants/t/train", {"events": second}
            )
            from repro.runtime.store import stream_digest

            expected = stream_digest(
                np.asarray(first + second, dtype=np.int64)
            )
            assert ack["digest"] == expected

        run(_with_server(scenario))


class TestStats:
    def test_stats_reflect_traffic(self):
        async def scenario(server):
            host, port = "127.0.0.1", server.port
            await request(
                host,
                port,
                "POST",
                "/v1/tenants/t/train",
                {"events": _events(1), "alphabet_size": ALPHABET},
            )
            status, stats = await request(host, port, "GET", "/v1/stats")
            assert status == 200
            assert stats["tenants"]["t"]["seq"] == 1
            assert stats["lanes"]["t"]["completed"] == 1
            assert stats["breakers"]["t"]["state"] == "closed"
            assert stats["recovery"]["tenants"] == 0
            memory = stats["memory"]
            assert memory["tenants"] == 1
            assert (
                memory["tenants_resident_bytes"]
                == memory["tenants_resident_bytes_counter"]
                == len(_events(1)) * 8
            )

        run(
            _with_server(
                scenario, policy=AdmissionPolicy(queue_depth=4)
            )
        )
