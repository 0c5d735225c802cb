"""Endpoint contract of the serve-mode HTTP surface.

One module-scoped world keeps this suite fast; every test talks to the
server over a real socket, exactly as a scraper would.
"""

import json
import socket
import urllib.error
import urllib.request

import pytest

from repro.obs.metrics import parse_exposition
from repro.serve import ServeSession, ServeSpec, read_metadata
from repro.serve.http import PROMETHEUS_CONTENT_TYPE, ServeHTTPServer
from repro.serve.runner import run_serve


def request(url, method="GET", payload=None):
    data = json.dumps(payload).encode() if payload is not None else None
    if method == "POST" and data is None:
        data = b""
    req = urllib.request.Request(url, data=data, method=method)
    try:
        with urllib.request.urlopen(req, timeout=30) as response:
            return (response.status, response.read().decode(),
                    response.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode(), exc.headers


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    path = tmp_path_factory.mktemp("serve") / "ck.bin"
    session = ServeSession(ServeSpec(seed=5))
    server = ServeHTTPServer(session, checkpoint_path=str(path),
                             allow_inject=True)
    server.start()
    run_serve(session, server, pace_s=0, max_ticks=25)
    yield session, server, path
    server.stop()


class TestReadEndpoints:
    def test_health_always_ok(self, served):
        _, server, _ = served
        code, body, _ = request(server.url + "/health")
        assert code == 200
        assert json.loads(body)["healthy"] is True

    def test_ready_after_warmup(self, served):
        _, server, _ = served
        code, body, _ = request(server.url + "/ready")
        assert code == 200
        assert json.loads(body)["ready"] is True

    def test_ready_503_before_warmup(self):
        session = ServeSession(ServeSpec(seed=6))
        server = ServeHTTPServer(session)
        server.start()
        try:
            code, _, _ = request(server.url + "/ready")
            assert code == 503
        finally:
            server.stop()

    def test_metrics_scrape_parses(self, served):
        session, server, _ = served
        code, body, headers = request(server.url + "/metrics")
        assert code == 200
        assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        exposition = parse_exposition(body)
        assert exposition.series["repro_uptime_ticks"] == session.ticks
        build_info = [key for key in exposition.series
                      if key.startswith("repro_build_info")]
        assert len(build_info) == 1
        assert f'shards="{session.spec.shards}"' in build_info[0]

    def test_status_payload(self, served):
        session, server, _ = served
        code, body, _ = request(server.url + "/status")
        assert code == 200
        status = json.loads(body)
        assert status["tick"] == session.ticks
        assert status["config_digest"] == session.config_digest

    def test_alerts_payload(self, served):
        _, server, _ = served
        code, body, _ = request(server.url + "/alerts")
        assert code == 200
        assert "analyzer_problems" in json.loads(body)["rules"][0]

    def test_unknown_path_404(self, served):
        _, server, _ = served
        assert request(server.url + "/nope")[0] == 404
        assert request(server.url + "/nope", method="POST")[0] == 404


class TestCheckpointEndpoint:
    def test_post_writes_file(self, served):
        session, server, path = served
        code, body, _ = request(server.url + "/checkpoint",
                                method="POST")
        assert code == 200
        reply = json.loads(body)
        assert reply["tick"] == session.ticks
        assert read_metadata(path)["tick"] == session.ticks

    def test_409_without_configured_path(self):
        session = ServeSession(ServeSpec(seed=6))
        server = ServeHTTPServer(session)  # no checkpoint_path
        server.start()
        try:
            code, _, _ = request(server.url + "/checkpoint",
                                 method="POST")
            assert code == 409
        finally:
            server.stop()


class TestInjectEndpoint:
    def test_valid_fault_scheduled_relative_to_now(self, served):
        session, server, _ = served
        before = len(session.faults.faults)
        code, body, _ = request(
            server.url + "/inject", method="POST",
            payload={"fault": "link_corruption@5-20:pod0-tor0,"
                              "pod0-agg0:drop_prob=0.4"})
        assert code == 200
        reply = json.loads(body)
        now_s = session.cluster.sim.now / 10 ** 9
        assert reply["start_s"] == pytest.approx(now_s + 5)
        assert reply["end_s"] == pytest.approx(now_s + 20)
        assert len(session.faults.faults) == before + 1

    def test_bad_grammar_400(self, served):
        _, server, _ = served
        code, _, _ = request(server.url + "/inject", method="POST",
                             payload={"fault": "nonsense"})
        assert code == 400

    def test_wrong_arity_400(self, served):
        _, server, _ = served
        code, body, _ = request(
            server.url + "/inject", method="POST",
            payload={"fault": "link_corruption@5:only-one-locus"})
        assert code == 400
        assert "campaign event 'link_corruption'" in json.loads(body)["error"]

    @pytest.mark.parametrize("fault", [
        "link_corruption@5:nope,pod0-agg0",
        "link_corruption@5:pod0-tor0,pod0-tor1",
    ], ids=["unknown-locus", "no-such-link"])
    def test_bad_loci_400_and_nothing_scheduled(self, served, fault):
        session, server, _ = served
        before = len(session.faults.faults)
        code, body, _ = request(server.url + "/inject", method="POST",
                                payload={"fault": fault})
        assert code == 400
        assert "campaign event 'link_corruption'" in json.loads(body)["error"]
        assert len(session.faults.faults) == before

    def test_bad_values_400_and_the_loop_keeps_ticking(self):
        # An infinite period once answered 200 and then killed the tick
        # loop at the fault's start; an infinite window raised an
        # OverflowError out of the handler.
        session = ServeSession(ServeSpec(seed=6))
        server = ServeHTTPServer(session, allow_inject=True)
        server.start()
        try:
            for fault in (
                    "switch_port_flapping@1:pod0-tor0,pod0-agg0"
                    ":period_ns=inf",
                    "link_corruption@inf:pod0-tor0,pod0-agg0",
                    "pcie_downgrade@1:host1-rnic0:pause_delay_ns=1e18",
                    "link_overload@1:pod0-tor0,pod0-agg0:extra_gbps=inf",
                    "switch_acl_error@1:pod0-tor0:src_ip=garbage"):
                code, body, _ = request(server.url + "/inject",
                                        method="POST",
                                        payload={"fault": fault})
                assert code == 400, fault
                assert "must be" in json.loads(body)["error"]
            assert session.faults.faults == []
            assert run_serve(session, server, pace_s=0, max_ticks=3) == 3
            code, _, _ = request(server.url + "/health")
            assert code == 200
        finally:
            server.stop()

    def test_403_when_disabled(self):
        session = ServeSession(ServeSpec(seed=6))
        server = ServeHTTPServer(session)  # allow_inject defaults off
        server.start()
        try:
            code, _, _ = request(
                server.url + "/inject", method="POST",
                payload={"fault": "link_corruption@1-2:a,b"})
            assert code == 403
        finally:
            server.stop()


class TestMalformedPost:
    """The request line, headers and body come from outside: a lying
    Content-Length or a non-UTF-8 body gets a 4xx, never a traceback or a
    handler blocked reading bytes that will not come."""

    @pytest.mark.parametrize("headers,body,expected", [
        ("Content-Length: abc\r\n", b"{}", 400),
        ("Content-Length: -1\r\n", b"{}", 400),
        ("Content-Length: 999999999\r\n", b"{}", 413),
        ("Content-Length: 4\r\n", b"\xff\xfe\xfd\xfc", 400),
    ], ids=["non-integer-length", "negative-length", "oversized-length",
            "non-utf8-body"])
    def test_answers_4xx_and_keeps_serving(self, served, headers, body,
                                           expected):
        _, server, _ = served
        with socket.create_connection((server.host, server.port),
                                      timeout=10) as sock:
            sock.sendall(b"POST /inject HTTP/1.1\r\nHost: test\r\n"
                         + headers.encode() + b"\r\n" + body)
            status_line = sock.makefile("rb").readline()
        assert int(status_line.split()[1]) == expected
        code, _, _ = request(server.url + "/health")
        assert code == 200


class TestShutdownEndpoint:
    def test_post_stops_the_loop(self):
        session = ServeSession(ServeSpec(seed=6))
        server = ServeHTTPServer(session)
        server.start()
        try:
            code, _, _ = request(server.url + "/shutdown", method="POST")
            assert code == 200
            assert server.shutdown_requested.is_set()
            assert run_serve(session, server, pace_s=0,
                             max_ticks=50) == 0
        finally:
            server.stop()


class TestScrapeDoesNotPerturbReplay:
    def test_scraped_and_unscraped_runs_share_digest(self):
        spec = ServeSpec(seed=9)
        quiet = ServeSession(spec)
        for _ in range(12):
            quiet.tick()
        noisy = ServeSession(spec)
        server = ServeHTTPServer(noisy)
        server.start()
        try:
            for _ in range(12):
                with server.lock:
                    noisy.tick()
                request(server.url + "/metrics")
                request(server.url + "/status")
        finally:
            server.stop()
        assert noisy.replay_digest() == quiet.replay_digest()
