"""Operation counting of the serve client against a stand-in server."""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import serveload


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_GET(self):
        if self.path == "/missing":
            self._send(404, b'{"error": "no route"}')
        elif self.path == "/garbled":
            self._send(200, b"not json")
        else:
            self._send(200, json.dumps({"path": self.path}).encode())

    def _send(self, status, body):
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def port():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def test_a_non_200_answer_is_one_failed_operation(port):
    session = serveload.Session(planned=3)
    client = serveload.Client(port, session, timeout=10)
    try:
        ok, _ = client.call("GET", "/leaks")
        missing, _ = client.call("GET", "/missing")
        garbled, _ = client.call("GET", "/garbled")
    finally:
        client.close()
    assert ok == {"path": "/leaks"}
    assert missing is None and garbled is None
    assert (session.attempted, session.failed) == (3, 2)
    assert any("HTTP 404" in problem for problem in session.problems)


def test_a_lost_connection_fails_the_rest_of_the_session():
    session = serveload.Session(planned=serveload.planned_requests(4))
    with socket_closed_port() as port:
        client = serveload.Client(port, session, timeout=5)
        with pytest.raises(serveload.ConnectionLost):
            client.call("GET", "/healthz")
        client.close()
    session.lose_rest()
    assert session.attempted == session.failed == serveload.planned_requests(4)


class socket_closed_port:
    """A port that was bound and released, so nothing listens on it."""

    def __enter__(self):
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            return probe.getsockname()[1]

    def __exit__(self, *exc):
        return False


def test_the_read_mix_rotates_through_every_kind():
    paths = serveload.read_paths(["a", "b"], ["s"], len(serveload.MIX) * 2, 0)
    assert len(paths) == 2 * len(serveload.MIX)
    assert paths[:len(serveload.MIX)] == [
        "/prefix/a/dynamicity", "/prefix/b/dynamicity?history=1", "/leaks",
        "/leaks?suffix=s", "/names?top=10", "/occupancy", "/occupancy?prefix=a",
    ]
