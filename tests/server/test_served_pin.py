"""The daemon's HTTP surface, pinned exchange by exchange.

``served_digests.json`` holds, per exchange id, what a client sees of
one HTTP exchange with a one-shard daemon (``queue_size=2``), every
request carrying the same ``X-Repro-Trace-Id``:

* the status, the response's header names in order, ``Content-Type``,
  the echoed trace id and whether ``Retry-After`` is present;
* the JSON body without ``elapsed_ms``, ``uptime_s`` and ``trace`` (at
  any depth), with each ``output`` string replaced by its SHA-256.

The exchanges, in order: ``GET /healthz`` and ``GET /nope``; the five
command routes and ``/v1/analyze`` on three truth programs, each sent
fresh and then cached; a route/command mismatch, a protocol violation,
bad JSON, a missing ``Content-Length`` and a body over the limit (on a
second daemon with ``max_request_bytes=64``); a batch with one
malformed item; with the shard frozen, one request in its pipe, one
waiting, a third rejected with 503 and a batch that does not fit; the
frozen shard SIGKILLed, so both queued requests answer 500; a POST
during drain.  ``/metricsz`` is pinned as its JSON key tree and its
Prometheus families (name, type, label names).

The file is generated twice; ``unstable`` lists, as ``exchange|field``,
the record fields that differed between the two runs, which are left
unpinned.

Regenerate the file only for a change meant to move this surface:
``PYTHONPATH=src python -m tests.server.test_served_pin``.
"""

import contextlib
import hashlib
import json
import os
import socket
import threading
import time

import pytest

from repro.server import ShardedServer
from tests.integration.test_cli_pin import programs, relative_path

HERE = os.path.dirname(__file__)
DIGESTS = os.path.join(HERE, "served_digests.json")

TRACE_ID = "0123456789abcdef0123456789abcdef"
DROPPED = ("elapsed_ms", "uptime_s", "trace")
ROUTES = ("predict", "check", "ranges", "ir", "run")


def exchange(port, method, path, body=None, length=True):
    """One raw HTTP exchange: ``(status, [(name, value)], body bytes)``."""
    lines = [f"{method} {path} HTTP/1.0", f"X-Repro-Trace-Id: {TRACE_ID}"]
    if body is not None and length:
        lines.append(f"Content-Length: {len(body)}")
    request = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + (body or b"")
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(request)
        return read_response(sock)


def read_response(sock):
    raw = b""
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            break
        raw += chunk
    head, _, payload = raw.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = [
        tuple(part.strip() for part in line.split(":", 1)) for line in header_lines
    ]
    return int(status_line.split()[1]), headers, payload


def normalise(value):
    if isinstance(value, dict):
        return {
            key: (
                hashlib.sha256(item.encode("utf-8")).hexdigest()
                if key == "output" and isinstance(item, str)
                else normalise(item)
            )
            for key, item in value.items()
            if key not in DROPPED
        }
    if isinstance(value, list):
        return [normalise(item) for item in value]
    return value


def record(response):
    status, headers, payload = response
    names = dict((name.lower(), value) for name, value in headers)
    return {
        "status": status,
        "headers": [name for name, _ in headers],
        "content_type": names.get("content-type"),
        "trace_id": names.get("x-repro-trace-id"),
        "retry_after": "retry-after" in names,
        "body": normalise(json.loads(payload.decode("utf-8"))),
    }


def key_tree(value):
    if isinstance(value, dict):
        return {key: key_tree(item) for key, item in value.items()}
    if isinstance(value, list):
        return [key_tree(item) for item in value]
    return None


def prometheus_families(text):
    from tests.prometheus_parser import parse_prometheus_text

    return {
        name: [
            family["type"],
            sorted({label for _, labels, _ in family["samples"] for label in labels}),
        ]
        for name, family in parse_prometheus_text(text).items()
    }


def post(port, path, document, **kwargs):
    return exchange(port, "POST", path, json.dumps(document).encode("utf-8"), **kwargs)


def program_bodies():
    """``(id, route, body)`` for the command exchanges on three programs."""
    rows = []
    for program in programs()[:3]:
        path = relative_path(program)
        for command in ROUTES:
            body = {"source": program.source, "name": path}
            if command == "run":
                body["options"] = {
                    "args": [min(arg, 8) for arg in program.args],
                    "inputs": program.inputs[:16],
                    "max_steps": 20000,
                }
            rows.append((f"{program.name}|{command}", f"/v1/{command}", body))
        rows.append((
            f"{program.name}|analyze",
            "/v1/analyze",
            {"command": "check", "source": program.source, "name": path},
        ))
    return rows


@contextlib.contextmanager
def daemon(**kwargs):
    server = ShardedServer(port=0, shards=1, **kwargs)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        yield server
    finally:
        server.drain(timeout=10)


def wait_until(predicate):
    deadline = time.monotonic() + 10
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


def in_background(results, name, port, path, document):
    def send():
        results[name] = post(port, path, document)

    thread = threading.Thread(target=send, daemon=True)
    thread.start()
    return thread


def collect(paused):
    """Every pinned exchange, in order, as ``{id: record}``."""
    out = {}
    first, second = programs()[:2]
    with daemon(queue_size=2) as server:
        port = server.port
        out["GET /healthz"] = record(exchange(port, "GET", "/healthz"))
        out["GET /nope"] = record(exchange(port, "GET", "/nope"))
        for id_, route, body in program_bodies():
            out[f"{id_}|fresh"] = record(post(port, route, body))
            out[f"{id_}|cached"] = record(post(port, route, body))
        out["route mismatch"] = record(post(
            port, "/v1/predict", {"command": "ir", "source": first.source}
        ))
        out["protocol violation"] = record(post(
            port, "/v1/predict", {"source": first.source, "options": {"typo": True}}
        ))
        out["bad json"] = record(exchange(port, "POST", "/v1/predict", b"{not json"))
        out["missing length"] = record(
            exchange(port, "POST", "/v1/predict", b"{}", length=False)
        )
        out["batch with a malformed item"] = record(post(port, "/v1/batch", {"items": [
            {"command": "predict", "source": first.source},
            {"command": "predict", "source": ""},
        ]}))

        queued = {}
        with paused(server):
            posters = [in_background(
                queued, "in pipe", port, "/v1/predict", {"source": first.source}
            )]
            wait_until(lambda: server.inflight() == 1)
            posters.append(in_background(
                queued, "waiting", port, "/v1/ranges", {"source": first.source}
            ))
            wait_until(lambda: server.inflight() == 2)
            out["frozen: queue full"] = record(
                post(port, "/v1/ir", {"source": second.source})
            )
            out["frozen: batch does not fit"] = record(post(port, "/v1/batch", {
                "items": [{"command": "predict", "source": second.source}]
            }))
            server.shards[0].process.kill()
            for poster in posters:
                poster.join(timeout=30)
        out["killed: in pipe"] = record(queued["in pipe"])
        out["killed: waiting"] = record(queued["waiting"])
        out["after respawn"] = record(
            post(port, "/v1/predict", {"source": second.source})
        )

        _, _, metrics = exchange(port, "GET", "/metricsz")
        out["GET /metricsz keys"] = key_tree(json.loads(metrics))
        _, _, text = exchange(port, "GET", "/metricsz?format=prometheus")
        out["GET /metricsz prometheus"] = prometheus_families(text.decode("utf-8"))

        held = {}
        with paused(server):
            holder = in_background(
                held, "held", port, "/v1/check", {"source": second.source}
            )
            wait_until(lambda: server.inflight() == 1)
            # A connection with bytes on the wire before the drain starts
            # survives the idle sweep and completes its request mid-drain.
            sock = socket.create_connection(("127.0.0.1", port), timeout=30)
            sock.sendall(b"PO")
            time.sleep(0.2)
            drainer = threading.Thread(target=server.drain, args=(30,), daemon=True)
            drainer.start()
            wait_until(lambda: server.draining)
            time.sleep(0.2)
            body = json.dumps({"source": first.source}).encode("utf-8")
            sock.sendall(
                f"ST /v1/predict HTTP/1.0\r\nX-Repro-Trace-Id: {TRACE_ID}\r\n"
                f"Content-Length: {len(body)}\r\n\r\n".encode("latin-1") + body
            )
            out["POST during drain"] = record(read_response(sock))
            sock.close()
        holder.join(timeout=30)
        drainer.join(timeout=30)
        out["held through drain"] = record(held["held"])

    with daemon(queue_size=2, max_request_bytes=64) as server:
        out["body over the limit"] = record(
            post(server.port, "/v1/predict", {"source": first.source})
        )
    return out


@pytest.fixture(scope="module")
def pinned():
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle)


def test_served_exchanges_match_the_pinned_records(pinned, paused):
    current = collect(paused)
    assert set(current) == set(pinned["exchanges"])
    for id_, expected in pinned["exchanges"].items():
        for field, value in expected.items():
            assert current[id_][field] == value, f"{id_}|{field}"


if __name__ == "__main__":
    from tests.server.conftest import _paused

    forward = collect(_paused)
    again = collect(_paused)
    document = {
        "exchanges": {
            id_: {field: value for field, value in row.items()
                  if again[id_].get(field) == value}
            for id_, row in forward.items()
        },
        "unstable": sorted(
            f"{id_}|{field}"
            for id_, row in forward.items()
            for field, value in row.items()
            if again[id_].get(field) != value
        ),
    }
    with open(DIGESTS, "w", encoding="utf-8") as out:
        json.dump(document, out, indent=1, sort_keys=True)
        out.write("\n")
