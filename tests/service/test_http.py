"""End-to-end over real sockets: HTTP routes and the WebSocket stream.

The client half is hand-rolled too (no third-party HTTP/WS libraries in the
container), which doubles as an independent check of the wire format: the
server must interoperate with a from-scratch RFC 6455 client, not just with
its own code.
"""

import asyncio
import base64
import json
import os
import struct
import time

import pytest

from repro.config import run_config, run_fingerprint
from repro.service import ServiceConfig, TrackingService
from repro.service import http as http_mod
from repro.service.http import HttpError, read_request, websocket_accept, ws_recv

from .conftest import small_config


# -- a minimal test client -------------------------------------------------


async def request(host, port, method, path, body=None):
    reader, writer = await asyncio.open_connection(host, port)
    payload = b"" if body is None else json.dumps(body).encode()
    writer.write(
        (
            f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n"
        ).encode()
        + payload
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


async def ws_connect(host, port, path):
    reader, writer = await asyncio.open_connection(host, port)
    key = base64.b64encode(os.urandom(16)).decode()
    writer.write(
        (
            f"GET {path} HTTP/1.1\r\nHost: test\r\nUpgrade: websocket\r\n"
            f"Connection: Upgrade\r\nSec-WebSocket-Key: {key}\r\n"
            "Sec-WebSocket-Version: 13\r\n\r\n"
        ).encode()
    )
    await writer.drain()
    status_line = await reader.readline()
    assert b"101" in status_line, status_line
    accept = None
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode().partition(":")
        if name.strip().lower() == "sec-websocket-accept":
            accept = value.strip()
    assert accept == websocket_accept(key)  # RFC 6455 handshake check
    return reader, writer


async def ws_read_text(reader):
    while True:
        head = await reader.readexactly(2)
        opcode = head[0] & 0x0F
        n = head[1] & 0x7F
        if n == 126:
            n = struct.unpack(">H", await reader.readexactly(2))[0]
        elif n == 127:
            n = struct.unpack(">Q", await reader.readexactly(8))[0]
        payload = await reader.readexactly(n) if n else b""
        if opcode == 0x8:
            return None
        if opcode in (0x9, 0xA):
            continue
        return payload.decode()


async def with_service(config, body):
    service = TrackingService(config)
    await service.start(port=0)
    try:
        return await body(service)
    finally:
        await service.stop()


def run(coro):
    return asyncio.run(coro)


# -- the tests -------------------------------------------------------------


class TestRoutes:
    def test_full_session_lifecycle_over_http(self, config_toml):
        async def body(service):
            h, p = service.host, service.port
            status, health = await request(h, p, "GET", "/healthz")
            assert status == 200 and health["status"] == "ok"

            status, created = await request(
                h, p, "POST", "/sessions",
                {"config_toml": config_toml, "session_id": "s1"},
            )
            assert status == 200 and created["id"] == "s1"

            status, listing = await request(h, p, "GET", "/sessions")
            assert [s["id"] for s in listing["sessions"]] == ["s1"]

            status, stepped = await request(
                h, p, "POST", "/sessions/s1/step", {"n": 99}
            )
            assert status == 200 and stepped["stepped"] == 5
            assert stepped["session"]["state"] == "finished"

            status, result = await request(h, p, "GET", "/sessions/s1/result")
            assert status == 200
            status, metrics = await request(h, p, "GET", "/metrics")
            assert metrics["steps_total"] == 5

            status, gone = await request(h, p, "DELETE", "/sessions/s1")
            assert status == 200
            return result

        result = run(with_service(ServiceConfig(n_workers=1), body))
        assert result["fingerprint"] == run_fingerprint(
            run_config(small_config())
        )

    def test_config_dict_body_equals_toml_body(self, config_toml):
        async def body(service):
            h, p = service.host, service.port
            status, a = await request(
                h, p, "POST", "/sessions",
                {"config_toml": config_toml, "session_id": "a"},
            )
            status, b = await request(
                h, p, "POST", "/sessions",
                {"config": small_config().to_dict(), "session_id": "b"},
            )
            return a, b

        a, b = run(with_service(ServiceConfig(n_workers=1), body))
        assert a["fingerprint"] == b["fingerprint"]

    def test_error_statuses(self, config_toml):
        async def body(service):
            h, p = service.host, service.port
            checks = []
            checks.append(await request(h, p, "GET", "/sessions/nope"))
            checks.append(await request(h, p, "POST", "/sessions", {}))
            checks.append(await request(h, p, "GET", "/no/such/route"))
            checks.append(await request(h, p, "PUT", "/sessions"))
            await request(
                h, p, "POST", "/sessions",
                {"config_toml": config_toml, "session_id": "s"},
            )
            checks.append(
                await request(h, p, "POST", "/sessions/s/step", {"n": 0})
            )
            checks.append(await request(h, p, "GET", "/sessions/s/result"))
            return checks

        statuses = [
            status
            for status, _ in run(with_service(ServiceConfig(n_workers=1), body))
        ]
        assert statuses == [404, 400, 404, 405, 400, 409]

    def test_capacity_error_is_503(self, config_toml):
        async def body(service):
            h, p = service.host, service.port
            await request(
                h, p, "POST", "/sessions",
                {"config_toml": config_toml, "session_id": "a"},
            )
            status, payload = await request(
                h, p, "POST", "/sessions", {"config_toml": config_toml}
            )
            return status, payload

        status, payload = run(
            with_service(
                ServiceConfig(n_workers=1, max_sessions=4, high_water=1), body
            )
        )
        assert status == 503
        assert payload["code"] == "over_capacity"


class TestWebSocketStream:
    def test_stream_delivers_estimates_live(self, config_toml):
        async def body(service):
            h, p = service.host, service.port
            await request(
                h, p, "POST", "/sessions",
                {"config_toml": config_toml, "session_id": "s"},
            )
            reader, writer = await ws_connect(h, p, "/sessions/s/stream")
            await request(h, p, "POST", "/sessions/s/step", {"n": 99})
            frames = []
            while True:
                text = await asyncio.wait_for(ws_read_text(reader), 10)
                assert text is not None
                frames.append(json.loads(text))
                if frames[-1]["type"] == "finished":
                    break
            writer.close()
            return frames

        frames = run(
            with_service(
                ServiceConfig(n_workers=1, queue_size=1024), body
            )
        )
        types = [f["type"] for f in frames]
        assert "iteration" in types and "phase" in types and "step" in types
        estimates = [
            f["estimate"]
            for f in frames
            if f["type"] == "step" and f["estimate"] is not None
        ]
        assert estimates, "expected streamed position estimates"
        assert all(len(e) == 2 for e in estimates)
        assert [f["seq"] for f in frames] == sorted(f["seq"] for f in frames)

    def test_stream_for_missing_session_is_404(self):
        async def body(service):
            h, p = service.host, service.port
            reader, writer = await asyncio.open_connection(h, p)
            writer.write(
                b"GET /sessions/nope/stream HTTP/1.1\r\nHost: t\r\n"
                b"Upgrade: websocket\r\nConnection: Upgrade\r\n"
                b"Sec-WebSocket-Key: AAAAAAAAAAAAAAAAAAAAAA==\r\n\r\n"
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            return raw

        raw = run(with_service(ServiceConfig(n_workers=1), body))
        assert b"404" in raw.split(b"\r\n", 1)[0]


# -- untrusted input on a fed stream ---------------------------------------


def _fed_reader(data: bytes, *, eof: bool = True) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    if eof:
        reader.feed_eof()
    return reader


def _client_frame(payload: bytes, *, opcode=0x1, fin=True, masked=True,
                  declared=None) -> bytes:
    """One client-to-server frame; ``declared`` overrides the length field."""
    n = len(payload) if declared is None else declared
    head = bytes([(0x80 if fin else 0) | opcode])
    mask_bit = 0x80 if masked else 0
    if n < 126:
        head += bytes([mask_bit | n])
    elif n < 1 << 16:
        head += bytes([mask_bit | 126]) + struct.pack(">H", n)
    else:
        head += bytes([mask_bit | 127]) + struct.pack(">Q", n)
    if not masked:
        return head + payload
    mask = b"\x01\x02\x03\x04"
    return head + mask + bytes(b ^ mask[i % 4] for i, b in enumerate(payload))


def _recv(data: bytes, *, eof: bool = True):
    async def body():
        return await asyncio.wait_for(
            ws_recv(_fed_reader(data, eof=eof), writer=None), 2
        )

    return run(body())


class TestUntrustedFraming:
    def test_negative_content_length_is_400(self):
        async def body():
            reader = _fed_reader(
                b"POST /sessions HTTP/1.1\r\nContent-Length: -5\r\n\r\n"
            )
            return await read_request(reader)

        with pytest.raises(HttpError) as excinfo:
            run(body())
        assert excinfo.value.status == 400

    def test_masked_fragments_reassemble(self):
        data = (
            _client_frame(b"hel", fin=False)
            + _client_frame(b"lo", opcode=0x0)
        )
        assert _recv(data) == "hello"

    def test_unmasked_frame_closes(self):
        assert _recv(_client_frame(b"hi", masked=False)) is None

    def test_oversize_declared_length_closes_without_reading(self):
        # a 64-bit length with no payload behind it: the server must refuse
        # the frame from its header instead of waiting to buffer 1 TiB
        data = _client_frame(b"", declared=1 << 40)[:10]
        assert _recv(data, eof=False) is None

    def test_oversize_reassembled_message_closes(self, monkeypatch):
        monkeypatch.setattr(http_mod, "_MAX_BODY_BYTES", 8)
        data = b"".join(
            _client_frame(b"abcd", opcode=0x1 if i == 0 else 0x0, fin=False)
            for i in range(3)
        ) + _client_frame(b"", opcode=0x0)
        assert _recv(data) is None

    def test_non_utf8_text_closes(self):
        assert _recv(_client_frame(b"\xff\xfe")) is None

    def test_unmask_matches_the_rfc_byte_loop(self):
        mask = b"\x9a\x01\xfe\x37"
        for n in range(10):
            payload = bytes(range(200, 200 + n))
            want = bytes(b ^ mask[i % 4] for i, b in enumerate(payload))
            assert http_mod._unmask(payload, mask) == want

    def test_large_masked_frame_round_trips_without_stalling(self):
        # just under the body cap, and not a multiple of the 4-byte mask: a
        # per-byte unmask holds the event loop (every session's stream) for
        # about a second on this size
        text = ("tracking-" * (http_mod._MAX_BODY_BYTES // 9))[:http_mod._MAX_BODY_BYTES - 5]
        assert len(text) % 4 != 0
        data = _client_frame(text.encode("ascii"))
        t0 = time.perf_counter()
        got = _recv(data)
        elapsed = time.perf_counter() - t0
        assert got == text
        assert elapsed < 0.5, f"unmasking an 8 MiB frame took {elapsed:.2f} s"
