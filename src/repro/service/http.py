"""Minimal stdlib HTTP/1.1 + RFC 6455 WebSocket plumbing.

The container ships no aiohttp/websockets/fastapi, so the service speaks the
two protocols it needs directly over ``asyncio`` streams.  The surface is
deliberately tiny: parse one request, write one JSON response, or upgrade to
a WebSocket and exchange text frames.  No chunked transfer, no pipelining,
no extensions — every route the service exposes fits comfortably inside
Content-Length framing.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import struct
from dataclasses import dataclass, field
from http import HTTPStatus

__all__ = [
    "HttpError",
    "Request",
    "read_request",
    "json_response",
    "websocket_accept",
    "ws_handshake_response",
    "ws_send_text",
    "ws_send_close",
    "ws_recv",
]

_WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"
_MAX_HEADER_BYTES = 32 * 1024
_MAX_BODY_BYTES = 8 * 1024 * 1024


class HttpError(Exception):
    """A malformed request the server answers with ``status`` and closes."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


@dataclass
class Request:
    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> dict:
        if not self.body:
            return {}
        try:
            payload = json.loads(self.body)
        except json.JSONDecodeError as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc.msg}")
        if not isinstance(payload, dict):
            raise HttpError(400, "request body must be a JSON object")
        return payload

    @property
    def wants_websocket(self) -> bool:
        return (
            self.headers.get("upgrade", "").lower() == "websocket"
            and "upgrade" in self.headers.get("connection", "").lower()
        )


async def read_request(reader: asyncio.StreamReader) -> Request | None:
    """One HTTP/1.1 request off the stream; None on a clean EOF."""
    try:
        request_line = await reader.readline()
    except (ConnectionError, asyncio.IncompleteReadError):
        return None
    if not request_line:
        return None
    try:
        method, path, version = request_line.decode("latin-1").split()
    except ValueError:
        raise HttpError(400, "malformed request line")
    if not version.startswith("HTTP/1."):
        raise HttpError(505, f"unsupported protocol {version}")
    headers: dict[str, str] = {}
    total = len(request_line)
    while True:
        line = await reader.readline()
        total += len(line)
        if total > _MAX_HEADER_BYTES:
            raise HttpError(431, "request headers too large")
        if line in (b"\r\n", b"\n", b""):
            break
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    body = b""
    length = headers.get("content-length")
    if length is not None:
        try:
            n = int(length)
        except ValueError:
            raise HttpError(400, f"bad Content-Length {length!r}")
        if n < 0:
            raise HttpError(400, f"bad Content-Length {length!r}")
        if n > _MAX_BODY_BYTES:
            raise HttpError(413, "request body too large")
        if n:
            try:
                body = await reader.readexactly(n)
            except asyncio.IncompleteReadError:
                return None
    return Request(method=method.upper(), path=path, headers=headers, body=body)


def json_response(
    status: int, payload: object, *, close: bool = True
) -> bytes:
    """A complete HTTP response with a JSON body."""
    body = json.dumps(payload).encode("utf-8")
    reason = HTTPStatus(status).phrase
    headers = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
    ]
    if close:
        headers.append("Connection: close")
    return ("\r\n".join(headers) + "\r\n\r\n").encode("latin-1") + body


# -- WebSocket (RFC 6455) --------------------------------------------------


def websocket_accept(key: str) -> str:
    """Sec-WebSocket-Accept for a client's Sec-WebSocket-Key."""
    digest = hashlib.sha1((key + _WS_GUID).encode("latin-1")).digest()
    return base64.b64encode(digest).decode("latin-1")


def ws_handshake_response(request: Request) -> bytes:
    key = request.headers.get("sec-websocket-key")
    if not key:
        raise HttpError(400, "missing Sec-WebSocket-Key")
    return (
        "HTTP/1.1 101 Switching Protocols\r\n"
        "Upgrade: websocket\r\n"
        "Connection: Upgrade\r\n"
        f"Sec-WebSocket-Accept: {websocket_accept(key)}\r\n"
        "\r\n"
    ).encode("latin-1")


def _unmask(payload: bytes, mask: bytes) -> bytes:
    """XOR a client payload with its 4-byte mask key (RFC 6455 §5.3).

    One big-integer XOR over the whole payload instead of a per-byte Python
    loop: an 8 MiB frame unmasks in tens of milliseconds rather than about a
    second of blocked event loop.
    """
    n = len(payload)
    if not n:
        return payload
    key = (mask * (n // 4 + 1))[:n]
    return (int.from_bytes(payload, "big") ^ int.from_bytes(key, "big")).to_bytes(n, "big")


def _ws_frame(opcode: int, payload: bytes) -> bytes:
    """One unmasked (server-to-client) frame, FIN set."""
    head = bytes([0x80 | opcode])
    n = len(payload)
    if n < 126:
        head += bytes([n])
    elif n < 1 << 16:
        head += bytes([126]) + struct.pack(">H", n)
    else:
        head += bytes([127]) + struct.pack(">Q", n)
    return head + payload


async def ws_send_text(writer: asyncio.StreamWriter, text: str) -> None:
    writer.write(_ws_frame(0x1, text.encode("utf-8")))
    await writer.drain()


async def ws_send_close(writer: asyncio.StreamWriter, code: int = 1000) -> None:
    writer.write(_ws_frame(0x8, struct.pack(">H", code)))
    await writer.drain()


async def ws_recv(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> str | None:
    """Next text payload from the client; None once the peer closes.

    Control frames are handled inline: ping is answered with pong, close
    with a close echo.  Client frames must be masked per the RFC; an
    unmasked frame, a frame or reassembled message longer than the request
    body limit, or a text message that is not UTF-8 ends the connection
    (None), so no client can make the server buffer without bound.
    """
    buffer = b""
    while True:
        try:
            head = await reader.readexactly(2)
        except (asyncio.IncompleteReadError, ConnectionError):
            return None
        fin = bool(head[0] & 0x80)
        opcode = head[0] & 0x0F
        if not head[1] & 0x80:
            return None  # unmasked client frame
        n = head[1] & 0x7F
        try:
            if n == 126:
                n = struct.unpack(">H", await reader.readexactly(2))[0]
            elif n == 127:
                n = struct.unpack(">Q", await reader.readexactly(8))[0]
            if len(buffer) + n > _MAX_BODY_BYTES:
                return None
            mask = await reader.readexactly(4)
            payload = await reader.readexactly(n) if n else b""
        except (asyncio.IncompleteReadError, ConnectionError):
            return None
        payload = _unmask(payload, mask)
        if opcode == 0x8:  # close
            try:
                await ws_send_close(writer)
            except (ConnectionError, RuntimeError):
                pass
            return None
        if opcode == 0x9:  # ping -> pong
            writer.write(_ws_frame(0xA, payload))
            await writer.drain()
            continue
        if opcode == 0xA:  # unsolicited pong
            continue
        buffer += payload
        if not fin:
            continue
        try:
            return buffer.decode("utf-8")
        except UnicodeDecodeError:
            return None
