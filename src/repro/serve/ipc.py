"""Length-prefixed binary framing between the gateway and its workers.

The cluster tier (:mod:`repro.serve.cluster`) speaks a minimal IPC
protocol over ``socket.socketpair()``: every message is one *frame* — a
4-byte big-endian unsigned length followed by that many bytes of compact
JSON (the same encoder the HTTP protocol uses, so float values round-trip
bit-exactly and worker results are byte-identical to in-process ones).

Requests carry ``{"id": n, "op": "...", ...}``; responses echo the ``id``
with ``{"id": n, "ok": true/false, ...}``, which is what lets the
gateway multiplex many in-flight operations over a single socket per
worker.  This module only owns the framing; message semantics live in
:mod:`repro.serve.cluster`.

Both sides are provided: blocking helpers for the (single-threaded)
worker loop and ``asyncio`` helpers for the gateway.  A frame larger than
``MAX_FRAME_BYTES`` is a protocol violation and raises
:class:`IpcError` — a runaway length prefix must not trigger a
multi-gigabyte allocation.

The same framing crosses the host boundary unchanged:
:mod:`repro.serve.transport` layers connect timeouts, heartbeats,
reconnect backoff and generation-fenced handshakes on top of these exact
frames for gateway federation.  A socketpair fd and a TCP socket are
interchangeable here — only liveness semantics differ (process death
EOFs both, but only TCP can go half-open, which is the transport
layer's problem).
"""

from __future__ import annotations

import asyncio
import socket
import struct
from typing import Any

from repro.serve import protocol

#: Frame header: one big-endian u32 payload length.
_HEADER = struct.Struct("!I")

#: Upper bound on a single frame's payload (64 MiB).
MAX_FRAME_BYTES = 64 * 1024 * 1024


class IpcError(RuntimeError):
    """A malformed or oversized IPC frame (protocol violation)."""


def frame(payload: bytes) -> bytes:
    """``payload`` with its length prefix prepended (one ``send`` worth)."""
    if len(payload) > MAX_FRAME_BYTES:
        raise IpcError(f"frame of {len(payload)} bytes exceeds {MAX_FRAME_BYTES}")
    return _HEADER.pack(len(payload)) + payload


def encode_message(message: dict) -> bytes:
    """A JSON message as one ready-to-send frame."""
    return frame(protocol.dumps(message))


# ------------------------------------------------------------ blocking side
def _recv_exactly(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly ``n`` bytes; ``None`` on a clean EOF at a boundary."""
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if remaining == n:
                return None  # clean EOF between frames
            raise IpcError(f"connection closed mid-frame ({remaining} bytes short)")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_message(sock: socket.socket, message: dict) -> None:
    """Serialise and send one message (blocking)."""
    sock.sendall(encode_message(message))


def recv_message(sock: socket.socket) -> dict | None:
    """Receive one message (blocking); ``None`` when the peer closed."""
    header = _recv_exactly(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise IpcError(f"peer announced a {length}-byte frame (cap {MAX_FRAME_BYTES})")
    payload = _recv_exactly(sock, length) if length else b""
    if payload is None:  # pragma: no cover - only reachable with length > 0
        raise IpcError("connection closed before frame payload")
    message = protocol.loads(payload, context="ipc frame")
    if not isinstance(message, dict):
        raise IpcError(f"ipc frame must be a JSON object, got {type(message).__name__}")
    return message


# ------------------------------------------------------------- asyncio side
async def read_message(reader: asyncio.StreamReader) -> dict | None:
    """Read one message from a stream; ``None`` when the peer closed."""
    try:
        header = await reader.readexactly(_HEADER.size)
    except (asyncio.IncompleteReadError, ConnectionResetError):
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise IpcError(f"peer announced a {length}-byte frame (cap {MAX_FRAME_BYTES})")
    try:
        payload = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError as error:
        raise IpcError("connection closed mid-frame") from error
    message = protocol.loads(payload, context="ipc frame")
    if not isinstance(message, dict):
        raise IpcError(f"ipc frame must be a JSON object, got {type(message).__name__}")
    return message


async def write_message(writer: asyncio.StreamWriter, message: dict) -> None:
    """Serialise, send, and flush one message on a stream."""
    writer.write(encode_message(message))
    await writer.drain()


def message_payload(message: dict) -> dict[str, Any]:
    """The message without its routing envelope (``id``/``op`` keys)."""
    return {k: v for k, v in message.items() if k not in ("id", "op")}
