"""Framed two-party wire protocol for running a KEP between processes.

Frames are length-prefixed: a 32-bit big-endian payload length, one type byte
(0x01 Hello, 0x02 PublicKeyList, 0x03 KeyConfirm, 0x7F Error), then the
payload.  A session is three strictly alternating exchanges, initiator first:

1. Hello carries the spec digest; both sides abort on mismatch before any key
   material flows.
2. PublicKeyList carries the concatenated canonical element serializations of
   the sender's step-2 messages.
3. KeyConfirm carries SHA-256(extracted key || role byte), the role byte
   preventing reflection; each side checks the peer's confirm against its own
   derived key.

Both parties derive their secrets from the shared spec seed (initiator plays
Alice), so a loopback session reproduces the in-process transcript exactly.
The received public key list is compared byte for byte with the encoding of
the locally recomputed one; element encodings are canonical, so any other
list, whether corrupted, truncated or a valid but different one, makes the
receiver send an Error frame and raise ConfirmMismatch rather than diverge
silently.
"""

from __future__ import annotations

import hashlib
import socket
import struct
from dataclasses import dataclass
from typing import Optional

from .platforms import encode_element
from .protocols import (
    ProtocolSpec,
    Transcript,
    run,
    spec_digest,
    work_platform,
)

__all__ = [
    "FRAME_HELLO",
    "FRAME_PUBLIC_KEYS",
    "FRAME_KEY_CONFIRM",
    "FRAME_ERROR",
    "SessionConfig",
    "SessionError",
    "SessionTimeout",
    "MalformedFrame",
    "SpecMismatch",
    "ConfirmMismatch",
    "encode_frame",
    "decode_frame",
    "read_frame",
    "session_run",
    "serve_once",
    "connect_and_run",
]

FRAME_HELLO = 0x01
FRAME_PUBLIC_KEYS = 0x02
FRAME_KEY_CONFIRM = 0x03
FRAME_ERROR = 0x7F

_KNOWN_TYPES = {FRAME_HELLO, FRAME_PUBLIC_KEYS, FRAME_KEY_CONFIRM, FRAME_ERROR}

MAX_FRAME_PAYLOAD = 16 * 1024 * 1024

ROLE_INITIATOR = b"\x00"
ROLE_RESPONDER = b"\x01"


class SessionError(RuntimeError):
    pass


class SessionTimeout(SessionError):
    """The peer did not complete a protocol phase in time."""


class MalformedFrame(SessionError):
    """Truncated frame, oversize length, or unknown type byte."""


class SpecMismatch(SessionError):
    """The peers' Hello digests disagree."""


class ConfirmMismatch(SessionError):
    """Key confirmation failed: derived keys differ or data was tampered."""


@dataclass(frozen=True)
class SessionConfig:
    """One endpoint's view of a session."""

    role: str  # "initiator" | "responder"
    spec: ProtocolSpec
    host: str = "127.0.0.1"
    port: int = 0
    timeout: float = 30.0

    def __post_init__(self):
        if self.role not in ("initiator", "responder"):
            raise ValueError("role must be 'initiator' or 'responder'")


def encode_frame(ftype: int, payload: bytes) -> bytes:
    """Frame ``payload``; MalformedFrame, before any byte is built, for a
    payload over MAX_FRAME_PAYLOAD, which every receiver refuses."""
    if ftype not in _KNOWN_TYPES:
        raise ValueError(f"unknown frame type {ftype:#x}")
    if len(payload) > MAX_FRAME_PAYLOAD:
        raise MalformedFrame(f"frame payload of {len(payload)} bytes exceeds the cap")
    return struct.pack(">IB", len(payload), ftype) + payload


def _check_header(header: bytes) -> tuple[int, int]:
    """(type, payload length) of a 5-byte frame header; MalformedFrame for an
    unknown type or a length over MAX_FRAME_PAYLOAD."""
    length, ftype = struct.unpack_from(">IB", header)
    if ftype not in _KNOWN_TYPES:
        raise MalformedFrame(f"unknown frame type {ftype:#x}")
    if length > MAX_FRAME_PAYLOAD:
        raise MalformedFrame(f"frame payload of {length} bytes exceeds the cap")
    return ftype, length


def decode_frame(data: bytes) -> tuple[int, bytes, int]:
    """Decode one frame from a buffer; returns (type, payload, bytes used)."""
    if len(data) < 5:
        raise MalformedFrame("short frame header")
    ftype, length = _check_header(data)
    if len(data) < 5 + length:
        raise MalformedFrame("truncated frame payload")
    return ftype, data[5 : 5 + length], 5 + length


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except socket.timeout:
            raise SessionTimeout("timed out waiting for the peer") from None
        if not chunk:
            raise MalformedFrame("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> tuple[int, bytes]:
    ftype, length = _check_header(_recv_exact(sock, 5))
    return ftype, _recv_exact(sock, length)


def _send(sock: socket.socket, ftype: int, payload: bytes) -> None:
    sock.sendall(encode_frame(ftype, payload))


def _expect(sock: socket.socket, ftype: int) -> bytes:
    got, payload = read_frame(sock)
    if got == FRAME_ERROR:
        raise SessionError(f"peer error: {payload.decode(errors='replace')}")
    if got != ftype:
        raise MalformedFrame(f"expected frame {ftype:#x}, got {got:#x}")
    return payload


def _confirm_hash(key: bytes, role: bytes) -> bytes:
    return hashlib.sha256(key + role).digest()


def _exchange(sock: socket.socket, cfg: SessionConfig) -> Transcript:
    """Run the three protocol phases over an open socket."""
    sock.settimeout(cfg.timeout)
    initiator = cfg.role == "initiator"
    digest = bytes.fromhex(spec_digest(cfg.spec))

    def swap(ftype: int, payload: bytes) -> bytes:
        # strict alternation: initiator writes first in every phase
        if initiator:
            _send(sock, ftype, payload)
            return _expect(sock, ftype)
        incoming = _expect(sock, ftype)
        _send(sock, ftype, payload)
        return incoming

    peer_digest = swap(FRAME_HELLO, digest)
    if peer_digest != digest:
        _send(sock, FRAME_ERROR, b"spec digest mismatch")
        raise SpecMismatch("peer Hello digest does not match the local spec")

    # Local computation: both secrets derive from the shared seed, so the
    # full transcript is reproducible on each side; this endpoint "owns"
    # only its role's half of the exchange.
    transcript = run(cfg.spec)
    platform = work_platform(cfg.spec)
    own_msgs = transcript.alice_messages if initiator else transcript.bob_messages
    own_payload = b"".join(encode_element(platform, x) for x in own_msgs)

    peer_payload = swap(FRAME_PUBLIC_KEYS, own_payload)

    # encodings are canonical, so equal elements have equal bytes
    expected_peer = transcript.bob_messages if initiator else transcript.alice_messages
    if peer_payload != b"".join(encode_element(platform, x) for x in expected_peer):
        _send(sock, FRAME_ERROR, b"public key list mismatch")
        raise ConfirmMismatch("peer public keys disagree with the spec/seed")

    own_role = ROLE_INITIATOR if initiator else ROLE_RESPONDER
    peer_role = ROLE_RESPONDER if initiator else ROLE_INITIATOR
    peer_confirm = swap(FRAME_KEY_CONFIRM, _confirm_hash(transcript.extracted_key, own_role))
    if peer_confirm != _confirm_hash(transcript.extracted_key, peer_role):
        raise ConfirmMismatch("peer key confirmation does not match")

    return transcript


def serve_once(cfg: SessionConfig, bound_socket: Optional[socket.socket] = None) -> Transcript:
    """Accept exactly one connection and run the responder side."""
    owns = bound_socket is None
    server = bound_socket or _bind(cfg.host, cfg.port, cfg.timeout)
    try:
        try:
            conn, _addr = server.accept()
        except socket.timeout:
            raise SessionTimeout("no peer connected in time") from None
        try:
            return _exchange(conn, cfg)
        finally:
            conn.close()
    finally:
        if owns:
            server.close()


def _bind(host: str, port: int, timeout: float) -> socket.socket:
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    server.bind((host, port))
    server.listen(1)
    server.settimeout(timeout)
    return server


def connect_and_run(cfg: SessionConfig) -> Transcript:
    """Connect to a waiting responder and run the initiator side."""
    with socket.create_connection((cfg.host, cfg.port), timeout=cfg.timeout) as sock:
        return _exchange(sock, cfg)


def session_run(cfg: SessionConfig) -> Transcript:
    """Run one session in the configured role."""
    if cfg.role == "initiator":
        return connect_and_run(cfg)
    return serve_once(cfg)
