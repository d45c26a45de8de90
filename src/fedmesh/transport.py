"""Bit-exact message framing and at-most-once reliable delivery.

Wire frame layout (big-endian lengths):

    magic    4 bytes  "FHN1"
    version  1 byte   0x01
    msg_type 1 byte
    length   4 bytes  payload byte count (<= 64 MiB)
    payload  `length` bytes
    checksum 4 bytes  CRC32 of payload

Control payloads are a key/value document plus an optional vector:

    doc_len  4 bytes BE | doc UTF-8 | kind 1 byte | count 4 bytes BE | body

    kind 0  no vector; count is 0 and the body is empty
    kind 1  dense f64: count little-endian float64 words
    kind 2  dense u64: count little-endian uint64 words (masked updates)
    kind 3  sparse f64: count is the dimension; the body is nnz (4 bytes BE),
            nnz strictly increasing u32 LE indices, then nnz f64 LE values

A float64 vector goes sparse when fewer than a third of its words have a
nonzero bit pattern, so -0.0 is kept as a live word and decoding is
bit-exact; u64 vectors always go dense.  A signed payload (runner._signed)
is the encoded payload followed by a 64-byte Ed25519 signature over its
SHA-256, so the receiver hashes the bytes it got and never re-encodes.

Reliable delivery wraps application payloads in an envelope carrying the
sender id and a sequence number; receivers ack every data frame and
deduplicate by (sender, seq), senders retransmit on an exponential backoff
until acked or retries run out.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Protocol

import numpy as np

from . import kvdoc

MAGIC = b"FHN1"
VERSION = 0x01
MAX_PAYLOAD = 64 * 1024 * 1024
HEADER_LEN = len(MAGIC) + 1 + 1 + 4
TRAILER_LEN = 4

# Application message types; 0x00 is reserved for transport-level acks.
MSG_TRANSPORT_ACK = 0x00
MSG_REGISTER = 0x01
MSG_TASK_ASSIGN = 0x02
MSG_UPDATE_SUBMIT = 0x03
MSG_ACK = 0x04
MSG_ABORT = 0x05
MSG_EVAL_REQUEST = 0x06
MSG_EVAL_REPORT = 0x07

MSG_NAMES = {
    MSG_TRANSPORT_ACK: "TransportAck",
    MSG_REGISTER: "Register",
    MSG_TASK_ASSIGN: "TaskAssign",
    MSG_UPDATE_SUBMIT: "UpdateSubmit",
    MSG_ACK: "Ack",
    MSG_ABORT: "Abort",
    MSG_EVAL_REQUEST: "EvalRequest",
    MSG_EVAL_REPORT: "EvalReport",
}


class NeedMoreBytes(Exception):
    """The buffer ends before the frame does; feed more bytes and retry."""


class CorruptFrame(ValueError):
    """Bad magic, version, length bound, or checksum."""


def encode_frame(msg_type: int, payload: bytes) -> bytes:
    if not 0 <= msg_type <= 0xFF:
        raise ValueError(f"msg_type out of range: {msg_type}")
    if len(payload) > MAX_PAYLOAD:
        raise ValueError(f"payload of {len(payload)} bytes exceeds 64 MiB bound")
    header = MAGIC + bytes((VERSION, msg_type)) + struct.pack(">I", len(payload))
    return header + payload + struct.pack(">I", zlib.crc32(payload) & 0xFFFFFFFF)


def decode_frame(data: bytes | memoryview) -> tuple[int, bytes, int]:
    """Decode one frame from the head of *data*: (msg_type, payload, consumed).

    Raises NeedMoreBytes when the buffer is a strict prefix of a valid frame
    and CorruptFrame on any malformed header or checksum mismatch.  Never
    reads past the declared length.
    """
    data = memoryview(data)
    if len(data) < HEADER_LEN:
        if bytes(data[:len(MAGIC)]) != MAGIC[:len(data)]:
            raise CorruptFrame("bad magic")
        raise NeedMoreBytes
    if bytes(data[:4]) != MAGIC:
        raise CorruptFrame("bad magic")
    if data[4] != VERSION:
        raise CorruptFrame(f"unsupported version {data[4]}")
    msg_type = data[5]
    (length,) = struct.unpack(">I", data[6:10])
    if length > MAX_PAYLOAD:
        raise CorruptFrame(f"declared length {length} exceeds 64 MiB bound")
    total = HEADER_LEN + length + TRAILER_LEN
    if len(data) < total:
        raise NeedMoreBytes
    payload = bytes(data[HEADER_LEN:HEADER_LEN + length])
    (checksum,) = struct.unpack(">I", data[HEADER_LEN + length:total])
    if checksum != zlib.crc32(payload) & 0xFFFFFFFF:
        raise CorruptFrame("checksum mismatch")
    return msg_type, payload, total


class FrameDecoder:
    """Incremental decoder for frames arriving over a byte stream."""

    def __init__(self):
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[tuple[int, bytes, bytes]]:
        """Return each completed frame as (msg_type, payload, exact frame bytes)."""
        self._buf.extend(data)
        frames = []
        while self._buf:
            try:
                msg_type, payload, consumed = decode_frame(self._buf)
            except NeedMoreBytes:
                break
            frames.append((msg_type, payload, bytes(self._buf[:consumed])))
            del self._buf[:consumed]
        return frames


VECTOR_NONE = 0
VECTOR_F64 = 1
VECTOR_U64 = 2
VECTOR_SPARSE_F64 = 3

# A sparse vector may not decode to more words than a dense frame can carry.
_MAX_DIMS = MAX_PAYLOAD // 8


def encode_payload(doc: dict[str, Any], vector: np.ndarray | None = None) -> bytes:
    """Serialize a control document plus an optional 64-bit word array."""
    doc_bytes = kvdoc.emit_doc(doc).encode("utf-8")
    parts = [struct.pack(">I", len(doc_bytes)), doc_bytes]
    if vector is None:
        parts.append(struct.pack(">BI", VECTOR_NONE, 0))
    elif vector.dtype == np.float64:
        words = np.ascontiguousarray(vector, dtype="<f8")
        live = words.view(np.uint64) != 0
        nnz = int(np.count_nonzero(live))
        if 3 * nnz < len(words):
            (indices,) = np.nonzero(live)
            parts.append(struct.pack(">BII", VECTOR_SPARSE_F64, len(words), nnz))
            parts.append(indices.astype("<u4").tobytes())
            parts.append(words[indices].tobytes())
        else:
            parts.append(struct.pack(">BI", VECTOR_F64, len(words)))
            parts.append(words.data)
    elif vector.dtype == np.uint64:
        parts.append(struct.pack(">BI", VECTOR_U64, len(vector)))
        parts.append(np.ascontiguousarray(vector, dtype="<u8").data)
    else:
        raise ValueError(f"unsupported vector dtype {vector.dtype}")
    return b"".join(parts)


def decode_payload(payload: bytes | memoryview) -> tuple[dict[str, Any], np.ndarray | None]:
    try:
        (doc_len,) = struct.unpack(">I", payload[:4])
        doc = kvdoc.parse_doc(str(payload[4:4 + doc_len], "utf-8"))
        kind, count = struct.unpack(">BI", payload[4 + doc_len:9 + doc_len])
        body = payload[9 + doc_len:]
    except (struct.error, UnicodeDecodeError, kvdoc.DocError) as exc:
        raise CorruptFrame(f"malformed payload: {exc}") from exc
    if kind == VECTOR_NONE:
        if count or body:
            raise CorruptFrame("vector data without vector kind")
        return doc, None
    if kind == VECTOR_SPARSE_F64:
        return doc, _decode_sparse(count, body)
    if len(body) != count * 8:
        raise CorruptFrame(f"vector advertises {count} words, body has {len(body)} bytes")
    if kind == VECTOR_F64:
        return doc, np.frombuffer(body, dtype="<f8").astype(np.float64)
    if kind == VECTOR_U64:
        return doc, np.frombuffer(body, dtype="<u8").astype(np.uint64)
    raise CorruptFrame(f"unknown vector kind {kind}")


def _decode_sparse(dims: int, body: bytes | memoryview) -> np.ndarray:
    if dims > _MAX_DIMS:
        raise CorruptFrame(f"sparse vector of {dims} words exceeds the dense bound")
    if len(body) < 4:
        raise CorruptFrame("sparse vector body truncated")
    (nnz,) = struct.unpack(">I", body[:4])
    if len(body) != 4 + 12 * nnz:
        raise CorruptFrame(f"sparse vector advertises {nnz} entries, body has {len(body)} bytes")
    indices = np.frombuffer(body, dtype="<u4", count=nnz, offset=4)
    if nnz and (indices[-1] >= dims or np.any(indices[1:] <= indices[:-1])):
        raise CorruptFrame("sparse indices must be strictly increasing and below the dimension")
    vector = np.zeros(dims, dtype=np.float64)
    vector[indices] = np.frombuffer(body, dtype="<f8", count=nnz, offset=4 + 4 * nnz)
    return vector


class RawEndpoint(Protocol):
    """What a transport backend must provide to host reliable messaging.

    Implementations must invoke the receive handler and scheduled callbacks
    on a single logical thread.
    """

    name: str

    def send(self, dst: str, data: bytes) -> None: ...
    def schedule(self, delay_ms: float, fn: Callable[[], None]) -> object: ...
    def cancel(self, handle: object) -> None: ...
    def now_ms(self) -> float: ...
    def set_receive_handler(self, fn: Callable[[bytes], None]) -> None: ...


@dataclass
class DeliveryReceipt:
    ok: bool
    dst: str
    msg_type: int
    attempts: int
    error: str | None = None


def _pack_envelope(sender: str, seq: int, inner: bytes) -> bytes:
    sender_bytes = sender.encode("utf-8")
    return struct.pack(">H", len(sender_bytes)) + sender_bytes + struct.pack(">Q", seq) + inner


def unpack_envelope(data: bytes) -> tuple[str, int, bytes]:
    """Split an envelope into (sender, seq, inner); CorruptFrame if malformed."""
    try:
        (n,) = struct.unpack(">H", data[:2])
        sender = data[2:2 + n].decode("utf-8")
        (seq,) = struct.unpack(">Q", data[2 + n:10 + n])
    except (struct.error, UnicodeDecodeError) as exc:
        raise CorruptFrame(f"malformed envelope: {exc}") from exc
    return sender, seq, data[10 + n:]


@dataclass
class _Pending:
    dst: str
    msg_type: int
    frame: bytes
    attempts: int
    timer: object | None
    on_result: Callable[[DeliveryReceipt], None] | None


class ReliableEndpoint:
    """Ack/retry/dedup layer over a raw endpoint.

    Outgoing messages are retransmitted on a backoff of base * 2^attempt
    until the peer's transport ack arrives or max_retries retransmissions
    are spent.  Incoming data frames are always acked and delivered to the
    application at most once per (sender, seq).
    """

    def __init__(
        self,
        raw: RawEndpoint,
        max_retries: int = 5,
        backoff_base_ms: float = 50.0,
    ):
        self.raw = raw
        self.name = raw.name
        self.max_retries = max_retries
        self.backoff_base_ms = backoff_base_ms
        self.on_message: Callable[[str, int, bytes], None] | None = None
        self._next_seq = 0
        self._pending: dict[int, _Pending] = {}
        self._seen: set[tuple[str, int]] = set()
        raw.set_receive_handler(self._on_raw)

    def send(
        self,
        dst: str,
        msg_type: int,
        payload: bytes,
        on_result: Callable[[DeliveryReceipt], None] | None = None,
    ) -> int:
        """Queue a reliable send; the receipt callback fires on ack or failure."""
        seq = self._next_seq
        self._next_seq += 1
        frame = encode_frame(msg_type, _pack_envelope(self.name, seq, payload))
        self._pending[seq] = _Pending(dst, msg_type, frame, 0, None, on_result)
        self._transmit(seq)
        return seq

    def _transmit(self, seq: int) -> None:
        pending = self._pending.get(seq)
        if pending is None:
            return
        pending.attempts += 1
        self.raw.send(pending.dst, pending.frame)
        delay = self.backoff_base_ms * (2 ** (pending.attempts - 1))
        pending.timer = self.raw.schedule(delay, lambda: self._on_timeout(seq))

    def _on_timeout(self, seq: int) -> None:
        pending = self._pending.get(seq)
        if pending is None:
            return
        if pending.attempts > self.max_retries:
            del self._pending[seq]
            if pending.on_result is not None:
                pending.on_result(DeliveryReceipt(
                    ok=False, dst=pending.dst, msg_type=pending.msg_type,
                    attempts=pending.attempts, error="retries exhausted",
                ))
            return
        self._transmit(seq)

    def _on_raw(self, data: bytes) -> None:
        try:
            msg_type, payload, consumed = decode_frame(data)
            sender, seq, inner = unpack_envelope(payload)
        except (NeedMoreBytes, CorruptFrame):
            return
        if consumed != len(data):
            return
        if msg_type == MSG_TRANSPORT_ACK:
            if sender != self.name:
                return
            pending = self._pending.pop(seq, None)
            if pending is None:
                return
            if pending.timer is not None:
                self.raw.cancel(pending.timer)
            if pending.on_result is not None:
                pending.on_result(DeliveryReceipt(
                    ok=True, dst=pending.dst, msg_type=pending.msg_type,
                    attempts=pending.attempts,
                ))
            return
        # Ack echoes the data frame's own (sender, seq) so the source can
        # match it; this endpoint's identity rides in the routing layer.
        ack = encode_frame(MSG_TRANSPORT_ACK, _pack_envelope(sender, seq, b""))
        self.raw.send(sender, ack)
        if (sender, seq) in self._seen:
            return
        self._seen.add((sender, seq))
        if self.on_message is not None:
            self.on_message(sender, msg_type, inner)
