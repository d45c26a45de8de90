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
bit-exact; u64 vectors always go dense.  Kind 3 decodes to an
aggregation.SparseVector; that type encodes as its dense form would, from
its live entries without densifying unless the dense kind wins.  A
signed payload (runner._signed) is the encoded payload followed by a 64-byte
Ed25519 signature over its SHA-256, so the receiver hashes the bytes it got
and never re-encodes.

Reliable delivery wraps application payloads in an envelope carrying the
sender id and a sequence number, counted per destination from 0; receivers
ack every data frame inside their window and deduplicate by (sender, seq),
senders retransmit on an exponential backoff until acked or retries run out.

A message costs one build on send and one check on receive.  encode_frame
takes the envelope head and the payload as separate parts, allocates the
frame once and chains the CRC over the parts.  The raw endpoint (the TCP
reader, or the simulator on delivery) runs decode_frame once per frame and
hands the receive handler (src, msg_type, payload view), src being the node
the frame came from; the envelope's inner payload is a view as well, and
decode_payload makes the one owned copy.
"""

from __future__ import annotations

import heapq
import struct
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Protocol

import numpy as np

from . import kvdoc
from .aggregation import SparseVector, Vector

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

# Seqs per sender that a receiver accepts past its mark (see ReliableEndpoint).
DEDUP_WINDOW = 1024
# A frame's buffer starts at most this large and doubles as its bytes arrive.
_FIRST_READ = 1 << 20


class NeedMoreBytes(Exception):
    """The buffer ends before the frame does; feed more bytes and retry."""


class CorruptFrame(ValueError):
    """Bad magic, version, length bound, or checksum."""


def encode_frame(msg_type: int, *parts) -> bytes:
    """One frame whose payload is the concatenation of *parts*.

    The frame is allocated once and each part copied into it once; the CRC
    is chained over the parts, which equals the CRC of their concatenation.
    """
    if not 0 <= msg_type <= 0xFF:
        raise ValueError(f"msg_type out of range: {msg_type}")
    length = sum(memoryview(part).nbytes for part in parts)
    if length > MAX_PAYLOAD:
        raise ValueError(f"payload of {length} bytes exceeds 64 MiB bound")
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    header = MAGIC + bytes((VERSION, msg_type)) + struct.pack(">I", length)
    return b"".join((header, *parts, struct.pack(">I", crc)))


def _payload_length(header: memoryview) -> int:
    """Check a whole header (magic, version, length bound); its payload length."""
    if bytes(header[:4]) != MAGIC:
        raise CorruptFrame("bad magic")
    if header[4] != VERSION:
        raise CorruptFrame(f"unsupported version {header[4]}")
    (length,) = struct.unpack(">I", header[6:10])
    if length > MAX_PAYLOAD:
        raise CorruptFrame(f"declared length {length} exceeds 64 MiB bound")
    return length


def decode_frame(data: bytes | bytearray | memoryview) -> tuple[int, memoryview, int]:
    """Decode one frame from the head of *data*: (msg_type, payload, consumed).

    The payload is a view into *data*, not a copy.  Raises NeedMoreBytes when
    the buffer is a strict prefix of a valid frame and CorruptFrame on any
    malformed header or checksum mismatch.  Never reads past the declared
    length.
    """
    data = memoryview(data)
    if len(data) < HEADER_LEN:
        if bytes(data[:len(MAGIC)]) != MAGIC[:len(data)]:
            raise CorruptFrame("bad magic")
        raise NeedMoreBytes
    length = _payload_length(data)
    total = HEADER_LEN + length + TRAILER_LEN
    if len(data) < total:
        raise NeedMoreBytes
    payload = data[HEADER_LEN:HEADER_LEN + length]
    (checksum,) = struct.unpack(">I", data[HEADER_LEN + length:total])
    if checksum != zlib.crc32(payload):
        raise CorruptFrame("checksum mismatch")
    return data[5], payload, total


def read_frames(recv_into: Callable[[memoryview], int]) -> Iterator[tuple[int, memoryview]]:
    """Yield (msg_type, payload view) for each frame of a byte stream.

    *recv_into(view)* writes up to len(view) bytes at the head of *view* and
    returns how many, 0 at the end of the stream.  Each header is parsed
    once and the frame's one buffer is filled straight from the stream, then
    decode_frame checks it once.  The buffer holds at most _FIRST_READ bytes
    more than have arrived and doubles as they do, so a header declaring a
    large frame costs memory only as its bytes come.  Ends quietly at the end
    of the stream, dropping a cut-off frame; CorruptFrame on a bad frame.
    """
    header = memoryview(bytearray(HEADER_LEN))
    while _fill(recv_into, header):
        total = HEADER_LEN + _payload_length(header) + TRAILER_LEN
        frame = bytearray(header)
        while len(frame) < total:
            have = len(frame)
            frame += bytes(min(max(have, _FIRST_READ), total - have))
            if not _fill(recv_into, memoryview(frame)[have:]):
                return
        msg_type, payload, _ = decode_frame(frame)
        yield msg_type, payload


def _fill(recv_into: Callable[[memoryview], int], view: memoryview) -> bool:
    """Fill all of *view*; False when the stream ends first."""
    have = 0
    while have < len(view):
        got = recv_into(view[have:])
        if not got:
            return False
        have += got
    return True


VECTOR_NONE = 0
VECTOR_F64 = 1
VECTOR_U64 = 2
VECTOR_SPARSE_F64 = 3

# A sparse vector may not decode to more words than a dense frame can carry.
_MAX_DIMS = MAX_PAYLOAD // 8


def encode_payload(doc: dict[str, Any], vector: Vector | None = None) -> bytes:
    """Serialize a control document plus an optional 64-bit word vector."""
    doc_bytes = kvdoc.emit_doc(doc).encode("utf-8")
    parts = [struct.pack(">I", len(doc_bytes)), doc_bytes]
    if vector is None:
        parts.append(struct.pack(">BI", VECTOR_NONE, 0))
    elif isinstance(vector, SparseVector) or vector.dtype == np.float64:
        parts += _f64_frame(vector)
    elif vector.dtype == np.uint64:
        parts.append(struct.pack(">BI", VECTOR_U64, len(vector)))
        parts.append(np.ascontiguousarray(vector, dtype="<u8").data)
    else:
        raise ValueError(f"unsupported vector dtype {vector.dtype}")
    return b"".join(parts)


def _f64_frame(vector: Vector) -> list:
    """Kind 3 from the live words (nonzero bit pattern) when fewer than a third
    are live, else kind 1.  A SparseVector's stored +0.0 entries are not live,
    so its bytes are exactly its dense form's, and it densifies only for kind 1."""
    sparse = isinstance(vector, SparseVector)
    values = np.ascontiguousarray(vector.values if sparse else vector, dtype="<f8")
    live = values.view(np.uint64) != 0
    if 3 * np.count_nonzero(live) >= len(vector):
        dense = np.ascontiguousarray(vector.to_dense(), dtype="<f8") if sparse else values
        return [struct.pack(">BI", VECTOR_F64, len(dense)), dense.data]
    indices = vector.indices[live] if sparse else np.flatnonzero(live)
    head = struct.pack(">BII", VECTOR_SPARSE_F64, len(vector), len(indices))
    return [head, indices.astype("<u4").tobytes(), values[live].tobytes()]


def decode_payload(payload: bytes | memoryview) -> tuple[dict[str, Any], Vector | None]:
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


def _decode_sparse(dims: int, body: bytes | memoryview) -> SparseVector:
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
    values = np.frombuffer(body, dtype="<f8", count=nnz, offset=4 + 4 * nnz)
    return SparseVector(dims, indices.astype(np.intp), values.astype(np.float64))


class RawEndpoint(Protocol):
    """What a transport backend must provide to host reliable messaging.

    `send` takes one whole frame.  The backend checks each received frame
    once, where it arrives, drops anything that is not exactly one valid
    frame, and calls the receive handler with (src, msg_type, payload view),
    where src names the node the frame came from.
    Implementations must invoke the receive handler and scheduled callbacks
    on a single logical thread.
    """

    name: str

    def send(self, dst: str, data: bytes) -> None: ...
    def schedule(self, delay_ms: float, fn: Callable[[], None]) -> object: ...
    def cancel(self, handle: object) -> None: ...
    def now_ms(self) -> float: ...
    def set_receive_handler(self, fn: Callable[[str, int, memoryview], None]) -> None: ...


class Timers:
    """Pending callbacks ordered by (due time, insertion sequence).

    Both transports schedule through this heap: the simulator on its virtual
    clock, TCP on monotonic milliseconds.  A handle is the heap entry itself;
    cancelling clears its callback and the entry is skipped when it surfaces.
    """

    def __init__(self):
        self._heap: list[list] = []
        self._seq = 0

    def schedule(self, at_ms: float, fn: Callable[[], None]) -> object:
        entry = [at_ms, self._seq, fn]
        self._seq += 1
        heapq.heappush(self._heap, entry)
        return entry

    def cancel(self, handle: object) -> None:
        if isinstance(handle, list):
            handle[2] = None

    def next_time(self) -> float:
        """Due time of the earliest live callback; infinity when none."""
        heap = self._heap
        while heap and heap[0][2] is None:
            heapq.heappop(heap)
        return heap[0][0] if heap else float("inf")

    def pop(self) -> tuple[float, Callable[[], None]] | None:
        """Remove and return the earliest live (due time, callback), or None."""
        while self._heap:
            at_ms, _, fn = heapq.heappop(self._heap)
            if fn is not None:
                return at_ms, fn
        return None


@dataclass
class DeliveryReceipt:
    ok: bool
    dst: str
    msg_type: int
    attempts: int
    error: str | None = None


def _pack_envelope(sender: str, seq: int) -> bytes:
    """The envelope head; the inner payload follows it in the frame."""
    sender_bytes = sender.encode("utf-8")
    return struct.pack(">H", len(sender_bytes)) + sender_bytes + struct.pack(">Q", seq)


def unpack_envelope(data: bytes | memoryview) -> tuple[str, int, memoryview]:
    """Split an envelope into (sender, seq, inner view); CorruptFrame if malformed."""
    data = memoryview(data)
    try:
        (n,) = struct.unpack(">H", data[:2])
        sender = str(data[2:2 + n], "utf-8")
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
    are spent.  Incoming data frames inside the window are acked and
    delivered to the application at most once per (sender, seq).

    A sender numbers its messages to each destination from 0, so the seqs
    one receiver gets from a sender have no gaps that stay open.  Per sender,
    the receiver keeps a mark (every seq below it has been seen) and a bitmap
    of the seqs seen in the DEDUP_WINDOW seqs from the mark; the mark
    advances over seqs seen in a row, so the state stays two integers per
    sender.  A frame at or past the window's end is dropped un-acked, and
    the sender retransmits it.  An ack is matched by the node it came from
    and its seq.
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
        self.on_message: Callable[[str, int, memoryview], None] | None = None
        self._next_seq: dict[str, int] = {}  # destination -> its next seq
        self._pending: dict[tuple[str, int], _Pending] = {}
        self._seen: dict[str, tuple[int, int]] = {}  # sender -> (mark, window bitmap)
        raw.set_receive_handler(self._on_raw)

    def send(
        self,
        dst: str,
        msg_type: int,
        payload: bytes,
        on_result: Callable[[DeliveryReceipt], None] | None = None,
    ) -> int:
        """Queue a reliable send; the receipt callback fires on ack or failure."""
        seq = self._next_seq.get(dst, 0)
        self._next_seq[dst] = seq + 1
        frame = encode_frame(msg_type, _pack_envelope(self.name, seq), payload)
        self._pending[dst, seq] = _Pending(dst, msg_type, frame, 0, None, on_result)
        self._transmit((dst, seq))
        return seq

    def _transmit(self, key: tuple[str, int]) -> None:
        pending = self._pending.get(key)
        if pending is None:
            return
        pending.attempts += 1
        self.raw.send(pending.dst, pending.frame)
        delay = self.backoff_base_ms * (2 ** (pending.attempts - 1))
        pending.timer = self.raw.schedule(delay, lambda: self._on_timeout(key))

    def _on_timeout(self, key: tuple[str, int]) -> None:
        pending = self._pending.get(key)
        if pending is None:
            return
        if pending.attempts > self.max_retries:
            del self._pending[key]
            if pending.on_result is not None:
                pending.on_result(DeliveryReceipt(
                    ok=False, dst=pending.dst, msg_type=pending.msg_type,
                    attempts=pending.attempts, error="retries exhausted",
                ))
            return
        self._transmit(key)

    def _on_raw(self, src: str, msg_type: int, payload: memoryview) -> None:
        try:
            sender, seq, inner = unpack_envelope(payload)
        except CorruptFrame:
            return
        if msg_type == MSG_TRANSPORT_ACK:
            # An ack echoes the data frame's own (sender, seq); src is the
            # node that acked, so one peer cannot ack what was sent to another.
            if sender != self.name:
                return
            pending = self._pending.pop((src, seq), None)
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
        if sender != src:
            return  # a data frame speaks only for the node it came from
        mark, bits = self._seen.get(sender, (0, 0))
        if seq >= mark + DEDUP_WINDOW:
            return  # past the window: not acked, so the sender retransmits it
        self.raw.send(sender, encode_frame(MSG_TRANSPORT_ACK, _pack_envelope(sender, seq)))
        bit = 1 << (seq - mark) if seq >= mark else 0
        if not bit or bits & bit:
            return  # seen before: acked again, delivered once
        bits |= bit
        run = (~bits & (bits + 1)).bit_length() - 1  # trailing seen seqs
        self._seen[sender] = (mark + run, bits >> run)
        if self.on_message is not None:
            self.on_message(sender, msg_type, inner)
