"""Bit-exact message framing and at-most-once reliable delivery.

Wire frame layout (big-endian lengths):

    magic    4 bytes  "FHN1"
    version  1 byte   0x02
    msg_type 1 byte
    length   4 bytes  payload byte count (<= 64 MiB)
    payload  `length` bytes: an envelope

An envelope is a head, then the inner payload (empty in a transport ack):

    sender_len 2 bytes | sender UTF-8 | seq 8 bytes | crc 4 bytes

Each byte has one integrity check, made by the layer that writes it.  The
frame codec checks the header's form (magic, version, length bound); the
envelope's CRC-32 covers the msg_type byte and the rest of the head; nothing
in the transport checks the inner payload.  Every payload handed to
ReliableEndpoint must therefore carry its own check: the runner signs them
all, and a payload whose signature fails is acked, then rejected by the node.

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
its live entries without densifying unless the dense kind wins.

On the send side a payload is a Payload: its buffers in wire order, never
joined.  They are the doc head, the doc, the vector head and the vector's
own memory (a sparse vector's index and value arrays).  A signed payload
(runner._signed) appends a 64-byte Ed25519 signature over the SHA-256 of
those buffers, taken with one incremental hash, so the receiver hashes the
bytes it got and never re-encodes.  A buffer may be a view of a live array,
which must not change until every frame carrying it is delivered or
dropped: a frame keeps the payload's buffers until a backend reads it, and
a retransmission sends the same frame again.

Reliable delivery numbers each sender's messages per destination from 0;
receivers ack every data frame inside their window whose envelope checks
and deduplicate by (sender, seq), senders retransmit on an exponential
backoff until acked or retries run out.

A transmission costs at most one join and one split.  A pending message
keeps one unjoined Frame (its envelope head and the payload's buffers),
handed to the raw endpoint on every transmission.  TCP writes its buffers
with sendmsg and never joins it; the simulator joins it on delivery, so a
dropped frame is never joined and a broadcast to k sites holds one
payload, not k frames.
The raw endpoint (the TCP reader, or the simulator on delivery) runs
decode_frame once per frame and hands the receive handler (src, msg_type,
payload view), src being the node the frame came from; the envelope's inner
payload is a view as well, and decode_payload makes the one owned copy.
"""

from __future__ import annotations

import heapq
import struct
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Protocol

import numpy as np

from . import kvdoc
from .aggregation import SparseVector, Vector, sparse_fits

MAGIC = b"FHN1"
VERSION = 0x02
MAX_PAYLOAD = 64 * 1024 * 1024
HEADER_LEN = len(MAGIC) + 1 + 1 + 4

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
# A frame's buffer grows by this much at a time as its bytes arrive, or by all
# the rest under two steps: CPython over-allocates a bytearray grown by < 1/8.
_READ_STEP = 1 << 20
_ZEROS = memoryview(bytes(2 * _READ_STEP))


class CorruptFrame(ValueError):
    """A malformed frame header (magic, version, length bound), envelope or
    payload, or an envelope whose CRC-32 does not match."""


def encode_frame(msg_type: int, *parts) -> bytes:
    """One frame whose payload is the concatenation of *parts*, allocated once
    with each part copied into it once."""
    return b"".join((Frame(msg_type, *parts).header, *parts))


class Frame:
    """A frame not yet joined: its msg_type, header and payload ``parts``.

    Building it checks the msg_type and the 64 MiB bound.  len() is the
    frame's byte count and frame[i] its byte i, read without joining;
    bytes() is encode_frame's one join, made by the backend where it reads
    the bytes.  Not iterable, like Payload."""

    __slots__ = ("msg_type", "parts", "header")
    __iter__ = None

    def __init__(self, msg_type: int, *parts):
        if not 0 <= msg_type <= 0xFF:
            raise ValueError(f"msg_type out of range: {msg_type}")
        length = sum(memoryview(part).nbytes for part in parts)
        if length > MAX_PAYLOAD:
            raise ValueError(f"payload of {length} bytes exceeds 64 MiB bound")
        self.msg_type, self.parts = msg_type, parts
        self.header = MAGIC + bytes((VERSION, msg_type)) + struct.pack(">I", length)

    def __len__(self) -> int:
        return HEADER_LEN + int.from_bytes(self.header[6:], "big")

    def __getitem__(self, i: int) -> int:
        for part in (self.header, *self.parts):
            view = memoryview(part).cast("B")
            if 0 <= i < len(view):
                return view[i]
            i -= len(view)
        raise IndexError("frame index out of range")

    def __bytes__(self) -> bytes:
        return encode_frame(self.msg_type, *self.parts)


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


def decode_frame(data: bytes | bytearray | memoryview) -> tuple[int, memoryview]:
    """Decode exactly one frame: (msg_type, payload view into *data*, not a
    copy).  CorruptFrame on a malformed header or on any length but the
    header's."""
    data = memoryview(data)
    if len(data) < HEADER_LEN or len(data) != HEADER_LEN + _payload_length(data):
        raise CorruptFrame(f"{len(data)} bytes are not one whole frame")
    return data[5], data[HEADER_LEN:]


def read_frames(recv_into: Callable[[memoryview], int]) -> Iterator[tuple[int, memoryview]]:
    """Yield (msg_type, payload view) for each frame of a byte stream.

    *recv_into(view)* writes up to len(view) bytes at the head of *view* and
    returns how many, 0 at the end of the stream.  Each header is parsed
    once and the frame's one buffer is filled straight from the stream, then
    decode_frame splits it once.  The buffer holds under 2 * _READ_STEP bytes
    more than have arrived and grows in place, so a header declaring a large
    frame costs memory only as its bytes come.  Ends quietly at the end of the
    stream, dropping a cut-off frame; CorruptFrame on a bad frame.
    """
    header = memoryview(bytearray(HEADER_LEN))
    while _fill(recv_into, header):
        total = HEADER_LEN + _payload_length(header)
        frame = bytearray(header)
        while len(frame) < total:
            have, left = len(frame), total - len(frame)
            frame += _ZEROS[:left if left < 2 * _READ_STEP else _READ_STEP]
            if not _fill(recv_into, memoryview(frame)[have:]):
                return
        yield decode_frame(frame)


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


class Payload:
    """An encoded payload's buffers in wire order, ``parts``; len() is their
    byte count and bytes() their join.  Not iterable on purpose: list() and
    star unpacking take len() as an item count and would preallocate eight
    bytes per payload byte."""

    __slots__ = ("parts",)

    def __init__(self, *parts):
        self.parts = parts

    def __len__(self) -> int:
        return sum(memoryview(part).nbytes for part in self.parts)

    def __bytes__(self) -> bytes:
        return b"".join(self.parts)


def encode_payload(doc: dict[str, Any], vector: Vector | None = None) -> Payload:
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
    return Payload(*parts)


def _f64_frame(vector: Vector) -> list:
    """Kind 3 from the live words (nonzero bit pattern) when fewer than a third
    are live, else kind 1.  A SparseVector's stored +0.0 entries are not live,
    so its bytes are exactly its dense form's, and it densifies only for kind 1."""
    sparse = isinstance(vector, SparseVector)
    values = np.ascontiguousarray(vector.values if sparse else vector, dtype="<f8")
    live = values.view(np.uint64) != 0
    if not sparse_fits(np.count_nonzero(live), len(vector)):
        dense = np.ascontiguousarray(vector.to_dense(), dtype="<f8") if sparse else values
        return [struct.pack(">BI", VECTOR_F64, len(dense)), dense.data]
    indices = vector.indices[live] if sparse else np.flatnonzero(live)
    head = struct.pack(">BII", VECTOR_SPARSE_F64, len(vector), len(indices))
    return [head, indices.astype("<u4").data, values[live].data]


def decode_payload(payload: bytes | memoryview) -> tuple[dict[str, Any], Vector | None]:
    """The document and vector of one joined payload.  A vector is copied
    out of *payload* once, on purpose: the body need not be 8-byte aligned,
    and an add.reduce over an unaligned float64 view of 786k words took
    0.46 ms against 0.25 ms aligned (numpy 2.4, 2-vCPU Xeon VM)."""
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

    `send` takes a Frame, or its bytes, and reads them once: TCP writes the
    Frame's buffers as they are, the simulator joins it (bytes(data)) on
    delivery.  The backend checks each received frame's header once, where
    it arrives, drops anything that is not exactly one well-formed frame,
    and calls the receive handler with (src, msg_type, payload view), where
    src names the node the frame came from.
    Implementations must invoke the receive handler and scheduled callbacks
    on a single logical thread.
    """

    name: str

    def send(self, dst: str, data: Frame | bytes) -> None: ...
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
    attempts: int


def _pack_envelope(msg_type: int, sender: str, seq: int) -> bytes:
    """The envelope head, ending in the CRC-32 of the message type and the rest
    of the head; the inner payload follows it in the frame."""
    sender_bytes = sender.encode("utf-8")
    head = struct.pack(">H", len(sender_bytes)) + sender_bytes + struct.pack(">Q", seq)
    return head + struct.pack(">I", zlib.crc32(bytes((msg_type,)) + head))


def unpack_envelope(msg_type: int, data: bytes | memoryview) -> tuple[str, int, memoryview]:
    """Split a frame's envelope into (sender, seq, inner view); CorruptFrame if
    it is malformed or its CRC-32 does not match *msg_type* and its head."""
    data = memoryview(data)
    try:
        (n,) = struct.unpack(">H", data[:2])
        seq, crc = struct.unpack(">QI", data[2 + n:14 + n])
        sender = str(data[2:2 + n], "utf-8")
    except (struct.error, UnicodeDecodeError) as exc:
        raise CorruptFrame(f"malformed envelope: {exc}") from exc
    if crc != zlib.crc32(bytes((msg_type,)) + data[:10 + n]):
        raise CorruptFrame("envelope checksum mismatch")
    return sender, seq, data[14 + n:]


@dataclass
class _Pending:
    dst: str
    frame: Frame  # unjoined: the envelope head, then the payload's buffers
    attempts: int
    timer: object | None
    on_result: Callable[[DeliveryReceipt], None] | None


class ReliableEndpoint:
    """Ack/retry/dedup layer over a raw endpoint.

    Outgoing messages are retransmitted on a backoff of base * 2^attempt
    until the peer's transport ack arrives or max_retries retransmissions
    are spent.  Incoming data frames inside the window are acked and
    delivered to the application at most once per (sender, seq); a frame
    whose envelope fails its CRC is dropped un-acked, and the sender
    retransmits it.

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
        payload: Payload,
        on_result: Callable[[DeliveryReceipt], None] | None = None,
    ) -> int:
        """Queue a reliable send; the receipt callback fires on ack or failure."""
        seq = self._next_seq.get(dst, 0)
        frame = Frame(msg_type, _pack_envelope(msg_type, self.name, seq), *payload.parts)
        self._next_seq[dst] = seq + 1
        self._pending[dst, seq] = _Pending(dst, frame, 0, None, on_result)
        self._transmit((dst, seq))
        return seq

    def resend(self, dst: str) -> None:
        """Send every message pending to *dst* again now; each keeps its backoff timer."""
        for pending in list(self._pending.values()):
            if pending.dst == dst:
                self.raw.send(dst, pending.frame)

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
                pending.on_result(DeliveryReceipt(ok=False, attempts=pending.attempts))
            return
        self._transmit(key)

    def _on_raw(self, src: str, msg_type: int, payload: memoryview) -> None:
        try:
            sender, seq, inner = unpack_envelope(msg_type, payload)
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
                pending.on_result(DeliveryReceipt(ok=True, attempts=pending.attempts))
            return
        if sender != src:
            return  # a data frame speaks only for the node it came from
        mark, bits = self._seen.get(sender, (0, 0))
        if seq >= mark + DEDUP_WINDOW:
            return  # past the window: not acked, so the sender retransmits it
        ack = _pack_envelope(MSG_TRANSPORT_ACK, sender, seq)
        self.raw.send(sender, Frame(MSG_TRANSPORT_ACK, ack))
        bit = 1 << (seq - mark) if seq >= mark else 0
        if not bit or bits & bit:
            return  # seen before: acked again, delivered once
        bits |= bit
        run = (~bits & (bits + 1)).bit_length() - 1  # trailing seen seqs
        self._seen[sender] = (mark + run, bits >> run)
        if self.on_message is not None:
            self.on_message(sender, msg_type, inner)
