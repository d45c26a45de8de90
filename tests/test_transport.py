import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmesh.simnet import SimNetConfig, SimNetwork
from fedmesh.transport import (
    CorruptFrame,
    FrameDecoder,
    MSG_TASK_ASSIGN,
    MSG_TRANSPORT_ACK,
    MSG_UPDATE_SUBMIT,
    NeedMoreBytes,
    ReliableEndpoint,
    VECTOR_F64,
    VECTOR_SPARSE_F64,
    VECTOR_U64,
    decode_frame,
    decode_payload,
    encode_frame,
    encode_payload,
)


class TestFrameCodec:
    def test_empty_payload_layout(self):
        frame = encode_frame(0x01, b"")
        assert len(frame) == 14
        assert frame[:4] == b"FHN1"
        assert frame[4] == 0x01  # version
        assert frame[5] == 0x01  # msg_type
        assert frame[6:10] == b"\x00\x00\x00\x00"

    def test_round_trip_random_payloads(self):
        rng = random.Random(0)
        for _ in range(10_000):
            msg_type = rng.randrange(256)
            payload = rng.randbytes(rng.randrange(0, 64))
            msg_type2, payload2, consumed = decode_frame(encode_frame(msg_type, payload))
            assert (msg_type2, payload2) == (msg_type, payload)
            assert consumed == 14 + len(payload)

    def test_every_payload_bit_flip_detected(self):
        payload = b"exhaustive"
        frame = bytearray(encode_frame(0x03, payload))
        start = 10  # payload offset
        for byte_idx in range(start, start + len(payload)):
            for bit in range(8):
                corrupted = bytearray(frame)
                corrupted[byte_idx] ^= 1 << bit
                with pytest.raises(CorruptFrame):
                    decode_frame(bytes(corrupted))

    def test_truncated_needs_more(self):
        frame = encode_frame(0x02, b"hello")
        for cut in range(len(frame)):
            prefix = frame[:cut]
            try:
                decode_frame(prefix)
            except NeedMoreBytes:
                continue
            except CorruptFrame:
                pytest.fail(f"prefix of {cut} bytes misread as corrupt")
            pytest.fail(f"prefix of {cut} bytes decoded as complete")

    def test_bad_magic_and_version(self):
        frame = bytearray(encode_frame(0x01, b"x"))
        wrong_magic = b"XXXX" + bytes(frame[4:])
        with pytest.raises(CorruptFrame):
            decode_frame(wrong_magic)
        frame[4] = 0x02
        with pytest.raises(CorruptFrame):
            decode_frame(bytes(frame))

    def test_oversize_declared_length_rejected(self):
        frame = bytearray(encode_frame(0x01, b""))
        frame[6:10] = (65 * 1024 * 1024).to_bytes(4, "big")
        with pytest.raises(CorruptFrame):
            decode_frame(bytes(frame))

    def test_fuzz_never_crashes(self):
        rng = random.Random(1)
        for _ in range(2000):
            blob = rng.randbytes(rng.randrange(0, 40))
            try:
                decode_frame(blob)
            except (NeedMoreBytes, CorruptFrame):
                pass

    def test_stream_decoder_reassembles_across_chunks(self):
        frames = [encode_frame(i % 7, bytes([i]) * i) for i in range(20)]
        blob = b"".join(frames)
        decoder = FrameDecoder()
        got = []
        rng = random.Random(2)
        i = 0
        while i < len(blob):
            step = rng.randrange(1, 9)
            got.extend(decoder.feed(blob[i:i + step]))
            i += step
        assert got == [(i % 7, bytes([i]) * i, frames[i]) for i in range(20)]


class TestPayloadEnvelope:
    def test_doc_only(self):
        doc = {"round": 3, "invited": ["a", "b"], "ok": True}
        got_doc, got_vec = decode_payload(encode_payload(doc))
        assert got_doc == doc and got_vec is None

    def test_float_vector(self):
        vec = np.linspace(-1, 1, 9)
        doc, got = decode_payload(encode_payload({"round": 1}, vec))
        assert doc == {"round": 1}
        np.testing.assert_array_equal(got, vec)
        assert got.dtype == np.float64

    def test_word_vector(self):
        vec = np.arange(5, dtype=np.uint64) * np.uint64(2**60)
        _, got = decode_payload(encode_payload({}, vec))
        np.testing.assert_array_equal(got, vec)
        assert got.dtype == np.uint64

    def test_malformed_rejected(self):
        with pytest.raises(CorruptFrame):
            decode_payload(b"\x00\x00\x00\xffjunk")


def vector_kind(payload: bytes) -> int:
    (doc_len,) = struct.unpack(">I", payload[:4])
    return payload[4 + doc_len]


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


# Edge values the sparse codec must carry bit for bit.
EDGE_FLOATS = [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               float("inf"), float("-inf"), float("nan")]


@st.composite
def float_vectors(draw):
    dims = draw(st.integers(1, 300))
    third = dims // 3
    count = draw(st.sampled_from([0, max(third - 1, 0), third, third + 1])
                 | st.integers(0, dims))
    positions = draw(st.permutations(range(dims)))[:count]
    values = draw(st.lists(
        st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(EDGE_FLOATS),
        min_size=count, max_size=count,
    ))
    vector = np.zeros(dims)
    vector[positions] = values
    return vector


def sparse_payload(dims: int, indices, values, nnz: int | None = None) -> bytes:
    """A hand-built kind-3 payload; nnz defaults to the true entry count."""
    head = encode_payload({"round": 1})[:-5]  # drop the kind-0 vector header
    nnz = len(indices) if nnz is None else nnz
    return (head + struct.pack(">BII", VECTOR_SPARSE_F64, dims, nnz)
            + np.asarray(indices, dtype="<u4").tobytes()
            + np.asarray(values, dtype="<f8").tobytes())


class TestSparseVectors:
    @given(float_vectors())
    @settings(max_examples=200, deadline=None)
    def test_round_trip_is_bit_exact_and_picks_the_smaller_kind(self, vector):
        payload = encode_payload({"round": 2}, vector)
        doc, got = decode_payload(payload)
        assert doc == {"round": 2}
        assert same_bits(got, vector)
        live = int(np.count_nonzero(vector.view(np.uint64)))
        expected = VECTOR_SPARSE_F64 if 3 * live < len(vector) else VECTOR_F64
        assert vector_kind(payload) == expected

    def test_threshold_is_a_third_of_the_dimension(self):
        below, at = np.zeros(300), np.zeros(300)
        below[:99] = 1.5
        at[:100] = 1.5
        assert vector_kind(encode_payload({}, below)) == VECTOR_SPARSE_F64
        assert vector_kind(encode_payload({}, at)) == VECTOR_F64

    def test_negative_zero_is_a_live_coordinate(self):
        vector = np.zeros(64)
        vector[7] = -0.0
        payload = encode_payload({}, vector)
        assert vector_kind(payload) == VECTOR_SPARSE_F64
        _, got = decode_payload(payload)
        assert np.signbit(got[7]) and same_bits(got, vector)

    def test_all_zero_vector_carries_no_entries(self):
        payload = encode_payload({}, np.zeros(3 * 2**18))
        assert vector_kind(payload) == VECTOR_SPARSE_F64
        assert payload.endswith(struct.pack(">I", 0))
        assert len(payload) < 64

    def test_non_contiguous_input(self):
        vector = np.zeros(40)
        vector[::4] = np.arange(10.0)
        _, got = decode_payload(encode_payload({}, vector[::2]))
        assert same_bits(got, np.ascontiguousarray(vector[::2]))

    @pytest.mark.parametrize("fill", ["zeros", "one-word", "dense"])
    def test_word_vectors_stay_dense(self, fill):
        vector = np.zeros(90, dtype=np.uint64)
        if fill == "one-word":
            vector[3] = np.uint64(2**63 + 5)
        elif fill == "dense":
            vector[:] = np.arange(90, dtype=np.uint64) * np.uint64(2**57)
        payload = encode_payload({}, vector)
        assert vector_kind(payload) == VECTOR_U64
        _, got = decode_payload(payload)
        assert same_bits(got, vector)

    def test_hand_built_body_decodes(self):
        _, got = decode_payload(sparse_payload(10, [1, 4, 9], [-0.0, 2.5, 5e-324]))
        expected = np.zeros(10)
        expected[[1, 4, 9]] = [-0.0, 2.5, 5e-324]
        assert same_bits(got, expected)

    @pytest.mark.parametrize("payload", [
        pytest.param(sparse_payload(10, [1, 4], [1.0, 2.0])[:-1], id="truncated-values"),
        pytest.param(sparse_payload(10, [], [])[:-2], id="truncated-nnz"),
        pytest.param(sparse_payload(10, [1, 4], [1.0, 2.0], nnz=3), id="nnz-above-body"),
        pytest.param(sparse_payload(10, [1, 4], [1.0, 2.0], nnz=1), id="nnz-below-body"),
        pytest.param(sparse_payload(10, [4, 1], [1.0, 2.0]), id="unsorted"),
        pytest.param(sparse_payload(10, [4, 4], [1.0, 2.0]), id="duplicate"),
        pytest.param(sparse_payload(10, [1, 10], [1.0, 2.0]), id="index-at-dims"),
        pytest.param(sparse_payload(10, [2**32 - 1], [1.0]), id="index-u32-max"),
        pytest.param(sparse_payload(2**32 - 1, [], []), id="dims-beyond-frame-bound"),
    ])
    def test_malformed_sparse_body_rejected(self, payload):
        with pytest.raises(CorruptFrame):
            decode_payload(payload)

    def test_trailing_bytes_after_empty_vector_rejected(self):
        with pytest.raises(CorruptFrame):
            decode_payload(encode_payload({"round": 1}) + b"\x00")


def _pair(config, names=("a", "b"), **rel_kwargs):
    net = SimNetwork(config)
    endpoints = {}
    inboxes = {}
    for name in names:
        rel = ReliableEndpoint(net.endpoint(name), **rel_kwargs)
        inbox = []
        rel.on_message = (
            lambda src, mt, payload, inbox=inbox: inbox.append((src, mt, payload))
        )
        endpoints[name] = rel
        inboxes[name] = inbox
    return net, endpoints, inboxes


class TestSimNetwork:
    def test_identical_traces_for_same_seed(self):
        def run(seed):
            net, eps, inboxes = _pair(SimNetConfig((1.0, 9.0), 0.3, seed))
            for i in range(25):
                eps["a"].send("b", 0x01, bytes([i]))
            net.run()
            return net.delivery_trace, [p for _, _, p in inboxes["b"]]

        assert run(77) == run(77)
        assert run(77) != run(78)

    def test_fixed_latency_is_exact(self):
        net = SimNetwork(SimNetConfig((5.0, 5.0), 0.0, 1))
        a, b = net.endpoint("a"), net.endpoint("b")
        got = []
        b.set_receive_handler(lambda data: got.append(net.now_ms))
        a.send("b", b"x")
        net.schedule(100.0, lambda: a.send("b", b"y"))
        net.run()
        assert got == [5.0, 105.0]

    def test_partition_window_blocks_directionally(self):
        config = SimNetConfig((1.0, 1.0), 0.0, 1, partitions=(("a", "b", 0.0, 50.0),))
        net = SimNetwork(config)
        a, b = net.endpoint("a"), net.endpoint("b")
        got = []
        b.set_receive_handler(lambda data: got.append((net.now_ms, data)))
        a.send("b", b"blocked")
        net.schedule(60.0, lambda: a.send("b", b"open"))
        net.run()
        assert got == [(61.0, b"open")]

    def test_unknown_endpoint_rejected(self):
        net = SimNetwork(SimNetConfig())
        a = net.endpoint("a")
        with pytest.raises(KeyError):
            a.send("ghost", b"x")


class TestReliableDelivery:
    def test_no_loss_single_transmission(self):
        net, eps, inboxes = _pair(SimNetConfig((2.0, 2.0), 0.0, 5))
        receipts = []
        eps["a"].send("b", MSG_TASK_ASSIGN, b"payload", receipts.append)
        net.run()
        assert len(inboxes["b"]) == 1
        assert receipts[0].ok and receipts[0].attempts == 1
        # one data frame + one ack in the trace
        assert len(net.delivery_trace) == 2

    def test_seeded_double_drop_delivers_on_third_attempt(self):
        # With latency fixed (no latency draws), seed 34 at drop_prob 0.6
        # yields drop decisions (drop, drop, pass, pass); replay the draw
        # sequence independently to pin the schedule, then check behaviour.
        replay = random.Random(34)
        pattern = [replay.random() < 0.6 for _ in range(4)]
        assert pattern == [True, True, False, False]

        net, eps, inboxes = _pair(
            SimNetConfig((2.0, 2.0), 0.6, 34), max_retries=5, backoff_base_ms=10.0
        )
        receipts = []
        eps["a"].send("b", MSG_TASK_ASSIGN, b"x", receipts.append)
        net.run()
        assert receipts and receipts[0].ok
        assert receipts[0].attempts == 3
        assert len(inboxes["b"]) == 1

    def test_retries_exhausted_reports_failure(self):
        net, eps, inboxes = _pair(
            SimNetConfig((1.0, 1.0), 0.999999, 9), max_retries=3, backoff_base_ms=5.0
        )
        receipts = []
        eps["a"].send("b", MSG_TASK_ASSIGN, b"x", receipts.append)
        net.run()
        assert receipts and not receipts[0].ok
        assert receipts[0].attempts == 4  # 1 try + 3 retries
        assert receipts[0].error == "retries exhausted"
        assert inboxes["b"] == []

    def test_duplicate_data_frames_processed_once(self):
        # Drop the first ack so the sender retransmits a frame the receiver
        # already handled; dedup must keep the application delivery single.
        for seed in range(500):
            replay = random.Random(seed)
            if [replay.random() < 0.45 for _ in range(4)] == [False, True, False, False]:
                break
        else:
            pytest.fail("no seed produces pass, drop-ack, pass, pass")
        net, eps, inboxes = _pair(
            SimNetConfig((2.0, 2.0), 0.45, seed), max_retries=5, backoff_base_ms=10.0
        )
        receipts = []
        eps["a"].send("b", MSG_TASK_ASSIGN, b"x", receipts.append)
        net.run()
        assert receipts and receipts[0].ok
        assert receipts[0].attempts == 2
        assert len(inboxes["b"]) == 1

    @pytest.mark.parametrize("frame", [
        encode_frame(MSG_UPDATE_SUBMIT, b"\xff\xff\x01"),
        encode_frame(MSG_TRANSPORT_ACK, b"\x00"),
        encode_frame(MSG_UPDATE_SUBMIT, b"\x00\x01a\x00\x00"),
        encode_frame(MSG_UPDATE_SUBMIT, b"\x00\x01\xff" + bytes(8)),
    ], ids=["long-sender", "short-ack", "short-seq", "bad-utf8"])
    def test_junk_envelope_dropped_and_simulator_keeps_running(self, frame):
        net, eps, inboxes = _pair(SimNetConfig((1.0, 1.0), 0.0, 4))
        receipts = []
        eps["a"].raw.send("b", frame)
        eps["a"].send("b", MSG_TASK_ASSIGN, b"after", receipts.append)
        net.run()
        assert inboxes["b"] == [("a", MSG_TASK_ASSIGN, b"after")]
        assert receipts and receipts[0].ok

    def test_backoff_is_exponential(self):
        net, eps, _ = _pair(
            SimNetConfig((1.0, 1.0), 0.999999, 10), max_retries=3, backoff_base_ms=50.0
        )
        sends = []
        raw_send = eps["a"].raw.send
        eps["a"].raw.send = lambda dst, data: (sends.append(net.now_ms), raw_send(dst, data))
        eps["a"].send("b", MSG_TASK_ASSIGN, b"x")
        net.run()
        gaps = [b - a for a, b in zip(sends, sends[1:])]
        assert gaps == [50.0, 100.0, 200.0]
