"""A signed dense vector is copied once between its array and the frame,
and a broadcast in flight holds no copy of it.

``encode_payload`` hands on a dense vector's own memory, ``_signed`` hashes
the payload's buffers with one incremental SHA-256 and appends the signature
as one more buffer, and ``ReliableEndpoint.send`` wraps them in an unjoined
``transport.Frame``, which the simulator joins once, on delivery.  Joining
the encoded payload, or the body and its signature, would double the peak: a
6.3 MB model or masked update then makes a fresh 6.3 MB temporary per
message, and in the threaded TCP process each one page-faults anew.
tracemalloc pins the budget: signing, sending and delivering a dense vector
allocates at most 1.25 times the vector's size.

A pending message and a frame in flight keep the payload's buffers, so a
model broadcast to k sites holds one vector until it is delivered, not k
frames.  Since the bytes are read only on delivery, a sent vector must not
change until then; the stamped golden runs check that the runner keeps to it.

Over TCP a frame is never joined: ``TcpNode.send`` hands its header and
buffers to ``sendmsg``, so a send allocates almost nothing; joining the
frame would allocate the whole vector again.  The coordinator's masked fold
sums the cohort's words into one copy and decodes it in place, so it makes
one vector; decoding into a new array would make two.

A run whose updates are all sparse keeps its model sparse to the end: the
coordinator signs it, sends it for evaluation and returns it as it is, the
sites score it on their holdouts' own columns, the pooled baseline keeps
only its trained words and the params file is written block by block.  So
such a run, its baseline, their scoring and their params files together
allocate less than one dense model.
"""

import hashlib
import socket
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from test_golden import GOLDEN_CASES, _run_golden

from fedmesh import runner, transport
from fedmesh.aggregation import AggregationStrategy, SparseVector
from fedmesh.data import PartitionPlan, partition, synthetic_corpus
from fedmesh.model import TrainConfig, evaluate
from fedmesh.privacy import sum_masked
from fedmesh.runner import FederationSpec, _signed, run_centralized, run_federation
from fedmesh.simnet import SimEndpoint, SimNetConfig, SimNetwork
from fedmesh.tcpnet import TcpNode
from fedmesh.transport import (
    MSG_TASK_ASSIGN,
    MSG_UPDATE_SUBMIT,
    Frame,
    Payload,
    ReliableEndpoint,
    _pack_envelope,
    encode_frame,
    encode_payload,
)
from fedmesh.trustops import provision, write_params

WORDS = 3 * 2**18
BUDGET = 1.25
SITES = [f"site-{i}" for i in range(1, 9)]
VECTORS = {
    "f64": lambda: np.random.default_rng(5).normal(size=WORDS),
    "u64": lambda: np.random.default_rng(6).integers(0, 2**63, size=WORDS, dtype=np.uint64),
}


def peak_share(vector: np.ndarray) -> float:
    """Peak bytes allocated by signing and sending *vector* and delivering it
    to a receiving handler, over its size."""
    kit = provision([("site-1", "client")], key_seed=3)["site-1"]
    net = SimNetwork(SimNetConfig())
    server = ReliableEndpoint(net.endpoint("server"))
    received = []
    server.on_message = lambda src, msg_type, payload: received.append(len(payload))
    site = ReliableEndpoint(net.endpoint("site-1"))
    doc = {"round": 1, "weight": 1.0}
    tracemalloc.start()
    try:
        site.send("server", MSG_UPDATE_SUBMIT, _signed(doc, vector, kit))
        net.run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(received) == 1 and received[0] > vector.nbytes
    return peak / vector.nbytes


@pytest.mark.parametrize("kind", sorted(VECTORS))
def test_signing_and_sending_copies_a_dense_vector_once(kind):
    share = peak_share(VECTORS[kind]())
    assert 1.0 <= share <= BUDGET, share


@pytest.mark.parametrize("kind", sorted(VECTORS))
@pytest.mark.parametrize("join", ["encoded payload", "body and signature"])
def test_the_budget_catches_either_join(kind, join, monkeypatch):
    if join == "encoded payload":
        monkeypatch.setattr(runner, "encode_payload",
                            lambda doc, vector: Payload(bytes(encode_payload(doc, vector))))
    else:
        monkeypatch.setattr(runner, "Payload", lambda *parts: Payload(b"".join(parts)))
    assert peak_share(VECTORS[kind]()) > 1.9


def held_share(vector: np.ndarray) -> float:
    """Bytes still held after one signed *vector* is sent to eight simulator
    endpoints and before any frame is delivered, over the vector's size."""
    kit = provision([("server", "server")], key_seed=3)["server"]
    net = SimNetwork(SimNetConfig())
    server = ReliableEndpoint(net.endpoint("server"))
    for site in SITES:
        net.endpoint(site)
    doc = {"round": 1, "masked": []}
    tracemalloc.start()
    try:
        payload = _signed(doc, vector, kit)
        for site in SITES:
            server.send(site, MSG_TASK_ASSIGN, payload)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(server._pending) == len(SITES)
    return held / vector.nbytes


@pytest.mark.parametrize("kind", sorted(VECTORS))
def test_a_pending_broadcast_holds_one_payload(kind):
    assert held_share(VECTORS[kind]()) < 2.0


@pytest.mark.parametrize("kind", sorted(VECTORS))
def test_the_held_budget_catches_kept_frames(kind, monkeypatch):
    # Each message's frame joined at send and kept whole until delivered.
    monkeypatch.setattr(transport, "Frame",
                        lambda msg_type, *parts: Frame(msg_type, b"".join(parts)))
    assert held_share(VECTORS[kind]()) > 7.0


def tcp_send_share(vector: np.ndarray, join: bool = False) -> float:
    """Peak bytes allocated by one TcpNode.send of a signed frame of *vector*
    to a loopback peer that drains it, over the vector's size.  *join* makes
    the socket join the buffers it is handed, the copy a joined send makes."""
    kit = provision([("server", "server")], key_seed=3)["server"]
    frame = Frame(MSG_TASK_ASSIGN, _pack_envelope(MSG_TASK_ASSIGN, "server", 0),
                  *_signed({"round": 1}, vector, kit).parts)
    node = TcpNode("server", bind=("127.0.0.1", 0))
    peer = socket.create_connection(("127.0.0.1", node.port), timeout=10.0)
    try:
        routed = []
        node.set_receive_handler(lambda *frame: routed.append(frame))
        peer.sendall(encode_frame(MSG_UPDATE_SUBMIT, _pack_envelope(
            MSG_UPDATE_SUBMIT, "site-1", 0), b"hello"))
        assert node.run_until(lambda: routed, timeout_s=5.0)
        if join:
            sock = node._conns["site-1"]
            node._conns["site-1"] = SimpleNamespace(
                sendmsg=lambda buffers: sock.send(b"".join(buffers)),
                shutdown=sock.shutdown, close=sock.close)
        sink, drained = memoryview(bytearray(1 << 16)), [0]

        def drain():  # into one buffer, so the peer allocates nothing per read
            while drained[0] < len(frame) and (got := peer.recv_into(sink)):
                drained[0] += got

        reader = threading.Thread(target=drain)
        reader.start()
        tracemalloc.start()
        try:
            node.send("site-1", frame)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        reader.join(timeout=10.0)
        assert drained[0] == len(frame)
    finally:
        peer.close()
        node.close()
    return peak / vector.nbytes


@pytest.mark.parametrize("kind", sorted(VECTORS))
def test_a_tcp_send_copies_no_dense_vector(kind):
    assert tcp_send_share(VECTORS[kind]()) < 0.1


def test_the_tcp_send_budget_catches_a_joined_frame():
    assert tcp_send_share(VECTORS["u64"](), join=True) >= 1.0


def test_the_masked_fold_makes_one_vector():
    rng = np.random.default_rng(7)
    masked = [rng.integers(0, 2**64, size=WORDS, dtype=np.uint64) for _ in range(3)]
    tracemalloc.start()
    try:
        total = sum_masked(masked)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert total.dtype == np.float64
    assert 1.0 <= peak / total.nbytes < 1.5  # decoding into a new array makes 2.0


def test_a_sparse_run_to_its_params_files_allocates_less_than_one_model(tmp_path):
    train = TrainConfig(feature_dim=1 << 17, batch_size=16)
    ids = ["site-1", "site-2", "site-3"]
    corpus = synthetic_corpus(60, seed=21)
    holdout = synthetic_corpus(20, seed=22).sentences
    spec = FederationSpec(
        shards=dict(zip(ids, partition(corpus, PartitionPlan("equal-n", 3, seed=1)))),
        train=train, strategy=AggregationStrategy("fedavg"), rounds=2, k=3, m=3,
        deadline_ms=30_000.0, server_id="server", holdouts=dict.fromkeys(ids, holdout),
        kits=provision([("server", "server")] + [(c, "client") for c in ids], key_seed=5))
    tracemalloc.start()
    try:
        result = run_federation(spec)
        central = run_centralized(corpus.sentences, train, spec.rounds, spec.seeds)
        for name, params in (("federated", result.final_params), ("central", central)):
            evaluate(params, holdout, train)
            write_params(tmp_path / f"{name}.params", params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < train.dims * 8, peak / (train.dims * 8)
    assert type(result.final_params) is type(central) is SparseVector
    assert all(pair is not None for pair in result.cross_site.values())


class _Stamped:
    """A frame and the SHA-256 of its bytes when sent.  Joining it, as the
    simulator does on delivery, logs whether its bytes are still those."""

    def __init__(self, frame, log: list[bool]):
        self.frame, self.log = frame, log
        self.digest = hashlib.sha256(bytes(frame)).digest()

    def __len__(self) -> int:
        return len(self.frame)

    def __bytes__(self) -> bytes:
        data = bytes(self.frame)
        self.log.append(hashlib.sha256(data).digest() == self.digest)
        return data


def stamp_sends(monkeypatch) -> list[bool]:
    """Stamp every frame at SimEndpoint.send; the log of their deliveries."""
    log: list[bool] = []
    send = SimEndpoint.send
    monkeypatch.setattr(SimEndpoint, "send",
                        lambda ep, dst, data: send(ep, dst, _Stamped(data, log)))
    return log


@pytest.mark.parametrize("case", ["fedavg", "geo-median"])
def test_the_bytes_delivered_are_the_bytes_sent(case, tmp_path, monkeypatch):
    delivered = stamp_sends(monkeypatch)
    config_text, corpus_seeds, rows, params = GOLDEN_CASES[case]
    assert _run_golden(tmp_path, config_text, corpus_seeds) == (rows, params)
    assert delivered and all(delivered)


def test_the_stamp_catches_a_vector_changed_in_flight(monkeypatch):
    delivered = stamp_sends(monkeypatch)
    net = SimNetwork(SimNetConfig())
    ReliableEndpoint(net.endpoint("server"))
    site = ReliableEndpoint(net.endpoint("site-1"))
    vector = np.linspace(1.0, 2.0, 8)
    site.send("server", MSG_UPDATE_SUBMIT, encode_payload({"round": 1}, vector))
    vector[3] = -1.0
    net.run()
    assert delivered == [False, True]  # the update, then its ack
