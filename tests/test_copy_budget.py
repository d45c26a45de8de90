"""A signed dense vector is copied once between its array and the frame,
and a message waiting for its ack holds no copy of it.

``encode_payload`` hands on a dense vector's own memory, ``_signed`` hashes
the payload's buffers with one incremental SHA-256 and appends the signature
as one more buffer, and ``ReliableEndpoint.send`` copies them once, into the
frame.  Joining the encoded payload, or the body and its signature, would
double the peak: a 6.3 MB model or masked update then makes a fresh 6.3 MB
temporary per message, and in the threaded TCP process each one page-faults
anew.  tracemalloc pins the budget: signing and sending a dense vector
allocates at most 1.25 times the vector's size.

A pending message keeps the payload's buffers, not its frame, so a model
broadcast to k sites holds one vector until every site acks, not k frames.
"""

import tracemalloc

import numpy as np
import pytest

from fedmesh import runner, transport
from fedmesh.runner import _signed
from fedmesh.simnet import SimNetConfig, SimNetwork
from fedmesh.transport import (
    MSG_TASK_ASSIGN,
    MSG_UPDATE_SUBMIT,
    Payload,
    ReliableEndpoint,
    encode_payload,
)
from fedmesh.trustops import provision

WORDS = 3 * 2**18
BUDGET = 1.25
SITES = [f"site-{i}" for i in range(1, 9)]
VECTORS = {
    "f64": lambda: np.random.default_rng(5).normal(size=WORDS),
    "u64": lambda: np.random.default_rng(6).integers(0, 2**63, size=WORDS, dtype=np.uint64),
}


def peak_share(vector: np.ndarray) -> float:
    """Peak bytes allocated by signing and sending *vector*, over its size."""
    kit = provision([("site-1", "client")], key_seed=3)["site-1"]
    net = SimNetwork(SimNetConfig())
    net.endpoint("server")
    site = ReliableEndpoint(net.endpoint("site-1"))
    doc = {"client_id": "site-1", "round": 1, "weight": 1.0, "masked": False}
    tracemalloc.start()
    try:
        site.send("server", MSG_UPDATE_SUBMIT, _signed(doc, vector, kit))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
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


class _Drop:
    """A raw endpoint that keeps nothing it is given: no frame, no timer."""

    name = "server"

    def send(self, dst, data):
        pass

    def schedule(self, delay_ms, fn):
        return None

    def cancel(self, handle):
        pass

    def now_ms(self):
        return 0.0

    def set_receive_handler(self, fn):
        pass


def held_share(vector: np.ndarray) -> float:
    """Bytes still held after one signed *vector* is sent to eight sites and
    none has acked, over the vector's size."""
    kit = provision([("server", "server")], key_seed=3)["server"]
    server = ReliableEndpoint(_Drop())
    doc = {"round": 1, "invited": SITES, "masked": []}
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
    pending = transport._Pending
    monkeypatch.setattr(transport, "_Pending", lambda dst, msg_type, parts, *rest: pending(
        dst, msg_type, (b"".join(parts),), *rest))
    assert held_share(VECTORS[kind]()) > 7.0
