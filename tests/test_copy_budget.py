"""A signed dense vector is copied once between its array and the frame.

``encode_payload`` hands on a dense vector's own memory, ``_signed`` hashes
the payload's buffers with one incremental SHA-256 and appends the signature
as one more buffer, and ``ReliableEndpoint.send`` copies them once, into the
frame.  Joining the encoded payload, or the body and its signature, would
double the peak: a 6.3 MB model or masked update then makes a fresh 6.3 MB
temporary per message, and in the threaded TCP process each one page-faults
anew.  tracemalloc pins the budget: signing and sending a dense vector
allocates at most 1.25 times the vector's size.
"""

import tracemalloc

import numpy as np
import pytest

from fedmesh import runner
from fedmesh.runner import _signed
from fedmesh.simnet import SimNetConfig, SimNetwork
from fedmesh.transport import MSG_UPDATE_SUBMIT, Payload, ReliableEndpoint, encode_payload
from fedmesh.trustops import provision

WORDS = 3 * 2**18
BUDGET = 1.25
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
