"""The names and call shapes the benchmark harness (perfbench/) patches.

The harness wraps fedmesh functions by module and attribute name from
outside the package; a rename or a changed call shape would silently stop
it measuring.  These tests resolve every name it patches, check that a
federation really calls the runner's sites through those names, and pin the
arguments its wrappers read.
"""

import importlib
import inspect
from collections import Counter
from pathlib import Path

import pytest

from fedmesh import runner
from fedmesh.aggregation import AggregationStrategy
from fedmesh.data import PartitionPlan, partition, synthetic_corpus
from fedmesh.model import TrainConfig
from fedmesh.privacy import SitePolicy
from fedmesh.runner import FederationSpec, run_federation
from fedmesh.simnet import SimEndpoint, SimNetConfig, SimNetwork
from fedmesh.tcpnet import TcpNode
from fedmesh.transport import (
    HEADER_LEN,
    MSG_TASK_ASSIGN,
    MSG_UPDATE_SUBMIT,
    Payload,
    ReliableEndpoint,
    _pack_envelope,
    decode_frame,
)
from fedmesh.trustops import provision

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture()
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing"), importlib.import_module("worker")


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_traced_site_resolves(harness):
    tracing, _ = harness
    for module, attr, _ in tracing.SITES:
        assert callable(_resolve(module, attr)), f"{module}.{attr}"


def test_every_patch_target_resolves(harness, monkeypatch):
    tracing, worker = harness
    targets = []
    monkeypatch.setattr(tracing, "patch", lambda module, attr, make: targets.append((module, attr)))
    worker.Probe().install()
    tracing.Tracer("names").install()
    assert {(module, attr) for module, attr, _ in tracing.SITES} <= set(targets)
    assert len(targets) > len(tracing.SITES)  # the probe's own patches were seen too
    for module, attr in targets:
        assert callable(_resolve(module, attr)), f"{module}.{attr}"


def _tiny_spec(policies: dict[str, SitePolicy]) -> FederationSpec:
    ids = ["site-1", "site-2"]
    shards = partition(synthetic_corpus(40, seed=3), PartitionPlan("equal-n", 2, seed=1))
    return FederationSpec(
        shards=dict(zip(ids, shards)),
        train=TrainConfig(feature_dim=1 << 10),
        strategy=AggregationStrategy("fedavg"),
        rounds=1, k=2, m=2, deadline_ms=5_000.0,
        kits=provision([("server", "server")] + [(c, "client") for c in ids], key_seed=4),
        server_id="server",
        policies=policies,
        holdouts=dict(zip(ids, shards)),
    )


def test_every_runner_site_is_called_through_its_patched_name(harness, monkeypatch):
    # A name that resolves can still be dead: a step function bound at class
    # definition, say, would never reach the patched module global.
    tracing, _ = harness
    calls = Counter()
    sites = [(module, attr) for module, attr, _ in tracing.SITES if module == "fedmesh.runner"]
    for module, attr in sites:
        *path, name = attr.split(".")
        owner = _resolve(module, ".".join(path)) if path else importlib.import_module(module)
        monkeypatch.setattr(owner, name, getattr(owner, name))  # restored after the test

        def make(fn, attr=attr):
            def counted(*args, **kwargs):
                calls[attr] += 1
                return fn(*args, **kwargs)
            return counted

        tracing.patch(module, attr, make)
    run_federation(_tiny_spec({}))
    # A masked cohort takes the mask_update/sum_masked path instead of aggregate.
    run_federation(_tiny_spec({
        cid: SitePolicy(site_id=cid, masking_enabled=True) for cid in ("site-1", "site-2")
    }))
    assert [attr for _, attr in sites if not calls[attr]] == []


def test_payload_lengths_the_harness_reads_are_byte_counts(monkeypatch):
    # tracing.py counts len() of what encode_payload returns and of the
    # payload ReliableEndpoint.send is given: both must be byte counts, and
    # the payload's bytes must be the tail of its frame, read where the frame
    # reaches the raw send (the first transmission goes out within send).
    # The probe there reads len() and byte 5 of the frame it is given.
    checked = Counter()
    encode_payload, send, raw_send = runner.encode_payload, ReliableEndpoint.send, SimEndpoint.send
    frames = []

    def capturing_raw_send(ep, dst, data):
        frames.append(data)
        raw_send(ep, dst, data)

    def checked_encode(doc, vector=None):
        payload = encode_payload(doc, vector)
        assert len(payload) == len(bytes(payload))
        checked["encode_payload"] += 1
        return payload

    def checked_send(rel, dst, msg_type, payload, **kwargs):
        frames.clear()
        seq = send(rel, dst, msg_type, payload, **kwargs)
        (frame,) = frames
        head = _pack_envelope(msg_type, rel.name, seq)
        assert len(frame) == HEADER_LEN + len(head) + len(payload) and frame[5] == msg_type
        assert bytes(frame)[HEADER_LEN + len(head):] == bytes(payload)
        checked["send"] += 1
        return seq

    monkeypatch.setattr(runner, "encode_payload", checked_encode)
    monkeypatch.setattr(ReliableEndpoint, "send", checked_send)
    monkeypatch.setattr(SimEndpoint, "send", capturing_raw_send)
    run_federation(_tiny_spec({}))
    run_federation(_tiny_spec({  # masked updates are dense u64 words
        cid: SitePolicy(site_id=cid, masking_enabled=True) for cid in ("site-1", "site-2")
    }))
    assert checked["send"] >= checked["encode_payload"] > 0  # a broadcast sends one payload


@pytest.mark.parametrize("method,params", [
    (ReliableEndpoint.send, ["self", "dst", "msg_type", "payload"]),
    (TcpNode.send, ["self", "dst", "data"]),
    (SimEndpoint.send, ["self", "dst", "data"]),
])
def test_wrapped_methods_keep_their_leading_parameters(method, params):
    assert list(inspect.signature(method).parameters)[:len(params)] == params


def _check_whole_frames(sent: list) -> None:
    # The probe reads len() and byte 5 of what the raw send is given, which
    # may be a Frame the backend joins later: both must read the joined frame.
    assert sent
    for data in sent:
        joined = bytes(data)
        msg_type, _ = decode_frame(joined)  # CorruptFrame unless exactly one frame
        assert len(data) == len(joined) and data[5] == msg_type


def test_raw_sends_get_whole_frames_on_the_simulator(monkeypatch):
    sent = []
    send = SimEndpoint.send
    monkeypatch.setattr(SimEndpoint, "send", lambda ep, dst, data: (sent.append(data),
                                                                     send(ep, dst, data)))
    net = SimNetwork(SimNetConfig())
    a, b = ReliableEndpoint(net.endpoint("a")), ReliableEndpoint(net.endpoint("b"))
    a.send("b", MSG_TASK_ASSIGN, Payload(b"task"))
    b.send("a", MSG_UPDATE_SUBMIT, Payload(b"update"))
    net.run()
    _check_whole_frames(sent)
    assert sorted(data[5] for data in sent) == [0, 0, MSG_TASK_ASSIGN, MSG_UPDATE_SUBMIT]


def test_raw_sends_get_whole_frames_over_tcp(monkeypatch):
    sent = []
    send = TcpNode.send
    monkeypatch.setattr(TcpNode, "send", lambda node, dst, data: (sent.append(data),
                                                                  send(node, dst, data)))
    server = ReliableEndpoint(TcpNode("server", bind=("127.0.0.1", 0)))
    client = ReliableEndpoint(
        TcpNode("site-1", server_addr=("127.0.0.1", server.raw.port), server_id="server")
    )
    receipts = []
    try:
        client.send("server", MSG_UPDATE_SUBMIT, Payload(b"update"), receipts.append)
        assert server.raw.run_until(lambda: len(sent) == 2, timeout_s=5.0)
        assert client.raw.run_until(lambda: receipts, timeout_s=5.0)
    finally:
        server.raw.close()
        client.raw.close()
    _check_whole_frames(sent)
    assert [data[5] for data in sent] == [MSG_UPDATE_SUBMIT, 0]
