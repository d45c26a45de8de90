"""The names and call shapes the benchmark harness (perfbench/) patches.

The harness wraps fedmesh functions by module and attribute name from
outside the package; a rename or a changed call shape would silently stop
it measuring.  These tests resolve every name it patches and pin the
arguments its wrappers read.
"""

import importlib
import inspect
from pathlib import Path

import pytest

from fedmesh.simnet import SimEndpoint, SimNetConfig, SimNetwork
from fedmesh.tcpnet import TcpNode
from fedmesh.transport import MSG_TASK_ASSIGN, MSG_UPDATE_SUBMIT, ReliableEndpoint, decode_frame

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


@pytest.mark.parametrize("method,params", [
    (ReliableEndpoint.send, ["self", "dst", "msg_type", "payload"]),
    (TcpNode.send, ["self", "dst", "data"]),
    (SimEndpoint.send, ["self", "dst", "data"]),
])
def test_wrapped_methods_keep_their_leading_parameters(method, params):
    assert list(inspect.signature(method).parameters)[:len(params)] == params


def _check_whole_frames(sent: list[bytes]) -> None:
    assert sent
    for data in sent:
        msg_type, _, consumed = decode_frame(data)
        assert consumed == len(data) and data[5] == msg_type


def test_raw_sends_get_whole_frames_on_the_simulator(monkeypatch):
    sent = []
    send = SimEndpoint.send
    monkeypatch.setattr(SimEndpoint, "send", lambda ep, dst, data: (sent.append(data),
                                                                     send(ep, dst, data)))
    net = SimNetwork(SimNetConfig())
    a, b = ReliableEndpoint(net.endpoint("a")), ReliableEndpoint(net.endpoint("b"))
    a.send("b", MSG_TASK_ASSIGN, b"task")
    b.send("a", MSG_UPDATE_SUBMIT, b"update")
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
        client.send("server", MSG_UPDATE_SUBMIT, b"update", receipts.append)
        assert server.raw.run_until(lambda: len(sent) == 2, timeout_s=5.0)
        assert client.raw.run_until(lambda: receipts, timeout_s=5.0)
    finally:
        server.raw.close()
        client.raw.close()
    _check_whole_frames(sent)
    assert [data[5] for data in sent] == [MSG_UPDATE_SUBMIT, 0]
