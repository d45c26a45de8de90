"""Tracing from outside the program: spans around calls into fedmesh's layers.

The benchmark records spans from its own files only.  ``Tracer.install``
replaces each public function listed in ``SITES`` at the place where it is
looked up (``runner`` imports ``local_train``, ``encode_payload`` and the
like by name, so those names are patched in ``runner`` as well as in the
defining module).  A span has a name, start, end, parent span id and the run
id of the benchmark run; parents are tracked per thread, so spans from the
TCP reader, dispatch and timer threads nest correctly.  Spans stay in memory
until ``write`` is called at the end of the run.

The patches live for the rest of the process: the benchmark traces in a
process of its own and throws it away afterwards.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

# (module, attribute at the lookup site, span name).  The span name's first
# dotted part is the layer, named after the fedmesh module that does the work.
SITES = (
    ("fedmesh.cli", "load_experiment", "config.load_experiment"),
    ("fedmesh.cli", "load_conll", "data.load_conll"),
    ("fedmesh.experiments", "load_conll", "data.load_conll"),
    ("fedmesh.cli", "partition", "data.partition"),
    ("fedmesh.experiments", "partition", "data.partition"),
    ("fedmesh.cli", "provision", "trustops.provision"),
    ("fedmesh.experiments", "provision", "trustops.provision"),
    ("fedmesh.runner", "sign_digest", "trustops.sign"),
    ("fedmesh.trustops", "sign_digest", "trustops.sign"),
    ("fedmesh.runner", "verify_digest", "trustops.verify"),
    ("fedmesh.trustops", "verify_digest", "trustops.verify"),
    ("fedmesh.trustops", "AuditLog.append", "trustops.audit_append"),
    ("fedmesh.cli", "run_simulation", "experiments.run_simulation"),
    ("fedmesh.experiments", "build_spec", "experiments.build_spec"),
    ("fedmesh.experiments", "run_federation", "runner.run_federation"),
    ("fedmesh.experiments", "run_centralized", "runner.run_centralized"),
    ("fedmesh.runner", "encode_sentences", "model.encode"),
    ("fedmesh.model", "encode_sentences", "model.encode"),
    ("fedmesh.runner", "local_train", "model.local_train"),
    ("fedmesh.runner", "evaluate", "model.evaluate"),
    ("fedmesh.experiments", "evaluate", "model.evaluate"),
    ("fedmesh.runner", "aggregate", "aggregation.aggregate"),
    ("fedmesh.runner", "apply_policy", "privacy.apply_policy"),
    ("fedmesh.runner", "mask_update", "privacy.mask_update"),
    ("fedmesh.runner", "sum_masked", "privacy.sum_masked"),
    ("fedmesh.runner", "encode_payload", "transport.encode_payload"),
    ("fedmesh.runner", "decode_payload", "transport.decode_payload"),
    ("fedmesh.transport", "encode_frame", "transport.encode_frame"),
    ("fedmesh.tcpnet", "encode_frame", "transport.encode_frame"),
    ("fedmesh.transport", "decode_frame", "transport.decode_frame"),
    ("fedmesh.transport", "ReliableEndpoint.send", "transport.reliable_send"),
    ("fedmesh.runner", "ServerNode.on_message", "runner.server_on_message"),
    ("fedmesh.runner", "ClientNode.on_message", "runner.client_on_message"),
    ("fedmesh.runner", "server_step", "protocol.server_step"),
    ("fedmesh.runner", "client_step", "protocol.client_step"),
    ("fedmesh.kvdoc", "emit_doc", "kvdoc.emit"),
    ("fedmesh.experiments", "emit_doc", "kvdoc.emit"),
    ("fedmesh.kvdoc", "parse_doc", "kvdoc.parse"),
    ("fedmesh.simnet", "SimNetwork.run", "simnet.run"),
    ("fedmesh.tcpnet", "TcpNode.send", "tcpnet.send"),
    ("fedmesh.report", "write_report", "report.write_report"),
)

# Spans of set-up work; they and everything under them are not run time.
SETUP_SPANS = frozenset({
    "config.load_experiment", "data.load_conll", "data.partition",
    "trustops.provision", "experiments.build_spec",
})

LAYERS = (
    "config", "data", "trustops", "experiments", "runner", "model", "aggregation",
    "privacy", "transport", "protocol", "kvdoc", "simnet", "tcpnet", "report",
)


def patch(module: str, attr: str, make: Callable[[Callable], Callable]) -> None:
    """Replace ``module.attr`` (``attr`` may be ``Class.method``) by make(old)."""
    owner: Any = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    setattr(owner, name, make(getattr(owner, name)))


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "thread")

    def __init__(self, id_: int, parent: int, name: str, thread: int):
        self.id, self.parent, self.name, self.thread = id_, parent, name, thread
        self.start = self.end = 0.0


class Tracer:
    """Collects spans and per-name counters while ``active`` is set."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.active = False
        self.spans: list[Span] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.encoded: dict[int, object] = {}  # id -> sentence, kept alive
        self.threads_peak = threading.active_count()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- recording -------------------------------------------------------------

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    def wrap(self, name: str, fn: Callable,
             after: Callable[[tuple, Any], None] | None = None) -> Callable:
        """Return *fn* wrapped in a span; *after(args, result)* adds counts."""
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack()
            span = Span(next(self._ids), stack[-1] if stack else 0, name,
                        threading.get_ident())
            stack.append(span.id)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                self.spans.append(span)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self) -> None:
        hooks = {
            "model.encode": self._after_encode,
            "model.local_train": self._after_local_train,
            "transport.encode_payload": self._after_encode_payload,
            "transport.reliable_send": self._after_reliable_send,
            "aggregation.aggregate": self._after_aggregate,
        }
        for module, attr, name in SITES:
            patch(module, attr, lambda fn, name=name: self.wrap(name, fn, hooks.get(name)))
        patch("fedmesh.simnet", "SimNetwork.step", self._counting_step)
        patch("fedmesh.tcpnet", "TcpNode.schedule", self._counting_schedule)

    def _after_encode(self, args: tuple, batch) -> None:
        sentences = args[0]
        with self._lock:
            for sentence in sentences:
                self.encoded[id(sentence)] = sentence
            self.counters["model.encoded_sentences"] += len(sentences)

    def _after_local_train(self, args: tuple, result) -> None:
        shard, config = args[1], args[2]
        tokens = shard.n_tokens if hasattr(shard, "n_tokens") else sum(len(s) for s in shard)
        self.count("model.sgd_tokens", tokens * config.local_epochs)

    def _after_aggregate(self, args: tuple, delta) -> None:
        self.count(f"aggregation.strategy.{args[1].kind}")

    def _after_encode_payload(self, args: tuple, payload: bytes) -> None:
        self.count("transport.encode_payload_bytes", len(payload))

    def _after_reliable_send(self, args: tuple, seq) -> None:
        self.count("transport.message_payload_bytes", len(args[3]))

    def _counting_step(self, step: Callable) -> Callable:
        def counted(net):
            ran = step(net)
            if ran and self.active:
                self.counters["simnet.events"] += 1
            return ran
        return counted

    def _counting_schedule(self, schedule: Callable) -> Callable:
        def counted(node, delay_ms, fn):
            handle = schedule(node, delay_ms, fn)
            if self.active:
                self.count("tcpnet.timers_started")
                # Each schedule() starts one OS thread; sample the peak here.
                self.threads_peak = max(self.threads_peak, threading.active_count())
            return handle
        return counted

    # -- reading ---------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (times in seconds, perf_counter)."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "id": s.id, "parent": s.parent, "name": s.name,
                    "start": s.start, "end": s.end, "thread": s.thread,
                }) + "\n")

    def summary(self, run_start: float, run_s: float) -> dict[str, float]:
        """Per-name totals, per-layer self time and its share of run time.

        A span's self time is its duration minus the durations of its direct
        children; children run on the parent's thread inside its interval, so
        they never overlap each other.  Shares count only spans of the run
        phase: not under a set-up span and started at or after *run_start*.
        """
        by_id = {s.id: s for s in self.spans}
        child_time: defaultdict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent:
                child_time[s.parent] += s.end - s.start

        def in_setup(span: Span | None) -> bool:
            while span is not None:
                if span.name in SETUP_SPANS:
                    return True
                span = by_id.get(span.parent)
            return False

        calls: defaultdict[str, int] = defaultdict(int)
        total: defaultdict[str, float] = defaultdict(float)
        self_total: defaultdict[str, float] = defaultdict(float)
        layer_self: defaultdict[str, float] = defaultdict(float)
        for s in self.spans:
            duration = s.end - s.start
            own = duration - child_time[s.id]
            calls[s.name] += 1
            total[s.name] += duration
            self_total[s.name] += own
            if s.start >= run_start and not in_setup(s):
                layer_self[s.name.split(".", 1)[0]] += own
        out = {f"{name}.calls": float(n) for name, n in calls.items()}
        out.update({f"{name}.s": t for name, t in total.items()})
        out.update({f"{name}.self_s": t for name, t in self_total.items()})
        for layer in LAYERS:
            out[f"share.{layer}"] = layer_self[layer] / run_s
        out["share.unattributed"] = 1.0 - sum(layer_self.values()) / run_s
        out.update(self.counters)
        out["model.distinct_sentences"] = float(len(self.encoded))
        out["tcpnet.threads_peak"] = float(self.threads_peak)
        out["trace.spans"] = float(len(self.spans))
        return out
