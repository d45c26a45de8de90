"""One benchmark run of one workload, in a fresh process.

``run.py`` starts this once per run, so every run pays the same cold-process
costs a CLI user pays, and the process's ``ru_maxrss`` is the peak memory of
this workload alone.  The run drives the public CLI (``simulate``, or
``provision``/``partition``/``serve``/``client`` over loopback TCP with the
coordinator and both sites as threads of this process), checks its outputs,
and prints one JSON object.

Untraced runs carry only the probes the end-to-end metrics need: set-up
timers on the config/corpus/spec loaders, a byte counter on the raw
endpoints' ``send`` and a wall-clock stamp on ``TaskAssign`` and
``ModelSigned`` audit entries (simulator audit timestamps are virtual).
With ``--spans`` the run is traced as well (see tracing.py).

A simulator set-up takes only tens of milliseconds, so after the run (and
after ``ru_maxrss`` is read) the worker calls the same set-up functions with
the same arguments ``SETUP_REPEATS`` more times and reports every set-up it
timed; run.py reports the median of all of them.

``--mode reference`` instead runs the simulator once on the same inputs via
``build_spec``/``run_federation`` and reports the final-model digest and
entity F1, which the TCP runs are checked against.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import threading
import time
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np
import tracing

from fedmesh import cli, experiments, kvdoc, report, runner
from fedmesh.config import load_experiment
from fedmesh.data import load_conll
from fedmesh.model import evaluate
from fedmesh.trustops import (
    audit_verify,
    canonical_param_bytes,
    load_audit_log,
    load_kit,
    verify_model,
)

PEER_TIMEOUT_S = "60"
SETUP_REPEATS = 4


class Probe:
    """The always-on measurements behind the end-to-end metrics."""

    def __init__(self):
        self.setup_s = 0.0
        self.config_loaded_at: float | None = None
        self.specs: list[runner.FederationSpec] = []  # one per simulated cell
        self.setup_calls: list[tuple] = []  # (function, args, kwargs) of each set-up call
        self.frames: list[tuple[int, int]] = []  # (bytes, frame msg_type) per raw send
        # (time, audit log, event type, payload); holding the log keeps each
        # log's identity distinct for the whole run.
        self.stamps: list[tuple[float, object, str, str]] = []

    def install(self) -> None:
        tracing.patch("fedmesh.cli", "load_experiment", self._marking_config_loaded)
        tracing.patch("fedmesh.experiments", "load_conll", self._timed)
        tracing.patch("fedmesh.experiments", "build_spec",
                      lambda fn: self._timed(fn, keep=self.specs))
        tracing.patch("fedmesh.simnet", "SimEndpoint.send", self._counting_send)
        tracing.patch("fedmesh.tcpnet", "TcpNode.send", self._counting_send)
        tracing.patch("fedmesh.trustops", "AuditLog.append", self._stamping_append)

    def _marking_config_loaded(self, load):
        def marked(*args, **kwargs):
            self.setup_calls.append((load, args, kwargs))
            config = load(*args, **kwargs)
            self.config_loaded_at = perf_counter()
            return config
        return marked

    def _timed(self, fn, keep: list | None = None):
        def timed(*args, **kwargs):
            self.setup_calls.append((fn, args, kwargs))
            start = perf_counter()
            result = fn(*args, **kwargs)
            self.setup_s += perf_counter() - start
            if keep is not None:
                keep.append(result)
            return result
        return timed

    def _counting_send(self, send):
        def counted(endpoint, dst, data):
            # list.append is atomic, so TCP threads need no lock here.
            self.frames.append((len(data), data[5]))
            return send(endpoint, dst, data)
        return counted

    def _stamping_append(self, append):
        def stamped(log, event_type, payload):
            if event_type in ("TaskAssign", "ModelSigned"):
                self.stamps.append((perf_counter(), log, event_type, payload))
            return append(log, event_type, payload)
        return stamped

    def repeat_setup(self) -> list[float]:
        """Time the run's set-up calls again, SETUP_REPEATS times, untraced."""
        samples = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            for fn, args, kwargs in self.setup_calls:
                fn(*args, **kwargs)
            samples.append(perf_counter() - start)
        return samples

    def round_durations_ms(self) -> list[float]:
        """Each round from its first TaskAssign to the next round's or ModelSigned."""
        marks: dict[object, list[float]] = {}
        for t, log, event_type, payload in self.stamps:
            if event_type == "ModelSigned" or int(kvdoc.parse_doc(payload)["attempt"]) == 0:
                marks.setdefault(log, []).append(t)
        return [(b - a) * 1000.0 for ts in marks.values() for a, b in zip(ts, ts[1:])]


def _param_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check_audit(path: Path, m: int, rounds: int, errors: list[str]) -> None:
    entries = load_audit_log(path)
    bad = audit_verify(entries)
    if bad is not None:
        errors.append(f"{path.name}: audit chain broken at seq {bad}")
    replay = runner.replay_rounds(entries)
    if sorted(replay) != list(range(1, rounds + 1)):
        errors.append(f"{path.name}: rounds {sorted(replay)}, expected 1..{rounds}")
    for rnd, info in sorted(replay.items()):
        if len(info["responded"]) < m:
            errors.append(f"{path.name}: round {rnd} aggregated {len(info['responded'])} < m={m}")


def _check_model(params_path: Path, sig_path: Path, identity, errors: list[str]) -> None:
    raw = params_path.read_bytes()
    params = np.frombuffer(raw[4:], dtype="<f8")
    if int.from_bytes(raw[:4], "big") != len(params):
        errors.append(f"{params_path.name}: count prefix does not match body")
    signature = bytes.fromhex(sig_path.read_text().strip())
    if not verify_model(params, signature, identity):
        errors.append(f"{sig_path.name}: model signature rejected")


def run_simulator(inputs: Path, out: Path, manifest: dict, probe: Probe, result: dict) -> None:
    start = perf_counter()
    rc = cli.main(["simulate", "--config", str(inputs / "experiment.cfg"), "--out", str(out)])
    end = perf_counter()
    errors = result["errors"]
    if rc != 0:
        errors.append(f"simulate exited {rc}")
        return
    result["setup_s"] = (probe.config_loaded_at - start) + probe.setup_s
    result["run_s"] = end - start - result["setup_s"]
    result["run_start"] = start

    rows_bytes = (out / "report.rows").read_bytes()
    result["rows_sha256"] = hashlib.sha256(rows_bytes).hexdigest()
    rows = report.parse_rows(rows_bytes.decode("utf-8"))
    fed = [r for r in rows if r.get("row") == "config" and r.get("kind") != "baseline"]
    result["entity_f1"] = min(float(r["ent_f1"]) for r in fed)
    digests = []
    for cell in manifest["cells"]:
        label = cell["label"]
        _check_audit(out / f"audit-{label}.log", cell["m"], manifest["rounds"], errors)
        spec = next(s for s in probe.specs if f"n{len(s.shards)}" == label)
        identity = spec.kits[spec.server_id].identity()
        params_path = out / f"model-{label}.params"
        _check_model(params_path, out / f"model-{label}.sig", identity, errors)
        digests.append(_param_digest(params_path))
    result["params_sha256"] = hashlib.sha256("".join(digests).encode()).hexdigest()
    result["aggregated_rounds"] = manifest["rounds"] * len(manifest["cells"])


def run_tcp(inputs: Path, out: Path, manifest: dict, probe: Probe, result: dict) -> None:
    cfg = str(inputs / "experiment.cfg")
    kits, shards, srv = out / "kits", out / "shards", out / "srv"
    port_file = out / "port"
    codes: dict[str, int] = {}

    def serve():
        codes["server"] = cli.main([
            "serve", "--kit", str(kits / "server"), "--config", cfg, "--out", str(srv),
            "--port-file", str(port_file), "--timeout", PEER_TIMEOUT_S,
        ])

    def client(site: str, port: str):
        codes[site] = cli.main([
            "client", "--kit", str(kits / site), "--config", cfg,
            "--shard", str(shards / f"shard-{site}.conll"),
            "--server", f"127.0.0.1:{port}", "--timeout", PEER_TIMEOUT_S,
        ])

    start = perf_counter()
    codes["provision"] = cli.main([
        "provision", "--roster", str(inputs / "roster.cfg"), "--out", str(out),
        "--key-seed", str(manifest["key_seed"]),
    ])
    codes["partition"] = cli.main(["partition", "--config", cfg, "--out", str(shards)])
    threads = [threading.Thread(target=serve, daemon=True)]
    threads[0].start()
    # The server creates the port file before it writes the port into it, so
    # wait for the content, not for the file.
    deadline = time.monotonic() + 20
    port = ""
    while not port and time.monotonic() < deadline:
        time.sleep(0.002)
        port = port_file.read_text().strip() if port_file.exists() else ""
    port = port or "0"
    for site in ("site-1", "site-2"):
        threads.append(threading.Thread(target=client, args=(site, port), daemon=True))
        threads[-1].start()
    for thread in threads:
        thread.join(timeout=float(PEER_TIMEOUT_S) + 10)
    end = perf_counter()

    errors = result["errors"]
    for name in ("provision", "partition", "server", "site-1", "site-2"):
        if codes.get(name) != 0:
            errors.append(f"{name} exited {codes.get(name)}")
    if errors:
        return
    first_task = next(t for t, _, event_type, _ in probe.stamps if event_type == "TaskAssign")
    result["setup_s"] = first_task - start
    result["run_s"] = end - first_task
    result["run_start"] = first_task
    cell = manifest["cells"][0]
    _check_audit(srv / "audit.log", cell["m"], manifest["rounds"], errors)
    identity = load_kit(kits / "server").identity()
    _check_model(srv / "model.params", srv / "model.sig", identity, errors)
    result["params_sha256"] = _param_digest(srv / "model.params")
    result["aggregated_rounds"] = manifest["rounds"]


def run_reference(inputs: Path, result: dict) -> None:
    """Simulator run of the TCP config; outside every timed region."""
    config = load_experiment(inputs / "experiment.cfg")
    train = load_conll(config.train_path)
    test = load_conll(config.test_path)
    spec = experiments.build_spec(config, train, test)
    fed = runner.run_federation(spec, config.sim)
    result["params_sha256"] = hashlib.sha256(canonical_param_bytes(fed.final_params)).hexdigest()
    result["entity_f1"] = evaluate(fed.final_params, test.sentences, config.train)[0].f1


def run(inputs: Path, out: Path, spans: str | None, manifest: dict, result: dict) -> None:
    probe = Probe()
    probe.install()
    tracer = None
    if spans:
        tracer = tracing.Tracer(run_id=f"{manifest['workload']}/seed{manifest['seed']}/{out.name}")
        tracer.install()
        tracer.active = True
    workload = run_tcp if manifest["transport"] == "tcp" else run_simulator
    workload(inputs, out, manifest, probe, result)
    if tracer is not None:
        tracer.active = False
        tracer.write(Path(spans))
        if "run_s" in result:
            result["trace"] = tracer.summary(result["run_start"], result["run_s"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if manifest["transport"] == "sim" and "setup_s" in result:
        result["setup_samples_s"] = [result["setup_s"], *probe.repeat_setup()]
    result["rounds_ms"] = probe.round_durations_ms()
    result["wire_bytes"] = sum(size for size, _ in probe.frames)
    result["datagrams"] = len(probe.frames)
    result["data_frames"] = sum(1 for _, kind in probe.frames if kind != 0)
    result["sgd_tokens"] = manifest["sgd_tokens"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="one fedmesh benchmark run")
    parser.add_argument("--inputs", required=True, help="directory from inputs.py")
    parser.add_argument("--out", help="directory for the run's outputs (mode run)")
    parser.add_argument("--mode", choices=("run", "reference"), default="run")
    parser.add_argument("--spans", default=None, help="trace the run, write spans here")
    args = parser.parse_args(argv)
    inputs = Path(args.inputs)
    manifest = json.loads((inputs / "manifest.json").read_text())
    result: dict = {"errors": []}
    try:
        if args.mode == "reference":
            run_reference(inputs, result)
        else:
            run(inputs, Path(args.out), args.spans, manifest, result)
    except Exception:
        result["errors"].append(traceback.format_exc(limit=8))
    result.setdefault("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    result["ok"] = not result["errors"]
    print(json.dumps(result))
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
