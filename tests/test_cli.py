import socket
import threading
import time

import numpy as np
import pytest

from fedmesh import cli
from fedmesh.cli import _tcp_spec, main
from fedmesh.config import parse_experiment
from fedmesh.data import load_conll
from fedmesh.experiments import build_spec
from fedmesh.kvdoc import parse_doc
from fedmesh.model import evaluate
from fedmesh.trustops import (
    AuditLog, audit_verify, load_audit_log, load_kit, provision, verify_model,
)

CONFIG_TEMPLATE = """
corpus.train = "data/train.conll"
corpus.test = "data/test.conll"
rounds = 3
clients = 2
train.feature_dim = 4096
train.learning_rate = 0.5
bind = "127.0.0.1:0"
"""


@pytest.fixture()
def workspace(tmp_path):
    assert main([
        "gen-corpus", "--out", str(tmp_path / "data"),
        "--train-sentences", "160", "--test-sentences", "80", "--seed", "11",
    ]) == 0
    (tmp_path / "exp.cfg").write_text(CONFIG_TEMPLATE)
    return tmp_path


def _one_rejection(out, reason):
    """*out*'s rejection log holds one intact ConfigRejected entry naming *reason*."""
    (entry,) = load_audit_log(out / "audit-rejected.log")
    assert entry.event_type == "ConfigRejected" and audit_verify([entry]) is None
    assert reason in parse_doc(entry.payload)["reason"]


def _provision(workspace):
    (workspace / "roster.cfg").write_text(
        'sites = [site-1, site-2]\nserver = server\naddress = "127.0.0.1:0"\n'
    )
    assert main([
        "provision", "--roster", str(workspace / "roster.cfg"),
        "--out", str(workspace), "--key-seed", "7",
    ]) == 0
    assert main([
        "partition", "--config", str(workspace / "exp.cfg"),
        "--out", str(workspace / "shards"),
    ]) == 0


class TestGenCorpus:
    def test_writes_expected_files(self, workspace):
        train = load_conll(workspace / "data" / "train.conll")
        test = load_conll(workspace / "data" / "test.conll")
        assert len(train) == 160 and len(test) == 80
        assert not (workspace / "data" / "dev.conll").exists()


class TestPartitionCommand:
    def test_writes_shards_and_summary(self, workspace):
        out = workspace / "shards"
        assert main([
            "partition", "--config", str(workspace / "exp.cfg"), "--out", str(out),
        ]) == 0
        a = load_conll(out / "shard-site-1.conll")
        b = load_conll(out / "shard-site-2.conll")
        assert len(a) + len(b) == 160
        summary = (out / "partition.summary").read_text()
        assert "mode=equal-n" in summary and "n_clients=2" in summary


class TestSimulateCommand:
    def test_simulate_writes_reports_and_models(self, workspace):
        out = workspace / "out"
        assert main([
            "simulate", "--config", str(workspace / "exp.cfg"), "--out", str(out),
        ]) == 0
        assert (out / "report.rows").is_file()
        assert (out / "report.txt").is_file()
        assert (out / "model-n2.params").is_file()
        assert (out / "audit-n2.log").is_file()
        text = (out / "report.txt").read_text()
        assert "centralized" in text and "cross-site" in text

    def test_rows_byte_identical_across_runs(self, workspace):
        out1, out2 = workspace / "r1", workspace / "r2"
        for out in (out1, out2):
            assert main([
                "simulate", "--config", str(workspace / "exp.cfg"),
                "--out", str(out), "--seed-data", "5", "--seed-model", "6",
                "--seed-net", "7",
            ]) == 0
        assert (out1 / "report.rows").read_bytes() == (out2 / "report.rows").read_bytes()

    def test_seed_flag_changes_rows(self, workspace):
        out1, out2 = workspace / "s1", workspace / "s2"
        assert main(["simulate", "--config", str(workspace / "exp.cfg"),
                     "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(workspace / "exp.cfg"),
                     "--out", str(out2), "--seed-data", "99"]) == 0
        assert (out1 / "report.rows").read_text() != (out2 / "report.rows").read_text()

    def test_unsafe_config_rejected_before_running(self, workspace):
        (workspace / "bad.cfg").write_text(
            CONFIG_TEMPLATE.replace("learning_rate = 0.5", "learning_rate = 1000.0")
        )
        out = workspace / "never"
        assert main([
            "simulate", "--config", str(workspace / "bad.cfg"), "--out", str(out),
        ]) == 1
        assert not (out / "report.rows").exists()
        _one_rejection(out, "train: learning_rate must be in [0, 100]")

    def test_a_refusal_that_cannot_be_audited_still_exits_1(self, workspace, capsys):
        (workspace / "bad.cfg").write_text(
            CONFIG_TEMPLATE.replace("learning_rate = 0.5", "learning_rate = 1000.0")
        )
        (workspace / "taken").write_text("")
        assert main([
            "simulate", "--config", str(workspace / "bad.cfg"), "--out", str(workspace / "taken"),
        ]) == 1
        err = capsys.readouterr().err
        assert "train: learning_rate" in err and "the refusal was not audited" in err

    @pytest.mark.parametrize("deadline_ms", ["-5.0", "0.0"])
    def test_non_positive_deadline_refused(self, workspace, capsys, deadline_ms):
        (workspace / "bad.cfg").write_text(CONFIG_TEMPLATE + f"quorum.deadline_ms = {deadline_ms}\n")
        out = workspace / "never"
        assert main([
            "simulate", "--config", str(workspace / "bad.cfg"), "--out", str(out),
        ]) == 1
        err = capsys.readouterr().err
        assert "quorum.deadline_ms" in err and "Traceback" not in err
        assert not (out / "report.rows").exists()

    def test_a_one_site_ratio_cell_is_labelled_n1(self, workspace):
        (workspace / "one.cfg").write_text(
            CONFIG_TEMPLATE.replace("clients = 2", "clients = 1")
            + 'partition.ratios = "100"\n'
        )
        out = workspace / "out"
        assert main([
            "simulate", "--config", str(workspace / "one.cfg"), "--out", str(out),
        ]) == 0
        assert (out / "model-n1.params").is_file()
        rows = (out / "report.rows").read_text().splitlines()
        assert rows[0].startswith("config=n1 ") and "config=100 " not in "\n".join(rows)

    def test_invalid_config_exit_code(self, workspace):
        (workspace / "broken.cfg").write_text("corpus.train = \"missing.conll\"\n")
        assert main([
            "simulate", "--config", str(workspace / "broken.cfg"),
            "--out", str(workspace / "x"),
        ]) == 1


class TestReportCommand:
    def test_rerender_from_rows(self, workspace):
        out = workspace / "out"
        main(["simulate", "--config", str(workspace / "exp.cfg"), "--out", str(out)])
        re_out = workspace / "re"
        assert main([
            "report", "--rows", str(out / "report.rows"), "--out", str(re_out),
        ]) == 0
        text = (re_out / "report.txt").read_text()
        assert "per-configuration metrics" in text
        # Everything but simulate's wall-clock line and config echo comes back.
        simulated = (out / "report.txt").read_text()
        assert simulated.startswith(text + "\nwall-clock runtime: ")
        echo = simulated.split("\n== config echo ==\n")[1]
        assert parse_doc(echo)["rounds"] == 3

    def test_rows_without_a_federated_run_are_refused(self, workspace, capsys):
        (workspace / "empty.rows").write_text("")
        assert main([
            "report", "--rows", str(workspace / "empty.rows"), "--out", str(workspace / "re"),
        ]) == 1
        assert "no federated configuration row" in capsys.readouterr().err

    def test_a_config_row_without_a_metric_is_refused(self, workspace, capsys):
        (workspace / "cut.rows").write_text(
            "config=n2 kind=single rounds=1 row=config strategy=fedavg\n"
        )
        assert main([
            "report", "--rows", str(workspace / "cut.rows"), "--out", str(workspace / "re"),
        ]) == 1
        assert "record 1 (row=config) has no ent_precision" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "true"])
    def test_a_config_row_with_a_non_numeric_metric_is_refused(self, workspace, capsys, value):
        (workspace / "bad.rows").write_text(
            f"config=n2 ent_f1={value} ent_precision=0.5 ent_recall=0.5 kind=single"
            " rounds=1 row=config strategy=fedavg tok_f1=0.5\n"
        )
        assert main([
            "report", "--rows", str(workspace / "bad.rows"), "--out", str(workspace / "re"),
        ]) == 1
        err = capsys.readouterr().err
        assert f"record 1 (row=config) has a non-numeric ent_f1={value}" in err
        assert "Traceback" not in err

    def test_a_non_finite_metric_is_refused(self, workspace, capsys):
        (workspace / "nan.rows").write_text(
            "config=n2 ent_f1=nan ent_precision=0.5 ent_recall=0.5 kind=single"
            " rounds=1 row=config strategy=fedavg tok_f1=0.5\n"
        )
        assert main([
            "report", "--rows", str(workspace / "nan.rows"), "--out", str(workspace / "re"),
        ]) == 1
        err = capsys.readouterr().err
        assert "line 1: non-finite number 'nan'" in err and "Traceback" not in err
        assert not (workspace / "re" / "report.txt").exists()


class TestOneSpecForBothTransports:
    @pytest.mark.parametrize("clients,lines,n", [
        (2, "experiment.kind = client-sweep\nexperiment.client_counts = [2, 4]", 4),
        (3, "quorum.k = 2", 3),
        (2, "policy.site-2.clip_norm = 1.0\nadversary.client = site-1\n"
            "adversary.magnitude = 10.0\nretry_on_abort = false", 2),
    ], ids=["sweep-cell-above-clients", "quorum-2-of-3", "site-2-policy"])
    def test_simulator_and_tcp_specs_agree(self, workspace, clients, lines, n):
        text = CONFIG_TEMPLATE.replace("clients = 2", f"clients = {clients}") + lines + "\n"
        config = parse_experiment(text, base_dir=workspace)
        train = load_conll(config.train_path)
        test = load_conll(config.test_path)
        sim = build_spec(config, train, test, n)
        ids = [f"site-{i}" for i in range(1, n + 1)]
        kits = provision([("server", "server")] + [(cid, "client") for cid in ids],
                         server_address="127.0.0.1:0", key_seed=5)
        tcp = _tcp_spec(config, kits["server"])
        for spec in (sim, tcp):
            assert spec.client_ids() == ids
        for field in ("k", "m", "policies", "strategy", "train", "rounds", "seeds",
                      "adversary", "retry_on_abort", "deadline_ms"):
            assert getattr(sim, field) == getattr(tcp, field), field

    def test_a_tcp_site_is_built_from_its_spec_alone(self, workspace):
        from fedmesh.runner import ClientNode
        from fedmesh.simnet import SimNetConfig, SimNetwork
        from fedmesh.transport import ReliableEndpoint

        config = parse_experiment(CONFIG_TEMPLATE, base_dir=workspace)
        shard = load_conll(config.train_path).sentences[:40]
        holdout = load_conll(config.test_path).sentences[:20]
        kits = provision([("server", "server"), ("site-1", "client"), ("site-2", "client")],
                         server_address="127.0.0.1:0", key_seed=5)
        spec = _tcp_spec(config, kits["site-1"], shard, holdout)
        assert spec.holdouts == {"site-1": holdout}
        assert _tcp_spec(config, kits["server"]).holdouts == {}
        rel = ReliableEndpoint(SimNetwork(SimNetConfig()).endpoint("site-1"))
        site = ClientNode(rel, kits["site-1"], spec)
        assert site.shard is shard and site.holdout is holdout

    def test_a_policy_applies_only_to_the_cells_that_hold_its_site(self, workspace):
        (workspace / "sweep.cfg").write_text(
            CONFIG_TEMPLATE + "experiment.kind = client-sweep\n"
            "experiment.client_counts = [2, 4]\npolicy.site-4.clip_norm = 1.0\n"
        )
        out = workspace / "out"
        assert main(["simulate", "--config", str(workspace / "sweep.cfg"),
                     "--out", str(out)]) == 0
        assert "PolicyApplied" not in (out / "audit-n2.log").read_text()
        assert (out / "audit-n4.log").read_text().count("PolicyApplied") == 1


class TestRefusedBeforeRunning:
    """A config no run of this federation can honour stops every command with
    exit 1 before it binds, registers or trains."""

    MISSPELT = CONFIG_TEMPLATE + "policy.site1.masking_enabled = true\n"
    UNSAFE = CONFIG_TEMPLATE.replace("learning_rate = 0.5", "learning_rate = 1000.0")
    STRAY_ADVERSARY = CONFIG_TEMPLATE + "adversary.client = site-9\nadversary.magnitude = 50.0\n"
    # Vetting passes (every key names a site and each component is safe), but
    # no spec of this federation is valid.
    MASKED_GEO = CONFIG_TEMPLATE + (
        "strategy.kind = geo-median\n"
        "policy.site-1.masking_enabled = true\npolicy.site-2.masking_enabled = true\n"
    )
    # Only the n6 cell holds site-5, and it alone would mask there.
    LONE_MASKED_SITE_IN_LAST_CELL = CONFIG_TEMPLATE + (
        "experiment.kind = client-sweep\nexperiment.client_counts = [2, 4, 6]\n"
        "policy.site-5.masking_enabled = true\n"
    )

    def _simulate_refuses(self, workspace, capsys, text, reason):
        (workspace / "bad.cfg").write_text(text)
        out = workspace / "never"
        assert main(["simulate", "--config", str(workspace / "bad.cfg"),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert reason in err and "Traceback" not in err
        assert not (out / "report.rows").exists()
        assert not list(out.glob("audit-n*.log"))  # no cell ran
        _one_rejection(out, reason)

    def _serve_refuses(self, workspace, capsys, monkeypatch, text, reason):
        _provision(workspace)
        (workspace / "bad.cfg").write_text(text)
        port_file = workspace / "port.txt"
        monkeypatch.setattr(cli, "TcpNode", None)  # a bind would raise TypeError
        assert main([
            "serve", "--kit", str(workspace / "kits" / "server"),
            "--config", str(workspace / "bad.cfg"), "--out", str(workspace / "srv"),
            "--port-file", str(port_file), "--timeout", "1",
        ]) == 1
        err = capsys.readouterr().err
        assert reason in err and "Traceback" not in err
        assert not port_file.exists()
        _one_rejection(workspace / "srv", reason)

    def test_simulate_refuses_a_policy_for_no_site(self, workspace, capsys):
        self._simulate_refuses(workspace, capsys, self.MISSPELT, "policy.site1")

    def test_simulate_refuses_an_adversary_for_no_site(self, workspace, capsys):
        self._simulate_refuses(workspace, capsys, self.STRAY_ADVERSARY, "adversary.client")

    def test_simulate_validates_every_cell_before_the_first_runs(self, workspace, capsys):
        self._simulate_refuses(workspace, capsys, self.LONE_MASKED_SITE_IN_LAST_CELL,
                               "masking needs at least two sites")

    def test_simulate_refuses_an_unsafe_rate(self, workspace, capsys):
        self._simulate_refuses(workspace, capsys, self.UNSAFE, "train: learning_rate")

    def test_serve_refuses_before_binding(self, workspace, capsys, monkeypatch):
        self._serve_refuses(workspace, capsys, monkeypatch, self.MISSPELT, "policy.site1")

    def test_serve_refuses_an_adversary_for_no_site(self, workspace, capsys, monkeypatch):
        self._serve_refuses(workspace, capsys, monkeypatch, self.STRAY_ADVERSARY,
                            "adversary.client")

    def test_serve_validates_its_spec_before_binding(self, workspace, capsys, monkeypatch):
        self._serve_refuses(workspace, capsys, monkeypatch, self.MASKED_GEO,
                            "masking requires the fedavg")

    def test_serve_refuses_an_unsafe_rate(self, workspace, capsys, monkeypatch):
        self._serve_refuses(workspace, capsys, monkeypatch, self.UNSAFE, "train: learning_rate")

    def test_serve_refuses_a_malformed_bind_address(self, workspace, capsys, monkeypatch):
        self._serve_refuses(workspace, capsys, monkeypatch,
                            CONFIG_TEMPLATE.replace("127.0.0.1:0", "127.0.0.1:abc"),
                            "bind: expected host:port")

    @pytest.mark.parametrize("text,reason", [
        (MISSPELT, "policy.site1"),
        (STRAY_ADVERSARY, "adversary.client"),
        (UNSAFE, "learning_rate"),
        (MASKED_GEO, "masking requires the fedavg"),
    ], ids=["misspelt-site", "stray-adversary", "unsafe-rate", "invalid-spec"])
    def test_client_refuses_before_registering(self, workspace, capsys, text, reason):
        _provision(workspace)
        (workspace / "bad.cfg").write_text(text)
        self._client_refuses(workspace, capsys, reason)

    @pytest.mark.parametrize("content", ["abcd", "zz" * 32], ids=["2-byte-key", "non-hex-key"])
    def test_client_refuses_a_malformed_kit_before_dialing(self, workspace, capsys, content):
        _provision(workspace)
        (workspace / "bad.cfg").write_text(CONFIG_TEMPLATE)
        key = workspace / "kits" / "site-1" / "key.priv"
        key.write_text(content)
        self._client_refuses(workspace, capsys, f"{key}: expected 32 bytes in hex")

    def test_client_refuses_a_malformed_server_address(self, workspace, capsys):
        _provision(workspace)
        (workspace / "bad.cfg").write_text(CONFIG_TEMPLATE)
        self._client_refuses(workspace, capsys, "'127.0.0.1:port'", server="127.0.0.1:port")

    def _client_refuses(self, workspace, capsys, reason, server="127.0.0.1:{port}"):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            listener.settimeout(0.2)
            port = listener.getsockname()[1]
            assert main([
                "client", "--kit", str(workspace / "kits" / "site-1"),
                "--config", str(workspace / "bad.cfg"),
                "--shard", str(workspace / "shards" / "shard-site-1.conll"),
                "--server", server.format(port=port), "--timeout", "1",
            ]) == 1
            with pytest.raises(TimeoutError):
                listener.accept()
        err = capsys.readouterr().err
        assert reason in err and "Traceback" not in err


class TestAuditVerifyCommand:
    def test_pristine_and_tampered(self, workspace):
        out = workspace / "out"
        main(["simulate", "--config", str(workspace / "exp.cfg"), "--out", str(out)])
        log_path = out / "audit-n2.log"
        assert main(["audit-verify", "--log", str(log_path)]) == 0
        lines = log_path.read_text().splitlines()
        lines[2] = lines[2].replace("event_type=", "event_type=X", 1)
        tampered = workspace / "tampered.log"
        tampered.write_text("\n".join(lines) + "\n")
        assert main(["audit-verify", "--log", str(tampered)]) == 1


    @pytest.mark.parametrize("edit, reason", [
        (lambda line: line.replace("seq=1 ", ""), "line 2: no seq= field"),
        (lambda line: line.replace("seq=1 ", "seq=x "), "line 2: seq=x is not a sequence number"),
        (lambda line: line[:-1], "line 2: unterminated string"),
        (lambda line: line.replace("seq=1 ", "seq=001 "), "line 2: not a line the audit log writes"),
    ], ids=["no-seq", "non-numeric-seq", "unterminated-payload", "zero-padded-seq"])
    def test_a_malformed_line_exits_1_naming_it(self, tmp_path, capsys, edit, reason):
        log_path = tmp_path / "audit.log"
        log = AuditLog(path=log_path)
        for i in range(3):
            log.append("TaskAssign", f"round = {i}\n")
        lines = log_path.read_text().splitlines()
        lines[1] = edit(lines[1])
        log_path.write_text("\n".join(lines) + "\n")
        assert main(["audit-verify", "--log", str(log_path)]) == 1
        err = capsys.readouterr().err
        assert f"{log_path}: {reason}" in err and "Traceback" not in err


class TestProvisionCommand:
    def test_kits_written(self, workspace):
        (workspace / "roster.cfg").write_text(
            'sites = [site-1, site-2, site-3]\nserver = server\naddress = "127.0.0.1:7761"\n'
        )
        assert main([
            "provision", "--roster", str(workspace / "roster.cfg"),
            "--out", str(workspace), "--key-seed", "42",
        ]) == 0
        kit = load_kit(workspace / "kits" / "site-2")
        assert kit.role == "client"
        assert {i.site_id for i in kit.roster} == {"server", "site-1", "site-2", "site-3"}
        assert load_kit(workspace / "kits" / "server").mask_root is None


@pytest.mark.slow
class TestTcpFederation:
    @staticmethod
    def _run(workspace, config_text, clients_first=False, shard_dir="shards"):
        """serve and two clients on one free port; their exit codes and the
        seconds the whole run took."""
        with socket.create_server(("127.0.0.1", 0)) as probe:
            port = probe.getsockname()[1]
        cfg = workspace / "tcp.cfg"
        cfg.write_text(config_text.replace("127.0.0.1:0", f"127.0.0.1:{port}"))
        results = {}

        def serve():
            results["server"] = main([
                "serve", "--kit", str(workspace / "kits" / "server"), "--config", str(cfg),
                "--out", str(workspace / "srv"), "--timeout", "30", "--backoff-ms", "100",
            ])

        def client(site):
            results[site] = main([
                "client", "--kit", str(workspace / "kits" / site), "--config", str(cfg),
                "--shard", str(workspace / shard_dir / f"shard-{site}.conll"),
                "--server", f"127.0.0.1:{port}", "--timeout", "30", "--backoff-ms", "100",
            ])

        started = time.monotonic()
        threads = [threading.Thread(target=client, args=(site,)) for site in ("site-1", "site-2")]
        if clients_first:
            for thread in threads:
                thread.start()
            time.sleep(1.0)
            serve()
        else:
            threads.insert(0, threading.Thread(target=serve))
            for thread in threads:
                thread.start()
                time.sleep(0.2)
        for thread in threads:
            thread.join(timeout=60)
        return results, time.monotonic() - started

    def test_clients_started_before_the_server_join_the_run(self, workspace):
        _provision(workspace)
        results, _ = self._run(workspace, CONFIG_TEMPLATE, clients_first=True)
        assert results == {"server": 0, "site-1": 0, "site-2": 0}

    def test_a_failed_run_ends_every_client_with_exit_2(self, workspace, caplog):
        # site-1 has no data, so round 1 aborts twice and the run fails; the
        # coordinator tells both sites, which exit 2 long before --timeout.
        _provision(workspace)
        (workspace / "starved").mkdir()
        (workspace / "starved" / "shard-site-1.conll").write_text("")
        (workspace / "starved" / "shard-site-2.conll").write_bytes(
            (workspace / "shards" / "shard-site-2.conll").read_bytes())
        results, seconds = self._run(
            workspace, CONFIG_TEMPLATE + "quorum.deadline_ms = 300\n", shard_dir="starved")
        assert results == {"server": 2, "site-1": 2, "site-2": 2}
        assert seconds < 15
        assert caplog.text.count("round 1 aborted with no retry left") == 2

    def test_tcp_matches_sim_final_model(self, workspace, capsys):
        _provision(workspace)
        sim_out = workspace / "sim"
        assert main([
            "simulate", "--config", str(workspace / "exp.cfg"), "--out", str(sim_out),
        ]) == 0

        srv_out = workspace / "srv"
        port_file = workspace / "port.txt"
        results = {}

        def serve():
            results["server"] = main([
                "serve", "--kit", str(workspace / "kits" / "server"),
                "--config", str(workspace / "exp.cfg"), "--out", str(srv_out),
                "--port-file", str(port_file), "--timeout", "120",
                "--backoff-ms", "100",
            ])

        holdout = workspace / "data" / "test.conll"

        def client(site):
            port = port_file.read_text().strip()
            results[site] = main([
                "client", "--kit", str(workspace / "kits" / site),
                "--config", str(workspace / "exp.cfg"),
                "--shard", str(workspace / "shards" / f"shard-{site}.conll"),
                "--server", f"127.0.0.1:{port}", "--timeout", "120",
                "--backoff-ms", "100",
            ] + (["--holdout", str(holdout)] if site == "site-1" else []))

        server_thread = threading.Thread(target=serve)
        server_thread.start()
        deadline = time.monotonic() + 20
        while not port_file.exists() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert port_file.exists(), "server never wrote its port"
        client_threads = [
            threading.Thread(target=client, args=(site,))
            for site in ("site-1", "site-2")
        ]
        for thread in client_threads:
            thread.start()
        for thread in client_threads:
            thread.join(timeout=150)
        server_thread.join(timeout=150)
        assert results == {"server": 0, "site-1": 0, "site-2": 0}

        sim_model = (sim_out / "model-n2.params").read_bytes()
        tcp_model = (srv_out / "model.params").read_bytes()
        sim_params = np.frombuffer(sim_model[4:], dtype="<f8")
        tcp_params = np.frombuffer(tcp_model[4:], dtype="<f8")
        assert np.max(np.abs(sim_params - tcp_params)) < 1e-9
        signature = bytes.fromhex((srv_out / "model.sig").read_text())
        server_identity = load_kit(workspace / "kits" / "server").identity()
        assert verify_model(tcp_params, signature, server_identity)
        assert main(["audit-verify", "--log", str(srv_out / "audit.log")]) == 0
        # serve reports the cross-site evaluation it waited for, one line per site
        config = parse_experiment(CONFIG_TEMPLATE, base_dir=workspace)
        train = _tcp_spec(config, load_kit(workspace / "kits" / "server")).train
        ent, tok = evaluate(tcp_params, load_conll(holdout).sentences, train)
        site_lines = [line for line in capsys.readouterr().out.splitlines()
                      if line.startswith("site ")]
        assert site_lines == [
            f"site site-1: entity-f1={ent.f1:.4f} token-f1={tok.f1:.4f}",
            "site site-2: absent",
        ]

    def test_client_with_wrong_key_is_rejected(self, workspace):
        _provision(workspace)
        # re-provision site-1 only, giving it keys the server roster lacks
        other = workspace / "rogue"
        (workspace / "roster2.cfg").write_text(
            'sites = [site-1, site-2]\nserver = server\naddress = "127.0.0.1:0"\n'
        )
        assert main([
            "provision", "--roster", str(workspace / "roster2.cfg"),
            "--out", str(other), "--key-seed", "999",
        ]) == 0

        srv_out = workspace / "srv2"
        port_file = workspace / "port2.txt"
        results = {}

        def serve():
            results["server"] = main([
                "serve", "--kit", str(workspace / "kits" / "server"),
                "--config", str(workspace / "exp.cfg"), "--out", str(srv_out),
                "--port-file", str(port_file), "--timeout", "3",
            ])

        thread = threading.Thread(target=serve)
        thread.start()
        deadline = time.monotonic() + 20
        while not port_file.exists() and time.monotonic() < deadline:
            time.sleep(0.05)
        port = port_file.read_text().strip()
        rogue_result = main([
            "client", "--kit", str(other / "kits" / "site-1"),
            "--config", str(workspace / "exp.cfg"),
            "--shard", str(workspace / "shards" / "shard-site-1.conll"),
            "--server", f"127.0.0.1:{port}", "--timeout", "2",
        ])
        thread.join(timeout=60)
        assert rogue_result != 0
        assert results["server"] == 2  # never reached quorum before timeout
        audit_text = (srv_out / "audit.log").read_text()
        assert "rejected" in audit_text
