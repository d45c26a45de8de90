import threading
import time

import numpy as np
import pytest

from fedmesh.cli import main
from fedmesh.data import load_conll
from fedmesh.trustops import load_kit, verify_model

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
        "--train-sentences", "160", "--test-sentences", "80",
        "--dev-sentences", "0", "--seed", "11",
    ]) == 0
    (tmp_path / "exp.cfg").write_text(CONFIG_TEMPLATE)
    return tmp_path


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
            CONFIG_TEMPLATE + "train.learning_rate = 1000.0\n"
        )
        out = workspace / "never"
        assert main([
            "simulate", "--config", str(workspace / "bad.cfg"), "--out", str(out),
        ]) == 1
        assert not (out / "report.rows").exists()
        rejected = (out / "audit-rejected.log").read_text()
        assert "ComponentRejected" in rejected

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
        assert "per-configuration metrics" in (re_out / "report.txt").read_text()


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
    def _provision(self, workspace):
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

    def test_tcp_matches_sim_final_model(self, workspace):
        self._provision(workspace)
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

        def client(site):
            port = port_file.read_text().strip()
            results[site] = main([
                "client", "--kit", str(workspace / "kits" / site),
                "--config", str(workspace / "exp.cfg"),
                "--shard", str(workspace / "shards" / f"shard-{site}.conll"),
                "--server", f"127.0.0.1:{port}", "--timeout", "120",
                "--backoff-ms", "100",
            ])

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

    def test_client_with_wrong_key_is_rejected(self, workspace):
        self._provision(workspace)
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
                "--port-file", str(port_file), "--timeout", "15",
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
            "--server", f"127.0.0.1:{port}", "--timeout", "10",
        ])
        thread.join(timeout=60)
        assert rogue_result != 0
        assert results["server"] == 2  # never reached quorum before timeout
        audit_text = (srv_out / "audit.log").read_text()
        assert "rejected" in audit_text
