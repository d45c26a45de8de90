"""Acceptance suite: one test per release criterion, at stated tolerances.

Each test prints a PASS line with the measured values after its assertions,
so `pytest -v -s tests/test_acceptance.py` reads as a checklist.  The
client-count sweep runs once at full scale (5000-sentence corpus, 20
rounds) and feeds criteria 1 and 3.
"""

import random
import time
from dataclasses import replace

import numpy as np
import pytest

from fedmesh import protocol
from fedmesh.aggregation import (
    AggregationStrategy,
    ClientUpdate,
    as_dense,
    geometric_median,
    l2_norm,
)
from fedmesh.cli import main
from fedmesh.config import parse_experiment
from fedmesh.data import PartitionPlan, partition, save_conll, synthetic_corpus
from fedmesh.experiments import run_simulation, vet_config
from fedmesh.model import (
    TrainConfig,
    encode_sentences,
    evaluate,
    loss_and_grad,
    zero_params,
)
from fedmesh.privacy import (
    SitePolicy,
    encode_fixed,
    gaussian_mechanism,
    gaussian_sigma,
    mask_update,
    sum_masked,
    svt_filter,
)
from fedmesh.runner import (
    Adversary,
    FederationSpec,
    RoundFailedError,
    run_federation,
)
from fedmesh.simnet import SimNetConfig
from fedmesh.trustops import (
    UnsafeComponentError,
    audit_verify,
    check_components,
    provision,
    sign_model,
    verify_model,
)

pytestmark = pytest.mark.slow

TRAIN_SENTENCES = 5000
TEST_SENTENCES = 1500


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    save_conll(synthetic_corpus(TRAIN_SENTENCES, seed=11), out / "train.conll")
    save_conll(synthetic_corpus(TEST_SENTENCES, seed=12), out / "test.conll")
    return out


def distance_sum(x: np.ndarray, updates: list[ClientUpdate]) -> float:
    """The geometric-median objective at *x*."""
    return float(sum(l2_norm(as_dense(u.delta) - x) for u in updates))


def _base_config(corpus_dir, extra="", clients=6):
    return parse_experiment(
        f"""
corpus.train = "{corpus_dir / 'train.conll'}"
corpus.test = "{corpus_dir / 'test.conll'}"
rounds = 20
clients = {clients}
train.feature_dim = 262144
train.learning_rate = 0.5
train.batch_size = 32
{extra}
"""
    )


@pytest.fixture(scope="module")
def client_sweep(corpus_dir):
    config = _base_config(
        corpus_dir,
        "experiment.kind = client-sweep\nexperiment.client_counts = [2, 4, 6]\n",
    )
    started = time.monotonic()
    output = run_simulation(config)
    elapsed = time.monotonic() - started
    return output, elapsed


def _entity_f1(output, label):
    (row,) = [r for r in output.config_rows if r["config"] == label]
    return float(row["ent_f1"])


class TestCriterion1ClientCountInvariance:
    def test_f1_spread_within_003_under_10_minutes(self, client_sweep):
        output, elapsed = client_sweep
        f1s = {n: _entity_f1(output, f"n{n}") for n in (2, 4, 6)}
        spread = max(f1s.values()) - min(f1s.values())
        assert spread <= 0.03, f"entity-F1 spread {spread:.4f} exceeds 0.03"
        assert elapsed < 600, f"sweep took {elapsed:.0f}s, runtime target is <600s"
        print(
            f"\nACCEPTANCE 1 PASS — client-count invariance: "
            f"F1 n2={f1s[2]:.4f} n4={f1s[4]:.4f} n6={f1s[6]:.4f} "
            f"spread={spread:.4f} (<=0.03), runtime {elapsed:.0f}s (<600s)"
        )


class TestCriterion2ImbalanceInvariance:
    def test_f1_spread_within_002(self, corpus_dir):
        config = _base_config(
            corpus_dir,
            "experiment.kind = imbalance-sweep\n"
            'experiment.ratios = ["50/50", "75/25", "90/10"]\n',
            clients=2,
        )
        output = run_simulation(config)
        f1s = {
            label: _entity_f1(output, label) for label in ("50/50", "75/25", "90/10")
        }
        spread = max(f1s.values()) - min(f1s.values())
        assert spread <= 0.02, f"entity-F1 spread {spread:.4f} exceeds 0.02"
        print(
            f"\nACCEPTANCE 2 PASS — imbalance invariance: "
            + " ".join(f"{k}={v:.4f}" for k, v in f1s.items())
            + f" spread={spread:.4f} (<=0.02)"
        )


class TestCriterion3CentralizedParity:
    def test_federated_within_002_of_centralized(self, client_sweep):
        output, _ = client_sweep
        central = _entity_f1(output, "centralized")
        worst = min(_entity_f1(output, f"n{n}") for n in (2, 4, 6))
        assert worst >= central - 0.02, (
            f"federated F1 {worst:.4f} vs centralized {central:.4f}"
        )
        print(
            f"\nACCEPTANCE 3a PASS — parity: worst federated F1 {worst:.4f} >= "
            f"centralized {central:.4f} - 0.02"
        )

    def test_exact_trajectory_equality_one_full_batch_step(self):
        cfg = TrainConfig(feature_dim=1 << 12, learning_rate=0.5,
                          batch_size=100_000, local_epochs=1)
        corpus = synthetic_corpus(200, seed=41)
        shards = partition(corpus, PartitionPlan("equal-n", 2, seed=3))
        ids = ["site-1", "site-2"]
        kits = provision([("server", "server")] + [(c, "client") for c in ids],
                         key_seed=13)
        rounds = 10
        spec = FederationSpec(
            shards=dict(zip(ids, shards)), train=cfg,
            strategy=AggregationStrategy("fedavg"), rounds=rounds, k=2, m=2,
            deadline_ms=30_000.0, kits=kits, server_id="server",
            track_params=True,
        )
        result = run_federation(spec, SimNetConfig(seed=14))

        pooled = encode_sentences(shards[0] + shards[1], cfg.feature_dim, cfg.hash_seed)
        params = zero_params(cfg)
        worst = 0.0
        for round_no in range(rounds):
            _, grad = loss_and_grad(params, pooled, cfg)
            params = params - cfg.learning_rate * grad
            gap = float(np.max(np.abs(result.params_per_round[round_no] - params)))
            worst = max(worst, gap)
            assert gap <= 1e-9, f"round {round_no + 1}: gap {gap:.2e} > 1e-9"
        print(
            f"\nACCEPTANCE 3b PASS — trajectory equality: max per-round gap "
            f"{worst:.2e} <= 1e-9 over {rounds} rounds"
        )


class TestCriterion4RobustAggregation:
    def test_byzantine_contrast(self):
        train = synthetic_corpus(2000, seed=11)
        test = synthetic_corpus(800, seed=12)
        cfg = TrainConfig(feature_dim=1 << 14, learning_rate=0.5, batch_size=32)
        shards = partition(train, PartitionPlan("equal-n", 6, seed=1))
        ids = [f"site-{i + 1}" for i in range(6)]
        kits = provision([("server", "server")] + [(c, "client") for c in ids],
                         key_seed=42)

        def run(strategy, adversary):
            spec = FederationSpec(
                shards=dict(zip(ids, shards)), train=cfg,
                strategy=AggregationStrategy(strategy), rounds=20, k=6, m=6,
                deadline_ms=30_000.0, kits=kits, server_id="server",
                adversary=adversary,
            )
            result = run_federation(spec, SimNetConfig(seed=3))
            entity, _ = evaluate(result.final_params, test.sentences, cfg)
            return entity.f1

        adversary = Adversary("site-3", 1e6)
        clean = run("fedavg", None)
        poisoned = run("fedavg", adversary)
        coord = run("coord-median", adversary)
        geo = run("geo-median", adversary)
        assert poisoned < 0.5, f"fedavg under attack scored {poisoned:.4f}, expected <0.5"
        assert abs(coord - clean) <= 0.03, f"coord-median drifted {abs(coord - clean):.4f}"
        assert abs(geo - clean) <= 0.03, f"geo-median drifted {abs(geo - clean):.4f}"
        print(
            f"\nACCEPTANCE 4 PASS — robustness: clean={clean:.4f} "
            f"byz-fedavg={poisoned:.4f} (<0.5) coord={coord:.4f} geo={geo:.4f} "
            f"(both within 0.03 of clean)"
        )


class TestCriterion5Weiszfeld:
    def test_objective_vs_brute_force_and_descent(self):
        scipy_opt = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(7)
        worst_gap = 0.0
        for case in range(50):
            n_points = int(rng.integers(3, 8))
            dim = int(rng.integers(2, 5))
            points = rng.normal(size=(n_points, dim)) * rng.uniform(0.5, 3.0)
            updates = [
                ClientUpdate(f"c{i}", 1, 1.0, points[i]) for i in range(n_points)
            ]
            ours = geometric_median(updates, tol=1e-12, max_iter=5000)

            best = min(
                (
                    scipy_opt.minimize(
                        lambda x: distance_sum(x, updates), start,
                        method="Nelder-Mead",
                        options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 20000},
                    ).fun
                    for start in [points.mean(axis=0), *points[:3]]
                ),
            )
            gap = distance_sum(ours, updates) - best
            worst_gap = max(worst_gap, gap)
            assert gap <= 1e-3, f"case {case}: objective gap {gap:.2e}"

            # descent property, checked on the raw iteration
            x = np.median(points, axis=0)
            prev = distance_sum(x, updates)
            for _ in range(200):
                dist = np.linalg.norm(points - x, axis=1)
                if (dist < 1e-12).any():
                    break
                inv = 1.0 / dist
                x = (points * inv[:, None]).sum(axis=0) / inv.sum()
                current = distance_sum(x, updates)
                assert current <= prev + 1e-9
                prev = current
        print(
            f"\nACCEPTANCE 5 PASS — Weiszfeld: 50 instances, max objective gap "
            f"{worst_gap:.2e} (<=1e-3), descent held every iteration"
        )


class TestCriterion6MaskCancellation:
    def test_bit_exact_sums_and_dropout_abort(self):
        rng = np.random.default_rng(6)
        checked = 0
        for n in range(2, 7):
            cohort = [f"site-{i}" for i in range(n)]
            for seed in range(100):
                root = (seed * 977 + n).to_bytes(8, "big") + bytes(24)
                deltas = {cid: rng.normal(size=64) for cid in cohort}
                masked = [mask_update(deltas[c], c, cohort, seed, root) for c in sorted(cohort)]
                expected_words = np.zeros(64, dtype=np.uint64)
                for cid in sorted(cohort):
                    expected_words += encode_fixed(deltas[cid])
                got = sum_masked(masked)
                want = expected_words.view(np.int64).astype(np.float64) / 2.0**32
                assert (got == want).all(), f"mismatch at n={n} seed={seed}"
                checked += 1
        assert checked == 500

        # dropout hazard: a masked round missing one member must abort
        corpus = synthetic_corpus(60, seed=61)
        shards = partition(corpus, PartitionPlan("equal-n", 3, seed=1))
        ids = ["site-1", "site-2", "site-3"]
        kits = provision([("server", "server")] + [(c, "client") for c in ids],
                         key_seed=8)
        spec = FederationSpec(
            shards={**dict(zip(ids, shards)), "site-3": []},
            train=TrainConfig(feature_dim=1 << 10),
            strategy=AggregationStrategy("fedavg"),
            rounds=1, k=3, m=2, deadline_ms=5_000.0,
            kits=kits, server_id="server",
            policies={c: SitePolicy(site_id=c, masking_enabled=True) for c in ids},
        )
        with pytest.raises(RoundFailedError):
            run_federation(spec, SimNetConfig(seed=9))
        print(
            "\nACCEPTANCE 6 PASS — masking: 500 cohort/seed combinations summed "
            "bit-exactly; masked round missing a member aborted"
        )


class TestCriterion7DpSanity:
    def test_noise_calibration_identity_limit_and_svt_budget(self):
        rng = np.random.default_rng(42)
        sigma = gaussian_sigma(1.0, 1.0, 1e-5)
        sample = gaussian_mechanism(np.zeros(1_000_000), 1.0, 1.0, 1e-5, rng)
        rel_err = abs(np.std(sample) - sigma) / sigma
        assert rel_err < 0.01

        delta = np.linspace(-0.5, 0.5, 10_000)
        rng2 = np.random.default_rng(43)
        out = gaussian_mechanism(delta, 1.0, 1e9, 1e-5, rng2)
        max_dev = float(np.max(np.abs(out - delta)))
        assert max_dev < 1e-6

        rng3 = np.random.default_rng(44)
        worst = 0
        for _ in range(1000):
            vec = rng3.normal(size=50)
            c = int(rng3.integers(1, 7))
            released = svt_filter(vec, 0.7, c, 0.8, rng3)
            worst = max(worst, len(released.indices) - c)
            assert len(released.indices) <= c
        print(
            f"\nACCEPTANCE 7 PASS — DP: empirical std within {rel_err * 100:.2f}% "
            f"of sigma (<1%), eps=1e9 max deviation {max_dev:.2e} (<1e-6), "
            f"SVT budget respected in 1000 trials"
        )


class TestCriterion8ProtocolLivenessSafety:
    def test_100_lossy_trials_complete(self):
        corpus = synthetic_corpus(60, seed=81)
        shards = partition(corpus, PartitionPlan("equal-n", 6, seed=2))
        ids = [f"site-{i + 1}" for i in range(6)]
        kits = provision([("server", "server")] + [(c, "client") for c in ids],
                         key_seed=17)
        cfg = TrainConfig(feature_dim=1 << 10, learning_rate=0.5, batch_size=16)
        rounds = 3
        for trial in range(100):
            spec = FederationSpec(
                shards=dict(zip(ids, shards)), train=cfg,
                strategy=AggregationStrategy("fedavg"),
                rounds=rounds, k=6, m=4, deadline_ms=60_000.0,
                kits=kits, server_id="server",
            )
            result = run_federation(spec, SimNetConfig((1.0, 10.0), 0.3, trial))
            assert len(result.history) == rounds, f"trial {trial} incomplete"
            for rec in result.history:
                assert len(rec.responded) >= 4
                assert set(rec.responded) <= set(rec.invited)
        print(
            "\nACCEPTANCE 8a PASS — liveness: 100 seeded trials at drop 0.3 "
            f"(k=6, m=4) completed all {rounds} rounds with quorum"
        )

    def test_fuzzed_event_sequences_hold_invariants(self):
        rng = random.Random(88)
        clients = [f"site-{i}" for i in range(1, 7)]
        steps = 0
        for trial in range(500):
            config = protocol.ServerConfig(
                rounds=rng.randint(1, 3), k=rng.randint(2, 6), m=1,
                deadline_ms=1000.0, plan_seed=trial,
                masked_cohort=frozenset(rng.sample(clients, rng.randint(0, 2))),
            )
            config = protocol.ServerConfig(
                rounds=config.rounds, k=config.k, m=rng.randint(1, config.k),
                deadline_ms=1000.0, plan_seed=trial,
                masked_cohort=config.masked_cohort,
            )
            state = protocol.ServerState()
            for cid in clients:
                state, _ = protocol.server_step(
                    state, protocol.ClientRegistered(cid), config
                )
            state, _ = protocol.server_step(state, protocol.Start(0.0), config)
            for step_no in range(30):
                steps += 1
                event = _random_event(rng, clients, step_no)
                state, actions = protocol.server_step(state, event, config)
                assert set(state.responded) <= set(state.invited)
                for action in actions:
                    if isinstance(action, protocol.StartAggregation):
                        assert len(action.responded) >= config.m
                        assert action.round == state.round
                for rec in state.history:
                    assert set(rec.responded) <= set(rec.invited)
                    assert not set(rec.responded) & set(rec.late_discarded)
                if state.phase == protocol.FINISHED:
                    break
        assert steps >= 10_000
        print(
            f"\nACCEPTANCE 8b PASS — safety: {steps} fuzzed events across 500 "
            "configs violated no quorum/round-tag invariant"
        )


def _random_event(rng, clients, now):
    kind = rng.randrange(5)
    cid = rng.choice(clients + ["intruder"])
    rnd = rng.randint(0, 4)
    if kind == 0:
        return protocol.UpdateReceived(cid, rnd, 1.0)
    if kind == 1:
        return protocol.DeadlineFired(rnd, rng.randint(0, 1), float(now))
    if kind == 2:
        return protocol.RoundAggregated(rnd, rng.random(), float(now))
    if kind == 3:
        return protocol.ClientRegistered(cid)
    return protocol.UpdateReceived(cid, rnd, 5.0)


class TestCriterion9GradientCheck:
    def test_relative_error_below_1e4_on_20_instances(self):
        worst = 0.0
        for case in range(20):
            rng = np.random.default_rng(9000 + case)
            cfg = TrainConfig(
                feature_dim=1 << 10,
                fedprox_mu=0.2 if case % 5 == 0 else 0.0,
            )
            corpus = synthetic_corpus(4, seed=case)
            params = rng.normal(size=cfg.dims) * 0.3
            reference = rng.normal(size=cfg.dims) * 0.1
            _, grad = loss_and_grad(
                params, corpus.sentences, cfg, global_reference=reference
            )
            encoded = encode_sentences(corpus.sentences, cfg.feature_dim, cfg.hash_seed)
            touched = np.unique(encoded.feats)
            coords = [
                cls * cfg.feature_dim + int(f)
                for cls in range(3)
                for f in touched[:: max(1, len(touched) // 8)]
            ][:24]
            h = 1e-6
            for coord in coords:
                bumped = params.copy()
                bumped[coord] += h
                up, _ = loss_and_grad(bumped, corpus.sentences, cfg,
                                      global_reference=reference)
                bumped[coord] -= 2 * h
                down, _ = loss_and_grad(bumped, corpus.sentences, cfg,
                                        global_reference=reference)
                fd = (up - down) / (2 * h)
                scale = max(abs(fd), abs(grad[coord]))
                if scale > 1e-6:
                    rel = abs(fd - grad[coord]) / scale
                    worst = max(worst, rel)
                    assert rel < 1e-4
        print(
            f"\nACCEPTANCE 9 PASS — gradient check: 20 instances, worst relative "
            f"error {worst:.2e} (<1e-4)"
        )


class TestCriterion10TrustAndAudit:
    def test_model_tamper_audit_tamper_and_unsafe_jobs(self, corpus_dir):
        kits = provision([("server", "server"), ("site-1", "client")], key_seed=10)
        params = np.linspace(-1, 1, 8)
        signature = sign_model(params, kits["server"].private_key())
        assert verify_model(params, signature, kits["server"].identity())
        raw = bytearray(params.tobytes())
        flips = 0
        for byte_idx in range(len(raw)):
            for bit in range(8):
                mutated = bytearray(raw)
                mutated[byte_idx] ^= 1 << bit
                tampered = np.frombuffer(bytes(mutated), dtype=np.float64)
                assert not verify_model(tampered, signature, kits["server"].identity())
                flips += 1

        config = _base_config(corpus_dir)
        spec_corpus = synthetic_corpus(40, seed=101)
        shards = partition(spec_corpus, PartitionPlan("equal-n", 2, seed=1))
        run_kits = provision(
            [("server", "server"), ("site-1", "client"), ("site-2", "client")],
            key_seed=11,
        )
        spec = FederationSpec(
            shards={"site-1": shards[0], "site-2": shards[1]},
            train=TrainConfig(feature_dim=1 << 10),
            strategy=AggregationStrategy("fedavg"),
            rounds=2, k=2, m=2, deadline_ms=5_000.0,
            kits=run_kits, server_id="server",
        )
        result = run_federation(spec, SimNetConfig(seed=15))
        assert audit_verify(result.audit) is None
        from dataclasses import replace as dc_replace

        mutations = 0
        for idx in range(len(result.audit)):
            for field_name, value in (
                ("payload_hash", "0" * 64),
                ("event_type", "Register"),
                ("timestamp", "1970-01-01T00:00:00.000000Z"),
                ("payload", "forged = true\n"),
            ):
                entries = list(result.audit)
                if getattr(entries[idx], field_name) == value:
                    continue
                entries[idx] = dc_replace(entries[idx], **{field_name: value})
                assert audit_verify(entries) is not None
                mutations += 1

        with pytest.raises(UnsafeComponentError):
            check_components({"shell-exec": {}})
        bad = parse_experiment(
            f"""
corpus.train = "{corpus_dir / 'train.conll'}"
corpus.test = "{corpus_dir / 'test.conll'}"
rounds = 1
clients = 2
policy.site-1.clip_norm = 1.0
policy.site-1.dp.epsilon = 1.0
policy.site-1.dp.delta = 1e-5
"""
        )
        bad = replace(
            bad,
            train=replace(bad.train, learning_rate=1e6),
        )
        with pytest.raises(UnsafeComponentError):
            vet_config(bad, bad.site_ids(), None)
        print(
            f"\nACCEPTANCE 10 PASS — trust/audit: {flips} model bit-flips and "
            f"{mutations} audit mutations all detected; unsafe jobs rejected "
            "before any round"
        )


class TestCriterion11Determinism:
    def test_two_simulate_runs_byte_identical_rows(self, corpus_dir, tmp_path):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(
            f"""
corpus.train = "{corpus_dir / 'train.conll'}"
corpus.test = "{corpus_dir / 'test.conll'}"
rounds = 5
clients = 4
train.feature_dim = 16384
experiment.kind = client-sweep
experiment.client_counts = [2, 4]
policy.site-1.clip_norm = 5.0
"""
        )
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main([
                "simulate", "--config", str(config_path), "--out", str(out),
                "--seed-data", "3", "--seed-model", "4", "--seed-net", "5",
            ]) == 0
            outs.append((out / "report.rows").read_bytes())
        assert outs[0] == outs[1]
        print(
            f"\nACCEPTANCE 11 PASS — determinism: two simulate runs produced "
            f"byte-identical report.rows ({len(outs[0])} bytes)"
        )
