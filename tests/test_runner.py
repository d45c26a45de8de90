import numpy as np
import pytest

from fedmesh.aggregation import AggregationStrategy
from fedmesh.data import PartitionPlan, partition, synthetic_corpus
from fedmesh.errors import ConfigError
from fedmesh.model import TrainConfig, evaluate, zero_params
from fedmesh.privacy import DpParams, SitePolicy, SvtParams
from fedmesh.runner import (
    SIGNATURE_LEN,
    Adversary,
    FederationSpec,
    RoundFailedError,
    Seeds,
    cross_site_evaluate,
    replay_rounds,
    run_centralized,
    run_federation,
)
from fedmesh.simnet import SimNetConfig
from fedmesh.transport import (
    MSG_REGISTER,
    MSG_UPDATE_SUBMIT,
    VECTOR_SPARSE_F64,
    ReliableEndpoint,
    encode_payload,
)
from fedmesh.trustops import AuditLog, audit_verify, provision, verify_model

CFG = TrainConfig(feature_dim=1 << 12, learning_rate=0.5, batch_size=16)


def make_spec(n_clients=2, n_sentences=120, rounds=3, strategy="fedavg", **overrides):
    corpus = synthetic_corpus(n_sentences, seed=21)
    shards = partition(corpus, PartitionPlan("equal-n", n_clients, seed=1))
    ids = [f"site-{i + 1}" for i in range(n_clients)]
    kits = provision(
        [("server", "server")] + [(cid, "client") for cid in ids], key_seed=5
    )
    base = dict(
        shards=dict(zip(ids, shards)),
        train=CFG,
        strategy=AggregationStrategy(strategy),
        rounds=rounds,
        k=n_clients,
        m=n_clients,
        deadline_ms=30_000.0,
        kits=kits,
        server_id="server",
        seeds=Seeds(data=1, model=2, net=3),
    )
    base.update(overrides)
    return FederationSpec(**base)


class TestFederationBasics:
    def test_rerun_is_bit_identical(self):
        a = run_federation(make_spec(), SimNetConfig(seed=9))
        b = run_federation(make_spec(), SimNetConfig(seed=9))
        assert (a.final_params == b.final_params).all()
        assert a.history == b.history
        assert [e.entry_hash for e in a.audit] == [e.entry_hash for e in b.audit]

    def test_zero_rounds_returns_initial_params(self):
        res = run_federation(make_spec(rounds=0), SimNetConfig(seed=1))
        assert (res.final_params == zero_params(CFG)).all()
        assert res.history == ()

    def test_history_round_tags_and_quorum(self):
        spec = make_spec(n_clients=4, rounds=4)
        res = run_federation(spec, SimNetConfig(seed=2))
        assert [r.round for r in res.history] == [1, 2, 3, 4]
        for rec in res.history:
            assert set(rec.responded) <= set(rec.invited)
            assert len(rec.responded) >= spec.m

    def test_final_model_signature_verifies(self):
        spec = make_spec()
        res = run_federation(spec, SimNetConfig(seed=3))
        assert verify_model(
            res.final_params, res.model_signature, spec.kits["server"].identity()
        )

    def test_audit_chain_intact_and_replayable(self):
        spec = make_spec(n_clients=3, rounds=3)
        res = run_federation(spec, SimNetConfig(seed=4))
        assert audit_verify(res.audit) is None
        replayed = replay_rounds(res.audit)
        assert set(replayed) == {rec.round for rec in res.history}
        for rec in res.history:
            assert replayed[rec.round]["invited"] == set(rec.invited)
            assert replayed[rec.round]["responded"] == set(rec.responded)
            assert replayed[rec.round]["late"] == set(rec.late_discarded)
            assert replayed[rec.round]["attempts"] == rec.attempts

    def test_fedprox_and_trust_strategies_run(self):
        from dataclasses import replace

        spec = make_spec(strategy="fedavg-trust")
        spec.train = replace(CFG, fedprox_mu=0.1)
        res = run_federation(spec, SimNetConfig(seed=5))
        assert len(res.history) == 3

    def test_validation_rejects_bad_quorum(self):
        with pytest.raises(ConfigError):
            make_spec(n_clients=2, k=3, m=3).validate()


class TestCentralizedEquivalence:
    def test_one_full_batch_step_matches_centralized_gd(self):
        # 2 clients, equal shards, 1 local full-batch step per round, fedavg
        # weighted by token count == full-batch GD on the pooled corpus.
        from dataclasses import replace

        corpus = synthetic_corpus(80, seed=31)
        shards = partition(corpus, PartitionPlan("equal-n", 2, seed=2))
        cfg = replace(CFG, batch_size=10_000, local_epochs=1)
        rounds = 6
        ids = ["site-1", "site-2"]
        kits = provision(
            [("server", "server")] + [(c, "client") for c in ids], key_seed=5
        )
        spec = FederationSpec(
            shards=dict(zip(ids, shards)),
            train=cfg,
            strategy=AggregationStrategy("fedavg"),
            rounds=rounds,
            k=2,
            m=2,
            deadline_ms=30_000.0,
            kits=kits,
            server_id="server",
            track_params=True,
        )
        res = run_federation(spec, SimNetConfig(seed=6))

        from fedmesh.model import encode_sentences, loss_and_grad

        pooled = shards[0] + shards[1]
        encoded = encode_sentences(pooled, cfg.feature_dim, cfg.hash_seed)
        params = zero_params(cfg)
        for round_no in range(rounds):
            _, grad = loss_and_grad(params, encoded, cfg)
            params = params - cfg.learning_rate * grad
            gap = np.max(np.abs(res.params_per_round[round_no] - params))
            assert gap < 1e-9, f"round {round_no + 1} diverges by {gap}"

    def test_run_centralized_deterministic(self):
        corpus = synthetic_corpus(60, seed=32)
        a = run_centralized(corpus.sentences, CFG, 3, Seeds())
        b = run_centralized(corpus.sentences, CFG, 3, Seeds())
        assert (a == b).all()


class TestLossyNetwork:
    def test_rounds_complete_under_30_percent_drop(self):
        spec = make_spec(n_clients=6, n_sentences=60, rounds=2, m=4, k=6)
        for seed in range(5):
            res = run_federation(spec, SimNetConfig((1.0, 8.0), 0.3, seed))
            assert len(res.history) == 2
            for rec in res.history:
                assert len(rec.responded) >= 4

    def test_silent_client_aborts_round_then_fails(self):
        # A site with no data refuses to train, so its update never arrives;
        # with m = k the round aborts, retries once, then the run fails.
        spec = make_spec(n_clients=2, rounds=2)
        spec.shards["site-1"] = []
        with pytest.raises(RoundFailedError):
            run_federation(spec, SimNetConfig(seed=1))
        # m=1 tolerates the silent client instead
        spec_tolerant = make_spec(n_clients=2, rounds=2, m=1)
        spec_tolerant.shards["site-1"] = []
        res = run_federation(spec_tolerant, SimNetConfig(seed=1))
        assert all(rec.responded == ("site-2",) for rec in res.history)


class TestPrivacyIntegration:
    def test_masked_fedavg_matches_plain_within_fixed_point(self):
        plain = run_federation(make_spec(rounds=2), SimNetConfig(seed=7))
        masked_spec = make_spec(rounds=2)
        masked_spec.policies = {
            cid: SitePolicy(site_id=cid, masking_enabled=True)
            for cid in masked_spec.shards
        }
        masked = run_federation(masked_spec, SimNetConfig(seed=7))
        np.testing.assert_allclose(
            masked.final_params, plain.final_params, atol=1e-6, rtol=0
        )

    def test_masked_round_with_missing_client_aborts(self):
        # Quorum m=2 is met by the two live sites, but a masked member's
        # absence would corrupt the sum, so the round must abort anyway.
        spec = make_spec(n_clients=3, rounds=1, m=2, k=3)
        spec.shards["site-3"] = []
        spec.policies = {
            cid: SitePolicy(site_id=cid, masking_enabled=True) for cid in spec.shards
        }
        with pytest.raises(RoundFailedError):
            run_federation(spec, SimNetConfig(seed=1))

    def test_masking_requires_fedavg(self):
        spec = make_spec(strategy="coord-median")
        spec.policies = {"site-1": SitePolicy(site_id="site-1", masking_enabled=True)}
        with pytest.raises(ConfigError):
            spec.validate()

    def test_dp_and_svt_policies_run(self):
        spec = make_spec(rounds=2)
        spec.policies = {
            "site-1": SitePolicy(site_id="site-1", clip_norm=1.0, dp=DpParams(5.0, 1e-5)),
            "site-2": SitePolicy(
                site_id="site-2", clip_norm=1.0, svt=SvtParams(0.5, 50, 2.0)
            ),
        }
        res = run_federation(spec, SimNetConfig(seed=8))
        assert len(res.history) == 2
        assert np.all(np.isfinite(res.final_params))


class TestByzantine:
    def test_medians_resist_fedavg_breaks(self):
        test_corpus = synthetic_corpus(150, seed=22)
        adversary = Adversary("site-2", 1e6)

        def final_f1(strategy, adv):
            spec = make_spec(
                n_clients=4, n_sentences=300, rounds=6, strategy=strategy, adversary=adv
            )
            res = run_federation(spec, SimNetConfig(seed=9))
            ent, _ = evaluate(res.final_params, test_corpus.sentences, CFG)
            return ent.f1

        # Miniature version of the acceptance contrast; full-strength
        # thresholds live in test_acceptance.py.
        clean = final_f1("fedavg", None)
        assert final_f1("fedavg", adversary) < clean * 0.5
        assert final_f1("coord-median", adversary) >= clean - 0.1
        assert final_f1("geo-median", adversary) >= clean - 0.1


class TestCrossSiteEvaluation:
    def test_networked_reports_match_local_evaluation(self):
        holdout = synthetic_corpus(60, seed=23).sentences
        spec = make_spec(rounds=2)
        spec.holdouts = {"site-1": holdout[:30], "site-2": holdout[30:]}
        res = run_federation(spec, SimNetConfig(seed=10))
        local = cross_site_evaluate(res.final_params, spec.holdouts, CFG)
        assert res.cross_site == local

    def test_identical_site_data_identical_metrics(self):
        holdout = synthetic_corpus(40, seed=24).sentences
        table = cross_site_evaluate(np.zeros(CFG.dims), {"a": holdout, "b": holdout}, CFG)
        assert table["a"] == table["b"]

    def test_empty_site_marked_absent(self):
        spec = make_spec(rounds=1)
        spec.holdouts = {"site-1": synthetic_corpus(20, seed=25).sentences, "site-2": []}
        res = run_federation(spec, SimNetConfig(seed=11))
        assert res.cross_site["site-2"] is None
        assert res.cross_site["site-1"] is not None

    def test_pooled_micro_average_consistency(self):
        corpus = synthetic_corpus(90, seed=26)
        splits = {
            "a": corpus.sentences[:30],
            "b": corpus.sentences[30:75],
            "c": corpus.sentences[75:],
        }
        spec = make_spec(rounds=2, n_sentences=200)
        res = run_federation(spec, SimNetConfig(seed=12))
        table = cross_site_evaluate(res.final_params, splits, CFG)
        tok_counts = np.array(
            [[m[1].tp, m[1].fp, m[1].fn] for m in table.values() if m is not None]
        ).sum(axis=0)
        _, pooled = evaluate(res.final_params, corpus.sentences, CFG)
        assert list(tok_counts) == [pooled.tp, pooled.fp, pooled.fn]


class TestServerAuthentication:
    def _server_net(self, spec):
        from fedmesh.runner import ServerNode
        from fedmesh.simnet import SimNetwork

        net = SimNetwork(SimNetConfig(seed=13))
        rel = ReliableEndpoint(net.endpoint("server"))
        audit = AuditLog()
        server = ServerNode(rel, spec.kits["server"], spec, audit)
        return net, server, audit

    def test_register_with_wrong_key_rejected(self):
        spec = make_spec()
        net, server, audit = self._server_net(spec)
        from fedmesh.runner import _signed

        impostor = ReliableEndpoint(net.endpoint("site-1"))
        # site-1's claim signed with site-2's key
        payload = _signed(
            {"site_id": "site-1", "role": "client"}, None, spec.kits["site-2"]
        )
        impostor.send("server", MSG_REGISTER, payload)
        net.run()
        assert server.state.registry == frozenset()
        assert any(
            e.event_type == "Register" and "rejected" in e.payload for e in audit.entries
        )

    def test_unsigned_update_never_accepted(self):
        spec = make_spec()
        net, server, audit = self._server_net(spec)
        from fedmesh.runner import _signed

        rogue = ReliableEndpoint(net.endpoint("site-1"))
        rogue.send(
            "server", MSG_REGISTER,
            _signed({"site_id": "site-1", "role": "client"}, None, spec.kits["site-1"]),
        )
        net.run()
        assert "site-1" in server.state.registry

        delta = np.zeros(CFG.dims)
        unsigned = encode_payload(
            {"client_id": "site-1", "round": 1, "weight": 5.0, "masked": False}, delta
        )
        rogue.send("server", MSG_UPDATE_SUBMIT, unsigned)
        net.run()
        assert server.state.responded == ()
        assert any(
            e.event_type == "UpdateRejected" and "bad signature" in e.payload
            for e in audit.entries
        )

    def test_fuzzed_update_mutations_rejected(self):
        import random as pyrandom

        spec = make_spec()
        net, server, audit = self._server_net(spec)
        from fedmesh.runner import _signed

        honest = ReliableEndpoint(net.endpoint("site-1"))
        honest.send(
            "server", MSG_REGISTER,
            _signed({"site_id": "site-1", "role": "client"}, None, spec.kits["site-1"]),
        )
        net.run()
        good = _signed(
            {"client_id": "site-1", "round": 1, "weight": 5.0, "masked": False},
            np.zeros(CFG.dims),
            spec.kits["site-1"],
        )
        rng = pyrandom.Random(0)
        for _ in range(60):
            blob = bytearray(good)
            for _ in range(rng.randrange(1, 4)):
                blob[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
            honest.send("server", MSG_UPDATE_SUBMIT, bytes(blob))
        net.run()
        assert server.state.responded == ()

    def _registered_site_1(self, spec):
        from fedmesh.runner import _signed

        net, server, audit = self._server_net(spec)
        site = ReliableEndpoint(net.endpoint("site-1"))
        site.send(
            "server", MSG_REGISTER,
            _signed({"site_id": "site-1", "role": "client"}, None, spec.kits["site-1"]),
        )
        net.run()
        assert "site-1" in server.state.registry
        return net, server, audit, site

    @pytest.mark.parametrize("field,value", [
        ("round", "x"), ("round", [1, 2]), ("weight", "heavy"), ("round", None),
    ])
    def test_signed_update_with_bad_numbers_audited_not_raised(self, field, value):
        from fedmesh.runner import _signed

        spec = make_spec()
        net, server, audit, site = self._registered_site_1(spec)
        doc = {"client_id": "site-1", "round": 1, "weight": 5.0, "masked": False}
        if value is None:
            del doc[field]
        else:
            doc[field] = value
        site.send("server", MSG_UPDATE_SUBMIT,
                  _signed(doc, np.zeros(CFG.dims), spec.kits["site-1"]))
        net.run()
        assert server.state.responded == ()
        assert any(
            e.event_type == "UpdateRejected" and "malformed update" in e.payload
            for e in audit.entries
        )

    def test_signed_payload_is_one_encoding_plus_signature_trailer(self):
        from fedmesh.runner import _opened, _signed

        kit = make_spec().kits["site-1"]
        delta = np.zeros(CFG.dims)
        delta[[3, 77, 500, 4000]] = [0.25, -0.0, 5e-324, -3.5]
        doc = {"client_id": "site-1", "round": 1, "weight": 5.0, "masked": False}
        signed = _signed(doc, delta, kit)
        body = encode_payload(doc, delta)
        assert signed[:-SIGNATURE_LEN] == body
        assert len(signed) == len(body) + SIGNATURE_LEN
        got_doc, got = _opened(signed, kit.identity().public_key)
        assert got_doc == doc and got.tobytes() == delta.tobytes()

    def test_every_bit_flip_of_signed_sparse_update_rejected(self):
        from fedmesh.runner import _opened, _signed

        spec = make_spec()
        kit = spec.kits["site-1"]
        pub = kit.identity().public_key
        delta = np.zeros(CFG.dims)
        delta[[0, 3, 77, 500, CFG.dims - 1]] = [1.0, 0.25, -0.0, 5e-324, -3.5]
        good = _signed(
            {"client_id": "site-1", "round": 1, "weight": 5.0, "masked": False},
            delta, kit,
        )
        doc_len = int.from_bytes(good[:4], "big")
        assert good[4 + doc_len] == VECTOR_SPARSE_F64
        flips = 0
        for byte_idx in range(len(good)):
            for bit in range(8):
                blob = bytearray(good)
                blob[byte_idx] ^= 1 << bit
                assert _opened(bytes(blob), pub) is None
                flips += 1
        assert flips == 8 * len(good)
        for cut in (1, SIGNATURE_LEN, len(good) - 1):
            assert _opened(good[:-cut], pub) is None
        assert _opened(good + b"\x00", pub) is None

        net, server, audit, site = self._registered_site_1(spec)
        rng = np.random.default_rng(3)
        for _ in range(40):
            blob = bytearray(good)
            blob[rng.integers(len(blob))] ^= 1 << int(rng.integers(8))
            site.send("server", MSG_UPDATE_SUBMIT, bytes(blob))
        net.run()
        assert server.state.responded == ()
        assert sum(e.event_type == "UpdateRejected" for e in audit.entries) == 40


class TestClientTaskValidation:
    @pytest.mark.parametrize("field,value", [
        ("round", "x"), ("round", [1, 2]), ("round", None), ("masked", 5),
    ])
    def test_signed_task_with_bad_fields_refused_not_raised(self, field, value, caplog):
        from fedmesh.runner import ClientNode, _signed
        from fedmesh.simnet import SimNetwork
        from fedmesh.transport import MSG_TASK_ASSIGN

        spec = make_spec()
        net = SimNetwork(SimNetConfig(seed=13))
        server = ReliableEndpoint(net.endpoint("server"))
        client = ClientNode(ReliableEndpoint(net.endpoint("site-1")), spec.kits["site-1"],
                            spec.shards["site-1"], spec)
        doc = {"round": 1, "invited": ["site-1"], "masked": []}
        if value is None:
            del doc[field]
        else:
            doc[field] = value
        server.send("site-1", MSG_TASK_ASSIGN,
                    _signed(doc, np.zeros(CFG.dims), spec.kits["server"]))
        net.run()
        assert client.current_task is None
        assert "malformed task" in caplog.text


class TestServerShutdown:
    def test_done_is_set_only_after_closing_acks_are_sent(self):
        from fedmesh.runner import ServerNode
        from fedmesh.simnet import SimNetwork

        spec = make_spec()
        net = SimNetwork(SimNetConfig(seed=13))
        server = ServerNode(ReliableEndpoint(net.endpoint("server")), spec.kits["server"],
                            spec, AuditLog())
        done_at_send = []
        server.rel.send = lambda dst, msg_type, payload, on_result=None: (
            done_at_send.append((dst, server.done))
        )
        server._finish_eval()
        assert done_at_send == [("site-1", False), ("site-2", False)]
        assert server.done
