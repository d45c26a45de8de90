import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from fedmesh import protocol, runner
from fedmesh.aggregation import AggregationStrategy, SparseVector
from fedmesh.data import PartitionPlan, partition, synthetic_corpus
from fedmesh.errors import ConfigError
from fedmesh.model import Metrics, TrainConfig, encode_sentences, evaluate, zero_params
from fedmesh.privacy import DpParams, SitePolicy, SvtParams
from fedmesh.runner import (
    SIGNATURE_LEN,
    Adversary,
    FederationSpec,
    RoundFailedError,
    Seeds,
    replay_rounds,
    run_centralized,
    run_federation,
)
from fedmesh.seeding import derive_seed
from fedmesh.simnet import SimNetConfig
from fedmesh.transport import (
    MSG_EVAL_REPORT,
    MSG_REGISTER,
    MSG_UPDATE_SUBMIT,
    VECTOR_SPARSE_F64,
    DeliveryReceipt,
    Payload,
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

    @pytest.mark.parametrize("feature_dim,sparse", [(1 << 16, True), (1 << 10, False)])
    def test_global_model_is_sparse_while_it_fits_and_dense_when_done(
        self, monkeypatch, feature_dim, sparse
    ):
        kinds = []

        def recording(base, delta):
            out = add_vectors(base, delta)
            kinds.append((type(delta), type(out)))
            return out

        add_vectors = runner.add_vectors
        monkeypatch.setattr(runner, "add_vectors", recording)
        spec = make_spec(n_clients=3, train=replace(CFG, feature_dim=feature_dim))
        res = run_federation(spec, SimNetConfig(seed=7))
        # On the wide model every update arrives sparse, so each fedavg
        # aggregate and the global model stay sparse; on the narrow one the
        # updates arrive dense and so does everything after them.
        kind = SparseVector if sparse else np.ndarray
        assert kinds == [(kind, kind)] * 3
        assert type(res.final_params) is np.ndarray
        assert verify_model(res.final_params, res.model_signature,
                            spec.kits["server"].identity())

    def test_validation_rejects_bad_quorum(self):
        with pytest.raises(ConfigError):
            make_spec(n_clients=2, k=3, m=3).validate()


class TestVectorLifetimes:
    def test_no_node_keeps_a_rounds_vectors_into_the_next(self, monkeypatch):
        # Every decoded task and update, tagged with its round.  When the
        # coordinator broadcasts round r, the only vector of an earlier round
        # still alive is the update whose arrival closed round r - 1: it is on
        # the update handler's stack.  Sites drop their task once trained and
        # the coordinator drops the updates once aggregated.
        decoded = []

        def tracking(payload):
            doc, vector = decode_payload(payload)
            if vector is not None and "round" in doc:
                decoded.append((int(doc["round"]), weakref.ref(vector)))
            return doc, vector

        live = []

        def counting(server, action):
            gc.collect()
            live.append(sum(r < action.round and ref() is not None for r, ref in decoded))
            broadcast(server, action)

        decode_payload, broadcast = runner.decode_payload, runner.ServerNode._broadcast_task
        monkeypatch.setattr(runner, "decode_payload", tracking)
        monkeypatch.setattr(runner.ServerNode, "_broadcast_task", counting)
        spec = make_spec(n_clients=3, strategy="geo-median")
        spec.policies = {
            "site-1": SitePolicy(site_id="site-1", clip_norm=1.0, dp=DpParams(5.0, 1e-5)),
        }
        res = run_federation(spec, SimNetConfig(seed=4))
        assert len(res.history) == 3
        assert len(live) == 3 and max(live) <= 1, live


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

    @pytest.mark.parametrize("settle", ["no-data", "no-mask-root", "upload-given-up"])
    def test_a_settled_site_waits_and_runs_its_next_task(self, settle, monkeypatch):
        # site-1 refuses its round for no data or for a kit it cannot mask
        # with, or its upload is given up.  Either way the round settles, the
        # site is WAITING again and runs the next task it is sent: round 2
        # when m = 1 lets round 1 go on without it, or the retry of round 1
        # when the masked round aborts.
        spec = make_spec(n_clients=3, rounds=2, m=1)
        if settle == "no-data":
            spec.shards["site-1"] = []
        elif settle == "no-mask-root":
            spec.kits["site-1"] = replace(spec.kits["site-1"], mask_root=None)
            spec.policies = {
                cid: SitePolicy(site_id=cid, masking_enabled=True) for cid in ("site-1", "site-2")
            }
        else:
            send = ReliableEndpoint.send

            def lose_updates(rel, dst, msg_type, payload, on_result=None):
                if rel.name != "site-1" or msg_type != MSG_UPDATE_SUBMIT:
                    return send(rel, dst, msg_type, payload, on_result)
                rel.raw.schedule(1.0, lambda: on_result(DeliveryReceipt(
                    ok=False, dst=dst, msg_type=msg_type, attempts=6, error="retries exhausted",
                )))
                return 0

            monkeypatch.setattr(ReliableEndpoint, "send", lose_updates)
        run_task, ran = runner.ClientNode._run_task, []

        def spy(node, round_no):
            ran.append((node, round_no))
            run_task(node, round_no)

        monkeypatch.setattr(runner.ClientNode, "_run_task", spy)
        if settle == "no-mask-root":
            with pytest.raises(RoundFailedError):
                run_federation(spec, SimNetConfig(seed=1))
        else:
            res = run_federation(spec, SimNetConfig(seed=1))
            assert all("site-1" not in rec.responded for rec in res.history)
        site_1 = [(node, rnd) for node, rnd in ran if node.kit.site_id == "site-1"]
        assert [rnd for _, rnd in site_1] == ([1, 1] if settle == "no-mask-root" else [1, 2])
        node, last = site_1[-1]
        assert node.state == protocol.ClientState(protocol.WAITING, last)


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

    @pytest.mark.parametrize("spoil", ["past-the-bound", "no-mask-root", "no-peer"])
    def test_client_that_cannot_mask_refuses_and_the_round_fails(self, spoil, caplog):
        # weight * delta past encode_fixed's bound, a kit without a mask root
        # or a task that invites site-1 without its masking peer is refused by
        # the client inside the event loop; the masked round then aborts for
        # the missing member instead of the run raising.
        spec = make_spec(rounds=1)
        if spoil == "past-the-bound":
            spec.adversary = Adversary("site-1", 1e10)
            reason = "supports |value| <"
        elif spoil == "no-mask-root":
            spec.kits["site-1"] = replace(spec.kits["site-1"], mask_root=None)
            reason = "no mask root in kit"
        else:
            # k = 2 of 3 sites, and this plan seed invites site-1 and site-3.
            spec = make_spec(n_clients=3, rounds=1, k=2, m=2, seeds=Seeds(data=1, model=2, net=1))
            reason = "has no peer in the masked cohort"
        spec.policies = {
            cid: SitePolicy(site_id=cid, masking_enabled=True) for cid in ("site-1", "site-2")
        }
        with pytest.raises(RoundFailedError):
            run_federation(spec, SimNetConfig(seed=1))
        records = [r for r in caplog.records if "TaskRefused" in r.getMessage()]
        refusals = [r.getMessage() for r in records]
        # The refusal frees site-1, so it takes the retry and refuses it for the same reason.
        assert len(refusals) == 2
        assert all(m.startswith("client site-1:") and reason in m for m in refusals)
        assert not any("busy in" in m for m in refusals)
        # The reason is the message itself, not an exception's quoted repr of it.
        logged = [r.args[-1]["reason"] for r in records]
        assert all(reason in text and '"' not in text for text in logged)
        if spoil == "no-peer":
            assert logged == ["'site-1' has no peer in the masked cohort"] * 2

    def test_masking_requires_fedavg(self):
        spec = make_spec(strategy="coord-median")
        spec.policies = {
            cid: SitePolicy(site_id=cid, masking_enabled=True) for cid in spec.shards
        }
        with pytest.raises(ConfigError, match="fedavg"):
            spec.validate()

    def test_masked_cohort_of_one_refused(self):
        # Its mask has no peer to cancel against, so no round could complete.
        spec = make_spec()
        spec.policies = {"site-1": SitePolicy(site_id="site-1", masking_enabled=True)}
        with pytest.raises(ConfigError, match="at least two sites"):
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

    def test_adversary_uploads_one_vector_without_training(self, monkeypatch):
        trained, policed = [], []
        real_train, real_policy = runner.local_train, runner.apply_policy

        def counting_train(*args):
            trained.append(args)
            return real_train(*args)

        def recording_policy(delta, *args):
            policed.append(delta)
            return real_policy(delta, *args)

        monkeypatch.setattr(runner, "local_train", counting_train)
        monkeypatch.setattr(runner, "apply_policy", recording_policy)
        spec = make_spec(n_clients=3, rounds=3, adversary=Adversary("site-2", 50.0))
        run_federation(spec, SimNetConfig(seed=4))
        # Only the two honest sites train; the adversary's one array serves
        # every round.
        assert len(trained) == 2 * 3
        attacks = [d for d in policed if not isinstance(d, SparseVector)]
        assert len(attacks) == 3 and all(a is attacks[0] for a in attacks)
        rng = np.random.Generator(np.random.PCG64(derive_seed("byzantine", "site-2")))
        want = 50.0 * rng.choice([-1.0, 1.0], size=CFG.dims) / np.sqrt(CFG.dims)
        assert attacks[0].tobytes() == want.tobytes()


def cross_site_evaluate(params, site_holdouts, config):
    """Local oracle for the networked table: each site's holdout scored
    directly (absent when empty)."""
    return {
        site: evaluate(params, site_holdouts[site], config) if site_holdouts[site] else None
        for site in sorted(site_holdouts)
    }


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
        good = bytes(_signed(
            {"client_id": "site-1", "round": 1, "weight": 5.0, "masked": False},
            np.zeros(CFG.dims),
            spec.kits["site-1"],
        ))
        rng = pyrandom.Random(0)
        for _ in range(60):
            blob = bytearray(good)
            for _ in range(rng.randrange(1, 4)):
                blob[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
            honest.send("server", MSG_UPDATE_SUBMIT, Payload(bytes(blob)))
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

    def _started(self, spec):
        """A coordinator that both sites registered with: round 1 has begun,
        or with no rounds to run the federation has finished."""
        from fedmesh.runner import _signed

        net, server, audit = self._server_net(spec)
        sites = {cid: ReliableEndpoint(net.endpoint(cid)) for cid in ("site-1", "site-2")}
        for cid, site in sites.items():
            site.send("server", MSG_REGISTER,
                      _signed({"site_id": cid, "role": "client"}, None, spec.kits[cid]))
        net.run(until=lambda: server.state.phase != protocol.IDLE)
        return net, server, audit, sites["site-1"]

    @staticmethod
    def _run_until_audited(net, audit, reason):
        net.run(until=lambda: any(reason in e.payload for e in audit.entries))
        assert any(e.event_type == "UpdateRejected" and reason in e.payload
                   for e in audit.entries)

    def _update(self, spec, round_no, fill):
        from fedmesh.runner import _signed

        doc = {"client_id": "site-1", "round": round_no, "weight": 5.0, "masked": False}
        return _signed(doc, np.full(CFG.dims, fill), spec.kits["site-1"])

    @pytest.mark.parametrize("rounds,round_no,reason", [
        (3, 10**6, "wrong round"), (0, 1, "federation finished"),
    ])
    def test_a_rejected_update_is_not_kept(self, rounds, round_no, reason):
        spec = make_spec(rounds=rounds)
        net, server, audit, site = self._started(spec)
        site.send("server", MSG_UPDATE_SUBMIT, self._update(spec, round_no, 1.0))
        self._run_until_audited(net, audit, reason)
        assert "site-1" not in server.vectors

    def test_a_duplicate_update_leaves_the_accepted_one(self):
        spec = make_spec()
        net, server, audit, site = self._started(spec)
        site.send("server", MSG_UPDATE_SUBMIT, self._update(spec, 1, 1.0))
        site.send("server", MSG_UPDATE_SUBMIT, self._update(spec, 1, 2.0))
        self._run_until_audited(net, audit, "duplicate update")
        assert server.state.phase == protocol.GATHERING
        assert server.state.responded == ("site-1",)
        assert (server.vectors["site-1"] == 1.0).all()

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

    @pytest.mark.parametrize("field,value", [("ent_f1", None), ("ent_f1", "high"), ("tok_tp", "x")])
    def test_malformed_eval_report_audited_and_site_absent(self, field, value):
        from fedmesh.runner import _signed

        spec = make_spec()
        net, server, audit, site = self._registered_site_1(spec)
        doc = {
            "site_id": "site-1", "has_data": True,
            **Metrics.from_counts(3, 1, 2, "entity-strict").fields("ent"),
            **Metrics.from_counts(9, 2, 4, "token").fields("tok"),
        }
        if value is None:
            del doc[field]
        else:
            doc[field] = value
        site.send("server", MSG_EVAL_REPORT, _signed(doc, None, spec.kits["site-1"]))
        net.run()
        assert server.eval_reports == {"site-1": None}
        assert any(
            e.event_type == "EvalReportRejected" and "malformed report" in e.payload
            for e in audit.entries
        )

    def test_signed_payload_is_one_encoding_plus_signature_trailer(self):
        from fedmesh.runner import _opened, _signed

        kit = make_spec().kits["site-1"]
        delta = np.zeros(CFG.dims)
        delta[[3, 77, 500, 4000]] = [0.25, -0.0, 5e-324, -3.5]
        doc = {"client_id": "site-1", "round": 1, "weight": 5.0, "masked": False}
        signed = bytes(_signed(doc, delta, kit))
        body = bytes(encode_payload(doc, delta))
        assert signed[:-SIGNATURE_LEN] == body
        assert len(signed) == len(body) + SIGNATURE_LEN
        got_doc, got = _opened(signed, kit.identity().public_key)
        assert got_doc == doc and got.to_dense().tobytes() == delta.tobytes()

    def test_every_bit_flip_of_signed_sparse_update_rejected(self):
        from fedmesh.runner import _opened, _signed

        spec = make_spec()
        kit = spec.kits["site-1"]
        pub = kit.identity().public_key
        delta = np.zeros(CFG.dims)
        delta[[0, 3, 77, 500, CFG.dims - 1]] = [1.0, 0.25, -0.0, 5e-324, -3.5]
        good = bytes(_signed(
            {"client_id": "site-1", "round": 1, "weight": 5.0, "masked": False},
            delta, kit,
        ))
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
            site.send("server", MSG_UPDATE_SUBMIT, Payload(bytes(blob)))
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
        client = ClientNode(ReliableEndpoint(net.endpoint("site-1")), spec.kits["site-1"], spec)
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


    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("fill", [0.0, 1e-3], ids=["sparse-task", "dense-task"])
    def test_non_finite_task_refused_and_no_update_sent(self, bad, fill, caplog):
        from fedmesh.runner import ClientNode, _signed
        from fedmesh.simnet import SimNetwork
        from fedmesh.transport import MSG_TASK_ASSIGN

        spec = make_spec()
        net = SimNetwork(SimNetConfig(seed=13))
        server = ReliableEndpoint(net.endpoint("server"))
        sent = []
        server.on_message = lambda src, msg_type, payload: sent.append(msg_type)
        shard = spec.shards["site-1"]
        client = ClientNode(ReliableEndpoint(net.endpoint("site-1")), spec.kits["site-1"], spec)
        # The bad word sits outside the shard's features, where no step reads it.
        used = encode_sentences(shard, CFG.feature_dim, CFG.hash_seed).feats
        params = np.full(CFG.dims, fill)
        params[np.setdiff1d(np.arange(CFG.feature_dim), used)[0]] = bad
        doc = {"round": 1, "invited": ["site-1"], "masked": []}
        server.send("site-1", MSG_TASK_ASSIGN, _signed(doc, params, spec.kits["server"]))
        net.run()
        assert client.current_task is None
        assert "malformed task" in caplog.text
        assert MSG_UPDATE_SUBMIT not in sent

    def test_word_vector_task_refused_not_raised(self, caplog):
        from fedmesh.runner import ClientNode, _signed
        from fedmesh.simnet import SimNetwork
        from fedmesh.transport import MSG_TASK_ASSIGN

        spec = make_spec()
        net = SimNetwork(SimNetConfig(seed=13))
        server = ReliableEndpoint(net.endpoint("server"))
        client = ClientNode(ReliableEndpoint(net.endpoint("site-1")), spec.kits["site-1"], spec)
        doc = {"round": 1, "invited": ["site-1"], "masked": []}
        words = np.ones(CFG.dims, dtype=np.uint64)
        server.send("site-1", MSG_TASK_ASSIGN, _signed(doc, words, spec.kits["server"]))
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
