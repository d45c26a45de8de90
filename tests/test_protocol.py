import random

import pytest

from fedmesh.errors import ConfigError
from fedmesh.protocol import (
    AGGREGATING,
    BUSY,
    AbortRound,
    Audit,
    BroadcastTask,
    ClientRegistered,
    ClientState,
    DeadlineFired,
    FINISHED,
    FederationComplete,
    GATHERING,
    RoundAggregated,
    RunTask,
    ScheduleDeadline,
    ServerConfig,
    ServerState,
    Start,
    StartAggregation,
    RefuseTask,
    TaskReceived,
    TaskSettled,
    UpdateReceived,
    WAITING,
    client_step,
    plan_round,
    server_step,
)

CLIENTS = [f"site-{i}" for i in range(1, 7)]


def config(**overrides):
    base = dict(rounds=3, k=6, m=4, deadline_ms=1000.0, plan_seed=1)
    base.update(overrides)
    return ServerConfig(**base)


def registered_state(cfg, n=None):
    state = ServerState()
    for cid in CLIENTS[: n or cfg.k]:
        state, _ = server_step(state, ClientRegistered(cid), cfg)
    return state


def started(cfg):
    state = registered_state(cfg)
    state, actions = server_step(state, Start(now_ms=0.0), cfg)
    return state, actions


def pick(actions, kind):
    found = [a for a in actions if isinstance(a, kind)]
    return found


class TestPlanRound:
    def test_full_sample(self):
        plan = plan_round(set(CLIENTS), 6, 4, 100.0, random.Random(0))
        assert sorted(plan.invited) == sorted(CLIENTS)
        assert plan.min_responses == 4

    def test_k_equals_m_boundary(self):
        plan = plan_round(set(CLIENTS), 4, 4, 100.0, random.Random(0))
        assert len(plan.invited) == 4

    def test_seed_determinism(self):
        a = plan_round(set(CLIENTS), 3, 2, 100.0, random.Random(9))
        b = plan_round(set(CLIENTS), 3, 2, 100.0, random.Random(9))
        assert a == b

    def test_oversubscription_rejected(self):
        with pytest.raises(ConfigError):
            plan_round({"a"}, 2, 1, 100.0, random.Random(0))


class TestServerHappyPath:
    def test_start_scatters_and_schedules_deadline(self):
        cfg = config()
        state, actions = started(cfg)
        assert state.phase == GATHERING
        (task,) = pick(actions, BroadcastTask)
        assert task.round == 1 and len(task.invited) == 6
        (deadline,) = pick(actions, ScheduleDeadline)
        assert deadline.delay_ms == 1000.0

    def test_all_k_updates_trigger_aggregation(self):
        cfg = config()
        state, _ = started(cfg)
        for i, cid in enumerate(state.plan.invited):
            state, actions = server_step(
                state, UpdateReceived(cid, 1, 10.0, now_ms=float(i)), cfg
            )
        assert state.phase == AGGREGATING
        (agg,) = pick(actions, StartAggregation)
        assert sorted(agg.responded) == sorted(state.plan.invited)

    def test_quorum_at_deadline(self):
        cfg = config()
        state, _ = started(cfg)
        for cid in state.plan.invited[:4]:
            state, _ = server_step(state, UpdateReceived(cid, 1, 1.0), cfg)
        assert state.phase == GATHERING
        state, actions = server_step(state, DeadlineFired(1, 0, now_ms=1000.0), cfg)
        assert state.phase == AGGREGATING
        assert pick(actions, StartAggregation)

    def test_rounds_advance_and_finish(self):
        cfg = config(rounds=2)
        state, _ = started(cfg)
        for rnd in (1, 2):
            for cid in state.plan.invited:
                state, _ = server_step(state, UpdateReceived(cid, rnd, 1.0), cfg)
            state, actions = server_step(
                state, RoundAggregated(rnd, 0.5, now_ms=10.0 * rnd), cfg
            )
        assert state.phase == FINISHED
        assert pick(actions, FederationComplete)
        assert [rec.round for rec in state.history] == [1, 2]
        assert all(rec.aggregate_norm == 0.5 for rec in state.history)

    def test_zero_rounds_finishes_immediately(self):
        cfg = config(rounds=0)
        state = registered_state(cfg)
        state, actions = server_step(state, Start(), cfg)
        assert state.phase == FINISHED and pick(actions, FederationComplete)


class TestServerRejections:
    def test_uninvited_client_rejected(self):
        cfg = config(k=4, m=2)
        state, _ = started(cfg)
        outsider = next(c for c in CLIENTS if c not in state.plan.invited)
        before = state
        state, actions = server_step(state, UpdateReceived(outsider, 1, 1.0), cfg)
        assert state == before
        (audit,) = pick(actions, Audit)
        assert audit.event_type == "UpdateRejected"

    def test_wrong_round_rejected(self):
        cfg = config()
        state, _ = started(cfg)
        cid = state.plan.invited[0]
        state, actions = server_step(state, UpdateReceived(cid, 7, 1.0), cfg)
        (audit,) = pick(actions, Audit)
        assert audit.event_type == "UpdateRejected"

    def test_duplicate_rejected(self):
        cfg = config()
        state, _ = started(cfg)
        cid = state.plan.invited[0]
        state, _ = server_step(state, UpdateReceived(cid, 1, 1.0), cfg)
        state, actions = server_step(state, UpdateReceived(cid, 1, 1.0), cfg)
        (audit,) = pick(actions, Audit)
        assert audit.event_type == "UpdateRejected"
        assert state.responded.count(cid) == 1

    def test_late_update_audited_and_discarded(self):
        cfg = config()
        state, _ = started(cfg)
        straggler = state.plan.invited[-1]
        for cid in state.plan.invited[:4]:
            state, _ = server_step(state, UpdateReceived(cid, 1, 1.0), cfg)
        state, _ = server_step(state, DeadlineFired(1, 0, now_ms=1000.0), cfg)
        assert state.phase == AGGREGATING
        state, actions = server_step(state, UpdateReceived(straggler, 1, 1.0), cfg)
        (audit,) = pick(actions, Audit)
        assert audit.event_type == "UpdateLate"
        assert straggler not in state.responded
        # after the record is written the straggler shows up in it
        state, _ = server_step(state, RoundAggregated(1, 0.1, now_ms=1010.0), cfg)
        assert straggler in state.history[0].late_discarded

    def test_registration_after_start_rejected(self):
        cfg = config()
        state, _ = started(cfg)
        state, actions = server_step(state, ClientRegistered("late-joiner"), cfg)
        assert "late-joiner" not in state.registry
        (audit,) = pick(actions, Audit)
        assert audit.event_type == "UpdateRejected"


class TestServerAbort:
    def test_deadline_below_quorum_retries_once(self):
        cfg = config()
        state, _ = started(cfg)
        for cid in state.plan.invited[:2]:
            state, _ = server_step(state, UpdateReceived(cid, 1, 1.0), cfg)
        state, actions = server_step(state, DeadlineFired(1, 0, now_ms=1000.0), cfg)
        (abort,) = pick(actions, AbortRound)
        assert abort.retry
        assert state.phase == GATHERING and state.plan.attempt == 1
        assert pick(actions, BroadcastTask)
        # same cohort is re-invited so earlier responses stay valid
        assert len(state.responded) == 2

    def test_second_abort_fails_federation(self):
        cfg = config()
        state, _ = started(cfg)
        state, _ = server_step(state, DeadlineFired(1, 0, now_ms=1000.0), cfg)
        state, actions = server_step(state, DeadlineFired(1, 1, now_ms=2000.0), cfg)
        (abort,) = pick(actions, AbortRound)
        assert not abort.retry
        assert state.phase == FINISHED and state.failed

    def test_retry_disabled_fails_immediately(self):
        cfg = config(retry_on_abort=False)
        state, _ = started(cfg)
        state, actions = server_step(state, DeadlineFired(1, 0, now_ms=1000.0), cfg)
        (abort,) = pick(actions, AbortRound)
        assert not abort.retry and state.failed

    def test_stale_deadline_ignored(self):
        cfg = config()
        state, _ = started(cfg)
        before = state
        state, actions = server_step(state, DeadlineFired(1, 5, now_ms=1.0), cfg)
        assert state == before and actions == []

    def test_masked_cohort_missing_aborts_despite_quorum(self):
        cfg = config(masked_cohort=frozenset(CLIENTS))
        state, _ = started(cfg)
        for cid in state.plan.invited[:5]:
            state, _ = server_step(state, UpdateReceived(cid, 1, 1.0), cfg)
        state, actions = server_step(state, DeadlineFired(1, 0, now_ms=1000.0), cfg)
        (abort,) = pick(actions, AbortRound)
        assert "masked" in abort.reason

    def test_start_without_enough_clients_is_config_error(self):
        cfg = config()
        state = registered_state(cfg, n=3)
        with pytest.raises(ConfigError):
            server_step(state, Start(), cfg)


class TestClientMachine:
    def test_a_site_starts_waiting(self):
        assert ClientState() == ClientState(WAITING, 0)

    @pytest.mark.parametrize("phase", [WAITING, BUSY])
    @pytest.mark.parametrize("held", range(4))
    def test_every_phase_held_round_and_event(self, phase, held):
        before = ClientState(phase, held)
        for r in range(4):
            for event in (TaskReceived(r), TaskReceived(r, malformed=True), TaskSettled(r)):
                state, actions = client_step(before, event)
                if isinstance(event, TaskReceived) and not event.malformed:
                    if phase == WAITING or r != held:
                        assert (state, actions) == (ClientState(BUSY, r), [RunTask(r)])
                    else:
                        (refusal,) = actions
                        assert isinstance(refusal, RefuseTask) and refusal.round == r
                        assert refusal.reason.startswith("busy in")
                        assert state == before
                elif isinstance(event, TaskReceived):
                    (audit,) = actions
                    assert audit.event_type == "UpdateRejected" and state == before
                elif r == held:
                    assert (state, actions) == (ClientState(WAITING, held), [])
                else:
                    assert (state, actions) == (before, [])

    def test_next_round_overtakes_the_held_rounds_settlement(self):
        # The next round's assignment can overtake the upload ack; the
        # assignment itself implies the server moved on.
        state, _ = client_step(ClientState(BUSY, 2), TaskReceived(3))
        state, actions = client_step(state, TaskSettled(2))
        assert (state, actions) == (ClientState(BUSY, 3), [])
        state, _ = client_step(state, TaskSettled(3))
        assert state == ClientState(WAITING, 3)


class TestFuzzInvariants:
    def test_random_event_sequences_preserve_invariants(self):
        rng = random.Random(2024)
        total_steps = 0
        for trial in range(400):
            cfg = config(
                rounds=rng.randint(1, 3),
                k=rng.randint(1, 6),
                m=1,
                masked_cohort=frozenset(rng.sample(CLIENTS, rng.randint(0, 3))),
            )
            cfg = ServerConfig(
                rounds=cfg.rounds, k=cfg.k, m=rng.randint(1, cfg.k),
                deadline_ms=cfg.deadline_ms, plan_seed=trial,
                masked_cohort=cfg.masked_cohort,
            )
            state = registered_state(cfg, n=6)
            state, _ = server_step(state, Start(now_ms=0.0), cfg)
            for step_no in range(40):
                total_steps += 1
                event = self._random_event(rng, step_no)
                state, actions = server_step(state, event, cfg)
                self._check(state, actions, cfg)
                if state.phase == FINISHED:
                    break
        assert total_steps >= 10_000

    def _random_event(self, rng, now):
        kind = rng.randrange(6)
        cid = rng.choice(CLIENTS + ["intruder"])
        rnd = rng.randint(0, 4)
        if kind == 0:
            return UpdateReceived(cid, rnd, rng.choice([1.0, 5.0]), float(now))
        if kind == 1:
            return DeadlineFired(rnd, rng.randint(0, 1), float(now))
        if kind == 2:
            return RoundAggregated(rnd, rng.random(), float(now))
        if kind == 3:
            return ClientRegistered(cid, float(now))
        if kind == 4:
            return UpdateReceived(cid, rng.randint(0, 4), 1.0, float(now))
        return DeadlineFired(rnd, 0, float(now))

    def _check(self, state, actions, cfg):
        if state.plan is not None:
            assert set(state.responded) <= set(state.plan.invited)
            assert len(set(state.responded)) == len(state.responded)
        for action in actions:
            if isinstance(action, StartAggregation):
                assert len(action.responded) >= cfg.m
                assert action.round == state.round
        for rec in state.history:
            assert set(rec.responded) <= set(rec.invited)
            assert not (set(rec.responded) & set(rec.late_discarded))
