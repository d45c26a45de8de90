import random
from collections import Counter

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from fedmesh.errors import ConfigError
from fedmesh.protocol import (
    AGGREGATING,
    BUSY,
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


def aborted(actions):
    (audit,) = [a for a in pick(actions, Audit) if a.event_type == "RoundAborted"]
    return dict(audit.detail)


class TestPlanRound:
    """The plan is the state's invited and attempt, drawn by Start."""

    def test_full_sample(self):
        state, _ = started(config(k=6, m=4))
        assert sorted(state.invited) == sorted(CLIENTS)
        assert state.attempt == 0

    def test_k_equals_m_boundary(self):
        state, _ = started(config(k=4, m=4))
        assert len(state.invited) == 4

    def test_seed_determinism(self):
        cfg = config(k=3, m=2, plan_seed=9)
        a, b = (server_step(registered_state(cfg, n=6), Start(), cfg)[0] for _ in range(2))
        assert a.invited == b.invited
        # round r's invitations come from random.Random(plan_seed ^ (r << 16))
        rng = random.Random(9 ^ (1 << 16))
        assert a.invited == tuple(sorted(rng.sample(sorted(CLIENTS), 3)))

    def test_oversubscription_rejected(self):
        cfg = config(k=2, m=1)
        state, _ = server_step(ServerState(), ClientRegistered("a"), cfg)
        with pytest.raises(ConfigError):
            server_step(state, Start(), cfg)

    @pytest.mark.parametrize("m,k", [(0, 3), (4, 3)])
    def test_quorum_out_of_range_rejected(self, m, k):
        cfg = config(k=k, m=m)
        with pytest.raises(ConfigError):
            server_step(registered_state(cfg, n=6), Start(), cfg)


class TestServerHappyPath:
    def test_start_scatters_and_schedules_deadline(self):
        cfg = config()
        state, actions = started(cfg)
        assert state.phase == GATHERING
        (task,) = pick(actions, BroadcastTask)
        assert task.round == 1 and task.to == state.invited and len(task.to) == 6
        (deadline,) = pick(actions, ScheduleDeadline)
        assert deadline.delay_ms == 1000.0

    def test_all_k_updates_trigger_aggregation(self):
        cfg = config()
        state, _ = started(cfg)
        for cid in state.invited:
            state, actions = server_step(state, UpdateReceived(cid, 1, 10.0), cfg)
        assert state.phase == AGGREGATING
        (agg,) = pick(actions, StartAggregation)
        assert sorted(agg.responded) == sorted(state.invited)

    def test_quorum_at_deadline(self):
        cfg = config()
        state, _ = started(cfg)
        for cid in state.invited[:4]:
            state, _ = server_step(state, UpdateReceived(cid, 1, 1.0), cfg)
        assert state.phase == GATHERING
        state, actions = server_step(state, DeadlineFired(1, 0, now_ms=1000.0), cfg)
        assert state.phase == AGGREGATING
        assert pick(actions, StartAggregation)

    def test_rounds_advance_and_finish(self):
        cfg = config(rounds=2)
        state, _ = started(cfg)
        for rnd in (1, 2):
            for cid in state.invited:
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
        outsider = next(c for c in CLIENTS if c not in state.invited)
        before = state
        state, actions = server_step(state, UpdateReceived(outsider, 1, 1.0), cfg)
        assert state == before
        (audit,) = pick(actions, Audit)
        assert audit.event_type == "UpdateRejected"

    def test_wrong_round_rejected(self):
        cfg = config()
        state, _ = started(cfg)
        cid = state.invited[0]
        state, actions = server_step(state, UpdateReceived(cid, 7, 1.0), cfg)
        (audit,) = pick(actions, Audit)
        assert audit.event_type == "UpdateRejected"

    def test_duplicate_rejected(self):
        cfg = config()
        state, _ = started(cfg)
        cid = state.invited[0]
        state, _ = server_step(state, UpdateReceived(cid, 1, 1.0), cfg)
        state, actions = server_step(state, UpdateReceived(cid, 1, 1.0), cfg)
        (audit,) = pick(actions, Audit)
        assert audit.event_type == "UpdateRejected"
        assert state.responded.count(cid) == 1

    def test_late_update_audited_and_discarded(self):
        cfg = config()
        state, _ = started(cfg)
        straggler = state.invited[-1]
        for cid in state.invited[:4]:
            state, _ = server_step(state, UpdateReceived(cid, 1, 1.0), cfg)
        state, _ = server_step(state, DeadlineFired(1, 0, now_ms=1000.0), cfg)
        assert state.phase == AGGREGATING
        state, actions = server_step(state, UpdateReceived(straggler, 1, 1.0), cfg)
        (audit,) = pick(actions, Audit)
        assert audit.event_type == "UpdateLate"
        assert straggler not in state.responded
        # the round's record joined the history when aggregation started
        (record,) = state.history
        assert straggler in record.late_discarded and straggler not in record.responded
        state, _ = server_step(state, RoundAggregated(1, 0.1, now_ms=1010.0), cfg)
        (record,) = state.history[:1]
        assert straggler in record.late_discarded
        assert (record.aggregate_norm, record.duration_ms) == (0.1, 1010.0)

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
        for cid in state.invited[:2]:
            state, _ = server_step(state, UpdateReceived(cid, 1, 1.0), cfg)
        state, actions = server_step(state, DeadlineFired(1, 0, now_ms=1000.0), cfg)
        assert aborted(actions)["attempt"] == "0"
        assert state.phase == GATHERING and state.attempt == 1 and not state.failed
        assert pick(actions, BroadcastTask)
        # same cohort is re-invited so earlier responses stay valid
        assert len(state.responded) == 2

    def test_a_retry_sends_the_task_only_to_the_sites_that_have_not_answered(self):
        cfg = config()
        state, _ = started(cfg)
        answered = state.invited[:2]
        for cid in answered:
            state, _ = server_step(state, UpdateReceived(cid, 1, 1.0), cfg)
        state, actions = server_step(state, DeadlineFired(1, 0, now_ms=1000.0), cfg)
        (task,) = pick(actions, BroadcastTask)
        assert task.to == state.invited[2:]
        (assign,) = [a for a in pick(actions, Audit) if a.event_type == "TaskAssign"]
        assert dict(assign.detail)["invited"] == ",".join(state.invited)

    def test_second_abort_fails_federation(self):
        cfg = config()
        state, _ = started(cfg)
        state, _ = server_step(state, DeadlineFired(1, 0, now_ms=1000.0), cfg)
        state, actions = server_step(state, DeadlineFired(1, 1, now_ms=2000.0), cfg)
        assert aborted(actions)["attempt"] == "1" and not pick(actions, BroadcastTask)
        assert state.phase == FINISHED and state.failed
        (record,) = state.history
        assert (record.attempts, record.duration_ms) == (2, 2000.0)

    def test_retry_disabled_fails_immediately(self):
        cfg = config(retry_on_abort=False)
        state, _ = started(cfg)
        state, actions = server_step(state, DeadlineFired(1, 0, now_ms=1000.0), cfg)
        assert aborted(actions)["attempt"] == "0" and not pick(actions, BroadcastTask)
        assert state.failed

    def test_stale_deadline_ignored(self):
        cfg = config()
        state, _ = started(cfg)
        before = state
        state, actions = server_step(state, DeadlineFired(1, 5, now_ms=1.0), cfg)
        assert state == before and actions == []

    def test_masked_cohort_missing_aborts_despite_quorum(self):
        cfg = config(masked_cohort=frozenset(CLIENTS))
        state, _ = started(cfg)
        for cid in state.invited[:5]:
            state, _ = server_step(state, UpdateReceived(cid, 1, 1.0), cfg)
        state, actions = server_step(state, DeadlineFired(1, 0, now_ms=1000.0), cfg)
        assert "masked" in aborted(actions)["reason"]

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


class ServerSafety(RuleBasedStateMachine):
    """Safety of the coordinator machine under any interleaving of updates
    (on time, late, duplicate, wrong round, intruder), deadlines,
    aggregations and late registrations."""

    @initialize(data=st.data())
    def start(self, data):
        k = data.draw(st.integers(1, 6), label="k")
        self.cfg = ServerConfig(
            rounds=data.draw(st.integers(1, 3), label="rounds"),
            k=k,
            m=data.draw(st.integers(1, k), label="m"),
            deadline_ms=1000.0,
            plan_seed=data.draw(st.integers(0, 2**16), label="plan_seed"),
            retry_on_abort=data.draw(st.booleans(), label="retry"),
            masked_cohort=data.draw(st.frozensets(st.sampled_from(CLIENTS), max_size=4),
                                    label="masked"),
        )
        self.state = registered_state(self.cfg, n=len(CLIENTS))
        self.now = 0.0
        self.assigned = Counter()
        self.step(Start())

    def step(self, event):
        before = self.state
        self.state, actions = server_step(before, event, self.cfg)
        if before.phase == FINISHED:
            assert self.state is before
            assert all(isinstance(a, Audit) and a.event_type == "UpdateRejected"
                       for a in actions)
        for action in actions:
            if isinstance(action, Audit) and action.event_type == "TaskAssign":
                self.assigned[dict(action.detail)["round"]] += 1
            if isinstance(action, BroadcastTask):
                assert set(action.to) == set(self.state.invited) - set(self.state.responded)
            if isinstance(action, StartAggregation):
                assert len(action.weights) >= self.cfg.m
                masked = self.cfg.masked_cohort.intersection(self.state.invited)
                assert masked <= set(action.responded)
                assert action.round == self.state.round

    # -- updates (i picks from a list that depends on the state) ---------------

    @rule(i=st.integers(0, 63))
    def on_time_update(self, i):
        waiting = [c for c in self.state.invited if c not in self.state.responded] or CLIENTS
        self.step(UpdateReceived(waiting[i % len(waiting)], self.state.round, 1.0 + i))

    @rule(i=st.integers(0, 63))
    def duplicate_update(self, i):
        responded = self.state.responded or tuple(CLIENTS)
        self.step(UpdateReceived(responded[i % len(responded)], self.state.round, 1.0))

    @rule(i=st.integers(0, 63))
    def late_update(self, i):
        pairs = [(rec.round, c) for rec in self.state.history for c in rec.invited]
        rnd, cid = pairs[i % len(pairs)] if pairs else (0, CLIENTS[0])
        self.step(UpdateReceived(cid, rnd, 1.0))

    @rule(cid=st.sampled_from(CLIENTS), offset=st.sampled_from([-2, -1, 1, 2]))
    def wrong_round_update(self, cid, offset):
        self.step(UpdateReceived(cid, self.state.round + offset, 1.0))

    @rule(rnd=st.integers(0, 4))
    def intruder_update(self, rnd):
        self.step(UpdateReceived("intruder", rnd, 1.0))

    # -- timers, aggregation and registration ----------------------------------

    @rule(elapsed=st.sampled_from([0.0, 500.0, 1000.0]))
    def deadline(self, elapsed):
        self.now += elapsed
        self.step(DeadlineFired(self.state.round, self.state.attempt, self.now))

    @rule(rnd=st.integers(0, 4), attempt=st.integers(0, 2))
    def stale_deadline(self, rnd, attempt):
        self.step(DeadlineFired(rnd, attempt, self.now))

    @rule(norm=st.sampled_from([0.0, 0.5, 3.0]))
    def aggregated(self, norm):
        self.now += 10.0
        self.step(RoundAggregated(self.state.round, norm, self.now))

    @rule(rnd=st.integers(0, 4))
    def stale_aggregated(self, rnd):
        self.step(RoundAggregated(rnd, 1.0, self.now))

    @rule(cid=st.sampled_from(CLIENTS + ["late-joiner"]))
    def late_registration(self, cid):
        self.step(ClientRegistered(cid))

    # -- invariants ------------------------------------------------------------

    @invariant()
    def safe(self):
        responded = self.state.responded
        assert set(responded) <= set(self.state.invited)
        assert len(set(responded)) == len(responded)
        rounds = [rec.round for rec in self.state.history]
        assert rounds == sorted(set(rounds))  # history rounds strictly increase
        assert all(set(rec.responded) <= set(rec.invited) for rec in self.state.history)
        assert max(self.assigned.values(), default=0) <= 2  # no round runs three times


TestServerSafety = ServerSafety.TestCase
TestServerSafety.settings = settings(max_examples=300, stateful_step_count=40, deadline=None)
