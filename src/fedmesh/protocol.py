"""Pure server and client round state machines.

Both machines are side-effect free: ``step(state, event) -> (state, actions)``
returns a fresh state plus a list of action records for the runtime to
execute (send messages, schedule timers, aggregate, audit).  Time enters
only through event fields, so the machines replay identically in tests.

Round flow: the coordinator scatters the global model to an invited sample
of k registered clients, gathers updates until all k respond or the
deadline fires, aggregates when at least m responded (aborting otherwise,
with one optional retry), and repeats for the configured number of rounds.
Updates for the wrong round or from uninvited clients never enter a round;
updates arriving after aggregation are audited as late and discarded.

A site runs each task it accepts as one action (RunTask: train, apply its
policy, mask, sign and send, or refuse its own round), and no event can
arrive in the middle of it.  So its machine has two phases, WAITING and BUSY
with one round, and two events: a task arrives, or the held round settles
(its upload was acked or given up, or the site refused the round).  A site
refuses a re-sent task for the round it holds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .errors import ConfigError

# --- shared plan/record types -------------------------------------------------


@dataclass(frozen=True)
class RoundPlan:
    round: int
    invited: tuple[str, ...]
    min_responses: int
    deadline_ms: float
    attempt: int = 0

    def __post_init__(self):
        if not (1 <= self.min_responses <= len(self.invited)):
            raise ConfigError("need 1 <= m <= k")


@dataclass(frozen=True)
class RoundRecord:
    round: int
    invited: tuple[str, ...]
    responded: tuple[str, ...]
    late_discarded: tuple[str, ...]
    strategy: str
    aggregate_norm: float
    duration_ms: float
    attempts: int = 1

    def __post_init__(self):
        if set(self.responded) & set(self.late_discarded):
            raise ConfigError("responded and late_discarded must be disjoint")


def plan_round(
    registry: frozenset[str] | set[str],
    k: int,
    m: int,
    deadline_ms: float,
    rng: random.Random,
    round_no: int = 1,
    attempt: int = 0,
) -> RoundPlan:
    """Invite a seeded size-k sample (without replacement) of the registry."""
    if k > len(registry):
        raise ConfigError(f"cannot invite {k} of {len(registry)} registered clients")
    invited = tuple(sorted(rng.sample(sorted(registry), k)))
    return RoundPlan(round_no, invited, m, deadline_ms, attempt)


# --- server machine -------------------------------------------------------------

IDLE = "idle"
GATHERING = "gathering"
AGGREGATING = "aggregating"
FINISHED = "finished"


@dataclass(frozen=True)
class ServerConfig:
    rounds: int
    k: int
    m: int
    deadline_ms: float
    plan_seed: int
    strategy_kind: str = "fedavg"
    retry_on_abort: bool = True
    masked_cohort: frozenset[str] = frozenset()


@dataclass(frozen=True)
class ServerState:
    phase: str = IDLE
    round: int = 0
    registry: frozenset[str] = frozenset()
    plan: RoundPlan | None = None
    responded: tuple[str, ...] = ()
    weights: tuple[tuple[str, float], ...] = ()
    late: tuple[str, ...] = ()
    round_start_ms: float = 0.0
    history: tuple[RoundRecord, ...] = ()
    failed: bool = False


# Server events.


@dataclass(frozen=True)
class Start:
    now_ms: float = 0.0


@dataclass(frozen=True)
class ClientRegistered:
    client_id: str
    now_ms: float = 0.0


@dataclass(frozen=True)
class UpdateReceived:
    client_id: str
    round: int
    weight: float
    now_ms: float = 0.0


@dataclass(frozen=True)
class DeadlineFired:
    round: int
    attempt: int
    now_ms: float = 0.0


@dataclass(frozen=True)
class RoundAggregated:
    round: int
    aggregate_norm: float
    now_ms: float = 0.0


# Server actions.


@dataclass(frozen=True)
class BroadcastTask:
    round: int
    invited: tuple[str, ...]


@dataclass(frozen=True)
class ScheduleDeadline:
    round: int
    attempt: int
    delay_ms: float


@dataclass(frozen=True)
class StartAggregation:
    round: int
    responded: tuple[str, ...]
    weights: tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class AbortRound:
    round: int
    reason: str
    retry: bool


@dataclass(frozen=True)
class FederationComplete:
    rounds: int


@dataclass(frozen=True)
class Audit:
    event_type: str
    detail: tuple[tuple[str, str], ...]


def _audit(event_type: str, **detail: object) -> Audit:
    return Audit(event_type, tuple((k, str(v)) for k, v in sorted(detail.items())))


def _begin_round(
    state: ServerState, config: ServerConfig, round_no: int, attempt: int, now_ms: float
) -> tuple[ServerState, list]:
    # A retry re-invites the same cohort: updates already received in the
    # first attempt stay valid, and responded-subset-of-invited holds.
    rng = random.Random(config.plan_seed ^ (round_no << 16))
    plan = plan_round(
        state.registry, config.k, config.m, config.deadline_ms, rng, round_no, attempt
    )
    new = replace(
        state,
        phase=GATHERING,
        round=round_no,
        plan=plan,
        responded=() if attempt == 0 else state.responded,
        weights=() if attempt == 0 else state.weights,
        late=() if attempt == 0 else state.late,
        round_start_ms=now_ms if attempt == 0 else state.round_start_ms,
    )
    actions = [
        _audit("TaskAssign", round=round_no, attempt=attempt, invited=",".join(plan.invited)),
        BroadcastTask(round_no, plan.invited),
        ScheduleDeadline(round_no, attempt, config.deadline_ms),
    ]
    return new, actions


def _maybe_aggregate(state: ServerState) -> tuple[ServerState, list]:
    new = replace(state, phase=AGGREGATING)
    action = StartAggregation(state.round, state.responded, state.weights)
    return new, [action]


def _masked_missing(state: ServerState, config: ServerConfig) -> tuple[str, ...]:
    if state.plan is None:
        return ()
    cohort = config.masked_cohort & set(state.plan.invited)
    return tuple(sorted(cohort - set(state.responded)))


def server_step(
    state: ServerState, event: object, config: ServerConfig
) -> tuple[ServerState, list]:
    """Advance the coordinator machine by one event."""
    if state.phase == FINISHED:
        if isinstance(event, UpdateReceived):
            return state, [_audit("UpdateRejected", client=event.client_id,
                                  round=event.round, reason="federation finished")]
        return state, []

    if isinstance(event, ClientRegistered):
        if state.phase != IDLE:
            return state, [_audit("UpdateRejected", client=event.client_id,
                                  reason="registration after start")]
        if event.client_id in state.registry:
            return state, []
        new = replace(state, registry=state.registry | {event.client_id})
        return new, [_audit("Register", client=event.client_id)]

    if isinstance(event, Start):
        if state.phase != IDLE:
            return state, []
        if len(state.registry) < config.k:
            raise ConfigError(
                f"{len(state.registry)} registered clients but k={config.k}"
            )
        if config.rounds == 0:
            return replace(state, phase=FINISHED), [FederationComplete(0)]
        return _begin_round(state, config, 1, 0, event.now_ms)

    if isinstance(event, UpdateReceived):
        return _on_update(state, event, config)

    if isinstance(event, DeadlineFired):
        return _on_deadline(state, event, config)

    if isinstance(event, RoundAggregated):
        return _on_aggregated(state, event, config)

    return state, []


def _on_update(
    state: ServerState, event: UpdateReceived, config: ServerConfig
) -> tuple[ServerState, list]:
    cid, rnd = event.client_id, event.round
    if state.phase == IDLE or state.plan is None:
        return state, [_audit("UpdateRejected", client=cid, round=rnd,
                              reason="no active round")]
    current = state.round
    if rnd != current or state.phase == AGGREGATING:
        was_invited_then = any(
            rec.round == rnd and cid in rec.invited for rec in state.history
        ) or (rnd == current and cid in state.plan.invited)
        if rnd <= current and was_invited_then:
            new_history = tuple(
                replace(rec, late_discarded=tuple(sorted(set(rec.late_discarded) | {cid})))
                if rec.round == rnd and cid not in rec.responded
                else rec
                for rec in state.history
            )
            new = replace(state, history=new_history)
            if rnd == current and state.phase == AGGREGATING and cid not in state.responded:
                new = replace(new, late=tuple(sorted(set(state.late) | {cid})))
            return new, [_audit("UpdateLate", client=cid, round=rnd)]
        return state, [_audit("UpdateRejected", client=cid, round=rnd,
                              reason="wrong round")]
    if cid not in state.plan.invited:
        return state, [_audit("UpdateRejected", client=cid, round=rnd,
                              reason="not invited")]
    if cid in state.responded:
        return state, [_audit("UpdateRejected", client=cid, round=rnd,
                              reason="duplicate update")]
    new = replace(
        state,
        responded=state.responded + (cid,),
        weights=state.weights + ((cid, event.weight),),
    )
    actions: list = [_audit("UpdateAccepted", client=cid, round=rnd)]
    if len(new.responded) == len(state.plan.invited):
        new, agg_actions = _maybe_aggregate(new)
        actions.extend(agg_actions)
    return new, actions


def _on_deadline(
    state: ServerState, event: DeadlineFired, config: ServerConfig
) -> tuple[ServerState, list]:
    plan = state.plan
    if (
        plan is None
        or state.phase != GATHERING
        or event.round != state.round
        or event.attempt != plan.attempt
    ):
        return state, []
    missing_masked = _masked_missing(state, config)
    if len(state.responded) >= plan.min_responses and not missing_masked:
        return _maybe_aggregate(state)
    if missing_masked and len(state.responded) >= plan.min_responses:
        reason = f"masked clients missing: {','.join(missing_masked)}"
    else:
        reason = f"quorum failure: {len(state.responded)}/{plan.min_responses}"
    retry = config.retry_on_abort and plan.attempt == 0
    actions: list = [
        _audit("RoundAborted", round=state.round, attempt=plan.attempt, reason=reason),
        AbortRound(state.round, reason, retry),
    ]
    if retry:
        new, more = _begin_round(state, config, state.round, plan.attempt + 1, event.now_ms)
        return new, actions + more
    record = RoundRecord(
        round=state.round,
        invited=plan.invited,
        responded=state.responded,
        late_discarded=state.late,
        strategy=config.strategy_kind,
        aggregate_norm=0.0,
        duration_ms=event.now_ms - state.round_start_ms,
        attempts=plan.attempt + 1,
    )
    new = replace(state, phase=FINISHED, failed=True, history=state.history + (record,))
    return new, actions


def _on_aggregated(
    state: ServerState, event: RoundAggregated, config: ServerConfig
) -> tuple[ServerState, list]:
    if state.phase != AGGREGATING or event.round != state.round or state.plan is None:
        return state, []
    record = RoundRecord(
        round=state.round,
        invited=state.plan.invited,
        responded=state.responded,
        late_discarded=state.late,
        strategy=config.strategy_kind,
        aggregate_norm=event.aggregate_norm,
        duration_ms=event.now_ms - state.round_start_ms,
        attempts=state.plan.attempt + 1,
    )
    new = replace(
        state,
        history=state.history + (record,),
        responded=(),
        weights=(),
        late=(),
    )
    if state.round >= config.rounds:
        return replace(new, phase=FINISHED, plan=None), [FederationComplete(state.round)]
    begun, actions = _begin_round(new, config, state.round + 1, 0, event.now_ms)
    return begun, actions


# --- client machine --------------------------------------------------------------

WAITING = "waiting"
BUSY = "busy"


@dataclass(frozen=True)
class ClientState:
    phase: str = WAITING
    round: int = 0


@dataclass(frozen=True)
class TaskReceived:
    round: int
    malformed: bool = False


@dataclass(frozen=True)
class TaskSettled:
    """The site is done with its round: the upload was acked or given up, or
    the site refused the round (no data, or it cannot mask the update)."""

    round: int


@dataclass(frozen=True)
class RunTask:
    round: int


@dataclass(frozen=True)
class RefuseTask:
    round: int
    reason: str


def client_step(state: ClientState, event: object) -> tuple[ClientState, list]:
    """Advance the site machine by one event; one task at a time.

    A task for a different round arriving while the held round's upload ack
    is still in flight is accepted: the assignment itself proves the
    coordinator moved on, and the stale settlement is ignored later.
    """
    if isinstance(event, TaskReceived):
        if event.malformed:
            return state, [_audit("UpdateRejected", round=event.round,
                                  reason="malformed task")]
        if state.phase == WAITING or event.round != state.round:
            return ClientState(BUSY, event.round), [RunTask(event.round)]
        return state, [RefuseTask(event.round, f"busy in round {state.round}")]
    if isinstance(event, TaskSettled) and state == ClientState(BUSY, event.round):
        return ClientState(WAITING, event.round), []
    return state, []
