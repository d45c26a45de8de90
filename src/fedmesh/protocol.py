"""Pure server and client round state machines.

Both machines are side-effect free: ``step(state, event) -> (state, actions)``
returns a fresh state plus a list of action records for the runtime to
execute (send messages, schedule timers, aggregate, audit).  Time enters
only through event fields, so the machines replay identically in tests.

Round flow: the coordinator scatters the global model to an invited sample
of k registered clients, gathers updates until all k respond or the
deadline fires, aggregates when at least m responded (aborting otherwise,
with one optional retry), and repeats for the configured number of rounds.
A retry keeps the first attempt's updates and the invited set, and sends
the task again only to the invited sites that have not answered.
A round's plan is two state fields, ``invited`` and ``attempt``; who
answered is ``weights``, in arrival order.  A round's record joins the
history when the round closes: when its aggregation starts, or when its
last attempt aborts, which finishes the run with ``failed`` set.
Updates for the wrong round or from uninvited clients never enter a round;
an update for a closed round it was invited to is audited as late, noted
on that round's record and discarded.

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


@dataclass(frozen=True)
class RoundRecord:
    round: int
    invited: tuple[str, ...]
    responded: tuple[str, ...]
    late_discarded: tuple[str, ...]
    aggregate_norm: float
    duration_ms: float
    attempts: int = 1

    def __post_init__(self):
        if set(self.responded) & set(self.late_discarded):
            raise ConfigError("responded and late_discarded must be disjoint")


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
    retry_on_abort: bool = True
    masked_cohort: frozenset[str] = frozenset()


# Who answered, in arrival order: the clients of the (client, weight) pairs.
_RESPONDED = property(lambda self: tuple(client for client, _ in self.weights))


@dataclass(frozen=True)
class ServerState:
    phase: str = IDLE
    round: int = 0
    registry: frozenset[str] = frozenset()
    invited: tuple[str, ...] = ()
    attempt: int = 0
    weights: tuple[tuple[str, float], ...] = ()
    round_start_ms: float = 0.0
    history: tuple[RoundRecord, ...] = ()
    failed: bool = False

    responded = _RESPONDED


# Server events.


@dataclass(frozen=True)
class Start:
    now_ms: float = 0.0


@dataclass(frozen=True)
class ClientRegistered:
    client_id: str


@dataclass(frozen=True)
class UpdateReceived:
    client_id: str
    round: int
    weight: float


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
    to: tuple[str, ...]


@dataclass(frozen=True)
class ScheduleDeadline:
    round: int
    attempt: int
    delay_ms: float


@dataclass(frozen=True)
class StartAggregation:
    round: int
    weights: tuple[tuple[str, float], ...]

    responded = _RESPONDED


@dataclass(frozen=True)
class FederationComplete:
    pass


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
    invited = tuple(sorted(rng.sample(sorted(state.registry), config.k)))
    new = replace(
        state,
        phase=GATHERING,
        round=round_no,
        invited=invited,
        attempt=attempt,
        weights=() if attempt == 0 else state.weights,
        round_start_ms=now_ms if attempt == 0 else state.round_start_ms,
    )
    actions = [
        _audit("TaskAssign", round=round_no, attempt=attempt, invited=",".join(invited)),
        BroadcastTask(round_no, tuple(c for c in invited if c not in new.responded)),
        ScheduleDeadline(round_no, attempt, config.deadline_ms),
    ]
    return new, actions


def _closed(state: ServerState, phase: str, duration_ms: float = 0.0) -> ServerState:
    """Close the current round: its record joins the history, and *phase* follows."""
    record = RoundRecord(
        round=state.round,
        invited=state.invited,
        responded=state.responded,
        late_discarded=(),
        aggregate_norm=0.0,
        duration_ms=duration_ms,
        attempts=state.attempt + 1,
    )
    return replace(state, phase=phase, history=state.history + (record,))


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
        if not 1 <= config.m <= config.k <= len(state.registry):
            raise ConfigError(f"need 1 <= m <= k <= registered clients, got "
                              f"m={config.m} k={config.k} registered={len(state.registry)}")
        if config.rounds == 0:
            return replace(state, phase=FINISHED), [FederationComplete()]
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
    if state.phase == IDLE:
        return state, [_audit("UpdateRejected", client=cid, round=rnd,
                              reason="no active round")]
    if rnd != state.round or state.phase == AGGREGATING:
        if any(rec.round == rnd and cid in rec.invited for rec in state.history):
            new_history = tuple(
                replace(rec, late_discarded=tuple(sorted(set(rec.late_discarded) | {cid})))
                if rec.round == rnd and cid not in rec.responded
                else rec
                for rec in state.history
            )
            return replace(state, history=new_history), [
                _audit("UpdateLate", client=cid, round=rnd)]
        return state, [_audit("UpdateRejected", client=cid, round=rnd,
                              reason="wrong round")]
    if cid not in state.invited:
        return state, [_audit("UpdateRejected", client=cid, round=rnd,
                              reason="not invited")]
    if cid in state.responded:
        return state, [_audit("UpdateRejected", client=cid, round=rnd,
                              reason="duplicate update")]
    new = replace(state, weights=state.weights + ((cid, event.weight),))
    actions: list = [_audit("UpdateAccepted", client=cid, round=rnd)]
    if len(new.weights) == len(state.invited):
        return _closed(new, AGGREGATING), actions + [StartAggregation(rnd, new.weights)]
    return new, actions


def _on_deadline(
    state: ServerState, event: DeadlineFired, config: ServerConfig
) -> tuple[ServerState, list]:
    if state.phase != GATHERING or (event.round, event.attempt) != (state.round, state.attempt):
        return state, []
    missing_masked = sorted(config.masked_cohort.intersection(state.invited)
                            - set(state.responded))
    quorum = len(state.weights) >= config.m
    if quorum and not missing_masked:
        return _closed(state, AGGREGATING), [StartAggregation(state.round, state.weights)]
    if quorum:
        reason = f"masked clients missing: {','.join(missing_masked)}"
    else:
        reason = f"quorum failure: {len(state.weights)}/{config.m}"
    aborted = _audit("RoundAborted", round=state.round, attempt=state.attempt, reason=reason)
    if config.retry_on_abort and state.attempt == 0:
        new, actions = _begin_round(state, config, state.round, 1, event.now_ms)
        return new, [aborted] + actions
    closed = _closed(state, FINISHED, event.now_ms - state.round_start_ms)
    return replace(closed, failed=True), [aborted]


def _on_aggregated(
    state: ServerState, event: RoundAggregated, config: ServerConfig
) -> tuple[ServerState, list]:
    if state.phase != AGGREGATING or event.round != state.round:
        return state, []
    record = replace(state.history[-1], aggregate_norm=event.aggregate_norm,
                     duration_ms=event.now_ms - state.round_start_ms)
    new = replace(state, history=state.history[:-1] + (record,), weights=())
    if state.round >= config.rounds:
        return replace(new, phase=FINISHED), [FederationComplete()]
    return _begin_round(new, config, state.round + 1, 0, event.now_ms)


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
