"""Federation runtime: hosts the protocol state machines over a transport.

ServerNode and ClientNode are two handler sets on one node shell.  The
shell talks through a ReliableEndpoint and the endpoint's clock, so the same
code runs under the in-process simulator (run_federation) and over TCP (cli
serve/client).  Every message is signed by its sender and verified against
the provisioned roster in the shell's one entry point, before a handler or
a state machine sees it; every action a machine returns runs through the
shell's one action loop.  The coordinator's audits go to its hash-chained
AuditLog; a client's audits and refusals go to the log.
"""

from __future__ import annotations

import hashlib
import logging
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from . import kvdoc, protocol, transport
from .aggregation import (
    AggregationStrategy, ClientUpdate, SparseVector, Vector, add_scaled, add_vectors, aggregate,
    as_dense, l2_norm,
)
from .errors import ConfigError
from .model import (
    EncodedBatch,
    Metrics,
    TaggedSentence,
    TrainConfig,
    encode_sentences,
    evaluate,
    local_train,
    token_count,
    zero_params,
)
from .privacy import SitePolicy, apply_policy, mask_update, sum_masked
from .protocol import (
    Audit,
    BroadcastTask,
    ClientRegistered,
    DeadlineFired,
    FederationComplete,
    RoundAggregated,
    RoundRecord,
    RunTask,
    ScheduleDeadline,
    ServerConfig,
    ServerState,
    Start,
    StartAggregation,
    TaskReceived,
    TaskSettled,
    UpdateReceived,
    client_step,
    server_step,
)
from .seeding import derive_seed
from .simnet import SimNetConfig, SimNetwork
from .transport import (
    MSG_ABORT,
    MSG_ACK,
    MSG_EVAL_REPORT,
    MSG_EVAL_REQUEST,
    MSG_REGISTER,
    MSG_TASK_ASSIGN,
    MSG_UPDATE_SUBMIT,
    Payload,
    ReliableEndpoint,
    decode_payload,
    encode_payload,
)
from .trustops import (
    AuditLog,
    StartupKit,
    VirtualClock,
    sign_digest,
    sign_model,
    verify_digest,
)

log = logging.getLogger(__name__)

_REGISTER_ATTEMPTS = 50
# A signed payload ends in an Ed25519 signature of this length.
SIGNATURE_LEN = 64
_EVAL_TIMEOUT_FACTOR = 2.0


@dataclass(frozen=True)
class Seeds:
    data: int = 1
    model: int = 2
    net: int = 3


@dataclass(frozen=True)
class Adversary:
    """A client that replaces its real delta with a huge constant vector."""

    client_id: str
    magnitude: float


@dataclass
class FederationSpec:
    """Everything the runtime needs for one federation run."""

    shards: dict[str, list[TaggedSentence]]
    train: TrainConfig
    strategy: AggregationStrategy
    rounds: int
    k: int
    m: int
    deadline_ms: float
    kits: dict[str, StartupKit]
    server_id: str
    seeds: Seeds = field(default_factory=Seeds)
    policies: dict[str, SitePolicy] = field(default_factory=dict)
    holdouts: dict[str, list[TaggedSentence]] = field(default_factory=dict)
    adversary: Adversary | None = None
    retry_on_abort: bool = True
    track_params: bool = False

    def client_ids(self) -> list[str]:
        return sorted(self.shards)

    def policy_for(self, client_id: str) -> SitePolicy:
        return self.policies.get(client_id, SitePolicy(site_id=client_id))

    def masked_cohort(self) -> frozenset[str]:
        return frozenset(
            cid for cid in self.shards if self.policy_for(cid).masking_enabled
        )

    def validate(self) -> None:
        if self.rounds < 0:
            raise ConfigError("rounds must be >= 0")
        n = len(self.shards)
        if not (1 <= self.m <= self.k <= n):
            raise ConfigError(f"need 1 <= m <= k <= clients, got m={self.m} k={self.k} n={n}")
        # Only the local node's kit is required here; the simulator runner,
        # which hosts every node in-process, checks for the full set.
        if self.server_id not in self.kits and not set(self.shards) & set(self.kits):
            raise ConfigError("no startup kit available for this node")
        if masked := self.masked_cohort():
            if len(masked) < 2:
                raise ConfigError(f"masking needs at least two sites, got {sorted(masked)}")
            if self.strategy.kind != "fedavg":
                raise ConfigError("masking requires the fedavg strategy")
            if self.strategy.normalize_to is not None:
                raise ConfigError("server-side normalization cannot see masked updates")


class RoundFailedError(RuntimeError):
    """A round aborted with no retry budget left."""


@dataclass
class FederationResult:
    final_params: np.ndarray
    history: tuple[RoundRecord, ...]
    cross_site: dict[str, tuple[Metrics, Metrics] | None]
    audit: list
    model_signature: bytes | None
    params_per_round: list[np.ndarray] = field(default_factory=list)


def _signed(doc: dict, vector: Vector | None, kit: StartupKit) -> Payload:
    """Encode once, hash the buffers with one incremental SHA-256 and append
    the digest's signature as one more buffer.  Nothing is joined until a
    backend reads a frame of them (the simulator on delivery), so a dense
    vector must not change until every frame carrying it is delivered or
    dropped."""
    parts = encode_payload(doc, vector).parts
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return Payload(*parts, sign_digest(digest.digest(), kit.private_key()))


# A verified payload: its document and its vector, if it carries one.
Opened = tuple[dict, Vector | None]


def _opened(payload: memoryview, sender_pub: bytes) -> Opened | None:
    """Verify a signed payload; None on any parse or signature failure."""
    body, signature = memoryview(payload)[:-SIGNATURE_LEN], payload[-SIGNATURE_LEN:]
    if len(signature) != SIGNATURE_LEN or not verify_digest(
        hashlib.sha256(body).digest(), signature, sender_pub
    ):
        return None
    try:
        return decode_payload(body)
    except transport.CorruptFrame:
        return None


def _task_fields(opened: Opened | None) -> tuple[int, Vector, tuple[str, ...]] | None:
    """(round, params, masked cohort) of an opened task; None if malformed or non-finite."""
    if opened is None or opened[1] is None:
        return None
    doc, params = opened
    words = params.values if isinstance(params, SparseVector) else params
    if words.dtype != np.float64 or not np.isfinite(words).all():
        return None
    try:
        return int(doc["round"]), params, tuple(str(m) for m in doc.get("masked", []))
    except (KeyError, TypeError, ValueError, OverflowError):
        return None


class _Node:
    """The shell both node kinds share: one verified entry point, one action loop.

    ``on_message`` drops a message type the node has no handler for and a
    sender it does not hear from, opens the payload against the sender's
    roster key (a sender outside the roster opens to None) and hands
    ``(src, opened)`` to the type's handler.  ``dispatch`` steps the node's
    pure machine (``_step``) and runs its actions: an ``Audit`` goes to
    ``_audit(event_type, detail)``, every other action to ``_execute``.
    """

    def __init__(self, rel: ReliableEndpoint, kit: StartupKit, spec: FederationSpec,
                 handlers: dict[int, Callable[[str, Opened | None], None]],
                 only_from: str | None = None):
        self.rel = rel
        self.kit = kit
        self.spec = spec
        self.done = False
        self._handlers = handlers
        self._only_from = only_from
        self._keys = {ident.site_id: ident.public_key for ident in kit.roster}
        rel.on_message = self.on_message

    def _now(self) -> float:
        return self.rel.raw.now_ms()

    def on_message(self, src: str, msg_type: int, payload: memoryview) -> None:
        handler = self._handlers.get(msg_type)
        if handler is None or self._only_from not in (None, src):
            return
        pub = self._keys.get(src)
        handler(src, None if pub is None else _opened(payload, pub))

    def dispatch(self, event) -> None:
        self.state, actions = self._step(event)
        self._run(actions)

    def _run(self, actions: list) -> None:
        for action in actions:
            if isinstance(action, Audit):
                self._audit(action.event_type, dict(action.detail))
            else:
                self._execute(action)


class ServerNode(_Node):
    """Coordinator: registration, rounds, aggregation, audit, cross-site eval."""

    def __init__(self, rel: ReliableEndpoint, kit: StartupKit, spec: FederationSpec,
                 audit: AuditLog):
        spec.validate()
        super().__init__(rel, kit, spec, {
            MSG_REGISTER: self._on_register,
            MSG_UPDATE_SUBMIT: self._on_update,
            MSG_EVAL_REPORT: self._on_eval_report,
        })
        self.audit = audit
        self.expected = set(spec.client_ids())
        self.config = ServerConfig(
            rounds=spec.rounds,
            k=spec.k,
            m=spec.m,
            deadline_ms=spec.deadline_ms,
            plan_seed=derive_seed(spec.seeds.net, "plan"),
            retry_on_abort=spec.retry_on_abort,
            masked_cohort=spec.masked_cohort(),
        )
        self.state = ServerState()
        # Sparse until the aggregates' union of stored words outgrows
        # sparse_fits; _finish densifies it once.
        self.global_params: Vector = SparseVector(
            spec.train.dims, np.empty(0, np.intp), np.empty(0)
        )
        self.trust_reference: np.ndarray | None = None
        # client -> its accepted update for the current round, kept from the
        # step that accepts it until the round is aggregated.
        self.vectors: dict[str, Vector] = {}
        self.params_per_round: list[np.ndarray] = []
        self.eval_reports: dict[str, tuple[Metrics, Metrics] | None] = {}
        self.model_signature: bytes | None = None
        self._eval_timer = None
        for site in sorted(spec.policies):
            policy = spec.policies[site]
            self._audit("PolicyApplied", {
                "site": site,
                "clip": policy.clip_norm is not None,
                "dp": policy.dp is not None,
                "svt": policy.svt is not None,
                "masking": policy.masking_enabled,
            })

    # -- the machine and its actions ---------------------------------------------

    def _step(self, event) -> tuple[ServerState, list]:
        state, actions = server_step(self.state, event, self.config)
        self.done |= state.failed  # a round aborted with no retry left
        return state, actions

    def _audit(self, event_type: str, detail: dict) -> None:
        self.audit.append(event_type, kvdoc.emit_doc(detail))

    def _execute(self, action) -> None:
        if isinstance(action, BroadcastTask):
            self._broadcast_task(action)
        elif isinstance(action, ScheduleDeadline):
            self.rel.raw.schedule(
                action.delay_ms,
                lambda: self.dispatch(
                    DeadlineFired(action.round, action.attempt, self._now())
                ),
            )
        elif isinstance(action, StartAggregation):
            self._aggregate(action)
        elif isinstance(action, FederationComplete):
            self._finish()

    # -- message handling ------------------------------------------------------

    def _on_register(self, src: str, opened: Opened | None) -> None:
        if opened is None or opened[0].get("site_id") != src or src not in self.expected:
            self._audit("Register", {"client": src, "status": "rejected"})
            self.rel.send(src, MSG_ABORT,
                          _signed({"reason": "registration rejected"}, None, self.kit))
            return
        self.dispatch(ClientRegistered(src))
        self.rel.send(src, MSG_ACK, _signed({"registered": True}, None, self.kit))
        if self.state.phase == protocol.IDLE and self.state.registry >= self.expected:
            self.dispatch(Start(self._now()))

    def _reject_update(self, src: str, reason: str) -> None:
        self._audit("UpdateRejected", {"client": src, "reason": reason})

    def _on_update(self, src: str, opened: Opened | None) -> None:
        if opened is None:
            self._reject_update(src, "bad signature")
            return
        doc, vector = opened
        try:
            round_no = int(doc["round"])
            weight = float(doc.get("weight", 0.0))
        except (KeyError, TypeError, ValueError, OverflowError):
            round_no = None
        if round_no is None or doc.get("client_id") != src or vector is None:
            self._reject_update(src, "malformed update")
            return
        masked = bool(doc.get("masked", False))
        if weight <= 0 or not np.isfinite(weight):
            self._reject_update(src, "bad weight")
            return
        words = vector.values if isinstance(vector, SparseVector) else vector
        expected = np.uint64 if masked else np.float64
        if masked != (src in self.config.masked_cohort) or words.dtype != expected:
            self._reject_update(src, "masking mismatch")
            return
        if len(vector) != self.spec.train.dims or (
            not masked and not np.all(np.isfinite(words))
        ):
            self._reject_update(src, "bad vector")
            return
        # Kept before the accepting step's actions run: one may aggregate.
        self.state, actions = self._step(UpdateReceived(src, round_no, weight))
        if any(isinstance(a, Audit) and a.event_type == "UpdateAccepted" for a in actions):
            self.vectors[src] = vector
        self._run(actions)

    # -- round mechanics ---------------------------------------------------------

    def _broadcast_task(self, action: BroadcastTask) -> None:
        masked = sorted(set(action.invited) & self.config.masked_cohort)
        doc = {
            "round": action.round,
            "invited": list(action.invited),
            "masked": masked,
        }
        payload = _signed(doc, self.global_params, self.kit)
        for client in action.invited:
            self.rel.send(client, MSG_TASK_ASSIGN, payload)

    def _aggregate(self, action: StartAggregation) -> None:
        norm = self._fold_round(action)  # the round's vectors are gone when it returns
        self.dispatch(RoundAggregated(action.round, norm, self._now()))

    def _fold_round(self, action: StartAggregation) -> float:
        """Add the round's aggregate to the global model and drop its updates;
        the aggregate's norm."""
        vectors, self.vectors = self.vectors, {}
        weights = dict(action.weights)
        masked_ids = sorted(set(action.responded) & self.config.masked_cohort)
        plain_ids = sorted(set(action.responded) - self.config.masked_cohort)
        if masked_ids:
            delta = sum_masked([vectors.pop(c) for c in masked_ids])  # freed once summed
            for cid in plain_ids:
                add_scaled(delta, vectors[cid], weights[cid])
            delta /= sum(weights.values())
        else:
            updates = [
                ClientUpdate(cid, action.round, weights[cid], vectors[cid])
                for cid in sorted(action.responded)
            ]
            delta = aggregate(updates, self.spec.strategy, self.trust_reference)
        self.global_params = add_vectors(self.global_params, delta)
        if self.spec.strategy.kind == "fedavg-trust" and np.any(reference := as_dense(delta)):
            self.trust_reference = reference
        if self.spec.track_params:
            self.params_per_round.append(as_dense(self.global_params).copy())
        return l2_norm(delta)

    # -- completion and cross-site evaluation --------------------------------------

    def _finish(self) -> None:
        self.global_params = as_dense(self.global_params)
        self.model_signature = sign_model(self.global_params, self.kit.private_key())
        self._audit("ModelSigned", {
            "rounds": self.state.round,
            "sha256": hashlib.sha256(self.global_params.data).hexdigest(),
        })
        if not self.expected:
            self.done = True
            return
        doc = {"rounds": self.state.round}
        payload = _signed(doc, self.global_params, self.kit)
        for client in sorted(self.expected):
            self.rel.send(client, MSG_EVAL_REQUEST, payload)
        self._eval_timer = self.rel.raw.schedule(
            self.spec.deadline_ms * _EVAL_TIMEOUT_FACTOR, self._finish_eval
        )

    def _on_eval_report(self, src: str, opened: Opened | None) -> None:
        if opened is None or self.done or src in self.eval_reports:
            return
        doc = opened[0]
        try:
            self.eval_reports[src] = (
                Metrics.from_fields(doc, "ent", "entity-strict"),
                Metrics.from_fields(doc, "tok", "token"),
            ) if doc.get("has_data") else None
        except (KeyError, TypeError, ValueError, OverflowError):
            self.eval_reports[src] = None
            self._audit("EvalReportRejected", {"client": src, "reason": "malformed report"})
        if set(self.eval_reports) >= self.expected:
            self._finish_eval()

    def _finish_eval(self) -> None:
        if self.done:
            return
        if self._eval_timer is not None:
            self.rel.raw.cancel(self._eval_timer)
        payload = _signed({"done": True}, None, self.kit)
        for client in sorted(self.expected):
            self.rel.send(client, MSG_ACK, payload)
        # Last: a TCP host closes its sockets as soon as it sees done, and a
        # client that never gets this ack waits out its whole timeout.
        self.done = True


class ClientNode(_Node):
    """Site runtime: one action per task, built from the spec alone.

    Its shard and holdout are ``spec.shards`` and ``spec.holdouts`` under its
    kit's site id.  A task the machine accepts runs as one call,
    ``_run_task``: train, apply the site policy, mask, sign and send.  The
    round settles when the upload is acked or given up.  A site with no
    data, or one that cannot mask its update, refuses its own round instead:
    it sends nothing, the round goes on (or aborts) without it, and the
    round settles at once.

    It hears only the coordinator.  Its audits and refusals have no audit
    log of their own and go to the ``fedmesh.runner`` log as warnings.
    """

    def __init__(self, rel: ReliableEndpoint, kit: StartupKit, spec: FederationSpec):
        super().__init__(rel, kit, spec, {
            MSG_TASK_ASSIGN: self._on_task,
            MSG_ACK: self._on_ack,
            MSG_EVAL_REQUEST: self._on_eval_request,
            MSG_ABORT: self._on_abort,
        }, only_from=spec.server_id)
        self.shard = spec.shards[kit.site_id]
        self.holdout = spec.holdouts.get(kit.site_id, [])
        self.policy = spec.policy_for(kit.site_id)
        self.state = protocol.ClientState()
        self.encoded: EncodedBatch | None = None
        self.weight = float(token_count(self.shard)) if self.shard else 0.0
        self.current_task: tuple[int, Vector, tuple[str, ...]] | None = None
        self.registered = False
        self._register_attempts = 0

    def register(self) -> None:
        self._register_attempts += 1
        doc = {"site_id": self.kit.site_id, "role": self.kit.role}
        self.rel.send(
            self.spec.server_id, MSG_REGISTER, _signed(doc, None, self.kit),
            on_result=self._register_receipt,
        )

    def _register_receipt(self, receipt) -> None:
        if receipt.ok or self.registered or self.done:
            return
        if self._register_attempts < _REGISTER_ATTEMPTS:
            self.register()

    # -- the machine and its actions ---------------------------------------------

    def _step(self, event) -> tuple[protocol.ClientState, list]:
        return client_step(self.state, event)

    def _audit(self, event_type: str, detail: dict) -> None:
        log.warning("client %s: %s %s", self.kit.site_id, event_type, detail)

    def _refuse(self, round_no: int, reason: str) -> None:
        """Send nothing for this round; it goes on (or aborts) without this site."""
        self._audit("TaskRefused", {"round": round_no, "reason": reason})

    def _drop(self, round_no: int, reason: str) -> None:
        """Refuse the round this site holds and wait for the next task."""
        self._refuse(round_no, reason)
        self.dispatch(TaskSettled(round_no))

    def _execute(self, action) -> None:
        if isinstance(action, RunTask):
            self._run_task(action.round)
        elif isinstance(action, protocol.RefuseTask):
            self._refuse(action.round, action.reason)

    # -- message handling ------------------------------------------------------

    def _on_task(self, src: str, opened: Opened | None) -> None:
        task = _task_fields(opened)
        if task is None:
            self.dispatch(TaskReceived(round=-1, malformed=True))
            return
        self.registered = True
        # Staged before dispatch; consumed synchronously by _run_task if the
        # machine accepts this round.
        self.current_task = task
        self.dispatch(TaskReceived(task[0]))

    def _on_ack(self, src: str, opened: Opened | None) -> None:
        if opened is not None:
            self.registered |= bool(opened[0].get("registered"))
            self.done |= bool(opened[0].get("done"))

    def _on_eval_request(self, src: str, opened: Opened | None) -> None:
        if opened is not None and opened[1] is not None:
            self._report_eval(as_dense(opened[1]))

    def _on_abort(self, src: str, opened: Opened | None) -> None:
        if opened is not None and opened[0].get("reason") == "registration rejected":
            self.done = True

    # -- local work ------------------------------------------------------------

    def _run_task(self, round_no: int) -> None:
        task, self.current_task = self.current_task, None  # not held past the round
        assert task is not None and task[0] == round_no
        _, start, masked = task
        if not self.weight:
            # Refuse instead of uploading a fabricated update.
            self._drop(round_no, "no data")
            return
        adversary = self.spec.adversary
        if adversary is not None and adversary.client_id == self.kit.site_id:
            delta: Vector = self._attack
        else:
            if self.encoded is None:
                self.encoded = encode_sentences(
                    self.shard, self.spec.train.feature_dim, self.spec.train.hash_seed
                )
            cfg = replace(
                self.spec.train,
                seed=derive_seed(self.spec.seeds.model, "shuffle", self.kit.site_id, round_no),
            )
            cols, before, after = local_train(start, self.encoded, cfg)
            delta = SparseVector(cfg.dims, cols, after - before)
        rng = np.random.Generator(np.random.PCG64(
            derive_seed(self.spec.seeds.net, "privacy", self.kit.site_id, round_no)
        ))
        vector = delta = apply_policy(delta, self.policy, rng)
        doc = {
            "client_id": self.kit.site_id,
            "round": round_no,
            "weight": self.weight,
            "masked": self.policy.masking_enabled,
        }
        if self.policy.masking_enabled:
            try:
                vector = mask_update(
                    delta, self.kit.site_id, masked, round_no, self.kit.mask_root, self.weight
                )
            except ConfigError as exc:  # no root, past the fixed-point bound, or no peer
                self._drop(round_no, str(exc))
                return
        self.rel.send(
            self.spec.server_id, MSG_UPDATE_SUBMIT, _signed(doc, vector, self.kit),
            on_result=lambda receipt: self.dispatch(TaskSettled(round_no)),
        )

    @cached_property
    def _attack(self) -> np.ndarray:
        """The Byzantine site's update in place of training: random signs
        scaled to norm *magnitude*, the same vector every round."""
        dims = self.spec.train.dims
        sign_rng = np.random.Generator(np.random.PCG64(derive_seed("byzantine", self.kit.site_id)))
        signs = sign_rng.choice([-1.0, 1.0], size=dims)
        attack = self.spec.adversary.magnitude * signs / np.sqrt(dims)
        attack.setflags(write=False)  # every round uploads this one array
        return attack

    def _report_eval(self, params: np.ndarray) -> None:
        doc: dict = {"site_id": self.kit.site_id, "has_data": bool(self.holdout)}
        if self.holdout:
            ent, tok = evaluate(params, self.holdout, self.spec.train)
            doc.update(ent.fields("ent"))
            doc.update(tok.fields("tok"))
        self.rel.send(self.spec.server_id, MSG_EVAL_REPORT, _signed(doc, None, self.kit))


def run_federation(
    spec: FederationSpec,
    net_config: SimNetConfig | None = None,
    audit_path: "str | Path | None" = None,
) -> FederationResult:
    """Execute the whole federation in-process under the simulator.

    Fully deterministic for fixed (spec seeds, net_config seed): two runs
    produce identical final parameters, history, and audit entries.
    """
    spec.validate()
    missing = (set(spec.shards) | {spec.server_id}) - set(spec.kits)
    if missing:
        raise ConfigError(f"kits missing for {sorted(missing)}")
    net = SimNetwork(net_config or SimNetConfig(seed=spec.seeds.net))
    clock = VirtualClock(lambda: net.now_ms)

    audit = AuditLog(clock=clock, path=audit_path)
    server = ServerNode(
        ReliableEndpoint(net.endpoint(spec.server_id)), spec.kits[spec.server_id], spec, audit
    )

    clients: dict[str, ClientNode] = {}
    for cid in spec.client_ids():
        clients[cid] = ClientNode(ReliableEndpoint(net.endpoint(cid)), spec.kits[cid], spec)
    for cid in spec.client_ids():
        net.schedule(0.0, clients[cid].register)

    net.run(until=lambda: server.done)
    if server.state.failed:
        raise RoundFailedError("round aborted after retry; federation failed")
    if not server.done:
        raise RuntimeError("simulator went idle before the federation finished")
    return FederationResult(
        final_params=server.global_params,
        history=server.state.history,
        cross_site={cid: server.eval_reports.get(cid) for cid in sorted(server.expected)},
        audit=list(audit.entries),
        model_signature=server.model_signature,
        params_per_round=server.params_per_round,
    )


def run_centralized(
    pooled: list[TaggedSentence],
    train: TrainConfig,
    rounds: int,
    seeds: Seeds,
) -> np.ndarray:
    """Budget-parity baseline: train on the pooled sentences for rounds*local_epochs epochs.

    Uses the same per-round seed derivation as a single pooled 'site' so the
    two-client/one-full-batch configuration reproduces the federated
    trajectory exactly.
    """
    params = zero_params(train)
    encoded = encode_sentences(pooled, train.feature_dim, train.hash_seed)
    for round_no in range(1, rounds + 1):
        cfg = replace(
            train,
            seed=derive_seed(seeds.model, "shuffle", "centralized", round_no),
        )
        cols, _, trained = local_train(params, encoded, cfg)
        params[cols] = trained
    return params


def replay_rounds(audit_entries: list) -> dict[int, dict[str, object]]:
    """Reconstruct per-round facts from an audit log for consistency checks."""
    rounds: dict[int, dict[str, object]] = {}
    for entry in audit_entries:
        doc = kvdoc.parse_doc(entry.payload) if entry.payload else {}
        if entry.event_type == "TaskAssign":
            rnd = int(doc["round"])
            info = rounds.setdefault(
                rnd, {"invited": set(), "responded": set(), "late": set(), "attempts": 0}
            )
            info["invited"] = set(str(doc["invited"]).split(","))
            info["attempts"] = int(doc["attempt"]) + 1
        elif entry.event_type == "UpdateAccepted":
            rounds[int(doc["round"])]["responded"].add(str(doc["client"]))
        elif entry.event_type == "UpdateLate":
            rnd = int(doc["round"])
            if rnd in rounds:
                rounds[rnd]["late"].add(str(doc["client"]))
    return rounds
