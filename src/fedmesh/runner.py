"""Federation runtime: hosts the protocol state machines over a transport.

The node classes are transport-agnostic; they talk through a
ReliableEndpoint and an injected clock, so the same code runs under the
in-process simulator (run_federation) and over TCP (cli serve/client).
Every message is signed by its sender and verified against the provisioned
roster before it reaches a state machine.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import kvdoc, protocol, transport
from .aggregation import (
    AggregationStrategy, ClientUpdate, SparseVector, Vector, add_scaled, aggregate, as_dense,
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
from .privacy import SitePolicy, apply_policy, make_pairing, mask_update, sum_masked
from .protocol import (
    AbortRound,
    Audit,
    BroadcastTask,
    ClientRegistered,
    DeadlineFired,
    FederationComplete,
    RoundAggregated,
    RoundRecord,
    ScheduleDeadline,
    ServerConfig,
    ServerState,
    Start,
    StartAggregation,
    StartLocalTrain,
    SubmitUpdate,
    TaskReceived,
    TrainingDone,
    UpdateReceived,
    UploadAcked,
    UploadFailed,
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
    max_retries: int = 5
    backoff_base_ms: float = 50.0
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
        if self.masked_cohort():
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
    failed: bool
    params_per_round: list[np.ndarray] = field(default_factory=list)


def _signed(doc: dict, vector: np.ndarray | None, kit: StartupKit) -> bytes:
    """Encode once and append a signature over the SHA-256 of the encoding."""
    body = encode_payload(doc, vector)
    return body + sign_digest(hashlib.sha256(body).digest(), kit.private_key())


def _opened(payload: memoryview, sender_pub: bytes) -> tuple[dict, Vector | None] | None:
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


def _task_fields(
    opened: tuple[dict, Vector | None] | None,
) -> tuple[int, Vector, tuple[str, ...]] | None:
    """(round, params, masked peers) of an opened task; None if malformed or non-finite."""
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


def _detail_doc(detail: tuple[tuple[str, str], ...]) -> str:
    return kvdoc.emit_doc({k: v for k, v in detail})


class ServerNode:
    """Coordinator: registration, rounds, aggregation, audit, cross-site eval."""

    def __init__(self, rel: ReliableEndpoint, kit: StartupKit, spec: FederationSpec,
                 audit: AuditLog):
        spec.validate()
        self.rel = rel
        self.kit = kit
        self.spec = spec
        self.audit = audit
        self.expected = set(spec.client_ids())
        self.config = ServerConfig(
            rounds=spec.rounds,
            k=spec.k,
            m=spec.m,
            deadline_ms=spec.deadline_ms,
            plan_seed=derive_seed(spec.seeds.net, "plan"),
            strategy_kind=spec.strategy.kind,
            retry_on_abort=spec.retry_on_abort,
            masked_cohort=spec.masked_cohort(),
        )
        self.state = ServerState()
        self.global_params = zero_params(spec.train)
        self.trust_reference: np.ndarray | None = None
        # (round, client) -> (masked?, vector as it arrived); written before the
        # state machine sees the update so aggregation can read it synchronously.
        self.vectors: dict[tuple[int, str], tuple[bool, Vector]] = {}
        self.params_per_round: list[np.ndarray] = []
        self.eval_reports: dict[str, dict] = {}
        self.model_signature: bytes | None = None
        self.done = False
        self.failed = False
        self._eval_timer = None
        rel.on_message = self.on_message
        for site in sorted(spec.policies):
            policy = spec.policies[site]
            self.audit.append("PolicyApplied", kvdoc.emit_doc({
                "site": site,
                "clip": policy.clip_norm is not None,
                "dp": policy.dp is not None,
                "svt": policy.svt is not None,
                "masking": policy.masking_enabled,
            }))

    # -- event plumbing ------------------------------------------------------

    def _now(self) -> float:
        return self.rel.raw.now_ms()

    def dispatch(self, event) -> None:
        self.state, actions = server_step(self.state, event, self.config)
        for action in actions:
            self._execute(action)

    def _execute(self, action) -> None:
        if isinstance(action, Audit):
            self.audit.append(action.event_type, _detail_doc(action.detail))
        elif isinstance(action, BroadcastTask):
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
        elif isinstance(action, AbortRound):
            if not action.retry:
                self.failed = True
                self.done = True
        elif isinstance(action, FederationComplete):
            self._finish()

    # -- message handling ------------------------------------------------------

    def on_message(self, src: str, msg_type: int, payload: memoryview) -> None:
        if msg_type == MSG_REGISTER:
            self._on_register(src, payload)
        elif msg_type == MSG_UPDATE_SUBMIT:
            self._on_update(src, payload)
        elif msg_type == MSG_EVAL_REPORT:
            self._on_eval_report(src, payload)

    def _pub(self, site_id: str) -> bytes | None:
        try:
            return self.kit.public_key_of(site_id)
        except KeyError:
            return None

    def _on_register(self, src: str, payload: memoryview) -> None:
        pub = self._pub(src)
        opened = _opened(payload, pub) if pub is not None else None
        if opened is None or opened[0].get("site_id") != src or src not in self.expected:
            self.audit.append(
                "Register", kvdoc.emit_doc({"client": src, "status": "rejected"})
            )
            self.rel.send(src, MSG_ABORT,
                          _signed({"reason": "registration rejected"}, None, self.kit))
            return
        self.dispatch(ClientRegistered(src, self._now()))
        self.rel.send(src, MSG_ACK, _signed({"registered": True}, None, self.kit))
        if self.state.phase == protocol.IDLE and self.state.registry >= self.expected:
            self.dispatch(Start(self._now()))

    def _on_update(self, src: str, payload: memoryview) -> None:
        pub = self._pub(src)
        opened = _opened(payload, pub) if pub is not None else None
        if opened is None:
            self.audit.append(
                "UpdateRejected",
                kvdoc.emit_doc({"client": src, "reason": "bad signature"}),
            )
            return
        doc, vector = opened
        try:
            round_no = int(doc["round"])
            weight = float(doc.get("weight", 0.0))
        except (KeyError, TypeError, ValueError, OverflowError):
            round_no = None
        if round_no is None or doc.get("client_id") != src or vector is None:
            self.audit.append(
                "UpdateRejected",
                kvdoc.emit_doc({"client": src, "reason": "malformed update"}),
            )
            return
        masked = bool(doc.get("masked", False))
        if weight <= 0 or not np.isfinite(weight):
            self.audit.append(
                "UpdateRejected",
                kvdoc.emit_doc({"client": src, "reason": "bad weight"}),
            )
            return
        words = vector.values if isinstance(vector, SparseVector) else vector
        expected = np.uint64 if masked else np.float64
        if masked != (src in self.config.masked_cohort) or words.dtype != expected:
            self.audit.append(
                "UpdateRejected",
                kvdoc.emit_doc({"client": src, "reason": "masking mismatch"}),
            )
            return
        if len(vector) != self.spec.train.dims or (
            not masked and not np.all(np.isfinite(words))
        ):
            self.audit.append(
                "UpdateRejected",
                kvdoc.emit_doc({"client": src, "reason": "bad vector"}),
            )
            return
        self.vectors.setdefault((round_no, src), (masked, vector))
        self.dispatch(UpdateReceived(src, round_no, weight, self._now()))

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
        weights = dict(action.weights)
        masked_ids = sorted(set(action.responded) & self.config.masked_cohort)
        plain_ids = sorted(set(action.responded) - self.config.masked_cohort)
        if masked_ids:
            total = sum_masked([self.vectors[(action.round, c)][1] for c in masked_ids])
            for cid in plain_ids:
                add_scaled(total, self.vectors[(action.round, cid)][1], weights[cid])
            delta = total / sum(weights.values())
        else:
            updates = [
                ClientUpdate(cid, action.round, weights[cid],
                             self.vectors[(action.round, cid)][1])
                for cid in sorted(action.responded)
            ]
            delta = aggregate(updates, self.spec.strategy, self.trust_reference)
        self.global_params = self.global_params + delta
        if self.spec.strategy.kind == "fedavg-trust" and np.any(delta):
            self.trust_reference = delta
        if self.spec.track_params:
            self.params_per_round.append(self.global_params.copy())
        self.vectors = {key: v for key, v in self.vectors.items() if key[0] > action.round}
        norm = float(np.linalg.norm(delta))
        self.dispatch(RoundAggregated(action.round, norm, self._now()))

    # -- completion and cross-site evaluation --------------------------------------

    def _finish(self) -> None:
        self.model_signature = sign_model(self.global_params, self.kit.private_key())
        self.audit.append(
            "ModelSigned",
            kvdoc.emit_doc({
                "rounds": self.state.round,
                "sha256": hashlib.sha256(self.global_params.tobytes()).hexdigest(),
            }),
        )
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

    def _on_eval_report(self, src: str, payload: memoryview) -> None:
        pub = self._pub(src)
        opened = _opened(payload, pub) if pub is not None else None
        if opened is None or self.done or src in self.eval_reports:
            return
        self.eval_reports[src] = opened[0]
        if set(self.eval_reports) >= self.expected:
            self._finish_eval()

    def _finish_eval(self) -> None:
        if self.done:
            return
        if self._eval_timer is not None:
            self.rel.raw.cancel(self._eval_timer)
        for client in sorted(self.expected):
            self.rel.send(client, MSG_ACK, _signed({"done": True}, None, self.kit))
        # Last: a TCP host closes its sockets as soon as it sees done, and a
        # client that never gets this ack waits out its whole timeout.
        self.done = True

    def cross_site_table(self) -> dict[str, tuple[Metrics, Metrics] | None]:
        table: dict[str, tuple[Metrics, Metrics] | None] = {}
        for cid in sorted(self.expected):
            doc = self.eval_reports.get(cid)
            if doc is None or not doc.get("has_data", False):
                table[cid] = None
                continue
            table[cid] = (
                Metrics(
                    precision=float(doc["ent_precision"]),
                    recall=float(doc["ent_recall"]),
                    f1=float(doc["ent_f1"]),
                    tp=int(doc["ent_tp"]), fp=int(doc["ent_fp"]), fn=int(doc["ent_fn"]),
                    level="entity-strict",
                ),
                Metrics(
                    precision=float(doc["tok_precision"]),
                    recall=float(doc["tok_recall"]),
                    f1=float(doc["tok_f1"]),
                    tp=int(doc["tok_tp"]), fp=int(doc["tok_fp"]), fn=int(doc["tok_fn"]),
                    level="token",
                ),
            )
        return table


class ClientNode:
    """Site runtime: trains locally, applies its policy, uploads signed updates."""

    def __init__(
        self,
        rel: ReliableEndpoint,
        kit: StartupKit,
        shard: list[TaggedSentence],
        spec: FederationSpec,
        holdout: list[TaggedSentence] | None = None,
    ):
        self.rel = rel
        self.kit = kit
        self.spec = spec
        self.shard = shard
        self.holdout = holdout if holdout is not None else []
        self.policy = spec.policy_for(kit.site_id)
        self.state = protocol.ClientState()
        self.server_id = spec.server_id
        self.encoded: EncodedBatch | None = None
        self.weight = float(token_count(shard)) if shard else 0.0
        self.current_task: tuple[int, Vector, tuple[str, ...]] | None = None
        self.done = False
        self.registered = False
        self._register_attempts = 0
        rel.on_message = self.on_message

    def register(self) -> None:
        self._register_attempts += 1
        doc = {"site_id": self.kit.site_id, "role": self.kit.role}
        self.rel.send(
            self.server_id, MSG_REGISTER, _signed(doc, None, self.kit),
            on_result=self._register_receipt,
        )

    def _register_receipt(self, receipt) -> None:
        if receipt.ok or self.registered or self.done:
            return
        if self._register_attempts < _REGISTER_ATTEMPTS:
            self.register()

    def dispatch(self, event) -> None:
        self.state, actions = client_step(self.state, event)
        for action in actions:
            if isinstance(action, Audit):
                log.warning("client %s: %s %s", self.kit.site_id, action.event_type,
                            dict(action.detail))
            elif isinstance(action, StartLocalTrain):
                self._train(action.round)
            elif isinstance(action, SubmitUpdate):
                self._submit(action.round)
            elif isinstance(action, protocol.RefuseTask):
                log.warning("client %s refused task for round %d: %s",
                            self.kit.site_id, action.round, action.reason)

    def on_message(self, src: str, msg_type: int, payload: memoryview) -> None:
        if src != self.server_id:
            return
        pub = self.kit.public_key_of(self.server_id)
        if msg_type == MSG_TASK_ASSIGN:
            task = _task_fields(_opened(payload, pub))
            if task is None:
                self.dispatch(TaskReceived(round=-1, malformed=True))
                return
            self.registered = True
            # Staged before dispatch; consumed synchronously by _train if
            # the machine accepts this round.
            self.current_task = task
            self.dispatch(TaskReceived(task[0]))
        elif msg_type == MSG_ACK:
            opened = _opened(payload, pub)
            if opened is None:
                return
            if opened[0].get("registered"):
                self.registered = True
            if opened[0].get("done"):
                self.done = True
        elif msg_type == MSG_EVAL_REQUEST:
            opened = _opened(payload, pub)
            if opened is None or opened[1] is None:
                return
            self._report_eval(as_dense(opened[1]))
        elif msg_type == MSG_ABORT:
            opened = _opened(payload, pub)
            if opened is not None and opened[0].get("reason") == "registration rejected":
                self.done = True

    # -- local work ------------------------------------------------------------

    def _train(self, round_no: int) -> None:
        assert self.current_task is not None and self.current_task[0] == round_no
        _, start, masked = self.current_task
        if not self.weight:  # no tokens to train on
            # Refuse instead of uploading a fabricated update; the round
            # proceeds (or aborts) on quorum without this site.
            log.warning("client %s has no data; skipping round %d",
                        self.kit.site_id, round_no)
            return
        if self.encoded is None:
            self.encoded = encode_sentences(
                self.shard, self.spec.train.feature_dim, self.spec.train.hash_seed
            )
        cfg = replace(
            self.spec.train,
            seed=derive_seed(self.spec.seeds.model, "shuffle", self.kit.site_id, round_no),
        )
        cols, before, after = local_train(start, self.encoded, cfg)
        delta: Vector = SparseVector(cfg.dims, cols, after - before)
        adversary = self.spec.adversary
        if adversary is not None and adversary.client_id == self.kit.site_id:
            sign_rng = np.random.Generator(np.random.PCG64(
                derive_seed("byzantine", self.kit.site_id)
            ))
            signs = sign_rng.choice([-1.0, 1.0], size=len(delta))
            delta = adversary.magnitude * signs / np.sqrt(len(delta))
        rng = np.random.Generator(np.random.PCG64(
            derive_seed(self.spec.seeds.net, "privacy", self.kit.site_id, round_no)
        ))
        delta = apply_policy(delta, self.policy, rng)
        self._pending_delta = delta
        self._pending_masked_peers = masked
        self.dispatch(TrainingDone(round_no))

    def _submit(self, round_no: int) -> None:
        delta = self._pending_delta
        doc = {
            "client_id": self.kit.site_id,
            "round": round_no,
            "weight": self.weight,
            "masked": self.policy.masking_enabled,
        }
        if self.policy.masking_enabled:
            if self.kit.mask_root is None:
                raise ConfigError(f"{self.kit.site_id} has no mask root in its kit")
            root = int.from_bytes(self.kit.mask_root[:8], "big")
            pairing = make_pairing(list(self._pending_masked_peers), round_no, root)
            vector: Vector = mask_update(delta, pairing, self.kit.site_id, self.weight)
        else:
            vector = delta
        payload = _signed(doc, vector, self.kit)
        self.rel.send(
            self.server_id, MSG_UPDATE_SUBMIT, payload,
            on_result=lambda receipt: self.dispatch(
                UploadAcked(round_no) if receipt.ok else UploadFailed(round_no)
            ),
        )

    def _report_eval(self, params: np.ndarray) -> None:
        doc: dict = {"site_id": self.kit.site_id, "has_data": bool(self.holdout)}
        if self.holdout:
            ent, tok = evaluate(params, self.holdout, self.spec.train)
            doc.update({
                "ent_precision": ent.precision, "ent_recall": ent.recall, "ent_f1": ent.f1,
                "ent_tp": ent.tp, "ent_fp": ent.fp, "ent_fn": ent.fn,
                "tok_precision": tok.precision, "tok_recall": tok.recall, "tok_f1": tok.f1,
                "tok_tp": tok.tp, "tok_fp": tok.fp, "tok_fn": tok.fn,
            })
        self.rel.send(self.server_id, MSG_EVAL_REPORT, _signed(doc, None, self.kit))


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

    server_rel = ReliableEndpoint(
        net.endpoint(spec.server_id), spec.max_retries, spec.backoff_base_ms
    )
    audit = AuditLog(clock=clock, path=audit_path)
    server = ServerNode(server_rel, spec.kits[spec.server_id], spec, audit)

    clients: dict[str, ClientNode] = {}
    for cid in spec.client_ids():
        rel = ReliableEndpoint(net.endpoint(cid), spec.max_retries, spec.backoff_base_ms)
        clients[cid] = ClientNode(
            rel, spec.kits[cid], spec.shards[cid], spec, spec.holdouts.get(cid)
        )
    for cid in spec.client_ids():
        net.schedule(0.0, clients[cid].register)

    net.run(until=lambda: server.done)
    if server.failed:
        raise RoundFailedError("round aborted after retry; federation failed")
    if not server.done:
        raise RuntimeError("simulator went idle before the federation finished")
    return FederationResult(
        final_params=server.global_params,
        history=server.state.history,
        cross_site=server.cross_site_table(),
        audit=list(audit.entries),
        model_signature=server.model_signature,
        failed=server.failed,
        params_per_round=server.params_per_round,
    )


def run_centralized(
    shards: dict[str, list[TaggedSentence]] | list[TaggedSentence],
    train: TrainConfig,
    rounds: int,
    seeds: Seeds,
) -> np.ndarray:
    """Budget-parity baseline: pool all shards, train rounds*local_epochs epochs.

    Uses the same per-round seed derivation as a single pooled 'site' so the
    two-client/one-full-batch configuration reproduces the federated
    trajectory exactly.
    """
    if isinstance(shards, dict):
        pooled: list[TaggedSentence] = []
        for cid in sorted(shards):
            pooled.extend(shards[cid])
    else:
        pooled = list(shards)
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
