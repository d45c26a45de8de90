"""Experiment configuration: one key/value document describing a full run.

The same file drives `simulate`, `serve`, `client`, and `partition`.  Parsing
is strict: unknown keys and ill-typed values fail with their field path, so
a typo cannot silently change an experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from . import kvdoc
from .aggregation import AggregationStrategy
from .data import PartitionPlan
from .errors import ConfigError
from .model import TrainConfig
from .privacy import SitePolicy, policy_from_doc
from .runner import Adversary, Seeds
from .simnet import SimNetConfig

EXPERIMENT_KINDS = ("single", "client-sweep", "imbalance-sweep")


@dataclass(frozen=True)
class ExperimentConfig:
    train_path: str
    test_path: str
    rounds: int
    clients: int
    partition_mode: str
    ratios: tuple[int, ...]
    strategy: AggregationStrategy
    train: TrainConfig
    k: int
    m: int
    deadline_ms: float
    sim: SimNetConfig
    seeds: Seeds
    experiment_kind: str
    client_counts: tuple[int, ...]
    sweep_ratios: tuple[tuple[int, ...], ...]
    policies: dict[str, SitePolicy] = field(default_factory=dict)
    adversary: Adversary | None = None
    retry_on_abort: bool = True
    server_id: str = "server"
    bind: str = "127.0.0.1:7761"

    def site_ids(self, n_clients: int | None = None) -> list[str]:
        n = n_clients if n_clients is not None else self.clients
        return [f"site-{i}" for i in range(1, n + 1)]

    def plan(self, n_clients: int | None = None,
             ratios: tuple[int, ...] | None = None) -> PartitionPlan:
        n = n_clients if n_clients is not None else self.clients
        use_ratios = ratios if ratios is not None else self.ratios
        if use_ratios:
            return PartitionPlan("ratio", n, seed=self.seeds.data, ratios=use_ratios)
        return PartitionPlan("equal-n", n, seed=self.seeds.data)


def _need(doc: dict, path: str, kind: type, default: Any = ...) -> Any:
    value = kvdoc.get_path(doc, path, default=None)
    if value is None:
        if default is ...:
            raise ConfigError(f"{path}: required field is missing")
        return default
    if kind is float and isinstance(value, (int, bool)) and not isinstance(value, bool):
        value = float(value)
    if kind is not Any and not isinstance(value, kind) or isinstance(value, bool) != (kind is bool):
        raise ConfigError(f"{path}: expected {kind.__name__}, got {value!r}")
    return value


def _parse_ratio_string(text: str, path: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(p) for p in str(text).split("/"))
    except ValueError:
        raise ConfigError(f"{path}: expected percentages like 90/10, got {text!r}")
    if sum(parts) != 100 or any(p <= 0 for p in parts):
        raise ConfigError(f"{path}: percentages must be positive and sum to 100")
    return parts


_TOP_LEVEL_KEYS = {
    "corpus", "rounds", "clients", "partition", "strategy", "train", "quorum",
    "transport", "seeds", "experiment", "policy", "policy_dir", "adversary",
    "retry_on_abort", "server_id", "bind",
}


def parse_experiment(text: str, base_dir: str | Path = ".") -> ExperimentConfig:
    doc = kvdoc.parse_doc(text)
    unknown = set(doc) - _TOP_LEVEL_KEYS
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    base = Path(base_dir)

    def resolve(rel: str) -> str:
        path = Path(rel)
        return str(path if path.is_absolute() else base / path)

    train_path = resolve(_need(doc, "corpus.train", str))
    test_path = resolve(_need(doc, "corpus.test", str))

    clients = _need(doc, "clients", int)
    rounds = _need(doc, "rounds", int)
    if rounds < 0 or clients < 1:
        raise ConfigError("rounds must be >= 0 and clients >= 1")

    mode = _need(doc, "partition.mode", str, default="equal-n")
    ratios: tuple[int, ...] = ()
    if mode == "ratio":
        raw = kvdoc.get_path(doc, "partition.ratios")
        if isinstance(raw, str):
            ratios = _parse_ratio_string(raw, "partition.ratios")
        elif isinstance(raw, list):
            ratios = tuple(int(r) for r in raw)
        else:
            raise ConfigError("partition.ratios: required for ratio mode")
        PartitionPlan("ratio", clients, seed=0, ratios=ratios)
    elif mode != "equal-n":
        raise ConfigError(f"partition.mode: unknown mode {mode!r}")

    normalize_to = kvdoc.get_path(doc, "strategy.normalize_to")
    strategy = AggregationStrategy(
        kind=_need(doc, "strategy.kind", str, default="fedavg"),
        normalize_to=float(normalize_to) if normalize_to is not None else None,
        geo_tol=_need(doc, "strategy.geo_tol", float, default=1e-8),
        geo_max_iter=_need(doc, "strategy.geo_max_iter", int, default=200),
    )

    train = TrainConfig(
        learning_rate=_need(doc, "train.learning_rate", float, default=0.5),
        local_epochs=_need(doc, "train.local_epochs", int, default=1),
        batch_size=_need(doc, "train.batch_size", int, default=32),
        fedprox_mu=_need(doc, "train.fedprox_mu", float, default=0.0),
        seed=0,
        feature_dim=_need(doc, "train.feature_dim", int, default=1 << 18),
        hash_seed=_need(doc, "train.hash_seed", int, default=0),
    )

    k = _need(doc, "quorum.k", int, default=clients)
    m = _need(doc, "quorum.m", int, default=k)
    deadline_ms = _need(doc, "quorum.deadline_ms", float, default=30_000.0)
    if not (1 <= m <= k <= clients):
        raise ConfigError(f"quorum: need 1 <= m <= k <= clients, got m={m} k={k}")

    seeds = Seeds(
        data=_need(doc, "seeds.data", int, default=1),
        model=_need(doc, "seeds.model", int, default=2),
        net=_need(doc, "seeds.net", int, default=3),
    )

    sim = SimNetConfig(
        latency_ms=(
            _need(doc, "transport.latency_min_ms", float, default=1.0),
            _need(doc, "transport.latency_max_ms", float, default=5.0),
        ),
        drop_prob=_need(doc, "transport.drop_prob", float, default=0.0),
        seed=seeds.net,
    )

    kind = _need(doc, "experiment.kind", str, default="single")
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"experiment.kind: unknown kind {kind!r}")
    counts_raw = kvdoc.get_path(doc, "experiment.client_counts", default=[])
    client_counts = tuple(int(c) for c in counts_raw)
    sweep_raw = kvdoc.get_path(doc, "experiment.ratios", default=[])
    sweep_ratios = tuple(
        _parse_ratio_string(r, "experiment.ratios") for r in sweep_raw
    )
    if kind == "client-sweep" and not client_counts:
        raise ConfigError("experiment.client_counts: required for client-sweep")
    if kind == "imbalance-sweep" and not sweep_ratios:
        raise ConfigError("experiment.ratios: required for imbalance-sweep")

    site_ids = [f"site-{i}" for i in range(1, clients + 1)]
    policies: dict[str, SitePolicy] = {}
    policy_dir = _need(doc, "policy_dir", str, default=None)
    if policy_dir is not None:
        pdir = Path(resolve(policy_dir))
        if not pdir.is_dir():
            raise ConfigError(f"policy_dir: {pdir} is not a directory")
        for policy_path in sorted(pdir.glob("*.policy")):
            site = policy_path.stem
            policies[site] = policy_from_doc(
                site, kvdoc.parse_doc(policy_path.read_text(encoding="utf-8"))
            )
    for site, policy_doc in sorted(kvdoc.get_path(doc, "policy", default={}).items()):
        policies[site] = policy_from_doc(site, policy_doc)

    adversary = None
    if "adversary" in doc:
        adversary = Adversary(
            client_id=_need(doc, "adversary.client", str),
            magnitude=_need(doc, "adversary.magnitude", float),
        )

    return ExperimentConfig(
        train_path=train_path,
        test_path=test_path,
        rounds=rounds,
        clients=clients,
        partition_mode=mode,
        ratios=ratios,
        strategy=strategy,
        train=train,
        k=k,
        m=m,
        deadline_ms=deadline_ms,
        sim=sim,
        seeds=seeds,
        experiment_kind=kind,
        client_counts=client_counts,
        sweep_ratios=sweep_ratios,
        policies=policies,
        adversary=adversary,
        retry_on_abort=_need(doc, "retry_on_abort", bool, default=True),
        server_id=_need(doc, "server_id", str, default="server"),
        bind=_need(doc, "bind", str, default="127.0.0.1:7761"),
    )


def load_experiment(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    config = parse_experiment(path.read_text(encoding="utf-8"), base_dir=path.parent)
    for label, ref in (
        ("corpus.train", config.train_path),
        ("corpus.test", config.test_path),
    ):
        if not Path(ref).is_file():
            raise ConfigError(f"{label}: file {ref} does not exist")
    return config


def experiment_to_doc(config: ExperimentConfig) -> dict:
    """Canonical document echo of a parsed config (used in reports)."""
    doc: dict = {
        "corpus": {"train": config.train_path, "test": config.test_path},
        "rounds": config.rounds,
        "clients": config.clients,
        "partition": {"mode": config.partition_mode},
        "strategy": {
            "kind": config.strategy.kind,
            "geo_tol": config.strategy.geo_tol,
            "geo_max_iter": config.strategy.geo_max_iter,
        },
        "train": {
            "learning_rate": config.train.learning_rate,
            "local_epochs": config.train.local_epochs,
            "batch_size": config.train.batch_size,
            "fedprox_mu": config.train.fedprox_mu,
            "feature_dim": config.train.feature_dim,
            "hash_seed": config.train.hash_seed,
        },
        "quorum": {"k": config.k, "m": config.m, "deadline_ms": config.deadline_ms},
        "transport": {
            "latency_min_ms": config.sim.latency_ms[0],
            "latency_max_ms": config.sim.latency_ms[1],
            "drop_prob": config.sim.drop_prob,
        },
        "seeds": {
            "data": config.seeds.data,
            "model": config.seeds.model,
            "net": config.seeds.net,
        },
        "experiment": {"kind": config.experiment_kind},
        "retry_on_abort": config.retry_on_abort,
        "server_id": config.server_id,
        "bind": config.bind,
    }
    if config.ratios:
        doc["partition"]["ratios"] = list(config.ratios)
    if config.strategy.normalize_to is not None:
        doc["strategy"]["normalize_to"] = config.strategy.normalize_to
    if config.client_counts:
        doc["experiment"]["client_counts"] = list(config.client_counts)
    if config.sweep_ratios:
        doc["experiment"]["ratios"] = ["/".join(map(str, r)) for r in config.sweep_ratios]
    if config.adversary is not None:
        doc["adversary"] = {
            "client": config.adversary.client_id,
            "magnitude": config.adversary.magnitude,
        }
    for site, policy in sorted(config.policies.items()):
        from .privacy import policy_to_doc

        kvdoc.set_path(doc, f"policy.{site}", policy_to_doc(policy))
        doc["policy"][site].pop("site_id", None)
    return doc


def with_seeds(config: ExperimentConfig, data=None, model=None, net=None) -> ExperimentConfig:
    seeds = Seeds(
        data=data if data is not None else config.seeds.data,
        model=model if model is not None else config.seeds.model,
        net=net if net is not None else config.seeds.net,
    )
    sim = replace(config.sim, seed=seeds.net)
    return replace(config, seeds=seeds, sim=sim)
