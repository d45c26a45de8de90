"""Experiment configuration: one key/value document describing a full run.

The same file drives `simulate`, `serve`, `client`, and `partition`.  Each
document kind (the experiment, a site policy, the provisioning roster) has one
key table here that declares every key once, with its type and default;
parsing, defaults and the report's config echo all come from it.  Parsing is
strict at every depth: an undeclared key, an ill-typed value or an incomplete
section fails with its dotted path, so a typo cannot silently change an
experiment.
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from . import kvdoc
from .aggregation import AggregationStrategy
from .data import PartitionPlan
from .errors import ConfigError
from .model import TrainConfig
from .privacy import DpParams, SitePolicy, SvtParams
from .runner import Adversary, Seeds
from .simnet import SimNetConfig
from .tcpnet import parse_address

@dataclass(frozen=True)
class ExperimentConfig:
    train_path: str
    test_path: str
    rounds: int
    clients: int
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
    policies: dict[str, SitePolicy]
    adversary: Adversary | None
    retry_on_abort: bool
    server_id: str
    bind: str

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


REQUIRED = object()


# A nested key table; build makes one object of its values, by keyword.
_Section = namedtuple("_Section", "keys build", defaults=(dict,))


def _check(kind: Any, value: Any, path: str) -> Any:
    """*value* read as *kind*: a type, ``[kind]`` for a list of them, a
    ``_Section``, or a function of ``(value, path)``."""
    if isinstance(kind, _Section):
        return _at(path, kind.build, **_read(value, kind.keys, path))
    if type(kind) is list:
        if type(value) is not list:
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        return tuple(_check(kind[0], item, path) for item in value)
    if not isinstance(kind, type):
        return kind(value, path)
    if kind is float and type(value) is int:
        value = float(value)
    if type(value) is not kind:
        raise ConfigError(f"{path}: expected {kind.__name__}, got {value!r}")
    return value


def _at(path: str, build: Any, *args: Any, **kwargs: Any) -> Any:
    """``build(*args, **kwargs)``, with a range error it raises prefixed by *path*."""
    try:
        return build(*args, **kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse(text: str, where: str) -> dict[str, Any]:
    """kvdoc.parse_doc, with a malformed line or a key set twice refused as a
    ConfigError naming *where*."""
    try:
        return kvdoc.parse_doc(text)
    except kvdoc.DocError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _read(doc: Any, table: dict[str, tuple], path: str = "") -> dict[str, Any]:
    """The section *doc*'s value for every key of *table*, defaults filled in.

    A table maps each key to ``(kind, default, echo getter)``; a key without
    a getter is not echoed.  A default is written as the document would
    write it and read like it; ``REQUIRED`` has none and ``None`` leaves the
    key unset.  An undeclared key, an ill-typed value and a missing required
    key fail with the key's path.
    """
    if type(doc) is not dict:
        raise ConfigError(f"{path}: expected a section, got {doc!r}")
    prefix = f"{path}." if path else ""
    unknown = sorted(set(doc) - set(table))
    if unknown:
        raise ConfigError(f"{prefix}{unknown[0]}: unknown key")
    values = {}
    for key, (kind, default, _) in table.items():
        value = doc.get(key, default)
        if value is REQUIRED:
            raise ConfigError(f"{prefix}{key}: required field is missing")
        values[key] = None if value is None else _check(kind, value, prefix + key)
    return values


def _echo(obj: Any, table: dict[str, tuple]) -> dict:
    """The document that *table* reads back as *obj*, without unset or empty values."""
    doc = {}
    for key, (kind, _, get) in table.items():
        value = None if get is None else get(obj)
        if isinstance(kind, _Section) and value is not None:
            value = _echo(value, kind.keys)
        if value is not None and value not in ((), [], {}):
            doc[key] = value
    return doc


def _ratio(value: Any, path: str) -> tuple[int, ...]:
    """Percentages written ``90/10`` or ``[90, 10]``."""
    text = value if type(value) is str else "/".join(map(str, _check([int], value, path)))
    parts = tuple(map(int, text.split("/"))) if re.fullmatch(r"\d+(/\d+)*", text) else ()
    if sum(parts) != 100 or 0 in parts:
        raise ConfigError(f"{path}: expected positive percentages summing to 100, got {value!r}")
    return parts


def _address(value: Any, path: str) -> str:
    """A ``host:port`` that tcpnet.parse_address accepts, kept as written."""
    _at(path, parse_address, _check(str, value, path))
    return value


_POLICY_KEYS = {
    "site_id": (str, None, None),
    "clip_norm": (float, None, lambda p: p.clip_norm),
    "dp": (_Section({
        "epsilon": (float, REQUIRED, lambda d: d.epsilon),
        "delta": (float, REQUIRED, lambda d: d.delta),
    }, DpParams), None, lambda p: p.dp),
    "svt": (_Section({
        "threshold_fraction": (float, REQUIRED, lambda s: s.threshold_fraction),
        "budget_c": (int, REQUIRED, lambda s: s.budget_c),
        "epsilon": (float, REQUIRED, lambda s: s.epsilon),
    }, SvtParams), None, lambda p: p.svt),
    "masking_enabled": (bool, False, lambda p: p.masking_enabled),
}


def policy_from_doc(site_id: str, doc: dict) -> SitePolicy:
    """Build *site_id*'s SitePolicy from its parsed ``policy.<site_id>`` document."""
    path = f"policy.{site_id}"
    values = _read(doc, _POLICY_KEYS, path)
    if (named := values.pop("site_id")) not in (None, site_id):
        raise ConfigError(f"policy file names site {named!r}, expected {site_id!r}")
    return _at(path, SitePolicy, site_id, **values)


def policy_to_doc(policy: SitePolicy) -> dict:
    """Canonical document of a policy, without its site_id."""
    return _echo(policy, _POLICY_KEYS)


def _policies(value: Any, path: str) -> dict[str, SitePolicy]:
    if type(value) is not dict:
        raise ConfigError(f"{path}: expected a section, got {value!r}")
    return {site: policy_from_doc(site, doc) for site, doc in sorted(value.items())}


_EXPERIMENT_KEYS = {
    "corpus": (_Section({
        "train": (str, REQUIRED, lambda c: c.train_path),
        "test": (str, REQUIRED, lambda c: c.test_path),
    }), {}, lambda c: c),
    "rounds": (int, REQUIRED, lambda c: c.rounds),
    "clients": (int, REQUIRED, lambda c: c.clients),
    "partition": (_Section({
        "ratios": (_ratio, None, lambda c: c.ratios),
    }), {}, lambda c: c),
    "strategy": (_Section({
        "kind": (str, "fedavg", lambda s: s.kind),
        "normalize_to": (float, None, lambda s: s.normalize_to),
        "geo_tol": (float, 1e-8, lambda s: s.geo_tol),
        "geo_max_iter": (int, 200, lambda s: s.geo_max_iter),
    }, AggregationStrategy), {}, lambda c: c.strategy),
    "train": (_Section({
        "learning_rate": (float, 0.5, lambda t: t.learning_rate),
        "local_epochs": (int, 1, lambda t: t.local_epochs),
        "batch_size": (int, 32, lambda t: t.batch_size),
        "fedprox_mu": (float, 0.0, lambda t: t.fedprox_mu),
        "feature_dim": (int, 1 << 18, lambda t: t.feature_dim),
        "hash_seed": (int, 0, lambda t: t.hash_seed),
    }, TrainConfig), {}, lambda c: c.train),
    # quorum.k defaults to clients and quorum.m to k.
    "quorum": (_Section({
        "k": (int, None, lambda c: c.k),
        "m": (int, None, lambda c: c.m),
        "deadline_ms": (float, 30_000.0, lambda c: c.deadline_ms),
    }), {}, lambda c: c),
    "transport": (_Section({
        "latency_min_ms": (float, 1.0, lambda s: s.latency_ms[0]),
        "latency_max_ms": (float, 5.0, lambda s: s.latency_ms[1]),
        "drop_prob": (float, 0.0, lambda s: s.drop_prob),
    }, lambda latency_min_ms, latency_max_ms, drop_prob:
        SimNetConfig((latency_min_ms, latency_max_ms), drop_prob)), {}, lambda c: c.sim),
    "seeds": (_Section({
        "data": (int, 1, lambda s: s.data),
        "model": (int, 2, lambda s: s.model),
        "net": (int, 3, lambda s: s.net),
    }, Seeds), {}, lambda c: c.seeds),
    "experiment": (_Section({
        "kind": (str, "single", lambda c: c.experiment_kind),
        "client_counts": ([int], [], lambda c: c.client_counts),
        "ratios": ([_ratio], [], lambda c: ["/".join(map(str, r)) for r in c.sweep_ratios]),
    }), {}, lambda c: c),
    "policy": (_policies, {}, lambda c: {s: policy_to_doc(p) for s, p in c.policies.items()}),
    # Read for its policy files; the echo carries them under policy.
    "policy_dir": (str, None, None),
    "adversary": (_Section({
        "client": (str, REQUIRED, lambda a: a.client_id),
        "magnitude": (float, REQUIRED, lambda a: a.magnitude),
    }, lambda client, magnitude: Adversary(client, magnitude)), None, lambda c: c.adversary),
    "retry_on_abort": (bool, True, lambda c: c.retry_on_abort),
    "server_id": (str, "server", lambda c: c.server_id),
    "bind": (_address, "127.0.0.1:7761", lambda c: c.bind),
}


def parse_experiment(text: str, base_dir: str | Path = ".") -> ExperimentConfig:
    # Each entry of v left after the pops below is an ExperimentConfig field.
    v = _read(_parse(text, "experiment"), _EXPERIMENT_KEYS)
    base, clients = Path(base_dir), v["clients"]
    if v["rounds"] < 0 or clients < 1:
        raise ConfigError("rounds must be >= 0 and clients >= 1")

    if (ratios := v.pop("partition")["ratios"]) is not None:
        PartitionPlan("ratio", clients, seed=0, ratios=ratios)

    k, m, deadline_ms = v.pop("quorum").values()
    k = clients if k is None else k
    m = k if m is None else m
    if not (1 <= m <= k <= clients):
        raise ConfigError(f"quorum: need 1 <= m <= k <= clients, got m={m} k={k}")
    if deadline_ms <= 0:
        raise ConfigError(f"quorum.deadline_ms: must be > 0, got {deadline_ms}")

    kind, client_counts, sweep_ratios = v.pop("experiment").values()
    # Each sweep kind reads its own list, and no other kind reads it.
    lists = {"client-sweep": ("client_counts", client_counts),
             "imbalance-sweep": ("ratios", sweep_ratios)}
    if kind not in ("single", *lists):
        raise ConfigError(f"experiment.kind: unknown kind {kind!r}")
    for owner, (key, value) in lists.items():
        if (owner == kind) != bool(value):
            need = "required for" if owner == kind else "read only by"
            raise ConfigError(f"experiment.{key}: {need} experiment.kind = {owner}")

    policies: dict[str, SitePolicy] = {}
    if (policy_dir := v.pop("policy_dir")) is not None:
        pdir = base / policy_dir
        if not pdir.is_dir():
            raise ConfigError(f"policy_dir: {pdir} is not a directory")
        for path in sorted(pdir.glob("*.policy")):
            doc = _parse(path.read_text(encoding="utf-8"), str(path))
            policies[path.stem] = policy_from_doc(path.stem, doc)
    policies.update(v.pop("policy"))

    train_path, test_path = (str(base / p) for p in v.pop("corpus").values())
    return ExperimentConfig(
        train_path=train_path,
        test_path=test_path,
        ratios=ratios or (),
        k=k,
        m=m,
        deadline_ms=deadline_ms,
        sim=replace(v.pop("transport"), seed=v["seeds"].net),
        experiment_kind=kind,
        client_counts=client_counts,
        sweep_ratios=sweep_ratios,
        policies=policies,
        **v,
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
    return _echo(config, _EXPERIMENT_KEYS)


_ROSTER_KEYS = {
    "sites": ([str], REQUIRED, None),
    "server": (str, "server", None),
    "address": (_address, "127.0.0.1:7761", None),
}


def load_roster(path: str | Path) -> tuple[tuple[str, ...], str, str]:
    """A provisioning roster's (site ids, server id, server address)."""
    doc = _parse(Path(path).read_text(encoding="utf-8"), str(path))
    sites, server_id, address = _read(doc, _ROSTER_KEYS).values()
    if not sites:
        raise ConfigError("sites: needs at least one site")
    return sites, server_id, address


def with_seeds(config: ExperimentConfig, data=None, model=None, net=None) -> ExperimentConfig:
    seeds = Seeds(
        data=data if data is not None else config.seeds.data,
        model=model if model is not None else config.seeds.model,
        net=net if net is not None else config.seeds.net,
    )
    sim = replace(config.sim, seed=seeds.net)
    return replace(config, seeds=seeds, sim=sim)
