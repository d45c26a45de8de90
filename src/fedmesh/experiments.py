"""Experiment matrices: run federations per configuration and build reports.

The two shipped sweeps mirror the headline questions: does global-model
quality survive (i) changing the number of clients and (ii) skewing how much
data each client holds.  Every simulated run is paired with a centralized
baseline trained on the pooled corpus under the budget-parity rule
(rounds x local_epochs epochs, same optimizer settings and seeds).
"""

from __future__ import annotations

import time
from pathlib import Path

from . import report as report_mod
from .config import ExperimentConfig, experiment_to_doc
from .data import TaggedCorpus, load_conll, partition
from .errors import ConfigError
from .kvdoc import emit_doc
from .model import encode_sentences, evaluate
from .runner import (
    FederationResult,
    FederationSpec,
    run_centralized,
    run_federation,
)
from .seeding import derive_seed
from .trustops import StartupKit, provision


def vet_config(config: ExperimentConfig, sites: list[str]) -> None:
    """Refuse, before any round, a policy or an adversary naming none of *sites*
    (every site of every run)."""
    stray = [f"policy.{site}" for site in sorted(set(config.policies) - set(sites))]
    if config.adversary is not None and config.adversary.client_id not in sites:
        stray.append("adversary.client")
    if stray:
        raise ConfigError(f"{stray[0]}: names no site of any run ({', '.join(sites)})")


def federation_spec(config: ExperimentConfig, shards: dict[str, list], holdouts: dict[str, list],
                    kits: dict[str, StartupKit], server_id: str) -> FederationSpec:
    """One run of *config* over the sites keying *shards*: the simulator and
    every TCP node build their spec here, so they agree on k, m and policies."""
    n = len(shards)
    # A run keeps full participation unless the config explicitly carved out
    # over-participation slack (k < clients or m < k).
    k = n if config.k == config.clients else min(config.k, n)
    m = k if config.m == config.k else min(config.m, k)
    return FederationSpec(
        shards=shards,
        train=config.train,
        strategy=config.strategy,
        rounds=config.rounds,
        k=k,
        m=m,
        deadline_ms=config.deadline_ms,
        kits=kits,
        server_id=server_id,
        seeds=config.seeds,
        policies={cid: p for cid, p in config.policies.items() if cid in shards},
        holdouts=holdouts,
        adversary=config.adversary,
        retry_on_abort=config.retry_on_abort,
    )


def build_spec(
    config: ExperimentConfig,
    train_corpus: TaggedCorpus,
    test_corpus: TaggedCorpus,
    n_clients: int | None = None,
    ratios: tuple[int, ...] | None = None,
) -> FederationSpec:
    """Materialize one simulated run: shards, holdouts, kits, spec."""
    n = n_clients if n_clients is not None else config.clients
    plan = config.plan(n, ratios)
    ids = config.site_ids(n)
    kits = provision(
        [(config.server_id, "server")] + [(cid, "client") for cid in ids],
        server_address=config.bind,
        key_seed=derive_seed(config.seeds.net, "provision"),
    )
    return federation_spec(
        config,
        dict(zip(ids, partition(train_corpus, plan))),
        dict(zip(ids, partition(test_corpus, plan))),
        kits,
        config.server_id,
    )


class SimulationOutput:
    def __init__(self):
        self.config_rows: list[report_mod.Row] = []
        self.cross_rows: list[report_mod.Row] = []
        self.round_rows: list[report_mod.Row] = []
        self.results: dict[str, FederationResult] = {}
        self.wall_seconds: float = 0.0
        self.config_echo: str = ""

    def all_rows(self) -> list[report_mod.Row]:
        rows = [dict(r, row="config") for r in self.config_rows]
        rows += [dict(r, row="cross-site") for r in self.cross_rows]
        rows += [dict(r, row="round") for r in self.round_rows]
        return rows


def _cell(n: int, ratios: tuple[int, ...] | None) -> tuple[str, int, tuple[int, ...] | None]:
    """A cell's label is a bare report.rows scalar: ``70/30`` or ``n4``. A
    one-site ratio is ``n1``, since ``100`` would read back as a number."""
    label = "/".join(map(str, ratios)) if ratios and len(ratios) > 1 else f"n{n}"
    return label, n, ratios


def _sweep_cells(config: ExperimentConfig) -> list[tuple[str, int, tuple[int, ...] | None]]:
    if config.experiment_kind == "client-sweep":
        return [_cell(n, None) for n in config.client_counts]
    if config.experiment_kind == "imbalance-sweep":
        # A ratio list fixes its own client count (the paper's two-way
        # splits imply 2 clients; longer lists scale accordingly).
        return [_cell(len(ratios), ratios) for ratios in config.sweep_ratios]
    return [_cell(config.clients, config.ratios or None)]


def run_simulation(
    config: ExperimentConfig,
    audit_dir: str | Path | None = None,
) -> SimulationOutput:
    """Run the configured experiment matrix plus the centralized baseline, once the
    config is vetted against its largest cell's sites and every cell's spec is valid."""
    cells = _sweep_cells(config)
    vet_config(config, config.site_ids(max(n for _, n, _ in cells)))
    out = SimulationOutput()
    started = time.monotonic()
    train_corpus = load_conll(config.train_path)
    test_corpus = load_conll(config.test_path)
    specs = [build_spec(config, train_corpus, test_corpus, n, ratios) for _, n, ratios in cells]
    for spec in specs:
        spec.validate()

    seed_fields = {
        "seed_data": config.seeds.data,
        "seed_model": config.seeds.model,
        "seed_net": config.seeds.net,
    }

    # One encoding of the test split serves every cell and the baseline.
    test_batch = encode_sentences(
        test_corpus.sentences, config.train.feature_dim, config.train.hash_seed
    )
    for (label, _, _), spec in zip(cells, specs):
        audit_path = None
        if audit_dir is not None:
            audit_path = Path(audit_dir) / f"audit-{label.replace('/', '-')}.log"
        result = run_federation(spec, config.sim, audit_path=audit_path)
        out.results[label] = result
        entity, token = evaluate(result.final_params, test_batch, config.train)
        out.config_rows.append({
            "config": label,
            "kind": config.experiment_kind,
            "n_clients": len(spec.shards),
            "rounds": config.rounds,
            "strategy": config.strategy.kind,
            **entity.fields("ent"),
            **token.fields("tok"),
            **seed_fields,
        })
        for site, pair in result.cross_site.items():
            scores = {"absent": True} if pair is None else {
                "absent": False, **pair[0].fields("ent"), **pair[1].fields("tok")
            }
            out.cross_rows.append({"config": label, "site": site, **scores, **seed_fields})
        for rec in result.history:
            out.round_rows.append({
                "config": label,
                "round": rec.round,
                "responded": len(rec.responded),
                "late": len(rec.late_discarded),
                "attempts": rec.attempts,
                "aggregate_norm": rec.aggregate_norm,
                "duration_ms": rec.duration_ms,
                **seed_fields,
            })

    central = run_centralized(
        train_corpus.sentences, config.train, config.rounds, config.seeds
    )
    entity, token = evaluate(central, test_batch, config.train)
    out.config_rows.append({
        "config": "centralized",
        "kind": "baseline",
        "n_clients": 1,
        "rounds": config.rounds,
        "strategy": "pooled-sgd",
        **entity.fields("ent"),
        **token.fields("tok"),
        **seed_fields,
    })

    out.wall_seconds = time.monotonic() - started
    out.config_echo = emit_doc(experiment_to_doc(config))
    return out
