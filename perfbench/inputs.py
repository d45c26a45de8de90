"""Seeded input generator for the fedmesh benchmark workloads.

Each workload is a set of files made from the workload seed alone: a
synthetic train/test corpus (``fedmesh.data.synthetic_corpus``), an
experiment config, for TCP a roster, and ``manifest.json``, which records
what the benchmark expects of a correct run (rounds and quorum per cell) and
the nominal local-SGD token count.  The program under test only ever
receives the corpus, config and roster files.

Usage (from the repository root):

    PYTHONPATH=src python3 perfbench/inputs.py --workload sweep-quickstart --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    transport: str  # "sim" or "tcp"
    train_sentences: int
    test_sentences: int
    rounds: int
    config_body: str  # experiment keys beyond corpus, rounds and seeds
    cells: tuple[tuple[str, int], ...]  # (sweep cell label, quorum m)
    centralized: bool  # the run includes the pooled-SGD baseline


# Sizes are the README quick start and the robust/TCP prototypes scaled so
# that one run of a workload takes a few seconds on a 2-core machine, which
# lets one benchmark invocation repeat it several times and report medians.
# The robust workload keeps its full corpus and instead runs two long runs
# of 12 rounds each: its per-round cost is the Weiszfeld aggregation of 8
# dense 786k-vectors, whose iteration count and retransmits vary from round
# to round, so the median round needs many distinct rounds per seed.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-quickstart",
            why=(
                "README quick start (client sweep 2/4/6, fedavg, simulator): featurization,"
                " local SGD and the dense wire path do the work; the no-change case for"
                " aggregation."
            ),
            transport="sim",
            train_sentences=600,
            test_sentences=200,
            rounds=3,
            config_body=(
                "clients = 6\n"
                "experiment.kind = client-sweep\n"
                "experiment.client_counts = [2, 4, 6]\n"
            ),
            cells=(("n2", 2), ("n4", 4), ("n6", 6)),
            centralized=True,
        ),
        Workload(
            name="robust-dp-lossy",
            why=(
                "8 sites, geo-median, one Byzantine site, clipping, 2 DP sites and 5% frame"
                " loss: Weiszfeld aggregation, DP noise, retransmits and simnet events do the"
                " work."
            ),
            transport="sim",
            train_sentences=1600,
            test_sentences=400,
            rounds=12,
            config_body=(
                "clients = 8\n"
                "strategy.kind = geo-median\n"
                'adversary.client = "site-8"\n'
                "adversary.magnitude = 1000.0\n"
                "transport.drop_prob = 0.05\n"
                "transport.latency_min_ms = 1.0\n"
                "transport.latency_max_ms = 20.0\n"
                + "".join(f"policy.site-{i}.clip_norm = 5.0\n" for i in range(1, 8))
                + "".join(
                    f"policy.site-{i}.dp.epsilon = 8.0\npolicy.site-{i}.dp.delta = 0.00001\n"
                    for i in (1, 2)
                )
            ),
            cells=(("n8", 8),),
            centralized=True,
        ),
        Workload(
            name="tcp-secure",
            why=(
                "Coordinator and two masked, clipped sites over loopback TCP: the only"
                " workload that runs tcpnet, pairwise masking and sparse-task/dense-u64"
                " wire traffic."
            ),
            transport="tcp",
            train_sentences=3000,
            test_sentences=900,
            rounds=10,
            config_body=(
                "clients = 2\n"
                'bind = "127.0.0.1:0"\n'
                + "".join(
                    f"policy.site-{i}.clip_norm = 5.0\npolicy.site-{i}.masking_enabled = true\n"
                    for i in (1, 2)
                )
            ),
            cells=(("tcp", 2),),
            centralized=False,
        ),
    )
}


def generate(name: str, seed: int, out: Path) -> dict:
    """Write the workload's input files under *out*; return the manifest."""
    from fedmesh.data import save_conll, synthetic_corpus

    workload = WORKLOADS[name]
    # String seeding hashes with SHA-512, so draws repeat across processes.
    rng = random.Random(f"{name}/{seed}")
    train_seed, test_seed, data, model, net, key_seed = (
        rng.randrange(1, 2**31) for _ in range(6))
    seeds = {"data": data, "model": model, "net": net}

    out.mkdir(parents=True, exist_ok=True)
    train = synthetic_corpus(workload.train_sentences, seed=train_seed)
    save_conll(train, out / "train.conll")
    save_conll(synthetic_corpus(workload.test_sentences, seed=test_seed), out / "test.conll")
    config = (
        'corpus.train = "train.conll"\n'
        'corpus.test = "test.conll"\n'
        f"rounds = {workload.rounds}\n"
        + "".join(f"seeds.{k} = {v}\n" for k, v in seeds.items())
        + workload.config_body
    )
    (out / "experiment.cfg").write_text(config, encoding="utf-8")
    if workload.transport == "tcp":
        (out / "roster.cfg").write_text(
            'sites = [site-1, site-2]\nserver = server\naddress = "127.0.0.1:0"\n',
            encoding="utf-8",
        )

    # Every site runs local_epochs (default 1) over its shard each round; the
    # shards of a cell cover the train split, and the baseline adds one more
    # pass per round over the pooled split.
    train_tokens = sum(len(s) for s in train.sentences)
    passes = len(workload.cells) + (1 if workload.centralized else 0)
    manifest = {
        "workload": name,
        "seed": seed,
        "transport": workload.transport,
        "rounds": workload.rounds,
        "cells": [{"label": label, "m": m} for label, m in workload.cells],
        "key_seed": key_seed,
        "sgd_tokens": train_tokens * workload.rounds * passes,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return manifest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    manifest = generate(args.workload, args.seed, Path(args.out))
    print(json.dumps(manifest))
    return 0


if __name__ == "__main__":
    sys.exit(main())
