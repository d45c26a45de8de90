"""Command-line entry point.

Subcommands: provision, serve, client, simulate, partition, report,
audit-verify, gen-corpus.  Exit codes: 0 success, 1 validation or
verification failure, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from . import kvdoc, report as report_mod
from .config import ExperimentConfig, load_experiment, with_seeds
from .data import TaggedCorpus, corpus_stats, load_conll, partition, save_conll, synthetic_corpus
from .errors import ConfigError
from .experiments import render_text_report, run_simulation, vet_config
from .runner import ClientNode, FederationSpec, RoundFailedError, ServerNode
from .tcpnet import TcpNode, parse_address
from .transport import ReliableEndpoint
from .trustops import (
    AuditLog,
    UnsafeComponentError,
    audit_verify,
    canonical_param_bytes,
    load_audit_log,
    load_kit,
    provision,
    write_kits,
)

log = logging.getLogger("fedmesh")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


def _add_seed_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed-data", type=int, default=None)
    parser.add_argument("--seed-model", type=int, default=None)
    parser.add_argument("--seed-net", type=int, default=None)


def _load_config(args) -> ExperimentConfig:
    config = load_experiment(args.config)
    return with_seeds(config, args.seed_data, args.seed_model, args.seed_net)


def cmd_provision(args) -> int:
    doc = kvdoc.parse_doc(Path(args.roster).read_text(encoding="utf-8"))
    sites = [str(s) for s in doc.get("sites", [])]
    server_id = str(doc.get("server", "server"))
    address = str(doc.get("address", "127.0.0.1:7761"))
    if not sites:
        raise ConfigError("roster: 'sites' list is required")
    kits = provision(
        [(server_id, "server")] + [(site, "client") for site in sites],
        server_address=address,
        key_seed=args.key_seed,
    )
    write_kits(kits, args.out)
    print(f"wrote {len(kits)} kits under {Path(args.out) / 'kits'}")
    return EXIT_OK


def cmd_gen_corpus(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    splits = [
        ("train", args.train_sentences, args.seed),
        ("test", args.test_sentences, args.seed + 1),
        ("dev", args.dev_sentences, args.seed + 2),
    ]
    for name, count, seed in splits:
        if count <= 0:
            continue
        corpus = synthetic_corpus(count, seed=seed)
        save_conll(corpus, out / f"{name}.conll")
        stats = corpus_stats(corpus)
        stats_lines = [f"{key}={value}" for key, value in sorted(stats.items())]
        (out / f"{name}.stats").write_text("\n".join(stats_lines) + "\n", encoding="utf-8")
        print(f"{name}.conll: {stats['sentences']} sentences, "
              f"{stats['tokens']} tokens, {stats['entities']} entities")
    return EXIT_OK


def _vet_or_audit(config: ExperimentConfig, out_dir: Path) -> None:
    """Component check; a rejection is recorded before the process exits 1."""
    try:
        vet_config(config)
    except UnsafeComponentError as exc:
        out_dir.mkdir(parents=True, exist_ok=True)
        audit = AuditLog(path=out_dir / "audit-rejected.log")
        audit.append("ComponentRejected", kvdoc.emit_doc(
            {"component": exc.component, "reason": exc.reason}
        ))
        raise


def cmd_simulate(args) -> int:
    config = _load_config(args)
    out_dir = Path(args.out)
    _vet_or_audit(config, out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    output = run_simulation(config, audit_dir=out_dir)
    rows_path, txt_path = report_mod.write_report(
        out_dir, output.all_rows(), render_text_report(config, output)
    )
    for label, result in output.results.items():
        safe = label.replace("/", "-")
        (out_dir / f"model-{safe}.params").write_bytes(
            canonical_param_bytes(result.final_params)
        )
        if result.model_signature is not None:
            (out_dir / f"model-{safe}.sig").write_text(result.model_signature.hex() + "\n")
    print(f"wrote {rows_path} and {txt_path}")
    return EXIT_OK


def cmd_partition(args) -> int:
    config = _load_config(args)
    corpus = load_conll(config.train_path)
    plan = config.plan()
    shards = partition(corpus, plan)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = [f"mode={plan.mode}", f"n_clients={plan.n_clients}", f"seed={plan.seed}"]
    if plan.ratios:
        lines.append("ratios=" + "/".join(map(str, plan.ratios)))
    for site, shard in zip(config.site_ids(), shards):
        path = out / f"shard-{site}.conll"
        save_conll(TaggedCorpus(shard), path)
        stats = corpus_stats(TaggedCorpus(shard))
        lines.append(
            f"shard.{site}.sentences={stats['sentences']} "
            f"shard.{site}.tokens={stats['tokens']} "
            f"shard.{site}.entities={stats['entities']}"
        )
    (out / "partition.summary").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(shards)} shards under {out}")
    return EXIT_OK


def cmd_report(args) -> int:
    rows = report_mod.parse_rows(Path(args.rows).read_text(encoding="utf-8"))
    config_rows = [r for r in rows if r.get("row") == "config"]
    cross_rows = [r for r in rows if r.get("row") == "cross-site"]
    round_rows = [r for r in rows if r.get("row") == "round"]
    sections = ["federated NER report (re-rendered from rows)", ""]
    if config_rows:
        sections += ["== per-configuration metrics ==",
                     report_mod.metrics_table(config_rows, "config"), ""]
    if cross_rows:
        sections += ["== cross-site validation ==",
                     report_mod.cross_site_table(cross_rows), ""]
    if round_rows:
        sections += ["== rounds ==", report_mod.round_table(round_rows), ""]
    text = "\n".join(sections)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.txt").write_text(text, encoding="utf-8")
    print(text)
    return EXIT_OK


def cmd_audit_verify(args) -> int:
    entries = load_audit_log(args.log)
    bad = audit_verify(entries)
    if bad is None:
        print(f"ok: {len(entries)} entries, chain intact")
        return EXIT_OK
    print(f"TAMPERED: first bad seq = {bad}")
    return EXIT_VALIDATION


def _tcp_spec_for_server(config: ExperimentConfig, kit) -> FederationSpec:
    client_ids = [i.site_id for i in kit.roster if i.role == "client"]
    return FederationSpec(
        shards={cid: [] for cid in client_ids},
        train=config.train,
        strategy=config.strategy,
        rounds=config.rounds,
        k=min(config.k, len(client_ids)),
        m=min(config.m, min(config.k, len(client_ids))),
        deadline_ms=config.deadline_ms,
        kits={kit.site_id: kit},
        server_id=kit.site_id,
        seeds=config.seeds,
        policies=config.policies,
        retry_on_abort=config.retry_on_abort,
    )


def cmd_serve(args) -> int:
    config = _load_config(args)
    kit = load_kit(args.kit)
    out = Path(args.out)
    _vet_or_audit(config, out)
    out.mkdir(parents=True, exist_ok=True)
    bind_text = os.environ.get("FEDMESH_BIND", config.bind)
    node = TcpNode(kit.site_id, bind=parse_address(bind_text))
    log.info("serving on %s (port %d)", bind_text, node.port)
    if args.port_file:
        Path(args.port_file).write_text(str(node.port))
    try:
        rel = ReliableEndpoint(node, backoff_base_ms=args.backoff_ms)
        audit = AuditLog(path=out / "audit.log")
        spec = _tcp_spec_for_server(config, kit)
        server = ServerNode(rel, kit, spec, audit)
        if not node.run_until(lambda: server.done, timeout_s=args.timeout):
            log.error("federation did not finish before timeout")
            return EXIT_RUNTIME
        if server.failed:
            log.error("federation failed: round aborted with no retry left")
            return EXIT_RUNTIME
        (out / "model.params").write_bytes(canonical_param_bytes(server.global_params))
        (out / "model.sig").write_text(server.model_signature.hex() + "\n")
        for rec in server.state.history:
            print(f"round {rec.round}: responded={len(rec.responded)} "
                  f"late={len(rec.late_discarded)} norm={rec.aggregate_norm:.6f}")
        return EXIT_OK
    finally:
        node.close()


def cmd_client(args) -> int:
    config = _load_config(args)
    kit = load_kit(args.kit)
    shard = load_conll(args.shard).sentences
    holdout = load_conll(args.holdout).sentences if args.holdout else []
    server_ident = next(i for i in kit.roster if i.role == "server")
    address = args.server or os.environ.get("FEDMESH_BIND", kit.server_address)
    node = TcpNode(
        kit.site_id,
        server_addr=parse_address(address),
        server_id=server_ident.site_id,
    )
    try:
        rel = ReliableEndpoint(node, backoff_base_ms=args.backoff_ms)
        spec = FederationSpec(
            shards={kit.site_id: shard},
            train=config.train,
            strategy=config.strategy,
            rounds=config.rounds,
            k=1,
            m=1,
            deadline_ms=config.deadline_ms,
            kits={kit.site_id: kit},
            server_id=server_ident.site_id,
            seeds=config.seeds,
            policies=config.policies,
            adversary=config.adversary,
        )
        client = ClientNode(rel, kit, shard, spec, holdout)
        client.register()
        if not node.run_until(lambda: client.done, timeout_s=args.timeout):
            log.error("client timed out waiting for federation to finish")
            return EXIT_RUNTIME
        return EXIT_OK
    finally:
        node.close()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedmesh",
        description="federated NER training with a deterministic simulator",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("provision", help="generate per-site startup kits")
    p.add_argument("--roster", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--key-seed", type=int, default=None)
    p.set_defaults(fn=cmd_provision)

    p = sub.add_parser("gen-corpus", help="write the bundled synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--train-sentences", type=int, default=5000)
    p.add_argument("--test-sentences", type=int, default=1500)
    p.add_argument("--dev-sentences", type=int, default=500)
    p.add_argument("--seed", type=int, default=11)
    p.set_defaults(fn=cmd_gen_corpus)

    p = sub.add_parser("simulate", help="run the experiment matrix in-process")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    _add_seed_flags(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("partition", help="split a corpus into client shards")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    _add_seed_flags(p)
    p.set_defaults(fn=cmd_partition)

    p = sub.add_parser("report", help="re-render report.txt from report.rows")
    p.add_argument("--rows", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("audit-verify", help="verify an audit log's hash chain")
    p.add_argument("--log", required=True)
    p.set_defaults(fn=cmd_audit_verify)

    p = sub.add_parser("serve", help="run the coordinator over TCP")
    p.add_argument("--kit", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--timeout", type=float, default=600.0)
    p.add_argument("--backoff-ms", type=float, default=200.0)
    p.add_argument("--port-file", default=None,
                   help="write the bound port here (for ephemeral ports)")
    _add_seed_flags(p)
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("client", help="run one site over TCP")
    p.add_argument("--kit", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--shard", required=True)
    p.add_argument("--holdout", default=None)
    p.add_argument("--server", default=None, help="override the kit's server address")
    p.add_argument("--timeout", type=float, default=600.0)
    p.add_argument("--backoff-ms", type=float, default=200.0)
    _add_seed_flags(p)
    p.set_defaults(fn=cmd_client)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    try:
        return args.fn(args)
    except (ConfigError, UnsafeComponentError, kvdoc.DocError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except RoundFailedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
