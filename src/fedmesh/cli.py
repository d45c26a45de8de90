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
from .config import ExperimentConfig, load_experiment, load_roster, with_seeds
from .data import TaggedCorpus, corpus_stats, load_conll, partition, save_conll, synthetic_corpus
from .errors import ConfigError
from .experiments import federation_spec, run_simulation, vet_config
from .runner import ClientNode, FederationSpec, RoundFailedError, ServerNode
from .tcpnet import TcpNode, parse_address
from .transport import ReliableEndpoint
from .trustops import (
    AuditLog,
    audit_verify,
    load_audit_log,
    load_kit,
    provision,
    write_kits,
    write_params,
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
    sites, server_id, address = load_roster(args.roster)
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


def cmd_simulate(args) -> int:
    config = _load_config(args)
    out_dir = Path(args.out)
    output = run_simulation(config, audit_dir=out_dir)
    rows = output.all_rows()
    text = report_mod.render_text(rows) + (
        f"\nwall-clock runtime: {output.wall_seconds:.1f}s\n\n"
        f"== config echo ==\n{output.config_echo}"
    )
    rows_path, txt_path = report_mod.write_report(out_dir, rows, text)
    for label, result in output.results.items():
        safe = label.replace("/", "-")
        write_params(out_dir / f"model-{safe}.params", result.final_params)
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
    text = report_mod.render_text(rows)
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


def _tcp_spec(config: ExperimentConfig, kit, shard=None, holdout=None) -> FederationSpec:
    """One TCP node's view of the federation; the kit's roster names the sites.

    Only a client passes its *shard* and *holdout*; every other shard is
    empty here, and no other site has a holdout.
    """
    shards = {i.site_id: shard if i.site_id == kit.site_id else []
              for i in kit.roster if i.role == "client"}
    holdouts = {kit.site_id: holdout} if holdout else {}
    server_id = next(i.site_id for i in kit.roster if i.role == "server")
    return federation_spec(config, shards, holdouts, {kit.site_id: kit}, server_id)


def cmd_serve(args) -> int:
    config = _load_config(args)
    kit = load_kit(args.kit)
    out = Path(args.out)
    spec = _tcp_spec(config, kit)
    vet_config(config, list(spec.shards))
    spec.validate()  # before the port is bound or named in --port-file
    out.mkdir(parents=True, exist_ok=True)
    node = TcpNode(kit.site_id, bind=parse_address(config.bind))
    log.info("serving on %s (port %d)", config.bind, node.port)
    if args.port_file:
        # Replace, not write in place, so a reader never sees an empty file.
        staged = Path(args.port_file + ".tmp")
        staged.write_text(str(node.port))
        os.replace(staged, args.port_file)
    try:
        rel = ReliableEndpoint(node, backoff_base_ms=args.backoff_ms)
        audit = AuditLog(path=out / "audit.log")
        server = ServerNode(rel, kit, spec, audit)
        if not node.run_until(lambda: server.done, timeout_s=args.timeout):
            log.error("federation did not finish before timeout")
            return EXIT_RUNTIME
        if server.state.failed:
            log.error("federation failed: round aborted with no retry left")
            return EXIT_RUNTIME
        write_params(out / "model.params", server.global_params)
        (out / "model.sig").write_text(server.model_signature.hex() + "\n")
        for rec in server.state.history:
            print(f"round {rec.round}: responded={len(rec.responded)} "
                  f"late={len(rec.late_discarded)} norm={rec.aggregate_norm:.6f}")
        for site in sorted(server.expected):
            pair = server.eval_reports.get(site)
            print(f"site {site}: absent" if pair is None else
                  f"site {site}: entity-f1={pair[0].f1:.4f} token-f1={pair[1].f1:.4f}")
        return EXIT_OK
    finally:
        node.close()


def cmd_client(args) -> int:
    config = _load_config(args)
    kit = load_kit(args.kit)
    shard = load_conll(args.shard).sentences
    holdout = load_conll(args.holdout).sentences if args.holdout else []
    spec = _tcp_spec(config, kit, shard, holdout)
    vet_config(config, list(spec.shards))
    spec.validate()  # before the server is dialed
    address = args.server or kit.server_address
    node = TcpNode(kit.site_id, server_addr=parse_address(address), server_id=spec.server_id)
    try:
        rel = ReliableEndpoint(node, backoff_base_ms=args.backoff_ms)
        node.on_connect = rel.resend  # a Register sent before the server listened
        client = ClientNode(rel, kit, spec)
        node.schedule(0.0, client.register)
        if not node.run_until(lambda: client.done, timeout_s=args.timeout):
            log.error("client timed out waiting for federation to finish")
            return EXIT_RUNTIME
        return EXIT_OK if client.abort_reason is None else EXIT_RUNTIME
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
    except (ConfigError, kvdoc.DocError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if args.command in ("simulate", "serve"):  # the commands that keep audit logs
            try:
                AuditLog(path=Path(args.out) / "audit-rejected.log").append(
                    "ConfigRejected", kvdoc.emit_doc({"reason": str(exc)}))
            except OSError as audit_exc:
                print(f"error: the refusal was not audited: {audit_exc}", file=sys.stderr)
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
