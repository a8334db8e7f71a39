"""Command line entry point.

Subcommands: train, keyrel, export-services, serve, eval-lp, eval-rel,
recsys. Every subcommand accepts --config pointing at a JSON file whose
keys mirror the flag names (dashes or underscores); explicit flags
override config values, which override built-in defaults. All reports
are JSON with a top-level schema_version.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

from . import downstream, evaluation, keyrel, kgstore, model, servicing, trainer

SCHEMA_VERSION = 1

_REQUIRED = object()


def _merge_settings(args, spec: dict) -> dict:
    """Resolve each setting as flag > config file > default."""
    file_values = {}
    if getattr(args, "config", None):
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(raw, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
        file_values = {key.replace("-", "_"): val for key, val in raw.items()}
        unknown = sorted(set(file_values) - set(spec))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    resolved = {}
    for key, default in spec.items():
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            resolved[key] = flag_val
        elif key in file_values:
            resolved[key] = file_values[key]
        elif default is _REQUIRED:
            raise ValueError(f"missing required --{key.replace('_', '-')}")
        else:
            resolved[key] = default
    return resolved


def _write_report(path, payload: dict) -> None:
    body = {"schema_version": SCHEMA_VERSION}
    body.update(payload)
    Path(path).write_text(json.dumps(body, indent=2) + "\n", encoding="utf-8")


def _map_token(vocab: kgstore.Vocab, token: str, kind: str) -> int:
    if token not in vocab:
        raise ValueError(f"unknown {kind} token {token!r}")
    return vocab.id(token)


def cmd_train(args) -> int:
    settings = _merge_settings(args, {
        "triples": _REQUIRED, "out": _REQUIRED, "dim": 64, "margin": 1.0,
        "lr": 1e-4, "batch": 1000, "epochs": 2, "neg": 1, "min_rel_count": 1,
        "seed": 0, "category_relation": "isA", "corrupt_relation_prob": 1.0 / 3.0,
    })
    store = kgstore.load_triples(settings["triples"], settings["category_relation"])
    if int(settings["min_rel_count"]) > 1:
        store = kgstore.filter_rare_relations(store, int(settings["min_rel_count"]))
    config = trainer.TrainConfig(
        dim=int(settings["dim"]),
        margin=float(settings["margin"]),
        learning_rate=float(settings["lr"]),
        batch_size=int(settings["batch"]),
        epochs=int(settings["epochs"]),
        negatives_per_positive=int(settings["neg"]),
        corrupt_relation_prob=float(settings["corrupt_relation_prob"]),
        seed=int(settings["seed"]),
        min_rel_count=int(settings["min_rel_count"]),
    )
    params, report = trainer.train(store, config)
    out_dir = Path(settings["out"])
    model.save_checkpoint(out_dir, params, store.entities, store.relations)
    report.checkpoint_path = str(out_dir)
    _write_report(out_dir / "train_report.json", report.as_dict())
    print(f"checkpoint written to {out_dir}")
    return 0


def cmd_keyrel(args) -> int:
    settings = _merge_settings(args, {
        "triples": _REQUIRED, "out": _REQUIRED, "k": 10, "category_relation": "isA",
    })
    store = kgstore.load_triples(settings["triples"], settings["category_relation"])
    table = keyrel.select_key_relations(store, int(settings["k"]))
    keyrel.write_keyrel_tsv(settings["out"], table, store.entities, store.relations)
    print(f"key relations for {len(table.rows)} entities written to {settings['out']}")
    return 0


def cmd_export_services(args) -> int:
    settings = _merge_settings(args, {
        "checkpoint": _REQUIRED, "keyrel": _REQUIRED, "variant": _REQUIRED,
        "out": _REQUIRED,
    })
    params, entity_vocab, relation_vocab = model.load_checkpoint(settings["checkpoint"])
    table = keyrel.read_keyrel_tsv(settings["keyrel"], entity_vocab, relation_vocab)
    bundle = servicing.build_bundle(params, table, settings["variant"])
    servicing.write_services(settings["out"], bundle)
    print(f"{len(bundle.ids)} service records written to {settings['out']}")
    return 0


def cmd_eval_lp(args) -> int:
    settings = _merge_settings(args, {
        "checkpoint": _REQUIRED, "test": _REQUIRED, "report": _REQUIRED,
        "triples": None,
    })
    params, entity_vocab, relation_vocab = model.load_checkpoint(settings["checkpoint"])

    def triple_ids(fields):
        h, r, t = fields
        return (_map_token(entity_vocab, h, "entity"),
                _map_token(relation_vocab, r, "relation"),
                _map_token(entity_vocab, t, "entity"))

    test = kgstore.read_tsv(settings["test"], 3, triple_ids)
    known = kgstore.read_tsv(settings["triples"], 3, triple_ids) if settings["triples"] else []
    store = kgstore.TripleStore(
        entities=entity_vocab,
        relations=relation_vocab,
        triples=known,
        category_of={},
        relation_counts={},  # link prediction reads only the triples
    )
    report = evaluation.link_prediction(params, store, test)
    _write_report(settings["report"], report.as_dict())
    print(f"link prediction report written to {settings['report']}")
    return 0


def cmd_eval_rel(args) -> int:
    settings = _merge_settings(args, {
        "checkpoint": _REQUIRED, "pairs": _REQUIRED, "report": _REQUIRED,
    })
    params, entity_vocab, relation_vocab = model.load_checkpoint(settings["checkpoint"])

    def labeled_pair(fields):
        h, r, label = fields
        if label not in ("0", "1"):
            raise ValueError(f"label must be 0 or 1, got {label!r}")
        return (_map_token(entity_vocab, h, "entity"),
                _map_token(relation_vocab, r, "relation"), label == "1")

    pairs = kgstore.read_tsv(settings["pairs"], 3, labeled_pair)
    report = evaluation.existence_prediction(params, None, pairs)
    _write_report(settings["report"], report.as_dict())
    print(f"existence prediction report written to {settings['report']}")
    return 0


def cmd_recsys(args) -> int:
    settings = _merge_settings(args, {
        "interactions": _REQUIRED, "services": _REQUIRED, "report": _REQUIRED,
        "checkpoint": None, "epochs": 100, "batch": 256, "neg": 4, "lr": 1e-4,
        "seed": 0,
    })
    data = downstream.load_interactions(settings["interactions"])
    service_table = None
    if settings["services"] != "none":
        if not settings["checkpoint"]:
            raise ValueError("--checkpoint is required when --services is a file "
                             "(it supplies the entity vocabulary)")
        bundle = servicing.read_services(settings["services"])
        _, entity_vocab, _ = model.load_checkpoint(settings["checkpoint"])
        service_table = downstream.service_table_for_items(data, bundle, entity_vocab)
    config = downstream.RecConfig(
        learning_rate=float(settings["lr"]),
        epochs=int(settings["epochs"]),
        batch_size=int(settings["batch"]),
        neg_ratio=int(settings["neg"]),
        seed=int(settings["seed"]),
    )
    train_rows, _ = downstream.leave_one_out_split(data)
    train_data = downstream.InteractionSet(data.users, data.items, train_rows)
    rec = downstream.train_recommender(train_data, service_table, config)
    report = downstream.evaluate_leave_one_out(rec, data, seed=int(settings["seed"]))
    payload = report.as_dict()
    payload["train_losses"] = rec.train_losses
    _write_report(settings["report"], payload)
    print(f"recommendation report written to {settings['report']}")
    return 0


def cmd_serve(args) -> int:
    settings = _merge_settings(args, {
        "checkpoint": _REQUIRED, "keyrel": _REQUIRED, "host": "127.0.0.1",
        "port": 7464,
    })
    params, entity_vocab, relation_vocab = model.load_checkpoint(settings["checkpoint"])
    table = keyrel.read_keyrel_tsv(settings["keyrel"], entity_vocab, relation_vocab)
    service = servicing.QueryService(params, table, entity_vocab, relation_vocab)

    async def run() -> None:
        server = await servicing.serve(service, host=settings["host"],
                                       port=int(settings["port"]))
        addr = server.sockets[0].getsockname()
        print(f"serving on {addr[0]}:{addr[1]}")
        async with server:
            await server.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pkgm",
        description="Knowledge graph pre-training and knowledge serving toolkit.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.set_defaults(func=func)
        return p

    p = add("train", cmd_train, "train embeddings on a triple file")
    p.add_argument("--triples", help="TAB-separated triple file")
    p.add_argument("--out", help="checkpoint output directory")
    p.add_argument("--dim", type=int)
    p.add_argument("--margin", type=float)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--neg", type=int, help="negatives per positive")
    p.add_argument("--min-rel-count", type=int, help="drop relations seen fewer times")
    p.add_argument("--seed", type=int)
    p.add_argument("--category-relation")
    p.add_argument("--corrupt-relation-prob", type=float)

    p = add("keyrel", cmd_keyrel, "select key relations per entity")
    p.add_argument("--triples")
    p.add_argument("--k", type=int)
    p.add_argument("--out", help="output TSV: entity<TAB>r1,...,rk")
    p.add_argument("--category-relation")

    p = add("export-services", cmd_export_services, "export service vectors to binary")
    p.add_argument("--checkpoint")
    p.add_argument("--keyrel", help="key relation TSV from the keyrel subcommand")
    p.add_argument("--variant", choices=list(servicing.VARIANTS))
    p.add_argument("--out")

    p = add("eval-lp", cmd_eval_lp, "filtered link prediction on a test triple file")
    p.add_argument("--checkpoint")
    p.add_argument("--test", help="test triple file")
    p.add_argument("--triples", help="optional training triples for the filter set")
    p.add_argument("--report", help="output JSON report path")

    p = add("eval-rel", cmd_eval_rel, "relation existence prediction on labeled pairs")
    p.add_argument("--checkpoint")
    p.add_argument("--pairs", help="file of head<TAB>relation<TAB>label(0|1) lines")
    p.add_argument("--report")

    p = add("recsys", cmd_recsys, "train and evaluate the recommender")
    p.add_argument("--interactions", help="user<TAB>item<TAB>order_index file")
    p.add_argument("--services", help="service export file or 'none'")
    p.add_argument("--checkpoint", help="checkpoint dir (token mapping for --services)")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--neg", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--report")

    p = add("serve", cmd_serve, "serve triple/relation/bundle queries over TCP")
    p.add_argument("--checkpoint")
    p.add_argument("--keyrel")
    p.add_argument("--host")
    p.add_argument("--port", type=int)
    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "func", None) is None:
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"pkgm: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
