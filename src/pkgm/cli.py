"""Command line entry point.

Subcommands: train, keyrel, export-services, serve, eval-lp, eval-rel,
recsys, each with its settings declared once in COMMANDS. Every
subcommand accepts --config pointing at a JSON file whose keys mirror the
flag names (dashes or underscores) and whose values have the flag's type;
explicit flags override config values, which override built-in defaults.
All reports are JSON with a top-level schema_version.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import ctypes
import json
import sys
from dataclasses import asdict
from itertools import repeat
from pathlib import Path

import numpy as np

from . import downstream, evaluation, keyrel, kgstore, model, servicing, trainer

SCHEMA_VERSION = 1

_REQUIRED = object()


def _config_value(key: str, kind: type, default, value):
    """A config file value of its flag's type: int takes a JSON integer (not a
    bool), float any number, str a string; null only where the default is None."""
    if value is None and default is None:
        return None
    if type(value) is kind or (kind is float and type(value) is int):
        return kind(value)
    raise ValueError(f"config key {key!r} must be {kind.__name__}, got {json.dumps(value)}")


def _merge_settings(args, spec: dict) -> dict:
    """Resolve each setting as flag > config file > default."""
    file_values = {}
    if args.config:
        try:
            raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except ValueError as exc:  # not JSON or not UTF-8
            raise ValueError(f"{args.config}: {exc}") from None
        if not isinstance(raw, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
        file_values = {key.replace("-", "_"): val for key, val in raw.items()}
        unknown = sorted(set(file_values) - set(spec))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        file_values = {key: _config_value(key, *spec[key][:2], val)
                       for key, val in file_values.items()}
    resolved = {}
    for key, (_, default, _) in spec.items():
        flag_val = getattr(args, key)
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
    try:
        text = json.dumps({"schema_version": SCHEMA_VERSION, **payload}, indent=2,
                          allow_nan=False) + "\n"
    except ValueError:  # strict JSON has no NaN or Infinity
        raise ValueError(f"{path}: report holds a NaN or infinite value") from None
    kgstore.write_atomically([(path, lambda tmp: tmp.write_text(text, encoding="utf-8"))])


def cmd_train(settings: dict) -> int:
    min_rel_count = settings["min_rel_count"]
    if min_rel_count < 1:
        raise ValueError(f"min_rel_count must be >= 1, got {min_rel_count}")
    store = kgstore.load_triples(settings["triples"], settings["category_relation"])
    if min_rel_count > 1:
        store = kgstore.filter_rare_relations(store, min_rel_count)
    config = trainer.TrainConfig(
        dim=settings["dim"], margin=settings["margin"], learning_rate=settings["lr"],
        batch_size=settings["batch"], epochs=settings["epochs"],
        negatives_per_positive=settings["neg"], seed=settings["seed"],
        corrupt_relation_prob=settings["corrupt_relation_prob"])
    params, report = trainer.train(store, config)
    out_dir = Path(settings["out"])
    model.save_checkpoint(out_dir, params, store.entities, store.relations)
    _write_report(out_dir / "train_report.json",
                  {**asdict(report), "checkpoint_path": str(out_dir),
                   "min_rel_count": min_rel_count})
    print(f"checkpoint written to {out_dir}")
    return 0


def cmd_keyrel(settings: dict) -> int:
    store = kgstore.load_triples(settings["triples"], settings["category_relation"])
    table = keyrel.select_key_relations(store, settings["k"])
    keyrel.write_keyrel_tsv(settings["out"], table, store.entities, store.relations)
    print(f"key relations for {len(table.rows)} entities written to {settings['out']}")
    return 0


def cmd_export_services(settings: dict) -> int:
    params, entity_vocab, relation_vocab = model.load_checkpoint(settings["checkpoint"])
    table = keyrel.read_keyrel_tsv(settings["keyrel"], entity_vocab, relation_vocab)
    servicing.write_services(settings["out"], params, table, settings["variant"])
    print(f"{len(table.ids)} service records written to {settings['out']}")
    return 0


def _triple_ids(path, entity_vocab, relation_vocab) -> np.ndarray:
    """(n, 3) int64 ids of a triple file's lines under a checkpoint's vocabularies."""
    return np.concatenate(kgstore.read_tsv(path, 3).map(lambda rows: np.stack([
        rows.ids(0, entity_vocab, "entity"), rows.ids(1, relation_vocab, "relation"),
        rows.ids(2, entity_vocab, "entity")], axis=1)))


def _labeled_pairs(path, entity_vocab, relation_vocab) -> tuple[np.ndarray, np.ndarray]:
    """(n, 2) int64 (h, r) ids and (n,) bool exists of "head<TAB>relation<TAB>0|1" lines."""

    def read(rows):
        labels = rows.columns[2]
        exists = np.fromiter(map({"0": 0, "1": 1}.get, labels, repeat(-1)), np.int64, len(rows))
        rows.reject(exists < 0, lambda i: f"label must be 0 or 1, got {labels[i]!r}")
        heads, rels = rows.ids(0, entity_vocab, "entity"), rows.ids(1, relation_vocab, "relation")
        return np.stack([heads, rels], axis=1), exists == 1

    pairs, labels = zip(*kgstore.read_tsv(path, 3).map(read))
    return np.concatenate(pairs), np.concatenate(labels)


def cmd_eval_lp(settings: dict) -> int:
    params, entity_vocab, relation_vocab = model.load_checkpoint(settings["checkpoint"])
    test = _triple_ids(settings["test"], entity_vocab, relation_vocab)
    known = (_triple_ids(settings["triples"], entity_vocab, relation_vocab)
             if settings["triples"] else [])
    # link prediction reads only the triples
    store = kgstore.TripleStore(entities=entity_vocab, relations=relation_vocab, triples=known,
                                category_of={}, relation_counts={})
    report = evaluation.link_prediction(params, store, test)
    _write_report(settings["report"], asdict(report))
    print(f"link prediction report written to {settings['report']}")
    return 0


def cmd_eval_rel(settings: dict) -> int:
    params, entity_vocab, relation_vocab = model.load_checkpoint(settings["checkpoint"])
    pairs, labels = _labeled_pairs(settings["pairs"], entity_vocab, relation_vocab)
    report = evaluation.existence_prediction(params, pairs, labels)
    _write_report(settings["report"], asdict(report))
    print(f"existence prediction report written to {settings['report']}")
    return 0


def cmd_recsys(settings: dict) -> int:
    data = downstream.load_interactions(settings["interactions"])
    service_table = None
    if settings["services"] != "none":
        if not settings["checkpoint"]:
            raise ValueError("--checkpoint is required when --services is a file "
                             "(it supplies the entity vocabulary)")
        bundle = servicing.read_services(settings["services"])
        if bundle.variant != "all":
            raise ValueError(f"{settings['services']}: recsys needs an 'all' export, "
                             f"got variant {bundle.variant!r}")
        _, entity_vocab, _ = model.load_checkpoint(settings["checkpoint"])
        service_table = downstream.service_table_for_items(data, bundle, entity_vocab)
    config = downstream.RecConfig(
        learning_rate=settings["lr"], epochs=settings["epochs"], batch_size=settings["batch"],
        neg_ratio=settings["neg"], seed=settings["seed"])
    config.validate()
    train_rows, _ = downstream.leave_one_out_split(data)
    downstream.require_unobserved_items(data)  # before training, which cannot mend it
    train_data = downstream.InteractionSet(data.users, data.items, train_rows)
    rec = downstream.train_recommender(train_data, service_table, config)
    report = downstream.evaluate_leave_one_out(rec, data, seed=settings["seed"])
    _write_report(settings["report"], {**asdict(report), "train_losses": rec.train_losses})
    print(f"recommendation report written to {settings['report']}")
    return 0


def cmd_serve(settings: dict) -> int:
    if not 0 <= settings["port"] <= 65535:
        raise ValueError(f"port must be in 0..65535, got {settings['port']}")
    params, entity_vocab, relation_vocab = model.load_checkpoint(settings["checkpoint"])
    table = keyrel.read_keyrel_tsv(settings["keyrel"], entity_vocab, relation_vocab)
    service = servicing.QueryService(params, table, entity_vocab, relation_vocab)

    async def run() -> None:
        server = await servicing.serve(service, host=settings["host"], port=settings["port"])
        addr = server.sockets[0].getsockname()
        print(f"serving on {addr[0]}:{addr[1]}")
        async with server:
            await server.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


_T, _R = trainer.TrainConfig, downstream.RecConfig
_CATEGORY = (str, kgstore.CATEGORY_RELATION, None)

# subcommand: (handler, help, {setting: (type, default, help)}); a setting
# is the flag --setting-name and the config key setting_name
COMMANDS = {
    "train": (cmd_train, "train embeddings on a triple file", {
        "triples": (str, _REQUIRED, "TAB-separated triple file"),
        "out": (str, _REQUIRED, "checkpoint output directory"),
        "dim": (int, _T.dim, None),
        "margin": (float, _T.margin, None),
        "lr": (float, _T.learning_rate, None),
        "batch": (int, _T.batch_size, None),
        "epochs": (int, _T.epochs, None),
        "neg": (int, _T.negatives_per_positive, "negatives per positive"),
        "min_rel_count": (int, 1, "drop relations seen fewer times"),
        "seed": (int, _T.seed, None),
        "category_relation": _CATEGORY,
        "corrupt_relation_prob": (float, _T.corrupt_relation_prob, None),
    }),
    "keyrel": (cmd_keyrel, "select key relations per entity", {
        "triples": (str, _REQUIRED, None),
        "k": (int, 10, None),
        "out": (str, _REQUIRED, "output TSV: entity<TAB>r1,...,rk"),
        "category_relation": _CATEGORY,
    }),
    "export-services": (cmd_export_services, "export service vectors to binary", {
        "checkpoint": (str, _REQUIRED, None),
        "keyrel": (str, _REQUIRED, "key relation TSV from the keyrel subcommand"),
        "variant": (str, _REQUIRED, "one of " + ", ".join(servicing.VARIANTS)),
        "out": (str, _REQUIRED, None),
    }),
    "eval-lp": (cmd_eval_lp, "filtered link prediction on a test triple file", {
        "checkpoint": (str, _REQUIRED, None),
        "test": (str, _REQUIRED, "test triple file"),
        "triples": (str, None, "optional training triples for the filter set"),
        "report": (str, _REQUIRED, "output JSON report path"),
    }),
    "eval-rel": (cmd_eval_rel, "relation existence prediction on labeled pairs", {
        "checkpoint": (str, _REQUIRED, None),
        "pairs": (str, _REQUIRED, "file of head<TAB>relation<TAB>label(0|1) lines"),
        "report": (str, _REQUIRED, None),
    }),
    "recsys": (cmd_recsys, "train and evaluate the recommender", {
        "interactions": (str, _REQUIRED, "user<TAB>item<TAB>order_index file"),
        "services": (str, _REQUIRED, "service export file or 'none'"),
        "checkpoint": (str, None, "checkpoint dir (token mapping for --services)"),
        "epochs": (int, _R.epochs, None),
        "batch": (int, _R.batch_size, None),
        "neg": (int, _R.neg_ratio, None),
        "lr": (float, _R.learning_rate, None),
        "seed": (int, _R.seed, None),
        "report": (str, _REQUIRED, None),
    }),
    "serve": (cmd_serve, "serve triple/relation/bundle queries over TCP", {
        "checkpoint": (str, _REQUIRED, None),
        "keyrel": (str, _REQUIRED, None),
        "host": (str, "127.0.0.1", None),
        "port": (int, 7464, None),
    }),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pkgm",
        description="Knowledge graph pre-training and knowledge serving toolkit.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, (_, help_text, spec) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override its values")
        for key, (kind, _, flag_help) in spec.items():
            p.add_argument("--" + key.replace("_", "-"), type=kind, help=flag_help)
    return parser


def _openblas_threads():
    """(get, set) of numpy's OpenBLAS thread count, or None for a BLAS without
    them; dlsym on numpy's core extension also searches the OpenBLAS it links."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


@contextlib.contextmanager
def _one_blas_thread():
    """Hold OpenBLAS to one thread, whatever OPENBLAS_NUM_THREADS says, and give
    the caller's count back on every exit. Every product here is small; split
    over two vCPUs it can stall for milliseconds while the second one wakes.
    The count is global to the process, so dispatch must not run on two
    threads at once."""
    funcs = _openblas_threads()
    if funcs is None:
        yield
        return
    get, put = funcs
    saved = get()
    put(1)
    try:
        yield
    finally:
        put(saved)


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command is None:
        parser.print_help()
        return 2
    handler, _, spec = COMMANDS[args.command]
    try:
        with _one_blas_thread():
            return handler(_merge_settings(args, spec))
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        # numpy's MemoryError names the allocation; a bare one has no text
        print(f"pkgm: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
