"""The two workloads: the README's pass over generated files, repeated.

Each pass runs the ``pkgm`` argument lists in-process through
``pkgm.cli.dispatch`` with one caller and ``PKGM_THREADS`` unset; the
``kg_pipeline`` pass ends with a serve step against a server child (see
``serve_stage``). Inputs come from ``pkgm.synth`` with the benchmark's
seed; the program only sees the written files. Outputs are checked after
the timed passes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from harness import (PER_LAYER, SETUP_REPEATS, Result, Tracer, fast_time, fresh_dir,
                     layer_metrics, median, peak_rss_mb, wrap_offline_layers)
from pkgm import cli, downstream, evaluation, keyrel, kgstore, model, optim, servicing, synth
from pkgm import trainer
from serve_stage import ServeStage, make_requests

# negatives per positive in `pkgm recsys` (its default, not passed on the command line)
REC_NEG = 4

PKGM_MODULES = (kgstore, trainer, optim, model, evaluation, keyrel, servicing, downstream)

SIZES = {
    "full": {
        "kg_pipeline": {"n_entities": 2000, "n_categories": 20, "powers": synth.DEFAULT_POWERS,
                        "holdout": 0.05, "pairs": 2000, "k": 10, "train": [],
                        "rank_sample": 50, "serve_requests": 4000},
        "recsys": {"prefs": {}, "k": 2, "rec_epochs": 20,
                   "train": ["--dim", "32", "--margin", "2", "--lr", "0.001", "--batch", "4",
                             "--epochs", "10", "--neg", "4"]},
    },
    "toy": {
        "kg_pipeline": {"n_entities": 60, "n_categories": 4, "powers": (1, 2, 3, 5),
                        "holdout": 0.1, "pairs": 40, "k": 3,
                        "train": ["--dim", "8", "--batch", "50", "--epochs", "1"],
                        "rank_sample": 5, "serve_requests": 100},
        "recsys": {"prefs": {"n_users": 30, "n_items": 40, "n_values": 2},
                   "k": 2, "rec_epochs": 1,
                   "train": ["--dim", "8", "--batch", "50", "--epochs", "1"]},
    },
}


# --- inputs -------------------------------------------------------------------

def make_kg_inputs(d: Path, seed: int, size: dict) -> dict:
    """Planted KG minus a held-out share of relation triples, plus labeled pairs."""
    kg = synth.planted_kg(n_entities=size["n_entities"], powers=size["powers"],
                          n_categories=size["n_categories"], seed=seed)
    train_rel, test = synth.split_triples(kg.relation_triples, size["holdout"], seed=seed)
    categories = [row for row in kg.triples if row[1] == kg.category_relation]
    kgstore.write_triples(d / "kg.tsv", train_rel + categories)
    kgstore.write_triples(d / "test.tsv", test)

    n = len(kg.entity_tokens)
    covered, uncovered = [], []
    for rel, j in zip(kg.relation_tokens, size["powers"]):
        for i in range(n - j):
            head = kg.entity_tokens[i]
            (covered if head in kg.covered[rel] else uncovered).append((head, rel))
    rng = np.random.default_rng(seed)
    half = size["pairs"] // 2
    rows = [(*covered[i], "1") for i in rng.choice(len(covered), half, replace=False)]
    rows += [(*uncovered[i], "0") for i in rng.choice(len(uncovered), half, replace=False)]
    (d / "pairs.tsv").write_text("".join("\t".join(r) + "\n" for r in rows), encoding="utf-8")
    return {"triples": len(train_rel) + len(categories), "n_test": len(test),
            "n_pairs": len(rows)}


def make_recsys_inputs(d: Path, seed: int, size: dict) -> dict:
    data = synth.preference_dataset(seed=seed, **size["prefs"])
    kgstore.write_triples(d / "items.tsv", data.kg_triples)
    downstream.write_interactions(d / "interactions.tsv", data.interactions)
    return {"triples": len(set(data.kg_triples)), "interactions": len(data.interactions),
            "users": len(data.user_tokens)}


def kg_stages(d: Path, out: Path, size: dict, seed: int) -> list[tuple]:
    ckpt, keyrels, services = str(out / "ckpt"), str(out / "keyrels.tsv"), str(out / "services.bin")
    return [
        ("train", ["train", "--triples", str(d / "kg.tsv"), "--out", ckpt, "--seed", "0",
                   *size["train"]]),
        ("keyrel", ["keyrel", "--triples", str(d / "kg.tsv"), "--k", str(size["k"]),
                    "--out", keyrels]),
        ("export_services", ["export-services", "--checkpoint", ckpt, "--keyrel", keyrels,
                             "--variant", "all", "--out", services]),
        ("eval_lp", ["eval-lp", "--checkpoint", ckpt, "--test", str(d / "test.tsv"),
                     "--triples", str(d / "kg.tsv"), "--report", str(out / "lp.json")]),
        ("eval_rel", ["eval-rel", "--checkpoint", ckpt, "--pairs", str(d / "pairs.tsv"),
                      "--report", str(out / "rel.json")]),
        ("serve", kg_serve_stage(d, size, seed)),
    ]


def kg_serve_stage(d: Path, size: dict, seed: int) -> ServeStage:
    """Requests over the entities that get key relations (the categorized ones)."""
    store = kgstore.load_triples(d / "kg.tsv")
    entities = [store.entities.token(e) for e in sorted(store.category_of)]
    return ServeStage(make_requests(entities, list(store.relations), size["serve_requests"],
                                    seed))


def recsys_stages(d: Path, out: Path, size: dict, seed: int) -> list[tuple]:
    ckpt, keyrels, services = str(out / "ckpt"), str(out / "keyrels.tsv"), str(out / "services.bin")
    return [
        ("train", ["train", "--triples", str(d / "items.tsv"), "--out", ckpt, "--seed", "0",
                   *size["train"]]),
        ("keyrel", ["keyrel", "--triples", str(d / "items.tsv"), "--k", str(size["k"]),
                    "--out", keyrels]),
        ("export_services", ["export-services", "--checkpoint", ckpt, "--keyrel", keyrels,
                             "--variant", "all", "--out", services]),
        ("recsys", ["recsys", "--interactions", str(d / "interactions.tsv"),
                    "--services", services, "--checkpoint", ckpt,
                    "--report", str(out / "rec.json"), "--epochs", str(size["rec_epochs"]),
                    "--lr", "0.001"]),
    ]


WORKLOADS = {
    "kg_pipeline": (make_kg_inputs, kg_stages),
    "recsys": (make_recsys_inputs, recsys_stages),
}


# --- passes -------------------------------------------------------------------

def run_pass(res: Result, stages, out: Path, tracer: Tracer | None) -> dict:
    """One pass; returns wall seconds per stage and for the whole pass.

    A stage is a ``pkgm`` argument list, run through ``cli.dispatch``, or a
    ``ServeStage``, whose responses are checked once the pass is over.
    """
    fresh_dir(out)
    walls = {}
    start = time.perf_counter()
    with open(out / "cli.log", "w", encoding="utf-8") as log, contextlib.redirect_stdout(log):
        for stage, action in stages:
            t0 = time.perf_counter()
            serve = isinstance(action, ServeStage)
            span = "serve.stage" if serve else f"cli.{stage}"
            with tracer.span(span) if tracer else contextlib.nullcontext():
                if serve:
                    try:
                        action(out, tracer is not None)
                        rc = 0
                    except (RuntimeError, OSError) as exc:
                        print(f"serve stage failed: {exc}", file=sys.stderr)
                        rc = 1
                else:
                    rc = cli.dispatch(action)
            walls[stage] = time.perf_counter() - t0
            res.attempted += 1
            if rc != 0:
                res.failed += 1
                res.check(False, f"{stage} stage failed with {rc}")
                break
    walls["pass"] = time.perf_counter() - start
    for stage, action in stages:
        if isinstance(action, ServeStage) and not res.problems:
            action.check(res)
    return walls


def traced_pass(res: Result, stages, out: Path) -> tuple[dict, dict, Tracer]:
    tracer = Tracer()
    wrap_offline_layers(tracer, PKGM_MODULES)
    try:
        walls = run_pass(res, stages, out, tracer)
    finally:
        tracer.restore()
    spans = list(tracer.spans)
    serve = [action for _, action in stages if isinstance(action, ServeStage)]
    if serve and not res.problems:
        child = serve[0].child_spans(first_id=max(s[0] for s in spans))
        metrics = layer_metrics(spans + child, tracer.counts)
        metrics.update(serve[0].layer_metrics(child))
    else:
        metrics = layer_metrics(spans, tracer.counts)
    return walls, metrics, tracer


# --- checks -------------------------------------------------------------------

def same_value(a, b) -> bool:
    """Bitwise equality through dataclasses, dicts, sequences and arrays."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            same_value(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, dict):
        return (isinstance(b, dict) and sorted(a) == sorted(b)
                and all(same_value(a[key], b[key]) for key in a))
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    if isinstance(a, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(same_value(x, y) for x, y in zip(a, b)))
    return a == b


def check_export(res: Result, out: Path) -> None:
    """The export read back must equal build_bundle bit for bit."""
    params, entity_vocab, relation_vocab = model.load_checkpoint(out / "ckpt")
    table = keyrel.read_keyrel_tsv(out / "keyrels.tsv", entity_vocab, relation_vocab)
    built = servicing.build_bundle(params, table, "all")
    back = servicing.read_services(out / "services.bin")
    same = same_value(back, built)
    res.check(same, "service export read back differs from build_bundle")


def oracle_ranks(params, known: set, test) -> np.ndarray:
    """Filtered tail ranks by exhaustive score-and-sort (pessimistic ties)."""
    ent = params.entity_emb.astype(np.float64)
    rel = params.relation_emb.astype(np.float64)
    ranks = []
    for h, r, t in test:
        scores = np.abs(ent[h] + rel[r] - ent).sum(axis=1)
        keep = [c for c in range(len(ent)) if c == t or (h, r, c) not in known]
        ordered = np.sort(scores[keep], kind="stable")
        ranks.append(int(np.searchsorted(ordered, scores[t], side="right")))
    return np.asarray(ranks, dtype=np.int64)


def check_link_prediction(res: Result, d: Path, out: Path, seed: int, sample: int) -> None:
    params, entity_vocab, relation_vocab = model.load_checkpoint(out / "ckpt")

    def ids(path):
        return [(entity_vocab.id(h), relation_vocab.id(r), entity_vocab.id(t))
                for h, r, t in kgstore.load_triples(path).token_triples()]

    test, known = ids(d / "test.tsv"), ids(d / "kg.tsv")
    ranks = oracle_ranks(params, set(known) | set(test), test)
    report = json.loads((out / "lp.json").read_text(encoding="utf-8"))["metrics"]
    expect = {f"hit@{k}": float((ranks <= k).mean()) for k in (1, 3, 10)}
    expect["mrr"] = float((1.0 / ranks).mean())
    res.check(all(report.get(key) == value for key, value in expect.items()),
              f"eval-lp report {report} differs from the score-and-sort oracle {expect}")

    pick = np.random.default_rng(seed).choice(len(test), min(sample, len(test)), replace=False)
    store = kgstore.TripleStore(entities=entity_vocab, relations=relation_vocab, triples=known,
                                category_of={}, relation_counts={})
    program = evaluation.link_prediction_ranks(params, store, [test[i] for i in pick])
    res.check(np.array_equal(program, ranks[pick]),
              "link_prediction_ranks differ from the score-and-sort oracle")


def final_loss(out: Path) -> float:
    report = json.loads((out / "ckpt" / "train_report.json").read_text(encoding="utf-8"))
    return float(report["epoch_losses"][-1])


# --- workload -----------------------------------------------------------------

def run(name: str, seed: int, seconds: float, trace: bool, scale: str, workdir: Path) -> Result:
    make_inputs, make_stages = WORKLOADS[name]
    size = SIZES[scale][name]
    res = Result()

    setup_times = []
    for i in range(1 if trace else SETUP_REPEATS):
        d = fresh_dir(workdir / f"inputs{i}")
        t0 = time.perf_counter()
        info = make_inputs(d, seed, size)
        setup_times.append(time.perf_counter() - t0)
    out = workdir / "out"
    stages = make_stages(d, out, size, seed)

    # passes run while another one still fits in the time asked for
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while not res.problems:
        plain.append(run_pass(res, stages, out, None))
        if trace and not res.problems:
            walls, metrics, tracer = traced_pass(res, stages, out)
            traced.append(walls)
            layers.append(metrics)
        elapsed = time.perf_counter() - start
        if elapsed * (len(plain) + 1) / len(plain) > seconds:
            break
    rss = peak_rss_mb()

    if not res.problems:
        check_export(res, out)
        loss = final_loss(out)
        res.check(math.isfinite(loss), f"train_final_loss is not finite: {loss}")
        if name == "kg_pipeline":
            check_link_prediction(res, d, out, seed, size["rank_sample"])
        else:
            ndcg = json.loads((out / "rec.json").read_text(encoding="utf-8"))["metrics"]["ndcg@10"]
            res.check(math.isfinite(ndcg), f"rec_ndcg10 is not finite: {ndcg}")
    if res.problems:
        return res

    def stage(key, passes=plain, stat=fast_time):
        return stat([p[key] for p in passes])

    # 2 is the `pkgm train` default when the argument list gives no --epochs
    train_epochs = int(dict(zip(size["train"][::2], size["train"][1::2])).get("--epochs", 2))
    detail = {
        "passes": len(plain),
        "pass_s": [p["pass"] for p in plain],
        "pipeline_s": stage("pass", stat=median),
        "stage_s": {key: stage(key, stat=median) for key, _ in stages},
        "train_triples_per_s": train_epochs * info["triples"] / stage("train"),
        "train_final_loss": loss,
        "peak_rss_mb": rss,
        "inputs": info,
    }
    if name == "kg_pipeline":
        work = info["n_test"] / stage("eval_lp")
        detail["eval_lp_triples_per_s"] = work
        detail["serve"] = stages[-1][1].detail()
    else:
        n_train = info["interactions"] - info["users"]
        work = size["rec_epochs"] * n_train * (1 + REC_NEG) / stage("recsys")
        detail["rec_examples_per_s"] = work
        detail["rec_ndcg10"] = ndcg
    res.detail = detail

    if trace:
        res.metrics = {key: (median([m[key] for m in layers]), unit)
                       for key, (unit, _) in PER_LAYER.items()}
        overhead = stage("pass", traced) - stage("pass", plain)
        res.metrics["trace.overhead_s"] = (overhead, "s")
        res.detail["absent"] = tracer.absent
        tracer.write(workdir / "spans.jsonl")
    else:
        res.metrics = {
            "setup_s": (median(setup_times), "s"),
            "wait_s": (stage("pass"), "s"),
            "tail_s": (stage("pass", stat=median), "s"),
            "work_per_s": (work, "1/s"),
            "refresh_s": (stage("train"), "s"),
            "peak_rss_mb": (rss, "MiB"),
        }
    return res
