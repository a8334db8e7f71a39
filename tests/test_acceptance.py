"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints an "ACCEPTANCE n: PASS/FAIL" line (repeated in the
terminal summary) before asserting, so a red criterion still reports its
measured numbers. Tolerances are fixed here, not tuned to runs.
"""

import time

import numpy as np
import pytest
from conftest import record_acceptance
from oracles import (
    gradients,
    interactions_from_rows,
    keyrel_table,
    one_array_write_services,
    same_table,
    service_triple,
)

from pkgm import downstream, keyrel, servicing, synth, trainer
from pkgm.downstream import InteractionSet, RecConfig
from pkgm.evaluation import existence_prediction, link_prediction_ranks
from pkgm.cli import dispatch
from pkgm.keyrel import select_key_relations
from pkgm.kgstore import store_from_triples
from pkgm.model import ModelParams, init_params, load_checkpoint, save_checkpoint
from pkgm.servicing import build_bundle, read_services, write_services


def combined(params, h, r, t):
    diff = params.entity_emb[h] + params.relation_emb[r] - params.entity_emb[t]
    resid = params.transfer[r] @ params.entity_emb[h] - params.relation_emb[r]
    return np.abs(diff).sum() + np.abs(resid).sum()


def fd_gradients(params, h, r, t, step=1e-5):
    out = {
        "d_head": (params.entity_emb, h, np.zeros(params.dim)),
        "d_tail": (params.entity_emb, t, np.zeros(params.dim)),
        "d_relation": (params.relation_emb, r, np.zeros(params.dim)),
        "d_transfer": (params.transfer, r, np.zeros((params.dim, params.dim))),
    }
    for table, index, target in out.values():
        flat = target.reshape(-1)
        row = table[index].reshape(-1)
        for i in range(flat.size):
            orig = row[i]
            row[i] = orig + step
            up = combined(params, h, r, t)
            row[i] = orig - step
            down = combined(params, h, r, t)
            row[i] = orig
            flat[i] = (up - down) / (2 * step)
    return {name: target for name, (_, _, target) in out.items()}


def test_criterion_01_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    checked = 0
    worst = 0.0
    while checked < 100:
        params = ModelParams(
            dim=5,
            entity_emb=rng.normal(size=(6, 5)),
            relation_emb=rng.normal(size=(3, 5)),
            transfer=rng.normal(size=(3, 5, 5)),
        )
        h, r, t = 0, int(rng.integers(3)), int(rng.integers(1, 6))
        diff = params.entity_emb[h] + params.relation_emb[r] - params.entity_emb[t]
        resid = params.transfer[r] @ params.entity_emb[h] - params.relation_emb[r]
        if np.abs(diff).min() <= 1e-3 or np.abs(resid).min() <= 1e-3:
            continue  # too close to a kink for finite differences
        got = gradients(params, h, r, t)
        want = fd_gradients(params, h, r, t)
        for name, w in want.items():
            g = getattr(got, name)
            rel_err = (np.abs(g - w) / np.maximum(np.abs(w), 1.0)).max()
            worst = max(worst, float(rel_err))
        checked += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 10.0
    record_acceptance(
        f"ACCEPTANCE 1: {'PASS' if ok else 'FAIL'} - gradient vs central differences "
        f"at 100 smooth points, worst component error {worst:.2e} (limit 1e-4), "
        f"{elapsed:.1f}s (limit 10s)"
    )
    assert worst <= 1e-4
    assert elapsed < 10.0


def sort_rank(kept_scores, target):
    return int(np.searchsorted(np.sort(kept_scores), target, side="right"))


def test_criterion_02_oracle_ranking_equivalence():
    kg = synth.planted_kg(n_entities=20, powers=(1, 2, 3, 4), coverage=0.8, seed=2)
    store = store_from_triples(kg.triples)
    assert store.n_entities == 20 and store.n_relations == 4
    params = init_params(20, 4, 8, np.random.default_rng(7))

    test = list(map(tuple, store.triples.tolist()))
    known_triples = set(test)
    for h, r, t in store.triples[::4].tolist():
        cand = (h, r, (t + 3) % 20)
        if cand not in known_triples:
            test.append(cand)
    got = link_prediction_ranks(params, store, test)

    ent = params.entity_emb.astype(np.float64)
    rel = params.relation_emb.astype(np.float64)
    known = {}
    for h, r, t in known_triples | set(test):
        known.setdefault((h, r), set()).add(t)
    mismatches = 0
    for i, (h, r, t) in enumerate(test):
        scores = np.abs(ent[h] + rel[r] - ent).sum(axis=1)
        keep = [e for e in range(20) if e == t or e not in known[(h, r)]]
        if sort_rank(scores[keep], scores[t]) != got[i]:
            mismatches += 1
    ok = mismatches == 0
    record_acceptance(
        f"ACCEPTANCE 2: {'PASS' if ok else 'FAIL'} - ranks vs exhaustive "
        f"score-and-sort oracle on {len(test)} queries, {mismatches} mismatches (limit 0)"
    )
    assert mismatches == 0


def test_criterion_03_learning_separation():
    start = time.perf_counter()
    kg = synth.planted_kg()
    store = store_from_triples(kg.triples)
    config = trainer.TrainConfig(
        dim=32, margin=1.0, learning_rate=1e-3, batch_size=4, epochs=50,
        negatives_per_positive=4, corrupt_relation_prob=1.0 / 3.0, seed=1,
    )
    params, _ = trainer.train(store, config)

    ranks = link_prediction_ranks(params, store, store.triples)
    hit10 = float((ranks <= 10).mean())

    rng = np.random.default_rng(17)
    pos = np.asarray(store.triples, dtype=np.int64)
    neg = trainer.sample_negative(store, pos, rng, config.corrupt_relation_prob)
    pos_scores, *_ = trainer._batch_terms(params, pos[:, 0], pos[:, 1], pos[:, 2])
    neg_scores, *_ = trainer._batch_terms(params, neg[:, 0], neg[:, 1], neg[:, 2])
    ratio = float(pos_scores.mean() / neg_scores.mean())
    elapsed = time.perf_counter() - start

    ok = hit10 >= 0.6 and ratio < 0.5 and elapsed < 120.0
    record_acceptance(
        f"ACCEPTANCE 3: {'PASS' if ok else 'FAIL'} - planted KG d=32 margin=1 lr=1e-3 "
        f"50 epochs: filtered hit@10 {hit10:.3f} (need >=0.6), pos/neg score ratio "
        f"{ratio:.3f} (need <0.5), {elapsed:.0f}s (limit 120s)"
    )
    assert hit10 >= 0.6
    assert elapsed < 120.0
    # The ratio clause is reported honestly and is expected to FAIL at these
    # pinned hyperparameters: the hinge stops pushing once typical negatives
    # clear pos+margin, so training equilibrates with pos/neg near
    # pos/(pos+margin+spread) ~ 0.8 regardless of seed or sampling mix, and
    # driving it under 0.5 would require collapsing positive scores, which
    # the margin itself forbids on a 200-step planted line inside the unit
    # ball.
    assert ratio < 0.5


def completion_config():
    return trainer.TrainConfig(
        dim=32, margin=8.0, learning_rate=1e-3, batch_size=4, epochs=100,
        negatives_per_positive=4, corrupt_relation_prob=0.6, seed=1,
    )


def test_criterion_04_completion_capability():
    kg = synth.planted_kg()
    train_rows, held_rows = synth.split_triples(kg.relation_triples, 0.10, seed=3)
    store = store_from_triples(train_rows)
    params, _ = trainer.train(store, completion_config())

    ent = params.entity_emb.astype(np.float64)
    hits = 0
    total = 0
    for h, r, t in held_rows:
        if h not in store.entities or t not in store.entities or r not in store.relations:
            continue  # dropped from the train split's vocabulary
        vec = service_triple(params, store.entities.id(h), store.relations.id(r))
        dist = np.abs(ent - np.asarray(vec, dtype=np.float64)).sum(axis=1)
        top10 = np.argpartition(dist, 10)[:10]
        hits += store.entities.id(t) in top10
        total += 1
    frac = hits / total
    random_rate = 10 / store.n_entities
    ok = frac >= 0.5 and total >= 0.9 * len(held_rows)
    record_acceptance(
        f"ACCEPTANCE 4: {'PASS' if ok else 'FAIL'} - held-out completion: true tail "
        f"in top-10 of service_triple for {frac:.3f} of {total} queries "
        f"(need >=0.5; random {random_rate:.3f})"
    )
    assert total >= 0.9 * len(held_rows)
    assert frac >= 0.5


def test_criterion_05_existence_encoding():
    kg = synth.planted_kg()
    store = store_from_triples(kg.triples)
    params, _ = trainer.train(store, completion_config())

    pairs, labels = [], []
    for rel in kg.relation_tokens:
        power = int(rel[1:])
        for e in kg.entity_tokens:
            if int(e[1:]) + power >= len(kg.entity_tokens):
                continue  # out of range for the planted rule
            pairs.append((store.entities.id(e), store.relations.id(rel)))
            labels.append(e in kg.covered[rel])
    report = existence_prediction(params, np.array(pairs), np.array(labels))
    ratio = report.metrics["separation_ratio"]
    acc = report.metrics["accuracy"]
    ok = ratio > 2.0 and acc >= 0.8
    record_acceptance(
        f"ACCEPTANCE 5: {'PASS' if ok else 'FAIL'} - relation-module norms: "
        f"absent/present mean ratio {ratio:.2f} (need >2.0), existence accuracy "
        f"{acc:.3f} (need >=0.8) over {report.sizes['n_pairs']} pairs"
    )
    assert ratio > 2.0
    assert acc >= 0.8


def keyrel_oracle(store, k):
    pairs = {(h, r) for h, r, _ in store.triples}
    global_order = sorted(
        store.relation_counts, key=lambda r: (-store.relation_counts[r], r)
    )
    rows = {}
    for e, cat in store.category_of.items():
        members = [m for m, c in store.category_of.items() if c == cat]
        freq = {}
        for r in range(store.n_relations):
            n = sum(1 for m in members if (m, r) in pairs)
            if n:
                freq[r] = n
        ranked = sorted(freq, key=lambda r: (-freq[r], r))[:k]
        ranked += [r for r in global_order if r not in set(ranked)][: k - len(ranked)]
        rows[e] = tuple(ranked)
    return rows


def test_criterion_06_key_relation_oracle():
    rng = np.random.default_rng(606)
    mismatches = 0
    for _ in range(50):
        rows = [(f"e{i}", "isA", f"c{rng.integers(3)}") for i in range(8)]
        for _ in range(int(rng.integers(10, 30))):
            rows.append(
                (f"e{rng.integers(8)}", f"q{rng.integers(4)}", f"e{rng.integers(8)}")
            )
        store = store_from_triples(sorted(set(rows)))
        k = int(rng.integers(1, store.n_relations + 1))
        table = select_key_relations(store, k)
        if not same_table(table, keyrel_table(keyrel_oracle(store, k))):
            mismatches += 1
    ok = mismatches == 0
    record_acceptance(
        f"ACCEPTANCE 6: {'PASS' if ok else 'FAIL'} - key relation selection vs "
        f"brute-force oracle on 50 random stores, {mismatches} mismatches (limit 0)"
    )
    assert mismatches == 0


def test_criterion_07_downstream_direction():
    start = time.perf_counter()
    kg_config = trainer.TrainConfig(
        dim=32, margin=2.0, learning_rate=1e-3, batch_size=4, epochs=50,
        negatives_per_positive=4, corrupt_relation_prob=1.0 / 3.0, seed=0,
    )
    base_scores = []
    pkgm_scores = []
    for seed in range(5):
        pref = synth.preference_dataset(seed=seed)
        store = store_from_triples(pref.kg_triples)
        params, _ = trainer.train(store, kg_config)
        table = select_key_relations(store, k=2)
        bundle = build_bundle(params, table, "all")

        inter = interactions_from_rows(pref.interactions)
        services = downstream.service_table_for_items(inter, bundle, store.entities)
        train_rows, _ = downstream.leave_one_out_split(inter)
        train_set = InteractionSet(inter.users, inter.items, train_rows)

        for tag, svc in (("base", None), ("pkgm", services)):
            config = RecConfig(learning_rate=1e-3, epochs=60, seed=seed)
            model = downstream.train_recommender(train_set, svc, config)
            report = downstream.evaluate_leave_one_out(model, inter, seed=123)
            (base_scores if tag == "base" else pkgm_scores).append(
                report.metrics["ndcg@10"]
            )
    diffs = [p - b for p, b in zip(pkgm_scores, base_scores)]
    nonneg = sum(d >= 0 for d in diffs)
    mean_base = float(np.mean(base_scores))
    mean_pkgm = float(np.mean(pkgm_scores))
    elapsed = time.perf_counter() - start
    ok = mean_pkgm >= mean_base and nonneg >= 4 and elapsed < 600.0
    record_acceptance(
        f"ACCEPTANCE 7: {'PASS' if ok else 'FAIL'} - NDCG@10 over 5 seeds: "
        f"services {mean_pkgm:.4f} vs base {mean_base:.4f} (mean diff "
        f"{np.mean(diffs):+.4f}), per-seed diff >=0 in {nonneg}/5 (need >=4), "
        f"{elapsed:.0f}s (limit 600s)"
    )
    assert mean_pkgm >= mean_base
    assert nonneg >= 4
    assert elapsed < 600.0


def test_criterion_08_frozen_services(tmp_path):
    kg = synth.planted_kg(n_entities=40, powers=(1, 2), coverage=1.0,
                          n_categories=3, seed=0)
    store = store_from_triples(kg.triples)
    config = trainer.TrainConfig(dim=8, learning_rate=1e-2, batch_size=32,
                                 epochs=3, seed=0)
    params, _ = trainer.train(store, config)
    bundle = build_bundle(params, select_key_relations(store, k=2), "all")
    before = tmp_path / "before.bin"
    one_array_write_services(before, bundle)

    rows = []
    for u in range(12):
        for j in range(3):
            rows.append((f"u{u}", f"e{(u + j) % 16:03d}", j))
    inter = interactions_from_rows(rows)
    services = downstream.service_table_for_items(inter, bundle, store.entities)
    train_rows, _ = downstream.leave_one_out_split(inter)
    train_set = InteractionSet(inter.users, inter.items, train_rows)
    downstream.train_recommender(
        train_set, services, RecConfig(learning_rate=1e-3, epochs=5, seed=0)
    )

    after = tmp_path / "after.bin"
    one_array_write_services(after, bundle)
    identical = before.read_bytes() == after.read_bytes()
    record_acceptance(
        f"ACCEPTANCE 8: {'PASS' if identical else 'FAIL'} - service export "
        f"byte-identical before and after downstream training "
        f"({before.stat().st_size} bytes)"
    )
    assert identical


def test_criterion_09_serialization_round_trips(tmp_path):
    kg = synth.planted_kg(n_entities=30, powers=(1, 3), n_categories=3, seed=4)
    store = store_from_triples(kg.triples)
    params, _ = trainer.train(
        store, trainer.TrainConfig(dim=8, learning_rate=1e-2, batch_size=16,
                                   epochs=2, seed=2)
    )
    first = tmp_path / "ckpt1"
    save_checkpoint(first, params, store.entities, store.relations)
    loaded, ev, rv = load_checkpoint(first)
    second = tmp_path / "ckpt2"
    save_checkpoint(second, loaded, ev, rv)
    names = sorted(p.name for p in first.iterdir())
    ckpt_ok = all(
        (first / n).read_bytes() == (second / n).read_bytes() for n in names
    )

    table = select_key_relations(store, k=2)
    bundle = build_bundle(params, table, "all")
    svc1 = tmp_path / "svc1.bin"
    write_services(svc1, params, table, "all")
    back = read_services(svc1)
    svc2 = tmp_path / "svc2.bin"
    one_array_write_services(svc2, back)
    svc_ok = (svc1.read_bytes() == svc2.read_bytes() and np.array_equal(back.ids, bundle.ids)
              and np.array_equal(back.block, bundle.block))
    ok = ckpt_ok and svc_ok
    record_acceptance(
        f"ACCEPTANCE 9: {'PASS' if ok else 'FAIL'} - checkpoint save/load/save "
        f"bit-identical: {ckpt_ok}; service export round-trip exact: {svc_ok}"
    )
    assert ckpt_ok
    assert svc_ok


def test_criterion_10_determinism(tmp_path, monkeypatch):
    kg = synth.planted_kg(n_entities=40, powers=(1, 2), n_categories=3, seed=1)
    triples = tmp_path / "kg.tsv"
    triples.write_text(
        "".join(f"{h}\t{r}\t{t}\n" for h, r, t in kg.triples), encoding="utf-8"
    )
    outs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        code = dispatch(["train", "--triples", str(triples), "--out", str(out),
                         "--dim", "8", "--epochs", "2", "--batch", "32",
                         "--seed", "33"])
        assert code == 0
        outs.append(out)
    files = ("header.json", "entity_emb.f32", "relation_emb.f32", "transfer.f32",
             "entities.tsv", "relations.tsv")
    train_ok = all(
        (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in files
    )

    rows = []
    for u in range(20):
        for j in range(3):
            rows.append((f"u{u}", f"i{(u + j) % 30}", j))
    data = interactions_from_rows(rows)
    candidate_logs = []

    def make_score_fn(salt):
        log = []
        candidate_logs.append(log)
        rng = np.random.default_rng(salt)

        def score_fn(u, candidates):
            log.append(np.asarray(candidates).copy())
            return rng.random(len(candidates))

        return score_fn

    monkeypatch.setattr(downstream, "LOO_NEGATIVES", 20)
    downstream.leave_one_out_ranks(make_score_fn(1), data, seed=9)
    downstream.leave_one_out_ranks(make_score_fn(2), data, seed=9)
    eval_ok = all(
        np.array_equal(a, b) for a, b in zip(candidate_logs[0], candidate_logs[1])
    )
    ok = train_ok and eval_ok
    record_acceptance(
        f"ACCEPTANCE 10: {'PASS' if ok else 'FAIL'} - repeated seeded training "
        f"byte-identical: {train_ok}; ranking candidates identical across models "
        f"with shared seed: {eval_ok}"
    )
    assert train_ok
    assert eval_ok
