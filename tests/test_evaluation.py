from dataclasses import asdict

import numpy as np
import pytest

from oracles import score_relation, store_of
from pkgm import evaluation
from pkgm.evaluation import (
    choose_threshold,
    existence_prediction,
    link_prediction,
    link_prediction_ranks,
    relation_scores,
)
from pkgm.kgstore import TripleStore
from pkgm.model import ModelParams, init_params


def random_graph(rng, n_entities=12, n_relations=3, n_rows=25):
    rows = {
        (
            f"e{rng.integers(n_entities)}",
            f"r{rng.integers(n_relations)}",
            f"e{rng.integers(n_entities)}",
        )
        for _ in range(n_rows)
    }
    return store_of(sorted(rows))


def oracle_ranks(params, store, test):
    ent = params.entity_emb.astype(np.float64)
    rel = params.relation_emb.astype(np.float64)
    known = {}
    for h, r, t in set(map(tuple, store.triples.tolist())) | set(test):
        known.setdefault((h, r), set()).add(t)
    ranks = []
    for h, r, t in test:
        target = np.abs(ent[h] + rel[r] - ent[t]).sum()
        count = 0
        for e in range(store.n_entities):
            if e != t and e in known[(h, r)]:
                continue
            if np.abs(ent[h] + rel[r] - ent[e]).sum() <= target:
                count += 1
        ranks.append(count)
    return np.asarray(ranks)


def adversarial_setup(dtype):
    """Candidates that tie or nearly tie the target of tail e01 in a d = 64 table.

    e00 + r2 is 0.25 in every coordinate, so rows permuting e01 have the
    target's |q - e| entries in another order. e02 and e03 duplicate e01,
    e04-e09 move one coordinate of it by one ulp of dtype either way,
    e10-e13 permute it, e14-e16 hold a NaN, +inf or -inf coordinate and e17
    overflows a float32 sum.
    """
    rng = np.random.default_rng(23)
    d = 64
    rows = [(f"e{i:02d}", "r0", f"e{i + 1:02d}") for i in range(39)]
    rows += [("e00", "r1", "e02"), ("e05", "r1", "e01"), ("e00", "r2", "e01"),
             ("e00", "r2", "e02"), ("e00", "r2", "e10"), ("e05", "r2", "e03")]
    store = store_of(rows)
    ent = rng.normal(scale=0.3, size=(40, d)).astype(dtype)
    rel = rng.normal(scale=0.3, size=(3, d)).astype(dtype)
    ent[0], rel[2] = 0.25, 0.0
    target = ent[1]
    ent[2] = ent[3] = target
    for i, (j, toward) in enumerate([(0, np.inf), (0, -np.inf), (17, np.inf),
                                     (17, -np.inf), (63, np.inf), (63, -np.inf)]):
        ent[4 + i] = target
        ent[4 + i, j] = np.nextafter(target[j], dtype(toward))
    for i in range(10, 14):
        ent[i] = rng.permutation(target)
    for i, bad in zip((14, 15, 16), (np.nan, np.inf, -np.inf)):
        ent[i] = target
        ent[i, 5] = bad
    ent[17, :4] = 3e38
    params = ModelParams(dim=d, entity_emb=ent, relation_emb=rel,
                         transfer=np.tile(np.eye(d, dtype=dtype), (3, 1, 1)))
    # tails: the target, a duplicate, a NaN row (rank 0) and a +inf row whose
    # (head, relation) has no other known tail (every finite row ties it)
    test = [(0, 2, 1), (5, 1, 1), (5, 2, 1), (5, 1, 2), (0, 2, 3), (3, 0, 4),
            (0, 2, 14), (7, 2, 15), (20, 0, 21), (9, 1, 30)]
    return params, store, test


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_ranks_match_oracle_on_near_ties(dtype):
    params, store, test = adversarial_setup(dtype)
    got = link_prediction_ranks(params, store, test)
    np.testing.assert_array_equal(got, oracle_ranks(params, store, test))


def test_filtered_tails_never_count_at_infinite_target():
    # every score is 0 except the target's, which is +inf; the known tail c
    # of (a, r) must be left out under the filter, not tie the target
    store = store_of([("a", "r", "b"), ("a", "r", "c"), ("c", "r", "d")])
    ent = np.zeros((4, 3), dtype=np.float32)
    ent[store.entities.id("b"), 0] = np.inf
    params = ModelParams(dim=3, entity_emb=ent, relation_emb=np.zeros((1, 3), dtype=np.float32),
                         transfer=np.eye(3, dtype=np.float32)[None])
    test = [(store.entities.id("a"), store.relations.id("r"), store.entities.id("b"))]
    got = link_prediction_ranks(params, store, test)
    np.testing.assert_array_equal(got, [3])
    np.testing.assert_array_equal(got, oracle_ranks(params, store, test))


@pytest.fixture
def ranking_setup(rng):
    graph = random_graph(rng)
    n_e, n_r = graph.n_entities, graph.n_relations
    # key runs at the edges of the key space: the last head and relation
    # with tails 0 and n_e - 1, and the first head and relation with tail 0
    edges = [(n_e - 1, n_r - 1, 0), (n_e - 1, n_r - 1, n_e - 1), (0, 0, 0)]
    store = TripleStore(entities=graph.entities, relations=graph.relations,
                        triples=[*map(tuple, graph.triples.tolist()), *edges],
                        category_of={}, relation_counts={})
    params = init_params(store.n_entities, store.n_relations, 4, rng)
    test = list(map(tuple, store.triples[::3].tolist()))
    for h, r, t in store.triples[1::5].tolist():
        cand = (h, r, (t + 1) % store.n_entities)
        if cand not in set(map(tuple, store.triples.tolist())):
            test.append(cand)
    # stored and unstored tests in the edge runs, and the last key of all
    test += [*edges, (n_e - 1, n_r - 1, 1), (0, 0, n_e - 1), (n_e - 1, n_r - 2, n_e - 1)]
    return params, store, test


def test_ranks_match_exhaustive_oracle(ranking_setup):
    params, store, test = ranking_setup
    got = link_prediction_ranks(params, store, test)
    np.testing.assert_array_equal(got, oracle_ranks(params, store, test))


def test_ties_count_against_the_target(toy_store):
    # all-equal embeddings make every candidate tie: the pessimistic rank is n
    # less the other known tails of (h, r), which the filter leaves out
    n = toy_store.n_entities
    params = ModelParams(
        dim=3,
        entity_emb=np.zeros((n, 3), dtype=np.float32),
        relation_emb=np.zeros((toy_store.n_relations, 3), dtype=np.float32),
        transfer=np.tile(np.eye(3, dtype=np.float32), (toy_store.n_relations, 1, 1)),
    )
    ent, rel = toy_store.entities.id, toy_store.relations.id
    # (apple, color) has two known tails: red is stored, yellow is tested
    test = [(ent("apple"), rel("color"), ent("red")), (ent("apple"), rel("tastes"), ent("sweet")),
            (ent("apple"), rel("color"), ent("yellow"))]
    ranks = link_prediction_ranks(params, toy_store, test)
    np.testing.assert_array_equal(ranks, [n - 1, n, n - 1])


def test_empty_test_set_rejected(ranking_setup):
    params, store, _ = ranking_setup
    with pytest.raises(ValueError, match="empty test set"):
        link_prediction_ranks(params, store, [])


def test_ids_outside_the_model_rejected(ranking_setup):
    # a store or test row the model's tables cannot index would otherwise
    # key into another (h, r) run, or wrap around as a negative index
    params, store, test = ranking_setup
    n_e, n_r = params.n_entities, params.n_relations
    wider = TripleStore(entities=store.entities, relations=store.relations,
                        triples=[(0, 0, n_e)], category_of={}, relation_counts={})
    for bad_store, bad_test in ((wider, test), (store, [(0, n_r, 0)]), (store, [(-1, 0, 0)])):
        with pytest.raises(ValueError, match=f"outside {n_e} entities and {n_r} relations"):
            link_prediction_ranks(params, bad_store, bad_test)


def test_link_prediction_metrics_consistent(ranking_setup):
    params, store, test = ranking_setup
    report = link_prediction(params, store, test)
    ranks = link_prediction_ranks(params, store, test)
    for k in (1, 3, 10):
        assert report.metrics[f"hit@{k}"] == pytest.approx(float((ranks <= k).mean()))
    assert report.metrics["mrr"] == pytest.approx(float((1.0 / ranks).mean()))
    assert report.sizes["n_test"] == len(test)
    assert report.task == "link_prediction"
    assert asdict(report)["config"] == {"filtered": True, "ks": [1, 3, 10]}


def test_relation_scores_match_loop(rng):
    # float32 tables as in a checkpoint, relations out of order and repeated;
    # the 1e-12 bound holds only if the scores are computed in float64
    params = init_params(8, 4, 5, rng)
    pairs = [(5, 3), (0, 1), (2, 3), (7, 0), (5, 1), (1, 3)]
    got = relation_scores(params, pairs)
    ent = params.entity_emb.astype(np.float64)
    rel = params.relation_emb.astype(np.float64)
    mats = params.transfer.astype(np.float64)
    for i, (h, r) in enumerate(pairs):
        want = np.abs(mats[r] @ ent[h] - rel[r]).sum()
        assert got[i] == pytest.approx(want, rel=1e-12)


def test_relation_scores_match_score_relation(rng):
    # float64 tables make the per-pair score_relation loop exact to 1e-12
    tables = init_params(8, 4, 5, rng)
    params = ModelParams(5, *(getattr(tables, name).astype(np.float64)
                              for name in ("entity_emb", "relation_emb", "transfer")))
    pairs = [(5, 3), (0, 1), (2, 3), (7, 0), (5, 1), (1, 3)]
    want = [score_relation(params, h, r) for h, r in pairs]
    np.testing.assert_allclose(relation_scores(params, pairs), want, rtol=1e-12)
    assert relation_scores(params, [(6, 2)])[0] == pytest.approx(score_relation(params, 6, 2),
                                                                 rel=1e-12)


def threshold_loop(scores, labels):
    """One accuracy per candidate; the first strictly better one wins."""
    uniq = np.unique(scores)
    mids = (uniq[:-1] + uniq[1:]) / 2.0 if len(uniq) > 1 else np.empty(0)
    best_acc, best_thr = -1.0, None
    for thr in np.concatenate([[uniq[0] - 1.0], mids, [uniq[-1] + 1.0]]):
        acc = float(((scores <= thr) == labels).mean())
        if acc > best_acc:
            best_acc, best_thr = acc, float(thr)
    return best_thr


@pytest.mark.parametrize("case", ["random", "rounded", "tied", "nan"])
def test_threshold_matches_loop(rng, case):
    for n in (1, 2, 7, 100):  # n = 1 is a single-value input
        scores = {"random": rng.normal(size=n), "rounded": rng.integers(0, 4, n) / 2.0,
                  "tied": np.full(n, 1.5),
                  "nan": np.where(rng.random(n) < 0.3, np.nan, rng.normal(size=n))}[case]
        for labels in (rng.random(n) < 0.5, np.ones(n, bool), np.zeros(n, bool)):
            assert choose_threshold(scores, labels) == threshold_loop(scores, labels)


def test_threshold_separable_case():
    scores = np.array([1.0, 2.0, 3.0, 4.0])
    labels = np.array([True, True, False, False])
    assert choose_threshold(scores, labels) == pytest.approx(2.5)


def test_threshold_ties_pick_smallest():
    # inverted labels: below-range and above-range both give accuracy 0.5
    thr = choose_threshold(np.array([1.0, 2.0]), np.array([False, True]))
    assert thr == pytest.approx(0.0)


def test_threshold_never_beaten_by_random_cut(rng):
    scores = rng.normal(size=40)
    labels = rng.random(40) < 0.5
    if labels.all() or not labels.any():
        labels[0] = not labels[0]
    thr = choose_threshold(scores, labels)
    best = ((scores <= thr) == labels).mean()
    for cut in rng.normal(scale=2.0, size=200):
        assert ((scores <= cut) == labels).mean() <= best + 1e-12


def separable_params():
    ent = np.array(
        [[0.1, 0.1], [5.0, 5.0], [0.1, 0.1], [5.0, 5.0],
         [0.1, 0.1], [5.0, 5.0], [0.1, 0.1], [5.0, 5.0]],
        dtype=np.float32,
    )
    rel = np.zeros((1, 2), dtype=np.float32)
    transfer = np.eye(2, dtype=np.float32)[None]
    return ModelParams(dim=2, entity_emb=ent, relation_emb=rel, transfer=transfer)


def test_existence_prediction_on_separable_scores():
    params = separable_params()
    pairs = np.array([(e, 0) for e in range(8)])
    report = existence_prediction(params, pairs, pairs[:, 0] % 2 == 0)
    assert report.metrics["accuracy"] == 1.0
    assert report.metrics["mean_score_present"] == pytest.approx(0.2)
    assert report.metrics["mean_score_absent"] == pytest.approx(10.0)
    assert report.metrics["separation_ratio"] == pytest.approx(50.0)
    assert report.metrics["threshold"] == pytest.approx(5.1)
    assert report.sizes["n_validation"] == 4
    assert report.sizes["n_test"] == 4
    assert report.sizes["n_positive"] == 4


def test_existence_prediction_rejects_degenerate_inputs():
    params = separable_params()
    with pytest.raises(ValueError, match="empty pair set"):
        existence_prediction(params, np.zeros((0, 2), np.int64), np.zeros(0, bool))
    with pytest.raises(ValueError, match="single-class pair set"):
        existence_prediction(params, np.array([(0, 0), (1, 0)]), np.array([True, True]))
    with pytest.raises(ValueError, match="need >= 2 pairs per class"):
        existence_prediction(params, np.array([(0, 0), (1, 0), (3, 0), (5, 0)]),
                             np.array([True, False, False, False]))
