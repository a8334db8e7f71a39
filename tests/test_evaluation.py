import numpy as np
import pytest

from oracles import score_relation
from pkgm import evaluation
from pkgm.evaluation import (
    choose_threshold,
    existence_prediction,
    link_prediction,
    link_prediction_ranks,
    relation_scores,
)
from pkgm.kgstore import store_from_triples
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
    return store_from_triples(sorted(rows))


def oracle_ranks(params, store, test, filtered):
    ent = params.entity_emb.astype(np.float64)
    rel = params.relation_emb.astype(np.float64)
    known = {}
    for h, r, t in store.triple_set | set(test):
        known.setdefault((h, r), set()).add(t)
    ranks = []
    for h, r, t in test:
        target = np.abs(ent[h] + rel[r] - ent[t]).sum()
        count = 0
        for e in range(store.n_entities):
            if filtered and e != t and e in known[(h, r)]:
                continue
            if np.abs(ent[h] + rel[r] - ent[e]).sum() <= target:
                count += 1
        ranks.append(count)
    return np.asarray(ranks)


@pytest.fixture
def ranking_setup(rng):
    store = random_graph(rng)
    params = init_params(store.n_entities, store.n_relations, 4, rng)
    test = list(store.triples[::3])
    for h, r, t in store.triples[1::5]:
        cand = (h, r, (t + 1) % store.n_entities)
        if cand not in store.triple_set:
            test.append(cand)
    return params, store, test


@pytest.mark.parametrize("filtered", [True, False])
def test_ranks_match_exhaustive_oracle(ranking_setup, filtered):
    params, store, test = ranking_setup
    got = link_prediction_ranks(params, store, test, filtered=filtered)
    np.testing.assert_array_equal(got, oracle_ranks(params, store, test, filtered))


def test_filtering_never_hurts_rank(ranking_setup):
    params, store, test = ranking_setup
    raw = link_prediction_ranks(params, store, test, filtered=False)
    filt = link_prediction_ranks(params, store, test, filtered=True)
    assert (filt <= raw).all()
    assert (filt >= 1).all()


def test_ties_count_against_the_target(toy_store):
    # all-equal embeddings make every candidate tie: pessimistic rank is n
    n = toy_store.n_entities
    params = ModelParams(
        dim=3,
        entity_emb=np.zeros((n, 3), dtype=np.float32),
        relation_emb=np.zeros((toy_store.n_relations, 3), dtype=np.float32),
        transfer=np.tile(np.eye(3, dtype=np.float32), (toy_store.n_relations, 1, 1)),
    )
    ranks = link_prediction_ranks(params, toy_store, toy_store.triples[:2],
                                  filtered=False)
    np.testing.assert_array_equal(ranks, [n, n])


def test_empty_test_set_rejected(ranking_setup):
    params, store, _ = ranking_setup
    with pytest.raises(ValueError, match="empty test set"):
        link_prediction_ranks(params, store, [])


def test_link_prediction_metrics_consistent(ranking_setup):
    params, store, test = ranking_setup
    report = link_prediction(params, store, test, ks=(1, 5))
    ranks = link_prediction_ranks(params, store, test, filtered=True)
    assert report.metrics["hit@1"] == pytest.approx(float((ranks <= 1).mean()))
    assert report.metrics["hit@5"] == pytest.approx(float((ranks <= 5).mean()))
    assert report.metrics["mrr"] == pytest.approx(float((1.0 / ranks).mean()))
    assert report.sizes["n_test"] == len(test)
    assert report.task == "link_prediction"
    assert report.as_dict()["config"]["ks"] == [1, 5]


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
    params = init_params(8, 4, 5, rng, dtype=np.float64)
    pairs = [(5, 3), (0, 1), (2, 3), (7, 0), (5, 1), (1, 3)]
    want = [score_relation(params, h, r) for h, r in pairs]
    np.testing.assert_allclose(relation_scores(params, pairs), want, rtol=1e-12)
    assert relation_scores(params, [(6, 2)])[0] == pytest.approx(score_relation(params, 6, 2),
                                                                 rel=1e-12)


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
    pairs = [(e, 0, e % 2 == 0) for e in range(8)]
    report = existence_prediction(params, None, pairs)
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
        existence_prediction(params, None, [])
    with pytest.raises(ValueError, match="single-class pair set"):
        existence_prediction(params, None, [(0, 0, True), (1, 0, True)])
    with pytest.raises(ValueError, match="need >= 2 pairs per class"):
        existence_prediction(
            params, None, [(0, 0, True), (1, 0, False), (3, 0, False), (5, 0, False)]
        )
