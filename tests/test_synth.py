import numpy as np
import pytest

from pkgm import synth


def idx(token):
    return int(token[1:])


def test_planted_rule_holds_everywhere():
    kg = synth.planted_kg()
    for h, r, t in kg.relation_triples:
        assert idx(t) == idx(h) + idx(r)


def test_first_power_covers_all_eligible_heads():
    kg = synth.planted_kg(n_entities=100, powers=(2, 5), coverage=0.5)
    assert kg.covered["r2"] == {f"e{i:03d}" for i in range(98)}


def test_every_entity_appears_in_some_triple():
    kg = synth.planted_kg()
    seen = {h for h, _, _ in kg.triples} | {t for _, _, t in kg.triples}
    assert seen == set(kg.entity_tokens)


def test_windows_are_contiguous_with_requested_width():
    kg = synth.planted_kg(n_entities=100, powers=(1, 4, 10), coverage=0.6, seed=7)
    for j in (4, 10):
        heads = sorted(idx(h) for h in kg.covered[f"r{j}"])
        assert heads == list(range(heads[0], heads[-1] + 1))
        assert len(heads) == round(0.6 * (100 - j))
        assert heads[-1] + j <= 99  # never wraps the orbit


def test_covered_matches_emitted_triples():
    kg = synth.planted_kg(n_entities=80, powers=(1, 3), coverage=0.4, seed=2)
    for rel in kg.relation_tokens:
        emitted = {h for h, r, _ in kg.relation_triples if r == rel}
        assert emitted == kg.covered[rel]


def test_categories_round_robin():
    kg = synth.planted_kg(n_entities=40, powers=(1,), n_categories=4)
    cats = [(h, t) for h, r, t in kg.triples if r == "isA"]
    assert len(cats) == 40
    assert {t for _, t in cats} == {"c0", "c1", "c2", "c3"}
    for h, t in cats:
        assert t == f"c{idx(h) % 4}"


def test_generator_deterministic_per_seed():
    a = synth.planted_kg(n_entities=100, coverage=0.5, powers=(1, 9), seed=5)
    b = synth.planted_kg(n_entities=100, coverage=0.5, powers=(1, 9), seed=5)
    c = synth.planted_kg(n_entities=100, coverage=0.5, powers=(1, 9), seed=6)
    assert a.triples == b.triples
    assert a.covered != c.covered


@pytest.mark.parametrize(
    "kwargs,msg",
    [
        ({"coverage": 0.0}, "coverage"),
        ({"coverage": 1.5}, "coverage"),
        ({"powers": ()}, "powers"),
        ({"powers": (1, 1)}, "powers"),
        ({"powers": (0, 2)}, "powers"),
        ({"n_entities": 10, "powers": (1, 10)}, "needs more"),
    ],
)
def test_planted_kg_validation(kwargs, msg):
    with pytest.raises(ValueError, match=msg):
        synth.planted_kg(**kwargs)


def test_split_is_a_partition():
    kg = synth.planted_kg(n_entities=60, powers=(1, 2, 3))
    train, held = synth.split_triples(kg.relation_triples, 0.1, seed=3)
    assert len(held) == round(0.1 * len(kg.relation_triples))
    assert sorted(train + held) == sorted(kg.relation_triples)
    assert not set(train) & set(held)
    train2, held2 = synth.split_triples(kg.relation_triples, 0.1, seed=3)
    assert held == held2


def test_split_rejects_bad_fraction():
    with pytest.raises(ValueError, match="holdout_frac"):
        synth.split_triples([("a", "r", "b")], 0.0)
    with pytest.raises(ValueError, match="holdout_frac"):
        synth.split_triples([("a", "r", "b")], 1.0)


def test_preference_dataset_shape():
    data = synth.preference_dataset(n_users=50, n_items=80, seed=1)
    assert len(data.user_tokens) == 50
    assert len(data.item_tokens) == 80
    assert len(data.kg_triples) == 80 * 3  # attr_a, attr_b, isA per item
    assert len(data.interactions) == 50 * 8
    by_user = {}
    for user, item, order in data.interactions:
        by_user.setdefault(user, []).append((order, item))
        assert item in set(data.item_tokens)
    for user, rows in by_user.items():
        assert sorted(o for o, _ in rows) == list(range(8))


def test_held_out_interaction_matches_preference():
    data = synth.preference_dataset(n_users=50, n_items=80, seed=1)
    triple_set = set(data.kg_triples)
    last = {}
    for user, item, order in data.interactions:
        if order == 7:
            last[user] = item
    for user, (rel, value) in data.preferences.items():
        assert (last[user], rel, value) in triple_set


def test_train_interactions_mostly_preferred():
    data = synth.preference_dataset(n_users=100, n_items=120, seed=0)
    triple_set = set(data.kg_triples)
    hits = total = 0
    for user, item, order in data.interactions:
        if order == 7:
            continue
        rel, value = data.preferences[user]
        hits += (item, rel, value) in triple_set
        total += 1
    assert hits / total > 0.8


def test_preference_dataset_rejects_thin_pools():
    with pytest.raises(ValueError, match="pools too small"):
        synth.preference_dataset(n_users=5, n_items=10, n_values=8, seed=0)
