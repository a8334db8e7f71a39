import dataclasses

import numpy as np
import pytest

from pkgm import synth, trainer
from pkgm.kgstore import store_from_triples
from pkgm.model import gradients, init_params, score_combined
from pkgm.trainer import TrainConfig, hinge_loss, sample_negative, train


def test_hinge_values():
    assert hinge_loss(2.0, 5.0, 1.0) == 0.0
    assert hinge_loss(2.0, 2.5, 1.0) == pytest.approx(0.5)
    assert hinge_loss(3.0, 1.0, 1.0) == pytest.approx(3.0)


@pytest.mark.parametrize(
    "kwargs,msg",
    [
        ({"dim": 0}, "dim must be positive"),
        ({"margin": 0.0}, "margin must be positive"),
        ({"learning_rate": 0.0}, "learning_rate must be positive"),
        ({"batch_size": 0}, "batch_size must be positive"),
        ({"epochs": -1}, "epochs must be >= 0"),
        ({"negatives_per_positive": 0}, "negatives_per_positive must be positive"),
        ({"corrupt_relation_prob": 1.5}, "corrupt_relation_prob must be in"),
    ],
)
def test_config_validation(kwargs, msg):
    with pytest.raises(ValueError, match=msg):
        TrainConfig(**kwargs).validate()


def test_negative_differs_in_exactly_one_slot(toy_store):
    rng = np.random.default_rng(2)
    pos = toy_store.triples[0]
    for _ in range(300):
        neg = sample_negative(toy_store, pos, rng)
        assert neg not in toy_store.triple_set
        assert sum(a != b for a, b in zip(neg, pos)) == 1


def test_negative_slot_frequencies():
    rng = np.random.default_rng(1)
    rows = {
        (f"e{rng.integers(30)}", f"r{rng.integers(5)}", f"e{rng.integers(30)}")
        for _ in range(60)
    }
    store = store_from_triples(sorted(rows))
    pos = store.triples[0]
    counts = [0, 0, 0]
    n = 3000
    for _ in range(n):
        neg = sample_negative(store, pos, rng, corrupt_relation_prob=0.5)
        slot = next(i for i in range(3) if neg[i] != pos[i])
        counts[slot] += 1
    for slot, p in ((0, 0.25), (1, 0.5), (2, 0.25)):
        sigma = (n * p * (1 - p)) ** 0.5
        assert abs(counts[slot] - n * p) < 3 * sigma, counts


def test_negative_falls_back_when_all_candidates_positive():
    # every one-slot corruption is itself stored, so the filter must give up
    rows = [("a", "r", "a"), ("a", "r", "b"), ("b", "r", "a"), ("b", "r", "b")]
    store = store_from_triples(rows)
    rng = np.random.default_rng(0)
    neg = sample_negative(store, store.triples[0], rng)
    assert neg in store.triple_set
    assert neg != store.triples[0]


def test_negative_impossible_on_single_triple_self_loop():
    store = store_from_triples([("a", "r", "a")])
    with pytest.raises(ValueError, match="no corrupted triple"):
        sample_negative(store, store.triples[0], np.random.default_rng(0))


# relations out of order and repeated, a batch of one row, a batch where
# relation 2 of 4 is absent, and one whose relations are all distinct
# (the one-row-per-relation grouping that bundle queries use)
BATCHES = [
    ([0, 3, 5, 7, 2, 0], [1, 0, 3, 2, 3, 1], [2, 4, 8, 1, 6, 2]),
    ([4], [2], [7]),
    ([0, 3, 5, 0, 8], [3, 0, 3, 1, 0], [2, 4, 8, 2, 1]),
    ([6, 1, 4], [3, 0, 2], [0, 5, 7]),
]


def test_batch_terms_match_single_scores(rng):
    params = init_params(9, 4, 6, rng)
    for hs, rs, ts in BATCHES:
        scores = trainer._batch_terms(params, np.array(hs), np.array(rs), np.array(ts))[0]
        assert scores.shape == (len(hs),)
        for i in range(len(hs)):
            want = score_combined(params, hs[i], rs[i], ts[i]).value
            assert scores[i] == pytest.approx(want, rel=1e-6)


def test_batched_gradients_match_per_triple(rng):
    params = init_params(9, 4, 6, rng)
    for hs, rs, ts in BATCHES:
        weight = np.resize(np.array([0.5, -0.25, 0.0, 1.0], dtype=np.float32), len(hs))
        hs, rs, ts = np.array(hs), np.array(rs), np.array(ts)
        terms = trainer._batch_terms(params, hs, rs, ts)
        got = {
            "entity_emb": np.zeros_like(params.entity_emb),
            "relation_emb": np.zeros_like(params.relation_emb),
            "transfer": np.zeros_like(params.transfer),
        }
        trainer._accumulate(got, params, hs, rs, ts, terms, weight)

        want = {k: np.zeros_like(v) for k, v in got.items()}
        for i in range(len(hs)):
            g = gradients(params, int(hs[i]), int(rs[i]), int(ts[i]))
            want["entity_emb"][hs[i]] += weight[i] * g.d_head
            want["entity_emb"][ts[i]] += weight[i] * g.d_tail
            want["relation_emb"][rs[i]] += weight[i] * g.d_relation
            want["transfer"][rs[i]] += weight[i] * g.d_transfer
        for name in got:
            np.testing.assert_allclose(got[name], want[name], rtol=1e-5, atol=1e-6)
        for r in set(range(params.n_relations)) - set(rs.tolist()):
            assert not got["transfer"][r].any()  # an absent relation gets exactly zero


def planted_store(n_entities=20):
    kg = synth.planted_kg(n_entities=n_entities, powers=(1, 2), coverage=1.0, seed=0)
    return store_from_triples(kg.triples)


def test_zero_epochs_returns_untouched_init():
    store = planted_store()
    config = TrainConfig(dim=5, epochs=0, seed=9)
    params, report = train(store, config)
    want = init_params(store.n_entities, store.n_relations, 5,
                       np.random.default_rng(9))
    np.testing.assert_array_equal(params.entity_emb, want.entity_emb)
    np.testing.assert_array_equal(params.transfer, want.transfer)
    assert report.epoch_losses == []


def test_training_is_deterministic():
    store = planted_store()
    config = TrainConfig(dim=8, learning_rate=1e-2, batch_size=8, epochs=3, seed=4)
    a, _ = train(store, config)
    b, _ = train(store, dataclasses.replace(config))
    np.testing.assert_array_equal(a.entity_emb, b.entity_emb)
    np.testing.assert_array_equal(a.relation_emb, b.relation_emb)
    np.testing.assert_array_equal(a.transfer, b.transfer)


def test_loss_decreases_and_report_filled():
    store = planted_store()
    config = TrainConfig(dim=8, learning_rate=2e-2, batch_size=8, epochs=20, seed=0)
    params, report = train(store, config)
    assert len(report.epoch_losses) == 20
    assert report.epoch_losses[-1] < report.epoch_losses[0]
    assert report.wall_time_s > 0
    assert report.config["dim"] == 8
    norms = np.linalg.norm(params.entity_emb, axis=1)
    assert norms.max() <= 1.0 + 1e-6


def test_report_records_phases_and_active_fraction():
    store = planted_store()
    config = TrainConfig(dim=8, learning_rate=2e-2, batch_size=8, epochs=5,
                         negatives_per_positive=2, seed=0)
    _, report = train(store, config)
    assert len(report.active_fraction) == 5
    assert all(0.0 <= f <= 1.0 for f in report.active_fraction)
    assert set(report.phase_s) == set(trainer.PHASES)
    assert all(v >= 0.0 for v in report.phase_s.values())
    assert sum(report.phase_s.values()) <= report.wall_time_s

    # no negative can clear a margin this wide, so every hinge is active
    _, wide = train(store, dataclasses.replace(config, margin=1e6))
    assert wide.active_fraction == [1.0] * 5


def test_empty_store_rejected(toy_store):
    empty = dataclasses.replace(toy_store, triples=[], triple_set=frozenset())
    with pytest.raises(ValueError, match="no triples"):
        train(empty, TrainConfig())


def test_exploding_run_raises_instead_of_returning_garbage():
    store = planted_store()
    config = TrainConfig(dim=5, learning_rate=1e39, batch_size=8, epochs=2, seed=0)
    with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="non-finite loss"):
        train(store, config)
