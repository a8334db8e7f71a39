import dataclasses
import tracemalloc

import numpy as np
import pytest

from oracles import accumulate_add_at, batch_order_terms, gradients, score_combined, store_of
from pkgm import synth, trainer
from pkgm.model import init_params
from pkgm.optim import SCRATCH_BYTES
from pkgm.trainer import TrainConfig, sample_negative, train


P_REL = TrainConfig.corrupt_relation_prob  # the relation-slot share train uses by default


def hinge_loss(pos_score: float, neg_score: float, margin: float) -> float:
    return max(0.0, pos_score + margin - neg_score)


def sample_negative_oracle(store, positive, rng, corrupt_relation_prob=P_REL):
    """Per-triple reference for trainer.sample_negative (one row per call)."""
    h, r, t = positive
    n_e = store.n_entities
    n_r = store.n_relations
    if n_e < 2 and n_r < 2:
        raise ValueError("store admits no corrupted triple")
    # only a slot with two or more values is drawn
    p = 0.0 if n_r < 2 else 1.0 if n_e < 2 else corrupt_relation_prob
    known = set(map(tuple, store.triples.tolist()))
    for _ in range(100):
        u = rng.random()
        if u < p:
            slot, orig, size = 1, r, n_r
        elif u < p + (1.0 - p) / 2.0:
            slot, orig, size = 0, h, n_e
        else:
            slot, orig, size = 2, t, n_e
        repl = int(rng.integers(size - 1))
        if repl >= orig:
            repl += 1
        cand = tuple(repl if i == slot else v for i, v in enumerate(positive))
        if cand not in known:
            break
    return cand


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


@pytest.mark.parametrize("field", ["margin", "learning_rate"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
        TrainConfig(**{field: value}).validate()


def repeated_positives(store, n=3000):
    return np.resize(store.triples, (n, 3))


def test_negative_differs_in_exactly_one_slot(toy_store):
    pos = repeated_positives(toy_store)
    neg = sample_negative(toy_store, pos, np.random.default_rng(2), P_REL)
    assert neg.shape == pos.shape and neg.dtype == np.int64
    assert ((neg != pos).sum(axis=1) == 1).all()
    assert set(map(tuple, neg.tolist())).isdisjoint(map(tuple, toy_store.triples.tolist()))


def slot_counts(pos, neg):
    return np.bincount(np.argmax(neg != pos, axis=1), minlength=3)


def random_store():
    rng = np.random.default_rng(1)
    rows = {
        (f"e{rng.integers(30)}", f"r{rng.integers(5)}", f"e{rng.integers(30)}")
        for _ in range(60)
    }
    return store_of(sorted(rows))


def test_negative_slot_frequencies():
    store = random_store()
    n = 3000
    pos = repeated_positives(store, n)
    neg = sample_negative(store, pos, np.random.default_rng(1), corrupt_relation_prob=0.5)
    counts = slot_counts(pos, neg)
    for slot, p in ((0, 0.25), (1, 0.5), (2, 0.25)):
        sigma = (n * p * (1 - p)) ** 0.5
        assert abs(counts[slot] - n * p) < 3 * sigma, counts


def test_negatives_match_scalar_oracle_in_distribution():
    # same support (every one-slot corruption that is not stored) and slot
    # shares within 3 sigma of the per-triple reference's
    store = random_store()
    positive = tuple(store.triples[0].tolist())
    n = 3000
    neg = sample_negative(store, np.tile(positive, (n, 1)), np.random.default_rng(3), P_REL)
    rng = np.random.default_rng(4)
    want = np.array([sample_negative_oracle(store, positive, rng) for _ in range(n)])
    h, r, t = positive
    support = {(e, r, t) for e in range(store.n_entities) if e != h}
    support |= {(h, rr, t) for rr in range(store.n_relations) if rr != r}
    support |= {(h, r, e) for e in range(store.n_entities) if e != t}
    support -= set(map(tuple, store.triples.tolist()))
    assert {tuple(row) for row in neg.tolist()} == support
    assert {tuple(row) for row in want.tolist()} == support
    got_counts = slot_counts(np.tile(positive, (n, 1)), neg)
    want_counts = slot_counts(np.tile(positive, (n, 1)), want)
    for slot in range(3):
        p = want_counts[slot] / n
        assert abs(got_counts[slot] - want_counts[slot]) < 3 * (2 * n * p * (1 - p)) ** 0.5


def test_negative_falls_back_when_all_candidates_positive():
    # every one-slot corruption is itself stored, so the filter must give up
    rows = [("a", "r", "a"), ("a", "r", "b"), ("b", "r", "a"), ("b", "r", "b")]
    store = store_of(rows)
    pos = repeated_positives(store)
    neg = sample_negative(store, pos, np.random.default_rng(0), P_REL)
    stored = set(map(tuple, store.triples.tolist()))
    assert set(map(tuple, neg.tolist())) <= stored
    assert ((neg != pos).sum(axis=1) == 1).all()
    first = tuple(store.triples[0].tolist())
    want = sample_negative_oracle(store, first, np.random.default_rng(0))
    assert want in stored and want != first


def test_negative_degenerate_slots_take_first_other_value():
    # one entity: only the relation slot can change, so it is drawn whatever
    # corrupt_relation_prob says, and with two relations its one other value
    # is relation 1
    store = store_of([("a", "r", "a"), ("a", "q", "a")])
    pos = np.zeros((5, 3), dtype=np.int64)
    neg = sample_negative(store, pos, np.random.default_rng(0), corrupt_relation_prob=0.0)
    np.testing.assert_array_equal(neg, [[0, 1, 0]] * 5)
    assert sample_negative_oracle(store, (0, 0, 0), np.random.default_rng(0), 0.0) == (0, 1, 0)


def test_negative_one_relation_draws_entities_only():
    # one relation: even at corrupt_relation_prob 1 only head and tail are
    # drawn, so the filter sees many candidates per positive
    store = store_of([("a", "r", "b"), ("b", "r", "c"), ("c", "r", "d"),
                                ("d", "r", "e")])
    pos = np.repeat(store.triples, 50, axis=0)
    neg = sample_negative(store, pos, np.random.default_rng(0), corrupt_relation_prob=1.0)
    assert ((neg != pos).sum(axis=1) == 1).all()
    assert set(map(tuple, neg.tolist())).isdisjoint(map(tuple, store.triples.tolist()))
    for block in neg.reshape(len(store.triples), 50, 3):
        assert len(set(map(tuple, block.tolist()))) > 1


def test_negative_one_entity_draws_every_other_relation():
    # one entity: even at corrupt_relation_prob 0 only the relation is drawn,
    # uniformly over the other two; every candidate is stored, so each row
    # keeps its last one
    store = store_of([("a", "r", "a"), ("a", "q", "a"), ("a", "s", "a")])
    pos = np.zeros((200, 3), dtype=np.int64)
    neg = sample_negative(store, pos, np.random.default_rng(0), corrupt_relation_prob=0.0)
    assert (neg[:, [0, 2]] == 0).all()
    assert set(neg[:, 1].tolist()) == {1, 2}


def test_negative_impossible_on_single_triple_self_loop():
    store = store_of([("a", "r", "a")])
    pos = repeated_positives(store)
    with pytest.raises(ValueError, match="no corrupted triple"):
        sample_negative(store, pos, np.random.default_rng(0), P_REL)
    with pytest.raises(ValueError, match="no corrupted triple"):
        sample_negative_oracle(store, store.triples[0], np.random.default_rng(0))
    # with no row to corrupt there is nothing to refuse
    assert sample_negative(store, pos[:0], np.random.default_rng(0), P_REL).shape == (0, 3)


def test_negatives_drawn_once_per_epoch_after_positives(monkeypatch):
    # train looks the sampler up as a module global, once per epoch, on
    # np.repeat(positives, neg_k): negatives of positive p sit at rows
    # p*neg_k .. p*neg_k + neg_k - 1
    store = planted_store()
    calls = []
    original = trainer.sample_negative

    def spy(store_, positives, *args, **kwargs):
        out = original(store_, positives, *args, **kwargs)
        calls.append((positives.copy(), out))
        return out

    monkeypatch.setattr(trainer, "sample_negative", spy)
    config = TrainConfig(dim=4, batch_size=7, epochs=3, negatives_per_positive=3, seed=2)
    train(store, config)
    assert len(calls) == 3
    n = len(store.triples)
    for positives, negatives in calls:
        assert positives.shape == (3 * n, 3)
        blocks = positives.reshape(n, 3, 3)
        assert (blocks == blocks[:, :1]).all()
        assert sorted(map(tuple, blocks[:, 0].tolist())) == sorted(map(tuple, store.triples.tolist()))
        assert ((negatives != positives).sum(axis=1) == 1).all()


def test_epoch_loss_matches_oracle_hinge():
    # one step per epoch: the first epoch's loss is the mean oracle hinge at
    # the initial parameters over the replayed shuffle and negatives
    store = planted_store()
    config = TrainConfig(dim=6, margin=2.0, batch_size=10_000, epochs=1,
                         negatives_per_positive=2, seed=5)
    _, report = train(store, config)
    rng = np.random.default_rng(config.seed)
    params = init_params(store.n_entities, store.n_relations, config.dim, rng)
    stored = np.asarray(store.triples, dtype=np.int64)
    pos = np.repeat(stored[rng.permutation(len(stored))], 2, axis=0)
    neg = sample_negative(store, pos, rng, config.corrupt_relation_prob)
    losses = [
        hinge_loss(score_combined(params, *map(int, p)).value,
                   score_combined(params, *map(int, q)).value, config.margin)
        for p, q in zip(pos, neg)
    ]
    assert report.epoch_losses[0] == pytest.approx(np.mean(losses), rel=1e-5)


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


def test_batch_terms_are_the_batch_order_terms_in_relation_order(rng):
    params = init_params(9, 4, 6, rng)
    for hs, rs, ts in BATCHES:
        hs, rs, ts = np.array(hs), np.array(rs), np.array(ts)
        terms = trainer._batch_terms(params, hs, rs, ts)
        scores, diff, resid = batch_order_terms(params, hs, rs, ts)
        assert np.array_equal(terms.order, np.argsort(rs, kind="stable"))
        assert np.array_equal(terms.heads, hs[terms.order])
        assert terms.scores.tobytes() == scores.tobytes()
        assert terms.diff.tobytes() == diff[terms.order].tobytes()
        assert terms.resid.tobytes() == resid[terms.order].tobytes()


def zero_grads(params):
    return {name: np.zeros_like(getattr(params, name))
            for name in ("entity_emb", "relation_emb", "transfer")}


def test_batched_gradients_match_per_triple(rng):
    params = init_params(9, 4, 6, rng)
    for hs, rs, ts in BATCHES:
        weight = np.resize(np.array([0.5, -0.25, 0.0, 1.0], dtype=np.float32), len(hs))
        hs, rs, ts = np.array(hs), np.array(rs), np.array(ts)
        terms = trainer._batch_terms(params, hs, rs, ts)
        got = zero_grads(params)
        trainer._accumulate(got, params, hs, ts, terms, weight)

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


def mixed_weights(rng, n):
    # magnitudes over twelve decades, so a different addition order shows in the bits
    return (rng.standard_normal(n) * 10.0 ** rng.integers(-6, 7, n)).astype(np.float32)


def assert_accumulate_is_add_at_form(params, hs, rs, ts, weight):
    hs, rs, ts = np.asarray(hs), np.asarray(rs), np.asarray(ts)
    got, want = zero_grads(params), zero_grads(params)
    trainer._accumulate(got, params, hs, ts, trainer._batch_terms(params, hs, rs, ts), weight)
    accumulate_add_at(want, params, hs, rs, ts, weight)
    for name in got:
        assert np.array_equal(got[name].view(np.uint32), want[name].view(np.uint32)), name
    return got


def test_accumulate_is_bit_equal_to_add_at_form_on_batches(rng):
    params = init_params(9, 4, 6, rng)
    for hs, rs, ts in BATCHES:
        assert_accumulate_is_add_at_form(params, hs, rs, ts, mixed_weights(rng, len(hs)))


def test_accumulate_is_bit_equal_to_add_at_form_on_planted_kg_batch(rng):
    kg = synth.planted_kg(n_entities=2000, n_categories=20, seed=4)
    store = store_of(kg.triples)
    params = init_params(store.n_entities, store.n_relations, 64, rng)
    triples = np.asarray(store.triples, dtype=np.int64)
    pos = triples[rng.permutation(len(triples))[:1000]]
    rows = np.concatenate([pos, sample_negative(store, pos, rng, P_REL)])
    assert_accumulate_is_add_at_form(params, rows[:, 0], rows[:, 1], rows[:, 2],
                                     mixed_weights(rng, len(rows)))


@pytest.mark.parametrize("dim", [1, 2, 6])
def test_accumulate_is_bit_equal_to_add_at_form_on_group_sizes(rng, dim):
    # relations 0, 1, 2 and 4 hold 1, 2, 17 and 1,100 rows; relation 3 is absent
    rs = rng.permutation(np.repeat([0, 1, 2, 4], [1, 2, 17, 1100]))
    hs, ts = rng.integers(0, 50, len(rs)), rng.integers(0, 50, len(rs))
    params = init_params(50, 5, dim, rng)
    got = assert_accumulate_is_add_at_form(params, hs, rs, ts, mixed_weights(rng, len(rs)))
    assert not got["relation_emb"][3].any() and not got["transfer"][3].any()


def planted_store(n_entities=20):
    kg = synth.planted_kg(n_entities=n_entities, powers=(1, 2), coverage=1.0, seed=0)
    return store_of(kg.triples)


def test_projection_is_bit_equal_to_whole_table_form_in_small_blocks(rng):
    # 3.5 blocks of rows; about half the rows lie outside the unit ball
    rows = 7 * SCRATCH_BYTES // (2 * 64 * 4)
    table = (rng.standard_normal((rows, 64)) * rng.uniform(0.05, 0.25, (rows, 1)))
    table = table.astype(np.float32)
    want = table.copy()
    norms = np.linalg.norm(want, axis=1)
    want[norms > 1.0] /= norms[norms > 1.0, None]
    tracemalloc.start()
    try:
        trainer._project_entity_rows(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(table.view(np.uint32), want.view(np.uint32))
    assert peak <= 2 * SCRATCH_BYTES + (1 << 16)  # one block's norms and gathered rows


def test_steps_hold_four_model_buffers_and_one_batch(monkeypatch):
    # 400 relations make the transfer tensor most of the model, and 2,000
    # triples keep the epoch's order and negatives small next to one batch
    store = store_of([(f"e{i}", f"r{i % 400}", f"e{i + 1}") for i in range(2000)])
    config = TrainConfig(dim=32, batch_size=1000)
    train(store, config)  # numpy's lazy imports stay out of the count
    draw = trainer.sample_negative

    def peak_from_here(*args, **kwargs):
        tracemalloc.reset_peak()  # after the optimizer's copy: the epochs only
        return draw(*args, **kwargs)

    monkeypatch.setattr(trainer, "sample_negative", peak_from_here)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        params, _ = train(store, config)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    model = sum(table.nbytes for table in (params.entity_emb, params.relation_emb, params.transfer))
    block = 2 * config.batch_size * config.dim * 4  # one (B, d) float32 array of a batch
    # flat, grad, m and v; the optimizer's scratch; a batch's terms, sign rows,
    # scatter positions and the rest of its working set
    assert peak <= 4 * model + SCRATCH_BYTES + 8 * block, (peak / model, peak / block)


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
    empty = dataclasses.replace(toy_store, triples=[])
    with pytest.raises(ValueError, match="no triples"):
        train(empty, TrainConfig())


def test_exploding_run_raises_instead_of_returning_garbage():
    store = planted_store()
    config = TrainConfig(dim=5, learning_rate=1e39, batch_size=8, epochs=2, seed=0)
    with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="non-finite loss"):
        train(store, config)
