import os
import subprocess
import sys

import numpy as np
import pytest

from oracles import (
    four_table_backward,
    four_table_forward,
    four_table_init,
    interactions_from_rows,
    keyrel_table,
    predict,
)
from pkgm import downstream
from pkgm.downstream import (
    InteractionSet,
    RecConfig,
    RecModel,
    evaluate_leave_one_out,
    leave_one_out_ranks,
    leave_one_out_split,
    load_interactions,
    ndcg_at,
    service_table_for_items,
    train_recommender,
    write_interactions,
)
from pkgm.kgstore import Vocab, sorted_index
from pkgm.model import init_params
from pkgm.optim import Adam
from pkgm.servicing import build_bundle, condense_single


def test_interactions_file_round_trip(tmp_path):
    rows = [("u0", "i0", 0), ("u0", "i1", 1), ("u1", "i0", 0), ("u1", "i2", 1)]
    path = tmp_path / "inter.tsv"
    write_interactions(path, rows)
    data = load_interactions(path)
    assert data.n_users == 2
    assert data.n_items == 3
    decoded = [
        (data.users.token(u), data.items.token(i), o)
        for u, i, o in data.interactions
    ]
    assert decoded == rows


def test_interactions_file_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "inter.tsv"
    path.write_text("# header\nu0\ti0\t0\n\nu0\ti1\t1\n", encoding="utf-8")
    assert len(load_interactions(path).interactions) == 2


def test_interactions_file_errors(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("u0\ti0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="expected 3 TAB-separated fields"):
        load_interactions(bad)
    bad.write_text("u0\ti0\tfirst\n", encoding="utf-8")
    with pytest.raises(ValueError, match="order index must be an integer"):
        load_interactions(bad)
    bad.write_text("# nothing\n", encoding="utf-8")
    with pytest.raises(ValueError, match="no interactions"):
        load_interactions(bad)


@pytest.fixture
def item_bundle(rng):
    params = init_params(5, 3, 4, rng)
    table = keyrel_table({0: (0, 1), 1: (1, 2), 2: (0, 2)})
    bundle = build_bundle(params, table, "all")
    vocab = Vocab(["i0", "i1", "i2", "x", "y"])
    return bundle, vocab


def test_service_table_rows_follow_item_ids(item_bundle):
    bundle, vocab = item_bundle
    data = interactions_from_rows(
        [("u0", "i0", 0), ("u0", "i1", 1), ("u1", "i2", 0), ("u1", "i0", 1)]
    )
    table = service_table_for_items(data, bundle, vocab)
    assert table.shape == (3, 2 * bundle.dim)
    assert not table.flags.writeable
    np.testing.assert_array_equal(table, condense_single(bundle)[[0, 1, 2]])
    k = bundle.k
    for idx in range(3):
        # the per-entity mean, bit for bit
        (at,) = sorted_index(bundle.ids, [vocab.id(data.items.token(idx))])
        arr = bundle.block[at]
        np.testing.assert_array_equal(
            table[idx], np.concatenate([arr[:k], arr[k:]], axis=1).mean(axis=0))


def test_service_table_rejects_unserved_items(item_bundle):
    bundle, vocab = item_bundle
    data = interactions_from_rows([("u0", "x", 0), ("u0", "i0", 1)])
    with pytest.raises(ValueError, match="item 'x' has no service vector"):
        service_table_for_items(data, bundle, vocab)
    data = interactions_from_rows([("u0", "iz", 0), ("u0", "i0", 1)])
    with pytest.raises(ValueError, match="item 'iz' has no service vector"):
        service_table_for_items(data, bundle, vocab)


@pytest.mark.parametrize(
    "kwargs,msg",
    [
        ({"learning_rate": -1e-4}, "learning_rate"),
        ({"batch_size": -256}, "batch_size"),
        ({"learning_rate": 0.0}, "learning_rate"),
        ({"epochs": -1}, "epochs"),
        ({"batch_size": 0}, "batch_size"),
        ({"neg_ratio": -1}, "neg_ratio"),
    ],
)
def test_rec_config_validation(kwargs, msg):
    with pytest.raises(ValueError, match=msg):
        RecConfig(**kwargs).validate()


@pytest.mark.parametrize("field,msg", [("learning_rate", "learning_rate must be positive")])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_rec_config_rejects_non_finite(field, msg, value):
    with pytest.raises(ValueError, match=f"{msg} and finite"):
        RecConfig(**{field: value}).validate()


def block_interactions(n_users=24, n_items=18):
    """Users in block b interact with items in block b, plus one late holdout."""
    rows = []
    for u in range(n_users):
        block = u % 3
        items = [block * 6 + (u + j) % 6 for j in range(4)]
        rows.extend((f"u{u}", f"i{it}", j) for j, it in enumerate(items))
    return interactions_from_rows(rows)


def small_config(**overrides):
    base = dict(learning_rate=1e-3, epochs=12, batch_size=64, neg_ratio=2, seed=0)
    base.update(overrides)
    return RecConfig(**base)


def test_training_reduces_loss_and_is_deterministic():
    data = block_interactions()
    a = train_recommender(data, None, small_config())
    assert len(a.train_losses) == 12
    assert a.train_losses[-1] < a.train_losses[0]
    b = train_recommender(data, None, small_config())
    for name in a.params:
        np.testing.assert_array_equal(a.params[name], b.params[name])
    probs = predict(a, np.array([0, 1]), np.array([0, 5]))
    assert ((probs > 0) & (probs < 1)).all()


def test_zero_epochs_yields_initial_model():
    data = block_interactions()
    model = train_recommender(data, None, small_config(epochs=0))
    assert model.train_losses == []


def test_service_vectors_never_updated():
    data = block_interactions()
    rng = np.random.default_rng(5)
    service = rng.normal(size=(data.n_items, 6)).astype(np.float32)
    before = service.tobytes()
    model = train_recommender(data, service, small_config())
    assert model.service.tobytes() == before
    assert not model.service.flags.writeable
    assert service.tobytes() == before


def test_caller_service_table_stays_writable():
    data = block_interactions()
    service = np.zeros((data.n_items, 3), dtype=np.float32)
    model = train_recommender(data, service, small_config(epochs=0))
    assert service.flags.writeable
    assert not model.service.flags.writeable
    service[0, 0] = 1.0  # the model holds its own copy
    assert model.service[0, 0] == 0.0


def test_service_table_size_checked():
    data = block_interactions()
    service = np.zeros((data.n_items - 1, 6), dtype=np.float32)
    with pytest.raises(ValueError, match="service table has"):
        train_recommender(data, service, small_config())


def sample_unobserved_oracle(users, observed_sets, n_items, rng):
    """Reference for downstream._sample_unobserved over Python sets: each
    attempt draws one item for every open row, in row order; a row closes on
    an item its user has not seen, or keeps its draw of the 100th attempt."""
    items = [-1] * len(users)
    todo = list(range(len(users)))
    for _ in range(100):
        if not todo:
            break
        for i, j in zip(todo, rng.integers(n_items, size=len(todo)).tolist()):
            items[i] = j
        todo = [i for i in todo if items[i] in observed_sets[users[i]]]
    return items


def test_unobserved_sampler_skips_observed_items():
    n_items = 12
    # user 0 sparse, user 1 has seen all but items 10 and 11, user 2 all
    observed_sets = {0: {0, 3, 4}, 1: set(range(10)), 2: set(range(n_items))}
    keys = np.unique([u * n_items + i for u, items in observed_sets.items() for i in items])
    users = np.resize(np.array([0, 1, 2], dtype=np.int64), 3000)
    rng, oracle_rng = np.random.default_rng(0), np.random.default_rng(0)
    got = downstream._sample_unobserved(users, n_items, keys, rng)
    np.testing.assert_array_equal(got, sample_unobserved_oracle(users.tolist(), observed_sets,
                                                                n_items, oracle_rng))
    assert rng.integers(1 << 30) == oracle_rng.integers(1 << 30)  # no draw beyond the oracle's
    for u in (0, 1):
        assert set(got[users == u].tolist()) == set(range(n_items)) - observed_sets[u]
    # the dense user keeps its draws of the 100th attempt, seen items all
    assert set(got[users == 2].tolist()) <= observed_sets[2]


def test_unobserved_sampler_dense_fallback_returns_positive_when_alone():
    # a user who has seen the only item keeps its last draw, that item
    keys = np.array([0], dtype=np.int64)
    got = downstream._sample_unobserved(np.zeros(4, dtype=np.int64), 1, keys,
                                        np.random.default_rng(0))
    np.testing.assert_array_equal(got, [0, 0, 0, 0])
    assert sample_unobserved_oracle([0] * 4, {0: {0}}, 1, np.random.default_rng(0)) == [0] * 4


def test_recommender_draws_negatives_once_per_epoch(monkeypatch):
    data = block_interactions()
    calls = []
    original = downstream._sample_unobserved

    def spy(users, *args):
        out = original(users, *args)
        calls.append((users, out))
        return out

    monkeypatch.setattr(downstream, "_sample_unobserved", spy)
    train_recommender(data, None, small_config(epochs=3))
    assert len(calls) == 3
    pos = np.asarray(data.interactions)[:, :2]
    observed = set(map(tuple, pos.tolist()))
    for users, out in calls:
        np.testing.assert_array_equal(users, np.repeat(pos[:, 0], 2))
        assert not any((u, i) in observed for u, i in zip(users.tolist(), out.tolist()))


def test_segment_sum_matches_add_at_on_repeated_indices():
    # keys as a step makes them: column 0 user rows in [0, 5), column 1 item
    # rows in [5, 7); row 4 (the last user) and row 5 (the first item) are
    # both hit, so a bin that strayed across the boundary would show
    rng = np.random.default_rng(8)
    keys = np.stack([rng.integers(5, size=400), 5 + rng.integers(2, size=400)], axis=1)
    keys[:3] = [[4, 5], [4, 5], [0, 6]]
    rows = rng.normal(size=(400, 2, 6))
    want = np.zeros((9, 6), dtype=np.float32)
    np.add.at(want, keys[:, 0], rows[:, 0])
    np.add.at(want, keys[:, 1], rows[:, 1])
    # every row of out is written, the rows no key names with zeros
    got = np.full((9, 6), np.nan, dtype=np.float32)
    downstream._segment_sum(keys, rows, np.empty(rows.shape, dtype=np.int64), np.arange(6), got)
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)
    assert not got[7:].any()
    # each bin adds its rows in batch order, in float64: the per-table sums
    for side, table in ((0, range(5)), (1, range(5, 7))):
        for k in table:
            total = 0.0
            for row in rows[keys[:, side] == k, side]:
                total = total + row
            assert np.array_equal(got[k], np.float32(total)), (side, k)


def patch_widths(monkeypatch, *values):
    """Set the recommender's GMF_DIM, MLP_DIM, HIDDEN and L2 for one test."""
    for name, value in zip(("GMF_DIM", "MLP_DIM", "HIDDEN", "L2"), values, strict=True):
        monkeypatch.setattr(downstream, name, value)


# (n_users, n_items, service width, (config, widths and L2 or None for the
# constants)): ids repeated within a batch of 256, a 12-wide service table,
# batch 4 at odd widths without L2, and batches of 4 and 7 at the constants;
# each case steps a full batch, one of half its size and a full one again
REFERENCE_CASES = [
    (6, 9, 0, (RecConfig(), None)),
    (30, 40, 12, (RecConfig(seed=1), None)),
    (5, 7, 0, (RecConfig(batch_size=4), (3, 5, (7, 4), 0.0))),
    (5, 7, 0, (RecConfig(batch_size=4), None)),
    (6, 9, 0, (RecConfig(batch_size=4), None)),
    (30, 40, 12, (RecConfig(batch_size=4), None)),
    (30, 40, 12, (RecConfig(batch_size=7), None)),
]


@pytest.mark.parametrize("n_users, n_items, service_dim, config", REFERENCE_CASES)
def test_recommender_steps_bit_equal_to_four_tables(n_users, n_items, service_dim, config,
                                                    monkeypatch):
    config, widths = config
    if widths is not None:
        patch_widths(monkeypatch, *widths)
    rng = np.random.default_rng(config.seed)
    service = rng.normal(size=(n_items, service_dim)).astype(np.float32)
    new, old = (Adam(init(n_users, n_items, service_dim, np.random.default_rng(3)),
                     lr=config.learning_rate)
                for init in (downstream._init_rec_params, four_table_init))
    model = RecModel(new.params, service, n_users)
    step = downstream._Pass(model, config.batch_size, new.grads)

    def assert_bit_equal(got, four):
        want = {"embeddings": np.vstack([np.hstack([four["gmf_user"], four["mlp_user"]]),
                                         np.hstack([four["gmf_item"], four["mlp_item"]])])}
        want.update((k, v) for k, v in four.items() if not k.startswith(("gmf_", "mlp_")))
        assert list(got) == list(want)
        for name in got:
            assert np.array_equal(got[name].view(np.uint32), want[name].view(np.uint32)), name

    assert_bit_equal(new.params, old.params)
    # the short step works in views of buffers sized for the full batch
    for batch in (config.batch_size, config.batch_size // 2, config.batch_size):
        users = rng.integers(n_users, size=batch)
        items = rng.integers(n_items, size=batch)
        labels = (rng.random(batch) < 0.2).astype(np.float32)
        prob = step.forward(downstream._keys(model, users, items))
        step.backward(labels)
        want = four_table_forward(old.params, service, users, items)
        four_table_backward(old.params, old.grads, users, items, labels, *want)
        assert np.array_equal(prob.view(np.uint32), want[0].view(np.uint32))
        assert_bit_equal(new.grads, old.grads)
        new.step()
        old.step()
        assert_bit_equal(new.params, old.params)


# argv[1] is a test's node id; the child prints the OpenBLAS core numpy's
# library picked and, on the Haswell core, runs that test
HASWELL_CHILD = """
import ctypes, sys
import numpy as np
import pytest
get = ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_openblas_get_corename64_
get.argtypes, get.restype = [], ctypes.c_char_p
core = get().decode()
print(core, flush=True)
if core == "Haswell":
    sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", sys.argv[1]]))
"""


def test_reference_cases_bit_equal_on_haswell_core():
    """REFERENCE_CASES on OpenBLAS's Haswell core, the one an AVX2 host
    without AVX-512 picks: a child process forced onto it reruns the test
    above."""
    if not np._core._multiarray_umath.__cpu_features__.get("AVX2"):
        pytest.skip("this CPU has no AVX2, which OpenBLAS's Haswell core needs")
    node = f"{__file__}::{test_recommender_steps_bit_equal_to_four_tables.__name__}"
    child = subprocess.run([sys.executable, "-c", HASWELL_CHILD, node],
                           env={**os.environ, "OPENBLAS_CORETYPE": "Haswell"},
                           capture_output=True, text=True, timeout=300)
    core, _, report = child.stdout.partition("\n")
    if core != "Haswell":
        said = core or child.stderr.strip()[-200:]
        pytest.skip(f"OPENBLAS_CORETYPE=Haswell gave no Haswell core; the child said {said!r}")
    assert child.returncode == 0, report


def test_backward_matches_finite_differences(monkeypatch):
    """_Pass.backward is the gradient of mean BCE plus (L2 / 2) times the
    squared norm of every embedding row the batch gathers, repeats included."""
    l2 = 0.3
    patch_widths(monkeypatch, 3, 4, (5, 3), l2)
    n_users, n_items, service_dim = 4, 5, 2
    rng = np.random.default_rng(7)
    shapes = downstream._init_rec_params(n_users, n_items, service_dim, rng)
    params = {name: rng.normal(0.0, 0.5, table.shape) for name, table in shapes.items()}
    model = RecModel(params, rng.normal(size=(n_items, service_dim)), n_users)
    users = np.array([0, 2, 2, 1, 3, 0, 2])
    items = np.array([4, 4, 1, 0, 4, 2, 3])
    labels = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0])
    keys = downstream._keys(model, users, items)

    def loss():
        prob = predict(model, users, items)
        bce = -(labels * np.log(prob) + (1.0 - labels) * np.log(1.0 - prob)).mean()
        return bce + l2 / 2 * (params["embeddings"][keys] ** 2).sum()

    grads = {name: np.zeros_like(table) for name, table in params.items()}
    step = downstream._Pass(model, len(users), grads)
    step.forward(keys)
    step.backward(labels)
    eps = 1e-6
    for name, table in params.items():
        want = np.empty_like(table)
        for at in np.ndindex(table.shape):
            keep = table[at]
            table[at] = keep + eps
            up = loss()
            table[at] = keep - eps
            want[at] = (up - loss()) / (2 * eps)
            table[at] = keep
        np.testing.assert_allclose(grads[name], want, rtol=1e-5, atol=1e-8, err_msg=name)


def test_predict_returns_new_arrays_and_rejects_unknown_ids():
    data = block_interactions()
    model = train_recommender(data, None, small_config(epochs=1))
    users, items = np.array([0, 1, 2]), np.array([0, 5, 7])
    first = predict(model, users, items)
    kept = first.copy()
    second = predict(model, users[::-1], items[::-1])
    assert np.array_equal(first, kept) and not np.shares_memory(first, second)
    # ids index each side's own rows as numpy indexes: a negative id counts
    # back from that side's last row, and no id reaches the other side's rows
    np.testing.assert_array_equal(predict(model, [-1, -data.n_users], [-1, -data.n_items]),
                                  predict(model, [data.n_users - 1, 0], [data.n_items - 1, 0]))
    for bad_users, bad_items in (([data.n_users], [0]), ([0], [data.n_items]),
                                 ([-data.n_users - 1], [0]), ([0], [-data.n_items - 1])):
        with pytest.raises(IndexError):
            predict(model, np.array(bad_users), np.array(bad_items))


def row_wise_split(rows):
    """Reference leave-one-out split by one scan in file order: per user the
    line with the largest order index, the later line on ties."""
    latest = {}
    for pos, (u, _, order) in enumerate(rows):
        if u not in latest or order >= rows[latest[u]][2]:
            latest[u] = pos
    train = [row for pos, row in enumerate(rows) if pos != latest[row[0]]]
    return train, {u: rows[pos][1] for u, pos in latest.items()}


def test_split_holds_out_latest_with_tie_to_later_line(rng):
    data = interactions_from_rows(
        [("u", "a", 0), ("u", "b", 2), ("u", "c", 2), ("v", "a", 5), ("v", "b", 1)]
    )
    train, held = leave_one_out_split(data)
    assert held[data.users.id("u")] == data.items.id("c")
    assert held[data.users.id("v")] == data.items.id("a")
    assert len(train) == 3
    # many ties among three order values, against the row-wise scan
    data = interactions_from_rows([(f"u{rng.integers(20)}", f"i{rng.integers(30)}",
                                    int(rng.integers(3))) for _ in range(300)])
    train, held = leave_one_out_split(data)
    want_train, want_held = row_wise_split(data.interactions.tolist())
    assert train.tolist() == want_train
    assert held.tolist() == [want_held[u] for u in range(data.n_users)]


def test_split_rejects_single_interaction_users():
    data = interactions_from_rows([("u", "a", 0), ("u", "b", 1), ("w", "a", 0)])
    with pytest.raises(ValueError, match="fewer than 2 interactions: w"):
        leave_one_out_split(data)


def ranking_data(n_users=30, n_items=40):
    rows = []
    for u in range(n_users):
        for j in range(3):
            rows.append((f"u{u}", f"i{(u + j) % n_items}", j))
    return interactions_from_rows(rows)


def test_perfect_scorer_ranks_first(monkeypatch):
    monkeypatch.setattr(downstream, "LOO_NEGATIVES", 20)
    data = ranking_data()
    _, held = leave_one_out_split(data)

    def score_fn(u, candidates):
        return (np.asarray(candidates) == held[u]).astype(float)

    ranks = leave_one_out_ranks(score_fn, data, seed=0)
    np.testing.assert_array_equal(ranks, np.ones(data.n_users))
    assert ndcg_at(ranks, 10) == 1.0


def test_anti_scorer_ranks_last_and_ties_count_against(monkeypatch):
    monkeypatch.setattr(downstream, "LOO_NEGATIVES", 20)
    data = ranking_data()
    _, held = leave_one_out_split(data)

    def anti(u, candidates):
        return -(np.asarray(candidates) == held[u]).astype(float)

    ranks = leave_one_out_ranks(anti, data, seed=0)
    np.testing.assert_array_equal(ranks, np.full(data.n_users, 21))
    assert ndcg_at(ranks, 10) == 0.0

    constant = lambda u, candidates: np.zeros(len(candidates))
    ranks = leave_one_out_ranks(constant, data, seed=0)
    np.testing.assert_array_equal(ranks, np.full(data.n_users, 21))


def test_random_scorer_hits_closed_form_ndcg():
    data = ranking_data(n_users=800, n_items=150)
    rng = np.random.default_rng(9)

    def score_fn(u, candidates):
        return rng.random(len(candidates))

    ranks = leave_one_out_ranks(score_fn, data, seed=0)
    want = sum(1.0 / np.log2(r + 1.0) for r in range(1, 11)) / 101.0
    assert ndcg_at(ranks, 10) == pytest.approx(want, abs=0.015)


def test_candidates_are_paired_across_models(monkeypatch):
    monkeypatch.setattr(downstream, "LOO_NEGATIVES", 15)
    data = ranking_data()
    seen: list[list[np.ndarray]] = []

    def make_score_fn(salt):
        log: list[np.ndarray] = []
        seen.append(log)
        rng = np.random.default_rng(salt)

        def score_fn(u, candidates):
            log.append(np.asarray(candidates).copy())
            return rng.random(len(candidates))

        return score_fn

    leave_one_out_ranks(make_score_fn(1), data, seed=7)
    leave_one_out_ranks(make_score_fn(2), data, seed=7)
    assert len(seen[0]) == len(seen[1]) == data.n_users
    for a, b in zip(seen[0], seen[1]):
        np.testing.assert_array_equal(a, b)


def test_candidate_pool_matches_setdiff_formulation(monkeypatch):
    # the reference builds each user's pool with np.setdiff1d; both draw
    # the same candidates from the same seed, so the ranks agree
    monkeypatch.setattr(downstream, "LOO_NEGATIVES", 15)
    data = ranking_data()
    _, held = leave_one_out_split(data)
    observed = {}
    for u, i, _ in data.interactions:
        observed.setdefault(u, set()).add(i)

    def score_fn(u, candidates):
        return np.sin(1.7 * np.asarray(candidates) + u)

    rng = np.random.default_rng(7)
    want = []
    for u in range(data.n_users):
        pool = np.setdiff1d(np.arange(data.n_items), sorted(observed[u]))
        negatives = rng.choice(pool, size=15, replace=False)
        scores = score_fn(u, np.concatenate([[held[u]], negatives]))
        want.append(1 + int((scores[1:] >= scores[0]).sum()))
    got = leave_one_out_ranks(score_fn, data, seed=7)
    np.testing.assert_array_equal(got, want)


def test_ndcg_hand_values():
    ranks = np.array([1, 2, 11])
    want = (1.0 + 1.0 / np.log2(3.0) + 0.0) / 3.0
    assert ndcg_at(ranks, 10) == pytest.approx(want)
    assert ndcg_at(ranks, 1) == pytest.approx(1.0 / 3.0)


def test_evaluate_leave_one_out_report():
    data = block_interactions()
    model = train_recommender(data, None, small_config(epochs=2))
    report = evaluate_leave_one_out(model, data, seed=3)
    assert report.task == "recommendation"
    assert set(report.metrics) == {f"{m}@{k}" for m in ("ndcg", "hr") for k in (5, 10, 30)}
    assert report.config["cutoffs"] == [5, 10, 30] and report.config["n_negatives"] == 100
    assert report.config["with_services"] is False
    assert report.sizes["n_users"] == data.n_users

    def score_fn(u, candidates):
        users = np.full(len(candidates), u, dtype=np.int64)
        return predict(model, users, np.asarray(candidates, dtype=np.int64))

    ranks = leave_one_out_ranks(score_fn, data, seed=3)
    assert report.metrics["ndcg@10"] == pytest.approx(ndcg_at(ranks, 10))
    assert report.metrics["hr@10"] == pytest.approx(float((ranks <= 10).mean()))
