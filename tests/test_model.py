import json
import os
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    Gradients,
    PerGroupRelationGroups,
    gradients,
    relation_error_bound,
    score_combined,
    score_relation,
    score_triple,
    service_relation,
    service_triple,
)
from pkgm.kgstore import Vocab
from pkgm.model import (
    ModelParams,
    RelationGroups,
    init_params,
    load_checkpoint,
    relation_service,
    save_checkpoint,
    triple_service,
)


def hand_params():
    """Tiny fixed parameters where every score is hand-checkable."""
    ent = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]], dtype=np.float32)
    rel = np.array([[0.5, -0.5], [1.0, 0.0]], dtype=np.float32)
    transfer = np.array(
        [[[1.0, 0.0], [0.0, 1.0]], [[2.0, 0.0], [1.0, 1.0]]], dtype=np.float32
    )
    return ModelParams(dim=2, entity_emb=ent, relation_emb=rel, transfer=transfer)


def test_init_shapes_and_norms(rng):
    params = init_params(11, 4, 8, rng)
    assert params.entity_emb.shape == (11, 8)
    assert params.relation_emb.shape == (4, 8)
    assert params.transfer.shape == (4, 8, 8)
    assert params.entity_emb.dtype == np.float32
    np.testing.assert_allclose(np.linalg.norm(params.entity_emb, axis=1), 1.0, rtol=1e-6)
    np.testing.assert_allclose(np.linalg.norm(params.relation_emb, axis=1), 1.0, rtol=1e-6)
    eye = np.eye(8)
    for m in params.transfer:
        assert np.abs(m - eye).max() <= 0.01 + 1e-7


def test_init_reproducible():
    a = init_params(5, 2, 4, np.random.default_rng(3))
    b = init_params(5, 2, 4, np.random.default_rng(3))
    np.testing.assert_array_equal(a.entity_emb, b.entity_emb)
    np.testing.assert_array_equal(a.transfer, b.transfer)


def test_score_triple_hand_value():
    params = hand_params()
    # |[1,0] + [0.5,-0.5] - [0,2]| = |[1.5,-2.5]| = 4
    assert score_triple(params, 0, 0, 1) == pytest.approx(4.0)


def test_score_relation_hand_value():
    params = hand_params()
    # M_1 [1,0] = [2,1]; minus r_1 [1,0] -> [1,1] -> 2
    assert score_relation(params, 0, 1) == pytest.approx(2.0)


def test_score_combined_is_sum():
    params = hand_params()
    combined = score_combined(params, 0, 1, 2)
    assert combined.parts == (
        pytest.approx(score_triple(params, 0, 1, 2)),
        pytest.approx(score_relation(params, 0, 1)),
    )
    assert combined.value == pytest.approx(sum(combined.parts))


@pytest.mark.parametrize("h,r,t", [(-1, 0, 0), (0, -1, 0), (0, 0, 3), (0, 2, 0)])
def test_out_of_range_ids_rejected(h, r, t):
    params = hand_params()
    with pytest.raises(IndexError):
        score_combined(params, h, r, t)
    with pytest.raises(IndexError):
        gradients(params, h, r, t)


def combined_value(params, h, r, t):
    return score_triple(params, h, r, t) + score_relation(params, h, r)


def smooth_random_params(rng, n_e=6, n_r=3, dim=5):
    """Random float64 parameters resampled until no L1 argument is near a kink."""
    while True:
        params = ModelParams(
            dim=dim,
            entity_emb=rng.normal(size=(n_e, dim)),
            relation_emb=rng.normal(size=(n_r, dim)),
            transfer=rng.normal(size=(n_r, dim, dim)),
        )
        ok = True
        for h in range(n_e):
            for r in range(n_r):
                for t in range(n_e):
                    if h == t:
                        continue
                    diff = params.entity_emb[h] + params.relation_emb[r] - params.entity_emb[t]
                    resid = params.transfer[r] @ params.entity_emb[h] - params.relation_emb[r]
                    if np.abs(diff).min() <= 1e-3 or np.abs(resid).min() <= 1e-3:
                        ok = False
        if ok:
            return params


def fd_gradients(params, h, r, t, step=1e-5):
    """Central finite differences of the combined score, one coordinate at a time."""
    out = Gradients(
        d_head=np.zeros(params.dim),
        d_tail=np.zeros(params.dim),
        d_relation=np.zeros(params.dim),
        d_transfer=np.zeros((params.dim, params.dim)),
    )

    def central(table, index, target):
        flat_target = target.reshape(-1)
        base = table[index].copy()
        for i in range(flat_target.size):
            table[index].reshape(-1)[i] = base.reshape(-1)[i] + step
            up = combined_value(params, h, r, t)
            table[index].reshape(-1)[i] = base.reshape(-1)[i] - step
            down = combined_value(params, h, r, t)
            table[index].reshape(-1)[i] = base.reshape(-1)[i]
            flat_target[i] = (up - down) / (2 * step)

    central(params.entity_emb, h, out.d_head)
    central(params.entity_emb, t, out.d_tail)
    central(params.relation_emb, r, out.d_relation)
    central(params.transfer, r, out.d_transfer)
    return out


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(10):
        params = smooth_random_params(rng)
        h, r, t = 0, 1, 2
        got = gradients(params, h, r, t)
        want = fd_gradients(params, h, r, t)
        for name in ("d_head", "d_tail", "d_relation", "d_transfer"):
            g, w = getattr(got, name), getattr(want, name)
            # sign terms can cancel exactly, so zero components need an
            # absolute tolerance rather than a relative one
            tol = 1e-4 * np.maximum(1.0, np.abs(w))
            assert (np.abs(g - w) <= tol).all(), name


def test_gradient_zero_at_exact_kink():
    # sign(0) = 0: a coordinate sitting exactly on the kink contributes nothing
    ent = np.array([[1.0, 0.0], [1.0, 1.0]], dtype=np.float64)
    rel = np.array([[0.0, 1.0]], dtype=np.float64)
    transfer = np.eye(2, dtype=np.float64)[None]
    params = ModelParams(dim=2, entity_emb=ent, relation_emb=rel, transfer=transfer)
    # h + r - t = [0, 0]; M h - r = [1, -1]
    got = gradients(params, 0, 0, 1)
    np.testing.assert_array_equal(got.d_tail, np.zeros(2))
    np.testing.assert_array_equal(got.d_relation, -np.sign(ent[0] - rel[0]))


# relations out of order and repeated, then a single row (one group of one row)
SERVICE_BATCHES = [([5, 0, 2, 7, 5, 1, 0], [3, 1, 3, 0, 1, 3, 2]), ([6], [2])]


def widened(params):
    """The same tables in float64 (the cast is exact)."""
    return ModelParams(params.dim, params.entity_emb.astype(np.float64),
                       params.relation_emb.astype(np.float64), params.transfer.astype(np.float64))


@pytest.mark.parametrize("hs, rs", SERVICE_BATCHES)
def test_triple_service_matches_oracle(rng, hs, rs):
    params = init_params(8, 4, 5, rng)
    for dtype, tables in ((np.float32, params), (np.float64, widened(params))):
        got = triple_service(params, hs, rs, dtype=dtype)
        assert got.dtype == dtype and got.shape == (len(hs), 5)
        want = [service_triple(tables, h, r) for h, r in zip(hs, rs)]
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("hs, rs", SERVICE_BATCHES)
def test_relation_service_matches_oracle(rng, hs, rs):
    params = init_params(8, 4, 5, rng)
    got = relation_service(params, hs, rs)
    assert got.dtype == np.float32 and got.shape == (len(hs), 5)
    for i, (h, r) in enumerate(zip(hs, rs)):
        exact, bound = relation_error_bound(params, h, r)
        assert np.all(np.abs(got[i] - exact) <= bound)
    # float64 scoring of float32 tables, as eval-rel does
    got = relation_service(params, hs, rs, dtype=np.float64)
    assert got.dtype == np.float64
    want = [service_relation(widened(params), h, r) for h, r in zip(hs, rs)]
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_empty_batch_has_no_groups(rng):
    assert RelationGroups([]).spans == []
    assert relation_service(init_params(8, 4, 5, rng), [], []).shape == (0, 5)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dim", [1, 2, 16])
@pytest.mark.parametrize("rs", [
    np.random.default_rng(5).integers(0, 5, 60),  # unsorted, with repeats
    np.sort(np.random.default_rng(6).integers(0, 5, 60)),  # already in relation order
    np.array([3]),
    np.array([], dtype=np.int64),
    np.full(9, 2),  # one relation
], ids=["unsorted", "sorted", "one-row", "empty", "one-relation"])
def test_relation_groups_are_bit_equal_to_per_group_form(rng, rs, dim):
    params = init_params(12, 5, dim, rng)
    params.transfer += rng.standard_normal(params.transfer.shape).astype(np.float32)
    hs = rng.integers(0, 12, len(rs))
    # the kernel takes rows in relation order; relation_service sorts its own
    o = np.argsort(rs, kind="stable")
    got, want = RelationGroups(rs[o]), PerGroupRelationGroups(rs[o])
    for dtype in (np.float32, np.float64):
        x = rng.standard_normal((len(rs), dim)).astype(dtype)
        assert same_bits(got.forward(params.transfer, x), want.forward(params.transfer, x))
        assert same_bits(relation_service(params, hs, rs, dtype),
                         relation_service(params, hs, rs, dtype, groups=PerGroupRelationGroups(rs)))
        rows = (x * 10.0 ** rng.integers(-6, 7, x.shape)).astype(dtype)  # order shows in the bits
        sums = [np.zeros((5, dim), dtype), np.zeros((5, dim), dtype)]
        got.add_row_sums(rows, sums[0])
        want.add_row_sums(rows, sums[1])
        assert same_bits(*sums)
        grad_transfer = [np.zeros((5, dim, dim), dtype), np.zeros((5, dim, dim), dtype)]
        backs = [groups.backward(params.transfer, rows, params.entity_emb, hs[o], grads)
                 for groups, grads in zip((got, want), grad_transfer)]
        assert same_bits(*backs) and same_bits(*grad_transfer)


@pytest.mark.parametrize("dim", [1, 2, 64])
@pytest.mark.parametrize("rel_ids", [
    # relations 0, 1, 2 and 4 hold 1, 2, 17 and 1,100 rows; relation 3 is absent
    np.random.default_rng(3).permutation(np.repeat([0, 1, 2, 4], [1, 2, 17, 1100])),
    np.array([4, 0, 2]),  # all distinct: one group of one row each
])
def test_add_row_sums_is_bit_equal_to_add_at(rng, rel_ids, dim):
    rows = (rng.standard_normal((len(rel_ids), dim))
            * 10.0 ** rng.integers(-6, 7, (len(rel_ids), dim))).astype(np.float32)
    got, want = np.zeros((5, dim), np.float32), np.zeros((5, dim), np.float32)
    o = np.argsort(rel_ids, kind="stable")
    RelationGroups(rel_ids[o]).add_row_sums(rows[o], got)
    np.add.at(want, rel_ids, rows)
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


def checkpoint_fixture(tmp_path, rng):
    params = init_params(6, 2, 4, rng)
    ev = Vocab([f"e{i}" for i in range(6)])
    rv = Vocab(["r0", "r1"])
    out = tmp_path / "ckpt"
    save_checkpoint(out, params, ev, rv)
    return params, ev, rv, out


def test_checkpoint_round_trip(tmp_path, rng):
    params, ev, rv, out = checkpoint_fixture(tmp_path, rng)
    loaded, ev2, rv2 = load_checkpoint(out)
    np.testing.assert_array_equal(loaded.entity_emb, params.entity_emb)
    np.testing.assert_array_equal(loaded.relation_emb, params.relation_emb)
    np.testing.assert_array_equal(loaded.transfer, params.transfer)
    assert loaded.entity_emb.dtype == np.float32
    assert list(ev2) == list(ev) and list(rv2) == list(rv)
    assert loaded.entity_emb.flags.writeable


def test_checkpoint_save_load_save_bit_identical(tmp_path, rng):
    _, _, _, out = checkpoint_fixture(tmp_path, rng)
    loaded, ev, rv = load_checkpoint(out)
    out2 = tmp_path / "ckpt2"
    save_checkpoint(out2, loaded, ev, rv)
    for name in sorted(p.name for p in out.iterdir()):
        assert (out / name).read_bytes() == (out2 / name).read_bytes(), name


def test_failed_checkpoint_write_leaves_previous_checkpoint(tmp_path, rng, monkeypatch):
    params, ev, rv, out = checkpoint_fixture(tmp_path, rng)
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    def full_disk(self, path):
        Path(path).write_text("r0\t", encoding="utf-8")  # part of a file, then the failure
        raise OSError(28, "No space left on device")

    newer = init_params(6, 2, 4, np.random.default_rng(99))
    monkeypatch.setattr(Vocab, "write_tsv", full_disk)
    with pytest.raises(OSError, match="No space left"):
        save_checkpoint(out, newer, ev, rv)
    monkeypatch.undo()
    # every file, temporaries included, is as it was
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    loaded, ev2, rv2 = load_checkpoint(out)
    for name in ("entity_emb", "relation_emb", "transfer"):
        assert getattr(loaded, name).tobytes() == getattr(params, name).tobytes(), name
    assert list(ev2) == list(ev) and list(rv2) == list(rv)


def test_checkpoint_replaces_header_last(tmp_path, rng, monkeypatch):
    _, ev, rv, out = checkpoint_fixture(tmp_path, rng)
    replaced = []
    real_replace = os.replace

    def replace(src, dst):
        replaced.append(Path(dst).name)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    save_checkpoint(out, init_params(6, 2, 4, rng), ev, rv)
    assert sorted(replaced) == sorted(p.name for p in out.iterdir())
    assert replaced[-1] == "header.json"


def test_checkpoint_rejects_future_format(tmp_path, rng):
    _, _, _, out = checkpoint_fixture(tmp_path, rng)
    header = json.loads((out / "header.json").read_text())
    header["format_version"] = 999
    (out / "header.json").write_text(json.dumps(header))
    with pytest.raises(ValueError, match="format_version"):
        load_checkpoint(out)


@pytest.mark.parametrize("drop", ["dim", "format_version", "blobs.transfer", "relation_vocab"])
def test_checkpoint_rejects_missing_header_key(tmp_path, rng, drop):
    _, _, _, out = checkpoint_fixture(tmp_path, rng)
    header = json.loads((out / "header.json").read_text())
    *parents, key = drop.split(".")
    table = header
    for name in parents:
        table = table[name]
    del table[key]
    (out / "header.json").write_text(json.dumps(header))
    with pytest.raises(ValueError, match=f"header.json: missing header key '{key}'"):
        load_checkpoint(out)


def test_checkpoint_rejects_zero_dim(tmp_path, rng):
    # dim 0 with empty blobs is self-consistent, but training never writes it
    _, _, _, out = checkpoint_fixture(tmp_path, rng)
    header = json.loads((out / "header.json").read_text())
    header["dim"] = 0
    (out / "header.json").write_text(json.dumps(header))
    for name in header["blobs"].values():
        (out / name).write_bytes(b"")
    with pytest.raises(ValueError, match="header.json: header key 'dim' must be a positive integer"):
        load_checkpoint(out)


def test_checkpoint_rejects_non_object_header(tmp_path, rng):
    _, _, _, out = checkpoint_fixture(tmp_path, rng)
    (out / "header.json").write_text("[1, 2]")
    with pytest.raises(ValueError, match="header.json: header is not a JSON object"):
        load_checkpoint(out)


def test_checkpoint_rejects_vocab_mismatch(tmp_path, rng):
    params = init_params(4, 2, 3, rng)
    with pytest.raises(ValueError, match="vocab sizes"):
        save_checkpoint(tmp_path / "bad", params, Vocab(["a"]), Vocab(["r0", "r1"]))


def test_checkpoint_rejects_truncated_vocab_file(tmp_path, rng):
    _, _, _, out = checkpoint_fixture(tmp_path, rng)
    (out / "entities.tsv").write_text("e0\t0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="vocab sizes"):
        load_checkpoint(out)
