import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pkgm import kgstore
from pkgm.downstream import InteractionSet
from pkgm.kgstore import (
    Vocab,
    filter_rare_relations,
    load_triples,
    read_tsv,
    store_from_triples,
)


def test_vocab_interning_order():
    v = Vocab(["b", "a", "b"])  # a repeated token keeps its first id
    assert v.id("b") == 0
    assert v.id("a") == 1
    assert list(v.ids(["b", "a", "b", "c"])) == [0, 1, 0, -1]
    assert len(v) == 2
    assert v.id("a") == 1
    assert v.token(0) == "b"
    assert "a" in v and "c" not in v
    assert list(v) == ["b", "a"]


def test_vocab_id_names_the_kind_of_an_unknown_token():
    v = Vocab(["a"])
    assert v.id("a") == 0
    with pytest.raises(ValueError, match="^unknown vocabulary token 'c'$"):
        v.id("c")


def test_vocab_tsv_round_trip(tmp_path):
    v = Vocab(["alpha", "beta", "gamma"])
    path = tmp_path / "vocab.tsv"
    v.write_tsv(path)
    assert list(Vocab.read_tsv(path)) == list(v)


def test_vocab_tsv_rejects_sparse_ids(tmp_path):
    path = tmp_path / "vocab.tsv"
    path.write_text("alpha\t0\nbeta\t2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="not dense"):
        Vocab.read_tsv(path)


@pytest.mark.parametrize("text,bad_line", [("alpha\t0\nbeta\n", 2),
                                           ("alpha\tzero\n", 1),
                                           ("alpha\t0\n\nbeta\t1\tx\n", 3)])
def test_vocab_tsv_names_path_and_line(tmp_path, text, bad_line):
    path = tmp_path / "vocab.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=f"line {bad_line}: expected token<TAB>integer id") as info:
        Vocab.read_tsv(path)
    assert str(info.value).startswith(f"{path}: ")


def test_vocab_tsv_non_utf8_line_is_named_error(tmp_path):
    path = tmp_path / "vocab.tsv"
    path.write_bytes(b"alpha\t0\nbe\xfft\t1\n")
    with pytest.raises(ValueError, match="line 2: 'utf-8' codec") as info:
        Vocab.read_tsv(path)
    assert str(info.value).startswith(f"{path}: ")


def test_vocab_tsv_keeps_hash_tokens(tmp_path):
    # vocabulary tokens may start with "#"; only the "#"-commented inputs skip them
    v = Vocab(["#alpha", "beta"])
    path = tmp_path / "vocab.tsv"
    v.write_tsv(path)
    assert list(Vocab.read_tsv(path)) == list(v)


def test_read_tsv_skips_comments_and_blanks_and_converts(tmp_path):
    path = tmp_path / "rows.tsv"
    path.write_bytes(b"# a\tb\n\nx\t1\r\n#\n\r\ny\t2")
    rows = read_tsv(path, 2)
    assert rows.columns == [["x", "y"], ["1", "2"]]
    assert rows.ints(1, "not an integer") == [1, 2]
    assert list(rows.lines) == [3, 6]


def test_read_tsv_prefixes_errors_with_path_and_line(tmp_path):
    path = tmp_path / "rows.tsv"
    path.write_text("# c\nx\t1\ny\tz\n", encoding="utf-8")
    with pytest.raises(ValueError, match="expected 3 TAB-separated fields, got 2") as info:
        read_tsv(path, 3)
    assert str(info.value).startswith(f"{path}: line 2: ")

    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 3: not an integer$"):
        read_tsv(path, 2).ints(1, "not an integer")

    path.write_bytes(b"x\t1\n# \xff\n")
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: line 2: 'utf-8' codec"):
        read_tsv(path, 2)


@settings(max_examples=200, deadline=None)
@given(data=st.one_of(st.text().map(str.encode), st.binary()), n_fields=st.integers(1, 4))
def test_read_tsv_on_arbitrary_bytes_returns_rows_or_names_a_line(tmp_path_factory, data,
                                                                  n_fields):
    path = tmp_path_factory.mktemp("tsv") / "any.tsv"
    path.write_bytes(data)
    try:
        rows = read_tsv(path, n_fields)
    except ValueError as exc:
        assert re.search(r": line \d+: ", str(exc))
    else:
        assert len(rows.columns) == n_fields
        assert all(len(column) == len(rows) for column in rows.columns)


def test_store_interning_and_counts(toy_store):
    # ids follow first appearance in the row stream
    assert toy_store.entities.id("apple") == 0
    assert toy_store.relations.id("color") == 0
    assert toy_store.n_entities == 10
    assert toy_store.n_relations == 3
    color = toy_store.relations.id("color")
    isa = toy_store.relations.id("isA")
    assert toy_store.relation_counts[color] == 3
    assert toy_store.relation_counts[isa] == 4


def test_store_duplicates_collapse():
    rows = [("a", "r", "b")] * 5 + [("a", "isA", "c")]
    store = store_from_triples(rows)
    assert len(store.triples) == 2
    assert store.relation_counts[store.relations.id("r")] == 1


def test_store_category_index(toy_store):
    apple = toy_store.entities.id("apple")
    fruit = toy_store.entities.id("fruit")
    kale = toy_store.entities.id("kale")
    veg = toy_store.entities.id("vegetable")
    assert toy_store.category_of[apple] == fruit
    assert toy_store.category_of[kale] == veg
    assert fruit not in toy_store.category_of  # categories are not categorized


def test_store_category_tie_break():
    rows = [("e", "isA", "zoo"), ("e", "isA", "ark")]
    store = store_from_triples(rows)
    e = store.entities.id("e")
    assert store.entities.token(store.category_of[e]) == "ark"


def test_store_empty_rows_rejected():
    with pytest.raises(ValueError, match="no triples"):
        store_from_triples([])


def test_store_custom_category_relation():
    rows = [("a", "memberOf", "g"), ("a", "isA", "x")]
    store = store_from_triples(rows, category_relation="memberOf")
    a = store.entities.id("a")
    assert store.entities.token(store.category_of[a]) == "g"
    assert store.category_relation == "memberOf"


@pytest.mark.parametrize("rows", [[(0, 1, 2), (3, 0, 1), (3, 0, 1)], []], ids=["rows", "empty"])
def test_id_rows_are_read_only_int64_arrays_whatever_they_are_built_from(rows):
    want = np.array(rows, dtype=np.int64).reshape(-1, 3)
    array = np.array(rows, dtype=np.int32).reshape(-1, 3)
    for given in (rows, array):
        built = (kgstore.TripleStore(entities=Vocab(), relations=Vocab(), triples=given,
                                     category_of={}, relation_counts={}).triples,
                 InteractionSet(users=Vocab(), items=Vocab(), interactions=given).interactions)
        for got in built:
            assert got.dtype == np.int64 and got.shape == want.shape
            np.testing.assert_array_equal(got, want)
            with pytest.raises(ValueError, match="read-only"):
                got[:1] = 0
    assert array.flags.writeable  # the rows are copied, not frozen in place


def test_triple_keys_reject_a_key_space_beyond_int64():
    # n_e * n_e * n_r keys fit in int64 for n_e = 3,037,000,499 and n_r = 1,
    # and the top row gets the top key; one more entity, or 10^9 entities
    # under 10 relations, would wrap
    n_e = 3_037_000_499
    top = np.array([[n_e - 1, 0, n_e - 1]], dtype=np.int64)
    assert kgstore.triple_keys(top, n_e, 1)[0] == n_e * n_e - 1
    for n_e, n_r in ((n_e + 1, 1), (10**9, 10)):
        with pytest.raises(ValueError, match="overflows int64"):
            kgstore.triple_keys(np.zeros((1, 3), dtype=np.int64), n_e, n_r)


@pytest.mark.parametrize("row", [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (4, 0, 0), (0, 2, 0),
                                 (0, 0, 4)])
def test_triple_keys_reject_ids_outside_the_key_space(row):
    # (0, 0, 4) would take the key of (0, 1, 0) under 4 entities and 2 relations
    with pytest.raises(ValueError, match="outside 4 entities and 2 relations"):
        kgstore.triple_keys(np.array([row], dtype=np.int64), 4, 2)


def test_token_triples_round_trip(toy_rows, toy_store):
    assert toy_store.token_triples() == toy_rows


def test_load_triples_file(tmp_path, toy_rows):
    path = tmp_path / "triples.tsv"
    kgstore.write_triples(path, toy_rows)
    store = load_triples(path)
    assert store.token_triples() == toy_rows


def test_load_triples_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "triples.tsv"
    path.write_text("# header comment\n\na\tr\tb\n", encoding="utf-8")
    store = load_triples(path)
    assert store.token_triples() == [("a", "r", "b")]


def test_load_triples_reports_line_number(tmp_path):
    path = tmp_path / "triples.tsv"
    path.write_text("a\tr\tb\nbroken line\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2"):
        load_triples(path)


def test_filter_rare_relations(toy_store):
    # "tastes" occurs once; color and isA survive a min_count of 2
    filtered = filter_rare_relations(toy_store, min_count=2)
    assert "tastes" not in filtered.relations
    assert "color" in filtered.relations
    # re-interned ids stay dense
    assert sorted(filtered.relations.id(tok) for tok in filtered.relations) == [0, 1]


def test_filter_keeps_category_relation():
    rows = [("a", "isA", "c"), ("x", "r", "y"), ("x2", "r", "y2")]
    filtered = filter_rare_relations(store_from_triples(rows), min_count=2)
    assert "isA" in filtered.relations


def test_filter_all_relations_rejected():
    store = store_from_triples([("a", "r", "b")])
    with pytest.raises(ValueError, match="all relations filtered"):
        filter_rare_relations(store, min_count=99)


def test_filter_bad_min_count(toy_store):
    with pytest.raises(ValueError, match="min_count"):
        filter_rare_relations(toy_store, min_count=0)
