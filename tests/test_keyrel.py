import numpy as np
import pytest
from oracles import keyrel_table, same_table

from pkgm import keyrel
from pkgm.kgstore import store_from_triples


def relation_frequency(store, r, e):
    """Count category members of e that have any triple under relation r."""
    cat = store.category_of.get(e)
    if cat is None:
        raise ValueError(f"uncategorized entity {store.entities.token(e)!r}")
    heads_with_r = {h for h, rr, _ in store.triples if rr == r}
    return sum(1 for m, c in store.category_of.items() if c == cat and m in heads_with_r)


def oracle_rows(store, k):
    """Recompute key relations per entity by brute force."""
    global_order = sorted(
        store.relation_counts, key=lambda r: (-store.relation_counts[r], r)
    )
    rows = {}
    for e in store.category_of:
        freq = {}
        for r in range(store.n_relations):
            n = relation_frequency(store, r, e)
            if n:
                freq[r] = n
        ranked = sorted(freq, key=lambda r: (-freq[r], r))[:k]
        ranked += [r for r in global_order if r not in set(ranked)][: k - len(ranked)]
        rows[e] = tuple(ranked)
    return rows


def test_toy_store_hand_ranking(toy_store):
    # ids: color=0, tastes=1, isA=2; apple=0, carrot=6
    # fruits apple, lemon: color and isA tie at 2, id order; vegetables
    # carrot, kale: isA 2 beats color 1; no other entity has a row
    table = keyrel.select_key_relations(toy_store, k=2)
    assert same_table(table, keyrel_table({0: (0, 2), 4: (0, 2), 6: (2, 0), 9: (2, 0)}))

    table1 = keyrel.select_key_relations(toy_store, k=1)
    assert same_table(table1, keyrel_table({0: (0,), 4: (0,), 6: (2,), 9: (2,)}))


def test_relation_frequency_counts_category_members(toy_store):
    assert relation_frequency(toy_store, 0, 0) == 2  # both fruits have color
    assert relation_frequency(toy_store, 1, 4) == 1  # apple tastes, lemon asks
    assert relation_frequency(toy_store, 1, 6) == 0  # no vegetable tastes


def test_relation_frequency_requires_category(toy_store):
    with pytest.raises(ValueError, match="uncategorized"):
        relation_frequency(toy_store, 0, 3)  # "fruit" itself


def test_select_rejects_bad_k(toy_store):
    with pytest.raises(ValueError, match="k must be positive"):
        keyrel.select_key_relations(toy_store, k=0)
    with pytest.raises(ValueError, match="exceeds relation count"):
        keyrel.select_key_relations(toy_store, k=4)


def test_thin_category_padded_from_global_ranking():
    rows = [
        ("a", "r1", "x"),
        ("a", "isA", "c1"),
        ("b", "r2", "x"),
        ("b", "r3", "x"),
        ("b", "isA", "c2"),
    ]
    store = store_from_triples(rows)
    table = keyrel.select_key_relations(store, k=3)
    for rels in table.rows.tolist():
        assert len(rels) == 3
        assert len(set(rels)) == 3
    assert same_table(table, keyrel_table(oracle_rows(store, 3)))


def random_store(rng):
    rows = [(f"e{i}", "isA", f"c{rng.integers(3)}") for i in range(8)]
    for _ in range(int(rng.integers(10, 25))):
        rows.append(
            (f"e{rng.integers(8)}", f"q{rng.integers(4)}", f"e{rng.integers(8)}")
        )
    return store_from_triples(sorted(set(rows)))


def test_selection_matches_oracle_on_random_stores():
    rng = np.random.default_rng(42)
    for _ in range(20):
        store = random_store(rng)
        for k in range(1, store.n_relations + 1):
            table = keyrel.select_key_relations(store, k)
            assert same_table(table, keyrel_table(oracle_rows(store, k)))


def test_tsv_round_trip(tmp_path, toy_store):
    table = keyrel.select_key_relations(toy_store, k=2)
    path = tmp_path / "keyrels.tsv"
    keyrel.write_keyrel_tsv(path, table, toy_store.entities, toy_store.relations)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "apple\tcolor,isA"
    back = keyrel.read_keyrel_tsv(path, toy_store.entities, toy_store.relations)
    assert same_table(back, table)
    for array in (table.ids, table.rows, back.ids, back.rows):
        assert not array.flags.writeable


def test_tsv_read_sorts_by_entity_id(tmp_path, toy_store):
    path = tmp_path / "keyrels.tsv"
    path.write_text("kale\tisA,color\napple\tcolor,isA\n", encoding="utf-8")
    back = keyrel.read_keyrel_tsv(path, toy_store.entities, toy_store.relations)
    assert same_table(back, keyrel_table({9: (2, 0), 0: (0, 2)}))


def test_select_rejects_store_without_category_triples():
    store = store_from_triples([("a", "r", "b"), ("b", "r", "c")], category_relation="type")
    with pytest.raises(ValueError, match="no triples under the category relation 'type'"):
        keyrel.select_key_relations(store, k=1)


def test_tsv_read_errors(tmp_path, toy_store):
    bad = tmp_path / "bad.tsv"
    bad.write_text("apple color,isA\n", encoding="utf-8")
    with pytest.raises(ValueError, match="expected 2 TAB-separated fields"):
        keyrel.read_keyrel_tsv(bad, toy_store.entities, toy_store.relations)

    ragged = tmp_path / "ragged.tsv"
    ragged.write_text("apple\tcolor,isA\nlemon\tcolor\n", encoding="utf-8")
    with pytest.raises(ValueError, match="expected 2 relations, got 1"):
        keyrel.read_keyrel_tsv(ragged, toy_store.entities, toy_store.relations)

    empty = tmp_path / "empty.tsv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="empty key relation table"):
        keyrel.read_keyrel_tsv(empty, toy_store.entities, toy_store.relations)

    unknown_rel = tmp_path / "unknown_rel.tsv"
    unknown_rel.write_text("apple\tcolor,isA\nlemon\tcolor,smells\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2: unknown relation token 'smells'"):
        keyrel.read_keyrel_tsv(unknown_rel, toy_store.entities, toy_store.relations)

    unknown_ent = tmp_path / "unknown_ent.tsv"
    unknown_ent.write_text("pear\tcolor,isA\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 1: unknown entity token 'pear'"):
        keyrel.read_keyrel_tsv(unknown_ent, toy_store.entities, toy_store.relations)


@pytest.fixture
def arq_store():
    # relations r, isA, q over entities a, b, c
    return store_from_triples([("a", "r", "b"), ("a", "isA", "c"), ("a", "q", "b")])


def test_tsv_rejects_relation_listed_twice(tmp_path, arq_store):
    path = tmp_path / "twice.tsv"
    path.write_text("a\tr,r\na\tq,isA\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 1: relation 'r' listed twice") as info:
        keyrel.read_keyrel_tsv(path, arq_store.entities, arq_store.relations)
    assert str(info.value).startswith(f"{path}: ")


def test_tsv_rejects_entity_listed_twice(tmp_path, arq_store):
    path = tmp_path / "twice.tsv"
    path.write_text("a\tr,isA\nb\tq,r\na\tq,isA\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 3: entity 'a' listed twice") as info:
        keyrel.read_keyrel_tsv(path, arq_store.entities, arq_store.relations)
    assert str(info.value).startswith(f"{path}: ")


def test_tsv_non_utf8_line_is_named_error(tmp_path, arq_store):
    path = tmp_path / "bytes.tsv"
    path.write_bytes(b"a\tr,isA\nb\tq,\xff\n")
    with pytest.raises(ValueError, match="line 2: 'utf-8' codec") as info:
        keyrel.read_keyrel_tsv(path, arq_store.entities, arq_store.relations)
    assert str(info.value).startswith(f"{path}: ")
