"""The chunked TAB readers across chunk boundaries.

The reader-vs-oracle properties of test_readers run again with
kgstore.CHUNK_LINES at 1 and 2, so that every generated file spans several
chunks. Those properties let a file with faults on several lines name any
of them, so each reader is also held to raise exactly what it raises when
the whole file is one chunk: a failure that a later chunk finds must still
lose to an earlier check of the whole file, and to the same check on an
earlier line.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
import test_readers
from pkgm import cli, downstream, keyrel, kgstore
from pkgm.model import init_params, save_checkpoint
from test_readers import ENTITIES, RELATIONS, damaged_file

FILE_CHECKS = [
    test_readers.test_read_tsv_on_arbitrary_bytes_matches_line_reader,
    test_readers.test_every_reader_on_arbitrary_bytes_matches_line_reader,
    test_readers.test_load_triples_matches_line_reader,
    test_readers.test_vocab_read_tsv_matches_line_reader,
    test_readers.test_read_keyrel_tsv_matches_line_reader,
    test_readers.test_load_interactions_matches_line_reader,
    test_readers.test_eval_lp_triple_ids_match_line_reader,
    test_readers.test_eval_rel_pairs_match_line_reader,
]


@pytest.mark.parametrize("chunk_lines", [1, 2])
@pytest.mark.parametrize("check", FILE_CHECKS, ids=lambda check: check.__name__)
def test_readers_match_line_readers_across_chunks(monkeypatch, tmp_path_factory, chunk_lines,
                                                  check):
    monkeypatch.setattr(kgstore, "CHUNK_LINES", chunk_lines)
    check(tmp_path_factory=tmp_path_factory)


LABELS = st.sampled_from(["0", "1"])
DAMAGED = [
    (test_readers.triple_lines(), test_readers.FIELD_FAULTS, True, kgstore.load_triples,
     test_readers.same_store),
    (test_readers.vocab_lines(), test_readers.VOCAB_FAULTS, False, kgstore.Vocab.read_tsv,
     oracles.same_vocab),
    (test_readers.keyrel_lines(), test_readers.KEYREL_FAULTS, False,
     lambda path: keyrel.read_keyrel_tsv(path, ENTITIES, RELATIONS), oracles.same_table),
    (test_readers.interaction_lines(), test_readers.INTERACTION_FAULTS, True,
     downstream.load_interactions, test_readers.same_interactions),
    (test_readers.id_triple_lines(test_readers.token), test_readers.ID_TRIPLE_FAULTS, True,
     lambda path: cli._triple_ids(path, ENTITIES, RELATIONS), test_readers.same_array),
    (test_readers.id_triple_lines(LABELS), test_readers.PAIR_FAULTS, True,
     lambda path: cli._labeled_pairs(path, ENTITIES, RELATIONS),
     lambda a, b: all(x.dtype == y.dtype and x.shape == y.shape and (x == y).all()
                      for x, y in zip(a, b))),
]


@pytest.mark.parametrize("lines, faults, comments, read, same", DAMAGED,
                         ids=["load_triples", "vocab", "keyrel", "interactions", "triple_ids",
                              "labeled_pairs"])
@test_readers.LARGER
@given(data=st.data())
def test_chunked_reads_raise_what_one_chunk_raises(tmp_path_factory, lines, faults, comments,
                                                   read, same, data):
    raw, _ = data.draw(lines.flatmap(lambda drawn: damaged_file(drawn, faults, comments)))
    path = test_readers.write(tmp_path_factory, raw)
    want, want_error = test_readers.outcome(lambda: read(path))
    for chunk_lines in (1, 2):
        with mock.patch.object(kgstore, "CHUNK_LINES", chunk_lines):
            got, error = test_readers.outcome(lambda: read(path))
        assert error == want_error
        assert error is not None or same(got, want)


def test_eval_lp_names_an_unknown_entity_past_the_first_chunk_before_an_earlier_relation(
        tmp_path, capsys):
    # column 0 is checked before column 1 over the whole file, so an unknown
    # head on the last line outranks an unknown relation on line 3
    entities = kgstore.Vocab([f"e{i}" for i in range(10)])
    relations = kgstore.Vocab(["r", "s"])
    params = init_params(len(entities), len(relations), 4, np.random.default_rng(0))
    save_checkpoint(tmp_path / "ckpt", params, entities, relations)
    lines = [f"e{i % 10}\tr\te{(i + 1) % 10}" for i in range(kgstore.CHUNK_LINES + 10)]
    lines[2] = "e1\tnosuch\te2"
    lines[-1] = "nosuch\tr\te2"
    test = tmp_path / "test.tsv"
    test.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert cli.dispatch(["eval-lp", "--checkpoint", str(tmp_path / "ckpt"), "--test", str(test),
                         "--report", str(tmp_path / "lp.json")]) == 1
    assert f"{test}: line {len(lines)}: unknown entity token 'nosuch'" in capsys.readouterr().err
    assert not (tmp_path / "lp.json").exists()


def random_kg(path, extra=""):
    """(h, r, t) of 60,000 random lines over 20,000 entities and 50
    relations, written to path with the text extra after them."""
    rng = np.random.default_rng(1)
    h, r, t = rng.integers(0, 20_000, 60_000), rng.integers(0, 50, 60_000), rng.integers(
        0, 20_000, 60_000)
    path.write_text("".join(f"e{a}\tr{b}\te{c}\n" for a, b, c in zip(h.tolist(), r.tolist(),
                                                                      t.tolist())) + extra)
    return h, r, t


def traced_peak(run):
    """(run(), the tracemalloc peak in bytes while it ran)."""
    tracemalloc.start()
    try:
        result = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_load_triples_peak_memory_is_bounded(tmp_path):
    # 60,000 lines over 20,000 entities; the whole-file reader peaked at 18.6 MiB
    path = tmp_path / "kg.tsv"
    h, r, t = random_kg(path)
    store, peak = traced_peak(lambda: kgstore.load_triples(path))
    assert len(store.triples) == len(set(zip(h.tolist(), r.tolist(), t.tolist())))
    assert peak < 9.3 * 2**20


def test_filter_rare_relations_costs_no_more_memory_than_loading(tmp_path):
    # the same file plus 5 lines under once-used relations; a filter that
    # rebuilt the store from token tuples peaked at 12.8 MiB
    path = tmp_path / "kg.tsv"
    h, r, t = random_kg(path, "".join(f"e{i}\trare{i}\te{i + 1}\n" for i in range(5)))
    store = kgstore.load_triples(path)
    filtered, peak = traced_peak(lambda: kgstore.filter_rare_relations(store, 2))
    assert list(filtered.relations) == list(store.relations)[:50]
    assert len(filtered.triples) == len(set(zip(h.tolist(), r.tolist(), t.tolist())))
    assert peak < 9.3 * 2**20
