"""The whole-file TAB readers against their line-by-line oracles.

Each reader is fed arbitrary bytes and generated files with injected faults
(wrong field count, non-UTF-8, unknown token, ragged or repeated relations,
repeated entity, bad label or order index, sparse vocabulary ids; one or two
on a line) among formatting that is no fault (CRLF line ends, blank lines,
comments where the reader skips them, no final newline). Reader and oracle
raise on the same files and otherwise return equal ids and vocabularies.
With at most one faulty line they raise the same message; with several,
each names one of the faulty lines, and the same message when the same line.
"""

import re

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from pkgm import cli, downstream, keyrel, kgstore
from pkgm.kgstore import Vocab

TOKENS = ["a", "b", "c", "#d", "e f", "é"]
ENTITIES = Vocab(TOKENS)
RELATIONS = Vocab(["r", "s", "isA", "t"])
BAD_BYTES = [b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xe2\x82"]
SMALL = settings(max_examples=150, deadline=None)
LARGER = settings(max_examples=400, deadline=None)  # readers with many fault kinds


def outcome(read):
    try:
        return read(), None
    except ValueError as exc:
        return None, str(exc)


def named_line(path, error):
    match = re.match(f"{re.escape(str(path))}: line (\\d+): ", error)
    return match and int(match.group(1))


def assert_agree(path, read, oracle, same, faulty=None):
    """read and oracle agree on the file at path; faulty holds the file line
    numbers of its faulty lines, None when they are not known."""
    (got, got_error), (want, want_error) = outcome(read), outcome(oracle)
    assert (got_error is None) == (want_error is None), (got_error, want_error)
    if want_error is None:
        assert same(got, want)
    elif (faulty is not None and len(faulty) <= 1
          or named_line(path, got_error) == named_line(path, want_error)):
        assert got_error == want_error
    elif faulty is not None:
        assert {named_line(path, got_error), named_line(path, want_error)} <= faulty, (
            got_error, want_error, faulty)


@st.composite
def damaged_file(draw, lines, faults, comments):
    """(file bytes, file line numbers of the faulty lines) of the data lines
    with one or two of faults, {kind: fault(line, earlier lines, draw) -> line},
    or a bad UTF-8 sequence, injected into some, among filler lines."""
    count = min(draw(st.sampled_from([0, 1, 1, 1, 2, 3])), len(lines))
    at = draw(st.lists(st.integers(0, len(lines) - 1), unique=True, min_size=count,
                       max_size=count))
    raw = [line.encode() for line in lines]
    for i in at:
        kinds = draw(st.lists(st.sampled_from(sorted(faults) + ["non-utf8"]), min_size=1,
                              max_size=2))
        text = lines[i]
        for kind in kinds:
            if kind != "non-utf8":
                text = faults[kind](text, lines[:i], draw)
        raw[i] = text.encode()
        if "non-utf8" in kinds:
            cut = draw(st.sampled_from([len(raw[i]), 0]) | st.integers(0, len(raw[i])))
            raw[i] = raw[i][:cut] + draw(st.sampled_from(BAD_BYTES)) + raw[i][cut:]
        assume(raw[i])  # a line the faults leave empty is blank, not faulty
    fillers = [b"", b"\r", b"#", b"# x\ty"] if comments else [b"", b"\r"]
    out, faulty = [], set()
    for i, line in enumerate(raw):
        while draw(st.integers(0, 4)) == 4:
            out.append(draw(st.sampled_from(fillers)))
        if i in at:
            faulty.add(len(out) + 1)
        out.append(line + draw(st.sampled_from([b"", b"", b"\r"])))
    return b"\n".join(out) + draw(st.sampled_from([b"\n", b"", b"\r\n"])), faulty


def extra_field(text, earlier, draw):
    return text + "\tx"


def missing_field(text, earlier, draw):
    return text.replace("\t", " ", 1)


def set_field(j, values):
    def fault(text, earlier, draw):
        fields = text.split("\t")
        if j < len(fields):
            fields[j] = draw(st.sampled_from(values))
        return "\t".join(fields)
    return fault


FIELD_FAULTS = {"extra field": extra_field, "missing field": missing_field}


def write(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("tsv") / "rows.tsv"
    path.write_bytes(data)
    return path


def same_store(a, b):
    return (oracles.same_vocab(a.entities, b.entities)
            and oracles.same_vocab(a.relations, b.relations)
            and same_array(a.triples, b.triples) and a.category_of == b.category_of
            and a.relation_counts == b.relation_counts
            and a.category_relation == b.category_relation)


def same_array(a, b):
    return a.dtype == b.dtype == np.int64 and a.shape == b.shape and (a == b).all()


def same_interactions(a, b):
    return (oracles.same_vocab(a.users, b.users) and oracles.same_vocab(a.items, b.items)
            and same_array(a.interactions, b.interactions))


def same_pairs(got, want):
    """cli._labeled_pairs's (pairs, labels) arrays hold the (h, r, exists) tuples want."""
    pairs, labels = got
    want_pairs = np.array([(h, r) for h, r, _ in want], dtype=np.int64).reshape(-1, 2)
    return (same_array(pairs, want_pairs) and labels.dtype == bool
            and labels.tolist() == [exists for _, _, exists in want])


arbitrary_bytes = st.one_of(
    st.text(alphabet="ab01é#,\t\r\n ", max_size=80).map(str.encode),
    st.binary(max_size=60),
    st.lists(st.sampled_from([b"a", b"b", b"r", b"0", b"1", b",", b"\t", b"\n", b"\r\n",
                              b"#", b"\xff", b"\xe2\x82", b"isA"]), max_size=40).map(b"".join))


@SMALL
@given(data=arbitrary_bytes, n_fields=st.integers(1, 4), comments=st.booleans())
def test_read_tsv_on_arbitrary_bytes_matches_line_reader(tmp_path_factory, data, n_fields,
                                                          comments):
    path = write(tmp_path_factory, data)

    def same_columns(rows, want):
        return len(rows) == len(want) and rows.columns == (
            [list(column) for column in zip(*want)] if want else [[]] * n_fields)

    assert_agree(path, lambda: kgstore.read_tsv(path, n_fields, comments),
                 lambda: oracles.line_read_tsv(path, n_fields, comments=comments), same_columns)


@SMALL
@given(data=arbitrary_bytes)
def test_every_reader_on_arbitrary_bytes_matches_line_reader(tmp_path_factory, data):
    path = write(tmp_path_factory, data)
    readers = [
        (kgstore.load_triples, oracles.line_load_triples, same_store, ()),
        (Vocab.read_tsv, oracles.line_vocab_read_tsv, oracles.same_vocab, ()),
        (keyrel.read_keyrel_tsv, oracles.line_read_keyrel_tsv, oracles.same_table,
         (ENTITIES, RELATIONS)),
        (downstream.load_interactions, oracles.line_load_interactions, same_interactions, ()),
        (cli._triple_ids, oracles.line_triple_ids, same_array, (ENTITIES, RELATIONS)),
        (cli._labeled_pairs, oracles.line_labeled_pairs, same_pairs, (ENTITIES, RELATIONS)),
    ]
    for read, oracle, same, args in readers:
        assert_agree(path, lambda: read(path, *args), lambda: oracle(path, *args), same)


token = st.sampled_from(TOKENS)
head = st.sampled_from([tok for tok in TOKENS if not tok.startswith("#")])  # no comment


@st.composite
def triple_lines(draw):
    rows = draw(st.lists(st.tuples(head, st.sampled_from(["r", "s", "isA"]), token),
                         min_size=1, max_size=12))
    rows += draw(st.lists(st.sampled_from(rows), max_size=3))  # repeated rows
    return ["\t".join(row) for row in draw(st.permutations(rows))]


@SMALL
@given(case=triple_lines().flatmap(lambda lines: damaged_file(lines, FIELD_FAULTS, True)))
def test_load_triples_matches_line_reader(tmp_path_factory, case):
    data, faulty = case
    path = write(tmp_path_factory, data)
    assert_agree(path, lambda: kgstore.load_triples(path),
                 lambda: oracles.line_load_triples(path), same_store, faulty)


@SMALL
@given(rows=st.lists(st.tuples(token, st.sampled_from(["r", "isA"]), token), max_size=12))
def test_store_from_triples_matches_line_form(rows):
    (got, error), (want, want_error) = (outcome(lambda: kgstore.store_from_triples(rows)),
                                        outcome(lambda: oracles.line_store_from_triples(rows)))
    assert error == want_error
    assert error is not None or same_store(got, want)


@st.composite
def vocab_lines(draw):
    tokens = draw(st.lists(st.sampled_from(TOKENS + ["", "#", "x y"]), min_size=1, max_size=8,
                           unique=True))
    lines = []
    for idx, tok in enumerate(tokens):
        lines.append(f"{tok}\t{idx}")
        if draw(st.integers(0, 3)) == 3:  # a repeated token with its own id is no fault
            j = draw(st.integers(0, idx))
            lines.append(f"{tokens[j]}\t{j}")
    return lines


def sparse_id(text, earlier, draw):
    tok, _, idx = text.rpartition("\t")
    try:
        return f"{tok}\t{int(idx) + draw(st.sampled_from([1, 2, -1, 10**30]))}"
    except ValueError:
        return text


def repeated_token(text, earlier, draw):
    # an earlier token under an id one above its own, or on the first line id 1
    tok, idx = draw(st.sampled_from(earlier)).split("\t") if earlier else (text, "0")
    return f"{tok}\t{int(idx) + 1}"


VOCAB_FAULTS = {**FIELD_FAULTS, "sparse id": sparse_id, "repeated token": repeated_token,
                "not an integer": set_field(1, ["x", "1.0", "", "0x1"])}


@LARGER
@given(case=vocab_lines().flatmap(lambda lines: damaged_file(lines, VOCAB_FAULTS, False)))
def test_vocab_read_tsv_matches_line_reader(tmp_path_factory, case):
    data, faulty = case
    path = write(tmp_path_factory, data)
    assert_agree(path, lambda: Vocab.read_tsv(path), lambda: oracles.line_vocab_read_tsv(path),
                 oracles.same_vocab, faulty)


@st.composite
def keyrel_lines(draw):
    entities = draw(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=6, unique=True))
    k = draw(st.integers(2, 3))
    return [f"{e}\t{','.join(draw(st.permutations(['r', 's', 'isA']))[:k])}" for e in entities]


def relations_fault(edit):
    def fault(text, earlier, draw):
        fields = text.split("\t")
        if len(fields) == 2:
            fields[1] = ",".join(edit(fields[1].split(",")))
        return "\t".join(fields)
    return fault


def ragged(text, earlier, draw):
    if not earlier:  # the first line sets k, so a ragged first line would fault the second
        return missing_field(text, earlier, draw)
    more = draw(st.booleans())
    return relations_fault(lambda rels: rels + ["t"] if more else rels[:-1])(text, earlier, draw)


def repeated_entity(text, earlier, draw):
    if not earlier:
        return extra_field(text, earlier, draw)
    return set_field(0, [line.split("\t")[0] for line in earlier])(text, earlier, draw)


KEYREL_FAULTS = {
    **FIELD_FAULTS,
    "unknown relation": relations_fault(lambda rels: rels[:1] + ["nosuch"] + rels[2:]),
    "repeated relation": relations_fault(lambda rels: rels[:1] * 2 + rels[2:]),
    "ragged": ragged,
    "unknown entity": set_field(0, ["nosuch", "", "A"]),
    "repeated entity": repeated_entity,
    "comment": lambda text, earlier, draw: "# " + text,
}


@LARGER
@given(case=keyrel_lines().flatmap(lambda lines: damaged_file(lines, KEYREL_FAULTS, False)))
@example(case=(b"\n# b\tr\nc\tr,s\n", {2, 3}))  # unknown entity and k = 1, then 2 relations
def test_read_keyrel_tsv_matches_line_reader(tmp_path_factory, case):
    data, faulty = case
    path = write(tmp_path_factory, data)
    assert_agree(path, lambda: keyrel.read_keyrel_tsv(path, ENTITIES, RELATIONS),
                 lambda: oracles.line_read_keyrel_tsv(path, ENTITIES, RELATIONS),
                 oracles.same_table, faulty)


@st.composite
def interaction_lines(draw):
    rows = draw(st.lists(st.tuples(st.sampled_from(["u", "v", "w"]), token,
                                   st.sampled_from(["0", "1", "-3", "+2", " 4", "1_0",
                                                    str(2**63 - 1), str(-2**63)])),
                         min_size=1, max_size=10))
    return ["\t".join(row) for row in rows]


INTERACTION_FAULTS = {
    **FIELD_FAULTS,
    "bad order index": set_field(2, ["x", "1.5", "", "0x1"]),
    "order index beyond int64": set_field(2, [str(2**63), str(-2**63 - 1), "9" * 30]),
}


@SMALL
@given(case=interaction_lines().flatmap(
    lambda lines: damaged_file(lines, INTERACTION_FAULTS, True)))
def test_load_interactions_matches_line_reader(tmp_path_factory, case):
    data, faulty = case
    path = write(tmp_path_factory, data)
    assert_agree(path, lambda: downstream.load_interactions(path),
                 lambda: oracles.line_load_interactions(path), same_interactions, faulty)


@st.composite
def id_triple_lines(draw, last):
    rows = draw(st.lists(st.tuples(head, st.sampled_from(["r", "s", "isA"]), last),
                         min_size=1, max_size=10))
    return ["\t".join(row) for row in rows]


ID_TRIPLE_FAULTS = {**FIELD_FAULTS, "unknown head": set_field(0, ["nosuch", "A"]),
                    "unknown relation": set_field(1, ["nosuch", "a"]),
                    "unknown tail": set_field(2, ["nosuch", ""])}


@SMALL
@given(case=id_triple_lines(token).flatmap(
    lambda lines: damaged_file(lines, ID_TRIPLE_FAULTS, True)))
def test_eval_lp_triple_ids_match_line_reader(tmp_path_factory, case):
    data, faulty = case
    path = write(tmp_path_factory, data)
    assert_agree(path, lambda: cli._triple_ids(path, ENTITIES, RELATIONS),
                 lambda: oracles.line_triple_ids(path, ENTITIES, RELATIONS), same_array, faulty)


PAIR_FAULTS = {**FIELD_FAULTS, "bad label": set_field(2, ["yes", "2", "", " 1"]),
               "unknown head": set_field(0, ["nosuch"]),
               "unknown relation": set_field(1, ["nosuch"])}


@SMALL
@given(case=id_triple_lines(st.sampled_from(["0", "1"])).flatmap(
    lambda lines: damaged_file(lines, PAIR_FAULTS, True)))
def test_eval_rel_pairs_match_line_reader(tmp_path_factory, case):
    data, faulty = case
    path = write(tmp_path_factory, data)
    assert_agree(path, lambda: cli._labeled_pairs(path, ENTITIES, RELATIONS),
                 lambda: oracles.line_labeled_pairs(path, ENTITIES, RELATIONS), same_pairs, faulty)
