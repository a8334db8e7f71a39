import asyncio
import json
import socket
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import (
    concatenated_condense,
    keyrel_table,
    one_array_write_services,
    one_call_build_bundle,
    relation_error_bound,
    service_relation,
    service_triple,
    store_of,
)

from pkgm import servicing, synth
from pkgm.cli import dispatch
from pkgm.keyrel import (
    KeyRelationTable,
    read_keyrel_tsv,
    select_key_relations,
    write_keyrel_tsv,
)
from pkgm.kgstore import Vocab, sorted_index
from pkgm.model import (
    ModelParams,
    init_params,
    load_checkpoint,
    relation_service,
    save_checkpoint,
    triple_service,
)
from pkgm.servicing import (
    QueryService,
    ServiceBundle,
    build_bundle,
    condense_single,
    read_services,
    serve,
    write_services,
)


def tiny_params():
    ent = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]], dtype=np.float32)
    rel = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
    transfer = np.stack([np.eye(2), np.zeros((2, 2))]).astype(np.float32)
    return ModelParams(dim=2, entity_emb=ent, relation_emb=rel, transfer=transfer)


def test_service_triple_hand_values():
    params = tiny_params()
    np.testing.assert_array_equal(service_triple(params, 2, 0), [0.0, 0.0])  # h = -r
    np.testing.assert_array_equal(service_triple(params, 0, 1), [1.0, 1.0])
    np.testing.assert_array_equal(triple_service(params, [2, 0], [0, 1]), [[0.0, 0.0], [1.0, 1.0]])


def test_service_relation_hand_values():
    params = tiny_params()
    # M = identity and h = r encode existence exactly
    np.testing.assert_array_equal(service_relation(params, 0, 0), [0.0, 0.0])
    # M = 0 reduces to the negated relation embedding
    np.testing.assert_array_equal(service_relation(params, 0, 1), [0.0, -1.0])
    np.testing.assert_array_equal(relation_service(params, [0, 0], [0, 1]),
                                  [[0.0, 0.0], [0.0, -1.0]])


BUNDLE_ROWS = {0: (0, 2, 1), 3: (1, 0, 2), 5: (3, 1, 0)}


@pytest.fixture
def bundle_setup(rng):
    return init_params(6, 4, 5, rng), keyrel_table(BUNDLE_ROWS)


def test_bundle_matches_direct_recomputation(bundle_setup):
    params, table = bundle_setup
    t = build_bundle(params, table, "T")
    r = build_bundle(params, table, "R")
    both = build_bundle(params, table, "all")
    item = build_bundle(params, table, "item")
    for bundle in (t, r, both, item):
        assert bundle.ids.dtype == np.uint32
        np.testing.assert_array_equal(bundle.ids, [0, 3, 5])
    for at, e in enumerate(sorted(BUNDLE_ROWS)):
        for i, rel in enumerate(BUNDLE_ROWS[e]):
            np.testing.assert_allclose(t.block[at, i], service_triple(params, e, rel))
            # a relation row is the float64 sum rounded once to float32, so
            # it is checked against the float64 value within the float32
            # error bound of its summands
            exact, bound = relation_error_bound(params, e, rel)
            assert np.all(np.abs(r.block[at, i] - exact) <= bound)
        # "all" is the T bundle followed by the R bundle
        np.testing.assert_array_equal(both.block[at, :3], t.block[at])
        np.testing.assert_array_equal(both.block[at, 3:], r.block[at])
        np.testing.assert_array_equal(item.block[at, 0], params.entity_emb[e])
    assert both.block.shape == (3, 6, 5)
    assert t.block.shape == r.block.shape == (3, 3, 5)
    assert item.block.shape == (3, 1, 5)


def test_bundle_vectors_frozen(bundle_setup):
    params, table = bundle_setup
    bundle = build_bundle(params, table, "all")
    with pytest.raises(ValueError):
        bundle.block[0, 0, 0] = 99.0
    with pytest.raises(ValueError):
        bundle.ids[0] = 7


def test_bundle_index_finds_served_entities(bundle_setup):
    params, table = bundle_setup
    bundle = build_bundle(params, table, "T")
    np.testing.assert_array_equal(sorted_index(bundle.ids, [5, 0, 1, 3, 6, -1]),
                                  [2, 0, -1, 1, -1, -1])
    empty = ServiceBundle(variant="T", k=3, dim=5, ids=np.empty(0, dtype=np.uint32),
                          block=np.empty((0, 3, 5), dtype=np.float32))
    np.testing.assert_array_equal(sorted_index(empty.ids, [0, 2]), [-1, -1])


def test_bundle_rejects_unknown_variant(bundle_setup):
    params, table = bundle_setup
    with pytest.raises(ValueError, match="unknown variant"):
        build_bundle(params, table, "both")


def test_condense_single_matches_loop_oracle(bundle_setup):
    params, table = bundle_setup
    bundle = build_bundle(params, table, "all")
    condensed = condense_single(bundle)
    assert condensed.shape == (3, 2 * bundle.dim)
    for at in range(len(bundle.ids)):
        arr = bundle.block[at]
        acc = np.zeros(2 * bundle.dim)
        for i in range(bundle.k):
            acc += np.concatenate([arr[i], arr[i + bundle.k]])
        np.testing.assert_allclose(condensed[at], acc / bundle.k, rtol=1e-6)


def _one_entity_bundle(k, block):
    return ServiceBundle(variant="all", k=k, dim=block.shape[-1],
                         ids=np.zeros(1, dtype=np.uint32), block=block[None])


def test_condense_single_k1_is_plain_concatenation():
    bundle = _one_entity_bundle(1, np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32))
    np.testing.assert_array_equal(condense_single(bundle), [[1.0, 2.0, 3.0, 4.0]])


def test_condense_single_zero_bundle():
    bundle = _one_entity_bundle(2, np.zeros((4, 3), dtype=np.float32))
    np.testing.assert_array_equal(condense_single(bundle), np.zeros((1, 6)))


def test_condense_single_linear_in_bundle(bundle_setup):
    params, table = bundle_setup
    scaled = ModelParams(
        dim=params.dim,
        entity_emb=params.entity_emb * 3.0,
        relation_emb=params.relation_emb * 3.0,
        transfer=params.transfer,
    )
    a = build_bundle(params, table, "all")
    b = build_bundle(scaled, table, "all")
    np.testing.assert_allclose(condense_single(b), 3.0 * condense_single(a), rtol=1e-5)


def test_condense_requires_all_variant(bundle_setup):
    params, table = bundle_setup
    t = build_bundle(params, table, "T")
    with pytest.raises(ValueError, match="variant 'all'"):
        condense_single(t)


@settings(max_examples=60, deadline=None)
@given(count=st.integers(0, 4), k=st.integers(1, 20), dim=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_condense_single_bit_equal_to_concatenated_mean(count, k, dim, seed):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-3, 4, size=(count, 2 * k, dim))
    block = (rng.standard_normal((count, 2 * k, dim)) * scale).astype(np.float32)
    block[rng.random(block.shape) < 0.2] = -0.0
    bundle = ServiceBundle(variant="all", k=k, dim=dim, ids=np.arange(count, dtype=np.uint32),
                           block=block)
    got, want = condense_single(bundle), concatenated_condense(bundle)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def planted_case():
    """A 2,000 x 64 model with k = 10 key relations per entity of the planted KG."""
    kg = synth.planted_kg(n_entities=2000, n_categories=20, seed=5)
    store = store_of(kg.triples)
    params = init_params(store.n_entities, store.n_relations, 64, np.random.default_rng(5))
    return params, select_key_relations(store, k=10)


def _export_case(request, case):
    if case == "bundle_setup":
        return request.getfixturevalue("bundle_setup")
    if case == "planted_2000_k10":
        return request.getfixturevalue("planted_case")
    if case == "d1_k1":
        return (init_params(5, 3, 1, np.random.default_rng(1)),
                keyrel_table({0: (2,), 2: (0,), 4: (2,)}))
    # relation 3 is a key relation of entity 4 only
    return (init_params(6, 4, 5, np.random.default_rng(2)),
            keyrel_table({0: (0, 1), 1: (1, 0), 3: (0, 2), 4: (3, 0), 5: (2, 1)}))


@pytest.mark.parametrize("case", ["bundle_setup", "planted_2000_k10", "d1_k1",
                                  "relation_of_one_entity"])
@pytest.mark.parametrize("variant", servicing.VARIANTS)
def test_bundle_bit_equal_to_one_kernel_call(request, case, variant):
    params, table = _export_case(request, case)
    got = build_bundle(params, table, variant)
    want = one_call_build_bundle(params, table, variant)
    assert got.ids.tobytes() == want.ids.tobytes()
    assert got.block.shape == want.block.shape
    np.testing.assert_array_equal(got.block.view(np.uint32), want.block.view(np.uint32))


@pytest.mark.parametrize("variant,k,dim", [("all", 2, 3), ("T", 1, (1 << 18) + 1)],
                         ids=["52-byte-records", "record-over-a-chunk"])
@pytest.mark.parametrize("count_of", [lambda c: 0, lambda c: 1, lambda c: c - 1, lambda c: c,
                                      lambda c: c + 1],
                         ids=["0", "1", "chunk-1", "chunk", "chunk+1"])
def test_services_file_byte_equal_to_one_array_write(tmp_path, variant, k, dim, count_of):
    record = servicing._record_dtype(variant, k, dim).itemsize
    count = max(0, count_of(max(1, servicing.WRITE_CHUNK_BYTES // record)))
    n_relations = 3
    rng = np.random.default_rng(count)
    # a zero-stride transfer tensor: T never reads it, and a dense one would
    # not fit at this d
    transfer = (np.broadcast_to(np.float32(0.5), (n_relations, dim, dim)) if variant == "T"
                else rng.standard_normal((n_relations, dim, dim)).astype(np.float32))
    params = ModelParams(dim=dim,
                         entity_emb=rng.standard_normal((3 * count, dim)).astype(np.float32),
                         relation_emb=rng.standard_normal((n_relations, dim)).astype(np.float32),
                         transfer=transfer)
    ids, rows = np.arange(count) * 3, rng.integers(0, n_relations, size=(count, k))
    # a KeyRelationTable of no entities cannot reshape its rows to (0, k);
    # the export reads only ids and rows
    table = KeyRelationTable(ids, rows) if count else SimpleNamespace(ids=ids, rows=rows)
    write_services(tmp_path / "chunked.bin", params, table, variant)
    one_array_write_services(tmp_path / "one.bin", build_bundle(params, table, variant))
    assert (tmp_path / "chunked.bin").read_bytes() == (tmp_path / "one.bin").read_bytes()


@pytest.mark.parametrize("variant", servicing.VARIANTS)
@pytest.mark.parametrize("chunk_records", [1, 7, 333])
def test_export_bytes_do_not_depend_on_the_chunk(tmp_path, monkeypatch, planted_case, variant,
                                                 chunk_records):
    """At d = 64 a relation's rows in one chunk can be few enough for the BLAS
    to round them apart from the one call over the table."""
    params, table = planted_case
    record = servicing._record_dtype(variant, table.rows.shape[1], params.dim).itemsize
    monkeypatch.setattr(servicing, "WRITE_CHUNK_BYTES", chunk_records * record)
    write_services(tmp_path / "chunked.bin", params, table, variant)
    one_array_write_services(tmp_path / "one.bin", build_bundle(params, table, variant))
    assert (tmp_path / "chunked.bin").read_bytes() == (tmp_path / "one.bin").read_bytes()


@pytest.fixture
def planted_export(tmp_path):
    """A d = 64 checkpoint and k = 10 key relation file of planted_case's KG."""
    kg = synth.planted_kg(n_entities=2000, n_categories=20, seed=5)
    store = store_of(kg.triples)
    params = init_params(store.n_entities, store.n_relations, 64, np.random.default_rng(5))
    save_checkpoint(tmp_path / "ckpt", params, store.entities, store.relations)
    write_keyrel_tsv(tmp_path / "keyrels.tsv", select_key_relations(store, k=10),
                     store.entities, store.relations)
    return tmp_path / "ckpt", tmp_path / "keyrels.tsv"


@pytest.mark.parametrize("variant", ["all", "R", "item"])
def test_export_holds_one_chunk_and_little_more(tmp_path, monkeypatch, planted_export, variant):
    """The export holds the loaded tables, one write chunk and one
    key-relation slot's rows of it, never the whole block."""
    ckpt, keyrels = planted_export
    chunk = 64_000
    monkeypatch.setattr(servicing, "WRITE_CHUNK_BYTES", chunk)
    argv = ["export-services", "--checkpoint", str(ckpt), "--keyrel", str(keyrels),
            "--variant", variant, "--out", str(tmp_path / "services.bin")]
    assert dispatch(argv) == 0  # first calls fill caches the traced runs should not count
    tracemalloc.start()
    try:
        params, entities, relations = load_checkpoint(ckpt)
        table = read_keyrel_tsv(keyrels, entities, relations)
        load_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    record = servicing._record_dtype(variant, table.rows.shape[1], params.dim).itemsize
    assert len(table.ids) * record >= 8 * chunk
    del params, entities, relations, table
    tracemalloc.start()
    try:
        assert dispatch(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= load_peak + 4 * chunk


def test_services_file_round_trip(tmp_path, bundle_setup):
    params, table = bundle_setup
    bundle = build_bundle(params, table, "all")
    path = tmp_path / "services.bin"
    write_services(path, params, table, "all")

    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
    assert header == {"count": 3, "d": 5, "k": 3, "variant": "all"}

    back = read_services(path)
    assert (back.variant, back.k, back.dim) == ("all", 3, 5)
    assert back.ids.dtype == bundle.ids.dtype
    np.testing.assert_array_equal(back.ids, bundle.ids)
    assert back.block.dtype == np.float32
    np.testing.assert_array_equal(back.block, bundle.block)
    assert not back.block.flags.writeable
    assert not back.ids.flags.writeable


def _per_record_bytes(bundle):
    """The export layout written record by record, as the format states it."""
    header = {"variant": bundle.variant, "k": bundle.k, "d": bundle.dim,
              "count": len(bundle.ids)}
    out = (json.dumps(header, sort_keys=True) + "\n").encode("utf-8")
    for e, rows in zip(bundle.ids.tolist(), bundle.block):
        out += struct.pack("<I", e) + np.ascontiguousarray(rows, dtype="<f4").tobytes()
    return out


@pytest.mark.parametrize("variant", servicing.VARIANTS)
def test_services_bytes_match_per_record_layout(tmp_path, bundle_setup, variant):
    params, table = bundle_setup
    bundle = build_bundle(params, table, variant)
    path = tmp_path / "services.bin"
    write_services(path, params, table, variant)
    assert path.read_bytes() == _per_record_bytes(bundle)


def test_services_file_rejects_truncation(tmp_path, bundle_setup):
    params, table = bundle_setup
    path = tmp_path / "services.bin"
    write_services(path, params, table, "T")
    data = path.read_bytes()
    path.write_bytes(data[:-3])
    with pytest.raises(ValueError, match="truncated record"):
        read_services(path)


def test_services_file_rejects_trailing_bytes(tmp_path, bundle_setup):
    params, table = bundle_setup
    path = tmp_path / "services.bin"
    write_services(path, params, table, "item")
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ValueError, match="trailing bytes after 3 records"):
        read_services(path)


def test_services_file_rejects_unknown_variant(tmp_path):
    path = tmp_path / "services.bin"
    path.write_bytes(b'{"variant": "weird", "k": 1, "d": 2, "count": 0}\n')
    with pytest.raises(ValueError, match="unknown variant"):
        read_services(path)


@pytest.mark.parametrize(
    "header,message",
    [
        (b'{"variant": "all", "d": 2, "count": 0}', "header key 'k'"),
        (b'{"variant": "all", "k": "1", "d": 2, "count": 0}', "header key 'k'"),
        (b'{"variant": "all", "k": 1, "d": 2.0, "count": 0}', "header key 'd'"),
        (b'{"variant": "all", "k": 0, "d": 2, "count": 0}',
         "header key 'k' must be a positive integer"),
        (b'{"variant": "all", "k": 1, "d": 0, "count": 0}',
         "header key 'd' must be a positive integer"),
        (b'{"variant": "all", "k": 1, "d": 2, "count": true}', "header key 'count'"),
        (b'{"variant": "all", "k": 1, "d": 2, "count": -1}', "header key 'count'"),
        (b'{"k": 1, "d": 2, "count": 0}', "header key 'variant'"),
        (b'{"variant": "all", "k": 1000000000000, "d": 2, "count": 0}', "header keys 'k' and 'd'"),
        (b'["all", 1, 2, 0]', "header must be a JSON object"),
        (b'"all"', "header must be a JSON object"),
        (b"not json", "header line is not JSON"),
        (b"\xff\xfe", "header line is not JSON"),
    ],
)
def test_services_file_header_errors_name_path_and_key(tmp_path, header, message):
    path = tmp_path / "services.bin"
    path.write_bytes(header + b"\n")
    with pytest.raises(ValueError, match=message) as info:
        read_services(path)
    assert str(info.value).startswith(f"{path}: ")


def _raw_services(ids, k=1, d=2):
    header = json.dumps({"count": len(ids), "d": d, "k": k, "variant": "T"}).encode() + b"\n"
    return header + b"".join(struct.pack("<I", e) + bytes(4 * k * d) for e in ids)


@pytest.mark.parametrize("ids,at", [([4, 4], "record 1: entity id 4 follows 4"),
                                    ([1, 3, 2], "record 2: entity id 2 follows 3")])
def test_services_file_rejects_duplicate_and_unordered_ids(tmp_path, ids, at):
    path = tmp_path / "services.bin"
    path.write_bytes(_raw_services(ids))
    with pytest.raises(ValueError, match=f"{at}; ids must be strictly ascending"):
        read_services(path)
    path.write_bytes(_raw_services(sorted(set(ids))))
    np.testing.assert_array_equal(read_services(path).ids, sorted(set(ids)))


@settings(max_examples=60, deadline=None)
@given(
    variant=st.sampled_from(servicing.VARIANTS),
    k=st.integers(1, 3),
    dim=st.integers(1, 4),
    ids=st.sets(st.integers(0, 2**32 - 1), max_size=6).map(sorted),
    seed=st.integers(0, 2**32 - 1),
)
def test_services_round_trip_is_bit_exact(tmp_path_factory, variant, k, dim, ids, seed):
    rows = {"item": 1, "T": k, "R": k, "all": 2 * k}[variant]
    raw = np.random.default_rng(seed).integers(0, 2**32, size=(len(ids), rows, dim),
                                               dtype=np.uint32)
    # arbitrary bit patterns, NaN payloads and infinities included
    block = raw.view(np.float32)
    bundle = ServiceBundle(variant=variant, k=k, dim=dim,
                           ids=np.asarray(ids, dtype=np.uint32), block=block)
    path = tmp_path_factory.mktemp("svc") / "services.bin"
    one_array_write_services(path, bundle)
    back = read_services(path)
    assert (back.variant, back.k, back.dim) == (variant, k, dim)
    assert back.ids.tobytes() == bundle.ids.tobytes()
    assert back.block.shape == block.shape and back.block.tobytes() == block.tobytes()
    assert path.read_bytes() == _per_record_bytes(bundle)


def test_services_file_truncated_anywhere_is_value_error(tmp_path, bundle_setup):
    params, table = bundle_setup
    path = tmp_path / "services.bin"
    write_services(path, params, table, "all")
    data = path.read_bytes()
    cut = tmp_path / "cut.bin"

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, len(data) - 1))
    def check(offset):
        cut.write_bytes(data[:offset])
        with pytest.raises(ValueError):
            read_services(cut)

    check()


def test_failed_services_write_leaves_previous_export(tmp_path, bundle_setup, monkeypatch):
    params, table = bundle_setup
    path = tmp_path / "services.bin"
    write_services(path, params, table, "all")
    before = path.read_bytes()

    class FullDisk:
        """A file that takes the header line, then runs out of space."""

        def __init__(self, tmp, mode):
            self.fh = open(tmp, mode)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            if self.fh.tell():
                raise OSError(28, "No space left on device")
            self.fh.write(data)

    monkeypatch.setattr(servicing, "open", FullDisk, raising=False)
    with pytest.raises(OSError, match="No space left"):
        write_services(path, params, table, "T")
    monkeypatch.undo()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["services.bin"]
    assert path.read_bytes() == before
    back = read_services(path)
    assert back.variant == "all"


@pytest.fixture
def query_service(toy_store, rng):
    params = init_params(toy_store.n_entities, toy_store.n_relations, 4, rng)
    keyrels = select_key_relations(toy_store, k=2)
    service = QueryService(params, keyrels, toy_store.entities, toy_store.relations)
    return service, params, keyrels, toy_store


def test_handle_triple_and_relation(query_service):
    service, params, _, store = query_service
    resp = service.handle({"op": "triple", "h": "apple", "r": "color"})
    np.testing.assert_allclose(resp["vector"], service_triple(params, 0, 0), rtol=1e-6)
    resp = service.handle({"op": "relation", "h": "kale", "r": "isA"})
    h, r = store.entities.id("kale"), store.relations.id("isA")
    np.testing.assert_allclose(resp["vector"], service_relation(params, h, r), rtol=1e-6)


def test_handle_is_stateless_between_requests(query_service):
    service, *_ = query_service
    req = {"op": "triple", "h": "apple", "r": "color"}
    assert service.handle(req) == service.handle(req)


@pytest.mark.parametrize(
    "request_obj",
    [
        "not a dict",
        {},
        {"op": "score", "h": "apple", "r": "color"},
        {"op": "triple", "h": 5, "r": "color"},
        {"op": "triple", "h": "apple"},
        {"op": "bundle", "e": 7, "variant": "all"},
        {"op": "bundle", "e": "apple", "variant": "weird"},
    ],
)
def test_handle_malformed_requests(query_service, request_obj):
    service, *_ = query_service
    assert service.handle(request_obj) == {"error": "bad_request"}


def test_handle_unknown_tokens(query_service):
    service, *_ = query_service
    assert service.handle({"op": "triple", "h": "pear", "r": "color"}) == {"error": "unknown_id"}
    assert service.handle({"op": "relation", "h": "apple", "r": "smells"}) == {"error": "unknown_id"}
    assert service.handle({"op": "bundle", "e": "pear", "variant": "all"}) == {"error": "unknown_id"}


def test_handle_bundle_variants(query_service):
    service, params, keyrels, store = query_service
    bundle = build_bundle(params, keyrels, "all")
    resp = service.handle({"op": "bundle", "e": "apple", "variant": "all"})
    (at,) = sorted_index(bundle.ids, [store.entities.id("apple")])
    np.testing.assert_allclose(resp["vectors"], bundle.block[at], rtol=1e-6)

    # "fruit" is in the vocabulary but has no key relations: item still works
    resp = service.handle({"op": "bundle", "e": "fruit", "variant": "item"})
    fruit = store.entities.id("fruit")
    np.testing.assert_allclose(resp["vectors"], [params.entity_emb[fruit]], rtol=1e-6)
    assert service.handle({"op": "bundle", "e": "fruit", "variant": "all"}) == {
        "error": "unknown_id"
    }


@pytest.mark.parametrize("variant", servicing.VARIANTS)
def test_served_bundle_rows_match_the_export(tmp_path, planted_case, variant):
    """A served bundle multiplies one entity's k rows and the export a
    relation's many rows at once, yet every served row is the export's bytes;
    the exported relation rows are also held to the float32 bound."""
    params, table = planted_case
    k = table.rows.shape[1]
    write_services(tmp_path / "services.bin", params, table, variant)
    exported = read_services(tmp_path / "services.bin")
    service = QueryService(params, table, Vocab(map(str, range(params.n_entities))),
                           Vocab(map(str, range(params.n_relations))))
    triple_rows = {"item": 1, "T": k, "all": k, "R": 0}[variant]
    for at in range(0, len(table.ids), 7):
        e = int(table.ids[at])
        answer = service.handle({"op": "bundle", "e": str(e), "variant": variant})
        served = np.asarray(answer["vectors"], dtype=np.float32)
        assert served.shape == exported.block[at].shape
        assert served.tobytes() == exported.block[at].tobytes()
        for i, r in enumerate(table.rows[at].tolist() if variant in ("R", "all") else []):
            exact, bound = relation_error_bound(params, e, r)
            assert np.all(np.abs(exported.block[at, triple_rows + i] - exact) <= bound)


def test_served_relation_rows_match_the_export(tmp_path, planted_case):
    """A relation answer is a one-row product, and still the exported R row's bytes."""
    params, table = planted_case
    write_services(tmp_path / "services.bin", params, table, "R")
    exported = read_services(tmp_path / "services.bin")
    service = QueryService(params, table, Vocab(map(str, range(params.n_entities))),
                           Vocab(map(str, range(params.n_relations))))
    for at in range(0, len(table.ids), 5):
        e = int(table.ids[at])
        for i, r in enumerate(table.rows[at].tolist()):
            answer = service.handle({"op": "relation", "h": str(e), "r": str(r)})
            served = np.asarray(answer["vector"], dtype=np.float32)
            assert served.tobytes() == exported.block[at, i].tobytes()


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8,
)
_tokens = st.sampled_from(["apple", "kale", "fruit", "color", "isA", "tastes", "pear", ""])
_requests = st.fixed_dictionaries(
    {"op": st.sampled_from(["triple", "relation", "bundle", "score"])},
    optional={"h": _tokens | _json_values, "r": _tokens | _json_values,
              "e": _tokens | _json_values,
              "variant": st.sampled_from(servicing.VARIANTS + ("both",)) | _json_values},
)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(request_obj=_json_values | _requests)
def test_handle_never_raises_and_answers_strict_json(query_service, request_obj):
    service, *_ = query_service
    resp = service.handle(request_obj)
    if "error" in resp:
        assert resp in ({"error": "bad_request"}, {"error": "unknown_id"})
    else:
        (key,) = resp
        assert key in ("vector", "vectors")
        json.dumps(resp, allow_nan=False)


def test_snapshot_swap_changes_answers(query_service):
    service, params, keyrels, store = query_service
    req = {"op": "triple", "h": "apple", "r": "color"}
    before = service.handle(req)
    other = init_params(store.n_entities, store.n_relations, 4,
                        np.random.default_rng(777))
    service.load_snapshot(other, keyrels, store.entities, store.relations)
    after = service.handle(req)
    assert before != after
    np.testing.assert_allclose(after["vector"], service_triple(other, 0, 0), rtol=1e-6)


async def one_request(host, port, payload):
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(payload)
        await writer.drain()
        return await reader.readline()
    finally:
        writer.close()
        await writer.wait_closed()


def test_serve_round_trip(query_service):
    service, params, *_ = query_service

    async def scenario():
        server = await serve(service, port=0)
        host, port = server.sockets[0].getsockname()[:2]
        try:
            reader, writer = await asyncio.open_connection(host, port)
            # several requests on one connection, including a malformed line
            writer.write(b'{"op": "triple", "h": "apple", "r": "color"}\n')
            writer.write(b"this is not json\n")
            writer.write(b'{"op": "triple", "h": "pear", "r": "color"}\n')
            await writer.drain()
            first = json.loads(await reader.readline())
            second = json.loads(await reader.readline())
            third = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            return first, second, third
        finally:
            server.close()
            await server.wait_closed()

    first, second, third = asyncio.run(scenario())
    np.testing.assert_allclose(first["vector"], service_triple(params, 0, 0), rtol=1e-6)
    assert second == {"error": "bad_request"}
    assert third == {"error": "unknown_id"}


def test_serve_answers_oversized_line_and_keeps_connection(query_service):
    service, params, *_ = query_service

    async def scenario(oversized):
        server = await serve(service, port=0)
        host, port = server.sockets[0].getsockname()[:2]
        try:
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(oversized)
            writer.write(b'{"op": "triple", "h": "apple", "r": "color"}\n')
            await writer.drain()
            first = json.loads(await reader.readline())
            second = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            return first, second
        finally:
            server.close()
            await server.wait_closed()

    # one line over the 64 KiB reader limit, sent whole, and a still longer
    # one whose end arrives only after the limit is passed
    for oversized in (b'{"op": "triple", "h": "' + b"x" * 70_000 + b'"}\n',
                      b"[" * 300_000 + b"\n"):
        first, second = asyncio.run(scenario(oversized))
        assert first == {"error": "bad_request"}
        np.testing.assert_allclose(second["vector"], service_triple(params, 0, 0), rtol=1e-6)


def test_serve_client_reset_ends_only_its_connection(query_service):
    service, params, *_ = query_service
    contexts = []

    async def scenario():
        asyncio.get_running_loop().set_exception_handler(lambda loop, ctx: contexts.append(ctx))
        server = await serve(service, port=0)
        host, port = server.sockets[0].getsockname()[:2]
        try:
            for _ in range(5):
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b'{"op": "bundle", "e": "apple", "variant": "all"}\n' * 500)
                await writer.drain()
                await reader.readline()  # the server is mid-stream
                # linger 0: closing sends a reset instead of a FIN
                writer.get_extra_info("socket").setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
                writer.transport.abort()
            await asyncio.sleep(0.5)  # the handlers meet the resets
            return await one_request(host, port, b'{"op": "triple", "h": "apple", "r": "color"}\n')
        finally:
            server.close()
            await server.wait_closed()

    line = asyncio.run(scenario())
    assert contexts == []
    np.testing.assert_allclose(json.loads(line)["vector"], service_triple(params, 0, 0),
                               rtol=1e-6)


def test_serve_answers_non_finite_vectors_with_internal_error(query_service):
    service, params, keyrels, store = query_service
    ent = params.entity_emb.copy()
    ent[store.entities.id("apple")] = np.nan
    ent[store.entities.id("lemon")] = np.inf
    service.load_snapshot(ModelParams(params.dim, ent, params.relation_emb, params.transfer),
                          keyrels, store.entities, store.relations)

    async def scenario():
        server = await serve(service, port=0)
        host, port = server.sockets[0].getsockname()[:2]
        try:
            reader, writer = await asyncio.open_connection(host, port)
            for h in ("apple", "lemon", "carrot"):
                writer.write(json.dumps({"op": "triple", "h": h, "r": "color"}).encode() + b"\n")
            await writer.drain()
            lines = [await reader.readline() for _ in range(3)]
            writer.close()
            await writer.wait_closed()
            return lines
        finally:
            server.close()
            await server.wait_closed()

    nan_line, inf_line, valid_line = asyncio.run(scenario())
    assert nan_line == inf_line == b'{"error": "internal"}\n'
    carrot = store.entities.id("carrot")
    np.testing.assert_allclose(json.loads(valid_line)["vector"],
                               service_triple(params, carrot, 0), rtol=1e-6)


def test_serve_1000_concurrent_identical_requests(query_service):
    service, *_ = query_service
    payload = b'{"op": "bundle", "e": "apple", "variant": "all"}\n'

    async def scenario():
        server = await serve(service, port=0)
        host, port = server.sockets[0].getsockname()[:2]
        try:
            return await asyncio.gather(
                *(one_request(host, port, payload) for _ in range(1000))
            )
        finally:
            server.close()
            await server.wait_closed()

    responses = asyncio.run(scenario())
    assert len(responses) == 1000
    assert len(set(responses)) == 1
    direct = json.dumps(service.handle(json.loads(payload))) + "\n"
    assert responses[0] == direct.encode("utf-8")


def encoded(service, request):
    return (json.dumps(service.handle(request)) + "\n").encode("utf-8")


def counted_handle_calls(service):
    """Route the service's handle through a recorder; returns the recorded requests."""
    calls = []
    handle = service.handle

    def counted(request, snap=None):
        calls.append(request)
        return handle(request, snap)

    service.handle = counted
    return calls


async def exchange(service, payloads):
    """Send payloads on one connection to a fresh server; return the response lines."""
    server = await serve(service, port=0)
    host, port = server.sockets[0].getsockname()[:2]
    try:
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(b"".join(payloads))
        await writer.drain()
        lines = [await reader.readline() for _ in payloads]
        writer.close()
        await writer.wait_closed()
        return lines
    finally:
        server.close()
        await server.wait_closed()


@pytest.mark.parametrize("request_obj", [
    {"op": "triple", "h": "apple", "r": "color"},
    {"op": "relation", "h": "kale", "r": "isA"},
    {"op": "bundle", "e": "apple", "variant": "all"},
])
def test_memoized_line_is_the_encoded_handle_answer(query_service, request_obj):
    service, *_ = query_service
    calls = counted_handle_calls(service)
    payload = json.dumps(request_obj).encode() + b"\n"
    # the same request with a key handle ignores, as traced clients send
    with_rid = json.dumps({"rid": 7, **request_obj}).encode() + b"\n"
    miss, hit, hit_with_rid = asyncio.run(exchange(service, [payload, payload, with_rid]))
    assert len(calls) == 1
    assert miss == hit == hit_with_rid == encoded(service, request_obj)


@pytest.mark.parametrize("entity", ["apple", "fruit"])  # "fruit" has no key relations
def test_bundle_looks_up_its_key_relation_row_on_a_miss_only(query_service, monkeypatch, entity):
    service, *_ = query_service
    request_obj = {"op": "bundle", "e": entity, "variant": "all"}
    want = encoded(service, request_obj)
    lookups = []
    lookup = servicing.sorted_index
    monkeypatch.setattr(servicing, "sorted_index", lambda *args: lookups.append(args) or lookup(*args))
    assert service.answer_line(request_obj) == want
    assert len(lookups) == 1
    assert service.answer_line(request_obj) == service.answer_line(request_obj) == want
    assert len(lookups) == 1


def test_reload_drops_memoized_answers(query_service):
    service, params, keyrels, store = query_service
    req = {"op": "triple", "h": "apple", "r": "color"}
    before = service.answer_line(req)
    assert service.answer_line(req) == before
    other = init_params(store.n_entities, store.n_relations, 4, np.random.default_rng(777))
    service.load_snapshot(other, keyrels, store.entities, store.relations)
    after = service.answer_line(req)
    assert after != before
    assert after == encoded(service, req)
    np.testing.assert_allclose(json.loads(after)["vector"], service_triple(other, 0, 0),
                               rtol=1e-6)


def test_non_finite_answer_is_internal_error_on_every_request(query_service):
    service, params, keyrels, store = query_service
    ent = params.entity_emb.copy()
    ent[store.entities.id("apple")] = np.nan
    service.load_snapshot(ModelParams(params.dim, ent, params.relation_emb, params.transfer),
                          keyrels, store.entities, store.relations)
    payloads = [b'{"op": "triple", "h": "apple", "r": "color"}\n',
                b'{"op": "bundle", "e": "apple", "variant": "all"}\n'] * 2
    lines = asyncio.run(exchange(service, payloads))
    assert lines == [b'{"error": "internal"}\n'] * 4
    assert not service._snapshot.memo


_well_formed = (
    st.fixed_dictionaries({"op": st.sampled_from(["triple", "relation"]), "h": _tokens,
                           "r": _tokens}, optional={"rid": st.integers(0, 3)})
    | st.fixed_dictionaries({"op": st.just("bundle"), "e": _tokens,
                             "variant": st.sampled_from(servicing.VARIANTS + ("both",))},
                            optional={"rid": st.integers(0, 3)})
)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(stream=st.lists(_well_formed | _requests | _json_values, min_size=1, max_size=8)
       .flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=40)))
def test_memo_answers_a_mixed_stream_as_handle_does(query_service, stream):
    """Valid, unknown and malformed requests of every variant, repeated in any
    order, each get the encoded answer handle gives them alone."""
    service, *_ = query_service
    for request_obj in stream:
        assert service.answer_line(request_obj) == encoded(service, request_obj)


def test_memo_evicts_least_recently_used_within_its_budget(query_service, monkeypatch):
    service, _, _, store = query_service
    reqs = [{"op": "triple", "h": h, "r": "color"} for h in ("apple", "lemon", "carrot", "kale")]
    sizes = [len(encoded(service, req)) for req in reqs]
    monkeypatch.setattr(servicing, "MEMO_BYTES", sum(sizes[:3]))
    memo = service._snapshot.memo

    def answer(req):
        assert service.answer_line(req) == encoded(service, req)
        assert service._snapshot.memo_bytes == sum(map(len, memo.values())) <= servicing.MEMO_BYTES

    for req in reqs[:3]:
        answer(req)
    assert len(memo) == 3
    answer(reqs[0])  # a hit makes apple the most recently used
    answer(reqs[3])
    # the memo is keyed by the ids the request resolves to
    color = store.relations.id("color")
    apple, lemon, kale = (store.entities.id(h) for h in ("apple", "lemon", "kale"))
    assert ("triple", lemon, color) not in memo
    assert {("triple", apple, color), ("triple", kale, color)} <= set(memo)

    # a line over the whole budget is answered but not kept
    monkeypatch.setattr(servicing, "MEMO_BYTES", 10)
    answer({"op": "bundle", "e": "apple", "variant": "all"})
    assert not memo


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(request_obj=_json_values | _requests)
def test_answer_line_is_the_encoded_handle_answer(query_service, request_obj):
    service, *_ = query_service
    want = encoded(service, request_obj)
    assert service.answer_line(request_obj) == want
    assert service.answer_line(request_obj) == want
