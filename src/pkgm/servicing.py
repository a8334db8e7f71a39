"""Service vector computation, bundling, binary export, and the query server.

S_triple(h, r) = h + r answers a triple query with the inferred tail
position. S_rel(h, r) = M_r h - r answers a relation query with a vector
near zero when the relation holds. Bundles materialize these per entity
for its k key relations under one of four variants and are frozen so
downstream consumers cannot mutate them.
"""

from __future__ import annotations

import asyncio
import json
import struct
from dataclasses import dataclass

import numpy as np

from .keyrel import KeyRelationTable
from .kgstore import Vocab
from .model import ModelParams, RelationGroups, _check_index

VARIANTS = ("item", "all", "T", "R")

_ROWS_PER_ENTITY = {"item": lambda k: 1, "T": lambda k: k, "R": lambda k: k,
                    "all": lambda k: 2 * k}


def service_triple(params: ModelParams, h: int, r: int) -> np.ndarray:
    _check_index(h, params.n_entities, "entity")
    _check_index(r, params.n_relations, "relation")
    return params.entity_emb[h] + params.relation_emb[r]


def service_relation(params: ModelParams, h: int, r: int) -> np.ndarray:
    _check_index(h, params.n_entities, "entity")
    _check_index(r, params.n_relations, "relation")
    return params.transfer[r] @ params.entity_emb[h] - params.relation_emb[r]


@dataclass
class ServiceBundle:
    """Per-entity service vectors under one variant.

    vectors[e] is (2k, d) for "all" (triple-module rows first), (k, d)
    for "T"/"R", and (1, d) for "item". Arrays are non-writeable.
    """

    variant: str
    k: int
    dim: int
    vectors: dict[int, np.ndarray]

    def vectors_for(self, entity_id: int) -> np.ndarray:
        return self.vectors[entity_id]

    def rows_per_entity(self) -> int:
        return _ROWS_PER_ENTITY[self.variant](self.k)


def _entity_vectors(params: ModelParams, entities: np.ndarray, rels: np.ndarray,
                    variant: str) -> np.ndarray:
    """Service rows of each entity under its key relations, (n, rows, d).

    entities is (n,) entity ids and rels is (n, k) relation ids.
    """
    heads = params.entity_emb[entities]
    if variant == "item":
        return heads[:, None, :]
    n, k = rels.shape
    rs = rels.reshape(-1)
    heads = np.repeat(heads, k, axis=0)
    rel = params.relation_emb[rs]
    parts = []
    if variant in ("T", "all"):
        parts.append(heads + rel)
    if variant in ("R", "all"):
        parts.append(RelationGroups(rs).forward(params.transfer, heads) - rel)
    return np.concatenate([p.reshape(n, k, params.dim) for p in parts], axis=1)


def build_bundle(params: ModelParams, keyrels: KeyRelationTable,
                 variant: str) -> ServiceBundle:
    """Materialize frozen service vectors for every entity in the table."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    entities = sorted(keyrels.rows)
    rels = np.asarray([keyrels.rows[e] for e in entities], dtype=np.int64)
    block = np.ascontiguousarray(
        _entity_vectors(params, np.asarray(entities, dtype=np.int64),
                        rels.reshape(len(entities), keyrels.k), variant),
        dtype=np.float32)
    block.setflags(write=False)
    vectors = {e: block[i] for i, e in enumerate(entities)}
    return ServiceBundle(variant=variant, k=keyrels.k, dim=params.dim, vectors=vectors)


def condense_single(bundle: ServiceBundle, entity_id: int) -> np.ndarray:
    """Mean over i of [S_i ; S_{i+k}], a 2d summary of an "all" bundle."""
    if bundle.variant != "all":
        raise ValueError(f"condense_single requires variant 'all', got {bundle.variant!r}")
    arr = bundle.vectors[entity_id]
    k = bundle.k
    return np.concatenate([arr[:k], arr[k:]], axis=1).mean(axis=0)


def condense_full(bundle: ServiceBundle, entity_id: int) -> np.ndarray:
    """All 2k vectors concatenated in bundle order, a 2kd vector."""
    if bundle.variant != "all":
        raise ValueError(f"condense_full requires variant 'all', got {bundle.variant!r}")
    return bundle.vectors[entity_id].reshape(-1).copy()


def write_services(path, bundle: ServiceBundle) -> None:
    """Write a bundle to the binary export format.

    One JSON header line {variant, k, d, count}, then per entity in
    ascending id order: uint32 little-endian entity id followed by the
    entity's vectors as little-endian float32, row order.
    """
    header = {"variant": bundle.variant, "k": bundle.k, "d": bundle.dim,
              "count": len(bundle.vectors)}
    with open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))
        for e in sorted(bundle.vectors):
            fh.write(struct.pack("<I", e))
            fh.write(np.ascontiguousarray(bundle.vectors[e], dtype="<f4").tobytes())


def read_services(path) -> ServiceBundle:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        variant, k, dim, count = header["variant"], header["k"], header["d"], header["count"]
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r} in {path}")
        rows = _ROWS_PER_ENTITY[variant](k)
        rec_floats = rows * dim
        vectors = {}
        for _ in range(count):
            raw_id = fh.read(4)
            if len(raw_id) != 4:
                raise ValueError(f"{path}: truncated record")
            (e,) = struct.unpack("<I", raw_id)
            raw = fh.read(4 * rec_floats)
            if len(raw) != 4 * rec_floats:
                raise ValueError(f"{path}: truncated record for entity {e}")
            arr = np.frombuffer(raw, dtype="<f4").reshape(rows, dim).astype(np.float32)
            arr.setflags(write=False)
            vectors[e] = arr
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after {count} records")
    return ServiceBundle(variant=variant, k=k, dim=dim, vectors=vectors)


@dataclass
class _Snapshot:
    params: ModelParams
    keyrels: KeyRelationTable
    entity_vocab: Vocab
    relation_vocab: Vocab


class QueryService:
    """Answers triple/relation/bundle queries from an immutable snapshot.

    Reloading replaces the snapshot in a single reference assignment, so
    in-flight requests keep the state they started with.
    """

    def __init__(self, params: ModelParams, keyrels: KeyRelationTable,
                 entity_vocab: Vocab, relation_vocab: Vocab):
        self._snapshot = _Snapshot(params, keyrels, entity_vocab, relation_vocab)

    def load_snapshot(self, params: ModelParams, keyrels: KeyRelationTable,
                      entity_vocab: Vocab, relation_vocab: Vocab) -> None:
        self._snapshot = _Snapshot(params, keyrels, entity_vocab, relation_vocab)

    def handle(self, request) -> dict:
        snap = self._snapshot
        if not isinstance(request, dict):
            return {"error": "bad_request"}
        op = request.get("op")
        if op in ("triple", "relation"):
            h_tok, r_tok = request.get("h"), request.get("r")
            if not isinstance(h_tok, str) or not isinstance(r_tok, str):
                return {"error": "bad_request"}
            if h_tok not in snap.entity_vocab or r_tok not in snap.relation_vocab:
                return {"error": "unknown_id"}
            h = snap.entity_vocab.id(h_tok)
            r = snap.relation_vocab.id(r_tok)
            fn = service_triple if op == "triple" else service_relation
            return {"vector": np.asarray(fn(snap.params, h, r), dtype=np.float32).tolist()}
        if op == "bundle":
            e_tok, variant = request.get("e"), request.get("variant")
            if not isinstance(e_tok, str) or variant not in VARIANTS:
                return {"error": "bad_request"}
            if e_tok not in snap.entity_vocab:
                return {"error": "unknown_id"}
            e = snap.entity_vocab.id(e_tok)
            if variant != "item" and e not in snap.keyrels.rows:
                # in vocabulary but not serviceable (no key relations)
                return {"error": "unknown_id"}
            rels = np.asarray(snap.keyrels.rows.get(e, ()), dtype=np.int64)
            vecs = _entity_vectors(snap.params, np.asarray([e]), rels[None, :], variant)[0]
            return {"vectors": np.asarray(vecs, dtype=np.float32).tolist()}
        return {"error": "bad_request"}


async def _handle_connection(service: QueryService, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
    try:
        while True:
            line = await reader.readline()
            if not line:
                break
            try:
                request = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                response = {"error": "bad_request"}
            else:
                response = service.handle(request)
            writer.write((json.dumps(response) + "\n").encode("utf-8"))
            await writer.drain()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass


async def serve(service: QueryService, host: str = "127.0.0.1",
                port: int = 0) -> asyncio.AbstractServer:
    """Start the line-delimited JSON-over-TCP server; caller owns its lifetime."""

    async def handler(reader, writer):
        await _handle_connection(service, reader, writer)

    return await asyncio.start_server(handler, host=host, port=port)
