"""Service vector computation, bundling, binary export, and the query server.

S_triple(h, r) = h + r answers a triple query with the inferred tail
position. S_rel(h, r) = M_r h - r answers a relation query with a vector
near zero when the relation holds; pkgm.model computes both. Bundles
materialize these per entity for its k key relations under one of four
variants and are frozen so downstream consumers cannot mutate them.
"""

from __future__ import annotations

import asyncio
import json
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .keyrel import KeyRelationTable
from .kgstore import Vocab, sorted_index, write_atomically
from .model import ModelParams, relation_service, triple_service

VARIANTS = ("item", "all", "T", "R")
# encoded response bytes one snapshot's answer memo keeps; the least
# recently used lines go first
MEMO_BYTES = 16 << 20
# bytes of records write_services stages per write call
WRITE_CHUNK_BYTES = 1 << 20


def _relation_rows(params: ModelParams, hs, rs) -> np.ndarray:
    """S_rel rows summed in float64 and rounded once, whatever rows share the BLAS call."""
    return relation_service(params, hs, rs, dtype=np.float64).astype(np.float32)


# each variant's service formulas in record order, k rows apiece; "item"
# has none and serves the entity's own embedding as its one row
_FORMULAS = {"item": (), "T": (triple_service,), "R": (_relation_rows,),
             "all": (triple_service, _relation_rows)}


def _record_dtype(variant: str, k: int, dim: int) -> np.dtype:
    """One export record: uint32 entity id, then its service rows as float32."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    rows = len(_FORMULAS[variant]) * k if _FORMULAS[variant] else 1
    return np.dtype([("id", "<u4"), ("vec", "<f4", (rows, dim))])


@dataclass
class ServiceBundle:
    """Service vectors of the entities in ids under one variant.

    ids is ascending uint32, (count,). block[i] holds the rows of entity
    ids[i]: (2k, d) for "all" (triple-module rows first), (k, d) for
    "T"/"R", and (1, d) for "item". block is read-only float32.
    """

    variant: str
    k: int
    dim: int
    ids: np.ndarray
    block: np.ndarray


def _fill(out: np.ndarray, params: ModelParams, ids: np.ndarray, rows: np.ndarray,
          variant: str) -> None:
    """Write the service rows of entities ids, whose key relations are rows
    (n, k), into out, an (n, rows per record, d) float32 view.

    out is filled one key-relation slot at a time, so only one slot's n rows
    are held besides it; no row's bytes depend on the chunk (see _relation_rows).
    """
    formulas, k = _FORMULAS[variant], rows.shape[1]
    if not formulas:
        out[:, 0] = params.entity_emb[ids]
    for part, fn in enumerate(formulas):
        for j in range(k):
            out[:, part * k + j] = fn(params, ids, rows[:, j])


def build_bundle(params: ModelParams, keyrels: KeyRelationTable,
                 variant: str) -> ServiceBundle:
    """Materialize frozen service vectors for every entity in the table."""
    ids = keyrels.ids.astype(np.uint32)
    k = keyrels.rows.shape[1]
    block = np.empty((len(ids), *_record_dtype(variant, k, params.dim)["vec"].shape),
                     dtype=np.float32)
    _fill(block, params, ids, keyrels.rows, variant)
    ids.setflags(write=False)
    block.setflags(write=False)
    return ServiceBundle(variant=variant, k=k, dim=params.dim, ids=ids, block=block)


def condense_single(bundle: ServiceBundle) -> np.ndarray:
    """Mean over i of [S_i ; S_{i+k}] per entity of an "all" bundle, (count, 2d)."""
    if bundle.variant != "all":
        raise ValueError(f"condense_single requires variant 'all', got {bundle.variant!r}")
    count, k, dim = len(bundle.ids), bundle.k, bundle.dim
    # a running sum over the k rows of both halves at once, in the order the
    # mean over their concatenation adds them (np.mean would sum a d = 1 half
    # pairwise)
    halves = bundle.block.reshape(count, 2, k, dim)
    total = np.zeros((count, 2, dim), dtype=np.float32)
    for i in range(k):
        total += halves[:, :, i]
    return (total / k).reshape(count, 2 * dim)


def write_services(path, params: ModelParams, keyrels: KeyRelationTable,
                   variant: str) -> None:
    """Write the service vectors of every entity in the table under variant
    to the binary export format.

    One JSON header line {variant, k, d, count}, then per entity in
    ascending id order: uint32 little-endian entity id followed by the
    entity's vectors as little-endian float32, row order, as build_bundle
    gives them. The records are filled and written one chunk of about
    WRITE_CHUNK_BYTES at a time, so the export holds one chunk and one
    key-relation slot's rows of it whatever the entity count. The file is
    written next to path and then moved into place.
    """
    count, k = keyrels.rows.shape
    header = {"variant": variant, "k": k, "d": params.dim, "count": count}
    dtype = _record_dtype(variant, k, params.dim)
    step = max(1, WRITE_CHUNK_BYTES // dtype.itemsize)
    records = np.empty(min(step, count), dtype=dtype)

    def write(tmp):
        with open(tmp, "wb") as fh:
            fh.write((json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))
            for lo in range(0, count, step):
                chunk = records[:min(step, count - lo)]
                ids = keyrels.ids[lo:lo + step]
                chunk["id"] = ids
                _fill(chunk["vec"], params, ids, keyrels.rows[lo:lo + step], variant)
                fh.write(chunk)  # the buffer's own bytes, no copy

    write_atomically([(path, write)])


def read_services(path) -> ServiceBundle:
    """Read a file written by write_services; ValueError names what is malformed."""
    with open(path, "rb") as fh:
        raw = fh.read()
    start = raw.find(b"\n") + 1 or len(raw)  # the records follow the header line
    try:
        header = json.loads(raw[:start].decode("utf-8"))
    except (ValueError, RecursionError):
        raise ValueError(f"{path}: header line is not JSON") from None
    if not isinstance(header, dict):
        raise ValueError(f"{path}: header must be a JSON object")
    for key in ("k", "d", "count"):
        kind, least = ("non-negative", 0) if key == "count" else ("positive", 1)
        if type(header.get(key)) is not int or header[key] < least:
            raise ValueError(f"{path}: header key {key!r} must be a {kind} integer")
    variant, k, dim, count = header.get("variant"), header["k"], header["d"], header["count"]
    if variant not in VARIANTS:
        raise ValueError(f"{path}: header key 'variant': unknown variant {variant!r}")
    try:
        dtype = _record_dtype(variant, k, dim)
    except ValueError as exc:
        raise ValueError(f"{path}: header keys 'k' and 'd': {exc}") from None
    size = len(raw) - start
    if size < count * dtype.itemsize:
        raise ValueError(f"{path}: truncated record; {count} records need "
                         f"{count * dtype.itemsize} bytes after the header, got {size}")
    if size > count * dtype.itemsize:
        raise ValueError(f"{path}: trailing bytes after {count} records")
    # read-only views into the immutable file bytes, no copy
    records = np.frombuffer(raw, dtype=dtype, count=count, offset=start)
    ids, block = records["id"], records["vec"]
    if (ids[1:] <= ids[:-1]).any():
        i = int(np.argmax(ids[1:] <= ids[:-1])) + 1
        raise ValueError(f"{path}: record {i}: entity id {ids[i]} follows {ids[i - 1]}; "
                         f"ids must be strictly ascending")
    return ServiceBundle(variant=variant, k=k, dim=dim, ids=ids, block=block)


@dataclass
class _Snapshot:
    params: ModelParams
    keyrels: KeyRelationTable
    entity_vocab: Vocab
    relation_vocab: Vocab
    # _resolve's key -> encoded answer line, least recently used first
    memo: OrderedDict = field(default_factory=OrderedDict, init=False)
    memo_bytes: int = field(default=0, init=False)


def _resolve(request, snap: _Snapshot) -> tuple | dict:
    """The key that decides request's answer, ("triple"|"relation", h, r) or
    ("bundle", e, variant) in snap's ids, or else the error answer. Nothing
    else reads request fields."""
    if not isinstance(request, dict):
        return {"error": "bad_request"}
    op = request.get("op")
    if op in ("triple", "relation"):
        h, r = request.get("h"), request.get("r")
        if not isinstance(h, str) or not isinstance(r, str):
            return {"error": "bad_request"}
        if h not in snap.entity_vocab or r not in snap.relation_vocab:
            return {"error": "unknown_id"}
        return op, snap.entity_vocab.id(h), snap.relation_vocab.id(r)
    if op == "bundle":
        e, variant = request.get("e"), request.get("variant")
        if not isinstance(e, str) or variant not in VARIANTS:
            return {"error": "bad_request"}
        if e not in snap.entity_vocab:
            return {"error": "unknown_id"}
        return op, snap.entity_vocab.id(e), variant
    return {"error": "bad_request"}


def _answer(snap: _Snapshot, key: tuple | dict) -> dict:
    """The answer to what _resolve returned for a request."""
    if isinstance(key, dict):
        return key
    op, h, arg = key
    if op != "bundle":
        fn = triple_service if op == "triple" else _relation_rows
        return {"vector": fn(snap.params, [h], [arg])[0].tolist()}
    if arg == "item":
        return {"vectors": snap.params.entity_emb[[h]].astype(np.float32, copy=False).tolist()}
    at = sorted_index(snap.keyrels.ids, [h])[0]
    if at < 0:  # in vocabulary but not serviceable (no key relations)
        return {"error": "unknown_id"}
    rels = snap.keyrels.rows[at]
    vecs = [fn(snap.params, [h] * len(rels), rels) for fn in _FORMULAS[arg]]
    return {"vectors": np.concatenate(vecs).tolist()}


class QueryService:
    """Answers triple/relation/bundle queries from an immutable snapshot.

    Reloading replaces the snapshot in a single reference assignment, so
    in-flight requests keep the state they started with, and drops the
    snapshot's memo of encoded answers with it.
    """

    def __init__(self, params: ModelParams, keyrels: KeyRelationTable,
                 entity_vocab: Vocab, relation_vocab: Vocab):
        self._snapshot = _Snapshot(params, keyrels, entity_vocab, relation_vocab)

    def load_snapshot(self, params: ModelParams, keyrels: KeyRelationTable,
                      entity_vocab: Vocab, relation_vocab: Vocab) -> None:
        self._snapshot = _Snapshot(params, keyrels, entity_vocab, relation_vocab)

    def handle(self, request, snap: _Snapshot | None = None) -> dict:
        """The answer to one decoded request, from snap or else the current snapshot."""
        snap = self._snapshot if snap is None else snap
        return _answer(snap, _resolve(request, snap))

    def answer_line(self, request) -> bytes:
        """handle(request) encoded as one response line.

        The line of a request that resolves to ids, unknown_id for a bundle of
        an entity with no key relations included, is kept in the snapshot's
        memo, keyed by _resolve(request), so a repeated request gets the same
        bytes without being answered or encoded again; the memo holds at most
        MEMO_BYTES, least recently used lines evicted first. A NaN or
        infinite vector entry is answered {"error": "internal"}. The memo is
        not locked: call this from one thread, as the server's event loop does.
        """
        snap = self._snapshot
        key = _resolve(request, snap)
        line = snap.memo.get(key) if isinstance(key, tuple) else None
        if line is not None:
            snap.memo.move_to_end(key)
            return line
        response = self.handle(request, snap)
        try:
            line = (json.dumps(response, allow_nan=False) + "\n").encode("utf-8")
        except ValueError:  # a NaN or infinite vector entry
            return b'{"error": "internal"}\n'
        if isinstance(key, tuple):
            snap.memo[key] = line
            snap.memo_bytes += len(line)
            while snap.memo_bytes > MEMO_BYTES:
                snap.memo_bytes -= len(snap.memo.popitem(last=False)[1])
        return line


_BAD_REQUEST = b'{"error": "bad_request"}\n'


async def _handle_connection(service: QueryService, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
    oversized = False
    try:
        while True:
            try:
                line = await reader.readuntil(b"\n")
            except asyncio.IncompleteReadError as exc:
                line = exc.partial
            except asyncio.LimitOverrunError as exc:
                # drop what is buffered of a line over the reader's limit and
                # answer it once its end has been read
                await reader.readexactly(exc.consumed)
                oversized = True
                continue
            if not line and not oversized:
                break
            if oversized:
                response, oversized = _BAD_REQUEST, False
            else:
                try:
                    request = json.loads(line.decode("utf-8"))
                except (ValueError, RecursionError):
                    response = _BAD_REQUEST
                else:
                    response = service.answer_line(request)
            writer.write(response)
            await writer.drain()
    except (asyncio.CancelledError, ConnectionError):
        pass  # shutdown or a client reset: end this connection, and log nothing
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (asyncio.CancelledError, ConnectionError):
            pass


async def serve(service: QueryService, host: str = "127.0.0.1",
                port: int = 0) -> asyncio.AbstractServer:
    """Start the line-delimited JSON-over-TCP server; caller owns its lifetime."""
    return await asyncio.start_server(partial(_handle_connection, service), host=host, port=port)
