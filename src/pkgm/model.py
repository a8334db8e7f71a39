"""Model parameters, the two service formulas, the transfer kernel and checkpoints.

The triple query module scores (h, r, t) as |S_triple(h, r) - t|_1 with
S_triple(h, r) = h + r; the relation query module scores (h, r) as
|S_rel(h, r)|_1 with S_rel(h, r) = M_r h - r, M_r the transfer matrix of
relation r. The combined score is their sum. Subgradients use sign(0) = 0.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .kgstore import Vocab, write_atomically

CHECKPOINT_FORMAT_VERSION = 1
HEADER_FILE = "header.json"
BLOBS = {"entity_emb": "entity_emb.f32", "relation_emb": "relation_emb.f32",
         "transfer": "transfer.f32"}
ENTITY_VOCAB_FILE = "entities.tsv"
RELATION_VOCAB_FILE = "relations.tsv"


@dataclass
class ModelParams:
    """Learnable parameter tables.

    entity_emb is (n_entities, dim), relation_emb is (n_relations, dim),
    transfer is (n_relations, dim, dim).
    """

    dim: int
    entity_emb: np.ndarray
    relation_emb: np.ndarray
    transfer: np.ndarray

    @property
    def n_entities(self) -> int:
        return self.entity_emb.shape[0]

    @property
    def n_relations(self) -> int:
        return self.relation_emb.shape[0]


def init_params(n_entities: int, n_relations: int, dim: int,
                rng: np.random.Generator) -> ModelParams:
    """Initialize float32 parameter tables.

    Entity and relation rows are drawn uniformly from [-6/sqrt(d), 6/sqrt(d)]
    and L2-normalized per row. Transfer matrices start at the identity plus
    uniform noise in [-0.01, 0.01] so relation existence begins near an
    identity transfer without symmetry lock.
    """
    bound = 6.0 / np.sqrt(dim)
    ent = rng.uniform(-bound, bound, size=(n_entities, dim)).astype(np.float32)
    ent /= np.linalg.norm(ent, axis=1, keepdims=True)
    rel = rng.uniform(-bound, bound, size=(n_relations, dim)).astype(np.float32)
    rel /= np.linalg.norm(rel, axis=1, keepdims=True)
    transfer = np.tile(np.eye(dim, dtype=np.float32), (n_relations, 1, 1))
    for m in transfer: m += rng.uniform(-0.01, 0.01, size=(dim, dim)).astype(np.float32)
    return ModelParams(dim=dim, entity_emb=ent, relation_emb=rel, transfer=transfer)


class RelationGroups:
    """The rows of a batch in relation order as one span [lo, hi) per
    relation id; rel_ids must be ascending.

    The relation count is small, so applying each transfer matrix M_r to
    its own rows as one matrix product needs no (B, d, d) gather of the
    transfer tensor, and the transfer gradient becomes one product per
    relation instead of a scatter of B outer products (the block-wise
    relation operator of PyTorch-BigGraph). The trainer sorts each batch
    once and relation_service sorts the rows of other callers.
    """

    def __init__(self, rel_ids):
        rel_ids = np.asarray(rel_ids, dtype=np.int64)
        cuts = (np.flatnonzero(rel_ids[1:] != rel_ids[:-1]) + 1).tolist()
        starts = [0, *cuts][:len(rel_ids)]  # no span when empty
        self.spans = list(zip(rel_ids[starts].tolist(), starts, [*cuts, len(rel_ids)]))

    def forward(self, transfer: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Row i of the result is M_r x_i for the relation r of row i."""
        out = np.empty(x.shape, dtype=np.result_type(x, transfer))
        for r, lo, hi in self.spans:
            np.matmul(x[lo:hi], transfer[r].T.astype(out.dtype, copy=False), out=out[lo:hi])
        return out

    def backward(self, transfer: np.ndarray, grad_out: np.ndarray, table: np.ndarray,
                 ids: np.ndarray, grad_transfer: np.ndarray) -> np.ndarray:
        """Return the rows M_r^T g_i and add sum_i g_i x_i^T into grad_transfer[r],
        x_i = table[ids[i]] gathered one span at a time."""
        back = np.empty(grad_out.shape, dtype=np.result_type(grad_out, transfer))
        for r, lo, hi in self.spans:
            g = grad_out[lo:hi]
            np.matmul(g, transfer[r], out=back[lo:hi])
            grad_transfer[r] += g.T @ table[ids[lo:hi]]
        return back

    def add_row_sums(self, rows: np.ndarray, table: np.ndarray) -> None:
        """Add the sum of each span's rows into table[r], rows C-contiguous.

        numpy sums axis 0 of a C-contiguous (n, d > 1) block one row after
        another, so into a zeroed table this equals np.add.at(table,
        rel_ids, rows) bit for bit; a single column would be summed
        pairwise, so it is summed by a running sum instead.
        """
        for r, lo, hi in self.spans:
            block = rows[lo:hi]
            table[r] += block.sum(axis=0) if block.shape[1] > 1 else np.cumsum(block, axis=0)[-1]


def triple_service(params: ModelParams, hs, rs, dtype=np.float32) -> np.ndarray:
    """The rows e_h + r_r of S_triple for the id arrays hs and rs, in dtype."""
    return (params.entity_emb[hs].astype(dtype, copy=False)
            + params.relation_emb[rs].astype(dtype, copy=False))


def relation_service(params: ModelParams, hs, rs, dtype=np.float32,
                     groups: RelationGroups | None = None) -> np.ndarray:
    """The rows M_r e_h - r_r of S_rel in dtype. groups, when given, is
    RelationGroups(rs) of rows already in relation order; other rows are
    sorted by relation once, stably, and the result scattered back once.
    No table is copied whole: only the gathered rows and each relation's M_r are cast to dtype."""
    order = None
    if groups is None:
        rs = np.asarray(rs, dtype=np.int64)
        order = np.argsort(rs, kind="stable")
        hs, rs = np.asarray(hs, dtype=np.int64)[order], rs[order]
        groups = RelationGroups(rs)
    rows = groups.forward(params.transfer, params.entity_emb[hs].astype(dtype, copy=False))
    rows -= params.relation_emb[rs]
    if order is None:
        return rows
    out = np.empty_like(rows)
    out[order] = rows
    return out


def save_checkpoint(out_dir, params: ModelParams, entity_vocab: Vocab,
                    relation_vocab: Vocab) -> Path:
    """Write a checkpoint directory.

    Layout: header.json plus three little-endian float32 blobs (entity
    table, relation table, transfer tensor, all C order) and the two
    vocabulary TSV files. The round trip is bit-exact. Every file is
    written before any replaces its old version, header.json last.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if len(entity_vocab) != params.n_entities or len(relation_vocab) != params.n_relations:
        raise ValueError("vocab sizes do not match parameter tables")
    header = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "dim": params.dim,
        "n_entities": params.n_entities,
        "n_relations": params.n_relations,
        "entity_vocab": ENTITY_VOCAB_FILE,
        "relation_vocab": RELATION_VOCAB_FILE,
        "blobs": BLOBS,
    }
    header_text = json.dumps(header, indent=2) + "\n"
    write_atomically(
        [(out_dir / file_name, np.ascontiguousarray(getattr(params, name), dtype="<f4").tofile)
         for name, file_name in BLOBS.items()]
        + [(out_dir / ENTITY_VOCAB_FILE, entity_vocab.write_tsv),
           (out_dir / RELATION_VOCAB_FILE, relation_vocab.write_tsv),
           (out_dir / HEADER_FILE, lambda tmp: tmp.write_text(header_text, encoding="utf-8"))])
    return out_dir


def load_checkpoint(ckpt_dir) -> tuple[ModelParams, Vocab, Vocab]:
    """Read a checkpoint directory; ValueError names the file that is malformed
    or whose table holds a NaN or infinite entry."""
    ckpt_dir = Path(ckpt_dir)
    header_path = ckpt_dir / HEADER_FILE
    try:
        header = json.loads(header_path.read_bytes().decode("utf-8"))
    except (ValueError, RecursionError):  # not UTF-8 or not JSON
        raise ValueError(f"{header_path}: not a UTF-8 JSON file") from None
    try:
        version = header["format_version"]
        sizes = {key: header[key] for key in ("dim", "n_entities", "n_relations")}
        files = {name: header["blobs"][name] for name in BLOBS}
        files.update((key, header[key]) for key in ("entity_vocab", "relation_vocab"))
    except KeyError as exc:
        raise ValueError(f"{header_path}: missing header key {exc.args[0]!r}") from None
    except TypeError:
        raise ValueError(f"{header_path}: header is not a JSON object of the expected shape") from None
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"{header_path}: unsupported checkpoint format_version {version}")
    for key, value in sizes.items():
        kind, least = ("positive", 1) if key == "dim" else ("non-negative", 0)
        if type(value) is not int or value < least:
            raise ValueError(f"{header_path}: header key {key!r} must be a {kind} integer")
    for key, value in files.items():
        if not isinstance(value, str):
            raise ValueError(f"{header_path}: header key {key!r} must be a file name")
    dim, n_e, n_r = sizes.values()

    def blob(name, shape):
        path = ckpt_dir / files[name]
        # one read, straight into the writable table
        with path.open("rb") as f:
            size = os.fstat(f.fileno()).st_size
            if size != 4 * math.prod(shape):
                raise ValueError(f"{path}: {size} bytes, expected 4 per entry of shape {shape}")
            values = np.fromfile(f, dtype="<f4").reshape(shape).astype(np.float32, copy=False)
        if not np.isfinite(values).all():
            raise ValueError(f"{path}: holds a NaN or infinite entry")
        return values

    params = ModelParams(
        dim=dim,
        entity_emb=blob("entity_emb", (n_e, dim)),
        relation_emb=blob("relation_emb", (n_r, dim)),
        transfer=blob("transfer", (n_r, dim, dim)),
    )
    entity_vocab = Vocab.read_tsv(ckpt_dir / files["entity_vocab"])
    relation_vocab = Vocab.read_tsv(ckpt_dir / files["relation_vocab"])
    if len(entity_vocab) != n_e or len(relation_vocab) != n_r:
        raise ValueError(f"{ckpt_dir}: vocab sizes do not match checkpoint header")
    return params, entity_vocab, relation_vocab
