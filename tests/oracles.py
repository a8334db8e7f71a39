"""Scalar and row-wise reference forms of the batched formulas: the test oracles.

The trainer, evaluation and servicing compute service vectors, scores and
subgradients for whole batches at once; these functions compute the same
formulas one triple at a time and serve as the reference the tests compare
them with. PerGroupRelationGroups is the transfer kernel with one gather
and one scatter per relation group, batch_order_terms the trainer's batch
terms without its relation sort, and accumulate_add_at the trainer's
gradient scatter in its batch-order, row-wise np.add.at form: the
addition order its faster form keeps. The four_table_* functions are the
recommender's initialization, forward and backward with separate GMF and
MLP embedding tables per side, which its one table of user rows then item
rows reproduces bit for bit; four_table_forward takes the service table,
zero columns wide without services, as the recommender does. They read the
widths and L2 from pkgm.downstream's module constants when called, so a
test that patches those constants patches both sides, and they use their
own copies of the sigmoid (its boolean-mask form) and the float64 segment
sum, so a change to either shows. interactions_from_rows builds an
InteractionSet from (user, item, order index) token rows, the tests' own
form of interactions, which no pipeline stage reads. keyrel_table builds a
key relation table from an {entity: relations} dict, the form the
brute-force key relation oracles give, same_table compares two tables and
same_vocab two vocabularies. one_call_build_bundle,
one_array_write_services and concatenated_condense are the service
export's forms that hold the whole table at once: one kernel call per
module over every (entity, slot) pair, one records array the size of the
export, and a (count, k, 2d) copy of the two halves; the bounded-memory
forms in pkgm.servicing reproduce their bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from pkgm import downstream, servicing
from pkgm.downstream import InteractionSet
from pkgm.keyrel import KeyRelationTable
from pkgm.kgstore import TripleStore, Vocab
from pkgm.model import ModelParams, relation_service, triple_service


def _check_index(idx: int, size: int, kind: str) -> None:
    # negative ids would silently wrap under numpy indexing
    if not 0 <= idx < size:
        raise IndexError(f"{kind} id {idx} out of range [0, {size})")


def service_triple(params: ModelParams, h: int, r: int) -> np.ndarray:
    _check_index(h, params.n_entities, "entity")
    _check_index(r, params.n_relations, "relation")
    return params.entity_emb[h] + params.relation_emb[r]


def service_relation(params: ModelParams, h: int, r: int) -> np.ndarray:
    _check_index(h, params.n_entities, "entity")
    _check_index(r, params.n_relations, "relation")
    return params.transfer[r] @ params.entity_emb[h] - params.relation_emb[r]


def relation_error_bound(params: ModelParams, h: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """float64 M_r h - r and the float32 rounding bound for computing it.

    A length-d float32 dot product followed by one subtraction is within
    gamma_(d+1) = (d+1)u / (1 - (d+1)u) of the sum of the absolute
    summands, u the float32 unit roundoff, in any summation order.
    """
    h_vec = params.entity_emb[h].astype(np.float64)
    m = params.transfer[r].astype(np.float64)
    r_vec = params.relation_emb[r].astype(np.float64)
    u = np.finfo(np.float32).eps / 2
    gamma = (params.dim + 1) * u / (1 - (params.dim + 1) * u)
    return m @ h_vec - r_vec, gamma * (np.abs(m) @ np.abs(h_vec) + np.abs(r_vec))


@dataclass
class TripleScore:
    value: float
    parts: tuple[float, float]


@dataclass
class Gradients:
    """Sparse gradient of the combined score for a single triple."""

    d_head: np.ndarray
    d_tail: np.ndarray
    d_relation: np.ndarray
    d_transfer: np.ndarray


def score_triple(params: ModelParams, h: int, r: int, t: int) -> float:
    _check_index(h, params.n_entities, "entity")
    _check_index(t, params.n_entities, "entity")
    _check_index(r, params.n_relations, "relation")
    diff = params.entity_emb[h] + params.relation_emb[r] - params.entity_emb[t]
    return float(np.abs(diff).sum())


def score_relation(params: ModelParams, h: int, r: int) -> float:
    _check_index(h, params.n_entities, "entity")
    _check_index(r, params.n_relations, "relation")
    resid = params.transfer[r] @ params.entity_emb[h] - params.relation_emb[r]
    return float(np.abs(resid).sum())


def score_combined(params: ModelParams, h: int, r: int, t: int) -> TripleScore:
    f_triple = score_triple(params, h, r, t)
    f_rel = score_relation(params, h, r)
    return TripleScore(value=f_triple + f_rel, parts=(f_triple, f_rel))


def gradients(params: ModelParams, h: int, r: int, t: int) -> Gradients:
    """Analytic subgradient of the combined score at one triple.

    d_head = sign(h + r - t) + M_r^T sign(M_r h - r)
    d_tail = -sign(h + r - t)
    d_relation = sign(h + r - t) - sign(M_r h - r)
    d_transfer = sign(M_r h - r) h^T
    """
    _check_index(h, params.n_entities, "entity")
    _check_index(t, params.n_entities, "entity")
    _check_index(r, params.n_relations, "relation")
    vh = params.entity_emb[h]
    vr = params.relation_emb[r]
    vt = params.entity_emb[t]
    m = params.transfer[r]
    s_triple = np.sign(vh + vr - vt)
    s_rel = np.sign(m @ vh - vr)
    return Gradients(
        d_head=s_triple + m.T @ s_rel,
        d_tail=-s_triple,
        d_relation=s_triple - s_rel,
        d_transfer=np.outer(s_rel, vh),
    )


class PerGroupRelationGroups:
    """pkgm.model.RelationGroups in its per-group form: each relation's rows
    are gathered, multiplied and scattered back on their own, in batch order."""

    def __init__(self, rel_ids):
        rel_ids = np.asarray(rel_ids, dtype=np.int64)
        order = np.argsort(rel_ids, kind="stable")
        ordered = rel_ids[order]
        cuts = (np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist()
        starts, ends = [0, *cuts][:len(order)], [*cuts, len(order)]
        rels = ordered[starts].tolist()
        self.groups = [(r, order[lo:hi]) for r, lo, hi in zip(rels, starts, ends)]

    def forward(self, transfer, x):
        out = np.empty(x.shape, dtype=np.result_type(x, transfer))
        for r, idx in self.groups:
            out[idx] = x[idx] @ transfer[r].T.astype(out.dtype, copy=False)
        return out

    def backward(self, transfer, grad_out, table, ids, grad_transfer):
        back = np.empty(grad_out.shape, dtype=np.result_type(grad_out, transfer))
        for r, idx in self.groups:
            g = grad_out[idx]
            back[idx] = g @ transfer[r]
            grad_transfer[r] += g.T @ table[ids[idx]]
        return back

    def add_row_sums(self, rows, table):
        for r, idx in self.groups:
            block = rows[idx]
            table[r] += block.sum(axis=0) if block.shape[1] > 1 else np.cumsum(block, axis=0)[-1]


def batch_order_terms(params: ModelParams, hs, rs, ts):
    """trainer._batch_terms' scores, diff and resid, all in batch order."""
    diff = triple_service(params, hs, rs) - params.entity_emb[ts]
    resid = relation_service(params, hs, rs, groups=PerGroupRelationGroups(rs))
    return np.abs(diff).sum(axis=1) + np.abs(resid).sum(axis=1), diff, resid


def accumulate_add_at(grads, params: ModelParams, hs, rs, ts, weight) -> None:
    """trainer._accumulate in batch order, with per-group products and one
    row-wise np.add.at per table slot."""
    _, diff, resid = batch_order_terms(params, hs, rs, ts)
    s_t = np.sign(diff) * weight[:, None]
    s_r = np.sign(resid) * weight[:, None]
    back = PerGroupRelationGroups(rs).backward(params.transfer, s_r, params.entity_emb, hs,
                                               grads["transfer"])
    np.add.at(grads["entity_emb"], hs, s_t + back)
    np.add.at(grads["entity_emb"], ts, -s_t)
    np.add.at(grads["relation_emb"], rs, s_t - s_r)


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _segment_sum(idx, rows, out) -> None:
    n_rows, d = out.shape
    flat = (idx[:, None] * d + np.arange(d)).ravel()
    out[...] = np.bincount(flat, weights=rows.ravel(), minlength=n_rows * d).reshape(n_rows, d)


def four_table_init(n_users, n_items, service_dim, rng) -> dict[str, np.ndarray]:
    """The recommender's parameters with gmf_user, gmf_item, mlp_user and mlp_item tables."""
    def glorot(n_in, n_out):
        lim = np.sqrt(6.0 / (n_in + n_out))
        return rng.uniform(-lim, lim, size=(n_in, n_out)).astype(np.float32)

    gmf_dim, mlp_dim, hidden = downstream.GMF_DIM, downstream.MLP_DIM, downstream.HIDDEN
    params = {
        "gmf_user": rng.normal(0.0, 0.01, size=(n_users, gmf_dim)).astype(np.float32),
        "gmf_item": rng.normal(0.0, 0.01, size=(n_items, gmf_dim)).astype(np.float32),
        "mlp_user": rng.normal(0.0, 0.01, size=(n_users, mlp_dim)).astype(np.float32),
        "mlp_item": rng.normal(0.0, 0.01, size=(n_items, mlp_dim)).astype(np.float32),
    }
    in_dim = 2 * mlp_dim + service_dim
    for layer, width in enumerate(hidden, start=1):
        params[f"w{layer}"] = glorot(in_dim, width)
        params[f"b{layer}"] = np.zeros(width, dtype=np.float32)
        in_dim = width
    out_dim = gmf_dim + hidden[-1]
    params["w_out"] = glorot(out_dim, 1)[:, 0]
    return params


def four_table_forward(p, service, users, items):
    gmf = p["gmf_user"][users] * p["gmf_item"][items]
    mlp_in = np.concatenate([p["mlp_user"][users], p["mlp_item"][items], service[items]], axis=1)
    activations = [mlp_in]
    z = mlp_in
    for layer in range(1, len(downstream.HIDDEN) + 1):
        z = np.maximum(z @ p[f"w{layer}"] + p[f"b{layer}"], 0.0)
        activations.append(z)
    feat = np.concatenate([gmf, z], axis=1)
    prob = _sigmoid(feat @ p["w_out"])
    return prob, gmf, activations, feat


def four_table_backward(p, grads, users, items, labels, prob, gmf, activations, feat) -> None:
    batch = len(labels)
    dlogit = (prob - labels).astype(np.float32) / np.float32(batch)
    np.matmul(feat.T, dlogit, out=grads["w_out"])
    dfeat = np.outer(dlogit, p["w_out"])
    gdim = gmf.shape[1]
    dgmf = dfeat[:, :gdim]
    dz = dfeat[:, gdim:]
    for layer in range(len(downstream.HIDDEN), 0, -1):
        dz = dz * (activations[layer] > 0)
        np.matmul(activations[layer - 1].T, dz, out=grads[f"w{layer}"])
        dz.sum(axis=0, out=grads[f"b{layer}"])
        dz = dz @ p[f"w{layer}"].T
    mdim = p["mlp_user"].shape[1]
    row_grads = (
        ("gmf_user", users, dgmf * p["gmf_item"][items]),
        ("gmf_item", items, dgmf * p["gmf_user"][users]),
        ("mlp_user", users, dz[:, :mdim]),
        ("mlp_item", items, dz[:, mdim:2 * mdim]),
    )
    for name, idx, rows in row_grads:
        _segment_sum(idx, rows + downstream.L2 * p[name][idx], grads[name])


def interactions_from_rows(rows) -> InteractionSet:
    """The InteractionSet of (user, item, order index) token rows."""
    users, items, order = list(zip(*rows)) or [(), (), ()]
    if not users:
        raise ValueError("no interactions")
    user_vocab, item_vocab = Vocab(dict.fromkeys(users)), Vocab(dict.fromkeys(items))
    return InteractionSet(users=user_vocab, items=item_vocab, interactions=np.stack(
        [user_vocab.ids(users), item_vocab.ids(items), np.array(order, dtype=np.int64)],
        axis=1))


def keyrel_table(rows: dict[int, tuple[int, ...]]) -> KeyRelationTable:
    """The KeyRelationTable of an {entity id: key relations} dict, ids ascending."""
    entities = sorted(rows)
    return KeyRelationTable(ids=entities, rows=[rows[e] for e in entities])


def same_table(a: KeyRelationTable, b: KeyRelationTable) -> bool:
    """Whether a and b hold equal int64 ids and key relation rows, shapes included."""
    return all(x.dtype == y.dtype == np.int64 and x.shape == y.shape and (x == y).all()
               for x, y in ((a.ids, b.ids), (a.rows, b.rows)))


def same_vocab(a: Vocab, b: Vocab) -> bool:
    """Whether a and b are vocabularies of the same tokens in the same id order."""
    return isinstance(a, Vocab) and isinstance(b, Vocab) and list(a) == list(b)


def one_call_build_bundle(params: ModelParams, keyrels: KeyRelationTable,
                          variant: str) -> servicing.ServiceBundle:
    """servicing.build_bundle with one kernel call per module over the whole table;
    relation rows are the float64 kernel's rounded once to float32."""
    ids = keyrels.ids.astype(np.uint32)
    n, k = keyrels.rows.shape
    rels = keyrels.rows.reshape(n * k)

    def relation_rows(params, hs, rs):
        return relation_service(params, hs, rs, dtype=np.float64).astype(np.float32)

    if variant == "item":
        block = params.entity_emb[ids][:, None, :]
    else:
        fns = {"T": [triple_service], "R": [relation_rows],
               "all": [triple_service, relation_rows]}[variant]
        hs = np.repeat(ids, k)
        block = np.concatenate([fn(params, hs, rels).reshape(n, k, params.dim) for fn in fns],
                               axis=1)
    block = np.ascontiguousarray(block, dtype=np.float32)
    return servicing.ServiceBundle(variant=variant, k=k, dim=params.dim, ids=ids, block=block)


def one_array_write_services(path, bundle: servicing.ServiceBundle) -> None:
    """The export file of an in-memory bundle, every record staged in one array
    before one write: servicing.write_services's bytes for build_bundle's bundle."""
    header = {"variant": bundle.variant, "k": bundle.k, "d": bundle.dim,
              "count": len(bundle.ids)}
    records = np.empty(len(bundle.ids),
                       dtype=servicing._record_dtype(bundle.variant, bundle.k, bundle.dim))
    records["id"], records["vec"] = bundle.ids, bundle.block
    with open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))
        fh.write(records)


def concatenated_condense(bundle: servicing.ServiceBundle) -> np.ndarray:
    """servicing.condense_single as a mean over the concatenated halves."""
    k = bundle.k
    return np.concatenate([bundle.block[:, :k], bundle.block[:, k:]], axis=2).mean(axis=1)


def line_read_tsv(path, n_fields, convert=tuple, comments=True) -> list:
    """Rows of a TAB-separated UTF-8 file, convert(fields) for each data line.

    A carriage return before a line's newline is dropped. Blank lines are
    skipped, and so are lines starting with "#" unless comments is False.
    A line that is not UTF-8, has other than n_fields fields (any count
    when n_fields is None), or makes convert raise ValueError ends the read
    in ValueError prefixed with "path: line N:".
    """
    rows = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").rstrip("\r\n")
                if not line or comments and line.startswith("#"):
                    continue
                fields = line.split("\t")
                if n_fields is not None and len(fields) != n_fields:
                    raise ValueError(
                        f"expected {n_fields} TAB-separated fields, got {len(fields)}")
                rows.append(convert(fields))
            except ValueError as exc:  # UnicodeDecodeError included
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return rows


def _id(vocab: Vocab, token: str, kind: str) -> int:
    """The id of token in vocab; ValueError("unknown <kind> token ...") when absent."""
    if token not in vocab:
        raise ValueError(f"unknown {kind} token {token!r}")
    return vocab.id(token)


def _intern(ids: dict, token) -> int:
    return ids.setdefault(token, len(ids))


def line_store_from_triples(rows, category_relation="isA") -> TripleStore:
    """kgstore.store_from_triples, one dict insert per token of each distinct row."""
    unique = list(dict.fromkeys((h, r, t) for h, r, t in rows))
    if not unique:
        raise ValueError("no triples")
    entities, relations, ids, categories = {}, {}, [], {}
    for head, rel, tail in unique:
        h = _intern(entities, head)
        ids.append((h, _intern(relations, rel), _intern(entities, tail)))
        if rel == category_relation:
            categories[h] = min(tail, categories.get(h, tail))
    return TripleStore(
        entities=Vocab(entities), relations=Vocab(relations), triples=ids,
        category_of={e: entities[tok] for e, tok in categories.items()},
        relation_counts=dict(enumerate(np.bincount([r for _, r, _ in ids]).tolist())),
        category_relation=category_relation)


def line_load_triples(path, category_relation="isA") -> TripleStore:
    return line_store_from_triples(line_read_tsv(path, 3), category_relation)


def line_vocab_read_tsv(path) -> Vocab:
    """Vocab.read_tsv: "token<TAB>id" lines whose ids count up from 0."""
    ids: dict[str, int] = {}

    def add(fields):
        try:
            tok, idx = fields
            idx = int(idx)
        except ValueError:
            raise ValueError("expected token<TAB>integer id") from None
        if _intern(ids, tok) != idx:
            raise ValueError(f"ids are not dense: {tok} -> {idx}")

    line_read_tsv(path, None, add, comments=False)
    return Vocab(ids)


def line_read_keyrel_tsv(path, entity_vocab: Vocab, relation_vocab: Vocab) -> KeyRelationTable:
    """keyrel.read_keyrel_tsv: k distinct relations per line, one k, no entity twice."""
    rows: dict[int, tuple[int, ...]] = {}

    def add(fields):
        entity, rels = fields
        tokens = rels.split(",")
        rel_ids = tuple(_id(relation_vocab, tok, "relation") for tok in tokens)
        k = len(next(iter(rows.values()), rel_ids))  # the first line sets k
        if len(rel_ids) != k:
            raise ValueError(f"expected {k} relations, got {len(rel_ids)}")
        if len(set(rel_ids)) != k:
            twice = next(tok for i, tok in enumerate(tokens) if tok in tokens[:i])
            raise ValueError(f"relation {twice!r} listed twice")
        e = _id(entity_vocab, entity, "entity")
        if e in rows:
            raise ValueError(f"entity {entity!r} listed twice")
        rows[e] = rel_ids

    line_read_tsv(path, 2, add, comments=False)
    if not rows:
        raise ValueError(f"{path}: empty key relation table")
    return keyrel_table(rows)


def line_load_interactions(path) -> InteractionSet:
    """downstream.load_interactions: "user<TAB>item<TAB>order_index" lines."""

    def row(fields):
        user, item, order = fields
        try:
            order = int(order)
        except ValueError:
            raise ValueError("order index must be an integer") from None
        if not -2**63 <= order < 2**63:
            raise ValueError(f"order index {order} is outside the int64 range")
        return user, item, order

    users, items = {}, {}
    interactions = [(_intern(users, u), _intern(items, i), o)
                    for u, i, o in line_read_tsv(path, 3, row)]
    if not interactions:
        raise ValueError("no interactions")
    return InteractionSet(users=Vocab(users), items=Vocab(items), interactions=interactions)


def line_triple_ids(path, entity_vocab: Vocab, relation_vocab: Vocab) -> np.ndarray:
    """The ids eval-lp reads from a triple file, one (h, r, t) tuple per line."""

    def triple_ids(fields):
        h, r, t = fields
        return (_id(entity_vocab, h, "entity"), _id(relation_vocab, r, "relation"),
                _id(entity_vocab, t, "entity"))

    return np.array(line_read_tsv(path, 3, triple_ids), dtype=np.int64).reshape(-1, 3)


def line_labeled_pairs(path, entity_vocab: Vocab, relation_vocab: Vocab) -> list:
    """The (h, r, exists) pairs eval-rel reads, one tuple per line."""

    def labeled_pair(fields):
        h, r, label = fields
        if label not in ("0", "1"):
            raise ValueError(f"label must be 0 or 1, got {label!r}")
        return (_id(entity_vocab, h, "entity"), _id(relation_vocab, r, "relation"), label == "1")

    return line_read_tsv(path, 3, labeled_pair)
