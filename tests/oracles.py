"""Per-triple service vectors, scores and subgradients: the scalar oracles.

The trainer, evaluation and servicing compute service vectors, scores and
subgradients for whole batches at once; these functions compute the same
formulas one triple at a time and serve as the reference the tests compare
them with. accumulate_add_at is the trainer's gradient scatter in its
row-wise np.add.at form, the addition order its faster form keeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pkgm.model import ModelParams


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


def accumulate_add_at(grads, params: ModelParams, hs, rs, ts, terms, weight) -> None:
    """trainer._accumulate with one row-wise np.add.at per table slot."""
    s_t = np.sign(terms.diff) * weight[:, None]
    s_r = np.sign(terms.resid) * weight[:, None]
    back = terms.groups.backward(params.transfer, s_r, terms.heads, grads["transfer"])
    np.add.at(grads["entity_emb"], hs, s_t + back)
    np.add.at(grads["entity_emb"], ts, -s_t)
    np.add.at(grads["relation_emb"], rs, s_t - s_r)
