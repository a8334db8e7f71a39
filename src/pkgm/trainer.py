"""Margin-based training of the two scoring modules with negative sampling."""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .kgstore import TripleStore, sorted_index, triple_keys
from .model import ModelParams, RelationGroups, init_params, relation_service, triple_service
from .optim import SCRATCH_BYTES, Adam


@dataclass
class TrainConfig:
    """Training hyperparameters. Defaults follow the reference setting
    (d=64, margin 1, lr 1e-4, batch 1000, 2 epochs, 1 negative)."""

    dim: int = 64
    margin: float = 1.0
    learning_rate: float = 1e-4
    batch_size: int = 1000
    epochs: int = 2
    negatives_per_positive: int = 1
    corrupt_relation_prob: float = 1.0 / 3.0
    seed: int = 0

    def validate(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        if not 0 < self.margin < math.inf:
            raise ValueError(f"margin must be positive and finite, got {self.margin}")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.negatives_per_positive < 1:
            raise ValueError(
                f"negatives_per_positive must be positive, got {self.negatives_per_positive}"
            )
        if not 0.0 <= self.corrupt_relation_prob <= 1.0:
            raise ValueError(
                f"corrupt_relation_prob must be in [0, 1], got {self.corrupt_relation_prob}"
            )


PHASES = ("sample", "score", "accumulate", "adam", "project")


@dataclass
class TrainReport:
    """What a training run did. active_fraction is, per epoch, the share of
    (positive, negative) pairs whose hinge is nonzero; phase_s holds wall
    seconds per step phase (PHASES) summed over all steps."""

    epoch_losses: list[float]
    active_fraction: list[float]
    phase_s: dict
    wall_time_s: float
    config: dict


def sample_negative(store: TripleStore, positives: np.ndarray,
                    rng: np.random.Generator, corrupt_relation_prob: float) -> np.ndarray:
    """Corrupt exactly one slot of each row of an (n, 3) array of positives.

    Only slots with two or more values are drawn: per row, the relation slot
    with probability corrupt_relation_prob (0 with one relation, 1 with one
    entity), otherwise head or tail with equal probability. The replacement
    is uniform over the slot's other values. Candidates that are stored
    positives are redrawn, capped at 100 attempts, after which each row
    keeps its last candidate. Row i of the result corrupts row i.
    """
    positives = np.asarray(positives, dtype=np.int64).reshape(-1, 3)
    n_e = store.n_entities
    n_r = store.n_relations
    if n_e < 2 and n_r < 2 and len(positives):
        raise ValueError("store admits no corrupted triple")
    keys = np.sort(triple_keys(store.triples, n_e, n_r))
    p = 0.0 if n_r < 2 else 1.0 if n_e < 2 else corrupt_relation_prob
    neg = positives.copy()
    rows = np.arange(len(neg))
    for _ in range(100):
        if not len(rows):
            break
        u = rng.random(len(rows))
        slot = np.where(u < p, 1, np.where(u < p + (1.0 - p) / 2.0, 0, 2))
        # draw uniformly over the size-1 values other than the original
        repl = rng.integers(np.where(slot == 1, n_r, n_e) - 1)
        repl += repl >= positives[rows, slot]
        cand = positives[rows]
        cand[np.arange(len(rows)), slot] = repl
        neg[rows] = cand
        rows = rows[sorted_index(keys, triple_keys(cand, n_e, n_r)) >= 0]
    return neg


class BatchTerms(NamedTuple):
    """Scores of a batch in batch order plus, in relation order, the
    intermediates the subgradients reuse: row i of heads, diff and resid
    belongs to the batch's row order[i], and groups spans those rows."""

    scores: np.ndarray
    order: np.ndarray
    heads: np.ndarray
    diff: np.ndarray
    resid: np.ndarray
    groups: RelationGroups


def _batch_terms(params: ModelParams, hs, rs, ts) -> BatchTerms:
    # one stable sort by relation; each relation's rows are then one slice,
    # and every row keeps its values and its place among its relation's rows
    order = np.argsort(rs, kind="stable")
    hs, rs, ts = hs[order], rs[order], ts[order]
    groups = RelationGroups(rs)
    diff = triple_service(params, hs, rs) - params.entity_emb[ts]
    resid = relation_service(params, hs, rs, groups=groups)
    scores = np.empty(len(order), dtype=diff.dtype)
    scores[order] = np.abs(diff).sum(axis=1) + np.abs(resid).sum(axis=1)
    return BatchTerms(scores, order, hs, diff, resid, groups)


def _scatter_rows(table: np.ndarray, idx: np.ndarray, rows: np.ndarray) -> None:
    """table[idx[i]] += rows[i] for each i in order, table C-contiguous.

    One scatter over the flattened table gives every element its addends in
    the order np.add.at(table, idx, rows) does, at about a quarter of its cost.
    Positions are int32 while they can address the table: half the index
    array, and a faster scatter.
    """
    d = table.shape[1]
    dtype = np.int32 if table.size < 2**31 else np.int64
    pos = np.multiply(idx, d, dtype=dtype)[:, None] + np.arange(d, dtype=dtype)
    np.add.at(table.reshape(-1), pos.ravel(), rows.ravel())


def _accumulate(grads, params: ModelParams, hs, ts, terms: BatchTerms, weight) -> None:
    """Add weighted subgradients for a batch of triples into dense tables.

    weight is per-triple: positive for positives, negative for negatives,
    zero where the hinge is inactive. hs, ts and weight are in batch order;
    the per-relation work runs on terms' relation-ordered rows, and only the
    entity rows go back to batch order, so every table adds its addends in
    batch order. terms is spent: its diff and resid hold those rows
    afterwards, so the step allocates two (B, d) float rows and one (B, d)
    index array beyond them.
    """
    order = terms.order
    w = weight[order][:, None]
    s_t = np.sign(terms.diff)
    s_t *= w
    # np.sign into another buffer; into its own input it runs several times slower
    s_r = np.sign(terms.resid, out=terms.diff)
    s_r *= w
    back = terms.groups.backward(params.transfer, s_r, params.entity_emb, terms.heads,
                                 grads["transfer"])
    terms.groups.add_row_sums(np.subtract(s_t, s_r, out=terms.resid), grads["relation_emb"])
    back += s_t
    terms.resid[order] = back
    del back  # spent; the scatter positions must not share the peak with it
    _scatter_rows(grads["entity_emb"], hs, terms.resid)
    terms.diff[order] = np.negative(s_t, out=s_t)
    _scatter_rows(grads["entity_emb"], ts, terms.diff)


def _project_entity_rows(entity_emb: np.ndarray) -> None:
    # keep entity rows inside the L2 unit ball to prevent norm inflation; a
    # block of rows at a time, so no temporary is the size of the table
    step = max(1, SCRATCH_BYTES // (entity_emb.shape[1] * entity_emb.itemsize))
    for lo in range(0, len(entity_emb), step):
        block = entity_emb[lo:lo + step]
        # np.linalg.norm's own steps, without its checks and copies
        norms = np.add.reduce(np.multiply(block, block), axis=1)
        np.sqrt(norms, out=norms)
        np.divide(block, norms[:, None], out=block, where=(norms > 1.0)[:, None])


# a diverging run ends in a named error, without numpy's overflow warnings
@np.errstate(over="ignore", invalid="ignore")
def train(store: TripleStore, config: TrainConfig) -> tuple[ModelParams, TrainReport]:
    """Optimize model parameters on the stored triples.

    Negatives are drawn once per epoch, right after the shuffle. Each step
    accumulates hinge-loss subgradients over one batch (mean over
    positive/negative pairs), applies an Adam update to all three tables,
    and re-projects entity rows to L2 norm <= 1. Deterministic for a fixed
    (store, config) in this single-worker implementation.
    """
    config.validate()
    if not len(store.triples):
        raise ValueError("store has no triples")
    start = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    init = init_params(store.n_entities, store.n_relations, config.dim, rng)
    adam = Adam({name: getattr(init, name) for name in ("entity_emb", "relation_emb", "transfer")},
                lr=config.learning_rate)
    del init  # Adam holds its own copy
    # the tables the steps update are views of the optimizer's flat buffer
    params = ModelParams(config.dim, **adam.params)
    triples = store.triples
    n = len(triples)
    neg_k = config.negatives_per_positive
    epoch_losses: list[float] = []
    active_fraction: list[float] = []
    phase_s = dict.fromkeys(PHASES, 0.0)

    for epoch in range(config.epochs):
        order = rng.permutation(n)
        begin = time.perf_counter()
        # one draw per epoch; the neg_k negatives of a positive follow it in
        # the order of np.repeat, which each step's slice and pair losses keep
        negatives = sample_negative(store, np.repeat(triples[order], neg_k, axis=0), rng,
                                    config.corrupt_relation_prob)
        phase_s["sample"] += time.perf_counter() - begin
        loss_sum = 0.0
        active = 0
        pair_count = 0
        for step, lo in enumerate(range(0, n, config.batch_size)):
            stamps = [time.perf_counter()]
            pos = triples[order[lo:lo + config.batch_size]]
            rows = np.concatenate([pos, negatives[lo * neg_k:(lo + len(pos)) * neg_k]])
            hs, rs, ts = rows[:, 0], rows[:, 1], rows[:, 2]
            stamps.append(time.perf_counter())

            n_pos = len(pos)
            terms = _batch_terms(params, hs, rs, ts)
            losses = np.maximum(
                0.0, np.repeat(terms.scores[:n_pos], neg_k) + config.margin - terms.scores[n_pos:])
            if not np.isfinite(losses).all():
                raise RuntimeError(f"non-finite loss at epoch {epoch} step {step}")
            stamps.append(time.perf_counter())

            n_pairs = len(losses)
            hinge = losses > 0
            pair_weight = hinge.astype(np.float32) / np.float32(n_pairs)
            weight = np.concatenate([pair_weight.reshape(n_pos, neg_k).sum(axis=1), -pair_weight])
            adam.grad.fill(0)
            _accumulate(adam.grads, params, hs, ts, terms, weight)
            del terms  # spent; the next batch's terms must not share the peak with these
            stamps.append(time.perf_counter())
            adam.step()
            stamps.append(time.perf_counter())
            _project_entity_rows(params.entity_emb)
            stamps.append(time.perf_counter())
            for name, begin, end in zip(PHASES, stamps, stamps[1:]):
                phase_s[name] += end - begin

            loss_sum += float(losses.sum())
            active += int(hinge.sum())
            pair_count += n_pairs
        epoch_losses.append(loss_sum / pair_count)
        active_fraction.append(active / pair_count)
        del negatives  # spent; the next epoch's draw must not share the peak with these
    # the last step's update and projection come after its loss check
    if not np.isfinite(adam.flat).all():
        raise RuntimeError(f"non-finite parameters at epoch {config.epochs - 1}")

    report = TrainReport(
        epoch_losses=epoch_losses,
        active_fraction=active_fraction,
        phase_s=phase_s,
        wall_time_s=time.perf_counter() - start,
        config=asdict(config),
    )
    return params, report
