"""Intrinsic evaluation: filtered link prediction and relation existence.

Scoring runs in float64 regardless of parameter dtype so that rank
comparisons are stable. Ranks are pessimistic: candidates scoring equal
to the target count against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kgstore import TripleStore, id_rows, triple_keys
from .model import ModelParams, relation_service, triple_service

HIT_KS = (1, 3, 10)


@dataclass
class EvalReport:
    task: str
    metrics: dict
    sizes: dict
    config: dict


def link_prediction_ranks(params: ModelParams, store: TripleStore, test_triples) -> np.ndarray:
    """Rank the true tail of each test triple among all entities, filtered.

    Candidates are ordered by ascending score S_c = |q - e_c|_1 in float64,
    q = e_h + r_r; the other known tails of (h, r), stored or tested, are left
    out. rank = number of candidates scoring <= the true tail, itself included.

    A float32 screen over a (d, n_e) table scores every candidate, and those
    within tol_c of the target are settled with the exact S_c. With
    u = 2^-24, rounding q and e_c to float32 moves the sum by at most
    u(|q|_1 + |e_c|_1) <= u(2|q|_1 + S_c), the screen's d subtractions and
    d - 1 additions by d*u/(1 - d*u) of its value, and S_c is within
    d * 2^-53 * S_c of the real sum. To first order |screen_c - S_c| <=
    (d + 2) u screen_c + 2u |q|_1, which tol_c = 4 (d + 2) u (screen_c +
    |q|_1 + 2^-126) covers with its own rounding for d <= 2^20 (2^-126
    covers float32 underflow). A NaN or infinite screen or bound is settled.
    """
    test = id_rows(test_triples)
    if not len(test):
        raise ValueError("empty test set")
    # the known tails of (h, r) are the one run [base, base + n_e) of the sorted
    # store and test keys, the test triple's own tail among them; keys in the
    # model's id space refuse ids its tables cannot index
    n_e, n_r = params.n_entities, params.n_relations
    keys = np.sort(triple_keys(np.concatenate([store.triples, test]), n_e, n_r))
    bases = triple_keys(test, n_e, n_r) - test[:, 2]
    runs = np.searchsorted(keys, np.stack([bases, bases + n_e], axis=1))
    ent = params.entity_emb  # float64 rows are cast from it as they are gathered, exactly
    queries = triple_service(params, test[:, 0], test[:, 1], dtype=np.float64)
    ent_t = np.ascontiguousarray(ent.T, dtype=np.float32)
    buf = np.empty_like(ent_t)
    screen = np.empty(n_e, dtype=np.float32)
    slack = np.float32(4 * (params.dim + 2) * 2.0 ** -24)

    ranks = np.zeros(len(test), dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):  # these only leave non-finite bounds
        # a row's sum does not depend on the row count, so these equal per-query
        # sums; the offsets are Python floats, which keep tol float32
        targets = np.abs(queries - ent[test[:, 2]].astype(np.float64)).sum(axis=1)
        offsets = (np.abs(queries).sum(axis=1) + 2.0 ** -126).tolist()
        for i, target in enumerate(targets):
            q = queries[i]
            np.subtract(q.astype(np.float32)[:, None], ent_t, out=buf)
            np.abs(buf, out=buf)
            buf.sum(axis=0, out=screen)
            tol = slack * (screen + offsets[i])
            below = screen + tol < target
            unsure = ~(below | (screen - tol > target))
            # the target counts unless NaN; filtered tails never count
            tails = keys[runs[i, 0]:runs[i, 1]] - bases[i]
            below[tails] = unsure[tails] = False
            idx = np.flatnonzero(unsure)
            ranks[i] = (np.count_nonzero(below) + int(target <= target) + np.count_nonzero(
                np.abs(q - ent[idx].astype(np.float64)).sum(axis=1) <= target))
    return ranks


def link_prediction(params: ModelParams, store: TripleStore, test_triples) -> EvalReport:
    """Filtered tail ranking over the whole entity set; hit@k for k in HIT_KS, and MRR."""
    ranks = link_prediction_ranks(params, store, test_triples)
    metrics = {f"hit@{k}": float((ranks <= k).mean()) for k in HIT_KS}
    metrics["mrr"] = float((1.0 / ranks).mean())
    return EvalReport(
        task="link_prediction",
        metrics=metrics,
        sizes={"n_test": len(ranks), "n_entities": params.n_entities,
               "n_relations": params.n_relations},
        config={"filtered": True, "ks": list(HIT_KS)},
    )


def relation_scores(params: ModelParams, pairs) -> np.ndarray:
    """Relation-module scores for (h, r) pairs, float64."""
    hs, rs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
    return np.abs(relation_service(params, hs, rs, dtype=np.float64)).sum(axis=1)


def choose_threshold(scores: np.ndarray, labels: np.ndarray) -> float:
    """Threshold maximizing accuracy of "exists iff score <= threshold".

    Candidates are the midpoints between consecutive distinct scores plus
    one value below and one above the range. Ties pick the smallest. One
    sort gives, for every candidate, how many scores lie at or below it and
    how many of those are positive.
    """
    uniq = np.unique(scores)
    cands = np.concatenate([[uniq[0] - 1.0], (uniq[:-1] + uniq[1:]) / 2.0, [uniq[-1] + 1.0]])
    order = np.argsort(scores)
    below = np.searchsorted(scores[order], cands, side="right")
    below[np.isnan(cands)] = 0  # nothing is <= NaN
    pos_below = np.concatenate([[0], np.cumsum(labels[order])])[below]
    # correct = positives at or below + negatives above
    correct = 2 * pos_below + (len(labels) - labels.sum()) - below
    return float(cands[np.argmax(correct)])


def existence_prediction(params: ModelParams, pairs, labels) -> EvalReport:
    """Classify (h, r) existence by thresholding the relation-module score.

    pairs is an (n, 2) int64 array of (h, r) ids and labels an (n,) bool
    array, True for existing. The threshold is chosen on a stratified half
    (even positions within each class, in input order); accuracy is reported
    on the other half. The separation ratio
    mean(score | absent) / mean(score | present) uses all pairs.
    """
    if not len(labels):
        raise ValueError("empty pair set")
    if labels.all() or not labels.any():
        raise ValueError("single-class pair set")
    scores = relation_scores(params, pairs)

    pos = np.flatnonzero(labels)
    neg = np.flatnonzero(~labels)
    val_idx = np.concatenate([pos[0::2], neg[0::2]])
    test_idx = np.concatenate([pos[1::2], neg[1::2]])
    if len(pos) < 2 or len(neg) < 2:
        raise ValueError("single-class test split; need >= 2 pairs per class")

    threshold = choose_threshold(scores[val_idx], labels[val_idx])
    pred = scores[test_idx] <= threshold
    accuracy = float((pred == labels[test_idx]).mean())
    mean_present = float(scores[labels].mean())
    mean_absent = float(scores[~labels].mean())
    return EvalReport(
        task="existence_prediction",
        metrics={
            "accuracy": accuracy,
            "threshold": threshold,
            "separation_ratio": mean_absent / mean_present if mean_present > 0 else float("inf"),
            "mean_score_present": mean_present,
            "mean_score_absent": mean_absent,
        },
        sizes={"n_pairs": len(labels), "n_validation": int(len(val_idx)),
               "n_test": int(len(test_idx)), "n_positive": int(labels.sum()),
               "n_negative": int((~labels).sum())},
        config={"n_entities": params.n_entities, "n_relations": params.n_relations},
    )
