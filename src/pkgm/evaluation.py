"""Intrinsic evaluation: filtered link prediction and relation existence.

Scoring runs in float64 regardless of parameter dtype so that rank
comparisons are stable. Ranks are pessimistic: candidates scoring equal
to the target count against it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .kgstore import TripleStore
from .model import ModelParams, RelationGroups


@dataclass
class EvalReport:
    task: str
    metrics: dict
    sizes: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)


def link_prediction_ranks(params: ModelParams, store: TripleStore, test_triples,
                          filtered: bool = True) -> np.ndarray:
    """Rank the true tail of each test triple among all entities.

    Candidates are ordered by ascending triple score. Under the filtered
    protocol, tails forming other known positives (store or test) are
    excluded. rank = number of candidates scoring <= the true tail,
    including the tail itself.
    """
    test = [(int(h), int(r), int(t)) for h, r, t in test_triples]
    if not test:
        raise ValueError("empty test set")
    ent = params.entity_emb.astype(np.float64)
    rel = params.relation_emb.astype(np.float64)

    known_tails: dict[tuple[int, int], list[int]] = {}
    if filtered:
        for h, r, t in store.triple_set | set(test):
            known_tails.setdefault((h, r), []).append(t)

    ranks = np.zeros(len(test), dtype=np.int64)
    for i, (h, r, t) in enumerate(test):
        scores = np.abs(ent[h] + rel[r] - ent).sum(axis=1)
        target = scores[t]
        if filtered:
            others = [e for e in known_tails[(h, r)] if e != t]
            if others:
                scores[others] = np.inf
        ranks[i] = int((scores <= target).sum())
    return ranks


def link_prediction(params: ModelParams, store: TripleStore, test_triples,
                    ks=(1, 3, 10)) -> EvalReport:
    """Filtered tail ranking over the whole entity set; hit@k and MRR."""
    ranks = link_prediction_ranks(params, store, test_triples, filtered=True)
    metrics = {f"hit@{k}": float((ranks <= k).mean()) for k in ks}
    metrics["mrr"] = float((1.0 / ranks).mean())
    return EvalReport(
        task="link_prediction",
        metrics=metrics,
        sizes={"n_test": len(ranks), "n_entities": params.n_entities,
               "n_relations": params.n_relations},
        config={"filtered": True, "ks": list(ks)},
    )


def relation_scores(params: ModelParams, pairs) -> np.ndarray:
    """Relation-module scores for (h, r) pairs, float64."""
    hs = np.asarray([p[0] for p in pairs], dtype=np.int64)
    rs = np.asarray([p[1] for p in pairs], dtype=np.int64)
    heads = params.entity_emb[hs].astype(np.float64)
    resid = (RelationGroups(rs).forward(params.transfer.astype(np.float64), heads)
             - params.relation_emb[rs].astype(np.float64))
    return np.abs(resid).sum(axis=1)


def _threshold_candidates(scores: np.ndarray) -> np.ndarray:
    uniq = np.unique(scores)
    mids = (uniq[:-1] + uniq[1:]) / 2.0 if len(uniq) > 1 else np.empty(0)
    return np.concatenate([[uniq[0] - 1.0], mids, [uniq[-1] + 1.0]])


def choose_threshold(scores: np.ndarray, labels: np.ndarray) -> float:
    """Threshold maximizing accuracy of "exists iff score <= threshold".

    Candidates are the midpoints between consecutive distinct scores plus
    one value below and one above the range. Ties pick the smallest.
    """
    best_acc = -1.0
    best_thr = None
    for thr in _threshold_candidates(scores):
        acc = float(((scores <= thr) == labels).mean())
        if acc > best_acc:
            best_acc = acc
            best_thr = float(thr)
    return best_thr


def existence_prediction(params: ModelParams, store: TripleStore | None,
                         pairs) -> EvalReport:
    """Classify (h, r) existence by thresholding the relation-module score.

    pairs are (h, r, label) with label truthy for existing. The threshold
    is chosen on a stratified half (even positions within each class, in
    input order); accuracy is reported on the other half. The separation
    ratio mean(score | absent) / mean(score | present) uses all pairs.
    store is informational only (echoed in the report when given); the
    labels carry the ground truth.
    """
    pairs = [(int(h), int(r), bool(y)) for h, r, y in pairs]
    if not pairs:
        raise ValueError("empty pair set")
    labels = np.asarray([y for _, _, y in pairs], dtype=bool)
    if labels.all() or not labels.any():
        raise ValueError("single-class pair set")
    scores = relation_scores(params, [(h, r) for h, r, _ in pairs])

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
        sizes={"n_pairs": len(pairs), "n_validation": int(len(val_idx)),
               "n_test": int(len(test_idx)), "n_positive": int(labels.sum()),
               "n_negative": int((~labels).sum()),
               "n_store_triples": len(store.triples) if store is not None else 0},
        config={"n_entities": params.n_entities, "n_relations": params.n_relations},
    )
