"""Downstream recommender integrating frozen service vectors.

The recommender is a GMF + MLP model over implicit feedback, trained
with binary cross-entropy against sampled negatives. Service vectors
enter only the MLP tower input, concatenated after the user and item
embeddings, and receive no gradient. Evaluation is leave-one-out: the
latest interaction per user is ranked against sampled unobserved items.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .evaluation import EvalReport
from .kgstore import Vocab, id_rows, read_tsv, sorted_index
from .optim import Adam
from .servicing import ServiceBundle, condense_single

LOO_NEGATIVES, LOO_CUTOFFS = 100, (5, 10, 30)  # sampled negatives per user; hr@k, ndcg@k at k
# GMF and MLP embedding widths, MLP hidden layer widths, weight decay on the batch's embedding rows
GMF_DIM, MLP_DIM, HIDDEN, L2 = 8, 32, (32, 16, 8), 0.001


@dataclass(eq=False)
class InteractionSet:
    """Implicit-feedback (user, item, order index) rows, score 1 each, held as
    a read-only (n, 3) int64 array whatever sequence they are built from."""

    users: Vocab
    items: Vocab
    interactions: np.ndarray

    def __post_init__(self) -> None:
        self.interactions = id_rows(self.interactions)

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_items(self) -> int:
        return len(self.items)


def load_interactions(path) -> InteractionSet:
    """Parse "user<TAB>item<TAB>order_index" lines."""
    users, items = Vocab([]), Vocab([])

    def read(rows):
        order = rows.ints(2, "order index must be an integer")
        wide = np.array(order, dtype=object)
        rows.reject((wide < -2**63) | (wide >= 2**63),
                    lambda i: f"order index {order[i]} is outside the int64 range")
        return np.stack([users.intern(rows.columns[0]), items.intern(rows.columns[1]),
                         np.array(order, dtype=np.int64)], axis=1)

    interactions = np.concatenate(read_tsv(path, 3).map(read))
    if not len(interactions):
        raise ValueError("no interactions")
    return InteractionSet(users=users, items=items, interactions=interactions)


def write_interactions(path, rows: Iterable[tuple[str, str, int]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for user, item, order in rows:
            fh.write(f"{user}\t{item}\t{order}\n")


def service_table_for_items(data: InteractionSet, bundle: ServiceBundle,
                            entity_vocab: Vocab) -> np.ndarray:
    """Condensed service vector per interaction item, item id order.

    Items are matched to KG entities by token. Raises when any item has
    no service vector or a non-finite one.
    """
    tokens = list(data.items)
    at = sorted_index(bundle.ids, entity_vocab.ids(tokens))
    if (at < 0).any():
        raise ValueError(f"item {tokens[np.argmax(at < 0)]!r} has no service vector")
    table = condense_single(bundle)[at]
    bad = ~np.isfinite(table).all(axis=1)
    if bad.any():
        raise ValueError(f"item {tokens[np.argmax(bad)]!r} has a non-finite service vector")
    table.setflags(write=False)
    return table


@dataclass
class RecConfig:
    learning_rate: float = 1e-4
    epochs: int = 100
    batch_size: int = 256
    neg_ratio: int = 4
    seed: int = 0

    def validate(self) -> None:
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if self.neg_ratio < 0:
            raise ValueError(f"neg_ratio must be >= 0, got {self.neg_ratio}")


@dataclass
class RecModel:
    """GMF + MLP recommender with a frozen service input.

    params["embeddings"] holds a row per user and then a row per item (user u
    is row u, item i row n_users + i), each its GMF_DIM GMF columns followed by
    its MLP_DIM MLP columns; the two towers keep separate weights as column
    blocks. service, read-only float32, holds item i's service vector in row
    i, which follows its MLP columns in the MLP input; without services it
    has zero columns, and the model runs the same pass.
    """

    params: dict[str, np.ndarray]
    service: np.ndarray
    n_users: int
    train_losses: list[float] = field(default_factory=list, init=False)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp of -|x| only, so no branch overflows
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, np.float32(1), e) / (1 + e)


def _init_rec_params(n_users: int, n_items: int, service_dim: int,
                     rng: np.random.Generator) -> dict[str, np.ndarray]:
    def glorot(n_in, n_out):
        lim = np.sqrt(6.0 / (n_in + n_out))
        return rng.uniform(-lim, lim, size=(n_in, n_out)).astype(np.float32)

    gmf_user, gmf_item, mlp_user, mlp_item = (
        rng.normal(0.0, 0.01, size=(n, dim)).astype(np.float32)
        for dim in (GMF_DIM, MLP_DIM) for n in (n_users, n_items))
    params = {"embeddings": np.vstack([np.hstack([gmf_user, mlp_user]),
                                       np.hstack([gmf_item, mlp_item])])}
    in_dim = 2 * MLP_DIM + service_dim
    for layer, width in enumerate(HIDDEN, start=1):
        params[f"w{layer}"] = glorot(in_dim, width)
        params[f"b{layer}"] = np.zeros(width, dtype=np.float32)
        in_dim = width
    params["w_out"] = glorot(GMF_DIM + HIDDEN[-1], 1)[:, 0]
    return params


def _keys(model: RecModel, users: np.ndarray, items: np.ndarray) -> np.ndarray:
    """The (n, 2) embedding rows of the (user, item) pairs. Each side's ids
    index its own rows as numpy indexes an array: IndexError outside [-n, n),
    a negative id counting back from that side's last row."""
    rows = np.arange(len(model.params["embeddings"]))
    keys = np.empty((len(users), 2), dtype=np.int64)
    keys[:, 0] = rows[:model.n_users][users]
    keys[:, 1] = rows[model.n_users:][items]
    return keys


class _Pass:
    """The forward and backward passes over batches of at most size examples.

    The matrices a pass writes are allocated here, once, and a batch of n <
    size examples works in views of their first n rows; only the vectors of
    per-example scores are new each call. grads, the optimizer's gradient
    views, is None for a pass that only scores, which allocates nothing for
    the backward pass.
    """

    def __init__(self, model: RecModel, size: int, grads: dict[str, np.ndarray] | None):
        self.model, self.grads = model, grads
        dtype, emb = model.params["embeddings"].dtype, GMF_DIM + MLP_DIM
        in_dim = 2 * MLP_DIM + model.service.shape[1]
        self.rows = np.empty((size, 2, emb), dtype)  # each example's user row, then item row
        # the MLP input, then each hidden layer's output
        self.acts = [np.empty((size, width), dtype) for width in (in_dim, *HIDDEN)]
        self.feat = np.empty((size, GMF_DIM + HIDDEN[-1]), dtype)  # GMF product, last output
        self.service_rows = np.empty((size, model.service.shape[1]), dtype)
        if grads is not None:
            self.dfeat = np.empty_like(self.feat)
            # the gradient of each layer's input; the MLP input's overwrites it
            self.dacts = [self.acts[0], *(np.empty((size, width), dtype) for width in HIDDEN)]
            self.masks = [np.empty((size, width), dtype=bool) for width in HIDDEN]
            # the embedding rows' gradient, then as the float64 weights of bincount's bins
            self.block = np.empty((size, 2, emb), dtype)
            self.weights = np.empty((size, 2, emb))
            self.bins = np.empty((size, 2, emb), dtype=np.int64)
            self.cols = np.broadcast_to(np.arange(emb), self.bins.shape).copy()

    def forward(self, keys: np.ndarray) -> np.ndarray:
        """The scores, in a new array, of the examples of keys, _keys' rows."""
        p, g, n = self.model.params, GMF_DIM, len(keys)
        rows, feat, mlp_in = self.rows[:n], self.feat[:n], self.acts[0][:n]
        # _keys has checked the ids, and take writes straight into out only
        # when it need not raise; the default mode copies out first
        np.take(p["embeddings"], keys, axis=0, out=rows, mode="clip")
        # each side's MLP columns, user then item, then the service columns
        np.copyto(mlp_in[:, :2 * MLP_DIM].reshape(n, 2, MLP_DIM), rows[:, :, g:])
        np.take(self.model.service, keys[:, 1] - self.model.n_users, axis=0,
                out=self.service_rows[:n], mode="clip")
        mlp_in[:, 2 * MLP_DIM:] = self.service_rows[:n]
        np.multiply(rows[:, 0, :g], rows[:, 1, :g], out=feat[:, :g])
        z = mlp_in
        for layer in range(1, len(HIDDEN) + 1):
            x, z = z, self.acts[layer][:n]
            np.matmul(x, p[f"w{layer}"], out=z)
            z += p[f"b{layer}"]
            np.maximum(z, 0.0, out=z)
        feat[:, g:] = z
        self.keys, self.prob = keys, _sigmoid(feat @ p["w_out"])
        return self.prob

    def backward(self, labels: np.ndarray) -> None:
        """Write the gradient of the last forward batch, with these labels,
        into grads."""
        p, g, grads, n = self.model.params, GMF_DIM, self.grads, len(self.keys)
        dfeat = self.dfeat[:n]
        dlogit = (self.prob - labels) / np.float32(n)
        np.matmul(self.feat[:n].T, dlogit, out=grads["w_out"])
        np.multiply(dlogit[:, None], p["w_out"], out=dfeat)
        dact = dfeat[:, g:]
        for layer in range(len(HIDDEN), 0, -1):
            dz, mask = self.dacts[layer][:n], self.masks[layer - 1][:n]
            np.greater(self.acts[layer][:n], 0, out=mask)
            np.multiply(dact, mask, out=dz)
            np.matmul(self.acts[layer - 1][:n].T, dz, out=grads[f"w{layer}"])
            dz.sum(axis=0, out=grads[f"b{layer}"])
            dact = self.dacts[layer - 1][:n]
            np.matmul(dz, p[f"w{layer}"].T, out=dact)
        # a side's GMF columns take dgmf times the other side's, its MLP columns
        # its half of the MLP input's gradient (service vectors get none); L2 is
        # weight decay on the rows the batch gathered
        rows, block, weights = self.rows[:n], self.block[:n], self.weights[:n]
        np.multiply(dfeat[:, None, :g], rows[:, ::-1, :g], out=block[:, :, :g])
        np.copyto(block[:, :, g:], dact[:, :2 * MLP_DIM].reshape(n, 2, MLP_DIM))
        rows *= L2
        block += rows
        np.copyto(weights, block)
        _segment_sum(self.keys, weights, self.bins[:n], self.cols[:n], grads["embeddings"])


def _segment_sum(keys: np.ndarray, rows: np.ndarray, bins: np.ndarray, cols: np.ndarray,
                 out: np.ndarray) -> None:
    """Write into the (n_rows, d) table out, row k the float64 sum, in order,
    of the rows (keys.shape + (d,), float64) whose key is k. bins is int64
    scratch of the rows' shape and cols each entry's column, 0 to d - 1."""
    np.copyto(bins, (keys * out.shape[1])[..., None])
    bins += cols
    out[...] = np.bincount(bins.ravel(), weights=rows.ravel(),
                           minlength=out.size).reshape(out.shape)


def _sample_unobserved(users: np.ndarray, n_items: int, observed: np.ndarray,
                       rng: np.random.Generator) -> np.ndarray:
    """One item per row that user users[i] has not interacted with.

    observed holds the sorted keys u*n_items + i of the observed pairs. A
    draw of an observed item is redrawn, capped at 100 attempts, after which
    the row keeps its last draw, as trainer.sample_negative does.
    """
    items = np.empty(len(users), dtype=np.int64)
    todo = np.arange(len(users))
    for _ in range(100):
        if not len(todo):
            break
        draw = rng.integers(n_items, size=len(todo))
        items[todo] = draw
        todo = todo[sorted_index(observed, users[todo] * n_items + draw) >= 0]
    return items


# a diverging run ends in a named error, without numpy's overflow warnings
@np.errstate(over="ignore", invalid="ignore")
def train_recommender(data: InteractionSet, service_table: np.ndarray | None,
                      config: RecConfig) -> RecModel:
    """Train on the given interactions (callers hold out test data first).

    Per positive, neg_ratio unobserved items are sampled fresh each epoch
    (one draw for the whole epoch) and labeled 0. Updates use Adam with
    weight decay on the embedding rows of each batch. Row i of service_table
    is the frozen condensed service vector of item i; None trains without
    services, as a table of zero columns.
    """
    config.validate()
    if service_table is None:
        service_table = np.empty((data.n_items, 0), np.float32)
    if service_table.shape[0] != data.n_items:
        raise ValueError(
            f"service table has {service_table.shape[0]} rows for {data.n_items} items"
        )
    service_table = np.array(service_table, dtype=np.float32)  # the caller's stays writable
    service_table.setflags(write=False)
    rng = np.random.default_rng(config.seed)
    adam = Adam(_init_rec_params(data.n_users, data.n_items, service_table.shape[1], rng),
                lr=config.learning_rate)
    # the model's tables are views of the optimizer's flat buffer
    model = RecModel(params=adam.params, service=service_table, n_users=data.n_users)

    pos_users, pos_items, _ = data.interactions.T
    observed = _observed_keys(data)
    # each positive is followed by its neg_ratio negatives
    width = 1 + config.neg_ratio
    users_arr = np.repeat(pos_users, width)
    labels_arr = np.tile(np.eye(1, width, dtype=np.float32)[0], len(pos_users))
    neg_users = np.repeat(pos_users, config.neg_ratio)
    items_ep = np.empty((len(pos_items), width), dtype=np.int64)
    items_ep[:, 0] = pos_items
    items_arr = items_ep.ravel()  # a view: each epoch refills the negative columns
    step = _Pass(model, min(config.batch_size, len(labels_arr)), adam.grads)

    for epoch in range(config.epochs):
        items_ep[:, 1:] = _sample_unobserved(
            neg_users, data.n_items, observed, rng).reshape(len(pos_items), config.neg_ratio)
        order = rng.permutation(len(labels_arr))
        keys = _keys(model, users_arr[order], items_arr[order])
        labels = labels_arr[order]

        loss_sum = 0.0
        for lo in range(0, len(order), config.batch_size):
            prob = step.forward(keys[lo:lo + config.batch_size])
            y_b = labels[lo:lo + config.batch_size]
            clipped = np.clip(prob, 1e-7, 1.0 - 1e-7)
            # labels are exactly 0 or 1 and clipping keeps both logs finite, so this is
            # bit-equal to -(y*log(c) + (1-y)*log(1-c)).sum(), whose terms add a -0.0
            loss_sum += float(-np.log(np.where(y_b > 0, clipped, 1.0 - clipped)).sum())
            step.backward(y_b)
            adam.step()
        if not math.isfinite(loss_sum):
            raise RuntimeError(f"non-finite loss at epoch {epoch}")
        model.train_losses.append(loss_sum / len(order))
    # the last step's update comes after its loss check
    if not np.isfinite(adam.flat).all():
        raise RuntimeError(f"non-finite parameters at epoch {config.epochs - 1}")
    return model


def _observed_keys(data: InteractionSet) -> np.ndarray:
    """Sorted distinct int64 keys u*n_items + i of the observed (user, item) pairs."""
    return np.unique(data.interactions[:, 0] * data.n_items + data.interactions[:, 1])


def leave_one_out_split(data: InteractionSet):
    """Partition into (train interactions, held-out item per user).

    The held-out interaction is the one with the largest order index
    (ties keep the latest line). train keeps the other rows in file order;
    held[u] is user u's held-out item. Users need >= 2 interactions.
    """
    users, items, orders = data.interactions.T
    thin = np.flatnonzero(np.bincount(users, minlength=data.n_users) < 2)
    if len(thin):
        names = ", ".join(data.users.token(u) for u in thin[:5].tolist())
        raise ValueError(f"users with fewer than 2 interactions: {names}")
    # a stable sort by (user, order) puts each user's held-out line last in
    # its run, and every user has a run
    by_user = np.lexsort((orders, users))
    last = by_user[np.diff(users[by_user], append=-1) != 0]
    return np.delete(data.interactions, last, axis=0), items[last]


def require_unobserved_items(data: InteractionSet) -> None:
    """Raise ValueError naming the first user who has interacted with every item."""
    seen = np.bincount(_observed_keys(data) // data.n_items, minlength=data.n_users)
    full = seen == data.n_items
    if full.any():
        raise ValueError(f"user {data.users.token(int(np.argmax(full)))!r} "
                         f"has interacted with every item")


def leave_one_out_ranks(score_fn: Callable[[int, np.ndarray], np.ndarray],
                        data: InteractionSet, seed: int) -> np.ndarray:
    """Rank each user's held-out item against LOO_NEGATIVES sampled
    unobserved items, or all of a user's unobserved items if fewer.

    Negative candidates depend only on (data, seed), never on the model,
    so comparisons across models with a shared seed are paired. Ranks are
    pessimistic: score ties count against the held-out item.
    """
    _, held = leave_one_out_split(data)
    keys = _observed_keys(data)
    require_unobserved_items(data)
    rng = np.random.default_rng(seed)
    ranks = np.zeros(data.n_users, dtype=np.int64)
    items = np.arange(data.n_items)
    for u in range(data.n_users):
        pool = items[sorted_index(keys, u * data.n_items + items) < 0]  # u's unobserved items
        if len(pool) > LOO_NEGATIVES:
            negatives = rng.choice(pool, size=LOO_NEGATIVES, replace=False)
        else:
            negatives = pool
        candidates = np.concatenate([[held[u]], negatives])
        scores = np.asarray(score_fn(u, candidates), dtype=np.float64)
        ranks[u] = 1 + int((scores[1:] >= scores[0]).sum())
    return ranks


def ndcg_at(ranks: np.ndarray, k: int) -> float:
    gains = np.where(ranks <= k, 1.0 / np.log2(ranks + 1.0), 0.0)
    return float(gains.mean())


def evaluate_leave_one_out(model: RecModel, data: InteractionSet, seed: int) -> EvalReport:
    # one pass's arrays serve every user's candidates, at most LOO_NEGATIVES + 1
    scorer = _Pass(model, LOO_NEGATIVES + 1, None)

    def score_fn(u: int, item_ids: np.ndarray) -> np.ndarray:
        return scorer.forward(_keys(model, np.full(len(item_ids), u), item_ids))

    ranks = leave_one_out_ranks(score_fn, data, seed=seed)
    metrics = {}
    for k in LOO_CUTOFFS:
        metrics[f"ndcg@{k}"] = ndcg_at(ranks, k)
        metrics[f"hr@{k}"] = float((ranks <= k).mean())
    return EvalReport(
        task="recommendation",
        metrics=metrics,
        sizes={"n_users": data.n_users, "n_items": data.n_items,
               "n_interactions": len(data.interactions)},
        config={"cutoffs": list(LOO_CUTOFFS), "n_negatives": LOO_NEGATIVES, "seed": seed,
                "with_services": model.service.shape[1] > 0},
    )
