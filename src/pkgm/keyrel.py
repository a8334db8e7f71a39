"""Key relation selection from categorical relation frequency.

The frequency of relation r for entity e counts how many entities in
e's category have at least one triple under r. Every entity receives
exactly k key relations, ordered by descending frequency with ties
broken by ascending relation id.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .kgstore import TripleStore, Vocab, id_rows, read_tsv, write_atomically


@dataclass(eq=False)
class KeyRelationTable:
    """Key relations per entity: ids is ascending int64, (count,), and rows[i]
    holds the k key relations of entity ids[i] in rank order, (count, k).
    Both are read-only int64 copies (kgstore.id_rows) of what it is built from."""

    ids: np.ndarray
    rows: np.ndarray

    def __post_init__(self) -> None:
        self.ids, self.rows = id_rows(self.ids, -1), id_rows(self.rows, (len(self.ids), -1))


def select_key_relations(store: TripleStore, k: int) -> KeyRelationTable:
    """Pick the k key relations for every categorized entity.

    Ranking is per category: frequency descending, relation id ascending
    on ties. Categories with fewer than k observed relations are padded
    with the globally most frequent relations not already chosen, so each
    list holds exactly k distinct ids. Requires k <= number of relations
    and at least one triple under the category relation.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if k > store.n_relations:
        raise ValueError(f"k={k} exceeds relation count {store.n_relations}")
    if not store.category_of:
        raise ValueError(f"no triples under the category relation {store.category_relation!r}")

    # frequency[c, r] = members of category c having a triple under r: one
    # count per distinct (h, r) key h*n_r + r of a categorized head h
    n_r = store.n_relations
    ids, cats = np.array(sorted(store.category_of.items()), dtype=np.int64).T
    cats, slot = np.unique(cats, return_inverse=True)
    member = np.full(store.n_entities, len(cats))  # a last row takes uncategorized heads
    member[ids] = slot
    heads, rels = np.divmod(np.unique(store.triples[:, 0] * n_r + store.triples[:, 1]), n_r)
    frequency = np.zeros((len(cats) + 1, n_r), dtype=np.int64)
    np.add.at(frequency, (member[heads], rels), 1)
    # rank each category's relations by -frequency, then, for relations it
    # never uses, by -global count; the stable sort leaves ties in id order
    total = np.array([store.relation_counts.get(r, 0) for r in range(n_r)])
    ranked = np.lexsort((np.where(frequency > 0, 0, -total), -frequency))
    return KeyRelationTable(ids=ids, rows=ranked[slot, :k])


def write_keyrel_tsv(path, table: KeyRelationTable, entity_vocab: Vocab,
                     relation_vocab: Vocab) -> None:
    """Write one "entity<TAB>r1,...,rk" line per entity in id order, atomically."""
    text = "".join(f"{entity_vocab.token(e)}\t{','.join(map(relation_vocab.token, rels))}\n"
                   for e, rels in zip(table.ids.tolist(), table.rows.tolist()))
    write_atomically([(path, lambda tmp: tmp.write_text(text, encoding="utf-8"))])


def read_keyrel_tsv(path, entity_vocab: Vocab, relation_vocab: Vocab) -> KeyRelationTable:
    """Read "entity<TAB>r1,...,rk" lines: every line lists k distinct
    relations, the same k on every line, and no entity is listed twice."""
    rows = read_tsv(path, 2, comments=False)
    if not len(rows):
        raise ValueError(f"{path}: empty key relation table")
    k = 0  # the first line sets k

    def read(rows):
        nonlocal k
        lists = rows.columns[1]
        # every relation list split at once: row i's counts[i] tokens follow the rows before it
        counts = np.fromiter(map(str.count, lists, repeat(",")), np.int64, len(lists)) + 1
        rels = relation_vocab.ids(",".join(lists).split(","))
        unknown = np.zeros(len(lists), dtype=bool)
        unknown[np.searchsorted(np.cumsum(counts), np.flatnonzero(rels < 0), side="right")] = True
        rows.reject(unknown, lambda i: "unknown relation token "
                    f"{next(tok for tok in lists[i].split(',') if tok not in relation_vocab)!r}")
        k = k or int(counts[0])
        rows.reject(counts != k, lambda i: f"expected {k} relations, got {counts[i]}")
        rels = rels.reshape(-1, k)
        ranked = np.sort(rels, axis=1)
        rows.reject((ranked[:, 1:] == ranked[:, :-1]).any(axis=1),
                    lambda i: f"relation {_repeated(lists[i].split(','))!r} listed twice")
        return rows.ids(0, entity_vocab, "entity"), rels

    ids, rels = map(np.concatenate, zip(*rows.map(read)))
    order = np.argsort(ids, kind="stable")
    repeated = np.zeros(len(ids), dtype=bool)
    repeated[order[1:][ids[order[1:]] == ids[order[:-1]]]] = True  # all but the first
    rows.reject(repeated, lambda i: f"entity {entity_vocab.token(ids[i])!r} listed twice")
    return KeyRelationTable(ids=ids[order], rows=rels[order])


def _repeated(tokens: list[str]) -> str:
    """The first token that an earlier one repeats."""
    return next(tok for i, tok in enumerate(tokens) if tok in tokens[:i])
