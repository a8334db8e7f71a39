"""Key relation selection from categorical relation frequency.

The frequency of relation r for entity e counts how many entities in
e's category have at least one triple under r. Every entity receives
exactly k key relations, ordered by descending frequency with ties
broken by ascending relation id.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kgstore import TripleStore, Vocab, read_tsv, write_atomically


@dataclass
class KeyRelationTable:
    k: int
    rows: dict[int, tuple[int, ...]]


def select_key_relations(store: TripleStore, k: int) -> KeyRelationTable:
    """Pick the k key relations for every categorized entity.

    Ranking is per category: frequency descending, relation id ascending
    on ties. Categories with fewer than k observed relations are padded
    with the globally most frequent relations not already chosen, so each
    list holds exactly k distinct ids. Requires k <= number of relations.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if k > store.n_relations:
        raise ValueError(f"k={k} exceeds relation count {store.n_relations}")

    # frequency = distinct category members having the relation: count the
    # distinct (h, r) keys h*n_r + r per (category of h, r) key
    n_r = store.n_relations
    category = np.full(store.n_entities, -1)
    category[list(store.category_of)] = list(store.category_of.values())
    pairs = np.unique(store.triples[:, 0] * n_r + store.triples[:, 1])
    cats = category[pairs // n_r]
    cat_rels, counts = np.unique((cats * n_r + pairs % n_r)[cats >= 0], return_counts=True)
    per_cat: dict[int, dict[int, int]] = {}
    for key, count in zip(cat_rels.tolist(), counts.tolist()):
        per_cat.setdefault(key // n_r, {})[key % n_r] = count

    global_order = sorted(store.relation_counts, key=lambda r: (-store.relation_counts[r], r))
    cat_lists: dict[int, tuple[int, ...]] = {}
    for cat in set(store.category_of.values()):
        counts = per_cat.get(cat, {})
        ranked = sorted(counts, key=lambda r: (-counts[r], r))
        cat_lists[cat] = tuple((ranked + [r for r in global_order if r not in counts])[:k])

    rows = {e: cat_lists[cat] for e, cat in sorted(store.category_of.items())}
    return KeyRelationTable(k=k, rows=rows)


def write_keyrel_tsv(path, table: KeyRelationTable, entity_vocab: Vocab,
                     relation_vocab: Vocab) -> None:
    """Write one "entity<TAB>r1,...,rk" line per entity in id order, atomically."""
    text = "".join(f"{entity_vocab.token(e)}\t{','.join(map(relation_vocab.token, rels))}\n"
                   for e, rels in sorted(table.rows.items()))
    write_atomically([(path, lambda tmp: tmp.write_text(text, encoding="utf-8"))])


def read_keyrel_tsv(path, entity_vocab: Vocab, relation_vocab: Vocab) -> KeyRelationTable:
    """Read "entity<TAB>r1,...,rk" lines: every line lists k distinct
    relations, the same k on every line, and no entity is listed twice."""
    rows: dict[int, tuple[int, ...]] = {}

    def add(fields):
        entity, rels = fields
        tokens = rels.split(",")
        rel_ids = tuple(relation_vocab.lookup(tok, "relation") for tok in tokens)
        k = len(next(iter(rows.values()), rel_ids))  # the first line sets k
        if len(rel_ids) != k:
            raise ValueError(f"expected {k} relations, got {len(rel_ids)}")
        if len(set(rel_ids)) != k:
            twice = next(tok for i, tok in enumerate(tokens) if tok in tokens[:i])
            raise ValueError(f"relation {twice!r} listed twice")
        e = entity_vocab.lookup(entity, "entity")
        if e in rows:
            raise ValueError(f"entity {entity!r} listed twice")
        rows[e] = rel_ids

    read_tsv(path, 2, add, comments=False)
    if not rows:
        raise ValueError(f"{path}: empty key relation table")
    return KeyRelationTable(k=len(next(iter(rows.values()))), rows=rows)
