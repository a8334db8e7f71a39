"""Triple file ingestion, id interning, and the category index.

Triple files are UTF-8 text, one triple per line, fields separated by a
single TAB, no header. Lines starting with "#" are ignored. read_tsv is
the one parser of TAB files: these "#"-commented inputs (triples,
existence pairs, interactions) and, with comments off, the vocabulary and
key-relation files. Category membership is encoded as ordinary triples under a
configurable relation name (default "isA"), i.e. (entity, isA, category).
Interned id rows are read-only (n, 3) int64 arrays; triple_keys alone encodes
a triple's int64 key, and sorted_index is the one lookup in a sorted array.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np


class Vocab:
    """Dense string-to-id interning, ids assigned in first-appearance order."""

    def __init__(self, tokens: Iterable[str] = ()):
        self._tokens: list[str] = []
        self._ids: dict[str, int] = {}
        for tok in tokens:
            self.add(tok)

    def add(self, token: str) -> int:
        """Intern token, returning its id (existing or newly assigned)."""
        idx = self._ids.get(token)
        if idx is None:
            idx = len(self._tokens)
            self._ids[token] = idx
            self._tokens.append(token)
        return idx

    def id(self, token: str, kind: str = "vocabulary") -> int:
        """The id of token; ValueError("unknown <kind> token ...") when absent."""
        if token not in self._ids:
            raise ValueError(f"unknown {kind} token {token!r}")
        return self._ids[token]

    def token(self, idx: int) -> str:
        return self._tokens[idx]

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    def __iter__(self) -> Iterator[str]:
        return iter(self._tokens)

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocab) and self._tokens == other._tokens

    def write_tsv(self, path) -> None:
        """Write one "token<TAB>id" line per entry."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, tok in enumerate(self._tokens):
                fh.write(f"{tok}\t{idx}\n")

    @classmethod
    def read_tsv(cls, path) -> "Vocab":
        """Read "token<TAB>id" lines whose ids count up from 0."""
        vocab = cls()

        def add(fields):
            try:
                tok, idx = fields
                idx = int(idx)
            except ValueError:
                raise ValueError("expected token<TAB>integer id") from None
            if vocab.add(tok) != idx:
                raise ValueError(f"ids are not dense: {tok} -> {idx}")

        read_tsv(path, None, add, comments=False)
        return vocab


def id_rows(rows, shape=(-1, 3)) -> np.ndarray:
    """A read-only int64 copy of rows in shape, by default (n, 3) from id
    triples, a flat id sequence or an int array; an empty sequence gives (0, 3)."""
    rows = np.array(rows, dtype=np.int64).reshape(shape)
    rows.setflags(write=False)
    return rows


@dataclass(eq=False)
class TripleStore:
    """Immutable view of an interned triple set.

    triples is a read-only (n, 3) int64 array of the stored (h, r, t) ids.
    relation_counts holds occurrences among stored (deduplicated) triples.
    category_of maps entity id to category entity id and is derived only
    from triples under the configured category relation.
    """

    entities: Vocab
    relations: Vocab
    triples: np.ndarray
    category_of: dict[int, int]
    relation_counts: dict[int, int]
    category_relation: str = "isA"

    def __post_init__(self) -> None:
        self.triples = id_rows(self.triples)

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    @property
    def n_relations(self) -> int:
        return len(self.relations)

    def token_triples(self) -> list[tuple[str, str, str]]:
        """Stored triples externalized back to tokens, in storage order."""
        ent, rel = self.entities.token, self.relations.token
        return [(ent(h), rel(r), ent(t)) for h, r, t in self.triples.tolist()]


def triple_keys(rows: np.ndarray, n_e: int, n_r: int) -> np.ndarray:
    """int64 keys (h*n_r + r)*n_e + t of an (n, 3) id array, in row order;
    ValueError where two rows could share a key: the n_e*n_e*n_r keys would
    wrap in int64, or an id lies outside [0, n_e) or [0, n_r)."""
    if int(n_e) * int(n_e) * int(n_r) >= 2 ** 63:
        raise ValueError(f"key space of {n_e} entities x {n_r} relations overflows int64")
    if len(rows) and (rows.min() < 0 or (rows.max(axis=0) >= (n_e, n_r, n_e)).any()):
        raise ValueError(f"triple ids outside {n_e} entities and {n_r} relations")
    return (rows[:, 0] * n_r + rows[:, 1]) * n_e + rows[:, 2]


def stored_keys(store: TripleStore) -> np.ndarray:
    """Sorted int64 keys (triple_keys) of the stored triples."""
    return np.sort(triple_keys(store.triples, store.n_entities, store.n_relations))


def sorted_index(keys: np.ndarray, queries) -> np.ndarray:
    """Position in keys, a sorted int array, of each of the queries; -1 where absent."""
    at = np.searchsorted(keys, queries)
    found = len(keys) > 0 and keys[np.minimum(at, len(keys) - 1)] == queries
    return np.where(found, at, -1)


def store_from_triples(
    rows: Iterable[tuple[str, str, str]],
    category_relation: str = "isA",
) -> TripleStore:
    """Build a TripleStore from (head, relation, tail) token rows.

    Duplicate rows collapse to one triple. Entities with several category
    triples keep the lexicographically smallest category token; the paper
    setting assumes one category per entity, so this is only a tie-break.
    """
    unique = list(dict.fromkeys((h, r, t) for h, r, t in rows))
    if not unique:
        raise ValueError("no triples")

    entities = Vocab()
    relations = Vocab()
    ids: list[int] = []  # flat: one conversion gives the (n, 3) array
    categories: dict[int, str] = {}
    for head, rel, tail in unique:
        h = entities.add(head)
        ids += (h, relations.add(rel), entities.add(tail))
        if rel == category_relation:
            categories[h] = min(tail, categories.get(h, tail))

    category_of = {e: entities.id(tok) for e, tok in categories.items()}
    return TripleStore(
        entities=entities,
        relations=relations,
        triples=ids,
        category_of=category_of,
        relation_counts=dict(enumerate(np.bincount(ids[1::3]).tolist())),
        category_relation=category_relation,
    )


def read_tsv(path, n_fields: int | None, convert: Callable[[list[str]], object] = tuple,
             comments: bool = True) -> list:
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


def load_triples(path, category_relation: str = "isA") -> TripleStore:
    """Parse a TAB-separated triple file into a TripleStore.

    Raises ValueError naming the line number for malformed lines and
    ValueError("no triples") when the file holds no data lines.
    """
    return store_from_triples(read_tsv(path, 3), category_relation=category_relation)


def filter_rare_relations(store: TripleStore, min_count: int) -> TripleStore:
    """Drop triples whose relation occurs fewer than min_count times.

    The category relation always survives because key-relation selection
    depends on it. Vocabularies are re-interned densely.
    """
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    keep = []
    for head, rel, tail in store.token_triples():
        rid = store.relations.id(rel)
        if store.relation_counts[rid] >= min_count or rel == store.category_relation:
            keep.append((head, rel, tail))
    if not keep:
        raise ValueError("all relations filtered")
    return store_from_triples(keep, category_relation=store.category_relation)


def write_triples(path, rows: Iterable[tuple[str, str, str]]) -> None:
    """Write token triples in the TAB-separated file format."""
    with open(path, "w", encoding="utf-8") as fh:
        for head, rel, tail in rows:
            fh.write(f"{head}\t{rel}\t{tail}\n")


def write_atomically(writes) -> None:
    """Run each write(tmp) of a list of (path, write) on a temporary file next
    to path, then os.replace them all into place in list order, so that a
    failing write leaves every path as it was."""
    tmps = [Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp") for path, _ in writes]
    try:
        for tmp, (_, write) in zip(tmps, writes):
            write(tmp)
        for tmp, (path, _) in zip(tmps, writes):
            os.replace(tmp, path)
    finally:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)
