"""Triple file ingestion, id interning, and the category index.

Triple files are UTF-8 text, one triple per line, fields separated by a
single TAB, no header. Lines starting with "#" are ignored. read_tsv is
the one parser of TAB files: these "#"-commented inputs (triples,
existence pairs, interactions) and, with comments off, the vocabulary and
key-relation files. It checks a whole file's bytes at once, then hands out
its data lines CHUNK_LINES at a time as columns of strings, which callers
map to int64 ids (Vocab.ids, Vocab.intern) before the next chunk; so a read
holds the file's bytes, two int64 line indexes, one chunk's strings and the
ids and distinct tokens kept so far. Every TripleStore the library builds
takes one path, token columns -> _intern_triples -> _store_from_ids:
load_triples for each chunk of a file, and filter_rare_relations for the
kept id rows turned back into their tokens. Category membership
is encoded as ordinary triples under a configurable relation name (default
"isA"), i.e. (entity, isA, category). Interned id rows are read-only (n, 3)
int64 arrays; triple_keys alone encodes a triple's int64 key, and
sorted_index is the one lookup in a sorted array.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import filterfalse, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

CHUNK_LINES = 4096  # data lines per chunk of a TAB file read
CATEGORY_RELATION = "isA"  # the default relation of category triples


class Vocab:
    """Dense string-to-id interning, ids assigned in first-appearance order."""

    def __init__(self, tokens: Iterable[str]):
        # one dict when the tokens are distinct, as a checkpoint's are; tokens
        # with repeats take a second pass that keeps each first appearance
        self._tokens: list[str] = list(tokens)
        self._ids: dict[str, int] = dict(zip(self._tokens, range(len(self._tokens))))
        if len(self._ids) < len(self._tokens):
            self._tokens = list(dict.fromkeys(self._tokens))
            self._ids = dict(zip(self._tokens, range(len(self._tokens))))

    def id(self, token: str) -> int:
        """The id of token; ValueError("unknown vocabulary token ...") when absent."""
        if token not in self._ids:
            raise ValueError(f"unknown vocabulary token {token!r}")
        return self._ids[token]

    def ids(self, tokens) -> np.ndarray:
        """int64 id of each of a sequence of tokens, -1 where a token is unknown."""
        return np.fromiter(map(self._ids.get, tokens, repeat(-1)), np.int64, len(tokens))

    def intern(self, tokens) -> np.ndarray:
        """Vocab.ids of a sequence of tokens after adding those not yet present,
        in order of first appearance."""
        new = list(filterfalse(self._ids.__contains__, dict.fromkeys(tokens)))
        self._ids.update(zip(new, range(len(self._tokens), len(self._tokens) + len(new))))
        self._tokens.extend(new)
        return self.ids(tokens)

    def token(self, idx: int) -> str:
        return self._tokens[idx]

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    def __iter__(self) -> Iterator[str]:
        return iter(self._tokens)

    def write_tsv(self, path) -> None:
        """Write one "token<TAB>id" line per entry."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, tok in enumerate(self._tokens):
                fh.write(f"{tok}\t{idx}\n")

    @classmethod
    def read_tsv(cls, path) -> "Vocab":
        """Read "token<TAB>id" lines whose ids count up from 0."""
        message = "expected token<TAB>integer id"
        rows = read_tsv(path, 2, comments=False, miscount=message)
        tokens: list[str] = []
        parsed: dict[int, list[int]] = {}  # from row lo, the ids that are not row numbers

        def check(chunk: TsvRows) -> None:
            lo = len(tokens)
            tokens.extend(chunk.columns[0])
            # int() accepts more than "%d" writes ("01", "+1"), so only a chunk
            # whose id text is not its row numbers is parsed
            written = "\n".join(chunk.columns[1]) + "\n"
            if written != "%d\n" * len(chunk) % (*range(lo, len(tokens)),):
                parsed[lo] = chunk.ints(1, message)

        rows.map(check)
        vocab = cls(tokens)
        # ids count up in order of first appearance; a repeated token repeats its first id
        if parsed or len(vocab) < len(tokens):
            ids = list(range(len(tokens)))
            for lo, values in parsed.items():
                ids[lo:lo + len(values)] = values
            dense = vocab.ids(tokens).tolist()
            rows.reject(np.fromiter(map(int.__ne__, ids, dense), bool, len(ids)),
                        lambda i: f"ids are not dense: {tokens[i]} -> {ids[i]}")
        return vocab


@dataclass(eq=False)
class TsvRows:
    """Data lines of a TAB file, split into columns of strings on first use:
    columns[j][i] is field j of row i, and lines[i] the file line that row
    came from. ends[n] is the offset in data, the file's bytes, of the
    newline that ends file line n (ends[0] = -1)."""

    path: object
    data: bytes
    ends: np.ndarray
    lines: np.ndarray
    n_fields: int
    checks: int = field(default=0, init=False)  # reject and ints calls so far

    def __len__(self) -> int:
        return len(self.lines)

    @cached_property
    def columns(self) -> list[list[str]]:
        if not len(self.lines):
            return [[] for _ in range(self.n_fields)]
        first, last = int(self.lines[0]), int(self.lines[-1])
        text = self.data[self.ends[first - 1] + 1:self.ends[last]].decode("utf-8")
        if "\r" in text:
            text = re.sub("\r+$", "", text, flags=re.MULTILINE)
        if last - first + 1 > len(self.lines):  # blank or comment lines among the rows
            lines = text.split("\n")
            text = "\n".join(map(lines.__getitem__, (self.lines - first).tolist()))
        fields = text.replace("\n", "\t").split("\t")
        return [fields[j::self.n_fields] for j in range(self.n_fields)]

    def map(self, read: Callable[["TsvRows"], object]) -> list:
        """read(chunk) of each chunk of at most CHUNK_LINES rows in order, one
        empty chunk when there are no rows. A ValueError that read raises
        ends only its chunk; after the last chunk the first of them in check
        order is raised: a chunk's n-th check (its n-th reject or ints call)
        ranks before any chunk's n+1-th, and an earlier chunk before a later."""
        results, failure = [], None
        for lo in range(0, max(len(self), 1), CHUNK_LINES):
            chunk = TsvRows(self.path, self.data, self.ends, self.lines[lo:lo + CHUNK_LINES],
                            self.n_fields)
            try:
                results.append(read(chunk))
            except ValueError as exc:
                if failure is None or chunk.checks < failure[0]:
                    failure = chunk.checks, exc.with_traceback(None)
        if failure:
            raise failure[1]
        return results

    def error(self, row: int, message: str) -> ValueError:
        """The ValueError of a fault in data row row, prefixed with "path: line N:"."""
        return ValueError(f"{self.path}: line {self.lines[row]}: {message}")

    def reject(self, bad: np.ndarray, message: Callable[[int], str]) -> None:
        """Raise the error of the first row where the bool array bad holds,
        with text message(row); do nothing where it holds nowhere."""
        self.checks += 1
        if bad.any():
            row = int(np.argmax(bad))
            raise self.error(row, message(row))

    def ints(self, column: int, message: str) -> list[int]:
        """int() of each field of a column; the error message at the first
        field that int() refuses."""
        self.checks += 1
        values: list[int] = []
        try:
            values.extend(map(int, self.columns[column]))
        except ValueError:  # extend keeps what it took before the refusal
            raise self.error(len(values), message) from None
        return values

    def ids(self, column: int, vocab: Vocab, kind: str) -> np.ndarray:
        """int64 ids of a column's tokens in vocab; an unknown token is the
        error "unknown <kind> token ..." of its row."""
        tokens = self.columns[column]
        ids = vocab.ids(tokens)
        self.reject(ids < 0, lambda i: f"unknown {kind} token {tokens[i]!r}")
        return ids


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
    category_relation: str = CATEGORY_RELATION

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


def sorted_index(keys: np.ndarray, queries) -> np.ndarray:
    """Position in keys, a sorted int array, of each of the queries; -1 where absent."""
    at = np.searchsorted(keys, queries)
    found = len(keys) > 0 and keys[np.minimum(at, len(keys) - 1)] == queries
    return np.where(found, at, -1)


def _intern_triples(entities: Vocab, relations: Vocab, heads, rels, tails) -> np.ndarray:
    """(n, 3) int64 ids of the rows zip(heads, rels, tails), interning their
    entities in order of appearance h0, t0, h1, t1, ... and their relations."""
    ends = [None] * (2 * len(heads))
    ends[::2], ends[1::2] = heads, tails
    ht = entities.intern(ends).reshape(-1, 2)
    return np.stack([ht[:, 0], relations.intern(rels), ht[:, 1]], axis=1)


def _store_from_ids(entities: Vocab, relations: Vocab, ids: np.ndarray,
                    category_relation: str) -> TripleStore:
    """The TripleStore of (n, 3) id rows under the vocabularies they were interned in.

    Duplicate rows collapse to one triple. Entities with several category
    triples keep the lexicographically smallest category token; the paper
    setting assumes one category per entity, so this is only a tie-break.
    """
    if not len(ids):
        raise ValueError("no triples")
    # a repeated row holds no token's first appearance, so keeping first
    # occurrences leaves every id as it is
    _, first = np.unique(triple_keys(ids, len(entities), len(relations)), return_index=True)
    triples = ids[np.sort(first)]

    category_of: dict[int, int] = {}
    if category_relation in relations:
        cat = triples[triples[:, 1] == relations.id(category_relation)]
        tokens = map(entities._tokens.__getitem__, cat[:, 2].tolist())
        # sorted descending, the last pair a head gets holds its smallest category token
        smallest = dict(sorted(zip(cat[:, 0].tolist(), tokens), reverse=True))
        category_of = dict(zip(smallest, entities.ids(list(smallest.values())).tolist()))
    return TripleStore(
        entities=entities,
        relations=relations,
        triples=triples,
        category_of=category_of,
        relation_counts=dict(enumerate(np.bincount(triples[:, 1]).tolist())),
        category_relation=category_relation,
    )


def read_tsv(path, n_fields: int, comments: bool = True, miscount: str | None = None) -> TsvRows:
    """The data lines of a TAB-separated UTF-8 file, as n_fields columns.

    The whole file's bytes are checked at once; rows.map then splits its
    data lines into fields CHUNK_LINES lines at a time, so no more than one
    chunk's fields are held as strings at once. Carriage returns before a
    line's newline are dropped. Blank lines are skipped, and so are lines
    starting with "#" unless comments is False. A file that is not UTF-8
    ends the read in ValueError naming the line of its first bad byte with
    the error of decoding that line alone; a line with other than n_fields
    fields, in ValueError with text miscount, by default "expected
    <n_fields> TAB-separated fields, got <count>". Both are prefixed with
    "path: line N:".
    """
    data = Path(path).read_bytes()
    try:
        if not data.isascii():
            data.decode("utf-8")
    except UnicodeDecodeError as exc:
        start = data.rfind(b"\n", 0, exc.start) + 1
        line = data[start:data.find(b"\n", exc.start) + 1 or len(data)]
        lineno, reason = data.count(b"\n", 0, start) + 1, exc
        try:
            line.decode("utf-8")
        except UnicodeDecodeError as line_exc:
            reason = line_exc
        raise ValueError(f"{path}: line {lineno}: {reason}") from None
    # each line's end and its TAB and CR counts, from the bytes, where TAB, CR
    # and newline are single bytes; an empty last line after a newline is no line
    raw = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(raw == 10)
    if not data.endswith(b"\n") and data:
        ends = np.append(ends, len(raw))
    ends = np.insert(ends, 0, -1)

    def count(byte: int) -> np.ndarray:
        return np.diff(np.searchsorted(np.flatnonzero(raw == byte), ends))

    tabs = count(9)
    keep = np.diff(ends) - 1 > (count(13) if b"\r" in data else 0)  # not blank
    if comments:
        keep &= raw[ends[:-1] + 1] != ord("#")
    rows = TsvRows(path, data, ends, np.flatnonzero(keep) + 1, n_fields)
    rows.reject(tabs[rows.lines - 1] != n_fields - 1, lambda i: miscount
                or f"expected {n_fields} TAB-separated fields, got {tabs[rows.lines[i] - 1] + 1}")
    return rows


def load_triples(path, category_relation: str = CATEGORY_RELATION) -> TripleStore:
    """Parse a TAB-separated triple file into a TripleStore.

    Raises ValueError naming the line number for malformed lines and
    ValueError("no triples") when the file holds no data lines.
    """
    entities, relations = Vocab([]), Vocab([])
    return _store_from_ids(entities, relations, np.concatenate(read_tsv(path, 3).map(
        lambda rows: _intern_triples(entities, relations, *rows.columns))), category_relation)


def filter_rare_relations(store: TripleStore, min_count: int) -> TripleStore:
    """Drop triples whose relation occurs fewer than min_count times.

    The category relation always survives because key-relation selection
    depends on it. Vocabularies are re-interned densely, in the order
    load_triples would intern a file of the kept rows.
    """
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    keep = np.array([store.relation_counts[rid] >= min_count or rel == store.category_relation
                     for rid, rel in enumerate(store.relations)])
    rows = store.triples[keep[store.triples[:, 1]]]
    if not len(rows):
        raise ValueError("all relations filtered")
    # the kept rows' token columns live only while they are interned
    entities, relations = Vocab([]), Vocab([])
    ids = _intern_triples(entities, relations, *(
        list(map(vocab.token, column))
        for vocab, column in zip((store.entities, store.relations, store.entities), rows.T)))
    return _store_from_ids(entities, relations, ids, store.category_relation)


def write_triples(path, rows: Iterable[tuple]) -> None:
    """Write rows of three fields TAB-separated: triples, and downstream.write_interactions."""
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
