"""Synthetic benchmark generators with planted, recoverable structure.

The knowledge graph generator plants powers of a single permutation:
relation r_j maps entity e to sigma^j(e), with sigma the cyclic
successor on the entity indices. The power set is compositionally
redundant (r_2 = r_1 applied twice, and so on), so a model that places
entities consistently can complete pairs it never saw. Coverage is
partial in two ways. Orbit-wrapping pairs (head index + j past the end)
are never emitted, which keeps the constraint system representable by
translations (a scorer of the h + r - t family cannot realize a closed
orbit exactly, since the displacements around a cycle must sum to zero).
And each relation beyond the first covers only a contiguous window of
the eligible heads: window membership is a linear function of the
position along the planted line, so a trained relation-transfer map can
separate existing from absent pairs instead of having to memorize a
scattered hole set. The first power keeps a full window so every entity
appears in at least one triple. Uncovered (h, r) pairs double as
existence-prediction negatives.

The preference generator builds an item graph with two attribute
relations plus a category, and users who mostly interact with items
carrying one preferred attribute value. Attribute knowledge is therefore
provably useful to a recommender.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kgstore import CATEGORY_RELATION


@dataclass
class PlantedKG:
    triples: list[tuple[str, str, str]]
    relation_triples: list[tuple[str, str, str]]
    entity_tokens: list[str]
    relation_tokens: list[str]
    covered: dict[str, set[str]]
    category_relation: str = field(default=CATEGORY_RELATION, init=False)


DEFAULT_POWERS = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64)


def planted_kg(n_entities: int = 200, powers: tuple[int, ...] = DEFAULT_POWERS,
               coverage: float = 0.75, n_categories: int = 0,
               seed: int = 0) -> PlantedKG:
    """Generate a permutation-power KG with windowed per-relation coverage.

    Category triples (n_categories > 0) tag entities round-robin with an
    isA relation; they are useful for key-relation selection demos but
    pull same-category entities together, which fights the planted line
    geometry, so benchmark KGs keep them off.
    """
    if not 0.0 < coverage <= 1.0:
        raise ValueError(f"coverage must be in (0, 1], got {coverage}")
    if not powers or any(j < 1 for j in powers) or len(set(powers)) != len(powers):
        raise ValueError(f"powers must be distinct positive ints, got {powers!r}")
    if max(powers) >= n_entities:
        raise ValueError(f"power {max(powers)} needs more than {n_entities} entities")
    rng = np.random.default_rng(seed)
    entities = [f"e{i:03d}" for i in range(n_entities)]
    relations = [f"r{j}" for j in powers]

    relation_triples = []
    covered: dict[str, set[str]] = {}
    for j, rel in zip(powers, relations):
        n_eligible = n_entities - j  # exclude orbit-wrapping heads
        if j == powers[0]:
            start, width = 0, n_eligible
        else:
            width = max(1, round(coverage * n_eligible))
            start = int(rng.integers(n_eligible - width + 1))
        covered[rel] = {entities[i] for i in range(start, start + width)}
        for i in range(start, start + width):
            relation_triples.append((entities[i], rel, entities[i + j]))

    if n_categories > 0:
        cat_triples = [(entities[i], CATEGORY_RELATION, f"c{i % n_categories}")
                       for i in range(n_entities)]
    else:
        cat_triples = []
    return PlantedKG(
        triples=relation_triples + cat_triples,
        relation_triples=relation_triples,
        entity_tokens=entities,
        relation_tokens=relations,
        covered=covered,
    )


def split_triples(rows: list[tuple[str, str, str]], holdout_frac: float, seed: int = 0):
    """Split token triples into (train, held_out) with a seeded shuffle."""
    if not 0.0 < holdout_frac < 1.0:
        raise ValueError(f"holdout_frac must be in (0, 1), got {holdout_frac}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(rows))
    n_held = max(1, int(round(holdout_frac * len(rows))))
    held = [rows[i] for i in order[:n_held]]
    train = [rows[i] for i in order[n_held:]]
    return train, held


@dataclass
class PreferenceData:
    kg_triples: list[tuple[str, str, str]]
    interactions: list[tuple[str, str, int]]
    user_tokens: list[str]
    item_tokens: list[str]
    preferences: dict[str, tuple[str, str]]


def preference_dataset(n_users: int = 500, n_items: int = 300, n_values: int = 4,
                       n_categories: int = 3, interactions_per_user: int = 8,
                       preferred_prob: float = 0.9, seed: int = 0) -> PreferenceData:
    """Generate an item KG plus interactions driven by attribute preference.

    Every item carries attr_a and attr_b values and a category. Each user
    prefers one (attribute, value) pair; train interactions come from the
    preferred pool with probability preferred_prob, and the held-out last
    interaction always does.
    """
    rng = np.random.default_rng(seed)
    users = [f"u{i:03d}" for i in range(n_users)]
    items = [f"i{i:03d}" for i in range(n_items)]
    attr_rels = ("attr_a", "attr_b")
    values = {
        "attr_a": [f"a{v}" for v in range(n_values)],
        "attr_b": [f"b{v}" for v in range(n_values)],
    }
    item_attr = {rel: rng.integers(n_values, size=n_items) for rel in attr_rels}
    item_cat = rng.integers(n_categories, size=n_items)

    kg_triples = []
    for i, item in enumerate(items):
        for rel in attr_rels:
            kg_triples.append((item, rel, values[rel][item_attr[rel][i]]))
        kg_triples.append((item, CATEGORY_RELATION, f"cat{item_cat[i]}"))

    pools = {
        (rel, v): [i for i in range(n_items) if item_attr[rel][i] == v]
        for rel in attr_rels
        for v in range(n_values)
    }
    short = [key for key, pool in pools.items() if len(pool) < interactions_per_user]
    if short:
        raise ValueError(f"attribute pools too small for {interactions_per_user} interactions: {short}")

    interactions = []
    preferences = {}
    for user in users:
        rel = attr_rels[int(rng.integers(len(attr_rels)))]
        v = int(rng.integers(n_values))
        preferences[user] = (rel, values[rel][v])
        pool = pools[(rel, v)]
        chosen: list[int] = []
        while len(chosen) < interactions_per_user - 1:
            if rng.random() < preferred_prob:
                cand = int(pool[rng.integers(len(pool))])
            else:
                cand = int(rng.integers(n_items))
            if cand not in chosen:
                chosen.append(cand)
        # held-out latest interaction always reflects the preference
        while True:
            cand = int(pool[rng.integers(len(pool))])
            if cand not in chosen:
                chosen.append(cand)
                break
        interactions.extend((user, items[i], order) for order, i in enumerate(chosen))
    return PreferenceData(
        kg_triples=kg_triples,
        interactions=interactions,
        user_tokens=users,
        item_tokens=items,
        preferences=preferences,
    )
