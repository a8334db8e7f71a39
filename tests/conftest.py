import numpy as np
import pytest

from oracles import store_of
from pkgm.model import init_params

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)
    print(line, flush=True)


def pytest_terminal_summary(terminalreporter, exitstatus):
    # repeat the per-criterion verdicts where capture cannot swallow them
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def toy_rows():
    return [
        ("apple", "color", "red"),
        ("apple", "tastes", "sweet"),
        ("apple", "isA", "fruit"),
        ("lemon", "color", "yellow"),
        ("lemon", "isA", "fruit"),
        ("carrot", "color", "orange"),
        ("carrot", "isA", "vegetable"),
        ("kale", "isA", "vegetable"),
    ]


@pytest.fixture
def toy_store(toy_rows):
    return store_of(toy_rows)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_params(rng):
    return init_params(n_entities=7, n_relations=3, dim=5, rng=rng)
