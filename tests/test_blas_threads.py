"""The BLAS thread count moves no bytes where OpenBLAS splits a product.

pkgm commands run OpenBLAS on one thread (see cli.dispatch), and the byte
pins are taken that way. Library callers keep their own count, so these
cases train through the library at one and at two threads, at sizes where
OpenBLAS splits a product over two, and require the same parameter bytes
and losses: the recommender at batch 256 with a 128-wide layer-1 input, and
trainer.train at batch 1000 and d = 64.
"""

import os

import numpy as np
import pytest

from oracles import interactions_from_rows
from pkgm import cli, downstream, synth, trainer
from pkgm.kgstore import store_from_triples


@pytest.fixture
def set_threads():
    threads = cli._openblas_threads()
    if threads is None:
        pytest.skip("numpy's BLAS has no scipy-openblas thread-count functions")
    cpus = len(os.sched_getaffinity(0))
    if cpus < 2:
        pytest.skip(f"needs a second CPU for OpenBLAS to split on; this process has {cpus}")
    get, put = threads
    saved = get()

    def set_count(count):
        put(count)
        assert get() == count

    yield set_count
    put(saved)


def table_bytes(tables) -> bytes:
    return b"".join(np.ascontiguousarray(table).tobytes() for table in tables)


def test_recommender_bytes_do_not_depend_on_blas_threads(set_threads):
    prefs = synth.preference_dataset(seed=3)
    data = interactions_from_rows(prefs.interactions)
    service = np.random.default_rng(4).normal(size=(data.n_items, 64)).astype(np.float32)
    config = downstream.RecConfig(learning_rate=1e-3, epochs=3, batch_size=256)
    runs = []
    for count in (1, 2):
        set_threads(count)
        model = downstream.train_recommender(data, service, config)
        runs.append((table_bytes(model.params.values()), model.train_losses))
    assert model.params["w1"].shape == (128, 32)
    assert runs[0] == runs[1]


def test_trainer_bytes_do_not_depend_on_blas_threads(set_threads):
    store = store_from_triples(synth.planted_kg(n_entities=1000, seed=3).triples)
    config = trainer.TrainConfig(dim=64, batch_size=1000, epochs=2, learning_rate=1e-3)
    assert len(store.triples) > 2 * config.batch_size
    runs = []
    for count in (1, 2):
        set_threads(count)
        params, report = trainer.train(store, config)
        runs.append((table_bytes([params.entity_emb, params.relation_emb, params.transfer]),
                     report.epoch_losses))
    assert runs[0] == runs[1]
