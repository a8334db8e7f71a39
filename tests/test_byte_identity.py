"""Byte identity: a seeded README pass, a fixed serve answer stream and
`pkgm train` on both benchmark workloads' training inputs hash to pinned
sha256 values.

The pass runs the README commands over data/ at a small epoch count. Its
checkpoint files, key-relation file, the services.bin of every variant and
the eval-lp, eval-rel and recsys reports are hashed; train_report.json holds
wall times and is left out. The answer stream is QueryService.answer_line
over every op and variant, repeated requests, unknown ids, an entity with no
key relations and malformed requests. The benchmark inputs are built from
pkgm.synth at seed 5, as the benchmark builds them, and trained with the
benchmark's settings; every variant's services.bin from the kg_pipeline
checkpoint spans several write chunks, and the recsys checkpoint's "all"
export is the one the recsys workload writes.

The pins hold for one numpy and BLAS build only (OpenBLAS rounds
differently on its small-matrix paths), so on any other build the test
skips and names both builds. They also depend on the OpenBLAS core that
the DYNAMIC_ARCH library picks when it loads, which the guard does not
read: the build string names Haswell, but the pins were made on the
SkylakeX core (an AVX-512 host). Forced onto the Haswell core with
OPENBLAS_CORETYPE=Haswell, the same wheel fails both pin tests, so a host
without AVX-512 would likely fail them too. A change meant to alter these
bytes updates the pins and says so.

The pins are taken through cli.dispatch, which runs OpenBLAS on one thread;
tests/test_blas_threads.py checks that two threads give the same bytes where
OpenBLAS splits a product.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from pkgm import cli, keyrel, kgstore, model, servicing, synth

DATA = Path(__file__).resolve().parent.parent / "data"

PINNED_BUILD = "numpy 2.4.6, BLAS scipy-openblas 0.3.31.188.0 (OpenBLAS 0.3.31.188.0  " \
               "USE64BITINT DYNAMIC_ARCH NO_AFFINITY Haswell MAX_THREADS=64)"

PINS = {
    "ckpt/entities.tsv":
        "a22dfb54a77dec66918bb8f85c2d94829d9c8bed95124d55ed20b0ba023f2ad9",
    "ckpt/entity_emb.f32":
        "4087a5785d2a49b7da5ec229c5effe2fcc0c3dcbbd2dbdd0ccb39fb4daca91ae",
    "ckpt/header.json":
        "cd4d50743a02acfdce732670d6c074486dfc38b2e8a60793bc84a6d9cae1de7a",
    "ckpt/relation_emb.f32":
        "1b64a54b3e7a6c79a3dfdf3f5044d46165efe2148f19fa99ed9bd640fcedf484",
    "ckpt/relations.tsv":
        "c0d6ec69694baf67a4d753b3cc3bcc2266faff77a7fe525bc40544e3cfd76766",
    "ckpt/transfer.f32":
        "6b3d563ae7c85b9ebd052103827804d86333a764e8b8b71f57e1c247268ea1fd",
    "keyrels.tsv":
        "d6751f11b70ff238d8db7ae23ddab10c792fb91348aaaca251fd44e87f557db3",
    "services_item.bin":
        "e21f35eab67698d82fb38741ee5de4c1b2304e10b117db7e196b4bb6416c25f9",
    "services_all.bin":
        "ad9706f3c767c7fe4c82dbff7e23e57fbccc4d647d16393d108d7fc53d3030b3",
    "services_T.bin":
        "de602babbb638db3d23d3a140cd0088ff30f79343f0efd8bb5995b3ddc4eaa61",
    "services_R.bin":
        "0cf263570f9243586cb84292cc282ec8abcef26b87b92f5d2632944831f9e3e4",
    "lp.json":
        "e4bb330e2325f1fbd18cbb27b447e15ce3305bbeaef8baed58e75a189f5aa323",
    "rel.json":
        "64249bf563bc5c25ae0b850feeeaf15dcdbd79fcc2fe08371dbf814469dca6f6",
    "rec.json":
        "88d63664c05b6d65cb928f68f489c8f93c391c70c637508a64ca2a538237e3ad",
    "answer_line stream":
        "829e0de76e0847a5fbe7fe31da240ecf0f516e3668a3405cc635978e052938f2",
}

BENCH_PINS = {
    "kg_pipeline/entities.tsv":
        "31e9f9c7e78714b8f25671549d1c389a4d980c580c798cd4247fd67885d3a45f",
    "kg_pipeline/entity_emb.f32":
        "dcb678975e3fcce87b8751e91f2c5f17aed0b4f2d8abc54e27f5f6d0ff392e22",
    "kg_pipeline/header.json":
        "36aadd1ec6fde7c4c0da50d871f19e2b8568eed8cb5645252bb61b62eaa50d2b",
    "kg_pipeline/relation_emb.f32":
        "07e456c8cff7e4f3ce1c177e67f61d32bf6174c655a4722bd0de45ac908134f3",
    "kg_pipeline/relations.tsv":
        "4afb55a369cf000115a6cf888393f8b8e2f8cb8cd802fd39debb8e37708b8a97",
    "kg_pipeline/transfer.f32":
        "8a93a08b61dbf3b61cd593d2309784e358905fa9d4136dc18314287856c8454b",
    "recsys/entities.tsv":
        "276cbe792eed250a1d420da1408f4717c41c77b13c09ba5742fbfd2fff467d06",
    "recsys/entity_emb.f32":
        "39aa02a791571cc6b08cc78c71d9f135a79dcd5bd5dc6f136fbb0ec9f4cebac7",
    "recsys/header.json":
        "b782bd8f20eb71df3c302b3f6f16ba73158e5c682fa5a4745efe14b677ebd9fb",
    "recsys/relation_emb.f32":
        "abbdc5664534dce1e31be35b1db50b28b816410cdda15fb834d925d5634df01d",
    "recsys/relations.tsv":
        "2337d8e75dff3feb8b958aa676f07ce4b97571ca3570ea19b7d86f703fe4764b",
    "recsys/transfer.f32":
        "29af7ac76ce1263b30279bc9a063a3d828d9494f5e2d5f98479a54c747b820bf",
    "kg_pipeline/services_item.bin":
        "39b1155a375f0f592041d70dcbadf5ce3dda862737b74c73f847de71ceb140a6",
    "kg_pipeline/services_all.bin":
        "a88d4da0b352f5b34e314271dbc4f1c1313fbeccaf05154409b40b281a764f3b",
    "kg_pipeline/services_T.bin":
        "694a7a02e2dcf5616329cc3ecf5eb4960d21805e76976f95d948aa29e42757dc",
    "kg_pipeline/services_R.bin":
        "5bfbf47ab9422b2f8e9613bdb66e7ed6f87298567a6f0176a192f482a98fbf37",
    "recsys/services_all.bin":
        "942d2fb3cc5c02dfc6c0583335d28555c0f7f39c033fd63d1da0f3887e0599f3",
}


def build() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 gives no config dicts
        blas = {}
    return (f"numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')} "
            f"({blas.get('openblas configuration')})")


pytestmark = pytest.mark.skipif(build() != PINNED_BUILD,
                                reason=f"pins were taken on {PINNED_BUILD}; this is {build()}")


def checkpoint_hashes(ckpt: Path, prefix: str) -> dict[str, str]:
    """sha256 of each checkpoint file but train_report.json, which holds wall times."""
    return {f"{prefix}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(ckpt.iterdir()) if path.name != "train_report.json"}


def readme_pass(out: Path) -> None:
    """The README's full pass over data/, at 3 training and 2 recommender epochs."""
    kg, ckpt, keyrels = str(DATA / "planted_kg.tsv"), str(out / "ckpt"), str(out / "keyrels.tsv")
    commands = [
        ["train", "--triples", kg, "--out", ckpt, "--dim", "16", "--margin", "4", "--lr", "0.01",
         "--batch", "16", "--epochs", "3", "--neg", "4", "--seed", "0"],
        ["keyrel", "--triples", kg, "--k", "3", "--out", keyrels],
        *(["export-services", "--checkpoint", ckpt, "--keyrel", keyrels, "--variant", variant,
           "--out", str(out / f"services_{variant}.bin")] for variant in servicing.VARIANTS),
        ["eval-lp", "--checkpoint", ckpt, "--test", str(DATA / "test_triples.tsv"),
         "--triples", kg, "--report", str(out / "lp.json")],
        ["eval-rel", "--checkpoint", ckpt, "--pairs", str(DATA / "pairs.tsv"),
         "--report", str(out / "rel.json")],
        ["recsys", "--interactions", str(DATA / "interactions.tsv"),
         "--services", str(out / "services_all.bin"), "--checkpoint", ckpt,
         "--report", str(out / "rec.json"), "--epochs", "2", "--lr", "0.001"],
    ]
    for argv in commands:
        assert cli.dispatch(argv) == 0, argv


def answer_stream(out: Path) -> bytes:
    """answer_line over every op and variant, memo hits and every error answer."""
    params, entities, relations = model.load_checkpoint(out / "ckpt")
    table = keyrel.read_keyrel_tsv(out / "keyrels.tsv", entities, relations)
    service = servicing.QueryService(params, table, entities, relations)
    requests = []
    for e in ("e000", "e017", "e049"):
        for r in ("r1", "r8", "isA"):
            requests += [{"op": "triple", "h": e, "r": r}, {"op": "relation", "h": e, "r": r}]
        requests += [{"op": "bundle", "e": e, "variant": v} for v in servicing.VARIANTS]
    requests += requests[:4]  # memo hits
    requests += [{"op": "bundle", "e": "c0", "variant": v} for v in servicing.VARIANTS]
    requests += [
        {"op": "triple", "h": "nobody", "r": "r1"}, {"op": "relation", "h": "e000", "r": "r9"},
        {"op": "bundle", "e": "nobody", "variant": "all"},
        {"op": "bundle", "e": "e000", "variant": "both"}, {"op": "triple", "h": 0, "r": "r1"},
        {"op": "nothing"}, {"h": "e000"}, ["triple"], "bundle", None,
    ]
    return b"".join(service.answer_line(request) for request in requests)


def bench_training(out: Path, seed: int = 5) -> None:
    """`pkgm train` on the kg_pipeline workload's KG (the planted KG of 2,000
    entities and 20 categories minus its 5% relation holdout) and on the
    recsys workload's item KG, with the benchmark's settings."""
    kg = synth.planted_kg(n_entities=2000, n_categories=20, seed=seed)
    train_rel, _ = synth.split_triples(kg.relation_triples, 0.05, seed=seed)
    categories = [row for row in kg.triples if row[1] == kg.category_relation]
    kgstore.write_triples(out / "kg.tsv", train_rel + categories)
    kgstore.write_triples(out / "items.tsv", synth.preference_dataset(seed=seed).kg_triples)
    commands = [
        ["train", "--triples", str(out / "kg.tsv"), "--out", str(out / "kg_pipeline"),
         "--seed", "0"],
        ["train", "--triples", str(out / "items.tsv"), "--out", str(out / "recsys"),
         "--seed", "0", "--dim", "32", "--margin", "2", "--lr", "0.001", "--batch", "4",
         "--epochs", "10", "--neg", "4"],
    ]
    for argv in commands:
        assert cli.dispatch(argv) == 0, argv


def test_readme_pass_and_answer_stream_match_pins(tmp_path):
    readme_pass(tmp_path)
    got = checkpoint_hashes(tmp_path / "ckpt", "ckpt")
    files = ["keyrels.tsv", *(f"services_{v}.bin" for v in servicing.VARIANTS),
             "lp.json", "rel.json", "rec.json"]
    got.update((name, hashlib.sha256((tmp_path / name).read_bytes()).hexdigest())
               for name in files)
    got["answer_line stream"] = hashlib.sha256(answer_stream(tmp_path)).hexdigest()
    print(json.dumps(got, indent=4))
    assert got == PINS


def bench_exports(out: Path) -> dict[str, str]:
    """sha256 of every variant's services.bin from the kg_pipeline checkpoint
    at k = 10: 2,000 records, which "all" writes in 10 chunks; and of the
    recsys workload's export, "all" from the recsys checkpoint at k = 2."""
    exports = [("kg_pipeline", "kg.tsv", "10", servicing.VARIANTS),
               ("recsys", "items.tsv", "2", ("all",))]
    hashes = {}
    for workload, triples, k, variants in exports:
        keyrels = str(out / f"{workload}_keyrels.tsv")
        assert cli.dispatch(["keyrel", "--triples", str(out / triples), "--k", k,
                             "--out", keyrels]) == 0
        for variant in variants:
            path = out / f"{workload}_services_{variant}.bin"
            assert cli.dispatch(["export-services", "--checkpoint", str(out / workload),
                                 "--keyrel", keyrels, "--variant", variant,
                                 "--out", str(path)]) == 0
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            hashes[f"{workload}/services_{variant}.bin"] = digest
    return hashes


def test_bench_scale_training_matches_pins(tmp_path):
    bench_training(tmp_path)
    got = {**checkpoint_hashes(tmp_path / "kg_pipeline", "kg_pipeline"),
           **checkpoint_hashes(tmp_path / "recsys", "recsys"), **bench_exports(tmp_path)}
    print(json.dumps(got, indent=4))
    assert got == BENCH_PINS
