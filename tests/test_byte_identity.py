"""Byte identity: a seeded README pass and a fixed serve answer stream hash
to pinned sha256 values.

The pass runs the README commands over data/ at a small epoch count. Its
checkpoint files, key-relation file, the services.bin of every variant and
the eval-lp, eval-rel and recsys reports are hashed; train_report.json holds
wall times and is left out. The answer stream is QueryService.answer_line
over every op and variant, repeated requests, unknown ids, an entity with no
key relations and malformed requests.

The pins hold for one numpy and BLAS build only (OpenBLAS rounds
differently on its small-matrix paths), so on any other build the test
skips and names both builds. A change meant to alter these bytes updates
the pins and says so.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from pkgm import cli, keyrel, model, servicing

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
        "da8ac625babb5e73a586a1d628429a2275aa8815eb21c3e9e4866edb9110196e",
    "services_T.bin":
        "de602babbb638db3d23d3a140cd0088ff30f79343f0efd8bb5995b3ddc4eaa61",
    "services_R.bin":
        "677518a3db1ce993c0336404c7dfcb824f5fddcfab3dfb2d848d6ae5944acf44",
    "lp.json":
        "e4bb330e2325f1fbd18cbb27b447e15ce3305bbeaef8baed58e75a189f5aa323",
    "rel.json":
        "7ad5ce245004d7417db40a1c0e03c309ade40f7fb8434004fab4eba8ed646f8e",
    "rec.json":
        "88d63664c05b6d65cb928f68f489c8f93c391c70c637508a64ca2a538237e3ad",
    "answer_line stream":
        "6a1989835fbb9c00ab9e8750368270635a2dd30dcecf38198ae1f2f0632d06e4",
}


def build() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 gives no config dicts
        blas = {}
    return (f"numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')} "
            f"({blas.get('openblas configuration')})")


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


def test_readme_pass_and_answer_stream_match_pins(tmp_path):
    if build() != PINNED_BUILD:
        pytest.skip(f"pins were taken on {PINNED_BUILD}; this is {build()}")
    readme_pass(tmp_path)
    files = [f"ckpt/{name}" for name in sorted(p.name for p in (tmp_path / "ckpt").iterdir())
             if name != "train_report.json"]
    files += ["keyrels.tsv", *(f"services_{v}.bin" for v in servicing.VARIANTS),
              "lp.json", "rel.json", "rec.json"]
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in files}
    got["answer_line stream"] = hashlib.sha256(answer_stream(tmp_path)).hexdigest()
    print(json.dumps(got, indent=4))
    assert got == PINS
