"""Every reader of a CLI input, fed one damaged file, ends the command in one named error.

One row per reader and damage class. Each row copies a small set of good
inputs, damages one file, runs ``python -m pkgm.cli`` as a subprocess, and
expects exit status 1, exactly one stderr line, which starts with
"pkgm: error: " and holds the row's message, and no output file.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pkgm
from pkgm import synth
from pkgm.cli import dispatch

ENV = {**os.environ, "PYTHONPATH": str(Path(pkgm.__file__).resolve().parents[1])}


@pytest.fixture(scope="module")
def good_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("good")
    kg = synth.planted_kg(n_entities=30, powers=(1, 2), coverage=0.8, n_categories=3, seed=0)
    (d / "kg.tsv").write_text("".join(f"{h}\t{r}\t{t}\n" for h, r, t in kg.triples))
    ckpt, keyrels = str(d / "ckpt"), str(d / "keyrels.tsv")
    assert dispatch(["train", "--triples", str(d / "kg.tsv"), "--out", ckpt,
                     "--dim", "4", "--epochs", "0"]) == 0
    assert dispatch(["keyrel", "--triples", str(d / "kg.tsv"), "--k", "2", "--out", keyrels]) == 0
    assert dispatch(["export-services", "--checkpoint", ckpt, "--keyrel", keyrels,
                     "--variant", "all", "--out", str(d / "services.bin")]) == 0
    relation_rows = [row for row in kg.triples if row[1] != kg.category_relation]
    (d / "test.tsv").write_text("".join(f"{h}\t{r}\t{t}\n" for h, r, t in relation_rows[:3]))
    (d / "pairs.tsv").write_text("".join(f"{h}\t{r}\t{y}\n" for (h, r, _), y
                                         in zip(relation_rows, "1010")))
    items = [line.split("\t")[0] for line in (d / "keyrels.tsv").read_text().splitlines()]
    (d / "interactions.tsv").write_text("".join(
        f"{user}\t{item}\t{order}\n"
        for user, start in (("u0", 0), ("u1", 1)) for order, item in enumerate(items[start:start + 3])))
    (d / "config.json").write_text("{}")
    return d


def _command(name, d):
    """(argv, output path or None) of one subcommand over the inputs in d."""
    ckpt, keyrels, report = str(d / "ckpt"), str(d / "keyrels.tsv"), d / "out.json"
    return {
        "train": (["train", "--triples", str(d / "kg.tsv"), "--out", str(d / "out"),
                   "--dim", "4", "--epochs", "0", "--config", str(d / "config.json")], d / "out"),
        "keyrel": (["keyrel", "--triples", str(d / "kg.tsv"), "--k", "2",
                    "--out", str(d / "out.tsv")], d / "out.tsv"),
        "export-services": (["export-services", "--checkpoint", ckpt, "--keyrel", keyrels,
                             "--variant", "all", "--out", str(d / "out.bin")], d / "out.bin"),
        "serve": (["serve", "--checkpoint", ckpt, "--keyrel", keyrels, "--port", "0"], None),
        "eval-lp": (["eval-lp", "--checkpoint", ckpt, "--test", str(d / "test.tsv"),
                     "--triples", str(d / "kg.tsv"), "--report", str(report)], report),
        "eval-rel": (["eval-rel", "--checkpoint", ckpt, "--pairs", str(d / "pairs.tsv"),
                      "--report", str(report)], report),
        "recsys": (["recsys", "--interactions", str(d / "interactions.tsv"),
                    "--services", str(d / "services.bin"), "--checkpoint", ckpt,
                    "--epochs", "1", "--report", str(report)], report),
    }[name]


def write(data):
    return lambda path: path.write_bytes(data)


def append(data):
    return lambda path: path.write_bytes(path.read_bytes() + data)


def line(i, edit):
    """Replace line i (0-based) of a text file by edit(line); edit may return bytes."""
    def damage(path):
        lines = path.read_text().splitlines()
        new = edit(lines[i])
        raw = [l.encode() for l in lines]
        raw[i] = new if isinstance(new, bytes) else new.encode()
        path.write_bytes(b"".join(l + b"\n" for l in raw))
    return damage


def field(i, j, value):
    """Set TAB field j of line i."""
    def edit(text):
        fields = text.split("\t")
        fields[j] = value
        return "\t".join(fields)
    return line(i, edit)


def relations(i, edit):
    """Replace the relation list of key relation line i by edit(list of tokens)."""
    return line(i, lambda text: text.split("\t")[0] + "\t" + ",".join(edit(text.split("\t")[1].split(","))))


def crlf(path):
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))


def both(*damages):
    def damage(path):
        for d in damages:
            d(path)
    return damage


def nan_blob(path):
    values = np.fromfile(path, dtype="<f4")
    values[-1] = np.nan
    values.tofile(path)


def drop_last_line(path):
    path.write_text("".join(f"{l}\n" for l in path.read_text().splitlines()[:-1]))


def repeat_first_line(path):
    path.write_text(path.read_text() + path.read_text().splitlines()[0] + "\n")


# (row id, subcommand, damaged file, damage, message the error line holds; "{path}"
# stands for the damaged file)
ROWS = [
    # kgstore.load_triples
    ("triples-fields", "train", "kg.tsv", append(b"a\tb\n"),
     "{path}: line 82: expected 3 TAB-separated fields, got 2"),
    ("triples-non-utf8", "train", "kg.tsv", line(3, lambda text: text.encode() + b"\xff"),
     "{path}: line 4: 'utf-8' codec can't decode"),
    ("triples-empty", "train", "kg.tsv", write(b"# a comment\n\r\n"), "no triples"),
    ("triples-fields-keyrel", "keyrel", "kg.tsv", field(0, 2, "e001\tx"),
     "{path}: line 1: expected 3 TAB-separated fields, got 4"),
    ("triples-no-category", "keyrel", "kg.tsv", write(b"a\tr\tb\na\tq\tb\n"),
     "no triples under the category relation 'isA'"),
    # the filter and test triples of eval-lp
    ("filter-unknown-relation", "eval-lp", "kg.tsv", field(5, 1, "nosuch"),
     "{path}: line 6: unknown relation token 'nosuch'"),
    ("test-unknown-entity", "eval-lp", "test.tsv", field(0, 0, "nosuch"),
     "{path}: line 1: unknown entity token 'nosuch'"),
    ("test-unknown-tail-crlf", "eval-lp", "test.tsv", both(field(1, 2, "nosuch"), crlf),
     "{path}: line 2: unknown entity token 'nosuch'"),
    ("test-fields", "eval-lp", "test.tsv", append(b"\n# c\ne000\tr1\n"),
     "{path}: line 6: expected 3 TAB-separated fields, got 2"),
    ("test-empty", "eval-lp", "test.tsv", write(b""), "empty test set"),
    # eval-rel pairs
    ("pairs-label", "eval-rel", "pairs.tsv", field(2, 2, "yes"),
     "{path}: line 3: label must be 0 or 1, got 'yes'"),
    ("pairs-unknown-relation", "eval-rel", "pairs.tsv", field(1, 1, "nosuch"),
     "{path}: line 2: unknown relation token 'nosuch'"),
    ("pairs-fields", "eval-rel", "pairs.tsv", line(0, lambda _: "x"),
     "{path}: line 1: expected 3 TAB-separated fields, got 1"),
    ("pairs-empty", "eval-rel", "pairs.tsv", write(b"# a comment\n\n\r\n"), "empty pair set"),
    ("pairs-one-class", "eval-rel", "pairs.tsv", both(field(1, 2, "1"), field(3, 2, "1")),
     "single-class pair set"),
    # keyrel.read_keyrel_tsv
    ("keyrel-unknown-relation", "export-services", "keyrels.tsv",
     relations(1, lambda rels: ["nosuch"] + rels[1:]),
     "{path}: line 2: unknown relation token 'nosuch'"),
    ("keyrel-unknown-relation-serve", "serve", "keyrels.tsv",
     relations(1, lambda rels: ["nosuch"] + rels[1:]),
     "{path}: line 2: unknown relation token 'nosuch'"),
    ("keyrel-ragged", "export-services", "keyrels.tsv", relations(2, lambda rels: rels[:1]),
     "{path}: line 3: expected 2 relations, got 1"),
    ("keyrel-repeated-relation", "export-services", "keyrels.tsv",
     relations(0, lambda rels: rels[:1] * 2), "{path}: line 1: relation "),
    ("keyrel-repeated-entity", "export-services", "keyrels.tsv", repeat_first_line,
     " listed twice"),
    ("keyrel-unknown-entity", "export-services", "keyrels.tsv", field(0, 0, "nosuch"),
     "{path}: line 1: unknown entity token 'nosuch'"),
    ("keyrel-comment", "export-services", "keyrels.tsv", line(1, lambda _: "# note"),
     "{path}: line 2: expected 2 TAB-separated fields, got 1"),
    ("keyrel-non-utf8", "export-services", "keyrels.tsv", line(1, lambda text: b"\xfe" + text.encode()),
     "{path}: line 2: 'utf-8' codec can't decode byte 0xfe in position 0"),
    ("keyrel-empty", "export-services", "keyrels.tsv", write(b"\n"),
     "{path}: empty key relation table"),
    # Vocab.read_tsv of a checkpoint, and the rest of load_checkpoint
    ("entities-sparse", "export-services", "ckpt/entities.tsv", field(1, 1, "5"),
     "{path}: line 2: ids are not dense: "),
    ("entities-not-int", "eval-lp", "ckpt/entities.tsv", field(0, 1, "zero"),
     "{path}: line 1: expected token<TAB>integer id"),
    ("entities-non-utf8", "eval-rel", "ckpt/entities.tsv",
     line(30, lambda text: b"\xc3(" + text.encode()),
     "{path}: line 31: 'utf-8' codec can't decode byte 0xc3 in position 0"),
    ("entities-short", "export-services", "ckpt/entities.tsv", drop_last_line,
     "vocab sizes do not match checkpoint header"),
    ("relations-fields", "recsys", "ckpt/relations.tsv", field(0, 1, "0\tx"),
     "{path}: line 1: expected token<TAB>integer id"),
    ("blob-nan", "eval-rel", "ckpt/relation_emb.f32", nan_blob,
     "{path}: holds a NaN or infinite entry"),
    ("header-not-json", "eval-lp", "ckpt/header.json", write(b"{"), "{path}: "),
    # downstream.load_interactions
    ("interactions-order", "recsys", "interactions.tsv", field(1, 2, "x"),
     "{path}: line 2: order index must be an integer"),
    ("interactions-order-beyond-int64", "recsys", "interactions.tsv",
     field(4, 2, "99999999999999999999999"),
     "{path}: line 5: order index 99999999999999999999999 is outside the int64 range"),
    ("interactions-fields", "recsys", "interactions.tsv", field(0, 2, "0\t0"),
     "{path}: line 1: expected 3 TAB-separated fields, got 4"),
    ("interactions-empty", "recsys", "interactions.tsv", write(b"#\n"), "no interactions"),
    # servicing.read_services and the config file
    ("services-truncated", "recsys", "services.bin",
     lambda path: path.write_bytes(path.read_bytes()[:-4]), "{path}: truncated record"),
    ("config-not-json", "train", "config.json", write(b'{"dim": 4,'), "{path}: "),
]


@pytest.mark.parametrize("command,target,damage,message", [row[1:] for row in ROWS],
                         ids=[row[0] for row in ROWS])
def test_damaged_input_ends_in_one_named_error(tmp_path, good_inputs, command, target, damage,
                                               message):
    d = tmp_path / "inputs"
    shutil.copytree(good_inputs, d)
    damage(d / target)
    argv, output = _command(command, d)
    proc = subprocess.run([sys.executable, "-m", "pkgm.cli", *argv], capture_output=True,
                          text=True, timeout=120, env=ENV)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("pkgm: error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert message.format(path=d / target) in proc.stderr
    assert output is None or not output.exists()
