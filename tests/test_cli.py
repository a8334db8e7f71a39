import json
import re
import resource
import shlex
import signal
import socket
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from pkgm import cli, downstream, servicing, synth
from pkgm.cli import build_parser, dispatch
from pkgm.model import load_checkpoint
from pkgm.servicing import read_services


def test_help_exits_zero(capsys):
    assert dispatch(["--help"]) == 0
    assert "train" in capsys.readouterr().out


def test_no_command_prints_help(capsys):
    assert dispatch([]) == 2
    assert "COMMAND" in capsys.readouterr().out


def test_unknown_flag_is_usage_error(capsys):
    assert dispatch(["train", "--bogus", "1"]) == 2


def test_missing_required_flag(capsys):
    assert dispatch(["train"]) == 1
    assert "pkgm: error: missing required --triples" in capsys.readouterr().err


def test_unknown_config_key(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text('{"dim": 8, "bogus": 1}', encoding="utf-8")
    assert dispatch(["train", "--config", str(config)]) == 1
    assert "unknown config keys: bogus" in capsys.readouterr().err


@pytest.mark.parametrize("body,key", [('{"dim": 8.7}', "dim"), ('{"epochs": true}', "epochs"),
                                      ('{"out": 7}', "out"), ('{"dim": [8]}', "dim"),
                                      ('{"triples": 5}', "triples"), ('{"seed": null}', "seed"),
                                      ('{"category-relation": 1}', "category_relation")])
def test_config_value_of_wrong_type_is_named_error(tmp_path, capsys, body, key):
    config = tmp_path / "c.json"
    config.write_text(body, encoding="utf-8")
    assert dispatch(["train", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"pkgm: error: config key '{key}' must be ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("body,fault", [(b"{", "Expecting property name"),
                                        (b'{"dim": 8, \xff}', "can't decode byte 0xff")])
def test_unreadable_config_file_is_named_error(tmp_path, capsys, body, fault):
    config = tmp_path / "bad.json"
    config.write_bytes(body)
    assert dispatch(["train", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"pkgm: error: {config}: ") and fault in err
    assert err.count("\n") == 1


def test_readme_commands_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Command line\n.*?```\n(.*?)```", readme, re.S).group(1)
    commands = block.replace("\\\n", " ").splitlines()
    assert len(commands) == 7
    parser = build_parser()
    for line in commands:
        argv = shlex.split(line)
        assert argv[0] == "pkgm"
        args = parser.parse_args(argv[1:])  # an unknown flag exits
        assert args.command == argv[1]


def write_triples(path, rows):
    path.write_text("".join(f"{h}\t{r}\t{t}\n" for h, r, t in rows), encoding="utf-8")


@pytest.fixture
def kg_file(tmp_path):
    kg = synth.planted_kg(n_entities=30, powers=(1, 2), coverage=0.8,
                          n_categories=3, seed=0)
    path = tmp_path / "kg.tsv"
    write_triples(path, kg.triples)
    return path, kg


def test_flag_overrides_config_overrides_default(tmp_path, kg_file, capsys):
    path, _ = kg_file
    out = tmp_path / "ckpt"
    config = tmp_path / "c.json"
    config.write_text(
        json.dumps({"triples": str(path), "out": str(out), "dim": 8, "epochs": 0}),
        encoding="utf-8",
    )
    assert dispatch(["train", "--config", str(config), "--dim", "4"]) == 0
    header = json.loads((out / "header.json").read_text())
    assert header["dim"] == 4  # flag beat the config value
    report = json.loads((out / "train_report.json").read_text())
    assert report["epoch_losses"] == []  # config beat the default epochs=2
    assert report["schema_version"] == 1
    assert report["config"]["batch_size"] == 1000  # untouched default


def test_config_integers_are_accepted_as_floats(tmp_path, kg_file):
    path, _ = kg_file
    out = tmp_path / "ckpt"
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"triples": str(path), "out": str(out), "dim": 4,
                                  "epochs": 0, "lr": 1, "margin": 2}), encoding="utf-8")
    assert dispatch(["train", "--config", str(config)]) == 0
    report = json.loads((out / "train_report.json").read_text())["config"]
    assert report["learning_rate"] == 1.0 and type(report["learning_rate"]) is float
    assert report["margin"] == 2.0 and type(report["margin"]) is float


@pytest.mark.parametrize("flag,field", [("lr", "learning_rate"), ("margin", "margin")])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_train_rejects_non_finite_settings(tmp_path, kg_file, capsys, flag, field, value,
                                           source):
    path, _ = kg_file
    out = tmp_path / "ckpt"
    argv = ["train", "--triples", str(path), "--out", str(out), "--dim", "4", "--epochs", "1"]
    if source == "flag":
        argv.append(f"--{flag}={value}")  # "--lr -inf" would read -inf as a flag
    else:  # Python's JSON reader takes NaN, Infinity and -Infinity
        config = tmp_path / "c.json"
        config.write_text(json.dumps({flag: float(value)}), encoding="utf-8")
        argv += ["--config", str(config)]
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"pkgm: error: {field} must be positive and finite, got ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_recsys_rejects_non_finite_learning_rate(tmp_path, capsys, value):
    inter = tmp_path / "inter.tsv"
    inter.write_text("u\ti\t0\nu\tj\t1\nv\ti\t0\nv\tj\t1\n", encoding="utf-8")
    report = tmp_path / "r.json"
    assert dispatch(["recsys", "--interactions", str(inter), "--services", "none",
                     "--lr", value, "--report", str(report)]) == 1
    assert capsys.readouterr().err.startswith("pkgm: error: learning_rate must be positive")
    assert not report.exists()


def test_recsys_rejects_user_who_has_seen_every_item(tmp_path, capsys):
    # u1's held-out item would be ranked against no candidate at all
    inter = tmp_path / "inter.tsv"
    inter.write_text("u1\ti1\t0\nu1\ti2\t1\nu2\ti1\t0\nu2\ti2\t1\n", encoding="utf-8")
    report = tmp_path / "r.json"
    assert dispatch(["recsys", "--interactions", str(inter), "--services", "none",
                     "--epochs", "2", "--report", str(report)]) == 1
    err = capsys.readouterr().err
    assert err == "pkgm: error: user 'u1' has interacted with every item\n"
    assert not report.exists()


def test_recsys_rejects_user_who_has_seen_every_item_before_training(tmp_path, capsys,
                                                                      monkeypatch):
    data = Path(__file__).resolve().parents[1] / "data" / "interactions.tsv"
    text = data.read_text(encoding="utf-8")
    items = sorted({line.split("\t")[1] for line in text.splitlines()})
    inter = tmp_path / "inter.tsv"
    inter.write_text(text + "".join(f"every\t{item}\t{n}\n" for n, item in enumerate(items)),
                     encoding="utf-8")

    def train_recommender(*args):
        raise AssertionError("trained before the interactions were checked")

    monkeypatch.setattr(downstream, "train_recommender", train_recommender)
    report = tmp_path / "r.json"
    assert dispatch(["recsys", "--interactions", str(inter), "--services", "none",
                     "--report", str(report)]) == 1
    assert capsys.readouterr().err == "pkgm: error: user 'every' has interacted with every item\n"
    assert not report.exists()


def test_recsys_rejects_non_finite_service_vector_before_training(tmp_path, capsys,
                                                                  monkeypatch, ckpt_and_keyrels):
    ckpt, keyrels = ckpt_and_keyrels
    services = tmp_path / "services.bin"
    assert dispatch(["export-services", "--checkpoint", str(ckpt), "--keyrel", str(keyrels),
                     "--variant", "all", "--out", str(services)]) == 0
    bundle, (_, entity_vocab, _) = read_services(services), load_checkpoint(ckpt)
    raw = bytearray(services.read_bytes())
    start, size = raw.index(b"\n") + 1, 4 + bundle.block[0].nbytes  # uint32 id, float32 rows
    # NaN into the first float of e005's and e003's records; e003 comes
    # first in item id order, which follows first appearance below
    for token in ("e005", "e003"):
        at = start + size * int(np.flatnonzero(bundle.ids == entity_vocab.id(token))[0])
        raw[at + 4:at + 8] = np.float32(np.nan).tobytes()
    services.write_bytes(bytes(raw))
    inter = tmp_path / "inter.tsv"
    inter.write_text("".join(f"u{u}\te{(u + j) % 8:03d}\t{j}\n"
                             for u in range(6) for j in range(3)), encoding="utf-8")

    def train_recommender(*args):
        raise AssertionError("trained before the service vectors were checked")

    monkeypatch.setattr(downstream, "train_recommender", train_recommender)
    capsys.readouterr()
    report = tmp_path / "r.json"
    assert dispatch(["recsys", "--interactions", str(inter), "--services", str(services),
                     "--checkpoint", str(ckpt), "--report", str(report)]) == 1
    assert capsys.readouterr().err == "pkgm: error: item 'e003' has a non-finite service vector\n"
    assert not report.exists()


@pytest.mark.parametrize("raised", [None, ValueError, KeyError])
def test_dispatch_runs_on_one_blas_thread_and_restores_the_callers_count(monkeypatch, capsys,
                                                                          raised):
    threads = cli._openblas_threads()
    if threads is None:
        pytest.skip("numpy's BLAS has no scipy-openblas thread-count functions")
    get, put = threads
    seen = []

    def handler(settings):
        seen.append(get())
        if raised:
            raise raised("handler failed")
        return 0

    _, help_text, spec = cli.COMMANDS["eval-rel"]
    monkeypatch.setitem(cli.COMMANDS, "eval-rel", (handler, help_text, spec))
    argv = ["eval-rel", "--checkpoint", "c", "--pairs", "p", "--report", "r"]
    saved = get()
    put(2)
    try:
        if raised is KeyError:
            with pytest.raises(KeyError):
                dispatch(argv)
        else:
            assert dispatch(argv) == (1 if raised else 0)
        assert seen == [1]
        assert get() == 2
    finally:
        put(saved)
    if raised is ValueError:
        assert capsys.readouterr().err == "pkgm: error: handler failed\n"


def test_recsys_order_index_beyond_int64_is_named_error(tmp_path, capsys):
    inter = tmp_path / "inter.tsv"
    inter.write_text("u1\ti1\t0\nu1\ti1\t99999999999999999999999\n", encoding="utf-8")
    report = tmp_path / "r.json"
    assert dispatch(["recsys", "--interactions", str(inter), "--services", "none",
                     "--report", str(report)]) == 1
    assert capsys.readouterr().err == (f"pkgm: error: {inter}: line 2: order index "
                                       f"99999999999999999999999 is outside the int64 range\n")
    assert not report.exists()


def test_report_with_nan_is_named_error_and_not_written(tmp_path):
    report = tmp_path / "r.json"
    with pytest.raises(ValueError, match=re.escape(f"{report}: report holds a NaN")):
        cli._write_report(report, {"mrr": float("inf")})
    assert not report.exists()


def dispatch_without_warnings(argv) -> int:
    """dispatch(argv), asserting that numpy raised no RuntimeWarning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = dispatch(argv)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    return code


def test_recsys_diverging_loss_is_named_error(tmp_path, capsys):
    # a finite but huge step makes the loss NaN from the second epoch on
    data = Path(__file__).resolve().parents[1] / "data" / "interactions.tsv"
    report = tmp_path / "r.json"
    assert dispatch_without_warnings(
        ["recsys", "--interactions", str(data), "--services", "none", "--epochs", "3",
         "--lr", "1e12", "--report", str(report)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("pkgm: error: non-finite loss at epoch ")
    assert err.count("\n") == 1
    assert not report.exists()


def test_train_diverging_last_step_is_named_error(tmp_path, capsys):
    # every loss is finite; the last step's update overflows the tables
    data = Path(__file__).resolve().parents[1] / "data" / "planted_kg.tsv"
    out = tmp_path / "X"
    assert dispatch_without_warnings(["train", "--triples", str(data), "--out", str(out),
                                      "--lr", "1e30", "--epochs", "2"]) == 1
    err = capsys.readouterr().err
    assert err == "pkgm: error: non-finite parameters at epoch 1\n"
    assert not (out / "header.json").exists()


def fill_disk(monkeypatch):
    """Make Path.write_text write half of its text, then run out of space."""
    real = Path.write_text

    def write_text(path, text, **kwargs):
        real(path, text[:len(text) // 2], **kwargs)
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(Path, "write_text", write_text)


def test_failed_report_write_leaves_previous_report(tmp_path, kg_file, capsys, monkeypatch):
    path, _ = kg_file
    ckpt = tmp_path / "ckpt"
    assert dispatch(["train", "--triples", str(path), "--out", str(ckpt),
                     "--dim", "4", "--epochs", "0"]) == 0
    report = tmp_path / "lp.json"
    argv = ["eval-lp", "--checkpoint", str(ckpt), "--test", str(path), "--report", str(report)]
    assert dispatch(argv) == 0
    before = sorted(p.name for p in tmp_path.iterdir()), report.read_bytes()
    fill_disk(monkeypatch)
    assert dispatch(argv) == 1
    assert "No space left on device" in capsys.readouterr().err
    assert (sorted(p.name for p in tmp_path.iterdir()), report.read_bytes()) == before


def test_failed_keyrel_write_leaves_previous_file(tmp_path, kg_file, capsys, monkeypatch):
    path, _ = kg_file
    keyrels = tmp_path / "keyrels.tsv"
    argv = ["keyrel", "--triples", str(path), "--k", "2", "--out", str(keyrels)]
    assert dispatch(argv) == 0
    before = sorted(p.name for p in tmp_path.iterdir()), keyrels.read_bytes()
    fill_disk(monkeypatch)
    assert dispatch(argv[:-3] + ["1", "--out", str(keyrels)]) == 1
    assert "No space left on device" in capsys.readouterr().err
    assert (sorted(p.name for p in tmp_path.iterdir()), keyrels.read_bytes()) == before


def test_keyrel_rejects_kg_without_category_triples(tmp_path, capsys):
    path = tmp_path / "flat.tsv"
    write_triples(path, [("a", "r", "b"), ("b", "r", "c")])
    keyrels = tmp_path / "keyrels.tsv"
    assert dispatch(["keyrel", "--triples", str(path), "--k", "1", "--out", str(keyrels)]) == 1
    err = capsys.readouterr().err
    assert err == "pkgm: error: no triples under the category relation 'isA'\n"
    assert not keyrels.exists()


def test_keyrel_rejects_relation_token_with_comma(tmp_path, capsys):
    # the file separates relations with commas, so its own reader would
    # split "x,y" into the unknown tokens "x" and "y"
    path = tmp_path / "comma.tsv"
    write_triples(path, [("a", "isA", "c"), ("b", "isA", "c"), ("a", "x,y", "b"),
                         ("b", "x,y", "a"), ("a", "r", "b")])
    keyrels = tmp_path / "keyrels.tsv"
    assert dispatch(["keyrel", "--triples", str(path), "--k", "2", "--out", str(keyrels)]) == 1
    err = capsys.readouterr().err
    assert err == "pkgm: error: relation token 'x,y' contains ',', the key relation separator\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["comma.tsv"]


def test_min_rel_count_filters_relations(tmp_path, toy_rows):
    path = tmp_path / "toy.tsv"
    write_triples(path, toy_rows)
    out = tmp_path / "ckpt"
    code = dispatch(["train", "--triples", str(path), "--out", str(out),
                     "--dim", "4", "--epochs", "0", "--min-rel-count", "2"])
    assert code == 0
    _, _, relations = load_checkpoint(out)
    assert "tastes" not in relations
    assert "color" in relations and "isA" in relations


@pytest.mark.parametrize("value", ["0", "-3"])
def test_train_rejects_min_rel_count_below_one(tmp_path, kg_file, capsys, value):
    path, _ = kg_file
    out = tmp_path / "ckpt"
    assert dispatch(["train", "--triples", str(path), "--out", str(out), "--dim", "4",
                     "--epochs", "0", f"--min-rel-count={value}"]) == 1
    err = capsys.readouterr().err
    assert err == f"pkgm: error: min_rel_count must be >= 1, got {value}\n"
    assert not out.exists()


def test_full_pipeline(tmp_path, kg_file, capsys):
    path, kg = kg_file
    ckpt = tmp_path / "ckpt"
    code = dispatch(["train", "--triples", str(path), "--out", str(ckpt),
                     "--dim", "8", "--epochs", "2", "--batch", "32",
                     "--lr", "0.01"])
    assert code == 0
    assert "checkpoint written" in capsys.readouterr().out

    keyrels = tmp_path / "keyrels.tsv"
    assert dispatch(["keyrel", "--triples", str(path), "--k", "2",
                     "--out", str(keyrels)]) == 0
    assert len(keyrels.read_text().splitlines()) == 30

    services = tmp_path / "services.bin"
    assert dispatch(["export-services", "--checkpoint", str(ckpt),
                     "--keyrel", str(keyrels), "--variant", "all",
                     "--out", str(services)]) == 0
    bundle = read_services(services)
    assert (bundle.variant, bundle.k, bundle.dim) == ("all", 2, 8)
    assert len(bundle.ids) == 30

    test_file = tmp_path / "test.tsv"
    write_triples(test_file, kg.relation_triples[:10])
    lp_report = tmp_path / "lp.json"
    assert dispatch(["eval-lp", "--checkpoint", str(ckpt), "--test", str(test_file),
                     "--triples", str(path), "--report", str(lp_report)]) == 0
    lp = json.loads(lp_report.read_text())
    assert lp["schema_version"] == 1
    assert 0.0 <= lp["metrics"]["hit@10"] <= 1.0
    assert lp["sizes"]["n_test"] == 10

    pairs_file = tmp_path / "pairs.tsv"
    lines = []
    for h, r, t in kg.relation_triples[:6]:
        lines.append(f"{h}\t{r}\t1")
    for rel, covered in kg.covered.items():
        for e in kg.entity_tokens:
            if e not in covered and int(e[1:]) + int(rel[1:]) < 30:
                lines.append(f"{e}\t{rel}\t0")
    pairs_file.write_text("".join(f"{l}\n" for l in lines), encoding="utf-8")
    rel_report = tmp_path / "rel.json"
    assert dispatch(["eval-rel", "--checkpoint", str(ckpt), "--pairs", str(pairs_file),
                     "--report", str(rel_report)]) == 0
    rel = json.loads(rel_report.read_text())
    assert {"accuracy", "threshold", "separation_ratio"} <= set(rel["metrics"])

    inter_file = tmp_path / "inter.tsv"
    rows = []
    for u in range(6):
        for j in range(3):
            rows.append((f"u{u}", f"e{(u + j) % 8:03d}", j))
    inter_file.write_text("".join(f"{u}\t{i}\t{o}\n" for u, i, o in rows),
                          encoding="utf-8")
    rec_report = tmp_path / "rec.json"
    assert dispatch(["recsys", "--interactions", str(inter_file), "--services", "none",
                     "--report", str(rec_report), "--epochs", "2"]) == 0
    rec = json.loads(rec_report.read_text())
    assert rec["config"]["with_services"] is False
    assert len(rec["train_losses"]) == 2

    rec2_report = tmp_path / "rec2.json"
    assert dispatch(["recsys", "--interactions", str(inter_file),
                     "--services", str(services), "--checkpoint", str(ckpt),
                     "--report", str(rec2_report), "--epochs", "2"]) == 0
    rec2 = json.loads(rec2_report.read_text())
    assert rec2["config"]["with_services"] is True


def test_recsys_services_need_checkpoint(tmp_path, capsys):
    inter = tmp_path / "inter.tsv"
    inter.write_text("u\ti\t0\nu\tj\t1\n", encoding="utf-8")
    svc = tmp_path / "svc.bin"
    svc.write_bytes(b'{"variant": "all", "k": 1, "d": 2, "count": 0}\n')
    code = dispatch(["recsys", "--interactions", str(inter), "--services", str(svc),
                     "--report", str(tmp_path / "r.json")])
    assert code == 1
    assert "--checkpoint is required" in capsys.readouterr().err


def test_recsys_malformed_services_header_is_named_error(tmp_path, capsys):
    inter = tmp_path / "inter.tsv"
    inter.write_text("u\ti\t0\nu\tj\t1\n", encoding="utf-8")
    svc = tmp_path / "svc.bin"
    svc.write_bytes(b'{"variant": "all", "d": 2, "count": 0}\n')
    code = dispatch(["recsys", "--interactions", str(inter), "--services", str(svc),
                     "--checkpoint", str(tmp_path / "ckpt"), "--report", str(tmp_path / "r.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"pkgm: error: {svc}: header key 'k'")


def test_eval_rel_errors_name_path_and_line(tmp_path, kg_file, capsys):
    path, _ = kg_file
    ckpt = tmp_path / "ckpt"
    assert dispatch(["train", "--triples", str(path), "--out", str(ckpt),
                     "--dim", "4", "--epochs", "0"]) == 0
    pairs = tmp_path / "pairs.tsv"
    for body, message in [("e001\tr1\t1\n# c\nnosuch\tr1\t0\n",
                           "line 3: unknown entity token 'nosuch'"),
                          ("e001\tr1\tyes\n", "line 1: label must be 0 or 1, got 'yes'"),
                          ("e001\tr1\n", "line 1: expected 3 TAB-separated fields, got 2")]:
        pairs.write_text(body, encoding="utf-8")
        capsys.readouterr()
        assert dispatch(["eval-rel", "--checkpoint", str(ckpt), "--pairs", str(pairs),
                         "--report", str(tmp_path / "r.json")]) == 1
        assert f"pkgm: error: {pairs}: {message}" in capsys.readouterr().err


def test_eval_lp_rejects_unknown_tokens(tmp_path, kg_file, capsys):
    path, _ = kg_file
    ckpt = tmp_path / "ckpt"
    assert dispatch(["train", "--triples", str(path), "--out", str(ckpt),
                     "--dim", "4", "--epochs", "0"]) == 0
    test_file = tmp_path / "test.tsv"
    test_file.write_text("nosuch\tr1\te001\n", encoding="utf-8")
    code = dispatch(["eval-lp", "--checkpoint", str(ckpt), "--test", str(test_file),
                     "--report", str(tmp_path / "r.json")])
    assert code == 1
    assert f"{test_file}: line 1: unknown entity token 'nosuch'" in capsys.readouterr().err


@pytest.fixture
def ckpt_and_keyrels(tmp_path, kg_file):
    path, _ = kg_file
    ckpt = tmp_path / "ckpt"
    keyrels = tmp_path / "keyrels.tsv"
    assert dispatch(["train", "--triples", str(path), "--out", str(ckpt),
                     "--dim", "4", "--epochs", "0"]) == 0
    assert dispatch(["keyrel", "--triples", str(path), "--k", "2",
                     "--out", str(keyrels)]) == 0
    return ckpt, keyrels


def services_args(command, ckpt, keyrels, tmp_path):
    if command == "export-services":
        return ["export-services", "--checkpoint", str(ckpt), "--keyrel", str(keyrels),
                "--variant", "all", "--out", str(tmp_path / "services.bin")]
    return ["serve", "--checkpoint", str(ckpt), "--keyrel", str(keyrels), "--port", "0"]


@pytest.mark.parametrize("command", ["export-services", "serve"])
def test_unknown_keyrel_token_is_named_error(tmp_path, ckpt_and_keyrels, capsys, command):
    ckpt, keyrels = ckpt_and_keyrels
    lines = keyrels.read_text(encoding="utf-8").splitlines()
    entity, rels = lines[1].split("\t")
    lines[1] = f"{entity}\tnosuch,{rels.split(',')[1]}"
    keyrels.write_text("".join(f"{l}\n" for l in lines), encoding="utf-8")
    capsys.readouterr()
    assert dispatch(services_args(command, ckpt, keyrels, tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("pkgm: error: ")
    assert "line 2: unknown relation token 'nosuch'" in err


@pytest.mark.parametrize("port", ["65536", "99999", "-1"])
def test_serve_rejects_port_out_of_range(tmp_path, ckpt_and_keyrels, capsys, monkeypatch,
                                         port):
    ckpt, keyrels = ckpt_and_keyrels
    bound = []
    monkeypatch.setattr(servicing, "serve", lambda *args, **kwargs: bound.append(args))
    argv = services_args("serve", ckpt, keyrels, tmp_path)
    capsys.readouterr()
    assert dispatch(argv[:-2] + [f"--port={port}"]) == 1
    assert capsys.readouterr().err == f"pkgm: error: port must be in 0..65535, got {port}\n"
    assert not bound


def test_unknown_variant_is_named_error(tmp_path, ckpt_and_keyrels, capsys):
    ckpt, keyrels = ckpt_and_keyrels
    argv = services_args("export-services", ckpt, keyrels, tmp_path)
    argv[argv.index("all")] = "both"
    capsys.readouterr()
    assert dispatch(argv) == 1
    assert capsys.readouterr().err.startswith("pkgm: error: unknown variant 'both'")
    config = tmp_path / "c.json"
    config.write_text('{"variant": "both"}', encoding="utf-8")
    argv = services_args("export-services", ckpt, keyrels, tmp_path)
    del argv[argv.index("--variant"):argv.index("--variant") + 2]
    assert dispatch(argv + ["--config", str(config)]) == 1
    assert capsys.readouterr().err.startswith("pkgm: error: unknown variant 'both'")


def test_non_utf8_keyrel_file_is_named_error(tmp_path, ckpt_and_keyrels, capsys):
    ckpt, keyrels = ckpt_and_keyrels
    lines = keyrels.read_bytes().splitlines(keepends=True)
    lines[1] = lines[1].replace(b"\t", b"\t\xff", 1)
    keyrels.write_bytes(b"".join(lines))
    capsys.readouterr()
    assert dispatch(services_args("export-services", ckpt, keyrels, tmp_path)) == 1
    assert capsys.readouterr().err.startswith(f"pkgm: error: {keyrels}: line 2: ")


@pytest.mark.parametrize("command", ["export-services", "serve"])
def test_missing_checkpoint_header_key_is_named_error(tmp_path, ckpt_and_keyrels, capsys,
                                                      command):
    ckpt, keyrels = ckpt_and_keyrels
    header = json.loads((ckpt / "header.json").read_text())
    del header["n_entities"]
    (ckpt / "header.json").write_text(json.dumps(header))
    capsys.readouterr()
    assert dispatch(services_args(command, ckpt, keyrels, tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("pkgm: error: ")
    assert "missing header key 'n_entities'" in err


def set_header_key(ckpt, key, value):
    header = json.loads((ckpt / "header.json").read_text())
    *parents, last = key.split(".")
    table = header
    for name in parents:
        table = table[name]
    table[last] = value
    (ckpt / "header.json").write_text(json.dumps(header))


def drop_last_bytes(path, n):
    path.write_bytes(path.read_bytes()[:-n])


def set_last_entry(path, value):
    path.write_bytes(path.read_bytes()[:-4] + np.float32(value).tobytes())


@pytest.mark.parametrize("file_name, damage", [
    pytest.param("header.json", lambda c: set_header_key(c, "dim", "4"), id="dim-string"),
    pytest.param("header.json", lambda c: set_header_key(c, "dim", -4), id="dim-negative"),
    pytest.param("header.json", lambda c: set_header_key(c, "n_entities", None),
                 id="n_entities-null"),
    pytest.param("header.json", lambda c: set_header_key(c, "blobs.entity_emb", 5),
                 id="blob-name-int"),
    pytest.param("header.json", lambda c: set_header_key(c, "entity_vocab", None),
                 id="entity_vocab-null"),
    pytest.param("header.json", lambda c: (c / "header.json").write_text("{"), id="not-json"),
    pytest.param("header.json", lambda c: (c / "header.json").write_bytes(b'{"dim": "\xff"}'),
                 id="not-utf8"),
    pytest.param("entity_emb.f32", lambda c: drop_last_bytes(c / "entity_emb.f32", 4),
                 id="entity-blob-short"),
    pytest.param("transfer.f32", lambda c: drop_last_bytes(c / "transfer.f32", 2),
                 id="transfer-blob-short"),
    pytest.param("transfer.f32", lambda c: set_last_entry(c / "transfer.f32", np.inf),
                 id="transfer-blob-inf"),
    pytest.param("relation_emb.f32", lambda c: set_last_entry(c / "relation_emb.f32", np.nan),
                 id="relation-blob-nan"),
])
def test_damaged_checkpoint_is_named_error(tmp_path, ckpt_and_keyrels, capsys, file_name,
                                           damage):
    ckpt, keyrels = ckpt_and_keyrels
    damage(ckpt)
    capsys.readouterr()
    assert dispatch(services_args("export-services", ckpt, keyrels, tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"pkgm: error: {ckpt / file_name}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_eval_lp_on_nan_checkpoint_exits_with_named_error(tmp_path, ckpt_and_keyrels):
    # a NaN target would rank 0 and report hit@1 = 1.0 and "mrr": Infinity
    ckpt, _ = ckpt_and_keyrels
    blob = ckpt / "entity_emb.f32"
    blob.write_bytes(np.full(len(blob.read_bytes()) // 4, np.nan, dtype="<f4").tobytes())
    test = tmp_path / "test.tsv"
    test.write_text("e001\tr1\te002\n", encoding="utf-8")
    report = tmp_path / "lp.json"
    proc = subprocess.run(
        [sys.executable, "-m", "pkgm.cli", "eval-lp", "--checkpoint", str(ckpt),
         "--test", str(test), "--report", str(report)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr == f"pkgm: error: {blob}: holds a NaN or infinite entry\n"
    assert not report.exists()


def cap_address_space():
    # where the kernel overcommits, an oversized request could succeed lazily
    # and fill memory as it is written; under this cap it fails when made
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (min(hard, 4 << 30), hard))


def test_train_beyond_memory_exits_with_named_error(tmp_path):
    # at dim 2**38 the 2-entity table alone needs 4 TiB: no machine hands that out
    triples = tmp_path / "kg.tsv"
    triples.write_text("a\tr\tb\n", encoding="utf-8")
    out = tmp_path / "ckpt"
    proc = subprocess.run(
        [sys.executable, "-m", "pkgm.cli", "train", "--triples", str(triples), "--out", str(out),
         "--dim", str(2**38), "--epochs", "0"],
        capture_output=True, text=True, timeout=60, preexec_fn=cap_address_space)
    assert proc.returncode == 1
    assert proc.stderr.startswith("pkgm: error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert not out.exists()


def test_repeated_training_is_byte_identical(tmp_path, kg_file):
    path, _ = kg_file
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert dispatch(["train", "--triples", str(path), "--out", str(out),
                         "--dim", "8", "--epochs", "2", "--batch", "32",
                         "--seed", "11"]) == 0
        outs.append(out)
    for fname in ("entity_emb.f32", "relation_emb.f32", "transfer.f32",
                  "entities.tsv", "relations.tsv", "header.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes(), fname


def test_serve_subprocess_answers_queries(tmp_path, kg_file):
    path, _ = kg_file
    ckpt = tmp_path / "ckpt"
    keyrels = tmp_path / "keyrels.tsv"
    assert dispatch(["train", "--triples", str(path), "--out", str(ckpt),
                     "--dim", "4", "--epochs", "0"]) == 0
    assert dispatch(["keyrel", "--triples", str(path), "--k", "2",
                     "--out", str(keyrels)]) == 0

    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "pkgm.cli", "serve",
         "--checkpoint", str(ckpt), "--keyrel", str(keyrels), "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline().strip()
        assert line.startswith("serving on ")
        host, port = line.removeprefix("serving on ").rsplit(":", 1)

        deadline = time.monotonic() + 10
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            sock.sendall(b'{"op": "triple", "h": "e001", "r": "r1"}\n')
            buf = b""
            while not buf.endswith(b"\n") and time.monotonic() < deadline:
                buf += sock.recv(4096)
        resp = json.loads(buf)
        assert len(resp["vector"]) == 4
    finally:
        proc.terminate()
        proc.communicate(timeout=10)  # reaps the child and closes its pipes


def test_serve_sigint_with_open_connection_exits_quietly(tmp_path, ckpt_and_keyrels):
    ckpt, keyrels = ckpt_and_keyrels
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "pkgm.cli", "serve",
         "--checkpoint", str(ckpt), "--keyrel", str(keyrels), "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        # a pytest started with SIGINT ignored (a shell's background job) would
        # pass that on, and the server would never see the signal
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    try:
        line = proc.stdout.readline().strip()
        assert line.startswith("serving on ")
        host, port = line.removeprefix("serving on ").rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            sock.sendall(b'{"op": "triple", "h": "e001", "r": "r1"}\n')
            buf = b""
            while not buf.endswith(b"\n"):
                buf += sock.recv(4096)
            # the connection stays open, its handler waiting for the next line
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=10)
        assert proc.returncode == 0
        assert err == ""
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
