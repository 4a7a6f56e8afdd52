import contextlib
import io
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import mrfgcn
from mrfgcn import cli, data, selfcheck, training
from mrfgcn.checkpoint import load_checkpoint, save_checkpoint
from mrfgcn.cli import RunConfig, main
from mrfgcn.data import load_generic, planetoid_split, row_normalize_features
from mrfgcn.errors import ConfigError
from mrfgcn.factors import PairwiseParams
from mrfgcn.gcn import GcnParams, forward
from mrfgcn.graph import homophily_beta, normalized_adjacency_operator

from conftest import write_checkpoint_records, write_citation

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402


def _synth_dir(tmp_path, name="ds", target=0.85, nodes=120, seed=0, edges_per_node=3,
               classes=3):
    out = tmp_path / name
    code = main(["synth", "--out", str(out), "--nodes", str(nodes), "--classes", str(classes),
                 "--edges-per-node", str(edges_per_node), "--target", str(target),
                 "--feature-dim", "8", "--noise", "0.3", "--seed", str(seed)])
    assert code == 0
    return out


_FAST = ["--warm-epochs", "15", "--em-rounds", "1", "--m-epochs", "4",
         "--e-sweeps", "3", "--hidden", "8", "--split", "ratio"]


def test_synth_writes_loadable_dataset(tmp_path):
    out = _synth_dir(tmp_path, target=1.0)
    ds = load_generic(out)
    assert ds.graph.num_nodes == 120
    assert homophily_beta(ds.graph, ds.labels) == 1.0


def test_synth_byte_identical_for_same_seed(tmp_path):
    a = _synth_dir(tmp_path, "a", seed=5)
    b = _synth_dir(tmp_path, "b", seed=5)
    for name in ("edges.tsv", "features.tsv", "labels.tsv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    c = _synth_dir(tmp_path, "c", seed=6)
    assert (a / "edges.tsv").read_bytes() != (c / "edges.tsv").read_bytes()


def test_homophily_command(tmp_path, capsys):
    ds_dir = _synth_dir(tmp_path, target=1.0)
    capsys.readouterr()
    assert main(["homophily", "--dataset", str(ds_dir)]) == 0
    out = capsys.readouterr().out
    assert "nodes: 120" in out
    assert "homophily beta: 1.0000" in out


def test_homophily_on_an_edgeless_graph_prints_no_partial_report(tmp_path, capsys):
    ds_dir = _synth_dir(tmp_path, nodes=60, edges_per_node=0)
    capsys.readouterr()
    assert main(["homophily", "--dataset", str(ds_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "runtime failure: homophily is undefined on a graph with no edges"]


def test_train_happy_path_with_sweep(tmp_path):
    ds_dir = _synth_dir(tmp_path)
    out = tmp_path / "runs"
    code = main(["train", "--dataset", str(ds_dir), "--out", str(out),
                 "--seeds", "0,1", *_FAST, "--quiet"])
    assert code == 0
    assert (out / "report_seed0.txt").exists()
    assert (out / "report_seed1.txt").exists()
    assert (out / "checkpoint_seed0.bin").exists()
    agg = (out / "aggregate.tsv").read_text(encoding="utf-8")
    assert "mean\t" in agg and "stddev\t" in agg
    assert len([l for l in agg.splitlines() if l and not l.startswith(("seed", "mean", "stddev"))]) == 2


def test_train_effective_config_round_trips(tmp_path):
    ds_dir = _synth_dir(tmp_path)
    out = tmp_path / "runs"
    assert main(["train", "--dataset", str(ds_dir), "--out", str(out),
                 "--seeds", "3", *_FAST, "--quiet"]) == 0
    emitted = RunConfig.from_file(out / "effective_config.txt")
    assert emitted.dataset == str(ds_dir)
    assert emitted.seeds == (3,)
    assert emitted.warm_epochs == 15
    assert emitted.split == "ratio"
    # a second round trip through text is a fixed point
    assert RunConfig.from_text(emitted.to_text()) == emitted


@pytest.mark.parametrize("split_seed", [None, 7], ids=["unset", "set"])
def test_effective_config_re_reads_split_seed_set_or_unset(tmp_path, monkeypatch, split_seed):
    built, real_train = [], cli.cmd_train
    monkeypatch.setattr(cli, "cmd_train", lambda cfg: built.append(cfg) or real_train(cfg))
    ds_dir = _synth_dir(tmp_path)
    out = tmp_path / "runs"
    pin = [] if split_seed is None else ["--split-seed", str(split_seed)]
    assert main(["train", "--dataset", str(ds_dir), "--out", str(out), *_FAST,
                 "--em-rounds", "0", "--quiet", *pin]) == 0
    text = (out / "effective_config.txt").read_text(encoding="utf-8")
    assert f"split_seed = {'' if split_seed is None else split_seed}" in text.splitlines()
    assert RunConfig.from_text(text) == built[0]
    assert built[0].split_seed == split_seed


def test_split_seed_alone_pins_the_split_of_every_seed(tmp_path, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "cmd_train", lambda cfg: built.append(cfg) or 0)
    ds_dir = _synth_dir(tmp_path)
    counts = ["--per-class", "5", "--num-val", "20", "--num-test", "40"]
    for pin in (["--split-seed", "7"], []):
        assert main(["train", "--dataset", str(ds_dir), "--seeds", "0,1", *counts, *pin]) == 0
    pinned, per_seed = built
    ds = cli._load_prepared(pinned)

    def same(a, b):
        return all(np.array_equal(getattr(a, k), getattr(b, k)) for k in ("train", "val", "test"))

    drawn = planetoid_split(ds, 5, 20, 40, seed=7)
    assert all(same(split, drawn) for _, split in cli._checked_splits(ds, pinned))
    for seed, split in cli._checked_splits(ds, per_seed):
        assert same(split, planetoid_split(ds, 5, 20, 40, seed=seed))
        assert not same(split, drawn)


def test_train_missing_dataset_exits_one(tmp_path, capsys):
    code = main(["train", "--out", str(tmp_path / "x"), "--quiet"])
    assert code == 1
    assert "dataset" in capsys.readouterr().err


def test_unknown_flag_exits_one(tmp_path):
    assert main(["train", "--no-such-flag"]) == 1


def test_unknown_config_key_exits_one(tmp_path, capsys):
    cfg = tmp_path / "conf.txt"
    cfg.write_text("warm_epochs = 5\nwibble = 3\n", encoding="utf-8")
    assert main(["train", "--config", str(cfg)]) == 1
    assert "wibble" in capsys.readouterr().err


def test_config_key_set_twice_exits_one(tmp_path, capsys):
    cfg = tmp_path / "conf.txt"
    cfg.write_text("warm_epochs = 5\nem_rounds = 3\nem_rounds = 0\n", encoding="utf-8")
    out = tmp_path / "runs"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "config error: config line 3: em_rounds set again (first on line 2)"]
    assert not out.exists()


def test_removed_fixed_split_switch_and_key_exit_one(tmp_path, capsys):
    # `--split-seed N` alone pins the split, so neither spelling of the old switch is read
    assert main(["train", "--fixed-split"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "config error: unrecognized arguments: --fixed-split"]
    cfg = tmp_path / "conf.txt"
    cfg.write_text("resplit_per_seed = false\n", encoding="utf-8")
    assert main(["train", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "config error: config line 1: unknown key 'resplit_per_seed'"]


@pytest.mark.parametrize("fracs,message", [
    (["--train-frac", "0"], "split fractions must be positive, got (0.0, 0.2, 0.6)"),
    (["--train-frac", "0.5", "--val-frac", "0.5"], "split fractions sum to 1.6 > 1"),
])
def test_ratio_fractions_are_checked_before_the_dataset_is_read(tmp_path, capsys, fracs,
                                                                message):
    missing, out = tmp_path / "missing", tmp_path / "runs"
    assert main(["train", "--split", "ratio", *fracs, "--dataset", str(missing),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]
    assert not out.exists()
    # a planetoid run does not read the fractions, so it goes on to the missing dataset
    assert main(["train", *fracs, "--dataset", str(missing), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"config error: {missing}: not a dataset directory or .content file"]


@pytest.mark.parametrize("line,message", [
    ("hidden = abc", "config line 2: hidden expects an int, got 'abc'"),
    ("lr = fast", "config line 2: lr expects a float, got 'fast'"),
])
def test_non_numeric_config_value_exits_one(tmp_path, capsys, line, message):
    cfg = tmp_path / "conf.txt"
    cfg.write_text(f"warm_epochs = 5\n{line}\n", encoding="utf-8")
    assert main(["train", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert message in err


def test_config_file_with_flag_overrides(tmp_path):
    ds_dir = _synth_dir(tmp_path)
    cfg = tmp_path / "conf.txt"
    cfg.write_text(f"dataset = {ds_dir}\nwarm_epochs = 15\nem_rounds = 0\n"
                   "split = ratio\nhidden = 8\nm_epochs = 4\ne_sweeps = 3\n",
                   encoding="utf-8")
    out = tmp_path / "runs"
    assert main(["train", "--config", str(cfg), "--out", str(out),
                 "--seeds", "0", "--quiet"]) == 0
    emitted = RunConfig.from_file(out / "effective_config.txt")
    assert emitted.em_rounds == 0
    assert emitted.out == str(out)          # flag beat the config default


def _flag(name):
    """A run setting's flag: its name in kebab case, after `no-` when the flag turns off
    a setting that is on by default."""
    kebab = name.replace("_", "-")
    return f"--no-{kebab}" if getattr(RunConfig(), name) is True else f"--{kebab}"


# a valid and a malformed text for each string setting; a dataset or output
# path is read only when the command runs, so no text of one is malformed
_STRING_TEXTS = {"dataset": ("data/x", None), "out": ("runs/x", None),
                 "split": ("ratio", "bogus"), "coefficient_mode": ("layer", "bogus"),
                 "redistribution": ("center", "bogus")}
_STRING_ERRORS = {"split": "split must be one of ('planetoid', 'ratio', 'file'), got 'bogus'",
                  "coefficient_mode": "unknown coefficient mode 'bogus'",
                  "redistribution": "unknown redistribution scheme 'bogus'"}


def _setting_texts(f):
    """(valid text, malformed text, config line error, flag error) of a run setting.

    A value error is reported without a line number when the setting is
    checked as a whole rather than as text.
    """
    if f.type is str:
        valid, bad = _STRING_TEXTS[f.name]
        message = _STRING_ERRORS.get(f.name)
        return valid, bad, message, message
    if f.type is bool:
        message = f"bad boolean value 'maybe' for {f.name}"
        return (str(not f.default), "maybe", f"config line 1: {message}",
                f"argument {_flag(f.name)}: ignored explicit argument 'maybe'")
    if f.type is tuple:
        valid, bad, message = "1,2", "0,x", f"{f.name} expects comma-separated ints, got '0,x'"
    elif f.type == int | None:
        valid, bad, message = "5", "abc", f"{f.name} expects an int, got 'abc'"
    elif f.type is int:
        valid, bad, message = str(f.default + 1), "abc", f"{f.name} expects an int, got 'abc'"
    else:
        valid, bad, message = repr(f.default / 2), "fast", f"{f.name} expects a float, got 'fast'"
    return valid, bad, f"config line 1: {message}", message


@pytest.mark.parametrize("f", fields(RunConfig), ids=lambda f: f.name)
def test_every_setting_reads_the_same_from_a_flag_and_a_config_line(tmp_path, monkeypatch,
                                                                    capsys, f):
    built = []
    monkeypatch.setattr(cli, "cmd_train", lambda cfg: built.append(cfg) or 0)
    flag = _flag(f.name)
    valid, bad, line_error, flag_error = _setting_texts(f)
    config = tmp_path / "conf.txt"
    config.write_text(f"{f.name} = {valid}\n", encoding="utf-8")
    assert main(["train", "--config", str(config)]) == 0
    assert main(["train", flag if f.type is bool else f"{flag}={valid}"]) == 0
    from_line, from_flag = built
    assert from_flag == from_line
    assert [g.name for g in fields(RunConfig)
            if getattr(from_flag, g.name) != getattr(RunConfig(), g.name)] == [f.name]
    if bad is None:
        return
    capsys.readouterr()
    config.write_text(f"{f.name} = {bad}\n", encoding="utf-8")
    assert main(["train", "--config", str(config)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"config error: {line_error}"]
    assert main(["train", f"{flag}={bad}"]) == 1
    assert capsys.readouterr().err.splitlines() == [f"config error: {flag_error}"]
    assert len(built) == 2


def test_train_split_file_mode(tmp_path, capsys):
    ds_dir = _synth_dir(tmp_path)
    ds = load_generic(ds_dir)
    n = ds.graph.num_nodes
    lines = [f"{i}\ttrain" for i in range(20)]
    lines += [f"{i}\tval" for i in range(20, 50)]
    lines += [f"{i}\ttest" for i in range(50, n)]
    (ds_dir / "split.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "runs"
    code = main(["train", "--dataset", str(ds_dir), "--out", str(out),
                 "--seeds", "0", "--quiet", "--warm-epochs", "15",
                 "--em-rounds", "1", "--m-epochs", "4", "--e-sweeps", "3",
                 "--hidden", "8", "--split", "file"])
    assert code == 0

    # a negative seed is refused before seed 0 trains or any file is written
    negative = tmp_path / "negative"
    code = main(["train", "--dataset", str(ds_dir), "--out", str(negative),
                 "--seeds", "0,-1", "--quiet", "--split", "file"])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "config error: seeds must be non-negative, got -1"]
    assert not negative.exists()


@pytest.mark.parametrize("command", ["train", "ablate", "evaluate"])
def test_repeated_seed_is_refused_before_any_file(tmp_path, capsys, command):
    # each seed writes its own report and checkpoint, so a repeat would
    # overwrite one and count its accuracy twice in aggregate.tsv
    ds_dir = _synth_dir(tmp_path)
    out = tmp_path / "runs"
    extra = ["--checkpoint", str(out / "checkpoint_seed0.bin")] if command == "evaluate" else []
    capsys.readouterr()
    code = main([command, "--dataset", str(ds_dir), "--out", str(out),
                 "--seeds", "0,1,0", "--quiet", *extra])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "config error: seeds must be distinct, got 0 more than once"]
    assert not out.exists()


def test_evaluate_command(tmp_path, capsys):
    ds_dir = _synth_dir(tmp_path)
    out = tmp_path / "runs"
    assert main(["train", "--dataset", str(ds_dir), "--out", str(out),
                 "--seeds", "0", *_FAST, "--quiet"]) == 0
    capsys.readouterr()
    code = main(["evaluate", "--dataset", str(ds_dir), "--split", "ratio",
                 "--seeds", "0", "--checkpoint", str(out / "checkpoint_seed0.bin")])
    assert code == 0
    printed = capsys.readouterr().out
    assert "test accuracy:" in printed


def test_train_and_evaluate_never_hold_a_dense_adjacency(tmp_path):
    # A and X stay CSR from loading to scores: a dense n x n float64 A would
    # take n * n * 8 bytes (72 MB here), and each command peaks far below a
    # quarter of that
    n = 3000
    ds_dir = _synth_dir(tmp_path, nodes=n)
    out = tmp_path / "runs"
    commands = {
        "train": ["train", "--dataset", str(ds_dir), "--out", str(out), "--split", "ratio",
                  "--warm-epochs", "2", "--em-rounds", "1", "--m-epochs", "2", "--quiet"],
        "evaluate": ["evaluate", "--dataset", str(ds_dir), "--split", "ratio",
                     "--checkpoint", str(out / "checkpoint_seed0.bin")]}
    for name, argv in commands.items():
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4, (name, peak)


@pytest.mark.parametrize("edges_per_node", [5, 1], ids=["more_edges", "fewer_edges"])
def test_evaluate_edge_checkpoint_on_other_graph_exits_two(tmp_path, capsys, edges_per_node):
    ds_dir = _synth_dir(tmp_path)
    out = tmp_path / "runs"
    assert main(["train", "--dataset", str(ds_dir), "--out", str(out),
                 "--seeds", "0", *_FAST, "--coeff", "edge", "--quiet"]) == 0
    other = _synth_dir(tmp_path, "other", edges_per_node=edges_per_node)
    assert load_generic(other).graph.num_edges != load_generic(ds_dir).graph.num_edges
    capsys.readouterr()
    code = main(["evaluate", "--dataset", str(other), "--split", "ratio", "--seeds", "0",
                 "--checkpoint", str(out / "checkpoint_seed0.bin")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "edge coefficients" in captured.err


def test_evaluate_checkpoint_with_fewer_classes_exits_two(tmp_path, capsys):
    ds_dir = _synth_dir(tmp_path)
    out = tmp_path / "runs"
    assert main(["train", "--dataset", str(ds_dir), "--out", str(out),
                 "--seeds", "0", *_FAST, "--coeff", "layer", "--quiet"]) == 0
    other = _synth_dir(tmp_path, "other", classes=4)
    capsys.readouterr()
    code = main(["evaluate", "--dataset", str(other), "--split", "ratio", "--seeds", "0",
                 "--checkpoint", str(out / "checkpoint_seed0.bin")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"runtime failure: {out / 'checkpoint_seed0.bin'}: W1 has 3 classes but the "
        f"dataset has 4"]


@pytest.mark.parametrize("layout", ["generic", "citation"])
def test_dataset_file_without_data_rows_exits_two(tmp_path, capsys, layout):
    if layout == "generic":
        (tmp_path / "features.tsv").write_text("# no rows\n", encoding="utf-8")
        (tmp_path / "labels.tsv").write_text("", encoding="utf-8")
        empty = "features.tsv"
    else:
        write_citation(tmp_path, "tiny", [], [("a", "b")])
        empty = "tiny.content"
    for command in ("homophily", "train"):
        code = main([command, "--dataset", str(tmp_path), "--out", str(tmp_path / "runs"),
                     "--quiet"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert f"{empty}: no data rows" in captured.err


def _replace_line(path, line_no, text):
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[line_no - 1] = text
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_evaluate_non_finite_feature_value_exits_two(tmp_path, capsys):
    ds_dir = _synth_dir(tmp_path)
    out = tmp_path / "runs"
    assert main(["train", "--dataset", str(ds_dir), "--out", str(out),
                 "--seeds", "0", *_FAST, "--quiet"]) == 0
    features = ds_dir / "features.tsv"
    row = features.read_text(encoding="utf-8").splitlines()[5].split("\t")
    _replace_line(features, 6, "\t".join(["nan", *row[1:]]))
    capsys.readouterr()
    code = main(["evaluate", "--dataset", str(ds_dir), "--split", "ratio", "--seeds", "0",
                 "--checkpoint", str(out / "checkpoint_seed0.bin")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "features.tsv:6: non-finite feature value" in captured.err


@pytest.mark.parametrize("name, line_no, text",
                         [("edges.tsv", 3, "0 x"), ("labels.tsv", 2, "1.0"),
                          ("split.tsv", 4, "foo val")])
def test_non_integer_id_or_label_names_its_file_and_line(tmp_path, capsys, name, line_no, text):
    ds_dir = _synth_dir(tmp_path)
    split = [f"{i}\t{'train' if i < 30 else 'val' if i < 60 else 'test'}" for i in range(120)]
    (ds_dir / "split.tsv").write_text("\n".join(split) + "\n", encoding="utf-8")
    _replace_line(ds_dir / name, line_no, text)
    capsys.readouterr()
    code = main(["train", "--dataset", str(ds_dir), "--out", str(tmp_path / "runs"),
                 "--seeds", "0", *_FAST, "--split", "file", "--quiet"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert f"{name}:{line_no}: bad" in captured.err


def test_out_of_range_edge_endpoint_names_its_file_and_line(tmp_path, capsys):
    ds_dir = _synth_dir(tmp_path, nodes=40)
    _replace_line(ds_dir / "edges.tsv", 3, "0 999")
    capsys.readouterr()
    code = main(["train", "--dataset", str(ds_dir), "--out", str(tmp_path / "runs"),
                 "--seeds", "0", *_FAST, "--quiet"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"runtime failure: {ds_dir / 'edges.tsv'}:3: node id 999 out of range\n"


def test_evaluate_truncated_checkpoint_exits_two(tmp_path, capsys):
    ds_dir = _synth_dir(tmp_path)
    out = tmp_path / "runs"
    assert main(["train", "--dataset", str(ds_dir), "--out", str(out),
                 "--seeds", "0", *_FAST, "--quiet"]) == 0
    checkpoint = out / "checkpoint_seed0.bin"
    checkpoint.write_bytes(checkpoint.read_bytes()[:30])
    capsys.readouterr()
    code = main(["evaluate", "--dataset", str(ds_dir), "--split", "ratio", "--seeds", "0",
                 "--checkpoint", str(checkpoint)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "checkpoint truncated" in captured.err


@pytest.mark.parametrize("record, field, index, value",
                         [(2, "w1", (0, 0), float("nan")), (3, "raw", (0, 0), float("nan")),
                          (4, "alpha", (3,), float("inf"))], ids=["w1", "K", "alpha"])
def test_evaluate_non_finite_checkpoint_value_exits_two(tmp_path, capsys, recwarn,
                                                        record, field, index, value):
    ds_dir = _synth_dir(tmp_path, nodes=300, seed=1)
    out = tmp_path / "runs"
    assert main(["train", "--dataset", str(ds_dir), "--out", str(out), "--seeds", "0",
                 "--warm-epochs", "10", "--em-rounds", "1", "--m-epochs", "3",
                 "--split", "ratio", "--quiet"]) == 0
    checkpoint = out / "checkpoint_seed0.bin"
    params, pairwise = load_checkpoint(checkpoint)
    getattr(params if field == "w1" else pairwise, field)[index] = value
    save_checkpoint(checkpoint, params, pairwise)
    capsys.readouterr()
    code = main(["evaluate", "--dataset", str(ds_dir), "--split", "ratio", "--seeds", "0",
                 "--checkpoint", str(checkpoint)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert f"non-finite value in checkpoint record {record}" in captured.err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_evaluate_checkpoint_whose_scores_overflow_exits_two(tmp_path, capsys, recwarn):
    # every stored value is finite, but computing the scores overflows; that
    # stops the command at once, before the inf scores reach the proposal
    ds_dir = _synth_dir(tmp_path)
    out = tmp_path / "runs"
    assert main(["train", "--dataset", str(ds_dir), "--out", str(out),
                 "--seeds", "0", *_FAST, "--quiet"]) == 0
    checkpoint = out / "checkpoint_seed0.bin"
    params, pairwise = load_checkpoint(checkpoint)
    params.w0[...] = 1e200
    params.w1[...] = 1e200
    save_checkpoint(checkpoint, params, pairwise)
    capsys.readouterr()
    code = main(["evaluate", "--dataset", str(ds_dir), "--split", "ratio", "--seeds", "0",
                 "--checkpoint", str(checkpoint)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == ["runtime failure: overflow encountered in matmul"]
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("flag", ["--lr", "--alpha-init"])
def test_floating_point_overflow_in_train_is_one_runtime_failure_line(tmp_path, capsys,
                                                                     recwarn, flag):
    # both values are finite settings, but training overflows with them
    ds_dir = _synth_dir(tmp_path)
    code = main(["train", "--dataset", str(ds_dir), "--out", str(tmp_path / "runs"),
                 "--seeds", "0", *_FAST, flag, "1e300", "--quiet"])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("runtime failure: overflow encountered in ")
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_non_finite_objective_gradient_in_train_is_the_objectives_one_line(tmp_path, capsys,
                                                                           recwarn):
    # K starts at 0, so alpha 1e308 leaves every piece and the objective's
    # value finite, but its K gradient overflows; the M-step stops there
    # with the objective's message, before Adam takes the step
    ds_dir = _synth_dir(tmp_path)
    code = main(["train", "--dataset", str(ds_dir), "--out", str(tmp_path / "runs"),
                 "--seeds", "0", "--split", "ratio", "--warm-epochs", "2", "--em-rounds", "1",
                 "--m-epochs", "1", "--alpha-init", "1e308", "--quiet"])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "runtime failure: piecewise objective became non-finite (K gradient)"]
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("flag, value, name", [("--lr", "nan", "lr"),
                                               ("--alpha-init", "inf", "alpha_init")])
def test_train_non_finite_setting_exits_one(tmp_path, capsys, flag, value, name):
    ds_dir = _synth_dir(tmp_path)
    code = main(["train", "--dataset", str(ds_dir), "--out", str(tmp_path / "runs"),
                 "--seeds", "0", *_FAST, "--em-rounds", "0", flag, value, "--quiet"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.splitlines() == [f"config error: {name} must be finite, got {value}"]


@pytest.mark.parametrize("command", ["train", "ablate", "evaluate"])
def test_bad_setting_is_rejected_before_any_file_is_read_or_written(tmp_path, capsys,
                                                                    command):
    ds_dir = _synth_dir(tmp_path)
    out = tmp_path / "runs"
    checkpoint = ["--checkpoint", str(tmp_path / "none.bin")] if command == "evaluate" else []
    code = main([command, "--dataset", str(ds_dir), "--out", str(out), "--split", "ratio",
                 "--lr", "nan", *checkpoint, "--quiet"])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == ["config error: lr must be finite, got nan"]
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", ["train_frac", "val_frac", "test_frac"])
def test_non_finite_split_fraction_exits_one(tmp_path, capsys, key, value):
    ds_dir = _synth_dir(tmp_path)
    cfg = tmp_path / "conf.txt"
    cfg.write_text(f"split = ratio\n{key} = {value}\n", encoding="utf-8")
    out = tmp_path / "runs"
    code = main(["train", "--config", str(cfg), "--dataset", str(ds_dir), "--out", str(out),
                 *_FAST, "--quiet"])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"config error: {key} must be finite, got {value}"]
    assert not out.exists()


_FAST_PLANETOID = ["--warm-epochs", "3", "--em-rounds", "1", "--m-epochs", "2",
                   "--e-sweeps", "2", "--hidden", "4", "--split", "planetoid"]


@pytest.mark.parametrize("counts, key, value", [
    (["--per-class", "5", "--num-val", "-5", "--num-test", "10"], "num_val", -5),
    (["--per-class", "-1"], "per_class", -1),
    (["--per-class", "5", "--num-val", "5", "--num-test", "-2"], "num_test", -2),
])
def test_negative_split_count_exits_one(tmp_path, capsys, counts, key, value):
    ds_dir = _synth_dir(tmp_path)
    out = tmp_path / "runs"
    code = main(["train", "--dataset", str(ds_dir), "--out", str(out), *_FAST_PLANETOID,
                 *counts, "--quiet"])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"config error: {key} must be non-negative, got {value}"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("counts, name", [
    (["--per-class", "0", "--num-val", "5", "--num-test", "5"], "train"),
    (["--per-class", "5", "--num-val", "5", "--num-test", "0"], "test"),
], ids=["per_class_0", "num_test_0"])
def test_split_without_train_or_test_nodes_exits_one_before_writing(tmp_path, capsys,
                                                                    counts, name, command):
    ds_dir = _synth_dir(tmp_path)
    out = tmp_path / "runs"
    code = main([command, "--dataset", str(ds_dir), "--out", str(out), *_FAST_PLANETOID,
                 *counts, "--seeds", "2,3", "--quiet"])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"config error: seed 2: the split has no {name} nodes"]
    assert not out.exists()


def test_evaluate_split_without_validation_or_test_nodes_exits_one(tmp_path, capsys):
    ds_dir = _synth_dir(tmp_path)
    checkpoint = tmp_path / "model.bin"
    rng = np.random.default_rng(0)
    save_checkpoint(checkpoint, GcnParams(rng.normal(size=(8, 4)), rng.normal(size=(4, 3))),
                    PairwiseParams.init(3, 0, mode="none"))
    capsys.readouterr()
    code = main(["evaluate", "--dataset", str(ds_dir), "--split", "planetoid",
                 "--per-class", "5", "--num-val", "0", "--num-test", "0",
                 "--checkpoint", str(checkpoint)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "config error: seed 0: the split has no validation or test nodes"]


def test_evaluate_two_record_checkpoint_exits_two(tmp_path, capsys):
    # W0 and W1 alone are no model the program writes; a bare backbone is
    # the checkpoint of `train --em-rounds 0`
    ds_dir = _synth_dir(tmp_path)
    checkpoint = tmp_path / "backbone.bin"
    rng = np.random.default_rng(0)
    write_checkpoint_records(checkpoint, [rng.normal(size=(8, 4)), rng.normal(size=(4, 3))])
    capsys.readouterr()
    code = main(["evaluate", "--dataset", str(ds_dir), "--split", "ratio", "--seeds", "0",
                 "--checkpoint", str(checkpoint)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"runtime failure: {checkpoint}: unexpected record count 2"]


@pytest.mark.parametrize("raw, alpha, message", [
    ((3,), (0,), "K storage has shape (3,) but W1 has 3 classes"),
    ((3, 3), (2,), "none mode stores 0 alpha value(s), got shape (2,)"),
], ids=["k_vector", "none_with_alpha"])
def test_evaluate_checkpoint_whose_records_do_not_fit_exits_two(tmp_path, capsys, raw, alpha,
                                                                message):
    ds_dir = _synth_dir(tmp_path)
    checkpoint = tmp_path / "model.bin"
    rng = np.random.default_rng(0)
    write_checkpoint_records(checkpoint, [rng.normal(size=(8, 4)), rng.normal(size=(4, 3)),
                                          np.zeros(raw), np.ones(alpha), np.zeros(1)])
    capsys.readouterr()
    code = main(["evaluate", "--dataset", str(ds_dir), "--split", "ratio", "--seeds", "0",
                 "--checkpoint", str(checkpoint)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [f"runtime failure: {checkpoint}: {message}"]


# (W0 rows, W1 columns, edge coefficients) against a 4-class graph with 8
# features: a checkpoint with more classes than the dataset would otherwise
# evaluate to a wrong accuracy, and the others fail later without the file name
@pytest.mark.parametrize("w0_rows, classes, edges_off, message", [
    (8, 0, 0, "W1 has no columns, so no classes"),
    (8, 6, 0, "W1 has 6 classes but the dataset has 4"),
    (8, 3, 0, "W1 has 3 classes but the dataset has 4"),
    (7, 4, 0, "W0 has 7 rows but the dataset has 8 features"),
    (8, 4, -1, "{edges} edge coefficients but the graph has {graph_edges} edges"),
], ids=["no_classes", "more_classes", "fewer_classes", "w0_rows", "edge_count"])
def test_evaluate_checkpoint_that_does_not_fit_the_dataset_exits_two(
        tmp_path, capsys, w0_rows, classes, edges_off, message):
    ds_dir = _synth_dir(tmp_path, classes=4)
    graph_edges = load_generic(ds_dir).graph.num_edges
    edges = graph_edges + edges_off
    rng = np.random.default_rng(0)
    checkpoint = tmp_path / "model.bin"
    write_checkpoint_records(checkpoint, [
        rng.normal(size=(w0_rows, 5)), rng.normal(size=(5, classes)),
        rng.normal(size=(classes, classes)), np.ones(edges), np.full(1, 2.0)])
    capsys.readouterr()
    code = main(["evaluate", "--dataset", str(ds_dir), "--split", "ratio", "--seeds", "0",
                 "--checkpoint", str(checkpoint)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    message = message.format(edges=edges, graph_edges=graph_edges)
    assert captured.err.splitlines() == [f"runtime failure: {checkpoint}: {message}"]


# a checkpoint that fits the dataset (8 features, 2 classes) except for its
# hidden width, class count, mode code (none, layer, edge or unknown) and up
# to two records redrawn with a rank of 0 to 3 and small dims; 2-record
# files keep their first two records. The first example's 1-D K once failed
# while the E-step formatted its own shape error
_RECORD_SHAPES = st.lists(st.integers(0, 3), max_size=3).map(tuple)


@settings(max_examples=80)
@given(count=st.sampled_from((2, 5)), hidden=st.integers(0, 3), classes=st.integers(0, 3),
       mode_code=st.sampled_from((0.0, 1.0, 2.0, 7.0)),
       redrawn=st.dictionaries(st.integers(0, 4), _RECORD_SHAPES, max_size=2),
       seed=st.integers(0, 3))
@example(count=5, hidden=3, classes=2, mode_code=0.0, redrawn={2: (2,)}, seed=0)
@example(count=5, hidden=3, classes=2, mode_code=0.0, redrawn={3: (2,)}, seed=0)
def test_checkpoint_records_end_in_a_documented_exit_code(tmp_path_factory, count, hidden,
                                                          classes, mode_code, redrawn, seed):
    root = tmp_path_factory.getbasetemp() / "checkpoint_records"
    ds_dir = root / "ds"
    if not ds_dir.exists():
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["synth", "--out", str(ds_dir), "--nodes", "40", "--classes", "2",
                         "--edges-per-node", "2", "--feature-dim", "8", "--seed", "0"]) == 0
    num_alpha = {0.0: 0, 2.0: load_generic(ds_dir).graph.num_edges}.get(mode_code, 1)
    fitting = [(8, hidden), (hidden, classes), (classes, classes), (num_alpha,), (1,)]
    shapes = [redrawn.get(number, shape) for number, shape in enumerate(fitting[:count])]
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=shape) for shape in shapes]
    if count == 5:
        arrays[4] = np.full(shapes[4], mode_code)
    checkpoint = root / "model.bin"
    write_checkpoint_records(checkpoint, arrays)
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        code = main(["evaluate", "--dataset", str(ds_dir), "--split", "ratio", "--seeds", "0",
                     "--checkpoint", str(checkpoint)])
    assert code in (0, 2)
    assert len(stderr.getvalue().splitlines()) == (code != 0)


def test_train_and_evaluate_start_their_final_e_step_from_different_proposals(
        tmp_path, monkeypatch, capsys):
    # train's final E-step starts from the q its selected round was validated
    # on, evaluate's from softmax(scores). With no warm epochs the selected
    # checkpoint is always a round; whether the two starts reach different
    # fixed points depends on the draw, and is checked on a hand-built graph
    # in test_training.py
    ds_dir = tmp_path / "ds"
    assert main(["synth", "--out", str(ds_dir), "--nodes", "400", "--classes", "10",
                 "--edges-per-node", "10", "--target", "0.6", "--feature-dim", "64",
                 "--noise", "0.45", "--seed", "3"]) == 0
    split_flags = ["--seeds", "0", "--split", "planetoid", "--per-class", "10",
                   "--num-val", "100", "--num-test", "200"]
    starts, real = [], training._e_step_stats

    def recording(q, *args):
        starts.append(q)
        return real(q, *args)

    monkeypatch.setattr(training, "_e_step_stats", recording)
    out = tmp_path / "runs"
    assert main(["train", "--dataset", str(ds_dir), "--out", str(out), "--em-rounds", "3",
                 "--warm-epochs", "0", *split_flags, "--quiet"]) == 0
    checkpoint = out / "checkpoint_seed0.bin"
    capsys.readouterr()
    assert main(["evaluate", "--dataset", str(ds_dir), *split_flags,
                 "--checkpoint", str(checkpoint)]) == 0
    printed = capsys.readouterr().out.splitlines()
    report = (out / "report_seed0.txt").read_text(encoding="utf-8").splitlines()
    assert report[1] == "# best_phase round1"
    # E-step calls: one per round, train's final one, then evaluate's
    assert len(starts) == 5

    ds = row_normalize_features(load_generic(ds_dir))
    g, labels = ds.graph, ds.labels
    split = planetoid_split(ds, 10, 100, 200, seed=0)
    params, pp = load_checkpoint(checkpoint)
    scores, _ = forward(params, ds.features, normalized_adjacency_operator(g))
    unlabeled = np.setdiff1d(np.arange(g.num_nodes), split.train)
    cfg = training.TrainConfig()

    def accuracy_from(start):
        q, _, _ = real(start, scores, pp, g, labels, split.train,
                       training.final_sweep_cap(cfg.e_sweeps), cfg.e_tolerance)
        predictions = labels.copy()         # labeled nodes report their own label
        predictions[q.node_ids] = np.argmax(q.q, axis=1)
        return training.evaluate(predictions, labels, split.test)

    # round 1 was validated on the q its E-step returned
    validated = real(starts[0], scores, pp, g, labels, split.train, cfg.e_sweeps,
                     cfg.e_tolerance)[0]
    assert np.array_equal(starts[3].q, validated.q)
    softmax = training.Proposal.from_scores(scores, unlabeled, g.num_nodes)
    assert np.array_equal(starts[4].q, softmax.q)
    assert not np.array_equal(validated.q, softmax.q)
    assert report[2] == f"# test_accuracy {accuracy_from(validated)!r}"
    assert f"test accuracy: {accuracy_from(softmax):.4f}" in printed


# 8 features x 10**15 hidden units is 57 PiB, more than any address space
# holds, so numpy refuses the first weight matrix before allocating it
_REFUSED_HIDDEN = 10 ** 15


def test_allocation_numpy_refuses_is_a_runtime_failure(tmp_path, capsys):
    ds_dir = _synth_dir(tmp_path)
    code = main(["train", "--dataset", str(ds_dir), "--out", str(tmp_path / "runs"),
                 *_FAST_PLANETOID, "--per-class", "5", "--num-val", "5", "--num-test", "5",
                 "--hidden", str(_REFUSED_HIDDEN), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("runtime failure: Unable to allocate")


_INT_SETTINGS = ("per_class", "num_val", "num_test", "hidden", "warm_epochs", "m_epochs",
                 "e_sweeps", "em_rounds", "patience")


# every setting starts small and valid, then one to three are set to zero or
# below, and hidden may be one that numpy refuses; a huge epoch or round count
# would only run long, so only hidden is drawn that large
@settings(max_examples=50)
@given(values=st.fixed_dictionaries({name: st.integers(1, 4) for name in _INT_SETTINGS}),
       broken=st.dictionaries(st.sampled_from(_INT_SETTINGS), st.integers(-2, 0),
                              min_size=1, max_size=3),
       refused_hidden=st.booleans())
def test_integer_run_settings_end_in_a_documented_exit_code(tmp_path_factory, values, broken,
                                                            refused_hidden):
    # tmp_path_factory is session-scoped, so every example may share it
    root = tmp_path_factory.getbasetemp() / "int_settings"
    ds_dir = root / "ds"
    if not ds_dir.exists():
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["synth", "--out", str(ds_dir), "--nodes", "40", "--classes", "2",
                         "--edges-per-node", "2", "--feature-dim", "8", "--seed", "0"]) == 0
    values = {**values, **broken}
    if refused_hidden:
        values["hidden"] = _REFUSED_HIDDEN
    flags = [f"--{name.replace('_', '-')}={value}" for name, value in values.items()]
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        code = main(["train", "--dataset", str(ds_dir), "--out", str(root / "runs"),
                     "--split", "planetoid", *flags, "--quiet"])
    assert code in (0, 1, 2)
    assert len(stderr.getvalue().splitlines()) <= 1
    assert "Traceback" not in stderr.getvalue()


_FLOAT_SETTINGS = ("lr", "weight_decay", "e_tolerance", "alpha_init", "dropout_keep",
                   "train_frac", "val_frac", "test_frac")
_BAD_FLOATS = ("nan", "inf", "-inf", "0", "-1", "1e-300", "1e300", "abc")
_STRING_SETTINGS = {"split": ("planetoid", "ratio", "file"),
                    "coefficient_mode": ("edge", "layer", "none"),
                    "redistribution": ("average", "center")}


# a short valid run, then one or two settings changed: a float setting to an
# extreme or malformed value, or a string setting to a valid, empty or unknown
# one; each change arrives as a config line or as a flag, drawn per change.
# More than two changes at once would mostly stop at the first config error
_SETTING_CHANGES = ([(name, value) for name in _FLOAT_SETTINGS for value in _BAD_FLOATS]
                    + [(name, value) for name, valid in _STRING_SETTINGS.items()
                       for value in (*valid, "", "bogus")])


@settings(max_examples=60)
@given(changes=st.lists(st.tuples(st.sampled_from(_SETTING_CHANGES), st.booleans()),
                        min_size=1, max_size=2))
def test_float_and_string_settings_end_in_a_documented_exit_code(tmp_path_factory, changes):
    root = tmp_path_factory.getbasetemp() / "float_settings"
    ds_dir = root / "ds"
    if not ds_dir.exists():
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["synth", "--out", str(ds_dir), "--nodes", "40", "--classes", "2",
                         "--edges-per-node", "2", "--feature-dim", "8", "--seed", "0"]) == 0
    settings_text = {"warm_epochs": "3", "em_rounds": "1", "m_epochs": "2", "e_sweeps": "2",
                     "hidden": "4", "per_class": "5", "num_val": "5", "num_test": "5",
                     **{name: value for (name, value), as_flag in changes if not as_flag}}
    flags = [f"{_flag(name)}={value}" for (name, value), as_flag in changes
             if as_flag]
    config = root / "conf.txt"
    config.write_text("".join(f"{k} = {v}\n" for k, v in settings_text.items()),
                      encoding="utf-8")
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = main(["train", "--config", str(config), "--dataset", str(ds_dir),
                     "--out", str(root / "runs"), *flags, "--quiet"])
    assert code in (0, 1, 2)
    assert len(stderr.getvalue().splitlines()) <= 1
    assert "Traceback" not in stderr.getvalue()
    assert "Warning" not in stderr.getvalue()
    assert not caught, [str(w.message) for w in caught]


_SPLIT_SETS = ("train", "val", "test")
_SPLIT_NODES = 40
# a node id: mostly in range, otherwise out of range, negative, huge, not an
# integer, or an integer only Python reads
_SPLIT_IDS = st.one_of(
    st.integers(0, _SPLIT_NODES - 1).map(str),
    st.sampled_from(["40", "-1", "-0", "+3", "007", "9" * 25, "9223372036854775808",
                     "1.0", "1e1", "0x1", "abc", "1_0", "١٢"]))
_SPLIT_LINES = st.one_of(
    st.tuples(_SPLIT_IDS, st.sampled_from(_SPLIT_SETS)).map("\t".join),
    st.tuples(_SPLIT_IDS, st.sampled_from(("TRAIN", "validation", "x"))).map("\t".join),
    st.tuples(_SPLIT_IDS, st.sampled_from(_SPLIT_SETS), st.sampled_from(("1", "train")))
    .map("\t".join),
    _SPLIT_IDS,
    st.sampled_from(["", "   ", "# comment", "  # 3 train"]))


@st.composite
def _split_files(draw):
    """Rows assigning some nodes to one set each; up to two of those nodes
    listed again, and up to three lines added, anywhere."""
    sets = draw(st.lists(st.sampled_from((None, *_SPLIT_SETS)),
                         min_size=_SPLIT_NODES, max_size=_SPLIT_NODES))
    lines = [f"{node}\t{name}" for node, name in enumerate(sets) if name]
    for _ in range(draw(st.integers(0, 2)) if lines else 0):
        node = draw(st.sampled_from(lines)).split()[0]
        lines.insert(draw(st.integers(0, len(lines))),
                     f"{node}\t{draw(st.sampled_from(_SPLIT_SETS))}")
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_SPLIT_LINES))
    return lines


def _int_error(text, what, upper):
    """The reader's message start for an integer token, or None when it reads.

    An integer is an optional sign and ASCII digits that fit in int64, and
    lies in [0, upper).
    """
    if not re.fullmatch(r"[+-]?[0-9]+", text) or not -2**63 <= int(text) < 2**63:
        return f"bad {what} ("
    if not 0 <= int(text) < upper:
        return f"{what} {int(text)} out of range"
    return None


def _first_split_error(lines):
    """(line number, message start) of the first bad row of a split file, or None.

    An id is read as edges.tsv reads one. A node listed again is reported
    only once every row has read.
    """
    listings = {}
    for line_no, line in enumerate(lines, start=1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != 2 or parts[1] not in _SPLIT_SETS:
            return line_no, "expected `node_id train|val|test`"
        error = _int_error(parts[0], "node id", _SPLIT_NODES)
        if error:
            return line_no, error
        listings.setdefault(int(parts[0]), []).append(line_no)
    repeats = [(at[1], node, at[0]) for node, at in listings.items() if len(at) > 1]
    if repeats:
        line_no, node, first = min(repeats)
        return line_no, f"node {node} listed again (first on line {first})\n"
    return None


@settings(max_examples=60)
@given(lines=_split_files())
@example(lines=["0\ttrain", "1\ttest", "1_0\ttest"])
@example(lines=["0\ttrain", "١٢\tval", "1\ttest"])
@example(lines=["0\ttrain", "1\ttest", "0\tval"])
@example(lines=["0\ttrain", "1\ttest", "+1\ttest", "1\tval"])
def test_split_files_end_in_a_documented_exit_code(tmp_path_factory, lines):
    root = tmp_path_factory.getbasetemp() / "split_files"
    ds_dir = root / "ds"
    if not ds_dir.exists():
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["synth", "--out", str(ds_dir), "--nodes", str(_SPLIT_NODES),
                         "--classes", "2", "--edges-per-node", "2", "--feature-dim", "8",
                         "--seed", "0"]) == 0
    path = ds_dir / "split.tsv"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    expected = _first_split_error(lines)
    # the default block size reads the file in one block; 5 values cut it into
    # blocks of 5 rows, so a bad row can fall before, in or after any block
    for block_values in (data._BLOCK_VALUES, 5):
        stderr = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                mock.patch.object(data, "_BLOCK_VALUES", block_values), \
                contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = main(["train", "--split", "file", "--dataset", str(ds_dir),
                         "--out", str(root / "runs"), "--warm-epochs", "3", "--em-rounds", "1",
                         "--m-epochs", "2", "--e-sweeps", "2", "--hidden", "4", "--quiet"])
        err = stderr.getvalue()
        assert code in (0, 1, 2)
        assert len(err.splitlines()) == (code != 0)
        assert "Traceback" not in err and "Warning" not in err
        assert not caught, [str(w.message) for w in caught]
        if expected is None:
            assert code in (0, 1)
        else:
            line_no, message = expected
            assert code == 2
            assert err.startswith(f"runtime failure: {path}:{line_no}: {message}")


_LABEL_NODES = 40
_BAD_LABELS = ("-1", "-12", "1.0", "1e1", "x", "0x1", "1_0", "٣", "9" * 25, "1 2")


@st.composite
def _labels_files(draw):
    """One label of 0-2 per node; up to two rows spoilt, and up to two dropped
    or added, anywhere, with blank and comment lines between."""
    lines = draw(st.lists(st.integers(0, 2).map(str), min_size=_LABEL_NODES,
                          max_size=_LABEL_NODES))
    for _ in range(draw(st.integers(0, 2))):
        lines[draw(st.integers(0, len(lines) - 1))] = draw(st.sampled_from(_BAD_LABELS))
    for _ in range(draw(st.integers(0, 2))):
        del lines[draw(st.integers(0, len(lines) - 1))]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["0", "2", "", "# 1", *_BAD_LABELS])))
    return lines


def _first_labels_error(lines):
    """(line number or None, message start) of a labels.tsv's error, or None."""
    rows = 0
    for line_no, line in enumerate(lines, start=1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        error = ("expected one label per row" if len(parts) != 1
                 else _int_error(parts[0], "label", 2**63))
        if error:
            return line_no, error
        rows += 1
    if rows != _LABEL_NODES:
        return None, f"{rows} label rows for {_LABEL_NODES} feature rows\n"
    return None


@settings(max_examples=60)
@given(lines=_labels_files())
@example(lines=["0", "-1", "1"] + ["0"] * (_LABEL_NODES - 3))
@example(lines=["0", "1"])
@example(lines=[])
def test_labels_files_end_in_a_documented_exit_code(tmp_path_factory, lines):
    root = tmp_path_factory.getbasetemp() / "labels_files"
    ds_dir = root / "ds"
    if not ds_dir.exists():
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["synth", "--out", str(ds_dir), "--nodes", str(_LABEL_NODES),
                         "--classes", "3", "--edges-per-node", "2", "--feature-dim", "8",
                         "--seed", "0"]) == 0
    path = ds_dir / "labels.tsv"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    expected = _first_labels_error(lines)
    for block_values in (data._BLOCK_VALUES, 5):
        stderr = io.StringIO()
        with mock.patch.object(data, "_BLOCK_VALUES", block_values), \
                contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = main(["homophily", "--dataset", str(ds_dir)])
        err = stderr.getvalue()
        if expected is None:
            assert (code, err) == (0, "")
            continue
        line_no, message = expected
        where = path if line_no is None else f"{path}:{line_no}"
        assert code == 2
        assert len(err.splitlines()) == 1
        assert err.startswith(f"runtime failure: {where}: {message}")


@pytest.mark.parametrize("e_sweeps, cap", [(80, 80), (3, 50)])
def test_evaluate_runs_the_e_step_with_the_run_settings(tmp_path, monkeypatch, e_sweeps, cap):
    # the cap is the one train's final E-step uses: max(50, e_sweeps)
    ds_dir = _synth_dir(tmp_path)
    out = tmp_path / "runs"
    assert main(["train", "--dataset", str(ds_dir), "--out", str(out),
                 "--seeds", "0", *_FAST, "--quiet"]) == 0
    cfg = tmp_path / "conf.txt"
    cfg.write_text("e_tolerance = 1e-06\n", encoding="utf-8")
    received, real = [], training._e_step_stats

    def recording(q, scores, pp, g, labels, train_ids, sweeps, tolerance):
        received.append((sweeps, tolerance))
        return real(q, scores, pp, g, labels, train_ids, sweeps, tolerance)

    monkeypatch.setattr(training, "_e_step_stats", recording)
    assert main(["evaluate", "--config", str(cfg), "--dataset", str(ds_dir),
                 "--split", "ratio", "--seeds", "0", "--e-sweeps", str(e_sweeps),
                 "--checkpoint", str(out / "checkpoint_seed0.bin")]) == 0
    assert received == [(cap, 1e-6)]


def test_ablate_grid_shape(tmp_path, monkeypatch):
    ds_dir = _synth_dir(tmp_path, nodes=90)
    out = tmp_path / "ablation"
    drawn, real = [], cli._make_split

    def recording(ds, cfg, seed):
        drawn.append(seed)
        return real(ds, cfg, seed)

    monkeypatch.setattr(cli, "_make_split", recording)
    code = main(["ablate", "--dataset", str(ds_dir), "--out", str(out),
                 "--seeds", "0,1", "--warm-epochs", "10", "--em-rounds", "1",
                 "--m-epochs", "3", "--e-sweeps", "2", "--hidden", "6",
                 "--split", "ratio", "--quiet"])
    assert code == 0
    assert drawn == [0, 1]          # each seed's split serves all six cells
    lines = (out / "ablation.tsv").read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 1 + 6      # header + {none,layer,edge} x {average,center}
    combos = {tuple(l.split("\t")[:2]) for l in lines[1:]}
    assert combos == {(m, s) for m in ("none", "layer", "edge")
                      for s in ("average", "center")}
    for line in lines[1:]:
        _, _, mean, stddev, per_seed = line.split("\t")
        float(mean), float(stddev)  # plain numbers, not numpy reprs
        assert len(per_seed.split(",")) == 2


def test_oracle_check_passes(capsys):
    assert main(["oracle-check", "--sizes", "4,5", "--trials", "4"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_oracle_check_passes_with_a_pre_activation_near_the_relu_kink(capsys):
    # seed 502 draws a 9-node instance with a hidden pre-activation of 2.8e-6,
    # inside the reach of a w0 step; its weights are drawn again
    assert main(["oracle-check", "--sizes", "2,3,4,5,6,7,8,9,10", "--trials", "50",
                 "--classes", "2", "--seed", "502"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_oracle_check_detects_injected_bug(capsys, monkeypatch):
    real = selfcheck.objective_and_gradients

    def wrong_score_gradient(*args, **kwargs):
        value, g_scores, g_raw, g_alpha = real(*args, **kwargs)
        g_scores = g_scores.copy()
        g_scores[0, 0] += 1e-3
        return value, g_scores, g_raw, g_alpha

    monkeypatch.setattr(selfcheck, "objective_and_gradients", wrong_score_gradient)
    assert main(["oracle-check", "--sizes", "4,5", "--trials", "2"]) == 3
    scores_line, = [l for l in capsys.readouterr().out.splitlines()
                    if "finite differences (scores)" in l]
    assert scores_line.endswith("FAIL")


def test_oracle_check_refuses_oversized(capsys):
    assert main(["oracle-check", "--sizes", "40", "--trials", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "refused: 3^40 assignments exceed the enumeration limit 1048576"]


def test_oracle_check_refuses_a_huge_size_at_once():
    # the limit check stops multiplying once the count passes the limit;
    # 3 ** size as an exact integer would not finish
    done = _python("-m", "mrfgcn", "oracle-check", "--sizes", "9" * 20, "--trials", "1",
                   timeout=30)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith(f"refused: 3^{'9' * 20} assignments exceed")


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(split="bogus")
    with pytest.raises(ConfigError):
        RunConfig(seeds=())
    with pytest.raises(ConfigError, match="seeds must be non-negative, got -1"):
        RunConfig(seeds=(0, -1))
    with pytest.raises(ConfigError, match="split_seed must be non-negative, got -2"):
        RunConfig(split_seed=-2)


@pytest.mark.parametrize("args,flag", [
    (["oracle-check", "--classes", "0"], "--classes"),
    (["oracle-check", "--classes", "1"], "--classes"),
    (["oracle-check", "--trials", "0"], "--trials"),
    (["oracle-check", "--sizes", "4,0"], "--sizes"),
    (["oracle-check", "--sizes", "-2"], "--sizes"),
    (["oracle-check", "--sizes", ","], "--sizes"),
    (["oracle-check", "--sizes", "4,x"], "--sizes"),
    (["synth", "--nodes", "0"], "--nodes"),
    (["synth", "--classes", "0"], "--classes"),
    (["synth", "--edges-per-node", "-1"], "--edges-per-node"),
    (["oracle-check", "--seed", "-1"], "--seed"),
    (["oracle-check", "--max-configs", "-5"], "--max-configs"),
    (["oracle-check", "--max-configs", "0"], "--max-configs"),
    (["synth", "--seed", "-1"], "--seed"),
])
def test_out_of_range_counts_exit_one(tmp_path, capsys, args, flag):
    if args[0] == "synth":
        args = [*args, "--out", str(tmp_path / "ds")]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert flag in captured.err
    assert not (tmp_path / "ds").exists()


def _python(*args, timeout=60):
    """This interpreter, run with the package's source directory on PYTHONPATH."""
    src = str(Path(mrfgcn.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=timeout, env=env)


def test_python_dash_m_runs_the_cli():
    done = _python("-m", "mrfgcn", "--help")
    assert done.returncode == 0
    assert "oracle-check" in done.stdout
    done = _python("-m", "mrfgcn", "train", "--help")
    assert done.returncode == 0
    for flag in ("--weight-decay", "--dropout-keep", "--e-tolerance", "--split-seed",
                 "--coefficient-mode", "--quiet", "--no-row-normalize"):
        assert flag in done.stdout


def test_train_and_evaluate_never_load_scipy_special(tmp_path):
    # only the enumeration oracle calls scipy.special, which costs about 6 MB
    # of resident memory; it is loaded when an oracle function first runs
    script = f"""
import sys
import numpy as np
import mrfgcn, mrfgcn.cli
print("scipy.special" in sys.modules)
from mrfgcn.cli import main
ds, out = {str(tmp_path / "ds")!r}, {str(tmp_path / "runs")!r}
assert main(["synth", "--out", ds, "--nodes", "60", "--feature-dim", "8"]) == 0
assert main(["train", "--dataset", ds, "--out", out, "--split", "ratio", "--warm-epochs", "3",
             "--em-rounds", "1", "--m-epochs", "2", "--e-sweeps", "2", "--quiet"]) == 0
assert main(["evaluate", "--dataset", ds, "--split", "ratio",
             "--checkpoint", out + "/checkpoint_seed0.bin"]) == 0
print("scipy.special" in sys.modules)
mrfgcn.exact_log_partition(mrfgcn.build_graph(1, []), np.zeros((1, 2)),
                           mrfgcn.PairwiseParams.init(2, 0))
print("scipy.special" in sys.modules)
"""
    done = _python("-c", script)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [lines[0], lines[-2], lines[-1]] == ["False", "False", "True"]
