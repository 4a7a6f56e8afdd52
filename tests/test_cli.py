import contextlib
import io
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import mrfgcn
from mrfgcn import cli, selfcheck, training
from mrfgcn.checkpoint import load_checkpoint, save_checkpoint
from mrfgcn.cli import RunConfig, main
from mrfgcn.data import load_generic, planetoid_split, ratio_split, row_normalize_features
from mrfgcn.errors import ConfigError
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


def test_train_split_file_mode(tmp_path):
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
    assert len(captured.err.splitlines()) == 1
    assert "class 3" in captured.err


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


def _random_backbone_checkpoint(path):
    """A backbone-only checkpoint for `_synth_dir`'s 8 features and 3 classes."""
    rng = np.random.default_rng(0)
    params = GcnParams(rng.normal(size=(8, 4)), rng.normal(size=(4, 3)))
    write_checkpoint_records(path, [params.w0, params.w1])
    return params


def test_evaluate_split_without_validation_or_test_nodes_exits_one(tmp_path, capsys):
    ds_dir = _synth_dir(tmp_path)
    checkpoint = tmp_path / "backbone.bin"
    _random_backbone_checkpoint(checkpoint)
    capsys.readouterr()
    code = main(["evaluate", "--dataset", str(ds_dir), "--split", "planetoid",
                 "--per-class", "5", "--num-val", "0", "--num-test", "0",
                 "--checkpoint", str(checkpoint)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "config error: seed 0: the split has no validation or test nodes"]


def test_evaluate_backbone_only_checkpoint_reports_the_backbone_argmax(tmp_path, capsys):
    # a 2-record checkpoint has K = 0, so the E-step keeps softmax(scores)
    ds_dir = _synth_dir(tmp_path)
    checkpoint = tmp_path / "backbone.bin"
    params = _random_backbone_checkpoint(checkpoint)
    assert main(["evaluate", "--dataset", str(ds_dir), "--split", "ratio", "--seeds", "0",
                 "--checkpoint", str(checkpoint)]) == 0
    ds = row_normalize_features(load_generic(ds_dir))
    scores, _ = forward(params, ds.features, normalized_adjacency_operator(ds.graph))
    test = ratio_split(ds, 0.2, 0.2, 0.6, seed=0).test
    accuracy = np.mean(np.argmax(scores[test], axis=1) == ds.labels[test])
    assert f"test accuracy: {accuracy:.4f}" in capsys.readouterr().out.splitlines()


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


# a checkpoint that fits the dataset (8 features, 2 classes) except for its
# hidden width, class count, mode code (none, layer, edge or unknown) and up
# to two records redrawn with a rank of 0 to 3 and small dims; backbone-only
# files keep their first two records. The first example's 1-D K once failed
# while the E-step formatted its own shape error
_RECORD_SHAPES = st.lists(st.integers(0, 3), max_size=3).map(tuple)


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
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
    # on, evaluate's from softmax(scores). On this dense draw the K that EM
    # learns is strong enough that the two reach different fixed points, so
    # one checkpoint reports two test accuracies
    ds_dir = tmp_path / "ds"
    assert main(["synth", "--out", str(ds_dir), "--nodes", "400", "--classes", "10",
                 "--edges-per-node", "10", "--target", "0.6", "--feature-dim", "64",
                 "--noise", "0.45", "--seed", "3"]) == 0
    split_flags = ["--seeds", "0", "--split", "planetoid", "--per-class", "10",
                   "--num-val", "100", "--num-test", "200"]
    starts, real = [], training._e_step_stats

    def recording(q, *args):
        starts.append(q.copy())
        return real(q, *args)

    monkeypatch.setattr(training, "_e_step_stats", recording)
    out = tmp_path / "runs"
    assert main(["train", "--dataset", str(ds_dir), "--out", str(out), "--em-rounds", "3",
                 *split_flags, "--quiet"]) == 0
    checkpoint = out / "checkpoint_seed0.bin"
    capsys.readouterr()
    assert main(["evaluate", "--dataset", str(ds_dir), *split_flags,
                 "--checkpoint", str(checkpoint)]) == 0
    printed = capsys.readouterr().out.splitlines()
    report = (out / "report_seed0.txt").read_text(encoding="utf-8").splitlines()
    assert report[1] == "# best_phase round3"
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
                       max(training.FINAL_E_SWEEPS, cfg.e_sweeps), cfg.e_tolerance)
        predictions = labels.copy()         # labeled nodes report their own label
        predictions[q.node_ids] = np.argmax(q.q, axis=1)
        return training.evaluate(predictions, labels, split.test)

    # round 3 was validated on the q its E-step returned
    validated = real(starts[2], scores, pp, g, labels, split.train, cfg.e_sweeps,
                     cfg.e_tolerance)[0]
    assert np.array_equal(starts[3].q, validated.q)
    softmax = training.Proposal.from_scores(scores, unlabeled, g.num_nodes)
    assert np.array_equal(starts[4].q, softmax.q)
    train_accuracy, evaluate_accuracy = accuracy_from(validated), accuracy_from(softmax)
    assert report[2] == f"# test_accuracy {train_accuracy!r}"
    assert f"test accuracy: {evaluate_accuracy:.4f}" in printed
    assert train_accuracy != evaluate_accuracy


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
@settings(max_examples=50, deadline=None, database=None, derandomize=True)
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
# one; all through a config file, so every setting is reachable. More than two
# changes at once would mostly stop at the first config error
_SETTING_CHANGES = ([(name, value) for name in _FLOAT_SETTINGS for value in _BAD_FLOATS]
                    + [(name, value) for name, valid in _STRING_SETTINGS.items()
                       for value in (*valid, "", "bogus")])


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(changes=st.lists(st.sampled_from(_SETTING_CHANGES), min_size=1, max_size=2))
def test_float_and_string_settings_end_in_a_documented_exit_code(tmp_path_factory, changes):
    root = tmp_path_factory.getbasetemp() / "float_settings"
    ds_dir = root / "ds"
    if not ds_dir.exists():
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["synth", "--out", str(ds_dir), "--nodes", "40", "--classes", "2",
                         "--edges-per-node", "2", "--feature-dim", "8", "--seed", "0"]) == 0
    settings_text = {"warm_epochs": "3", "em_rounds": "1", "m_epochs": "2", "e_sweeps": "2",
                     "hidden": "4", "per_class": "5", "num_val": "5", "num_test": "5",
                     **dict(changes)}
    config = root / "conf.txt"
    config.write_text("".join(f"{k} = {v}\n" for k, v in settings_text.items()),
                      encoding="utf-8")
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = main(["train", "--config", str(config), "--dataset", str(ds_dir),
                     "--out", str(root / "runs"), "--quiet"])
    assert code in (0, 1, 2)
    assert len(stderr.getvalue().splitlines()) <= 1
    assert "Traceback" not in stderr.getvalue()
    assert "Warning" not in stderr.getvalue()
    assert not caught, [str(w.message) for w in caught]


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
    assert "refused" in capsys.readouterr().out


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(split="bogus")
    with pytest.raises(ConfigError):
        RunConfig(seeds=())


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


def test_python_dash_m_runs_the_cli():
    src = str(Path(mrfgcn.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-m", "mrfgcn", "--help"],
                          capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 0
    assert "oracle-check" in done.stdout
