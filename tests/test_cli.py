import os
import subprocess
import sys
from pathlib import Path

import pytest

import mrfgcn
from mrfgcn.checkpoint import load_checkpoint, save_checkpoint
from mrfgcn.cli import RunConfig, main
from mrfgcn.data import load_generic
from mrfgcn.errors import ConfigError
from mrfgcn.graph import homophily_beta

from conftest import write_citation


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


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_evaluate_checkpoint_whose_scores_overflow_exits_two(tmp_path, capsys):
    # every stored value is finite, but the scores overflow to inf and the
    # proposal's softmax rows to nan
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
    assert captured.err.splitlines()[-1] == "runtime failure: proposal rows must be finite"


@pytest.mark.parametrize("flag, value, name", [("--lr", "nan", "lr"),
                                               ("--alpha-init", "inf", "alpha_init")])
def test_train_non_finite_setting_exits_one(tmp_path, capsys, flag, value, name):
    ds_dir = _synth_dir(tmp_path)
    code = main(["train", "--dataset", str(ds_dir), "--out", str(tmp_path / "runs"),
                 "--seeds", "0", *_FAST, "--em-rounds", "0", flag, value, "--quiet"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.splitlines() == [f"config error: {name} must be finite, got {value}"]


def test_ablate_grid_shape(tmp_path):
    ds_dir = _synth_dir(tmp_path, nodes=90)
    out = tmp_path / "ablation"
    code = main(["ablate", "--dataset", str(ds_dir), "--out", str(out),
                 "--seeds", "0", "--warm-epochs", "10", "--em-rounds", "1",
                 "--m-epochs", "3", "--e-sweeps", "2", "--hidden", "6",
                 "--split", "ratio", "--quiet"])
    assert code == 0
    lines = (out / "ablation.tsv").read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 1 + 6      # header + {none,layer,edge} x {average,center}
    combos = {tuple(l.split("\t")[:2]) for l in lines[1:]}
    assert combos == {(m, s) for m in ("none", "layer", "edge")
                      for s in ("average", "center")}


def test_oracle_check_passes(capsys):
    assert main(["oracle-check", "--sizes", "4,5", "--trials", "4"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_oracle_check_detects_injected_bug(capsys):
    assert main(["oracle-check", "--sizes", "4,5", "--trials", "2",
                 "--inject-gradient-bug"]) == 3
    assert "FAIL" in capsys.readouterr().out


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
