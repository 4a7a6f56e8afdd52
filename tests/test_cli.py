import pytest

from mrfgcn.cli import RunConfig, main
from mrfgcn.data import load_generic
from mrfgcn.errors import ConfigError
from mrfgcn.graph import homophily_beta


def _synth_dir(tmp_path, name="ds", target=0.85, nodes=120, seed=0, edges_per_node=3):
    out = tmp_path / name
    code = main(["synth", "--out", str(out), "--nodes", str(nodes), "--classes", "3",
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
