"""Tests of the benchmark harness itself: span arithmetic, wrapper lifetime,
the metric lists in BENCHMARK.json, and a tiny run of every workload.

    python3 -m pytest perfbench
"""

import dataclasses
import importlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _span(name, start, end, parent, counts=None):
    return spans.Span(name, start, end, parent, counts if counts is not None else {})


def test_self_times_subtract_the_union_of_children_clipped_to_the_parent():
    tree = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("c", 2.0, 3.0, 1),
        _span("d", 3.5, 6.0, 0),      # overlaps a and b: covered once
        _span("b", 5.0, 9.0, 0),
        _span("e", 9.5, 11.0, 0),     # runs past its parent: clipped
    ]
    assert spans.self_times(tree) == pytest.approx([1.5, 2.0, 1.0, 2.5, 4.0, 1.5])


def test_layer_metrics_take_median_times_and_first_root_counts():
    step = "training.e_step"
    tree = [
        _span("bench.op", 0.0, 10.0, -1),
        _span(step, 1.0, 2.0, 0, {"sweeps": 3, "node_updates": 30, "capped_ratio": 1.0}),
        _span(step, 3.0, 6.0, 0, {"sweeps": 5, "node_updates": 50, "capped_ratio": 0.0}),
        _span("bench.op", 20.0, 30.0, -1),
        _span(step, 21.0, 22.0, 3, {"sweeps": 7, "node_updates": 70, "capped_ratio": 0.0}),
        _span("training.predict", 22.0, 29.0, 3),
        _span(step, 23.0, 25.0, 5, {"sweeps": 9, "node_updates": 90, "capped_ratio": 1.0}),
    ]
    got = spans.layer_metrics(tree, unmeasured={"gcn.backward"})
    assert got[f"{step}.s"] == (pytest.approx(3.5), True)        # median of 4 and 3
    assert got[f"{step}.calls"] == (2, True)
    assert got[f"{step}.sweeps"] == (8, True)
    assert got[f"{step}.node_updates"] == (80, True)
    assert got[f"{step}.capped_ratio"] == (pytest.approx(0.5), True)
    assert got["training.predict.self_s"] == (pytest.approx(5.0), True)
    assert got["numerics.dropout_mask.calls"] == (0, True)         # never ran
    assert got["gcn.backward.s"] == (0, False)
    assert spans.coverage(tree) == pytest.approx((4.0 + 8.0) / 20.0)


def _sites():
    out = {}
    for layer in spans.LAYERS:
        for module_name, attr in layer.sites:
            out[(module_name, attr)] = getattr(importlib.import_module(module_name), attr)
    return out


def test_missing_site_is_unmeasured_and_every_wrapper_is_restored():
    before = _sites()
    layers = spans.LAYERS + (spans.Layer("training.gone", (("mrfgcn.training", "gone"),)),)
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with spans.installed(tracer, layers) as unmeasured:
            assert unmeasured == {"training.gone"}
            assert all(getattr(importlib.import_module(m), a) is not fn
                       for (m, a), fn in before.items())
            raise RuntimeError("the traced code failed")
    assert _sites() == before


def _tiny(name):
    w = workloads.WORKLOADS[name]
    return dataclasses.replace(w, nodes=200 if w.kind == "evaluate" else 80,
                               features=min(w.features, 48), per_class=2,
                               num_val=10, num_test=20, accuracy_floor=0.0)


def _names_and_units(entries):
    return {e["name"]: e["unit"] for e in entries}


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_reports_every_metric_with_its_unit(name, traced, tmp_path):
    before = _sites()
    result = run.measure(_tiny(name), seed=1, seconds=0, traced=traced, work_dir=tmp_path)
    assert _sites() == before
    assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"]
    expected = _names_and_units(SPEC["per_layer" if traced else "end_to_end"])
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) and "unmeasured" not in v
               for v in result["metrics"].values())


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert _names_and_units(SPEC["end_to_end"]) == dict(run.END_TO_END)
    layer = {f"{layer}.{stat}": unit for layer, stat, unit in spans.LAYER_METRICS}
    layer.update({"trace.coverage": "ratio", "trace.overhead": "s"})
    assert _names_and_units(SPEC["per_layer"]) == layer


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "cora_train",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
