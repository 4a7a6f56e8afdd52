import logging
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from mrfgcn import data
from mrfgcn.data import (Dataset, generate_synthetic, load_citation, load_generic,
                         load_split_file, planetoid_split, ratio_split,
                         row_normalize_features, save_generic, Split)
from mrfgcn.errors import ConfigError, ParseError, StructuralInputError
from mrfgcn.graph import build_graph, homophily_beta

from conftest import write_citation


def _toy_dataset(tmp_path):
    rows = [("a", [1, 0, 1], "ml"), ("b", [0, 1, 0], "pl"), ("c", [1, 1, 0], "ml"),
            ("d", [0, 0, 1], "db")]
    cites = [("a", "b"), ("b", "c"), ("c", "d"), ("a", "b")]
    d = write_citation(tmp_path, "toy", rows, cites)
    return load_citation(d / "toy.content", d / "toy.cites")


def test_load_citation_minimal_pair(tmp_path):
    d = write_citation(tmp_path, "tiny", [("a", [1], "x"), ("b", [0], "y")],
                       [("a", "b")])
    ds = load_citation(d / "tiny.content", d / "tiny.cites")
    assert ds.graph.num_nodes == 2
    assert ds.graph.num_edges == 1
    assert ds.num_citation_rows == 1


def test_load_citation_class_order_and_features(tmp_path):
    ds = _toy_dataset(tmp_path)
    assert ds.num_classes == 3
    assert ds.labels.tolist() == [0, 1, 0, 2]  # ml, pl, ml, db by first appearance
    assert ds.features.toarray()[0].tolist() == [1.0, 0.0, 1.0]
    assert ds.graph.num_edges == 3              # duplicate citation merged
    assert ds.num_citation_rows == 4            # raw resolved rows keep the duplicate


def test_load_citation_unknown_ids_skipped(tmp_path, caplog):
    d = write_citation(tmp_path, "t", [("a", [1], "x"), ("b", [1], "x")],
                       [("a", "b"), ("a", "zzz")])
    with caplog.at_level(logging.WARNING, logger="mrfgcn.data"):
        ds = load_citation(d / "t.content", d / "t.cites")
    assert [r.getMessage() for r in caplog.records] == [
        f"{d / 't.cites'}: skipped 1 citation rows with unknown node ids"]
    assert ds.graph.num_edges == 1


def test_load_citation_malformed_row_names_line(tmp_path):
    path = tmp_path / "bad.content"
    path.write_text("a\t1\tx\nb\tnotanumber\ty\n", encoding="utf-8")
    (tmp_path / "bad.cites").write_text("", encoding="utf-8")
    with pytest.raises(ParseError, match=":2:"):
        load_citation(path, tmp_path / "bad.cites")


def test_load_citation_width_mismatch(tmp_path):
    path = tmp_path / "bad.content"
    path.write_text("a\t1\t0\tx\nb\t1\ty\n", encoding="utf-8")
    (tmp_path / "bad.cites").write_text("", encoding="utf-8")
    with pytest.raises(StructuralInputError):
        load_citation(path, tmp_path / "bad.cites")


def test_planetoid_split_counts_and_determinism():
    rng = np.random.default_rng(0)
    ds = generate_synthetic(300, 4, 3, 0.7, feature_dim=6, feature_noise=0.2, seed=1)
    split = planetoid_split(ds, per_class=10, num_val=50, num_test=100, seed=5)
    assert len(split.train) == 10 * 4
    assert len(split.val) == 50 and len(split.test) == 100
    for cls in range(4):
        assert (ds.labels[split.train] == cls).sum() == 10
    again = planetoid_split(ds, per_class=10, num_val=50, num_test=100, seed=5)
    assert np.array_equal(split.train, again.train)
    assert np.array_equal(split.val, again.val)
    assert np.array_equal(split.test, again.test)
    other = planetoid_split(ds, per_class=10, num_val=50, num_test=100, seed=6)
    assert not np.array_equal(split.train, other.train)


def test_planetoid_split_insufficient_class():
    ds = generate_synthetic(30, 3, 2, 0.5, feature_dim=4, feature_noise=0.1, seed=2)
    with pytest.raises(ConfigError):
        planetoid_split(ds, per_class=100, num_val=5, num_test=5, seed=0)


def test_planetoid_split_pool_too_small():
    ds = generate_synthetic(60, 2, 2, 0.5, feature_dim=4, feature_noise=0.1, seed=3)
    with pytest.raises(ConfigError):
        planetoid_split(ds, per_class=5, num_val=40, num_test=40, seed=0)


@pytest.mark.parametrize("key", ["per_class", "num_val", "num_test"])
def test_planetoid_split_rejects_a_negative_count(key):
    ds = generate_synthetic(60, 2, 2, 0.5, feature_dim=4, feature_noise=0.1, seed=3)
    counts = {"per_class": 5, "num_val": 5, "num_test": 5, key: -1}
    with pytest.raises(ConfigError, match=f"{key} must be non-negative, got -1"):
        planetoid_split(ds, **counts, seed=0)


def test_ratio_split_exact_fractions():
    ds = generate_synthetic(100, 2, 2, 0.5, feature_dim=4, feature_noise=0.1, seed=4)
    split = ratio_split(ds, 0.2, 0.2, 0.6, seed=0)
    assert (len(split.train), len(split.val), len(split.test)) == (20, 20, 60)


def test_ratio_split_floor_rounding_remainder_to_test():
    # hand application of the rule: floors are 1040/1040/3120, remainder 1 -> test
    ds = generate_synthetic(5201, 3, 2, 0.5, feature_dim=4, feature_noise=0.1, seed=5)
    split = ratio_split(ds, 0.2, 0.2, 0.6, seed=0)
    assert (len(split.train), len(split.val), len(split.test)) == (1040, 1040, 3121)


def test_ratio_split_deterministic():
    ds = generate_synthetic(80, 2, 2, 0.5, feature_dim=4, feature_noise=0.1, seed=6)
    a = ratio_split(ds, 0.3, 0.3, 0.4, seed=9)
    b = ratio_split(ds, 0.3, 0.3, 0.4, seed=9)
    assert np.array_equal(a.train, b.train) and np.array_equal(a.test, b.test)


def test_ratio_split_fraction_sum_error():
    ds = generate_synthetic(50, 2, 2, 0.5, feature_dim=4, feature_noise=0.1, seed=7)
    with pytest.raises(ConfigError):
        ratio_split(ds, 0.5, 0.5, 0.5, seed=0)


def test_split_disjointness_enforced():
    with pytest.raises(StructuralInputError):
        Split(train=np.array([1, 2]), val=np.array([2, 3]), test=np.array([4]))


def test_synthetic_extreme_targets():
    hi = generate_synthetic(60, 2, 3, 1.0, feature_dim=4, feature_noise=0.1, seed=8)
    assert homophily_beta(hi.graph, hi.labels) == 1.0
    lo = generate_synthetic(60, 2, 3, 0.0, feature_dim=4, feature_noise=0.1, seed=9)
    assert homophily_beta(lo.graph, lo.labels) == 0.0


def test_synthetic_beta_concentrates_on_target():
    betas = [homophily_beta(ds.graph, ds.labels) for ds in
             (generate_synthetic(2000, 4, 4, 0.25, feature_dim=8,
                                 feature_noise=0.2, seed=s) for s in range(5))]
    assert abs(float(np.mean(betas)) - 0.25) <= 0.05


def test_synthetic_validation():
    with pytest.raises(ConfigError):
        generate_synthetic(10, 4, 2, 0.5, feature_dim=2, feature_noise=0.1, seed=0)
    with pytest.raises(ConfigError):
        generate_synthetic(10, 2, 2, 1.5, feature_dim=4, feature_noise=0.1, seed=0)


def test_synthetic_impossible_partner():
    # a single class with homophily 0 leaves no valid partner pool
    with pytest.raises(ConfigError):
        generate_synthetic(5, 1, 2, 0.0, feature_dim=2, feature_noise=0.0, seed=0)


def test_row_normalize():
    ds = generate_synthetic(3, 2, 1, 0.5, feature_dim=4, feature_noise=0.0, seed=10)
    ds = replace(ds, features=np.array([[1.0, 1.0, 0.0, 2.0],
                                        [0.0, 0.0, 0.0, 0.0],
                                        [1.0, 1.0, 1.0, 1.0]]))
    out = row_normalize_features(ds).features.toarray()
    assert out[0].tolist() == [0.25, 0.25, 0.0, 0.5]
    assert out[1].tolist() == [0.0, 0.0, 0.0, 0.0]
    assert out[2].tolist() == [0.25, 0.25, 0.25, 0.25]


def test_row_normalize_leaves_the_input_alone():
    ds = generate_synthetic(40, 3, 2, 0.5, feature_dim=9, feature_noise=0.3, seed=12)
    before = ds.features.copy()
    out = row_normalize_features(ds)
    assert np.array_equal(ds.features.data, before.data)
    dense = before.toarray()
    sums = dense.sum(axis=1, keepdims=True)
    expected = np.divide(dense, sums, out=dense.copy(), where=sums != 0)
    assert np.array_equal(out.features.toarray(), expected)


def test_row_normalize_shares_the_structure_and_allocates_one_values_array():
    rng = np.random.default_rng(5)
    n = 2000
    features = sp.random_array((n, 500), density=0.2, format="csr", rng=rng)
    features = sp.csr_array((features.data, features.indices.astype(np.int64),
                             features.indptr.astype(np.int64)), shape=features.shape)
    ds = Dataset(graph=build_graph(n, np.zeros((0, 2), np.int64)), features=features,
                 labels=np.zeros(n, np.int64), num_classes=1)
    tracemalloc.start()
    try:
        out = row_normalize_features(ds).features
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.shares_memory(out.indices, features.indices)
    assert np.shares_memory(out.indptr, features.indptr)
    assert not np.shares_memory(out.data, features.data)
    # the per-row sums and counts are the slack
    assert peak <= features.data.nbytes + 8 * n * 8


def test_generic_round_trip(tmp_path):
    ds = row_normalize_features(_toy_dataset(tmp_path / "src"))
    save_generic(ds, tmp_path / "out")
    back = load_generic(tmp_path / "out")
    assert back.graph.num_nodes == ds.graph.num_nodes
    assert np.array_equal(back.graph.edges, ds.graph.edges)
    assert np.array_equal(back.features.toarray(), ds.features.toarray())
    assert np.array_equal(back.labels, ds.labels)
    assert back.num_classes == ds.num_classes


def test_split_file_round_trip(tmp_path):
    ds = _toy_dataset(tmp_path / "src")
    split = Split(train=np.array([0]), val=np.array([1]), test=np.array([2, 3]))
    save_generic(ds, tmp_path / "out", split=split)
    back = load_split_file(tmp_path / "out" / "split.tsv", num_nodes=4)
    assert np.array_equal(back.train, split.train)
    assert np.array_equal(back.val, split.val)
    assert np.array_equal(back.test, split.test)


def _split_lines(num_rows):
    lines = ["# node\tset"]
    for i in range(num_rows):
        lines.append(f"{(7 * i) % num_rows}\t{('train', 'val', 'test')[i % 3]}")
        if i == 5:
            lines.append("")
    return lines


def test_split_file_in_blocks_reads_each_block_with_one_parse(tmp_path, monkeypatch):
    path = tmp_path / "split.tsv"
    path.write_text("\n".join(_split_lines(23)) + "\n", encoding="utf-8")
    whole = load_split_file(path, num_nodes=23)
    calls = []
    real = data._loadtxt
    monkeypatch.setattr(data, "_loadtxt", lambda lines, dtype: calls.append(len(lines))
                        or real(lines, dtype))
    monkeypatch.setattr(data, "_BLOCK_VALUES", 5)
    got = load_split_file(path, num_nodes=23)
    assert calls == [5, 5, 5, 5, 3]
    for name in ("train", "val", "test"):
        assert np.array_equal(getattr(got, name), getattr(whole, name))
        assert getattr(got, name).dtype == np.int64
    assert got.train.tolist() == sorted((7 * i) % 23 for i in range(0, 23, 3))


@pytest.mark.parametrize("fault, message", [
    ("x7\tval", "bad node id"), ("1_0\tval", "bad node id"),
    ("7\tvalid", "expected `node_id train|val|test`"),
    ("7 val more", "expected `node_id train|val|test`"),
    ("23\ttest", "node id 23 out of range"), ("-1\ttest", "node id -1 out of range")])
@pytest.mark.parametrize("row", [0, 9, 15, 22])
def test_split_file_in_blocks_names_the_first_bad_row(tmp_path, monkeypatch, fault,
                                                     message, row):
    # a second, different fault later in the same block must not be reported
    lines = _split_lines(23)
    data_lines = [i for i, text in enumerate(lines) if text and not text.startswith("#")]
    lines[data_lines[row]] = fault
    if row + 1 < len(data_lines):
        lines[data_lines[row + 1]] = "5\tnone"
    path = tmp_path / "split.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    monkeypatch.setattr(data, "_BLOCK_VALUES", 5)
    with pytest.raises(ParseError) as caught:
        load_split_file(path, num_nodes=23)
    assert str(caught.value).startswith(f"{path}:{data_lines[row] + 1}: {message}")


@pytest.mark.parametrize("row, text, value", [
    (8, "0\t999", 999), (8, "-1\t3", -1), (8, "3\t-2", -2), (8, "-4\t12", -4), (0, "12\t2", 12)])
def test_out_of_range_endpoint_in_blocks_names_its_line_and_value(tmp_path, monkeypatch,
                                                                  row, text, value):
    # 12 nodes, 2-value rows: with 5 values a block holds 3 rows, so row 8 is in block 3
    directory = tmp_path / "ds"
    directory.mkdir()
    (directory / "features.tsv").write_text("1\t0\n" * 12, encoding="utf-8")
    (directory / "labels.tsv").write_text("0\n" * 12, encoding="utf-8")
    lines = ["# a\tb"] + [f"{i}\t{(i + 1) % 12}" for i in range(11)]
    lines[row + 1] = text
    (directory / "edges.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    monkeypatch.setattr(data, "_BLOCK_VALUES", 5)
    with pytest.raises(ParseError) as caught:
        load_generic(directory)
    assert (caught.value.path, caught.value.line_no) == (directory / "edges.tsv", row + 2)
    assert str(caught.value).endswith(f": node id {value} out of range")


def _same_csr(a, b):
    return (a.shape == b.shape and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices) and np.array_equal(a.data, b.data))


def test_features_are_csr_of_the_nonzeros(tmp_path):
    ds = _toy_dataset(tmp_path)
    assert isinstance(ds.features, sp.csr_array)
    assert ds.features.dtype == np.float64
    dense = np.array([[1, 0, 1], [0, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=np.float64)
    assert _same_csr(ds.features, sp.csr_array(dense))
    assert ds.features.nnz == 6


def test_loaders_round_trip_to_the_same_csr(tmp_path):
    cited = _toy_dataset(tmp_path / "src")
    save_generic(cited, tmp_path / "once")
    once = load_generic(tmp_path / "once")
    assert _same_csr(once.features, cited.features)
    synthetic = generate_synthetic(60, 3, 2, 0.6, feature_dim=12, feature_noise=0.2, seed=3)
    normalized = row_normalize_features(synthetic)
    save_generic(normalized, tmp_path / "twice")
    assert _same_csr(load_generic(tmp_path / "twice").features, normalized.features)


def test_save_generic_writes_every_entry_of_the_dense_rows(tmp_path, monkeypatch):
    # more rows than one dense block, so a block boundary is crossed
    monkeypatch.setattr(data, "_BLOCK_VALUES", 1024)
    ds = row_normalize_features(generate_synthetic(
        1100, 3, 1, 0.5, feature_dim=5, feature_noise=0.3, seed=4))
    save_generic(ds, tmp_path / "out")
    expected = "".join("\t".join("%.17g" % x for x in row) + "\n"
                       for row in ds.features.toarray())
    assert (tmp_path / "out" / "features.tsv").read_bytes() == expected.encode("utf-8")


def test_load_generic_ragged_rows(tmp_path):
    (tmp_path / "features.tsv").write_text("1 0\n1\n", encoding="utf-8")
    (tmp_path / "labels.tsv").write_text("0\n1\n", encoding="utf-8")
    with pytest.raises(StructuralInputError, match="ragged feature rows"):
        load_generic(tmp_path)
