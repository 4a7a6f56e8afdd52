"""The block reader in `data` against the per-value parser it replaced.

`_reference_citation` and `_reference_generic` below are the loaders as
they were before numeric tables went through `np.loadtxt`: every value
through `float()` or `int()`, one row at a time. On valid input the two
must give byte-identical features, labels and graphs; on a bad feature
row they must name the same line with the same kind of error.

Intended differences, each tested on its own below or in `test_cli.py`:

* spellings that `float()` accepts and numpy does not (`1_000`,
  non-ASCII digits) are now a bad feature value on their line;
* a non-finite feature value (`nan`, `inf`, `-inf`) is now rejected on
  its line instead of being loaded;
* a `features.tsv` row with both a bad value and the wrong width is now
  reported as ragged (the width is checked first, as in the other files);
* a non-integer label or node id is now a ParseError on its line instead
  of a bare ValueError from `int()`.
"""

import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp

from mrfgcn import data
from mrfgcn.data import Dataset, load_citation, load_generic
from mrfgcn.errors import ParseError, StructuralInputError
from mrfgcn.graph import build_graph

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402


# ---- the per-value reference

def _reference_lines(path):
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            yield line_no, stripped.split()


class _ReferenceRows:
    def __init__(self):
        self.indptr, self.indices, self.values = [0], [np.zeros(0, np.int64)], [np.zeros(0)]

    def append(self, row):
        row = np.asarray(row, dtype=np.float64)
        nonzero = np.flatnonzero(row)
        self.indices.append(nonzero)
        self.values.append(row[nonzero])
        self.indptr.append(self.indptr[-1] + len(nonzero))

    def tocsr(self, width):
        return sp.csr_array((np.concatenate(self.values), np.concatenate(self.indices),
                             np.asarray(self.indptr)), shape=(len(self.indptr) - 1, width))


def _reference_citation(content_file, cites_file):
    names, rows, class_ids, class_map, width = [], _ReferenceRows(), [], {}, None
    for line_no, parts in _reference_lines(content_file):
        if len(parts) < 2:
            raise ParseError(content_file, line_no, "expected node_id, features, class_label")
        name, feats, cls = parts[0], parts[1:-1], parts[-1]
        if width is None:
            width = len(feats)
        elif len(feats) != width:
            raise StructuralInputError(
                f"{content_file}:{line_no}: feature width {len(feats)} != {width}")
        try:
            rows.append([float(x) for x in feats])
        except ValueError as exc:
            raise ParseError(content_file, line_no, f"bad feature value ({exc})") from None
        if cls not in class_map:
            class_map[cls] = len(class_map)
        names.append(name)
        class_ids.append(class_map[cls])
    if width is None:
        raise StructuralInputError(f"{content_file}: no data rows")
    index = {name: i for i, name in enumerate(names)}
    edges = [(index[a], index[b]) for _, (a, b) in _reference_lines(cites_file)]
    return Dataset(graph=build_graph(len(names), edges), features=rows.tocsr(width),
                   labels=np.asarray(class_ids, dtype=np.int64),
                   num_classes=len(class_map), node_names=names)


def _reference_generic(directory):
    rows, width = _ReferenceRows(), None
    for line_no, parts in _reference_lines(directory / "features.tsv"):
        try:
            values = [float(x) for x in parts]
        except ValueError as exc:
            raise ParseError(directory / "features.tsv", line_no, str(exc)) from None
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise StructuralInputError(f"{directory}/features.tsv: ragged feature rows")
        rows.append(values)
    if width is None:
        raise StructuralInputError(f"{directory}/features.tsv: no data rows")
    labels = np.asarray([int(parts[0]) for _, parts in
                         _reference_lines(directory / "labels.tsv")], dtype=np.int64)
    edges = [(int(a), int(b)) for _, (a, b) in _reference_lines(directory / "edges.tsv")]
    features = rows.tocsr(width)
    return Dataset(graph=build_graph(features.shape[0], edges), features=features,
                   labels=labels, num_classes=int(labels.max()) + 1)


def _assert_same_arrays(got, expected):
    pairs = [("features." + name, getattr(got.features, name), getattr(expected.features, name))
             for name in ("indptr", "indices", "data")]
    pairs.append(("labels", got.labels, expected.labels))
    pairs += [("graph." + name, getattr(got.graph, name), getattr(expected.graph, name))
              for name in ("edges", "indptr", "indices", "slot_edge_ids")]
    assert got.features.shape == expected.features.shape
    for name, a, b in pairs:
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert got.num_classes == expected.num_classes
    assert got.node_names == expected.node_names


# ---- random token grids

_ZEROS = ["0", "0.0", "-0", "-0.0", "+0", ".0", "0e5", "-0E-3"]


def _decimal(sign, whole, fraction, exponent):
    if not whole and len(fraction) < 2:    # "." or nothing needs a digit before it
        whole = "0"
    return sign + whole + fraction + exponent


_decimals = st.builds(
    _decimal,
    st.sampled_from(["", "+", "-"]),
    st.one_of(st.just(""), st.integers(0, 10**18).map(str)),
    st.one_of(st.sampled_from(["", "."]), st.integers(0, 10**18).map(lambda d: f".{d:018d}")),
    st.one_of(st.just(""), st.builds("{}{}{}".format, st.sampled_from("eE"),
                                     st.sampled_from(["", "+", "-"]), st.integers(0, 99))))
_floats = st.floats(allow_nan=False, allow_infinity=False)
_values = st.one_of(
    st.sampled_from(_ZEROS),
    st.sampled_from(_ZEROS),
    st.integers(-10**6, 10**6).map(str),
    _floats.map(repr),
    _floats.map(lambda x: "%.17g" % x),
    _floats.map(lambda x: "%.5E" % x),
    _decimals,
)
_noise_lines = st.sampled_from(["", "   ", "\t", "#", "# 1 2 x", "  # indented", "#\tx y"])
_styles = st.tuples(st.sampled_from([" ", "\t", "  ", " \t "]),   # separator
                    st.sampled_from(["", " ", "\t"]),            # padding at both ends
                    st.sampled_from(["\n", "\r\n"]))            # line ending


@st.composite
def _file_text(draw, token_rows):
    """The rows as one file, with blank and comment lines mixed in."""
    separator, padding, ending = draw(_styles)
    lines = [padding + separator.join(tokens) + padding for tokens in token_rows]
    noise = draw(st.lists(st.tuples(st.integers(0, len(lines)), _noise_lines), max_size=4))
    for at, text in sorted(noise, reverse=True):
        lines.insert(at, text)
    return "".join(line + ending for line in lines)


@st.composite
def _grids(draw, min_width):
    n = draw(st.integers(1, 10))
    width = draw(st.integers(min_width, 5))
    values = draw(st.lists(_values, min_size=n * width, max_size=n * width))
    features = [values[i * width:(i + 1) * width] for i in range(n)]
    # rows that are all zeros are common in bag-of-words features
    for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        features[i] = [_ZEROS[(i + j) % len(_ZEROS)] for j in range(width)]
    return features


def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


_classes = st.sampled_from(["Neural_Networks", "1", "c-2", "x"])


def _pairs(n):
    return st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=20)


@st.composite
def _citation_files(draw):
    features = draw(_grids(min_width=0))
    n = len(features)
    classes = draw(st.lists(_classes, min_size=n, max_size=n))
    rows = [[f"p{i}", *features[i], classes[i]] for i in range(n)]
    cites = draw(_file_text([[f"p{a}", f"p{b}"] for a, b in draw(_pairs(n))]))
    return rows, draw(_file_text(rows)), cites


def _int_text(value, form):
    return (str(value), f"+{value}", f"0{value}")[form]


@st.composite
def _generic_files(draw):
    features = draw(_grids(min_width=1))
    n = len(features)
    labels = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)),
                           min_size=n, max_size=n))
    edges = draw(_pairs(n))
    form = draw(st.integers(0, 2))
    return (features, draw(_file_text(features)),
            draw(_file_text([[_int_text(*label)] for label in labels])),
            draw(_file_text([[_int_text(a, form), _int_text(b, form)] for a, b in edges])))


def _write_citation(directory, content, cites):
    _write(directory / "g.content", content)
    _write(directory / "g.cites", cites)
    return directory / "g.content", directory / "g.cites"


def _write_generic(directory, features, labels, edges):
    _write(directory / "features.tsv", features)
    _write(directory / "labels.tsv", labels)
    _write(directory / "edges.tsv", edges)
    return directory


_block_values = st.integers(1, 40)
_grid_settings = settings(max_examples=100, deadline=None, database=None)


@_grid_settings
@given(_citation_files(), _block_values)
def test_citation_loader_matches_the_per_value_reference(files, block_values):
    _, content, cites = files
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(data, "_BLOCK_VALUES", block_values):
        paths = _write_citation(Path(tmp), content, cites)
        _assert_same_arrays(load_citation(*paths), _reference_citation(*paths))


@_grid_settings
@given(_generic_files(), _block_values)
def test_generic_loader_matches_the_per_value_reference(files, block_values):
    _, features, labels, edges = files
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(data, "_BLOCK_VALUES", block_values):
        directory = _write_generic(Path(tmp), features, labels, edges)
        _assert_same_arrays(load_generic(directory), _reference_generic(directory))


# ---- one fault in the feature rows: both parsers name the same line

_faults = st.sampled_from(["bad_value", "extra_column", "missing_column", "short_row"])
_bad_values = st.sampled_from(["x", "1,5", "0x10", "--1", "1e", "1.2.3", "#"])


def _raise_of(load, *args):
    with pytest.raises(StructuralInputError) as info:
        load(*args)
    return info.value


def _assert_same_error(got, expected):
    assert type(got) is type(expected)
    if isinstance(expected, ParseError):
        assert (got.path, got.line_no) == (expected.path, expected.line_no)
    else:
        assert str(got) == str(expected)


def _inject(draw, row, first_feature, width, fault):
    """`row` with one fault in its feature columns [first_feature, first_feature + width)."""
    row = list(row)
    if fault == "bad_value" and width:
        row[first_feature + draw(st.integers(0, width - 1))] = draw(_bad_values)
    elif fault == "extra_column":
        row.insert(first_feature, draw(_values))
    elif fault == "missing_column" and width:
        del row[first_feature]
    elif fault == "short_row":
        row = row[:1]
    else:   # no feature column to spoil or drop: add a bad one
        row.insert(first_feature, draw(_bad_values))
    return row


@_grid_settings
@given(st.data(), _citation_files(), _faults, _block_values)
def test_citation_fault_is_named_on_the_same_line(extra, files, fault, block_values):
    rows, _, cites = files
    at = extra.draw(st.integers(0, len(rows) - 1))
    assume(at > 0 or fault in ("bad_value", "short_row"))   # row 0 sets the width
    rows[at] = _inject(extra.draw, rows[at], 1, len(rows[at]) - 2, fault)
    content = extra.draw(_file_text(rows))
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(data, "_BLOCK_VALUES", block_values):
        paths = _write_citation(Path(tmp), content, cites)
        _assert_same_error(_raise_of(load_citation, *paths),
                           _raise_of(_reference_citation, *paths))


@_grid_settings
@given(st.data(), _generic_files(), _faults.filter(lambda f: f != "short_row"), _block_values)
def test_generic_fault_is_named_on_the_same_line(extra, files, fault, block_values):
    features, _, labels, edges = files
    at = extra.draw(st.integers(0, len(features) - 1))
    assume(at > 0 or fault == "bad_value")   # row 0 sets the width
    features[at] = _inject(extra.draw, features[at], 0, len(features[at]), fault)
    if not features[at]:
        features[at] = [extra.draw(_bad_values)]   # an emptied row would be a blank line
    feature_text = extra.draw(_file_text(features))
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(data, "_BLOCK_VALUES", block_values):
        directory = _write_generic(Path(tmp), feature_text, labels, edges)
        _assert_same_error(_raise_of(load_generic, directory),
                           _raise_of(_reference_generic, directory))


def test_error_in_a_later_block_names_its_file_line(tmp_path):
    lines = []
    for i in range(40):
        lines += ["# comment", f"{i} 0 1.5"]
    lines[61] = "30 0 oops"                       # file line 62, block 4 of 5
    (tmp_path / "features.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (tmp_path / "labels.tsv").write_text("0\n" * 40, encoding="utf-8")
    with mock.patch.object(data, "_BLOCK_VALUES", 24):
        with pytest.raises(ParseError, match=r"features\.tsv:62: bad feature value") as info:
            load_generic(tmp_path)
    assert info.value.line_no == 62


@pytest.mark.parametrize("layout", ["generic", "citation"])
def test_hash_inside_a_row_is_a_bad_value_not_a_comment(tmp_path, layout):
    if layout == "citation":
        load, args = load_citation, _write_citation(tmp_path, "a 1 0 c\nb 1 # c\n", "")
        reference = _reference_citation
    else:
        directory = _write_generic(tmp_path, "1 0\n1 #\n", "0\n0\n", "")
        load, args, reference = load_generic, (directory,), _reference_generic
    assert _raise_of(reference, *args).line_no == 2
    with pytest.raises(ParseError, match=":2: bad feature value"):
        load(*args)


# ---- intended differences

@pytest.mark.parametrize("token", ["1_000", "١"])
@pytest.mark.parametrize("layout", ["generic", "citation"])
def test_python_only_number_spellings_are_rejected_on_their_line(tmp_path, layout, token):
    rows = [["1", "0"], ["0", "2"], [token, "0"]]
    if layout == "citation":
        content = "".join(f"n{i}\t" + "\t".join(row) + "\tc\n" for i, row in enumerate(rows))
        paths = _write_citation(tmp_path, content, "")
        assert _reference_citation(*paths).features.toarray()[2, 0] == float(token)
        load, args = load_citation, paths
    else:
        directory = _write_generic(tmp_path, "".join(" ".join(r) + "\n" for r in rows),
                                   "0\n0\n0\n", "")
        assert _reference_generic(directory).features.toarray()[2, 0] == float(token)
        load, args = load_generic, (directory,)
    with pytest.raises(ParseError, match=":3: bad feature value") as info:
        load(*args)
    assert info.value.line_no == 3


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "-Infinity", "1e999"])
@pytest.mark.parametrize("layout", ["generic", "citation"])
def test_non_finite_feature_value_is_rejected_on_its_line(tmp_path, layout, token):
    rows = [["1", "0"], ["# a comment", None], ["0", "2"], ["0.5", token]]
    text = ""
    for i, row in enumerate(rows):
        if row[1] is None:
            text += row[0] + "\n"
        elif layout == "citation":
            text += f"n{i}\t" + "\t".join(row) + "\tc\n"
        else:
            text += " ".join(row) + "\n"
    if layout == "citation":
        load, args = load_citation, _write_citation(tmp_path, text, "")
    else:
        load, args = load_generic, (_write_generic(tmp_path, text, "0\n0\n0\n", ""),)
    with pytest.raises(ParseError, match=":4: non-finite feature value$"):
        load(*args)


# ---- memory

def test_generic_load_never_holds_the_file_dense(tmp_path):
    # 4000 x 1000 at 1% density: dense it would be 32 MB, its CSR is under 1 MB
    rng = np.random.default_rng(0)
    n, width = 4000, 1000
    with open(tmp_path / "features.tsv", "w", encoding="utf-8") as fh:
        for _ in range(n):
            row = ["0"] * width
            for col in rng.choice(width, size=10, replace=False):
                row[col] = "%.6g" % rng.random()
            fh.write("\t".join(row) + "\n")
    (tmp_path / "labels.tsv").write_text("0\n" * n, encoding="utf-8")
    tracemalloc.start()
    try:
        features = load_generic(tmp_path).features
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert features.nnz == n * 10
    csr_bytes = features.data.nbytes + features.indices.nbytes + features.indptr.nbytes
    assert peak <= csr_bytes + 4 * data._BLOCK_VALUES * 8
