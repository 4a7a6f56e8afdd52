import numpy as np
import pytest

from mrfgcn.checkpoint import _MODE_CODES, _write_array, load_checkpoint, save_checkpoint
from mrfgcn.errors import StructuralInputError
from mrfgcn.factors import PairwiseParams
from mrfgcn.gcn import GcnParams

from conftest import write_checkpoint_records


@pytest.mark.parametrize("mode,alpha_len", [("edge", 5), ("layer", 1), ("none", 0)])
def test_extended_round_trip(tmp_path, mode, alpha_len):
    rng = np.random.default_rng(1)
    params = GcnParams(rng.normal(size=(3, 4)), rng.normal(size=(4, 2)))
    pp = PairwiseParams(raw=rng.normal(size=(2, 2)),
                        alpha=rng.normal(size=alpha_len), mode=mode)
    path = tmp_path / "ck.bin"
    save_checkpoint(path, params, pp)
    loaded, pairwise = load_checkpoint(path)
    assert pairwise is not None
    assert pairwise.mode == mode
    assert np.array_equal(pairwise.raw, pp.raw)
    assert np.array_equal(pairwise.alpha, pp.alpha)
    assert np.array_equal(loaded.w0, params.w0)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(StructuralInputError):
        load_checkpoint(path)


def test_truncated_file_rejected(tmp_path):
    rng = np.random.default_rng(2)
    params = GcnParams(rng.normal(size=(6, 4)), rng.normal(size=(4, 2)))
    pp = PairwiseParams(raw=rng.normal(size=(2, 2)), alpha=np.zeros(0), mode="none")
    path = tmp_path / "ck.bin"
    save_checkpoint(path, params, pp)
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(StructuralInputError):
        load_checkpoint(path)


def test_checkpoint_cut_at_every_offset_rejected(tmp_path):
    rng = np.random.default_rng(3)
    params = GcnParams(rng.normal(size=(3, 4)), rng.normal(size=(4, 2)))
    pp = PairwiseParams(raw=rng.normal(size=(2, 2)), alpha=rng.normal(size=3), mode="edge")
    path = tmp_path / "ck.bin"
    save_checkpoint(path, params, pp)
    data = path.read_bytes()
    cut = tmp_path / "cut.bin"
    for size in range(len(data)):
        cut.write_bytes(data[:size])
        with pytest.raises(StructuralInputError, match=r"cut\.bin: checkpoint truncated$"):
            load_checkpoint(cut)


@pytest.mark.parametrize("count", [0, 2, 4, 6])
def test_record_count_other_than_five_rejected(tmp_path, count):
    # the program writes five records; W0 and W1 alone are refused too
    path = tmp_path / "ck.bin"
    write_checkpoint_records(path, [np.ones((3, 4)), np.ones((4, 2)), np.ones((2, 2)),
                                    np.zeros(0), np.zeros(1), np.zeros(1)][:count])
    with pytest.raises(StructuralInputError, match=rf"ck\.bin: unexpected record count {count}$"):
        load_checkpoint(path)


def test_backbone_record_that_is_not_a_matrix_rejected(tmp_path):
    rng = np.random.default_rng(4)
    params = GcnParams(rng.normal(size=(3, 4)), rng.normal(size=4))
    pp = PairwiseParams(raw=rng.normal(size=(2, 2)), alpha=np.zeros(0), mode="none")
    path = tmp_path / "ck.bin"
    save_checkpoint(path, params, pp)
    with pytest.raises(StructuralInputError, match="backbone weights must be matrices"):
        load_checkpoint(path)


@pytest.mark.parametrize("code", [np.zeros(0), np.zeros((1, 1)), np.array([7.0])],
                         ids=["empty", "matrix", "unknown"])
def test_mode_record_that_is_not_one_known_code_rejected(tmp_path, code):
    rng = np.random.default_rng(5)
    params = GcnParams(rng.normal(size=(3, 4)), rng.normal(size=(4, 2)))
    pp = PairwiseParams(raw=rng.normal(size=(2, 2)), alpha=np.zeros(0), mode="none")
    path = tmp_path / "ck.bin"
    save_checkpoint(path, params, pp)
    data = path.read_bytes()
    # the mode record is last: uint32 ndim 1, uint64 dim 1, one float64
    head = data[:-(4 + 8 + 8)]
    with open(path, "wb") as fh:
        fh.write(head)
        _write_array(fh, code)
    with pytest.raises(StructuralInputError, match="unknown coefficient mode code"):
        load_checkpoint(path)


@pytest.mark.parametrize("w1, raw, alpha, mode, message", [
    ((5, 2), (2, 2), (0,), "none", r"W1 has 5 rows but W0 has 4 columns"),
    ((4, 2), (2,), (3,), "edge", r"K storage has shape \(2,\) but W1 has 2 classes"),
    ((4, 2), (3, 3), (0,), "none", r"K storage has shape \(3, 3\) but W1 has 2 classes"),
    ((4, 2), (2, 2), (3, 1), "edge", r"alpha has shape \(3, 1\), not a vector"),
    ((4, 2), (2, 2), (), "layer", r"alpha has shape \(\), not a vector"),
    ((4, 2), (2, 2), (2,), "none", r"none mode stores 0 alpha value\(s\), got shape"),
    ((4, 2), (2, 2), (0,), "layer", r"layer mode stores 1 alpha value\(s\), got shape"),
], ids=["chain", "k_vector", "k_classes", "alpha_matrix", "alpha_scalar", "none_with_alpha",
        "layer_without_alpha"])
def test_records_that_do_not_fit_together_rejected(tmp_path, w1, raw, alpha, mode, message):
    arrays = [np.ones((3, 4)), np.ones(w1), np.ones(raw), np.ones(alpha),
              np.array([_MODE_CODES[mode]])]
    path = tmp_path / "ck.bin"
    write_checkpoint_records(path, arrays)
    with pytest.raises(StructuralInputError, match=r"ck\.bin: " + message):
        load_checkpoint(path)
