import math

import numpy as np
import pytest
import scipy.sparse as sp

from mrfgcn.errors import ConfigError
from mrfgcn.numerics import AdamState, adam_step, dropout_mask, softmax_rows, stream


# `@` with a dense or a CSR left operand: the products the GCN takes with
# its features and adjacency


def _both_forms(a):
    return a, sp.csr_array(a)


def test_matmul_identity():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    for eye in _both_forms(np.eye(2)):
        assert np.array_equal(eye @ m, m)


def test_matmul_hand_product():
    for a in _both_forms(np.array([[1.0, 2.0], [3.0, 4.0]])):
        assert (a @ np.array([[1.0], [1.0]])).tolist() == [[3.0], [7.0]]


def test_matmul_matches_triple_loop():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(5, 4)), rng.normal(size=(4, 3))
    a[rng.random((5, 4)) < 0.4] = 0.0
    ref = np.zeros((5, 3))
    for i in range(5):
        for j in range(3):
            for k in range(4):
                ref[i, j] += a[i, k] * b[k, j]
    for left in _both_forms(a):
        assert np.allclose(left @ b, ref, atol=1e-12)


def test_matmul_shape_mismatch():
    for a in _both_forms(np.ones((2, 3))):
        with pytest.raises(ValueError):
            a @ np.ones((2, 3))


def test_softmax_symmetry():
    assert np.allclose(softmax_rows(np.array([[0.0, 0.0]])), [[0.5, 0.5]])


def test_softmax_ratio():
    out = softmax_rows(np.array([[math.log(3.0), 0.0]]))
    assert np.allclose(out, [[0.75, 0.25]], atol=1e-12)


def test_softmax_large_values_stable():
    out = softmax_rows(np.array([[1000.0, 0.0]]))
    assert np.isfinite(out).all()
    assert out[0, 0] == pytest.approx(1.0)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(1)
    out = softmax_rows(rng.normal(scale=30.0, size=(50, 7)))
    assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-12


def _softmax_row_major(m):
    """The row-major formula softmax_rows used before its class-major layout."""
    e = np.exp(m - m.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("c", [3, 7, 10, 16])
def test_softmax_matches_the_row_major_formula(c):
    # numpy sums a row of 8 or more values pairwise, so the class-major sum
    # may differ from it in the last bits there, and only there
    m = np.random.default_rng(c).normal(scale=5.0, size=(300, c))
    out = softmax_rows(m)
    assert out.flags.c_contiguous and out.shape == m.shape
    assert np.abs(out - _softmax_row_major(m)).max() <= (0.0 if c <= 7 else 1e-15)


def test_softmax_of_no_rows_and_of_a_transposed_view():
    out = softmax_rows(np.zeros((0, 4)))
    assert out.shape == (0, 4) and out.flags.c_contiguous
    m = np.random.default_rng(2).normal(size=(5, 40))
    out = softmax_rows(m.T)
    assert out.flags.c_contiguous
    assert np.array_equal(out, softmax_rows(np.ascontiguousarray(m.T)))


def test_adam_zero_gradient_is_noop():
    p = np.array([[1.0, -2.0]])
    st = AdamState.for_param(p, lr=0.1)
    out = adam_step(p, np.zeros_like(p), st)
    assert np.array_equal(out, p)
    assert np.array_equal(st.m, np.zeros_like(p))
    assert st.step == 1


def test_adam_first_step_direction_and_size():
    p = np.zeros(3)
    g = np.array([2.0, -0.5, 1e-3])
    st = AdamState.for_param(p, lr=0.01)
    out = adam_step(p, g, st)
    # bias-corrected first step is -lr * g / (|g| + eps) ~= -lr * sign(g)
    assert np.allclose(out, -0.01 * np.sign(g), atol=1e-6)


def test_adam_matches_scalar_reference_trace():
    # independent scalar recurrence, two steps
    lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
    grads = [0.7, -0.3]
    p_ref, m, v = 1.5, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        p_ref = p_ref - lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)
    p = np.array([1.5])
    st = AdamState.for_param(p, lr=lr)
    for g in grads:
        p = adam_step(p, np.array([g]), st)
    assert p[0] == pytest.approx(p_ref, abs=1e-15)


@pytest.mark.parametrize("shape", [(1433, 16), (64, 16), (3673,), (500, 16)])
def test_adam_in_place_moments_equal_the_textbook_formula_bit_for_bit(shape):
    rng = np.random.default_rng(sum(shape))
    p = rng.normal(size=shape)
    st = AdamState.for_param(p, lr=0.01, weight_decay=5e-4)
    p_ref, m, v = p.copy(), np.zeros(shape), np.zeros(shape)
    b1, b2, eps = 0.9, 0.999, 1e-8
    for t in range(1, 21):
        g = rng.normal(size=shape) * rng.choice([1e-6, 1.0, 1e3])
        p = adam_step(p, g, st)
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        p_ref = p_ref * (1.0 - 0.01 * 5e-4)
        p_ref = p_ref - 0.01 * m_hat / (np.sqrt(v_hat) + eps)
        assert np.array_equal(p, p_ref)
        assert np.array_equal(st.m, m) and np.array_equal(st.v, v)


def test_adam_decoupled_weight_decay():
    p = np.array([2.0])
    st = AdamState.for_param(p, lr=0.1, weight_decay=0.5)
    out = adam_step(p, np.zeros(1), st)
    assert out[0] == pytest.approx(2.0 * (1 - 0.1 * 0.5))


def test_adam_shape_mismatch():
    p = np.zeros((2, 2))
    st = AdamState.for_param(p)
    with pytest.raises(ValueError):
        adam_step(p, np.zeros(3), st)


def test_dropout_keep_one_is_all_ones():
    assert np.array_equal(dropout_mask((4, 5), 1.0, stream(0, "d")), np.ones((4, 5)))


def test_dropout_mean_near_one():
    # the mask keeps; scaled by 1/keep it leaves activations unbiased
    mask = dropout_mask((100000,), 0.5, stream(7, "dropout")) / 0.5
    assert set(np.unique(mask)) <= {0.0, 2.0}
    assert abs(mask.mean() - 1.0) <= 0.02


@pytest.mark.parametrize("keep", [0.5, 0.3])
def test_dropout_keep_rate_within_five_sigma(keep):
    draws = 10 ** 6
    kept = dropout_mask((draws,), keep, stream(4, "dropout"))
    assert kept.dtype == bool
    sigma = math.sqrt(draws * keep * (1.0 - keep))
    assert abs(int(kept.sum()) - draws * keep) <= 5 * sigma


def test_dropout_same_stream_same_mask_and_odd_sizes_use_half_words():
    a = dropout_mask((7, 3), 0.4, stream(5, "dropout"))
    b = dropout_mask((7, 3), 0.4, stream(5, "dropout"))
    assert a.shape == (7, 3) and np.array_equal(a, b)
    # 21 halves take 11 raw words; the stream continues after them
    rng = stream(5, "dropout")
    dropout_mask((21,), 0.4, rng)
    raw = stream(5, "dropout").bit_generator.random_raw(12)
    assert rng.bit_generator.random_raw() == raw[11]
    halves = raw[:11].view(np.uint32)[:21]
    assert np.array_equal(a.ravel(), halves < round(0.4 * 2 ** 32))


def test_dropout_keep_just_below_one_does_not_overflow_the_threshold():
    keep = 1.0 - 2.0 ** -40                     # round(keep * 2**32) is 2**32
    assert round(keep * 2.0 ** 32) == 2 ** 32
    kept = dropout_mask((1000,), keep, stream(6, "dropout"))
    assert kept.all()


def test_dropout_keep_one_draws_nothing():
    rng = stream(8, "dropout")
    assert dropout_mask((3, 4), 1.0, rng).all()
    assert np.array_equal(rng.random(3), stream(8, "dropout").random(3))


def test_dropout_deterministic_per_seed():
    a = dropout_mask((100, 3), 0.5, stream(3, "dropout"))
    b = dropout_mask((100, 3), 0.5, stream(3, "dropout"))
    assert np.array_equal(a, b)


def test_dropout_bad_keep_prob():
    with pytest.raises(ConfigError):
        dropout_mask((2,), 0.0, stream(0, "d"))


def test_streams_are_independent_and_reproducible():
    a1 = stream(9, "init").random(5)
    a2 = stream(9, "init").random(5)
    b = stream(9, "dropout").random(5)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
