"""Numeric kernels shared by the learning modules.

Everything is double precision. Randomness comes from named Philox
streams derived from one run seed, so results do not depend on the
order in which unrelated components draw numbers. A dropout mask has
whatever shape the caller names: the GCN draws one value per stored
entry of its CSR features, and one per hidden unit of the rows it
computes. Each mask value is one 32-bit half of a raw Philox word.
"""

import math
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


def stream(seed: int, name: str) -> np.random.Generator:
    """Counter-based RNG stream for one purpose (init, dropout, split, ...)."""
    key = np.random.SeedSequence(entropy=int(seed), spawn_key=(zlib.crc32(name.encode()),))
    return np.random.Generator(np.random.Philox(key))


def softmax_rows(m):
    """Row-wise softmax with max subtraction; rows sum to 1.

    The work runs on a class-major (C-ordered transposed) copy, so each
    reduction over a row's few classes is one pass down axis 0; numpy
    reduces a short contiguous last axis many times slower. The result is
    C-contiguous.
    """
    t = np.array(np.asarray(m, dtype=np.float64).T, order="C")
    t -= t.max(axis=0)
    np.exp(t, out=t)
    t /= t.sum(axis=0)
    return np.ascontiguousarray(t.T)


def dropout_mask(shape, keep_prob, rng):
    """Boolean keep mask; the caller scales what it keeps by 1/keep_prob.

    Each entry is one uint32 half of the stream's raw 64-bit words, kept
    when below round(keep_prob * 2**32), so the keep rate is exact to
    2**-32. A threshold that rounds up to 2**32 is held at 2**32 - 1,
    and keep_prob == 1 draws nothing.
    """
    if not 0.0 < keep_prob <= 1.0:
        raise ConfigError(f"keep_prob must be in (0, 1], got {keep_prob}")
    if keep_prob == 1.0:
        return np.ones(shape, dtype=bool)
    size = math.prod(shape)
    halves = rng.bit_generator.random_raw((size + 1) // 2).view(np.uint32)[:size]
    threshold = np.uint32(min(round(keep_prob * 2.0 ** 32), 2 ** 32 - 1))
    return (halves < threshold).reshape(shape)


# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Per-parameter Adam accumulators plus the step size and weight decay.

    weight_decay is decoupled: it shrinks the parameter directly and never
    enters the moment estimates.
    """

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    lr: float = 0.01
    weight_decay: float = 0.0

    @classmethod
    def for_param(cls, param, lr=0.01, weight_decay=0.0):
        z = np.zeros_like(np.asarray(param, dtype=np.float64))
        return cls(m=z.copy(), v=z.copy(), lr=lr, weight_decay=weight_decay)


def adam_step(param, grad, state: AdamState):
    """One bias-corrected Adam minimization step; returns the new parameter.

    The moment accumulators and step counter in `state` are updated in place,
    through one scratch array; each operation rounds as in the textbook
    expressions m = b1 m + (1 - b1) g and v = b2 v + (1 - b2) g g, so the
    result is bit-identical to them.
    """
    param = np.asarray(param, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if param.shape != grad.shape or param.shape != state.m.shape:
        raise ValueError(f"adam_step shape mismatch: param {param.shape}, grad {grad.shape}, "
                         f"state {state.m.shape}")
    state.step += 1
    m, v = state.m, state.v
    scratch = np.multiply(grad, 1.0 - ADAM_BETA1)
    m *= ADAM_BETA1
    m += scratch
    np.multiply(grad, 1.0 - ADAM_BETA2, out=scratch)
    scratch *= grad
    v *= ADAM_BETA2
    v += scratch
    # scratch becomes sqrt(v_hat) + eps, then step holds lr * m_hat over it
    np.divide(v, 1.0 - ADAM_BETA2 ** state.step, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += ADAM_EPS
    step = m / (1.0 - ADAM_BETA1 ** state.step)
    step *= state.lr
    step /= scratch
    new = param * (1.0 - state.lr * state.weight_decay)
    new -= step
    return new
