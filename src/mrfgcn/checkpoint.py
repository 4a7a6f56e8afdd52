"""Flat binary checkpoints for the backbone and pairwise parameters.

Layout: a 16-byte header (12-byte magic, uint32 version), a uint32
record count, then one record per array: uint32 ndim, uint64 dims,
float64 row-major data. The program writes and reads five records: W0,
W1, the K storage, the alpha vector and a one-element coefficient-mode
code. Every stored value must be finite and the shapes must fit
together; records are numbered from 1 in error messages.
"""

import io
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigError, StructuralInputError
from .factors import PairwiseParams
from .gcn import GcnParams

_MAGIC = b"MRFGCN-CKPT\x00"
_VERSION = 1
_MODE_CODES = {"none": 0.0, "layer": 1.0, "edge": 2.0}
_CODE_MODES = {v: k for k, v in _MODE_CODES.items()}


def _write_array(fh, arr):
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    fh.write(struct.pack("<I", arr.ndim))
    fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
    fh.write(arr.tobytes())


def _read(fh, size, path):
    """Exactly `size` bytes of an in-memory file; fewer left means it was cut.

    The size is checked before reading, so a size from a damaged header
    never reaches an allocation.
    """
    if size > fh.getbuffer().nbytes - fh.tell():
        raise StructuralInputError(f"{path}: checkpoint truncated")
    return fh.read(size)


def _read_array(fh, path):
    (ndim,) = struct.unpack("<I", _read(fh, 4, path))
    shape = struct.unpack(f"<{ndim}Q", _read(fh, 8 * ndim, path))
    count = int(np.prod(shape, dtype=object))
    data = np.frombuffer(_read(fh, 8 * count, path), dtype="<f8")
    return data.reshape(shape).copy()


def save_checkpoint(path, params: GcnParams, pairwise: PairwiseParams):
    arrays = [params.w0, params.w1, pairwise.raw, pairwise.alpha,
              np.array([_MODE_CODES[pairwise.mode]])]
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(struct.pack("<I", len(arrays)))
        for arr in arrays:
            _write_array(fh, arr)


def load_checkpoint(path):
    """Returns (GcnParams, PairwiseParams) from the five records `save_checkpoint` writes."""
    fh = io.BytesIO(Path(path).read_bytes())
    magic = fh.read(len(_MAGIC))
    if magic != _MAGIC:
        cut = len(magic) < len(_MAGIC) and _MAGIC.startswith(magic)
        raise StructuralInputError(
            f"{path}: {'checkpoint truncated' if cut else 'not a checkpoint file'}")
    (version,) = struct.unpack("<I", _read(fh, 4, path))
    if version != _VERSION:
        raise StructuralInputError(f"{path}: unsupported checkpoint version {version}")
    (count,) = struct.unpack("<I", _read(fh, 4, path))
    arrays = [_read_array(fh, path) for _ in range(count)]
    for number, arr in enumerate(arrays, start=1):
        # a nan or inf weight would evaluate to a plausible but wrong accuracy
        if not np.isfinite(arr).all():
            raise StructuralInputError(f"{path}: non-finite value in checkpoint record {number}")
    if count != 5:
        raise StructuralInputError(f"{path}: unexpected record count {count}")
    w0, w1, raw, alpha, code = arrays
    if w0.ndim != 2 or w1.ndim != 2:
        raise StructuralInputError(f"{path}: backbone weights must be matrices")
    if w1.shape[1] == 0:
        raise StructuralInputError(f"{path}: W1 has no columns, so no classes")
    if w1.shape[0] != w0.shape[1]:
        raise StructuralInputError(
            f"{path}: W1 has {w1.shape[0]} rows but W0 has {w0.shape[1]} columns")
    c = w1.shape[1]
    mode = _CODE_MODES.get(float(code[0])) if code.shape == (1,) else None
    if mode is None:
        raise StructuralInputError(f"{path}: unknown coefficient mode code")
    if raw.shape != (c, c):
        raise StructuralInputError(
            f"{path}: K storage has shape {raw.shape} but W1 has {c} classes")
    if alpha.ndim != 1:
        raise StructuralInputError(f"{path}: alpha has shape {alpha.shape}, not a vector")
    try:
        return GcnParams(w0, w1), PairwiseParams(raw, alpha, mode)
    except ConfigError as exc:      # an alpha count that does not fit the mode
        raise StructuralInputError(f"{path}: {exc}") from None
