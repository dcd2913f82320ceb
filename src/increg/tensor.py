"""Convolution geometry, batched im2col/col2im lowering and the 2x2/2 max pool.

Conventions used throughout the package:

* a 4-D weight tensor is a C-contiguous float ndarray of shape
  ``(filters, channels, kernel_h, kernel_w)``,
* an activation batch is ``(batch, channels, height, width)``,
* the lowered view of a kernel is the ``(filters, channels*kernel_h*kernel_w)``
  matrix whose columns walk ``(channel, kernel_row, kernel_col)`` in row-major
  order, so lowering is a plain ``reshape`` and round-trips bit-for-bit.

Every lowering is a gather or a scatter through one cached index table per
geometry, whose entry ``(col, position)`` is that lowered entry's slot: the
image's pixels in image order, then the padding's. im2col is one ``np.take``
from ``[image | zeros]`` through the table, or through its kept rows for a
compacted conv; col2im is the matching scatter-add, one float64 ``bincount``
per chunk of samples, whose image prefix is the result.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


class GeometryError(ValueError):
    """Convolution geometry is inconsistent with the tensor it is applied to."""


class ShapeError(ValueError):
    """Operand shapes do not satisfy an operation's contract."""


@dataclass(frozen=True)
class ConvGeometry:
    """Spatial wiring of one convolution over a fixed input shape.

    ``in_channels/in_h/in_w`` describe the input feature map, ``kernel_h/
    kernel_w`` the kernel window, and ``stride``/``pad`` the usual scan
    parameters. Output dims must come out at least 1.
    """

    in_channels: int
    in_h: int
    in_w: int
    kernel_h: int
    kernel_w: int
    stride: int = 1
    pad: int = 0

    def __post_init__(self):
        if min(self.in_channels, self.in_h, self.in_w, self.kernel_h, self.kernel_w) < 1:
            raise GeometryError(f"all counts must be positive: {self}")
        if self.stride < 1 or self.pad < 0:
            raise GeometryError(f"stride must be >= 1 and pad >= 0: {self}")
        if self.out_h < 1 or self.out_w < 1:
            raise GeometryError(f"kernel does not fit the padded input: {self}")

    @property
    def out_h(self) -> int:
        return (self.in_h + 2 * self.pad - self.kernel_h) // self.stride + 1

    @property
    def out_w(self) -> int:
        return (self.in_w + 2 * self.pad - self.kernel_w) // self.stride + 1

    @property
    def cols(self) -> int:
        """Width of the lowered weight matrix: channels * kernel_h * kernel_w."""
        return self.in_channels * self.kernel_h * self.kernel_w

    @property
    def positions(self) -> int:
        """Number of receptive-field positions: out_h * out_w."""
        return self.out_h * self.out_w


def col_map(geom: ConvGeometry) -> np.ndarray:
    """Per-column (channel, kernel_row, kernel_col) provenance, shape (cols, 3)."""
    c, kh, kw = np.unravel_index(
        np.arange(geom.cols), (geom.in_channels, geom.kernel_h, geom.kernel_w)
    )
    return np.stack([c, kh, kw], axis=1)


def im2col_batch(
    x: np.ndarray, geom: ConvGeometry, rows: np.ndarray | None = None
) -> np.ndarray:
    """Batched lowering: (batch, C, H, W) -> (batch, cols, positions).

    ``rows``, if given, is a strictly increasing array of lowered-row
    indices to emit (a compacted conv builds only the rows its kept columns
    read), and the output is ``(batch, len(rows), positions)``.
    """
    x = np.asarray(x)
    if x.ndim != 4 or x.shape[1:] != (geom.in_channels, geom.in_h, geom.in_w):
        raise GeometryError(f"batch shape {x.shape} does not match geometry {geom}")
    if rows is None:
        idx = _scatter_indices(geom)
    else:
        idx = _row_indices(geom, np.asarray(rows, dtype=np.intp).tobytes())
    b, image = len(x), geom.in_channels * geom.in_h * geom.in_w
    if geom.pad:
        src = np.empty((b, _slots(geom)), dtype=x.dtype)
        src[:, :image] = x.reshape(b, image)
        src[:, image:] = 0
    else:
        src = x.reshape(b, image)
    return np.take(src, idx, axis=1)


def _slots(geom: ConvGeometry) -> int:
    """Pixels of the padded image: C * (H + 2 pad) * (W + 2 pad)."""
    return geom.in_channels * (geom.in_h + 2 * geom.pad) * (geom.in_w + 2 * geom.pad)


@functools.lru_cache(maxsize=64)
def _scatter_indices(geom: ConvGeometry) -> np.ndarray:
    """Slot of every (col, position) entry: ``(c*H + r)*W + q`` for image
    pixel ``(c, r, q)``, then the padding's pixels in padded-image order.

    Shape ``(cols, positions)`` and read-only: one array per geometry is
    cached and shared by im2col's gather and col2im's scatter.
    """
    p, h, w = geom.pad, geom.in_h, geom.in_w
    inside = np.zeros((geom.in_channels, h + 2 * p, w + 2 * p), dtype=bool)
    inside[:, p : p + h, p : p + w] = True
    slot = np.empty(inside.shape, dtype=np.intp)     # of each padded pixel
    slot[inside] = np.arange(inside.sum())
    slot[~inside] = np.arange(inside.sum(), inside.size)
    cm = col_map(geom)
    oh, ow = np.unravel_index(np.arange(geom.positions), (geom.out_h, geom.out_w))
    rows_h = oh[None, :] * geom.stride + cm[:, 1][:, None]   # (cols, positions)
    rows_w = ow[None, :] * geom.stride + cm[:, 2][:, None]
    idx = slot[cm[:, 0][:, None], rows_h, rows_w]
    idx.flags.writeable = False
    return idx


@functools.lru_cache(maxsize=64)
def _row_indices(geom: ConvGeometry, rows: bytes) -> np.ndarray:
    """The index table's rows at ``rows`` (intp bytes), checked and cached.

    A compacted conv lowers the same kept rows on every call, so the set is
    validated and sliced once per (geometry, row set).
    """
    keep = np.frombuffer(rows, dtype=np.intp)
    if keep.size and (keep.min() < 0 or keep.max() >= geom.cols):
        raise IndexError(f"rows contains indices outside [0, {geom.cols})")
    # strictly increasing keeps the x-row <-> kept-column alignment unambiguous
    if keep.size > 1 and not (np.diff(keep) > 0).all():
        raise ValueError("rows must be strictly increasing")
    idx = _scatter_indices(geom)[keep]
    idx.flags.writeable = False
    return idx


# Cap on the entries one col2im bincount sums. A larger table falls out of
# cache: on convnet layer 3 at batch 32, one bincount over the whole batch
# was about 4x slower than one per sample.
_CHUNK_ENTRIES = 16384


@functools.lru_cache(maxsize=64)
def _scatter_plan(geom: ConvGeometry) -> tuple[np.ndarray | None, np.ndarray, int]:
    """``(kept, table, size)``: one sample's scatter. If at least a quarter
    of the entries land in the padding, col2im first gathers the in-image
    entries at raveled positions ``kept``, and sums them into the ``size``
    image slots; else ``kept`` is None and all entries sum into every slot.
    On lightly padded maps the gather costs more than the padding it skips.
    """
    table = _scatter_indices(geom).ravel()
    image = geom.in_channels * geom.in_h * geom.in_w
    inside = table < image
    if 4 * (table.size - np.count_nonzero(inside)) < table.size:
        return None, table, _slots(geom)
    kept = np.flatnonzero(inside)
    table = table[kept]
    kept.flags.writeable = table.flags.writeable = False
    return kept, table, image


@functools.lru_cache(maxsize=64)
def _chunk_indices(geom: ConvGeometry, samples: int) -> np.ndarray:
    """The scatter table of ``samples`` consecutive images, raveled: sample
    s's slots are the plan's table offset by s times its ``size``."""
    _, table, size = _scatter_plan(geom)
    idx = (np.arange(samples)[:, None] * size + table[None, :]).ravel()
    idx.flags.writeable = False
    return idx


def col2im_batch(cols: np.ndarray, geom: ConvGeometry) -> np.ndarray:
    """Batched adjoint lowering: (batch, cols, positions) -> (batch, C, H, W).

    Overlapping windows sum in float64, in the table's order within each
    sample, so the result depends neither on the chunking nor on whether the
    padding's entries are gathered out; each sum's image prefix is the output.
    """
    cols = np.asarray(cols)
    b = cols.shape[0]
    image = geom.in_channels * geom.in_h * geom.in_w
    kept, table, size = _scatter_plan(geom)
    per = max(_CHUNK_ENTRIES // max(table.size, 1), 1)   # empty if all read padding
    flat = cols.reshape(b, geom.cols * geom.positions)
    out = np.empty((b, image), dtype=cols.dtype)
    for s in range(0, b, per):
        n = min(per, b - s)
        w = flat[s : s + n] if kept is None else np.take(flat[s : s + n], kept, axis=1)
        # bincount gives a fast deterministic scatter-add (stride overlaps sum)
        summed = np.bincount(_chunk_indices(geom, n), weights=w.ravel(),
                             minlength=n * size)
        out[s : s + n] = summed.reshape(n, size)[:, :image]
    return out.reshape(b, geom.in_channels, geom.in_h, geom.in_w)


def maxpool2x2(x: np.ndarray) -> np.ndarray:
    """2x2 max pool with stride 2: (B, C, H, W) -> (B, C, H/2, W/2), H and W even."""
    return np.maximum(np.maximum(x[:, :, 0::2, 0::2], x[:, :, 0::2, 1::2]),
                      np.maximum(x[:, :, 1::2, 0::2], x[:, :, 1::2, 1::2]))


def maxpool2x2_backward(dy: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`maxpool2x2` at input ``x`` with output ``y``.

    Each window's gradient goes to its first maximum in row-major order, as
    ``argmax`` over the flattened window would pick; the other three
    entries get exactly zero.
    """
    dx = np.empty_like(x, dtype=dy.dtype)
    taken = np.zeros(y.shape, dtype=bool)            # windows already routed
    for i in (0, 1):
        for j in (0, 1):
            hit = x[:, :, i::2, j::2] == y
            hit &= ~taken
            taken |= hit
            dx[:, :, i::2, j::2] = np.where(hit, dy, 0)
    return dx
