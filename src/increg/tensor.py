"""Convolution geometry, batched im2col/col2im lowering and the 2x2/2 max pool.

Conventions used throughout the package:

* a 4-D weight tensor is a C-contiguous float ndarray of shape
  ``(filters, channels, kernel_h, kernel_w)``,
* inside the engine an activation batch is batch-minor, ``(channels,
  height, width, batch)``, so a whole minibatch lowers to one matrix and a
  conv is one GEMM; ``network.input_batch`` makes the one transpose from the
  ``(batch, channels, height, width)`` that the public entry points take,
* the lowered view of a kernel is the ``(filters, channels*kernel_h*kernel_w)``
  matrix whose columns walk ``(channel, kernel_row, kernel_col)`` in row-major
  order, so lowering is a plain ``reshape`` and round-trips bit-for-bit.

Every lowering is a gather or a scatter through one cached index table per
geometry, whose entry ``(col, position)`` is that lowered entry's slot: the
image's pixels in image order, then the padding's. im2col is one row gather,
``np.take(..., axis=0)``, from the ``(slots, batch)`` array ``[image |
zeros]`` through the table, or through its kept rows for a compacted conv,
so each entry copies ``batch`` contiguous floats; col2im is the matching
scatter-add, one float64 ``bincount`` at ``slot * batch + sample``, whose
image prefix is the result.
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
    """Batched lowering: (C, H, W, batch) -> (cols, positions * batch).

    Entry ``(col, p * batch + n)`` is sample n's pixel under lowered row col
    at position p, so the whole batch is one matrix. ``rows``, if given, is
    a strictly increasing array of lowered-row indices to emit (a compacted
    conv builds only the rows its kept columns read), and the output is
    ``(len(rows), positions * batch)``.
    """
    x = np.asarray(x)
    if x.ndim != 4 or x.shape[:3] != (geom.in_channels, geom.in_h, geom.in_w):
        raise GeometryError(f"batch shape {x.shape} does not match geometry {geom}")
    idx = _row_indices(geom, _row_key(rows))
    b, image = x.shape[3], geom.in_channels * geom.in_h * geom.in_w
    if geom.pad:
        src = np.empty((_slots(geom), b), dtype=x.dtype)
        src[:image] = x.reshape(image, b)
        src[image:] = 0
    else:
        src = x.reshape(image, b)
    # each table entry copies one contiguous row of ``batch`` floats
    return np.take(src, idx, axis=0).reshape(len(idx), geom.positions * b)


def _row_key(rows) -> bytes | None:
    """A row set as the intp bytes the caches are keyed on; None stays None."""
    return None if rows is None else np.asarray(rows, dtype=np.intp).tobytes()


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
def _row_indices(geom: ConvGeometry, rows: bytes | None) -> np.ndarray:
    """The index table's rows at ``rows`` (intp bytes), checked and cached;
    the whole table when ``rows`` is None.

    A compacted conv lowers the same kept rows on every call, so the set is
    validated and sliced once per (geometry, row set).
    """
    if rows is None:
        return _scatter_indices(geom)
    keep = np.frombuffer(rows, dtype=np.intp)
    if keep.size and (keep.min() < 0 or keep.max() >= geom.cols):
        raise IndexError(f"rows contains indices outside [0, {geom.cols})")
    # strictly increasing keeps the x-row <-> kept-column alignment unambiguous
    if keep.size > 1 and not (np.diff(keep) > 0).all():
        raise ValueError("rows must be strictly increasing")
    idx = _scatter_indices(geom)[keep]
    idx.flags.writeable = False
    return idx


@functools.lru_cache(maxsize=64)
def _scatter_plan(geom: ConvGeometry, rows: bytes | None
                  ) -> tuple[np.ndarray | None, np.ndarray, int]:
    """``(kept, table, size)``: one sample's scatter of the rows at ``rows``.
    If at least a quarter of the entries land in the padding, col2im first
    gathers the in-image entries at raveled positions ``kept``, and sums
    them into the ``size`` image slots; else ``kept`` is None and all
    entries sum into every slot. On lightly padded maps the gather costs
    more than the padding it skips.
    """
    table = _row_indices(geom, rows).ravel()
    image = geom.in_channels * geom.in_h * geom.in_w
    inside = table < image
    if 4 * (table.size - np.count_nonzero(inside)) < table.size:
        return None, table, _slots(geom)
    kept = np.flatnonzero(inside)
    table = table[kept]
    kept.flags.writeable = table.flags.writeable = False
    return kept, table, image


@functools.lru_cache(maxsize=64)
def _batch_indices(geom: ConvGeometry, rows: bytes | None, batch: int) -> np.ndarray:
    """The plan's scatter for ``batch`` samples, raveled: entry e of sample
    n goes to bin ``table[e] * batch + n``."""
    table = _scatter_plan(geom, rows)[1]
    idx = (table[:, None] * batch + np.arange(batch)).ravel()
    idx.flags.writeable = False
    return idx


def col2im_batch(cols: np.ndarray, geom: ConvGeometry,
                 rows: np.ndarray | None = None) -> np.ndarray:
    """Batched adjoint lowering: (cols, positions * batch) -> (C, H, W, batch).

    ``rows`` names the lowered rows that ``cols`` holds, as for
    :func:`im2col_batch`; the rows left out add nothing. Every entry sums in
    one float64 ``bincount`` at ``slot * batch + sample``, so each pixel of
    each sample sums its entries in the table's ``(col, position)`` order, as
    a per-sample bincount would, whether or not the padding's entries are
    gathered out first; each sum's image prefix is the output.
    """
    key = _row_key(rows)
    kept, _, size = _scatter_plan(geom, key)
    cols = np.asarray(cols)
    k = len(_row_indices(geom, key))
    if cols.ndim != 2 or cols.shape[0] != k or cols.shape[1] % geom.positions:
        raise ShapeError(f"lowered shape {cols.shape} does not match the {k} rows "
                         f"of geometry {geom}")
    b = cols.shape[1] // geom.positions
    flat = cols.reshape(-1, b)                       # one row per table entry
    if kept is not None:
        flat = np.take(flat, kept, axis=0)
    # bincount gives a fast deterministic scatter-add (stride overlaps sum)
    summed = np.bincount(_batch_indices(geom, key, b), weights=flat.ravel(),
                         minlength=size * b)
    image = geom.in_channels * geom.in_h * geom.in_w
    return summed[: image * b].astype(cols.dtype).reshape(
        geom.in_channels, geom.in_h, geom.in_w, b)


def maxpool2x2(x: np.ndarray) -> np.ndarray:
    """2x2 max pool with stride 2: (C, H, W, B) -> (C, H/2, W/2, B), H and W even."""
    return np.maximum(np.maximum(x[:, 0::2, 0::2], x[:, 0::2, 1::2]),
                      np.maximum(x[:, 1::2, 0::2], x[:, 1::2, 1::2]))


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
            hit = x[:, i::2, j::2] == y
            hit &= ~taken
            taken |= hit
            dx[:, i::2, j::2] = np.where(hit, dy, 0)
    return dx
