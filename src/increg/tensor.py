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
geometry, whose entry ``(col, position)`` is that lowered entry's slot: its
pixel's offset in the image, or the one padding slot ``C*H*W``. im2col is one
row gather, ``np.take(..., axis=0)``, from the image plus one zero row,
``(C*H*W + 1, batch)``, through the table, or through its kept rows for a
compacted conv, so each entry copies ``batch`` contiguous floats. col2im is
the matching scatter-add: it gathers out the entries that read the padding
and sums the rest in one float64 ``bincount`` at ``slot * batch + sample``,
whose bins are the image.
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
    ``(len(rows), positions * batch)``. Padding entries read a zero row
    appended to the image at slot ``C*H*W``.
    """
    x = np.asarray(x)
    if x.ndim != 4 or x.shape[:3] != (geom.in_channels, geom.in_h, geom.in_w):
        raise GeometryError(f"batch shape {x.shape} does not match geometry {geom}")
    table, kept, _ = _lowering(geom, _row_key(rows))
    b = x.shape[3]
    src = x.reshape(geom.in_channels * geom.in_h * geom.in_w, b)
    if kept is not None:
        src = np.concatenate((src, np.zeros((1, b), dtype=src.dtype)))
    # each table entry copies one contiguous row of ``batch`` floats
    return np.take(src, table, axis=0).reshape(len(table), geom.positions * b)


def _row_key(rows) -> bytes | None:
    """A row set as the intp bytes the caches are keyed on; None stays None."""
    return None if rows is None else np.asarray(rows, dtype=np.intp).tobytes()


@functools.lru_cache(maxsize=64)
def _scatter_indices(geom: ConvGeometry) -> np.ndarray:
    """Slot of every (col, position) entry: ``(c*H + r)*W + q`` for image
    pixel ``(c, r, q)``, and the one zero slot ``C*H*W`` for every padding
    entry.

    Shape ``(cols, positions)`` and read-only: one array per geometry is
    cached and shared by im2col's gather and col2im's scatter.
    """
    c, p, h, w = geom.in_channels, geom.pad, geom.in_h, geom.in_w
    slot = np.full((c, h + 2 * p, w + 2 * p), c * h * w, dtype=np.intp)
    slot[:, p : p + h, p : p + w] = np.arange(c * h * w).reshape(c, h, w)
    cm = col_map(geom)
    oh, ow = np.unravel_index(np.arange(geom.positions), (geom.out_h, geom.out_w))
    rows_h = oh[None, :] * geom.stride + cm[:, 1][:, None]   # (cols, positions)
    rows_w = ow[None, :] * geom.stride + cm[:, 2][:, None]
    idx = slot[cm[:, 0][:, None], rows_h, rows_w]
    idx.flags.writeable = False
    return idx


@functools.lru_cache(maxsize=64)
def _lowering(geom: ConvGeometry, rows: bytes | None
              ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """``(table, kept, scatter)``, checked and cached once per (geometry,
    row set): the index table's rows at ``rows`` (intp bytes; all when None),
    the raveled positions of its in-image entries (None if no entry reads
    the padding), and the image slots those entries sum into.
    """
    table = _scatter_indices(geom)
    if rows is not None:
        keep = np.frombuffer(rows, dtype=np.intp)
        if keep.size and (keep.min() < 0 or keep.max() >= geom.cols):
            raise IndexError(f"rows contains indices outside [0, {geom.cols})")
        # strictly increasing keeps the x-row <-> kept-column alignment unambiguous
        if keep.size > 1 and not (np.diff(keep) > 0).all():
            raise ValueError("rows must be strictly increasing")
        table = table[keep]
    scatter = table.ravel()
    inside = scatter < geom.in_channels * geom.in_h * geom.in_w
    kept = None if inside.all() else np.flatnonzero(inside)
    scatter = scatter if kept is None else scatter[kept]
    for a in (table, kept, scatter):
        if a is not None:
            a.flags.writeable = False
    return table, kept, scatter


@functools.lru_cache(maxsize=64)
def _batch_indices(geom: ConvGeometry, rows: bytes | None, batch: int) -> np.ndarray:
    """The plan's scatter for ``batch`` samples, raveled: entry e of sample
    n goes to bin ``scatter[e] * batch + n``."""
    scatter = _lowering(geom, rows)[2]
    idx = (scatter[:, None] * batch + np.arange(batch)).ravel()
    idx.flags.writeable = False
    return idx


def col2im_batch(cols: np.ndarray, geom: ConvGeometry,
                 rows: np.ndarray | None = None) -> np.ndarray:
    """Batched adjoint lowering: (cols, positions * batch) -> (C, H, W, batch).

    ``rows`` names the lowered rows that ``cols`` holds, as for
    :func:`im2col_batch`; the rows left out add nothing. The padding's
    entries, if any, are gathered out first, and the image's entries sum in
    one float64 ``bincount`` at ``slot * batch + sample`` whose bins are
    exactly the output. Each pixel of each sample sums its entries in the
    table's ``(col, position)`` order, as a per-sample bincount would.
    """
    key = _row_key(rows)
    table, kept, _ = _lowering(geom, key)
    cols = np.asarray(cols)
    if cols.ndim != 2 or cols.shape[0] != len(table) or cols.shape[1] % geom.positions:
        raise ShapeError(f"lowered shape {cols.shape} does not match the {len(table)} "
                         f"rows of geometry {geom}")
    b = cols.shape[1] // geom.positions
    flat = cols.reshape(-1, b)                       # one row per table entry
    if kept is not None:
        flat = np.take(flat, kept, axis=0)
    image = geom.in_channels * geom.in_h * geom.in_w
    # bincount gives a fast deterministic scatter-add (stride overlaps sum)
    summed = np.bincount(_batch_indices(geom, key, b), weights=flat.ravel(),
                         minlength=image * b)
    return summed.astype(cols.dtype).reshape(geom.in_channels, geom.in_h, geom.in_w, b)


def maxpool2x2(x: np.ndarray) -> np.ndarray:
    """2x2 max pool with stride 2: (C, H, W, B) -> (C, H/2, W/2, B), H and W even."""
    return np.maximum(np.maximum(x[:, 0::2, 0::2], x[:, 0::2, 1::2]),
                      np.maximum(x[:, 1::2, 0::2], x[:, 1::2, 1::2]))


def maxpool2x2_backward(dy: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`maxpool2x2` at input ``x`` with output ``y``.

    Each window's gradient goes to its first maximum in row-major order, as
    ``argmax`` over the flattened window would pick; the other three
    entries get exactly +0.

    The select multiplies ``dy``'s bit pattern, viewed as the unsigned
    integer of its width, by the 0/1 mask: ``np.where`` branches on every
    element of an unpredictable mask and runs several times slower, while a
    float multiply would write -0 under a negative ``dy``. Times 1 copies
    the routed bits exactly (-0.0, NaN payloads and infinities too), and
    times 0 writes the bits of +0.
    """
    uint = f"u{dy.itemsize}"
    bits = dy.view(uint)
    dx = np.empty_like(x, dtype=dy.dtype)
    out = dx.view(uint)
    taken = np.zeros(y.shape, dtype=bool)            # windows already routed
    for i in (0, 1):
        for j in (0, 1):
            hit = x[:, i::2, j::2] == y
            hit &= ~taken
            taken |= hit
            np.multiply(bits, hit, out=out[:, i::2, j::2])
    return dx
