"""Lowering, im2col/col2im, and the layers' GEMMs against loop-nest oracles.

Activations are batch-minor, ``(C, H, W, B)``, as inside the engine; a
lowered matrix is ``(cols, positions * B)``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from increg.network import apply_layer, build_network, layer_backward
from increg import tensor
from increg.tensor import (
    ConvGeometry,
    GeometryError,
    ShapeError,
    col2im_batch,
    col_map,
    im2col_batch,
    maxpool2x2,
    maxpool2x2_backward,
)


def conv2d_direct(x, w, b, stride, pad):
    """Six-loop reference convolution, float64 accumulation."""
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    xp = np.zeros((n, c, h + 2 * pad, wd + 2 * pad), dtype=np.float64)
    xp[:, :, pad : pad + h, pad : pad + wd] = x
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wd + 2 * pad - kw) // stride + 1
    out = np.zeros((n, f, oh, ow), dtype=np.float64)
    for img in range(n):
        for fi in range(f):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for ci in range(c):
                        for u in range(kh):
                            for v in range(kw):
                                acc += (
                                    w[fi, ci, u, v]
                                    * xp[img, ci, i * stride + u, j * stride + v]
                                )
                    out[img, fi, i, j] = acc + (b[fi] if b is not None else 0.0)
    return out


def gemm_loops(a, b):
    """Triple-loop matrix product oracle in float64."""
    m, k = a.shape
    _, n = b.shape
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            s = 0.0
            for t in range(k):
                s += float(a[i, t]) * float(b[t, j])
            out[i, j] = s
    return out


def conv_net(g, filters, dtype=np.float32):
    """A conv layer over geometry g, for running the production forward, and
    the fc that a net must end in."""
    defs = [{"kind": "conv", "filters": filters, "kernel": [g.kernel_h, g.kernel_w],
             "stride": g.stride, "pad": g.pad}, {"kind": "fc", "out_features": 1},
            {"kind": "softmax-xent"}]
    return build_network(defs, (g.in_channels, g.in_h, g.in_w), dtype=dtype)


def maxpool_loops(x, dy):
    """2x2/2 max pool and its gradient by loops; ties go to the first
    maximum in row-major window order."""
    c, h, w, b = x.shape
    y = np.zeros((c, h // 2, w // 2, b), dtype=x.dtype)
    dx = np.zeros_like(x)
    for n in range(b):
        for ch in range(c):
            for i in range(h // 2):
                for j in range(w // 2):
                    window = [(2 * i + u, 2 * j + v) for u in (0, 1) for v in (0, 1)]
                    best = window[0]
                    for pos in window[1:]:
                        if x[ch, :, :, n][pos] > x[ch, :, :, n][best]:
                            best = pos
                    y[ch, i, j, n] = x[ch, :, :, n][best]
                    dx[ch, :, :, n][best] = dy[ch, i, j, n]
    return y, dx


def batch_minor(x):
    """A (B, C, H, W) batch in the engine's (C, H, W, B) layout."""
    return np.ascontiguousarray(x.transpose(1, 2, 3, 0))


def im2col_window_oracle(x, g):
    """im2col from a strided sliding-window view of the padded batch."""
    p = g.pad
    xp = np.pad(x, ((0, 0), (p, p), (p, p), (0, 0)))
    win = sliding_window_view(xp, (g.kernel_h, g.kernel_w), axis=(1, 2))
    win = win[:, :: g.stride, :: g.stride]                # (C, Ho, Wo, B, kh, kw)
    return win.transpose(0, 4, 5, 1, 2, 3).reshape(g.cols, g.positions * x.shape[3])


def col2im_bincount_reference(cols, g):
    """One float64 bincount per sample over indices built here by loops."""
    hp, wp = g.in_h + 2 * g.pad, g.in_w + 2 * g.pad
    idx = np.empty((g.cols, g.positions), dtype=np.intp)
    for col, (c, u, v) in enumerate(col_map(g)):
        for i in range(g.out_h):
            for j in range(g.out_w):
                idx[col, i * g.out_w + j] = ((c * hp + i * g.stride + u) * wp
                                             + j * g.stride + v)
    per_sample = cols.reshape(g.cols, g.positions, -1)   # (cols, positions, B)
    out = np.empty((g.in_channels, hp, wp, per_sample.shape[2]), dtype=cols.dtype)
    for n in range(per_sample.shape[2]):
        flat = np.bincount(idx.ravel(), weights=per_sample[:, :, n].ravel(),
                           minlength=g.in_channels * hp * wp)
        out[..., n] = flat.reshape(g.in_channels, hp, wp)
    return out[:, g.pad : g.pad + g.in_h, g.pad : g.pad + g.in_w]


def random_geometry(rng, span=6):
    """A random geometry whose image is the kernel plus up to ``span - 1``."""
    c = int(rng.integers(1, 4))
    kh = int(rng.integers(1, 4))
    kw = int(rng.integers(1, 4))
    stride = int(rng.integers(1, 3))
    pad = int(rng.integers(0, 3))
    h = int(rng.integers(kh, kh + span))
    w = int(rng.integers(kw, kw + span))
    # window must fit at least once after padding
    if h + 2 * pad < kh or w + 2 * pad < kw:
        return random_geometry(rng, span)
    return ConvGeometry(in_channels=c, in_h=h, in_w=w, kernel_h=kh,
                        kernel_w=kw, stride=stride, pad=pad)


def window_pixels(g):
    """Per (col, position) entry: its pixel's channel, row and column in the
    unpadded image (row or column outside it in the padding), by loops."""
    c = np.empty((g.cols, g.positions), dtype=np.intp)
    r, q = np.empty_like(c), np.empty_like(c)
    for col, (ch, u, v) in enumerate(col_map(g)):
        for i in range(g.out_h):
            for j in range(g.out_w):
                pos = i * g.out_w + j
                c[col, pos] = ch
                r[col, pos] = i * g.stride + u - g.pad
                q[col, pos] = j * g.stride + v - g.pad
    return c, r, q


def in_image(g):
    """Which (col, position) entries read a pixel of the image, not padding."""
    _, r, q = window_pixels(g)
    return (r >= 0) & (r < g.in_h) & (q >= 0) & (q < g.in_w)


def summed_entries(g):
    """Entries a sample's col2im sums: the in-image ones, since it gathers
    them out whenever any entry reads the padding."""
    return int(in_image(g).sum())


def col2im_counting_entries(cols, g, monkeypatch):
    """col2im_batch's result and the entry count of each bincount it ran."""
    sizes, bincount = [], np.bincount
    with monkeypatch.context() as m:
        m.setattr(np, "bincount", lambda idx, **kw: sizes.append(len(idx))
                  or bincount(idx, **kw))
        return col2im_batch(cols, g), sizes


def mixed_geometries(rng):
    """50 random geometries, ten of them on larger, lightly padded images."""
    return ([random_geometry(rng) for _ in range(40)]
            + [random_geometry(rng, span=14) for _ in range(10)])


class TestGeometry:
    def test_output_dims(self):
        g = ConvGeometry(in_channels=3, in_h=32, in_w=32, kernel_h=5,
                         kernel_w=5, stride=1, pad=2)
        assert (g.out_h, g.out_w) == (32, 32)
        assert g.cols == 75
        assert g.positions == 1024

    def test_strided_dims(self):
        g = ConvGeometry(in_channels=1, in_h=8, in_w=8, kernel_h=4,
                         kernel_w=4, stride=2, pad=1)
        assert (g.out_h, g.out_w) == (4, 4)

    @pytest.mark.parametrize("bad", [
        dict(in_channels=0, in_h=4, in_w=4, kernel_h=3, kernel_w=3),
        dict(in_channels=1, in_h=2, in_w=4, kernel_h=3, kernel_w=3),
        dict(in_channels=1, in_h=4, in_w=4, kernel_h=3, kernel_w=3, stride=0),
        dict(in_channels=1, in_h=4, in_w=4, kernel_h=3, kernel_w=3, pad=-1),
    ])
    def test_rejects_bad_geometry(self, bad):
        with pytest.raises(GeometryError):
            ConvGeometry(**bad)

    def test_col_map_walks_kernel_positions_row_major(self):
        g = ConvGeometry(in_channels=2, in_h=4, in_w=4, kernel_h=2, kernel_w=3)
        m = col_map(g)
        assert m.shape == (12, 3)
        assert m[0].tolist() == [0, 0, 0]
        assert m[1].tolist() == [0, 0, 1]
        assert m[3].tolist() == [0, 1, 0]
        assert m[6].tolist() == [1, 0, 0]
        dims = (g.in_channels, g.kernel_h, g.kernel_w)
        assert np.ravel_multi_index(tuple(m.T), dims).tolist() == list(range(g.cols))


class TestLowering:
    def test_columns_follow_col_map(self):
        # the layers lower a kernel by reshape; its columns are col_map's
        rng = np.random.default_rng(1)
        w = rng.standard_normal((2, 3, 2, 2)).astype(np.float32)
        g = ConvGeometry(in_channels=3, in_h=2, in_w=2, kernel_h=2, kernel_w=2)
        low = w.reshape(2, g.cols)
        for j, (c, u, v) in enumerate(col_map(g)):
            assert np.array_equal(low[:, j], w[:, c, u, v])


class TestIm2col:
    def test_identity_kernel_geometry(self):
        # 1x1 kernel: the patch matrix is the flattened image
        g = ConvGeometry(in_channels=2, in_h=3, in_w=3, kernel_h=1, kernel_w=1)
        x = np.arange(18, dtype=np.float32).reshape(2, 3, 3, 1)
        cols = im2col_batch(x, g)
        assert np.array_equal(cols, x.reshape(2, 9))

    def test_manual_3x3_patch(self):
        g = ConvGeometry(in_channels=1, in_h=3, in_w=3, kernel_h=2, kernel_w=2)
        x = np.arange(9, dtype=np.float32).reshape(1, 3, 3, 1)
        cols = im2col_batch(x, g)
        # position 0 is the top-left window [[0,1],[3,4]]
        assert cols[:, 0].tolist() == [0, 1, 3, 4]
        assert cols[:, 3].tolist() == [4, 5, 7, 8]

    def test_padding_zeros(self):
        g = ConvGeometry(in_channels=1, in_h=2, in_w=2, kernel_h=2,
                         kernel_w=2, pad=1)
        x = np.ones((1, 2, 2, 1), dtype=np.float32)
        cols = im2col_batch(x, g)
        assert cols.shape == (4, 9)
        # the first window covers only the padded corner and x[0,0]
        assert cols[:, 0].tolist() == [0, 0, 0, 1]

    @pytest.mark.parametrize("batch", [1, 33])
    def test_matches_window_oracle_50_geometries(self, batch):
        rng = np.random.default_rng(31 + batch)
        geoms = [random_geometry(rng) for _ in range(50)]
        assert any(g.stride == 2 for g in geoms) and any(g.pad for g in geoms)
        for g in geoms:
            x = rng.standard_normal((g.in_channels, g.in_h, g.in_w, batch)).astype(np.float32)
            got = im2col_batch(x, g)
            want = im2col_window_oracle(x, g)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_kept_rows_and_strided_input_match_window_oracle(self):
        rng = np.random.default_rng(35)
        for g in mixed_geometries(rng):
            # a transposed view, which is not C-contiguous unless C*H*W is 1
            x = rng.standard_normal((3, g.in_w, g.in_h, g.in_channels)).T
            assert x.flags.c_contiguous == (g.in_channels * g.in_h * g.in_w == 1)
            want = im2col_window_oracle(np.ascontiguousarray(x), g)
            assert np.array_equal(im2col_batch(x, g), want)
            keep = np.flatnonzero(rng.random(g.cols) < 0.5)
            assert np.array_equal(im2col_batch(x, g, rows=keep), want[keep])

    def test_gemm_conv_matches_direct_50_geometries(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            g = random_geometry(rng)
            f = int(rng.integers(1, 5))
            net = conv_net(g, f)
            x = rng.standard_normal((2, g.in_channels, g.in_h, g.in_w)).astype(np.float32)
            w = net.weights[0] = rng.standard_normal(net.weights[0].shape).astype(np.float32)
            b = net.biases[0] = rng.standard_normal(f).astype(np.float32)
            got, _ = apply_layer(net, 0, batch_minor(x))
            want = batch_minor(conv2d_direct(x, w, b, g.stride, g.pad))
            denom = max(float(np.abs(want).max()), 1e-8)
            assert float(np.abs(got - want).max()) / denom <= 1e-6

    def test_subset_rows_match_full(self):
        rng = np.random.default_rng(11)
        g = ConvGeometry(in_channels=3, in_h=6, in_w=5, kernel_h=3,
                         kernel_w=2, stride=1, pad=1)
        x = rng.standard_normal((3, 6, 5, 4)).astype(np.float32)
        full = im2col_batch(x, g)
        keep = np.array([0, 3, 7, 10, 17])
        sub = im2col_batch(x, g, rows=keep)
        assert np.array_equal(sub, full[keep])

    def test_subset_rejects_unsorted(self):
        g = ConvGeometry(in_channels=1, in_h=4, in_w=4, kernel_h=2, kernel_w=2)
        x = np.zeros((1, 4, 4, 1), dtype=np.float32)
        for _ in range(2):  # a rejected row set is never cached
            with pytest.raises(ValueError):
                im2col_batch(x, g, rows=np.array([2, 1]))
            with pytest.raises(IndexError):
                im2col_batch(x, g, rows=np.array([0, 4]))

    def test_subset_cache_keeps_geometry_and_rows_apart(self):
        # kept-row gathers are cached per (geometry, row set); alternating
        # either one must keep returning that pair's own rows
        rng = np.random.default_rng(12)
        g1 = ConvGeometry(in_channels=2, in_h=5, in_w=5, kernel_h=2, kernel_w=2)
        g2 = ConvGeometry(in_channels=2, in_h=5, in_w=5, kernel_h=2, kernel_w=2,
                          stride=2, pad=1)
        keeps = (np.array([0, 2, 5]), np.array([1, 2, 3, 7]), [0, 2, 5])
        for g in (g1, g2, g1):
            x = rng.standard_normal((2, 5, 5, 3)).astype(np.float32)
            full = im2col_batch(x, g)
            for keep in keeps:
                assert np.array_equal(im2col_batch(x, g, rows=keep),
                                      full[np.asarray(keep)])

    def test_shape_mismatch(self):
        g = ConvGeometry(in_channels=2, in_h=4, in_w=4, kernel_h=2, kernel_w=2)
        with pytest.raises(GeometryError):
            im2col_batch(np.zeros((1, 4, 4, 1), dtype=np.float32), g)


class TestIndexTable:
    """The one table both lowerings share: image slots first, padding last."""

    def test_image_entries_take_their_image_offset(self):
        rng = np.random.default_rng(36)
        for g in mixed_geometries(rng):
            table = tensor._scatter_indices(g)
            c, r, q = window_pixels(g)
            inside = in_image(g)
            image = g.in_channels * g.in_h * g.in_w
            assert np.array_equal(table < image, inside)
            assert np.array_equal(table[inside], ((c * g.in_h + r) * g.in_w + q)[inside])

    def test_image_slots_one_to_one_and_padding_reads_one_slot(self):
        # one slot per image pixel and one image pixel per slot; every
        # padding entry reads the one zero slot C*H*W
        rng = np.random.default_rng(37)
        for g in mixed_geometries(rng):
            hp, wp = g.in_h + 2 * g.pad, g.in_w + 2 * g.pad
            c, r, q = window_pixels(g)
            inside = in_image(g)
            padded = ((c * hp + r + g.pad) * wp + q + g.pad)[inside]
            table = tensor._scatter_indices(g)
            image = g.in_channels * g.in_h * g.in_w
            assert (table[~inside] == image).all()
            assert table[inside].min(initial=0) >= 0
            slot_of = np.full(g.in_channels * hp * wp, -1)
            slot_of[padded] = table[inside]
            assert np.array_equal(slot_of[padded], table[inside])  # a function of the pixel
            seen = slot_of[slot_of >= 0]
            assert len(np.unique(seen)) == len(seen)               # and one-to-one

    def test_all_ones_lower_to_zero_exactly_in_the_padding(self):
        rng = np.random.default_rng(38)
        for g in mixed_geometries(rng):
            ones = np.ones((g.in_channels, g.in_h, g.in_w, 2), dtype=np.float32)
            cols = im2col_batch(ones, g)
            # column p * 2 + n is sample n at position p
            assert np.array_equal(cols == 0, np.repeat(~in_image(g), 2, axis=1))


class TestCol2im:
    def test_adjoint_of_im2col(self):
        # <im2col(x), C> == <x, col2im(C)> for all C: the scatter is the
        # exact transpose of the gather
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_geometry(rng)
            x = rng.standard_normal((g.in_channels, g.in_h, g.in_w, 2))
            c = rng.standard_normal((g.cols, g.positions * 2))
            lhs = float(np.sum(im2col_batch(x, g) * c))
            rhs = float(np.sum(x * col2im_batch(c, g)))
            assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), 1.0)

    def test_overlap_accumulates(self):
        g = ConvGeometry(in_channels=1, in_h=3, in_w=3, kernel_h=2, kernel_w=2)
        ones = np.ones((g.cols, g.positions))
        back = col2im_batch(ones, g)[..., 0]
        # the center pixel is covered by all four windows
        assert back[0, 1, 1] == 4.0
        assert back[0, 0, 0] == 1.0

    def test_alternating_geometries_stay_adjoint(self):
        # scatter indices are cached per geometry; switching back and forth
        # must keep each layer's own indices
        rng = np.random.default_rng(21)
        g1 = ConvGeometry(in_channels=2, in_h=6, in_w=5, kernel_h=3,
                          kernel_w=2, stride=2, pad=1)
        g2 = ConvGeometry(in_channels=3, in_h=4, in_w=4, kernel_h=2, kernel_w=2)
        for g in (g1, g2, g1, g2, g1):
            x = rng.standard_normal((g.in_channels, g.in_h, g.in_w, 3))
            c = rng.standard_normal((g.cols, g.positions * 3))
            back = col2im_batch(c, g)
            assert back.shape == x.shape
            lhs = float(np.sum(im2col_batch(x, g) * c))
            rhs = float(np.sum(x * back))
            assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), 1.0)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(9)
        g = ConvGeometry(in_channels=2, in_h=5, in_w=4, kernel_h=3,
                         kernel_w=3, stride=2, pad=1)
        cols = rng.standard_normal((g.cols, g.positions * 3))
        batch = col2im_batch(cols, g)
        for i in range(3):
            single = np.ascontiguousarray(cols.reshape(g.cols, g.positions, 3)[:, :, i])
            assert np.array_equal(batch[..., i], col2im_batch(single, g)[..., 0])

    @pytest.mark.parametrize("batch", [1, 33])
    def test_matches_bincount_reference_50_geometries(self, batch, monkeypatch):
        rng = np.random.default_rng(51 + batch)
        geoms = mixed_geometries(rng)
        # geometries that read the padding, whose entries col2im gathers
        # out first, and geometries that do not
        assert {summed_entries(g) < g.cols * g.positions for g in geoms} == {True, False}
        for g in geoms:
            for dtype, bits in ((np.float32, np.uint32), (np.float64, np.uint64)):
                cols = rng.standard_normal((g.cols, g.positions * batch)).astype(dtype)
                got, sizes = col2im_counting_entries(cols, g, monkeypatch)
                assert sizes == [batch * summed_entries(g)]
                want = np.ascontiguousarray(col2im_bincount_reference(cols, g))
                assert got.shape == want.shape and got.dtype == dtype
                assert np.array_equal(got.view(bits), want.view(bits))

    def test_kept_rows_scatter_as_zeroed_rows(self):
        # a compacted conv's scatter: the rows left out add exactly nothing
        rng = np.random.default_rng(53)
        for g in mixed_geometries(rng):
            keep = np.flatnonzero(rng.random(g.cols) < 0.5)
            full = np.zeros((g.cols, g.positions * 3), dtype=np.float32)
            full[keep] = rng.standard_normal((len(keep), full.shape[1]))
            got = col2im_batch(full[keep], g, rows=keep)
            assert got.tobytes() == col2im_batch(full, g).tobytes()

    @pytest.mark.parametrize("geom, batch", [
        # toy layer 3: 288 entries a sample, none in the padding
        (ConvGeometry(in_channels=8, in_h=4, in_w=4, kernel_h=2, kernel_w=2), 33),
        # 2,187 entries a sample, 14% in the padding, so the in-image ones
        # are summed
        (ConvGeometry(in_channels=3, in_h=9, in_w=9, kernel_h=3, kernel_w=3,
                      pad=1), 22),
        # 19,200 entries a sample
        (ConvGeometry(in_channels=3, in_h=16, in_w=16, kernel_h=5, kernel_w=5,
                      pad=2), 3),
        # convnet layer 3: 51% of 12,800 entries in the padding, so the 6,272
        # in-image ones are summed
        (ConvGeometry(in_channels=32, in_h=4, in_w=4, kernel_h=5, kernel_w=5,
                      pad=2), 5),
    ])
    def test_one_scatter_matches_per_sample_bincount(self, geom, batch, monkeypatch):
        summed = summed_entries(geom)
        rng = np.random.default_rng(summed)
        for dtype, bits in ((np.float32, np.uint32), (np.float64, np.uint64)):
            cols = rng.standard_normal((geom.cols, geom.positions * batch)).astype(dtype)
            got, sizes = col2im_counting_entries(cols, geom, monkeypatch)
            # one bincount sums exactly these entries of the whole batch
            assert sizes == [batch * summed]
            want = col2im_bincount_reference(cols, geom)
            assert got.shape == want.shape and got.dtype == dtype
            assert np.array_equal(got.view(bits), np.ascontiguousarray(want).view(bits))


class TestConvWeightGradient:
    def test_gemm_matches_float64_einsum_50_geometries(self):
        # criterion 4's conv oracle form and tolerance, on the backward
        rng = np.random.default_rng(8)
        for dtype in (np.float64, np.float32):
            worst = 0.0
            for _ in range(50):
                g = random_geometry(rng)
                filters = int(rng.integers(1, 5))
                net = conv_net(g, filters, dtype=dtype)
                x = rng.standard_normal((g.in_channels, g.in_h, g.in_w, 4)).astype(dtype)
                y, cache = apply_layer(net, 0, x)
                dy = rng.standard_normal(y.shape).astype(dtype)
                _, dw, _ = layer_backward(net, 0, cache, dy, need_dx=False)
                want = np.einsum("nq,kq->nk",
                                 dy.reshape(filters, -1).astype(np.float64),
                                 im2col_batch(x.astype(np.float64), g))
                got = dw.reshape(filters, g.cols)
                assert dw.dtype == dtype
                rel = np.abs(got - want).max() / max(1.0, np.abs(want).max())
                worst = max(worst, float(rel))
            assert worst <= 1e-6, (dtype, worst)


def special_values(dtype):
    """-0.0, both infinities and a negative NaN with a payload, in ``dtype``."""
    nan = {np.float32: 0xFFC0_1234, np.float64: 0xFFF8_0000_0000_1234}[dtype]
    payload = np.array([nan], dtype=f"u{np.dtype(dtype).itemsize}").view(dtype)
    return np.concatenate([np.array([-0.0, np.inf, -np.inf], dtype=dtype), payload])


class TestMaxPool:
    def test_matches_loop_oracle_with_ties(self):
        rng = np.random.default_rng(4)
        for dtype in (np.float32, np.float64):
            for shape in ((3, 4, 6, 2), (2, 2, 2, 1), (1, 8, 4, 3)):
                # small integers force ties inside most windows
                x = rng.integers(-2, 3, size=shape).astype(dtype)
                y = maxpool2x2(x)
                dy = rng.standard_normal(y.shape).astype(dtype)
                # every dy entry is routed: its bits, signed zeros and NaN
                # payloads included, must reach dx unchanged
                odd = dy.copy()
                at = rng.choice(odd.size, size=(odd.size + 1) // 2, replace=False)
                odd.flat[at] = rng.choice(special_values(dtype), size=at.size)
                strided = rng.standard_normal(y.shape + (2,)).astype(dtype)[..., 1]
                assert not strided.flags.c_contiguous
                for g in (dy, odd, strided):
                    want_y, want_dx = maxpool_loops(x, g)
                    assert y.tobytes() == want_y.tobytes()
                    assert maxpool2x2_backward(g, x, y).tobytes() == want_dx.tobytes()


def dense_net(in_features, out_features):
    return build_network([{"kind": "fc", "out_features": out_features},
                          {"kind": "softmax-xent"}], (in_features, 1, 1))


class TestGemm:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        net = dense_net(6, 4)
        a = net.weights[0] = rng.standard_normal((4, 6)).astype(np.float32)
        net.biases[0][:] = 0
        x = rng.standard_normal((6, 1, 1, 5)).astype(np.float32)
        got, _ = apply_layer(net, 0, x)
        want = gemm_loops(a, x.reshape(6, 5))
        assert np.abs(got - want).max() <= 1e-5

    def test_rejects_mismatch(self):
        net = dense_net(6, 4)
        with pytest.raises(ShapeError):
            apply_layer(net, 0, np.zeros((5, 1, 1, 2), dtype=np.float32))

    def test_compact_equals_masked(self):
        # the compacted conv: kept filters times the kept im2col rows
        rng = np.random.default_rng(13)
        g = ConvGeometry(in_channels=2, in_h=4, in_w=3, kernel_h=2, kernel_w=2)
        w = rng.standard_normal((5, g.cols)).astype(np.float32)
        keep_r = np.array([0, 2, 4])
        keep_c = np.array([1, 2, 5, 7])
        x = rng.standard_normal((2, 4, 3, 3)).astype(np.float32)
        got = w[np.ix_(keep_r, keep_c)] @ im2col_batch(x, g, rows=keep_c)
        wm = np.zeros_like(w)
        wm[:, keep_c] = w[:, keep_c]
        want = (wm @ im2col_batch(x, g))[keep_r]
        assert np.allclose(got, want, atol=1e-6)
        assert got.shape == (3, g.positions * 3)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_compacted_conv_any_keep_sets(data):
    rng = np.random.default_rng(17)
    g = ConvGeometry(in_channels=3, in_h=3, in_w=4, kernel_h=2, kernel_w=2)
    w = rng.standard_normal((6, g.cols)).astype(np.float32)
    x = rng.standard_normal((3, 3, 4, 2)).astype(np.float32)
    rows = sorted(data.draw(st.sets(st.integers(0, 5), min_size=1, max_size=6)))
    cols = sorted(data.draw(st.sets(st.integers(0, 11), min_size=1, max_size=12)))
    rows = np.array(rows)
    cols = np.array(cols)
    got = w[np.ix_(rows, cols)] @ im2col_batch(x, g, rows=cols)
    want = w[np.ix_(rows, cols)] @ im2col_batch(x, g)[cols]
    assert np.array_equal(got, want)
