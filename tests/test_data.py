"""Dataset loaders: hand-built binary fixtures and synthetic blob invariants."""

import itertools
import struct

import numpy as np
import pytest

from increg.config import parse_config
from increg.data import (
    DatasetError,
    apply_normalization,
    batch_iter,
    channel_means,
    load_cifar10,
    load_dataset,
    load_idx_pair,
    make_blobs,
    parse_idx,
    split_blobs,
)


def idx_bytes(code, dims, payload):
    head = struct.pack(">BBBB", 0, 0, code, len(dims))
    head += b"".join(struct.pack(">I", d) for d in dims)
    return head + payload


class TestIdx:
    def test_ubyte_3d(self, tmp_path):
        data = np.arange(24, dtype=np.uint8).reshape(2, 3, 4)
        p = tmp_path / "img.idx"
        p.write_bytes(idx_bytes(0x08, (2, 3, 4), data.tobytes()))
        out = parse_idx(p)
        assert out.dtype == np.uint8
        assert np.array_equal(out, data)

    def test_int_big_endian(self, tmp_path):
        data = np.array([1, -2, 300000], dtype=">i4")
        p = tmp_path / "ints.idx"
        p.write_bytes(idx_bytes(0x0C, (3,), data.tobytes()))
        assert parse_idx(p).tolist() == [1, -2, 300000]

    def test_double_vector(self, tmp_path):
        data = np.array([0.5, -1.25], dtype=">f8")
        p = tmp_path / "d.idx"
        p.write_bytes(idx_bytes(0x0E, (2,), data.tobytes()))
        assert parse_idx(p).tolist() == [0.5, -1.25]

    def test_truncated_payload_names_offset(self, tmp_path):
        p = tmp_path / "short.idx"
        p.write_bytes(idx_bytes(0x08, (2, 2), b"\x01\x02\x03"))
        with pytest.raises(DatasetError) as e:
            parse_idx(p)
        assert "byte" in str(e.value)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.idx"
        p.write_bytes(b"\x01\x00\x08\x01" + struct.pack(">I", 1) + b"\x00")
        with pytest.raises(DatasetError):
            parse_idx(p)

    def test_unknown_dtype_code(self, tmp_path):
        p = tmp_path / "code.idx"
        p.write_bytes(idx_bytes(0x0A, (1,), b"\x00"))
        with pytest.raises(DatasetError):
            parse_idx(p)

    def test_pair_loader_scales_and_shapes(self, tmp_path):
        imgs = np.arange(2 * 4 * 4, dtype=np.uint8).reshape(2, 4, 4) * 10
        labels = np.array([1, 0], dtype=np.uint8)
        pi = tmp_path / "imgs.idx"
        pl = tmp_path / "labels.idx"
        pi.write_bytes(idx_bytes(0x08, (2, 4, 4), imgs.tobytes()))
        pl.write_bytes(idx_bytes(0x08, (2,), labels.tobytes()))
        x, y = load_idx_pair(pi, pl)
        assert x.shape == (2, 1, 4, 4) and x.dtype == np.float32
        assert x.max() <= 1.0
        assert float(x[0, 0, 0, 1]) == pytest.approx(10 / 255)
        assert y.tolist() == [1, 0] and y.dtype == np.int64

    def test_pair_count_mismatch(self, tmp_path):
        pi = tmp_path / "i.idx"
        pl = tmp_path / "l.idx"
        pi.write_bytes(idx_bytes(0x08, (2, 2, 2), bytes(8)))
        pl.write_bytes(idx_bytes(0x08, (3,), bytes(3)))
        with pytest.raises(DatasetError):
            load_idx_pair(pi, pl)


class TestLoadDataset:
    def test_idx_splits_are_the_normalized_files(self, tmp_path):
        # big-endian float32 IDX files; the last tenth of the training file
        # is the validation split, and every split loses the train mean
        rng = np.random.default_rng(5)
        files = {}
        for split, n in (("train", 600), ("test", 100)):
            images = (rng.standard_normal((n, 3, 8, 8)) + 2.0).astype(">f4")
            labels = rng.integers(0, 4, size=n).astype(np.uint8)
            for kind, arr, code in (("images", images, 0x0D), ("labels", labels, 0x08)):
                path = tmp_path / f"{split}_{kind}.idx"
                path.write_bytes(idx_bytes(code, arr.shape, arr.tobytes()))
                files[f"{split}_{kind}"] = str(path)
        x, y = load_idx_pair(files["train_images"], files["train_labels"])
        tx, ty = load_idx_pair(files["test_images"], files["test_labels"])
        raw = [(x[:540], y[:540]), (x[540:], y[540:]), (tx, ty)]
        means = channel_means(raw[0][0])
        train, val, test, shape, got_means = load_dataset(
            parse_config({"dataset": {"kind": "idx", **files}}))
        assert shape == (3, 8, 8) and np.array_equal(got_means, means)
        for (gx, gy), (rx, ry) in zip((train, val, test), raw):
            want = apply_normalization(rx, means)
            assert gx.dtype == want.dtype == np.float32
            assert gx.tobytes() == want.tobytes()
            assert np.array_equal(gy, ry)


class TestCifar:
    def _record(self, label, value):
        return bytes([label]) + bytes([value]) * 3072

    def _write_batches(self, d, per_batch=2):
        for k in range(1, 6):
            rec = b"".join(self._record(k % 10, k * 10 + i)
                           for i in range(per_batch))
            (d / f"data_batch_{k}.bin").write_bytes(rec)
        (d / "test_batch.bin").write_bytes(
            b"".join(self._record(3, 7) for _ in range(per_batch)))

    def test_loads_and_splits(self, tmp_path):
        self._write_batches(tmp_path)
        train, val, test = load_cifar10(tmp_path)
        # 10 train records: last 10% (1 record) becomes validation
        assert len(train[0]) == 9 and len(val[0]) == 1 and len(test[0]) == 2
        assert train[0].shape[1:] == (3, 32, 32)
        assert train[0].dtype == np.float32
        assert test[1].tolist() == [3, 3]

    def test_truncated_record_offset(self, tmp_path):
        self._write_batches(tmp_path)
        p = tmp_path / "data_batch_1.bin"
        p.write_bytes(p.read_bytes()[:-100])
        with pytest.raises(DatasetError) as e:
            load_cifar10(tmp_path)
        assert "byte" in str(e.value)

    def test_bad_label(self, tmp_path):
        self._write_batches(tmp_path)
        raw = bytearray((tmp_path / "data_batch_2.bin").read_bytes())
        raw[0] = 17
        (tmp_path / "data_batch_2.bin").write_bytes(bytes(raw))
        with pytest.raises(DatasetError) as e:
            load_cifar10(tmp_path)
        assert "17" in str(e.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            load_cifar10(tmp_path)


class TestBlobs:
    def test_deterministic(self):
        a = make_blobs(64, 4, seed=5)
        b = make_blobs(64, 4, seed=5)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        c = make_blobs(64, 4, seed=6)
        assert not np.array_equal(a[0], c[0])

    def test_shapes_and_labels(self):
        x, y = make_blobs(50, 3, shape=(2, 4, 4), noise=0.1, seed=0)
        assert x.shape == (50, 2, 4, 4) and x.dtype == np.float32
        assert set(y.tolist()) == {0, 1, 2}

    def test_split_disjoint_sizes(self):
        train, val, test = split_blobs(100, 20, 30, classes=4,
                                       shape=(1, 8, 8), noise=0.5, seed=1)
        assert len(train[0]) == 100 and len(val[0]) == 20 and len(test[0]) == 30

    def test_low_noise_is_separable_by_nearest_center(self):
        x, y = make_blobs(200, 4, noise=0.01, seed=2)
        flat = x.reshape(len(x), -1)
        centers = np.stack([flat[y == k].mean(axis=0) for k in range(4)])
        d = ((flat[:, None, :] - centers[None]) ** 2).sum(axis=2)
        assert (d.argmin(axis=1) == y).mean() == 1.0


class TestNormalization:
    def test_channel_means_match_numpy(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((10, 3, 4, 4)).astype(np.float32)
        m = channel_means(x)
        assert m.shape == (3,)
        assert np.allclose(m, x.mean(axis=(0, 2, 3)), atol=1e-6)

    def test_apply_centers(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((10, 2, 3, 3)).astype(np.float32) + 5.0
        out = apply_normalization(x, channel_means(x))
        assert abs(float(out.mean())) <= 1e-5
        assert out.dtype == np.float32


class TestBatchIter:
    def test_epoch_is_permutation_dropping_tail(self):
        x = np.arange(10, dtype=np.float32).reshape(10, 1, 1, 1)
        y = np.arange(10)
        seen = []
        it = batch_iter(x, y, 3, seed=0)
        for _ in range(3):
            xb, yb = next(it)
            assert len(xb) == 3
            seen.extend(yb.tolist())
        # 9 of 10 samples appear, none twice: the tail is dropped
        assert len(seen) == 9 and len(set(seen)) == 9

    def test_reshuffles_between_epochs(self):
        x = np.zeros((8, 1, 1, 1), dtype=np.float32)
        y = np.arange(8)
        it = batch_iter(x, y, 4, seed=1)
        first = [next(it)[1].tolist() for _ in range(2)]
        second = [next(it)[1].tolist() for _ in range(2)]
        assert sorted(sum(first, [])) == sorted(sum(second, []))
        assert first != second

    def test_seeded_streams_identical(self):
        x = np.arange(12, dtype=np.float32).reshape(12, 1, 1, 1)
        y = np.arange(12)
        a = [next(batch_iter(x, y, 4, seed=9))[1].tolist() for _ in range(3)]
        b = [next(batch_iter(x, y, 4, seed=9))[1].tolist() for _ in range(3)]
        assert a == b

    def test_finite_iters(self):
        x = np.zeros((6, 1, 1, 1), dtype=np.float32)
        y = np.zeros(6, dtype=np.int64)
        assert len(list(itertools.islice(batch_iter(x, y, 2, seed=0), 5))) == 5

    def test_batch_larger_than_data_rejected(self):
        x = np.zeros((2, 1, 1, 1), dtype=np.float32)
        y = np.zeros(2, dtype=np.int64)
        with pytest.raises(ValueError):
            next(batch_iter(x, y, 3, seed=0))
