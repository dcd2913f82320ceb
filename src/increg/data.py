"""Dataset ingestion: IDX files, CIFAR-10 binary batches, synthetic blobs.

All loaders return images as float32 arrays of shape (n, channels, h, w)
with labels as int64 vectors, so the rest of the package never cares where
pixels came from.
"""

from __future__ import annotations

import os
import struct

import numpy as np


class DatasetError(ValueError):
    """A dataset file is malformed or a request is inconsistent."""


# IDX dtype codes from the format's public header layout
_IDX_DTYPES = {
    0x08: np.dtype(">u1"),
    0x09: np.dtype(">i1"),
    0x0B: np.dtype(">i2"),
    0x0C: np.dtype(">i4"),
    0x0D: np.dtype(">f4"),
    0x0E: np.dtype(">f8"),
}


def parse_idx(path) -> np.ndarray:
    """Parse one IDX file into an ndarray of its native dtype and dims."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 4:
        raise DatasetError(f"{path}: truncated IDX header at byte {len(raw)}")
    zero1, zero2, code, ndim = raw[0], raw[1], raw[2], raw[3]
    if zero1 != 0 or zero2 != 0 or code not in _IDX_DTYPES:
        raise DatasetError(f"{path}: bad IDX magic {raw[:4].hex()}")
    if len(raw) < 4 + 4 * ndim:
        raise DatasetError(f"{path}: truncated IDX dims at byte {len(raw)}")
    dims = struct.unpack_from(f">{ndim}I", raw, 4)
    dtype = _IDX_DTYPES[code]
    count = int(np.prod(dims)) if ndim else 1
    need = 4 + 4 * ndim + count * dtype.itemsize
    if len(raw) != need:
        raise DatasetError(
            f"{path}: IDX payload ends at byte {len(raw)}, expected {need}"
        )
    arr = np.frombuffer(raw, dtype=dtype, count=count, offset=4 + 4 * ndim)
    return arr.reshape(dims).astype(dtype.newbyteorder("="))


def load_idx_pair(images_path, labels_path):
    """Load an images+labels IDX pair as ((n,C,H,W) float32, (n,) int64)."""
    images = parse_idx(images_path)
    labels = parse_idx(labels_path)
    if labels.ndim != 1:
        raise DatasetError(f"{labels_path}: labels must be 1-D, got {labels.shape}")
    if images.ndim == 3:
        images = images[:, None]
    if images.ndim != 4:
        raise DatasetError(f"{images_path}: images must be 3-D or 4-D, got {images.shape}")
    if len(images) != len(labels):
        raise DatasetError(
            f"{len(images)} images vs {len(labels)} labels in IDX pair"
        )
    y = labels.astype(np.int64)
    if len(y) and y.min() < 0:
        bad = int(np.argmax(y < 0))
        raise DatasetError(f"{labels_path}: label {y[bad]} out of range at record {bad}")
    x = images.astype(np.float32)
    if images.dtype == np.uint8:
        x /= 255.0
    return x, y


_CIFAR_RECORD = 1 + 3 * 32 * 32
_CIFAR_TRAIN = [f"data_batch_{i}.bin" for i in range(1, 6)]
_CIFAR_TEST = "test_batch.bin"


def _parse_cifar_file(path):
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) % _CIFAR_RECORD:
        raise DatasetError(
            f"{path}: truncated record at byte {len(raw) - len(raw) % _CIFAR_RECORD}"
        )
    rec = np.frombuffer(raw, dtype=np.uint8).reshape(-1, _CIFAR_RECORD)
    y = rec[:, 0].astype(np.int64)
    if len(y) and y.max() > 9:
        bad = int(np.argmax(y > 9))
        raise DatasetError(f"{path}: label {y[bad]} out of range at record {bad}")
    x = rec[:, 1:].reshape(-1, 3, 32, 32).astype(np.float32) / 255.0
    return x, y


def load_cifar10(directory):
    """Load the binary CIFAR-10 batches from a directory.

    Returns ((train_x, train_y), (val_x, val_y), (test_x, test_y)). The last
    10% of the concatenated training batches becomes the validation split,
    which on the full dataset is the standard 45k/5k/10k partition.
    """
    xs, ys = [], []
    for name in _CIFAR_TRAIN:
        path = os.path.join(directory, name)
        if not os.path.exists(path):
            raise DatasetError(f"missing CIFAR-10 batch {path}")
        x, y = _parse_cifar_file(path)
        xs.append(x)
        ys.append(y)
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    cut = len(x) - len(x) // 10
    test_x, test_y = _parse_cifar_file(os.path.join(directory, _CIFAR_TEST))
    return (x[:cut], y[:cut]), (x[cut:], y[cut:]), (test_x, test_y)


def make_blobs(n: int, classes: int, shape=(1, 8, 8), noise: float = 0.5, seed: int = 0):
    """Gaussian class blobs rendered as images; deterministic in the seed.

    Class centers are standard-normal points in pixel space, samples are
    center + noise * N(0,1), so small noise keeps classes linearly separable.
    """
    if n < 1 or classes < 2:
        raise DatasetError("blobs need n >= 1 and classes >= 2")
    if noise < 0:
        raise DatasetError("noise must be nonnegative")
    rng = np.random.Generator(np.random.PCG64(seed))
    dim = int(np.prod(shape))
    centers = rng.standard_normal((classes, dim))
    y = rng.integers(0, classes, size=n)
    x = centers[y] + noise * rng.standard_normal((n, dim))
    return x.reshape(n, *shape).astype(np.float32), y.astype(np.int64)


def split_blobs(n_train: int, n_val: int, n_test: int, classes: int,
                shape=(1, 8, 8), noise: float = 0.5, seed: int = 0):
    """Three disjoint blob samples sharing one set of class centers."""
    x, y = make_blobs(n_train + n_val + n_test, classes, shape, noise, seed)
    a, b = n_train, n_train + n_val
    return (x[:a], y[:a]), (x[a:b], y[a:b]), (x[b:], y[b:])


def channel_means(x: np.ndarray) -> np.ndarray:
    """Per-channel mean over a (n,C,H,W) training set."""
    if x.ndim != 4:
        raise DatasetError(f"expected (n,C,H,W) images, got {x.shape}")
    return x.mean(axis=(0, 2, 3), dtype=np.float64).astype(np.float32)


def apply_normalization(x: np.ndarray, means: np.ndarray) -> np.ndarray:
    means = np.asarray(means, dtype=x.dtype)
    if means.shape != (x.shape[1],):
        raise DatasetError(f"means shape {means.shape} vs {x.shape[1]} channels")
    return x - means[:, None, None]


def load_dataset(cfg):
    """Resolve a RunConfig's dataset into normalized train/val/test arrays.

    Returns (train, val, test, input_shape, means) where each split is an
    (images, labels) pair and means is the per-channel train mean subtracted
    from every split. Synthetic blobs are drawn from the run's seed.
    """
    ds = cfg.dataset
    if ds["kind"] == "synthetic":
        train, val, test = split_blobs(
            ds["n_train"], ds["n_val"], ds["n_test"], classes=ds["classes"],
            shape=tuple(ds["shape"]), noise=ds["noise"], seed=cfg.seed,
        )
    elif ds["kind"] == "cifar10":
        if not os.path.isdir(ds["dir"]):
            raise DatasetError(f"cifar10 dir not found: {ds['dir']}")
        train, val, test = load_cifar10(ds["dir"])
    else:
        for k in ("train_images", "train_labels", "test_images", "test_labels"):
            if ds[k] and not os.path.exists(ds[k]):
                raise DatasetError(f"dataset file not found: {ds[k]}")
        x, y = load_idx_pair(ds["train_images"], ds["train_labels"])
        if ds["test_images"]:
            tx, ty = load_idx_pair(ds["test_images"], ds["test_labels"])
        else:
            tx, ty = x[:0], y[:0]
        n_val = len(x) // 10
        train = (x[: len(x) - n_val], y[: len(x) - n_val])
        val = (x[len(x) - n_val :], y[len(x) - n_val :])
        test = (tx, ty)
    means = channel_means(train[0])
    train, val, test = ((apply_normalization(x, means), y) for x, y in (train, val, test))
    return train, val, test, train[0].shape[1:], means


def batch_iter(x: np.ndarray, y: np.ndarray, batch_size: int, seed: int):
    """Deterministic shuffled minibatches, forever; epochs drop the partial tail.

    Order depends only on the seed and batch size.
    """
    n = len(x)
    if n != len(y):
        raise DatasetError(f"{n} images vs {len(y)} labels")
    if batch_size < 1 or batch_size > n:
        raise DatasetError(f"batch_size {batch_size} invalid for {n} examples")
    rng = np.random.Generator(np.random.PCG64(seed))
    while True:
        perm = rng.permutation(n)
        for lo in range(0, n - batch_size + 1, batch_size):
            idx = perm[lo : lo + batch_size]
            yield x[idx], y[idx]
