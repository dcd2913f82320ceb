"""Seeded class-blob inputs written as IDX files.

Each class has a smooth random centre image (a coarse Gaussian grid
upsampled by pixel repetition); a sample is its class centre plus white
Gaussian noise. The same seed always gives byte-identical files. The
generator shares no code with the program under test, which only ever
sees the files.
"""

from __future__ import annotations

import os
import struct

import numpy as np


def class_blobs(n: int, classes: int, shape, *, coarse: int, noise: float,
                rng: np.random.Generator, centers: np.ndarray | None = None):
    """Return (images float32 (n,C,H,W), labels uint8 (n,), centers)."""
    c, h, w = shape
    if centers is None:
        grid = rng.standard_normal((classes, c, coarse, coarse))
        centers = grid.repeat(h // coarse, axis=2).repeat(w // coarse, axis=3)
    labels = rng.integers(0, classes, size=n)
    x = centers[labels] + noise * rng.standard_normal((n, c, h, w))
    return x.astype(np.float32), labels.astype(np.uint8), centers


def write_idx(path: str, arr: np.ndarray) -> None:
    """Write one array in the IDX format (big-endian, type code in byte 2)."""
    codes = {np.dtype(np.uint8): (0x08, ">u1"), np.dtype(np.float32): (0x0D, ">f4")}
    code, be = codes[arr.dtype]
    with open(path, "wb") as f:
        f.write(bytes([0, 0, code, arr.ndim]))
        f.write(struct.pack(f">{arr.ndim}I", *arr.shape))
        f.write(np.ascontiguousarray(arr, dtype=be).tobytes())


def write_dataset(directory: str, seed: int, *, n_train: int, n_test: int,
                  classes: int, shape, coarse: int, noise: float) -> dict:
    """Write train/test IDX pairs; returns the paths and the test labels."""
    os.makedirs(directory, exist_ok=True)
    rng = np.random.Generator(np.random.PCG64(seed))
    x, y, centers = class_blobs(n_train, classes, shape, coarse=coarse,
                                noise=noise, rng=rng)
    tx, ty, _ = class_blobs(n_test, classes, shape, coarse=coarse, noise=noise,
                            rng=rng, centers=centers)
    paths = {}
    for name, arr in (("train_images", x), ("train_labels", y),
                      ("test_images", tx), ("test_labels", ty)):
        paths[name] = os.path.join(directory, f"{name}.idx")
        write_idx(paths[name], arr)
    return {"paths": paths, "train_images": x, "test_images": tx,
            "test_labels": ty.astype(np.int64)}
