"""Checkpoint files: magic, JSON metadata, then raw float32 tensor blobs.

Layout:

* 8 bytes magic ``INCREG01``,
* 8 bytes little-endian unsigned JSON byte length,
* the JSON metadata block (utf-8, sorted keys, no whitespace),
* for each parametric layer in declaration order: weight, bias, weight
  momentum, bias momentum, each as a raw little-endian float32 blob in
  row-major order.

The JSON carries the architecture, input shape, iteration, seed, data
normalization, and optional scheduler state (per-group factors and pruned
flags), so write -> read -> write is byte-identical. A checkpoint is written
to a temporary file beside its destination and then renamed over it, so a
reader never sees a half-written file; one holding a NaN or infinite value
is rejected on read.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from .network import NetworkState, layer_def, resolve_layers

MAGIC = b"INCREG01"


class CheckpointError(ValueError):
    """File is not a valid checkpoint."""


def save_checkpoint(path, net: NetworkState, scheduler: dict | None = None) -> None:
    """Write a checkpoint; only float32, uncompacted networks are storable."""
    if net.dtype != np.dtype(np.float32):
        raise CheckpointError(f"checkpoints store float32 networks, got {net.dtype}")
    if any(l.keep_cols is not None for l in net.layers):
        # the layer list cannot carry keep_cols, so the file would not load
        raise CheckpointError("checkpoints cannot store a compacted network")
    meta = {
        "format": MAGIC.decode(),
        "layers": [layer_def(l) for l in net.layers],
        "input_shape": list(net.input_shape),
        "iteration": net.iteration,
        "seed": net.rng_seed,
        "meta": net.meta,
        "scheduler": scheduler,
    }
    blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<Q", len(blob)))
            f.write(blob)
            for i in net.parametric_indices:
                for arr in (net.weights[i], net.biases[i], net.vel_w[i], net.vel_b[i]):
                    f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    """Read a checkpoint; returns (NetworkState, scheduler dict or None)."""
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e
    if raw[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"bad magic in {path}")
    off = len(MAGIC)
    if len(raw) < off + 8:
        raise CheckpointError(f"truncated header in {path}")
    (jlen,) = struct.unpack_from("<Q", raw, off)
    off += 8
    if len(raw) < off + jlen:
        raise CheckpointError(f"truncated metadata in {path}")
    try:
        meta = json.loads(raw[off : off + jlen].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"unreadable metadata in {path}: {e}") from e
    off += jlen
    if not isinstance(meta, dict) or meta.get("format") != MAGIC.decode():
        raise CheckpointError(f"metadata format tag mismatch in {path}")
    try:
        input_shape = tuple(meta["input_shape"])
        layers = resolve_layers(meta["layers"], input_shape)
        seed, iteration = int(meta["seed"]), int(meta["iteration"])
    except KeyError as e:
        raise CheckpointError(f"metadata in {path} lacks {e}") from e
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"invalid metadata in {path}: {e}") from e
    extra = meta.get("meta") or {}
    if not isinstance(extra, dict):
        raise CheckpointError(f"invalid metadata in {path}: meta is not a mapping")

    def take(shape) -> np.ndarray:
        nonlocal off
        n = int(np.prod(shape)) * 4
        if len(raw) < off + n:
            raise CheckpointError(f"truncated tensor blob at byte {off} in {path}")
        arr = np.frombuffer(raw[off : off + n], dtype="<f4").reshape(shape)
        if not np.isfinite(arr).all():
            raise CheckpointError(f"non-finite value in the tensor at byte {off} in {path}")
        off += n
        return arr.astype(np.float32, copy=True)

    weights, biases, vel_w, vel_b = ([None] * len(layers) for _ in range(4))
    for i, spec in enumerate(layers):
        if spec.parametric:
            shape = spec.weight_shape()
            weights[i], biases[i] = take(shape), take(shape[:1])
            vel_w[i], vel_b[i] = take(shape), take(shape[:1])
    if off != len(raw):
        raise CheckpointError(f"{len(raw) - off} trailing bytes in {path}")
    net = NetworkState(
        layers=layers,
        input_shape=input_shape,
        weights=weights,
        biases=biases,
        vel_w=vel_w,
        vel_b=vel_b,
        rng_seed=seed,
        iteration=iteration,
        dtype=np.dtype(np.float32),
        meta=extra,
    )
    return net, meta.get("scheduler")
