"""Small sequential CNNs: forward, backward, and momentum-SGD training.

The training objective is the prediction loss plus a quadratic penalty on
every weight, where kernel weights can carry an extra per-group coefficient
on top of the base weight decay. Gradients returned by :func:`backward` are
for the loss term only; the decay terms are folded in by :func:`sgd_step`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import DatasetError, batch_iter
from .tensor import (
    ConvGeometry,
    GeometryError,
    ShapeError,
    col2im_batch,
    im2col_batch,
    maxpool2x2,
    maxpool2x2_backward,
)

# every key a layer kind takes, with its default; None marks a required size,
# which must be positive
LAYER_KEYS: dict[str, dict[str, int | None]] = {
    "conv": {"filters": None, "kernel": 3, "stride": 1, "pad": 0},
    "relu": {},
    "maxpool": {},
    "fc": {"out_features": None},
    "softmax-xent": {},
}


class TrainingDiverged(RuntimeError):
    """A training loss came out NaN or infinite, so the weights are lost.

    ``layer`` is the first layer whose output on the failing batch holds a
    non-finite value, or None when none does.
    """

    def __init__(self, phase: str, iteration: int, loss: float,
                 layer: int | None = None, kind: str = ""):
        msg = f"{phase} diverged at iteration {iteration}: loss is {loss!r}"
        if layer is not None:
            msg += f"; layer {layer} ({kind}) is the first with a non-finite output"
        super().__init__(msg)
        self.phase = phase
        self.iteration = iteration
        self.loss = loss
        self.layer = layer


@dataclass
class LayerSpec:
    """One resolved layer of a sequential network.

    Geometry and feature counts are bound to a concrete input shape by
    :func:`build_network`, so adjacent layers are chain-compatible by
    construction. ``keep_cols`` is not a config key: it is set on the convs
    of a compacted network (see :func:`compact.compact`) to the lowered rows
    they read, and is None when a conv reads every row; such a conv keeps
    its kernel as the lowered ``(filters, len(keep_cols))`` matrix.
    """

    kind: str
    geom: ConvGeometry | None = None      # conv only
    filters: int = 0                      # conv only
    in_features: int = 0                  # fc only
    out_features: int = 0                 # fc only
    keep_cols: np.ndarray | None = field(default=None, compare=False)

    @property
    def parametric(self) -> bool:
        return self.kind in ("conv", "fc")

    def weight_shape(self) -> tuple[int, ...]:
        if self.kind == "conv":
            if self.keep_cols is not None:
                return (self.filters, len(self.keep_cols))
            g = self.geom
            return (self.filters, g.in_channels, g.kernel_h, g.kernel_w)
        if self.kind == "fc":
            return (self.out_features, self.in_features)
        raise ShapeError(f"layer kind {self.kind!r} has no weights")


@dataclass
class TrainConfig:
    base_lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 0.004
    batch_size: int = 32
    max_iters: int = 2000
    lr_schedule: str = "fixed"            # "fixed" or "step"
    step_factor: float = 0.1
    step_every: int = 1000

    def __post_init__(self):
        if self.base_lr <= 0:
            raise ValueError(f"base_lr must be positive, got {self.base_lr}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must be in [0,1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be nonnegative, got {self.weight_decay}")
        if self.batch_size < 1 or self.max_iters < 0:
            raise ValueError(f"batch_size must be >= 1 and max_iters >= 0, got "
                             f"{self.batch_size} and {self.max_iters}")
        if self.lr_schedule not in ("fixed", "step"):
            raise ValueError(f"unknown lr_schedule {self.lr_schedule!r}")
        if self.lr_schedule == "step" and (self.step_factor <= 0 or self.step_every < 1):
            raise ValueError("step schedule needs step_factor > 0 and step_every >= 1")


def lr_at(cfg: TrainConfig, iteration: int) -> float:
    """Learning rate in effect at a 0-based iteration index."""
    if cfg.lr_schedule == "fixed":
        return cfg.base_lr
    return cfg.base_lr * cfg.step_factor ** (iteration // cfg.step_every)


@dataclass
class NetworkState:
    """All mutable state of one network.

    ``weights``/``biases``/``vel_w``/``vel_b`` are lists aligned with
    ``layers``; entries for non-parametric layers are None. Momentum buffers
    always mirror their parameter's shape.
    """

    layers: list[LayerSpec]
    input_shape: tuple[int, int, int]
    weights: list[np.ndarray | None]
    biases: list[np.ndarray | None]
    vel_w: list[np.ndarray | None]
    vel_b: list[np.ndarray | None]
    rng_seed: int = 0
    iteration: int = 0
    dtype: np.dtype = np.dtype(np.float32)
    meta: dict = field(default_factory=dict)

    @property
    def parametric_indices(self) -> list[int]:
        return [i for i, l in enumerate(self.layers) if l.parametric]

    @property
    def conv_indices(self) -> list[int]:
        return [i for i, l in enumerate(self.layers) if l.kind == "conv"]

    def n_classes(self) -> int:
        return next(l for l in reversed(self.layers) if l.kind == "fc").out_features


def _layer_keys(pos: int, d) -> tuple[str, dict]:
    """The kind of layer def ``d`` and its keys over the kind's defaults; each
    value must be a plain int (not a bool), or a pair of them for ``kernel``."""
    kind = d.get("kind") if isinstance(d, dict) else None
    if not isinstance(kind, str) or kind not in LAYER_KEYS:
        raise ValueError(f"layer {pos}: unknown kind {kind!r}")
    keys = dict(LAYER_KEYS[kind])
    for key, val in d.items():
        if key == "kind":
            continue
        if key not in keys:
            raise ValueError(f"layer {pos}: unknown key {key!r} for {kind}")
        pair = key == "kernel" and isinstance(val, (list, tuple)) and len(val) == 2
        if not all(type(v) is int for v in (val if pair else [val])):
            what = "an integer or a pair of them" if key == "kernel" else "an integer"
            raise ValueError(f"layer {pos}: {key} must be {what}, got {val!r}")
        keys[key] = val
    for key, default in LAYER_KEYS[kind].items():
        if default is None and (keys[key] is None or keys[key] < 1):
            raise ValueError(f"layer {pos}: {kind} needs a positive {key}")
    return kind, keys


def resolve_layers(
    defs: list[dict], input_shape: tuple[int, int, int]
) -> list[LayerSpec]:
    """Check raw layer definitions and bind them to concrete shapes.

    The one schema check of a layer list from a preset, a config file or a
    checkpoint: each def is a dict of a "kind" and that kind's keys in
    :data:`LAYER_KEYS`. The activation shape is threaded through so every
    geometry is validated where it will actually run. The last parametric
    layer must be an fc: its outputs are the class logits.
    """
    shape: tuple | None = tuple(int(d) for d in input_shape)
    if len(shape) != 3 or min(shape) < 1:
        raise GeometryError(f"input shape must be (C,H,W) of positive ints: {shape}")
    layers = []
    for pos, d in enumerate(defs):
        kind, keys = _layer_keys(pos, d)
        if kind == "softmax-xent":
            if pos != len(defs) - 1:
                raise ValueError("softmax-xent must be the final layer")
            layers.append(LayerSpec(kind=kind))
            continue
        if kind == "conv":
            if not isinstance(shape, tuple) or len(shape) != 3:
                raise GeometryError(f"layer {pos}: conv needs a (C,H,W) input, got {shape}")
            k = keys["kernel"]
            kh, kw = (k, k) if isinstance(k, int) else k
            geom = ConvGeometry(
                in_channels=shape[0], in_h=shape[1], in_w=shape[2],
                kernel_h=kh, kernel_w=kw, stride=keys["stride"], pad=keys["pad"],
            )
            spec = LayerSpec(kind="conv", geom=geom, filters=keys["filters"])
            shape = (spec.filters, geom.out_h, geom.out_w)
        elif kind == "relu":
            spec = LayerSpec(kind="relu")
        elif kind == "maxpool":
            if not isinstance(shape, tuple) or len(shape) != 3:
                raise GeometryError(f"layer {pos}: maxpool needs a (C,H,W) input")
            if shape[1] % 2 or shape[2] % 2:
                raise GeometryError(
                    f"layer {pos}: 2x2/2 maxpool needs even spatial dims, got {shape}"
                )
            spec = LayerSpec(kind="maxpool")
            shape = (shape[0], shape[1] // 2, shape[2] // 2)
        else:  # fc
            feat = int(np.prod(shape)) if isinstance(shape, tuple) else int(shape)
            spec = LayerSpec(kind="fc", in_features=feat, out_features=keys["out_features"])
            shape = spec.out_features
        layers.append(spec)
    params = [l.kind for l in layers if l.parametric]
    if not params or params[-1] != "fc":
        raise ValueError("the last parametric layer must be an fc")
    return layers


def layer_def(spec: LayerSpec) -> dict:
    """The config definition that :func:`resolve_layers` turns back into spec."""
    if spec.kind == "conv":
        return {
            "kind": "conv",
            "filters": spec.filters,
            "kernel": [spec.geom.kernel_h, spec.geom.kernel_w],
            "stride": spec.geom.stride,
            "pad": spec.geom.pad,
        }
    if spec.kind == "fc":
        return {"kind": "fc", "out_features": spec.out_features}
    return {"kind": spec.kind}


def build_network(
    defs: list[dict],
    input_shape: tuple[int, int, int],
    seed: int = 0,
    dtype=np.float32,
) -> NetworkState:
    """Construct a network with seeded He-scaled Gaussian weights, zero biases."""
    layers = resolve_layers(defs, input_shape)
    rng = np.random.Generator(np.random.PCG64(seed))
    dtype = np.dtype(dtype)
    weights: list[np.ndarray | None] = []
    biases: list[np.ndarray | None] = []
    for spec in layers:
        if not spec.parametric:
            weights.append(None)
            biases.append(None)
            continue
        shape = spec.weight_shape()
        fan_in = int(np.prod(shape[1:]))
        w = (rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(dtype)
        weights.append(w)
        biases.append(np.zeros(shape[0], dtype=dtype))
    return NetworkState(
        layers=layers,
        input_shape=tuple(int(d) for d in input_shape),
        weights=weights,
        biases=biases,
        vel_w=[None if w is None else np.zeros_like(w) for w in weights],
        vel_b=[None if b is None else np.zeros_like(b) for b in biases],
        rng_seed=int(seed),
        dtype=dtype,
    )


def apply_layer(net: NetworkState, i: int, x: np.ndarray):
    """Run layer i on the batch-minor activation x (see :func:`input_batch`);
    returns (output, cache for backward)."""
    spec = net.layers[i]
    if spec.kind == "conv":
        g = spec.geom
        cols = im2col_batch(x, g, rows=spec.keep_cols)  # (K, P*B)
        y = net.weights[i].reshape(spec.filters, -1) @ cols   # (N, P*B)
        y += net.biases[i][:, None]
        return y.reshape(spec.filters, g.out_h, g.out_w, x.shape[3]), ("conv", cols)
    if spec.kind == "relu":
        y = np.maximum(x, 0)
        return y, ("relu", y)
    if spec.kind == "maxpool":
        y = maxpool2x2(x)
        return y, ("maxpool", x, y)
    if spec.kind == "fc":
        flat = x.reshape(-1, x.shape[-1])                # (F, B)
        if flat.shape[0] != spec.in_features:
            raise ShapeError(
                f"layer {i}: fc expects {spec.in_features} features, got {flat.shape[0]}"
            )
        y = net.weights[i] @ flat
        y += net.biases[i][:, None]
        return y, ("fc", flat, x.shape)
    # softmax-xent is a terminal marker; the loss lives in softmax_xent()
    return x, ("softmax-xent",)


def input_batch(net: NetworkState, x: np.ndarray) -> np.ndarray:
    """A (B, C, H, W) batch as the layers' batch-minor (C, H, W, B) array of
    net.dtype, after checking it matches net.input_shape.

    Every activation inside the engine keeps the batch as its last axis, so
    a conv lowers the whole batch to one matrix; this is the one transpose
    on the way in, and :func:`_batch_major` the one on the way out.
    """
    x = np.asarray(x)
    if x.ndim != 4 or x.shape[1:] != net.input_shape:
        raise ShapeError(
            f"batch shape {x.shape} does not match input shape {net.input_shape}"
        )
    return np.array(x.transpose(1, 2, 3, 0), dtype=net.dtype, order="C")


def _batch_major(x: np.ndarray) -> np.ndarray:
    """A batch-minor activation as (B, features) rows, e.g. the logits."""
    return np.ascontiguousarray(x.reshape(-1, x.shape[-1]).T)


def forward(net: NetworkState, x: np.ndarray):
    """Full forward pass of a (B, C, H, W) batch; returns ((B, classes)
    logits, list of per-layer caches)."""
    x = input_batch(net, x)
    caches = []
    for i in range(len(net.layers)):
        x, cache = apply_layer(net, i, x)
        caches.append(cache)
    return _batch_major(x), caches


def softmax_xent(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over the batch and its gradient at the logits."""
    labels = np.asarray(labels)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ShapeError(f"logits {logits.shape} vs labels {labels.shape}")
    if labels.min() < 0 or labels.max() >= logits.shape[1]:
        raise ValueError("label out of range")
    z = logits - logits.max(axis=1, keepdims=True)
    ez = np.exp(z)
    p = ez / ez.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    nll = -(z[np.arange(n), labels] - np.log(ez.sum(axis=1)))
    loss = float(nll.mean(dtype=np.float64))
    dlogits = p.copy()
    dlogits[np.arange(n), labels] -= 1
    dlogits /= np.asarray(n, dtype=logits.dtype)
    return loss, dlogits.astype(logits.dtype, copy=False)


def layer_backward(net: NetworkState, i: int, cache, dy: np.ndarray, need_dx: bool):
    """Backprop the batch-minor gradient dy through layer i; returns (dx, dw, db)."""
    spec = net.layers[i]
    tag = cache[0]
    if tag != spec.kind:
        raise ValueError(f"layer {i}: cache is for {tag!r}, layer is {spec.kind!r}")
    if spec.kind == "conv":
        cols = cache[1]
        dy2 = dy.reshape(spec.filters, -1)               # (N, P*B)
        # one GEMM over the batch and position axes together
        dw = (dy2 @ cols.T).reshape(net.weights[i].shape)
        db = dy2.sum(axis=1)
        dx = None
        if need_dx:
            w2 = net.weights[i].reshape(spec.filters, -1)
            dx = col2im_batch(w2.T @ dy2, spec.geom, rows=spec.keep_cols)
        return dx, dw, db
    if spec.kind == "relu":
        return dy * (cache[1] > 0), None, None
    if spec.kind == "maxpool":
        return maxpool2x2_backward(dy, cache[1], cache[2]), None, None
    if spec.kind == "fc":
        flat, in_shape = cache[1], cache[2]
        dw = dy @ flat.T
        db = dy.sum(axis=1)
        dx = (net.weights[i].T @ dy).reshape(in_shape) if need_dx else None
        return dx, dw, db
    return dy, None, None


def backward(net: NetworkState, caches: list, dlogits: np.ndarray):
    """Gradients of the prediction loss for every parameter.

    Returns (dweights, dbiases), lists aligned with net.layers. The input
    image gradient is not materialized.
    """
    if len(caches) != len(net.layers):
        raise ValueError("cache does not match network depth")
    dweights: list[np.ndarray | None] = [None] * len(net.layers)
    dbiases: list[np.ndarray | None] = [None] * len(net.layers)
    first_param = net.parametric_indices[0]
    dy = dlogits.T                                   # batch-minor, like the layers
    # layers below the first parametric one influence no parameter gradient
    for i in range(len(net.layers) - 1, first_param - 1, -1):
        dx, dw, db = layer_backward(net, i, caches[i], dy, need_dx=i > first_param)
        dweights[i], dbiases[i] = dw, db
        if i > first_param:
            dy = dx
    return dweights, dbiases


def loss_and_grads(net: NetworkState, x: np.ndarray, labels: np.ndarray):
    """Convenience: forward, loss, and loss-term gradients in one call."""
    logits, caches = forward(net, x)
    loss, dlogits = softmax_xent(logits, labels)
    dweights, dbiases = backward(net, caches, dlogits)
    return loss, dweights, dbiases


def check_loss(net: NetworkState, loss: float, x: np.ndarray, phase: str) -> None:
    """Raise TrainingDiverged if ``loss`` on batch ``x`` is NaN or infinite.

    Only then is the batch run again, layer by layer, to name the first
    layer whose output holds a non-finite value.
    """
    if math.isfinite(loss):
        return
    x = input_batch(net, x)
    for i, spec in enumerate(net.layers):
        x, _ = apply_layer(net, i, x)
        if not np.isfinite(x).all():
            raise TrainingDiverged(phase, net.iteration, loss, i, spec.kind)
    raise TrainingDiverged(phase, net.iteration, loss)


def sgd_step(
    net: NetworkState,
    dweights: list,
    dbiases: list,
    cfg: TrainConfig,
    lr: float | None = None,
    reg: dict | None = None,
) -> NetworkState:
    """One in-place momentum-SGD step.

    ``reg`` maps a conv layer index to an extra per-kernel-weight decay
    coefficient array (broadcastable to the weight shape, all entries >= 0);
    the effective gradient on a kernel weight is then
    ``dL/dw + (weight_decay + extra) * w``. Biases only ever see the base
    weight decay. Every entry steps: ``scheduler.run_pruning``, not this
    step, holds the pruned groups at zero.
    """
    reg = reg or {}
    lr_v = np.asarray(cfg.base_lr if lr is None else lr, dtype=net.dtype)
    mu = np.asarray(cfg.momentum, dtype=net.dtype)
    wd = np.asarray(cfg.weight_decay, dtype=net.dtype)
    for i in net.parametric_indices:
        w, v = net.weights[i], net.vel_w[i]
        g = dweights[i]
        if g is None or g.shape != w.shape:
            raise ShapeError(f"layer {i}: weight gradient missing or wrong shape")
        extra = reg.get(i)
        if extra is None:
            coef = wd
        else:
            extra = np.asarray(extra, dtype=np.float64)
            if extra.size and extra.min() < 0:
                raise ValueError(f"layer {i}: negative group regularization factor")
            # one rounding of the float64 sum keeps uniform-factor runs
            # bitwise equal to a plain run at the combined decay
            coef = (float(cfg.weight_decay) + extra).astype(net.dtype)
        g_eff = g + coef * w
        v *= mu
        v += g_eff
        w -= lr_v * v
        b, vb, gb = net.biases[i], net.vel_b[i], dbiases[i]
        if gb is None or gb.shape != b.shape:
            raise ShapeError(f"layer {i}: bias gradient missing or wrong shape")
        vb *= mu
        vb += gb + wd * b
        b -= lr_v * vb
    net.iteration += 1
    return net


def evaluate(net: NetworkState, x: np.ndarray, labels: np.ndarray, batch_size: int = 256):
    """Mean accuracy and mean loss over a dataset."""
    labels = np.asarray(labels)
    if len(x) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    correct = 0
    loss_sum = 0.0
    for lo in range(0, len(x), batch_size):
        xb, yb = x[lo : lo + batch_size], labels[lo : lo + batch_size]
        logits, _ = forward(net, xb)
        loss, _ = softmax_xent(logits, yb)
        loss_sum += loss * len(xb)
        correct += int((logits.argmax(axis=1) == yb).sum())
    return correct / len(x), loss_sum / len(x)


def check_labels(net: NetworkState, *splits) -> None:
    """Raise DatasetError unless every label of each (images, labels) split
    names one of the network's classes; a split may be None."""
    n = net.n_classes()
    for _, y in filter(None, splits):
        bad = (y < 0) | (y >= n)
        if bad.any():
            raise DatasetError(f"label {y[bad][0]} is out of range for a network "
                               f"with {n} classes")


def _sgd_loop(net, x, y, cfg, seed, phase, terms, val=None, log_rows=None):
    """The one SGD loop: ``cfg.max_iters`` steps of momentum SGD.

    Draws batches from a fresh stream seeded ``seed`` and steps the lr
    schedule from the phase's own step 0, whatever ``net.iteration`` is.
    Before step k, ``terms(k)`` returns ``(step_net, reg)``: the net that
    step k trains (``net``, or a compacted net) and the extra decay factors
    of its :func:`sgd_step`, or None. Logs one row per
    epoch when a sink is given. Raises TrainingDiverged, naming ``phase``,
    at the first non-finite loss, and DatasetError before the first step if
    a label is not one of the net's classes.
    """
    check_labels(net, (x, y), val)
    stream = batch_iter(x, y, cfg.batch_size, seed)
    per_epoch = max(len(x) // cfg.batch_size, 1)
    loss_acc = 0.0
    for k in range(cfg.max_iters):
        step_net, reg = terms(k)
        xb, yb = next(stream)
        loss, dw, db = loss_and_grads(step_net, xb, yb)
        check_loss(step_net, loss, xb, phase)
        lr = lr_at(cfg, k)
        sgd_step(step_net, dw, db, cfg, lr=lr, reg=reg)
        loss_acc += loss
        if log_rows is not None and (k + 1) % per_epoch == 0:
            row = {
                "iteration": step_net.iteration,
                "epoch": (k + 1) // per_epoch,
                "lr": lr,
                "train_loss": loss_acc / per_epoch,
            }
            if val is not None and len(val[0]):
                acc, vloss = evaluate(step_net, val[0], val[1])
                row["val_accuracy"] = acc
                row["val_loss"] = vloss
            log_rows.append(row)
            loss_acc = 0.0
    return net


def train_network(net, x, y, cfg, seed, val=None, log_rows=None):
    """Train: ``cfg.max_iters`` steps of the SGD loop on the whole net.

    See :func:`_sgd_loop` for the batch stream, the lr schedule, the
    per-epoch log and the errors; ``scheduler.retrain_network`` fine-tunes
    a pruned net.
    """
    return _sgd_loop(net, x, y, cfg, seed, "train",
                     lambda k: (net, None), val, log_rows)
