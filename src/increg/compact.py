"""Physical removal of pruned rows/columns/channels, plus FLOPs and timing.

A plan is built from the scheduler's group state and propagated along the
sequential chain: a pruned filter (row) drops its column block from the next
conv and its slice from the fc input; a pruned input channel additionally
retires the producing filter upstream; pruned columns stay local to their
layer. The compacted network stores conv kernels directly in lowered form
so arbitrary column subsets remain dense.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, field

import numpy as np

from .network import NetworkState, apply_layer
from .scheduler import LayerGroups
from .tensor import ConvGeometry, ShapeError, im2col_batch, maxpool2x2


class PlanError(ValueError):
    """Scheduler state and network weights disagree, or a plan is invalid."""


@dataclass
class ConvPlan:
    """Kept indices for one conv layer.

    keep_cols is in the original lowered column space; keep_cols_new is the
    same set renumbered to the compacted input channels, or None when every
    column of the arriving channels survives.
    """

    layer: int
    keep_rows: np.ndarray
    keep_cols: np.ndarray
    keep_cols_new: np.ndarray | None
    in_channels: np.ndarray
    geom: ConvGeometry


@dataclass
class FcPlan:
    layer: int
    keep_in: np.ndarray


@dataclass
class CompactPlan:
    conv: dict[int, ConvPlan] = field(default_factory=dict)
    fc: dict[int, FcPlan] = field(default_factory=dict)
    input_channels: np.ndarray | None = None

    def is_identity(self, net: NetworkState) -> bool:
        if self.input_channels is not None:
            return False
        for i, cp in self.conv.items():
            spec = net.layers[i]
            if len(cp.keep_rows) != spec.filters or len(cp.keep_cols) != spec.geom.cols:
                return False
        return not self.fc


def _pruned_sets(net: NetworkState, layer_groups: list[LayerGroups]):
    rows: dict[int, set] = {}
    cols: dict[int, set] = {}
    chans: dict[int, set] = {}
    for lg in layer_groups:
        w = net.weights[lg.layer]
        idxs = set()
        for g in lg.groups:
            if not g.pruned:
                continue
            if np.any(w.flat[g.members] != 0):
                raise PlanError(
                    f"layer {lg.layer} group {g.index} is pruned but has nonzero weights"
                )
            idxs.add(g.index)
        bucket = {"row": rows, "column": cols, "channel": chans}[lg.kind]
        if lg.layer in bucket:
            raise PlanError(f"layer {lg.layer} appears in two group sets")
        bucket[lg.layer] = idxs
    return rows, cols, chans


def build_plan(net: NetworkState, layer_groups: list[LayerGroups]) -> CompactPlan:
    """Translate pruned groups into kept index sets for the whole chain."""
    pruned_rows, pruned_cols, pruned_ch = _pruned_sets(net, layer_groups)
    convs = net.conv_indices
    # a dead input channel retires the filter that produces it
    for pos, l in enumerate(convs):
        dead = pruned_ch.get(l)
        if dead and pos > 0:
            pruned_rows.setdefault(convs[pos - 1], set()).update(dead)
    plan = CompactPlan()
    prev_keep_rows: np.ndarray | None = None
    for pos, l in enumerate(convs):
        spec = net.layers[l]
        g = spec.geom
        block = g.kernel_h * g.kernel_w
        if pos == 0:
            dead_in = pruned_ch.get(l, set())
            ch = np.array(sorted(set(range(g.in_channels)) - dead_in), dtype=np.intp)
            if dead_in:
                plan.input_channels = ch
        else:
            ch = prev_keep_rows
            if len(ch) == 0 or ch.max() >= g.in_channels:
                raise PlanError(f"layer {l}: arriving channels {ch} do not fit {g}")
        keep_rows = np.array(
            sorted(set(range(spec.filters)) - pruned_rows.get(l, set())), dtype=np.intp
        )
        if len(keep_rows) == 0:
            raise PlanError(f"layer {l}: every filter pruned, nothing to keep")
        gone_cols = pruned_cols.get(l, set())
        keep_cols, keep_cols_new = [], []
        for new_c, c in enumerate(ch):
            for j in range(block):
                if int(c) * block + j not in gone_cols:
                    keep_cols.append(int(c) * block + j)
                    keep_cols_new.append(new_c * block + j)
        if not keep_cols:
            raise PlanError(f"layer {l}: every column pruned, nothing to keep")
        geom_new = ConvGeometry(
            in_channels=len(ch), in_h=g.in_h, in_w=g.in_w,
            kernel_h=g.kernel_h, kernel_w=g.kernel_w, stride=g.stride, pad=g.pad,
        )
        full = len(keep_cols) == len(ch) * block
        plan.conv[l] = ConvPlan(
            layer=l,
            keep_rows=keep_rows,
            keep_cols=np.array(keep_cols, dtype=np.intp),
            keep_cols_new=None if full else np.array(keep_cols_new, dtype=np.intp),
            in_channels=np.asarray(ch, dtype=np.intp),
            geom=geom_new,
        )
        prev_keep_rows = keep_rows
    if convs and prev_keep_rows is not None and len(prev_keep_rows) < net.layers[convs[-1]].filters:
        last = convs[-1]
        for i, spec in enumerate(net.layers):
            if spec.kind == "fc" and i > last:
                hw = spec.in_features // net.layers[last].filters
                keep_in = (prev_keep_rows[:, None] * hw + np.arange(hw)).ravel()
                plan.fc[i] = FcPlan(layer=i, keep_in=keep_in)
                break
    return plan


@dataclass
class CompactConv:
    geom: ConvGeometry
    weight: np.ndarray                 # (kept filters, kept columns), lowered
    bias: np.ndarray | None
    keep_cols: np.ndarray | None       # in the compact lowered space; None = all


@dataclass
class CompactFc:
    weight: np.ndarray
    bias: np.ndarray | None


@dataclass
class CompactNetwork:
    """A chain whose conv kernels live as lowered matrices; forward only."""

    kinds: list[str]
    entries: list
    input_shape: tuple[int, int, int]
    input_channels: np.ndarray | None = None

    def param_count(self) -> int:
        total = 0
        for e in self.entries:
            if isinstance(e, (CompactConv, CompactFc)):
                total += e.weight.size + (0 if e.bias is None else e.bias.size)
        return total

    def apply_layer(self, i: int, x: np.ndarray) -> np.ndarray:
        kind, e = self.kinds[i], self.entries[i]
        if kind == "conv":
            cols = im2col_batch(x, e.geom, rows=e.keep_cols)
            y = np.matmul(e.weight, cols)
            if e.bias is not None:
                y += e.bias[:, None]
            return y.reshape(x.shape[0], e.weight.shape[0], e.geom.out_h, e.geom.out_w)
        if kind == "relu":
            return np.maximum(x, 0)
        if kind == "maxpool":
            return maxpool2x2(x)
        if kind == "fc":
            y = x.reshape(x.shape[0], -1) @ e.weight.T
            if e.bias is not None:
                y += e.bias
            return y
        return x

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = self.prepare_input(x)
        for i in range(len(self.kinds)):
            x = self.apply_layer(i, x)
        return x if x.ndim == 2 else x.reshape(x.shape[0], -1)

    def prepare_input(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1:] != self.input_shape:
            raise ShapeError(
                f"batch shape {x.shape} does not match input shape {self.input_shape}"
            )
        if self.input_channels is not None:
            x = np.ascontiguousarray(x[:, self.input_channels])
        return x


def compact(net: NetworkState, plan: CompactPlan) -> CompactNetwork:
    """Materialize the plan; kept weights are copied bit-for-bit."""
    kinds: list[str] = []
    entries: list = []
    for i, spec in enumerate(net.layers):
        kinds.append(spec.kind)
        if spec.kind == "conv":
            cp = plan.conv.get(i)
            if cp is None:
                raise PlanError(f"plan is missing conv layer {i}")
            w2 = net.weights[i].reshape(spec.filters, spec.geom.cols)
            sub = w2[np.ix_(cp.keep_rows, cp.keep_cols)].copy()
            bias = None
            if net.biases[i] is not None:
                bias = net.biases[i][cp.keep_rows].copy()
            entries.append(CompactConv(geom=cp.geom, weight=sub, bias=bias,
                                       keep_cols=cp.keep_cols_new))
        elif spec.kind == "fc":
            w = net.weights[i]
            fp = plan.fc.get(i)
            w = w[:, fp.keep_in].copy() if fp is not None else w.copy()
            bias = None if net.biases[i] is None else net.biases[i].copy()
            entries.append(CompactFc(weight=w, bias=bias))
        else:
            entries.append(None)
    return CompactNetwork(kinds=kinds, entries=entries, input_shape=net.input_shape,
                          input_channels=plan.input_channels)


@dataclass
class FlopsAccount:
    """Exact per-layer forward FLOP counts (2 per multiply-accumulate)."""

    rows: list[dict] = field(default_factory=list)

    @property
    def total_base(self) -> int:
        return sum(r["flops_base"] for r in self.rows)

    @property
    def total_pruned(self) -> int:
        return sum(r["flops_pruned"] for r in self.rows)

    @property
    def conv_base(self) -> int:
        return sum(r["flops_base"] for r in self.rows if r["kind"] == "conv")

    @property
    def conv_pruned(self) -> int:
        return sum(r["flops_pruned"] for r in self.rows if r["kind"] == "conv")

    @property
    def ratio(self) -> float:
        return self.total_base / self.total_pruned

    @property
    def conv_ratio(self) -> float:
        return self.conv_base / self.conv_pruned

    def layer(self, i: int) -> dict:
        for r in self.rows:
            if r["layer"] == i:
                return r
        raise KeyError(i)


def count_gflops(net: NetworkState, plan: CompactPlan | None = None) -> FlopsAccount:
    """Integer FLOP counts per parametric layer, before and after the plan.

    Conv: 2 * filters * lowered-columns * output positions; fc: 2 * in * out.
    Pool and relu layers cost no multiply-accumulates and are omitted.
    """
    acct = FlopsAccount()
    for i, spec in enumerate(net.layers):
        if spec.kind == "conv":
            g = spec.geom
            base = 2 * spec.filters * g.cols * g.positions
            if plan is not None:
                cp = plan.conv.get(i)
                if cp is None:
                    raise PlanError(f"plan is missing conv layer {i}")
                pruned = 2 * len(cp.keep_rows) * len(cp.keep_cols) * g.positions
            else:
                pruned = base
            acct.rows.append(
                {"layer": i, "kind": "conv", "flops_base": base, "flops_pruned": pruned}
            )
        elif spec.kind == "fc":
            base = 2 * spec.in_features * spec.out_features
            kept_in = spec.in_features
            if plan is not None and i in plan.fc:
                kept_in = len(plan.fc[i].keep_in)
            acct.rows.append(
                {
                    "layer": i,
                    "kind": "fc",
                    "flops_base": base,
                    "flops_pruned": 2 * kept_in * spec.out_features,
                }
            )
    for r in acct.rows:
        if r["flops_pruned"] > r["flops_base"]:
            raise PlanError(f"layer {r['layer']}: pruned FLOPs exceed baseline")
    return acct


def _timed_forward_full(net: NetworkState, x: np.ndarray) -> list[float]:
    times = []
    for i in range(len(net.layers)):
        t0 = time.perf_counter()
        x, _ = apply_layer(net, i, x)
        times.append(time.perf_counter() - t0)
    return times


def _timed_forward_compact(cnet: CompactNetwork, x: np.ndarray) -> list[float]:
    x = cnet.prepare_input(x)
    times = []
    for i in range(len(cnet.kinds)):
        t0 = time.perf_counter()
        x = cnet.apply_layer(i, x)
        times.append(time.perf_counter() - t0)
    return times


def bench(
    net: NetworkState,
    cnet: CompactNetwork,
    batch: int = 10,
    repeats: int = 50,
    warmup: int = 5,
    seed: int = 0,
    flops: FlopsAccount | None = None,
) -> dict:
    """Median, IQR and mean wall time per forward pass for both networks.

    Each repeat times one masked and then one compacted forward, so drift
    in the host's speed reaches both sides alike. Layer rows carry FLOP
    counts when an account is supplied. Times come from a monotonic clock;
    the report records enough machine metadata to interpret the
    (machine-dependent) ratios later.
    """
    if repeats < 10:
        raise ValueError(f"repeats must be >= 10, got {repeats}")
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.standard_normal((batch, *net.input_shape)).astype(net.dtype)
    for _ in range(warmup):
        _timed_forward_full(net, x)
        _timed_forward_compact(cnet, x)
    base, pruned = [], []
    for _ in range(repeats):
        base.append(_timed_forward_full(net, x))
        pruned.append(_timed_forward_compact(cnet, x))
    base, pruned = np.array(base), np.array(pruned)

    def stats(samples: np.ndarray, side: str) -> dict:
        q1, med, q3 = np.percentile(samples, [25, 50, 75]) * 1e3
        return {f"ms_{side}": float(med), f"ms_{side}_iqr": float(q3 - q1),
                f"ms_{side}_mean": float(samples.mean() * 1e3)}

    def timing(b: np.ndarray, p: np.ndarray) -> dict:
        row = {**stats(b, "base"), **stats(p, "pruned")}
        mb, mp = row["ms_base"], row["ms_pruned"]
        row["ratio"] = mb / mp if mp > 0 else float("inf")
        return row

    layers = []
    for i, spec in enumerate(net.layers):
        row = {
            "layer": i,
            "kind": spec.kind,
            "flops_base": 0,
            "flops_pruned": 0,
            **timing(base[:, i], pruned[:, i]),
        }
        if flops is not None and spec.kind in ("conv", "fc"):
            f = flops.layer(i)
            row["flops_base"] = f["flops_base"]
            row["flops_pruned"] = f["flops_pruned"]
        layers.append(row)

    def totals(mask) -> dict:
        cols = [i for i, spec in enumerate(net.layers) if mask(spec.kind)]
        return timing(base[:, cols].sum(axis=1), pruned[:, cols].sum(axis=1))

    report = {
        "layers": layers,
        "total": totals(lambda k: True),
        "conv_total": totals(lambda k: k == "conv"),
        "metadata": {
            "batch": batch,
            "repeats": repeats,
            "warmup": warmup,
            "platform": platform.platform(),
            "processor": platform.processor() or platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    if flops is not None:
        report["flops"] = {
            "total_base": flops.total_base,
            "total_pruned": flops.total_pruned,
            "ratio": flops.ratio,
            "conv_base": flops.conv_base,
            "conv_pruned": flops.conv_pruned,
            "conv_ratio": flops.conv_ratio,
        }
    return report


def write_bench_report(report: dict, path) -> None:
    with open(path, "w") as f:
        json.dump(report, f, sort_keys=True, indent=2)
        f.write("\n")


def render_table(report: dict) -> str:
    """Fixed-width text table of the bench report."""
    head = f"{'layer':>5} {'kind':<12} {'GFLOPs base':>12} {'GFLOPs new':>12} " \
           f"{'ms base':>9} {'ms new':>9} {'ratio':>7}"
    lines = [head, "-" * len(head)]
    for r in report["layers"]:
        lines.append(
            f"{r['layer']:>5} {r['kind']:<12} {r['flops_base'] / 1e9:>12.6f} "
            f"{r['flops_pruned'] / 1e9:>12.6f} {r['ms_base']:>9.4f} "
            f"{r['ms_pruned']:>9.4f} {r['ratio']:>7.2f}"
        )
    for name in ("conv_total", "total"):
        t = report[name]
        lines.append(
            f"{'':>5} {name:<12} {'':>12} {'':>12} {t['ms_base']:>9.4f} "
            f"{t['ms_pruned']:>9.4f} {t['ratio']:>7.2f}"
        )
    if "flops" in report:
        f = report["flops"]
        lines.append(
            f"FLOPs speedup: total {f['ratio']:.4f}x, conv {f['conv_ratio']:.4f}x"
        )
    return "\n".join(lines)
