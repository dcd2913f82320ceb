"""Physical removal of pruned rows/columns/channels, plus FLOPs and timing.

A plan is built from the scheduler's group state and propagated along the
sequential chain: a pruned filter (row) drops its column block from the next
conv and its slice from the fc input; a pruned input channel additionally
retires the producing filter upstream; pruned columns stay local to their
layer. The compacted network is an ordinary ``NetworkState`` of the kept
weights, run by ``network.apply_layer``: a conv that lost columns keeps its
kernel as a lowered matrix and lowers only the input rows those columns
read (``LayerSpec.keep_cols``), so arbitrary column subsets remain dense.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, field

import numpy as np

from .network import NetworkState, apply_layer, input_batch, layer_def, resolve_layers
from .scheduler import LayerGroups, group_l1


class PlanError(ValueError):
    """Scheduler state and network weights disagree, or a plan is invalid."""


@dataclass
class ConvPlan:
    """Kept filters and kept lowered columns of one conv, in its original indices."""

    keep_rows: np.ndarray
    keep_cols: np.ndarray


@dataclass
class FcPlan:
    keep_in: np.ndarray


@dataclass
class CompactPlan:
    conv: dict[int, ConvPlan] = field(default_factory=dict)
    fc: dict[int, FcPlan] = field(default_factory=dict)


def _pruned_sets(net: NetworkState, layer_groups: list[LayerGroups]):
    rows: dict[int, set] = {}
    cols: dict[int, set] = {}
    chans: dict[int, set] = {}
    for lg in layer_groups:
        # a group's L1-norm is 0 exactly when every weight in it is 0
        live = np.flatnonzero(lg.pruned & (group_l1(net.weights[lg.layer], lg.kind) != 0))
        if live.size:
            raise PlanError(
                f"layer {lg.layer} group {live[0]} is pruned but has nonzero weights"
            )
        bucket = {"row": rows, "column": cols, "channel": chans}[lg.kind]
        if lg.layer in bucket:
            raise PlanError(f"layer {lg.layer} appears in two group sets")
        bucket[lg.layer] = set(np.flatnonzero(lg.pruned).tolist())
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
            ch = sorted(set(range(g.in_channels)) - pruned_ch.get(l, set()))
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
        keep_cols = [int(c) * block + j for c in ch for j in range(block)
                     if int(c) * block + j not in gone_cols]
        if not keep_cols:
            raise PlanError(f"layer {l}: every column pruned, nothing to keep")
        plan.conv[l] = ConvPlan(keep_rows=keep_rows,
                                keep_cols=np.array(keep_cols, dtype=np.intp))
        prev_keep_rows = keep_rows
    if convs and prev_keep_rows is not None and len(prev_keep_rows) < net.layers[convs[-1]].filters:
        last = convs[-1]
        for i, spec in enumerate(net.layers):
            if spec.kind == "fc" and i > last:
                hw = spec.in_features // net.layers[last].filters
                keep_in = (prev_keep_rows[:, None] * hw + np.arange(hw)).ravel()
                plan.fc[i] = FcPlan(keep_in=keep_in)
                break
    return plan


class CompactNetwork(NetworkState):
    """A network of the kept weights, which ``network.apply_layer`` runs.

    The methods are the per-pass and per-layer hooks that :func:`bench`
    times; they hold no layer math of their own.
    """

    @property
    def kinds(self) -> list[str]:
        return [spec.kind for spec in self.layers]

    def prepare_input(self, x: np.ndarray) -> np.ndarray:
        return input_batch(self, x)

    def apply_layer(self, i: int, x: np.ndarray) -> np.ndarray:
        return apply_layer(self, i, x)[0]

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = self.prepare_input(x)
        for i in range(len(self.layers)):
            x = self.apply_layer(i, x)
        return x.reshape(x.shape[0], -1)


def compact(net: NetworkState, plan: CompactPlan) -> CompactNetwork:
    """Materialize the plan; kept weights are copied bit-for-bit.

    The layers are resolved again on the kept filter counts, which gives
    every later conv and the fc their shrunk inputs. The first conv keeps
    the full input; like any conv that lost columns, it gets ``keep_cols``,
    its kept columns renumbered to the channels that reach it.
    """
    defs = [layer_def(spec) for spec in net.layers]
    for i in net.conv_indices:
        if i not in plan.conv:
            raise PlanError(f"plan is missing conv layer {i}")
        defs[i]["filters"] = len(plan.conv[i].keep_rows)
    layers = resolve_layers(defs, net.input_shape)
    weights, biases = [], []
    arriving = None                     # kept filters of the previous conv
    for i, spec in enumerate(layers):
        w, b = net.weights[i], net.biases[i]
        if spec.kind == "conv":
            cp = plan.conv[i]
            block = spec.geom.kernel_h * spec.geom.kernel_w
            cols = cp.keep_cols
            if arriving is not None:
                cols = np.searchsorted(arriving, cols // block) * block + cols % block
            if len(cols) < spec.geom.cols:
                spec.keep_cols = cols
            w = w.reshape(len(w), -1)[np.ix_(cp.keep_rows, cp.keep_cols)]
            w = w.reshape(spec.weight_shape())
            b = None if b is None else b[cp.keep_rows]
            arriving = cp.keep_rows
        elif i in plan.fc:
            w = w[:, plan.fc[i].keep_in]
        weights.append(None if w is None else w.copy())
        biases.append(None if b is None else b.copy())
    return CompactNetwork(
        layers=layers, input_shape=net.input_shape, weights=weights, biases=biases,
        vel_w=[None if w is None else np.zeros_like(w) for w in weights],
        vel_b=[None if b is None else np.zeros_like(b) for b in biases],
        rng_seed=net.rng_seed, iteration=net.iteration, dtype=net.dtype,
        meta=dict(net.meta),
    )


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


def _timed_forward(apply, x: np.ndarray, depth: int) -> list[float]:
    """Seconds per layer of one forward, ``apply(i, x)`` running layer i."""
    times = []
    for i in range(depth):
        t0 = time.perf_counter()
        x = apply(i, x)
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
    depth = len(net.layers)

    def masked(i, x):
        return apply_layer(net, i, x)[0]

    base, pruned = [], []
    for k in range(warmup + repeats):
        b = _timed_forward(masked, x, depth)
        p = _timed_forward(cnet.apply_layer, cnet.prepare_input(x), depth)
        if k >= warmup:
            base.append(b)
            pruned.append(p)
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
