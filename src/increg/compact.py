"""Physical removal of pruned rows/columns/channels, plus FLOPs and timing.

A plan is built from the scheduler's group state and propagated along the
sequential chain: a pruned filter (row) drops its column block from the next
conv; a pruned input channel additionally retires the producing filter
upstream; pruned columns stay local to their layer. The compacted network is
an ordinary ``NetworkState`` of the kept weights, run by
``network.apply_layer``: a dead filter of the last conv also drops its slice
of the fc input, and a conv that lost columns keeps its kernel as a lowered
matrix and lowers only the input rows those columns read
(``LayerSpec.keep_cols``), so arbitrary column subsets remain dense. That
network is the one description of the pruned shape: its FLOPs are counted
from its own weights, like any network's. :class:`Compacted` trains it in
place of the full-size net and writes its kept entries back.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .network import (NetworkState, _batch_major, apply_layer, input_batch, layer_def,
                      resolve_layers)

if TYPE_CHECKING:               # the scheduler imports this module, not the reverse
    from .scheduler import LayerGroups


class PlanError(ValueError):
    """Scheduler state and network weights disagree, a plan is invalid, or a
    bench setting is out of range."""


MIN_REPEATS = 10                # the fewest timed repeats a bench reports on


@dataclass
class ConvPlan:
    """Kept filters and kept lowered columns of one conv, in its original indices."""

    keep_rows: np.ndarray
    keep_cols: np.ndarray


def check_pruned_zero(net: NetworkState, lg: LayerGroups, error: type[ValueError]) -> None:
    """Raise ``error`` if a group flagged pruned still holds a nonzero weight."""
    w = net.weights[lg.layer]
    # axis 1 of this view numbers the groups, as in scheduler._zero_groups
    grouped = w.reshape(1 if lg.kind == "row" else len(w), lg.n_groups, -1)
    live = np.flatnonzero(lg.pruned & grouped.any(axis=(0, 2)))
    if live.size:
        raise error(f"layer {lg.layer} group {live[0]} is pruned but has nonzero weights")


def build_plan(net: NetworkState, layer_groups: list[LayerGroups]) -> dict[int, ConvPlan]:
    """Translate pruned groups into kept filters and columns, keyed by conv layer.

    Each conv starts with every filter and lowered column kept. A pruned row
    clears its filter, a pruned column its column, and a pruned channel its
    block of columns plus, past the first conv, the filter upstream that
    produces it. A dead filter then clears its channel's block in the next
    conv. Raises PlanError where a conv keeps no filter or no column, or
    where no kept column of a conv reads a surviving filter of the previous
    one; that message names the previous conv.
    """
    convs = net.conv_indices
    rows = {l: np.ones(net.layers[l].filters, dtype=bool) for l in convs}
    cols = {l: np.ones(net.layers[l].geom.cols, dtype=bool) for l in convs}
    seen: set[int] = set()
    for lg in layer_groups:
        l = lg.layer
        check_pruned_zero(net, lg, PlanError)
        if l in seen:
            raise PlanError(f"layer {l} appears in two group sets")
        seen.add(l)
        if lg.kind == "row":
            rows[l] &= ~lg.pruned
            continue
        # column and channel groups both lie along the lowered columns
        cols[l] &= ~np.broadcast_to(lg.pruned.reshape(lg.layout),
                                    (1, *net.weights[l].shape[1:])).ravel()
        if lg.kind == "channel" and l != convs[0]:
            rows[convs[convs.index(l) - 1]] &= ~lg.pruned
    plan = {}
    prev = None                         # the previous conv
    for l in convs:
        g = net.layers[l].geom
        if not rows[l].any():
            raise PlanError(f"layer {l}: every filter pruned, nothing to keep")
        if not cols[l].any():
            raise PlanError(f"layer {l}: every column pruned, nothing to keep")
        if prev is not None:
            cols[l] &= np.repeat(rows[prev], g.kernel_h * g.kernel_w)
            if not cols[l].any():
                raise PlanError(f"layer {prev}: no kept column of layer {l} reads a "
                                f"surviving filter, so the net is disconnected")
        plan[l] = ConvPlan(keep_rows=np.flatnonzero(rows[l]),
                           keep_cols=np.flatnonzero(cols[l]))
        prev = l
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
        return _batch_major(x)


def kept_index(net: NetworkState, plan: dict[int, ConvPlan]) -> list:
    """Flat indices of each parametric layer's kept weights and biases.

    One ``(weight index, bias index)`` pair per parametric layer of the full
    network, None for the others, in the compacted layout's row-major
    order: ``np.take(w, index)`` is the compacted weight, and assigning
    through the index writes one back. A conv keeps its kept filters' kept
    lowered columns, and an fc right after the last conv the input slices
    of that conv's kept filters.
    """
    index: list = []
    arriving = None                     # kept filters of the previous conv, and their count
    for i, spec in enumerate(net.layers):
        if spec.kind == "conv":
            cp = plan[i]
            index.append(((cp.keep_rows[:, None] * spec.geom.cols + cp.keep_cols).ravel(),
                          cp.keep_rows))
            arriving = (cp.keep_rows, spec.filters)
        elif spec.kind == "fc":
            feats = np.arange(spec.in_features)
            if arriving is not None:
                rows, filters = arriving
                hw = spec.in_features // filters
                feats = (rows[:, None] * hw + np.arange(hw)).ravel()
                arriving = None
            outs = np.arange(spec.out_features)
            index.append(((outs[:, None] * spec.in_features + feats).ravel(), outs))
        else:
            index.append(None)
    return index


def compact(net: NetworkState, plan: dict[int, ConvPlan]) -> CompactNetwork:
    """Materialize the plan; kept weights, biases and momenta are copied bit-for-bit.

    The layers are resolved again on the kept filter counts, which gives
    every later conv and the fc their shrunk inputs; each parameter is its
    full-size array gathered through :func:`kept_index`. The first conv
    keeps the full input; like any conv that lost columns, it gets
    ``keep_cols``, its kept columns renumbered to the channels that reach it.
    """
    defs = [layer_def(spec) for spec in net.layers]
    for i in net.conv_indices:
        if i not in plan:
            raise PlanError(f"plan is missing conv layer {i}")
        defs[i]["filters"] = len(plan[i].keep_rows)
    layers = resolve_layers(defs, net.input_shape)
    arriving = None                     # kept filters of the previous conv
    for i in net.conv_indices:
        spec, cp = layers[i], plan[i]
        block = spec.geom.kernel_h * spec.geom.kernel_w
        cols = cp.keep_cols
        if arriving is not None:
            cols = np.searchsorted(arriving, cols // block) * block + cols % block
        if len(cols) < spec.geom.cols:
            spec.keep_cols = cols
        arriving = cp.keep_rows
    weights, biases, vel_w, vel_b = ([None] * len(layers) for _ in range(4))
    for i, ix in enumerate(kept_index(net, plan)):
        if ix is not None:
            shape = layers[i].weight_shape()
            weights[i] = np.take(net.weights[i], ix[0]).reshape(shape)
            vel_w[i] = np.take(net.vel_w[i], ix[0]).reshape(shape)
            biases[i] = np.take(net.biases[i], ix[1])
            vel_b[i] = np.take(net.vel_b[i], ix[1])
    return CompactNetwork(
        layers=layers, input_shape=net.input_shape, weights=weights, biases=biases,
        vel_w=vel_w, vel_b=vel_b,
        rng_seed=net.rng_seed, iteration=net.iteration, dtype=net.dtype,
        meta=dict(net.meta),
    )


_PARAMS = ("weights", "biases", "vel_w", "vel_b")


class Compacted:
    """The compacted net of a full-size net, which trains in its place, and
    the write-back of its kept entries.

    ``net`` is :func:`compact` of the plan, momenta included. On creation
    the full-size arrays are zeroed and take back the kept entries, so the
    weights that nothing reads (a filter retired upstream by a channel
    group, and the next conv's columns and the fc inputs that read a dead
    filter) hold zeros from then on; :meth:`scatter` writes the trained
    entries back through :func:`kept_index`. The prune's tail and the
    retrain both train through it.
    """

    def __init__(self, full: NetworkState, plan: dict[int, ConvPlan]):
        self.full = full
        self.net = compact(full, plan)
        self.index = kept_index(full, plan)
        for name in _PARAMS:
            for a in getattr(full, name):
                if a is not None:
                    a.fill(0)
        self.scatter()

    def scatter(self, names=_PARAMS, layers=None) -> None:
        """Write the compacted net's kept entries into the full-size arrays."""
        for name in names:
            which = name in ("biases", "vel_b")
            for i in self.full.parametric_indices if layers is None else layers:
                # reshape(-1) is a view: every array of a net is C-contiguous
                full = getattr(self.full, name)[i].reshape(-1)
                full[self.index[i][which]] = getattr(self.net, name)[i].reshape(-1)
        self.full.iteration = self.net.iteration


def count_gflops(net: NetworkState) -> dict[int, int]:
    """Exact forward FLOPs (2 per multiply-accumulate) of each parametric layer.

    Counted from the network's own weights: a conv costs 2 * w.size * output
    positions, an fc 2 * w.size, so a compacted network reports its pruned
    cost. Pool and relu layers cost no multiply-accumulates and are omitted.
    """
    return {i: 2 * net.weights[i].size * (spec.geom.positions if spec.kind == "conv" else 1)
            for i, spec in enumerate(net.layers) if spec.parametric}


def flops_totals(net: NetworkState, cnet: NetworkState) -> dict:
    """Whole-network and conv-only FLOPs of a network and its compacted form."""
    base, pruned = count_gflops(net), count_gflops(cnet)
    convs = net.conv_indices
    out = {"total_base": sum(base.values()), "total_pruned": sum(pruned.values()),
           "conv_base": sum(base[i] for i in convs),
           "conv_pruned": sum(pruned[i] for i in convs)}
    out["ratio"] = out["total_base"] / out["total_pruned"]
    out["conv_ratio"] = out["conv_base"] / out["conv_pruned"]
    return out


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
) -> dict:
    """Median, IQR and mean wall time per forward pass for both networks.

    Each repeat prepares one batch with ``cnet.prepare_input``, untimed, and
    times one masked and then one compacted forward of it, so drift in the
    host's speed reaches both sides alike. Layer rows and the
    ``flops`` totals carry each network's own FLOP counts. Times come from
    a monotonic clock; the report records enough machine metadata to
    interpret the (machine-dependent) ratios later.
    """
    if batch < 1 or warmup < 0 or repeats < MIN_REPEATS:
        raise PlanError(f"bench needs batch >= 1, warmup >= 0 and repeats >= "
                        f"{MIN_REPEATS}, got {batch}, {warmup} and {repeats}")
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.standard_normal((batch, *net.input_shape)).astype(net.dtype)
    depth = len(net.layers)

    def masked(i, x):
        return apply_layer(net, i, x)[0]

    base, pruned = [], []
    for k in range(warmup + repeats):
        xb = cnet.prepare_input(x)      # the one batch both sides run, untimed
        b = _timed_forward(masked, xb, depth)
        p = _timed_forward(cnet.apply_layer, xb, depth)
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

    flops_base, flops_pruned = count_gflops(net), count_gflops(cnet)
    layers = [{"layer": i, "kind": spec.kind, "flops_base": flops_base.get(i, 0),
               "flops_pruned": flops_pruned.get(i, 0), **timing(base[:, i], pruned[:, i])}
              for i, spec in enumerate(net.layers)]

    def totals(mask) -> dict:
        cols = [i for i, spec in enumerate(net.layers) if mask(spec.kind)]
        return timing(base[:, cols].sum(axis=1), pruned[:, cols].sum(axis=1))

    return {
        "layers": layers,
        "flops": flops_totals(net, cnet),
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
    f = report["flops"]
    lines.append(f"FLOPs speedup: total {f['ratio']:.4f}x, conv {f['conv_ratio']:.4f}x")
    return "\n".join(lines)
