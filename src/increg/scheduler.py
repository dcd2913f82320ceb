"""Incremental group regularization: rank-driven per-group factor updates.

Each conv layer is cut into weight groups (rows = filters, columns
= kernel positions across filters, channels = contiguous column blocks).
Every iteration the groups are ranked by L1-norm; every update interval each
group's regularization factor moves by a piecewise-linear amount of its
running-average rank: low-ranked (unimportant) groups are pushed toward
zero, high-ranked ones get relief. Groups whose L1-norm falls below a
threshold are pruned permanently, until every layer holds exactly its
target count: the scheduler writes zeros into every pruned group before
each step. The rest of the phase then trains the compacted network, and
so does the retrain that follows (:func:`retrain_network`).
A layer's whole state is a few per-group vectors
(:class:`LayerGroups`); :func:`group_layout` and :func:`group_l1` define
where each group lies in the weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .compact import Compacted, PlanError, build_plan, check_pruned_zero
from .network import NetworkState, TrainConfig, _sgd_loop, evaluate
from .report import PruneReport, Snapshot

GROUP_KINDS = ("row", "column", "channel")


class ScheduleError(ValueError):
    """A pruning schedule is inconsistent with the network or itself."""


class PruneStopped(Exception):
    """A prune that stopped without a pruned net.

    Carries the partial report and group state for post-mortem inspection.
    """

    def __init__(self, message: str, report: PruneReport, groups: list):
        super().__init__(message)
        self.report = report
        self.groups = groups


class PruneDidNotConverge(PruneStopped, RuntimeError):
    """Targets were not reached within the iteration budget."""


class PruneCannotCompact(PruneStopped, PlanError):
    """Every layer reached its target, but the pruned groups leave some conv
    nothing to keep, or nothing that reads the previous conv's surviving
    filters (see ``compact.build_plan``)."""


@dataclass(frozen=True)
class PruneSchedule:
    """Per-layer pruning plan; layer None means every conv layer without its own."""

    ratio: float
    speed: float
    epsilon: float = 1e-5
    update_interval: int = 10
    kind: str = "column"
    layer: int | None = None

    def __post_init__(self):
        if not 0 <= self.ratio < 1:
            raise ScheduleError(f"ratio must be in [0,1), got {self.ratio}")
        # written so that NaN fails too
        if not 0 < self.speed < math.inf:
            raise ScheduleError(f"speed must be positive and finite, got {self.speed}")
        if not 0 < self.epsilon < math.inf:
            raise ScheduleError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.update_interval < 1:
            raise ScheduleError(f"update_interval must be >= 1, got {self.update_interval}")
        if self.kind not in GROUP_KINDS:
            raise ScheduleError(f"unknown group kind {self.kind!r}")


def group_layout(kind: str, shape: tuple[int, ...]) -> tuple[int, int, int, int]:
    """Broadcast shape of a per-group vector over an (N, C, kh, kw) conv weight.

    Groups are numbered in the row-major order of that shape: a column is
    one kernel position across all filters, a row one filter, a channel one
    input channel's kh*kw block across all filters.
    """
    n, c, kh, kw = shape
    if kind == "column":
        return (1, c, kh, kw)
    if kind == "row":
        return (n, 1, 1, 1)
    return (1, c, 1, 1)


def group_l1(w: np.ndarray, kind: str) -> np.ndarray:
    """Per-group L1-norms of a conv weight, in float32 and a fixed summation order."""
    n, c = w.shape[:2]
    flat = np.abs(w.reshape(n, -1))
    if kind == "row":
        return flat.sum(axis=1)
    vec = flat.sum(axis=0)
    if kind == "channel":
        return vec.reshape(c, -1).sum(axis=1)
    return vec


@dataclass
class LayerGroups:
    """Scheduler state of one layer, one vector entry per group.

    ``lam`` (the factors), ``rank_sum`` and ``l1`` (the norm cached by
    :func:`refresh_l1`, 0 once pruned) are float64 and ``pruned`` is bool.
    Every group of a layer is ranked on every iteration, so one
    ``rank_count`` serves them all.
    """

    layer: int
    kind: str
    layout: tuple[int, int, int, int]
    target: int
    schedule: PruneSchedule
    rank_count: int = 0
    lam: np.ndarray = field(init=False)
    rank_sum: np.ndarray = field(init=False)
    l1: np.ndarray = field(init=False)
    pruned: np.ndarray = field(init=False)

    def __post_init__(self):
        n = math.prod(self.layout)
        self.lam = np.zeros(n)
        self.rank_sum = np.zeros(n)
        self.l1 = np.zeros(n)
        self.pruned = np.zeros(n, dtype=bool)

    @property
    def n_groups(self) -> int:
        return len(self.lam)

    @property
    def pruned_count(self) -> int:
        return int(np.count_nonzero(self.pruned))

    @property
    def finished(self) -> bool:
        return self.pruned_count >= self.target

    @property
    def avg_rank(self) -> np.ndarray:
        if self.rank_count == 0:
            raise ScheduleError(f"layer {self.layer}: groups were never ranked")
        return self.rank_sum / self.rank_count


def target_count(ratio: float, n_groups: int) -> int:
    """Round ratio * n_groups to the nearest integer, ties upward."""
    return int(math.floor(ratio * n_groups + 0.5))


def build_groups(net: NetworkState, schedule: PruneSchedule, layer: int) -> LayerGroups:
    """Cut one conv layer into groups under a schedule with a bound layer."""
    if not isinstance(layer, int) or not 0 <= layer < len(net.layers):
        raise ScheduleError(f"no layer {layer!r} in a {len(net.layers)}-layer network")
    spec = net.layers[layer]
    if spec.kind != "conv":
        raise ScheduleError(f"layer {layer} is {spec.kind!r}, only conv layers have groups")
    layout = group_layout(schedule.kind, net.weights[layer].shape)
    n_g = math.prod(layout)
    target = target_count(schedule.ratio, n_g)
    if target > 0 and (n_g - 1) - schedule.ratio * n_g <= 0:
        raise ScheduleError(
            f"layer {layer}: ratio {schedule.ratio} leaves fewer than 2 of "
            f"{n_g} groups, rank mapping is degenerate"
        )
    return LayerGroups(layer=layer, kind=schedule.kind, layout=layout,
                       target=target, schedule=schedule)


def build_all_groups(net: NetworkState, schedules: list[PruneSchedule]) -> list[LayerGroups]:
    """Bind schedules to layers; every conv layer must be covered (ratio 0 keeps it whole)."""
    convs = net.conv_indices
    if not convs:
        raise ScheduleError("network has no conv layer")
    bound: dict[int, PruneSchedule] = {}
    default = None
    for sch in schedules:
        if sch.layer is None:
            if default is not None:
                raise ScheduleError("more than one default (layer-less) schedule")
            default = sch
        else:
            if sch.layer in bound:
                raise ScheduleError(f"layer {sch.layer} has two schedules")
            if sch.layer not in convs:
                raise ScheduleError(f"layer {sch.layer} is not a conv layer")
            bound[sch.layer] = sch
    for i in convs:
        if i not in bound:
            if default is None:
                raise ScheduleError(f"conv layer {i} has no schedule")
            bound[i] = replace(default, layer=i)
    return [build_groups(net, bound[i], i) for i in sorted(bound)]


def refresh_l1(net: NetworkState, lg: LayerGroups) -> np.ndarray:
    """Recompute and cache every group's current L1-norm; returns the float32 vector."""
    vec = group_l1(net.weights[lg.layer], lg.kind)
    lg.l1[:] = vec
    lg.l1[lg.pruned] = 0.0
    return vec


def _ranks(keys: np.ndarray) -> np.ndarray:
    if len(keys) == 0:
        raise ScheduleError("cannot rank an empty group list")
    order = np.argsort(keys, kind="stable")
    ranks = np.empty(len(keys), dtype=np.intp)
    ranks[order] = np.arange(len(keys))
    return ranks


def rank_groups(l1: np.ndarray) -> np.ndarray:
    """Instantaneous ranks: ascending L1-norm, ties by group index."""
    return _ranks(np.asarray(l1))


def final_rank(lg: LayerGroups) -> np.ndarray:
    """Integer ranks of the running-average ranks, stable ties by index."""
    return _ranks(lg.avg_rank)


def delta_lambda(rank, ratio: float, n_groups: int, speed: float):
    """Piecewise-linear factor increment as a function of final rank.

    Decreases from +speed at rank 0 through 0 at ratio*n_groups down to
    exactly -speed at rank n_groups-1. ``rank`` may be a scalar (the
    increment is a float) or an array of ranks (an array of increments).
    """
    if n_groups < 2:
        raise ScheduleError(f"need at least 2 groups, got {n_groups}")
    r = np.asarray(rank)
    outside = r[(r < 0) | (r > n_groups - 1)]
    if outside.size:
        raise ScheduleError(f"rank {outside[0]} outside [0, {n_groups - 1}]")
    if speed <= 0:
        raise ScheduleError(f"speed must be positive, got {speed}")
    s = ratio * n_groups
    if s <= 0:
        raise ScheduleError(f"ratio {ratio} gives a degenerate zero split point")
    denom = (n_groups - 1) - s
    if denom <= 0:
        raise ScheduleError(
            f"ratio {ratio} with {n_groups} groups leaves no decreasing branch"
        )
    delta = np.where(r <= s, speed * (1.0 - r / s), -speed * ((r - s) / denom))
    return float(delta) if delta.ndim == 0 else delta


def prune_converged(net: NetworkState, lg: LayerGroups,
                    max_new: int | None = None) -> np.ndarray:
    """Prune unpruned groups whose cached L1-norm fell below epsilon.

    ``max_new`` caps how many are pruned this call (smallest norms first,
    ties by index) so a layer never overshoots its target count. The new
    groups are zeroed by :func:`_zero_groups`; returns their indices in
    pruning order.
    """
    below = np.flatnonzero(~lg.pruned & (lg.l1 < lg.schedule.epsilon))
    if below.size == 0:
        return below
    below = below[np.argsort(lg.l1[below], kind="stable")]
    if max_new is not None:
        below = below[: max(max_new, 0)]
    lg.pruned[below] = True
    lg.l1[below] = 0.0
    _zero_groups(net, lg, below)
    return below


def _zero_groups(net: NetworkState, lg: LayerGroups, idx: np.ndarray) -> None:
    """Write +0 into groups ``idx`` of a layer: their weights and weight
    momenta, and for row groups their filters' biases and bias momenta (or a
    pruned filter's output plane would stay biased)."""
    row = lg.kind == "row"
    for a in (net.weights[lg.layer], net.vel_w[lg.layer]):
        # axis 1 numbers the groups (see group_layout); a net's arrays are
        # C-contiguous, so the reshape is a view
        a.reshape(1 if row else len(a), lg.n_groups, -1)[:, idx] = 0
    if row:
        net.biases[lg.layer][idx] = 0
        net.vel_b[lg.layer][idx] = 0


_META_KEYS = ("layer", "kind", "target", "ratio", "speed", "epsilon",
              "update_interval", "lambda", "rank_sum", "rank_count", "pruned")
_META_NUMBERS = {"ratio": (int, float), "speed": (int, float), "epsilon": (int, float),
                 "update_interval": (int,), "layer": (int,)}


def groups_to_meta(layer_groups: list[LayerGroups]) -> list[dict]:
    """JSON-serializable scheduler state for checkpoints."""
    out = []
    for lg in layer_groups:
        out.append({
            "layer": lg.layer,
            "kind": lg.kind,
            "target": lg.target,
            "ratio": lg.schedule.ratio,
            "speed": lg.schedule.speed,
            "epsilon": lg.schedule.epsilon,
            "update_interval": lg.schedule.update_interval,
            "lambda": lg.lam.tolist(),
            "rank_sum": lg.rank_sum.tolist(),
            "rank_count": [lg.rank_count] * lg.n_groups,
            "pruned": lg.pruned.astype(int).tolist(),
        })
    return out


def groups_from_meta(net: NetworkState, meta: list[dict]) -> list[LayerGroups]:
    """Rebuild scheduler state saved by :func:`groups_to_meta`.

    Raises ScheduleError for a state that is not a list, a missing key, a
    schedule value that is not a finite plain number (an int for
    ``update_interval`` and ``layer``), a per-group list whose length is
    not the layer's group count, a NaN or infinite factor or rank sum,
    unequal rank counts, pruned flags other than 0 and 1, a pruned group
    whose weights are not all zero, or unreadable values.
    """
    if not isinstance(meta, list):
        raise ScheduleError(f"scheduler state must be a list of layers, got {meta!r}")
    out = []
    for m in meta:
        if not isinstance(m, dict):
            raise ScheduleError(f"scheduler state entry {m!r} is not a mapping")
        missing = [k for k in _META_KEYS if k not in m]
        if missing:
            raise ScheduleError(f"scheduler state lacks {', '.join(missing)}")
        for key, kinds in _META_NUMBERS.items():
            # plain numbers only, as load_checkpoint checks seed: a bool is neither
            if type(m[key]) not in kinds:
                what = "a number" if float in kinds else "an integer"
                raise ScheduleError(f"scheduler state {key!r} must be {what}, got {m[key]!r}")
            if not math.isfinite(m[key]):
                raise ScheduleError(f"scheduler state {key!r} must be finite, got {m[key]!r}")
        sch = PruneSchedule(
            ratio=m["ratio"], speed=m["speed"], epsilon=m["epsilon"],
            update_interval=m["update_interval"], kind=m["kind"], layer=m["layer"],
        )
        lg = build_groups(net, sch, m["layer"])
        for key in ("lambda", "rank_sum", "rank_count", "pruned"):
            if not isinstance(m[key], list) or len(m[key]) != lg.n_groups:
                raise ScheduleError(
                    f"layer {lg.layer}: saved {key!r} does not list its "
                    f"{lg.n_groups} groups"
                )
        if m["target"] != lg.target:
            raise ScheduleError(f"layer {lg.layer}: saved target {m['target']} vs {lg.target}")
        if any(f not in (0, 1) for f in m["pruned"]):
            raise ScheduleError(f"layer {lg.layer}: pruned flags must be 0 or 1")
        try:
            if len(set(m["rank_count"])) != 1:
                raise ScheduleError(f"layer {lg.layer}: groups saved with unequal rank counts")
            lg.lam[:] = m["lambda"]
            lg.rank_sum[:] = m["rank_sum"]
            lg.rank_count = int(m["rank_count"][0])
            lg.pruned[:] = m["pruned"]
        except (TypeError, ValueError) as e:
            raise ScheduleError(f"layer {lg.layer}: unreadable scheduler state: {e}") from e
        for key, vec in (("lambda", lg.lam), ("rank_sum", lg.rank_sum)):
            bad = np.flatnonzero(~np.isfinite(vec))
            if bad.size:
                raise ScheduleError(f"layer {lg.layer}: saved {key!r} of group {bad[0]} "
                                    f"is {vec[bad[0]]}, not a finite number")
        check_pruned_zero(net, lg, ScheduleError)
        refresh_l1(net, lg)
        out.append(lg)
    return out


class _CompactTail(Compacted):
    """The compacted net that trains a prune's steps after every layer is
    finished, and each layer's factors cut to it.

    Each tail step writes the kept conv weights back before the scheduler
    reads its group norms from the full-size weights.
    """

    def __init__(self, full: NetworkState, layer_groups: list[LayerGroups]):
        plan = build_plan(full, layer_groups)
        super().__init__(full, plan)
        # each layer's factors as the compacted weight's extra decay: one per
        # kept filter for rows, one per kept lowered column for columns and
        # channels (a channel's factor over its block of columns)
        self.factors = []
        for lg in layer_groups:
            cp, w = plan[lg.layer], self.net.weights[lg.layer]
            if lg.kind == "row":
                self.factors.append((lg, cp.keep_rows, (-1,) + (1,) * (w.ndim - 1)))
            else:
                g = full.layers[lg.layer].geom
                block = g.kernel_h * g.kernel_w
                sel = cp.keep_cols if lg.kind == "column" else cp.keep_cols // block
                self.factors.append((lg, sel, (1, *w.shape[1:])))

    def reg(self) -> dict[int, np.ndarray]:
        return {lg.layer: lg.lam[sel].reshape(shape) for lg, sel, shape in self.factors}


def _snapshot(snapshots: list, step: int, layer_groups: list[LayerGroups],
              inst: dict[int, np.ndarray]) -> None:
    # l1, lam and pruned change in place on later steps, so they are copied
    for lg in layer_groups:
        snapshots.append(Snapshot(step, lg.layer, lg.l1.copy(), lg.lam.copy(),
                                  inst[lg.layer], lg.avg_rank, lg.pruned.copy()))


def run_pruning(
    net: NetworkState,
    x: np.ndarray,
    y: np.ndarray,
    cfg: TrainConfig,
    schedules: list[PruneSchedule],
    *,
    seed: int | None = None,
    eval_data: tuple | None = None,
    report_stride: int = 1,
) -> tuple[NetworkState, PruneReport, list[LayerGroups]]:
    """Train for cfg.max_iters while driving per-group factors.

    The steps are those of the SGD loop that train and retrain run, with
    the lr counted from this phase's step 0. Before every step: write zeros
    into every pruned group (its weights and momenta, and a row's bias),
    which the previous step moved; refresh norms; prune converged groups
    (capped at each layer's remaining target); record instantaneous ranks.
    After the last step the zeroing, refresh and prune run once more.
    At each layer's update interval, move factors by the rank law; once a
    layer hits its target its surviving factors are stepped back to zero.
    The step then applies the factors, each in its layer's
    :func:`group_layout`, to every entry. The factor machinery going quiet
    does not stop training: all cfg.max_iters iterations run, so a
    zero-ratio schedule reproduces ``network.train_network`` bitwise.

    From the first step at which every layer is finished, the remaining
    steps (the summary's ``compacted_steps``) train the compacted net of
    ``compact.compact``, with each layer's factors cut to its kept filters
    or columns; the scheduler still reads every group's norm over the
    full-size weights, but zeroes no group again, since those steps never
    touch a full-size pruned entry. At the end the kept weights, biases
    and momenta are written back into ``net``'s full-size arrays, where
    every weight that nothing reads and no group prunes is an exact zero:
    a filter retired upstream by a channel group, and the next conv's
    columns and the fc inputs that read a dead filter. A zero-ratio
    schedule keeps every filter and column, so it still matches plain
    training bit for bit. The summary's ``converged_iteration`` is the
    net's global iteration (earlier phases' steps included) at the first
    finished step, or after the last step if only that step finished it.

    Raises PruneDidNotConverge if any layer misses its target (the net
    then never compacted, and its state stays full-size);
    PruneCannotCompact, a PlanError, at the first finished step if the
    pruned groups leave a conv no filter or no column to keep, or no kept
    column that reads the previous conv's surviving filters (its report
    ends with every layer's state at that step); TrainingDiverged at the
    first non-finite loss; and DatasetError before the first step if a
    label is not one of the net's classes.

    report_stride thins the report to every Nth update step (the first and
    final states are always recorded); it does not change the schedule.
    Fine-tuning is not part of this phase: :func:`retrain_network` runs it
    on the pruned net and its groups, as ``increg retrain`` does.
    """
    if report_stride < 1:
        raise ScheduleError(f"report_stride must be >= 1, got {report_stride}")
    layer_groups = build_all_groups(net, schedules)
    snapshots: list[Snapshot] = []
    converged_at: int | None = None
    tail: _CompactTail | None = None
    tail_steps = 0

    def prune_pass() -> bool:
        for lg in layer_groups:
            if tail is None:    # the tail never touches a full-size pruned entry
                _zero_groups(net, lg, np.flatnonzero(lg.pruned))
            refresh_l1(net, lg)
            if not lg.finished:
                prune_converged(net, lg, max_new=lg.target - lg.pruned_count)
        return all(lg.finished for lg in layer_groups)

    def summary() -> dict:
        return {
            "converged_iteration": converged_at,
            "prune_iters": cfg.max_iters,
            "compacted_steps": tail_steps,
            "layers": [
                {
                    "layer": lg.layer,
                    "kind": lg.kind,
                    "n_groups": lg.n_groups,
                    "target": lg.target,
                    "pruned": lg.pruned_count,
                }
                for lg in layer_groups
            ],
        }

    def terms(k: int):
        nonlocal converged_at, tail, tail_steps
        if tail is not None:
            tail.scatter(("weights",), [lg.layer for lg in layer_groups])
        t = net.iteration
        finished = prune_pass() and converged_at is None
        if finished:
            converged_at = t
        inst: dict[int, np.ndarray] = {}
        for lg in layer_groups:
            inst[lg.layer] = ranks = rank_groups(lg.l1)
            lg.rank_sum += ranks
            lg.rank_count += 1
        due = [lg for lg in layer_groups if k % lg.schedule.update_interval == 0]
        for lg in due:
            # factors move by the rank law, clamped at zero; pruned ones stay frozen
            live = ~lg.pruned
            if not lg.finished:
                delta = delta_lambda(final_rank(lg), lg.schedule.ratio,
                                     lg.n_groups, lg.schedule.speed)
                lg.lam[live] = np.maximum(lg.lam[live] + delta[live], 0.0)
            else:
                live &= lg.lam > 0
                lg.lam[live] = np.maximum(lg.lam[live] - lg.schedule.speed, 0.0)
        if finished:
            try:
                tail = _CompactTail(net, layer_groups)
            except PlanError as e:
                # the report ends with every layer's state at this step
                _snapshot(snapshots, t, layer_groups, inst)
                raise PruneCannotCompact(str(e), PruneReport(snapshots, summary()),
                                         layer_groups) from e
            tail_steps = cfg.max_iters - k
        snap = [lg for lg in due
                if k % (lg.schedule.update_interval * report_stride) == 0]
        if snap:
            _snapshot(snapshots, t, snap, inst)
        if tail is not None:
            return tail.net, tail.reg()
        # views, not copies: the step reads them before the factors move again
        return net, {lg.layer: lg.lam.reshape(lg.layout) for lg in layer_groups}

    _sgd_loop(net, x, y, cfg, net.rng_seed if seed is None else seed, "prune",
              terms, val=eval_data)
    if tail is not None:
        tail.scatter()

    # the last step may have pushed the final groups under the threshold
    if prune_pass() and converged_at is None:
        converged_at = net.iteration
    inst = {lg.layer: rank_groups(lg.l1) for lg in layer_groups}
    _snapshot(snapshots, net.iteration, layer_groups, inst)

    report = PruneReport(snapshots=snapshots, summary=summary())
    if converged_at is None:
        missing = {
            lg.layer: (lg.pruned_count, lg.target)
            for lg in layer_groups if not lg.finished
        }
        raise PruneDidNotConverge(
            f"targets missed after {cfg.max_iters} iterations: "
            + ", ".join(f"layer {l}: {p}/{t}" for l, (p, t) in missing.items()),
            report, layer_groups,
        )

    if eval_data is not None:
        acc, loss = evaluate(net, eval_data[0], eval_data[1])
        report.summary["final_accuracy"] = acc
        report.summary["final_loss"] = loss
    return net, report, layer_groups


def retrain_network(net: NetworkState, layer_groups: list[LayerGroups], x: np.ndarray,
                    y: np.ndarray, cfg: TrainConfig, seed: int, val=None,
                    log_rows=None) -> NetworkState:
    """Fine-tune a pruned net: ``cfg.max_iters`` steps of the SGD loop on its
    compacted net, with no group factors.

    The net is compacted with its momenta through :class:`compact.Compacted`,
    and at the end every kept weight, bias and momentum is written back
    into ``net``'s full-size arrays, where every pruned weight and every
    weight that nothing reads is an exact zero: a filter retired upstream
    by a channel group, and the next conv's columns and the fc inputs that
    read a dead filter. Groups that prune nothing compact to the whole net,
    so then this equals ``network.train_network`` bit for bit. Returns the
    compacted net it trained. Raises PlanError before the first step if the
    groups leave some conv no filter or no column to keep (see
    ``compact.build_plan``); see :func:`network._sgd_loop` for the batch
    stream, the lr schedule, the per-epoch log and the other errors.
    """
    small = Compacted(net, build_plan(net, layer_groups))
    _sgd_loop(small.net, x, y, cfg, seed, "retrain",
              lambda k: (small.net, None), val, log_rows)
    small.scatter()
    return small.net
