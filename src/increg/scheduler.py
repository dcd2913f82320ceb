"""Incremental group regularization: rank-driven per-group factor updates.

Each prunable conv layer is cut into weight groups (rows = filters, columns
= kernel positions across filters, channels = contiguous column blocks).
Every iteration the groups are ranked by L1-norm; every update interval each
group's regularization factor moves by a piecewise-linear amount of its
running-average rank: low-ranked (unimportant) groups are pushed toward
zero, high-ranked ones get relief. Groups whose L1-norm falls below a
threshold are pruned permanently, until every layer holds exactly its
target count.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .data import batch_iter
from .network import (
    NetworkState,
    TrainConfig,
    check_loss,
    evaluate,
    loss_and_grads,
    lr_at,
    sgd_step,
)
from .report import PruneReport

log = logging.getLogger(__name__)

GROUP_KINDS = ("row", "column", "channel")


class ScheduleError(ValueError):
    """A pruning schedule is inconsistent with the network or itself."""


class PruneDidNotConverge(RuntimeError):
    """Targets were not reached within the iteration budget.

    Carries the partial report and group state for post-mortem inspection.
    """

    def __init__(self, message: str, report: PruneReport, groups: list):
        super().__init__(message)
        self.report = report
        self.groups = groups


@dataclass
class GroupState:
    """One weight group of one layer."""

    layer: int
    index: int
    members: np.ndarray            # flat indices into the layer's weight array
    lambda_g: float = 0.0
    rank_sum: float = 0.0
    rank_count: int = 0
    pruned: bool = False
    l1: float = 0.0

    @property
    def avg_rank(self) -> float:
        if self.rank_count == 0:
            raise ScheduleError(f"group {self.layer}/{self.index} was never ranked")
        return self.rank_sum / self.rank_count


@dataclass(frozen=True)
class PruneSchedule:
    """Per-layer pruning plan; layer None means every non-exempt conv layer."""

    ratio: float
    speed: float | None = None     # None: half the base weight decay
    epsilon: float = 1e-5
    update_interval: int = 10
    kind: str = "column"
    layer: int | None = None

    def __post_init__(self):
        if not 0 <= self.ratio < 1:
            raise ScheduleError(f"ratio must be in [0,1), got {self.ratio}")
        if self.speed is not None and self.speed <= 0:
            raise ScheduleError(f"speed must be positive, got {self.speed}")
        if self.epsilon <= 0:
            raise ScheduleError(f"epsilon must be positive, got {self.epsilon}")
        if self.update_interval < 1:
            raise ScheduleError(f"update_interval must be >= 1, got {self.update_interval}")
        if self.kind not in GROUP_KINDS:
            raise ScheduleError(f"unknown group kind {self.kind!r}")


@dataclass
class LayerGroups:
    """All groups of one layer plus its resolved schedule and target count."""

    layer: int
    kind: str
    groups: list[GroupState]
    target: int
    schedule: PruneSchedule

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def pruned_count(self) -> int:
        return sum(g.pruned for g in self.groups)

    @property
    def finished(self) -> bool:
        return self.pruned_count >= self.target


def _group_members(shape: tuple[int, ...], kind: str) -> list[np.ndarray]:
    n, c, kh, kw = shape
    k = c * kh * kw
    if kind == "column":
        return [j + k * np.arange(n) for j in range(k)]
    if kind == "row":
        return [f * k + np.arange(k) for f in range(n)]
    block = kh * kw
    return [
        (np.arange(n)[:, None] * k + ch * block + np.arange(block)).ravel()
        for ch in range(c)
    ]


def target_count(ratio: float, n_groups: int) -> int:
    """Round ratio * n_groups to the nearest integer, ties upward."""
    return int(math.floor(ratio * n_groups + 0.5))


def build_groups(net: NetworkState, schedule: PruneSchedule, layer: int) -> LayerGroups:
    """Cut one conv layer into groups under a schedule with a bound layer."""
    spec = net.layers[layer]
    if spec.kind != "conv":
        raise ScheduleError(f"layer {layer} is {spec.kind!r}, only conv layers have groups")
    if spec.prune_exempt:
        raise ScheduleError(f"layer {layer} is exempt from pruning")
    shape = net.weights[layer].shape
    members = _group_members(shape, schedule.kind)
    n_g = len(members)
    target = target_count(schedule.ratio, n_g)
    if target > 0 and (n_g - 1) - schedule.ratio * n_g <= 0:
        raise ScheduleError(
            f"layer {layer}: ratio {schedule.ratio} leaves fewer than 2 of "
            f"{n_g} groups, rank mapping is degenerate"
        )
    groups = [GroupState(layer=layer, index=i, members=m) for i, m in enumerate(members)]
    return LayerGroups(layer=layer, kind=schedule.kind, groups=groups,
                       target=target, schedule=schedule)


def build_all_groups(
    net: NetworkState, schedules: list[PruneSchedule], cfg: TrainConfig
) -> list[LayerGroups]:
    """Bind schedules to layers; every non-exempt conv layer must be covered."""
    prunable = [i for i in net.conv_indices if not net.layers[i].prune_exempt]
    if not prunable:
        raise ScheduleError("network has no prunable conv layer")
    bound: dict[int, PruneSchedule] = {}
    default = None
    for sch in schedules:
        if sch.speed is None:
            sch = replace(sch, speed=cfg.weight_decay / 2)
        if sch.speed <= 0:
            raise ScheduleError("resolved speed must be positive; is weight_decay zero?")
        if sch.layer is None:
            if default is not None:
                raise ScheduleError("more than one default (layer-less) schedule")
            default = sch
        else:
            if sch.layer in bound:
                raise ScheduleError(f"layer {sch.layer} has two schedules")
            if sch.layer not in prunable:
                raise ScheduleError(f"layer {sch.layer} is not a prunable conv layer")
            bound[sch.layer] = sch
    for i in prunable:
        if i not in bound:
            if default is None:
                raise ScheduleError(f"prunable layer {i} has no schedule")
            bound[i] = replace(default, layer=i)
    return [build_groups(net, bound[i], i) for i in sorted(bound)]


def refresh_l1(net: NetworkState, lg: LayerGroups) -> np.ndarray:
    """Recompute and cache every group's current L1-norm; returns the vector."""
    w = net.weights[lg.layer]
    n, c, kh, kw = w.shape
    flat = np.abs(w.reshape(n, c * kh * kw))
    if lg.kind == "column":
        vec = flat.sum(axis=0)
    elif lg.kind == "row":
        vec = flat.sum(axis=1)
    else:
        vec = flat.sum(axis=0).reshape(c, kh * kw).sum(axis=1)
    for g, v in zip(lg.groups, vec):
        g.l1 = 0.0 if g.pruned else float(v)
    return vec


def rank_groups(groups: list[GroupState]) -> np.ndarray:
    """Instantaneous ranks: ascending L1-norm, ties by group index."""
    if not groups:
        raise ScheduleError("cannot rank an empty group list")
    l1 = np.array([g.l1 for g in groups])
    order = np.argsort(l1, kind="stable")
    ranks = np.empty(len(groups), dtype=np.intp)
    ranks[order] = np.arange(len(groups))
    return ranks


def update_avg_rank(g: GroupState, rank: int) -> None:
    """Fold one instantaneous rank into the group's running average."""
    if rank < 0:
        raise ScheduleError(f"rank must be nonnegative, got {rank}")
    g.rank_sum += rank
    g.rank_count += 1


def final_rank(groups: list[GroupState]) -> np.ndarray:
    """Integer ranks of the running-average ranks, stable ties by index."""
    if not groups:
        raise ScheduleError("cannot rank an empty group list")
    avg = np.array([g.avg_rank for g in groups])
    order = np.argsort(avg, kind="stable")
    ranks = np.empty(len(groups), dtype=np.intp)
    ranks[order] = np.arange(len(groups))
    return ranks


def delta_lambda(rank: float, ratio: float, n_groups: int, speed: float) -> float:
    """Piecewise-linear factor increment as a function of final rank.

    Decreases from +speed at rank 0 through 0 at ratio*n_groups down to
    exactly -speed at rank n_groups-1.
    """
    if n_groups < 2:
        raise ScheduleError(f"need at least 2 groups, got {n_groups}")
    if not 0 <= rank <= n_groups - 1:
        raise ScheduleError(f"rank {rank} outside [0, {n_groups - 1}]")
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
    if rank <= s:
        return speed * (1.0 - rank / s)
    return -speed * ((rank - s) / denom)


def update_lambda(g: GroupState, delta: float) -> None:
    """Shift a group's factor by delta, clamped at zero; frozen once pruned."""
    if g.pruned:
        log.warning("group %d/%d is pruned; lambda update ignored", g.layer, g.index)
        return
    g.lambda_g = max(g.lambda_g + delta, 0.0)


def prune_group(net: NetworkState, g: GroupState) -> None:
    """Permanently remove a group: weights and momentum to exact zero."""
    w = net.weights[g.layer]
    w.flat[g.members] = 0
    net.vel_w[g.layer].flat[g.members] = 0
    g.pruned = True
    g.l1 = 0.0


def _zero_row_bias(net: NetworkState, lg: LayerGroups, g: GroupState) -> None:
    # a pruned filter's bias must die too, or its output plane stays biased
    if lg.kind == "row" and net.biases[lg.layer] is not None:
        net.biases[lg.layer][g.index] = 0
        net.vel_b[lg.layer][g.index] = 0


def prune_converged(
    net: NetworkState,
    lg: LayerGroups,
    epsilon: float | None = None,
    max_new: int | None = None,
) -> list[GroupState]:
    """Prune unpruned groups whose L1-norm fell below epsilon.

    ``max_new`` caps how many are pruned this call (smallest norms first,
    ties by index) so a layer never overshoots its target count.
    """
    eps = lg.schedule.epsilon if epsilon is None else epsilon
    if eps <= 0:
        raise ScheduleError(f"epsilon must be positive, got {eps}")
    below = [g for g in lg.groups if not g.pruned and g.l1 < eps]
    below.sort(key=lambda g: (g.l1, g.index))
    if max_new is not None:
        below = below[: max(max_new, 0)]
    for g in below:
        prune_group(net, g)
        _zero_row_bias(net, lg, g)
    return below


def materialize_reg(net: NetworkState, layer_groups: list[LayerGroups]):
    """Per-layer factor arrays and keep-masks shaped to broadcast over weights.

    Returns (reg, masks, bias_masks) dicts keyed by layer index, consumable
    by the SGD step: column factors broadcast as (1,C,kh,kw), rows as
    (N,1,1,1), channels as (1,C,1,1).
    """
    reg: dict[int, np.ndarray] = {}
    masks: dict[int, np.ndarray] = {}
    bias_masks: dict[int, np.ndarray] = {}
    for lg in layer_groups:
        n, c, kh, kw = net.weights[lg.layer].shape
        lam = np.array([g.lambda_g for g in lg.groups], dtype=np.float64)
        keep = np.array([not g.pruned for g in lg.groups])
        if lg.kind == "column":
            shape = (1, c, kh, kw)
        elif lg.kind == "row":
            shape = (n, 1, 1, 1)
        else:
            lam = np.repeat(lam, kh * kw)
            keep = np.repeat(keep, kh * kw)
            shape = (1, c, kh, kw)
        reg[lg.layer] = lam.reshape(shape)
        masks[lg.layer] = keep.reshape(shape)
        if lg.kind == "row":
            bias_masks[lg.layer] = keep.copy()
    return reg, masks, bias_masks


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
            "lambda": [g.lambda_g for g in lg.groups],
            "rank_sum": [g.rank_sum for g in lg.groups],
            "rank_count": [g.rank_count for g in lg.groups],
            "pruned": [int(g.pruned) for g in lg.groups],
        })
    return out


def groups_from_meta(net: NetworkState, meta: list[dict]) -> list[LayerGroups]:
    """Rebuild scheduler state saved by :func:`groups_to_meta`."""
    out = []
    for m in meta:
        sch = PruneSchedule(
            ratio=m["ratio"], speed=m["speed"], epsilon=m["epsilon"],
            update_interval=m["update_interval"], kind=m["kind"], layer=m["layer"],
        )
        lg = build_groups(net, sch, m["layer"])
        if lg.n_groups != len(m["lambda"]):
            raise ScheduleError(
                f"layer {m['layer']}: {len(m['lambda'])} saved groups vs {lg.n_groups}"
            )
        for g, lam, rs, rc, pr in zip(
            lg.groups, m["lambda"], m["rank_sum"], m["rank_count"], m["pruned"]
        ):
            g.lambda_g = float(lam)
            g.rank_sum = float(rs)
            g.rank_count = int(rc)
            g.pruned = bool(pr)
        refresh_l1(net, lg)
        out.append(lg)
    return out


def _snapshot(rows: list, step: int, layer_groups: list[LayerGroups],
              inst: dict[int, np.ndarray]) -> None:
    for lg in layer_groups:
        ranks = inst[lg.layer]
        for g, r in zip(lg.groups, ranks):
            rows.append((step, lg.layer, g.index, g.l1, g.lambda_g,
                         int(r), g.avg_rank, int(g.pruned)))


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

    Every iteration: refresh norms, prune converged groups (capped at each
    layer's remaining target), record instantaneous ranks. At each layer's
    update interval, move factors by the rank law; once a layer hits its
    target its surviving factors are stepped back to zero. The factor
    machinery going quiet does not stop training: all cfg.max_iters
    iterations run, so a zero-ratio schedule reproduces plain training
    bitwise. Raises PruneDidNotConverge if any layer misses its target,
    and TrainingDiverged at the first non-finite loss.

    report_stride thins the report to every Nth update step (the first and
    final states are always recorded); it does not change the schedule.
    Fine-tuning is not part of this phase: pass the masks of
    :func:`materialize_reg` to ``cli.train_network``, as ``increg retrain``
    does.
    """
    if report_stride < 1:
        raise ValueError(f"report_stride must be >= 1, got {report_stride}")
    layer_groups = build_all_groups(net, schedules, cfg)
    seed = net.rng_seed if seed is None else seed
    stream = batch_iter(x, y, cfg.batch_size, seed)
    rows: list[tuple] = []
    converged_at: int | None = None

    def prune_pass() -> bool:
        for lg in layer_groups:
            refresh_l1(net, lg)
            if not lg.finished:
                prune_converged(net, lg, max_new=lg.target - lg.pruned_count)
        return all(lg.finished for lg in layer_groups)

    for k in range(cfg.max_iters):
        t = net.iteration
        if prune_pass() and converged_at is None:
            converged_at = t
        inst: dict[int, np.ndarray] = {}
        for lg in layer_groups:
            ranks = rank_groups(lg.groups)
            inst[lg.layer] = ranks
            for g, r in zip(lg.groups, ranks):
                update_avg_rank(g, int(r))
        due = [lg for lg in layer_groups if k % lg.schedule.update_interval == 0]
        for lg in due:
            speed = lg.schedule.speed
            if not lg.finished:
                fr = final_rank(lg.groups)
                for g, r in zip(lg.groups, fr):
                    if not g.pruned:
                        update_lambda(
                            g, delta_lambda(int(r), lg.schedule.ratio,
                                            lg.n_groups, speed)
                        )
            else:
                for g in lg.groups:
                    if not g.pruned and g.lambda_g > 0:
                        update_lambda(g, -speed)
        snap = [lg for lg in due
                if k % (lg.schedule.update_interval * report_stride) == 0]
        if snap:
            _snapshot(rows, t, snap, inst)
        reg, masks, bias_masks = materialize_reg(net, layer_groups)
        xb, yb = next(stream)
        loss, dw, db = loss_and_grads(net, xb, yb)
        check_loss(net, loss, xb, "prune")
        sgd_step(net, dw, db, cfg, lr=lr_at(cfg, t), reg=reg,
                 masks=masks, bias_masks=bias_masks)

    # the last step may have pushed the final groups under the threshold
    if prune_pass() and converged_at is None:
        converged_at = net.iteration
    inst = {lg.layer: rank_groups(lg.groups) for lg in layer_groups}
    _snapshot(rows, net.iteration, layer_groups, inst)

    summary = {
        "converged_iteration": converged_at,
        "prune_iters": cfg.max_iters,
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
    report = PruneReport(rows=rows, summary=summary)
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
        summary["final_accuracy"] = acc
        summary["final_loss"] = loss
    return net, report, layer_groups
