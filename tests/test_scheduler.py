"""Rank-driven factor scheduling: independent oracles for every moving part."""

import contextlib
import copy
import functools
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import increg.compact as compact_mod
import increg.network as network
import increg.scheduler as scheduler

from helpers import report_rows
from increg.compact import CompactNetwork, PlanError, build_plan, check_pruned_zero, compact
from increg.config import PRESETS
from increg.data import batch_iter, make_blobs
from increg.network import (
    TrainConfig,
    TrainingDiverged,
    build_network,
    evaluate,
    forward,
    loss_and_grads,
    lr_at,
    sgd_step,
    train_network,
)
from increg.scheduler import (
    GROUP_KINDS,
    LayerGroups,
    PruneDidNotConverge,
    PruneSchedule,
    ScheduleError,
    build_all_groups,
    build_groups,
    delta_lambda,
    final_rank,
    group_l1,
    group_layout,
    groups_from_meta,
    groups_to_meta,
    prune_converged,
    rank_groups,
    refresh_l1,
    retrain_network,
    run_pruning,
    target_count,
)

BLOB_DEFS = [
    {"kind": "conv", "filters": 10, "kernel": 1},
    {"kind": "relu"},
    {"kind": "conv", "filters": 8, "kernel": 1},
    {"kind": "relu"},
    {"kind": "fc", "out_features": 4},
    {"kind": "softmax-xent"},
]
BLOB_SHAPE = (10, 1, 1)


def blob_net(seed=7):
    return build_network(BLOB_DEFS, BLOB_SHAPE, seed=seed)


def blob_data():
    return make_blobs(160, 4, shape=BLOB_SHAPE, noise=0.05, seed=3)


def bare_layer(n):
    """State of a layer of n row groups, outside any network."""
    return LayerGroups(layer=0, kind="row", layout=(n, 1, 1, 1), target=0,
                       schedule=PruneSchedule(ratio=0.0, speed=1.0, kind="row"))


def group_mask(lg, idxs, shape):
    """Boolean mask over a weight of the given shape marking groups idxs."""
    hit = np.zeros(lg.n_groups, dtype=bool)
    hit[list(idxs)] = True
    return np.broadcast_to(hit.reshape(lg.layout), shape)


def assert_pruned_zero(net, lg):
    """Every entry of lg's pruned groups is +0: weights and momenta, and a
    pruned row's bias and bias momentum."""
    at = group_mask(lg, np.flatnonzero(lg.pruned), net.weights[lg.layer].shape)
    arrays = [net.weights[lg.layer][at], net.vel_w[lg.layer][at]]
    if lg.kind == "row":
        arrays += [net.biases[lg.layer][lg.pruned], net.vel_b[lg.layer][lg.pruned]]
    for a in arrays:
        assert not a.any() and not np.signbit(a).any()


def prune_ids(net, lg, idxs):
    """Zero the chosen groups' weights and prune them through the scanner."""
    w = net.weights[lg.layer]
    w[group_mask(lg, idxs, w.shape)] = 0.0
    refresh_l1(net, lg)
    assert sorted(prune_converged(net, lg).tolist()) == sorted(idxs)


@contextlib.contextmanager
def stepping(net, weight_seq):
    """Replace each SGD step of a prune of ``net`` with the next given weights.

    Step k writes weight_seq[k] (layer -> full-size array) into the step's
    net: into every entry of the full-size net, pruned groups included,
    and once every layer is finished, into the entries of the compacted
    net, those :func:`kept_oracle` keeps, in its row-major order. Biases
    and momentum are left alone. The loss is 0, so no batch runs. Yields
    the list that collects each step's factor arrays, as the step
    received them.
    """
    factors = []
    steps = iter(weight_seq)
    built = []
    kept = {}

    def capture(*args):
        built.append(build_all_groups(*args))
        return built[-1]

    def step(step_net, dw, db, cfg, lr=None, reg=None):
        factors.append({i: r.copy() for i, r in reg.items()})
        nxt = next(steps)
        if not isinstance(step_net, CompactNetwork):
            for i, w in nxt.items():
                step_net.weights[i][...] = w
        else:
            if not kept:        # the pruned flags are final once the tail starts
                kept.update(kept_oracle(net, {lg.layer: (lg.kind, lg.pruned.copy())
                                              for lg in built[0]}))
            for i, w in nxt.items():
                step_net.weights[i][...] = w[kept[i][0]].reshape(step_net.weights[i].shape)
        step_net.iteration += 1
        return step_net

    with mock.patch.object(network, "loss_and_grads", lambda *a: (0.0, None, None)), \
            mock.patch.object(network, "sgd_step", step), \
            mock.patch.object(scheduler, "build_all_groups", capture):
        yield factors


def drive(net, schedules, weight_seq, report_stride=1):
    """run_pruning under :func:`stepping`. Returns the report, the layer
    groups and each step's factor vectors."""
    cfg = TrainConfig(max_iters=len(weight_seq), batch_size=2)
    x = np.zeros((2, *net.input_shape), dtype=np.float32)
    with stepping(net, weight_seq) as factors:
        try:
            _, report, lgs = run_pruning(net, x, np.zeros(2, dtype=np.intp), cfg,
                                         schedules, seed=0,
                                         report_stride=report_stride)
        except PruneDidNotConverge as e:
            report, lgs = e.report, e.groups
    return report, lgs, factors


def kept_oracle(net, groups):
    """Which entries of each parametric layer a compacted net keeps.

    ``groups`` maps every conv layer to its (kind, pruned flags). Written
    entry by entry, apart from ``compact.build_plan``: a filter dies when
    its row is pruned or the next conv prunes the channel it feeds; a conv
    weight is kept when its group is not pruned, its filter lives and it
    reads a live filter of the previous conv; an fc right after the last
    conv keeps the inputs that read that conv's live filters. Returns
    {layer: (weight mask, bias mask)}.
    """
    convs = net.conv_indices
    alive = {}
    for l in convs:
        kind, pruned = groups[l]
        alive[l] = ~pruned if kind == "row" else np.ones(net.layers[l].filters, dtype=bool)
    for up, l in zip(convs, convs[1:]):
        kind, pruned = groups[l]
        if kind == "channel":
            alive[up] = alive[up] & ~pruned
    out, prev = {}, None
    for i, spec in enumerate(net.layers):
        if not spec.parametric:
            continue
        keep = np.ones(net.weights[i].shape, dtype=bool)
        bias = np.ones(len(net.biases[i]), dtype=bool)
        if spec.kind == "conv":
            kind, pruned = groups[i]
            members = members_oracle(keep.shape, kind)
            for g in np.flatnonzero(pruned):
                keep.ravel()[members[g]] = False
            keep[~alive[i]] = False
            if prev is not None:
                keep[:, ~alive[prev]] = False
            bias = alive[i].copy()
            prev = i
        elif prev is not None:
            keep[:, ~np.repeat(alive[prev], spec.in_features // len(alive[prev]))] = False
            prev = None
        out[i] = (keep, bias)
    return out


def members_oracle(shape, kind):
    """Flat weight indices of every group, from one boolean mask per group."""
    n, c, kh, kw = shape
    masks = []
    if kind == "column":
        for ch in range(c):
            for i in range(kh):
                for j in range(kw):
                    m = np.zeros(shape, dtype=bool)
                    m[:, ch, i, j] = True
                    masks.append(m)
    elif kind == "row":
        for f in range(n):
            m = np.zeros(shape, dtype=bool)
            m[f] = True
            masks.append(m)
    else:
        for ch in range(c):
            m = np.zeros(shape, dtype=bool)
            m[:, ch] = True
            masks.append(m)
    return [np.flatnonzero(m.ravel()) for m in masks]


def rank_oracle(keys):
    """Ranks by ascending key, ties broken by position, via plain sorting."""
    order = sorted(range(len(keys)), key=lambda i: (keys[i], i))
    ranks = [0] * len(keys)
    for r, i in enumerate(order):
        ranks[i] = r
    return ranks


class TestRanking:
    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(0)
        l1s = rng.uniform(0, 3, size=50).round(1)  # rounding forces ties
        assert rank_groups(l1s).tolist() == rank_oracle(l1s.tolist())

    def test_ties_break_by_index(self):
        assert rank_groups(np.array([2.0, 1.0, 1.0, 0.5])).tolist() == [3, 1, 2, 0]

    def test_empty_rejected(self):
        with pytest.raises(ScheduleError):
            rank_groups(np.array([]))

    def test_running_average_matches_batch_mean(self):
        # every iteration is an update step, so the report holds every
        # instantaneous rank the running average folded in
        net = blob_net(seed=5)
        x, y = blob_data()
        cfg = TrainConfig(weight_decay=0.0, max_iters=40)
        sch = PruneSchedule(ratio=0.5, speed=0.5, update_interval=1)
        with pytest.raises(PruneDidNotConverge) as e:
            run_pruning(net, x, y, cfg, [sch], seed=11)
        rows = report_rows(e.value.report)
        for lg in e.value.groups:
            assert lg.rank_count == 40
            for gid in range(lg.n_groups):
                inst = [r[5] for r in rows if r[1] == lg.layer and r[2] == gid
                        and r[0] < 40]
                assert len(inst) == 40
                assert abs(lg.avg_rank[gid] - float(np.mean(inst))) <= 1e-9

    def test_unranked_group_has_no_average(self):
        lg = bare_layer(3)
        with pytest.raises(ScheduleError):
            lg.avg_rank
        with pytest.raises(ScheduleError):
            final_rank(lg)

    def test_final_rank_orders_averages_stably(self):
        lg = bare_layer(3)
        lg.rank_sum[:] = [4, 4, 4]
        lg.rank_count = 2
        # averages 2.0, 2.0, 2.0: all tie, index order wins
        assert final_rank(lg).tolist() == [0, 1, 2]
        lg.rank_sum[0] = 12  # average 6.0 now largest
        assert final_rank(lg).tolist() == [2, 0, 1]


class TestDeltaLambda:
    @pytest.mark.parametrize(
        "rank,expect",
        [(0, 0.1), (2.5, 0.05), (5, 0.0), (7, -0.05), (9, -0.1)],
    )
    def test_frozen_values_n10_half(self, rank, expect):
        assert delta_lambda(rank, 0.5, 10, 0.1) == pytest.approx(expect, abs=1e-15)

    @pytest.mark.parametrize(
        "rank,expect", [(0, 2.0), (1, 0.0), (2, -1.0), (3, -2.0)]
    )
    def test_frozen_values_n4_quarter(self, rank, expect):
        assert delta_lambda(rank, 0.25, 4, 2.0) == pytest.approx(expect, abs=1e-15)

    def test_exact_endpoints(self):
        assert delta_lambda(0, 0.3, 7, 0.125) == 0.125
        assert delta_lambda(6, 0.3, 7, 0.125) == -0.125

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(rank=0, ratio=0.5, n_groups=1, speed=1.0),
            dict(rank=-1, ratio=0.5, n_groups=10, speed=1.0),
            dict(rank=10, ratio=0.5, n_groups=10, speed=1.0),
            dict(rank=0, ratio=0.5, n_groups=10, speed=0.0),
            dict(rank=0, ratio=0.0, n_groups=10, speed=1.0),
            dict(rank=0, ratio=0.95, n_groups=10, speed=1.0),
        ],
    )
    def test_degenerate_configs_rejected(self, kwargs):
        with pytest.raises(ScheduleError):
            delta_lambda(kwargs["rank"], kwargs["ratio"], kwargs["n_groups"],
                         kwargs["speed"])

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(2, 400),
        ratio=st.floats(0.01, 0.99),
        speed=st.floats(1e-6, 10.0),
    )
    def test_shape_properties(self, n, ratio, speed):
        s = ratio * n
        if s <= 0 or (n - 1) - s <= 0:
            return
        deltas = [delta_lambda(r, ratio, n, speed) for r in range(n)]
        assert deltas[0] == speed
        assert deltas[-1] == -speed
        for a, b in zip(deltas, deltas[1:]):
            assert a >= b
        for r, d in enumerate(deltas):
            assert abs(d) <= speed
            if r <= s:
                assert d >= 0.0
            else:
                assert d <= 0.0


class TestUpdateLambda:
    """The factor update of run_pruning on four column groups of set norms.

    ratio 0.25 puts the split at rank 1: final ranks 0..3 move a factor by
    +0.25, 0, -0.125 and -0.25; ratio 0.5 by +0.25, +0.125, 0 and -0.25.
    """

    def run(self, norms, ratio=0.25):
        net = build_network(
            [{"kind": "conv", "filters": 2, "kernel": 1},
             {"kind": "fc", "out_features": 2}, {"kind": "softmax-xent"}],
            (4, 1, 1), seed=0)
        seq = [{0: np.repeat(np.array(n, dtype=np.float32)[None, :, None, None] / 2,
                             2, axis=0)} for n in norms]
        net.weights[0][:] = seq[0][0]
        sch = PruneSchedule(ratio=ratio, speed=0.25, layer=0, update_interval=1)
        _, lgs, factors = drive(net, [sch], seq[1:] + seq[-1:])
        return lgs[0], np.array([f[0].ravel() for f in factors])

    def test_accumulates(self):
        _, lam = self.run([[1, 2, 3, 4]] * 4)
        assert lam[:, 0].tolist() == [0.25, 0.5, 0.75, 1.0]
        assert lam[:, 1].tolist() == [0.0] * 4

    def test_clamps_at_zero(self):
        # group 2 ranks lowest once, then highest: +0.25, -0.125, -0.125, ...
        _, lam = self.run([[2, 3, 1, 4]] + [[1, 2, 4, 3]] * 3)
        assert lam[:, 2].tolist() == [0.25, 0.125, 0.0, 0.0]
        assert lam[:, 3].tolist() == [0.0] * 4
        assert lam.min() == 0.0

    def test_pruned_group_is_frozen(self):
        # group 0 loses its weights after step 1 and is pruned at step 2
        lg, lam = self.run([[1, 2, 3, 4]] * 2 + [[0, 2, 3, 4]] * 2, ratio=0.5)
        assert lg.pruned.tolist() == [True, False, False, False]
        assert lam[:, 0].tolist() == [0.25, 0.5, 0.5, 0.5]
        assert lam[:, 1].tolist() == [0.125, 0.25, 0.375, 0.5]


class TestGroupLayouts:
    @pytest.mark.parametrize("kind,count", [("column", 12), ("row", 4), ("channel", 3)])
    def test_members_match_mask_oracle(self, kind, count):
        defs = [
            {"kind": "conv", "filters": 4, "kernel": 2},
            {"kind": "fc", "out_features": 2},
            {"kind": "softmax-xent"},
        ]
        net = build_network(defs, (3, 4, 4), seed=0)
        lg = build_groups(net, PruneSchedule(ratio=0.25, speed=1.0, kind=kind), 0)
        oracle = members_oracle((4, 3, 2, 2), kind)
        assert lg.n_groups == count
        for g, m in enumerate(oracle):
            mask = group_mask(lg, [g], (4, 3, 2, 2))
            assert np.flatnonzero(mask.ravel()).tolist() == m.tolist()

    def test_groups_partition_the_layer(self):
        net = blob_net()
        shape = net.weights[0].shape
        for kind in ("column", "row", "channel"):
            lg = build_groups(net, PruneSchedule(ratio=0.1, speed=1.0, kind=kind), 0)
            cover = sum(group_mask(lg, [g], shape).astype(int)
                        for g in range(lg.n_groups))
            assert np.all(cover == 1)

    def test_refresh_l1_matches_member_sums(self):
        net = blob_net(seed=9)
        w = np.abs(net.weights[2]).ravel()
        for kind in GROUP_KINDS:
            lg = build_groups(net, PruneSchedule(ratio=0.2, speed=1.0, kind=kind), 2)
            vec = refresh_l1(net, lg)
            assert vec.dtype == np.float32
            members = members_oracle(net.weights[2].shape, kind)
            for m, v, cached in zip(members, vec, lg.l1):
                assert v == pytest.approx(w[m].sum(), rel=1e-6)
                assert cached == float(v)

    def test_pruned_group_reports_zero_l1(self):
        net = blob_net()
        lg = build_groups(net, PruneSchedule(ratio=0.2, speed=1.0), 0)
        lg.pruned[4] = True     # the cache reads 0 whatever the weights hold
        vec = refresh_l1(net, lg)
        assert vec[4] > 0.0 and lg.l1[4] == 0.0
        assert np.array_equal(lg.l1 == 0.0, lg.pruned)


class TestTargets:
    @pytest.mark.parametrize(
        "ratio,n,expect",
        [(0.5, 10, 5), (0.25, 10, 3), (0.05, 10, 1), (0.78, 50, 39),
         (0.0, 10, 0), (0.449, 10, 4), (0.45, 10, 5)],
    )
    def test_round_half_up(self, ratio, n, expect):
        assert target_count(ratio, n) == expect

    def test_ratio_leaving_one_group_rejected(self):
        defs = [
            {"kind": "conv", "filters": 2, "kernel": 1},
            {"kind": "fc", "out_features": 2},
            {"kind": "softmax-xent"},
        ]
        net = build_network(defs, (2, 1, 1), seed=0)
        with pytest.raises(ScheduleError):
            build_groups(net, PruneSchedule(ratio=0.5, speed=1.0), 0)

    def test_non_conv_layer_rejected(self):
        defs = [
            {"kind": "conv", "filters": 4, "kernel": 1},
            {"kind": "fc", "out_features": 2},
            {"kind": "softmax-xent"},
        ]
        net = build_network(defs, (4, 1, 1), seed=0)
        with pytest.raises(ScheduleError):
            build_groups(net, PruneSchedule(ratio=0.1, speed=1.0), 1)


class TestBinding:
    def test_default_schedule_covers_all_convs(self):
        lgs = build_all_groups(blob_net(), [PruneSchedule(ratio=0.5, speed=0.1)])
        assert [lg.layer for lg in lgs] == [0, 2]
        assert all(lg.schedule.layer == lg.layer for lg in lgs)

    def test_per_layer_overrides_default(self):
        lgs = build_all_groups(
            blob_net(),
            [PruneSchedule(ratio=0.5, speed=0.1),
             PruneSchedule(ratio=0.2, speed=0.3, layer=2, kind="row")],
        )
        by_layer = {lg.layer: lg for lg in lgs}
        assert by_layer[0].schedule.ratio == 0.5 and by_layer[0].kind == "column"
        assert by_layer[2].schedule.ratio == 0.2 and by_layer[2].kind == "row"
        assert by_layer[2].target == target_count(0.2, 8)

    @pytest.mark.parametrize(
        "schedules",
        [
            [PruneSchedule(ratio=0.5, speed=1.0),
             PruneSchedule(ratio=0.2, speed=1.0)],
            [PruneSchedule(ratio=0.5, speed=1.0, layer=2),
             PruneSchedule(ratio=0.2, speed=1.0, layer=2)],
            [PruneSchedule(ratio=0.5, speed=1.0, layer=1)],
            [PruneSchedule(ratio=0.5, speed=1.0, layer=0)],
        ],
    )
    def test_bad_bindings_rejected(self, schedules):
        with pytest.raises(ScheduleError):
            build_all_groups(blob_net(), schedules)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(ratio=1.0), dict(ratio=-0.1), dict(ratio=0.5, speed=-1.0),
            dict(ratio=0.5, epsilon=0.0), dict(ratio=0.5, update_interval=0),
            dict(ratio=0.5, kind="block"),
        ],
    )
    def test_bad_schedule_fields_rejected(self, kwargs):
        with pytest.raises(ScheduleError):
            PruneSchedule(**{"speed": 1.0, **kwargs})

    @pytest.mark.parametrize("key", ["speed", "epsilon"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_speed_or_epsilon_rejected(self, key, value):
        # NaN passes a "<= 0" test, so the check must be written to fail it
        with pytest.raises(ScheduleError, match=f"{key} must be positive and finite"):
            PruneSchedule(**{"ratio": 0.5, "speed": 1.0, key: value})


class TestPruneScan:
    def make_lg(self, eps=1e-5):
        defs = [
            {"kind": "conv", "filters": 3, "kernel": 1},
            {"kind": "fc", "out_features": 2},
            {"kind": "softmax-xent"},
        ]
        net = build_network(defs, (6, 1, 1), seed=1)
        sch = PruneSchedule(ratio=0.5, speed=1.0, epsilon=eps)
        lg = build_groups(net, sch, 0)
        return net, lg

    def test_prunes_exactly_the_below_threshold_groups(self):
        net, lg = self.make_lg()
        w = net.weights[0]
        w[:, 1] = -1e-7
        w[:, 4] = 3e-6
        net.vel_w[0][:] = -0.5
        refresh_l1(net, lg)
        out = prune_converged(net, lg)
        assert sorted(out.tolist()) == [1, 4]
        assert np.all(w[:, 1] == 0) and np.all(w[:, 4] == 0)
        assert np.all(net.vel_w[0][:, 1] == 0)
        # zeroed by assignment: a negative weight becomes +0.0, not -0.0
        assert not np.signbit(w[:, [1, 4]]).any()
        assert not np.signbit(net.vel_w[0][:, [1, 4]]).any()
        assert np.all(net.vel_w[0][:, [0, 2, 3, 5]] == -0.5)

    def test_cap_takes_smallest_norms_first(self):
        net, lg = self.make_lg()
        w = net.weights[0]
        w[:, 1] = 3e-6
        w[:, 4] = 1e-7
        w[:, 5] = 2e-6
        refresh_l1(net, lg)
        out = prune_converged(net, lg, max_new=2)
        assert out.tolist() == [4, 5]
        assert lg.pruned_count == 2

    def test_cap_ties_break_by_index(self):
        net, lg = self.make_lg()
        w = net.weights[0]
        w[:, 2] = 0.0
        w[:, 5] = 0.0
        refresh_l1(net, lg)
        out = prune_converged(net, lg, max_new=1)
        assert out.tolist() == [2]

    def test_at_threshold_survives(self):
        net, lg = self.make_lg(eps=0.5)
        w = net.weights[0]
        w[:] = 0.0
        w[0, 0] = 0.5   # l1 exactly eps: strict < keeps it
        w[0, 1] = 0.51
        refresh_l1(net, lg)
        out = prune_converged(net, lg)
        assert sorted(out.tolist()) == [2, 3, 4, 5]

    def test_row_prune_zeroes_bias(self):
        defs = [
            {"kind": "conv", "filters": 4, "kernel": 1},
            {"kind": "fc", "out_features": 2},
            {"kind": "softmax-xent"},
        ]
        net = build_network(defs, (3, 1, 1), seed=2)
        lg = build_groups(net, PruneSchedule(ratio=0.25, speed=1.0, kind="row"), 0)
        net.weights[0][2] = 0.0
        net.biases[0][2] = 0.7
        refresh_l1(net, lg)
        out = prune_converged(net, lg)
        assert out.tolist() == [2]
        assert net.biases[0][2] == 0.0 and net.vel_b[0][2] == 0.0


class TestStepFactors:
    """The factors a prune step on the full-size net receives: each layer's
    factor vector in its group layout, which spreads group g's factor over
    exactly group g's weights."""

    LAYOUTS = {"column": (1, 3, 2, 2), "row": (4, 1, 1, 1), "channel": (1, 3, 1, 1)}

    @pytest.mark.parametrize("kind", GROUP_KINDS)
    def test_factors_take_the_group_layout(self, kind):
        layout = self.LAYOUTS[kind]
        defs = [
            {"kind": "conv", "filters": 4, "kernel": 2},
            {"kind": "fc", "out_features": 2},
            {"kind": "softmax-xent"},
        ]
        net = build_network(defs, (3, 4, 4), seed=0)
        shape = net.weights[0].shape
        rng = np.random.default_rng(1)
        # no group's norm gets near epsilon, so every step runs on the full net
        seq = [{0: rng.uniform(0.5, 1.0, shape).astype(np.float32)} for _ in range(3)]
        sch = PruneSchedule(ratio=0.3, speed=1.0, update_interval=1, kind=kind, layer=0)
        _, lgs, factors = drive(net, [sch], seq)
        assert group_layout(kind, shape) == layout
        members = members_oracle(shape, kind)
        for f in factors:
            assert f[0].shape == layout
            spread = np.broadcast_to(f[0], shape).ravel()
            for g, m in enumerate(members):
                assert np.all(spread[m] == f[0].ravel()[g])
        assert factors[-1][0].max() > 0.0 and lgs[0].pruned_count == 0


class TestMetaRoundTrip:
    def test_state_survives(self):
        net = blob_net(seed=5)
        x, y = blob_data()
        cfg = TrainConfig(weight_decay=0.0, max_iters=40)
        sch = PruneSchedule(ratio=0.5, speed=0.5, update_interval=2)
        with pytest.raises(PruneDidNotConverge) as e:
            run_pruning(net, x, y, cfg, [sch], seed=11)
        lgs = e.value.groups
        meta = groups_to_meta(lgs)
        rebuilt = groups_from_meta(net, meta)
        for a, b in zip(lgs, rebuilt):
            assert a.layer == b.layer and a.target == b.target
            assert a.schedule == b.schedule and a.layout == b.layout
            assert a.rank_count == b.rank_count == 40
            for field in ("lam", "rank_sum", "pruned", "l1"):
                assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_meta_is_json_clean(self):
        import json

        net = blob_net()
        lgs = build_all_groups(net, [PruneSchedule(ratio=0.5, speed=0.1)])
        for lg in lgs:
            refresh_l1(net, lg)
            lg.rank_sum += rank_groups(lg.l1)
            lg.rank_count += 1
        meta = groups_to_meta(lgs)
        assert json.loads(json.dumps(meta)) == meta
        assert meta[0]["rank_count"] == [1] * lgs[0].n_groups
        assert all(type(v) is float for v in meta[0]["lambda"] + meta[0]["rank_sum"])
        assert all(type(v) is int for v in meta[0]["pruned"] + meta[0]["rank_count"])

    def test_group_count_mismatch_rejected(self):
        net = blob_net()
        lgs = build_all_groups(net, [PruneSchedule(ratio=0.5, speed=0.1)])
        meta = groups_to_meta(lgs)
        meta[0]["lambda"] = meta[0]["lambda"][:-1]
        with pytest.raises(ScheduleError):
            groups_from_meta(net, meta)

    def saved(self):
        net = blob_net()
        lgs = build_all_groups(net, [PruneSchedule(ratio=0.5, speed=0.1)])
        return net, groups_to_meta(lgs)

    @pytest.mark.parametrize("key", ["lambda", "rank_sum", "rank_count", "pruned"])
    def test_short_or_long_group_list_rejected(self, key):
        for cut in (slice(0, -1), slice(0, None)):
            net, meta = self.saved()
            meta[1][key] = meta[1][key][cut] + ([0] if cut.stop is None else [])
            with pytest.raises(ScheduleError, match=key):
                groups_from_meta(net, meta)

    @pytest.mark.parametrize("key", ["epsilon", "pruned", "layer", "target"])
    def test_missing_key_rejected(self, key):
        net, meta = self.saved()
        del meta[0][key]
        with pytest.raises(ScheduleError, match=key):
            groups_from_meta(net, meta)

    def test_unequal_rank_counts_rejected(self):
        net, meta = self.saved()
        meta[0]["rank_count"][3] = 1
        with pytest.raises(ScheduleError, match="rank counts"):
            groups_from_meta(net, meta)

    @pytest.mark.parametrize("edit", [
        lambda m: m["lambda"].__setitem__(0, "high"),
        lambda m: m.__setitem__("layer", 99),
        lambda m: m.__setitem__("target", m["target"] + 1),
    ])
    def test_unreadable_or_inconsistent_values_rejected(self, edit):
        net, meta = self.saved()
        edit(meta[0])
        with pytest.raises(ScheduleError):
            groups_from_meta(net, meta)


class TestRunPruning:
    def run(self, **kw):
        net = blob_net()
        x, y = blob_data()
        cfg = TrainConfig(base_lr=0.05, weight_decay=0.0, batch_size=32,
                          max_iters=kw.pop("max_iters", 1200))
        sch = PruneSchedule(ratio=kw.pop("ratio", 0.5), speed=kw.pop("speed", 0.5),
                            update_interval=2, kind=kw.pop("kind", "column"))
        return run_pruning(net, x, y, cfg, [sch], seed=11,
                           eval_data=(x, y), **kw)

    def test_hits_exact_targets(self):
        net, report, lgs = self.run()
        # both conv layers have 10 columns, half must go: exactly 5 each
        assert [lg.pruned_count for lg in lgs] == [5, 5]
        assert [lg.target for lg in lgs] == [5, 5]
        assert report.summary["converged_iteration"] is not None
        assert report.summary["converged_iteration"] <= 1200
        assert report.summary["final_accuracy"] >= 0.9

    def test_report_invariants(self):
        _, report, _ = self.run()
        rows = report_rows(report)
        steps = sorted({r[0] for r in rows})
        pruned_per_step = {}
        for step, layer, _, l1, lam, _, _, pruned in rows:
            assert lam >= 0.0
            assert l1 >= 0.0
            pruned_per_step.setdefault(layer, {}).setdefault(step, 0)
            pruned_per_step[layer][step] += pruned
        for layer, counts in pruned_per_step.items():
            series = [counts[s] for s in steps if s in counts]
            for a, b in zip(series, series[1:]):
                assert a <= b
            assert series[-1] == 5

    def test_pruned_groups_keep_zero_l1_in_ranking(self):
        _, report, _ = self.run()
        rows = report_rows(report)
        last = max(r[0] for r in rows)
        final = [r for r in rows if r[0] == last]
        for _, _, _, l1, _, rank, _, pruned in final:
            if pruned:
                assert l1 == 0.0
        # pruned groups occupy the lowest instantaneous ranks at the end
        for layer in (0, 2):
            rows = [r for r in final if r[1] == layer]
            pruned_ranks = sorted(r[5] for r in rows if r[7])
            assert pruned_ranks == list(range(len(pruned_ranks)))

    def test_zero_ratio_layer_stays_whole(self):
        # a per-layer ratio of 0 is how a conv is left unpruned
        x, y = blob_data()
        cfg = TrainConfig(base_lr=0.05, weight_decay=0.0, batch_size=32, max_iters=1200)
        schedules = [PruneSchedule(ratio=0.5, speed=0.5, update_interval=2),
                     PruneSchedule(ratio=0.0, speed=0.5, update_interval=2, layer=0)]
        net, _, lgs = run_pruning(blob_net(), x, y, cfg, schedules, seed=11)
        whole, cut = lgs
        assert whole.layer == 0 and whole.target == 0
        assert not whole.pruned.any() and not whole.lam.any()
        assert cut.pruned_count == cut.target == 5
        plan = build_plan(net, lgs)[0]
        assert plan.keep_rows.tolist() == list(range(10))
        assert plan.keep_cols.tolist() == list(range(10))

    def test_zero_ratio_matches_plain_training_bitwise(self):
        x, y = blob_data()
        cfg = TrainConfig(base_lr=0.05, weight_decay=0.004, batch_size=32,
                          max_iters=120)
        a = blob_net(seed=21)
        a, _, _ = run_pruning(a, x, y, cfg, [PruneSchedule(ratio=0.0, speed=0.1)],
                              seed=33)
        b = train_network(blob_net(seed=21), x, y, cfg, 33)
        for i in a.parametric_indices:
            assert np.array_equal(a.weights[i], b.weights[i])
            assert np.array_equal(a.biases[i], b.biases[i])
            assert np.array_equal(a.vel_w[i], b.vel_w[i])

    def test_zero_ratio_matches_plain_training_from_a_later_iteration(self):
        # both phases count the step schedule from their own step 0, not
        # from net.iteration, so a net that has taken 100 steps changes nothing
        x, y = blob_data()
        cfg = TrainConfig(base_lr=0.05, weight_decay=0.004, batch_size=32,
                          max_iters=120, lr_schedule="step", step_every=50)
        a, b = blob_net(seed=21), blob_net(seed=21)
        a.iteration = b.iteration = 100
        run_pruning(a, x, y, cfg, [PruneSchedule(ratio=0.0, speed=0.1)], seed=33)
        train_network(b, x, y, cfg, 33)
        assert a.iteration == b.iteration == 220
        for i in a.parametric_indices:
            for got, want in ((a.weights[i], b.weights[i]), (a.biases[i], b.biases[i]),
                              (a.vel_w[i], b.vel_w[i]), (a.vel_b[i], b.vel_b[i])):
                assert np.array_equal(got, want)

    def test_report_stride_thins_rows_without_changing_dynamics(self):
        net1, rep1, _ = self.run()
        net2, rep2, _ = self.run(report_stride=10)
        rows1, rows2 = report_rows(rep1), report_rows(rep2)
        assert len(rows2) < len(rows1)
        for i in net1.parametric_indices:
            assert np.array_equal(net1.weights[i], net2.weights[i])
        steps1 = {r[0] for r in rows1}
        steps2 = {r[0] for r in rows2}
        assert steps2 <= steps1
        assert min(steps1) in steps2 and max(steps1) in steps2
        # rows recorded by both runs agree exactly
        at0 = sorted(r for r in rows1 if r[0] == 0)
        assert at0 == sorted(r for r in rows2 if r[0] == 0)

    def test_non_convergence_raises_with_partial_state(self):
        with pytest.raises(PruneDidNotConverge) as e:
            self.run(max_iters=30)
        assert "30 iterations" in str(e.value)
        assert len(report_rows(e.value.report)) > 0
        assert e.value.report.summary["converged_iteration"] is None
        assert any(not lg.finished for lg in e.value.groups)

    # at speed 0.5 the row prune diverges before it finishes
    @pytest.mark.parametrize("kind,speed", [("column", 0.5), ("row", 0.2)])
    def test_pruned_groups_are_zero_before_every_step(self, kind, speed):
        # the step moves every entry, so the scheduler zeroes the pruned
        # groups of the full-size net before each step
        built, pruned = [], []

        def capture(*args):
            built.append(build_all_groups(*args))
            return built[-1]

        def checked(step_net, xb, yb):
            if not isinstance(step_net, CompactNetwork):
                for lg in built[0]:
                    assert_pruned_zero(step_net, lg)
                pruned.append(sum(lg.pruned_count for lg in built[0]))
            return loss_and_grads(step_net, xb, yb)

        with mock.patch.object(scheduler, "build_all_groups", capture), \
                mock.patch.object(network, "loss_and_grads", checked):
            _, report, _ = self.run(kind=kind, speed=speed)
        # some full-size steps ran with pruned groups, and a tail followed
        assert max(pruned) > 0 and report.summary["compacted_steps"] > 0

    @pytest.mark.parametrize("kind", ["column", "row"])
    def test_missed_target_leaves_pruned_groups_at_plus_zero(self, kind):
        # no tail: every step ran on the full-size net, and the pass after
        # the last one zeroes what it moved
        net = blob_net()
        with pytest.raises(PruneDidNotConverge) as e:
            run_pruning(net, *blob_data(), TrainConfig(base_lr=0.05, weight_decay=0.0,
                                                       batch_size=32, max_iters=300),
                        [PruneSchedule(ratio=0.5, speed=0.5, update_interval=2, kind=kind)],
                        seed=11)
        assert e.value.report.summary["compacted_steps"] == 0
        lgs = e.value.groups
        assert all(0 < lg.pruned_count < lg.target for lg in lgs)
        for lg in lgs:
            assert_pruned_zero(net, lg)
            check_pruned_zero(net, lg, AssertionError)

    def test_mixed_per_layer_prune_compacts_one_conv_whole(self):
        # layer 0 at ratio 0 keeps every column, so its compacted conv reads
        # every lowered row; layer 2 loses half its columns and reads its kept ones
        x, y = blob_data()
        cfg = TrainConfig(base_lr=0.05, weight_decay=0.0, batch_size=32, max_iters=1200)
        schedules = [PruneSchedule(ratio=0.5, speed=0.5, update_interval=2),
                     PruneSchedule(ratio=0.0, speed=0.5, update_interval=2, layer=0)]
        made = []

        def compact_spy(*args):
            made.append(compact(*args))
            return made[-1]

        with mock.patch.object(compact_mod, "compact", compact_spy):
            net, report, lgs = run_pruning(blob_net(), x, y, cfg, schedules, seed=11,
                                           eval_data=(x, y))
        assert len(made) == 1
        cnet = made[0]
        assert cnet.layers[0].keep_cols is None
        assert cnet.weights[0].shape == (10, 10, 1, 1)
        assert cnet.layers[2].keep_cols.tolist() == np.flatnonzero(~lgs[1].pruned).tolist()
        assert cnet.weights[2].shape == (8, 5)
        assert 0 < report.summary["compacted_steps"] < 1200
        assert cnet.iteration == net.iteration == 1200
        # the tail's kept weights went back into the full-size arrays
        assert np.array_equal(net.weights[0], cnet.weights[0])
        assert np.array_equal(net.weights[2][:, ~lgs[1].pruned].reshape(8, 5), cnet.weights[2])
        assert not net.weights[2][:, lgs[1].pruned].any()
        assert report.summary["final_accuracy"] >= 0.9

    def test_non_convergence_never_compacts(self):
        net = blob_net()
        shapes = [None if w is None else w.shape for w in net.weights]
        with mock.patch.object(compact_mod, "compact") as never, \
                pytest.raises(PruneDidNotConverge) as e:
            run_pruning(net, *blob_data(), TrainConfig(base_lr=0.05, weight_decay=0.0,
                                                       batch_size=32, max_iters=30),
                        [PruneSchedule(ratio=0.5, speed=0.5, update_interval=2)], seed=11)
        never.assert_not_called()
        assert e.value.report.summary["compacted_steps"] == 0
        assert net.iteration == 30
        for arrays in (net.weights, net.vel_w):
            assert [None if a is None else a.shape for a in arrays] == shapes
        for lg in e.value.groups:
            assert lg.n_groups == 10 and lg.lam.shape == (10,)

    def test_retrain_preserves_pruned_zeros(self):
        retrain_cfg = TrainConfig(base_lr=0.01, weight_decay=0.004,
                                  batch_size=32, max_iters=60)
        net, _, lgs = self.run()
        x, y = blob_data()
        retrain_network(net, lgs, x, y, retrain_cfg, 12)
        acc, _ = evaluate(net, x, y)
        assert acc >= 0.9
        for lg in lgs:
            l1 = group_l1(net.weights[lg.layer], lg.kind)
            assert np.all(l1[lg.pruned] == 0.0)
            assert np.all(l1[~lg.pruned] > 0)

    def test_unstable_factors_raise_well_before_the_budget(self):
        # lr * lambda must stay below 2 * (1 + momentum) = 3.8 for momentum
        # SGD to be stable; speed 100 at lr 0.05 crosses it on the second
        # update and keeps growing
        net = blob_net()
        x, y = blob_data()
        cfg = TrainConfig(base_lr=0.05, weight_decay=0.0, batch_size=32,
                          max_iters=1200)
        sch = PruneSchedule(ratio=0.5, speed=100.0, update_interval=2)
        with pytest.raises(TrainingDiverged) as e, np.errstate(all="ignore"):
            run_pruning(net, x, y, cfg, [sch], seed=11)
        assert e.value.phase == "prune"
        assert e.value.iteration < 200
        assert e.value.layer is not None
        assert f"prune diverged at iteration {e.value.iteration}" in str(e.value)

    def test_bad_report_stride_rejected(self):
        with pytest.raises(ScheduleError, match="report_stride"):
            self.run(report_stride=0)


def zero_pruned(net, lgs):
    """Zero every pruned group, as run_pruning does before each full-size step."""
    for lg in lgs:
        scheduler._zero_groups(net, lg, np.flatnonzero(lg.pruned))


def masked_tail(net, lgs, x, y, cfg, seed, start):
    """Steps start.. of a prune whose layers are all finished, as the
    full-size net ran them before the tail was compacted: the batch stream
    and the lr resume at step start, due factors step down, and the pruned
    groups are zeroed before each step and after the last."""
    stream = batch_iter(x, y, cfg.batch_size, seed)
    for _ in range(start):
        next(stream)
    for k in range(start, cfg.max_iters):
        for lg in lgs:
            if k % lg.schedule.update_interval == 0:
                live = ~lg.pruned & (lg.lam > 0)
                lg.lam[live] = np.maximum(lg.lam[live] - lg.schedule.speed, 0.0)
        zero_pruned(net, lgs)
        xb, yb = next(stream)
        _, dw, db = loss_and_grads(net, xb, yb)
        sgd_step(net, dw, db, cfg, lr=lr_at(cfg, k),
                 reg={lg.layer: lg.lam.reshape(lg.layout) for lg in lgs})
    zero_pruned(net, lgs)


def masked_retrain(net, lgs, x, y, cfg, seed):
    """The SGD loop on the full-size net with no factors, the pruned groups
    zeroed before each step and after the last."""

    def terms(k):
        zero_pruned(net, lgs)
        return net, None

    network._sgd_loop(net, x, y, cfg, seed, "retrain", terms)
    zero_pruned(net, lgs)


# (kind, ratio) of the toy net's conv 0 and conv 3
TOY_SCHEDULES = {
    "column": [("column", 0.5), ("column", 0.5)],
    "row": [("row", 0.5), ("row", 0.5)],
    # channel groups of conv 3 retire conv 0's filters that feed them
    "channel": [("column", 0.0), ("channel", 0.5)],
}


def toy_blobs():
    return make_blobs(256, 4, shape=(1, 8, 8), noise=0.5, seed=5)


@functools.lru_cache(maxsize=None)
def toy_prune(case, iters):
    """The toy net, trained for 100 steps and then pruned for ``iters``
    steps under ``TOY_SCHEDULES[case]``; returns the net, the summary, the
    groups and the prune's TrainConfig. Cached: copy before changing them."""
    x, y = toy_blobs()
    net = build_network(PRESETS["toy"], (1, 8, 8), seed=3)
    train_network(net, x, y, TrainConfig(base_lr=0.05, batch_size=32, max_iters=100), 1)
    schedules = [PruneSchedule(ratio=r, speed=0.2, epsilon=1e-3, update_interval=1,
                               kind=kind, layer=layer)
                 for layer, (kind, r) in zip((0, 3), TOY_SCHEDULES[case])]
    cfg = TrainConfig(base_lr=0.05, batch_size=32, max_iters=iters)
    _, report, lgs = run_pruning(net, x, y, cfg, schedules, seed=2)
    return net, report.summary, lgs, cfg


def toy_cut_prune(case):
    """A copy of the toy prune cut at its first finished step (its first
    ``prune_iters - compacted_steps`` steps), so it ran no compacted tail,
    and the full prune's summary."""
    summary = toy_prune(case, 600)[1]
    assert summary["compacted_steps"] >= 100
    cut = copy.deepcopy(toy_prune(case, 600 - summary["compacted_steps"]))
    assert cut[1]["compacted_steps"] == 0
    assert cut[1]["converged_iteration"] == summary["converged_iteration"]
    return cut, summary


def assert_matches_masked(got, want, lgs, tol):
    """``got`` agrees with ``want``, the masked run it replaces, within tol
    of their scale: logits, and the kept weights, momenta and biases of
    :func:`kept_oracle`; every entry it does not keep is an exact zero in
    ``got``. Returns the kept entries."""
    x = toy_blobs()[0][:64]
    a, b = forward(got, x)[0], forward(want, x)[0]
    assert np.abs(a - b).max() <= tol * np.abs(b).max()
    kept = kept_oracle(got, {lg.layer: (lg.kind, lg.pruned) for lg in lgs})
    for i, (keep, live) in kept.items():
        for name, mask in (("weights", keep), ("vel_w", keep), ("biases", live),
                           ("vel_b", live)):
            mine, ref = getattr(got, name)[i], getattr(want, name)[i]
            assert np.abs(mine[mask] - ref[mask]).max() <= tol * np.abs(ref).max()
            # pruned and unread entries are exact zeros after a compacted run
            assert not mine[~mask].any()
    for lg in lgs:
        for net in (got, want):
            assert not group_l1(net.weights[lg.layer], lg.kind)[lg.pruned].any()
    return kept


class TestCompactedTail:
    """The compacted tail against the masked tail it replaces, on the toy net.

    Fewer GEMM terms round differently, and the compacted tail zeroes the
    weights that nothing reads where the masked one decays them, so the two
    agree to a tolerance, not bitwise: logits and kept parameters within
    TOL relative to their scale after every tail step has run.
    """

    TOL = 1e-4

    @pytest.mark.parametrize("case", list(TOY_SCHEDULES))
    def test_matches_the_masked_tail(self, case):
        x, y = toy_blobs()
        got, summary, lgs, cfg = toy_prune(case, 600)
        tail = summary["compacted_steps"]
        # the same prune cut at its first finished step, then the masked tail
        (want, _, want_lgs, _), _ = toy_cut_prune(case)
        masked_tail(want, want_lgs, x, y, cfg, 2, 600 - tail)
        assert got.iteration == want.iteration == 700

        for lg, ref in zip(lgs, want_lgs):
            assert np.array_equal(lg.pruned, ref.pruned)
            assert np.array_equal(lg.lam, ref.lam)
        kept = assert_matches_masked(got, want, lgs, self.TOL)
        if case != "column":
            # the masked tail decays the unread weights; the compacted one zeroes them
            assert any(want.weights[i][~keep].any() for i, (keep, _) in kept.items())


class TestCompactedRetrain:
    """retrain_network against the masked retrain it replaces, on the toy net.

    The reference drives the SGD loop on the full-size net, zeroing the
    pruned groups as the prune does (:func:`masked_retrain`). Each starts from the toy prune cut at its first
    finished step: that checkpoint ran no compacted tail, so the weights
    that nothing reads are still nonzero in it. The two agree to TOL
    relative to their scale, not bitwise, for the reasons
    :class:`TestCompactedTail` gives.
    """

    TOL = 1e-4
    CFG = TrainConfig(base_lr=0.01, batch_size=32, max_iters=150, lr_schedule="step",
                      step_every=100)

    @pytest.mark.parametrize("case", list(TOY_SCHEDULES))
    def test_matches_the_masked_retrain(self, case):
        x, y = toy_blobs()
        (got, _, lgs, _), summary = toy_cut_prune(case)
        want = copy.deepcopy(got)
        small = retrain_network(got, lgs, x, y, self.CFG, 4)
        masked_retrain(want, lgs, x, y, self.CFG, 4)
        assert got.iteration == want.iteration == small.iteration == \
            summary["converged_iteration"] + 150

        kept = assert_matches_masked(got, want, lgs, self.TOL)
        # the compacted net holds exactly the kept weights
        assert [w.size for w in small.weights if w is not None] == \
            [int(keep.sum()) for keep, _ in kept.values()]
        if case != "column":
            # the masked retrain decays the unread weights; the compacted one zeroes them
            assert any(want.weights[i][~keep].any() for i, (keep, _) in kept.items())

    def test_zero_ratio_retrains_as_plain_training_bitwise(self):
        # every filter and column is kept, so the compacted net is the whole
        # net, and zeroing no group changes nothing either
        x, y = blob_data()
        cfg = TrainConfig(base_lr=0.05, weight_decay=0.004, batch_size=32, max_iters=120)
        net, _, lgs = run_pruning(blob_net(seed=21), x, y, cfg,
                                  [PruneSchedule(ratio=0.0, speed=0.1)], seed=33)
        plain, masked = copy.deepcopy(net), copy.deepcopy(net)
        retrain_network(net, lgs, x, y, self.CFG, 34)
        train_network(plain, x, y, self.CFG, 34)
        masked_retrain(masked, lgs, x, y, self.CFG, 34)
        for ref in (plain, masked):
            assert net.iteration == ref.iteration == 270
            for i in net.parametric_indices:
                for name in ("weights", "biases", "vel_w", "vel_b"):
                    got, want = getattr(net, name)[i], getattr(ref, name)[i]
                    assert np.array_equal(got, want)
                    assert np.array_equal(np.signbit(got), np.signbit(want))


class RefGroup:
    def __init__(self, index, members):
        self.index = index
        self.members = members
        self.lam = 0.0
        self.rank_sum = 0.0
        self.rank_count = 0
        self.pruned = False
        self.l1 = 0.0


def reference_run(net, schedules, weight_seq, report_stride):
    """The scheduler as plain per-group Python, on the weights of drive().

    One object per group with its own flat member indices: norms summed
    member by member, ranks by sorting, the running average, the increment
    law, the zero clamp, frozen factors once pruned, the capped
    smallest-first prune scan and the step-down of finished layers. From
    the first step at which every layer is finished, the compacted tail:
    every entry that :func:`kept_oracle` drops is zeroed (the weights that
    nothing reads as well as the pruned ones), each step writes only the
    kept entries, and a step receives the kept factors, one per live filter
    for rows and one per kept lowered column for columns and channels.
    Returns the report rows, the convergence iteration, each step's
    factors, the final groups and the final weights, momentum and biases of
    every parametric layer. Raises PlanError where the tail would start
    with a conv that keeps no entry.
    """
    layers = []
    for sch in schedules:
        members = members_oracle(net.weights[sch.layer].shape, sch.kind)
        groups = [RefGroup(i, m) for i, m in enumerate(members)]
        layers.append((sch, groups, int(np.floor(sch.ratio * len(groups) + 0.5))))
    params = net.parametric_indices
    w = {i: net.weights[i].ravel().copy() for i in params}
    vw = {i: net.vel_w[i].ravel().copy() for i in params}
    b = {i: net.biases[i].copy() for i in params}
    vb = {i: net.vel_b[i].copy() for i in params}
    rows, factors = [], []
    kept = None                         # set when the tail starts

    def prune_pass():
        done = True
        for sch, groups, target in layers:
            for g in groups:
                g.l1 = 0.0 if g.pruned else sum(abs(float(v)) for v in w[sch.layer][g.members])
            left = target - sum(g.pruned for g in groups)
            below = sorted((g for g in groups if not g.pruned and g.l1 < sch.epsilon),
                           key=lambda g: (g.l1, g.index))
            for g in below[:max(left, 0)]:
                g.pruned, g.l1 = True, 0.0
                w[sch.layer][g.members] = 0.0
                vw[sch.layer][g.members] = 0.0
                if sch.kind == "row":
                    b[sch.layer][g.index] = vb[sch.layer][g.index] = 0.0
            done = done and sum(g.pruned for g in groups) >= target
        return done

    def compact():
        out = kept_oracle(net, {sch.layer: (sch.kind, np.array([g.pruned for g in groups]))
                                for sch, groups, _ in layers})
        for i, (keep, bias) in out.items():
            if not keep.any():
                raise PlanError(f"layer {i} keeps nothing")
            w[i][~keep.ravel()] = vw[i][~keep.ravel()] = 0.0
            b[i][~bias] = vb[i][~bias] = 0.0
        return out

    def step_factors(sch, groups):
        lam = [g.lam for g in groups]
        if kept is None:
            return lam
        keep, live = kept[sch.layer]
        if sch.kind == "row":
            return [lam[f] for f in np.flatnonzero(live)]
        block = keep.shape[2] * keep.shape[3]
        cols = np.flatnonzero(keep.reshape(len(keep), -1).any(axis=0))
        return [lam[c if sch.kind == "column" else c // block] for c in cols]

    def snapshot(step, snap, inst):
        for sch, groups, _ in snap:
            for g in groups:
                rows.append((step, sch.layer, g.index, g.l1, g.lam, inst[sch.layer][g.index],
                             g.rank_sum / g.rank_count, int(g.pruned)))

    converged = None
    for k, nxt in enumerate(weight_seq):
        if prune_pass() and converged is None:
            converged = k
            kept = compact()
        inst = {}
        for sch, groups, _ in layers:
            inst[sch.layer] = rank_oracle([g.l1 for g in groups])
            for g in groups:
                g.rank_sum += inst[sch.layer][g.index]
                g.rank_count += 1
        due = [lay for lay in layers if k % lay[0].update_interval == 0]
        for sch, groups, target in due:
            n, speed = len(groups), sch.speed
            s = sch.ratio * n
            if sum(g.pruned for g in groups) < target:
                final = rank_oracle([g.rank_sum / g.rank_count for g in groups])
                for g in groups:
                    if not g.pruned:
                        r = final[g.index]
                        d = speed * (1.0 - r / s) if r <= s else -speed * ((r - s) / ((n - 1) - s))
                        g.lam = max(g.lam + d, 0.0)
            else:
                for g in groups:
                    if not g.pruned and g.lam > 0:
                        g.lam = max(g.lam - speed, 0.0)
        snapshot(k, [lay for lay in due
                     if k % (lay[0].update_interval * report_stride) == 0], inst)
        factors.append({sch.layer: step_factors(sch, groups) for sch, groups, _ in layers})
        for sch, groups, _ in layers:
            if kept is None:
                for g in groups:
                    if not g.pruned:
                        w[sch.layer][g.members] = nxt[sch.layer].ravel()[g.members]
            else:
                keep = kept[sch.layer][0].ravel()
                w[sch.layer][keep] = nxt[sch.layer].ravel()[keep]
    end = len(weight_seq)
    if prune_pass() and converged is None:
        converged = end
    snapshot(end, layers, {sch.layer: rank_oracle([g.l1 for g in groups])
                           for sch, groups, _ in layers})
    return rows, converged, factors, layers, (w, vw, b, vb)


REF_DEFS = [
    {"kind": "conv", "filters": 4, "kernel": 2},
    {"kind": "relu"},
    {"kind": "conv", "filters": 5, "kernel": 1},
    {"kind": "relu"},
    {"kind": "fc", "out_features": 2},
    {"kind": "softmax-xent"},
]


def eighths(rng, shape, keep):
    """Multiples of 1/8 in [-3/8, 3/8], each nonzero with probability keep:
    any sum of a group's magnitudes is exact in float32, whatever the order."""
    v = rng.integers(-3, 4, size=shape) * (rng.random(shape) < keep)
    return (v / 8).astype(np.float32)


class TestPerGroupReference:
    """The vectorized scheduler against the per-group reference, bit for bit."""

    @pytest.mark.parametrize("kind", GROUP_KINDS)
    @settings(max_examples=150, deadline=None)
    @given(
        kind2=st.sampled_from(GROUP_KINDS),
        ratios=st.tuples(st.sampled_from([0.25, 0.5]), st.sampled_from([0.25, 0.5])),
        speed=st.floats(0.01, 2.0),
        epsilon=st.sampled_from([0.2, 0.3, 1.0]),
        intervals=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        stride=st.integers(1, 2),
        iters=st.integers(1, 25),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_reference(self, kind, kind2, ratios, speed, epsilon,
                               intervals, stride, iters, seed):
        rng = np.random.default_rng(seed)
        net = build_network(REF_DEFS, (3, 3, 3), seed=0)
        for i in (0, 2):
            shape = net.weights[i].shape
            net.weights[i][:] = eighths(rng, shape, 1.0)
            net.vel_w[i][:] = eighths(rng, shape, 1.0)
            net.biases[i][:] = eighths(rng, shape[0], 1.0)
            net.vel_b[i][:] = eighths(rng, shape[0], 1.0)
        seq = [{i: eighths(rng, net.weights[i].shape, rng.uniform()) for i in (0, 2)}
               for _ in range(iters)]
        schedules = [
            PruneSchedule(ratio=r, speed=speed, epsilon=epsilon, update_interval=u,
                          kind=kd, layer=i)
            for i, kd, r, u in zip((0, 2), (kind, kind2), ratios, intervals)
        ]
        try:
            rows, converged, factors, ref_layers, (w, vw, b, vb) = reference_run(
                net, schedules, seq, stride)
        except PlanError:
            # every layer finished, but some conv has no filter or no column
            # left to keep: the compaction at that step refuses the net
            with pytest.raises(PlanError):
                drive(net, schedules, seq, report_stride=stride)
            return

        report, lgs, got_factors = drive(net, schedules, seq, report_stride=stride)

        assert [tuple(map(repr, r)) for r in report_rows(report)] == \
            [tuple(map(repr, r)) for r in rows]
        assert report.summary["converged_iteration"] == converged
        assert report.summary["compacted_steps"] == (0 if converged is None else iters - converged)
        assert len(got_factors) == len(factors) == iters
        for got, ref in zip(got_factors, factors):
            for layer, lam in ref.items():
                assert got[layer].ravel().tolist() == lam
        for lg, (sch, groups, target) in zip(lgs, ref_layers):
            assert lg.target == target
            assert lg.lam.tolist() == [g.lam for g in groups]
            assert lg.rank_sum.tolist() == [g.rank_sum for g in groups]
            assert [lg.rank_count] * lg.n_groups == [g.rank_count for g in groups]
            assert lg.pruned.tolist() == [g.pruned for g in groups]
        for i in net.parametric_indices:
            for got, ref in ((net.weights[i], w[i]), (net.vel_w[i], vw[i]),
                             (net.biases[i], b[i]), (net.vel_b[i], vb[i])):
                assert np.array_equal(got.ravel(), ref)
                assert np.array_equal(np.signbit(got.ravel()), np.signbit(ref))


def disconnecting_prune():
    """A prune of the reference net, row groups in conv 0 and column groups
    in conv 2, each to half, whose weights (seed 2, 7 steps) leave conv 2
    only the columns that read conv 0's pruned filters 1 and 2 once both
    layers finish at step 6. Returns the net, its schedules and the steps'
    weights for :func:`stepping`."""
    rng = np.random.default_rng(2)
    net = build_network(REF_DEFS, (3, 3, 3), seed=0)
    for i in (0, 2):
        shape = net.weights[i].shape
        net.weights[i][:] = eighths(rng, shape, 1.0)
        net.vel_w[i][:] = eighths(rng, shape, 1.0)
        net.biases[i][:] = eighths(rng, shape[0], 1.0)
        net.vel_b[i][:] = eighths(rng, shape[0], 1.0)
    seq = [{i: eighths(rng, net.weights[i].shape, rng.uniform()) for i in (0, 2)}
           for _ in range(7)]
    schedules = [PruneSchedule(ratio=0.5, speed=0.5, epsilon=0.3, update_interval=1,
                               kind=kind, layer=i)
                 for i, kind in ((0, "row"), (2, "column"))]
    return net, schedules, seq


class TestDisconnectingPrune:
    """Every layer reaches its target, but conv 2 keeps no column that reads
    a surviving filter of conv 0: the prune stops there with its report."""

    SAYS = "layer 0: no kept column of layer 2 reads a surviving filter"

    def test_raises_with_the_partial_report(self):
        net, schedules, seq = disconnecting_prune()
        with pytest.raises(scheduler.PruneCannotCompact, match=self.SAYS) as e:
            drive(net, schedules, seq)
        assert isinstance(e.value, PlanError)
        rows, lgs = e.value.report.snapshots, e.value.groups
        assert lgs[0].pruned.tolist() == [False, True, True, False]
        assert lgs[1].pruned.tolist() == [True, False, False, True]
        assert e.value.report.summary["converged_iteration"] == 6
        assert e.value.report.summary["compacted_steps"] == 0
        assert [lay["pruned"] for lay in e.value.report.summary["layers"]] == [2, 2]
        # one snapshot per layer and step, the last with every layer's final flags
        assert [(s.step, s.layer) for s in rows] == [(k, l) for k in range(7) for l in (0, 2)]
        for snap, lg in zip(rows[-2:], lgs):
            assert np.array_equal(snap.pruned, lg.pruned)

    def test_cli_exits_2_and_writes_the_partial_report(self, tmp_path, capsys):
        import yaml

        from increg.checkpoint import save_checkpoint
        from increg.cli import main

        net, schedules, seq = disconnecting_prune()
        baseline = str(tmp_path / "baseline.ckpt")
        save_checkpoint(baseline, net)
        cfg = {
            "dataset": {"classes": 2, "shape": [3, 3, 3], "n_train": 32, "n_val": 0,
                        "n_test": 2},
            "architecture": {"preset": None, "layers": REF_DEFS},
            "prune": {"ratio": 0.5, "kind": "row", "speed": 0.5, "epsilon": 0.3,
                      "update_interval": 1, "max_iters": 7,
                      "per_layer": [{"layer": 2, "ratio": 0.5, "kind": "column"}]},
        }
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / "run"
        with stepping(net, seq):
            code = main(["prune", "--config", str(cfg_path), "--out", str(out),
                         "--checkpoint", baseline])
        assert code == 2
        assert self.SAYS in capsys.readouterr().err
        summary = json.loads((out / "prune_summary.json").read_text())
        assert summary["converged_iteration"] == 6
        assert summary["compacted_steps"] == 0
        assert [lay["kind"] for lay in summary["layers"]] == ["row", "column"]
        rows = (out / "prune_report.csv").read_text().splitlines()
        assert len(rows) == 1 + 7 * (4 + 4)
        assert not (out / "pruned.ckpt").exists()
