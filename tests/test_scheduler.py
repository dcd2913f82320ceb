"""Rank-driven factor scheduling: independent oracles for every moving part."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import increg.network as network

from helpers import report_rows
from increg.compact import build_plan
from increg.data import make_blobs
from increg.network import (
    TrainConfig,
    TrainingDiverged,
    build_network,
    evaluate,
    loss_and_grads,
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
    groups_from_meta,
    groups_to_meta,
    materialize_reg,
    prune_converged,
    rank_groups,
    refresh_l1,
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


def prune_ids(net, lg, idxs):
    """Zero the chosen groups' weights and prune them through the scanner."""
    w = net.weights[lg.layer]
    w[group_mask(lg, idxs, w.shape)] = 0.0
    refresh_l1(net, lg)
    assert sorted(prune_converged(net, lg).tolist()) == sorted(idxs)


def drive(net, schedules, weight_seq, report_stride=1):
    """run_pruning with each SGD step replaced by the next given weights.

    Step k writes weight_seq[k] (layer -> array) into the entries each
    layer's keep-mask keeps; pruned entries hold what the scanner left, and
    biases and momentum are left alone. The loss is 0, so no batch runs.
    Returns the report, the layer groups and each step's factor vectors.
    """
    factors = []
    steps = iter(weight_seq)

    def step(net, dw, db, cfg, lr=None, reg=None, masks=None, bias_masks=None):
        factors.append({i: r.ravel().copy() for i, r in reg.items()})
        for i, w in next(steps).items():
            np.copyto(net.weights[i], w, where=np.broadcast_to(masks[i], w.shape))
        net.iteration += 1
        return net

    cfg = TrainConfig(max_iters=len(weight_seq), batch_size=2)
    x = np.zeros((2, *net.input_shape), dtype=np.float32)
    with mock.patch.object(network, "loss_and_grads", lambda *a: (0.0, None, None)), \
            mock.patch.object(network, "sgd_step", step):
        try:
            _, report, lgs = run_pruning(net, x, np.zeros(2, dtype=np.intp), cfg,
                                         schedules, seed=0,
                                         report_stride=report_stride)
        except PruneDidNotConverge as e:
            report, lgs = e.report, e.groups
    return report, lgs, factors


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
        return lgs[0], np.array([f[0] for f in factors])

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


class TestMaterialize:
    def build(self, kind):
        net = blob_net(seed=4)
        sch = PruneSchedule(ratio=0.2, speed=1.0, kind=kind)
        lgs = build_all_groups(net, [sch])
        return net, lgs

    def test_column_shapes_and_values(self):
        net, lgs = self.build("column")
        for lg in lgs:
            lg.lam[3] = 2.5
        reg, masks, bias_masks = materialize_reg(net, lgs)
        for lg in lgs:
            n, c, kh, kw = net.weights[lg.layer].shape
            assert reg[lg.layer].shape == (1, c, kh, kw)
            assert reg[lg.layer].ravel()[3] == 2.5
            assert masks[lg.layer].all()
        assert bias_masks == {}

    def test_row_shapes_and_bias_mask(self):
        net, lgs = self.build("row")
        lg = lgs[0]
        lg.lam[1] = 0.9
        prune_ids(net, lg, [5])
        reg, masks, bias_masks = materialize_reg(net, lgs)
        n = net.weights[0].shape[0]
        assert reg[0].shape == (n, 1, 1, 1)
        assert reg[0].ravel()[1] == 0.9
        assert not masks[0].ravel()[5] and masks[0].ravel().sum() == n - 1
        assert not bias_masks[0][5] and bias_masks[0].sum() == n - 1

    def test_channel_factors_repeat_over_kernel_positions(self):
        defs = [
            {"kind": "conv", "filters": 4, "kernel": 2},
            {"kind": "fc", "out_features": 2},
            {"kind": "softmax-xent"},
        ]
        net = build_network(defs, (3, 4, 4), seed=0)
        lg = build_groups(net, PruneSchedule(ratio=0.3, speed=1.0, kind="channel"), 0)
        lg.lam[1] = 1.25
        reg, masks, _ = materialize_reg(net, [lg])
        assert reg[0].shape == (1, 3, 1, 1)
        reg = np.broadcast_to(reg[0], net.weights[0].shape)
        assert np.all(reg[:, 1] == 1.25) and reg[:, 0].max() == 0.0
        prune_ids(net, lg, [2])
        _, masks, _ = materialize_reg(net, [lg])
        assert not masks[0][0, 2].any() and masks[0][0, :2].all()

    def test_masked_step_pins_pruned_weights(self):
        net, lgs = self.build("column")
        x, y = blob_data()
        prune_ids(net, lgs[0], [0])
        reg, masks, bias_masks = materialize_reg(net, lgs)
        for _ in range(5):
            _, dw, db = loss_and_grads(net, x[:32], y[:32])
            sgd_step(net, dw, db, TrainConfig(), reg=reg, masks=masks,
                     bias_masks=bias_masks)
        assert np.all(net.weights[0].reshape(10, 10)[:, 0] == 0.0)


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
        sch = PruneSchedule(ratio=kw.pop("ratio", 0.5), speed=0.5,
                            update_interval=2)
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

    def test_retrain_preserves_pruned_zeros(self):
        retrain_cfg = TrainConfig(base_lr=0.01, weight_decay=0.004,
                                  batch_size=32, max_iters=60)
        net, _, lgs = self.run()
        x, y = blob_data()
        _, masks, bias_masks = materialize_reg(net, lgs)
        train_network(net, x, y, retrain_cfg, 12,
                      masks=masks, bias_masks=bias_masks)
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
    smallest-first prune scan and the step-down of finished layers. Returns
    the report rows, the convergence iteration, each step's factors, the
    final groups and the final weights, momentum and biases.
    """
    layers = []
    for sch in schedules:
        members = members_oracle(net.weights[sch.layer].shape, sch.kind)
        groups = [RefGroup(i, m) for i, m in enumerate(members)]
        layers.append((sch, groups, int(np.floor(sch.ratio * len(groups) + 0.5))))
    w = {sch.layer: net.weights[sch.layer].ravel().copy() for sch in schedules}
    vw = {sch.layer: net.vel_w[sch.layer].ravel().copy() for sch in schedules}
    b = {sch.layer: net.biases[sch.layer].copy() for sch in schedules}
    vb = {sch.layer: net.vel_b[sch.layer].copy() for sch in schedules}
    rows, factors = [], []

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

    def snapshot(step, snap, inst):
        for sch, groups, _ in snap:
            for g in groups:
                rows.append((step, sch.layer, g.index, g.l1, g.lam, inst[sch.layer][g.index],
                             g.rank_sum / g.rank_count, int(g.pruned)))

    converged = None
    for k, nxt in enumerate(weight_seq):
        if prune_pass() and converged is None:
            converged = k
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
        factors.append({sch.layer: [g.lam for g in groups] for sch, groups, _ in layers})
        for sch, groups, _ in layers:
            for g in groups:
                if not g.pruned:
                    w[sch.layer][g.members] = nxt[sch.layer].ravel()[g.members]
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
        rows, converged, factors, ref_layers, (w, vw, b, vb) = reference_run(
            net, schedules, seq, stride)

        report, lgs, got_factors = drive(net, schedules, seq, report_stride=stride)

        assert [tuple(map(repr, r)) for r in report_rows(report)] == \
            [tuple(map(repr, r)) for r in rows]
        assert report.summary["converged_iteration"] == converged
        assert len(got_factors) == len(factors) == iters
        for got, ref in zip(got_factors, factors):
            for layer, lam in ref.items():
                assert got[layer].tolist() == lam
        for lg, (sch, groups, target) in zip(lgs, ref_layers):
            i = lg.layer
            assert lg.target == target
            assert lg.lam.tolist() == [g.lam for g in groups]
            assert lg.rank_sum.tolist() == [g.rank_sum for g in groups]
            assert [lg.rank_count] * lg.n_groups == [g.rank_count for g in groups]
            assert lg.pruned.tolist() == [g.pruned for g in groups]
            for got, ref in ((net.weights[i], w[i]), (net.vel_w[i], vw[i]),
                             (net.biases[i], b[i]), (net.vel_b[i], vb[i])):
                assert np.array_equal(got.ravel(), ref)
                assert np.array_equal(np.signbit(got.ravel()), np.signbit(ref))
