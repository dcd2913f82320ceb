"""Rank-driven factor scheduling: independent oracles for every moving part."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from increg.cli import train_network
from increg.data import make_blobs
from increg.network import (
    TrainConfig,
    TrainingDiverged,
    build_network,
    evaluate,
    loss_and_grads,
    sgd_step,
)
from increg.scheduler import (
    GroupState,
    LayerGroups,
    PruneDidNotConverge,
    PruneSchedule,
    ScheduleError,
    build_all_groups,
    build_groups,
    delta_lambda,
    final_rank,
    groups_from_meta,
    groups_to_meta,
    materialize_reg,
    prune_converged,
    prune_group,
    rank_groups,
    refresh_l1,
    run_pruning,
    target_count,
    update_avg_rank,
    update_lambda,
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


def groups_with_l1(l1s):
    gs = [GroupState(layer=0, index=i, members=np.array([i])) for i in range(len(l1s))]
    for g, v in zip(gs, l1s):
        g.l1 = float(v)
    return gs


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
        gs = groups_with_l1(l1s)
        assert rank_groups(gs).tolist() == rank_oracle(l1s.tolist())

    def test_ties_break_by_index(self):
        gs = groups_with_l1([2.0, 1.0, 1.0, 0.5])
        assert rank_groups(gs).tolist() == [3, 1, 2, 0]

    def test_empty_rejected(self):
        with pytest.raises(ScheduleError):
            rank_groups([])

    def test_running_average_matches_batch_mean(self):
        rng = np.random.default_rng(1)
        g = GroupState(layer=0, index=0, members=np.array([0]))
        ranks = rng.integers(0, 500, size=1000)
        for r in ranks:
            update_avg_rank(g, int(r))
        assert abs(g.avg_rank - float(np.mean(ranks))) <= 1e-9

    def test_negative_rank_rejected(self):
        g = GroupState(layer=0, index=0, members=np.array([0]))
        with pytest.raises(ScheduleError):
            update_avg_rank(g, -1)

    def test_unranked_group_has_no_average(self):
        g = GroupState(layer=0, index=0, members=np.array([0]))
        with pytest.raises(ScheduleError):
            g.avg_rank

    def test_final_rank_orders_averages_stably(self):
        gs = groups_with_l1([0, 0, 0])
        for g, rs in zip(gs, [(2, 2), (1, 3), (4, 0)]):
            for r in rs:
                update_avg_rank(g, r)
        # averages 2.0, 2.0, 2.0: all tie, index order wins
        assert final_rank(gs).tolist() == [0, 1, 2]
        update_avg_rank(gs[0], 8)  # average 4.0 now largest
        assert final_rank(gs).tolist() == [2, 0, 1]


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
    def test_accumulates(self):
        g = GroupState(layer=0, index=0, members=np.array([0]), lambda_g=0.25)
        update_lambda(g, 0.25)
        assert g.lambda_g == 0.5

    def test_clamps_at_zero(self):
        g = GroupState(layer=0, index=0, members=np.array([0]), lambda_g=0.05)
        update_lambda(g, -0.1)
        assert g.lambda_g == 0.0
        update_lambda(g, -0.1)
        assert g.lambda_g == 0.0

    def test_pruned_group_is_frozen(self):
        g = GroupState(layer=0, index=0, members=np.array([0]),
                       lambda_g=1.5, pruned=True)
        update_lambda(g, 2.0)
        assert g.lambda_g == 1.5


class TestGroupLayouts:
    def layout_oracle(self, shape, kind):
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

    @pytest.mark.parametrize("kind,count", [("column", 12), ("row", 4), ("channel", 3)])
    def test_members_match_mask_oracle(self, kind, count):
        defs = [
            {"kind": "conv", "filters": 4, "kernel": 2},
            {"kind": "fc", "out_features": 2},
            {"kind": "softmax-xent"},
        ]
        net = build_network(defs, (3, 4, 4), seed=0)
        lg = build_groups(net, PruneSchedule(ratio=0.25, speed=1.0, kind=kind), 0)
        oracle = self.layout_oracle((4, 3, 2, 2), kind)
        assert lg.n_groups == count
        for g, m in zip(lg.groups, oracle):
            assert sorted(g.members.tolist()) == m.tolist()

    def test_groups_partition_the_layer(self):
        net = blob_net()
        for kind in ("column", "row", "channel"):
            lg = build_groups(net, PruneSchedule(ratio=0.1, speed=1.0, kind=kind), 0)
            all_members = np.concatenate([g.members for g in lg.groups])
            assert sorted(all_members.tolist()) == list(range(net.weights[0].size))

    def test_refresh_l1_matches_member_sums(self):
        net = blob_net(seed=9)
        lg = build_groups(net, PruneSchedule(ratio=0.2, speed=1.0, kind="channel"), 2)
        vec = refresh_l1(net, lg)
        w = np.abs(net.weights[2]).ravel()
        for g, v in zip(lg.groups, vec):
            assert v == pytest.approx(w[g.members].sum(), rel=1e-6)
            assert g.l1 == pytest.approx(float(v), rel=1e-12)

    def test_pruned_group_reports_zero_l1(self):
        net = blob_net()
        lg = build_groups(net, PruneSchedule(ratio=0.2, speed=1.0), 0)
        prune_group(net, lg.groups[4])
        vec = refresh_l1(net, lg)
        assert vec[4] == 0.0 and lg.groups[4].l1 == 0.0


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

    def test_non_conv_and_exempt_layers_rejected(self):
        defs = [
            {"kind": "conv", "filters": 4, "kernel": 1, "prune_exempt": True},
            {"kind": "fc", "out_features": 2},
            {"kind": "softmax-xent"},
        ]
        net = build_network(defs, (4, 1, 1), seed=0)
        with pytest.raises(ScheduleError):
            build_groups(net, PruneSchedule(ratio=0.1, speed=1.0), 0)
        with pytest.raises(ScheduleError):
            build_groups(net, PruneSchedule(ratio=0.1, speed=1.0), 1)


class TestBinding:
    def test_default_schedule_covers_all_convs(self):
        lgs = build_all_groups(blob_net(), [PruneSchedule(ratio=0.5, speed=0.1)],
                               TrainConfig())
        assert [lg.layer for lg in lgs] == [0, 2]
        assert all(lg.schedule.layer == lg.layer for lg in lgs)

    def test_speed_defaults_to_half_weight_decay(self):
        lgs = build_all_groups(blob_net(), [PruneSchedule(ratio=0.5)],
                               TrainConfig(weight_decay=0.004))
        assert all(lg.schedule.speed == 0.002 for lg in lgs)

    def test_zero_decay_cannot_resolve_speed(self):
        with pytest.raises(ScheduleError):
            build_all_groups(blob_net(), [PruneSchedule(ratio=0.5)],
                             TrainConfig(weight_decay=0.0))

    def test_per_layer_overrides_default(self):
        lgs = build_all_groups(
            blob_net(),
            [PruneSchedule(ratio=0.5, speed=0.1),
             PruneSchedule(ratio=0.2, speed=0.3, layer=2, kind="row")],
            TrainConfig(),
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
            build_all_groups(blob_net(), schedules, TrainConfig())

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
            PruneSchedule(**kwargs)


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
        w[:, 1] = 1e-7
        w[:, 4] = 3e-6
        refresh_l1(net, lg)
        out = prune_converged(net, lg)
        assert sorted(g.index for g in out) == [1, 4]
        assert np.all(w[:, 1] == 0) and np.all(w[:, 4] == 0)
        assert np.all(net.vel_w[0][:, 1] == 0)

    def test_cap_takes_smallest_norms_first(self):
        net, lg = self.make_lg()
        w = net.weights[0]
        w[:, 1] = 3e-6
        w[:, 4] = 1e-7
        w[:, 5] = 2e-6
        refresh_l1(net, lg)
        out = prune_converged(net, lg, max_new=2)
        assert [g.index for g in out] == [4, 5]
        assert lg.pruned_count == 2

    def test_cap_ties_break_by_index(self):
        net, lg = self.make_lg()
        w = net.weights[0]
        w[:, 2] = 0.0
        w[:, 5] = 0.0
        refresh_l1(net, lg)
        out = prune_converged(net, lg, max_new=1)
        assert [g.index for g in out] == [2]

    def test_at_threshold_survives(self):
        net, lg = self.make_lg(eps=0.5)
        w = net.weights[0]
        w[:] = 0.0
        w[0, 0] = 0.5   # l1 exactly eps: strict < keeps it
        w[0, 1] = 0.51
        refresh_l1(net, lg)
        out = prune_converged(net, lg)
        assert sorted(g.index for g in out) == [2, 3, 4, 5]

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
        assert [g.index for g in out] == [2]
        assert net.biases[0][2] == 0.0 and net.vel_b[0][2] == 0.0

    def test_bad_epsilon_rejected(self):
        net, lg = self.make_lg()
        with pytest.raises(ScheduleError):
            prune_converged(net, lg, epsilon=0.0)


class TestMaterialize:
    def build(self, kind):
        net = blob_net(seed=4)
        sch = PruneSchedule(ratio=0.2, speed=1.0, kind=kind)
        lgs = build_all_groups(net, [sch], TrainConfig())
        return net, lgs

    def test_column_shapes_and_values(self):
        net, lgs = self.build("column")
        for lg in lgs:
            lg.groups[3].lambda_g = 2.5
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
        lg.groups[1].lambda_g = 0.9
        prune_group(net, lg.groups[5])
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
        lg.groups[1].lambda_g = 1.25
        reg, masks, _ = materialize_reg(net, [lg])
        assert reg[0].shape == (1, 3, 2, 2)
        assert np.all(reg[0][0, 1] == 1.25) and reg[0][0, 0].max() == 0.0
        prune_group(net, lg.groups[2])
        _, masks, _ = materialize_reg(net, [lg])
        assert not masks[0][0, 2].any() and masks[0][0, :2].all()

    def test_masked_step_pins_pruned_weights(self):
        net, lgs = self.build("column")
        x, y = blob_data()
        lg = lgs[0]
        prune_group(net, lg.groups[0])
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
            assert a.schedule == b.schedule
            for ga, gb in zip(a.groups, b.groups):
                assert ga.lambda_g == gb.lambda_g
                assert ga.rank_sum == gb.rank_sum
                assert ga.rank_count == gb.rank_count
                assert ga.pruned == gb.pruned
                assert ga.l1 == pytest.approx(gb.l1, rel=1e-12)

    def test_meta_is_json_clean(self):
        import json

        net = blob_net()
        lgs = build_all_groups(net, [PruneSchedule(ratio=0.5, speed=0.1)],
                               TrainConfig())
        for lg in lgs:
            refresh_l1(net, lg)
            for g, r in zip(lg.groups, rank_groups(lg.groups)):
                update_avg_rank(g, int(r))
        assert json.loads(json.dumps(groups_to_meta(lgs))) == groups_to_meta(lgs)

    def test_group_count_mismatch_rejected(self):
        net = blob_net()
        lgs = build_all_groups(net, [PruneSchedule(ratio=0.5, speed=0.1)],
                               TrainConfig())
        meta = groups_to_meta(lgs)
        meta[0]["lambda"] = meta[0]["lambda"][:-1]
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
        steps = sorted({r[0] for r in report.rows})
        pruned_per_step = {}
        for step, layer, _, l1, lam, _, _, pruned in report.rows:
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
        last = max(r[0] for r in report.rows)
        final = [r for r in report.rows if r[0] == last]
        for _, _, _, l1, _, rank, _, pruned in final:
            if pruned:
                assert l1 == 0.0
        # pruned groups occupy the lowest instantaneous ranks at the end
        for layer in (0, 2):
            rows = [r for r in final if r[1] == layer]
            pruned_ranks = sorted(r[5] for r in rows if r[7])
            assert pruned_ranks == list(range(len(pruned_ranks)))

    def test_zero_ratio_matches_plain_training_bitwise(self):
        x, y = blob_data()
        cfg = TrainConfig(base_lr=0.05, weight_decay=0.004, batch_size=32,
                          max_iters=120)
        a = blob_net(seed=21)
        a, _, _ = run_pruning(a, x, y, cfg, [PruneSchedule(ratio=0.0, speed=0.1)],
                              seed=33)
        b = train_network(blob_net(seed=21), x, y, cfg, 33, cfg.max_iters)
        for i in a.parametric_indices:
            assert np.array_equal(a.weights[i], b.weights[i])
            assert np.array_equal(a.biases[i], b.biases[i])
            assert np.array_equal(a.vel_w[i], b.vel_w[i])

    def test_report_stride_thins_rows_without_changing_dynamics(self):
        net1, rep1, _ = self.run()
        net2, rep2, _ = self.run(report_stride=10)
        assert len(rep2.rows) < len(rep1.rows)
        for i in net1.parametric_indices:
            assert np.array_equal(net1.weights[i], net2.weights[i])
        steps1 = {r[0] for r in rep1.rows}
        steps2 = {r[0] for r in rep2.rows}
        assert steps2 <= steps1
        assert min(steps1) in steps2 and max(steps1) in steps2
        # rows recorded by both runs agree exactly
        at0 = sorted(r for r in rep1.rows if r[0] == 0)
        assert at0 == sorted(r for r in rep2.rows if r[0] == 0)

    def test_non_convergence_raises_with_partial_state(self):
        with pytest.raises(PruneDidNotConverge) as e:
            self.run(max_iters=30)
        assert "30 iterations" in str(e.value)
        assert len(e.value.report.rows) > 0
        assert e.value.report.summary["converged_iteration"] is None
        assert any(not lg.finished for lg in e.value.groups)

    def test_retrain_preserves_pruned_zeros(self):
        retrain_cfg = TrainConfig(base_lr=0.01, weight_decay=0.004,
                                  batch_size=32, max_iters=1)
        net, _, lgs = self.run()
        x, y = blob_data()
        _, masks, bias_masks = materialize_reg(net, lgs)
        train_network(net, x, y, retrain_cfg, 12, 60,
                      masks=masks, bias_masks=bias_masks)
        acc, _ = evaluate(net, x, y)
        assert acc >= 0.9
        for lg in lgs:
            w = net.weights[lg.layer]
            for g in lg.groups:
                if g.pruned:
                    assert np.all(w.flat[g.members] == 0.0)
                else:
                    assert np.abs(w.flat[g.members]).sum() > 0

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
        with pytest.raises(ValueError):
            self.run(report_stride=0)
