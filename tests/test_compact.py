"""Physical compaction: plan propagation, forward equivalence, FLOPs, timing."""

import numpy as np
import pytest

from increg.compact import (
    CompactNetwork,
    CompactPlan,
    PlanError,
    bench,
    build_plan,
    compact,
    count_gflops,
    render_table,
    write_bench_report,
)
from increg.network import TrainConfig, build_network, forward
from increg.scheduler import (
    PruneSchedule,
    build_all_groups,
    build_groups,
    prune_converged,
    refresh_l1,
)
from increg.tensor import ShapeError

CHAIN_DEFS = [
    {"kind": "conv", "filters": 4, "kernel": 3, "pad": 1},
    {"kind": "relu"},
    {"kind": "maxpool"},
    {"kind": "conv", "filters": 6, "kernel": 3, "pad": 1},
    {"kind": "relu"},
    {"kind": "maxpool"},
    {"kind": "fc", "out_features": 5},
    {"kind": "softmax-xent"},
]
CHAIN_SHAPE = (2, 8, 8)

ONEBYONE_DEFS = [
    {"kind": "conv", "filters": 10, "kernel": 1},
    {"kind": "relu"},
    {"kind": "conv", "filters": 8, "kernel": 1},
    {"kind": "relu"},
    {"kind": "fc", "out_features": 4},
    {"kind": "softmax-xent"},
]
ONEBYONE_SHAPE = (10, 1, 1)


def chain_net(seed=0):
    return build_network(CHAIN_DEFS, CHAIN_SHAPE, seed=seed)


def prune_indices(net, lg, idxs):
    """Zero the chosen groups' weights and prune them through the scanner."""
    w = net.weights[lg.layer]
    drop = np.zeros(lg.n_groups, dtype=bool)
    drop[list(idxs)] = True
    w[np.broadcast_to(drop.reshape(lg.layout), w.shape)] = 0.0
    refresh_l1(net, lg)
    out = prune_converged(net, lg)
    assert sorted(out.tolist()) == sorted(idxs)
    return lg


def logits_of(net, x):
    out, _ = forward(net, x)
    return out


def batch(shape, n=7, seed=42):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, *shape)).astype(np.float32)


def param_count(net):
    return sum(net.weights[i].size + net.biases[i].size
               for i in net.parametric_indices)


class TestPlan:
    def test_identity_plan(self):
        net = chain_net()
        lgs = build_all_groups(net, [PruneSchedule(ratio=0.25, speed=1.0)],
                               TrainConfig())
        cnet = compact(net, build_plan(net, lgs))
        assert all(spec.keep_cols is None for spec in cnet.layers)
        for a, b in zip(cnet.weights, net.weights):
            assert (a is None and b is None) or np.array_equal(a, b)
        x = batch(CHAIN_SHAPE)
        # identical shapes run the identical kernels: bitwise equal
        assert np.array_equal(cnet.forward(x), logits_of(net, x))

    def test_pruned_group_with_live_weights_rejected(self):
        net = chain_net()
        lg = build_groups(net, PruneSchedule(ratio=0.25, speed=1.0), 0)
        lg.pruned[2] = True   # flag without zeroing the weights
        with pytest.raises(PlanError):
            build_plan(net, [lg])

    def test_same_layer_twice_rejected(self):
        net = chain_net()
        lg = build_groups(net, PruneSchedule(ratio=0.25, speed=1.0), 0)
        with pytest.raises(PlanError):
            build_plan(net, [lg, lg])

    def test_all_filters_pruned_rejected(self):
        net = chain_net()
        lg = build_groups(net, PruneSchedule(ratio=0.25, speed=1.0, kind="row"), 0)
        net.weights[0][:] = 0.0
        net.biases[0][:] = 0.0
        refresh_l1(net, lg)
        prune_converged(net, lg)
        with pytest.raises(PlanError):
            build_plan(net, [lg])

    def test_all_columns_pruned_rejected(self):
        net = chain_net()
        lg = build_groups(net, PruneSchedule(ratio=0.25, speed=1.0), 0)
        net.weights[0][:] = 0.0
        refresh_l1(net, lg)
        prune_converged(net, lg)
        with pytest.raises(PlanError):
            build_plan(net, [lg])


class TestForwardEquivalence:
    """The masked network and its compacted form compute the same function."""

    def check(self, net, lgs, atol=1e-5):
        plan = build_plan(net, lgs)
        cnet = compact(net, plan)
        x = batch(net.input_shape)
        a = logits_of(net, x)
        b = cnet.forward(x)
        # the compacted net is an ordinary network run by the same forward
        assert np.array_equal(logits_of(cnet, x), b)
        assert a.shape == b.shape
        np.testing.assert_allclose(a, b, atol=atol, rtol=1e-5)
        return plan, cnet

    def test_column_pruning_both_layers(self):
        net = chain_net(seed=1)
        lgs = build_all_groups(net, [PruneSchedule(ratio=0.3, speed=1.0)],
                               TrainConfig())
        prune_indices(net, lgs[0], [0, 7, 11])
        prune_indices(net, lgs[1], [2, 3, 19, 30])
        plan, cnet = self.check(net, lgs)
        assert len(plan.conv[0].keep_cols) == 15
        assert len(plan.conv[3].keep_cols) == 32
        assert cnet.weights[0].shape == (4, 15)
        assert cnet.layers[0].keep_cols.tolist() == plan.conv[0].keep_cols.tolist()

    def test_row_pruning_propagates_to_next_conv(self):
        net = chain_net(seed=2)
        lg = build_groups(net, PruneSchedule(ratio=0.25, speed=1.0, kind="row"), 0)
        prune_indices(net, lg, [1])
        plan, cnet = self.check(net, [lg])
        assert plan.conv[0].keep_rows.tolist() == [0, 2, 3]
        # conv at layer 3 loses input channel 1: 27 of 36 columns survive
        assert len(plan.conv[3].keep_cols) == 27
        assert cnet.layers[3].geom.in_channels == 3
        assert cnet.weights[3].shape == (6, 3, 3, 3)
        assert cnet.layers[3].keep_cols is None  # dense over kept channels

    def test_last_conv_row_pruning_remaps_fc(self):
        net = chain_net(seed=3)
        lg = build_groups(net, PruneSchedule(ratio=0.25, speed=1.0, kind="row"), 3)
        prune_indices(net, lg, [0, 4])
        plan, cnet = self.check(net, [lg])
        # fc consumed 6 planes of 2x2; two planes die, their 4-slices go too
        hw = 4
        expect = [c * hw + j for c in (1, 2, 3, 5) for j in range(hw)]
        assert plan.fc[6].keep_in.tolist() == expect
        assert cnet.weights[6].shape == (5, 16)
        assert cnet.layers[6].in_features == 16

    def test_channel_pruning_retires_upstream_filter(self):
        net = chain_net(seed=4)
        lg = build_groups(net, PruneSchedule(ratio=0.2, speed=1.0, kind="channel"), 3)
        prune_indices(net, lg, [2])
        plan, cnet = self.check(net, [lg])
        # the producing filter of the dead channel dies with it
        assert plan.conv[0].keep_rows.tolist() == [0, 1, 3]
        assert cnet.layers[3].geom.in_channels == 3
        assert 6 not in plan.fc

    def test_channel_pruning_on_first_conv_selects_input(self):
        net = chain_net(seed=5)
        lg = build_groups(net, PruneSchedule(ratio=0.4, speed=1.0, kind="channel"), 0)
        prune_indices(net, lg, [0])
        plan, cnet = self.check(net, [lg])
        # the first conv still reads both input channels, but lowers only
        # the rows of channel 1's block of 9
        assert cnet.layers[0].geom.in_channels == 2
        assert cnet.layers[0].keep_cols.tolist() == list(range(9, 18))
        assert cnet.weights[0].shape == (4, 9)

    def test_mixed_kinds_across_layers(self):
        net = chain_net(seed=6)
        row_lg = build_groups(net, PruneSchedule(ratio=0.25, speed=1.0, kind="row"), 0)
        col_lg = build_groups(net, PruneSchedule(ratio=0.2, speed=1.0), 3)
        prune_indices(net, row_lg, [3])
        prune_indices(net, col_lg, [5, 9, 28])
        plan, cnet = self.check(net, [row_lg, col_lg])
        # conv 3 loses channel 3's block of 9 plus its own dead columns,
        # except column 28 which lives inside the dead block already
        assert len(plan.conv[3].keep_cols) == 25
        # renumbered to the three channels that reach it
        assert cnet.layers[3].keep_cols.tolist() == [
            c for c in range(27) if c not in (5, 9)]

    def test_deep_batch_agreement(self):
        net = build_network(ONEBYONE_DEFS, ONEBYONE_SHAPE, seed=7)
        lgs = build_all_groups(net, [PruneSchedule(ratio=0.5, speed=1.0)],
                               TrainConfig())
        prune_indices(net, lgs[0], [0, 2, 4, 6, 8])
        prune_indices(net, lgs[1], [1, 3, 5, 7, 9])
        plan = build_plan(net, lgs)
        cnet = compact(net, plan)
        x = batch(ONEBYONE_SHAPE, n=100, seed=9)
        np.testing.assert_allclose(
            logits_of(net, x), cnet.forward(x), atol=1e-5, rtol=1e-5
        )

    def test_param_count_shrinks(self):
        net = chain_net(seed=8)
        lgs = build_all_groups(net, [PruneSchedule(ratio=0.3, speed=1.0)],
                               TrainConfig())
        base = param_count(compact(net, build_plan(net, lgs)))
        assert base == param_count(net)
        prune_indices(net, lgs[0], [0, 1])
        prune_indices(net, lgs[1], [10])
        small = param_count(compact(net, build_plan(net, lgs)))
        assert small == base - 2 * 4 - 1 * 6

    def test_prepare_input_validates_shape(self):
        net = chain_net()
        lgs = build_all_groups(net, [PruneSchedule(ratio=0.25, speed=1.0)],
                               TrainConfig())
        cnet = compact(net, build_plan(net, lgs))
        with pytest.raises(ShapeError):
            cnet.forward(np.zeros((2, 3, 8, 8), dtype=np.float32))


class TestFlops:
    def test_exact_baseline_counts(self):
        net = chain_net()
        acct = count_gflops(net)
        assert acct.layer(0)["flops_base"] == 2 * 4 * 18 * 64
        assert acct.layer(3)["flops_base"] == 2 * 6 * 36 * 16
        assert acct.layer(6)["flops_base"] == 2 * 24 * 5
        assert acct.total_base == 9216 + 6912 + 240
        assert acct.total_pruned == acct.total_base
        assert acct.ratio == 1.0

    def test_counts_follow_plan(self):
        net = chain_net(seed=1)
        lg = build_groups(net, PruneSchedule(ratio=0.25, speed=1.0, kind="row"), 0)
        prune_indices(net, lg, [1])
        acct = count_gflops(net, build_plan(net, [lg]))
        assert acct.layer(0)["flops_pruned"] == 2 * 3 * 18 * 64
        assert acct.layer(3)["flops_pruned"] == 2 * 6 * 27 * 16
        assert acct.layer(6)["flops_pruned"] == 2 * 24 * 5
        assert isinstance(acct.total_pruned, int)

    def test_half_the_columns_exactly_halves_conv_flops(self):
        net = build_network(ONEBYONE_DEFS, ONEBYONE_SHAPE, seed=2)
        lgs = build_all_groups(net, [PruneSchedule(ratio=0.5, speed=1.0)],
                               TrainConfig())
        prune_indices(net, lgs[0], [1, 3, 5, 7, 9])
        prune_indices(net, lgs[1], [0, 2, 4, 6, 8])
        acct = count_gflops(net, build_plan(net, lgs))
        assert acct.conv_ratio == 2.0
        for i in (0, 2):
            row = acct.layer(i)
            assert row["flops_base"] == 2 * row["flops_pruned"]
        assert acct.ratio < 2.0  # the untouched fc dilutes the total

    def test_missing_conv_layer_rejected(self):
        with pytest.raises(PlanError):
            count_gflops(chain_net(), CompactPlan())


class TestBench:
    def make(self):
        net = chain_net(seed=3)
        lgs = build_all_groups(net, [PruneSchedule(ratio=0.3, speed=1.0)],
                               TrainConfig())
        prune_indices(net, lgs[0], [0, 1, 2, 3, 4])
        prune_indices(net, lgs[1], [0, 1, 2, 3, 4, 5, 6, 7, 8, 9])
        plan = build_plan(net, lgs)
        return net, compact(net, plan), count_gflops(net, plan)

    def test_report_structure(self):
        net, cnet, acct = self.make()
        rep = bench(net, cnet, batch=4, repeats=10, warmup=1, flops=acct)
        assert len(rep["layers"]) == len(net.layers)
        for row in (*rep["layers"], rep["total"], rep["conv_total"]):
            assert row["ms_base"] >= 0.0 and row["ms_pruned"] >= 0.0
            assert row["ms_base_iqr"] >= 0.0 and row["ms_pruned_iqr"] >= 0.0
        for key in ("total", "conv_total"):
            assert rep[key]["ms_base"] > 0.0
            assert rep[key]["ratio"] > 0.0
        meta = rep["metadata"]
        assert meta["batch"] == 4 and meta["repeats"] == 10
        assert meta["platform"] and meta["numpy"]
        assert rep["flops"]["conv_ratio"] == acct.conv_ratio

    def test_timed_forwards_alternate(self, monkeypatch):
        import importlib

        # the package re-exports the function compact(), which shadows the
        # module name as an attribute
        compact_mod = importlib.import_module("increg.compact")
        net, cnet, _ = self.make()
        calls = []
        real = compact_mod._timed_forward
        monkeypatch.setattr(compact_mod, "_timed_forward",
                            lambda apply, x, depth: calls.append("timed")
                            or real(apply, x, depth))
        # the hooks a tracer wraps to time the compacted passes and layers
        for name in ("prepare_input", "apply_layer"):
            hook = getattr(CompactNetwork, name)
            monkeypatch.setattr(CompactNetwork, name,
                                lambda self, *a, hook=hook, name=name:
                                calls.append(name) or hook(self, *a))
        bench(net, cnet, batch=2, repeats=10, warmup=1)
        depth = len(net.layers)
        one = ["timed", "prepare_input", "timed", *["apply_layer"] * depth]
        assert calls == one * 11

    def test_report_round_trips_as_json(self, tmp_path):
        import json

        net, cnet, acct = self.make()
        rep = bench(net, cnet, batch=2, repeats=10, warmup=0, flops=acct)
        path = tmp_path / "bench.json"
        write_bench_report(rep, path)
        assert json.loads(path.read_text()) == json.loads(json.dumps(rep))

    def test_too_few_repeats_rejected(self):
        net, cnet, _ = self.make()
        with pytest.raises(ValueError):
            bench(net, cnet, repeats=3)

    def test_render_table_lists_every_layer(self):
        net, cnet, acct = self.make()
        rep = bench(net, cnet, batch=2, repeats=10, warmup=0, flops=acct)
        text = render_table(rep)
        lines = text.splitlines()
        assert "GFLOPs" in lines[0]
        assert len(lines) == 2 + len(net.layers) + 2 + 1
        assert "FLOPs speedup" in lines[-1]
        assert "conv_total" in text
