"""Physical compaction: plan propagation, forward equivalence, FLOPs, timing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import increg.compact as compact_mod
from increg.compact import (
    CompactNetwork,
    PlanError,
    bench,
    build_plan,
    compact,
    count_gflops,
    flops_totals,
    render_table,
    write_bench_report,
)
from increg.config import parse_config
from increg.network import build_network, forward, loss_and_grads
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
        lgs = build_all_groups(net, [PruneSchedule(ratio=0.25, speed=1.0)])
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
        lgs = build_all_groups(net, [PruneSchedule(ratio=0.3, speed=1.0)])
        prune_indices(net, lgs[0], [0, 7, 11])
        prune_indices(net, lgs[1], [2, 3, 19, 30])
        plan, cnet = self.check(net, lgs)
        assert len(plan[0].keep_cols) == 15
        assert len(plan[3].keep_cols) == 32
        assert cnet.weights[0].shape == (4, 15)
        assert cnet.layers[0].keep_cols.tolist() == plan[0].keep_cols.tolist()

    def test_row_pruning_propagates_to_next_conv(self):
        net = chain_net(seed=2)
        lg = build_groups(net, PruneSchedule(ratio=0.25, speed=1.0, kind="row"), 0)
        prune_indices(net, lg, [1])
        plan, cnet = self.check(net, [lg])
        assert plan[0].keep_rows.tolist() == [0, 2, 3]
        # conv at layer 3 loses input channel 1: 27 of 36 columns survive
        assert len(plan[3].keep_cols) == 27
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
        assert np.array_equal(cnet.weights[6], net.weights[6][:, expect])
        assert cnet.weights[6].shape == (5, 16)
        assert cnet.layers[6].in_features == 16

    def test_channel_pruning_retires_upstream_filter(self):
        net = chain_net(seed=4)
        lg = build_groups(net, PruneSchedule(ratio=0.2, speed=1.0, kind="channel"), 3)
        prune_indices(net, lg, [2])
        plan, cnet = self.check(net, [lg])
        # the producing filter of the dead channel dies with it
        assert plan[0].keep_rows.tolist() == [0, 1, 3]
        assert cnet.layers[3].geom.in_channels == 3
        # the last conv keeps all six filters, so the fc keeps its input
        assert np.array_equal(cnet.weights[6], net.weights[6])

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
        assert len(plan[3].keep_cols) == 25
        # renumbered to the three channels that reach it
        assert cnet.layers[3].keep_cols.tolist() == [
            c for c in range(27) if c not in (5, 9)]

    def test_deep_batch_agreement(self):
        net = build_network(ONEBYONE_DEFS, ONEBYONE_SHAPE, seed=7)
        lgs = build_all_groups(net, [PruneSchedule(ratio=0.5, speed=1.0)])
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
        lgs = build_all_groups(net, [PruneSchedule(ratio=0.3, speed=1.0)])
        base = param_count(compact(net, build_plan(net, lgs)))
        assert base == param_count(net)
        prune_indices(net, lgs[0], [0, 1])
        prune_indices(net, lgs[1], [10])
        small = param_count(compact(net, build_plan(net, lgs)))
        assert small == base - 2 * 4 - 1 * 6

    def test_prepare_input_validates_shape(self):
        net = chain_net()
        lgs = build_all_groups(net, [PruneSchedule(ratio=0.25, speed=1.0)])
        cnet = compact(net, build_plan(net, lgs))
        with pytest.raises(ShapeError):
            cnet.forward(np.zeros((2, 3, 8, 8), dtype=np.float32))


class TestFlops:
    def test_exact_baseline_counts(self):
        net = chain_net()
        flops = count_gflops(net)
        assert flops == {0: 2 * 4 * 18 * 64, 3: 2 * 6 * 36 * 16, 6: 2 * 24 * 5}
        totals = flops_totals(net, compact(net, build_plan(net, [])))
        assert totals["total_base"] == 9216 + 6912 + 240
        assert totals["total_pruned"] == totals["total_base"]
        assert totals["ratio"] == 1.0

    def test_counts_follow_plan(self):
        net = chain_net(seed=1)
        lg = build_groups(net, PruneSchedule(ratio=0.25, speed=1.0, kind="row"), 0)
        prune_indices(net, lg, [1])
        cnet = compact(net, build_plan(net, [lg]))
        flops = count_gflops(cnet)
        assert flops[0] == 2 * 3 * 18 * 64
        assert flops[3] == 2 * 6 * 27 * 16
        assert flops[6] == 2 * 24 * 5
        assert isinstance(flops_totals(net, cnet)["total_pruned"], int)

    def test_half_the_columns_exactly_halves_conv_flops(self):
        net = build_network(ONEBYONE_DEFS, ONEBYONE_SHAPE, seed=2)
        lgs = build_all_groups(net, [PruneSchedule(ratio=0.5, speed=1.0)])
        prune_indices(net, lgs[0], [1, 3, 5, 7, 9])
        prune_indices(net, lgs[1], [0, 2, 4, 6, 8])
        cnet = compact(net, build_plan(net, lgs))
        totals = flops_totals(net, cnet)
        assert totals["conv_ratio"] == 2.0
        base, pruned = count_gflops(net), count_gflops(cnet)
        for i in (0, 2):
            assert base[i] == 2 * pruned[i]
        assert totals["ratio"] < 2.0  # the untouched fc dilutes the total

    def test_missing_conv_layer_rejected(self):
        with pytest.raises(PlanError):
            compact(chain_net(), {})


def zero_pattern_flops(net, kinds):
    """Exact FLOPs before and after removing all-zero filters and columns.

    The rule of perfbench's independent count: a dead filter retires its
    channel in the next conv and its slice of the fc input. A pruned channel
    also retires the filter upstream that produces it, so that filter is
    zeroed first. None marks a plan with an empty conv.
    """
    convs = net.conv_indices
    ws = {i: net.weights[i].copy() for i in convs}
    for pos, l in enumerate(convs[1:], 1):
        if kinds[l] == "channel":
            ws[convs[pos - 1]][~ws[l].any(axis=(0, 2, 3))] = 0
    out = dict.fromkeys(("conv_base", "conv_pruned", "total_base", "total_pruned"), 0)
    alive = None                          # surviving input channels
    for i, spec in enumerate(net.layers):
        if spec.kind == "conv":
            f, _, kh, kw = ws[i].shape
            flat = ws[i].reshape(f, -1)
            live_cols = flat.any(axis=0)
            if alive is not None:
                live_cols &= np.repeat(alive, kh * kw)
            alive = flat.any(axis=1)
            if not (live_cols.any() and alive.any()):
                return None
            base = 2 * flat.size * spec.geom.positions
            kept = 2 * int(alive.sum()) * int(live_cols.sum()) * spec.geom.positions
            out["conv_base"] += base
            out["conv_pruned"] += kept
        elif spec.kind == "fc":
            out_f, in_f = net.weights[i].shape
            base = 2 * in_f * out_f
            kept = 2 * int(alive.sum()) * (in_f // len(alive)) * out_f
        else:
            continue
        out["total_base"] += base
        out["total_pruned"] += kept
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_prunes_count_from_the_compacted_net(data):
    net = chain_net(seed=data.draw(st.integers(0, 3)))
    rng = np.random.default_rng(0)
    for i in net.conv_indices:
        net.biases[i][:] = rng.standard_normal(net.biases[i].shape)
    lgs, kinds = [], {}
    for i in net.conv_indices:
        kinds[i] = data.draw(st.sampled_from(["row", "column", "channel"]))
        lg = build_groups(net, PruneSchedule(ratio=0.25, speed=1.0, kind=kinds[i]), i)
        drop = data.draw(st.sets(st.integers(0, lg.n_groups - 1)))
        lgs.append(prune_indices(net, lg, drop))
    want = zero_pattern_flops(net, kinds)
    if want is None:
        with pytest.raises(PlanError):
            build_plan(net, lgs)
        return
    cnet = compact(net, build_plan(net, lgs))
    totals = flops_totals(net, cnet)
    assert {k: totals[k] for k in want} == want
    x = batch(CHAIN_SHAPE)
    np.testing.assert_allclose(cnet.forward(x), logits_of(net, x), atol=1e-5, rtol=1e-5)


@pytest.mark.parametrize("preset, shape, kinds", [
    ("toy", (1, 8, 8), {0: "row", 3: "column"}),
    ("convnet", (3, 16, 16), {0: "column", 3: "column", 6: "row"}),
    ("convnet", (3, 16, 16), {0: "row", 3: "channel", 6: "column"}),
])
def test_compacted_backward_matches_masked(preset, shape, kinds):
    # a conv that lost columns scatters only its kept lowered rows back
    net = build_network(parse_config({"architecture": {"preset": preset}}).arch_defs,
                        shape, seed=11)
    rng = np.random.default_rng(12)
    lgs = []
    for i, kind in kinds.items():
        lg = build_groups(net, PruneSchedule(ratio=0.5, speed=1.0, kind=kind), i)
        drop = rng.choice(lg.n_groups, size=lg.n_groups // 2, replace=False)
        lgs.append(prune_indices(net, lg, drop.tolist()))
    plan = build_plan(net, lgs)
    cnet = compact(net, plan)
    assert any(spec.keep_cols is not None for spec in cnet.layers[1:])
    x = batch(shape, n=7)
    y = rng.integers(0, net.n_classes(), 7)
    loss, dw, db = loss_and_grads(net, x, y)
    closs, cdw, cdb = loss_and_grads(cnet, x, y)
    assert abs(closs - loss) <= 1e-5 * abs(loss)
    for i in net.parametric_indices:
        if i in plan:
            rows, cols = plan[i].keep_rows, plan[i].keep_cols
            want_w = dw[i].reshape(len(dw[i]), -1)[np.ix_(rows, cols)]
            want_b, arriving = db[i][rows], rows
        else:                           # the fc reads the kept filters' slices
            hw = cnet.layers[i].in_features // len(arriving)
            want_w = dw[i][:, (arriving[:, None] * hw + np.arange(hw)).ravel()]
            want_b = db[i]
        got_w = cdw[i].reshape(want_w.shape)
        for got, want in ((got_w, want_w), (cdb[i], want_b)):
            np.testing.assert_allclose(got, want, rtol=1e-5,
                                       atol=1e-5 * np.abs(want).max())


class TestBench:
    def make(self):
        net = chain_net(seed=3)
        lgs = build_all_groups(net, [PruneSchedule(ratio=0.3, speed=1.0)])
        prune_indices(net, lgs[0], [0, 1, 2, 3, 4])
        prune_indices(net, lgs[1], [0, 1, 2, 3, 4, 5, 6, 7, 8, 9])
        return net, compact(net, build_plan(net, lgs))

    def test_report_structure(self):
        net, cnet = self.make()
        rep = bench(net, cnet, batch=4, repeats=10, warmup=1)
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
        assert rep["flops"] == flops_totals(net, cnet)
        base, pruned = count_gflops(net), count_gflops(cnet)
        for row in rep["layers"]:
            assert row["flops_base"] == base.get(row["layer"], 0)
            assert row["flops_pruned"] == pruned.get(row["layer"], 0)

    def test_timed_forwards_alternate(self, monkeypatch):
        net, cnet = self.make()
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
        # both sides start from the one batch prepared outside the timed layers
        one = ["prepare_input", "timed", "timed", *["apply_layer"] * depth]
        assert calls == one * 11

    def test_report_round_trips_as_json(self, tmp_path):
        import json

        net, cnet = self.make()
        rep = bench(net, cnet, batch=2, repeats=10, warmup=0)
        path = tmp_path / "bench.json"
        write_bench_report(rep, path)
        assert json.loads(path.read_text()) == json.loads(json.dumps(rep))

    def test_too_few_repeats_rejected(self):
        net, cnet = self.make()
        with pytest.raises(ValueError):
            bench(net, cnet, repeats=3)

    def test_render_table_lists_every_layer(self):
        net, cnet = self.make()
        rep = bench(net, cnet, batch=2, repeats=10, warmup=0)
        text = render_table(rep)
        lines = text.splitlines()
        assert "GFLOPs" in lines[0]
        assert len(lines) == 2 + len(net.layers) + 2 + 1
        assert "FLOPs speedup" in lines[-1]
        assert "conv_total" in text
