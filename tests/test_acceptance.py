"""Acceptance gate: one test per shipped claim, one printed verdict line each.

Each criterion times itself against its stated budget and prints
``criterion N [label]: PASS/FAIL`` directly to the terminal, bypassing
capture, so a plain ``pytest -v`` run shows the ledger.
"""

import time

import numpy as np
import pytest

from helpers import report_rows
from increg.compact import bench, build_plan, compact, count_gflops, flops_totals
from increg.config import parse_config
from increg.data import load_dataset
from increg.network import (
    build_network,
    evaluate,
    forward,
    loss_and_grads,
    softmax_xent,
    train_network,
)
from increg.scheduler import (
    PruneSchedule,
    build_all_groups,
    build_groups,
    delta_lambda,
    final_rank,
    materialize_reg,
    prune_converged,
    refresh_l1,
    run_pruning,
    target_count,
)
from increg.tensor import ConvGeometry, GeometryError, im2col_batch
from increg.theorem import minimize, objective_library, theorem1_suite

BASE_DECAY = 0.004  # the training default every speed setting is quoted against


def announce(capsys, num, label, text):
    with capsys.disabled():
        print(f"criterion {num} [{label}]: {text}", flush=True)


def verdict(capsys, num, label, budget_s, body):
    t0 = time.time()
    try:
        detail = body()
        elapsed = time.time() - t0
        assert elapsed < budget_s, f"runtime {elapsed:.1f}s over {budget_s}s budget"
    except BaseException as e:
        announce(capsys, num, label, f"FAIL ({e})")
        raise
    announce(capsys, num, label, f"PASS {detail} ({elapsed:.1f}s)")


# -- shared toy-net pruning runs (criteria 3, 4, 6) --------------------------

_TOY_CACHE: dict = {}


def toy_run(ratio, seed=0, speed=0.05, interval=10, max_iters=8000,
            retrain=False):
    key = (ratio, seed, speed, interval, max_iters, retrain)
    if key in _TOY_CACHE:
        return _TOY_CACHE[key]
    cfg = parse_config({
        "seed": seed,
        "train": {"max_iters": 400},
        "prune": {"ratio": ratio, "speed": speed, "update_interval": interval,
                  "max_iters": max_iters, "weight_decay": 0.0,
                  "report_stride": 10},
    })
    train, val, test, shape, _means = load_dataset(cfg)
    net = build_network(cfg.arch_defs, shape, seed=cfg.seed)
    train_network(net, train[0], train[1], cfg.train, cfg.seed)
    net, rep, lgs = run_pruning(
        net, train[0], train[1], cfg.prune_train, cfg.schedules,
        seed=cfg.seed, report_stride=cfg.report_stride,
    )
    if retrain:
        # exactly what `increg retrain` runs
        _, masks, bias_masks = materialize_reg(net, lgs)
        train_network(net, train[0], train[1], cfg.retrain, cfg.seed + 1,
                      masks=masks, bias_masks=bias_masks)
    acc, _ = evaluate(net, test[0], test[1])
    _TOY_CACHE[key] = (net, rep, lgs, acc)
    return _TOY_CACHE[key]


# -- criterion 1 --------------------------------------------------------------


def test_criterion_1_shrinkage_continuation(capsys):
    def body():
        quad = [o for o in objective_library() if o.name == "quadratic"][0]
        assert abs(minimize(quad, 1.0, 1.0) - 2.0 / 3.0) <= 1e-8
        assert abs(minimize(quad, 2.0, 1.0) - 0.5) <= 1e-8
        passed, rows = theorem1_suite(deltas=(1e-3, 1e-2, 1e-1))
        assert passed
        assert rows and not any(r.jumped for r in rows)
        for r in rows:
            assert abs(r.omega1) < abs(r.omega0)
        return (f"- closed-form minima to 1e-8; {len(rows)} continuations "
                f"all shrink")

    verdict(capsys, 1, "penalty-minimum shrinkage", 5.0, body)


# -- criterion 2 --------------------------------------------------------------


def test_criterion_2_factor_increment_law(capsys):
    def body():
        rng = np.random.default_rng(0)
        configs = []
        while len(configs) < 1000:
            n = int(rng.integers(2, 301))
            ratio = float(rng.uniform(0.01, 0.99))
            speed = float(10.0 ** rng.uniform(-5, 1))
            s = ratio * n
            if s <= 0 or (n - 1) - s <= 0:
                continue
            configs.append((n, ratio, speed))
        for n, ratio, speed in configs:
            s = ratio * n
            deltas = delta_lambda(np.arange(n), ratio, n, speed).tolist()
            assert deltas[0] == speed                      # exact endpoint
            assert deltas[-1] == -speed                    # exact endpoint
            mid = int(s)
            if mid == s:                                   # exact zero crossing
                assert deltas[mid] == 0.0
            for a, b in zip(deltas, deltas[1:]):
                assert a >= b
            for r, d in enumerate(deltas):
                assert abs(d) <= speed
                assert d >= 0.0 if r <= s else d <= 0.0
        return "- 1000 random configurations: endpoints exact, monotone, signed"

    verdict(capsys, 2, "rank-to-increment law", 1.0, body)


# -- criterion 3 --------------------------------------------------------------


def test_criterion_3_exact_convergence_counts(capsys):
    def body():
        expected = {0.25: [2, 8], 0.5: [5, 16], 0.78: [7, 25]}
        details = []
        for ratio, counts in expected.items():
            _net, rep, lgs, _acc = toy_run(ratio)
            assert [lg.n_groups for lg in lgs] == [9, 32]
            assert [lg.target for lg in lgs] == counts
            assert [target_count(ratio, n) for n in (9, 32)] == counts
            assert [lg.pruned_count for lg in lgs] == counts
            assert rep.summary["converged_iteration"] is not None
            rows = report_rows(rep)
            for row in rows:
                assert row[4] >= 0.0       # factor never goes negative
            flags: dict = {}
            for row in sorted(rows):
                prev = flags.get((row[1], row[2]), 0)
                assert row[7] >= prev      # pruned sets only grow
                flags[(row[1], row[2])] = row[7]
            details.append(f"R={ratio}: {counts} at "
                           f"{rep.summary['converged_iteration']}")
        return "- " + "; ".join(details)

    verdict(capsys, 3, "exact pruned-group counts", 300.0, body)


# -- criterion 4 --------------------------------------------------------------


def conv_direct(x, w, geom):
    """Six-loop direct convolution in float64; the independent oracle."""
    b = x.shape[0]
    out = np.zeros((b, w.shape[0], geom.out_h, geom.out_w))
    p = geom.pad
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    for n in range(b):
        for f in range(w.shape[0]):
            for oy in range(geom.out_h):
                for ox in range(geom.out_w):
                    ys, xs = oy * geom.stride, ox * geom.stride
                    patch = xp[n, :, ys:ys + geom.kernel_h, xs:xs + geom.kernel_w]
                    out[n, f, oy, ox] = float((patch * w[f]).sum())
    return out


def random_geometry(rng):
    while True:
        kh, kw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        geom = dict(
            in_channels=int(rng.integers(1, 5)),
            in_h=int(rng.integers(kh, 10)),
            in_w=int(rng.integers(kw, 10)),
            kernel_h=kh, kernel_w=kw,
            stride=int(rng.integers(1, 3)),
            pad=int(rng.integers(0, 3)),
        )
        try:
            return ConvGeometry(**geom)
        except GeometryError:
            continue


def test_criterion_4_oracle_equivalences(capsys):
    def body():
        # (a) lowering+GEMM against direct convolution, 50 random geometries
        rng = np.random.default_rng(1)
        worst_conv = 0.0
        for _ in range(50):
            geom = random_geometry(rng)
            filters = int(rng.integers(1, 5))
            x = rng.standard_normal((2, geom.in_channels, geom.in_h, geom.in_w))
            w = rng.standard_normal(
                (filters, geom.in_channels, geom.kernel_h, geom.kernel_w))
            direct = conv_direct(x, w, geom)
            cols = im2col_batch(x, geom)
            gemm = np.matmul(w.reshape(filters, -1), cols).reshape(direct.shape)
            rel = np.max(np.abs(direct - gemm)) / max(1.0, np.max(np.abs(direct)))
            worst_conv = max(worst_conv, float(rel))
        assert worst_conv <= 1e-6

        # (b) analytic gradients against central differences, every layer kind
        defs = [
            {"kind": "conv", "filters": 3, "kernel": 2, "pad": 1},
            {"kind": "relu"},
            {"kind": "maxpool"},
            {"kind": "conv", "filters": 2, "kernel": 2},
            {"kind": "relu"},
            {"kind": "fc", "out_features": 3},
            {"kind": "softmax-xent"},
        ]
        net = build_network(defs, (2, 5, 5), seed=3, dtype=np.float64)
        x = rng.standard_normal((4, 2, 5, 5))
        y = np.array([0, 1, 2, 1])

        def loss_of():
            logits, _ = forward(net, x)
            return softmax_xent(logits, y)[0]

        _, dw, db = loss_and_grads(net, x, y)
        h, worst_fd = 1e-4, 0.0
        for i in net.parametric_indices:
            for params, grads in ((net.weights, dw), (net.biases, db)):
                if params[i] is None:
                    continue
                flat = params[i].reshape(-1)
                picks = rng.choice(flat.size, size=min(10, flat.size),
                                   replace=False)
                for j in picks:
                    orig = flat[j]
                    flat[j] = orig + h
                    up = loss_of()
                    flat[j] = orig - h
                    down = loss_of()
                    flat[j] = orig
                    fd = (up - down) / (2 * h)
                    rel = abs(grads[i].reshape(-1)[j] - fd) / max(abs(fd), 1e-6)
                    worst_fd = max(worst_fd, float(rel))
        assert worst_fd <= 1e-5

        # (c) compacted against masked forward on the converged toy run
        net, _rep, lgs, _acc = toy_run(0.5)
        cnet = compact(net, build_plan(net, lgs))
        xs = np.random.default_rng(4).standard_normal(
            (100, *net.input_shape)).astype(np.float32)
        a, _ = forward(net, xs)
        b = cnet.forward(xs)
        rel = np.max(np.abs(a - b)) / max(1.0, float(np.max(np.abs(a))))
        assert rel <= 1e-5
        return (f"- conv rel {worst_conv:.1e}, gradient rel {worst_fd:.1e}, "
                f"compact rel {rel:.1e}")

    verdict(capsys, 4, "independent numerical oracles", 120.0, body)


# -- criterion 5 --------------------------------------------------------------


def prune_fraction(net, lg):
    """Zero and prune the lowest-norm groups down to the layer target."""
    vec = refresh_l1(net, lg)
    drop = np.zeros(lg.n_groups, dtype=bool)
    drop[np.argsort(vec, kind="stable")[: lg.target]] = True
    w = net.weights[lg.layer]
    w[np.broadcast_to(drop.reshape(lg.layout), w.shape)] = 0.0
    refresh_l1(net, lg)
    prune_converged(net, lg, max_new=lg.target)
    assert lg.pruned_count == lg.target


def test_criterion_5_flops_and_wall_time(capsys):
    def body():
        cfg = parse_config({"architecture": {"preset": "convnet"},
                            "dataset": {"shape": [3, 32, 32]}})
        # a 25% cut in one layer costs exactly 1/(1-p) of its baseline
        net = build_network(cfg.arch_defs, (3, 32, 32), seed=0)
        first = net.conv_indices[0]
        lg = build_groups(net, PruneSchedule(ratio=0.25, speed=1.0), first)
        prune_fraction(net, lg)
        kept = count_gflops(compact(net, build_plan(net, [lg])))
        assert count_gflops(net)[first] / kept[first] == 1.0 / (1.0 - 0.25)

        # uniform 50% column pruning exactly halves every conv layer
        net = build_network(cfg.arch_defs, (3, 32, 32), seed=0)
        lgs = build_all_groups(net, [PruneSchedule(ratio=0.5, speed=1.0)])
        for lg in lgs:
            prune_fraction(net, lg)
        cnet = compact(net, build_plan(net, lgs))
        assert flops_totals(net, cnet)["conv_ratio"] == 2.0
        base, kept = count_gflops(net), count_gflops(cnet)
        for i in net.conv_indices:
            assert base[i] == 2 * kept[i]

        rep = bench(net, cnet, batch=32, repeats=30, warmup=5)
        wall = rep["conv_total"]["ratio"]
        meta = rep["metadata"]
        assert meta["platform"] and meta["processor"] and meta["numpy"]
        assert wall >= 1.4, f"conv wall-time ratio {wall:.2f} below 1.4 floor"
        return (f"- conv GFLOPs ratio 2.00 exact, wall ratio {wall:.2f} on "
                f"{meta['processor']}")

    verdict(capsys, 5, "operation count and wall-time speedup", 120.0, body)


# -- criterion 6 --------------------------------------------------------------


def test_criterion_6_survivors_gain_energy(capsys):
    def body():
        details = []
        for seed in (0, 1, 2):
            _net, rep, lgs, _acc = toy_run(0.5, seed=seed)
            rows = report_rows(rep)
            first = min(r[0] for r in rows)
            last = max(r[0] for r in rows)
            for lg in lgs:
                ranks = final_rank(lg)
                cut = lg.schedule.ratio * lg.n_groups
                survivors = np.flatnonzero(ranks >= cut).tolist()
                start = {r[2]: r[3] for r in rows
                         if r[0] == first and r[1] == lg.layer}
                end = {r[2]: r[3] for r in rows
                       if r[0] == last and r[1] == lg.layer}
                m0 = np.mean([start[g] for g in survivors])
                m1 = np.mean([end[g] for g in survivors])
                assert m1 >= m0, (
                    f"seed {seed} layer {lg.layer}: survivor mean L1 "
                    f"{m1:.4f} < start {m0:.4f}")
                for g in np.flatnonzero(lg.pruned).tolist():
                    assert end[g] < lg.schedule.epsilon
                details.append(f"s{seed}/L{lg.layer}: {m0:.2f}->{m1:.2f}")
        return "- survivor mean L1 grew in " + ", ".join(details)

    verdict(capsys, 6, "weight energy shifts to survivors", 300.0, body)


# -- criterion 7 --------------------------------------------------------------


def test_criterion_7_long_recipe_pointer(capsys):
    announce(capsys, 7, "full-dataset 2x recipe",
             "SKIP - hours-long by design; run INCREG_RUN_LONG=1 pytest "
             "tests/test_long_recipe.py")
    pytest.skip("long recipe lives in tests/test_long_recipe.py, "
                "opt in with INCREG_RUN_LONG=1")


# -- criterion 8 --------------------------------------------------------------


def test_criterion_8_speed_knob_robustness(capsys):
    def body():
        budgets = {
            BASE_DECAY / 8: 20000,   # slow ramp needs the longest budget
            BASE_DECAY / 2: 11000,
            2 * BASE_DECAY: 6000,
        }
        results = []
        for speed, max_iters in budgets.items():
            _net, rep, lgs, acc = toy_run(
                0.5, speed=speed, interval=1, max_iters=max_iters,
                retrain=True)
            assert all(lg.pruned_count == lg.target for lg in lgs)
            results.append((speed, rep.summary["converged_iteration"], acc))
        results.sort()
        iters = [r[1] for r in results]
        accs = [r[2] for r in results]
        for slow, fast in zip(iters, iters[1:]):
            assert fast < slow, f"higher speed converged later: {iters}"
        spread = max(accs) - min(accs)
        assert spread <= 0.03, f"accuracy spread {spread:.3f} over 3%"
        return ("- " + ", ".join(f"A={s:g}: iter {i}, acc {a:.3f}"
                                 for s, i, a in results)
                + f"; spread {spread:.3f}")

    verdict(capsys, 8, "pruning-speed robustness", 900.0, body)
