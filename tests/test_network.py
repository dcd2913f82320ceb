"""Forward/backward correctness: finite-difference oracles and closed forms."""

import copy
import math
import re

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from increg.config import parse_config
from increg.network import (
    NetworkState,
    TrainConfig,
    build_network,
    evaluate,
    forward,
    layer_backward,
    layer_def,
    loss_and_grads,
    lr_at,
    resolve_layers,
    sgd_step,
    softmax_xent,
)
from increg.tensor import GeometryError

TINY_DEFS = [
    {"kind": "conv", "filters": 3, "kernel": 2, "pad": 1},
    {"kind": "relu"},
    {"kind": "maxpool"},
    {"kind": "conv", "filters": 2, "kernel": 2},
    {"kind": "relu"},
    {"kind": "fc", "out_features": 3},
    {"kind": "softmax-xent"},
]
TINY_SHAPE = (2, 5, 5)


def batch_loss(net, x, y):
    logits, _ = forward(net, x)
    loss, _ = softmax_xent(logits, y)
    return loss


def fd_gradient(net, x, y, layer, idx, h=1e-4, bias=False):
    """Central finite difference of the loss wrt one parameter entry."""
    params = net.biases if bias else net.weights
    orig = params[layer][idx]
    params[layer][idx] = orig + h
    up = batch_loss(net, x, y)
    params[layer][idx] = orig - h
    down = batch_loss(net, x, y)
    params[layer][idx] = orig
    return (up - down) / (2 * h)


class TestForward:
    def test_zero_net_gives_uniform_loss(self):
        net = build_network(TINY_DEFS, TINY_SHAPE, seed=0, dtype=np.float64)
        for i in net.parametric_indices:
            net.weights[i][:] = 0.0
        x = np.random.default_rng(0).standard_normal((4, *TINY_SHAPE))
        y = np.array([0, 1, 2, 0])
        assert abs(batch_loss(net, x, y) - math.log(3)) <= 1e-12

    def test_identity_conv_preserves_input(self):
        defs = [{"kind": "conv", "filters": 2, "kernel": 1},
                {"kind": "fc", "out_features": 2},
                {"kind": "softmax-xent"}]
        net = build_network(defs, (2, 3, 3), seed=0, dtype=np.float64)
        net.weights[0][:] = np.eye(2).reshape(2, 2, 1, 1)
        x = np.random.default_rng(1).standard_normal((3, 2, 3, 3))
        # forward caches hold each layer's input; the fc layer sees x itself,
        # as the batch-minor (features, batch) matrix
        _, caches = forward(net, x)
        assert np.array_equal(caches[1][1].T.reshape(x.shape), x)

    def test_relu_clamps(self):
        defs = [{"kind": "relu"}, {"kind": "fc", "out_features": 2},
                {"kind": "softmax-xent"}]
        net = build_network(defs, (1, 2, 2), seed=0, dtype=np.float64)
        x = np.array([[[[-1.0, 2.0], [0.0, -3.0]]]])
        _, caches = forward(net, x)
        assert caches[1][1].ravel().tolist() == [0.0, 2.0, 0.0, 0.0]

    def test_maxpool_halves_and_takes_max(self):
        defs = [{"kind": "maxpool"}, {"kind": "fc", "out_features": 2},
                {"kind": "softmax-xent"}]
        net = build_network(defs, (1, 4, 4), seed=0, dtype=np.float64)
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        _, caches = forward(net, x)
        pooled = caches[1][1].reshape(1, 1, 2, 2)
        assert pooled[0, 0].tolist() == [[5.0, 7.0], [13.0, 15.0]]

    def test_softmax_xent_matches_manual(self):
        logits = np.array([[2.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        labels = np.array([0, 2])
        loss, dlogits = softmax_xent(logits, labels)
        p0 = np.exp([2.0, 1.0, 0.0]) / np.exp([2.0, 1.0, 0.0]).sum()
        want = (-math.log(p0[0]) - math.log(1 / 3)) / 2
        assert abs(loss - want) <= 1e-12
        assert abs(dlogits[0, 0] - (p0[0] - 1) / 2) <= 1e-12

    def test_softmax_stable_at_large_logits(self):
        logits = np.array([[1000.0, 0.0]])
        loss, dlogits = softmax_xent(logits, np.array([0]))
        assert np.isfinite(loss) and np.isfinite(dlogits).all()
        assert loss <= 1e-12


def reference_forward(net, x):
    """Float64 logits of a (B, C, H, W) batch, layer by layer in that layout:
    sliding-window conv, window-max pool, fc."""
    a = np.asarray(x, dtype=np.float64)
    for i, spec in enumerate(net.layers):
        if spec.kind == "conv":
            g, p = spec.geom, spec.geom.pad
            padded = np.pad(a, ((0, 0), (0, 0), (p, p), (p, p)))
            win = sliding_window_view(padded, (g.kernel_h, g.kernel_w), axis=(2, 3))
            win = win[:, :, :: g.stride, :: g.stride]     # (B, C, Ho, Wo, kh, kw)
            a = np.einsum("bchwuv,fcuv->bfhw", win, net.weights[i].astype(np.float64))
            a = a + net.biases[i][None, :, None, None]
        elif spec.kind == "relu":
            a = np.maximum(a, 0.0)
        elif spec.kind == "maxpool":
            b, c, h, w = a.shape
            a = a.reshape(b, c, h // 2, 2, w // 2, 2).max(axis=(3, 5))
        elif spec.kind == "fc":
            a = a.reshape(len(a), -1) @ net.weights[i].T.astype(np.float64) + net.biases[i]
    return a


@pytest.mark.parametrize("batch", [1, 7, 32])
@pytest.mark.parametrize("preset, shape", [("toy", (1, 8, 8)), ("convnet", (3, 16, 16))])
def test_forward_matches_float64_reference(preset, shape, batch):
    # odd batch sizes reach every cache that is kept per batch size
    net = build_network(parse_config({"architecture": {"preset": preset}}).arch_defs,
                        shape, seed=5)
    rng = np.random.default_rng(batch)
    for i in net.parametric_indices:
        net.biases[i][:] = rng.standard_normal(net.biases[i].shape)
    x = rng.standard_normal((batch, *shape)).astype(np.float32)
    got, _ = forward(net, x)
    want = reference_forward(net, x)
    assert got.shape == want.shape == (batch, net.n_classes())
    assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()


class TestGradients:
    def test_fd_every_layer_kind(self):
        net = build_network(TINY_DEFS, TINY_SHAPE, seed=2, dtype=np.float64)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, *TINY_SHAPE))
        y = np.array([0, 1, 2, 1])
        _, dw, db = loss_and_grads(net, x, y)
        for i in net.parametric_indices:
            flat = list(np.ndindex(net.weights[i].shape))
            picks = [flat[k] for k in
                     rng.choice(len(flat), size=min(12, len(flat)), replace=False)]
            for idx in picks:
                want = fd_gradient(net, x, y, i, idx)
                got = dw[i][idx]
                assert abs(got - want) / max(abs(want), 1e-8) < 1e-5, (i, idx)
            for j in range(net.biases[i].shape[0]):
                want = fd_gradient(net, x, y, i, (j,), bias=True)
                assert abs(db[i][j] - want) / max(abs(want), 1e-8) < 1e-5

    def test_maxpool_routes_to_first_max_on_ties(self):
        defs = [{"kind": "maxpool"}, {"kind": "fc", "out_features": 2},
                {"kind": "softmax-xent"}]
        net = build_network(defs, (1, 2, 2), seed=0, dtype=np.float64)
        net.weights[1][:] = np.array([[1.0], [-1.0]])
        x = np.full((1, 1, 2, 2), 7.0)
        logits, caches = forward(net, x)
        assert caches[1][1].ravel().tolist() == [7.0]
        _, dlogits = softmax_xent(logits, np.array([0]))
        # the layers take batch-minor gradients: (classes, batch) at the logits
        dpool, _, _ = layer_backward(net, 1, caches[1], dlogits.T, need_dx=True)
        dx, _, _ = layer_backward(net, 0, caches[0], dpool, need_dx=True)
        # all four entries tie; the first in row-major order takes it all
        g = float(dpool.ravel()[0])
        assert g != 0.0
        assert dx[0, :, :, 0].tolist() == [[g, 0.0], [0.0, 0.0]]

    def test_grad_shapes_match_params(self):
        net = build_network(TINY_DEFS, TINY_SHAPE, seed=4, dtype=np.float64)
        x = np.random.default_rng(5).standard_normal((2, *TINY_SHAPE))
        _, dw, db = loss_and_grads(net, x, np.array([0, 1]))
        for i in net.parametric_indices:
            assert dw[i].shape == net.weights[i].shape
            assert db[i].shape == net.biases[i].shape


class TestSgdStep:
    # the singleton net's bias gradient; its bias starts at 0 and stays there
    ZERO_DB = [np.zeros(1), None]

    def _singleton_net(self, w0, wd=0.0):
        defs = [{"kind": "fc", "out_features": 1},
                {"kind": "softmax-xent"}]
        net = build_network(defs, (1, 1, 1), seed=0, dtype=np.float64)
        net.weights[0][:] = w0
        return net

    def test_decay_closed_form(self):
        # no data gradient contribution: single-class softmax loss is
        # constant, so only weight decay moves the weights
        net = self._singleton_net(1.0)
        cfg = TrainConfig(base_lr=0.1, momentum=0.0, weight_decay=0.5)
        sgd_step(net, [np.zeros((1, 1)), None], self.ZERO_DB, cfg)
        assert net.weights[0][0, 0] == pytest.approx(1.0 - 0.1 * 0.5, abs=1e-15)

    def test_momentum_accumulates(self):
        net = self._singleton_net(0.0)
        cfg = TrainConfig(base_lr=1.0, momentum=0.5, weight_decay=0.0)
        g = [np.ones((1, 1)), None]
        sgd_step(net, g, self.ZERO_DB, cfg)
        sgd_step(net, g, self.ZERO_DB, cfg)
        # v1 = 1, w1 = -1; v2 = 1.5, w2 = -2.5
        assert net.weights[0][0, 0] == pytest.approx(-2.5, abs=1e-15)

    def test_iteration_increments(self):
        net = self._singleton_net(0.0)
        cfg = TrainConfig(momentum=0.0, weight_decay=0.0)
        g = [np.zeros((1, 1)), None]
        sgd_step(net, g, self.ZERO_DB, cfg)
        assert net.iteration == 1

    def test_uniform_extra_factor_equals_larger_decay_bitwise(self):
        defs = [{"kind": "conv", "filters": 3, "kernel": 2},
                {"kind": "relu"},
                {"kind": "fc", "out_features": 3},
                {"kind": "softmax-xent"}]
        a = build_network(defs, (1, 4, 4), seed=8)
        b = copy.deepcopy(a)
        rng = np.random.default_rng(9)
        x = rng.standard_normal((16, 1, 4, 4)).astype(np.float32)
        y = rng.integers(0, 3, size=16)
        extra = 0.013
        cfg_a = TrainConfig(weight_decay=0.004)
        # the same float64 sum is what the extra-factor path rounds once
        cfg_b = TrainConfig(weight_decay=0.004 + extra)
        for _ in range(20):
            _, dw, db = loss_and_grads(a, x, y)
            reg = {i: np.full(a.weights[i].shape, extra, dtype=np.float64)
                   for i in a.parametric_indices}
            sgd_step(a, dw, db, cfg_a, reg=reg)
            _, dw, db = loss_and_grads(b, x, y)
            sgd_step(b, dw, db, cfg_b)
            # biases see only the base decay, so both nets hold theirs at zero
            for net in (a, b):
                for i in net.parametric_indices:
                    net.biases[i][:] = 0
                    net.vel_b[i][:] = 0
        for i in a.parametric_indices:
            assert a.weights[i].tobytes() == b.weights[i].tobytes()
            assert a.vel_w[i].tobytes() == b.vel_w[i].tobytes()

    def test_negative_extra_rejected(self):
        net = self._singleton_net(1.0)
        cfg = TrainConfig()
        g = [np.zeros((1, 1)), None]
        with pytest.raises(ValueError):
            sgd_step(net, g, self.ZERO_DB, cfg,
                     reg={0: np.array([[-0.1]])})


class TestTraining:
    def test_seeded_runs_identical(self):
        results = []
        for _ in range(2):
            net = build_network(TINY_DEFS, TINY_SHAPE, seed=11)
            rng = np.random.default_rng(12)
            x = rng.standard_normal((32, *TINY_SHAPE)).astype(np.float32)
            y = rng.integers(0, 3, size=32)
            cfg = TrainConfig(batch_size=8)
            for t in range(10):
                _, dw, db = loss_and_grads(net, x, y)
                sgd_step(net, dw, db, cfg, lr=lr_at(cfg, t))
            results.append(b"".join(net.weights[i].tobytes()
                                    for i in net.parametric_indices))
        assert results[0] == results[1]

    def test_blobs_reach_95_percent(self):
        # sanity of the whole stack: a separable task trains to high accuracy
        from increg.data import split_blobs
        from increg.network import train_network

        train, val, _ = split_blobs(256, 64, 0, classes=3, shape=(1, 8, 8),
                                    noise=0.5, seed=0)
        defs = [{"kind": "conv", "filters": 4, "kernel": 3, "pad": 1},
                {"kind": "relu"},
                {"kind": "maxpool"},
                {"kind": "fc", "out_features": 3},
                {"kind": "softmax-xent"}]
        net = build_network(defs, (1, 8, 8), seed=0)
        cfg = TrainConfig(max_iters=600)
        train_network(net, train[0], train[1], cfg, 0)
        acc, _ = evaluate(net, train[0], train[1])
        assert acc >= 0.95

    def test_predict_evaluate_agree(self):
        net = build_network(TINY_DEFS, TINY_SHAPE, seed=13)
        rng = np.random.default_rng(14)
        x = rng.standard_normal((10, *TINY_SHAPE)).astype(np.float32)
        y = rng.integers(0, 3, size=10)
        preds = forward(net, x)[0].argmax(1)
        acc, loss = evaluate(net, x, y, batch_size=4)
        assert acc == pytest.approx(float(np.mean(preds == y)))
        assert loss > 0


class TestConfig:
    def test_lr_fixed(self):
        cfg = TrainConfig(base_lr=0.2)
        assert lr_at(cfg, 0) == lr_at(cfg, 999) == 0.2

    def test_lr_step(self):
        cfg = TrainConfig(base_lr=1.0, lr_schedule="step",
                          step_factor=0.1, step_every=100)
        assert lr_at(cfg, 99) == 1.0
        assert lr_at(cfg, 100) == pytest.approx(0.1)
        assert lr_at(cfg, 250) == pytest.approx(0.01)

    @pytest.mark.parametrize("kw", [
        dict(base_lr=0.0), dict(momentum=1.0), dict(momentum=-0.1),
        dict(weight_decay=-1e-3), dict(batch_size=0),
        dict(lr_schedule="cosine"),
        dict(lr_schedule="step", step_factor=0.0),
    ])
    def test_rejects_bad_config(self, kw):
        with pytest.raises(ValueError):
            TrainConfig(**kw)


class TestResolveLayers:
    def test_shapes_thread_through(self):
        layers = resolve_layers(TINY_DEFS, TINY_SHAPE)
        conv2 = layers[3]
        # conv1 pads to 6x6, pool halves to 3x3
        assert conv2.geom.in_channels == 3
        assert (conv2.geom.in_h, conv2.geom.in_w) == (3, 3)
        assert layers[5].in_features == 2 * 2 * 2

    def test_rejects_odd_pool_input(self):
        with pytest.raises(GeometryError):
            resolve_layers([{"kind": "maxpool"}], (1, 5, 4))

    def test_rejects_mid_network_softmax(self):
        with pytest.raises(ValueError):
            resolve_layers([{"kind": "softmax-xent"},
                            {"kind": "fc", "out_features": 2}], (1, 2, 2))

    @pytest.mark.parametrize("defs", [
        [{"kind": "conv", "filters": 2, "kernel": 2}, {"kind": "relu"},
         {"kind": "softmax-xent"}],
        [{"kind": "conv", "filters": 2, "kernel": 2}, {"kind": "softmax-xent"}],
        [{"kind": "relu"}, {"kind": "softmax-xent"}],
    ], ids=["conv-relu", "conv", "no-parametric-layer"])
    def test_rejects_a_net_not_ending_in_an_fc(self, defs):
        with pytest.raises(ValueError, match="the last parametric layer must be an fc"):
            resolve_layers(defs, (1, 8, 8))

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            resolve_layers([{"kind": "batchnorm"}], (1, 2, 2))

    def test_layer_defs_round_trip(self):
        layers = resolve_layers(TINY_DEFS, TINY_SHAPE)
        assert resolve_layers([layer_def(l) for l in layers], TINY_SHAPE) == layers
        pair = resolve_layers([{"kind": "conv", "filters": 3, "kernel": (2, 1)},
                               {"kind": "fc", "out_features": 2}], (1, 4, 4))
        assert (pair[0].geom.kernel_h, pair[0].geom.kernel_w) == (2, 1)

    @pytest.mark.parametrize("layer, says", [
        ({"kind": "conv", "filters": 2, "stride": True}, "layer 0: stride must be an integer"),
        ({"kind": "conv", "filters": 2, "kernel": (2, 2, 2)},
         "layer 0: kernel must be an integer or a pair of them"),
        ({"kind": "conv", "filters": np.int64(2)}, "layer 0: filters must be an integer"),
        ({"kind": "maxpool", "kernel": 2}, "layer 0: unknown key 'kernel' for maxpool"),
        ({"kind": "conv"}, "layer 0: conv needs a positive filters"),
        ({"kind": "conv", "filters": -1}, "layer 0: conv needs a positive filters"),
        ({"kind": ["conv"]}, "layer 0: unknown kind ['conv']"),
    ])
    def test_schema_rejects(self, layer, says):
        with pytest.raises(ValueError, match=re.escape(says)):
            resolve_layers([layer, {"kind": "fc", "out_features": 2}], (1, 4, 4))
