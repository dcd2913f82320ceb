"""Checkpoint format: byte-identical round trips and corruption errors."""

import struct

import numpy as np
import pytest

from increg.checkpoint import MAGIC, CheckpointError, load_checkpoint, save_checkpoint
from increg.compact import build_plan, compact
from increg.network import TrainConfig, build_network, loss_and_grads, sgd_step
from increg.scheduler import PruneSchedule, build_groups, prune_converged, refresh_l1

DEFS = [
    {"kind": "conv", "filters": 4, "kernel": 3, "pad": 1},
    {"kind": "relu"},
    {"kind": "maxpool"},
    {"kind": "conv", "filters": 3, "kernel": 2},
    {"kind": "fc", "out_features": 3},
    {"kind": "softmax-xent"},
]


def trained_net(seed=0, steps=5):
    net = build_network(DEFS, (1, 6, 6), seed=seed)
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal((8, 1, 6, 6)).astype(np.float32)
    y = rng.integers(0, 3, size=8)
    cfg = TrainConfig(batch_size=8)
    for _ in range(steps):
        _, dw, db = loss_and_grads(net, x, y)
        sgd_step(net, dw, db, cfg)
    net.meta["channel_means"] = [0.25]
    return net


class TestRoundTrip:
    def test_save_load_save_identical_bytes(self, tmp_path):
        net = trained_net()
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(p1, net)
        loaded, scheduler = load_checkpoint(p1)
        assert scheduler is None
        save_checkpoint(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_state_survives(self, tmp_path):
        net = trained_net(seed=3, steps=7)
        p = tmp_path / "n.ckpt"
        save_checkpoint(p, net)
        loaded, _ = load_checkpoint(p)
        assert loaded.iteration == net.iteration
        assert loaded.rng_seed == net.rng_seed
        assert loaded.input_shape == net.input_shape
        assert loaded.meta == net.meta
        for i in net.parametric_indices:
            assert loaded.weights[i].tobytes() == net.weights[i].tobytes()
            assert loaded.vel_w[i].tobytes() == net.vel_w[i].tobytes()
            assert loaded.biases[i].tobytes() == net.biases[i].tobytes()
            assert loaded.vel_b[i].tobytes() == net.vel_b[i].tobytes()

    def test_scheduler_state_embedded(self, tmp_path):
        net = trained_net()
        sched = {"layers": [{"layer": 0, "lambda": [0.1, 0.2]}]}
        p = tmp_path / "s.ckpt"
        save_checkpoint(p, net, scheduler=sched)
        _, loaded = load_checkpoint(p)
        assert loaded == sched

    def test_forward_identical_after_reload(self, tmp_path):
        from increg.network import forward

        net = trained_net(seed=5)
        p = tmp_path / "f.ckpt"
        save_checkpoint(p, net)
        loaded, _ = load_checkpoint(p)
        x = np.random.default_rng(6).standard_normal((4, 1, 6, 6)).astype(np.float32)
        assert np.array_equal(forward(net, x)[0], forward(loaded, x)[0])


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        net = trained_net()
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, net)
        raw = bytearray(p.read_bytes())
        raw[0] ^= 0xFF
        p.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            load_checkpoint(p)

    def test_truncated_blob(self, tmp_path):
        net = trained_net()
        p = tmp_path / "t.ckpt"
        save_checkpoint(p, net)
        raw = p.read_bytes()
        p.write_bytes(raw[:-10])
        with pytest.raises(CheckpointError):
            load_checkpoint(p)

    def test_trailing_garbage(self, tmp_path):
        net = trained_net()
        p = tmp_path / "g.ckpt"
        save_checkpoint(p, net)
        p.write_bytes(p.read_bytes() + b"\x00\x01")
        with pytest.raises(CheckpointError):
            load_checkpoint(p)

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "h.ckpt"
        p.write_bytes(MAGIC + struct.pack("<Q", 100))
        with pytest.raises(CheckpointError):
            load_checkpoint(p)

    def test_rejects_non_float32(self, tmp_path):
        net = build_network(DEFS, (1, 6, 6), seed=0, dtype=np.float64)
        with pytest.raises(CheckpointError):
            save_checkpoint(tmp_path / "d.ckpt", net)

    def test_rejects_compacted_network(self, tmp_path):
        # its layer list cannot carry a conv's kept rows, so it would not load
        net = trained_net()
        lg = build_groups(net, PruneSchedule(ratio=0.25, speed=1.0, epsilon=1e9, layer=0), 0)
        refresh_l1(net, lg)
        prune_converged(net, lg, max_new=lg.target)
        small = compact(net, build_plan(net, [lg]))
        p = tmp_path / "c.ckpt"
        with pytest.raises(CheckpointError, match="compacted"):
            save_checkpoint(p, small)
        assert not p.exists()

    def test_rejects_non_finite_tensor(self, tmp_path):
        net = trained_net()
        net.vel_w[0].flat[3] = np.nan
        p = tmp_path / "n.ckpt"
        save_checkpoint(p, net)
        with pytest.raises(CheckpointError, match="non-finite"):
            load_checkpoint(p)


class TestAtomicWrite:
    def test_failed_write_leaves_the_old_file(self, tmp_path):
        net = trained_net()
        p = tmp_path / "a.ckpt"
        save_checkpoint(p, net)
        before = p.read_bytes()
        broken = trained_net(seed=1)
        # the last blob cannot be converted, so the write fails mid-file
        broken.vel_b[4] = np.array(["x"] * 3)
        with pytest.raises(ValueError):
            save_checkpoint(p, broken)
        assert p.read_bytes() == before
        assert sorted(f.name for f in tmp_path.iterdir()) == ["a.ckpt"]
