"""Config merging/validation and the command-line pipeline end to end."""

import csv
import json
import os
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest
import yaml

import increg
from increg.checkpoint import load_checkpoint, save_checkpoint
from increg.cli import main
from increg.config import (
    ConfigError,
    PRESETS,
    default_config,
    dump_config,
    load_config,
    parse_config,
)
from increg.data import load_dataset
from increg.network import build_network, train_network
from increg.scheduler import (
    build_all_groups,
    groups_to_meta,
    materialize_reg,
    run_pruning,
)


class TestConfig:
    def test_defaults(self):
        cfg = parse_config(None)
        assert cfg.seed == 0
        assert cfg.dataset["shape"] == [1, 8, 8]
        assert cfg.train.max_iters == 2000
        assert cfg.train.weight_decay == 0.004
        assert cfg.prune_train.weight_decay == 0.0
        assert cfg.prune_train.max_iters == 8000
        assert len(cfg.schedules) == 1
        assert cfg.schedules[0].ratio == 0.5
        assert cfg.schedules[0].speed == 0.05
        assert cfg.schedules[0].kind == "column"
        assert cfg.retrain.max_iters == 500
        assert cfg.retrain.base_lr == 0.01
        assert cfg.retrain.batch_size == cfg.train.batch_size
        assert cfg.report_stride == 1
        assert cfg.bench["repeats"] == 50

    def test_unknown_keys_name_their_path(self):
        with pytest.raises(ConfigError, match="train.lr"):
            parse_config({"train": {"lr": 0.1}})
        with pytest.raises(ConfigError, match="frobnicate"):
            parse_config({"frobnicate": 1})
        with pytest.raises(ConfigError, match="prune.rato"):
            parse_config({"prune": {"rato": 0.5}})

    def test_presets_build(self):
        shapes = {"toy": (1, 8, 8), "convnet": (3, 32, 32)}
        assert set(shapes) == set(PRESETS)
        for name, shape in shapes.items():
            cfg = parse_config({"architecture": {"preset": name}})
            net = build_network(cfg.arch_defs, shape, seed=0)
            assert net.conv_indices

    def test_convnet_preset_has_even_columns(self):
        cfg = parse_config({"architecture": {"preset": "convnet"},
                            "dataset": {"shape": [3, 32, 32]}})
        net = build_network(cfg.arch_defs, (3, 32, 32), seed=0)
        cols = [net.layers[i].geom.cols for i in net.conv_indices]
        assert cols == [48, 800, 800]
        assert all(c % 2 == 0 for c in cols)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="preset"):
            parse_config({"architecture": {"preset": "resnet"}})

    def test_inline_layers_win_over_preset(self):
        cfg = parse_config({
            "architecture": {"layers": [
                {"kind": "conv", "filters": 2, "kernel": 1},
                {"kind": "fc", "out_features": 4},
                {"kind": "softmax-xent"},
            ]},
            "dataset": {"shape": [3, 2, 2]},
        })
        assert len(cfg.arch_defs) == 3
        assert load_dataset(cfg)[3] == (3, 2, 2)

    def test_per_layer_schedules(self):
        cfg = parse_config({"prune": {"per_layer": [
            {"layer": 0, "ratio": 0.25},
            {"layer": 3, "ratio": 0.8, "kind": "row", "epsilon": 1e-4},
        ]}})
        assert len(cfg.schedules) == 3
        default, first, second = cfg.schedules
        assert default.layer is None
        assert first.layer == 0 and first.ratio == 0.25
        assert first.kind == "column" and first.speed == 0.05  # inherited
        assert second.kind == "row" and second.epsilon == 1e-4

    def test_per_layer_needs_layer_and_ratio(self):
        with pytest.raises(ConfigError):
            parse_config({"prune": {"per_layer": [{"ratio": 0.5}]}})

    def test_prune_decay_inherits_when_null(self):
        cfg = parse_config({"prune": {"weight_decay": None}})
        assert cfg.prune_train.weight_decay == cfg.train.weight_decay == 0.004
        cfg = parse_config({"prune": {"weight_decay": 0.001}})
        assert cfg.prune_train.weight_decay == 0.001

    @pytest.mark.parametrize(
        "user",
        [
            {"dataset": {"kind": "hdf5"}},
            {"dataset": {"classes": 1}},
            {"dataset": {"shape": [8, 8]}},
            {"dataset": {"kind": "cifar10"}},
            {"dataset": {"kind": "idx"}},
            {"train": {"base_lr": -1.0}},
            {"train": {"momentum": 1.5}},
            {"prune": {"ratio": 1.5}},
            {"prune": {"kind": "diagonal"}},
            {"prune": {"update_interval": 0}},
            {"retrain": {"iters": None}},
        ],
    )
    def test_invalid_values_rejected(self, user):
        with pytest.raises(ConfigError):
            parse_config(user)

    def test_load_config_paths(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(str(tmp_path / "missing.yaml"))
        bad = tmp_path / "list.yaml"
        bad.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError, match="mapping"):
            load_config(str(bad))
        broken = tmp_path / "broken.yaml"
        broken.write_text("train: {base_lr: [unclosed\n")
        with pytest.raises(ConfigError):
            load_config(str(broken))
        empty = tmp_path / "empty.yaml"
        empty.write_text("")
        assert load_config(str(empty)).seed == 0

    def test_dump_round_trips(self):
        cfg = parse_config({"seed": 9, "train": {"batch_size": 16}})
        text = dump_config(cfg)
        re_read = yaml.safe_load(text)
        assert re_read == cfg.raw
        again = parse_config(re_read)
        assert again.train == cfg.train
        assert again.schedules == cfg.schedules

    def test_defaults_dict_is_fresh_each_call(self):
        a = default_config()
        a["train"]["base_lr"] = 99
        assert default_config()["train"]["base_lr"] == 0.05


REPORT_HEADER = ("step", "layer", "group_id", "l1", "lambda_g", "inst_rank",
                 "avg_rank", "pruned")

FAST_PIPELINE = {
    "seed": 5,
    "dataset": {
        "kind": "synthetic",
        "classes": 4,
        "shape": [10, 1, 1],
        "noise": 0.05,
        "n_train": 160,
        "n_val": 48,
        "n_test": 48,
    },
    "architecture": {
        "preset": None,
        "layers": [
            {"kind": "conv", "filters": 10, "kernel": 1},
            {"kind": "relu"},
            {"kind": "conv", "filters": 8, "kernel": 1},
            {"kind": "relu"},
            {"kind": "fc", "out_features": 4},
            {"kind": "softmax-xent"},
        ],
    },
    "train": {"max_iters": 300, "batch_size": 32},
    "prune": {
        "ratio": 0.5,
        "speed": 0.5,
        "update_interval": 2,
        "max_iters": 1200,
        "weight_decay": 0.0,
        "report_stride": 5,
    },
    "retrain": {"iters": 60, "step_every": 30},
    "bench": {"batch": 4, "repeats": 10, "warmup": 1},
}


def read_json(path):
    with open(path) as f:
        return json.load(f)


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


@pytest.fixture
def pipeline_cfg(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(FAST_PIPELINE))
    return str(path), str(tmp_path / "run")


class TestCli:
    def test_print_config_is_deterministic(self, capsys):
        assert main(["print-config"]) == 0
        first = capsys.readouterr().out
        assert main(["print-config"]) == 0
        assert capsys.readouterr().out == first
        assert yaml.safe_load(first)["seed"] == 0

    def test_seed_and_out_overrides(self, capsys):
        assert main(["print-config", "--seed", "7", "--out", "elsewhere"]) == 0
        got = yaml.safe_load(capsys.readouterr().out)
        assert got["seed"] == 7 and got["out"] == "elsewhere"

    def test_missing_config_file_is_exit_2(self, capsys):
        assert main(["train", "--config", "/does/not/exist.yaml"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_config_key_is_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bad.yaml"
        p.write_text("training:\n  base_lr: 0.1\n")
        assert main(["train", "--config", str(p)]) == 2
        assert "training" in capsys.readouterr().err

    def test_malformed_yaml_is_exit_2(self, tmp_path, capsys):
        p = tmp_path / "broken.yaml"
        p.write_text("train: [1, 2\n")
        assert main(["print-config", "--config", str(p)]) == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_zero_prune_iterations_is_exit_2(self, tmp_path, capsys):
        p = tmp_path / "cfg.yaml"
        p.write_text("prune:\n  max_iters: 0\n")
        assert main(["prune", "--config", str(p), "--out", str(tmp_path)]) == 2
        assert "prune.max_iters" in capsys.readouterr().err

    @pytest.mark.parametrize("text, says", [
        ("architecture:\n  preset: null\n  layers: 5\n", "architecture.layers"),
        ("dataset:\n  shape: [1, a, 8]\n", "dataset shape"),
        ("retrain:\n  iters: -5\n", "retrain: "),
    ], ids=["layers-not-a-list", "shape-not-ints", "negative-retrain-iters"])
    def test_malformed_section_is_exit_2(self, tmp_path, capsys, text, says):
        p = tmp_path / "cfg.yaml"
        p.write_text(text)
        out = tmp_path / "run"
        assert main(["train", "--config", str(p), "--out", str(out)]) == 2
        assert f"error: {says}" in capsys.readouterr().err
        assert not out.exists()

    def test_labels_beyond_the_net_are_exit_2(self, tmp_path, capsys):
        # ten blob classes against the toy preset's four outputs
        p = tmp_path / "cfg.yaml"
        p.write_text("dataset:\n  classes: 10\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: label" in err and "4 classes" in err
        assert not (out / "baseline.ckpt").exists()

    def test_module_entry_point_prints_no_warning(self):
        # importing the package must not import increg.cli, or runpy warns
        # when it then runs that module as __main__
        src = os.path.dirname(os.path.dirname(os.path.abspath(increg.__file__)))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-m", "increg.cli", "--help"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0
        assert "usage: increg" in done.stdout
        assert done.stderr == ""

    def test_missing_checkpoint_is_exit_2(self, tmp_path, capsys):
        assert main(["bench", "--out", str(tmp_path),
                     "--pruned", str(tmp_path / "none.ckpt")]) == 2
        assert "error:" in capsys.readouterr().err

    def bench_tampered_state(self, pipeline_cfg, capsys, tamper):
        # a checkpoint of the pipeline net whose saved scheduler state is edited
        cfg_path, out = pipeline_cfg
        cfg = parse_config(FAST_PIPELINE)
        net = build_network(cfg.arch_defs, (10, 1, 1), seed=cfg.seed)
        meta = groups_to_meta(build_all_groups(net, cfg.schedules, cfg.prune_train))
        tamper(meta[0])
        path = os.path.join(os.path.dirname(out), "tampered.ckpt")
        save_checkpoint(path, net, scheduler=meta)
        code = main(["bench", "--config", cfg_path, "--out", out, "--pruned", path])
        return code, capsys.readouterr().err

    def test_truncated_scheduler_list_is_exit_2(self, pipeline_cfg, capsys):
        def tamper(m):
            m["pruned"] = m["pruned"][:-1]
        code, err = self.bench_tampered_state(pipeline_cfg, capsys, tamper)
        assert code == 2
        assert "error:" in err and "'pruned'" in err

    def test_missing_scheduler_key_is_exit_2(self, pipeline_cfg, capsys):
        code, err = self.bench_tampered_state(pipeline_cfg, capsys,
                                              lambda m: m.pop("epsilon"))
        assert code == 2
        assert "error:" in err and "epsilon" in err

    @pytest.mark.parametrize("layer", [
        {"kind": "bogus"},
        {"kind": "conv", "filters": 0, "kernel": 1},
        {"kind": "fc"},
    ], ids=["unknown-kind", "zero-filters", "fc-without-out-features"])
    def test_bad_inline_layer_is_exit_2(self, tmp_path, capsys, layer):
        user = yaml.safe_load(yaml.safe_dump(FAST_PIPELINE))
        user["architecture"]["layers"][2] = layer
        p = tmp_path / "cfg.yaml"
        p.write_text(yaml.safe_dump(user))
        out = tmp_path / "run"
        assert main(["train", "--config", str(p), "--out", str(out)]) == 2
        assert "error: architecture: layer 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit, says", [
        (lambda m: m["layers"][0].__setitem__("kind", "bogus"), "unknown kind 'bogus'"),
        (lambda m: m.pop("seed"), "lacks 'seed'"),
    ], ids=["unknown-kind", "no-seed"])
    def test_bad_checkpoint_metadata_is_exit_2(self, pipeline_cfg, capsys, edit, says):
        cfg_path, out = pipeline_cfg
        cfg = parse_config(FAST_PIPELINE)
        net = build_network(cfg.arch_defs, (10, 1, 1), seed=cfg.seed)
        meta = groups_to_meta(build_all_groups(net, cfg.schedules, cfg.prune_train))
        path = os.path.join(os.path.dirname(out), "edited.ckpt")
        save_checkpoint(path, net, scheduler=meta)
        # rewrite the JSON block between the 16-byte header and the tensors
        with open(path, "rb") as f:
            raw = f.read()
        (n,) = struct.unpack_from("<Q", raw, 8)
        meta = json.loads(raw[16:16 + n])
        edit(meta)
        blob = json.dumps(meta).encode()
        with open(path, "wb") as f:
            f.write(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + n:])
        code = main(["bench", "--config", cfg_path, "--out", out, "--pruned", path])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and says in err

    @pytest.mark.parametrize("content, says", [
        (None, "cannot read"),
        ((",".join(REPORT_HEADER) + "\n0,0,0,1.0,0.0,zero,0.0,0\n").encode(), "malformed"),
        (b"INCREG01\xc6\x01\x00", "unexpected CSV header"),
    ], ids=["missing", "non-numeric", "binary"])
    def test_bad_report_file_is_exit_2(self, tmp_path, capsys, content, says):
        path = tmp_path / "prune_report.csv"
        if content is not None:
            path.write_bytes(content)
        out = tmp_path / "run"
        assert main(["report", "--out", str(out), "--report", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and says in err

    def test_report_skipping_a_group_id_is_exit_2(self, tmp_path, capsys):
        # step 0 lists groups 0 and 2 and step 5 only group 1; a gap is an
        # error, not a trajectory point of 0.0
        path = tmp_path / "prune_report.csv"
        path.write_text(",".join(REPORT_HEADER) + "\n"
                        "0,0,0,1.0,0.0,0,0.0,0\n"
                        "0,0,2,1.0,0.0,1,1.0,0\n"
                        "5,0,1,1.0,0.0,0,0.0,0\n")
        out = tmp_path / "run"
        assert main(["report", "--out", str(out), "--report", str(path)]) == 2
        assert "group ids 0..1" in capsys.readouterr().err
        assert not (out / "trajectory_layer0.csv").exists()

    def test_trajectories_pivot_the_prune_report(self, pipeline_cfg, capsys):
        cfg_path, out = pipeline_cfg
        for cmd in ("train", "prune", "report"):
            assert main([cmd, "--config", cfg_path, "--out", out]) == 0
        capsys.readouterr()
        header, *rows = read_rows(os.path.join(out, "prune_report.csv"))
        assert header == list(REPORT_HEADER)
        pivot: dict = {}
        for step, layer, gid, l1, *_ in rows:
            pivot.setdefault(layer, {}).setdefault(step, {})[int(gid)] = l1
        assert sorted(pivot) == ["0", "2"]
        for layer, steps in pivot.items():
            n = len(next(iter(steps.values())))
            want = [["step"] + [f"group{g}" for g in range(n)]]
            want += [[step] + [l1s[g] for g in range(n)] for step, l1s in steps.items()]
            assert read_rows(os.path.join(out, f"trajectory_layer{layer}.csv")) == want

    def test_verify_theorem(self, tmp_path, capsys):
        assert main(["verify-theorem", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "theorem verification passed" in out
        assert (tmp_path / "theorem_continuation.csv").exists()

    def test_full_pipeline(self, pipeline_cfg, capsys):
        cfg_path, out = pipeline_cfg

        assert main(["train", "--config", cfg_path, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "baseline.ckpt"))
        assert os.path.exists(os.path.join(out, "train_log.csv"))
        assert "val accuracy" in capsys.readouterr().out

        assert main(["prune", "--config", cfg_path, "--out", out]) == 0
        prune_out = capsys.readouterr().out
        assert "pruned 5/10 column groups" in prune_out
        summary = read_json(os.path.join(out, "prune_summary.json"))
        assert summary["converged_iteration"] is not None
        assert summary["flops_ratio"] > 1.5
        assert [l["pruned"] for l in summary["layers"]] == [5, 5]

        assert main(["retrain", "--config", cfg_path, "--out", out]) == 0
        capsys.readouterr()
        net, meta = load_checkpoint(os.path.join(out, "retrained.ckpt"))
        assert meta is not None
        # the masks held through retraining: pruned columns are still zero
        for m in meta:
            w = net.weights[m["layer"]]
            flat = np.abs(w.reshape(w.shape[0], -1))
            for gid, pruned in enumerate(m["pruned"]):
                if pruned:
                    assert flat[:, gid].sum() == 0.0

        assert main(["bench", "--config", cfg_path, "--out", out]) == 0
        bench_out = capsys.readouterr().out
        assert "FLOPs speedup" in bench_out
        rep = read_json(os.path.join(out, "bench.json"))
        assert rep["flops"]["conv_ratio"] == 2.0
        assert rep["metadata"]["platform"]

        assert main(["report", "--config", cfg_path, "--out", out]) == 0
        capsys.readouterr()
        assert os.path.exists(os.path.join(out, "trajectory_layer0.csv"))
        assert os.path.exists(os.path.join(out, "trajectory_layer2.csv"))
        assert os.path.exists(os.path.join(out, "plot_l1.gp"))

    def test_prune_non_convergence_is_exit_3(self, tmp_path, capsys):
        user = yaml.safe_load(yaml.safe_dump(FAST_PIPELINE))
        user["prune"]["max_iters"] = 20
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump(user))
        out = str(tmp_path / "run")
        assert main(["train", "--config", str(cfg_path), "--out", out]) == 0
        capsys.readouterr()
        assert main(["prune", "--config", str(cfg_path), "--out", out]) == 3
        assert "did not converge" in capsys.readouterr().err
        summary = read_json(os.path.join(out, "prune_summary.json"))
        assert summary["converged_iteration"] is None
        assert os.path.exists(os.path.join(out, "prune_report.csv"))

    def test_diverging_train_is_exit_4(self, tmp_path, capsys):
        user = yaml.safe_load(yaml.safe_dump(FAST_PIPELINE))
        user["train"]["base_lr"] = 50.0
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump(user))
        out = tmp_path / "run"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["train", "--config", str(cfg_path), "--out", str(out)])
        assert code == 4
        err = capsys.readouterr().err
        assert "train diverged at iteration" in err
        # the overflow is reported once, by the layer it starts in
        assert "layer 2 (conv) is the first with a non-finite output" in err
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not (out / "baseline.ckpt").exists()

    def test_non_finite_checkpoint_is_exit_2(self, pipeline_cfg, capsys):
        cfg_path, out = pipeline_cfg
        assert main(["train", "--config", cfg_path, "--out", out]) == 0
        path = os.path.join(out, "baseline.ckpt")
        net, _ = load_checkpoint(path)
        net.weights[0].flat[0] = np.inf
        save_checkpoint(path, net)
        capsys.readouterr()
        assert main(["prune", "--config", cfg_path, "--out", out]) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_retrain_needs_scheduler_state(self, pipeline_cfg, capsys):
        cfg_path, out = pipeline_cfg
        assert main(["train", "--config", cfg_path, "--out", out]) == 0
        capsys.readouterr()
        code = main(["retrain", "--config", cfg_path, "--out", out,
                     "--checkpoint", os.path.join(out, "baseline.ckpt")])
        assert code == 2
        assert "no pruning state" in capsys.readouterr().err

    def test_zero_iteration_training_saves_the_init(self, tmp_path, capsys):
        user = yaml.safe_load(yaml.safe_dump(FAST_PIPELINE))
        user["train"]["max_iters"] = 0
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump(user))
        out = str(tmp_path / "run")
        assert main(["train", "--config", str(cfg_path), "--out", out]) == 0
        capsys.readouterr()
        net, _ = load_checkpoint(os.path.join(out, "baseline.ckpt"))
        fresh = build_network(user["architecture"]["layers"], (10, 1, 1), seed=5)
        assert net.iteration == 0
        for i in net.parametric_indices:
            assert np.array_equal(net.weights[i], fresh.weights[i])
            assert np.all(net.vel_w[i] == 0)

    def test_identical_runs_are_byte_identical(self, pipeline_cfg, tmp_path, capsys):
        cfg_path, _ = pipeline_cfg
        outs = [str(tmp_path / "a"), str(tmp_path / "b")]
        for out in outs:
            for cmd in ("train", "prune", "retrain", "report"):
                assert main([cmd, "--config", cfg_path, "--out", out]) == 0
            capsys.readouterr()
        for name in ("baseline.ckpt", "train_log.csv", "pruned.ckpt",
                     "prune_report.csv", "retrained.ckpt", "retrain_log.csv",
                     "trajectory_layer0.csv", "trajectory_layer2.csv", "plot_l1.gp"):
            with open(os.path.join(outs[0], name), "rb") as a, \
                    open(os.path.join(outs[1], name), "rb") as b:
                assert a.read() == b.read()

    def test_library_retrain_matches_the_cli(self, pipeline_cfg, capsys):
        # README's library pipeline and the commands give the same model
        cfg_path, out = pipeline_cfg
        for cmd in ("train", "prune", "retrain"):
            assert main([cmd, "--config", cfg_path, "--out", out]) == 0
        capsys.readouterr()
        cli_net, _ = load_checkpoint(os.path.join(out, "retrained.ckpt"))

        cfg = parse_config(FAST_PIPELINE)
        train, _val, _test, shape, _ = load_dataset(cfg)
        net = build_network(cfg.arch_defs, shape, seed=cfg.seed)
        train_network(net, *train, cfg.train, cfg.seed)
        net, _, groups = run_pruning(net, *train, cfg.prune_train, cfg.schedules,
                                     seed=cfg.seed)
        _, masks, bias_masks = materialize_reg(net, groups)
        train_network(net, *train, cfg.retrain, cfg.seed + 1,
                      masks=masks, bias_masks=bias_masks)
        assert net.iteration == cli_net.iteration
        for i in net.parametric_indices:
            assert np.array_equal(net.weights[i], cli_net.weights[i])
            assert np.array_equal(net.biases[i], cli_net.biases[i])
