"""Run configuration: one YAML file with nested sections, fully defaulted.

Every tunable of a run (dataset, architecture, training, pruning, retrain,
bench) lives here so under-documented hyper-parameters are always
inspectable: the CLI's print-config emits the merged settings for any
config file, or the pure defaults for none.
"""

from __future__ import annotations

import copy
import os
from dataclasses import dataclass, field

import yaml

from .network import TrainConfig
from .scheduler import PruneSchedule


class ConfigError(ValueError):
    """A config file is malformed or inconsistent."""


PRESETS: dict[str, list[dict]] = {
    # 2-conv net sized so both layers stay at or under 32 lowered columns
    "toy": [
        {"kind": "conv", "filters": 8, "kernel": 3, "pad": 1},
        {"kind": "relu"},
        {"kind": "maxpool"},
        {"kind": "conv", "filters": 12, "kernel": 2},
        {"kind": "relu"},
        {"kind": "fc", "out_features": 4},
        {"kind": "softmax-xent"},
    ],
    # small AlexNet-flavored CIFAR stack: strided stem, then two 5x5 convs;
    # every conv has an even lowered-column count (48/800/800) at 3x32x32 so
    # a uniform 50% column cut halves each layer's FLOPs exactly
    "convnet": [
        {"kind": "conv", "filters": 32, "kernel": 4, "stride": 2, "pad": 1},
        {"kind": "relu"},
        {"kind": "maxpool"},
        {"kind": "conv", "filters": 32, "kernel": 5, "pad": 2},
        {"kind": "relu"},
        {"kind": "maxpool"},
        {"kind": "conv", "filters": 64, "kernel": 5, "pad": 2},
        {"kind": "relu"},
        {"kind": "maxpool"},
        {"kind": "fc", "out_features": 10},
        {"kind": "softmax-xent"},
    ],
}


def default_config() -> dict:
    return {
        "seed": 0,
        "out": "runs/out",
        "dataset": {
            "kind": "synthetic",       # synthetic | idx | cifar10
            "classes": 4,
            "shape": [1, 8, 8],
            "noise": 0.5,
            "n_train": 512,
            "n_val": 128,
            "n_test": 128,
            "seed": None,              # null: top-level seed
            "normalize": True,
            "dir": None,               # cifar10: directory of *.bin batches
            "train_images": None,      # idx: file paths
            "train_labels": None,
            "test_images": None,
            "test_labels": None,
        },
        "architecture": {
            "preset": "toy",           # preset name, or null with inline layers
            "layers": None,
        },
        "train": {
            "base_lr": 0.05,
            "momentum": 0.9,
            "weight_decay": 0.004,
            "batch_size": 32,
            "max_iters": 2000,
            "lr_schedule": "fixed",
            "step_factor": 0.1,
            "step_every": 1000,
        },
        "prune": {
            "ratio": 0.5,
            "kind": "column",
            "speed": 0.05,             # null: half the pruning-phase weight decay
            "epsilon": 1.0e-5,
            "update_interval": 10,
            "max_iters": 8000,
            "weight_decay": 0.0,       # null: inherit train.weight_decay
            "report_stride": 1,
            "per_layer": [],           # entries: {layer, ratio, [kind, speed, ...]}
        },
        "retrain": {
            "iters": 500,
            "base_lr": 0.01,
            "lr_schedule": "step",
            "step_factor": 0.1,
            "step_every": 200,
        },
        "bench": {
            "batch": 10,
            "repeats": 50,
            "warmup": 5,
        },
    }


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key: {where}")
        if isinstance(base[key], dict) and isinstance(val, dict):
            out[key] = _merge(base[key], val, where)
        else:
            out[key] = copy.deepcopy(val)
    return out


@dataclass
class RunConfig:
    """Typed view of a merged config dict."""

    raw: dict
    seed: int
    out: str
    dataset: dict
    arch_defs: list[dict]
    train: TrainConfig
    prune_train: TrainConfig
    schedules: list[PruneSchedule]
    retrain_iters: int
    retrain: TrainConfig
    report_stride: int = 1
    bench: dict = field(default_factory=dict)


def _train_config(sec: dict, max_iters: int | None = None) -> TrainConfig:
    try:
        return TrainConfig(
            base_lr=float(sec["base_lr"]),
            momentum=float(sec["momentum"]),
            weight_decay=float(sec["weight_decay"]),
            batch_size=int(sec["batch_size"]),
            max_iters=int(sec["max_iters"] if max_iters is None else max_iters),
            lr_schedule=str(sec["lr_schedule"]),
            step_factor=float(sec["step_factor"]),
            step_every=int(sec["step_every"]),
        )
    except ValueError as e:
        raise ConfigError(str(e)) from e


def _schedules(sec: dict) -> list[PruneSchedule]:
    common = {
        "epsilon": float(sec["epsilon"]),
        "update_interval": int(sec["update_interval"]),
    }
    speed = sec["speed"]
    try:
        out = [PruneSchedule(
            ratio=float(sec["ratio"]),
            kind=str(sec["kind"]),
            speed=None if speed is None else float(speed),
            **common,
        )]
        for entry in sec["per_layer"] or []:
            if "layer" not in entry or "ratio" not in entry:
                raise ConfigError(f"per_layer entry needs layer and ratio: {entry}")
            e_speed = entry.get("speed", speed)
            out.append(PruneSchedule(
                ratio=float(entry["ratio"]),
                kind=str(entry.get("kind", sec["kind"])),
                speed=None if e_speed is None else float(e_speed),
                epsilon=float(entry.get("epsilon", common["epsilon"])),
                update_interval=int(entry.get("update_interval", common["update_interval"])),
                layer=int(entry["layer"]),
            ))
    except ValueError as e:
        raise ConfigError(str(e)) from e
    return out


def parse_config(user: dict | None) -> RunConfig:
    """Merge a user dict over the defaults and build the typed sections."""
    merged = _merge(default_config(), user or {})
    seed = int(merged["seed"])
    ds = dict(merged["dataset"])
    if ds["seed"] is None:
        ds["seed"] = seed
    kind = ds["kind"]
    if kind not in ("synthetic", "idx", "cifar10"):
        raise ConfigError(f"unknown dataset kind {kind!r}")
    if kind == "synthetic":
        if int(ds["classes"]) < 2:
            raise ConfigError("synthetic dataset needs at least 2 classes")
        if len(ds["shape"]) != 3:
            raise ConfigError(f"dataset shape must be (C,H,W), got {ds['shape']}")
    elif kind == "cifar10":
        if not ds["dir"]:
            raise ConfigError("cifar10 dataset needs dir")
    else:
        for k in ("train_images", "train_labels"):
            if not ds[k]:
                raise ConfigError(f"idx dataset needs {k}")

    arch = merged["architecture"]
    if arch["layers"] is not None:
        defs = list(arch["layers"])
    else:
        preset = arch["preset"]
        if preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {preset!r}; available: {sorted(PRESETS)}"
            )
        defs = copy.deepcopy(PRESETS[preset])

    train = _train_config(merged["train"])
    prune_sec = dict(merged["train"])
    if merged["prune"]["weight_decay"] is not None:
        prune_sec["weight_decay"] = merged["prune"]["weight_decay"]
    prune_iters = int(merged["prune"]["max_iters"])
    if prune_iters < 1:
        # the final report and prune read each group's rank averaged over
        # the iterations, so a prune needs at least one
        raise ConfigError(f"prune.max_iters must be at least 1, got {prune_iters}")
    prune_train = _train_config(prune_sec, max_iters=prune_iters)
    retrain_sec = dict(merged["train"])
    retrain_sec.update({k: v for k, v in merged["retrain"].items() if k != "iters"})
    retrain = _train_config(retrain_sec)
    return RunConfig(
        raw=merged,
        seed=seed,
        out=str(merged["out"]),
        dataset=ds,
        arch_defs=defs,
        train=train,
        prune_train=prune_train,
        schedules=_schedules(merged["prune"]),
        retrain_iters=int(merged["retrain"]["iters"]),
        retrain=retrain,
        report_stride=int(merged["prune"]["report_stride"]),
        bench=dict(merged["bench"]),
    )


def load_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    """Parse a YAML config file (None: the pure defaults), then apply overrides.

    ``overrides`` replaces top-level keys of the file's mapping, as the CLI's
    ``--seed`` and ``--out`` do.
    """
    user = {}
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path) as f:
            try:
                user = yaml.safe_load(f)
            except yaml.YAMLError as e:
                raise ConfigError(f"cannot parse {path}: {e}") from e
        if user is None:
            user = {}
        if not isinstance(user, dict):
            raise ConfigError(f"{path} must hold a mapping at the top level")
    return parse_config({**user, **(overrides or {})})


def dump_config(cfg: RunConfig) -> str:
    """Render the merged settings, defaults included, as YAML."""
    return yaml.safe_dump(cfg.raw, sort_keys=False)
