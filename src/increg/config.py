"""Run configuration: one YAML file with nested sections, fully defaulted.

Every tunable of a run (dataset, architecture, training, pruning, retrain,
bench) lives here so under-documented hyper-parameters are always
inspectable: the CLI's print-config emits the merged settings for any
config file, or the pure defaults for none. Merging is the one place that
types the YAML: each value must have its default's type, so the rest of the
package casts no config value.
"""

from __future__ import annotations

import copy
import math
import os
from dataclasses import asdict, dataclass

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
        "train": asdict(TrainConfig()),
        "prune": {
            "ratio": 0.5,
            "kind": "column",
            "speed": 0.05,
            "epsilon": 1.0e-5,
            "update_interval": 10,
            "max_iters": 8000,
            "weight_decay": 0.0,
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


# the type of each key whose value may be null; every other leaf takes the
# type of its default
_NULLABLE = {
    "dataset.dir": str,
    "dataset.train_images": str,
    "dataset.train_labels": str,
    "dataset.test_images": str,
    "dataset.test_labels": str,
    "architecture.preset": str,
    "architecture.layers": list,
}
_TYPE_NAMES = {int: "an integer", float: "a finite number", str: "a string",
               list: "a list"}


def _typed(val, kind: type, where: str):
    """``val`` as a ``kind``; a float key also takes an int or a numeric string.

    A bool is never a number here, although Python counts it as an int.
    """
    if not isinstance(val, bool):
        if kind is float and isinstance(val, (int, float, str)):
            try:
                num = float(val)
            except ValueError:
                num = math.nan
            if math.isfinite(num):
                return num
        elif isinstance(val, kind):
            return copy.deepcopy(val)
    raise ConfigError(f"{where} must be {_TYPE_NAMES[kind]}, got {val!r}")


def _merge(base: dict, override, path: str = "") -> dict:
    """``override`` over ``base``; every key is checked against its default."""
    if not isinstance(override, dict):
        raise ConfigError(f"{path or 'the config'} must be a mapping, got {override!r}")
    out = copy.deepcopy(base)
    for key, val in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key: {where}")
        if isinstance(base[key], dict):
            out[key] = _merge(base[key], val, where)
        elif val is None and where in _NULLABLE:
            out[key] = None
        else:
            out[key] = _typed(val, _NULLABLE.get(where, type(base[key])), where)
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
    retrain: TrainConfig
    report_stride: int
    bench: dict


def _build(cls, where: str, fields: dict):
    try:
        return cls(**fields)
    except ValueError as e:
        raise ConfigError(f"{where}: {e}") from e


_SCHEDULE_KEYS = ("ratio", "kind", "speed", "epsilon", "update_interval")


def parse_config(user: dict | None) -> RunConfig:
    """Merge a user dict over the defaults and build the typed sections."""
    merged = _merge(default_config(), user or {})
    ds = merged["dataset"]
    kind = ds["kind"]
    if kind not in ("synthetic", "idx", "cifar10"):
        raise ConfigError(f"unknown dataset kind {kind!r}")
    if kind == "synthetic":
        if ds["classes"] < 2:
            raise ConfigError("synthetic dataset needs at least 2 classes")
        shape = ds["shape"]
        if not (len(shape) == 3 and all(
                isinstance(d, int) and not isinstance(d, bool) and d > 0 for d in shape)):
            raise ConfigError(f"dataset shape must be (C,H,W) of positive ints, got {shape!r}")
        for k, least in (("n_train", 1), ("n_val", 0), ("n_test", 0)):
            if ds[k] < least:
                raise ConfigError(f"dataset.{k} must be at least {least}, got {ds[k]}")
    elif kind == "cifar10":
        if not ds["dir"]:
            raise ConfigError("cifar10 dataset needs dir")
    else:
        for k in ("train_images", "train_labels"):
            if not ds[k]:
                raise ConfigError(f"idx dataset needs {k}")
        if bool(ds["test_images"]) != bool(ds["test_labels"]):
            raise ConfigError("idx dataset needs both test_images and test_labels, or neither")

    arch = merged["architecture"]
    if arch["layers"] is not None:
        defs = arch["layers"]
        if not all(isinstance(d, dict) for d in defs):
            raise ConfigError(f"architecture.layers must be a list of mappings, got {defs!r}")
    else:
        preset = arch["preset"]
        if preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {preset!r}; available: {sorted(PRESETS)}"
            )
        defs = copy.deepcopy(PRESETS[preset])

    prune = merged["prune"]
    if prune["max_iters"] < 1:
        # the final report and prune read each group's rank averaged over
        # the iterations, so a prune needs at least one
        raise ConfigError(f"prune.max_iters must be at least 1, got {prune['max_iters']}")
    # each per_layer entry inherits the section's schedule keys
    common = {k: prune[k] for k in _SCHEDULE_KEYS}
    schedules = [_build(PruneSchedule, "prune", common)]
    for i, entry in enumerate(prune["per_layer"]):
        where = f"prune.per_layer[{i}]"
        prune["per_layer"][i] = full = _merge({"layer": 0, **common}, entry, where)
        if "layer" not in entry or "ratio" not in entry:
            raise ConfigError(f"{where} needs layer and ratio, got {entry!r}")
        schedules.append(_build(PruneSchedule, where, full))
    retrain = {**merged["train"], **merged["retrain"]}
    retrain["max_iters"] = retrain.pop("iters")
    return RunConfig(
        raw=merged,
        seed=merged["seed"],
        out=merged["out"],
        dataset=ds,
        arch_defs=defs,
        train=_build(TrainConfig, "train", merged["train"]),
        prune_train=_build(TrainConfig, "prune", {
            **merged["train"], "weight_decay": prune["weight_decay"],
            "max_iters": prune["max_iters"]}),
        schedules=schedules,
        retrain=_build(TrainConfig, "retrain", retrain),
        report_stride=prune["report_stride"],
        bench=merged["bench"],
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
