"""Checks of the program's outputs against computations made apart from it.

Nothing here imports the program. Checkpoints are read by their documented
layout (magic, JSON length, JSON, float32 blobs), the layer geometry is
recomputed from the stored layer definitions, pruned groups are read off
the zero pattern of the weights, and the reference forward runs in float64
with a sliding-window einsum rather than the program's im2col.

Each check returns ``(ok, detail)``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import struct

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

MAGIC = b"INCREG01"
# float32 forward against float64 reference: |got - ref| <= LOGIT_TOL * max(1, max|ref|)
LOGIT_TOL = 1e-4


def sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def read_checkpoint(path: str) -> dict:
    """Parse a checkpoint into its JSON header plus per-layer arrays."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:8] != MAGIC:
        raise ValueError(f"{path}: bad magic")
    (jlen,) = struct.unpack_from("<Q", raw, 8)
    meta = json.loads(raw[16:16 + jlen])
    layers = geometry(meta["layers"], tuple(meta["input_shape"]))
    off = 16 + jlen
    params: dict[int, dict] = {}
    for i, lay in enumerate(layers):
        if lay["kind"] not in ("conv", "fc"):
            continue
        arrays = {}
        names = ["w", "b", "vw", "vb"] if lay["bias"] else ["w", "vw"]
        for name in names:
            shape = lay["wshape"] if name in ("w", "vw") else (lay["wshape"][0],)
            n = int(np.prod(shape)) * 4
            arrays[name] = np.frombuffer(raw[off:off + n], dtype="<f4").reshape(shape)
            off += n
        params[i] = arrays
    if off != len(raw):
        raise ValueError(f"{path}: {len(raw) - off} bytes left over")
    return {"meta": meta, "layers": layers, "params": params}


def geometry(defs: list[dict], input_shape: tuple) -> list[dict]:
    """Thread the activation shape through the layer list."""
    c, h, w = input_shape
    out = []
    for d in defs:
        lay = {"kind": d["kind"], "bias": d.get("bias", True)}
        if d["kind"] == "conv":
            kh, kw = d["kernel"] if isinstance(d["kernel"], list) else (d["kernel"],) * 2
            s, p = d.get("stride", 1), d.get("pad", 0)
            ho, wo = (h + 2 * p - kh) // s + 1, (w + 2 * p - kw) // s + 1
            lay.update(in_shape=(c, h, w), kernel=(kh, kw), stride=s, pad=p,
                       out_hw=(ho, wo), wshape=(d["filters"], c, kh, kw))
            c, h, w = d["filters"], ho, wo
        elif d["kind"] == "maxpool":
            h, w = h // 2, w // 2
        elif d["kind"] == "fc":
            lay.update(wshape=(d["out_features"], c * h * w), in_chw=(c, h, w))
            c, h, w = d["out_features"], 1, 1
        out.append(lay)
    return out


def reference_forward(ck: dict, x: np.ndarray) -> np.ndarray:
    """Float64 logits of a checkpointed network on a (B,C,H,W) batch."""
    a = np.asarray(x, dtype=np.float64)
    for i, lay in enumerate(ck["layers"]):
        kind = lay["kind"]
        if kind == "conv":
            w = ck["params"][i]["w"].astype(np.float64)
            p, s = lay["pad"], lay["stride"]
            a = np.pad(a, ((0, 0), (0, 0), (p, p), (p, p)))
            win = sliding_window_view(a, lay["kernel"], axis=(2, 3))[:, :, ::s, ::s]
            a = np.einsum("bchwij,fcij->bfhw", win, w, optimize=True)
            if lay["bias"]:
                a = a + ck["params"][i]["b"].astype(np.float64)[:, None, None]
        elif kind == "relu":
            a = np.maximum(a, 0.0)
        elif kind == "maxpool":
            b, c, h, w_ = a.shape
            a = a.reshape(b, c, h // 2, 2, w_ // 2, 2).max(axis=(3, 5))
        elif kind == "fc":
            a = a.reshape(len(a), -1) @ ck["params"][i]["w"].astype(np.float64).T
            if lay["bias"]:
                a = a + ck["params"][i]["b"].astype(np.float64)
    return a


def normalize(ck: dict, x: np.ndarray) -> np.ndarray:
    """Subtract the per-channel training mean the checkpoint carries."""
    means = ck["meta"]["meta"].get("channel_means")
    if means is None:
        return x
    return (x - np.asarray(means, dtype=np.float32)[:, None, None]).astype(np.float32)


def zero_groups(ck: dict, i: int, kind: str) -> set[int]:
    """Indices of the all-zero row or column groups of conv layer i."""
    w = ck["params"][i]["w"]
    flat = w.reshape(w.shape[0], -1)
    if kind == "row":
        dead = ~flat.any(axis=1)
        if "b" in ck["params"][i]:
            dead &= ck["params"][i]["b"] == 0
    else:
        dead = ~flat.any(axis=0)
    return set(np.flatnonzero(dead).tolist())


def conv_layers(ck: dict) -> list[int]:
    return [i for i, lay in enumerate(ck["layers"]) if lay["kind"] == "conv"]


def n_groups(lay: dict, kind: str) -> int:
    f, c, kh, kw = lay["wshape"]
    return f if kind == "row" else c * kh * kw


def check_counts(ck: dict, kind: str, ratio: float):
    """Each conv layer has exactly round-half-up(ratio * groups) zero groups,
    and they are the groups the saved scheduler state marks as pruned."""
    marked = {m["layer"]: m for m in ck["meta"]["scheduler"] or []}
    details = []
    for i in conv_layers(ck):
        n = n_groups(ck["layers"][i], kind)
        want = math.floor(ratio * n + 0.5)
        zero = zero_groups(ck, i, kind)
        flags = marked.get(i, {}).get("pruned", [])
        flagged = {g for g, f in enumerate(flags) if f}
        details.append(f"layer {i}: {len(zero)}/{n} zero, want {want}")
        if len(zero) != want or zero != flagged:
            return False, "; ".join(details) + f" (flagged {len(flagged)})"
    return True, "; ".join(details)


def check_zero_kept(pruned: dict, retrained: dict, kind: str):
    """Retraining keeps exactly the pruned groups at exact zero."""
    for i in conv_layers(pruned):
        a, b = zero_groups(pruned, i, kind), zero_groups(retrained, i, kind)
        if a != b:
            return False, f"layer {i}: {len(a)} zero groups pruned, {len(b)} retrained"
    return True, "same zero groups"


def count_flops(ck: dict) -> dict:
    """Exact forward FLOPs (2 per multiply-add) before and after removing
    zero rows and columns; a dead filter also retires its output channel in
    the next conv and its slice of the fc input."""
    conv_base = conv_kept = fc_base = fc_kept = 0
    alive = None                          # surviving input channels
    for i, lay in enumerate(ck["layers"]):
        if lay["kind"] == "conv":
            f, c, kh, kw = lay["wshape"]
            pos = lay["out_hw"][0] * lay["out_hw"][1]
            flat = ck["params"][i]["w"].reshape(f, -1)
            live_cols = flat.any(axis=0)
            if alive is not None:
                live_cols &= np.repeat(alive, kh * kw)
            live_rows = flat.any(axis=1)
            conv_base += 2 * f * c * kh * kw * pos
            conv_kept += 2 * int(live_rows.sum()) * int(live_cols.sum()) * pos
            alive = live_rows
        elif lay["kind"] == "fc":
            out_f, in_f = lay["wshape"]
            c, h, w = lay["in_chw"]
            kept_in = in_f if alive is None else int(alive.sum()) * h * w
            fc_base += 2 * in_f * out_f
            fc_kept += 2 * kept_in * out_f
            alive = None
    return {"conv_base": conv_base, "conv_pruned": conv_kept,
            "total_base": conv_base + fc_base, "total_pruned": conv_kept + fc_kept}


def check_flops(counted: dict, summary: dict, bench: dict,
                conv_ratio: int | None):
    """Independent FLOPs equal the prune summary's and the bench report's."""
    got = {
        "summary total": (summary["flops_base"], summary["flops_pruned"]),
        "bench total": (bench["flops"]["total_base"], bench["flops"]["total_pruned"]),
        "bench conv": (bench["flops"]["conv_base"], bench["flops"]["conv_pruned"]),
    }
    want = {
        "summary total": (counted["total_base"], counted["total_pruned"]),
        "bench total": (counted["total_base"], counted["total_pruned"]),
        "bench conv": (counted["conv_base"], counted["conv_pruned"]),
    }
    for key in got:
        if tuple(got[key]) != want[key]:
            return False, f"{key}: program {got[key]}, counted {want[key]}"
    if conv_ratio is not None and counted["conv_base"] != conv_ratio * counted["conv_pruned"]:
        return False, f"conv FLOPs ratio is not exactly {conv_ratio}"
    return True, f"conv {counted['conv_base']}/{counted['conv_pruned']}"


def check_logits(ref: np.ndarray, got: np.ndarray):
    scale = max(1.0, float(np.abs(ref).max()))
    err = float(np.abs(np.asarray(got, dtype=np.float64) - ref).max())
    return err <= LOGIT_TOL * scale, f"max error {err:.3g} (limit {LOGIT_TOL * scale:.3g})"


def check_accuracy(ref: np.ndarray, labels: np.ndarray, floor: float):
    acc = float((ref.argmax(axis=1) == labels).mean())
    return acc >= floor, f"accuracy {acc:.4f} (floor {floor})"


def check_theorem(path: str):
    """Every continuation row not flagged as a basin jump shrinks |omega|."""
    with open(path, newline="") as f:
        rows = [r for r in csv.DictReader(f) if r["jumped"] == "0"]
    bad = [r for r in rows if not abs(float(r["omega1"])) < abs(float(r["omega0"]))]
    return bool(rows) and not bad, f"{len(rows) - len(bad)}/{len(rows)} rows shrink"


def self_tests(pruned: dict, kind: str, ratio: float, ref: np.ndarray,
               masked: np.ndarray, counted: dict, summary: dict, bench: dict,
               conv_ratio: int | None) -> dict:
    """Corrupt one output at a time; each check must then fail.

    Returns {name: True if the check caught the corruption}.
    """
    out = {}
    i = conv_layers(pruned)[-1]
    bad = {**pruned, "params": dict(pruned["params"])}
    w = bad["params"][i]["w"].copy()
    flat = w.reshape(w.shape[0], -1)
    g = min(zero_groups(pruned, i, kind))
    if kind == "row":
        flat[g, 0] = 1e-3
    else:
        flat[0, g] = 1e-3
    bad["params"][i] = {**bad["params"][i], "w": w}
    out["selftest_nonzero_group"] = not check_counts(bad, kind, ratio)[0]

    logits = np.array(masked, dtype=np.float64)
    logits[0, 0] += 10 * LOGIT_TOL * max(1.0, float(np.abs(ref).max()))
    out["selftest_perturbed_logit"] = not check_logits(ref, logits)[0]

    wrong = {**summary, "flops_pruned": summary["flops_pruned"] + 2}
    out["selftest_wrong_flops"] = not check_flops(counted, wrong, bench, conv_ratio)[0]
    return out
