"""Span tracing around the program's module boundaries, from outside it.

``Tracer.install`` wraps every public function of each ``increg`` module,
and a few methods, in a wrapper that records one span per call: name,
start, end (``perf_counter_ns``) and the index of the enclosing span. A
function imported by name into another module is replaced there as well,
since the importer holds its own reference. Generator functions get one
span per item drawn. Spans stay in memory until ``write``.

Three per-group scheduler helpers run about 1,648 times per pruning
iteration on the convnet column workload; wrapping them would cost more
than the work they do, so they are left alone and the scheduler's own
time is obtained by subtraction in ``layer_metrics``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time

MODULES = ("tensor", "network", "data", "scheduler", "report", "checkpoint",
           "compact", "config", "theorem", "cli")
UNWRAPPED = {"scheduler.update_avg_rank", "scheduler.update_lambda",
             "scheduler.delta_lambda"}


class Tracer:
    def __init__(self):
        self.spans: list = []          # (name, start_ns, end_ns, parent index)
        self._stack: list[int] = []

    def _begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append((name, 0, 0, self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        return idx

    def _end(self, idx: int, t0: int) -> None:
        t1 = time.perf_counter_ns()
        self._stack.pop()
        name, _, _, parent = self.spans[idx]
        self.spans[idx] = (name, t0, t1, parent)

    def wrap(self, fn, name: str, namer=None):
        """Wrap fn; ``namer(args)`` may refine the span name per call."""
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = self._begin(name)
                    t0 = time.perf_counter_ns()
                    try:
                        item = next(it)
                    except StopIteration:
                        self._end(idx, t0)
                        return
                    self._end(idx, t0)
                    yield item
            return gen

        @functools.wraps(fn)
        def call(*args, **kwargs):
            idx = self._begin(namer(args) if namer else name)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(idx, t0)
        return call

    def install(self) -> None:
        """Replace the program's functions by traced wrappers, everywhere bound."""
        mods = {m: importlib.import_module(f"increg.{m}") for m in MODULES}
        pkg = importlib.import_module("increg")
        compact, cli = mods["compact"], mods["cli"]

        def layer_kind(args):
            return args[0].layers[args[1]].kind

        namers = {
            "network.apply_layer": lambda a: f"network.fwd:{layer_kind(a)}",
            "network.layer_backward": lambda a: f"network.bwd:{layer_kind(a)}",
        }
        wrapped: dict[int, object] = {}
        for m, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                name = f"{m}.{attr}"
                if (not inspect.isfunction(obj) or obj.__module__ != mod.__name__
                        or attr.startswith("_") or name in UNWRAPPED):
                    continue
                wrapped[id(obj)] = self.wrap(obj, name, namers.get(name))
        # the CLI's own config loader is where config files are read
        wrapped[id(cli._load_config)] = self.wrap(cli._load_config, "config.load")
        for mod in (pkg, *mods.values()):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])
        for verb, fn in list(cli._COMMANDS.items()):
            cli._COMMANDS[verb] = wrapped.get(id(fn), fn)
        cn = compact.CompactNetwork
        cn.apply_layer = self.wrap(cn.apply_layer, "compact.fwd",
                                   lambda a: f"compact.fwd:{a[0].kinds[a[1]]}")
        cn.prepare_input = self.wrap(cn.prepare_input, "compact.prepare_input")
        cn.forward = self.wrap(cn.forward, "compact.forward")

    def write(self, path: str) -> None:
        """Write gzipped JSON: a name table plus one [name, start, end, parent] per span."""
        names: dict[str, int] = {}
        rows = []
        for name, t0, t1, parent in self.spans:
            rows.append([names.setdefault(name, len(names)), t0, t1, parent])
        with gzip.open(path, "wt") as f:
            json.dump({"clock": "perf_counter_ns", "names": list(names),
                       "spans": rows}, f, separators=(",", ":"))


def layer_metrics(spans: list, prune_iters: int) -> dict[str, float]:
    """Per-layer figures from one traced pipeline (see README for each)."""
    ctx_names = {"network.loss_and_grads", "scheduler.run_pruning"}
    ctx = []                          # nearest enclosing context span per span
    for i, (name, _, _, parent) in enumerate(spans):
        ctx.append(i if name in ctx_names else (ctx[parent] if parent >= 0 else -1))

    def ctx_name(i):
        return spans[ctx[i]][0] if ctx[i] >= 0 else None

    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    in_step: dict[str, float] = {}
    in_prune: dict[str, float] = {}
    prune_self_ms = 0.0
    for i, (name, t0, t1, parent) in enumerate(spans):
        ms = (t1 - t0) / 1e6
        total[name] = total.get(name, 0.0) + ms
        calls[name] = calls.get(name, 0) + 1
        owner = ctx_name(parent) if parent >= 0 else None
        if owner == "network.loss_and_grads":
            in_step[name] = in_step.get(name, 0.0) + ms
        if owner == "scheduler.run_pruning":
            in_prune[name] = in_prune.get(name, 0.0) + ms
        if name == "scheduler.run_pruning":
            prune_self_ms += ms
        elif parent >= 0 and spans[parent][0] == "scheduler.run_pruning" \
                and name.split(".")[0] in ("network", "data"):
            prune_self_ms -= ms

    steps = calls.get("network.loss_and_grads", 0)
    per_step = 1.0 / steps if steps else 0.0
    per_iter = 1.0 / prune_iters if prune_iters else 0.0
    passes = calls.get("compact.prepare_input", 0)
    out = {
        "tensor.im2col_ms": total.get("tensor.im2col_batch", 0.0),
        "tensor.im2col_calls": calls.get("tensor.im2col_batch", 0),
        "tensor.col2im_ms": total.get("tensor.col2im_batch", 0.0),
        "tensor.col2im_calls": calls.get("tensor.col2im_batch", 0),
    }
    for kind in ("conv", "relu", "maxpool", "fc"):
        out[f"network.{kind}_fwd_ms"] = in_step.get(f"network.fwd:{kind}", 0.0) * per_step
        out[f"network.{kind}_bwd_ms"] = in_step.get(f"network.bwd:{kind}", 0.0) * per_step
    out.update({
        "network.loss_ms": in_step.get("network.softmax_xent", 0.0) * per_step,
        "network.steps": steps,
        "network.sgd_step_ms": _mean(total, calls, "network.sgd_step"),
        "network.evaluate_ms": total.get("network.evaluate", 0.0),
        "data.batch_ms": _mean(total, calls, "data.batch_iter"),
        "data.load_dataset_ms": total.get("cli.load_dataset", 0.0),
        "scheduler.self_ms_per_iter": prune_self_ms * per_iter,
        "scheduler.refresh_l1_ms": in_prune.get("scheduler.refresh_l1", 0.0) * per_iter,
        "scheduler.rank_ms": (in_prune.get("scheduler.rank_groups", 0.0)
                              + in_prune.get("scheduler.final_rank", 0.0)) * per_iter,
        "scheduler.prune_converged_ms":
            in_prune.get("scheduler.prune_converged", 0.0) * per_iter,
        "scheduler.materialize_reg_ms":
            in_prune.get("scheduler.materialize_reg", 0.0) * per_iter,
        "report.write_ms": total.get("report.write_csv", 0.0)
                           + total.get("report.write_summary", 0.0),
        "report.read_ms": total.get("report.read_csv", 0.0),
        "checkpoint.save_ms": total.get("checkpoint.save_checkpoint", 0.0),
        "checkpoint.load_ms": total.get("checkpoint.load_checkpoint", 0.0),
        "config.load_ms": total.get("config.load", 0.0),
        "compact.plan_ms": total.get("compact.build_plan", 0.0),
        "compact.compact_ms": total.get("compact.compact", 0.0),
        "compact.conv_fwd_ms": total.get("compact.fwd:conv", 0.0) / passes if passes else 0.0,
        "theorem.suite_ms": total.get("theorem.theorem1_suite", 0.0),
        "trace.spans": len(spans),
    })
    return out


def _mean(total, calls, name):
    return total[name] / calls[name] if calls.get(name) else 0.0
