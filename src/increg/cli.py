"""Command-line entry points.

Verbs: train, prune, retrain, bench, verify-theorem, report, print-config.
Every run is deterministic under a fixed config and seed. Exit codes:
0 success, 1 failed theorem verification, 2 validation error, 3 pruning did
not reach its targets, 4 training diverged (a NaN or infinite loss in train,
prune or retrain; nothing is written for that phase). numpy's floating-point
warnings are silenced: a non-finite value surfaces as exit 4 or 2 instead.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from . import checkpoint as ckpt
from . import config as cfgmod
from . import data as datamod
from . import report as reportmod
from . import scheduler as sched
from . import theorem
from .compact import (
    PlanError,
    bench,
    build_plan,
    compact,
    flops_totals,
    render_table,
    write_bench_report,
)
from .data import load_dataset
from .network import TrainingDiverged, build_network, evaluate, train_network
from .tensor import GeometryError, ShapeError

VALIDATION_ERRORS = (
    cfgmod.ConfigError,
    datamod.DatasetError,
    sched.ScheduleError,
    ckpt.CheckpointError,
    PlanError,
    reportmod.ReportError,
    GeometryError,
    ShapeError,
)


def _load_config(args) -> cfgmod.RunConfig:
    overrides = {k: v for k, v in (("seed", args.seed), ("out", args.out))
                 if v is not None}
    return cfgmod.load_config(args.config or None, overrides)


def _build_net(cfg: cfgmod.RunConfig, input_shape, means):
    try:
        net = build_network(cfg.arch_defs, input_shape, seed=cfg.seed)
    except (IndexError, TypeError, ValueError) as e:
        raise cfgmod.ConfigError(f"architecture: {e}") from e
    net.meta["channel_means"] = [float(m) for m in means]
    return net


def _load_pruned(path):
    """A pruned checkpoint's network, its saved scheduler state and the
    layer groups rebuilt from that state."""
    net, scheduler_meta = ckpt.load_checkpoint(path)
    if scheduler_meta is None:
        raise ckpt.CheckpointError(f"{path} carries no pruning state")
    return net, scheduler_meta, sched.groups_from_meta(net, scheduler_meta)


def _write_log(rows: list[dict], path) -> None:
    fields = ["iteration", "epoch", "lr", "train_loss", "val_accuracy", "val_loss"]
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=fields)
        w.writeheader()
        for r in rows:
            w.writerow({k: repr(v) if isinstance(v, float) else v
                        for k, v in r.items()})


def _fit_and_save(cfg, net, train, val, tcfg, seed, verb, ckpt_name,
                  scheduler=None, masks=None, bias_masks=None) -> int:
    """Run train_network with a per-epoch log, then write ``<verb>_log.csv``
    and the checkpoint; shared by train and retrain."""
    rows: list[dict] = []
    train_network(net, train[0], train[1], tcfg, seed, val=val,
                  log_rows=rows, masks=masks, bias_masks=bias_masks, phase=verb)
    os.makedirs(cfg.out, exist_ok=True)
    _write_log(rows, os.path.join(cfg.out, f"{verb}_log.csv"))
    path = os.path.join(cfg.out, ckpt_name)
    ckpt.save_checkpoint(path, net, scheduler=scheduler)
    if len(val[0]):
        acc, _ = evaluate(net, val[0], val[1])
        print(f"{verb}ed {tcfg.max_iters} iterations, val accuracy {acc:.4f}")
    print(f"checkpoint: {path}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args)
    train, val, _test, input_shape, means = load_dataset(cfg)
    net = _build_net(cfg, input_shape, means)
    return _fit_and_save(cfg, net, train, val, cfg.train, cfg.seed,
                         "train", "baseline.ckpt")


def cmd_prune(args) -> int:
    cfg = _load_config(args)
    train, val, _test, input_shape, means = load_dataset(cfg)
    in_path = args.checkpoint or os.path.join(cfg.out, "baseline.ckpt")
    net, _ = ckpt.load_checkpoint(in_path)
    os.makedirs(cfg.out, exist_ok=True)
    report_path = os.path.join(cfg.out, "prune_report.csv")
    summary_path = os.path.join(cfg.out, "prune_summary.json")
    try:
        net, rep, groups = sched.run_pruning(
            net, train[0], train[1], cfg.prune_train, cfg.schedules,
            seed=cfg.seed, eval_data=val if len(val[0]) else None,
            report_stride=cfg.report_stride,
        )
    except sched.PruneDidNotConverge as e:
        reportmod.write_csv(e.report, report_path)
        reportmod.write_summary(e.report, summary_path)
        print(f"pruning did not converge: {e}", file=sys.stderr)
        return 3
    flops = flops_totals(net, compact(net, build_plan(net, groups)))
    rep.summary["flops_base"] = flops["total_base"]
    rep.summary["flops_pruned"] = flops["total_pruned"]
    rep.summary["flops_ratio"] = flops["ratio"]
    reportmod.write_csv(rep, report_path)
    reportmod.write_summary(rep, summary_path)
    out_path = os.path.join(cfg.out, "pruned.ckpt")
    ckpt.save_checkpoint(out_path, net, scheduler=sched.groups_to_meta(groups))
    for lay in rep.summary["layers"]:
        print(f"layer {lay['layer']}: pruned {lay['pruned']}/{lay['n_groups']} "
              f"{lay['kind']} groups (target {lay['target']})")
    print(f"FLOPs ratio {flops['ratio']:.4f}x; checkpoint: {out_path}")
    return 0


def cmd_retrain(args) -> int:
    cfg = _load_config(args)
    train, val, _test, _shape, _means = load_dataset(cfg)
    net, scheduler_meta, groups = _load_pruned(
        args.checkpoint or os.path.join(cfg.out, "pruned.ckpt"))
    _, masks, bias_masks = sched.materialize_reg(net, groups)
    return _fit_and_save(cfg, net, train, val, cfg.retrain, cfg.seed + 1,
                         "retrain", "retrained.ckpt", scheduler=scheduler_meta,
                         masks=masks, bias_masks=bias_masks)


def cmd_bench(args) -> int:
    cfg = _load_config(args)
    pruned, _, groups = _load_pruned(args.pruned or os.path.join(cfg.out, "pruned.ckpt"))
    rep = bench(pruned, compact(pruned, build_plan(pruned, groups)),
                **cfg.bench, seed=cfg.seed)
    os.makedirs(cfg.out, exist_ok=True)
    out_path = os.path.join(cfg.out, "bench.json")
    write_bench_report(rep, out_path)
    print(render_table(rep))
    print(f"report: {out_path}")
    return 0


def cmd_verify_theorem(args) -> int:
    cfg = _load_config(args)
    passed, rows = theorem.theorem1_suite(deltas=(1e-3, 1e-2, 1e-1))
    os.makedirs(cfg.out, exist_ok=True)
    out_path = os.path.join(cfg.out, "theorem_continuation.csv")
    theorem.write_continuation_csv(rows, out_path)
    by_obj: dict[str, list] = {}
    for r in rows:
        by_obj.setdefault(r.objective, []).append(r)
    for name, rs in by_obj.items():
        ok = sum(r.shrank for r in rs if not r.jumped)
        considered = sum(not r.jumped for r in rs)
        jumped = sum(r.jumped for r in rs)
        print(f"{name}: {ok}/{considered} shrink checks passed"
              + (f", {jumped} basin jumps flagged" if jumped else ""))
    print(f"continuation data: {out_path}")
    if not passed:
        print("theorem verification FAILED", file=sys.stderr)
        return 1
    print("theorem verification passed")
    return 0


_GNUPLOT = """# L1-norm trajectories per group (one file per layer)
set datafile separator ','
set key off
set xlabel 'iteration'
set ylabel 'group L1-norm'
{plots}
pause -1
"""


def cmd_report(args) -> int:
    cfg = _load_config(args)
    in_path = args.report or os.path.join(cfg.out, "prune_report.csv")
    rep = reportmod.read_csv(in_path)
    os.makedirs(cfg.out, exist_ok=True)
    by_layer: dict[int, list] = {}
    for snap in rep.snapshots:
        by_layer.setdefault(snap.layer, []).append(snap)
    plots = []
    for layer, snaps in sorted(by_layer.items()):
        n = len(snaps[0].l1)
        path = os.path.join(cfg.out, f"trajectory_layer{layer}.csv")
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["step"] + [f"group{g}" for g in range(n)])
            w.writerows([s.step, *s.l1.tolist()] for s in snaps)
        plots.append(
            f"plot for [c=2:{n + 1}] 'trajectory_layer{layer}.csv' "
            f"using 1:c with lines title columnhead"
        )
        print(f"layer {layer}: {n} groups over {len(snaps)} steps -> {path}")
    gp_path = os.path.join(cfg.out, "plot_l1.gp")
    with open(gp_path, "w") as f:
        f.write(_GNUPLOT.format(plots="\n".join(plots)))
    print(f"gnuplot script: {gp_path}")
    return 0


def cmd_print_config(args) -> int:
    cfg = _load_config(args)
    sys.stdout.write(cfgmod.dump_config(cfg))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="increg",
        description="Structured pruning by incremental per-group regularization",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", metavar="PATH", help="YAML config file")
        sp.add_argument("--seed", type=int, metavar="N", help="override the seed")
        sp.add_argument("--out", metavar="DIR", help="override the output directory")

    common(sub.add_parser("train", help="train a baseline model"))
    sp = sub.add_parser("prune", help="prune a trained model to the target ratios")
    common(sp)
    sp.add_argument("--checkpoint", metavar="PATH", help="baseline checkpoint")
    sp = sub.add_parser("retrain", help="fine-tune a pruned model with frozen masks")
    common(sp)
    sp.add_argument("--checkpoint", metavar="PATH", help="pruned checkpoint")
    sp = sub.add_parser("bench", help="compact a pruned model and time it")
    common(sp)
    sp.add_argument("--pruned", metavar="PATH", help="pruned checkpoint")
    common(sub.add_parser("verify-theorem", help="run the shrinkage test suite"))
    sp = sub.add_parser("report", help="emit trajectory CSVs and a gnuplot script")
    common(sp)
    sp.add_argument("--report", metavar="PATH", help="prune report CSV")
    common(sub.add_parser("print-config", help="print the merged configuration"))
    return p


_COMMANDS = {
    "train": cmd_train,
    "prune": cmd_prune,
    "retrain": cmd_retrain,
    "bench": cmd_bench,
    "verify-theorem": cmd_verify_theorem,
    "report": cmd_report,
    "print-config": cmd_print_config,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](args)
    except VALIDATION_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except sched.PruneDidNotConverge as e:
        print(f"pruning did not converge: {e}", file=sys.stderr)
        return 3
    except TrainingDiverged as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
