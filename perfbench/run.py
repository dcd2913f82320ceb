"""Pipeline benchmark for increg: phase times, compacted inference, memory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. One run writes seeded class-blob IDX
inputs and then, for S seconds, repeats whole rounds: two cold set-up
probes, one child process that drives ``train -> prune -> retrain ->
bench -> report`` (plus ``verify-theorem`` on toy_column) through
``increg.cli.main`` into a fresh directory, and a slice of alternating
masked and compacted forwards. Every metric is a median over the rounds,
so that each samples the whole run rather than one stretch of it. The
first round's outputs are checked against the independent computations
in ``checks.py``; every later round must write the same checkpoints.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``, the end-to-end metrics with
``--trace 0`` and the per-layer metrics from one untraced and one traced
round with ``--trace 1``. The line before it carries the run's metadata.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import os
import sys

THREADS = "1"
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = THREADS

import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import yaml  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from inputs import write_dataset  # noqa: E402

PIPELINE = ["train", "prune", "retrain", "bench", "report"]
SETUP_PER_ROUND = 2
# short phases are run this many more times in each round
REPEATS = {"retrain": 1, "report": 4}
INFER_BATCH = 32
INFER_SLICE_S = 1.0
MIN_ROUNDS, MAX_ROUNDS = 2, 12
CHILD_TIMEOUT = 120


def _convnet(kind: str, conv_ratio: int | None) -> dict:
    return {
        # 16x16 rather than the preset's 32x32 keeps one pipeline near 10 s,
        # so that a run holds several rounds; the group counts do not depend
        # on the image size
        "data": {"n_train": 2304, "n_test": 512, "classes": 10, "shape": (3, 16, 16),
                 "coarse": 8, "noise": 1.0},
        # the preset's default base_lr 0.05 sends training on these inputs to
        # chance; 0.005 learns. With speed 2.0 and epsilon 0.1 the 50% prune
        # converged by iteration 278 (column) and 214 (row) on every seed
        # tried, and the budget of 450 leaves a margin of 1.6x over the slowest
        "config": {
            "architecture": {"preset": "convnet"},
            "train": {"base_lr": 0.005, "max_iters": 120},
            "prune": {"ratio": 0.5, "kind": kind, "speed": 2.0, "epsilon": 0.1,
                      "update_interval": 1, "max_iters": 450, "report_stride": 10},
            "retrain": {"iters": 64, "base_lr": 0.002},
        },
        "commands": PIPELINE,
        "accuracy_floor": 0.5,
        "conv_ratio": conv_ratio,       # exact conv FLOPs cut, where one is due
    }


WORKLOADS = {
    # the README quick-start: toy preset, 50% columns, 2000/8000/500 iterations
    "toy_column": {
        "data": {"n_train": 640, "n_test": 128, "classes": 4, "shape": (1, 8, 8),
                 "coarse": 8, "noise": 0.5},
        "config": {"prune": {"ratio": 0.5, "kind": "column"}},
        "commands": PIPELINE + ["verify-theorem"],
        "accuracy_floor": 0.6,
        "conv_ratio": None,
    },
    "convnet_column": _convnet("column", 2),
    "convnet_row": _convnet("row", None),
}


class Ops:
    """Operations attempted and failed, and whether every check held."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.log: list[str] = []

    def phase(self, name: str, rc: int) -> None:
        self.attempted += 1
        if rc != 0:
            self.failed += 1
            self.log.append(f"phase {name}: exit {rc}")

    def check(self, name: str, fn, *args) -> None:
        self.attempted += 1
        try:
            ok, detail = fn(*args)
        except Exception as e:  # a check that cannot run counts as failed
            self.failed += 1
            self.log.append(f"check {name}: error {e!r}")
            return
        self.correct &= bool(ok)
        self.log.append(f"check {name}: {'ok' if ok else 'WRONG'}: {detail}")


def child(args: list[str], log_path: str, result_path: str) -> dict:
    with open(log_path, "a") as log:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "phases.py"), *args],
                              stdout=log, stderr=subprocess.STDOUT,
                              timeout=CHILD_TIMEOUT, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[0]} exited {proc.returncode}; see {log_path}")
    with open(result_path) as f:
        return json.load(f)


def pipeline(cfg_path: str, seed: int, out: str, commands: list[str], work: str,
             repeats: dict, trace: str | None = None) -> dict:
    result_path = os.path.join(work, f"result-{os.path.basename(out)}.json")
    args = ["run", cfg_path, str(seed), out, result_path, json.dumps(repeats)]
    if trace:
        args += ["--trace", trace]
    return child(args + commands, os.path.join(work, "phases.log"), result_path)


def program_nets(ck_path: str):
    """The program's masked and compacted forwards of a pruned checkpoint."""
    from increg.checkpoint import load_checkpoint
    from increg.compact import build_plan, compact
    from increg.network import forward
    from increg.scheduler import groups_from_meta

    net, meta = load_checkpoint(ck_path)
    cnet = compact(net, build_plan(net, groups_from_meta(net, meta)))
    return (lambda x: forward(net, x)[0]), cnet.forward


def infer_slice(nets, x: np.ndarray, seconds: float, samples: list[list[float]]):
    """Time alternating forwards of each net for ``seconds``, after 5
    warm-up calls each, appending ms per call to its list in ``samples``."""
    for _ in range(5):
        for fn in nets:
            fn(x)
    end = time.perf_counter() + seconds
    n = 0
    while time.perf_counter() < end or n < 10:
        for fn, sink in zip(nets, samples):
            t = time.perf_counter()
            fn(x)
            sink.append((time.perf_counter() - t) * 1e3)
        n += 1


def run_checks(ops: Ops, wl: dict, out: str, test_x, test_y):
    """Run every check; returns the program's forwards and the normalized test set."""
    kind = wl["config"]["prune"]["kind"]
    ratio = wl["config"]["prune"]["ratio"]
    pruned = checks.read_checkpoint(os.path.join(out, "pruned.ckpt"))
    retrained_path = os.path.join(out, "retrained.ckpt")
    retrained = checks.read_checkpoint(retrained_path)
    with open(os.path.join(out, "prune_summary.json")) as f:
        summary = json.load(f)
    with open(os.path.join(out, "bench.json")) as f:
        bench = json.load(f)
    x = checks.normalize(retrained, test_x)
    ref = np.concatenate([checks.reference_forward(retrained, x[i:i + 128])
                          for i in range(0, len(x), 128)])
    nets = program_nets(retrained_path)
    masked, compacted = (np.concatenate([fn(x[i:i + 128]) for i in range(0, len(x), 128)])
                         for fn in nets)
    counted = checks.count_flops(pruned)

    ops.check("counts_pruned", checks.check_counts, pruned, kind, ratio)
    ops.check("counts_retrained", checks.check_counts, retrained, kind, ratio)
    ops.check("zero_kept", checks.check_zero_kept, pruned, retrained, kind)
    ops.check("flops", checks.check_flops, counted, summary, bench, wl["conv_ratio"])
    ops.check("masked_logits", checks.check_logits, ref, masked)
    ops.check("compact_logits", checks.check_logits, ref, compacted)
    ops.check("accuracy", checks.check_accuracy, ref, test_y, wl["accuracy_floor"])
    if "verify-theorem" in wl["commands"]:
        ops.check("theorem", checks.check_theorem,
                  os.path.join(out, "theorem_continuation.csv"))
    caught = checks.self_tests(pruned, kind, ratio, ref, masked, counted, summary,
                               bench, wl["conv_ratio"])
    for name, ok in caught.items():
        ops.check(name, lambda ok=ok: (ok, "corruption detected" if ok else "MISSED"))
    return nets, x


def metadata(args, out: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digests = {}
    for name in ("baseline.ckpt", "pruned.ckpt", "retrained.ckpt"):
        path = os.path.join(out, name)
        if os.path.exists(path):
            digests[name] = checks.sha256(path)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": int(THREADS)},
        "numpy": np.__version__, "python": platform.python_version(),
        "commit": git_commit(), "checkpoints_sha256": digests,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving it; None if absent."""
    try:
        with open(os.path.join(".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref)) as f:
                return f.read().strip()
        with open(os.path.join(".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def per_layer(traced: dict, untraced: dict, out: str, spec: list[dict]) -> dict:
    layers = dict(traced["layers"])
    with open(os.path.join(out, "prune_summary.json")) as f:
        summary = json.load(f)
    with open(os.path.join(out, "bench.json")) as f:
        flops = json.load(f)["flops"]
    report = os.path.join(out, "prune_report.csv")
    with open(report, "rb") as f:
        rows = sum(1 for _ in f) - 1
    layers.update({
        "scheduler.groups": sum(lay["n_groups"] for lay in summary["layers"]),
        "scheduler.converged_iteration": summary["converged_iteration"],
        "report.rows": rows,
        "report.csv_bytes": os.path.getsize(report),
        "checkpoint.bytes": sum(os.path.getsize(os.path.join(out, n)) for n in
                                ("baseline.ckpt", "pruned.ckpt", "retrained.ckpt")),
        "compact.conv_flops_base": flops["conv_base"],
        "compact.conv_flops_kept": flops["conv_pruned"],
        "trace.overhead_s": traced["pipeline_s"] - untraced["pipeline_s"],
    })
    return {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in spec}


class PipelineFailed(Exception):
    """A command of the pipeline exited non-zero: (work directory, op log)."""


def measure(args, wl: dict, work: str, ops: Ops, run_round, data: dict):
    """Repeat whole rounds for ``args.seconds``: set-up probes, one pipeline
    child and one inference slice each. Checks the first round's outputs,
    and that every later round writes the same checkpoints."""
    cfg_path = os.path.join(work, "config.yaml")
    deadline = time.perf_counter() + args.seconds
    rounds: list[dict] = []
    setup: list[float] = []
    infer: list[list[float]] = [[], []]
    while True:
        t = time.perf_counter()
        k = len(rounds)
        for j in range(SETUP_PER_ROUND):
            res_path = os.path.join(work, f"setup-{k}-{j}.json")
            setup.append(child(["setup", cfg_path, str(args.seed), res_path],
                               os.path.join(work, "setup.log"), res_path)["setup_s"])
        rounds.append(run_round(k, REPEATS))
        out = os.path.join(work, f"round-{k}")
        if k == 0:
            nets, test_x = run_checks(ops, wl, out, data["test_images"],
                                      data["test_labels"])
            meta = metadata(args, out)
        else:
            def same_outputs(out=out):
                again = metadata(args, out)["checkpoints_sha256"]
                return (again == meta["checkpoints_sha256"],
                        "writes the same checkpoints as round 0")
            ops.check(f"round-{k}_same_outputs", same_outputs)
            shutil.rmtree(out, ignore_errors=True)
        infer_slice(nets, test_x[:INFER_BATCH], INFER_SLICE_S, infer)
        took = time.perf_counter() - t
        if len(rounds) >= MAX_ROUNDS or (len(rounds) >= MIN_ROUNDS
                                         and time.perf_counter() + took > deadline):
            return rounds, setup, meta, infer


def end_to_end(rounds: list[dict], setup: list[float], infer: list[list[float]],
               spec: list[dict]) -> dict:
    """Each metric is the median over every sample the rounds took of it."""
    med = statistics.median

    def phase(cmd):
        return med(r["phases"][cmd]["s"] for r in rounds)

    def pooled(cmd):
        return med(s for r in rounds for s in r["samples"][cmd])

    values = {
        "setup_s": med(setup),
        "train_s": phase("train"), "prune_s": phase("prune"),
        "retrain_s": pooled("retrain"), "report_s": pooled("report"),
        "pipeline_s": med(r["pipeline_s"] for r in rounds),
        "infer_masked_ms": med(infer[0]), "infer_compact_ms": med(infer[1]),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in rounds),
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join("src", "increg", "cli.py")):
        print("error: run from the root of an increg checkout (src/increg missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wl = WORKLOADS[args.workload]

    work = os.path.join(".perfbench_run", f"{args.workload}-seed{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    data = write_dataset(os.path.join(work, "data"), args.seed, **wl["data"])
    cfg = {"dataset": {"kind": "idx", **data["paths"]}, **wl["config"]}
    cfg_path = os.path.join(work, "config.yaml")
    with open(cfg_path, "w") as f:
        yaml.safe_dump(cfg, f)
    ops = Ops()

    def run_round(k: int, repeats: dict, trace: str | None = None) -> dict:
        name = "traced" if trace else f"round-{k}"
        res = pipeline(cfg_path, args.seed, os.path.join(work, name), wl["commands"],
                       work, repeats, trace)
        for cmd, ph in res["phases"].items():
            ops.phase(f"{name} {cmd}", ph["rc"])
        for cmd, rc in res.get("repeat_rc", []):
            ops.phase(f"{name} {cmd} (repeat)", rc)
        if ops.failed:
            raise PipelineFailed(work, ops.log)
        return res

    out = os.path.join(work, "round-0")
    try:
        if args.trace:
            rounds = [run_round(0, {})]
            os.makedirs(".perfbench_run/traces", exist_ok=True)
            spans = os.path.join(".perfbench_run", "traces",
                                 f"{args.workload}-seed{args.seed}.json.gz")
            traced = run_round(0, {}, trace=spans)
            run_checks(ops, wl, out, data["test_images"], data["test_labels"])
            meta = metadata(args, out)
            traced_out = os.path.join(work, "traced")

            def same_outputs():
                again = metadata(args, traced_out)["checkpoints_sha256"]
                return (again == meta["checkpoints_sha256"],
                        "traced run writes the same checkpoints")
            ops.check("trace_same_outputs", same_outputs)
            metrics = per_layer(traced, rounds[0], traced_out, spec["per_layer"])
            setup = []
        else:
            rounds, setup, meta, infer = measure(args, wl, work, ops, run_round, data)
            metrics = end_to_end(rounds, setup, infer, spec["end_to_end"])
    except PipelineFailed as e:
        print(f"error: the pipeline failed, no metrics; see {e.args[0]}", file=sys.stderr)
        print("\n".join(e.args[1]), file=sys.stderr)
        return 1

    meta["rounds"] = [{"pipeline_s": r["pipeline_s"],
                       "phases_s": {c: ph["s"] for c, ph in r["phases"].items()}}
                      for r in rounds]
    meta["setup_probes_s"] = setup
    meta["ops"] = ops.log
    os.makedirs(".perfbench_run/results", exist_ok=True)
    result = {"correct": ops.correct, "attempted": ops.attempted,
              "failed": ops.failed, "metrics": metrics}
    with open(os.path.join(".perfbench_run", "results",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as f:
        json.dump({"meta": meta, "result": result}, f, indent=1)
    if ops.failed == 0 and ops.correct:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
