"""Child process of the benchmark, started from the root of a checkout.

    python3 perfbench/phases.py setup CONFIG SEED RESULT
    python3 perfbench/phases.py run CONFIG SEED OUT RESULT REPEATS \
        [--trace SPANS] COMMAND...

``setup`` times a cold start: the import, ``load_config``, ``load_dataset``
and ``build_network``. ``run`` drives the listed commands through the CLI
entry point ``increg.cli.main`` in this one process and records each
command's exit code and wall time, the whole sequence's wall time and the
process's peak resident memory. REPEATS, a JSON object such as
``{"retrain": 2}``, names short commands to run again afterwards, each into
a new directory, so that the caller can take the median of their times. With
``--trace`` the program's functions
are wrapped first, the spans are written to SPANS when the sequence ends,
and per-layer figures are derived from them. Results go to RESULT as JSON.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

sys.path.insert(0, os.path.join(os.getcwd(), "src"))


def setup(cfg_path: str, seed: int) -> dict:
    from increg.cli import load_dataset
    from increg.config import load_config
    from increg.network import build_network

    cfg = load_config(cfg_path)
    _train, _val, _test, shape, _means = load_dataset(cfg)
    build_network(cfg.arch_defs, shape, seed=seed)
    return {"setup_s": time.perf_counter() - T0}


# the input each repeatable command reads from the first run's outputs
REPEAT_INPUT = {"retrain": ("--checkpoint", "pruned.ckpt"),
                "report": ("--report", "prune_report.csv")}


def run(cfg_path: str, seed: int, out: str, repeats: dict[str, int],
        trace_path: str | None, commands: list[str]) -> dict:
    from increg import cli

    tracer = None
    if trace_path:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    def call(cmd: str, *extra: str, out: str = out) -> dict:
        t = time.perf_counter()
        try:
            rc = cli.main([cmd, "--config", cfg_path, "--seed", str(seed),
                           "--out", out, *extra])
        except Exception:  # the phase failed; the benchmark counts it
            traceback.print_exc()
            rc = -1
        return {"rc": rc, "s": time.perf_counter() - t}

    t = time.perf_counter()
    phases = {cmd: call(cmd) for cmd in commands}
    result = {
        "phases": phases,
        "pipeline_s": time.perf_counter() - t,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        from tracing import layer_metrics

        tracer.write(trace_path)
        with open(os.path.join(out, "prune_summary.json")) as f:
            prune_iters = json.load(f)["prune_iters"]
        result["layers"] = layer_metrics(tracer.spans, prune_iters)
    elif repeats:
        # each repeat writes into a new directory, as the first run did, since
        # overwriting a file costs a filesystem flush the first write does not
        result["samples"], result["repeat_rc"] = {}, []
        for cmd, n in repeats.items():
            flag, name = REPEAT_INPUT[cmd]
            extra = [call(cmd, flag, os.path.join(out, name),
                          out=os.path.join(out, f"{cmd}-{k}")) for k in range(n)]
            result["samples"][cmd] = [phases[cmd]["s"]] + [e["s"] for e in extra]
            result["repeat_rc"] += [(cmd, e["rc"]) for e in extra]
    return result


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        cfg_path, seed, result_path = argv[1], int(argv[2]), argv[3]
        result = setup(cfg_path, seed)
    else:
        cfg_path, seed, out, result_path = argv[1], int(argv[2]), argv[3], argv[4]
        repeats, rest = json.loads(argv[5]), argv[6:]
        trace_path = None
        if rest[:1] == ["--trace"]:
            trace_path, rest = rest[1], rest[2:]
        result = run(cfg_path, seed, out, repeats, trace_path, rest)
    with open(result_path, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
