"""Helpers shared by several test modules."""

import inspect

from increg.network import evaluate


def report_rows(report):
    """The report's snapshots flattened to one
    (step, layer, group_id, l1, lambda_g, inst_rank, avg_rank, pruned)
    tuple of Python scalars per group, in CSV row order."""
    rows = []
    for s in report.snapshots:
        rows.extend(zip([s.step] * len(s.l1), [s.layer] * len(s.l1), range(len(s.l1)),
                        s.l1.tolist(), s.lambda_g.tolist(), s.inst_rank.tolist(),
                        s.avg_rank.tolist(), s.pruned.astype(int).tolist()))
    return rows


def spy_evaluate(monkeypatch, module, tag, seen):
    """Patch ``module.evaluate`` to append ``(tag, batch_size)`` to ``seen``
    at each call; batch_size is None where the caller left the default."""
    def spy(*args, **kw):
        bound = inspect.signature(evaluate).bind(*args, **kw)
        seen.append((tag, bound.arguments.get("batch_size")))
        return evaluate(*args, **kw)
    monkeypatch.setattr(module, "evaluate", spy)
