"""Helpers shared by several test modules."""


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
