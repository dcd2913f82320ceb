"""Pruning-run logs: per-update-step group trajectories plus a JSON summary.

The CSV holds one row per (update step, layer, group): its L1-norm, current
regularization factor, instantaneous and running-average rank, and pruned
flag. Rows are strictly increasing in (step, layer, group_id) so downstream
plotting can stream them.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

ROW_FIELDS = ("step", "layer", "group_id", "l1", "lambda_g", "inst_rank", "avg_rank", "pruned")


class ReportError(ValueError):
    """Report rows or files violate the documented schema."""


@dataclass
class PruneReport:
    rows: list[tuple] = field(default_factory=list)
    summary: dict = field(default_factory=dict)


def validate_report(report: PruneReport) -> None:
    """Check row schema and the strict (step, layer, group_id) ordering."""
    prev = None
    for n, row in enumerate(report.rows):
        if len(row) != len(ROW_FIELDS):
            raise ReportError(f"row {n} has {len(row)} fields, expected {len(ROW_FIELDS)}")
        step, layer, gid, l1, lam, inst, avg, pruned = row
        key = (int(step), int(layer), int(gid))
        if prev is not None and key <= prev:
            raise ReportError(f"row {n}: key {key} does not increase over {prev}")
        prev = key
        if l1 < 0 or lam < 0:
            raise ReportError(f"row {n}: negative l1 or lambda_g")
        if pruned not in (0, 1, True, False):
            raise ReportError(f"row {n}: pruned flag must be 0/1")


def write_csv(report: PruneReport, path) -> None:
    validate_report(report)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(ROW_FIELDS)
        for step, layer, gid, l1, lam, inst, avg, pruned in report.rows:
            w.writerow([step, layer, gid, repr(float(l1)), repr(float(lam)),
                        inst, repr(float(avg)), int(pruned)])


def read_csv(path) -> PruneReport:
    rows = []
    with open(path, newline="") as f:
        r = csv.reader(f)
        header = next(r, None)
        if header != list(ROW_FIELDS):
            raise ReportError(f"unexpected CSV header in {path}: {header}")
        for line in r:
            if len(line) != len(ROW_FIELDS):
                raise ReportError(f"malformed CSV row in {path}: {line}")
            step, layer, gid, l1, lam, inst, avg, pruned = line
            rows.append((int(step), int(layer), int(gid), float(l1), float(lam),
                         int(inst), float(avg), int(pruned)))
    report = PruneReport(rows=rows)
    validate_report(report)
    return report


def write_summary(report: PruneReport, path) -> None:
    with open(path, "w") as f:
        json.dump(report.summary, f, sort_keys=True, indent=2)
        f.write("\n")
