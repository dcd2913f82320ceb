"""Pruning-run logs: per-update-step group trajectories plus a JSON summary.

A report is a list of snapshots, one per (update step, layer): the layer's
L1-norm, current regularization factor, instantaneous and running-average
rank, and pruned flag, each a vector indexed by group id. Snapshots are
strictly increasing in (step, layer). The CSV holds one row per (update
step, layer, group), in the same order, so downstream plotting can stream
it; :func:`read_csv` splits the rows back into snapshots.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

import numpy as np

ROW_FIELDS = ("step", "layer", "group_id", "l1", "lambda_g", "inst_rank", "avg_rank", "pruned")
_DTYPE = np.dtype([(name, np.float64 if name in ("l1", "lambda_g", "avg_rank") else np.int64)
                   for name in ROW_FIELDS])


class ReportError(ValueError):
    """Report rows or files violate the documented schema."""


class Snapshot(NamedTuple):
    """One layer at one update step; each vector has one entry per group id."""

    step: int
    layer: int
    l1: np.ndarray
    lambda_g: np.ndarray
    inst_rank: np.ndarray
    avg_rank: np.ndarray
    pruned: np.ndarray


@dataclass
class PruneReport:
    snapshots: list[Snapshot] = field(default_factory=list)
    summary: dict = field(default_factory=dict)


def validate_report(report: PruneReport) -> None:
    """Check (step, layer) strictly increasing, one group count per layer,
    no negative l1 or lambda_g, and pruned flags 0 or 1."""
    prev = None
    sizes: dict[int, int] = {}
    for n, snap in enumerate(report.snapshots):
        key = (int(snap.step), int(snap.layer))
        if prev is not None and key <= prev:
            raise ReportError(f"snapshot {n}: (step, layer) {key} does not increase over {prev}")
        prev = key
        size = sizes.setdefault(key[1], len(snap.l1))
        if any(len(v) != size for v in snap[2:]):
            raise ReportError(f"snapshot {n}: layer {key[1]} needs {size} entries per vector")
        if (snap.l1 < 0).any() or (snap.lambda_g < 0).any():
            raise ReportError(f"snapshot {n}: negative l1 or lambda_g")
        if ((snap.pruned != 0) & (snap.pruned != 1)).any():
            raise ReportError(f"snapshot {n}: pruned flag must be 0/1")


def write_csv(report: PruneReport, path) -> None:
    validate_report(report)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(ROW_FIELDS)
        for s in report.snapshots:
            n = len(s.l1)
            w.writerows(zip(repeat(s.step, n), repeat(s.layer, n), range(n),
                            s.l1.tolist(), s.lambda_g.tolist(), s.inst_rank.tolist(),
                            s.avg_rank.tolist(), s.pruned.astype(int).tolist()))


def read_csv(path) -> PruneReport:
    """Read a CSV written by :func:`write_csv`, one snapshot per run of rows
    sharing (step, layer); ReportError if it is unreadable or malformed."""
    try:
        f = open(path, errors="replace")  # a binary file fails the header check
    except OSError as e:
        raise ReportError(f"cannot read {path}: {e.strerror}") from e
    with f:
        header = f.readline().rstrip("\n")
        if header.split(",") != list(ROW_FIELDS):
            raise ReportError(f"unexpected CSV header in {path}: {header[:80]!r}")
        try:
            with warnings.catch_warnings():
                # a header-only file is an empty report
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                step, layer, gid, *vectors = np.loadtxt(
                    f, delimiter=",", dtype=_DTYPE, ndmin=1, unpack=True)
        except ValueError as e:
            raise ReportError(f"malformed CSV row in {path}: {e}") from e
    new = np.ones(len(step), dtype=bool)
    new[1:] = (step[1:] != step[:-1]) | (layer[1:] != layer[:-1])
    bounds = np.append(np.flatnonzero(new), len(step)).tolist()
    snapshots = []
    for a, b in zip(bounds, bounds[1:]):
        if not np.array_equal(gid[a:b], np.arange(b - a)):
            raise ReportError(f"{path}: step {step[a]}, layer {layer[a]} does not "
                              f"list group ids 0..{b - a - 1} in order")
        snapshots.append(Snapshot(int(step[a]), int(layer[a]), *(v[a:b] for v in vectors)))
    report = PruneReport(snapshots=snapshots)
    validate_report(report)
    return report


def write_summary(report: PruneReport, path) -> None:
    with open(path, "w") as f:
        json.dump(report.summary, f, sort_keys=True, indent=2)
        f.write("\n")
