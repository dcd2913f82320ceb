"""Trajectory report validation and exact CSV round trips."""

import json

import numpy as np
import pytest

from helpers import report_rows
from increg.report import (
    PruneReport,
    ReportError,
    Snapshot,
    read_csv,
    validate_report,
    write_csv,
    write_summary,
)


def snap(step, layer, l1, lam, inst, avg, pruned):
    return Snapshot(step, layer, np.array(l1, float), np.array(lam, float),
                    np.array(inst), np.array(avg, float), np.array(pruned))


def make_report():
    snapshots = [
        snap(0, 0, [1.5, 0.5], [0.0, 0.002], [1, 0], [1.0, 0.0], [0, 0]),
        snap(0, 3, [2.25], [0.0], [0], [0.0], [0]),
        snap(10, 0, [1.4000001, 0.0], [0.0, 0.1], [1, 0], [1.0, 0.0], [0, 1]),
        snap(10, 3, [2.2], [0.0], [0], [0.0], [0]),
    ]
    summary = {"converged_iteration": 10, "layers": [
        {"layer": 0, "n_groups": 2, "target": 1, "pruned": 1}]}
    return PruneReport(snapshots=snapshots, summary=summary)


class TestValidate:
    def test_accepts_well_formed(self):
        validate_report(make_report())

    def test_rejects_unsorted_rows(self):
        rep = make_report()
        rep.snapshots[0], rep.snapshots[1] = rep.snapshots[1], rep.snapshots[0]
        with pytest.raises(ReportError):
            validate_report(rep)

    def test_rejects_negative_l1(self):
        rep = make_report()
        rep.snapshots[1] = snap(0, 3, [-1.0], [0.0], [0], [0.0], [0])
        with pytest.raises(ReportError):
            validate_report(rep)

    def test_rejects_negative_lambda(self):
        rep = make_report()
        rep.snapshots[1] = snap(0, 3, [1.0], [-0.001], [0], [0.0], [0])
        with pytest.raises(ReportError):
            validate_report(rep)

    def test_rejects_bad_pruned_flag(self):
        rep = make_report()
        rep.snapshots[1] = snap(0, 3, [1.0], [0.0], [0], [0.0], [2])
        with pytest.raises(ReportError):
            validate_report(rep)

    def test_rejects_changed_group_count(self):
        rep = make_report()
        rep.snapshots[3] = snap(10, 3, [2.2, 1.0], [0.0, 0.0], [1, 0], [0.0, 1.0], [0, 0])
        with pytest.raises(ReportError, match="layer 3"):
            validate_report(rep)


class TestCsv:
    def test_round_trip_exact(self, tmp_path):
        rep = make_report()
        p = tmp_path / "r.csv"
        write_csv(rep, p)
        back = read_csv(p)
        assert report_rows(back) == report_rows(rep)

    def test_floats_survive_exactly(self, tmp_path):
        # repr round-trips any float, including awkward ones
        rows = [(0, 0, 0, 0.1 + 0.2, 1e-300, 0, 2 / 3, 0)]
        rep = PruneReport(snapshots=[snap(0, 0, [0.1 + 0.2], [1e-300], [0], [2 / 3], [0])])
        p = tmp_path / "f.csv"
        write_csv(rep, p)
        assert report_rows(read_csv(p)) == rows

    def test_rejects_malformed_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("step,layer\n0,0\n")
        with pytest.raises(ReportError):
            read_csv(p)

    def test_header_only_gives_no_snapshots(self, tmp_path):
        p = tmp_path / "empty.csv"
        write_csv(PruneReport(), p)
        assert read_csv(p).snapshots == []

    @pytest.mark.parametrize("gids", [(0, 2), (1, 0), (0, 1, 1)])
    def test_rejects_group_ids_other_than_0_to_n(self, tmp_path, gids):
        p = tmp_path / "gap.csv"
        p.write_text("step,layer,group_id,l1,lambda_g,inst_rank,avg_rank,pruned\n"
                     + "".join(f"0,0,{g},1.0,0.0,0,0.0,0\n" for g in gids))
        with pytest.raises(ReportError, match="group ids"):
            read_csv(p)

    @pytest.mark.parametrize("cell", ["x", "1.5", ""])
    def test_rejects_unreadable_cell(self, tmp_path, cell):
        p = tmp_path / "cell.csv"
        p.write_text("step,layer,group_id,l1,lambda_g,inst_rank,avg_rank,pruned\n"
                     f"0,0,0,1.0,0.0,{cell},0.0,0\n")
        with pytest.raises(ReportError, match="malformed"):
            read_csv(p)

    def test_missing_file_is_report_error(self, tmp_path):
        with pytest.raises(ReportError, match="cannot read"):
            read_csv(tmp_path / "absent.csv")


class TestSummary:
    def test_json_round_trip(self, tmp_path):
        rep = make_report()
        p = tmp_path / "s.json"
        write_summary(rep, p)
        with open(p) as f:
            assert json.load(f) == rep.summary
