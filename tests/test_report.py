"""Trajectory report validation and exact CSV round trips."""

import pytest

from increg.report import (
    PruneReport,
    ReportError,
    read_csv,
    read_summary,
    validate_report,
    write_csv,
    write_summary,
)


def make_report():
    rows = [
        (0, 0, 0, 1.5, 0.0, 1, 1.0, 0),
        (0, 0, 1, 0.5, 0.002, 0, 0.0, 0),
        (0, 3, 0, 2.25, 0.0, 0, 0.0, 0),
        (10, 0, 0, 1.4000001, 0.0, 1, 1.0, 0),
        (10, 0, 1, 0.0, 0.1, 0, 0.0, 1),
        (10, 3, 0, 2.2, 0.0, 0, 0.0, 0),
    ]
    summary = {"converged_iteration": 10, "layers": [
        {"layer": 0, "n_groups": 2, "target": 1, "pruned": 1}]}
    return PruneReport(rows=rows, summary=summary)


class TestValidate:
    def test_accepts_well_formed(self):
        validate_report(make_report())

    def test_rejects_unsorted_rows(self):
        rep = make_report()
        rep.rows[0], rep.rows[1] = rep.rows[1], rep.rows[0]
        with pytest.raises(ReportError):
            validate_report(rep)

    def test_rejects_negative_l1(self):
        rep = make_report()
        rep.rows[2] = (0, 3, 0, -1.0, 0.0, 0, 0.0, 0)
        with pytest.raises(ReportError):
            validate_report(rep)

    def test_rejects_negative_lambda(self):
        rep = make_report()
        rep.rows[2] = (0, 3, 0, 1.0, -0.001, 0, 0.0, 0)
        with pytest.raises(ReportError):
            validate_report(rep)

    def test_rejects_bad_pruned_flag(self):
        rep = make_report()
        rep.rows[2] = (0, 3, 0, 1.0, 0.0, 0, 0.0, 2)
        with pytest.raises(ReportError):
            validate_report(rep)


class TestCsv:
    def test_round_trip_exact(self, tmp_path):
        rep = make_report()
        p = tmp_path / "r.csv"
        write_csv(rep, p)
        back = read_csv(p)
        assert back.rows == rep.rows

    def test_floats_survive_exactly(self, tmp_path):
        # repr round-trips any float, including awkward ones
        rows = [(0, 0, 0, 0.1 + 0.2, 1e-300, 0, 2 / 3, 0)]
        rep = PruneReport(rows=rows, summary={})
        p = tmp_path / "f.csv"
        write_csv(rep, p)
        assert read_csv(p).rows == rows

    def test_rejects_malformed_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("step,layer\n0,0\n")
        with pytest.raises(ReportError):
            read_csv(p)


class TestSummary:
    def test_json_round_trip(self, tmp_path):
        rep = make_report()
        p = tmp_path / "s.json"
        write_summary(rep, p)
        assert read_summary(p) == rep.summary
