"""Penalty-minimum continuation: closed-form oracles and shrinkage sweeps."""

import csv
import math

import numpy as np
import pytest

from increg.theorem import (
    MinimizationError,
    Objective1D,
    StationarityError,
    dlambda_domega,
    minimize,
    objective_library,
    theorem1_suite,
    write_continuation_csv,
)


def lib():
    return {o.name: o for o in objective_library()}


def tilted_double_well():
    """Double well plus a linear tilt; the shallow basin folds away as the
    penalty grows, which forces a basin jump during continuation."""
    return Objective1D(
        name="tilted-double-well",
        f=lambda w: (w * w - 1.0) ** 2 + 0.5 * w,
        df=lambda w: 4.0 * w * (w * w - 1.0) + 0.5,
        d2f=lambda w: 12.0 * w * w - 4.0,
        inits=(0.9,),
    )


class TestMinimize:
    def test_quadratic_closed_form(self):
        # L = (w-1)^2 gives w* = 2/(2+lam)
        quad = lib()["quadratic"]
        assert abs(minimize(quad, 1.0, 1.0) - 2.0 / 3.0) <= 1e-8
        assert abs(minimize(quad, 2.0, 1.0) - 0.5) <= 1e-8
        for lam in (0.25, 0.5, 4.0, 32.0):
            got = minimize(quad, lam, 1.0)
            assert abs(got - 2.0 / (2.0 + lam)) <= 1e-8

    def test_quartic_branches(self):
        # nonzero minima of the double well sit at w^2 = 1 - lam/4
        quartic = lib()["quartic-double-well"]
        for lam in (0.5, 1.0, 2.0, 3.9):
            w = math.sqrt(1.0 - lam / 4.0)
            assert abs(minimize(quartic, lam, 1.0) - w) <= 1e-8
            assert abs(minimize(quartic, lam, -1.0) + w) <= 1e-8

    def test_quartic_collapses_past_fold(self):
        # above lam = 4 only the origin remains
        quartic = lib()["quartic-double-well"]
        assert abs(minimize(quartic, 8.0, 1.0)) <= 1e-10

    def test_large_penalty_dominates(self):
        for obj in objective_library():
            for seed in obj.inits:
                got = minimize(obj, 1e7, seed)
                assert abs(got) < 1e-5

    def test_ripple_is_a_true_local_minimum(self):
        ripple = lib()["rippled-quadratic"]
        w = minimize(ripple, 0.5, 1.0)
        assert abs(ripple.df(w) + 0.5 * w) <= 1e-9
        assert ripple.d2f(w) + 0.5 > 0
        # grid scan around the reported point: nothing nearby is lower
        ws = w + np.linspace(-0.05, 0.05, 2001)
        ys = [ripple.f(v) + 0.25 * v * v for v in ws]
        assert abs(ws[int(np.argmin(ys))] - w) <= 1e-4

    def test_gradient_tolerance_met(self):
        for obj in objective_library():
            for lam in (0.25, 1.0, 2.0):
                for seed in obj.inits:
                    w = minimize(obj, lam, seed)
                    assert abs(obj.df(w) + lam * w) < 1e-10

    def test_nonpositive_penalty_rejected(self):
        with pytest.raises(ValueError):
            minimize(lib()["quadratic"], 0.0, 1.0)

    def test_no_minimum_in_domain(self):
        falling = Objective1D(
            name="falling-line",
            f=lambda w: -w,
            df=lambda w: -1.0,
            d2f=lambda w: 0.0,
            domain=(0.5, 2.0),
            inits=(1.0,),
        )
        with pytest.raises(MinimizationError):
            minimize(falling, 0.1, 1.0)


class TestStationarity:
    def test_slope_closed_form(self):
        # for the quadratic at (lam=1, w=2/3): -(2 + 1)/(2/3) = -4.5
        quad = lib()["quadratic"]
        assert dlambda_domega(quad, 1.0, 2.0 / 3.0) == pytest.approx(-4.5, rel=1e-9)

    def test_non_stationary_pair_rejected(self):
        quad = lib()["quadratic"]
        with pytest.raises(StationarityError):
            dlambda_domega(quad, 1.0, 0.9)
        with pytest.raises(StationarityError):
            dlambda_domega(quad, 1.0, 0.0)

    def test_slope_matches_finite_differences_of_minimizer(self):
        h = 1e-6
        for obj in objective_library():
            for seed in obj.inits:
                lam0 = 1.0
                w0 = minimize(obj, lam0, seed)
                if abs(w0) < 1e-12:
                    continue
                up = minimize(obj, lam0 + h, w0)
                down = minimize(obj, lam0 - h, w0)
                fd = 2.0 * h / (up - down)
                assert dlambda_domega(obj, lam0, w0) == pytest.approx(fd, rel=1e-4)

    def test_negative_branch_has_positive_slope(self):
        quartic = lib()["quartic-double-well"]
        w0 = minimize(quartic, 1.0, -1.0)
        assert w0 < 0
        assert dlambda_domega(quartic, 1.0, w0) > 0


class TestSuite:
    def test_library_passes(self):
        passed, rows = theorem1_suite(deltas=(1e-3, 1e-2, 1e-1))
        assert passed
        assert rows
        for r in rows:
            if not r.jumped:
                assert r.shrank
                assert abs(r.omega1) < abs(r.omega0)
                # shrink toward zero, never across it
                assert r.omega0 * r.omega1 > 0

    def test_basin_jump_is_flagged_and_excluded(self):
        passed, rows = theorem1_suite([tilted_double_well()],
                                      lambdas=(1.9,), deltas=(0.3,))
        assert passed
        assert len(rows) == 1
        r = rows[0]
        assert r.jumped
        assert r.omega0 > 0 > r.omega1  # landed in the other well

    def test_csv_round_trip(self, tmp_path):
        _, rows = theorem1_suite(deltas=(1e-2,))
        path = tmp_path / "curve.csv"
        write_continuation_csv(rows, path)
        with open(path, newline="") as f:
            got = list(csv.reader(f))
        assert got[0] == ["objective", "lambda0", "omega0", "lambda1",
                          "omega1", "shrank", "jumped"]
        assert len(got) == len(rows) + 1
        for raw, r in zip(got[1:], rows):
            assert raw[0] == r.objective
            assert float(raw[2]) == r.omega0
            assert float(raw[4]) == r.omega1
            assert raw[5] == str(int(r.shrank))
