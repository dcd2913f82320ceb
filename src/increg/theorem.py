"""Numerical study of quadratic-penalty minima in one dimension.

For a twice-differentiable loss L and penalty strength lam > 0, let
Y(w) = L(w) + (lam/2) w^2. At a stationary point w0 of Y we have
lam = -L'(w0)/w0, and along the curve of continued local minima
d lam / d w = -(L''(w0) + lam)/w0, so while the second-order condition
L'' + lam > 0 holds, raising lam pulls |w*| strictly toward zero. This
module minimizes Y, evaluates that derivative, and sweeps penalty
increments over an objective library to check the shrinkage numerically.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable

GRAD_TOL = 1e-10


class MinimizationError(RuntimeError):
    """No local minimum could be located inside the objective's domain."""


class StationarityError(ValueError):
    """A (lam, w) pair does not sit on the stationarity curve."""


@dataclass(frozen=True)
class Objective1D:
    """A scalar loss with analytic first and second derivatives."""

    name: str
    f: Callable[[float], float]
    df: Callable[[float], float]
    d2f: Callable[[float], float]
    domain: tuple[float, float] = (-1e9, 1e9)
    inits: tuple[float, ...] = (1.0,)


def _clip(w: float, domain: tuple[float, float]) -> float:
    return min(max(w, domain[0]), domain[1])


def minimize(obj: Objective1D, lam: float, w_init: float) -> float:
    """The local minimizer of L(w) + (lam/2) w^2 nearest to w_init.

    Damped Newton, with a downhill step of 0.1 (1 + |w|) where the
    curvature is not positive, each step halved until Y does not rise.
    It stops once the gradient magnitude is below 1e-10 with a positive
    second derivative; MinimizationError if the iteration stalls short of
    that, for example pinned at the edge of the domain.
    """
    if lam <= 0:
        raise ValueError(f"penalty strength must be positive, got {lam}")
    Y = lambda w: obj.f(w) + 0.5 * lam * w * w
    Yp = lambda w: obj.df(w) + lam * w
    Ypp = lambda w: obj.d2f(w) + lam

    w = _clip(float(w_init), obj.domain)
    for _ in range(100):
        g = Yp(w)
        if abs(g) < GRAD_TOL and Ypp(w) > 0:
            return w
        h = Ypp(w)
        if h > 0:
            step = -g / h
        else:
            step = -math.copysign(0.1 * (1.0 + abs(w)), g)
        y0 = Y(w)
        for _ in range(60):
            cand = _clip(w + step, obj.domain)
            if Y(cand) <= y0 or cand == w:
                break
            step *= 0.5
        if cand == w:
            break
        w = cand
    if abs(Yp(w)) < GRAD_TOL and Ypp(w) > 0:
        return w
    raise MinimizationError(
        f"{obj.name}: stalled at w={w} (grad {Yp(w):.3e}) from {w_init} at lam={lam}"
    )


def dlambda_domega(obj: Objective1D, lam0: float, w0: float) -> float:
    """Slope of the stationarity curve lam(w) at a stationary pair.

    Equals -(L''(w0) + lam0)/w0; negative for w0 > 0 and positive for
    w0 < 0 whenever the second-order condition L'' + lam > 0 holds, which
    is exactly why growing the penalty shrinks the minimum's magnitude.
    """
    if w0 == 0:
        raise StationarityError("derivative is singular at w = 0")
    resid = abs(obj.df(w0) + lam0 * w0)
    scale = 1.0 + abs(obj.df(w0)) + abs(lam0 * w0)
    if resid > 1e-6 * scale:
        raise StationarityError(
            f"(lam={lam0}, w={w0}) is not stationary: residual {resid:.3e}"
        )
    return -(obj.d2f(w0) + lam0) / w0


@dataclass
class ContinuationRow:
    objective: str
    lambda0: float
    omega0: float
    lambda1: float
    omega1: float
    shrank: bool
    jumped: bool


def objective_library() -> list[Objective1D]:
    """Convex, double-well, and rippled cases for the shrinkage sweep."""
    quad = Objective1D(
        name="quadratic",
        f=lambda w: (w - 1.0) ** 2,
        df=lambda w: 2.0 * (w - 1.0),
        d2f=lambda w: 2.0,
        inits=(1.0,),
    )
    quartic = Objective1D(
        name="quartic-double-well",
        f=lambda w: (w * w - 1.0) ** 2,
        df=lambda w: 4.0 * w * (w * w - 1.0),
        d2f=lambda w: 12.0 * w * w - 4.0,
        inits=(1.0, -1.0),
    )
    ripple = Objective1D(
        name="rippled-quadratic",
        f=lambda w: (w - 1.0) ** 2 + 0.1 * math.cos(10.0 * w),
        df=lambda w: 2.0 * (w - 1.0) - math.sin(10.0 * w),
        d2f=lambda w: 2.0 - 10.0 * math.cos(10.0 * w),
        inits=(1.0,),
    )
    return [quad, quartic, ripple]


def theorem1_suite(
    objectives: list[Objective1D] | None = None,
    lambdas: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0),
    *,
    deltas: tuple[float, ...],
) -> tuple[bool, list[ContinuationRow]]:
    """Shrinkage check over a grid of penalty increments.

    For each objective, branch seed, and base strength lam0, the local
    minimum is continued to lam0 + delta and |w| must strictly shrink.
    A continuation that leaves the basin (step far beyond the local slope
    prediction) is flagged as a jump and excluded from the verdict, since
    the statement under test is local.
    """
    objectives = objective_library() if objectives is None else objectives
    rows: list[ContinuationRow] = []
    passed = True
    for obj in objectives:
        for seed in obj.inits:
            for lam0 in lambdas:
                w0 = minimize(obj, lam0, seed)
                if w0 == 0:
                    continue  # theorem needs a nonzero minimum
                slope = 1.0 / dlambda_domega(obj, lam0, w0)
                for d in deltas:
                    w1 = minimize(obj, lam0 + d, w0)
                    jumped = abs(w1 - w0) > 10.0 * d * abs(slope)
                    shrank = abs(w1) < abs(w0)
                    rows.append(ContinuationRow(obj.name, lam0, w0, lam0 + d, w1,
                                                shrank=shrank, jumped=jumped))
                    if not jumped and not shrank:
                        passed = False
    return passed, rows


def write_continuation_csv(rows: list[ContinuationRow], path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["objective", "lambda0", "omega0", "lambda1", "omega1",
                    "shrank", "jumped"])
        for r in rows:
            w.writerow([r.objective, repr(r.lambda0), repr(r.omega0),
                        repr(r.lambda1), repr(r.omega1), int(r.shrank), int(r.jumped)])
