import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from sipcert.expr import linear_expr, parse
from sipcert.model import (
    FamilyScan,
    IndexSet,
    InfeasibleError,
    ParametricFamily,
    Problem,
    evaluate_family,
)
from sipcert.options import Options

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")


def active_set(prob, x, eps, opts=Options()):
    """The near-active rung at eps of a scan made at eps: members with
    0 <= value <= eps, with gradients (box families bisect their discrete
    local minima).  Raises ``InfeasibleError`` at an infeasible x.
    ``FamilyScan.at`` below its cap keeps this scan's grid rows; its twins
    are those of the seeds near-active at the cap, each kept when its own
    value is <= eps, so it can hold a twin this scan lacks."""
    values, report = evaluate_family(prob, x, opts.tol_feas)
    if not report.feasible:
        raise InfeasibleError(report)
    return FamilyScan(prob, x, values, eps, opts).at(eps)


def chebyshev_doc(n, form, grid):
    """Best uniform approximation of t^(n+1) on [-1, 1] by degree-n polynomials, as a
    problem file at its exact optimum: KKT with lambda = 1/2 on p = n + 2 support points.

    Maximize -E over (c_0, ..., c_n, E) = (x1, ..., x{n+1}, x{n+2}) subject to
    E - |t^(n+1) - sum_i c_i t^i| >= 0, in the ``"t"`` form on [-1, 1] or the
    ``"s"`` form t = cos(s) on [0, pi].  The optimum is t^(n+1) - 2^-n T_{n+1}(t),
    with E = 2^-n; its n + 2 alternation points are cos(k pi / (n + 1)).
    """
    p = n + 2
    chebyshev = np.polynomial.chebyshev.cheb2poly([0] * (n + 1) + [1]) * 2.0**-n
    coeffs = [0.0 - float(c) for c in chebyshev[: n + 1]]  # 0.0 - c: no -0.0
    t = "t1" if form == "t" else "cos(t1)"
    poly = " + ".join(["x1"] + [f"x{i + 1}*{t}^{i}" for i in range(1, n + 1)])
    lower, upper = ([-1.0], [1.0]) if form == "t" else ([0.0], [math.pi])
    box = {"lower": lower, "upper": upper}
    h = f"x{p} - abs({t}^{n + 1} - ({poly}))"
    return {
        "dimension": p,
        "objective": f"-x{p}",
        "constraints": {"parametric": {"h": h, "t_dim": 1, "box": box, "grid": grid}},
        "candidate": coeffs + [2.0**-n],
    }


@pytest.fixture
def rng():
    return np.random.default_rng(20250809)


@pytest.fixture
def sphere_ladder():
    """Factory: the one-point ladder problem ``h = 1 - x . u(t)`` on a quarter circle or octant.

    ``u(t)`` is the unit circle (one index axis) or sphere (two axes) over
    ``[0, pi/2]`` per axis.  The candidate is ``u(t*)`` at the grid point
    ``t_index`` (one grid index per axis) and the objective is
    ``2 x . u(t*)``: a KKT point whose only active index is t*, so the
    near-active ladder shrinks around it.  Returns ``(problem, candidate)``.
    """

    def build(grid, t_index):
        t = [np.linspace(0.0, math.pi / 2, grid)[i] for i in t_index]
        if len(t) == 1:
            text = ("cos(t1)", "sin(t1)")
            x = np.array([math.cos(t[0]), math.sin(t[0])])
        else:
            text = ("cos(t1)*cos(t2)", "sin(t1)*cos(t2)", "sin(t2)")
            c, s = math.cos(t[1]), math.sin(t[1])
            x = np.array([math.cos(t[0]) * c, math.sin(t[0]) * c, s])
        p = len(t) + 1
        h = parse("1 - " + " - ".join(f"x{k + 1}*{u}" for k, u in enumerate(text)), p, len(t))
        family = ParametricFamily(h, IndexSet.box([0.0] * len(t), [math.pi / 2] * len(t), grid))
        return Problem(p, linear_expr(2.0 * x, 0.0, p), family), x

    return build
