"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
pass; tolerances are pinned here and nowhere else.
"""

import time

import numpy as np
import pytest

from sipcert.expr import Bin, ExprFn, Num, evaluate, gradient, linear_expr, parse
from sipcert.fixtures import fixture_names, load_fixture
from sipcert.geometry import (
    Hull,
    Polyhedron,
    caratheodory_reduce,
    cone_interior_nonempty,
    hull_member,
)
from sipcert.model import FiniteFamily, Problem
from sipcert.multipliers import certify_fj, sip_multipliers, tc_approx
from sipcert.options import Options
from sipcert.reduction import certify_composed, certify_equality, convex_set_multiplier
from sipcert.selftest import ladder_nested

_PROPERTY_SECONDS = []


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" -- {detail}" if detail else ""))
    return ok


def _fixture(name):
    loaded = load_fixture(name)
    return loaded.problem, loaded.candidate, Options().replace(**loaded.options), loaded.grid


def test_criterion_1_near_active_counterexample():
    problem, candidate, opts, grid = _fixture("near_active")
    strict_problem, strict_candidate, strict_opts, strict_grid = _fixture("strict_active")

    started = time.perf_counter()
    tc = tc_approx(problem, candidate, opts, grid)
    cert = certify_fj(problem, candidate, opts, grid)
    strict = certify_fj(strict_problem, strict_candidate, strict_opts, strict_grid)
    elapsed = time.perf_counter() - started

    gens = sorted(tuple(float(v) for v in g) for g in tc.final.generators)
    hull_ok = (
        len(gens) == 2
        and np.abs(np.array(gens[0]) - [0.0, 1.0]).max() <= 1e-9
        and np.abs(np.array(gens[1]) - [1.0, 0.0]).max() <= 1e-9
    )
    cert_ok = (
        cert.kind == "kkt"
        and np.abs(cert.x_star - np.array([0.0, 1.0])).max() <= 1e-9
        and abs(cert.lam - 0.5) <= 1e-9
        and abs(cert.beta - 0.5) <= 1e-9
    )
    strict_hull = sorted(tuple(g) for g in strict.tc.final.generators)
    strict_ok = strict.kind == "no_certificate" and strict_hull == [(1.0, 0.0)]
    time_ok = elapsed < 0.1
    ok = hull_ok and cert_ok and strict_ok and time_ok
    assert report(
        "criterion 1: near-active window counterexample",
        ok,
        f"final={gens}, (lam,beta)=({cert.lam:.9g},{cert.beta:.9g}), "
        f"strict={strict.kind}, {elapsed * 1e3:.1f} ms",
    )


def _segment_distance_inf(points, a, b):
    """Exact inf-norm distance from each point to the segment [a, b].

    One-dimensional convex piecewise-linear minimization over the segment
    parameter; the minimum sits at a breakpoint.  Independent of the LP
    machinery it checks.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    mus = [0.0, 1.0]
    out = np.empty(len(points))
    for i, g in enumerate(points):
        # residual coords are affine in mu: r(mu) = a + mu (b - a) - g
        candidates = list(mus)
        for j in range(a.size):
            if b[j] != a[j]:
                candidates.append((g[j] - a[j]) / (b[j] - a[j]))  # r_j = 0
        for j in range(a.size):
            for k in range(j + 1, a.size):
                for s1 in (1, -1):
                    for s2 in (1, -1):
                        denom = s1 * (b[j] - a[j]) - s2 * (b[k] - a[k])
                        if denom != 0:
                            num = s2 * (a[k] - g[k]) - s1 * (a[j] - g[j])
                            candidates.append(num / denom)
        best = np.inf
        for mu in candidates:
            mu = min(max(mu, 0.0), 1.0)
            best = min(best, np.abs(a + mu * (b - a) - g).max())
        out[i] = best
    return out


def test_criterion_2_sip_closed_form():
    problem, candidate, opts, grid = _fixture("sip_linear")
    assert grid == 1025

    started = time.perf_counter()
    tc = tc_approx(problem, candidate, opts, grid)
    sm = sip_multipliers(problem, candidate, opts, grid)
    gaps = _segment_distance_inf(tc.final.generators, [-1.0, 0.0], [0.0, -1.0])
    elapsed = time.perf_counter() - started

    hausdorff = float(gaps.max())
    hull_ok = hausdorff <= 1e-6
    mult_ok = (
        sm.found
        and sm.k == 1
        and sm.k <= 2
        and abs(sm.lambda0 - 1.0 / 3.0) <= 1e-6
        and abs(sm.entries[0][2] - 2.0 / 3.0) <= 1e-6
        and abs(sm.entries[0][1][0] - 0.5) <= 1e-6
        and sm.residual <= 1e-9
    )
    time_ok = elapsed < 1.0
    ok = hull_ok and mult_ok and time_ok
    assert report(
        "criterion 2: SIP closed form at grid 1025",
        ok,
        f"hausdorff={hausdorff:.2g}, lambda0={sm.lambda0:.9g}, k={sm.k}, "
        f"t={sm.entries[0][1][0]:.9g}, residual={sm.residual:.2g}, {elapsed:.2f} s",
    )


def test_criterion_3_equality_branches():
    circle, c_cand, c_opts, _ = _fixture("eq_circle")
    cert = certify_equality(circle, c_cand, c_opts)
    circle_ok = (
        cert.found
        and cert.branch == "onto_no_a"
        and abs(cert.lambda0 - 1.0) <= 1e-9
        and abs(cert.w_star[0] + 0.5) <= 1e-9
        and cert.residual <= 1e-9
    )

    dup, d_cand, d_opts, _ = _fixture("eq_duplicated_rows")
    degenerate = certify_equality(dup, d_cand, d_opts)
    unit = abs(np.linalg.norm(degenerate.w_star) - 1.0) <= 1e-9
    orthogonal = np.abs(degenerate.jacobian.matrix.T @ degenerate.w_star).max() <= 1e-9
    dup_ok = degenerate.branch == "not_onto" and unit and orthogonal

    ok = circle_ok and dup_ok
    assert report(
        "criterion 3: equality branches",
        ok,
        f"circle: lambda0={cert.lambda0}, w*={cert.w_star[0]:.9g}, residual={cert.residual:.2g}; "
        f"degenerate: branch={degenerate.branch}, |w*|={np.linalg.norm(degenerate.w_star):.12g}",
    )


def test_criterion_4_convex_set_clause():
    checks = []

    problem, candidate, opts, grid = _fixture("eq_orthant_line")
    cert = certify_equality(problem, candidate, opts, grid)
    checks.append(convex_set_multiplier(problem.family.poly, candidate, cert.z_star, 1e-8))

    composed, cc, co, cg = _fixture("composed_parabola")
    ccert = certify_composed(composed, cc, co, cg)
    image = np.array([evaluate(g, cc) for g in composed.inner_map])
    checks.append(
        convex_set_multiplier(composed.family.poly, image, ccert.beta * ccert.y_star, 1e-8)
    )

    ok = all(c.passed for c in checks)
    assert report(
        "criterion 4: convex-set multiplier clause",
        ok,
        "; ".join(
            f"dual={c.in_dual_of_recession}, min@image={c.attains_minimum}" for c in checks
        ),
    )


# --- criterion 5: property suites ------------------------------------------

_SMOOTH_EXPRS = (
    "x1*x2 - 0.5*x1^2 + sin(x2)",
    "cos(x1) + x2^3 - 0.25*x1*x2",
    "exp(0.3*x1 - 0.2*x2) + x1*x2",
    "x1^2*x2 + x2/(2 + x1^2)",
    "sin(x1*x2) + 0.5*cos(x1 - x2)",
    "x1^3 - x2^2 + 0.1*exp(0.5*x2)",
)


def _central_diff(f, x, step=1e-6):
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.size)
    for i in range(x.size):
        up, down = x.copy(), x.copy()
        up[i] += step
        down[i] -= step
        out[i] = (evaluate(f, up) - evaluate(f, down)) / (2 * step)
    return out


def test_criterion_5a_gradient_checks():
    rng = np.random.default_rng(51)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        f = parse(_SMOOTH_EXPRS[rng.integers(len(_SMOOTH_EXPRS))], 2)
        x = rng.uniform(-1, 1, size=2)
        g = gradient(f, x)
        fd = _central_diff(f, x)
        worst = max(worst, np.abs(g - fd).max() / (1.0 + np.abs(g).max()))
    _PROPERTY_SECONDS.append(time.perf_counter() - started)
    assert report(
        "criterion 5a: 200 gradient checks vs central differences",
        worst <= 1e-6,
        f"worst relative gap {worst:.2g}",
    )


def _dense_alpha_grid_oracle(target, gens, steps=200):
    """Residual of the best convex combination on a dense simplex grid."""
    ws = np.linspace(0.0, 1.0, steps + 1)
    a, b = np.meshgrid(ws, ws, indexing="ij")
    keep = (a + b) <= 1.0 + 1e-12
    a, b = a[keep], b[keep]
    c = 1.0 - a - b
    points = np.outer(a, gens[0]) + np.outer(b, gens[1]) + np.outer(c, gens[2])
    return float(np.abs(points - np.asarray(target)).max(axis=1).min())


def test_criterion_5b_hull_membership_oracle():
    rng = np.random.default_rng(52)
    started = time.perf_counter()
    disagreements = 0
    checked = 0
    while checked < 100:
        gens = rng.uniform(-1, 1, size=(3, 2))
        if rng.random() < 0.5:
            target = gens.T @ rng.dirichlet(np.ones(3))
        else:
            target = rng.uniform(-1.5, 1.5, size=2)
        residual = _dense_alpha_grid_oracle(target, gens)
        resolution = 2.0 * np.abs(gens).max() / 200
        if 1e-6 < residual <= 4 * resolution:
            continue  # undecidable at grid resolution; resample
        oracle_member = residual <= resolution
        lp_member = hull_member(target, Hull(gens), 1e-6).member
        checked += 1
        if oracle_member != lp_member:
            disagreements += 1
    _PROPERTY_SECONDS.append(time.perf_counter() - started)
    assert report(
        "criterion 5b: 100 hull membership instances vs dense grid oracle",
        disagreements == 0,
        f"{disagreements} disagreements",
    )


def test_criterion_5c_ladder_nesting():
    rng = np.random.default_rng(53)
    started = time.perf_counter()
    bad = []
    for name in fixture_names():
        loaded = load_fixture(name)
        problem = loaded.problem
        if problem.family is None or problem.inner_map is not None:
            continue
        opts = Options().replace(**loaded.options)
        grid = 129 if (loaded.grid or 0) > 129 else loaded.grid
        tc = tc_approx(problem, loaded.candidate, opts, grid)
        if not ladder_nested(tc):
            bad.append(name)
    for i in range(50):
        p = 2
        x_hat = rng.uniform(-0.5, 0.5, size=p)
        m = int(rng.integers(2, 6))
        members = []
        for _ in range(m):
            normal = rng.standard_normal(p)
            normal /= np.linalg.norm(normal)
            slack = float(rng.choice([0.0, 0.005, 0.02, 0.3]))
            members.append(linear_expr(normal, -(float(normal @ x_hat) - slack), p))
        prob = Problem(p, linear_expr(rng.standard_normal(p), 0.0, p), FiniteFamily(tuple(members)))
        tc = tc_approx(prob, x_hat)
        if not ladder_nested(tc):
            bad.append(f"random#{i}")
    _PROPERTY_SECONDS.append(time.perf_counter() - started)
    assert report(
        "criterion 5c: ladder nesting on fixtures and 50 random instances",
        not bad,
        f"violations: {bad if bad else 'none'}",
    )


def test_criterion_5d_caratheodory():
    rng = np.random.default_rng(54)
    started = time.perf_counter()
    worst_support_excess = 0
    worst_residual = 0.0
    for _ in range(100):
        p = int(rng.integers(2, 5))
        n = p + int(rng.integers(3, 7))
        gens = rng.uniform(-1, 1, size=(n, p))
        weights = rng.dirichlet(np.ones(n))
        target = gens.T @ weights
        idx, coeffs = caratheodory_reduce(target, Hull(gens), weights)
        worst_support_excess = max(worst_support_excess, len(idx) - (p + 1))
        worst_residual = max(worst_residual, float(np.abs(gens[idx].T @ coeffs - target).max()))
    _PROPERTY_SECONDS.append(time.perf_counter() - started)
    ok = worst_support_excess <= 0 and worst_residual <= 1e-9
    assert report(
        "criterion 5d: caratheodory support and residual on 100 instances",
        ok,
        f"max support excess {worst_support_excess}, worst residual {worst_residual:.2g}",
    )


def test_criterion_5e_objective_scaling():
    started = time.perf_counter()
    problem, candidate, opts, grid = _fixture("near_active")
    base = certify_fj(problem, candidate, opts, grid)
    ok = True
    details = []
    for c in (1e-3, 1.0, 1e3):
        scaled = Problem(
            problem.p,
            ExprFn(Bin("*", Num(c), problem.objective.ast), problem.p),
            problem.family,
        )
        cert = certify_fj(scaled, candidate, opts, grid)
        same = cert.kind == base.kind and np.abs(cert.x_star - base.x_star).max() <= opts.tol
        ok = ok and same
        details.append(f"c={c:g}: {cert.kind}")
    _PROPERTY_SECONDS.append(time.perf_counter() - started)
    assert report(
        "criterion 5e: objective-scaling invariance",
        ok,
        "; ".join(details),
    )


def test_criterion_5_property_suite_runtime():
    total = sum(_PROPERTY_SECONDS)
    assert report(
        "criterion 5: property suites runtime",
        total < 30.0 and len(_PROPERTY_SECONDS) == 5,
        f"{total:.1f} s over {len(_PROPERTY_SECONDS)} suites",
    )


def test_criterion_6_cone_calculus():
    rng = np.random.default_rng(66)
    tol = 1e-9
    false_nonempty = 0
    unexplained_empty = 0
    for _ in range(50):
        m = int(rng.integers(2, 7))
        normals = rng.standard_normal((m, 3))
        poly = Polyhedron(normals, np.zeros(m))
        result = cone_interior_nonempty(poly, tol)
        unit = normals / np.linalg.norm(normals, axis=1, keepdims=True)
        directions = rng.standard_normal((10_000, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        sampled_margin = float((directions @ unit.T).min(axis=1).max())
        if result.nonempty:
            witness_margin = float((unit @ result.witness).min())
            if witness_margin <= 0.0:
                false_nonempty += 1
        elif sampled_margin >= 10 * tol:
            unexplained_empty += 1
    ok = false_nonempty == 0 and unexplained_empty == 0
    assert report(
        "criterion 6: cone interior vs 10^4-direction sampling on 50 cones",
        ok,
        f"false nonempty: {false_nonempty}, unexplained empty: {unexplained_empty}",
    )
