"""The check library behind `sipcert selftest` and the acceptance suite.

Each check is written once, here: a function ``(opts, rng, *, counts)``
that returns ``(ok, detail)``.  The fixture checks compare the bundled
examples with their closed forms; the property checks compare the
geometry and calculus with independent oracles (central differences, a
dense simplex grid, an exact segment distance, direction sampling).  The
caller sets the sample counts, grids and random stream: `sipcert selftest`
runs the reduced counts in `run_selftest` on the SIPCERT_SEED stream, and
``tests/test_acceptance.py`` runs the full counts on its own seeds.  The
tolerances are pinned here and nowhere else.
"""

from __future__ import annotations

import numpy as np

from .expr import evaluate, evaluate_list, format_expr, gradient, linear_expr, parse
from .fixtures import fixture_names, fixture_path
from .geometry import (
    Polyhedron,
    caratheodory_reduce,
    cone_interior_nonempty,
    hull_member,
    one_sided_hull_gap,
)
from .model import FiniteFamily, Problem, admissible_diagnostics
from .multipliers import certify_fj, sip_multipliers, tc_approx
from .options import Options, resolve_seed
from .problemfile import emit_json, load_problem
from .reduction import certify_composed, certify_equality, convex_set_multiplier

__all__ = ["run_selftest", "ladder_nested", "simplex_grid", "grid_hull_residual"]


def run_selftest(tol=None, as_json=False) -> int:
    opts = Options().replace(tol=tol)
    rng = np.random.default_rng(resolve_seed())
    # the counts are reduced from the acceptance suite's
    checks = [
        ("near-active window certificate", check_near_active, {}),
        ("strictly-active variant refuses", check_strict_active, {}),
        ("linear SIP multipliers", check_sip_linear, {"grid": 257}),
        ("trigonometric SIP certificate", check_sip_trig, {"grid": 257}),
        ("circle equality multiplier", check_circle, {}),
        ("duplicated-row equality degeneracy", check_duprow, {}),
        ("equality with polyhedral set", check_orthant_line, {}),
        ("composed parabola certificate", check_parabola, {}),
        ("cone admissibility fixtures", check_cones, {}),
        ("gradients vs central differences", check_gradients, {"samples": 40}),
        ("hull membership vs grid oracle", check_hull_oracle,
         {"instances": 20, "generators": 4, "steps": 40}),
        ("ladder nesting", check_nesting, {"samples": 10}),
        ("caratheodory support bound", check_caratheodory, {"samples": 20}),
        ("objective-scaling invariance", check_scaling, {}),
        ("cone interior vs direction sampling", check_cone_oracle,
         {"cones": 10, "directions": 2000}),
    ]
    results = []
    failures = 0
    for name, fn, counts in checks:
        try:
            ok, detail = fn(opts, rng, **counts)
        except Exception as err:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(err).__name__}: {err}"
        results.append({"name": name, "ok": ok, "detail": detail})
        if not ok:
            failures += 1
        if not as_json:
            print(f"[{'ok' if ok else 'FAIL'}] {name}: {detail}")
    if as_json:
        print(emit_json({"command": "selftest", "results": results, "failures": failures,
                         "total": len(checks), "exit_code": 0 if failures == 0 else 1}))
    else:
        print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 0 if failures == 0 else 1


def _load(name, opts, grid=None):
    loaded = load_problem(fixture_path(name), grid)  # its box on grid, if given
    return loaded.problem, loaded.candidate, opts.replace(**loaded.options)


def _rounded(hull):
    return {tuple(float(v) for v in np.round(g, 12)) for g in hull}


# --- the bundled fixtures against their closed forms ------------------------


def check_near_active(opts, rng):
    problem, candidate, fixture_opts = _load("near_active", opts)
    cert = certify_fj(problem, candidate, fixture_opts)
    final = cert.tc.final
    ok = (
        len(final) == 2
        and _rounded(final) == {(1.0, 0.0), (0.0, 1.0)}
        and cert.kind == "kkt"
        and np.abs(cert.x_star - np.array([0.0, 1.0])).max() <= 1e-9
        and abs(cert.lam - 0.5) <= 1e-9
        and abs(cert.beta - 0.5) <= 1e-9
        and cert.residual <= fixture_opts.tol
    )
    return ok, (
        f"kind={cert.kind} final={sorted(_rounded(final))} "
        f"lam={cert.lam:.9g} beta={cert.beta:.9g} residual={cert.residual:.2g}"
    )


def check_strict_active(opts, rng):
    problem, candidate, fixture_opts = _load("strict_active", opts)
    cert = certify_fj(problem, candidate, fixture_opts)
    final = sorted(tuple(float(v) for v in g) for g in cert.tc.final)
    ok = cert.kind == "no_certificate" and final == [(1.0, 0.0)]
    return ok, f"kind={cert.kind} final={final}"


def check_sip_linear(opts, rng, *, grid):
    problem, candidate, fixture_opts = _load("sip_linear", opts, grid)
    cert = certify_fj(problem, candidate, fixture_opts)
    tc, sm = cert.tc, sip_multipliers(cert, fixture_opts)
    hausdorff = float(_segment_distance_inf(tc.final, [-1.0, 0.0], [0.0, -1.0]).max())
    ok = (
        hausdorff <= 1e-6
        and sm.found
        and sm.k == 1
        and abs(sm.lambda0 - 1.0 / 3.0) <= 1e-6
        and abs(sm.entries[0][2] - 2.0 / 3.0) <= 1e-6
        and abs(sm.entries[0][1][0] - 0.5) <= 1e-6
        and sm.residual <= 1e-9
    )
    t = sm.entries[0][1][0] if sm.entries else float("nan")
    return ok, (
        f"hausdorff={hausdorff:.2g} lambda0={sm.lambda0:.9g} k={sm.k} t={t:.9g} "
        f"residual={sm.residual:.2g}"
    )


def _segment_distance_inf(points, a, b):
    """Exact inf-norm distance from each point to the segment [a, b].

    One-dimensional convex piecewise-linear minimization over the segment
    parameter; the minimum sits at a breakpoint.  Independent of the LP
    machinery it checks.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    out = np.empty(len(points))
    for i, g in enumerate(points):
        # residual coords are affine in mu: r(mu) = a + mu (b - a) - g
        candidates = [0.0, 1.0]
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
                            candidates.append(num / denom)  # |r_j| = |r_k|
        out[i] = min(np.abs(a + min(max(mu, 0.0), 1.0) * (b - a) - g).max() for mu in candidates)
    return out


def check_sip_trig(opts, rng, *, grid):
    problem, candidate, fixture_opts = _load("sip_trig", opts, grid)
    cert = certify_fj(problem, candidate, fixture_opts)
    # h = x1 cos t + x2 sin t vanishes at x = 0 for every t: the closed-form
    # hull is conv{(cos t, sin t)} over the whole grid, compared both ways
    t = problem.family.index.axes[0]
    closed_form = np.column_stack([np.cos(t), np.sin(t)])
    final = cert.tc.final
    gap = max(one_sided_hull_gap(final, closed_form), one_sided_hull_gap(closed_form, final))
    ok = cert.kind == "fj" and cert.residual <= fixture_opts.tol and gap <= 1e-6
    return ok, f"kind={cert.kind} closed-form gap={gap:.2g} residual={cert.residual:.2g}"


def check_circle(opts, rng):
    problem, candidate, fixture_opts = _load("eq_circle", opts)
    cert = certify_equality(problem, candidate, fixture_opts)
    ok = (
        cert.found
        and cert.branch == "onto_no_a"
        and abs(cert.lambda0 - 1.0) <= 1e-9
        and abs(cert.w_star[0] + 0.5) <= 1e-9
        and cert.residual <= 1e-9
    )
    return ok, (
        f"branch={cert.branch} lambda0={cert.lambda0} w*={cert.w_star} residual={cert.residual:.2g}"
    )


def check_duprow(opts, rng):
    problem, candidate, fixture_opts = _load("eq_duplicated_rows", opts)
    cert = certify_equality(problem, candidate, fixture_opts)
    unit = abs(np.linalg.norm(cert.w_star) - 1.0) <= 1e-9
    orthogonal = np.abs(cert.jacobian.matrix.T @ cert.w_star).max() <= 1e-9
    ok = cert.branch == "not_onto" and unit and orthogonal
    return ok, f"branch={cert.branch} |w*|={np.linalg.norm(cert.w_star):.12g}"


def check_orthant_line(opts, rng):
    problem, candidate, fixture_opts = _load("eq_orthant_line", opts)
    cert = certify_equality(problem, candidate, fixture_opts)
    check = convex_set_multiplier(problem.family.poly, candidate, cert.z_star, 1e-8)
    ok = cert.found and cert.branch == "onto_with_a" and cert.residual <= fixture_opts.tol and check.passed
    return ok, (
        f"branch={cert.branch} residual={cert.residual:.2g} convex-set={check.passed} "
        f"(dual={check.in_dual_of_recession}, min@image={check.attains_minimum})"
    )


def check_parabola(opts, rng):
    problem, candidate, fixture_opts = _load("composed_parabola", opts)
    cert = certify_composed(problem, candidate, fixture_opts)
    check = convex_set_multiplier(
        problem.family.poly,
        evaluate_list(problem.inner_map, candidate),
        cert.beta * cert.y_star,
        1e-8,
    )
    ok = (
        cert.kind == "kkt"
        and np.abs(cert.y_star - np.array([0.0, 1.0])).max() <= 1e-9
        and cert.residual <= fixture_opts.tol
        and check.passed
    )
    return ok, (
        f"kind={cert.kind} y*={cert.y_star} convex-set={check.passed} "
        f"(dual={check.in_dual_of_recession}, min@image={check.attains_minimum})"
    )


def check_cones(opts, rng):
    orthant, o_cand, o_opts = _load("cone_orthant", opts)
    hyper, h_cand, h_opts = _load("cone_hyperplane", opts)
    d_orthant = admissible_diagnostics(orthant, o_cand, o_opts)
    d_hyper = admissible_diagnostics(hyper, h_cand, h_opts)
    c_orthant = cone_interior_nonempty(orthant.family.poly)
    c_hyper = cone_interior_nonempty(hyper.family.poly)
    ok = (
        d_orthant.admissible_style
        and c_orthant.nonempty
        and not d_hyper.admissible_style
        and not c_hyper.nonempty
    )
    return ok, (
        f"orthant admissible={d_orthant.admissible_style} interior={c_orthant.nonempty}; "
        f"hyperplane admissible={d_hyper.admissible_style} interior={c_hyper.nonempty}"
    )


# --- property checks against independent oracles ---------------------------

_SMOOTH_EXPRS = (
    "x1*x2 - 0.5*x1^2 + sin(x2)",
    "cos(x1) + x2^3 - 0.25*x1*x2",
    "exp(0.3*x1 - 0.2*x2) + x1*x2",
    "x1^2*x2 + x2/(2 + x1^2)",
    "sin(x1*x2) + 0.5*cos(x1 - x2)",
    "x1^3 - x2^2 + 0.1*exp(0.5*x2)",
)


def _central_difference(f, x, step=1e-6):
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.size)
    for i in range(x.size):
        forward, backward = x.copy(), x.copy()
        forward[i] += step
        backward[i] -= step
        out[i] = (evaluate(f, forward) - evaluate(f, backward)) / (2 * step)
    return out


def check_gradients(opts, rng, *, samples):
    worst = 0.0
    for _ in range(samples):
        f = parse(_SMOOTH_EXPRS[rng.integers(len(_SMOOTH_EXPRS))], 2)
        x = rng.uniform(-1, 1, size=2)
        g = gradient(f, x)
        fd = _central_difference(f, x)
        worst = max(worst, np.abs(g - fd).max() / (1.0 + np.abs(g).max()))
    return worst <= 1e-6, f"worst relative gap {worst:.2g} over {samples} samples"


def simplex_grid(k, steps):
    """Every weight vector on the k-simplex whose first k - 1 entries are multiples of 1/steps."""
    ws = np.linspace(0.0, 1.0, steps + 1)
    head = np.stack([m.ravel() for m in np.meshgrid(*[ws] * (k - 1), indexing="ij")], axis=1)
    head = head[head.sum(axis=1) <= 1.0 + 1e-12]
    return np.column_stack([head, 1.0 - head.sum(axis=1)])


def grid_hull_residual(target, gens, weights):
    """Inf-norm residual of the best combination ``weights @ gens``, one weight vector per row."""
    points = weights @ np.asarray(gens, dtype=float)
    return float(np.abs(points - np.asarray(target)).max(axis=1).min())


def check_hull_oracle(opts, rng, *, instances, generators, steps):
    """LP membership and distance against the simplex grid on ``instances`` random hulls.

    Each hull is tested at a point inside it (Dirichlet weights), which must
    be called a member, and at a uniform point of [-1.5, 1.5]^2.  Every grid
    point lies in the hull, and rounding the weights of any hull point to
    multiples of 1/steps moves it by at most ``resolution`` (k/4 of the
    generators' spread per step), so the grid residual r brackets the
    distance d: d <= r <= d + resolution.  The LP's distance must lie in
    that bracket, and its verdict must be "member" when r <= 1e-6 and "not
    a member" when r > resolution + 1e-6.
    """
    tol = 1e-6
    weights = simplex_grid(generators, steps)
    disagreements = members = 0
    for _ in range(instances):
        gens = rng.uniform(-1, 1, size=(generators, 2))
        resolution = generators / 4 * float(np.ptp(gens, axis=0).max()) / steps
        inside = gens.T @ rng.dirichlet(np.ones(generators))
        for target in (inside, rng.uniform(-1.5, 1.5, size=2)):
            residual = grid_hull_residual(target, gens, weights)
            lp = hull_member(target, gens, tol)
            members += lp.member
            if target is inside or residual <= tol:
                wrong_verdict = not lp.member
            else:
                wrong_verdict = lp.member and residual > resolution + tol
            outside_bracket = not (
                lp.distance <= residual + 1e-9 and residual <= lp.distance + resolution + 1e-9
            )
            disagreements += wrong_verdict or outside_bracket
    return disagreements == 0, (
        f"{disagreements} disagreements over {instances} hulls x 2 targets ({members} members)"
    )


def check_nesting(opts, rng, *, samples):
    """Every fixture with a family, composed or not, then ``samples`` random finite problems."""
    bad = []
    for name in fixture_names():
        problem, candidate, fixture_opts = _load(name, opts)
        if problem.family is None:
            continue
        if not problem.family.pure_finite and problem.family.index.base_grid > 129:
            problem, candidate, fixture_opts = _load(name, opts, 129)
        if not ladder_nested(tc_approx(problem, candidate, fixture_opts)):
            bad.append(name)
    for i in range(samples):
        problem, candidate = _random_finite_problem(rng)
        if not ladder_nested(tc_approx(problem, candidate, opts)):
            bad.append(f"random#{i}")
    return not bad, (
        f"violations: {bad if bad else 'none'} over the fixtures and {samples} random instances"
    )


def ladder_nested(tc) -> bool:
    """Each rung's candidates are among the rung before's, and its gradients in that hull.

    A gradient is in the hull when its distance to it is at most 1e-7;
    `one_sided_hull_gap` is the largest such distance, without an LP for a
    gradient that is literally a generator of the outer hull.
    """
    return all(
        np.isin(inner.entries, outer.entries).all()
        and one_sided_hull_gap(inner.hull(), outer.hull()) <= 1e-7
        for (_, outer), (_, inner) in zip(tc.ladder, tc.ladder[1:])
    )


def _random_finite_problem(rng, p=2):
    """2 to 5 half-planes through or near a random candidate, and a random linear objective."""
    x_hat = rng.uniform(-0.5, 0.5, size=p)
    members = []
    for _ in range(int(rng.integers(2, 6))):
        normal = rng.standard_normal(p)
        normal /= np.linalg.norm(normal)
        slack = float(rng.choice([0.0, 0.005, 0.02, 0.3]))
        members.append(linear_expr(normal, -(float(normal @ x_hat) - slack), p))
    objective = linear_expr(rng.standard_normal(p), 0.0, p)
    return Problem(p, objective, FiniteFamily(tuple(members))), x_hat


def check_caratheodory(opts, rng, *, samples):
    worst_excess = 0
    worst_residual = 0.0
    for _ in range(samples):
        p = int(rng.integers(2, 5))
        n = p + int(rng.integers(3, 7))
        gens = rng.uniform(-1, 1, size=(n, p))
        weights = rng.dirichlet(np.ones(n))
        target = gens.T @ weights
        idx, reduced = caratheodory_reduce(target, gens, weights)
        worst_excess = max(worst_excess, len(idx) - (p + 1))
        worst_residual = max(worst_residual, float(np.abs(gens[idx].T @ reduced - target).max()))
    ok = worst_excess <= 0 and worst_residual <= 1e-9
    return ok, (
        f"max support excess over p+1 {worst_excess}, worst residual {worst_residual:.2g} "
        f"on {samples} instances"
    )


def check_scaling(opts, rng):
    problem, candidate, fixture_opts = _load("near_active", opts)
    base = certify_fj(problem, candidate, fixture_opts)
    details = []
    ok = True
    for c in (1e-3, 1.0, 1e3):
        objective = parse(f"{c!r} * ({format_expr(problem.objective)})", problem.p)
        scaled = Problem(problem.p, objective, problem.family)
        cert = certify_fj(scaled, candidate, fixture_opts)
        moved = np.abs(cert.x_star - base.x_star).max()
        ok = ok and cert.kind == base.kind and moved <= fixture_opts.tol
        details.append(f"c={c:g}: {cert.kind}")
    return ok, "; ".join(details)


def cone_trials(rng, *, cones, directions):
    """Random cones ``{d : N d <= 0}`` in R^3 with 2 to 6 rows, each against direction sampling.

    Yields one violation per cone: "false nonempty" when the LP's witness is
    not strictly interior, "false empty" when the LP finds no interior but a
    sampled unit direction has margin at least 10 tol, else "".
    """
    tol, dim = 1e-9, 3
    for _ in range(cones):
        m = int(rng.integers(2, 2 * dim + 1))
        normals = rng.standard_normal((m, dim))
        result = cone_interior_nonempty(Polyhedron(normals, np.zeros(m)), tol)
        unit = normals / np.linalg.norm(normals, axis=1, keepdims=True)
        samples = rng.standard_normal((directions, dim))
        samples /= np.linalg.norm(samples, axis=1, keepdims=True)
        if result.nonempty:
            yield "false nonempty" if float((unit @ result.witness).min()) <= 0.0 else ""
        else:
            yield "false empty" if float((samples @ unit.T).min(axis=1).max()) >= 10 * tol else ""


def check_cone_oracle(opts, rng, *, cones, directions):
    found = [v for v in cone_trials(rng, cones=cones, directions=directions) if v]
    false_nonempty = found.count("false nonempty")
    return not found, (
        f"false nonempty: {false_nonempty}, unexplained empty: {len(found) - false_nonempty} "
        f"on {cones} cones x {directions} directions"
    )


if __name__ == "__main__":
    raise SystemExit(run_selftest())
