"""Bundled fixture suite and reduced property checks behind `sipcert selftest`.

Every check prints one ok/FAIL line; the command exits 0 only if all pass.
Sample counts here are reduced relative to the full pytest suite; the
random streams are seeded via SIPCERT_SEED.
"""

from __future__ import annotations

import numpy as np

from .expr import evaluate, gradient, parse
from .fixtures import load_fixture
from .geometry import (
    Hull,
    caratheodory_reduce,
    cone_interior_nonempty,
    hull_member,
    one_sided_hull_gap,
)
from .geometry import Polyhedron
from .model import admissible_diagnostics, active_set
from .multipliers import certify_fj, sip_multipliers, tc_approx
from .options import Options, resolve_seed
from .problemfile import emit_json
from .reduction import certify_composed, certify_equality, convex_set_multiplier

__all__ = ["run_selftest", "ladder_nested"]


def run_selftest(tol=None, as_json=False) -> int:
    opts = Options().replace(tol=tol)
    rng = np.random.default_rng(resolve_seed())
    checks = [
        ("near-active window certificate", _check_near_active),
        ("strictly-active variant refuses", _check_strict_active),
        ("linear SIP multipliers", _check_sip_linear),
        ("trigonometric SIP certificate", _check_sip_trig),
        ("circle equality multiplier", _check_circle),
        ("duplicated-row equality degeneracy", _check_duprow),
        ("equality with polyhedral set", _check_orthant_line),
        ("composed parabola certificate", _check_parabola),
        ("cone admissibility fixtures", _check_cones),
        ("gradients vs central differences", _check_gradients),
        ("hull membership vs grid oracle", _check_hull_oracle),
        ("ladder nesting", _check_nesting),
        ("caratheodory support bound", _check_caratheodory),
        ("objective-scaling invariance", _check_scaling),
        ("cone interior vs direction sampling", _check_cone_oracle),
    ]
    results = []
    failures = 0
    for name, fn in checks:
        try:
            ok, detail = fn(opts, rng)
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


def _load(name, opts):
    loaded = load_fixture(name)
    return loaded.problem, loaded.candidate, opts.replace(**loaded.options), loaded.grid


def _check_near_active(opts, rng):
    problem, candidate, fixture_opts, grid = _load("near_active", opts)
    cert = certify_fj(problem, candidate, fixture_opts, grid)
    gens = {tuple(np.round(g, 12)) for g in cert.tc.final.generators}
    ok = (
        cert.kind == "kkt"
        and gens == {(1.0, 0.0), (0.0, 1.0)}
        and abs(cert.lam - 0.5) <= 1e-9
        and abs(cert.beta - 0.5) <= 1e-9
        and np.abs(cert.x_star - np.array([0.0, 1.0])).max() <= 1e-9
        and cert.residual <= fixture_opts.tol
    )
    return ok, f"kind={cert.kind} lam={cert.lam:.3g} beta={cert.beta:.3g} residual={cert.residual:.2g}"


def _check_strict_active(opts, rng):
    problem, candidate, fixture_opts, grid = _load("strict_active", opts)
    cert = certify_fj(problem, candidate, fixture_opts, grid)
    strict_hull = {tuple(float(v) for v in np.round(g, 12)) for g in cert.tc.final.generators}
    ok = cert.kind == "no_certificate" and strict_hull == {(1.0, 0.0)}
    return ok, f"kind={cert.kind} final={sorted(strict_hull)}"


def _check_sip_linear(opts, rng):
    problem, candidate, fixture_opts, _ = _load("sip_linear", opts)
    grid = 257  # reduced from the bundled 1025
    sm = sip_multipliers(problem, candidate, fixture_opts, grid)
    ok = (
        sm.found
        and sm.k == 1
        and abs(sm.lambda0 - 1.0 / 3.0) <= 1e-6
        and abs(sm.entries[0][2] - 2.0 / 3.0) <= 1e-6
        and abs(sm.entries[0][1][0] - 0.5) <= 1e-6
        and sm.residual <= 1e-9
    )
    return ok, f"lambda0={sm.lambda0:.6g} k={sm.k} residual={sm.residual:.2g}"


def _check_sip_trig(opts, rng):
    problem, candidate, fixture_opts, _ = _load("sip_trig", opts)
    grid = 257
    cert = certify_fj(problem, candidate, fixture_opts, grid)
    tc = cert.tc
    reference = active_set(problem, candidate, fixture_opts.tol_feas, fixture_opts, grid).hull()
    gap = one_sided_hull_gap(tc.final, reference)
    ok = cert.kind == "fj" and cert.residual <= fixture_opts.tol and gap <= 1e-6
    return ok, f"kind={cert.kind} closed-form gap={gap:.2g} residual={cert.residual:.2g}"


def _check_circle(opts, rng):
    problem, candidate, fixture_opts, grid = _load("eq_circle", opts)
    cert = certify_equality(problem, candidate, fixture_opts, grid)
    ok = (
        cert.found
        and cert.branch == "onto_no_a"
        and abs(cert.lambda0 - 1.0) <= 1e-9
        and abs(cert.w_star[0] + 0.5) <= 1e-9
        and cert.residual <= 1e-9
    )
    return ok, f"branch={cert.branch} w*={cert.w_star} residual={cert.residual:.2g}"


def _check_duprow(opts, rng):
    problem, candidate, fixture_opts, grid = _load("eq_duplicated_rows", opts)
    cert = certify_equality(problem, candidate, fixture_opts, grid)
    unit = abs(np.linalg.norm(cert.w_star) - 1.0) <= 1e-9
    orthogonal = np.abs(cert.jacobian.matrix.T @ cert.w_star).max() <= 1e-9
    ok = cert.branch == "not_onto" and unit and orthogonal
    return ok, f"branch={cert.branch} |w*|={np.linalg.norm(cert.w_star):.12g}"


def _check_orthant_line(opts, rng):
    problem, candidate, fixture_opts, grid = _load("eq_orthant_line", opts)
    cert = certify_equality(problem, candidate, fixture_opts, grid)
    check = convex_set_multiplier(problem.family.poly, candidate, cert.z_star, 1e-8)
    ok = cert.found and cert.branch == "onto_with_a" and cert.residual <= fixture_opts.tol and check.passed
    return ok, f"branch={cert.branch} residual={cert.residual:.2g} convex-set={check.passed}"


def _check_parabola(opts, rng):
    problem, candidate, fixture_opts, grid = _load("composed_parabola", opts)
    cert = certify_composed(problem, candidate, fixture_opts, grid)
    check = convex_set_multiplier(
        problem.family.poly,
        np.array([evaluate(g, candidate) for g in problem.inner_map]),
        cert.beta * cert.y_star,
        1e-8,
    )
    ok = (
        cert.kind == "kkt"
        and np.abs(cert.y_star - np.array([0.0, 1.0])).max() <= 1e-9
        and cert.residual <= fixture_opts.tol
        and check.passed
    )
    return ok, f"kind={cert.kind} y*={cert.y_star} convex-set={check.passed}"


def _check_cones(opts, rng):
    orthant, o_cand, o_opts, _ = _load("cone_orthant", opts)
    hyper, h_cand, h_opts, _ = _load("cone_hyperplane", opts)
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


_SMOOTH_EXPRS = (
    "x1*x2 - 0.5*x1^2 + sin(x2)",
    "cos(x1) + x2^3 - 0.25*x1*x2",
    "exp(0.3*x1 - 0.2*x2) + x1*x2",
    "x1^2*x2 + x2/(2 + x1^2)",
    "sin(x1*x2) + 0.5*cos(x1 - x2)",
)


def _central_difference(f, x, t=None, step=1e-6):
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.size)
    for i in range(x.size):
        forward, backward = x.copy(), x.copy()
        forward[i] += step
        backward[i] -= step
        out[i] = (evaluate(f, forward, t) - evaluate(f, backward, t)) / (2 * step)
    return out


def _check_gradients(opts, rng, samples=40):
    worst = 0.0
    for _ in range(samples):
        f = parse(_SMOOTH_EXPRS[rng.integers(len(_SMOOTH_EXPRS))], 2)
        x = rng.uniform(-1, 1, size=2)
        g = gradient(f, x)
        fd = _central_difference(f, x)
        worst = max(worst, np.abs(g - fd).max() / (1.0 + np.abs(g).max()))
    return worst <= 1e-6, f"worst relative gap {worst:.2g} over {samples} samples"


def _check_hull_oracle(opts, rng, samples=20):
    disagreements = 0
    for _ in range(samples):
        gens = rng.uniform(-1, 1, size=(4, 2))
        hull = Hull(gens)
        if rng.random() < 0.5:
            weights = rng.dirichlet(np.ones(4))
            target = gens.T @ weights
        else:
            target = rng.uniform(-1, 1, size=2) * 3.0
        lp_member = hull_member(target, hull, 1e-6).member
        oracle_member, decisive = _grid_hull_oracle(target, gens)
        if decisive and oracle_member != lp_member:
            disagreements += 1
    return disagreements == 0, f"{disagreements} disagreements over {samples} instances"


def _grid_hull_oracle(target, gens, steps=40):
    """Brute-force simplex grid; returns (member, decisive)."""
    best = np.inf
    grid = np.linspace(0.0, 1.0, steps + 1)
    for a in grid:
        for b in grid:
            if a + b > 1.0:
                continue
            for c in grid:
                if a + b + c > 1.0:
                    continue
                d = 1.0 - a - b - c
                point = a * gens[0] + b * gens[1] + c * gens[2] + d * gens[3]
                best = min(best, np.abs(point - target).max())
    resolution = 2.0 * np.abs(gens).max() / steps
    member = best <= resolution
    decisive = best <= resolution or best > 4 * resolution  # skip the ambiguous band
    return member, decisive


def _check_nesting(opts, rng, samples=10):
    for name in ("near_active", "sip_linear"):
        problem, candidate, fixture_opts, grid = _load(name, opts)
        if name == "sip_linear":
            grid = 129
        tc = tc_approx(problem, candidate, fixture_opts, grid)
        if not ladder_nested(tc):
            return False, f"fixture {name} ladder not nested"
    for _ in range(samples):
        problem, candidate = _random_finite_problem(rng)
        tc = tc_approx(problem, candidate, opts)
        if not ladder_nested(tc):
            return False, "random instance ladder not nested"
    return True, "candidate sets nested and hulls contained on every ladder"


def ladder_nested(tc) -> bool:
    """Each rung's candidates are among the rung before's, and its gradients in that hull."""
    for (_, outer), (_, inner) in zip(tc.ladder, tc.ladder[1:]):
        if not np.isin(inner.entries, outer.entries).all():
            return False
        outer_hull = outer.hull()
        for grad in inner.hull().generators:
            if not hull_member(grad, outer_hull, 1e-7).member:
                return False
    return True


def _random_finite_problem(rng, p=2, members=4):
    from .model import FiniteFamily, Problem
    from .expr import linear_expr

    x_hat = rng.uniform(-0.5, 0.5, size=p)
    exprs = []
    for _ in range(members):
        normal = rng.standard_normal(p)
        normal /= np.linalg.norm(normal)
        offset = float(normal @ x_hat) - float(rng.choice([0.0, 0.0, 0.2]))
        exprs.append(linear_expr(normal, -offset, p))
    coeffs = rng.standard_normal(p)
    objective = linear_expr(coeffs, 0.0, p)
    return Problem(p, objective, FiniteFamily(tuple(exprs))), x_hat


def _check_caratheodory(opts, rng, samples=20):
    for _ in range(samples):
        p = int(rng.integers(2, 5))
        n = p + 4
        gens = rng.uniform(-1, 1, size=(n, p))
        weights = rng.dirichlet(np.ones(n))
        target = gens.T @ weights
        hull = Hull(gens)
        idx, reduced = caratheodory_reduce(target, hull, weights)
        residual = np.abs(gens[idx].T @ reduced - target).max()
        if len(idx) > p + 1 or residual > 1e-9:
            return False, f"support {len(idx)} residual {residual:.2g}"
    return True, f"support <= p+1 and residual <= 1e-9 on {samples} instances"


def _check_scaling(opts, rng):
    problem, candidate, fixture_opts, grid = _load("near_active", opts)
    base = certify_fj(problem, candidate, fixture_opts, grid)
    for c in (1e-3, 1e3):
        from .expr import ExprFn, Bin, Num
        from .model import Problem

        scaled_obj = ExprFn(Bin("*", Num(c), problem.objective.ast), problem.p)
        scaled = Problem(problem.p, scaled_obj, problem.family)
        cert = certify_fj(scaled, candidate, fixture_opts, grid)
        if cert.kind != base.kind or np.abs(cert.x_star - base.x_star).max() > fixture_opts.tol:
            return False, f"scale {c}: kind {cert.kind}, witness moved"
    return True, "verdict and witness stable for c in {1e-3, 1, 1e3}"


def _check_cone_oracle(opts, rng, cones=10, directions=2000):
    for _ in range(cones):
        m = int(rng.integers(2, 6))
        normals = rng.standard_normal((m, 3))
        poly = Polyhedron(normals, np.zeros(m))
        result = cone_interior_nonempty(poly, 1e-9)
        unit = normals / np.linalg.norm(normals, axis=1, keepdims=True)
        samples = rng.standard_normal((directions, 3))
        samples /= np.linalg.norm(samples, axis=1, keepdims=True)
        margins = (samples @ unit.T).min(axis=1)
        best = float(margins.max())
        if result.nonempty:
            witness_margin = float((unit @ result.witness).min())
            if witness_margin <= 0:
                return False, "false nonempty: witness outside the cone"
        elif best >= 10 * 1e-9:
            return False, f"false empty: sampled margin {best:.2g}"
    return True, f"agreement on {cones} random cones"


if __name__ == "__main__":
    raise SystemExit(run_selftest())
