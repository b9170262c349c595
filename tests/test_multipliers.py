import numpy as np
import pytest

from sipcert import model as model_mod
from sipcert.expr import format_expr, linear_expr, parse
import sipcert.geometry as geometry
import sipcert.lp as lp
from sipcert.fixtures import fixture_path, load_fixture
from sipcert.geometry import (
    Polyhedron,
    first_equal_rows,
    hull_distance,
    one_sided_hull_gap,
    segment_hull_member,
)
from sipcert.model import (
    FiniteFamily,
    IndexSet,
    InfeasibleError,
    ParametricFamily,
    PolyhedralFamily,
    Problem,
)
from sipcert import multipliers
from sipcert.multipliers import _distinct, _ladder_gap, certify_fj, sip_multipliers, tc_approx
from sipcert.options import Options
from sipcert.problemfile import load_problem
from sipcert.work import counting
from sipcert.selftest import ladder_nested

from conftest import active_set


def near_active_problem():
    family = ParametricFamily(
        h=parse("x2 + 1/t1", 2, 1),
        index=IndexSet.box([1.0], [10.0], 10),
        extra=(parse("x1", 2),),
    )
    return Problem(2, parse("-x1^2 - x2", 2), family)


def strict_active_problem():
    members = [parse("x1", 2)] + [parse(f"x2 + 1/{k}", 2) for k in range(1, 11)]
    return Problem(2, parse("-x1^2 - x2", 2), FiniteFamily(tuple(members)))


def linear_sip_problem(grid=257):
    family = ParametricFamily(
        h=parse("1 - t1*x1 - (1 - t1)*x2", 2, 1),
        index=IndexSet.box([0.0], [1.0], grid),
    )
    return Problem(2, parse("x1 + x2", 2), family)


EXN1_OPTS = Options(eps0=1.0)


class TestTcApprox:
    def test_near_active_keeps_the_limit_gradient(self):
        tc = tc_approx(near_active_problem(), (0, 0), EXN1_OPTS)
        assert tc.converged and tc.stopped_by == "stabilized"
        gens = {tuple(g) for g in tc.final}
        assert gens == {(1.0, 0.0), (0.0, 1.0)}
        tags = {tag for tag, _ in tc.labels()}
        assert "phi0" in tags and len(tags) == 2

    def test_finite_family_shortcut(self):
        prob = Problem(2, parse("x1 + x2", 2), FiniteFamily((parse("x1", 2), parse("x2", 2))))
        tc = tc_approx(prob, (0, 0))
        assert tc.converged and tc.stopped_by == "finite_shortcut"
        assert {tuple(g) for g in tc.final} == {(1.0, 0.0), (0.0, 1.0)}

    def test_finite_shortcut_after_a_member_drops_out(self):
        members = (parse("x1", 2), parse("x2", 2), parse("0.005 + x1 + x2", 2))
        prob = Problem(2, parse("-x1 - x2", 2), FiniteFamily(members))
        tc = tc_approx(prob, (0, 0))
        assert tc.stopped_by == "finite_shortcut" and len(tc.ladder) == 3
        assert len(tc.hausdorff_gaps) == len(tc.ladder) - 1  # one gap per later rung
        assert [gap for _, _, gap in tc.ladder_table()] == [None, *tc.hausdorff_gaps]

    def test_strict_family_collapses(self):
        tc = tc_approx(strict_active_problem(), (0, 0))
        assert tc.stopped_by == "finite_shortcut"
        assert {tuple(g) for g in tc.final} == {(1.0, 0.0)}

    def test_linear_sip_segment(self):
        tc = tc_approx(linear_sip_problem(129), (1, 1))
        segment = np.array([[-1.0, 0.0], [0.0, -1.0]])
        gap = max(hull_distance(g, segment) for g in tc.final)
        assert gap <= 1e-9

    def test_interior_point_gives_empty_set(self):
        tc = tc_approx(near_active_problem(), (1, 1), EXN1_OPTS)
        assert tc.interior and tc.converged
        assert len(tc.final) == 0
        assert tc.inf_value == pytest.approx(1.0)

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleError):
            tc_approx(near_active_problem(), (-1, 0), EXN1_OPTS)

    def test_ladder_nesting_on_fixtures(self):
        for prob, x, opts in (
            (near_active_problem(), (0, 0), EXN1_OPTS),
            (strict_active_problem(), (0, 0), Options()),
            (linear_sip_problem(65), (1, 1), Options()),
        ):
            tc = tc_approx(prob, x, opts)
            assert ladder_nested(tc)


class TestLadderGap:
    """Nested rungs: the dropped-rows gap is the two-sided gap, bit for bit, in no more LPs."""

    def _check(self, monkeypatch, grads, values, prev, eps):
        new = prev[values[prev] <= eps]
        calls = _log_fit_pivots(monkeypatch)
        outer, inner = grads[prev], grads[new]
        expected = max(one_sided_hull_gap(outer, inner), one_sided_hull_gap(inner, outer))
        two_sided = len(calls)
        ids = first_equal_rows(grads)
        with counting() as counts:
            gap = _ladder_gap(grads, values, ids, _least_values(ids, values), prev, eps)
        assert gap.hex() == expected.hex()
        assert counts["gap_lps"] == len(calls) - two_sided <= two_sided
        assert counts["gap_pivots"] == sum(calls[two_sided:])
        monkeypatch.undo()
        # the ids drop the rows that the bytewise dedupe of the dropped rows drops
        dropped = np.setdiff1d(prev, new, assume_unique=True)
        both = np.vstack([grads[new], grads[dropped]])
        first = np.flatnonzero(first_equal_rows(both) == np.arange(len(both)))
        assert counts["gap_rows"] == int((first >= new.size).sum())
        return gap

    def test_random_nested_hulls_with_repeats_and_signed_zeros(self, monkeypatch, rng):
        for _ in range(40):
            n, p = int(rng.integers(4, 14)), int(rng.integers(1, 4))
            grads = rng.integers(-2, 3, size=(n, p)).astype(float)  # exact repeats
            i, j = rng.choice(n, size=2, replace=False)
            grads[j] = grads[i]
            grads[i, 0], grads[j, 0] = 0.0, -0.0  # equal as numbers, apart as bytes
            prev = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
            new = np.sort(rng.choice(prev, size=int(rng.integers(1, prev.size + 1)), replace=False))
            gates = np.ones(n)
            gates[new] = 0.0
            self._check(monkeypatch, grads, gates, prev, 0.5)

    def test_id_gates_drop_what_a_mark_array_drops(self, monkeypatch, rng):
        # the rows offered to the gap LPs, against marking the ids of the kept
        # rows: the same rows in the same order, on rungs cut by their gates
        offered = []
        monkeypatch.setattr(
            multipliers, "farthest_row_distance", lambda rows, dst: offered.append(rows) or 0.0
        )
        for _ in range(60):
            n, p = int(rng.integers(4, 14)), int(rng.integers(1, 4))
            grads = rng.integers(-2, 3, size=(n, p)).astype(float)  # exact repeats
            i, j = rng.choice(n, size=2, replace=False)
            grads[j] = grads[i]
            grads[i, 0], grads[j, 0] = 0.0, -0.0  # equal as numbers, apart as bytes
            gates = rng.integers(0, 4, size=n) / 4.0
            prev = np.flatnonzero(gates <= 0.5)
            ids = first_equal_rows(grads)
            kept = gates[prev] <= 0.25
            held = np.zeros(n, dtype=bool)
            held[ids[prev[kept]]] = True
            dropped = prev[~kept]
            expected = _distinct(ids, dropped[~held[ids[dropped]]])
            offered.clear()
            _ladder_gap(grads, gates, ids, _least_values(ids, gates), prev, 0.25)
            assert [rows.tobytes() for rows in offered] == (
                [grads[expected].tobytes()] if dropped.size else []
            )

    def test_distinct_rows_skip_the_sort_and_keep_its_answer(self, rng):
        # rows with and without bytewise repeats: the first row of each id
        # among the rows, as the np.unique path finds it, whichever path runs
        seen = set()
        for _ in range(200):
            n, p = int(rng.integers(1, 12)), int(rng.integers(1, 3))
            grads = rng.integers(-1, 2, size=(n, p)).astype(float)  # repeats when n is large
            if rng.random() < 0.3:
                grads[rng.integers(n), 0] = -0.0  # equal as a number to 0.0, apart as bytes
            ids = first_equal_rows(grads)
            rows = np.sort(rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False))
            expected = rows[np.sort(np.unique(ids[rows], return_index=True)[1])]
            got = _distinct(ids, rows)
            assert got.tobytes() == expected.tobytes()
            fast = bool((ids[rows] == rows).all())
            assert (got is rows) == fast
            seen.add((fast, len(np.unique(ids[rows])) < rows.size))
        assert seen == {(True, False), (False, False), (False, True)}

    def test_sip_trig_ladder(self, monkeypatch):
        loaded = load_fixture("sip_trig")
        opts = Options().replace(**loaded.options)
        tc = tc_approx(loaded.problem, loaded.candidate, opts)
        assert len(tc.ladder) >= 3
        scan = tc.ladder[0][1].scan
        gaps = [
            self._check(monkeypatch, scan.grads, scan.values, prev.entries, eps)
            for (_, prev), (eps, _) in zip(tc.ladder, tc.ladder[1:])
        ]
        assert [g.hex() for g in gaps] == [g.hex() for g in tc.hausdorff_gaps]

    def test_quarter_circle_ladder_prunes_gap_lps(self, monkeypatch, sphere_ladder):
        prob, x = sphere_ladder(1025, [400])
        calls = _log_fit_pivots(monkeypatch)
        with counting() as counts:
            tc = tc_approx(prob, x, Options())
        monkeypatch.undo()
        assert tc.stopped_by == "stabilized" and len(tc.ladder) >= 3
        assert len(calls) <= 20  # every dropped row of every rung is 368 LPs
        assert counts["gap_lps"] == len(calls)
        assert counts["gap_pivots"] == sum(calls)
        grads = tc.ladder[0][1].scan.grads
        unpruned = [
            _unpruned_ladder_gap(grads, prev.entries, new.entries)
            for (_, prev), (_, new) in zip(tc.ladder, tc.ladder[1:])
        ]
        assert [g.hex() for g in tc.hausdorff_gaps] == [g.hex() for g in unpruned]

    @pytest.mark.parametrize("ladder, gap_lps, gap_pivots, all_exit", [
        # the quarter circle: every gap LP ends at its first pivot
        ((1025, [400]), 12, 12, True),
        # the 65^2 octant: some gap LPs need more pivots than the first
        ((65, [40, 16]), 18, 41, False),
    ])
    def test_gap_lps_that_end_at_their_first_pivot_run_no_simplex(
        self, monkeypatch, sphere_ladder, ladder, gap_lps, gap_pivots, all_exit
    ):
        # the work counts are those of the simplex run on every gap LP
        solved, inside = [], []
        solve, distance = geometry.solve_lp, geometry.hull_distance

        def logged(*args, **kwargs):
            if inside:  # called under hull_distance: a gap LP runs the simplex
                solved.append(1)
            return solve(*args, **kwargs)

        def gap_lp(*args, **kwargs):
            inside.append(1)
            try:
                return distance(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(geometry, "solve_lp", logged)
        monkeypatch.setattr(geometry, "hull_distance", gap_lp)
        with counting() as work:
            tc_approx(*sphere_ladder(*ladder), Options())
        assert (work["gap_lps"], work["gap_pivots"]) == (gap_lps, gap_pivots)
        assert (solved == []) == all_exit

    def test_signed_zero_twins_and_a_dropped_repeat_of_a_kept_row(self, monkeypatch):
        # no family kind gives -0.0 in a gradient, so the rows are given directly
        normals = np.array([
            [0.0, 1.0], [-0.0, 1.0],  # kept to the end: twins apart as bytes
            [0.0, 1.0],  # dropped at the third rung, a repeat of a kept row
            [1.0, 1.0], [1.0, 1.0],  # dropped together at the second rung
            [-0.0, 1.0],  # dropped at the second rung, a repeat of a kept row
            [-1.0, 1.0],  # dropped at the third rung ...
            [-1.0, 1.0],  # ... before its repeat, which is kept to the end
            [2.0, 1.0],  # dropped at the third rung
        ])
        values = np.array([0.0, 0.0, 0.004, 0.008, 0.006, 0.009, 0.003, 0.0, 0.003])  # at x = 0
        with counting() as counts:
            tc = tc_approx(Problem(2, parse("-x2", 2), _RowsFamily(values, normals)), (0.0, 0.0))
        scan = tc.ladder[0][1].scan
        assert np.signbit(scan.grads[:, 0]).tolist() == [0, 1, 0, 0, 0, 1, 1, 1, 0]
        assert tc.stopped_by == "finite_shortcut" and len(tc.ladder) == 3
        gaps = [
            self._check(monkeypatch, scan.grads, scan.values, prev.entries, eps)
            for (_, prev), (eps, _) in zip(tc.ladder, tc.ladder[1:])
        ]
        assert [g.hex() for g in gaps] == [g.hex() for g in tc.hausdorff_gaps]
        rows = tc.ladder[-1][1].entries
        assert np.array_equal(tc.final_rows, rows[first_equal_rows(scan.grads[rows]) == np.arange(rows.size)])
        assert tc.final_rows.tolist() == [0, 1, 7]
        # offered: one of the two (1, 1) rows at the second rung, (2, 1) at the third
        assert counts == {"gap_lps": 2, "gap_rows": 2, "gap_pivots": 3}

    def test_signed_zero_facets_give_one_generator(self):
        # facets y2 >= 0 written with normals (0, 1) and (-0, 1)
        family = PolyhedralFamily(Polyhedron(np.array([[0.0, 1.0], [-0.0, 1.0]]), np.zeros(2)))
        assert not np.signbit(family.normalized()[0]).any()
        tc = tc_approx(Problem(2, parse("-x2", 2), family), (0.0, 0.0))
        assert len(tc.ladder[-1][1].entries) == 2
        assert tc.final.tolist() == [[0.0, 1.0]] and tc.final_rows.tolist() == [0]


def _least_values(ids, values):
    """The smallest value of the rows of each id, as ``tc_approx`` passes it to ``_ladder_gap``."""
    least = np.full(ids.size, np.inf)
    np.minimum.at(least, ids, values)
    return least


def _log_fit_pivots(monkeypatch):
    """The pivots of every fit LP ``geometry._fit`` runs from here on, one entry per LP."""
    pivots = []
    fit = geometry._fit

    def logged(*args, **kwargs):
        result = fit(*args, **kwargs)
        pivots.append(result[2])
        return result

    monkeypatch.setattr(geometry, "_fit", logged)
    return pivots


class _RowsFamily(model_mod._Family):
    """A family known in full by its values and gradients at one x, row by row."""

    kind = "finite"

    def __init__(self, values, grads):
        self._rows = values, grads

    @property
    def arity(self):
        return self._rows[1].shape[1]

    def values(self, x):
        return self._rows[0]

    def gradients(self, x, rows, kink_tol=None):
        return self._rows[1][rows]

    def _indexed_labels(self, idx):
        return [(f"r{j}", None) for j in idx]


def _unpruned_ladder_gap(grads, prev, new):
    """The largest LP distance of a deduped dropped row to the new rung's hull."""
    dropped = np.setdiff1d(prev, new, assume_unique=True)
    both = np.vstack([grads[new], grads[dropped]])
    first = np.flatnonzero(first_equal_rows(both) == np.arange(len(both)))
    return max([0.0] + [hull_distance(g, grads[new]) for g in both[first[first >= len(new)]]])


class TestCertifyFj:
    def test_near_active_kkt(self):
        cert = certify_fj(near_active_problem(), (0, 0), EXN1_OPTS)
        assert cert.kind == "kkt"
        assert cert.lam == pytest.approx(0.5, abs=1e-9)
        assert cert.beta == pytest.approx(0.5, abs=1e-9)
        assert np.allclose(cert.x_star, [0, 1], atol=1e-9)
        assert np.allclose(cert.grad_f, [0, -1])
        assert cert.zero_not_in_tc
        assert cert.residual <= 1e-9
        assert len(cert.coeffs) <= 3

    def test_strict_variant_refuses(self):
        cert = certify_fj(strict_active_problem(), (0, 0))
        assert cert.kind == "no_certificate"

    def test_unconstrained_interior(self):
        prob = Problem(2, parse("-(x1 - 1)^2 - (x2 - 1)^2", 2), near_active_problem().family)
        cert = certify_fj(prob, (1, 1), EXN1_OPTS)
        assert cert.kind == "unconstrained"
        assert cert.tc.interior

    def test_interior_with_nonzero_gradient(self):
        cert = certify_fj(near_active_problem(), (1, 1), EXN1_OPTS)
        assert cert.kind == "no_certificate"

    def test_zero_gradient_at_boundary_is_direct_fj(self):
        prob = Problem(2, parse("-x1^2 - x2^2", 2), near_active_problem().family)
        cert = certify_fj(prob, (0, 0), EXN1_OPTS)
        assert cert.found
        assert cert.lam == 1.0 and cert.beta == 0.0
        assert cert.residual <= 1e-9

    def test_certificate_invariants(self):
        cert = certify_fj(near_active_problem(), (0, 0), EXN1_OPTS)
        assert cert.lam + cert.beta == pytest.approx(1.0, abs=1e-12)
        recomputed = np.abs(
            cert.lam * cert.grad_f
            + cert.beta * sum(w * g for (_, _, w), g in zip(cert.coeffs, _support_gens(cert)))
        ).max()
        assert recomputed <= 1e-9

    def test_objective_scaling_invariance(self):
        base = certify_fj(near_active_problem(), (0, 0), EXN1_OPTS)
        for c in (1e-3, 1e3):
            prob = near_active_problem()
            objective = parse(f"{c!r} * ({format_expr(prob.objective)})", 2)
            scaled = Problem(2, objective, prob.family)
            cert = certify_fj(scaled, (0, 0), EXN1_OPTS)
            assert cert.kind == base.kind
            assert np.abs(cert.x_star - base.x_star).max() <= 1e-8
            # (lambda, beta) renormalize predictably
            expected_lam = base.lam / (base.lam + c * base.beta) * 1.0
            expected_lam = base.lam / (base.lam + c * (1 - base.lam))
            assert cert.lam == pytest.approx(expected_lam, rel=1e-6)


def _support_gens(cert):
    hull = cert.tc.final
    return [hull[i] for i in cert.support]


class TestSipMultipliers:
    def test_linear_sip_closed_form(self):
        sm = sip_multipliers(certify_fj(linear_sip_problem(257), (1, 1)))
        assert sm.found
        assert sm.k == 1
        assert sm.lambda0 == pytest.approx(1 / 3, abs=1e-6)
        tag, param, weight, gen = sm.entries[0]
        assert weight == pytest.approx(2 / 3, abs=1e-6)
        assert param[0] == pytest.approx(0.5, abs=1e-6)
        assert sm.residual <= 1e-9
        assert sm.lambda0 + sum(e[2] for e in sm.entries) == pytest.approx(1.0, abs=1e-9)

    def test_near_active_recast(self):
        sm = sip_multipliers(certify_fj(near_active_problem(), (0, 0), EXN1_OPTS), EXN1_OPTS)
        assert sm.found
        assert sm.lambda0 == pytest.approx(0.5, abs=1e-9)
        assert sm.k == 1
        assert np.allclose(sm.entries[0][3], [0, 1])
        assert sm.entries[0][2] == pytest.approx(0.5, abs=1e-9)

    def test_infeasible_precondition(self):
        # the certificate a recast needs is never made at an infeasible x
        with pytest.raises(InfeasibleError):
            certify_fj(linear_sip_problem(65), (2, 2))

    def test_interior_precondition(self):
        with pytest.raises(ValueError):
            sip_multipliers(certify_fj(linear_sip_problem(65), (0, 0)))


class TestConstructedOptima:
    """Closed-loop check: objectives synthesized from the active hull.

    Place a random point on the sampled constraint boundary, take any
    convex combination x* of its near-active gradients, and use -c x* as
    the (linear) objective gradient: the first-order condition holds by
    construction, so certification must succeed with a tight residual.
    Random objectives at the same points are refused (no certificate),
    which the brute-force oracle class below covers.
    """

    def test_synthesized_objectives_certify(self, rng):
        from sipcert.expr import evaluate_many

        template = "1 + {a}*x1*t1 + {b}*x2*(1 - t1) - 0.2*x1^2 - 0.2*x2^2"
        grid_pts = np.linspace(0, 1, 65).reshape(-1, 1)
        found = 0
        for _ in range(25):
            a, b = round(rng.uniform(-1, 1), 3), round(rng.uniform(-1, 1), 3)
            base_src = template.format(a=a, b=b)
            base = parse(base_src, 2, 1)
            x = rng.uniform(-1, 1, size=2)
            shift = float(evaluate_many(base, x, grid_pts).min())
            h = parse(f"({base_src}) - ({shift!r})", 2, 1)
            family = ParametricFamily(h=h, index=IndexSet.box([0.0], [1.0], 65))
            probe = Problem(2, linear_expr([1.0, 0.0], 0.0, 2), family)
            try:
                tc = tc_approx(probe, x)
            except InfeasibleError:
                continue  # refinement found a lower point than the grid did
            if len(tc.final) == 0:
                continue
            alpha = rng.dirichlet(np.ones(len(tc.final)))
            x_star = tc.final.T @ alpha
            prob = Problem(2, linear_expr(-rng.uniform(0.5, 2.0) * x_star, 0.0, 2), family)
            cert = certify_fj(prob, x)
            assert cert.found
            assert cert.residual <= 1e-7
            assert cert.lam + cert.beta == pytest.approx(1.0, abs=1e-12)
            assert len(cert.coeffs) <= 3
            found += 1
        assert found >= 15  # the construction succeeds for most draws


class TestClosedFormAgreement:
    """tc_approx.final vs the exact-activity hull on the SIP fixtures.

    For parametric families with continuous data the multiplier set is the
    hull of the gradients over the exactly active parameters; the ladder's
    final hull must sit inside it (one-sided Hausdorff at most 1e-6).
    """

    @pytest.mark.parametrize("name", ["sip_linear", "sip_trig"])
    def test_one_sided_hausdorff(self, name):
        from sipcert.fixtures import fixture_path
        from sipcert.problemfile import load_problem

        loaded = load_problem(fixture_path(name), 257)
        opts = Options().replace(**loaded.options)
        tc = tc_approx(loaded.problem, loaded.candidate, opts)
        reference = active_set(loaded.problem, loaded.candidate, opts.tol_feas, opts).hull()
        gap = one_sided_hull_gap(tc.final, reference)
        assert gap <= 1e-6


class TestBruteForceOracle:
    """certify_fj verdicts vs exhaustive (lambda, alpha) grid search.

    Random strictly-active linear families in the plane; instances whose
    grid residual falls in the ambiguous band between in and out are
    regenerated, the decision boundary itself being unresolvable at grid
    resolution.
    """

    def test_50_random_instances(self, rng):
        checked = 0
        disagreements = []
        while checked < 50:
            m = int(rng.integers(1, 6))
            x_hat = rng.uniform(-0.5, 0.5, size=2)
            normals = rng.standard_normal((m, 2))
            normals /= np.linalg.norm(normals, axis=1, keepdims=True)
            members = tuple(
                linear_expr(a, -float(a @ x_hat), 2) for a in normals
            )
            objective = linear_expr(rng.standard_normal(2), 0.0, 2)
            prob = Problem(2, objective, FiniteFamily(members))
            cert = certify_fj(prob, x_hat)
            grad_f = cert.grad_f
            residual = _fj_grid_residual(grad_f, normals)
            resolution = 0.08
            if residual > 1e-6 and residual <= 4 * resolution:
                continue  # ambiguous at grid resolution; resample
            oracle_member = residual <= resolution
            checked += 1
            if oracle_member != cert.found:
                disagreements.append((normals, grad_f))
        assert not disagreements

    def test_oracle_matches_on_near_active_geometry(self):
        # 0 in [(0,-1), conv{(1,0),(0,1)}] but not in [(0,-1), {(1,0)}]
        assert _fj_grid_residual(np.array([0.0, -1.0]), np.array([[1.0, 0.0], [0.0, 1.0]])) <= 1e-9
        assert _fj_grid_residual(np.array([0.0, -1.0]), np.array([[1.0, 0.0]])) > 0.3


def _fj_grid_residual(grad_f, gens, steps=100):
    """min over a (lambda, alpha) grid of |lambda grad_f + (1-lambda) sum alpha g|."""
    lams = np.linspace(0.0, 1.0, steps + 1)
    best = np.inf
    n = len(gens)
    if n == 1:
        combos = np.array([[1.0]])
    else:
        # pairs of generators cover the hull boundary; Caratheodory in the
        # plane means pairs plus vertices suffice for the minimum residual
        weights = np.linspace(0.0, 1.0, steps + 1)
        combos = []
        for i in range(n):
            for j in range(i + 1, n):
                for w in weights:
                    row = np.zeros(n)
                    row[i] = w
                    row[j] = 1.0 - w
                    combos.append(row)
            row = np.zeros(n)
            row[i] = 1.0
            combos.append(row)
        combos = np.array(combos)
    hull_points = combos @ gens
    for lam in lams:
        residuals = np.abs(lam * grad_f + (1 - lam) * hull_points).max(axis=1)
        best = min(best, float(residuals.min()))
    return best


def full_circle_fj_problem(grid=1025):
    # every t is active at x = 0 and the gradients fill the circle: Fritz John
    family = ParametricFamily(
        h=parse("x1*cos(t1 + 0.7) + x2*sin(t1 + 0.7)", 2, 1),
        index=IndexSet.box([0.0], [2 * np.pi], grid),
    )
    return Problem(2, parse("0.8*x1 - 1.3*x2", 2), family)


def _fixture_certificate(name):
    loaded = load_fixture(name)
    return certify_fj(loaded.problem, loaded.candidate, Options().replace(**loaded.options))


@pytest.mark.parametrize("grid", [1025, 1026])
def test_sip_chebyshev_meets_the_closed_form(grid):
    # best uniform approximation of t^5 by quartics on [-1, 1], at its optimum:
    # lambda = 1/2 and p = 6 support points, the alternation points
    # cos(k pi / 5), with weights 1/20 at +-1 and 1/10 inside
    # (Chebyshev-Gauss-Lobatto); the support points lie off the grid
    loaded = load_problem(fixture_path("sip_chebyshev"), grid)
    opts = Options().replace(**loaded.options)
    cert = certify_fj(loaded.problem, loaded.candidate, opts)
    sip = sip_multipliers(cert, opts)
    assert cert.kind == "kkt" and abs(cert.lam - 0.5) <= 1e-12
    assert abs(sip.lambda0 - 0.5) <= 1e-12
    assert len(sip.entries) == loaded.problem.p == 6
    cell = 2.0 * loaded.problem.family.index.steps()[0] / 2**opts.refine_depth
    nodes = np.cos(np.arange(6) * np.pi / 5)
    hit = []
    for _, t, weight, _ in sip.entries:
        k = int(np.abs(nodes - t[0]).argmin())
        assert abs(nodes[k] - t[0]) <= cell
        assert abs(weight - (1 / 20 if k in (0, 5) else 1 / 10)) <= 1e-3
        hit.append(k)
    assert sorted(hit) == list(range(6))


class TestCanonicalLambda:
    """A Fritz John lambda that is not unique is reported as the largest one."""

    def test_sip_trig_lambda_is_the_largest(self):
        # 0 = lam (1, 2) + (1 - lam) g with |g| <= 1 allows lam up to 1 / (1 + sqrt 5)
        cert = _fixture_certificate("sip_trig")
        assert cert.kind == "fj"
        assert cert.lam == pytest.approx(1 / (1 + np.sqrt(5)), abs=1e-5)

    @pytest.mark.parametrize("case", ["sip_trig", "full_circle"])
    @pytest.mark.parametrize("bland", [False, True])
    def test_lambda_depends_on_neither_generator_order_nor_pivot_rule(
        self, case, bland, monkeypatch
    ):
        if case == "sip_trig":
            cert = _fixture_certificate("sip_trig")
        else:
            cert = certify_fj(full_circle_fj_problem(), (0, 0))
        assert cert.kind == "fj"
        if bland:
            monkeypatch.setattr(lp, "_DEGENERATE_RUN", 0)  # Bland's rule from the start
        gens = cert.tc.final
        rng = np.random.default_rng(7)
        for _ in range(3):
            shuffled = gens[rng.permutation(len(gens))]
            seg = segment_hull_member(np.zeros(2), cert.grad_f, shuffled)
            assert seg.member
            assert seg.lam == pytest.approx(cert.lam, abs=1e-9)


def test_sip_linear_needs_few_pivots(monkeypatch):
    # Bland's lowest-index rule alone needs 517 pivots on these two 1,025-column LPs
    pivots = []
    solve = geometry.solve_lp

    def counted(*args, **kwargs):
        sol = solve(*args, **kwargs)
        pivots.append(sol.pivots)
        return sol

    monkeypatch.setattr(geometry, "solve_lp", counted)
    cert = _fixture_certificate("sip_linear")  # grid 1025
    assert cert.kind == "kkt"
    assert len(pivots) == 2
    assert sum(pivots) <= 20
