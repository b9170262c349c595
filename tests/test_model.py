import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sipcert import model as model_mod
from sipcert.expr import (
    EvalDomainError,
    ExprError,
    KinkError,
    evaluate,
    evaluate_list,
    evaluate_many,
    gradient,
    gradient_list,
    parse,
)
from sipcert.fixtures import fixture_names, fixture_path, load_fixture
from sipcert.geometry import Polyhedron, polyhedron_minimize
from sipcert.model import (
    FamilyScan,
    FiniteFamily,
    GridError,
    IndexSet,
    InfeasibleError,
    ParametricFamily,
    PolyhedralFamily,
    Problem,
    admissible_diagnostics,
    equi_lipschitz_estimate,
    evaluate_family,
    feasibility,
)
from sipcert.multipliers import certify_fj, tc_approx
from sipcert.options import Options
from sipcert.problemfile import load_problem
from sipcert.work import counting

from conftest import active_set, chebyshev_doc


def near_active_problem():
    """phi0 = x1 plus the countable members x2 + 1/k, k = 1..10, as the box [1, 10] on grid 10."""
    family = ParametricFamily(
        h=parse("x2 + 1/t1", 2, 1),
        index=IndexSet.box([1.0], [10.0], 10),
        extra=(parse("x1", 2),),
    )
    return Problem(2, parse("-x1^2 - x2", 2), family)


def linear_sip_problem(grid=129):
    family = ParametricFamily(
        h=parse("1 - t1*x1 - (1 - t1)*x2", 2, 1),
        index=IndexSet.box([0.0], [1.0], grid),
    )
    return Problem(2, parse("x1 + x2", 2), family)


class TestIndexSet:
    def test_box_validation(self):
        with pytest.raises(ValueError):
            IndexSet.box([1.0], [0.0], 5)
        with pytest.raises(ValueError):
            IndexSet.box([0.0], [1.0], 1)

    def test_a_grid_past_the_largest_index_is_refused_when_built(self):
        # 10**400 points on one axis, 2**32 on each of two, 2 on each of 63
        message = "grid ** t_dim exceeds the largest index, 9223372036854775807"
        for t_dim, grid in ((1, 10**400), (2, 2**32), (2, np.int64(2**32)), (63, 2), (1, 2**63)):
            with pytest.raises(GridError, match=f"^{message.replace('*', '[*]')}$"):
                IndexSet.box([0.0] * t_dim, [1.0] * t_dim, grid)
        # the grid is checked before the box, and the largest grid builds
        with pytest.raises(GridError):
            IndexSet.box([1.0], [0.0], 10**400)
        assert IndexSet.box([0.0], [1.0], 2**63 - 1).base_grid == 2**63 - 1

    @pytest.mark.parametrize("grid", [10.9, 10.0, np.float64(10.0), "10", None])
    def test_a_grid_that_is_not_an_integer_is_refused(self, grid):
        # int() would build a 10-point grid from 10.9
        message = f"base_grid must be an integer, got {grid!r}"
        with pytest.raises(GridError, match=f"^{re.escape(message)}$"):
            IndexSet.box([0.0], [1.0], grid)
        index = IndexSet.box([0.0], [1.0], np.int32(10))  # a numpy integer still passes
        assert type(index.base_grid) is int and len(index.grid_points()) == 10

    def test_countable_family_is_the_integer_box(self):
        # {x2 + 1/k : k <= 10} is x2 + 1/t1 on the grid 10 of [1, 10], bit for bit
        x = np.array([0.3, 0.7])
        family = near_active_problem().family
        assert family.index.grid_points()[:, 0].tolist() == [float(k) for k in range(1, 11)]
        expected = [x[0]] + [x[1] + 1.0 / k for k in range(1, 11)]
        assert family.values(x).tobytes() == np.array(expected).tobytes()
        assert np.array_equal(family.gradients(x, np.arange(1, 11)), np.tile([0.0, 1.0], (10, 1)))

    def test_grid_points_cartesian(self):
        idx = IndexSet.box([0, 0], [1, 2], 3)
        pts = idx.grid_points()
        assert pts.shape == (9, 2)
        assert pts[0].tolist() == [0, 0] and pts[-1].tolist() == [1, 2]


class TestFeasibility:
    def test_near_active_boundary(self):
        report = feasibility(near_active_problem(), (0, 0))
        assert report.feasible
        assert report.min_value == 0.0
        assert report.boundary
        assert report.min_tag == "phi0"

    def test_near_active_interior(self):
        report = feasibility(near_active_problem(), (1, 1))
        assert report.feasible
        assert report.min_value == pytest.approx(1.0, abs=0)
        assert not report.boundary

    def test_near_active_infeasible(self):
        report = feasibility(near_active_problem(), (-1, 0))
        assert not report.feasible
        assert report.violations[0][0] == "phi0"
        assert report.violations[0][1] == pytest.approx(-1.0)

    def test_parametric_violation_tags(self):
        # h = x1 - t1 on the grid 0, 1/9, 2/9, 1/3 at x1 = 0.2: the last two violate
        family = ParametricFamily(h=parse("x1 - t1", 1, 1), index=IndexSet.box([0.0], [1 / 3], 4))
        prob = Problem(1, parse("x1", 1), family)
        report = feasibility(prob, [0.2])
        assert report.min_tag == "t=(0.333333333333)"
        assert [tag for tag, _ in report.violations] == ["t=(0.222222222222)", "t=(0.333333333333)"]
        with pytest.raises(InfeasibleError) as err:
            certify_fj(prob, [0.2])
        assert err.value.report == report

    def test_parametric_ties_go_to_listed_members_then_grid_order(self):
        # at x1 = 0 the extra member and the grid points (0, 1/3) and (1, 1/3)
        # all reach -1
        family = ParametricFamily(
            h=parse("x1 - (t1 - 0.5)^2 * 4 * t2 * 3", 1, 2),
            index=IndexSet.box([0.0, 0.0], [1.0, 1 / 3], 3),
            extra=(parse("x1 - 1", 1),),
        )
        report = feasibility(Problem(1, parse("x1", 1), family), [0.0])
        assert report.violations[0][1] == report.violations[2][1] == -1.0
        assert report.min_tag == "phi0"
        assert [tag for tag, _ in report.violations] == [
            "phi0", "t=(0, 0.166666666667)", "t=(0, 0.333333333333)",
            "t=(1, 0.166666666667)", "t=(1, 0.333333333333)",
        ]
        family = ParametricFamily(h=family.h, index=family.index)
        report = feasibility(Problem(1, parse("x1", 1), family), [0.0])
        assert report.min_tag == "t=(0, 0.333333333333)"

    def test_polyhedral_violation_tags(self):
        # normalized facets x1, x2 - 1, x1: A[1] is the worst at (-0.5, 0);
        # at (-1, 0) all three tie and the first facet wins
        family = PolyhedralFamily(Polyhedron([[1.0, 0.0], [0.0, 2.0], [3.0, 0.0]], [0.0, 2.0, 0.0]))
        prob = Problem(2, parse("x1", 2), family)
        report = feasibility(prob, (-0.5, 0.0))
        assert report.min_tag == "A[1]"
        assert [tag for tag, _ in report.violations] == ["A[0]", "A[1]", "A[2]"]
        report = feasibility(prob, (-1.0, 0.0))
        assert report.min_tag == "A[0]"
        with pytest.raises(InfeasibleError) as err:
            certify_fj(prob, (-1.0, 0.0))
        assert err.value.report == report

    def test_equality_violation_reported(self):
        prob = Problem(2, parse("x1", 2), equality=(parse("x1 - 1", 2),))
        report = feasibility(prob, (0, 0))
        assert not report.feasible
        assert report.equality_violation == pytest.approx(1.0)

    def test_the_worse_of_equality_and_family_is_named(self):
        # the family violations are listed either way; the minimum is the
        # worse of the equality violation and the smallest row
        family = FiniteFamily((parse("x2", 2),))
        prob = Problem(2, parse("x1", 2), family, equality=(parse("x1 - 1", 2),))
        report = feasibility(prob, (0, -0.5))
        assert (report.min_tag, report.min_value) == ("equality", -1.0)
        assert report.violations == (("phi0", -0.5),)
        report = feasibility(prob, (0, -2.0))
        assert (report.min_tag, report.min_value) == ("phi0", -2.0)
        assert report.equality_violation == 1.0
        # a feasible candidate's report does not read the equality rows' residual
        report = feasibility(prob, (1 + 1e-12, 0.25))
        assert report.feasible and (report.min_tag, report.min_value) == ("phi0", 0.25)


def _tags(aset):
    return {tag for tag, _ in aset.scan.labels(aset.entries)}


def _params(aset):
    return [param for _, param in aset.scan.labels(aset.entries)]


class TestActiveSet:
    def test_near_active_small_eps_keeps_only_phi0(self):
        aset = active_set(near_active_problem(), (0, 0), 0.05)
        assert _tags(aset) == {"phi0"}
        assert np.array_equal(aset.hull()[0], [1.0, 0.0])

    def test_near_active_half_eps_includes_slow_members(self):
        with counting() as counts:
            aset = active_set(near_active_problem(), (0, 0), 0.5)
        scan = aset.scan
        listed = aset.entries[aset.entries < scan.rows.size]  # phi0 and the grid members
        tags = {tag for tag, _ in scan.labels(listed)}
        assert "phi0" in tags
        # exactly the k with 1/k <= 0.5
        assert len(tags) == 1 + sum(1 for k in range(1, 11) if 1.0 / k <= 0.5)
        # and one refined twin, bisected from t = 10, the grid's discrete minimum
        assert aset.entries.size - listed.size == counts["refined_seeds"] == 1
        assert 9.0 < scan.points[0, 0] < 10.0 and 0.1 < scan.values[-1] <= 0.5

    def test_linear_sip_everything_active(self):
        prob = linear_sip_problem(65)
        aset = active_set(prob, (1, 1), 1e-9)
        params = [param[0] for param in _params(aset)]
        assert len(params) == 65  # all grid points; a flat run gets no refined twin
        assert all(aset.scan.values[aset.entries] == 0.0)

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleError):
            active_set(near_active_problem(), (-1, 0), 0.1)

    def test_violated_equality_also_raises(self):
        prob = Problem(
            2,
            parse("x1", 2),
            FiniteFamily((parse("x1", 2),)),
            equality=(parse("x2 - 1", 2),),
        )
        with pytest.raises(InfeasibleError):
            active_set(prob, (0.5, 0.0), 0.1)

    @given(st.floats(min_value=1e-4, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
    def test_monotone_in_eps(self, eps, shrink_factor):
        smaller = eps * shrink_factor
        big = active_set(near_active_problem(), (0, 0), eps)
        small = active_set(near_active_problem(), (0, 0), smaller)
        assert _tags(small) <= _tags(big)

    def test_scan_filter_matches_direct(self):
        prob = linear_sip_problem(33)
        opts = Options()
        values, _ = evaluate_family(prob, (1, 1), opts.tol_feas)
        scan = FamilyScan(prob, (1, 1), values, 0.5, opts)
        for eps in (0.5, 0.1, 1e-6):
            via_scan = scan.at(eps)
            direct = active_set(prob, (1, 1), eps, opts)
            assert _tags(via_scan) == _tags(direct)

    def test_grid_doubling_keeps_refined_tags_close(self):
        # doubling the base grid moves surviving parameters by at most one
        # refinement cell width on the linear fixture
        opts = Options()
        coarse = active_set(linear_sip_problem(65), (1, 1), 1e-8, opts)
        fine = active_set(linear_sip_problem(129), (1, 1), 1e-8, opts)
        fine_params = np.array([param[0] for param in _params(fine)])
        cell = (1.0 / 64) / 2**opts.refine_depth
        for param in _params(coarse):
            assert np.min(np.abs(fine_params - param[0])) <= (1.0 / 64) + cell

    def test_negative_within_tolerance_clamps_to_zero(self):
        family = FiniteFamily((parse("x1", 1),), ("phi0",))
        prob = Problem(1, parse("x1", 1), family)
        aset = active_set(prob, [-1e-10], 0.1)
        assert aset.scan.values[aset.entries[0]] == 0.0

    def test_refinement_finds_a_violation_between_grid_points(self):
        # h >= 0.0024 on the grid 0, 0.25, ..., 1 at x1 = 0.0099, but about
        # -1e-4 at t1 = 0.3, toward which the near-active point 0.25 is refined
        family = ParametricFamily(
            h=parse("x1 + (t1 - 0.3)^2 - 0.01", 1, 1), index=IndexSet.box([0.0], [1.0], 5)
        )
        prob = Problem(1, parse("x1", 1), family)
        assert feasibility(prob, [0.0099]).feasible
        with pytest.raises(InfeasibleError) as err:
            active_set(prob, [0.0099], 0.01)
        report = err.value.report
        assert not report.feasible and report.min_value < -1e-9
        assert report.violations == ((report.min_tag, report.min_value),)
        assert float(report.min_tag[3:-1]) == pytest.approx(0.3, abs=0.5 / 2**8)

    def test_kink_error_propagates(self):
        from sipcert.expr import KinkError

        family = FiniteFamily((parse("abs(x1)", 1),), ("phi0",))
        prob = Problem(1, parse("x1", 1), family)
        with pytest.raises(KinkError):
            active_set(prob, [0.0], 0.1)

    def test_two_dimensional_index_set(self):
        # h(x, t) = x1 + t1^2 + t2^2: at x1 = 0 only t = (0, 0) is active;
        # the multi-axis refinement localizes around the corner cell
        family = ParametricFamily(
            h=parse("x1 + t1^2 + t2^2", 1, 2),
            index=IndexSet.box([0.0, 0.0], [1.0, 1.0], 9),
        )
        prob = Problem(1, parse("-x1", 1), family)
        aset = active_set(prob, [0.0], 1e-4)
        assert aset.entries.size
        for param, grad in zip(_params(aset), aset.hull()):
            assert np.hypot(*param) <= 1e-2
            assert np.array_equal(grad, [1.0])


def _scan(h, lower, upper, grid, x, eps_cap):
    """The scan of ``h`` (one x variable) over a box at x, with default options."""
    family = ParametricFamily(h=parse(h, 1, len(lower)), index=IndexSet.box(lower, upper, grid))
    prob = Problem(1, parse("x1", 1), family)
    values, report = evaluate_family(prob, [x])
    assert report.feasible
    return FamilyScan(prob, [x], values, eps_cap, Options()), prob


class TestRefinementSeeds:
    """Only the near-active grid points that are discrete local minima are bisected."""

    CELL = 2**-Options().refine_depth  # bisection cell width, in grid steps

    def test_discrete_minima_compare_in_box_neighbours_only(self):
        # on a face or a corner the missing neighbours count neither way
        minima = model_mod._discrete_minima
        corner = np.add.outer([0.0, 1.0, 2.0], [0.0, 1.0, 2.0]).ravel()
        assert minima(corner, (3, 3), np.arange(9)).tolist() == [1] + [0] * 8
        # a face point tied with its one neighbour is inside a flat run; the
        # run's rim, with a larger neighbour, is a minimum
        assert minima(np.array([0.0, 0.0, 1.0]), (3,), np.arange(3)).tolist() == [0, 1, 0]
        assert minima(np.array([1.0, 0.0, 0.0]), (3,), np.arange(3)).tolist() == [0, 1, 0]
        assert minima(np.array([1.0, 2.0, 0.0]), (3,), np.arange(3)).tolist() == [1, 0, 1]
        # a 2-D face point whose in-box neighbours are all larger
        face = np.array([[1.0, 0.0, 1.0], [2.0, 1.0, 2.0], [3.0, 2.0, 3.0]]).ravel()
        assert minima(face, (3, 3), np.arange(9)).tolist() == [0, 1, 0] + [0] * 6

    def test_ties_within_the_tolerance(self):
        minima, tol = model_mod._discrete_minima, Options().tol_feas
        # rounding noise is a flat run: no minimum, where exact comparison finds two
        noise = np.array([0.0, -1.1e-16, 2.2e-16, -1.1e-16, 0.0, 1.1e-16])
        assert minima(noise, (6,), np.arange(6)).tolist() == [0, 1, 0, 1, 0, 0]
        assert not minima(noise, (6,), np.arange(6), tol).any()
        # a dip of 1e-6 is still a minimum
        dip = np.array([1e-6, 1e-6, 0.0, 1e-6, 1e-6])
        assert minima(dip, (5,), np.arange(5), tol).tolist() == [0, 0, 1, 0, 0]
        # two points within the tolerance of each other are a tie: both are minima
        tie = np.array([1e-3, 1e-16, -1e-16, 1e-3])
        assert minima(tie, (4,), np.arange(4), tol).tolist() == [0, 1, 1, 0]
        assert minima(np.array([1e-3, 0.0, 0.0, 1e-3]), (4,), np.arange(4)).tolist() == [0, 1, 1, 0]

    def test_flat_run_interior_gets_no_twin_and_its_rim_does(self):
        # h = 0 on the plateau [0.25, 0.75], grid points 2..6 of 9
        with counting() as counts:
            scan, _ = _scan("x1 + max(abs(t1 - 0.5) - 0.25, 0)", [0.0], [1.0], 9, 0.0, 0.01)
        assert scan.rows.tolist() == [2, 3, 4, 5, 6]
        assert counts["refined_seeds"] == 2 and len(scan.points) == 2
        step = 0.125
        for t in scan.points[:, 0]:
            assert 0.25 - step * self.CELL <= t <= 0.75 + step * self.CELL

    def test_two_point_tie_around_an_off_grid_minimum(self):
        # (t1 - 0.375)^2 is 2^-6 at both 0.25 and 0.5, exactly
        with counting() as counts:
            scan, _ = _scan("x1 + (t1 - 0.375)^2", [0.0], [1.0], 5, 0.0, 0.02)
        assert scan.rows.tolist() == [1, 2] and scan.values.tolist()[:2] == [2**-6] * 2
        assert counts["refined_seeds"] == 2 and len(scan.points) == 1  # the same twin, deduped
        assert np.all(np.abs(scan.points[:, 0] - 0.375) <= 0.25 * self.CELL)

    def test_floor_of_a_two_dimensional_valley(self):
        # flat along t2, strictly lowest across t1 = 0.5: every floor point is a seed
        with counting() as counts:
            scan, _ = _scan("x1 + (t1 - 0.5)^2", [0.0, 0.0], [1.0, 1.0], 5, 0.0, 0.01)
        assert scan.rows.tolist() == [10, 11, 12, 13, 14]
        assert counts["refined_seeds"] == 5 and len(scan.points) == 5
        assert np.all(np.abs(scan.points[:, 0] - 0.5) <= 0.25 * self.CELL)

    def test_scan_filter_matches_direct_with_flat_and_strict_minima(self):
        # a plateau on [0.15, 0.35] at 0 and a strict minimum 0.003 at t1 = 0.75.
        # The seeds are chosen at the cap and every candidate is gated by its
        # own value, so filtering at eps keeps a direct scan's grid rows and
        # the twins with value <= eps.  Here no seed's grid value is above an
        # eps that its twin's value is below, so the filter is the direct scan
        h = "x1 + min(max(abs(t1 - 0.25) - 0.1, 0), (t1 - 0.75)^2 + 0.003)"
        with counting() as counts:
            scan, prob = _scan(h, [0.0], [1.0], 33, 0.0, 0.5)
        assert counts["refined_seeds"] == 3  # the plateau's two rims and the strict minimum
        assert scan.gates.tobytes() == scan.values.tobytes()
        n = scan.rows.size
        for eps in (0.5, 0.01, 0.004, 0.001, 1e-6):
            via_scan = scan.at(eps)
            direct = active_set(prob, [0.0], eps)
            entries = via_scan.entries
            assert scan.rows[entries[entries < n]].tolist() == direct.scan.rows.tolist()
            assert entries[entries >= n].tolist() == (n + np.flatnonzero(scan.values[n:] <= eps)).tolist()
            assert via_scan.scan.labels(via_scan.entries) == direct.scan.labels(direct.entries)
            assert via_scan.hull().tobytes() == direct.hull().tobytes()
            gates = scan.gates[via_scan.entries]
            assert gates.tobytes() == direct.scan.gates[direct.entries].tobytes()

    def test_a_twin_below_eps_stays_when_its_seed_is_above(self):
        # (t1 - 0.33)^2 on 11 points: the seed t1 = 0.3 has grid value 9e-4,
        # its twin near 0.33 about 1e-10; below 9e-4 the twin alone remains
        scan, prob = _scan("x1 + (t1 - 0.33)^2", [0.0], [1.0], 11, 0.0, 0.01)
        assert scan.rows.tolist() == [3, 4] and scan.values[0] == pytest.approx(9e-4)
        twin = scan.rows.size
        assert abs(scan.points[0, 0] - 0.33) <= 0.1 * self.CELL and scan.values[twin] < 1e-8
        assert scan.gates[twin] == scan.values[twin]
        for eps in (1e-4, 1e-8):
            assert scan.at(eps).entries.tolist() == [twin]
            assert active_set(prob, [0.0], eps).entries.size == 0  # the direct scan has no seed

    def test_the_last_rung_keeps_twins_whose_seeds_it_passed(self, tmp_path):
        # best approximation of t^5 on [-1, 1] at its optimum, grid 1025: the four
        # interior alternation points fall between grid points, whose values
        # (1.6e-7 to 4.1e-7) the ladder passes; their twins (about 1e-11) stay
        path = tmp_path / "chebyshev.json"
        path.write_text(json.dumps(chebyshev_doc(4, "t", 1025)))
        loaded = load_problem(str(path))
        prob, x = loaded.problem, loaded.candidate
        values, _ = evaluate_family(prob, x)
        tc = tc_approx(prob, x, Options())
        eps, rung = tc.ladder[-1]
        scan, n = rung.scan, rung.scan.rows.size
        twins = rung.entries[rung.entries >= n]
        index = prob.family.index
        passed = 0
        for twin in twins:
            t = scan.points[twin - n, 0]
            seeds = np.abs(index.axes[0] - t) <= index.steps()[0]  # the seed is among them
            assert scan.values[twin] <= eps
            passed += bool(values[seeds].min() > eps)
        assert passed == 4
        assert len(tc.final) == 6

    def test_violation_next_to_a_minimum_in_a_two_dimensional_box(self):
        # >= 0.0124 on the grid, about -1e-4 at t = (0.3, 0.6), next to the
        # grid minimum (0.25, 0.5)
        h = parse("x1 + (t1 - 0.3)^2 + (t2 - 0.6)^2 - 0.01", 1, 2)
        family = ParametricFamily(h=h, index=IndexSet.box([0.0, 0.0], [1.0, 1.0], 5))
        prob = Problem(1, parse("x1", 1), family)
        assert feasibility(prob, [0.0099]).min_value == pytest.approx(0.0124)
        with pytest.raises(InfeasibleError) as err:
            active_set(prob, [0.0099], 0.02)
        report = err.value.report
        assert report.min_value < -1e-9
        t = [float(v) for v in report.min_tag[3:-1].split(",")]
        assert t == pytest.approx([0.3, 0.6], abs=0.25 * self.CELL)


class TestEquiLipschitz:
    def test_linear_functional_is_exact(self):
        prob = Problem(2, parse("x1", 2), FiniteFamily((parse("x1", 2),)))
        assert equi_lipschitz_estimate(prob, (0, 0), 0.5, 16, seed=1) == pytest.approx(1.0, abs=0)

    def test_scaling(self):
        prob = Problem(2, parse("x1", 2), FiniteFamily((parse("10*x1", 2),)))
        assert equi_lipschitz_estimate(prob, (0, 0), 0.5, 16, seed=1) == pytest.approx(10.0, abs=0)

    def test_near_active_family_modulus(self):
        r = equi_lipschitz_estimate(near_active_problem(), (0, 0), 0.5, 32, seed=1)
        assert r == pytest.approx(1.0, abs=1e-9)

    def test_monotone_in_samples(self):
        prob = Problem(2, parse("x1", 2), FiniteFamily((parse("sin(x1)*x2", 2),)))
        values = [
            equi_lipschitz_estimate(prob, (0.5, 0.5), 0.3, n, seed=7) for n in (4, 16, 64)
        ]
        assert values[0] <= values[1] <= values[2]

    def test_one_grid_for_all_sample_pairs(self, monkeypatch):
        # every pair walks the grid's axes, built once; no point list is built
        calls, built = [], []
        grid_points, linspace = IndexSet.grid_points, np.linspace
        monkeypatch.setattr(IndexSet, "grid_points", lambda self: calls.append(self) or grid_points(self))
        monkeypatch.setattr(np, "linspace", lambda *args, **kw: built.append(args) or linspace(*args, **kw))
        equi_lipschitz_estimate(linear_sip_problem(33), (1, 1), 0.5, 32, seed=1)
        assert len(calls) == 0
        assert len(built) == 1

    def test_radius_must_be_positive(self):
        with pytest.raises(ValueError):
            equi_lipschitz_estimate(near_active_problem(), (0, 0), 0.0, 4)


class TestAdmissibleDiagnostics:
    def test_near_active_admissible(self):
        diag = admissible_diagnostics(near_active_problem(), (0, 0))
        assert diag.admissible_style
        assert not diag.zero_in_full_hull
        assert diag.hull_gap == pytest.approx(0.5, abs=1e-9)

    def test_symmetric_pair_weak_only(self):
        family = FiniteFamily((parse("x1", 1), parse("-x1", 1)))
        prob = Problem(1, parse("x1", 1), family)
        diag = admissible_diagnostics(prob, [0.0])
        assert diag.zero_in_full_hull
        assert not diag.admissible_style

    def test_orthant_determination(self):
        family = PolyhedralFamily(Polyhedron([[2.0, 0.0], [0.0, 1.0]], [0.0, 0.0]))
        prob = Problem(2, parse("x1", 2), family)
        diag = admissible_diagnostics(prob, (0, 0))
        assert diag.admissible_style
        normals = [d[0] for d in diag.determination]
        assert np.allclose(normals, [[1, 0], [0, 1]])  # normalized
        for _, inf_value, stated in diag.determination:
            assert inf_value == pytest.approx(stated, abs=1e-9)
        # Python floats, which the report writer emits in one join
        for normal, inf_value, stated in diag.determination:
            assert {type(v) for v in (*normal, inf_value, stated)} == {float}

    def test_infeasible_rejected(self):
        with pytest.raises(InfeasibleError):
            admissible_diagnostics(near_active_problem(), (-1, 0))


class TestPolyhedralEntryGradient:
    def test_every_facet_by_tag_without_formatting_labels(self, monkeypatch, rng):
        normals = rng.standard_normal((200, 3))
        family = PolyhedralFamily(Polyhedron(normals, rng.standard_normal(200)))
        tags = [tag for tag, _ in family.labels(range(200))]
        expected = family.normalized()[0]

        def no_labels(*args):
            raise AssertionError("a facet label was formatted")

        monkeypatch.setattr(PolyhedralFamily, "_indexed_labels", no_labels)
        monkeypatch.setattr(PolyhedralFamily, "tag", no_labels)
        for j, tag in enumerate(tags):
            got = family.entry_gradient(np.zeros(3), tag, None)
            assert got.tobytes() == expected[j].tobytes()


class TestProblemValidation:
    def test_arity_checks(self):
        with pytest.raises(ValueError):
            Problem(2, parse("x1", 1))
        with pytest.raises(ValueError):
            Problem(2, parse("x1", 2), FiniteFamily((parse("x1 + x2 + x3", 3),)))

    def test_inner_map_changes_family_arity(self):
        prob = Problem(
            2,
            parse("x1", 2),
            FiniteFamily((parse("x1 + x2 + x3", 3),)),
            inner_map=(parse("x1", 2), parse("x2", 2), parse("x1*x2", 2)),
        )
        assert prob.q == 3


def _support_reference(poly, normals):
    """Facet by facet: inf of a_j @ y over the polyhedron, one LP each."""
    out = []
    for a in normals:
        result = polyhedron_minimize(poly, a)
        out.append({"optimal": result.objective, "unbounded": -np.inf, "infeasible": np.inf}[result.status])
    return np.array(out)


def _redundant_polytope(seed, m=200, p=10):
    """m facets around the origin: 150 random, 30 loosened copies, 20 repeats.

    The origin is interior, so every support LP starts feasible.
    """
    rng = np.random.default_rng(seed)
    normals = rng.standard_normal((150, p))
    offsets = -rng.uniform(0.05, 1.0, 150)
    looser = rng.integers(0, 150, 30)
    again = rng.integers(0, 150, m - 180)
    scale = rng.uniform(0.5, 2.0, m - 150)
    normals = np.vstack([normals, normals[looser], normals[again]])
    offsets = np.concatenate([offsets, offsets[looser] - rng.uniform(0.1, 1.0, 30), offsets[again]])
    normals[150:] *= scale[:, None]
    offsets[150:] *= scale
    order = rng.permutation(m)
    return Polyhedron(normals[order], offsets[order])


class TestDetermination:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_redundant_polytope_matches_one_lp_per_facet(self, seed):
        poly = _redundant_polytope(seed)
        family = PolyhedralFamily(poly)
        normals, offsets = family.normalized()
        with counting() as counts:
            rows = family.determination(Options().tol_lp)
        reference = _support_reference(poly, normals)
        assert [r[0] for r in rows] == [tuple(a) for a in normals]
        assert [r[2] for r in rows] == [float(c) for c in offsets]
        infima = np.array([r[1] for r in rows])
        assert np.all(np.abs(infima - reference) <= Options().tol_lp * (1.0 + np.abs(offsets)))
        assert 0 < counts["support_lps"] < len(offsets)

    def test_cone_needs_one_lp(self, rng):
        normals = rng.standard_normal((20, 10))
        normals[:, 0] = np.abs(normals[:, 0]) + 2.0
        family = PolyhedralFamily(Polyhedron(normals, np.zeros(20)))
        reference = _support_reference(family.poly, family.normalized()[0])
        with counting() as counts:
            rows = family.determination(1e-9)
        # every basic solution of a cone's LP is its apex, which touches every facet
        assert counts["support_lps"] == 1
        assert np.all(np.abs([r[1] for r in rows] - reference) <= 1e-9)

    def test_empty_polyhedron_runs_one_lp(self, rng):
        normals = np.vstack([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], rng.standard_normal((8, 3))])
        offsets = np.concatenate([[1.0, 0.0], rng.uniform(-2.0, -1.0, 8)])  # y1 >= 1 and y1 <= 0
        family = PolyhedralFamily(Polyhedron(normals, offsets))
        assert np.all(_support_reference(family.poly, family.normalized()[0]) == np.inf)
        with counting() as counts:
            rows = family.determination(1e-9)
        assert counts["support_lps"] == 1
        assert [r[1] for r in rows] == [np.inf] * 10

    def test_simplex_lp_count_is_pinned(self):
        # y >= 0 and y1 + ... + y4 <= 1: any minimiser is a vertex on four of
        # the five facets, so the one facet it misses is the only other LP
        poly = Polyhedron(np.vstack([np.eye(4), -np.ones((1, 4))]), [0.0, 0.0, 0.0, 0.0, -1.0])
        family = PolyhedralFamily(poly)
        with counting() as counts:
            rows = family.determination(1e-9)
        assert counts["support_lps"] == 2
        assert np.allclose([r[1] for r in rows], [0.0, 0.0, 0.0, 0.0, -0.5], atol=1e-12)

    def test_admissible_counters(self):
        family = PolyhedralFamily(_redundant_polytope(4))
        with counting() as counts:
            rows = family.determination(Options().tol_lp)
        with counting() as diag_counts:
            diag = admissible_diagnostics(Problem(10, parse("x1", 10), family), np.zeros(10))
        assert diag.determination == rows
        assert diag_counts == counts and diag_counts["lipschitz_walks"] == 0


def _ball_reference(rng, center, radius):
    direction = rng.standard_normal(center.size)
    direction /= np.linalg.norm(direction)
    return center + radius * rng.random() ** (1.0 / center.size) * direction


def _lipschitz_reference(prob, x, radius, samples, seed):
    """The estimate as one loop over the sample pairs, every member's values per point."""
    x = np.asarray(x, dtype=float)
    p = x.size
    rng = np.random.default_rng(seed)
    pairs = [(x + radius * e, x - radius * e) for e in np.eye(p)]
    while len(pairs) < samples + p:
        u, v = _ball_reference(rng, x, radius), _ball_reference(rng, x, radius)
        if np.linalg.norm(u - v) > 1e-12 * (1.0 + radius):
            pairs.append((u, v))
    best = 0.0
    for u, v in pairs:
        change = np.abs(prob.family.values(u) - prob.family.values(v)).max()
        best = max(best, float(change) / np.linalg.norm(u - v))
    return best


def _lipschitz_cases():
    box2 = ParametricFamily(
        parse("1 - x1*cos(t1)*cos(t2) - x2*sin(t1)*cos(t2) - x3*sin(t2)", 3, 2),
        IndexSet.box([0.0, 0.0], [1.5, 1.5], 17),
    )
    listed = ParametricFamily(
        parse("exp(x1*t1) - x2*t1^2 + sqrt(x1 + 2)", 2, 1),
        IndexSet.box([-1.0], [1.0], 65),
        extra=(parse("log(2 + x1) - x2", 2), parse("abs(x1 - x2)", 2)),
    )
    finite = FiniteFamily((parse("sin(x1)*x2", 2), parse("x1^2 - exp(x2)", 2)))
    poly = PolyhedralFamily(Polyhedron(np.random.default_rng(5).standard_normal((40, 4)), -np.ones(40)))
    return [
        ("sip_linear", load_fixture("sip_linear").problem, load_fixture("sip_linear").candidate),
        ("sip_trig", load_fixture("sip_trig").problem, load_fixture("sip_trig").candidate),
        ("box2", Problem(3, parse("x1", 3), box2), np.array([0.3, 0.2, 0.1])),
        ("listed", Problem(2, parse("x1", 2), listed), np.array([0.1, -0.2])),
        ("near_active", near_active_problem(), np.zeros(2)),
        ("finite", Problem(2, parse("x1", 2), finite), np.array([0.4, 0.7])),
        ("polytope", Problem(4, parse("x1", 4), poly), np.zeros(4)),
    ]


class TestLipschitzChunks:
    @pytest.mark.parametrize("chunk", [None, 1, 40, 200, 1 << 20])
    @pytest.mark.parametrize("name, prob, x", _lipschitz_cases(), ids=lambda v: v if isinstance(v, str) else "")
    def test_bitwise_equal_to_the_pair_loop(self, monkeypatch, chunk, name, prob, x):
        # chunk 1: one sample point per walk; 40 and 200: odd and even
        # points per walk on the small grids; 2^20: every pair in one walk
        if chunk is not None:
            monkeypatch.setattr(model_mod, "_LIPSCHITZ_CHUNK", chunk)
        for radius, samples, seed in [(0.1, 32, 0), (0.3, 7, 11)]:
            got = equi_lipschitz_estimate(prob, x, radius, samples, seed=seed)
            assert got.hex() == _lipschitz_reference(prob, x, radius, samples, seed).hex()

    @pytest.mark.parametrize(
        "extra, x",
        [
            ((), (0.05, 0.0)),
            ((parse("log(x2 + 0.05)", 2),), (0.05, 0.05)),  # the grid fails first, at v_1
            ((parse("log(x1 + 0.02)", 2),), (0.05, 0.0)),  # a listed member fails first
        ],
    )
    def test_domain_error_is_the_pair_loop_error(self, extra, x):
        family = ParametricFamily(parse("sqrt(x1) + t1*x2 + 1", 2, 1), IndexSet.box([0.0], [1.0], 11), extra)
        prob = Problem(2, parse("x1", 2), family)
        with pytest.raises(EvalDomainError) as reference:
            _lipschitz_reference(prob, x, 0.1, 32, 0)
        with pytest.raises(type(reference.value), match=f"^{reference.value}$"):
            equi_lipschitz_estimate(prob, x, 0.1, 32, seed=0)

    def test_domain_error_message(self):
        family = ParametricFamily(parse("sqrt(x1) + t1*x2 + 1", 2, 1), IndexSet.box([0.0], [1.0], 11))
        with pytest.raises(EvalDomainError, match="^sqrt of a negative value$"):
            equi_lipschitz_estimate(Problem(2, parse("x1", 2), family), (0.05, 0.0), 0.1, 32)

    def test_walks_per_chunk(self):
        # grid 257: 31 sample points per walk, so 15 pairs; 34 pairs take 3 walks
        with counting() as counts:
            equi_lipschitz_estimate(linear_sip_problem(257), (1, 1), 0.1, 32, seed=1)
        assert counts == {"lipschitz_walks": 3}

    def test_memory_stays_at_one_sample_point_at_grid_16385(self, sphere_ladder):
        # a pair's grid fills a chunk, so each sample point walks alone: the
        # per-pair loop peaked at 0.65 MiB here, one walk over every sample
        # point at about 52 MiB
        prob, x = sphere_ladder(16385, [400])
        equi_lipschitz_estimate(prob, x, 0.1, 32, seed=1)
        tracemalloc.start()
        try:
            equi_lipschitz_estimate(prob, x, 0.1, 32, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestGridWalk:
    """A parametric family walks its grid as the product of its axes."""

    def test_listed_members_and_grid_equal_the_loop_over_the_pairs(self):
        extra = (parse("exp(x1) - x2", 2), parse("abs(x1 - x2)", 2))
        h = parse("log(2 + t1*x1) + max(t2, x2)^2 - min(x1*t2, t1)", 2, 2)
        family = ParametricFamily(h, IndexSet.box([0.0, 0.25], [1.0, 1.5], 4), extra)
        xs = np.array([[0.3, -0.2], [-0.1, 0.7], [0.5, 0.5]])
        pairs = list(itertools.product(*family.index.axes))
        loop = [[evaluate(m, x) for m in extra] + [evaluate(h, x, t) for t in pairs] for x in xs]
        got = family._values_many(xs, family._index_points())
        assert [[v.hex() for v in row] for row in got.tolist()] == [[v.hex() for v in row] for row in loop]
        assert family.values(xs[0]).tobytes() == got[0].tobytes()

    def test_no_listed_member_no_list_walk(self, monkeypatch):
        calls = []
        walk = model_mod.evaluate_list
        monkeypatch.setattr(model_mod, "evaluate_list", lambda fs, x: calls.append(fs) or walk(fs, x))
        family = linear_sip_problem(33).family
        assert family._values_many(np.ones((5, 2)), family._index_points()).shape == (5, 33)
        assert calls == []

    def test_octant_evaluation_peaks_under_five_values_arrays(self):
        # h = 1 - x . u(t) on the 3-sphere octant at 65^3 points: sin(t1) is
        # a column of 65 values, not of 274,625
        text = ("cos(t1)", "sin(t1)*cos(t2)", "sin(t1)*sin(t2)*cos(t3)", "sin(t1)*sin(t2)*sin(t3)")
        h = parse("1 - (" + " + ".join(f"x{k + 1}*{u}" for k, u in enumerate(text)) + ")", 4, 3)
        family = ParametricFamily(h, IndexSet.box([0.0] * 3, [math.pi / 2] * 3, 65))
        t = family.index.axes[0][32]
        x = np.array([math.cos(t), math.sin(t) * math.cos(t), math.sin(t) ** 2 * math.cos(t), math.sin(t) ** 3])
        prob = Problem(4, parse("x1", 4), family)
        values, report = evaluate_family(prob, x)
        assert report.feasible and values.size == 65**3
        tracemalloc.start()
        try:
            evaluate_family(prob, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * values.nbytes


def test_skipped_pairs_are_drawn_again():
    # at radius 3e-12 about one random pair in four is within 1e-12 and is
    # skipped (13 of 45 drawn at p = 1, seed 0), so the shortfall is drawn
    # again, in rounds, in the pair loop's order
    prob = Problem(1, parse("x1", 1), FiniteFamily((parse("sin(x1) + x1*x1", 1),)))
    for seed in (0, 1):
        got = equi_lipschitz_estimate(prob, [0.0], 3e-12, 32, seed=seed)
        assert got.hex() == _lipschitz_reference(prob, [0.0], 3e-12, 32, seed).hex()


def _two_walk_refine(h, x, tpoints, axis, lo, hi, depth):
    """The bisection with one walk per quarter point, left then right."""
    t = tpoints.copy()
    for _ in range(depth):
        mid = 0.5 * (lo + hi)
        t[:, axis] = 0.5 * (lo + mid)
        left = evaluate_many(h, x, t)
        t[:, axis] = 0.5 * (mid + hi)
        right = evaluate_many(h, x, t)
        take_left = left <= right
        hi = np.where(take_left, mid, hi)
        lo = np.where(take_left, lo, mid)
    return 0.5 * (lo + hi)


def _wells(grid, t_dim):
    """``1 - x1 * cos(6 t1) ... cos(6 t_m)`` on [0, 2.2]^m at x1 = 1: several
    minima, each of value 0, all but the origin off the grid."""
    h = parse("1 - x1*" + "*".join(f"cos(6*t{a + 1})" for a in range(t_dim)), 1, t_dim)
    family = ParametricFamily(h, IndexSet.box([0.0] * t_dim, [2.2] * t_dim, grid))
    return Problem(1, parse("x1", 1), family), np.array([1.0])


class TestFusedRefinement:
    LADDERS = [((1025, [400]), 8), ((65, [40, 16]), 16)]

    @pytest.mark.parametrize("grid, t_dim", [(1025, 1), (65, 2)])
    def test_equals_the_two_walk_bisection(self, monkeypatch, grid, t_dim):
        prob, x = _wells(grid, t_dim)
        seen = []
        fused = model_mod._refine_axis_all

        def recorded(h, x, tpoints, axis, lo, hi, depth):
            out, value = fused(h, x, tpoints, axis, lo, hi, depth)
            seen.append((out, _two_walk_refine(h, x, tpoints, axis, lo, hi, depth), len(tpoints)))
            return out, value

        monkeypatch.setattr(model_mod, "_refine_axis_all", recorded)
        tc_approx(prob, x, Options())
        assert len(seen) == t_dim  # one call per axis
        for out, reference, seeds in seen:
            assert seeds > 1
            assert out.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("ladder, levels", LADDERS)
    def test_one_walk_per_level(self, monkeypatch, sphere_ladder, ladder, levels):
        # the grid, then one walk per axis: the one seed's 8 levels per axis
        # are one tree of 2 (2^8 - 1) = 510 midpoints, and the last axis's
        # walk holds h at the refined point (one walk per level and one of
        # the refined points, as before, was [grid] + [2] * levels + [1])
        prob, x = sphere_ladder(*ladder)
        sizes = []
        walk = model_mod.evaluate_many
        # a grid-form walk counts its grid points, a point list its rows
        monkeypatch.setattr(
            model_mod,
            "evaluate_many",
            lambda f, x, t: sizes.append(math.prod(map(len, t)) if isinstance(t, tuple) else len(t))
            or walk(f, x, t),
        )
        tc_approx(prob, x, Options())
        axes = len(ladder[1])
        assert sizes == [ladder[0] ** axes] + [2 * (2 ** (levels // axes) - 1)] * axes

    def test_left_point_error_comes_first(self):
        # seed 0 leaves the domain at its right quarter point only (sqrt),
        # seed 1 at its left one (log): the left walk ran first, so its
        # error is the one raised
        h = parse("log(t1 - 0.3) + sqrt(0.65 - t1) + 0*x1", 1, 1)
        tpoints = np.array([[0.6], [0.2]])
        lo, hi = np.array([0.4, 0.0]), np.array([0.8, 0.4])
        for refine in (model_mod._refine_axis_all, _two_walk_refine):
            with pytest.raises(EvalDomainError, match="^log of a nonpositive value$"):
                refine(h, [0.0], tpoints, 0, lo, hi, 1)
        # alone, seed 0 raises its right point's error
        with pytest.raises(EvalDomainError, match="^sqrt of a negative value$"):
            model_mod._refine_axis_all(h, [0.0], tpoints[:1], 0, lo[:1], hi[:1], 1)

    @pytest.mark.parametrize("t_dim", [1, 2])
    @pytest.mark.parametrize("seeds, per_walk", [(1, 12), (700, 2), (5000, 1)])
    def test_tree_equals_the_reference_bisection(self, monkeypatch, seeds, per_walk, t_dim):
        # a walk holds the most levels whose tree fits in 8,192 points, at
        # least one; by depth 60 every interval is down to adjacent floats,
        # so depth 200 stops early
        prob, x = _wells(1025, t_dim)
        h, step, axis = prob.family.h, 2.2 / 1024, t_dim - 1
        tpoints = np.random.default_rng(seeds).uniform(0.0, 2.2, (seeds, t_dim))
        lo = np.maximum(0.0, tpoints[:, axis] - step)
        hi = np.minimum(2.2, tpoints[:, axis] + step)
        sizes = []
        walk = model_mod.evaluate_many
        monkeypatch.setattr(
            model_mod, "evaluate_many", lambda f, x, t: sizes.append(len(t)) or walk(f, x, t)
        )
        for depth in (0, 1, 8, 13, 60, 200):
            sizes.clear()
            got, value = model_mod._refine_axis_all(h, x, tpoints, axis, lo, hi, depth)
            if depth == 13:
                assert sizes[0] == seeds * (2 ** (per_walk + 1) - 2)
                assert len(sizes) == -(-13 // per_walk)
            reference = _two_walk_refine(h, x, tpoints, axis, lo, hi, depth)
            assert got.tobytes() == reference.tobytes()
            t = tpoints.copy()
            t[:, axis] = reference
            assert value.tobytes() == evaluate_many(h, x, t).tobytes()

    def test_a_point_off_the_path_may_leave_the_domain(self, monkeypatch):
        # h falls in t1, so every level keeps the right half of [0, 1]; the
        # tree's second level already holds t1 = 0.125, where sqrt fails
        h = parse("0*sqrt(t1 - 0.2) - t1 + 0*x1", 1, 1)
        args = ([0.0], np.array([[0.5]]), 0, np.array([0.0]), np.array([1.0]), 8)
        sizes = []
        walk = model_mod.evaluate_many
        monkeypatch.setattr(
            model_mod, "evaluate_many", lambda f, x, t: sizes.append(len(t)) or walk(f, x, t)
        )
        got, value = model_mod._refine_axis_all(h, *args)
        assert got.tobytes() == _two_walk_refine(h, *args).tobytes()
        assert value == -got[0]
        assert sizes == [510] + [2] * 8  # the tree raised, then one walk per level


def _outcome(fn):
    try:
        return np.asarray(fn()).tobytes(), None
    except ExprError as err:
        return None, (type(err), str(err))


def _loop_outcome(fn, members):
    # the per-member loop: the first member that raises decides the error
    return _outcome(lambda: [fn(m) for m in members])


class TestListedMembersOnOneTape:
    """A family's listed members, the equality rows and the inner map: one walk
    each, with the per-member loop's bits and first error."""

    @pytest.mark.parametrize("name", fixture_names())
    def test_every_fixture_list_is_the_member_loop(self, name):
        doc = json.load(open(fixture_path(name)))
        prob = load_fixture(name).problem
        x = np.asarray(doc.get("candidate", [0.5] * prob.p), dtype=float)
        lists = [(prob.equality, doc.get("equality")), (prob.inner_map, doc.get("inner_map"))]
        constraints = doc.get("constraints", {})
        if prob.family is not None and "finite" in constraints:
            lists.append((prob.family._listed, constraints["finite"]))
        if prob.x_family is not None:
            lists.append((prob.x_family._listed, None))
        for fs, srcs in lists:
            if not fs:
                continue
            members = list(fs)
            if srcs is not None:  # each member as its own parse builds it
                assert members == [parse(src, fs.arity_x) for src in srcs]
            assert _outcome(lambda: evaluate_list(fs, x)) == _loop_outcome(lambda m: evaluate(m, x), members)
            assert _outcome(lambda: gradient_list(fs, x)) == _loop_outcome(lambda m: gradient(m, x), members)
            last = members[-1:]
            assert _outcome(lambda: gradient_list(fs, x, [len(fs) - 1])) == _loop_outcome(
                lambda m: gradient(m, x), last
            )
        if prob.x_family is not None:
            family, d = prob.x_family, len(prob.x_family._tags)
            values = family.values(x)
            assert values[:d].tobytes() == evaluate_list(family._listed, x).tobytes()
            rows = np.arange(values.size)
            assert family.gradients(x, rows)[:d].tobytes() == gradient_list(family._listed, x).tobytes()

    def test_composed_members_fail_in_the_order_they_read_the_inner_map(self):
        # member phi0 = y2 reads the second component first: its log fails
        # before the first component's sqrt, which phi1 = y1 reads
        family = FiniteFamily((parse("x2", 2), parse("x1", 2)))
        prob = Problem(1, parse("x1", 1), family, inner_map=(parse("sqrt(x1 - 1)", 1), parse("log(x1 - 1)", 1)))
        x = np.array([0.5])
        members = list(prob.x_family.members)
        assert _outcome(lambda: prob.x_family.values(x)) == _loop_outcome(lambda m: evaluate(m, x), members)
        assert _outcome(lambda: prob.x_family.gradients(x, [0, 1])) == _loop_outcome(
            lambda m: gradient(m, x), members
        )
        with pytest.raises(EvalDomainError, match="^log of a nonpositive value$"):
            evaluate_family(prob, x)
        with pytest.raises(EvalDomainError, match="^sqrt of a negative value$"):
            prob.x_family.gradients(x, [1])

    def test_a_kink_in_an_inactive_member_is_not_differentiated(self):
        # abs(x1) + 5 is kinked at x1 = 0 but far from active: the scan asks
        # for the gradients of the active rows only, and they raise nothing
        family = FiniteFamily((parse("abs(x1) + 5", 2), parse("x2", 2), parse("x1 + x2", 2)))
        prob = Problem(2, parse("x1 + x2", 2), family)
        x = np.zeros(2)
        values, _ = evaluate_family(prob, x)
        scan = FamilyScan(prob, x, values, eps_cap=1.0)
        assert scan.rows.tolist() == [1, 2]
        assert scan.grads.tolist() == [[0.0, 1.0], [1.0, 1.0]]
        with pytest.raises(KinkError):
            family.gradients(x, [0, 1])
        assert family.gradients(x, [1]).tolist() == [[0.0, 1.0]]

    def test_parametric_extras_and_grid_rows(self):
        extra = (parse("x1 + x2", 2), parse("x2 * x1 + 1", 2))
        family = ParametricFamily(parse("x1 - t1*x2", 2, 1), IndexSet.box([0.0], [1.0], 5), extra)
        x = np.array([0.3, -0.2])
        grads = family.gradients(x, [1, 2, 6])
        assert grads[0].tobytes() == gradient(extra[1], x).tobytes()
        assert list(family.extra) == list(extra)
        assert family.kind == "parametric+finite"
        loop = np.array([[evaluate(m, w) for m in extra] for w in (x, -x)])
        assert family._values_many(np.array([x, -x]), family._index_points())[:, :2].tobytes() == loop.tobytes()
