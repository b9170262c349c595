import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sipcert import model as model_mod
from sipcert.expr import EvalDomainError, evaluate_many, parse
from sipcert.fixtures import load_fixture
from sipcert.geometry import Polyhedron, polyhedron_minimize
from sipcert.model import (
    FamilyScan,
    FiniteFamily,
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

from conftest import active_set


def near_active_problem():
    """phi0 = x1 plus the countable members as a parametric window t = 1/k."""
    family = ParametricFamily(
        h=parse("x2 + t1", 2, 1),
        index=IndexSet.finite([[1.0 / k] for k in range(1, 11)]),
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

    def test_finite_nonempty(self):
        with pytest.raises(ValueError):
            IndexSet.finite([])

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
        assert np.array_equal(aset.hull().generators[0], [1.0, 0.0])

    def test_near_active_half_eps_includes_slow_members(self):
        aset = active_set(near_active_problem(), (0, 0), 0.5)
        tags = _tags(aset)
        assert "phi0" in tags
        # exactly the k with 1/k <= 0.5
        assert len(tags) == 1 + sum(1 for k in range(1, 11) if 1.0 / k <= 0.5)

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
        for param, grad in zip(_params(aset), aset.hull().generators):
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
        scan, _ = _scan("x1 + max(abs(t1 - 0.5) - 0.25, 0)", [0.0], [1.0], 9, 0.0, 0.01)
        assert scan.rows.tolist() == [2, 3, 4, 5, 6]
        assert scan.refined_seeds == 2 and len(scan.points) == 2
        step = 0.125
        for t in scan.points[:, 0]:
            assert 0.25 - step * self.CELL <= t <= 0.75 + step * self.CELL

    def test_two_point_tie_around_an_off_grid_minimum(self):
        # (t1 - 0.375)^2 is 2^-6 at both 0.25 and 0.5, exactly
        scan, _ = _scan("x1 + (t1 - 0.375)^2", [0.0], [1.0], 5, 0.0, 0.02)
        assert scan.rows.tolist() == [1, 2] and scan.values.tolist()[:2] == [2**-6] * 2
        assert scan.refined_seeds == 2 and len(scan.points) == 1  # the same twin, deduped
        assert np.all(np.abs(scan.points[:, 0] - 0.375) <= 0.25 * self.CELL)

    def test_floor_of_a_two_dimensional_valley(self):
        # flat along t2, strictly lowest across t1 = 0.5: every floor point is a seed
        scan, _ = _scan("x1 + (t1 - 0.5)^2", [0.0, 0.0], [1.0, 1.0], 5, 0.0, 0.01)
        assert scan.rows.tolist() == [10, 11, 12, 13, 14]
        assert scan.refined_seeds == 5 and len(scan.points) == 5
        assert np.all(np.abs(scan.points[:, 0] - 0.5) <= 0.25 * self.CELL)

    def test_scan_filter_matches_direct_with_flat_and_strict_minima(self):
        # a plateau on [0.15, 0.35] at 0 and a strict minimum 0.003 at t1 = 0.75
        h = "x1 + min(max(abs(t1 - 0.25) - 0.1, 0), (t1 - 0.75)^2 + 0.003)"
        scan, prob = _scan(h, [0.0], [1.0], 33, 0.0, 0.5)
        assert scan.refined_seeds == 3  # the plateau's two rims and the strict minimum
        for eps in (0.5, 0.01, 0.004, 0.001, 1e-6):
            via_scan = scan.at(eps)
            direct = active_set(prob, [0.0], eps)
            assert via_scan.scan.labels(via_scan.entries) == direct.scan.labels(direct.entries)
            assert via_scan.hull().generators.tobytes() == direct.hull().generators.tobytes()
            gates = scan.gates[via_scan.entries]
            assert gates.tobytes() == direct.scan.gates[direct.entries].tobytes()

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
        calls = []
        grid_points = IndexSet.grid_points

        def counted(self):
            calls.append(self)
            return grid_points(self)

        monkeypatch.setattr(IndexSet, "grid_points", counted)
        equi_lipschitz_estimate(linear_sip_problem(33), (1, 1), 0.5, 32, seed=1)
        assert len(calls) == 1

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
        out.append({"optimal": result.value, "unbounded": -np.inf, "infeasible": np.inf}[result.status])
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
        counters = {}
        rows = family.determination(Options().tol_lp, counters)
        reference = _support_reference(poly, normals)
        assert [r[0] for r in rows] == [tuple(a) for a in normals]
        assert [r[2] for r in rows] == [float(c) for c in offsets]
        infima = np.array([r[1] for r in rows])
        assert np.all(np.abs(infima - reference) <= Options().tol_lp * (1.0 + np.abs(offsets)))
        assert 0 < counters["support_lps"] < len(offsets)

    def test_cone_needs_one_lp(self, rng):
        normals = rng.standard_normal((20, 10))
        normals[:, 0] = np.abs(normals[:, 0]) + 2.0
        family = PolyhedralFamily(Polyhedron(normals, np.zeros(20)))
        reference = _support_reference(family.poly, family.normalized()[0])
        counters = {}
        rows = family.determination(1e-9, counters)
        # every basic solution of a cone's LP is its apex, which touches every facet
        assert counters["support_lps"] == 1
        assert np.all(np.abs([r[1] for r in rows] - reference) <= 1e-9)

    def test_empty_polyhedron_runs_one_lp(self, rng):
        normals = np.vstack([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], rng.standard_normal((8, 3))])
        offsets = np.concatenate([[1.0, 0.0], rng.uniform(-2.0, -1.0, 8)])  # y1 >= 1 and y1 <= 0
        family = PolyhedralFamily(Polyhedron(normals, offsets))
        assert np.all(_support_reference(family.poly, family.normalized()[0]) == np.inf)
        counters = {}
        rows = family.determination(1e-9, counters)
        assert counters["support_lps"] == 1
        assert [r[1] for r in rows] == [np.inf] * 10

    def test_simplex_lp_count_is_pinned(self):
        # y >= 0 and y1 + ... + y4 <= 1: any minimiser is a vertex on four of
        # the five facets, so the one facet it misses is the only other LP
        poly = Polyhedron(np.vstack([np.eye(4), -np.ones((1, 4))]), [0.0, 0.0, 0.0, 0.0, -1.0])
        family = PolyhedralFamily(poly)
        counters = {}
        rows = family.determination(1e-9, counters)
        assert counters["support_lps"] == 2
        assert np.allclose([r[1] for r in rows], [0.0, 0.0, 0.0, 0.0, -0.5], atol=1e-12)

    def test_admissible_counters(self):
        family = PolyhedralFamily(_redundant_polytope(4))
        counters = {}
        rows = family.determination(Options().tol_lp, counters)
        diag = admissible_diagnostics(Problem(10, parse("x1", 10), family), np.zeros(10))
        assert diag.determination == rows
        assert diag.counters == {**counters, "lipschitz_walks": 0}


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
        counters = {}
        equi_lipschitz_estimate(linear_sip_problem(257), (1, 1), 0.1, 32, seed=1, counters=counters)
        assert counters == {"lipschitz_walks": 3}

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
        monkeypatch.setattr(
            model_mod, "evaluate_many", lambda f, x, t: sizes.append(len(t)) or walk(f, x, t)
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
