import numpy as np
import pytest
from hypothesis import given, strategies as st

from sipcert.expr import parse
from sipcert.geometry import Polyhedron
from sipcert.model import (
    FamilyScan,
    FiniteFamily,
    IndexSet,
    InfeasibleError,
    ParametricFamily,
    PolyhedralFamily,
    Problem,
    active_set,
    admissible_diagnostics,
    equi_lipschitz_estimate,
    evaluate_family,
    feasibility,
)
from sipcert.multipliers import certify_fj
from sipcert.options import Options


def near_active_problem():
    """phi0 = x1 plus the countable members as a parametric window t = 1/k."""
    family = ParametricFamily(
        h=parse("x2 + t1", 2, 1),
        index=IndexSet.finite([[1.0 / k] for k in range(1, 11)]),
        extra=(parse("x1", 2),),
        extra_tags=("phi0",),
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
            extra_tags=("phi0",),
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
        assert len(params) >= 65  # all grid points, plus refined duplicates
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
        prob = linear_sip_problem()
        opts = Options()
        coarse = active_set(prob, (1, 1), 1e-8, opts, grid=65)
        fine = active_set(prob, (1, 1), 1e-8, opts, grid=129)
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

        def counted(self, grid=None):
            calls.append(grid)
            return grid_points(self, grid)

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
