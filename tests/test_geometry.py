import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize import linprog

import sipcert.geometry as geometry
from sipcert.geometry import (
    GeometryError,
    Polyhedron,
    caratheodory_reduce,
    cone_interior_nonempty,
    first_equal_rows,
    hull_distance,
    hull_member,
    one_sided_hull_gap,
    polyhedron_lp,
    polyhedron_minimize,
    recession_cone,
    segment_hull_member,
)
from sipcert.multipliers import tc_approx
from sipcert.options import Options

from conftest import fit_by_solve_lp


def H(*rows):
    return np.array(rows, dtype=float)


class TestHullMember:
    def test_symmetric_triangle(self):
        r = hull_member((0, 0), H([1, 0], [0, 1], [-1, -1]))
        assert r.member
        assert np.allclose(r.coeffs, [1 / 3] * 3, atol=1e-9)

    def test_strict_active_pair_excludes_origin(self):
        r = hull_member((0, 0), H([0, -1], [1, 0]))
        assert not r.member
        assert r.distance == pytest.approx(0.5, abs=1e-9)

    def test_edge_point(self):
        r = hull_member((0.25, 0.75), H([1, 0], [0, 1]))
        assert r.member
        assert np.allclose(r.coeffs, [0.25, 0.75], atol=1e-9)

    def test_membership_invariants(self, rng):
        for _ in range(30):
            gens = rng.uniform(-1, 1, size=(5, 3))
            weights = rng.dirichlet(np.ones(5))
            target = gens.T @ weights
            r = hull_member(target, gens, 1e-8)
            assert r.member
            assert np.all(r.coeffs >= -1e-9)
            assert abs(r.coeffs.sum() - 1.0) <= 1e-9
            assert np.abs(gens.T @ r.coeffs - target).max() <= 1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(GeometryError):
            hull_member((0, 0, 0), H([1, 0], [0, 1]))

    def test_empty_hull(self):
        with pytest.raises(GeometryError):
            hull_member((0.0,), np.zeros((0, 1)))

    @given(st.floats(min_value=0.1, max_value=10))
    def test_scaling_agreement(self, c):
        gens = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
        base = hull_member((0.1, 0.2), gens)
        scaled = hull_member((0.1 * c, 0.2 * c), c * gens)
        assert base.member == scaled.member
        assert np.abs(base.coeffs - scaled.coeffs).max() <= 1e-9


def _fit_targets(rng, gens):
    """Targets inside, on a generator, on an edge, and far outside the hull."""
    n, p = gens.shape
    return [
        rng.dirichlet(np.ones(n)) @ gens,
        gens[int(rng.integers(n))],
        0.5 * (gens[0] + gens[-1]),
        rng.standard_normal(p) * 10.0,
        gens.mean(axis=0) + 1e-13,
    ]


class TestFitLP:
    """The inf-norm fit written around one column starts feasible: no phase 1."""

    def test_no_equality_row_and_nonnegative_rhs(self, rng):
        for _ in range(40):
            n, p = int(rng.integers(1, 40)), int(rng.integers(1, 5))
            gens = rng.standard_normal((n, p)) * 10.0 ** rng.integers(-3, 4)
            for t in _fit_targets(rng, gens):
                bound, nearest = geometry._nearest_generator_distance(t[None], gens)
                k = int(nearest[0])
                c, a_ub, b_ub, tableau, u = geometry._fit_lp(gens.T, t, k)
                assert a_ub.shape == (2 * p + 1, n + 1) and b_ub.shape == (2 * p + 1,)
                assert np.all(b_ub >= 0.0)
                assert u == bound[0]
                assert np.all(a_ub[:, k] == 0.0) and c[k] == 0.0
                # the rows are views of the slack tableau, whose cost row is zero
                assert np.shares_memory(a_ub, tableau) and np.shares_memory(b_ub, tableau)
                assert not tableau[-1].any()

    def test_hull_and_segment_lps_run_no_phase_one(self, monkeypatch, rng):
        # each fit LP is either solved in its own slack tableau, every
        # right-hand side >= 0, so no Simplex is built: no artificial column,
        # no phase 1; or, with no tie-break objective, its first pivot ends
        # it and the fit returns solve_lp's answer on copies of _fit_lp's
        # arrays, byte for byte, with no tableau written and no solve
        from sipcert import lp

        built, solved, written, fits, exits = [], [], [], [], []
        monkeypatch.setattr(lp, "Simplex", lambda *args, **kwargs: built.append(args))
        solve, fit, fit_lp = geometry.solve_lp, geometry._fit, geometry._fit_lp

        def logged(c, a_ub, b_ub, *, then=None, tableau=None):
            solved.append(tableau is not None and bool(np.all(b_ub >= 0.0)))
            return solve(c, a_ub, b_ub, then=then, tableau=tableau)

        def writing(cols, t, k):
            written.append(k)
            return fit_lp(cols, t, k)

        def fitting(cols, t, then=None, k=None):
            before = (len(solved), len(written))
            answer = fit(cols, t, then, k)
            fits.append(k)
            if len(solved) == before[0]:
                assert then is None  # a fit with a tie-break always runs the simplex
                assert len(written) == before[1]  # an exit writes no tableau
                exits.append((cols.copy(), t.copy(), k, answer))
            return answer

        monkeypatch.setattr(geometry, "solve_lp", logged)
        monkeypatch.setattr(geometry, "_fit_lp", writing)
        monkeypatch.setattr(geometry, "_fit", fitting)
        for _ in range(20):
            gens = rng.standard_normal((int(rng.integers(1, 30)), 3))
            for t in _fit_targets(rng, gens):
                hull_member(t, gens)
                segment_hull_member(t, rng.standard_normal(3), gens)
        assert built == [] and all(solved) and exits
        assert len(solved) + len(exits) == len(fits) == 20 * 5 * 2
        assert len(written) == len(solved)  # a tableau only for a fit the simplex runs
        monkeypatch.undo()
        for cols, t, k, (coeffs, distance, pivots) in exits:
            a, expected, ref_pivots = fit_by_solve_lp(cols, t, k=k)
            assert (coeffs.tobytes(), distance.hex(), pivots) == (
                a.tobytes(), expected.hex(), ref_pivots
            )

    def test_distance_lies_within_the_nearest_generator_distance(self, rng):
        # exactly, so one_sided_hull_gap's early break holds in floating point
        for _ in range(60):
            n, p = int(rng.integers(1, 40)), int(rng.integers(1, 5))
            gens = rng.standard_normal((n, p))
            for t in _fit_targets(rng, gens):
                u = geometry._nearest_generator_distance(t[None], gens)[0][0]
                d = hull_distance(t, gens)
                assert 0.0 <= d <= u

    def test_target_on_a_generator_is_at_distance_zero(self, rng):
        gens = rng.standard_normal((50, 3))
        for k in range(50):
            r = hull_member(gens[k], gens, tol=0.0)
            assert r.distance == 0.0 and r.member

    def test_coefficients_pass_the_convexity_check(self, rng):
        for _ in range(40):
            n, p = int(rng.integers(2, 40)), int(rng.integers(1, 5))
            gens = rng.standard_normal((n, p))
            t = rng.dirichlet(np.ones(n)) @ gens
            r = hull_member(t, gens)
            assert r.member and np.all(r.coeffs >= 0.0)
            idx, coeffs = caratheodory_reduce(t, gens, r.coeffs)
            assert np.abs(gens[idx].T @ coeffs - t).max() <= 1e-9

    def test_hull_lps_match_scipy(self, rng):
        from scipy.optimize import linprog

        for _ in range(20):
            n, p = int(rng.integers(1, 60)), int(rng.integers(1, 5))
            gens = rng.standard_normal((n, p))
            for t in _fit_targets(rng, gens):
                a_ub = np.block([[gens.T, -np.ones((p, 1))], [-gens.T, -np.ones((p, 1))]])
                ref = linprog(np.r_[np.zeros(n), 1.0], A_ub=a_ub, b_ub=np.r_[t, -t],
                              A_eq=np.r_[np.ones(n), 0.0][None, :], b_eq=[1.0])
                r = hull_member(t, gens)
                assert r.distance == pytest.approx(ref.fun, abs=1e-9 * (1.0 + abs(ref.fun)))
                assert abs(r.coeffs.sum() - 1.0) <= 1e-12
                assert np.abs(gens.T @ r.coeffs - t).max() <= r.distance + 1e-9


class TestCaratheodory:
    def test_square_around_origin(self):
        hull = H([1, 0], [0, 1], [-1, 0], [0, -1])
        idx, coeffs = caratheodory_reduce((0, 0), hull, [0.25] * 4)
        assert len(idx) <= 3
        assert np.abs(hull[idx].T @ coeffs - 0).max() <= 1e-9

    def test_independent_support_is_fixed_point(self):
        hull = H([1, 0], [0, 1])
        idx, coeffs = caratheodory_reduce((0.25, 0.75), hull, [0.25, 0.75])
        assert list(idx) == [0, 1]
        assert np.allclose(coeffs, [0.25, 0.75])

    def test_exact_coincidence_collapses(self):
        hull = H([1, 0], [0, 1], [0.5, 0.5])
        idx, coeffs = caratheodory_reduce((0.5, 0.5), hull, [0.25, 0.25, 0.5])
        assert list(idx) == [2]
        assert coeffs[0] == pytest.approx(1.0, abs=1e-12)

    def test_invalid_representation_rejected(self):
        hull = H([1, 0], [0, 1])
        with pytest.raises(GeometryError):
            caratheodory_reduce((5, 5), hull, [0.5, 0.5])
        with pytest.raises(GeometryError):
            caratheodory_reduce((0.5, 0.5), hull, [0.9, 0.9])

    def test_random_support_bound(self, rng):
        for _ in range(100):
            p = int(rng.integers(2, 5))
            n = p + 4
            gens = rng.uniform(-1, 1, size=(n, p))
            weights = rng.dirichlet(np.ones(n))
            target = gens.T @ weights
            idx, coeffs = caratheodory_reduce(target, gens, weights)
            assert len(idx) <= p + 1
            assert np.abs(gens[idx].T @ coeffs - target).max() <= 1e-9
            # the output is still a convex representation
            check = hull_member(target, gens[idx], 1e-8)
            assert check.member


class TestSegmentHull:
    def test_near_active_segment(self):
        r = segment_hull_member((0, 0), (0, -1), H([1, 0], [0, 1]))
        assert r.member
        assert r.lam == pytest.approx(0.5, abs=1e-9)
        assert np.allclose(r.coeffs, [0, 1], atol=1e-9)

    def test_endpoint(self):
        r = segment_hull_member((5, 5), (5, 5), H([1, 0], [0, 1]))
        assert r.member
        assert r.lam == pytest.approx(1.0, abs=1e-9)

    def test_miss(self):
        r = segment_hull_member((1, 1), (0, 0), H([1, 0]))
        assert not r.member

    @pytest.mark.parametrize("order", [[0, 1, 2], [2, 1, 0], [1, 2, 0]])
    def test_largest_lambda_whatever_the_order(self, order):
        # 0 = lam (1, 0) + (1 - lam) g holds for every lam in [0, 1/2]
        gens = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        r = segment_hull_member((0, 0), (1, 0), gens[order])
        assert r.member
        assert r.lam == pytest.approx(0.5, abs=1e-12)

    def test_grid_oracle_agreement(self, rng):
        for _ in range(25):
            gens = rng.uniform(-1, 1, size=(3, 2))
            w = rng.uniform(-1, 1, size=2)
            target = rng.uniform(-1, 1, size=2) * 0.8
            lp = segment_hull_member(target, w, gens, 1e-6)
            best = _segment_grid_oracle(target, w, gens)
            resolution = 0.15
            if best <= 1e-9:
                assert lp.member
            elif best > resolution:
                assert not lp.member


def _segment_grid_oracle(target, w, gens, steps=30):
    best = np.inf
    lams = np.linspace(0, 1, steps + 1)
    weights = np.linspace(0, 1, steps + 1)
    for lam in lams:
        for a in weights:
            for b in weights:
                if a + b > 1:
                    continue
                point = lam * w + (1 - lam) * (
                    a * gens[0] + b * gens[1] + (1 - a - b) * gens[2]
                )
                best = min(best, np.abs(point - target).max())
    return best


class TestSegmentHullIdentity:
    def test_nested_families(self):
        # K1 > K2 > K3 as hulls; membership in all three [w, K_n] must agree
        # with membership in [w, K3] since the intersection is K3
        k1 = H([2, 0], [0, 2], [-2, -2])
        k2 = H([1, 0], [0, 1], [-1, -1])
        k3 = H([0.5, 0], [0, 0.5], [-0.5, -0.5])
        w = np.array([3.0, 3.0])
        for target in np.array(
            [[0, 0], [1, 1], [2.9, 2.9], [0.4, 0.2], [-0.3, -0.4], [2, -1]]
        ):
            in_all = all(
                segment_hull_member(target, w, k).member for k in (k1, k2, k3)
            )
            in_inner = segment_hull_member(target, w, k3).member
            assert in_all == in_inner


class TestCones:
    def test_recession_cone_drops_offsets(self):
        rec = recession_cone(Polyhedron([[1, 0], [1, 1]], [0, 1]))
        assert np.array_equal(rec.offsets, [0, 0])
        assert np.array_equal(rec.normals, [[1, 0], [1, 1]])

    def test_recession_full_space(self):
        rec = recession_cone(Polyhedron(np.zeros((0, 3)), np.zeros(0)))
        assert rec.normals.shape == (0, 3)

    def test_orthant_interior(self):
        r = cone_interior_nonempty(Polyhedron([[1, 0], [0, 1]], [0, 0]))
        assert r.nonempty
        d = r.witness / np.linalg.norm(r.witness)
        assert np.allclose(d, [1 / np.sqrt(2)] * 2, atol=1e-6)

    def test_hyperplane_slice_has_empty_interior(self):
        r = cone_interior_nonempty(Polyhedron([[1, 0], [-1, 0]], [0, 0]))
        assert not r.nonempty
        assert abs(r.margin) <= 1e-9

    def test_wedge_margin(self):
        r = cone_interior_nonempty(Polyhedron([[1, 1], [1, -1]], [0, 0]))
        assert r.nonempty
        assert r.margin == pytest.approx(1 / np.sqrt(2), abs=1e-9)
        assert np.allclose(r.witness, [1, 0], atol=1e-9)

    def test_nonzero_offsets_rejected(self):
        with pytest.raises(GeometryError):
            cone_interior_nonempty(Polyhedron([[1, 0]], [1]))


class TestPolyhedronMinimize:
    def test_bounded(self):
        poly = Polyhedron([[1, 1], [1, 0]], [1, 0])  # x+y >= 1, x >= 0
        r = polyhedron_minimize(poly, [1, 1])
        assert r.status == "optimal"
        assert r.objective == pytest.approx(1.0, abs=1e-9)

    def test_unbounded_with_ray(self):
        poly = Polyhedron([[1, 0]], [0])  # x >= 0, y free
        r = polyhedron_minimize(poly, [0, 1])
        assert r.status == "unbounded"
        assert r.ray is not None
        assert np.dot([0, 1], r.ray) < 0
        assert poly.normals @ r.ray >= -1e-9

    def test_infeasible(self):
        poly = Polyhedron([[1], [-1]], [1, 0])  # x >= 1 and x <= 0
        assert polyhedron_minimize(poly, [1]).status == "infeasible"

    def test_negative_coordinates_without_a_split(self):
        # the triangle y1 + y2 <= -1, y1 >= -3, y2 >= -3, mostly in y < 0:
        # one column per coordinate, and the point is y itself
        poly = Polyhedron([[-1, -1], [1, 0], [0, 1]], [1, -3, -3])
        support = polyhedron_lp(poly)
        for z, point in (([1, 1], [-3, -3]), ([-1, 0], [2, -3]), ([0, -1], [-3, 2]), ([1, 1], [-3, -3])):
            r = support.minimize(z)
            assert r.status == "optimal" and np.array_equal(r.x, point)
            assert r.objective == np.dot(z, point)
        assert support._tableau.shape == (4, 3)

    def test_kept_tableau_against_scipy(self, rng):
        # random polyhedra (bounded, unbounded, empty), eight objectives each
        seen = set()
        for _ in range(30):
            m, p = int(rng.integers(1, 12)), int(rng.integers(1, 5))
            normals = rng.standard_normal((m, p))
            offsets = rng.standard_normal(m) - (0.5 if rng.random() < 0.7 else -1.5)
            poly = Polyhedron(normals, offsets)
            support = polyhedron_lp(poly)
            for _ in range(8):
                z = rng.standard_normal(p)
                r = support.minimize(z)
                ref = linprog(z, A_ub=-normals, b_ub=-offsets, bounds=(None, None))
                if ref.status == 2:  # HiGHS may call an unbounded LP infeasible
                    ref = linprog(np.zeros(p), A_ub=-normals, b_ub=-offsets, bounds=(None, None))
                    assert r.status == ("infeasible" if ref.status == 2 else "unbounded")
                else:
                    assert r.status == {0: "optimal", 3: "unbounded"}[ref.status]
                seen.add(r.status)
                if r.status == "optimal":
                    assert r.objective == pytest.approx(ref.fun, abs=1e-8 * (1 + abs(ref.fun)))
                if r.status != "infeasible":
                    assert np.all(normals @ r.x >= offsets - 1e-8)
                if r.status == "unbounded":
                    assert np.all(normals @ r.ray >= -1e-9) and np.dot(z, r.ray) < 0
        assert seen == {"optimal", "unbounded", "infeasible"}


def test_one_sided_gap_skips_shared_generators():
    a = H([1, 0], [0, 1], [2, 2])
    b = H([1, 0], [0, 1])
    assert one_sided_hull_gap(b, a) == 0.0
    # inf-norm distance from (2,2) to the segment, attained at its midpoint
    assert one_sided_hull_gap(a, b) == pytest.approx(1.5, abs=1e-9)


def test_hull_dedupe_keeps_first_tag():
    gens = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    tags = ("a", "b", "c")
    keep = np.flatnonzero(first_equal_rows(gens) == np.arange(len(gens)))
    assert len(keep) == 2
    assert tuple(tags[i] for i in keep) == ("a", "b")


def test_hull_dedupe_keeps_first_occurrence_and_signed_zeros_apart():
    gens = np.array([[-0.0, 1.0], [2.0, 3.0], [0.0, 1.0], [2.0, 3.0], [-0.0, 1.0]])
    tags = ("a", "b", "c", "d", "e")
    keep = np.flatnonzero(first_equal_rows(gens) == np.arange(len(gens)))
    assert tuple(tags[i] for i in keep) == ("a", "b", "c")
    assert [np.signbit(g[0]) for g in gens[keep]] == [True, False, False]


def test_hull_distance_empty_is_infinite():
    assert hull_distance((0.0,), np.zeros((0, 1))) == np.inf


def _unpruned_gap(src, dst):
    """The reference: every deduped src row's LP distance, no pruning."""
    if len(src) == 0:
        return 0.0, []
    if len(dst) == 0:
        return float("inf"), []
    both = np.vstack([dst, src])
    first = np.flatnonzero(first_equal_rows(both) == np.arange(len(both)))
    rows = both[first[first >= len(dst)]]
    distances = [hull_distance(row, dst) for row in rows]
    gap = 0.0
    for d in distances:
        gap = max(gap, d)
    return gap, list(zip(rows, distances))


def _log_fits(monkeypatch):
    """The target bytes of every fit LP ``geometry._fit`` runs from here on.

    Each fit must start where ``_fit``'s own choice would, at the first
    nearest column, and give its coefficients, distance and pivots bit for bit.
    """
    run = []
    fit = geometry._fit

    def logged(cols, t, then=None, k=None):
        run.append(t.tobytes())
        got = fit(cols, t, then, k)
        if k is not None:
            assert k == int(np.abs(cols.T - t).max(axis=1).argmin())  # the first of equals
            own = fit(cols, t, then)
            assert got[0].tobytes() == own[0].tobytes()
            assert (got[1].hex(), got[2]) == (own[1].hex(), own[2])
        return got

    monkeypatch.setattr(geometry, "_fit", logged)
    return run


class TestOneSidedGapPruning:
    """The pruned gap equals the unpruned maximum bit for bit; skipped rows cannot raise it."""

    def _check(self, monkeypatch, src, dst):
        src, dst = np.asarray(src, dtype=float), np.asarray(dst, dtype=float)
        expected, distances = _unpruned_gap(src, dst)
        run = _log_fits(monkeypatch)
        gap = one_sided_hull_gap(src, dst)
        monkeypatch.undo()
        assert gap.hex() == expected.hex()
        assert len(run) == len(set(run)) <= len(distances)
        for row, d in distances:
            if row.tobytes() not in run:  # skipped
                assert d <= gap + Options.tol_lp
        return gap, len(run), len(distances)

    def test_random_hulls(self, monkeypatch, rng):
        run = offered = 0
        for _ in range(60):
            p = int(rng.integers(1, 4))
            dst = rng.integers(-3, 4, size=(int(rng.integers(1, 8)), p)) / 2.0  # ties in u
            inside = rng.dirichlet(np.ones(len(dst)), size=2) @ dst  # rows in conv(dst)
            src = np.vstack([
                rng.integers(-4, 5, size=(int(rng.integers(1, 8)), p)) / 2.0,
                rng.uniform(-2, 2, size=(int(rng.integers(0, 4)), p)),
                inside,
                dst[: int(rng.integers(0, 3))],  # exact repeats of dst rows
            ])
            src = np.vstack([src, src[rng.integers(0, len(src), size=2)]])  # repeats in src
            src[0, 0], src[-1] = 0.0, src[0]
            src[-1, 0] = -0.0  # equal as numbers, apart as bytes
            rng.shuffle(src)
            _, k, n = self._check(monkeypatch, src, dst)
            run, offered = run + k, offered + n
        assert run < offered  # the bound does prune

    def test_ties_in_the_bound_go_in_src_order(self, monkeypatch):
        # both rows are 1 from the single dst generator; only the first needs an LP
        run = _log_fits(monkeypatch)
        assert one_sided_hull_gap(H([0, 1], [1, 0]), H([0, 0])) == 1.0
        assert run == [np.array([0.0, 1.0]).tobytes()]

    @pytest.mark.parametrize("order", [1, -1])
    def test_ties_in_the_start_column_go_to_the_first_generator(self, monkeypatch, order):
        # (0, .5) is 1 from both (1, 0) and (-1, 0): the LP starts at the
        # first of them in dst order, as hull_distance's own search does
        dst = H([1, 0], [-1, 0], [0, -3])
        dst = np.vstack([dst[:2][::order], dst[2:]])
        run = _log_fits(monkeypatch)
        assert one_sided_hull_gap(H([0, 0.5]), dst) == 0.5
        assert run == [np.array([0.0, 0.5]).tobytes()]

    def test_signed_zero_twin_of_a_dst_row(self, monkeypatch):
        gap, run, offered = self._check(monkeypatch, [[-0.0, 1.0], [0.0, 1.0]], [[0.0, 1.0]])
        assert (gap, run, offered) == (0.0, 0, 1)

    def test_empty_sides(self, monkeypatch):
        run = _log_fits(monkeypatch)
        assert one_sided_hull_gap(np.zeros((0, 2)), H([1, 0])) == 0.0
        assert one_sided_hull_gap(H([1, 0]), np.zeros((0, 2))) == np.inf
        assert run == []

    @pytest.mark.parametrize("grid, t_index", [(1025, [400]), (65, [40, 16])])
    def test_ladder_rungs(self, monkeypatch, sphere_ladder, grid, t_index):
        prob, x = sphere_ladder(grid, t_index)
        tc = tc_approx(prob, x, Options())
        assert tc.stopped_by == "stabilized"
        grads = tc.ladder[0][1].scan.grads
        run = offered = 0
        for (_, prev), (_, new) in zip(tc.ladder, tc.ladder[1:]):
            dropped = np.setdiff1d(prev.entries, new.entries)
            _, k, n = self._check(monkeypatch, grads[dropped], grads[new.entries])
            run, offered = run + k, offered + n
            self._check(monkeypatch, grads[new.entries], grads[prev.entries])  # the other side
        assert 2 * run < offered


class TestNearestGeneratorBound:
    @staticmethod
    def _broadcast(rows, gens):
        """(rows, generators) inf-norm distances."""
        return np.abs(rows[:, None, :] - gens[None, :, :]).max(axis=2)

    @pytest.mark.parametrize("chunk", [1, 7, 64, 1 << 18])
    def test_chunks_match_the_broadcast(self, monkeypatch, rng, chunk):
        monkeypatch.setattr(geometry, "_BOUND_CHUNK", chunk)
        for n, m, p in [(0, 3, 2), (1, 1, 1), (5, 9, 3), (37, 11, 2), (200, 150, 4)]:
            rows, gens = rng.standard_normal((n, p)), rng.standard_normal((m, p))
            got, nearest = geometry._nearest_generator_distance(rows, gens)
            assert got.tobytes() == self._broadcast(rows, gens).min(axis=1).tobytes()
            assert np.array_equal(nearest, self._broadcast(rows, gens).argmin(axis=1))

    def test_ties_go_to_the_first_generator(self):
        rows = np.array([[0.0, 0.5], [2.0, 2.0], [-0.0, 0.0]])
        gens = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0], [-0.0, -0.0]])
        got, nearest = geometry._nearest_generator_distance(rows, gens)
        assert got.tolist() == [0.5, 2.0, 0.0] and nearest.tolist() == [2, 0, 2]

    def test_peak_memory_stays_small(self, rng):
        rows, gens = rng.standard_normal((4096, 2)), rng.standard_normal((4096, 2))
        tracemalloc.start()
        try:
            got, _ = geometry._nearest_generator_distance(rows, gens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20  # the whole broadcast would be 256 MB
        assert got.shape == (4096,)
