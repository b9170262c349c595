import numpy as np
import pytest
from hypothesis import given, strategies as st

from sipcert.geometry import (
    GeometryError,
    Hull,
    Polyhedron,
    caratheodory_reduce,
    cone_interior_nonempty,
    dual_cone,
    hull_distance,
    hull_member,
    one_sided_hull_gap,
    polyhedron_minimize,
    recession_cone,
    segment_hull_member,
)


def H(*rows):
    return Hull(np.array(rows, dtype=float))


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
            r = hull_member(target, Hull(gens), 1e-8)
            assert r.member
            assert np.all(r.coeffs >= -1e-9)
            assert abs(r.coeffs.sum() - 1.0) <= 1e-9
            assert np.abs(gens.T @ r.coeffs - target).max() <= 1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(GeometryError):
            hull_member((0, 0, 0), H([1, 0], [0, 1]))

    def test_empty_hull(self):
        with pytest.raises(GeometryError):
            hull_member((0.0,), Hull(np.zeros((0, 1))))

    @given(st.floats(min_value=0.1, max_value=10))
    def test_scaling_agreement(self, c):
        gens = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
        base = hull_member((0.1, 0.2), Hull(gens))
        scaled = hull_member((0.1 * c, 0.2 * c), Hull(c * gens))
        assert base.member == scaled.member
        assert np.abs(base.coeffs - scaled.coeffs).max() <= 1e-9


class TestCaratheodory:
    def test_square_around_origin(self):
        hull = H([1, 0], [0, 1], [-1, 0], [0, -1])
        idx, coeffs = caratheodory_reduce((0, 0), hull, [0.25] * 4)
        assert len(idx) <= 3
        assert np.abs(hull.generators[idx].T @ coeffs - 0).max() <= 1e-9

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
            idx, coeffs = caratheodory_reduce(target, Hull(gens), weights)
            assert len(idx) <= p + 1
            assert np.abs(gens[idx].T @ coeffs - target).max() <= 1e-9
            # the output is still a convex representation
            check = hull_member(target, Hull(gens[idx]), 1e-8)
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
        r = segment_hull_member((0, 0), (1, 0), Hull(gens[order]))
        assert r.member
        assert r.lam == pytest.approx(0.5, abs=1e-12)

    def test_grid_oracle_agreement(self, rng):
        for _ in range(25):
            gens = rng.uniform(-1, 1, size=(3, 2))
            w = rng.uniform(-1, 1, size=2)
            target = rng.uniform(-1, 1, size=2) * 0.8
            lp = segment_hull_member(target, w, Hull(gens), 1e-6)
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
        rec = recession_cone(Polyhedron.full_space(3))
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

    def test_dual_cone_examples(self):
        orthant_dual = dual_cone(H([1, 0], [0, 1]))
        assert orthant_dual.contains([2, 3])
        assert not orthant_dual.contains([-1, 0.5])
        plane_dual = dual_cone(H([1, 0], [-1, 0], [0, 1], [0, -1]))
        assert plane_dual.contains([0, 0])
        assert not plane_dual.contains([1e-3, 0])
        ray_dual = dual_cone(H([1, 1]))
        assert ray_dual.contains([1, 0]) and not ray_dual.contains([-1, 0])

    def test_bidual_recovers_orthant_predicate(self):
        # dual of the orthant's dual-cone normals, as a membership predicate
        first = dual_cone(H([1, 0], [0, 1]))
        second = dual_cone(Hull(first.normals))
        orthant = Polyhedron([[1, 0], [0, 1]], [0, 0])
        for x in np.array([[0.5, 0.5], [1, 0], [0, 0], [-0.5, 0.5], [-1, -1], [0.3, -0.01]]):
            assert second.contains(x) == orthant.contains(x)


class TestPolyhedronMinimize:
    def test_bounded(self):
        poly = Polyhedron([[1, 1], [1, 0]], [1, 0])  # x+y >= 1, x >= 0
        r = polyhedron_minimize(poly, [1, 1])
        assert r.status == "optimal"
        assert r.value == pytest.approx(1.0, abs=1e-9)

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


def test_one_sided_gap_skips_shared_generators():
    a = H([1, 0], [0, 1], [2, 2])
    b = H([1, 0], [0, 1])
    assert one_sided_hull_gap(b, a) == 0.0
    # inf-norm distance from (2,2) to the segment, attained at its midpoint
    assert one_sided_hull_gap(a, b) == pytest.approx(1.5, abs=1e-9)


def test_hull_dedupe_keeps_first_tag():
    hull = Hull(np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]), tags=("a", "b", "c"))
    d = hull.deduped()
    assert len(d) == 2
    assert d.tags == ("a", "b")


def test_hull_dedupe_keeps_first_occurrence_and_signed_zeros_apart():
    gens = np.array([[-0.0, 1.0], [2.0, 3.0], [0.0, 1.0], [2.0, 3.0], [-0.0, 1.0]])
    d = Hull(gens, tags=("a", "b", "c", "d", "e")).deduped()
    assert d.tags == ("a", "b", "c")
    assert [np.signbit(g[0]) for g in d.generators] == [True, False, False]


def test_hull_distance_empty_is_infinite():
    assert hull_distance((0.0,), Hull(np.zeros((0, 1)))) == np.inf
