import numpy as np
import pytest
from scipy.optimize import linprog

import sipcert.lp as lp
from sipcert.lp import SimplexError, solve_lp


def test_simple_optimal():
    sol = solve_lp([-1, -1], a_ub=[[1, 0], [0, 1], [1, 1]], b_ub=[1, 1, 1.5])
    assert sol.optimal
    assert sol.objective == pytest.approx(-1.5, abs=1e-12)


def test_equality_only():
    sol = solve_lp([1, 2], a_eq=[[1, 1]], b_eq=[1])
    assert sol.optimal
    assert np.allclose(sol.x, [1, 0], atol=1e-12)


def test_infeasible():
    sol = solve_lp([1], a_ub=[[1], [-1]], b_ub=[1, -2])  # x <= 1 and x >= 2
    assert sol.status == "infeasible"


def test_unbounded_with_ray():
    sol = solve_lp([-1, 0], a_ub=[[0, 1]], b_ub=[1])
    assert sol.status == "unbounded"
    assert sol.ray is not None
    assert sol.ray[0] > 0  # the objective decreases along the ray
    assert np.dot([-1, 0], sol.ray) < 0


def test_negative_rhs_rows():
    # x1 >= 2 written as -x1 <= -2
    sol = solve_lp([1, 0], a_ub=[[-1, 0]], b_ub=[-2])
    assert sol.optimal
    assert sol.x[0] == pytest.approx(2, abs=1e-12)


def test_degenerate_redundant_equalities():
    sol = solve_lp([1, 1], a_eq=[[1, 1], [2, 2]], b_eq=[1, 2])
    assert sol.optimal
    assert sol.objective == pytest.approx(1, abs=1e-12)


def test_random_instances_match_scipy(rng):
    mismatches = 0
    for _ in range(60):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 5))
        c = rng.standard_normal(n)
        a_ub = rng.standard_normal((m, n))
        b_ub = rng.standard_normal(m) + 1.0
        a_eq = np.ones((1, n))
        b_eq = [1.0]
        mine = solve_lp(c, a_ub, b_ub, a_eq, b_eq)
        ref = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=(0, None))
        if ref.status == 2:
            assert mine.status == "infeasible"
        elif ref.status == 3:
            assert mine.status == "unbounded"
        else:
            assert mine.optimal
            if abs(mine.objective - ref.fun) > 1e-7 * (1 + abs(ref.fun)):
                mismatches += 1
    assert mismatches == 0


def test_solution_feasibility(rng):
    for _ in range(40):
        n = int(rng.integers(2, 7))
        c = rng.standard_normal(n)
        a_ub = rng.standard_normal((3, n))
        b_ub = np.abs(rng.standard_normal(3)) + 0.5
        sol = solve_lp(c, a_ub, b_ub, np.ones((1, n)), [1.0])
        if sol.optimal:
            assert np.all(sol.x >= -1e-9)
            assert np.all(a_ub @ sol.x <= b_ub + 1e-9)
            assert abs(sol.x.sum() - 1.0) <= 1e-9


# Beale's LP (1955): Dantzig pricing with a lowest-index leaving row cycles on it
BEALE = (
    [-0.75, 20.0, -0.5, 6.0],
    [[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]],
    [0.0, 0.0, 1.0],
)


def test_beale_cycling_lp_terminates_at_the_optimum():
    sol = solve_lp(*BEALE)
    assert sol.optimal
    assert sol.objective == pytest.approx(-1.25, abs=1e-12)
    assert np.allclose(sol.x, [1, 0, 1, 0], atol=1e-12)


def test_beale_cycles_without_the_bland_fallback(monkeypatch):
    # the instance really exercises the fallback: pure Dantzig pricing never ends
    monkeypatch.setattr(lp, "_DEGENERATE_RUN", 10**9)
    monkeypatch.setattr(lp, "_MAX_ITERS", 500)
    with pytest.raises(SimplexError):
        solve_lp(*BEALE)


def test_pivots_are_counted():
    sol = solve_lp(*BEALE)
    assert sol.pivots >= lp._DEGENERATE_RUN  # a degenerate run, then Bland's rule
    assert solve_lp([1, 1], a_ub=[[1, 1]], b_ub=[1]).pivots == 0


def test_secondary_objective_picks_within_the_optimal_face():
    # min x3 on x1 + x2 + x3 = 1: every split of x1 + x2 = 1 is optimal
    a_eq, b_eq = [[1, 1, 1]], [1]
    first = solve_lp([0, 0, 1], a_eq=a_eq, b_eq=b_eq, then=[-1, 0, 0])
    second = solve_lp([0, 0, 1], a_eq=a_eq, b_eq=b_eq, then=[0, -1, 0])
    assert first.optimal and second.optimal
    assert np.allclose(first.x, [1, 0, 0], atol=1e-12)
    assert np.allclose(second.x, [0, 1, 0], atol=1e-12)
    assert first.objective == second.objective == 0.0


def test_secondary_objective_never_costs_the_primary():
    # a unique optimum stays put whatever the secondary objective asks for
    sol = solve_lp([-1, -2], a_ub=[[1, 1]], b_ub=[1], then=[0, 5])
    assert sol.optimal
    assert np.allclose(sol.x, [0, 1], atol=1e-12)


def test_secondary_objective_unbounded_on_the_face_keeps_an_optimum():
    sol = solve_lp([0, 1], a_ub=[[0, 1]], b_ub=[1], then=[-1, 0])
    assert sol.optimal
    assert sol.objective == 0.0 and sol.x[1] == 0.0


def _hull_lp(gens, target):
    """min s s.t. |G^T a - target|_inf <= s, a in the simplex (hull_member's LP)."""
    n, p = gens.shape
    c = np.zeros(n + 1)
    c[-1] = 1.0
    a_ub = np.zeros((2 * p, n + 1))
    a_ub[:p, :n] = gens.T
    a_ub[p:, :n] = -gens.T
    a_ub[:, -1] = -1.0
    a_eq = np.zeros((1, n + 1))
    a_eq[0, :n] = 1.0
    return c, a_ub, np.concatenate([target, -target]), a_eq, [1.0]


def _assert_matches_scipy(c, a_ub, b_ub, a_eq=None, b_eq=None):
    mine = solve_lp(c, a_ub, b_ub, a_eq, b_eq)
    ref = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=(0, None))
    assert ref.status == 0 and mine.optimal
    assert mine.objective == pytest.approx(ref.fun, abs=1e-8 * (1 + abs(ref.fun)))
    assert np.all(mine.x >= -1e-9)
    assert np.all(np.asarray(a_ub) @ mine.x <= np.asarray(b_ub) + 1e-8)
    if a_eq is not None:
        assert np.allclose(np.asarray(a_eq) @ mine.x, b_eq, atol=1e-8)
    return mine


@pytest.mark.parametrize("n", [130, 2000])  # the ladder's gap LPs; a dense family scan
def test_hull_lps_match_scipy(rng, n):
    for _ in range(4):
        gens = rng.standard_normal((n, 3))
        for target in (rng.standard_normal(3) * 3.0, gens.mean(axis=0), gens[7]):
            _assert_matches_scipy(*_hull_lp(gens, target))


@pytest.mark.parametrize("n", [130, 2000])
def test_degenerate_hull_lps_with_repeated_columns(rng, n):
    # every generator appears three times and the targets sit on generators,
    # on an edge midpoint, or outside: ties in the ratio test and in pricing
    base = rng.standard_normal((n // 3, 3))
    gens = np.vstack([base, base[::-1], base])
    for target in (base[0], 0.5 * (base[1] + base[2]), base[3] + 10.0, np.zeros(3)):
        sol = _assert_matches_scipy(*_hull_lp(gens, target))
        assert sol.pivots <= 100


def _polyhedron_lp(normals, offsets, z):
    """min z@y over {a_j@y >= b_j} with y = u - v (polyhedron_minimize's LP)."""
    return np.concatenate([z, -z]), np.hstack([-normals, normals]), -offsets


def test_row_heavy_lps_match_scipy(rng):
    # 200 facets in p = 10: 200 rows by 20 columns
    for _ in range(4):
        normals = rng.standard_normal((200, 10))
        offsets = -1.0 - rng.random(200)
        _assert_matches_scipy(*_polyhedron_lp(normals, offsets, rng.standard_normal(10)))


def test_degenerate_row_heavy_lps_with_repeated_facets(rng):
    # 20 facets through one vertex y0, each listed twice; 120 more hold strictly there
    y0 = rng.standard_normal(10)
    through = rng.standard_normal((20, 10))
    others = rng.standard_normal((120, 10))
    normals = np.vstack([through, through, others])
    offsets = np.concatenate([through @ y0, through @ y0, others @ y0 - 1.0 - rng.random(120)])
    at_vertex = _assert_matches_scipy(*_polyhedron_lp(normals, offsets, through[:10].sum(axis=0)))
    assert np.allclose(at_vertex.x[:10] - at_vertex.x[10:], y0, atol=1e-8)
    _assert_matches_scipy(*_polyhedron_lp(normals, offsets, rng.standard_normal(10)))
