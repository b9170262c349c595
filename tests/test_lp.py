import numpy as np
import pytest
from scipy.optimize import linprog

import sipcert.lp as lp
from sipcert.lp import SimplexError, solve_lp

from conftest import fit_by_solve_lp


def test_simple_optimal():
    sol = solve_lp([-1, -1], a_ub=[[1, 0], [0, 1], [1, 1]], b_ub=[1, 1, 1.5])
    assert sol.optimal
    assert sol.objective == pytest.approx(-1.5, abs=1e-12)


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


def _stack(a_ub, b_ub, a_eq, b_eq):
    """``a_ub@x <= b_ub`` and ``a_eq@x == b_eq`` as one inequality system:
    each equality is the pair a@x <= b, -a@x <= -b, whose second row starts
    negated where b > 0, so phase 1 runs."""
    a_eq = np.atleast_2d(np.asarray(a_eq, dtype=float))
    b_eq = np.asarray(b_eq, dtype=float).reshape(-1)
    a_ub = np.reshape(np.asarray(a_ub, dtype=float), (-1, a_eq.shape[1]))
    return np.vstack([a_ub, a_eq, -a_eq]), np.concatenate([np.asarray(b_ub, dtype=float), b_eq, -b_eq])


def test_random_instances_match_scipy(rng):
    mismatches = 0
    for _ in range(60):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 5))
        c = rng.standard_normal(n)
        a_ub = rng.standard_normal((m, n))
        b_ub = rng.standard_normal(m) + 1.0
        a_ub, b_ub = _stack(a_ub, b_ub, np.ones((1, n)), [1.0])  # x on the simplex
        mine = solve_lp(c, a_ub, b_ub)
        ref = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0, None))
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
        sol = solve_lp(c, *_stack(a_ub, b_ub, np.ones((1, n)), [1.0]))
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
    a_ub, b_ub = _stack([], [], [[1, 1, 1]], [1])
    first = solve_lp([0, 0, 1], a_ub, b_ub, then=[-1, 0, 0])
    second = solve_lp([0, 0, 1], a_ub, b_ub, then=[0, -1, 0])
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
    """min s s.t. |G^T a - target|_inf <= s, a in the simplex, stated as the
    textbook hull LP (``hull_member`` writes it around one generator); the
    row sum(a) >= 1 starts negated, so phase 1 runs."""
    n, p = gens.shape
    c = np.zeros(n + 1)
    c[-1] = 1.0
    a_ub = np.zeros((2 * p, n + 1))
    a_ub[:p, :n] = gens.T
    a_ub[p:, :n] = -gens.T
    a_ub[:, -1] = -1.0
    simplex = np.append(np.ones(n), 0.0)
    return (c, *_stack(a_ub, np.concatenate([target, -target]), simplex, [1.0]))


def _assert_matches_scipy(c, a_ub, b_ub):
    mine = solve_lp(c, a_ub, b_ub)
    ref = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0, None))
    assert ref.status == 0 and mine.optimal
    assert mine.objective == pytest.approx(ref.fun, abs=1e-8 * (1 + abs(ref.fun)))
    assert np.all(mine.x >= -1e-9)
    assert np.all(np.asarray(a_ub) @ mine.x <= np.asarray(b_ub) + 1e-8)
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
    """min z@y over {a_j@y >= b_j} split as y = u - v with u, v >= 0.

    A row-heavy LP in nonnegative variables only, which ``solve_lp`` and the
    full-tableau reference both take; ``polyhedron_lp`` states the same LP
    in free variables instead.
    """
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


# the condensed tableau: one column per nonbasic variable, basic columns implicit


def _pivot_log(monkeypatch):
    """Record (leaving id, entering id) per pivot, and "phase" at each phase start."""
    log = []
    run_phase, pivot = lp._run_phase, lp._pivot

    def logged_phase(*args):
        log.append("phase")
        return run_phase(*args)

    def logged_pivot(tableau, basis, nb, row, slot):
        log.append((int(basis[row]), int(nb[slot])))
        return pivot(tableau, basis, nb, row, slot)

    monkeypatch.setattr(lp, "_run_phase", logged_phase)
    monkeypatch.setattr(lp, "_pivot", logged_pivot)
    return log


def _last_phase(log):
    return log[len(log) - log[::-1].index("phase"):]


def test_secondary_objective_on_a_face_of_basic_columns_only(monkeypatch):
    # a unique nondegenerate optimum: every nonbasic column is off the face
    log = _pivot_log(monkeypatch)
    plain = solve_lp([-1, -1], a_ub=[[1, 0], [0, 1]], b_ub=[1, 1])
    sol = solve_lp([-1, -1], a_ub=[[1, 0], [0, 1]], b_ub=[1, 1], then=[1, 1])
    assert sol.optimal and np.array_equal(sol.x, [1.0, 1.0])
    assert sol.pivots == plain.pivots == 2
    assert _last_phase(log) == []


def test_secondary_objective_lets_a_leaving_basic_column_re_enter(monkeypatch):
    # min x2 on the simplex leaves x1, x3, x4, x5 free; the tie-break pass
    # moves x3 out of the basis and back in on its way to x3 = 1
    log = _pivot_log(monkeypatch)
    a_ub, b_ub = _stack([[2, -2, -1, 1, 1]], [2], [[1, 1, 1, 1, 1]], [1])
    sol = solve_lp([0, 1, 0, 0, 0], a_ub, b_ub, then=[3, -3, -1, 1, 0])
    assert sol.optimal and np.array_equal(sol.x, [0.0, 0.0, 1.0, 0.0, 0.0])
    tie_break = _last_phase(log)
    assert tie_break == [(2, 4), (0, 5), (4, 2), (6, 7)]
    assert sol.pivots == 8


def test_beale_through_blands_rule_after_column_swaps(monkeypatch):
    # two Dantzig pivots scramble the column order; Bland's rule must still
    # pick the lowest variable id, not the lowest column slot
    monkeypatch.setattr(lp, "_DEGENERATE_RUN", 2)
    log = _pivot_log(monkeypatch)
    sol = solve_lp(*BEALE)
    assert sol.optimal
    assert np.allclose(sol.x, [1, 0, 1, 0], atol=1e-12)
    assert log[1:] == [(4, 0), (5, 1), (0, 2), (1, 3), (6, 0), (3, 4)]
    assert sol.pivots == 6


def test_unbounded_ray_after_phase_one():
    # x1 + x2 >= 1 needs an artificial, x1 = x2 is two rows; then -x1 falls without bound
    c = [-1, 0]
    a_ub, b_ub = _stack([[-1, -1]], [-1], [[1, -1]], [0])
    sol = solve_lp(c, a_ub, b_ub)
    assert sol.status == "unbounded"
    assert np.all(sol.x >= 0) and np.all(a_ub @ sol.x <= b_ub) and sol.x[0] == sol.x[1]
    ray = sol.ray
    assert np.all(ray >= 0) and np.dot(c, ray) < 0
    assert np.all(a_ub @ ray <= 0) and ray[0] == ray[1]
    assert np.array_equal(ray, [0.5, 0.5]) and sol.pivots == 2


def _support_polytope(rng, center):
    """200 facets in p = 10 around ``center``, each at distance 1 to 2 from it."""
    normals = rng.standard_normal((200, 10))
    return normals, normals @ center - 1.0 - rng.random(200)


@pytest.mark.parametrize("outside", [False, True])
def test_support_lp_matches_scipy(rng, outside):
    # with the origin outside the polytope some rows start negated: phase 1
    center = 4.0 * rng.standard_normal(10) if outside else np.zeros(10)
    normals, offsets = _support_polytope(rng, center)
    c, a_ub, b_ub = _polyhedron_lp(normals, offsets, rng.standard_normal(10))
    assert np.any(b_ub < 0) == outside
    _assert_matches_scipy(c, a_ub, b_ub)


def _phase_one_log(monkeypatch):
    """The pivots of every phase 1 any ``Simplex`` runs."""
    log = []
    phase_one = lp.Simplex._phase_one

    def logged(self):
        log.append(phase_one(self))
        return log[-1]

    monkeypatch.setattr(lp.Simplex, "_phase_one", logged)
    return log


def _determination(normals, offsets):
    from sipcert.geometry import Polyhedron
    from sipcert.model import PolyhedralFamily
    from sipcert.options import Options
    from sipcert.work import counting

    family = PolyhedralFamily(Polyhedron(normals, offsets))
    with counting() as counts:
        rows = family.determination(Options().tol_lp)
    return family, rows, counts


def _support_reference(normals, offsets, unit):
    """scipy's inf of a @ y over {normals @ y >= offsets} for each row a of
    ``unit``: -inf where unbounded, +inf where the set is empty."""
    out = []
    for a in unit:
        res = linprog(a, A_ub=-normals, b_ub=-offsets, bounds=(None, None))
        assert res.status in (0, 2, 3)
        out.append({0: res.fun, 2: np.inf, 3: -np.inf}[res.status])
    return np.array(out)


def _assert_infima_match_scipy(normals, offsets):
    """The determination's infima against scipy, within tol_lp (1 + |c_j|);
    returns the rows."""
    family, rows, counts = _determination(normals, offsets)
    unit, stated = family.normalized()
    infima = np.array([r[1] for r in rows])
    reference = _support_reference(normals, offsets, unit)
    assert np.array_equal(infima == np.inf, reference == np.inf)
    assert np.array_equal(infima == -np.inf, reference == -np.inf)
    finite = np.isfinite(reference)
    gap = np.abs(infima[finite] - reference[finite])
    assert np.all(gap <= 1e-9 * (1.0 + np.abs(stated[finite])))
    return rows, counts


def test_determination_support_lps_and_pivots_are_pinned(monkeypatch):
    phase_one = _phase_one_log(monkeypatch)
    normals, offsets = _support_polytope(np.random.default_rng(7), np.zeros(10))
    rows, counts = _assert_infima_match_scipy(normals, offsets)
    assert np.isfinite([r[1] for r in rows]).all()  # a bounded polytope
    # one kept tableau of free variables, visited in normal-cone order:
    # fewer LPs than the 112 cold starts from the origin, and fewer pivots
    assert (counts["support_lps"], counts["support_pivots"]) == (96, 741)
    assert phase_one == []  # the origin is inside: the slack basis is feasible


def test_determination_of_a_polytope_away_from_the_origin(monkeypatch):
    # about half of the rows start negated, so the one phase 1 has work to do
    rng = np.random.default_rng(7)
    normals, offsets = _support_polytope(rng, 4.0 * rng.standard_normal(10))
    assert np.count_nonzero(offsets > 0) == 95
    phase_one = _phase_one_log(monkeypatch)
    rows, counts = _assert_infima_match_scipy(normals, offsets)
    assert np.isfinite([r[1] for r in rows]).all()  # a bounded polytope
    assert (counts["support_lps"], counts["support_pivots"], phase_one) == (105, 900, [118])


def _random_polyhedron(rng, kind):
    """m facets in p = 2..10 around a random point, each at distance 1 to 2 from it."""
    p = int(rng.integers(2, 11))
    m = int(rng.integers(p + 2, 4 * p + 8))
    normals = rng.standard_normal((m, p))
    center = np.zeros(p) if kind == "origin" else 4.0 * rng.standard_normal(p)
    if kind == "recession":  # e1 is a recession direction
        normals[:, 0] = np.abs(normals[:, 0]) + 0.1
    if kind == "line":  # the line through the center along e_p lies in the set
        normals[:, -1] = 0.0
    offsets = normals @ center - 1.0 - rng.random(m)
    if kind == "empty":  # y1 >= 1 and -y1 >= 1
        normals[:2] = 0.0
        normals[:2, 0] = [1.0, -1.0]
        offsets[:2] = 1.0
    return normals, offsets


def _touched(rows, tol=1e-9):
    """Per facet, whether the infimum reaches its stated offset (the facet
    is necessary) or stays above it (redundant)."""
    return np.array([inf - c <= tol * (1.0 + abs(c)) for _, inf, c in rows])


def test_determination_of_random_polyhedra_matches_scipy_and_facet_order():
    # bounded and unbounded, origin inside and outside, a line, an empty set;
    # a facet's infimum over a nonempty set is at least its offset, so no
    # support LP is unbounded, not even on the unbounded sets
    rng = np.random.default_rng(19)
    kinds = ["origin", "outside", "recession", "line"] * 12 + ["empty", "line"]
    touched_counts = []
    for kind in kinds:
        normals, offsets = _random_polyhedron(rng, kind)
        rows, _ = _assert_infima_match_scipy(normals, offsets)
        infima = np.array([r[1] for r in rows])
        assert np.all(infima == np.inf) if kind == "empty" else np.isfinite(infima).all()
        touched = _touched(rows)
        perm = rng.permutation(len(offsets))
        _, permuted, _ = _determination(normals[perm], offsets[perm])
        assert np.array_equal(_touched(permuted), touched[perm])
        touched_counts.append((touched.sum(), (~touched).sum()))
    assert np.all(np.sum(touched_counts, axis=0) > 0)  # necessary and redundant facets


# one constraint set, a sequence of objectives on one kept tableau


def _random_system(rng, n, m_ub, m_eq, free=0):
    """A bounded-below mix: some rows negated (phase 1), and m_eq equalities
    as row pairs (their x[:free] entries of either sign)."""
    a_ub = rng.standard_normal((m_ub, n))
    b_ub = rng.standard_normal(m_ub) + 0.5
    a_eq = np.abs(rng.standard_normal((m_eq, n)))
    b_eq = np.abs(rng.standard_normal(m_eq)) + 1.0
    a_eq[:, :free] = rng.standard_normal((m_eq, free))
    return _stack(a_ub, b_ub, a_eq, b_eq)


def test_kept_tableau_matches_a_fresh_solve_per_objective(rng, monkeypatch):
    phase_one = _phase_one_log(monkeypatch)
    statuses = set()
    for _ in range(40):
        n, m_ub, m_eq = (int(v) for v in rng.integers([2, 1, 0], [7, 6, 3]))
        system = _random_system(rng, n, m_ub, m_eq)
        kept = lp.Simplex(n, *system)
        runs = len(phase_one)
        for _ in range(6):
            c = rng.standard_normal(n)
            mine, fresh = kept.minimize(c), solve_lp(c, *system)
            statuses.add(mine.status)
            assert mine.status == fresh.status
            if mine.optimal:
                assert mine.objective == pytest.approx(fresh.objective, abs=1e-9 * (1 + abs(fresh.objective)))
                assert np.all(mine.x >= -1e-9)
                assert np.all(system[0] @ mine.x <= system[1] + 1e-9)
        # the kept tableau's phase 1, then one per fresh solve
        assert len(phase_one) - runs == (7 if phase_one[runs:] else 0)
    assert statuses == {"optimal", "unbounded", "infeasible"}


def test_bounded_objectives_after_an_unbounded_one():
    # y1 >= 0, y2 >= 0, y1 + y2 >= 1, y2 <= 3: unbounded toward +y1 only
    a_ub, b_ub = [[-1, -1], [0, 1]], [-1, 3]
    kept = lp.Simplex(2, a_ub, b_ub)
    assert kept.minimize([1, 1]).objective == pytest.approx(1.0, abs=1e-12)
    unbounded = kept.minimize([-1, 0])
    assert unbounded.status == "unbounded" and unbounded.ray[0] > 0
    for c, best in (([1, 2], 1.0), ([0, -1], -3.0), ([2, 1], 1.0)):
        sol = kept.minimize(c)
        assert sol.optimal and sol.objective == pytest.approx(best, abs=1e-12)
        assert sol.objective == pytest.approx(solve_lp(c, a_ub, b_ub).objective, abs=1e-12)


def test_infeasible_set_runs_phase_one_once(monkeypatch):
    phase_one = _phase_one_log(monkeypatch)
    # x1 <= 1 and x1 + x2 >= 3 with x2 = 1: x1 >= 2
    kept = lp.Simplex(2, *_stack([[1, 0], [-1, -1]], [1, -3], [[0, 1]], [1]))
    sols = [kept.minimize(c) for c in ([1, 0], [-1, 0], [0, 1])]
    assert [s.status for s in sols] == ["infeasible"] * 3
    assert len(phase_one) == 1
    assert [s.pivots for s in sols] == [phase_one[0], 0, 0]


def test_secondary_objective_on_a_kept_tableau():
    # x3 = 0 on x1 + x2 + x3 = 1 leaves the edge x1 + x2 = 1 optimal
    kept = lp.Simplex(3, *_stack([], [], [[1, 1, 1]], [1]))
    first = kept.minimize([0, 0, 1], then=[-1, 0, 0])
    second = kept.minimize([0, 0, 1], then=[0, -1, 0])
    third = kept.minimize([1, 1, 0])
    assert np.array_equal(first.x, [1.0, 0.0, 0.0])
    assert np.array_equal(second.x, [0.0, 1.0, 0.0])
    assert np.array_equal(third.x, [0.0, 0.0, 1.0])
    assert first.objective == second.objective == 0.0 and third.objective == 0.0


# free variables: Simplex(..., free=k) against scipy with bounds (None, None)


def _free_reference(c, a_ub, b_ub, free):
    """scipy's (status, objective); HiGHS may call an unbounded LP infeasible,
    so infeasibility is decided again with a zero objective."""
    bounds = [(None, None)] * free + [(0, None)] * (len(c) - free)
    ref = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds)
    if ref.status == 2:
        ref = linprog(np.zeros(len(c)), A_ub=a_ub, b_ub=b_ub, bounds=bounds)
        return ("infeasible", None) if ref.status == 2 else ("unbounded", -np.inf)
    return {0: "optimal", 3: "unbounded"}[ref.status], ref.fun


def _assert_free_solution(sol, c, a_ub, b_ub, free):
    """Feasible x with x[free:] >= 0, or a ray along which c@x falls."""
    c, a_ub, b_ub = (np.asarray(v, dtype=float) for v in (c, a_ub, b_ub))
    x = sol.x
    assert np.all(x[free:] >= -1e-9)
    assert np.all(a_ub @ x <= b_ub + 1e-8)
    if sol.status == "unbounded":
        ray = sol.ray
        assert np.all(ray[free:] >= 0) and c @ ray < 0
        assert np.all(a_ub @ ray <= 1e-9)


def test_free_variable_lps_match_scipy(rng):
    statuses = set()
    for _ in range(80):
        n, m_ub, m_eq = (int(v) for v in rng.integers([2, 1, 0], [7, 7, 3]))
        free = int(rng.integers(1, n + 1))
        a_ub, b_ub = _random_system(rng, n, m_ub, m_eq, free)
        c = rng.standard_normal(n)
        sol = lp.Simplex(n, a_ub, b_ub, free=free).minimize(c)
        status, fun = _free_reference(c, a_ub, b_ub, free)
        assert sol.status == status
        statuses.add(status)
        if status == "optimal":
            assert sol.objective == pytest.approx(fun, abs=1e-8 * (1 + abs(fun)))
        if status != "infeasible":
            _assert_free_solution(sol, c, a_ub, b_ub, free)
    assert statuses == {"optimal", "unbounded", "infeasible"}


def _support_lp(normals, offsets):
    from sipcert.geometry import Polyhedron, polyhedron_lp

    return polyhedron_lp(Polyhedron(normals, offsets))


@pytest.mark.parametrize("outside", [False, True])
def test_support_lps_in_free_variables_match_scipy(rng, outside, monkeypatch):
    # a sequence of objectives on one kept tableau; with the origin outside,
    # the one phase 1 runs in the first objective
    phase_one = _phase_one_log(monkeypatch)
    center = 4.0 * rng.standard_normal(10) if outside else np.zeros(10)
    normals, offsets = _support_polytope(rng, center)
    support = _support_lp(normals, offsets)
    for _ in range(8):
        z = rng.standard_normal(10)
        mine = support.minimize(z)
        status, fun = _free_reference(z, -normals, -offsets, 10)
        assert mine.status == status == "optimal"
        assert mine.objective == pytest.approx(fun, abs=1e-8 * (1 + abs(fun)))
        assert np.all(normals @ mine.x >= offsets - 1e-8)
        fresh = _support_lp(normals, offsets).minimize(z)
        assert mine.objective == pytest.approx(fresh.objective, abs=1e-9 * (1 + abs(fresh.objective)))
    assert len(phase_one) == (9 if outside else 0)  # the kept tableau's one, one per fresh solve
    assert all(count > 0 for count in phase_one)
    assert support._tableau.shape == (201, 11)  # one column per coordinate, plus the rhs


def test_unbounded_support_lps_carry_a_recession_ray(rng):
    # 40 facets whose normals all have y1 > 0: e1 is a recession direction,
    # so every z with z1 < 0 is unbounded below, and most with z1 > 0 are not
    normals = rng.standard_normal((40, 4))
    normals[:, 0] = np.abs(normals[:, 0]) + 0.1
    offsets = normals @ rng.standard_normal(4) - 1.0 - rng.random(40)
    support = _support_lp(normals, offsets)
    statuses = []
    for _ in range(12):
        z = rng.standard_normal(4)
        mine = support.minimize(z)
        status, fun = _free_reference(z, -normals, -offsets, 4)
        statuses.append(mine.status)
        assert mine.status == status
        assert np.all(normals @ mine.x >= offsets - 1e-8)
        if status == "unbounded":
            assert np.all(normals @ mine.ray >= -1e-9) and z @ mine.ray < 0
        else:
            assert mine.objective == pytest.approx(fun, abs=1e-8 * (1 + abs(fun)))
    assert {"optimal", "unbounded"} <= set(statuses)


def test_infeasible_set_in_free_variables(monkeypatch):
    # y1 + y2 >= 1 and y1 + y2 <= -1, with y3 unconstrained
    phase_one = _phase_one_log(monkeypatch)
    support = _support_lp([[1, 1, 0], [-1, -1, 0]], [1, 1])
    sols = [support.minimize(z) for z in ([1, 0, 0], [0, 0, 1], [-1, 2, 0])]
    assert [s.status for s in sols] == ["infeasible"] * 3
    assert len(phase_one) == 1 and [s.pivots for s in sols] == [phase_one[0], 0, 0]
    status, _ = _free_reference([1, 0, 0], [[-1, -1, 0], [1, 1, 0]], [-1, -1], 3)
    assert status == "infeasible"


def test_a_line_in_the_polyhedron(rng):
    # y3 appears in no facet, so its free column is zero in every row:
    # it never enters for z3 = 0, and z3 != 0 is unbounded along -sign(z3) e3
    normals = np.hstack([rng.standard_normal((30, 2)), np.zeros((30, 1))])
    offsets = normals @ rng.standard_normal(3) - 1.0 - rng.random(30)
    normals[:4, :2] = [[1, 0], [-1, 0], [0, 1], [0, -1]]  # bounded in y1, y2
    offsets[:4] = -5.0
    support = _support_lp(normals, offsets)
    for z3 in (0.0, 0.5, -2.0, 0.0):
        z = np.append(rng.standard_normal(2), z3)
        mine = support.minimize(z)
        status, fun = _free_reference(z, -normals, -offsets, 3)
        assert mine.status == status
        if z3 == 0.0:
            assert mine.objective == pytest.approx(fun, abs=1e-9 * (1 + abs(fun)))
        else:
            assert np.array_equal(mine.ray, [0.0, 0.0, -np.sign(z3)])


def test_secondary_objective_keeps_a_pinned_free_variable():
    # min y1 over y1 >= 0, y1 >= y2 - 2, |y2| <= 1: y1 = 0 on the whole face,
    # y2 in [-1, 1]; pushing y1 either way must not move it off the face
    a_ub, b_ub = [[-1, 0], [-1, 1], [0, 1], [0, -1]], [0, 2, 1, 1]
    for then, y2 in (([-1, -1], 1.0), ([1, -1], 1.0), ([-1, 1], -1.0), ([1, 1], -1.0)):
        sol = lp.Simplex(2, a_ub, b_ub, free=2).minimize([1, 0], then=then)
        assert sol.optimal and sol.objective == 0.0
        assert np.array_equal(sol.x, [0.0, y2])


def test_a_free_column_held_off_by_an_infinite_cost_is_never_negated():
    # the secondary pass gives the columns off the optimal face a cost of
    # +inf; negating such a free column would make it -inf and enter it
    kept = lp.Simplex(2, [[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 1], free=2)
    cost = np.zeros(kept._total)
    cost[:2] = [np.inf, -1.0]
    obj, _, pivots = lp._run_phase(kept._tableau, kept._basis, kept._nb, cost, kept._sign)
    assert (obj, pivots) == (-1.0, 1)
    assert np.array_equal(lp._extract(kept._tableau, kept._basis, 2, kept._total, kept._sign), [0.0, 1.0])
    assert np.array_equal(kept._sign, [1.0, 1.0])


def test_free_columns_are_negated_and_rows_of_basic_free_variables_stay_first():
    # min -y1 + y2 over a box: y2 enters negated; both rows of the basic free
    # variables come first, in the order they entered
    kept = lp.Simplex(2, [[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 2, 3, 4], free=2)
    sol = kept.minimize([-1, 1])
    assert sol.optimal and np.array_equal(sol.x, [1.0, -4.0]) and sol.pivots == 2
    assert np.array_equal(kept._sign, [1.0, -1.0])
    assert sorted(kept._basis[:2]) == [0, 1] and np.all(kept._basis[2:] >= 2)
    assert np.array_equal(kept.minimize([1, -1]).x, [-2.0, 3.0])


def test_a_free_variable_that_evicts_an_artificial_leaves_the_ratio_test():
    # x3 >= 1 + |x1| (two rows with rhs -1) and x3 <= 1 pin x1 = 0, x3 = 1;
    # x1's entries in the two negated rows cancel in phase 1's costs, so x1
    # enters only when the artificials are evicted, below row 0
    # (x2 <= 2 + x1 - x3); that row must stay in the ratio test and x1's
    # must leave it, or x2 would rise without bound
    kept = lp.Simplex(3, [[-1, 1, 1], [-1, 0, -1], [1, 0, -1], [0, 0, 1]], [2, -1, -1, 1], free=2)
    sol = kept.minimize([0, -2, -1])
    assert sol.optimal and np.array_equal(sol.x, [0.0, 1.0, 1.0])
    assert kept._basis[0] == 0


def test_an_artificial_with_no_real_column_to_pivot_on_raises(monkeypatch):
    # in exact arithmetic a row's own slack can always replace its
    # artificial; a tolerance that hides every entry must fail loudly
    monkeypatch.setattr(lp, "_TOL", 10.0)  # phase 1 stops at once, "feasible"
    with pytest.raises(SimplexError):
        solve_lp([1.0], [[-1.0]], [-1.0])


def test_free_count_is_checked():
    with pytest.raises(ValueError):
        lp.Simplex(2, [[1, 1]], [1], free=3)
    with pytest.raises(ValueError):
        lp.Simplex(2, [[1, 1]], [1], free=-1)


# the full tableau (every column kept, basic ones as explicit unit columns),
# as the reference the condensed tableau must match pivot for pivot and bit
# for bit


def _full_pivot(tableau, row, col):
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= factors[:, None] * tableau[row]
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0


def _full_phase(tableau, basis, cost, allowed, tol):
    body, reduced = tableau[:-1], tableau[-1]
    reduced[:-1] = cost - cost[basis] @ body[:, :-1]
    reduced[-1] = -(cost[basis] @ body[:, -1])
    degenerate = 0
    for pivots in range(lp._MAX_ITERS):
        red = reduced[allowed]
        if degenerate < lp._DEGENERATE_RUN:
            k = int(red.argmin())
            if red[k] >= -tol:
                return -float(reduced[-1]), None, pivots
        else:
            negative = (red < -tol).nonzero()[0]
            if negative.size == 0:
                return -float(reduced[-1]), None, pivots
            k = int(negative[0])
        entering = int(allowed[k])
        col = body[:, entering]
        pos = (col > lp._PIVOT_TOL).nonzero()[0]
        if pos.size == 0:
            return None, entering, pivots
        ratios = body[pos, -1] / col[pos]
        best = ratios.min()
        ties = pos[ratios <= best + lp._PIVOT_TOL * (1.0 + abs(best))]
        leave = int(ties[basis[ties].argmin()])
        degenerate = degenerate + 1 if best <= lp._PIVOT_TOL else 0
        _full_pivot(tableau, leave, entering)
        basis[leave] = entering
    raise SimplexError("simplex iteration limit exceeded")


def _full_tableau_lp(c, a_ub, b_ub, then=None, tol=1e-9):
    """(status, x, pivots, ray) of the full-tableau simplex."""
    c, b_ub = (np.asarray(v, dtype=float).reshape(-1) for v in (c, b_ub))
    n, m = c.size, b_ub.size
    n_real = n + m
    neg = b_ub < 0
    art_rows = np.flatnonzero(neg)
    total = n_real + art_rows.size
    tableau = np.zeros((m + 1, total + 1))
    tableau[:m, :n] = np.reshape(a_ub, (m, n))
    tableau[np.arange(m), np.arange(n, n_real)] = 1.0
    tableau[:m, -1] = b_ub
    tableau[:m][neg] *= -1.0
    tableau[art_rows, np.arange(n_real, total)] = 1.0
    basis = np.arange(n, n_real)
    basis[art_rows] = np.arange(n_real, total)
    pivots = 0
    if art_rows.size:
        cost = np.zeros(total)
        cost[n_real:] = 1.0
        obj, _, count = _full_phase(tableau, basis, cost, np.arange(total), tol)
        pivots += count
        if obj > max(tol, 1e-7 * (1.0 + abs(b_ub).max(initial=0.0))):
            return "infeasible", np.full(n, np.nan), pivots, None
        for i in range(m):
            if basis[i] < n_real:
                continue
            candidates = np.flatnonzero(np.abs(tableau[i, :n_real]) > max(tol, lp._PIVOT_TOL))
            assert candidates.size  # a row's own slack, at least
            _full_pivot(tableau, i, int(candidates[0]))
            basis[i] = int(candidates[0])
            pivots += 1
    allowed = np.arange(n_real)
    cost = np.zeros(total)
    cost[:n] = c
    obj, bad, count = _full_phase(tableau, basis, cost, allowed, tol)
    pivots += count
    ray = None
    if obj is None:
        ray = np.zeros(total)
        ray[bad] = 1.0
        ray[basis] = -tableau[:-1, bad]
        ray[np.abs(ray) < lp._PIVOT_TOL] = 0.0
        ray = ray[:n]
    elif then is not None:
        face = allowed[tableau[-1, allowed] <= tol]
        cost = np.zeros(total)
        cost[:n] = then
        pivots += _full_phase(tableau, basis, cost, face, tol)[2]
    full = np.zeros(total)
    full[basis] = tableau[:-1, -1]
    return ("optimal" if ray is None else "unbounded"), full[:n], pivots, ray


def _assert_same_as_full_tableau(c, a_ub, b_ub, then=None):
    status, x, pivots, ray = _full_tableau_lp(c, a_ub, b_ub, then)
    sol = solve_lp(c, a_ub, b_ub, then=then)
    assert (sol.status, sol.x.tobytes(), sol.pivots) == (status, x.tobytes(), pivots)
    assert (sol.ray is None) == (ray is None)
    if ray is not None:
        assert sol.ray.tobytes() == ray.tobytes()


def test_small_integer_lps_match_the_full_tableau():
    # tiny integer data: exact ties in pricing, in the ratio test and in the
    # artificials' candidates, equalities as row pairs (some repeated, so
    # redundant), unbounded rays
    for seed in range(1500):
        rng = np.random.default_rng(seed)
        n, m_ub, m_eq = (int(v) for v in rng.integers([2, 1, 0], [5, 4, 3]))
        a_eq = rng.integers(-1, 2, (m_eq, n)).astype(float)
        b_eq = rng.integers(0, 2, m_eq).astype(float)
        if m_eq and seed % 2:
            a_eq, b_eq = np.vstack([a_eq, a_eq[:1]]), np.append(b_eq, b_eq[:1])
        c = rng.integers(-2, 3, n).astype(float)
        a_ub = rng.integers(-1, 2, (m_ub, n)).astype(float)
        b_ub = rng.integers(-1, 3, m_ub).astype(float)
        then = rng.integers(-2, 3, n).astype(float) if seed % 3 == 0 else None
        _assert_same_as_full_tableau(c, *_stack(a_ub, b_ub, a_eq, b_eq), then)


@pytest.mark.parametrize("outside", [False, True])
def test_support_lps_match_the_full_tableau(rng, outside):
    center = 4.0 * rng.standard_normal(10) if outside else np.zeros(10)
    normals, offsets = _support_polytope(rng, center)
    for _ in range(3):
        _assert_same_as_full_tableau(*_polyhedron_lp(normals, offsets, rng.standard_normal(10)))


def test_hull_lps_match_the_full_tableau(rng):
    # the ladder's gap LPs; with a tie-break toward the first generators'
    # weights, as the certificate LP asks for its largest lambda
    gens = rng.standard_normal((130, 3))
    gens[65:] = gens[:65]
    for target in (gens.mean(axis=0), gens[7], rng.standard_normal(3) * 3.0):
        c, a_ub, b_ub = _hull_lp(gens, target)
        _assert_same_as_full_tableau(c, a_ub, b_ub)
        _assert_same_as_full_tableau(c, a_ub, b_ub, then=-np.arange(c.size, 0, -1))


# the slack-basis start: with no negative right-hand side the constructor
# adds no artificial column and no phase 1 runs, and solve_lp given a
# slack_tableau solves the LP in the tableau its caller wrote; the pivots
# and the bits must still be the full tableau's.


def _assert_slack_start(phase_ones, c, a_ub, b_ub, then=None):
    c = np.asarray(c, dtype=float)
    a_ub, b_ub = np.asarray(a_ub, dtype=float), np.asarray(b_ub, dtype=float)
    before = len(phase_ones)
    slack = lp.Simplex(c.size, a_ub, b_ub).minimize(c, then)
    assert len(phase_ones) == before  # no phase 1
    _assert_same_as_full_tableau(c, a_ub, b_ub, then)
    tableau, rows, rhs = lp.slack_tableau(b_ub.size, c.size)
    rows[:], rhs[:] = a_ub, b_ub
    entry = solve_lp(c, rows, rhs, then=then, tableau=tableau)
    assert (entry.status, entry.x.tobytes(), entry.pivots, entry.objective) == (
        slack.status, slack.x.tobytes(), slack.pivots, slack.objective
    )
    assert (entry.ray is None) == (slack.ray is None)
    if entry.ray is not None:
        assert entry.ray.tobytes() == slack.ray.tobytes()
    return slack


def _fit_arrays(cols, t, k):
    """(c, a_ub, b_ub, u) of the fit LP ``geometry._fit_lp`` writes, the rows copied out."""
    from sipcert.geometry import _fit_lp

    c, a_ub, b_ub, _, u = _fit_lp(cols, t, k)
    return c, a_ub.copy(), b_ub.copy(), u


def _fit_start(cols, t):
    """The fit's default start column: the first column nearest to t."""
    from sipcert.geometry import _nearest_generator_distance

    return int(_nearest_generator_distance(t[None], cols.T)[1][0])


def test_slack_start_on_random_fit_lps(rng, monkeypatch):
    phase_ones = _phase_one_log(monkeypatch)
    for _ in range(60):
        p, n = int(rng.integers(1, 5)), int(rng.integers(1, 40))
        cols = rng.integers(-2, 3, size=(p, n)) / 2.0  # repeated columns, ties
        for t in (cols[:, 0], cols.mean(axis=1), rng.standard_normal(p) * 2.0):
            c, a_ub, b_ub, _ = _fit_arrays(cols, t, _fit_start(cols, t))
            assert np.all(b_ub >= 0.0)
            _assert_slack_start(phase_ones, c, a_ub, b_ub)
            # a tie-break objective, as the certificate LP takes
            _assert_slack_start(phase_ones, c, a_ub, b_ub, -rng.random(c.size))


def _assert_fit_is_solve_lp(cols, t, then=None, k=None):
    """``_fit`` (in its slack tableau) against ``solve_lp`` on copies of its arrays, byte for byte."""
    from sipcert.geometry import _fit

    coeffs, got, pivots = _fit(cols, t, then, k)
    a, distance, ref_pivots = fit_by_solve_lp(cols, t, then, k)
    assert (coeffs.tobytes(), got.hex(), pivots) == (a.tobytes(), distance.hex(), ref_pivots)


def test_slack_entry_solves_the_same_fit_lp_as_solve_lp(rng):
    # repeated columns, exact ties in pricing and in the ratio test, signed
    # zeros in the columns and the target (so in the right-hand sides), with
    # and without a tie-break objective, from the nearest column or column 0
    for _ in range(150):
        p, n = int(rng.integers(1, 5)), int(rng.integers(1, 30))
        cols = rng.integers(-2, 3, size=(p, n)) / 2.0
        cols[:, rng.integers(n, size=n // 2)] = cols[:, :1]  # repeats of column 0
        cols[rng.random((p, n)) < 0.2] = -0.0
        targets = [cols[:, -1].copy(), cols.mean(axis=1), rng.integers(-3, 4, p) / 2.0]
        targets[0][rng.random(p) < 0.5] = -0.0
        for t in targets:
            for then in (None, -rng.random(n + 1), -np.arange(n + 1, 0, -1.0)):
                for k in (None, 0):
                    _assert_fit_is_solve_lp(cols, t, then, k)


_BELOW_TOL = np.nextafter(-lp._TOL, -np.inf)


@pytest.mark.parametrize("rows, t, exits, at_u", [
    # row 0's rhs, 5e-11, is in the first pivot's tie window, ahead of row
    # 1's exact zero: row 0 leaves, and its entries are >= 0, so s < u
    ([[1.0 - 5e-11, 2.0], [1.0, 0.0]], [0.0, 0.0], True, False),
    # the same, but row 0 has an entry -0.5: the simplex runs, though the
    # exact-zero row alone would have ended the fit
    ([[1.0 - 5e-11, 0.5], [1.0, 5.0]], [0.0, 0.0], False, None),
    # 2e-10 is outside the window: the exact-zero row leaves, s = u
    ([[1.0 - 2e-10, 0.5], [1.0, 5.0]], [0.0, 0.0], True, True),
    # the leaving row 0's least entry is exactly -lp._TOL: optimal
    ([[0.0, -lp._TOL], [0.0, 5.0]], [-1.0, 0.0], True, True),
    # ... and the next float below it: the simplex runs
    ([[0.0, _BELOW_TOL], [0.0, 5.0]], [-1.0, 0.0], False, None),
])
def test_a_fit_ends_at_its_first_pivot_exactly_when_solve_lp_does(monkeypatch, rows, t, exits, at_u):
    # both edges of the first pivot's test: the leaving row is the first
    # within the ratio test's tie window, and it ends the LP iff its least
    # entry is >= -lp._TOL; either way the answer is solve_lp's, byte for byte
    import sipcert.geometry as geometry

    solves = []
    solve = geometry.solve_lp

    def logged(*args, **kwargs):
        solves.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(geometry, "solve_lp", logged)
    cols, t = np.array(rows), np.array(t)
    assert _fit_start(cols, t) == 0
    _assert_fit_is_solve_lp(cols, t)
    assert solves == ([] if exits else [1])
    _, distance, pivots = geometry._fit(cols, t)
    assert (pivots == 1) == exits
    assert at_u is None or (distance == 1.0) == at_u  # u = 1; s from the first pivot's row


def test_first_pivot_optimum_is_the_simplex_after_one_pivot(rng):
    # min -x_j from the slack basis, with pivot elements other than 1.0,
    # ties in the ratio test and zero right-hand sides: the helper returns
    # x_j exactly when the simplex stops after its first pivot, with its bits
    seen = set()
    for _ in range(400):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        a_ub = rng.integers(-2, 5, size=(m, n)) / 2.0
        b_ub = rng.integers(0, 3, size=m) / 2.0
        j = int(rng.integers(n))
        c = np.zeros(n)
        c[j] = -1.0
        tableau, rows, rhs = lp.slack_tableau(m, n)
        rows[:], rhs[:] = a_ub, b_ub
        got = lp._first_pivot_optimum(rows[:, j], rhs, rows.__getitem__)
        ref = solve_lp(c, a_ub, b_ub)
        ends = ref.optimal and ref.pivots == 1
        assert (got is not None) == ends
        if ends:
            assert got.hex() == float(ref.x[j]).hex()
        seen.add((ref.status, ends))
    assert seen >= {("optimal", True), ("optimal", False), ("unbounded", False)}


def test_slack_start_on_the_ladder_gap_lps(monkeypatch, sphere_ladder):
    import sipcert.geometry as geometry
    from sipcert.multipliers import tc_approx
    from sipcert.options import Options

    captured = []
    solve = geometry.solve_lp

    def logged(c, a_ub, b_ub, *, then=None, tableau=None):
        arrays = (c.copy(), a_ub.copy(), b_ub.copy())  # the solve overwrites a tableau
        sol = solve(c, a_ub, b_ub, then=then, tableau=tableau)
        captured.append((arrays, then, tableau is not None, sol))
        return sol

    monkeypatch.setattr(geometry, "solve_lp", logged)
    for grid, t_index in ((1025, [300]), (65, [40, 16])):  # as the sip-ladder workload
        tc_approx(*sphere_ladder(grid, t_index), Options())
    monkeypatch.undo()
    assert len(captured) >= 10
    phase_ones = _phase_one_log(monkeypatch)
    for (c, a_ub, b_ub), then, in_place, sol in captured:
        assert in_place  # solved in the tableau the fit wrote
        _assert_slack_start(phase_ones, c, a_ub, b_ub, then)
        # the answer the fit got is the full tableau's, bit for bit
        status, x, pivots, _ = _full_tableau_lp(c, a_ub, b_ub, then)
        assert (sol.status, sol.x.tobytes(), sol.pivots) == (status, x.tobytes(), pivots)


def test_slack_start_with_signed_zero_right_hand_sides(monkeypatch):
    # a row with rhs -0.0 is not negated (only rhs < 0 is), so it keeps its slack
    phase_ones = _phase_one_log(monkeypatch)
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n, m = (int(v) for v in rng.integers([1, 1], [5, 6]))
        b_ub = rng.choice([0.0, -0.0, 1.0, 2.0], size=m)
        b_ub[0] = -0.0
        sol = _assert_slack_start(
            phase_ones,
            rng.integers(-2, 3, n).astype(float),
            rng.integers(-1, 2, (m, n)).astype(float),
            b_ub,
            rng.integers(-2, 3, n).astype(float) if seed % 3 == 0 else None,
        )
        assert sol.status in ("optimal", "unbounded")
    assert phase_ones == []


def test_a_negative_rhs_still_runs_phase_one(monkeypatch):
    phase_ones = _phase_one_log(monkeypatch)
    # x1 + x2 >= 1 over x >= 0, written as -x1 - x2 <= -1
    sol = lp.Simplex(2, [[-1.0, -1.0]], [-1.0]).minimize([1.0, 2.0])
    assert sol.optimal and sol.x.tolist() == [1.0, 0.0]
    assert len(phase_ones) == 1 and phase_ones[0] >= 1
    _assert_same_as_full_tableau([1.0, 2.0], [[-1.0, -1.0]], [-1.0])
