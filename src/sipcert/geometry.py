"""Exact-tolerance convex geometry over generator arrays.

A hull is the (n, p) array of its generators, one per row, kept in
V-representation only; every operation needed downstream is a membership
or a linear optimization, both of which reduce to small dense LPs.
Polyhedra are kept in H-representation ``{y : a_j @ y >= b_j}``.  All
functions are pure; the ``Simplex`` of ``polyhedron_lp`` keeps one
polyhedron's tableau between objectives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lp import Simplex, SimplexSolution, _first_pivot_optimum, slack_tableau, solve_lp
from .options import Options
from .work import count

__all__ = [
    "Polyhedron",
    "GeometryError",
    "first_equal_rows",
    "hull_member",
    "hull_distance",
    "one_sided_hull_gap",
    "farthest_row_distance",
    "caratheodory_reduce",
    "segment_hull_member",
    "recession_cone",
    "cone_interior_nonempty",
    "polyhedron_lp",
    "polyhedron_minimize",
]

class GeometryError(Exception):
    """Dimension mismatch, invalid input, or reported LP failure."""


def first_equal_rows(rows) -> np.ndarray:
    """Each row's id, the index of its first bytewise-equal row: subsets then dedupe by id.

    Rows compare bytewise, so ``-0.0`` and ``0.0`` stay apart; the rows
    with ``first_equal_rows(rows) == np.arange(n)`` are the first
    occurrences, in order.
    """
    rows = np.ascontiguousarray(rows, dtype=float)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first[inverse]


def _generators(hull) -> np.ndarray:
    """A hull's generators as an (n, p) float array, one generator per row."""
    g = np.asarray(hull, dtype=float)
    if g.ndim != 2:
        raise GeometryError("a hull is an (n, p) array of generators")
    return g


@dataclass(frozen=True)
class Polyhedron:
    """H-polyhedron {y : normals[j] @ y >= offsets[j] for all j}."""

    normals: np.ndarray  # (m, p)
    offsets: np.ndarray  # (m,)

    def __post_init__(self):
        a = np.asarray(self.normals, dtype=float)
        if a.size == 0:
            a = a.reshape(0, a.shape[-1] if a.ndim == 2 else 0)
        else:
            a = np.atleast_2d(a)
        b = np.asarray(self.offsets, dtype=float).reshape(-1)
        if a.shape[0] != b.size:
            raise GeometryError("one offset per normal required")
        if a.shape[0] and not np.all(np.linalg.norm(a, axis=1) > 0):
            raise GeometryError("normals must be nonzero")
        object.__setattr__(self, "normals", a)
        object.__setattr__(self, "offsets", b)

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    def is_cone(self) -> bool:
        """Every offset is 0, to within 1e-12: the set is a cone."""
        return bool(np.all(np.abs(self.offsets) <= 1e-12))


@dataclass(frozen=True)
class HullMembership:
    member: bool
    coeffs: np.ndarray
    distance: float  # optimal infinity-norm mismatch from the LP
    pivots: int = 0  # the LP's simplex pivots


@dataclass(frozen=True)
class SegmentMembership:
    member: bool
    lam: float
    coeffs: np.ndarray
    distance: float


@dataclass(frozen=True)
class ConeInterior:
    nonempty: bool
    witness: np.ndarray
    margin: float


def _check_target(target, hull):
    """(target, generators) as float arrays of matching dimension."""
    g = _generators(hull)
    t = np.asarray(target, dtype=float).reshape(-1)
    if len(g) == 0:
        raise GeometryError("hull has no generators")
    if t.size != g.shape[1]:
        raise GeometryError(f"target dimension {t.size} != hull dimension {g.shape[1]}")
    return t, g


def _fit_lp(cols, t, k):
    """``solve_lp``'s arrays for the inf-norm fit of ``t`` by the columns ``cols``,
    written around column k into a ``slack_tableau``.

    The fit minimizes s over a in the simplex subject to
    -s <= (cols @ a - t)_j <= s.  With d = cols_k - t, u = |d|_inf,
    D = cols - cols_k, a_k = 1 - sum_{i != k} a_i and s = u - r the LP is:
    maximize r subject to (D a)_j + r <= u - d_j, -(D a)_j + r <= u + d_j
    and sum_{i != k} a_i <= 1.  Every right-hand side is >= 0 in IEEE
    arithmetic, since |d_j| <= u exactly, so the slack basis (a = e_k,
    s = u) is a feasible start: no artificials, no phase 1, and ``solve_lp``
    runs it in the tableau it was written into.  The variables are (a, r);
    a_k keeps its column, which is zero in every row and in the cost, so it
    never enters.

    Returns (c, a_ub, b_ub, tableau, u).
    """
    p, n = cols.shape
    u, bounds = _fit_bounds(cols, t, k)
    c = np.zeros(n + 1)
    c[-1] = -1.0
    tableau, a_ub, b_ub = slack_tableau(2 * p + 1, n + 1)
    np.subtract(cols, cols[:, k : k + 1], out=a_ub[:p, :n])
    np.negative(a_ub[:p, :n], out=a_ub[p : 2 * p, :n])
    a_ub[: 2 * p, n] = 1.0
    a_ub[2 * p, :n] = 1.0
    a_ub[2 * p, k] = 0.0
    b_ub[: 2 * p] = bounds
    b_ub[2 * p] = 1.0
    return c, a_ub, b_ub, tableau, u


def _fit_bounds(cols, t, k):
    """(u, the right-hand sides of the fit LP's 2p bound rows, u - d then u + d)."""
    d = cols[:, k] - t
    u = float(np.abs(d).max())
    return u, np.concatenate([u - d, u + d])


def _fit(cols, t, then=None, k=None):
    """(coefficients a, distance s, pivots) of the inf-norm fit of ``t`` by ``cols``,
    by ``_fit_lp`` around column k.

    By default k is the column nearest to t, the first of equals
    (``_nearest_generator_distance``).  ``then``, over the fit's own
    variables (a, s), breaks ties among the best fits; it maps through the
    same substitution as the LP.  The distance lies in [0, u], u the start
    column's distance, exactly.

    Without ``then``, ``lp._first_pivot_optimum`` decides the simplex's
    first pivot before any tableau is written: r enters, its column is 1.0
    in the 2p bound rows and 0 in the simplex row, so the pivot leaves
    a = e_k and r = b_ub[j] for the leaving row j, whose other entries are
    cols[j] - cols[j, k] (j < p) or their negation, as ``_fit_lp`` writes
    them.  When that basis is optimal the simplex stops there, so the fit
    returns a = e_k, s = u - b_ub[j] and 1 pivot, the simplex's answer bit
    for bit; ``_fit_lp`` and ``solve_lp`` run only when it is not.
    """
    if k is None:
        k = int(_nearest_generator_distance(t[None], cols.T)[1][0])
    if then is None:
        u, bounds = _fit_bounds(cols, t, k)
        p = len(t)

        def leaving(j):
            row = cols[j % p] - cols[j % p, k]
            return row if j < p else -row

        r = _first_pivot_optimum(np.ones(2 * p), bounds, leaving)
        if r is not None:
            a = np.zeros(cols.shape[1])
            a[k] = 1.0
            return a, min(max(u - r, 0.0), u), 1
    else:
        then = np.append(then[:-1] - then[k], -then[-1])
    c, a_ub, b_ub, tableau, u = _fit_lp(cols, t, k)
    sol = solve_lp(c, a_ub, b_ub, then=then, tableau=tableau)
    if not sol.optimal:
        raise GeometryError(f"fit LP failed with status {sol.status}")
    a = np.maximum(sol.x[:-1], 0.0)  # np.clip's bits, -0.0 to 0.0 included
    a[k] = max(1.0 - a.sum(), 0.0)
    return a, min(max(u - float(sol.x[-1]), 0.0), u), sol.pivots


def hull_member(
    target, hull: np.ndarray, tol: float = Options.tol, *, start=None
) -> HullMembership:
    """Decide target in conv(hull), the hull of the (n, p) generators, by one LP.

    Minimizes s subject to -s <= (sum_i a_i g_i - target)_j <= s with a in
    the simplex; membership holds iff the optimal s is at most ``tol``.
    The LP is written around the generator nearest to the target
    (``_fit_lp``), so it starts feasible and runs no phase 1, and s never
    exceeds that generator's distance.  A caller that has found that
    generator already passes its index as ``start``.  When the simplex's
    first pivot would leave the LP optimal, ``_fit`` returns that pivot's
    answer, the simplex's bit for bit, from the right-hand sides and the
    leaving row alone: no tableau is written and no simplex runs.
    """
    t, g = _check_target(target, hull)
    coeffs, distance, pivots = _fit(g.T, t, k=start)
    return HullMembership(distance <= tol, coeffs, distance, pivots)


def hull_distance(target, hull: np.ndarray, *, start=None) -> float:
    """Infinity-norm distance from target to conv(generators).

    ``start`` is as in :func:`hull_member`; the LP's simplex pivots are
    tallied as ``gap_pivots`` (:mod:`sipcert.work`).  An LP that its first
    pivot ends (every gap LP of a quarter-circle ladder) runs no simplex
    and counts that one pivot, as the simplex would.
    """
    if len(hull) == 0:
        return float("inf")
    membership = hull_member(target, hull, tol=0.0, start=start)
    count("gap_pivots", membership.pivots)
    return membership.distance


def one_sided_hull_gap(src: np.ndarray, dst: np.ndarray) -> float:
    """max over src generators of their distance to conv(dst), by as few LPs as exact allows.

    Generators of ``src`` that literally reappear in ``dst`` contribute zero,
    as do repeats within ``src``; the rest go to :func:`farthest_row_distance`.
    """
    src, dst = _generators(src), _generators(dst)
    if len(src) == 0:
        return 0.0
    if len(dst) == 0:
        return float("inf")
    n = len(dst)
    ids = first_equal_rows(np.vstack([dst, src]))  # a src row equal to a dst row is not first
    return farthest_row_distance(src[ids[n:] == np.arange(n, ids.size)], dst)


def farthest_row_distance(rows: np.ndarray, dst: np.ndarray) -> float:
    """max over ``rows`` of their distance to conv(dst), by the early break.

    The distance ``u(g) = min_j |g - d_j|_inf`` to the nearest single
    generator of ``dst`` bounds ``hull_distance(g, dst)`` from above.  The
    rows are visited in descending ``u``, ties in row order, and the visit
    stops at the first row with ``u`` at most the gap found so far: no row
    from there on can raise the maximum (the early break for exact Hausdorff
    distance, Taha & Hanbury, IEEE TPAMI 37(11), 2015).  Callers dedupe.
    Each visited row is one ``hull_distance`` LP, tallied as ``gap_lps``,
    started at the nearest generator its bound found: the one that LP would
    pick itself, so it is not searched for twice.
    """
    bound, nearest = _nearest_generator_distance(rows, dst)
    gap = 0.0
    for i in np.argsort(-bound, kind="stable"):
        if bound[i] <= gap:
            break
        gap = max(gap, hull_distance(rows[i], dst, start=int(nearest[i])))
        count("gap_lps")
    return gap


_BOUND_CHUNK = 1 << 18  # rows x generators x coordinates per chunk: about 2 MB of floats


def _nearest_generator_distance(rows: np.ndarray, gens: np.ndarray) -> tuple:
    """(``min_j |rows[i] - gens[j]|_inf``, the first such j) for each row i, a few rows at a time.

    The max over coordinates is taken one coordinate at a time, into a
    (rows, generators) array: numpy reduces a short last axis slowly.
    """
    out = np.empty(len(rows))
    nearest = np.empty(len(rows), dtype=int)
    step = max(1, _BOUND_CHUNK // max(1, gens.size))
    for start in range(0, len(rows), step):
        chunk = rows[start : start + step]
        worst = np.abs(chunk[:, None, 0] - gens[None, :, 0])
        for k in range(1, gens.shape[1]):
            diff = chunk[:, None, k] - gens[None, :, k]
            np.maximum(worst, np.abs(diff, out=diff), out=worst)
        j = worst.argmin(axis=1)
        nearest[start : start + step] = j
        out[start : start + step] = worst[np.arange(len(j)), j]
    return out, nearest


def caratheodory_reduce(target, hull: np.ndarray, coeffs, tol_lp: float = Options.tol_lp):
    """Reduce a convex representation of target to an affinely independent support.

    Iterated null-space pivoting: while the supported generators are
    affinely dependent, shift the coefficients along a null direction until
    one vanishes, then remove the lowest-index vanished generator.  The
    output support has at most p+1 generators and reproduces the target
    within ``tol_lp``.

    Returns (indices, coeffs) with indices into the rows of ``hull``.
    """
    t, g = _check_target(target, hull)
    a = np.asarray(coeffs, dtype=float).copy().reshape(-1)
    if a.size != len(g):
        raise GeometryError("one coefficient per generator required")
    scale = 1.0 + float(np.abs(t).max(initial=0.0))
    if (
        np.any(a < -tol_lp)
        or abs(a.sum() - 1.0) > tol_lp * 10
        or np.abs(g.T @ a - t).max() > tol_lp * 10 * scale
    ):
        raise GeometryError("coefficients are not a convex representation of the target")
    a = np.clip(a, 0.0, None)

    support = [int(i) for i in np.flatnonzero(a > 0.0)]
    while len(support) > 1:
        rows = np.vstack([g[support].T, np.ones(len(support))])
        _, s, vt = np.linalg.svd(rows)  # s is never empty: two generators at least
        if rows.shape[0] >= rows.shape[1] and s[-1] > 1e-12 * max(1.0, s[0]):
            break  # affinely independent support
        gamma = vt[-1]  # a null direction of the affinely dependent support
        if gamma.max() <= 0.0:
            gamma = -gamma
        positive = gamma > 1e-14
        theta = float(np.min(a[np.array(support)][positive] / gamma[positive]))
        for k, i in enumerate(support):
            a[i] -= theta * gamma[k]
        vanished = [i for i in support if a[i] <= 1e-12]
        if not vanished:
            break  # numerically stuck; keep the current (valid) representation
        gone = min(vanished)  # deterministic tie break: lowest index
        a[gone] = 0.0
        support.remove(gone)
        for i in support:
            if a[i] < 0.0:
                a[i] = 0.0

    indices = np.array([i for i in support if a[i] > 1e-12], dtype=int)
    return indices, a[indices]


def segment_hull_member(
    target, w, hull: np.ndarray, tol: float = Options.tol
) -> SegmentMembership:
    """Decide target in [w, conv(hull)] by one LP over (lambda, coefficients).

    Substituting mu_i = (1 - lambda) a_i turns the bilinear combination
    lambda w + (1 - lambda) sum a_i g_i into a single linear program; the
    returned coefficients are the normalized a_i.  Among the best fits the
    largest lambda is returned, so a lambda that is not unique does not
    depend on the order of the generators or on the pivot rule.  The LP
    (``_fit_lp``) is written around w: it starts feasible at lambda = 1,
    the end the tie-break prefers, and runs no phase 1.
    """
    t, g = _check_target(target, hull)
    w = np.asarray(w, dtype=float).reshape(-1)
    if w.size != g.shape[1]:
        raise GeometryError("segment endpoint dimension mismatch")
    n = len(g)
    # variables: lambda, mu_1..mu_n, s
    largest_lam = np.zeros(n + 2)
    largest_lam[0] = -1.0
    a, distance, _ = _fit(np.column_stack([w, g.T]), t, then=largest_lam, k=0)
    lam, mu = float(a[0]), a[1:]  # a_0 = 1 - sum(mu), clipped at 0
    weight = mu.sum()
    coeffs = mu / weight if weight > 1e-15 else np.zeros(n)
    return SegmentMembership(distance <= tol, lam, coeffs, distance)


def polyhedron_lp(poly: Polyhedron) -> Simplex:
    """The kept ``Simplex`` of min z @ y over one H-polyhedron, for objective after objective.

    The LP is stated in y itself: ``a_j @ y >= b_j`` is the row
    ``-a_j @ y <= -b_j`` over p free variables, so the tableau has one
    column per coordinate of y and no pivot is spent carrying a coordinate
    through zero.  Phase 1 runs at most once, and each objective starts
    from the vertex where the previous one ended.  An unbounded result
    carries a recession ray with z @ ray < 0.
    """
    return Simplex(poly.dim, -poly.normals, -poly.offsets, free=poly.dim)


def polyhedron_minimize(poly: Polyhedron, z) -> SimplexSolution:
    """min z @ y over the H-polyhedron: one objective on a fresh ``polyhedron_lp``."""
    z = np.asarray(z, dtype=float).reshape(-1)
    if z.size != poly.dim:
        raise GeometryError("objective dimension mismatch")
    return polyhedron_lp(poly).minimize(z)


def recession_cone(poly: Polyhedron) -> Polyhedron:
    """Recession cone of an H-polyhedron: same normals, offsets zeroed."""
    return Polyhedron(poly.normals, np.zeros(len(poly.offsets)))


def cone_interior_nonempty(poly: Polyhedron, tol: float = Options.tol_lp) -> ConeInterior:
    """Interior test for a polyhedral cone via the normalized-margin LP.

    Maximizes delta subject to (a_j/|a_j|) @ e >= delta over the box
    |e|_inf <= 1; the cone has nonempty interior iff the optimum exceeds
    ``tol``.  This realizes the criterion inf{y*(e) : y* in S cap A*} > 0.
    """
    if not poly.is_cone():
        raise GeometryError("cone_interior_nonempty expects zero offsets")
    if poly.normals.shape[0] == 0:  # full space
        return ConeInterior(True, np.zeros(poly.dim), float("inf"))
    a = poly.normals / np.linalg.norm(poly.normals, axis=1, keepdims=True)
    m, p = a.shape
    # variables: delta, u (= e + 1, so 0 <= u <= 2); maximize delta
    c = np.zeros(1 + p)
    c[0] = -1.0
    a_ub = np.zeros((m + p, 1 + p))
    a_ub[:m, 0] = 1.0
    a_ub[:m, 1:] = -a
    b_ub = np.concatenate([-a.sum(axis=1), np.full(p, 2.0)])
    a_ub[m:, 1:] = np.eye(p)
    sol = solve_lp(c, a_ub, b_ub)
    if not sol.optimal:
        raise GeometryError(f"cone interior LP failed with status {sol.status}")
    e = sol.x[1:] - 1.0
    margin = float((a @ e).min(initial=np.inf))
    return ConeInterior(margin > tol, e, margin)
