"""A small deterministic dense two-phase simplex solver.

Solves   min c@x   s.t.   a_ub@x <= b_ub,  a_eq@x == b_eq,  x >= 0.

Entering columns are priced by Dantzig's rule: the most negative reduced
cost enters.  On the wide hull-membership LPs this needs a few pivots where
Bland's lowest-index rule needs hundreds.  Dantzig's rule alone can cycle at
a degenerate vertex, so after ``_DEGENERATE_RUN`` degenerate pivots in a
row (ratio 0, objective unchanged) the loop prices by Bland's rule until a
pivot makes progress again.  Bland's rule cannot cycle and every
nondegenerate pivot lowers the objective, so termination stays guaranteed
(Bland, Math. Oper. Res. 2, 1977).  The leaving row is the lowest basic
index among the ratio-test ties.

An optional secondary objective ``then`` picks one solution among the
optimal ones, in the same tableau: after phase 2 only the columns whose
reduced cost is at most ``tol`` may enter (the optimal face), and the same
pricing loop minimizes ``then`` there.  Where that secondary optimum is
unique, the answer does not depend on the pivot rule.

Everything here is small -- a few thousand columns at most -- so a dense
tableau is the right tool and there is no external dependency.  All state
is local to one call; concurrent use is safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["SimplexSolution", "SimplexError", "solve_lp"]

_PIVOT_TOL = 1e-10
_MAX_ITERS = 50_000
_DEGENERATE_RUN = 50  # degenerate pivots in a row before Bland's rule takes over


class SimplexError(Exception):
    """Numerical failure inside the simplex loop (never silently wrong)."""


@dataclass
class SimplexSolution:
    status: str  # 'optimal' | 'infeasible' | 'unbounded'
    objective: float
    x: np.ndarray
    ray: np.ndarray | None = field(default=None)
    pivots: int = 0  # phase 1, phase 2 and tie-break pivots of this solve

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def _as_2d(a, n):
    if a is None:
        return np.zeros((0, n))
    a = np.asarray(a, dtype=float)
    return a.reshape(0, n) if a.size == 0 else np.atleast_2d(a)


def solve_lp(
    c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, *, tol=1e-9, then=None
) -> SimplexSolution:
    """Minimize c@x; among the optimal x, minimize ``then``@x when it is given.

    If ``then`` is unbounded over the optimal face, the optimal vertex
    reached so far is returned.
    """
    c = np.asarray(c, dtype=float).reshape(-1)
    n = c.size
    a_ub = _as_2d(a_ub, n)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float).reshape(-1)
    a_eq = _as_2d(a_eq, n)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float).reshape(-1)
    if a_ub.shape != (b_ub.size, n) or a_eq.shape != (b_eq.size, n):
        raise ValueError("inconsistent LP dimensions")
    if then is not None:
        then = np.asarray(then, dtype=float).reshape(-1)
        if then.size != n:
            raise ValueError("secondary objective dimension mismatch")

    m_eq, m_ub = b_eq.size, b_ub.size
    m = m_eq + m_ub
    n_slack = m_ub
    n_real = n + n_slack

    # constraint rows: equalities first, then inequalities with +1 slack each;
    # the last row holds the reduced costs and, in its last entry, -objective
    rhs = np.concatenate([b_eq, b_ub])
    neg = rhs < 0  # these rows are negated so that every rhs is nonnegative
    # artificials for equality rows and for negated inequality rows
    need_art = neg.copy()
    need_art[:m_eq] = True
    art_rows = np.flatnonzero(need_art)
    n_art = art_rows.size
    total = n_real + n_art
    tableau = np.zeros((m + 1, total + 1))
    tableau[:m_eq, :n] = a_eq
    tableau[m_eq:m, :n] = a_ub
    tableau[np.arange(m_eq, m), np.arange(n, n_real)] = 1.0
    tableau[:m, -1] = rhs
    tableau[:m][neg] *= -1.0  # negated slack columns become -1
    tableau[art_rows, np.arange(n_real, total)] = 1.0

    basis = np.arange(n - m_eq, n_real)  # each inequality row's slack ...
    basis[art_rows] = np.arange(n_real, total)  # ... unless the row has an artificial

    pivots = 0
    if n_art:
        cost1 = np.zeros(total)
        cost1[n_real:] = 1.0
        obj1, _, count = _run_phase(tableau, basis, cost1, np.arange(total), tol)
        pivots += count
        if obj1 is None:
            raise SimplexError("phase 1 unbounded (should be impossible)")
        if obj1 > max(tol, 1e-7 * (1.0 + abs(rhs).max(initial=0.0))):
            return SimplexSolution(
                "infeasible", float("nan"), np.full(n, np.nan), pivots=pivots
            )
        tableau, basis, count = _evict_artificials(tableau, basis, n_real, tol)
        pivots += count

    cost2 = np.zeros(total)
    cost2[:n] = c
    allowed = np.arange(n_real)  # artificials stay out in phase 2
    obj2, bad_col, count = _run_phase(tableau, basis, cost2, allowed, tol)
    pivots += count
    if obj2 is None:
        ray = np.zeros(total)
        ray[bad_col] = 1.0
        ray[basis] = -tableau[:-1, bad_col]
        ray[np.abs(ray) < _PIVOT_TOL] = 0.0
        return SimplexSolution(
            "unbounded", -np.inf, _extract(tableau, basis, n), ray=ray[:n], pivots=pivots
        )
    if then is not None:
        # the optimal face: columns that can enter without raising c@x
        face = allowed[tableau[-1, allowed] <= tol]
        cost3 = np.zeros(total)
        cost3[:n] = then
        pivots += _run_phase(tableau, basis, cost3, face, tol)[2]
    x = _extract(tableau, basis, n)
    return SimplexSolution("optimal", float(c @ x), x, pivots=pivots)


def _extract(tableau, basis, n):
    full = np.zeros(tableau.shape[1] - 1)
    full[basis] = tableau[:-1, -1]
    return full[:n]


def _run_phase(tableau, basis, cost, allowed, tol):
    """Minimize cost over the ``allowed`` columns from the current basis.

    Returns (objective, None, pivots), or (None, column, pivots) when the
    column can enter without bound.
    """
    body = tableau[:-1]
    reduced = tableau[-1]
    reduced[:-1] = cost - cost[basis] @ body[:, :-1]
    reduced[-1] = -(cost[basis] @ body[:, -1])
    degenerate = 0
    for pivots in range(_MAX_ITERS):
        red = reduced[allowed]
        if degenerate < _DEGENERATE_RUN:
            k = int(red.argmin())  # Dantzig: most negative reduced cost
            if red[k] >= -tol:
                return -float(reduced[-1]), None, pivots
        else:
            negative = (red < -tol).nonzero()[0]
            if negative.size == 0:
                return -float(reduced[-1]), None, pivots
            k = int(negative[0])  # Bland: lowest index
        entering = int(allowed[k])
        col = body[:, entering]
        pos = (col > _PIVOT_TOL).nonzero()[0]
        if pos.size == 0:
            return None, entering, pivots
        ratios = body[pos, -1] / col[pos]
        best = ratios.min()
        ties = pos[ratios <= best + _PIVOT_TOL * (1.0 + abs(best))]
        leave = int(ties[basis[ties].argmin()])  # lowest basic index
        degenerate = degenerate + 1 if best <= _PIVOT_TOL else 0
        _pivot(tableau, leave, entering)
        basis[leave] = entering
    raise SimplexError("simplex iteration limit exceeded")


def _pivot(tableau, row, col):
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= factors[:, None] * tableau[row]
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0


def _evict_artificials(tableau, basis, n_real, tol):
    """Pivot basic artificials out, or drop the (redundant) row if impossible.

    Returns (tableau, basis, pivots).
    """
    drop = []
    pivots = 0
    for i in range(tableau.shape[0] - 1):
        if basis[i] < n_real:
            continue
        candidates = np.flatnonzero(np.abs(tableau[i, :n_real]) > max(tol, _PIVOT_TOL))
        if candidates.size:
            _pivot(tableau, i, int(candidates[0]))
            basis[i] = int(candidates[0])
            pivots += 1
        else:
            drop.append(i)
    if drop:
        keep = [i for i in range(tableau.shape[0]) if i not in drop]
        tableau = tableau[keep]
        basis = np.delete(basis, drop)
    return tableau, basis, pivots
