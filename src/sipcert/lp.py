"""A small deterministic dense two-phase simplex solver.

Solves   min c@x   s.t.   a_ub@x <= b_ub,  a_eq@x == b_eq,  x[free:] >= 0.

The first ``free`` variables are unrestricted in sign (free); the others
are nonnegative.  A free variable needs no split x = u - v: its column
enters in either direction, and once basic it never leaves (Chvatal,
Linear Programming, 1983, ch. 8; Bixby, ORSA J. Computing 4, 1992).
A nonbasic free column whose reduced cost is above ``tol`` is negated, and
its sign recorded, so that it prices and enters like any other column; the
rows whose basic variable is free are kept first in the tableau and stay
out of the ratio test.  The solution and the unbounded ray are returned in
the caller's signs.  This costs the loop something only while a free
variable is nonbasic; an LP with no free variable pays nothing.

The tableau is condensed, the dictionary form of the simplex method
(Chvatal ch. 2-3): one column per nonbasic variable, with its id in
``nb``, plus the right-hand side; basic columns are implicit unit vectors.
A 200-facet support LP in 10 free variables pivots on 201 x 11 entries;
split into u - v it took 201 x 21, and 201 x 221 in the full tableau.  A
pivot writes the leaving variable's unit column into the entering slot
before it divides the row and runs the rank-1 update, so each entry it
makes takes the full tableau's float operations.  Only the reduced costs set up at the start of a phase come
from a BLAS product over fewer columns, which may round the last bit
differently and so could flip a pricing near-tie; ``tests/test_lp.py``
holds pivots and solutions to a full-tableau reference, bit for bit, for
LPs with no free variable.

Entering columns are priced by Dantzig's rule: the most negative reduced
cost enters, the lowest variable id among equals.  On the wide
hull-membership LPs this needs a few pivots where Bland's lowest-index rule
needs hundreds.  Dantzig's rule alone can cycle at a degenerate vertex, so
after ``_DEGENERATE_RUN`` degenerate pivots in a row (ratio 0, objective
unchanged) the loop prices by Bland's rule, the lowest id with a negative
reduced cost, until a pivot makes progress again.  Bland's rule cannot
cycle and every nondegenerate pivot lowers the objective, so termination
stays guaranteed (Bland, Math. Oper. Res. 2, 1977).  The leaving row is the
lowest basic index among the ratio-test ties.  Ids are the full tableau's
column order (x, slacks, artificials); the slot order never breaks a tie.

An optional secondary objective ``then`` picks one solution among the
optimal ones, in the same tableau: after phase 2 only the basic columns and
the nonbasic ones whose reduced cost is at most ``tol`` may enter (the
optimal face), and the same pricing loop minimizes ``then`` there; a basic
column that leaves keeps a slot and may enter again.  Where that secondary
optimum is unique, the answer does not depend on the pivot rule.  Columns
off the optimal face get cost +inf, so no pricing rule picks them, and a
free one is never negated, so it stays out in both directions; the
artificial columns that phase 1 leaves nonbasic are dropped from the
tableau.

A ``Simplex`` keeps the tableau of one constraint set across a sequence
of objectives: phase 1 runs at most once, in its first ``minimize``, and
each later objective starts from the basis the previous one ended at,
which is primal feasible for any cost (the dictionary method's warm start,
Chvatal ch. 2-3).  ``solve_lp`` is one objective on a fresh ``Simplex``.

Everything here is small -- a few thousand columns at most -- so a dense
tableau is the right tool and there is no external dependency.  All state
belongs to one ``Simplex`` object: separate objects may be used
concurrently, one object may not.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Simplex", "SimplexSolution", "SimplexError", "solve_lp"]

_PIVOT_TOL = 1e-10
_MAX_ITERS = 50_000
_DEGENERATE_RUN = 50  # degenerate pivots in a row before Bland's rule takes over
_NO_SLOTS = np.zeros(0, dtype=int)


class SimplexError(Exception):
    """Numerical failure inside the simplex loop (never silently wrong)."""


@dataclass
class SimplexSolution:
    status: str  # 'optimal' | 'infeasible' | 'unbounded'
    objective: float
    x: np.ndarray
    ray: np.ndarray | None = field(default=None)
    pivots: int = 0  # this call's phase 1 (the first call only), phase 2 and tie-break pivots

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
    """Minimize c@x over x >= 0; among the optimal x, minimize ``then``@x when it is given.

    One objective on a fresh ``Simplex`` with no free variable.  If ``then``
    is unbounded over the optimal face, the optimal vertex reached so far is
    returned.
    """
    c = np.asarray(c, dtype=float).reshape(-1)
    return Simplex(c.size, a_ub, b_ub, a_eq, b_eq, tol=tol).minimize(c, then)


class Simplex:
    """The tableau of one constraint set, kept across a sequence of objectives.

    The set is ``a_ub@x <= b_ub, a_eq@x == b_eq`` in ``n`` variables, of
    which the first ``free`` are unrestricted in sign and the rest are
    nonnegative.  Phase 1 runs at most once, in the first ``minimize``, and
    drops the artificial columns it leaves nonbasic; every later call starts
    from the basis the previous one ended at.  A pivot keeps the basis
    primal feasible, so that basis is a feasible start for any cost; a set
    found infeasible is infeasible for every objective.
    A set with no equality row and no negative right-hand side (-0.0 is not
    negative), such as a hull fit, starts from its slack basis: the
    constructor copies ``a_ub`` and ``b_ub`` and adds no artificial column.
    """

    def __init__(self, n, a_ub=None, b_ub=None, a_eq=None, b_eq=None, *, free=0, tol=1e-9):
        a_ub = _as_2d(a_ub, n)
        b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float).reshape(-1)
        a_eq = _as_2d(a_eq, n)
        b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float).reshape(-1)
        if a_ub.shape != (b_ub.size, n) or a_eq.shape != (b_eq.size, n):
            raise ValueError("inconsistent LP dimensions")
        if not 0 <= free <= n:
            raise ValueError("free must be between 0 and n")

        m_eq, m_ub = b_eq.size, b_ub.size
        m = m_eq + m_ub
        n_real = n + m_ub  # the x columns, then one slack per inequality row
        if not m_eq and not (b_ub < 0).any():  # the slack basis is feasible
            tableau = np.zeros((m + 1, n + 1))
            tableau[:m, :n] = a_ub
            tableau[:m, n] = b_ub
            basis, nb, total = np.arange(n, n_real), np.arange(n), n_real
        else:
            # constraint rows: equalities first, then inequalities; the last row
            # holds the reduced costs and, in its last entry, -objective
            rhs = np.concatenate([b_eq, b_ub])
            neg = rhs < 0  # these rows are negated so that every rhs is nonnegative
            # artificials for equality rows and for negated inequality rows
            art_rows = np.flatnonzero(neg | (np.arange(m) < m_eq))
            total = n_real + art_rows.size
            # the slack of a negated inequality row starts nonbasic: its artificial is basic
            slack_rows = art_rows[art_rows >= m_eq]
            nb = np.concatenate([np.arange(n), n - m_eq + slack_rows])
            tableau = np.zeros((m + 1, nb.size + 1))
            tableau[:m_eq, :n] = a_eq
            tableau[m_eq:m, :n] = a_ub
            tableau[slack_rows, np.arange(n, nb.size)] = 1.0
            tableau[:m, -1] = rhs
            tableau[:m][neg] *= -1.0  # negated slack columns become -1
            basis = np.arange(n - m_eq, n_real)  # each inequality row's slack ...
            basis[art_rows] = np.arange(n_real, total)  # ... unless the row has an artificial

        self.n, self.free, self.tol = n, free, tol
        self._n_real, self._total = n_real, total
        self._tableau, self._basis, self._nb = tableau, basis, nb
        self._sign = np.ones(free)  # the sign each free variable's column carries
        self._phase_one_due = total > n_real
        self._feasible = True

    def minimize(self, c, then=None) -> SimplexSolution:
        """Minimize c@x from the current basis; then ``then``@x on the optimal face."""
        c = np.asarray(c, dtype=float).reshape(-1)
        n, total, tol = self.n, self._total, self.tol
        if c.size != n:
            raise ValueError("objective dimension mismatch")
        if then is not None:
            then = np.asarray(then, dtype=float).reshape(-1)
            if then.size != n:
                raise ValueError("secondary objective dimension mismatch")
        pivots = self._phase_one() if self._phase_one_due else 0
        if not self._feasible:
            return SimplexSolution("infeasible", float("nan"), np.full(n, np.nan), pivots=pivots)

        tableau, basis, nb, sign = self._tableau, self._basis, self._nb, self._sign
        obj2, bad, count = _run_phase(tableau, basis, nb, self._cost(c), tol, sign)
        pivots += count
        if obj2 is None:
            ray = np.zeros(total)
            ray[nb[bad]] = 1.0
            ray[basis] = -tableau[:-1, bad]
            ray[np.abs(ray) < _PIVOT_TOL] = 0.0
            x = _extract(tableau, basis, n, total, sign)
            return SimplexSolution("unbounded", -np.inf, x, ray=_signed(ray[:n], sign), pivots=pivots)
        if then is not None:
            # the optimal face: the basic columns and the nonbasic ones that can
            # enter without raising c@x; a basic column that leaves may re-enter
            cost3 = self._cost(then)
            cost3[nb[tableau[-1, :-1] > tol]] = np.inf  # off the face
            pivots += _run_phase(tableau, basis, nb, cost3, tol, sign)[2]
        x = _extract(tableau, basis, n, total, sign)
        return SimplexSolution("optimal", float(c @ x), x, pivots=pivots)

    def _cost(self, c):
        """c over every column id, in the tableau's signs."""
        cost = np.zeros(self._total)
        cost[: self.n] = c
        cost[: self.free] *= self._sign
        return cost

    def _phase_one(self) -> int:
        """Drive the artificials out of the basis, or find the set infeasible.

        Returns its pivots.  The artificial columns left nonbasic are dropped:
        no later phase may enter them.
        """
        self._phase_one_due = False
        tableau, basis, nb, n_real = self._tableau, self._basis, self._nb, self._n_real
        rhs_scale = float(tableau[:-1, -1].max(initial=0.0))  # |rhs|: no pivot ran yet
        cost1 = np.zeros(self._total)
        cost1[n_real:] = 1.0
        obj1, _, pivots = _run_phase(tableau, basis, nb, cost1, self.tol, self._sign)
        if obj1 is None:
            raise SimplexError("phase 1 unbounded (should be impossible)")
        if obj1 > max(self.tol, 1e-7 * (1.0 + rhs_scale)):
            self._feasible = False
            return pivots
        tableau, self._basis, count = _evict_artificials(tableau, basis, nb, n_real, self.tol)
        real = nb < n_real
        self._tableau, self._nb = tableau[:, np.append(real, True)], nb[real]
        return pivots + count


def _signed(v, sign):
    """v with each free entry times its column's sign (a zero stays +0.0)."""
    v[: sign.size] = v[: sign.size] * sign + 0.0
    return v


def _extract(tableau, basis, n, total, sign):
    full = np.zeros(total)
    full[basis] = tableau[:-1, -1]
    return _signed(full[:n], sign)


def _free_rows_first(tableau, basis, free):
    """Move the rows whose basic variable is free to the top, in order.

    Returns their number.  Phase 1's eviction of the artificials may have
    made a free variable basic anywhere.
    """
    is_free = basis < free
    count = int(np.count_nonzero(is_free))
    if not is_free[:count].all():
        order = np.argsort(~is_free, kind="stable")
        tableau[:-1] = tableau[order]
        basis[:] = basis[order]
    return count


def _run_phase(tableau, basis, nb, cost, tol, sign):
    """Minimize cost from the current basis over the columns in the tableau.

    ``cost`` is in the tableau's signs; a free column negated here flips its
    entry of ``sign``.  A column whose cost is +inf never enters, in either
    direction.  Returns (objective, None, pivots), or (None, slot, pivots)
    when the column in that slot can enter without bound.
    """
    free = sign.size
    body = tableau[:-1]
    top = _free_rows_first(tableau, basis, free) if free else 0  # rows of basic free variables
    reduced = tableau[-1]
    reduced[:-1] = cost[nb] - cost[basis] @ body[:, :-1]
    reduced[-1] = -(cost[basis] @ body[:, -1])
    red = reduced[:-1]
    if red.size == 0:  # every column is basic
        return -float(reduced[-1]), None, 0
    # the nonbasic free columns, but for those kept off the face by a cost of +inf
    turn = np.flatnonzero((nb < free) & (cost[nb] < np.inf)) if top < free else _NO_SLOTS
    # the ratio test sees only the rows whose basic variable is nonnegative
    rows, rhs, row_basis = body[top:], body[top:, -1], basis[top:]
    degenerate = 0
    for pivots in range(_MAX_ITERS):
        if turn.size:
            up = turn[red[turn] > tol]
            if up.size:  # lowering these free variables lowers the cost: negate them
                tableau[:, up] *= -1.0
                sign[nb[up]] *= -1.0
        if degenerate < _DEGENERATE_RUN:
            k = int(red.argmin())  # Dantzig: most negative reduced cost ...
            if red[k] >= -tol:
                return -float(reduced[-1]), None, pivots
            ties = (red == red[k]).nonzero()[0]
            if ties.size > 1:
                k = int(ties[nb[ties].argmin()])  # ... the lowest id among equals
        else:
            negative = (red < -tol).nonzero()[0]
            if negative.size == 0:
                return -float(reduced[-1]), None, pivots
            k = int(negative[nb[negative].argmin()])  # Bland: lowest id
        col = rows[:, k]
        pos = (col > _PIVOT_TOL).nonzero()[0]
        if pos.size == 0:
            return None, k, pivots
        ratios = rhs[pos] / col[pos]
        best = ratios.min()
        ties = pos[ratios <= best + _PIVOT_TOL * (1.0 + abs(best))]
        # the lowest basic index among the ties
        leave = int(ties[0]) if ties.size == 1 else int(ties[row_basis[ties].argmin()])
        degenerate = degenerate + 1 if best <= _PIVOT_TOL else 0
        enters_free = turn.size and nb[k] < free
        _pivot(tableau, basis, nb, top + leave, k)
        if enters_free:  # basic for good: its row moves up, out of the ratio test
            if leave:
                body[[top, top + leave]] = body[[top + leave, top]]
                basis[[top, top + leave]] = basis[[top + leave, top]]
            top += 1
            rows, rhs, row_basis = body[top:], body[top:, -1], basis[top:]
            turn = turn[turn != k]
    raise SimplexError("simplex iteration limit exceeded")


def _pivot(tableau, basis, nb, row, slot):
    """Swap the column in ``slot`` into the basis at ``row``; the leaving
    unit column takes the slot before the update, as the full tableau has it."""
    piv = tableau[row, slot]
    factors = tableau[:, slot].copy()
    factors[row] = 0.0
    tableau[:, slot] = 0.0
    pivot_row = tableau[row]
    pivot_row[slot] = 1.0
    pivot_row /= piv
    tableau -= np.multiply.outer(factors, pivot_row)
    basis[row], nb[slot] = nb[slot], basis[row]


def _evict_artificials(tableau, basis, nb, n_real, tol):
    """Pivot basic artificials out, or drop the (redundant) row if impossible.

    Returns (tableau, basis, pivots).
    """
    drop = []
    pivots = 0
    for i in range(tableau.shape[0] - 1):
        if basis[i] < n_real:
            continue
        nonzero = np.abs(tableau[i, :-1]) > max(tol, _PIVOT_TOL)
        candidates = np.flatnonzero(nonzero & (nb < n_real))
        if candidates.size:
            _pivot(tableau, basis, nb, i, int(candidates[nb[candidates].argmin()]))
            pivots += 1
        else:
            drop.append(i)
    if drop:
        keep = [i for i in range(tableau.shape[0]) if i not in drop]
        tableau = tableau[keep]
        basis = np.delete(basis, drop)
    return tableau, basis, pivots
