"""A small deterministic dense two-phase simplex solver.

Solves   min c@x   s.t.   a_ub@x <= b_ub,  x[free:] >= 0.

Inequality rows only: sipcert states every LP it solves in this form, and
handles equality constraints through the kernel of their Jacobian
(``reduction.certify_equality``).  Each row has its own slack column.

The first ``free`` variables are unrestricted in sign (free); the others
are nonnegative.  A free variable needs no split x = u - v: its column
enters in either direction, and once basic it never leaves (Chvatal,
Linear Programming, 1983, ch. 8; Bixby, ORSA J. Computing 4, 1992).
A nonbasic free column whose reduced cost is above ``_TOL`` is negated, and
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
the nonbasic ones whose reduced cost is at most ``_TOL`` may enter (the
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

Two entries share one pivot loop (``_run_phase``) and one phase 2 with
its optimal-face tie-break (``_optimize``):

- ``Simplex(n, a_ub, b_ub, free=k)`` and its ``minimize``: a kept tableau,
  phase 1 when a right-hand side is negative (``geometry.polyhedron_lp``,
  the support LPs of a polyhedron's determination);
- ``solve_lp(c, a_ub, b_ub, then=)``: one objective on a fresh
  ``Simplex`` (``geometry.cone_interior_nonempty``).  Given
  ``tableau=``, the ``slack_tableau`` whose views the caller filled as
  ``a_ub`` and ``b_ub`` with no right-hand side negative, it solves the LP
  in that tableau from its slack basis: no copy, no check of the arrays,
  no artificial column and no phase 1 (``geometry._fit``: the ladder's
  hull-gap LPs, hull membership and the certificate's segment LP).  That
  is the tableau and the code ``Simplex`` runs on such an LP, so the
  pivots and bits are the same either way.  A fit with no ``then``
  writes its tableau and reaches ``solve_lp`` only when its first pivot
  does not end it: ``_fit`` first asks ``_first_pivot_optimum``, which
  takes the entering column, the right-hand sides and the leaving row,
  no tableau, and applies ``_run_phase``'s own ratio test
  (``_ratio_test``) and optimality test; when that pivot is optimal the
  fit returns its answer, and no tableau is ever allocated.

Everything here is small -- a few thousand columns at most -- so a dense
tableau is the right tool and there is no external dependency.  All state
belongs to one ``Simplex`` object: separate objects may be used
concurrently, one object may not.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Simplex", "SimplexSolution", "SimplexError", "slack_tableau", "solve_lp"]

_PIVOT_TOL = 1e-10
_TOL = 1e-9  # reduced costs, the optimal face, phase 1's residual and the eviction pivots
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


def solve_lp(c, a_ub, b_ub, *, then=None, tableau=None) -> SimplexSolution:
    """Minimize c@x over x >= 0; among the optimal x, minimize ``then``@x when it is given.

    One objective on a fresh ``Simplex`` with no free variable.  If ``then``
    is unbounded over the optimal face, the optimal vertex reached so far is
    returned.  ``tableau``, when given, is the ``slack_tableau`` that
    ``a_ub`` and ``b_ub`` are views of, with every b_ub >= 0 (-0.0 counts):
    the LP is solved in it, which it overwrites, from its slack basis.
    """
    c = np.asarray(c, dtype=float).reshape(-1)
    if tableau is None:
        return Simplex(c.size, a_ub, b_ub).minimize(c, then)
    basis, nb = _slack_basis(c.size, b_ub.size)
    return _optimize(tableau, basis, nb, np.ones(0), *_objectives(c, then, c.size))


def slack_tableau(m, n):
    """(tableau, a_ub, b_ub): the condensed tableau of an LP in m rows and n
    variables at its slack basis, zeroed, and its views that hold the rows.

    The caller writes the LP into ``a_ub`` and ``b_ub`` and hands all three
    to ``solve_lp``; the last row, for the reduced costs, stays zero.
    """
    tableau = np.zeros((m + 1, n + 1))
    return tableau, tableau[:m, :n], tableau[:m, -1]


class Simplex:
    """The tableau of one constraint set, kept across a sequence of objectives.

    The set is ``a_ub@x <= b_ub`` in ``n`` variables, of which the first
    ``free`` are unrestricted in sign and the rest are nonnegative.  A row
    with a negative right-hand side (-0.0 is not negative) is negated and
    starts with an artificial column basic; phase 1 runs at most once, in
    the first ``minimize``, and drops the artificial columns.  A set with
    no such row starts from its slack basis with no artificial column, in
    a ``slack_tableau``.  Every later call starts from the basis the
    previous one ended at.  A pivot keeps the basis primal feasible, so that
    basis is a feasible start for any cost; a set found infeasible is
    infeasible for every objective.
    """

    def __init__(self, n, a_ub, b_ub, *, free=0):
        a_ub = np.asarray(a_ub, dtype=float)
        a_ub = a_ub.reshape(0, n) if a_ub.size == 0 else np.atleast_2d(a_ub)
        b_ub = np.asarray(b_ub, dtype=float).reshape(-1)
        if a_ub.shape != (b_ub.size, n):
            raise ValueError("inconsistent LP dimensions")
        if not 0 <= free <= n:
            raise ValueError("free must be between 0 and n")

        m = b_ub.size
        n_real = n + m  # the x columns, then one slack per row
        # a row with rhs < 0 is negated, its slack starts nonbasic (its column
        # becomes -1) and an artificial column is basic in its place
        art_rows = np.flatnonzero(b_ub < 0)
        total = n_real + art_rows.size
        basis, nb = _slack_basis(n, m)
        # the last row holds the reduced costs and, in its last entry, -objective
        tableau, rows, rhs = slack_tableau(m, n + art_rows.size)
        rows[:, :n] = a_ub
        rhs[:] = b_ub
        if art_rows.size:
            nb = np.concatenate([nb, n + art_rows])
            tableau[art_rows, np.arange(n, nb.size)] = 1.0
            tableau[art_rows] *= -1.0
            basis[art_rows] = np.arange(n_real, total)

        self.n, self.free = n, free
        self._n_real, self._total = n_real, total
        self._tableau, self._basis, self._nb = tableau, basis, nb
        self._sign = np.ones(free)  # the sign each free variable's column carries
        self._phase_one_due = total > n_real
        self._feasible = True

    def minimize(self, c, then=None) -> SimplexSolution:
        """Minimize c@x from the current basis; then ``then``@x on the optimal face."""
        c, then = _objectives(c, then, self.n)
        pivots = self._phase_one() if self._phase_one_due else 0
        if not self._feasible:
            x = np.full(self.n, np.nan)
            return SimplexSolution("infeasible", float("nan"), x, pivots=pivots)
        sol = _optimize(self._tableau, self._basis, self._nb, self._sign, c, then)
        sol.pivots += pivots
        return sol

    def _phase_one(self) -> int:
        """Drive the artificials out of the basis, or find the set infeasible.

        Returns its pivots.  The artificial columns, all nonbasic by then,
        are dropped: no later phase may enter them.
        """
        self._phase_one_due = False
        tableau, basis, nb, n_real = self._tableau, self._basis, self._nb, self._n_real
        rhs_scale = float(tableau[:-1, -1].max(initial=0.0))  # |rhs|: no pivot ran yet
        cost1 = np.zeros(self._total)
        cost1[n_real:] = 1.0
        obj1, _, pivots = _run_phase(tableau, basis, nb, cost1, self._sign)
        if obj1 is None:
            raise SimplexError("phase 1 unbounded (should be impossible)")
        if obj1 > max(_TOL, 1e-7 * (1.0 + rhs_scale)):
            self._feasible = False
            return pivots
        pivots += _evict_artificials(tableau, basis, nb, n_real)
        real = nb < n_real
        self._tableau, self._nb = tableau[:, np.append(real, True)], nb[real]
        return pivots


def _slack_basis(n, m):
    """(basis, nb) at the slack basis: row i's slack (id n + i) basic, the x columns nonbasic."""
    return np.arange(n, n + m), np.arange(n)


def _objectives(c, then, n):
    """c and ``then`` (or None) as float vectors of length n."""
    c = np.asarray(c, dtype=float).reshape(-1)
    if c.size != n:
        raise ValueError("objective dimension mismatch")
    if then is not None:
        then = np.asarray(then, dtype=float).reshape(-1)
        if then.size != n:
            raise ValueError("secondary objective dimension mismatch")
    return c, then


def _optimize(tableau, basis, nb, sign, c, then) -> SimplexSolution:
    """Phase 2 for c from a primal feasible basis, then ``then`` on the optimal face.

    Every artificial column is gone, so the ids are the n x columns and the
    m slacks.  A free column negated here flips its entry of ``sign``.
    """
    n = c.size
    total = n + basis.size
    obj2, bad, pivots = _run_phase(tableau, basis, nb, _cost(c, total, sign), sign)
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
        cost3 = _cost(then, total, sign)
        cost3[nb[tableau[-1, :-1] > _TOL]] = np.inf  # off the face
        pivots += _run_phase(tableau, basis, nb, cost3, sign)[2]
    x = _extract(tableau, basis, n, total, sign)
    return SimplexSolution("optimal", float(c @ x), x, pivots=pivots)


def _cost(c, total, sign):
    """c over every column id, in the tableau's signs."""
    cost = np.zeros(total)
    cost[: c.size] = c
    cost[: sign.size] *= sign
    return cost


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


def _run_phase(tableau, basis, nb, cost, sign):
    """Minimize cost from the current basis over the columns in the tableau.

    ``cost`` is in the tableau's signs; a free column negated here flips its
    entry of ``sign``.  A column whose cost is +inf never enters, in either
    direction.  Returns (objective, None, pivots), or (None, slot, pivots)
    when the column in that slot can enter without bound.
    """
    free, tol = sign.size, _TOL
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
        ties, best = _ratio_test(rows[:, k], rhs)
        if best is None:
            return None, k, pivots
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


def _ratio_test(col, rhs):
    """(ties, best): the least ratio rhs / col over the rows where the entering
    column ``col`` is above ``_PIVOT_TOL``, and the rows whose ratio is within
    its tie window; (no rows, None) when no row bounds the column."""
    pos = (col > _PIVOT_TOL).nonzero()[0]
    if pos.size == 0:
        return pos, None
    ratios = rhs[pos] / col[pos]
    best = ratios[ratios.argmin()]
    return pos[ratios <= best + _PIVOT_TOL * (1.0 + abs(best))], best


def _first_pivot_optimum(col, rhs, row):
    """x_j after the first pivot of ``min -x_j`` from the slack basis of
    ``a_ub@x <= b_ub``, when that pivot leaves the LP optimal; None when the
    simplex would pivot on (or raise).  No tableau is read or written.

    ``col`` and ``rhs`` are x_j's column and the right-hand sides, over the
    rows in order (rows past them, where x_j's entry is at most 0, bound
    nothing), and ``row(i)`` is row i of a_ub, asked for the leaving row
    only.  At the slack basis only x_j's reduced cost, -1, is negative, so
    x_j enters (``_run_phase``'s Dantzig rule).  The leaving row i is the
    ratio test's first tie: the slack basis orders the basic ids as the
    rows, so it is the lowest basic index.  After the pivot on e = col[i],
    column l's reduced cost is a_ub[i, l] / e and x_j is rhs[i] / e, the
    bits ``_pivot`` writes (0.0 - (-1.0 * y) == y), and the leaving slack's
    cost is 1 / e > 0.  So the LP is optimal iff the least of row(i) / e is
    at least -``_TOL``, the test ``_run_phase`` makes next; x_j's own entry,
    e / e, may be left out of ``row(i)``.
    """
    ties, _ = _ratio_test(col, rhs)
    if not ties.size:  # x_j unbounded, or a NaN ratio
        return None
    i = int(ties[0])
    e = col[i]
    if (row(i) / e).min() >= -_TOL:
        return float(rhs[i] / e)
    return None


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


def _evict_artificials(tableau, basis, nb, n_real):
    """Pivot each basic artificial out on a real column; returns the pivots.

    Every row has its own slack column, so the real columns span every row
    and such a column exists in exact arithmetic; raises ``SimplexError``
    if none is nonzero beyond ``_TOL``.
    """
    pivots = 0
    for i in np.flatnonzero(basis >= n_real):
        candidates = np.flatnonzero((np.abs(tableau[i, :-1]) > _TOL) & (nb < n_real))
        if not candidates.size:
            raise SimplexError("no real column to pivot an artificial out on")
        _pivot(tableau, basis, nb, i, int(candidates[nb[candidates].argmin()]))
        pivots += 1
    return pivots
