"""Problem representation, index-set discretization, admissibility diagnostics.

A constraint family is one of

* :class:`FiniteFamily` -- an explicit list of expressions, understood to be
  the *entire* family (its multiplier set is the hull of the strictly
  active gradients);
* :class:`ParametricFamily` -- h(x, t) over an index set, possibly a sampled
  or truncated window of an infinite family, optionally carrying extra
  individually-listed members (a union family);
* :class:`PolyhedralFamily` -- the normalized linear functionals of an
  H-polyhedron {y : a_j @ y >= b_j}.

All three share one interface over *rows*, the discretized members in a
fixed order: listed members first (a finite family's members, a parametric
family's extras), then grid points or facets.  The listed members are one
:class:`~sipcert.expr.ExprList`, one tape for them all.  ``values(x)`` is
one array over every row (listed members through one scalar walk of their
tape, grid points through one ``evaluate_many`` over the index set's own
``axes``, facets through one matmul); ``gradients(x, rows, kink_tol)``
(one (n, p) array, the listed rows from one dual walk of the slots they
read), ``labels(rows)`` and ``tag(row)`` serve only the rows a caller asks
for.  ``kind`` names the family in reports, ``pure_finite`` says it has no
sampled part, and ``substitute(inner)`` composes it with an inner map,
which each list interns once for all its members.

A certification evaluates the family once (:func:`evaluate_family`): its
feasibility report and the near-active scan read the same values.  The
scan (:class:`FamilyScan`) is one candidate table in parallel arrays; a
ladder rung (:class:`ActiveSet`) is an index array into it, so the rungs
are nested, and tags are formatted only for the rows a report shows.  On a
parametric family the scan adds an off-grid twin for each near-active grid
point that is a discrete local minimum of the grid values (values within
``tol_feas`` tie, and the interior of a flat run gets none), bisected
toward smaller h within its grid cells;
a violation between grid points is searched for only in those cells.
Families and problems are immutable after construction.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .expr import (
    ExprError,
    ExprFn,
    ExprList,
    evaluate_list,
    evaluate_many,
    gradient,
    gradient_list,
    gradient_many,
    linear_list,
)
from .expr import substitute as substitute_expr
from .geometry import (
    Polyhedron,
    first_equal_rows,
    hull_member,
    polyhedron_lp,
)
from .options import OptionError, Options, resolve_seed
from .work import count

__all__ = [
    "IndexSet",
    "FiniteFamily",
    "ParametricFamily",
    "PolyhedralFamily",
    "Problem",
    "ActiveSet",
    "FeasibilityReport",
    "InfeasibleError",
    "GridError",
    "evaluate_family",
    "feasibility",
    "FamilyScan",
    "equi_lipschitz_estimate",
    "admissible_diagnostics",
]


_MAX_INDEX = int(np.iinfo(np.intp).max)  # the most points a grid can number


class GridError(ValueError):
    """A grid :meth:`IndexSet.box` cannot number."""


class InfeasibleError(Exception):
    def __init__(self, report):
        super().__init__(
            f"candidate is infeasible: min value {report.min_value:.6g} at {report.min_tag}"
        )
        self.report = report


@dataclass(frozen=True)
class IndexSet:
    """Index set T: a compact box sampled on its one ``base_grid``.

    A countable family {h(x, k) : k <= K} is the box [1, K] on grid K,
    whose points are exactly the integers 1, ..., K.  The grid's
    ``base_grid ** t_dim`` points must be numbered by a numpy index.  The
    grid is the product of its :attr:`axes`, built on first use and kept;
    ``evaluate_many`` walks that product as given, and :meth:`grid_points`
    lists it in C order.
    """

    lower: np.ndarray
    upper: np.ndarray
    base_grid: int

    @classmethod
    def box(cls, lower, upper, base_grid: int) -> "IndexSet":
        """The box [lower, upper] on ``base_grid`` points per axis.

        Raises :class:`GridError` for a grid that is not an integer, below 2
        or with more points than the largest index, checked before the box,
        and ValueError for a box with lower > upper in some component.
        """
        lo = np.asarray(lower, dtype=float).reshape(-1)
        hi = np.asarray(upper, dtype=float).reshape(-1)
        try:  # a Python int: a numpy one would wrap in the power below
            grid = operator.index(base_grid)
        except TypeError:
            raise GridError(f"base_grid must be an integer, got {base_grid!r}") from None
        if grid < 2:
            raise GridError("base_grid must be at least 2")
        # 2 ** 64 is past the largest index, so no power above 64 is formed
        if grid > _MAX_INDEX or grid ** min(lo.size, 64) > _MAX_INDEX:
            raise GridError(f"grid ** t_dim exceeds the largest index, {_MAX_INDEX}")
        if lo.size != hi.size or np.any(lo > hi):
            raise ValueError("box index set needs lower <= upper componentwise")
        return cls(lo, hi, grid)

    @property
    def t_dim(self) -> int:
        return self.lower.size

    @functools.cached_property
    def axes(self) -> tuple:
        """One read-only ``linspace`` per t-variable: the grid is their product."""
        axes = tuple(np.linspace(lo, hi, self.base_grid) for lo, hi in zip(self.lower, self.upper))
        for axis in axes:
            axis.flags.writeable = False
        return axes

    def grid_points(self) -> np.ndarray:
        """Every grid point, one row each, in C order (the last axis varies fastest)."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack(mesh, axis=-1).reshape(-1, self.t_dim)

    def points_at(self, rows) -> np.ndarray:
        """``grid_points()[rows]``, without building the whole grid."""
        cells = np.unravel_index(np.asarray(rows, dtype=int), self.shape())
        return np.stack([axis[c] for axis, c in zip(self.axes, cells)], axis=-1)

    def shape(self) -> tuple:
        """Grid points per axis; ``grid_points`` is this array in C order."""
        return (self.base_grid,) * self.t_dim

    def steps(self) -> np.ndarray:
        return (self.upper - self.lower) / (self.base_grid - 1)


def _param_tag(t):
    return "t=(" + ", ".join(format(v, ".12g") for v in t) + ")"


def _point_labels(points):
    return [(_param_tag(t), tuple(t)) for t in points]


def _clamp(values, tol_feas):
    # small negatives within tolerance are rounding noise, not infeasibility
    return np.where((values < 0.0) & (values >= -tol_feas), 0.0, values)


class _Family:
    """The row interface the family kinds share (see the module docstring).

    Subclasses hold their individually named members in ``_listed``, one
    ExprList, tagged by ``_tags``, and supply the ``_indexed_*`` hooks for
    the rest.
    """

    pure_finite = True  # known in full: no sampled parametric part
    _listed = ExprList((), (), 0)
    _tags = ()

    def values(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.concatenate([evaluate_list(self._listed, x), self._indexed_values(x)])

    def _values_many(self, xs) -> np.ndarray:
        """``values`` at each row of xs (k, p), stacked (k, rows)."""
        return np.array([self.values(x) for x in xs])

    def gradients(self, x, rows, kink_tol=Options.tol_kink) -> np.ndarray:
        """Gradients at x of the members in ``rows`` (ascending), one per row."""
        rows = np.asarray(rows, dtype=int)
        d = len(self._tags)
        listed = [gradient_list(self._listed, x, rows[rows < d], kink_tol)] if d else []
        return np.vstack(listed + [self._indexed_gradients(x, rows[rows >= d] - d, kink_tol)])

    def labels(self, rows) -> list:
        """(tag, index point or None) of the members in ``rows`` (ascending)."""
        rows = np.asarray(rows, dtype=int)
        d = len(self._tags)
        listed = [(self._tags[r], None) for r in rows[rows < d]]
        return listed + self._indexed_labels(rows[rows >= d] - d)

    def tag(self, row: int) -> str:
        return self.labels([row])[0][0]

    def entry_gradient(self, y, tag, param):
        """Gradient at y of the member an active entry names by (tag, param)."""
        row = {t: r for r, t in enumerate(self._tags)}[tag]
        return gradient_list(self._listed, y, [row])[0]

    def refine(self, x, rows, values, eps_cap, opts) -> tuple:
        """Off-grid twins of the near-active ``rows``: (values, points, gradients)."""
        return np.zeros(0), np.zeros((0, 0)), np.zeros((0, len(x)))

    def determination(self, tol_lp: float = Options.tol_lp) -> tuple:
        """(normalized normal, infimum over the set, stated offset) per facet."""
        return ()

    def cone(self) -> Polyhedron | None:
        """The polyhedral cone the family determines, if it is one."""
        return None

    def _indexed_values(self, x):
        return np.zeros(0)

    def _indexed_gradients(self, x, idx, kink_tol):
        return np.zeros((0, len(x)))

    def _indexed_labels(self, idx):
        return []


@dataclass(frozen=True)
class FiniteFamily(_Family):
    members: ExprList  # given as ExprFns or an ExprList
    tags: tuple[str, ...] = ()

    kind = "finite"

    def __post_init__(self):
        members = ExprList.of(self.members)
        if not members:
            raise ValueError("finite family must be nonempty")
        tags = tuple(self.tags) or tuple(f"phi{i}" for i in range(len(members)))
        if len(tags) != len(members):
            raise ValueError("one tag per member required")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "tags", tags)
        object.__setattr__(self, "_listed", members)
        object.__setattr__(self, "_tags", tags)

    @property
    def arity(self) -> int:
        return self.members.arity_x

    def substitute(self, inner) -> "FiniteFamily":
        return FiniteFamily(substitute_expr(self.members, inner), self.tags)


@dataclass(frozen=True)
class ParametricFamily(_Family):
    h: ExprFn
    index: IndexSet
    extra: ExprList = ()  # given as ExprFns or an ExprList

    pure_finite = False

    def __post_init__(self):
        extra = ExprList.of(self.extra, self.h.arity_x)
        object.__setattr__(self, "extra", extra)
        object.__setattr__(self, "_listed", extra)
        object.__setattr__(self, "_tags", tuple(f"phi{i}" for i in range(len(extra))))
        if self.h.arity_t != self.index.t_dim:
            raise ValueError("h arity in t must match the index-set dimension")

    @property
    def arity(self) -> int:
        return self.h.arity_x

    @property
    def kind(self) -> str:
        return "parametric+finite" if self.extra else "parametric"

    def substitute(self, inner) -> "ParametricFamily":
        return ParametricFamily(
            substitute_expr(self.h, inner), self.index, substitute_expr(self.extra, inner)
        )

    def entry_gradient(self, y, tag, param):
        if param is None:
            return super().entry_gradient(y, tag, param)
        return gradient(self.h, y, np.asarray(param))

    def refine(self, x, rows, values, eps_cap, opts) -> tuple:
        """Bisect each near-active box grid point that is a discrete local minimum toward smaller h.

        The seeds are the near-active grid points whose value in ``values``
        (the scan's clamped values) is <= that of each axis neighbour in the
        box and < at least one of them, a neighbour within ``opts.tol_feas``
        counting as equal: the interior of a run flat to within that
        tolerance gets no twin, the rim of a plateau and both points of a
        two-point tie do.
        The rule reads grid values only, never eps.  ``opts.refine_depth``
        levels per axis localize T(x) in the cells around the seeds, as many
        levels per tape walk as fit in ``_LIPSCHITZ_CHUNK`` points (see
        :func:`_refine_axis_all`): one walk per axis for a few seeds, one
        per level and axis for thousands, fewer once the cells reach float
        resolution.  The last axis's walks hold h at the refined points, so
        no further walk evaluates them.  A violation between grid points is
        found only in those cells.  The seeds are chosen at ``eps_cap`` and a
        refined point is gated by its own value, so a twin stays on the
        ladder below the grid value of its seed: a minimum between grid
        points is kept at the rungs its grid neighbours have left.  Twins
        with value above ``eps_cap``, and twins that repeat a seed or an
        earlier twin bytewise, are dropped.
        """
        index, d = self.index, len(self.extra)
        seeds = rows[rows >= d] if opts.refine_depth > 0 else rows[:0]
        seeds = seeds[_discrete_minima(values[d:], index.shape(), seeds - d, opts.tol_feas)]
        count("refined_seeds", len(seeds))
        if not len(seeds):
            return super().refine(x, rows, values, eps_cap, opts)
        points = index.points_at(seeds - d)
        steps = index.steps()
        refined = points.copy()
        for axis in range(index.t_dim):
            lo = np.maximum(index.lower[axis], refined[:, axis] - steps[axis])
            hi = np.minimum(index.upper[axis], refined[:, axis] + steps[axis])
            refined[:, axis], refined_values = _refine_axis_all(
                self.h, x, refined, axis, lo, hi, opts.refine_depth
            )
        bad = np.flatnonzero(refined_values < -opts.tol_feas)
        if bad.size:  # the grid missed a violation between its points
            tag, value = _param_tag(refined[bad[0]]), float(refined_values[bad[0]])
            raise InfeasibleError(FeasibilityReport(False, value, tag, True, ((tag, value),)))
        near = _clamp(refined_values, opts.tol_feas)
        close = np.flatnonzero(near <= eps_cap)
        n = len(points)
        ids = first_equal_rows(np.vstack([points, refined[close]]))  # seeds come first
        keep = close[ids[n:] == np.arange(n, ids.size)]
        grads = gradient_many(self.h, x, refined[keep], opts.tol_kink)
        return near[keep], refined[keep], grads

    def _values_many(self, xs) -> np.ndarray:
        """Listed members, if any, in one walk per row of xs; the grid part in
        one tape walk over the product of the rows and the grid's axes."""
        listed = np.array([evaluate_list(self._listed, x) for x in xs]) if self._tags else None
        walked = evaluate_many(self.h, xs, self.index.axes).reshape(len(xs), -1)
        return walked if listed is None else np.hstack([listed, walked])

    def _indexed_values(self, x):
        return evaluate_many(self.h, x, self.index.axes)

    def _indexed_gradients(self, x, idx, kink_tol):
        return gradient_many(self.h, x, self.index.points_at(idx), kink_tol)

    def _indexed_labels(self, idx):
        return _point_labels(self.index.points_at(idx))


@dataclass(frozen=True)
class PolyhedralFamily(_Family):
    """Members phi_j(y) = (a_j @ y - b_j)/|a_j| with constant gradients a_j/|a_j|."""

    poly: Polyhedron

    kind = "polyhedral"

    def __post_init__(self):
        norms = np.linalg.norm(self.poly.normals, axis=1)
        # + 0.0 turns -0.0 into 0.0, as expression gradients do: one generator, not two
        normals, offsets = self.poly.normals / norms[:, None] + 0.0, self.poly.offsets / norms
        normals.flags.writeable = offsets.flags.writeable = False
        object.__setattr__(self, "_normals", normals)
        object.__setattr__(self, "_offsets", offsets)
        facets = self._indexed_labels(range(len(self.poly.offsets)))
        object.__setattr__(self, "_facet_rows", {tag: j for j, (tag, _) in enumerate(facets)})

    @property
    def arity(self) -> int:
        return self.poly.dim

    def normalized(self):
        """(unit normals (m, p), offsets (m,)), bound at construction, read-only."""
        return self._normals, self._offsets

    def substitute(self, inner) -> FiniteFamily:
        """The normalized linear members, composed: a finite family tagged A[j]."""
        normals, offsets = self.normalized()
        members = linear_list(normals, -offsets, normals.shape[1])
        return FiniteFamily(substitute_expr(members, inner), tuple(self._facet_rows))

    def entry_gradient(self, y, tag, param):
        return self._normals[self._facet_rows[tag]]

    def determination(self, tol_lp: float = Options.tol_lp) -> tuple:
        """(normalized normal a_j, infimum of a_j @ y over the set, stated offset c_j) per facet.

        The infimum is at least c_j, since the set obeys facet j, and at
        most a_j @ v for every point v of the set.  The vertices that
        earlier support LPs ended at serve as such points: facet j runs its
        own LP only when none of them comes within ``tol_lp * (1 + |c_j|)``
        of c_j, and otherwise reports ``max(c_j, min_v a_j @ v)``.  A facet
        through an LP's minimiser is necessary and needs no LP of its own
        (the extreme-point classification of necessary constraints: Caron,
        McDonald & Ponic, JOTA 62, 1989).  An unbounded LP gives -inf,
        though over a nonempty set the LP of a facet is bounded below by
        its offset c_j, so only rounding can make it unbounded.

        All LPs share one kept tableau (``polyhedron_lp``, in the free
        coordinates of y, one column each): phase 1 runs at most once, and
        each LP starts at the vertex where the last one ended.  The LPs run
        in normal-cone order.  The first LP is facet 0's.  After each LP,
        the next is that of the unsettled facet whose unit normal has the
        largest inner product with the sum of the unit normals of the
        facets tight at the last vertex v (slack ``a_j @ v - c_j`` within
        ``tol_lp * (1 + |c_j|)``), ties to the lowest index.  That sum
        points into the normal cone of v, the objectives that v already
        minimizes, so the next LP starts near its optimum and needs few
        pivots, and its end vertex settles every facet tight there.  On the
        benchmark's 200- and 100-facet polytopes this runs 29-59% fewer
        LPs, with fewer pivots, than visiting by least slack.  The rows
        stay in facet order.  After an infeasible LP every infimum is +inf
        and no further LP runs.  The LPs and their pivots (phase 1 included)
        are tallied as ``support_lps`` and ``support_pivots``.
        """
        normals, offsets = self._normals, self._offsets
        near = tol_lp * (1.0 + np.abs(offsets))
        reach = np.full(len(offsets), np.inf)  # min over the LP vertices v of a_j @ v
        infima = np.full(len(offsets), np.nan)
        unsettled = np.ones(len(offsets), dtype=bool)
        cone = np.zeros(normals.shape[1])  # unit normals tight at the last vertex, summed
        support = polyhedron_lp(self.poly)
        while True:
            settled = unsettled & (reach - offsets <= near)
            infima[settled] = np.maximum(offsets, reach)[settled]
            unsettled &= ~settled
            if not unsettled.any():
                break
            open_rows = np.flatnonzero(unsettled)
            j = int(open_rows[(normals[open_rows] @ cone).argmax()])
            unsettled[j] = False
            result = support.minimize(normals[j])
            count("support_lps")
            count("support_pivots", result.pivots)
            if result.status == "infeasible":
                infima[:] = np.inf
                break
            infima[j] = result.objective  # -inf when unbounded
            product = normals @ result.x
            np.minimum(reach, product, out=reach)
            cone = normals[product - offsets <= near].sum(axis=0)
        return tuple(zip(map(tuple, normals.tolist()), infima.tolist(), offsets.tolist()))

    def cone(self) -> Polyhedron | None:
        return self.poly if self.poly.is_cone() else None

    def _indexed_values(self, x):
        return self._normals @ x - self._offsets

    def _values_many(self, xs) -> np.ndarray:
        """One matvec per row of xs: a stacked matmul (gemm) sums in another
        order than the matvec (gemv) of ``values`` and differs in the last bit."""
        return np.array([self._normals @ x for x in xs]) - self._offsets

    def _indexed_gradients(self, x, idx, kink_tol):
        return self._normals[idx]

    def _indexed_labels(self, idx):
        return [(f"A[{j}]", None) for j in idx]


ConstraintFamily = FiniteFamily | ParametricFamily | PolyhedralFamily


@dataclass(frozen=True)
class Problem:
    """max objective(x) s.t. inner_map(x) in family's set, equality(x) = 0.

    ``x_family`` is the family composed with the inner map once, at
    construction (``family`` itself when there is none): every computation
    over x reads it, while ``family`` stays in the image coordinates.
    """

    p: int
    objective: ExprFn
    family: ConstraintFamily | None = None
    inner_map: ExprList | None = None  # given as ExprFns or an ExprList
    equality: ExprList | None = None  # given as ExprFns or an ExprList
    x_family: ConstraintFamily | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.objective.arity_x != self.p or self.objective.arity_t != 0:
            raise ValueError("objective arity must equal the decision dimension")
        for name, what in (("inner_map", "inner map"), ("equality", "equality")):
            if getattr(self, name) is not None:
                try:
                    object.__setattr__(self, name, ExprList.of(getattr(self, name), self.p))
                except ValueError:
                    raise ValueError(f"{what} components must be functions of x only") from None
        if self.family is not None:
            expected = len(self.inner_map) if self.inner_map else self.p
            if self.family.arity != expected:
                raise ValueError(
                    f"constraint family acts on dimension {self.family.arity}, expected {expected}"
                )
        composed = self.family
        if composed is not None and self.inner_map is not None:
            composed = composed.substitute(self.inner_map)
        object.__setattr__(self, "x_family", composed)

    @property
    def q(self) -> int:
        return len(self.inner_map) if self.inner_map else self.p


@dataclass(frozen=True)
class ActiveSet:
    """One ladder rung: the ascending indices of the scan's candidates with value <= eps."""

    entries: np.ndarray
    scan: "FamilyScan"

    def hull(self) -> np.ndarray:
        """The rung's generators, one gradient per row."""
        return self.scan.grads[self.entries]


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    min_value: float
    min_tag: str
    boundary: bool  # min value ~ 0: the infimum indicator at the constraint boundary
    violations: tuple = ()
    equality_violation: float = 0.0


def evaluate_family(
    prob: Problem, x, tol_feas: float = Options.tol_feas
) -> tuple[np.ndarray, FeasibilityReport]:
    """The values of every discretized member of ``prob.x_family`` at x, and their report.

    Feasible iff the minimum is >= -tol_feas and every equality holds within
    tol_feas.  The report also says whether the family infimum sits at
    zero, the boundary indicator used to decide between the interior
    (unconstrained) and constrained branches.  The minimum is the first
    smallest row, or ``-violation`` tagged ``"equality"`` when the equality
    rows are violated worse than every row; tags are formatted for it and
    for the violations only.
    """
    family = prob.x_family
    values = family.values(x) if family is not None else np.zeros(0)
    equality = evaluate_list(prob.equality, x) if prob.equality else np.zeros(0)
    eq_violation = float(np.abs(equality).max(initial=0.0))
    min_value, min_tag, violations = float("inf"), "(none)", ()
    if values.size:
        row = int(np.argmin(values))
        min_value, min_tag = float(values[row]), family.tag(row)
        bad = np.flatnonzero(values < -tol_feas)
        violations = tuple(
            (tag, float(values[r])) for r, (tag, _) in zip(bad, family.labels(bad))
        )
    feasible = not violations and eq_violation <= tol_feas
    boundary = min_value <= tol_feas
    if eq_violation > tol_feas and -eq_violation < min_value:
        min_value, min_tag = -eq_violation, "equality"
    return values, FeasibilityReport(feasible, min_value, min_tag, boundary, violations, eq_violation)


def feasibility(prob: Problem, x, tol_feas: float = Options.tol_feas) -> FeasibilityReport:
    """The report of :func:`evaluate_family`, without the values.

    No certification calls it (they read :func:`evaluate_family` through
    ``tc_approx``); it stays for library callers and ``bench/tracing.py``.
    """
    return evaluate_family(prob, x, tol_feas)[1]


def _discrete_minima(grid_values, shape, idx, tol=0.0):
    """Whether each grid point ``idx`` (flat, C order) is a discrete local minimum.

    It is when its value in ``grid_values`` is <= that of each axis
    neighbour in the box and < at least one of them, where a neighbour
    within ``tol`` of it counts as equal: rounding noise is a tie.  A
    neighbour outside the box takes the point's own value, which neither
    test counts.
    """
    own = grid_values[idx]
    cells = np.unravel_index(idx, shape)
    none_lower = np.ones(idx.size, dtype=bool)
    some_higher = np.zeros(idx.size, dtype=bool)
    stride = 1
    for axis in reversed(range(len(shape))):
        for step in (-1, 1):
            inside = (cells[axis] + step >= 0) & (cells[axis] + step < shape[axis])
            other = np.where(inside, grid_values[np.where(inside, idx + step * stride, idx)], own)
            rise = other - own
            none_lower &= rise >= -tol
            some_higher |= rise > tol
        stride *= shape[axis]
    return none_lower & some_higher


# points per tape walk: (sample point, index point) pairs of the Lipschitz
# estimate, midpoints of a bisection tree
_LIPSCHITZ_CHUNK = 1 << 13


def _refine_axis_all(h, x, tpoints, axis, lo, hi, depth):
    """Halve each [lo_i, hi_i] ``depth`` times toward smaller h-values, one
    axis, all seeds at once: (the midpoints of the final intervals, h there).

    A level keeps the half [lo, mid] or [mid, hi] (mid = 0.5 (lo + hi))
    whose midpoint, a quarter point, has the smaller h, the left one on a
    tie.  Those quarter points are exactly the midpoints of the next
    level's two intervals, so k levels are one tree of intervals built with
    the same float operations, and one ``evaluate_many`` walk over its
    2 (2^k - 1) midpoints per seed decides them all, bit for bit as level
    by level.  k is the most levels whose tree keeps a walk within
    ``_LIPSCHITZ_CHUNK`` points: one walk per axis for a few seeds, one per
    level for thousands.  The bisection stops early once k levels leave
    every interval bytewise unchanged, since each later level repeats them.

    The tree holds points the bisection never visits.  If a block's walk
    raises, the block is redone one level per walk, the left quarter points
    first, so an error is the one the level-by-level bisection raises: the
    first bad left point's, else the first bad right point's.
    """
    # the most levels k with n (2^(k+1) - 2) <= _LIPSCHITZ_CHUNK, at least 1
    per_walk = max(1, (_LIPSCHITZ_CHUNK // len(tpoints) + 2).bit_length() - 2)
    mid = value = None
    while depth > 0:
        levels = min(per_walk, depth)
        try:
            block = _bisection_tree(h, x, tpoints, axis, lo, hi, levels)
        except ExprError:
            if levels == 1:
                raise
            block = lo, hi
            for _ in range(levels):
                block = _bisection_tree(h, x, tpoints, axis, *block[:2], 1)
        depth -= levels
        stationary = block[0].tobytes() == lo.tobytes() and block[1].tobytes() == hi.tobytes()
        lo, hi, mid, value = block
        if stationary:
            break
    if mid is None:  # no level
        mid = 0.5 * (lo + hi)
        value = evaluate_many(h, x, _with_axis(tpoints, axis, mid[None]))
    return mid, value


def _bisection_tree(h, x, tpoints, axis, lo, hi, levels):
    """``levels`` bisection levels from [lo, hi] in one walk: (lo, hi, mid, h at mid) per seed.

    Node i of level j (2^j nodes, (2^j, n) arrays) has the children i and
    i + 2^j; the walk visits the midpoints of levels 1 to ``levels``, level
    by level, node-major.
    """
    cols = np.arange(len(tpoints))
    low, high = lo[None], hi[None]
    mid, mids = 0.5 * (low + high), []
    for _ in range(levels):
        low, high = np.concatenate([low, mid]), np.concatenate([mid, high])
        mid = 0.5 * (low + high)
        mids.append(mid)
    values = evaluate_many(h, x, _with_axis(tpoints, axis, np.concatenate(mids)))
    node, start = np.zeros(len(cols), dtype=int), 0
    for j, level in enumerate(mids):
        at = values[start : start + level.size].reshape(level.shape)
        start += level.size
        left, right = at[node, cols], at[node + (1 << j), cols]
        node = np.where(left <= right, node, node + (1 << j))
    return low[node, cols], high[node, cols], mid[node, cols], at[node, cols]


def _with_axis(tpoints, axis, column):
    """``tpoints`` repeated once per row of ``column`` (r, n), with its values on ``axis``."""
    t = np.tile(tpoints, (len(column), 1))
    t[:, axis] = column.reshape(-1)
    return t


class FamilyScan:
    """One pass over the family at x, reusable for every ladder rung.

    Values, gradients and box-refinement outputs do not depend on eps,
    only the near-active filter does, so the scan computes them once for
    all members with value <= eps_cap and :meth:`at` filters.  The seeds
    are chosen at ``eps_cap`` and :meth:`at` keeps the candidates whose own
    value is <= eps, so filtering at eps <= eps_cap keeps the grid rows of
    a direct scan at eps, and the twins whose own value is <= eps: also
    those whose seed's grid value is above eps, which a direct scan at eps
    would not have refined.  The ``values`` passed in are those of
    :func:`evaluate_family` at a feasible x.

    Parametric families bisect only the near-active grid points that are discrete
    local minima of the clamped grid values (:meth:`ParametricFamily.refine`,
    which tallies them as ``refined_seeds``); the rule reads no eps.

    The candidates are one table of parallel arrays ``values`` (clamped,
    what :meth:`at` filters) and ``grads`` (n, p), indexed by
    ``candidates``: the near-active family ``rows`` (ascending), then the
    refined twins at ``points``, seed order.
    """

    def __init__(self, prob: Problem, x, values, eps_cap: float, opts: Options = Options()):
        self.eps_cap = eps_cap
        self.family = prob.x_family or _Family()  # no family: no candidates
        near = _clamp(values, opts.tol_feas)
        self.rows = np.flatnonzero((near >= 0.0) & (near <= eps_cap))
        grads = self.family.gradients(x, self.rows, opts.tol_kink)
        twin_values, self.points, twin_grads = self.family.refine(x, self.rows, near, eps_cap, opts)
        self.values = np.concatenate([near[self.rows], twin_values])
        self.grads = np.vstack([grads, twin_grads])
        self.candidates = np.arange(self.values.size)

    def at(self, eps: float) -> ActiveSet:
        if eps > self.eps_cap:
            raise ValueError("eps exceeds the scanned cap")
        return ActiveSet(self.candidates[self.values <= eps], self)

    def labels(self, idx) -> list:
        """(tag, index point or None) of the candidates ``idx`` (ascending)."""
        idx = np.asarray(idx, dtype=int)
        n = self.rows.size
        listed = self.family.labels(self.rows[idx[idx < n]])
        return listed + _point_labels(self.points[idx[idx >= n] - n])


def equi_lipschitz_estimate(
    prob: Problem, x, radius: float, samples: int, seed: int | None = None
) -> float:
    """Monte-Carlo lower bound on the equi-Lipschitz modulus near x.

    The max runs over difference quotients |phi(u) - phi(v)| / |u - v| for
    all family members; the first pairs are the 2p axis pairs through x
    (which realize the modulus exactly for linear members), then seeded
    random pairs inside B(x, radius).  Monotone nondecreasing in
    ``samples`` for a fixed seed.

    The generator is called in one fixed order: per random point one
    ``standard_normal(p)`` (its direction) then one ``random()`` (its
    radius), u before v.  A pair with |u - v| <= 1e-12 radius is skipped,
    and only the shortfall is drawn again, so the accepted pairs are those
    of a loop that draws pair by pair.  The threshold scales with the
    radius, since every |u - v| is at most 2 radius: a fixed one would skip
    every pair of a small enough ball, and the draws would never end.  An
    axis pair is skipped by the same rule, so no 0/0 quotient is formed.
    When every axis pair is skipped, no pair of the ball could be kept
    either: the radius is below the float spacing at x (every x +- radius
    e_i rounds to x, and so does every point of the ball), or so small
    that every |u - v|^2 underflows to 0.  That is an :class:`OptionError`
    at ``lipschitz_radius``, raised before any draw.  Norms are 1-D
    (``_pair_distances``), and points are scaled and shifted as arrays.

    The sample points, ordered u_1, v_1, u_2, v_2, ..., go through the
    index grid in chunks of whole pairs, about ``_LIPSCHITZ_CHUNK`` (x, t)
    points each: a parametric family's grid part is one tape walk per
    chunk, over the product of the chunk's points and the grid's axes, and
    each chunk is reduced to its quotients before the next starts.  A pair
    whose grid alone fills a chunk walks one sample point at a time.  If a
    chunk's walk flags a point, the chunk is redone one sample point at a
    time, so the error raised is that of the first bad point in that order.
    The walks of a family with a grid are tallied as ``lipschitz_walks``
    (:mod:`sipcert.work`).
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    family = prob.x_family
    if family is None:
        return 0.0
    x = np.asarray(x, dtype=float)
    p = x.size
    rng = np.random.default_rng(resolve_seed() if seed is None else seed)
    ends, dists = [], []

    def keep(points):  # the pairs u_1, v_1, u_2, ... of points that are kept; their number
        dist = _pair_distances(points)
        kept = dist > 1e-12 * radius
        ends.append(points.reshape(-1, 2, p)[kept].reshape(-1, p))
        dists.append(dist[kept])
        return int(kept.sum())

    axis = np.diag(np.full(p, float(radius)))
    if not keep(np.stack([x + axis, x - axis], axis=1).reshape(2 * p, p)):
        raise OptionError(
            "lipschitz_radius",
            f"{radius!r} is too small to sample at the candidate:"
            " every axis pair x +- r e_i is within 1e-12 r in floating point",
        )
    shortfall = max(samples, 0)
    while shortfall:
        shortfall -= keep(_ball_points(rng, x, radius, 2 * shortfall))
    ends, dists = np.vstack(ends), np.concatenate(dists)

    best = 0.0
    grid = 1 if family.pure_finite else math.prod(family.index.shape())  # points per sample point
    per_walk = max(1, _LIPSCHITZ_CHUNK // grid)
    step = max(1, per_walk // 2)  # pairs per chunk
    for start in range(0, dists.size, step):
        pairs, chunk = slice(start, start + step), slice(2 * start, 2 * (start + step))  # u_k, v_k
        best = max(best, _chunk_quotient(family, ends[chunk], dists[pairs], per_walk > 1))
    return best


def _chunk_quotient(family, xs, dists, batched):
    """The largest difference quotient over a chunk of pairs (rows u_1, v_1, u_2, ...
    of xs, |u_k - v_k| in dists).

    The chunk's values are freed on return, before the next chunk is walked.
    """
    try:
        values = family._values_many(xs) if batched else None
    except ExprError:  # redone one point at a time: the first bad point raises
        values = None
    if not family.pure_finite:  # one grid walk, and one per point when redone
        count("lipschitz_walks", int(batched) + (len(xs) if values is None else 0))
    if values is None:
        values = np.array([family.values(w) for w in xs])
    return float((np.abs(values[0::2] - values[1::2]).max(axis=1) / dists).max())


def _ball_points(rng, center, radius, n):
    """n seeded points of B(center, radius), each drawn as its direction then its radius."""
    p = center.size
    normal, uniform = rng.standard_normal, rng.random
    directions, scales = [], []
    for _ in range(n):
        directions.append(normal(p))
        scales.append(radius * uniform() ** (1.0 / p))
    norms = [math.sqrt(d.dot(d)) for d in directions]
    return center + np.array(scales)[:, None] * (np.array(directions) / np.array(norms)[:, None])


def _pair_distances(ends):
    """|u_k - v_k| for the rows u_1, v_1, u_2, ... of ends, each as the 1-D ``sqrt(w @ w)``:
    ``np.linalg.norm(w)`` bit for bit, where a row-wise norm can differ in the last bit."""
    return np.array([math.sqrt(w.dot(w)) for w in ends[0::2] - ends[1::2]])


@dataclass(frozen=True)
class AdmissibleReport:
    zero_in_full_hull: bool
    hull_gap: float  # LP mismatch when testing 0 against the full-gradient hull
    admissible_style: bool
    lipschitz_estimate: float
    determination: tuple = ()  # polyhedral: (normalized normal, inf over A, stated offset)
    assumptions: tuple = ()


def admissible_diagnostics(prob: Problem, x, opts: Options = Options()) -> AdmissibleReport:
    """Numerical admissibility checks at a feasible x.

    (a) whether 0 lies in the hull of *all* family gradients (the
    difference between weak-admissible and admissible); (b) the
    equi-Lipschitz estimate; (c) for polyhedral families, the closed-set
    determination by normalized supporting functionals, with each stated
    offset compared against the infimum over the set.  (a) and (b) read the
    family over x (``x_family``); (c) reads the set A itself, in the image
    coordinates of the inner map when there is one (``family``).
    """
    values, report = evaluate_family(prob, x, opts.tol_feas)
    if not report.feasible:
        raise InfeasibleError(report)
    assumptions = (
        "equi-lower-semicontinuity of the inactive members is assumed, not verified",
        "equi-differentiability is exact for the closed expression grammar",
    )
    family = prob.x_family
    if family is None:
        return AdmissibleReport(False, float("inf"), False, 0.0, (), assumptions)
    grads = family.gradients(x, np.arange(values.size), opts.tol_kink)
    membership = hull_member(np.zeros(prob.p), grads, opts.tol)
    lipschitz = equi_lipschitz_estimate(prob, x, opts.lipschitz_radius, opts.lipschitz_samples)
    return AdmissibleReport(
        zero_in_full_hull=membership.member,
        hull_gap=membership.distance,
        admissible_style=not membership.member,
        lipschitz_estimate=lipschitz,
        determination=prob.family.determination(opts.tol_lp),
        assumptions=assumptions,
    )
