"""Near-active multiplier set construction and Fritz John / KKT certification.

The multiplier set is approximated by a geometrically shrinking ladder of
near-active hulls: at each rung eps_k = eps0 * shrink^k the hull of the
gradients of constraints with value in [0, eps_k] is built, and the ladder
stops once the hull stops moving (two consecutive one-sided Hausdorff gaps
below ``tol_hull``).  Families known in full (finite, polyhedral) instead
run until every surviving member is exactly active, at which point the
multiplier set equals the hull of the strictly active gradients.

A certificate is then the membership 0 in [grad f(x), T_C(x)], decided by
one LP; the segment parameter gives the Fritz John pair (lambda, beta)
normalized to lambda + beta = 1, and the pair upgrades to KKT whenever 0
lies outside the final hull.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .expr import gradient
from .geometry import (
    caratheodory_reduce,
    farthest_row_distance,
    first_equal_rows,
    hull_member,
    segment_hull_member,
)
from .model import FamilyScan, InfeasibleError, Problem, evaluate_family
from .options import Options
from .work import count

__all__ = [
    "TCApprox", "Certificate", "SipMultipliers", "tc_approx", "certify_fj", "certify_ladder",
    "sip_multipliers",
]


@dataclass(frozen=True)
class TCApprox:
    """Ladder of near-active hulls approximating the multiplier set."""

    ladder: tuple  # ((eps, ActiveSet), ...)
    final: np.ndarray  # (n, p): the final hull's generators
    hausdorff_gaps: tuple
    inf_value: float
    stopped_by: str  # 'interior'|'finite_shortcut'|'stabilized'|'empty'|'max_steps'
    # the scan candidate behind each final generator, ascending
    final_rows: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))

    @property
    def converged(self) -> bool:
        """The ladder reached its limit: interior, stabilized or the finite shortcut."""
        return self.stopped_by in ("interior", "stabilized", "finite_shortcut")

    @property
    def interior(self) -> bool:
        """The family infimum at x was strictly positive: empty multiplier set."""
        return self.stopped_by == "interior"

    def ladder_table(self):
        """(eps, generators, gap to the rung before or None) per rung."""
        gaps = (None, *self.hausdorff_gaps)
        return [(eps, len(aset.entries), gap) for (eps, aset), gap in zip(self.ladder, gaps)]

    def labels(self, idx=None) -> list:
        """(tag, index point or None) of the final generators ``idx`` (ascending; all by default)."""
        rows = self.final_rows if idx is None else self.final_rows[np.asarray(idx, dtype=int)]
        return self.ladder[-1][1].scan.labels(rows) if rows.size else []


@dataclass(frozen=True)
class Certificate:
    kind: str  # 'kkt' | 'fj' | 'unconstrained' | 'no_certificate'
    lam: float
    beta: float
    x_star: np.ndarray | None
    coeffs: tuple  # ((tag, param, weight), ...) over the final hull, support <= p+1
    residual: float
    zero_not_in_tc: bool | None
    grad_f: np.ndarray
    tc: TCApprox
    y_star: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)
    support: tuple = ()  # the final-hull index of each coefficient's generator

    @property
    def found(self) -> bool:
        return self.kind in ("kkt", "fj", "unconstrained")

    @property
    def approximate(self) -> bool:
        """The ladder did not converge, so the certificate is approximate."""
        return not self.tc.converged

    def kkt_weights(self):
        """Multipliers in the lambda = 1 normalization (valid for KKT only)."""
        if self.kind != "kkt" or self.lam <= 0.0:
            return None
        return tuple((tag, param, self.beta * w / self.lam) for tag, param, w in self.coeffs)


def _ladder_gap(grads, gates, ids, least, prev, eps) -> float:
    """Hausdorff gap between the rung ``prev`` and the next, ``prev[gates[prev] <= eps]``.

    Hulls genuinely stabilized means neither side drifted, so the gap is the
    larger one-sided gap.  The next rung is nested in ``prev``, which makes
    its side exactly 0.  The other needs only the dropped rows of an id
    (``ids = first_equal_rows(grads)``) that no kept or earlier dropped row
    has, tallied as ``gap_rows``: a row of id i is kept iff ``least[i]``, the
    smallest gate of id i, is at most eps.  A rung that drops no row equals
    ``prev``: its gap is 0 and nothing runs.
    """
    kept = gates[prev] <= eps
    if kept.all():
        return 0.0
    new, dropped = prev[kept], prev[~kept]
    dropped = _distinct(ids, dropped[least[ids[dropped]] > eps])
    count("gap_rows", dropped.size)
    return farthest_row_distance(grads[dropped], grads[new])


def _distinct(ids, rows):
    """The ``rows`` (ascending) that hold the first row of their id among ``rows``."""
    return rows[np.sort(np.unique(ids[rows], return_index=True)[1])]


def tc_approx(prob: Problem, x, opts: Options = Options()) -> TCApprox:
    """Build the near-active ladder and its stabilized final hull at x.

    Evaluates the family once: the feasibility report and the near-active
    scan read the same values.  Raises :class:`InfeasibleError` when x is
    infeasible.  When the family infimum at x is strictly positive the
    multiplier set is empty (interior point) and an empty final hull is
    returned with the interior indicator set.
    """
    values, report = evaluate_family(prob, x, opts.tol_feas)
    if not report.feasible:
        raise InfeasibleError(report)
    p, family = prob.p, prob.x_family
    if family is None or not report.boundary:
        return TCApprox((), np.zeros((0, p)), (), report.min_value, "interior")

    scan = FamilyScan(prob, x, values, opts.eps0, opts)
    ids = first_equal_rows(scan.grads)
    least = np.full(ids.size, np.inf)  # the smallest gate of each id
    np.minimum.at(least, ids, scan.gates)
    ladder, gaps = [], []
    stopped_by, eps, prev = "max_steps", opts.eps0, None
    for _ in range(opts.max_steps + 1):
        aset = scan.at(eps)
        if not aset.entries.size:
            stopped_by = "empty"
            break
        ladder.append((eps, aset))
        if prev is not None:  # one gap per rung after the first
            gaps.append(_ladder_gap(scan.grads, scan.gates, ids, least, prev.entries, eps))
            if not family.pure_finite and len(gaps) >= 2 and max(gaps[-2:]) <= opts.tol_hull:
                stopped_by = "stabilized"
                break
        if family.pure_finite and np.all(scan.values[aset.entries] <= opts.tol_feas):
            # the whole surviving family is exactly active: the limit hull
            # is the strictly-active hull, no further shrinking needed
            stopped_by = "finite_shortcut"
            break
        prev = aset
        eps *= opts.shrink
    rows = _distinct(ids, ladder[-1][1].entries) if ladder else np.zeros(0, dtype=int)
    return TCApprox(
        tuple(ladder), scan.grads[rows], tuple(gaps), report.min_value, stopped_by, rows
    )


def certify_fj(prob: Problem, x, opts: Options = Options()) -> Certificate:
    """First-order (Fritz John) certificate for max f over the family constraints.

    The ladder (:func:`tc_approx`), then the objective gradient, then
    :func:`certify_ladder`.  An infeasible x raises :class:`InfeasibleError`
    before the objective gradient is taken.
    """
    tc = tc_approx(prob, x, opts)
    return certify_ladder(tc, gradient(prob.objective, x, kink_tol=opts.tol_kink), opts)


def certify_ladder(tc: TCApprox, grad_f, opts: Options = Options()) -> Certificate:
    """The certificate 0 in [grad_f, T_C] over the ladder ``tc``, decided by one LP.

    The equality reduction passes a ladder whose final hull and ``grad_f``
    are both in the kernel coordinates of the equality Jacobian.
    """
    if tc.interior:
        gnorm = float(np.abs(grad_f).max(initial=0.0))
        if gnorm <= opts.tol:
            return Certificate("unconstrained", 1.0, 0.0, None, (), gnorm, None, grad_f, tc)
        return Certificate(
            "no_certificate", 0.0, 0.0, None, (), gnorm, None, grad_f, tc,
            diagnostics={"reason": "interior point with nonzero objective gradient"},
        )

    if len(tc.final) == 0:
        return Certificate(
            "no_certificate", 0.0, 0.0, None, (), float("inf"), None, grad_f, tc,
            diagnostics={"reason": "empty near-active hull"},
        )

    zero_not_in_tc = not hull_member(np.zeros(tc.final.shape[1]), tc.final, opts.tol).member

    if float(np.abs(grad_f).max(initial=0.0)) <= opts.tol:
        # boundary point with vanishing objective gradient: (lambda, beta) = (1, 0)
        # directly, skipping a degenerate segment LP
        x_star = tc.final[0]
        (tag, param), = tc.labels([0])
        kind = "kkt" if zero_not_in_tc else "fj"
        residual = float(np.abs(grad_f).max(initial=0.0))
        return Certificate(
            kind, 1.0, 0.0, x_star, ((tag, param, 1.0),),
            residual, zero_not_in_tc, grad_f, tc, support=(0,),
        )

    seg = segment_hull_member(np.zeros(tc.final.shape[1]), grad_f, tc.final, opts.tol)
    if not seg.member:
        return Certificate(
            "no_certificate", 0.0, 0.0, None, (), seg.distance, zero_not_in_tc,
            grad_f, tc, diagnostics={"reason": "0 outside [grad f, T_C]"},
        )
    lam, beta = seg.lam, 1.0 - seg.lam
    x_star = tc.final.T @ seg.coeffs if beta > 0 else tc.final[0]
    idx, reduced = caratheodory_reduce(x_star, tc.final, seg.coeffs, opts.tol_lp)
    coeffs = tuple(
        (tag, param, float(w)) for (tag, param), w in zip(tc.labels(idx), reduced)
    )
    x_star = tc.final[idx].T @ reduced if len(idx) else x_star
    residual = float(np.abs(lam * grad_f + beta * x_star).max())
    kind = "kkt" if zero_not_in_tc and lam > 0.0 else "fj"
    return Certificate(
        kind, float(lam), float(beta), x_star, coeffs, residual, zero_not_in_tc,
        grad_f, tc, support=tuple(int(i) for i in idx),
    )


@dataclass(frozen=True)
class SipMultipliers:
    """Certificate in the semi-infinite normal form.

    lambda0 * grad f(x) + sum_i lambda_i * grad_x h(x, t_i) = 0 with all
    lambda >= 0 summing to one and at most p index points, p + 1 when
    lambda0 = 0.
    """

    found: bool
    lambda0: float
    entries: tuple  # ((tag, param, lambda_i, generator), ...)
    residual: float
    lambda0_nonzero_guaranteed: bool

    @property
    def k(self) -> int:
        return len(self.entries)


def sip_multipliers(cert: Certificate, opts: Options = Options()) -> SipMultipliers:
    """Recast a Fritz John certificate of a parametric family as semi-infinite multipliers.

    ``cert`` comes from :func:`certify_fj` and must have a nonempty
    (near-)active set.  The support is reduced so that at most p index
    points carry weight, or p + 1 when lambda0 = 0 (Caratheodory over
    grad f and the support generators); an exact coincidence of the segment
    witness with a single generator is preferred, it realizes the smallest
    possible support.
    """
    if cert.tc.interior:
        raise ValueError("active set is empty: the candidate is interior")
    if not cert.found:
        return SipMultipliers(False, 0.0, (), float("inf"), False)
    if cert.beta <= 0.0:
        residual = float(np.abs(cert.grad_f).max(initial=0.0))
        return SipMultipliers(True, cert.lam, (), residual, bool(cert.zero_not_in_tc))

    hull = cert.tc.final
    target = cert.x_star
    # exact coincidence with one generator gives the minimal support directly
    mismatch = np.abs(hull - target).max(axis=1)
    hits = np.flatnonzero(mismatch <= opts.tol)
    if hits.size:
        i = int(hits[0])
        g = hull[i]
        # re-fit the pair on the snapped atom: lam0 grad_f + (1 - lam0) g = 0
        # in least squares, so snapping never inflates the residual
        diff = cert.grad_f - g
        denom = float(diff @ diff)
        lam0 = cert.lam if denom <= 0.0 else float(min(max(-(g @ diff) / denom, 0.0), 1.0))
        (tag, param), = cert.tc.labels([i])
        entries = ((tag, param, 1.0 - lam0, g),)
    else:
        # reduce the combined representation of 0 over {grad f} + support generators
        support = cert.coeffs
        atoms = np.vstack([cert.grad_f[None, :], hull[list(cert.support)]])
        weights = np.concatenate([[cert.lam], [cert.beta * w for _, _, w in support]])
        idx, reduced = caratheodory_reduce(
            np.zeros(hull.shape[1]), atoms, weights, opts.tol_lp
        )
        lam0 = 0.0
        entries = []
        for i, w in zip(idx, reduced):
            if i == 0:
                lam0 = float(w)
            else:
                tag, param, _ = support[i - 1]
                entries.append((tag, param, float(w), atoms[i]))
        entries = tuple(entries)
    residual = _sip_residual(lam0, cert.grad_f, entries)
    return SipMultipliers(True, lam0, entries, residual, bool(cert.zero_not_in_tc))


def _sip_residual(lam0, grad_f, entries):
    acc = lam0 * grad_f
    for _, _, w, gen in entries:
        acc = acc + w * gen
    return float(np.abs(acc).max(initial=0.0))
