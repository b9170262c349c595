"""Reduction of composed (g(x) in A) and equality (h(x) = 0) constraints.

Composed constraints become composites on one tape: :class:`Problem`
substitutes the inner map into the family once (``Problem.x_family``),
each inner component interned once and read by every member that uses it,
so the chained gradients are exact dual-number gradients of the composite
expressions.  The equality rows and the inner map are each one tape too,
read in one walk: their values, their Jacobian.  Equality constraints are
reduced by
certifying in the kernel coordinates of the equality Jacobian: the
finite-dimensional splitting R^p = Ker(J_h) + span(pivot columns) makes the
implicit-function step of the full reduction unnecessary at first order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .expr import ExprList, evaluate_list, gradient, gradient_list
from .geometry import Polyhedron, polyhedron_minimize, recession_cone
from .model import Problem
from .multipliers import Certificate, TCApprox, certify_fj, certify_ladder, tc_approx
from .options import Options

__all__ = [
    "Jacobian",
    "FullCertificate",
    "ConvexSetCheck",
    "compose_family",
    "certify_composed",
    "certify_equality",
    "convex_set_multiplier",
    "compute_jacobian",
]


@dataclass(frozen=True)
class Jacobian:
    """Numerical Jacobian with rank decided by pivoted elimination.

    ``pivots`` records the pivot magnitudes so near-rank-deficiency stays
    visible; ``kernel_basis`` rows are orthonormal and annihilated by the
    matrix within ``tol_rank``; ``left_null`` is a unit vector with
    left_null @ matrix ~ 0, present exactly when the rank is deficient.
    """

    matrix: np.ndarray  # (w, p)
    rank: int
    pivots: tuple  # pivot magnitudes from the elimination
    kernel_basis: np.ndarray  # (d, p), orthonormal rows
    tol_rank: float
    left_null: np.ndarray | None = None


# a pivot at most this factor of the largest Jacobian entry counts as zero
_TOL_RANK_FACTOR = 1e-10


def compute_jacobian(exprs, x, kink_tol: float = 1e-12) -> Jacobian:
    """The Jacobian at x of ``exprs`` (ExprFns, or an ExprList), its rows from one dual walk."""
    x = np.asarray(x, dtype=float)
    p = x.size
    matrix = gradient_list(ExprList.of(exprs), x, kink_tol=kink_tol).reshape(-1, p)
    w = matrix.shape[0]
    max_norm = float(np.abs(matrix).max(initial=0.0))
    tol_rank = _TOL_RANK_FACTOR * max_norm if max_norm > 0 else _TOL_RANK_FACTOR

    # complete-pivot elimination for the rank decision
    work = matrix.copy()
    row_free = list(range(w))
    col_free = list(range(p))
    pivots = []
    while row_free and col_free:
        sub = np.abs(work[np.ix_(row_free, col_free)])
        i, j = np.unravel_index(int(sub.argmax()), sub.shape)
        magnitude = float(sub[i, j])
        if magnitude <= tol_rank:
            break
        r, c = row_free[i], col_free[j]
        pivots.append(magnitude)
        for rr in row_free:
            if rr != r:
                work[rr] -= work[rr, c] / work[r, c] * work[r]
        row_free.remove(r)
        col_free.remove(c)
    rank = len(pivots)

    # kernel and (if deficient) a left null vector from the SVD, with a
    # deterministic sign convention
    d = p - rank
    kernel = np.zeros((0, p))
    left_null = None
    if w:
        u, _, vt = np.linalg.svd(matrix)
        if d:
            kernel = np.array([_fix_sign(v) for v in vt[p - d :]])
        if rank < w:
            left_null = _fix_sign(u[:, w - 1])
    else:
        kernel = np.eye(p)
    return Jacobian(matrix, rank, tuple(pivots), kernel, tol_rank, left_null)


def _fix_sign(v):
    v = np.asarray(v, dtype=float)
    nz = np.flatnonzero(np.abs(v) > 1e-14)
    if nz.size and v[nz[0]] < 0:
        return -v
    return v


def compose_family(prob: Problem) -> Problem:
    """Equivalent problem without an inner map: its family is ``prob.x_family``.

    No command calls it: every computation reads ``x_family``, whose
    members are the composites, so every gradient is the exact chained
    gradient J_g(x)^T grad phi(g(x)).
    """
    if prob.inner_map is None:
        raise ValueError("compose_family requires an inner map")
    return Problem(prob.p, prob.objective, prob.x_family, None, prob.equality)


def _recover_y_star(prob: Problem, x, cert: Certificate):
    """Convex combination of the pre-chain gradients with the certificate weights.

    Each gradient is the member's own gradient at the image point g(x).
    """
    if prob.inner_map is not None:
        image = evaluate_list(prob.inner_map, x)
    else:
        image = np.asarray(x, dtype=float)
    y = np.zeros(image.size)
    for tag, param, weight in cert.coeffs:
        y = y + weight * prob.family.entry_gradient(image, tag, param)
    return y


def certify_composed(prob: Problem, x, opts: Options = Options()) -> Certificate:
    """Fritz John certificate for max f s.t. g(x) in A, with the y* witness.

    Runs the core certification, which reads the composed family
    ``prob.x_family``, and recovers y* in the image space as the convex
    combination of the pre-chain gradients with the certificate
    coefficients, so x* = J_g^T y*.
    """
    cert = certify_fj(prob, x, opts)
    if cert.found and cert.coeffs:
        return replace(cert, y_star=_recover_y_star(prob, x, cert))
    return cert


@dataclass(frozen=True)
class FullCertificate:
    """Multipliers (lambda0, z0*, w0*) for the joint inequality/equality problem.

    The residual is |lambda0 grad f + J_g^T z0* + J_h^T w0*| in the max norm,
    recomputable from the stored fields.  ``tc`` is the ladder every branch
    builds, before the Jacobian.
    """

    found: bool
    branch: str  # 'not_onto' | 'onto_no_a' | 'onto_with_a'
    lambda0: float
    z_star: np.ndarray | None
    w_star: np.ndarray | None
    residual: float
    jacobian: Jacobian
    tc: TCApprox
    inner: Certificate | None = None
    diagnostics: dict = field(default_factory=dict)


def certify_equality(prob: Problem, x, opts: Options = Options()) -> FullCertificate:
    """Lagrange-type certificate with equality constraints h(x) = 0.

    Checks x as every certification does, by the ladder (:func:`tc_approx`)
    over ``prob.x_family`` and the equality rows, before the Jacobian.
    Then branches on the equality Jacobian: rank-deficient Jacobians yield
    the degenerate certificate (0, 0, left-null); full-rank ones certify the
    ladder restricted to the kernel coordinates (only x's feasibility when
    the kernel is {0}), then lift the equality multiplier by least squares.
    """
    x = np.asarray(x, dtype=float)
    tc = tc_approx(prob, x, opts)
    jac = compute_jacobian(prob.equality or (), x, kink_tol=opts.tol_kink)
    w = jac.matrix.shape[0]

    if jac.rank < w:
        residual = float(np.abs(jac.matrix.T @ jac.left_null).max(initial=0.0))
        return FullCertificate(True, "not_onto", 0.0, None, jac.left_null, residual, jac, tc)

    grad_f = gradient(prob.objective, x, kink_tol=opts.tol_kink)
    kernel = jac.kernel_basis  # (d, p) orthonormal rows

    if prob.family is None or not kernel.size:
        # no inequality, or Ker J_h = {0} leaves the inequalities no direction:
        # as x obeys them, (lambda0, z*) = (1, 0) and w* lifts -grad f
        projected = kernel.T @ (kernel @ grad_f) if kernel.size else np.zeros_like(grad_f)
        pnorm = float(np.abs(projected).max(initial=0.0))
        if pnorm > opts.tol:
            return FullCertificate(
                False, "onto_no_a", 0.0, None, None, pnorm, jac, tc,
                diagnostics={"reason": "objective gradient has a kernel component",
                             "projected_gradient": projected},
            )
        w_star = _lift_w_star(jac, -grad_f) if w else np.zeros(0)
        residual = float(np.abs(grad_f + jac.matrix.T @ w_star).max(initial=0.0))
        if prob.family is None:
            return FullCertificate(True, "onto_no_a", 1.0, None, w_star, residual, jac, tc)
        return FullCertificate(True, "onto_with_a", 1.0, np.zeros(prob.q), w_star, residual, jac, tc)

    restricted = replace(tc, final=tc.final @ kernel.T)
    inner_cert = certify_ladder(restricted, kernel @ grad_f, opts)
    if not inner_cert.found:
        return FullCertificate(
            False, "onto_with_a", 0.0, None, None, float("inf"), jac, tc, inner_cert,
            diagnostics={"reason": "kernel-restricted certification failed"},
        )
    if inner_cert.kind == "unconstrained" or not inner_cert.coeffs:
        z_star = np.zeros(prob.q)
        lam0 = 1.0
    else:
        z_star = inner_cert.beta * _recover_y_star(prob, x, inner_cert)
        lam0 = inner_cert.lam
    jac_g = _inner_jacobian(prob, x, opts)
    pulled = jac_g.T @ z_star
    rhs = -(lam0 * grad_f + pulled)
    w_star = _lift_w_star(jac, rhs) if w else np.zeros(0)
    residual = float(np.abs(lam0 * grad_f + pulled + jac.matrix.T @ w_star).max(initial=0.0))
    return FullCertificate(
        True, "onto_with_a", lam0, z_star, w_star, residual, jac, tc, inner_cert
    )


def _inner_jacobian(prob: Problem, x, opts) -> np.ndarray:
    if prob.inner_map is None:
        return np.eye(prob.p)
    return gradient_list(prob.inner_map, x, kink_tol=opts.tol_kink)


def _lift_w_star(jac: Jacobian, rhs) -> np.ndarray:
    solution, *_ = np.linalg.lstsq(jac.matrix.T, rhs, rcond=None)
    return solution


@dataclass(frozen=True)
class ConvexSetCheck:
    passed: bool
    in_dual_of_recession: bool
    attains_minimum: bool
    minimum: float
    value_at_image: float
    unbounded_ray: np.ndarray | None = None


def convex_set_multiplier(A: Polyhedron, x_img, z_star, tol: float = 1e-8) -> ConvexSetCheck:
    """Check the convex-set multiplier clause for z* at the image point.

    (a) z* lies in the dual cone of the recession cone of A, tested by
    minimizing z* over the recession directions in the unit box; (b) z*
    attains its minimum over A at the image point.  An unbounded
    minimization certifies failure with a recession ray.
    """
    z = np.asarray(z_star, dtype=float)
    x_img = np.asarray(x_img, dtype=float)
    rec = recession_cone(A)
    # min z@v over {v in R_A, |v|_inf <= 1}: nonnegative iff z in (R_A)*
    box = Polyhedron(
        np.vstack([rec.normals, np.eye(A.dim), -np.eye(A.dim)]),
        np.concatenate([rec.offsets, -np.ones(A.dim), -np.ones(A.dim)]),
    )
    probe = polyhedron_minimize(box, z)
    in_dual = probe.status == "optimal" and probe.objective >= -tol

    result = polyhedron_minimize(A, z)
    if result.status == "unbounded":
        return ConvexSetCheck(False, in_dual, False, -np.inf, float(z @ x_img), result.ray)
    if result.status == "infeasible":
        raise ValueError("the polyhedron is empty")
    value = float(z @ x_img)
    attains = abs(value - result.objective) <= tol * (1.0 + abs(result.objective))
    return ConvexSetCheck(in_dual and attains, in_dual, attains, result.objective, value)
