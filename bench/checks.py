"""Output checks computed apart from sipcert.

Every check recomputes what it needs from the instance's numpy model
(``instances.py``) or, for the admissible diagnostics, from
``scipy.optimize.linprog``.  No check compares against a stored sipcert
report.  A failed check raises :class:`CheckError`.
"""

from __future__ import annotations

import numpy as np

from instances import EXIT_CODES, Instance

TOL = 1e-7  # multipliers and residuals
ACTIVE_TOL = 1e-8  # a support point must have |h(x, t)| below this
SIMPLEX_TOL = 1e-9


class CheckError(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckError(message)


def _close(a, b, what, tol=TOL):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    _require(a.shape == b.shape, f"{what}: shape {a.shape} != {b.shape}")
    scale = 1.0 + float(np.abs(b).max(initial=0.0))
    err = float(np.abs(a - b).max(initial=0.0))
    _require(err <= tol * scale, f"{what}: off by {err:.3g}")


def check(inst: Instance, code: int, report: dict):
    """Raise CheckError unless ``report`` is a correct answer for ``inst``."""
    if inst.command == "admissible":
        _check_admissible(inst, code, report)
        return
    verdict = report.get("verdict")
    _require(verdict == inst.verdict, f"verdict {verdict}, expected {inst.verdict}")
    _require(code == EXIT_CODES[verdict], f"exit code {code} for {verdict}")
    for key in ("certificate", "inequality_certificate"):
        if key in report and report[key]["kind"] in ("kkt", "fj"):
            _check_simplex(report[key])
    if inst.grad_f is None:  # bundled fixture: the verdict is what is documented
        return
    if inst.eq_jac is not None:
        _check_equality(inst, report)
        return
    cert = report["certificate"]
    _check_lambda(inst, cert["lambda"], cert["kind"], "lambda")
    gens = [_generator(inst, c["tag"], c["t"]) for c in cert["coefficients"]]
    weights = np.array([c["weight"] for c in cert["coefficients"]])
    x_star = weights @ np.array(gens) if gens else np.zeros_like(inst.grad_f)
    if inst.inner_jac is not None:  # composed: y* is the image-space multiplier
        _close(report["certificate"]["y_star"], x_star, "y_star")
        x_star = inst.inner_jac.T @ x_star
    _close(cert["lambda"] * inst.grad_f + cert["beta"] * x_star, np.zeros_like(x_star),
           "certificate residual", TOL * (1.0 + np.abs(inst.grad_f).max()))
    if inst.family is not None:
        _check_sip_multipliers(inst, report["sip_multipliers"])


def _check_simplex(cert):
    lam, beta = cert["lambda"], cert["beta"]
    _require(lam >= 0.0 and beta >= 0.0, f"negative (lambda, beta) = ({lam}, {beta})")
    _require(abs(lam + beta - 1.0) <= SIMPLEX_TOL, "lambda + beta != 1")
    weights = [c["weight"] for c in cert["coefficients"]]
    _require(all(w >= 0.0 for w in weights), "negative hull coefficient")
    if beta > 0.0:
        _require(abs(sum(weights) - 1.0) <= SIMPLEX_TOL, f"hull coefficients sum to {sum(weights)}")


def _check_lambda(inst, lam, kind, what):
    if inst.fj:
        _require(kind == "fj", f"{what}: kind {kind}, expected fj")
        bound = 1.0 / (1.0 + float(np.linalg.norm(inst.grad_f)))
        _require(-SIMPLEX_TOL <= lam <= bound + TOL, f"{what} = {lam} outside [0, {bound}]")
    else:
        _require(kind == "kkt", f"{what}: kind {kind}, expected kkt")
        _close(lam, inst.lam, what)


def _generator(inst, tag, t):
    """The benchmark's own gradient for a reported support member; it must be active."""
    if t is None:
        _require(tag in inst.active, f"support member {tag} is not active")
        return inst.members[tag][1]
    fam = inst.family
    t = np.asarray(t, dtype=float)
    _require(np.all(t >= fam.lower - 1e-12) and np.all(t <= fam.upper + 1e-12),
             f"support point {t.tolist()} outside the index box")
    value = fam.value(inst.x, t)
    _require(abs(value) <= ACTIVE_TOL, f"support point {t.tolist()} not active: h = {value:.3g}")
    return fam.grad(inst.x, t)


def _check_sip_multipliers(inst, sm):
    lam0 = sm["lambda0"]
    _check_lambda(inst, lam0, "fj" if inst.fj else "kkt", "lambda0")
    weights = np.array([e["weight"] for e in sm["entries"]])
    _require(np.all(weights >= 0.0), "negative semi-infinite multiplier")
    _close(weights.sum(), 1.0 - lam0, "semi-infinite multipliers sum", SIMPLEX_TOL)
    # Caratheodory: p + 1 atoms in all, so at most p index points once lambda0 > 0
    most = len(inst.x) + (0 if lam0 > 0.0 else 1)
    _require(sm["k"] == len(weights) <= most, f"support of {sm['k']} index points")
    acc = lam0 * inst.grad_f
    for entry, w in zip(sm["entries"], weights):
        acc = acc + w * _generator(inst, entry["tag"], entry["t"])
    _close(acc, np.zeros_like(acc), "semi-infinite residual", TOL * (1.0 + np.abs(inst.grad_f).max()))


def _check_equality(inst, report):
    lam0 = report["lambda0"]
    w_star = np.array(report["w_star"])
    jac = inst.eq_jac
    if "inequality_certificate" not in report:
        _require(report["branch"] == "onto_no_a", f"branch {report['branch']}")
        _close(lam0, 1.0, "lambda0")
        _close(w_star, inst.w_star, "w_star")
        z_star = np.zeros_like(inst.grad_f)
    else:
        _require(report["branch"] == "onto_with_a", f"branch {report['branch']}")
        _close(lam0, inst.lam, "lambda0")
        z_star = np.array(report["z_star"])
        _close(z_star, inst.z_star, "z_star")
        _close(w_star, inst.w_star, "w_star")
        for c in report["inequality_certificate"]["coefficients"]:
            _generator(inst, c["tag"], c["t"])
    _close(lam0 * inst.grad_f + z_star + jac.T @ w_star, np.zeros_like(inst.grad_f),
           "equality residual", TOL * (1.0 + np.abs(inst.grad_f).max()))


# ---------------------------------------------------------------------------
# admissible diagnostics against scipy


def _all_gradients(inst):
    if inst.family is not None:
        return np.array([inst.family.grad(inst.x, t) for t in inst.family.points()])
    return np.array([g for _, g in inst.members.values()])


def admissible_reference(inst: Instance) -> dict:
    """scipy references for one admissible instance, computed once per run."""
    from scipy.optimize import linprog

    grads = _all_gradients(inst)
    n, p = grads.shape
    # min s  s.t.  |G^T a| <= s, a in the simplex: the hull's distance from 0
    a_ub = np.block([[grads.T, -np.ones((p, 1))], [-grads.T, -np.ones((p, 1))]])
    res = linprog(np.r_[np.zeros(n), 1.0], A_ub=a_ub, b_ub=np.zeros(2 * p),
                  A_eq=np.r_[np.ones(n), 0.0][None, :], b_eq=[1.0], bounds=(0, None))
    _require(res.status == 0, f"reference hull LP: {res.message}")
    ref = {"hull_gap": float(res.fun),
           # axis-pair difference quotients of linear members are the gradient entries
           "lipschitz_lower": float(np.abs(grads).max()),
           "lipschitz_upper": float(np.linalg.norm(grads, axis=1).max())}
    if inst.polyhedron is not None:
        normals, offsets = inst.polyhedron
        scale = np.linalg.norm(normals, axis=1)
        unit = normals / scale[:, None]
        infima = []
        for a in unit:
            res = linprog(a, A_ub=-normals, b_ub=-offsets, bounds=(None, None))
            _require(res.status == 0, f"reference support LP: {res.message}")
            infima.append(float(res.fun))
        ref["infima"], ref["unit"], ref["offsets"] = np.array(infima), unit, offsets / scale
        if np.all(offsets == 0.0):
            # max delta  s.t.  unit @ e >= delta, |e|_inf <= 1
            res = linprog(np.r_[-1.0, np.zeros(p)],
                          A_ub=np.hstack([np.ones((len(unit), 1)), -unit]),
                          b_ub=np.zeros(len(unit)), bounds=[(None, None)] + [(-1, 1)] * p)
            _require(res.status == 0, f"reference cone LP: {res.message}")
            ref["margin"] = float(-res.fun)
    return ref


def _check_admissible(inst, code, report):
    ref = inst.reference
    _require(code == 0 and report["exit_code"] == 0, f"exit code {code}")
    zero_in = ref["hull_gap"] <= 1e-8
    _require(report["zero_in_full_hull"] == zero_in,
             f"zero_in_full_hull {report['zero_in_full_hull']}, reference gap {ref['hull_gap']:.3g}")
    _require(report["admissible_style"] == (not zero_in), "admissible_style")
    _close(report["hull_gap"], ref["hull_gap"], "hull_gap")
    est = report["lipschitz_estimate"]
    _require(ref["lipschitz_lower"] - 1e-9 <= est <= ref["lipschitz_upper"] + 1e-9,
             f"lipschitz {est} outside [{ref['lipschitz_lower']}, {ref['lipschitz_upper']}]")
    if "infima" not in ref:
        return
    det = report["determination"]
    _require(len(det) == len(ref["infima"]), "one determination row per facet")
    _close([d["normal"] for d in det], ref["unit"], "determination normals")
    _close([d["stated_offset"] for d in det], ref["offsets"], "stated offsets")
    _close([d["infimum"] for d in det], ref["infima"], "support infima")
    if "margin" in ref:
        cone = report["cone"]
        _require(cone["interior_nonempty"] == (ref["margin"] > 1e-9),
                 f"cone interior {cone['interior_nonempty']}, reference margin {ref['margin']:.3g}")
        _close(cone["margin"], ref["margin"], "cone margin")
