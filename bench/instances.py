"""Seeded problem instances for the four benchmark workloads.

Every instance carries, next to the problem file handed to sipcert, the
benchmark's own numpy model of the problem: the objective gradient at the
candidate, each constraint's value and x-gradient, the intended active set
and, where it is unique, the closed-form multiplier.  The output checks in
``checks.py`` use only this model, never a stored sipcert report.

How the seed enters.  sipcert's LPs use Bland's rule, and the number of
pivots on a wide LP jumps by 2x when a coefficient moves by 3%.  Drawing
fresh coefficients per seed would therefore make the work, not the
program, differ from run to run.  So each workload's base problems come
from a fixed generator, and the seed draws, per instance, a symmetry meant
to leave the work unchanged (``bench/README.md`` gives the pivot counts):

* a signed permutation ``x -> S x`` of the decision coordinates.  Every
  x-gradient becomes ``S g``: each LP over gradients gets its rows
  permuted and no structural column moved;
* for the admissible polytopes and cones, whose LPs have the coordinates
  as columns, a shuffle of the facets with a positive scale on each;
* free parameters that no LP sees, such as the ladder objective's length.

Expressions are written so that their trees have the same shape whatever
the signs: a sign rides on a ``+``/``-`` operator, never on a unary minus.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("finite-mixed", "sip-dense", "sip-ladder", "admissible")
BASE_SEED = 2305  # the base problems, the same in every run

# bundled fixtures that are not semi-infinite, with their documented verdicts
FINITE_FIXTURES = {
    "near_active": "KKT",
    "strict_active": "NoCertificate",
    "eq_circle": "KKT",
    "eq_duplicated_rows": "EqualityDegenerate",
    "eq_orthant_line": "KKT",
    "composed_parabola": "KKT",
    "cone_orthant": "KKT",
    "cone_hyperplane": "FJ",
}
EXIT_CODES = {"KKT": 0, "FJ": 0, "EqualityDegenerate": 0, "NoCertificate": 2}

QUARTER = math.pi / 2  # ladder index boxes: a quarter circle, an octant of the sphere
ADMISSIBLE_GRID = 257


@dataclass
class Parametric:
    """numpy model of h(x, t) >= 0 over a box; ``grad`` is the x-gradient."""

    value: object  # (x, t) -> float
    grad: object  # (x, t) -> (p,) array
    lower: np.ndarray
    upper: np.ndarray
    grid: int

    def points(self):
        axes = [np.linspace(lo, hi, self.grid) for lo, hi in zip(self.lower, self.upper)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=1)


@dataclass
class Instance:
    name: str
    command: str  # 'certify' | 'admissible'
    path: str  # problem file handed to the CLI
    verdict: str | None  # expected verdict (certify only)
    x: np.ndarray  # candidate
    grad_f: np.ndarray | None = None
    lam: float | None = None  # closed-form lambda where it is unique
    fj: bool = False  # Fritz John family: lambda is not unique, only bounded
    family: Parametric | None = None
    members: dict = field(default_factory=dict)  # tag -> (value at x, gradient)
    active: frozenset = frozenset()  # tags of the exactly active direct members
    inner_jac: np.ndarray | None = None  # composed: J_g at x
    eq_jac: np.ndarray | None = None  # equality: J_h at x
    z_star: np.ndarray | None = None  # equality + polyhedral: lambda0 * sum mu_j a_j
    w_star: np.ndarray | None = None  # equality multiplier in the reported scaling
    grid: int | None = None  # --grid override
    polyhedron: tuple | None = None  # admissible: (normals, offsets) as written
    reference: dict = field(default_factory=dict)  # admissible: scipy references

    def argv(self):
        argv = [self.command, self.path, "--json"]
        if self.grid is not None:
            argv += ["--grid", str(self.grid)]
        return argv


# ---------------------------------------------------------------------------
# expression text with sign-independent tree shapes


def _signed(v) -> str:
    return f" - {abs(float(v))!r}" if v < 0 else f" + {float(v)!r}"


def _linear(coeffs, shift=None, const=0.0) -> str:
    """const + sum_i c_i (x_i - shift_i)."""
    text = "0" + _signed(const)
    for i, c in enumerate(coeffs):
        var = f"x{i + 1}" if shift is None else f"(x{i + 1}{_signed(-shift[i])})"
        text += f"{_signed(c)}*{var}"
    return text


def _square(coef, i, center) -> str:
    return f"{_signed(coef)}*(x{i + 1}{_signed(-center)})^2"


def _unit_rows(a):
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def _symmetry(sym, p):
    """Signed permutation S (S[new, old] = +-1) and the new index of each old coordinate."""
    new = sym.permutation(p)
    s = np.zeros((p, p))
    s[new, np.arange(p)] = sym.choice((-1.0, 1.0), p)
    return s, new


def _polyhedral_members(normals, offsets, x):
    """tag -> (normalized value at x, unit normal), as sipcert tags polyhedral members."""
    scale = np.linalg.norm(normals, axis=1)
    unit, off = normals / scale[:, None], offsets / scale
    return {f"A[{j}]": (float(a @ x - b), a) for j, (a, b) in enumerate(zip(unit, off))}


def _polyhedral_doc(normals, offsets):
    return {"polyhedral": {"normals": normals.tolist(), "offsets": list(offsets)}}


# ---------------------------------------------------------------------------
# finite-mixed: finite, polyhedral, equality and composed problems


def _finite_problem(base, sym, name, p, k, inactive):
    """k exactly active nonlinear members with random gradients, plus inactive ones."""
    s, new = _symmetry(sym, p)
    x0 = s @ base.uniform(-1.0, 1.0, p)
    grads = base.standard_normal((k + inactive, p)) @ s.T
    values = np.concatenate([np.zeros(k), base.uniform(0.05, 1.0, inactive)])
    curves = [(base.uniform(-1.0, 1.0), new[base.integers(p)]) for _ in values]
    texts = [f"{_linear(a, x0, b)}{_square(c, i, x0[i])}"
             for a, b, (c, i) in zip(grads, values, curves)]
    mu = base.uniform(0.5, 2.0, k)
    grad_f = -(mu @ grads[:k])
    doc = {"dimension": p, "objective": _linear(grad_f) + _square(-1.0, new[0], x0[new[0]]),
           "constraints": {"finite": texts}, "candidate": list(x0)}
    members = {f"phi{j}": (float(b), a) for j, (a, b) in enumerate(zip(grads, values))}
    inst = Instance(name, "certify", "", "KKT", x0, grad_f, 1.0 / (1.0 + mu.sum()),
                    members=members, active=frozenset(f"phi{j}" for j in range(k)))
    return inst, doc


def _vertex_offsets(base, normals, active, x0):
    """Offsets, in the normals' own scaling, that make the first ``active`` facets tight at x0."""
    m = len(normals)
    slack = np.concatenate([np.zeros(active), base.uniform(0.05, 1.0, m - active)])
    return normals @ x0 - slack * np.linalg.norm(normals, axis=1)


def _polyhedral_problem(base, sym, name, p, m):
    s, _ = _symmetry(sym, p)
    x0 = s @ base.uniform(-1.0, 1.0, p)
    normals = (base.standard_normal((m, p)) * base.uniform(0.5, 3.0, (m, 1))) @ s.T
    offsets = _vertex_offsets(base, normals, p, x0)
    mu = base.uniform(0.2, 2.0, p)
    grad_f = -(mu @ _unit_rows(normals[:p]))
    doc = {"dimension": p, "objective": _linear(grad_f),
           "constraints": _polyhedral_doc(normals, offsets), "candidate": list(x0)}
    inst = Instance(name, "certify", "", "KKT", x0, grad_f, 1.0 / (1.0 + mu.sum()),
                    members=_polyhedral_members(normals, offsets, x0),
                    active=frozenset(f"A[{j}]" for j in range(p)))
    return inst, doc


def _equality_problem(base, sym, name, p, w):
    """Nonlinear equalities through x0 and no inequality family: lambda0 = 1."""
    s, new = _symmetry(sym, p)
    x0 = s @ base.uniform(-1.0, 1.0, p)
    jac = base.standard_normal((w, p)) @ s.T
    texts = []
    for a in jac:
        i = new[base.integers(p)]
        texts.append(_linear(a, x0) + _square(base.uniform(-1.0, 1.0), i, x0[i]))
    w_true = base.uniform(-2.0, 2.0, w)
    grad_f = -(jac.T @ w_true)
    doc = {"dimension": p, "objective": _linear(grad_f), "equality": texts, "candidate": list(x0)}
    return Instance(name, "certify", "", "KKT", x0, grad_f, 1.0, eq_jac=jac, w_star=w_true), doc


def _equality_polyhedral_problem(base, sym, name, p, w, k, m):
    """Equalities plus a polytope with k tight facets, certified in the kernel."""
    s, new = _symmetry(sym, p)
    x0 = s @ base.uniform(-1.0, 1.0, p)
    jac = base.standard_normal((w, p)) @ s.T
    normals = base.standard_normal((m, p)) @ s.T
    offsets = _vertex_offsets(base, normals, k, x0)
    unit = _unit_rows(normals)
    texts = [_linear(a, x0) + _square(0.5, new[0], x0[new[0]]) for a in jac]
    mu = base.uniform(0.2, 2.0, k)
    w_true = base.uniform(-2.0, 2.0, w)
    grad_f = -(mu @ unit[:k]) - jac.T @ w_true
    lam = 1.0 / (1.0 + mu.sum())
    doc = {"dimension": p, "objective": _linear(grad_f), "equality": texts,
           "constraints": _polyhedral_doc(normals, offsets), "candidate": list(x0)}
    inst = Instance(name, "certify", "", "KKT", x0, grad_f, lam, eq_jac=jac,
                    members=_polyhedral_members(normals, offsets, x0),
                    active=frozenset(f"A[{j}]" for j in range(k)),
                    z_star=lam * (mu @ unit[:k]), w_star=lam * w_true)
    return inst, doc


def _composed_problem(base, sym, name, p, q, k, m):
    """g(x) in A with g affine plus curvature that vanishes at x0, A a polytope in y."""
    s, new = _symmetry(sym, p)
    x0 = s @ base.uniform(-1.0, 1.0, p)
    y0 = base.uniform(-1.0, 1.0, q)
    jac = base.standard_normal((q, p)) @ s.T
    inner = []
    for i in range(q):
        c = new[base.integers(p)]
        inner.append(_linear(jac[i], x0, y0[i]) + _square(base.uniform(-1.0, 1.0), c, x0[c]))
    normals = base.standard_normal((m, q))
    offsets = _vertex_offsets(base, normals, k, y0)
    mu = base.uniform(0.2, 2.0, k)
    grad_f = -(jac.T @ (mu @ _unit_rows(normals[:k])))
    doc = {"dimension": p, "objective": _linear(grad_f), "inner_map": inner,
           "constraints": _polyhedral_doc(normals, offsets), "candidate": list(x0)}
    inst = Instance(name, "certify", "", "KKT", x0, grad_f, 1.0 / (1.0 + mu.sum()),
                    members=_polyhedral_members(normals, offsets, y0), inner_jac=jac,
                    active=frozenset(f"A[{j}]" for j in range(k)))
    return inst, doc


def _finite_mixed(base, sym):
    built = [
        _finite_problem(base, sym, "finite-p2", 2, 1, 3),
        _finite_problem(base, sym, "finite-p5", 5, 3, 4),
        _finite_problem(base, sym, "finite-p10", 10, 4, 6),
        _polyhedral_problem(base, sym, "vertex-p3", 3, 6),
        _polyhedral_problem(base, sym, "vertex-p10", 10, 20),
        _equality_problem(base, sym, "equality-p3", 3, 1),
        _equality_problem(base, sym, "equality-p6", 6, 2),
        _equality_polyhedral_problem(base, sym, "eq-vertex-p4", 4, 1, 2, 6),
        _composed_problem(base, sym, "composed-p3", 3, 3, 2, 5),
        _composed_problem(base, sym, "composed-p6", 6, 4, 2, 8),
    ]
    return built, [_fixture(name, "certify", verdict) for name, verdict in FINITE_FIXTURES.items()]


# ---------------------------------------------------------------------------
# semi-infinite families


def _box(t_dim, lo, hi):
    return np.full(t_dim, float(lo)), np.full(t_dim, float(hi))


def _parametric_doc(p, objective, h, family, x):
    box = {"lower": list(family.lower), "upper": list(family.upper)}
    return {"dimension": p, "objective": objective,
            "constraints": {"parametric": {"h": h, "t_dim": len(family.lower), "box": box,
                                           "grid": family.grid}},
            "candidate": list(x)}


def _stick_weights(t, flip):
    """phi_i(t) of the stick-breaking partition of unity (p = len(t) + 1)."""
    out, rest = [], 1.0
    for v, f in zip(t, flip):
        v = 1.0 - v if f else v
        out.append(rest * v)
        rest *= 1.0 - v
    return np.array(out + [rest])


def _stick_text(flip):
    pieces, rest = [], ""
    for k, f in enumerate(flip):
        v, rem = (f"(1 - t{k + 1})", f"t{k + 1}") if f else (f"t{k + 1}", f"(1 - t{k + 1})")
        pieces.append(rest + v)
        rest += rem + "*"
    return pieces + [rest.rstrip("*")]


def _stick_problem(base, sym, name, flip, grid):
    """h = 1 - sum_i phi_i(t) x_i at x = 1: the whole index box is active, KKT.

    lambda = 1/(1 + sum c): every hull point of the phi(t) has coordinates
    summing to one.  The seed relabels and flips the x coordinates.
    """
    p = len(flip) + 1
    s, new = _symmetry(sym, p)
    c0 = base.uniform(0.5, 2.0, p)
    terms = "".join(f"{' - ' if s[new[i], i] > 0 else ' + '}({piece})*x{new[i] + 1}"
                    for i, piece in enumerate(_stick_text(flip)))

    def grad(x, t):
        return -(s @ _stick_weights(t, flip))

    fam = Parametric(lambda x, t: float(1.0 + grad(x, t) @ x), grad, *_box(len(flip), 0.0, 1.0), grid)
    x = s @ np.ones(p)
    doc = _parametric_doc(p, _linear(s @ c0), "1" + terms, fam, x)
    return Instance(name, "certify", "", "KKT", x, s @ c0, 1.0 / (1.0 + c0.sum()), family=fam), doc


def _rotation(base, p):
    q, r = np.linalg.qr(base.standard_normal((p, p)))
    return q * np.sign(np.diag(r))


def _sphere_basis(t_dim, phase=0.0):
    """u0(t) on the unit sphere in R^(t_dim + 1), as grammar text and numpy."""
    if t_dim == 1:
        arg = f"t1{_signed(phase)}"
        return [f"cos({arg})", f"sin({arg})"], lambda t: np.array(
            [math.cos(t[0] + phase), math.sin(t[0] + phase)])
    text = ["cos(t1)*cos(t2)", "sin(t1)*cos(t2)", "sin(t2)"]
    return text, lambda t: np.array(
        [math.cos(t[0]) * math.cos(t[1]), math.sin(t[0]) * math.cos(t[1]), math.sin(t[1])]
    )


def _sphere_text(rot, basis):
    # x . (R u0(t)) = sum_k (sum_i R_ik x_i) u0_k(t)
    return " + ".join(f"({_linear(rot[:, k])})*{b}" for k, b in enumerate(basis))


def _ladder_problem(base, sym, name, t_dim, grid, t_index, relabel):
    """h = 1 - x . R u0(t) with x = R u0(t*), f = s x . R u0(t*): KKT, lambda = 1/(1+s).

    Only t* is active; the near-active set around it shrinks rung by rung.
    On the sphere a relabelling of x moves Bland's path by a few percent,
    so there the seed draws only the objective's length s.
    """
    p = t_dim + 1
    s = _symmetry(sym, p)[0] if relabel else np.eye(p)
    rot = s @ _rotation(base, p)
    text, u0 = _sphere_basis(t_dim)
    axis = np.linspace(0.0, QUARTER, grid)
    x = rot @ u0(np.array([axis[i] for i in t_index]))
    scale = sym.uniform(0.5, 2.0)  # only the final segment LP sees it
    fam = Parametric(lambda x, t: float(1.0 - x @ (rot @ u0(t))), lambda x, t: -(rot @ u0(t)),
                     *_box(t_dim, 0.0, QUARTER), grid)
    doc = _parametric_doc(p, _linear(scale * x), f"1 - ({_sphere_text(rot, text)})", fam, x)
    return Instance(name, "certify", "", "KKT", x, scale * x, 1.0 / (1.0 + scale), family=fam), doc


def _circle_fj_problem(base, sym, name, grid):
    """h = x . u(t + theta) on the full circle at x = 0: every t active, Fritz John.

    A relabelling of x changes Bland's path here, so the seed draws only the
    objective's length, which leaves the pivots alone.
    """
    text, u = _sphere_basis(1, base.uniform(0.0, 2.0 * math.pi))
    c = sym.uniform(0.5, 2.0) * _unit_rows(base.standard_normal((1, 2)))[0]
    fam = Parametric(lambda x, t: float(x @ u(t)), lambda x, t: u(t),
                     *_box(1, 0.0, 2.0 * math.pi), grid)
    x = np.zeros(2)
    doc = _parametric_doc(2, _linear(c), _sphere_text(np.eye(2), text), fam, x)
    return Instance(name, "certify", "", "FJ", x, c, fj=True, family=fam), doc


def _sip_linear(command, grid=None):
    fam = Parametric(lambda x, t: float(1.0 - t[0] * x[0] - (1.0 - t[0]) * x[1]),
                     lambda x, t: -np.array([t[0], 1.0 - t[0]]),
                     *_box(1, 0.0, 1.0), grid or 1025)
    inst = _fixture("sip_linear", command, "KKT", grid)
    inst.x, inst.grad_f, inst.lam, inst.family = np.ones(2), np.ones(2), 1.0 / 3.0, fam
    return inst


def _sip_trig(command, grid=None):
    def grad(x, t):
        return np.array([math.cos(t[0]), math.sin(t[0])])

    fam = Parametric(lambda x, t: float(grad(x, t) @ x), grad,
                     *_box(1, 0.0, 2.0 * math.pi), grid or 1025)
    inst = _fixture("sip_trig", command, "FJ", grid)
    inst.x, inst.grad_f, inst.fj, inst.family = np.zeros(2), np.array([1.0, 2.0]), True, fam
    return inst


def _sip_dense(base, sym):
    built = [
        # layouts whose first piece is t1: there Bland's path ignores the relabelling
        _stick_problem(base, sym, "stick-p3-a", (False, False), 33),
        _stick_problem(base, sym, "stick-p3-b", (False, True), 33),
        _stick_problem(base, sym, "stick-p4", (False, False, False), 11),
        _circle_fj_problem(base, sym, "circle-fj-a", 1025),
        _circle_fj_problem(base, sym, "circle-fj-b", 1025),
    ]
    return built, [_sip_linear("certify"), _sip_trig("certify")]


def _sip_ladder(base, sym):
    # t* sits where the eps0 window (about 92 grid steps each side on the
    # circle, a cap of radius 6 steps on the sphere) stays inside the box
    built = [_ladder_problem(base, sym, f"circle-{k}", 1, 1025, [i], True)
             for k, i in enumerate((300, 520, 700))]
    built += [_ladder_problem(base, sym, f"sphere-{k}", 2, 65, [i, 16], False)
              for k, i in enumerate((20, 40))]
    return built, []


# ---------------------------------------------------------------------------
# admissible: semi-infinite fixtures at a moderate grid, polytopes and cones


def _shuffled_facets(base, sym, name, normals, offsets, x0):
    """Admissible instance over a facet shuffle of (normals, offsets), each row rescaled."""
    order = sym.permutation(len(normals))
    scale = sym.uniform(0.5, 2.0, (len(normals), 1))
    normals, offsets = normals[order] * scale, offsets[order] * scale[:, 0]
    p = normals.shape[1]
    doc = {"dimension": p, "objective": _linear(base.standard_normal(p)),
           "constraints": _polyhedral_doc(normals, offsets), "candidate": list(x0)}
    inst = Instance(name, "admissible", "", None, x0, polyhedron=(normals, offsets),
                    members=_polyhedral_members(normals, offsets, x0))
    return inst, doc


def _polytope_admissible(base, sym, name, p, m, halfspace):
    """A vertex x0 of a polytope that holds the origin, so its LPs start feasible."""
    normals = base.standard_normal((m, p))
    x0 = base.uniform(-1.0, 1.0, p)
    if halfspace:  # every normal leans into +e1: 0 stays out of their hull
        normals[:, 0] = np.abs(normals[:, 0]) + 2.0
        x0[0], x0[1:] = -1.0, base.uniform(-0.1, 0.1, p - 1)
    else:  # the facets tight at x0 face away from the origin
        normals[:p] *= -np.sign(normals[:p] @ x0)[:, None]
    scale = np.linalg.norm(normals, axis=1)
    reach = normals @ x0 / scale
    slack = np.concatenate([np.zeros(p), np.maximum(reach[p:], 0.0) + base.uniform(0.05, 1.0, m - p)])
    return _shuffled_facets(base, sym, name, normals, (reach - slack) * scale, x0)


def _cone_admissible(base, sym, name, p, m, solid):
    normals = base.standard_normal((m, p))
    if solid:
        normals[:, 0] = np.abs(normals[:, 0]) + 2.0
    else:  # a pair of opposite normals pins a hyperplane: empty interior
        normals[1] = -normals[0]
    return _shuffled_facets(base, sym, name, normals, np.zeros(m), np.zeros(p))


def _admissible(base, sym):
    circle, doc = _ladder_problem(base, sym, "circle", 1, 1025, [400], True)
    circle.command, circle.verdict, circle.grid = "admissible", None, ADMISSIBLE_GRID
    circle.family.grid = ADMISSIBLE_GRID
    built = [
        _polytope_admissible(base, sym, "polytope-m200", 10, 200, False),
        _polytope_admissible(base, sym, "polytope-m100", 10, 100, True),
        _cone_admissible(base, sym, "cone-solid", 10, 20, True),
        _cone_admissible(base, sym, "cone-flat", 10, 20, False),
        (circle, doc),
    ]
    fixtures = [_sip_linear("admissible", ADMISSIBLE_GRID), _sip_trig("admissible", ADMISSIBLE_GRID)]
    for name in ("cone_orthant", "cone_hyperplane"):
        fixtures.append(_cone_fixture(name))
    return built, fixtures


def _cone_fixture(name):
    from sipcert.fixtures import load_fixture

    poly = load_fixture(name).problem.family.poly
    inst = _fixture(name, "admissible", None)
    inst.x = np.zeros(poly.dim)
    inst.members = _polyhedral_members(poly.normals, poly.offsets, inst.x)
    inst.polyhedron = (poly.normals, poly.offsets)
    return inst


def _fixture(name, command, verdict, grid=None):
    from sipcert.fixtures import fixture_path

    return Instance(name, command, fixture_path(name), verdict, np.zeros(0), grid=grid)


_BUILDERS = {
    "finite-mixed": _finite_mixed,
    "sip-dense": _sip_dense,
    "sip-ladder": _sip_ladder,
    "admissible": _admissible,
}


def build(workload: str, seed: int, directory: Path) -> list[Instance]:
    """Generate the workload's instances for ``seed`` and write their problem files."""
    index = WORKLOADS.index(workload)
    base = np.random.default_rng([BASE_SEED, index])
    sym = np.random.default_rng([seed, index])
    built, fixtures = _BUILDERS[workload](base, sym)
    directory.mkdir(parents=True, exist_ok=True)
    for inst, doc in built:
        inst.path = str(directory / f"{inst.name}.json")
        Path(inst.path).write_text(json.dumps(doc, indent=1))
    return [inst for inst, _ in built] + fixtures
