"""Scalar expression language: parsing, evaluation, forward-mode gradients.

Objectives and constraints arrive as strings inside problem files, written
over the decision variables ``x1..xp`` and (for parametric constraint
families) the index variables ``t1..tm``.  The grammar is closed -- there
are no user-defined functions -- so the evaluator is total and auditable:

    expr     = term (("+" | "-") term)* ;
    term     = factor (("*" | "/") factor)* ;
    factor   = ("+" | "-") factor | power ;
    power    = atom (("^" | "**") factor)? ;          (* right-associative *)
    atom     = NUMBER | VARIABLE
             | FUNC "(" expr ("," expr)* ")"
             | "(" expr ")" ;
    FUNC     = "sin" | "cos" | "exp" | "log" | "sqrt"
             | "abs" | "min" | "max" ;
    VARIABLE = ("x" | "t") DIGITS ;                   (* 1-based index *)
    NUMBER   = decimal or scientific literal ;

Gradients are computed by forward-mode dual numbers, so they are exact up
to floating rounding; central finite differences are used as a test oracle
only.  Evaluation never returns NaN or infinity: any non-finite
intermediate raises :class:`EvalDomainError`.  Differentiating ``abs``,
``min`` or ``max`` at a tie (within ``tol_kink``) raises
:class:`KinkError` rather than picking an arbitrary subgradient.

There are two tree walkers.  The scalar one (:func:`evaluate`,
:func:`gradient`) serves one point at a time: objectives, individually
listed constraints, and the reference the batched one is tested against.
The batched one (:func:`evaluate_many`, :func:`gradient_many`) serves one
decision point across n index points of a parametric constraint
(:func:`evaluate_many` also takes n decision points, one per index point):
one walk over numpy columns, carrying batched duals (values of shape (n,),
partials of shape (p, n)) for gradients, with every domain and kink check
made per point and one finiteness test per walk.  Its results and errors
are those of the scalar loop over the points: when the batched walk flags
any point, the scalar loop runs and decides, raising the error of the
first bad point.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ExprFn",
    "Dual",
    "ExprError",
    "ParseError",
    "EvalDomainError",
    "KinkError",
    "parse",
    "evaluate",
    "evaluate_many",
    "gradient",
    "gradient_many",
    "format_expr",
    "substitute",
    "linear_expr",
]

DEFAULT_KINK_TOL = 1e-12

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "abs", "min", "max")


class ExprError(Exception):
    """Base class for expression-language errors."""


class ParseError(ExprError):
    def __init__(self, message, offset, expected=()):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset
        self.expected = tuple(expected)


class EvalDomainError(ExprError):
    """Evaluation left the function's domain or produced a non-finite value."""


class KinkError(ExprError):
    """abs/min/max differentiated at (or within tol_kink of) a nonsmooth point."""


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True, slots=True)
class Num:
    value: float


@dataclass(frozen=True, slots=True)
class Var:
    kind: str  # 'x' or 't'
    index: int  # 0-based


@dataclass(frozen=True, slots=True)
class Neg:
    arg: object


@dataclass(frozen=True, slots=True)
class Bin:
    op: str  # '+', '-', '*', '/', '^'
    left: object
    right: object


@dataclass(frozen=True, slots=True)
class Call:
    func: str
    args: tuple


@dataclass(frozen=True, slots=True)
class ExprFn:
    """A parsed scalar expression with declared variable arities.

    Immutable after :func:`parse`; evaluation is reentrant, so a single
    ExprFn may be evaluated from several threads at once.
    """

    ast: object
    arity_x: int
    arity_t: int = 0

    def __str__(self):
        return format_expr(self)


# ---------------------------------------------------------------------------
# Dual numbers (forward mode)


class Dual:
    """Value plus partial derivatives with respect to the x-variables."""

    __slots__ = ("value", "partials")
    # numpy defers to the reflected operators below instead of building an
    # object array, so `ndarray (op) Dual` is a Dual
    __array_ufunc__ = None

    def __init__(self, value, partials):
        self.value = value
        self.partials = partials

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value + other.value, self.partials + other.partials)
        return Dual(self.value + other, self.partials)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value - other.value, self.partials - other.partials)
        return Dual(self.value - other, self.partials)

    def __rsub__(self, other):
        return Dual(other - self.value, -self.partials)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(
                self.value * other.value,
                self.value * other.partials + other.value * self.partials,
            )
        return Dual(self.value * other, other * self.partials)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            return Dual(
                self.value / other.value,
                (self.partials * other.value - self.value * other.partials)
                / (other.value * other.value),
            )
        return Dual(self.value / other, self.partials / other)

    def __rtruediv__(self, other):
        return Dual(
            other / self.value, -other * self.partials / (self.value * self.value)
        )

    def __neg__(self):
        return Dual(-self.value, -self.partials)


def _val(u):
    return u.value if isinstance(u, Dual) else u


def _check_finite(v, where):
    if not math.isfinite(_val(v)):
        raise EvalDomainError(f"non-finite value in '{where}'")
    return v


def _power(base, expo, where="^"):
    bv, ev = _val(base), _val(expo)
    expo_is_const = not isinstance(expo, Dual) or not expo.partials.any()
    if expo_is_const and float(ev).is_integer():
        n = int(ev)
        if bv == 0.0 and n < 0:
            raise EvalDomainError("zero raised to a negative power")
        value = bv**n
        if isinstance(base, Dual):
            # d(u^n) = n u^(n-1) u'; at u=0 only n>=1 keeps it finite
            if n == 0:
                return Dual(value, 0.0 * base.partials)
            if bv == 0.0 and n == 1:
                return Dual(value, base.partials.copy())
            dfac = n * bv ** (n - 1)
            return _check_finite(Dual(value, dfac * base.partials), where)
        return _check_finite(value, where)
    # general power needs a positive base
    if bv < 0.0:
        raise EvalDomainError("negative base with non-integer exponent")
    if bv == 0.0:
        if ev > 0.0 and not isinstance(base, Dual) and not isinstance(expo, Dual):
            return 0.0
        raise EvalDomainError("zero base with non-integer or non-constant exponent")
    value = bv**ev
    if not isinstance(base, Dual) and not isinstance(expo, Dual):
        return _check_finite(value, where)
    bp = base.partials if isinstance(base, Dual) else 0.0
    ep = expo.partials if isinstance(expo, Dual) else 0.0
    partials = value * (ep * math.log(bv) + ev * bp / bv)
    return _check_finite(Dual(value, np.asarray(partials)), where)


def _fn_sin(u):
    if isinstance(u, Dual):
        return Dual(math.sin(u.value), math.cos(u.value) * u.partials)
    return math.sin(u)


def _fn_cos(u):
    if isinstance(u, Dual):
        return Dual(math.cos(u.value), -math.sin(u.value) * u.partials)
    return math.cos(u)


def _fn_exp(u):
    v = math.exp(_val(u)) if _val(u) < 710.0 else math.inf
    if isinstance(u, Dual):
        return _check_finite(Dual(v, v * u.partials), "exp")
    return _check_finite(v, "exp")


def _fn_log(u):
    if _val(u) <= 0.0:
        raise EvalDomainError("log of a nonpositive value")
    if isinstance(u, Dual):
        return Dual(math.log(u.value), u.partials / u.value)
    return math.log(u)


def _fn_sqrt(u):
    v = _val(u)
    if v < 0.0:
        raise EvalDomainError("sqrt of a negative value")
    if isinstance(u, Dual):
        if v == 0.0 and u.partials.any():
            raise EvalDomainError("sqrt differentiated at zero")
        r = math.sqrt(v)
        return Dual(r, u.partials / (2.0 * r) if r else 0.0 * u.partials)
    return math.sqrt(v)


def _fn_abs(u, kink_tol):
    v = _val(u)
    if isinstance(u, Dual):
        if abs(v) <= kink_tol and u.partials.any():
            raise KinkError("abs differentiated at its kink")
        return Dual(abs(v), math.copysign(1.0, v) * u.partials if v else 0.0 * u.partials)
    return abs(v)


def _fn_minmax(name, args, kink_tol):
    keyed = sorted(range(len(args)), key=lambda i: _val(args[i]))
    best = keyed[0] if name == "min" else keyed[-1]
    second = keyed[1] if name == "min" else keyed[-2]
    if any(isinstance(a, Dual) for a in args):
        tie = abs(_val(args[best]) - _val(args[second])) <= kink_tol
        if tie and not _same_partials(args[best], args[second]):
            raise KinkError(f"{name} differentiated at a tie")
        chosen = args[best]
        if not isinstance(chosen, Dual):
            other = next(a for a in args if isinstance(a, Dual))
            chosen = Dual(float(chosen), 0.0 * other.partials)
        return chosen
    return _val(args[best])


def _same_partials(a, b):
    pa = a.partials if isinstance(a, Dual) else None
    pb = b.partials if isinstance(b, Dual) else None
    if pa is None and pb is None:
        return True
    if pa is None or pb is None:
        return not (pb if pa is None else pa).any()
    return np.array_equal(pa, pb)


# ---------------------------------------------------------------------------
# Evaluation


def _ev(node, xs, ts, kink_tol):
    if type(node) is Num:
        return node.value
    if type(node) is Var:
        return xs[node.index] if node.kind == "x" else ts[node.index]
    if type(node) is Neg:
        return -_ev(node.arg, xs, ts, kink_tol)
    if type(node) is Bin:
        left = _ev(node.left, xs, ts, kink_tol)
        right = _ev(node.right, xs, ts, kink_tol)
        op = node.op
        if op == "+":
            return _check_finite(left + right, "+")
        if op == "-":
            return _check_finite(left - right, "-")
        if op == "*":
            return _check_finite(left * right, "*")
        if op == "/":
            if _val(right) == 0.0:
                raise EvalDomainError("division by zero")
            return _check_finite(left / right, "/")
        return _power(left, right)
    # Call
    args = [_ev(a, xs, ts, kink_tol) for a in node.args]
    name = node.func
    if name == "sin":
        return _fn_sin(args[0])
    if name == "cos":
        return _fn_cos(args[0])
    if name == "exp":
        return _fn_exp(args[0])
    if name == "log":
        return _fn_log(args[0])
    if name == "sqrt":
        return _fn_sqrt(args[0])
    if name == "abs":
        return _fn_abs(args[0], kink_tol)
    return _fn_minmax(name, args, kink_tol)


def _coerce_point(v, arity, what):
    arr = np.asarray(v, dtype=float).reshape(-1) if v is not None else np.zeros(0)
    if arr.size != arity:
        raise EvalDomainError(f"{what} has dimension {arr.size}, expected {arity}")
    return arr


def evaluate(f: ExprFn, x, t=None) -> float:
    """IEEE-evaluate ``f`` at ``x`` (and index point ``t`` if applicable)."""
    xs = _coerce_point(x, f.arity_x, "x")
    ts = _coerce_point(t, f.arity_t, "t")
    try:
        with np.errstate(all="ignore"):
            out = _ev(f.ast, xs, ts, DEFAULT_KINK_TOL)
    except OverflowError as err:
        raise EvalDomainError(f"overflow: {err}") from err
    return _check_finite(float(out), "result")


def gradient(f: ExprFn, x, t=None, kink_tol: float = DEFAULT_KINK_TOL) -> np.ndarray:
    """Exact forward-mode gradient of ``f`` in the x-variables."""
    xs = _coerce_point(x, f.arity_x, "x")
    ts = _coerce_point(t, f.arity_t, "t")
    duals = [Dual(xs[i], _unit(f.arity_x, i)) for i in range(f.arity_x)]
    try:
        with np.errstate(all="ignore"):
            out = _ev(f.ast, duals, ts, kink_tol)
    except OverflowError as err:
        raise EvalDomainError(f"overflow: {err}") from err
    if not isinstance(out, Dual):  # constant in x
        _check_finite(float(out), "result")
        return np.zeros(f.arity_x)
    _check_finite(out.value, "result")
    g = np.asarray(out.partials, dtype=float) + np.zeros(f.arity_x)
    if not np.all(np.isfinite(g)):
        raise EvalDomainError("non-finite gradient component")
    return g


def _unit(n, i):
    e = np.zeros(n)
    e[i] = 1.0
    return e


# Batched evaluation: the same tree, numpy arrays across n index points.  A
# t-variable is a column of shape (n,); an x-variable is a plain number (or
# a column, when each index point has its own decision point), or,
# for gradients, a Dual whose partials have shape (p, 1), so every Dual in
# the walk has a value of shape (n,) (or a scalar) and partials of shape
# (p, n) (or (p, 1)), and the Dual arithmetic above broadcasts unchanged.
# Every domain and kink check of the scalar walk runs per index point.  The
# per-node finiteness checks become one running sum `acc` of (n,) over the
# checked nodes' values, tested once at the end of the walk: non-finite
# values flow on until then.  The scalar walker stays the n = 1 path and
# the reference: when the batched walk flags any point, or the sum is not
# finite, the public functions re-run the scalar loop, which raises the
# error of the first bad point (or, if only the sum overflowed, returns
# the values).


class _Unbatchable(Exception):
    """The scalar walk keeps a value plain at some index points, dual at others."""


_BATCH_FAILURES = (ExprError, ArithmeticError, _Unbatchable)


def _ev_vec(node, xs, tcols, kink_tol, acc):
    if type(node) is Num:
        return node.value
    if type(node) is Var:
        return xs[node.index] if node.kind == "x" else tcols[node.index]
    if type(node) is Neg:
        return -_ev_vec(node.arg, xs, tcols, kink_tol, acc)
    if type(node) is Bin:
        left = _ev_vec(node.left, xs, tcols, kink_tol, acc)
        right = _ev_vec(node.right, xs, tcols, kink_tol, acc)
        op = node.op
        if op == "+":
            return _summed(left + right, acc)
        if op == "-":
            return _summed(left - right, acc)
        if op == "*":
            return _summed(left * right, acc)
        if op == "/":
            if np.any(_val(right) == 0.0):
                raise EvalDomainError("division by zero")
            return _summed(left / right, acc)
        return _vec_power(left, right, acc)
    args = [_ev_vec(a, xs, tcols, kink_tol, acc) for a in node.args]
    name = node.func
    if name in ("min", "max"):
        return _vec_minmax(name, args, kink_tol)
    u = args[0]
    v = _val(u)
    dual = isinstance(u, Dual)
    if name == "sin":
        return Dual(np.sin(v), np.cos(v) * u.partials) if dual else np.sin(v)
    if name == "cos":
        return Dual(np.cos(v), -np.sin(v) * u.partials) if dual else np.cos(v)
    if name == "exp":
        r = np.exp(v)
        return _summed(Dual(r, r * u.partials) if dual else r, acc)
    if name == "log":
        if np.any(v <= 0.0):
            raise EvalDomainError("log of a nonpositive value")
        return Dual(np.log(v), u.partials / v) if dual else np.log(v)
    if name == "sqrt":
        if np.any(v < 0.0):
            raise EvalDomainError("sqrt of a negative value")
        r = np.sqrt(v)
        if not dual:
            return r
        if np.any((v == 0.0) & u.partials.any(axis=0)):
            raise EvalDomainError("sqrt differentiated at zero")
        return Dual(r, np.where(r != 0.0, u.partials / (2.0 * r), 0.0 * u.partials))
    # abs
    if not dual:
        return np.abs(v)
    if np.any((np.abs(v) <= kink_tol) & u.partials.any(axis=0)):
        raise KinkError("abs differentiated at its kink")
    return Dual(np.abs(v), np.where(v != 0.0, np.copysign(1.0, v), 0.0) * u.partials)


def _summed(v, acc):
    # where the scalar walk checks a node for finiteness, the batched walk
    # adds its values into `acc`, tested once per walk by `_check_sum`
    np.add(acc, _val(v), out=acc)
    return v


def _check_sum(acc):
    # a finite sum proves every summand finite; a non-finite one (or one
    # that only overflowed) sends the caller to the scalar loop, which
    # decides per node
    if not np.isfinite(acc).all():
        raise EvalDomainError("non-finite value")


def _vec_power(base, expo, acc):
    """:func:`_power` per index point."""
    bv, ev = _val(base), _val(expo)
    # the integer rule holds where the exponent is integer-valued and has
    # zero x-partials; elsewhere the general rule needs a positive base
    const = ~expo.partials.any(axis=0) if isinstance(expo, Dual) else True
    integer = const & np.isfinite(ev) & (np.floor(ev) == ev)
    if np.any(integer & (bv == 0.0) & (ev < 0.0)):
        raise EvalDomainError("zero raised to a negative power")
    if np.any(~integer & (bv < 0.0)):
        raise EvalDomainError("negative base with non-integer exponent")
    duals = isinstance(base, Dual) or isinstance(expo, Dual)
    if np.any(~integer & (bv == 0.0) & (duals | (ev <= 0.0))):
        raise EvalDomainError("zero base with non-integer or non-constant exponent")
    value = _summed(np.power(bv, ev), acc)
    if not duals:
        return value
    if not isinstance(base, Dual) and np.any(integer):
        # the integer rule on a plain base gives a plain value
        if np.all(integer):
            return value
        raise _Unbatchable
    bp = base.partials if isinstance(base, Dual) else 0.0
    if np.all(integer):
        return Dual(value, _int_power_partials(bv, ev, bp))
    ep = expo.partials if isinstance(expo, Dual) else 0.0
    partials = value * (ep * np.log(bv) + ev * bp / bv)
    if np.any(integer):
        partials = np.where(integer, _int_power_partials(bv, ev, bp), partials)
    return Dual(value, partials)


def _int_power_partials(bv, n, bp):
    # d(u^n) = n u^(n-1) u', and 0 for n = 0
    return np.where(n == 0.0, 0.0 * bp, n * np.power(bv, n - 1.0) * bp)


def _vec_minmax(name, args, kink_tol):
    """:func:`_fn_minmax` per index point: a stable sort picks among ties."""
    values = np.array(np.broadcast_arrays(*[np.atleast_1d(_val(a)) for a in args]))
    order = np.argsort(values, axis=0, kind="stable")
    best, second = (order[0], order[1]) if name == "min" else (order[-1], order[-2])
    cols = np.arange(values.shape[1])
    value = values[best, cols]
    duals = [a for a in args if isinstance(a, Dual)]
    if not duals:
        return value
    shape = (duals[0].partials.shape[0], values.shape[1])
    parts = np.array(
        [np.broadcast_to(a.partials, shape) if isinstance(a, Dual) else np.zeros(shape) for a in args]
    )
    chosen = parts[best, :, cols]  # (n, p)
    tie = np.abs(value - values[second, cols]) <= kink_tol
    if np.any(tie & ~(chosen == parts[second, :, cols]).all(axis=1)):
        raise KinkError(f"{name} differentiated at a tie")
    plain = np.array([not isinstance(a, Dual) for a in args])[best]
    return Dual(value, np.where(plain, 0.0 * duals[0].partials, chosen.T))


def evaluate_many(f: ExprFn, x, tpoints) -> np.ndarray:
    """Evaluate ``f`` across many index points.

    ``tpoints`` is an (n, arity_t) array; the result has shape (n,).  ``x``
    is one decision point, or an (n, arity_x) array of them, row i paired
    with index point i: then each x-variable is a column like a
    t-variable.  Equivalent to a loop of :func:`evaluate` calls, in one
    tree walk with one finiteness test; when the walk flags a point or a
    non-finite value, that loop runs and decides, so an error is the one
    it raises.
    """
    tarr = _index_points(f, tpoints)
    if np.ndim(x) == 2:
        xrows = np.asarray(x, dtype=float)
        if xrows.shape != (len(tarr), f.arity_x):
            raise EvalDomainError(
                f"x has shape {xrows.shape}, expected ({len(tarr)}, {f.arity_x})"
            )
        xs = _columns(xrows)
    else:
        xs = _coerce_point(x, f.arity_x, "x")
        xrows = itertools.repeat(xs)
    try:
        return _values_batched(f, xs, tarr)
    except _BATCH_FAILURES:
        return np.array([evaluate(f, xp, t) for xp, t in zip(xrows, tarr)])


def gradient_many(f: ExprFn, x, tpoints, kink_tol: float = DEFAULT_KINK_TOL) -> np.ndarray:
    """Gradients in x of ``f`` at one decision point across many index points.

    ``tpoints`` is an (n, arity_t) array; the result has shape (n, arity_x).
    Equivalent to stacking :func:`gradient` over the points, in one tree
    walk of batched duals; an error is the one that loop raises.
    """
    xs = _coerce_point(x, f.arity_x, "x")
    tarr = _index_points(f, tpoints)
    try:
        return _gradients_batched(f, xs, tarr, kink_tol)
    except _BATCH_FAILURES:
        return np.array([gradient(f, xs, t, kink_tol) for t in tarr]).reshape(len(tarr), f.arity_x)


def _values_batched(f, xs, tarr):
    acc = np.zeros(len(tarr))
    with np.errstate(all="ignore"):
        out = _ev_vec(f.ast, xs, _columns(tarr), DEFAULT_KINK_TOL, acc)
        out = _summed(np.broadcast_to(out, acc.shape).astype(float), acc)
        _check_sum(acc)
    return out


def _gradients_batched(f, xs, tarr, kink_tol):
    n, p = tarr.shape[0], f.arity_x
    unit = np.eye(p)
    duals = [Dual(xs[i], unit[:, i : i + 1]) for i in range(p)]
    acc = np.zeros(n)
    with np.errstate(all="ignore"):
        out = _summed(_ev_vec(f.ast, duals, _columns(tarr), kink_tol, acc), acc)
        _check_sum(acc)
    if not isinstance(out, Dual):  # constant in x
        return np.zeros((n, p))
    g = out.partials + np.zeros((p, n))  # as in `gradient`, -0.0 becomes 0.0
    if not np.all(np.isfinite(g)):
        raise EvalDomainError("non-finite gradient component")
    return np.ascontiguousarray(g.T)


def _index_points(f, tpoints):
    tarr = np.asarray(tpoints, dtype=float)
    if tarr.ndim == 1:
        tarr = tarr.reshape(-1, 1) if f.arity_t == 1 else tarr.reshape(1, -1)
    if tarr.shape[1] != f.arity_t:
        raise EvalDomainError(
            f"index points have dimension {tarr.shape[1]}, expected {f.arity_t}"
        )
    return tarr


def _columns(tarr):
    return [tarr[:, j] for j in range(tarr.shape[1])]


# ---------------------------------------------------------------------------
# Tokenizer / parser

_TOKEN_RE = re.compile(
    r"""
    (?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>\*\*|[-+*/^(),])
  | (?P<ws>\s+)
""",
    re.VERBOSE,
)


def _tokenize(src):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {src[pos]!r}", pos, ("number", "variable", "operator")
            )
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src, arity_x, arity_t):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0
        self.arity_x = arity_x
        self.arity_t = arity_t

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self):
        node = self.expr()
        kind, text, pos = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected token {text!r}", pos, ("operator", "end of input"))
        return node

    def expr(self):
        node = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.advance()[1]
            node = Bin(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek()[1] in ("*", "/"):
            op = self.advance()[1]
            node = Bin(op, node, self.factor())
        return node

    def factor(self):
        kind, text, pos = self.peek()
        if text == "-":
            self.advance()
            return Neg(self.factor())
        if text == "+":
            self.advance()
            return self.factor()
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek()[1] in ("^", "**"):
            self.advance()
            node = Bin("^", node, self.factor())  # right-associative
        return node

    def atom(self):
        kind, text, pos = self.advance()
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):
                raise ParseError(f"numeric literal {text!r} overflows", pos, ("finite number",))
            return Num(value)
        if kind == "ident":
            return self.ident(text, pos)
        if text == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise ParseError(
            f"unexpected token {text or 'end of input'!r}",
            pos,
            ("number", "variable", "function", "("),
        )

    def ident(self, name, pos):
        if name in FUNCTIONS:
            self.expect("(")
            args = [self.expr()]
            while self.peek()[1] == ",":
                self.advance()
                args.append(self.expr())
            self.expect(")")
            self.check_arity(name, len(args), pos)
            return Call(name, tuple(args))
        m = re.fullmatch(r"([xt])([0-9]+)", name)
        if m is None:
            raise ParseError(f"unknown identifier {name!r}", pos, ("variable", "function"))
        kind, idx = m.group(1), int(m.group(2))
        if idx < 1:
            raise ParseError(f"variable index in {name!r} must start at 1", pos)
        arity = self.arity_x if kind == "x" else self.arity_t
        if idx > arity:
            raise ParseError(
                f"variable {name!r} exceeds declared arity ({kind}-dimension {arity})", pos
            )
        return Var(kind, idx - 1)

    def check_arity(self, name, n, pos):
        want = (2, None) if name in ("min", "max") else (1, 1)
        lo, hi = want
        if n < lo or (hi is not None and n > hi):
            raise ParseError(f"{name} takes {lo if hi else 'at least ' + str(lo)} argument(s)", pos)

    def expect(self, text):
        kind, got, pos = self.peek()
        if got != text:
            raise ParseError(f"expected {text!r}, found {got or 'end of input'!r}", pos, (text,))
        self.advance()


def parse(src: str, arity_x: int, arity_t: int = 0) -> ExprFn:
    """Parse ``src`` into an :class:`ExprFn` over x1..x{arity_x}, t1..t{arity_t}."""
    if not src or not src.strip():
        raise ParseError("empty expression", 0, ("number", "variable", "function", "("))
    ast = _Parser(src, arity_x, arity_t).parse()
    return ExprFn(ast, arity_x, arity_t)


# ---------------------------------------------------------------------------
# Printing (parse -> print -> parse round-trips to an identical AST)

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _prec(node):
    if type(node) is Bin:
        return _PREC[node.op]
    if type(node) is Neg:
        return _PREC["neg"]
    return 9


def _fmt(node):
    if type(node) is Num:
        v = node.value
        return str(int(v)) if v.is_integer() and abs(v) < 1e16 else repr(v)
    if type(node) is Var:
        return f"{node.kind}{node.index + 1}"
    if type(node) is Neg:
        inner = _fmt(node.arg)
        if _prec(node.arg) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if type(node) is Call:
        return f"{node.func}({', '.join(_fmt(a) for a in node.args)})"
    op = node.op
    lp, rp = _fmt(node.left), _fmt(node.right)
    if op == "^":
        if _prec(node.left) <= _PREC["^"]:
            lp = f"({lp})"
        if _prec(node.right) < _PREC["neg"]:
            rp = f"({rp})"
        return f"{lp}^{rp}"
    if _prec(node.left) < _PREC[op]:
        lp = f"({lp})"
    if _prec(node.right) <= _PREC[op]:
        rp = f"({rp})"
    return f"{lp} {op} {rp}"


def format_expr(f: ExprFn) -> str:
    return _fmt(f.ast)


# ---------------------------------------------------------------------------
# Substitution (used to compose constraint families through an inner map)


def _subst(node, xmap):
    if type(node) is Num:
        return node
    if type(node) is Var:
        if node.kind == "x":
            return xmap[node.index]
        return node
    if type(node) is Neg:
        return Neg(_subst(node.arg, xmap))
    if type(node) is Bin:
        return Bin(node.op, _subst(node.left, xmap), _subst(node.right, xmap))
    return Call(node.func, tuple(_subst(a, xmap) for a in node.args))


def linear_expr(coeffs, constant: float, arity_x: int) -> ExprFn:
    """The affine expression sum_i coeffs[i]*x(i+1) + constant as an ExprFn."""
    node = Num(float(constant))
    for i, c in enumerate(coeffs):
        node = Bin("+", node, Bin("*", Num(float(c)), Var("x", i)))
    return ExprFn(node, arity_x)


def substitute(f: ExprFn, inner: list[ExprFn]) -> ExprFn:
    """Replace each x-variable of ``f`` by the corresponding inner expression.

    The result is the literal composite over the inner expressions'
    x-variables; t-variables of ``f`` pass through unchanged.
    """
    if len(inner) != f.arity_x:
        raise EvalDomainError(
            f"inner map has {len(inner)} components, expected {f.arity_x}"
        )
    arity_x = inner[0].arity_x if inner else 0
    for g in inner:
        if g.arity_x != arity_x or g.arity_t != 0:
            raise EvalDomainError("inner map components must share arity and use no t-variables")
    return ExprFn(_subst(f.ast, [g.ast for g in inner]), arity_x, f.arity_t)
