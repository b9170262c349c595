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

The tokens come from one regex pass (``findall``), as strings: no
positions are kept, and a token's offset is computed only when a
:class:`ParseError` names it, by scanning the source again.  A bad
character anywhere is reported before any syntax error.  Parentheses,
function calls, unary signs and ``^`` operands nest at most ``MAX_DEPTH``
(100) levels, counted together; deeper input is a ``ParseError``, not a
``RecursionError``.  Only nesting is limited, not length.

An expression is a tape (Griewank & Walther, *Evaluating Derivatives*,
ch. 2): a tuple of ``(op, args)`` entries, one per distinct node, in the
post-order of their first occurrence.  ``args`` holds earlier slot
numbers, or a leaf's payload: the constant of a ``"num"``, the 0-based
index of an ``"x"`` or ``"t"`` variable.  The last slot is the result.
Each tape is built through one interning table (hash-consing, Filliâtre &
Conchon 2006), so equal subtrees are one slot; constants are keyed by
their bits, so ``-0.0`` and ``0.0`` stay two.  Evaluating, printing and
substituting are each one loop over the tape.

A list of expressions (:class:`ExprList`: a family's listed members, the
equality rows, an inner map) shares one tape: its strings are parsed into
one interning table (:func:`parse_list`), in list order, and each member's
result is one slot of it; an :class:`ExprFn` is the one-output case, walked
and substituted by the same routines.  :func:`evaluate_list` and
:func:`gradient_list` read every member, or the gradients of some, in one
walk.  Substituting an inner map into a list interns each inner expression
once, where a member first reads it, and every composite shares its slots.

Gradients are computed by forward-mode dual numbers, so they are exact up
to floating rounding; central finite differences are used as a test oracle
only.  Evaluation never returns NaN or infinity: any non-finite input or
intermediate raises :class:`EvalDomainError`.  Differentiating ``abs``,
``min`` or ``max`` at a tie (within ``tol_kink``) raises
:class:`KinkError` rather than picking an arbitrary subgradient.

One walk evaluates a tape over one operator table, whose rule for each
operator (value, dual derivative, domain or kink check) is written once
against a kit of primitives for the value type.  The scalar kit (Python
floats and ``math``: one point, a non-finite node raises at once) serves
:func:`evaluate` and :func:`gradient` (objectives, the reference in tests)
and the list walks.  The batch kit (numpy arrays: the n index points
of a parametric constraint, one finiteness test per walk) serves
:func:`evaluate_many` and :func:`gradient_many`.  Over a product grid,
given by its axes, each axis and the decision-point rows get a dimension
of their own, so broadcasting computes each node over only the axes and
rows it reads: ``cos(t1)`` once per t1 value, not once per (row, grid
point) pair.  Its results and errors are those of the scalar loop over
the points: when the batch walk flags any point, the scalar loop runs and
decides.  One exception: numpy's ``exp``, ``log`` and ``power`` may
differ from ``math.exp``, ``math.log`` and Python's ``**`` in the last
bit (at most 1 ulp), so a batched value or gradient through them can
differ from the scalar loop's by that much.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
import string
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ExprFn",
    "ExprList",
    "Dual",
    "ExprError",
    "ParseError",
    "EvalDomainError",
    "KinkError",
    "parse",
    "parse_list",
    "evaluate",
    "evaluate_list",
    "evaluate_many",
    "gradient",
    "gradient_list",
    "gradient_many",
    "format_expr",
    "substitute",
    "linear_expr",
    "linear_list",
]

DEFAULT_KINK_TOL = 1e-12


class ExprError(Exception):
    """Base class for expression-language errors."""


class ParseError(ExprError):
    index = None  # set by parse_list: the bad string's place in its list

    def __init__(self, message, offset, expected=()):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset
        self.expected = tuple(expected)


class EvalDomainError(ExprError):
    """Evaluation left the function's domain or produced a non-finite value."""


class KinkError(ExprError):
    """abs/min/max differentiated at (or within tol_kink of) a nonsmooth point."""


# ---------------------------------------------------------------------------
# Tape


@dataclass(frozen=True, slots=True)
class ExprFn:
    """A scalar expression's tape (see the module docstring) and variable arities:
    immutable and hashable, and evaluated reentrantly, from several threads at once."""

    tape: tuple
    arity_x: int
    arity_t: int = 0

    def __str__(self):
        return format_expr(self)

    @property
    def outputs(self):  # as an ExprList's: the one result is the last slot
        return (len(self.tape) - 1,)


_LEAVES = ("num", "x", "t")


@dataclass(frozen=True, slots=True)
class ExprList:
    """Expressions over x1..x{arity_x} (no t) on one tape: member i's result is
    the slot ``outputs[i]``.

    The members enter the interning table in list order, each in its own
    post-order, so each member's new slots follow those of the members before
    it, and its result is its last new slot (or an earlier member's slot).
    Indexing or iterating gives a member as an :class:`ExprFn`, the tape
    :func:`parse` builds from its own string.
    """

    tape: tuple
    outputs: tuple
    arity_x: int

    @classmethod
    def of(cls, exprs, arity_x=None) -> "ExprList":
        """``exprs`` (ExprFns, or an ExprList, returned as it is) as one ExprList.

        The arity is ``arity_x``, or the first member's; a member with
        another x-arity, or with t-variables, is a ValueError.
        """
        if isinstance(exprs, ExprList) and arity_x in (None, exprs.arity_x):
            return exprs
        exprs = tuple(exprs)
        if arity_x is None:
            arity_x = exprs[0].arity_x if exprs else 0
        if any(f.arity_x != arity_x or f.arity_t for f in exprs):
            raise ValueError(f"list members must be functions of x1..x{arity_x} only")
        table = _Tape()
        outputs = tuple([table.add_tape(f.tape)[-1] for f in exprs])
        return cls(table.tape(), outputs, arity_x)

    def __len__(self):
        return len(self.outputs)

    def __iter__(self):
        return map(self.__getitem__, range(len(self.outputs)))

    def __getitem__(self, i) -> ExprFn:
        table = _Tape()
        table.add_tape(self.tape, order=self.post_order(i))
        return ExprFn(table.tape(), self.arity_x)

    def post_order(self, i) -> list:
        """Member i's slots in the post-order of their first visit from its
        result: the order in which its own parse interns them."""
        tape, order, seen = self.tape, [], set()
        stack = [(self.outputs[i], False)]
        while stack:
            s, done = stack.pop()
            if done:
                order.append(s)
            elif s not in seen:
                seen.add(s)
                stack.append((s, True))
                op, args = tape[s]
                if op not in _LEAVES:
                    stack.extend([(a, False) for a in reversed(args)])
        return order


class _Tape(dict):
    """A tape being built: the interning table from each entry ``(op, args)`` to
    its slot, in slot order.  A zero constant's key holds its text, not the float:
    -0.0 == 0.0, and the two must stay two slots."""

    def add(self, op, args):
        return self.setdefault((op, args) if op != "num" or args else (op, str(args)), len(self))

    def tape(self):
        # from a list: a tuple grown from a generator reallocates, and fragments the heap
        return tuple([(op, float(args)) if type(args) is str else (op, args) for op, args in self])

    def add_tape(self, tape, x_slot=None, order=None):
        # interns the entries of `tape` (those in `order`, a post-order, if
        # given), an x-variable i as the slot x_slot(i) if given; the slot of
        # each entry, by its place in `tape`
        slots, add = [None] * len(tape), self.add
        for i in range(len(tape)) if order is None else order:
            op, args = tape[i]
            if op == "x" and x_slot:
                slots[i] = x_slot(args)
            elif op in _LEAVES:
                slots[i] = add(op, args)
            elif len(args) == 2:  # read directly, as in the walk
                slots[i] = add(op, (slots[args[0]], slots[args[1]]))
            else:
                slots[i] = add(op, tuple([slots[a] for a in args]))
        return slots


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


# ---------------------------------------------------------------------------
# Kits: the primitives the rules use, one kit per value type.  A value is a
# plain number or a Dual over it; `any(*masks)` tells whether some point
# meets every mask, and `all(mask)` whether every point meets it.


class _Scalar:
    """One point: Python floats and `math`; a non-finite node raises at once.

    Every number is a Python float (``x`` and ``t`` too), and ``exp`` and
    ``pow`` turn a Python overflow into inf, so `finite` reports every
    overflow at its node.
    """

    sin, cos, log, sqrt, abs = math.sin, math.cos, math.log, math.sqrt, abs
    sign = staticmethod(lambda v: math.copysign(1.0, v) if v else 0.0)
    take = operator.getitem
    any = staticmethod(lambda *masks: all(masks))
    all, not_ = bool, operator.not_
    where = staticmethod(lambda mask, a, b: a if mask else b)
    check = staticmethod(lambda: None)  # `finite` has raised at the node

    def __init__(self, kink_tol):
        self.kink_tol = kink_tol

    @staticmethod
    def exp(v):
        try:
            return math.exp(v)
        except OverflowError:  # above about 709.78; `finite` refuses the inf
            return math.inf

    @staticmethod
    def pow(base, expo):
        try:
            return base**expo
        except OverflowError:  # `finite` refuses the inf
            return math.inf

    @staticmethod
    def finite(v, where):
        if not math.isfinite(v.value if type(v) is Dual else v):
            raise EvalDomainError(f"non-finite value in '{where}'")
        return v

    @staticmethod
    def extremes(values, smallest):
        keyed = sorted(range(len(values)), key=values.__getitem__)
        return (keyed[0], keyed[1]) if smallest else (keyed[-1], keyed[-2])


class _Batch:
    """Many index points at once: numpy arrays, or batched duals.

    Over a point list a t-variable is a column of shape (n,).  Over a
    product grid of m axes, axis a is an array shaped (n_a, 1, ..., 1),
    with m - 1 - a ones, and numpy broadcasting computes each node over
    exactly the axes (and decision-point rows) it reads.  An x-variable
    is a number; a column (n,), or (k, 1, ..., 1) over a grid, when each
    index point or each of k rows has its own decision point; or a Dual
    with partials of shape (p, 1), so Dual arithmetic broadcasts to
    partials of shape (p, n).  Where the scalar kit checks a node for
    finiteness, this one adds its values into `acc`, one running sum per
    value shape, tested once by `check`.
    """

    sin, cos, log, sqrt, abs, exp, sign = np.sin, np.cos, np.log, np.sqrt, np.abs, np.exp, np.sign
    pow = staticmethod(np.power)
    any = staticmethod(lambda *masks: np.any(functools.reduce(operator.and_, masks)))
    all, not_, where = staticmethod(np.all), np.logical_not, staticmethod(np.where)

    def __init__(self, kink_tol):
        self.acc = {}
        self.kink_tol = kink_tol

    def finite(self, v, where):
        value = _val(v)
        acc = self.acc.get(np.shape(value))
        if acc is None:
            self.acc[np.shape(value)] = np.array(value, dtype=float)
        else:
            np.add(acc, value, out=acc)
        return v

    def check(self):
        # a finite sum proves every summand finite; a non-finite one (or one
        # that only overflowed) sends the caller to the scalar loop
        if not all(np.isfinite(acc).all() for acc in self.acc.values()):
            raise EvalDomainError("non-finite value")

    @staticmethod
    def extremes(values, smallest):
        # a stable sort picks among ties as the scalar sort does
        values = np.array(np.broadcast_arrays(*map(np.atleast_1d, values)))
        order = np.argsort(values, axis=0, kind="stable")
        return (order[0], order[1]) if smallest else (order[-1], order[-2])

    @staticmethod
    def take(items, i):
        # per point, the item `i` picks there; the points run along the last axis
        *items, i = np.broadcast_arrays(*items, i)
        return np.take_along_axis(np.array(items), i[None], axis=0)[0]


class _Unbatchable(Exception):
    """The scalar walk keeps a value plain at some index points, dual at others."""


_BATCH_FAILURES = (ExprError, ArithmeticError, _Unbatchable)


# ---------------------------------------------------------------------------
# Rules: one per operator, over a kit `K`


def _divide(K, a, b):
    if K.any(_val(b) == 0.0):
        raise EvalDomainError("division by zero")
    return K.finite(a / b, "/")


def _power(K, base, expo):
    bv, ev = _val(base), _val(expo)
    dual_b, dual_e = type(base) is Dual, type(expo) is Dual
    # the integer rule holds where the exponent is integer-valued and has
    # zero x-partials; elsewhere the general rule needs a positive base
    integer = ev % 1.0 == 0.0
    if dual_e:
        integer = integer & ~expo.partials.any(axis=0)
    if K.any(integer, bv == 0.0, ev < 0.0):
        raise EvalDomainError("zero raised to a negative power")
    general = K.not_(integer)
    if K.any(general, bv < 0.0):
        raise EvalDomainError("negative base with non-integer exponent")
    if K.any(general, bv == 0.0, dual_b or dual_e or ev <= 0.0):
        raise EvalDomainError("zero base with non-integer or non-constant exponent")
    value = K.finite(K.pow(bv, ev), "^")
    if not dual_b and (not dual_e or K.all(integer)):
        return value
    if not dual_b and K.any(integer):
        raise _Unbatchable  # the integer rule on a plain base gives a plain value
    bp = base.partials if dual_b else 0.0
    if K.any(integer):  # d(u^n) = n u^(n-1) u', and 0 for n = 0, where u^-1 is not formed
        slope = ev * K.pow(bv, K.where(ev == 0.0, 1.0, ev) - 1.0)
        whole = K.where(ev == 0.0, 0.0, slope) * bp
        if K.all(integer):
            return Dual(value, whole)
    ep = expo.partials if dual_e else 0.0
    partials = value * (ep * K.log(bv) + ev * bp / bv)
    return Dual(value, K.where(integer, whole, partials) if K.any(integer) else partials)


def _sin(K, u):
    v = _val(u)
    return Dual(K.sin(v), K.cos(v) * u.partials) if type(u) is Dual else K.sin(v)


def _cos(K, u):
    v = _val(u)
    return Dual(K.cos(v), -K.sin(v) * u.partials) if type(u) is Dual else K.cos(v)


def _exp(K, u):
    r = K.exp(_val(u))
    return K.finite(Dual(r, r * u.partials) if type(u) is Dual else r, "exp")


def _log(K, u):
    v = _val(u)
    if K.any(v <= 0.0):
        raise EvalDomainError("log of a nonpositive value")
    return Dual(K.log(v), u.partials / v) if type(u) is Dual else K.log(v)


def _sqrt(K, u):
    v = _val(u)
    if K.any(v < 0.0):
        raise EvalDomainError("sqrt of a negative value")
    if type(u) is not Dual:
        return K.sqrt(v)
    if _kinked(K, v == 0.0, u.partials):
        raise EvalDomainError("sqrt differentiated at zero")
    r = K.sqrt(v)
    # where r = 0 the partials are zero (checked above), and stay so
    return Dual(r, u.partials / K.where(r != 0.0, 2.0 * r, math.inf))


def _abs(K, u):
    v = _val(u)
    if type(u) is not Dual:
        return K.abs(v)
    if _kinked(K, K.abs(v) <= K.kink_tol, u.partials):
        raise KinkError("abs differentiated at its kink")
    return Dual(K.abs(v), K.sign(v) * u.partials)


def _extreme(name, K, *args):
    values = [_val(a) for a in args]
    best, second = K.extremes(values, name == "min")
    value = K.take(values, best)
    duals = [a for a in args if type(a) is Dual]
    if not duals:
        return value
    # a plain argument has zero partials, also where another argument's are
    # infinite: where it is picked, the result's partials are zero
    zero = np.zeros(duals[0].partials.shape)
    parts = [a.partials if type(a) is Dual else zero for a in args]
    partials = K.take(parts, best)
    tie = K.abs(value - K.take(values, second)) <= K.kink_tol
    if _kinked(K, tie, partials, K.take(parts, second)):
        raise KinkError(f"{name} differentiated at a tie")
    plain = K.take([type(a) is not Dual for a in args], best)
    return Dual(value, K.where(plain, zero, partials))


def _kinked(K, at, p, q=0.0):
    # whether the partials p and q differ at some point of the mask `at`
    return K.any(at) and K.any(at, (p != q).any(axis=0))


# name: (rule, arity); a rule takes the kit, then the values of its
# arguments.  A function's arity is (fewest, most or None) arguments; an
# operator's (None) is fixed by the grammar.
_OPS = {
    "+": (lambda K, a, b: K.finite(a + b, "+"), None),
    "-": (lambda K, a, b: K.finite(a - b, "-"), None),
    "*": (lambda K, a, b: K.finite(a * b, "*"), None),
    "/": (_divide, None),
    "^": (_power, None),
    "neg": (lambda K, u: -u, None),
    "sin": (_sin, (1, 1)),
    "cos": (_cos, (1, 1)),
    "exp": (_exp, (1, 1)),
    "log": (_log, (1, 1)),
    "sqrt": (_sqrt, (1, 1)),
    "abs": (_abs, (1, 1)),
    "min": (functools.partial(_extreme, "min"), (2, None)),
    "max": (functools.partial(_extreme, "max"), (2, None)),
}

FUNCTIONS = tuple(name for name, (_, arity) in _OPS.items() if arity)


def _walk(entries, values, xs, ts, K, last=None):
    """Compute the tape ``entries``, (slot, (op, args)) pairs in slot order
    (each one's arguments among them or already in ``values``), into
    ``values`` in kit K, the leaves' values taken from xs and ts.

    Each node is computed where a recursive walk of the tree first reaches
    it; a repeat would compute the same value from the same inputs, so the
    values, dual partials and first error are the tree walk's.  No rule may
    mutate its arguments: a slot can feed several nodes.  The batch kit's
    finiteness sum adds each distinct node once, which still proves every
    node finite; its columns are dropped after their last use (``last``).
    """
    for i, (op, args) in entries:
        if op == "num":
            values[i] = args
        elif op == "x":
            values[i] = xs[args]
        elif op == "t":
            values[i] = ts[args]
        else:
            rule = _OPS[op][0]
            if len(args) == 2:  # read directly: a comprehension costs a frame
                values[i] = rule(K, values[args[0]], values[args[1]])
            else:
                values[i] = rule(K, *[values[a] for a in args])
            for a in args if last else ():
                if last[a] == i:
                    values[a] = None


def _reads(tape, roots):
    """The slots the ``roots`` read, themselves included, ascending."""
    need = bytearray(len(tape))
    for s in roots:
        need[s] = 1
    for i in range(max(roots, default=-1), -1, -1):
        if need[i] and tape[i][0] not in _LEAVES:
            for a in tape[i][1]:
                need[a] = 1
    return [i for i, n in enumerate(need) if n]


# ---------------------------------------------------------------------------
# Evaluation


_SCALAR = _Scalar(DEFAULT_KINK_TOL)


def _run(f, xs, ts, K, shape=None, rows=None):
    """The results of ``f`` (an ExprFn or an ExprList) in kit K: every member's,
    or those of the members ``rows`` (ascending); with ``shape``, each
    result's gradient (see :func:`_partials`).

    Over every member, the slots are walked member by member and each result
    is checked once its member's slots are done, so the first error is that
    of a loop over the members.  Over ``rows``, one walk computes the slots
    those members read; its error need not be the loop's.
    """
    tape = f.tape
    values = [None] * len(tape)
    last = None
    if isinstance(K, _Batch):  # one output, never read: drop each column after its last read
        last = {a: i for i, (op, args) in enumerate(tape) if op not in _LEAVES for a in args}
    out, done = [], 0  # the slots before `done` are walked
    with np.errstate(all="ignore"):
        if rows is None:
            outputs = f.outputs
        else:
            outputs = [f.outputs[r] for r in rows]
            _walk([(i, tape[i]) for i in _reads(tape, outputs)], values, xs, ts, K)
            done = len(tape)
        for slot in outputs:
            if slot >= done:
                _walk(enumerate(tape[done : slot + 1], done), values, xs, ts, K, last)
                done = slot + 1
            v = K.finite(values[slot], "result")
            out.append(v if shape is None else _partials(v, shape))
    K.check()
    return out


def _partials(out, shape):
    # the gradient in a walk's result, zero where constant in x; -0.0 becomes 0.0
    if not isinstance(out, Dual):
        return np.zeros(shape)
    g = out.partials + np.zeros(shape)
    if not np.isfinite(g).all():
        raise EvalDomainError("non-finite gradient component")
    return g


def _coerce_point(v, arity, what):
    arr = np.asarray(v, dtype=float).reshape(-1) if v is not None else np.zeros(0)
    if arr.size != arity:
        raise EvalDomainError(f"{what} has dimension {arr.size}, expected {arity}")
    if not all(map(math.isfinite, arr.tolist())):
        raise EvalDomainError(f"non-finite component in {what}")
    return arr


def evaluate(f: ExprFn, x, t=None) -> float:
    """IEEE-evaluate ``f`` at ``x`` (and index point ``t`` if applicable)."""
    xs = _coerce_point(x, f.arity_x, "x").tolist()
    ts = _coerce_point(t, f.arity_t, "t").tolist()
    return _run(f, xs, ts, _SCALAR)[0]


def gradient(f: ExprFn, x, t=None, kink_tol: float = DEFAULT_KINK_TOL) -> np.ndarray:
    """Exact forward-mode gradient of ``f`` in the x-variables."""
    xs = _coerce_point(x, f.arity_x, "x").tolist()
    ts = _coerce_point(t, f.arity_t, "t").tolist()
    duals = [Dual(v, e) for v, e in zip(xs, np.eye(f.arity_x))]
    return _run(f, duals, ts, _Scalar(kink_tol), f.arity_x)[0]


def evaluate_list(fs: ExprList, x) -> np.ndarray:
    """The values at ``x`` of every member of ``fs``, in one walk of its tape.

    The values and the first error are those of a loop of :func:`evaluate`
    over the members (see :func:`_run`).
    """
    if not len(fs):
        return np.zeros(0)
    return np.array(_run(fs, _coerce_point(x, fs.arity_x, "x").tolist(), (), _SCALAR))


def gradient_list(fs: ExprList, x, rows=None, kink_tol: float = DEFAULT_KINK_TOL) -> np.ndarray:
    """Gradients at ``x`` of the members ``rows`` of ``fs`` (ascending and
    distinct; all if None), one row each, in one dual walk of the slots
    they read.

    Equal to a loop of :func:`gradient` over those members.  Over every
    member the walk's first error is that loop's; when a walk over some
    members raises, the loop runs and decides the error.
    """
    p = fs.arity_x
    every = rows is None or len(rows) == len(fs)
    if not len(fs.outputs if every else rows):
        return np.zeros((0, p))
    xs = _coerce_point(x, p, "x")
    duals = [Dual(v, e) for v, e in zip(xs.tolist(), np.eye(p))]
    K = _Scalar(kink_tol)
    if every:
        return np.array(_run(fs, duals, (), K, p))
    try:
        return np.array(_run(fs, duals, (), K, p, rows))
    except ExprError:
        return np.array([gradient(fs[r], xs, kink_tol=kink_tol) for r in rows])


def evaluate_many(f: ExprFn, x, tpoints) -> np.ndarray:
    """Evaluate ``f`` across many index points.

    ``tpoints`` is an (n, arity_t) array, or a product grid given as the
    tuple of its axes, one 1-D array per t-variable: its n = n_1 ... n_m
    points in C order, the last axis varying fastest.  ``x`` is one
    decision point, or a (k, arity_x) array of them.  Over a point list
    row i pairs with index point i (k = n); over a grid every row pairs
    with every grid point, sample-major, so the k n pairs are those of
    ``np.repeat(x, n, axis=0)`` and ``np.tile(points, (k, 1))``.  The result
    is one value per pair, shape (n,) or (k n,), in that order.

    Equivalent to a loop of :func:`evaluate` calls over the pairs (but for
    the last bit of ``exp``, ``log`` and ``^``, see the module docstring),
    in one tape walk with one finiteness test; over a grid each node is
    computed over only the axes and rows it reads.  When the walk flags a
    point or a non-finite value, that loop runs and decides the values or
    the error.
    """
    grid = isinstance(tpoints, tuple)
    tpoints = _grid_axes(f, tpoints) if grid else _index_points(f, tpoints)
    if np.ndim(x) == 2:
        x = np.asarray(x, dtype=float)
        expected = (len(x) if grid else len(tpoints), f.arity_x)
        if x.shape != expected:
            raise EvalDomainError(f"x has shape {x.shape}, expected {expected}")
        if not np.isfinite(x).all():
            raise EvalDomainError("non-finite component in x")
    else:
        x = _coerce_point(x, f.arity_x, "x")
    try:
        return _values_batched(f, x, tpoints)
    except _BATCH_FAILURES:
        return np.array([evaluate(f, xp, t) for xp, t in _pairs(x, tpoints)])


def gradient_many(f: ExprFn, x, tpoints, kink_tol: float = DEFAULT_KINK_TOL) -> np.ndarray:
    """Gradients in x of ``f`` at one decision point across many index points.

    ``tpoints`` is an (n, arity_t) array; the result has shape (n, arity_x).
    Equivalent to stacking :func:`gradient` over the points, in one tape
    walk of batched duals; an error is the one that loop raises.
    """
    xs = _coerce_point(x, f.arity_x, "x")
    tarr = _index_points(f, tpoints)
    try:
        return _gradients_batched(f, xs, tarr, kink_tol)
    except _BATCH_FAILURES:
        return np.array([gradient(f, xs, t, kink_tol) for t in tarr]).reshape(len(tarr), f.arity_x)


def _values_batched(f, x, tpoints):
    # the values of evaluate_many in one batch walk: x one decision point
    # (p,) or rows (k, p), tpoints an (n, m) array or a grid's axes
    if isinstance(tpoints, tuple):  # each axis, and the rows, on a dimension of its own
        m = len(tpoints)
        shape = x.shape[:-1] + tuple(map(len, tpoints))
        ts = [a.reshape((-1,) + (1,) * (m - 1 - i)) for i, a in enumerate(tpoints)]
        xs = x.T.reshape(x.shape[::-1] + (1,) * m) if x.ndim == 2 else x
    else:  # row i with point i: columns
        shape, ts, xs = (len(tpoints),), list(tpoints.T), x.T
    out = _run(f, xs, ts, _Batch(DEFAULT_KINK_TOL))[0]
    return np.broadcast_to(out, shape).astype(float).reshape(-1)


def _pairs(x, tpoints):
    # evaluate_many's (decision point, index point) pairs, in its order
    if isinstance(tpoints, tuple):
        axes = [a.tolist() for a in tpoints]
        return ((xp, t) for xp in (x if x.ndim == 2 else [x]) for t in itertools.product(*axes))
    return zip(x if x.ndim == 2 else itertools.repeat(x), tpoints)


def _gradients_batched(f, xs, tarr, kink_tol):
    p = f.arity_x
    duals = [Dual(xs[i], e[:, None]) for i, e in enumerate(np.eye(p))]
    out = _run(f, duals, list(tarr.T), _Batch(kink_tol), (p, len(tarr)))[0]
    return np.ascontiguousarray(out.T)


def _index_points(f, tpoints):
    tarr = np.asarray(tpoints, dtype=float)
    if tarr.ndim == 1:
        tarr = tarr.reshape(-1, 1) if f.arity_t == 1 else tarr.reshape(1, -1)
    if tarr.ndim != 2:
        raise EvalDomainError(f"index points have shape {tarr.shape}, expected (n, {f.arity_t})")
    if tarr.shape[1] != f.arity_t:
        raise EvalDomainError(
            f"index points have dimension {tarr.shape[1]}, expected {f.arity_t}"
        )
    if not np.isfinite(tarr).all():
        raise EvalDomainError("non-finite component in index points")
    return tarr


def _grid_axes(f, axes):
    if len(axes) != f.arity_t:
        raise EvalDomainError(f"index grid has {len(axes)} axes, expected {f.arity_t}")
    axes = tuple(np.asarray(a, dtype=float) for a in axes)
    if any(a.ndim != 1 for a in axes):
        raise EvalDomainError("grid axes must be 1-D arrays")
    if not all(np.isfinite(a).all() for a in axes):
        raise EvalDomainError("non-finite component in index points")
    return axes


# ---------------------------------------------------------------------------
# Tokenizer / parser

# One token after optional whitespace: an operator, an identifier or a
# number, captured; any other non-space character is matched uncaptured, so
# `findall` gives it as "".  Trailing whitespace matches nothing.
_TOKEN_RE = re.compile(
    r"\s*(?:(\*\*|[-+*/^(),]|[A-Za-z_][A-Za-z_0-9]*|(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)|\S)"
)
_IDENT_START = frozenset(string.ascii_letters + "_")
_PUNCTUATION = frozenset(("**", "+", "-", "*", "/", "^", "(", ")", ","))

MAX_DEPTH = 100  # parentheses, calls, unary signs and "^" operands, counted together


def _offset(src, k):
    """The offset in ``src`` of its token ``k``; the end of ``src`` past the last token."""
    for j, m in enumerate(_TOKEN_RE.finditer(src)):
        if j == k:
            return m.end() - len(m.group().lstrip())  # the match less its whitespace
    return len(src)


class _Parser(_Tape):
    """Recursive descent over the token strings; ``i`` indexes the next token.

    Each method interns the node it read into the parser's own tape, after
    its children (post-order), and returns its slot; :meth:`read` parses one
    string, so the strings of a list share the tape.  A token's offset is
    found only for an error, by scanning ``src`` again."""

    def __init__(self, arity_x, arity_t):
        self.arity = {"x": arity_x, "t": arity_t}
        self.leaves = {}  # the slot of each variable or number token read so far

    def read(self, src):
        """Parse ``src`` into the tape: the slot of its result."""
        if not src or not src.strip():
            raise ParseError("empty expression", 0, ("number", "variable", "function", "("))
        self.src = src
        self.tokens = _TOKEN_RE.findall(src)
        if "" in self.tokens:  # a bad character, reported before any syntax error
            offset = _offset(src, self.tokens.index(""))
            raise ParseError(
                f"unexpected character {src[offset]!r}", offset, ("number", "variable", "operator")
            )
        self.tokens.append("")  # end of input
        self.i = 0
        self.depth = 0
        node = self.expr()
        if self.tokens[self.i]:
            expected = ("operator", "end of input")
            raise self.error(f"unexpected token {self.tokens[self.i]!r}", self.i, expected)
        return node

    def error(self, message, k, expected=()):
        return ParseError(message, _offset(self.src, k), expected)

    def nest(self, k):
        # token k opens one more level
        if self.depth == MAX_DEPTH:
            raise self.error(f"expression nested deeper than {MAX_DEPTH} levels", k)
        self.depth += 1

    def expr(self):
        node = self.term()
        while (op := self.tokens[self.i]) == "+" or op == "-":
            self.i += 1
            node = self.add(op, (node, self.term()))
        return node

    def term(self):
        node = self.factor()
        while (op := self.tokens[self.i]) == "*" or op == "/":
            self.i += 1
            node = self.add(op, (node, self.factor()))
        return node

    def factor(self):
        # a signed factor, or an atom with an optional right-associative power
        k = self.i
        tok = self.tokens[k]
        if tok == "-" or tok == "+":
            self.nest(k)
            self.i = k + 1
            node = self.factor()
            self.depth -= 1
            return self.add("neg", (node,)) if tok == "-" else node
        node = self.atom()
        k = self.i
        if self.tokens[k] in ("^", "**"):
            self.nest(k)
            self.i = k + 1
            node = self.add("^", (node, self.factor()))
            self.depth -= 1
        return node

    def atom(self):
        k = self.i
        tok = self.tokens[k]
        self.i = k + 1
        slot = self.leaves.get(tok)
        if slot is not None:  # a leaf token read before: its checks passed
            return slot
        if tok[:1] in _IDENT_START:
            return self.ident(tok, k)
        if tok == "(":
            self.nest(k)
            node = self.expr()
            self.expect(")")
            self.depth -= 1
            return node
        if tok and tok not in _PUNCTUATION:
            value = float(tok)
            if not math.isfinite(value):
                raise self.error(f"numeric literal {tok!r} overflows", k, ("finite number",))
            slot = self.leaves[tok] = self.add("num", value)
            return slot
        expected = ("number", "variable", "function", "(")
        raise self.error(f"unexpected token {tok or 'end of input'!r}", k, expected)

    def ident(self, name, k):
        if name in FUNCTIONS:
            self.expect("(")
            self.nest(k + 1)
            args = [self.expr()]
            while self.tokens[self.i] == ",":
                self.i += 1
                args.append(self.expr())
            self.expect(")")
            self.depth -= 1
            lo, hi = _OPS[name][1]
            if len(args) < lo or (hi is not None and len(args) > hi):
                count = lo if hi else f"at least {lo}"
                raise self.error(f"{name} takes {count} argument(s)", k)
            return self.add(name, tuple(args))
        kind, digits = name[0], name[1:]
        if kind not in "xt" or not digits.isdigit():  # an identifier's digits are ASCII
            raise self.error(f"unknown identifier {name!r}", k, ("variable", "function"))
        idx = int(digits)
        if idx < 1:
            raise self.error(f"variable index in {name!r} must start at 1", k)
        arity = self.arity[kind]
        if idx > arity:
            message = f"variable {name!r} exceeds declared arity ({kind}-dimension {arity})"
            raise self.error(message, k)
        slot = self.leaves[name] = self.add(kind, idx - 1)
        return slot

    def expect(self, text):
        k = self.i
        found = self.tokens[k]
        if found != text:
            raise self.error(f"expected {text!r}, found {found or 'end of input'!r}", k, (text,))
        self.i = k + 1


def parse(src: str, arity_x: int, arity_t: int = 0) -> ExprFn:
    """Parse ``src`` into an :class:`ExprFn` over x1..x{arity_x}, t1..t{arity_t}.

    Raises :class:`ParseError` for a bad character (the first one, before
    any syntax is read), a syntax or arity error, an overflowing literal, or
    nesting deeper than ``MAX_DEPTH`` levels.
    """
    parser = _Parser(arity_x, arity_t)
    parser.read(src)  # the result is the last slot
    return ExprFn(parser.tape(), arity_x, arity_t)


def parse_list(srcs, arity_x: int) -> ExprList:
    """Parse the strings ``srcs`` over x1..x{arity_x} into one :class:`ExprList`,
    in list order.

    Member i equals ``parse(srcs[i], arity_x)``.  The error is that of the
    first bad string, as :func:`parse` raises it, with its place in
    ``srcs`` as the error's ``index``.
    """
    parser, outputs = _Parser(arity_x, 0), []
    for i, src in enumerate(srcs):
        try:
            outputs.append(parser.read(src))
        except ParseError as err:
            err.index = i
            raise
    return ExprList(parser.tape(), tuple(outputs), arity_x)


# ---------------------------------------------------------------------------
# Printing (parse -> print -> parse round-trips to an identical tape)

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}  # a leaf or a call: 9


def format_expr(f: ExprFn) -> str:
    texts = []  # (text, precedence) per slot, dropped after the last node that reads it
    last = {a: i for i, (op, args) in enumerate(f.tape) if op not in _LEAVES for a in args}
    for i, (op, args) in enumerate(f.tape):
        prec = _PREC.get(op, 9)
        if op == "num":
            text = str(int(args)) if args.is_integer() and abs(args) < 1e16 else repr(args)
        elif op == "x" or op == "t":
            text = f"{op}{args + 1}"
        elif op == "neg":
            inner, inner_prec = texts[args[0]]
            text = f"-({inner})" if inner_prec < prec else f"-{inner}"
        elif prec == 9:
            text = f"{op}({', '.join(texts[a][0] for a in args)})"
        else:
            # the lowest precedence each operand keeps without parentheses
            (left, lp), (right, rp) = texts[args[0]], texts[args[1]]
            left_min, right_min = (prec + 1, _PREC["neg"]) if op == "^" else (prec, prec + 1)
            left = f"({left})" if lp < left_min else left
            right = f"({right})" if rp < right_min else right
            text = f"{left}^{right}" if op == "^" else f"{left} {op} {right}"
        texts.append((text, prec))
        for a in args if op not in _LEAVES else ():
            if last[a] == i:
                texts[a] = None
    return texts[-1][0]


# ---------------------------------------------------------------------------
# Substitution (used to compose constraint families through an inner map)


def linear_expr(coeffs, constant: float, arity_x: int) -> ExprFn:
    """The affine expression sum_i coeffs[i]*x(i+1) + constant as an ExprFn."""
    return ExprFn(linear_list([coeffs], [constant], arity_x).tape, arity_x)


def linear_list(rows, constants, arity_x: int) -> ExprList:
    """The affine expressions sum_i rows[k][i]*x(i+1) + constants[k], in the
    order of k, as one ExprList."""
    tape, outputs = _Tape(), []
    for coeffs, constant in zip(rows, constants):
        node = tape.add("num", float(constant))
        for i, c in enumerate(coeffs):
            node = tape.add("+", (node, tape.add("*", (tape.add("num", float(c)), tape.add("x", i)))))
        outputs.append(node)
    return ExprList(tape.tape(), tuple(outputs), arity_x)


def substitute(f, inner):
    """Replace each x-variable of ``f`` (an ExprFn or an ExprList) by the
    corresponding inner expression (``inner``: ExprFns, or an ExprList).

    The result, of the same kind as ``f``, is the literal composite over the
    inner expressions' x-variables, and t-variables of ``f`` pass through
    unchanged.  Each inner expression is interned once, where a member first
    reads it, and every later read is its slot: the composites share it.
    """
    if len(inner) != f.arity_x:
        raise EvalDomainError(
            f"inner map has {len(inner)} components, expected {f.arity_x}"
        )
    try:
        inner = ExprList.of(inner)
    except ValueError:
        raise EvalDomainError("inner map components must share arity and use no t-variables") from None
    table, read = _Tape(), {}

    def x_slot(i):
        if i not in read:  # in the component's own post-order, as its composites hold it
            read[i] = table.add_tape(inner.tape, order=inner.post_order(i))[inner.outputs[i]]
        return read[i]

    slots = table.add_tape(f.tape, x_slot)
    if isinstance(f, ExprList):
        return ExprList(table.tape(), tuple([slots[s] for s in f.outputs]), inner.arity_x)
    return ExprFn(table.tape(), inner.arity_x, f.arity_t)
