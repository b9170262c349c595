"""The expression module as it was before its tape: the reference, for tests only.

The tree: the node classes ``Num``, ``Var``, ``Neg``, ``Bin`` and ``Call``,
the recursive walker ``walk`` (which ``evaluate`` and ``gradient`` run with
``sipcert.expr``'s rules and scalar kit), the printer ``fmt`` and the
substitution ``subst``.  ``to_tape`` converts a tree into the tape that
``sipcert.expr`` builds for it, with an interning table of its own: the
distinct nodes in the post-order of their first occurrence, constants keyed
by their bits.

The parser as it was before the one-pass tokenizer: ``_tokenize`` matches
one token (or one run of whitespace) at a time and ``_Parser`` reads
(kind, text, offset) triples into a tree.  ``sipcert.expr.parse`` must give
the tape of the same tree and the same ``ParseError`` (message, offset,
expected) on every input this parser accepts or refuses; it has no nesting
limit, so it is compared on inputs nested less deeply than
``expr.MAX_DEPTH``.  The recursive functions here are as deep as the tree.
"""

import math
import re
from dataclasses import dataclass

import numpy as np

from sipcert.expr import _OPS, _SCALAR, DEFAULT_KINK_TOL, FUNCTIONS, Dual, ParseError, _partials, _Scalar


@dataclass(slots=True, unsafe_hash=True)
class Num:
    value: float


@dataclass(slots=True, unsafe_hash=True)
class Var:
    kind: str  # 'x' or 't'
    index: int  # 0-based


@dataclass(slots=True, unsafe_hash=True)
class Neg:
    arg: object


@dataclass(slots=True, unsafe_hash=True)
class Bin:
    op: str  # '+', '-', '*', '/', '^'
    left: object
    right: object


@dataclass(slots=True, unsafe_hash=True)
class Call:
    func: str
    args: tuple


def walk(node, xs, ts, K):
    """The value of `node` in kit K, the leaves' values taken from xs and ts."""
    kind = type(node)
    if kind is Num:
        return node.value
    if kind is Var:
        return xs[node.index] if node.kind == "x" else ts[node.index]
    if kind is Bin:
        return _OPS[node.op][0](K, walk(node.left, xs, ts, K), walk(node.right, xs, ts, K))
    if kind is Neg:
        return _OPS["neg"][0](K, walk(node.arg, xs, ts, K))
    return _OPS[node.func][0](K, *[walk(a, xs, ts, K) for a in node.args])


def _run(node, xs, ts, K):
    with np.errstate(all="ignore"):
        return K.finite(walk(node, xs, ts, K), "result")


def evaluate(node, x, t=()):
    """``sipcert.expr.evaluate`` on a tree, for a finite point of the right dimensions."""
    return _run(node, [float(v) for v in x], [float(v) for v in t], _SCALAR)


def gradient(node, x, t=(), kink_tol=DEFAULT_KINK_TOL):
    """``sipcert.expr.gradient`` on a tree, for a finite point of the right dimensions."""
    xs = [float(v) for v in x]
    duals = [Dual(v, e) for v, e in zip(xs, np.eye(len(xs)))]
    return _partials(_run(node, duals, [float(v) for v in t], _Scalar(kink_tol)), len(xs))


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _prec(node):
    if type(node) is Bin:
        return _PREC[node.op]
    if type(node) is Neg:
        return _PREC["neg"]
    return 9


def fmt(node):
    if type(node) is Num:
        v = node.value
        return str(int(v)) if v.is_integer() and abs(v) < 1e16 else repr(v)
    if type(node) is Var:
        return f"{node.kind}{node.index + 1}"
    if type(node) is Neg:
        inner = fmt(node.arg)
        if _prec(node.arg) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if type(node) is Call:
        return f"{node.func}({', '.join(fmt(a) for a in node.args)})"
    op = node.op
    lp, rp = fmt(node.left), fmt(node.right)
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


def subst(node, xmap):
    if type(node) is Num:
        return node
    if type(node) is Var:
        if node.kind == "x":
            return xmap[node.index]
        return node
    if type(node) is Neg:
        return Neg(subst(node.arg, xmap))
    if type(node) is Bin:
        return Bin(node.op, subst(node.left, xmap), subst(node.right, xmap))
    return Call(node.func, tuple(subst(a, xmap) for a in node.args))


def to_tape(node):
    """The tape of a tree: its distinct nodes in the post-order of their first occurrence."""
    slots, tape = {}, []

    def visit(node):
        kind = type(node)
        if kind is Num:
            entry, key = ("num", node.value), ("num", node.value.hex())
        else:
            if kind is Var:
                entry = (node.kind, node.index)
            elif kind is Neg:
                entry = ("neg", (visit(node.arg),))
            elif kind is Bin:
                entry = (node.op, (visit(node.left), visit(node.right)))
            else:
                entry = (node.func, tuple([visit(a) for a in node.args]))
            key = entry
        if key not in slots:
            slots[key] = len(tape)
            tape.append(entry)
        return slots[key]

    visit(node)
    return tuple(tape)


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
        lo, hi = _OPS[name][1]
        if n < lo or (hi is not None and n > hi):
            raise ParseError(f"{name} takes {lo if hi else 'at least ' + str(lo)} argument(s)", pos)

    def expect(self, text):
        kind, got, pos = self.peek()
        if got != text:
            raise ParseError(f"expected {text!r}, found {got or 'end of input'!r}", pos, (text,))
        self.advance()


def parse(src, arity_x, arity_t=0):
    """The tree of ``src``."""
    if not src or not src.strip():
        raise ParseError("empty expression", 0, ("number", "variable", "function", "("))
    return _Parser(src, arity_x, arity_t).parse()
