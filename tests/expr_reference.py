"""The expression parser as it was before the one-pass tokenizer: the reference.

``_tokenize`` matches one token (or one run of whitespace) at a time and
``_Parser`` reads (kind, text, offset) triples.  ``sipcert.expr.parse`` must
give the same ASTs and the same ``ParseError`` (message, offset, expected)
on every input this parser accepts or refuses; it has no nesting limit,
so it is compared on inputs nested less deeply than ``expr.MAX_DEPTH``.
"""

import math
import re

from sipcert.expr import _OPS, FUNCTIONS, Bin, Call, ExprFn, Neg, Num, ParseError, Var

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
    if not src or not src.strip():
        raise ParseError("empty expression", 0, ("number", "variable", "function", "("))
    ast = _Parser(src, arity_x, arity_t).parse()
    return ExprFn(ast, arity_x, arity_t)
