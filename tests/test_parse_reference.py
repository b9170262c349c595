"""`expr.parse` against the reference parser in `expr_reference.py`.

`parse`'s tape must be the reference tree's, converted by
`expr_reference.to_tape`, or both must raise errors with equal message,
offset and expected list, on every expression of the bundled fixtures and
of the benchmark instances, on a fixed list of malformed strings, and on random
strings over the grammar's alphabet.
"""

import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import expr_reference
from sipcert import expr
from sipcert.fixtures import fixture_names, fixture_path

ROOT = Path(__file__).resolve().parents[1]
BENCH_SEEDS = (7, 5151)

MALFORMED = [
    "x1 + x2   ",  # trailing whitespace (accepted)
    "x1 + é",
    "٣",  # a Unicode digit: `\d` takes it, and float() reads 3.0
    "x1 * ٣.5",
    "1_000",
    "0x10",
    "max(x1,)",
    "x1 ) $",
    "1e999",
    "sin + 1",
    ".",
    "x1 .",
    "1..5",
    "1.e5 + .5E-3",
    "x0",
    "x3",
    "t1",
    "y1",
    "x",
    "sin(x1, x2)",
    "max(x1)",
    "exp()",
    "(x1",
    "x1)",
    "x1 +",
    "* x1",
    "x1 x2",
    "x1 ** -x2 ^ 2",
    "--+-x1",
    "x1²",
    "x1\t+\nx2 - 1",
    "x1 $ é",
    "",
    "   ",
]


def _expressions(doc):
    """(source, arity_x, arity_t) of every expression in a problem file."""
    p = doc["dimension"]
    inner = doc.get("inner_map", [])
    q = len(inner) or p
    found = [(doc["objective"], p, 0)]
    found += [(s, p, 0) for s in inner + doc.get("equality", [])]
    constraints = doc.get("constraints") or {}
    found += [(s, q, 0) for s in constraints.get("finite", [])]
    if "parametric" in constraints:
        spec = constraints["parametric"]
        found.append((spec["h"], q, spec["t_dim"]))
    return found


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import instances
    finally:
        sys.path.remove(str(ROOT / "bench"))
    paths = [fixture_path(name) for name in fixture_names()]
    tmp = tmp_path_factory.mktemp("instances")
    for seed in BENCH_SEEDS:
        for workload in instances.WORKLOADS:
            paths += [inst.path for inst in instances.build(workload, seed, tmp / f"{workload}@{seed}")]
    found = []
    for path in paths:
        found += _expressions(json.loads(Path(path).read_text()))
    return found


def outcome(parse, src, arity_x, arity_t):
    try:
        return parse(src, arity_x, arity_t)
    except expr.ParseError as err:
        return str(err), err.offset, err.expected


def assert_same(src, arity_x, arity_t):
    got = outcome(lambda *args: expr.parse(*args).tape, src, arity_x, arity_t)
    tree_tape = lambda *args: expr_reference.to_tape(expr_reference.parse(*args))  # noqa: E731
    assert got == outcome(tree_tape, src, arity_x, arity_t), src


def test_every_fixture_and_benchmark_expression(corpus):
    assert len(corpus) > 150
    for src, arity_x, arity_t in corpus:
        assert isinstance(expr.parse(src, arity_x, arity_t), expr.ExprFn)
        assert_same(src, arity_x, arity_t)


@pytest.mark.parametrize("src", MALFORMED)
@pytest.mark.parametrize("arity_x, arity_t", [(2, 1), (3, 0)])
def test_malformed_strings(src, arity_x, arity_t):
    assert_same(src, arity_x, arity_t)


@pytest.mark.parametrize("src, char, offset", [
    ("x1 ) $", "$", 5),
    ("max(x1,) + é", "é", 11),
    ("(x1 + . + $", ".", 6),
])
def test_a_bad_character_comes_before_any_syntax_error(src, char, offset):
    # the whole string is read for bad characters before the syntax is
    with pytest.raises(expr.ParseError) as err:
        expr.parse(src, 2)
    assert str(err.value) == f"unexpected character {char!r} (at offset {offset})"
    assert_same(src, 2, 0)


FRAGMENTS = (
    "x1", "x2", "x3", "x0", "t1", "t2", "y", "sin", "cos", "exp", "log", "sqrt", "abs",
    "min", "max", "(", ")", ",", "+", "-", "*", "/", "^", "**", "1", "2.5", ".5", "3.",
    "1e3", "2E-2", "1e999", "0", ".", "e", "$", "é", "٣", "_", " ", "\t", "\n", "  ",
)
ALPHABET = "0123456789.eExtsinco()+-*/^,_$é٣ \t\n"


@given(
    st.one_of(
        st.lists(st.sampled_from(FRAGMENTS), max_size=40).map("".join),
        st.text(alphabet=ALPHABET, max_size=40),
    ),
    st.integers(0, 3),
    st.integers(0, 2),
)
def test_random_strings(src, arity_x, arity_t):
    assert_same(src, arity_x, arity_t)
