import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import expr_reference as reference
from expr_reference import Bin, Call, Neg, Num, Var, to_tape
from sipcert import expr as expr_mod
from sipcert.expr import (
    DEFAULT_KINK_TOL,
    EvalDomainError,
    ExprError,
    ExprFn,
    ExprList,
    KinkError,
    ParseError,
    evaluate,
    evaluate_list,
    evaluate_many,
    format_expr,
    gradient,
    gradient_list,
    gradient_many,
    linear_expr,
    linear_list,
    parse,
    parse_list,
    substitute,
)


def central_diff(f, x, t=None, step=1e-6):
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.size)
    for i in range(x.size):
        up, down = x.copy(), x.copy()
        up[i] += step
        down[i] -= step
        out[i] = (evaluate(f, up, t) - evaluate(f, down, t)) / (2 * step)
    return out


class TestParse:
    def test_simple_sum(self):
        f = parse("x1 + x2", 2)
        assert f.tape == (("x", 0), ("x", 1), ("+", (0, 1)))

    def test_unknown_identifier_offset(self):
        with pytest.raises(ParseError) as err:
            parse("y + 1/k", 2)
        assert err.value.offset == 0

    def test_sip_expression_structure(self):
        f = parse("1 - t1*x1 - (1-t1)*x2", 2, 1)
        expected = Bin(
            "-",
            Bin("-", Num(1.0), Bin("*", Var("t", 0), Var("x", 0))),
            Bin("*", Bin("-", Num(1.0), Var("t", 0)), Var("x", 1)),
        )
        # the second 1 and t1 are the first ones' slots
        assert f.tape == to_tape(expected) == (
            ("num", 1.0), ("t", 0), ("x", 0), ("*", (1, 2)), ("-", (0, 3)),
            ("-", (0, 1)), ("x", 1), ("*", (5, 6)), ("-", (4, 7)),
        )

    def test_arity_violation(self):
        with pytest.raises(ParseError):
            parse("x3", 2)
        with pytest.raises(ParseError):
            parse("t1", 2, 0)

    def test_empty_and_malformed(self):
        with pytest.raises(ParseError):
            parse("", 1)
        with pytest.raises(ParseError):
            parse("x1 +", 1)
        with pytest.raises(ParseError):
            parse("sin x1", 1)

    def test_power_is_right_associative(self):
        f = parse("2^3^2", 1)
        assert evaluate(f, [0.0]) == 512.0

    def test_unary_minus_binds_below_power(self):
        f = parse("-x1^2", 1)
        assert evaluate(f, [3.0]) == -9.0
        assert f.tape == to_tape(Neg(Bin("^", Var("x", 0), Num(2.0))))

    def test_double_star_power(self):
        assert evaluate(parse("x1**2", 1), [3.0]) == 9.0

    def test_overflowing_literal_is_a_positioned_error(self):
        # 1e999 would parse to inf, and sin(inf) raise a bare ValueError later
        with pytest.raises(ParseError) as err:
            parse("1 - x1 + 0*sin(1e999)", 1)
        assert err.value.offset == 15
        assert "1e999" in str(err.value)

    def test_parse_error_carries_expected(self):
        with pytest.raises(ParseError) as err:
            parse("(x1", 1)
        assert ")" in err.value.expected

    def test_nodes_are_hashable_values(self):
        a, b = parse("sin(x1)^2 - -x2", 2), parse("sin(x1) ** 2 - (-x2)", 2)
        assert a == b and hash(a) == hash(b)
        assert len({a.tape, b.tape, parse("x1", 2).tape}) == 2


# one nesting construct, `depth` levels deep, and the offset of the token that opens level 101
NESTINGS = {
    "parentheses": (lambda depth: "(" * depth + "x1" + ")" * depth, 100),
    "calls": (lambda depth: "sin(" * depth + "x1" + ")" * depth, 403),
    "unary signs": (lambda depth: "-+" * (depth // 2) + "-" * (depth % 2) + "x1", 100),
    "powers": (lambda depth: "x1" + "^x1" * depth, 302),
    "all four": (lambda depth: "-(" * (depth // 4) + "cos(x1^" * (depth // 4)
                 + "-" * (depth % 4) + "x1" + ")" * (depth // 2), 225),
}


class TestNesting:
    @pytest.mark.parametrize("construct", NESTINGS)
    def test_deepest_nesting_parses_evaluates_and_differentiates(self, construct):
        f = parse(NESTINGS[construct][0](expr_mod.MAX_DEPTH), 1)
        assert math.isfinite(evaluate(f, [1.0]))
        assert gradient(f, [1.0]).shape == (1,)
        assert parse(format_expr(f), 1) == f

    @pytest.mark.parametrize("construct", NESTINGS)
    def test_one_level_deeper_is_a_parse_error(self, construct):
        build, offset = NESTINGS[construct]
        with pytest.raises(ParseError) as err:
            parse(build(expr_mod.MAX_DEPTH + 1), 1)
        assert str(err.value) == f"expression nested deeper than 100 levels (at offset {offset})"
        assert err.value.offset == offset

    def test_far_too_deep_is_a_parse_error_not_a_recursion_error(self):
        for src in ("(" * 200 + "x1" + ")" * 200, "-" * 3000 + "x1", "x1^" * 3000 + "x1"):
            with pytest.raises(ParseError, match="nested deeper than 100 levels"):
                parse(src, 1)


class TestEvaluate:
    def test_near_active_objective(self):
        f = parse("-x1^2 - x2", 2)
        assert evaluate(f, (0, 0)) == 0.0

    def test_near_active_phi0(self):
        assert evaluate(parse("x1", 2), (0, 0)) == 0.0

    def test_near_active_phi_k(self):
        assert evaluate(parse("x2 + 1/3", 2), (0, 0)) == pytest.approx(1 / 3, abs=0)

    def test_division_by_zero(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("1/x1", 1), [0.0])

    def test_log_domain(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("log(x1)", 1), [-1.0])
        with pytest.raises(EvalDomainError):
            evaluate(parse("log(x1)", 1), [0.0])

    def test_sqrt_domain(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("sqrt(x1)", 1), [-1.0])

    def test_overflow_raises_not_inf(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("exp(x1)", 1), [1000.0])
        with pytest.raises(EvalDomainError):
            evaluate(parse("x1^9", 1), [1e300])

    @pytest.mark.parametrize("v", [709.9, 710.0])
    def test_exp_overflow_is_a_non_finite_value(self, v):
        # math.exp overflows above about 709.78, below 710
        with pytest.raises(EvalDomainError, match="^non-finite value in 'exp'$"):
            evaluate(parse("exp(x1)", 1), [v])
        with pytest.raises(EvalDomainError, match="^non-finite value in 'exp'$"):
            evaluate_many(parse("exp(x1) + t1", 1, 1), [v], [[0.0], [1.0]])

    def test_min_max_values(self):
        assert evaluate(parse("min(x1, x2, 3)", 2), (5, 4)) == 3.0
        assert evaluate(parse("max(x1, -x1)", 1), [-2.0]) == 2.0

    def test_abs_at_kink_value_is_fine(self):
        assert evaluate(parse("abs(x1)", 1), [0.0]) == 0.0

    def test_zero_to_negative_power(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("x1^(-1)", 1), [0.0])


class TestGradient:
    def test_near_active_objective_gradient(self):
        g = gradient(parse("-x1^2 - x2", 2), (0, 0))
        assert np.allclose(g, [0.0, -1.0], atol=0)

    def test_linear_gradient(self):
        g = gradient(parse("x1", 2), (0.3, -0.7))
        assert np.array_equal(g, [1.0, 0.0])

    def test_sip_gradient_with_fd_crosscheck(self):
        f = parse("1 - t1*x1 - (1-t1)*x2", 2, 1)
        g = gradient(f, (1, 1), (0.3,))
        assert np.allclose(g, [-0.3, -0.7], atol=1e-15)
        fd = central_diff(f, (1, 1), (0.3,))
        assert np.abs(g - fd).max() <= 1e-8

    def test_kink_errors(self):
        with pytest.raises(KinkError):
            gradient(parse("abs(x1)", 1), [0.0])
        with pytest.raises(KinkError):
            gradient(parse("min(x1, x2)", 2), (0.5, 0.5))
        with pytest.raises(KinkError):
            gradient(parse("abs(x1)", 1), [1e-13])

    def test_kink_tolerance_respected(self):
        g = gradient(parse("abs(x1)", 1), [1e-6])
        assert g[0] == 1.0

    def test_tied_min_with_equal_partials_is_smooth(self):
        g = gradient(parse("min(x1, x1)", 1), [0.0])
        assert g[0] == 1.0

    def test_sqrt_gradient_at_zero(self):
        with pytest.raises(EvalDomainError):
            gradient(parse("sqrt(x1)", 1), [0.0])

    def test_constant_in_x(self):
        g = gradient(parse("t1 + 2", 1, 1), [5.0], [1.0])
        assert np.array_equal(g, [0.0])

    def test_general_power_gradient(self):
        f = parse("x1^x2", 2)
        g = gradient(f, (2.0, 3.0))
        assert g[0] == pytest.approx(3 * 4.0, rel=1e-12)
        assert g[1] == pytest.approx(8 * math.log(2), rel=1e-12)


# random smooth ASTs over x1, x2: exponents are integer constants, no
# division or log, so finite differences stay trustworthy; constants are
# nonnegative because the parser produces negatives as Neg nodes
def _smooth(depth):
    leaf = st.one_of(
        st.floats(min_value=0, max_value=2).map(lambda v: Num(round(v, 3))),
        st.sampled_from([Var("x", 0), Var("x", 1)]),
    )
    if depth == 0:
        return leaf
    sub = st.deferred(lambda: _smooth(depth - 1))
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from("+-*"), sub, sub).map(lambda t: Bin(t[0], t[1], t[2])),
        sub.map(Neg),
        sub.map(lambda a: Bin("^", a, Num(2.0))),
        sub.map(lambda a: Call("sin", (a,))),
        sub.map(lambda a: Call("cos", (a,))),
    )


class TestRoundTrip:
    @given(_smooth(3))
    def test_parse_print_parse_identity(self, ast):
        f = ExprFn(to_tape(ast), 2)
        printed = format_expr(f)
        assert printed == reference.fmt(ast)
        assert parse(printed, 2) == f

    def test_round_trip_spec_examples(self):
        for src in ("-x1^2 - x2", "1 - t1*x1 - (1-t1)*x2", "min(x1, x2, 0.5)", "x1/(1 + x2^2)"):
            f = parse(src, 2, 1)
            assert parse(format_expr(f), 2, 1) == f

    @given(_smooth(3), st.tuples(st.floats(-1, 1), st.floats(-1, 1)))
    def test_eval_never_silently_nonfinite(self, ast, point):
        f = ExprFn(to_tape(ast), 2)
        try:
            value = evaluate(f, point)
        except EvalDomainError:
            return
        assert math.isfinite(value)


class TestVectorizedEvaluation:
    @pytest.mark.parametrize(
        "src",
        [
            "1 - t1*x1 - (1-t1)*x2 + sin(t1)",
            "x1*cos(t1) + x2*sin(t1)",
            "abs(t1 - 0.5) + max(x1, t1, 0.25) - min(x2, t1)",
            "exp(0.5*t1) / (2 + t1^2) + sqrt(t1 + 1)",
            "t1^3 - x1^t1",
        ],
    )
    def test_matches_scalar_loop(self, src, rng):
        f = parse(src, 2, 1)
        x = (0.3, 0.8)
        tpoints = rng.uniform(0.01, 1, size=(50, 1))
        batched = evaluate_many(f, x, tpoints)
        looped = np.array([evaluate(f, x, t) for t in tpoints])
        assert np.allclose(batched, looped, rtol=1e-15, atol=0)

    def test_two_index_dimensions(self, rng):
        f = parse("x1 + t1^2 + t2^2", 1, 2)
        tpoints = rng.uniform(0, 1, size=(20, 2))
        batched = evaluate_many(f, [0.5], tpoints)
        looped = np.array([evaluate(f, [0.5], t) for t in tpoints])
        assert np.array_equal(batched, looped)

    def test_domain_errors_propagate(self):
        f = parse("log(t1)", 0, 1)
        with pytest.raises(EvalDomainError):
            evaluate_many(f, [], np.array([[1.0], [0.0]]))
        with pytest.raises(EvalDomainError):
            evaluate_many(parse("1/t1", 0, 1), [], np.array([[1.0], [0.0]]))
        with pytest.raises(EvalDomainError):
            evaluate_many(parse("sqrt(t1)", 0, 1), [], np.array([[-1.0]]))


class TestSubstitute:
    def test_linear_chain(self):
        phi = parse("x1", 1)
        inner = [parse("x1 + x2", 2)]
        composed = substitute(phi, inner)
        assert np.array_equal(gradient(composed, (0, 0)), [1.0, 1.0])

    def test_composite_matches_fd(self, rng):
        phi = parse("x1^2 + sin(x2)", 2)
        inner = [parse("x1*x2", 2), parse("x1 - x2", 2)]
        composed = substitute(phi, inner)
        for _ in range(20):
            x = rng.uniform(-1, 1, size=2)
            g = gradient(composed, x)
            fd = central_diff(composed, x)
            assert np.abs(g - fd).max() <= 1e-6 * (1 + np.abs(g).max())

    def test_arity_mismatch(self):
        with pytest.raises(EvalDomainError):
            substitute(parse("x1 + x2", 2), [parse("x1", 1)])


def test_linear_expr_builder():
    f = linear_expr([2.0, -1.0], 0.5, 2)
    assert evaluate(f, (1.0, 1.0)) == pytest.approx(1.5)
    assert np.array_equal(gradient(f, (0, 0)), [2.0, -1.0])


def _outcome(fn):
    try:
        return fn(), None
    except ExprError as err:
        return None, (type(err), str(err))


# random grammar expressions in x1, x2 and t1 over every operator and
# function, at points drawn from a few round values, so that kinks, ties,
# zero divisors and domain edges come up often
_ROUND = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
_LEAF = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]).map(Num),
    st.sampled_from([Var("x", 0), Var("x", 1), Var("t", 0)]),
)


# subtrees that overflow at some of those points and whose parent node can
# map the overflowed value back to a finite one, so that the batched walk's
# one finiteness test per walk must still send such points to the scalar loop
_SATURATING = st.sampled_from(
    [reference.parse(src, 2, 1) for src in ("1/exp(800*t1)", "min(exp(800*t1), 1)", "x1^(2000*t1)")]
)


def _grammar(depth, leaf=_LEAF):
    if depth == 0:
        return leaf
    sub = st.deferred(lambda: _grammar(depth - 1, leaf))
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from("+-*/^"), sub, sub).map(lambda a: Bin(*a)),
        sub.map(Neg),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "log", "sqrt", "abs"]), sub).map(
            lambda a: Call(a[0], (a[1],))
        ),
        st.tuples(st.sampled_from(["min", "max"]), st.lists(sub, min_size=2, max_size=3)).map(
            lambda a: Call(a[0], tuple(a[1]))
        ),
    )


class TestBatchedAgreesWithScalarLoop:
    """``evaluate_many`` / ``gradient_many`` against the scalar loop over rows."""

    def test_integer_power_of_negative_base_per_point(self):
        # the exponent t1 is integer-valued at t1 = 2, so a negative base is fine
        f = parse("(t1 - 3)^t1", 1, 1)
        assert evaluate(f, [0], [2]) == 1.0
        assert np.array_equal(evaluate_many(f, [0], [[2.0]]), [1.0])
        assert np.array_equal(expr_mod._values_batched(f, np.zeros(1), np.array([[2.0]])), [1.0])
        with pytest.raises(EvalDomainError, match="negative base with non-integer exponent"):
            evaluate_many(f, [0], [[2.0], [2.5]])

    @pytest.mark.parametrize("src", ["exp(t1) + 0*x1", "log(t1) + 0*x1"])
    def test_exp_and_log_are_within_one_ulp_of_the_scalar_loop(self, src, rng):
        # numpy's exp and log may round differently from math's in the last
        # bit: the one way a batched walk's value can differ from the loop's
        f = parse(src, 1, 1)
        t = rng.uniform(-10.0, 10.0, size=(20_000, 1))
        if src.startswith("log"):
            t = np.abs(t)
        batched = evaluate_many(f, [0.5], t)
        looped = np.array([evaluate(f, [0.5], u) for u in t])
        assert np.all(np.abs(batched - looped) <= np.abs(np.spacing(looped)))

    def test_sip_families_match_within_ulps(self, rng):
        for src, p, m in [
            ("1 - t1*x1 - (1 - t1)*x2", 2, 1),
            ("x1*cos(t1) + x2*sin(t1)", 2, 1),
            ("1 - ((0 + 0.3*x1 - 0.9*x2)*cos(t1)*cos(t2) + (0 + x3)*sin(t2))", 3, 2),
            ("x1^3*t1 + exp(x2*t1) + abs(x1 - 2) + max(x1, t1 + 3) + sqrt(x2 + t1)", 2, 1),
        ]:
            f = parse(src, p, m)
            x = rng.uniform(0.1, 1.0, size=p)
            tpoints = rng.uniform(0.0, 1.0, size=(40, m))
            looped = np.array([gradient(f, x, t) for t in tpoints])
            batched = gradient_many(f, x, tpoints)
            assert batched.shape == (40, p)
            assert np.allclose(batched, looped, rtol=4 * np.finfo(float).eps, atol=0)

    @pytest.mark.parametrize(
        "src, error",
        [
            ("abs(x1 - t1)", "abs differentiated at its kink"),
            ("min(x1, 1 - t1)", "min differentiated at a tie"),
            ("max(x1, 2*x1 - t1 + 0.5, t1)", "max differentiated at a tie"),
            # t1 = 0.5 puts sqrt at zero; t1 = 0.75 takes it negative later
            ("sqrt(x1 - t1)", "sqrt differentiated at zero"),
            ("x1/(t1 - 0.5)", "division by zero"),
        ],
    )
    def test_one_bad_row_raises_the_scalar_error(self, src, error):
        f = parse(src, 1, 1)
        x = [0.5]
        tpoints = np.array([[0.0], [0.25], [0.5], [0.75], [1.0]])
        with pytest.raises(ExprError) as scalar:
            for t in tpoints:
                gradient(f, x, t)
        with pytest.raises(type(scalar.value), match=f"^{error}$"):
            gradient_many(f, x, tpoints)
        assert str(scalar.value) == error
        good = tpoints[:2]  # every bad row is the third
        assert np.array_equal(gradient_many(f, x, good), [gradient(f, x, t) for t in good])

    def test_exact_ties_pick_like_the_scalar_sort(self):
        # +0.0 and -0.0 tie: min keeps the first argument, max the last
        tpoints = np.array([[0.0], [1.0]])
        for src, sign in [
            ("min(t1 - t1, -(t1 - t1))", False),
            ("max(t1 - t1, -(t1 - t1))", True),
        ]:
            f = parse(src, 0, 1)
            looped = [evaluate(f, [], t) for t in tpoints]
            assert np.signbit(looped).tolist() == [sign, sign]
            assert np.signbit(evaluate_many(f, [], tpoints)).tolist() == [sign, sign]

    def test_exponent_constant_at_some_points_only(self):
        # at t1 = 0 the exponent t1*x1 has zero x-partials and is integer, so
        # the scalar walk keeps 2^(t1*x1) plain there and dual elsewhere
        f = parse("2^(t1*x1) + (t1 - 1)^(t1*x1)", 1, 1)
        tpoints = np.array([[0.0], [1.5], [2.0]])
        with pytest.raises(expr_mod._Unbatchable):
            expr_mod._gradients_batched(f, np.ones(1), tpoints, DEFAULT_KINK_TOL)
        looped = [gradient(f, [1.0], t) for t in tpoints]
        assert np.array_equal(gradient_many(f, [1.0], tpoints), looped)

    def test_tie_with_equal_partials_is_smooth(self):
        f = parse("min(x1 + t1, t1 + x1, 2)", 1, 1)
        tpoints = np.array([[0.0], [1.0], [3.0]])
        assert np.array_equal(gradient_many(f, [0.5], tpoints), [[1.0], [1.0], [0.0]])

    @settings(max_examples=300, derandomize=True)
    @given(
        _grammar(3),
        st.lists(st.tuples(_ROUND | st.floats(-2, 2), _ROUND | st.floats(-2, 2)), min_size=1, max_size=3),
        st.lists(_ROUND | st.floats(-2, 2), min_size=1, max_size=5),
    )
    def test_decision_point_per_index_point(self, ast, xs, ts):
        # an (n, p) x pairs row i with index point i: the one walk equals
        # the one-point walks row by row, bit for bit, and raises their error
        f = ExprFn(to_tape(ast), 2, 1)
        tpoints = np.array(ts).reshape(-1, 1)
        x = np.array(xs)
        rows, error = _outcome(lambda: np.concatenate([evaluate_many(f, xi, tpoints) for xi in x]))
        paired = (np.repeat(x, len(tpoints), axis=0), np.tile(tpoints, (len(x), 1)))
        result, paired_error = _outcome(lambda: evaluate_many(f, *paired))
        assert paired_error == error
        if error is None:
            assert result.tobytes() == rows.tobytes()

    def test_decision_points_pair_with_index_points(self):
        f = parse("sqrt(x1) + t1", 1, 1)
        with pytest.raises(EvalDomainError, match=r"x has shape \(3, 1\), expected \(2, 1\)"):
            evaluate_many(f, np.ones((3, 1)), np.zeros((2, 1)))
        assert np.array_equal(evaluate_many(f, [[4.0], [9.0]], [[0.5], [1.0]]), [2.5, 4.0])
        with pytest.raises(EvalDomainError, match="^sqrt of a negative value$"):
            evaluate_many(f, [[4.0], [-1.0]], [[0.5], [1.0]])

    @settings(max_examples=400, derandomize=True)
    @given(_grammar(3), st.tuples(_ROUND, _ROUND), st.lists(_ROUND, min_size=1, max_size=6))
    def test_random_expressions(self, ast, x, ts):
        _agrees_with_scalar_loop(ast, x, ts)

    @settings(max_examples=300, derandomize=True)
    @given(_grammar(2, _LEAF | _SATURATING), st.tuples(_ROUND, _ROUND), st.lists(_ROUND, min_size=1, max_size=6))
    def test_non_finite_intermediates(self, ast, x, ts):
        # an overflowed node need not leave the result non-finite: the one
        # test per walk must catch it all the same, and the scalar loop
        # must name the node
        _agrees_with_scalar_loop(ast, x, ts)

    def test_saturating_nodes_raise_the_scalar_error(self):
        tpoints = np.array([[0.0], [1.0]])
        for src, error in [
            ("1/exp(800*t1)", "non-finite value in 'exp'"),
            ("min(exp(800*t1), 1)", "non-finite value in 'exp'"),
            ("x1^(2000*t1) - x1^(2000*t1)", "non-finite value in '^'"),
        ]:
            f = parse(src, 1, 1)
            assert evaluate(f, [2.0], [0.0]) in (0.0, 1.0)
            with pytest.raises(EvalDomainError, match=f"^{re.escape(error)}$"):
                evaluate_many(f, [2.0], tpoints)
            with pytest.raises(EvalDomainError, match=f"^{re.escape(error)}$"):
                gradient_many(f, [2.0], tpoints)

    def test_sum_overflow_returns_the_scalar_values(self):
        # every node is finite, but the running sum of the nodes is not: the
        # walk is flagged and the scalar loop returns the values, bit for bit
        f = parse("(x1*1e308*t1 - 1e308) + x1*1.7e308*t1", 1, 1)
        x, tpoints = [1.0], np.array([[0.25], [0.5]])
        with pytest.raises(EvalDomainError):
            expr_mod._values_batched(f, np.ones(1), tpoints)
        with pytest.raises(EvalDomainError):
            expr_mod._gradients_batched(f, np.ones(1), tpoints, DEFAULT_KINK_TOL)
        looped = np.array([evaluate(f, x, t) for t in tpoints])
        assert looped.tolist() == [(1e308 * t - 1e308) + 1.7e308 * t for t in (0.25, 0.5)]
        assert evaluate_many(f, x, tpoints).tobytes() == looped.tobytes()
        grads = np.array([gradient(f, x, t) for t in tpoints])
        assert gradient_many(f, x, tpoints).tobytes() == grads.tobytes()


def _agrees_with_reference(f, ast, x, ts):
    # the tape walk gives the recursive tree walk's bits, or raises its error
    for t in ts:
        for walk, tree_walk in [(evaluate, reference.evaluate), (gradient, reference.gradient)]:
            got = _outcome(lambda: np.asarray(walk(f, x, [t])).tobytes())
            assert got == _outcome(lambda: np.asarray(tree_walk(ast, x, [t])).tobytes())


def _agrees_with_scalar_loop(ast, x, ts):
    # derandomized: exp, log and ^ may round differently in the last
    # place in numpy than in math, and a chance cancellation could turn
    # that into a large relative difference; a fixed sample reproduces
    f = ExprFn(to_tape(ast), 2, 1)
    _agrees_with_reference(f, ast, x, ts)
    tpoints = np.array(ts).reshape(-1, 1)
    xs = np.array(x)
    for loop, batched, walk, rtol in [
        (lambda t: evaluate(f, x, t), lambda: evaluate_many(f, x, tpoints),
         lambda: expr_mod._values_batched(f, xs, tpoints), 1e-15),
        (lambda t: gradient(f, x, t), lambda: gradient_many(f, x, tpoints),
         lambda: expr_mod._gradients_batched(f, xs, tpoints, DEFAULT_KINK_TOL),
         4 * np.finfo(float).eps),
    ]:
        looped, loop_error = _outcome(lambda: np.array([loop(t) for t in tpoints]))
        result, error = _outcome(batched)
        assert error == loop_error
        if loop_error is None:
            assert np.allclose(result, looped.reshape(result.shape), rtol=rtol, atol=0)
        # the scalar loop runs only when the batched walk flags a point
        try:
            walk()
            flagged = None
        except expr_mod._BATCH_FAILURES as err:
            flagged = err
        if loop_error is None:
            assert flagged is None or isinstance(flagged, expr_mod._Unbatchable)
        else:
            assert flagged is not None


# random trees over the operators whose numpy and math results agree to the
# last bit (no exp, log, sin, cos or non-integer ^), so the one walk with
# the batch kit must reproduce the scalar loop byte for byte
def _exact(depth):
    if depth == 0:
        return _LEAF
    sub = st.deferred(lambda: _exact(depth - 1))
    return st.one_of(
        _LEAF,
        st.tuples(st.sampled_from("+-*/"), sub, sub).map(lambda a: Bin(*a)),
        sub.map(Neg),
        st.tuples(st.sampled_from(["sqrt", "abs"]), sub).map(lambda a: Call(a[0], (a[1],))),
        st.tuples(st.sampled_from(["min", "max"]), st.lists(sub, min_size=2, max_size=3)).map(
            lambda a: Call(a[0], tuple(a[1]))
        ),
    )


@settings(max_examples=400, derandomize=True)
@given(_exact(3), st.tuples(_ROUND, _ROUND), st.lists(_ROUND, min_size=1, max_size=6))
def test_batched_walk_is_the_scalar_loop_bit_for_bit(ast, x, ts):
    f = ExprFn(to_tape(ast), 2, 1)
    _agrees_with_reference(f, ast, x, ts)
    tpoints = np.array(ts).reshape(-1, 1)
    for batched, loop in [
        (lambda: evaluate_many(f, x, tpoints), lambda: [evaluate(f, x, t) for t in tpoints]),
        (lambda: gradient_many(f, x, tpoints), lambda: [gradient(f, x, t) for t in tpoints]),
    ]:
        looped, loop_error = _outcome(lambda: np.array(loop()))
        result, error = _outcome(batched)
        assert error == loop_error
        if error is None:
            assert result.tobytes() == looped.reshape(result.shape).tobytes()


# trees in which a subtree repeats: an operator or function over copies of
# one subtree, so the tape holds it once and each walk computes it once
def _repeating(depth, leaf=_LEAF):
    if depth == 0:
        return leaf
    sub = st.deferred(lambda: _repeating(depth - 1, leaf))
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from("+-*/^"), sub, sub).map(lambda a: Bin(*a)),
        st.tuples(st.sampled_from("+-*/^"), sub).map(lambda a: Bin(a[0], a[1], a[1])),
        st.tuples(st.sampled_from("+-*/^"), sub, sub).map(
            lambda a: Bin(a[0], Bin("*", a[1], a[2]), Neg(Bin("*", a[1], a[2])))
        ),
        sub.map(Neg),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "log", "sqrt", "abs"]), sub).map(
            lambda a: Call(a[0], (a[1],))
        ),
        st.tuples(st.sampled_from(["min", "max"]), sub, sub).map(lambda a: Call(a[0], (a[1], a[2], a[1]))),
    )


class TestSharing:
    """Equal subtrees are one slot, walked once, with the tree walk's bits and errors."""

    def test_a_repeated_call_is_one_slot(self):
        f = parse("sin(t1)*x1 + sin(t1)*x2", 2, 1)
        assert [op for op, _ in f.tape].count("sin") == 1
        assert f.tape == to_tape(reference.parse("sin(t1)*x1 + sin(t1)*x2", 2, 1))
        assert len(f.tape) == 7

    def test_interning_keeps_the_sign_of_zero(self):
        # the constant PolyhedralFamily.substitute builds for a zero offset:
        # -0.0 + 0.0*(-1.0) is -0.0, and 0.0 + 0.0*(-1.0) would be 0.0
        f = linear_expr([0.0], -0.0, 1)
        assert f.tape == (("num", -0.0), ("num", 0.0), ("x", 0), ("*", (1, 2)), ("+", (0, 3)))
        assert math.copysign(1.0, evaluate(f, [-1.0])) == -1.0

    def test_a_repeated_failing_subtree_raises_the_reference_error(self):
        src = "sqrt(x1 - 2) + sqrt(x1 - 2)"
        f, tree = parse(src, 1, 1), reference.parse(src, 1, 1)
        assert [op for op, _ in f.tape].count("sqrt") == 1
        tpoints = np.array([[0.0], [1.0]])
        for call, tree_call in [
            (lambda: evaluate(f, [1.0], [0.0]), lambda: reference.evaluate(tree, [1.0], [0.0])),
            (lambda: gradient(f, [1.0], [0.0]), lambda: reference.gradient(tree, [1.0], [0.0])),
            (lambda: evaluate_many(f, [1.0], tpoints), lambda: reference.evaluate(tree, [1.0], [0.0])),
            (lambda: gradient_many(f, [1.0], tpoints), lambda: reference.gradient(tree, [1.0], [0.0])),
        ]:
            expected = _outcome(tree_call)
            assert expected == (None, (EvalDomainError, "sqrt of a negative value"))
            assert _outcome(call) == expected

    def test_substitute_is_the_tree_substitution(self):
        src, inner = "x1^2 + sin(x2)*x1 - t1*x2", ["x1*x2 + 1", "x1 - 1"]
        composed = substitute(parse(src, 2, 1), [parse(g, 2) for g in inner])
        tree = reference.subst(reference.parse(src, 2, 1), [reference.parse(g, 2) for g in inner])
        assert composed.tape == to_tape(tree)
        assert format_expr(composed) == reference.fmt(tree)
        # x1's inner expression is one slot, though x1 occurs twice; so is its 1
        assert [op for op, _ in composed.tape].count("x") == 2
        assert [op for op, _ in composed.tape].count("num") == 2

    @settings(max_examples=300, derandomize=True)
    @given(_repeating(3), st.tuples(_ROUND, _ROUND), st.lists(_ROUND, min_size=1, max_size=6))
    def test_repeated_subtrees(self, ast, x, ts):
        _agrees_with_scalar_loop(ast, x, ts)


class TestInputBoundary:
    """Non-finite or misshapen inputs raise EvalDomainError before any walk."""

    def test_evaluate(self):
        with pytest.raises(EvalDomainError, match="^non-finite component in x$"):
            evaluate(parse("sin(x1)", 1), [math.inf])
        with pytest.raises(EvalDomainError, match="^non-finite component in t$"):
            evaluate(parse("sin(x1 + t1)", 1, 1), [0.5], [math.nan])

    def test_gradient(self):
        with pytest.raises(EvalDomainError, match="^non-finite component in x$"):
            gradient(parse("sin(x1)", 1), [-math.inf])
        with pytest.raises(EvalDomainError, match="^non-finite component in t$"):
            gradient(parse("x1*cos(t1)", 1, 1), [0.5], [math.inf])

    def test_evaluate_many(self):
        f = parse("sin(x1*t1)", 1, 1)
        with pytest.raises(EvalDomainError, match="^non-finite component in index points$"):
            evaluate_many(f, [0.5], [[0.0], [math.inf]])
        with pytest.raises(EvalDomainError, match="^non-finite component in x$"):
            evaluate_many(f, [math.nan], [[0.0]])
        with pytest.raises(EvalDomainError, match="^non-finite component in x$"):
            evaluate_many(f, [[0.5], [math.inf]], [[0.0], [1.0]])
        with pytest.raises(EvalDomainError, match=r"^index points have shape \(2, 1, 1\)"):
            evaluate_many(f, [0.5], np.zeros((2, 1, 1)))

    def test_gradient_many(self):
        f = parse("sin(x1*t1)", 1, 1)
        with pytest.raises(EvalDomainError, match="^non-finite component in index points$"):
            gradient_many(f, [0.5], [[math.inf], [0.0]])
        with pytest.raises(EvalDomainError, match="^non-finite component in x$"):
            gradient_many(f, [math.inf], [[0.0]])
        with pytest.raises(EvalDomainError, match=r"^index points have shape \(2, 1, 1\)"):
            gradient_many(f, [0.5], np.zeros((2, 1, 1)))



def _grid_loop(f, x, axes):
    # evaluate over evaluate_many's grid pairs: each decision point (rows
    # first) with every grid point, the last axis fastest
    rows = np.atleast_2d(np.asarray(x, dtype=float))
    return [evaluate(f, xp, t) for xp in rows for t in itertools.product(*axes)]


# numpy's exp, log and pow may round differently from math's in the last
# place (see the module docstring of sipcert.expr); at these points they agree
_AXES = {
    1: (np.linspace(0.25, 2.0, 7),),
    2: (np.linspace(0.25, 2.0, 5), np.array([0.5, 1.5, 3.0])),
    3: (np.array([0.25, 1.0, 2.25]), np.array([2.0, 0.5]), np.linspace(0.125, 1.0, 4)),
}


def _grid_leaves(t_dim):
    return st.one_of(
        st.sampled_from([0.0, 0.5, 1.0, 2.0]).map(Num),
        st.sampled_from([Var("x", 0), Var("x", 1)] + [Var("t", a) for a in range(t_dim)]),
    )


class TestGridForm:
    """``evaluate_many`` over a product grid given by its axes: the scalar loop over
    every (decision point, grid point) pair, sample-major and in C order."""

    @pytest.mark.parametrize("t_dim", [1, 2, 3])
    @pytest.mark.parametrize(
        "src",
        [
            "x1*cos(t{a}) + x2*sin(t{b}) - exp(0.5*t{c})",
            "log(t{a} + x1^2) - abs(x2 - t{b})",
            "min(x1, t{a}, t{c}*x2) + max(t{b}, 0.75)^2",
            "t{a}^x1 / (1 + x2^2) + sqrt(t{b}*t{c})",
            "1 - (x1*cos(t{a}) + x2*sin(t{a})*cos(t{b}) + sin(t{a})*sin(t{b})*cos(t{c}))",
        ],
    )
    def test_equals_the_scalar_loop_over_the_pairs(self, t_dim, src):
        names = dict(zip("abc", [1, 2, 3][:t_dim] * 3))
        f = parse(src.format(**names), 2, t_dim)
        axes = _AXES[t_dim]
        rows = np.array([[0.5, 0.25], [1.5, -0.75], [0.5, 0.25]])
        for x in (rows[0], rows):
            got = evaluate_many(f, x, axes)
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in _grid_loop(f, x, axes)]
        # the point list the axes span, as grid_points() and np.tile list it
        points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, t_dim)
        paired = evaluate_many(f, np.repeat(rows, len(points), axis=0), np.tile(points, (3, 1)))
        assert evaluate_many(f, rows, axes).tobytes() == paired.tobytes()

    @settings(max_examples=300, derandomize=True)
    @given(
        _grammar(3, _grid_leaves(3)),
        st.lists(st.tuples(_ROUND, _ROUND), min_size=1, max_size=3),
        st.lists(st.lists(_ROUND, min_size=1, max_size=3), min_size=3, max_size=3),
    )
    def test_random_expressions_on_three_axes(self, ast, xs, axes):
        # the grid form is today's paired point list, bit for bit, or its error
        f = ExprFn(to_tape(ast), 2, 3)
        axes = tuple(np.array(a) for a in axes)
        points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        x = np.array(xs)
        paired = (np.repeat(x, len(points), axis=0), np.tile(points, (len(x), 1)))
        for grid_args, list_args in [((x, axes), paired), ((x[0], axes), (x[0], points))]:
            expected = _outcome(lambda: evaluate_many(f, *list_args).tobytes())
            assert _outcome(lambda: evaluate_many(f, *grid_args).tobytes()) == expected

    def test_fallback_raises_the_first_pair_error(self):
        # the walk meets log(t1) first and flags t1 = -1; the loop over the
        # pairs meets sqrt(t2 - 0.5) < 0 at its second pair, first
        f = parse("log(t1) + sqrt(t2 - 0.5) + x1", 1, 2)
        axes = (np.array([1.0, -1.0]), np.array([1.0, 0.0]))
        with pytest.raises(EvalDomainError, match="^log of a nonpositive value$"):
            expr_mod._values_batched(f, np.ones(1), axes)
        for x in ([0.0], [[0.0], [1.0]]):
            with pytest.raises(EvalDomainError, match="^sqrt of a negative value$"):
                _grid_loop(f, x, axes)
            with pytest.raises(EvalDomainError, match="^sqrt of a negative value$"):
                evaluate_many(f, x, axes)

    def test_flagged_walk_returns_the_loop_values(self):
        # every node is finite, but a running sum is not: the walk is
        # flagged and the loop over the pairs returns the values
        f = parse("(x1*1e308*t1 - 1e308) + x1*1.7e308*t2", 1, 2)
        axes = (np.array([0.25, 0.5]), np.array([0.5, 0.25]))
        with pytest.raises(EvalDomainError):
            expr_mod._values_batched(f, np.ones(1), axes)
        rows = np.array([[1.0], [0.5]])
        for x in (rows[0], rows):
            looped = np.array(_grid_loop(f, x, axes))
            assert evaluate_many(f, x, axes).tobytes() == looped.tobytes()

    def test_each_node_spans_only_the_axes_and_rows_it_reads(self, monkeypatch):
        shapes = {}
        run = expr_mod._run

        def recorded(f, xs, ts, K, *args):
            out = run(f, xs, ts, K, *args)
            shapes.update(K.acc)
            return out

        monkeypatch.setattr(expr_mod, "_run", recorded)
        f = parse("x1*cos(t1) + sin(t1)*cos(t3) + x2", 2, 3)
        axes = (np.zeros(5), np.zeros(6), np.zeros(7))
        # the finiteness sums, one per shape of the operator nodes: x1*cos(t1)
        # spans the rows and t1, sin(t1)*cos(t3) t1 and t3 (broadcast from
        # the right), the sums all three
        assert evaluate_many(f, np.zeros((4, 2)), axes).shape == (4 * 5 * 6 * 7,)
        assert set(shapes) == {(4, 5, 1, 1), (5, 1, 7), (4, 5, 1, 7)}
        shapes.clear()
        assert evaluate_many(f, np.zeros(2), axes).shape == (5 * 6 * 7,)
        assert set(shapes) == {(5, 1, 1), (5, 1, 7)}

    def test_inputs_are_checked(self):
        f = parse("sin(x1*t1) + t2", 1, 2)
        axes = (np.zeros(2), np.zeros(3))
        with pytest.raises(EvalDomainError, match="^non-finite component in index points$"):
            evaluate_many(f, [0.5], (np.zeros(2), np.array([0.0, math.nan])))
        with pytest.raises(EvalDomainError, match="^index grid has 1 axes, expected 2$"):
            evaluate_many(f, [0.5], axes[:1])
        with pytest.raises(EvalDomainError, match="^grid axes must be 1-D arrays$"):
            evaluate_many(f, [0.5], (np.zeros((2, 1)), np.zeros(3)))
        with pytest.raises(EvalDomainError, match="^non-finite component in x$"):
            evaluate_many(f, [[0.5], [math.inf]], axes)
        with pytest.raises(EvalDomainError, match=r"^x has shape \(2, 2\), expected \(2, 1\)$"):
            evaluate_many(f, np.zeros((2, 2)), axes)
        assert evaluate_many(f, np.zeros((2, 1)), axes).tolist() == [0.0] * 12


def test_tie_between_plain_arguments_is_no_kink():
    # at t1 = -0.6 the x2-partial of x2^t1 overflows to -inf; min picks one
    # of the tied constants, whose partials are zero whatever the dual
    # argument's are: no kink, and the gradient is exactly zero
    f = parse("min(0, 0, x2^t1)", 2, 1)
    x, tpoints = [-1.0, 1e-200], np.array([[-0.6], [1.0]])
    assert np.array_equal(gradient(f, x, tpoints[0]), [0.0, 0.0])
    assert np.array_equal(gradient_many(f, x, tpoints), [[0.0, 0.0], [0.0, 0.0]])
    assert np.array_equal(gradient_many(f, x, tpoints[1:]), [[0.0, 0.0]])


def test_overflow_is_reported_at_its_node():
    # the scalar walk holds Python floats only, and its ^ turns an overflow
    # into inf: a variable, a literal and a plain argument that min lifts to
    # a dual all overflow to the one message, reported at the node
    with pytest.raises(EvalDomainError, match=r"^non-finite value in '\^'$"):
        evaluate(parse("x1^400", 1), [1e10])
    with pytest.raises(EvalDomainError, match=r"^non-finite value in '\^'$"):
        evaluate(parse("1e10^400 + x1", 1), [0.0])
    for t in ([10.0], [[10.0], [1.0]]):
        with pytest.raises(EvalDomainError, match=r"^non-finite value in '\^'$"):
            gradient_many(parse("min(t1, x1)^400 + x1", 1, 1), [1e10], t)


# lists of random trees in x1, x2 that share subtrees: each member is an
# operator over two trees drawn from one small pool, so several members read
# the same subtree, and in different orders
_X_LEAF = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0]).map(Num), st.sampled_from([Var("x", 0), Var("x", 1)])
)
_SHARED_LISTS = st.lists(_repeating(2, _X_LEAF), min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(
        st.tuples(st.sampled_from("+-*/^"), st.sampled_from(pool), st.sampled_from(pool)).map(
            lambda a: Bin(*a)
        ),
        min_size=1,
        max_size=5,
    )
)


def _loop(fn, members):
    # the per-member loop: the first member that raises decides the error
    return _outcome(lambda: np.array([fn(m) for m in members]).tobytes())


def _walks_agree_with_the_loop(fs, srcs, x, rows):
    members = [parse(src, fs.arity_x) for src in srcs]
    assert list(fs) == members  # each member as its own parse builds it
    assert _outcome(lambda: evaluate_list(fs, x).tobytes()) == _loop(lambda m: evaluate(m, x), members)
    assert _outcome(lambda: gradient_list(fs, x).tobytes()) == _loop(lambda m: gradient(m, x), members)
    picked = [members[r] for r in rows]
    expected = _loop(lambda m: gradient(m, x), picked) if picked else (np.zeros((0, fs.arity_x)).tobytes(), None)
    assert _outcome(lambda: gradient_list(fs, x, rows).tobytes()) == expected


class TestLists:
    """A list of expressions on one tape: the per-member loop's bits and first error."""

    def test_members_share_one_tape_in_list_order(self):
        srcs = ["x2 + sin(x1)", "sin(x1) * x2", "x1", "x2 + sin(x1)"]
        fs = parse_list(srcs, 2)
        # member 0's slots are its own tape; members 2 and 3 add none
        assert fs.tape[:4] == parse(srcs[0], 2).tape
        assert len(fs.tape) == 5 and fs.outputs == (3, 4, 1, 3)
        assert ExprList.of([parse(src, 2) for src in srcs]) == fs
        assert [hash(m) for m in fs] == [hash(parse(src, 2)) for src in srcs]

    def test_parse_list_names_the_first_bad_string(self):
        with pytest.raises(ParseError) as err:
            parse_list(["x1", "x1 +", "x1 $"], 1)
        assert err.value.index == 1
        with pytest.raises(ParseError) as alone:
            parse("x1 +", 1)
        assert str(err.value) == str(alone.value)

    def test_two_erring_members_raise_the_first_ones_error(self):
        # the loop stops at member 0's sqrt; member 1 alone stops at its log
        fs = parse_list(["x1 + sqrt(x2)", "log(x1) + 1/x2", "sqrt(x2)"], 2)
        x = [-1.0, -1.0]
        _walks_agree_with_the_loop(fs, ["x1 + sqrt(x2)", "log(x1) + 1/x2", "sqrt(x2)"], x, [1, 2])
        with pytest.raises(EvalDomainError, match="^sqrt of a negative value$"):
            evaluate_list(fs, x)
        with pytest.raises(EvalDomainError, match="^log of a nonpositive value$"):
            gradient_list(fs, x, [1])

    def test_a_gradient_that_overflows_comes_before_a_later_members_error(self):
        # x1/x2 is finite at (1e-200, 1e-200), its x2-partial is not: the
        # loop stops at member 0, before member 1's log
        srcs = ["x1/x2", "log(x1 - 1)"]
        x = [1e-200, 1e-200]
        with pytest.raises(EvalDomainError, match="^non-finite gradient component$"):
            gradient_list(parse_list(srcs, 2), x)
        _walks_agree_with_the_loop(parse_list(srcs, 2), srcs, x, [1])

    def test_a_subset_walk_that_raises_is_decided_by_the_loop(self):
        # member 0 reads sqrt(x2) before log(x1), member 1 the other way round:
        # a walk of member 1's slots in tape order meets the sqrt first
        srcs = ["sqrt(x2) * 2 + log(x1)", "log(x1) + sqrt(x2)"]
        fs = parse_list(srcs, 2)
        with pytest.raises(EvalDomainError, match="^log of a nonpositive value$"):
            gradient_list(fs, [-1.0, -1.0], [1])
        _walks_agree_with_the_loop(fs, srcs, [-1.0, -1.0], [1])

    def test_a_kink_in_a_row_not_asked_for_raises_nothing(self):
        fs = parse_list(["abs(x1) + x2", "x2 * x1", "abs(x1)"], 2)
        x = [0.0, 1.0]
        assert gradient_list(fs, x, [1]).tolist() == [[1.0, 0.0]]
        assert gradient_list(fs, x, []).shape == (0, 2)
        with pytest.raises(KinkError):
            gradient_list(fs, x)
        with pytest.raises(KinkError):
            gradient_list(fs, x, [1, 2])

    def test_an_empty_list_reads_no_point(self):
        fs = ExprList.of((), 2)
        assert evaluate_list(fs, [math.nan]).shape == (0,)
        assert gradient_list(fs, [math.nan]).shape == (0, 2)

    def test_composites_intern_each_inner_component_once(self):
        inner = ["x1*x2 + sin(x1)", "x1 - 1"]
        srcs = ["y1^2 + y2", "y2*y1", "y1"]
        outer = parse_list([s.replace("y", "x") for s in srcs], 2)
        composed = substitute(outer, parse_list(inner, 2))
        per_member = [substitute(m, [parse(g, 2) for g in inner]) for m in outer]
        assert list(composed) == per_member
        assert ExprList.of(per_member) == composed
        assert [op for op, _ in composed.tape].count("sin") == 1

    def test_composites_fail_in_the_order_their_members_read_the_inner_map(self):
        # member 0 reads y2 first; y2's log fails, as does y1's sqrt
        outer = parse_list(["x2 + x1", "x1"], 2)
        composed = substitute(outer, parse_list(["sqrt(x1 - 1)", "log(x1 - 1)"], 1))
        members = list(composed)
        for walk, one in [(evaluate_list, evaluate), (gradient_list, gradient)]:
            assert _outcome(lambda: walk(composed, [0.5]).tobytes()) == _loop(lambda m: one(m, [0.5]), members)
        with pytest.raises(EvalDomainError, match="^log of a nonpositive value$"):
            evaluate_list(composed, [0.5])

    def test_linear_list_is_the_linear_members(self):
        rows, constants = [[1.0, -2.0], [0.0, 3.5]], [-0.0, 4.0]
        fs = linear_list(rows, constants, 2)
        assert list(fs) == [linear_expr(a, b, 2) for a, b in zip(rows, constants)]

    @settings(max_examples=300, derandomize=True)
    @given(_SHARED_LISTS, st.tuples(_ROUND, _ROUND), st.sets(st.integers(0, 4)))
    def test_random_lists_with_shared_subtrees(self, asts, x, rows):
        srcs = [reference.fmt(a) for a in asts]
        fs = parse_list(srcs, 2)
        assert ExprList.of([ExprFn(to_tape(a), 2) for a in asts]) == fs
        _walks_agree_with_the_loop(fs, srcs, x, sorted(r for r in rows if r < len(fs)))
