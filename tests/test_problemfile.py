import functools
import json
import math
import operator
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sipcert.expr import parse
from sipcert.fixtures import fixture_names, fixture_path, load_fixture
from sipcert.model import FiniteFamily, ParametricFamily, PolyhedralFamily
from sipcert.problemfile import ProblemFileError, emit_json, load_problem, resolve_options


def minimal(**overrides):
    doc = {
        "dimension": 2,
        "objective": "x1 + x2",
        "constraints": {"finite": ["x1", "x2"]},
        "candidate": [0, 0],
    }
    doc.update(overrides)
    return doc


class TestLoad:
    def test_minimal_document(self):
        loaded = load_problem(minimal())
        assert loaded.problem.p == 2
        assert isinstance(loaded.problem.family, FiniteFamily)
        assert np.array_equal(loaded.candidate, [0, 0])

    def test_unknown_top_level_key(self):
        with pytest.raises(ProblemFileError, match="unknown keys"):
            load_problem(minimal(extra=1))

    def test_unknown_option_key(self):
        with pytest.raises(ProblemFileError, match="unknown keys"):
            load_problem(minimal(options={"bogus": 1}))

    def test_unknown_constraint_key(self):
        with pytest.raises(ProblemFileError):
            load_problem(minimal(constraints={"finite": ["x1"], "spherical": {}}))

    def test_missing_required(self):
        with pytest.raises(ProblemFileError):
            load_problem({"objective": "x1"})

    def test_malformed_json_text(self):
        with pytest.raises(ProblemFileError, match="malformed JSON"):
            load_problem("{not json")

    def test_bad_expression_reports_location(self):
        with pytest.raises(ProblemFileError, match="finite"):
            load_problem(minimal(constraints={"finite": ["x1 +"]}))

    @pytest.mark.parametrize("key", ["finite", "equality", "inner_map"])
    def test_a_list_names_its_first_bad_entry(self, key):
        def load(entries):
            if key == "finite":
                return load_problem(minimal(constraints={"finite": entries}))
            return load_problem(minimal(**{key: entries}))

        where = "$.constraints.finite" if key == "finite" else f"$.{key}"
        cases = [
            (["x1", "x2 +", "x1 $"], f"{where}[1]: bad expression 'x2 +': unexpected token "
             "'end of input' (at offset 4)"),
            (["x1", "x9"], f"{where}[1]: bad expression 'x9': variable 'x9' exceeds declared arity "
             "(x-dimension 2) (at offset 0)"),
            (["x1 +", 5], f"{where}[0]: bad expression 'x1 +'"),
            (["x1", 5, "x1 +"], f"{where}[1]: expected an expression string"),
        ]
        for entries, message in cases:
            with pytest.raises(ProblemFileError) as err:
                load(entries)
            assert str(err.value).startswith(message)

    def test_each_list_is_one_tape(self):
        loaded = load_problem(minimal(
            constraints={"finite": ["x1^2 + x2", "x2 + x1^2", "x1^2"]},
            inner_map=["x1", "x2"], equality=["x1 - x2", "sin(x1 - x2)"],
        ))
        family, prob = loaded.problem.family, loaded.problem
        assert family.members.outputs == (4, 5, 2)
        assert [str(m) for m in family.members] == ["x1^2 + x2", "x2 + x1^2", "x1^2"]
        assert [op for op, _ in prob.equality.tape].count("-") == 1
        assert list(prob.inner_map) == [parse("x1", 2), parse("x2", 2)]

    def test_an_integer_past_the_digit_limit_is_malformed_json(self, tmp_path):
        # Python refuses to read an integer of more than 4,300 digits
        doc = json.load(open(fixture_path("sip_linear")))
        text = json.dumps(doc).replace('"grid": 1025', '"grid": 1' + "0" * 5000)
        assert '"grid": 1000' in text
        path = tmp_path / "huge.json"
        path.write_text(text)
        for source in (text, str(path)):
            with pytest.raises(ProblemFileError) as err:
                load_problem(source)
            assert err.value.where == "$"
            assert err.value.message.startswith("malformed JSON: Exceeds the limit (4300 digits)")

    def test_candidate_length_checked(self):
        with pytest.raises(ProblemFileError):
            load_problem(minimal(candidate=[0, 0, 0]))

    def test_parametric_requires_box_and_grid(self):
        doc = minimal(constraints={"parametric": {"h": "x1 - t1", "t_dim": 1}})
        with pytest.raises(ProblemFileError):
            load_problem(doc)

    def test_bad_grid_argument_is_named(self):
        # the file's own grid is fine: the error is the argument's
        for grid in (1, 2.5, "65"):
            with pytest.raises(ProblemFileError) as err:
                load_problem(fixture_path("sip_trig"), grid)
            assert str(err.value) == f"grid: must be an integer >= 2, got {grid!r}"

    def test_grid_past_the_largest_index_is_named(self):
        # 10**400 points on one axis, 2**32 on each of two, 2 on each of 63:
        # more points than an index numbers (2**63 - 1)
        message = "grid ** t_dim exceeds the largest index, 9223372036854775807"
        for t_dim, grid in ((1, 10**400), (2, 2**32), (63, 2)):
            doc = minimal(constraints={"parametric": {
                "h": "x1 - t1", "t_dim": t_dim,
                "box": {"lower": [0.0] * t_dim, "upper": [1.0] * t_dim}, "grid": grid,
            }})
            with pytest.raises(ProblemFileError) as err:
                load_problem(doc)
            assert str(err.value) == f"$.constraints.parametric.grid: {message}"
        for grid in (10**400, 2**63):  # an argument grid on the file's one axis
            with pytest.raises(ProblemFileError) as err:
                load_problem(fixture_path("sip_linear"), grid)
            assert str(err.value) == f"grid: {message}"

    def test_union_family(self):
        doc = minimal(
            constraints={
                "finite": ["x1"],
                "parametric": {
                    "h": "x2 + t1",
                    "t_dim": 1,
                    "box": {"lower": [0.1], "upper": [1.0]},
                    "grid": 10,
                },
            }
        )
        loaded = load_problem(doc)
        family = loaded.problem.family
        assert isinstance(family, ParametricFamily)
        assert len(family.extra) == 1
        assert loaded.problem.family.index.base_grid == 10

    def test_polyhedral_stands_alone(self):
        doc = minimal(
            constraints={
                "finite": ["x1"],
                "polyhedral": {"normals": [[1, 0]], "offsets": [0]},
            }
        )
        with pytest.raises(ProblemFileError, match="cannot be combined"):
            load_problem(doc)

    def test_polyhedral_family(self):
        doc = minimal(constraints={"polyhedral": {"normals": [[1, 0], [0, 1]], "offsets": [0, 0]}})
        loaded = load_problem(doc)
        assert isinstance(loaded.problem.family, PolyhedralFamily)

    def test_constraints_optional_for_equality_problems(self):
        doc = {
            "dimension": 2,
            "objective": "x1",
            "equality": ["x1^2 + x2^2 - 1"],
            "candidate": [1, 0],
        }
        loaded = load_problem(doc)
        assert loaded.problem.family is None
        assert loaded.problem.equality is not None

    def test_inner_map_sets_family_arity(self):
        doc = minimal(
            inner_map=["x1", "x2 - x1^2", "x1*x2"],
            constraints={"finite": ["x1 + x2 + x3"]},
        )
        loaded = load_problem(doc)
        assert loaded.problem.q == 3

    def test_options_merge_types(self):
        loaded = load_problem(minimal(options={"eps0": 0.5, "max_steps": 7}))
        assert loaded.options == {"eps0": 0.5, "max_steps": 7}
        assert isinstance(loaded.options["max_steps"], int)

    def test_booleans_rejected_as_numbers(self):
        with pytest.raises(ProblemFileError):
            load_problem(minimal(options={"eps0": True}))

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("eps0", 0.0, "must be finite and > 0"),
            ("shrink", 1.0, "must lie strictly between 0 and 1"),
            ("max_steps", -1, "must be >= 0"),
            ("refine_depth", -3, "must be >= 0"),
            ("refine_depth", 2.5, "must be an integer"),
            ("k_max", 0, "must be >= 1"),
            ("lipschitz_radius", -1, "must be finite and > 0"),
            ("lipschitz_samples", 0, "must be >= 1"),
            ("tol_lp", -1e-9, "must be finite and >= 0"),
            ("tol_kink", float("inf"), "option values must be finite numbers"),
            ("tol", float("nan"), "option values must be finite numbers"),
        ],
    )
    def test_option_ranges_checked_at_load(self, key, value, message):
        with pytest.raises(ProblemFileError) as err:
            load_problem(minimal(options={key: value}))
        assert str(err.value) == f"$.options.{key}: {message}"

    def test_option_range_boundaries_accepted(self):
        options = {"tol": 0, "max_steps": 0, "refine_depth": 0, "k_max": 1, "lipschitz_samples": 1,
                   "shrink": 0.999, "eps0": 1e-300, "lipschitz_radius": 1e-300}
        assert load_problem(minimal(options=options)).options == {**options, "tol": 0.0}

    def test_flags_checked_after_file_options(self):
        loaded = load_problem(minimal(options={"shrink": 0.25}))
        opts = resolve_options(loaded.options, {"--shrink": ("shrink", None), "--eps0": ("eps0", 0.5)})
        assert (opts.shrink, opts.eps0) == (0.25, 0.5)
        with pytest.raises(ProblemFileError, match=r"^--refine: must be >= 0$"):
            resolve_options(loaded.options, {"--refine": ("refine_depth", -1)})
        with pytest.raises(ProblemFileError, match=r"^\$\.options\.shrink: "):
            resolve_options({"shrink": 2.0}, {"--shrink": ("shrink", 0.5)})

    @pytest.mark.parametrize(
        "text, where",
        [
            ('"candidate": [NaN, 0]', "$.candidate[0]"),
            ('"candidate": [0, -Infinity]', "$.candidate[1]"),
        ],
    )
    def test_non_finite_candidate_rejected(self, text, where):
        doc = json.dumps(minimal(candidate=[7, 7])).replace('"candidate": [7, 7]', text)
        with pytest.raises(ProblemFileError) as err:
            load_problem(doc)
        assert str(err.value) == f"{where}: expected a finite number"

    def test_non_finite_bounds_and_normals_rejected(self):
        sip = json.loads(open(fixture_path("sip_trig")).read())
        sip["constraints"]["parametric"]["box"]["upper"] = [math.inf]
        with pytest.raises(ProblemFileError) as err:
            load_problem(sip)
        assert str(err.value) == "$.constraints.parametric.box.upper[0]: expected a finite number"
        poly = minimal(constraints={"polyhedral": {"normals": [[1, 0], [0, math.nan]], "offsets": [0, 0]}})
        with pytest.raises(ProblemFileError) as err:
            load_problem(poly)
        assert str(err.value) == "$.constraints.polyhedral.normals[1][1]: expected a finite number"
        poly["constraints"]["polyhedral"]["normals"][1][1] = 1
        poly["constraints"]["polyhedral"]["offsets"][0] = -math.inf
        with pytest.raises(ProblemFileError, match=r"offsets\[0\]: expected a finite number"):
            load_problem(poly)

    @pytest.mark.parametrize("bad", [True, False, math.nan, -math.inf, "1", None, [1.0]])
    def test_bad_entry_deep_in_a_polytope_is_named(self, bad):
        normals = [[1.0, 0, -1, 0.5, float(j)] for j in range(200)]
        normals[137][4] = bad
        doc = {"dimension": 5, "objective": "x1",
               "constraints": {"polyhedral": {"normals": normals, "offsets": [-1.0] * 200}}}
        with pytest.raises(ProblemFileError) as err:
            load_problem(json.dumps(doc))
        assert str(err.value) == "$.constraints.polyhedral.normals[137][4]: expected a finite number"

    @pytest.mark.parametrize("path", [
        ("candidate", 1),
        ("constraints", "polyhedral", "normals", 1, 0),
        ("constraints", "polyhedral", "offsets", 0),
        ("constraints", "parametric", "box", "lower", 0),
        ("constraints", "parametric", "box", "upper", 0),
        ("options", "eps0"),
    ])
    def test_an_integer_beyond_any_float_is_named(self, path):
        # json reads a 401-digit integer exactly; float() and math.isfinite overflow on it
        doc = minimal(options={"eps0": 0.5})
        if "parametric" in path:
            doc = json.loads(open(fixture_path("sip_trig")).read())
        if "polyhedral" in path:
            doc["constraints"] = {"polyhedral": {"normals": [[1, 0], [0, 1]], "offsets": [0, 0]}}
        *keys, last = path
        functools.reduce(operator.getitem, keys, doc)[last] = -(10**400) if "offsets" in path else 10**400
        where = "$" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)
        with pytest.raises(ProblemFileError) as err:
            load_problem(json.dumps(doc))
        message = "option values must be finite numbers" if "options" in path else "expected a finite number"
        assert str(err.value) == f"{where}: {message}"

    def test_integers_that_sum_beyond_any_float_load(self):
        doc = minimal(candidate=[10**308, 10**308])
        assert load_problem(json.dumps(doc)).candidate.tolist() == [1e308, 1e308]

    def test_numbers_load_as_floats(self):
        doc = minimal(candidate=[1, -2.5])
        doc["constraints"] = {"polyhedral": {"normals": [[1, 0], [0.5, 2]], "offsets": [0, -1]}}
        loaded = load_problem(doc)
        assert [type(v) for v in loaded.candidate.tolist()] == [float, float]
        assert np.array_equal(loaded.candidate, [1.0, -2.5])
        assert np.array_equal(loaded.problem.family.poly.normals, [[1.0, 0.0], [0.5, 2.0]])

    @pytest.mark.parametrize("src, where", [
        ("(" * 200 + "x1" + ")" * 200, "$.objective"),
        ("-" * 3000 + "x1", "$.constraints.finite[1]"),
    ])
    def test_deep_nesting_is_an_input_error(self, src, where):
        doc = minimal()
        if where == "$.objective":
            doc["objective"] = src
        else:
            doc["constraints"]["finite"][1] = src
        with pytest.raises(ProblemFileError) as err:
            load_problem(json.dumps(doc))
        assert err.value.where == where
        assert str(err.value).endswith("expression nested deeper than 100 levels (at offset 100)")


class TestFixtures:
    def test_all_fixtures_load(self):
        for name in fixture_names():
            loaded = load_fixture(name)
            assert loaded.problem.p >= 1
            assert loaded.candidate is not None

    def test_readme_table_names_every_fixture(self):
        # README's "Bundled fixtures" table names the corpus in its order; one
        # row may name two fixtures, as cone_orthant and cone_hyperplane share one
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## Bundled fixtures\n", 1)[1].split("\n## ", 1)[0]
        rows = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
        named = [name for cell in rows for name in re.findall(r"`(\w+)`", cell)]
        assert named == list(fixture_names())


class TestEmitJson:
    def test_seventeen_digit_floats(self):
        text = emit_json({"value": 1 / 3})
        assert "0.33333333333333331" in text

    def test_round_trip_exact(self):
        payload = {
            "a": 0.1 + 0.2,
            "b": [1e-300, 2**53 + 1.0, -0.0],
            "c": {"nested": [3, True, None, "s"]},
        }
        parsed = json.loads(emit_json(payload))
        assert parsed["a"] == 0.1 + 0.2
        assert parsed["b"] == [1e-300, 2**53 + 1.0, -0.0]
        assert parsed["c"] == {"nested": [3, True, None, "s"]}

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_floats_always_round_trip(self, value):
        assert json.loads(emit_json({"x": value}))["x"] == value

    def test_bytes_of_floats_ints_bools_and_non_finite_values(self):
        edge = [0.1, -0.0, 5e-324, 1.7976931348623157e308]
        finite = "0.10000000000000001, -0, 4.9406564584124654e-324, 1.7976931348623157e+308"
        mixed = edge + [3, True, math.inf, math.nan]
        assert emit_json(mixed) == f'[{finite}, 3, true, "inf", "nan"]'
        assert emit_json(tuple(mixed)) == f'[{finite}, 3, true, "inf", "nan"]'
        for floats in (edge, np.array(edge), [np.float64(v) for v in edge]):
            assert emit_json(floats) == f"[{finite}]"
        with_inf = edge + [-math.inf, math.nan]
        for floats in (with_inf, np.array(with_inf), [np.float64(v) for v in with_inf]):
            assert emit_json(floats) == f'[{finite}, "-inf", "nan"]'
        assert emit_json({"rows": [[], [0.5], (1.0, 2)]}) == '{"rows": [[], [0.5], [1, 2]]}'
        text = emit_json({'a"é': "x\n\t\\", "k": ["s", None, False]})
        assert text == '{"a\\"\\u00e9": "x\\n\\t\\\\", "k": ["s", null, false]}'

    def test_numpy_values(self):
        text = emit_json({"v": np.array([0.5, 1.5]), "n": np.int64(3), "f": np.float64(0.25)})
        parsed = json.loads(text)
        assert parsed == {"v": [0.5, 1.5], "n": 3, "f": 0.25}
