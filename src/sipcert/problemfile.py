"""Problem files and machine-readable reports.

A problem file is a JSON document:

    {
      "dimension": 2,
      "objective": "-x1^2 - x2",
      "constraints": {
        "finite":     ["x1", ...],                       and/or
        "parametric": {"h": "...", "t_dim": 1,
                        "box": {"lower": [0], "upper": [1]}, "grid": 129},
        "polyhedral": {"normals": [[1,0],[0,1]], "offsets": [0,0]}
      },
      "inner_map":  ["x1", "x2 - x1^2"],                  (optional)
      "equality":   ["x1 - x2"],                          (optional)
      "candidate":  [0, 0],                               (optional)
      "options":    {"eps0": 1.0, ...}                    (optional)
    }

``constraints`` may combine "finite" with "parametric" (the union family);
"polyhedral" stands alone.  Omitting ``constraints`` altogether means the
problem has no inequality constraints (the A = whole-space case of the
equality branch).  Everything is schema-validated before any computation
and unknown keys are rejected.

Reports are emitted with every float at 17 significant digits, so
parse(emit(report)) round-trips bit-exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .expr import ParseError, parse
from .geometry import Polyhedron
from .model import FiniteFamily, IndexSet, ParametricFamily, PolyhedralFamily, Problem
from .options import OPTION_KEYS, OptionError, Options

__all__ = ["ProblemFileError", "LoadedProblem", "load_problem", "resolve_options", "emit_json"]


class ProblemFileError(Exception):
    def __init__(self, message, where="$"):
        super().__init__(f"{where}: {message}")
        self.where = where


@dataclass(frozen=True)
class LoadedProblem:
    problem: Problem
    candidate: np.ndarray | None
    options: dict  # raw option overrides from the file
    notes: tuple


def _require(cond, message, where):
    if not cond:
        raise ProblemFileError(message, where)


def _check_keys(obj, allowed, where):
    unknown = set(obj) - set(allowed)
    _require(not unknown, f"unknown keys {sorted(unknown)}", where)


def _parse_expr(src, arity_x, arity_t, where):
    _require(isinstance(src, str), "expected an expression string", where)
    try:
        return parse(src, arity_x, arity_t)
    except ParseError as err:
        raise ProblemFileError(f"bad expression {src!r}: {err}", where) from err


def _is_finite_number(v):
    # json accepts NaN and Infinity; neither is a valid input anywhere
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _number_list(values, where, length=None):
    _require(isinstance(values, list) and values, "expected a nonempty array of numbers", where)
    out = []
    for i, v in enumerate(values):
        if not _is_finite_number(v):
            raise ProblemFileError("expected a finite number", f"{where}[{i}]")
        out.append(float(v))
    if length is not None:
        _require(len(out) == length, f"expected {length} entries", where)
    return out


def load_problem(source, grid: int | None = None) -> LoadedProblem:
    """Load and validate a problem file (path, JSON text, or mapping), its box on ``grid`` if given."""
    valid_grid = grid is None or isinstance(grid, (int, np.integer)) and grid >= 2
    _require(valid_grid, f"must be an integer >= 2, got {grid!r}", "grid")
    if isinstance(source, dict):
        doc = source
    else:
        text = str(source)
        if not text.lstrip().startswith("{"):
            try:
                with open(source, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as err:
                raise ProblemFileError(f"cannot read {source}: {err}") from err
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as err:
            raise ProblemFileError(f"malformed JSON: {err}") from err
    _require(isinstance(doc, dict), "top level must be an object", "$")
    _check_keys(
        doc,
        ("dimension", "objective", "constraints", "inner_map", "equality", "candidate", "options"),
        "$",
    )
    _require("dimension" in doc and "objective" in doc, "dimension and objective are required", "$")
    p = doc["dimension"]
    _require(isinstance(p, int) and p >= 1, "dimension must be a positive integer", "$.dimension")

    inner_map = None
    q = p
    if "inner_map" in doc:
        raw = doc["inner_map"]
        _require(isinstance(raw, list) and raw, "inner_map must be a nonempty array", "$.inner_map")
        inner_map = tuple(
            _parse_expr(s, p, 0, f"$.inner_map[{i}]") for i, s in enumerate(raw)
        )
        q = len(inner_map)

    objective = _parse_expr(doc["objective"], p, 0, "$.objective")
    family = _load_constraints(doc.get("constraints"), q, grid)

    equality = None
    if "equality" in doc:
        raw = doc["equality"]
        _require(isinstance(raw, list) and raw, "equality must be a nonempty array", "$.equality")
        equality = tuple(_parse_expr(s, p, 0, f"$.equality[{i}]") for i, s in enumerate(raw))

    candidate = None
    if "candidate" in doc:
        candidate = np.array(_number_list(doc["candidate"], "$.candidate", length=p))

    raw_options = {}
    if "options" in doc:
        opts = doc["options"]
        _require(isinstance(opts, dict), "options must be an object", "$.options")
        _check_keys(opts, OPTION_KEYS, "$.options")
        int_keys = ("max_steps", "refine_depth", "k_max", "lipschitz_samples")
        for key, value in opts.items():
            where = f"$.options.{key}"
            _require(_is_finite_number(value), "option values must be finite numbers", where)
            if key in int_keys:
                _require(float(value).is_integer(), "must be an integer", where)
            raw_options[key] = int(value) if key in int_keys else float(value)
        resolve_options(raw_options)

    notes = []
    if "k_max" in raw_options:
        notes.append(f"countable families truncated at k <= {raw_options['k_max']}")
    try:
        problem = Problem(p, objective, family, inner_map, equality)
    except ValueError as err:
        raise ProblemFileError(str(err), "$") from err
    return LoadedProblem(problem, candidate, raw_options, tuple(notes))


def resolve_options(file_options, flags=None) -> Options:
    """The defaults, overridden by a file's ``options``, overridden by
    ``flags``, a mapping from a flag's name to the (field, value) it sets
    (a None value leaves the field as it is).

    Every field is range-checked by :class:`Options`; a value out of range
    is a :class:`ProblemFileError` at ``$.options.<key>``, or at the flag
    that set it.
    """
    flags = flags or {}
    try:
        opts = Options(**file_options)
    except OptionError as err:
        raise ProblemFileError(err.message, f"$.options.{err.key}") from err
    try:
        return opts.replace(**dict(flags.values()))
    except OptionError as err:
        flag = next(flag for flag, (key, _) in flags.items() if key == err.key)
        raise ProblemFileError(err.message, flag) from err


def _load_constraints(raw, q, grid_override):
    if raw is None:
        return None
    _require(isinstance(raw, dict) and raw, "constraints must be a nonempty object", "$.constraints")
    _check_keys(raw, ("finite", "parametric", "polyhedral"), "$.constraints")
    if "polyhedral" in raw:
        _require(len(raw) == 1, "polyhedral constraints cannot be combined", "$.constraints")
        spec, where = raw["polyhedral"], "$.constraints.polyhedral"
        _require(isinstance(spec, dict), "expected an object", where)
        _check_keys(spec, ("normals", "offsets"), where)
        _require("normals" in spec and "offsets" in spec, "normals and offsets are required", where)
        normals = spec["normals"]
        _require(isinstance(normals, list) and normals, "expected a nonempty array", f"{where}.normals")
        rows = [_number_list(r, f"{where}.normals[{j}]", length=q) for j, r in enumerate(normals)]
        offsets = _number_list(spec["offsets"], f"{where}.offsets", length=len(rows))
        try:
            poly = Polyhedron(np.array(rows), np.array(offsets))
        except Exception as err:
            raise ProblemFileError(str(err), where) from err
        return PolyhedralFamily(poly)

    finite_members = []
    if "finite" in raw:
        members = raw["finite"]
        _require(isinstance(members, list) and members, "expected a nonempty array", "$.constraints.finite")
        finite_members = [
            _parse_expr(s, q, 0, f"$.constraints.finite[{i}]") for i, s in enumerate(members)
        ]

    if "parametric" not in raw:  # the members are tagged phi0, phi1, ... by default
        return FiniteFamily(tuple(finite_members))

    spec = raw["parametric"]
    where = "$.constraints.parametric"
    _require(isinstance(spec, dict), "expected an object", where)
    _check_keys(spec, ("h", "t_dim", "box", "grid"), where)
    for key in ("h", "t_dim", "box", "grid"):
        _require(key in spec, f"{key} is required", where)
    t_dim = spec["t_dim"]
    _require(isinstance(t_dim, int) and t_dim >= 1, "t_dim must be a positive integer", f"{where}.t_dim")
    h = _parse_expr(spec["h"], q, t_dim, f"{where}.h")
    box = spec["box"]
    _require(isinstance(box, dict), "expected an object", f"{where}.box")
    _check_keys(box, ("lower", "upper"), f"{where}.box")
    lower = _number_list(box.get("lower"), f"{where}.box.lower", length=t_dim)
    upper = _number_list(box.get("upper"), f"{where}.box.upper", length=t_dim)
    grid = spec["grid"]
    _require(isinstance(grid, int) and grid >= 2, "grid must be an integer >= 2", f"{where}.grid")
    try:
        index = IndexSet.box(lower, upper, grid if grid_override is None else grid_override)
    except ValueError as err:
        raise ProblemFileError(str(err), f"{where}.box") from err
    return ParametricFamily(h, index, tuple(finite_members))


# ---------------------------------------------------------------------------
# JSON emission with 17-significant-digit floats

_quote = json.encoder.encode_basestring_ascii  # json.dumps of a str, without its call overhead


def _emit(value, out):
    if value is None or isinstance(value, (bool, np.bool_)):
        out.append("null" if value is None else ("true" if value else "false"))
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        v = float(value)
        if not math.isfinite(v):
            out.append(_quote(str(v)))
        else:
            out.append(format(v, ".17g"))
    elif isinstance(value, str):
        out.append(_quote(value))
    elif isinstance(value, dict):
        out.append("{")
        for i, (k, v) in enumerate(value.items()):
            if i:
                out.append(", ")
            out.append(_quote(str(k)))
            out.append(": ")
            _emit(v, out)
        out.append("}")
    elif isinstance(value, (list, tuple, np.ndarray)):
        items = value.tolist() if isinstance(value, np.ndarray) else value
        if all(isinstance(v, float) and math.isfinite(v) for v in items):
            # finite floats (float64 too), most of a long report, in one join
            out.append("[" + ", ".join(map("%.17g".__mod__, items)) + "]")
            return
        out.append("[")
        for i, v in enumerate(items):
            if i:
                out.append(", ")
            _emit(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(value)!r}")


def emit_json(value) -> str:
    """Serialize a report with floats at 17 significant digits (round-trip exact)."""
    out = []
    _emit(value, out)
    return "".join(out)
