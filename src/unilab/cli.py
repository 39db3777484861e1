"""Command line interface: batch analysis driven by a JSON config.

    unilab run --config cfg.json --out report.json [--format json|csv]
    unilab validate --config cfg.json

Reports are deterministic: keys are emitted sorted, floats in a fixed
%.12e format, and the provenance block hashes the config bytes instead
of carrying timestamps. Identical configs therefore produce
byte-identical reports. Exit codes: 0 success, 1 invalid config,
2 numerical failure inside a task.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import sys
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    ExpressionCompileError,
    ExpressionSyntaxError,
    SizeLimitError,
    UnilabError,
    UnknownIdentifierError,
    raise_first,
)
from .expressions import compile_expr, diff
from .expressions import parse as parse_expr
from .fields import AnalyticFrameField, AnalyticVectorField, BodyDomain, SampledFrameField
from .foliation import (
    LatticeDefect,
    classify_m_counts,
    lattice_defect,
    records,
    report_to_csv,
    report_to_dict,
    scan_defect,
)
from .double_groupoid import (
    DEFAULT_COMMUTATION_TOL,
    DEFAULT_SQUARE_CAP,
    MaterialDoubleGroupoid,
    commuting_rows,
    core,
    is_compatible,
    normalizer_criterion,
    opposite_pair_max_deviation,
    square_from_dict,
    unfillable_indices,
)
from .groupoid import DEFAULT_ARROW_TOL, Arrow, FiniteGroupoid, PointSet, from_frame_field
from .groupoid import is_transitive
from .infinitesimal import KINDS, classify_stack
from .linalg3 import DEFAULT_RANK_REL_TOL, max_abs
from .measures import CompositeSpec, MeasureResult, SymmetryCase, evaluate_measure_stack

TASKS = ("measure", "foliate", "squares", "misalign", "infinitesimal")

_VEC3 = {"type": "array", "items": {"type": "number"}, "minItems": 3, "maxItems": 3}
_EXPR_ROW = {"type": "array", "items": {"type": "string"}, "minItems": 3, "maxItems": 3}
_FRAME = {
    "oneOf": [
        {"type": "array", "items": _EXPR_ROW, "minItems": 3, "maxItems": 3},
        {
            "type": "object",
            "required": ["grid"],
            "properties": {"grid": {"type": "string"}},
            "additionalProperties": False,
        },
    ]
}
_ARROW = {
    "type": "object",
    "required": ["id", "source", "target", "map"],
    "properties": {
        "id": {"type": "string"},
        "source": {"type": "string"},
        "target": {"type": "string"},
        "map": {"type": "array", "items": {"type": "number"}, "minItems": 9, "maxItems": 9},
    },
    "additionalProperties": False,
}
_PAIR = {"type": "array", "items": {"type": "string"}, "minItems": 2, "maxItems": 2}

CONFIG_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["schema", "composite", "tasks"],
    "properties": {
        "schema": {"const": 1},
        "domain": {
            "type": "object",
            "required": ["lower", "upper", "resolution"],
            "properties": {
                "lower": _VEC3,
                "upper": _VEC3,
                "resolution": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 2},
                    "minItems": 3,
                    "maxItems": 3,
                },
            },
            "additionalProperties": False,
        },
        "composite": {
            "type": "object",
            "required": ["case", "component1", "component2"],
            "properties": {
                "case": {"enum": [case.value for case in SymmetryCase]},
                "component1": _FRAME,
                "component2": _FRAME,
                "director": _EXPR_ROW,
                "director1": _EXPR_ROW,
                "director2": _EXPR_ROW,
            },
            "additionalProperties": False,
        },
        "tolerances": {
            "type": "object",
            "properties": {
                "rank_rel_tol": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "commutation_tol": {"type": "number", "exclusiveMinimum": 0},
                "group_tol": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
        "points": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id", "coords"],
                "properties": {"id": {"type": "string"}, "coords": _VEC3},
                "additionalProperties": False,
            },
        },
        "pairs": {"type": "array", "items": _PAIR},
        "pair_comparisons": {
            "type": "array",
            "items": {"type": "array", "items": _PAIR, "minItems": 2, "maxItems": 2},
        },
        "groupoids": {
            "type": "object",
            "required": ["horizontal", "vertical"],
            "properties": {
                "horizontal": {
                    "type": "object",
                    "required": ["arrows"],
                    "properties": {"arrows": {"type": "array", "items": _ARROW}},
                    "additionalProperties": False,
                },
                "vertical": {
                    "type": "object",
                    "required": ["arrows"],
                    "properties": {"arrows": {"type": "array", "items": _ARROW}},
                    "additionalProperties": False,
                },
            },
            "additionalProperties": False,
        },
        "squares": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["corners", "s", "t", "s_hat", "t_hat"],
                "properties": {
                    "corners": {
                        "type": "object",
                        "required": ["W", "X", "Y", "Z"],
                        "properties": {
                            "W": {"type": "string"},
                            "X": {"type": "string"},
                            "Y": {"type": "string"},
                            "Z": {"type": "string"},
                        },
                        "additionalProperties": False,
                    },
                    "s": {"type": "string"},
                    "t": {"type": "string"},
                    "s_hat": {"type": "string"},
                    "t_hat": {"type": "string"},
                },
                "additionalProperties": False,
            },
        },
        "max_squares": {"type": "integer", "minimum": 1},
        "tasks": {
            "type": "array",
            "items": {"enum": list(TASKS)},
            "minItems": 1,
        },
    },
    "additionalProperties": False,
}

_TASKS_NEEDING_DOMAIN = {"measure", "foliate", "infinitesimal"}
_TASKS_NEEDING_POINTS = {"squares", "misalign"}
# The largest lattice the lattice tasks build. A larger `resolution` validates,
# but each lattice task then reports a SizeLimitError before allocating.
MAX_LATTICE_NODES = 100_000


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_TYPE_TESTS = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "number": _is_number,
    "integer": lambda value: _is_number(value) and (isinstance(value, int) or value.is_integer()),
}


def _same(a, b) -> bool:
    """JSON equality of scalars: unlike Python's, true is not 1 and false is not 0."""
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def _conforms(value, schema: dict) -> bool:
    """Whether `value` is valid under `schema`, for the draft-7 keywords CONFIG_SCHEMA uses.

    It follows jsonschema's Draft7Validator: a bool is neither a number nor an
    integer, an integral float is an integer, `const` and `enum` tell true from
    1, and NaN passes every bound. Validation reads only the answer;
    jsonschema explains a config that does not conform.
    """
    if "type" in schema and not _TYPE_TESTS[schema["type"]](value):
        return False
    if "const" in schema and not _same(value, schema["const"]):
        return False
    if "enum" in schema and not any(_same(value, option) for option in schema["enum"]):
        return False
    if "oneOf" in schema and sum(_conforms(value, sub) for sub in schema["oneOf"]) != 1:
        return False
    if _is_number(value):
        if "minimum" in schema and value < schema["minimum"]:
            return False
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            return False
        if "exclusiveMaximum" in schema and value >= schema["exclusiveMaximum"]:
            return False
    if isinstance(value, list):
        if not schema.get("minItems", 0) <= len(value) <= schema.get("maxItems", len(value)):
            return False
        if "items" in schema and not all(_conforms(item, schema["items"]) for item in value):
            return False
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        if not all(key in value for key in schema.get("required", ())):
            return False
        closed = schema.get("additionalProperties", True) is False
        if closed and not value.keys() <= properties.keys():
            return False
        if not all(_conforms(value[key], sub) for key, sub in properties.items() if key in value):
            return False
    return True


def _schema_diagnostics(config) -> list[str]:
    """CONFIG_SCHEMA's violations as sorted `location: message` lines."""
    if _conforms(config, CONFIG_SCHEMA):
        return []
    # jsonschema is imported only to explain a config that does not conform:
    # its messages are the diagnostics.
    import jsonschema

    validator = jsonschema.Draft7Validator(CONFIG_SCHEMA)
    schema_errors = sorted(
        validator.iter_errors(config),
        key=lambda e: (list(map(str, e.absolute_path)), e.message),
    )
    return [
        f"{'.'.join(str(part) for part in err.absolute_path) or 'config'}: {err.message}"
        for err in schema_errors
    ]


def _expression_diagnostics(path: str, text: str, derivatives: bool) -> list[str]:
    """One cell's diagnostic: the cell compiled on its own, and its first derivatives if asked.

    It names the failing cells of a field that does not build. A derivative
    nests deeper than its expression.
    """
    try:
        e = parse_expr(text)
        compile_expr(e)
    except (ExpressionSyntaxError, ExpressionCompileError, UnknownIdentifierError) as exc:
        return [f"{path}: {exc}"]
    if not derivatives:
        return []
    for k in (1, 2, 3):
        try:
            compile_expr(diff(e, k))
        except ExpressionCompileError as exc:
            return [f"{path}: derivative along x{k}: {exc}"]
    return []


def _cells(path: str, node):
    """(path, text) of every expression in a frame's rows or a director."""
    if isinstance(node, str):
        yield path, node
    else:
        for i, child in enumerate(node):
            yield from _cells(f"{path}[{i}]", child)


def _analytic_field(path: str, node, derivatives: bool):
    """(field, diagnostics) for a frame's rows or a director.

    The field's value stack is compiled now, and its derivative stack too
    when the lattice tasks will evaluate it, so that `run` compiles nothing.
    """
    try:
        field_type = AnalyticVectorField if isinstance(node[0], str) else AnalyticFrameField
        field = field_type.from_strings(node)
        field._values._array_fn
        if derivatives:
            field._derivs._array_fn
        return field, []
    except (ExpressionSyntaxError, ExpressionCompileError, UnknownIdentifierError) as exc:
        # Name the failing cells; a stack whose every cell compiles on its
        # own is reported at the component.
        out = [line for at, text in _cells(path, node)
               for line in _expression_diagnostics(at, text, derivatives)]
        return None, out or [f"{path}: {exc}"]


def _grid_field(path: str, node: dict, config_dir: Path):
    """(field, diagnostics) for a component read from an .npz grid."""
    grid = config_dir / node["grid"]
    if not grid.is_file():
        return None, [f"{path}.grid: grid file {node['grid']!r} not found"]
    try:
        return SampledFrameField.from_npz(grid), []
    except UnilabError as exc:
        return None, [f"{path}.grid: grid file {node['grid']!r}: {exc}"]


def _float_diagnostics(value, schema: dict, path: str = "") -> list[str]:
    """The numbers the run reads as floats that no finite float holds.

    The schema passes, as jsonschema does, JSON integers past 1.8e308 and
    the NaN, Infinity, -Infinity and 1e999 that json reads as floats.
    """
    if schema.get("type") == "number":
        try:
            number = float(value)
        except OverflowError:
            return [f"{path}: integer too large to convert to float"]
        return [] if math.isfinite(number) else [f"{path}: {number!r} is not a finite number"]
    if isinstance(value, list) and "items" in schema:
        parts = [(f"{path}[{i}]", item, schema["items"]) for i, item in enumerate(value)]
    elif isinstance(value, dict):
        parts = [(f"{path}.{key}" if path else key, value[key], sub)
                 for key, sub in schema.get("properties", {}).items() if key in value]
    else:
        return []
    return [line for at, item, sub in parts for line in _float_diagnostics(item, sub, at)]


def _overflows(lower, upper) -> bool:
    """Whether two finite bounds span an extent upper - lower past the float range."""
    try:
        lower, upper = float(lower), float(upper)
    except OverflowError:  # _float_diagnostics names the bound itself
        return False
    return math.isfinite(lower) and math.isfinite(upper) and not math.isfinite(upper - lower)


def validate_config(config_path) -> list[str]:
    """Structural diagnostics for a config file; empty means runnable."""
    return _check_config(config_path)[0]


def _check_config(config_path) -> tuple[list[str], _Context | None]:
    """validate_config's diagnostics, and the context that runs a config without any.

    This is the one pass over the config: it reads and parses it once,
    builds its fields and compiles the expression stacks the run evaluates.
    """
    config_path = Path(config_path)
    try:
        raw = config_path.read_bytes()
    except OSError as exc:
        return [f"config: cannot read {config_path}: {exc}"], None
    try:
        config = json.loads(raw)
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, huge integers, deep nesting
        return [f"config: invalid JSON: {exc}"], None

    out = _schema_diagnostics(config)
    if out:
        return out, None
    out = _float_diagnostics(config, CONFIG_SCHEMA)

    tasks = set(config["tasks"])
    derivatives = bool(tasks & _TASKS_NEEDING_DOMAIN)
    composite = config["composite"]
    fields = {}
    for key in ("component1", "component2", "director", "director1", "director2"):
        if key in composite:
            path = f"composite.{key}"
            node = composite[key]
            if isinstance(node, dict):
                field, lines = _grid_field(path, node, config_path.parent)
            else:
                field, lines = _analytic_field(path, node, derivatives)
            fields[path] = field
            out.extend(lines)

    case = composite["case"]
    if case == "discrete-transiso" and "director" not in composite:
        out.append("composite: case discrete-transiso requires a director")
    if case == "transiso-transiso" and not (
        "director1" in composite and "director2" in composite
    ):
        out.append("composite: case transiso-transiso requires director1 and director2")

    if "domain" in config:
        domain = config["domain"]
        for k, (lower, upper) in enumerate(zip(domain["lower"], domain["upper"])):
            if upper <= lower:
                out.append(
                    f"domain.upper[{k}]: {upper!r} does not exceed domain.lower[{k}] = {lower!r}"
                )
            elif _overflows(lower, upper):
                out.append(f"domain.upper[{k}]: extent {upper!r} - {lower!r} is not a finite number")

    if tasks & _TASKS_NEEDING_DOMAIN and "domain" not in config:
        out.append(
            "tasks: "
            + ", ".join(sorted(tasks & _TASKS_NEEDING_DOMAIN))
            + " need a domain block"
        )
    if tasks & _TASKS_NEEDING_POINTS and not config.get("points"):
        out.append(
            "tasks: " + ", ".join(sorted(tasks & _TASKS_NEEDING_POINTS)) + " need points"
        )
    if "misalign" in tasks and not config.get("pairs"):
        out.append("tasks: misalign needs pairs")

    points = config.get("points", [])
    point_ids = [p["id"] for p in points]
    seen = set()
    for i, pid in enumerate(point_ids):
        if pid in seen:
            out.append(f"points[{i}]: duplicate point id {pid!r}")
        seen.add(pid)
    known = set(point_ids)

    def check_point(path: str, pid: str):
        if pid not in known:
            out.append(f"{path}: unknown point id {pid!r}")

    for i, pair in enumerate(config.get("pairs", [])):
        for j, pid in enumerate(pair):
            check_point(f"pairs[{i}][{j}]", pid)
    for i, comparison in enumerate(config.get("pair_comparisons", [])):
        for j, pair in enumerate(comparison):
            for k, pid in enumerate(pair):
                check_point(f"pair_comparisons[{i}][{j}][{k}]", pid)

    arrow_ids: dict[str, set[str]] = {"horizontal": set(), "vertical": set()}
    if "groupoids" in config:
        for side in ("horizontal", "vertical"):
            for i, arrow in enumerate(config["groupoids"][side]["arrows"]):
                check_point(f"groupoids.{side}.arrows[{i}].source", arrow["source"])
                check_point(f"groupoids.{side}.arrows[{i}].target", arrow["target"])
                arrow_ids[side].add(arrow["id"])
    else:
        generated = {f"{a}->{b}" for a in known for b in known}
        arrow_ids["horizontal"] = generated
        arrow_ids["vertical"] = set(generated)

    for i, sq in enumerate(config.get("squares", [])):
        for corner in ("W", "X", "Y", "Z"):
            check_point(f"squares[{i}].corners.{corner}", sq["corners"][corner])
        for slot, side in (("s", "horizontal"), ("t", "horizontal"),
                           ("s_hat", "vertical"), ("t_hat", "vertical")):
            if sq[slot] not in arrow_ids[side]:
                out.append(f"squares[{i}].{slot}: unknown {side} arrow id {sq[slot]!r}")
    return out, None if out else _Context(raw, config, fields)


# ---------------------------------------------------------------------------
# Analysis context
# ---------------------------------------------------------------------------


class _Context:
    def __init__(self, raw: bytes, config: dict, fields: dict):
        self.raw = raw  # the config bytes, hashed into the provenance block
        self.config = config
        self.fields = fields  # validation's fields, by config path
        tolerances = config.get("tolerances", {})
        self.rank_rel_tol = float(tolerances.get("rank_rel_tol", DEFAULT_RANK_REL_TOL))
        self.commutation_tol = float(tolerances.get("commutation_tol", DEFAULT_COMMUTATION_TOL))
        self.group_tol = float(tolerances.get("group_tol", DEFAULT_ARROW_TOL))
        self.max_squares = int(config.get("max_squares", DEFAULT_SQUARE_CAP))
        self.foliation_report = None

    @cached_property
    def composite(self) -> CompositeSpec:
        comp = self.config["composite"]
        return CompositeSpec(
            symmetry_case=SymmetryCase.from_string(comp["case"]),
            **{key: self.fields[f"composite.{key}"] for key in comp if key != "case"},
        )

    @cached_property
    def domain(self) -> BodyDomain:
        dom = self.config["domain"]
        return BodyDomain(tuple(dom["lower"]), tuple(dom["upper"]), tuple(dom["resolution"]))

    @cached_property
    def lattice(self) -> np.ndarray:
        n_nodes = math.prod(self.domain.resolution)
        if n_nodes > MAX_LATTICE_NODES:
            raise SizeLimitError(
                f"a lattice of {n_nodes} nodes exceeds the cap of {MAX_LATTICE_NODES} nodes"
            )
        return self.domain.lattice()

    @cached_property
    def defect(self) -> LatticeDefect:
        """The case-1 defect and its kernel on the lattice, read by every lattice task."""
        return lattice_defect(self.composite, self.lattice, self.rank_rel_tol)

    @cached_property
    def points(self) -> PointSet:
        return PointSet.from_pairs((p["id"], p["coords"]) for p in self.config["points"])

    @cached_property
    def sides(self) -> tuple[FiniteGroupoid, FiniteGroupoid]:
        if "groupoids" in self.config:
            arrows = [
                [Arrow(a["id"], a["source"], a["target"], np.asarray(a["map"], float).reshape(3, 3))
                 for a in self.config["groupoids"][side]["arrows"]]
                for side in ("horizontal", "vertical")
            ]
            return tuple(FiniteGroupoid(self.points, side, self.group_tol) for side in arrows)
        side_h = from_frame_field(self.composite.component1, self.points, self.group_tol)
        side_v = from_frame_field(self.composite.component2, self.points, self.group_tol)
        return side_h, side_v

    @cached_property
    def commutation(self) -> tuple[int, np.ndarray]:
        """The coarse square count and the commuting squares' arrow-index rows, in coarse order."""
        side_h, side_v = self.sides
        return commuting_rows(side_h, side_v, self.commutation_tol, self.max_squares)

    @cached_property
    def dgpd(self) -> MaterialDoubleGroupoid:
        side_h, side_v = self.sides
        if "squares" in self.config:
            squares = [
                square_from_dict(sq, side_h, side_v) for sq in self.config["squares"]
            ]
            return MaterialDoubleGroupoid(side_h, side_v, squares, self.commutation_tol)
        return MaterialDoubleGroupoid.from_rows(
            side_h, side_v, self.commutation[1], self.commutation_tol
        )


# ---------------------------------------------------------------------------
# Tasks
# ---------------------------------------------------------------------------


def _task_measure(ctx: _Context) -> dict:
    composite = ctx.composite
    case = composite.case_number
    if case == 1:
        result, failures = MeasureResult(1, ctx.defect.b), ctx.defect.failures
    else:
        result, failures = evaluate_measure_stack(composite, ctx.lattice)
    raise_first(failures)
    per_node = max_abs(result.B)
    block = {
        "case": composite.symmetry_case.value,
        "n_nodes": len(per_node),
        "max_abs_B": float(np.max(per_node)),
        # A running sum in lattice order, so the last digit never depends on
        # how numpy would pair the terms.
        "mean_abs_B": float(np.cumsum(per_node)[-1]) / len(per_node),
    }
    if case == 1:
        m_counts = np.bincount(ctx.defect.m, minlength=4)
        block["m_counts"] = {str(m): int(m_counts[m]) for m in range(4)}
        block["class"] = classify_m_counts(m_counts).value
    if case == 3:
        block["max_abs_director_gradient"] = float(np.max(max_abs(result.b_hat)))
    if case == 5:
        block["max_abs_angle_defect"] = float(np.max(np.abs(result.angle_defect)))
    return block


def _task_foliate(ctx: _Context) -> dict:
    report = scan_defect(ctx.composite, ctx.defect)
    ctx.foliation_report = report
    return report_to_dict(report)


def _misalignment_table(ctx: _Context, m) -> dict:
    """Misalignment m(a, b) of each configured pair, or of every ordered pair."""
    pairs = ctx.config.get("pairs")
    ids = ctx.points.ids
    if pairs is None:
        pairs = [[a, b] for a, b in itertools.permutations(ids, 2)]
    table = {}
    for a, b in pairs:
        table[f"{a}->{b}"] = [float(v) for v in m(a, b).ravel()]
    return table


def _task_squares(ctx: _Context) -> dict:
    dg = ctx.dgpd
    n_coarse, commuting = ctx.commutation
    n_commutative = len(commuting)
    core_groupoid = core(dg)
    uniform = is_transitive(core_groupoid)  # what is_uniform(dg) computes
    block = {
        "n_points": len(ctx.points),
        "n_coarse": n_coarse,
        "n_stored": len(dg.rows),
        "n_commutative": n_commutative,
        "all_commutative": n_commutative == n_coarse,
        "core_arrow_count": len(core_groupoid.arrows),
        "core_transitive": uniform,
        "uniform": uniform,
        "unfillable_pairs": len(unfillable_indices(dg)[0]),
    }
    try:
        block["opposite_pair_max_deviation"] = opposite_pair_max_deviation(dg)
        block["misalignments"] = _misalignment_table(ctx, dg.misalignments)
    except UnilabError as exc:
        block["misalignment_error"] = str(exc)
    return block


def _task_misalign(ctx: _Context) -> dict:
    dg = ctx.dgpd
    block = {"pairs": _misalignment_table(ctx, dg.misalignments)}
    comparisons = []
    for pair1, pair2 in ctx.config.get("pair_comparisons", []):
        entry = {
            "pair1": f"{pair1[0]}->{pair1[1]}",
            "pair2": f"{pair2[0]}->{pair2[1]}",
        }
        try:
            entry["compatible_1"] = is_compatible(dg, tuple(pair1), tuple(pair2), 1)
            entry["compatible_2"] = is_compatible(dg, tuple(pair1), tuple(pair2), 2)
            if entry["compatible_1"]:
                entry["normalizer_commutes"] = normalizer_criterion(
                    dg, tuple(pair1), tuple(pair2)
                )
        except UnilabError as exc:
            entry["error"] = str(exc)
        comparisons.append(entry)
    if comparisons:
        block["comparisons"] = comparisons
    return block


def _task_infinitesimal(ctx: _Context) -> dict:
    defect = ctx.defect
    raise_first(defect.failures)
    kinds, ms, _ = classify_stack(defect.gamma1_max, defect.gamma2_max, defect.sigma, defect.m)
    names = [kind.value for kind in KINDS]
    kind_counts = np.bincount(kinds, minlength=len(KINDS))
    m_counts = np.bincount(ms, minlength=4)
    return {
        "n_nodes": len(ms),
        "kind_counts": {names[k]: int(c) for k, c in enumerate(kind_counts) if c},
        "m_counts": {str(m): int(m_counts[m]) for m in range(4)},
        "m_mode": int(np.argmax(m_counts)),
        "nodes": records(x=defect.points, kind=np.array(names)[kinds], m=ms),
    }


_TASK_RUNNERS = {
    "measure": _task_measure,
    "foliate": _task_foliate,
    "squares": _task_squares,
    "misalign": _task_misalign,
    "infinitesimal": _task_infinitesimal,
}


# ---------------------------------------------------------------------------
# Deterministic serialization
# ---------------------------------------------------------------------------


def canonical_json(value) -> str:
    """JSON with sorted keys and %.12e floats, for byte-stable reports.

    Values are None, bools, ints, floats, strings, dicts, lists, tuples,
    numpy integer and floating scalars, and 1-D structured arrays, which
    are written as a list of records with their field names as keys.
    Anything else is a TypeError.
    """
    pieces: list[str] = []
    _emit(value, pieces)
    return "".join(pieces)


def _emit(value, out: list[str]) -> None:
    if value is None:
        out.append("null")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        out.append("%.12e" % float(value))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, dict):
        out.append("{")
        for i, key in enumerate(sorted(value)):
            if i:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _emit(value[key], out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    elif isinstance(value, np.ndarray) and value.dtype.names is not None and value.ndim == 1:
        out.append(_records_text(value))
    else:
        raise TypeError(f"cannot serialize {type(value).__name__} deterministically")


def _records_text(array: np.ndarray) -> str:
    """A structured array as a JSON list of objects, formatted one field column at a time.

    Each field becomes columns of %-format arguments: floats and float
    sub-array rows are formatted by the record template itself, ints as
    `str` does, and each distinct string is JSON-encoded once. One
    template, its keys sorted and `%` escaped, then writes each record.
    """
    parts, columns = [], []
    for name in sorted(array.dtype.names):
        column = array[name]
        kind = column.dtype.kind
        if kind not in "fiuU" or column.ndim > 2 or (column.ndim == 2 and kind != "f"):
            raise TypeError(f"cannot serialize field {name!r} of type {array.dtype[name]}")
        key = json.dumps(name).replace("%", "%%") + ":"
        if column.ndim == 2:
            parts.append(key + "[" + ",".join(["%.12e"] * column.shape[1]) + "]")
            columns.extend(column.T.tolist())
        elif kind == "U":
            strings, index = np.unique(column, return_inverse=True)
            encoded = [json.dumps(s) for s in strings.tolist()]
            parts.append(key + "%s")
            columns.append([encoded[i] for i in index.tolist()])
        else:
            parts.append(key + ("%.12e" if kind == "f" else "%d"))
            columns.append(column.tolist())
    template = "{" + ",".join(parts) + "}"
    rows = zip(*columns) if columns else [()] * len(array)
    return "[" + ",".join([template % row for row in rows]) + "]"


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run(config_path, out_path, out_format: str = "json") -> int:
    """Execute the configured tasks and write the report. Returns the exit code."""
    diagnostics, ctx = _check_config(config_path)
    if diagnostics:
        print("\n".join(diagnostics))
        return 1
    task_blocks: dict[str, dict] = {}
    failed = False
    for task in ctx.config["tasks"]:
        try:
            task_blocks[task] = _TASK_RUNNERS[task](ctx)
        except UnilabError as exc:
            task_blocks[task] = {"error": str(exc)}
            failed = True
    if out_format == "csv":
        if ctx.foliation_report is None:
            print("csv output requires a successful foliate task")
            return 1
        Path(out_path).write_text(report_to_csv(ctx.foliation_report))
    else:
        report = {
            "schema": 1,
            "provenance": {
                "config_sha256": hashlib.sha256(ctx.raw).hexdigest(),
                "tool": "unilab",
                "version": __version__,
            },
            "tasks": task_blocks,
        }
        Path(out_path).write_text(canonical_json(report) + "\n")
    if failed:
        return 2
    return 0


def validate(config_path) -> int:
    diagnostics = validate_config(config_path)
    print("\n".join(diagnostics or ["ok"]))
    return 1 if diagnostics else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="unilab",
        description="Uniformity analysis of binary composites described by frame fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="run the configured analysis tasks")
    run_parser.add_argument("--config", required=True, help="JSON config path")
    run_parser.add_argument("--out", required=True, help="report output path")
    run_parser.add_argument("--format", choices=["json", "csv"], default="json")
    validate_parser = sub.add_parser("validate", help="check a config without running it")
    validate_parser.add_argument("--config", required=True, help="JSON config path")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config, args.out, args.format)
    return validate(args.config)


if __name__ == "__main__":
    sys.exit(main())
