"""Scalar reference implementations of stacked library code.

The groupoid and double-groupoid facts walk Arrow and Square objects one
at a time, with the same tolerances and the same first-failure messages
as the library, which computes them on stacked arrays. `canonical_json`
writes a report one value at a time; the library writes record arrays a
column at a time. The tests hold the library's results to these.
"""
import json
from functools import cache

import numpy as np

from unilab.double_groupoid import MaterialDoubleGroupoid, _unique_arrow
from unilab.errors import UnilabError
from unilab.groupoid import (
    Arrow,
    FiniteGroupoid,
    arrows_match,
    compose_arrows,
    invert_arrow,
    unit_arrow,
    unit_pair_arrow,
)
from unilab.linalg3 import invert, singular_tolerance


def validate(g: FiniteGroupoid) -> None:
    """The groupoid axioms, arrow by arrow, in FiniteGroupoid.validate's order."""
    for a in g.arrows:
        if a.source not in g.base or a.target not in g.base:
            raise UnilabError(f"arrow {a.id!r} references a point outside the base")
        for payload in (a.map,) if a.map2 is None else (a.map, a.map2):
            if abs(float(np.linalg.det(payload))) <= singular_tolerance(payload):
                raise UnilabError(f"arrow {a.id!r} has a singular map")
    paired = any(a.map2 is not None for a in g.arrows)
    make_unit = unit_pair_arrow if paired else unit_arrow
    touched = {a.source for a in g.arrows} | {a.target for a in g.arrows}
    for point in g.base.ids:
        if point in touched and g.find(make_unit(point)) is None:
            raise UnilabError(f"missing unit loop at point {point!r}")
    for a in g.arrows:
        if g.find(invert_arrow(a)) is None:
            raise UnilabError(f"missing inverse of arrow {a.id!r}")
    for u in g.arrows:
        for v in [a for a in g.arrows if a.target == u.source]:
            if g.find(compose_arrows(u, v)) is None:
                raise UnilabError(f"composite of {u.id!r} after {v.id!r} escapes the arrow set")


def core(dg: MaterialDoubleGroupoid) -> FiniteGroupoid:
    """The core, square by square; validated by the scalar axioms."""
    tol = dg.tolerance
    arrows: list[Arrow] = []
    for sq in dg.squares:
        if not (sq.W == sq.X == sq.Y):
            continue
        if not arrows_match(sq.s, unit_arrow(sq.W), tol):
            continue
        if not arrows_match(sq.s_hat, unit_arrow(sq.W), tol):
            continue
        candidate = Arrow(f"core{len(arrows)}:{sq.W}->{sq.Z}", sq.W, sq.Z, sq.t.map, sq.t_hat.map)
        if not any(arrows_match(candidate, a, tol) for a in arrows):
            arrows.append(candidate)
    g = FiniteGroupoid(dg.side_h.base, arrows, tol, check=False)
    validate(g)
    return g


def filling_check(dg: MaterialDoubleGroupoid) -> list[tuple[Arrow, Arrow]]:
    """Unfillable (s, s_hat) pairs, pair by pair against the stored squares."""
    by_sources: dict = {}
    for sq in dg.squares:
        by_sources.setdefault((sq.W, sq.Y, sq.X), []).append(sq)
    unfillable = []
    for s in dg.side_h.arrows:
        for s_hat in dg.side_v.arrows:
            if s.source != s_hat.source:
                continue
            candidates = by_sources.get((s.source, s.target, s_hat.target), [])
            if not any(
                arrows_match(sq.s, s, dg.tolerance) and arrows_match(sq.s_hat, s_hat, dg.tolerance)
                for sq in candidates
            ):
                unfillable.append((s, s_hat))
    return unfillable


def misalignment(dg: MaterialDoubleGroupoid, x, y):
    """(u*)^-1 u from the two unique side arrows x -> y."""
    u = _unique_arrow(dg.side_h, x, y)
    u_star = _unique_arrow(dg.side_v, x, y)
    return invert(u_star.map) @ u.map


def opposite_pair_max_deviation(dg: MaterialDoubleGroupoid) -> float:
    """The largest opposite-pair misalignment difference, square by square."""
    m = cache(lambda x, y: misalignment(dg, x, y))
    deviation = 0.0
    for sq in dg.squares:
        deviation = max(
            deviation,
            float(np.max(np.abs(m(sq.W, sq.Y) - m(sq.X, sq.Z)))),
            float(np.max(np.abs(m(sq.W, sq.X) - m(sq.Y, sq.Z)))),
        )
    return deviation


def canonical_json(value) -> str:
    """JSON with sorted keys and %.12e floats, one value at a time."""
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
    else:
        raise TypeError(f"cannot serialize {type(value).__name__} deterministically")
