"""Scalar reference implementations of the stacked groupoid and double-groupoid facts.

Each one walks Arrow and Square objects one at a time, with the same
tolerances and the same first-failure messages as the library. The
library computes these facts on stacked arrays; the tests hold its
results to these.
"""
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
