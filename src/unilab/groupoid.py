"""Finite groupoids of material isomorphisms over a finite point set.

Arrows are invertible 3x3 maps between tangent spaces at body points.
Composition is tip-to-tail with the second factor applied first: u v is
defined when source(u) = target(v) and its map is u.map @ v.map. A
groupoid stores a unit loop at every point it touches and is closed
under inversion and composition, all within a max-entry tolerance.

Core groupoids of double structures carry arrows with two matrix
payloads; such paired arrows compose and invert componentwise.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import NotComposableError, NotTransitiveError, UnilabError, raise_first
from .fields import FrameField
from .linalg3 import Mat3, Vec3, as_mat3, as_vec3, invert, singular_tolerance
from .measures import FiniteMatrixGroup

DEFAULT_ARROW_TOL = 1e-9

PointId = str


@dataclass(frozen=True)
class PointSet:
    """Ordered points with unique string ids and body coordinates."""

    items: tuple[tuple[PointId, tuple[float, float, float]], ...]

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[PointId, object]]) -> "PointSet":
        items = tuple((str(pid), tuple(float(c) for c in as_vec3(xyz))) for pid, xyz in pairs)
        ids = [pid for pid, _ in items]
        if len(set(ids)) != len(ids):
            raise UnilabError("point ids must be unique")
        return cls(items)

    @property
    def ids(self) -> tuple[PointId, ...]:
        return tuple(pid for pid, _ in self.items)

    def coords(self, pid: PointId) -> Vec3:
        for other, xyz in self.items:
            if other == pid:
                return np.asarray(xyz)
        raise KeyError(pid)

    def __len__(self):
        return len(self.items)

    def __contains__(self, pid):
        return any(other == pid for other, _ in self.items)


@dataclass(frozen=True, eq=False)
class Arrow:
    """Invertible map between the tangent spaces at two points."""

    id: str
    source: PointId
    target: PointId
    map: Mat3
    map2: Mat3 | None = None  # second payload for product-represented arrows

    def is_loop(self) -> bool:
        return self.source == self.target


def _payloads(a: Arrow):
    return (a.map,) if a.map2 is None else (a.map, a.map2)


def arrows_match(a: Arrow, b: Arrow, tolerance: float = DEFAULT_ARROW_TOL) -> bool:
    """Same endpoints and max-entry map distance within tolerance."""
    if a.source != b.source or a.target != b.target:
        return False
    if (a.map2 is None) != (b.map2 is None):
        return False
    # ndarray.max() skips the np.max dispatch; this runs millions of times
    # in exhaustive square-algebra checks.
    if not float(np.abs(a.map - b.map).max()) <= tolerance:
        return False
    return a.map2 is None or float(np.abs(a.map2 - b.map2).max()) <= tolerance


def unit_arrow(point: PointId) -> Arrow:
    return Arrow(f"unit:{point}", point, point, np.eye(3))


def unit_pair_arrow(point: PointId) -> Arrow:
    return Arrow(f"unit2:{point}", point, point, np.eye(3), np.eye(3))


def compose_arrows(u: Arrow, v: Arrow) -> Arrow:
    """Raw composite u v (v applied first); no groupoid lookup."""
    if u.source != v.target:
        raise NotComposableError(
            f"cannot compose {u.id} after {v.id}: {u.source!r} != {v.target!r}"
        )
    if (u.map2 is None) != (v.map2 is None):
        raise NotComposableError("cannot mix single and paired arrow payloads")
    map2 = None if u.map2 is None else u.map2 @ v.map2
    return Arrow(f"({u.id})({v.id})", v.source, u.target, u.map @ v.map, map2)


def invert_arrow(u: Arrow) -> Arrow:
    map2 = None if u.map2 is None else invert(u.map2)
    return Arrow(f"inv({u.id})", u.target, u.source, invert(u.map), map2)


class FiniteGroupoid:
    """Finite arrow set over a point base, validated against the groupoid axioms."""

    def __init__(
        self,
        base: PointSet,
        arrows: Iterable[Arrow],
        tolerance: float = DEFAULT_ARROW_TOL,
        check: bool = True,
    ):
        self.base = base
        self.arrows = list(arrows)
        self.tolerance = float(tolerance)
        self._by_pair: dict[tuple[PointId, PointId], list[Arrow]] = {}
        self._by_id: dict[str, Arrow] = {}
        for a in self.arrows:
            self._by_pair.setdefault((a.source, a.target), []).append(a)
            if a.id in self._by_id:
                raise UnilabError(f"duplicate arrow id {a.id!r}")
            self._by_id[a.id] = a
        if check:
            self.validate()

    # -- accessors ---------------------------------------------------------

    def between(self, source: PointId, target: PointId) -> list[Arrow]:
        return list(self._by_pair.get((source, target), []))

    def by_id(self, arrow_id: str) -> Arrow:
        return self._by_id[arrow_id]

    def endpoint_points(self) -> set[PointId]:
        points: set[PointId] = set()
        for a in self.arrows:
            points.add(a.source)
            points.add(a.target)
        return points

    def find(self, candidate: Arrow) -> Arrow | None:
        """Stored arrow matching the candidate within tolerance, if any."""
        for a in self._by_pair.get((candidate.source, candidate.target), []):
            if arrows_match(a, candidate, self.tolerance):
                return a
        return None

    # -- axioms ------------------------------------------------------------

    def validate(self) -> None:
        for a in self.arrows:
            if a.source not in self.base or a.target not in self.base:
                raise UnilabError(f"arrow {a.id!r} references a point outside the base")
            for payload in _payloads(a):
                if abs(float(np.linalg.det(payload))) <= singular_tolerance(payload):
                    raise UnilabError(f"arrow {a.id!r} has a singular map")
        paired = any(a.map2 is not None for a in self.arrows)
        make_unit = unit_pair_arrow if paired else unit_arrow
        for point in self.endpoint_points():
            if self.find(make_unit(point)) is None:
                raise UnilabError(f"missing unit loop at point {point!r}")
        for a in self.arrows:
            if self.find(invert_arrow(a)) is None:
                raise UnilabError(f"missing inverse of arrow {a.id!r}")
        for u in self.arrows:
            for v in self._incoming(u.source):
                if self.find(compose_arrows(u, v)) is None:
                    raise UnilabError(
                        f"composite of {u.id!r} after {v.id!r} escapes the arrow set"
                    )

    def _incoming(self, point: PointId) -> list[Arrow]:
        return [a for a in self.arrows if a.target == point]

    # -- operations --------------------------------------------------------

    def compose(self, u: Arrow, v: Arrow) -> Arrow:
        """Canonical composite: the stored arrow matching u v."""
        candidate = compose_arrows(u, v)
        stored = self.find(candidate)
        if stored is None:
            raise UnilabError("composite escapes the arrow set; groupoid is not closed")
        return stored

    def invert(self, u: Arrow) -> Arrow:
        stored = self.find(invert_arrow(u))
        if stored is None:
            raise UnilabError("inverse escapes the arrow set; groupoid is not closed")
        return stored


def vertex_group(g: FiniteGroupoid, point: PointId) -> FiniteMatrixGroup:
    """Group of loop maps at a point."""
    loops = g.between(point, point)
    if not loops:
        raise NotTransitiveError(f"no loops at point {point!r}")
    return FiniteMatrixGroup([a.map for a in loops], g.tolerance)


def is_transitive(g: FiniteGroupoid) -> bool:
    """True when at least one arrow joins every ordered pair of base points."""
    ids = g.base.ids
    return all((a, b) in g._by_pair for a, b in itertools.product(ids, repeat=2))


def pair_groupoid(base: PointSet) -> FiniteGroupoid:
    """One identity-map arrow (Y, X) for every ordered pair; (Z,Y)(Y,X) = (Z,X)."""
    arrows = [
        Arrow(f"pair:{x}->{y}", x, y, np.eye(3))
        for x, y in itertools.product(base.ids, repeat=2)
    ]
    return FiniteGroupoid(base, arrows)


def from_point_frames(base: PointSet, frames: Mapping[PointId, Mat3],
                      tolerance: float = DEFAULT_ARROW_TOL) -> FiniteGroupoid:
    """Material groupoid of a frame sample: arrow X -> Y has map P(Y) P(X)^-1."""
    mats = {pid: as_mat3(frames[pid]) for pid in base.ids}
    inv = {pid: invert(m) for pid, m in mats.items()}
    arrows = [
        Arrow(f"{x}->{y}", x, y, mats[y] @ inv[x])
        for x, y in itertools.product(base.ids, repeat=2)
    ]
    return FiniteGroupoid(base, arrows, tolerance)


def from_frame_field(field: FrameField, base: PointSet,
                     tolerance: float = DEFAULT_ARROW_TOL) -> FiniteGroupoid:
    """Material groupoid of a frame field restricted to the base points.

    The field is evaluated once over all the points; a failure raises the
    error of the first failing point in base order.
    """
    values, failures = field.value_stack(np.array([xyz for _, xyz in base.items]).reshape(-1, 3))
    raise_first(failures)
    return from_point_frames(base, dict(zip(base.ids, values)), tolerance)


# ---------------------------------------------------------------------------
# JSON import/export
# ---------------------------------------------------------------------------


def groupoid_to_dict(g: FiniteGroupoid) -> dict:
    return {
        "points": [
            {"id": pid, "coords": [float(c) for c in xyz]} for pid, xyz in g.base.items
        ],
        "arrows": [
            {
                "id": a.id,
                "source": a.source,
                "target": a.target,
                "map": [float(v) for v in a.map.ravel()],
            }
            for a in g.arrows
        ],
        "tolerance": g.tolerance,
    }


def groupoid_from_dict(data: dict, check: bool = True) -> FiniteGroupoid:
    base = PointSet.from_pairs((p["id"], p["coords"]) for p in data["points"])
    arrows = []
    for spec in data["arrows"]:
        entries = np.asarray(spec["map"], dtype=float)
        if entries.shape != (9,):
            raise UnilabError(f"arrow {spec.get('id')!r} map must have 9 row-major entries")
        arrows.append(Arrow(spec["id"], spec["source"], spec["target"], entries.reshape(3, 3)))
    return FiniteGroupoid(base, arrows, float(data.get("tolerance", DEFAULT_ARROW_TOL)), check)
