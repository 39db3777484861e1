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

import bisect
import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .errors import NotComposableError, NotTransitiveError, UnilabError, raise_first
from .fields import FrameField
from .linalg3 import DEFAULT_ARROW_TOL, Mat3, Vec3, as_mat3, as_vec3, invert, is_singular
from .measures import FiniteMatrixGroup

# Composable pairs (u, v) per block of the stacked closure check.
PAIR_BLOCK = 512

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


def key_groups(keys: np.ndarray, n_keys: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Items grouped by a key in range(n_keys): (item order, group starts, group sizes)."""
    sizes = np.bincount(keys, minlength=n_keys)
    return np.argsort(keys, kind="stable"), np.cumsum(sizes) - sizes, sizes


def join_groups(keys: np.ndarray, groups) -> tuple[np.ndarray, np.ndarray]:
    """(row, item) for every item of the group keys[row] names.

    Rows keep their order, and a group's items keep theirs, so the pairs
    come in a nested loop's order.
    """
    order, starts, sizes = groups
    per_row = sizes[keys]
    row = np.repeat(np.arange(len(keys)), per_row)
    offset = np.arange(len(row)) - np.repeat(np.cumsum(per_row) - per_row, per_row)
    return row, order[starts[keys][row] + offset]


def first_true(mask: np.ndarray) -> int:
    """Index of the first True of a bool array, or -1."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if len(hits) else -1


def maps_close(a: np.ndarray, b: np.ndarray, tolerance: float) -> np.ndarray:
    """arrows_match's map test on two (K, 3, 3) stacks, one bool per row."""
    difference = a - b
    return np.abs(difference, out=difference).max(axis=(1, 2)) <= tolerance


class ArrowStack:
    """An arrow list as arrays: endpoint numbers, payload kind and (N, 3, 3) maps.

    Endpoints are numbered by `index`, which gives every point it lacks
    the next number, so stacks built on one dict share their numbering.
    maps2 is None when no arrow is paired. Otherwise a single-payload
    arrow has a zero map2 row, so that two arrows of one kind compare
    their second payloads without a case.

    The array code here and in double_groupoid tests integers without
    numpy comparisons (loops are found in Python, group sizes by
    products, first hits by flatnonzero): the first such kernel a
    squares run calls maps in about 128 kB more of numpy's code, which
    its peak memory shows.
    """

    def __init__(self, arrows: list[Arrow], index: dict[PointId, int]):
        self._index = index
        number = [(index.setdefault(a.source, len(index)), index.setdefault(a.target, len(index)))
                  for a in arrows]
        self.source, self.target = np.array(number, dtype=np.intp).reshape(-1, 2).T.copy()
        self.loops = np.array([a.source == a.target for a in arrows], dtype=bool)
        self.paired = np.array([a.map2 is not None for a in arrows], dtype=bool)
        self.maps = np.array([a.map for a in arrows], dtype=float).reshape(-1, 3, 3)
        self.maps2 = None
        if any(a.map2 is not None for a in arrows):
            self.maps2 = np.zeros_like(self.maps)
            self.maps2[self.paired] = [a.map2 for a in arrows if a.map2 is not None]

    @property
    def index(self) -> dict[PointId, int]:
        """The numbering: each point id to its number, in number order."""
        return self._index

    @property
    def n_points(self) -> int:
        return len(self._index)

    def __len__(self):
        return len(self.source)

    def keys(self, source: np.ndarray, target: np.ndarray, paired: np.ndarray) -> np.ndarray:
        """Group key of an endpoint pair and payload kind: arrows that can match share it."""
        keys = (source * self.n_points + target) * 2
        if self.maps2 is not None:
            keys[paired] += 1
        return keys

    def groups(self):
        return key_groups(self.keys(self.source, self.target, self.paired), 2 * self.n_points ** 2)

    def units(self, tolerance: float, paired: bool = False) -> np.ndarray:
        """Which arrows match the unit loop at their source (unit_pair_arrow's if paired)."""
        eye = np.eye(3)
        found = self.loops & (self.paired if paired else ~self.paired)
        found &= maps_close(self.maps, eye, tolerance)
        if paired:
            found &= maps_close(self.maps2, eye, tolerance)
        return found

    def matches(self, items: np.ndarray, maps: np.ndarray, maps2, tolerance: float) -> np.ndarray:
        """Whether each arrow items[k] matches the candidate maps[k] (and maps2[k]).

        The caller pairs each candidate with arrows of its own key, and
        passes maps2 when this stack has it.
        """
        found = maps_close(self.maps[items], maps, tolerance)
        if self.maps2 is not None:
            found &= maps_close(self.maps2[items], maps2, tolerance)
        return found

    def any_match(self, groups, keys, maps, maps2, tolerance: float) -> np.ndarray:
        """Whether some arrow of the key's group matches each candidate (keys, maps, maps2)."""
        row, item = join_groups(keys, groups)
        found = self.matches(item, maps[row], None if maps2 is None else maps2[row], tolerance)
        hit = np.zeros(len(keys), dtype=bool)
        hit[row[found]] = True
        return hit


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

    @cached_property
    def stack(self) -> ArrowStack:
        """The arrows as arrays, points numbered in base order and then as met."""
        return ArrowStack(self.arrows, {pid: i for i, pid in enumerate(self.base.ids)})

    def find(self, candidate: Arrow) -> Arrow | None:
        """Stored arrow matching the candidate within tolerance, if any."""
        for a in self._by_pair.get((candidate.source, candidate.target), []):
            if arrows_match(a, candidate, self.tolerance):
                return a
        return None

    # -- axioms ------------------------------------------------------------

    def validate(self) -> None:
        """Check the axioms on stacked maps; raise the first failure.

        The checks and their order: every arrow's endpoints lie in the
        base and its maps are regular; every point an arrow touches has a
        unit loop (the first such point in base order is named); every
        arrow's inverse is stored; every composite u v, for u in arrow
        order and v over the arrows ending where u starts, is stored.
        "Stored" means an arrow with the same endpoints and payload kind
        whose maps lie within the tolerance, as find() has it. Stacked @,
        det and inv compute each matrix as the single-matrix calls do.
        """
        a, tol = self.stack, self.tolerance
        base = set(self.base.ids)
        outside = np.array([b.source not in base or b.target not in base for b in self.arrows],
                           dtype=bool)
        bad = outside | is_singular(a.maps)
        if a.maps2 is not None:
            bad |= a.paired & is_singular(a.maps2)
        first = first_true(bad)
        if first >= 0:
            name = self.arrows[first].id
            if outside[first]:
                raise UnilabError(f"arrow {name!r} references a point outside the base")
            raise UnilabError(f"arrow {name!r} has a singular map")

        touched = np.zeros(a.n_points, dtype=bool)
        touched[a.source] = touched[a.target] = True
        has_unit = np.zeros(a.n_points, dtype=bool)
        has_unit[a.source[a.units(tol, paired=a.maps2 is not None)]] = True
        missing = np.flatnonzero(touched & ~has_unit)
        if len(missing):
            raise UnilabError(f"missing unit loop at point {self.base.ids[missing[0]]!r}")

        groups = a.groups()
        finite = np.isfinite(a.maps).all(axis=(1, 2))
        eye = np.eye(3)
        inverse2 = None
        if a.maps2 is not None:
            finite &= np.isfinite(a.maps2).all(axis=(1, 2))
            inverse2 = np.linalg.inv(np.where((finite & a.paired)[:, None, None], a.maps2, eye))
            inverse2[~a.paired] = 0.0
        inverse = np.linalg.inv(np.where(finite[:, None, None], a.maps, eye))
        keys = a.keys(a.target, a.source, a.paired)
        bad = ~finite | ~a.any_match(groups, keys, inverse, inverse2, tol)
        first = first_true(bad)
        if first >= 0:
            invert_arrow(self.arrows[first])  # raises for a non-finite map
            raise UnilabError(f"missing inverse of arrow {self.arrows[first].id!r}")

        by_target = key_groups(a.target, a.n_points)
        ends = np.cumsum(by_target[2][a.source]).tolist()  # composable pairs up to each u
        start = 0
        while start < len(a):
            # As many u as give at most PAIR_BLOCK pairs, and at least one.
            done = ends[start - 1] if start else 0
            stop = max(start + 1, bisect.bisect_right(ends, done + PAIR_BLOCK))
            row, v = join_groups(a.source[start:stop], by_target)
            u = row + start
            keys = a.keys(a.source[v], a.target[u], a.paired[u])
            composite2 = None if a.maps2 is None else a.maps2[u] @ a.maps2[v]
            found = a.any_match(groups, keys, a.maps[u] @ a.maps[v], composite2, tol)
            bad = ~found
            if a.maps2 is not None:
                bad |= a.paired[u] ^ a.paired[v]
            first = first_true(bad)
            if first >= 0:
                u_arrow, v_arrow = self.arrows[u[first]], self.arrows[v[first]]
                compose_arrows(u_arrow, v_arrow)  # raises for mixed payloads
                raise UnilabError(
                    f"composite of {u_arrow.id!r} after {v_arrow.id!r} escapes the arrow set"
                )
            start = stop

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
    """Material groupoid of a frame sample: arrow X -> Y has map P(Y) P(X)^-1.

    A singular frame raises invert's error, the first in base order.
    Stacked det, inv and @ compute each matrix as the single-matrix calls
    do, so every map is the one P(Y) @ invert(P(X)) gives.
    """
    ids = base.ids
    p = np.array([as_mat3(frames[pid]) for pid in ids]).reshape(-1, 3, 3)
    singular = first_true(is_singular(p))
    if singular >= 0:
        invert(p[singular])  # raises
    # maps[x, y] = P(y) @ inv(P(x)), in the arrow order x-major.
    maps = (p[None] @ np.linalg.inv(p)[:, None]).reshape(-1, 3, 3)
    pairs = itertools.product(ids, repeat=2)
    arrows = [Arrow(f"{x}->{y}", x, y, m) for (x, y), m in zip(pairs, maps)]
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
