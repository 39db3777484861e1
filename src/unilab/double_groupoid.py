"""Double groupoid of squares over two side groupoids on a common base.

A square records a material comparison around four body points

        Z <--t---- X
        ^          ^
      t_hat      s_hat          horizontal groupoid: s, t  (component 1)
        |          |            vertical groupoid: s_hat, t_hat (component 2)
        Y <--s---- W

with corners W (bottom right), X (top right), Y (bottom left),
Z (top left), and arrows s: W->Y, t: X->Z in the horizontal groupoid,
s_hat: W->X, t_hat: Y->Z in the vertical one. The square commutes when
t s_hat = t_hat s as maps T_W -> T_Z; commuting squares are the
compatibility squares of the composite. Horizontal composition glues a
square's right edge to its neighbour's left edge; vertical composition
glues bottom to top; the interchange law makes the two compositions
consistent on 2x2 blocks.
"""
from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    InconsistentCornersError,
    NotComposableError,
    NotOneCompatibleError,
    NotTransitiveError,
    NotTriclinicError,
    SingularJacobianError,
    SizeLimitError,
    UnilabError,
)
from .groupoid import (
    Arrow,
    ArrowStack,
    FiniteGroupoid,
    PointId,
    arrows_match,
    compose_arrows,
    first_true,
    is_transitive,
    join_groups,
    key_groups,
    maps_close,
    unit_arrow,
)
from .linalg3 import Mat3, as_mat3, invert, is_singular

DEFAULT_COMMUTATION_TOL = 1e-9
DEFAULT_SQUARE_CAP = 200_000
# Rows per block of the commutation test: bounds its index arrays and
# (K, 3, 3) stacks.
SQUARE_BLOCK = 512


@dataclass(frozen=True, eq=False, slots=True)
class Square:
    W: PointId
    X: PointId
    Y: PointId
    Z: PointId
    s: Arrow       # bottom, horizontal: W -> Y
    t: Arrow       # top, horizontal: X -> Z
    s_hat: Arrow   # right, vertical: W -> X
    t_hat: Arrow   # left, vertical: Y -> Z


def check_square(sq: Square) -> None:
    """Endpoint consistency of the four arrows against the corners."""
    if (
        sq.s.source == sq.W and sq.s.target == sq.Y
        and sq.t.source == sq.X and sq.t.target == sq.Z
        and sq.s_hat.source == sq.W and sq.s_hat.target == sq.X
        and sq.t_hat.source == sq.Y and sq.t_hat.target == sq.Z
    ):
        return
    expected = (
        ("s", sq.s, sq.W, sq.Y),
        ("t", sq.t, sq.X, sq.Z),
        ("s_hat", sq.s_hat, sq.W, sq.X),
        ("t_hat", sq.t_hat, sq.Y, sq.Z),
    )
    for name, arrow, source, target in expected:
        if arrow.source != source or arrow.target != target:
            raise InconsistentCornersError(
                f"{name} runs {arrow.source!r}->{arrow.target!r},"
                f" expected {source!r}->{target!r}"
            )


def _rel_defect(left: Mat3, right: Mat3) -> float:
    return float(np.max(np.abs(left - right)) / (1.0 + np.max(np.abs(left))))


def commutation_defect(sq: Square) -> float:
    """Relative size of t s_hat - t_hat s."""
    check_square(sq)
    return _rel_defect(sq.t.map @ sq.s_hat.map, sq.t_hat.map @ sq.s.map)


def is_commutative(sq: Square, tolerance: float = DEFAULT_COMMUTATION_TOL) -> bool:
    return commutation_defect(sq) <= tolerance


def squares_match(a: Square, b: Square, tolerance: float = DEFAULT_COMMUTATION_TOL) -> bool:
    if (a.W, a.X, a.Y, a.Z) != (b.W, b.X, b.Y, b.Z):
        return False
    return (
        arrows_match(a.s, b.s, tolerance)
        and arrows_match(a.t, b.t, tolerance)
        and arrows_match(a.s_hat, b.s_hat, tolerance)
        and arrows_match(a.t_hat, b.t_hat, tolerance)
    )


# ---------------------------------------------------------------------------
# Square products and units
# ---------------------------------------------------------------------------


def hcompose(a: Square, b: Square, tolerance: float = DEFAULT_COMMUTATION_TOL) -> Square:
    """Horizontal product: b sits to the right of a, glued along a.s_hat = b.t_hat."""
    check_square(a)
    check_square(b)
    if not arrows_match(a.s_hat, b.t_hat, tolerance):
        raise NotComposableError("right edge of the first square must equal the left edge of the second")
    return Square(
        W=b.W,
        X=b.X,
        Y=a.Y,
        Z=a.Z,
        s=compose_arrows(a.s, b.s),
        t=compose_arrows(a.t, b.t),
        s_hat=b.s_hat,
        t_hat=a.t_hat,
    )


def vcompose(a: Square, b: Square, tolerance: float = DEFAULT_COMMUTATION_TOL) -> Square:
    """Vertical product: b sits below a, glued along a.s = b.t."""
    check_square(a)
    check_square(b)
    if not arrows_match(a.s, b.t, tolerance):
        raise NotComposableError("bottom edge of the first square must equal the top edge of the second")
    return Square(
        W=b.W,
        X=a.X,
        Y=b.Y,
        Z=a.Z,
        s=b.s,
        t=a.t,
        s_hat=compose_arrows(a.s_hat, b.s_hat),
        t_hat=compose_arrows(a.t_hat, b.t_hat),
    )


def h_unit(v_arrow: Arrow) -> Square:
    """Horizontal unit square on a vertical arrow: both horizontal edges are units."""
    return Square(
        W=v_arrow.source,
        X=v_arrow.target,
        Y=v_arrow.source,
        Z=v_arrow.target,
        s=unit_arrow(v_arrow.source),
        t=unit_arrow(v_arrow.target),
        s_hat=v_arrow,
        t_hat=v_arrow,
    )


def v_unit(h_arrow: Arrow) -> Square:
    """Vertical unit square on a horizontal arrow: both vertical edges are units."""
    return Square(
        W=h_arrow.source,
        X=h_arrow.source,
        Y=h_arrow.target,
        Z=h_arrow.target,
        s=h_arrow,
        t=h_arrow,
        s_hat=unit_arrow(h_arrow.source),
        t_hat=unit_arrow(h_arrow.target),
    )


def interchange_check(
    a: Square, b: Square, c: Square, d: Square,
    tolerance: float = DEFAULT_COMMUTATION_TOL,
) -> bool:
    """Both evaluation orders of the 2x2 block (a b / c d) agree.

    Computes (a h b) v (c h d) and (a v c) h (b v d); raises
    NotComposableError when either order is undefined.
    """
    row_then_column = vcompose(hcompose(a, b, tolerance), hcompose(c, d, tolerance), tolerance)
    column_then_row = hcompose(vcompose(a, c, tolerance), vcompose(b, d, tolerance), tolerance)
    return squares_match(row_then_column, column_then_row, tolerance)


def transpose(sq: Square) -> Square:
    """Exchange the roles of the two side groupoids (corners X and Y swap)."""
    return Square(
        W=sq.W,
        X=sq.Y,
        Y=sq.X,
        Z=sq.Z,
        s=sq.s_hat,
        t=sq.t_hat,
        s_hat=sq.s,
        t_hat=sq.t,
    )


# ---------------------------------------------------------------------------
# Coarse structure and the material double groupoid
# ---------------------------------------------------------------------------


def _coarse_count(side_h: FiniteGroupoid, side_v: FiniteGroupoid, max_squares: int):
    """(total, h, v, n): the number of coarse squares, each side's
    (source, target) point-number arrays, and the number of points.

    Points are numbered as side_h's stack numbers them, then side_v's
    other points in its stack's order. The count comes from the arrow
    counts between point pairs, so a cap it exceeds raises before any
    square is looked at.
    """
    stack_h, stack_v = side_h.stack, side_v.stack
    index = dict(stack_h.index)
    renumber = np.array([index.setdefault(pid, len(index)) for pid in stack_v.index], dtype=np.intp)
    n = len(index)
    h = stack_h.source, stack_h.target
    v = renumber[stack_v.source], renumber[stack_v.target]
    counts_h = np.bincount(h[0] * n + h[1], minlength=n * n).reshape(n, n)
    counts_v = np.bincount(v[0] * n + v[1], minlength=n * n).reshape(n, n)
    # An arrow s_hat: a -> b heads (counts_h @ counts_v @ counts_h.T)[a, b] squares.
    total = int((counts_h @ counts_v @ counts_h.T)[v[0], v[1]].sum())
    if total > max_squares:
        raise SizeLimitError(f"coarse enumeration exceeds the cap of {max_squares} squares")
    return total, h, v, n


def _squares_at(h: list[Arrow], v: list[Arrow], rows: np.ndarray) -> list[Square]:
    """Square objects of arrow-index rows into the horizontal and vertical arrow lists."""
    return [
        Square(W=v[k].source, X=v[k].target, Y=h[i].target, Z=h[j].target,
               s=h[i], t=h[j], s_hat=v[k], t_hat=v[m])
        for i, j, k, m in zip(*rows.T.tolist())
    ]


def coarse_enumerate(
    side_h: FiniteGroupoid,
    side_v: FiniteGroupoid,
    max_squares: int = DEFAULT_SQUARE_CAP,
) -> list[Square]:
    """All endpoint-consistent squares over the two side groupoids.

    A plain nested loop, each side in arrow order: s_hat, then s from its
    source and t from its target, then t_hat from s's target to t's. It
    is the oracle of commuting_rows and shares none of its array code.
    """
    _coarse_count(side_h, side_v, max_squares)  # raises past the cap
    from_h: dict[PointId, list[Arrow]] = {}
    for a in side_h.arrows:
        from_h.setdefault(a.source, []).append(a)
    return [
        Square(W=s_hat.source, X=s_hat.target, Y=s.target, Z=t.target,
               s=s, t=t, s_hat=s_hat, t_hat=t_hat)
        for s_hat in side_v.arrows
        for s in from_h.get(s_hat.source, [])
        for t in from_h.get(s_hat.target, [])
        for t_hat in side_v.between(s.target, t.target)
    ]


def _scale(left: np.ndarray) -> np.ndarray:
    """1 + |t s_hat|.max for each map of a (K, 3, 3) stack: the defect's denominator."""
    return 1.0 + np.abs(left).max(axis=(1, 2))


def _commutes(left: np.ndarray, right: np.ndarray, scale: np.ndarray, tolerance: float):
    """commutation_defect <= tolerance for each pair of (K, 3, 3) stacks t s_hat, t_hat s.

    scale is _scale(left). The steps are commutation_defect's, so each
    pair's defect is the one it returns for the same two products.
    """
    difference = left - right
    return np.abs(difference, out=difference).max(axis=(1, 2)) / scale <= tolerance


def _commuting(maps_h: np.ndarray, maps_v: np.ndarray, rows: np.ndarray, tolerance: float):
    """Which rows commute, as is_commutative decides, tested SQUARE_BLOCK rows at a time.

    Stacked @ computes each 3x3 product as a single @ does.
    """
    keep = np.empty(len(rows), dtype=bool)
    for start in range(0, len(rows), SQUARE_BLOCK):
        block = rows[start:start + SQUARE_BLOCK]
        left = maps_h[block[:, 1]] @ maps_v[block[:, 2]]     # t s_hat
        right = maps_v[block[:, 3]] @ maps_h[block[:, 0]]    # t_hat s
        keep[start:start + len(block)] = _commutes(left, right, _scale(left), tolerance)
    return keep


def commuting_rows(
    side_h: FiniteGroupoid,
    side_v: FiniteGroupoid,
    tolerance: float = DEFAULT_COMMUTATION_TOL,
    max_squares: int = DEFAULT_SQUARE_CAP,
) -> tuple[int, np.ndarray]:
    """The number of coarse squares, and the (K, 4) rows of the commuting ones in coarse order.

    A square pairs a left path t s_hat: W -> X -> Z with a right path
    t_hat s: W -> Y -> Z that ends at the same Z. For each run of
    consecutive s_hat arrows with one source W, every left path of the
    run and every right path from W is multiplied once, and the pairs
    are tested with _commutes on those products, so a row is kept
    exactly when is_commutative keeps its square. Runs come in s_hat
    order, so only each run's kept rows need sorting.
    """
    total, h, v, n = _coarse_count(side_h, side_v, max_squares)
    maps_h, maps_v = side_h.stack.maps, side_v.stack.maps
    by_source = key_groups(h[0], n), key_groups(v[0], n)
    runs = []  # (first s_hat, last s_hat + 1, kept left paths, kept right paths)
    first = 0
    for _, run in itertools.groupby(v[0].tolist()):
        last = first + len(list(run))
        s_hat, t, s, t_hat = _paths(h, v, by_source, first, last)
        left, right = maps_h[t] @ maps_v[s_hat], maps_v[t_hat] @ maps_h[s]
        l, r = _commuting_pairs(left, right, h[1][t], v[1][t_hat], n, tolerance)
        if len(l):
            runs.append((first, last, l, r))
        first = last
    # Each run keeps two index arrays, and the (K, 4) rows are built once,
    # in the result, so the heap peak is about 1.5 times the result.
    rows = np.empty((sum(len(l) for *_, l, _ in runs), 4), dtype=np.intp)
    at = 0
    for first, last, l, r in runs:
        s_hat, t, s, t_hat = _paths(h, v, by_source, first, last)
        # Pairs were kept in (s_hat, t, s, t_hat) order; a stable sort on
        # (s_hat, s) gives coarse order (s_hat, s, t, t_hat).
        order = np.argsort(s_hat[l] * len(maps_h) + s[r], kind="stable")
        l, r = l[order], r[order]
        np.stack([s[r], t[l], s_hat[l], t_hat[r]], axis=1, out=rows[at:at + len(l)])
        at += len(l)
    return total, rows


def _paths(h, v, by_source, first, last):
    """Arrow indices (s_hat, t, s, t_hat) of a run's paths.

    (s_hat, t) are the left paths of the s_hat arrows first..last-1, which
    share one source w, s_hat-major; (s, t_hat) are the right paths from
    w, s-major.
    """
    by_source_h, by_source_v = by_source
    row, t = join_groups(v[1][first:last], by_source_h)
    order, starts, sizes = by_source_h
    w = v[0][first]
    s_w = order[starts[w]:starts[w] + sizes[w]]
    row_r, t_hat = join_groups(h[1][s_w], by_source_v)
    return row + first, t, s_w[row_r], t_hat


def _commuting_pairs(left, right, z_left, z_right, n, tolerance):
    """The (left, right) path pairs with one end corner that commute, left-path-major.

    Pairs are taken as many left paths at a time as give at most
    SQUARE_BLOCK pairs (and at least one left path), and tested at most
    SQUARE_BLOCK at a time.
    """
    scale = _scale(left)
    by_corner = key_groups(z_right, n)
    ends = np.cumsum(by_corner[2][z_left]).tolist()  # pairs up to each left path
    ls, rs = [], []
    start = 0
    while start < len(z_left):
        done = ends[start - 1] if start else 0
        stop = max(start + 1, bisect.bisect_right(ends, done + SQUARE_BLOCK))
        row, r = join_groups(z_left[start:stop], by_corner)
        row += start
        for block in range(0, len(row), SQUARE_BLOCK):
            l_b, r_b = row[block:block + SQUARE_BLOCK], r[block:block + SQUARE_BLOCK]
            hits = np.flatnonzero(_commutes(left[l_b], right[r_b], scale[l_b], tolerance))
            ls.append(l_b[hits])
            rs.append(r_b[hits])
        start = stop
    if not ls:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    return np.concatenate(ls), np.concatenate(rs)


class MaterialDoubleGroupoid:
    """Two side groupoids on one base plus a set of commuting squares.

    The squares are kept as rows (s, t, s_hat, t_hat) of indices into two
    arrow tables, one per side: the side's arrows, then any other arrow a
    given square carries (a composite, say). A square's corners are its
    arrows' endpoints. Square objects are built when .squares is first
    read, unless the squares were given as objects.
    """

    def __init__(
        self,
        side_h: FiniteGroupoid,
        side_v: FiniteGroupoid,
        squares: list[Square],
        tolerance: float = DEFAULT_COMMUTATION_TOL,
        check: bool = True,
    ):
        squares = list(squares)
        tables = (list(side_h.arrows), list(side_v.arrows))
        numbers = [{id(a): i for i, a in enumerate(table)} for table in tables]

        def number(arrow: Arrow, side: int) -> int:
            i = numbers[side].setdefault(id(arrow), len(tables[side]))
            if i == len(tables[side]):
                tables[side].append(arrow)
            return i

        rows = np.array(
            [(number(sq.s, 0), number(sq.t, 0), number(sq.s_hat, 1), number(sq.t_hat, 1))
             for sq in squares],
            dtype=np.intp,
        ).reshape(-1, 4)
        self._setup(side_h, side_v, tables, rows, tolerance)
        self._squares = squares
        if check:
            table_h, table_v = self.stacks
            commuting = _commuting(table_h.maps, table_v.maps, rows, self.tolerance)
            for sq, commutes in zip(squares, commuting):
                check_square(sq)
                if not commutes:
                    raise UnilabError("stored square violates the commutation condition")

    def _setup(self, side_h, side_v, tables, rows, tolerance) -> None:
        if set(side_h.base.ids) != set(side_v.base.ids):
            raise UnilabError("side groupoids must share one point base")
        self.side_h = side_h
        self.side_v = side_v
        self.tables: tuple[list[Arrow], list[Arrow]] = tables
        self.rows = rows
        self.tolerance = float(tolerance)
        self._squares: list[Square] | None = None

    @classmethod
    def from_rows(
        cls,
        side_h: FiniteGroupoid,
        side_v: FiniteGroupoid,
        rows: np.ndarray,
        tolerance: float = DEFAULT_COMMUTATION_TOL,
        tables: tuple[list[Arrow], list[Arrow]] | None = None,
    ) -> "MaterialDoubleGroupoid":
        """Squares as rows into two arrow tables, the sides' arrows by default; taken to commute."""
        dg = cls.__new__(cls)
        dg._setup(side_h, side_v, tables or (side_h.arrows, side_v.arrows), rows, tolerance)
        return dg

    @classmethod
    def from_sides(
        cls,
        side_h: FiniteGroupoid,
        side_v: FiniteGroupoid,
        tolerance: float = DEFAULT_COMMUTATION_TOL,
        max_squares: int = DEFAULT_SQUARE_CAP,
    ) -> "MaterialDoubleGroupoid":
        _, rows = commuting_rows(side_h, side_v, tolerance, max_squares)
        return cls.from_rows(side_h, side_v, rows, tolerance)

    @property
    def squares(self) -> list[Square]:
        if self._squares is None:
            self._squares = _squares_at(*self.tables, self.rows)
        return self._squares

    @cached_property
    def stacks(self) -> tuple[ArrowStack, ArrowStack]:
        """The two arrow tables as arrays, points numbered in side_h's base order, then as met."""
        index = {pid: i for i, pid in enumerate(self.side_h.base.ids)}
        return ArrowStack(self.tables[0], index), ArrowStack(self.tables[1], index)

    @cached_property
    def misalignments(self) -> "Misalignments":
        return Misalignments(self)

    def side(self, component: int) -> FiniteGroupoid:
        if component == 1:
            return self.side_h
        if component == 2:
            return self.side_v
        raise ValueError("component must be 1 or 2")


def _side_matches(table: ArrowStack, n_side: int, tolerance: float):
    """For each table arrow, the side arrows (the table's first n_side) it matches.

    The result is groups keyed by table index, for join_groups; a group
    lists its side arrows in side order.
    """
    side = slice(0, n_side)
    by_key = key_groups(
        table.keys(table.source[side], table.target[side], table.paired[side]),
        2 * table.n_points ** 2,
    )
    row, arrow = join_groups(table.keys(table.source, table.target, table.paired), by_key)
    maps2 = None if table.maps2 is None else table.maps2[row]
    found = table.matches(arrow, table.maps[row], maps2, tolerance)
    order, starts, sizes = key_groups(row[found], len(table))
    return arrow[found][order], starts, sizes


def unfillable_indices(dg: MaterialDoubleGroupoid) -> tuple[np.ndarray, np.ndarray]:
    """filling_check's pairs as indices into side_h.arrows and side_v.arrows."""
    table_h, table_v = dg.stacks
    n_h, n_v = len(dg.side_h.arrows), len(dg.side_v.arrows)
    # The distinct (s, s_hat) of the stored squares, then the side arrows they match.
    heads = np.zeros((len(table_h), len(table_v)), dtype=bool)
    heads[dg.rows[:, 0], dg.rows[:, 2]] = True
    heads_h, heads_v = np.nonzero(heads)
    row, s = join_groups(heads_h, _side_matches(table_h, n_h, dg.tolerance))
    row, s_hat = join_groups(heads_v[row], _side_matches(table_v, n_v, dg.tolerance))
    filled = np.zeros(n_h * n_v, dtype=bool)
    filled[s[row] * n_v + s_hat] = True
    by_source_v = key_groups(table_v.source[:n_v], table_h.n_points)
    s, s_hat = join_groups(table_h.source[:n_h], by_source_v)
    unfilled = ~filled[s * n_v + s_hat]
    return s[unfilled], s_hat[unfilled]


def filling_check(dg: MaterialDoubleGroupoid) -> list[tuple[Arrow, Arrow]]:
    """Pairs (s, s_hat) sharing a source corner that head no stored square.

    A stored square heads (s, s_hat) when its own s and s_hat match them
    (arrows_match). The pairs come s-major, each side in arrow order.
    """
    s, s_hat = unfillable_indices(dg)
    return [
        (dg.side_h.arrows[i], dg.side_v.arrows[k]) for i, k in zip(s.tolist(), s_hat.tolist())
    ]


def core(dg: MaterialDoubleGroupoid) -> FiniteGroupoid:
    """Groupoid of squares whose source corners collapse: W = X = Y with unit s, s_hat.

    Each qualifying square contributes one arrow W -> Z carrying the pair
    (t.map, t_hat.map) as a two-payload product representation, unless
    it matches an arrow an earlier square contributed. Units come from
    the stored double-unit squares.
    """
    tol = dg.tolerance
    table_h, table_v = dg.stacks
    rows = dg.rows
    picked = rows[table_h.units(tol)[rows[:, 0]] & table_v.units(tol)[rows[:, 2]]]
    s, t, t_hat = picked[:, 0], picked[:, 1], picked[:, 3]
    n = table_h.n_points
    keep = np.ones(len(picked), dtype=bool)
    order, starts, sizes = key_groups(table_h.source[s] * n + table_h.target[t], n * n)
    multiple = np.flatnonzero(sizes * (sizes - 1))  # groups of two or more
    for start, size in zip(starts[multiple].tolist(), sizes[multiple].tolist()):
        kept = [order[start]]
        for c in order[start + 1:start + size]:
            if np.any(maps_close(table_h.maps[t[kept]], table_h.maps[t[c]], tol)
                      & maps_close(table_v.maps[t_hat[kept]], table_v.maps[t_hat[c]], tol)):
                keep[c] = False
            else:
                kept.append(c)
    arrows_h, arrows_v = dg.tables
    arrows = []
    for k, (i, j, m) in enumerate(zip(s[keep].tolist(), t[keep].tolist(), t_hat[keep].tolist())):
        w, z = arrows_h[i].source, arrows_h[j].target
        arrows.append(Arrow(f"core{k}:{w}->{z}", w, z, arrows_h[j].map, arrows_v[m].map))
    return FiniteGroupoid(dg.side_h.base, arrows, tol)


def is_uniform(dg: MaterialDoubleGroupoid) -> bool:
    """Uniform composite: the core connects every ordered pair of base points."""
    return is_transitive(core(dg))


# ---------------------------------------------------------------------------
# Misalignment and configuration changes
# ---------------------------------------------------------------------------


def _unique_arrow(g: FiniteGroupoid, source: PointId, target: PointId) -> Arrow:
    found = g.between(source, target)
    if not found:
        raise NotTransitiveError(f"no arrow {source!r} -> {target!r}")
    if len(found) > 1:
        raise NotTriclinicError(f"arrow {source!r} -> {target!r} is not unique")
    return found[0]


def misalignment(dg: MaterialDoubleGroupoid, x: PointId, y: PointId) -> Mat3:
    """Loop m = (u*)^-1 u at x, with u: x->y horizontal and u*: x->y vertical.

    m is the identity exactly when the two components agree on how the
    tangent spaces at x and y correspond, i.e. when x and y are
    materially isomorphic as points of the composite.
    """
    return dg.misalignments(x, y).copy()


class Misalignments:
    """The misalignment of every ordered pair of points, read as m(x, y).

    The pairs with a unique arrow on each side and a regular u* map get
    theirs at once, as stacked inv(u*) @ u; stacked inv and @ compute
    each matrix as the single-matrix calls do. Any other pair raises its
    error when asked for: a missing or repeated horizontal arrow first,
    then the vertical one, then invert's. The table is read-only.
    """

    def __init__(self, dg: MaterialDoubleGroupoid):
        self._dg = dg
        table_h, table_v = dg.stacks
        self._index = table_h.index
        self._n = n = table_h.n_points
        u, unique_h = _unique_arrows(table_h, len(dg.side_h.arrows), n)
        u_star, unique_v = _unique_arrows(table_v, len(dg.side_v.arrows), n)
        self.ok = unique_h & unique_v
        v = table_v.maps[u_star[self.ok]]
        regular = np.isfinite(v).all(axis=(1, 2))
        regular[regular] = ~is_singular(v[regular])
        self.ok[self.ok] = regular
        self.maps = np.zeros((n * n, 3, 3))
        self.maps[self.ok] = np.linalg.inv(table_v.maps[u_star[self.ok]]) @ table_h.maps[u[self.ok]]
        self.maps.flags.writeable = False

    def __call__(self, x: PointId, y: PointId) -> Mat3:
        i, j = self._index.get(x), self._index.get(y)
        if i is not None and j is not None and self.ok[i * self._n + j]:
            return self.maps[i * self._n + j]
        u = _unique_arrow(self._dg.side_h, x, y)
        u_star = _unique_arrow(self._dg.side_v, x, y)
        return invert(u_star.map) @ u.map


def _unique_arrows(table: ArrowStack, n_side: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """For each pair x * n + y, a side arrow x -> y, and whether it is the only one."""
    keys = table.source[:n_side] * n + table.target[:n_side]
    arrow = np.zeros(n * n, dtype=np.intp)
    arrow[keys] = np.arange(n_side)
    unique = np.zeros(n * n, dtype=bool)
    unique[keys] = True
    count = np.bincount(keys, minlength=n * n)
    unique[np.flatnonzero(count * (count - 1))] = False  # two arrows or more
    return arrow, unique


def opposite_pair_max_deviation(dg: MaterialDoubleGroupoid) -> float:
    """Largest entry of |m(W, Y) - m(X, Z)| and |m(W, X) - m(Y, Z)| over the stored squares.

    Squares are taken SQUARE_BLOCK rows at a time. A pair without a
    misalignment raises its error: the first such pair in the order a
    loop over the squares asks for them, m(W, Y), m(X, Z), m(W, X),
    m(Y, Z) square by square. NaN entries are passed over, as Python's
    max passes them over.
    """
    m = dg.misalignments
    table_h, table_v = dg.stacks
    n = table_h.n_points
    deviation = 0.0
    for start in range(0, len(dg.rows), SQUARE_BLOCK):
        rows = dg.rows[start:start + SQUARE_BLOCK]
        w, x = table_v.source[rows[:, 2]], table_v.target[rows[:, 2]]
        y, z = table_h.target[rows[:, 0]], table_h.target[rows[:, 1]]
        pairs = np.stack([w * n + y, x * n + z, w * n + x, y * n + z])
        failing = first_true(~m.ok[pairs].all(axis=0))
        if failing >= 0:
            sq = _squares_at(*dg.tables, rows[failing:failing + 1])[0]
            for a, b in ((sq.W, sq.Y), (sq.X, sq.Z), (sq.W, sq.X), (sq.Y, sq.Z)):
                m(a, b)
        maps = [m.maps[p] for p in pairs]
        deviation = float(np.fmax.reduce(np.concatenate([
            [deviation],
            np.abs(maps[0] - maps[1]).max(axis=(1, 2)),
            np.abs(maps[2] - maps[3]).max(axis=(1, 2)),
        ])))
    return deviation


def _transformed_arrow(a: Arrow, jac: dict[PointId, Mat3], jac_inv: dict[PointId, Mat3]) -> Arrow:
    map2 = None if a.map2 is None else jac[a.target] @ a.map2 @ jac_inv[a.source]
    return Arrow(a.id, a.source, a.target, jac[a.target] @ a.map @ jac_inv[a.source], map2)


def apply_config_change(
    dg: MaterialDoubleGroupoid, jacobians: dict[PointId, Mat3]
) -> MaterialDoubleGroupoid:
    """Push the whole structure through per-point Jacobians H: a -> H(tgt) a H(src)^-1.

    Misalignments transform by conjugation with H at their anchor point;
    commutation of stored squares is preserved.
    """
    jac: dict[PointId, Mat3] = {}
    for pid in dg.side_h.base.ids:
        if pid not in jacobians:
            raise SingularJacobianError(f"missing Jacobian for point {pid!r}")
        h = as_mat3(jacobians[pid])
        if is_singular(h):
            raise SingularJacobianError(f"Jacobian at point {pid!r} is singular")
        jac[pid] = h
    jac_inv = {pid: invert(h) for pid, h in jac.items()}
    tables = tuple([_transformed_arrow(a, jac, jac_inv) for a in table] for table in dg.tables)
    sides = (
        FiniteGroupoid(g.base, table[:len(g.arrows)], g.tolerance, check=False)
        for g, table in zip((dg.side_h, dg.side_v), tables)
    )
    return MaterialDoubleGroupoid.from_rows(*sides, dg.rows, dg.tolerance, tables)


def is_compatible(
    dg: MaterialDoubleGroupoid,
    pair1: tuple[PointId, PointId],
    pair2: tuple[PointId, PointId],
    component: int,
) -> bool:
    """Misalignments of two point pairs conjugate into each other via the chosen component.

    pair (x, y) and pair (x', y') are component-c compatible when
    m' = H m H^-1 for the unique component-c arrow H: x -> x'.
    """
    m1 = misalignment(dg, pair1[0], pair1[1])
    m2 = misalignment(dg, pair2[0], pair2[1])
    h = _unique_arrow(dg.side(component), pair1[0], pair2[0]).map
    return _rel_defect(m2, h @ m1 @ invert(h)) <= dg.tolerance


def normalizer_criterion(
    dg: MaterialDoubleGroupoid,
    pair1: tuple[PointId, PointId],
    pair2: tuple[PointId, PointId],
) -> bool:
    """Given 1-compatibility, 2-compatibility holds iff n commutes with m.

    Here m is the misalignment of pair1 and n = (s*)^-1 s is the
    misalignment between the anchor points of the two pairs. The
    commutator test is cross-checked against is_compatible(...) for
    component 2; disagreement would mean a tolerance inconsistency.
    """
    if not is_compatible(dg, pair1, pair2, component=1):
        raise NotOneCompatibleError(
            f"pairs {pair1!r} and {pair2!r} are not 1-compatible"
        )
    m = misalignment(dg, pair1[0], pair1[1])
    n = misalignment(dg, pair1[0], pair2[0])
    commutes = _rel_defect(n @ m, m @ n) <= dg.tolerance
    two_compatible = is_compatible(dg, pair1, pair2, component=2)
    if commutes != two_compatible:
        raise UnilabError(
            "normalizer test and direct 2-compatibility disagree at the tolerance edge"
        )
    return commutes


# ---------------------------------------------------------------------------
# Complementary squares
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComplementaryResult:
    square: Square
    commutative: bool
    # residuals of: the input commutation, the horizontal mixed identity
    # t s* = t'* s, and the vertical mixed identity t* s_hat = t_hat s*.
    condition_residuals: tuple[float, float, float]


def complementary_square(dg: MaterialDoubleGroupoid, sq: Square) -> ComplementaryResult:
    """Swap which side groupoid supplies the arrows between the same corners.

    Requires triclinic (arrow-unique) transitive sides. The complement
    A* has s*, t* from the vertical groupoid along the bottom/top edges
    and s_hat*, t_hat* from the horizontal groupoid along the sides. Its
    own commutativity is not implied; it holds exactly when the mixed
    horizontal/vertical loops at the corners commute.
    """
    check_square(sq)
    s_star = _unique_arrow(dg.side_v, sq.W, sq.Y)
    t_star = _unique_arrow(dg.side_v, sq.X, sq.Z)
    s_hat_star = _unique_arrow(dg.side_h, sq.W, sq.X)
    t_hat_star = _unique_arrow(dg.side_h, sq.Y, sq.Z)
    complement = Square(
        W=sq.W, X=sq.X, Y=sq.Y, Z=sq.Z,
        s=s_star, t=t_star, s_hat=s_hat_star, t_hat=t_hat_star,
    )
    residuals = (
        commutation_defect(sq),
        _rel_defect(sq.t.map @ s_hat_star.map, t_hat_star.map @ sq.s.map),
        _rel_defect(t_star.map @ sq.s_hat.map, sq.t_hat.map @ s_star.map),
    )
    return ComplementaryResult(
        complement, is_commutative(complement, dg.tolerance), residuals
    )


# ---------------------------------------------------------------------------
# JSON import/export of squares
# ---------------------------------------------------------------------------


def square_to_dict(sq: Square) -> dict:
    return {
        "corners": {"W": sq.W, "X": sq.X, "Y": sq.Y, "Z": sq.Z},
        "s": sq.s.id,
        "t": sq.t.id,
        "s_hat": sq.s_hat.id,
        "t_hat": sq.t_hat.id,
    }


def square_from_dict(data: dict, side_h: FiniteGroupoid, side_v: FiniteGroupoid) -> Square:
    corners = data["corners"]
    try:
        sq = Square(
            W=corners["W"], X=corners["X"], Y=corners["Y"], Z=corners["Z"],
            s=side_h.by_id(data["s"]),
            t=side_h.by_id(data["t"]),
            s_hat=side_v.by_id(data["s_hat"]),
            t_hat=side_v.by_id(data["t_hat"]),
        )
    except KeyError as exc:
        raise UnilabError(f"square references unknown arrow id {exc.args[0]!r}") from None
    check_square(sq)
    return sq
