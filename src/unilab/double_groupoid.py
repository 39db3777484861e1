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

from dataclasses import dataclass
from typing import Iterator

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
    FiniteGroupoid,
    PointId,
    arrows_match,
    compose_arrows,
    is_transitive,
    unit_arrow,
)
from .linalg3 import Mat3, as_mat3, invert, singular_tolerance

DEFAULT_COMMUTATION_TOL = 1e-9
DEFAULT_SQUARE_CAP = 200_000
# Rows per block of the coarse enumeration: bounds its index arrays and
# the (K, 3, 3) stacks of the commutation test.
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


def _groups(keys: np.ndarray, n_keys: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arrows grouped by a key in range(n_keys): (arrow order, group starts, group sizes)."""
    sizes = np.bincount(keys, minlength=n_keys)
    return np.argsort(keys, kind="stable"), np.cumsum(sizes) - sizes, sizes


def _join(columns: list[np.ndarray], keys: np.ndarray, groups) -> list[np.ndarray]:
    """Extend each row by every arrow of its key's group, in arrow order.

    columns hold one arrow index per row and keys[r] is the group row r
    joins. Rows keep their order, so the result is a nested loop's order.
    """
    order, starts, sizes = groups
    per_row = sizes[keys]
    row = np.repeat(np.arange(len(keys)), per_row)
    offset = np.arange(len(row)) - np.repeat(np.cumsum(per_row) - per_row, per_row)
    return [c[row] for c in columns] + [order[starts[keys][row] + offset]]


def _coarse_rows(
    side_h: FiniteGroupoid, side_v: FiniteGroupoid, max_squares: int
) -> tuple[int, Iterator[np.ndarray]]:
    """The number of coarse squares, and the squares as blocks of arrow-index rows.

    A row is (s, t, s_hat, t_hat): s and t index side_h.arrows, s_hat and
    t_hat side_v.arrows. The rows run in coarse_enumerate's order, s_hat
    outermost, then s, t, t_hat, in blocks of at most SQUARE_BLOCK
    rows. The count comes from the arrow counts between point pairs, so
    a cap it exceeds raises before any row exists.
    """
    points: dict[PointId, int] = {}

    def endpoints(g: FiniteGroupoid) -> np.ndarray:
        ends = [
            (points.setdefault(a.source, len(points)), points.setdefault(a.target, len(points)))
            for a in g.arrows
        ]
        return np.array(ends, dtype=np.intp).reshape(-1, 2)

    h, v = endpoints(side_h), endpoints(side_v)
    n = len(points)
    counts_h = np.bincount(h[:, 0] * n + h[:, 1], minlength=n * n).reshape(n, n)
    counts_v = np.bincount(v[:, 0] * n + v[:, 1], minlength=n * n).reshape(n, n)
    # An arrow s_hat: a -> b heads (counts_h @ counts_v @ counts_h.T)[a, b] squares.
    per_s_hat = (counts_h @ counts_v @ counts_h.T)[v[:, 0], v[:, 1]]
    total = int(per_s_hat.sum())
    if total > max_squares:
        raise SizeLimitError(f"coarse enumeration exceeds the cap of {max_squares} squares")
    return total, _row_blocks(h, v, n, per_s_hat.tolist())


def _row_blocks(h: np.ndarray, v: np.ndarray, n: int, per_s_hat: list[int]) -> Iterator[np.ndarray]:
    by_source_h = _groups(h[:, 0], n)
    by_pair_v = _groups(v[:, 0] * n + v[:, 1], n * n)
    start = 0
    while start < len(v):
        # As many s_hat arrows as fit in one block, and at least one.
        stop, size = start + 1, per_s_hat[start]
        while stop < len(v) and size + per_s_hat[stop] <= SQUARE_BLOCK:
            size += per_s_hat[stop]
            stop += 1
        columns = [np.arange(start, stop)]                              # s_hat: W -> X
        columns = _join(columns, v[columns[0], 0], by_source_h)         # s: W -> Y
        columns = _join(columns, v[columns[0], 1], by_source_h)         # t: X -> Z
        corners = h[columns[1], 1] * n + h[columns[2], 1]
        s_hat, s, t, t_hat = _join(columns, corners, by_pair_v)         # t_hat: Y -> Z
        rows = np.stack([s, t, s_hat, t_hat], axis=1)
        for first in range(0, len(rows), SQUARE_BLOCK):
            yield rows[first:first + SQUARE_BLOCK]
        start = stop


def _squares_at(side_h: FiniteGroupoid, side_v: FiniteGroupoid, rows: np.ndarray) -> list[Square]:
    h, v = side_h.arrows, side_v.arrows
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
    """All endpoint-consistent squares over the two side groupoids."""
    _, blocks = _coarse_rows(side_h, side_v, max_squares)
    return [sq for rows in blocks for sq in _squares_at(side_h, side_v, rows)]


def commuting_squares(
    side_h: FiniteGroupoid,
    side_v: FiniteGroupoid,
    tolerance: float = DEFAULT_COMMUTATION_TOL,
    max_squares: int = DEFAULT_SQUARE_CAP,
) -> tuple[int, list[Square]]:
    """The number of coarse squares, and the commuting ones in coarse order.

    Keeps what is_commutative keeps, but tests a block of squares at a
    time on stacked arrow maps and builds a Square only for those that
    pass. Stacked @ computes each 3x3 product as a single @ does, so
    every defect is the one commutation_defect returns.
    """
    total, blocks = _coarse_rows(side_h, side_v, max_squares)
    maps_h = np.array([a.map for a in side_h.arrows])
    maps_v = np.array([a.map for a in side_v.arrows])
    squares: list[Square] = []
    for rows in blocks:
        left = maps_h[rows[:, 1]] @ maps_v[rows[:, 2]]     # t s_hat
        right = maps_v[rows[:, 3]] @ maps_h[rows[:, 0]]    # t_hat s
        defect = np.abs(left - right).max(axis=(1, 2)) / (1.0 + np.abs(left).max(axis=(1, 2)))
        squares += _squares_at(side_h, side_v, rows[defect <= tolerance])
    return total, squares


class MaterialDoubleGroupoid:
    """Two side groupoids on one base plus a set of commuting squares."""

    def __init__(
        self,
        side_h: FiniteGroupoid,
        side_v: FiniteGroupoid,
        squares: list[Square],
        tolerance: float = DEFAULT_COMMUTATION_TOL,
        check: bool = True,
    ):
        if set(side_h.base.ids) != set(side_v.base.ids):
            raise UnilabError("side groupoids must share one point base")
        self.side_h = side_h
        self.side_v = side_v
        self.squares = list(squares)
        self.tolerance = float(tolerance)
        if check:
            for sq in self.squares:
                check_square(sq)
                if not is_commutative(sq, self.tolerance):
                    raise UnilabError("stored square violates the commutation condition")

    @classmethod
    def from_sides(
        cls,
        side_h: FiniteGroupoid,
        side_v: FiniteGroupoid,
        tolerance: float = DEFAULT_COMMUTATION_TOL,
        max_squares: int = DEFAULT_SQUARE_CAP,
    ) -> "MaterialDoubleGroupoid":
        _, squares = commuting_squares(side_h, side_v, tolerance, max_squares)
        return cls(side_h, side_v, squares, tolerance, check=False)

    def side(self, component: int) -> FiniteGroupoid:
        if component == 1:
            return self.side_h
        if component == 2:
            return self.side_v
        raise ValueError("component must be 1 or 2")


def filling_check(dg: MaterialDoubleGroupoid) -> list[tuple[Arrow, Arrow]]:
    """Pairs (s, s_hat) sharing a source corner that head no stored square."""
    by_sources: dict[tuple[PointId, PointId, PointId], list[Square]] = {}
    for sq in dg.squares:
        by_sources.setdefault((sq.W, sq.Y, sq.X), []).append(sq)
    unfillable = []
    for s in dg.side_h.arrows:
        for s_hat in dg.side_v.arrows:
            if s.source != s_hat.source:
                continue
            candidates = by_sources.get((s.source, s.target, s_hat.target), [])
            if not any(
                arrows_match(sq.s, s, dg.tolerance)
                and arrows_match(sq.s_hat, s_hat, dg.tolerance)
                for sq in candidates
            ):
                unfillable.append((s, s_hat))
    return unfillable


def core(dg: MaterialDoubleGroupoid) -> FiniteGroupoid:
    """Groupoid of squares whose source corners collapse: W = X = Y with unit s, s_hat.

    Each qualifying square contributes one arrow W -> Z carrying the pair
    (t.map, t_hat.map) as a two-payload product representation. Units
    come from the stored double-unit squares.
    """
    tol = dg.tolerance
    arrows: list[Arrow] = []
    counter = 0
    for sq in dg.squares:
        if not (sq.W == sq.X == sq.Y):
            continue
        if not arrows_match(sq.s, unit_arrow(sq.W), tol):
            continue
        if not arrows_match(sq.s_hat, unit_arrow(sq.W), tol):
            continue
        candidate = Arrow(f"core{counter}:{sq.W}->{sq.Z}", sq.W, sq.Z, sq.t.map, sq.t_hat.map)
        if not any(arrows_match(candidate, a, tol) for a in arrows):
            arrows.append(candidate)
            counter += 1
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
    u = _unique_arrow(dg.side_h, x, y)
    u_star = _unique_arrow(dg.side_v, x, y)
    return invert(u_star.map) @ u.map


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
        if abs(float(np.linalg.det(h))) <= singular_tolerance(h):
            raise SingularJacobianError(f"Jacobian at point {pid!r} is singular")
        jac[pid] = h
    jac_inv = {pid: invert(h) for pid, h in jac.items()}

    def push_groupoid(g: FiniteGroupoid) -> FiniteGroupoid:
        return FiniteGroupoid(
            g.base,
            [_transformed_arrow(a, jac, jac_inv) for a in g.arrows],
            g.tolerance,
            check=False,
        )

    def push_square(sq: Square) -> Square:
        return Square(
            W=sq.W, X=sq.X, Y=sq.Y, Z=sq.Z,
            s=_transformed_arrow(sq.s, jac, jac_inv),
            t=_transformed_arrow(sq.t, jac, jac_inv),
            s_hat=_transformed_arrow(sq.s_hat, jac, jac_inv),
            t_hat=_transformed_arrow(sq.t_hat, jac, jac_inv),
        )

    return MaterialDoubleGroupoid(
        push_groupoid(dg.side_h),
        push_groupoid(dg.side_v),
        [push_square(sq) for sq in dg.squares],
        dg.tolerance,
        check=False,
    )


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
