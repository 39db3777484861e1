"""Frame and vector fields over a box-shaped body chart.

A frame field assigns an invertible 3x3 implant matrix P(X) to each body
point. Analytic variants hold one scalar expression per entry and
differentiate exactly; sampled variants hold per-node matrices on a
regular grid and differentiate with 2nd-order finite differences
(one-sided 2nd-order stencils at boundary nodes). Sampled fields are
node-based: evaluation snaps to the nearest grid node.

Every field evaluates whole point stacks: value_stack and jet_stack take
an (N, 3) array and return (N, ...) arrays plus a dict of per-node
failures (see errors.merge_failures). Analytic entries run as one numpy
pass over the coordinate arrays; sampled fields look up all nodes at
once. Rows of failing nodes hold placeholders (the identity frame, zero
vectors and derivatives) so that later array steps stay finite. The
per-point value and jet are the same computation on a stack of one
point, raising that point's error.
"""
from __future__ import annotations

import zipfile
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from . import expressions as ex
from .errors import (
    ConfigError,
    NonFiniteError,
    OutOfDomainError,
    SingularFrameError,
    merge_failures,
)
from .linalg3 import (
    Mat3,
    Vec3,
    as_mat3,
    as_points,
    as_vec3,
    at_point,
    fill_rows,
    is_singular,
)


@dataclass(frozen=True)
class BodyDomain:
    """Axis-aligned box with a per-axis sampling resolution."""

    lower: tuple[float, float, float]
    upper: tuple[float, float, float]
    resolution: tuple[int, int, int]

    def __post_init__(self):
        lo = as_vec3(self.lower)
        hi = as_vec3(self.upper)
        if not np.all(hi > lo):
            raise ValueError("domain upper corner must exceed lower corner on every axis")
        if any(int(r) < 2 for r in self.resolution):
            raise ValueError("resolution must be at least 2 nodes per axis")
        object.__setattr__(self, "lower", tuple(float(v) for v in lo))
        object.__setattr__(self, "upper", tuple(float(v) for v in hi))
        object.__setattr__(self, "resolution", tuple(int(r) for r in self.resolution))

    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return tuple(
            np.linspace(self.lower[i], self.upper[i], self.resolution[i]) for i in range(3)
        )

    def lattice(self) -> np.ndarray:
        """All sampling nodes as an (N, 3) array in row-major axis order."""
        a1, a2, a3 = self.axes()
        g1, g2, g3 = np.meshgrid(a1, a2, a3, indexing="ij")
        return np.column_stack([g1.ravel(), g2.ravel(), g3.ravel()])

    def contains(self, point, margin: float = 0.0) -> bool:
        p = as_vec3(point)
        lo = np.asarray(self.lower) + margin
        hi = np.asarray(self.upper) - margin
        return bool(np.all(p >= lo) and np.all(p <= hi))


# ---------------------------------------------------------------------------
# Analytic fields
# ---------------------------------------------------------------------------


def _parse_grid(rows, shape) -> tuple:
    out = []
    for row in rows:
        out.append(tuple(ex.parse(cell) if isinstance(cell, str) else cell for cell in row))
    parsed = tuple(out)
    if len(parsed) != shape[0] or any(len(r) != shape[1] for r in parsed):
        raise ValueError(f"expected a {shape[0]}x{shape[1]} layout of entries")
    return parsed


_IDENTITY = np.eye(3)


def _guard_frames(frames: np.ndarray, points: np.ndarray, failures: dict) -> np.ndarray:
    """Record singular frames as failures; put the identity at every failing node."""
    fill_rows(frames, failures, _IDENTITY)
    singular = np.flatnonzero(is_singular(frames)).tolist()
    for node in singular:
        failures[node] = _singular_frame(points[node])
    return fill_rows(frames, singular, _IDENTITY)


def _singular_frame(point: np.ndarray) -> SingularFrameError:
    return SingularFrameError(f"frame is singular at {point.tolist()}")


@dataclass(frozen=True)
class AnalyticFrameField:
    """3x3 grid of scalar expressions; row index is the body leg, column the archetype leg."""

    entries: tuple[tuple[ex.ScalarExpr, ...], ...]

    @classmethod
    def from_strings(cls, rows) -> "AnalyticFrameField":
        return cls(_parse_grid(rows, (3, 3)))

    @classmethod
    def from_matrix(cls, m) -> "AnalyticFrameField":
        m = as_mat3(m)
        return cls(tuple(tuple(ex.Num(float(m[i, j])) for j in range(3)) for i in range(3)))

    @classmethod
    def identity(cls) -> "AnalyticFrameField":
        return cls.from_matrix(np.eye(3))

    @cached_property
    def _values(self) -> ex.ExpressionStack:
        return ex.ExpressionStack(e for row in self.entries for e in row)

    @cached_property
    def _derivs(self) -> ex.ExpressionStack:
        return ex.ExpressionStack(
            ex.diff(e, k) for row in self.entries for e in row for k in (1, 2, 3)
        )

    @cached_property
    def inverse_entries(self) -> tuple[tuple[ex.ScalarExpr, ...], ...]:
        """Symbolic inverse via the adjugate over the determinant."""
        m = self.entries

        def minor(i, j):
            rows = [r for r in range(3) if r != i]
            cols = [c for c in range(3) if c != j]
            a, b = rows
            c, d = cols
            return ex.sub(ex.mul(m[a][c], m[b][d]), ex.mul(m[a][d], m[b][c]))

        det = ex.add(
            ex.sub(ex.mul(m[0][0], minor(0, 0)), ex.mul(m[0][1], minor(0, 1))),
            ex.mul(m[0][2], minor(0, 2)),
        )
        inv = []
        for i in range(3):
            row = []
            for j in range(3):
                cof = minor(j, i)  # transposed cofactor
                if (i + j) % 2 == 1:
                    cof = ex.neg(cof)
                row.append(ex.div(cof, det))
            inv.append(tuple(row))
        return tuple(inv)

    @cached_property
    def inverse_derivative_fns(self):
        """Compiled d Pinv^a_J / d x<k+1>, indexed [a][j][k], for the cross-check route."""
        return tuple(
            tuple(tuple(ex.compile_expr(ex.diff(e, k)) for k in (1, 2, 3)) for e in row)
            for row in self.inverse_entries
        )

    def value_stack(self, points) -> tuple[np.ndarray, dict]:
        """P at every row of an (N, 3) point array, and the per-node failures."""
        points = as_points(points)
        values, failures = self._values.evaluate(points)
        return _guard_frames(values.reshape(-1, 3, 3), points, failures), failures

    def jet_stack(self, points) -> tuple[np.ndarray, np.ndarray, dict]:
        """(P, dP, failures) with dP[n, i, a, k] the derivative of P[i, a] along x<k+1>."""
        points = as_points(points)
        value, failures = self.value_stack(points)
        deriv, deriv_failures = self._derivs.evaluate(points)
        merge_failures(failures, deriv_failures)
        return value, fill_rows(deriv.reshape(-1, 3, 3, 3), failures, 0.0), failures

    def value(self, point) -> Mat3:
        return at_point(point, self.value_stack)[0]

    def jet(self, point) -> tuple[Mat3, np.ndarray]:
        """Return (P, dP) with dP[i, a, k] the derivative of P[i, a] along x<k+1>."""
        return at_point(point, self.jet_stack)

    def right_multiplied(self, c: Mat3) -> "AnalyticFrameField":
        """Analytic field for X -> P(X) @ C with a constant matrix C."""
        c = as_mat3(c)
        rows = []
        for i in range(3):
            row = []
            for j in range(3):
                acc = ex.Num(0.0)
                for k in range(3):
                    acc = ex.add(acc, ex.mul(self.entries[i][k], ex.Num(float(c[k, j]))))
                row.append(acc)
            rows.append(tuple(row))
        return AnalyticFrameField(tuple(rows))


@dataclass(frozen=True)
class AnalyticVectorField:
    """Three scalar expressions, one per body component."""

    components: tuple[ex.ScalarExpr, ex.ScalarExpr, ex.ScalarExpr]

    @classmethod
    def from_strings(cls, items) -> "AnalyticVectorField":
        items = tuple(ex.parse(s) if isinstance(s, str) else s for s in items)
        if len(items) != 3:
            raise ValueError("a vector field needs exactly 3 components")
        return cls(items)

    @classmethod
    def constant(cls, v) -> "AnalyticVectorField":
        v = as_vec3(v)
        return cls(tuple(ex.Num(float(c)) for c in v))

    @cached_property
    def _values(self) -> ex.ExpressionStack:
        return ex.ExpressionStack(self.components)

    @cached_property
    def _derivs(self) -> ex.ExpressionStack:
        return ex.ExpressionStack(ex.diff(e, k) for e in self.components for k in (1, 2, 3))

    def value_stack(self, points) -> tuple[np.ndarray, dict]:
        """n at every row of an (N, 3) point array, and the per-node failures."""
        values, failures = self._values.evaluate(as_points(points))
        return fill_rows(values, failures, 0.0), failures

    def jet_stack(self, points) -> tuple[np.ndarray, np.ndarray, dict]:
        """(n, dn, failures) with dn[n, i, k] the derivative of n[i] along x<k+1>."""
        points = as_points(points)
        value, failures = self.value_stack(points)
        deriv, deriv_failures = self._derivs.evaluate(points)
        merge_failures(failures, deriv_failures)
        return value, fill_rows(deriv.reshape(-1, 3, 3), failures, 0.0), failures

    def value(self, point) -> Vec3:
        return at_point(point, self.value_stack)[0]

    def jet(self, point) -> tuple[Vec3, np.ndarray]:
        """Return (n, dn) with dn[i, k] the derivative of n[i] along x<k+1>."""
        return at_point(point, self.jet_stack)


# ---------------------------------------------------------------------------
# Sampled fields
# ---------------------------------------------------------------------------


class _SampledField:
    """Regular-grid samples of an array-valued field, node-based access."""

    tail_shape: tuple = ()

    def __init__(self, lower, spacing, values):
        self.lower = tuple(float(v) for v in as_vec3(lower))
        self.spacing = tuple(float(v) for v in as_vec3(spacing))
        values = np.asarray(values, dtype=float)
        tail_shape = self.tail_shape
        if values.ndim != 3 + len(tail_shape) or values.shape[3:] != tail_shape:
            raise ValueError(f"values must have shape (n1, n2, n3){tail_shape}")
        if any(s < 3 for s in values.shape[:3]):
            raise ValueError("sampling grid needs at least 3 nodes per axis")
        if any(h <= 0 for h in self.spacing):
            raise ValueError("grid spacing must be positive")
        if not np.all(np.isfinite(values)):
            raise NonFiniteError("grid samples must be finite")
        self.values = values
        self.shape = values.shape[:3]

    @classmethod
    def from_function(cls, fn, domain: BodyDomain):
        a1, a2, a3 = domain.axes()
        values = np.empty((len(a1), len(a2), len(a3)) + cls.tail_shape)
        for i, x1 in enumerate(a1):
            for j, x2 in enumerate(a2):
                for k, x3 in enumerate(a3):
                    values[i, j, k] = fn(np.array([x1, x2, x3]))
        spacing = [(domain.upper[i] - domain.lower[i]) / (domain.resolution[i] - 1) for i in range(3)]
        return cls(domain.lower, spacing, values)

    def _nodes(self, points) -> tuple[np.ndarray, dict]:
        """Nearest grid node (N, 3) of each point; points off the grid fail."""
        points = as_points(points)
        idx = np.rint((points - np.array(self.lower)) / np.array(self.spacing))
        outside = (idx < 0) | (idx >= np.array(self.shape))
        failures = {}
        for node in np.flatnonzero(np.any(outside, axis=1)).tolist():
            axis = int(np.argmax(outside[node])) + 1
            failures[node] = OutOfDomainError(
                f"point {points[node].tolist()} is outside the sampling grid on axis {axis}"
            )
        return fill_rows(idx, failures, 0).astype(np.intp), failures

    def _derivatives(self, idx: np.ndarray) -> np.ndarray:
        """2nd-order derivatives at grid nodes, the axis as the last index.

        Central differences inside, one-sided 2nd-order stencils on the faces.
        """
        out = np.empty((len(idx),) + self.tail_shape + (3,))
        for axis in range(3):
            i = idx[:, axis]
            h2 = 2.0 * self.spacing[axis]

            def at(rows, offset):
                probe = idx[rows].copy()
                probe[:, axis] += offset
                return self.values[probe[:, 0], probe[:, 1], probe[:, 2]]

            inner = (i > 0) & (i < self.shape[axis] - 1)
            first = i == 0
            last = i == self.shape[axis] - 1
            d = out[..., axis]
            d[inner] = (at(inner, 1) - at(inner, -1)) / h2
            d[first] = (-3.0 * at(first, 0) + 4.0 * at(first, 1) - at(first, 2)) / h2
            d[last] = (3.0 * at(last, 0) - 4.0 * at(last, -1) + at(last, -2)) / h2
        return out

    def _node_values(self, points) -> tuple[np.ndarray, np.ndarray, dict]:
        idx, failures = self._nodes(points)
        return idx, self.values[idx[:, 0], idx[:, 1], idx[:, 2]], failures


class SampledFrameField(_SampledField):
    """Per-node implant matrices on a regular grid."""

    tail_shape = (3, 3)

    @classmethod
    def from_npz(cls, path) -> "SampledFrameField":
        """Load a grid written by to_npz; any other file raises ConfigError."""
        try:
            data = np.load(path)
        except OSError as exc:
            raise ConfigError(f"cannot read the grid file: {exc}") from None
        except (EOFError, ValueError, zipfile.BadZipFile):
            data = None  # not a numpy file, or a pickle: refused below
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ConfigError("not an npz archive")
        with data:
            for key in ("lower", "spacing", "values"):
                if key not in data:
                    raise ConfigError(f"npz archive lacks {key!r}")
            try:
                return cls(data["lower"], data["spacing"], data["values"])
            except ValueError as exc:
                raise ConfigError(str(exc)) from None

    def to_npz(self, path) -> None:
        np.savez(
            path,
            lower=np.asarray(self.lower),
            spacing=np.asarray(self.spacing),
            values=self.values,
        )

    def value_stack(self, points) -> tuple[np.ndarray, dict]:
        """P at the grid node nearest each row of an (N, 3) array, and the per-node failures."""
        points = as_points(points)
        _, value, failures = self._node_values(points)
        return _guard_frames(value, points, failures), failures

    def jet_stack(self, points) -> tuple[np.ndarray, np.ndarray, dict]:
        """(P, dP, failures) at the grid node nearest each point."""
        points = as_points(points)
        idx, value, failures = self._node_values(points)
        deriv = self._derivatives(idx)
        return _guard_frames(value, points, failures), fill_rows(deriv, failures, 0.0), failures

    def value(self, point) -> Mat3:
        return at_point(point, self.value_stack)[0]

    def jet(self, point) -> tuple[Mat3, np.ndarray]:
        return at_point(point, self.jet_stack)

    @cached_property
    def inverse_field(self) -> "SampledFrameField":
        """Grid of pointwise inverses, for the inverse-derivative route."""
        inv = np.linalg.inv(self.values.reshape(-1, 3, 3)).reshape(self.values.shape)
        return SampledFrameField(self.lower, self.spacing, inv)


class SampledVectorField(_SampledField):
    """Per-node 3-vectors on a regular grid."""

    tail_shape = (3,)

    def value_stack(self, points) -> tuple[np.ndarray, dict]:
        _, value, failures = self._node_values(points)
        return fill_rows(value, failures, 0.0), failures

    def jet_stack(self, points) -> tuple[np.ndarray, np.ndarray, dict]:
        idx, value, failures = self._node_values(points)
        deriv = self._derivatives(idx)
        return fill_rows(value, failures, 0.0), fill_rows(deriv, failures, 0.0), failures

    def value(self, point) -> Vec3:
        return at_point(point, self.value_stack)[0]

    def jet(self, point) -> tuple[Vec3, np.ndarray]:
        return at_point(point, self.jet_stack)


FrameField = Union[AnalyticFrameField, SampledFrameField]
VectorField = Union[AnalyticVectorField, SampledVectorField]
