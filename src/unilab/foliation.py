"""Uniformity foliations of a discrete-discrete composite.

At each body point the directions v with B(X) v = 0 (B the third-order
case-1 defect) span the subspace along which the composite stays
uniform. Scanning the kernel dimension m over a domain classifies the
body:

    m = 0  totally non-uniform      m = 2  laminated (uniform sheets)
    m = 1  fibered (uniform curves) m = 3  uniform body

The kernel distribution is always involutive, so the sheets and curves
integrate to genuine foliations; involutivity_residual quantifies the
numerical size of B([v, w]) for caller-supplied in-kernel fields.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    NonFiniteError,
    PreconditionViolatedError,
    ScanFailedError,
    UnilabError,
    merge_failures,
    raise_first,
)
from .fields import AnalyticVectorField, BodyDomain
from .geometry import christoffel_stack
from .linalg3 import (
    DEFAULT_RANK_REL_TOL,
    Vec3,
    as_points,
    as_vec3,
    at_point,
    fill_rows,
    kernel_of_flattened,
    kernel_stack,
    max_abs,
)
from .measures import CompositeSpec, SymmetryCase, measure_case1, measure_case1_stack


class FoliationClass(Enum):
    TOTALLY_NON_UNIFORM = "TotallyNonUniform"
    FIBERED = "Fibered"
    LAMINATED = "Laminated"
    UNIFORM_BODY = "UniformBody"
    SINGULAR = "Singular"


_CLASS_BY_DIM = {
    0: FoliationClass.TOTALLY_NON_UNIFORM,
    1: FoliationClass.FIBERED,
    2: FoliationClass.LAMINATED,
    3: FoliationClass.UNIFORM_BODY,
}

# Fraction of nodes that must share one kernel dimension before the scan
# declares a constant-m class instead of Singular.
CONSTANT_M_FRACTION = 0.99

# Scans tolerate pointwise failures at up to this fraction of nodes.
MAX_FAILURE_FRACTION = 0.10


@dataclass(frozen=True)
class DistributionSample:
    point: Vec3
    m: int
    basis: np.ndarray          # (m, 3) orthonormal rows spanning the kernel
    sigma_min: float
    singular_values: np.ndarray


@dataclass(frozen=True)
class LatticeDefect:
    """The case-1 defect and its kernel at every node of a point stack.

    The connections themselves are not kept: past B, the lattice tasks
    read only their largest entries. Rows of failing nodes hold
    placeholders; `failures` maps each failing node to the error the
    per-point route (null_space_at) raises there.
    """

    points: np.ndarray          # (N, 3)
    b: np.ndarray               # (N, 3, 3, 3) Gamma1 - Gamma2
    gamma1_max: np.ndarray      # (N,) max |Gamma1|
    gamma2_max: np.ndarray      # (N,) max |Gamma2|
    sigma: np.ndarray           # (N, 3) singular values of the 9x3 flattenings, descending
    m: np.ndarray               # (N,) kernel dimensions
    failures: dict


@dataclass(frozen=True)
class FoliationReport:
    """Kernel scan of a lattice; the per-node arrays skip the failed nodes."""

    points: np.ndarray          # (M, 3) in lattice order
    m: np.ndarray               # (M,)
    sigma_min: np.ndarray       # (M,)
    foliation_class: FoliationClass
    involutivity_max_residual: float | None
    failures: list[tuple[list, str]]


def _require_case1(spec: CompositeSpec) -> None:
    if spec.symmetry_case is not SymmetryCase.DISCRETE_DISCRETE:
        raise UnilabError("foliation analysis requires a discrete-discrete composite")


def classify_m_counts(m_counts) -> FoliationClass:
    """The constant-m rule on node counts per kernel dimension 0..3."""
    total = int(np.sum(m_counts))
    top = int(np.argmax(m_counts))
    if total and m_counts[top] >= CONSTANT_M_FRACTION * total:
        return _CLASS_BY_DIM[top]
    return FoliationClass.SINGULAR


def lattice_defect(spec: CompositeSpec, points, rel_tol: float = DEFAULT_RANK_REL_TOL) -> LatticeDefect:
    """B = Gamma1 - Gamma2 and its kernel at every row of an (N, 3) point array.

    Works for any symmetry case: the infinitesimal classification reads
    the same connections.
    """
    points = as_points(points)
    gamma1, failures = christoffel_stack(spec.component1, points)
    gamma2, failures2 = christoffel_stack(spec.component2, points)
    merge_failures(failures, failures2)
    b = gamma1 - gamma2
    for node in np.flatnonzero(~np.all(np.isfinite(b), axis=(1, 2, 3))).tolist():
        failures.setdefault(node, NonFiniteError("ten3 has non-finite entries"))
    sigma, m = kernel_stack(fill_rows(b, failures, 0.0), rel_tol)
    return LatticeDefect(points, b, max_abs(gamma1), max_abs(gamma2), sigma, m, failures)


def null_space_at(
    spec: CompositeSpec, point, rel_tol: float = DEFAULT_RANK_REL_TOL
) -> DistributionSample:
    """Kernel of the case-1 defect at one point."""
    _require_case1(spec)
    p = as_vec3(point)
    b = measure_case1(spec, p)
    kernel = kernel_of_flattened(b, rel_tol)
    return DistributionSample(
        p,
        kernel.dimension,
        kernel.basis,
        float(kernel.singular_values[-1]),
        kernel.singular_values,
    )


def scan_domain(
    spec: CompositeSpec,
    domain: BodyDomain,
    rel_tol: float = DEFAULT_RANK_REL_TOL,
    kernel_fields: tuple[AnalyticVectorField, AnalyticVectorField] | None = None,
) -> FoliationReport:
    """Kernel scan over the sampling lattice with the constant-m rule.

    When a pair of analytic in-kernel fields is supplied, the maximal
    involutivity residual over the lattice is recorded as well.
    """
    return scan_defect(spec, lattice_defect(spec, domain.lattice(), rel_tol), kernel_fields)


def scan_defect(
    spec: CompositeSpec,
    defect: LatticeDefect,
    kernel_fields: tuple[AnalyticVectorField, AnalyticVectorField] | None = None,
) -> FoliationReport:
    """scan_domain on a lattice defect already computed for this composite.

    Nodes whose kernel or involutivity residual fails are recorded and
    skipped; more than MAX_FAILURE_FRACTION of them fails the scan.
    """
    _require_case1(spec)
    failures = dict(defect.failures)
    residual = None
    if kernel_fields is not None:
        residual, residual_failures = _involutivity_stack(
            defect.b, kernel_fields[0], kernel_fields[1], defect.points
        )
        merge_failures(failures, residual_failures)
    ok = fill_rows(np.ones(len(defect.points), dtype=bool), failures, False)
    total = len(ok)
    if total == 0 or len(failures) > MAX_FAILURE_FRACTION * total:
        raise ScanFailedError(
            f"{len(failures)} of {total} lattice nodes failed during the foliation scan"
        )
    max_residual = None if residual is None else float(np.max(residual[ok]))
    m = defect.m[ok]
    return FoliationReport(
        defect.points[ok],
        m,
        defect.sigma[ok, -1],
        classify_m_counts(np.bincount(m, minlength=4)),
        max_residual,
        [(defect.points[node].tolist(), str(failures[node])) for node in sorted(failures)],
    )


def lie_bracket_stack(vfield: AnalyticVectorField, wfield: AnalyticVectorField, points):
    """[v, w] (N, 3) at the rows of an (N, 3) point array, and the per-node failures."""
    v, dv, failures = vfield.jet_stack(points)
    w, dw, failures2 = wfield.jet_stack(points)
    merge_failures(failures, failures2)
    return np.einsum("nkl,nl->nk", dw, v) - np.einsum("nkl,nl->nk", dv, w), failures


def lie_bracket(vfield: AnalyticVectorField, wfield: AnalyticVectorField, point) -> Vec3:
    """[v, w]^K = v^L w^K,L - w^L v^K,L at the point."""
    return at_point(point, lie_bracket_stack, vfield, wfield)[0]


def _involutivity_stack(b, vfield, wfield, points):
    """Residuals (N,) of involutivity_residual for a defect stack b, and the per-node failures."""
    b_scale = max_abs(b)
    failures: dict = {}
    for label, fld in (("v", vfield), ("w", wfield)):
        vec, value_failures = fld.value_stack(points)
        merge_failures(failures, value_failures)
        scale = b_scale * max_abs(vec)
        residual = max_abs(np.einsum("nijk,nk->nij", b, vec))
        for node in np.flatnonzero((scale > 0.0) & (residual > 1e-6 * scale)).tolist():
            failures.setdefault(node, PreconditionViolatedError(
                f"field {label} is not in the kernel at {points[node].tolist()}"
                f" (normalized residual {residual[node] / scale[node]:.3e})"
            ))
    bracket, bracket_failures = lie_bracket_stack(vfield, wfield, points)
    merge_failures(failures, bracket_failures)
    denominator = b_scale * max_abs(bracket)
    numerator = max_abs(np.einsum("nijk,nk->nij", b, bracket))
    return numerator / np.where(denominator == 0.0, np.inf, denominator), failures


def involutivity_residual(
    spec: CompositeSpec,
    vfield: AnalyticVectorField,
    wfield: AnalyticVectorField,
    point,
) -> float:
    """Normalized size of B([v, w]) for two fields lying in the kernel of B.

    Returns max|B [v,w]| / (max|B| * max|[v,w]|), with 0/0 read as 0.
    Both input fields must be in the kernel at the point to a normalized
    1e-6, otherwise the residual would be meaningless.
    """
    _require_case1(spec)
    p = as_vec3(point)[None]
    b, failures = measure_case1_stack(spec, p)
    raise_first(failures)
    residual, failures = _involutivity_stack(b, vfield, wfield, p)
    raise_first(failures)
    return float(residual[0])


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def records(**columns) -> np.ndarray:
    """A 1-D structured array with one field per named column.

    Each column is an array with one row per record; a 2-D column such as
    the (N, 3) points becomes a sub-array field.
    """
    n = len(next(iter(columns.values())))
    out = np.empty(n, dtype=[(name, c.dtype, c.shape[1:]) for name, c in columns.items()])
    for name, column in columns.items():
        out[name] = column
    return out


def report_to_dict(report: FoliationReport) -> dict:
    """The foliate task's report block; "nodes" is a record array with fields x, m, sigma_min."""
    counts = np.bincount(report.m, minlength=4)
    return {
        "class": report.foliation_class.value,
        "n_samples": len(report.m),
        "m_counts": {str(m): int(counts[m]) for m in range(4)},
        "involutivity_max_residual": report.involutivity_max_residual,
        "n_failures": len(report.failures),
        "nodes": records(x=report.points, m=report.m, sigma_min=report.sigma_min),
    }


def report_to_csv(report: FoliationReport) -> str:
    """Per-node dump with columns x1,x2,x3,m,sigma_min."""
    lines = ["x1,x2,x3,m,sigma_min"]
    rows = zip(report.points.tolist(), report.m.tolist(), report.sigma_min.tolist())
    for x, m, sigma_min in rows:
        lines.append("%.12e,%.12e,%.12e,%d,%.12e" % (*x, m, sigma_min))
    return "\n".join(lines) + "\n"
