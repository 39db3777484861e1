"""Non-uniformity measures for a binary composite of two frame fields.

The symmetry type of each component decides which defect detects a
broken material isomorphism between the components:

  case 1  discrete vs discrete      B = Gamma1 - Gamma2      (third order)
  case 2  discrete vs isotropic     B = g1 - g2              (metric defect)
  case 3  discrete vs transverse    B = g1 - g2 and Bhat = grad_1 n
  case 4  isotropic vs isotropic    same defect as case 2
  case 5  transverse vs transverse  B = g1 - g2 and an angle defect delta

The composite is uniform in a direction only when every defect of its
case vanishes along it. The symmetry group of the composite at a point
is the intersection of the component groups.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import MissingDirectorError, NotAGroupError, merge_failures, raise_first
from .fields import FrameField, VectorField
from .geometry import christoffel, christoffel_stack, covariant_derivative_stack, metric_stack
from .linalg3 import DEFAULT_ARROW_TOL, Mat3, Ten3, as_mat3, as_points, as_vec3, at_point, invert


class SymmetryCase(Enum):
    DISCRETE_DISCRETE = "discrete-discrete"
    DISCRETE_ISOTROPIC = "discrete-isotropic"
    DISCRETE_TRANSISO = "discrete-transiso"
    ISO_ISO = "iso-iso"
    TRANSISO_TRANSISO = "transiso-transiso"

    @classmethod
    def from_string(cls, text: str) -> "SymmetryCase":
        for case in cls:
            if case.value == text:
                return case
        raise ValueError(f"unknown symmetry case {text!r}")


_CASE_NUMBER = {
    SymmetryCase.DISCRETE_DISCRETE: 1,
    SymmetryCase.DISCRETE_ISOTROPIC: 2,
    SymmetryCase.DISCRETE_TRANSISO: 3,
    SymmetryCase.ISO_ISO: 4,
    SymmetryCase.TRANSISO_TRANSISO: 5,
}


@dataclass(frozen=True)
class CompositeSpec:
    """Two frame fields plus the symmetry data their case requires.

    director is the distinguished axis of the transverse component in
    case 3; director1/director2 are the per-component axes in case 5.
    """

    component1: FrameField
    component2: FrameField
    symmetry_case: SymmetryCase = SymmetryCase.DISCRETE_DISCRETE
    director: VectorField | None = None
    director1: VectorField | None = None
    director2: VectorField | None = None

    def __post_init__(self):
        case = self.symmetry_case
        if case is SymmetryCase.DISCRETE_TRANSISO and self.director is None:
            raise MissingDirectorError("case discrete-transiso requires a director")
        if case is SymmetryCase.TRANSISO_TRANSISO and (
            self.director1 is None or self.director2 is None
        ):
            raise MissingDirectorError("case transiso-transiso requires director1 and director2")

    @property
    def case_number(self) -> int:
        return _CASE_NUMBER[self.symmetry_case]


@dataclass(frozen=True)
class MeasureResult:
    """One point's defects; evaluate_measure_stack holds one row per node instead."""

    case_number: int
    B: np.ndarray                 # Ten3 for case 1, Mat3 otherwise
    b_hat: Mat3 | None = None     # case 3 director gradient
    angle_defect: float | None = None  # case 5


def measure_case1_stack(spec: CompositeSpec, points) -> tuple[np.ndarray, dict]:
    """B (N, 3, 3, 3) at the rows of an (N, 3) point array, and the per-node failures."""
    g1, failures = christoffel_stack(spec.component1, points)
    g2, failures2 = christoffel_stack(spec.component2, points)
    merge_failures(failures, failures2)
    return g1 - g2, failures


def measure_case1(spec: CompositeSpec, point) -> Ten3:
    """Third-order defect B = Gamma1 - Gamma2 of the two material connections."""
    return at_point(point, measure_case1_stack, spec)[0]


def measure_case1_covariant(spec: CompositeSpec, point) -> Ten3:
    """Same defect, computed covariantly: B^I_JK = -P1inv^a_J (P1^I_a;K).

    The semicolon derivative uses the connection of component 2:
    P1^I_a;K = P1^I_a,K + Gamma2^I_MK P1^M_a. Agreement with
    measure_case1 is an internal identity, kept as a dual route.
    """
    p = as_vec3(point)
    p1, dp1 = spec.component1.jet(p)
    gamma2 = christoffel(spec.component2, p).gamma
    semi = dp1 + np.einsum("imk,ma->iak", gamma2, p1)
    return -np.einsum("aj,iak->ijk", invert(p1), semi)


def measure_case2_stack(spec: CompositeSpec, points) -> tuple[np.ndarray, dict]:
    """Metric defect (N, 3, 3) at the rows of an (N, 3) point array, and the per-node failures."""
    g1, failures = metric_stack(spec.component1, points)
    g2, failures2 = metric_stack(spec.component2, points)
    merge_failures(failures, failures2)
    return g1 - g2, failures


def measure_case2(spec: CompositeSpec, point) -> Mat3:
    """Metric defect B = g1 - g2."""
    return at_point(point, measure_case2_stack, spec)[0]


def measure_case3_stack(spec: CompositeSpec, points):
    """(B, b_hat, failures): measure_case3 at the rows of an (N, 3) point array."""
    if spec.director is None:
        raise MissingDirectorError("case discrete-transiso requires a director")
    points = as_points(points)
    failures = _nonzero_failures(spec.director, points)
    b, failures2 = measure_case2_stack(spec, points)
    merge_failures(failures, failures2)
    b_hat, failures3 = covariant_derivative_stack(spec.director, spec.component1, points)
    merge_failures(failures, failures3)
    return b, b_hat, failures


def measure_case3(spec: CompositeSpec, point) -> tuple[Mat3, Mat3]:
    """Metric defect plus the covariant gradient of the director in component 1."""
    return at_point(point, measure_case3_stack, spec)


def measure_case5_stack(spec: CompositeSpec, points):
    """(B, delta, failures): measure_case5 at the rows of an (N, 3) point array."""
    if spec.director1 is None or spec.director2 is None:
        raise MissingDirectorError("case transiso-transiso requires director1 and director2")
    points = as_points(points)
    failures = _nonzero_failures(spec.director1, points)
    merge_failures(failures, _nonzero_failures(spec.director2, points))
    b, failures2 = measure_case2_stack(spec, points)
    merge_failures(failures, failures2)
    g, _ = metric_stack(spec.component1, points)
    n1 = _normalize(spec.director1.value_stack(points)[0], g, failures)
    n2 = _normalize(spec.director2.value_stack(points)[0], g, failures)
    p1, _ = spec.component1.value_stack(points)
    p2, _ = spec.component2.value_stack(points)
    transported = np.einsum("nij,nj->ni", p1 @ np.linalg.inv(p2), n2)
    n1_g = np.einsum("ni,nij->nj", n1, g)
    delta = np.einsum("ni,ni->n", n1_g, transported) - np.einsum("ni,ni->n", n1_g, n2)
    return b, delta, failures


def measure_case5(spec: CompositeSpec, point) -> tuple[Mat3, float]:
    """Metric defect plus the director angle defect.

    delta = <n1, P1 P2^-1 n2> - <n1, n2> in the metric of component 1,
    with both directors normalized to unit metric length first. delta
    vanishes exactly when transporting the second director through the
    implants preserves its angle against the first.
    """
    b, delta = at_point(point, measure_case5_stack, spec)
    return b, float(delta)


def evaluate_measure_stack(spec: CompositeSpec, points) -> tuple[MeasureResult, dict]:
    """Every node's defects as one MeasureResult of stacks, and the per-node failures."""
    case = spec.case_number
    if case == 1:
        b, failures = measure_case1_stack(spec, points)
        return MeasureResult(1, b), failures
    if case in (2, 4):
        b, failures = measure_case2_stack(spec, points)
        return MeasureResult(case, b), failures
    if case == 3:
        b, b_hat, failures = measure_case3_stack(spec, points)
        return MeasureResult(3, b, b_hat=b_hat), failures
    b, delta, failures = measure_case5_stack(spec, points)
    return MeasureResult(5, b, angle_defect=delta), failures


def evaluate_measure(spec: CompositeSpec, point) -> MeasureResult:
    """Dispatch on the symmetry case; case 4 reuses the case-2 defect."""
    result, failures = evaluate_measure_stack(spec, as_vec3(point)[None])
    raise_first(failures)
    return MeasureResult(
        result.case_number,
        result.B[0],
        None if result.b_hat is None else result.b_hat[0],
        None if result.angle_defect is None else float(result.angle_defect[0]),
    )


def _nonzero_failures(director: VectorField, points: np.ndarray) -> dict:
    n, failures = director.value_stack(points)
    vanishing = np.flatnonzero(np.linalg.norm(n, axis=1) == 0.0)
    for node in vanishing.tolist():
        failures.setdefault(
            node, MissingDirectorError(f"director vanishes at {points[node].tolist()}")
        )
    return failures


def _normalize(n: np.ndarray, g: np.ndarray, failures: dict) -> np.ndarray:
    length = np.sqrt(np.einsum("ni,nij,nj->n", n, g, n))
    for node in np.flatnonzero(length == 0.0).tolist():
        failures.setdefault(node, MissingDirectorError("director has zero metric length"))
    return n / np.where(length == 0.0, 1.0, length)[:, None]


# ---------------------------------------------------------------------------
# Finite matrix groups
# ---------------------------------------------------------------------------


@dataclass
class FiniteMatrixGroup:
    """Finite set of invertible 3x3 matrices, validated as a group."""

    elements: list[np.ndarray]
    tolerance: float = DEFAULT_ARROW_TOL
    check: bool = field(default=True, repr=False)

    def __post_init__(self):
        self.elements = [as_mat3(m) for m in self.elements]
        if self.check:
            self.validate()

    def __len__(self):
        return len(self.elements)

    def contains(self, m: Mat3) -> bool:
        return any(np.max(np.abs(m - el)) <= self.tolerance for el in self.elements)

    def validate(self) -> None:
        if not self.contains(np.eye(3)):
            raise NotAGroupError("identity is missing")
        for a in self.elements:
            if not self.contains(invert(a)):
                raise NotAGroupError("set is not closed under inversion")
            for b in self.elements:
                if not self.contains(a @ b):
                    raise NotAGroupError("set is not closed under products")


def intersect_groups(
    group1: FiniteMatrixGroup, group2: FiniteMatrixGroup, tolerance: float = DEFAULT_ARROW_TOL
) -> FiniteMatrixGroup:
    """Symmetry group of the composite: elements of group1 matching group2 within tolerance."""
    group1.validate()
    group2.validate()
    picked: list[np.ndarray] = []
    for a in group1.elements:
        if any(np.max(np.abs(a - b)) <= tolerance for b in group2.elements):
            if not any(np.max(np.abs(a - c)) <= tolerance for c in picked):
                picked.append(a)
    return FiniteMatrixGroup(picked, tolerance)
