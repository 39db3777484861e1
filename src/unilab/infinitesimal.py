"""Infinitesimal limits of the material isomorphism calculus.

The arrow of a frame field between nearby points is H = P(X') P(X)^-1.
Perturbing both endpoints gives the arrow differential

    dH^I_J = H^I_M Gamma^M_JK(X) dX^K - H^M_J Gamma^I_MK(X') dX'^K

which collapses at a unit (X' = X, H = Id) to Gamma(X) (dX - dX').
For a square of infinitesimal squares the commutation condition reduces
to one linear constraint on the corner displacements:

    B^I_JK (dX^K + dY^K - dZ^K) = 0,     B = Gamma1 - Gamma2.

commutation_residual evaluates the left side; classification of its
kernel reproduces the foliation picture: full kernel means uniform,
kernel dimension m in {1, 2} an m-parameter annihilator of directions,
and a trivial kernel leaves only the double unit.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .fields import FrameField
from .geometry import christoffel
from .linalg3 import (
    DEFAULT_RANK_REL_TOL,
    Mat3,
    Vec3,
    as_vec3,
    contract_ten3_vec,
    invert,
    kernel_of_flattened,
    max_abs,
)
from .measures import CompositeSpec, measure_case1


def arrow_map(field: FrameField, x, x_prime) -> Mat3:
    """Material isomorphism H = P(X') P(X)^-1 between two points."""
    return field.value(x_prime) @ invert(field.value(x))


def arrow_differential(field: FrameField, x, x_prime, dx, dx_prime) -> Mat3:
    """First-order change of the arrow map under endpoint displacements."""
    x = as_vec3(x)
    x_prime = as_vec3(x_prime)
    dx = as_vec3(dx)
    dx_prime = as_vec3(dx_prime)
    h = arrow_map(field, x, x_prime)
    gamma_x = christoffel(field, x).gamma
    gamma_xp = christoffel(field, x_prime).gamma
    term_source = h @ contract_ten3_vec(gamma_x, dx)
    term_target = contract_ten3_vec(gamma_xp, dx_prime) @ h
    return term_source - term_target


@dataclass(frozen=True)
class CommutationResidual:
    residual: Mat3
    dX: Vec3
    dY: Vec3
    dZ: Vec3


def commutation_residual(
    spec: CompositeSpec, point, dx, dy, dz, project_skew: bool = False
) -> CommutationResidual:
    """Linearized commutation defect B (dX + dY - dZ) at a base point.

    A finite square of side h spanned by these displacements has
    commutation defect residual*h + O(h^2). With project_skew the
    residual is projected onto the complement of the skew matrices,
    discarding the first-order freedom of an isotropic component.
    """
    dx = as_vec3(dx)
    dy = as_vec3(dy)
    dz = as_vec3(dz)
    b = measure_case1(spec, point)
    residual = contract_ten3_vec(b, dx + dy - dz)
    if project_skew:
        residual = 0.5 * (residual + residual.T)
    return CommutationResidual(residual, dx, dy, dz)


class InfinitesimalKind(Enum):
    UNIFORM = "uniform"
    ANNIHILATOR = "annihilator"
    ONLY_DOUBLE_UNIT = "only-double-unit"


@dataclass(frozen=True)
class InfinitesimalClassification:
    kind: InfinitesimalKind
    m: int
    basis: np.ndarray  # (m, 3) kernel directions
    abs_floor: float


def infinitesimal_classification(
    spec: CompositeSpec,
    point,
    rel_tol: float = DEFAULT_RANK_REL_TOL,
    project_skew: bool = False,
) -> InfinitesimalClassification:
    """Classify the solution space of the linearized commutation condition.

    The absolute floor 1e-10 * (1 + max|Gamma1| + max|Gamma2|) guards
    the uniform verdict against pure round-off in B.
    """
    p = as_vec3(point)
    gamma1 = christoffel(spec.component1, p).gamma
    gamma2 = christoffel(spec.component2, p).gamma
    b = gamma1 - gamma2
    if project_skew:
        b = 0.5 * (b + b.transpose(1, 0, 2))
    kernel = kernel_of_flattened(b, rel_tol)
    kinds, ms, floors = classify_stack(
        max_abs(gamma1[None]),
        max_abs(gamma2[None]),
        kernel.singular_values[None],
        np.array([kernel.dimension]),
    )
    kind = KINDS[kinds[0]]
    basis = np.eye(3) if kind is InfinitesimalKind.UNIFORM else kernel.basis
    return InfinitesimalClassification(kind, int(ms[0]), basis, float(floors[0]))


KINDS = (
    InfinitesimalKind.UNIFORM,
    InfinitesimalKind.ANNIHILATOR,
    InfinitesimalKind.ONLY_DOUBLE_UNIT,
)


def classify_stack(gamma1_max, gamma2_max, sigma, dims):
    """(kind, m, abs_floor) per node, kind indexing KINDS.

    Inputs per node: the largest entries max|Gamma1| and max|Gamma2|,
    and the singular values (descending) and kernel dimension of the
    defect. The absolute floor 1e-10 * (1 + max|Gamma1| + max|Gamma2|)
    guards the uniform verdict against round-off in B.
    """
    abs_floor = 1e-10 * (1.0 + gamma1_max + gamma2_max)
    uniform = sigma[:, 0] <= abs_floor
    kind = np.where(uniform, 0, np.where(dims == 0, 2, 1))
    return kind, np.where(uniform, 3, dims), abs_floor
