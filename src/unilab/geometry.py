"""Differential geometry of a single frame field.

A frame field P induces a distant parallelism. Its material connection
has Christoffel symbols

    Gamma^I_JK = -P^I_alpha,K * Pinv^alpha_J = P^I_alpha * Pinv^alpha_J,K

where Pinv is the pointwise inverse of P (archetype index up). The two
published forms are tied by the product rule on P Pinv = Id; the library
computes the first (frame-derivative) contraction and exposes the
inverse-derivative contraction as an independent cross-check. The
connection is flat (zero curvature) but in general has torsion. The
induced metric is g = (P P^T)^-1, equivalently g_IJ = Pinv^a_I Pinv^a_J.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expressions as ex
from .errors import merge_failures, raise_first
from .fields import AnalyticFrameField, FrameField, SampledFrameField, VectorField
from .linalg3 import Mat3, Ten3, Vec3, as_vec3, at_point


@dataclass(frozen=True)
class ConnectionValue:
    gamma: Ten3            # gamma[i, j, k] = Gamma^I_JK
    point: Vec3


@dataclass(frozen=True)
class TorsionValue:
    tau: Ten3              # tau[i, j, k] = Gamma^I_JK - Gamma^I_KJ
    point: Vec3


@dataclass(frozen=True)
class MetricValue:
    g: Mat3                # symmetric positive definite
    point: Vec3


def christoffel_stack(field: FrameField, points) -> tuple[np.ndarray, dict]:
    """Gamma (N, 3, 3, 3) at the rows of an (N, 3) point array, and the per-node failures."""
    value, deriv, failures = field.jet_stack(points)
    return -np.einsum("niak,naj->nijk", deriv, np.linalg.inv(value)), failures


def christoffel(field: FrameField, point) -> ConnectionValue:
    """Christoffel symbols Gamma^I_JK = -P^I_a,K Pinv^a_J of the material connection."""
    p = as_vec3(point)
    return ConnectionValue(at_point(p, christoffel_stack, field)[0], p)


def christoffel_first_form(field: FrameField, point) -> Ten3:
    """Cross-check route Gamma^I_JK = P^I_a Pinv^a_J,K.

    The inverse components are differentiated directly: symbolically via
    the adjugate for analytic fields, by grid stencils on the pointwise
    inverse for sampled fields. Up to round-off this must agree with
    christoffel().
    """
    p = as_vec3(point)
    if isinstance(field, AnalyticFrameField):
        value = field.value(p)
        dinv = np.array(
            [[[ex.call_compiled(fn, p) for fn in row] for row in rows]
             for rows in field.inverse_derivative_fns]
        )
    elif isinstance(field, SampledFrameField):
        value = field.value(p)
        _, dinv = field.inverse_field.jet(p)
    else:
        raise TypeError(f"not a frame field: {field!r}")
    return np.einsum("ia,ajk->ijk", value, dinv)


def torsion(connection: ConnectionValue) -> TorsionValue:
    """Torsion of the material connection; exactly antisymmetric in the lower slots."""
    gamma = connection.gamma
    return TorsionValue(gamma - gamma.transpose(0, 2, 1), connection.point)


def metric_stack(field: FrameField, points) -> tuple[np.ndarray, dict]:
    """Metric (N, 3, 3) at the rows of an (N, 3) point array, and the per-node failures.

    The frame's full jet is evaluated, so derivative failures count too.
    """
    value, _, failures = field.jet_stack(points)
    pinv = np.linalg.inv(value)
    g = pinv.transpose(0, 2, 1) @ pinv
    return 0.5 * (g + g.transpose(0, 2, 1)), failures


def metric(field: FrameField, point) -> MetricValue:
    """Material metric g = (P P^T)^-1, symmetrized against round-off."""
    p = as_vec3(point)
    return MetricValue(at_point(p, metric_stack, field)[0], p)


def covariant_derivative_stack(director: VectorField, field: FrameField, points):
    """grad n (N, 3, 3) at the rows of an (N, 3) point array, and the per-node failures."""
    n, dn, failures = director.jet_stack(points)
    gamma, gamma_failures = christoffel_stack(field, points)
    merge_failures(failures, gamma_failures)
    return dn + np.einsum("nimk,nm->nik", gamma, n), failures


def covariant_derivative(director: VectorField, field: FrameField, point) -> Mat3:
    """(grad n)^I_K = n^I,K + Gamma^I_MK n^M with the connection of the given frame."""
    return at_point(point, covariant_derivative_stack, director, field)[0]


def curvature_residual(field: FrameField, point, h: float) -> float:
    """Max-entry curvature of the material connection, via central differences.

    R^I_JKL = Gamma^I_JL,K - Gamma^I_JK,L
            + Gamma^I_MK Gamma^M_JL - Gamma^I_ML Gamma^M_JK

    Distant parallelism is flat, so this is a pure discretization
    residual: it decays at 2nd order in h for smooth analytic fields and
    is exactly zero for a constant frame.
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    p = as_vec3(point)
    probes = [p]
    for step in np.eye(3) * h:
        probes += [p + step, p - step]
    gammas, failures = christoffel_stack(field, np.array(probes))
    raise_first(failures)
    gamma = gammas[0]
    # dgamma[i, j, k, l] = d Gamma^I_JK / d x<l+1>
    dgamma = ((gammas[1::2] - gammas[2::2]) / (2.0 * h)).transpose(1, 2, 3, 0)
    quad = np.einsum("imk,mjl->ijkl", gamma, gamma)
    riemann = (
        dgamma.transpose(0, 1, 3, 2)  # Gamma^I_JL,K
        - dgamma                      # Gamma^I_JK,L
        + quad
        - quad.transpose(0, 1, 3, 2)
    )
    return float(np.max(np.abs(riemann)))
