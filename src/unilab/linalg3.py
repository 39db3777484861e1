"""Dense kernels for 3-vectors, 3x3 matrices, and 3x3x3 tensors.

Everything is a float64 numpy array. The inversion guard and the kernel
rank tolerance are explicit so that callers share one notion of "zero".
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NonFiniteError, SingularMatrixError, raise_first

Vec3 = np.ndarray
Mat3 = np.ndarray
Ten3 = np.ndarray

DEFAULT_RANK_REL_TOL = 1e-8
# Max-entry distance within which two 3x3 maps are the same groupoid arrow
# or matrix group element.
DEFAULT_ARROW_TOL = 1e-9


def _as_array(values, shape, label: str) -> np.ndarray:
    a = np.asarray(values, dtype=float)
    if a.shape != shape:
        raise ValueError(f"{label} must have shape {shape}, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteError(f"{label} has non-finite entries")
    return a


def as_vec3(values) -> Vec3:
    return _as_array(values, (3,), "vec3")


def as_mat3(values) -> Mat3:
    return _as_array(values, (3, 3), "mat3")


def as_ten3(values) -> Ten3:
    return _as_array(values, (3, 3, 3), "ten3")


def as_points(values) -> np.ndarray:
    """An (N, 3) stack of finite points."""
    a = np.asarray(values, dtype=float)
    if a.ndim != 2 or a.shape[1] != 3:
        raise ValueError(f"points must have shape (N, 3), got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteError("points have non-finite entries")
    return a


def fill_rows(stack: np.ndarray, nodes, value) -> np.ndarray:
    """Set the rows of a stack at the given node numbers, if any, to value."""
    if nodes:
        stack[list(nodes)] = value
    return stack


def at_point(point, stack_fn, *args) -> tuple:
    """Call stack_fn(*args, points) on one point; its rows there, or its error.

    stack_fn returns (array, ..., failures) over a stack of points; see
    errors.merge_failures.
    """
    *arrays, failures = stack_fn(*args, as_vec3(point)[None])
    raise_first(failures)
    return tuple(a[0] for a in arrays)


def singular_tolerance(m):
    """Scale-aware determinant guard: 1e-12 * (max absolute entry)**3.

    Works on one matrix or on a stack of them (one guard per matrix).
    """
    scale = np.abs(m).max(axis=(-2, -1))
    return 1e-12 * (scale * scale * scale)


def _guarded_det(m):
    """det(m) and |det| <= singular_tolerance(m), quietly: an overflowing guard means singular."""
    with np.errstate(over="ignore"):
        det = np.linalg.det(m)
        return det, np.abs(det) <= singular_tolerance(m)


def is_singular(m):
    """invert's singularity test, on one matrix or on a stack of them."""
    return _guarded_det(m)[1]


def invert(m: Mat3) -> Mat3:
    """Inverse of a 3x3 matrix, guarded by ``singular_tolerance``."""
    m = as_mat3(m)
    det, singular = _guarded_det(m)
    if singular:
        raise SingularMatrixError(f"determinant {float(det):.3e} below singularity guard")
    return np.linalg.inv(m)


def max_abs(stack: np.ndarray) -> np.ndarray:
    """Largest absolute entry of each array in an (N, ...) stack."""
    return np.abs(stack.reshape(len(stack), -1)).max(axis=1)


def contract_ten3_vec(b: Ten3, v: Vec3) -> Mat3:
    """Contraction on the last slot: (B v)^I_J = B^I_JK v^K."""
    return np.einsum("ijk,k->ij", as_ten3(b), as_vec3(v))


class KernelResult(NamedTuple):
    dimension: int
    basis: np.ndarray            # (dimension, 3), orthonormal rows
    singular_values: np.ndarray  # (3,), descending


def kernel_of_flattened(b: Ten3, rel_tol: float = DEFAULT_RANK_REL_TOL) -> KernelResult:
    """Null space of v -> B v via the 9x3 flattening M[(3I+J), K] = B^I_JK.

    A singular value sigma counts as zero when sigma <= rel_tol * sigma_max.
    The zero tensor has sigma_max = 0 and full kernel; its basis is the
    standard basis.
    """
    _check_rel_tol(rel_tol)
    b = as_ten3(b)
    _, sigma, vh = np.linalg.svd(b.reshape(9, 3))
    dim = int(_kernel_dimension(sigma, rel_tol))
    basis = vh[3 - dim:].copy() if dim > 0 else np.zeros((0, 3))
    return KernelResult(dim, basis, sigma.copy())


def kernel_stack(b: np.ndarray, rel_tol: float = DEFAULT_RANK_REL_TOL):
    """Singular values (N, 3) and kernel dimensions (N,) of a finite (N, 3, 3, 3) stack.

    The same flattening and rank rule as kernel_of_flattened. No kernel
    bases are returned, so the SVD builds no U or V stacks.
    """
    _check_rel_tol(rel_tol)
    sigma = np.linalg.svd(b.reshape(-1, 9, 3), compute_uv=False)
    return sigma, _kernel_dimension(sigma, rel_tol)


def _check_rel_tol(rel_tol: float) -> None:
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")


def _kernel_dimension(sigma: np.ndarray, rel_tol: float) -> np.ndarray:
    # All three values are zero when sigma_max is, so the zero tensor
    # counts a full kernel without a special case.
    return np.count_nonzero(sigma <= rel_tol * sigma[..., :1], axis=-1)
