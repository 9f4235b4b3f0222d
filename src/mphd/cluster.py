"""Cluster-state unitaries from graph adjacency matrices.

A graph with symmetric adjacency ``V`` (zero diagonal) defines a family of
unitaries ``U = X + iY`` subject to ``Y = VX``, ``XX^T + YY^T = I``,
``X^T Y = Y^T X`` and ``X Y^T = Y X^T``. Writing ``A = XX^T`` reduces the
constraints to ``VAV = I - A``. One eigendecomposition ``V = W Lambda W^T``
gives its minimum-norm solution ``A = W (I + Lambda^2)^-1 W^T = (I + V^2)^-1``
and the symmetric root ``X_s = W (I + Lambda^2)^(-1/2) W^T``, both positive
definite for every finite symmetric ``V``. Every solution is
``U = (I + iV) X_s O`` with ``O`` an arbitrary real orthogonal freedom
(van Loock, Weedbrook & Gu, PRA 76, 032321 (2007)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ValidationError
from .matcore import _require_count, as_complex_matrix, is_real_orthogonal

#: Asymmetry and negative eigenvalue :func:`symmetric_x` forgives in its input.
_SYMMETRY_TOL = 1e-10

#: Largest residual of the five conditions :func:`validate_cluster` passes.
_CLUSTER_TOL = 1e-9


def validate_adjacency(v) -> np.ndarray:
    """Coerce and validate a real symmetric zero-diagonal adjacency matrix."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise DimensionError(
            f"adjacency matrix must be square and non-empty, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValidationError("adjacency matrix contains non-finite entries")
    if np.abs(arr - arr.T).max(initial=0.0) > 1e-12:
        raise ValidationError("adjacency matrix must be symmetric")
    if np.abs(np.diag(arr)).max(initial=0.0) > 1e-12:
        raise ValidationError("adjacency matrix must have zero diagonal")
    return arr


def path_adjacency(n: int) -> np.ndarray:
    """Adjacency matrix of the n-vertex path graph with unit edge weights."""
    _require_count(n=n)
    if n < 1:
        raise ValidationError(f"need at least one vertex, got {n}")
    v = np.zeros((n, n))
    idx = np.arange(n - 1)
    v[idx, idx + 1] = 1.0
    v[idx + 1, idx] = 1.0
    return v


@dataclass(frozen=True, eq=False)
class ClusterSolution:
    """One member of the solution family for a given graph.

    ``x_s`` is the symmetric root of ``a``; ``x = x_s @ orthogonal_freedom``.
    """

    a: np.ndarray
    x: np.ndarray
    y: np.ndarray
    u: np.ndarray
    orthogonal_freedom: np.ndarray
    x_s: np.ndarray


@dataclass(frozen=True)
class ClusterValidation:
    """Per-condition residuals of the cluster constraint set."""

    passed: bool
    residuals: dict[str, float]


def _gain_factor(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``B = W (I + Lambda^2)^(-1/2)`` and ``W`` from ``V = W Lambda W^T``."""
    lam, w = np.linalg.eigh(arr)
    return w / np.sqrt(1.0 + lam**2)[None, :], w


def solve_a(v) -> np.ndarray:
    """Minimum-norm gain matrix ``A = W (I + Lambda^2)^-1 W^T`` of ``VAV = I - A``.

    With ``V = W Lambda W^T``, ``vec(I) = sum_k w_k (x) w_k`` lies in the
    eigenspaces of ``V (x) V + I`` with eigenvalues ``1 + lambda_k^2 >= 1``, so
    the minimum-norm solution of ``(V (x) V + I) vec(A) = vec(I)`` is exact and
    positive definite (van Loock, Weedbrook & Gu, PRA 76, 032321 (2007)).
    """
    b, _ = _gain_factor(validate_adjacency(v))
    return b @ b.T


def symmetric_x(a) -> np.ndarray:
    """Principal symmetric PSD square root of ``a``, symmetric and PSD to ``_SYMMETRY_TOL``."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {arr.shape}")
    if np.abs(arr - arr.T).max(initial=0.0) > _SYMMETRY_TOL:
        raise ValidationError("matrix must be symmetric")
    eigvals, eigvecs = np.linalg.eigh(arr)
    if eigvals.min() < -_SYMMETRY_TOL:
        raise ValidationError(f"matrix is not PSD (min eigenvalue {eigvals.min():.2e})")
    eigvals = np.clip(eigvals, 0.0, None)
    return (eigvecs * np.sqrt(eigvals)[None, :]) @ eigvecs.T


def cluster_unitary(v, freedom=None) -> ClusterSolution:
    """Build a cluster-state unitary for graph ``v``.

    ``freedom`` selects a member of the solution family ``U = (I + iV) X_s O``
    (default: identity, yielding the symmetric solution). ``A`` and ``X_s``
    come from one eigendecomposition of ``V``, as in :func:`solve_a`.
    """
    arr = validate_adjacency(v)
    n = arr.shape[0]
    b, w = _gain_factor(arr)
    a, x_s = b @ b.T, b @ w.T
    if freedom is None:
        free = np.eye(n)
    else:
        free = np.asarray(freedom, dtype=float)
        if free.shape != (n, n):
            raise DimensionError(f"freedom must be {n}x{n}, got {free.shape}")
        if not is_real_orthogonal(free, 1e-9):
            raise ValidationError("freedom matrix is not real orthogonal")
    x = x_s @ free
    y = arr @ x
    return ClusterSolution(a=a, x=x, y=y, u=x + 1j * y, orthogonal_freedom=free, x_s=x_s)


def validate_cluster(u, v) -> ClusterValidation:
    """Check the five cluster conditions for ``u`` against graph ``v`` to ``_CLUSTER_TOL``."""
    arr = validate_adjacency(v)
    um = as_complex_matrix(u, "u")
    if um.shape != arr.shape:
        raise DimensionError(f"shape mismatch: u {um.shape} vs adjacency {arr.shape}")
    x, y = um.real, um.imag
    eye = np.eye(arr.shape[0])
    residuals = {
        "y_equals_vx": float(np.abs(y - arr @ x).max()),
        "xxT_plus_yyT_equals_i": float(np.abs(x @ x.T + y @ y.T - eye).max()),
        "xTy_symmetric": float(np.abs(x.T @ y - y.T @ x).max()),
        "xyT_symmetric": float(np.abs(x @ y.T - y @ x.T).max()),
        "unitary": float(np.linalg.norm(um.conj().T @ um - eye)),
    }
    return ClusterValidation(
        passed=bool(max(residuals.values()) <= _CLUSTER_TOL),
        residuals=residuals,
    )


def linear_cluster_3() -> np.ndarray:
    """Generator of the three-mode linear (path) cluster used by the gate programs."""
    s2, s3, s6 = np.sqrt(2.0), np.sqrt(3.0), np.sqrt(6.0)
    return np.array(
        [
            [0.0, -np.sqrt(2.0 / 3.0), -1j / s3],
            [-1j / s2, -1j / s6, -1.0 / s3],
            [-1.0 / s2, 1.0 / s6, -1j / s3],
        ]
    )


def linear_cluster_4() -> np.ndarray:
    """Generator of the four-mode linear (path) cluster state."""
    s2, s10 = np.sqrt(2.0), np.sqrt(10.0)
    return np.array(
        [
            [1 / s2, 1 / s10, 2j / s10, 0.0],
            [1j / s2, -1j / s10, 2 / s10, 0.0],
            [0.0, -2 / s10, 1j / s10, 1j / s2],
            [0.0, -2j / s10, -1 / s10, 1 / s2],
        ]
    )
