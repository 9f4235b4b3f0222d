"""Dense-matrix utilities shared by the synthesis and simulation layers.

Conventions used throughout the package:

* complex matrices are plain ``numpy`` arrays (``complex128``);
* diagonal unitaries are stored as phase vectors (:class:`DiagonalUnitary`),
  so every diagonal entry has unit modulus by construction (square-root
  branches are sign flips of the principal solution in :mod:`mphd.synth`);
* real orthogonal matrices are plain real arrays validated with
  :func:`is_real_orthogonal`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import repeat

import numpy as np

from .errors import DimensionError, ValidationError

#: Default tolerance for structure checks on analytically exact inputs.
DEFAULT_TOL = 1e-9


def as_complex_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce ``m`` to a 2-D complex array with finite entries."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def _require_square(m: np.ndarray, name: str) -> np.ndarray:
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {m.shape}")
    return m


def is_unitary(m, tol: float = DEFAULT_TOL) -> bool:
    """Check ``||M^dag M - I||_F <= tol`` for a square matrix."""
    if not 0 < tol < np.inf:
        raise ValidationError(f"tol must be positive and finite, got {tol}")
    arr = _require_square(as_complex_matrix(m, "matrix"), "matrix")
    n = arr.shape[0]
    return bool(np.linalg.norm(arr.conj().T @ arr - np.eye(n)) <= tol)


def is_real_orthogonal(m, tol: float = DEFAULT_TOL) -> bool:
    """Check that ``m`` is real (entrywise within ``tol``) and orthogonal.

    Orthogonality is measured as ``||Re(M)^T Re(M) - I||_F <= tol``; the
    determinant may be +1 or -1.
    """
    arr = _require_square(as_complex_matrix(m, "matrix"), "matrix")
    if np.abs(arr.imag).max(initial=0.0) > tol:
        return False
    r = arr.real
    n = r.shape[0]
    return bool(np.linalg.norm(r.T @ r - np.eye(n)) <= tol)


def frobenius_distance(m1, m2) -> float:
    """Frobenius distance ``||M1 - M2||_F`` between same-shape matrices."""
    a = as_complex_matrix(m1, "m1")
    b = as_complex_matrix(m2, "m2")
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def symplectic_from_unitary(u) -> np.ndarray:
    """Symplectic quadrature matrix ``[[X, -Y], [Y, X]]`` of a mode unitary ``U = X + iY``."""
    arr = as_complex_matrix(u, "u")
    if not is_unitary(arr, 1e-8):
        raise ValidationError("mode transformation must be unitary")
    x, y = arr.real, arr.imag
    return np.concatenate((np.concatenate((x, -y), 1), np.concatenate((y, x), 1)))


def wrap_angle(phi):
    """Wrap angles to the principal interval ``(-pi, pi]``."""
    w = np.mod(np.asarray(phi, dtype=float), 2 * np.pi)
    return np.where(w > np.pi, w - 2 * np.pi, w)


@dataclass(frozen=True)
class DiagonalUnitary:
    """Diagonal unitary ``diag(e^{i phi_1}, ..., e^{i phi_N})``.

    Phases are stored as angles in radians rather than complex entries, so
    unit modulus is exact by construction.
    """

    phases: np.ndarray = field()

    def __post_init__(self):
        phases = np.atleast_1d(np.asarray(self.phases, dtype=float))
        if phases.ndim != 1:
            raise DimensionError("phases must be a 1-D vector of angles")
        if not np.isfinite(phases).all():
            raise ValidationError("phases contain non-finite values")
        object.__setattr__(self, "phases", phases)

    @property
    def dim(self) -> int:
        return self.phases.shape[0]

    def diagonal(self) -> np.ndarray:
        """Complex diagonal entries ``e^{i phi_k}``."""
        return np.exp(1j * self.phases)

    def matrix(self) -> np.ndarray:
        """Dense complex matrix representation."""
        return np.diag(self.diagonal())

    @classmethod
    def identity(cls, n: int) -> "DiagonalUnitary":
        return cls(np.zeros(n))


def _frozen_instances(cls, count: int, *columns) -> list:
    """``count`` instances of the frozen dataclass ``cls``, one column per field, without __init__."""
    names, columns = [f.name for f in fields(cls)], [iter(column) for column in columns]
    # the first is complete before the rest exist, so all share its keys (compact instance dicts)
    first = object.__new__(cls)
    for name, column in zip(names, columns):
        object.__setattr__(first, name, next(column))
    rest = [object.__new__(cls) for _ in range(count - 1)]
    for name, column in zip(names, columns):
        list(map(object.__setattr__, rest, repeat(name), column))
    return [first, *rest]


def _diagonal_rows(phases: np.ndarray) -> list[DiagonalUnitary]:
    """One :class:`DiagonalUnitary` per row of a 2-D block, checked for finite values once."""
    if not np.isfinite(phases).all():
        raise ValidationError("phases contain non-finite values")
    return _frozen_instances(DiagonalUnitary, len(phases), phases)


def procrustes_best_orthogonal(b) -> np.ndarray:
    """Orthogonal matrix maximizing ``trace(O B)``.

    With the singular decomposition ``B = P S Q^T`` the maximizer is
    ``O = Q P^T`` and the achieved trace equals the sum of singular values.
    The result may have determinant +1 or -1.
    """
    arr = np.asarray(b, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"expected a square real matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError("matrix contains non-finite entries")
    p, _, qt = np.linalg.svd(arr)
    return qt.T @ p.T
