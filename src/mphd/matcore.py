"""Dense-matrix utilities shared by the synthesis and simulation layers.

Conventions used throughout the package:

* complex matrices are plain ``numpy`` arrays (``complex128``);
* diagonal unitaries are stored as read-only phase vectors (:class:`DiagonalUnitary`),
  so every diagonal entry has unit modulus by construction and ``e^{i phi}`` is
  formed once, for a family of branches by one ``np.exp`` per block (square-root
  branches are sign flips of the principal solution in :mod:`mphd.synth`);
* real orthogonal matrices are plain real arrays validated with
  :func:`is_real_orthogonal`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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


def _require_count(**counts) -> None:
    """Refuse a count that is not a Python or numpy integer (``bool`` included)."""
    for name, value in counts.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValidationError(f"{name} must be an integer, got {value!r}")


def _generator(seed, name: str = "seed") -> np.random.Generator:
    """``np.random.default_rng(seed)``; a seed it refuses, or a ``bool``, raises ``ValidationError`` naming ``name``."""
    if not isinstance(seed, bool):
        try:
            return np.random.default_rng(seed)
        except (TypeError, ValueError):
            pass
    raise ValidationError(f"{name} must be a non-negative integer or None, got {seed!r}")


def _unitary_residual(arr: np.ndarray) -> float:
    """``||M^dag M - I||_F`` of a square complex array, summed as ``np.linalg.norm`` sums."""
    gram = (arr.conj().T @ arr).ravel()
    gram[:: len(arr) + 1] -= 1.0
    return float(np.sqrt(gram.real.dot(gram.real) + gram.imag.dot(gram.imag)))


def is_unitary(m, tol: float = DEFAULT_TOL) -> bool:
    """Check ``||M^dag M - I||_F <= tol`` for a square matrix."""
    if not 0 < tol < np.inf:
        raise ValidationError(f"tol must be positive and finite, got {tol}")
    return bool(_unitary_residual(_require_square(as_complex_matrix(m, "matrix"), "matrix")) <= tol)


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


@dataclass(frozen=True, eq=False)
class DiagonalUnitary:
    """Diagonal unitary ``diag(e^{i phi_1}, ..., e^{i phi_N})``.

    Phases are stored as angles in radians rather than complex entries, so
    unit modulus is exact by construction. They are a read-only copy of the
    caller's array, so the unit diagonal ``e^{i phi}`` is formed at most once:
    on first use, or for a whole block of rows by ``_diagonal_rows``.
    """

    phases: np.ndarray

    def __post_init__(self):
        phases = np.array(self.phases, dtype=float, ndmin=1)
        if phases.ndim != 1:
            raise DimensionError("phases must be a 1-D vector of angles")
        if not np.isfinite(phases).all():
            raise ValidationError("phases contain non-finite values")
        phases.flags.writeable = False
        object.__setattr__(self, "phases", phases)

    @cached_property
    def _unit(self) -> np.ndarray:
        """Read-only ``e^{i phi_k}``, formed on first use."""
        unit = np.exp(1j * self.phases)
        unit.flags.writeable = False
        return unit

    @property
    def dim(self) -> int:
        return self.phases.shape[0]

    def diagonal(self) -> np.ndarray:
        """Complex diagonal entries ``e^{i phi_k}``, as a fresh writable array."""
        return self._unit.copy()

    def matrix(self) -> np.ndarray:
        """Dense complex matrix representation."""
        return np.diag(self._unit)

    @classmethod
    def identity(cls, n: int) -> "DiagonalUnitary":
        return cls(np.zeros(n))


def _frozen_instances(cls, count: int, **columns) -> list:
    """``count`` instances of the frozen dataclass ``cls``, one column per attribute, without __init__."""
    names, columns = list(columns), [iter(column) for column in columns.values()]
    # the first is complete before the rest exist, so all share its keys (compact instance dicts)
    first = object.__new__(cls)
    for name, column in zip(names, columns):
        object.__setattr__(first, name, next(column))
    rest = [object.__new__(cls) for _ in range(count - 1)]
    for name, column in zip(names, columns):
        list(map(object.__setattr__, rest, repeat(name), column))
    return [first, *rest]


def _diagonal_rows(phases: np.ndarray) -> list[DiagonalUnitary]:
    """One :class:`DiagonalUnitary` per row of a 2-D block: one finite check and one ``np.exp``."""
    if not np.isfinite(phases).all():
        raise ValidationError("phases contain non-finite values")
    unit = np.exp(1j * phases)
    phases.flags.writeable = unit.flags.writeable = False  # the rows share both blocks
    return _frozen_instances(DiagonalUnitary, len(phases), phases=phases, _unit=unit)


def procrustes_best_orthogonal(b) -> np.ndarray:
    """Orthogonal matrix maximizing ``trace(O B)``, or one per matrix of a ``(..., n, n)`` stack.

    With the singular decomposition ``B = P S Q^T`` the maximizer is
    ``O = Q P^T`` and the achieved trace equals the sum of singular values.
    The result may have determinant +1 or -1. ``solve_approx`` passes its lockstep restarts
    as one stack: one SVD and one product call, each matrix bit for bit as if alone.
    """
    arr = np.asarray(b, dtype=float)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise DimensionError(f"expected a square real matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError("matrix contains non-finite entries")
    p, _, qt = np.linalg.svd(arr)
    return qt.swapaxes(-1, -2) @ p.swapaxes(-1, -2)
