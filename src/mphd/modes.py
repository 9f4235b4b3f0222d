"""Mode bases, pixel partitions, and the detection front end.

The detector coordinate is the unit interval [0, 1]: every overlap is an
integral of normalized modes, so no result depends on a unit of length. Mode
functions live on ``grid_points`` uniform cells of it and are read as
constant on each cell. Integrals are sums over cells weighted by the share of
each cell that lies in the integration range, so they are exact for such
step functions wherever the pixel edges fall. A flip basis has one cell per
segment, and pixel boundaries are fractions of the detector.

The front end's only default lives here: zero OPO dephasings. A mode file is
plain text: a ``domain_min domain_max grid_points`` header, then one row of
samples per cell; the header's interval only normalizes the samples, which
are rescaled onto [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    SingularPixelError,
    ValidationError,
)
from .matcore import DiagonalUnitary

#: Most flip modes :func:`flip_mode_basis` builds; its pattern matrix grows as N^2.
_MAX_FLIP_MODES = 64
#: How far a partition's outer boundaries may sit from the detector's ends, 0 and 1.
_COVER_TOL = 1e-9
#: Largest Gram-matrix deviation from the identity a loaded mode file may have.
_ORTHONORMAL_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class ModeBasis:
    """A set of orthonormal mode functions, constant on the cells of a uniform grid of [0, 1].

    ``samples[k, i]`` is the value of mode ``k`` on grid cell ``i``. Modes are
    expected to be pairwise orthonormal as such step functions;
    :meth:`orthonormality_residual` measures the deviation.
    """

    samples: np.ndarray

    def __post_init__(self):
        samples = np.atleast_2d(np.asarray(self.samples))
        if not np.isfinite(samples).all():
            raise ValidationError("mode samples contain non-finite values")
        object.__setattr__(self, "samples", samples)

    @property
    def n_modes(self) -> int:
        return self.samples.shape[0]

    @property
    def grid_points(self) -> int:
        return self.samples.shape[1]

    @property
    def cell_width(self) -> float:
        return 1 / self.grid_points

    def gram(self) -> np.ndarray:
        # huge samples overflow to an inf/nan residual, which the orthonormality check names
        with np.errstate(over="ignore", invalid="ignore"):
            return (self.cell_width * np.conj(self.samples)) @ self.samples.T

    def orthonormality_residual(self) -> float:
        return float(np.abs(self.gram() - np.eye(self.n_modes)).max())


def _sequency_walsh_patterns(n_modes: int) -> np.ndarray:
    """First ``n_modes`` sign patterns; pattern ``k`` has ``k`` sign changes.

    Built by doubling: pattern ``w_k`` on ``m`` segments gives
    ``[w_k, (-1)^k w_k]`` and ``[w_k, -(-1)^k w_k]`` on ``2m``, the patterns
    with ``2k`` and ``2k + 1`` flips. The sign of each pattern is then fixed to
    be positive at the detector center (or at the left edge when the pattern
    flips exactly at the center), matching the four-mode square-profile
    example this library reproduces.
    """
    patterns = np.ones((1, 1))
    while len(patterns) < n_modes:
        tail = patterns * (-1.0) ** np.arange(len(patterns))[:, None]
        pairs = np.stack([np.hstack([patterns, tail]), np.hstack([patterns, -tail])], axis=1)
        patterns = pairs.reshape(2 * len(patterns), -1)
    patterns = patterns[:n_modes]
    mid = patterns.shape[1] // 2
    centered = patterns[:, mid - 1] == patterns[:, mid]
    return patterns * np.where(centered, patterns[:, mid], patterns[:, 0])[:, None]


def flip_mode_basis(n_modes: int) -> ModeBasis:
    """Square-profile mode family: mode ``n`` has ``n - 1`` sign flips.

    Mode 1 is flat (the local oscillator of the worked four-mode example);
    mode ``n`` is a constant-magnitude profile with ``n - 1`` flips on
    ``2^ceil(log2 N)`` equal segments, one grid cell each. All modes are
    normalized and pairwise orthogonal. At most ``_MAX_FLIP_MODES`` modes.
    """
    if not 1 <= n_modes <= _MAX_FLIP_MODES:
        raise ValidationError(f"need 1 to {_MAX_FLIP_MODES} flip modes, got {n_modes}")
    return ModeBasis(_sequency_walsh_patterns(n_modes))


@dataclass(frozen=True, eq=False)
class PixelPartition:
    """Contiguous, non-overlapping pixels covering the detector; boundaries are fractions of it."""

    boundaries: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.boundaries, dtype=float)
        if b.ndim != 1 or b.size < 2:
            raise DimensionError("boundaries must be a vector of at least two reals")
        if not np.all(np.diff(b) > 0):
            raise ValidationError("pixel boundaries must be strictly increasing")
        object.__setattr__(self, "boundaries", b)

    @classmethod
    def equal(cls, count: int) -> "PixelPartition":
        if count < 1:
            raise ValidationError(f"need at least one pixel, got {count}")
        return cls(np.linspace(0.0, 1.0, count + 1))


def _pixel_shares(basis: ModeBasis, partition: PixelPartition) -> np.ndarray:
    """(P, M) share of each grid cell that lies in each pixel; the pixels must span [0, 1]."""
    b = partition.boundaries
    if not np.abs(b[[0, -1]] - (0.0, 1.0)).max() <= _COVER_TOL:
        raise ValidationError(f"partition {b[[0, -1]]} does not cover the detector [0, 1]")
    b = b.copy()
    b[[0, -1]] = (0.0, 1.0)
    e = np.linspace(0.0, 1.0, basis.grid_points + 1)
    overlap = np.minimum(e[None, 1:], b[1:, None]) - np.maximum(e[None, :-1], b[:-1, None])
    return np.clip(overlap, 0.0, None) / basis.cell_width


def pixel_modes(basis: ModeBasis, lo_index: int, partition: PixelPartition):
    """Slices of the local oscillator restricted to each pixel.

    Pixel mode ``i`` equals ``kappa_i * u_LO`` on pixel ``i`` and zero
    elsewhere, with ``kappa_i`` normalizing it to unit norm. Distinct pixel
    modes are orthogonal because their supports are disjoint.

    Returns
    -------
    (modes, kappa)
        ``modes`` is a (P, M) array holding each pixel mode's mean over each
        grid cell (a cell cut by a pixel edge gets its share of ``u_LO``);
        ``kappa`` the vector of normalization constants.
    """
    if not 0 <= lo_index < basis.n_modes:
        raise DimensionError(f"lo_index {lo_index} out of range for {basis.n_modes} modes")
    u_lo = basis.samples[lo_index]
    shares = _pixel_shares(basis, partition)
    power = (basis.cell_width * shares) @ np.abs(u_lo) ** 2
    if np.any(power <= 1e-15):
        bad = int(np.argmin(power))
        raise SingularPixelError(
            f"pixel {bad} carries no local-oscillator intensity; kappa undefined"
        )
    kappa = 1.0 / np.sqrt(power)
    modes = kappa[:, None] * (shares * u_lo[None, :])
    return modes, kappa


@dataclass(frozen=True, eq=False)
class DetectionSetup:
    """The physical front end: detection matrix, input dephasings, and G.

    ``u_t[i, j] = kappa_i int_{S_i} u_LO^* u_j`` is the overlap of pixel mode
    ``i`` (see :func:`pixel_modes`) with mode ``j``, exact for modes constant on
    their cells; square, with pixel modes spanning the basis, it is unitary to
    rounding.
    Invariant: ``g == u_t . conj(delta_opo)`` by construction.
    """

    u_t: np.ndarray
    delta_opo: DiagonalUnitary
    g: np.ndarray


def detection_setup(
    basis: ModeBasis,
    lo_index: int,
    partition: PixelPartition,
    opo_phases=None,
) -> DetectionSetup:
    """Assemble a :class:`DetectionSetup` from a basis, partition and dephasings.

    ``opo_phases`` defaults to no dephasing (all zero), one per mode.
    """
    pixel, _ = pixel_modes(basis, lo_index, partition)
    u_t = (basis.cell_width * np.conj(pixel)) @ basis.samples.T
    delta_opo = DiagonalUnitary(np.zeros(basis.n_modes) if opo_phases is None else opo_phases)
    if delta_opo.dim != basis.n_modes:
        raise DimensionError(f"{delta_opo.dim} dephasings given for {basis.n_modes} modes")
    g = u_t * np.conj(delta_opo.diagonal())[None, :]
    return DetectionSetup(u_t=u_t, delta_opo=delta_opo, g=g)


def save_mode_basis(basis: ModeBasis, path) -> None:
    """Write a basis as plain text: header row ``0.0 1.0 grid_points``, then one mode per column."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("# mode basis: <domain_min> <domain_max> <grid_points>, one mode per column\n")
        fh.write(f"0.0 1.0 {basis.grid_points}\n")
        kind = complex if np.iscomplexobj(basis.samples) else float
        for row in basis.samples.T:
            fh.write(" ".join(repr(kind(v)).strip("()") for v in row) + "\n")


def load_mode_basis(path) -> ModeBasis:
    """Read a basis written by :func:`save_mode_basis` (or by hand).

    Blank lines and lines starting with ``#`` are skipped. The first row is
    ``domain_min domain_max grid_points``; each of the ``grid_points`` later
    rows holds one sample per mode, read by ``np.loadtxt`` as real (``0.5``)
    or complex (``0.5+0.1j``). Each sample is the mode's value on the whole of
    its cell, one of ``grid_points`` equal cells over the header's interval, not
    a point value. The interval must be finite and non-empty; the samples,
    normalized on it, are rescaled by ``sqrt(domain_max - domain_min)`` onto
    [0, 1]. Orthonormality is checked to ``_ORTHONORMAL_TOL``.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = [line for line in map(str.strip, fh) if line and not line.startswith("#")]
    if not lines:
        raise ValidationError("basis file has no header row")
    rows = lines[1:]
    try:
        lo, hi, m = lines[0].split()
        lo, hi, m = float(lo), float(hi), int(m)
    except ValueError:
        raise ValidationError(
            f"header must be 'domain_min domain_max grid_points', got {lines[0]!r}"
        ) from None
    if not np.isfinite(hi - lo) or hi <= lo:
        raise ValidationError(f"header interval [{lo}, {hi}] is empty or not finite")
    if m < 1 or len(rows) != m:
        raise ValidationError(f"header promises {m} grid rows, file has {len(rows)}")
    try:
        samples = np.loadtxt(rows, dtype=complex, ndmin=2).T
    except ValueError as exc:
        raise ValidationError(f"basis rows are unparseable or ragged: {exc}") from exc
    if np.abs(samples.imag).max(initial=0.0) == 0.0:
        samples = samples.real
    with np.errstate(over="ignore"):  # a sample pushed past float64 is named non-finite
        basis = ModeBasis(samples * np.sqrt(hi - lo))
    resid = basis.orthonormality_residual()
    if not resid <= _ORTHONORMAL_TOL:
        raise ValidationError(
            f"modes in {path} are not orthonormal (residual {resid:.2e} > {_ORTHONORMAL_TOL:.2e})"
        )
    return basis
