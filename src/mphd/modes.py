"""Mode bases, pixel partitions, and the detection front end.

All mode functions live on a 1-D detector coordinate interval and are stored
sampled at the midpoints of a uniform grid; integrals are composite midpoint
sums, which are exact for step functions whose jumps sit on cell edges.

Front-end defaults live here: a :data:`DEFAULT_GRID_POINTS` grid over
:data:`DEFAULT_DOMAIN` and zero OPO dephasings. A mode file is plain text: a
``domain_min domain_max grid_points`` header, then one row of samples per cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionError,
    ResolutionError,
    SingularPixelError,
    ValidationError,
)
from .matcore import DiagonalUnitary, as_complex_matrix

DEFAULT_GRID_POINTS = 4096
DEFAULT_DOMAIN = (0.0, 1.0)


@dataclass(frozen=True)
class ModeBasis:
    """A set of orthonormal mode functions sampled on a uniform grid.

    ``samples[k, i]`` is mode ``k`` evaluated at the midpoint of grid cell
    ``i``. Modes are expected to be pairwise orthonormal under the midpoint
    quadrature rule; :meth:`orthonormality_residual` measures the deviation.
    """

    domain: tuple[float, float]
    samples: np.ndarray = field()

    def __post_init__(self):
        samples = np.atleast_2d(np.asarray(self.samples))
        lo, hi = float(self.domain[0]), float(self.domain[1])
        if hi <= lo:
            raise ValidationError(f"empty domain [{lo}, {hi}]")
        if not np.isfinite(samples).all():
            raise ValidationError("mode samples contain non-finite values")
        object.__setattr__(self, "domain", (lo, hi))
        object.__setattr__(self, "samples", samples)

    @property
    def n_modes(self) -> int:
        return self.samples.shape[0]

    @property
    def grid_points(self) -> int:
        return self.samples.shape[1]

    @property
    def cell_width(self) -> float:
        lo, hi = self.domain
        return (hi - lo) / self.grid_points

    def midpoints(self) -> np.ndarray:
        lo, _ = self.domain
        h = self.cell_width
        return lo + h * (np.arange(self.grid_points) + 0.5)

    def inner(self, j: int, k: int) -> complex:
        """Quadrature inner product ``<u_j, u_k>``."""
        return complex(self.cell_width * np.sum(np.conj(self.samples[j]) * self.samples[k]))

    def gram(self) -> np.ndarray:
        return self.cell_width * (np.conj(self.samples) @ self.samples.T)

    def orthonormality_residual(self) -> float:
        return float(np.abs(self.gram() - np.eye(self.n_modes)).max())


def _sequency_walsh_patterns(n_modes: int) -> np.ndarray:
    """First ``n_modes`` sign patterns; pattern ``k`` has ``k`` sign changes.

    Built by doubling: pattern ``w_k`` on ``m`` segments gives
    ``[w_k, (-1)^k w_k]`` and ``[w_k, -(-1)^k w_k]`` on ``2m``, the patterns
    with ``2k`` and ``2k + 1`` flips. The sign of each pattern is then fixed to
    be positive at the domain center (or at the left edge when the pattern
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


def flip_mode_basis(
    n_modes: int,
    grid_points: int = DEFAULT_GRID_POINTS,
    domain: tuple[float, float] = DEFAULT_DOMAIN,
) -> ModeBasis:
    """Square-profile mode family: mode ``n`` has ``n - 1`` sign flips.

    Mode 1 is flat (the local oscillator of the worked four-mode example);
    mode ``n`` is a constant-magnitude profile with ``n - 1`` flips on a grid
    of ``2^ceil(log2 N)`` equal segments. All modes are normalized and
    pairwise orthogonal.
    """
    if n_modes < 1:
        raise ValidationError(f"need at least one mode, got {n_modes}")
    if grid_points < 64 * n_modes:
        raise ResolutionError(
            f"grid_points={grid_points} too coarse for {n_modes} flip modes "
            f"(need >= {64 * n_modes})"
        )
    lo, hi = float(domain[0]), float(domain[1])
    if hi <= lo:
        raise ValidationError(f"empty domain [{lo}, {hi}]")
    patterns = _sequency_walsh_patterns(n_modes)
    nseg = patterns.shape[1]
    h = (hi - lo) / grid_points
    mids = lo + h * (np.arange(grid_points) + 0.5)
    seg = np.minimum(((mids - lo) / (hi - lo) * nseg).astype(int), nseg - 1)
    amplitude = 1.0 / np.sqrt(hi - lo)
    samples = amplitude * patterns[:, seg]
    return ModeBasis(domain=(lo, hi), samples=samples)


@dataclass(frozen=True)
class PixelPartition:
    """Contiguous, non-overlapping pixels covering the detector domain."""

    boundaries: np.ndarray = field()

    def __post_init__(self):
        b = np.asarray(self.boundaries, dtype=float)
        if b.ndim != 1 or b.size < 2:
            raise DimensionError("boundaries must be a vector of at least two reals")
        if not np.all(np.diff(b) > 0):
            raise ValidationError("pixel boundaries must be strictly increasing")
        object.__setattr__(self, "boundaries", b)

    @property
    def count(self) -> int:
        return self.boundaries.size - 1

    @classmethod
    def equal(cls, count: int, domain: tuple[float, float] = DEFAULT_DOMAIN) -> "PixelPartition":
        if count < 1:
            raise ValidationError(f"need at least one pixel, got {count}")
        return cls(np.linspace(domain[0], domain[1], count + 1))

    def covers(self, domain: tuple[float, float], tol: float = 1e-9) -> bool:
        return (
            abs(self.boundaries[0] - domain[0]) <= tol
            and abs(self.boundaries[-1] - domain[1]) <= tol
        )


def _pixel_masks(basis: ModeBasis, partition: PixelPartition) -> np.ndarray:
    """Boolean (P, M) membership of grid-cell midpoints in each pixel."""
    if not partition.covers(basis.domain):
        raise ValidationError(
            f"partition {partition.boundaries[[0, -1]]} does not cover domain {basis.domain}"
        )
    mids = basis.midpoints()
    b = partition.boundaries
    masks = (mids[None, :] >= b[:-1, None]) & (mids[None, :] < b[1:, None])
    masks[-1] |= mids >= b[-1]  # right edge belongs to the last pixel
    return masks


def pixel_modes(basis: ModeBasis, lo_index: int, partition: PixelPartition):
    """Slices of the local oscillator restricted to each pixel.

    Pixel mode ``i`` equals ``kappa_i * u_LO`` on pixel ``i`` and zero
    elsewhere, with ``kappa_i`` normalizing it to unit norm. Distinct pixel
    modes are orthogonal because their supports are disjoint.

    Returns
    -------
    (modes, kappa)
        ``modes`` is a (P, M) array of sampled pixel modes; ``kappa`` the
        vector of normalization constants.
    """
    if not 0 <= lo_index < basis.n_modes:
        raise DimensionError(f"lo_index {lo_index} out of range for {basis.n_modes} modes")
    u_lo = basis.samples[lo_index]
    masks = _pixel_masks(basis, partition)
    power = basis.cell_width * (masks @ np.abs(u_lo) ** 2)
    if np.any(power <= 1e-15):
        bad = int(np.argmin(power))
        raise SingularPixelError(
            f"pixel {bad} carries no local-oscillator intensity; kappa undefined"
        )
    kappa = 1.0 / np.sqrt(power)
    modes = kappa[:, None] * (masks * u_lo[None, :])
    return modes, kappa


def detection_matrix(basis: ModeBasis, lo_index: int, partition: PixelPartition) -> np.ndarray:
    """Overlap matrix mapping input modes onto pixel modes.

    Entry ``(i, j)`` is ``kappa_i int_{S_i} u_LO^* u_j``, the midpoint-rule
    overlap of pixel mode ``i`` (see :func:`pixel_modes`) with mode ``j``.
    Square (P == N) with pixel modes spanning the basis gives a unitary
    matrix within integration tolerance.
    """
    return detection_setup(basis, lo_index, partition).u_t


def build_g(u_t, delta_opo: DiagonalUnitary) -> np.ndarray:
    """Fixed pipeline matrix ``G = U_T . conj(Delta_OPO)``."""
    u = as_complex_matrix(u_t, "u_t")
    if u.shape[1] != delta_opo.dim:
        raise DimensionError(
            f"u_t has {u.shape[1]} columns but delta_opo has dimension {delta_opo.dim}"
        )
    return u * np.conj(delta_opo.diagonal())[None, :]


@dataclass(frozen=True)
class DetectionSetup:
    """The physical front end: detection matrix, input dephasings, and G.

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
    u_t = basis.cell_width * (np.conj(pixel) @ basis.samples.T)
    delta_opo = DiagonalUnitary(np.zeros(basis.n_modes) if opo_phases is None else opo_phases)
    if delta_opo.dim != basis.n_modes:
        raise DimensionError(f"{delta_opo.dim} dephasings given for {basis.n_modes} modes")
    return DetectionSetup(u_t=u_t, delta_opo=delta_opo, g=build_g(u_t, delta_opo))


def save_mode_basis(basis: ModeBasis, path) -> None:
    """Write a basis as plain text: header row, then one mode per column."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("# mode basis: <domain_min> <domain_max> <grid_points>, one mode per column\n")
        fh.write(f"{basis.domain[0]!r} {basis.domain[1]!r} {basis.grid_points}\n")
        kind = complex if np.iscomplexobj(basis.samples) else float
        for row in basis.samples.T:
            fh.write(" ".join(repr(kind(v)).strip("()") for v in row) + "\n")


def load_mode_basis(path, tol: float = 1e-8) -> ModeBasis:
    """Read a basis written by :func:`save_mode_basis` (or by hand).

    Blank lines and lines starting with ``#`` are skipped. The first row is
    ``domain_min domain_max grid_points``; each of the ``grid_points`` later
    rows holds one sample per mode, read by ``np.loadtxt`` as real (``0.5``)
    or complex (``0.5+0.1j``). Orthonormality is validated within ``tol``.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = [line for line in map(str.strip, fh) if line and not line.startswith("#")]
    if not lines:
        raise ValidationError("basis file has no header row")
    header, rows = lines[0].split(), lines[1:]
    if len(header) != 3:
        raise ValidationError(
            f"header must be 'domain_min domain_max grid_points', got {lines[0]!r}"
        )
    lo, hi, m = float(header[0]), float(header[1]), int(header[2])
    if m < 1 or len(rows) != m:
        raise ValidationError(f"header promises {m} grid rows, file has {len(rows)}")
    try:
        samples = np.loadtxt(rows, dtype=complex, ndmin=2).T
    except ValueError as exc:
        raise ValidationError(f"basis rows are unparseable or ragged: {exc}") from exc
    if np.abs(samples.imag).max(initial=0.0) == 0.0:
        samples = samples.real
    basis = ModeBasis(domain=(lo, hi), samples=samples)
    resid = basis.orthonormality_residual()
    if resid > tol:
        raise ValidationError(
            f"modes in {path} are not orthonormal (residual {resid:.2e} > {tol:.2e})"
        )
    return basis
