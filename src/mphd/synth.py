"""Deciding and constructing detector-side emulations of target unitaries.

Given a fixed front-end matrix ``G`` and a target unitary ``U_th``, the
pipeline can realize ``U_th = O . Delta_LO . G`` with tunable local-oscillator
pixel phases ``Delta_LO`` and real orthogonal digital gains ``O``. This is
possible exactly iff ``U'^T U'`` is diagonal with unit-modulus entries, where
``U' = U_th G^dag``; then each of the ``2**N`` square-root branches
``Delta_LO`` of that diagonal yields an exact solution ``O = U' Delta_LO^{-1}``,
and every branch is the principal (half-angle) solution with sign flips.
The principal branch (its half-angle phases, real gains and orthogonality
check) is built once per :class:`FeasibilityReport`, on first use, and the
branches are built as one block. :func:`verify_solution` checks its inputs
for finite values only when a check fails.
Targets that fail the test can still be approximated in Frobenius distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat

import numpy as np

from .errors import (
    CapacityError,
    DimensionError,
    FeasibilityError,
    InternalConsistencyError,
    ValidationError,
)
from .matcore import (
    DEFAULT_TOL,
    DiagonalUnitary,
    _diagonal_rows,
    _frozen_instances,
    as_complex_matrix,
    frobenius_distance,
    is_real_orthogonal,
    is_unitary,
    procrustes_best_orthogonal,
    wrap_angle,
)


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of the exact-synthesis test for one (U_th, G) pair.

    ``feasible`` holds iff both residuals are within ``tol``: the off-diagonal
    residual is the largest off-diagonal modulus of ``D = U'^T U'`` and the
    modulus residual the largest deviation of ``|d_kk|`` from 1. The
    principal branch's phases and gains are computed once per report, on
    first use; a ``dataclasses.replace`` copy starts without them.
    """

    u_prime: np.ndarray
    d_candidate: np.ndarray
    offdiag_residual: float
    modulus_residual: float
    feasible: bool
    tol: float

    @property
    def dim(self) -> int:
        return self.d_candidate.shape[0]

    def d_diagonal(self) -> np.ndarray:
        return np.diag(self.d_candidate)

    @cached_property
    def _principal(self) -> tuple[np.ndarray, np.ndarray]:
        """Principal phases ``wrap_angle(arg d_kk) / 2`` in ``(-pi/2, pi/2]`` and real gains."""
        d = self.d_diagonal()
        phases = wrap_angle(np.angle(d / np.abs(d))) / 2.0
        o_complex = self.u_prime * np.conj(np.exp(1j * phases))[None, :]
        if not is_real_orthogonal(o_complex, max(100 * self.tol, 1e-10)):
            raise InternalConsistencyError(
                "reconstructed gain matrix is not real orthogonal; this indicates "
                "a bug or a barely-feasible report"
            )
        return phases, o_complex.real


@dataclass(frozen=True)
class SynthesisSolution:
    """One realization ``(Delta_LO, O)`` of a target unitary.

    ``branch_id`` addresses which square-root branch produced the solution
    (``None`` for solutions found by the approximate optimizer); ``residual``
    is the Frobenius distance of ``O Delta_LO G`` to the target.
    """

    delta_lo: DiagonalUnitary
    gains: np.ndarray
    u_mphd: np.ndarray
    residual: float
    branch_id: tuple[int, ...] | None = None


@dataclass(frozen=True)
class ApproxResult:
    """Best solution found by :func:`solve_approx` plus convergence data."""

    solution: SynthesisSolution
    objective_trace: list[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False


def feasibility(u_th, g, tol: float = DEFAULT_TOL) -> FeasibilityReport:
    """Test whether ``U_th`` is exactly realizable over the fixed ``G``.

    Both inputs must be square unitary matrices of the same size (validated
    within ``tol``). Returns the full report; no exception is raised for an
    infeasible target.
    """
    u = as_complex_matrix(u_th, "u_th")
    gm = as_complex_matrix(g, "g")
    if u.shape[0] != u.shape[1] or gm.shape[0] != gm.shape[1]:
        raise DimensionError("u_th and g must be square")
    if u.shape != gm.shape:
        raise DimensionError(f"shape mismatch: u_th {u.shape} vs g {gm.shape}")
    if not is_unitary(gm, tol):
        raise ValidationError("g is not unitary within tolerance")
    if not is_unitary(u, tol):
        raise ValidationError("u_th is not unitary within tolerance")
    u_prime = u @ gm.conj().T
    d = u_prime.T @ u_prime
    off = d - np.diag(np.diag(d))
    offdiag = float(np.abs(off).max()) if d.shape[0] > 1 else 0.0
    modulus = float(np.abs(np.abs(np.diag(d)) - 1.0).max())
    return FeasibilityReport(
        u_prime=u_prime,
        d_candidate=d,
        offdiag_residual=offdiag,
        modulus_residual=modulus,
        feasible=bool(offdiag <= tol and modulus <= tol),
        tol=tol,
    )


def _mphd_unitary(gains, phases, g) -> np.ndarray:
    """The detector unitary ``O . diag(e^{i phases}) . G``."""
    return np.dot(gains * np.exp(1j * phases), g)


def _branches(report: FeasibilityReport, g, u_th, bits: np.ndarray) -> list[SynthesisSolution]:
    """A branch per 0/1 row ``b``: gain columns times ``1 - 2b``, phases + ``pi b``; one u_mphd."""
    phases, gains = report._principal
    u_mphd = _mphd_unitary(gains, phases, g)
    u_mphd.setflags(write=False)
    return _frozen_instances(
        SynthesisSolution, len(bits), _diagonal_rows(phases + np.pi * bits),
        gains[None] * (1.0 - 2.0 * bits)[:, None, :], repeat(u_mphd),
        repeat(frobenius_distance(u_mphd, u_th)), map(tuple, bits.tolist()),
    )


def solve_exact(
    report: FeasibilityReport, g, u_th, branch=None
) -> SynthesisSolution:
    """Construct the exact solution for one square-root branch.

    ``branch`` is a bit-vector over principal-root sign flips (default: the
    principal branch, all zeros); every entry must be exactly 0 or 1.
    Requires ``report.feasible``. The returned ``u_mphd`` is read-only.
    """
    if not report.feasible:
        raise FeasibilityError(
            f"target failed the feasibility test (offdiag {report.offdiag_residual:.2e}, "
            f"modulus {report.modulus_residual:.2e}, tol {report.tol:.2e})"
        )
    bits = np.zeros(report.dim, dtype=int) if branch is None else np.asarray(branch)
    if bits.shape != (report.dim,):
        raise DimensionError(f"branch must have length {report.dim}")
    if not np.all((bits == 0) | (bits == 1)):
        raise ValidationError(f"branch must contain only bits 0/1, got {branch!r}")
    return _branches(report, g, u_th, bits.astype(int)[None])[0]


def enumerate_solutions(report: FeasibilityReport, g, u_th) -> list[SynthesisSolution]:
    """All ``2**N`` exact solutions, ordered by branch bits as binary counting.

    Every branch is the principal solution with sign flips, so all share its
    orthogonality check, residual and read-only ``u_mphd``; gains and phases
    are rows of one block each. At most 16 modes (about 2.9 KB of resident
    memory per solution, 0.18 GB in all).
    """
    if not report.feasible:
        raise FeasibilityError("cannot enumerate solutions of an infeasible problem")
    if report.dim > 16:
        raise CapacityError(f"2**{report.dim} branches is too many; use solve_exact per branch")
    bits = (np.arange(2**report.dim)[:, None] >> np.arange(report.dim)[::-1]) & 1
    return _branches(report, g, u_th, bits)


def verify_solution(sol: SynthesisSolution, u_th, g, tol: float = 1e-10) -> float:
    """Recompute ``O Delta_LO G`` from stored parameters; return its distance to ``U_th``.

    Also enforces the stored-product invariant: the recomputed matrix must be
    within ``tol`` of ``sol.u_mphd`` (a NaN fails it). Inputs are checked
    for finite values only when a check fails: a non-finite ``u_th`` or
    ``g`` raises ``ValidationError``, in that order.
    """
    u = np.asarray(u_th)
    product = _mphd_unitary(sol.gains, sol.delta_lo.phases, g)
    if product.shape != u.shape:
        as_complex_matrix(u_th, "u_th")
        raise DimensionError(f"shape mismatch: product {product.shape} vs u_th {u.shape}")
    diff = product - sol.u_mphd
    if not (math.sqrt(np.vdot(diff, diff).real) <= tol):
        as_complex_matrix(u_th, "u_th")
        if not np.all(np.isfinite(g)):
            raise ValidationError("g contains non-finite values")
        raise InternalConsistencyError(
            "stored u_mphd differs from the recomputed product beyond tolerance"
        )
    diff = product - u
    distance = math.sqrt(np.vdot(diff, diff).real)
    if not math.isfinite(distance):
        as_complex_matrix(u_th, "u_th")
    return distance


def _objective(gains, phases, g, u_th) -> float:
    return float(np.linalg.norm(_mphd_unitary(gains, phases, g) - u_th))


def solve_approx(
    u_th,
    g,
    *,
    max_iters: int = 200,
    restarts: int = 8,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> ApproxResult:
    """Minimize ``||O Delta_LO(phi) G - U_th||_F`` by alternating descent.

    Each iteration solves the gain matrix in closed form (orthogonal
    Procrustes on ``Re(Delta U'^dag)``, where ``U' = U_th G^dag``) and then
    the N pixel phases in closed form: ``||O Delta G||_F^2 = N`` for every
    ``Delta``, so with ``O`` fixed the objective separates by pixel and phase
    ``k`` is minimized at ``arg((O^T U')_kk)``. Either step is kept only if
    it does not raise the objective. When an iteration gains more than half
    of what the one before it gained, its phase move is extrapolated (with
    the gains re-solved) and doubled for as long as the objective falls.
    Restarts draw independent random phase vectors from a generator seeded
    with ``seed``; the best run is returned with its monotone objective
    trace. ``converged`` is False when that run was still improving at
    ``max_iters``; ``restarts`` and ``max_iters`` must be at least 1.
    """
    u = as_complex_matrix(u_th, "u_th")
    gm = as_complex_matrix(g, "g")
    if u.shape != gm.shape or u.shape[0] != u.shape[1]:
        raise DimensionError("u_th and g must be square matrices of equal size")
    if not is_unitary(u, max(tol, 1e-8)) or not is_unitary(gm, max(tol, 1e-8)):
        raise ValidationError("approximate synthesis expects unitary u_th and g")
    if restarts < 1 or max_iters < 1:
        raise ValidationError(f"need restarts >= 1 and max_iters >= 1, got {restarts}, {max_iters}")
    n = u.shape[0]
    u_prime = u @ gm.conj().T

    def best_gains(phases):
        return procrustes_best_orthogonal((np.exp(1j * phases)[:, None] * u_prime.conj().T).real)

    rng = np.random.default_rng(seed)
    best: tuple | None = None
    for _ in range(restarts):
        phases = rng.uniform(0.0, 2.0 * np.pi, n)
        f_val = gained = np.inf
        trace: list[float] = []
        for _ in range(max_iters):
            f_prev, start = f_val, phases
            # closed-form gain step
            candidate = best_gains(phases)
            f_cand = _objective(candidate, phases, gm, u)
            if f_cand <= f_val:
                gains, f_val = candidate, f_cand
            # closed-form phase step
            candidate = np.angle(np.diag(gains.T @ u_prime))
            f_cand = _objective(gains, candidate, gm, u)
            if f_cand <= f_val:
                phases, f_val = candidate, f_cand
            # slow linear progress: near-degenerate targets would otherwise
            # creep towards their optimum for hundreds of iterations
            if f_prev - f_val > 0.5 * gained:
                step = np.angle(np.exp(1j * (phases - start)))
                while True:
                    candidate = phases + step
                    cand_gains = best_gains(candidate)
                    f_cand = _objective(cand_gains, candidate, gm, u)
                    if not f_cand < f_val:
                        break
                    phases, gains, f_val = candidate, cand_gains, f_cand
                    step = 2.0 * step
            gained = f_prev - f_val
            trace.append(f_val)
            if gained < 1e-13:
                break
        if best is None or f_val < best[0]:
            best = (f_val, phases, gains, trace, gained < 1e-13)
        if best[0] < 1e-12:
            break
    f_val, phases, gains, trace, converged = best
    u_mphd = _mphd_unitary(gains, phases, gm)
    solution = SynthesisSolution(
        delta_lo=DiagonalUnitary(phases),
        gains=gains,
        u_mphd=u_mphd,
        residual=frobenius_distance(u_mphd, u),
    )
    return ApproxResult(
        solution=solution,
        objective_trace=trace,
        iterations=len(trace),
        converged=converged,
    )
