"""Deciding and constructing detector-side emulations of target unitaries.

Given a fixed front-end matrix ``G`` and a target unitary ``U_th``, the
pipeline can realize ``U_th = O . Delta_LO . G`` with tunable local-oscillator
pixel phases ``Delta_LO`` and real orthogonal digital gains ``O``. This is
possible exactly iff ``U'^T U'`` is diagonal with unit-modulus entries, where
``U' = U_th G^dag``; then each of the ``2**N`` square-root branches
``Delta_LO`` of that diagonal yields an exact solution ``O = U' Delta_LO^{-1}``,
and every branch is the principal (half-angle) solution with sign flips.
The principal branch (its half-angle phases, real gains and orthogonality
check) is built once per :class:`FeasibilityReport`, on first use; the branches
are one block, sharing one residual per (report, ``G``, ``U_th``) and one
``np.exp`` for their ``e^{i phi}``. A solution holds only its parameters, and a
branch's ``sol.unitary(g)`` is one real GEMM: ``O`` times ``[Re | Im](Delta_LO . G)``.
Targets that fail the test can still be approximated in Frobenius distance; the optimizer's
restarts advance in lockstep, all at once if no run can be exact, as if run one by one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, repeat

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
    _generator,
    _require_count,
    _unitary_residual,
    as_complex_matrix,
    frobenius_distance,
    is_real_orthogonal,
    procrustes_best_orthogonal,
    wrap_angle,
)


@dataclass(frozen=True, eq=False)
class FeasibilityReport:
    """Outcome of the exact-synthesis test for one (U_th, G) pair.

    ``feasible`` holds iff both residuals are within ``tol``: the off-diagonal
    residual is the largest off-diagonal modulus of ``D = U'^T U'`` and the
    modulus residual the largest deviation of ``|d_kk|`` from 1. The
    principal branch's phases and gains are computed once per report, on
    first use, and its residual once per (``G``, ``U_th``) pair; a
    ``dataclasses.replace`` copy starts without them.
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


@dataclass(frozen=True, eq=False)
class SynthesisSolution:
    """One realization ``(Delta_LO, O)`` of a target unitary.

    ``branch_id`` addresses which square-root branch produced the solution
    (``None`` for solutions found by the approximate optimizer); ``residual``
    is the Frobenius distance of ``O Delta_LO G`` to the target.
    """

    delta_lo: DiagonalUnitary
    gains: np.ndarray
    residual: float
    branch_id: tuple[int, ...] | None = None

    def unitary(self, g) -> np.ndarray:
        """The detector unitary ``O . Delta_LO . G`` over the front end ``g``."""
        return _mphd_unitary(self.gains, self.delta_lo._unit, g)


@dataclass(frozen=True, eq=False)
class ApproxResult:
    """Best solution found by :func:`solve_approx` plus convergence data."""

    solution: SynthesisSolution
    objective_trace: list[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False


def _unitary_pair(u_th, g, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """``u_th`` and ``g`` as complex arrays: square, one non-empty shape, unitary within ``tol``."""
    if not 0 < tol < np.inf:
        raise ValidationError(f"tol must be positive and finite, got {tol}")
    u = as_complex_matrix(u_th, "u_th")
    gm = as_complex_matrix(g, "g")
    if u.shape[0] != u.shape[1] or gm.shape[0] != gm.shape[1]:
        raise DimensionError("u_th and g must be square")
    if u.shape != gm.shape:
        raise DimensionError(f"shape mismatch: u_th {u.shape} vs g {gm.shape}")
    if not u.size:
        raise DimensionError("u_th is empty: a target needs at least one mode")
    if not _unitary_residual(gm) <= tol:
        raise ValidationError("g is not unitary within tolerance")
    if not _unitary_residual(u) <= tol:
        raise ValidationError("u_th is not unitary within tolerance")
    return u, gm


def feasibility(u_th, g, tol: float = DEFAULT_TOL) -> FeasibilityReport:
    """Test whether ``U_th`` is exactly realizable over the fixed ``G``.

    Both inputs must be non-empty square unitary matrices of one size (validated
    within ``tol``). Returns the full report; no exception is raised for an
    infeasible target.
    """
    u, gm = _unitary_pair(u_th, g, tol)
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


def _mphd_unitary(gains, unit, g) -> np.ndarray:
    """``O . diag(unit) . G`` (``unit = e^{i phases}``) as real ``O`` times ``[Re | Im](Delta G)``;
    a ``(B, n, n)`` stack of gains with ``(B, n)`` diagonals takes one ``matmul``, bit for bit."""
    delta_g = np.ascontiguousarray(unit[..., None] * g)
    return (np.dot if gains.ndim == 2 else np.matmul)(gains, delta_g.view(float)).view(complex)


def _branches(report: FeasibilityReport, g, u_th, bits: np.ndarray) -> list[SynthesisSolution]:
    """A branch per 0/1 row ``b``: gain columns times ``1 - 2b``, phases + ``pi b``; one residual.

    The residual stays on the report while ``g`` and ``u_th`` equal its copies.
    """
    phases, gains = report._principal
    cached = report.__dict__.get("_residual")
    if cached is None or not (np.array_equal(cached[0], g) and np.array_equal(cached[1], u_th)):
        residual = frobenius_distance(_mphd_unitary(gains, np.exp(1j * phases), g), u_th)
        cached = report.__dict__["_residual"] = (np.array(g), np.array(u_th), residual)
    return _frozen_instances(
        SynthesisSolution, len(bits), delta_lo=_diagonal_rows(phases + np.pi * bits),
        gains=gains[None] * (1.0 - 2.0 * bits)[:, None, :], residual=repeat(cached[2]),
        branch_id=map(tuple, bits.tolist()),
    )


def solve_exact(
    report: FeasibilityReport, g, u_th, branch=None
) -> SynthesisSolution:
    """Construct the exact solution for one square-root branch.

    ``branch`` is a bit-vector over principal-root sign flips (default: the
    principal branch, all zeros); every entry must be exactly 0 or 1.
    Requires ``report.feasible``.
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
    orthogonality check and residual; gains, phases and ``e^{i phi}`` are rows of
    one block each. At most 16 modes (``tracemalloc``: 3.2 KB per solution and
    0.21 GB in all at N = 16, 2.1 KB and 8.7 MB at N = 12).
    """
    if not report.feasible:
        raise FeasibilityError("cannot enumerate solutions of an infeasible problem")
    if report.dim > 16:
        raise CapacityError(f"2**{report.dim} branches is too many; use solve_exact per branch")
    bits = (np.arange(2**report.dim)[:, None] >> np.arange(report.dim)[::-1]) & 1
    return _branches(report, g, u_th, bits)


def verify_solution(sol: SynthesisSolution, u_th, g) -> float:
    """Return the Frobenius distance of ``sol.unitary(g)`` to ``U_th``.

    Inputs are checked only when a check fails. A non-finite distance raises
    ``ValidationError`` naming a non-finite ``u_th``, ``g`` or gains, in that
    order, and otherwise the overflow; complex gains raise it too.
    """
    u = np.asarray(u_th)
    product = sol.unitary(g)
    if product.shape != u.shape:
        as_complex_matrix(u_th, "u_th")
        if np.iscomplexobj(sol.gains):
            raise ValidationError("gains must be real")
        raise DimensionError(f"shape mismatch: product {product.shape} vs u_th {u.shape}")
    diff = product - u
    distance = math.sqrt(np.vdot(diff, diff).real)
    if not math.isfinite(distance):
        as_complex_matrix(u_th, "u_th")
        if not np.all(np.isfinite(g)):
            raise ValidationError("g contains non-finite values")
        if not np.all(np.isfinite(sol.gains)):
            raise ValidationError("gains contain non-finite values")
        raise ValidationError("the distance of the product to u_th overflows float64")
    return distance


#: Objective below which an approximate run (and the restart loop) counts as exact.
_EXACT_FLOOR = 1e-12
#: No run comes closer than ``(1 - min_k |(U'^T U')_kk|) / 2``; all restarts start at once when that is above the floor.
_OUT_OF_REACH = 2 * _EXACT_FLOOR


def _objective(gains, unit, g, u) -> list:
    """``||O . diag(unit) . G - U||_F`` per run of a stack, summed as ``np.linalg.norm`` sums."""
    diff = (_mphd_unitary(gains, unit, g) - u).reshape(len(gains), 1, -1)
    re, im = diff.real, diff.imag  # one strided BLAS dot per run and part, as ndarray.dot takes them
    return np.sqrt(re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2)).ravel().tolist()


def _rows(keep: list, new, old):
    """The rows of ``new`` where ``keep``, else of ``old``."""
    return new if all(keep) else np.where(np.reshape(keep, (-1,) + (1,) * (new.ndim - 1)), new, old)


def _descend(phases, u, gm, u_prime, max_iters: int) -> list:
    """``(objective, phases, gains, trace, converged)`` per row of a ``(B, n)`` start block, in lockstep,
    up to the first row that ends below the exactness floor: the restarts stop there."""
    u_dag = u_prime.conj().T
    runs, index, traces = [None] * len(phases), list(range(len(phases))), [[] for _ in range(len(phases))]
    unit, gains = np.exp(1j * phases), np.zeros(phases.shape + phases.shape[-1:])
    f_val = gained = [np.inf] * len(phases)
    for iteration in range(1, max_iters + 1):
        f_prev, start = f_val, phases
        # closed-form gain step
        candidate = procrustes_best_orthogonal((unit[:, :, None] * u_dag).real)
        f_cand = _objective(candidate, unit, gm, u)
        keep = [c <= f for c, f in zip(f_cand, f_val)]
        gains, f_val = _rows(keep, candidate, gains), list(map(min, f_val, f_cand))
        # closed-form phase step
        d = (gains.transpose(0, 2, 1) @ u_prime).diagonal(0, 1, 2)
        candidate = np.arctan2(d.imag, d.real)
        cand_unit = np.exp(1j * candidate)
        f_cand = _objective(gains, cand_unit, gm, u)
        keep = [c <= f for c, f in zip(f_cand, f_val)]
        phases, unit = _rows(keep, candidate, phases), _rows(keep, cand_unit, unit)
        f_val = list(map(min, f_val, f_cand))
        # slow linear progress: near-degenerate targets would otherwise
        # creep towards their optimum for hundreds of iterations
        moving = [i for i, (p, f, last) in enumerate(zip(f_prev, f_val, gained)) if p - f > 0.5 * last]
        step = np.angle(np.exp(1j * (phases[moving] - start[moving]))) if moving else None
        while moving:
            candidate = phases[moving] + step
            cand_unit = np.exp(1j * candidate)
            cand_gains = procrustes_best_orthogonal((cand_unit[:, :, None] * u_dag).real)
            f_cand = _objective(cand_gains, cand_unit, gm, u)
            keep = [c < f_val[i] for i, c in zip(moving, f_cand)]
            moving, step = list(compress(moving, keep)), 2.0 * step[keep]
            phases[moving], unit[moving] = candidate[keep], cand_unit[keep]
            gains[moving] = cand_gains[keep]
            for i, c in zip(moving, compress(f_cand, keep)):
                f_val[i] = c
        gained, live = [p - f for p, f in zip(f_prev, f_val)], []
        for i, value, gain in zip(range(len(index)), f_val, gained):
            traces[i].append(value)
            if (converged := gain < 1e-13 or value < _EXACT_FLOOR) or iteration == max_iters:
                runs[index[i]] = (value, phases[i], gains[i], traces[i], converged)
                if value < _EXACT_FLOOR:
                    del runs[index[i] + 1 :]
                    break
            else:
                live.append(i)
        if not live:
            break
        if len(live) < len(index):
            phases, unit, gains = phases[live], unit[live], gains[live]
            index, traces, f_val, gained = ([a[i] for i in live] for a in (index, traces, f_val, gained))
    return runs


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
    A run ends when an iteration gains less than 1e-13 or its objective
    falls below the exactness floor 1e-12, which also ends the restarts.
    Restarts draw independent random phase vectors from a generator seeded
    with ``seed``; the best run is returned with its monotone objective
    trace, and its last objective is the solution's ``residual``. Runs go in
    lockstep, bit for bit as if alone; restart 0 goes first, alone, unless the
    floor is below ``(1 - min_k |(U'^T U')_kk|) / 2``, which no run can beat.
    ``converged`` is False when that run was still improving at
    ``max_iters``; ``restarts`` and ``max_iters`` must be integers of at
    least 1 and ``tol`` positive and finite.
    """
    u, gm = _unitary_pair(u_th, g, 1e-8 if 0 < tol < 1e-8 else tol)
    _require_count(restarts=restarts, max_iters=max_iters)
    if restarts < 1 or max_iters < 1:
        raise ValidationError(f"need restarts >= 1 and max_iters >= 1, got {restarts}, {max_iters}")
    u_prime = u @ gm.conj().T
    starts = _generator(seed).uniform(0.0, 2.0 * np.pi, (restarts, len(u)))
    head = restarts if 1.0 - np.abs((u_prime * u_prime).sum(axis=0)).min() > _OUT_OF_REACH else 1
    runs = _descend(starts[:head], u, gm, u_prime, max_iters)
    if runs[0][0] >= _EXACT_FLOOR and head < restarts:
        runs += _descend(starts[1:], u, gm, u_prime, max_iters)
    f_val, phases, gains, trace, converged = min(runs, key=lambda run: run[0])
    solution = SynthesisSolution(delta_lo=DiagonalUnitary(phases), gains=gains, residual=f_val)
    return ApproxResult(solution, objective_trace=trace, iterations=len(trace), converged=converged)
