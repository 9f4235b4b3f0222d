"""Finite-squeezing Gaussian covariance simulator.

Conventions
-----------
Quadratures are ordered ``(q_1 .. q_N, p_1 .. p_N)`` with commutator
``[q, p] = 2i`` and vacuum variance 1 (vacuum covariance = identity). A mode
unitary ``U = X + iY`` on annihilation operators acts on quadratures through
the symplectic matrix ``S = [[X, -Y], [Y, X]]``.

Homodyne angle convention: angle ``theta`` measures ``sin(theta) q +
cos(theta) p``, i.e. ``theta = 0`` is a p-hat measurement; this is the
local-oscillator global phase 3*pi/2 plus ``theta``.

States carry a square-root factor ``F`` of their covariance ``F F^T``: ``apply`` maps it
by a plain symplectic array as ``S F``, and homodyne conditioning, on one quadrature or on
all of a gate program's at once, is one QR of the measured rows (``_condition``), so chains
factor nothing. ``simulate_mphd`` measures every mode and conditions nothing; it keeps the
plain R of its rows, as ``_condition``'s sort and signs would move its seeded outcomes. A
covariance given to ``GaussianState`` must be symmetric and PSD; it is factored once. The
gate output covariance is within 7e-15 of a 60-digit reference for r = 0..20, so within 1 %
of its distance to the ideal gate up to r = 16; at r = 20 that distance, 4.5e-16, is below
this float64 floor. Its mean is formed without e^{r}-sized outcomes. Samples take one pass
over blocks of ``_BLOCK`` values, so memory is the outcomes plus one block; the moments are
summed before the offsets are added, where the sums have zero mean and cancel no digits.
CSV bytes are those of ``csv.writer``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ValidationError
from .matcore import _generator, _require_count, symplectic_from_unitary
from .mbqc import GateProgram
from .modes import DetectionSetup
from .synth import SynthesisSolution

#: Largest squeezing ``r`` whose variance ``e^{2r}`` is a finite float64 (about 354.9).
_R_MAX = math.log(np.finfo(float).max) / 2
#: Largest covariance and mean distance at which a gate program's run passes.
_GATE_TOL = 0.1
#: Values per sampling block (256 KB): a block's normals, outcomes and sums stay in cache.
_BLOCK = 2**15


def _squeezing(r: float, n_modes: int) -> np.ndarray:
    """p-squeezed factor diagonal ``(e^{r}.., e^{-r}..)``; requires 0 <= r <= _R_MAX."""
    if not 0.0 <= r <= _R_MAX:
        raise ValidationError(f"squeezing r = {r} is outside [0, {_R_MAX:.1f}] (negative, or e^{{2r}} non-finite)")
    return np.exp(np.repeat([float(r), -float(r)], n_modes))


def omega(n_modes: int) -> np.ndarray:
    """Symplectic form for the (q..., p...) ordering: [[0, I], [-I, 0]]."""
    return np.eye(2 * n_modes, k=n_modes) - np.eye(2 * n_modes, k=-n_modes)


class GaussianState:
    """Gaussian state of ``N`` modes: mean vector and a ``2N x k`` factor ``F`` of ``cov = F F^T``.

    ``mean`` is ordered (q_1..q_N, p_1..p_N); ``cov`` (vacuum variance 1) is
    formed on first read. A given ``cov`` must be symmetric and PSD to
    ``1e-10 * max(1, max |cov|)``; it is factored once by ``eigh``.
    """

    def __init__(self, mean, cov):
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        cov = np.asarray(cov, dtype=float)
        if mean.ndim != 1 or mean.size % 2 != 0:
            raise DimensionError("mean must be a vector of even length 2N")
        if cov.shape != (mean.size, mean.size):
            raise DimensionError(
                f"cov shape {cov.shape} does not match mean length {mean.size}"
            )
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ValidationError("state contains non-finite values")
        tol = 1e-10 * max(1.0, np.abs(cov).max(initial=0.0))
        if np.abs(cov - cov.T).max(initial=0.0) > tol:
            raise ValidationError("covariance matrix must be symmetric")
        cov = 0.5 * (cov + cov.T)
        vals, vecs = np.linalg.eigh(cov)
        if vals.min(initial=0.0) < -tol:
            raise ValidationError("covariance matrix must be positive semidefinite")
        self.mean, self.factor, self._cov = mean, vecs * np.sqrt(np.clip(vals, 0.0, None)), cov

    @classmethod
    def _from_factor(cls, mean, factor) -> GaussianState:
        """The state of covariance ``factor factor^T``: every state the package makes."""
        if not (np.isfinite(mean).all() and np.isfinite(factor).all()):
            raise ValidationError("state contains non-finite values")
        state = cls.__new__(cls)
        state.mean, state.factor, state._cov = mean, factor, None
        return state

    @property
    def cov(self) -> np.ndarray:
        if self._cov is None:
            self._cov = self.factor @ self.factor.T
        return self._cov

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2

    def uncertainty_residual(self) -> float:
        """Most-negative eigenvalue of ``cov + i Omega`` (>= ~0 for physical states)."""
        m = self.cov.astype(complex) + 1j * omega(self.n_modes)
        return float(np.linalg.eigvalsh(m).min())


def _check_mode_count(n_modes: int) -> None:
    if n_modes < 0:
        raise DimensionError(f"mode count must be non-negative, got {n_modes}")


def vacuum(n_modes: int) -> GaussianState:
    _check_mode_count(n_modes)
    return GaussianState._from_factor(np.zeros(2 * n_modes), np.eye(2 * n_modes))


def squeezed_input(n_modes: int, r: float, squeeze_axes=None) -> GaussianState:
    """Product of single-mode squeezed vacua.

    Each mode squeezed along ``p`` by default: variances ``(e^{2r}, e^{-2r})``
    for (q, p), from the diagonal factor ``(e^{r}, e^{-r})``. ``squeeze_axes``
    may list 'q' or 'p' per mode; ``r = 0`` gives vacuum.
    """
    _check_mode_count(n_modes)
    axes = ["p"] * n_modes if squeeze_axes is None else list(squeeze_axes)
    if len(axes) != n_modes:
        raise DimensionError(f"{len(axes)} squeeze axes given for {n_modes} modes")
    for axis in axes:
        if axis not in ("q", "p"):
            raise ValidationError(f"squeeze axis must be 'q' or 'p', got {axis!r}")
    squeeze = _squeezing(r, n_modes)
    # each half of ``squeeze`` is constant: its reverse swaps a mode's q and p entries
    diag = np.where([axis == "p" for axis in axes] * 2, squeeze, squeeze[::-1])
    return GaussianState._from_factor(np.zeros(2 * n_modes), np.diag(diag))


def apply(s, state: GaussianState) -> GaussianState:
    """Map a state by the ``2N x 2N`` array ``S`` (mean ``S m``, factor ``S F``).

    ``S`` must satisfy ``max |S Omega S^T - Omega| <= 1e-10 * max(1, ||S||^2)``, with
    ``||S||`` its largest row norm: the rounding of ``S Omega S^T`` grows as ``||S||^2``.
    """
    s = np.asarray(s, dtype=float)
    n = state.n_modes
    if s.shape != (2 * n, 2 * n):
        raise DimensionError(f"symplectic matrix {s.shape} does not act on {n} modes")
    om = omega(n)
    if np.abs(s @ om @ s.T - om).max() > 1e-10 * max(1.0, np.einsum("ij,ij->i", s, s).max()):
        raise ValidationError("matrix does not preserve the symplectic form")
    return GaussianState._from_factor(s @ state.mean, s @ state.factor)


@dataclass(frozen=True)
class HomodyneRecord:
    """One homodyne click: mode index, angle and outcome."""

    mode: int
    angle: float
    outcome: float

    def __post_init__(self):
        object.__setattr__(self, "angle", float(np.mod(self.angle, 2 * np.pi)))


def _condition(factor, rows):
    """Condition the kept rows ``factor`` of a state's factor on its m measured ``rows``.

    Returns ``(L, A, B)`` from one complete QR of ``rows^T``, its columns sorted by their
    largest entry so that e^{r}-sized entries leave with the first reflection instead of
    cancelling (unsorted, a gate misses its 60-digit value by 2e-10 at r = 12), and Q's
    first m columns signed so that ``L = rows Q[:, :m]`` is lower-triangular with a
    diagonal >= 0. The outcomes are ``mean + L z`` for standard normals ``z``, the kept
    mean moves by ``A z`` (``A = factor Q[:, :m]``) and ``B = factor Q[:, m:]`` is the
    conditional factor. A noiseless row of zeros is zero in ``L`` and ``A`` and takes no
    column from ``B``.
    """
    seen = rows.any(axis=1)
    if not seen.all():
        l_seen, a_seen, b = _condition(factor, rows[seen])
        l, a = np.zeros((len(rows), len(rows))), np.zeros((len(factor), len(rows)))
        l[np.ix_(seen, seen)], a[:, seen] = l_seen, a_seen
        return l, a, b
    m = len(rows)
    order = np.argsort(-np.abs(rows).max(axis=0, initial=0.0), kind="stable")
    q, r = np.linalg.qr(rows[:, order].T, mode="complete")
    signs = np.where(r.diagonal() < 0, -1.0, 1.0)
    q[:, :m] *= signs
    rotated = factor[:, order] @ q
    return r[:m].T * signs, rotated[:, :m], rotated[:, m:]


def homodyne_measure(state: GaussianState, mode: int, theta: float, rng_seed=None):
    """Sample one homodyne outcome and condition the remaining modes.

    The measured quadrature is ``sin(theta) q + cos(theta) p`` on ``mode``; its outcome
    is drawn from the marginal normal law and the other modes are conditioned on it in
    square-root form (the one-row case of ``_condition``). Returns ``(record,
    conditioned_state)``, the measured mode removed from the state.
    """
    _require_count(mode=mode)
    if isinstance(theta, bool) or not isinstance(theta, numbers.Real) or not math.isfinite(theta):
        raise ValidationError(f"theta must be a finite real number, got {theta!r}")
    n = state.n_modes
    if not 0 <= mode < n:
        raise DimensionError(f"mode {mode} out of range for {n} modes")
    sin, cos, f, keep = math.sin(theta), math.cos(theta), state.factor, np.arange(2 * n) % n != mode
    l, a, b = _condition(f[keep], (sin * f[mode] + cos * f[n + mode])[None])
    z = _generator(rng_seed, "rng_seed").standard_normal()
    outcome = float(sin * state.mean[mode] + cos * state.mean[n + mode] + l[0, 0] * z)
    mean = state.mean[keep] + a[:, 0] * z
    return HomodyneRecord(mode, theta, outcome), GaussianState._from_factor(mean, b)


def nullifier_variances(state: GaussianState, v) -> np.ndarray:
    """Variances of the nullifiers ``p_i - sum_j V_ij q_j``: squared row norms of ``[-V | I] F``."""
    arr = np.asarray(v, dtype=float)
    n = state.n_modes
    if arr.shape != (n, n):
        raise DimensionError(f"adjacency shape {arr.shape} does not match {n} modes")
    coeff = np.hstack([-arr, np.eye(n)])
    rows = coeff @ state.factor
    return np.einsum("ij,ij->i", rows, rows)


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """Sampled and analytic statistics of a multi-pixel measurement run."""

    outcomes: np.ndarray
    angles: np.ndarray
    sample_mean: np.ndarray
    sample_cov: np.ndarray
    analytic_mean: np.ndarray
    analytic_cov: np.ndarray
    direct_cov: np.ndarray
    staged_vs_direct_residual: float

    @property
    def shots(self) -> int:
        return self.outcomes.shape[0]


def simulate_mphd(
    setup: DetectionSetup,
    sol: SynthesisSolution,
    plan,
    r: float,
    shots: int,
    seed=None,
) -> SimulationResult:
    """Simulate the staged pipeline and sample the planned quadratures.

    The input is a zero-mean p-squeezed product state at parameter ``r``.
    Its factor passes the three pipeline stages ``G``, then ``Delta_LO``,
    then ``O`` as successive symplectic maps; all modes are then measured
    simultaneously at the plan's angles: block by block, standard normals times
    the triangular factor of the measured rows, gains folded in, fill the outcomes,
    whose sums give the sample moments before the offsets are added. The direct
    covariance (single map from the solution's full unitary) is returned alongside.
    Nothing is conditioned, so the factor is the plain R of ``np.linalg.qr``, not
    ``_condition``'s: its column sort and signs would change the seeded outcomes.
    Below ``_R_MAX`` the sums of e^{2r}-sized squares over many shots can still pass float64:
    a run whose moments do so raises a ``ValidationError`` naming ``r``, with no numpy warning.
    """
    _require_count(shots=shots)
    if shots < 1:
        raise ValidationError(f"need at least one shot, got {shots}")
    g = np.asarray(setup.g, dtype=complex)
    n = g.shape[0]
    squeeze = _squeezing(r, n)
    if g.shape != (n, n) or sol.delta_lo.dim != n or sol.gains.shape != (n, n):
        raise DimensionError("setup and solution dimensions do not match")
    if plan.n_modes != n:
        raise DimensionError(f"plan covers {plan.n_modes} modes, pipeline has {n}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below, unwarned
        staged = symplectic_from_unitary(g) * squeeze
        staged = symplectic_from_unitary(sol.delta_lo.matrix()) @ staged
        staged = symplectic_from_unitary(sol.gains.astype(complex)) @ staged
        direct = symplectic_from_unitary(sol.unitary(g)) * squeeze
        direct_cov = direct @ direct.T
        residual = float(np.abs(staged @ staged.T - direct_cov).max())
        if not np.isfinite(residual):
            raise ValidationError(f"covariance is not finite at r = {r}")

        rows = np.sin(plan.angles)[:, None] * staged[:n] + np.cos(plan.angles)[:, None] * staged[n:]
        factor = np.linalg.qr(rows.T, mode="r") * plan.gains
        rng = _generator(seed)
        outcomes, total, gram = np.empty((shots, n)), np.zeros(n), np.zeros((n, n))
        # a short tail joins the block before it: a GEMM of one or two rows takes another BLAS kernel
        step = max(_BLOCK // n, 1)
        stops = [*range(step, shots - step + 1, step), shots]
        for start, stop in zip([0, *stops], stops):
            y = outcomes[start:stop]
            np.matmul(rng.standard_normal((stop - start, n)), factor, out=y)
            total += np.ones(stop - start) @ y
            gram += y.T @ y
            y += plan.offsets
        mean = total / shots
        sample_cov = (gram - shots * np.outer(mean, mean)) / max(shots - 1, 1)
        analytic_cov = np.outer(plan.gains, plan.gains) * (rows @ rows.T)
    # an outcome past float64 needs |y| > 1e154 before its offset, so an inf y^2 in sample_cov
    if not (np.isfinite(sample_cov).all() and np.isfinite(analytic_cov).all()):
        raise ValidationError(f"sample moments of {shots} shots overflow float64 at r = {r}")
    return SimulationResult(
        outcomes=outcomes,
        angles=plan.angles.copy(),
        sample_mean=mean + plan.offsets,
        sample_cov=sample_cov,
        analytic_mean=plan.offsets.copy(),
        analytic_cov=analytic_cov,
        direct_cov=direct_cov,
        staged_vs_direct_residual=residual,
    )


def export_samples_csv(result: SimulationResult, path) -> None:
    """Write samples as CSV (shot, mode, angle, outcome), 4096 shots a block to bound memory."""
    n = result.outcomes.shape[1]
    lines = "".join(f"%d,{m},{float(result.angles[m])!r},%r\r\n" for m in range(n))
    with open(path, "w", newline="", encoding="ascii") as fh:
        fh.write("shot,mode,angle,outcome\r\n")
        for start in range(0, result.shots, 4096):
            block = result.outcomes[start : start + 4096]
            values = [None] * (2 * block.size)  # shot number and outcome, interleaved
            values[::2] = np.repeat(np.arange(start, start + len(block)), n).tolist()
            values[1::2] = block.ravel().tolist()
            fh.write(lines * len(block) % tuple(values))


@dataclass(frozen=True, eq=False)
class GateVerification:
    """Distances of a gate-program run from its intended 2x2 action.

    ``offset_displacement`` is the deterministic output-mean displacement
    produced by the plan's outcome offsets (zero for offset-free programs);
    ``mean_distance`` already accounts for it. ``input_transfer`` is the
    effective linear map from the input-mode mean to the output mean, which
    approaches the target gate as squeezing grows.
    """

    cov_distance: float
    mean_distance: float
    offset_displacement: np.ndarray
    input_transfer: np.ndarray
    outcomes: np.ndarray
    passed: bool


def run_gate_program(program: GateProgram, input_state: GaussianState, r: float, seed=None):
    """Execute a measurement program on (input + cluster) and verify the gate.

    Prepares the factor of the register of ``program.plan.n_modes`` modes (the input
    mode first, then p-squeezed cluster modes at ``r``) under the program's cached
    symplectic map, measures p-hat on every mode but the last, conditioning on all of
    them at once (one ``_condition``, no loop), and applies outcome feedforward to the
    surviving mode's mean. The feedforward uses the exact conditional gains ``K = A
    L^{-1}``, so the corrected output mean is deterministic: the input transfer applied
    to the input mean, minus the displacement contributed by the plan offsets.

    Returns ``(output_state, verification)``: the corrected single-mode Gaussian, and
    its comparison with ``program.target_gate`` applied to the input state, ``passed``
    when both the covariance and the mean distance are within ``_GATE_TOL``.
    """
    if input_state.n_modes != 1:
        raise DimensionError("input preparation must be a single-mode state")
    plan, n = program.plan, program.plan.n_modes
    squeeze = _squeezing(r, n - 1)  # the cluster's modes; the input mode has its own factor
    s = program._symplectic
    if s.shape != (2 * n, 2 * n):
        raise DimensionError(f"program unitary acts on {s.shape[0] // 2} modes, its plan on {n}")
    rng = _generator(seed)
    transfer = s[:, ::n]  # from the input mean to the register's mean
    factor = np.hstack((transfer @ input_state.factor, np.delete(s, [0, n], axis=1) * squeeze))
    l, a, b = _condition(factor[n - 1 :: n], factor[n : 2 * n - 1])
    # the outcome gains K = A L^{-1}; a noiseless outcome's gain is 0
    k = np.linalg.solve(l.T + np.diag(l.diagonal() == 0.0), a.T).T
    measured = transfer[n : 2 * n - 1]
    raw = measured @ input_state.mean + l @ rng.standard_normal(n - 1)
    input_transfer = transfer[n - 1 :: n] - k @ measured
    # equal to the conditional mean minus K recorded, without cancelling outcomes of size e^{r}
    offset_displacement = -k / plan.gains[:-1] @ plan.offsets[:-1]
    output_mean = input_transfer @ input_state.mean + offset_displacement
    output = GaussianState._from_factor(output_mean, b)

    target = program.target_gate
    target_cov = target @ input_state.cov @ target.T
    target_mean = target @ input_state.mean + offset_displacement
    # hypot scales by the largest entry: squares beyond float64 (input r > ~177) do not overflow
    cov_distance = math.hypot(*(output.cov - target_cov).ravel().tolist())
    mean_distance = math.hypot(*(output.mean - target_mean).tolist())
    verification = GateVerification(
        cov_distance=cov_distance,
        mean_distance=mean_distance,
        offset_displacement=offset_displacement,
        input_transfer=input_transfer,
        outcomes=plan.gains[:-1] * raw + plan.offsets[:-1],
        passed=bool(cov_distance <= _GATE_TOL and mean_distance <= _GATE_TOL),
    )
    return output, verification
