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
by a plain symplectic array as ``S F``, homodyne conditioning is one in-place Householder
reflection of a ``[means | F]`` buffer (``_condition_step``; a gate program runs all its
steps on one buffer), so chains factor nothing, and samples are the mean plus ``F`` times
standard normals. A covariance given to ``GaussianState`` must be symmetric and PSD; it
is factored once. The gate output covariance is within 7e-15 of a 60-digit reference for
r = 0..20, so within 1 % of its distance to the ideal gate up to r = 16; at r = 20 that
distance, 4.5e-16, is below this float64 floor. Its mean is formed without e^{r}-sized
outcomes. Folding the plan gains into the sampling factor moves samples by rounding
only; CSV bytes are those of ``csv.writer``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ValidationError
from .matcore import _require_count, symplectic_from_unitary
from .mbqc import GateProgram
from .modes import DetectionSetup
from .synth import SynthesisSolution

#: Largest squeezing ``r`` whose variance ``e^{2r}`` is a finite float64 (about 354.9).
_R_MAX = math.log(np.finfo(float).max) / 2
#: Largest covariance and mean distance at which a gate program's run passes.
_GATE_TOL = 0.1


def _squeezing(r: float, n_modes: int, headroom: float = 0.0) -> np.ndarray:
    """p-squeezed factor diagonal ``(e^{r}.., e^{-r}..)``; requires 0 <= r <= _R_MAX - headroom."""
    if not 0.0 <= r <= _R_MAX - headroom:
        bound = f"[0, {_R_MAX - headroom:.1f}] (negative, or e^{{2r}} non-finite)"
        raise ValidationError(f"squeezing r = {r} is outside {bound}")
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


def _condition_step(buf, n_mean: int, mode: int, theta: float):
    """Condition ``[mean-like columns | F]`` (covariance ``F F^T``) in place on one quadrature ``w``.

    A Householder reflection maps the row ``w^T F`` onto the column of its
    largest entry, so a squeezed column's e^{r}-sized entries leave with it
    instead of cancelling (1e-11 gate error at r = 12 with a fixed column).
    The outcome's std is ``|w^T F|``, the gain is that column over ``w .
    column``; zeroing it leaves the conditional factor, and the mean-like
    columns lose gain times their ``w`` value. The measured rows are zeroed
    first (gain 0); a zero row gives zero gain. Returns ``(w @ means, std,
    gain, dropped)``; the caller deletes the measured rows and ``dropped``.
    """
    n = buf.shape[0] // 2
    sin, cos = math.sin(theta), math.cos(theta)
    w_row = sin * buf[mode] + cos * buf[n + mode]
    buf[mode] = buf[n + mode] = 0.0
    m_mean, v = w_row[:n_mean], w_row[n_mean:]
    m_std = math.sqrt(v @ v)
    if m_std == 0.0:
        return m_mean, 0.0, np.zeros(2 * n), []
    pivot = int(np.abs(v).argmax())
    alpha = -m_std if v[pivot] >= 0 else m_std
    v[pivot] -= alpha
    factor = buf[:, n_mean:]
    factor -= np.multiply.outer(factor @ v, v * (2.0 / (v @ v)))
    gain = factor[:, pivot] / alpha
    factor[:, pivot] = 0.0
    buf[:, :n_mean] -= np.multiply.outer(gain, m_mean)
    return m_mean, m_std, gain, [n_mean + pivot]


def homodyne_measure(state: GaussianState, mode: int, theta: float, rng_seed=None):
    """Sample one homodyne outcome and condition the remaining modes.

    The measured quadrature is ``sin(theta) q + cos(theta) p`` on ``mode``;
    its outcome is drawn from the marginal normal law and the other modes are
    conditioned on it in square-root form (``_condition_step`` on a copy),
    with the measured mode removed from the returned state.

    Returns
    -------
    (record, conditioned_state)
    """
    if not 0 <= mode < state.n_modes:
        raise DimensionError(f"mode {mode} out of range for {state.n_modes} modes")
    buf = np.column_stack((state.mean, state.factor))
    m_mean, m_std, gain, dropped = _condition_step(buf, 1, mode, theta)
    outcome = float(np.random.default_rng(rng_seed).normal(m_mean[0], m_std))
    buf[:, 0] += gain * outcome
    rest = np.delete(np.delete(buf, [mode, state.n_modes + mode], axis=0), dropped, axis=1)
    return HomodyneRecord(mode, theta, outcome), GaussianState._from_factor(rest[:, 0], rest[:, 1:])


def nullifier_variances(state: GaussianState, v) -> np.ndarray:
    """Variances of the nullifiers ``p_i - sum_j V_ij q_j``: squared row norms of ``[-V | I] F``."""
    arr = np.asarray(v, dtype=float)
    n = state.n_modes
    if arr.shape != (n, n):
        raise DimensionError(f"adjacency shape {arr.shape} does not match {n} modes")
    coeff = np.hstack([-arr, np.eye(n)])
    rows = coeff @ state.factor
    return np.einsum("ij,ij->i", rows, rows)


@dataclass(frozen=True)
class SimulationResult:
    """Sampled and analytic statistics of a multi-pixel measurement run."""

    outcomes: np.ndarray
    angles: np.ndarray
    sample_mean: np.ndarray
    sample_cov: np.ndarray
    analytic_mean: np.ndarray
    analytic_cov: np.ndarray
    staged_cov: np.ndarray
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
    simultaneously at the plan's angles, through the triangular factor of
    the measured rows with the plan gains folded in; offsets are added after.
    The direct covariance (single map from the solution's full unitary) is
    returned alongside for cross-checking.
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
    staged = symplectic_from_unitary(g) * squeeze
    staged = symplectic_from_unitary(sol.delta_lo.matrix()) @ staged
    staged = symplectic_from_unitary(sol.gains.astype(complex)) @ staged
    direct = symplectic_from_unitary(sol.unitary(g)) * squeeze
    staged_cov, direct_cov = staged @ staged.T, direct @ direct.T
    residual = float(np.abs(staged_cov - direct_cov).max())
    if not np.isfinite(residual):
        raise ValidationError(f"covariance is not finite at r = {r}")

    rows = np.sin(plan.angles)[:, None] * staged[:n] + np.cos(plan.angles)[:, None] * staged[n:]
    rng = np.random.default_rng(seed)
    outcomes = rng.standard_normal((shots, n)) @ (np.linalg.qr(rows.T, mode="r") * plan.gains)
    outcomes += plan.offsets
    sample_mean = np.ones(shots) @ outcomes / shots
    centered = outcomes - sample_mean
    return SimulationResult(
        outcomes=outcomes,
        angles=plan.angles.copy(),
        sample_mean=sample_mean,
        sample_cov=centered.T @ centered / max(shots - 1, 1),
        analytic_mean=plan.offsets.copy(),
        analytic_cov=np.outer(plan.gains, plan.gains) * (rows @ rows.T),
        staged_cov=staged_cov,
        direct_cov=direct_cov,
        staged_vs_direct_residual=residual,
    )


def export_samples_csv(result: SimulationResult, path) -> None:
    """Write samples as CSV (shot, mode, angle, outcome), 4096 shots a block to bound memory."""
    n = result.outcomes.shape[1]
    rows = "".join(f"{{0}},{m},{float(result.angles[m])!r},{{{m + 1}!r}}\r\n" for m in range(n))
    with open(path, "w", newline="", encoding="ascii") as fh:
        fh.write("shot,mode,angle,outcome\r\n")
        for start in range(0, result.shots, 4096):
            block = result.outcomes[start : start + 4096].tolist()
            fh.writelines(rows.format(shot, *row) for shot, row in enumerate(block, start))


@dataclass(frozen=True)
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


def run_gate_program(
    program: GateProgram,
    input_state: GaussianState,
    r: float,
    seed=None,
):
    """Execute a measurement program on (input + cluster) and verify the gate.

    Prepares the factor of the register of ``program.plan.n_modes`` modes (the input
    mode first, then p-squeezed cluster modes at ``r``) under the program's cached
    symplectic map, measures p-hat on every mode but the last, conditioning one buffer
    in place after each, and applies outcome feedforward to the surviving mode's mean.
    The feedforward uses the exact conditional gains, so the corrected output mean is
    deterministic: the accumulated linear map applied to the initial means, minus the
    displacement contributed by the plan offsets.

    Returns
    -------
    (output_state, verification)
        ``output_state`` is the corrected single-mode Gaussian;
        ``verification`` compares it against ``program.target_gate`` applied
        to the input state, flagging ``passed`` when both the covariance and
        the mean distance are within ``_GATE_TOL``.
    """
    if input_state.n_modes != 1:
        raise DimensionError("input preparation must be a single-mode state")
    plan, n = program.plan, program.plan.n_modes
    # S has unit-norm rows, so a conditioning step's Householder vector has a
    # squared norm of up to 4 e^{2r}; keep that finite, not only e^{2r}
    squeeze = _squeezing(r, n, math.log(2))
    s = program._symplectic
    if s.shape != (2 * n, 2 * n):
        raise DimensionError(f"program unitary acts on {s.shape[0] // 2} modes, its plan on {n}")
    inputs = np.column_stack((input_state.mean, np.eye(2), np.zeros((2, n - 1)), input_state.factor))
    squeeze[::n] = 0.0  # the input's columns 0 and n, dropped at the end; ``inputs`` has its factor
    # the mean, its map from the input mean, one gain per outcome (n + 2 columns), then the factor
    buf = np.hstack((s[:, ::n] @ inputs, s * squeeze))
    rng = np.random.default_rng(seed)
    recorded, dropped = [], [inputs.shape[1], inputs.shape[1] + n]
    for k in range(n - 1):
        m_mean, m_std, gain, pivots = _condition_step(buf, n + 2, k, 0.0)
        raw = float(rng.normal(m_mean[0], m_std))
        recorded.append(plan.gains[k] * raw + plan.offsets[k])
        buf[:, 0] += gain * raw
        buf[:, 3 + k] = gain
        dropped += pivots
    tracked = np.delete(buf[n - 1 :: n], dropped, axis=1)  # the output mode, without zeroed columns
    # equal to tracked[:, 0] - K recorded, without cancelling outcomes of size e^{r}
    offset_displacement = -tracked[:, 3 : n + 2] / plan.gains[:-1] @ plan.offsets[:-1]
    input_transfer = tracked[:, 1:3]
    output_mean = input_transfer @ input_state.mean + offset_displacement
    output = GaussianState._from_factor(output_mean, tracked[:, n + 2 :])

    target = np.asarray(program.target_gate, dtype=float)
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
        outcomes=np.asarray(recorded),
        passed=bool(cov_distance <= _GATE_TOL and mean_distance <= _GATE_TOL),
    )
    return output, verification
