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
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ValidationError
from .matcore import as_complex_matrix, is_unitary
from .mbqc import GateProgram
from .modes import DetectionSetup
from .synth import SynthesisSolution

#: Variances below this are treated as deterministic (generalized inverse).
_DETERMINISTIC_VAR = 1e-300


def omega(n_modes: int) -> np.ndarray:
    """Symplectic form for the (q..., p...) ordering: [[0, I], [-I, 0]]."""
    eye = np.eye(n_modes)
    zero = np.zeros((n_modes, n_modes))
    return np.block([[zero, eye], [-eye, zero]])


@dataclass(frozen=True)
class GaussianState:
    """Gaussian state of ``N`` modes: mean vector and covariance matrix.

    ``mean`` has length ``2N`` ordered (q_1..q_N, p_1..p_N); ``cov`` is the
    symmetric ``2N x 2N`` covariance in the [q, p] = 2i convention with
    vacuum variance 1.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1 or mean.size % 2 != 0:
            raise DimensionError("mean must be a vector of even length 2N")
        if cov.shape != (mean.size, mean.size):
            raise DimensionError(
                f"cov shape {cov.shape} does not match mean length {mean.size}"
            )
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ValidationError("state contains non-finite values")
        scale = max(1.0, np.abs(cov).max(initial=0.0))
        if np.abs(cov - cov.T).max(initial=0.0) > 1e-10 * scale:
            raise ValidationError("covariance matrix must be symmetric")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", 0.5 * (cov + cov.T))

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2

    def uncertainty_residual(self) -> float:
        """Most-negative eigenvalue of ``cov + i Omega`` (>= ~0 for physical states)."""
        m = self.cov.astype(complex) + 1j * omega(self.n_modes)
        return float(np.linalg.eigvalsh(m).min())


def vacuum(n_modes: int) -> GaussianState:
    return GaussianState(mean=np.zeros(2 * n_modes), cov=np.eye(2 * n_modes))


def squeezed_input(n_modes: int, r: float, squeeze_axes=None) -> GaussianState:
    """Product of single-mode squeezed vacua.

    Each mode squeezed along ``p`` by default: variances ``(e^{2r}, e^{-2r})``
    for (q, p). ``squeeze_axes`` may list 'q' or 'p' per mode; ``r = 0`` gives
    vacuum.
    """
    if r < 0:
        raise ValidationError(f"squeezing parameter must be >= 0, got {r}")
    if squeeze_axes is None:
        squeeze_axes = ["p"] * n_modes
    axes = list(squeeze_axes)
    if len(axes) != n_modes:
        raise DimensionError(f"{len(axes)} squeeze axes given for {n_modes} modes")
    diag = np.ones(2 * n_modes)
    for k, axis in enumerate(axes):
        if axis == "p":
            diag[k] = np.exp(2 * r)
            diag[n_modes + k] = np.exp(-2 * r)
        elif axis == "q":
            diag[k] = np.exp(-2 * r)
            diag[n_modes + k] = np.exp(2 * r)
        else:
            raise ValidationError(f"squeeze axis must be 'q' or 'p', got {axis!r}")
    return GaussianState(mean=np.zeros(2 * n_modes), cov=np.diag(diag))


@dataclass(frozen=True)
class SymplecticMap:
    """Linear quadrature map ``S`` with ``S Omega S^T = Omega``."""

    s: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] % 2 != 0:
            raise DimensionError(f"symplectic matrix must be 2N x 2N, got {s.shape}")
        n = s.shape[0] // 2
        om = omega(n)
        if np.abs(s @ om @ s.T - om).max() > 1e-10:
            raise ValidationError("matrix does not preserve the symplectic form")
        object.__setattr__(self, "s", s)

    @property
    def n_modes(self) -> int:
        return self.s.shape[0] // 2


def symplectic_from_unitary(u) -> SymplecticMap:
    """Symplectic quadrature action of a mode unitary ``U = X + iY``."""
    arr = as_complex_matrix(u, "u")
    if not is_unitary(arr, 1e-8):
        raise ValidationError("mode transformation must be unitary")
    x, y = arr.real, arr.imag
    return SymplecticMap(np.block([[x, -y], [y, x]]))


def apply(s_map: SymplecticMap, state: GaussianState) -> GaussianState:
    """Propagate a state through a symplectic map (returns a new state)."""
    if s_map.n_modes != state.n_modes:
        raise DimensionError(
            f"map acts on {s_map.n_modes} modes, state has {state.n_modes}"
        )
    s = s_map.s
    return GaussianState(mean=s @ state.mean, cov=s @ state.cov @ s.T)


@dataclass(frozen=True)
class HomodyneRecord:
    """One homodyne click: mode index, angle, outcome, LO global phase."""

    mode: int
    angle: float
    outcome: float
    lo_phase: float = 3 * np.pi / 2

    def __post_init__(self):
        object.__setattr__(self, "angle", float(np.mod(self.angle, 2 * np.pi)))


def _measure_vector(n_modes: int, mode: int, theta: float) -> np.ndarray:
    w = np.zeros(2 * n_modes)
    w[mode] = np.sin(theta)
    w[n_modes + mode] = np.cos(theta)
    return w


def _condition_step(mean, cov, mode: int, theta: float):
    """Schur-complement update for measuring one quadrature of one mode.

    Returns ``(a_map, b_gain, cov_rest, m_mean, m_var)`` where the
    post-measurement mean of the remaining modes is
    ``a_map @ mean + b_gain * outcome`` and their covariance ``cov_rest``.
    Zero measured variance falls back to the generalized inverse (no update).
    """
    n = mean.size // 2
    w = _measure_vector(n, mode, theta)
    m_var = float(w @ cov @ w)
    m_mean = float(w @ mean)
    keep = [i for i in range(2 * n) if i != mode and i != n + mode]
    c_rest = (cov @ w)[keep]
    selector = np.zeros((len(keep), 2 * n))
    selector[np.arange(len(keep)), keep] = 1.0
    if m_var > _DETERMINISTIC_VAR:
        a_map = selector - np.outer(c_rest, w) / m_var
        b_gain = c_rest / m_var
        cov_rest = cov[np.ix_(keep, keep)] - np.outer(c_rest, c_rest) / m_var
    else:
        a_map = selector
        b_gain = np.zeros(len(keep))
        cov_rest = cov[np.ix_(keep, keep)]
    return a_map, b_gain, cov_rest, m_mean, m_var


def homodyne_measure(state: GaussianState, mode: int, theta: float, rng_seed=None):
    """Sample one homodyne outcome and condition the remaining modes.

    The measured quadrature is ``sin(theta) q + cos(theta) p`` on ``mode``;
    its outcome is drawn from the marginal normal law and the other modes are
    updated by Schur-complement conditioning, with the measured mode removed
    from the returned state.

    Returns
    -------
    (record, conditioned_state)
    """
    if not 0 <= mode < state.n_modes:
        raise DimensionError(f"mode {mode} out of range for {state.n_modes} modes")
    rng = np.random.default_rng(rng_seed)
    a_map, b_gain, cov_rest, m_mean, m_var = _condition_step(
        state.mean, state.cov, mode, theta
    )
    outcome = float(rng.normal(m_mean, np.sqrt(max(m_var, 0.0))))
    new_mean = a_map @ state.mean + b_gain * outcome
    record = HomodyneRecord(mode=mode, angle=theta, outcome=outcome)
    return record, GaussianState(mean=new_mean, cov=cov_rest)


def nullifier_variances(state: GaussianState, v) -> np.ndarray:
    """Variances of the graph nullifiers ``p_i - sum_j V_ij q_j``."""
    arr = np.asarray(v, dtype=float)
    n = state.n_modes
    if arr.shape != (n, n):
        raise DimensionError(f"adjacency shape {arr.shape} does not match {n} modes")
    coeff = np.hstack([-arr, np.eye(n)])
    return np.einsum("ij,jk,ik->i", coeff, state.cov, coeff)


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
    seed: int | None = None

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

    The input is a p-squeezed product state at parameter ``r``. The three
    pipeline stages ``G``, then ``Delta_LO``, then ``O`` are applied as
    successive symplectic maps; all modes are then measured simultaneously at
    the plan's angles. Offsets are added (and gains applied) post-sampling.
    The direct covariance (single map from the solution's full unitary) is
    returned alongside for cross-checking.
    """
    if shots < 1:
        raise ValidationError(f"need at least one shot, got {shots}")
    g = np.asarray(setup.g, dtype=complex)
    n = g.shape[0]
    if g.shape != (n, n) or sol.delta_lo.dim != n or sol.gains.shape != (n, n):
        raise DimensionError("setup and solution dimensions do not match")
    if plan.n_modes != n:
        raise DimensionError(f"plan covers {plan.n_modes} modes, pipeline has {n}")
    state = squeezed_input(n, r)
    staged = apply(symplectic_from_unitary(g), state)
    staged = apply(symplectic_from_unitary(sol.delta_lo.matrix()), staged)
    staged = apply(symplectic_from_unitary(sol.gains.astype(complex)), staged)
    direct = apply(symplectic_from_unitary(sol.u_mphd), state)

    meas = np.vstack([_measure_vector(n, k, plan.angles[k]) for k in range(n)])
    raw_mean = meas @ staged.mean
    raw_cov = meas @ staged.cov @ meas.T
    raw_cov = 0.5 * (raw_cov + raw_cov.T)
    rng = np.random.default_rng(seed)
    raw = rng.multivariate_normal(raw_mean, raw_cov, size=int(shots), check_valid="ignore")
    outcomes = raw * plan.gains[None, :] + plan.offsets[None, :]
    scale = np.outer(plan.gains, plan.gains)
    sample_cov = (
        np.cov(outcomes, rowvar=False) if shots > 1 else np.zeros((n, n))
    )
    return SimulationResult(
        outcomes=outcomes,
        angles=plan.angles.copy(),
        sample_mean=outcomes.mean(axis=0),
        sample_cov=np.atleast_2d(sample_cov),
        analytic_mean=plan.gains * raw_mean + plan.offsets,
        analytic_cov=scale * raw_cov,
        staged_cov=staged.cov,
        direct_cov=direct.cov,
        staged_vs_direct_residual=float(np.abs(staged.cov - direct.cov).max()),
        seed=seed,
    )


def export_samples_csv(result: SimulationResult, path) -> None:
    """Write sample records as CSV with columns shot, mode, angle, outcome."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["shot", "mode", "angle", "outcome"])
        for shot in range(result.shots):
            for mode in range(result.outcomes.shape[1]):
                writer.writerow(
                    [shot, mode, repr(float(result.angles[mode])),
                     repr(float(result.outcomes[shot, mode]))]
                )


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
    r: float
    tol: float
    passed: bool


def run_gate_program(
    program: GateProgram,
    input_state: GaussianState,
    r: float,
    seed=None,
    tol: float = 0.1,
):
    """Execute a measurement program on (input + cluster) and verify the gate.

    Prepares the four-mode register (input mode first, three p-squeezed modes
    at ``r``), applies the program unitary, measures p-hat on modes in/1/2
    sequentially with conditioning after each, and applies outcome feedforward
    to the surviving mode's mean. The feedforward uses the exact conditional
    gains, so the corrected output mean is deterministic: it equals the
    accumulated linear map applied to the initial means, minus the
    deterministic displacement contributed by the plan offsets.

    Returns
    -------
    (output_state, verification)
        ``output_state`` is the corrected single-mode Gaussian;
        ``verification`` compares it against ``program.target_gate`` applied
        to the input state, flagging ``passed`` when both the covariance and
        the mean distance are within ``tol``.
    """
    if input_state.n_modes != 1:
        raise DimensionError("input preparation must be a single-mode state")
    if r < 0:
        raise ValidationError(f"cluster squeezing must be >= 0, got {r}")
    n = 4
    mean0 = np.zeros(2 * n)
    mean0[0] = input_state.mean[0]
    mean0[n] = input_state.mean[1]
    cov0 = np.eye(2 * n)
    cov0[0, 0] = input_state.cov[0, 0]
    cov0[0, n] = cov0[n, 0] = input_state.cov[0, 1]
    cov0[n, n] = input_state.cov[1, 1]
    for k in range(1, n):
        cov0[k, k] = np.exp(2 * r)
        cov0[n + k, n + k] = np.exp(-2 * r)

    s_map = symplectic_from_unitary(program.u_th)
    mean = s_map.s @ mean0
    cov = s_map.s @ cov0 @ s_map.s.T

    rng = np.random.default_rng(seed)
    transfer = s_map.s.copy()
    outcome_gains: list[np.ndarray] = []
    recorded = []
    for k in range(3):
        a_map, b_gain, cov, m_mean, m_var = _condition_step(mean, cov, 0, 0.0)
        raw = float(rng.normal(m_mean, np.sqrt(max(m_var, 0.0))))
        recorded.append(program.plan.gains[k] * raw + program.plan.offsets[k])
        mean = a_map @ mean + b_gain * raw
        transfer = a_map @ transfer
        outcome_gains = [a_map @ col for col in outcome_gains]
        outcome_gains.append(b_gain)
    k_matrix = np.stack(outcome_gains, axis=1)
    gains3 = program.plan.gains[:3]
    corrected = mean - (k_matrix / gains3[None, :]) @ np.asarray(recorded)
    output = GaussianState(mean=corrected, cov=cov)

    offset_displacement = -(k_matrix / gains3[None, :]) @ program.plan.offsets[:3]
    target = np.asarray(program.target_gate, dtype=float)
    target_cov = target @ input_state.cov @ target.T
    target_mean = target @ input_state.mean + offset_displacement
    input_transfer = transfer[:, [0, n]]
    cov_distance = float(np.linalg.norm(cov - target_cov))
    mean_distance = float(np.linalg.norm(corrected - target_mean))
    verification = GateVerification(
        cov_distance=cov_distance,
        mean_distance=mean_distance,
        offset_displacement=offset_displacement,
        input_transfer=input_transfer,
        outcomes=np.asarray(recorded),
        r=float(r),
        tol=float(tol),
        passed=bool(cov_distance <= tol and mean_distance <= tol),
    )
    return output, verification
