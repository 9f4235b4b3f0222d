"""Correctness checks made apart from the program.

Every check recomputes what it needs with plain numpy (or with the 60-digit
oracle in ``oracle.py``) from the inputs the benchmark generated and the
parameters the program returned. None of them compares against a stored copy
of earlier output. A check raises :class:`CheckError` with a one-line reason.
"""

from __future__ import annotations

import numpy as np

from oracle import gate_reference


class CheckError(Exception):
    """An output of the program failed an independent check."""


def require(ok, what: str) -> None:
    if not ok:
        raise CheckError(what)


def wrap(phi):
    return np.angle(np.exp(1j * np.asarray(phi, dtype=float)))


def symplectic(u: np.ndarray) -> np.ndarray:
    x, y = u.real, u.imag
    return np.block([[x, -y], [y, x]])


def squeezed_cov(n: int, r: float) -> np.ndarray:
    """p-squeezed product input: variances (e^{2r}, e^{-2r}) per mode."""
    return np.diag(np.r_[np.full(n, np.exp(2 * r)), np.full(n, np.exp(-2 * r))])


def measure_rows(n: int, modes, angles) -> np.ndarray:
    """Rows w with w . x = sin(theta) q_k + cos(theta) p_k."""
    w = np.zeros((len(modes), 2 * n))
    for row, (k, theta) in enumerate(zip(modes, angles)):
        w[row, k] = np.sin(theta)
        w[row, n + k] = np.cos(theta)
    return w


def mphd_unitary(gains, phases, g) -> np.ndarray:
    return (np.asarray(gains, dtype=float) * np.exp(1j * np.asarray(phases))[None, :]) @ g


def check_orthogonal(o, what: str, tol: float = 1e-10) -> None:
    o = np.asarray(o)
    require(np.isrealobj(o) or np.abs(o.imag).max() <= tol, f"{what}: gains are not real")
    o = np.real(o)
    require(np.linalg.norm(o.T @ o - np.eye(o.shape[0])) <= tol * o.shape[0], f"{what}: gains are not orthogonal")


# ---------------------------------------------------------------------------
# graph states

def check_cluster(v, a, x, u, tol: float = 1e-8) -> None:
    """VAV = I - A, A > 0, A = W (I + L^2)^-1 W^T from eigh(V), X X^T = A, U = (I + iV) X."""
    v, a, x, u = (np.asarray(m) for m in (v, a, x, u))
    n = v.shape[0]
    eye = np.eye(n)
    scale = 1.0 + np.linalg.norm(v, 2) ** 2
    require(np.linalg.norm(v @ a @ v - (eye - a)) <= tol * scale, "cluster: VAV != I - A")
    require(np.linalg.eigvalsh(0.5 * (a + a.T)).min() > 0.0, "cluster: A is not positive definite")
    lam, w = np.linalg.eigh(v)
    reference = (w / (1.0 + lam**2)[None, :]) @ w.T
    require(np.linalg.norm(a - reference) <= tol, "cluster: A differs from W (I + L^2)^-1 W^T")
    require(np.linalg.norm(x @ x.T - a) <= tol, "cluster: X X^T != A")
    require(np.linalg.norm(u - (eye + 1j * v) @ x) <= tol * scale, "cluster: U != (I + iV) X")
    require(np.linalg.norm(u.conj().T @ u - eye) <= tol * n, "cluster: U is not unitary")


# ---------------------------------------------------------------------------
# exact synthesis of planted targets U = O . Delta . G

def _branch_residuals(gains, phases, g, u):
    prod = (gains * np.exp(1j * phases)[:, None, :]) @ g
    return np.linalg.norm(prod - u[None], axis=(1, 2))


def check_exact(sol, o, phi, g, u, tol: float = 1e-9) -> None:
    """The solution equals the planted (O, Delta) up to per-mode sign flips."""
    gains, phases = np.asarray(sol.gains), np.asarray(sol.delta_lo.phases)
    check_orthogonal(gains, "solve_exact")
    signs = np.sign(np.einsum("ij,ij->j", gains, o))
    require(np.all(signs != 0), "solve_exact: a gain column is orthogonal to the planted one")
    require(np.linalg.norm(gains - o * signs[None, :]) <= tol * u.shape[0], "solve_exact: gains differ from the planted O beyond sign flips")
    flipped = phi + np.pi * (signs < 0)
    require(np.abs(wrap(phases - flipped)).max() <= tol, "solve_exact: phases differ from the planted Delta beyond sign flips")
    require(_branch_residuals(gains[None], phases[None], g, u)[0] <= tol * np.sqrt(u.shape[0]), "solve_exact: O Delta G != U")


def check_enumeration(sols, o, phi, g, u, tol: float = 1e-9) -> None:
    """All 2^N branches, distinct and exact, and the planted (O, Delta) among them."""
    n = u.shape[0]
    require(len(sols) == 2**n, f"enumerate: {len(sols)} solutions for N={n}")
    ids = {s.branch_id for s in sols}
    require(len(ids) == 2**n and all(len(b) == n for b in ids), "enumerate: branch ids are not the 2^N distinct bit vectors")
    gains = np.stack([s.gains for s in sols])
    phases = np.stack([s.delta_lo.phases for s in sols])
    eye = np.eye(n)
    ortho = np.linalg.norm(np.transpose(gains, (0, 2, 1)) @ gains - eye[None], axis=(1, 2))
    require(ortho.max() <= tol * n, "enumerate: a gain matrix is not orthogonal")
    require(_branch_residuals(gains, phases, g, u).max() <= tol * np.sqrt(n), "enumerate: a branch has O Delta G != U")
    match = (np.linalg.norm(gains - o[None], axis=(1, 2)) <= tol * n) & (np.abs(wrap(phases - phi[None])).max(axis=1) <= tol)
    require(np.count_nonzero(match) == 1, "enumerate: the planted (O, Delta) is not among the branches")


def check_distance(dist, sol, g, u, tol: float = 1e-9) -> None:
    own = np.linalg.norm(mphd_unitary(sol.gains, sol.delta_lo.phases, g) - u)
    require(abs(dist - own) <= tol * np.sqrt(u.shape[0]) and dist <= tol * np.sqrt(u.shape[0]), "verify_solution: distance is not the exact-solution residual")


# ---------------------------------------------------------------------------
# approximate synthesis

def check_approx(gains, phases, residual, trace, iterations, u, g, planted: bool) -> None:
    """Procrustes-optimal gains, closed-form optimal phases, monotone trace."""
    gains, phases, u, g = (np.asarray(m) for m in (gains, phases, u, g))
    tol = 1e-9 * np.linalg.norm(u)
    check_orthogonal(gains, "solve_approx")
    own = np.linalg.norm(mphd_unitary(gains, phases, g) - u)
    require(abs(own - residual) <= tol, "solve_approx: reported residual differs from ||O Delta G - U||")
    b = (np.exp(1j * phases)[:, None] * g @ u.conj().T).real
    require(np.trace(gains @ b) >= np.linalg.svd(b, compute_uv=False).sum() - tol, "solve_approx: gains are not Procrustes-optimal for the phases")
    best = np.angle(np.diag(gains.T @ u @ g.conj().T))
    at_best = np.linalg.norm(mphd_unitary(gains, best, g) - u)
    require(own - at_best <= tol, "solve_approx: a phase is not at its closed-form coordinate minimiser")
    trace = np.asarray(trace, dtype=float)
    require(len(trace) == iterations and iterations >= 1, "solve_approx: iterations != len(objective_trace)")
    require(np.all(np.diff(trace) <= 0.0), "solve_approx: objective trace is not monotone")
    require(abs(trace[-1] - residual) <= tol, "solve_approx: trace does not end at the residual")
    if planted:
        require(residual <= 1e-6, f"solve_approx: planted target left at residual {residual:.2e}")


# ---------------------------------------------------------------------------
# Gaussian simulation

def expected_measurement(u_full, angles, gains, offsets, r):
    """Mean and covariance of the scaled homodyne record, propagated here."""
    n = u_full.shape[0]
    s = symplectic(u_full)
    w = measure_rows(n, range(n), angles)
    raw = w @ s @ squeezed_cov(n, r) @ s.T @ w.T
    return np.asarray(offsets, dtype=float), np.outer(gains, gains) * raw


def check_moments(mean, cov, sample_mean, sample_cov, shots: int, what: str) -> None:
    """Sample mean and covariance within 6 sigma of the analytic law."""
    d = np.diag(cov)
    require(np.all(np.abs(sample_mean - mean) <= 6.0 * np.sqrt(d / shots) + 1e-12), f"{what}: sample mean beyond 6 sigma")
    sd = np.sqrt((np.outer(d, d) + cov**2) / max(shots - 1, 1))
    require(np.all(np.abs(sample_cov - cov) <= 6.0 * sd + 1e-12), f"{what}: sample covariance beyond 6 sigma")


def check_simulation(res, u_full, plan, r, shots) -> None:
    n = u_full.shape[0]
    mean, cov = expected_measurement(u_full, plan.angles, plan.gains, plan.offsets, r)
    scale = np.abs(cov).max()
    require(res.outcomes.shape == (shots, n), "simulate: outcome array has the wrong shape")
    require(np.array_equal(res.angles, plan.angles), "simulate: angles differ from the plan")
    require(np.abs(res.analytic_cov - cov).max() <= 1e-9 * scale, "simulate: analytic covariance differs from the propagated one")
    require(np.abs(res.analytic_mean - mean).max() <= 1e-12 * (1 + np.abs(mean).max()), "simulate: analytic mean differs from the offsets")
    require(res.staged_vs_direct_residual <= 1e-9 * np.abs(res.direct_cov).max(), "simulate: staged and direct covariances differ")
    own_mean = res.outcomes.mean(axis=0)
    own_cov = np.atleast_2d(np.cov(res.outcomes, rowvar=False))
    require(np.abs(res.sample_mean - own_mean).max() <= 1e-9 * (1 + np.abs(own_mean).max()), "simulate: sample mean is not the mean of the outcomes")
    require(np.abs(res.sample_cov - own_cov).max() <= 1e-9 * (1 + np.abs(own_cov).max()), "simulate: sample covariance is not that of the outcomes")
    check_moments(mean, cov, own_mean, own_cov, shots, "simulate")


def parse_csv(path, n_modes: int):
    """Read a sample CSV: header, CRLF line ends, shot-major rows."""
    with open(path, "rb") as fh:
        data = fh.read()
    lines = data.split(b"\r\n")
    require(lines[-1] == b"" and b"\n" not in data.replace(b"\r\n", b""), "csv: lines do not all end with CRLF")
    require(lines[0] == b"shot,mode,angle,outcome", "csv: header is not shot,mode,angle,outcome")
    rows = lines[1:-1]
    require(len(rows) % n_modes == 0, "csv: row count is not a multiple of the mode count")
    fields = np.array([row.split(b",") for row in rows], dtype=object)
    require(fields.ndim == 2 and fields.shape[1] == 4, "csv: rows do not have four fields")
    shots = len(rows) // n_modes
    index = np.arange(len(rows))
    require(np.array_equal(fields[:, 0].astype(int), index // n_modes), "csv: shot column is not shot-major")
    require(np.array_equal(fields[:, 1].astype(int), index % n_modes), "csv: mode column is out of order")
    angles = fields[:, 2].astype(float).reshape(shots, n_modes)
    outcomes = fields[:, 3].astype(float).reshape(shots, n_modes)
    return angles, outcomes


def check_csv(path, res) -> None:
    shots, n = res.outcomes.shape
    angles, outcomes = parse_csv(path, n)
    require(outcomes.shape == (shots, n), "csv: not shots x N rows")
    require(np.array_equal(outcomes, res.outcomes), "csv: outcomes differ from the stored values")
    require(np.array_equal(angles, np.broadcast_to(res.angles, angles.shape)), "csv: angles differ from the stored values")


# ---------------------------------------------------------------------------
# measurement-based gates and homodyne chains

def check_gate(out_mean, out_cov, offsets, gains, r, r_in, cov_distance) -> None:
    """Output covariance against the 60-digit joint Schur complement.

    The simulator's error must stay below 1 % of the true distance between
    the finite-squeezing output and the ideal gate, the effect the program
    reports; the mean must follow the exact conditional gain.
    """
    ref_cov, k_gain, distance = gate_reference(float(r), float(r_in))
    out_cov = np.asarray(out_cov, dtype=float)
    err = np.linalg.norm(out_cov - ref_cov)
    require(err <= 1e-2 * distance, f"gate: covariance off the 60-digit reference by {err:.2e} (true distance {distance:.2e})")
    predicted = -k_gain @ (np.asarray(offsets[:3], dtype=float) / np.asarray(gains[:3], dtype=float))
    require(np.linalg.norm(np.asarray(out_mean) - predicted) <= 1e-8 * (1 + np.linalg.norm(predicted)), "gate: corrected mean differs from -K (offsets / gains)")
    target = np.diag([np.exp(2 * r_in), np.exp(-2 * r_in)])
    require(abs(cov_distance - np.linalg.norm(out_cov - target)) <= 1e-9 * (1 + cov_distance), "gate: reported cov_distance is not ||cov - target||")


def check_chain(records, final, mean0, cov0, angles) -> None:
    """Sequential homodyne conditioning against one joint Schur complement."""
    n = mean0.size // 2
    m = len(angles)
    require([rec.mode for rec in records] == [0] * m, "homodyne: a record names the wrong mode")
    require(np.allclose([rec.angle for rec in records], np.mod(angles, 2 * np.pi), rtol=0, atol=1e-15), "homodyne: a record carries the wrong angle")
    w = measure_rows(n, range(m), angles)
    keep = np.r_[np.arange(m, n), np.arange(n + m, 2 * n)]
    c_mm = w @ cov0 @ w.T
    c_km = cov0[keep] @ w.T
    gain = np.linalg.solve(c_mm, c_km.T).T
    x = np.array([rec.outcome for rec in records])
    cov = cov0[np.ix_(keep, keep)] - gain @ c_km.T
    mean = mean0[keep] + gain @ (x - w @ mean0)
    scale = np.abs(cov0).max()
    require(np.abs(final.cov - cov).max() <= 1e-9 * scale, "homodyne: conditioned covariance differs from the joint Schur complement")
    require(np.abs(final.mean - mean).max() <= 1e-8 * (1 + np.abs(x).max()), "homodyne: conditioned mean differs from the joint regression")
    z = np.linalg.solve(np.linalg.cholesky(c_mm), x - w @ mean0)
    require(np.abs(z).max() <= 6.0, "homodyne: outcomes beyond 6 sigma of their joint law")
