"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and asserts its criterion at the stated tolerance.
"""

import numpy as np

import refvals as rv
from mphd import (
    DiagonalUnitary,
    FOURIER_GATE,
    MeasurementPlan,
    PixelPartition,
    apply,
    detection_setup,
    displacement_program,
    enumerate_solutions,
    feasibility,
    flip_mode_basis,
    fourier_program,
    linear_cluster_3,
    is_real_orthogonal,
    m_shear,
    m_tele,
    build_u_tf,
    nullifier_variances,
    run_gate_program,
    simulate_mphd,
    solve_approx,
    solve_exact,
    squeezed_input,
    symplectic_from_unitary,
    symmetric_x,
    solve_a,
    validate_cluster,
    vacuum,
)
from mphd.modes import DetectionSetup
from test_gsim import joint_conditioning_oracle
from test_synth import CZ2_G, CZ2_TARGET, phase_scan_oracle


def report(number: int, description: str, ok: bool):
    print(f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_01_detection_matrix():
    basis = flip_mode_basis(4)
    u_t = detection_setup(basis, 0, PixelPartition.equal(4)).u_t
    err = np.abs(u_t - rv.DETECTION_4).max()
    report(1, f"integrated detection matrix entrywise error {err:.2e} <= 1e-8", err <= 1e-8)


def test_criterion_02_feasibility_diagonal():
    fre = feasibility(rv.CLUSTER_4, rv.G_LIN4)
    d_err = np.abs(fre.d_diagonal() - rv.D_LIN4).max()
    ok = fre.feasible and d_err <= 1e-9 and fre.offdiag_residual <= 1e-12
    report(
        2,
        f"linear-cluster diagonal error {d_err:.2e} <= 1e-9, "
        f"offdiag {fre.offdiag_residual:.2e} <= 1e-12",
        ok,
    )


def test_criterion_03_published_solutions():
    two_dp = 5e-3 + 1e-12
    fre = feasibility(rv.CLUSTER_4, rv.G_LIN4)
    sols = enumerate_solutions(fre, rv.G_LIN4, rv.CLUSTER_4)
    lin_err = min(
        max(
            np.abs(s.delta_lo.diagonal() - rv.DELTA_LIN4_PRINTED).max(),
            np.abs(s.gains - rv.O_LIN4_PRINTED).max(),
        )
        for s in sols
    )
    fre_tf = feasibility(rv.GATE_TARGET, rv.G_GATE)
    sols_tf = enumerate_solutions(fre_tf, rv.G_GATE, rv.GATE_TARGET)
    tf_err = min(
        max(
            np.abs(s.delta_lo.diagonal() - rv.DELTA_GATE_PRINTED).max(),
            np.abs(s.gains - rv.O_GATE_PRINTED).max(),
        )
        for s in sols_tf
    )
    product_err = np.linalg.norm(
        (rv.O_GATE * rv.DELTA_GATE[None, :]) @ rv.G_GATE - rv.GATE_TARGET
    )
    ok = (
        len(sols) == 16
        and len(sols_tf) == 16
        and lin_err <= two_dp
        and tf_err <= two_dp
        and product_err <= 1e-9
    )
    report(
        3,
        f"published branches matched to 2 dp (errors {lin_err:.4f}, {tf_err:.4f}), "
        f"16 branches each, product identity {product_err:.2e} <= 1e-9",
        ok,
    )


def test_criterion_04_cluster_construction():
    a = solve_a(rv.PATH_3)
    a_err = np.abs(a - rv.A_PATH3).max()
    x_err = np.abs(symmetric_x(a) - rv.XS_PATH3).max()
    check = validate_cluster(linear_cluster_3(), rv.PATH_3)
    ok = a_err <= 1e-12 and x_err <= 1e-12 and max(check.residuals.values()) <= 1e-10
    report(
        4,
        f"three-path gains {a_err:.2e} <= 1e-12, root {x_err:.2e} <= 1e-12, "
        f"three-mode generator validates at 1e-10",
        ok,
    )


def test_criterion_05_gate_calculus():
    tele_err = np.abs(m_tele(np.pi / 2, np.pi / 2) - np.eye(2)).max()
    comp_err = np.abs(m_shear(0.0) @ m_tele(np.pi / 2, np.pi / 2) - FOURIER_GATE).max()
    u_err = np.abs(build_u_tf(0.0) - rv.GATE_TARGET).max()
    ok = tele_err <= 1e-15 and comp_err <= 1e-15 and u_err <= 1e-12
    report(
        5,
        f"teleport identity {tele_err:.1e}, shear composition {comp_err:.1e} "
        f"(machine exact), circuit assembly {u_err:.2e} <= 1e-12",
        ok,
    )


def test_criterion_06_staged_vs_direct():
    setup = DetectionSetup(u_t=rv.G_LIN4, delta_opo=DiagonalUnitary.identity(4), g=rv.G_LIN4)
    plan = MeasurementPlan(angles=[0.0] * 4)
    fre = feasibility(rv.CLUSTER_4, rv.G_LIN4)
    worst = 0.0
    for sol in enumerate_solutions(fre, rv.G_LIN4, rv.CLUSTER_4):
        for r in (0.0, 1.0, 3.0):
            result = simulate_mphd(setup, sol, plan, r, shots=1, seed=0)
            worst = max(worst, result.staged_vs_direct_residual)
    report(6, f"staged vs direct covariance deviation {worst:.2e} <= 1e-10", worst <= 1e-10)


def test_criterion_07_nullifier_scaling():
    s = symplectic_from_unitary(rv.CLUSTER_4)
    variances = {
        r: nullifier_variances(apply(s, squeezed_input(4, r)), rv.PATH_4)
        for r in (0.0, 1.0, 2.0, 3.0)
    }
    worst = max(
        np.abs(variances[r] / variances[r - 1] - np.exp(-2.0)).max()
        for r in (1.0, 2.0, 3.0)
    )
    report(7, f"nullifier variance ratio e^-2 within {worst:.2e} <= 1e-9", worst <= 1e-9)


def test_criterion_08_mbqc_convergence():
    program = fourier_program()
    state = squeezed_input(1, 1.0, ["q"])
    _, ver4 = run_gate_program(program, state, 4.0, seed=2)
    _, ver5 = run_gate_program(program, state, 5.0, seed=2)
    ratio = ver5.cov_distance / ver4.cov_distance
    rate_ok = abs(ratio - np.exp(-2.0)) <= 0.1 * np.exp(-2.0)

    s = 2.0
    disp = displacement_program(s)
    _, ver = run_gate_program(disp, vacuum(1), 6.0, seed=7)
    _, k_oracle, *_ = joint_conditioning_oracle(disp, vacuum(1), 6.0)
    mean_err = np.abs(ver.offset_displacement - (-k_oracle @ [0.0, 0.0, s])).max()
    ok = rate_ok and mean_err <= 1e-9
    report(
        8,
        f"gate covariance error ratio {ratio:.4f} = e^-2 within 10%, "
        f"displacement mean vs oracle {mean_err:.2e} <= 1e-9",
        ok,
    )


def test_criterion_09_approximate_synthesis():
    feasible = solve_approx(rv.CLUSTER_4, rv.G_LIN4, restarts=8, seed=1)
    infeasible = solve_approx(CZ2_TARGET, CZ2_G, restarts=8, seed=3)
    monotone = all(
        t[i + 1] <= t[i] + 1e-12
        for t in (feasible.objective_trace, infeasible.objective_trace)
        for i in range(len(t) - 1)
    )
    scan = phase_scan_oracle(CZ2_TARGET, step=1e-2)
    scan_err = abs(infeasible.solution.residual - scan)
    ok = feasible.solution.residual <= 1e-6 and monotone and scan_err <= 1e-2
    report(
        9,
        f"feasible target reached {feasible.solution.residual:.2e} <= 1e-6, trace "
        f"monotone, infeasible residual within {scan_err:.2e} of the phase-grid scan",
        ok,
    )


def test_criterion_10_randomized_soundness():
    rng = np.random.default_rng(12345)
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(2, 6))
        g = rv.G_LIN4 if (trial % 4 == 0 and n == 4) else rv.random_unitary(rng, n)
        delta = DiagonalUnitary(rng.uniform(0, 2 * np.pi, n))
        gains = rv.random_orthogonal(rng, n)
        u_th = (gains * delta.diagonal()[None, :]) @ g
        fre = feasibility(u_th, g)
        assert fre.feasible
        sol = solve_exact(fre, g, u_th, tuple(rng.integers(0, 2, n)))
        assert is_real_orthogonal(sol.gains, 1e-9)
        worst = max(worst, sol.residual)
    report(
        10,
        f"200 random feasible instances all reconstruct, worst residual "
        f"{worst:.2e} <= 1e-9",
        worst <= 1e-9,
    )
