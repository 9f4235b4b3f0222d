import copy
import csv
import tracemalloc

import numpy as np
import pytest

import refvals as rv
from mphd import (
    FOURIER_GATE,
    DiagonalUnitary,
    GateProgram,
    GaussianState,
    MeasurementPlan,
    PixelPartition,
    SimulationResult,
    apply,
    cluster_unitary,
    detection_setup,
    displacement_program,
    enumerate_solutions,
    export_samples_csv,
    feasibility,
    flip_mode_basis,
    fourier_program,
    homodyne_measure,
    nullifier_variances,
    omega,
    path_adjacency,
    run_gate_program,
    simulate_mphd,
    solve_approx,
    squeezed_input,
    symplectic_from_unitary,
    vacuum,
)
from mphd.errors import DimensionError, ValidationError
from mphd.gsim import _BLOCK, _GATE_TOL
from mphd.modes import DetectionSetup
from mphd.synth import SynthesisSolution


def make_setup(g):
    n = g.shape[0]
    return DetectionSetup(u_t=g, delta_opo=DiagonalUnitary.identity(n), g=g)


def fourier_pipeline(n):
    """A pipeline with G the n-point DFT, trivial LO phases and gains, and a seeded plan."""
    g = np.fft.fft(np.eye(n)) / np.sqrt(n)
    sol = SynthesisSolution(DiagonalUnitary.identity(n), np.eye(n), residual=0.0)
    rng = np.random.default_rng(n)
    plan = MeasurementPlan(
        angles=rng.uniform(0.0, np.pi, n), offsets=rng.normal(0.0, 1.0, n), gains=rng.uniform(1.0, 2.0, n)
    )
    return make_setup(g), sol, plan


def triangular_factor(setup, plan, r):
    """Triangular factor of the measured quadratures of ``setup`` at squeezing ``r``, before the gains."""
    n = plan.n_modes
    staged = symplectic_from_unitary(setup.g) * np.exp(np.repeat([r, -r], n))
    rows = np.sin(plan.angles)[:, None] * staged[:n] + np.cos(plan.angles)[:, None] * staged[n:]
    return np.linalg.qr(rows.T, mode="r")


def lin4_solutions():
    report = feasibility(rv.CLUSTER_4, rv.G_LIN4)
    return enumerate_solutions(report, rv.G_LIN4, rv.CLUSTER_4)


def joint_conditioning_oracle(program, input_state, r):
    """Independent all-at-once conditioning of the three measured p-hats.

    One joint Schur complement of the register before any measurement (the
    regression of ``bench/checks.check_chain``) instead of the simulator's
    sequential Householder steps. Returns ``(transfer, k_matrix, cov, mean,
    w, scale)``: the map from the initial means to the output mean, the
    outcome gains, the output covariance, the joint mean, the measured rows
    and the largest entry of the joint covariance.
    """
    n = 4
    mean0 = np.zeros(2 * n)
    mean0[[0, n]] = input_state.mean
    cov0 = np.diag(np.exp(2 * r * np.array([0, 1, 1, 1, 0, -1, -1, -1])))
    cov0[np.ix_([0, n], [0, n])] = input_state.cov
    u = program.u_th
    s = np.block([[u.real, -u.imag], [u.imag, u.real]])
    cov, mean = s @ cov0 @ s.T, s @ mean0
    w = np.eye(2 * n)[n : n + 3]  # p-hat of modes in, 1, 2
    out = [3, n + 3]
    c_mm, c_km = w @ cov @ w.T, cov[out] @ w.T
    k_matrix = np.linalg.solve(c_mm, c_km.T).T
    transfer = (np.eye(2 * n)[out] - k_matrix @ w) @ s
    cond_cov = cov[np.ix_(out, out)] - k_matrix @ c_km.T
    return transfer, k_matrix, cond_cov, mean, w, np.abs(cov).max()


def rectangular_input():
    """A conditioned mode of a beam-split squeezed pair: a 2 x 3 factor and a nonzero mean."""
    bs = symplectic_from_unitary(rv.S2 / 2 * np.array([[1, 1j], [1j, 1]]))
    return homodyne_measure(apply(bs, squeezed_input(2, 1.0)), 1, 0.3, rng_seed=4)[1]


class TestSymplecticFromUnitary:
    def test_identity(self):
        np.testing.assert_allclose(symplectic_from_unitary(np.eye(3)), np.eye(6))

    def test_single_mode_rotation(self):
        theta = 0.7
        s = symplectic_from_unitary(np.array([[np.exp(1j * theta)]]))
        expected = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        np.testing.assert_allclose(s, expected, atol=1e-15)

    def test_cluster_generator_is_symplectic(self):
        s = symplectic_from_unitary(rv.CLUSTER_4)
        om = omega(4)
        np.testing.assert_allclose(s @ om @ s.T, om, atol=1e-10)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            symplectic_from_unitary(np.eye(2) * 1.5)

    def test_block_layout(self):
        u = rv.CLUSTER_4
        np.testing.assert_array_equal(
            symplectic_from_unitary(u), np.block([[u.real, -u.imag], [u.imag, u.real]])
        )
        np.testing.assert_array_equal(omega(2), [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])


class TestStates:
    def test_vacuum(self):
        state = squeezed_input(1, 0.0)
        np.testing.assert_allclose(state.cov, np.eye(2))

    def test_p_squeezed_variance(self):
        state = squeezed_input(1, 1.0)
        assert state.cov[1, 1] == pytest.approx(np.exp(-2.0))
        assert state.cov[0, 0] == pytest.approx(np.exp(2.0))

    def test_q_squeezed_axis(self):
        state = squeezed_input(2, 1.0, ["q", "p"])
        assert state.cov[0, 0] == pytest.approx(np.exp(-2.0))
        assert state.cov[3, 3] == pytest.approx(np.exp(-2.0))

    def test_pure_state_determinant(self):
        state = squeezed_input(4, 2.0)
        assert np.linalg.det(state.cov) == pytest.approx(1.0, rel=1e-9)

    def test_negative_squeezing_rejected(self):
        with pytest.raises(ValidationError):
            squeezed_input(1, -0.5)

    def test_uncertainty_relation(self):
        state = squeezed_input(3, 1.5)
        assert state.uncertainty_residual() >= -1e-9

    @pytest.mark.parametrize(
        "make", [vacuum, lambda n: squeezed_input(n, 1.0)], ids=["vacuum", "squeezed"]
    )
    def test_negative_mode_count_is_named(self, make):
        with pytest.raises(DimensionError, match="mode count must be non-negative, got -1"):
            make(-1)
        assert make(0).n_modes == 0

    @pytest.mark.parametrize(
        "n, r, axes, error, message",
        [
            (2, 1.0, ["q"], DimensionError, "1 squeeze axes given for 2 modes"),
            (1, 1.0, ["x"], ValidationError, "squeeze axis must be 'q' or 'p'"),
            (1, 800.0, None, ValidationError, "non-finite"),
            (1, 400.0, None, ValidationError, "non-finite"),
        ],
        ids=["axis-count", "bad-axis", "non-finite-factor", "non-finite-variance"],
    )
    @pytest.mark.filterwarnings("error")
    def test_squeezed_input_rejects(self, n, r, axes, error, message):
        with pytest.raises(error, match=message):
            squeezed_input(n, r, axes)


class TestApply:
    def test_identity(self):
        state = squeezed_input(2, 1.0)
        out = apply(np.eye(4), state)
        np.testing.assert_allclose(out.cov, state.cov)

    def test_rotation_swaps_variances(self):
        state = squeezed_input(1, 1.0)
        rot = symplectic_from_unitary(np.array([[1j]]))  # quarter turn
        out = apply(rot, state)
        assert out.cov[0, 0] == pytest.approx(np.exp(-2.0))
        assert out.cov[1, 1] == pytest.approx(np.exp(2.0))

    def test_purity_preserved(self):
        rng = np.random.default_rng(4)
        state = squeezed_input(3, 1.0)
        for _ in range(10):
            u = rv.random_unitary(rng, 3)
            d = rng.uniform(-1, 1, 3)
            squeeze = np.diag(np.concatenate([np.exp(d), np.exp(-d)]))
            s = symplectic_from_unitary(u)
            out = apply(squeeze, apply(s, state))
            assert np.linalg.det(out.cov) == pytest.approx(
                np.linalg.det(state.cov), rel=1e-8
            )
            assert out.uncertainty_residual() >= -1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            apply(np.eye(4), squeezed_input(3, 0.5))

    def test_symplectic_bound_scales_with_the_map(self):
        # the rounding of S Omega S^T grows as ||S||^2 (1.6e-10 at r = 8)
        def rot(t):
            return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])

        for r in range(4, 21):
            s = rot(0.3) @ np.diag([np.exp(r), np.exp(-r)]) @ rot(1.1)
            assert apply(s, vacuum(1)).n_modes == 1

    @pytest.mark.parametrize("s", [2 * np.eye(2), np.diag([np.exp(1.0), np.exp(-2.0)])])
    def test_non_symplectic_rejected(self, s):
        with pytest.raises(ValidationError):
            apply(s, vacuum(1))


class TestHomodyneMeasure:
    def test_vacuum_leaves_product_state(self):
        state = vacuum(3)
        record, rest = homodyne_measure(state, 1, 0.3, rng_seed=0)
        assert rest.n_modes == 2
        np.testing.assert_allclose(rest.cov, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(rest.mean, 0.0, atol=1e-12)
        assert record.mode == 1

    def test_vacuum_outcome_statistics(self):
        rng_seed = 123
        outs = []
        state = vacuum(1)
        rng = np.random.default_rng(rng_seed)
        for _ in range(4000):
            record, _ = homodyne_measure(state, 0, 0.0, rng)
            outs.append(record.outcome)
        outs = np.asarray(outs)
        assert abs(outs.mean()) < 5 / np.sqrt(len(outs))
        assert abs(outs.var() - 1.0) < 5 * np.sqrt(2.0 / len(outs))

    def test_seed_reproducibility(self):
        state = squeezed_input(2, 1.0)
        rec_a, _ = homodyne_measure(state, 0, 0.4, rng_seed=7)
        rec_b, _ = homodyne_measure(state, 0, 0.4, rng_seed=7)
        assert rec_a.outcome == rec_b.outcome

    def test_two_mode_conditioning_against_closed_form(self):
        # (p-squeezed, vacuum) through a 50/50 beam splitter, then measure
        # q-hat on mode 0; closed-form scalar Schur complement for mode 1
        bs = symplectic_from_unitary(rv.S2 / 2 * np.array([[1, 1j], [1j, 1]]))
        prepared = GaussianState(
            mean=np.zeros(4), cov=np.diag([np.exp(2.0), 1.0, np.exp(-2.0), 1.0])
        )
        state = apply(bs, prepared)
        # build the expected conditional covariance by plain block algebra
        cov = state.cov
        measured = 0  # q_0 index
        keep = [1, 3]  # q_1, p_1
        c = cov[keep, measured]
        expected = cov[np.ix_(keep, keep)] - np.outer(c, c) / cov[measured, measured]
        _, rest = homodyne_measure(state, 0, np.pi / 2, rng_seed=1)  # angle pi/2 == q
        np.testing.assert_allclose(rest.cov, expected, atol=1e-12)
        # conditioning sharpened the partner's p variance below its marginal
        assert rest.cov[1, 1] < cov[3, 3] - 1.0

    def test_conditioning_never_beats_marginal(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            u = rv.random_unitary(rng, 3)
            state = apply(symplectic_from_unitary(u), squeezed_input(3, 1.0))
            theta = rng.uniform(0, 2 * np.pi)
            _, rest = homodyne_measure(state, 0, theta, rng_seed=0)
            # marginal covariance of the surviving modes
            keep = [1, 2, 4, 5]
            marginal = state.cov[np.ix_(keep, keep)]
            diff = marginal - rest.cov
            assert np.linalg.eigvalsh(diff).min() >= -1e-10

    def test_zero_variance_quadrature_is_deterministic(self):
        # generalized-inverse limit: the measured quadrature carries no noise
        state = GaussianState(
            mean=[0.5, 0.0, 2.0, 0.0], cov=np.diag([1.0, 1.0, 0.0, 1.0])
        )
        record, rest = homodyne_measure(state, 0, 0.0, rng_seed=0)  # p_0, variance 0
        assert record.outcome == 2.0
        np.testing.assert_allclose(rest.cov, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(rest.mean, 0.0, atol=1e-12)

    def test_invalid_mode(self):
        with pytest.raises(DimensionError):
            homodyne_measure(vacuum(2), 5, 0.0)

    @pytest.mark.parametrize("mode", [True, 1.0, "1", None])
    def test_mode_must_be_an_integer(self, mode):
        with pytest.raises(ValidationError, match="mode must be an integer"):
            homodyne_measure(vacuum(2), mode, 0.0)
        assert homodyne_measure(vacuum(2), np.int64(1), 0.0, rng_seed=0)[0].mode == 1

    def test_factor_shapes(self):
        # a measurement drops the mode's two rows and the pivot column; a noiseless one keeps the columns
        state = rectangular_input()
        _, rest = homodyne_measure(apply(symplectic_from_unitary(rv.CLUSTER_4), squeezed_input(4, 1.0)), 2, 0.3)
        assert rest.factor.shape == (6, 7)
        noiseless = GaussianState(mean=[0.5, 0.0, 2.0, 0.0], cov=np.diag([1.0, 1.0, 0.0, 1.0]))
        assert homodyne_measure(noiseless, 0, 0.0)[1].factor.shape == (2, 4)
        assert homodyne_measure(state, 0, 0.0)[1].factor.shape == (0, 2)

    def test_measured_mode_is_not_conditioned(self):
        # p' = p + e^{-600} q has std ~e^{-300}, so the gain of q on it is ~e^{600}; the
        # measured mode's own rows are dropped unconditioned, so nothing overflows
        state = GaussianState(mean=[0.0, 1e50], cov=np.diag([np.exp(600.0), np.exp(-600.0)]))
        sheared = apply(np.array([[1.0, 0.0], [np.exp(-600.0), 1.0]]), state)
        record, rest = homodyne_measure(sheared, 0, 0.0, rng_seed=0)
        assert record.outcome == pytest.approx(1e50, rel=1e-12)
        assert rest.factor.shape == (0, 1)

    def test_input_state_is_left_unchanged(self):
        state = apply(symplectic_from_unitary(rv.CLUSTER_4), squeezed_input(4, 1.0))
        mean, factor = state.mean.copy(), state.factor.copy()
        homodyne_measure(state, 1, 0.7, rng_seed=2)
        np.testing.assert_array_equal(state.mean, mean)
        np.testing.assert_array_equal(state.factor, factor)


class TestSeeds:
    """A seed that ``np.random.default_rng`` refuses, or a ``bool``, raises a ``ValidationError`` naming it."""

    BAD = [-1, 2.5, 1.0, np.float64(2.0), True, "3", [-1]]

    @pytest.mark.parametrize("seed", BAD)
    def test_every_sampler_names_its_seed(self, seed):
        setup, sol, plan = fourier_pipeline(4)
        with pytest.raises(ValidationError, match="^seed must be a non-negative integer or None"):
            simulate_mphd(setup, sol, plan, 1.0, 2, seed=seed)
        with pytest.raises(ValidationError, match="^seed must be a non-negative integer or None"):
            run_gate_program(fourier_program(), squeezed_input(1, 1.0, ["q"]), 2.0, seed=seed)
        with pytest.raises(ValidationError, match="^rng_seed must be a non-negative integer or None"):
            homodyne_measure(vacuum(2), 0, 0.0, rng_seed=seed)

    def test_accepted_seeds_draw_as_numpy_does(self):
        setup, sol, plan = fourier_pipeline(4)
        for seed in (3, np.int64(3), [3], np.random.SeedSequence(3)):
            result = simulate_mphd(setup, sol, plan, 1.0, 5, seed=seed)
            np.testing.assert_array_equal(result.outcomes, simulate_mphd(setup, sol, plan, 1.0, 5, seed=3).outcomes)
        record, _ = homodyne_measure(vacuum(1), 0, 0.0, rng_seed=np.random.default_rng(4))
        assert record.outcome == homodyne_measure(vacuum(1), 0, 0.0, rng_seed=4)[0].outcome


class TestNullifierVariances:
    def test_vacuum_no_graph(self):
        state = vacuum(3)
        np.testing.assert_allclose(nullifier_variances(state, np.zeros((3, 3))), 1.0)

    def test_four_path_scaling(self):
        s = symplectic_from_unitary(rv.CLUSTER_4)
        variances = {}
        for r in (2.0, 3.0):
            variances[r] = nullifier_variances(apply(s, squeezed_input(4, r)), rv.PATH_4)
        ratio = variances[3.0] / variances[2.0]
        np.testing.assert_allclose(ratio, np.exp(-2.0), atol=1e-6)

    def test_ratios_exact_from_the_factor(self):
        # exact variances (2, 3, 3, 2) e^{-2r}; contracting cov gave 0 and < 0 by r = 10
        s = symplectic_from_unitary(rv.CLUSTER_4)
        for r in range(4, 17):
            variances = nullifier_variances(apply(s, squeezed_input(4, r)), rv.PATH_4)
            assert np.all(variances > 0), f"r = {r}"
            np.testing.assert_allclose(variances * np.exp(2 * r), [2, 3, 3, 2], rtol=1e-9, err_msg=f"r = {r}")

    def test_large_squeezing_limit(self):
        s = symplectic_from_unitary(rv.CLUSTER_4)
        state = apply(s, squeezed_input(4, 8.0))
        assert nullifier_variances(state, rv.PATH_4).max() < 1e-6

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            nullifier_variances(vacuum(3), rv.PATH_4)


class TestSimulateMphd:
    @pytest.mark.parametrize(
        "change, error, message",
        [
            ({"shots": 0}, ValidationError, "at least one shot"),
            ({"r": -0.5}, ValidationError, "squeezing r = -0.5 is outside"),
            ({"setup": make_setup(np.eye(2, dtype=complex))}, DimensionError, "dimensions do not match"),
            ({"plan": MeasurementPlan(angles=[0.0] * 3)}, DimensionError, "plan covers 3 modes"),
            ({"r": 400.0}, ValidationError, "squeezing r = 400.0 is outside"),
            ({"r": np.nan}, ValidationError, "squeezing r = nan is outside"),
        ],
        ids=["no-shots", "negative-r", "setup-of-another-size", "plan-of-another-size", "r-400", "r-nan"],
    )
    @pytest.mark.filterwarnings("error")
    def test_rejects_inputs_outside_its_envelope(self, change, error, message):
        setup, sol, plan = fourier_pipeline(4)
        args = {"setup": setup, "sol": sol, "plan": plan, "r": 1.0, "shots": 2, **change}
        with pytest.raises(error, match=message):
            simulate_mphd(**args)

    @pytest.mark.parametrize("shots", [10.7, 2.0, True, "2", None])
    def test_shots_must_be_an_integer(self, shots):
        setup, sol, plan = fourier_pipeline(4)
        with pytest.raises(ValidationError, match="shots must be an integer"):
            simulate_mphd(setup, sol, plan, 1.0, shots)
        assert simulate_mphd(setup, sol, plan, 1.0, np.int64(3), seed=0).shots == 3

    def test_composed_pipeline_stays_symplectic(self):
        # each stage map is validated on construction; their product must
        # also preserve the symplectic form
        sol = lin4_solutions()[9]
        s_total = (
            symplectic_from_unitary(sol.gains.astype(complex))
            @ symplectic_from_unitary(sol.delta_lo.matrix())
            @ symplectic_from_unitary(rv.G_LIN4)
        )
        om = omega(4)
        assert np.abs(s_total @ om @ s_total.T - om).max() <= 1e-10
        apply(s_total, vacuum(4))  # apply re-validates

    def test_staged_equals_direct_for_all_branches(self):
        setup = make_setup(rv.G_LIN4)
        plan = MeasurementPlan(angles=[0.0] * 4)
        for sol in lin4_solutions():
            for r in (0.0, 1.0, 3.0):
                result = simulate_mphd(setup, sol, plan, r, shots=1, seed=0)
                assert result.staged_vs_direct_residual <= 1e-10

    @pytest.mark.parametrize("r", [8.0, 10.0])
    def test_large_squeezing(self, r):
        setup = make_setup(rv.G_LIN4)
        plan = MeasurementPlan(angles=[0.0] * 4)
        result = simulate_mphd(setup, lin4_solutions()[9], plan, r, shots=1, seed=0)
        assert result.staged_vs_direct_residual <= 1e-9 * np.abs(result.direct_cov).max()

    def test_sample_covariance_matches_analytic(self):
        setup = make_setup(rv.G_LIN4)
        plan = MeasurementPlan(angles=[0.0] * 4)
        sol = lin4_solutions()[9]
        shots = 100_000
        for r in (2.0, 10.0):
            result = simulate_mphd(setup, sol, plan, r=r, shots=shots, seed=11)
            sigma = result.analytic_cov
            for i in range(4):
                for j in range(4):
                    stderr = np.sqrt((sigma[i, i] * sigma[j, j] + sigma[i, j] ** 2) / shots)
                    assert abs(result.sample_cov[i, j] - sigma[i, j]) <= 5 * stderr

    def test_zero_mean_input(self):
        setup = make_setup(rv.G_LIN4)
        plan = MeasurementPlan(angles=[0.0] * 4)
        sol = lin4_solutions()[0]
        shots = 100_000
        result = simulate_mphd(setup, sol, plan, r=2.0, shots=shots, seed=5)
        for i in range(4):
            stderr = np.sqrt(result.analytic_cov[i, i] / shots)
            assert abs(result.sample_mean[i]) <= 5 * stderr

    def test_offsets_and_gains_applied(self):
        setup = make_setup(rv.G_LIN4)
        plan = MeasurementPlan(angles=[0.0] * 4, offsets=[1.0, 0, 0, 0], gains=[2.0, 1, 1, 1])
        sol = lin4_solutions()[0]
        result = simulate_mphd(setup, sol, plan, r=1.0, shots=50_000, seed=3)
        assert result.analytic_mean[0] == pytest.approx(1.0)
        base = simulate_mphd(
            setup, sol, MeasurementPlan(angles=[0.0] * 4), 1.0, shots=1, seed=3
        )
        assert result.analytic_cov[0, 0] == pytest.approx(4 * base.analytic_cov[0, 0])

    def test_deterministic_for_seed(self):
        setup = make_setup(rv.G_LIN4)
        plan = MeasurementPlan(angles=[0.0] * 4)
        sol = lin4_solutions()[0]
        a = simulate_mphd(setup, sol, plan, 2.0, shots=100, seed=9)
        b = simulate_mphd(setup, sol, plan, 2.0, shots=100, seed=9)
        np.testing.assert_array_equal(a.outcomes, b.outcomes)

    def test_single_shot(self):
        setup = make_setup(rv.G_LIN4)
        plan = MeasurementPlan(angles=[0.0] * 4)
        result = simulate_mphd(setup, lin4_solutions()[0], plan, 1.0, shots=1, seed=0)
        assert result.outcomes.shape == (1, 4)
        np.testing.assert_array_equal(result.sample_cov, np.zeros((4, 4)))

    @pytest.mark.parametrize("shots", [2, 1000, 100_000])
    @pytest.mark.parametrize("n", [4, 16, 32])
    def test_sample_statistics_are_those_of_the_outcomes(self, n, shots):
        setup, sol, plan = fourier_pipeline(n)
        result = simulate_mphd(setup, sol, plan, 1.0, shots, seed=4)
        mean = result.outcomes.mean(axis=0)
        cov = np.cov(result.outcomes, rowvar=False)
        assert np.abs(result.sample_mean - mean).max() <= 1e-12 * np.abs(mean).max()
        assert np.abs(result.sample_cov - cov).max() <= 1e-12 * np.abs(cov).max()

    @pytest.mark.parametrize("n", [4, 16, 32])
    def test_outcomes_follow_the_scaled_triangular_factor(self, n):
        # the gains folded into the factor move the samples by rounding only
        setup, sol, plan = fourier_pipeline(n)
        r, shots, seed = 1.0, 1000, 21
        z = np.random.default_rng(seed).standard_normal((shots, n))
        expected = (z @ triangular_factor(setup, plan, r)) * plan.gains + plan.offsets
        outcomes = simulate_mphd(setup, sol, plan, r, shots, seed=seed).outcomes
        assert np.abs(outcomes - expected).max() <= 1e-14 * np.abs(expected).max()

    # one block, one block +- 1 and +- 2 rows, and several blocks plus a short tail
    @pytest.mark.parametrize("extra", [-2, -1, 0, 1, 2, "tail"])
    @pytest.mark.parametrize("n", [1, 4, 7, 32, 64])
    @pytest.mark.parametrize("r, offset", [(1.0, 0.0), (1.0, 1e3), (10.0, 1e3)])
    def test_blocked_pass_equals_one_product(self, n, extra, r, offset):
        # a GEMM of one or two rows rounds differently, so a short tail must join the block before it
        setup, sol, plan = fourier_pipeline(n)
        plan = MeasurementPlan(angles=plan.angles, offsets=plan.offsets + offset, gains=plan.gains)
        step = _BLOCK // n
        shots, seed = 3 * step + 2 if extra == "tail" else step + extra, n + 100
        z = np.random.default_rng(seed).standard_normal((shots, n))
        expected = z @ (triangular_factor(setup, plan, r) * plan.gains) + plan.offsets
        result = simulate_mphd(setup, sol, plan, r, shots, seed=seed)
        np.testing.assert_array_equal(result.outcomes, expected)
        mean, cov = result.outcomes.mean(axis=0), np.atleast_2d(np.cov(result.outcomes, rowvar=False))
        assert np.abs(result.sample_mean - mean).max() <= 1e-12 * np.abs(mean).max()
        assert np.abs(result.sample_cov - cov).max() <= 1e-12 * np.abs(cov).max()

    def test_memory_is_the_outcomes_and_one_block(self):
        setup, sol, plan = fourier_pipeline(4)
        tracemalloc.start()
        try:
            result = simulate_mphd(setup, sol, plan, 1.0, 1_000_000, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= result.outcomes.nbytes + 2**20

    def test_csv_export(self, tmp_path):
        setup = make_setup(rv.G_LIN4)
        plan = MeasurementPlan(angles=[0.1, 0.2, 0.3, 0.4])
        result = simulate_mphd(setup, lin4_solutions()[0], plan, 1.0, shots=3, seed=0)
        path = tmp_path / "samples.csv"
        export_samples_csv(result, path)
        lines = path.read_bytes().split(b"\r\n")
        assert lines.pop() == b""
        assert not any(b"\r" in line or b"\n" in line for line in lines)
        assert lines[0] == b"shot,mode,angle,outcome"
        assert len(lines) == 1 + 3 * 4
        first = lines[1].split(b",")
        assert first[0] == b"0" and first[1] == b"0"
        assert float(first[2]) == pytest.approx(0.1)

    # (5000, 2) spans two of the writer's 4096-shot blocks
    @pytest.mark.parametrize("shape", [(1, 1), (3, 4), (2000, 32), (5000, 2)])
    def test_csv_bytes_match_csv_writer(self, tmp_path, shape):
        rng = np.random.default_rng(sum(shape))
        outcomes = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 18, shape)
        planted = [-0.0, 5e-324, 1e-300, 1e17]
        outcomes.flat[rng.choice(outcomes.size, min(4, outcomes.size), replace=False)] = planted[: outcomes.size]
        angles = rng.uniform(0.0, np.pi, shape[1])
        n = shape[1]
        result = SimulationResult(
            outcomes=outcomes, angles=angles, sample_mean=np.zeros(n), sample_cov=np.zeros((n, n)),
            analytic_mean=np.zeros(n), analytic_cov=np.zeros((n, n)), staged_cov=np.zeros((2 * n, 2 * n)),
            direct_cov=np.zeros((2 * n, 2 * n)), staged_vs_direct_residual=0.0,
        )
        export_samples_csv(result, tmp_path / "samples.csv")
        with open(tmp_path / "reference.csv", "w", newline="", encoding="ascii") as fh:
            writer = csv.writer(fh)
            writer.writerow(["shot", "mode", "angle", "outcome"])
            for shot in range(shape[0]):
                for mode in range(n):
                    writer.writerow(
                        [shot, mode, repr(float(angles[mode])), repr(float(outcomes[shot, mode]))]
                    )
        assert (tmp_path / "samples.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


class TestRunGateProgram:
    def test_fourier_covariance_converges(self):
        program = fourier_program()
        state = squeezed_input(1, 1.0, ["q"])
        target_cov = program.target_gate @ state.cov @ program.target_gate.T
        dist = {}
        for r in (4.0, 5.0, 6.0):
            _, ver = run_gate_program(program, state, r, seed=2)
            dist[r] = ver.cov_distance
            np.testing.assert_allclose(
                np.linalg.norm(_.cov - target_cov), ver.cov_distance
            )
        assert dist[6.0] < dist[5.0] < dist[4.0]
        assert dist[5.0] / dist[4.0] == pytest.approx(np.exp(-2.0), rel=0.1)
        assert dist[6.0] / dist[5.0] == pytest.approx(np.exp(-2.0), rel=0.1)

    def test_distance_falls_at_the_squeezing_rate(self):
        # the exact distance is ~106.2 e^{-2r}: each unit of r divides it by
        # e^2, to 1e-5 from r = 6 on; rounding must not move that ratio
        program = fourier_program()
        state = squeezed_input(1, 1.0, ["q"])
        dist = [run_gate_program(program, state, float(r), seed=2)[1].cov_distance for r in range(6, 14)]
        np.testing.assert_allclose(np.divide(dist[1:], dist[:-1]), np.exp(-2.0), rtol=1e-4)

    @pytest.mark.parametrize("r", [16.0, 20.0])
    def test_large_squeezing_stays_physical(self, r):
        out, ver = run_gate_program(fourier_program(), squeezed_input(1, 1.0, ["q"]), r, seed=1)
        assert out.uncertainty_residual() >= -1e-6
        assert ver.passed

    @pytest.mark.parametrize("theta_3", [0.4, 1.0])
    def test_rotated_output_passes(self, theta_3):
        # theta_3 rotates the output mode: the program implements R(theta_3) F
        state = squeezed_input(1, 1.0, ["q"])
        out, ver = run_gate_program(fourier_program(theta_3), state, 8.0, seed=1)
        _, ref = run_gate_program(fourier_program(), state, 8.0, seed=1)
        assert ver.passed
        assert ver.cov_distance == pytest.approx(ref.cov_distance, rel=1e-6)
        np.testing.assert_allclose(ver.input_transfer, fourier_program(theta_3).target_gate, atol=1e-5)

    def test_corrected_mean_deterministic(self):
        program = fourier_program()
        state = GaussianState(mean=[0.7, -0.3], cov=np.diag([np.exp(-2.0), np.exp(2.0)]))
        out_a, _ = run_gate_program(program, state, 6.0, seed=1)
        out_b, _ = run_gate_program(program, state, 6.0, seed=999)
        np.testing.assert_allclose(out_a.mean, out_b.mean, atol=1e-10)

    def test_corrected_mean_approaches_gate_action(self):
        program = fourier_program()
        state = GaussianState(mean=[0.7, -0.3], cov=np.diag([np.exp(-2.0), np.exp(2.0)]))
        errs = {}
        for r in (4.0, 6.0):
            out, ver = run_gate_program(program, state, r, seed=3)
            errs[r] = np.linalg.norm(out.mean - program.target_gate @ state.mean)
            assert ver.mean_distance == pytest.approx(errs[r])
        assert errs[6.0] < 1e-3
        assert errs[6.0] < errs[4.0] * np.exp(-2.0) * 2.0

    def test_input_transfer_block(self):
        program = fourier_program()
        _, ver = run_gate_program(program, vacuum(1), 7.0, seed=0)
        np.testing.assert_allclose(ver.input_transfer, program.target_gate, atol=1e-5)

    def test_displacement_matches_joint_oracle(self):
        s = 2.0
        program = displacement_program(s)
        state = vacuum(1)
        out, ver = run_gate_program(program, state, 6.0, seed=7)
        _, k_oracle, *_ = joint_conditioning_oracle(program, state, 6.0)
        expected = -k_oracle @ np.array([0.0, 0.0, s])
        np.testing.assert_allclose(ver.offset_displacement, expected, atol=1e-9)
        np.testing.assert_allclose(out.mean, expected, atol=1e-9)

    def test_displacement_magnitude_in_q(self):
        out, _ = run_gate_program(displacement_program(2.0), vacuum(1), 10.0, seed=1)
        np.testing.assert_allclose(out.mean, [-2.0, 0.0], atol=1e-6)

    def test_transfer_matches_joint_oracle(self):
        program = fourier_program()
        state = GaussianState(mean=[0.4, 0.9], cov=np.eye(2))
        transfer, *_ = joint_conditioning_oracle(program, state, 5.0)
        out, _ = run_gate_program(program, state, 5.0, seed=5)
        mean0 = np.zeros(8)
        mean0[0], mean0[4] = state.mean
        np.testing.assert_allclose(out.mean, transfer @ mean0, atol=1e-9)

    def test_no_squeezing_flagged(self):
        # without cluster squeezing the gate cannot act on a distinguishable
        # (squeezed) input state
        program = fourier_program()
        state = squeezed_input(1, 1.0, ["q"])
        _, ver = run_gate_program(program, state, 0.0, seed=0)
        assert not ver.passed
        assert ver.cov_distance > 0.5

    @pytest.mark.parametrize("r", [30.0, 50.0])
    def test_output_mean_carries_no_outcome_rounding(self, r):
        # the outcomes grow as e^{r}; the corrected mean must not inherit their rounding
        state = GaussianState(mean=[100.0, -40.0], cov=np.diag([np.exp(-2.0), np.exp(2.0)]))
        _, ver = run_gate_program(fourier_program(), state, r, seed=0)
        assert ver.mean_distance <= 1e-12
        assert ver.passed

    def test_mean_distance_gates_passed(self):
        program = fourier_program()
        state = GaussianState(mean=[100.0, -40.0], cov=np.diag([np.exp(-2.0), np.exp(2.0)]))
        _, ver = run_gate_program(program, state, 4.0, seed=0)
        assert ver.cov_distance <= _GATE_TOL < ver.mean_distance
        assert not ver.passed
        _, ver = run_gate_program(program, state, 6.0, seed=0)
        assert ver.passed

    def test_uncertainty_preserved(self):
        program = fourier_program()
        out, _ = run_gate_program(program, vacuum(1), 3.0, seed=0)
        assert out.uncertainty_residual() >= -1e-9

    def test_rectangular_input_factor(self):
        # a conditioned mode keeps a 2 x 3 factor; its output equals that of its refactored covariance
        state = rectangular_input()
        assert state.factor.shape == (2, 3)
        out, ver = run_gate_program(fourier_program(), state, 6.0, seed=2)
        ref_out, ref = run_gate_program(fourier_program(), GaussianState(state.mean, state.cov), 6.0, seed=2)
        np.testing.assert_allclose(out.cov, ref_out.cov, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(out.mean, ref_out.mean, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(ver.outcomes, ref.outcomes, rtol=1e-12)

    @pytest.mark.parametrize("r", [0.5, 3.0, 8.0, 12.0])
    @pytest.mark.parametrize("theta_3", [0.0, 0.4])
    @pytest.mark.parametrize(
        "make", [fourier_program, lambda t: displacement_program(1.5, t)], ids=["fourier", "displacement"]
    )
    @pytest.mark.parametrize("square", [True, False], ids=["square-factor", "rectangular-factor"])
    def test_matches_joint_schur_complement(self, make, theta_3, r, square):
        # the reference's own rounding grows as eps times the joint covariance's largest entry
        state = rectangular_input()
        if square:
            state = GaussianState([0.7, -0.3], np.diag([np.exp(-2.0), np.exp(2.0)]))
        program = make(theta_3)
        plan = program.plan
        out, ver = run_gate_program(program, state, r, seed=3)
        transfer, k, cov, mean, w, scale = joint_conditioning_oracle(program, state, r)
        assert np.abs(out.cov - cov).max() <= 1e-14 * scale
        target = program.target_gate @ state.cov @ program.target_gate.T
        assert abs(ver.cov_distance - np.linalg.norm(cov - target)) <= 1e-14 * scale
        np.testing.assert_allclose(ver.input_transfer, transfer[:, [0, 4]], rtol=0, atol=1e-13)
        offset = -k @ (plan.offsets[:3] / plan.gains[:3])
        np.testing.assert_allclose(ver.offset_displacement, offset, rtol=0, atol=1e-13)
        # regression on the raw outcomes, then the feedforward of the recorded ones
        raw = (ver.outcomes - plan.offsets[:3]) / plan.gains[:3]
        corrected = mean[[3, 7]] + k @ (raw - w @ mean) - k / plan.gains[:3] @ ver.outcomes
        assert np.abs(out.mean - corrected).max() <= 1e-13 * (1 + np.abs(raw).max())
        assert out.factor.shape == (2, state.factor.shape[1] + 3)

    def test_program_map_is_built_once(self):
        u = fourier_program().u_th.copy()
        program = GateProgram(MeasurementPlan(angles=[0.0] * 4), FOURIER_GATE, u)
        u[0, 0] = 5.0
        assert program.u_th[0, 0] != 5.0
        with pytest.raises(ValueError, match="read-only"):
            program.u_th[0, 0] = 5.0
        run_gate_program(program, vacuum(1), 1.0, seed=0)
        first = program._symplectic
        run_gate_program(program, vacuum(1), 2.0, seed=0)
        assert program._symplectic is first
        np.testing.assert_array_equal(first, symplectic_from_unitary(program.u_th))

    def test_non_unitary_program_fails_on_every_run(self):
        program = GateProgram(MeasurementPlan(angles=[0.0] * 4), FOURIER_GATE, 1.5 * np.eye(4))
        for _ in range(2):
            with pytest.raises(ValidationError, match="must be unitary"):
                run_gate_program(program, vacuum(1), 1.0)

    @pytest.mark.filterwarnings("error")
    def test_distance_of_a_huge_input_does_not_overflow(self):
        # the true covariance distance is e^{600}, whose square overflows float64
        _, ver = run_gate_program(fourier_program(), squeezed_input(1, 300.0, ["q"]), 1.0, seed=1)
        assert ver.cov_distance == pytest.approx(np.exp(600.0), rel=1e-9)
        assert not ver.passed

    def test_rejects_multimode_input(self):
        with pytest.raises(DimensionError):
            run_gate_program(fourier_program(), vacuum(2), 1.0)

    def test_rejects_negative_squeezing(self):
        with pytest.raises(ValidationError, match="squeezing r = -1.0 is outside"):
            run_gate_program(fourier_program(), vacuum(1), -1.0)

    @pytest.mark.parametrize("r", [400.0, 354.8, 354.6, np.inf, np.nan])
    @pytest.mark.filterwarnings("error")
    def test_rejects_squeezing_that_overflows_before_exponentiating(self, r):
        with pytest.raises(ValidationError, match="non-finite"):
            run_gate_program(fourier_program(), vacuum(1), r)

    @pytest.mark.filterwarnings("error")
    def test_passes_just_below_the_squeezing_cap(self):
        _, check = run_gate_program(fourier_program(), squeezed_input(1, 1.0), 354.0)
        assert check.passed

    def test_rejects_plan_of_another_size(self):
        program = fourier_program()
        short = GateProgram(MeasurementPlan(angles=[0.0] * 3), program.target_gate, program.u_th)
        with pytest.raises(DimensionError):
            run_gate_program(short, vacuum(1), 1.0)


class TestStateValidation:
    def test_asymmetric_cov_rejected(self):
        with pytest.raises(ValidationError):
            GaussianState(mean=[0.0, 0.0], cov=[[1.0, 0.5], [0.0, 1.0]])

    def test_symmetry_tolerance_is_relative(self):
        big = np.exp(20.0)
        GaussianState(mean=[0.0, 0.0], cov=[[big, 1.0], [1.0 + 1e-3, big]])
        with pytest.raises(ValidationError):
            GaussianState(mean=[0.0, 0.0], cov=[[big, 1.0], [1.0 + 1e-6 * big, big]])

    def test_non_psd_cov_rejected(self):
        with pytest.raises(ValidationError, match="positive semidefinite"):
            GaussianState(mean=np.zeros(4), cov=np.diag([1.0, 1.0, -1.0, 1.0]))

    def test_cov_of_another_size_rejected(self):
        with pytest.raises(DimensionError, match="does not match mean length 2"):
            GaussianState(mean=[0.0, 0.0], cov=np.eye(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_state_rejected(self, bad):
        with pytest.raises(ValidationError, match="non-finite"):
            GaussianState(mean=[0.0, bad], cov=np.eye(2))
        with pytest.raises(ValidationError, match="non-finite"):
            GaussianState(mean=[0.0, 0.0], cov=[[1.0, 0.0], [0.0, bad]])

    def test_odd_mean_rejected(self):
        with pytest.raises(DimensionError):
            GaussianState(mean=[0.0, 0.0, 0.0], cov=np.eye(3))


# a builder per frozen dataclass with array fields; a deep copy holds equal arrays, not the same ones
RECORDS = {
    "ClusterSolution": lambda: cluster_unitary(path_adjacency(3)),
    "DiagonalUnitary": lambda: DiagonalUnitary([0.1, 0.2]),
    "ModeBasis": lambda: flip_mode_basis(4),
    "PixelPartition": lambda: PixelPartition.equal(4),
    "DetectionSetup": lambda: detection_setup(flip_mode_basis(4), 0, PixelPartition.equal(4), [0.0] * 4),
    "FeasibilityReport": lambda: feasibility(rv.CLUSTER_4, rv.G_LIN4),
    "SynthesisSolution": lambda: lin4_solutions()[0],
    "ApproxResult": lambda: solve_approx(np.eye(2), np.eye(2), restarts=1),
    "SimulationResult": lambda: simulate_mphd(*fourier_pipeline(2), 1.0, 3, seed=0),
    "GateVerification": lambda: run_gate_program(fourier_program(), squeezed_input(1, 1.0, ["q"]), 1.0, seed=0)[1],
}


@pytest.mark.parametrize("name", RECORDS)
def test_array_records_compare_by_identity(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    assert record == record
    assert (record == copy.deepcopy(record)) is False
