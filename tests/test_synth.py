import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import refvals as rv
from mphd import (
    DiagonalUnitary,
    cluster_unitary,
    enumerate_solutions,
    feasibility,
    fourier_program,
    linear_cluster_4,
    is_real_orthogonal,
    solve_approx,
    solve_exact,
    verify_solution,
    wrap_angle,
)
from mphd.errors import (
    CapacityError,
    DimensionError,
    FeasibilityError,
    InternalConsistencyError,
    ValidationError,
)
from mphd.synth import SynthesisSolution

CZ2_TARGET = cluster_unitary(np.array([[0.0, 1.0], [1.0, 0.0]])).u
CZ2_G = np.eye(2, dtype=complex)


def phase_scan_oracle(u, step=1e-2):
    """Best achievable distance over a phase grid, via the closed-form
    nuclear-norm expression for the optimal 2x2 gain matrix."""
    grid = np.arange(0.0, 2 * np.pi, step)
    p1, p2 = np.meshgrid(grid, grid, indexing="ij")
    # columns of Re(U diag(e^{-i p1}, e^{-i p2}))
    col1 = np.multiply.outer(u[:, 0], np.exp(-1j * p1))
    col2 = np.multiply.outer(u[:, 1], np.exp(-1j * p2))
    m11, m21 = col1[0].real, col1[1].real
    m12, m22 = col2[0].real, col2[1].real
    fro2 = m11**2 + m21**2 + m12**2 + m22**2
    det = m11 * m22 - m12 * m21
    nuclear = np.sqrt(fro2 + 2 * np.abs(det))
    return float(np.sqrt(np.maximum(4.0 - 2.0 * nuclear, 0.0)).min())


class TestFeasibility:
    def test_target_equals_g(self):
        report = feasibility(rv.G_LIN4, rv.G_LIN4)
        assert report.feasible
        np.testing.assert_allclose(report.d_candidate, np.eye(4), atol=1e-12)

    def test_linear_cluster_diagonal(self):
        report = feasibility(rv.CLUSTER_4, rv.G_LIN4)
        assert report.feasible
        assert report.offdiag_residual <= 1e-12
        np.testing.assert_allclose(report.d_diagonal(), rv.D_LIN4, atol=1e-9)

    def test_gate_diagonal(self):
        report = feasibility(rv.GATE_TARGET, rv.G_GATE)
        assert report.feasible
        np.testing.assert_allclose(report.d_diagonal(), rv.D_GATE, atol=1e-9)

    def test_infeasible_target(self):
        report = feasibility(CZ2_TARGET, CZ2_G)
        assert not report.feasible
        assert report.offdiag_residual > 0.9  # D = i * adjacency

    def test_non_unitary_input_named(self):
        bad = np.eye(4) * 1.5
        with pytest.raises(ValidationError, match="u_th"):
            feasibility(bad, rv.G_LIN4)
        with pytest.raises(ValidationError, match="g"):
            feasibility(np.eye(4), bad)

    def test_g_checked_before_u_th(self):
        # the identity target is G itself, so a non-unitary G must be named as g
        bad = np.eye(4) * 1.5
        with pytest.raises(ValidationError, match="^g is not unitary"):
            feasibility(bad, bad)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            feasibility(np.eye(3), np.eye(4))

    def test_non_square(self):
        with pytest.raises(DimensionError, match="must be square"):
            feasibility(np.ones((2, 3)), np.ones((2, 3)))


class TestSolveExact:
    def test_principal_branch_of_trivial_problem(self):
        report = feasibility(rv.G_LIN4, rv.G_LIN4)
        sol = solve_exact(report, rv.G_LIN4, rv.G_LIN4)
        np.testing.assert_allclose(sol.delta_lo.diagonal(), 1.0, atol=1e-12)
        np.testing.assert_allclose(sol.gains, np.eye(4), atol=1e-12)
        assert sol.residual <= 1e-12

    def test_published_linear_cluster_branch(self):
        report = feasibility(rv.CLUSTER_4, rv.G_LIN4)
        sol = solve_exact(report, rv.G_LIN4, rv.CLUSTER_4, branch=(1, 0, 0, 1))
        np.testing.assert_allclose(sol.delta_lo.diagonal(), rv.DELTA_LIN4, atol=1e-12)
        np.testing.assert_allclose(sol.gains, rv.O_LIN4, atol=1e-12)
        assert sol.residual <= 1e-12

    def test_published_gate_branch(self):
        report = feasibility(rv.GATE_TARGET, rv.G_GATE)
        sol = solve_exact(report, rv.G_GATE, rv.GATE_TARGET, branch=(1, 0, 0, 1))
        np.testing.assert_allclose(sol.delta_lo.diagonal(), rv.DELTA_GATE, atol=1e-12)
        np.testing.assert_allclose(sol.gains, rv.O_GATE, atol=1e-12)

    def test_infeasible_report_refused(self):
        report = feasibility(CZ2_TARGET, CZ2_G)
        with pytest.raises(FeasibilityError):
            solve_exact(report, CZ2_G, CZ2_TARGET)

    def test_forged_feasible_report_is_an_internal_error(self):
        # U^T U is not diagonal, so no real O exists; the forged flag lets the check catch it
        c, s = np.cos(0.3), np.sin(0.3)
        u = np.array([[c, 1j * s], [1j * s, c]])
        report = dataclasses.replace(feasibility(u, CZ2_G), feasible=True)
        # a failed principal build is not cached: every call raises again
        for build in (solve_exact, solve_exact, enumerate_solutions):
            with pytest.raises(InternalConsistencyError, match="not real orthogonal"):
                build(report, CZ2_G, u)

    def test_branch_length_checked(self):
        report = feasibility(rv.G_LIN4, rv.G_LIN4)
        with pytest.raises(DimensionError):
            solve_exact(report, rv.G_LIN4, rv.G_LIN4, branch=(0, 1))

    @pytest.mark.parametrize("branch", [[0.7, 1], [0, 2], [-1, 0]])
    def test_branch_entries_must_be_bits(self, branch):
        g = np.eye(2, dtype=complex)
        with pytest.raises(ValidationError):
            solve_exact(feasibility(g, g), g, g, branch)

    def test_product_read_only(self):
        report = feasibility(rv.CLUSTER_4, rv.G_LIN4)
        sol = solve_exact(report, rv.G_LIN4, rv.CLUSTER_4, branch=(1, 0, 0, 1))
        with pytest.raises(ValueError):
            sol.u_mphd[0, 0] = 0.0


class TestPrincipalOncePerReport:
    """The principal branch is built once per feasibility report, whatever asks for it."""

    @staticmethod
    def count_principal_builds(monkeypatch):
        calls = []

        def counting(m, tol):
            calls.append(tol)
            return is_real_orthogonal(m, tol)

        monkeypatch.setattr("mphd.synth.is_real_orthogonal", counting)
        return calls

    def test_solve_exact_and_enumerate_share_one_build(self, monkeypatch):
        calls = self.count_principal_builds(monkeypatch)
        report = feasibility(rv.CLUSTER_4, rv.G_LIN4)
        singles = [
            solve_exact(report, rv.G_LIN4, rv.CLUSTER_4, bits)
            for bits in itertools.product((0, 1), repeat=4)
        ]
        family = enumerate_solutions(report, rv.G_LIN4, rv.CLUSTER_4)
        assert len(calls) == 1
        for single, branch in zip(singles, family):
            assert single.branch_id == branch.branch_id
            assert np.array_equal(single.gains, branch.gains)
            assert np.array_equal(single.delta_lo.phases, branch.delta_lo.phases)

    def test_solutions_do_not_alias_the_cached_principal(self):
        report = feasibility(rv.CLUSTER_4, rv.G_LIN4)
        first = solve_exact(report, rv.G_LIN4, rv.CLUSTER_4)
        gains, phases = first.gains.copy(), first.delta_lo.phases.copy()
        first.gains[:] = 0.0
        first.delta_lo.phases[:] = 0.0
        again = solve_exact(report, rv.G_LIN4, rv.CLUSTER_4)
        assert np.array_equal(again.gains, gains)
        assert np.array_equal(again.delta_lo.phases, phases)

    def test_a_replaced_report_builds_its_own(self, monkeypatch):
        calls = self.count_principal_builds(monkeypatch)
        report = feasibility(rv.CLUSTER_4, rv.G_LIN4)
        solve_exact(report, rv.G_LIN4, rv.CLUSTER_4)
        solve_exact(dataclasses.replace(report), rv.G_LIN4, rv.CLUSTER_4)
        assert len(calls) == 2

    def test_branches_are_frozen_dataclass_instances(self):
        report = feasibility(rv.CLUSTER_4, rv.G_LIN4)
        family = enumerate_solutions(report, rv.G_LIN4, rv.CLUSTER_4)
        for sol in (family[9], solve_exact(report, rv.G_LIN4, rv.CLUSTER_4, (1, 0, 0, 1))):
            assert [f.name for f in dataclasses.fields(sol)] == [
                "delta_lo", "gains", "u_mphd", "residual", "branch_id"
            ]
            moved = dataclasses.replace(sol, residual=1.0)
            assert (moved.residual, moved.branch_id) == (1.0, sol.branch_id)
            assert moved.gains is sol.gains
            with pytest.raises(dataclasses.FrozenInstanceError):
                sol.residual = 0.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                sol.delta_lo.phases = np.zeros(4)
            assert dataclasses.replace(sol.delta_lo).dim == 4
            assert dataclasses.replace(sol) == sol


class TestEnumerateSolutions:
    def test_sixteen_branches(self):
        report = feasibility(rv.CLUSTER_4, rv.G_LIN4)
        sols = enumerate_solutions(report, rv.G_LIN4, rv.CLUSTER_4)
        assert len(sols) == 16
        assert len({s.branch_id for s in sols}) == 16

    def test_every_branch_reconstructs(self):
        report = feasibility(rv.CLUSTER_4, rv.G_LIN4)
        for sol in enumerate_solutions(report, rv.G_LIN4, rv.CLUSTER_4):
            assert sol.residual <= 1e-9
            assert is_real_orthogonal(sol.gains, 1e-9)

    def test_single_mode_pair(self):
        g = np.eye(1, dtype=complex)
        report = feasibility(g, g)
        sols = enumerate_solutions(report, g, g)
        assert len(sols) == 2
        pairs = sorted(
            (float(s.delta_lo.diagonal()[0].real), float(s.gains[0, 0])) for s in sols
        )
        np.testing.assert_allclose(pairs, [(-1.0, -1.0), (1.0, 1.0)], atol=1e-12)

    def test_infeasible_report_refused(self):
        report = feasibility(CZ2_TARGET, CZ2_G)
        with pytest.raises(FeasibilityError):
            enumerate_solutions(report, CZ2_G, CZ2_TARGET)

    def test_capacity_guard(self):
        g = np.eye(17, dtype=complex)
        report = feasibility(g, g)
        with pytest.raises(CapacityError):
            enumerate_solutions(report, g, g)


    @staticmethod
    def problems(max_n=8):
        yield rv.G_LIN4, rv.CLUSTER_4
        yield rv.G_GATE, fourier_program().u_th
        rng = np.random.default_rng(88)
        for n in range(1, max_n + 1):
            g = rv.random_unitary(rng, n)
            phases = rng.uniform(0, 2 * np.pi, n)
            yield g, (rv.random_orthogonal(rng, n) * np.exp(1j * phases)[None, :]) @ g

    def test_derived_branches_equal_solve_exact(self):
        # reference built here: phases half + pi b, gains Re(U' e^{-i(half + pi b)})
        for g, u in self.problems():
            report = feasibility(u, g)
            half = wrap_angle(np.angle(report.d_diagonal())) / 2
            sols = enumerate_solutions(report, g, u)
            assert len(sols) == 2**report.dim
            for sol in sols:
                phases = half + np.pi * np.array(sol.branch_id)
                gains = (report.u_prime * np.exp(-1j * phases)[None, :]).real
                product = (gains * np.exp(1j * phases)[None, :]) @ g
                for got in (sol, solve_exact(report, g, u, sol.branch_id)):
                    assert got.branch_id == sol.branch_id
                    np.testing.assert_allclose(got.gains, gains, rtol=0, atol=1e-12)
                    np.testing.assert_allclose(got.delta_lo.phases, phases, rtol=0, atol=1e-12)
                    np.testing.assert_allclose(got.u_mphd, product, rtol=0, atol=1e-12)
                    assert abs(got.residual - np.linalg.norm(product - u)) <= 1e-12

    def test_branches_are_principal_sign_flips(self):
        # bit for bit, in binary-counting order, for planted targets up to N = 12
        for g, u in self.problems(max_n=12):
            report = feasibility(u, g)
            principal = solve_exact(report, g, u)
            sols = enumerate_solutions(report, g, u)
            counting = list(itertools.product((0, 1), repeat=report.dim))
            assert [s.branch_id for s in sols] == counting
            assert all(type(bit) is int for s in sols for bit in s.branch_id)
            for bits, sol in zip(np.array(counting), sols):
                assert np.array_equal(sol.gains, principal.gains * (1 - 2 * bits))
                assert np.array_equal(sol.delta_lo.phases, principal.delta_lo.phases + np.pi * bits)
                assert sol.u_mphd is sols[0].u_mphd
                assert sol.residual == principal.residual
            assert np.array_equal(sols[0].u_mphd, principal.u_mphd)
            assert not sols[0].u_mphd.flags.writeable

    def test_branches_share_one_read_only_product(self):
        report = feasibility(rv.CLUSTER_4, rv.G_LIN4)
        sols = enumerate_solutions(report, rv.G_LIN4, rv.CLUSTER_4)
        assert all(s.u_mphd is sols[0].u_mphd for s in sols)
        with pytest.raises(ValueError):
            sols[0].u_mphd[0, 0] = 0.0
        assert sols[3].branch_id == (0, 0, 1, 1)


class TestBranchFamily:
    """The 2**N square-root branches Delta_b of the feasibility diagonal D."""

    @given(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_diagonal_targets(self, phases):
        g = np.eye(len(phases), dtype=complex)
        u = np.diag(np.exp(1j * np.asarray(phases)))
        report = feasibility(u, g)
        sols = enumerate_solutions(report, g, u)
        assert len({s.branch_id for s in sols}) == len(sols) == 2 ** len(phases)
        diags = np.array([s.delta_lo.diagonal() for s in sols])
        gaps = np.abs(diags[:, None, :] - diags[None, :, :]).max(axis=2)
        assert gaps[~np.eye(len(sols), dtype=bool)].min() > 1e-9
        d_phase = np.angle(report.d_diagonal())
        for sol in sols:
            error = np.angle(np.exp(1j * (2 * sol.delta_lo.phases - d_phase)))
            assert np.abs(error).max() <= 1e-12

    @given(st.floats(-50.0, 50.0))
    @example(-np.pi / 2)  # arg d rounds to exactly -pi; wrap_angle maps it to +pi/2
    @settings(max_examples=60, deadline=None)
    def test_principal_range(self, phi):
        g, u = np.eye(1, dtype=complex), np.array([[np.exp(1j * phi)]])
        report = feasibility(u, g)
        half = solve_exact(report, g, u).delta_lo.phases[0]
        assert -np.pi / 2 < half <= np.pi / 2
        assert abs(np.exp(2j * half) - report.d_diagonal()[0]) <= 1e-12

    def test_published_lin4_branch_present(self):
        report = feasibility(rv.CLUSTER_4, rv.G_LIN4)
        sols = enumerate_solutions(report, rv.G_LIN4, rv.CLUSTER_4)
        errs = [np.abs(s.delta_lo.diagonal() - rv.DELTA_LIN4).max() for s in sols]
        assert min(errs) <= 1e-12
        assert sols[int(np.argmin(errs))].branch_id == (1, 0, 0, 1)


class TestVerifySolution:
    def test_exact_solution(self):
        report = feasibility(rv.CLUSTER_4, rv.G_LIN4)
        sol = solve_exact(report, rv.G_LIN4, rv.CLUSTER_4, branch=(1, 0, 0, 1))
        assert verify_solution(sol, rv.CLUSTER_4, rv.G_LIN4) <= 1e-9

    def test_closed_form_parameters(self):
        sol = SynthesisSolution(
            delta_lo=DiagonalUnitary(np.angle(rv.DELTA_LIN4)),
            gains=rv.O_LIN4,
            u_mphd=(rv.O_LIN4 * rv.DELTA_LIN4[None, :]) @ rv.G_LIN4,
            residual=0.0,
        )
        assert verify_solution(sol, rv.CLUSTER_4, rv.G_LIN4) <= 1e-9

    def test_flipped_gain_sign_detected(self):
        gains = rv.O_LIN4.copy()
        gains[0, 0] = -gains[0, 0]
        sol = SynthesisSolution(
            delta_lo=DiagonalUnitary(np.angle(rv.DELTA_LIN4)),
            gains=gains,
            u_mphd=(gains * rv.DELTA_LIN4[None, :]) @ rv.G_LIN4,
            residual=0.0,
        )
        assert verify_solution(sol, rv.CLUSTER_4, rv.G_LIN4) >= 0.1

    def test_tampered_product_detected(self):
        report = feasibility(rv.CLUSTER_4, rv.G_LIN4)
        sol = solve_exact(report, rv.G_LIN4, rv.CLUSTER_4)
        tampered = SynthesisSolution(
            delta_lo=sol.delta_lo,
            gains=sol.gains,
            u_mphd=sol.u_mphd + 1e-6,
            residual=sol.residual,
        )
        with pytest.raises(InternalConsistencyError):
            verify_solution(tampered, rv.CLUSTER_4, rv.G_LIN4)

    def test_nan_product_detected(self):
        report = feasibility(rv.CLUSTER_4, rv.G_LIN4)
        sol = solve_exact(report, rv.G_LIN4, rv.CLUSTER_4)
        u_mphd = sol.u_mphd.copy()
        u_mphd[1, 2] = np.nan
        tampered = SynthesisSolution(
            delta_lo=sol.delta_lo, gains=sol.gains, u_mphd=u_mphd, residual=sol.residual
        )
        with pytest.raises(InternalConsistencyError):
            verify_solution(tampered, rv.CLUSTER_4, rv.G_LIN4)

    def test_nan_in_g_is_a_validation_error(self):
        sol = solve_exact(feasibility(rv.CLUSTER_4, rv.G_LIN4), rv.G_LIN4, rv.CLUSTER_4)
        g = rv.G_LIN4.copy()
        g[0, 0] = np.nan
        with pytest.raises(ValidationError, match="g contains"):
            verify_solution(sol, rv.CLUSTER_4, g)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_target_is_a_validation_error(self, bad):
        sol = solve_exact(feasibility(rv.CLUSTER_4, rv.G_LIN4), rv.G_LIN4, rv.CLUSTER_4)
        u = rv.CLUSTER_4.copy()
        u[2, 1] = bad
        with pytest.raises(ValidationError, match="u_th contains non-finite"):
            verify_solution(sol, u, rv.G_LIN4)

    def test_target_checked_before_shape_and_g(self):
        sol = solve_exact(feasibility(rv.CLUSTER_4, rv.G_LIN4), rv.G_LIN4, rv.CLUSTER_4)
        u, g = rv.CLUSTER_4.copy(), rv.G_LIN4.copy()
        u[0, 0] = g[0, 0] = np.nan
        with pytest.raises(ValidationError, match="u_th contains non-finite"):
            verify_solution(sol, u, g)
        with pytest.raises(ValidationError, match="u_th contains non-finite"):
            verify_solution(sol, u[:3], rv.G_LIN4)
        with pytest.raises(DimensionError, match="u_th must be 2-D"):
            verify_solution(sol, rv.CLUSTER_4[0], rv.G_LIN4)

    def test_target_shape_checked(self):
        report = feasibility(rv.CLUSTER_4, rv.G_LIN4)
        sol = solve_exact(report, rv.G_LIN4, rv.CLUSTER_4)
        with pytest.raises(DimensionError):
            verify_solution(sol, rv.CLUSTER_4[:3], rv.G_LIN4)


class TestRandomizedSoundness:
    def test_sufficiency_and_necessity(self):
        rng = np.random.default_rng(100)
        for trial in range(60):
            n = int(rng.integers(2, 6))
            if trial % 3 == 0 and n == 4:
                g = rv.G_LIN4
            else:
                g = rv.random_unitary(rng, n)
            phases = rng.uniform(0, 2 * np.pi, n)
            gains = rv.random_orthogonal(rng, n)
            delta = DiagonalUnitary(phases)
            u_th = (gains * delta.diagonal()[None, :]) @ g
            report = feasibility(u_th, g)
            assert report.feasible
            # necessity: the diagonal is exactly the squared dephasing
            np.testing.assert_allclose(
                report.d_diagonal(), delta.diagonal() ** 2, atol=1e-9
            )
            for bits in ((0,) * n, tuple(rng.integers(0, 2, n))):
                sol = solve_exact(report, g, u_th, bits)
                assert sol.residual <= 1e-9
                assert is_real_orthogonal(sol.gains, 1e-9)


class TestSolveApprox:
    def test_trivial_target_first_restart(self):
        result = solve_approx(rv.G_LIN4, rv.G_LIN4, restarts=1, seed=0)
        assert result.solution.residual <= 1e-10

    def test_rediscovers_exact_solution(self):
        result = solve_approx(rv.CLUSTER_4, rv.G_LIN4, restarts=8, seed=1)
        assert result.solution.residual <= 1e-6
        report = feasibility(rv.CLUSTER_4, rv.G_LIN4)
        exact = solve_exact(report, rv.G_LIN4, rv.CLUSTER_4)
        assert result.solution.residual <= exact.residual + 1e-9

    def test_trace_monotone(self):
        for seed in (0, 1, 5):
            result = solve_approx(rv.CLUSTER_4, rv.G_LIN4, restarts=2, seed=seed)
            trace = result.objective_trace
            assert all(trace[i + 1] <= trace[i] + 1e-12 for i in range(len(trace) - 1))

    def test_infeasible_two_mode_target(self):
        result = solve_approx(CZ2_TARGET, CZ2_G, restarts=8, seed=3)
        assert result.solution.residual > 1e-3  # honestly infeasible
        scan = phase_scan_oracle(CZ2_TARGET)
        assert abs(result.solution.residual - scan) <= 1e-2
        # closed-form optimum for this target
        assert result.solution.residual == pytest.approx(np.sqrt(4 - 2 * np.sqrt(2)), abs=1e-9)

    def test_deterministic_given_seed(self):
        a = solve_approx(CZ2_TARGET, CZ2_G, restarts=3, seed=42)
        b = solve_approx(CZ2_TARGET, CZ2_G, restarts=3, seed=42)
        assert a.solution.residual == b.solution.residual
        np.testing.assert_array_equal(a.solution.gains, b.solution.gains)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            solve_approx(np.eye(2) * 2.0, CZ2_G)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError, match="square"):
            solve_approx(np.ones((2, 3)), np.ones((2, 3)))

    @pytest.mark.parametrize(
        "counts", [{"restarts": 0}, {"max_iters": 0}, {"restarts": 0, "max_iters": -3}]
    )
    def test_counts_below_one_rejected(self, counts):
        with pytest.raises(ValidationError, match="restarts >= 1 and max_iters >= 1"):
            solve_approx(CZ2_TARGET, CZ2_G, **counts)

    @staticmethod
    def assert_fixed_point(result, u, g):
        """The returned (O, phases) is a fixed point of both closed-form steps."""
        sol = result.solution
        gains, phases = sol.gains, sol.delta_lo.phases
        tol = 1e-9 * np.linalg.norm(u)

        def distance(p):
            return np.linalg.norm((gains * np.exp(1j * p)[None, :]) @ g - u)

        assert is_real_orthogonal(gains, 1e-10)
        b = (np.exp(1j * phases)[:, None] * g @ u.conj().T).real
        assert np.trace(gains @ b) >= np.linalg.svd(b, compute_uv=False).sum() - tol
        best = np.angle(np.diag(gains.T @ u @ g.conj().T))
        assert distance(phases) - distance(best) <= tol
        trace = np.asarray(result.objective_trace)
        assert len(trace) == result.iterations >= 1
        assert np.all(np.diff(trace) <= 0.0)
        assert abs(trace[-1] - sol.residual) <= tol
        assert abs(distance(phases) - sol.residual) <= tol

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_haar_fixed_point(self, n):
        rng = np.random.default_rng(500 + n)
        for seed in range(2):
            g, u = rv.random_unitary(rng, n), rv.random_unitary(rng, n)
            result = solve_approx(u, g, seed=seed)
            assert result.converged
            self.assert_fixed_point(result, u, g)

    def test_near_degenerate_target_converges(self):
        # plain alternation of the two steps crawls on this target: after
        # 200 iterations it is still 2.5e-10 above its optimum and unconverged
        rng = np.random.default_rng(5885)
        g, u = rv.random_unitary(rng, 2), rv.random_unitary(rng, 2)
        result = solve_approx(u, g, seed=0)
        assert result.converged
        self.assert_fixed_point(result, u, g)

    def test_planted_n24(self):
        rng = np.random.default_rng(24)
        g = rv.random_unitary(rng, 24)
        phases = rng.uniform(0, 2 * np.pi, 24)
        u_th = (rv.random_orthogonal(rng, 24) * np.exp(1j * phases)[None, :]) @ g
        result = solve_approx(u_th, g, seed=5)
        assert result.solution.residual <= 1e-6


class TestGateProgramTieIn:
    def test_fourier_solutions_contain_published_pair(self):
        program = fourier_program()
        report = feasibility(program.u_th, rv.G_GATE)
        sols = enumerate_solutions(report, rv.G_GATE, program.u_th)
        delta_errs = [np.abs(s.delta_lo.diagonal() - rv.DELTA_GATE).max() for s in sols]
        best = int(np.argmin(delta_errs))
        assert delta_errs[best] <= 1e-12
        np.testing.assert_allclose(sols[best].gains, rv.O_GATE, atol=1e-12)

    def test_target_is_cluster_generator(self):
        np.testing.assert_allclose(linear_cluster_4(), rv.CLUSTER_4, atol=0)
