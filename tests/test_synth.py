import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import refvals as rv
from mphd import (
    DiagonalUnitary,
    PixelPartition,
    cluster_unitary,
    detection_setup,
    enumerate_solutions,
    feasibility,
    flip_mode_basis,
    fourier_program,
    linear_cluster_4,
    is_real_orthogonal,
    procrustes_best_orthogonal,
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
from mphd import synth
from mphd.synth import SynthesisSolution, _mphd_unitary

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

    def test_infinite_tol_rejected(self):
        # an infinite tolerance would pass every pair as unitary and every target as feasible
        with pytest.raises(ValidationError, match="tol must be positive"):
            feasibility(CZ2_TARGET, CZ2_G, tol=np.inf)

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

    @pytest.mark.parametrize("solver", [feasibility, solve_approx])
    def test_empty_target(self, solver):
        with pytest.raises(DimensionError, match="u_th is empty"):
            solver(np.zeros((0, 0)), np.zeros((0, 0)))


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


class TestPrincipalOncePerReport:
    """The principal branch and its residual are built once per report, whatever asks for them."""

    @staticmethod
    def count_principal_builds(monkeypatch):
        calls = []

        def counting(m, tol):
            calls.append(tol)
            return is_real_orthogonal(m, tol)

        monkeypatch.setattr("mphd.synth.is_real_orthogonal", counting)
        return calls

    @staticmethod
    def count_products(monkeypatch):
        calls = []

        def counting(gains, phases, g):
            calls.append(len(phases))
            return _mphd_unitary(gains, phases, g)

        monkeypatch.setattr("mphd.synth._mphd_unitary", counting)
        return calls

    def test_solve_exact_and_enumerate_share_one_build(self, monkeypatch):
        calls = self.count_principal_builds(monkeypatch)
        products = self.count_products(monkeypatch)
        report = feasibility(rv.CLUSTER_4, rv.G_LIN4)
        singles = [
            solve_exact(report, rv.G_LIN4, rv.CLUSTER_4, bits)
            for bits in itertools.product((0, 1), repeat=4)
        ]
        family = enumerate_solutions(report, rv.G_LIN4, rv.CLUSTER_4)
        assert len(calls) == 1
        assert products == [4]
        for single, branch in zip(singles, family):
            assert single.branch_id == branch.branch_id
            assert np.array_equal(single.gains, branch.gains)
            assert np.array_equal(single.delta_lo.phases, branch.delta_lo.phases)
            assert single.residual == branch.residual

    def test_solutions_do_not_alias_the_cached_principal(self):
        report = feasibility(rv.CLUSTER_4, rv.G_LIN4)
        first = solve_exact(report, rv.G_LIN4, rv.CLUSTER_4)
        gains, phases = first.gains.copy(), first.delta_lo.phases.copy()
        first.gains[:] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            first.delta_lo.phases[:] = 0.0
        again = solve_exact(report, rv.G_LIN4, rv.CLUSTER_4)
        assert np.array_equal(again.gains, gains)
        assert np.array_equal(again.delta_lo.phases, phases)

    def test_a_replaced_report_builds_its_own(self, monkeypatch):
        calls = self.count_principal_builds(monkeypatch)
        products = self.count_products(monkeypatch)
        report = feasibility(rv.CLUSTER_4, rv.G_LIN4)
        first = solve_exact(report, rv.G_LIN4, rv.CLUSTER_4)
        other = solve_exact(dataclasses.replace(report), rv.G_LIN4, rv.CLUSTER_4)
        assert len(calls) == len(products) == 2
        assert other.residual == first.residual

    @pytest.mark.parametrize("mutated", ["g", "u_th"])
    def test_inputs_changed_in_place_are_recomputed(self, monkeypatch, mutated):
        calls = self.count_products(monkeypatch)
        g, u = rv.G_LIN4.copy(), rv.CLUSTER_4.copy()
        report = feasibility(u, g)
        first = solve_exact(report, g, u)
        if mutated == "g":
            g[:] = g[[1, 0, 2, 3]]
        else:
            u[0, 0] += 0.5
        again = solve_exact(report, g, u, (1, 0, 0, 1))
        fresh = solve_exact(feasibility(rv.CLUSTER_4, rv.G_LIN4), g, u)
        assert len(calls) == 3
        assert again.residual == fresh.residual
        assert again.residual > first.residual + 0.1
        # the changed inputs are now the cached ones
        assert solve_exact(report, g, u).residual == again.residual
        assert len(calls) == 3

    def test_branches_are_frozen_dataclass_instances(self):
        report = feasibility(rv.CLUSTER_4, rv.G_LIN4)
        family = enumerate_solutions(report, rv.G_LIN4, rv.CLUSTER_4)
        for sol in (family[9], solve_exact(report, rv.G_LIN4, rv.CLUSTER_4, (1, 0, 0, 1))):
            assert [f.name for f in dataclasses.fields(sol)] == [
                "delta_lo", "gains", "residual", "branch_id"
            ]
            moved = dataclasses.replace(sol, residual=1.0)
            assert (moved.residual, moved.branch_id) == (1.0, sol.branch_id)
            assert moved.gains is sol.gains
            with pytest.raises(dataclasses.FrozenInstanceError):
                sol.residual = 0.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                sol.delta_lo.phases = np.zeros(4)
            assert dataclasses.replace(sol.delta_lo).dim == 4
            # records compare by identity; a plain replace copy holds the very same fields
            same = dataclasses.replace(sol)
            assert same != sol and all(getattr(same, f.name) is getattr(sol, f.name) for f in dataclasses.fields(sol))


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
                    np.testing.assert_allclose(got.unitary(g), product, rtol=0, atol=1e-12)
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
                assert sol.residual == principal.residual


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


class TestMphdUnitary:
    """The detector product ``O . Delta_LO . G`` as one real GEMM."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 12, 64])
    @pytest.mark.parametrize("layout", ["C", "F", "real", "list"])
    def test_equals_the_complex_product(self, n, layout):
        rng = np.random.default_rng(n)
        gains, phases = rv.random_orthogonal(rng, n), rng.uniform(-np.pi, np.pi, n)
        g = rv.random_orthogonal(rng, n) if layout == "real" else rv.random_unitary(rng, n)
        given = {"C": g, "F": np.asfortranarray(g), "real": g, "list": g.tolist()}[layout]
        expected = (gains * np.exp(1j * phases)) @ g
        got = _mphd_unitary(gains, np.exp(1j * phases), given)
        assert got.shape == (n, n) and got.dtype == complex
        assert np.abs(got - expected).max() <= 1e-14 * np.sqrt(n)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 24])
    def test_a_stack_equals_its_2d_products_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        gains = np.stack([rv.random_orthogonal(rng, n) for _ in range(5)])
        unit = np.exp(1j * rng.uniform(-np.pi, np.pi, (5, n)))
        g = rv.random_unitary(rng, n)
        for front_end in (g, np.asfortranarray(g)):
            stacked = _mphd_unitary(gains, unit, front_end)
            assert stacked.shape == (5, n, n)
            for k in range(5):
                assert stacked[k].tobytes() == _mphd_unitary(gains[k], unit[k], front_end).tobytes()

    def test_verify_accepts_a_fortran_ordered_front_end(self):
        sol = solve_exact(feasibility(rv.CLUSTER_4, rv.G_LIN4), rv.G_LIN4, rv.CLUSTER_4)
        assert verify_solution(sol, rv.CLUSTER_4, np.asfortranarray(rv.G_LIN4)) <= 1e-9

    def test_complex_gains_are_a_validation_error(self):
        sol = solve_exact(feasibility(rv.CLUSTER_4, rv.G_LIN4), rv.G_LIN4, rv.CLUSTER_4)
        forged = dataclasses.replace(sol, gains=sol.gains.astype(complex))
        with pytest.raises(ValidationError, match="gains must be real"):
            verify_solution(forged, rv.CLUSTER_4, rv.G_LIN4)


def branch_problems():
    """(id, front end, planted target): Haar front ends at N = 1, 2, 4, 8, 12 and flip front ends at 4 and 8."""
    rng = np.random.default_rng(2028)
    for kind, n in [*(("haar", n) for n in (1, 2, 4, 8, 12)), ("flip", 4), ("flip", 8)]:
        if kind == "haar":
            g = rv.random_unitary(rng, n)
        else:
            g = detection_setup(flip_mode_basis(n), 0, PixelPartition.equal(n), rng.uniform(0, 2 * np.pi, n)).g
        u = (rv.random_orthogonal(rng, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))[None, :]) @ g
        yield f"{kind}{n}", g, u


BRANCH_PROBLEMS = list(branch_problems())


class TestBranchUnits:
    """A branch family forms its ``e^{i phi}`` with one ``np.exp``; the products are unchanged bit for bit."""

    @staticmethod
    def reference_distance(sol, u, g):
        # verify_solution as it was when every call formed np.exp(1j * phases) itself
        diff = _mphd_unitary(sol.gains, np.exp(1j * sol.delta_lo.phases), g) - np.asarray(u)
        return math.sqrt(np.vdot(diff, diff).real)

    @pytest.mark.parametrize("g, u", [p[1:] for p in BRANCH_PROBLEMS], ids=[p[0] for p in BRANCH_PROBLEMS])
    def test_every_branch_is_bit_identical(self, g, u):
        report = feasibility(u, g)
        family = enumerate_solutions(report, g, u)
        for front_end in (g, np.asfortranarray(g)):
            for sol in family:
                unit = np.exp(1j * sol.delta_lo.phases)
                assert sol.unitary(front_end).tobytes() == _mphd_unitary(sol.gains, unit, front_end).tobytes()
                assert verify_solution(sol, u, front_end) == self.reference_distance(sol, u, front_end)
        for sol in family[:: max(1, len(family) // 64)]:
            diagonal = sol.delta_lo.diagonal()
            assert diagonal.tobytes() == np.exp(1j * sol.delta_lo.phases).tobytes()
            assert diagonal.flags.writeable and not sol.delta_lo.phases.flags.writeable
            single = solve_exact(report, g, u, sol.branch_id)
            assert single.branch_id == sol.branch_id and single.residual == sol.residual
            assert single.gains.tobytes() == sol.gains.tobytes()
            assert single.delta_lo.phases.tobytes() == sol.delta_lo.phases.tobytes()
            assert single.unitary(g).tobytes() == sol.unitary(g).tobytes()

    @pytest.mark.parametrize("n", [4, 12])
    def test_one_exp_per_family(self, monkeypatch, n):
        g, u = next((g, u) for name, g, u in BRANCH_PROBLEMS if name == f"haar{n}")
        report = feasibility(u, g)
        calls, exp = [], np.exp

        def counting(x, *args, **kwargs):
            calls.append(np.shape(x))
            return exp(x, *args, **kwargs)

        monkeypatch.setattr(np, "exp", counting)
        family = enumerate_solutions(report, g, u)
        assert [shape for shape in calls if len(shape) == 2] == [(2**n, n)]
        calls.clear()
        for sol in family:
            verify_solution(sol, u, g)
            sol.unitary(g)
        assert calls == []
        # the principal branch and its residual are cached, so a second family forms only its block
        enumerate_solutions(report, g, u)
        assert calls == [(2**n, n)]

    def test_a_solution_ignores_its_source_array(self):
        source, gains = np.angle(rv.DELTA_LIN4), rv.O_LIN4
        sol = SynthesisSolution(delta_lo=DiagonalUnitary(source), gains=gains, residual=0.0)
        phases, diagonal, product = sol.delta_lo.phases.copy(), sol.delta_lo.diagonal(), sol.unitary(rv.G_LIN4)
        source[:] = 0.0
        assert sol.delta_lo.phases.tobytes() == phases.tobytes()
        assert sol.delta_lo.diagonal().tobytes() == diagonal.tobytes()
        assert sol.unitary(rv.G_LIN4).tobytes() == product.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            sol.delta_lo.phases[0] = 0.0


class TestVerifySolution:
    def test_exact_solution(self):
        report = feasibility(rv.CLUSTER_4, rv.G_LIN4)
        sol = solve_exact(report, rv.G_LIN4, rv.CLUSTER_4, branch=(1, 0, 0, 1))
        assert verify_solution(sol, rv.CLUSTER_4, rv.G_LIN4) <= 1e-9

    def test_closed_form_parameters(self):
        sol = SynthesisSolution(
            delta_lo=DiagonalUnitary(np.angle(rv.DELTA_LIN4)),
            gains=rv.O_LIN4,
            residual=0.0,
        )
        assert verify_solution(sol, rv.CLUSTER_4, rv.G_LIN4) <= 1e-9

    def test_flipped_gain_sign_detected(self):
        gains = rv.O_LIN4.copy()
        gains[0, 0] = -gains[0, 0]
        sol = SynthesisSolution(
            delta_lo=DiagonalUnitary(np.angle(rv.DELTA_LIN4)),
            gains=gains,
            residual=0.0,
        )
        assert verify_solution(sol, rv.CLUSTER_4, rv.G_LIN4) >= 0.1

    def test_nan_gains_are_a_validation_error(self):
        sol = solve_exact(feasibility(rv.CLUSTER_4, rv.G_LIN4), rv.G_LIN4, rv.CLUSTER_4)
        gains = sol.gains.copy()
        gains[1, 2] = np.nan
        tampered = dataclasses.replace(sol, gains=gains)
        with pytest.raises(ValidationError, match="gains contain non-finite"):
            verify_solution(tampered, rv.CLUSTER_4, rv.G_LIN4)

    def test_overflowing_distance_is_a_validation_error(self):
        sol = solve_exact(feasibility(rv.CLUSTER_4, rv.G_LIN4), rv.G_LIN4, rv.CLUSTER_4)
        huge = dataclasses.replace(sol, gains=sol.gains * 1e200)
        with pytest.raises(ValidationError, match="overflows"):
            verify_solution(huge, rv.CLUSTER_4, rv.G_LIN4)

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

    @pytest.mark.parametrize(
        "counts", [{"max_iters": 2.5}, {"restarts": True}, {"restarts": 2.0}, {"max_iters": "3"}, {"restarts": None}]
    )
    def test_counts_must_be_integers(self, counts):
        with pytest.raises(ValidationError, match="must be an integer"):
            solve_approx(CZ2_TARGET, CZ2_G, **counts)

    def test_numpy_integer_counts(self):
        given = solve_approx(CZ2_TARGET, CZ2_G, max_iters=np.int32(5), restarts=np.int64(2), seed=1)
        assert given.objective_trace == solve_approx(CZ2_TARGET, CZ2_G, max_iters=5, restarts=2, seed=1).objective_trace

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
        assert trace[-1] == sol.residual
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

    def test_planted_n24(self, monkeypatch):
        """A feasible target stops at the exactness floor after one iteration."""
        rng = np.random.default_rng(24)
        g = rv.random_unitary(rng, 24)
        phases = rng.uniform(0, 2 * np.pi, 24)
        u_th = (rv.random_orthogonal(rng, 24) * np.exp(1j * phases)[None, :]) @ g
        products = TestPrincipalOncePerReport.count_products(monkeypatch)
        svds = []

        def counting(b):
            svds.append(b.shape)
            return procrustes_best_orthogonal(b)

        monkeypatch.setattr("mphd.synth.procrustes_best_orthogonal", counting)
        result = solve_approx(u_th, g, seed=5)
        assert (result.iterations, len(svds), len(products)) == (1, 1, 2)
        assert result.converged
        sol = result.solution
        assert sol.residual <= 1e-12
        assert sol.residual == result.objective_trace[-1] == np.linalg.norm(sol.unitary(g) - u_th)

    @pytest.mark.parametrize("seed", [-1, 2.5, np.float64(1.0), True, "0", [-3]])
    def test_bad_seed_is_named(self, seed):
        with pytest.raises(ValidationError, match="^seed must be a non-negative integer or None, got"):
            solve_approx(CZ2_TARGET, CZ2_G, seed=seed)

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
    def test_non_positive_tol_rejected(self, tol):
        with pytest.raises(ValidationError, match="tol must be positive"):
            solve_approx(CZ2_TARGET, CZ2_G, tol=tol)


def sequential_solve_approx(u_th, g, max_iters=200, restarts=8, seed=0):
    """``solve_approx`` with its restarts run one after another, as before they moved into lockstep.

    The objective is ``np.linalg.norm`` of a product that forms ``e^{i phases}`` on every call,
    and the phase step reads ``np.diag``. Returns ``(objective, phases, gains, trace, converged)``
    of the best run and the number of restarts that ran.
    """
    u, gm = np.asarray(u_th, dtype=complex), np.asarray(g, dtype=complex)
    u_prime = u @ gm.conj().T

    def objective(gains, phases):
        delta_g = np.ascontiguousarray(np.exp(1j * phases)[:, None] * gm)
        return float(np.linalg.norm(np.dot(gains, delta_g.view(float)).view(complex) - u))

    def best_gains(phases):
        return procrustes_best_orthogonal((np.exp(1j * phases)[:, None] * u_prime.conj().T).real)

    rng = np.random.default_rng(seed)
    best, ran = None, 0
    for ran in range(1, restarts + 1):
        phases = rng.uniform(0.0, 2.0 * np.pi, len(u))
        f_val = gained = np.inf
        trace = []
        for _ in range(max_iters):
            f_prev, start = f_val, phases
            candidate = best_gains(phases)
            f_cand = objective(candidate, phases)
            if f_cand <= f_val:
                gains, f_val = candidate, f_cand
            candidate = np.angle(np.diag(gains.T @ u_prime))
            f_cand = objective(gains, candidate)
            if f_cand <= f_val:
                phases, f_val = candidate, f_cand
            if f_prev - f_val > 0.5 * gained:
                step = np.angle(np.exp(1j * (phases - start)))
                while True:
                    candidate = phases + step
                    cand_gains = best_gains(candidate)
                    f_cand = objective(cand_gains, candidate)
                    if not f_cand < f_val:
                        break
                    phases, gains, f_val = candidate, cand_gains, f_cand
                    step = 2.0 * step
            gained = f_prev - f_val
            trace.append(f_val)
            converged = gained < 1e-13 or f_val < 1e-12
            if converged:
                break
        if best is None or f_val < best[0]:
            best = (f_val, phases, gains, trace, converged)
        if best[0] < 1e-12:
            break
    return best, ran


def planted(n, seed):
    """A feasible target ``O . Delta . G`` over a Haar front end."""
    rng = np.random.default_rng(seed)
    g = rv.random_unitary(rng, n)
    return (rv.random_orthogonal(rng, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))[None, :]) @ g, g


def near_feasible(n, seed, eps=3e-13):
    """A planted target moved by ``exp(i eps H)``: some restarts end below the floor, some above."""
    u, g = planted(n, seed)
    rng = np.random.default_rng(seed)
    w, v = np.linalg.eigh(rng.normal(size=(n, n)) + rng.normal(size=(n, n)).T)
    return u @ (v * np.exp(1j * eps * w)) @ v.T, g


def haar(n, seed):
    rng = np.random.default_rng(700 + n)
    pairs = [(rv.random_unitary(rng, n), rv.random_unitary(rng, n)) for _ in range(seed + 1)]
    return pairs[seed][1], pairs[seed][0]


def degenerate(layout):
    rng = np.random.default_rng(5885)
    g, u = rv.random_unitary(rng, 2), rv.random_unitary(rng, 2)
    return (u, g) if layout == "C" else (np.asfortranarray(u), np.asfortranarray(g))


#: (id, target, front end, optimizer seed): 31 problems, each solved at 9 (max_iters, restarts) pairs
LOCKSTEP_PROBLEMS = [
    *((f"cz2-seed{s}", CZ2_TARGET, CZ2_G, s) for s in range(5)),
    *((f"haar{n}-{k}", *haar(n, k), k) for n, count in ((2, 3), (3, 3), (4, 3), (8, 3), (16, 1)) for k in range(count)),
    *((f"planted{n}-{k}", *planted(n, k), k) for n, count in ((8, 3), (24, 2)) for k in range(count)),
    *((f"near-degenerate-5885-{layout}", *degenerate(layout), 0) for layout in "CF"),
    *((f"near-feasible{n}-{k}", *near_feasible(n, k), k) for n, k in ((3, 1), (3, 4), (3, 7), (4, 2), (4, 10))),
]


class TestLockstepRestarts:
    """The lockstep restarts return, bit for bit, what the restarts run one by one returned."""

    @pytest.mark.parametrize(
        "u, g, seed", [p[1:] for p in LOCKSTEP_PROBLEMS], ids=[p[0] for p in LOCKSTEP_PROBLEMS]
    )
    def test_bit_identical_to_sequential_restarts(self, u, g, seed):
        for max_iters, restarts in itertools.product((1, 3, 200), (1, 2, 8)):
            result = solve_approx(u, g, max_iters=max_iters, restarts=restarts, seed=seed)
            (f_val, phases, gains, trace, converged), _ = sequential_solve_approx(u, g, max_iters, restarts, seed)
            sol = result.solution
            assert sol.gains.tobytes() == gains.tobytes()
            assert sol.delta_lo.phases.tobytes() == phases.tobytes()
            assert sol.residual == f_val and result.objective_trace == trace
            assert (result.iterations, result.converged) == (len(trace), converged)
            assert sol.residual == result.objective_trace[-1] == np.linalg.norm(sol.unitary(g) - u)

    @pytest.mark.parametrize("n, seed", [(3, 1), (3, 4), (4, 10)])
    def test_near_feasible_restarts_stop_inside_the_lockstep(self, n, seed):
        # restart 0 misses the floor and a later one reaches it, so the lockstep drops the rest
        _, ran = sequential_solve_approx(*near_feasible(n, seed), max_iters=1, restarts=8, seed=seed)
        assert 1 < ran < 8

    def test_one_stacked_solve_and_product_per_step(self, monkeypatch):
        """cz2 converges in two iterations from every start, and cannot reach the floor: all 8 stacked.

        Run one after another, the 8 restarts made 16 Procrustes solves and 32 products.
        """
        products = TestPrincipalOncePerReport.count_products(monkeypatch)
        stacks = []

        def counting(b):
            stacks.append(b.shape)
            return procrustes_best_orthogonal(b)

        monkeypatch.setattr("mphd.synth.procrustes_best_orthogonal", counting)
        solve_approx(CZ2_TARGET, CZ2_G, seed=3)
        assert stacks == [(8, 2, 2)] * 2
        assert products == [8] * 4


def diagonal_bound(u, g):
    """``(1 - min_k |(U'^T U')_kk|) / 2`` with ``U' = U G^dag``: no ``O . Delta . G`` comes closer to ``U``."""
    u_prime = u @ g.conj().T
    return 0.5 * (1.0 - np.abs(np.diag(u_prime.T @ u_prime)).min())


class TestRestartSchedule:
    """A target that provably misses the exactness floor starts all restarts in one block; the rest start
    with restart 0 alone. The schedule changes only the cost."""

    @given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 1e-9, 1e-3, 1.0]))
    @settings(max_examples=200, deadline=None)
    def test_diagonal_bound_holds_for_every_gain_and_phase(self, n, seed, t):
        # X = O Delta has X^T X = Delta^2 and ||X^T X - U'^T U'||_F <= 2 ||X - U'||_F
        rng = np.random.default_rng(seed)
        g, o, phases = rv.random_unitary(rng, n), rv.random_orthogonal(rng, n), rng.uniform(0, 2 * np.pi, n)
        detector = (o * np.exp(1j * phases)[None, :]) @ g
        w, v = np.linalg.eigh(rng.normal(size=(n, n)) + rng.normal(size=(n, n)).T)
        slack = 16 * n * np.finfo(float).eps
        for u in (rv.random_unitary(rng, n), detector @ (v * np.exp(1j * t * w)) @ v.T):
            found = solve_approx(u, g, restarts=2, seed=seed).solution.unitary(g)
            for x in (detector, found):
                assert diagonal_bound(u, g) <= np.linalg.norm(x - u) + slack

    @pytest.mark.parametrize(
        "u, g, seed", [p[1:] for p in LOCKSTEP_PROBLEMS], ids=[p[0] for p in LOCKSTEP_PROBLEMS]
    )
    def test_forced_schedules_agree_bit_for_bit(self, monkeypatch, u, g, seed):
        pairs = list(itertools.product((1, 3, 200), (1, 2, 8)))
        runs = {}
        for schedule, threshold in (("alone", np.inf), ("block", -np.inf)):
            monkeypatch.setattr("mphd.synth._OUT_OF_REACH", threshold)
            runs[schedule] = [solve_approx(u, g, max_iters=m, restarts=r, seed=seed) for m, r in pairs]
        for alone, block in zip(runs["alone"], runs["block"]):
            assert alone.solution.gains.tobytes() == block.solution.gains.tobytes()
            assert alone.solution.delta_lo.phases.tobytes() == block.solution.delta_lo.phases.tobytes()
            assert alone.solution.residual == block.solution.residual
            assert alone.objective_trace == block.objective_trace
            assert (alone.iterations, alone.converged) == (block.iterations, block.converged)
            assert block.solution.residual >= diagonal_bound(u, g) - 16 * len(u) * np.finfo(float).eps

    def test_certificate_picks_the_schedule(self, monkeypatch):
        blocks = []

        def recording(phases, *args):
            blocks.append(len(phases))
            return descend(phases, *args)

        descend = synth._descend
        monkeypatch.setattr("mphd.synth._descend", recording)
        solve_approx(CZ2_TARGET, CZ2_G, seed=3)
        solve_approx(*planted(8, 0), seed=0)
        solve_approx(*near_feasible(3, 1), max_iters=1, seed=1)
        assert blocks == [8, 1, 1, 7]


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
