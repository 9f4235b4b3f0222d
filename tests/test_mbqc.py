import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import refvals as rv
from mphd import (
    FOURIER_GATE,
    MeasurementPlan,
    build_u_tf,
    compose,
    displacement_program,
    feasibility,
    fourier_program,
    is_unitary,
    m_shear,
    m_tele,
    quadrature_for_shear,
)
from mphd.errors import DimensionError, SingularityError, ValidationError


class TestMTele:
    def test_exact_teleportation_angles(self):
        np.testing.assert_allclose(m_tele(np.pi / 2, np.pi / 2), np.eye(2), atol=1e-15)

    def test_zero_angles(self):
        np.testing.assert_allclose(m_tele(0.0, 0.0), -np.eye(2), atol=1e-15)

    def test_same_angles_same_matrix(self):
        np.testing.assert_allclose(
            m_tele(np.pi / 2, np.pi / 4 + np.pi / 4), m_tele(np.pi / 2, np.pi / 2)
        )

    def test_singular_difference(self):
        with pytest.raises(SingularityError):
            m_tele(np.pi / 2, 0.0)

    @given(
        st.floats(-np.pi, np.pi),
        st.floats(-np.pi, np.pi),
    )
    @example(1.2373923439354977, -1 / 3)  # cos = 7.1e-5: det misses 1 by 1.2e-8
    @example(1.5709481254300224, 1e-12)  # cos = 1.5e-4: det misses 1 by 2.6e-9
    @settings(max_examples=200, deadline=None)
    def test_unit_determinant(self, theta_in, theta_1):
        cos = np.cos(theta_in - theta_1)
        if abs(cos) < 1e-6:
            return
        gate = m_tele(theta_in, theta_1)
        # entries of size 1/cos round by ~eps/cos, so det rounds by ~eps/cos^2 (3 eps/cos^2 seen)
        assert abs(np.linalg.det(gate) - 1.0) <= 8 * np.finfo(float).eps / cos**2


class TestMShear:
    def test_zero_is_fourier(self):
        np.testing.assert_allclose(m_shear(0.0), FOURIER_GATE, atol=0)

    def test_unit_shear(self):
        np.testing.assert_allclose(m_shear(1.0), [[-1, -1], [1, 0]], atol=0)

    def test_unit_determinant(self):
        for s in np.linspace(-5, 5, 21):
            assert np.linalg.det(m_shear(s)) == pytest.approx(1.0)

    def test_composition_with_teleport_gives_fourier(self):
        product = m_shear(0.0) @ m_tele(np.pi / 2, np.pi / 2)
        np.testing.assert_allclose(product, FOURIER_GATE, atol=1e-15)


class TestQuadratureForShear:
    def test_zero(self):
        assert quadrature_for_shear(0.0) == (1.0, 0.0)

    def test_unit(self):
        g, theta = quadrature_for_shear(1.0)
        assert g == pytest.approx(np.sqrt(2))
        assert theta == pytest.approx(np.pi / 4)

    def test_odd_symmetry(self):
        g_pos, th_pos = quadrature_for_shear(1.0)
        g_neg, th_neg = quadrature_for_shear(-1.0)
        assert g_pos == g_neg
        assert th_neg == pytest.approx(-th_pos)


class TestCompose:
    def test_single(self):
        np.testing.assert_allclose(compose([FOURIER_GATE]), FOURIER_GATE)

    def test_order_last_applied_leftmost(self):
        got = compose([m_tele(np.pi / 2, np.pi / 2), m_shear(0.0)])
        np.testing.assert_allclose(got, FOURIER_GATE, atol=1e-15)

    def test_fourier_fourth_power(self):
        np.testing.assert_allclose(compose([FOURIER_GATE] * 4), np.eye(2), atol=0)

    def test_empty_raises(self):
        with pytest.raises(ValidationError):
            compose([])


class TestMeasurementPlan:
    def test_defaults(self):
        plan = MeasurementPlan(angles=[0.0, np.pi / 2])
        np.testing.assert_allclose(plan.offsets, 0.0)
        np.testing.assert_allclose(plan.gains, 1.0)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            MeasurementPlan(angles=[0.0, 0.0], offsets=[1.0])

    def test_gain_floor(self):
        with pytest.raises(ValidationError):
            MeasurementPlan(angles=[0.0], gains=[0.5])

    @pytest.mark.parametrize("angles", [[], np.zeros(0)])
    def test_no_modes(self, angles):
        with pytest.raises(DimensionError, match="at least one mode"):
            MeasurementPlan(angles=angles)

    def test_compared_by_identity(self):
        first, second = fourier_program(), fourier_program()
        assert first == first and first.plan == first.plan
        assert first != second and first.plan != second.plan
        assert len({first, second, first}) == 2


class TestFourierProgram:
    def test_target_gate(self):
        # exactly the Fourier gate at theta_3 = 0, so reports keep their bytes
        assert fourier_program().target_gate.tobytes() == FOURIER_GATE.tobytes()

    @pytest.mark.parametrize("theta_3", [0.4, 1.0, -2.5])
    def test_target_gate_rotated(self, theta_3):
        c, s = np.cos(theta_3), np.sin(theta_3)
        expected = np.array([[-s, -c], [c, -s]])  # R(theta_3) F
        for program in (fourier_program(theta_3), displacement_program(1.0, theta_3)):
            np.testing.assert_allclose(program.target_gate, expected, atol=1e-15)

    def test_angles_and_offsets(self):
        prog = fourier_program()
        np.testing.assert_allclose(prog.plan.angles, [np.pi / 2, np.pi / 2, 0.0, 0.0])
        np.testing.assert_allclose(prog.plan.offsets, 0.0)

    def test_unitary_matches_reference(self):
        np.testing.assert_allclose(fourier_program().u_th, rv.GATE_TARGET, atol=1e-14)

    def test_feasible_under_gate_dephasing(self):
        report = feasibility(fourier_program().u_th, rv.G_GATE)
        assert report.feasible
        np.testing.assert_allclose(report.d_diagonal(), rv.D_GATE, atol=1e-12)


class TestDisplacementProgram:
    def test_zero_matches_fourier(self):
        disp, four = displacement_program(0.0), fourier_program()
        np.testing.assert_allclose(disp.u_th, four.u_th, atol=0)
        np.testing.assert_allclose(disp.plan.offsets, four.plan.offsets, atol=0)

    def test_offset_on_second_cluster_mode(self):
        np.testing.assert_allclose(displacement_program(2.0).plan.offsets, [0, 0, 2.0, 0])


class TestBuildUTf:
    def test_matches_reference(self):
        np.testing.assert_allclose(build_u_tf(rv.CLUSTER_3, 0.0), rv.GATE_TARGET, atol=1e-14)

    def test_always_unitary(self):
        for theta_3 in (0.0, 0.7, np.pi):
            assert is_unitary(build_u_tf(rv.CLUSTER_3, theta_3), 1e-10)

    def test_beam_splitter_block(self):
        # read the beam-splitter factor back out of the theta = 0 assembly
        u = build_u_tf(rv.CLUSTER_3, 0.0)
        layered = np.eye(4, dtype=complex)
        layered[1:, 1:] = rv.CLUSTER_3
        d_meas = np.diag([1j, 1j, 1, 1])
        coupler = np.linalg.inv(d_meas) @ u @ np.linalg.inv(layered)
        np.testing.assert_allclose(
            coupler[:2, :2], np.array([[1, 1j], [1j, 1]]) / np.sqrt(2), atol=1e-12
        )
        np.testing.assert_allclose(coupler[2:, 2:], np.eye(2), atol=1e-12)

    def test_rejects_non_cluster_input(self):
        with pytest.raises(ValidationError):
            build_u_tf(np.eye(3), 0.0)

    def test_rejects_wrong_shape(self):
        with pytest.raises(DimensionError):
            build_u_tf(np.eye(4), 0.0)
