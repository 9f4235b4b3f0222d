import numpy as np
import pytest

import refvals as rv
from mphd import (
    DiagonalUnitary,
    frobenius_distance,
    is_real_orthogonal,
    is_unitary,
    procrustes_best_orthogonal,
    wrap_angle,
)
from mphd.errors import DimensionError, ValidationError
from mphd.matcore import _diagonal_rows, as_complex_matrix


class TestAsComplexMatrix:
    def test_rejects_other_ranks(self):
        with pytest.raises(DimensionError, match="m must be 2-D, got ndim=3"):
            as_complex_matrix(np.zeros((2, 2, 2)), "m")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.inf)])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValidationError, match="m contains non-finite entries"):
            as_complex_matrix([[1.0, bad]], "m")


class TestIsUnitary:
    def test_identity(self):
        assert is_unitary(np.eye(4), 1e-9)

    def test_cluster_generator(self):
        assert is_unitary(rv.CLUSTER_4, 1e-9)

    def test_perturbed_identity(self):
        m = np.eye(4, dtype=complex)
        m[0, 0] = 1.01
        assert not is_unitary(m, 1e-9)

    def test_non_square_raises(self):
        with pytest.raises(DimensionError):
            is_unitary(np.ones((2, 3)), 1e-9)

    def test_bad_tol_raises(self):
        with pytest.raises(ValidationError):
            is_unitary(np.eye(2), 0.0)


class TestIsRealOrthogonal:
    def test_identity(self):
        assert is_real_orthogonal(np.eye(3))

    def test_two_decimal_print_of_gain_matrix(self):
        # the 2-decimal rounding of an exact orthogonal matrix stays
        # orthogonal at print precision (Frobenius residual 6.8e-3) but not
        # much below it
        assert is_real_orthogonal(np.round(rv.O_LIN4, 2), 1e-2)
        assert not is_real_orthogonal(np.round(rv.O_LIN4, 2), 1e-4)
        assert is_real_orthogonal(rv.O_LIN4, 1e-12)

    def test_complex_entry(self):
        assert not is_real_orthogonal(np.diag([1j, 1, 1, 1]))

    def test_non_square_raises(self):
        with pytest.raises(DimensionError):
            is_real_orthogonal(np.ones((1, 2)))


class TestFrobeniusDistance:
    def test_equal(self):
        assert frobenius_distance(np.eye(3), np.eye(3)) == 0.0

    def test_identity_vs_zero(self):
        assert frobenius_distance(np.eye(2), np.zeros((2, 2))) == pytest.approx(np.sqrt(2))

    def test_closed_form_solution_reconstructs_target(self):
        # the published branch, rebuilt from its exact angles
        rebuilt = (rv.O_LIN4 * rv.DELTA_LIN4[None, :]) @ rv.G_LIN4
        assert frobenius_distance(rv.CLUSTER_4, rebuilt) <= 1e-8

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b, c = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(3))
            assert frobenius_distance(a, b) == pytest.approx(frobenius_distance(b, a))
            assert frobenius_distance(a, c) <= (
                frobenius_distance(a, b) + frobenius_distance(b, c) + 1e-12
            )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            frobenius_distance(np.eye(2), np.eye(3))


class TestWrapAngle:
    def test_principal_interval(self):
        for phi in np.linspace(-20, 20, 401):
            w = float(wrap_angle(phi))
            assert -np.pi < w <= np.pi
            assert abs(np.exp(1j * w) - np.exp(1j * phi)) < 1e-12


class TestProcrustes:
    def test_identity(self):
        np.testing.assert_allclose(procrustes_best_orthogonal(np.eye(3)), np.eye(3), atol=1e-12)

    def test_positive_diagonal(self):
        best = procrustes_best_orthogonal(np.diag([2.0, 3.0]))
        np.testing.assert_allclose(best, np.eye(2), atol=1e-12)
        assert np.trace(best @ np.diag([2.0, 3.0])) == pytest.approx(5.0)

    def test_never_beaten_by_random_orthogonals(self):
        rng = np.random.default_rng(2024)
        b = rng.normal(size=(4, 4))
        best = procrustes_best_orthogonal(b)
        assert is_real_orthogonal(best, 1e-12)
        best_trace = np.trace(best @ b)
        for _ in range(10_000):
            other = rv.random_orthogonal(rng, 4)
            assert np.trace(other @ b) <= best_trace + 1e-10

    def test_achieves_nuclear_norm(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            b = rng.normal(size=(3, 3))
            best = procrustes_best_orthogonal(b)
            assert np.trace(best @ b) == pytest.approx(np.linalg.svd(b)[1].sum())

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            procrustes_best_orthogonal(np.ones((2, 3)))

    @pytest.mark.parametrize("shape", [(4, 2, 3), (3,), ()])
    def test_rejects_non_square_stacks_and_vectors(self, shape):
        with pytest.raises(DimensionError):
            procrustes_best_orthogonal(np.ones(shape))

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 24])
    def test_a_stack_equals_its_matrices_bit_for_bit(self, n):
        b = np.random.default_rng(n).normal(size=(2, 3, n, n))
        stacked = procrustes_best_orthogonal(b)
        assert stacked.shape == b.shape
        for got, one in zip(stacked.reshape(6, n, n), b.reshape(6, n, n)):
            assert got.tobytes() == procrustes_best_orthogonal(one).tobytes()

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError, match="non-finite"):
            procrustes_best_orthogonal(np.array([[1.0, np.nan], [0.0, 1.0]]))


class TestDiagonalUnitary:
    def test_unit_modulus_by_construction(self):
        d = DiagonalUnitary([0.1, 2.0, -40.0])
        np.testing.assert_allclose(np.abs(d.diagonal()), 1.0, atol=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_phases_rejected(self, bad):
        with pytest.raises(ValidationError, match="phases contain non-finite values"):
            DiagonalUnitary([0.0, bad])
        with pytest.raises(ValidationError, match="phases contain non-finite values"):
            _diagonal_rows(np.array([[0.0, 0.0], [0.0, bad]]))

    def test_phases_must_be_a_vector(self):
        with pytest.raises(DimensionError, match="1-D"):
            DiagonalUnitary(np.zeros((2, 2)))

    def test_rows_of_a_phase_block(self):
        block = np.array([[0.1, 2.0], [-40.0, 0.0], [3.0, 1e-300]])
        rows = _diagonal_rows(block)
        assert [type(d) for d in rows] == [DiagonalUnitary] * 3
        for d, row in zip(rows, block):
            assert np.array_equal(d.phases, DiagonalUnitary(row).phases)
            assert d.dim == 2
