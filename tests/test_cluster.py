import numpy as np
import pytest

import refvals as rv
from mphd import (
    cluster_unitary,
    euler_orthogonal,
    is_real_orthogonal,
    is_unitary,
    linear_cluster_3,
    linear_cluster_4,
    path_adjacency,
    solve_a,
    symmetric_x,
    validate_cluster,
)
from mphd.errors import DimensionError, ValidationError


def cycle_adjacency(n):
    v = path_adjacency(n)
    v[0, n - 1] = v[n - 1, 0] = 1.0
    return v


def star_adjacency(n):
    v = np.zeros((n, n))
    v[0, 1:] = v[1:, 0] = 1.0
    return v


def random_graph(rng, n):
    upper = rng.integers(0, 2, size=(n, n))
    v = np.triu(upper, 1).astype(float)
    return v + v.T


def weighted_graph(rng, n):
    edges = rng.random((n, n)) < 0.5
    v = np.triu(np.where(edges, rng.uniform(-2.0, 2.0, (n, n)), 0.0), 1)
    return v + v.T


def kron_oracle(v):
    """Minimum-norm solution of the vectorized system (V (x) V + I) vec(A) = vec(I)."""
    n = v.shape[0]
    system = np.kron(v, v) + np.eye(n * n)
    return (np.linalg.pinv(system) @ np.eye(n).reshape(-1)).reshape(n, n)


def sample_graphs(rng, sizes):
    """Seeded weighted random graphs plus the path and the edgeless graph per size."""
    for n in sizes:
        yield weighted_graph(rng, n)
        yield path_adjacency(n, rng.uniform(0.5, 2.0))
        yield np.zeros((n, n))


class TestSolveA:
    def test_three_path_rational_solution(self):
        np.testing.assert_allclose(solve_a(rv.PATH_3), rv.A_PATH3, atol=1e-12)

    def test_edgeless_single_vertex(self):
        np.testing.assert_allclose(solve_a(np.zeros((1, 1))), [[1.0]], atol=1e-12)

    def test_two_mode_edge_minimum_norm(self):
        v = np.array([[0.0, 1.0], [1.0, 0.0]])
        a = solve_a(v)
        np.testing.assert_allclose(a, np.eye(2) / 2, atol=1e-12)
        # independent pseudo-inverse oracle for the vectorized system
        np.testing.assert_allclose(a, kron_oracle(v), atol=1e-12)

    def test_closed_form_matches_kron_oracle(self):
        rng = np.random.default_rng(31)
        for v in sample_graphs(rng, range(1, 9)):
            np.testing.assert_allclose(solve_a(v), kron_oracle(v), atol=1e-12)

    def test_residual_small_on_many_graphs(self):
        rng = np.random.default_rng(7)
        graphs = [path_adjacency(n) for n in range(1, 9)]
        graphs += [cycle_adjacency(n) for n in range(3, 9)]
        graphs += [star_adjacency(n) for n in range(2, 9)]
        graphs += [random_graph(rng, n) for n in range(2, 9) for _ in range(3)]
        for v in graphs:
            a = solve_a(v)
            eye = np.eye(v.shape[0])
            assert np.linalg.norm(v @ a @ v - (eye - a)) <= 1e-10
            assert np.linalg.eigvalsh(a).min() >= -1e-10

    def test_validation(self):
        with pytest.raises(ValidationError):
            solve_a(np.array([[0.0, 1.0], [0.5, 0.0]]))  # asymmetric
        with pytest.raises(ValidationError):
            solve_a(np.array([[1.0, 0.0], [0.0, 0.0]]))  # nonzero diagonal
        with pytest.raises(DimensionError):
            solve_a(np.zeros((2, 3)))

    def test_empty_graph_rejected(self):
        with pytest.raises(DimensionError):
            solve_a(np.zeros((0, 0)))
        with pytest.raises(DimensionError):
            cluster_unitary(np.zeros((0, 0)))


class TestSymmetricX:
    def test_identity(self):
        np.testing.assert_allclose(symmetric_x(np.eye(3)), np.eye(3), atol=1e-12)

    def test_three_path_root(self):
        np.testing.assert_allclose(symmetric_x(rv.A_PATH3), rv.XS_PATH3, atol=1e-12)

    def test_half_identity(self):
        np.testing.assert_allclose(
            symmetric_x(np.eye(2) / 2), np.eye(2) / np.sqrt(2), atol=1e-14
        )

    def test_square_recovers_input(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = rng.normal(size=(4, 4))
            a = m @ m.T
            x = symmetric_x(a)
            np.testing.assert_allclose(x @ x, a, atol=1e-10)
            np.testing.assert_allclose(x, x.T, atol=1e-12)
            assert np.linalg.eigvalsh(x).min() >= -1e-12

    def test_rejects_indefinite(self):
        with pytest.raises(ValidationError):
            symmetric_x(np.diag([1.0, -0.5]))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            symmetric_x(np.array([[1.0, 0.2], [0.0, 1.0]]))


class TestClusterUnitary:
    def test_single_vertex(self):
        sol = cluster_unitary(np.zeros((1, 1)))
        np.testing.assert_allclose(sol.u, [[1.0]], atol=1e-12)

    def test_three_path_symmetric_solution(self):
        sol = cluster_unitary(rv.PATH_3)
        np.testing.assert_allclose(sol.u, rv.US_PATH3, atol=1e-12)
        assert is_unitary(sol.u, 1e-10)

    def test_published_three_mode_generator_in_family(self):
        # freedom := X_s^-1 (I + iV)^-1 U must come out real orthogonal
        u17 = linear_cluster_3()
        inv = np.linalg.inv(np.eye(3) + 1j * rv.PATH_3)
        freedom = np.linalg.inv(rv.XS_PATH3) @ inv @ u17
        assert np.abs(freedom.imag).max() <= 1e-12
        assert is_real_orthogonal(freedom.real, 1e-10)
        sol = cluster_unitary(rv.PATH_3, freedom.real)
        np.testing.assert_allclose(sol.u, u17, atol=1e-10)

    def test_freedom_invariance(self):
        rng = np.random.default_rng(12)
        for n in (2, 3, 5):
            v = path_adjacency(n)
            free = rv.random_orthogonal(rng, n)
            sol = cluster_unitary(v, free)
            check = validate_cluster(sol.u, v, tol=1e-9)
            assert check.passed, check.residuals

    def test_rejects_non_orthogonal_freedom(self):
        with pytest.raises(ValidationError):
            cluster_unitary(rv.PATH_3, np.full((3, 3), 0.5))

    def test_rejects_wrong_freedom_shape(self):
        with pytest.raises(DimensionError):
            cluster_unitary(rv.PATH_3, np.eye(2))

    def test_many_graphs_validate(self):
        rng = np.random.default_rng(21)
        graphs = [path_adjacency(n) for n in range(1, 9)]
        graphs += [cycle_adjacency(n) for n in range(3, 9)]
        graphs += [star_adjacency(n) for n in range(2, 9)]
        graphs += [random_graph(rng, n) for n in range(2, 9) for _ in range(2)]
        for v in graphs:
            sol = cluster_unitary(v)
            assert is_unitary(sol.u, 1e-9)
            check = validate_cluster(sol.u, v, tol=1e-9)
            assert check.passed, (v, check.residuals)


    @pytest.mark.parametrize("sizes", [(1, 2, 3, 5, 8), (16, 33, 64)])
    def test_closed_form_properties(self, sizes):
        rng = np.random.default_rng(sum(sizes))
        free_rng = np.random.default_rng(len(sizes))
        for v in sample_graphs(rng, sizes):
            sol = cluster_unitary(v)
            eye = np.eye(v.shape[0])
            scale = 1.0 + np.linalg.norm(v, 2) ** 2
            assert np.linalg.norm(v @ sol.a @ v - (eye - sol.a)) <= 1e-13 * v.shape[0] * scale
            assert np.linalg.eigvalsh(sol.a).min() > 0.0
            np.testing.assert_array_equal(sol.a, sol.a.T)
            np.testing.assert_allclose(sol.x_s @ sol.x_s, sol.a, atol=1e-13 * v.shape[0])
            np.testing.assert_array_equal(sol.x, sol.x_s)
            np.testing.assert_array_equal(sol.a, solve_a(v))
            turned = cluster_unitary(v, rv.random_orthogonal(free_rng, v.shape[0]))
            np.testing.assert_array_equal(turned.x_s, sol.x_s)
            np.testing.assert_array_equal(turned.x, turned.x_s @ turned.orthogonal_freedom)


class TestValidateCluster:
    def test_published_three_mode_generator(self):
        check = validate_cluster(linear_cluster_3(), rv.PATH_3, tol=1e-10)
        assert check.passed, check.residuals

    def test_four_mode_generator_against_path(self):
        check = validate_cluster(linear_cluster_4(), rv.PATH_4, tol=1e-10)
        assert check.passed, check.residuals

    def test_identity_fails(self):
        check = validate_cluster(np.eye(3), rv.PATH_3)
        assert not check.passed
        assert check.residuals["y_equals_vx"] == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            validate_cluster(np.eye(3), rv.PATH_4)


class TestEulerOrthogonal:
    def test_identity(self):
        np.testing.assert_allclose(euler_orthogonal(0, 0, 0), np.eye(3), atol=1e-15)

    def test_single_factor(self):
        expected = np.array([[0.0, 1, 0], [-1, 0, 0], [0, 0, 1]])
        np.testing.assert_allclose(euler_orthogonal(np.pi / 2, 0, 0), expected, atol=1e-12)

    def test_random_triples_special_orthogonal(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            o = euler_orthogonal(*rng.uniform(-np.pi, np.pi, 3))
            assert is_real_orthogonal(o, 1e-12)
            assert np.linalg.det(o) == pytest.approx(1.0, abs=1e-12)


class TestGeneratorConstants:
    def test_four_mode_entries(self):
        u = linear_cluster_4()
        assert u[0, 2] == pytest.approx(2j / np.sqrt(10))
        assert is_unitary(u, 1e-12)

    def test_three_mode_unitary(self):
        assert is_unitary(linear_cluster_3(), 1e-12)
