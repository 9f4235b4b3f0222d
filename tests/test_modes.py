import numpy as np
import pytest

import refvals as rv
from mphd import (
    DiagonalUnitary,
    ModeBasis,
    PixelPartition,
    build_g,
    detection_matrix,
    detection_setup,
    flip_mode_basis,
    load_mode_basis,
    pixel_modes,
    save_mode_basis,
)
from mphd.errors import (
    DimensionError,
    ResolutionError,
    SingularPixelError,
    ValidationError,
)

# sign patterns of the four flip modes on the quarter segments
FLIP4_PATTERNS = np.array(
    [
        [1, 1, 1, 1],
        [1, 1, -1, -1],
        [-1, 1, 1, -1],
        [1, -1, 1, -1],
    ],
    dtype=float,
)


def sylvester_walsh_oracle(n_modes):
    """Sign patterns from Sylvester-Hadamard rows sorted by sign changes, anchored
    positive at the center (or at the left edge when a pattern flips there)."""
    nseg = 1 << (n_modes - 1).bit_length()
    j = np.arange(nseg)
    parity = np.array([[bin(a & b).count("1") % 2 for b in j] for a in j])
    h = np.where(parity == 0, 1.0, -1.0)
    flips = np.count_nonzero(h[:, 1:] != h[:, :-1], axis=1)
    patterns = h[np.argsort(flips, kind="stable")][:n_modes]
    mid = nseg // 2
    for row in patterns:
        row *= row[mid] if nseg == 1 or row[mid - 1] == row[mid] else row[0]
    return patterns


def segment_overlap_oracle(patterns):
    """Exact inner products of unit-domain step modes from their sign patterns."""
    nseg = patterns.shape[1]
    return patterns @ patterns.T / nseg


class TestFlipModeBasis:
    def test_single_flat_mode(self):
        basis = flip_mode_basis(1, grid_points=64)
        assert basis.n_modes == 1
        np.testing.assert_allclose(basis.samples[0], 1.0)
        assert basis.inner(0, 0) == pytest.approx(1.0)

    def test_four_mode_sign_patterns(self):
        basis = flip_mode_basis(4)
        probes = np.array([0.125, 0.375, 0.625, 0.875])
        idx = np.searchsorted(basis.midpoints(), probes)
        values = basis.samples[:, idx]
        np.testing.assert_allclose(values, FLIP4_PATTERNS, atol=1e-12)

    def test_flip_counts(self):
        basis = flip_mode_basis(6, grid_points=1024)
        for n in range(basis.n_modes):
            signs = np.sign(basis.samples[n])
            flips = np.count_nonzero(signs[1:] != signs[:-1])
            assert flips == n

    def test_patterns_match_sylvester_oracle(self):
        for n in range(1, 65):
            nseg = 1 << (n - 1).bit_length()
            basis = flip_mode_basis(n, grid_points=64 * nseg)
            # each segment spans 64 grid cells; read the sign at its first cell
            patterns = np.sign(basis.samples[:, ::64])
            np.testing.assert_array_equal(patterns, sylvester_walsh_oracle(n), err_msg=f"n = {n}")

    def test_orthonormal_against_segment_oracle(self):
        basis = flip_mode_basis(4)
        gram = basis.gram()
        oracle = segment_overlap_oracle(FLIP4_PATTERNS)
        np.testing.assert_allclose(oracle, np.eye(4), atol=1e-15)
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-10)

    def test_orthonormal_for_odd_mode_counts(self):
        for n in (2, 3, 5, 7):
            basis = flip_mode_basis(n, grid_points=64 * 8)
            assert basis.orthonormality_residual() <= 1e-10

    def test_custom_domain(self):
        basis = flip_mode_basis(4, domain=(-1.0, 3.0))
        assert basis.orthonormality_residual() <= 1e-10

    def test_grid_too_coarse(self):
        with pytest.raises(ResolutionError):
            flip_mode_basis(4, grid_points=100)

    def test_bad_mode_count(self):
        with pytest.raises(ValidationError):
            flip_mode_basis(0)

    def test_empty_domain(self):
        with pytest.raises(ValidationError, match="empty domain"):
            flip_mode_basis(2, grid_points=256, domain=(1.0, 1.0))


class TestModeBasis:
    def test_empty_domain(self):
        with pytest.raises(ValidationError, match="empty domain"):
            ModeBasis(domain=(1.0, 0.0), samples=np.ones((1, 4)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_samples(self, bad):
        with pytest.raises(ValidationError, match="non-finite"):
            ModeBasis(domain=(0.0, 1.0), samples=[[1.0, bad]])


class TestPixelPartition:
    def test_equal(self):
        part = PixelPartition.equal(4)
        assert part.count == 4
        np.testing.assert_allclose(part.boundaries, [0, 0.25, 0.5, 0.75, 1.0])

    def test_monotone_required(self):
        with pytest.raises(ValidationError):
            PixelPartition([0.0, 0.5, 0.4, 1.0])

    def test_too_few_boundaries(self):
        with pytest.raises(DimensionError):
            PixelPartition([0.0])

    def test_equal_needs_a_pixel(self):
        with pytest.raises(ValidationError, match="at least one pixel"):
            PixelPartition.equal(0)

    def test_must_cover_the_domain(self):
        with pytest.raises(ValidationError, match="does not cover domain"):
            detection_setup(flip_mode_basis(2, grid_points=256), 0, PixelPartition([0.0, 0.5]))


class TestPixelModes:
    def test_flat_lo_equal_quarters(self):
        basis = flip_mode_basis(4)
        _, kappa = pixel_modes(basis, 0, PixelPartition.equal(4))
        np.testing.assert_allclose(kappa, 2.0, atol=1e-12)

    def test_single_pixel_is_lo(self):
        basis = flip_mode_basis(4)
        modes, kappa = pixel_modes(basis, 0, PixelPartition.equal(1))
        assert kappa[0] == pytest.approx(1.0)
        np.testing.assert_allclose(modes[0], basis.samples[0], atol=1e-12)

    def test_disjoint_slices(self):
        basis = flip_mode_basis(4)
        modes, _ = pixel_modes(basis, 0, PixelPartition.equal(4))
        h = basis.cell_width
        for i in range(4):
            assert h * np.sum(np.abs(modes[i]) ** 2) == pytest.approx(1.0)
            for j in range(i + 1, 4):
                assert np.abs(modes[i] * modes[j]).max() == 0.0

    def test_lo_norm_partitioned(self):
        basis = flip_mode_basis(4)
        for count in (2, 3, 4, 7):
            _, kappa = pixel_modes(basis, 0, PixelPartition.equal(count))
            assert np.sum(1.0 / kappa**2) == pytest.approx(1.0)

    def test_dead_pixel_raises(self):
        m = 256
        samples = np.zeros((1, m))
        samples[0, : m // 2] = np.sqrt(2.0)  # unit norm, dark right half
        basis = ModeBasis(domain=(0.0, 1.0), samples=samples)
        with pytest.raises(SingularPixelError):
            pixel_modes(basis, 0, PixelPartition([0.0, 0.5, 1.0]))

    def test_bad_lo_index(self):
        basis = flip_mode_basis(2, grid_points=256)
        with pytest.raises(DimensionError):
            pixel_modes(basis, 5, PixelPartition.equal(2))


class TestDetectionMatrix:
    def test_four_mode_example(self):
        basis = flip_mode_basis(4)
        u_t = detection_matrix(basis, 0, PixelPartition.equal(4))
        np.testing.assert_allclose(u_t, rv.DETECTION_4, atol=1e-8)

    def test_trivial_single_mode(self):
        basis = flip_mode_basis(1, grid_points=64)
        u_t = detection_matrix(basis, 0, PixelPartition.equal(1))
        np.testing.assert_allclose(u_t, [[1.0]], atol=1e-12)

    def test_rows_orthonormal(self):
        basis = flip_mode_basis(4)
        u_t = detection_matrix(basis, 0, PixelPartition.equal(4))
        np.testing.assert_allclose(u_t.conj().T @ u_t, np.eye(4), atol=1e-8)

    def test_grid_refinement_converges(self):
        part = PixelPartition.equal(4)
        coarse = detection_matrix(flip_mode_basis(4, 4096), 0, part)
        fine = detection_matrix(flip_mode_basis(4, 8192), 0, part)
        assert np.abs(coarse - fine).max() < 1e-8

    def test_rectangular(self):
        basis = flip_mode_basis(4)
        u_t = detection_matrix(basis, 0, PixelPartition.equal(6))
        assert u_t.shape == (6, 4)
        # pixel modes resolve the LO fully even with P != N
        np.testing.assert_allclose(np.sum(np.abs(u_t[:, 0]) ** 2), 1.0, atol=1e-10)


class TestBuildG:
    def test_identity_dephasing(self):
        g = build_g(rv.DETECTION_4, DiagonalUnitary.identity(4))
        np.testing.assert_allclose(g, rv.DETECTION_4, atol=0)

    def test_linear_cluster_dephasing(self):
        g = build_g(rv.DETECTION_4, DiagonalUnitary(rv.OPO_LIN4))
        np.testing.assert_allclose(g, rv.G_LIN4, atol=1e-15)

    def test_gate_dephasing(self):
        g = build_g(rv.DETECTION_4, DiagonalUnitary(rv.OPO_GATE))
        np.testing.assert_allclose(g, rv.G_GATE, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            build_g(rv.DETECTION_4, DiagonalUnitary([0.0, 0.0]))


class TestDetectionSetup:
    def test_invariant(self):
        basis = flip_mode_basis(4)
        setup = detection_setup(basis, 0, PixelPartition.equal(4), rv.OPO_LIN4)
        np.testing.assert_allclose(
            setup.g, setup.u_t * np.conj(setup.delta_opo.diagonal())[None, :], atol=0
        )

    def test_dephasings_default_to_none_and_match_the_mode_count(self):
        basis = flip_mode_basis(4)
        setup = detection_setup(basis, 0, PixelPartition.equal(4))
        np.testing.assert_array_equal(setup.delta_opo.phases, np.zeros(4))
        np.testing.assert_array_equal(setup.g, setup.u_t)
        with pytest.raises(DimensionError, match="2 dephasings given for 4 modes"):
            detection_setup(basis, 0, PixelPartition.equal(4), [0.0, 0.0])


class TestBasisFile:
    def test_round_trip(self, tmp_path):
        basis = flip_mode_basis(3, grid_points=256)
        path = tmp_path / "basis.txt"
        save_mode_basis(basis, path)
        loaded = load_mode_basis(path)
        assert loaded.domain == basis.domain
        np.testing.assert_allclose(loaded.samples, basis.samples, atol=1e-15)

    def test_complex_round_trip(self, tmp_path):
        m = 128
        samples = np.vstack(
            [np.ones(m, dtype=complex), np.exp(2j * np.pi * (np.arange(m) + 0.5) / m)]
        )
        basis = ModeBasis(domain=(0.0, 1.0), samples=samples)
        path = tmp_path / "basis.txt"
        save_mode_basis(basis, path)
        loaded = load_mode_basis(path)
        np.testing.assert_allclose(loaded.samples, samples, atol=1e-12)

    def test_rejects_non_orthonormal(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.0 1.0 2\n1.0 1.0\n1.0 1.0\n")
        with pytest.raises(ValidationError):
            load_mode_basis(path)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# only a comment\n\n")
        with pytest.raises(ValidationError, match="no header row"):
            load_mode_basis(path)

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("only two\n")
        with pytest.raises(ValidationError):
            load_mode_basis(path)

    def test_rejects_row_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.0 1.0 3\n1.0\n1.0\n")
        with pytest.raises(ValidationError):
            load_mode_basis(path)

    @pytest.mark.parametrize(
        "rows", ["1.0 x\n1.0 -1.0\n", "1.0 1.0\n1.0\n"], ids=["unparseable", "ragged"]
    )
    def test_rejects_bad_rows(self, tmp_path, rows):
        path = tmp_path / "bad.txt"
        path.write_text("# comment\n0.0 1.0 2\n" + rows)
        with pytest.raises(ValidationError, match="unparseable or ragged"):
            load_mode_basis(path)

    def test_reads_comments_blank_lines_and_complex_entries(self, tmp_path):
        path = tmp_path / "basis.txt"
        path.write_text("# two modes\n\n0.0 1.0 2\n1.0 0.0+1j\n# middle\n1.0 -0.0-1j\n")
        basis = load_mode_basis(path)
        np.testing.assert_array_equal(basis.samples, [[1.0, 1.0], [1j, -1j]])
        assert basis.domain == (0.0, 1.0)
