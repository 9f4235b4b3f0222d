import numpy as np
import pytest

import refvals as rv
from mphd import (
    ModeBasis,
    PixelPartition,
    detection_setup,
    flip_mode_basis,
    load_mode_basis,
    pixel_modes,
    save_mode_basis,
)
from mphd.errors import (
    DimensionError,
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


def lcm_cell_oracle(n_modes, n_pixels):
    """u_t of unit-domain flip modes on equal pixels, on lcm(segments, pixels)
    cells, so that every segment and pixel edge is a cell edge."""
    patterns = sylvester_walsh_oracle(n_modes)
    nseg = patterns.shape[1]
    cells = np.lcm(nseg, n_pixels)
    modes = np.repeat(patterns, cells // nseg, axis=1)
    u_t = np.empty((n_pixels, n_modes))
    for i, pixel in enumerate(np.split(modes, n_pixels, axis=1)):
        kappa = 1.0 / np.sqrt(np.sum(pixel[0] ** 2) / cells)
        u_t[i] = kappa * (pixel @ pixel[0]) / cells
    return u_t


class TestFlipModeBasis:
    def test_single_flat_mode(self):
        basis = flip_mode_basis(1)
        assert basis.n_modes == 1
        np.testing.assert_allclose(basis.samples[0], 1.0)
        assert basis.gram()[0, 0] == pytest.approx(1.0)

    def test_four_mode_sign_patterns(self):
        # one grid cell per quarter segment
        np.testing.assert_array_equal(flip_mode_basis(4).samples, FLIP4_PATTERNS)

    def test_flip_counts(self):
        basis = flip_mode_basis(6)
        for n in range(basis.n_modes):
            signs = np.sign(basis.samples[n])
            flips = np.count_nonzero(signs[1:] != signs[:-1])
            assert flips == n

    def test_patterns_match_sylvester_oracle(self):
        for n in range(1, 65):
            patterns = np.sign(flip_mode_basis(n).samples)
            np.testing.assert_array_equal(patterns, sylvester_walsh_oracle(n), err_msg=f"n = {n}")

    def test_orthonormal_against_segment_oracle(self):
        basis = flip_mode_basis(4)
        gram = basis.gram()
        oracle = segment_overlap_oracle(FLIP4_PATTERNS)
        np.testing.assert_allclose(oracle, np.eye(4), atol=1e-15)
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-10)

    def test_orthonormal_for_odd_mode_counts(self):
        for n in (2, 3, 5, 7):
            basis = flip_mode_basis(n)
            assert basis.orthonormality_residual() <= 1e-10

    @pytest.mark.parametrize("domain", [(-1.0, 3.0), (0.0, 1e-308)])
    def test_custom_domain(self, domain):
        basis = flip_mode_basis(4, domain=domain)
        assert basis.orthonormality_residual() <= 1e-10

    def test_more_than_64_modes_rejected(self):
        with pytest.raises(ValidationError, match="need 1 to 64 flip modes, got 65"):
            flip_mode_basis(65)

    def test_bad_mode_count(self):
        with pytest.raises(ValidationError):
            flip_mode_basis(0)

    def test_empty_domain(self):
        with pytest.raises(ValidationError, match="empty domain"):
            flip_mode_basis(2, domain=(1.0, 1.0))

    @pytest.mark.parametrize(
        "domain, message",
        [
            ((0.0, np.nan), "no finite width"),
            ((0.0, np.inf), "no finite width"),
            ((-1e308, 1e308), "no finite width"),
            ((0.0, 1e-320), "too narrow: its width has no finite reciprocal"),
        ],
    )
    def test_domain_without_finite_width(self, domain, message):
        with pytest.raises(ValidationError, match=message):
            flip_mode_basis(2, domain=domain)


class TestModeBasis:
    def test_empty_domain(self):
        with pytest.raises(ValidationError, match="empty domain"):
            ModeBasis(domain=(1.0, 0.0), samples=np.ones((1, 4)))

    @pytest.mark.parametrize("domain", [(0.0, np.inf), (-np.inf, 0.0), (0.0, np.nan)])
    def test_non_finite_domain(self, domain):
        with pytest.raises(ValidationError, match="not finite"):
            ModeBasis(domain=domain, samples=np.ones((1, 4)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_samples(self, bad):
        with pytest.raises(ValidationError, match="non-finite"):
            ModeBasis(domain=(0.0, 1.0), samples=[[1.0, bad]])


class TestPixelPartition:
    def test_equal(self):
        part = PixelPartition.equal(4)
        assert part.boundaries.size == 5
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
            detection_setup(flip_mode_basis(2), 0, PixelPartition([0.0, 0.5]))


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

    def test_pixel_edge_inside_a_cell_takes_its_share(self):
        # samples are constant on their cells: the edge at 0.3 splits the second cell
        basis = ModeBasis(domain=(0.0, 1.0), samples=np.ones((1, 4)))
        _, kappa = pixel_modes(basis, 0, PixelPartition([0.0, 0.3, 1.0]))
        np.testing.assert_allclose(kappa**2, [1 / 0.3, 1 / 0.7], rtol=1e-14)

    def test_bad_lo_index(self):
        basis = flip_mode_basis(2)
        with pytest.raises(DimensionError):
            pixel_modes(basis, 5, PixelPartition.equal(2))


def detection_matrix(basis, partition):
    return detection_setup(basis, 0, partition).u_t


class TestDetectionMatrix:
    def test_four_mode_example(self):
        u_t = detection_matrix(flip_mode_basis(4), PixelPartition.equal(4))
        np.testing.assert_allclose(u_t, rv.DETECTION_4, atol=1e-8)

    def test_trivial_single_mode(self):
        u_t = detection_matrix(flip_mode_basis(1), PixelPartition.equal(1))
        np.testing.assert_allclose(u_t, [[1.0]], atol=1e-12)

    def test_rows_orthonormal(self):
        u_t = detection_matrix(flip_mode_basis(4), PixelPartition.equal(4))
        np.testing.assert_allclose(u_t.conj().T @ u_t, np.eye(4), atol=1e-8)

    @pytest.mark.parametrize("n", [3, 5, 6, 7, 10, 12, 24, 33, 48])
    def test_matches_the_lcm_cell_oracle(self, n):
        # pixel edges inside flip segments: the overlaps are exact all the same
        for count in sorted({n, 3, 6}):
            u_t = detection_matrix(flip_mode_basis(n), PixelPartition.equal(count))
            np.testing.assert_allclose(u_t, lcm_cell_oracle(n, count), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("domain", [(-1.0, 3.0), (0.0, 1e-308)])
    def test_overlaps_do_not_depend_on_the_domain(self, domain):
        # cell widths weight the samples before the sums, so 1/width near the float limit does not overflow
        u_t = detection_matrix(flip_mode_basis(6, domain=domain), PixelPartition.equal(6, domain))
        unit = detection_matrix(flip_mode_basis(6), PixelPartition.equal(6))
        np.testing.assert_allclose(u_t, unit, rtol=0, atol=1e-14)

    def test_rectangular(self):
        u_t = detection_matrix(flip_mode_basis(4), PixelPartition.equal(6))
        assert u_t.shape == (6, 4)
        # pixel modes resolve the LO fully even with P != N
        np.testing.assert_allclose(np.sum(np.abs(u_t[:, 0]) ** 2), 1.0, atol=1e-10)

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
    def test_matches_the_walsh_closed_form(self, n):
        # equal pixels on 2^k segments: kappa = sqrt(N) and each overlap is a sign over N
        walsh = sylvester_walsh_oracle(n)
        u_t = detection_matrix(flip_mode_basis(n), PixelPartition.equal(n))
        expected = walsh[0][:, None] * walsh.T / np.sqrt(n)
        np.testing.assert_array_equal(u_t, expected)


class TestDetectionSetup:
    @pytest.mark.parametrize(
        "opo, g", [(rv.OPO_LIN4, rv.G_LIN4), (rv.OPO_GATE, rv.G_GATE)], ids=["lin4", "gate"]
    )
    def test_published_front_ends(self, opo, g):
        setup = detection_setup(flip_mode_basis(4), 0, PixelPartition.equal(4), opo)
        np.testing.assert_allclose(setup.g, g, rtol=0, atol=1e-15)

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

    def test_dephasings_are_copied(self):
        opo = rv.OPO_LIN4.copy()
        setup = detection_setup(flip_mode_basis(4), 0, PixelPartition.equal(4), opo)
        opo[:] = 0.0
        np.testing.assert_array_equal(setup.delta_opo.phases, rv.OPO_LIN4)
        assert not setup.delta_opo.phases.flags.writeable


class TestBasisFile:
    def test_round_trip(self, tmp_path):
        basis = flip_mode_basis(3)
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

    def test_overflowing_gram_is_named_not_orthonormal(self, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text("0 1 2\n1e200 1e200\n1e200 -1e200\n")
        with pytest.raises(ValidationError, match="not orthonormal"):
            load_mode_basis(path)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# only a comment\n\n")
        with pytest.raises(ValidationError, match="no header row"):
            load_mode_basis(path)

    @pytest.mark.parametrize("header", ["only two", "a b c", "0.0 1.0 2.5", "0.0 1.0 2 3"])
    def test_rejects_bad_header(self, tmp_path, header):
        path = tmp_path / "bad.txt"
        path.write_text(header + "\n1.0\n-1.0\n")
        with pytest.raises(ValidationError, match="'domain_min domain_max grid_points', got"):
            load_mode_basis(path)

    def test_rejects_nan_domain(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 nan 2\n1.0\n-1.0\n")
        with pytest.raises(ValidationError, match="not finite"):
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
