import math

import numpy as np
import pytest

from stacksim import PRESETS, build_propagation_matrix, build_stack, propagation, rs_kernel
from conftest import HOP_SPACING, HOP_WAVELENGTH, pair_distance, rs_kernel_expression


class TestKernel:
    def test_half_wavelength_on_axis_value(self):
        # Hand evaluation at k0*d = pi with A = s^2, d = s = lambda/2:
        # amplitude = s^3/(2*pi*s^3) = 1/(2*pi), phase factor e^{j*pi} = -1,
        # so K = (1/(2*pi)) * (1 - j*pi) * (-1) = (-1 + j*pi) / (2*pi).
        expected = (-1.0 + 1j * math.pi) / (2.0 * math.pi)
        assert rs_kernel(HOP_SPACING) == pytest.approx(expected, rel=1e-12)

    def test_magnitude_identity(self):
        area, k0 = HOP_SPACING**2, 2 * math.pi / HOP_WAVELENGTH
        for d in (0.0054, 0.009, 0.02, 0.31):
            expected = area * HOP_SPACING / (2 * math.pi * d**3) * math.sqrt(1 + (k0 * d) ** 2)
            assert abs(rs_kernel(d)) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("centered", [False, True])
    def test_bit_identical_to_one_expression(self, centered):
        # Both alignments, a source smaller and larger than its destination,
        # odd and even sides (half-integer offsets when centered), up to Q=576.
        s = HOP_SPACING
        for dst, src in ((6, 9), (7, 5)), ((10, 10), (24, 24)), ((12, 12), (5, 13)), ((24, 24), (24, 24)):
            d = np.array(
                [[pair_distance(dst, r, src, c, s, s, centered) for c in range(math.prod(src))]
                 for r in range(math.prod(dst))]
            )
            expected = rs_kernel_expression(d)
            np.testing.assert_array_equal(rs_kernel(d), expected)
            np.testing.assert_array_equal(build_propagation_matrix(src, dst, centered), expected)
        assert type(rs_kernel(0.0123)) is complex
        assert rs_kernel(0.0123) == complex(rs_kernel_expression(0.0123))

    def test_non_positive_distance_rejected(self):
        with pytest.raises(ValueError):
            rs_kernel(0.0)
        with pytest.raises(ValueError):
            rs_kernel(np.array([0.01, -0.2]))


class TestPropagationMatrix:
    def test_single_element_pair(self):
        matrix = build_propagation_matrix((1, 1), (1, 1))
        expected = (-1.0 + 1j * math.pi) / (2.0 * math.pi)
        assert matrix.shape == (1, 1)
        assert matrix[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_feed_matrix_dimensions(self):
        assert build_propagation_matrix((2, 2), (3, 3)).shape == (9, 4)

    def test_swap_transposes(self):
        forward = build_propagation_matrix((2, 3), (4, 2))
        backward = build_propagation_matrix((4, 2), (2, 3))
        np.testing.assert_array_equal(forward, backward.T)

    def test_matches_pair_distance_entrywise(self):
        s = HOP_SPACING
        src, dst = (3, 2), (2, 4)
        for centered in (False, True):
            matrix = build_propagation_matrix(src, dst, centered=centered)
            for r in range(math.prod(dst)):
                for c in range(math.prod(src)):
                    d = pair_distance(dst, r, src, c, s, s, centered=centered)
                    # 1-ulp tolerance: numpy's vectorized exp may differ from
                    # its scalar path in the last bit.
                    assert matrix[r, c] == pytest.approx(rs_kernel(d), rel=1e-14)

    def test_deterministic_rebuild(self):
        first = build_propagation_matrix((5, 5), (4, 4))
        second = build_propagation_matrix((5, 5), (4, 4))
        np.testing.assert_array_equal(first, second)

    def test_magnitude_decreases_with_transverse_offset(self):
        magnitudes = np.abs(build_propagation_matrix((1, 1), (1, 12)))[:, 0]
        assert np.all(np.diff(magnitudes) < 0)

    @pytest.mark.parametrize("src,dst", [((0, 3), (2, 2)), ((2, 2), (2, 0))])
    def test_zero_count_rejected(self, src, dst):
        with pytest.raises(ValueError, match="at least one element per axis"):
            build_propagation_matrix(src, dst)

    def test_kernel_evaluated_once_per_offset(self, monkeypatch):
        # fig5's four hops (2x2 -> 10x10 -> 24x24 -> 24x24 -> 3x3) have
        # 11^2 + 33^2 + 47^2 + 26^2 = 4095 distinct in-plane offsets, against
        # 394,960 element pairs.
        evaluated = []

        def counting_kernel(d):
            evaluated.append(np.size(d))
            return rs_kernel(d)

        monkeypatch.setattr(propagation, "rs_kernel", counting_kernel)
        stack = build_stack(PRESETS["fig5"].stack)
        assert stack.inner_size == 576
        assert len(evaluated) == 4
        assert sum(evaluated) <= 4095

    def test_result_is_read_only(self):
        matrix = build_propagation_matrix((2, 2), (2, 2))
        with pytest.raises(ValueError):
            matrix[0, 0] = 0
