import math

import numpy as np
import pytest

from stacksim import (
    PRESETS,
    KernelParams,
    build_propagation_matrix,
    build_stack,
    propagation,
    rs_kernel,
)
from conftest import pair_distance, rs_kernel_expression

WAVELENGTH = 0.0107  # ~28 GHz


def half_wave_params(wavelength=WAVELENGTH):
    s = wavelength / 2
    return KernelParams(wavelength=wavelength, element_area=s**2, separation=s)


class TestKernel:
    def test_half_wavelength_on_axis_value(self):
        # Hand evaluation at k0*d = pi with A = s^2, d = s:
        # amplitude = s^3/(2*pi*s^3) = 1/(2*pi), phase factor e^{j*pi} = -1,
        # so K = (1/(2*pi)) * (1 - j*pi) * (-1) = (-1 + j*pi) / (2*pi).
        params = half_wave_params()
        expected = (-1.0 + 1j * math.pi) / (2.0 * math.pi)
        assert rs_kernel(params.separation, params) == pytest.approx(expected, rel=1e-12)

    def test_magnitude_identity(self):
        params = KernelParams(wavelength=0.01, element_area=2.3e-5, separation=0.004)
        k0 = params.wavenumber
        for d in (0.004, 0.009, 0.02, 0.31):
            expected = params.element_area * params.separation / (2 * math.pi * d**3) * math.sqrt(1 + (k0 * d) ** 2)
            assert abs(rs_kernel(d, params)) == pytest.approx(expected, rel=1e-12)

    def test_linear_in_element_area(self):
        base = KernelParams(wavelength=0.01, element_area=1e-5, separation=0.005)
        doubled = KernelParams(wavelength=0.01, element_area=2e-5, separation=0.005)
        assert rs_kernel(0.0123, doubled) == pytest.approx(2 * rs_kernel(0.0123, base), rel=1e-14)

    @pytest.mark.parametrize("centered", [False, True])
    def test_bit_identical_to_one_expression(self, centered):
        params = half_wave_params()
        # Both alignments, a source smaller and larger than its destination,
        # odd and even sides (half-integer offsets when centered), up to Q=576.
        s = params.separation
        for dst, src in ((6, 9), (7, 5)), ((10, 10), (24, 24)), ((12, 12), (5, 13)), ((24, 24), (24, 24)):
            d = np.array(
                [[pair_distance(dst, r, src, c, s, s, centered) for c in range(math.prod(src))]
                 for r in range(math.prod(dst))]
            )
            expected = rs_kernel_expression(d, params)
            np.testing.assert_array_equal(rs_kernel(d, params), expected)
            np.testing.assert_array_equal(build_propagation_matrix(src, dst, s, params, centered), expected)
        assert type(rs_kernel(0.0123, params)) is complex
        assert rs_kernel(0.0123, params) == complex(rs_kernel_expression(0.0123, params))

    def test_non_positive_distance_rejected(self):
        params = half_wave_params()
        with pytest.raises(ValueError):
            rs_kernel(0.0, params)
        with pytest.raises(ValueError):
            rs_kernel(np.array([0.01, -0.2]), params)


class TestPropagationMatrix:
    def test_single_element_pair(self):
        params = half_wave_params()
        matrix = build_propagation_matrix((1, 1), (1, 1), params.separation, params)
        expected = (-1.0 + 1j * math.pi) / (2.0 * math.pi)
        assert matrix.shape == (1, 1)
        assert matrix[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_feed_matrix_dimensions(self):
        params = half_wave_params()
        assert build_propagation_matrix((2, 2), (3, 3), params.separation, params).shape == (9, 4)

    def test_swap_transposes(self):
        params = half_wave_params()
        forward = build_propagation_matrix((2, 3), (4, 2), params.separation, params)
        backward = build_propagation_matrix((4, 2), (2, 3), params.separation, params)
        np.testing.assert_array_equal(forward, backward.T)

    def test_matches_pair_distance_entrywise(self):
        params = half_wave_params()
        s = params.separation
        src, dst = (3, 2), (2, 4)
        for centered in (False, True):
            matrix = build_propagation_matrix(src, dst, s, params, centered=centered)
            for r in range(math.prod(dst)):
                for c in range(math.prod(src)):
                    d = pair_distance(dst, r, src, c, s, s, centered=centered)
                    # 1-ulp tolerance: numpy's vectorized exp may differ from
                    # its scalar path in the last bit.
                    assert matrix[r, c] == pytest.approx(rs_kernel(d, params), rel=1e-14)

    def test_deterministic_rebuild(self):
        params = half_wave_params()
        first = build_propagation_matrix((5, 5), (4, 4), params.separation, params)
        second = build_propagation_matrix((5, 5), (4, 4), params.separation, params)
        np.testing.assert_array_equal(first, second)

    def test_magnitude_decreases_with_transverse_offset(self):
        params = half_wave_params()
        magnitudes = np.abs(build_propagation_matrix((1, 1), (1, 12), params.separation, params))[:, 0]
        assert np.all(np.diff(magnitudes) < 0)

    @pytest.mark.parametrize("src,dst", [((0, 3), (2, 2)), ((2, 2), (2, 0))])
    def test_zero_count_rejected(self, src, dst):
        params = half_wave_params()
        with pytest.raises(ValueError, match="at least one element per axis"):
            build_propagation_matrix(src, dst, params.separation, params)

    @pytest.mark.parametrize("spacing", [0.0, -0.004])
    def test_non_positive_spacing_rejected(self, spacing):
        params = half_wave_params()
        with pytest.raises(ValueError, match="spacing must be positive"):
            build_propagation_matrix((2, 2), (2, 2), spacing, params)

    def test_kernel_evaluated_once_per_offset(self, monkeypatch):
        # fig5's four hops (2x2 -> 10x10 -> 24x24 -> 24x24 -> 3x3) have
        # 11^2 + 33^2 + 47^2 + 26^2 = 4095 distinct in-plane offsets, against
        # 394,960 element pairs.
        evaluated = []

        def counting_kernel(d, params):
            evaluated.append(np.size(d))
            return rs_kernel(d, params)

        monkeypatch.setattr(propagation, "rs_kernel", counting_kernel)
        stack = build_stack(PRESETS["fig5"].stack)
        assert stack.inner_size == 576
        assert len(evaluated) == 4
        assert sum(evaluated) <= 4095

    def test_result_is_read_only(self):
        params = half_wave_params()
        matrix = build_propagation_matrix((2, 2), (2, 2), params.separation, params)
        with pytest.raises(ValueError):
            matrix[0, 0] = 0
