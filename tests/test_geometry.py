import math

import numpy as np
import pytest

from conftest import grid_coordinates, linear_index, pair_distance


class TestLinearIndex:
    def test_origin_is_zero(self):
        assert linear_index((2, 2), 0, 0) == 0

    def test_row_major_formula(self):
        assert linear_index((2, 2), 1, 0) == 2

    def test_last_element(self):
        assert linear_index((2, 2), 1, 1) == 3

    @pytest.mark.parametrize("ix,iy", [(-1, 0), (0, -1), (2, 0), (0, 2)])
    def test_out_of_range_raises(self, ix, iy):
        with pytest.raises(IndexError):
            linear_index((2, 2), ix, iy)

    @pytest.mark.parametrize("shape", [(1, 1), (2, 3), (5, 4), (7, 1)])
    def test_round_trip_is_identity(self, shape):
        for idx in range(math.prod(shape)):
            ix, iy = grid_coordinates(shape, idx)
            assert linear_index(shape, ix, iy) == idx


class TestPairDistance:
    def test_collocated_axes_give_separation(self):
        assert pair_distance((3, 3), 4, (3, 3), 4, 0.004, 0.25) == 0.25

    def test_single_axis_offset(self):
        d = pair_distance((3, 3), 0, (3, 3), linear_index((3, 3), 1, 0), 0.004, 0.25)
        assert d == pytest.approx(math.sqrt(0.004**2 + 0.25**2), rel=1e-15)

    def test_symmetry(self):
        a, b = (3, 4), (5, 2)
        rng = np.random.default_rng(3)
        for _ in range(25):
            ia = int(rng.integers(math.prod(a)))
            ib = int(rng.integers(math.prod(b)))
            assert pair_distance(a, ia, b, ib, 0.007, 0.1) == pair_distance(b, ib, a, ia, 0.007, 0.1)

    def test_lower_bound_is_separation(self):
        a, b = (4, 4), (2, 5)
        for ia in range(math.prod(a)):
            for ib in range(math.prod(b)):
                d = pair_distance(a, ia, b, ib, 0.003, 0.05)
                same_coords = grid_coordinates(a, ia) == grid_coordinates(b, ib)
                if same_coords:
                    assert d == 0.05
                else:
                    assert d > 0.05

    def test_centered_alignment_shifts_origin(self):
        small, big = (1, 1), (3, 3)
        # Index-aligned: the 1x1 grid sits over the big grid's corner element.
        assert pair_distance(small, 0, big, 0, 0.01, 0.02) == 0.02
        # Centered: it sits over the big grid's middle element.
        centered = pair_distance(small, 0, big, linear_index(big, 1, 1), 0.01, 0.02, centered=True)
        assert centered == pytest.approx(0.02, rel=1e-15)

    def test_non_positive_separation_rejected(self):
        with pytest.raises(ValueError):
            pair_distance((2, 2), 0, (2, 2), 0, 0.004, 0.0)
