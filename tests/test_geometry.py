import math

import numpy as np
import pytest

from stacksim import ConfigurationError, GridSpec
from conftest import grid_coordinates, linear_index, pair_distance


class TestLinearIndex:
    def test_origin_is_zero(self):
        grid = GridSpec(2, 2, 0.005)
        assert linear_index(grid, 0, 0) == 0

    def test_row_major_formula(self):
        grid = GridSpec(2, 2, 0.005)
        assert linear_index(grid, 1, 0) == 2

    def test_last_element(self):
        grid = GridSpec(2, 2, 0.005)
        assert linear_index(grid, 1, 1) == grid.total - 1

    @pytest.mark.parametrize("ix,iy", [(-1, 0), (0, -1), (2, 0), (0, 2)])
    def test_out_of_range_raises(self, ix, iy):
        with pytest.raises(IndexError):
            linear_index(GridSpec(2, 2, 0.005), ix, iy)

    @pytest.mark.parametrize("shape", [(1, 1), (2, 3), (5, 4), (7, 1)])
    def test_round_trip_is_identity(self, shape):
        grid = GridSpec(*shape, 0.01)
        for idx in range(grid.total):
            ix, iy = grid_coordinates(grid, idx)
            assert linear_index(grid, ix, iy) == idx

    def test_invalid_grid_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(0, 3, 0.01)
        with pytest.raises(ValueError):
            GridSpec(2, 2, 0.0)


class TestPairDistance:
    def test_collocated_axes_give_separation(self):
        grid = GridSpec(3, 3, 0.004)
        assert pair_distance(grid, 4, grid, 4, 0.25) == 0.25

    def test_single_axis_offset(self):
        grid = GridSpec(3, 3, 0.004)
        d = pair_distance(grid, 0, grid, linear_index(grid, 1, 0), 0.25)
        assert d == pytest.approx(math.sqrt(0.004**2 + 0.25**2), rel=1e-15)

    def test_symmetry(self):
        a = GridSpec(3, 4, 0.007)
        b = GridSpec(5, 2, 0.007)
        rng = np.random.default_rng(3)
        for _ in range(25):
            ia = int(rng.integers(a.total))
            ib = int(rng.integers(b.total))
            assert pair_distance(a, ia, b, ib, 0.1) == pair_distance(b, ib, a, ia, 0.1)

    def test_lower_bound_is_separation(self):
        a = GridSpec(4, 4, 0.003)
        b = GridSpec(2, 5, 0.003)
        for ia in range(a.total):
            for ib in range(b.total):
                d = pair_distance(a, ia, b, ib, 0.05)
                same_coords = grid_coordinates(a, ia) == grid_coordinates(b, ib)
                if same_coords:
                    assert d == 0.05
                else:
                    assert d > 0.05

    def test_mismatched_spacing_rejected(self):
        with pytest.raises(ConfigurationError):
            pair_distance(GridSpec(2, 2, 0.004), 0, GridSpec(2, 2, 0.005), 0, 0.1)

    def test_centered_alignment_shifts_origin(self):
        small = GridSpec(1, 1, 0.01)
        big = GridSpec(3, 3, 0.01)
        # Index-aligned: the 1x1 grid sits over the big grid's corner element.
        assert pair_distance(small, 0, big, 0, 0.02) == 0.02
        # Centered: it sits over the big grid's middle element.
        centered = pair_distance(small, 0, big, linear_index(big, 1, 1), 0.02, centered=True)
        assert centered == pytest.approx(0.02, rel=1e-15)

    def test_non_positive_separation_rejected(self):
        grid = GridSpec(2, 2, 0.004)
        with pytest.raises(ValueError):
            pair_distance(grid, 0, grid, 0, 0.0)
