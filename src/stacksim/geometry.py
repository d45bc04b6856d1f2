"""Rectangular element grids.

Every radiating surface in the model (feed array and metasurface layers) is a
rectangular grid of elements with uniform spacing. Elements are addressed by a
row-major linear index; the distance between elements of two parallel grids
reduces to an in-plane offset plus the layer separation
(see :mod:`stacksim.propagation`).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["GridSpec"]


@dataclass(frozen=True)
class GridSpec:
    """A ``count_x`` x ``count_y`` grid of elements spaced ``spacing`` meters apart."""

    count_x: int
    count_y: int
    spacing: float

    def __post_init__(self) -> None:
        if self.count_x < 1 or self.count_y < 1:
            raise ValueError(f"grid must have at least one element per axis, got {self.count_x}x{self.count_y}")
        if not self.spacing > 0:
            raise ValueError(f"grid spacing must be positive, got {self.spacing}")

    @property
    def total(self) -> int:
        """Number of elements, ``count_x * count_y``."""
        return self.count_x * self.count_y
