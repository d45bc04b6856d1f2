"""Free-space propagation between consecutive layers.

Each entry of a propagation matrix is the complex transmission gain between
one source element and one destination element, evaluated from the
Rayleigh-Sommerfeld diffraction integral for an element of effective area
``A`` re-radiating toward a parallel plane at separation ``s``:

    K(d; A, s) = A*s / (2*pi*d^3) * (1 - j*k0*d) * exp(j*k0*d)

with ``k0 = 2*pi/lambda0`` the free-space wavenumber and ``d`` the distance
between the two elements.

A grid is its ``(count_x, count_y)`` shape, and a stack's grids share one
element spacing, so ``d`` depends only on the in-plane offset between two
elements. A propagation matrix evaluates the kernel once per distinct offset
and gathers its entries from that table, so its build allocates no other
array of the matrix's size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["SPEED_OF_LIGHT", "KernelParams", "rs_kernel", "build_propagation_matrix"]

SPEED_OF_LIGHT = 3.0e8  # m/s


@dataclass(frozen=True)
class KernelParams:
    """Physical constants of one propagation hop.

    wavelength: carrier wavelength lambda0 = c/f0 in meters.
    element_area: effective area of the radiating element in m^2.
    separation: spacing between the two parallel planes in meters.
    """

    wavelength: float
    element_area: float
    separation: float

    def __post_init__(self) -> None:
        for name in ("wavelength", "element_area", "separation"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")

    @property
    def wavenumber(self) -> float:
        return 2.0 * math.pi / self.wavelength


def rs_kernel(d, params: KernelParams):
    """Rayleigh-Sommerfeld transmission gain at distance ``d`` (scalar or array).

    The magnitude is ``A*s/(2*pi*d^3) * sqrt(1 + (k0*d)^2)`` and decreases
    monotonically with ``d``.
    """
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise ValueError("propagation distance must be positive")
    k0 = params.wavenumber
    amplitude = params.element_area * params.separation / (2.0 * math.pi * d**3)
    value = amplitude * (1.0 - 1j * k0 * d) * np.exp(1j * k0 * d)
    return complex(value) if value.ndim == 0 else value


def build_propagation_matrix(
    src: tuple[int, int],
    dst: tuple[int, int],
    spacing: float,
    params: KernelParams,
    centered: bool = False,
) -> np.ndarray:
    """Complex ``prod(dst) x prod(src)`` matrix of per-element-pair gains.

    ``src`` and ``dst`` are grid shapes, ``spacing`` meters between elements.
    Entry (r, c) is the kernel at the distance between destination element
    ``r`` and source element ``c`` (row-major indices) for planes
    ``params.separation`` apart. Grids are aligned by index (element (0, 0) of
    each grid coincides), or by their centers when ``centered``; the test suite
    checks every entry against a per-pair distance oracle (``pair_distance`` in
    ``tests/conftest.py``).
    """
    if min(*src, *dst) < 1:
        raise ValueError(f"grids must have at least one element per axis, got {src} and {dst}")
    if not spacing > 0:
        raise ValueError(f"grid spacing must be positive, got {spacing}")
    (sx, sy), (dx, dy) = src, dst
    # Offsets dst - src along each axis, in index units, and the kernel on
    # every (x, y) offset pair, in the pair_distance oracle's operation order
    # (tests/conftest.py) so entries match it bit for bit.
    ox = np.arange(1 - sx, dx, dtype=float)
    oy = np.arange(1 - sy, dy, dtype=float)
    if centered:
        ox += (sx - dx) / 2.0
        oy += (sy - dy) / 2.0
    d = (ox[:, None] ** 2 + oy**2) * spacing**2 + params.separation**2
    table = rs_kernel(np.sqrt(d), params)
    # Entry (r, c) reads the table at r's coordinates minus c's, shifted to
    # start at 0.
    ix = np.arange(dx)[:, None] - np.arange(sx) + sx - 1
    iy = np.arange(dy)[:, None] - np.arange(sy) + sy - 1
    matrix = table[ix[:, None, :, None], iy[None, :, None, :]].reshape(dx * dy, sx * sy)
    matrix.flags.writeable = False
    return matrix
