"""Free-space propagation between consecutive layers.

Each entry of a propagation matrix is the complex transmission gain between
one source element and one destination element, evaluated from the
Rayleigh-Sommerfeld diffraction integral for an element of effective area
``A`` re-radiating toward a parallel plane at separation ``s``:

    K(d) = A*s / (2*pi*d^3) * (1 - j*k0*d) * exp(j*k0*d)

with ``k0 = 2*pi/lambda0`` the free-space wavenumber and ``d`` the distance
between the two elements. Every hop, the feed's included, has the source
paper's geometry, after An et al.'s SIM model (IEEE JSAC 2023): a 28 GHz
carrier, elements half a wavelength apart and each one full cell in area,
and planes half a wavelength apart.

A grid is its ``(count_x, count_y)`` shape, and every grid has the element
spacing :data:`SPACING`, so ``d`` depends only on the in-plane offset between
two elements. A propagation matrix evaluates the kernel once per distinct offset
and gathers its entries from that table, so its build allocates no other
array of the matrix's size.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["SPEED_OF_LIGHT", "CARRIER_HZ", "WAVELENGTH", "SPACING", "rs_kernel", "build_propagation_matrix"]

SPEED_OF_LIGHT = 3.0e8  # m/s
CARRIER_HZ = 28e9
WAVELENGTH = SPEED_OF_LIGHT / CARRIER_HZ  # lambda0, m
SPACING = 0.5 * WAVELENGTH  # between neighbouring elements of a grid, m
ELEMENT_AREA = 0.5**2 * WAVELENGTH**2  # A, m^2
SEPARATION = SPACING  # s, between consecutive planes, m
WAVENUMBER = 2.0 * math.pi / WAVELENGTH  # k0, rad/m


def rs_kernel(d):
    """Rayleigh-Sommerfeld transmission gain at distance ``d`` (scalar or array).

    The magnitude is ``A*s/(2*pi*d^3) * sqrt(1 + (k0*d)^2)`` and decreases
    monotonically with ``d``.
    """
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise ValueError("propagation distance must be positive")
    amplitude = ELEMENT_AREA * SEPARATION / (2.0 * math.pi * d**3)
    value = amplitude * (1.0 - 1j * WAVENUMBER * d) * np.exp(1j * WAVENUMBER * d)
    return complex(value) if value.ndim == 0 else value


def build_propagation_matrix(src: tuple[int, int], dst: tuple[int, int], centered: bool = False) -> np.ndarray:
    """Complex ``prod(dst) x prod(src)`` matrix of per-element-pair gains.

    ``src`` and ``dst`` are grid shapes. Entry (r, c) is the kernel at the
    distance between destination element ``r`` and source element ``c``
    (row-major indices). Grids are aligned by index (element (0, 0) of
    each grid coincides), or by their centers when ``centered``; the test suite
    checks every entry against a per-pair distance oracle (``pair_distance`` in
    ``tests/conftest.py``).
    """
    if min(*src, *dst) < 1:
        raise ValueError(f"grids must have at least one element per axis, got {src} and {dst}")
    (sx, sy), (dx, dy) = src, dst
    # Offsets dst - src along each axis, in index units, and the kernel on
    # every (x, y) offset pair, in the pair_distance oracle's operation order
    # (tests/conftest.py) so entries match it bit for bit.
    ox = np.arange(1 - sx, dx, dtype=float)
    oy = np.arange(1 - sy, dy, dtype=float)
    if centered:
        ox += (sx - dx) / 2.0
        oy += (sy - dy) / 2.0
    d = (ox[:, None] ** 2 + oy**2) * SPACING**2 + SEPARATION**2
    table = rs_kernel(np.sqrt(d))
    # Entry (r, c) reads the table at r's coordinates minus c's, shifted to
    # start at 0.
    ix = np.arange(dx)[:, None] - np.arange(sx) + sx - 1
    iy = np.arange(dy)[:, None] - np.arange(sy) + sy - 1
    matrix = table[ix[:, None, :, None], iy[None, :, None, :]].reshape(dx * dy, sx * sy)
    matrix.flags.writeable = False
    return matrix
