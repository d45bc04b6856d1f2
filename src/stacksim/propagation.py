"""Free-space propagation between consecutive layers.

Each entry of a propagation matrix is the complex transmission gain between
one source element and one destination element, evaluated from the
Rayleigh-Sommerfeld diffraction integral for an element of effective area
``A`` re-radiating toward a parallel plane at separation ``s``:

    K(d; A, s) = A*s / (2*pi*d^3) * (1 - j*k0*d) * exp(j*k0*d)

with ``k0 = 2*pi/lambda0`` the free-space wavenumber and ``d`` the distance
between the two elements.

A propagation matrix is allocated once and filled in blocks of at most
``_BLOCK`` destination rows, so its build allocates no other array of the
matrix's size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .geometry import GridSpec

__all__ = ["SPEED_OF_LIGHT", "KernelParams", "rs_kernel", "build_propagation_matrix"]

SPEED_OF_LIGHT = 3.0e8  # m/s

# Rows or columns of a Q-sized array computed at once: destination rows of a
# propagation matrix here, and the blocks of the Q x Q products in pgd.py.
_BLOCK = 64


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
    # amplitude * (1 - j*k0*d) * exp(j*k0*d) in two complex buffers, keeping the
    # operation and operand order of that expression so entries match it bit
    # for bit (complex x*y and y*x can differ in the last bit).
    phase = np.multiply(1j * k0, d, out=np.empty(d.shape, dtype=complex))
    value = np.subtract(1.0, phase, out=np.empty(d.shape, dtype=complex))
    np.multiply(amplitude, value, out=value)
    value *= np.exp(phase, out=phase)
    return complex(value) if value.ndim == 0 else value


def build_propagation_matrix(
    src: GridSpec,
    dst: GridSpec,
    params: KernelParams,
    centered: bool = False,
) -> np.ndarray:
    """Complex ``dst.total x src.total`` matrix of per-element-pair gains.

    Entry (r, c) is the kernel evaluated at the distance between destination
    element ``r`` and source element ``c`` for planes ``params.separation``
    apart. Grids are aligned by index (element (0, 0) of each grid coincides),
    or by their centers when ``centered``; the test suite checks every entry
    against a per-pair distance oracle (``pair_distance`` in ``tests/conftest.py``).
    """
    if src.spacing != dst.spacing:
        raise ConfigurationError(
            f"source and destination grids must share a spacing, got {src.spacing} and {dst.spacing}"
        )
    sx, sy = src.axis_coordinates()
    dx_, dy_ = dst.axis_coordinates()
    matrix = np.empty((dst.total, src.total), dtype=complex)
    for start in range(0, dst.total, _BLOCK):
        rows = slice(start, start + _BLOCK)
        dx = dx_[rows, None] - sx[None, :]
        dy = dy_[rows, None] - sy[None, :]
        if centered:
            # Same operation order as the pair_distance oracle in tests/conftest.py,
            # so entries match it bit for bit.
            dx += (src.count_x - dst.count_x) / 2.0
            dy += (src.count_y - dst.count_y) / 2.0
        # sqrt((dx*dx + dy*dy) * spacing**2 + separation**2), computed in dx's buffer.
        d = np.multiply(dx, dx, out=dx)
        d += np.multiply(dy, dy, out=dy)
        d *= src.spacing**2
        d += params.separation**2
        matrix[rows] = rs_kernel(np.sqrt(d, out=d), params)
    matrix.flags.writeable = False
    return matrix
