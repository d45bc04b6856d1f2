"""Shared oracles and builders for the test suite.

The oracles here are deliberately independent of the library's computation
paths: brute-force loops, finite differences, and exhaustive search. Tests
compare the library against them rather than against frozen outputs of the
code under test.
"""

from __future__ import annotations

import math

import numpy as np

import stacksim as ss


def small_stack(
    input_shape=(2, 1),
    inner_shape=(2, 2),
    output_shape=(2, 1),
    ac_layers=1,
    pc_layers=2,
    seed=None,
    alpha_pc=0.9,
    upa_shape=(1, 1),
) -> ss.SimStack:
    """Build a small stack and randomize its tunable coefficients."""
    stack = ss.build_stack(
        ss.StackDescription(
            input_shape=input_shape,
            inner_shape=inner_shape,
            output_shape=output_shape,
            ac_layers=ac_layers,
            pc_layers=pc_layers,
            upa_shape=upa_shape,
            alpha_pc=alpha_pc,
        )
    )
    if seed is not None:
        randomize_stack(stack, seed)
    return stack


def randomize_stack(stack: ss.SimStack, seed: int) -> None:
    rng = np.random.default_rng(seed)
    amin, amax = stack.alpha_bounds
    for layer in stack.space_layers:
        low, high = (0, 2 * np.pi) if stack.kind_of(layer).phase_tunable else (amin, min(amax, 2.0))
        stack.set_layer(layer, rng.uniform(low, high, stack.tunable(layer).shape[0]))


def compose_by_path_sum(stack: ss.SimStack) -> np.ndarray:
    """Space-block response accumulated path by path with explicit loops."""
    mats = stack.tail_matrices()
    gammas = stack.gammas()
    n_layers = len(mats)
    out = np.zeros((stack.output_size, stack.input_size), dtype=complex)
    sizes = [m.shape[0] for m in mats]

    def walk(layer, row, amplitude):
        if layer == n_layers:
            return {row: amplitude}
        total = {}
        for nxt in range(sizes[layer]):
            contribution = amplitude * mats[layer][nxt, row] * gammas[layer][nxt]
            for end, value in walk(layer + 1, nxt, contribution).items():
                total[end] = total.get(end, 0.0) + value
        return total

    for z in range(stack.input_size):
        for first in range(sizes[0]):
            seed_amp = mats[0][first, z] * gammas[0][first]
            for end, value in walk(1, first, seed_amp).items():
                out[end, z] += value
    return out


def objective_by_entry_sum(stack: ss.SimStack, target: ss.TargetMatrix) -> float:
    g0 = ss.compose_space_block(stack)
    total = 0.0
    for v in range(g0.shape[0]):
        for z in range(g0.shape[1]):
            total += abs(g0[v, z] - target.entries[v, z]) ** 2
    return total


def finite_difference_gradient(stack: ss.SimStack, target: ss.TargetMatrix, layer: int, step=1e-6) -> np.ndarray:
    """Central finite differences of the objective in the layer's tunable quantity."""
    base = stack.tunable(layer).copy()
    grad = np.zeros_like(base)
    for i in range(base.size):
        for sign in (+1, -1):
            bumped = base.copy()
            bumped[i] += sign * step
            stack.set_layer(layer, bumped)
            grad[i] += sign * ss.objective(stack, target)
    stack.set_layer(layer, base)
    return grad / (2 * step)


def exhaustive_schedule(effective: np.ndarray, noise: float):
    """Reference scheduler: recompute every user's argmax and each beam's
    winner by explicit loops."""
    users, streams = effective.shape
    sinr = np.zeros((users, streams))
    for u in range(users):
        for n in range(streams):
            interference = sum(abs(effective[u, j]) ** 2 for j in range(streams) if j != n)
            sinr[u, n] = abs(effective[u, n]) ** 2 / (interference + noise)
    best = []
    for u in range(users):
        n_star, val = 0, sinr[u, 0]
        for n in range(1, streams):
            if sinr[u, n] > val:
                n_star, val = n, sinr[u, n]
        best.append((n_star, val))
    assignment = []
    for n in range(streams):
        winner, winner_val = ss.UNSERVED, -1.0
        for u in range(users):
            if best[u][0] == n and best[u][1] > winner_val:
                winner, winner_val = u, best[u][1]
        assignment.append((winner, winner_val if winner != ss.UNSERVED else 0.0))
    return assignment


def linear_index(shape: tuple[int, int], ix: int, iy: int) -> int:
    """Row-major linear index of the element at 2-D position ``(ix, iy)`` of a grid of ``shape``."""
    count_x, count_y = shape
    if not (0 <= ix < count_x and 0 <= iy < count_y):
        raise IndexError(f"coordinate ({ix}, {iy}) outside {count_x}x{count_y} grid")
    return ix * count_y + iy


def grid_coordinates(shape: tuple[int, int], index: int) -> tuple[int, int]:
    """Inverse of :func:`linear_index`."""
    if not (0 <= index < math.prod(shape)):
        raise IndexError(f"linear index {index} outside grid with {math.prod(shape)} elements")
    return index // shape[1], index % shape[1]


def pair_distance(
    shape_a: tuple[int, int],
    idx_a: int,
    shape_b: tuple[int, int],
    idx_b: int,
    spacing: float,
    separation: float,
    centered: bool = False,
) -> float:
    """Distance between element ``idx_a`` of one grid and ``idx_b`` of a parallel grid.

    The grids, of shapes ``shape_a`` and ``shape_b``, are concentric,
    axis-aligned planes ``separation`` meters apart sharing the element
    spacing ``spacing``. By default grid origins are aligned by index (element
    (0, 0) of each grid coincides); ``centered=True`` aligns the grid centers
    instead.
    """
    if not separation > 0:
        raise ValueError(f"separation must be positive, got {separation}")
    ax, ay = grid_coordinates(shape_a, idx_a)
    bx, by = grid_coordinates(shape_b, idx_b)
    dx = float(ax - bx)
    dy = float(ay - by)
    if centered:
        dx += (shape_b[0] - shape_a[0]) / 2.0
        dy += (shape_b[1] - shape_a[1]) / 2.0
    return math.sqrt((dx * dx + dy * dy) * spacing**2 + separation**2)


def user_sinr(c_row: np.ndarray, n: int, noise_over_energy: float) -> float:
    """SINR of beam ``n`` at one user, the other beams acting as interference."""
    if not noise_over_energy > 0:
        raise ValueError("noise_over_energy must be positive")
    power = np.abs(np.asarray(c_row)) ** 2
    return float(power[n] / (power.sum() - power[n] + noise_over_energy))


def baseline_sinrs(users: ss.Users, streams: int, noise_over_energy: float, total: float):
    """Reference full-feedback baseline by per-user loops: the ``streams`` users
    of largest fading energy (ties toward the smaller index), each precoded
    with h/|h|^2, the precoders scaled together to total power ``total``.
    Returns the selected users and their SINRs
    |h_k^H p_k|^2 pl_k / (sum_{j != k} |h_k^H p_j|^2 pl_k + noise)."""
    energies = [float(np.sum(np.abs(h) ** 2)) for h in users.fading]
    selected = sorted(range(len(users)), key=lambda u: (-energies[u], u))[:streams]
    precoders = [users.fading[u] / energies[u] for u in selected]
    scale = math.sqrt(total / sum(float(np.sum(np.abs(p) ** 2)) for p in precoders))
    precoders = [scale * p for p in precoders]
    sinrs = []
    for k, u in enumerate(selected):
        gains = [abs(np.vdot(users.fading[u], p)) ** 2 * users.pathloss[u] for p in precoders]
        interference = sum(gain for j, gain in enumerate(gains) if j != k)
        sinrs.append(gains[k] / (interference + noise_over_energy))
    return selected, np.array(sinrs)


def beam_sinr_cdf(x, streams: int, s: float):
    """CDF of one beam's SINR at one user, F(x) = 1 - e^{-x s} / (1 + x)^{N-1}
    (Sharif & Hassibi, IEEE Trans. IT 2005), for ``streams`` = N orthonormal
    beams, i.i.d. CN(0, 1) channel entries and noise over per-beam signal
    energy ``s``. For x >= 1 at most one beam of a user exceeds x, so the
    SINR of a beam's scheduled winner among K users has CDF F(x)^K there."""
    x = np.asarray(x, dtype=float)
    return 1.0 - np.exp(-x * s) / (1.0 + x) ** (streams - 1)


# The source paper's hop geometry, written out here rather than read from
# stacksim.propagation: a 28 GHz carrier, and elements and planes half a
# wavelength apart.
HOP_WAVELENGTH = 3.0e8 / 28e9
HOP_SPACING = 0.5 * HOP_WAVELENGTH


def rs_kernel_expression(d):
    """The Rayleigh-Sommerfeld kernel at the paper's geometry as one numpy
    expression, the form whose entries ``rs_kernel`` must reproduce bit for
    bit: element area (lambda/2)^2, planes lambda/2 apart."""
    d = np.asarray(d, dtype=float)
    k0 = 2.0 * math.pi / HOP_WAVELENGTH
    amplitude = 0.5**2 * HOP_WAVELENGTH**2 * HOP_SPACING / (2.0 * math.pi * d**3)
    return amplitude * (1.0 - 1j * k0 * d) * np.exp(1j * k0 * d)


def quadratic_parts(e_factor, b_factor, target_entries):
    """Hadamard form ``A = (conj(B) @ B.T) * (E^H @ E)`` and ``v`` of one layer,
    each as one numpy expression: the unblocked form whose products
    ``pgd._layer_gradient`` must reproduce bit for bit."""
    a_matrix = (b_factor.conj() @ b_factor.T) * (e_factor.conj().T @ e_factor)
    v_vector = ((e_factor.conj().T @ target_entries) * b_factor.conj()).sum(axis=1)
    return a_matrix, v_vector
