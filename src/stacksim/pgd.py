"""Projected gradient descent synthesis of the space-coded layer coefficients.

Minimizes the squared Frobenius distance between the composed space-block
response and a target matrix, sweeping the layers in cascade order each
iteration. Phase-controlled layers take plain gradient steps on their phases;
amplitude-controlled layers take gradient steps on their amplitudes followed
by projection onto the stack's amplitude range ``stack.alpha_bounds`` (the
fixed ``stack.ALPHA_BOUNDS``), the range the write-back accepts; the
amplitude gradient is floored at that range's minimum. Both kinds share one
backtracking line search under an Armijo test, ``f <= f0 - c*step*|g|^2`` for
phases and ``f <= f0 + c*g.(alpha_new - alpha)`` for amplitudes, with
``c = ARMIJO_CONSTANT``, so the trace is non-increasing. An iteration's
objective is its last layer visit's value; that layer's downstream factor is
the identity, so nothing is recomposed.

For a layer with coefficients ``gamma`` the composed response factors as
``E @ diag(b_z) @ gamma`` per target column z, where ``E`` collects the
downstream layers and ``B`` (columns ``b_z``) the upstream ones. The analytic
gradient follows from the quadratic form in ``gamma``:

    A = (conj(B) @ B.T) * (E^H @ E)        (elementwise product)
    v[q] = sum_z conj(b_z[q]) * (E^H @ t_z)[q]
    d(phase) f = 2 * Im{ conj(gamma) * (A @ gamma - v) }
    d(amp)   f = 2 * Re{ conj(gamma) * (A @ gamma - v) } / amp

``A`` is never formed whole: its rows, with the matching entries of ``v``,
are streamed in blocks of ``_BLOCK``, each reduced at once, and the backward
sweep builds each downstream factor in column blocks, so no layer visit
allocates a Q x Q temporary, nor a Q x Z one for ``v``. The results match
the unblocked forms bit for bit on one BLAS thread. On two OpenBLAS threads
the gradient matches at every Q checked, but the downstream factors do not
(they differ at Q = 130, 131, 132, 150 and 196, and match at the tested
sizes 65, 100, 144, 193 and 576).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .stack import SimStack, compose, compose_space_block
from .target import TargetMatrix

__all__ = [
    "PgdConfig",
    "PgdState",
    "objective",
    "objective_db",
    "layer_factors",
    "gradient",
    "project_amplitude",
    "run_pgd",
    "constraint_deviation",
    "write_trace_csv",
]

logger = logging.getLogger(__name__)

# Rows or columns of a Q-sized array computed at once in the Q x Q products.
_BLOCK = 64

# The sufficient-decrease constant c of the line search's Armijo test.
ARMIJO_CONSTANT = 1e-4

# The run stops once an iteration lowers the objective by at most this share of it.
RELATIVE_TOLERANCE = 1e-8


def _blocks(size: int) -> list[slice]:
    """Slices covering ``range(size)`` in blocks of ``_BLOCK``; a last block of
    one row or column joins the one before it, as BLAS computes it by another path."""
    starts = range(0, max(size - 1, 1), _BLOCK)
    return [slice(start, stop) for start, stop in zip(starts, [*starts[1:], size])]


@dataclass
class PgdConfig:
    """Optimizer settings.

    The config sets no amplitude range: amplitudes are projected onto the
    stack's (``alpha_bounds``, the fixed ``stack.ALPHA_BOUNDS``). Each
    layer's line search is warm-started at ``step_growth`` times its last
    accepted step (the first search starts at ``initial_step``), so step
    sizes can grow across iterations instead of being capped at
    ``initial_step``.
    """

    max_iterations: int = 800
    backtracking_contraction: float = 0.5
    initial_step: float = 1.0
    step_growth: float = 4.0
    seed: int = 0
    max_backtracks: int = 50

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not 0.0 < self.backtracking_contraction < 1.0:
            raise ValueError("backtracking_contraction must lie in (0, 1)")
        if not self.step_growth >= 1.0:
            raise ValueError("step_growth must be at least 1")
        if not self.initial_step > 0.0:
            raise ValueError("initial_step must be positive")
        if self.max_backtracks < 0:
            raise ValueError("max_backtracks must be non-negative")

    # Kept only because bench/tracing.py calls it; the package reads
    # stack.alpha_bounds. Delete with the benchmark change that mends that
    # caller (ROADMAP item 1).
    def bounds_for(self, stack: SimStack) -> tuple[float, float]:
        """Amplitude range :func:`run_pgd` projects onto: the stack's."""
        return stack.alpha_bounds


@dataclass
class PgdState:
    """Optimizer result: final coefficients, objective trace, and step log.

    ``values`` holds each layer's synthesized tunable vector (its phases or
    its amplitudes, as :meth:`SimStack.tunable`), keyed by cascade layer
    position (2..L). ``accepted_steps[k, i]`` is the accepted step size of the
    i-th space-coded layer at iteration k (NaN if the layer was frozen that
    iteration). ``evaluations`` counts the layer-objective evaluations: one
    Armijo base per layer visit plus every line-search candidate tested.
    """

    values: dict[int, np.ndarray]
    objective_trace: np.ndarray
    iteration: int
    accepted_steps: np.ndarray
    target_norm_sq: float
    converged: bool
    frozen_events: int = 0
    evaluations: int = 0

    @property
    def final_objective(self) -> float:
        return float(self.objective_trace[-1])

    @property
    def final_objective_db(self) -> float:
        return objective_db(self.final_objective, self.target_norm_sq)

    def apply_to(self, stack: SimStack) -> None:
        """Write the final tunable vectors into ``stack``."""
        for layer, values in self.values.items():
            stack.set_layer(layer, values)


def objective_db(value: float, target_norm_sq: float) -> float:
    """Objective in decibels relative to the target's squared norm."""
    if value <= 0.0:
        return -math.inf
    return 10.0 * math.log10(value / target_norm_sq)


def _check_dimensions(stack: SimStack, target: TargetMatrix) -> None:
    expected = (stack.output_size, stack.input_size)
    if target.entries.shape != expected:
        raise ConfigurationError(
            f"target shape {target.entries.shape} does not match stack response {expected}"
        )


def _objective_value(mats, gammas, target_entries) -> float:
    residual = compose(mats, gammas) - target_entries
    return float(np.sum(residual.real**2 + residual.imag**2))


def _layer_objective(e_factor, b_factor, gamma, target_entries) -> float:
    residual = e_factor @ (gamma[:, None] * b_factor) - target_entries
    return float(np.sum(residual.real**2 + residual.imag**2))


def _downstream_factors(mats, gammas, output_size) -> list[np.ndarray]:
    """E factor for every layer position, by one backward sweep."""
    n = len(mats)
    factors = [None] * n
    acc = np.eye(output_size, dtype=complex)
    factors[n - 1] = acc
    for pos in range(n - 2, -1, -1):
        # acc @ (gamma[:, None] * W), one column block of W at a time.
        gamma, mat = gammas[pos + 1], mats[pos + 1]
        nxt = np.empty((acc.shape[0], mat.shape[1]), dtype=complex)
        for cols in _blocks(mat.shape[1]):
            nxt[:, cols] = acc @ (gamma[:, None] * mat[:, cols])
        acc = factors[pos] = nxt
    return factors


def _layer_gradient(e_factor, b_factor, gamma, target_entries, amplitudes=None, floor=None) -> np.ndarray:
    """Phase gradient of one layer, or amplitude gradient if ``amplitudes`` (floored at ``floor``) is given."""
    ec = e_factor.conj()
    # v and A @ gamma with A = (conj(B) @ B.T) * (E^H @ E), one row block at a
    # time, keeping the whole expressions' operand order (complex x*y and y*x
    # can differ in the last bit).
    v_vector = np.empty(b_factor.shape[0], dtype=complex)
    a_gamma = np.empty_like(v_vector)
    for rows in _blocks(b_factor.shape[0]):
        bc_rows = b_factor[rows].conj()
        v_vector[rows] = ((ec[:, rows].T @ target_entries) * bc_rows).sum(axis=1)
        part = bc_rows @ b_factor.T
        part *= ec[:, rows].T @ e_factor
        a_gamma[rows] = part @ gamma
    inner = gamma.conj() * (a_gamma - v_vector)
    if amplitudes is None:
        return 2.0 * inner.imag
    return 2.0 * inner.real / np.maximum(amplitudes, floor)


def objective(stack: SimStack, target: TargetMatrix) -> float:
    """Squared Frobenius distance between the composed space block and the target."""
    _check_dimensions(stack, target)
    return _objective_value(stack.tail_matrices(), stack.gammas(), target.entries)


def layer_factors(stack: SimStack, layer: int) -> tuple[np.ndarray, np.ndarray]:
    """Downstream factor E and upstream factor B of one space-coded layer,
    such that every space-block column z equals ``E @ diag(B[:, z]) @ gamma``."""
    pos = layer - 2
    if not 0 <= pos < len(stack.kinds):
        raise IndexError(f"space-coded layer must be in 2..{stack.layer_count}, got {layer}")
    mats = stack.tail_matrices()
    gammas = stack.gammas()
    e_factor = _downstream_factors(mats, gammas, stack.output_size)[pos]
    b_factor = mats[pos] @ compose(mats[:pos], gammas[:pos]) if pos else mats[0]
    return e_factor, b_factor


def gradient(stack: SimStack, target: TargetMatrix, layer: int) -> np.ndarray:
    """Analytic gradient of the objective for one layer's tunable quantity.

    Phase-controlled layers (including a phase-controlled output layer) get
    the phase gradient; amplitude-controlled ones the amplitude gradient.
    """
    _check_dimensions(stack, target)
    e_factor, b_factor = layer_factors(stack, layer)
    amplitudes = stack.tunable(layer) if stack.kind_of(layer).amplitude_tunable else None
    gamma = stack.gammas()[layer - 2]
    return _layer_gradient(e_factor, b_factor, gamma, target.entries, amplitudes, stack.alpha_bounds[0])


def project_amplitude(alpha: np.ndarray, bounds: tuple[float, float]) -> np.ndarray:
    """Element-wise clamp onto ``bounds = (alpha_min, alpha_max)``."""
    amin, amax = bounds
    if not 0.0 < amin <= amax:
        raise ValueError(f"need 0 < alpha_min <= alpha_max, got ({amin:g}, {amax:g})")
    return np.clip(np.asarray(alpha, dtype=float), amin, amax)


def run_pgd(
    stack: SimStack,
    target: TargetMatrix,
    config: PgdConfig | None = None,
    monitor=None,
) -> PgdState:
    """Optimize the stack's space-coded coefficients toward the target.

    Phases of phase-controlled layers are initialized i.i.d. uniform on
    [0, 2*pi) from ``config.seed``; amplitude-controlled layers start at
    amplitude 1, inside ``stack.alpha_bounds``. Each layer's fixed
    component is read from the stack. Layers are swept in cascade order;
    a layer whose line search cannot find a decreasing step within
    ``max_backtracks`` halvings is frozen for that iteration. The final
    coefficients are written back into the stack.

    ``monitor``, if given, is called after every iteration as
    ``monitor(iteration, objective, amplitudes_by_layer)``.
    """
    config = config or PgdConfig()
    _check_dimensions(stack, target)
    bounds = stack.alpha_bounds
    rng = np.random.default_rng(config.seed)

    mats = stack.tail_matrices()
    kinds = stack.kinds
    n_layers = len(kinds)
    phases, amps = list(stack.phases), list(stack.amplitudes)
    for pos, kind in enumerate(kinds):
        size = mats[pos].shape[0]
        if kind.phase_tunable:
            phases[pos] = rng.uniform(0.0, 2.0 * np.pi, size)
        else:
            amps[pos] = np.ones(size)
    gammas = [a * np.exp(1j * p) for a, p in zip(amps, phases)]

    f_current = _objective_value(mats, gammas, target.entries)
    trace = [f_current]
    step_log: list[np.ndarray] = []
    last_step = [config.initial_step / config.step_growth] * n_layers
    frozen_events = evaluations = 0
    converged = False

    for _ in range(config.max_iterations):
        # Arrays are never modified in place, only list slots rebound, so
        # shallow copies of the lists keep the iterate.
        snapshot = (list(phases), list(amps), list(gammas))
        e_factors = _downstream_factors(mats, gammas, stack.output_size)
        b_factor = mats[0]
        iteration_steps = np.full(n_layers, np.nan)

        for pos in range(n_layers):
            e_factor = e_factors[pos]
            phase_tunable = kinds[pos].phase_tunable
            amplitudes = None if phase_tunable else amps[pos]
            grad = _layer_gradient(e_factor, b_factor, gammas[pos], target.entries, amplitudes, bounds[0])
            grad_norm_sq = float(grad @ grad)
            f_base = f_next = _layer_objective(e_factor, b_factor, gammas[pos], target.entries)
            evaluations += 1
            step = last_step[pos] * config.step_growth
            for _attempt in range(config.max_backtracks + 1):
                if phase_tunable:
                    cand = phases[pos] - step * grad
                    cand_gamma = amps[pos] * np.exp(1j * cand)
                    bound = f_base - ARMIJO_CONSTANT * step * grad_norm_sq
                else:
                    cand = project_amplitude(amps[pos] - step * grad, bounds)
                    cand_gamma = cand * np.exp(1j * phases[pos])
                    bound = f_base + ARMIJO_CONSTANT * float(grad @ (cand - amps[pos]))
                f_new = _layer_objective(e_factor, b_factor, cand_gamma, target.entries)
                evaluations += 1
                if f_new <= bound:
                    (phases if phase_tunable else amps)[pos] = cand
                    gammas[pos] = cand_gamma
                    iteration_steps[pos] = step
                    last_step[pos] = step
                    f_next = f_new
                    break
                step *= config.backtracking_contraction
            else:
                frozen_events += 1
                logger.debug("layer %d frozen this iteration", pos + 2)

            if pos < n_layers - 1:
                b_factor = mats[pos + 1] @ (gammas[pos][:, None] * b_factor)

        step_log.append(iteration_steps)
        if monitor is not None:
            monitor(len(trace), min(f_next, f_current), {pos + 2: amps[pos] for pos in range(n_layers)})
        if f_next > f_current:
            # Rounding-floor anomaly: every accepted layer step decreased its
            # own evaluation, so an uptick is last-bit noise. Keep the previous
            # iterate so the trace stays non-increasing, and stop.
            phases, amps, gammas = snapshot
            trace.append(f_current)
            converged = True
            logger.debug("objective uptick at the numerical floor; reverting final sweep")
            break
        trace.append(f_next)
        change = f_current - f_next
        f_current = f_next
        if change <= RELATIVE_TOLERANCE * max(trace[-2], 1e-300):
            converged = True
            break

    state = PgdState(
        values={pos + 2: (phases if kinds[pos].phase_tunable else amps)[pos] for pos in range(n_layers)},
        objective_trace=np.asarray(trace),
        iteration=len(trace) - 1,
        accepted_steps=np.asarray(step_log) if step_log else np.empty((0, n_layers)),
        target_norm_sq=target.norm_sq,
        converged=converged,
        frozen_events=frozen_events,
        evaluations=evaluations,
    )
    state.apply_to(stack)
    return state


def constraint_deviation(stack: SimStack) -> float:
    """Largest per-column deviation of the composed space block from the
    no-amplification norm constraint (0 when every column norm is exact)."""
    g0 = compose_space_block(stack)
    column_power = np.sum(np.abs(g0) ** 2, axis=0)
    scale = stack.beta**2 * stack.w1_frobenius**2
    return float(np.max(np.abs(column_power * scale - 1.0)))


def write_trace_csv(state: PgdState, path) -> None:
    """Dump the per-iteration objective and accepted step sizes to CSV, making its directory."""
    layers = sorted(state.values)
    header = ["iteration", "objective_linear", "objective_db"] + [f"step_layer_{l}" for l in layers]
    lines = [",".join(header)]
    for k, value in enumerate(state.objective_trace):
        row = [str(k), repr(float(value)), repr(objective_db(float(value), state.target_norm_sq))]
        if k == 0:
            row += [""] * len(layers)
        else:
            row += ["" if np.isnan(s) else repr(float(s)) for s in state.accepted_steps[k - 1]]
        lines.append(",".join(row))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
