"""Metasurface stack model: layer kinds and coefficients, composition of the
space-coded block response, per-slot responses, and the radiated-power check.

A stack is the cascade

    feed array -> time-coded input layer -> space-coded layers 2..L

where the amplitude-controlled layers come first and the phase-controlled
ones last, so the output layer L is phase-controlled. Every hop has the fixed
geometry of :mod:`stacksim.propagation`. The input and output layers are no
larger than the inner layers (their remaining cells absorb), which decouples
the stack's ``output_size x input_size`` response from the inner layer size.
Layers are numbered by cascade position: 1 is the time-coded input layer and
2..L are the space-coded layers this module composes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .errors import ConfigurationError
from .propagation import build_propagation_matrix

__all__ = [
    "LayerKind",
    "StackDescription",
    "SimStack",
    "build_stack",
    "compose",
    "compose_space_block",
    "slot_response",
    "radiated_power_ratio",
    "power_ratio",
    "db_to_amplitude",
]

# The time-coded input layer is lossless, as in the source paper.
BETA = 1.0


def db_to_amplitude(db: float) -> float:
    """Amplitude-scale conversion, 10**(db/20)."""
    return 10.0 ** (db / 20.0)


# The amplitude range of an amplitude-controlled element, -22 to 13 dB. It
# contains 1, the amplitude these layers are built with and PGD starts from.
ALPHA_BOUNDS = (db_to_amplitude(-22.0), db_to_amplitude(13.0))


class LayerKind(str, Enum):
    """What a space-coded layer tunes; the output layer is the last phase-controlled one."""

    PHASE_CONTROLLED = "phase_controlled"
    AMPLITUDE_CONTROLLED = "amplitude_controlled"

    @property
    def phase_tunable(self) -> bool:
        return self is LayerKind.PHASE_CONTROLLED

    @property
    def amplitude_tunable(self) -> bool:
        return self is LayerKind.AMPLITUDE_CONTROLLED


@dataclass(frozen=True)
class StackDescription:
    """Serializable description of a stack; the canonical experiment config fragment.

    Grid shapes are (count_x, count_y); the hop geometry
    (:mod:`stacksim.propagation`), the input layer's ``beta`` (:data:`BETA`)
    and the amplitude range (:data:`ALPHA_BOUNDS`) are fixed. ``pc_layers``
    counts the output layer, so it is at least 1. ``slot_count`` is checked
    against the scenario's and used by nothing else.
    """

    input_shape: tuple[int, int]
    inner_shape: tuple[int, int]
    output_shape: tuple[int, int]
    ac_layers: int
    pc_layers: int
    upa_shape: tuple[int, int] = (2, 2)
    alpha_pc: float = 0.9
    centered_alignment: bool = False
    slot_count: int = 2

    def __post_init__(self) -> None:
        object.__setattr__(self, "upa_shape", tuple(int(v) for v in self.upa_shape))
        object.__setattr__(self, "input_shape", tuple(int(v) for v in self.input_shape))
        object.__setattr__(self, "inner_shape", tuple(int(v) for v in self.inner_shape))
        object.__setattr__(self, "output_shape", tuple(int(v) for v in self.output_shape))

    def validate(self) -> list[str]:
        shapes = {name: getattr(self, name) for name in ("upa_shape", "input_shape", "inner_shape", "output_shape")}
        n, z, q, v = (shape[0] * shape[1] for shape in shapes.values())
        problems = [f"{name} counts must be at least 1, got {list(s)}" for name, s in shapes.items() if min(s) < 1]
        if self.ac_layers < 0:
            problems.append(f"ac_layers must be non-negative, got {self.ac_layers}")
        if self.pc_layers < 1:
            problems.append(f"pc_layers must be at least 1 (the output layer), got {self.pc_layers}")
        if z > q or v > q:
            problems.append(f"boundary layers cannot exceed the inner layer size (Z={z}, V={v}, Q={q})")
        if n > z:
            problems.append(f"the input layer needs at least one cell per antenna (N={n}, Z={z})")
        if n > v:
            problems.append(f"the output layer needs at least one cell per stream (N={n}, V={v})")
        if not 0 <= self.alpha_pc <= 1.0:
            problems.append(f"alpha_pc must be in [0, 1], got {self.alpha_pc}")
        if self.slot_count < 1:
            problems.append("slot_count must be at least 1")
        return problems

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out


class SimStack:
    """A fully built stack: its description, propagation matrices, and layer coefficients.

    The propagation matrices are fixed by the layer shapes and read-only; hops
    between equal shapes share one matrix, so a stack holds at most one Q x Q
    matrix however many inner layers it has. Layer ``pos`` (cascade layer
    ``pos + 2``) has coefficients ``amplitudes[pos] * exp(j*phases[pos])``.
    Each layer tunes one of the two vectors, its :meth:`tunable` one (the
    phases of a phase-controlled layer, the amplitudes of an
    amplitude-controlled one), and only :meth:`set_layer` replaces it; the
    other is fixed by the hardware. The time-coded input layer's slot phases
    are not stored but passed to :func:`slot_response`. Composition results
    are cached and invalidated on any coefficient update; composed matrices
    are handed out read-only.
    """

    def __init__(
        self,
        description: StackDescription,
        feed_matrix: np.ndarray,
        tail_matrices: list[np.ndarray],
        kinds: tuple[LayerKind, ...],
        phases: list[np.ndarray],
        amplitudes: list[np.ndarray],
    ):
        self.description = description
        self.feed_matrix = feed_matrix
        self._tail = tail_matrices
        self.kinds = kinds
        self.phases = phases
        self.amplitudes = amplitudes
        self._space_block: np.ndarray | None = None

    # -- sizes ---------------------------------------------------------------
    @property
    def input_size(self) -> int:
        return math.prod(self.description.input_shape)

    @property
    def inner_size(self) -> int:
        return math.prod(self.description.inner_shape)

    @property
    def output_size(self) -> int:
        return math.prod(self.description.output_shape)

    @property
    def layer_count(self) -> int:
        return 1 + len(self.kinds)

    @property
    def space_layers(self) -> range:
        """Cascade positions of the space-coded layers (2..L)."""
        return range(2, self.layer_count + 1)

    @property
    def beta(self) -> float:
        return BETA

    @property
    def alpha_bounds(self) -> tuple[float, float]:
        return ALPHA_BOUNDS

    @property
    def w1_frobenius(self) -> float:
        return float(np.linalg.norm(self.feed_matrix))

    # -- per-layer access (positions 2..L) ------------------------------------
    def _pos(self, layer: int) -> int:
        if not 2 <= layer <= self.layer_count:
            raise IndexError(f"space-coded layer must be in 2..{self.layer_count}, got {layer}")
        return layer - 2

    def kind_of(self, layer: int) -> LayerKind:
        return self.kinds[self._pos(layer)]

    def tunable(self, layer: int) -> np.ndarray:
        """The layer's tunable vector: its phases or its amplitudes, by kind."""
        pos = self._pos(layer)
        return (self.phases if self.kinds[pos].phase_tunable else self.amplitudes)[pos]

    def gammas(self) -> list[np.ndarray]:
        return [amp * np.exp(1j * pha) for amp, pha in zip(self.amplitudes, self.phases)]

    def tail_matrices(self) -> list[np.ndarray]:
        """Propagation matrices feeding layers 2..L (read-only)."""
        return list(self._tail)

    def set_layer(self, layer: int, values: np.ndarray) -> None:
        """Replace the :meth:`tunable` vector of one space-coded layer; amplitudes
        must lie in ``alpha_bounds``."""
        pos = self._pos(layer)
        values = np.asarray(values, dtype=float)
        size = self.phases[pos].shape[0]
        if values.shape != (size,):
            raise ConfigurationError(f"layer {layer} expects {size} coefficients, got shape {values.shape}")
        kind = self.kinds[pos]
        if kind.amplitude_tunable:
            amin, amax = self.alpha_bounds
            if np.any(values < amin - 1e-12) or np.any(values > amax + 1e-12):
                raise ConfigurationError(f"{kind.value} layer amplitudes must lie in [{amin}, {amax}]")
        (self.phases if kind.phase_tunable else self.amplitudes)[pos] = values
        self._space_block = None

    # The slot-index form of slot_response, for bench/tests/test_spans.py only:
    # the package passes phase rows and stores no slot phases. Delete with the
    # benchmark change that mends that test (ROADMAP item 1).
    @property
    def slot_count(self) -> int:
        return self.description.slot_count

    def set_slot_phases(self, phases: np.ndarray) -> None:
        self.slot_phases = phases[: self.slot_count]


def build_stack(description: StackDescription) -> SimStack:
    """Construct the propagation matrices between layer shapes, and initial coefficients.

    Phase-controlled layers start at phase 0 with their fixed amplitude
    ``alpha_pc``; amplitude-controlled layers start at amplitude 1 (the start
    ``pgd.run_pgd`` uses) with their fixed phase 0.
    """
    problems = description.validate()
    if problems:
        raise ConfigurationError("; ".join(problems))
    centered = description.centered_alignment

    kinds = (LayerKind.AMPLITUDE_CONTROLLED,) * description.ac_layers
    kinds += (LayerKind.PHASE_CONTROLLED,) * description.pc_layers
    input_shape = description.input_shape
    shapes = [description.inner_shape] * (len(kinds) - 1) + [description.output_shape]
    feed_matrix = build_propagation_matrix(description.upa_shape, input_shape, centered)
    # One read-only matrix per distinct (source, destination) shape pair: all
    # inner-to-inner hops share one, so the stack's size does not grow with depth.
    hops: dict[tuple, np.ndarray] = {}
    tail = []
    for pair in zip([input_shape, *shapes], shapes):
        if pair not in hops:
            hops[pair] = build_propagation_matrix(*pair, centered)
        tail.append(hops[pair])

    phases, amplitudes = [], []
    for kind, shape in zip(kinds, shapes):
        size = math.prod(shape)
        phases.append(np.zeros(size))
        amplitudes.append(np.ones(size) if kind.amplitude_tunable else np.full(size, description.alpha_pc))
    return SimStack(description, feed_matrix, tail, kinds, phases, amplitudes)


def compose(matrices: list[np.ndarray], gammas: list[np.ndarray]) -> np.ndarray:
    """Cascade response ``diag(g_L) W_L ... diag(g_2) W_2`` of the propagation
    matrices ``W`` and coefficient vectors ``g``, multiplied in cascade order."""
    out = None
    for w, gam in zip(matrices, gammas):
        out = w if out is None else w @ out
        out = gam[:, None] * out
    return out


def compose_space_block(stack: SimStack) -> np.ndarray:
    """Response of the space-coded block (layers 2..L), ``output_size x input_size``.

    :func:`compose` of the stack's propagation matrices and coefficients;
    cached until a coefficient changes.
    """
    if stack._space_block is None:
        out = compose(stack._tail, stack.gammas())
        out.flags.writeable = False
        stack._space_block = out
    return stack._space_block


def slot_response(stack: SimStack, phases: np.ndarray) -> np.ndarray:
    """End-to-end response of one slot, one row per output cell and one column
    per feed antenna: the space block times the slot's input-layer
    coefficients ``beta * exp(j*phases)`` times the feed matrix. ``phases`` is
    one ``(input_size,)`` row of :func:`draw_slot_phases`."""
    if isinstance(phases, int):  # a slot index into set_slot_phases's rows
        phases = stack.slot_phases[phases]
    if phases.shape != (stack.input_size,):
        raise ConfigurationError(f"slot phases must have shape ({stack.input_size},), got {phases.shape}")
    delta = stack.beta * np.exp(1j * phases)
    return compose_space_block(stack) @ (delta[:, None] * stack.feed_matrix)


def power_ratio(space_block: np.ndarray, feed_matrix: np.ndarray, beta: float) -> float:
    """Time-averaged radiated power over per-stream transmit power (dimensionless).

    Equals ``beta^2 * sum_n sum_z |feed[z, n]|^2 * ||space_block[:, z]||^2``;
    exactly 1 when every space-block column has squared norm
    ``1 / (beta^2 * ||feed||_F^2)`` (the no-amplification constraint).
    """
    column_power = np.sum(np.abs(space_block) ** 2, axis=0)
    feed_row_power = np.sum(np.abs(feed_matrix) ** 2, axis=1)
    return float(beta**2 * np.dot(column_power, feed_row_power))


def radiated_power_ratio(stack: SimStack) -> float:
    """:func:`power_ratio` of the stack's composed space block."""
    return power_ratio(compose_space_block(stack), stack.feed_matrix, stack.beta)
