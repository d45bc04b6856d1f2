"""Multiuser downlink evaluation around the randomized stack.

Users are dropped uniformly (by area) on an annulus below the base station,
with distance-law path loss and i.i.d. Rayleigh block fading normalized to
unit mean channel energy. Each slot, every user measures its per-beam SINRs,
reports only its best beam's SINR, and the scheduler assigns each beam to the
strongest reporter. A full-feedback baseline serves the strongest channels
with channel-inversion precoding under the same total power.

Noise enters every SINR as the single scalar ratio of noise power to
per-stream symbol energy, :data:`NOISE_OVER_ENERGY`, from the fixed link budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .propagation import WAVELENGTH

__all__ = [
    "UNSERVED",
    "DownlinkScenario",
    "Users",
    "SlotScheduleResult",
    "OverheadCounts",
    "drop_users",
    "effective_channels",
    "sinr_matrix",
    "schedule_slot",
    "ta_sum_rate",
    "per_user_rate_matrix",
    "fairness_index",
    "overhead",
    "baseline_mimo",
]

UNSERVED = -1

# The cell and link budget every experiment shares: users on an annulus of
# radii 10 and 50 m below a base station 10 m up, path loss anchored at 1 m,
# 15 dBm radiated over 10 MHz at -174 dBm/Hz thermal noise. Symbol energy per
# unit time equals the radiated power at Nyquist signaling, so the noise over
# per-stream symbol energy reduces to (noise power) / (transmit power).
BS_HEIGHT_M = 10.0
INNER_RADIUS_M = 10.0
OUTER_RADIUS_M = 50.0
REFERENCE_DISTANCE_M = 1.0
NOISE_OVER_ENERGY = 10.0 ** ((-174.0 + 10.0 * math.log10(10e6) - 15.0) / 10.0)


@dataclass(frozen=True)
class DownlinkScenario:
    """User count and schedule shape of one simulation, and the path-loss
    exponent. The carrier (:data:`propagation.CARRIER_HZ`), the cell, the
    path-loss reference distance (:data:`REFERENCE_DISTANCE_M`) and the link
    budget (:data:`NOISE_OVER_ENERGY`) are fixed.

    The path-loss exponent defaults to 3.2 (3GPP UMi NLOS at 28 GHz); the
    opportunistic scheme's gain over the full-feedback baseline hinges on how
    strongly distance separates users, so this default is the calibration
    knob to revisit first (``--eta`` on the CLI).
    """

    user_count: int
    pathloss_exponent: float = 3.2
    slot_count: int = 2
    streams: int = 4

    def validate(self) -> list[str]:
        problems = []
        if self.user_count < 1:
            problems.append("user_count must be at least 1")
        elif self.user_count < self.streams:
            problems.append(f"user_count ({self.user_count}) must be at least streams ({self.streams})")
        if self.slot_count < 1:
            problems.append("slot_count must be at least 1")
        if self.streams < 1:
            problems.append("streams must be at least 1")
        if not self.pathloss_exponent > 0:
            problems.append("pathloss_exponent must be positive")
        return problems


@dataclass(frozen=True)
class Users:
    """A user drop as arrays, one row per user: distance to the base station,
    path loss, and small-scale fading (unit mean energy).

    ``len()`` is the user count; indexing with a slice or an index array
    selects users, e.g. ``users[:n]`` for the first ``n``.
    """

    distance: np.ndarray  # (U,) meters
    pathloss: np.ndarray  # (U,) linear power gain
    fading: np.ndarray  # (U, output_size) complex

    def __len__(self) -> int:
        return self.distance.shape[0]

    def __getitem__(self, index) -> "Users":
        return Users(self.distance[index], self.pathloss[index], self.fading[index])


@dataclass(frozen=True)
class SlotScheduleResult:
    """Per-beam outcome of one slot: winning user (or UNSERVED), SINR, rate."""

    beam_users: np.ndarray  # (streams,) int
    beam_sinrs: np.ndarray  # (streams,) float, 0 where unserved
    beam_rates: np.ndarray  # (streams,) float, 0 where unserved


@dataclass(frozen=True)
class OverheadCounts:
    """Training and feedback symbol counts per coherence interval."""

    train_partial: int
    train_full: int
    feedback_partial: float
    feedback_full: int
    within_training_budget: bool


def pathloss(distance, exponent: float):
    """Distance power law at the carrier wavelength, anchored at the reference
    distance :data:`REFERENCE_DISTANCE_M` (scalar or array)."""
    return (WAVELENGTH / (4.0 * math.pi * REFERENCE_DISTANCE_M)) ** 2 * (REFERENCE_DISTANCE_M / distance) ** exponent


def drop_users(scenario: DownlinkScenario, seed: int, fading_seed: int, output_size: int) -> Users:
    """Drop ``scenario.user_count`` users uniformly by area on the annulus and
    draw their fading.

    Radii come from the first child stream of ``seed``, fading from
    ``fading_seed``, so the two draws are independent. ``output_size`` is the
    fading vector length, the stack's output layer size. Only a user's
    distance reaches the downlink, so no azimuth is drawn.
    """
    pos_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    fad_rng = np.random.default_rng(fading_seed)

    count = scenario.user_count
    r_in2 = INNER_RADIUS_M**2
    r_out2 = OUTER_RADIUS_M**2
    radius = np.sqrt(r_in2 + (r_out2 - r_in2) * pos_rng.uniform(size=count))
    shape = (count, output_size)
    fading = (fad_rng.standard_normal(shape) + 1j * fad_rng.standard_normal(shape)) * math.sqrt(0.5 / output_size)
    distance = np.sqrt(radius**2 + BS_HEIGHT_M**2)
    return Users(distance=distance, pathloss=pathloss(distance, scenario.pathloss_exponent), fading=fading)


def effective_channels(users: Users, response: np.ndarray) -> np.ndarray:
    """Per-(user, beam) scalar channels: sqrt(pathloss) * fading^H * steering column."""
    response = np.asarray(response)
    if users.fading.shape[1] != response.shape[0]:
        raise ConfigurationError(
            f"user fading length {users.fading.shape[1]} does not match response rows {response.shape[0]}"
        )
    return np.sqrt(users.pathloss)[:, None] * (users.fading.conj() @ response)


def sinr_matrix(effective: np.ndarray, noise_over_energy: float) -> np.ndarray:
    """All per-(user, beam) SINRs at once."""
    power = np.abs(effective) ** 2
    total = power.sum(axis=1, keepdims=True)
    return power / (total - power + noise_over_energy)


def schedule_slot(effective: np.ndarray, noise_over_energy: float) -> SlotScheduleResult:
    """Opportunistic assignment from best-beam feedback.

    Every user reports the index of its highest-SINR beam (ties toward the
    smaller beam) together with that SINR; each beam then goes to its
    strongest reporter (ties toward the smaller user index). Beams nobody
    reported stay unserved at zero rate.
    """
    effective = np.atleast_2d(np.asarray(effective))
    user_count, streams = effective.shape
    sinr = sinr_matrix(effective, noise_over_energy)
    best_beam = np.argmax(sinr, axis=1)
    reported = sinr[np.arange(user_count), best_beam]

    beam_users = np.full(streams, UNSERVED)
    beam_sinrs = np.zeros(streams)
    beam_rates = np.zeros(streams)
    for n in range(streams):
        reporters = np.flatnonzero(best_beam == n)
        if reporters.size == 0:
            continue
        winner = reporters[np.argmax(reported[reporters])]
        beam_users[n] = winner
        beam_sinrs[n] = reported[winner]
        beam_rates[n] = math.log2(1.0 + reported[winner])
    return SlotScheduleResult(beam_users=beam_users, beam_sinrs=beam_sinrs, beam_rates=beam_rates)


def ta_sum_rate(results: list[SlotScheduleResult]) -> float:
    """Served rates summed per slot, averaged over the coherence interval."""
    if not results:
        raise ValueError("need at least one slot result")
    return float(np.mean([np.sum(r.beam_rates) for r in results]))


def per_user_rate_matrix(results: list[SlotScheduleResult], user_count: int) -> np.ndarray:
    """(user_count, slots) rate matrix; users not served in a slot get 0."""
    rates = np.zeros((user_count, len(results)))
    for m, result in enumerate(results):
        for n, user in enumerate(result.beam_users):
            if user != UNSERVED:
                rates[user, m] += result.beam_rates[n]
    return rates


def _jain(values: np.ndarray) -> float:
    square_sum = float(np.sum(values**2))
    if square_sum == 0.0:
        return 0.0
    return float(np.sum(values)) ** 2 / square_sum


def fairness_index(per_user_rates: np.ndarray) -> tuple[float, float]:
    """Unnormalized Jain index of the served rates, as ``(per_slot, coherence)``.

    ``per_slot`` evaluates the index slot by slot and averages (a slot with
    no service contributes 0); ``coherence`` evaluates it once on the
    per-user rates averaged over the interval, which is the variant that
    exposes how many distinct users the interval served.
    """
    rates = np.atleast_2d(np.asarray(per_user_rates, dtype=float))
    if np.any(rates < 0):
        raise ValueError("rates must be non-negative")
    per_slot = float(np.mean([_jain(rates[:, m]) for m in range(rates.shape[1])]))
    return per_slot, _jain(rates.mean(axis=1))


def overhead(streams: int, slots: int, users: int, output_size: int, eta_feedback: float = 1.0) -> OverheadCounts:
    """Training/feedback symbol counts per coherence interval, for the
    best-beam-feedback scheme versus full channel acquisition."""
    if min(streams, slots, users, output_size) < 1 or not eta_feedback > 0:
        raise ValueError("all counts must be >= 1 and eta_feedback > 0")
    return OverheadCounts(
        train_partial=streams * slots,
        train_full=output_size,
        feedback_partial=eta_feedback * users * slots,
        feedback_full=users * output_size,
        within_training_budget=slots <= output_size / streams,
    )


def baseline_mimo(
    users: Users, streams: int, noise_over_energy: float, total_precoder_power: float
) -> SlotScheduleResult:
    """Full-feedback baseline: serve the ``streams`` strongest channels.

    Selects the users with the largest fading energy (ties toward the smaller
    index), precodes each with its channel divided by the channel's squared
    norm, and rescales the precoder set by one common factor so the total
    transmit power matches ``total_precoder_power``, which must be positive
    (the harness passes the randomized scheme's radiated-power ratio, for a
    like-for-like power budget). Channels are block-constant, so the one
    result holds for every slot of the coherence interval.
    """
    if len(users) < streams:
        raise ConfigurationError(f"need at least {streams} users, got {len(users)}")
    if not total_precoder_power > 0:
        raise ValueError("total_precoder_power must be positive")
    energies = np.sum(np.abs(users.fading) ** 2, axis=1)
    selected = np.argsort(-energies, kind="stable")[:streams]
    chosen = users[selected]

    # Row-major, like one precoder column per selected user: the matrix
    # product's last bits depend on the operand layout.
    precoders = np.ascontiguousarray((chosen.fading / energies[selected, None]).T)
    scale = math.sqrt(total_precoder_power / float(np.sum(np.abs(precoders) ** 2)))
    precoders = scale * precoders

    beam_sinrs = np.diag(sinr_matrix(effective_channels(chosen, precoders), noise_over_energy))
    return SlotScheduleResult(beam_users=selected, beam_sinrs=beam_sinrs, beam_rates=np.log2(1.0 + beam_sinrs))
