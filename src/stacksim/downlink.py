"""Multiuser downlink evaluation around the randomized stack.

Users are dropped uniformly (by area) on an annulus below the base station,
with distance-law path loss and i.i.d. Rayleigh block fading normalized to
unit mean channel energy. Each slot, every user measures its per-beam SINRs,
reports only its best beam's SINR, and the scheduler assigns each beam to the
strongest reporter. A full-feedback baseline serves the strongest channels
with channel-inversion precoding under the same total power.

Noise enters every SINR as the single scalar ratio of noise power to
per-stream symbol energy, derived from the scenario's power and noise
settings (see :meth:`DownlinkScenario.noise_over_energy`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

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


@dataclass(frozen=True)
class DownlinkScenario:
    """Cell geometry, link budget, and schedule shape of one simulation. The
    carrier is the stack's (:attr:`StackDescription.frequency_hz`).

    The path-loss exponent defaults to 3.2 (3GPP UMi NLOS at 28 GHz); the
    opportunistic scheme's gain over the full-feedback baseline hinges on how
    strongly distance separates users, so this default is the calibration
    knob to revisit first (``--eta`` on the CLI).
    """

    user_count: int
    bs_height_m: float = 10.0
    inner_radius_m: float = 10.0
    outer_radius_m: float = 50.0
    bandwidth_hz: float = 10e6
    tx_power_dbm: float = 15.0
    noise_psd_dbm_hz: float = -174.0
    pathloss_exponent: float = 3.2
    reference_distance_m: float = 1.0
    slot_count: int = 2
    streams: int = 4

    def validate(self) -> list[str]:
        problems = []
        if self.user_count < 1:
            problems.append("user_count must be at least 1")
        elif self.user_count < self.streams:
            problems.append(f"user_count ({self.user_count}) must be at least streams ({self.streams})")
        if not 0 < self.inner_radius_m < self.outer_radius_m:
            problems.append("need 0 < inner_radius_m < outer_radius_m")
        if self.slot_count < 1:
            problems.append("slot_count must be at least 1")
        if self.streams < 1:
            problems.append("streams must be at least 1")
        for name in ("bs_height_m", "bandwidth_hz", "pathloss_exponent", "reference_distance_m"):
            if not getattr(self, name) > 0:
                problems.append(f"{name} must be positive")
        return problems

    @property
    def noise_over_energy(self) -> float:
        """Noise power over per-stream symbol energy rate, as one linear scalar.

        Noise power is the PSD integrated over the bandwidth; symbol energy
        per unit time equals the radiated power at Nyquist signaling, so the
        ratio reduces to (noise power) / (transmit power).
        """
        noise_dbm = self.noise_psd_dbm_hz + 10.0 * math.log10(self.bandwidth_hz)
        return 10.0 ** ((noise_dbm - self.tx_power_dbm) / 10.0)


@dataclass(frozen=True)
class Users:
    """A user drop as arrays, one row per user: placement, distance to the base
    station, path loss, and small-scale fading (unit mean energy).

    ``len()`` is the user count; indexing with a slice or an index array
    selects users, e.g. ``users[:n]`` for the first ``n``.
    """

    positions: np.ndarray  # (U, 3) meters
    distance: np.ndarray  # (U,) meters
    pathloss: np.ndarray  # (U,) linear power gain
    fading: np.ndarray  # (U, output_size) complex

    def __len__(self) -> int:
        return self.distance.shape[0]

    def __getitem__(self, index) -> "Users":
        return Users(self.positions[index], self.distance[index], self.pathloss[index], self.fading[index])


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


def pathloss(distance, wavelength: float, reference_distance: float, exponent: float):
    """Distance power law anchored at the far-field reference distance (scalar or array)."""
    return (wavelength / (4.0 * math.pi * reference_distance)) ** 2 * (reference_distance / distance) ** exponent


def drop_users(scenario: DownlinkScenario, seed: int, fading_seed: int, output_size: int, wavelength: float) -> Users:
    """Drop ``scenario.user_count`` users uniformly by area on the annulus and
    draw their fading.

    Positions come from the first child stream of ``seed``, fading from
    ``fading_seed``, so the two draws are independent. ``output_size`` is the
    fading vector length, the stack's output layer size, and ``wavelength``
    the stack's carrier wavelength, which sets the path loss.
    """
    pos_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    fad_rng = np.random.default_rng(fading_seed)

    count = scenario.user_count
    r_in2 = scenario.inner_radius_m**2
    r_out2 = scenario.outer_radius_m**2
    radius = np.sqrt(r_in2 + (r_out2 - r_in2) * pos_rng.uniform(size=count))
    angle = pos_rng.uniform(0.0, 2.0 * math.pi, count)
    shape = (count, output_size)
    fading = (fad_rng.standard_normal(shape) + 1j * fad_rng.standard_normal(shape)) * math.sqrt(0.5 / output_size)
    distance = np.sqrt(radius**2 + scenario.bs_height_m**2)
    return Users(
        positions=np.column_stack([radius * np.cos(angle), radius * np.sin(angle), np.zeros(count)]),
        distance=distance,
        pathloss=pathloss(distance, wavelength, scenario.reference_distance_m, scenario.pathloss_exponent),
        fading=fading,
    )


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
