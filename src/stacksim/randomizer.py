"""Per-slot random phase codes for the time-modulated input layer, and the
named seed substreams used everywhere randomness is needed.

One master seed per Monte Carlo trial is split into independent named
substreams (target, pgd-init, st-phases, channels, user-drops, ...) so that
enabling or disabling one source of randomness never perturbs the others.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["draw_slot_phases", "stream_seed"]

TWO_PI = 2.0 * np.pi


def stream_seed(master_seed: int, *parts) -> int:
    """Derive a stable 64-bit seed from a master seed and named stream parts.

    Parts may be strings or integers; the derivation is a SHA-256 hash, so it
    is stable across processes, platforms, and execution order.
    """
    h = hashlib.sha256()
    h.update(str(int(master_seed)).encode())
    for part in parts:
        tag = b"s:" + part.encode() if isinstance(part, str) else b"i:" + str(int(part)).encode()
        h.update(b"\x00" + tag)
    return int.from_bytes(h.digest()[:8], "little")


def draw_slot_phases(slot_count: int, element_count: int, seed: int) -> np.ndarray:
    """Random phases of the time-coded input layer: a read-only
    ``(slot_count, element_count)`` array of i.i.d. uniform [0, 2*pi) phases,
    one row per slot.

    Slots are generated from independent child streams of ``seed`` so the
    draw for slot m does not depend on how many later slots are requested.
    """
    if slot_count < 1 or element_count < 1:
        raise ValueError("slot_count and element_count must be at least 1")
    children = np.random.SeedSequence(seed).spawn(slot_count)
    rows = [np.random.default_rng(child).uniform(0.0, TWO_PI, element_count) for child in children]
    phases = np.asarray(rows)
    phases.flags.writeable = False
    return phases
