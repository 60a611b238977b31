"""Staleness gating: cosine cutoff, exponential decay, and their product.

The gate weight for an update that is ``tau`` rounds old is

    sigma(tau) = cosine_gate(tau, tau_cut) * exp(-alpha * tau)

where the cosine factor is 1 at tau=0, falls smoothly to 0 at tau_cut,
and stays 0 beyond it. ``tau_cut = math.inf`` disables the cutoff, in
which case sigma is exactly the exponential (no cosine arithmetic at
all). ``alpha = 0`` together with an infinite cutoff makes sigma
identically 1, which turns the gated optimizer into plain Adam.

tau is accepted as a nonnegative real, not just an integer: fragment
aging and the grid searches in the theory module evaluate the gate at
fractional ages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "StalenessGate",
    "cosine_gate",
    "staleness_weight",
    "gate_curve",
]


@dataclass(frozen=True)
class StalenessGate:
    """Immutable (alpha, tau_cut) pair defining one gate.

    alpha:   exponential decay rate per round, finite and >= 0.
    tau_cut: cosine cutoff in rounds, > 0, or math.inf for no cutoff.
    """

    alpha: float
    tau_cut: float

    def __post_init__(self):
        if not (0.0 <= self.alpha < math.inf):  # inf would make sigma(0) = 0 * inf = nan
            raise ValueError(f"gate alpha must be finite and >= 0, got {self.alpha}")
        if not (self.tau_cut > 0.0):
            raise ValueError(f"gate tau_cut must be > 0 or inf, got {self.tau_cut}")

    @property
    def infinite_cutoff(self) -> bool:
        return math.isinf(self.tau_cut)


def cosine_gate(tau: float, tau_cut: float) -> float:
    """Smooth cutoff 0.5*(1 + cos(pi*tau/tau_cut)) on [0, tau_cut], 0 beyond.

    The zero beyond the cutoff is produced by an explicit comparison, not
    by cosine rounding, so weights at and past tau_cut are exactly 0.0.
    An infinite tau_cut returns 1.0 without touching the cosine.
    """
    if tau < 0.0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    if math.isinf(tau_cut):
        return 1.0
    if not (tau_cut > 0.0):
        raise ValueError(f"tau_cut must be > 0 or inf, got {tau_cut}")
    if tau >= tau_cut:
        return 0.0
    return 0.5 * (1.0 + math.cos(math.pi * tau / tau_cut))


def staleness_weight(tau: float, gate: StalenessGate) -> float:
    """sigma(tau) = cosine_gate(tau) * exp(-alpha*tau), in [0, 1].

    Exactly 1.0 at tau=0 and exactly 0.0 for tau >= tau_cut when the
    cutoff is finite.
    """
    gamma = cosine_gate(tau, gate.tau_cut)
    if gamma == 0.0:
        return 0.0
    return gamma * math.exp(-gate.alpha * tau)


def gate_curve(gate: StalenessGate, taus: np.ndarray) -> np.ndarray:
    """Vectorized sigma(tau) over a grid of nonnegative ages.

    Same formula as `staleness_weight`; used by the grid searches and the
    gate-table printer where per-scalar calls would be slow.
    """
    taus = np.asarray(taus, dtype=np.float64)
    if np.any(taus < 0.0):
        raise ValueError("grid taus must be >= 0")
    decay = np.exp(-gate.alpha * taus)
    if gate.infinite_cutoff:
        return decay
    inside = taus < gate.tau_cut
    gamma = np.where(inside, 0.5 * (1.0 + np.cos(np.pi * taus / gate.tau_cut)), 0.0)
    return np.where(inside, gamma * decay, 0.0)
