"""Numerical checks of the gate's mathematical guarantees.

Three executable facts:

* the grid maximum of tau*sigma(tau) never exceeds 1/(e*alpha), the
  closed-form unconstrained maximum of tau*exp(-alpha*tau) at tau=1/alpha
  (the cosine factor only lowers it);
* the convergence-bound arithmetic: with step size c/sqrt(T) the three
  terms are F_gap/(c sqrt(T)), L c sigma^2 / (2 sqrt(T)) and
  L c G / (e alpha sqrt(T)), the last depending on alpha alone;
* the per-step norm identity: every gated-Adam update satisfies
  ||step||_inf <= eta * sigma_t * rho_t with rho_t the max bias-corrected
  ratio, which the audit re-checks record by record.

The bound comparison runs only where L and F_gap are exact (the quadratic
task); G and sigma^2 are empirical sup-estimates from the trace and are
labeled as such. rho <= 1 is measured, never assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .gate import StalenessGate, gate_curve

if TYPE_CHECKING:
    from .simulator import Trace

STEP_BOUND_REL_TOL = 1e-12

__all__ = ["TheoryInputs", "max_tau_sigma", "bound_terms", "trace_stats", "audit_run", "STEP_BOUND_REL_TOL"]


@dataclass(frozen=True)
class TheoryInputs:
    """Constants feeding the bound: all positive and finite, horizon a positive integer."""

    l_smooth: float
    grad_bound: float
    sigma_sq: float
    step_const: float
    horizon: int
    f_gap: float

    def __post_init__(self):
        for name in ("l_smooth", "grad_bound", "sigma_sq", "step_const", "f_gap"):
            if not (0.0 < getattr(self, name) < math.inf):
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if not (isinstance(self.horizon, int) and self.horizon >= 1):
            raise ValueError(f"horizon must be an integer >= 1, got {self.horizon}")


def max_tau_sigma(gate: StalenessGate, grid_step: float = 1e-3) -> tuple[float, float]:
    """Grid-search (argmax, max) of tau*sigma(tau).

    The grid covers [0, max(2*tau_cut, 4/alpha)], which contains the
    unconstrained argmax 1/alpha whenever alpha > 0. Pure exponential
    decay with alpha = 0 has unbounded tau*sigma and is rejected.
    """
    if not (0.0 < grid_step <= 1e-3):
        raise ValueError(f"grid_step must be in (0, 1e-3], got {grid_step}")
    hi = 0.0
    if not gate.infinite_cutoff:
        hi = 2.0 * gate.tau_cut
    if gate.alpha > 0.0:
        hi = max(hi, 4.0 / gate.alpha)
    elif gate.infinite_cutoff:
        raise ValueError("tau*sigma is unbounded for alpha=0 with no cutoff")
    taus = np.arange(0.0, hi + grid_step, grid_step)
    values = taus * gate_curve(gate, taus)
    best = int(np.argmax(values))
    return float(taus[best]), float(values[best])


def bound_terms(inputs: TheoryInputs, alpha: float) -> tuple[float, float, float]:
    """(optimization, noise, staleness) terms of the rate bound.

    Each scales as 1/sqrt(T); only the staleness term depends on alpha,
    through the 1/(e*alpha) envelope of tau*sigma(tau).
    """
    if not (alpha > 0.0):
        raise ValueError(f"alpha must be > 0, got {alpha}")
    sqrt_t = math.sqrt(inputs.horizon)
    opt = inputs.f_gap / (inputs.step_const * sqrt_t)
    noise = inputs.l_smooth * inputs.step_const * inputs.sigma_sq / (2.0 * sqrt_t)
    staleness = inputs.l_smooth * inputs.step_const * inputs.grad_bound / (math.e * alpha * sqrt_t)
    return opt, noise, staleness


def trace_stats(records: np.ndarray) -> tuple[float | None, float | None, float | None]:
    """(sigma_bar, rho_max, rho_le_one_frac) of an ApplyRecord array; None where there are no records.

    The rho fields cover applied records with an Adam ratio, so they are
    None for the Nesterov-base methods.
    """
    if len(records) == 0:
        return None, None, None
    # a contiguous copy: numpy sums an unaligned strided column in buffered
    # chunks, whose rounding differs from one pairwise sum over the column
    sigma_bar = float(np.mean(np.ascontiguousarray(records["sigma"])))
    rhos = records["rho"][records["applied"]]
    rhos = rhos[~np.isnan(rhos)]
    if rhos.size == 0:
        return sigma_bar, None, None
    return sigma_bar, float(rhos.max()), float(np.count_nonzero(rhos <= 1.0) / rhos.size)


def audit_run(trace: Trace) -> dict:
    """Audit a gated-Adam trace: norm identity, rho statistics, bound check.

    Requires the per-record fields the simulator writes for the Adam
    family (sigma, rho, step norms). Reports, per applied step, whether
    ||step||_inf <= eta*sigma*rho held to STEP_BOUND_REL_TOL relative, the
    fraction of steps with rho <= 1, the mean gate weight over all
    consumed steps, and (when the trace holds exact gradients) the
    sigma-weighted mean squared gradient norm next to the bound's
    right-hand side evaluated with empirical G and sigma^2 estimates.
    """
    records = trace.records
    if len(records) == 0:
        raise ValueError("audit_run needs a non-empty trace")
    # the applied rows' columns one by one: a copy of whole records would double the trace in memory
    applied = records["applied"]
    rho = records["rho"][applied]
    if np.isnan(rho).any():
        raise ValueError("trace lacks Adam ratio maxima; audit_run only covers the gated-Adam family")

    eta, gate = trace.outer.eta, trace.outer.gate
    bound = (eta * records["sigma"][applied]) * rho
    violations = int(np.count_nonzero(records["step_inf_norm"][applied] > bound * (1.0 + STEP_BOUND_REL_TOL)))

    sigma_bar, rho_max, rho_le_one = trace_stats(records)
    report: dict = {
        "steps": len(records),
        "applied_steps": len(rho),
        "step_bound_violations": violations,
        "step_bound_rel_tol": STEP_BOUND_REL_TOL,
        "rho_max": rho_max,
        "rho_le_one_frac": rho_le_one,
        "sigma_bar": sigma_bar,
        "weighted_grad_norm_avg": None,
        "bound": None,
    }

    if trace.exact_grad:
        grad_norm_sq = records["grad_norm_sq"]
        weighted = float(np.mean(records["sigma"] * grad_norm_sq))
        # a diverged run's norm is inf or NaN, which strict JSON cannot hold: it reads null, with no bound
        report["weighted_grad_norm_avg"] = weighted if math.isfinite(weighted) else None
        g_est = math.sqrt(float(grad_norm_sq.max()))
        sigma_sq_est = float(records["delta_norm_sq"].max())
        horizon = len(records)
        c = eta * math.sqrt(horizon)
        if (
            report["weighted_grad_norm_avg"] is not None
            and trace.l_smooth is not None
            and trace.f_gap is not None
            and gate.alpha > 0.0
            # TheoryInputs needs these finite and > 0: sigma^2 is 0 when every pseudo-gradient
            # rounds to 0, and a bound with an inf constant (c from a huge eta) bounds nothing
            and 0.0 < trace.f_gap < math.inf
            and 0.0 < g_est < math.inf
            and 0.0 < sigma_sq_est < math.inf
            and c < math.inf
        ):
            inputs = TheoryInputs(
                l_smooth=trace.l_smooth,
                grad_bound=g_est,
                sigma_sq=sigma_sq_est,
                step_const=c,
                horizon=horizon,
                f_gap=trace.f_gap,
            )
            opt, noise, staleness = bound_terms(inputs, gate.alpha)
            rhs = opt + noise + staleness
            report["bound"] = {
                "optimization_term": opt,
                "noise_term": noise,
                "staleness_term": staleness,
                "rhs": rhs,
                "lhs": weighted,
                "holds": weighted <= rhs,
                "step_const": c,
                "grad_bound_estimate": g_est,
                "sigma_sq_estimate": sigma_sq_est,
                "cutoff_covers_argmax": gate.tau_cut >= 1.0 / gate.alpha,
            }
    return report
