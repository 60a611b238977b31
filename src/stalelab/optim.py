"""Outer optimizers behind one step interface, plus the workers' inner AdamW.

Every outer method consumes one pseudo-gradient at a time together with its
integer-or-real age tau and returns (new_params, new_state, StepInfo). A
method is one row of METHOD_TABLE: the base kernel that takes the step, the
staleness weight on the gradient, the age it is weighted by, and an optional
pre-mix of the delta. States are plain dataclasses holding numpy arrays;
steps are functional (inputs are never mutated), which is what makes the
drop-entirely path literally a no-op.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gate import StalenessGate, staleness_weight

__all__ = [
    "METHOD_TABLE",
    "METHODS",
    "MethodRow",
    "method_row",
    "AdamMoments",
    "NesterovVelocity",
    "DelayBuffer",
    "OuterConfig",
    "InnerConfig",
    "StepInfo",
    "cgad_step",
    "nesterov_step",
    "delayed_nesterov_step",
    "eager_step",
    "mla_step",
    "inner_adamw_step",
    "init_outer_state",
    "outer_step",
]


@dataclass
class AdamMoments:
    """First/second moment vectors plus the count of applied updates.

    t counts only applied (non-dropped) updates; bias correction always
    uses the post-increment value, so the first applied update corrects
    with t=1.
    """

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, dim: int) -> "AdamMoments":
        return cls(m=np.zeros(dim), v=np.zeros(dim), t=0)


@dataclass
class NesterovVelocity:
    v: np.ndarray

    @classmethod
    def zeros(cls, dim: int) -> "NesterovVelocity":
        return cls(v=np.zeros(dim))


@dataclass
class DelayBuffer:
    """Accumulator for the buffered-burst method.

    Collects raw gradients between bursts; `rounds_since_burst` counts
    step calls, and both reset to zero when a burst fires.
    """

    accumulated: np.ndarray
    count: int = 0
    rounds_since_burst: int = 0

    @classmethod
    def zeros(cls, dim: int) -> "DelayBuffer":
        return cls(accumulated=np.zeros(dim), count=0, rounds_since_burst=0)


@dataclass
class DelayedNesterovState:
    velocity: NesterovVelocity
    buffer: DelayBuffer

    @classmethod
    def zeros(cls, dim: int) -> "DelayedNesterovState":
        return cls(velocity=NesterovVelocity.zeros(dim), buffer=DelayBuffer.zeros(dim))


# Published defaults: the gated-Adam family ships with
# (alpha, tau_cut, eta, beta1, beta2, eps) = (0.2, 32, 1e-3, 0.9, 0.95, 1e-8)
# and the Nesterov recipe with eta=0.7, mu=0.9.
DEFAULT_ALPHA = 0.2
DEFAULT_TAU_CUT = 32.0


@dataclass(frozen=True)
class MethodRow:
    """One outer method: how it steps, and its config defaults and pins.

    base: the kernel (adam = cgad_step, nesterov, delayed_nesterov, mla).
    weight: the staleness weight on the gradient: cos_exp (the full gate),
    exp (no cutoff), poly ((1+tau)^(-1/2)) or one. age: tau, or fragment
    for max(tau, rounds since the fragment last synced). premix: none, or
    eager (mix the delta with last round's mean first). eta: the default
    step size. alpha, tau_cut: the key's pinned value, or None if free.
    """

    base: str
    weight: str
    age: str
    premix: str
    eta: float
    alpha: float | None
    tau_cut: float | None

    @property
    def gated(self) -> bool:
        return self.weight in ("cos_exp", "exp")


METHOD_TABLE = {
    #                   MethodRow(base, weight, age, premix, eta, alpha pin, tau_cut pin)
    "cgad":             MethodRow("adam", "cos_exp", "tau", "none", 1e-3, None, None),
    "pa_cgad":          MethodRow("adam", "cos_exp", "fragment", "none", 1e-3, None, None),
    "adam":             MethodRow("adam", "one", "tau", "none", 1e-3, 0.0, DEFAULT_TAU_CUT),
    "adam_decay":       MethodRow("adam", "exp", "tau", "none", 1e-3, None, math.inf),
    "nesterov":         MethodRow("nesterov", "one", "tau", "none", 0.7, 0.0, math.inf),
    "sdm":              MethodRow("nesterov", "exp", "tau", "none", 0.7, None, math.inf),
    "poly_decay":       MethodRow("nesterov", "poly", "tau", "none", 0.7, 0.0, math.inf),
    "delayed_nesterov": MethodRow("delayed_nesterov", "one", "tau", "none", 0.7, 0.0, math.inf),
    "eager":            MethodRow("nesterov", "one", "tau", "eager", 0.7, 0.0, math.inf),
    "mla":              MethodRow("mla", "one", "tau", "none", 0.7, 0.0, math.inf),
}
METHODS = tuple(METHOD_TABLE)


def method_row(method: str) -> MethodRow:
    try:
        return METHOD_TABLE[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}") from None


@dataclass
class OuterConfig:
    method: str
    eta: float
    beta1: float = 0.9
    beta2: float = 0.95
    epsilon: float = 1e-8
    mu: float = 0.9
    gate: StalenessGate = field(default_factory=lambda: StalenessGate(0.0, math.inf))
    gate_placement: str = "before"
    buffer_period: int = 4

    def __post_init__(self):
        method_row(self.method)
        if not (self.eta > 0.0):
            raise ValueError(f"eta must be > 0, got {self.eta}")
        if not (0.0 <= self.beta1 < 1.0):
            raise ValueError(f"beta1 must satisfy 0 <= beta1 < 1, got {self.beta1}")
        if not (0.0 <= self.beta2 < 1.0):
            raise ValueError(f"beta2 must satisfy 0 <= beta2 < 1, got {self.beta2}")
        if not (self.epsilon > 0.0):
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if not (0.0 <= self.mu < 1.0):
            raise ValueError(f"mu must satisfy 0 <= mu < 1, got {self.mu}")
        if self.gate_placement not in ("before", "after"):
            raise ValueError(f"gate_placement must be 'before' or 'after', got {self.gate_placement!r}")
        if self.buffer_period < 1:
            raise ValueError(f"buffer_period must be >= 1, got {self.buffer_period}")

    @classmethod
    def for_method(cls, method: str, **overrides) -> "OuterConfig":
        """Config pre-filled with the method's published defaults.

        The gate follows the row's weight: cos_exp keeps (alpha, tau_cut),
        exp drops the cutoff, and every other weight gets the always-one gate.
        """
        row = method_row(method)
        alpha = overrides.pop("alpha", DEFAULT_ALPHA)
        tau_cut = overrides.pop("tau_cut", DEFAULT_TAU_CUT)
        gate = StalenessGate(alpha if row.gated else 0.0, tau_cut if row.weight == "cos_exp" else math.inf)
        return cls(method=method, **{"eta": row.eta, "gate": gate, **overrides})


@dataclass
class InnerConfig:
    """Worker-side AdamW settings (defaults: lr 3e-4, betas (0.9, 0.95), wd 0)."""

    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.95
    epsilon: float = 1e-8
    weight_decay: float = 0.0

    def __post_init__(self):
        if not (self.lr > 0.0):
            raise ValueError(f"inner lr must be > 0, got {self.lr}")
        if not (0.0 <= self.beta1 < 1.0):
            raise ValueError(f"inner beta1 must satisfy 0 <= beta1 < 1, got {self.beta1}")
        if not (0.0 <= self.beta2 < 1.0):
            raise ValueError(f"inner beta2 must satisfy 0 <= beta2 < 1, got {self.beta2}")
        if not (self.epsilon > 0.0):
            raise ValueError(f"inner epsilon must be > 0, got {self.epsilon}")
        if self.weight_decay < 0.0:
            raise ValueError(f"inner weight_decay must be >= 0, got {self.weight_decay}")


@dataclass
class StepInfo:
    """What one outer step did, for trace records and the norm audit.

    sigma is the gate weight actually used (1.0 for ungated methods),
    rho the max bias-corrected Adam ratio |m_hat|/(sqrt(v_hat)+eps)
    (None outside the Adam family), and step_inf_norm the inf-norm of
    the update vector as computed, before it was added to the params.
    """

    applied: bool
    sigma: float
    rho: float | None = None
    step_inf_norm: float = 0.0


def _check_shapes(params: np.ndarray, grad: np.ndarray):
    if params.shape != grad.shape:
        raise ValueError(f"shape mismatch: params {params.shape} vs grad {grad.shape}")


def cgad_step(
    params: np.ndarray,
    grad: np.ndarray,
    tau: float,
    state: AdamMoments,
    cfg: OuterConfig,
) -> tuple[np.ndarray, AdamMoments, StepInfo]:
    """One gated-Adam outer step; the shared kernel of the Adam family.

    sigma = 0 drops the update entirely: params, moments and the step
    counter are returned untouched. Otherwise, with placement 'before'
    the gated gradient sigma*grad feeds both moments and the step is
    eta*sigma*m_hat/(sqrt(v_hat)+eps); with placement 'after' the raw
    gradient feeds the moments and only the final step is scaled.
    """
    _check_shapes(params, grad)
    if tau < 0.0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    sigma = staleness_weight(tau, cfg.gate)
    if sigma == 0.0:
        return params, state, StepInfo(applied=False, sigma=0.0)

    g = sigma * grad if cfg.gate_placement == "before" else grad
    t = state.t + 1
    m = cfg.beta1 * state.m + (1.0 - cfg.beta1) * g
    v = cfg.beta2 * state.v + (1.0 - cfg.beta2) * (g * g)
    m_hat = m / (1.0 - cfg.beta1**t)
    v_hat = v / (1.0 - cfg.beta2**t)
    ratio = m_hat / (np.sqrt(v_hat) + cfg.epsilon)
    step = (cfg.eta * sigma) * ratio
    new_params = params - step
    rho = float(np.max(np.abs(ratio)))
    info = StepInfo(applied=True, sigma=sigma, rho=rho, step_inf_norm=float(np.max(np.abs(step))))
    return new_params, AdamMoments(m=m, v=v, t=t), info


def nesterov_step(
    params: np.ndarray,
    grad: np.ndarray,
    state: NesterovVelocity,
    cfg: OuterConfig,
) -> tuple[np.ndarray, NesterovVelocity, StepInfo]:
    """v <- mu*v + g; params <- params - eta*(g + mu*v).

    The common deep-learning form of Nesterov momentum, evaluated with
    the post-update velocity.
    """
    _check_shapes(params, grad)
    v = cfg.mu * state.v + grad
    step = cfg.eta * (grad + cfg.mu * v)
    new_params = params - step
    info = StepInfo(applied=True, sigma=1.0, step_inf_norm=float(np.max(np.abs(step))))
    return new_params, NesterovVelocity(v=v), info


def delayed_nesterov_step(
    params: np.ndarray,
    grad: np.ndarray,
    state: DelayedNesterovState,
    cfg: OuterConfig,
) -> tuple[np.ndarray, DelayedNesterovState, StepInfo]:
    """Plain gradient steps each call, momentum bursts every N-th call.

    Between bursts the gradient only accumulates in the buffer and moves
    the params by -eta*grad. On every buffer_period-th call the buffered
    mean enters the velocity and an extra -eta*mu*v burst is applied,
    after which the buffer resets.
    """
    _check_shapes(params, grad)
    acc = state.buffer.accumulated + grad
    count = state.buffer.count + 1
    since = state.buffer.rounds_since_burst + 1
    step = cfg.eta * grad
    v = state.velocity.v
    if since >= cfg.buffer_period:
        v = cfg.mu * v + acc / count
        step = step + cfg.eta * cfg.mu * v
        acc = np.zeros_like(acc)
        count = 0
        since = 0
    new_params = params - step
    new_state = DelayedNesterovState(
        velocity=NesterovVelocity(v=v),
        buffer=DelayBuffer(accumulated=acc, count=count, rounds_since_burst=since),
    )
    info = StepInfo(applied=True, sigma=1.0, step_inf_norm=float(np.max(np.abs(step))))
    return new_params, new_state, info


def eager_step(
    own_delta: np.ndarray,
    prev_own_delta: np.ndarray,
    prev_avg_delta: np.ndarray,
    num_workers: int,
) -> np.ndarray:
    """Mix a worker's fresh delta with last round's average delta.

    Returns (1/M)*(own - prev_own) + prev_avg; the result is fed to the
    Nesterov update. Callers with no history yet should pass own_delta
    straight through instead (first-round convention).
    """
    if num_workers < 1:
        raise ValueError(f"num_workers must be >= 1, got {num_workers}")
    _check_shapes(own_delta, prev_own_delta)
    _check_shapes(own_delta, prev_avg_delta)
    return (own_delta - prev_own_delta) / num_workers + prev_avg_delta


def mla_step(params, grad, tau, state, cfg):
    """Nesterov update plus a tau*mu-scaled velocity extrapolation.

    One reading of "project parameters by tau*mu steps": the regular
    momentum step is extended by tau*mu extra velocity applications.
    """
    _check_shapes(params, grad)
    if tau < 0.0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    v = cfg.mu * state.v + grad
    step = cfg.eta * (grad + cfg.mu * v) + (cfg.eta * tau * cfg.mu) * v
    new_params = params - step
    info = StepInfo(applied=True, sigma=1.0, step_inf_norm=float(np.max(np.abs(step))))
    return new_params, NesterovVelocity(v=v), info


def inner_adamw_step(
    params: np.ndarray,
    grad: np.ndarray,
    state: AdamMoments,
    cfg: InnerConfig,
) -> tuple[np.ndarray, AdamMoments]:
    """Standard AdamW with bias correction and decoupled weight decay."""
    _check_shapes(params, grad)
    t = state.t + 1
    m = cfg.beta1 * state.m + (1.0 - cfg.beta1) * grad
    v = cfg.beta2 * state.v + (1.0 - cfg.beta2) * (grad * grad)
    m_hat = m / (1.0 - cfg.beta1**t)
    v_hat = v / (1.0 - cfg.beta2**t)
    new_params = params * (1.0 - cfg.lr * cfg.weight_decay) - cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
    return new_params, AdamMoments(m=m, v=v, t=t)


_STATE_TYPES = {"adam": AdamMoments, "nesterov": NesterovVelocity, "mla": NesterovVelocity,
                "delayed_nesterov": DelayedNesterovState}


def init_outer_state(method: str, dim: int):
    return _STATE_TYPES[method_row(method).base].zeros(dim)


# Weights a momentum base applies to the gradient before its kernel; the
# adam base reads its weight from cfg.gate inside cgad_step instead.
_MOMENTUM_WEIGHTS = {
    "exp": lambda tau, cfg: math.exp(-cfg.gate.alpha * tau),
    "poly": lambda tau, cfg: (1.0 + tau) ** -0.5,
}


def outer_step(params, grad, tau, state, cfg: OuterConfig):
    """Uniform dispatch: one outer update for any method, read off its row.

    Only the adam base drops an update at weight 0; a momentum base still
    applies its momentum step. For the eager pre-mix the caller mixes the
    delta first (eager_step) and passes the result here.
    """
    row = METHOD_TABLE[cfg.method]
    if row.base == "adam":
        return cgad_step(params, grad, tau, state, cfg)
    sigma = 1.0
    if row.weight != "one":
        if tau < 0.0:
            raise ValueError(f"tau must be >= 0, got {tau}")
        sigma = _MOMENTUM_WEIGHTS[row.weight](tau, cfg)
        grad = sigma * grad
    if row.base == "mla":
        new_params, new_state, info = mla_step(params, grad, tau, state, cfg)
    elif row.base == "delayed_nesterov":
        new_params, new_state, info = delayed_nesterov_step(params, grad, state, cfg)
    else:
        new_params, new_state, info = nesterov_step(params, grad, state, cfg)
    info.sigma = sigma
    return new_params, new_state, info
