"""Outer optimizers behind one step interface, plus the workers' inner AdamW.

A method is one row of METHOD_TABLE: the base kernel that takes the step,
the staleness weight on the gradient, the age it is weighted by, and an
optional pre-mix of the delta. One run keeps one OuterState over the full
parameter vector, and `outer_step` applies one pseudo-gradient to the
selected fragments of it in place, each fragment weighted by its own age.
Every per-fragment scalar (weight, bias correction, step factor) is a
Python float, broadcast over its fragment's elements, so a fragment steps
to the same bytes whether it is stepped alone or with its siblings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gate import StalenessGate, staleness_weight
from .schema import check_fields, key

__all__ = [
    "METHOD_TABLE",
    "METHODS",
    "MethodRow",
    "method_row",
    "AdamMoments",
    "OuterState",
    "OuterConfig",
    "InnerConfig",
    "eager_step",
    "inner_adamw_step",
    "outer_step",
]


@dataclass
class AdamMoments:
    """The inner AdamW's first/second moments and its step count.

    Bias correction uses the post-increment count, so the first step
    corrects with t=1.
    """

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, shape: int | tuple[int, ...]) -> "AdamMoments":
        return cls(m=np.zeros(shape), v=np.zeros(shape), t=0)


@dataclass
class OuterState:
    """One run's outer-optimizer state over the full parameter vector.

    Fragment f covers [starts[f], starts[f] + sizes[f]). The adam base keeps
    its moments in m and v; the momentum bases keep the velocity in m, and
    delayed_nesterov its burst buffer (the sum of the gradients since the
    last burst) in v. Per fragment, t counts applied Adam updates (a dropped
    update leaves it alone) and count the gradients in the burst buffer.
    `plan` is the gather plan (ids, sizes, element and counter index, offsets) a round's entries share.
    """

    starts: np.ndarray
    sizes: np.ndarray
    m: np.ndarray
    v: np.ndarray
    t: np.ndarray
    count: np.ndarray
    plan: tuple | None = None

    @classmethod
    def zeros(cls, sizes) -> "OuterState":
        sizes = np.asarray(sizes, dtype=np.int64)
        dim, n = int(sizes.sum()), len(sizes)
        return cls(starts=np.cumsum(sizes) - sizes, sizes=sizes, m=np.zeros(dim), v=np.zeros(dim),
                   t=np.zeros(n, dtype=np.int64), count=np.zeros(n, dtype=np.int64))


# Published defaults: the gated-Adam family ships with
# (alpha, tau_cut, eta, beta1, beta2, eps) = (0.2, 32, 1e-3, 0.9, 0.95, 1e-8)
# and the Nesterov recipe with eta=0.7, mu=0.9.
DEFAULT_ALPHA = 0.2
DEFAULT_TAU_CUT = 32.0


@dataclass(frozen=True)
class MethodRow:
    """One outer method: how it steps, and its config defaults and pins.

    base: the kernel (adam: gated Adam; nesterov, delayed_nesterov, mla).
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
    eta: float = key(lo=0, lo_open=True)
    beta1: float = key(0.9, lo=0, hi=1, hi_open=True)
    beta2: float = key(0.95, lo=0, hi=1, hi_open=True)
    epsilon: float = key(1e-8, lo=0, lo_open=True)
    mu: float = key(0.9, lo=0, hi=1, hi_open=True)
    gate: StalenessGate = field(default_factory=lambda: StalenessGate(0.0, math.inf))
    gate_placement: str = key("before", choices=("before", "after"))
    buffer_period: int = key(4, integer=True, lo=1)

    def __post_init__(self):
        method_row(self.method)
        check_fields(self)

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
    """Worker-side AdamW settings."""

    lr: float = key(3e-4, lo=0, lo_open=True)
    beta1: float = key(0.9, lo=0, hi=1, hi_open=True)
    beta2: float = key(0.95, lo=0, hi=1, hi_open=True)
    epsilon: float = key(1e-8, lo=0, lo_open=True)
    weight_decay: float = key(0.0, lo=0)

    def __post_init__(self):
        check_fields(self)


def _check_shapes(params: np.ndarray, grad: np.ndarray):
    if params.shape != grad.shape:
        raise ValueError(f"shape mismatch: params {params.shape} vs grad {grad.shape}")


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


# The weight on the gradient: the adam base weighs by cfg.gate, a momentum base by its row's weight.
_WEIGHTS = {
    "gate": lambda tau, cfg: staleness_weight(tau, cfg.gate),
    "one": lambda tau, cfg: 1.0,
    "exp": lambda tau, cfg: math.exp(-cfg.gate.alpha * tau),
    "poly": lambda tau, cfg: (1.0 + tau) ** -0.5,
}
_NAN = np.array([math.nan])  # repeat() fills a NaN array faster than np.full


def _spread(values: list, sizes: np.ndarray):
    """Per-fragment scalars as an elementwise factor: one scalar where they are all equal."""
    return values[0] if values.count(values[0]) == len(values) else np.repeat(values, sizes)


def outer_step(params, grad, ages, state: OuterState, cfg: OuterConfig, frags):
    """Apply one pseudo-gradient to the fragments `frags` of params and state, in place.

    frags are ascending fragment ids and ages[i] is the age fragment
    frags[i] is weighted by. Returns per fragment (applied, sigma, rho,
    step_inf_norm): sigma is the weight used (1.0 for an unweighted
    method), rho the max bias-corrected Adam ratio |m_hat|/(sqrt(v_hat)+eps)
    (NaN outside the adam base and where dropped), and step_inf_norm the
    inf-norm of the fragment's update before it was added to the params.

    Only the adam base drops: a fragment at weight 0 keeps its params,
    moments and t untouched. A momentum base always steps. With placement
    'before' the weighted gradient feeds both Adam moments; with 'after'
    the raw gradient does and only the final step is scaled. For the eager
    pre-mix the caller mixes the delta first (eager_step).
    """
    _check_shapes(params, grad)
    if min(ages) < 0.0:
        raise ValueError(f"ages must be >= 0, got {list(ages)}")
    row = METHOD_TABLE[cfg.method]
    n = len(frags)
    weigh = _WEIGHTS["gate" if row.base == "adam" else row.weight]
    # a tau-aged method passes one age for every fragment: weigh it once
    sigma = [weigh(ages[0], cfg)] * n if list(ages).count(ages[0]) == n else [weigh(age, cfg) for age in ages]
    live = [i for i in range(n) if sigma[i] != 0.0] if row.base == "adam" else list(range(n))
    at = slice(None) if len(live) == n else live  # where the stepped fragments' results go
    applied, rho, norm = np.zeros(n, dtype=bool), _NAN.repeat(n), np.zeros(n)
    applied[at] = True
    if not live:
        return applied, sigma, rho, norm

    ids = [frags[i] for i in live]
    if state.plan is None or state.plan[0] != ids:
        sizes = state.sizes[ids]
        offsets = np.cumsum(sizes) - sizes
        if ids == list(range(ids[0], ids[-1] + 1)):  # consecutive fragments: slices, no gather
            start = int(state.starts[ids[0]])
            state.plan = ids, sizes, slice(start, start + int(sizes.sum())), slice(ids[0], ids[-1] + 1), offsets
        else:
            index = np.repeat(state.starts[ids] - offsets, sizes) + np.arange(int(sizes.sum()))
            state.plan = ids, sizes, index, ids, offsets
    _, sizes, index, frag, offsets = state.plan
    sig = [sigma[i] for i in live]
    g = grad[index]

    if row.base == "adam":
        if cfg.gate_placement == "before":
            g = _spread(sig, sizes) * g
        state.t[frag] += 1
        ts = state.t[frag].tolist()
        m = cfg.beta1 * state.m[index] + (1.0 - cfg.beta1) * g
        v = cfg.beta2 * state.v[index] + (1.0 - cfg.beta2) * (g * g)
        state.m[index] = m
        state.v[index] = v
        m_hat = m / _spread([1.0 - cfg.beta1**k for k in ts], sizes)
        v_hat = v / _spread([1.0 - cfg.beta2**k for k in ts], sizes)
        ratio = m_hat / (np.sqrt(v_hat) + cfg.epsilon)
        step = _spread([cfg.eta * s for s in sig], sizes) * ratio
        rho[at] = np.maximum.reduceat(np.abs(ratio), offsets)
    else:
        if row.weight != "one":
            g = _spread(sig, sizes) * g
        velocity = state.m[index]
        if row.base == "delayed_nesterov":
            # plain gradient steps; every buffer_period-th call the buffered mean
            # enters the velocity, an extra -eta*mu*v burst applies, the buffer resets
            acc = state.v[index] + g
            count = state.count[frag] + 1
            step = cfg.eta * g
            burst = count >= cfg.buffer_period
            if burst.any():
                mask = _spread(burst.tolist(), sizes)
                velocity = np.where(mask, cfg.mu * velocity + acc / _spread(count.tolist(), sizes), velocity)
                step = np.where(mask, step + cfg.eta * cfg.mu * velocity, step)
                acc = np.where(mask, 0.0, acc)
                count[burst] = 0
            state.v[index] = acc
            state.count[frag] = count
        else:
            # Nesterov with the post-update velocity; mla extends the step by
            # tau*mu extra velocity applications ("project by tau*mu steps")
            velocity = cfg.mu * velocity + g
            step = cfg.eta * (g + cfg.mu * velocity)
            if row.base == "mla":
                step = step + _spread([cfg.eta * ages[i] * cfg.mu for i in live], sizes) * velocity
        state.m[index] = velocity
    params[index] -= step
    norm[at] = np.maximum.reduceat(np.abs(step), offsets)
    return applied, sigma, rho, norm
