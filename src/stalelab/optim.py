"""Outer optimizers behind one step interface, plus the workers' inner AdamW.

A method is one row of METHOD_TABLE: the base kernel that takes the step,
the staleness weight on the gradient, the age it is weighted by, and an
optional pre-mix of the delta. One run keeps one OuterState over the full
vector and its Fragments, and `outer_step` applies one pseudo-gradient to
the selected fragments of it in place, each weighted by its own age.
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
    "Fragments",
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


class Fragments:
    """Non-empty fragments covering [0, dim) in order, and their sync ages.

    Fragment f covers [starts[f], starts[f] + sizes[f]) and ages[f] counts the
    rounds since it last synced. `picks` caches each ages state's selection
    (see pick); the ages cycle, so a run meets few states.
    """

    def __init__(self, sizes):
        self.sizes = np.asarray(sizes, dtype=np.int64)
        if not self.sizes.size or self.sizes.min() <= 0:
            raise ValueError(f"need one or more fragments, each non-empty, got sizes {self.sizes.tolist()}")
        self.starts = np.cumsum(self.sizes) - self.sizes
        self.ages = np.zeros(len(self.sizes), dtype=np.int64)
        self.picks: dict[bytes, tuple] = {}

    @classmethod
    def even_split(cls, dim: int, count: int) -> "Fragments":
        return cls(np.diff(np.linspace(0, dim, count + 1).astype(int)))

    def __len__(self) -> int:
        return len(self.sizes)

    def select(self, ids) -> tuple:
        """Gather plan of ascending fragment ids: (ids, sizes, element index, counter index, reduceat offsets).
        Consecutive ids are addressed by slices, with no gather."""
        ids = list(ids)
        sizes = self.sizes[ids]
        offsets = np.cumsum(sizes) - sizes
        if ids == list(range(ids[0], ids[-1] + 1)):
            start = int(self.starts[ids[0]])
            return ids, sizes, slice(start, start + int(sizes.sum())), slice(ids[0], ids[-1] + 1), offsets
        index = np.repeat(self.starts[ids] - offsets, sizes) + np.arange(int(sizes.sum()))
        return ids, sizes, index, ids, offsets

    def pick(self, ids) -> tuple:
        """Select ids at the current ages; cache and return (plan, their ages as floats, the next ages),
        in which the selected fragments reset to 0 and the rest grow by 1."""
        after = self.ages + 1
        after[ids] = 0
        picked = self.picks[self.ages.tobytes()] = self.select(ids), self.ages[ids].astype(np.float64), after
        return picked


@dataclass
class OuterState:
    """One run's outer-optimizer state over the full parameter vector: all it carries between rounds.

    The adam base keeps its moments in m and v; the momentum bases keep the
    velocity in m, and delayed_nesterov its burst buffer (the sum of the
    gradients since the last burst) in v. Per fragment, t counts applied Adam
    updates (a dropped update leaves it alone) and count the gradients in the
    burst buffer. `corrections` holds the Adam bias corrections by t (see
    _corrections). The eager pre-mix keeps each worker's last delta in
    prev_own and last round's mean delta in prev_avg.
    """

    fragments: Fragments
    m: np.ndarray
    v: np.ndarray
    t: np.ndarray
    count: np.ndarray
    corrections: dict = field(default_factory=dict)
    prev_own: dict[int, np.ndarray] = field(default_factory=dict)
    prev_avg: np.ndarray | None = None

    @classmethod
    def zeros(cls, sizes) -> "OuterState":
        fragments = Fragments(sizes)
        dim, n = int(fragments.sizes.sum()), len(fragments)
        return cls(fragments, m=np.zeros(dim), v=np.zeros(dim),
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
        `outer_step` weighs every age by this gate's sigma, except a poly row's.
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
    """Standard AdamW with bias correction and decoupled weight decay, in place.

    Updates params and the state's m, v and t, and returns them. Each
    array takes the bits of the out-of-place formula
    m = beta1*m + (1-beta1)*g, v = beta2*v + (1-beta2)*(g*g),
    params = params*(1 - lr*wd) - lr*(m/(1-beta1**t)) / (sqrt(v/(1-beta2**t)) + eps):
    every product and sum keeps its operands; two temporary arrays hold the terms.
    """
    _check_shapes(params, grad)
    state.t += 1
    m, v, t = state.m, state.v, state.t
    term = np.multiply(grad, 1.0 - cfg.beta1)
    m *= cfg.beta1
    m += term
    np.multiply(grad, grad, out=term)
    term *= 1.0 - cfg.beta2
    v *= cfg.beta2
    v += term
    step = np.divide(m, 1.0 - cfg.beta1**t, out=term)  # m_hat
    step *= cfg.lr
    denom = np.divide(v, 1.0 - cfg.beta2**t)  # v_hat
    np.sqrt(denom, out=denom)
    denom += cfg.epsilon
    step /= denom
    params *= 1.0 - cfg.lr * cfg.weight_decay
    params -= step
    return params, state


def _corrections(state: OuterState, cfg: OuterConfig, t: np.ndarray) -> np.ndarray:
    """(1 - beta1**t, 1 - beta2**t) on a leading axis, Python floats from a table the state grows on demand.

    t=0 (only ever a dropped fragment, whose results are masked) gives 1."""
    betas = cfg.beta1, cfg.beta2
    try:
        return state.corrections[betas][:, t]
    except (KeyError, IndexError):
        top = 2 * int(t.max()) + 64
        state.corrections[betas] = np.array([[1.0] + [1.0 - beta**k for k in range(1, top)] for beta in betas])
        return state.corrections[betas][:, t]


def outer_step(params, grad, ages, state: OuterState, cfg: OuterConfig, frags, *, before=None):
    """Apply a round's pseudo-gradients, in order, to the selected fragments of params and state, in place.

    grad is one pseudo-gradient (dim,) or E of them stacked (E, dim), applied
    in row order; frags is a Fragments.select plan and ages[e][i] (ages[i]
    for a 1-D grad) the age its i-th fragment is weighted by in entry e.
    Returns per (entry, fragment) arrays (applied, sigma, rho, step_inf_norm),
    each (E, n), or (n,) for a 1-D grad: sigma is the weight used (1.0 for
    an unweighted method), rho the max bias-corrected Adam ratio
    |m_hat|/(sqrt(v_hat)+eps) (NaN outside the adam base and where dropped),
    and step_inf_norm the inf-norm of the fragment's update before it was
    added to the params. If `before` is an (E, dim) array, row e receives
    the params entry e was applied to.

    Only the adam base drops: a fragment at weight 0 keeps its params,
    moments and t untouched. A momentum base always steps. With placement
    'before' the weighted gradient feeds both Adam moments; with 'after'
    the raw gradient does and only the final step is scaled. For the eager
    pre-mix the caller mixes the delta first (eager_step).

    Stepping E stacked entries gives the bytes of E one-entry calls: only the
    moments, velocity, burst buffer and params are carried from entry to
    entry; every other quantity is computed once over (E, selected elements).
    """
    grads = grad if grad.ndim == 2 else grad[None]
    if params.shape != grads.shape[1:]:
        raise ValueError(f"shape mismatch: params {params.shape} vs grad {grad.shape}")
    ids, sizes, index, slot, offsets = frags
    ages = np.asarray(ages, dtype=np.float64).reshape(len(grads), len(ids))
    row = METHOD_TABLE[cfg.method]
    flat = ages.ravel().tolist()
    if min(flat) < 0.0:
        raise ValueError(f"ages must be >= 0, got {ages.tolist()}")
    poly = row.weight == "poly"  # else for_method's gate sigma; once per age (a round has few)
    weights = {age: (1.0 + age) ** -0.5 if poly else staleness_weight(age, cfg.gate) for age in set(flat)}
    sigma = np.array([weights[age] for age in flat]).reshape(ages.shape)
    dropped = row.base == "adam" and 0.0 in weights.values()
    applied = sigma != 0.0 if dropped else np.ones(sigma.shape, dtype=bool)
    keep = np.repeat(applied, sizes, axis=1) if dropped else None  # the elements that step
    g = grads[:, index]
    elem_sigma = np.repeat(sigma, sizes, axis=1)
    if row.base != "adam" or cfg.gate_placement == "before":
        g = elem_sigma * g

    if row.base == "adam":
        t = state.t[slot] + applied.cumsum(axis=0)  # each entry's count per fragment
        state.t[slot] = t[-1]
        m_corr, v_corr = np.repeat(_corrections(state, cfg, t), sizes, axis=2)
        # m and v side by side, (E, 2, S): one multiply-add per entry steps both
        decay, moments = np.array([[cfg.beta1], [cfg.beta2]]), np.empty((len(g), 2, g.shape[1]))
        np.multiply(1.0 - cfg.beta1, g, out=moments[:, 0])
        np.multiply(1.0 - cfg.beta2, g * g, out=moments[:, 1])
        mv = np.array((state.m[index], state.v[index]))
        for e in range(len(g)):
            stepped = decay * mv + moments[e]
            moments[e] = mv = stepped if keep is None else np.where(keep[e], stepped, mv)
        state.m[index], state.v[index] = mv
        ratio = (moments[:, 0] / m_corr) / (np.sqrt(moments[:, 1] / v_corr) + cfg.epsilon)
        step = (cfg.eta * elem_sigma) * ratio
        rho = np.maximum.reduceat(np.abs(ratio), offsets, axis=1)
        if dropped:
            step, rho = np.where(keep, step, 0.0), np.where(applied, rho, math.nan)
    elif row.base == "delayed_nesterov":
        # plain gradient steps; every buffer_period-th entry of a fragment the buffered
        # mean enters the velocity, an extra -eta*mu*v burst applies, the buffer resets
        velocity, acc, count = state.m[index], state.v[index], state.count[slot]
        step = cfg.eta * g
        for e in range(len(g)):
            acc, count = acc + g[e], count + 1
            burst = count >= cfg.buffer_period
            if burst.any():
                mask = np.repeat(burst, sizes)
                velocity = np.where(mask, cfg.mu * velocity + acc / np.repeat(count, sizes), velocity)
                step[e] = np.where(mask, step[e] + cfg.eta * cfg.mu * velocity, step[e])
                acc = np.where(mask, 0.0, acc)
                count[burst] = 0
        state.m[index], state.v[index], state.count[slot] = velocity, acc, count
    else:
        # Nesterov with the post-update velocity; mla extends the step by
        # tau*mu extra velocity applications ("project by tau*mu steps")
        velocity, velocities = state.m[index], np.empty_like(g)
        for e in range(len(g)):
            velocities[e] = velocity = cfg.mu * velocity + g[e]
        state.m[index] = velocity
        step = cfg.eta * (g + cfg.mu * velocities)
        if row.base == "mla":
            step = step + np.repeat(cfg.eta * ages * cfg.mu, sizes, axis=1) * velocities
    if row.base != "adam":
        rho = np.full(sigma.shape, math.nan)
    # the params before each entry, then after the last
    trail = np.subtract.accumulate(np.concatenate((params[index][None], step)), axis=0)
    params[index] = trail[-1]
    if before is not None:
        before[:] = params
        before[:, index] = trail[:-1]
    norm = np.maximum.reduceat(np.abs(step), offsets, axis=1)
    out = applied, sigma, rho, norm
    return tuple(column[0] for column in out) if grad.ndim == 1 else out
