"""Self-contained property suite behind the `verify` CLI subcommand.

Each check exercises one contract the rest of the lab leans on: gate
identities, the plain-Adam reduction, drop totality, run determinism,
the step-norm audit, quantization round-trips, and gradient correctness.
All checks are fast enough to run on every build; the acceptance and unit
tests call the same checks with their own seeds and sizes.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from .config import RunConfig
from .gate import StalenessGate, gate_curve, staleness_weight
from .harness import serialize_result
from .objective import MlpRegressionObjective, QuadraticObjective, finite_diff_check
from .optim import Fragments, OuterConfig, OuterState, outer_step
from .simulator import dequantize_payload, quantize_payload, run_experiment
from .theory import audit_run, max_tau_sigma

__all__ = ["run_all_checks", "ALL_CHECKS"]

VERIFY_ALPHAS = (0.025, 0.05, 0.1, 0.2, 0.4)


def check_gate_identities():
    for alpha in VERIFY_ALPHAS:
        g = StalenessGate(alpha, 32.0)
        if staleness_weight(0.0, g) != 1.0:
            return False, f"sigma(0) != 1 at alpha={alpha}"
        if staleness_weight(32.0, g) != 0.0 or staleness_weight(33.0, g) != 0.0:
            return False, f"sigma not exactly 0 at/past the cutoff at alpha={alpha}"
        taus = np.arange(0.0, 64.0 + 1e-2, 1e-2)
        curve = gate_curve(g, taus)
        if np.any(curve < 0.0) or np.any(curve > 1.0):
            return False, f"sigma left [0,1] at alpha={alpha}"
        if np.any(np.diff(curve) > 1e-15):
            return False, f"sigma not nonincreasing at alpha={alpha}"
        _, peak = max_tau_sigma(g)
        limit = 1.0 / (math.e * alpha)
        if peak > limit + 1e-12:
            return False, f"max tau*sigma {peak} exceeds 1/(e*alpha) {limit} at alpha={alpha}"
    flat = StalenessGate(0.0, math.inf)
    if any(staleness_weight(t, flat) != 1.0 for t in (0.0, 1.0, 7.5, 1000.0)):
        return False, "alpha=0 with no cutoff is not identically 1"
    return True, f"identities hold for alpha in {VERIFY_ALPHAS}"


def reference_adam(params, grads, eta, beta1, beta2, eps):
    """Textbook Adam with bias correction, kept independent of the kernels."""
    p = params.copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * (g * g)
        ratio = (m / (1.0 - beta1**t)) / (np.sqrt(v / (1.0 - beta2**t)) + eps)
        p = p - eta * ratio
    return p


def check_adam_reduction(seed=7, dim=16):
    rng = np.random.default_rng(seed)
    params = rng.standard_normal(dim)
    grads = [rng.standard_normal(dim) for _ in range(100)]
    cfg = OuterConfig.for_method("cgad")
    state = OuterState.zeros([dim])
    whole = state.fragments.select([0])
    p = params.copy()
    for g in grads:
        outer_step(p, g, [0.0], state, cfg, whole)
    ref = reference_adam(params, grads, cfg.eta, cfg.beta1, cfg.beta2, cfg.epsilon)
    if not np.array_equal(p, ref):
        return False, f"100 tau=0 steps drifted from plain Adam by {np.max(np.abs(p - ref))}"
    return True, "100 tau=0 steps bit-identical to plain Adam"


def check_drop_totality():
    rng = np.random.default_rng(11)
    cfg = OuterConfig.for_method("cgad")
    p = rng.standard_normal(8)
    state = OuterState.zeros([4, 4])
    first, both = state.fragments.select([0]), state.fragments.select([0, 1])
    outer_step(p, rng.standard_normal(8), [0.0, 0.0], state, cfg, both)
    p_ref, state_ref = p.copy(), copy.deepcopy(state)

    # fragment 0 is past tau_cut and drops while fragment 1 steps
    applied, *_ = outer_step(p, rng.standard_normal(8), [33.0, 0.0], state, cfg, both)
    kept = all(a[:4].tobytes() == b[:4].tobytes()
               for a, b in ((p, p_ref), (state.m, state_ref.m), (state.v, state_ref.v)))
    if applied[0] or not kept or state.t[0] != state_ref.t[0]:
        return False, "a dropped update touched params or state"
    if not applied[1] or np.array_equal(p[4:], p_ref[4:]) or state.t[1] != state_ref.t[1] + 1:
        return False, "the fragment beside a dropped one did not step"
    fresh = rng.standard_normal(8)
    outer_step(p, fresh, [0.0], state, cfg, first)
    outer_step(p_ref, fresh, [0.0], state_ref, cfg, first)
    if not (np.array_equal(p[:4], p_ref[:4]) and state.t[0] == state_ref.t[0]
            and np.array_equal(state.m[:4], state_ref.m[:4]) and np.array_equal(state.v[:4], state_ref.v[:4])):
        return False, "a step after a drop differs from the no-drop step"
    return True, "dropped updates change nothing, including the step counter, while a sibling steps"


def _small_config(delay=None, rounds=20):
    return RunConfig.from_dict({
        "version": 1,
        "objective": {"kind": "quadratic", "dimension": 12, "spectrum_lo": 0.5,
                      "spectrum_hi": 4.0, "rotation_seed": 5, "noise_scale": 0.05},
        "workers": 2,
        "inner_steps": 4,
        "rounds": rounds,
        "batch_size": 8,
        "eval_batch_size": 32,
        "method": "cgad",
        "delay": delay or {"kind": "fixed", "tau": 0},
        "quantize_queue": False,
        "master_seed": 321,
    })


def check_determinism():
    cfg = _small_config(delay={"kind": "uniform_int", "lo": 0, "hi": 6})
    first = serialize_result(run_experiment(cfg))
    second = serialize_result(run_experiment(_small_config(delay={"kind": "uniform_int", "lo": 0, "hi": 6})))
    if first != second:
        return False, "two runs of the same config serialized differently"
    return True, "repeated run serialized byte-identically"


def check_step_norm_audit():
    cfg = _small_config(delay={"kind": "fixed", "tau": 4}, rounds=64)
    result = run_experiment(cfg)
    report = audit_run(result.trace)
    if report["step_bound_violations"] != 0:
        return False, f"{report['step_bound_violations']} step-norm bound violations"
    return True, (f"0 violations over {report['applied_steps']} steps; "
                  f"rho<=1 in {report['rho_le_one_frac']:.1%} of them")


def check_quantization(seed=23, trials=1000, exponents=(-3, 3)):
    rng = np.random.default_rng(seed)
    fragments = Fragments.even_split(64, 4)
    for trial in range(trials):
        grad = rng.standard_normal(64) * 10.0 ** rng.integers(*exponents)
        qp = quantize_payload(grad, fragments)
        err = np.abs(dequantize_payload(qp, fragments) - grad)
        if np.any(err > np.repeat(qp.scales, fragments.sizes) / 2.0 + 1e-15):
            return False, f"round-trip error {np.max(err)} above half a scale on trial {trial}"
    for exact in (np.zeros(64), np.array([127.0, -64.0, 3.0, -127.0])):  # all zero; scale 1.0 exactly
        single = Fragments.even_split(exact.size, 1)
        if np.any(dequantize_payload(quantize_payload(exact, single), single) != exact):
            return False, f"{exact} did not round-trip exactly"
    return True, f"{trials} random payloads within half a scale per element; zero and +-127 endpoint exact"


def check_gradients(quad=None, mlp=None, draws=3, seed=31):
    quad = quad or QuadraticObjective(dimension=10, spectrum_lo=0.5, spectrum_hi=5.0, rotation_seed=2)
    mlp = mlp or MlpRegressionObjective(layer_sizes=[4, 8, 1], teacher_seed=3)
    rng = np.random.default_rng(seed)
    worst_quad = worst_mlp = 0.0
    for _ in range(draws):
        params = rng.standard_normal(quad.dim)
        batch = quad.draw_batch(rng, 8)
        ok, err = finite_diff_check(quad, params, batch, 1e-8)
        if not ok:
            return False, f"quadratic gradient check failed with error {err}"
        worst_quad = max(worst_quad, err)
        params = mlp.init_params(int(rng.integers(1 << 30)))
        batch = mlp.draw_batch(rng, 8)
        ok, err = finite_diff_check(mlp, params, batch, 1e-5)
        if not ok:
            return False, f"mlp gradient check failed with error {err}"
        worst_mlp = max(worst_mlp, err)
    return True, (f"quadratic worst {worst_quad:.2e} < 1e-8, mlp worst {worst_mlp:.2e} < 1e-5 "
                  f"of central differences over {draws} draws each")


ALL_CHECKS = [
    ("gate identities", check_gate_identities),
    ("plain-Adam reduction", check_adam_reduction),
    ("drop totality", check_drop_totality),
    ("run determinism", check_determinism),
    ("step-norm audit", check_step_norm_audit),
    ("int8 queue round-trip", check_quantization),
    ("gradient correctness", check_gradients),
]


def run_all_checks(log=print) -> bool:
    all_ok = True
    for name, fn in ALL_CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:  # noqa: BLE001 - report, don't crash the suite
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok = all_ok and ok
        log(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return all_ok
