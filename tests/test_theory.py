import json
import math

import numpy as np
import pytest

from stalelab.config import RunConfig
from stalelab.gate import StalenessGate, staleness_weight
from stalelab.harness import serialize_result
from stalelab.optim import OuterConfig
from stalelab.simulator import ApplyRecord, Trace, run_experiment
from stalelab.theory import TheoryInputs, audit_run, bound_terms, max_tau_sigma, trace_stats

INF = math.inf

# grid-search oracles (step 1e-3), frozen from high-precision evaluation
MAX_A02_NOCUT = 1.8393972058572117          # 5*exp(-1) at tau*=5
MAX_A02_CUT32 = 1.7417351227304483          # below the unconstrained peak: cosine < 1 there
MAX_A02_CUT3 = 0.6210764647658377           # cutoff truncates long before 1/alpha
ENVELOPE_CUT3 = 3.0 * math.exp(-0.6)        # tau_cut * exp(-alpha*tau_cut) = 1.6464349...


class TestMaxTauSigma:
    def test_unconstrained_peak(self):
        argmax, peak = max_tau_sigma(StalenessGate(0.2, INF))
        assert argmax == pytest.approx(5.0, abs=2e-3)
        assert peak == pytest.approx(MAX_A02_NOCUT, abs=1e-9)
        assert peak <= 1.0 / (math.e * 0.2) + 1e-12

    def test_cutoff_lowers_the_peak(self):
        argmax, peak = max_tau_sigma(StalenessGate(0.2, 32.0))
        assert peak == pytest.approx(MAX_A02_CUT32, abs=1e-9)
        assert peak < MAX_A02_NOCUT
        assert argmax < 5.0

    def test_tight_cutoff_truncates_first(self):
        # tau_cut < 1/alpha: the gate, not the exponential, limits tau*sigma
        _, peak = max_tau_sigma(StalenessGate(0.2, 3.0))
        assert peak == pytest.approx(MAX_A02_CUT3, abs=1e-9)
        assert peak <= ENVELOPE_CUT3
        assert peak <= 1.0 / (math.e * 0.2) + 1e-12

    @pytest.mark.parametrize("alpha", [0.025, 0.05, 0.1, 0.2, 0.4])
    @pytest.mark.parametrize("tau_cut", [32.0, INF])
    def test_bounded_by_closed_form(self, alpha, tau_cut):
        _, peak = max_tau_sigma(StalenessGate(alpha, tau_cut))
        assert peak <= 1.0 / (math.e * alpha) + 1e-12

    def test_flat_gate_rejected(self):
        with pytest.raises(ValueError):
            max_tau_sigma(StalenessGate(0.0, INF))

    def test_alpha_zero_with_cutoff_is_fine(self):
        argmax, peak = max_tau_sigma(StalenessGate(0.0, 8.0))
        assert 0.0 < argmax < 8.0
        assert peak <= 8.0


class TestBoundTerms:
    def fixture_inputs(self, horizon=100):
        return TheoryInputs(l_smooth=1.0, grad_bound=1.0, sigma_sq=1.0,
                            step_const=1.0, horizon=horizon, f_gap=1.0)

    def test_hand_computed_fixture(self):
        opt, noise, staleness = bound_terms(self.fixture_inputs(), alpha=0.2)
        assert opt == pytest.approx(0.1, abs=1e-12)
        assert noise == pytest.approx(0.05, abs=1e-12)
        assert staleness == pytest.approx(1.0 / (0.2 * math.e * 10.0), abs=1e-12)

    def test_quadrupling_horizon_halves_every_term(self):
        t1 = bound_terms(self.fixture_inputs(100), alpha=0.2)
        t4 = bound_terms(self.fixture_inputs(400), alpha=0.2)
        for a, b in zip(t1, t4):
            assert b == pytest.approx(a / 2.0, rel=1e-12)

    def test_doubling_alpha_halves_only_staleness_term(self):
        t1 = bound_terms(self.fixture_inputs(), alpha=0.2)
        t2 = bound_terms(self.fixture_inputs(), alpha=0.4)
        assert t2[0] == t1[0] and t2[1] == t1[1]
        assert t2[2] == pytest.approx(t1[2] / 2.0, rel=1e-12)

    def test_strictly_decreasing_in_horizon(self):
        prev = bound_terms(self.fixture_inputs(16), alpha=0.2)
        for horizon in (64, 256, 1024):
            cur = bound_terms(self.fixture_inputs(horizon), alpha=0.2)
            assert all(c < p for c, p in zip(cur, prev))
            prev = cur

    def test_inputs_validated(self):
        with pytest.raises(ValueError):
            TheoryInputs(l_smooth=0.0, grad_bound=1, sigma_sq=1, step_const=1, horizon=10, f_gap=1)
        with pytest.raises(ValueError):
            TheoryInputs(l_smooth=1, grad_bound=1, sigma_sq=1, step_const=1, horizon=0, f_gap=1)
        for name in ("l_smooth", "grad_bound", "sigma_sq", "step_const", "f_gap"):
            with pytest.raises(ValueError, match=rf"^{name} must be finite and > 0, got inf$"):
                TheoryInputs(**{**vars(self.fixture_inputs()), name: math.inf})
        with pytest.raises(ValueError):
            bound_terms(self.fixture_inputs(), alpha=0.0)


def make_record(sigma, rho, step_inf, **kw):
    """One ApplyRecord row as a tuple; rho None means no Adam ratio."""
    rec = dict(round=0, worker=0, produced_round=0, tau=0, age=0.0, fragment=0, applied=True,
               sigma=sigma, rho=math.nan if rho is None else rho, step_inf_norm=step_inf,
               grad_norm_sq=1.0, delta_norm_sq=1.0)
    rec.update(kw)
    return tuple(rec[name] for name in ApplyRecord.names)


class TestAuditRun:
    def synthetic_trace(self, eta=1e-3):
        records = np.array([
            make_record(1.0, 0.8, (eta * 1.0) * 0.8),
            make_record(0.5, 1.2, (eta * 0.5) * 1.2, tau=4, age=4.0),
            make_record(0.25, 0.9, (eta * 0.25) * 0.9 * 0.5, tau=8, age=8.0),
        ], dtype=ApplyRecord)
        return Trace(OuterConfig.for_method("cgad", eta=eta), records=records,
                     l_smooth=2.0, f_gap=3.0, exact_grad=True)

    def test_clean_trace_has_no_violations(self):
        report = audit_run(self.synthetic_trace())
        assert report["step_bound_violations"] == 0
        assert report["rho_max"] == 1.2
        assert report["rho_le_one_frac"] == pytest.approx(2.0 / 3.0)
        assert report["sigma_bar"] == pytest.approx((1.0 + 0.5 + 0.25) / 3.0)

    def test_inflated_step_is_flagged(self):
        trace = self.synthetic_trace()
        trace.records["step_inf_norm"][1] *= 1.0 + 1e-9
        assert audit_run(trace)["step_bound_violations"] == 1

    def test_tolerance_is_relative(self):
        trace = self.synthetic_trace()
        trace.records["step_inf_norm"][0] *= 1.0 + 1e-13  # inside 1e-12 relative
        assert audit_run(trace)["step_bound_violations"] == 0

    def test_missing_rho_is_structural_error(self):
        trace = self.synthetic_trace()
        trace.records["rho"][0] = math.nan
        with pytest.raises(ValueError, match="ratio"):
            audit_run(trace)

    def test_trace_stats_match_the_audit(self):
        report = audit_run(self.synthetic_trace())
        assert trace_stats(self.synthetic_trace().records) == (
            report["sigma_bar"], report["rho_max"], report["rho_le_one_frac"])

    def test_trace_stats_without_adam_ratios_or_records(self):
        records = np.array([make_record(0.5, None, 0.1), make_record(0.25, None, 0.1, applied=False)],
                           dtype=ApplyRecord)
        assert trace_stats(records) == (0.375, None, None)
        assert trace_stats(np.zeros(0, ApplyRecord)) == (None, None, None)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            audit_run(Trace(OuterConfig.for_method("cgad", eta=1e-3)))

    def test_weighted_grad_norm_and_bound_block(self):
        report = audit_run(self.synthetic_trace())
        records = self.synthetic_trace().records
        expected = np.mean(records["sigma"] * records["grad_norm_sq"])
        assert report["weighted_grad_norm_avg"] == pytest.approx(expected)
        bound = report["bound"]
        assert bound is not None
        assert bound["rhs"] == pytest.approx(
            bound["optimization_term"] + bound["noise_term"] + bound["staleness_term"])
        assert bound["cutoff_covers_argmax"] is True  # 32 >= 1/0.2

    def test_bound_block_follows_exact_grad_not_the_values(self):
        trace = self.synthetic_trace()
        trace.exact_grad = False
        report = audit_run(trace)
        assert report["weighted_grad_norm_avg"] is None and report["bound"] is None
        # params gone non-finite mid-round: the weighted norm is NaN, which strict JSON
        # cannot hold, so it reads null and no bound is built on it
        trace = self.synthetic_trace()
        trace.records["grad_norm_sq"] = [4.0, 9.0, math.nan]
        report = audit_run(trace)
        assert report["weighted_grad_norm_avg"] is None and report["bound"] is None

    @pytest.mark.parametrize("column", ["grad_norm_sq", "delta_norm_sq"])
    def test_no_bound_without_positive_estimates(self, column):
        trace = self.synthetic_trace()
        trace.records[column] = 0.0
        report = audit_run(trace)
        assert report["bound"] is None and report["step_bound_violations"] == 0


def quad_config(**overrides):
    raw = {
        "version": 1,
        "objective": {"kind": "quadratic", "dimension": 16, "spectrum_lo": 0.5,
                      "spectrum_hi": 4.0, "rotation_seed": 5, "noise_scale": 0.05},
        "workers": 2,
        "inner_steps": 4,
        "rounds": 32,
        "batch_size": 8,
        "eval_batch_size": 32,
        "method": "cgad",
        "delay": {"kind": "fixed", "tau": 0},
        "master_seed": 21,
    }
    raw.update(overrides)
    return RunConfig.from_dict(raw)


class TestAuditOnRealRuns:
    def test_sigma_bar_one_at_tau_zero(self):
        report = audit_run(run_experiment(quad_config()).trace)
        assert report["sigma_bar"] == 1.0
        assert report["step_bound_violations"] == 0

    def test_sigma_bar_exact_for_fixed_tau(self):
        gate = StalenessGate(0.2, 32.0)
        report = audit_run(run_experiment(quad_config(delay={"kind": "fixed", "tau": 6})).trace)
        assert report["sigma_bar"] == staleness_weight(6.0, gate)

    def test_quadratic_run_satisfies_bound(self):
        # consistency check with exact L and F_gap, empirical sup-estimates for G, sigma^2
        report = audit_run(run_experiment(quad_config(rounds=128,
                                                      delay={"kind": "fixed", "tau": 4})).trace)
        bound = report["bound"]
        assert bound is not None
        assert bound["holds"], f"lhs {bound['lhs']} vs rhs {bound['rhs']}"

    def test_pseudo_gradients_below_float_resolution_audit_without_a_bound(self):
        # every inner step rounds away, so every delta and the sigma^2 estimate are exactly 0
        res = run_experiment(quad_config(rounds=8, inner={"lr": 1e-20}))
        assert not res.diverged and res.applied_updates > 0
        assert res.theory["weighted_grad_norm_avg"] > 0.0 and res.theory["bound"] is None

    @pytest.mark.parametrize("overrides", [
        {"outer": {"eta": 1e300}},  # the outer step overflows: G and the weighted norm are inf
        {"outer": {"eta": 1e308}, "delay": {"kind": "fixed", "tau": 40}, "rounds": 48},  # all dropped; c is inf
    ])
    def test_an_infinite_bound_constant_audits_without_a_bound(self, overrides):
        with np.errstate(over="ignore", invalid="ignore"):
            res = run_experiment(quad_config(**overrides))
        assert res.theory["step_bound_violations"] == 0 and res.theory["bound"] is None

        def reject(token):
            raise ValueError(f"non-finite token {token} in the result JSON")

        # strict JSON readers reject Infinity and NaN; a diverged run's file must still parse
        json.loads(serialize_result(res), parse_constant=reject)

    def test_rho_frequency_is_measured_not_assumed(self):
        report = audit_run(run_experiment(quad_config(rounds=64)).trace)
        assert 0.0 <= report["rho_le_one_frac"] <= 1.0
        assert report["rho_max"] > 0.0
