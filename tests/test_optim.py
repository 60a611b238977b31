import math

import numpy as np
import pytest

from stalelab.gate import StalenessGate, staleness_weight
from stalelab.optim import (
    METHOD_TABLE,
    AdamMoments,
    DelayedNesterovState,
    InnerConfig,
    NesterovVelocity,
    OuterConfig,
    cgad_step,
    delayed_nesterov_step,
    eager_step,
    init_outer_state,
    inner_adamw_step,
    mla_step,
    nesterov_step,
    outer_step,
)
from stalelab.verify import reference_adam

INF = math.inf

# frozen single-step oracle: -eta/(1+eps) for eta=1e-3, eps=1e-8
CGAD_FIRST_STEP = -0.0009999999900000003
# same shape for the inner optimizer at lr=3e-4
INNER_FIRST_STEP = -0.00029999999700000004


class TestCgadStep:
    def test_single_step_hand_oracle(self):
        cfg = OuterConfig.for_method("cgad")
        params = np.zeros(1)
        p, state, info = cgad_step(params, np.ones(1), 0.0, AdamMoments.zeros(1), cfg)
        assert state.m[0] == pytest.approx(0.1, rel=1e-12)
        assert state.v[0] == pytest.approx(0.05, rel=1e-12)
        assert state.t == 1
        assert p[0] == pytest.approx(CGAD_FIRST_STEP, abs=1e-18)
        assert info.applied and info.sigma == 1.0

    def test_past_cutoff_drops_everything(self):
        cfg = OuterConfig.for_method("cgad")
        rng = np.random.default_rng(1)
        params = rng.standard_normal(8)
        state = AdamMoments(m=rng.standard_normal(8), v=np.abs(rng.standard_normal(8)), t=7)
        p, s, info = cgad_step(params, rng.standard_normal(8), 33.0, state, cfg)
        assert p is params and s is state and s.t == 7
        assert not info.applied and info.sigma == 0.0

    def test_adam_decay_is_cgad_with_infinite_cutoff(self):
        rng = np.random.default_rng(3)
        cgad_cfg = OuterConfig.for_method("cgad", tau_cut=INF)
        decay_cfg = OuterConfig.for_method("adam_decay")
        p1 = p2 = rng.standard_normal(16)
        s1, s2 = AdamMoments.zeros(16), AdamMoments.zeros(16)
        for _ in range(50):
            g = rng.standard_normal(16)
            tau = float(rng.integers(0, 40))
            p1, s1, _ = cgad_step(p1, g, tau, s1, cgad_cfg)
            p2, s2, _ = cgad_step(p2, g, tau, s2, decay_cfg)
        assert np.array_equal(p1, p2) and s1.t == s2.t

    def test_method_adam_ignores_staleness(self):
        rng = np.random.default_rng(4)
        cfg = OuterConfig.for_method("adam")
        p = rng.standard_normal(8)
        s = AdamMoments.zeros(8)
        g = rng.standard_normal(8)
        p1, s1, info = cgad_step(p, g, 100.0, s, cfg)
        p2, s2, _ = cgad_step(p, g, 0.0, s, cfg)
        assert np.array_equal(p1, p2) and info.sigma == 1.0

    def test_step_norm_identity(self):
        # ||step||_inf equals eta*sigma*rho at the maximizing coordinate
        cfg = OuterConfig.for_method("cgad")
        rng = np.random.default_rng(5)
        p = rng.standard_normal(32)
        s = AdamMoments.zeros(32)
        for tau in (0.0, 4.0, 16.0, 31.0):
            g = rng.standard_normal(32)
            p_new, s, info = cgad_step(p, g, tau, s, cfg)
            bound = (cfg.eta * info.sigma) * info.rho
            assert info.step_inf_norm <= bound * (1 + 1e-12)
            assert info.step_inf_norm == pytest.approx(bound, rel=1e-12)
            p = p_new

    def test_gate_placement_after_keeps_moments_raw(self):
        gate = StalenessGate(0.2, 32.0)
        before = OuterConfig.for_method("cgad", gate_placement="before")
        after = OuterConfig.for_method("cgad", gate_placement="after")
        g = np.array([2.0, -1.0])
        tau = 8.0
        sigma = staleness_weight(tau, gate)
        _, s_after, info_after = cgad_step(np.zeros(2), g, tau, AdamMoments.zeros(2), after)
        _, s_before, _ = cgad_step(np.zeros(2), g, tau, AdamMoments.zeros(2), before)
        np.testing.assert_array_equal(s_after.m, (1 - after.beta1) * g)
        np.testing.assert_array_equal(s_before.m, (1 - before.beta1) * (sigma * g))
        # final scaling by sigma applies in both placements
        assert info_after.sigma == sigma

    def test_placements_agree_at_tau_zero(self):
        rng = np.random.default_rng(6)
        p = rng.standard_normal(8)
        g = rng.standard_normal(8)
        out = {}
        for placement in ("before", "after"):
            cfg = OuterConfig.for_method("cgad", gate_placement=placement)
            out[placement], _, _ = cgad_step(p, g, 0.0, AdamMoments.zeros(8), cfg)
        assert np.array_equal(out["before"], out["after"])

    def test_shape_mismatch_is_structural_error(self):
        cfg = OuterConfig.for_method("cgad")
        with pytest.raises(ValueError, match="shape"):
            cgad_step(np.zeros(3), np.zeros(4), 0.0, AdamMoments.zeros(3), cfg)

    def test_negative_tau_rejected(self):
        cfg = OuterConfig.for_method("cgad")
        with pytest.raises(ValueError):
            cgad_step(np.zeros(2), np.zeros(2), -1.0, AdamMoments.zeros(2), cfg)


class TestNesterovFamily:
    def test_single_step_oracle(self):
        cfg = OuterConfig.for_method("nesterov")
        p, v, _ = nesterov_step(np.zeros(1), np.ones(1), NesterovVelocity.zeros(1), cfg)
        assert v.v[0] == 1.0
        assert p[0] == pytest.approx(-0.7 * 1.9, abs=1e-16)

    def test_two_steps_oracle(self):
        cfg = OuterConfig.for_method("nesterov")
        p, v, _ = nesterov_step(np.zeros(1), np.ones(1), NesterovVelocity.zeros(1), cfg)
        p, v, _ = nesterov_step(p, np.ones(1), v, cfg)
        assert v.v[0] == pytest.approx(1.9, abs=0)
        assert (p[0] - (-0.7 * 1.9)) == pytest.approx(-0.7 * (1 + 0.9 * 1.9), abs=1e-15)

    def test_zero_momentum_is_sgd(self):
        cfg = OuterConfig.for_method("nesterov", mu=0.0)
        g = np.array([0.5, -2.0])
        p, _, _ = nesterov_step(np.zeros(2), g, NesterovVelocity.zeros(2), cfg)
        np.testing.assert_array_equal(p, -cfg.eta * g)

    def test_linearity_in_grad_scale(self):
        cfg = OuterConfig.for_method("nesterov")
        rng = np.random.default_rng(7)
        g = rng.standard_normal(8)
        p1, v1, _ = nesterov_step(np.zeros(8), 3.0 * g, NesterovVelocity.zeros(8), cfg)
        p2, v2, _ = nesterov_step(np.zeros(8), g, NesterovVelocity.zeros(8), cfg)
        np.testing.assert_allclose(p1, 3.0 * p2, rtol=1e-15)
        np.testing.assert_allclose(v1.v, 3.0 * v2.v, rtol=1e-15)

    def test_sdm_scales_grad_by_exponential(self):
        cfg = OuterConfig.for_method("sdm")
        rng = np.random.default_rng(8)
        g = rng.standard_normal(4)
        p1, _, info = outer_step(np.zeros(4), g, 5.0, NesterovVelocity.zeros(4), cfg)
        p2, _, _ = nesterov_step(np.zeros(4), math.exp(-1.0) * g, NesterovVelocity.zeros(4), cfg)
        assert np.array_equal(p1, p2)
        assert info.sigma == math.exp(-1.0)

    def test_sdm_tau_zero_is_nesterov(self):
        cfg = OuterConfig.for_method("sdm")
        g = np.array([1.0, -2.0])
        p1, _, _ = outer_step(np.zeros(2), g, 0.0, NesterovVelocity.zeros(2), cfg)
        p2, _, _ = nesterov_step(np.zeros(2), g, NesterovVelocity.zeros(2), cfg)
        assert np.array_equal(p1, p2)

    def test_sdm_alpha_zero_is_nesterov_at_any_tau(self):
        cfg = OuterConfig.for_method("sdm", alpha=0.0)
        g = np.array([1.0, -2.0])
        for tau in (0.0, 7.0, 100.0):
            p1, _, _ = outer_step(np.zeros(2), g, tau, NesterovVelocity.zeros(2), cfg)
            p2, _, _ = nesterov_step(np.zeros(2), g, NesterovVelocity.zeros(2), cfg)
            assert np.array_equal(p1, p2)

    @pytest.mark.parametrize("tau,scale", [(0.0, 1.0), (3.0, 0.5), (15.0, 0.25)])
    def test_poly_decay_scales(self, tau, scale):
        cfg = OuterConfig.for_method("poly_decay")
        g = np.array([2.0, -4.0])
        p1, _, info = outer_step(np.zeros(2), g, tau, NesterovVelocity.zeros(2), cfg)
        p2, _, _ = nesterov_step(np.zeros(2), scale * g, NesterovVelocity.zeros(2), cfg)
        assert np.array_equal(p1, p2)
        assert info.sigma == scale

    def test_mla_tau_zero_is_nesterov(self):
        cfg = OuterConfig.for_method("mla")
        g = np.array([1.0, -0.5])
        p1, _, _ = mla_step(np.zeros(2), g, 0.0, NesterovVelocity.zeros(2), cfg)
        p2, _, _ = nesterov_step(np.zeros(2), g, NesterovVelocity.zeros(2), cfg)
        assert np.array_equal(p1, p2)

    def test_mla_mu_zero_is_sgd_at_any_tau(self):
        cfg = OuterConfig.for_method("mla", mu=0.0)
        g = np.array([1.0, -0.5])
        for tau in (0.0, 2.0, 9.0):
            p, _, _ = mla_step(np.zeros(2), g, tau, NesterovVelocity.zeros(2), cfg)
            np.testing.assert_array_equal(p, -cfg.eta * g)

    def test_mla_extrapolation_oracle(self):
        cfg = OuterConfig.for_method("mla")
        p, v, _ = mla_step(np.zeros(1), np.ones(1), 2.0, NesterovVelocity.zeros(1), cfg)
        assert v.v[0] == 1.0
        assert p[0] == pytest.approx(-0.7 * 1.9 - 0.7 * 2 * 0.9, abs=1e-15)


class TestDelayedNesterov:
    def test_period_one_behaves_like_nesterov(self):
        cfg = OuterConfig.for_method("delayed_nesterov", buffer_period=1)
        ref_cfg = OuterConfig.for_method("nesterov")
        rng = np.random.default_rng(9)
        p1 = p2 = np.zeros(4)
        s1 = DelayedNesterovState.zeros(4)
        v2 = NesterovVelocity.zeros(4)
        for _ in range(5):
            g = rng.standard_normal(4)
            p1, s1, _ = delayed_nesterov_step(p1, g, s1, cfg)
            p2, v2, _ = nesterov_step(p2, g, v2, ref_cfg)
            np.testing.assert_allclose(p1, p2, rtol=1e-12, atol=1e-15)
            np.testing.assert_array_equal(s1.velocity.v, v2.v)

    def test_buffer_state_machine(self):
        cfg = OuterConfig.for_method("delayed_nesterov", buffer_period=4)
        state = DelayedNesterovState.zeros(2)
        p = np.zeros(2)
        g = np.array([1.0, 2.0])
        for step in range(1, 4):
            p, state, _ = delayed_nesterov_step(p, g, state, cfg)
            assert state.buffer.count == step
            np.testing.assert_array_equal(state.velocity.v, np.zeros(2))
            # plain gradient steps only, no momentum yet
            np.testing.assert_allclose(p, -cfg.eta * step * g, rtol=1e-15)
        p, state, _ = delayed_nesterov_step(p, g, state, cfg)
        assert state.buffer.count == 0
        assert state.buffer.rounds_since_burst == 0
        np.testing.assert_array_equal(state.buffer.accumulated, np.zeros(2))
        # burst folded the buffered mean (= g here) into the velocity
        np.testing.assert_allclose(state.velocity.v, g, rtol=1e-15)

    def test_burst_applies_momentum_kick(self):
        cfg = OuterConfig.for_method("delayed_nesterov", buffer_period=2)
        state = DelayedNesterovState.zeros(1)
        p = np.zeros(1)
        g = np.ones(1)
        p, state, _ = delayed_nesterov_step(p, g, state, cfg)
        before = p.copy()
        p, state, _ = delayed_nesterov_step(p, g, state, cfg)
        # burst round: -eta*g plus -eta*mu*v with v = mean of two grads = 1
        assert (p - before)[0] == pytest.approx(-0.7 - 0.7 * 0.9, abs=1e-15)


class TestEagerMixing:
    def test_single_worker_collapses(self):
        own = np.array([0.3, -0.7])
        mixed = eager_step(own, own.copy(), own.copy(), 1)
        np.testing.assert_allclose(mixed, own, rtol=1e-15)

    def test_unchanged_delta_returns_previous_average(self):
        own = np.array([0.3, -0.7])
        prev_avg = np.array([1.0, 2.0])
        np.testing.assert_array_equal(eager_step(own, own, prev_avg, 4), prev_avg)

    def test_mixing_formula(self):
        own = np.array([4.0])
        prev_own = np.array([2.0])
        prev_avg = np.array([1.0])
        assert eager_step(own, prev_own, prev_avg, 2)[0] == pytest.approx(2.0, abs=0)

    def test_worker_count_validated(self):
        with pytest.raises(ValueError):
            eager_step(np.zeros(1), np.zeros(1), np.zeros(1), 0)


class TestInnerAdamW:
    def test_zero_weight_decay_is_plain_adam(self):
        rng = np.random.default_rng(10)
        params = rng.standard_normal(8)
        grads = [rng.standard_normal(8) for _ in range(10)]
        cfg = InnerConfig()
        p = params.copy()
        s = AdamMoments.zeros(8)
        for g in grads:
            p, s = inner_adamw_step(p, g, s, cfg)
        ref = reference_adam(params, grads, cfg.lr, cfg.beta1, cfg.beta2, cfg.epsilon)
        assert np.array_equal(p, ref)

    def test_single_step_oracle(self):
        p, s = inner_adamw_step(np.zeros(1), np.ones(1), AdamMoments.zeros(1), InnerConfig())
        assert p[0] == pytest.approx(INNER_FIRST_STEP, abs=1e-19)
        assert s.t == 1

    def test_zero_grad_from_fresh_state_moves_nothing(self):
        p, s = inner_adamw_step(np.full(3, 2.0), np.zeros(3), AdamMoments.zeros(3), InnerConfig())
        np.testing.assert_array_equal(p, np.full(3, 2.0))
        assert s.t == 1

    def test_moments_decay_geometrically_on_zero_grad(self):
        cfg = InnerConfig()
        _, s = inner_adamw_step(np.zeros(1), np.ones(1), AdamMoments.zeros(1), cfg)
        m1 = s.m[0]
        p, s = inner_adamw_step(np.zeros(1), np.zeros(1), s, cfg)
        assert s.m[0] == pytest.approx(cfg.beta1 * m1, abs=0)
        assert p[0] != 0.0  # momentum keeps moving even with zero grad

    def test_weight_decay_shrinks_params(self):
        cfg = InnerConfig(weight_decay=0.1)
        p, _ = inner_adamw_step(np.full(1, 4.0), np.zeros(1), AdamMoments.zeros(1), cfg)
        assert p[0] == pytest.approx(4.0 * (1 - cfg.lr * 0.1), abs=1e-15)


class TestMethodTable:
    def test_rows_take_known_values(self):
        for row in METHOD_TABLE.values():
            assert row.base in ("adam", "nesterov", "delayed_nesterov", "mla")
            assert row.weight in ("cos_exp", "exp", "poly", "one")
            assert row.age in ("tau", "fragment") and row.premix in ("none", "eager")

    def test_gate_follows_the_weight(self):
        gates = {m: OuterConfig.for_method(m, alpha=0.3, tau_cut=9.0).gate for m in METHOD_TABLE}
        assert gates["cgad"] == StalenessGate(0.3, 9.0)
        assert gates["adam_decay"] == gates["sdm"] == StalenessGate(0.3, INF)
        assert gates["adam"] == gates["poly_decay"] == gates["nesterov"] == StalenessGate(0.0, INF)


class TestOuterDispatch:
    @pytest.mark.parametrize("method", ["cgad", "pa_cgad", "adam", "adam_decay",
                                        "nesterov", "sdm", "poly_decay",
                                        "delayed_nesterov", "eager", "mla"])
    def test_every_method_steps(self, method):
        cfg = OuterConfig.for_method(method)
        state = init_outer_state(method, 4)
        rng = np.random.default_rng(11)
        p, state, info = outer_step(np.zeros(4), rng.standard_normal(4), 1.0, state, cfg)
        assert p.shape == (4,)
        assert info.applied

    def test_cgad_and_adam_share_kernel_at_tau_zero(self):
        rng = np.random.default_rng(12)
        grads = [rng.standard_normal(8) for _ in range(20)]
        outs = {}
        for method in ("cgad", "adam"):
            cfg = OuterConfig.for_method(method)
            p = np.zeros(8)
            s = init_outer_state(method, 8)
            for g in grads:
                p, s, _ = outer_step(p, g, 0.0, s, cfg)
            outs[method] = p
        assert np.array_equal(outs["cgad"], outs["adam"])


class TestOuterConfigValidation:
    def test_beta1_one_rejected(self):
        with pytest.raises(ValueError, match="beta1"):
            OuterConfig.for_method("cgad", beta1=1.0)

    def test_eta_positive(self):
        with pytest.raises(ValueError, match="eta"):
            OuterConfig.for_method("cgad", eta=0.0)

    def test_mu_range(self):
        with pytest.raises(ValueError, match="mu"):
            OuterConfig.for_method("nesterov", mu=1.0)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            OuterConfig(method="sgd", eta=0.1)

    def test_buffer_period(self):
        with pytest.raises(ValueError, match="buffer_period"):
            OuterConfig.for_method("delayed_nesterov", buffer_period=0)

    def test_defaults_match_published_recipes(self):
        cgad = OuterConfig.for_method("cgad")
        assert (cgad.gate.alpha, cgad.gate.tau_cut) == (0.2, 32.0)
        assert (cgad.eta, cgad.beta1, cgad.beta2, cgad.epsilon) == (1e-3, 0.9, 0.95, 1e-8)
        nest = OuterConfig.for_method("nesterov")
        assert (nest.eta, nest.mu) == (0.7, 0.9)
