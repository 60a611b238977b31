import copy
import math

import numpy as np
import pytest

from stalelab.gate import StalenessGate, staleness_weight
from stalelab.optim import (
    METHOD_TABLE,
    METHODS,
    AdamMoments,
    InnerConfig,
    OuterConfig,
    OuterState,
    eager_step,
    inner_adamw_step,
    outer_step,
)
from stalelab.verify import reference_adam

INF = math.inf

# frozen single-step oracle: -eta/(1+eps) for eta=1e-3, eps=1e-8
CGAD_FIRST_STEP = -0.0009999999900000003
# same shape for the inner optimizer at lr=3e-4
INNER_FIRST_STEP = -0.00029999999700000004


def step(params, grad, tau, state, cfg):
    """One-fragment outer step, in place: that fragment's (applied, sigma, rho, step_inf_norm)."""
    applied, sigma, rho, norm = outer_step(params, grad, [tau], state, cfg, state.fragments.select([0]))
    return applied[0], sigma[0], rho[0], norm[0]


def stepped(method, grad, tau=0.0, params=None, **overrides):
    """Params after one step from fresh state."""
    p = np.zeros(grad.shape) if params is None else params.copy()
    step(p, grad, tau, OuterState.zeros([grad.size]), OuterConfig.for_method(method, **overrides))
    return p


class TestCgadStep:
    def test_single_step_hand_oracle(self):
        cfg = OuterConfig.for_method("cgad")
        params = np.zeros(1)
        state = OuterState.zeros([1])
        applied, sigma, _, _ = step(params, np.ones(1), 0.0, state, cfg)
        assert state.m[0] == pytest.approx(0.1, rel=1e-12)
        assert state.v[0] == pytest.approx(0.05, rel=1e-12)
        assert state.t[0] == 1
        assert params[0] == pytest.approx(CGAD_FIRST_STEP, abs=1e-18)
        assert applied and sigma == 1.0

    def test_past_cutoff_drops_everything(self):
        cfg = OuterConfig.for_method("cgad")
        rng = np.random.default_rng(1)
        params = rng.standard_normal(8)
        state = OuterState.zeros([8])
        state.m[:], state.v[:], state.t[0] = rng.standard_normal(8), np.abs(rng.standard_normal(8)), 7
        before = [params.tobytes(), state.m.tobytes(), state.v.tobytes()]
        applied, sigma, rho, norm = step(params, rng.standard_normal(8), 33.0, state, cfg)
        assert [params.tobytes(), state.m.tobytes(), state.v.tobytes()] == before and state.t[0] == 7
        assert not applied and sigma == 0.0 and math.isnan(rho) and norm == 0.0

    def test_adam_decay_is_cgad_with_infinite_cutoff(self):
        rng = np.random.default_rng(3)
        cgad_cfg = OuterConfig.for_method("cgad", tau_cut=INF)
        decay_cfg = OuterConfig.for_method("adam_decay")
        p1 = rng.standard_normal(16)
        p2 = p1.copy()
        s1, s2 = OuterState.zeros([16]), OuterState.zeros([16])
        for _ in range(50):
            g = rng.standard_normal(16)
            tau = float(rng.integers(0, 40))
            step(p1, g, tau, s1, cgad_cfg)
            step(p2, g, tau, s2, decay_cfg)
        assert np.array_equal(p1, p2) and s1.t[0] == s2.t[0]

    def test_method_adam_ignores_staleness(self):
        rng = np.random.default_rng(4)
        p = rng.standard_normal(8)
        g = rng.standard_normal(8)
        sigma = step(p.copy(), g, 100.0, OuterState.zeros([8]), OuterConfig.for_method("adam"))[1]
        assert np.array_equal(stepped("adam", g, 100.0, p), stepped("adam", g, 0.0, p))
        assert sigma == 1.0

    def test_step_norm_identity(self):
        # ||step||_inf equals eta*sigma*rho at the maximizing coordinate
        cfg = OuterConfig.for_method("cgad")
        rng = np.random.default_rng(5)
        p = rng.standard_normal(32)
        s = OuterState.zeros([32])
        for tau in (0.0, 4.0, 16.0, 31.0):
            _, sigma, rho, norm = step(p, rng.standard_normal(32), tau, s, cfg)
            bound = (cfg.eta * sigma) * rho
            assert norm <= bound * (1 + 1e-12)
            assert norm == pytest.approx(bound, rel=1e-12)

    def test_gate_placement_after_keeps_moments_raw(self):
        gate = StalenessGate(0.2, 32.0)
        before = OuterConfig.for_method("cgad", gate_placement="before")
        after = OuterConfig.for_method("cgad", gate_placement="after")
        g = np.array([2.0, -1.0])
        tau = 8.0
        sigma = staleness_weight(tau, gate)
        s_after, s_before = OuterState.zeros([2]), OuterState.zeros([2])
        _, sigma_after, _, _ = step(np.zeros(2), g, tau, s_after, after)
        step(np.zeros(2), g, tau, s_before, before)
        np.testing.assert_array_equal(s_after.m, (1 - after.beta1) * g)
        np.testing.assert_array_equal(s_before.m, (1 - before.beta1) * (sigma * g))
        # final scaling by sigma applies in both placements
        assert sigma_after == sigma

    def test_placements_agree_at_tau_zero(self):
        rng = np.random.default_rng(6)
        p = rng.standard_normal(8)
        g = rng.standard_normal(8)
        out = {placement: stepped("cgad", g, 0.0, p, gate_placement=placement)
               for placement in ("before", "after")}
        assert np.array_equal(out["before"], out["after"])

    def test_shape_mismatch_is_structural_error(self):
        cfg = OuterConfig.for_method("cgad")
        with pytest.raises(ValueError, match="shape"):
            step(np.zeros(3), np.zeros(4), 0.0, OuterState.zeros([3]), cfg)

    def test_negative_tau_rejected(self):
        cfg = OuterConfig.for_method("cgad")
        with pytest.raises(ValueError):
            step(np.zeros(2), np.zeros(2), -1.0, OuterState.zeros([2]), cfg)


class TestNesterovFamily:
    def test_single_step_oracle(self):
        cfg = OuterConfig.for_method("nesterov")
        p, s = np.zeros(1), OuterState.zeros([1])
        step(p, np.ones(1), 0.0, s, cfg)
        assert s.m[0] == 1.0
        assert p[0] == pytest.approx(-0.7 * 1.9, abs=1e-16)

    def test_two_steps_oracle(self):
        cfg = OuterConfig.for_method("nesterov")
        p, s = np.zeros(1), OuterState.zeros([1])
        step(p, np.ones(1), 0.0, s, cfg)
        step(p, np.ones(1), 0.0, s, cfg)
        assert s.m[0] == pytest.approx(1.9, abs=0)
        assert (p[0] - (-0.7 * 1.9)) == pytest.approx(-0.7 * (1 + 0.9 * 1.9), abs=1e-15)

    def test_zero_momentum_is_sgd(self):
        g = np.array([0.5, -2.0])
        np.testing.assert_array_equal(stepped("nesterov", g, mu=0.0), -0.7 * g)

    def test_linearity_in_grad_scale(self):
        cfg = OuterConfig.for_method("nesterov")
        rng = np.random.default_rng(7)
        g = rng.standard_normal(8)
        p1, p2, s1, s2 = np.zeros(8), np.zeros(8), OuterState.zeros([8]), OuterState.zeros([8])
        step(p1, 3.0 * g, 0.0, s1, cfg)
        step(p2, g, 0.0, s2, cfg)
        np.testing.assert_allclose(p1, 3.0 * p2, rtol=1e-15)
        np.testing.assert_allclose(s1.m, 3.0 * s2.m, rtol=1e-15)

    def test_sdm_scales_grad_by_exponential(self):
        rng = np.random.default_rng(8)
        g = rng.standard_normal(4)
        sigma = step(np.zeros(4), g, 5.0, OuterState.zeros([4]), OuterConfig.for_method("sdm"))[1]
        assert np.array_equal(stepped("sdm", g, 5.0), stepped("nesterov", math.exp(-1.0) * g))
        assert sigma == math.exp(-1.0)

    def test_sdm_tau_zero_is_nesterov(self):
        g = np.array([1.0, -2.0])
        assert np.array_equal(stepped("sdm", g, 0.0), stepped("nesterov", g))

    def test_sdm_alpha_zero_is_nesterov_at_any_tau(self):
        g = np.array([1.0, -2.0])
        for tau in (0.0, 7.0, 100.0):
            assert np.array_equal(stepped("sdm", g, tau, alpha=0.0), stepped("nesterov", g))

    @pytest.mark.parametrize("tau,scale", [(0.0, 1.0), (3.0, 0.5), (15.0, 0.25)])
    def test_poly_decay_scales(self, tau, scale):
        g = np.array([2.0, -4.0])
        cfg = OuterConfig.for_method("poly_decay")
        sigma = step(np.zeros(2), g, tau, OuterState.zeros([2]), cfg)[1]
        assert np.array_equal(stepped("poly_decay", g, tau), stepped("nesterov", scale * g))
        assert sigma == scale

    def test_mla_tau_zero_is_nesterov(self):
        g = np.array([1.0, -0.5])
        assert np.array_equal(stepped("mla", g, 0.0), stepped("nesterov", g))

    def test_mla_mu_zero_is_sgd_at_any_tau(self):
        g = np.array([1.0, -0.5])
        for tau in (0.0, 2.0, 9.0):
            np.testing.assert_array_equal(stepped("mla", g, tau, mu=0.0), -0.7 * g)

    def test_mla_extrapolation_oracle(self):
        cfg = OuterConfig.for_method("mla")
        p, s = np.zeros(1), OuterState.zeros([1])
        step(p, np.ones(1), 2.0, s, cfg)
        assert s.m[0] == 1.0
        assert p[0] == pytest.approx(-0.7 * 1.9 - 0.7 * 2 * 0.9, abs=1e-15)


class TestDelayedNesterov:
    def test_period_one_behaves_like_nesterov(self):
        cfg = OuterConfig.for_method("delayed_nesterov", buffer_period=1)
        ref_cfg = OuterConfig.for_method("nesterov")
        rng = np.random.default_rng(9)
        p1, p2 = np.zeros(4), np.zeros(4)
        s1, s2 = OuterState.zeros([4]), OuterState.zeros([4])
        for _ in range(5):
            g = rng.standard_normal(4)
            step(p1, g, 0.0, s1, cfg)
            step(p2, g, 0.0, s2, ref_cfg)
            np.testing.assert_allclose(p1, p2, rtol=1e-12, atol=1e-15)
            np.testing.assert_array_equal(s1.m, s2.m)

    def test_buffer_state_machine(self):
        # m holds the velocity, v the burst buffer, count the buffered gradients
        cfg = OuterConfig.for_method("delayed_nesterov", buffer_period=4)
        state = OuterState.zeros([2])
        p = np.zeros(2)
        g = np.array([1.0, 2.0])
        for calls in range(1, 4):
            step(p, g, 0.0, state, cfg)
            assert state.count[0] == calls
            np.testing.assert_array_equal(state.v, calls * g)
            np.testing.assert_array_equal(state.m, np.zeros(2))
            # plain gradient steps only, no momentum yet
            np.testing.assert_allclose(p, -cfg.eta * calls * g, rtol=1e-15)
        step(p, g, 0.0, state, cfg)
        assert state.count[0] == 0
        np.testing.assert_array_equal(state.v, np.zeros(2))
        # burst folded the buffered mean (= g here) into the velocity
        np.testing.assert_allclose(state.m, g, rtol=1e-15)

    def test_burst_applies_momentum_kick(self):
        cfg = OuterConfig.for_method("delayed_nesterov", buffer_period=2)
        state = OuterState.zeros([1])
        p = np.zeros(1)
        g = np.ones(1)
        step(p, g, 0.0, state, cfg)
        before = p.copy()
        step(p, g, 0.0, state, cfg)
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


    def test_in_place_step_keeps_the_out_of_place_bits(self):
        rng = np.random.default_rng(12)
        cfg = InnerConfig(lr=1e-2, weight_decay=0.1)
        params = rng.standard_normal((3, 7))
        state = AdamMoments.zeros(params.shape)
        want_p, want_m, want_v = params.copy(), np.zeros((3, 7)), np.zeros((3, 7))
        for t in range(1, 11):
            grad = rng.standard_normal((3, 7))
            kept = grad.copy()
            p, s = inner_adamw_step(params, grad, state, cfg)
            assert p is params and s is state and s.t == t
            np.testing.assert_array_equal(grad, kept)
            want_m = cfg.beta1 * want_m + (1.0 - cfg.beta1) * grad
            want_v = cfg.beta2 * want_v + (1.0 - cfg.beta2) * (grad * grad)
            m_hat = want_m / (1.0 - cfg.beta1**t)
            v_hat = want_v / (1.0 - cfg.beta2**t)
            want_p = want_p * (1.0 - cfg.lr * cfg.weight_decay) - cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
            for got, want in ((params, want_p), (state.m, want_m), (state.v, want_v)):
                np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


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

    @pytest.mark.parametrize("method", METHODS)
    def test_reported_sigma_is_the_gates_or_polys_bit_for_bit(self, method):
        ages = [0.0, 0.5, 3.0, 31.9, 32.0, 40.0]
        cfg, row = OuterConfig.for_method(method), METHOD_TABLE[method]
        state = OuterState.zeros([1] * len(ages))
        grad = np.linspace(-1.0, 1.0, len(ages))
        sigma = outer_step(np.zeros(len(ages)), grad, ages, state, cfg, state.fragments.select(range(len(ages))))[1]
        want = [(1.0 + a) ** -0.5 if row.weight == "poly" else staleness_weight(a, cfg.gate) for a in ages]
        np.testing.assert_array_equal(sigma.view(np.uint64), np.array(want).view(np.uint64))
        if row.weight == "one":
            assert sigma.tolist() == [1.0] * len(ages)
        if row.weight == "exp":
            assert sigma.tolist() == [math.exp(-cfg.gate.alpha * a) for a in ages]


class TestOuterDispatch:
    @pytest.mark.parametrize("method", ["cgad", "pa_cgad", "adam", "adam_decay",
                                        "nesterov", "sdm", "poly_decay",
                                        "delayed_nesterov", "eager", "mla"])
    def test_every_method_steps(self, method):
        cfg = OuterConfig.for_method(method)
        rng = np.random.default_rng(11)
        p = np.zeros(4)
        applied, _, _, _ = step(p, rng.standard_normal(4), 1.0, OuterState.zeros([4]), cfg)
        assert p.shape == (4,) and np.any(p != 0.0)
        assert applied

    def test_cgad_and_adam_share_kernel_at_tau_zero(self):
        rng = np.random.default_rng(12)
        grads = [rng.standard_normal(8) for _ in range(20)]
        outs = {}
        for method in ("cgad", "adam"):
            cfg = OuterConfig.for_method(method)
            p, s = np.zeros(8), OuterState.zeros([8])
            for g in grads:
                step(p, g, 0.0, s, cfg)
            outs[method] = p
        assert np.array_equal(outs["cgad"], outs["adam"])

    @pytest.mark.parametrize("method", METHODS)
    def test_fragments_step_as_if_alone(self, method):
        # fragments with different ages, Adam counts and burst counts in one call
        # give the bytes of stepping each of them alone
        cfg = OuterConfig.for_method(method, tau_cut=8.0, buffer_period=2)
        rng = np.random.default_rng(13)
        p = rng.standard_normal(12)
        state = OuterState.zeros([3, 5, 4])
        for frags in ([0], [0, 1], [0, 2], [1]):
            outer_step(p, rng.standard_normal(12), [1.0] * len(frags), state, cfg, state.fragments.select(frags))
        assert state.t.tolist() == ([3, 2, 1] if METHOD_TABLE[method].base == "adam" else [0, 0, 0])
        assert state.count.tolist() == ([1, 0, 1] if method == "delayed_nesterov" else [0, 0, 0])
        for frags, ages in (([0, 1, 2], [0.0, 9.0, 3.0]), ([0, 1, 2], [1.0, 0.0, 2.0]),
                            ([0, 2], [2.0, 5.0])):
            g = rng.standard_normal(12)
            p_alone, alone = p.copy(), copy.deepcopy(state)
            together = outer_step(p, g, ages, state, cfg, state.fragments.select(frags))
            one_by_one = [outer_step(p_alone, g, [age], alone, cfg, alone.fragments.select([f]))
                          for f, age in zip(frags, ages)]
            assert p.tobytes() == p_alone.tobytes()
            for name in ("m", "v", "t", "count"):
                assert getattr(state, name).tobytes() == getattr(alone, name).tobytes(), name
            for column, parts in zip(together, zip(*one_by_one)):
                np.testing.assert_array_equal(column, np.concatenate(parts))


class TestRoundKernel:
    """E entries stacked in one outer_step call give the bytes of E one-entry calls."""

    # per entry, the ages of its three selected fragments; tau_cut is 8
    AGES = {
        "live": [[1.0, 2.0, 0.0], [3.0, 1.0, 1.0], [0.0, 0.0, 5.0]],
        "mixed": [[1.0, 9.0, 3.0], [9.0, 0.0, 2.0], [2.0, 2.0, 8.0]],  # split ages: some drop, some apply
        "dropped": [[8.0, 9.0, 30.0]] * 3,
    }

    @pytest.mark.parametrize("frags", [[1, 2, 3], [0, 2, 3]], ids=["consecutive", "gathered"])
    @pytest.mark.parametrize("placement", ["before", "after"])
    @pytest.mark.parametrize("method", METHODS)
    def test_stacked_entries_step_as_in_sequence(self, method, placement, frags):
        cfg = OuterConfig.for_method(method, tau_cut=8.0, buffer_period=2, gate_placement=placement)
        cutoff = METHOD_TABLE[method].weight == "cos_exp"  # the only weight that drops
        rng = np.random.default_rng(17)
        for entries in (1, 3):
            for case, ages in self.AGES.items():
                p, state = rng.standard_normal(14), OuterState.zeros([3, 5, 4, 2])
                # the adam base reaches t = [3, 2, 1, 1] and delayed_nesterov the burst counts [1, 0, 1, 1],
                # so over three entries fragment 1 bursts at the middle one, fragments 0, 2, 3 at the first
                for warm in ([0], [0, 1], [0, 2], [1], [3]):
                    outer_step(p, rng.standard_normal(14), [1.0] * len(warm), state, cfg, state.fragments.select(warm))
                grads, ages = rng.standard_normal((entries, 14)), np.array(ages[:entries])
                p_seq, seq_state, before = p.copy(), copy.deepcopy(state), np.empty((entries, 14))
                plan = state.fragments.select(frags)
                together = outer_step(p, grads, ages, state, cfg, plan, before=before)
                one_by_one = []
                for e in range(entries):
                    assert before[e].tobytes() == p_seq.tobytes()
                    one_by_one.append(outer_step(p_seq, grads[e], ages[e], seq_state, cfg, plan))
                assert p.tobytes() == p_seq.tobytes(), case
                for name in ("m", "v", "t", "count"):
                    assert getattr(state, name).tobytes() == getattr(seq_state, name).tobytes(), (case, name)
                for column, parts in zip(together, zip(*one_by_one)):
                    assert column.shape == (entries, 3) and column.tobytes() == np.array(parts).tobytes(), case
                applied = together[0]
                if cutoff:
                    assert applied.all() == (case == "live") and applied.any() == (case != "dropped")
                else:
                    assert applied.all()


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
