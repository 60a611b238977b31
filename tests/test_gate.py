import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stalelab.gate import (
    StalenessGate,
    cosine_gate,
    gate_curve,
    staleness_weight,
)

INF = math.inf

# High-precision oracle values (mpmath, 40 digits), frozen to double precision.
SIGMA_16_A02_CUT32 = 0.020381101989183107  # 0.5 * exp(-3.2)
EXP_MINUS_ONE = 0.36787944117144233


class TestCosineGate:
    def test_fresh_is_one(self):
        assert cosine_gate(0.0, 32.0) == 1.0

    def test_halfway_is_half(self):
        assert cosine_gate(16.0, 32.0) == 0.5

    def test_zero_at_and_past_cutoff(self):
        assert cosine_gate(32.0, 32.0) == 0.0
        assert cosine_gate(33.0, 32.0) == 0.0
        assert cosine_gate(1e9, 32.0) == 0.0

    def test_infinite_cutoff_returns_one(self):
        for tau in (0.0, 5.0, 1000.0):
            assert cosine_gate(tau, INF) == 1.0

    def test_continuous_at_cutoff(self):
        eps = 1e-9
        assert cosine_gate(32.0 - eps, 32.0) < 1e-15

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            cosine_gate(-1.0, 32.0)
        with pytest.raises(ValueError):
            cosine_gate(1.0, 0.0)
        with pytest.raises(ValueError):
            cosine_gate(1.0, -3.0)


class TestStalenessWeight:
    def test_fresh_is_exactly_one(self):
        gate = StalenessGate(0.2, 32.0)
        assert staleness_weight(0.0, gate) == 1.0

    def test_halfway_value_matches_oracle(self):
        gate = StalenessGate(0.2, 32.0)
        val = staleness_weight(16.0, gate)
        assert val == pytest.approx(SIGMA_16_A02_CUT32, abs=1e-15)

    def test_no_cutoff_is_pure_exponential(self):
        gate = StalenessGate(0.2, INF)
        # alpha*tau = 0.2*5 rounds to exactly 1.0 in binary64
        assert staleness_weight(5.0, gate) == math.exp(-1.0)
        assert staleness_weight(5.0, gate) == pytest.approx(EXP_MINUS_ONE, abs=0)

    def test_zero_iff_past_finite_cutoff(self):
        gate = StalenessGate(0.2, 32.0)
        assert staleness_weight(32.0, gate) == 0.0
        assert staleness_weight(40.0, gate) == 0.0
        assert staleness_weight(31.999, gate) > 0.0
        no_cut = StalenessGate(0.2, INF)
        assert staleness_weight(1000.0, no_cut) > 0.0

    def test_plain_adam_degeneration(self):
        gate = StalenessGate(0.0, INF)
        for tau in (0.0, 1.0, 16.0, 1234.5):
            assert staleness_weight(tau, gate) == 1.0

    def test_gate_validation(self):
        with pytest.raises(ValueError):
            StalenessGate(-0.1, 32.0)
        with pytest.raises(ValueError):
            StalenessGate(0.2, 0.0)
        with pytest.raises(ValueError, match="finite"):
            StalenessGate(INF, 4.0)  # sigma(0) would be nan, not 1
        StalenessGate(0.0, INF)  # degenerate but legal


@pytest.mark.parametrize("alpha", [0.025, 0.05, 0.1, 0.2, 0.4])
class TestGateInvariants:
    def test_tau_sigma_grid_max_bounded(self, alpha):
        # max of tau*sigma(tau) never exceeds 1/(e*alpha), with or without cutoff
        limit = 1.0 / (math.e * alpha)
        for tau_cut in (32.0, INF):
            gate = StalenessGate(alpha, tau_cut)
            taus = np.arange(0.0, 4.0 / alpha + 1e-4, 1e-4)
            assert float(np.max(taus * gate_curve(gate, taus))) <= limit + 1e-12


class TestGateCurve:
    def test_matches_scalar_evaluation(self):
        gate = StalenessGate(0.2, 32.0)
        taus = np.array([0.0, 1.0, 7.3, 16.0, 31.9, 32.0, 50.0])
        curve = gate_curve(gate, taus)
        scalar = np.array([staleness_weight(t, gate) for t in taus])
        np.testing.assert_allclose(curve, scalar, rtol=1e-15, atol=0)
        assert curve[0] == 1.0 and curve[5] == 0.0 and curve[6] == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            gate_curve(StalenessGate(0.2, 32.0), np.array([-0.5, 1.0]))


@settings(max_examples=200, deadline=None)
@given(
    tau=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    alpha=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    tau_cut=st.one_of(st.just(INF), st.floats(min_value=1e-3, max_value=1e4)),
)
def test_sigma_always_in_unit_interval(tau, alpha, tau_cut):
    sigma = staleness_weight(tau, StalenessGate(alpha, tau_cut))
    assert 0.0 <= sigma <= 1.0


@settings(max_examples=200, deadline=None)
@given(
    t1=st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    t2=st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    alpha=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    tau_cut=st.one_of(st.just(INF), st.floats(min_value=1e-3, max_value=1e4)),
)
def test_sigma_monotone_in_tau(t1, t2, alpha, tau_cut):
    lo, hi = sorted((t1, t2))
    gate = StalenessGate(alpha, tau_cut)
    assert staleness_weight(hi, gate) <= staleness_weight(lo, gate) + 1e-15
