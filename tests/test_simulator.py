import numpy as np
import pytest

import stalelab.simulator as sim_mod
from stalelab.config import RunConfig
from stalelab.objective import Objective, QuadraticObjective, Shard, make_objective, sample_batch
from stalelab.optim import AdamMoments, InnerConfig, inner_adamw_step
from stalelab.simulator import (
    DelaySchedule,
    FragmentPartition,
    Simulation,
    dequantize_payload,
    quantize_payload,
    run_experiment,
    run_inner_phase,
    sample_delay,
    select_fragments,
)


def quad_raw(**overrides):
    raw = {
        "version": 1,
        "objective": {"kind": "quadratic", "dimension": 12, "spectrum_lo": 0.5,
                      "spectrum_hi": 4.0, "rotation_seed": 5, "noise_scale": 0.05},
        "workers": 2,
        "inner_steps": 4,
        "rounds": 20,
        "batch_size": 8,
        "eval_batch_size": 32,
        "method": "cgad",
        "delay": {"kind": "fixed", "tau": 0},
        "master_seed": 11,
    }
    raw.update(overrides)
    return raw


def quad_config(**overrides):
    return RunConfig.from_dict(quad_raw(**overrides))


class TestSampleDelay:
    def test_fixed_is_constant(self):
        sched = DelaySchedule(kind="fixed", tau=8)
        assert all(sample_delay(sched, w, r) == 8 for w in range(4) for r in range(20))

    def test_deterministic_per_worker_round(self):
        sched = DelaySchedule(kind="uniform_int", seed=3, lo=0, hi=16)
        assert sample_delay(sched, 1, 7) == sample_delay(sched, 1, 7)
        draws = {(w, r): sample_delay(sched, w, r) for w in range(3) for r in range(50)}
        assert len(set(draws.values())) > 1

    def test_uniform_mean_and_range(self):
        sched = DelaySchedule(kind="uniform_int", seed=99, lo=0, hi=16)
        draws = [sample_delay(sched, w, r) for w in range(4) for r in range(25000)]
        assert 0 <= min(draws) and max(draws) <= 16
        assert np.mean(draws) == pytest.approx(8.0, abs=0.05)

    def test_exponential_mean_matches_rate(self):
        # uncapped so the rounding itself is what is being checked; mean 1/rate
        sched = DelaySchedule(kind="exponential", seed=99, rate=0.25, tau_max=10**9)
        draws = [sample_delay(sched, w, r) for w in range(4) for r in range(25000)]
        assert np.mean(draws) == pytest.approx(4.0, abs=0.05)

    def test_exponential_clipped_to_tau_max(self):
        sched = DelaySchedule(kind="exponential", seed=99, rate=0.25, tau_max=16)
        draws = [sample_delay(sched, w, r) for w in range(2) for r in range(5000)]
        assert 0 <= min(draws) and max(draws) == 16

    def test_from_spec_round_trip(self):
        sched = DelaySchedule.from_spec({"kind": "fixed", "tau": 3}, seed=7)
        assert sched.tau == 3 and sched.label() == "fixed:3"
        sched = DelaySchedule.from_spec({"kind": "uniform_int", "lo": 0, "hi": 16}, seed=7)
        assert sched.label() == "uniform:0-16"
        sched = DelaySchedule.from_spec({"kind": "exponential", "rate": 0.25, "tau_max": 16}, seed=7)
        assert sched.label() == "exp:0.25"


class TestFragments:
    def test_even_split_covers_dimension(self):
        part = FragmentPartition.even_split(10, 3)
        spans = [e - s for s, e in part.boundaries]
        assert sum(spans) == 10
        assert part.boundaries[0][0] == 0 and part.boundaries[-1][1] == 10
        for (_s, e), (s2, _e2) in zip(part.boundaries, part.boundaries[1:]):
            assert e == s2

    def test_full_budget_selects_everything(self):
        part = FragmentPartition.even_split(16, 4)
        assert select_fragments(part, 4) == [0, 1, 2, 3]

    def test_budget_one_round_robins(self):
        part = FragmentPartition.even_split(16, 4)
        order = []
        for _ in range(8):
            sel = select_fragments(part, 1)
            order.append(sel[0])
            for f in range(4):
                part.ages[f] = 0 if f in sel else part.ages[f] + 1
        assert order == [0, 1, 2, 3, 0, 1, 2, 3]
        assert int(part.ages.max()) == 3

    def test_oldest_first_mean_selection_age(self):
        # 3-of-14 budget: a fragment waits |F|/K_f - 1 ~ 3.67 rounds on average
        part = FragmentPartition.even_split(140, 14)
        ages_at_selection = []
        for r in range(100):
            sel = select_fragments(part, 3)
            if r >= 14:
                ages_at_selection.extend(int(part.ages[f]) for f in sel)
            for f in range(14):
                part.ages[f] = 0 if f in sel else part.ages[f] + 1
        assert np.mean(ages_at_selection) == pytest.approx(11.0 / 3.0, abs=1e-12)
        assert set(ages_at_selection) == {3, 4}

    def test_budget_validated(self):
        part = FragmentPartition.even_split(16, 4)
        with pytest.raises(ValueError):
            select_fragments(part, 0)
        with pytest.raises(ValueError):
            select_fragments(part, 5)


class TestQuantization:
    def test_all_zero_round_trips_exactly(self):
        part = FragmentPartition.even_split(16, 2)
        qp = quantize_payload(np.zeros(16), part)
        assert np.all(qp.codes == 0) and np.all(qp.scales == 0.0)
        np.testing.assert_array_equal(dequantize_payload(qp, part), np.zeros(16))

    def test_endpoint_maps_to_full_code(self):
        part = FragmentPartition.even_split(4, 1)
        grad = np.array([127.0, -64.0, 3.0, -127.0])  # scale 1.0 exactly
        qp = quantize_payload(grad, part)
        assert qp.scales[0] == 1.0
        assert qp.codes[0] == 127 and qp.codes[3] == -127
        np.testing.assert_array_equal(dequantize_payload(qp, part), grad)

    def test_error_within_half_scale(self):
        rng = np.random.default_rng(17)
        part = FragmentPartition.even_split(64, 4)
        for _ in range(10_000):
            grad = rng.standard_normal(64) * 10.0 ** rng.integers(-4, 4)
            qp = quantize_payload(grad, part)
            back = dequantize_payload(qp, part)
            for f, (s, e) in enumerate(part.boundaries):
                maxabs = np.max(np.abs(grad[s:e]))
                err = np.max(np.abs(back[s:e] - grad[s:e]))
                assert err <= maxabs / 254.0 + 1e-15

    def test_rejects_non_finite(self):
        part = FragmentPartition.even_split(4, 1)
        with pytest.raises(ValueError):
            quantize_payload(np.array([1.0, np.nan, 0.0, 0.0]), part)

    def test_matches_per_fragment_loop_bitwise(self):
        def loop_quantize(grad, part):  # reference: one fragment at a time
            codes = np.zeros(grad.shape, dtype=np.int8)
            scales = np.zeros(len(part))
            for f, (start, end) in enumerate(part.boundaries):
                seg = grad[start:end]
                maxabs = float(np.max(np.abs(seg)))
                if maxabs == 0.0:
                    continue
                scales[f] = maxabs / 127.0
                q = np.sign(seg) * np.floor(np.abs(seg) / scales[f] + 0.5)
                codes[start:end] = np.clip(q, -127, 127).astype(np.int8)
            back = np.concatenate([codes[s:e] * scales[f] for f, (s, e) in enumerate(part.boundaries)])
            return codes, scales, back

        rng = np.random.default_rng(23)
        for dim, count in [(64, 32), (321, 8), (13, 13), (10, 3)]:
            part = FragmentPartition.even_split(dim, count)
            for _ in range(200):
                grad = rng.standard_normal(dim) * 10.0 ** rng.integers(-6, 6)
                grad[part.boundaries[0][0]:part.boundaries[0][1]] = 0.0  # one all-zero fragment
                qp = quantize_payload(grad, part)
                codes, scales, back = loop_quantize(grad, part)
                np.testing.assert_array_equal(qp.codes, codes)
                np.testing.assert_array_equal(qp.scales.view(np.uint64), scales.view(np.uint64))
                np.testing.assert_array_equal(dequantize_payload(qp, part).view(np.uint64),
                                              back.view(np.uint64))

    def test_empty_fragment_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            FragmentPartition(boundaries=[(0, 2), (2, 2), (2, 4)], ages=np.zeros(3, dtype=np.int64))


class _ConstantObjective(Objective):
    kind = "constant"

    def __init__(self, dim):
        self.dim = dim

    def init_params(self, seed):
        return np.zeros(self.dim)

    def draw_batch(self, rng, n):
        return None

    def loss_and_grad(self, params, batch):
        return 0.0, np.zeros_like(params)


class TestInnerPhase:
    def test_constant_objective_gives_zero_delta(self):
        obj = _ConstantObjective(6)
        delta = run_inner_phase(obj, [Shard.for_worker(0, 0, 4)], np.ones(6), 4, 0, InnerConfig())
        np.testing.assert_array_equal(delta, np.zeros((1, 6)))

    def test_single_step_matches_direct_inner_update(self):
        obj = QuadraticObjective(dimension=8, spectrum_lo=0.5, spectrum_hi=3.0, rotation_seed=1)
        shard = Shard.for_worker(5, 0, 4)
        snapshot = obj.init_params(7)
        delta = run_inner_phase(obj, [shard], snapshot, 1, 3, InnerConfig())
        (batch,) = sample_batch(obj, [shard], 3, 0)
        _, grad = obj.loss_and_grad(snapshot, batch)
        stepped, _ = inner_adamw_step(snapshot, grad, AdamMoments.zeros(8), InnerConfig())
        np.testing.assert_array_equal(delta, (snapshot - stepped)[None])

    def test_delta_shape_matches_params(self):
        obj = QuadraticObjective(dimension=8, spectrum_lo=0.5, spectrum_hi=3.0, rotation_seed=1)
        shards = [Shard.for_worker(5, w, 4) for w in range(3)]
        delta = run_inner_phase(obj, shards, obj.init_params(7), 3, 0, InnerConfig())
        assert delta.shape == (3, 8)

    def test_worker_restarts_from_global_each_phase(self):
        obj = QuadraticObjective(dimension=8, spectrum_lo=0.5, spectrum_hi=3.0, rotation_seed=1)
        shards = [Shard.for_worker(5, w, 4) for w in range(2)]
        snapshot = obj.init_params(7)
        first = run_inner_phase(obj, shards, snapshot, 2, 0, InnerConfig())
        second = run_inner_phase(obj, shards, snapshot, 2, 0, InnerConfig())
        np.testing.assert_array_equal(first.view(np.uint64), second.view(np.uint64))

    @pytest.mark.parametrize("spec", [
        {"kind": "quadratic", "dimension": 12, "spectrum_lo": 0.5, "spectrum_hi": 4.0,
         "rotation_seed": 5, "noise_scale": 0.05},
        {"kind": "rosenbrock_sum", "dimension": 6, "noise_scale": 0.05, "init_scale": 0.3},
        {"kind": "mlp_regression", "layer_sizes": [8, 32, 1], "teacher_seed": 17,
         "teacher_scale": 0.07, "init_scale": 0.07},
    ], ids=lambda spec: spec["kind"])
    def test_stacked_phase_matches_one_worker_phases(self, spec):
        obj = make_objective(spec)
        shards = [Shard.for_worker(9, w, 16) for w in range(4)]
        snapshot = obj.init_params(3)
        stacked = run_inner_phase(obj, shards, snapshot, 5, 2, InnerConfig())
        for k, shard in enumerate(shards):
            alone = run_inner_phase(obj, [shard], snapshot, 5, 2, InnerConfig())
            np.testing.assert_array_equal(stacked[k].view(np.uint64), alone[0].view(np.uint64))


class TestQueueSemantics:
    def test_tau_zero_applies_k_entries_per_round(self):
        res = run_experiment(quad_config(rounds=6))
        assert res.consumed_entries == 2 * 6
        rounds = {rec.round for rec in res.trace.records}
        assert rounds == set(range(6))
        assert all(rec.produced_round == rec.round for rec in res.trace.records)

    def test_fixed_delay_warmup_then_fifo(self):
        res = run_experiment(quad_config(rounds=10, delay={"kind": "fixed", "tau": 8}))
        early = [rec for rec in res.trace.records if rec.round < 8]
        assert early == []
        at8 = [rec for rec in res.trace.records if rec.round == 8]
        assert len(at8) == 2 and all(rec.produced_round == 0 for rec in at8)
        # warm-up rounds leave the global untouched, so the loss curve is flat
        assert len(set(res.losses[:8])) == 1

    @pytest.mark.parametrize("tau,rounds", [(0, 10), (4, 10), (8, 5), (3, 3)])
    def test_conservation_of_updates(self, tau, rounds):
        res = run_experiment(quad_config(rounds=rounds, delay={"kind": "fixed", "tau": tau}))
        assert res.consumed_entries == 2 * max(0, rounds - tau)

    def test_worker_iteration_order_is_irrelevant(self):
        sim_a = Simulation(quad_config(delay={"kind": "uniform_int", "lo": 0, "hi": 5}))
        sim_b = Simulation(quad_config(delay={"kind": "uniform_int", "lo": 0, "hi": 5}))
        for _ in range(12):
            sim_a.run_round()
            sim_b.run_round(workers=list(reversed(sim_b.workers)))
        np.testing.assert_array_equal(sim_a.global_params, sim_b.global_params)
        assert sim_a.losses == sim_b.losses

    def test_dequeue_is_sorted_by_worker_then_production(self):
        res = run_experiment(quad_config(workers=4, rounds=8,
                                         delay={"kind": "uniform_int", "lo": 0, "hi": 4}))
        by_round = {}
        for rec in res.trace.records:
            by_round.setdefault(rec.round, []).append((rec.worker, rec.produced_round))
        for keys in by_round.values():
            assert keys == sorted(keys)


class TestFragmentBookkeeping:
    def test_ages_reset_iff_selected(self):
        cfg = quad_config(fragments={"count": 4, "budget": 2}, rounds=1)
        sim = Simulation(cfg)
        for r in range(10):
            before = sim.partition.ages.copy()
            selected = select_fragments(sim.partition, 2)
            sim.run_round()
            for f in range(4):
                if f in selected:
                    assert sim.partition.ages[f] == 0
                else:
                    assert sim.partition.ages[f] == before[f] + 1

    def test_partial_sync_touches_only_selected_fragments(self):
        cfg = quad_config(fragments={"count": 4, "budget": 1}, rounds=1)
        sim = Simulation(cfg)
        before = sim.global_params.copy()
        sim.run_round()
        start, end = sim.partition.boundaries[0]  # round 0 selects fragment 0
        changed = np.flatnonzero(sim.global_params != before)
        assert changed.size > 0
        assert changed.min() >= start and changed.max() < end

    def test_pa_cgad_full_budget_bit_identical_to_cgad(self):
        frag = {"count": 4, "budget": 4}
        res_pa = run_experiment(quad_config(method="pa_cgad", fragments=frag, rounds=25,
                                            delay={"kind": "uniform_int", "lo": 0, "hi": 5}))
        res_cg = run_experiment(quad_config(method="cgad", fragments=frag, rounds=25,
                                            delay={"kind": "uniform_int", "lo": 0, "hi": 5}))
        assert res_pa.losses == res_cg.losses
        assert res_pa.final_loss == res_cg.final_loss

    def test_pa_cgad_gates_by_fragment_age_under_partial_sync(self):
        cfg = quad_config(method="pa_cgad", fragments={"count": 4, "budget": 1}, rounds=8)
        res = run_experiment(cfg)
        aged = [rec for rec in res.trace.records if rec.age > rec.tau]
        assert aged, "partial sync must raise some effective ages above the network delay"


class TestQuantizedRuns:
    def test_quantized_payload_flows_through(self):
        res = run_experiment(quad_config(quantize_queue=True, rounds=8))
        assert res.consumed_entries == 16
        assert not res.diverged

    def test_zero_quantization_error_matches_raw_bitwise(self, monkeypatch):
        # force the quantize/dequantize pair to be lossless; the queue path
        # must then reproduce the raw-mode run exactly
        monkeypatch.setattr(sim_mod, "quantize_payload", lambda grad, part: grad.copy())
        lossless = run_experiment(quad_config(quantize_queue=True, rounds=10))
        monkeypatch.undo()
        raw = run_experiment(quad_config(quantize_queue=False, rounds=10))
        assert lossless.losses == raw.losses
        assert lossless.final_loss == raw.final_loss

    def test_quantization_perturbs_but_stays_close(self):
        quant = run_experiment(quad_config(quantize_queue=True, rounds=10))
        raw = run_experiment(quad_config(quantize_queue=False, rounds=10))
        assert quant.losses != raw.losses
        assert quant.final_loss == pytest.approx(raw.final_loss, rel=0.05)


class TestDivergenceHandling:
    def test_threshold_divergence_flag(self):
        raw = quad_raw(method="nesterov", rounds=40,
                       delay={"kind": "fixed", "tau": 8},
                       outer={"eta": 100.0, "mu": 0.9})
        res = run_experiment(RunConfig.from_dict(raw))
        assert res.diverged
        assert all(np.isfinite(x) for x in res.losses)
        assert res.final_loss > 5.0 * res.reference_loss

    def test_non_finite_terminates_early(self):
        class ExplodingObjective(QuadraticObjective):
            def loss_and_grad(self, params, batch):
                loss, grad = super().loss_and_grad(params, batch)
                if np.max(np.abs(params)) > 5.0:
                    return np.nan, grad * np.nan
                return loss, grad

        cfg = quad_config(method="nesterov", rounds=60,
                          delay={"kind": "fixed", "tau": 8},
                          outer={"eta": 100.0, "mu": 0.9})
        sim = Simulation(cfg)
        sim.obj = ExplodingObjective(dimension=12, spectrum_lo=0.5, spectrum_hi=4.0,
                                     rotation_seed=5, noise_scale=0.05)
        res = sim.run()
        assert res.diverged
        assert res.rounds_completed < 60
        assert res.final_loss is None or np.isfinite(res.final_loss)

    def test_in_flight_entries_are_discarded(self):
        res = run_experiment(quad_config(rounds=5, delay={"kind": "fixed", "tau": 8}))
        assert res.consumed_entries == 0
        assert res.trace.records == []
        assert res.sigma_bar is None


class TestAllMethodsRun:
    @pytest.mark.parametrize("method", ["cgad", "pa_cgad", "adam", "adam_decay",
                                        "nesterov", "sdm", "poly_decay",
                                        "delayed_nesterov", "eager", "mla"])
    def test_short_experiment_completes_and_repeats(self, method):
        delay = {"kind": "uniform_int", "lo": 0, "hi": 3}
        a = run_experiment(quad_config(method=method, rounds=8, delay=delay))
        b = run_experiment(quad_config(method=method, rounds=8, delay=delay))
        assert a.consumed_entries > 0
        assert a.final_loss is not None and np.isfinite(a.final_loss)
        assert a.to_json_dict() == b.to_json_dict()


class TestRunResult:
    def test_sigma_bar_is_exact_for_fixed_tau(self):
        from stalelab.gate import StalenessGate, staleness_weight

        res = run_experiment(quad_config(rounds=12, delay={"kind": "fixed", "tau": 4}))
        expected = staleness_weight(4.0, StalenessGate(0.2, 32.0))
        assert res.sigma_bar == expected

    def test_final_loss_is_tail_mean(self):
        res = run_experiment(quad_config(rounds=12))
        assert res.final_loss == pytest.approx(np.mean(res.losses[-5:]), rel=1e-15)

    def test_json_dict_is_serializable_and_complete(self):
        import json

        res = run_experiment(quad_config(rounds=6))
        payload = res.to_json_dict()
        text = json.dumps(payload, sort_keys=True)
        assert "config" in payload and payload["config_hash"] == res.config_hash
        assert "wall_time_s" not in payload  # wall time is not part of the deterministic record
        round_trip = json.loads(text)
        assert round_trip["losses"] == res.losses

    def test_same_config_reruns_identically(self):
        a = run_experiment(quad_config(delay={"kind": "exponential", "rate": 0.25, "tau_max": 16}))
        b = run_experiment(quad_config(delay={"kind": "exponential", "rate": 0.25, "tau_max": 16}))
        assert a.to_json_dict() == b.to_json_dict()
