import copy
import json
import sys

import numpy as np
import pytest

import stalelab.simulator as sim_mod
from stalelab import cli
from stalelab.config import RunConfig
from stalelab.harness import serialize_result
from stalelab.objective import (
    Objective,
    QuadraticObjective,
    batch_seeds,
    make_objective,
    sample_batch,
)
from stalelab.optim import METHODS, AdamMoments, Fragments, InnerConfig, inner_adamw_step
from stalelab.simulator import (
    DelaySchedule,
    Simulation,
    delay_seeds,
    dequantize_payload,
    quantize_payload,
    run_experiment,
    run_inner_phase,
    run_lockstep,
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


def delay_draws(sched, workers, rounds):
    """sample_delay of every (worker, round) in [0, workers) x [0, rounds), worker-major."""
    seeds = delay_seeds(sched, workers, range(rounds))
    return [sample_delay(sched, seeds[w, r:r + 1])[0] for w in range(workers) for r in range(rounds)]


class TestSampleDelay:
    def test_fixed_is_constant(self):
        sched = DelaySchedule(kind="fixed", tau=8)
        assert all(d == 8 for d in delay_draws(sched, 4, 20))

    def test_deterministic_per_worker_round(self):
        sched = DelaySchedule(kind="uniform_int", seed=3, lo=0, hi=16)
        assert delay_draws(sched, 3, 50) == delay_draws(sched, 3, 50)
        assert len(set(delay_draws(sched, 3, 50))) > 1

    def test_uniform_mean_and_range(self):
        sched = DelaySchedule(kind="uniform_int", seed=99, lo=0, hi=16)
        draws = delay_draws(sched, 4, 25000)
        assert 0 <= min(draws) and max(draws) <= 16
        assert np.mean(draws) == pytest.approx(8.0, abs=0.05)

    def test_exponential_mean_matches_rate(self):
        # uncapped so the rounding itself is what is being checked; mean 1/rate
        sched = DelaySchedule(kind="exponential", seed=99, rate=0.25, tau_max=10**9)
        draws = delay_draws(sched, 4, 25000)
        assert np.mean(draws) == pytest.approx(4.0, abs=0.05)

    def test_exponential_clipped_to_tau_max(self):
        sched = DelaySchedule(kind="exponential", seed=99, rate=0.25, tau_max=16)
        draws = delay_draws(sched, 2, 5000)
        assert 0 <= min(draws) and max(draws) == 16

    @pytest.mark.parametrize("spec", [{"kind": "uniform_int", "lo": 0, "hi": 16},
                                      {"kind": "exponential", "rate": 0.25, "tau_max": 16}],
                             ids=lambda spec: spec["kind"])
    def test_same_draws_as_default_rng_per_key(self, spec):
        sched = DelaySchedule(seed=2**64 - 1, **spec)
        seeds = delay_seeds(sched, 3, range(65530, 65540))
        for w in range(3):
            for i, r in enumerate(range(65530, 65540)):
                rng = np.random.default_rng((sched.seed, w, r))
                if sched.kind == "uniform_int":
                    want = int(rng.integers(sched.lo, sched.hi + 1))
                else:
                    want = int(min(sched.tau_max, int(np.rint(rng.exponential(1.0 / sched.rate)))))
                assert sample_delay(sched, seeds[w, i:i + 1]) == [want]

    def test_from_spec_round_trip(self):
        sched = DelaySchedule(seed=7, **{"kind": "fixed", "tau": 3})
        assert sched.tau == 3 and sched.label() == "fixed:3"
        sched = DelaySchedule(seed=7, **{"kind": "uniform_int", "lo": 0, "hi": 16})
        assert sched.label() == "uniform:0-16"
        sched = DelaySchedule(seed=7, **{"kind": "exponential", "rate": 0.25, "tau_max": 16})
        assert sched.label() == "exp:0.25/16"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match=r"^DelaySchedule\.kind: expected one of .*, got 'pareto'$"):
            DelaySchedule(kind="pareto")

    def test_inverted_uniform_range_rejected_at_construction(self):
        with pytest.raises(ValueError, match=r"^DelaySchedule\.lo: must be <= hi \(2\), got 5$"):
            DelaySchedule(kind="uniform_int", lo=5, hi=2)
        assert DelaySchedule(kind="uniform_int", lo=3, hi=3).label() == "uniform:3-3"
        with pytest.raises(ValueError, match=r"lo: must be <= hi"):  # the ordering is a field's, whatever the kind
            DelaySchedule(kind="fixed", tau=1, lo=5, hi=2)

    def test_exponential_draw_past_float_range_gives_tau_max(self):
        # 1/rate is 1e308, so about one draw in six overflows to inf
        sched = DelaySchedule(kind="exponential", seed=5, rate=1e-308, tau_max=16)
        assert set(delay_draws(sched, 2, 50)) == {16}


class TestFragments:
    def test_even_split_covers_dimension(self):
        part = Fragments.even_split(10, 3)
        ends = part.starts + part.sizes
        assert part.sizes.sum() == 10 and part.sizes.min() > 0
        assert part.starts[0] == 0 and ends[-1] == 10
        assert part.starts[1:].tolist() == ends[:-1].tolist()

    def test_full_budget_selects_everything(self):
        part = Fragments.even_split(16, 4)
        assert select_fragments(part, 4) == [0, 1, 2, 3]

    def test_budget_one_round_robins(self):
        part = Fragments.even_split(16, 4)
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
        part = Fragments.even_split(140, 14)
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
        part = Fragments.even_split(16, 4)
        with pytest.raises(ValueError):
            select_fragments(part, 0)
        with pytest.raises(ValueError):
            select_fragments(part, 5)

    def test_matches_sorted_loop_on_tie_heavy_ages(self):
        rng = np.random.default_rng(31)
        for _ in range(3000):
            count = int(rng.integers(1, 33))
            part = Fragments.even_split(64, count)
            part.ages[:] = rng.integers(0, 4, count)  # few distinct ages, so many ties
            budget = int(rng.integers(1, count + 1))
            order = sorted(range(count), key=lambda f: (-int(part.ages[f]), f))
            assert select_fragments(part, budget) == sorted(order[:budget])


class TestQuantization:
    def test_rejects_non_finite(self):
        part = Fragments.even_split(4, 1)
        with pytest.raises(ValueError):
            quantize_payload(np.array([1.0, np.nan, 0.0, 0.0]), part)

    def test_matches_per_fragment_loop_bitwise(self):
        def loop_quantize(grad, part):  # reference: one fragment at a time
            codes = np.zeros(grad.shape, dtype=np.int8)
            scales = np.zeros(len(part))
            bounds = list(zip(part.starts, part.starts + part.sizes))
            for f, (start, end) in enumerate(bounds):
                seg = grad[start:end]
                maxabs = float(np.max(np.abs(seg)))
                if maxabs == 0.0:
                    continue
                scales[f] = maxabs / 127.0
                q = np.sign(seg) * np.floor(np.abs(seg) / scales[f] + 0.5)
                codes[start:end] = np.clip(q, -127, 127).astype(np.int8)
            back = np.concatenate([codes[s:e] * scales[f] for f, (s, e) in enumerate(bounds)])
            return codes, scales, back

        rng = np.random.default_rng(23)
        for dim, count in [(64, 32), (321, 8), (13, 13), (10, 3)]:
            part = Fragments.even_split(dim, count)
            for _ in range(200):
                grad = rng.standard_normal(dim) * 10.0 ** rng.integers(-6, 6)
                grad[:part.sizes[0]] = 0.0  # one all-zero fragment
                qp = quantize_payload(grad, part)
                codes, scales, back = loop_quantize(grad, part)
                np.testing.assert_array_equal(qp.codes, codes)
                np.testing.assert_array_equal(qp.scales.view(np.uint64), scales.view(np.uint64))
                np.testing.assert_array_equal(dequantize_payload(qp, part).view(np.uint64),
                                              back.view(np.uint64))

    def test_stacked_rows_quantize_as_if_alone(self):
        rng = np.random.default_rng(29)
        for dim, count in [(64, 32), (321, 8), (10, 3)]:
            part = Fragments.even_split(dim, count)
            grads = rng.standard_normal((5, dim)) * 10.0 ** rng.integers(-6, 6, (5, 1))
            zero = slice(part.starts[1], part.starts[1] + part.sizes[1])
            grads[2, zero] = 0.0  # one all-zero fragment
            stacked = quantize_payload(grads, part)
            alone = [quantize_payload(g, part) for g in grads]
            np.testing.assert_array_equal(stacked.codes, [q.codes for q in alone])
            np.testing.assert_array_equal(stacked.scales.view(np.uint64),
                                          np.array([q.scales for q in alone]).view(np.uint64))
            assert stacked.scales[2, 1] == 0.0 and not stacked.codes[2, zero].any()
            np.testing.assert_array_equal(dequantize_payload(stacked, part).view(np.uint64),
                                          np.array([dequantize_payload(q, part) for q in alone]).view(np.uint64))
            grads[3, -1] = np.nan
            with pytest.raises(ValueError, match="non-finite"):
                quantize_payload(grads, part)

    def test_empty_fragment_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            Fragments([2, 0, 2])


class _ConstantObjective(Objective):
    kind = "constant"

    def __init__(self, dim):
        self.dim = dim

    def init_params(self, seed):
        return np.zeros(self.dim)

    def draw_batch(self, rng, n):
        return None

    def draw_batches(self, seeds, n, out=None):
        return None

    def loss_and_grad(self, params, batch, out=None):
        if out is None:
            return 0.0, np.zeros_like(params)
        out[...] = 0.0
        return 0.0, out


def round_seeds(master, workers, inner_steps, round_idx):
    """The (K, H, 4) batch seed rows of one round."""
    return batch_seeds(master, workers, range(round_idx, round_idx + 1), inner_steps)[:, 0]


def inner_phase(obj, seeds, snapshot, batch_size=4):
    """run_inner_phase of one run on a round's batch seed rows."""
    (delta,) = run_inner_phase(obj, seeds, snapshot[None], InnerConfig(), batch_size)
    return delta


class TestInnerPhase:
    def test_constant_objective_gives_zero_delta(self):
        obj = _ConstantObjective(6)
        delta = inner_phase(obj, round_seeds(0, 1, 4, 0), np.ones(6))
        np.testing.assert_array_equal(delta, np.zeros((1, 6)))

    def test_seeds_must_match_the_shards(self):
        # (K >= 1, H >= 1, 4) seed rows and a (B >= 1, dim) stack of global params
        obj = _ConstantObjective(6)
        seeds = round_seeds(0, 2, 3, 0)
        for bad in (seeds[:, 0], seeds[:0], seeds[:, :0]):
            with pytest.raises(ValueError, match="batch seeds"):
                run_inner_phase(obj, bad, np.ones((1, 6)), InnerConfig(), 4)
        for snapshots in (np.ones(6), np.ones((0, 6))):
            with pytest.raises(ValueError, match="snapshots"):
                run_inner_phase(obj, seeds, snapshots, InnerConfig(), 4)

    def test_single_step_matches_direct_inner_update(self):
        obj = QuadraticObjective(dimension=8, spectrum_lo=0.5, spectrum_hi=3.0, rotation_seed=1)
        seeds = round_seeds(5, 1, 1, 3)
        snapshot = obj.init_params(7)
        delta = inner_phase(obj, seeds, snapshot)
        (batch,) = sample_batch(obj, seeds[:, 0], 4)
        _, grad = obj.loss_and_grad(snapshot, batch)
        stepped, _ = inner_adamw_step(snapshot.copy(), grad, AdamMoments.zeros(8), InnerConfig())
        np.testing.assert_array_equal(delta, (snapshot - stepped)[None])

    def test_delta_shape_matches_params(self):
        obj = QuadraticObjective(dimension=8, spectrum_lo=0.5, spectrum_hi=3.0, rotation_seed=1)
        delta = inner_phase(obj, round_seeds(5, 3, 3, 0), obj.init_params(7))
        assert delta.shape == (3, 8)

    def test_worker_restarts_from_global_each_phase(self):
        obj = QuadraticObjective(dimension=8, spectrum_lo=0.5, spectrum_hi=3.0, rotation_seed=1)
        seeds = round_seeds(5, 2, 2, 0)
        snapshot = obj.init_params(7)
        first = inner_phase(obj, seeds, snapshot)
        second = inner_phase(obj, seeds, snapshot)
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
        seeds = round_seeds(9, 4, 5, 2)
        snapshot = obj.init_params(3)
        stacked = inner_phase(obj, seeds, snapshot, 16)
        for k in range(4):
            alone = inner_phase(obj, seeds[k:k + 1], snapshot, 16)
            np.testing.assert_array_equal(stacked[k].view(np.uint64), alone[0].view(np.uint64))


def reference_phase(obj, seeds, snapshot, cfg, batch_size):
    """The inner phase written out of place: fresh batch, gradient and AdamW arrays at every step."""
    params = np.tile(snapshot, (len(seeds), 1))
    m, v = np.zeros_like(params), np.zeros_like(params)
    for t in range(1, seeds.shape[1] + 1):
        batch = sample_batch(obj, seeds[:, t - 1], batch_size)
        _, grad = obj.loss_and_grad(params, batch)
        m = cfg.beta1 * m + (1.0 - cfg.beta1) * grad
        v = cfg.beta2 * v + (1.0 - cfg.beta2) * (grad * grad)
        m_hat = m / (1.0 - cfg.beta1**t)
        v_hat = v / (1.0 - cfg.beta2**t)
        params = params * (1.0 - cfg.lr * cfg.weight_decay) - cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
    return snapshot - params


class TestInnerWorkspace:
    """The phase steps in one reused workspace and gives the bits of an out-of-place loop."""

    SPECS = {
        "quadratic": {"kind": "quadratic", "dimension": 12, "spectrum_lo": 0.5, "spectrum_hi": 4.0,
                      "rotation_seed": 5, "noise_scale": 0.05},
        "rosenbrock_sum": {"kind": "rosenbrock_sum", "dimension": 6, "noise_scale": 0.05, "init_scale": 0.3},
        # two hidden layers, so the backward pass forms tanh' of a hidden layer in place
        "mlp_regression": {"kind": "mlp_regression", "layer_sizes": [4, 8, 8, 1], "teacher_seed": 3,
                           "teacher_scale": 0.5, "init_scale": 0.5},
    }
    CFG = InnerConfig(lr=1e-2, weight_decay=0.1)

    @pytest.mark.parametrize("kind", sorted(SPECS))
    def test_phase_matches_an_out_of_place_reference_loop(self, kind):
        obj = make_objective(self.SPECS[kind])
        seeds = batch_seeds(9, 3, range(4, 6), 5)
        snapshot = obj.init_params(3)
        kept = snapshot.copy()
        (first,) = run_inner_phase(obj, seeds[:, 0], snapshot[None], self.CFG, 16)
        np.testing.assert_array_equal(snapshot.view(np.uint64), kept.view(np.uint64))  # not mutated
        want = reference_phase(obj, seeds[:, 0], kept, self.CFG, 16)
        assert first.shape == (3, obj.dim)
        np.testing.assert_array_equal(first.view(np.uint64), want.view(np.uint64))
        assert np.any(first != 0.0)

        held = first.copy()
        (second,) = run_inner_phase(obj, seeds[:, 1], snapshot[None], self.CFG, 16)
        assert not np.shares_memory(first, second)
        np.testing.assert_array_equal(first.view(np.uint64), held.view(np.uint64))  # a queued delta stays put
        want = reference_phase(obj, seeds[:, 1], kept, self.CFG, 16)
        np.testing.assert_array_equal(second.view(np.uint64), want.view(np.uint64))


class TestQueueSemantics:
    def test_tau_zero_applies_k_entries_per_round(self):
        res = run_experiment(quad_config(rounds=6))
        assert res.consumed_entries == 2 * 6
        records = res.trace.records
        assert set(records["round"].tolist()) == set(range(6))
        assert np.array_equal(records["produced_round"], records["round"])

    def test_fixed_delay_warmup_then_fifo(self):
        res = run_experiment(quad_config(rounds=10, delay={"kind": "fixed", "tau": 8}))
        records = res.trace.records
        assert not np.any(records["round"] < 8)
        at8 = records[records["round"] == 8]
        assert len(at8) == 2 and np.all(at8["produced_round"] == 0)
        # warm-up rounds leave the global untouched, so the loss curve is flat
        assert len(set(res.losses[:8])) == 1

    @pytest.mark.parametrize("tau,rounds", [(0, 10), (4, 10), (8, 5), (3, 3)])
    def test_conservation_of_updates(self, tau, rounds):
        res = run_experiment(quad_config(rounds=rounds, delay={"kind": "fixed", "tau": tau}))
        assert res.consumed_entries == 2 * max(0, rounds - tau)

    def test_dequeue_is_sorted_by_worker_then_production(self):
        res = run_experiment(quad_config(workers=4, rounds=8,
                                         delay={"kind": "uniform_int", "lo": 0, "hi": 4}))
        by_round = {}
        for rec in res.trace.records:
            by_round.setdefault(rec["round"], []).append((rec["worker"], rec["produced_round"]))
        for keys in by_round.values():
            assert keys == sorted(keys)


class TestFragmentBookkeeping:
    def test_ages_reset_iff_selected(self):
        cfg = quad_config(fragments={"count": 4, "budget": 2}, rounds=10)
        sim = Simulation(cfg)
        ages = sim.outer_state.fragments.ages
        for r in range(10):
            before = ages.copy()
            selected = select_fragments(sim.outer_state.fragments, 2)
            sim.run_round()
            for f in range(4):
                if f in selected:
                    assert ages[f] == 0
                else:
                    assert ages[f] == before[f] + 1

    def test_partial_sync_touches_only_selected_fragments(self):
        cfg = quad_config(fragments={"count": 4, "budget": 1}, rounds=1)
        sim = Simulation(cfg)
        before = sim.global_params.copy()
        sim.run_round()
        fragments = sim.outer_state.fragments
        start, end = fragments.starts[0], fragments.starts[0] + fragments.sizes[0]  # round 0 selects fragment 0
        changed = np.flatnonzero(sim.global_params != before)
        assert changed.size > 0
        assert changed.min() >= start and changed.max() < end

    @pytest.mark.parametrize("delay", [{"kind": "fixed", "tau": 3}, {"kind": "uniform_int", "lo": 0, "hi": 5},
                                       {"kind": "exponential", "rate": 0.25, "tau_max": 16}],
                             ids=lambda delay: delay["kind"])
    def test_pa_cgad_full_budget_bit_identical_to_cgad(self, delay):
        # at a full budget every sync age is 0, so max(tau, sync age) is tau in every trace row
        frag = {"count": 4, "budget": 4}
        res_pa = run_experiment(quad_config(method="pa_cgad", fragments=frag, rounds=25, delay=delay))
        res_cg = run_experiment(quad_config(method="cgad", fragments=frag, rounds=25, delay=delay))
        assert len(res_cg.trace.records) > 0
        assert res_pa.losses == res_cg.losses
        assert res_pa.final_loss == res_cg.final_loss
        assert res_pa.trace.records.tobytes() == res_cg.trace.records.tobytes()

    def test_pa_cgad_gates_by_fragment_age_under_partial_sync(self):
        count, budget = 4, 1
        cfg = quad_config(method="pa_cgad", fragments={"count": count, "budget": budget}, rounds=16,
                          delay={"kind": "uniform_int", "lo": 0, "hi": 5})
        records = run_experiment(cfg).trace.records
        # each round's sync ages by a plain oldest-first loop, ties to the lower id
        ages, sync_ages = [0] * count, []
        for _ in range(cfg.rounds):
            chosen = sorted(sorted(range(count), key=lambda f: (-ages[f], f))[:budget])
            sync_ages.append(dict((f, ages[f]) for f in chosen))
            ages = [0 if f in chosen else age + 1 for f, age in enumerate(ages)]
        assert len(records) > 0
        for rec in records:
            sync = sync_ages[rec["round"]]
            assert int(rec["fragment"]) in sync
            assert rec["age"] == max(rec["tau"], sync[int(rec["fragment"])])
        assert np.any(records["age"] > records["tau"]), \
            "partial sync must raise some effective ages above the network delay"
        assert np.any(records["age"] == records["tau"]), "a delay above the sync age must gate by the delay"


class TestHandoff:
    """The outer state, the queue (its due schedule and payload ring) and the params are all a run carries
    between rounds."""

    @pytest.mark.parametrize("quantize", [False, True])
    @pytest.mark.parametrize("method", METHODS)
    def test_a_fresh_simulation_continues_a_run(self, method, quantize):
        cfg = quad_config(method=method, workers=3, inner_steps=2, rounds=22, quantize_queue=quantize,
                          fragments={"count": 5, "budget": 2}, delay={"kind": "uniform_int", "lo": 0, "hi": 4})
        sim = Simulation(cfg)
        for _ in range(11):
            assert sim.run_round()
        fresh = Simulation(cfg)
        fresh.global_params = copy.deepcopy(sim.global_params)
        fresh.outer_state = copy.deepcopy(sim.outer_state)
        fresh.queue = copy.deepcopy(sim.queue)
        fresh.round = sim.round
        for _ in range(11):
            assert sim.run_round() and fresh.run_round()
        assert fresh.losses == sim.losses[11:]


class TestQuantizedRuns:
    def test_quantized_payload_flows_through(self):
        res = run_experiment(quad_config(quantize_queue=True, rounds=8))
        assert res.consumed_entries == 16
        assert not res.diverged

    def test_zero_quantization_error_matches_raw_bitwise(self, monkeypatch):
        # force the quantize/dequantize pair to be lossless (float codes, unit
        # scales); the queue path must then reproduce the raw-mode run exactly
        def lossless(grad, part):
            return sim_mod.QuantizedPayload(codes=grad.copy(), scales=np.ones(grad.shape[:-1] + (len(part),)))

        monkeypatch.setattr(sim_mod, "quantize_payload", lossless)
        lossless = run_experiment(quad_config(quantize_queue=True, rounds=10))
        monkeypatch.undo()
        raw = run_experiment(quad_config(quantize_queue=False, rounds=10))
        assert lossless.losses == raw.losses
        assert lossless.final_loss == raw.final_loss
        assert lossless.trace.records.tobytes() == raw.trace.records.tobytes()

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

    def test_result_is_the_same_when_asked_twice(self):
        # every round finishes finite, so only the 5x rule in result() flags the run
        cfg = quad_config(method="nesterov", rounds=40, delay={"kind": "fixed", "tau": 8},
                          outer={"eta": 100.0, "mu": 0.9})
        sim = Simulation(cfg)
        ((_, first),) = run_lockstep([sim])
        assert first.diverged and first.rounds_completed == cfg.rounds
        assert first.final_loss == float(np.mean(first.losses[-sim_mod.FINAL_LOSS_WINDOW:]))
        assert sim.result(first.wall_time_s).to_json_dict() == first.to_json_dict()

    def test_non_finite_terminates_early(self):
        class ExplodingObjective(QuadraticObjective):
            def loss_and_grad(self, params, batch, out=None):
                loss, grad = super().loss_and_grad(params, batch, out)
                if np.max(np.abs(params)) > 5.0:
                    return np.nan, grad * np.nan
                return loss, grad

        cfg = quad_config(method="nesterov", rounds=60,
                          delay={"kind": "fixed", "tau": 8},
                          outer={"eta": 100.0, "mu": 0.9})
        sim = Simulation(cfg)
        sim.obj = ExplodingObjective(dimension=12, spectrum_lo=0.5, spectrum_hi=4.0,
                                     rotation_seed=5, noise_scale=0.05)
        ((_, res),) = run_lockstep([sim])
        assert res.diverged
        assert res.rounds_completed < 60
        assert res.final_loss is None or np.isfinite(res.final_loss)

    def test_run_after_manual_rounds_gives_the_bytes_of_a_plain_run(self):
        cfg = quad_config(rounds=8, delay={"kind": "uniform_int", "lo": 0, "hi": 3})
        plain = run_experiment(cfg)
        sim = Simulation(cfg)
        for _ in range(3):
            assert sim.run_round()
        ((_, res),) = run_lockstep([sim])
        assert res.rounds_completed == cfg.rounds
        assert serialize_result(res) == serialize_result(plain)
        assert res.trace.records.tobytes() == plain.trace.records.tobytes()

    def test_stepping_a_finished_run_raises_and_moves_no_byte(self):
        sim = Simulation(quad_config(rounds=6, delay={"kind": "uniform_int", "lo": 0, "hi": 3}))
        ((_, res),) = run_lockstep([sim])
        params, losses, records = sim.global_params.tobytes(), list(sim.losses), res.trace.records.tobytes()
        with pytest.raises(ValueError, match="stepped its 6 rounds"):
            sim.run_round()
        assert sim.round == 6 and sim.global_params.tobytes() == params and sim.losses == losses
        assert sim.result(0.0).trace.records.tobytes() == records and records

    def test_a_run_that_raises_raises_from_run_experiment(self, monkeypatch):
        real = Simulation.run_round

        def fail_in_round_2(self, deltas=None):
            if self.round == 2:
                raise RuntimeError("synthetic failure in round 2")
            return real(self, deltas)

        monkeypatch.setattr(Simulation, "run_round", fail_in_round_2)
        with pytest.raises(RuntimeError, match=r"^synthetic failure in round 2$"):
            run_experiment(quad_config(rounds=5))

    def test_in_flight_entries_are_discarded(self):
        res = run_experiment(quad_config(rounds=5, delay={"kind": "fixed", "tau": 8}))
        assert res.consumed_entries == 0
        assert len(res.trace.records) == 0
        assert res.sigma_bar is None


def run_hooked(config, hook):
    """run_experiment with a profile or trace hook installed, as a profiler, tracer or debugger does."""
    def tracer(frame, event, arg):
        return tracer

    install, previous = (sys.setprofile, sys.getprofile()) if hook == "profile" else (sys.settrace, sys.gettrace())
    install(tracer)
    try:
        return run_experiment(config)
    finally:
        install(previous)


class TestUnderInterpreterHooks:
    # entries still in flight at the end, or a divergence in round 1: either
    # way the trace buffer has spare rows when the run ends
    CELLS = {
        "completed": {"rounds": 5, "delay": {"kind": "fixed", "tau": 2}},
        "diverged": {"method": "nesterov", "rounds": 10, "delay": {"kind": "fixed", "tau": 1},
                     "outer": {"eta": 1e200}},
    }

    @pytest.mark.parametrize("hook", ["profile", "trace"])
    @pytest.mark.parametrize("cell", sorted(CELLS))
    def test_hooked_run_gives_the_unhooked_bytes(self, cell, hook):
        config = quad_config(**self.CELLS[cell])
        with np.errstate(over="ignore", invalid="ignore"):
            plain = run_experiment(config)
            hooked = run_hooked(config, hook)
        assert plain.diverged == (plain.rounds_completed < config.rounds) == (cell == "diverged")
        assert 0 < len(plain.trace.records) < config.rounds * config.workers
        assert serialize_result(hooked) == serialize_result(plain)
        assert hooked.trace.records.tobytes() == plain.trace.records.tobytes()

    def test_cli_run_under_a_profile_hook(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(quad_raw(rounds=5, delay={"kind": "fixed", "tau": 1})), encoding="utf-8")
        previous = sys.getprofile()
        sys.setprofile(lambda *args: None)
        try:
            rc = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        finally:
            sys.setprofile(previous)
        assert rc == 0
        assert len(list((tmp_path / "out").glob("*.json"))) == 1


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
