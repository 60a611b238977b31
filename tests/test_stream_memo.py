"""The stream memo and the per-round outer plan change no result byte.

Cells of a sweep that share a master seed draw the same noise and delay
streams, so the memo hands a later cell what an earlier one drew. These
tests check that a warm memo gives the bytes of a cold one, that a memo
key holds every value its draw reads, and that the budget holds.
"""

import hashlib

import numpy as np
import pytest

from stalelab import simulator as sim_mod
from stalelab.config import RunConfig, expand_sweep
from stalelab.harness import serialize_result
from stalelab.objective import Shard, batch_seeds, make_objective, sample_batch
from stalelab.seeding import STREAM_MEMO, StreamMemo
from stalelab.simulator import DelaySchedule, Simulation, delay_seeds, run_experiment, run_lockstep, sample_delay
from test_acceptance import MLP_TASK, RANKING_BASE
from test_golden_digests import EXTRA, PINS, cell_config

# The fragment_matrix workload's sweep (benchmark/workloads.py) at 20 rounds.
FRAGMENT_SPEC = {
    "version": 1,
    "base": {
        "version": 1,
        "objective": {"kind": "quadratic", "dimension": 64, "spectrum_lo": 0.5, "spectrum_hi": 4.0,
                      "rotation_seed": 5, "noise_scale": 0.05},
        "workers": 4, "inner_steps": 1, "method": "cgad", "rounds": 20, "master_seed": 0,
        "delay": {"kind": "exponential", "rate": 0.1, "tau_max": 48},
        "fragments": {"count": 32, "budget": 8},
    },
    "axes": {"method": ["cgad", "pa_cgad", "adam", "adam_decay", "nesterov", "sdm", "poly_decay",
                        "delayed_nesterov", "eager", "mla"],
             "quantize_queue": [False, True]},
}
QUAD = {"kind": "quadratic", "dimension": 12, "spectrum_lo": 0.5, "spectrum_hi": 4.0,
        "rotation_seed": 5, "noise_scale": 0.05}
# The acceptance ranking grid (the sweep_jobs2 workload's cells) at 4 rounds: the eval batch reads no round.
RANKING_SPEC = {
    "version": 1,
    "base": {**RANKING_BASE, "rounds": 4},
    "axes": {"method": ["cgad", "nesterov"],
             "delay": [{"kind": "fixed", "tau": 0}, {"kind": "fixed", "tau": 16},
                       {"kind": "uniform_int", "lo": 0, "hi": 16}],
             "seed": [0, 1, 2]},
}


def digest(config: RunConfig) -> str:
    return hashlib.sha256(serialize_result(run_experiment(config)).encode("utf-8")).hexdigest()


def cold_then_warm(config: RunConfig) -> tuple[str, str]:
    STREAM_MEMO.clear()
    cold = digest(config)
    assert STREAM_MEMO.used > 0  # the run kept its draws
    return cold, digest(config)


@pytest.mark.warm_stream_memo
@pytest.mark.parametrize("cell", range(20))
def test_fragment_matrix_cell_bytes_equal_cold_and_warm(cell):
    _, config = expand_sweep(FRAGMENT_SPEC)[cell]
    cold, warm = cold_then_warm(config)
    assert cold == warm


@pytest.mark.warm_stream_memo
def test_split_drop_golden_cell_equal_cold_and_warm():
    method, delay, layout, overrides = EXTRA["pa_cgad/split-drop"]
    assert cold_then_warm(cell_config(method, delay, layout, **overrides)) == (PINS["pa_cgad/split-drop"],) * 2


def delays(**spec) -> list[int]:
    sched = DelaySchedule(seed=99, **spec)
    seeds = delay_seeds(sched, 3, range(40))
    return [sample_delay(sched, seeds[w, r]) for w in range(3) for r in range(40)]


@pytest.mark.parametrize("first,second", [
    ({"kind": "exponential", "rate": 0.1}, {"kind": "exponential", "rate": 0.5}),
    ({"kind": "exponential", "rate": 0.1, "tau_max": 48}, {"kind": "exponential", "rate": 0.1, "tau_max": 4}),
    ({"kind": "uniform_int", "lo": 0, "hi": 16}, {"kind": "uniform_int", "lo": 0, "hi": 3}),
    ({"kind": "uniform_int", "lo": 0, "hi": 16}, {"kind": "uniform_int", "lo": 8, "hi": 16}),
])
def test_delay_schedules_sharing_a_seed_draw_their_own_delays(first, second):
    STREAM_MEMO.clear()
    cold = delays(**second)
    STREAM_MEMO.clear()
    warm_first = delays(**first)
    assert delays(**second) == cold != warm_first


@pytest.mark.parametrize("spec", [{"kind": "fixed", "tau": 5}, {"kind": "uniform_int", "lo": 0, "hi": 16},
                                  {"kind": "exponential", "rate": 0.1, "tau_max": 48}],
                         ids=lambda spec: spec["kind"])
def test_a_round_of_delays_drawn_in_one_call_equals_one_call_per_worker(spec):
    sched = DelaySchedule(seed=99, **spec)
    seeds = delay_seeds(sched, 4, range(30))
    STREAM_MEMO.clear()
    alone = [[sample_delay(sched, seeds[w, r]) for w in range(4)] for r in range(30)]
    used = STREAM_MEMO.used
    STREAM_MEMO.clear()
    assert [sample_delay(sched, seeds[:, r]) for r in range(30)] == alone
    assert STREAM_MEMO.used == used == 0  # a lone delay is not kept; its due schedule is
    assert all(isinstance(tau, int) for taus in alone for tau in taus)


@pytest.mark.parametrize("change", [{"noise_scale": 0.5}, {"batch_size": 16}, {"dimension": 13}])
def test_quadratics_that_differ_do_not_share_noise_rows(change):
    def rows(spec, batch_size=8):
        obj = make_objective(spec)
        shards = [Shard.for_worker(4, w, batch_size) for w in range(3)]
        return sample_batch(obj, shards, batch_seeds(shards, range(1), 1)[:, 0, 0], compact=True)

    batch_size = change.get("batch_size", 8)
    other = {**QUAD, **{k: v for k, v in change.items() if k != "batch_size"}}
    STREAM_MEMO.clear()
    cold = rows(other, batch_size)
    STREAM_MEMO.clear()
    first = rows(QUAD)
    warm = rows(other, batch_size)
    assert warm.tobytes() == cold.tobytes()
    assert warm.shape != first.shape or warm.tobytes() != first.tobytes()


def test_a_stream_larger_than_the_budget_leaves_the_memo_within_it(monkeypatch):
    config = RunConfig.from_dict({
        "version": 1, "objective": QUAD, "workers": 3, "inner_steps": 2, "rounds": 30,
        "method": "cgad", "delay": {"kind": "exponential", "rate": 0.3, "tau_max": 8}})
    want = digest(config)
    budget = 4096  # a quarter of the run's noise rows and delays
    monkeypatch.setattr(STREAM_MEMO, "budget", budget)
    STREAM_MEMO.clear()
    assert digest(config) == want
    assert 0 < STREAM_MEMO.used <= budget


def test_memo_builds_each_kept_key_once():
    memo = StreamMemo(budget=3 * 8)
    calls = []

    def build(k):
        calls.append(k)
        return k * k

    for _ in range(2):
        assert [memo.get(("p", k), lambda k=k: build(k), 8) for k in range(5)] == [k * k for k in range(5)]
    assert calls == [0, 1, 2, 3, 4, 3, 4]  # three keys kept, two built again
    assert memo.used == memo.budget
    memo.get(("q", 0), lambda: build(0), 8)
    assert calls[-1] == 0  # another key is its own entry


def test_the_trace_holds_budget_rows_per_consumed_entry():
    result = run_experiment(RunConfig.from_dict({
        "version": 1, "objective": QUAD, "workers": 2, "inner_steps": 1, "method": "pa_cgad", "rounds": 15,
        "delay": {"kind": "uniform_int", "lo": 0, "hi": 3}, "fragments": {"count": 4, "budget": 2}}))
    assert 0 < result.consumed_entries < 2 * 15
    assert len(result.trace.records) == 2 * result.consumed_entries


def eval_pair(sim: Simulation) -> tuple[bytes, float]:
    batch = sim.eval_batch
    return b"".join(part.tobytes() for part in (batch if isinstance(batch, tuple) else (batch,))), sim.reference_loss


def kept(kind: str) -> dict:
    """The memo's entries of one kind ("noise", "due", "eval" or "objective"), by key."""
    return {key: value for key, value in STREAM_MEMO.kept.items() if key[0] == kind}


@pytest.fixture
def reference_calls(monkeypatch):
    """The objectives `Simulation` computes a reference loss for, in call order."""
    calls, real = [], sim_mod.init_reference_loss

    def counted(obj, eval_batch):
        calls.append(obj)
        return real(obj, eval_batch)

    monkeypatch.setattr(sim_mod, "init_reference_loss", counted)
    return calls


@pytest.mark.warm_stream_memo
@pytest.mark.parametrize("spec", [RANKING_SPEC, FRAGMENT_SPEC], ids=["ranking", "fragment_matrix"])
def test_every_sweep_cell_gives_its_cold_bytes_with_a_warm_memo(spec, reference_calls):
    configs = [config for _, config in expand_sweep(spec)]
    cold = []
    for config in configs:
        STREAM_MEMO.clear()
        cold.append(digest(config))
    STREAM_MEMO.clear()
    del reference_calls[:]
    assert [digest(config) for config in configs] == cold  # each cell after the first of its key reads the memo
    assert [digest(config) for config in configs] == cold  # every cell reads the memo
    keys = {(config.eval_batch_size, config.master_seed) for config in configs}
    assert len(reference_calls) == len(keys)
    assert len(kept("eval")) == len(keys)


def test_cells_with_one_eval_key_compute_one_reference_loss(reference_calls):
    configs = [config for cell, config in expand_sweep(RANKING_SPEC) if cell["seed_value"] == 1]
    sims = [Simulation(config) for config in configs]
    assert len(sims) == 6 and len(reference_calls) == 1
    for sim in sims[1:]:
        assert sim.eval_batch is sims[0].eval_batch and sim.reference_loss == sims[0].reference_loss


@pytest.mark.parametrize("objective,change", [
    (MLP_TASK, {"teacher_seed": 18}),
    (MLP_TASK, {"init_scale": 0.5}),
    (MLP_TASK, {"layer_sizes": [8, 16, 1]}),
    (QUAD, {"noise_scale": 0.5}),
    (QUAD, {"dimension": 13}),
    (QUAD, {"eval_batch_size": 16}),
    (QUAD, {"master_seed": 3}),
], ids=lambda value: "-".join(value) if "kind" not in value else value["kind"])
def test_cells_that_differ_in_what_the_eval_reads_share_nothing(objective, change, reference_calls):
    def config(**overrides):
        top = {k: v for k, v in overrides.items() if k in ("eval_batch_size", "master_seed")}
        obj = {**objective, **{k: v for k, v in overrides.items() if k not in top}}
        return RunConfig.from_dict({**RANKING_BASE, "objective": obj, "rounds": 2, "eval_batch_size": 32,
                                    "method": "cgad", "delay": {"kind": "fixed", "tau": 0}, **top})

    cold = eval_pair(Simulation(config(**change)))
    STREAM_MEMO.clear()
    first = eval_pair(Simulation(config()))
    warm = eval_pair(Simulation(config(**change)))
    assert warm == cold != first
    assert len(reference_calls) == 3  # the warm memo gave the changed cell nothing
    assert len(kept("eval")) == 2


@pytest.mark.parametrize("objective", [MLP_TASK, QUAD], ids=lambda obj: obj["kind"])
def test_a_kept_eval_batch_is_read_only(objective):
    config = RunConfig.from_dict({**RANKING_BASE, "objective": objective, "rounds": 2, "method": "cgad",
                                  "delay": {"kind": "fixed", "tau": 0}})
    first, second = Simulation(config), Simulation(config)
    batch = second.eval_batch
    assert batch is first.eval_batch and kept("eval")
    for part in batch if isinstance(batch, tuple) else (batch,):
        with pytest.raises(ValueError, match="read-only"):
            part[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            np.multiply(part, 2.0, out=part)


def test_a_budget_too_small_for_the_eval_entry_keeps_nothing_and_moves_no_byte(monkeypatch, reference_calls):
    _, config = expand_sweep(RANKING_SPEC)[-1]
    assert config.delay["kind"] == "uniform_int"
    want = digest(config)
    # one byte short of the ranking eval pair: 256 inputs of 8 and 256 labels, float64, and the reference loss
    monkeypatch.setattr(STREAM_MEMO, "budget", 256 * 9 * 8 + 8 - 1)
    STREAM_MEMO.clear()
    del reference_calls[:]
    assert [digest(config), digest(config)] == [want, want]
    assert len(reference_calls) == 2 and not kept("eval")
    assert 0 < STREAM_MEMO.used <= STREAM_MEMO.budget  # the objective and the due schedule still fit


@pytest.fixture
def objective_calls(monkeypatch):
    """The objective specs `Simulation` builds an objective for, in call order."""
    calls, real = [], sim_mod.make_objective

    def counted(spec):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(sim_mod, "make_objective", counted)
    return calls


def run_bytes(result) -> tuple[str, bytes]:
    return serialize_result(result), result.trace.records.tobytes()


@pytest.mark.parametrize("spec,seed", [(FRAGMENT_SPEC, None), (RANKING_SPEC, 1)], ids=["fragment_matrix", "ranking"])
def test_cells_with_one_objective_build_it_once(spec, seed, objective_calls):
    configs = [config for cell, config in expand_sweep(spec) if seed is None or cell["seed_value"] == seed]
    sims = [Simulation(config) for config in configs]
    assert len(sims) == (20 if seed is None else 6) and len(objective_calls) == 1
    assert all(sim.obj is sims[0].obj for sim in sims)


@pytest.mark.warm_stream_memo
@pytest.mark.parametrize("spec", [RANKING_SPEC, FRAGMENT_SPEC], ids=["ranking", "fragment_matrix"])
def test_a_shared_objective_gives_every_cell_its_cold_json_and_trace(spec, objective_calls):
    configs = [config for _, config in expand_sweep(spec)]
    cold = []
    for config in configs:
        STREAM_MEMO.clear()
        cold.append(run_bytes(run_experiment(config)))
    STREAM_MEMO.clear()
    del objective_calls[:]
    assert [run_bytes(run_experiment(config)) for config in configs] == cold
    stepped = dict(sim_mod.run_lockstep([Simulation(config) for config in configs]))  # one instance, stacked
    assert [run_bytes(stepped[i]) for i in range(len(configs))] == cold
    assert len(objective_calls) == 1


def objective_state(obj) -> dict:
    """An objective's public attributes, arrays as bytes."""
    return {name: value.tobytes() if isinstance(value, np.ndarray) else value
            for name, value in vars(obj).items() if not name.startswith("_")}


@pytest.mark.parametrize("objective,change", [
    (QUAD, {"dimension": 13}),
    (QUAD, {"spectrum_lo": 1.0}),
    (QUAD, {"spectrum_hi": 3.0}),
    (QUAD, {"rotation_seed": 6}),
    (QUAD, {"noise_scale": 0.5}),
    (QUAD, {"init_scale": 0.5}),
    (MLP_TASK, {"layer_sizes": [8, 16, 1]}),
    (MLP_TASK, {"teacher_seed": 18}),
    (MLP_TASK, {"teacher_scale": 0.5}),
    (MLP_TASK, {"init_scale": 0.5}),
], ids=lambda value: "-".join(value) if "kind" not in value else value["kind"])
def test_cells_that_differ_in_an_objective_key_share_no_objective(objective, change, objective_calls):
    def config(**overrides):
        return RunConfig.from_dict({**RANKING_BASE, "objective": {**objective, **overrides}, "rounds": 2,
                                    "method": "cgad", "delay": {"kind": "fixed", "tau": 0}})

    cold = Simulation(config(**change))
    STREAM_MEMO.clear()
    first = Simulation(config())
    warm = Simulation(config(**change))
    assert warm.obj is not first.obj
    assert objective_state(warm.obj) == objective_state(cold.obj) != objective_state(first.obj)
    assert warm.global_params.tobytes() == cold.global_params.tobytes()
    assert len(objective_calls) == 3  # the warm memo gave the changed cell nothing
    assert len(kept("objective")) == 2


@pytest.mark.parametrize("objective", [MLP_TASK, QUAD], ids=lambda obj: obj["kind"])
def test_a_kept_objective_is_read_only(objective):
    config = RunConfig.from_dict({**RANKING_BASE, "objective": objective, "rounds": 2, "method": "cgad",
                                  "delay": {"kind": "fixed", "tau": 0}})
    first, second = Simulation(config), Simulation(config)
    obj = second.obj
    assert obj is first.obj and kept("objective")
    if objective["kind"] == "quadratic":
        arrays = [obj.matrix, obj.minimizer, obj.eigenvalues]
    else:
        arrays = [obj.teacher_params, *(view for layer in obj._teacher_layers for view in layer)]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            np.multiply(array, 2.0, out=array)


def test_a_budget_too_small_for_the_objective_keeps_none_and_moves_no_byte(monkeypatch, objective_calls):
    _, config = expand_sweep(FRAGMENT_SPEC)[-1]
    want = run_bytes(run_experiment(config))
    # one byte short of the dim-64 quadratic's arrays: its matrix, minimizer and eigenvalues, float64
    monkeypatch.setattr(STREAM_MEMO, "budget", (64 * 64 + 2 * 64) * 8 - 1)
    STREAM_MEMO.clear()
    del objective_calls[:]
    assert [run_bytes(run_experiment(config)) for _ in range(2)] == [want, want]
    assert len(objective_calls) == 2 and not kept("objective")
    assert 0 < STREAM_MEMO.used <= STREAM_MEMO.budget  # the noise rows and the due schedule still fit


@pytest.mark.parametrize("spec, schedules", [
    (FRAGMENT_SPEC, 1),
    ({**RANKING_SPEC, "base": {**RANKING_SPEC["base"], "rounds": 20}}, 9),  # one per (delay, seed) pair
], ids=["fragment_matrix", "ranking"])
def test_fragment_matrix_cells_share_one_due_schedule_and_one_noise_block_per_round(spec, schedules, monkeypatch):
    built, real = [], sim_mod.due_schedule

    def counted(schedule, workers, rounds):
        built.append(rounds)
        return real(schedule, workers, rounds)

    monkeypatch.setattr(sim_mod, "due_schedule", counted)
    sims = [Simulation(config) for _, config in expand_sweep(spec)]
    list(run_lockstep(sims))
    assert built == [20] * schedules
    shared = {}
    assert all(shared.setdefault(sim.delay, sim.queue.schedule) is sim.queue.schedule for sim in sims)
    assert len(shared) == schedules
    noise = kept("noise")
    if spec is FRAGMENT_SPEC:
        # one (K, 1, dim) block per round's K seed rows, all under one (noise_scale, dim, batch size)
        assert len(noise) == 20 and len({key[:4] for key in noise}) == 1
        assert all(block.shape == (4, 1, 64) and not block.flags.writeable for block in noise.values())
    else:
        assert not noise  # an mlp draws no noise rows


@pytest.mark.parametrize("rounds", [5, 12])
def test_due_schedules_of_other_chunks_are_their_own(rounds):
    base = {"version": 1, "objective": QUAD, "workers": 2, "inner_steps": 1, "method": "cgad",
            "delay": {"kind": "uniform_int", "lo": 0, "hi": 6}}
    want = digest(RunConfig.from_dict({**base, "rounds": rounds}))
    STREAM_MEMO.clear()
    digest(RunConfig.from_dict({**base, "rounds": 8}))  # a schedule of rounds [0, 8) in the memo
    assert digest(RunConfig.from_dict({**base, "rounds": rounds})) == want
