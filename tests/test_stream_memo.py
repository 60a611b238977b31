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
from stalelab.simulator import DelaySchedule, Simulation, delay_seeds, run_experiment, sample_delay
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
    assert STREAM_MEMO.used == used
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


def test_memo_draws_each_kept_row_once():
    memo = StreamMemo(budget=3 * (32 + 8))
    rows = np.arange(20, dtype=np.uint64).reshape(5, 4)
    calls = []

    def draw(row):
        calls.append(int(row[0]))
        return int(row.sum())

    for _ in range(2):
        assert [memo.draw(("p",), row, draw, 8) for row in rows] == [int(r.sum()) for r in rows]
    assert calls == [0, 4, 8, 12, 16, 12, 16]  # three rows kept, two drawn again
    assert memo.used == memo.budget
    assert memo.draw(("p",), rows, draw, 8) == [int(r.sum()) for r in rows]  # a stack: one value per row
    assert calls[-2:] == [12, 16]
    memo.draw(("q",), rows[0], draw, 8)
    assert calls[-1] == 0  # another params tuple has its own table


def test_trace_grows_when_a_run_is_stepped_past_its_rounds():
    raw = {"version": 1, "objective": QUAD, "workers": 2, "inner_steps": 1, "method": "pa_cgad",
           "delay": {"kind": "uniform_int", "lo": 0, "hi": 3}, "fragments": {"count": 4, "budget": 2}}
    whole = Simulation(RunConfig.from_dict({**raw, "rounds": 15})).run()
    stepped = Simulation(RunConfig.from_dict({**raw, "rounds": 3}))
    for _ in range(15):
        assert stepped.run_round()
    result = stepped.run()  # past config.rounds already, so it steps no further
    assert result.losses == whole.losses
    assert len(result.trace.records) == 2 * result.consumed_entries
    assert result.trace.records.tobytes() == whole.trace.records.tobytes()


def eval_pair(sim: Simulation) -> tuple[bytes, float]:
    batch = sim.eval_batch
    return b"".join(part.tobytes() for part in (batch if isinstance(batch, tuple) else (batch,))), sim.reference_loss


def eval_tables() -> dict:
    return {params: table for params, table in STREAM_MEMO.tables.items() if isinstance(params, tuple) and params[0] == "eval"}


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
    assert sum(len(table) for table in eval_tables().values()) == len(keys)


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
    assert sum(len(table) for table in eval_tables().values()) == 2


@pytest.mark.parametrize("objective", [MLP_TASK, QUAD], ids=lambda obj: obj["kind"])
def test_a_kept_eval_batch_is_read_only(objective):
    config = RunConfig.from_dict({**RANKING_BASE, "objective": objective, "rounds": 2, "method": "cgad",
                                  "delay": {"kind": "fixed", "tau": 0}})
    first, second = Simulation(config), Simulation(config)
    batch = second.eval_batch
    assert batch is first.eval_batch and eval_tables()
    for part in batch if isinstance(batch, tuple) else (batch,):
        with pytest.raises(ValueError, match="read-only"):
            part[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            np.multiply(part, 2.0, out=part)


def test_a_budget_too_small_for_the_eval_entry_keeps_nothing_and_moves_no_byte(monkeypatch, reference_calls):
    _, config = expand_sweep(RANKING_SPEC)[-1]
    assert config.delay["kind"] == "uniform_int"
    want = digest(config)
    monkeypatch.setattr(STREAM_MEMO, "budget", 18 * 1024)  # the ranking eval pair takes 18,440 bytes
    STREAM_MEMO.clear()
    del reference_calls[:]
    assert [digest(config), digest(config)] == [want, want]
    assert len(reference_calls) == 2 and not any(eval_tables().values())
    assert 0 < STREAM_MEMO.used <= STREAM_MEMO.budget  # the delays still fit
