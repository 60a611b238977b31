"""The stream memo and the per-round outer plan change no result byte.

Cells of a sweep that share a master seed draw the same noise and delay
streams, so the memo hands a later cell what an earlier one drew. These
tests check that a warm memo gives the bytes of a cold one, that a memo
key holds every value its draw reads, and that the budget holds.
"""

import hashlib

import numpy as np
import pytest

from stalelab.config import RunConfig, expand_sweep
from stalelab.harness import serialize_result
from stalelab.objective import Shard, batch_seeds, make_objective, sample_batch
from stalelab.seeding import STREAM_MEMO, StreamMemo
from stalelab.simulator import DelaySchedule, Simulation, delay_seeds, run_experiment, sample_delay
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
    for _ in range(12):
        assert stepped.run_round()
    result = stepped.run()
    assert result.losses == whole.losses
    assert len(result.trace.records) == 2 * result.consumed_entries
    assert result.trace.records.tobytes() == whole.trace.records.tobytes()
