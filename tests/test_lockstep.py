"""Lockstep bundles: sweep cells that read one batch stream run round-major in
one process and draw each round's batches once between them.

A bundle must give every cell the bytes it gives alone, fail only the cell
that fails, and really share its draws.
"""

import multiprocessing
import os

import numpy as np
import pytest

import stalelab.harness as harness_mod
import stalelab.simulator as sim_mod
from stalelab.config import RunConfig, expand_sweep
from stalelab.harness import _bundles, _run_cell, result_filename, run_sweep, serialize_result
from stalelab.optim import METHODS
from stalelab.simulator import RoundBatches, Simulation, run_experiment, run_lockstep, shares_round_batches

MLP = {"kind": "mlp_regression", "layer_sizes": [4, 8, 8, 1], "teacher_seed": 3,
       "teacher_scale": 0.5, "init_scale": 0.5}
DELAYS = [{"kind": "fixed", "tau": 0}, {"kind": "fixed", "tau": 2}, {"kind": "uniform_int", "lo": 0, "hi": 3}]


def mlp_raw(**overrides):
    raw = {"version": 1, "objective": MLP, "workers": 2, "inner_steps": 3, "rounds": 6, "batch_size": 8,
           "eval_batch_size": 16, "method": "cgad", "delay": DELAYS[2], "master_seed": 4}
    raw.update(overrides)
    return raw


def mlp_config(**overrides):
    return RunConfig.from_dict(mlp_raw(**overrides))


def mlp_spec(seeds):
    return {"version": 1, "base": mlp_raw(),
            "axes": {"method": ["cgad", "nesterov"], "delay": DELAYS, "seed": seeds}}


def alone(config):
    result = run_experiment(config)
    return serialize_result(result), result.trace.records.tobytes()


@pytest.mark.parametrize("quantize", [False, True])
def test_a_bundle_gives_every_cell_its_bytes_alone(quantize):
    frags = {"count": 3, "budget": 2}
    configs = [mlp_config(method=method, quantize_queue=quantize, fragments=frags, rounds=4 + i % 3)
               for i, method in enumerate(METHODS)]
    # goes non-finite mid-run, once its first entries apply
    configs.append(mlp_config(method="nesterov", quantize_queue=quantize, fragments=frags, rounds=8,
                              outer={"eta": 1e300}, delay=DELAYS[1]))
    slot = RoundBatches()
    sims = [Simulation(config, slot) for config in configs]
    assert all(sim.slot is slot for sim in sims)
    with np.errstate(over="ignore", invalid="ignore"):
        outcomes = dict(run_lockstep(sims))
        expected = [alone(config) for config in configs]
    assert sorted(outcomes) == list(range(len(configs)))
    for i, config in enumerate(configs):
        result = outcomes[i]
        assert (serialize_result(result), result.trace.records.tobytes()) == expected[i], config.method
        assert result.rounds_completed == config.rounds or result.diverged
    assert outcomes[len(METHODS)].diverged and 2 <= outcomes[len(METHODS)].rounds_completed < 8


def test_cells_step_round_major(monkeypatch):
    steps = []
    real = Simulation.run_round

    def record(self, workers=None):
        steps.append((self.config.method, self.round))
        return real(self, workers)

    monkeypatch.setattr(Simulation, "run_round", record)
    configs = [mlp_config(method="cgad", rounds=3), mlp_config(method="adam", rounds=5)]
    list(run_lockstep([Simulation(config, RoundBatches()) for config in configs]))
    assert steps == [("cgad", 0), ("adam", 0), ("cgad", 1), ("adam", 1), ("cgad", 2), ("adam", 2),
                     ("adam", 3), ("adam", 4)]


def test_a_bundle_draws_each_round_once(tmp_path, monkeypatch):
    calls = []
    real = sim_mod.sample_batch

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(sim_mod, "sample_batch", counted)
    configs = [mlp_config(method=method) for method in ("cgad", "nesterov", "adam")]
    assert _run_cell([config.resolved for config in configs], str(tmp_path)) == [None] * 3
    rounds, inner_steps = configs[0].rounds, configs[0].inner_steps
    assert len(calls) == rounds * inner_steps  # not 3 * rounds * inner_steps
    monkeypatch.undo()
    for config in configs:
        assert (tmp_path / result_filename(config.hash, config.master_seed)).read_text() == alone(config)[0]


def test_a_raising_cell_fails_only_itself(tmp_path, monkeypatch):
    configs = [mlp_config(method=method) for method in ("cgad", "nesterov", "adam")]
    real = Simulation.run_round

    def fail_nesterov_in_round_2(self, workers=None):
        if self.config.method == "nesterov" and self.round == 2:
            raise RuntimeError("synthetic failure in round 2")
        return real(self, workers)

    monkeypatch.setattr(Simulation, "run_round", fail_nesterov_in_round_2)
    cells = [config.resolved for config in configs] + [{**configs[0].resolved, "rounds": -1}]
    errors = _run_cell(cells, str(tmp_path))
    assert errors[0] is None and errors[2] is None
    assert errors[1] == "RuntimeError: synthetic failure in round 2"
    assert errors[3].startswith("ConfigError: ")
    monkeypatch.undo()
    assert not (tmp_path / result_filename(configs[1].hash, configs[1].master_seed)).exists()
    for config in (configs[0], configs[2]):
        assert (tmp_path / result_filename(config.hash, config.master_seed)).read_text() == alone(config)[0]


def test_bundles_group_the_cells_of_one_batch_stream():
    cells = expand_sweep(mlp_spec([0, 1, 2]))  # 2 methods x 3 delays x 3 seeds
    for jobs, sizes in ((1, [6, 6, 6]), (2, [3] * 6), (4, [1, 2, 1, 2] * 3), (8, [1] * 18)):
        bundles = _bundles(cells, jobs)
        assert [len(bundle) for bundle in bundles] == sizes
        assert [cell for bundle in bundles for cell in bundle] == sorted(
            cells, key=lambda cell: [c[1].master_seed for c in cells].index(cell[1].master_seed))
        assert all(len({cfg.master_seed for _, cfg in bundle}) == 1 for bundle in bundles)

    # another objective, batch size, worker count or inner step count is another stream
    varied = [(desc, RunConfig.from_dict({**cfg.resolved, **change}))
              for (desc, cfg), change in zip(cells[:5], ({}, {"batch_size": 4}, {"workers": 3},
                                                         {"inner_steps": 2},
                                                         {"objective": {**MLP, "teacher_seed": 4}}))]
    assert [len(bundle) for bundle in _bundles(varied, 2)] == [1] * 5


def test_cells_without_a_shareable_round_run_alone():
    quadratic = {"kind": "quadratic", "dimension": 8, "spectrum_lo": 0.5, "spectrum_hi": 2.0, "rotation_seed": 1}
    wide = {**MLP, "layer_sizes": [512, 1]}  # 2 x 3 x 128 rows of 513 floats: past STREAM_MEMO_BYTES
    for objective, batch_size in ((quadratic, 8), (wide, 128)):
        spec = {"version": 1, "base": mlp_raw(objective=objective, batch_size=batch_size),
                "axes": {"method": ["cgad", "nesterov"], "seed": [0]}}
        cells = expand_sweep(spec)
        assert not shares_round_batches(cells[0][1])
        assert [len(bundle) for bundle in _bundles(cells, 2)] == [1, 1]
        assert Simulation(cells[0][1], RoundBatches()).slot is None
    assert shares_round_batches(mlp_config(objective={**MLP, "layer_sizes": [512, 1]}, batch_size=32))


def test_the_slot_keeps_one_round_of_read_only_batches():
    config = mlp_config()
    slot = RoundBatches()
    sim = Simulation(config, slot)
    sim.run_round()
    first = slot.batches
    assert len(first) == config.inner_steps
    assert all(not part.flags.writeable for batch in first for part in batch)
    sim.run_round()
    assert slot.batches is not first and len(slot.batches) == config.inner_steps


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the crash is patched in before the pool forks its children")
def test_dead_bundle_child_fails_only_its_cell_and_a_rerun_resumes(tmp_path, monkeypatch):
    spec = mlp_spec([0, 1])
    cells = expand_sweep(spec)
    doomed = cells[0][1]
    real_round = Simulation.run_round

    def crash_on_doomed(self, workers=None):
        if (self.config.hash, self.config.master_seed) == (doomed.hash, doomed.master_seed) and self.round == 2:
            os._exit(3)  # the child dies without raising, mid-bundle
        return real_round(self, workers)

    real_pass = harness_mod._pool_pass
    passes = []

    def record_pass(bundles, out, workers):
        passes.append(([len(bundle) for bundle in bundles], workers))
        return real_pass(bundles, out, workers)

    monkeypatch.setattr(Simulation, "run_round", crash_on_doomed)
    monkeypatch.setattr(harness_mod, "_pool_pass", record_pass)
    log = []
    rows, errors = run_sweep(spec, tmp_path, jobs=2, log=log.append)
    assert log[0] == "sweep: 12 cells, 0 already done, 12 to run in 4 bundles, jobs=2"
    # the first pass runs bundles; the retry passes run the cells it lost one at a time
    assert passes[0] == ([3, 3, 3, 3], 2)
    assert passes[1][1] == 2 and set(passes[1][0]) == {1}
    assert 1 <= len(passes[2:]) <= 4 and all(p == ([1], 1) for p in passes[2:])
    assert len(errors) == 1 and "BrokenProcessPool" in errors[0]
    assert {row.config_hash: row.missing for row in rows if row.missing} == {doomed.hash: 1}
    assert len(list(tmp_path.glob("*_s*.json"))) == len(cells) - 1

    monkeypatch.undo()
    log.clear()
    rows, errors = run_sweep(spec, tmp_path, jobs=2, log=log.append)
    assert errors == []
    assert log[0] == "sweep: 12 cells, 11 already done, 1 to run in 1 bundle, jobs=2"
    assert all(row.n == 2 and row.missing == 0 for row in rows)
    assert (tmp_path / result_filename(doomed.hash, doomed.master_seed)).read_text() == alone(doomed)[0]
