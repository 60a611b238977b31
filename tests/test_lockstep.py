"""Lockstep bundles: sweep cells whose inner phases read the same inputs (one
`phase_key`) run round-major in one process and step each round's inner
phases as one stacked phase, which draws each batch once for all of them.

A bundle must give every cell the bytes it gives alone, fail only the cell
that fails, and really share its draws and its phases.
"""

import multiprocessing
import os
import time

import numpy as np
import pytest

import stalelab.harness as harness_mod
import stalelab.simulator as sim_mod
from stalelab.config import RunConfig, expand_sweep
from stalelab.harness import _bundles, _run_cell, result_filename, run_sweep, serialize_result
from stalelab.objective import REFERENCE_INITS, VIEWS_KEPT, MlpRegressionObjective, mlp_dim
from stalelab.optim import METHODS
from stalelab.simulator import Simulation, phase_key, run_experiment, run_lockstep

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


def assert_alone_bytes(sims, configs):
    """Run sims in lockstep; each config's result JSON and trace rows must be its bytes alone."""
    outcomes = dict(run_lockstep(sims))
    assert sorted(outcomes) == list(range(len(configs)))
    for i, config in enumerate(configs):
        result = outcomes[i]
        assert (serialize_result(result), result.trace.records.tobytes()) == alone(config), i


@pytest.mark.parametrize("quantize", [False, True])
def test_a_bundle_gives_every_cell_its_bytes_alone(quantize):
    frags = {"count": 3, "budget": 2}
    configs = [mlp_config(method=method, quantize_queue=quantize, fragments=frags, rounds=4 + i % 3)
               for i, method in enumerate(METHODS)]
    # goes non-finite mid-run, once its first entries apply
    configs.append(mlp_config(method="nesterov", quantize_queue=quantize, fragments=frags, rounds=8,
                              outer={"eta": 1e300}, delay=DELAYS[1]))
    assert len({phase_key(config) for config in configs}) == 1  # one stack group
    sims = [Simulation(config) for config in configs]
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

    def record(self, deltas=None):
        steps.append((self.config.method, self.round))
        return real(self, deltas)

    monkeypatch.setattr(Simulation, "run_round", record)
    configs = [mlp_config(method="cgad", rounds=3), mlp_config(method="adam", rounds=5)]
    list(run_lockstep([Simulation(config) for config in configs]))
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


def test_a_bundle_steps_each_round_as_one_stacked_phase(tmp_path, monkeypatch):
    calls = {"loss_and_grad": [], "inner_adamw_step": []}
    real_grad, real_step = MlpRegressionObjective.loss_and_grad, sim_mod.inner_adamw_step

    def counted_grad(self, params, batch, out=None):
        calls["loss_and_grad"].append(params.shape)
        return real_grad(self, params, batch, out)

    def counted_step(params, grad, state, cfg):
        calls["inner_adamw_step"].append(params.shape)
        return real_step(params, grad, state, cfg)

    monkeypatch.setattr(MlpRegressionObjective, "loss_and_grad", counted_grad)
    monkeypatch.setattr(sim_mod, "inner_adamw_step", counted_step)
    configs = [mlp_config(method=method) for method in ("cgad", "nesterov", "adam")]
    assert _run_cell([config.resolved for config in configs], str(tmp_path)) == [None] * 3
    cfg = configs[0]
    stacked = (3 * cfg.workers, mlp_dim(MLP["layer_sizes"]))
    for name, shapes in calls.items():  # not 3 * rounds * inner_steps calls on (K, dim) stacks
        assert shapes == [stacked] * (cfg.rounds * cfg.inner_steps), name
    monkeypatch.undo()
    for config in configs:
        assert (tmp_path / result_filename(config.hash, config.master_seed)).read_text() == alone(config)[0]


@pytest.mark.parametrize("varied", ["inner", "rounds"])
def test_a_stack_reads_each_cell_own_inner_config_and_rounds(varied):
    inners = [{}, {}, {"lr": 1e-2}, {"weight_decay": 0.1}, {"beta1": 0.8, "beta2": 0.99}, {"lr": 1e-2}]
    if varied == "inner":
        configs = [mlp_config(method=method, inner=inner, rounds=5)
                   for method, inner in zip(("cgad", "adam", "cgad", "nesterov", "adam", "nesterov"), inners)]
    else:
        configs = [mlp_config(method=method, rounds=rounds, inner={"lr": 1e-2})
                   for method, rounds in (("cgad", 2), ("adam", 6), ("nesterov", 4), ("cgad", 5))]
    assert_alone_bytes([Simulation(config) for config in configs], configs)


def test_linear_noise_runs_stack_too(monkeypatch):
    stacks, real = [], sim_mod.run_inner_phase

    def phase(obj, seeds, snapshots, inner_cfg, batch_size):
        stacks.append(len(snapshots))
        return real(obj, seeds, snapshots, inner_cfg, batch_size)

    monkeypatch.setattr(sim_mod, "run_inner_phase", phase)
    quadratic = {"kind": "quadratic", "dimension": 8, "spectrum_lo": 0.5, "spectrum_hi": 2.0, "rotation_seed": 1}
    configs = [mlp_config(objective=quadratic, method=method, quantize_queue=quantize)
               for method, quantize in (("cgad", False), ("adam", True), ("nesterov", False))]
    assert_alone_bytes([Simulation(config) for config in configs], configs)
    rounds = configs[0].rounds
    assert stacks == [3] * rounds + [1] * (3 * rounds)  # the lockstep stacks, then each run alone


def test_runs_at_different_rounds_do_not_share_a_stack():
    configs = [mlp_config(method=method, rounds=6, inner={"lr": 1e-2}) for method in ("cgad", "adam", "nesterov")]
    sims = [Simulation(config) for config in configs]
    for _ in range(2):
        assert sims[1].run_round()
    assert_alone_bytes(sims, configs)


def test_only_the_run_a_stack_reads_hashes_batch_seeds():
    configs = [mlp_config(method=method) for method in ("cgad", "nesterov", "adam")]
    sims = [Simulation(config) for config in configs]
    list(run_lockstep(sims))
    assert sims[0]._batch_seeds is not None
    assert sims[1]._batch_seeds is None and sims[2]._batch_seeds is None
    # every run reads a due schedule, and runs of one delay schedule share the memo's one
    assert sims[0].queue.schedule is not None
    assert all(sim.queue.schedule is sims[0].queue.schedule for sim in sims)


@pytest.mark.parametrize("methods", [("cgad", "nesterov", "adam"), METHODS[:VIEWS_KEPT - 2]], ids=len)
def test_a_bundle_unpacks_each_cells_params_once(monkeypatch, methods):
    # the cells share one mlp instance; each cell's eval must not evict the others' views
    unpacked, real = [], MlpRegressionObjective.unpack

    def counted(self, params):
        unpacked.append(params.shape)
        return real(self, params)

    monkeypatch.setattr(MlpRegressionObjective, "unpack", counted)
    configs = [mlp_config(method=method, rounds=20) for method in methods]
    sims = [Simulation(config) for config in configs]
    built = len(unpacked)  # the teacher, then the reference inits of the cells' one eval pair
    assert built <= 1 + REFERENCE_INITS
    outcomes = dict(run_lockstep(sims))
    assert all(outcomes[i].rounds_completed == 20 for i in range(len(sims)))
    # two buffers (params, gradient) per stacked phase, and each cell's (dim,) params at its first eval only
    stacked, alone = (len(sims) * configs[0].workers, sims[0].obj.dim), (sims[0].obj.dim,)
    assert unpacked[built:] == [stacked] * 2 + [alone] * len(sims) + [stacked] * (2 * 19)


def test_cells_of_a_stack_hold_their_own_payloads():
    configs = [mlp_config(method=method, rounds=4, delay={"kind": "fixed", "tau": 16})
               for method in ("cgad", "nesterov", "adam")]
    sims = [Simulation(config) for config in configs]
    list(run_lockstep(sims))
    payloads = [[entry.payload for entry in sim.queue.in_flight(sim.round)] for sim in sims]
    assert all(len(held) == 4 * configs[0].workers for held in payloads)
    for a in range(len(sims)):
        for b in range(a + 1, len(sims)):
            assert not any(np.shares_memory(x, y) for x in payloads[a] for y in payloads[b]), (a, b)

    def owner(array):
        while array.base is not None:
            array = array.base
        return array

    # a payload row views its own run's ring, not a slice of the stack's (B*K, dim) workspace
    for sim, held in zip(sims, payloads):
        assert all(owner(x) is sim.queue.ring for x in held)
        assert sim.queue.ring.shape[1:] == (configs[0].workers, sims[0].obj.dim)
    for a, b in zip(sims, configs):
        assert [(e.worker, e.produced_round) for e in a.queue.in_flight(a.round)] == [
            (w, r) for r in range(4) for w in range(b.workers)]


def test_a_raising_stacked_phase_steps_its_runs_alone(monkeypatch):
    configs = [mlp_config(method=method) for method in ("cgad", "nesterov", "adam")]
    sims = [Simulation(config) for config in configs]
    doomed, stepping = sims[1], []
    real_round, real_phase = Simulation.run_round, sim_mod.run_inner_phase
    phases = []

    def tracked_round(self, deltas=None):
        stepping.append(self)
        try:
            return real_round(self, deltas)
        finally:
            stepping.pop()

    def phase(obj, seeds, snapshots, inner_cfg, batch_size):
        r = stepping[-1].round if stepping else sims[0].round  # a stack runs outside run_round
        phases.append((r, len(snapshots)))
        if r == 2 and (not stepping or stepping[-1] is doomed):
            raise RuntimeError("synthetic failure of round 2's inner phase")
        return real_phase(obj, seeds, snapshots, inner_cfg, batch_size)

    monkeypatch.setattr(Simulation, "run_round", tracked_round)
    monkeypatch.setattr(sim_mod, "run_inner_phase", phase)
    outcomes = dict(run_lockstep(sims))
    monkeypatch.undo()
    assert str(outcomes[1]) == "synthetic failure of round 2's inner phase"
    # the stack of round 2 raised, so each run stepped alone; after that the two left stack again
    assert phases[:3] == [(0, 3), (1, 3), (2, 3)] and phases[3:6] == [(2, 1)] * 3
    assert phases[6:] == [(r, 2) for r in range(3, configs[0].rounds)]
    for i in (0, 2):
        result = outcomes[i]
        assert (serialize_result(result), result.trace.records.tobytes()) == alone(configs[i])


def test_a_raising_cell_fails_only_itself(tmp_path, monkeypatch):
    configs = [mlp_config(method=method) for method in ("cgad", "nesterov", "adam")]
    real = Simulation.run_round

    def fail_nesterov_in_round_2(self, deltas=None):
        if self.config.method == "nesterov" and self.round == 2:
            raise RuntimeError("synthetic failure in round 2")
        return real(self, deltas)

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

    # another objective, batch size, worker count, inner step count or inner config is another stack group
    varied = [(desc, RunConfig.from_dict({**cfg.resolved, **change}))
              for (desc, cfg), change in zip(cells[:6], ({}, {"batch_size": 4}, {"workers": 3},
                                                         {"inner_steps": 2},
                                                         {"objective": {**MLP, "teacher_seed": 4}},
                                                         {"inner": {**cells[0][1].resolved["inner"], "lr": 1e-2}}))]
    assert [len(bundle) for bundle in _bundles(varied, 2)] == [1] * 6


def test_a_bundle_is_one_stack_group(tmp_path, monkeypatch):
    stacks, real = [], sim_mod.run_inner_phase

    def phase(obj, seeds, snapshots, inner_cfg, batch_size):
        stacks.append(len(snapshots))
        return real(obj, seeds, snapshots, inner_cfg, batch_size)

    monkeypatch.setattr(sim_mod, "run_inner_phase", phase)
    spec = {"version": 1, "base": mlp_raw(rounds=3),
            "axes": {"method": ["cgad", "nesterov"], "inner.lr": [1e-3, 1e-2], "seed": [0, 1]}}
    bundles = _bundles(expand_sweep(spec), 1)
    assert sum(map(len, bundles)) == 8 and all(len(bundle) > 1 for bundle in bundles)
    for bundle in bundles:
        stacks.clear()
        assert _run_cell([cfg.resolved for _, cfg in bundle], str(tmp_path)) == [None] * len(bundle)
        assert stacks == [len(bundle)] * 3  # every cell of the bundle in one stack each round


def test_linear_noise_cells_run_alone_and_wide_mlp_cells_bundle(tmp_path):
    quadratic = {"kind": "quadratic", "dimension": 8, "spectrum_lo": 0.5, "spectrum_hi": 2.0, "rotation_seed": 1}
    spec = {"version": 1, "base": mlp_raw(objective=quadratic), "axes": {"method": ["cgad", "nesterov"], "seed": [0]}}
    assert [len(bundle) for bundle in _bundles(expand_sweep(spec), 1)] == [1, 1]

    wide = {**MLP, "layer_sizes": [512, 1]}  # a round's batches are 2 x 3 x 128 rows of 513 floats, ~3 MB
    spec = {"version": 1, "base": mlp_raw(objective=wide, batch_size=128, rounds=3),
            "axes": {"method": ["cgad", "nesterov"], "seed": [0]}}
    (bundle,) = _bundles(expand_sweep(spec), 1)
    assert len(bundle) == 2
    assert _run_cell([cfg.resolved for _, cfg in bundle], str(tmp_path)) == [None, None]
    for _, config in bundle:
        assert (tmp_path / result_filename(config.hash, config.master_seed)).read_text() == alone(config)[0]


def test_a_bundle_splits_its_wall_time_among_its_cells():
    configs = [mlp_config(method=method, rounds=8) for method in ("cgad", "nesterov", "adam")]
    sims = [Simulation(config) for config in configs]
    start = time.perf_counter()
    results = [result for _, result in run_lockstep(sims)]
    elapsed = time.perf_counter() - start
    walls = [result.wall_time_s for result in results]
    # the walls add up disjoint perf_counter intervals inside the loop, a stacked phase split evenly;
    # charging each cell the whole phase would sum to well over the elapsed time
    assert all(wall > 0.0 for wall in walls)
    assert sum(walls) <= elapsed


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the crash is patched in before the pool forks its children")
def test_dead_bundle_child_fails_only_its_cell_and_a_rerun_resumes(tmp_path, monkeypatch):
    spec = mlp_spec([0, 1])
    cells = expand_sweep(spec)
    doomed = cells[0][1]
    real_round = Simulation.run_round

    def crash_on_doomed(self, deltas=None):
        if (self.config.hash, self.config.master_seed) == (doomed.hash, doomed.master_seed) and self.round == 2:
            os._exit(3)  # the child dies without raising, mid-bundle
        return real_round(self, deltas)

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
