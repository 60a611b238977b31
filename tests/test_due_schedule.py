"""The queue's due order against a plain pending-dict oracle.

The oracle is the simplest queue that states the protocol: each round every
worker enqueues one entry at (round + tau) in a dict keyed by due round, and
the round pops its due entries sorted by (worker, produced round). A run's
trace rows (one per entry at a one-fragment budget) must give the same
(due round, worker, produced round, tau) sequence.
"""

import numpy as np
import pytest

import stalelab.simulator as sim_mod
from stalelab.config import RunConfig
from stalelab.simulator import DelaySchedule, Simulation, delay_seeds, sample_delay


def oracle(delay: DelaySchedule, workers: int, rounds: int) -> list[tuple[int, int, int, int]]:
    """(due round, worker, produced round, tau) of every entry that comes due in [0, rounds), in apply order."""
    pending: dict[int, list[tuple[int, int, int]]] = {}
    applied = []
    for r in range(rounds):
        seeds = delay_seeds(delay, workers, range(r, r + 1))
        for w in range(workers):
            (tau,) = sample_delay(delay, seeds[w, :1])
            pending.setdefault(r + tau, []).append((w, r, tau))
        for w, produced, tau in sorted(pending.pop(r, [])):
            applied.append((r, w, produced, tau))
    return applied


def tiny_config(delay: dict, workers: int, rounds: int, **overrides) -> RunConfig:
    return RunConfig.from_dict({
        "version": 1,
        "objective": {"kind": "quadratic", "dimension": 4, "spectrum_lo": 0.5, "spectrum_hi": 2.0,
                      "rotation_seed": 3, "noise_scale": 0.05},
        "workers": workers, "inner_steps": 1, "rounds": rounds, "batch_size": 2, "eval_batch_size": 4,
        "method": "nesterov", "outer": {"eta": 1e-3}, "delay": delay, "master_seed": 7, **overrides,
    })


def applied_sequence(sim: Simulation, rounds: int) -> list[tuple[int, int, int, int]]:
    for _ in range(rounds):
        assert sim.run_round()
    records = sim.result(0.0).trace.records
    return list(zip(*(records[name].tolist() for name in ("round", "worker", "produced_round", "tau"))))


DELAYS = {
    "fixed:0": {"kind": "fixed", "tau": 0},
    "fixed:3": {"kind": "fixed", "tau": 3},
    "fixed:past-the-run": {"kind": "fixed", "tau": 40},
    "uniform:0-5": {"kind": "uniform_int", "lo": 0, "hi": 5},
    "uniform:2-7": {"kind": "uniform_int", "lo": 2, "hi": 7},
    "uniform:int64-max": {"kind": "uniform_int", "lo": 0, "hi": 2**63 - 1},
    "exp:0.3/8": {"kind": "exponential", "rate": 0.3, "tau_max": 8},
    "exp:tiny-rate": {"kind": "exponential", "rate": 1e-300, "tau_max": 6},
}


@pytest.mark.parametrize("workers", [1, 3, 4])
@pytest.mark.parametrize("delay", list(DELAYS.values()), ids=list(DELAYS))
def test_due_order_matches_the_pending_dict(delay, workers):
    sim = Simulation(tiny_config(delay, workers, 24))
    assert applied_sequence(sim, 24) == oracle(sim.delay, workers, 24)


def test_a_tiny_rate_clamps_every_delay_to_tau_max():
    sim = Simulation(tiny_config(DELAYS["exp:tiny-rate"], 3, 12))
    seen = applied_sequence(sim, 12)
    assert seen and {tau for *_, tau in seen} == {6}
    assert seen == oracle(sim.delay, 3, 12)


@pytest.mark.parametrize("delay", ["uniform:0-5", "exp:0.3/8", "fixed:3"])
def test_reversed_workers_keep_the_due_order(delay):
    sim = Simulation(tiny_config(DELAYS[delay], 4, 20))
    sim.workers.reverse()
    assert applied_sequence(sim, 20) == oracle(sim.delay, 4, 20)


@pytest.mark.parametrize("delay", ["uniform:0-5", "uniform:2-7", "exp:0.3/8", "fixed:3", "fixed:past-the-run"])
def test_seed_table_windows_of_three_rounds_keep_the_due_order(delay, monkeypatch):
    monkeypatch.setattr(sim_mod, "SEED_TABLE_ROWS", 3 * 3 * 1)  # three rounds per table at K=3, H=1
    sim = Simulation(tiny_config(DELAYS[delay], 3, 26))
    seen = applied_sequence(sim, 26)
    assert seen == oracle(sim.delay, 3, 26)
    if delay != "fixed:past-the-run":
        assert any(produced // 3 != due // 3 for due, _, produced, _ in seen)  # some entry crosses a window


def test_the_oracle_sees_entries_from_every_worker_and_age():
    seen = oracle(DelaySchedule(kind="uniform_int", lo=0, hi=5, seed=3), 4, 30)
    assert {w for _, w, _, _ in seen} == set(range(4))
    assert {tau for *_, tau in seen} == set(range(6))
    assert all(due == produced + tau for due, _, produced, tau in seen)
    assert np.all(np.diff([due for due, *_ in seen]) >= 0)


def run_bytes(sim: Simulation, rounds: int) -> tuple:
    for _ in range(rounds):
        assert sim.run_round()
    return sim.global_params.tobytes(), sim.losses, sim.result(0.0).trace.records.tobytes()


@pytest.mark.parametrize("quantize", [False, True])
@pytest.mark.parametrize("delay", ["uniform:0-5", "uniform:2-7", "exp:0.3/8", "fixed:3"])
def test_a_ring_that_grows_between_windows_moves_no_bit(delay, quantize, monkeypatch):
    """Seed tables of three rounds give the bytes of one table, and the ring, sized once, spans at most
    the largest delay plus one."""
    config = tiny_config(DELAYS[delay], 3, 20, quantize_queue=quantize)
    whole = run_bytes(Simulation(config), 20)
    monkeypatch.setattr(sim_mod, "SEED_TABLE_ROWS", 3 * 3 * 1)
    windowed = Simulation(config)
    assert run_bytes(windowed, 20) == whole
    assert windowed.queue.span <= 1 + max(DELAYS[delay].get(k, 0) for k in ("tau", "hi", "tau_max"))


def test_due_schedule_arrays_are_flat_read_only_and_in_due_order():
    delay = DelaySchedule(kind="uniform_int", lo=0, hi=5, seed=3)
    built = sim_mod.due_schedule(delay, 4, 30)
    worker, produced, tau = built.entries.T
    assert built.entries.shape == (120, 3)
    keys = list(zip((produced + tau).tolist(), worker.tolist(), produced.tolist()))
    assert keys == sorted(keys)
    for d in range(30):
        due = built.entries[built.bounds[d]:built.bounds[d + 1]]
        assert np.all(due[:, 1] + due[:, 2] == d)
    assert np.all((produced + tau)[built.bounds[-1]:] >= 30)
    assert built.reach == int(np.minimum(tau, 29 - produced).max())
    for array in (built.entries, built.bounds):
        assert not array.flags.writeable


@pytest.mark.parametrize("delay", ["uniform:0-5", "exp:0.3/8", "uniform:int64-max"])
def test_a_due_schedule_drawn_in_windows_of_three_rounds_is_the_same_bytes(delay, monkeypatch):
    schedule = DelaySchedule(seed=3, **DELAYS[delay])
    whole = sim_mod.due_schedule(schedule, 4, 30)
    monkeypatch.setattr(sim_mod, "SEED_TABLE_ROWS", 3 * 4)  # three rounds of delays per table at K=4
    windowed = sim_mod.due_schedule(schedule, 4, 30)
    assert windowed.entries.tobytes() == whole.entries.tobytes()
    assert windowed.bounds.tobytes() == whole.bounds.tobytes() and windowed.reach == whole.reach


def test_delays_past_the_last_round_never_come_due_and_take_no_ring():
    delay = DelaySchedule(kind="uniform_int", lo=0, hi=2**63 - 1, seed=3)
    built = sim_mod.due_schedule(delay, 3, 5)
    assert np.all(built.entries[:, 1] + built.entries[:, 2] >= 0)  # no sum wrapped around
    assert built.reach <= 4
    sim = Simulation(tiny_config(DELAYS["uniform:int64-max"], 3, 8))
    run_bytes(sim, 8)
    assert sim.queue.span <= 8


@pytest.mark.parametrize("quantize", [False, True], ids=["raw", "quantized"])
def test_entries_in_flight_at_the_end_hold_their_payloads(quantize):
    sim = Simulation(tiny_config(DELAYS["uniform:0-5"], 3, 12, quantize_queue=quantize))
    records = run_bytes(sim, 12)[2]
    in_flight = sim.queue.in_flight(12)
    consumed = len(np.frombuffer(records, sim_mod.ApplyRecord))
    assert in_flight and consumed + len(in_flight) == 3 * 12
    assert all(e.produced_round + e.tau >= 12 for e in in_flight)
    # the payload of an entry in flight is the delta its worker produced, as delivered (a quantized
    # queue's round trip): replay the run, recomputing each round's inner phase before stepping it
    replay, delivered = Simulation(sim.config), {}
    fragments = replay.outer_state.fragments
    while not replay.done:
        (deltas,) = sim_mod.run_inner_phase(replay.obj, replay.workers, replay.round_batch_seeds(),
                                            replay.global_params[None], replay.config.inner)
        if quantize:
            deltas = sim_mod.dequantize_payload(sim_mod.quantize_payload(deltas, fragments), fragments)
        delivered[replay.round] = deltas
        assert replay.run_round()
    for entry in in_flight:
        assert entry.payload.tobytes() == delivered[entry.produced_round][entry.worker].tobytes()


def test_quantized_codes_match_the_sign_times_floor_formula():
    rng = np.random.default_rng(5)
    fragments = sim_mod.Fragments.even_split(40, 5)
    grad = rng.standard_normal((6, 40)) * 10.0 ** rng.integers(-3, 3, (6, 1))
    grad[0, :8] = 0.0  # an all-zero fragment
    grad[1, :8] = -0.0
    grad[2, ::3] = -0.0  # signed zeros inside live fragments
    grad[3, 10] = grad[3, 10:16].max() * 127.5 / 127.0  # ties round away from zero
    got = sim_mod.quantize_payload(grad, fragments)
    abs_grad = np.abs(grad)
    scales = np.maximum.reduceat(abs_grad, fragments.starts, axis=-1) / 127.0
    divisor = np.repeat(np.where(scales > 0.0, scales, 1.0), fragments.sizes, axis=-1)
    want = np.clip(np.sign(grad) * np.floor(abs_grad / divisor + 0.5), -127, 127).astype(np.int8)
    assert got.codes.tobytes() == want.tobytes() and got.scales.tobytes() == scales.tobytes()
    assert grad[1, 0] == 0.0 and np.signbit(grad[1, 0])  # the payload is left as it was
