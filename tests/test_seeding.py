import numpy as np
import pytest

import stalelab.simulator as sim_mod
from stalelab.config import RunConfig
from stalelab.seeding import derive_seed, entropy_words, seed_table, seeded_generator
from stalelab.simulator import Simulation

HEADS = [0, 5, 2**32 - 1, 2**32, 2**64 - 1, derive_seed(0, "shard", 1), derive_seed(7, "delay")]
TAILS = np.array([[0, 0], [0, 1], [3, 0], [2**16, 7], [2**16 + 1, 2**20], [2**32 - 1, 2**31]])


def reference(head, tail):
    return np.random.SeedSequence((head, *map(int, tail)))


class TestEntropyWords:
    @pytest.mark.parametrize("value,words", [
        (0, [0]), (5, [5]), (2**32 - 1, [2**32 - 1]), (2**32, [0, 1]),
        (2**64 - 1, [2**32 - 1, 2**32 - 1]), (2**64, [0, 0, 1]),
    ])
    def test_little_endian_32_bit_words(self, value, words):
        assert entropy_words(value) == words

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            entropy_words(-1)


class TestSeedTable:
    @pytest.mark.parametrize("head", HEADS)
    def test_rows_are_seed_sequence_states(self, head):
        table = seed_table(head, TAILS)
        assert table.shape == (len(TAILS), 4) and table.dtype == np.uint64
        for row, tail in zip(table, TAILS):
            np.testing.assert_array_equal(row, reference(head, tail).generate_state(4, np.uint64))

    @pytest.mark.parametrize("width", [1, 3, 5])
    def test_entropy_longer_than_the_pool(self, width):
        tails = np.arange(4 * width).reshape(4, width) * 40503
        for head in (7, 2**64 - 1):
            for row, tail in zip(seed_table(head, tails), tails):
                np.testing.assert_array_equal(row, reference(head, tail).generate_state(4, np.uint64))

    @pytest.mark.parametrize("head", HEADS)
    def test_generators_draw_the_bits_of_default_rng(self, head):
        table = seed_table(head, TAILS)
        for row, tail in zip(table, TAILS):
            got, want = seeded_generator(row), np.random.default_rng((head, *map(int, tail)))
            for draw in (lambda g: g.standard_normal(50), lambda g: g.integers(0, 2**40, 50),
                         lambda g: g.exponential(3.0, 50)):
                np.testing.assert_array_equal(np.asarray(draw(got)).view(np.uint64),
                                              np.asarray(draw(want)).view(np.uint64))

    def test_strided_rows_seed_the_same_generator(self):
        table = seed_table(5, TAILS)
        strided = np.asfortranarray(table)[2]
        assert not strided.flags.c_contiguous
        np.testing.assert_array_equal(seeded_generator(strided).standard_normal(5),
                                      seeded_generator(table[2]).standard_normal(5))

    def test_out_of_range_input_rejected(self):
        with pytest.raises(ValueError, match="tails"):
            seed_table(5, np.array([[0, -1]]))
        with pytest.raises(ValueError, match="tails"):
            seed_table(5, np.array([[2**32, 0]]))
        with pytest.raises(ValueError, match="shape"):
            seeded_generator(seed_table(5, TAILS)[0, :3])


def quad_config(**overrides):
    raw = {
        "version": 1,
        "objective": {"kind": "quadratic", "dimension": 12, "spectrum_lo": 0.5,
                      "spectrum_hi": 4.0, "rotation_seed": 5, "noise_scale": 0.05},
        "workers": 2,
        "inner_steps": 4,
        "rounds": 10,
        "batch_size": 8,
        "eval_batch_size": 32,
        "method": "cgad",
        "delay": {"kind": "uniform_int", "lo": 0, "hi": 3},
        "master_seed": 11,
    }
    raw.update(overrides)
    return RunConfig.from_dict(raw)


def stepped(config, rounds):
    sim = Simulation(config)
    for _ in range(rounds):
        assert sim.run_round()
    return sim


class TestSimulationTables:
    def test_tables_capped_by_rows_rehash_without_moving_a_bit(self, monkeypatch):
        full = stepped(quad_config(), 10)
        monkeypatch.setattr(sim_mod, "SEED_TABLE_ROWS", 3 * 2 * 4)  # three rounds per table
        windowed = stepped(quad_config(), 10)
        assert windowed._batch_rounds == range(9, 10)
        np.testing.assert_array_equal(windowed.global_params.view(np.uint64), full.global_params.view(np.uint64))
        assert windowed.losses == full.losses
        in_flight = [[(e.worker, e.produced_round, e.tau, e.payload.tobytes()) for e in sim.queue.in_flight(10)]
                     for sim in (windowed, full)]
        assert in_flight[0] == in_flight[1] and in_flight[0]

    def test_tables_are_hashed_by_the_first_round(self):
        sim = Simulation(quad_config())
        assert sim._batch_seeds is None and sim.queue is None
        sim.run_round()
        assert sim._batch_seeds.shape == (2, 10, 4, 4)
        assert len(sim.queue.schedule.entries) <= 2 * 10 and sim.queue.ring.shape[:2] == (sim.queue.span, 2)
