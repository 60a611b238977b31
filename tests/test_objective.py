import numpy as np
import pytest

from stalelab.objective import (
    REFERENCE_INITS,
    MlpRegressionObjective,
    QuadraticObjective,
    RosenbrockObjective,
    batch_seeds,
    finite_diff_check,
    init_reference_loss,
    make_objective,
    sample_batch,
)
from stalelab.optim import AdamMoments, InnerConfig, inner_adamw_step
from stalelab.seeding import derive_seed, seeded_generator


@pytest.fixture
def quad():
    return QuadraticObjective(dimension=10, spectrum_lo=0.5, spectrum_hi=5.0,
                              rotation_seed=2, noise_scale=0.1)


@pytest.fixture
def mlp():
    return MlpRegressionObjective(layer_sizes=[4, 8, 1], teacher_seed=3)


def draw(obj, master, workers, n, round_idx, step):
    """sample_batch of workers 0..workers-1 for one (round, inner step), from its batch_seeds rows."""
    seeds = batch_seeds(master, workers, range(round_idx, round_idx + 1), step + 1)[:, 0, step]
    return sample_batch(obj, seeds, n)


class TestQuadratic:
    def test_gradient_zero_at_minimizer(self, quad):
        loss, grad = quad.loss_and_grad(quad.minimizer, None)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros(quad.dim))

    def test_population_loss_is_quadratic_form(self, quad):
        rng = np.random.default_rng(0)
        theta = rng.standard_normal(quad.dim)
        diff = theta - quad.minimizer
        expected = 0.5 * diff @ quad.matrix @ diff
        loss, _ = quad.loss_and_grad(theta, None)
        assert loss == pytest.approx(expected, rel=1e-14)

    def test_smoothness_constant_is_top_eigenvalue(self, quad):
        assert quad.smoothness == quad.eigenvalues[-1] == 5.0
        top = np.linalg.eigvalsh(quad.matrix)[-1]
        assert top == pytest.approx(quad.smoothness, rel=1e-12)

    def test_matrix_is_spd(self, quad):
        np.testing.assert_array_equal(quad.matrix, quad.matrix.T)
        assert np.linalg.eigvalsh(quad.matrix)[0] > 0.4

    def test_batch_noise_shifts_gradient_by_mean(self, quad):
        rng = np.random.default_rng(1)
        theta = rng.standard_normal(quad.dim)
        batch = quad.draw_batch(rng, 16)
        _, noisy = quad.loss_and_grad(theta, batch)
        _, clean = quad.loss_and_grad(theta, None)
        np.testing.assert_allclose(noisy - clean, batch.mean(axis=0), rtol=1e-12)

    def test_population_grad_matches_batchless(self, quad):
        rng = np.random.default_rng(2)
        theta = rng.standard_normal(quad.dim)
        np.testing.assert_array_equal(quad.population_grad(theta),
                                      quad.loss_and_grad(theta, None)[1])

    def test_construction_validation(self):
        with pytest.raises(ValueError):
            QuadraticObjective(dimension=0, spectrum_lo=1, spectrum_hi=2, rotation_seed=0)
        with pytest.raises(ValueError):
            QuadraticObjective(dimension=4, spectrum_lo=2.0, spectrum_hi=1.0, rotation_seed=0)


class TestRosenbrock:
    def test_gradient_zero_at_global_minimum(self):
        obj = RosenbrockObjective(dimension=6)
        loss, grad = obj.loss_and_grad(np.ones(6), None)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros(6))

    def test_finite_diff(self):
        obj = RosenbrockObjective(dimension=6)
        rng = np.random.default_rng(3)
        ok, err = finite_diff_check(obj, rng.standard_normal(6), None, 1e-6)
        assert ok, f"max error {err}"

    def test_dimension_validated(self):
        with pytest.raises(ValueError):
            RosenbrockObjective(dimension=1)


class TestMlp:
    def test_dim_counts_weights_and_biases(self, mlp):
        assert mlp.dim == 4 * 8 + 8 + 8 * 1 + 1

    def test_loss_zero_at_teacher(self, mlp):
        rng = np.random.default_rng(4)
        batch = mlp.draw_batch(rng, 16)
        loss, grad = mlp.loss_and_grad(mlp.teacher_params, batch)
        assert loss == 0.0
        np.testing.assert_allclose(grad, np.zeros(mlp.dim), atol=1e-16)

    def test_loss_nonnegative(self, mlp):
        rng = np.random.default_rng(5)
        for _ in range(5):
            params = mlp.init_params(int(rng.integers(1 << 30)))
            batch = mlp.draw_batch(rng, 8)
            loss, _ = mlp.loss_and_grad(params, batch)
            assert loss >= 0.0

    def test_requires_batch(self, mlp):
        with pytest.raises(ValueError):
            mlp.loss_and_grad(mlp.teacher_params, None)

    def test_trains_below_point_one_synchronously(self):
        # plain Adam on fresh batches reaches the realizable floor region
        obj = MlpRegressionObjective(layer_sizes=[4, 8, 1], teacher_seed=3)
        params = obj.init_params(99)[None]  # one worker, stacked
        state = AdamMoments.zeros(params.shape)
        cfg = InnerConfig(lr=1e-2)
        seeds = batch_seeds(0, 1, range(1), 600)
        for step in range(600):
            batch = sample_batch(obj, seeds[:, 0, step], 64)
            _, grad = obj.loss_and_grad(params, batch)
            params, state = inner_adamw_step(params, grad, state, cfg)
        eval_rng = np.random.default_rng(123)
        eval_batch = obj.draw_batch(eval_rng, 256)
        assert obj.loss(params[0], eval_batch) < 0.1


class TestSampleBatch:
    def test_deterministic(self, mlp):
        x1, y1 = draw(mlp, 7, 2, 8, 3, 2)
        x2, y2 = draw(mlp, 7, 2, 8, 3, 2)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)

    def test_workers_draw_distinct_batches(self, quad):
        seeds = batch_seeds(7, 2, range(5000), 2)
        collisions = sum(
            np.array_equal(sample_batch(quad, seeds[:1, r, s], 4), sample_batch(quad, seeds[1:, r, s], 4))
            for r in range(5000) for s in range(2)
        )
        assert collisions == 0

    def test_master_seed_changes_stream(self, quad):
        assert not np.array_equal(draw(quad, 7, 1, 4, 0, 0), draw(quad, 8, 1, 4, 0, 0))

    def test_round_and_step_change_stream(self, quad):
        base = draw(quad, 7, 1, 4, 0, 0)
        assert not np.array_equal(base, draw(quad, 7, 1, 4, 1, 0))
        assert not np.array_equal(base, draw(quad, 7, 1, 4, 0, 1))

    def test_a_workers_stream_does_not_depend_on_the_worker_count(self):
        rounds = range(30, 33)
        np.testing.assert_array_equal(batch_seeds(5, 4, rounds, 3)[:2], batch_seeds(5, 2, rounds, 3))

    @pytest.mark.parametrize("kind", ["quadratic", "mlp_regression"])
    def test_same_bytes_as_default_rng_per_key(self, kind):
        obj = make_objective(KINDS[kind])
        seeds = batch_seeds(11, 3, range(70000, 70003), 4)
        for i, round_idx in enumerate(range(70000, 70003)):
            for step in range(4):
                want = [obj.draw_batch(np.random.default_rng((derive_seed(11, "shard", k), round_idx, step)), 8)
                        for k in range(3)]
                got = sample_batch(obj, seeds[:, i, step], 8)
                for k, w in enumerate(want):
                    for g, w_part in zip(parts(row(got, k)), parts(w), strict=True):
                        np.testing.assert_array_equal(bits(g), bits(w_part))


KINDS = {
    "quadratic": {"kind": "quadratic", "dimension": 12, "spectrum_lo": 0.5,
                  "spectrum_hi": 4.0, "rotation_seed": 5, "noise_scale": 0.05},
    "rosenbrock_sum": {"kind": "rosenbrock_sum", "dimension": 7, "noise_scale": 0.05},
    "mlp_regression": {"kind": "mlp_regression", "layer_sizes": [8, 32, 1], "teacher_seed": 17,
                       "teacher_scale": 0.07, "init_scale": 0.07},
    "mlp_deep": {"kind": "mlp_regression", "layer_sizes": [4, 8, 8, 3], "teacher_seed": 3},
}


def bits(x):
    """Raw float64 bits, so comparisons see -0.0 vs 0.0 and every last ulp."""
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def parts(batch) -> tuple:
    """An mlp batch is an (x, y) pair; the others are one array."""
    return batch if isinstance(batch, tuple) else (batch,)


def row(batch, k):
    return tuple(part[k] for part in batch) if isinstance(batch, tuple) else batch[k]


class TestStacked:
    """K workers stacked into one call give the bytes of K separate calls."""

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_sample_batch_rows_match_single_shard_draws(self, kind):
        obj = make_objective(KINDS[kind])
        seeds = batch_seeds(3, 4, range(5, 6), 3)[:, 0, 2]
        stacked = sample_batch(obj, seeds, 16)
        for k in range(4):
            single = sample_batch(obj, seeds[k:k + 1], 16)
            for got, want in zip(parts(row(stacked, k)), parts(row(single, 0)), strict=True):
                np.testing.assert_array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_loss_and_grad_rows_match_one_dimensional_calls(self, kind):
        obj = make_objective(KINDS[kind])
        params = np.stack([obj.init_params(40 + k) for k in range(4)])
        batch = draw(obj, 3, 4, 16, 1, 0)
        losses, grads = obj.loss_and_grad(params, batch)
        assert losses.shape == (4,) and grads.shape == params.shape
        for k in range(4):
            loss, grad = obj.loss_and_grad(params[k], row(batch, k))
            assert isinstance(loss, float)
            np.testing.assert_array_equal(bits(losses[k]), bits(loss))
            np.testing.assert_array_equal(bits(grads[k]), bits(grad))

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_compact_batches_give_the_bits_of_full_ones(self, kind):
        # the inner phase's batches, linear-noise mean rows from the stream memo, give the bits of
        # each worker's batch drawn alone from its own generator
        obj = make_objective(KINDS[kind])
        params = np.stack([obj.init_params(40 + k) for k in range(4)])
        seeds = batch_seeds(3, 4, range(2, 3), 1)[:, 0, 0]
        alone = [obj.draw_batch(seeded_generator(state), 16) for state in seeds]
        for _ in range(2):  # a cold memo, then a warm one
            stacked = sample_batch(obj, seeds, 16)
            losses, grads = obj.loss_and_grad(params, stacked)
            for k, batch in enumerate(alone):
                loss, grad = obj.loss_and_grad(params[k], batch)
                np.testing.assert_array_equal(bits(losses[k]), bits(loss))
                np.testing.assert_array_equal(bits(grads[k]), bits(grad))

    @pytest.mark.parametrize("kind", ["quadratic", "rosenbrock_sum"])
    def test_population_loss_rows_match(self, kind):
        obj = make_objective(KINDS[kind])
        params = np.stack([obj.init_params(40 + k) for k in range(3)])
        losses, grads = obj.loss_and_grad(params, None)
        for k in range(3):
            loss, grad = obj.loss_and_grad(params[k], None)
            np.testing.assert_array_equal(bits(losses[k]), bits(loss))
            np.testing.assert_array_equal(bits(grads[k]), bits(grad))

    @pytest.mark.parametrize("rows", [1, 3, 8])
    def test_stacked_population_grads_match_matrix_products(self, rows):
        # the audit reads a round's entries' exact gradients from one stacked call
        obj = make_objective(KINDS["quadratic"])
        params = np.stack([obj.init_params(40 + k) for k in range(rows)])
        stacked = obj.population_grad(params)
        for k in range(rows):
            np.testing.assert_array_equal(bits(stacked[k]), bits(obj.matrix @ (params[k] - obj.minimizer)))
            np.testing.assert_array_equal(bits(obj.population_grad(params[k])), bits(stacked[k]))

    def test_quadratic_matches_plain_matrix_products(self):
        obj = make_objective(KINDS["quadratic"])
        params = obj.init_params(4)
        diff = params - obj.minimizer
        loss, grad = obj.loss_and_grad(params, None)
        np.testing.assert_array_equal(bits(grad), bits(obj.matrix @ diff))
        np.testing.assert_array_equal(bits(loss), bits(0.5 * float(diff @ (obj.matrix @ diff))))


def reference_mlp_loss_and_grad(obj, params, batch):
    """The mlp loss and gradient written out of place: a fresh array for every product and term."""
    x, y = batch
    layers = [(w, b) for w, b, _ in obj.unpack(params)]
    acts = [x]
    for i, (w, b) in enumerate(layers):
        z = np.matmul(acts[-1], np.swapaxes(w, -1, -2)) + b[..., None, :]
        acts.append(np.tanh(z) if i < len(layers) - 1 else z)
    err = acts[-1] - y
    n = x.shape[-2]
    grad = np.zeros_like(params)
    lead = params.shape[:-1]
    dz = err / n
    for i in reversed(range(len(layers))):
        w_start, b_start, b_end = obj._offsets[i]
        grad[..., w_start:b_start] = np.matmul(np.swapaxes(dz, -1, -2), acts[i]).reshape(*lead, -1)
        grad[..., b_start:b_end] = dz.sum(axis=-2)
        if i > 0:
            dz = np.matmul(dz, layers[i][0]) * (1.0 - acts[i] ** 2)
    return 0.5 * np.sum(err * err, axis=(-2, -1)) / n, grad


class TestOutBuffer:
    """loss_and_grad(..., out=buf) and draw_batches(..., out=buf) write in place and keep the bits."""

    @pytest.mark.parametrize("stacked", [False, True], ids=["1d", "stacked"])
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_gradient_written_into_out_equals_a_fresh_one(self, kind, stacked):
        obj = make_objective(KINDS[kind])
        params = np.stack([obj.init_params(40 + k) for k in range(4)])
        batch = draw(obj, 3, 4, 16, 1, 0)
        if not stacked:
            params, batch = params[0], row(batch, 0)
        batches = [batch, None] if kind in ("quadratic", "rosenbrock_sum") else [batch]
        for batch in batches:
            want_loss, want_grad = obj.loss_and_grad(params, batch)
            for _ in range(2):  # a reused buffer is overwritten whole
                buf = np.full_like(params, np.nan)
                loss, grad = obj.loss_and_grad(params, batch, out=buf)
                assert grad is buf
                np.testing.assert_array_equal(bits(loss), bits(want_loss))
                np.testing.assert_array_equal(bits(grad), bits(want_grad))

    @pytest.mark.parametrize("stacked", [False, True], ids=["1d", "stacked"])
    @pytest.mark.parametrize("kind", ["mlp_regression", "mlp_deep"])
    def test_mlp_keeps_the_bits_of_the_out_of_place_formula(self, kind, stacked):
        obj = make_objective(KINDS[kind])
        params = np.stack([obj.init_params(40 + k) for k in range(4)])
        batch = draw(obj, 3, 4, 16, 1, 0)
        if not stacked:
            params, batch = params[0], row(batch, 0)
        want_loss, want_grad = reference_mlp_loss_and_grad(obj, params, batch)
        buf = np.empty_like(params)
        for got_loss, got_grad in (obj.loss_and_grad(params, batch), obj.loss_and_grad(params, batch, out=buf)):
            np.testing.assert_array_equal(bits(got_loss), bits(want_loss))
            np.testing.assert_array_equal(bits(got_grad), bits(want_grad))
        np.testing.assert_array_equal(bits(obj.loss(params, batch)), bits(want_loss))

    @pytest.mark.parametrize("kind", ["mlp_regression", "mlp_deep"])
    def test_batch_inputs_drawn_into_out_equal_fresh_ones(self, kind):
        obj = make_objective(KINDS[kind])
        seeds = batch_seeds(3, 4, range(2), 3)
        buf = obj.batch_buffer(4, 16)
        for step in range(3):
            want = sample_batch(obj, seeds[:, 1, step], 16)
            got = sample_batch(obj, seeds[:, 1, step], 16, out=buf)
            assert got[0] is buf
            for g, w in zip(got, want, strict=True):
                np.testing.assert_array_equal(bits(g), bits(w))

    def test_linear_noise_objectives_take_no_batch_buffer(self, quad):
        assert quad.batch_buffer(4, 16) is None


class TestLoss:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_loss_is_the_loss_of_loss_and_grad(self, kind):
        obj = make_objective(KINDS[kind])
        batch = obj.draw_batch(np.random.default_rng(2), 64)
        for seed in range(3):
            params = obj.init_params(seed)
            loss = obj.loss(params, batch)
            assert isinstance(loss, float)
            np.testing.assert_array_equal(bits(loss), bits(obj.loss_and_grad(params, batch)[0]))


def noise_rows(obj, rng, n):
    """The n noise rows a linear-noise batch of n is the mean row of."""
    return obj.noise_scale * rng.standard_normal((n, obj.dim))


def noisy_loss_and_grad(obj, params, rows):
    """The population loss and gradient plus the linear noise of full noise rows, row by row with `@`."""
    loss, grad = obj.loss_and_grad(params, None)
    point = params - obj.minimizer if obj.kind == "quadratic" else params
    noise_mean = rows.mean(axis=-2)
    if params.ndim == 1:
        return loss + noise_mean @ point, grad + noise_mean
    return loss + np.array([noise_mean @ p for p in point]), grad + noise_mean


class TestCompactBatch:
    @pytest.mark.parametrize("kind", ["quadratic", "rosenbrock_sum"])
    def test_mean_row_gives_the_bits_of_the_full_batch(self, kind):
        obj = make_objective(KINDS[kind])
        rng = np.random.default_rng(12)
        for n in (1, 7, 256):
            state = rng.bit_generator.state
            rows = noise_rows(obj, rng, n)
            rng.bit_generator.state = state
            batch = obj.draw_batch(rng, n)
            assert batch.shape == (1, obj.dim)
            np.testing.assert_array_equal(bits(batch), bits(rows.mean(axis=-2, keepdims=True)))
            stacked = rng.standard_normal((3, obj.dim))
            for params in (stacked[0], stacked):
                want = noisy_loss_and_grad(obj, params, rows)
                for got, want_part in zip(obj.loss_and_grad(params, batch), want):
                    np.testing.assert_array_equal(bits(got), bits(want_part))
                np.testing.assert_array_equal(bits(obj.loss(params, batch)), bits(want[0]))
            np.testing.assert_array_equal(
                bits(init_reference_loss(obj, batch)),
                bits(np.mean([noisy_loss_and_grad(obj, obj.init_params(derive_seed("init-reference", s)), rows)[0]
                              for s in range(REFERENCE_INITS)])))

    @pytest.mark.parametrize("kind", ["quadratic", "rosenbrock_sum"])
    def test_a_batch_of_more_than_one_row_is_refused(self, kind):
        # a full batch would otherwise read as its first row
        obj = make_objective(KINDS[kind])
        rows = noise_rows(obj, np.random.default_rng(1), 4)
        params = obj.init_params(0)
        for batch, at in ((rows, params), (np.stack([rows, rows]), np.stack([params, params]))):
            with pytest.raises(ValueError, match="one mean row"):
                obj.loss_and_grad(at, batch)


class TestBatchLinearity:
    @pytest.mark.parametrize("kind", ["quadratic", "rosenbrock_sum", "mlp_regression"])
    def test_mean_batch_grad_equals_mean_of_per_sample_grads(self, kind):
        spec = {
            "quadratic": {"kind": "quadratic", "dimension": 6, "spectrum_lo": 0.5,
                          "spectrum_hi": 3.0, "rotation_seed": 1, "noise_scale": 0.2},
            "rosenbrock_sum": {"kind": "rosenbrock_sum", "dimension": 6, "noise_scale": 0.2},
            "mlp_regression": {"kind": "mlp_regression", "layer_sizes": [3, 5, 2], "teacher_seed": 1},
        }[kind]
        obj = make_objective(spec)
        rng = np.random.default_rng(6)
        params = obj.init_params(42)
        if kind == "mlp_regression":
            batch = obj.draw_batch(rng, 8)
            per_sample = [obj.loss_and_grad(params, (batch[0][i:i + 1], batch[1][i:i + 1]))[1]
                          for i in range(8)]
        else:  # a linear-noise batch is the mean row of its noise rows, and each row alone a batch of one
            rows = noise_rows(obj, rng, 8)
            batch = rows.mean(axis=-2, keepdims=True)
            per_sample = [obj.loss_and_grad(params, rows[i:i + 1])[1] for i in range(8)]
        _, batch_grad = obj.loss_and_grad(params, batch)
        np.testing.assert_allclose(batch_grad, np.mean(per_sample, axis=0), atol=1e-12)


class TestFiniteDiffCheck:
    def test_corrupted_gradient_fails(self, quad):
        class Corrupted(QuadraticObjective):
            def loss_and_grad(self, params, batch):
                loss, grad = super().loss_and_grad(params, batch)
                grad = grad.copy()
                grad[0] += 1.0
                return loss, grad

        bad = Corrupted(dimension=10, spectrum_lo=0.5, spectrum_hi=5.0, rotation_seed=2)
        rng = np.random.default_rng(9)
        ok, err = finite_diff_check(bad, rng.standard_normal(10), None, 1e-5)
        assert not ok and err > 0.1

    def test_tolerance_validated(self, quad):
        with pytest.raises(ValueError):
            finite_diff_check(quad, np.zeros(quad.dim), None, 0.0)


class TestReferenceLoss:
    def test_deterministic(self, mlp):
        rng = np.random.default_rng(10)
        batch = mlp.draw_batch(rng, 32)
        assert init_reference_loss(mlp, batch) == init_reference_loss(mlp, batch)

    def test_positive_for_generic_task(self, mlp):
        rng = np.random.default_rng(11)
        batch = mlp.draw_batch(rng, 32)
        assert init_reference_loss(mlp, batch) > 0.0


class TestMakeObjective:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            make_objective({"kind": "transformer"})
