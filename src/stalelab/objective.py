"""Synthetic training objectives with exact hand-written gradients.

Three tasks cover the convex/nonconvex range at desk scale:

* quadratic        0.5*(theta-theta*)' A (theta-theta*) with an SPD A built
                   from an explicit eigenvalue spectrum and a seeded rotation,
                   so the smoothness constant is the largest eigenvalue by
                   construction and the minimizer is known exactly.
* rosenbrock_sum   the chained Rosenbrock function, a classic smooth
                   nonconvex benchmark.
* mlp_regression   teacher-student regression with tanh hidden layers and a
                   linear output; the frozen random teacher makes the task
                   realizable with noise floor 0.

Batches are deterministic functions of (shard seed, round, inner step):
`batch_seeds` hashes the keys of many rounds into one seed table, and
`draw_batches`, the one draw entry point, builds each batch's generator
from its row, giving the same bytes as
`np.random.default_rng((shard.seed, round, step))`. For the quadratic
and rosenbrock tasks n linear noise terms are added to the population
loss, so the stochastic gradient is the exact gradient plus their mean
noise vector, and a batch is that (1, dim) mean row; passing batch=None
evaluates the noise-free population objective. The inner phase takes its
mean rows from `seeding.STREAM_MEMO`, while an mlp batch is drawn per
step, once for every run of a stacked phase. Gradients are written by
hand (no autodiff) and checked against central finite differences.

`loss_and_grad` also takes K parameter vectors stacked as a (K, dim)
array, with a batch per row stacked the same way (see `sample_batch`),
and returns K losses and a (K, dim) gradient. Each row is computed with
the same numpy operations as a 1-D call, so stacking does not move a
bit: products are `np.matmul` over stacks (never `np.einsum`, which sums
in another order) and reductions run along the axis a 1-D call reduces.
Following numpy's buffer convention, `loss_and_grad(..., out=buf)`
writes the gradient into `buf` and returns it, and `draw_batches(...,
out=buf)` draws a batch's inputs into `buf`, so the inner phase steps
in one reused workspace. Writing in place keeps every operation and its
operand order, so no bit moves.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .schema import check_fields, key
from .seeding import STREAM_MEMO, derive_seed, seed_table, seeded_generator

__all__ = [
    "Shard",
    "Objective",
    "LinearNoiseObjective",
    "QuadraticObjective",
    "RosenbrockObjective",
    "MlpRegressionObjective",
    "make_objective",
    "batch_seeds",
    "sample_batch",
    "mlp_dim",
    "finite_diff_check",
    "init_reference_loss",
]


@dataclass(frozen=True)
class Shard:
    """One worker's data stream: identical seeds regenerate identical batches."""

    worker_id: int
    seed: int
    batch_size: int

    @classmethod
    def for_worker(cls, master_seed: int, worker_id: int, batch_size: int) -> "Shard":
        return cls(worker_id=worker_id, seed=derive_seed(master_seed, "shard", worker_id), batch_size=batch_size)


class Objective:
    """Base class; subclasses draw batches (`draw_batches(seeds, n, out=None)` for K shards) and implement
    loss/grad on flat parameter vectors, one (dim,) vector or K of them stacked as (K, dim)."""

    kind: str
    dim: int
    smoothness: float | None = None  # largest curvature where analytically known

    def init_params(self, seed: int) -> np.ndarray:
        raise NotImplementedError

    def draw_batch(self, rng: np.random.Generator, n: int):
        raise NotImplementedError

    def batch_buffer(self, k: int, n: int) -> np.ndarray | None:
        """A reusable `draw_batches` out for the inner phase's K batches of n, or None if that
        phase takes no drawn batch (linear-noise rows come from the stream memo)."""
        return None

    def loss_and_grad(self, params: np.ndarray, batch, out: np.ndarray | None = None
                      ) -> tuple[float | np.ndarray, np.ndarray]:
        """Loss and gradient: a float and a (dim,) array for one vector,
        K losses and a (K, dim) array for a stack. The gradient is written
        into out, and out returned, if given."""
        raise NotImplementedError

    def loss(self, params: np.ndarray, batch) -> float | np.ndarray:
        """The loss alone; bit-identical to `loss_and_grad(params, batch)[0]`."""
        return self.loss_and_grad(params, batch)[0]

    def population_grad(self, params: np.ndarray) -> np.ndarray | None:
        """Exact full-objective gradient where available, of one (dim,) vector or each row of a (E, dim)
        stack; else None."""
        return None


class LinearNoiseObjective(Objective):
    """A population loss plus linear noise: n noise rows enter the loss and
    gradient only through their mean row, so a batch is that (1, dim) row."""

    noise_scale: float
    init_scale: float

    def init_params(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return self.init_scale * rng.standard_normal(self.dim)

    def draw_batch(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """The (1, dim) mean row of n noise rows drawn from rng."""
        return (self.noise_scale * rng.standard_normal((n, self.dim))).mean(axis=-2, keepdims=True)

    def draw_batches(self, seeds: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
        """The mean rows of the (K, 4) seed rows, stacked to (K, 1, dim) (out is not read): one read-only block
        the stream memo keeps by every value its draw reads, the K seed rows among them (and counts them)."""
        key = ("noise", self.noise_scale, self.dim, n, seeds.tobytes())
        return STREAM_MEMO.get(key, lambda: _read_only(np.stack([
            self.draw_batch(seeded_generator(state), n) for state in seeds])),
            8 * self.dim * len(seeds) + seeds.nbytes)

    def _add_noise(self, loss, grad, batch, point, out):
        """Loss plus noise_mean . point and gradient plus noise_mean (into out if given), for a batch."""
        if batch is None:
            if out is None:
                return loss, grad
            np.copyto(out, grad)  # a no-op where grad is out
            return loss, out
        if batch.shape[-2] != 1:
            raise ValueError(f"a linear-noise batch is one mean row per vector, got shape {batch.shape}")
        noise_mean = batch[..., 0, :]
        return loss + _dot(noise_mean, point), np.add(grad, noise_mean, out=out)


@dataclass(eq=False)
class QuadraticObjective(LinearNoiseObjective):
    kind = "quadratic"

    dimension: int = key(integer=True, lo=1)
    spectrum_lo: float = key(lo=0, lo_open=True)
    spectrum_hi: float = key(lo=0, lo_open=True)
    rotation_seed: int = key(integer=True)
    noise_scale: float = key(0.1, lo=0)
    init_scale: float = key(1.0, lo=0, lo_open=True)

    def __post_init__(self):
        check_fields(self)
        if self.spectrum_lo > self.spectrum_hi:
            raise ValueError(f"need spectrum_lo <= spectrum_hi, got ({self.spectrum_lo}, {self.spectrum_hi})")
        self.dim = self.dimension
        rng = np.random.default_rng(derive_seed(self.rotation_seed, "quadratic-rotation"))
        self.eigenvalues = np.geomspace(self.spectrum_lo, self.spectrum_hi, self.dimension)
        q, _ = np.linalg.qr(rng.standard_normal((self.dimension, self.dimension)))
        a = (q * self.eigenvalues) @ q.T
        self.matrix = 0.5 * (a + a.T)  # symmetrize away qr round-off
        self.minimizer = rng.standard_normal(self.dimension)
        self.smoothness = float(self.eigenvalues[-1])
        _read_only(self.eigenvalues, self.matrix, self.minimizer)

    def loss_and_grad(self, params, batch, out=None):
        diff = params - self.minimizer
        a_diff = np.matmul(self.matrix, diff[..., None])[..., 0]  # bit-identical to matrix @ diff
        return self._add_noise(0.5 * _dot(diff, a_diff), a_diff, batch, diff, out)

    def population_grad(self, params):
        # one call for a (E, dim) stack; each row is bit-identical to matrix @ diff
        return np.matmul(self.matrix, (params - self.minimizer)[..., None])[..., 0]


@dataclass(eq=False)
class RosenbrockObjective(LinearNoiseObjective):
    kind = "rosenbrock_sum"

    dimension: int = key(integer=True, lo=2)
    noise_scale: float = key(0.0, lo=0)
    init_scale: float = key(1.0, lo=0, lo_open=True)

    def __post_init__(self):
        check_fields(self)
        self.dim = self.dimension

    def loss_and_grad(self, params, batch, out=None):
        x = params
        head, tail = x[..., :-1], x[..., 1:]
        gap = tail - head**2
        loss = np.sum(100.0 * gap**2 + (1.0 - head) ** 2, axis=-1)
        grad = np.empty_like(x) if out is None else out
        grad[...] = 0.0  # the terms below add onto zeros
        grad[..., :-1] += -400.0 * head * gap - 2.0 * (1.0 - head)
        grad[..., 1:] += 200.0 * gap
        return self._add_noise(loss, grad, batch, x, out)


def valid_layer_sizes(sizes) -> bool:
    """Whether sizes is a list (or tuple) of >= 2 positive integers, an MLP's layer widths."""
    return (isinstance(sizes, (list, tuple)) and len(sizes) >= 2
            and all(isinstance(s, numbers.Integral) and not isinstance(s, bool) and s >= 1 for s in sizes))


VIEWS_KEPT = 8  # buffers an mlp keeps layer views of: a stacked phase's params and gradient, six cells' params


@dataclass(eq=False)
class MlpRegressionObjective(Objective):
    """tanh MLP fit to a frozen random teacher of the same architecture."""

    kind = "mlp_regression"

    layer_sizes: list[int] = key(valid=valid_layer_sizes, expected="a list of >= 2 positive integers")
    teacher_seed: int = key(0, integer=True)
    teacher_scale: float = key(1.0, lo=0, lo_open=True)
    init_scale: float = key(1.0, lo=0, lo_open=True)

    def __post_init__(self):
        check_fields(self)
        self.layer_sizes = list(self.layer_sizes)
        self.dim = mlp_dim(self.layer_sizes)
        self._fans = list(zip(self.layer_sizes[:-1], self.layer_sizes[1:]))
        self._offsets = []  # (weight start, bias start, bias end) per layer
        pos = 0
        for fan_in, fan_out in self._fans:
            self._offsets.append((pos, pos + fan_out * fan_in, pos + fan_out * fan_in + fan_out))
            pos = self._offsets[-1][2]
        rng = np.random.default_rng(derive_seed(self.teacher_seed, "mlp-teacher"))
        self.teacher_params = _read_only(self._draw_params(rng, self.teacher_scale))
        self._unpacked: dict[int, tuple] = {}  # id -> (buffer, shape, its views), last used last; see _views
        self._teacher_layers = self.unpack(self.teacher_params)  # read-only views, unpacked once for every batch

    def _draw_params(self, rng: np.random.Generator, scale: float) -> np.ndarray:
        chunks = []
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            chunks.append(rng.standard_normal((fan_out, fan_in)).ravel() * (scale / np.sqrt(fan_in)))
            chunks.append(np.zeros(fan_out))
        return np.concatenate(chunks)

    def unpack(self, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """(weight, bias, weight transpose) views per layer: (..., fan_out, fan_in), (..., fan_out)
        and (..., fan_in, fan_out)."""
        lead = params.shape[:-1]
        layers = []
        for (w_start, b_start, b_end), (fan_in, fan_out) in zip(self._offsets, self._fans):
            w = params[..., w_start:b_start].reshape(*lead, fan_out, fan_in)
            layers.append((w, params[..., b_start:b_end], w.swapaxes(-1, -2)))
        return layers

    def _views(self, buf: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """`unpack(buf)`, unpacked once per buffer: the views of the VIEWS_KEPT buffers used last, so an
        inner phase's params and gradient buffers are unpacked at its first step only, and the global
        params of each cell of a lockstep bundle that shares this objective once a run."""
        kept = self._unpacked.pop(id(buf), None)
        if kept is None or kept[0] is not buf or kept[1] != buf.shape:
            kept = (buf, buf.shape, self.unpack(buf))
            if len(self._unpacked) >= VIEWS_KEPT:
                del self._unpacked[next(iter(self._unpacked))]
        self._unpacked[id(buf)] = kept
        return kept[2]

    def init_params(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return self._draw_params(rng, self.init_scale)

    def _activations(self, layers, x: np.ndarray) -> list[np.ndarray]:
        """Inputs of every layer, then the output: tanh hidden, linear last; each layer's
        bias add and tanh run in place on its fresh product."""
        acts = [x]
        for i, (_, b, w_t) in enumerate(layers):
            z = np.matmul(acts[-1], w_t)
            z += b[..., None, :]
            acts.append(np.tanh(z, out=z) if i < len(layers) - 1 else z)
        return acts

    def forward(self, params: np.ndarray, x: np.ndarray) -> np.ndarray:
        return self._activations(self._views(params), x)[-1]

    def draw_batch(self, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
        x = rng.standard_normal((n, self.layer_sizes[0]))
        y = self._activations(self._teacher_layers, x)[-1]
        return x, y

    def draw_batches(self, seeds: np.ndarray, n: int, out: np.ndarray | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Inputs from each seed row's generator, into out if given; one teacher forward labels all their rows."""
        x = self.batch_buffer(len(seeds), n) if out is None else out
        for state, rows in zip(seeds, x):
            seeded_generator(state).standard_normal(out=rows)
        y = self._activations(self._teacher_layers, x.reshape(-1, x.shape[-1]))[-1]
        return x, y.reshape(len(seeds), n, -1)

    def batch_buffer(self, k: int, n: int) -> np.ndarray:
        return np.empty((k, n, self.layer_sizes[0]))

    def _loss(self, err: np.ndarray):
        return 0.5 * (err * err).sum(axis=(-2, -1)) / err.shape[-2]

    def loss(self, params, batch):
        x, y = _mlp_batch(batch)
        return self._loss(self.forward(params, x) - y)

    def loss_and_grad(self, params, batch, out=None):
        x, y = _mlp_batch(batch)
        n = x.shape[-2]
        layers = self._views(params)
        acts = self._activations(layers, x)
        err = np.subtract(acts[-1], y, out=acts[-1])
        loss = self._loss(err)

        grad = np.empty_like(params) if out is None else out  # every element is written below
        grad_layers = self.unpack(grad) if out is None else self._views(out)
        dz = np.divide(err, n, out=err)
        for i in reversed(range(len(layers))):
            grad_w, grad_b, _ = grad_layers[i]
            np.matmul(dz.swapaxes(-1, -2), acts[i], out=grad_w)
            dz.sum(axis=-2, out=grad_b)
            if i > 0:
                dz = np.matmul(dz, layers[i][0])
                act = acts[i]
                np.multiply(act, act, out=act)
                dz *= np.subtract(1.0, act, out=act)  # tanh'(z) = 1 - tanh(z)^2
        return loss, grad


def _read_only(*arrays: np.ndarray) -> np.ndarray:
    """Mark arrays read-only, so an objective shared by many runs cannot be written; returns the first."""
    for array in arrays:
        array.flags.writeable = False
    return arrays[0]


def _mlp_batch(batch) -> tuple[np.ndarray, np.ndarray]:
    if batch is None:
        raise ValueError("mlp_regression has no closed-form population loss; pass a batch")
    return batch


def _dot(a: np.ndarray, b: np.ndarray):
    """Row-wise a . b over the last axis; a 1-D pair gives the same bits as a @ b."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def mlp_dim(layer_sizes: list[int]) -> int:
    """Parameter count of an MLP: a weight matrix and a bias per layer."""
    return sum(fan_out * fan_in + fan_out for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]))


_OBJECTIVES = {cls.kind: cls for cls in (QuadraticObjective, RosenbrockObjective, MlpRegressionObjective)}


def make_objective(spec: dict) -> Objective:
    """Build an objective from its config mapping (see `config` module); every key but
    "kind" is a keyword argument of the kind's class."""
    cls = _OBJECTIVES.get(spec["kind"])
    if cls is None:
        raise ValueError(f"unknown objective kind {spec['kind']!r}")
    return cls(**{key: value for key, value in spec.items() if key != "kind"})


def batch_seeds(shards: list[Shard], rounds: range, inner_steps: int) -> np.ndarray:
    """Seed table of every (shard, round, inner step) batch, shape (K, len(rounds), H, 4).

    Entry [k, i, step] seeds shards[k]'s batch of round rounds[i]: the state
    `np.random.default_rng((shard.seed, rounds[i], step))` starts from.
    """
    keys = np.stack(np.meshgrid(np.asarray(rounds), np.arange(inner_steps), indexing="ij"), axis=-1)
    tails = keys.reshape(-1, 2)
    return np.stack([seed_table(shard.seed, tails) for shard in shards]).reshape(
        len(shards), len(rounds), inner_steps, 4)


def sample_batch(obj: Objective, shards: list[Shard], seeds: np.ndarray, out: np.ndarray | None = None):
    """`obj.draw_batches`: one batch per shard from its `batch_seeds` row, stacked in shard order (into out).

    `seeds` is (K, 4), row k for shards[k]. Each shard keeps its own
    generator, so row k is the same bytes whatever the other shards are.
    """
    sizes = {shard.batch_size for shard in shards}
    if len(sizes) != 1:
        raise ValueError(f"shards must share one batch size, got {sorted(sizes)}")
    return obj.draw_batches(seeds, sizes.pop(), out=out)


def finite_diff_check(
    obj: Objective,
    params: np.ndarray,
    batch,
    tolerance: float,
) -> tuple[bool, float]:
    """Central-difference check of the analytic gradient.

    Per-coordinate step 1e-6*(1+|theta_i|); the error for coordinate i is
    |fd_i - g_i| / (1 + max(|fd_i|, |g_i|)), i.e. relative above unit
    scale and absolute below it, so exactly-zero gradient coordinates do
    not blow the ratio up on rounding noise. Returns (passed, max error).
    """
    if not (tolerance > 0.0):
        raise ValueError(f"tolerance must be > 0, got {tolerance}")
    _, grad = obj.loss_and_grad(params, batch)
    fd = np.zeros_like(params)
    for i in range(params.size):
        h = 1e-6 * (1.0 + abs(params[i]))
        up = params.copy()
        up[i] += h
        down = params.copy()
        down[i] -= h
        loss_up, _ = obj.loss_and_grad(up, batch)
        loss_down, _ = obj.loss_and_grad(down, batch)
        fd[i] = (loss_up - loss_down) / (2.0 * h)
    scale = 1.0 + np.maximum(np.abs(fd), np.abs(grad))
    max_err = float(np.max(np.abs(fd - grad) / scale))
    return max_err <= tolerance, max_err


REFERENCE_INITS = 32


def init_reference_loss(obj: Objective, eval_batch) -> float:
    """Untrained reference: mean loss of REFERENCE_INITS fresh inits on the eval batch.

    Divergence thresholds are defined relative to this value, which makes
    them task-local instead of importing any absolute loss scale.
    """
    losses = []
    for s in range(REFERENCE_INITS):
        params = obj.init_params(derive_seed("init-reference", s))
        losses.append(obj.loss(params, eval_batch))
    return float(np.mean(losses))
