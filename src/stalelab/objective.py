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

Batches are deterministic functions of (shard seed, round, inner step).
For the quadratic and rosenbrock tasks a batch is a set of linear noise
terms added to the population loss, so the stochastic gradient is the
exact gradient plus the batch's mean noise vector; passing batch=None
evaluates the noise-free population objective. Gradients are written by
hand (no autodiff) and checked against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seeding import derive_seed

__all__ = [
    "Shard",
    "Objective",
    "QuadraticObjective",
    "RosenbrockObjective",
    "MlpRegressionObjective",
    "make_objective",
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
    """Base class; subclasses implement loss/grad on flat parameter vectors."""

    kind: str
    dim: int
    smoothness: float | None = None  # largest curvature where analytically known

    def init_params(self, seed: int) -> np.ndarray:
        raise NotImplementedError

    def draw_batch(self, rng: np.random.Generator, n: int):
        raise NotImplementedError

    def loss_and_grad(self, params: np.ndarray, batch) -> tuple[float, np.ndarray]:
        raise NotImplementedError

    def population_grad(self, params: np.ndarray) -> np.ndarray | None:
        """Exact full-objective gradient where available, else None."""
        return None


class QuadraticObjective(Objective):
    kind = "quadratic"

    def __init__(self, dimension: int, spectrum_lo: float, spectrum_hi: float,
                 rotation_seed: int, noise_scale: float = 0.1, init_scale: float = 1.0):
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        if not (0.0 < spectrum_lo <= spectrum_hi):
            raise ValueError(f"need 0 < spectrum_lo <= spectrum_hi, got ({spectrum_lo}, {spectrum_hi})")
        self.dim = dimension
        self.noise_scale = float(noise_scale)
        self.init_scale = float(init_scale)
        rng = np.random.default_rng(derive_seed(rotation_seed, "quadratic-rotation"))
        self.eigenvalues = np.geomspace(spectrum_lo, spectrum_hi, dimension)
        q, _ = np.linalg.qr(rng.standard_normal((dimension, dimension)))
        a = (q * self.eigenvalues) @ q.T
        self.matrix = 0.5 * (a + a.T)  # symmetrize away qr round-off
        self.minimizer = rng.standard_normal(dimension)
        self.smoothness = float(self.eigenvalues[-1])

    def init_params(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return self.init_scale * rng.standard_normal(self.dim)

    def draw_batch(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.noise_scale * rng.standard_normal((n, self.dim))

    def loss_and_grad(self, params, batch):
        diff = params - self.minimizer
        a_diff = self.matrix @ diff
        loss = 0.5 * float(diff @ a_diff)
        grad = a_diff
        if batch is not None:
            noise_mean = batch.mean(axis=0)
            loss += float(noise_mean @ diff)
            grad = grad + noise_mean
        return loss, grad

    def population_grad(self, params):
        return self.matrix @ (params - self.minimizer)


class RosenbrockObjective(Objective):
    kind = "rosenbrock_sum"

    def __init__(self, dimension: int, noise_scale: float = 0.0, init_scale: float = 1.0):
        if dimension < 2:
            raise ValueError(f"dimension must be >= 2, got {dimension}")
        self.dim = dimension
        self.noise_scale = float(noise_scale)
        self.init_scale = float(init_scale)

    def init_params(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return self.init_scale * rng.standard_normal(self.dim)

    def draw_batch(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.noise_scale * rng.standard_normal((n, self.dim))

    def loss_and_grad(self, params, batch):
        x = params
        head, tail = x[:-1], x[1:]
        gap = tail - head**2
        loss = float(np.sum(100.0 * gap**2 + (1.0 - head) ** 2))
        grad = np.zeros_like(x)
        grad[:-1] += -400.0 * head * gap - 2.0 * (1.0 - head)
        grad[1:] += 200.0 * gap
        if batch is not None:
            noise_mean = batch.mean(axis=0)
            loss += float(noise_mean @ x)
            grad = grad + noise_mean
        return loss, grad


class MlpRegressionObjective(Objective):
    """tanh MLP fit to a frozen random teacher of the same architecture."""

    kind = "mlp_regression"

    def __init__(self, layer_sizes: list[int], teacher_seed: int,
                 teacher_scale: float = 1.0, init_scale: float = 1.0):
        if len(layer_sizes) < 2 or any(s < 1 for s in layer_sizes):
            raise ValueError(f"layer_sizes needs >= 2 positive entries, got {layer_sizes}")
        self.layer_sizes = list(layer_sizes)
        self.teacher_scale = float(teacher_scale)
        self.init_scale = float(init_scale)
        self.dim = mlp_dim(layer_sizes)
        rng = np.random.default_rng(derive_seed(teacher_seed, "mlp-teacher"))
        self.teacher_params = self._draw_params(rng, self.teacher_scale)

    def _draw_params(self, rng: np.random.Generator, scale: float) -> np.ndarray:
        chunks = []
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            chunks.append(rng.standard_normal((fan_out, fan_in)).ravel() * (scale / np.sqrt(fan_in)))
            chunks.append(np.zeros(fan_out))
        return np.concatenate(chunks)

    def unpack(self, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        layers = []
        pos = 0
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            w = params[pos : pos + fan_out * fan_in].reshape(fan_out, fan_in)
            pos += fan_out * fan_in
            b = params[pos : pos + fan_out]
            pos += fan_out
            layers.append((w, b))
        return layers

    def init_params(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return self._draw_params(rng, self.init_scale)

    def forward(self, params: np.ndarray, x: np.ndarray) -> np.ndarray:
        acts = x
        layers = self.unpack(params)
        for i, (w, b) in enumerate(layers):
            z = acts @ w.T + b
            acts = np.tanh(z) if i < len(layers) - 1 else z
        return acts

    def draw_batch(self, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
        x = rng.standard_normal((n, self.layer_sizes[0]))
        y = self.forward(self.teacher_params, x)
        return x, y

    def loss_and_grad(self, params, batch):
        if batch is None:
            raise ValueError("mlp_regression has no closed-form population loss; pass a batch")
        x, y = batch
        n = x.shape[0]
        layers = self.unpack(params)
        acts = [x]
        for i, (w, b) in enumerate(layers):
            z = acts[-1] @ w.T + b
            acts.append(np.tanh(z) if i < len(layers) - 1 else z)
        err = acts[-1] - y
        loss = 0.5 * float(np.sum(err * err)) / n

        grad = np.zeros_like(params)
        pos_ends = []
        pos = 0
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            pos_ends.append((pos, pos + fan_out * fan_in, pos + fan_out * fan_in + fan_out))
            pos = pos_ends[-1][2]
        dz = err / n
        for i in reversed(range(len(layers))):
            w, _ = layers[i]
            w_start, b_start, b_end = pos_ends[i]
            grad[w_start:b_start] = (dz.T @ acts[i]).ravel()
            grad[b_start:b_end] = dz.sum(axis=0)
            if i > 0:
                da = dz @ w
                dz = da * (1.0 - acts[i] ** 2)  # tanh'(z) = 1 - tanh(z)^2
        return loss, grad


def mlp_dim(layer_sizes: list[int]) -> int:
    """Parameter count of an MLP: a weight matrix and a bias per layer."""
    return sum(fan_out * fan_in + fan_out for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]))


def make_objective(spec: dict) -> Objective:
    """Build an objective from its config mapping (see `config` module)."""
    kind = spec["kind"]
    if kind == "quadratic":
        return QuadraticObjective(
            dimension=spec["dimension"],
            spectrum_lo=spec["spectrum_lo"],
            spectrum_hi=spec["spectrum_hi"],
            rotation_seed=spec["rotation_seed"],
            noise_scale=spec.get("noise_scale", 0.1),
            init_scale=spec.get("init_scale", 1.0),
        )
    if kind == "rosenbrock_sum":
        return RosenbrockObjective(
            dimension=spec["dimension"],
            noise_scale=spec.get("noise_scale", 0.0),
            init_scale=spec.get("init_scale", 1.0),
        )
    if kind == "mlp_regression":
        return MlpRegressionObjective(
            layer_sizes=spec["layer_sizes"],
            teacher_seed=spec.get("teacher_seed", 0),
            teacher_scale=spec.get("teacher_scale", 1.0),
            init_scale=spec.get("init_scale", 1.0),
        )
    raise ValueError(f"unknown objective kind {kind!r}")


def sample_batch(obj: Objective, shard: Shard, round_idx: int, inner_step: int):
    """Deterministic batch for (shard, round, inner step)."""
    rng = np.random.default_rng((shard.seed, round_idx, inner_step))
    return obj.draw_batch(rng, shard.batch_size)


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


def init_reference_loss(obj: Objective, eval_batch, n_seeds: int = 32) -> float:
    """Untrained reference: mean loss of fresh inits on the eval batch.

    Divergence thresholds are defined relative to this value, which makes
    them task-local instead of importing any absolute loss scale.
    """
    losses = []
    for s in range(n_seeds):
        params = obj.init_params(derive_seed("init-reference", s))
        losses.append(obj.loss_and_grad(params, eval_batch)[0])
    return float(np.mean(losses))
