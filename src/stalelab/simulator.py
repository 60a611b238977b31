"""Controlled-delay training loop: workers, delay queues, outer sync.

One outer round does, in order:

1. every worker copies the current global params, runs H inner AdamW
   steps on its own shard, and enqueues the parameter delta
   (snapshot - worker_params) with an integer delay drawn from the
   schedule. The K workers run as one stacked phase: their params and
   AdamW moments are (K, dim) arrays, so each inner step is one batch
   draw, one `loss_and_grad` and one AdamW call for all of them. Rows
   never mix, and each row is the same bytes as a worker run alone;
2. every queue entry whose available round equals the current round is
   dequeued in sorted (worker id, produced round) order and applied to
   the global params by the outer optimizer, one outer step per entry,
   restricted to this round's selected fragments;
3. fragment ages reset to 0 where selected, else grow by 1;
4. the global params are evaluated on a fixed held-out batch.

Everything is seeded through `derive_seed`, so a run is a deterministic
function of its config: same config, same bytes out. Entries still in
flight when the run ends are dropped, never applied. With a fixed delay
tau the first tau rounds therefore apply nothing and the loss curve is
flat; that is the protocol, not a bug.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .gate import effective_age
from .objective import (
    Objective,
    Shard,
    init_reference_loss,
    make_objective,
    sample_batch,
)
from .optim import (
    AdamMoments,
    InnerConfig,
    eager_step,
    init_outer_state,
    inner_adamw_step,
    method_row,
    outer_step,
)
from .seeding import derive_seed

__all__ = [
    "DelaySchedule",
    "FragmentPartition",
    "QueueEntry",
    "QuantizedPayload",
    "ApplyRecord",
    "Trace",
    "RunResult",
    "Simulation",
    "sample_delay",
    "select_fragments",
    "run_inner_phase",
    "quantize_payload",
    "dequantize_payload",
    "run_experiment",
]

DIVERGENCE_FACTOR = 5.0  # final loss above this multiple of the untrained reference flags the run
FINAL_LOSS_WINDOW = 5  # trailing rounds averaged into the reported final loss


@dataclass(frozen=True)
class DelaySchedule:
    """Integer delay per (worker, round); deterministic given the seed."""

    kind: str  # fixed | uniform_int | exponential
    seed: int = 0
    tau: int = 0
    lo: int = 0
    hi: int = 16
    rate: float = 0.25
    tau_max: int = 16

    @classmethod
    def from_spec(cls, spec: dict, seed: int) -> "DelaySchedule":
        kind = spec["kind"]
        if kind == "fixed":
            return cls(kind="fixed", seed=seed, tau=spec["tau"])
        if kind == "uniform_int":
            return cls(kind="uniform_int", seed=seed, lo=spec["lo"], hi=spec["hi"])
        if kind == "exponential":
            return cls(kind="exponential", seed=seed, rate=spec["rate"], tau_max=spec["tau_max"])
        raise ValueError(f"unknown delay kind {kind!r}")

    def label(self) -> str:
        if self.kind == "fixed":
            return f"fixed:{self.tau}"
        if self.kind == "uniform_int":
            return f"uniform:{self.lo}-{self.hi}"
        return f"exp:{self.rate}"


def sample_delay(schedule: DelaySchedule, worker: int, round_idx: int) -> int:
    """Delay for this (worker, round); independent of call order."""
    if schedule.kind == "fixed":
        return schedule.tau
    rng = np.random.default_rng((schedule.seed, worker, round_idx))
    if schedule.kind == "uniform_int":
        return int(rng.integers(schedule.lo, schedule.hi + 1))
    if schedule.kind == "exponential":
        raw = rng.exponential(1.0 / schedule.rate)
        return int(min(schedule.tau_max, int(np.rint(raw))))
    raise ValueError(f"unknown delay kind {schedule.kind!r}")


@dataclass
class FragmentPartition:
    """Disjoint index ranges covering [0, dim) plus per-fragment sync ages."""

    boundaries: list[tuple[int, int]]
    ages: np.ndarray
    starts: np.ndarray = field(init=False, repr=False)
    sizes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if any(end <= start for start, end in self.boundaries):
            raise ValueError(f"fragments must be non-empty, got {self.boundaries}")
        self.starts = np.array([start for start, _ in self.boundaries])
        self.sizes = np.array([end - start for start, end in self.boundaries])

    @classmethod
    def even_split(cls, dim: int, count: int) -> "FragmentPartition":
        if not (1 <= count <= dim):
            raise ValueError(f"fragment count must be in [1, {dim}], got {count}")
        edges = np.linspace(0, dim, count + 1).astype(int)
        boundaries = [(int(edges[i]), int(edges[i + 1])) for i in range(count)]
        return cls(boundaries=boundaries, ages=np.zeros(count, dtype=np.int64))

    def __len__(self) -> int:
        return len(self.boundaries)


def select_fragments(partition: FragmentPartition, budget: int) -> list[int]:
    """Oldest-first fragment selection, ties broken by fragment id."""
    count = len(partition)
    if not (1 <= budget <= count):
        raise ValueError(f"budget must be in [1, {count}], got {budget}")
    order = sorted(range(count), key=lambda f: (-int(partition.ages[f]), f))
    return sorted(order[:budget])


@dataclass
class QuantizedPayload:
    codes: np.ndarray  # int8, full parameter length
    scales: np.ndarray  # float64, one per fragment


@dataclass
class QueueEntry:
    worker: int
    produced_round: int
    tau: int
    available_round: int
    payload: np.ndarray | QuantizedPayload


def quantize_payload(grad: np.ndarray, partition: FragmentPartition) -> QuantizedPayload:
    """Symmetric per-fragment int8 quantization, scale = maxabs/127.

    All-zero fragments get scale 0 and zero codes; the max-magnitude
    element of each fragment maps to code +-127. Dequantization error is
    at most half a scale per element.
    """
    if not np.all(np.isfinite(grad)):
        raise ValueError("cannot quantize a non-finite payload")
    abs_grad = np.abs(grad)
    scales = np.maximum.reduceat(abs_grad, partition.starts) / 127.0
    # an all-zero fragment keeps scale 0; dividing its zeros by 1 gives code 0
    divisor = np.repeat(np.where(scales > 0.0, scales, 1.0), partition.sizes)
    q = np.sign(grad) * np.floor(abs_grad / divisor + 0.5)  # round half away from zero
    return QuantizedPayload(codes=np.clip(q, -127, 127).astype(np.int8), scales=scales)


def dequantize_payload(payload: QuantizedPayload, partition: FragmentPartition) -> np.ndarray:
    return payload.codes.astype(np.float64) * np.repeat(payload.scales, partition.sizes)


def run_inner_phase(
    obj: Objective,
    shards: list[Shard],
    global_snapshot: np.ndarray,
    inner_steps: int,
    round_idx: int,
    inner_cfg: InnerConfig,
) -> np.ndarray:
    """H inner AdamW steps per shard's worker, from fresh copies of the global params.

    Returns the (K, dim) pseudo-gradients snapshot - params_after, row k
    for shards[k]. The inner optimizer state is reset at every phase.
    Non-finite values simply propagate into the returned deltas; the
    caller flags divergence.
    """
    if inner_steps < 1:
        raise ValueError(f"inner_steps must be >= 1, got {inner_steps}")
    params = np.tile(global_snapshot, (len(shards), 1))
    state = AdamMoments.zeros(params.shape)
    for step in range(inner_steps):
        batch = sample_batch(obj, shards, round_idx, step)
        _, grad = obj.loss_and_grad(params, batch)
        params, state = inner_adamw_step(params, grad, state, inner_cfg)
    return global_snapshot - params


@dataclass
class ApplyRecord:
    """One outer-optimizer application (one queue entry on one fragment)."""

    round: int
    worker: int
    produced_round: int
    tau: int
    age: float
    fragment: int
    applied: bool
    sigma: float
    rho: float | None
    step_inf_norm: float
    grad_norm_sq: float | None  # exact population gradient, when the objective has one
    delta_norm_sq: float  # squared l2 norm of the full dequeued pseudo-gradient


@dataclass
class Trace:
    method: str
    eta: float
    alpha: float
    tau_cut: float
    records: list[ApplyRecord] = field(default_factory=list)
    l_smooth: float | None = None
    f_gap: float | None = None


@dataclass
class RunResult:
    """Everything one run reports. `trace` and wall time stay in memory;
    the serialized form must be byte-identical across reruns."""

    config: dict
    config_hash: str
    seed: int
    losses: list[float]
    final_loss: float | None
    diverged: bool
    reference_loss: float
    rounds_completed: int
    consumed_entries: int
    applied_updates: int
    dropped_updates: int
    sigma_bar: float | None
    rho_max: float | None
    rho_le_one_frac: float | None
    theory: dict | None
    wall_time_s: float = 0.0
    trace: Trace | None = None

    def to_json_dict(self) -> dict:
        return {
            "config": self.config,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "losses": [float(x) for x in self.losses],
            "final_loss": None if self.final_loss is None else float(self.final_loss),
            "diverged": bool(self.diverged),
            "reference_loss": float(self.reference_loss),
            "rounds_completed": int(self.rounds_completed),
            "consumed_entries": int(self.consumed_entries),
            "applied_updates": int(self.applied_updates),
            "dropped_updates": int(self.dropped_updates),
            "sigma_bar": None if self.sigma_bar is None else float(self.sigma_bar),
            "rho_max": None if self.rho_max is None else float(self.rho_max),
            "rho_le_one_frac": None if self.rho_le_one_frac is None else float(self.rho_le_one_frac),
            "theory": self.theory,
        }


class Simulation:
    """One deterministic run; see the module docstring for the protocol."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.row = method_row(config.method)
        self.obj = make_objective(config.objective)
        dim = self.obj.dim
        master = config.master_seed
        self.global_params = self.obj.init_params(derive_seed(master, "init"))
        self.partition = FragmentPartition.even_split(dim, config.fragment_count)
        self.frag_states = [
            init_outer_state(config.method, end - start)
            for start, end in self.partition.boundaries
        ]
        self.workers = [Shard.for_worker(master, w, config.batch_size) for w in range(config.workers)]
        self.delay = DelaySchedule.from_spec(config.delay, derive_seed(master, "delay"))
        eval_rng = np.random.default_rng(derive_seed(master, "eval"))
        self.eval_batch = self.obj.draw_batch(eval_rng, config.eval_batch_size)
        self.reference_loss = init_reference_loss(self.obj, self.eval_batch)
        self.pending: list[QueueEntry] = []
        self.round = 0
        self.diverged = False
        self.losses: list[float] = []
        self.consumed_entries = 0
        self.applied_updates = 0
        self.dropped_updates = 0
        gate = config.outer.gate
        self.trace = Trace(
            method=config.method,
            eta=config.outer.eta,
            alpha=gate.alpha,
            tau_cut=gate.tau_cut,
        )
        if self.obj.kind == "quadratic":
            self.trace.l_smooth = self.obj.smoothness
            self.trace.f_gap = float(self.obj.loss(self.global_params, None))
        # eager mixing history: last applied delta per worker, last round's mean delta
        self._prev_own: dict[int, np.ndarray] = {}
        self._prev_avg: np.ndarray | None = None

    def _entry_grad(self, entry: QueueEntry) -> np.ndarray:
        if isinstance(entry.payload, QuantizedPayload):
            return dequantize_payload(entry.payload, self.partition)
        return entry.payload

    def run_round(self, workers: list[Shard] | None = None) -> bool:
        """Execute one outer round; False once the run has diverged.

        `workers` overrides the stacking order only (same shards); results
        must not depend on it.
        """
        if self.diverged:
            return False
        cfg = self.config
        r = self.round

        shards = workers if workers is not None else self.workers
        deltas = run_inner_phase(self.obj, shards, self.global_params, cfg.inner_steps, r, cfg.inner)
        if not np.all(np.isfinite(deltas)):
            self.diverged = True
            return False
        for shard, delta in zip(shards, deltas):
            tau = sample_delay(self.delay, shard.worker_id, r)
            payload = quantize_payload(delta, self.partition) if cfg.quantize_queue else delta
            self.pending.append(
                QueueEntry(
                    worker=shard.worker_id,
                    produced_round=r,
                    tau=tau,
                    available_round=r + tau,
                    payload=payload,
                )
            )

        selected = select_fragments(self.partition, cfg.fragment_budget)
        due = sorted(
            (e for e in self.pending if e.available_round == r),
            key=lambda e: (e.worker, e.produced_round),
        )
        self.pending = [e for e in self.pending if e.available_round != r]

        eager = self.row.premix == "eager"
        fragment_age = self.row.age == "fragment"
        round_deltas: list[np.ndarray] = []
        for entry in due:
            self.consumed_entries += 1
            grad = self._entry_grad(entry)
            delta_norm_sq = float(grad @ grad)
            pop_grad = self.obj.population_grad(self.global_params)
            grad_norm_sq = None if pop_grad is None else float(pop_grad @ pop_grad)

            if eager:
                own = grad
                if entry.worker in self._prev_own and self._prev_avg is not None:
                    grad = eager_step(own, self._prev_own[entry.worker], self._prev_avg, cfg.workers)
                self._prev_own[entry.worker] = own
                round_deltas.append(own)

            entry_applied = False
            for f in selected:
                start, end = self.partition.boundaries[f]
                age = (
                    effective_age(entry.tau, float(self.partition.ages[f]))
                    if fragment_age
                    else float(entry.tau)
                )
                new_slice, new_state, info = outer_step(
                    self.global_params[start:end], grad[start:end], age,
                    self.frag_states[f], cfg.outer,
                )
                self.global_params[start:end] = new_slice
                self.frag_states[f] = new_state
                entry_applied = entry_applied or info.applied
                self.trace.records.append(
                    ApplyRecord(
                        round=r,
                        worker=entry.worker,
                        produced_round=entry.produced_round,
                        tau=entry.tau,
                        age=age,
                        fragment=f,
                        applied=info.applied,
                        sigma=info.sigma,
                        rho=info.rho,
                        step_inf_norm=info.step_inf_norm,
                        grad_norm_sq=grad_norm_sq,
                        delta_norm_sq=delta_norm_sq,
                    )
                )
            if entry_applied:
                self.applied_updates += 1
            else:
                self.dropped_updates += 1

        if eager and round_deltas:
            self._prev_avg = np.mean(round_deltas, axis=0)

        for f in range(len(self.partition)):
            self.partition.ages[f] = 0 if f in selected else self.partition.ages[f] + 1

        if not np.all(np.isfinite(self.global_params)):
            self.diverged = True
            return False
        eval_loss = self.obj.loss(self.global_params, self.eval_batch)
        if not np.isfinite(eval_loss):
            self.diverged = True
            return False
        self.losses.append(float(eval_loss))
        self.round += 1
        return True

    def run(self) -> RunResult:
        start = time.perf_counter()
        for _ in range(self.config.rounds):
            if not self.run_round():
                break
        wall = time.perf_counter() - start

        if self.diverged:
            final = self.losses[-1] if self.losses else None
        else:
            window = self.losses[-FINAL_LOSS_WINDOW:]
            final = float(np.mean(window)) if window else None
        if not self.diverged and final is not None and final > DIVERGENCE_FACTOR * self.reference_loss:
            self.diverged = True

        from . import theory  # deferred: theory imports this module's Trace

        records = self.trace.records
        sigma_bar, rho_max, rho_le_one = theory.trace_stats(records)
        audit = theory.audit_run(self.trace) if self.row.base == "adam" and records else None

        return RunResult(
            config=self.config.resolved,
            config_hash=self.config.hash,
            seed=self.config.master_seed,
            losses=self.losses,
            final_loss=final,
            diverged=self.diverged,
            reference_loss=self.reference_loss,
            rounds_completed=self.round,
            consumed_entries=self.consumed_entries,
            applied_updates=self.applied_updates,
            dropped_updates=self.dropped_updates,
            sigma_bar=sigma_bar,
            rho_max=rho_max,
            rho_le_one_frac=rho_le_one,
            theory=audit,
            wall_time_s=wall,
            trace=self.trace,
        )


def run_experiment(config: RunConfig) -> RunResult:
    """Run one config to completion and return its result (trace attached)."""
    return Simulation(config).run()
