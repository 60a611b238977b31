"""Controlled-delay training loop: workers, delay queues, outer sync.

One outer round does, in order:

1. every worker k copies the current global params, runs H inner AdamW
   steps on the batches of its seed row (row k of `batch_seeds`), and
   enqueues the parameter delta (snapshot - worker_params). The K workers
   run as one stacked phase in
   one workspace: their params, AdamW moments and gradient are (K, dim)
   arrays, and an mlp's inputs a (K, n, d_in) one, allocated once per
   phase. Each inner step is one batch draw (a linear-noise batch is the
   K workers' (1, dim) mean rows, from the stream memo), one
   `loss_and_grad` and one AdamW call for all of them, and each writes its
   result into the workspace in place. Rows never mix, and each row is the
   same bytes as a worker run alone. The K deltas, row w for worker w,
   are written into the run's float64 payload ring with one row write,
   ring[round % span] = deltas, as the outer step will read them: with a
   quantized queue, quantized to int8 codes and per-fragment scales and
   dequantized, each in one call, as queued;
2. the entries due this round are read from the due schedule in
   (worker id, produced round) order, their payloads gathered from the
   ring with one fancy index, and applied
   to the global params in that order by one outer step for the round
   over its selected fragments, each fragment of each entry weighted by
   its own age. One `OuterState` holds the outer state: the fragments and
   their ages, the optimizer state and the eager history. The trace gets
   one `ApplyRecord` row per (entry, selected fragment), written one
   column at a time per round;
3. fragment ages reset to 0 where selected, else grow by 1;
4. the global params are evaluated on a fixed held-out batch.

The due schedule (`due_schedule`) is the queue's order, drawn ahead: for
the run's rounds it draws each (worker, round) delay with `sample_delay`
and sorts the entries once, by due round, into flat read-only arrays, so a
round reads its due entries as one slice. It depends only on the delay
schedule, the worker count and the run's length, so the runs of a sweep
that share them share one, kept in `seeding.STREAM_MEMO` by those three
values. A run builds or looks up its schedule on its first round, with its
payload ring (`DelayQueue`), sized once so that no payload is overwritten
before its entry comes due or the run ends. A run steps at most `config.rounds`
rounds.

A run's objective depends only on its resolved objective config, and its
eval batch and reference loss (the mean loss of 32 fresh inits on it,
which the divergence rule reads) only on that, the eval batch size and the
eval seed. A process builds each objective and draws each such pair once,
on the first run that asks for it, and keeps it read-only in
`seeding.STREAM_MEMO` by those values; every run with that key reads the
same instance.

Runs can step in lockstep (`run_lockstep`): round-major, every live run
stepping round r before any steps round r + 1. The B runs of a round whose
inner phases read the same inputs besides their global params (one
`phase_key`) run them as one stacked phase: a (B*K, dim) workspace, each
step's batch drawn once and repeated B times along the leading axis. Rows
still never mix, so each run gets the bytes it gets alone, and each run's
deltas are an array of its own. A lone run (`run_experiment`) is a
lockstep of one, so every run steps to its end through this one driver.

Everything is seeded through `derive_seed`, so a run is a deterministic
function of its config: same config, same bytes out. The generator of
each batch and each delay draw is built from a seed table that the run
hashes once for many rounds (`batch_seeds`, `delay_seeds`); it gives the
same bytes as `np.random.default_rng((worker seed, round, step))` and
`np.random.default_rng((delay seed, worker, round))`. Entries still in
flight when the run ends are dropped, never applied. With a fixed delay
tau the first tau rounds therefore apply nothing and the loss curve is
flat; that is the protocol, not a bug.
"""

from __future__ import annotations

import json
import math
import time
from collections.abc import Iterator
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, ClassVar

import numpy as np

from . import theory
from .objective import (
    Objective,
    _dot,
    batch_seeds,
    init_reference_loss,
    make_objective,
    sample_batch,
)
from .optim import (
    AdamMoments,
    Fragments,
    InnerConfig,
    OuterConfig,
    OuterState,
    eager_step,
    inner_adamw_step,
    method_row,
    outer_step,
)
from .schema import check_fields, key
from .seeding import STREAM_MEMO, derive_seed, seed_table, seeded_generator

if TYPE_CHECKING:
    from .config import RunConfig

__all__ = [
    "DelaySchedule",
    "DueSchedule",
    "DelayQueue",
    "QueueEntry",
    "QuantizedPayload",
    "ApplyRecord",
    "Trace",
    "RunResult",
    "Simulation",
    "phase_key",
    "run_lockstep",
    "delay_seeds",
    "sample_delay",
    "due_schedule",
    "select_fragments",
    "run_inner_phase",
    "quantize_payload",
    "dequantize_payload",
    "run_experiment",
]

DIVERGENCE_FACTOR = 5.0  # final loss above this multiple of the untrained reference flags the run
FINAL_LOSS_WINDOW = 5  # trailing rounds averaged into the reported final loss
SEED_TABLE_ROWS = 8192  # batch or delay seeds hashed at once; bounds the seed tables of a long run
LAST_ROUND = np.iinfo(np.int64).max  # the last round a due schedule can name


@dataclass(frozen=True)
class DelaySchedule:
    """Integer delay per (worker, round), deterministic given the seed; KEYS lists each kind's config keys."""

    KEYS: ClassVar[dict] = {"fixed": ("tau",), "uniform_int": ("lo", "hi"), "exponential": ("rate", "tau_max")}

    kind: str = key(choices=KEYS)
    seed: int = 0
    tau: int = key(0, required=True, integer=True, lo=0)
    lo: int = key(0, integer=True, lo=0, le="hi")
    hi: int = key(16, integer=True, lo=0, hi=2**63 - 1)  # the most numpy's int64 integers(lo, hi + 1) can draw
    rate: float = key(0.25, lo=0, lo_open=True)
    tau_max: int = key(16, integer=True, lo=0)

    def __post_init__(self):
        check_fields(self)

    def label(self) -> str:
        if self.kind == "fixed":
            return f"fixed:{self.tau}"
        if self.kind == "uniform_int":
            return f"uniform:{self.lo}-{self.hi}"
        return f"exp:{self.rate}/{self.tau_max}"


def delay_seeds(schedule: DelaySchedule, workers: int, rounds: range) -> np.ndarray:
    """Seed table of every (worker, round) delay draw, shape (workers, len(rounds), 4).

    Entry [w, i] is the state `np.random.default_rng((schedule.seed, w, rounds[i]))`
    starts from.
    """
    keys = np.stack(np.meshgrid(np.arange(workers), np.asarray(rounds), indexing="ij"), axis=-1)
    return seed_table(schedule.seed, keys.reshape(-1, 2)).reshape(workers, len(rounds), 4)


def sample_delay(schedule: DelaySchedule, seeds: np.ndarray) -> list[int]:
    """The delays of an (n, 4) stack of `delay_seeds` rows (a window of a due schedule), one per row;
    order-free."""
    if schedule.kind == "fixed":
        return [schedule.tau] * len(seeds)

    def draw(row):
        rng = seeded_generator(row)
        if schedule.kind == "uniform_int":
            return int(rng.integers(schedule.lo, schedule.hi + 1))
        # exponential; min before int(), so a draw that overflows to inf (a tiny rate) gives tau_max
        return int(min(schedule.tau_max, np.rint(rng.exponential(1.0 / schedule.rate))))

    return [draw(row) for row in seeds]


@dataclass(frozen=True)
class DueSchedule:
    """The queue entries of a run: one per (worker, round) of its rounds.

    `entries` holds each entry's (worker id, produced round, tau) as an int64
    row, in (due round, worker id, produced round) order, the due round
    being produced round + tau. The entries due at a round d of the run are
    entries[bounds[d]:bounds[d + 1]]; entries[bounds[-1]:] come due after
    the run. An entry whose due round would pass LAST_ROUND never comes due
    and is left out. `reach` is the most rounds past its production that any
    entry's payload must be kept before the run ends: its tau, or the rounds
    left in the run if fewer. Every array is read-only, so runs can share
    one schedule.
    """

    entries: np.ndarray
    bounds: np.ndarray
    reach: int

    @property
    def nbytes(self) -> int:
        return self.entries.nbytes + self.bounds.nbytes + 8


def due_schedule(schedule: DelaySchedule, workers: int, rounds: int) -> DueSchedule:
    """The due schedule of workers 0..workers-1 over `rounds` rounds. The delays are drawn with one
    `sample_delay` call per seed table of at most SEED_TABLE_ROWS // workers rounds."""
    tau = np.empty((workers, rounds), dtype=np.int64)
    window = max(1, SEED_TABLE_ROWS // workers)
    for start in range(0, rounds, window):
        stop = min(rounds, start + window)
        seeds = delay_seeds(schedule, workers, range(start, stop)).reshape(-1, 4)
        tau[:, start:stop] = np.reshape(sample_delay(schedule, seeds), (workers, -1))
    worker, produced = np.divmod(np.arange(workers * rounds), rounds)  # worker-major, as tau is
    tau = tau.ravel()
    comes_due = tau <= LAST_ROUND - produced  # compared before adding, so no due round overflows
    worker, produced, tau = worker[comes_due], produced[comes_due], tau[comes_due]
    due = produced + tau
    order = np.lexsort((produced, worker, due))
    entries = np.stack((worker, produced, tau), axis=1)[order]
    bounds = np.searchsorted(due[order], np.arange(rounds + 1))
    reach = int(np.minimum(tau, rounds - 1 - produced).max(initial=0))
    for array in (entries, bounds):
        array.flags.writeable = False
    return DueSchedule(entries, bounds, reach)


def select_fragments(fragments: Fragments, budget: int) -> list[int]:
    """Oldest-first fragment selection, ties broken by fragment id."""
    count = len(fragments)
    if not (1 <= budget <= count):
        raise ValueError(f"budget must be in [1, {count}], got {budget}")
    oldest = np.argsort(-fragments.ages, kind="stable")[:budget]  # stable: lower id first on ties
    return np.sort(oldest).tolist()


@dataclass
class QuantizedPayload:
    codes: np.ndarray  # int8, full parameter length (a row per payload when stacked)
    scales: np.ndarray  # float64, one per fragment


@dataclass
class QueueEntry:
    """One entry in flight, as `DelayQueue.in_flight` lists it."""

    worker: int
    produced_round: int
    tau: int
    payload: np.ndarray


def quantize_payload(grad: np.ndarray, fragments: Fragments) -> QuantizedPayload:
    """Symmetric per-fragment int8 quantization, scale = maxabs/127, of a (dim,) or (K, dim) payload.

    All-zero fragments get scale 0 and zero codes; the max-magnitude
    element of each fragment maps to code +-127. Dequantization error is
    at most half a scale per element. Each row quantizes to the bytes it
    would give alone. The codes are computed in one temporary, in place.
    """
    if not np.isfinite(grad).all():
        raise ValueError("cannot quantize a non-finite payload")
    q = np.abs(grad)
    scales = np.maximum.reduceat(q, fragments.starts, axis=-1) / 127.0
    # an all-zero fragment keeps scale 0; dividing its zeros by 1 gives code 0
    q /= np.repeat(np.where(scales > 0.0, scales, 1.0), fragments.sizes, axis=-1)
    q += 0.5
    np.floor(q, out=q)  # round half away from zero, once the sign is back
    np.copysign(q, grad, out=q)  # a zero keeps code 0 whatever its sign
    return QuantizedPayload(codes=np.clip(q, -127, 127, out=q).astype(np.int8), scales=scales)


def dequantize_payload(payload: QuantizedPayload, fragments: Fragments) -> np.ndarray:
    return payload.codes.astype(np.float64) * np.repeat(payload.scales, fragments.sizes, axis=-1)


class DelayQueue:
    """A run's queue entries in flight: when each comes due, and its payload.

    `schedule` is the run's due schedule. Payloads sit in a float64 ring of
    `span` rounds, one (workers, dim) row block per round: worker w's
    payload of round p is ring[p % span, w], the pseudo-gradient the outer
    step reads. The span exceeds the schedule's reach, so no payload is
    overwritten before its entry comes due or the run ends.
    """

    def __init__(self, schedule: DueSchedule, workers: int, dim: int):
        self.schedule = schedule
        self.span = schedule.reach + 1
        self.ring = np.zeros((self.span, workers, dim))

    def push(self, r: int, rows: np.ndarray) -> None:
        """Write round r's (workers, dim) payloads, row w for worker w, with one row write."""
        self.ring[r % self.span] = rows

    def due(self, r: int) -> np.ndarray:
        """The (worker id, produced round, tau) rows of the entries due at round r, in (worker id, produced
        round) order: a read-only view of the schedule."""
        return self.schedule.entries[self.schedule.bounds[r]:self.schedule.bounds[r + 1]]

    def payloads(self, due: np.ndarray) -> np.ndarray:
        """The due entries' pseudo-gradients, gathered from the ring with one index and stacked (E, dim)."""
        return self.ring[due[:, 1] % self.span, due[:, 0]]

    def in_flight(self, r: int) -> list[QueueEntry]:
        """Entries produced before round r that come due at or after it, in (due round, worker id, produced
        round) order; each payload views the ring."""
        later = self.schedule.entries[self.schedule.bounds[r]:]
        return [QueueEntry(worker=w, produced_round=p, tau=tau, payload=self.ring[p % self.span, w])
                for w, p, tau in later[later[:, 1] < r].tolist()]


def phase_key(config: RunConfig) -> str:
    """The config values a run's inner phase reads besides its global params and round: the resolved
    objective, inner config and inner steps, and the batch streams' master seed, worker count and batch size.
    Runs with one key at one round can step one stacked phase (`run_lockstep`)."""
    names = ("objective", "inner", "inner_steps", "master_seed", "workers", "batch_size")
    return json.dumps([config.resolved[name] for name in names], sort_keys=True)


def run_inner_phase(
    obj: Objective,
    seeds: np.ndarray,
    snapshots: np.ndarray,
    inner_cfg: InnerConfig,
    batch_size: int,
) -> list[np.ndarray]:
    """H inner AdamW steps per worker for each of B runs, from fresh copies of their global params.

    `seeds` is the (K, H, 4) slice of `batch_seeds` for one round, row k
    worker k's seed row; H is the number of inner steps, and each batch
    holds batch_size samples. `snapshots` is (B, dim): the global params of
    B runs that read these batches (B = 1 for a run alone). Returns each
    run's (K, dim) pseudo-gradients snapshot - params_after, row k for
    worker k, each an array of its own. The phase runs in one workspace of
    its own: (B*K, dim) params, AdamW moments and gradient, and the
    objective's batch buffer, each step writing them in place and reading
    its batch repeated B times. Rows never mix, so each
    run's deltas are the bytes of its phase alone. The inner optimizer
    state is reset at every phase. Non-finite values simply propagate into
    the returned deltas; the caller flags divergence.
    """
    if seeds.ndim != 3 or not seeds.shape[0] or not seeds.shape[1]:
        raise ValueError(f"need (K >= 1, H >= 1, 4) batch seeds, got {seeds.shape}")
    if snapshots.ndim != 2 or not len(snapshots):
        raise ValueError(f"need (B >= 1, dim) snapshots, got {snapshots.shape}")
    workers = len(seeds)
    params = np.repeat(snapshots, workers, axis=0)
    state = AdamMoments.zeros(params.shape)
    grad = np.empty_like(params)
    inputs = obj.batch_buffer(workers, batch_size)
    for step in range(seeds.shape[1]):
        batch = sample_batch(obj, seeds[:, step], batch_size, out=inputs)
        _, step_grad = obj.loss_and_grad(params, _repeated(batch, len(snapshots)), out=grad)
        inner_adamw_step(params, step_grad, state, inner_cfg)
    runs = params.reshape(len(snapshots), workers, -1)
    return [np.subtract(snapshot, rows) for snapshot, rows in zip(snapshots, runs)]


def _repeated(batch, copies: int):
    """A stacked batch (an array or a tuple of them) repeated along its leading axis; itself at one copy."""
    if copies == 1:
        return batch
    if isinstance(batch, tuple):
        return tuple(np.concatenate([part] * copies) for part in batch)
    return np.concatenate([batch] * copies)


def _parts(batch) -> tuple:
    """The arrays of a batch: itself, or the parts of a tuple."""
    return batch if isinstance(batch, tuple) else (batch,)


def _array_nbytes(obj: Objective) -> int:
    """Bytes of the arrays an objective holds (views of them excluded)."""
    return sum(value.nbytes for value in vars(obj).values() if isinstance(value, np.ndarray))


def _eval_nbytes(drawn: tuple) -> int:
    """Bytes of a kept (eval batch, reference loss) pair."""
    return sum(part.nbytes for part in _parts(drawn[0])) + 8


# One trace row per (queue entry, selected fragment), in application order.
# rho is NaN where there is no Adam ratio (a momentum base, or a dropped
# update); grad_norm_sq is the squared norm of the exact population gradient
# at the params the entry was applied to, filled in only where audit_run reads
# it (the adam base on an objective with an exact gradient) and NaN elsewhere;
# delta_norm_sq is the squared l2 norm of the full dequeued pseudo-gradient.
ApplyRecord = np.dtype([
    ("round", np.int64), ("worker", np.int64), ("produced_round", np.int64), ("tau", np.int64),
    ("age", np.float64), ("fragment", np.int64), ("applied", np.bool_), ("sigma", np.float64),
    ("rho", np.float64), ("step_inf_norm", np.float64), ("grad_norm_sq", np.float64),
    ("delta_norm_sq", np.float64),
])


def _norms_sq(rows: np.ndarray) -> np.ndarray:
    """Squared l2 norm of each row as an (E, 1) column, each the bytes of `row @ row`."""
    return _dot(rows, rows)[:, None]


@dataclass
class Trace:
    """A run's outer applications as one ApplyRecord array, plus what the audit needs.

    `outer` is the run's outer config; exact_grad says whether grad_norm_sq
    holds the objective's exact population gradient (only on the adam base);
    `Simulation.result` fills in `records`.
    """

    outer: OuterConfig
    records: np.ndarray = field(default_factory=lambda: np.zeros(0, ApplyRecord))
    l_smooth: float | None = None
    f_gap: float | None = None
    exact_grad: bool = False


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
    reference_loss: float | None  # None where the reference inits overflow (JSON has no NaN)
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

    @classmethod
    def json_keys(cls) -> list[str]:
        """The keys `to_json_dict` writes: every field but wall time and trace."""
        return [f.name for f in fields(cls) if f.name not in ("wall_time_s", "trace")]

    def to_json_dict(self) -> dict:
        """Every field in `json_keys`; each value is already a JSON built-in."""
        return {name: getattr(self, name) for name in self.json_keys()}


class Simulation:
    """One deterministic run; see the module docstring for the protocol."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.row = method_row(config.method)
        # every value make_objective reads, so the cells that share them share one read-only objective
        objective = json.dumps(config.objective, sort_keys=True)
        self.obj = STREAM_MEMO.get(("objective", objective), lambda: make_objective(config.objective), _array_nbytes)
        dim = self.obj.dim
        master = config.master_seed
        self.global_params = self.obj.init_params(derive_seed(master, "init"))
        self.outer_state = OuterState.zeros(Fragments.even_split(dim, config.fragments["count"]).sizes)
        self.delay = DelaySchedule(seed=derive_seed(master, "delay"), **config.delay)
        # every value the eval pair reads, so the cells that share them share one read-only pair
        eval_seed = derive_seed(master, "eval")
        self.eval_batch, self.reference_loss = STREAM_MEMO.get(
            ("eval", objective, config.eval_batch_size, eval_seed), lambda: self._draw_eval(eval_seed), _eval_nbytes)
        self.queue: DelayQueue | None = None  # its due schedule is looked up on the first round
        self.round = 0
        # the batch seed table of the rounds in _batch_rounds, hashed when read
        self._batch_rounds = range(0)
        self._batch_seeds: np.ndarray | None = None
        self.diverged = False
        self.losses: list[float] = []
        # grad_norm_sq is computed only where audit_run reads it
        audited = self.row.base == "adam" and self.obj.population_grad(self.global_params) is not None
        self.trace = Trace(config.outer, exact_grad=audited)
        # room for one trace row per (entry, fragment) of every round; `result` hands out a view
        self._records = np.empty(config.rounds * config.workers * config.fragments["budget"], ApplyRecord)
        self._recorded = 0
        if self.obj.kind == "quadratic":
            self.trace.l_smooth = self.obj.smoothness
            self.trace.f_gap = float(self.obj.loss(self.global_params, None))

    def _draw_eval(self, seed: int) -> tuple:
        """The eval batch drawn from the eval seed, made read-only, and its reference loss."""
        batch = self.obj.draw_batch(np.random.default_rng(seed), self.config.eval_batch_size)
        for part in _parts(batch):
            part.flags.writeable = False
        return batch, init_reference_loss(self.obj, batch)

    def round_batch_seeds(self) -> np.ndarray:
        """This round's (K, H, 4) batch seed rows. A table covers the rest of the run, capped at
        SEED_TABLE_ROWS batch seeds but at least one round, and is hashed when a round it does not
        cover is read, so a run whose lockstep group reads another run's rows hashes none."""
        cfg, r = self.config, self.round
        if r not in self._batch_rounds:
            per_table = max(1, min(cfg.rounds - r, SEED_TABLE_ROWS // (cfg.workers * cfg.inner_steps)))
            self._batch_rounds = range(r, r + per_table)
            self._batch_seeds = batch_seeds(cfg.master_seed, cfg.workers, self._batch_rounds, cfg.inner_steps)
        return self._batch_seeds[:, r - self._batch_rounds.start]

    def _due_schedule(self) -> DueSchedule:
        """The run's due schedule, from the stream memo; every value it reads is in its key."""
        workers, rounds = self.config.workers, self.config.rounds
        return STREAM_MEMO.get(("due", self.delay, workers, rounds), lambda: due_schedule(self.delay, workers, rounds),
                               lambda built: built.nbytes)

    def _apply(self, r: int, due: np.ndarray, plan: tuple, selected_ages: np.ndarray) -> None:
        """Apply round r's due entries, (worker id, produced round, tau) rows in order, with one outer step
        over `plan`, and write their trace rows."""
        cfg, state = self.config, self.outer_state
        grads = self.queue.payloads(due)
        delta_norm_sq = _norms_sq(grads)
        if self.row.premix == "eager":
            own, grads = grads, grads.copy()
            for j, worker in enumerate(due[:, 0].tolist()):
                if worker in state.prev_own and state.prev_avg is not None:
                    grads[j] = eager_step(own[j], state.prev_own[worker], state.prev_avg, cfg.workers)
                state.prev_own[worker] = own[j]
            state.prev_avg = np.mean(own, axis=0)
        taus = due[:, 2:].astype(np.float64)
        # a fragment-aged method weighs each fragment by max(tau, rounds since the fragment last synced)
        ages = np.maximum(taus, selected_ages) if self.row.age == "fragment" else taus.repeat(len(plan[0]), 1)
        before = np.empty(grads.shape) if self.trace.exact_grad else None
        applied, sigma, rho, norm = outer_step(
            self.global_params, grads, ages, state, cfg.outer, plan, before=before)
        grad_norm_sq = np.nan if before is None else _norms_sq(self.obj.population_grad(before))
        values = (r, due[:, :1], due[:, 1:2], taus, ages, plan[0], applied, sigma, rho, norm,
                  grad_norm_sq, delta_norm_sq)  # in ApplyRecord field order, each broadcast to (E, budget)
        # the entries' (E, budget) rows, the next of the trace buffer
        start, self._recorded = self._recorded, self._recorded + ages.size
        rows = self._records[start:self._recorded].reshape(ages.shape)
        for name, value in zip(ApplyRecord.names, values):
            rows[name] = value

    def run_round(self, deltas: np.ndarray | None = None) -> bool:
        """Execute one outer round; False once the run has diverged.

        `deltas` is the round's inner phase where a lockstep group already
        ran it (see `run_lockstep`); None runs it here. Raises ValueError
        once the run has stepped its config.rounds rounds.
        """
        cfg = self.config
        r = self.round
        if r >= cfg.rounds:
            raise ValueError(f"the run has stepped its {cfg.rounds} rounds")
        if self.diverged:
            return False

        if deltas is None:
            (deltas,) = run_inner_phase(self.obj, self.round_batch_seeds(), self.global_params[None], cfg.inner,
                                        cfg.batch_size)
        if not np.isfinite(deltas).all():
            self.diverged = True
            return False
        if self.queue is None:
            self.queue = DelayQueue(self._due_schedule(), cfg.workers, self.obj.dim)
        queue = self.queue
        fragments = self.outer_state.fragments
        if cfg.quantize_queue:  # the ring holds the deltas as delivered
            deltas = dequantize_payload(quantize_payload(deltas, fragments), fragments)
        queue.push(r, deltas)

        # the selection is a function of the fragment ages, so it is made once per ages state
        picked = fragments.picks.get(fragments.ages.tobytes())
        if picked is None:
            picked = fragments.pick(select_fragments(fragments, cfg.fragments["budget"]))
        plan, selected_ages, after = picked
        due = queue.due(r)
        if len(due):
            self._apply(r, due, plan, selected_ages)
        fragments.ages[:] = after

        if not np.isfinite(self.global_params).all():
            self.diverged = True
            return False
        eval_loss = self.obj.loss(self.global_params, self.eval_batch)
        if not np.isfinite(eval_loss):
            self.diverged = True
            return False
        self.losses.append(float(eval_loss))
        self.round += 1
        return True

    @property
    def done(self) -> bool:
        """Whether the run has diverged or reached config.rounds."""
        return self.diverged or self.round >= self.config.rounds

    def result(self, wall: float) -> RunResult:
        """The result of the rounds run so far, `wall` seconds of them; the 5x rule may flag the result,
        never the run, so asking twice gives the same result."""
        diverged = self.diverged
        if diverged:
            final = self.losses[-1] if self.losses else None
        else:
            window = self.losses[-FINAL_LOSS_WINDOW:]
            final = float(np.mean(window)) if window else None
            diverged = final is not None and final > DIVERGENCE_FACTOR * self.reference_loss

        records = self.trace.records = self._records[:self._recorded]
        # an entry (its budget rows) counts as applied if any of its fragments applied, else as dropped
        hits = records["applied"].reshape(-1, self.config.fragments["budget"]).any(axis=1)
        audit = theory.audit_run(self.trace) if self.row.base == "adam" and len(records) else None
        sigma_bar, rho_max, rho_le_one = (theory.trace_stats(records) if audit is None  # else the audit holds them
                                          else (audit["sigma_bar"], audit["rho_max"], audit["rho_le_one_frac"]))

        return RunResult(
            config=self.config.resolved,
            config_hash=self.config.hash,
            seed=self.config.master_seed,
            losses=self.losses,
            final_loss=final,
            diverged=diverged,
            reference_loss=self.reference_loss if math.isfinite(self.reference_loss) else None,
            rounds_completed=self.round,
            consumed_entries=len(hits),
            applied_updates=int(np.count_nonzero(hits)),
            dropped_updates=int(np.count_nonzero(~hits)),
            sigma_bar=sigma_bar,
            rho_max=rho_max,
            rho_le_one_frac=rho_le_one,
            theory=audit,
            wall_time_s=wall,
            trace=self.trace,
        )


def run_lockstep(sims: list[Simulation]) -> Iterator[tuple[int, RunResult | Exception]]:
    """Run sims round-major: every live run steps round r before any steps round r + 1.

    Yields (index into sims, RunResult) as each run ends, or (index, the
    exception) for a run that raised, which ends only that run. Each round,
    the live runs with one `phase_key` at one round form a group, and a
    group of two or more runs its phase as one stacked call on its first
    run's seed rows, so it draws each step's batch once. If that call
    raises, the group's runs step their phases alone for the round, so a
    failure stays with its run. A stacked phase's time is split evenly
    among its runs, so their wall times sum to the time spent on them.
    """
    walls = [0.0] * len(sims)
    keys = [phase_key(sim.config) for sim in sims]
    live = list(range(len(sims)))
    while live:
        groups: dict[tuple, list[int]] = {}
        for i in live:
            if not sims[i].done:
                groups.setdefault((keys[i], sims[i].round), []).append(i)
        deltas = {}
        for group in (group for group in groups.values() if len(group) > 1):
            lead, start = sims[group[0]], time.perf_counter()
            try:
                snapshots = np.array([sims[i].global_params for i in group])
                deltas.update(zip(group, run_inner_phase(lead.obj, lead.round_batch_seeds(), snapshots,
                                                         lead.config.inner, lead.config.batch_size)))
            except Exception:  # noqa: BLE001 - the group's runs step alone below, so a failure stays with its run
                pass
            for i in group:
                walls[i] += (time.perf_counter() - start) / len(group)
        stepping = []
        for i in live:
            sim, start = sims[i], time.perf_counter()
            try:
                if not sim.done:
                    sim.run_round(deltas=deltas.pop(i, None))
                walls[i] += time.perf_counter() - start
                outcome = sim.result(walls[i]) if sim.done else None
            except Exception as exc:  # noqa: BLE001 - one run's failure must not end the others
                outcome = exc
            if outcome is None:
                stepping.append(i)
            else:
                yield i, outcome
        live = stepping


def run_experiment(config: RunConfig) -> RunResult:
    """Run one config to completion, a lockstep of one, and return its result (trace attached);
    raise what the run raised."""
    ((_, outcome),) = run_lockstep([Simulation(config)])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
