"""Span recorder for the benchmark's traced run.

The traced run wraps stalelab's public functions from the benchmark's own
files, under the names their callers look them up by. The simulator binds
its helpers with `from .objective import sample_batch` and the like, so a
wrapper goes on `stalelab.simulator.sample_batch`, not on
`stalelab.objective.sample_batch`. Each call records one span (name,
start, end, parent span, cell) in plain lists, which stay in memory until
the run ends. Self time is a span's duration minus the time its direct
children cover.

Cells of a `--jobs N` sweep run in forked pool workers, which inherit the
wrappers. Each worker writes its spans to a spool file after every cell and
the parent merges them, so that workload is traced below the harness too.
`perf_counter` is the system-wide monotonic clock, so times from different
processes share one base.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import os
import time
from pathlib import Path

import numpy as np

# (module, attribute path, span name) of every plain wrapped boundary.
WRAPPED = (
    ("stalelab.cli", "run_sweep", "harness.run_sweep"),
    ("stalelab.harness", "run_sweep", "harness.run_sweep"),
    ("stalelab.harness", "expand_sweep", "config.expand_sweep"),
    ("stalelab.harness", "save_result", "harness.save_result"),
    ("stalelab.simulator", "Simulation.__init__", "simulator.Simulation_init"),
    ("stalelab.simulator", "init_reference_loss", "objective.init_reference_loss"),
    ("stalelab.simulator", "Simulation.run_round", "simulator.run_round"),
    ("stalelab.simulator", "run_inner_phase", "simulator.run_inner_phase"),
    ("stalelab.simulator", "sample_batch", "objective.sample_batch"),
    ("stalelab.simulator", "inner_adamw_step", "optim.inner_adamw_step"),
    ("stalelab.simulator", "sample_delay", "simulator.sample_delay"),
    ("stalelab.simulator", "quantize_payload", "simulator.quantize_payload"),
    ("stalelab.simulator", "dequantize_payload", "simulator.dequantize_payload"),
    ("stalelab.simulator", "select_fragments", "simulator.select_fragments"),
    ("stalelab.simulator", "eager_step", "optim.eager_step"),
    ("stalelab.optim", "staleness_weight", "gate.staleness_weight"),
    ("stalelab.theory", "audit_run", "theory.audit_run"),
    ("stalelab.objective", "MlpRegressionObjective.loss_and_grad", "objective.loss_and_grad"),
    ("stalelab.objective", "QuadraticObjective.loss_and_grad", "objective.loss_and_grad"),
    ("stalelab.objective", "RosenbrockObjective.loss_and_grad", "objective.loss_and_grad"),
    ("stalelab.objective", "Objective.population_grad", "objective.population_grad"),
    ("stalelab.objective", "QuadraticObjective.population_grad", "objective.population_grad"),
)
OUTER_STEP = "optim.outer_step"  # recorded as optim.outer_step.<method>
RUN_EXPERIMENT = "harness.run_experiment"
COUNTS = ("simulator.trace_records", "simulator.queue_bytes")


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Spans and counts of one process, kept in parallel lists."""

    def __init__(self):
        self.names: list[str] = []
        self.cells: list[str] = []
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.cell_of: list[int] = []
        self.stack: list[int] = [-1]
        self.cell = -1
        self.counts = dict.fromkeys(COUNTS, 0)
        self._patches: list[tuple[object, str, object]] = []

    def clear(self):
        for column in (self.name, self.start, self.end, self.parent, self.cell_of):
            column.clear()
        self.stack[:] = [-1]
        self.cell = -1
        self.counts.update(dict.fromkeys(COUNTS, 0))

    def _id(self, table: list[str], key: str) -> int:
        try:
            return table.index(key)
        except ValueError:
            table.append(key)
            return len(table) - 1

    def _spanned(self, fn, name_of):
        """Wrap fn so each call records a span named by name_of(args)."""
        names, starts, ends, parents, cells, stack = (
            self.name, self.start, self.end, self.parent, self.cell_of, self.stack)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(name_of(args))
            parents.append(stack[-1])
            cells.append(tracer.cell)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return wrapper

    def _patch(self, module: str, path: str, make):
        owner, attr = _resolve(module, path)
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self, spool_dir: Path):
        """Wrap every boundary; forked pool workers spool to spool_dir."""
        for module, path, name in WRAPPED:
            nid = self._id(self.names, name)
            self._patch(module, path, lambda fn, nid=nid: self._spanned(fn, lambda _args: nid))

        outer_ids: dict[str, int] = {}

        def outer_name(args):  # outer_step(params, grad, tau, state, cfg)
            method = args[4].method
            if method not in outer_ids:
                outer_ids[method] = self._id(self.names, f"{OUTER_STEP}.{method}")
            return outer_ids[method]

        self._patch("stalelab.simulator", "outer_step", lambda fn: self._spanned(fn, outer_name))

        from stalelab.harness import result_filename

        run_id = self._id(self.names, RUN_EXPERIMENT)

        def cell_wrapper(fn):
            spanned = self._spanned(fn, lambda _args: run_id)

            @functools.wraps(fn)
            def run_experiment(config):
                self.cell = self._id(self.cells, result_filename(config.hash, config.master_seed))
                try:
                    result = spanned(config)
                finally:
                    self.cell = -1
                self.counts["simulator.trace_records"] += len(result.trace.records)
                return result

            return run_experiment

        self._patch("stalelab.harness", RUN_EXPERIMENT.split(".")[1], cell_wrapper)

        def queue_wrapper(entry_cls):
            def queue_entry(**fields):
                payload = fields["payload"]
                nbytes = (payload.nbytes if isinstance(payload, np.ndarray)
                          else payload.codes.nbytes + payload.scales.nbytes)
                self.counts["simulator.queue_bytes"] += nbytes
                return entry_cls(**fields)

            return queue_entry

        self._patch("stalelab.simulator", "QueueEntry", queue_wrapper)

        owner_pid = os.getpid()
        spool_seq = itertools.count()

        def spool_wrapper(fn):
            # Pool workers pickle this by its module path, which now names it.
            @functools.wraps(fn)
            def run_cell(resolved, out_dir):
                if os.getpid() == owner_pid:
                    return fn(resolved, out_dir)
                self.clear()  # drop the spans copied from the parent at fork
                try:
                    return fn(resolved, out_dir)
                finally:
                    self.dump(spool_dir / f"{os.getpid()}-{next(spool_seq)}.npz")

            return run_cell

        spool_dir.mkdir(parents=True, exist_ok=True)
        self._patch("stalelab.harness", "_run_cell", spool_wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def tracing(self, spool_dir: Path):
        self.install(spool_dir)
        try:
            yield self
        finally:
            self.uninstall()
        for path in sorted(spool_dir.glob("*.npz")):
            self.merge(path)

    def dump(self, path: Path):
        np.savez(path, name=np.asarray(self.name, dtype=np.int32), start=np.asarray(self.start),
                 end=np.asarray(self.end), parent=np.asarray(self.parent, dtype=np.int64),
                 cell=np.asarray(self.cell_of, dtype=np.int64), names=np.asarray(self.names, dtype=str),
                 cells=np.asarray(self.cells, dtype=str), counts=np.asarray(json.dumps(self.counts)))

    def merge(self, path: Path):
        """Append a spool file's spans, remapping its name, cell and span indices."""
        with np.load(path) as data:
            name_map = [self._id(self.names, str(n)) for n in data["names"]]
            cell_map = [self._id(self.cells, str(c)) for c in data["cells"]]
            offset = len(self.start)
            self.name.extend(name_map[i] for i in data["name"].tolist())
            self.start.extend(data["start"].tolist())
            self.end.extend(data["end"].tolist())
            self.parent.extend(p + offset if p >= 0 else -1 for p in data["parent"].tolist())
            self.cell_of.extend(cell_map[c] if c >= 0 else -1 for c in data["cell"].tolist())
            for key, value in json.loads(str(data["counts"])).items():
                self.counts[key] += value

    def durations(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Per span name: (inclusive durations, self times), in seconds.

        `optim.outer_step` also gets the union of its per-method spans.
        """
        name = np.asarray(self.name, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.int64)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = dur - covered
        out = {}
        for nid, label in enumerate(self.names):
            mask = name == nid
            out[label] = (dur[mask], own[mask])
        per_method = [v for k, v in out.items() if k.startswith(OUTER_STEP + ".")]
        if per_method:
            out[OUTER_STEP] = (np.concatenate([d for d, _ in per_method]),
                               np.concatenate([s for _, s in per_method]))
        return out
