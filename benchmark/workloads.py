"""The benchmark's workloads, how one pass of each runs, and the outcome gate.

Every workload is a sweep spec generated from the workload seed; stalelab
only ever sees the generated spec. All three are closed loops: the next
cell starts only when a worker slot is free.

A pass is one cold sweep into an empty directory, timed as `wall_s`,
followed by a resume sweep over the finished directory, timed apart. The
resume sweep skips every cell and rebuilds the summary from the files, so
it exercises the read path.

The outcome gate pins one sha256 per cell for the default seed at full
size, taken over the numeric outcome fields of the result file only. A
deliberate schema addition (a new top-level field) therefore leaves the
pins alone, while any change to the arithmetic moves them. Independently,
every result file and the summary must be byte-identical across the
passes of one invocation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from stalelab import cli
from stalelab.config import expand_sweep
from stalelab.harness import result_filename, run_sweep

DEFAULT_SEED = 0
FULL_ROUNDS = 200
PINS_PATH = Path(__file__).with_name("pins.json")

# Fixed here rather than read from stalelab, so a later change to the
# method registry cannot silently change what the benchmark runs.
METHODS = ("cgad", "pa_cgad", "adam", "adam_decay", "nesterov", "sdm",
           "poly_decay", "delayed_nesterov", "eager", "mla")

# The acceptance ranking task: mlp [8, 32, 1], K=4, H=8, batch 32, eval 256.
RANKING_BASE = {
    "version": 1,
    "objective": {"kind": "mlp_regression", "layer_sizes": [8, 32, 1], "teacher_seed": 17,
                  "teacher_scale": 0.07, "init_scale": 0.07},
    "workers": 4,
    "inner_steps": 8,
    "batch_size": 32,
    "eval_batch_size": 256,
    "method": "cgad",
    "delay": {"kind": "fixed", "tau": 0},
}
RANKING_DELAYS = [{"kind": "fixed", "tau": 0}, {"kind": "fixed", "tau": 16},
                  {"kind": "uniform_int", "lo": 0, "hi": 16}]

FRAGMENT_BASE = {
    "version": 1,
    "objective": {"kind": "quadratic", "dimension": 64, "spectrum_lo": 0.5, "spectrum_hi": 4.0,
                  "rotation_seed": 5, "noise_scale": 0.05},
    "workers": 4,
    "inner_steps": 1,
    "method": "cgad",
    "delay": {"kind": "exponential", "rate": 0.1, "tau_max": 48},
    "fragments": {"count": 32, "budget": 8},
}

# Numeric outcome fields of a result file that the pins cover.
OUTCOME_FIELDS = ("losses", "final_loss", "diverged", "reference_loss", "consumed_entries",
                  "applied_updates", "dropped_updates", "sigma_bar", "rho_max",
                  "rho_le_one_frac", "theory")


def ranking_spec(seed: int, rounds: int) -> dict:
    """{cgad, nesterov} x {fixed:0, fixed:16, uniform_int 0-16} x 3 seeds = 18 cells."""
    return {
        "version": 1,
        "base": {**RANKING_BASE, "rounds": rounds, "master_seed": seed},
        "axes": {"method": ["cgad", "nesterov"], "delay": RANKING_DELAYS,
                 "seed": [seed, seed + 1, seed + 2]},
    }


def fragment_spec(seed: int, rounds: int) -> dict:
    """Every method x quantize_queue {false, true} = 20 cells."""
    return {
        "version": 1,
        "base": {**FRAGMENT_BASE, "rounds": rounds, "master_seed": seed},
        "axes": {"method": list(METHODS), "quantize_queue": [False, True], "seed": [seed]},
    }


@dataclass(frozen=True)
class Workload:
    spec: Callable[[int, int], dict]  # (seed, rounds) -> sweep spec
    via_cli: bool  # cli.main(["sweep", ...]) with a process pool, else run_sweep(jobs=1)

    @property
    def jobs(self) -> int:
        # Never more worker processes than the machine has cores.
        return min(2, os.cpu_count() or 1) if self.via_cli else 1


WORKLOADS = {
    "ranking_grid": Workload(ranking_spec, via_cli=False),
    "fragment_matrix": Workload(fragment_spec, via_cli=False),
    "sweep_jobs2": Workload(ranking_spec, via_cli=True),
}


def _quiet(*_args):
    pass


def _sweep_once(workload: Workload, spec: dict, spec_path: Path, out_dir: Path) -> list[str]:
    """One sweep through the workload's entry point; returns its error lines."""
    if not workload.via_cli:
        _, errors = run_sweep(spec, out_dir, jobs=1, log=_quiet)
        return errors
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        rc = cli.main(["sweep", "--sweep", str(spec_path), "--out", str(out_dir),
                       "--jobs", str(workload.jobs)])
    if rc == 0:
        return []
    return [line for line in captured.getvalue().splitlines() if "FAILED" in line] or [f"exit code {rc}"]


@dataclass
class PassTiming:
    wall_s: float
    resume_s: float
    errors: list[str]


def run_pass(workload: Workload, spec: dict, out_dir: Path) -> PassTiming:
    """A cold sweep into the empty out_dir, then a resume sweep over it."""
    spec_path = out_dir.with_name(out_dir.name + ".spec.json")
    spec_path.parent.mkdir(parents=True, exist_ok=True)
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    t0 = time.perf_counter()
    errors = _sweep_once(workload, spec, spec_path, out_dir)
    t1 = time.perf_counter()
    errors += _sweep_once(workload, spec, spec_path, out_dir)
    t2 = time.perf_counter()
    return PassTiming(wall_s=t1 - t0, resume_s=t2 - t1, errors=errors)


def cell_files(spec: dict) -> list[str]:
    return [result_filename(cfg.hash, cfg.master_seed) for _, cfg in expand_sweep(spec)]


def outcome_digest(result: dict) -> str:
    picked = {name: result[name] for name in OUTCOME_FIELDS}
    return hashlib.sha256(json.dumps(picked, sort_keys=True).encode("utf-8")).hexdigest()


def load_pins() -> dict[str, str]:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))["cells"]


@dataclass
class PassCheck:
    """What one pass left on disk, judged cell by cell."""

    failures: dict[str, str] = field(default_factory=dict)  # result file -> reason
    summary_problem: str | None = None
    file_hashes: dict[str, str] = field(default_factory=dict)  # file -> sha256 of its bytes
    worker_steps: int = 0
    applied: int = 0
    consumed: int = 0


def check_pass(out_dir: Path, files: list[str], pins: dict[str, str] | None,
               reference: dict[str, str] | None) -> PassCheck:
    """Judge one finished pass.

    A cell fails if its result file is missing, if its outcome digest is
    not the pinned one (only when `pins` is given), or if its bytes differ
    from the same file of the reference pass (only when `reference` is
    given). The summary must match the reference pass byte for byte too.
    """
    check = PassCheck()
    for name in files:
        path = out_dir / name
        if not path.exists():
            check.failures[name] = "result file missing"
            continue
        raw = path.read_bytes()
        check.file_hashes[name] = hashlib.sha256(raw).hexdigest()
        if reference is not None and reference.get(name) != check.file_hashes[name]:
            check.failures[name] = "bytes differ from the first pass"
        result = json.loads(raw)
        if pins is not None and pins.get(name) != outcome_digest(result):
            check.failures[name] = "outcome digest differs from its pin"
        cfg = result["config"]
        check.worker_steps += cfg["workers"] * cfg["inner_steps"] * result["rounds_completed"]
        check.applied += result["applied_updates"]
        check.consumed += result["consumed_entries"]

    summary = out_dir / "summary.csv"
    if not summary.exists():
        check.summary_problem = "summary.csv missing"
    else:
        check.file_hashes[summary.name] = hashlib.sha256(summary.read_bytes()).hexdigest()
        if reference is not None and reference.get(summary.name) != check.file_hashes[summary.name]:
            check.summary_problem = "summary.csv differs from the first pass"
    return check


def write_pins(root: Path) -> dict[str, str]:
    """Run every workload's spec once at the default seed and pin its cells.

    Only for a deliberate change of results: say in CHANGES.md which
    digests moved and why.
    """
    pins: dict[str, str] = {}
    for builder in (ranking_spec, fragment_spec):
        spec = builder(DEFAULT_SEED, FULL_ROUNDS)
        out_dir = root / builder.__name__
        _, errors = run_sweep(spec, out_dir, jobs=1, log=_quiet)
        if errors:
            raise RuntimeError(f"cannot pin, cells failed: {errors}")
        for name in cell_files(spec):
            pins[name] = outcome_digest(json.loads((out_dir / name).read_text(encoding="utf-8")))
    PINS_PATH.write_text(json.dumps({"seed": DEFAULT_SEED, "rounds": FULL_ROUNDS, "cells": pins},
                                    indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return pins
