"""Result persistence, sweep orchestration, and summary tables.

A result file is named `<config_hash[:16]>_s<seed>.json` and contains the
full resolved config, so it is self-describing and byte-identical across
reruns of the same build; it is renamed into place once written in full,
as is the sweep's `summary.csv`. A sweep starts by removing the temp files
(`.<name>.<pid>.tmp`) that a process now gone left by a kill before its
rename. Sweeps are resumable: a cell is skipped when its file parses, holds
exactly the keys this build writes, and holds the cell's config hash, seed
and resolved config; any other file is re-run and the reason logged.

A sweep runs its cells in bundles (see `_bundles`): the cells whose inner
phases read the same inputs run in one process, round-major
(`simulator.run_lockstep`), and step each round's inner phases as one
stacked phase that draws each batch once; every cell gives the bytes it
gives alone, and its file is written as it ends. A bundle of one cell, and
a lone run (`run_to_file`), is a lockstep of one: every run steps through
the same driver. A pool child that
dies breaks the pool and fails every cell of the bundles still in it;
those cells are resubmitted once, one cell per bundle, to a fresh pool of
at most `jobs` workers, and a cell that breaks that pool too is tried alone
in a single-worker pool, so only a cell that kills its own pool stays an
error (and a rerun resumes it). A pool starts no more workers than it has
bundles, and the process pool modules (`concurrent.futures.process`,
`multiprocessing`) load only when a sweep at jobs > 1 starts its first
pool. The summary is always recomputed from the files on disk, never from
in-process state.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, canonical_json, expand_sweep
from .objective import _OBJECTIVES, LinearNoiseObjective
from .simulator import DelaySchedule, RunResult, Simulation, phase_key, run_experiment, run_lockstep

__all__ = [
    "result_filename",
    "save_result",
    "run_to_file",
    "SummaryRow",
    "format_summary_table",
    "write_summary_csv",
    "run_sweep",
]


def result_filename(config_hash: str, seed: int) -> str:
    return f"{config_hash[:16]}_s{seed}.json"


def serialize_result(result: RunResult) -> str:
    return json.dumps(result.to_json_dict(), sort_keys=True, indent=2) + "\n"


def _replace_file(path: Path, text: str) -> Path:
    """Write text to a temp file beside path and rename it into place, so path holds its old bytes or
    the new ones, never part of them; a write that fails leaves no temp file."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8", newline="")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def _remove_dead_temps(out: Path, log) -> None:
    """Remove each `.<name>.<pid>.tmp` in out that a process now gone left (a kill before its rename). A
    pid is gone only when signalling it raises ProcessLookupError, so a live writer's file stays: this
    process's, or another user's, whose signal raises PermissionError."""
    for tmp in sorted(out.glob(".*.*.tmp")):
        pid = tmp.name.rsplit(".", 2)[1]
        if not pid.isdecimal():
            continue
        try:
            os.kill(int(pid), 0)
        except ProcessLookupError:
            tmp.unlink(missing_ok=True)
            log(f"sweep: removed {tmp.name}, left by dead process {pid}")
        except (OSError, OverflowError):  # alive, or too large to be a pid
            pass


def save_result(result: RunResult, out_dir: str | Path) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return _replace_file(out / result_filename(result.config_hash, result.seed), serialize_result(result))


def run_to_file(config: RunConfig, out_dir: str | Path) -> tuple[RunResult, Path]:
    result = run_experiment(config)
    return result, save_result(result, out_dir)


@dataclass
class SummaryRow:
    method: str
    schedule: str
    config_hash: str
    n: int
    mean: float | None
    std: float | None
    n_diverged: int
    missing: int


def _schedule_label(delay_spec: dict) -> str:
    return DelaySchedule(**delay_spec).label()


def _summary_rows(groups: dict[str, tuple[dict, list[dict | None]]]) -> list[SummaryRow]:
    """One row per config hash -> (its resolved config, its seeds' results), sorted by method,
    schedule and hash; a None result is a seed with no usable file, counted as missing.

    The std is the sample standard deviation (ddof=1) for n >= 2, else 0.
    Divergence counts come straight from each run's flag.
    """
    rows = []
    for chash, (cfg, results) in groups.items():
        runs = [r for r in results if r is not None]
        finals = [r["final_loss"] for r in runs if r["final_loss"] is not None]
        mean = float(np.mean(finals)) if finals else None
        std = (float(np.std(finals, ddof=1)) if len(finals) >= 2 else 0.0) if finals else None
        rows.append(SummaryRow(
            method=cfg["method"],
            schedule=_schedule_label(cfg["delay"]),
            config_hash=chash,
            n=len(runs),
            mean=mean,
            std=std,
            n_diverged=sum(1 for r in runs if r["diverged"]),
            missing=len(results) - len(runs),
        ))
    rows.sort(key=lambda r: (r.method, r.schedule, r.config_hash))
    return rows


def format_summary_table(rows: list[SummaryRow]) -> str:
    """Aligned text table; a '!' marks cells with at least one diverged seed."""
    header = f"{'method':<18} {'schedule':<16} {'n':>3}  {'final loss (mean +- std)':<28} {'diverged':>8}"
    lines = [header, "-" * len(header)]
    for row in rows:
        if row.mean is None:
            cell = "n/a (no finite final loss)"
        else:
            cell = f"{row.mean:.6g} +- {row.std:.3g}"
        if row.n_diverged:
            cell += " !"
        missing = f" ({row.missing} missing)" if row.missing else ""
        lines.append(f"{row.method:<18} {row.schedule:<16} {row.n:>3}  {cell:<28} {row.n_diverged:>8}{missing}")
    return "\n".join(lines)


def write_summary_csv(rows: list[SummaryRow], path: str | Path):
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["method", "schedule", "config_hash", "n", "mean_final_loss",
                     "std_final_loss", "n_diverged", "missing"])
    for row in rows:
        writer.writerow([
            row.method, row.schedule, row.config_hash, row.n,
            "" if row.mean is None else repr(row.mean),
            "" if row.std is None else repr(row.std),
            row.n_diverged, row.missing,
        ])
    _replace_file(Path(path), text.getvalue())


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run_cell(cells: list[dict], out_dir: str) -> list[str | None]:
    """Child-process entry: run a bundle of resolved cells in lockstep (`run_lockstep`), a lone
    cell as a lockstep of one, write each cell's file as it ends, and return one error or None
    per cell; a cell failure fails only that cell.
    """
    errors: list[str | None] = [None] * len(cells)
    sims, where = [], []
    for i, resolved in enumerate(cells):
        try:
            sims.append(Simulation(RunConfig.from_dict(resolved)))
            where.append(i)
        except Exception as exc:  # noqa: BLE001 - a cell failure must not kill the sweep
            errors[i] = _failure(exc)
    for j, outcome in run_lockstep(sims):
        if isinstance(outcome, Exception):
            errors[where[j]] = _failure(outcome)
            continue
        try:
            save_result(outcome, out_dir)
        except Exception as exc:  # noqa: BLE001
            errors[where[j]] = _failure(exc)
    return errors


def _load_result(path: Path, cfg: RunConfig) -> tuple[dict | None, str]:
    """A cell's parsed result file, or None and why it cannot stand for the cell.

    A file stands for its cell only if it holds exactly the keys this build
    writes and its config is the cell's resolved config.
    """
    try:
        res = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None, ""
    except (OSError, ValueError) as exc:  # ValueError covers bad JSON and bad UTF-8
        return None, f"unreadable ({type(exc).__name__}: {exc})"
    if not isinstance(res, dict) or (res.get("config_hash"), res.get("seed")) != (cfg.hash, cfg.master_seed):
        return None, "it does not hold this cell's config hash and seed"
    keys = set(RunResult.json_keys())
    if set(res) != keys:
        missing, extra = sorted(keys - set(res)), sorted(set(res) - keys)
        return None, f"its keys are not this build's (missing {missing}, extra {extra})"
    if canonical_json(res["config"]) != canonical_json(cfg.resolved):
        return None, "its config is not this cell's resolved config"
    return res, ""


def _bundles(cells: list, jobs: int) -> list[list]:
    """The (desc, cfg) cells as bundles, each to run in one process in lockstep.

    Cells with one `simulator.phase_key` form a group, the cells that
    `run_lockstep` steps as one stacked phase each round; a linear-noise
    (quadratic, Rosenbrock) cell is a bundle alone. Each group is split
    into min(jobs, len(group)) bundles of near-equal size, so a pool stays
    balanced. Bundles keep the order of their first cells.
    """
    groups: dict[str, list] = {}
    bundles = []
    for desc, cfg in cells:
        if issubclass(_OBJECTIVES[cfg.objective["kind"]], LinearNoiseObjective):
            # alone: its batch rows come from the stream memo, shared across bundles anyway, while
            # a group would hold all its cells' traces at once (~570 KB each at 6,400 trace rows)
            bundles.append([(desc, cfg)])
            continue
        key = phase_key(cfg)
        if key not in groups:
            bundles.append(groups.setdefault(key, []))
        groups[key].append((desc, cfg))
    split = []
    for group in bundles:
        n = min(jobs, len(group))
        split += [group[len(group) * i // n:len(group) * (i + 1) // n] for i in range(n)]
    return split


def _bundle_errors(bundle: list, errors: list[str | None]) -> list[str]:
    return [f"cell {desc['assignment']}: {err}" for (desc, _), err in zip(bundle, errors) if err]


def _pool_pass(bundles: list[list], out: Path, workers: int) -> tuple[list[str], list]:
    """Run bundles of cells in one process pool of min(workers, len(bundles)) processes.

    Returns (per-cell error messages, the (desc, cfg) cells a dead pool
    child failed: those of its own bundle and of every bundle still queued
    behind it).
    """
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor  # here: most runs start no pool

    errors, broken = [], []
    with ProcessPoolExecutor(max_workers=min(workers, len(bundles))) as pool:
        futures = [(bundle, pool.submit(_run_cell, [cfg.resolved for _, cfg in bundle], str(out)))
                   for bundle in bundles]
        for bundle, fut in futures:
            try:
                errors += _bundle_errors(bundle, fut.result())
            except BrokenProcessPool:
                broken += bundle
    return errors, broken


def run_sweep(
    spec: dict,
    out_dir: str | Path,
    jobs: int = 1,
    log=print,
) -> tuple[list[SummaryRow], list[str]]:
    """Run every cell of a sweep (skipping finished ones), in a pool of at most `jobs` workers
    when jobs > 1, then summarize.

    Returns (summary rows, per-cell error messages). The summary is built
    from the result files alone; cells whose file is absent or unusable
    after the run pass are marked missing.
    """
    if jobs < 1:
        raise ConfigError([f"--jobs: must be >= 1, got {jobs}"])
    cells = expand_sweep(spec)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _remove_dead_temps(out, log)

    todo = []
    done: dict[Path, dict] = {}
    for desc, cfg in cells:
        path = out / result_filename(cfg.hash, cfg.master_seed)
        res, reason = _load_result(path, cfg)
        if res is not None:
            done[path] = res
            continue
        if reason:
            log(f"sweep: re-running {path.name}: {reason}")
        todo.append((desc, cfg))
    bundles = _bundles(todo, jobs)
    log(f"sweep: {len(cells)} cells, {len(cells) - len(todo)} already done, "
        f"{len(todo)} to run in {len(bundles)} bundle{'' if len(bundles) == 1 else 's'}, jobs={jobs}")

    errors: list[str] = []
    if todo:
        if jobs == 1:
            for bundle in bundles:
                errors += _bundle_errors(bundle, _run_cell([cfg.resolved for _, cfg in bundle], str(out)))
        else:
            errors, broken = _pool_pass(bundles, out, jobs)
            if broken:
                # the cell that killed the pool was running, so it is among the first
                # failed cells; run those last, and the ones queued behind it finish
                # before it can break the fresh pool; each runs as a bundle alone
                log(f"sweep: a pool child died; resubmitting {len(broken)} cells one at a time to a fresh pool")
                more, broken = _pool_pass([[cell] for cell in broken[::-1]], out, jobs)
                errors += more
            for cell in broken:  # isolate the cell that keeps breaking its pool
                log(f"sweep: retrying cell {cell[0]['assignment']} alone after its pool broke twice")
                more, still = _pool_pass([[cell]], out, 1)
                errors += more + [f"cell {desc['assignment']}: BrokenProcessPool: its pool child died"
                                  for desc, _ in still]
    for msg in errors:
        log(f"sweep: FAILED {msg}")

    groups: dict[str, tuple[dict, list]] = {}
    for _, cfg in cells:
        path = out / result_filename(cfg.hash, cfg.master_seed)
        groups.setdefault(cfg.hash, (cfg.resolved, []))[1].append(done.get(path) or _load_result(path, cfg)[0])
    rows = _summary_rows(groups)
    write_summary_csv(rows, out / "summary.csv")
    return rows, errors
