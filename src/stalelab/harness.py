"""Result persistence, sweep orchestration, and summary tables.

A result file is named `<config_hash[:16]>_s<seed>.json` and contains the
full resolved config, so it is self-describing and byte-identical across
reruns of the same build; it is renamed into place once written in full.
Sweeps are resumable: a cell is skipped when its file parses, holds exactly
the keys this build writes, and holds the cell's config hash, seed and
resolved config; any other file is re-run and the reason logged.

A sweep runs its cells in bundles (see `_bundles`): the cells of one batch
stream run in one process, round-major (`simulator.run_lockstep`), and
draw each round's batches once between them; every cell gives the bytes
it gives alone, and its file is written as it ends. A pool child that
dies breaks the pool and fails every cell of the bundles still in it;
those cells are resubmitted once, one cell per bundle, to a fresh pool of
the same size, and a cell that breaks that pool too is tried alone in a
single-worker pool, so only a cell that kills its own pool stays an error
(and a rerun resumes it). The summary is always recomputed from the files
on disk, never from in-process state.
"""

from __future__ import annotations

import csv
import json
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, canonical_json, expand_sweep
from .simulator import (
    DelaySchedule,
    RoundBatches,
    RunResult,
    Simulation,
    run_experiment,
    run_lockstep,
    shares_round_batches,
)

JOBS_ENV_VAR = "STALE_LAB_JOBS"

__all__ = [
    "result_filename",
    "save_result",
    "run_to_file",
    "SummaryRow",
    "summarize_results",
    "format_summary_table",
    "write_summary_csv",
    "run_sweep",
    "JOBS_ENV_VAR",
]


def result_filename(config_hash: str, seed: int) -> str:
    return f"{config_hash[:16]}_s{seed}.json"


def serialize_result(result: RunResult) -> str:
    return json.dumps(result.to_json_dict(), sort_keys=True, indent=2) + "\n"


def save_result(result: RunResult, out_dir: str | Path) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / result_filename(result.config_hash, result.seed)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_text(serialize_result(result), encoding="utf-8")
    os.replace(tmp, path)
    return path


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
    missing: int = 0


def _schedule_label(delay_spec: dict) -> str:
    return DelaySchedule(**delay_spec).label()


def summarize_results(results: list[dict]) -> list[SummaryRow]:
    """Aggregate result dicts into per-cell rows (mean +- std over seeds).

    Runs sharing a config hash are seeds of the same cell. The std is the
    sample standard deviation (ddof=1) for n >= 2, else 0. Divergence
    counts come straight from each run's flag.
    """
    groups: dict[str, list[dict]] = {}
    for res in results:
        groups.setdefault(res["config_hash"], []).append(res)
    rows = []
    for chash, runs in groups.items():
        cfg = runs[0]["config"]
        finals = [r["final_loss"] for r in runs if r["final_loss"] is not None]
        mean = float(np.mean(finals)) if finals else None
        std = (float(np.std(finals, ddof=1)) if len(finals) >= 2 else 0.0) if finals else None
        rows.append(
            SummaryRow(
                method=cfg["method"],
                schedule=_schedule_label(cfg["delay"]),
                config_hash=chash,
                n=len(runs),
                mean=mean,
                std=std,
                n_diverged=sum(1 for r in runs if r["diverged"]),
            )
        )
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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "schedule", "config_hash", "n", "mean_final_loss",
                         "std_final_loss", "n_diverged", "missing"])
        for row in rows:
            writer.writerow([
                row.method, row.schedule, row.config_hash, row.n,
                "" if row.mean is None else repr(row.mean),
                "" if row.std is None else repr(row.std),
                row.n_diverged, row.missing,
            ])


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run_cell(cells: list[dict], out_dir: str) -> list[str | None]:
    """Child-process entry: run a bundle of resolved cells, write each cell's file as it ends,
    and return one error or None per cell; a cell failure fails only that cell.

    A lone cell runs through `run_to_file`. The cells of a larger bundle run in
    lockstep (`run_lockstep`) and share one `RoundBatches` slot.
    """
    errors: list[str | None] = [None] * len(cells)
    if len(cells) == 1:
        try:
            run_to_file(RunConfig.from_dict(cells[0]), out_dir)
        except Exception as exc:  # noqa: BLE001 - a cell failure must not kill the sweep
            errors[0] = _failure(exc)
        return errors
    slot, sims, where = RoundBatches(), [], []
    for i, resolved in enumerate(cells):
        try:
            sims.append(Simulation(RunConfig.from_dict(resolved), slot))
            where.append(i)
        except Exception as exc:  # noqa: BLE001
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


def resolve_jobs(cli_jobs: int | None, spec_jobs: int | None) -> int:
    """--jobs wins, then the STALE_LAB_JOBS env default, then the sweep file.

    The sweep file's value additionally acts as a cap when set. A --jobs or
    STALE_LAB_JOBS value below 1 is a ConfigError.
    """
    jobs, source = cli_jobs, "--jobs"
    if jobs is None:
        env, source = os.environ.get(JOBS_ENV_VAR), JOBS_ENV_VAR
        if env is not None:
            try:
                jobs = int(env)
            except ValueError as exc:
                raise ConfigError([f"{JOBS_ENV_VAR}: expected an integer, got {env!r}"]) from exc
    if jobs is not None and jobs < 1:
        raise ConfigError([f"{source}: must be >= 1, got {jobs}"])
    if jobs is None:
        jobs = spec_jobs if spec_jobs is not None else 1
    elif spec_jobs is not None:
        jobs = min(jobs, spec_jobs)
    return jobs


def _bundles(cells: list, jobs: int) -> list[list]:
    """The (desc, cfg) cells as bundles, each to run in one process in lockstep.

    Cells that read the same batch stream (the resolved objective, master
    seed, workers, batch size and inner steps) form a group where
    `shares_round_batches` allows; any other cell is a bundle alone. Each
    group is split into min(jobs, len(group)) bundles of near-equal size, so
    a pool stays balanced. Bundles keep the order of their first cells.
    """
    groups: dict[tuple, list] = {}
    bundles = []
    for desc, cfg in cells:
        if not shares_round_batches(cfg):
            bundles.append([(desc, cfg)])
            continue
        key = (canonical_json(cfg.objective), cfg.master_seed, cfg.workers, cfg.batch_size, cfg.inner_steps)
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
    """Run bundles of cells in one process pool.

    Returns (per-cell error messages, the (desc, cfg) cells a dead pool
    child failed: those of its own bundle and of every bundle still queued
    behind it).
    """
    errors, broken = [], []
    with ProcessPoolExecutor(max_workers=workers) as pool:
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
    jobs: int | None = None,
    log=print,
) -> tuple[list[SummaryRow], list[str]]:
    """Run every cell of a sweep (skipping finished ones), then summarize.

    Returns (summary rows, per-cell error messages). The summary is built
    from the result files alone; cells whose file is absent or unusable
    after the run pass are marked missing.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cells = expand_sweep(spec)
    jobs = resolve_jobs(jobs, spec.get("jobs"))

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

    results = []
    missing: dict[str, int] = {}
    for desc, cfg in cells:
        path = out / result_filename(cfg.hash, cfg.master_seed)
        res = done.get(path) or _load_result(path, cfg)[0]
        if res is not None:
            results.append(res)
        else:
            missing[cfg.hash] = missing.get(cfg.hash, 0) + 1
    rows = summarize_results(results)
    known = {row.config_hash for row in rows}
    for desc, cfg in cells:
        if cfg.hash in missing and cfg.hash not in known:
            rows.append(SummaryRow(cfg.method, _schedule_label(cfg.delay), cfg.hash,
                                   0, None, None, 0, missing[cfg.hash]))
            known.add(cfg.hash)
    for row in rows:
        row.missing = missing.get(row.config_hash, row.missing)
    rows.sort(key=lambda r: (r.method, r.schedule, r.config_hash))
    write_summary_csv(rows, out / "summary.csv")
    return rows, errors
