"""Result persistence, sweep orchestration, and summary tables.

A result file is named `<config_hash[:16]>_s<seed>.json` and contains the
full resolved config, so it is self-describing and byte-identical across
reruns of the same build; it is renamed into place once written in full.
Sweeps are resumable: a cell is skipped when its file parses and holds the
cell's config hash and seed, else re-run. A pool child that dies fails its
cells instead of the sweep, so a rerun resumes them. The summary is always
recomputed from the files on disk, never from in-process state.
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

from .config import ConfigError, RunConfig, expand_sweep
from .simulator import DelaySchedule, RunResult, run_experiment

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
    return DelaySchedule.from_spec(delay_spec, seed=0).label()


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


def _run_cell(resolved: dict, out_dir: str) -> str | None:
    """Child-process entry: run one cell, write its file, return an error or None."""
    try:
        config = RunConfig.from_dict(resolved)
        run_to_file(config, out_dir)
        return None
    except Exception as exc:  # noqa: BLE001 - a cell failure must not kill the sweep
        return f"{type(exc).__name__}: {exc}"


def _load_result(path: Path, cfg: RunConfig) -> tuple[dict | None, str]:
    """A cell's parsed result file, or None and why it cannot stand for the cell."""
    try:
        res = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None, ""
    except (OSError, ValueError) as exc:  # ValueError covers bad JSON and bad UTF-8
        return None, f"unreadable ({type(exc).__name__}: {exc})"
    if not isinstance(res, dict) or (res.get("config_hash"), res.get("seed")) != (cfg.hash, cfg.master_seed):
        return None, "it does not hold this cell's config hash and seed"
    return res, ""


def resolve_jobs(cli_jobs: int | None, spec_jobs: int | None) -> int:
    """--jobs wins, then the STALE_LAB_JOBS env default, then the sweep file.

    The sweep file's value additionally acts as a cap when set.
    """
    jobs = cli_jobs
    if jobs is None:
        env = os.environ.get(JOBS_ENV_VAR)
        if env is not None:
            try:
                jobs = int(env)
            except ValueError as exc:
                raise ConfigError([f"{JOBS_ENV_VAR}: expected an integer, got {env!r}"]) from exc
    if jobs is None:
        jobs = spec_jobs if spec_jobs is not None else 1
    elif spec_jobs is not None:
        jobs = min(jobs, spec_jobs)
    return max(1, jobs)


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
    log(f"sweep: {len(cells)} cells, {len(cells) - len(todo)} already done, "
        f"{len(todo)} to run, jobs={jobs}")

    errors: list[str] = []
    if todo:
        if jobs == 1:
            for desc, cfg in todo:
                err = _run_cell(cfg.resolved, str(out))
                if err:
                    errors.append(f"cell {desc['assignment']}: {err}")
        else:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                futures = [(desc, pool.submit(_run_cell, cfg.resolved, str(out))) for desc, cfg in todo]
                for desc, fut in futures:
                    try:
                        err = fut.result()
                    except BrokenProcessPool as exc:  # a child died; its cell and the queued ones fail
                        err = f"{type(exc).__name__}: {exc}"
                    if err:
                        errors.append(f"cell {desc['assignment']}: {err}")
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
