"""Command-line surface: run, sweep, gate-table, verify.

A command loads only what it runs: the `verify` suite is imported by the
`verify` command, and the process pool by a sweep at `--jobs` > 1 (see
`harness`).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
from pathlib import Path

from .config import ConfigError, RunConfig
from .gate import StalenessGate, cosine_gate, staleness_weight
from .harness import format_summary_table, run_sweep, run_to_file


def _make_out_dir(out: str) -> bool:
    """Create the output directory before any work is done; False, after saying why, if it cannot be."""
    try:
        Path(out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # FileExistsError where a file has the name
        print(f"error: cannot use output directory {out}: {exc}", file=sys.stderr)
        return False
    return True


def _cmd_run(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config {args.config}: {exc}", file=sys.stderr)
        return 2
    if args.seed_override is not None and isinstance(raw, dict):  # from_dict rejects a non-object
        raw["master_seed"] = args.seed_override
    try:
        config = RunConfig.from_dict(raw)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not _make_out_dir(args.out):
        return 2
    result, path = run_to_file(config, args.out)
    status = "DIVERGED" if result.diverged else "ok"
    final = "n/a" if result.final_loss is None else f"{result.final_loss:.6g}"
    print(f"{path}  final_loss={final}  status={status}  "
          f"rounds={result.rounds_completed}  wall={result.wall_time_s:.2f}s")
    return 0


def _cmd_sweep(args) -> int:
    try:
        with open(args.sweep, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read sweep {args.sweep}: {exc}", file=sys.stderr)
        return 2
    if not _make_out_dir(args.out):
        return 2
    try:
        rows, errors = run_sweep(spec, args.out, jobs=args.jobs)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_summary_table(rows))
    print(f"summary written to {Path(args.out) / 'summary.csv'}")
    return 1 if errors else 0


def _cmd_gate_table(args) -> int:
    tau_cut = math.inf if args.tau_cut is None else args.tau_cut
    try:
        gate = StalenessGate(args.alpha, tau_cut)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    tau_max = args.tau_max
    if tau_max is not None and tau_max < 0:
        print(f"error: --tau-max must be >= 0, got {tau_max}", file=sys.stderr)
        return 2
    if tau_max is None:
        tau_max = 2 * tau_cut if not math.isinf(tau_cut) else 4.0 / args.alpha if args.alpha > 0 else 16
        if not tau_max <= 100_000:  # inf too; a longer table is asked for by --tau-max
            print("error: the default last row (2*tau_cut, or 4/alpha) is above 100000; pass --tau-max",
                  file=sys.stderr)
            return 2
        tau_max = int(tau_max)

    try:  # before any row is printed, so a bad --out leaves no half table
        table = open(args.out, "w", newline="", encoding="utf-8") if args.out else contextlib.nullcontext()
    except OSError as exc:
        print(f"error: cannot write table {args.out}: {exc}", file=sys.stderr)
        return 2

    header = f"{'tau':>5} {'cosine':>12} {'exp':>12} {'sigma':>12} {'tau*sigma':>12} {'running_max':>12}"
    print(header)
    print("-" * len(header))
    with table as fh:
        writer = csv.writer(fh) if fh else None
        if writer:
            writer.writerow(["tau", "cosine", "exp", "sigma", "tau_sigma", "running_max"])
        running = 0.0
        for tau in range(tau_max + 1):
            cos = cosine_gate(float(tau), tau_cut)
            exp = math.exp(-gate.alpha * tau)
            sigma = staleness_weight(float(tau), gate)
            ts = tau * sigma
            running = max(running, ts)
            print(f"{tau:>5} {cos:>12.6g} {exp:>12.6g} {sigma:>12.6g} {ts:>12.6g} {running:>12.6g}")
            if writer:
                writer.writerow([tau] + [repr(x) for x in (cos, exp, sigma, ts, running)])
    if gate.alpha > 0:
        print(f"reference: 1/(e*alpha) = {1.0 / (math.e * gate.alpha):.12g}")
    if args.out:
        print(f"table written to {args.out}")
    return 0


def _cmd_verify(_args) -> int:
    from .verify import run_all_checks

    ok = run_all_checks()
    print("verify: ALL CHECKS PASSED" if ok else "verify: CHECKS FAILED")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stalelab",
        description="Deterministic lab for staleness-aware outer optimizers under controlled delays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one config and write its result JSON")
    p_run.add_argument("--config", required=True, help="path to a run config JSON")
    p_run.add_argument("--out", default="results", help="output directory (default: results)")
    p_run.add_argument("--seed-override", type=int, default=None,
                       help="replace the config's master_seed")
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a sweep spec (resumable) and summarize")
    p_sweep.add_argument("--sweep", required=True, help="path to a sweep spec JSON")
    p_sweep.add_argument("--out", default="results", help="output directory (default: results)")
    p_sweep.add_argument("--jobs", type=int, default=1, help="pool workers; 1 runs cells in this process (default: 1)")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_table = sub.add_parser("gate-table", help="print sigma(tau) per integer age")
    p_table.add_argument("--alpha", type=float, required=True, help="exponential decay rate")
    p_table.add_argument("--tau-cut", type=float, default=None,
                         help="cosine cutoff in rounds (omit for none)")
    p_table.add_argument("--tau-max", type=int, default=None,
                         help="last row (default: 2*tau_cut, or 4/alpha without a cutoff)")
    p_table.add_argument("--out", default=None, help="also write the table as CSV")
    p_table.set_defaults(fn=_cmd_gate_table)

    p_verify = sub.add_parser("verify", help="run the built-in property suite")
    p_verify.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)

