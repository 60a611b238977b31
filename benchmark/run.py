"""Run one stalelab benchmark workload and print its metrics.

    python3 benchmark/run.py --workload sweep_jobs2 --seed 0 --seconds 55 --trace 0

With `--trace 0` the run measures end-to-end metrics with tracing off:
fresh-process set-up several times before each pass of the workload,
until `--seconds` is used up (at least two passes, so results can be
compared across passes). It reports the median pass and the fastest
set-up. With `--trace 1` it runs one untraced and one traced pass and
reports the per-layer metrics of the traced one. Every line before the
last is for people; the last line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The exit code is 0 only if
every cell passed the outcome gate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Pinned before anything imports numpy, so BLAS cannot start its own threads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT / "src"))

MIN_PASSES = 2
# Fresh-process set-up probes before each pass, so they sample the same
# stretch of time as the passes do.
SETUP_PROBES_PER_PASS = 5

# End-to-end metrics (tracing off): name -> unit.
END_TO_END = {"wall_s": "s", "worker_steps_per_s": "steps/s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics that are not statistics of one span name.
LAYER_EXTRA = {"simulator.trace_records": "count", "simulator.queue_bytes": "bytes",
               "optim.applied_frac": "frac", "harness.resume.s": "s", "trace.overhead_frac": "frac"}

STAT_UNITS = {"calls": "count", "us_p50": "us", "us_p99": "us", "ms": "ms", "ms_p50": "ms",
              "s_p50": "s", "s_p90": "s", "share": "frac", "self_share": "frac", "incl_share": "frac"}
STAT_SCALE = {"us": 1e6, "ms": 1e3, "s": 1.0}


def layer_stats(methods) -> dict[str, tuple[str, ...]]:
    """Per-layer metrics of the traced run: span name -> statistics reported for it.

    calls: spans; us_*/ms*/s_*: percentiles of inclusive per-call time;
    ms: median per call; share/self_share: self time over the traced pass's
    worker time; incl_share: inclusive time over the same.
    """
    return {
        "objective.sample_batch": ("calls", "us_p50", "share"),
        "objective.loss_and_grad": ("calls", "us_p50", "share"),
        "optim.inner_adamw_step": ("us_p50", "share"),
        "simulator.run_inner_phase": ("us_p50", "share", "incl_share"),
        "simulator.quantize_payload": ("calls", "us_p50", "share"),
        "simulator.dequantize_payload": ("us_p50", "share"),
        "optim.outer_step": ("calls", "share", "incl_share"),
        **{f"optim.outer_step.{method}": ("us_p50",) for method in methods},
        "optim.eager_step": ("us_p50",),
        "gate.staleness_weight": ("calls", "us_p50"),
        "simulator.select_fragments": ("us_p50",),
        "simulator.sample_delay": ("us_p50", "share"),
        "simulator.run_round": ("us_p50", "us_p99", "self_share"),
        "theory.audit_run": ("calls", "ms_p50"),
        "objective.population_grad": ("us_p50",),
        "config.expand_sweep": ("ms",),
        "simulator.Simulation_init": ("ms",),
        "objective.init_reference_loss": ("ms",),
        "harness.run_experiment": ("s_p50", "s_p90"),
        "harness.save_result": ("ms_p50",),
    }


def layer_metric_units(methods) -> dict[str, str]:
    units = {f"{layer}.{stat}": STAT_UNITS[stat]
             for layer, stats in layer_stats(methods).items() for stat in stats}
    units.update(LAYER_EXTRA)
    return units


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(seed: int) -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_commit": _git_commit(), "workload_seed": seed,
            "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS}}


def setup_probe(workload_name: str, seed: int, rounds: int) -> float:
    """Set-up in this fresh process: import, expand the spec, build every Simulation."""
    t0 = time.perf_counter()
    import stalelab  # noqa: F401 - its import time is part of set-up
    from stalelab.config import expand_sweep
    from stalelab.simulator import Simulation

    import workloads

    spec = workloads.WORKLOADS[workload_name].spec(seed, rounds)
    sims = [Simulation(cfg) for _, cfg in expand_sweep(spec)]
    elapsed = time.perf_counter() - t0
    del sims
    return elapsed


def measure_setup(args, count: int) -> list[float]:
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload,
             "--seed", str(args.seed), "--rounds", str(args.rounds)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def percentile_or_zero(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tracer, methods, wall_s: float, procs: int) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer values from the traced pass, plus the sample count behind each."""
    spans = tracer.durations()
    worker_time = wall_s * procs
    values: dict[str, float] = {}
    samples: dict[str, int] = {}
    for layer, stats in layer_stats(methods).items():
        dur, own = spans.get(layer, ((), ()))
        for stat in stats:
            key = f"{layer}.{stat}"
            samples[key] = len(dur)
            if stat == "calls":
                values[key] = float(len(dur))
            elif stat in ("share", "self_share"):
                values[key] = float(sum(own)) / worker_time
            elif stat == "incl_share":
                values[key] = float(sum(dur)) / worker_time
            else:
                q = 50.0 if stat in ("ms", "us_p50", "ms_p50", "s_p50") else float(stat.split("_p")[1])
                values[key] = percentile_or_zero(dur, q) * STAT_SCALE[STAT_UNITS[stat]]
    for key in ("simulator.trace_records", "simulator.queue_bytes"):
        values[key] = float(tracer.counts[key])
    return values, samples


def run_workload(args) -> int:
    import workloads
    from spans import Tracer

    workload = workloads.WORKLOADS[args.workload]
    full_size = args.rounds == workloads.FULL_ROUNDS
    spec = workload.spec(args.seed, args.rounds)
    files = workloads.cell_files(spec)
    pins = workloads.load_pins() if args.seed == workloads.DEFAULT_SEED and full_size else None
    procs = workload.jobs
    prov = provenance(args.seed)

    print(f"benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} rounds={args.rounds} cells={len(files)} jobs={procs}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    if pins is None:
        print("outcome gate: no pins for this seed/size; checking only that result files are "
              "byte-identical across passes")
    else:
        print(f"outcome gate: {len(files)} cells checked against pinned outcome digests "
              "and across passes")

    label = f"{args.workload}-s{args.seed}-t{args.trace}"
    run_dir = OUT_ROOT / f"{label}-{os.getpid()}"
    setup_times: list[float] = []

    tracer = Tracer()
    timings, checks, reference = [], [], None
    measured = 0.0  # time in set-up probes, passes and their checks
    while True:
        iteration_start = time.perf_counter()
        if not args.trace:
            setup_times += measure_setup(args, SETUP_PROBES_PER_PASS)
        index = len(timings)
        traced = args.trace and index == 1
        out_dir = run_dir / f"pass{index}"
        if traced:
            with tracer.tracing(run_dir / "spool"):
                timing = workloads.run_pass(workload, spec, out_dir)
        else:
            timing = workloads.run_pass(workload, spec, out_dir)
        check = workloads.check_pass(out_dir, files, pins, reference)
        reference = reference or check.file_hashes
        timings.append(timing)
        checks.append(check)
        for err in timing.errors:
            print(f"pass {index}: error: {err}", file=sys.stderr)
        for name, reason in sorted(check.failures.items()):
            print(f"pass {index}: FAILED {name}: {reason}")
        if check.summary_problem:
            print(f"pass {index}: FAILED {check.summary_problem}")
        iteration = time.perf_counter() - iteration_start
        measured += iteration
        print(f"pass {index}: wall {timing.wall_s:.4f} s, resume {timing.resume_s:.4f} s, "
              f"{check.worker_steps} worker steps, {len(check.failures)} failed cells"
              + (" (traced)" if traced else ""))
        if len(timings) >= MIN_PASSES and (
                args.trace or measured + iteration > args.seconds):
            break

    attempted = len(files) * len(timings)
    failed = sum(len(c.failures) for c in checks)
    correct = failed == 0 and not any(c.summary_problem for c in checks) and not any(
        t.errors for t in timings)

    walls = [t.wall_s for t in timings]
    if args.trace:
        layer, samples = layer_metrics(tracer, workloads.METHODS, timings[1].wall_s, procs)
        layer["optim.applied_frac"] = checks[1].applied / checks[1].consumed if checks[1].consumed else 0.0
        layer["harness.resume.s"] = timings[1].resume_s
        layer["trace.overhead_frac"] = (timings[1].wall_s - timings[0].wall_s) / timings[0].wall_s
        units = layer_metric_units(workloads.METHODS)
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in units.items()}
        notes = {name: f"n={samples[name]}" for name in samples}
        span_file = OUT_ROOT / f"{label}.spans.npz"
        sidecar_extra = {"spans": len(tracer.start), "span_file": span_file.name}
    else:
        steps = statistics.median(c.worker_steps for c in checks)
        # The fastest set-up, not the median: on a shared host a neighbour's
        # load adds time to whole groups of probes, and the median of a run's
        # probes flips between a fast and a slow mode.
        values = {"wall_s": statistics.median(walls),
                  "worker_steps_per_s": statistics.median([steps / w for w in walls]),
                  "setup_s": min(setup_times), "peak_rss_mb": peak_rss_mb()}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        notes = {"wall_s": f"median of {len(walls)} passes, min {min(walls):.4f}, max {max(walls):.4f}",
                 "worker_steps_per_s": f"{steps} worker steps per pass / wall, median of {len(walls)}",
                 "setup_s": f"fastest of {len(setup_times)} fresh processes, "
                            f"median {statistics.median(setup_times):.4f}, max {max(setup_times):.4f}",
                 "peak_rss_mb": "max of this process and its children"}
        sidecar_extra = {"setup_s": setup_times}

    for name, entry in metrics.items():
        print(f"{name:<42} {entry['value']:>14.6g} {entry['unit']:<8} {notes.get(name, '')}")
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} cell runs)")

    OUT_ROOT.mkdir(parents=True, exist_ok=True)
    sidecar = OUT_ROOT / f"{label}.json"
    sidecar.write_text(json.dumps({
        "workload": args.workload, "trace": args.trace, "rounds": args.rounds, "provenance": prov,
        "pinned": pins is not None, "passes": [t.__dict__ for t in timings],
        "failures": [c.failures for c in checks], "metrics": metrics, "samples": notes,
        **sidecar_extra}, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    if args.trace:
        tracer.dump(span_file)
    shutil.rmtree(run_dir, ignore_errors=True)
    print(f"sidecar: {sidecar.relative_to(ROOT)}")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="stalelab benchmark: one workload, one run")
    parser.add_argument("--workload", required=True,
                        choices=("ranking_grid", "fragment_matrix", "sweep_jobs2"))
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0, the pinned one)")
    parser.add_argument("--seconds", type=float, default=55.0, help="measurement time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, 1: traced per-layer metrics")
    parser.add_argument("--rounds", type=int, default=200,
                        help="rounds per cell; anything but 200 is a quick check without pins")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        print(repr(setup_probe(args.workload, args.seed, args.rounds)))
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
