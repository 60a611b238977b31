"""Tests of the benchmark itself: its contract file, tiny runs, the outcome gate.

Run with `PYTHONPATH=src python -m pytest -q benchmark`.
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402
from stalelab.harness import run_sweep  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_contract_names_are_well_formed_and_unique():
    entries = CONTRACT["workloads"] + CONTRACT["end_to_end"] + CONTRACT["per_layer"]
    names = [entry["name"] for entry in entries]
    assert all(NAME.fullmatch(name) for name in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))
    for entry in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher"), entry
    assert {w["name"] for w in CONTRACT["workloads"]} <= set(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in CONTRACT["workloads"])
    assert "setup_s" in [entry["name"] for entry in CONTRACT["end_to_end"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_reports_every_contract_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--rounds", "2"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    assert "byte-identical across passes" in proc.stdout  # a non-default seed is not pinned
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = CONTRACT["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(entry["name"] for entry in expected)
    for entry in expected:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], float) and math.isfinite(metric["value"])
        if not trace:
            assert metric["value"] > 0.0


def _nudge_one_loss(path: Path):
    result = json.loads(path.read_text(encoding="utf-8"))
    result["losses"][-1] = float(np.nextafter(result["losses"][-1], math.inf))
    path.write_text(json.dumps(result, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def test_one_ulp_nudge_fails_its_cell_and_schema_additions_do_not(tmp_path):
    spec = workloads.ranking_spec(seed=0, rounds=2)
    files = workloads.cell_files(spec)
    _, errors = run_sweep(spec, tmp_path, jobs=1, log=lambda *_: None)
    assert errors == []
    pins = {name: workloads.outcome_digest(json.loads((tmp_path / name).read_text(encoding="utf-8")))
            for name in files}
    clean = workloads.check_pass(tmp_path, files, pins, reference=None)
    assert clean.failures == {} and clean.summary_problem is None

    extended = tmp_path / files[3]
    result = json.loads(extended.read_text(encoding="utf-8"))
    result["result_version"] = 2  # a deliberate schema addition leaves the pins alone
    extended.write_text(json.dumps(result, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    assert workloads.check_pass(tmp_path, files, pins, reference=None).failures == {}

    _nudge_one_loss(tmp_path / files[0])
    pinned = workloads.check_pass(tmp_path, files, pins, reference=None)
    assert pinned.failures == {files[0]: "outcome digest differs from its pin"}
    assert len(pinned.failures) / len(files) == 1 / 18

    # Without pins (a non-default seed) the cross-pass byte check catches it.
    across = workloads.check_pass(tmp_path, files, None, reference=clean.file_hashes)
    assert set(across.failures) == {files[0], files[3]}
    assert across.failures[files[0]] == "bytes differ from the first pass"


def test_a_nudged_cell_reaches_the_result_line_and_the_exit_code(monkeypatch, capsys):
    unpatched = workloads.run_pass
    out_dirs = []

    def run_pass_then_nudge(workload, spec, out_dir):
        timing = unpatched(workload, spec, out_dir)
        out_dirs.append(out_dir)
        if len(out_dirs) == 2:
            _nudge_one_loss(out_dir / workloads.cell_files(spec)[0])
        return timing

    monkeypatch.setattr(workloads, "run_pass", run_pass_then_nudge)
    code = run.main(["--workload", "fragment_matrix", "--seed", "5", "--seconds", "0",
                     "--trace", "0", "--rounds", "2"])
    stdout = capsys.readouterr().out
    result = json.loads(stdout.strip().splitlines()[-1])
    assert code == 1
    assert "FAILED" in stdout and "bytes differ from the first pass" in stdout
    assert result["correct"] is False
    assert (result["failed"], result["attempted"]) == (1, 40)
