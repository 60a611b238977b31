import dataclasses
import json
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stalelab
import stalelab.cli as cli_mod
import stalelab.verify as verify_mod
from stalelab.cli import main as cli_main
from stalelab.config import (
    ConfigError,
    RunConfig,
    canonical_json,
    config_hash,
    expand_sweep,
    resolve_config,
)
from stalelab.harness import (
    _summary_rows,
    format_summary_table,
    result_filename,
    run_sweep,
    run_to_file,
    write_summary_csv,
)
from stalelab.objective import QuadraticObjective
from stalelab.optim import METHODS
from stalelab.seeding import derive_seed
from stalelab.simulator import DelaySchedule, Simulation, delay_seeds, run_experiment, sample_delay


def quad_raw(**overrides):
    raw = {
        "version": 1,
        "objective": {"kind": "quadratic", "dimension": 10, "spectrum_lo": 0.5,
                      "spectrum_hi": 4.0, "rotation_seed": 5, "noise_scale": 0.05},
        "workers": 2,
        "inner_steps": 3,
        "rounds": 6,
        "batch_size": 8,
        "eval_batch_size": 16,
        "method": "cgad",
        "delay": {"kind": "fixed", "tau": 0},
        "master_seed": 5,
    }
    raw.update(overrides)
    return raw


class TestValidation:
    def test_unknown_key_names_path(self):
        raw = quad_raw()
        raw["outer"] = {"beta3": 0.1}
        with pytest.raises(ConfigError) as exc:
            resolve_config(raw)
        assert any("outer.beta3" in e and "unknown" in e for e in exc.value.errors)

    def test_beta1_of_one_names_field(self):
        raw = quad_raw(outer={"beta1": 1.0})
        with pytest.raises(ConfigError) as exc:
            resolve_config(raw)
        assert any(e.startswith("outer.beta1") for e in exc.value.errors)

    def test_all_errors_collected(self):
        raw = quad_raw(workers=0, rounds=-1, outer={"eta": 0})
        with pytest.raises(ConfigError) as exc:
            resolve_config(raw)
        paths = {e.split(":")[0] for e in exc.value.errors}
        assert {"workers", "rounds", "outer.eta"} <= paths

    def test_missing_keys_reported_in_sorted_order(self):
        with pytest.raises(ConfigError) as exc:
            resolve_config(quad_raw(objective={"kind": "quadratic"}))
        assert exc.value.errors == [f"objective.{key}: missing required key"
                                    for key in ("dimension", "rotation_seed", "spectrum_hi", "spectrum_lo")]

    def test_wrong_version_rejected(self):
        with pytest.raises(ConfigError, match="version"):
            resolve_config(quad_raw(version=99))

    def test_method_pins_gate_fields(self):
        with pytest.raises(ConfigError, match="pins"):
            resolve_config(quad_raw(method="adam", outer={"alpha": 0.3}))
        with pytest.raises(ConfigError, match="pins"):
            resolve_config(quad_raw(method="adam_decay", outer={"tau_cut": 32}))
        for tau_cut in (5, None):
            with pytest.raises(ConfigError, match="pins"):
                resolve_config(quad_raw(method="adam", outer={"tau_cut": tau_cut}))
        with pytest.raises(ConfigError, match="no gate"):
            resolve_config(quad_raw(method="nesterov", outer={"alpha": 0.5}))

    def test_tau_cut_null_means_no_cutoff(self):
        for tau_cut in (None, math.inf):
            cfg = RunConfig.from_dict(quad_raw(outer={"tau_cut": tau_cut}))
            assert math.isinf(cfg.outer.gate.tau_cut)
            assert cfg.resolved["outer"]["tau_cut"] is None

    @pytest.mark.parametrize("path,value", [
        *[(p, math.nan) for p in ("outer.eta", "outer.alpha", "outer.beta1", "outer.tau_cut", "inner.lr",
                                  "objective.noise_scale", "delay.rate")],
        *[(p, math.inf) for p in ("outer.eta", "outer.alpha", "inner.lr", "objective.noise_scale")],
        ("outer.tau_cut", -math.inf),
    ])
    def test_non_finite_number_names_field(self, path, value):
        raw = quad_raw(delay={"kind": "exponential"})
        section, key = path.split(".")
        raw[section] = {**raw.get(section, {}), key: value}
        with pytest.raises(ConfigError) as exc:
            RunConfig.from_dict(raw)
        assert exc.value.errors == [f"{path}: must be finite, got {value}"]

    def test_fragment_budget_bounds(self):
        with pytest.raises(ConfigError, match="fragments.budget"):
            resolve_config(quad_raw(fragments={"count": 2, "budget": 3}))
        with pytest.raises(ConfigError, match="fragments.count"):
            resolve_config(quad_raw(fragments={"count": 100, "budget": 1}))
        mlp = {"kind": "mlp_regression", "layer_sizes": [2, 3, 1]}  # 3*2+3 + 1*3+1 = 13 params
        resolve_config(quad_raw(objective=mlp, fragments={"count": 13, "budget": 1}))
        with pytest.raises(ConfigError, match="fragments.count"):
            resolve_config(quad_raw(objective=mlp, fragments={"count": 14, "budget": 1}))

    def test_delay_specs(self):
        with pytest.raises(ConfigError, match="delay.tau"):
            resolve_config(quad_raw(delay={"kind": "fixed"}))
        with pytest.raises(ConfigError, match="delay.lo"):
            resolve_config(quad_raw(delay={"kind": "uniform_int", "lo": 5, "hi": 2}))
        with pytest.raises(ConfigError, match="delay.rate"):
            resolve_config(quad_raw(delay={"kind": "exponential", "rate": 0}))

    def test_uniform_hi_is_one_numpy_can_draw(self):
        with pytest.raises(ConfigError) as exc:
            resolve_config(quad_raw(delay={"kind": "uniform_int", "hi": 2**64}))
        assert exc.value.errors == [f"delay.hi: must be <= {2**63 - 1}, got {2**64}"]
        delay = resolve_config(quad_raw(delay={"kind": "uniform_int", "hi": 2**63 - 1}))["delay"]
        sched = DelaySchedule(seed=3, **delay)
        assert 0 <= sample_delay(sched, delay_seeds(sched, 1, range(1))[0, 0]) <= 2**63 - 1

    def test_run_config_has_one_field_per_resolved_key(self):
        cfg = RunConfig.from_dict(quad_raw())
        assert {f.name for f in dataclasses.fields(cfg)} == {"resolved", *cfg.resolved}

    def test_resolution_is_idempotent(self):
        resolved = resolve_config(quad_raw())
        assert resolve_config(resolved) == resolved

    @pytest.mark.parametrize("path", ["method", "objective.kind", "delay.kind", "outer.gate_placement"])
    def test_unhashable_choice_names_field(self, path):
        raw = quad_raw()
        *section, key = path.split(".")
        (raw.setdefault(section[0], {}) if section else raw)[key] = ["cgad"]
        with pytest.raises(ConfigError) as exc:
            resolve_config(raw)
        assert len(exc.value.errors) == 1 and exc.value.errors[0].startswith(f"{path}: expected one of [")
        assert exc.value.errors[0].endswith("got ['cgad']")

    def test_objective_field_validation(self):
        raw = quad_raw()
        raw["objective"] = {"kind": "mlp_regression", "layer_sizes": [4]}
        with pytest.raises(ConfigError, match="layer_sizes"):
            resolve_config(raw)


class TestConfigHash:
    def test_invariant_to_key_order(self):
        a = resolve_config(quad_raw())
        raw = quad_raw()
        reordered = dict(reversed(list(raw.items())))
        b = resolve_config(reordered)
        assert config_hash(a) == config_hash(b)

    def test_invariant_to_defaults_spelled_out(self):
        implicit = resolve_config(quad_raw())
        explicit = resolve_config(quad_raw(outer={"eta": 1e-3, "beta1": 0.9},
                                           quantize_queue=False))
        assert config_hash(implicit) == config_hash(explicit)

    def test_master_seed_excluded(self):
        a = resolve_config(quad_raw(master_seed=1))
        b = resolve_config(quad_raw(master_seed=2))
        assert config_hash(a) == config_hash(b)

    def test_material_change_changes_hash(self):
        a = resolve_config(quad_raw())
        b = resolve_config(quad_raw(method="adam"))
        assert config_hash(a) != config_hash(b)


class TestResultFiles:
    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = RunConfig.from_dict(quad_raw(delay={"kind": "uniform_int", "lo": 0, "hi": 4}))
        _, path1 = run_to_file(cfg, tmp_path)
        first = path1.read_bytes()
        cfg2 = RunConfig.from_dict(quad_raw(delay={"kind": "uniform_int", "lo": 0, "hi": 4}))
        _, path2 = run_to_file(cfg2, tmp_path)
        assert path1 == path2
        assert path2.read_bytes() == first

    def test_filename_is_hash_plus_seed(self, tmp_path):
        cfg = RunConfig.from_dict(quad_raw())
        result, path = run_to_file(cfg, tmp_path)
        assert path.name == result_filename(cfg.hash, cfg.master_seed)
        assert path.name.startswith(cfg.hash[:16])

    def test_result_file_is_self_describing(self, tmp_path):
        cfg = RunConfig.from_dict(quad_raw())
        _, path = run_to_file(cfg, tmp_path)
        payload = json.loads(path.read_text())
        assert payload["config"] == cfg.resolved
        assert RunConfig.from_dict(payload["config"]).hash == cfg.hash


    def test_overflowing_reference_inits_write_strict_json(self, tmp_path):
        # every one of the 32 reference inits overflows the loss, so the reference loss is NaN
        raw = quad_raw(rounds=3)
        raw["objective"] = {**raw["objective"], "dimension": 4, "init_scale": 1e200}
        with np.errstate(over="ignore", invalid="ignore"):
            result, path = run_to_file(RunConfig.from_dict(raw), tmp_path)

        def reject(token):
            raise ValueError(f"non-finite token {token} in the result JSON")

        payload = json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)
        assert payload["reference_loss"] is None and result.reference_loss is None
        assert payload["diverged"] is True and payload["final_loss"] is None


def json_leaf_types(node):
    if isinstance(node, dict):
        return set().union(*map(json_leaf_types, node.values()))
    if isinstance(node, list):
        return set().union(*map(json_leaf_types, node))
    return {type(node)}


class TestResultJson:
    @pytest.mark.parametrize("objective", [
        None,
        {"kind": "mlp_regression", "layer_sizes": [3, 4, 1], "teacher_scale": 0.5, "init_scale": 0.5},
    ], ids=["quadratic", "mlp"])
    @pytest.mark.parametrize("method", METHODS)
    def test_every_leaf_is_a_json_builtin(self, method, objective):
        raw = quad_raw(method=method, delay={"kind": "uniform_int", "lo": 0, "hi": 2})
        if objective is not None:
            raw["objective"] = objective
        payload = run_experiment(RunConfig.from_dict(raw)).to_json_dict()
        assert json_leaf_types(payload) <= {bool, int, float, str, type(None)}
        if method == "cgad":
            assert payload["rho_le_one_frac"] is not None


class TestSummaries:
    def make_result(self, final, diverged=False, seed=0, method="cgad", tau=0):
        cfg = resolve_config(quad_raw(method=method, master_seed=seed,
                                      delay={"kind": "fixed", "tau": tau}))
        return {"config": cfg, "config_hash": config_hash(cfg), "seed": seed,
                "final_loss": final, "diverged": diverged}

    def rows(self, *results):
        """Summary rows of results grouped by config hash, as `run_sweep` groups its cells."""
        groups = {}
        for res in results:
            groups.setdefault(res["config_hash"], (res["config"], []))[1].append(res)
        return _summary_rows(groups)

    def test_mean_and_std_match_hand_computation(self):
        rows = self.rows(self.make_result(1.0, seed=0), self.make_result(2.0, seed=1), self.make_result(4.0, seed=2))
        assert len(rows) == 1
        assert rows[0].n == 3
        assert rows[0].mean == pytest.approx(2.3333333333333335, abs=1e-15)
        assert rows[0].std == pytest.approx(1.5275252316519465, abs=1e-12)

    def test_single_seed_std_is_zero(self):
        rows = self.rows(self.make_result(1.5))
        assert rows[0].std == 0.0

    def test_divergence_marking_uses_flag_only(self):
        rows = self.rows(self.make_result(100.0, diverged=True, seed=0), self.make_result(1.0, diverged=False, seed=1))
        assert rows[0].n_diverged == 1
        assert "!" in format_summary_table(rows)

    def test_groups_by_cell(self):
        rows = self.rows(self.make_result(1.0, method="cgad", seed=0),
                         self.make_result(2.0, method="adam", seed=0),
                         self.make_result(3.0, method="cgad", tau=4, seed=0))
        assert len(rows) == 3
        labels = {(r.method, r.schedule) for r in rows}
        assert labels == {("cgad", "fixed:0"), ("adam", "fixed:0"), ("cgad", "fixed:4")}

    def test_a_summary_write_that_raises_leaves_the_old_file_and_no_temp_file(self, tmp_path):
        path = tmp_path / "summary.csv"
        rows = self.rows(self.make_result(1.0, seed=0), self.make_result(2.0, method="adam", seed=0))
        write_summary_csv(rows, path)
        old = path.read_bytes()
        with pytest.raises(AttributeError):
            write_summary_csv(rows[:1] + [None], path)  # raises at its second row, after the header
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["summary.csv"]


def sweep_spec(**overrides):
    spec = {
        "version": 1,
        "base": quad_raw(),
        "axes": {
            "method": ["cgad", "nesterov"],
            "delay": [{"kind": "fixed", "tau": 0}, {"kind": "fixed", "tau": 2}],
            "seed": [0, 1, 2],
        },
    }
    spec.update(overrides)
    return spec


class TestSweeps:
    def test_cell_count_is_axis_product(self):
        cells = expand_sweep(sweep_spec())
        assert len(cells) == 12
        assert len({cfg.hash for _, cfg in cells}) == 4

    def test_same_seed_value_pairs_across_methods(self):
        cells = expand_sweep(sweep_spec())
        by_seed = {}
        for desc, cfg in cells:
            by_seed.setdefault(desc["seed_value"], set()).add(cfg.master_seed)
        for seeds in by_seed.values():
            assert len(seeds) == 1

    def test_adding_an_axis_keeps_cell_seeds(self):
        base_cells = {(json_key(desc), cfg.master_seed)
                      for desc, cfg in expand_sweep(sweep_spec())}
        grown = sweep_spec()
        grown["axes"]["outer.eta"] = [1e-3]
        grown_cells = expand_sweep(grown)
        grown_seeds = {cfg.master_seed for _, cfg in grown_cells}
        assert {seed for _, seed in base_cells} == grown_seeds

    def test_every_cell_validated_before_running(self):
        bad = sweep_spec()
        bad["axes"]["outer.beta1"] = [0.9, 1.5]
        with pytest.raises(ConfigError) as exc:
            expand_sweep(bad)
        assert any("outer.beta1" in e for e in exc.value.errors)

    def test_a_path_that_cannot_be_set_fails_only_its_cell(self):
        axes = {"delay": [{"kind": "fixed", "tau": 0}, 3], "delay.tau": [1], "outer.beta1": [2.0]}
        with pytest.raises(ConfigError) as exc:
            expand_sweep({"version": 1, "base": quad_raw(), "axes": axes})
        first, second = (canonical_json({"delay": delay, "delay.tau": 1, "outer.beta1": 2.0})
                         for delay in ({"kind": "fixed", "tau": 0}, 3))
        assert axes["delay"][0] == {"kind": "fixed", "tau": 0}  # the spec is left as given
        assert len(exc.value.errors) == 2
        assert exc.value.errors[0].startswith(f"cell {first} -> outer.beta1")
        assert exc.value.errors[1] == f"cell {second} -> delay.tau: cannot descend into non-object"

    @pytest.mark.parametrize("axes,method", [
        ({"outer.eta": [0.001, 1e-3]}, "cgad"),
        ({"seed": [0, 0]}, "cgad"),
        ({"outer.alpha": [0.0, 0]}, "adam"),
        ({"seed": [0, 0.0]}, "cgad"),
    ])
    def test_cells_sharing_a_result_file_rejected(self, tmp_path, capsys, axes, method):
        spec = {"version": 1, "base": quad_raw(method=method), "axes": axes}
        (name, (first, second)), = axes.items()
        message = (f"cell {canonical_json({name: second})} -> same config hash and master seed as cell "
                   f"{canonical_json({name: first})}")
        with pytest.raises(ConfigError) as exc:
            expand_sweep(spec)
        assert exc.value.errors == [message]
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(spec))
        assert cli_main(["sweep", "--sweep", str(spec_path), "--out", str(tmp_path / "res")]) == 2
        assert message in capsys.readouterr().err
        assert list((tmp_path / "res").iterdir()) == []

    def test_seed_axis_derives_from_the_resolved_base_seed(self):
        seeds = [[cfg.master_seed for _, cfg in expand_sweep(sweep_spec(base=quad_raw(master_seed=base),
                                                                         axes={"seed": [0, 1.0]}))]
                 for base in (1, 1.0)]
        assert seeds[0] == seeds[1] == [derive_seed(1, "seed", 0), derive_seed(1, "seed", 1)]

    @pytest.mark.parametrize("bad", ["abc", True, 2.5])
    def test_seed_axis_rejects_a_base_seed_a_run_rejects(self, bad):
        with pytest.raises(ConfigError) as run:
            resolve_config(quad_raw(master_seed=bad))
        with pytest.raises(ConfigError) as sweep:
            expand_sweep(sweep_spec(base=quad_raw(master_seed=bad)))
        assert {e.split(" -> ", 1)[1] for e in sweep.value.errors} == set(run.value.errors)

    @pytest.mark.parametrize("bad,message", [
        ("abc", "expected a number, got 'abc'"),
        (True, "expected a number, got True"),
        (2.5, "expected an integer, got 2.5"),
    ])
    def test_seed_axis_values_are_integers(self, bad, message):
        with pytest.raises(ConfigError) as exc:
            expand_sweep(sweep_spec(axes={"seed": [0, bad]}))
        assert exc.value.errors == [f"axes.seed: {message}"]

    def test_dotted_axes_apply(self):
        spec = sweep_spec()
        spec["axes"] = {"outer.alpha": [0.1, 0.4], "seed": [0]}
        cells = expand_sweep(spec)
        alphas = sorted(cfg.outer.gate.alpha for _, cfg in cells)
        assert alphas == [0.1, 0.4]

    def test_run_sweep_writes_files_and_summary(self, tmp_path):
        log = []
        rows, errors = run_sweep(sweep_spec(), tmp_path, jobs=1, log=log.append)
        assert errors == []
        files = sorted(p.name for p in tmp_path.glob("*_s*.json"))
        assert len(files) == 12
        assert (tmp_path / "summary.csv").exists()
        assert len(rows) == 4
        assert all(row.n == 3 for row in rows)

    def test_run_sweep_resumes(self, tmp_path):
        log = []
        run_sweep(sweep_spec(), tmp_path, jobs=1, log=log.append)
        victim = next(iter(tmp_path.glob("*_s*.json")))
        keep = {p.name: p.read_bytes() for p in tmp_path.glob("*_s*.json") if p != victim}
        victim.unlink()
        log.clear()
        run_sweep(sweep_spec(), tmp_path, jobs=1, log=log.append)
        assert "11 already done, 1 to run" in log[0]
        assert victim.exists()
        for name, blob in keep.items():
            assert (tmp_path / name).read_bytes() == blob

    @pytest.mark.parametrize("damage", ["truncated", "foreign", "missing-keys", "extra-key", "edited-config"])
    def test_run_sweep_reruns_an_unusable_file(self, tmp_path, damage):
        run_sweep(sweep_spec(), tmp_path, jobs=1, log=lambda *_: None)
        victim, other = sorted(tmp_path.glob("*_s*.json"))[:2]
        intact = victim.read_bytes()
        result = json.loads(intact)
        if damage == "missing-keys":  # as an older build might have left it
            result = {"config_hash": result["config_hash"], "seed": result["seed"]}
        elif damage == "extra-key":
            result["result_version"] = 2
        elif damage == "edited-config":
            result["config"]["rounds"] += 1
        damaged = {"truncated": intact[:len(intact) // 2], "foreign": other.read_bytes()}.get(
            damage, json.dumps(result).encode("utf-8"))
        victim.write_bytes(damaged)
        log = []
        rows, errors = run_sweep(sweep_spec(), tmp_path, jobs=1, log=log.append)
        assert errors == []
        assert log[0].startswith(f"sweep: re-running {victim.name}: ")
        assert "11 already done, 1 to run" in log[1]
        assert victim.read_bytes() == intact
        assert all(row.n == 3 and row.missing == 0 for row in rows)

    def test_run_sweep_parallel_matches_serial(self, tmp_path):
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        run_sweep(sweep_spec(), serial_dir, jobs=1, log=lambda *_: None)
        run_sweep(sweep_spec(), parallel_dir, jobs=4, log=lambda *_: None)
        serial = {p.name: p.read_bytes() for p in serial_dir.glob("*_s*.json")}
        parallel = {p.name: p.read_bytes() for p in parallel_dir.glob("*_s*.json")}
        assert serial == parallel

    @pytest.mark.parametrize("seeds,jobs,sizes", [([0], 4, [1]), ([0, 1, 2], 2, [2])])
    def test_a_pool_starts_no_more_workers_than_its_bundles(self, tmp_path, monkeypatch, seeds, jobs, sizes):
        import concurrent.futures.process as pool_mod

        started = []

        class RecordedPool(pool_mod.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", RecordedPool)
        spec = sweep_spec()
        spec["axes"] = {"seed": seeds}  # one quadratic cell per seed, each a bundle of its own
        rows, errors = run_sweep(spec, tmp_path, jobs=jobs, log=lambda *_: None)
        assert errors == [] and started == sizes
        assert len(list(tmp_path.glob("*_s*.json"))) == len(seeds)

    def test_failed_cells_are_reported_and_marked_missing(self, tmp_path, monkeypatch):
        import stalelab.harness as harness_mod

        real = harness_mod._run_cell
        calls = {"n": 0}

        def flaky(cells, out_dir):
            calls["n"] += 1
            if calls["n"] == 1:
                return ["RuntimeError: synthetic cell failure"]
            return real(cells, out_dir)

        monkeypatch.setattr(harness_mod, "_run_cell", flaky)
        spec = sweep_spec()
        spec["axes"]["seed"] = [0]
        rows, errors = run_sweep(spec, tmp_path, jobs=1, log=lambda *_: None)
        assert len(errors) == 1 and "synthetic cell failure" in errors[0]
        assert sum(row.missing for row in rows) == 1
        assert "missing" in format_summary_table(rows)

    def test_partly_and_wholly_missing_cells_keep_their_summary_bytes(self, tmp_path, monkeypatch):
        import stalelab.harness as harness_mod

        # cgad at tau 2 loses seed 0 only; nesterov at tau 2 loses every seed
        doomed = {(cfg.hash, cfg.master_seed) for desc, cfg in expand_sweep(sweep_spec())
                  if desc["assignment"]["delay"]["tau"] == 2
                  and (desc["assignment"]["method"] == "nesterov" or desc["seed_value"] == 0)}
        real = harness_mod._run_cell

        def fail_doomed(cells, out_dir):
            (cell,) = cells  # a quadratic cell is a bundle alone
            if (config_hash(cell), cell["master_seed"]) in doomed:
                return ["RuntimeError: synthetic cell failure"]
            return real(cells, out_dir)

        monkeypatch.setattr(harness_mod, "_run_cell", fail_doomed)
        rows, errors = run_sweep(sweep_spec(), tmp_path, jobs=1, log=lambda *_: None)
        assert len(errors) == 4
        assert (tmp_path / "summary.csv").read_bytes() == (
            b"method,schedule,config_hash,n,mean_final_loss,std_final_loss,n_diverged,missing\r\n"
            b"cgad,fixed:0,17c0c76d68ef04badece81c777e5bfe0605eefdcd733934140e59e41a10ceb1d,"
            b"3,23.394999078227556,6.899327956785333,0,0\r\n"
            b"cgad,fixed:2,293722964e1eab63092f65a83317e3283597c250172374da773b15010e0322b7,"
            b"2,22.930316143577365,9.701806090394783,0,1\r\n"
            b"nesterov,fixed:0,09fac847c94b776b952397f028a51e682d22a233e797ccb23799b53ea102c999,"
            b"3,23.04658310043887,6.797311185714314,0,0\r\n"
            b"nesterov,fixed:2,67182f379587e2e5393dc8fcaa6a1ac3874b13e531739421fcad3cdecce3e0ce,"
            b"0,,,0,3\r\n")
        assert format_summary_table(rows).splitlines()[2:] == [
            "cgad               fixed:0            3  23.395 +- 6.9                       0",
            "cgad               fixed:2            2  22.9303 +- 9.7                      0 (1 missing)",
            "nesterov           fixed:0            3  23.0466 +- 6.8                      0",
            "nesterov           fixed:2            0  n/a (no finite final loss)          0 (3 missing)",
        ]
        write_summary_csv(rows, tmp_path / "rows.csv")  # the returned rows are the rows on disk
        assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "summary.csv").read_bytes()

    def test_a_bundle_of_one_whose_run_raises_fails_its_cell_and_writes_no_file(self, tmp_path, monkeypatch):
        import stalelab.harness as harness_mod

        real = Simulation.run_round

        def fail_in_round_2(self, deltas=None):
            if self.round == 2:
                raise RuntimeError("synthetic failure in round 2")
            return real(self, deltas)

        monkeypatch.setattr(Simulation, "run_round", fail_in_round_2)
        assert harness_mod._run_cell([quad_raw()], str(tmp_path)) == ["RuntimeError: synthetic failure in round 2"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("rounds,init_fails,message", [
        (-1, False, "ConfigError: invalid config:\n  - rounds: must be >= 1, got -1"),
        (6, True, "ValueError: synthetic build failure"),
    ])
    def test_a_bundle_of_one_that_cannot_be_built_fails_its_cell(self, tmp_path, monkeypatch, rounds, init_fails,
                                                                 message):
        import stalelab.harness as harness_mod

        def fail_to_build(self, config):
            raise ValueError("synthetic build failure")

        if init_fails:
            monkeypatch.setattr(Simulation, "__init__", fail_to_build)
        cell = {**RunConfig.from_dict(quad_raw()).resolved, "rounds": rounds}
        (error,) = harness_mod._run_cell([cell], str(tmp_path))
        assert error == message
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the crash is patched in before the pool forks its children")
    def test_dead_pool_child_fails_its_cells_and_a_rerun_resumes(self, tmp_path, monkeypatch):
        import stalelab.harness as harness_mod

        real = Simulation.run_round
        doomed = expand_sweep(sweep_spec())[0][1]  # first cell: its crash fails nearly the whole pool

        def crash_on_doomed(self, deltas=None):
            if (self.config.hash, self.config.master_seed) == (doomed.hash, doomed.master_seed):
                os._exit(3)  # the child dies without raising
            return real(self, deltas)

        real_pass = harness_mod._pool_pass
        passes = []

        def record_pass(cells, out, workers):
            passes.append((len(cells), workers))
            return real_pass(cells, out, workers)

        monkeypatch.setattr(Simulation, "run_round", crash_on_doomed)
        monkeypatch.setattr(harness_mod, "_pool_pass", record_pass)
        rows, errors = run_sweep(sweep_spec(), tmp_path, jobs=2, log=lambda *_: None)
        # the cells queued beside the doomed one are resubmitted to a fresh pool of
        # the same size; the doomed cell runs last there, so it breaks that pool for
        # at most the 2 * jobs cells behind and beside it, and only those run alone
        assert passes[0] == (len(expand_sweep(sweep_spec())), 2) and passes[1][1] == 2
        assert 1 <= len(passes[2:]) <= 4 and all(p == (1, 1) for p in passes[2:])
        assert len(errors) == 1 and "BrokenProcessPool" in errors[0]
        assert {row.config_hash: row.missing for row in rows if row.missing} == {doomed.hash: 1}
        assert not (tmp_path / result_filename(doomed.hash, doomed.master_seed)).exists()
        assert len(list(tmp_path.glob("*_s*.json"))) == len(expand_sweep(sweep_spec())) - 1

        monkeypatch.undo()
        rows, errors = run_sweep(sweep_spec(), tmp_path, jobs=2, log=lambda *_: None)
        assert errors == []
        assert all(row.n == 3 and row.missing == 0 for row in rows)


def json_key(desc):
    return json.dumps(desc["assignment"], sort_keys=True)


class TestCli:
    def write_config(self, tmp_path, raw):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        return path

    def test_run_writes_result(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path, quad_raw())
        rc = cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "res")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "final_loss=" in out
        assert len(list((tmp_path / "res").glob("*.json"))) == 1

    def test_run_rejects_invalid_config_with_field_path(self, tmp_path, capsys):
        for outer, message in (({"beta1": 1.0}, "outer.beta1"), ({"eta": math.nan}, "outer.eta: must be finite")):
            cfg_path = self.write_config(tmp_path, quad_raw(outer=outer))
            assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "res")]) == 2
            assert message in capsys.readouterr().err

    def test_run_rejects_non_object_config(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path, [1, 2])
        for extra in ([], ["--seed-override", "3"]):
            assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "res"), *extra]) == 2
            assert "config: expected a JSON object" in capsys.readouterr().err

    def test_run_rejects_a_file_as_output_directory_before_running(self, tmp_path, capsys, monkeypatch):
        cfg_path = self.write_config(tmp_path, quad_raw())
        out = tmp_path / "afile"
        out.write_text("kept")
        ran = []
        monkeypatch.setattr(cli_mod, "run_to_file", lambda *args: ran.append(args))
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert f"error: cannot use output directory {out}: " in capsys.readouterr().err
        assert ran == [] and out.read_text() == "kept"

    def test_minimal_adam_run_trains(self, tmp_path):
        cfg_path = self.write_config(tmp_path, quad_raw(method="adam", rounds=40))
        cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "res")])
        payload = json.loads(next((tmp_path / "res").glob("*.json")).read_text())
        assert not payload["diverged"]
        assert payload["final_loss"] < payload["reference_loss"]

    def test_run_divergence_is_data_not_failure(self, tmp_path, capsys):
        raw = quad_raw(method="nesterov", rounds=30, delay={"kind": "fixed", "tau": 8},
                       outer={"eta": 100.0, "mu": 0.9})
        cfg_path = self.write_config(tmp_path, raw)
        rc = cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "res")])
        assert rc == 0
        assert "DIVERGED" in capsys.readouterr().out

    def test_seed_override(self, tmp_path):
        cfg_path = self.write_config(tmp_path, quad_raw())
        cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "res"),
                  "--seed-override", "42"])
        files = list((tmp_path / "res").glob("*_s42.json"))
        assert len(files) == 1
        assert json.loads(files[0].read_text())["seed"] == 42

    def test_rerun_idempotent_bytes(self, tmp_path):
        cfg_path = self.write_config(tmp_path, quad_raw())
        out = tmp_path / "res"
        cli_main(["run", "--config", str(cfg_path), "--out", str(out)])
        blob = next(out.glob("*.json")).read_bytes()
        cli_main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert next(out.glob("*.json")).read_bytes() == blob

    def test_sweep_command(self, tmp_path, capsys):
        spec_path = tmp_path / "sweep.json"
        spec = sweep_spec()
        spec["axes"]["seed"] = [0]
        spec_path.write_text(json.dumps(spec))
        rc = cli_main(["sweep", "--sweep", str(spec_path), "--out", str(tmp_path / "res"),
                       "--jobs", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "summary.csv" in out and "cgad" in out and "nesterov" in out

    def test_sweep_rejects_a_jobs_key_in_the_spec(self, tmp_path, capsys):
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(sweep_spec(jobs=2)))
        out = tmp_path / "res"
        assert cli_main(["sweep", "--sweep", str(spec_path), "--out", str(out)]) == 2
        assert "jobs: unknown key" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_sweep_rejects_a_file_as_output_directory_before_running(self, tmp_path, capsys, monkeypatch):
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(sweep_spec()))
        out = tmp_path / "afile"
        out.write_text("kept")
        ran = []
        monkeypatch.setattr(cli_mod, "run_sweep", lambda *args, **kwargs: ran.append(args))
        assert cli_main(["sweep", "--sweep", str(spec_path), "--out", str(out), "--jobs", "1"]) == 2
        assert f"error: cannot use output directory {out}: " in capsys.readouterr().err
        assert ran == [] and out.read_text() == "kept"

    @pytest.mark.parametrize("jobs,env,message", [  # env, now always None, keeps each case's id
        (["--jobs", "0"], None, "--jobs: must be >= 1, got 0"),
        (["--jobs", "-4"], None, "--jobs: must be >= 1, got -4"),
    ])
    def test_sweep_rejects_jobs_below_one(self, tmp_path, capsys, jobs, env, message):
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(sweep_spec()))
        out = tmp_path / "res"
        assert cli_main(["sweep", "--sweep", str(spec_path), "--out", str(out), *jobs]) == 2
        assert message in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_gate_table_rows(self, capsys):
        rc = cli_main(["gate-table", "--alpha", "0.2", "--tau-cut", "32", "--tau-max", "33"])
        assert rc == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.strip() and l.lstrip()[0].isdigit()]
        first = lines[0].split()
        assert [float(x) for x in first] == [0.0, 1.0, 1.0, 1.0, 0.0, 0.0]
        cutoff_row = lines[32].split()
        assert float(cutoff_row[3]) == 0.0  # sigma exactly zero at the cutoff
        running_max = [float(l.split()[5]) for l in lines]
        assert max(running_max) <= 1.0 / (math.e * 0.2) + 1e-12
        assert "1/(e*alpha)" in out

    @pytest.mark.parametrize("argv,message", [
        (["--alpha", "inf", "--tau-cut", "4"], "alpha must be finite"),
        (["--alpha", "0.2", "--tau-max", "-3"], "--tau-max must be >= 0"),
        (["--alpha", "0.2", "--tau-cut", "1e308"], "pass --tau-max"),
        (["--alpha", "5e-324"], "pass --tau-max"),
        (["--alpha", "0.2", "--tau-cut", "1e300"], "pass --tau-max"),
        (["--alpha", "1e-6"], "pass --tau-max"),
    ])
    def test_gate_table_rejects_bad_input(self, capsys, argv, message):
        assert cli_main(["gate-table", *argv]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    @pytest.mark.parametrize("where", ["directory", "missing parent"])
    def test_gate_table_unwritable_out_fails_before_printing(self, tmp_path, capsys, where):
        out = tmp_path if where == "directory" else tmp_path / "missing" / "table.csv"
        assert cli_main(["gate-table", "--alpha", "0.2", "--tau-max", "4", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write table {out}: ") and captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_import_loads_no_process_pool_or_verify_suite(self):
        probe = ("import sys, stalelab, stalelab.cli; "
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing' "
                 "or m in ('concurrent.futures.process', 'stalelab.verify')))")
        src = str(Path(stalelab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
        assert done.stdout.strip() == "[]"

    def test_gate_table_csv(self, tmp_path):
        out_csv = tmp_path / "table.csv"
        cli_main(["gate-table", "--alpha", "0.2", "--tau-cut", "32", "--tau-max", "4",
                  "--out", str(out_csv)])
        rows = out_csv.read_text().strip().splitlines()
        assert rows[0].startswith("tau,")
        assert len(rows) == 6


class TestVerifySuite:
    def test_pristine_build_passes(self, capsys):
        rc = cli_main(["verify"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ALL CHECKS PASSED" in out
        assert "FAIL" not in out

    def test_mutated_gate_fails_monotonicity(self, monkeypatch):
        import stalelab.gate as gate_mod

        def flipped(gate, taus):
            curve = gate_mod.gate_curve(gate, taus)
            return curve[::-1].copy()

        monkeypatch.setattr(verify_mod, "gate_curve", flipped)
        ok, detail = verify_mod.check_gate_identities()
        assert not ok and "nonincreasing" in detail

    def test_mutated_drop_advances_counter_and_fails(self, monkeypatch):
        import stalelab.optim as optim_mod

        def leaky_outer_step(params, grad, ages, state, cfg, frags):
            applied, *rest = optim_mod.outer_step(params, grad, ages, state, cfg, frags)
            ids = np.asarray(frags[0])  # the plan's fragment ids
            state.t[ids[~applied]] += 1  # the mutation
            return (applied, *rest)

        monkeypatch.setattr(verify_mod, "outer_step", leaky_outer_step)
        ok, detail = verify_mod.check_drop_totality()
        assert not ok

    def test_one_ulp_adam_drift_fails_reduction(self, monkeypatch):
        import stalelab.optim as optim_mod

        def drifting_outer_step(params, grad, ages, state, cfg, frags):
            out = optim_mod.outer_step(params, grad, ages, state, cfg, frags)
            params[:] = np.nextafter(params, np.inf)  # the mutation
            return out

        monkeypatch.setattr(verify_mod, "outer_step", drifting_outer_step)
        ok, detail = verify_mod.check_adam_reduction()
        assert not ok and "drifted" in detail

    def test_lossy_quantizer_fails_half_scale_bound(self, monkeypatch):
        import stalelab.simulator as sim_mod

        def lossy_quantize(grad, fragments):
            qp = sim_mod.quantize_payload(grad, fragments)
            qp.codes -= np.sign(qp.codes)  # the mutation: every nonzero code one step toward 0
            return qp

        monkeypatch.setattr(verify_mod, "quantize_payload", lossy_quantize)
        ok, detail = verify_mod.check_quantization()
        assert not ok and "half a scale" in detail

    def test_corrupted_gradient_fails_gradient_check(self):
        class Corrupted(QuadraticObjective):
            def loss_and_grad(self, params, batch):
                loss, grad = super().loss_and_grad(params, batch)
                return loss, grad + 1e-6  # the mutation

        bad = Corrupted(dimension=10, spectrum_lo=0.5, spectrum_hi=5.0, rotation_seed=2)
        ok, detail = verify_mod.check_gradients(quad=bad)
        assert not ok and "quadratic" in detail
