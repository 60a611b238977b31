import dataclasses
import json
import math
import multiprocessing
import os

import numpy as np
import pytest

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
    format_summary_table,
    result_filename,
    run_sweep,
    run_to_file,
    summarize_results,
)
from stalelab.objective import QuadraticObjective
from stalelab.optim import METHODS
from stalelab.simulator import DelaySchedule, delay_seeds, run_experiment, sample_delay


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

    def test_mean_and_std_match_hand_computation(self):
        rows = summarize_results([self.make_result(1.0, seed=0),
                                  self.make_result(2.0, seed=1),
                                  self.make_result(4.0, seed=2)])
        assert len(rows) == 1
        assert rows[0].n == 3
        assert rows[0].mean == pytest.approx(2.3333333333333335, abs=1e-15)
        assert rows[0].std == pytest.approx(1.5275252316519465, abs=1e-12)

    def test_single_seed_std_is_zero(self):
        rows = summarize_results([self.make_result(1.5)])
        assert rows[0].std == 0.0

    def test_divergence_marking_uses_flag_only(self):
        rows = summarize_results([self.make_result(100.0, diverged=True, seed=0),
                                  self.make_result(1.0, diverged=False, seed=1)])
        assert rows[0].n_diverged == 1
        assert "!" in format_summary_table(rows)

    def test_groups_by_cell(self):
        rows = summarize_results([self.make_result(1.0, method="cgad", seed=0),
                                  self.make_result(2.0, method="adam", seed=0),
                                  self.make_result(3.0, method="cgad", tau=4, seed=0)])
        assert len(rows) == 3
        labels = {(r.method, r.schedule) for r in rows}
        assert labels == {("cgad", "fixed:0"), ("adam", "fixed:0"), ("cgad", "fixed:4")}


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

    @pytest.mark.parametrize("axes,method", [
        ({"outer.eta": [0.001, 1e-3]}, "cgad"),
        ({"seed": [0, 0]}, "cgad"),
        ({"outer.alpha": [0.0, 0]}, "adam"),
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

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the crash is patched in before the pool forks its children")
    def test_dead_pool_child_fails_its_cells_and_a_rerun_resumes(self, tmp_path, monkeypatch):
        import stalelab.harness as harness_mod

        real = harness_mod.run_to_file
        doomed = expand_sweep(sweep_spec())[0][1]  # first cell: its crash fails nearly the whole pool

        def crash_on_doomed(config, out_dir):
            if (config.hash, config.master_seed) == (doomed.hash, doomed.master_seed):
                os._exit(3)  # the child dies without raising
            return real(config, out_dir)

        real_pass = harness_mod._pool_pass
        passes = []

        def record_pass(cells, out, workers):
            passes.append((len(cells), workers))
            return real_pass(cells, out, workers)

        monkeypatch.setattr(harness_mod, "run_to_file", crash_on_doomed)
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


class TestJobsResolution:
    def test_env_var_is_the_default(self, monkeypatch):
        from stalelab.harness import resolve_jobs

        monkeypatch.setenv("STALE_LAB_JOBS", "3")
        assert resolve_jobs(None, None) == 3

    def test_cli_flag_wins_over_env(self, monkeypatch):
        from stalelab.harness import resolve_jobs

        monkeypatch.setenv("STALE_LAB_JOBS", "3")
        assert resolve_jobs(8, None) == 8

    def test_spec_value_caps(self, monkeypatch):
        from stalelab.harness import resolve_jobs

        monkeypatch.delenv("STALE_LAB_JOBS", raising=False)
        assert resolve_jobs(None, 2) == 2
        assert resolve_jobs(8, 2) == 2

    def test_bad_env_value_is_config_error(self, monkeypatch):
        from stalelab.harness import resolve_jobs

        monkeypatch.setenv("STALE_LAB_JOBS", "lots")
        with pytest.raises(ConfigError, match="STALE_LAB_JOBS"):
            resolve_jobs(None, None)

    @pytest.mark.parametrize("cli_jobs,env,message", [
        (0, None, "--jobs: must be >= 1, got 0"),
        (-4, "3", "--jobs: must be >= 1, got -4"),
        (None, "0", "STALE_LAB_JOBS: must be >= 1, got 0"),
        (None, "-2", "STALE_LAB_JOBS: must be >= 1, got -2"),
    ])
    def test_jobs_below_one_is_config_error(self, monkeypatch, cli_jobs, env, message):
        from stalelab.harness import resolve_jobs

        if env is None:
            monkeypatch.delenv("STALE_LAB_JOBS", raising=False)
        else:
            monkeypatch.setenv("STALE_LAB_JOBS", env)
        with pytest.raises(ConfigError) as exc:
            resolve_jobs(cli_jobs, 2)
        assert exc.value.errors == [message]


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

    @pytest.mark.parametrize("jobs,env,message", [
        (["--jobs", "0"], None, "--jobs: must be >= 1, got 0"),
        (["--jobs", "-4"], None, "--jobs: must be >= 1, got -4"),
        ([], "0", "STALE_LAB_JOBS: must be >= 1, got 0"),
    ])
    def test_sweep_rejects_jobs_below_one(self, tmp_path, capsys, monkeypatch, jobs, env, message):
        if env is None:
            monkeypatch.delenv("STALE_LAB_JOBS", raising=False)
        else:
            monkeypatch.setenv("STALE_LAB_JOBS", env)
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
