"""Each config key is declared once, as a field of the runtime type it configures.

The resolver and the constructors check the same declaration, so the same
out-of-range value gets the same message from both, a minimal config
resolves to the constructors' defaults, and the README lists every key.
"""

import dataclasses
import json
import math
import re
from pathlib import Path

import pytest

from stalelab.config import ConfigError, RunConfig, expand_sweep, resolve_config
from stalelab.objective import _OBJECTIVES
from stalelab.optim import METHODS, InnerConfig, OuterConfig
from stalelab.simulator import DelaySchedule

OBJECTIVES = {  # each kind with its required keys only
    "quadratic": {"kind": "quadratic", "dimension": 6, "spectrum_lo": 0.5, "spectrum_hi": 4.0,
                  "rotation_seed": 1},
    "rosenbrock_sum": {"kind": "rosenbrock_sum", "dimension": 4},
    "mlp_regression": {"kind": "mlp_regression", "layer_sizes": [3, 4, 1]},
}
DELAYS = {"fixed": {"kind": "fixed", "tau": 2}, "uniform_int": {"kind": "uniform_int"},
          "exponential": {"kind": "exponential"}}


def raw_config(objective="quadratic", delay="fixed", method="cgad", **sections):
    return {"version": 1, "objective": dict(OBJECTIVES[objective]), "method": method,
            "delay": dict(DELAYS[delay]), **sections}


def config_fields(cls):
    return [f for f in dataclasses.fields(cls) if f.metadata]


def bad_values(field):
    """Values just outside the declared range of a config field."""
    spec = field.metadata["spec"]
    if "choices" in spec:
        yield "sideways"
    if "valid" in spec:
        yield [0]
    if "lo" in spec:
        yield spec["lo"] if spec.get("lo_open") else spec["lo"] - 1
    if "hi" in spec:
        yield spec["hi"] if spec.get("hi_open") else spec["hi"] + 1
    if spec.get("integer"):
        yield 1.5


def field_cases():
    """(section, key, bad value, raw config with it, constructor call with it) per declared range."""
    for f in config_fields(RunConfig):
        for bad in bad_values(f):
            yield ("", f.name, bad, raw_config(**{f.name: bad}),
                   lambda name=f.name, bad=bad: dataclasses.replace(RunConfig.from_dict(raw_config()), **{name: bad}))
    for f in config_fields(OuterConfig):
        for bad in bad_values(f):
            yield ("outer", f.name, bad, raw_config(outer={f.name: bad}),
                   lambda name=f.name, bad=bad: OuterConfig.for_method("cgad", **{name: bad}))
    for f in config_fields(InnerConfig):
        for bad in bad_values(f):
            yield ("inner", f.name, bad, raw_config(inner={f.name: bad}),
                   lambda name=f.name, bad=bad: InnerConfig(**{name: bad}))
    for f in config_fields(DelaySchedule):
        kind = next((k for k, keys in DelaySchedule.KEYS.items() if f.name in keys), "fixed")
        for bad in bad_values(f):
            spec = {**DELAYS[kind], f.name: bad}
            yield ("delay", f.name, bad, raw_config(delay=kind) | {"delay": spec},
                   lambda spec=spec: DelaySchedule(**spec))
    for kind, cls in _OBJECTIVES.items():
        for f in config_fields(cls):
            for bad in bad_values(f):
                spec = {**OBJECTIVES[kind], f.name: bad}
                yield ("objective", f.name, bad, raw_config(kind) | {"objective": spec},
                       lambda cls=cls, spec=spec: cls(**{k: v for k, v in spec.items() if k != "kind"}))


CASES = list(field_cases())


def test_every_declared_field_has_a_range():
    for cls in (RunConfig, OuterConfig, InnerConfig, DelaySchedule, *_OBJECTIVES.values()):
        for f in config_fields(cls):
            assert list(bad_values(f)), f"{cls.__name__}.{f.name}"


@pytest.mark.parametrize("section,key,bad,raw,build", CASES,
                         ids=[f"{raw['objective']['kind'] if section == 'objective' else section or 'run'}"
                              f".{key}={bad!r}" for section, key, bad, raw, _ in CASES])
def test_resolver_and_constructor_reject_alike(section, key, bad, raw, build):
    with pytest.raises(ConfigError) as exc:
        resolve_config(raw)
    [error] = exc.value.errors
    assert error.startswith(f"{section}.{key}: " if section else f"{key}: ")
    msg = error.split(": ", 1)[1]
    with pytest.raises(ValueError) as built:
        build()
    assert str(built.value).endswith(f".{key}: {msg}")


@pytest.mark.parametrize("method", METHODS)
def test_minimal_outer_and_inner_resolve_to_constructor_defaults(method):
    cfg = RunConfig.from_dict(raw_config(method=method))
    top = config_fields(RunConfig)
    defaults = {f.name: f.default for f in top} | {"version": 1, "method": method}  # the two required keys
    assert {f.name: getattr(cfg, f.name) for f in top} == defaults
    assert cfg.outer == OuterConfig.for_method(method)
    assert InnerConfig(**cfg.resolved["inner"]) == InnerConfig()


@pytest.mark.parametrize("kind", DELAYS)
def test_minimal_delay_resolves_to_constructor_defaults(kind):
    delay = resolve_config(raw_config(delay=kind))["delay"]
    assert set(delay) == {"kind", *DelaySchedule.KEYS[kind]}
    assert DelaySchedule(**delay) == DelaySchedule(**DELAYS[kind])


@pytest.mark.parametrize("kind", OBJECTIVES)
def test_minimal_objective_resolves_to_constructor_defaults(kind):
    objective = resolve_config(raw_config(kind))["objective"]
    cls = _OBJECTIVES[kind]
    built = cls(**{k: v for k, v in OBJECTIVES[kind].items() if k != "kind"})
    assert objective == {"kind": kind, **{f.name: getattr(built, f.name) for f in config_fields(cls)}}


def readme_run_config() -> str:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return text.split("\n## Run config\n", 1)[1].split("\n## ", 1)[0]


@pytest.mark.parametrize("objective,delay", zip(OBJECTIVES, DELAYS))
def test_readme_lists_every_resolved_key(objective, delay):
    section = readme_run_config()
    resolved = resolve_config(raw_config(objective, delay))
    paths = [f"{key}.{sub}" if isinstance(value, dict) else key
             for key, value in resolved.items() for sub in (value if isinstance(value, dict) else [None])]
    assert [p for p in paths if not re.search(rf"^\| `{re.escape(p)}` \|", section, re.M)] == []


def test_readme_sweep_example_expands():
    section = readme_run_config()
    block = section.split("A sweep file crosses axes over a base config:", 1)[1].split("```json\n", 1)[1]
    example = block.split("```", 1)[0].replace("{ ... a run config ... }", '"BASE"')
    spec = json.loads(example)
    assert spec["base"] == "BASE"
    spec["base"] = raw_config()
    cells = expand_sweep(spec)
    assert len(cells) == math.prod(len(values) for values in spec["axes"].values())
