"""Run/sweep configuration: parsing, strict validation, canonical hashing.

Configs are plain JSON with an explicit schema version. Validation is
strict (unknown keys are errors, all problems reported with field paths)
and resolution fills every default, so two configs that mean the same
thing canonicalize to the same dict and hash to the same digest. The
config hash excludes the master seed: a result file is named by
(hash, seed) and the hash identifies the experimental cell.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any

from .objective import mlp_dim
from .optim import DEFAULT_ALPHA, DEFAULT_TAU_CUT, METHOD_TABLE, METHODS, InnerConfig, OuterConfig
from .seeding import derive_seed

CONFIG_VERSION = 1
INT64_MAX = 2**63 - 1  # the largest delay.hi numpy's int64 integers(lo, hi + 1) can draw

__all__ = [
    "ConfigError",
    "RunConfig",
    "resolve_config",
    "config_hash",
    "canonical_json",
    "expand_sweep",
]


class ConfigError(ValueError):
    """All validation problems for one config, each tagged with its field path."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("invalid config:\n" + "\n".join(f"  - {e}" for e in self.errors))


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(resolved: dict) -> str:
    hashed = {k: v for k, v in resolved.items() if k != "master_seed"}
    return hashlib.sha256(canonical_json(hashed).encode("utf-8")).hexdigest()


class _Checker:
    def __init__(self):
        self.errors: list[str] = []

    def error(self, path: str, msg: str):
        self.errors.append(f"{path}: {msg}")

    def require_keys(self, d: dict, path: str, required: set[str], optional: set[str]):
        for key in d:
            if key not in required and key not in optional:
                self.error(f"{path}.{key}" if path else key, "unknown key")
        for key in required:
            if key not in d:
                self.error(f"{path}.{key}" if path else key, "missing required key")

    def num(self, d, key, path, *, integer=False, lo=None, hi=None, lo_open=False, hi_open=False, default=None):
        if key not in d:
            return default
        val = d[key]
        full = f"{path}.{key}" if path else key
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            self.error(full, f"expected a number, got {val!r}")
            return default
        if isinstance(val, float) and not math.isfinite(val):  # json.load reads NaN and Infinity
            self.error(full, f"must be finite, got {val}")
            return default
        if integer and not (isinstance(val, int) or float(val).is_integer()):
            self.error(full, f"expected an integer, got {val!r}")
            return default
        if lo is not None and (val <= lo if lo_open else val < lo):
            self.error(full, f"must be {'>' if lo_open else '>='} {lo}, got {val}")
            return default
        if hi is not None and (val >= hi if hi_open else val > hi):
            self.error(full, f"must be {'<' if hi_open else '<='} {hi}, got {val}")
            return default
        return int(val) if integer else float(val)

    def choice(self, d, key, path, choices, default=None):
        if key not in d:
            return default
        val = d[key]
        full = f"{path}.{key}" if path else key
        if val not in choices:
            self.error(full, f"expected one of {sorted(choices)}, got {val!r}")
            return default
        return val

    def boolean(self, d, key, path, default=False):
        if key not in d:
            return default
        val = d[key]
        if not isinstance(val, bool):
            self.error(f"{path}.{key}" if path else key, f"expected true/false, got {val!r}")
            return default
        return val


def _resolve_objective(raw: dict, chk: _Checker) -> tuple[dict, int | None]:
    """The resolved objective and its parameter dimension (None when invalid)."""
    kind = chk.choice(raw, "kind", "objective", {"quadratic", "rosenbrock_sum", "mlp_regression"})
    if kind is None:
        if "kind" not in raw:
            chk.error("objective.kind", "missing required key")
        return dict(raw), None
    out: dict = {"kind": kind}
    if kind == "quadratic":
        chk.require_keys(raw, "objective", {"kind", "dimension", "spectrum_lo", "spectrum_hi", "rotation_seed"},
                         {"noise_scale", "init_scale"})
        out["dimension"] = chk.num(raw, "dimension", "objective", integer=True, lo=1)
        out["spectrum_lo"] = chk.num(raw, "spectrum_lo", "objective", lo=0, lo_open=True)
        out["spectrum_hi"] = chk.num(raw, "spectrum_hi", "objective", lo=0, lo_open=True)
        out["rotation_seed"] = chk.num(raw, "rotation_seed", "objective", integer=True, default=0)
        out["noise_scale"] = chk.num(raw, "noise_scale", "objective", lo=0, default=0.1)
        out["init_scale"] = chk.num(raw, "init_scale", "objective", lo=0, lo_open=True, default=1.0)
        if (out["spectrum_lo"] is not None and out["spectrum_hi"] is not None
                and out["spectrum_lo"] > out["spectrum_hi"]):
            chk.error("objective.spectrum_lo", "must be <= spectrum_hi")
    elif kind == "rosenbrock_sum":
        chk.require_keys(raw, "objective", {"kind", "dimension"}, {"noise_scale", "init_scale"})
        out["dimension"] = chk.num(raw, "dimension", "objective", integer=True, lo=2)
        out["noise_scale"] = chk.num(raw, "noise_scale", "objective", lo=0, default=0.0)
        out["init_scale"] = chk.num(raw, "init_scale", "objective", lo=0, lo_open=True, default=1.0)
    else:
        chk.require_keys(raw, "objective", {"kind", "layer_sizes"}, {"teacher_seed", "teacher_scale", "init_scale"})
        sizes = raw.get("layer_sizes")
        if not (isinstance(sizes, list) and len(sizes) >= 2
                and all(isinstance(s, int) and not isinstance(s, bool) and s >= 1 for s in sizes)):
            chk.error("objective.layer_sizes", f"expected a list of >= 2 positive integers, got {sizes!r}")
        else:
            out["layer_sizes"] = list(sizes)
        out["teacher_seed"] = chk.num(raw, "teacher_seed", "objective", integer=True, default=0)
        out["teacher_scale"] = chk.num(raw, "teacher_scale", "objective", lo=0, lo_open=True, default=1.0)
        out["init_scale"] = chk.num(raw, "init_scale", "objective", lo=0, lo_open=True, default=1.0)
        return out, mlp_dim(out["layer_sizes"]) if "layer_sizes" in out else None
    return out, out["dimension"]


def _resolve_delay(raw: dict, chk: _Checker) -> dict:
    kind = chk.choice(raw, "kind", "delay", {"fixed", "uniform_int", "exponential"})
    if kind is None:
        if "kind" not in raw:
            chk.error("delay.kind", "missing required key")
        return dict(raw)
    out: dict = {"kind": kind}
    if kind == "fixed":
        chk.require_keys(raw, "delay", {"kind", "tau"}, set())
        out["tau"] = chk.num(raw, "tau", "delay", integer=True, lo=0)
    elif kind == "uniform_int":
        chk.require_keys(raw, "delay", {"kind"}, {"lo", "hi"})
        out["lo"] = chk.num(raw, "lo", "delay", integer=True, lo=0, default=0)
        out["hi"] = chk.num(raw, "hi", "delay", integer=True, lo=0, hi=INT64_MAX, default=16)
        if out["lo"] is not None and out["hi"] is not None and out["lo"] > out["hi"]:
            chk.error("delay.lo", "must be <= hi")
    else:
        chk.require_keys(raw, "delay", {"kind"}, {"rate", "tau_max"})
        out["rate"] = chk.num(raw, "rate", "delay", lo=0, lo_open=True, default=0.25)
        out["tau_max"] = chk.num(raw, "tau_max", "delay", integer=True, lo=0, default=16)
    return out


def _resolve_outer(raw: dict, method: str, chk: _Checker) -> dict:
    chk.require_keys(raw, "outer", set(),
                     {"eta", "beta1", "beta2", "epsilon", "mu", "alpha", "tau_cut",
                      "gate_placement", "buffer_period"})
    row = METHOD_TABLE[method]
    out = {
        "eta": chk.num(raw, "eta", "outer", lo=0, lo_open=True, default=row.eta),
        "beta1": chk.num(raw, "beta1", "outer", lo=0, hi=1, hi_open=True, default=0.9),
        "beta2": chk.num(raw, "beta2", "outer", lo=0, hi=1, hi_open=True, default=0.95),
        "epsilon": chk.num(raw, "epsilon", "outer", lo=0, lo_open=True, default=1e-8),
        "mu": chk.num(raw, "mu", "outer", lo=0, hi=1, hi_open=True, default=0.9),
        "gate_placement": chk.choice(raw, "gate_placement", "outer", {"before", "after"}, default="before"),
        "buffer_period": chk.num(raw, "buffer_period", "outer", integer=True, lo=1, default=4),
    }

    alpha = chk.num(raw, "alpha", "outer", lo=0)
    tau_cut = (math.inf if "tau_cut" in raw and raw["tau_cut"] in (None, math.inf)
               else chk.num(raw, "tau_cut", "outer", lo=0, lo_open=True))
    for key, value, default in (("alpha", alpha, DEFAULT_ALPHA), ("tau_cut", tau_cut, DEFAULT_TAU_CUT)):
        pin = getattr(row, key)
        if pin is None:
            out[key] = default if value is None else value
            continue
        if value is not None and value != pin:
            shown = "null (no cutoff)" if math.isinf(pin) else pin
            chk.error(f"outer.{key}", f"method {method!r} pins {key} to {shown}"
                      + ("" if row.gated else "; it takes no gate"))
        out[key] = pin
    if math.isinf(out["tau_cut"]):
        out["tau_cut"] = None
    return out


def _resolve_inner(raw: dict, chk: _Checker) -> dict:
    chk.require_keys(raw, "inner", set(), {"lr", "beta1", "beta2", "epsilon", "weight_decay"})
    return {
        "lr": chk.num(raw, "lr", "inner", lo=0, lo_open=True, default=3e-4),
        "beta1": chk.num(raw, "beta1", "inner", lo=0, hi=1, hi_open=True, default=0.9),
        "beta2": chk.num(raw, "beta2", "inner", lo=0, hi=1, hi_open=True, default=0.95),
        "epsilon": chk.num(raw, "epsilon", "inner", lo=0, lo_open=True, default=1e-8),
        "weight_decay": chk.num(raw, "weight_decay", "inner", lo=0, default=0.0),
    }


def resolve_config(raw: dict) -> dict:
    """Validate a raw config mapping and return the canonical resolved dict.

    Raises ConfigError listing every problem with its field path.
    Resolution is idempotent: resolving a resolved dict is a no-op.
    """
    chk = _Checker()
    if not isinstance(raw, dict):
        raise ConfigError(["config: expected a JSON object"])
    chk.require_keys(
        raw, "",
        {"version", "objective", "method", "delay"},
        {"workers", "inner_steps", "rounds", "batch_size", "eval_batch_size",
         "outer", "inner", "fragments", "quantize_queue", "master_seed"},
    )
    version = chk.num(raw, "version", "", integer=True)
    if version is not None and version != CONFIG_VERSION:
        chk.error("version", f"unsupported config version {version}; this build reads {CONFIG_VERSION}")

    method = chk.choice(raw, "method", "", set(METHODS))
    objective, dim = None, None
    if isinstance(raw.get("objective"), dict):
        objective, dim = _resolve_objective(raw["objective"], chk)
    if objective is None and "objective" in raw:
        chk.error("objective", "expected a JSON object")
    delay = _resolve_delay(raw.get("delay", {}), chk) if isinstance(raw.get("delay"), dict) else None
    if delay is None and "delay" in raw:
        chk.error("delay", "expected a JSON object")

    outer_raw = raw.get("outer", {})
    if not isinstance(outer_raw, dict):
        chk.error("outer", "expected a JSON object")
        outer_raw = {}
    inner_raw = raw.get("inner", {})
    if not isinstance(inner_raw, dict):
        chk.error("inner", "expected a JSON object")
        inner_raw = {}
    outer = _resolve_outer(outer_raw, method, chk) if method else dict(outer_raw)
    inner = _resolve_inner(inner_raw, chk)

    frag_raw = raw.get("fragments", {})
    if not isinstance(frag_raw, dict):
        chk.error("fragments", "expected a JSON object")
        frag_raw = {}
    chk.require_keys(frag_raw, "fragments", set(), {"count", "budget"})
    frag_count = chk.num(frag_raw, "count", "fragments", integer=True, lo=1, default=1)
    frag_budget = chk.num(frag_raw, "budget", "fragments", integer=True, lo=1, default=frag_count)
    if frag_count is not None and frag_budget is not None and frag_budget > frag_count:
        chk.error("fragments.budget", f"must be <= fragments.count ({frag_count}), got {frag_budget}")
    if dim is not None and frag_count is not None and frag_count > dim:
        chk.error("fragments.count", f"must be <= parameter dimension ({dim}), got {frag_count}")

    resolved = {
        "version": CONFIG_VERSION,
        "objective": objective,
        "workers": chk.num(raw, "workers", "", integer=True, lo=1, default=4),
        "inner_steps": chk.num(raw, "inner_steps", "", integer=True, lo=1, default=8),
        "rounds": chk.num(raw, "rounds", "", integer=True, lo=1, default=200),
        "batch_size": chk.num(raw, "batch_size", "", integer=True, lo=1, default=32),
        "eval_batch_size": chk.num(raw, "eval_batch_size", "", integer=True, lo=1, default=256),
        "method": method,
        "outer": outer,
        "inner": inner,
        "delay": delay,
        "fragments": {"count": frag_count, "budget": frag_budget},
        "quantize_queue": chk.boolean(raw, "quantize_queue", "", default=False),
        "master_seed": chk.num(raw, "master_seed", "", integer=True, default=0),
    }
    if chk.errors:
        raise ConfigError(chk.errors)
    return resolved


@dataclass
class RunConfig:
    """Fully validated run description; the unit the simulator executes.

    One field per key of the resolved config, with `outer` and `inner`
    built into their config objects, plus `resolved` itself.
    """

    resolved: dict
    version: int
    objective: dict
    workers: int
    inner_steps: int
    rounds: int
    batch_size: int
    eval_batch_size: int
    method: str
    outer: OuterConfig
    inner: InnerConfig
    delay: dict
    fragments: dict
    quantize_queue: bool
    master_seed: int

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        resolved = resolve_config(raw)
        o = resolved["outer"]  # its keys are for_method's keyword arguments, as inner's are InnerConfig's
        tau_cut = math.inf if o["tau_cut"] is None else o["tau_cut"]
        outer = OuterConfig.for_method(resolved["method"], **{**o, "tau_cut": tau_cut})
        inner = InnerConfig(**resolved["inner"])
        return cls(resolved=resolved, **{**resolved, "outer": outer, "inner": inner})

    @property
    def hash(self) -> str:
        return config_hash(self.resolved)


def _set_path(d: dict, dotted: str, value):
    parts = dotted.split(".")
    node = d
    for p in parts[:-1]:
        node = node.setdefault(p, {})
        if not isinstance(node, dict):
            raise ConfigError([f"{dotted}: cannot descend into non-object"])
    node[parts[-1]] = value


def expand_sweep(spec: dict) -> list[tuple[dict, RunConfig]]:
    """Expand a sweep spec into (cell description, RunConfig) pairs.

    Axes are crossed in their listed order. The "seed" axis maps each value
    to a derived master seed (digest of the base seed and the value), so
    adding or reordering other axes never reshuffles a cell's randomness,
    and the same seed value pairs runs across methods. Every cell is
    validated before anything runs, and two cells with the same config
    hash and master seed (one result file) are rejected.
    """
    chk = _Checker()
    if not isinstance(spec, dict):
        raise ConfigError(["sweep: expected a JSON object"])
    chk.require_keys(spec, "", {"version", "base", "axes"}, {"jobs"})
    version = chk.num(spec, "version", "", integer=True)
    if version is not None and version != CONFIG_VERSION:
        chk.error("version", f"unsupported sweep version {version}; this build reads {CONFIG_VERSION}")
    chk.num(spec, "jobs", "", integer=True, lo=1, default=1)
    base = spec.get("base")
    if not isinstance(base, dict):
        chk.error("base", "expected a JSON object (a run config)")
    axes = spec.get("axes")
    if not isinstance(axes, dict) or not axes:
        chk.error("axes", "expected a non-empty JSON object of axis lists")
        axes = {}
    for name, values in axes.items():
        if not isinstance(values, list) or not values:
            chk.error(f"axes.{name}", "expected a non-empty list")
    if chk.errors:
        raise ConfigError(chk.errors)

    names = list(axes.keys())
    cells: list[tuple[dict, RunConfig]] = []
    errors: list[str] = []
    labels: dict[tuple[str, int], str] = {}  # (config hash, master seed) -> the first cell's label

    def rec(idx: int, assignment: dict):
        if idx == len(names):
            raw = json.loads(json.dumps(base))
            seed_val = None
            for name, value in assignment.items():
                if name == "seed":
                    seed_val = value
                else:
                    _set_path(raw, name, value)
            if seed_val is not None:
                base_master = raw.get("master_seed", 0)
                raw["master_seed"] = derive_seed(base_master, "seed", seed_val)
            label = canonical_json(assignment)
            try:
                cfg = RunConfig.from_dict(raw)
            except ConfigError as exc:
                errors.extend(f"cell {label} -> {e}" for e in exc.errors)
                return
            key = (cfg.hash, cfg.master_seed)
            if key in labels:
                errors.append(f"cell {label} -> same config hash and master seed as cell {labels[key]}")
                return
            labels[key] = label
            cells.append(({"assignment": assignment, "seed_value": seed_val}, cfg))
            return
        for value in axes[names[idx]]:
            rec(idx + 1, {**assignment, names[idx]: value})

    rec(0, {})
    if errors:
        raise ConfigError(errors)
    return cells
