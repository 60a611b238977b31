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

from .objective import _OBJECTIVES, mlp_dim
from .optim import DEFAULT_ALPHA, DEFAULT_TAU_CUT, METHOD_TABLE, METHODS, InnerConfig, OuterConfig
from .schema import Checker, resolve_fields
from .seeding import derive_seed
from .simulator import DelaySchedule

CONFIG_VERSION = 1

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


def _resolve_objective(raw: dict, chk: Checker) -> tuple[dict, int | None]:
    """The resolved objective and its parameter dimension (None when invalid)."""
    kind = chk.choice(raw, "kind", "objective", _OBJECTIVES)
    if kind is None:
        if "kind" not in raw:
            chk.error("objective.kind", "missing required key")
        return dict(raw), None
    out = {"kind": kind, **resolve_fields(_OBJECTIVES[kind], raw, "objective", chk, allowed={"kind"})}
    if kind == "mlp_regression":
        return out, None if out["layer_sizes"] is None else mlp_dim(out["layer_sizes"])
    if (kind == "quadratic" and out["spectrum_lo"] is not None and out["spectrum_hi"] is not None
            and out["spectrum_lo"] > out["spectrum_hi"]):
        chk.error("objective.spectrum_lo", "must be <= spectrum_hi")
    return out, out["dimension"]


def _resolve_delay(raw: dict, chk: Checker) -> dict:
    kind = chk.choice(raw, "kind", "delay", DelaySchedule.KEYS)
    if kind is None:
        if "kind" not in raw:
            chk.error("delay.kind", "missing required key")
        return dict(raw)
    out = {"kind": kind, **resolve_fields(DelaySchedule, raw, "delay", chk, keys=DelaySchedule.KEYS[kind],
                                          allowed={"kind"})}
    if kind == "uniform_int" and out["lo"] is not None and out["hi"] is not None and out["lo"] > out["hi"]:
        chk.error("delay.lo", "must be <= hi")
    return out


def _resolve_outer(raw: dict, method: str, chk: Checker) -> dict:
    row = METHOD_TABLE[method]
    out = resolve_fields(OuterConfig, {"eta": row.eta, **raw}, "outer", chk, allowed={"alpha", "tau_cut"})

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


def resolve_config(raw: dict) -> dict:
    """Validate a raw config mapping and return the canonical resolved dict.

    Raises ConfigError listing every problem with its field path.
    Resolution is idempotent: resolving a resolved dict is a no-op.
    """
    chk = Checker()
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
    inner = resolve_fields(InnerConfig, inner_raw, "inner", chk)

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
    chk = Checker()
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
