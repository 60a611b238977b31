"""Run/sweep configuration: parsing, strict validation, canonical hashing.

Configs are plain JSON with an explicit schema version. Validation is
strict (unknown keys are errors, all problems reported with field paths)
and resolution fills every default, so two configs that mean the same
thing canonicalize to the same dict and hash to the same digest. Each key
is declared once, with its default and range, as a `schema.key` field of
the type it configures: the top-level keys on `RunConfig`, each section's
on `OuterConfig`, `InnerConfig`, `DelaySchedule` or its objective class
(`fragments` aside). Code past resolution reads only resolved values. The
config hash excludes the master seed: a result file is named by
(hash, seed) and the hash identifies the experimental cell.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from typing import Any

from .objective import _OBJECTIVES, mlp_dim
from .optim import DEFAULT_ALPHA, DEFAULT_TAU_CUT, METHOD_TABLE, METHODS, InnerConfig, OuterConfig
from .schema import Checker, check_fields, key, resolve_fields
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


def _section(raw: dict, name: str, chk: Checker, required: bool = False) -> dict | None:
    """The JSON object raw[name], {} when an optional section is absent.

    A non-object or a missing required section is reported and resolves
    as {}, or as None when required (so its keys are not reported too).
    """
    value = raw.get(name, None if required else {})
    if isinstance(value, dict):
        return value
    chk.error(name, "expected a JSON object" if name in raw else "missing required key")
    return None if required else {}


def _kind(raw: dict | None, section: str, kinds, chk: Checker) -> str | None:
    """The section's kind; None, reported, when the section or its kind is missing or invalid."""
    if raw is None:
        return None
    kind = chk.choice(raw, "kind", section, kinds)
    if kind is None and "kind" not in raw:
        chk.error(f"{section}.kind", "missing required key")
    return kind


def _resolve_objective(raw: dict | None, chk: Checker) -> tuple[dict | None, int | None]:
    """The resolved objective and its parameter dimension (None when invalid)."""
    kind = _kind(raw, "objective", _OBJECTIVES, chk)
    if kind is None:
        return None, None
    out = {"kind": kind, **resolve_fields(_OBJECTIVES[kind], raw, "objective", chk, allowed={"kind"})}
    if kind == "mlp_regression":
        return out, None if out["layer_sizes"] is None else mlp_dim(out["layer_sizes"])
    return out, out["dimension"]


def _resolve_delay(raw: dict | None, chk: Checker) -> dict | None:
    kind = _kind(raw, "delay", DelaySchedule.KEYS, chk)
    if kind is None:
        return None
    return {"kind": kind, **resolve_fields(DelaySchedule, raw, "delay", chk, keys=DelaySchedule.KEYS[kind],
                                           allowed={"kind"})}


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
    if not isinstance(raw, dict):
        raise ConfigError(["config: expected a JSON object"])
    chk = Checker()
    top = resolve_fields(RunConfig, raw, "", chk, allowed={"objective", "outer", "inner", "delay", "fragments"})
    if top["version"] is not None and top["version"] != CONFIG_VERSION:
        chk.error("version", f"unsupported config version {top['version']}; this build reads {CONFIG_VERSION}")
    objective, dim = _resolve_objective(_section(raw, "objective", chk, required=True), chk)
    delay = _resolve_delay(_section(raw, "delay", chk, required=True), chk)
    outer_raw = _section(raw, "outer", chk)
    outer = _resolve_outer(outer_raw, top["method"], chk) if top["method"] else outer_raw
    inner = resolve_fields(InnerConfig, _section(raw, "inner", chk), "inner", chk)
    frag = _section(raw, "fragments", chk)
    chk.require_keys(frag, "fragments", set(), {"count", "budget"})
    count = chk.num(frag, "count", "fragments", integer=True, lo=1, default=1)
    budget = chk.num(frag, "budget", "fragments", integer=True, lo=1, default=count)
    if count is not None and budget is not None and budget > count:
        chk.error("fragments.budget", f"must be <= fragments.count ({count}), got {budget}")
    if dim is not None and count is not None and count > dim:
        chk.error("fragments.count", f"must be <= parameter dimension ({dim}), got {count}")
    if chk.errors:
        raise ConfigError(chk.errors)
    return {**top, "objective": objective, "outer": outer, "inner": inner, "delay": delay,
            "fragments": {"count": count, "budget": budget}}


@dataclass(kw_only=True)
class RunConfig:
    """Fully validated run description; the unit the simulator executes.

    One field per key of the resolved config, with `outer` and `inner`
    built into their config objects, plus `resolved` itself. Each
    top-level key is a `schema.key` field here, as each section's keys
    are fields of the type they configure (`fragments` aside).
    """

    resolved: dict
    version: int = key(integer=True)  # resolve_config also requires CONFIG_VERSION
    objective: dict
    workers: int = key(4, integer=True, lo=1)
    inner_steps: int = key(8, integer=True, lo=1)
    rounds: int = key(200, integer=True, lo=1)
    batch_size: int = key(32, integer=True, lo=1)
    eval_batch_size: int = key(256, integer=True, lo=1)
    method: str = key(choices=METHODS)
    outer: OuterConfig
    inner: InnerConfig
    delay: dict
    fragments: dict
    quantize_queue: bool = key(False, valid=lambda v: isinstance(v, bool), expected="true/false")
    master_seed: int = key(0, integer=True)

    def __post_init__(self):
        check_fields(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        return cls._from_resolved(resolve_config(raw))

    @classmethod
    def _from_resolved(cls, resolved: dict) -> "RunConfig":
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

    Axes are crossed in their listed order. The "seed" axis maps each
    integer value to a derived master seed (digest of the cell's resolved
    master seed and the value), so adding or reordering other axes never
    reshuffles a cell's randomness, and the same seed value pairs runs
    across methods. Every cell is
    validated before anything runs, and two cells with the same config
    hash and master seed (one result file) are rejected.
    """
    chk = Checker()
    if not isinstance(spec, dict):
        raise ConfigError(["sweep: expected a JSON object"])
    chk.require_keys(spec, "", {"version", "base", "axes"}, set())
    version = chk.num(spec, "version", "", integer=True)
    if version is not None and version != CONFIG_VERSION:
        chk.error("version", f"unsupported sweep version {version}; this build reads {CONFIG_VERSION}")
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
    if isinstance(axes.get("seed"), list):
        for value in axes["seed"]:
            chk.num({"seed": value}, "seed", "axes", integer=True)
    if chk.errors:
        raise ConfigError(chk.errors)

    cells: list[tuple[dict, RunConfig]] = []
    errors: list[str] = []
    labels: dict[tuple[str, int], str] = {}  # (config hash, master seed) -> the first cell's label
    for values in itertools.product(*axes.values()):
        assignment = dict(zip(axes, values))
        raw = json.loads(json.dumps(base))
        seed_val = int(assignment["seed"]) if "seed" in assignment else None  # an integer, checked above
        label = canonical_json(assignment)
        try:
            for name, value in assignment.items():
                if name != "seed":  # a copy: a later path may set inside it, and the spec stays as given
                    _set_path(raw, name, copy.deepcopy(value))
            resolved = resolve_config(raw)
        except ConfigError as exc:
            errors.extend(f"cell {label} -> {e}" for e in exc.errors)
            continue
        if seed_val is not None:
            resolved["master_seed"] = derive_seed(resolved["master_seed"], "seed", seed_val)
        cfg = RunConfig._from_resolved(resolved)
        file_id = (cfg.hash, cfg.master_seed)
        if file_id in labels:
            errors.append(f"cell {label} -> same config hash and master seed as cell {labels[file_id]}")
            continue
        labels[file_id] = label
        cells.append(({"assignment": assignment, "seed_value": seed_val}, cfg))
    if errors:
        raise ConfigError(errors)
    return cells
