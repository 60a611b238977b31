"""Config keys declared once, as dataclass fields of the runtime type they configure.

`key` makes such a field: its default is the key's default (none: the key
is required; `required=True` also requires a key the constructor defaults)
and its metadata is the key's range in Checker keywords (`lo`/`hi`,
`lo_open`/`hi_open`, `integer`; `choices`; or a `valid` predicate and the
`expected` text). `le` names another field of the same type that the value
must not exceed: an ordering of two keys, declared once, on the lower one.
`resolve_fields` resolves a raw config section against those fields and
`check_fields` checks a built object against the same ones.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, Field, field, fields

__all__ = ["Checker", "key", "resolve_fields", "check_fields"]


class Checker:
    def __init__(self):
        self.errors: list[str] = []

    def error(self, path: str, msg: str):
        self.errors.append(f"{path}: {msg}")

    def require_keys(self, d: dict, path: str, required: set[str], optional: set[str]):
        for key in d:
            if key not in required and key not in optional:
                self.error(f"{path}.{key}" if path else key, "unknown key")
        for key in sorted(required):  # a set's order changes with the hash seed
            if key not in d:
                self.error(f"{path}.{key}" if path else key, "missing required key")

    def num(self, d, key, path, *, integer=False, lo=None, hi=None, lo_open=False, hi_open=False, default=None):
        if key not in d:
            return default
        val = d[key]
        full = f"{path}.{key}" if path else key
        if isinstance(val, bool) or not isinstance(val, numbers.Real):
            self.error(full, f"expected a number, got {val!r}")
            return default
        integral = isinstance(val, numbers.Integral)
        if not integral and not math.isfinite(val):  # json.load reads NaN and Infinity
            self.error(full, f"must be finite, got {val}")
            return default
        if integer and not (integral or float(val).is_integer()):
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
        if not any(val == c for c in choices):  # not `in`: a list or an object is unhashable
            self.error(full, f"expected one of {sorted(choices)}, got {val!r}")
            return default
        return val

    def valid(self, d, key, path, valid, expected, default=None):
        if key in d and not valid(d[key]):
            self.error(f"{path}.{key}" if path else key, f"expected {expected}, got {d[key]!r}")
            return default
        return d.get(key, default)


def key(default=MISSING, *, required=False, le=None, **spec) -> Field:
    """A config-key field: its default, its range (Checker keywords) and the field it must not exceed
    (`le`); see the module docstring."""
    check = "choice" if "choices" in spec else "valid" if "valid" in spec else "num"
    spec["default"] = None if default is MISSING else default
    metadata = {"required": required or default is MISSING, "check": check, "spec": spec, "le": le}
    return field(default=default, metadata=metadata)


def resolve_fields(cls, raw: dict, path: str, chk: Checker, *, keys=None, allowed=()) -> dict:
    """Resolve the config section `raw` against cls's config fields, each error under `path`.

    `keys` limits the fields and `allowed` names raw keys the caller
    resolves. A missing or invalid value resolves to the field's default
    (None if it has none). An `le` ordering is checked where both of its
    fields resolve to a value that passed its own check, so a rejected value
    is reported once and its default never is.
    """
    declared = [f for f in fields(cls) if f.metadata and (keys is None or f.name in keys)]
    chk.require_keys(raw, path, {f.name for f in declared if f.metadata["required"]},
                     {f.name for f in declared} | set(allowed))
    out, passed = {}, {}
    for f in declared:
        errors = len(chk.errors)
        out[f.name] = getattr(chk, f.metadata["check"])(raw, f.name, path, **f.metadata["spec"])
        passed[f.name] = out[f.name] if len(chk.errors) == errors else None
    for f in declared:
        lower, upper = passed[f.name], passed.get(f.metadata["le"])
        if lower is not None and upper is not None and lower > upper:
            chk.error(f"{path}.{f.name}" if path else f.name, f"must be <= {f.metadata['le']} ({upper}), got {lower}")
    return out


def check_fields(obj) -> None:
    """Raise the first range error of obj's config fields as a ValueError `<Type>.<field>: <msg>`."""
    chk, cls = Checker(), type(obj)
    resolve_fields(cls, {f.name: getattr(obj, f.name) for f in fields(cls) if f.metadata}, cls.__name__, chk)
    if chk.errors:
        raise ValueError(chk.errors[0])
