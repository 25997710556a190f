"""Run configuration: a versioned JSON document validated against a schema.

Every report embeds the configuration hash, so artifacts are diffable and a
run is a pure function of (config, seed).  All defaults equal the modeled
experiment's values: 10,000 shots in bins of 100, sequence lengths 1, 2, 3
plus the infinite-length surrogate, and 2,000 bootstrap replications.

``data/config.schema.json`` is the only record of the rules.  A small
checker here walks it; it implements exactly the keywords that file uses and
raises on any other.  jsonschema is a test oracle only, never imported at
run time.  An ``integer`` is a JSON integer literal, so ``400.0`` is not one.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from .channels import (
    DEVICE_ASSIGNMENT_FIDELITY,
    DEVICE_GATE_TIME,
    DEVICE_T1,
    DEVICE_T2,
    NoiseModel,
    SpamModel,
)
from .reconstruction import MIN_VISIBILITY

__all__ = ["ConfigError", "RunConfig", "DEFAULT_CONFIG", "load_schema"]

DEFAULT_CONFIG = {
    "version": 1,
    "seed": 7,
    "target": {"name": "hadamard"},
    "noise": {
        "kind": "coherence_limited",
        "t1": DEVICE_T1,
        "t2": DEVICE_T2,
        "gate_time": DEVICE_GATE_TIME,
        "depolarizing": 0.995,
        "placement": "left",
    },
    "spam": {"assignment_fidelity": DEVICE_ASSIGNMENT_FIDELITY},
    "shots": 10_000,
    "bin_size": 100,
    "lengths": [1, 2, 3],
    "repeats": {"1": 12, "inf": 12},
    "bootstrap": {"replications": 2000, "samples_per_config": None},
    "qpt": {"enabled": True, "assumed_assignment_fidelity": DEVICE_ASSIGNMENT_FIDELITY},
    "witness": {"enabled": True, "variants": ["raw", "left", "right"]},
    "pulse_scan": {
        "duration": DEVICE_GATE_TIME,
        "sample_counts": [8, 16, 32, 64, 128],
        "anharmonicity_hz": -200e6,
        "levels": 5,
        "drag_coefficient": -0.5,
    },
}


class ConfigError(ValueError):
    """Invalid configuration; ``path`` points at the offending field."""

    def __init__(self, message: str, path: str = "$"):
        self.path = path
        super().__init__(f"{path}: {message}")


def load_schema() -> dict:
    text = resources.files("rbtlab.data").joinpath("config.schema.json").read_text()
    return json.loads(text)


@lru_cache(maxsize=None)
def _schema() -> dict:
    """The schema, parsed once per process; the checker only reads it."""
    return load_schema()


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    # A JSON integer literal: 400.0 is a number but not an integer, since
    # the run uses these values as Python ints.
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
}


def _equal(a, b) -> bool:
    """JSON equality: ``true`` is not ``1``, and ``1`` equals ``1.0``."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    return a == b


# A backslash escape, a character class (a "]" first in it is literal), or
# a bare "$".
_PATTERN_TOKEN = re.compile(r"\\.|\[\^?\]?(?:\\.|[^\]\\])*\]|\$", re.DOTALL)


@lru_cache(maxsize=None)
def _ecma_regex(pattern: str) -> re.Pattern:
    """``pattern`` compiled with ECMA-262's ``$``, which JSON Schema uses: the
    end of input.  Python's ``$`` also matches before a final newline, so
    every bare ``$`` becomes ``\\Z``."""
    return re.compile(_PATTERN_TOKEN.sub(lambda m: r"\Z" if m.group() == "$" else m.group(), pattern))


# keyword: (the type of value it applies to, or None for any; the test a
# value fails; the message, formatted with the value v and the rule r).
_LEAF_KEYWORDS = {
    "type": (
        None,
        lambda r, v: not any(_TYPES[t](v) for t in ([r] if isinstance(r, str) else r)),
        "{v!r} is not of type {r!r}",
    ),
    "const": (None, lambda r, v: not _equal(v, r), "{v!r} is not {r!r}"),
    "enum": (None, lambda r, v: not any(_equal(v, x) for x in r), "{v!r} is not one of {r!r}"),
    "minimum": ("number", lambda r, v: v < r, "{v!r} is less than the minimum {r!r}"),
    "maximum": ("number", lambda r, v: v > r, "{v!r} is greater than the maximum {r!r}"),
    "exclusiveMinimum": ("number", lambda r, v: v <= r, "{v!r} is not greater than {r!r}"),
    "pattern": ("string", lambda r, v: not _ecma_regex(r).search(v), "{v!r} does not match {r!r}"),
    "minItems": ("array", lambda r, v: len(v) < r, "{v!r} has fewer than {r} items"),
    "maxItems": ("array", lambda r, v: len(v) > r, "{v!r} has more than {r} items"),
    "uniqueItems": (
        "array",
        lambda r, v: r and any(_equal(x, y) for k, x in enumerate(v) for y in v[:k]),
        "{v!r} has repeated items",
    ),
}
# The leaf keywords, the annotations $schema and title, which check nothing,
# and the keywords that _schema_errors handles itself.
_KEYWORDS = frozenset(_LEAF_KEYWORDS) | {
    "$schema", "title", "required", "properties", "additionalProperties", "propertyNames", "items",
    "oneOf",
}


def _schema_errors(schema: dict, value, path: tuple = ()):
    """Yield ``(path, message)`` for every rule of ``schema`` that ``value``
    breaks; a path is the tuple of keys and indexes down to the value, and a
    keyword applies only to the values of its type, as in JSON Schema."""
    for keyword, rule in schema.items():
        if keyword not in _KEYWORDS:
            raise NotImplementedError(f"schema keyword {keyword!r} is not implemented")
        if keyword in _LEAF_KEYWORDS:
            kind, fails, message = _LEAF_KEYWORDS[keyword]
            if (kind is None or _TYPES[kind](value)) and fails(rule, value):
                yield path, message.format(v=value, r=rule)
        elif keyword == "oneOf":
            matches = sum(not any(_schema_errors(sub, value, path)) for sub in rule)
            if matches != 1:
                yield path, f"{value!r} matches {matches} of {len(rule)} alternatives, not exactly one"
        elif keyword == "items" and isinstance(value, list):
            for k, item in enumerate(value):
                yield from _schema_errors(rule, item, path + (k,))
        elif not isinstance(value, dict):
            continue
        elif keyword == "required":
            missing = [key for key in rule if key not in value]
            if missing:
                yield path, f"missing required properties {missing!r}"
        elif keyword == "properties":
            for key, sub in rule.items():
                if key in value:
                    yield from _schema_errors(sub, value[key], path + (key,))
        elif keyword == "propertyNames":
            for key in value:
                yield from _schema_errors(rule, key, path)
        elif keyword == "additionalProperties":
            extra = [key for key in value if key not in schema.get("properties", {})]
            if rule is False and extra:
                yield path, f"unexpected properties {extra!r}"
            elif isinstance(rule, dict):
                for key in extra:
                    yield from _schema_errors(rule, value[key], path + (key,))


_IDENTIFIER = re.compile("^[a-zA-Z][a-zA-Z0-9_]*$")


def _json_path(path: tuple) -> str:
    """Spell a path as JSONPath, as jsonschema's ``json_path`` does:
    ``$.target.axis[1]``, and ``$.repeats['01']`` for a key that is not an
    identifier."""
    out = "$"
    for step in path:
        if isinstance(step, int):
            out += f"[{step}]"
        elif _IDENTIFIER.match(step):
            out += f".{step}"
        else:
            out += "['" + step.replace("\\", "\\\\").replace("'", "\\'") + "']"
    return out


def _non_finite(value, path: tuple = ()):
    """``(path, value)`` of the first non-finite number in a JSON-like
    value; None if there is none."""
    if isinstance(value, float):
        return None if math.isfinite(value) else (path, value)
    if isinstance(value, dict):
        children = [(path + (key,), item) for key, item in value.items()]
    elif isinstance(value, list):
        children = [(path + (k,), item) for k, item in enumerate(value)]
    else:
        return None
    for child_path, item in children:
        found = _non_finite(item, child_path)
        if found:
            return found
    return None


def _reject_constant(name: str):
    raise ConfigError(f"{name} is not a JSON number; numbers must be finite")


def _merge_defaults(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge_defaults(out[key], value)
        else:
            out[key] = value
    return out


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration with model-object accessors."""

    raw: dict

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError("configuration must be a JSON object")
        merged = _merge_defaults(DEFAULT_CONFIG, data)
        if "target" in data:
            # A gate name and an axis/angle rotation are alternatives, so a
            # given target replaces the default whole.
            merged["target"] = copy.deepcopy(data["target"])
        # NaN passes the schema's bounds, so non-finite numbers are refused first.
        bad = _non_finite(merged)
        if bad is not None:
            raise ConfigError(f"{bad[1]!r} is not a finite number", path=_json_path(bad[0]))
        # The error with the smallest path, the first of them on a tie.
        error = min(_schema_errors(_schema(), merged), key=lambda e: e[0], default=None)
        if error is not None:
            raise ConfigError(error[1], path=_json_path(error[0]))
        if merged["shots"] % merged["bin_size"]:
            raise ConfigError("shots must be divisible by bin_size", path="$.shots")
        if merged["witness"]["enabled"] and (merged["shots"] // merged["bin_size"]) % 2:
            # The witness splits every row's bins into two equal halves.
            raise ConfigError(
                "the witness needs an even number of bins per row (shots // bin_size)",
                path="$.bin_size",
            )
        if merged["noise"]["t2"] > 2 * merged["noise"]["t1"]:
            raise ConfigError("t2 must not exceed 2*t1", path="$.noise.t2")
        qpt = merged["qpt"]
        f = qpt["assumed_assignment_fidelity"]
        if qpt["enabled"] and f is not None and abs(2.0 * f - 1.0) < MIN_VISIBILITY:
            raise ConfigError(
                f"{f!r} leaves the readout no contrast to rescale by",
                path="$.qpt.assumed_assignment_fidelity",
            )
        if merged["pulse_scan"]["anharmonicity_hz"] == 0:
            # The DRAG correction divides by the anharmonicity.
            raise ConfigError("the anharmonicity must not be zero", path="$.pulse_scan.anharmonicity_hz")
        axis = merged["target"].get("axis")
        if axis is not None:
            # resolve_target divides the axis by this norm, which overflows
            # to inf for huge entries and underflows to 0 for tiny ones.
            with np.errstate(over="ignore"):
                norm = np.linalg.norm(np.asarray(axis, dtype=float))
            if not 0.0 < norm < np.inf:
                raise ConfigError("axis must have a finite, non-zero length", path="$.target.axis")
        return cls(raw=merged)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path) as f:
            try:
                data = json.load(f, parse_constant=_reject_constant)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"not valid JSON ({exc})") from exc
        return cls.from_dict(data)

    @property
    def seed(self) -> int:
        return self.raw["seed"]

    def target_spec(self):
        return self.raw["target"]

    def noise_model(self) -> NoiseModel:
        cfg = self.raw["noise"]
        if cfg["kind"] == "ideal":
            return NoiseModel.ideal()
        if cfg["kind"] == "depolarizing":
            return NoiseModel.depolarizing_model(cfg["depolarizing"], cfg["placement"])
        return NoiseModel.coherence_limited(
            cfg["t1"], cfg["t2"], cfg["gate_time"], cfg["placement"]
        )

    def spam_model(self) -> SpamModel:
        return SpamModel.with_assignment_error(self.raw["spam"]["assignment_fidelity"])

    def lengths(self) -> tuple:
        return tuple(self.raw["lengths"])

    def repeats(self) -> dict:
        return {math.inf if key == "inf" else int(key): n for key, n in self.raw["repeats"].items()}

    def canonical_json(self) -> str:
        return json.dumps(self.raw, sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]
