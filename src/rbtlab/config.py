"""Run configuration: a versioned JSON document validated against a schema.

Every report embeds the configuration hash, so artifacts are diffable and a
run is a pure function of (config, seed).  All defaults equal the modeled
experiment's values: 10,000 shots in bins of 100, sequence lengths 1, 2, 3
plus the infinite-length surrogate, and 2,000 bootstrap replications.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass
from importlib import resources

import jsonschema
import numpy as np

from .channels import (
    DEVICE_ASSIGNMENT_FIDELITY,
    DEVICE_GATE_TIME,
    DEVICE_T1,
    DEVICE_T2,
    NoiseModel,
    SpamModel,
)

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


def _non_finite(value, path: str = "$"):
    """``(path, value)`` of the first non-finite number in a JSON-like
    value, with the path spelled as in schema errors; None if there is none."""
    if isinstance(value, float):
        return None if math.isfinite(value) else (path, value)
    if isinstance(value, dict):
        children = [(f"{path}.{key}", item) for key, item in value.items()]
    elif isinstance(value, list):
        children = [(f"{path}[{k}]", item) for k, item in enumerate(value)]
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
            raise ConfigError(f"{bad[1]!r} is not a finite number", path=bad[0])
        validator = jsonschema.Draft202012Validator(load_schema())
        errors = sorted(validator.iter_errors(merged), key=lambda e: list(e.absolute_path))
        if errors:
            err = errors[0]
            raise ConfigError(err.message, path=err.json_path)
        if merged["shots"] % merged["bin_size"]:
            raise ConfigError("shots must be divisible by bin_size", path="$.shots")
        if merged["noise"]["t2"] > 2 * merged["noise"]["t1"]:
            raise ConfigError("t2 must not exceed 2*t1", path="$.noise.t2")
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
        return int(self.raw["seed"])

    def target_spec(self):
        return self.raw["target"]

    def noise_model(self) -> NoiseModel:
        cfg = self.raw["noise"]
        if cfg["kind"] == "ideal":
            return NoiseModel.ideal()
        if cfg["kind"] == "depolarizing":
            return NoiseModel.depolarizing_model(
                cfg["depolarizing"], cfg["gate_time"], cfg["placement"]
            )
        return NoiseModel.coherence_limited(
            cfg["t1"], cfg["t2"], cfg["gate_time"], cfg["placement"]
        )

    def spam_model(self) -> SpamModel:
        return SpamModel.with_assignment_error(self.raw["spam"]["assignment_fidelity"])

    def lengths(self) -> tuple:
        return tuple(int(n) for n in self.raw["lengths"])

    def repeats(self) -> dict:
        out = {}
        for key, value in self.raw["repeats"].items():
            out[math.inf if key == "inf" else int(key)] = int(value)
        return out

    def canonical_json(self) -> str:
        return json.dumps(self.raw, sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]
