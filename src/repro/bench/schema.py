"""The single machine-readable result schema all suites share.

Every suite emits the same envelope, so any run can be compared with
any earlier one::

    {
      "schema_version": 1,
      "suite": "service",
      "preset": "small",
      "host": { ... host_manifest() ... },
      "runner": { ... RunnerConfig ... },
      "benchmarks": [ { ... BenchmarkResult.as_dict() ... }, ... ],
      "errors": { "<bench name>": "<exception text>", ... }
    }

and :func:`validate_payload` enforces it — both in the test suite and
defensively whenever a baseline is loaded, so a hand-edited or
truncated baseline fails loudly instead of producing a nonsense
verdict.  Validation is a plain-python structural walk (no jsonschema
dependency).

``errors`` holds the benchmarks whose payload raised; they have no
entry in ``benchmarks`` (which may then be empty) and gate as
``error``.  Files written before it existed lack the key.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

from ..reporting import results_dir, save_json
from .runner import BenchmarkResult, RunnerConfig, host_manifest

__all__ = [
    "SCHEMA_VERSION",
    "SchemaError",
    "result_path",
    "build_payload",
    "write_suite_result",
    "load_suite_result",
    "validate_payload",
]

SCHEMA_VERSION = 1

_HOST_KEYS = ("platform", "machine", "python_version", "cpu_count",
              "cpu_affinity", "clock")
_RUNNER_KEYS = ("target_time_s", "samples", "warmup", "disable_gc")
_BENCH_KEYS: Dict[str, type] = {
    "name": str,
    "suite": str,
    "tags": list,
    "params": dict,
    "ops_per_call": int,
    "inner_repeats": int,
    "warmup_calls": int,
    "samples_s_per_call": list,
    "min_s_per_call": float,
    "mean_s_per_call": float,
    "median_s_per_call": float,
    "ci95_s_per_call": list,
    "ops_per_second": float,
    "metrics": dict,
    "band_violations": list,
}


class SchemaError(ValueError):
    """A result payload does not conform to the shared schema."""


def result_path(suite: str, base_dir: Optional[str] = None) -> str:
    """Canonical path of a suite's result file."""
    return os.path.join(base_dir or results_dir(), f"BENCH_{suite}.json")


def build_payload(suite: str, preset: str, results: List[BenchmarkResult],
                  config: RunnerConfig,
                  errors: Optional[Dict[str, str]] = None) -> Dict[str, Any]:
    """Assemble the shared result envelope for one suite run.

    *errors* maps each benchmark that raised to its exception text.
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": suite,
        "preset": preset,
        "host": host_manifest(),
        "runner": config.as_dict(),
        "benchmarks": [r.as_dict(seed=config.seed + i)
                       for i, r in enumerate(results)],
        "errors": dict(errors or {}),
    }


def write_suite_result(payload: Dict[str, Any],
                       base_dir: Optional[str] = None) -> str:
    """Validate and write a suite payload to ``BENCH_<suite>.json``."""
    validate_payload(payload)
    name = f"BENCH_{payload['suite']}.json"
    if base_dir is None:
        return save_json(name, payload)
    os.makedirs(base_dir, exist_ok=True)
    path = os.path.join(base_dir, name)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def load_suite_result(path: str) -> Dict[str, Any]:
    """Load and validate a result/baseline file."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            payload = json.load(f)
    except FileNotFoundError:
        raise
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"{path}: unreadable result file: {exc}")
    try:
        validate_payload(payload)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}")
    return payload


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise SchemaError(msg)


def _is_number(x: Any) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def validate_payload(payload: Any) -> None:
    """Structurally validate a suite result envelope.

    Raises :class:`SchemaError` with a path-qualified message on the
    first violation.
    """
    _expect(isinstance(payload, dict), "payload must be an object")
    _expect(payload.get("schema_version") == SCHEMA_VERSION,
            f"schema_version must be {SCHEMA_VERSION}, "
            f"got {payload.get('schema_version')!r}")
    _expect(isinstance(payload.get("suite"), str) and payload["suite"],
            "suite must be a non-empty string")
    _expect(isinstance(payload.get("preset"), str),
            "preset must be a string")

    host = payload.get("host")
    _expect(isinstance(host, dict), "host manifest missing")
    for key in _HOST_KEYS:
        _expect(key in host, f"host manifest missing {key!r}")
    _expect(isinstance(host["clock"], dict)
            and "resolution_s" in host["clock"]
            and "monotonic" in host["clock"],
            "host.clock must record resolution_s and monotonic")

    runner = payload.get("runner")
    _expect(isinstance(runner, dict), "runner config missing")
    for key in _RUNNER_KEYS:
        _expect(key in runner, f"runner config missing {key!r}")

    errors = payload.get("errors", {})
    _expect(isinstance(errors, dict)
            and all(isinstance(k, str) and isinstance(v, str)
                    for k, v in errors.items()),
            "errors must map benchmark names to exception text")
    benches = payload.get("benchmarks")
    _expect(isinstance(benches, list) and (benches or errors),
            "benchmarks must be a non-empty list")
    seen = set(errors)
    for i, b in enumerate(benches):
        where = f"benchmarks[{i}]"
        _expect(isinstance(b, dict), f"{where} must be an object")
        for key, kind in _BENCH_KEYS.items():
            _expect(key in b, f"{where} missing {key!r}")
            if kind is float:
                _expect(_is_number(b[key]),
                        f"{where}.{key} must be a number")
            elif kind is int:
                _expect(isinstance(b[key], int)
                        and not isinstance(b[key], bool),
                        f"{where}.{key} must be an integer")
            else:
                _expect(isinstance(b[key], kind),
                        f"{where}.{key} must be {kind.__name__}")
        _expect(b["suite"] == payload["suite"],
                f"{where}.suite {b['suite']!r} != envelope suite "
                f"{payload['suite']!r}")
        _expect(b["name"] not in seen, f"{where}: duplicate name "
                                       f"{b['name']!r}")
        seen.add(b["name"])
        samples = b["samples_s_per_call"]
        _expect(len(samples) >= 1 and all(_is_number(s) and s >= 0
                                          for s in samples),
                f"{where}.samples_s_per_call must be non-negative numbers")
        ci = b["ci95_s_per_call"]
        _expect(len(ci) == 2 and all(_is_number(c) for c in ci)
                and ci[0] <= ci[1],
                f"{where}.ci95_s_per_call must be [lo, hi] with lo <= hi")
        _expect(b["ops_per_call"] >= 1, f"{where}.ops_per_call must be >= 1")
        _expect(b["inner_repeats"] >= 1,
                f"{where}.inner_repeats must be >= 1")
        _expect(b["min_s_per_call"] <= b["median_s_per_call"]
                <= max(samples) + 1e-12,
                f"{where}: min/median/samples inconsistent")
