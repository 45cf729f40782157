"""Experiment configuration: JSON on disk, validated into solver objects.

Validation is typo-safe (unknown keys are rejected) and reports every
violation at once rather than stopping at the first.  Stochastic runs must
name their seed explicitly; there is no wall-clock fallback anywhere in the
package.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Optional

from .diagnostics import OBSERVABLE_KINDS
from .galerkin import EquationParams, NoiseSpec
from .lattice import COS, MAGNETIC, SIN, VELOCITY, is_canonical, norm_sq

#: The slot names that mode entries of the ``analysis`` section may use.
SLOTS = {"velocity": VELOCITY, "magnetic": MAGNETIC}


class ConfigError(ValueError):
    """Carries the full list of validation violations."""

    def __init__(self, violations: list[str]):
        super().__init__("invalid configuration:\n  - " + "\n  - ".join(violations))
        self.violations = violations


@dataclass
class RunParams:
    horizon: float
    seed: int
    snapshot_stride: int = 1
    ensemble_size: int = 1


@dataclass
class ExperimentConfig:
    equation: EquationParams
    noise: NoiseSpec
    run: RunParams
    analysis: dict[str, Any] = field(default_factory=dict)
    raw: dict[str, Any] = field(default_factory=dict)


_EQUATION_KEYS = {"alpha", "beta", "n_cut", "dt", "nonlinearity_enabled", "grid"}
_NOISE_KEYS = {"z0"}
_RUN_KEYS = {"T", "seed", "snapshot_stride", "ensemble_size", "workers"}
_TOP_KEYS = {"equation", "noise", "run", "analysis"}


def _is_int(v) -> bool:  # bool subclasses int, yet true is not a count
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    """A finite float, or an int that converts to one; NaN and infinity are no value."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


def _check_finite(node, where: str, errors: list[str]) -> None:
    """Report every NaN or infinite number inside a free-form section."""
    if isinstance(node, float) and not math.isfinite(node):
        errors.append(f"{where} must be a finite number (got {node})")
    elif isinstance(node, dict):
        for key, value in node.items():
            _check_finite(value, f"{where}.{key}", errors)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            _check_finite(value, f"{where}[{i}]", errors)


def _check_keys(section: dict, allowed: set, where: str, errors: list[str]) -> None:
    """Report every key of ``section`` outside ``allowed`` by its dotted path."""
    prefix = f"{where}." if where else ""
    errors += [f"unknown key {key!r} at {prefix}{key}" for key in section if key not in allowed]


def _check_mode_entry(entry, n_cut: Optional[int], where: str, errors: list, numbers=()):
    """A mode object {slot, k, parity, *numbers}, k canonical and inside the truncation."""
    if not isinstance(entry, dict):
        errors.append(f"{where} must be an object")
        return
    _check_keys(entry, {"slot", "k", "parity", *numbers}, where, errors)
    if entry.get("slot", "magnetic") not in SLOTS:
        errors.append(f"{where}.slot must be one of {sorted(SLOTS)}")
    parity = entry.get("parity", COS)
    if not _is_int(parity) or parity not in (COS, SIN):
        errors.append(f"{where}.parity must be {COS} (cos) or {SIN} (sin)")
    k = entry.get("k")
    if not isinstance(k, list) or len(k) != 2 or not all(_is_int(v) for v in k):
        errors.append(f"{where}.k must be a pair of integers")
    elif not is_canonical(k) or (n_cut is not None and norm_sq(k) > n_cut * n_cut):
        errors.append(f"{where}.k={k} must be a canonical wavevector (k1 > 0, or "
                      f"k1 = 0 and k2 > 0) inside the truncation n_cut={n_cut}")
    errors += [f"{where}.{key} must be a finite number" for key in numbers
               if not _is_number(entry.get(key, 1.0))]


def _check_whole_steps(where: str, horizon, dt, errors: list[str]) -> None:
    if _is_number(horizon) and _is_number(dt) and dt > 0 and horizon > 0:
        n = horizon / dt
        if not math.isfinite(n) or abs(n - round(n)) > 1e-9 * max(1.0, n):
            errors.append(f"{where}={horizon} is not a whole number of steps of dt={dt}")


#: The numeric ``analysis`` entries: the test each value must pass, and the rule it states.
_ANALYSIS_NUMBERS = {
    "paths": (lambda v: _is_int(v) and v >= 0, "a non-negative integer"),
    "cone_alpha": (lambda v: _is_number(v) and 0 < v <= 1, "a number in (0, 1]"),
    "cone_n": (lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    "cone_samples": (lambda v: _is_int(v) and v >= 0, "an integer >= 0"),
    "basis_level": (lambda v: v is None or _is_int(v) and v >= 1, "an integer >= 1"),
    "replicas": (lambda v: _is_int(v) and v >= 2, "an integer >= 2"),
    "eta": (lambda v: _is_number(v) and v > 0, "a positive number"),
    "burn_in": (lambda v: _is_number(v) and v >= 0, "a non-negative number"),
    "pilot_horizon": (lambda v: v is None or _is_number(v) and v > 0, "a positive number"),
}


#: The ``analysis`` entries that list mode objects.
_MODE_LISTS = ("initial_state", "u0_a", "u0_b", "track_modes", "profile_modes")
_ANALYSIS_KEYS = {*_ANALYSIS_NUMBERS, "observable", *_MODE_LISTS}


def _check_analysis(analysis: dict, n_cut: Optional[int], dt, errors: list[str]) -> None:
    """The keys, numbers, observable and mode lists of the ``analysis`` section."""
    _check_keys(analysis, _ANALYSIS_KEYS, "analysis", errors)
    for key, (valid, rule) in _ANALYSIS_NUMBERS.items():
        if key in analysis and not valid(analysis[key]):
            errors.append(f"analysis.{key} must be {rule} (got {analysis[key]!r})")
    _check_whole_steps("analysis.pilot_horizon", analysis.get("pilot_horizon"), dt, errors)
    obs = analysis.get("observable", {"kind": "total_energy"})
    kind = obs.get("kind", "mode_coefficient") if isinstance(obs, dict) else None
    if kind not in OBSERVABLE_KINDS:
        errors.append(f"analysis.observable must be an object, kind in {list(OBSERVABLE_KINDS)}")
    elif kind != "total_energy":
        _check_mode_entry({key: v for key, v in obs.items() if key != "kind"}, n_cut,
                          "analysis.observable", errors, ("scale",))
    for key in _MODE_LISTS:
        specs = analysis.get(key)
        if specs is not None and not isinstance(specs, list):  # null: the default
            errors.append(f"analysis.{key} must be a list of mode objects")
            continue
        numbers = () if key.endswith("modes") else ("amplitude",)
        for i, entry in enumerate(specs or []):
            _check_mode_entry(entry, n_cut, f"analysis.{key}[{i}]", errors, numbers)


def validate_config(doc: dict) -> ExperimentConfig:
    errors: list[str] = []
    if not isinstance(doc, dict):
        raise ConfigError(["top-level document must be an object"])
    _check_keys(doc, _TOP_KEYS, "", errors)

    eq = doc.get("equation")
    if not isinstance(eq, dict):
        errors.append("missing 'equation' section")
        eq = {}
    _check_keys(eq, _EQUATION_KEYS, "equation", errors)
    alpha = eq.get("alpha")
    beta = eq.get("beta")
    n_cut = eq.get("n_cut")
    dt = eq.get("dt")
    if not _is_number(alpha):
        errors.append("equation.alpha must be a finite number")
    elif alpha <= 1:
        errors.append(f"equation.alpha must exceed 1 (got {alpha})")
    if not _is_number(beta):
        errors.append("equation.beta must be a finite number")
    elif beta <= 1:
        errors.append(f"equation.beta must exceed 1 (got {beta})")
    if not _is_int(n_cut) or n_cut < 1:
        errors.append("equation.n_cut must be a positive integer")
    if not _is_number(dt) or dt <= 0:
        errors.append("equation.dt must be a positive finite number")
    grid = eq.get("grid")
    if grid is not None and (not _is_int(grid) or grid % 2 or
                             (_is_int(n_cut) and grid < 3 * n_cut + 1)):
        errors.append("equation.grid must be an even integer >= 3*n_cut + 1")
    nonlin = eq.get("nonlinearity_enabled", True)
    if not isinstance(nonlin, bool):
        errors.append("equation.nonlinearity_enabled must be a boolean")

    noise_doc = doc.get("noise")
    if not isinstance(noise_doc, dict):
        errors.append("missing 'noise' section")
        noise_doc = {}
    _check_keys(noise_doc, _NOISE_KEYS, "noise", errors)
    z0 = noise_doc.get("z0")
    amplitudes: dict[tuple, tuple[float, float]] = {}
    if not isinstance(z0, list) or not z0:
        errors.append("noise.z0 must be a nonempty list of forced-mode entries")
    else:
        for i, entry in enumerate(z0):
            where = f"noise.z0[{i}]"
            if not isinstance(entry, dict):
                errors.append(f"{where} must be an object")
                continue
            _check_keys(entry, {"k", "amplitudes"}, where, errors)
            k = entry.get("k")
            amps = entry.get("amplitudes", [1.0, 1.0])
            if (not isinstance(k, list) or len(k) != 2
                    or not all(_is_int(v) for v in k)):
                errors.append(f"{where}.k must be a pair of integers")
                continue
            k = (k[0], k[1])
            if k == (0, 0):
                errors.append(f"{where}.k must be nonzero")
                continue
            if (not isinstance(amps, list) or len(amps) != 2
                    or not all(_is_number(a) for a in amps)):
                errors.append(f"{where}.amplitudes must be a pair of finite numbers")
                continue
            if any(a == 0 for a in amps):
                errors.append(f"{where}: amplitudes must be non-zero")
                continue
            if _is_int(n_cut) and norm_sq(k) > n_cut * n_cut:
                errors.append(f"{where}: forced mode {list(k)} outside truncation "
                              f"n_cut={n_cut}")
                continue
            if k in amplitudes:
                errors.append(f"{where}: duplicate forced mode {list(k)}")
                continue
            amplitudes[k] = (float(amps[0]), float(amps[1]))
        if not math.isfinite(sum(a * a for pair in amplitudes.values() for a in pair)):
            errors.append("noise.z0: the sum of squared amplitudes must be finite")

    run_doc = doc.get("run")
    if not isinstance(run_doc, dict):
        errors.append("missing 'run' section")
        run_doc = {}
    _check_keys(run_doc, _RUN_KEYS, "run", errors)
    horizon = run_doc.get("T")
    seed = run_doc.get("seed")
    if not _is_number(horizon) or horizon <= 0:
        errors.append("run.T must be a positive finite number")
    if not _is_int(seed) or seed < 0:
        errors.append("run.seed must be present and a non-negative integer "
                      "(stochastic runs never default to wall-clock seeds)")
    stride = run_doc.get("snapshot_stride", 1)
    if not _is_int(stride) or stride < 1:
        errors.append("run.snapshot_stride must be a positive integer")
    ensemble = run_doc.get("ensemble_size", 1)
    if not _is_int(ensemble) or ensemble < 1:
        errors.append("run.ensemble_size must be a positive integer")
    workers = run_doc.get("workers", 1)  # validated for compatibility; nothing reads it
    if not _is_int(workers) or workers < 1:
        errors.append("run.workers must be a positive integer")
    _check_whole_steps("run.T", horizon, dt, errors)

    analysis = doc.get("analysis", {})
    if not isinstance(analysis, dict):
        errors.append("'analysis' must be an object")
        analysis = {}
    _check_finite(analysis, "analysis", errors)
    _check_analysis(analysis, n_cut if _is_int(n_cut) else None, dt, errors)

    if errors:
        raise ConfigError(errors)

    params = EquationParams(alpha=float(alpha), beta=float(beta), n_cut=n_cut,
                            dt=float(dt), nonlinearity_enabled=nonlin, grid=grid)
    noise = NoiseSpec.from_amplitudes(amplitudes)
    run = RunParams(horizon=float(horizon), seed=seed, snapshot_stride=stride,
                    ensemble_size=ensemble)
    return ExperimentConfig(equation=params, noise=noise, run=run,
                            analysis=analysis, raw=doc)


def parse_config(path: str, overrides: Optional[dict[str, Any]] = None) -> ExperimentConfig:
    """Load, override, and validate a JSON experiment configuration."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"not valid JSON: {exc}"]) from exc
    if overrides:
        doc = apply_overrides(doc, overrides)
    return validate_config(doc)


def apply_overrides(doc: dict, overrides: dict[str, Any]) -> dict:
    """Apply dotted-path overrides such as {'run.seed': 7} to a config document."""
    doc = json.loads(json.dumps(doc))  # deep copy
    for dotted, value in overrides.items():
        *parents, key = dotted.split(".")
        cursor = doc
        for p in parents:
            cursor = cursor.setdefault(p, {}) if isinstance(cursor, dict) else None
        if not isinstance(cursor, dict):
            raise ConfigError([f"override {dotted!r} does not name a key inside an object"])
        cursor[key] = value
    return doc


def example_hypoelliptic_config(seed: int = 1234) -> dict:
    """The four-mode magnetic forcing set that spans both parity chains."""
    return {
        "equation": {"alpha": 1.5, "beta": 1.5, "n_cut": 4, "dt": 1e-3,
                     "nonlinearity_enabled": True},
        "noise": {"z0": [
            {"k": [0, 1], "amplitudes": [1.0, 1.0]},
            {"k": [1, 1], "amplitudes": [1.0, 1.0]},
            {"k": [1, 0], "amplitudes": [1.0, 1.0]},
            {"k": [1, 2], "amplitudes": [1.0, 1.0]},
        ]},
        "run": {"T": 1.0, "seed": seed, "snapshot_stride": 1},
        "analysis": {},
    }
