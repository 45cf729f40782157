"""Experiment configuration: JSON on disk, validated into typed solver objects.

This module is the one owner of what a config key means and of its default:
each section, and each kind of mode object, has one table of rules that one
loop checks.  Validation is typo-safe (unknown keys are rejected) and reports
every violation at once under its dotted key.  Stochastic runs must name their
seed explicitly; there is no wall-clock fallback anywhere in the package.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Optional

from .diagnostics import OBSERVABLE_KINDS, Observable
from .galerkin import SEED_BOUND, EquationParams, NoiseSpec, snapshot_steps
from .lattice import COS, SIN, SLOT_NAMES, Mode, is_canonical, make_mode, norm_sq


class ConfigError(ValueError):
    """Carries the full list of validation violations."""

    def __init__(self, violations: list[str]):
        super().__init__("invalid configuration:\n  - " + "\n  - ".join(violations))
        self.violations = violations


@dataclass
class RunParams:
    horizon: float
    seed: int
    snapshot_stride: int
    ensemble_size: int


@dataclass(frozen=True)
class Analysis:
    """The ``analysis`` section, typed; ``_ANALYSIS`` holds each key's rule and default.

    A state list holds (mode, amplitude) pairs.  A None leaves the choice to the
    reader: ``track_modes`` None means the forced modes, unlike an empty list.
    """

    paths: int
    cone_alpha: float
    cone_n: int
    cone_samples: int
    basis_level: Optional[int]
    replicas: Optional[int]
    eta: float
    burn_in: float
    pilot_horizon: Optional[float]
    observable: Optional[Observable]
    initial_state: tuple[tuple[Mode, float], ...]
    u0_a: tuple[tuple[Mode, float], ...]
    u0_b: tuple[tuple[Mode, float], ...]
    track_modes: Optional[tuple[Mode, ...]]
    profile_modes: tuple[Mode, ...]


@dataclass
class ExperimentConfig:
    equation: EquationParams
    noise: NoiseSpec
    run: RunParams
    analysis: Analysis
    raw: dict[str, Any]


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


def _is_wavevector(v) -> bool:
    return isinstance(v, list) and len(v) == 2 and all(_is_int(x) for x in v)


#: The default of a key that must be present.
_REQUIRED = object()

# A table maps each key to (test, rule, default): the test a present value must
# pass, the rule it states after "must", and the value of an absent key.  A float
# default makes a present value a float.

_EQUATION = {
    "alpha": (lambda v: _is_number(v) and v > 1, "exceed 1", _REQUIRED),
    "beta": (lambda v: _is_number(v) and v > 1, "exceed 1", _REQUIRED),
    "n_cut": (lambda v: _is_int(v) and v >= 1, "be a positive integer", _REQUIRED),
    "dt": (lambda v: _is_number(v) and v > 0, "be a positive finite number", _REQUIRED),
    "nonlinearity_enabled": (lambda v: isinstance(v, bool), "be a boolean", True),
    "grid": (lambda v: v is None or _is_int(v) and v % 2 == 0, "be an even integer", None),
}

_RUN = {
    "T": (lambda v: _is_number(v) and v > 0, "be a positive finite number", _REQUIRED),
    "seed": (lambda v: _is_int(v) and 0 <= v < SEED_BOUND,
             "be an integer in [0, 2**32); stochastic runs have no wall-clock default",
             _REQUIRED),
    "snapshot_stride": (lambda v: _is_int(v) and v >= 1, "be a positive integer", 1),
    "ensemble_size": (lambda v: _is_int(v) and v >= 1, "be a positive integer", 1),
    # validated for compatibility; nothing reads it
    "workers": (lambda v: _is_int(v) and v >= 1, "be a positive integer", 1),
}

#: The ``analysis`` entries that list mode objects; null stands for the default.
_MODE_LISTS = ("initial_state", "u0_a", "u0_b", "track_modes", "profile_modes")

_ANALYSIS = {
    "paths": (lambda v: _is_int(v) and v >= 0, "be a non-negative integer", 1),
    "cone_alpha": (lambda v: _is_number(v) and 0 < v <= 1, "be a number in (0, 1]", 0.5),
    "cone_n": (lambda v: _is_int(v) and v >= 1, "be an integer >= 1", 1),
    "cone_samples": (lambda v: _is_int(v) and v >= 0, "be an integer >= 0", 200),
    "basis_level": (lambda v: v is None or _is_int(v) and v >= 1, "be an integer >= 1", None),
    "replicas": (lambda v: _is_int(v) and v >= 2, "be an integer >= 2", None),
    "eta": (lambda v: _is_number(v) and v > 0, "be a positive number", 0.01),
    "burn_in": (lambda v: _is_number(v) and v >= 0, "be a non-negative number", 0.0),
    "pilot_horizon": (lambda v: v is None or _is_number(v) and v > 0, "be a positive number",
                      None),
    "observable": (lambda v: isinstance(v, dict), "be an object", None),
    **{key: (lambda v: v is None or isinstance(v, list), "be a list of mode objects", None)
       for key in _MODE_LISTS},
}

_SLOTS = {name: slot for slot, name in SLOT_NAMES.items()}

#: A mode object; its k is checked against the truncation by ``_read_mode``.
_MODE = {
    "slot": (lambda v: isinstance(v, str) and v in _SLOTS, f"be one of {sorted(_SLOTS)}",
             "magnetic"),
    "k": (lambda v: _is_wavevector(v) and is_canonical(v), "be a canonical wavevector "
          "[k1, k2] of integers (k1 > 0, or k1 = 0 and k2 > 0)", _REQUIRED),
    "parity": (lambda v: _is_int(v) and v in (COS, SIN), f"be {COS} (cos) or {SIN} (sin)", COS),
}
_STATE_ENTRY = {**_MODE, "amplitude": (_is_number, "be a finite number", 1.0)}
_OBSERVABLE = {
    "kind": (lambda v: v in OBSERVABLE_KINDS, f"be one of {list(OBSERVABLE_KINDS)}",
             "mode_coefficient"),
    **_MODE,
    "scale": (_is_number, "be a finite number", 1.0),
}

_NOISE = {"z0": (lambda v: isinstance(v, list) and len(v) > 0,
                 "be a nonempty list of forced-mode objects", _REQUIRED)}
_FORCED_MODE = {
    "k": (lambda v: _is_wavevector(v) and v != [0, 0], "be a nonzero pair of integers",
          _REQUIRED),
    "amplitudes": (lambda v: isinstance(v, list) and len(v) == 2
                   and all(_is_number(a) and a != 0 for a in v),
                   "be a pair of finite non-zero numbers", [1.0, 1.0]),
}

#: The sections read by a table; ``noise`` is read by ``_read_noise``.
SECTIONS = {"equation": _EQUATION, "run": _RUN, "analysis": _ANALYSIS}


def _read(obj, table: dict, where: str, errors: list[str]) -> dict:
    """The keys of ``table`` read from the object ``obj``, each absent one at its default.

    Every unknown key and every value that fails its test is reported under
    its dotted key and left out of the result.
    """
    if not isinstance(obj, dict):
        errors.append(f"{where} must be an object")
        return {}
    errors += [f"unknown key {key!r} at {where}.{key}" for key in obj if key not in table]
    values = {}
    for key, (valid, rule, default) in table.items():
        if key not in obj:
            if default is _REQUIRED:
                errors.append(f"{where}.{key} must {rule} (missing)")
            else:
                values[key] = default
        elif valid(obj[key]):
            values[key] = float(obj[key]) if isinstance(default, float) else obj[key]
        else:
            errors.append(f"{where}.{key} must {rule} (got {obj[key]!r})")
    return values


def _read_mode(obj, table: dict, where: str, n_cut: Optional[int], errors: list[str]) -> dict:
    """A mode object read by ``table``; if it breaks no rule and its k lies inside
    the truncation, its :class:`Mode` is added under ``"mode"``."""
    known = len(errors)
    values = _read(obj, table, where, errors)
    k = values.get("k")
    if k is not None and n_cut is not None and norm_sq(k) > n_cut * n_cut:
        errors.append(f"{where}.k={k} must lie inside the truncation n_cut={n_cut}")
    if len(errors) == known:
        values["mode"] = make_mode(_SLOTS[values["slot"]], tuple(k), values["parity"])
    return values


def _read_noise(section, n_cut: Optional[int], errors: list[str]) -> dict:
    """The forced modes of ``noise.z0``, each once and inside the truncation, with
    their (cos, sin) amplitudes."""
    z0 = _read(section, _NOISE, "noise", errors).get("z0", [])
    amplitudes: dict[tuple, tuple[float, float]] = {}
    for i, entry in enumerate(z0):
        where = f"noise.z0[{i}]"
        values = _read(entry, _FORCED_MODE, where, errors)
        if len(values) < len(_FORCED_MODE):
            continue
        k = tuple(values["k"])
        if n_cut is not None and norm_sq(k) > n_cut * n_cut:
            errors.append(f"{where}: forced mode {list(k)} outside truncation n_cut={n_cut}")
        elif k in amplitudes:
            errors.append(f"{where}: duplicate forced mode {list(k)}")
        else:
            amplitudes[k] = tuple(float(a) for a in values["amplitudes"])
    if not math.isfinite(sum(a * a for pair in amplitudes.values() for a in pair)):
        errors.append("noise.z0: the sum of squared amplitudes must be finite")
    return amplitudes


def _read_analysis(section, n_cut: Optional[int], errors: list[str]) -> dict:
    """The ``analysis`` section by its table, each mode object typed by its own."""
    values = _read(section, _ANALYSIS, "analysis", errors)
    for key in _MODE_LISTS:
        if key == "track_modes" and values.get(key) is None:
            continue  # the forced modes, which an empty list is not
        table = _MODE if key.endswith("modes") else _STATE_ENTRY
        entries = [_read_mode(entry, table, f"analysis.{key}[{i}]", n_cut, errors)
                   for i, entry in enumerate(values.get(key) or [])]
        values[key] = tuple(e["mode"] if table is _MODE else (e["mode"], e["amplitude"])
                            for e in entries if "mode" in e)
    obs = values.get("observable")
    if obs is not None and obs.get("kind") == "total_energy":  # a total needs no mode
        values["observable"] = Observable("total_energy")
    elif obs is not None:
        obs = _read_mode(obs, _OBSERVABLE, "analysis.observable", n_cut, errors)
        values["observable"] = (Observable(obs["kind"], obs["mode"], obs["scale"])
                                if "mode" in obs else None)
    return values


def _check_horizon(where: str, horizon, dt, stride, burn_in, errors: list[str]) -> None:
    """A horizon is a whole number of steps of ``dt``, and at least two of its
    snapshots (the last two, as times increase) lie at times >= burn_in, the
    window ``time_average`` averages over."""
    if horizon is None or dt is None:
        return
    n = horizon / dt
    if not math.isfinite(n) or round(n) < 1 or abs(n - round(n)) > 1e-9 * max(1.0, n):
        errors.append(f"{where}={horizon} must be a positive whole number of steps of dt={dt}")
    elif None not in (stride, burn_in) and (
            dt * snapshot_steps(round(n), stride)[-2] < burn_in - 1e-12):
        errors.append(f"analysis.burn_in must leave two snapshots of {where}={horizon} "
                      f"(snapshot_stride={stride}) at times >= {burn_in}")


def validate_config(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError(["top-level document must be an object"])
    errors = [f"unknown key {key!r} at {key}" for key in doc if key not in {*SECTIONS, "noise"}]
    eq = _read(doc.get("equation"), _EQUATION, "equation", errors)
    n_cut, dt, grid = eq.get("n_cut"), eq.get("dt"), eq.get("grid")
    if grid is not None and n_cut is not None and grid < 3 * n_cut + 1:
        errors.append(f"equation.grid={grid} must be at least 3*n_cut + 1 = {3 * n_cut + 1}")
    amplitudes = _read_noise(doc.get("noise"), n_cut, errors)
    run = _read(doc.get("run"), _RUN, "run", errors)
    analysis = _read_analysis(doc.get("analysis", {}), n_cut, errors)

    burn_in, stride = analysis.get("burn_in"), run.get("snapshot_stride")
    _check_horizon("run.T", run.get("T"), dt, stride, burn_in, errors)
    pilot = analysis.get("pilot_horizon")  # clt's pilot run caps its burn-in at half of it
    _check_horizon("analysis.pilot_horizon", pilot, dt, stride,
                   None if None in (pilot, burn_in) else min(burn_in, 0.5 * pilot), errors)

    if errors:
        raise ConfigError(errors)

    params = EquationParams(alpha=float(eq["alpha"]), beta=float(eq["beta"]), n_cut=n_cut,
                            dt=float(dt), nonlinearity_enabled=eq["nonlinearity_enabled"],
                            grid=grid)
    run_params = RunParams(horizon=float(run["T"]), seed=run["seed"],
                           snapshot_stride=stride, ensemble_size=run["ensemble_size"])
    return ExperimentConfig(equation=params, noise=NoiseSpec.from_amplitudes(amplitudes),
                            run=run_params, analysis=Analysis(**analysis), raw=doc)


def parse_config(path: str, overrides: Optional[dict[str, Any]] = None) -> ExperimentConfig:
    """Load, override, and validate a JSON experiment configuration."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"not valid JSON: {exc}"]) from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"--config {path!r} cannot be read: {exc}"]) from exc
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
