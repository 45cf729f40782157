"""Experiment driver: subcommand dispatch, deterministic seeding, artifact emission.

Every run writes its artifacts (CSV time series, JSON reports) plus one
``manifest.json`` that echoes the full configuration, the tool version, wall
times, and a SHA-256 digest of every emitted file.  Data artifacts are byte
deterministic given (config, seed) and independent of ``--workers``;
the manifest's wall times are the only run-specific metadata.  Up to n_cut
5, ``malliavin`` sweeps each path on one BLAS thread, so there its artifacts
do not depend on the machine's thread count either; its paths run one after
another.

``main`` hands each subcommand one :class:`OutputDir`, which makes the
``--out`` directory on its first write: a run that ends before it has
anything to write (exit 2 on bad input, exit 3 on a blow-up) leaves no
directory behind.  A subcommand only computes and writes (``cmd_malliavin``
writes what ``malliavin_paths`` yields, path by path); it returns the config
echo of its manifest and its exit code, and ``main`` finalizes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig, parse_config
from .brackets import verification_sweep
from .diagnostics import (
    PATH_STREAM,
    Observable,
    clt_sample,
    exp_moment_ensemble,
    mixing_decay_estimate,
    time_average,
    trajectory_seed,
)
from .galerkin import (
    ModeBasis,
    SimulationError,
    SpectralState,
    simulate,
    unit_mode_state,
    zero_state,
)
from .lattice import MAGNETIC, make_mode
from .malliavin import ConeSpec, malliavin_paths
from .reachability import COORD_LIMIT, ForcedSet, check_hypothesis, generation_certificate

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_BLOWUP = 3

_encode = json.JSONEncoder(sort_keys=True).encode


# ---------------------------------------------------------------------------
# Artifact bookkeeping.
# ---------------------------------------------------------------------------

class OutputDir:
    """The artifacts of one run, and the clock of that run.

    The start time is taken when the object is made.  The directory is made
    by the first write, so a run that fails before it writes leaves none.
    ``artifacts`` maps each written file to the SHA-256 of its bytes.

    JSON: sorted keys, one line per top-level key and per object of a
    top-level list, each line compact from CPython's C encoder; non-finite
    numbers stay ``NaN`` tokens.  CSV: each cell is the ``repr`` of a number.
    """

    def __init__(self, path: str):
        self.path = Path(path)
        self.artifacts: dict[str, str] = {}
        self.started = time.time()

    def _write(self, name: str, text: str) -> None:
        data = text.encode("utf-8")
        self.path.mkdir(parents=True, exist_ok=True)
        (self.path / name).write_bytes(data)
        self.artifacts[name] = hashlib.sha256(data).hexdigest()

    def write_json(self, name: str, payload: dict) -> None:
        lines = []
        for key, value in sorted(payload.items()):
            records = isinstance(value, list) and value and all(isinstance(v, dict) for v in value)
            text = "[\n" + ",\n".join(map(_encode, value)) + "\n]" if records else _encode(value)
            lines.append(f"{_encode(key)}: {text}")
        self._write(name, "{\n" + ",\n".join(lines) + "\n}\n")

    def write_csv(self, name: str, header: list[str], rows) -> None:
        lines = [",".join(header)]
        lines.extend(",".join(map(repr, row)) for row in rows)
        self._write(name, "\n".join(lines) + "\n")

    def finalize(self, config_echo) -> None:
        """Write ``manifest.json``: config echo, version, wall times and digests."""
        self.write_json("manifest.json", {
            "tool": "torusmhd",
            "version": __version__,
            "config": config_echo,
            "started_at": self.started,
            "finished_at": time.time(),
            "artifacts": dict(self.artifacts),
        })


def _parse_vec_list(text: str) -> list[tuple[int, int]]:
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            a, b = map(int, chunk.split(","))
        except ValueError:
            raise ValueError(f"malformed wavevector {chunk!r}: expected 'a,b' "
                             "with integers a and b") from None
        out.append((a, b))
    if not out:
        raise ValueError(f"empty wavevector list {text!r}")
    return out


def _observable(cfg: ExperimentConfig) -> Observable:
    if cfg.analysis.observable is None:
        raise ConfigError(["analysis.observable is required by this subcommand"])
    return cfg.analysis.observable


def _state(basis: ModeBasis, entries) -> SpectralState:
    """The state of the (mode, amplitude) ``entries``; zero when there are none."""
    state = zero_state(basis)
    for mode, amplitude in entries:
        state.coeffs[basis.mode_index(mode)] = amplitude
    return state


def _load_config(args) -> tuple[ExperimentConfig, ModeBasis]:
    """The validated configuration of a subcommand, and the basis of its truncation."""
    overrides = {}
    for item in args.set or []:
        key, _, raw = item.partition("=")
        if not _:
            raise ConfigError([f"override {item!r} is not of the form key=value"])
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        overrides[key] = value
    if args.seed is not None:
        overrides["run.seed"] = args.seed
    if args.workers is not None:
        overrides["run.workers"] = args.workers
    cfg = parse_config(args.config, overrides)
    return cfg, ModeBasis(cfg.equation.n_cut, cfg.equation.grid)


def _config_command(compute):
    """A subcommand run from ``--config``: ``compute(cfg, basis, out)`` only computes
    and writes; its manifest echoes the parsed config document."""

    def run(args, out: OutputDir) -> tuple[dict, int]:
        cfg, basis = _load_config(args)
        compute(cfg, basis, out)
        return cfg.raw, EXIT_OK

    return run


# ---------------------------------------------------------------------------
# Subcommands.  Each takes (args, out) and returns (config echo, exit code).
# ---------------------------------------------------------------------------

def cmd_bracket(args, out: OutputDir) -> tuple[dict, int]:
    if args.kmax < 1:
        raise ConfigError([f"--kmax must be >= 1 (got {args.kmax})"])
    reports = verification_sweep(args.kmax)
    constants = [r.pinned_constant for r in reports
                 if r.selection_ok and np.isfinite(r.pinned_constant)]
    summary = {
        "kmax": args.kmax,
        "reports": len(reports),
        "all_selection_ok": all(r.selection_ok for r in reports),
        "abs_constant_mean": float(np.mean(np.abs(constants))) if constants else None,
        "abs_constant_spread": float(np.ptp(np.abs(constants))) if constants else None,
    }
    out.write_json("bracket_verify.json",
                   {"summary": summary, "reports": [r.to_dict() for r in reports]})
    print(json.dumps(summary, sort_keys=True, allow_nan=False))
    return {"kmax": args.kmax}, EXIT_OK if summary["all_selection_ok"] else EXIT_ERROR


def _reach_inputs(args) -> tuple[ForcedSet, list[tuple[int, int]]]:
    """The forced set and certificate targets, or a ConfigError listing every violation."""
    violations = []
    forced, targets = None, []
    try:
        forced = ForcedSet.from_wavevectors(_parse_vec_list(args.z0))
    except ValueError as exc:
        violations.append(f"--z0: {exc}")
    if args.certify:
        try:
            targets = _parse_vec_list(args.certify)
        except ValueError as exc:
            violations.append(f"--certify: {exc}")
        if (0, 0) in targets:
            violations.append("--certify: targets must be nonzero")
        if any(max(abs(a), abs(b)) >= COORD_LIMIT for a, b in targets):
            violations.append(f"--certify: target coordinates must be below {COORD_LIMIT}")
    if args.radius < 1:
        violations.append(f"--radius must be >= 1 (got {args.radius})")
    if args.max_depth is not None and args.max_depth < 1:
        violations.append(f"--max-depth must be >= 1 (got {args.max_depth})")
    if violations:
        raise ConfigError(violations)
    return forced, targets


def cmd_reach(args, out: OutputDir) -> tuple[dict, int]:
    forced, targets = _reach_inputs(args)
    report = check_hypothesis(forced, args.radius, args.max_depth)
    payload = {"z0": sorted(list(v) for v in forced.z0), "report": report.to_dict()}
    if targets:
        certs = []
        for target in targets:
            for parity in ("even", "odd"):
                cert = generation_certificate(forced, target, parity)
                certs.append(cert.to_dict())
        payload["certificates"] = certs
    out.write_json("reach_report.json", payload)
    print(json.dumps(report.to_dict(), sort_keys=True, allow_nan=False))
    return {"z0": args.z0, "radius": args.radius, "max_depth": args.max_depth}, EXIT_OK


@_config_command
def cmd_simulate(cfg: ExperimentConfig, basis: ModeBasis, out: OutputDir) -> None:
    modes = cfg.analysis.track_modes
    if modes is None:  # the forced modes
        modes = [make_mode(MAGNETIC, e.k, e.parity) for e in cfg.noise.entries]
    tracked = [(m, basis.mode_index(m)) for m in modes]
    rec = simulate(_state(basis, cfg.analysis.initial_state), cfg.equation, cfg.noise,
                   cfg.run.horizon, trajectory_seed(cfg.run.seed, PATH_STREAM),
                   snapshot_stride=cfg.run.snapshot_stride)
    header = ["time", "total_energy"] + [m.label() for m, _ in tracked]
    energy = (rec.states**2).sum(axis=1)
    columns = rec.states[:, [j for _, j in tracked]]
    out.write_csv("trajectory.csv", header,
                  np.column_stack([rec.times, energy, columns]).tolist())
    out.write_json("run_summary.json", {
        "final_time": float(rec.times[-1]),
        "final_energy": float(energy[-1]),
        "steps": rec.n_steps,
        "dim": basis.dim,
        "forcing_trace": cfg.noise.e0(),
    })


@_config_command
def cmd_malliavin(cfg: ExperimentConfig, basis: ModeBasis, out: OutputDir) -> None:
    analysis = cfg.analysis
    u0 = _state(basis, analysis.initial_state)
    cone = ConeSpec(alpha=analysis.cone_alpha, n=analysis.cone_n)
    probes = None
    if analysis.profile_modes:
        probes = np.array([unit_mode_state(basis, m).coeffs for m in analysis.profile_modes])

    per_path, spectra = [], []
    diag = profiles = None
    for p, probe in enumerate(malliavin_paths(
            u0, cfg.equation, cfg.noise, cfg.run.horizon, cfg.run.seed, analysis.paths, cone,
            samples=analysis.cone_samples, n_level=analysis.basis_level, probes=probes)):
        per_path.append(probe.cone.to_dict())
        spectra.append(probe.eigenvalues.tolist())
        if p == 0:
            mat = probe.matrix
            times, profiles = probe.record.times, mat.probe_profiles
            diag = {m.label(): float(v) for m, v in zip(mat.modes, np.diag(mat.gram))}
    out.write_json("malliavin_report.json", {
        "cone": {"alpha": cone.alpha, "n": cone.n, "samples": analysis.cone_samples},
        "paths": analysis.paths,
        "per_path": per_path,
        "eigenvalues": spectra,
        "diagonal_first_path": diag,
    })

    if profiles is not None:
        header = ["time"]
        for mode in analysis.profile_modes:
            for entry in cfg.noise.entries:
                header.append(f"<sigma[{entry.k[0]},{entry.k[1]}]^{entry.parity},"
                              f"K {mode.label()}>")
        flat = profiles.reshape(len(times), -1)  # probe-major, forced entry minor
        out.write_csv("response_profiles.csv", header, np.column_stack([times, flat]).tolist())


@_config_command
def cmd_lln(cfg: ExperimentConfig, basis: ModeBasis, out: OutputDir) -> None:
    obs = _observable(cfg)
    rec = simulate(_state(basis, cfg.analysis.initial_state), cfg.equation, cfg.noise,
                   cfg.run.horizon, trajectory_seed(cfg.run.seed, PATH_STREAM),
                   snapshot_stride=cfg.run.snapshot_stride)
    report = time_average(rec, obs, burn_in=cfg.analysis.burn_in)
    values = obs.of_states(basis, rec.states)
    out.write_csv("lln_timeseries.csv", ["time", "observable"],
                  np.column_stack([rec.times, values]).tolist())
    out.write_json("lln_report.json", report.to_dict())


@_config_command
def cmd_clt(cfg: ExperimentConfig, basis: ModeBasis, out: OutputDir) -> None:
    obs = _observable(cfg)
    analysis = cfg.analysis
    replicas = analysis.replicas or max(cfg.run.ensemble_size, 50)
    report = clt_sample(_state(basis, analysis.initial_state), cfg.equation, cfg.noise, obs,
                        cfg.run.horizon, replicas, cfg.run.seed,
                        pilot_horizon=analysis.pilot_horizon, burn_in=analysis.burn_in,
                        snapshot_stride=cfg.run.snapshot_stride)
    out.write_csv("clt_samples.csv", ["replica", "normalized_integral"],
                  [[i, v] for i, v in enumerate(report.samples.tolist())])
    payload = report.to_dict()
    payload.pop("samples")
    out.write_json("clt_report.json", payload)


@_config_command
def cmd_mix(cfg: ExperimentConfig, basis: ModeBasis, out: OutputDir) -> None:
    u0_a, u0_b = _state(basis, cfg.analysis.u0_a), _state(basis, cfg.analysis.u0_b)
    if np.array_equal(u0_a.coeffs, u0_b.coeffs):
        raise ConfigError(["mix requires distinct initial states u0_a and u0_b"])
    obs = _observable(cfg)
    replicas = cfg.analysis.replicas or max(cfg.run.ensemble_size, 100)
    report = mixing_decay_estimate(u0_a, u0_b, cfg.equation, cfg.noise, obs,
                                   cfg.run.horizon, replicas, cfg.run.seed,
                                   snapshot_stride=cfg.run.snapshot_stride)
    out.write_csv("mix_decay.csv", ["time", "abs_diff", "noise_floor"],
                  np.column_stack([report.times, report.abs_diff, report.noise_floor]).tolist())
    payload = report.to_dict()
    for key in ("times", "abs_diff", "noise_floor"):
        payload.pop(key)
    out.write_json("mix_report.json", payload)


@_config_command
def cmd_moment(cfg: ExperimentConfig, basis: ModeBasis, out: OutputDir) -> None:
    u0 = _state(basis, cfg.analysis.initial_state)
    eta = cfg.analysis.eta
    n_traj = cfg.run.ensemble_size
    probes = exp_moment_ensemble(u0, cfg.equation, cfg.noise, cfg.run.horizon, n_traj,
                                 cfg.run.seed, eta, snapshot_stride=cfg.run.snapshot_stride)
    times = probes[0].times
    logs = np.array([p.log_statistic for p in probes])
    # pathwise bound shape: C * exp(eta ||U0||^2 e^{-t}); fit C on the ensemble mean
    u0_sq = float(u0.coeffs @ u0.coeffs)
    with np.errstate(over="ignore", invalid="ignore"):
        envelope = np.exp(eta * u0_sq * np.exp(-(times - times[0])))
        mean_stat = np.exp(logs).mean(axis=0)
        c_fit = float(np.max(mean_stat / envelope))
    for name, value in (("ensemble mean", mean_stat), ("fitted prefactor", c_fit)):
        if not np.isfinite(value).all():
            raise RuntimeError(f"moment: the {name} of the statistic exp(log_statistic) "
                               f"is not finite at eta={eta:g}")
    header = ["time", "ensemble_mean"] + [f"traj{i}" for i in range(n_traj)]
    out.write_csv("moment_series.csv", header, np.column_stack([times, mean_stat, logs.T]).tolist())
    out.write_json("moment_report.json", {
        "eta": eta, "fitted_prefactor": c_fit,
        "trajectories": n_traj,
        "log_statistic_final_mean": float(logs[:, -1].mean()),
    })


# ---------------------------------------------------------------------------
# Parser and entry point.
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusmhd",
        description="Hypoelliptic machinery of stochastically forced fractional "
                    "MHD on the 2-torus: bracket verification, reachability, "
                    "simulation, Malliavin spectra, ergodic diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bracket", help="verify symbolic directions against quadrature")
    p.add_argument("action", choices=["verify"])
    p.add_argument("--kmax", type=int, default=3)
    p.add_argument("--out", default="out-bracket")
    p.set_defaults(func=cmd_bracket)

    p = sub.add_parser("reach", help="window-bounded spanning check of a forced set")
    p.add_argument("--z0", required=True,
                   help="semicolon-separated wavevectors, e.g. '0,1;1,1;1,0;1,2'")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--max-depth", type=int, default=None)
    p.add_argument("--certify", default=None,
                   help="optional targets to certify, same format as --z0")
    p.add_argument("--out", default="out-reach")
    p.set_defaults(func=cmd_reach)

    for name, fn in (("simulate", cmd_simulate), ("malliavin", cmd_malliavin),
                     ("lln", cmd_lln), ("clt", cmd_clt), ("mix", cmd_mix),
                     ("moment", cmd_moment)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=f"out-{name}")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--set", action="append", default=[],
                       help="dotted config override, e.g. --set run.T=2.0")
        p.set_defaults(func=fn)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = OutputDir(args.out)
    try:
        config_echo, code = args.func(args, out)
        out.finalize(config_echo)
        return code
    except ConfigError as exc:
        report = {"error": "config", "violations": exc.violations}
        code = EXIT_CONFIG
    except SimulationError as exc:
        # the norm of a finite state can itself overflow: strict JSON has no inf
        norm = exc.last_norm if np.isfinite(exc.last_norm) else None
        report = {"error": "blowup", "time": exc.time, "step": exc.step,
                  "replica": exc.replica, "last_finite_norm": norm}
        code = EXIT_BLOWUP
    except Exception as exc:  # stable machine-readable failure surface
        report = {"error": "runtime", "type": type(exc).__name__, "message": str(exc)}
        code = EXIT_ERROR
    print(json.dumps(report, allow_nan=False), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
