"""Experiment driver: subcommand dispatch, deterministic seeding, artifact emission.

Every run writes its artifacts (CSV time series, JSON reports) plus one
``manifest.json`` that echoes the full configuration, the tool version, wall
times, and a SHA-256 digest of every emitted file.  Data artifacts are byte
deterministic given (config, seed) and independent of ``--workers``;
the manifest's wall times are the only run-specific metadata.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .config import SLOTS, ConfigError, ExperimentConfig, parse_config
from .brackets import verification_sweep
from .diagnostics import (
    Observable,
    clt_sample,
    cone_seed,
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
from .lattice import COS, MAGNETIC, make_mode
from .malliavin import (
    ConeSpec,
    FrozenPath,
    assemble_malliavin,
    cone_infimum,
)
from .reachability import ForcedSet, check_hypothesis, generation_certificate

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_BLOWUP = 3


# ---------------------------------------------------------------------------
# Artifact bookkeeping.
# ---------------------------------------------------------------------------

@dataclass
class OutputDir:
    path: Path
    artifacts: list[str]

    @classmethod
    def create(cls, path: str) -> "OutputDir":
        p = Path(path)
        p.mkdir(parents=True, exist_ok=True)
        return cls(path=p, artifacts=[])

    def write_json(self, name: str, payload) -> None:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        (self.path / name).write_text(text, encoding="utf-8")
        self.artifacts.append(name)

    def write_csv(self, name: str, header: list[str], rows) -> None:
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_cell(v) for v in row))
        (self.path / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.artifacts.append(name)

    def finalize(self, config_echo, started: float) -> None:
        digests = {}
        for name in sorted(self.artifacts):
            digests[name] = hashlib.sha256((self.path / name).read_bytes()).hexdigest()
        manifest = {
            "tool": "torusmhd",
            "version": __version__,
            "config": config_echo,
            "started_at": started,
            "finished_at": time.time(),
            "artifacts": digests,
        }
        (self.path / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


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


def _observable_from_spec(spec: dict, basis: ModeBasis) -> Observable:
    kind = spec.get("kind", "mode_coefficient")
    if kind == "total_energy":
        return Observable(kind="total_energy")
    slot = SLOTS[spec.get("slot", "magnetic")]
    k = tuple(spec["k"])
    parity = int(spec.get("parity", COS))
    mode = make_mode(slot, k, parity)
    basis.mode_index(mode)  # validates membership in the truncation
    return Observable(kind=kind, mode=mode, scale=float(spec.get("scale", 1.0)))


def _state_from_spec(entries, basis: ModeBasis) -> SpectralState:
    state = zero_state(basis)
    for entry in entries or []:
        slot = SLOTS[entry.get("slot", "magnetic")]
        mode = make_mode(slot, tuple(entry["k"]), int(entry.get("parity", COS)))
        state.coeffs[basis.mode_index(mode)] = float(entry.get("amplitude", 1.0))
    return state


def _load_config(args) -> ExperimentConfig:
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
    if getattr(args, "workers", None) is not None:
        overrides["run.workers"] = args.workers
    return parse_config(args.config, overrides)


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def cmd_bracket(args) -> int:
    started = time.time()
    if args.kmax < 1:
        raise ConfigError([f"--kmax must be >= 1 (got {args.kmax})"])
    out = OutputDir.create(args.out)
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
    out.finalize({"kmax": args.kmax}, started)
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK if summary["all_selection_ok"] else EXIT_ERROR


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
    if args.radius < 1:
        violations.append(f"--radius must be >= 1 (got {args.radius})")
    if args.max_depth is not None and args.max_depth < 1:
        violations.append(f"--max-depth must be >= 1 (got {args.max_depth})")
    if violations:
        raise ConfigError(violations)
    return forced, targets


def cmd_reach(args) -> int:
    started = time.time()
    forced, targets = _reach_inputs(args)
    out = OutputDir.create(args.out)
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
    out.finalize({"z0": args.z0, "radius": args.radius,
                  "max_depth": args.max_depth}, started)
    print(json.dumps(report.to_dict(), sort_keys=True))
    return EXIT_OK


def _tracked_modes(cfg: ExperimentConfig, basis: ModeBasis):
    specs = cfg.analysis.get("track_modes")
    if specs is None:
        modes = [make_mode(MAGNETIC, e.k, e.parity) for e in cfg.noise.entries]
    else:
        modes = []
        for spec in specs:
            slot = SLOTS[spec.get("slot", "magnetic")]
            modes.append(make_mode(slot, tuple(spec["k"]), int(spec.get("parity", COS))))
    return [(m, basis.mode_index(m)) for m in modes]


def cmd_simulate(args) -> int:
    started = time.time()
    cfg = _load_config(args)
    basis = ModeBasis(cfg.equation.n_cut, cfg.equation.grid)
    u0 = _state_from_spec(cfg.analysis.get("initial_state"), basis)
    tracked = _tracked_modes(cfg, basis)
    out = OutputDir.create(args.out)
    rec = simulate(u0, cfg.equation, cfg.noise, cfg.run.horizon, cfg.run.seed,
                   snapshot_stride=cfg.run.snapshot_stride)
    header = ["time", "total_energy"] + [m.label() for m, _ in tracked]
    energy = (rec.states**2).sum(axis=1)
    rows = [
        [float(rec.times[i]), float(energy[i])] + [float(rec.states[i, j]) for _, j in tracked]
        for i in range(len(rec.times))
    ]
    out.write_csv("trajectory.csv", header, rows)
    out.write_json("run_summary.json", {
        "final_time": float(rec.times[-1]),
        "final_energy": float(energy[-1]),
        "steps": rec.n_steps,
        "dim": basis.dim,
        "forcing_trace": cfg.noise.e0(),
    })
    out.finalize(cfg.raw, started)
    return EXIT_OK


def cmd_malliavin(args) -> int:
    started = time.time()
    cfg = _load_config(args)
    basis = ModeBasis(cfg.equation.n_cut, cfg.equation.grid)
    u0 = _state_from_spec(cfg.analysis.get("initial_state"), basis)
    analysis = cfg.analysis
    cone = ConeSpec(alpha=float(analysis.get("cone_alpha", 0.5)),
                    n=analysis.get("cone_n", 1))
    n_paths = analysis.get("paths", 1)
    samples = analysis.get("cone_samples", 200)
    level = analysis.get("basis_level")
    profile_modes = [make_mode(SLOTS[spec.get("slot", "magnetic")], tuple(spec["k"]),
                               spec.get("parity", COS))
                     for spec in analysis.get("profile_modes", [])]
    probes = None
    if profile_modes:
        probes = np.array([unit_mode_state(basis, m).coeffs for m in profile_modes])
    out = OutputDir.create(args.out)

    per_path = []
    spectra = []
    diag = profiles = None
    for p in range(n_paths):
        rec = simulate(u0, cfg.equation, cfg.noise, cfg.run.horizon,
                       trajectory_seed(cfg.run.seed, p), snapshot_stride=1)
        # path 0 carries the profile probes through the same backward sweep
        mat = assemble_malliavin(FrozenPath(rec), cfg.noise, n_level=level,
                                 probes=probes if p == 0 else None)
        report = cone_infimum(mat, cone, samples=samples, seed=cone_seed(cfg.run.seed, p))
        eigs = mat.eigenvalues()
        spectra.append(eigs.tolist())
        if p == 0:
            times = rec.times
            profiles = mat.probe_profiles
            diag = {m.label(): float(v) for m, v in zip(mat.modes, np.diag(mat.gram))}
        per_path.append(report.to_dict())
    out.write_json("malliavin_report.json", {
        "cone": {"alpha": cone.alpha, "n": cone.n, "samples": samples},
        "paths": n_paths,
        "per_path": per_path,
        "eigenvalues": spectra,
        "diagonal_first_path": diag,
    })

    if profiles is not None:
        header = ["time"]
        for mode in profile_modes:
            for entry in cfg.noise.entries:
                header.append(f"<sigma[{entry.k[0]},{entry.k[1]}]^{entry.parity},"
                              f"K {mode.label()}>")
        flat = profiles.reshape(len(times), -1)  # probe-major, forced entry minor
        rows = [[float(t)] + [float(v) for v in flat[i]] for i, t in enumerate(times)]
        out.write_csv("response_profiles.csv", header, rows)

    out.finalize(cfg.raw, started)
    return EXIT_OK


def cmd_lln(args) -> int:
    started = time.time()
    cfg = _load_config(args)
    basis = ModeBasis(cfg.equation.n_cut, cfg.equation.grid)
    u0 = _state_from_spec(cfg.analysis.get("initial_state"), basis)
    obs = _observable_from_spec(cfg.analysis.get("observable", {}), basis)
    burn_in = float(cfg.analysis.get("burn_in", 0.0))
    out = OutputDir.create(args.out)
    rec = simulate(u0, cfg.equation, cfg.noise, cfg.run.horizon, cfg.run.seed,
                   snapshot_stride=cfg.run.snapshot_stride)
    report = time_average(rec, obs, burn_in=burn_in)
    values = obs.of_states(basis, rec.states)
    out.write_csv("lln_timeseries.csv", ["time", "observable"],
                  [[float(t), float(v)] for t, v in zip(rec.times, values)])
    out.write_json("lln_report.json", report.to_dict())
    out.finalize(cfg.raw, started)
    return EXIT_OK


def cmd_clt(args) -> int:
    started = time.time()
    cfg = _load_config(args)
    basis = ModeBasis(cfg.equation.n_cut, cfg.equation.grid)
    u0 = _state_from_spec(cfg.analysis.get("initial_state"), basis)
    obs = _observable_from_spec(cfg.analysis.get("observable", {}), basis)
    replicas = int(cfg.analysis.get("replicas", max(cfg.run.ensemble_size, 50)))
    out = OutputDir.create(args.out)
    report = clt_sample(u0, cfg.equation, cfg.noise, obs, cfg.run.horizon,
                        replicas, cfg.run.seed,
                        pilot_horizon=cfg.analysis.get("pilot_horizon"),
                        burn_in=float(cfg.analysis.get("burn_in", 0.0)),
                        snapshot_stride=cfg.run.snapshot_stride,
                        workers=cfg.run.workers)
    out.write_csv("clt_samples.csv", ["replica", "normalized_integral"],
                  [[i, float(v)] for i, v in enumerate(report.samples)])
    payload = report.to_dict()
    payload.pop("samples")
    out.write_json("clt_report.json", payload)
    out.finalize(cfg.raw, started)
    return EXIT_OK


def cmd_mix(args) -> int:
    started = time.time()
    cfg = _load_config(args)
    basis = ModeBasis(cfg.equation.n_cut, cfg.equation.grid)
    u0_a = _state_from_spec(cfg.analysis.get("u0_a"), basis)
    u0_b = _state_from_spec(cfg.analysis.get("u0_b"), basis)
    if np.array_equal(u0_a.coeffs, u0_b.coeffs):
        raise ConfigError(["mix requires distinct initial states u0_a and u0_b"])
    obs = _observable_from_spec(cfg.analysis.get("observable", {}), basis)
    replicas = int(cfg.analysis.get("replicas", max(cfg.run.ensemble_size, 100)))
    out = OutputDir.create(args.out)
    report = mixing_decay_estimate(u0_a, u0_b, cfg.equation, cfg.noise, obs,
                                   cfg.run.horizon, replicas, cfg.run.seed,
                                   snapshot_stride=cfg.run.snapshot_stride,
                                   workers=cfg.run.workers)
    out.write_csv("mix_decay.csv", ["time", "abs_diff", "noise_floor"],
                  [[float(t), float(d), float(f)]
                   for t, d, f in zip(report.times, report.abs_diff, report.noise_floor)])
    payload = report.to_dict()
    for key in ("times", "abs_diff", "noise_floor"):
        payload.pop(key)
    out.write_json("mix_report.json", payload)
    out.finalize(cfg.raw, started)
    return EXIT_OK


def cmd_moment(args) -> int:
    started = time.time()
    cfg = _load_config(args)
    basis = ModeBasis(cfg.equation.n_cut, cfg.equation.grid)
    u0 = _state_from_spec(cfg.analysis.get("initial_state"), basis)
    eta = float(cfg.analysis.get("eta", 0.01))
    n_traj = cfg.run.ensemble_size
    out = OutputDir.create(args.out)
    probes = exp_moment_ensemble(u0, cfg.equation, cfg.noise, cfg.run.horizon, n_traj,
                                 cfg.run.seed, eta, snapshot_stride=cfg.run.snapshot_stride)
    times = probes[0].times
    logs = np.array([p.log_statistic for p in probes])
    # pathwise bound shape: C * exp(eta ||U0||^2 e^{-t}); fit C on the ensemble mean
    u0_sq = float(u0.coeffs @ u0.coeffs)
    envelope = np.exp(eta * u0_sq * np.exp(-(times - times[0])))
    mean_stat = np.exp(logs).mean(axis=0)
    c_fit = float(np.max(mean_stat / envelope))
    header = ["time", "ensemble_mean"] + [f"traj{i}" for i in range(n_traj)]
    rows = [[float(times[i]), float(mean_stat[i])] + [float(logs[j, i]) for j in range(n_traj)]
            for i in range(len(times))]
    out.write_csv("moment_series.csv", header, rows)
    out.write_json("moment_report.json", {
        "eta": eta, "fitted_prefactor": c_fit,
        "trajectories": n_traj,
        "log_statistic_final_mean": float(logs[:, -1].mean()),
    })
    out.finalize(cfg.raw, started)
    return EXIT_OK


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
    try:
        return args.func(args)
    except ConfigError as exc:
        print(json.dumps({"error": "config", "violations": exc.violations}),
              file=sys.stderr)
        return EXIT_CONFIG
    except SimulationError as exc:
        print(json.dumps({"error": "blowup", "time": exc.time, "step": exc.step,
                          "replica": exc.replica, "last_finite_norm": exc.last_norm}),
              file=sys.stderr)
        return EXIT_BLOWUP
    except Exception as exc:  # stable machine-readable failure surface
        print(json.dumps({"error": "runtime", "type": type(exc).__name__,
                          "message": str(exc)}), file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
