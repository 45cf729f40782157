"""The four benchmark workloads: generated inputs, timed CLI calls, output checks.

Each workload turns a per-pass random generator into configs written under a
scratch directory, runs ``torusmhd.cli.main`` on them (the timed phase), and
checks the artifacts against closed-form oracles and invariants, never
against digests, so a change that only moves roundoff or re-derives seed
streams still passes.  Checks run outside the timed phase.

Why these four (see BENCHMARK.json for the one-line form):

* ``ergodic_ou``      - per-step Python overhead of ``galerkin.simulate``
  under ``diagnostics`` ensembles; no nonlinearity runs.
* ``nonlinear_n10``   - one long trajectory whose time is ``bilinear_transform``
  at n_cut=10; no ensemble.
* ``malliavin_probe`` - the backward adjoint sweep and its levels buffer at
  the users' default config.
* ``symbolic``        - brackets, reachability and lattice quadrature; no
  Galerkin code.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import stats

from torusmhd import cli
from torusmhd.brackets import COMBOS, verify_bracket_identity
from torusmhd.config import parse_config
from torusmhd.galerkin import (
    ModeBasis,
    bilinear_convolution,
    bilinear_transform,
    simulate,
    zero_state,
)
from torusmhd.lattice import MAGNETIC, SLOT_NAMES, make_mode
from torusmhd.reachability import Certificate, ForcedSet, verify_chain

#: Standard errors a stochastic oracle may be off before the check fails.
#: Every timed pass draws fresh seeds, so the checks must hold on thousands
#: of seeds: five standard errors give a false alarm about once in 10^6.
Z = 5.0
#: The two-sided tail probability of Z standard errors.
ALPHA = 2.0 * stats.norm.sf(Z)

EXAMPLE_Z0 = [(0, 1), (1, 1), (1, 0), (1, 2)]


@dataclass
class Op:
    """One CLI invocation inside a pass."""

    name: str
    argv: list[str]
    out: Path
    units: float
    #: reads the op's artifacts; returns what is wrong with them
    checker: Callable[["Op"], list[str]]
    config: dict | None = None
    exit_code: int | None = None
    stderr: str = ""
    extra: dict = field(default_factory=dict)


def run_op(op: Op) -> None:
    """The timed call: the CLI entry point, with its console output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            op.exit_code = cli.main(op.argv)
        except SystemExit as exc:  # argparse rejected the arguments
            op.exit_code = exc.code
    op.stderr = err.getvalue()


def _write_config(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return str(path)


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _read_csv(path: Path) -> np.ndarray:
    """The numeric rows of a CSV artifact (header labels may contain commas)."""
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    return np.array([[float(v) for v in line.split(",")] for line in lines])


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _exit_ok(op: Op) -> list[str]:
    if op.exit_code != 0:
        return [f"{op.name}: exit code {op.exit_code} {op.stderr.strip()}"]
    return []


def check(ops: list[Op]) -> dict[str, list[str]]:
    """Failures per op name; an empty list means the op's output is correct."""
    return {op.name: _exit_ok(op) or op.checker(op) for op in ops}


def artifact_bytes(ops: list[Op]) -> int:
    return sum(p.stat().st_size for op in ops if op.out.is_dir()
               for p in op.out.iterdir())


class Workload:
    name = ""
    #: what ``throughput`` counts on this workload
    unit = ""

    def make_pass(self, rng: np.random.Generator, work: Path) -> list[Op]:
        """Write this pass's generated configs under ``work``; return its ops."""
        raise NotImplementedError

    def warm_up(self, work: Path) -> None:
        """Everything a fresh process does before its first timed call."""
        raise NotImplementedError

    def check_run(self, passes: list[list[Op]]) -> dict[str, list[str]]:
        """Checks over the whole run: ensemble fractions and expensive oracles."""
        return {}

    def _warm_config(self, work: Path, doc: dict) -> None:
        cfg = parse_config(_write_config(work / "warm_up.json", doc))
        basis = ModeBasis(cfg.equation.n_cut, cfg.equation.grid)
        simulate(zero_state(basis), cfg.equation, cfg.noise, cfg.equation.dt, 0)


# ---------------------------------------------------------------------------
# ergodic_ou: the exactly discretized Ornstein-Uhlenbeck regime.
# ---------------------------------------------------------------------------

class ErgodicOU(Workload):
    """CLI ``clt`` then ``mix`` with the nonlinearity off: criterion 7's linear half."""

    name = "ergodic_ou"
    unit = "steps"
    K = (0, 1)
    AMP = 1.0
    BETA = 1.5
    DT = 0.02
    MIX_AMP = 4.0
    #: Upper bound on the excess kurtosis of the normalized integral of c^2
    #: (0.69 measured at T=50 over 10^5 exact OU paths).
    KURTOSIS = 1.0

    def __init__(self, tiny: bool = False):
        # (T, replicas, pilot) for clt, (T, replicas, stride) for mix
        self.clt = (5.0, 20, 20.0) if tiny else (50.0, 50, 200.0)
        self.mix = (4.0, 100, 5) if tiny else (4.0, 200, 5)
        self.lam = float(self.K[0] ** 2 + self.K[1] ** 2) ** self.BETA
        self.s = self.AMP**2 / (2.0 * self.lam)  # stationary variance
        self._clt_var = None

    def _doc(self, seed: int, horizon: float, stride: int, analysis: dict) -> dict:
        return {
            "equation": {"alpha": 1.5, "beta": self.BETA, "n_cut": 2, "dt": self.DT,
                         "nonlinearity_enabled": False},
            "noise": {"z0": [{"k": list(self.K), "amplitudes": [self.AMP, self.AMP]}]},
            "run": {"T": horizon, "seed": seed, "snapshot_stride": stride},
            "analysis": analysis,
        }

    def _obs(self, kind: str) -> dict:
        return {"kind": kind, "slot": "magnetic", "k": list(self.K), "parity": 0}

    def make_pass(self, rng, work):
        t_clt, r_clt, pilot = self.clt
        t_mix, r_mix, stride = self.mix
        clt_doc = self._doc(_seed(rng), t_clt, 1, {
            "observable": self._obs("mode_coefficient_squared"),
            "replicas": r_clt, "pilot_horizon": pilot})
        mix_doc = self._doc(_seed(rng), t_mix, stride, {
            "observable": self._obs("mode_coefficient"), "replicas": r_mix,
            "u0_a": [], "u0_b": [{"slot": "magnetic", "k": list(self.K), "parity": 0,
                                  "amplitude": self.MIX_AMP}]})
        steps = lambda t: round(t / self.DT)
        return [
            Op("clt", ["clt", "--config", _write_config(work / "clt.json", clt_doc),
                       "--out", str(work / "clt")], work / "clt",
               steps(pilot) + r_clt * steps(t_clt), self._check_clt),
            Op("mix", ["mix", "--config", _write_config(work / "mix.json", mix_doc),
                       "--out", str(work / "mix")], work / "mix",
               2 * r_mix * steps(t_mix), self._check_mix),
        ]

    def warm_up(self, work):
        self._warm_config(work, self._doc(0, self.DT, 1, {}))

    def clt_variance(self) -> float:
        """Exact variance of the normalized trapezoid integral of c^2 over [0, T].

        c is the exactly discretized OU coefficient started at 0, so for m >= n
        Cov(c_n, c_m) = phi^(m-n) v_n with v_n = s (1 - phi^(2n)), and for
        Gaussians Cov(c_n^2, c_m^2) = 2 Cov(c_n, c_m)^2.  The double sum over
        the trapezoid weights w folds into one backward recursion over
        tail_n = sum_{m>n} w_m phi^(2(m-n)).  Tends to amp^4/(2 lam^3).
        """
        if self._clt_var is None:
            horizon = self.clt[0]
            n = round(horizon / self.DT)
            phi2 = math.exp(-2.0 * self.lam * self.DT)
            w = [self.DT] * (n + 1)
            w[0] = w[-1] = 0.5 * self.DT
            total, tail = 0.0, 0.0
            for i in range(n, -1, -1):
                v = self.s * (1.0 - phi2**i)
                total += 2.0 * w[i] * v * v * (w[i] + 2.0 * tail)
                tail = phi2 * (w[i] + tail)
            self._clt_var = total / horizon
        return self._clt_var

    def _check_clt(self, op: Op) -> list[str]:
        report = _read_json(op.out / "clt_report.json")
        rows = _read_csv(op.out / "clt_samples.csv")
        samples = rows[:, 1]
        _, replicas, pilot = self.clt
        bad = []
        if len(samples) != replicas or not np.all(np.isfinite(samples)):
            return [f"clt: expected {replicas} finite samples, got {len(samples)}"]
        # time average of c^2 over the pilot: mean amp^2/(2 lam), long-run
        # variance amp^4/(2 lam^3) over the pilot horizon
        se_m = math.sqrt(self.AMP**4 / (2.0 * self.lam**3) / pilot)
        if not abs(report["m_hat"] - self.s) <= Z * se_m:
            bad.append(f"clt: m_hat {report['m_hat']} vs {self.s} +- {Z}*{se_m:.3g}")
        # sample variance against the exact finite-horizon variance: its ratio
        # is about chi^2_nu / nu with nu = 2 (R - 1) / (2 + kurtosis) degrees
        # of freedom, and must lie in the central 1 - ALPHA interval
        want = self.clt_variance()
        var = float(report["sample_variance"])
        nu = 2.0 * (replicas - 1) / (2.0 + self.KURTOSIS)
        lo, hi = stats.chi2.ppf(ALPHA / 2, nu) / nu, stats.chi2.isf(ALPHA / 2, nu) / nu
        if not lo <= var / want <= hi:
            bad.append(f"clt: sample variance {var} / {want:.6f} outside [{lo:.3f}, {hi:.3f}]")
        if not abs(var - float(np.var(samples, ddof=1))) <= 1e-9 * var:
            bad.append("clt: sample_variance disagrees with clt_samples.csv")
        if not report["ks_pvalue"] > 1e-4:
            bad.append(f"clt: KS p-value {report['ks_pvalue']} <= 1e-4")
        return bad

    def gamma_se(self, t: np.ndarray, replicas: int) -> float:
        """Delta-method standard error of the log-linear decay fit on times t.

        The ensemble difference at t has mean A e^{-lam t} and covariance
        2 s e^{-lam |t-t'|} (1 - e^{-2 lam min(t,t')}) / R between fit points.
        """
        d = self.MIX_AMP * np.exp(-self.lam * t)
        design = np.column_stack([np.ones_like(t), -t])
        row = np.linalg.solve(design.T @ design, design.T)[1]
        tmin = np.minimum.outer(t, t)
        cov = (2.0 * self.s / replicas * np.exp(-self.lam * np.abs(t[:, None] - t[None, :]))
               * (1.0 - np.exp(-2.0 * self.lam * tmin)))
        return float(math.sqrt(row @ (cov / np.outer(d, d)) @ row))

    def _check_mix(self, op: Op) -> list[str]:
        report = _read_json(op.out / "mix_report.json")
        rows = _read_csv(op.out / "mix_decay.csv")
        t, diff, floor = rows.T
        replicas = self.mix[1]
        bad = []
        if not np.all(np.isfinite(rows)):
            return ["mix: non-finite values in mix_decay.csv"]
        # each point: |E_a c - E_b c| = A e^{-lam t} exactly, sd sqrt(2 s (1-e^{-2 lam t}) / R);
        # the bound on the worst point is Bonferroni-corrected over all points
        sd = np.sqrt(2.0 * self.s * -np.expm1(-2.0 * self.lam * t) / replicas)
        dev = np.abs(diff - self.MIX_AMP * np.exp(-self.lam * t))
        z_worst = stats.norm.isf(ALPHA / 2 / len(t))
        if not np.all(dev <= z_worst * sd + 1e-12):
            bad.append(f"mix: decay curve off by {np.max(dev / np.maximum(sd, 1e-300)):.2f} sd")
        if not report["identifiable"]:
            return bad + ["mix: decay not identifiable"]
        used = diff > floor
        se = self.gamma_se(t[used], replicas)
        if not abs(report["gamma_hat"] - self.lam) <= Z * se:
            bad.append(f"mix: gamma_hat {report['gamma_hat']} vs {self.lam} +- {Z}*{se:.3g}")
        return bad


# ---------------------------------------------------------------------------
# nonlinear_n10: one long trajectory, the transform dominates.
# ---------------------------------------------------------------------------

class NonlinearN10(Workload):
    """CLI ``simulate`` at n_cut=10 (dim 632, grid 32), four-mode forcing."""

    name = "nonlinear_n10"
    unit = "steps"

    def __init__(self, tiny: bool = False):
        self.n_cut, self.horizon, self.dt = (4, 0.05, 1e-3) if tiny else (10, 1.0, 1e-3)
        self.basis = ModeBasis(self.n_cut)
        self.n_steps = round(self.horizon / self.dt)

    def _doc(self, seed: int, horizon: float, stride: int, analysis: dict) -> dict:
        return {
            "equation": {"alpha": 1.5, "beta": 1.5, "n_cut": self.n_cut, "dt": self.dt},
            "noise": {"z0": [{"k": list(k), "amplitudes": [1.0, 1.0]} for k in EXAMPLE_Z0]},
            "run": {"T": horizon, "seed": seed, "snapshot_stride": stride},
            "analysis": analysis,
        }

    def make_pass(self, rng, work):
        # a random low-mode initial state, so the advection is active from t=0;
        # snapshots at t=0 and t=T only, with every mode tracked, so the
        # artifact carries the whole final state for the checks
        low = [m for m in self.basis.modes() if m.k[0] ** 2 + m.k[1] ** 2 <= 4]
        amps = 0.5 * rng.standard_normal(len(low))
        spec = lambda m: {"slot": SLOT_NAMES[m.slot], "k": list(m.k), "parity": m.parity}
        doc = self._doc(_seed(rng), self.horizon, self.n_steps, {
            "initial_state": [dict(spec(m), amplitude=float(a)) for m, a in zip(low, amps)],
            "track_modes": [spec(m) for m in self.basis.modes()],
        })
        return [Op("simulate", ["simulate", "--config", _write_config(work / "sim.json", doc),
                                "--out", str(work / "sim")], work / "sim", self.n_steps,
                   self._check_trajectory, doc)]

    def warm_up(self, work):
        self._warm_config(work, self._doc(0, self.dt, 1, {}))

    def _check_trajectory(self, op: Op) -> list[str]:
        rows = _read_csv(op.out / "trajectory.csv")
        summary = _read_json(op.out / "run_summary.json")
        dim = self.basis.dim
        if rows.shape != (2, dim + 2) or not np.all(np.isfinite(rows)):
            return [f"simulate: expected 2 finite rows of {dim + 2}, got {rows.shape}"]
        bad = []
        if summary["steps"] != self.n_steps or summary["dim"] != dim:
            bad.append(f"simulate: summary {summary['steps']} steps, dim {summary['dim']}")
        if abs(rows[-1, 0] - self.horizon) > 1e-9:
            bad.append(f"simulate: final time {rows[-1, 0]}")
        u0 = np.zeros(dim)
        slots = {name: slot for slot, name in SLOT_NAMES.items()}
        for e in op.config["analysis"]["initial_state"]:
            mode = make_mode(slots[e["slot"]], tuple(e["k"]), e["parity"])
            u0[self.basis.mode_index(mode)] = e["amplitude"]
        if not np.array_equal(rows[0, 2:], u0):
            bad.append("simulate: first row is not the configured initial state")
        c = rows[-1, 2:]
        energy = float(c @ c)
        for got in (rows[-1, 1], summary["final_energy"]):
            if not abs(got - energy) <= 1e-12 * max(energy, 1.0):
                bad.append(f"simulate: reported energy {got} vs |c|^2 {energy}")
        # advection is energy neutral: <B(c, c), c> = 0
        norm = float(np.linalg.norm(c))
        work = float(bilinear_transform(self.basis, c, c) @ c)
        if not abs(work) <= 1e-10 * max(norm**3, 1.0):
            bad.append(f"simulate: <B(c,c),c> = {work:.3e}")
        return bad

    def check_run(self, passes):
        # the O(dim^2) convolution oracle (seconds at n_cut=10) runs once per
        # run, on the final state of the first pass: criterion 3's 1e-10 bound
        (op,) = passes[0]
        if op.exit_code != 0:
            return {}
        c = _read_csv(op.out / "trajectory.csv")[-1, 2:]
        gap = float(np.max(np.abs(bilinear_transform(self.basis, c, c)
                                  - bilinear_convolution(self.basis, c, c))))
        scale = max(float(c @ c), 1.0)
        return {"convolution_oracle": [] if gap <= 1e-10 * scale else
                [f"transform vs convolution differ by {gap:.3e}"]}


# ---------------------------------------------------------------------------
# malliavin_probe: criterion 6 at the users' default config.
# ---------------------------------------------------------------------------

#: config.example.json as shipped, pinned here so that editing the example
#: does not silently change the workload.  Only ``paths`` is lowered, to keep
#: one pass near three seconds; the seed comes from the workload seed.
MALLIAVIN_TEMPLATE = {
    "equation": {"alpha": 1.5, "beta": 1.5, "n_cut": 4, "dt": 0.001},
    "noise": {"z0": [{"k": list(k), "amplitudes": [1.0, 1.0]} for k in EXAMPLE_Z0]},
    "run": {"T": 1.0, "seed": 1234, "snapshot_stride": 1, "ensemble_size": 4},
    "analysis": {
        "cone_alpha": 0.5, "cone_n": 1, "paths": 2, "cone_samples": 200,
        "observable": {"kind": "mode_coefficient", "slot": "magnetic",
                       "k": [0, 1], "parity": 0},
        "u0_a": [], "u0_b": [{"slot": "magnetic", "k": [0, 1], "parity": 0,
                              "amplitude": 3.0}],
        "replicas": 100,
        "eta": 0.05,
        "profile_modes": [{"slot": "magnetic", "k": [0, 1], "parity": 0}],
    },
}


class MalliavinProbe(Workload):
    """CLI ``malliavin``: simulate, freeze, assemble and cone statistics per path."""

    name = "malliavin_probe"
    unit = "paths"

    def __init__(self, tiny: bool = False):
        self.doc = json.loads(json.dumps(MALLIAVIN_TEMPLATE))
        if tiny:
            self.doc["equation"]["n_cut"] = 3
            self.doc["run"]["T"] = 0.1
            self.doc["analysis"].update(paths=2, cone_samples=20)
        self.paths = self.doc["analysis"]["paths"]
        self.n_steps = round(self.doc["run"]["T"] / self.doc["equation"]["dt"])
        self.ncols = ModeBasis(self.doc["equation"]["n_cut"]).dim

    def make_pass(self, rng, work):
        doc = json.loads(json.dumps(self.doc))
        doc["run"]["seed"] = _seed(rng)
        return [Op("malliavin", ["malliavin", "--config",
                                 _write_config(work / "mal.json", doc),
                                 "--out", str(work / "mal")], work / "mal", self.paths,
                   self._check_report)]

    def warm_up(self, work):
        doc = json.loads(json.dumps(self.doc))
        doc["run"]["T"] = doc["equation"]["dt"]
        self._warm_config(work, doc)

    def _check_report(self, op: Op) -> list[str]:
        report = _read_json(op.out / "malliavin_report.json")
        per_path, spectra = report["per_path"], report["eigenvalues"]
        if report["paths"] != self.paths or len(per_path) != self.paths \
                or len(spectra) != self.paths:
            return [f"malliavin: expected {self.paths} paths"]
        bad = []
        for p, (cone, eigs) in enumerate(zip(per_path, spectra)):
            eigs = np.array(eigs)
            trace = float(eigs.sum())
            if len(eigs) != self.ncols or not np.all(np.isfinite(eigs)):
                bad.append(f"malliavin: path {p} has {len(eigs)} eigenvalues")
                continue
            if not eigs.min() >= -1e-12 * trace:
                bad.append(f"malliavin: path {p} Gram eigenvalue {eigs.min():.3e} < 0")
            if not cone["dual_lower_bound"] <= cone["sampled_inf"] + 1e-12:
                bad.append(f"malliavin: path {p} dual bound above sampled infimum")
            if not cone["sampled_inf"] <= cone["compressed_min_eig"] + 1e-12 * trace:
                bad.append(f"malliavin: path {p} sampled infimum above compressed eigenvalue")
        prof = _read_csv(op.out / "response_profiles.csv")
        if prof.shape[0] != self.n_steps + 1 or not np.all(np.isfinite(prof)):
            bad.append(f"malliavin: response profile has shape {prof.shape}")
        op.extra["sampled_inf"] = [c["sampled_inf"] for c in per_path]
        return bad

    def check_run(self, passes):
        # criterion 6 is an ensemble statement: at least 0.95 of all paths
        sampled = [v for ops in passes for v in ops[0].extra.get("sampled_inf", [])]
        if not sampled:
            return {}
        frac = float(np.mean(np.array(sampled) > 1e-10))
        return {"cone_fraction": [] if frac >= 0.95 else
                [f"only {frac:.3f} of {len(sampled)} paths have sampled_inf > 1e-10"]}


# ---------------------------------------------------------------------------
# symbolic: bracket verification and reachability certificates.
# ---------------------------------------------------------------------------

class Symbolic(Workload):
    """CLI ``bracket verify`` at small kmax and ``reach --certify`` at a large radius."""

    name = "symbolic"
    unit = "reports"

    def __init__(self, tiny: bool = False):
        self.kmax, self.radius, self.n_targets, self.target_radius = (
            (1, 6, 2, 4) if tiny else (2, 24, 4, 12))
        points = [(a, b) for a in range(-self.kmax, self.kmax + 1)
                  for b in range(-self.kmax, self.kmax + 1)
                  if (a, b) != (0, 0) and a * a + b * b <= self.kmax**2]
        self.reports = len(points) ** 2 * 2 * len(COMBOS)
        self.forced = ForcedSet.from_wavevectors(EXAMPLE_Z0)
        r = self.target_radius
        self.candidates = [(a, b) for a in range(-r, r + 1) for b in range(-r, r + 1)
                           if 0 < a * a + b * b <= r * r]

    def make_pass(self, rng, work):
        picks = rng.choice(len(self.candidates), size=self.n_targets, replace=False)
        targets = ";".join(f"{a},{b}" for a, b in (self.candidates[i] for i in picks))
        z0 = ";".join(f"{a},{b}" for a, b in EXAMPLE_Z0)
        return [
            Op("bracket", ["bracket", "verify", "--kmax", str(self.kmax),
                           "--out", str(work / "bracket")], work / "bracket", self.reports,
               self._check_bracket),
            Op("reach", ["reach", "--z0", z0, "--radius", str(self.radius),
                         f"--certify={targets}", "--out", str(work / "reach")],
               work / "reach", 0, self._check_reach, {"targets": targets}),
        ]

    def warm_up(self, work):
        verify_bracket_identity((1, 0), (0, 1), COMBOS[0], MAGNETIC)

    def _check_bracket(self, op: Op) -> list[str]:
        doc = _read_json(op.out / "bracket_verify.json")
        reports = doc["reports"]
        if len(reports) != self.reports:
            return [f"bracket: {len(reports)} reports, expected {self.reports}"]
        bad = []
        if not all(r["selection_ok"] for r in reports):
            bad.append("bracket: a report fails selection")
        if not max(r["max_stray"] for r in reports) < 1e-10:
            bad.append("bracket: stray quadrature coefficient >= 1e-10")
        consts = np.abs([r["pinned_constant"] for r in reports
                         if np.isfinite(r["pinned_constant"])])
        if consts.size == 0 or not np.ptp(consts) <= 1e-9 * consts.max():
            bad.append("bracket: pinned constant is not a single value to 1e-9")
        ratios = np.array([r["coefficient_ratio"] for r in reports
                           if np.isfinite(r["coefficient_ratio"])])
        if ratios.size == 0 or not np.ptp(ratios) <= 1e-8 * np.abs(ratios).max():
            bad.append("bracket: symbolic/quadrature ratio is not one constant")
        n = len(reports)
        op.extra["degenerate_ratio"] = sum(r["degenerate"] is not None for r in reports) / n
        op.extra["selection_ok_ratio"] = sum(r["selection_ok"] for r in reports) / n
        return bad

    def _check_reach(self, op: Op) -> list[str]:
        doc = _read_json(op.out / "reach_report.json")
        rep = doc["report"]
        bad = []
        if not (rep["even_covered"] and rep["odd_covered"]
                and not rep["missing_even"] and not rep["missing_odd"]):
            bad.append("reach: parity chains do not cover the radius")
        want = [tuple(int(x) for x in t.split(",")) for t in op.config["targets"].split(";")]
        certs = doc.get("certificates", [])
        got = sorted((tuple(c["target"]), c["parity"]) for c in certs)
        if got != sorted((t, p) for t in want for p in ("even", "odd")):
            bad.append("reach: certificates do not match the requested targets")
        for c in certs:
            cert = Certificate(tuple(c["target"]), c["parity"],
                               [tuple(v) for v in c["chain"]] if c["chain"] else None,
                               c["depth_searched"], c["window_bound"])
            if not verify_chain(self.forced, cert):
                bad.append(f"reach: certificate {c['target']} {c['parity']} does not replay")
        op.extra["depth_used"] = rep["depth_used"]
        return bad


WORKLOADS = {w.name: w for w in (ErgodicOU, NonlinearN10, MalliavinProbe, Symbolic)}
