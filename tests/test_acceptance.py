"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances are pinned here and nowhere else.
"""

import json
import math
import time

import numpy as np

from torusmhd.brackets import verification_sweep
from torusmhd.cli import main
from torusmhd.config import example_hypoelliptic_config
from torusmhd.diagnostics import (
    Observable,
    clt_sample,
    mixing_decay_estimate,
    time_average,
    trajectory_seed,
)
from torusmhd.galerkin import (
    EMPTY_NOISE,
    EquationParams,
    ModeBasis,
    NoiseSpec,
    SpectralState,
    bilinear_convolution,
    bilinear_transform,
    energy_balance_residual,
    simulate,
    unit_mode_state,
    zero_state,
)
from torusmhd.lattice import COS, MAGNETIC, VELOCITY, make_mode, norm_sq
from torusmhd.malliavin import (
    ConeSpec,
    FrozenPath,
    adjoint_apply,
    assemble_malliavin,
    cone_infimum,
    jacobian_apply,
    sample_cone_state,
    second_variation_apply,
    unstable_quadratic_form,
)
from torusmhd.reachability import ForcedSet, check_hypothesis, next_generation

EXAMPLE_Z0 = [(0, 1), (1, 1), (1, 0), (1, 2)]


def report(number: int, name: str, started: float, **facts):
    extras = " ".join(f"{k}={v}" for k, v in facts.items())
    print(f"\nACCEPTANCE {number} ({name}): PASS in "
          f"{time.monotonic() - started:.1f}s {extras}")


def test_criterion_1_bracket_oracle_sweep():
    started = time.monotonic()
    reports = verification_sweep(3)
    assert all(r.selection_ok for r in reports)
    strays = max(r.max_stray for r in reports)
    assert strays < 1e-10
    ratios = np.array([r.coefficient_ratio for r in reports
                       if np.isfinite(r.coefficient_ratio)])
    assert ratios.size > 1000
    assert np.ptp(ratios) < 1e-8 * np.abs(ratios).max()
    consts = np.abs([r.pinned_constant for r in reports
                     if np.isfinite(r.pinned_constant)])
    assert np.ptp(consts) < 1e-8 * consts.max()
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report(1, "bracket oracle sweep", started, reports=len(reports),
           ratio=f"{ratios.mean():.12f}", constant=f"{consts.mean():.9f}")


def test_criterion_2_reachability_example():
    started = time.monotonic()
    forced = ForcedSet.from_wavevectors(EXAMPLE_Z0)
    rep = check_hypothesis(forced, radius=10, max_depth=40)
    assert rep.even_covered and rep.odd_covered
    assert rep.depth_used <= 40

    hat = ForcedSet.from_wavevectors([(0, 1), (1, 1)])
    z1 = next_generation(set(hat.symmetrized), hat)
    assert z1 == {(-1, 0), (-1, -2), (1, 0), (1, 2)}

    collinear = ForcedSet.from_wavevectors([(0, 1), (0, 2)])
    assert next_generation(set(collinear.symmetrized), collinear) == set()
    rep_c = check_hypothesis(collinear, radius=2)
    assert not rep_c.even_covered and not rep_c.odd_covered

    singleton = ForcedSet.from_wavevectors([(1, 0)])
    assert next_generation(set(singleton.symmetrized), singleton) == set()
    rep_s = check_hypothesis(singleton, radius=2)
    assert not rep_s.even_covered and not rep_s.odd_covered

    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    report(2, "reachability reproduces the four-mode example", started,
           depth=rep.depth_used)


def test_criterion_3_simulator_exactness():
    started = time.monotonic()

    # single-mode zero-noise decay
    basis = ModeBasis(3)
    params = EquationParams(alpha=1.5, beta=1.5, n_cut=3, dt=1e-3)
    mode = make_mode(VELOCITY, (1, 2), COS)
    rec = simulate(unit_mode_state(basis, mode), params, EMPTY_NOISE, 0.2, seed=0)
    got = rec.states[-1, basis.mode_index(mode)]
    want = math.exp(-5.0**1.5 * 0.2)
    assert abs(got - want) < 1e-10

    # convolution vs transform at n_cut = 8
    basis8 = ModeBasis(8)
    rng = np.random.default_rng(1)
    cu = rng.standard_normal(basis8.dim)
    cv = rng.standard_normal(basis8.dim)
    bt = bilinear_transform(basis8, cu, cv)
    bc = bilinear_convolution(basis8, cu, cv)
    assert np.max(np.abs(bt - bc)) < 1e-10

    # advection is energy-neutral on random unit states, both routes
    for _ in range(3):
        c = rng.standard_normal(basis8.dim)
        c /= np.linalg.norm(c)
        assert abs(bilinear_transform(basis8, c, c) @ c) < 1e-10
    c = rng.standard_normal(basis.dim)
    c /= np.linalg.norm(c)
    assert abs(bilinear_convolution(basis, c, c) @ c) < 1e-10

    # discrete energy identity residual halves on a refined common path
    noise = NoiseSpec.uniform(EXAMPLE_Z0, 1.0)
    rng2 = np.random.default_rng(77)
    u0 = SpectralState(basis, 0.3 * rng2.standard_normal(basis.dim))
    dt, horizon = 2e-3, 0.5
    n = int(round(horizon / dt))
    fine = rng2.standard_normal((2 * n, noise.dim)) * math.sqrt(dt / 2)
    coarse = fine.reshape(n, 2, noise.dim).sum(axis=1)
    means = []
    for step_dt, incs in ((dt, coarse), (dt / 2, fine)):
        p = EquationParams(alpha=1.5, beta=1.5, n_cut=3, dt=step_dt)
        r = simulate(u0, p, noise, horizon, seed=0, store_noise=True, increments=incs)
        means.append(np.mean(np.abs(energy_balance_residual(r, p, noise))))
    ratio = means[0] / means[1]
    assert abs(ratio - 2.0) <= 0.4

    report(3, "simulator exactness", started, residual_ratio=f"{ratio:.3f}",
           conv_vs_transform=f"{np.max(np.abs(bt - bc)):.2e}")


def test_criterion_4_linearization_suite():
    started = time.monotonic()
    basis = ModeBasis(3)
    params = EquationParams(alpha=1.5, beta=1.5, n_cut=3, dt=1e-3)
    noise = NoiseSpec.uniform(EXAMPLE_Z0, 1.0)
    rng = np.random.default_rng(5)
    u0 = SpectralState(basis, 0.4 * rng.standard_normal(basis.dim))
    rec = simulate(u0, params, noise, 0.2, seed=11, snapshot_stride=1,
                   store_noise=True)
    path = FrozenPath(rec)
    xi = SpectralState(basis, rng.standard_normal(basis.dim))

    # Jacobian vs finite differences: eps 1e-3 -> 1e-4 shrinks the error ~10x
    jac = jacobian_apply(path, xi, 0.0, 0.2).coeffs
    errs = []
    for eps in (1e-3, 1e-4):
        up = SpectralState(basis, u0.coeffs + eps * xi.coeffs)
        rp = simulate(up, params, noise, 0.2, seed=0, snapshot_stride=1,
                      increments=rec.noise_increments)
        errs.append(np.linalg.norm((rp.states[-1] - rec.states[-1]) / eps - jac))
    fd_ratio = errs[0] / errs[1]
    assert 6.0 <= fd_ratio <= 14.0

    # duality at 1e-8 relative
    worst_rel = 0.0
    for _ in range(5):
        a = SpectralState(basis, rng.standard_normal(basis.dim))
        b = SpectralState(basis, rng.standard_normal(basis.dim))
        lhs = jacobian_apply(path, a, 0.0, 0.2).coeffs @ b.coeffs
        rhs = a.coeffs @ adjoint_apply(path, b, 0.0, 0.2).coeffs
        rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
        worst_rel = max(worst_rel, rel)
        assert rel <= 1e-8

    # second variation vs finite difference of the Jacobian
    xi2 = SpectralState(basis, rng.standard_normal(basis.dim))
    second = second_variation_apply(path, xi, xi2, 0.0, 0.2).coeffs

    def jac_at(u_init):
        r = simulate(u_init, params, noise, 0.2, seed=0, snapshot_stride=1,
                     increments=rec.noise_increments)
        return jacobian_apply(FrozenPath(r), xi, 0.0, 0.2).coeffs

    base = jac_at(u0)
    errs2 = []
    for eps in (1e-3, 1e-4):
        up = SpectralState(basis, u0.coeffs + eps * xi2.coeffs)
        errs2.append(np.linalg.norm((jac_at(up) - base) / eps - second))
    fd2_ratio = errs2[0] / errs2[1]
    assert 6.0 <= fd2_ratio <= 14.0

    report(4, "linearization suite", started, fd_ratio=f"{fd_ratio:.2f}",
           duality=f"{worst_rel:.2e}", fd2_ratio=f"{fd2_ratio:.2f}")


def test_criterion_5_malliavin_closed_form():
    started = time.monotonic()
    basis = ModeBasis(3)
    params = EquationParams(alpha=1.5, beta=1.5, n_cut=3, dt=1e-4,
                            nonlinearity_enabled=False)
    noise = NoiseSpec.from_amplitudes({(0, 1): (0.7, 1.3), (1, 2): (0.5, 0.9)})
    rec = simulate(zero_state(basis), params, noise, 1.0, seed=4,
                   snapshot_stride=1)
    path = FrozenPath(rec)
    mat = assemble_malliavin(path, noise)
    g = mat.gram
    assert np.max(np.abs(g - np.diag(np.diag(g)))) < 1e-10
    forced = {(e.k, e.parity): e.amplitude for e in noise.entries}
    worst = 0.0
    for i, mode in enumerate(mat.modes):
        key = (mode.k, mode.parity)
        if mode.slot == MAGNETIC and key in forced:
            lam = float(norm_sq(mode.k)) ** params.beta
            want = forced[key] ** 2 * (1 - math.exp(-2 * lam)) / (2 * lam)
            rel = abs(g[i, i] - want) / want
            worst = max(worst, rel)
            assert rel < 1e-6
        else:
            assert abs(g[i, i]) < 1e-10
    report(5, "linear-regime response matrix closed form", started,
           worst_rel=f"{worst:.2e}")


def test_criterion_6_hypoellipticity_probe(tmp_path):
    started = time.monotonic()
    basis = ModeBasis(3)
    params = EquationParams(alpha=1.5, beta=1.5, n_cut=3, dt=1e-3)
    noise = NoiseSpec.uniform(EXAMPLE_Z0, 1.0)
    cone = ConeSpec(alpha=0.5, n=1)
    n_paths = 50
    sampled, duals = [], []
    for p in range(n_paths):
        rec = simulate(zero_state(basis), params, noise, 1.0,
                       trajectory_seed(1234, p), snapshot_stride=1)
        mat = assemble_malliavin(FrozenPath(rec), noise)
        rep = cone_infimum(mat, cone, samples=200,
                           seed=trajectory_seed(1234, 10_000 + p))
        sampled.append(rep.sampled_inf)
        duals.append(rep.dual_lower_bound)
        assert rep.dual_lower_bound <= rep.sampled_inf + 1e-12
    sampled = np.array(sampled)
    frac_positive = float(np.mean(sampled > 1e-10))
    assert frac_positive >= 0.95

    # comparative spectrum for collinear forcing: exploratory report only
    noise_line = NoiseSpec.uniform([(0, 1), (0, 2)], 1.0)
    spectra = []
    for p in range(5):
        rec = simulate(zero_state(basis), params, noise_line, 1.0,
                       trajectory_seed(4321, p), snapshot_stride=1)
        mat = assemble_malliavin(FrozenPath(rec), noise_line)
        spectra.append(mat.eigenvalues().tolist())
    out = tmp_path / "collinear_spectrum.json"
    out.write_text(json.dumps({
        "forcing": [[0, 1], [0, 2]],
        "eigenvalues_per_path": spectra,
        "note": "exploratory comparison, no threshold asserted",
    }, indent=2))

    elapsed = time.monotonic() - started
    assert elapsed < 1800.0
    report(6, "hypoellipticity cone probe", started,
           paths=n_paths, frac_positive=frac_positive,
           min_sampled=f"{sampled.min():.2e}",
           collinear_report=str(out))


def test_criterion_7_ergodic_oracles():
    started = time.monotonic()
    basis = ModeBasis(2)
    params = EquationParams(alpha=1.5, beta=1.0, n_cut=2, dt=0.02,
                            nonlinearity_enabled=False)
    noise = NoiseSpec.from_amplitudes({(0, 1): (1.0, 1.0)})
    mode = make_mode(MAGNETIC, (0, 1), COS)

    # LLN: stationary second moment amp^2/(2 lam) = 1/2 within 10% at T = 2000
    rec = simulate(zero_state(basis), params, noise, 2000.0, seed=42)
    lln = time_average(rec, Observable("mode_coefficient_squared", mode),
                       burn_in=20.0)
    assert abs(lln.estimate - 0.5) <= 0.05

    # mixing: mean decay rate lam = 1 within 15% from 400 replicas
    mix = mixing_decay_estimate(
        zero_state(basis), unit_mode_state(basis, mode, 4.0), params, noise,
        Observable("mode_coefficient", mode), horizon=4.0, n_replicas=400,
        seed=9, snapshot_stride=5)
    assert mix.identifiable
    assert abs(mix.gamma_hat - 1.0) <= 0.15

    # CLT: long-run variance of the squared coefficient amp^4/(2 lam^3) = 1/2
    # within 15%, computed by the pre-build autocovariance oracle
    clt = clt_sample(zero_state(basis), params, noise,
                     Observable("mode_coefficient_squared", mode),
                     horizon=200.0, n_replicas=400, seed=31,
                     pilot_horizon=2000.0)
    assert abs(clt.sample_variance - 0.5) <= 0.075
    assert clt.ks_pvalue > 0.01

    # full nonlinear system: qualitative shapes only, fixed seeds
    basis3 = ModeBasis(3)
    params_nl = EquationParams(alpha=1.5, beta=1.5, n_cut=3, dt=5e-3)
    noise_nl = NoiseSpec.uniform(EXAMPLE_Z0, 0.6)
    obs_nl = Observable("bounded_lipschitz", mode, scale=1.0)
    mix_nl = mixing_decay_estimate(
        zero_state(basis3), unit_mode_state(basis3, mode, 3.0), params_nl,
        noise_nl, obs_nl, horizon=8.0, n_replicas=120, seed=2024,
        snapshot_stride=20)
    assert mix_nl.identifiable
    assert mix_nl.gamma_hat > 0.0
    assert mix_nl.r_squared > 0.8
    clt_nl = clt_sample(zero_state(basis3), params_nl, noise_nl, obs_nl,
                        horizon=30.0, n_replicas=80, seed=777,
                        pilot_horizon=300.0)
    assert clt_nl.ks_pvalue > 0.01

    report(7, "ergodic diagnostics", started,
           lln=f"{lln.estimate:.4f}", gamma=f"{mix.gamma_hat:.3f}",
           clt_var=f"{clt.sample_variance:.4f}",
           nl_gamma=f"{mix_nl.gamma_hat:.3f}", nl_r2=f"{mix_nl.r_squared:.3f}",
           nl_ks_p=f"{clt_nl.ks_pvalue:.3f}")


def test_criterion_8_reachable_energy_lower_bound():
    started = time.monotonic()
    n_level = 2
    basis = ModeBasis(3)
    forced = ForcedSet.from_wavevectors(EXAMPLE_Z0)
    # gate: the parity chains must certify coverage of the level block
    # within 2 N + 1 generations before the bound is asserted
    coverage = check_hypothesis(forced, radius=n_level, max_depth=2 * n_level + 1)
    assert coverage.even_covered and coverage.odd_covered

    rng = np.random.default_rng(3)
    violations = 0
    total = 0
    for alpha in (0.3, 0.7, 1.0):
        cone = ConeSpec(alpha=alpha, n=n_level)
        for _ in range(334):
            phi = sample_cone_state(basis, cone, rng)
            q = unstable_quadratic_form(phi, forced, n_level)
            total += 1
            if q < 0.5 * alpha * float(phi.coeffs @ phi.coeffs) - 1e-12:
                violations += 1
    assert total >= 1000
    assert violations == 0
    report(8, "reachable-energy lower bound on the cone", started,
           samples=total, violations=violations)


def _data_artifacts(outdir):
    blob = b""
    for p in sorted(outdir.iterdir()):
        if p.name != "manifest.json":  # manifest carries wall times by design
            blob += p.name.encode() + b"\0" + p.read_bytes()
    return blob


def test_criterion_9_cli_determinism(tmp_path):
    started = time.monotonic()
    base = example_hypoelliptic_config(seed=5)
    base["equation"]["n_cut"] = 3
    base["equation"]["dt"] = 0.01
    base["run"]["T"] = 0.5
    obs = {"kind": "mode_coefficient", "slot": "magnetic", "k": [0, 1],
           "parity": 0}

    cases = {
        "simulate": dict(base, analysis={}),
        "lln": dict(base, analysis={"observable": obs}),
        "clt": dict(base, analysis={"observable": obs, "replicas": 6,
                                    "pilot_horizon": 1.0}),
        "mix": dict(base, analysis={
            "observable": obs, "replicas": 8, "u0_a": [],
            "u0_b": [{"slot": "magnetic", "k": [0, 1], "parity": 0,
                      "amplitude": 3.0}]}),
        "moment": dict(base, run=dict(base["run"], ensemble_size=3),
                       analysis={"eta": 0.05}),
        "malliavin": dict(base, run=dict(base["run"], T=0.05),
                          analysis={"cone_alpha": 0.5, "cone_n": 1,
                                    "paths": 2, "cone_samples": 30}),
    }

    # identical config + seed twice: byte-identical data artifacts
    for sub, doc in cases.items():
        cfg = tmp_path / f"{sub}.json"
        cfg.write_text(json.dumps(doc))
        blobs = []
        for rerun in ("r1", "r2"):
            out = tmp_path / f"{sub}-{rerun}"
            assert main([sub, "--config", str(cfg), "--out", str(out)]) == 0
            blobs.append(_data_artifacts(out))
        assert blobs[0] == blobs[1], f"{sub} artifacts differ across reruns"

    # worker-pool size must not leak into any artifact byte
    for sub in ("lln", "clt", "mix", "moment"):
        cfg = tmp_path / f"{sub}.json"
        blobs = []
        for workers in (1, 4):
            out = tmp_path / f"{sub}-w{workers}"
            assert main([sub, "--config", str(cfg), "--out", str(out),
                         "--workers", str(workers)]) == 0
            blobs.append(_data_artifacts(out))
        assert blobs[0] == blobs[1], f"{sub} artifacts depend on worker count"

    report(9, "deterministic artifacts across reruns and worker pools", started,
           subcommands=len(cases))
