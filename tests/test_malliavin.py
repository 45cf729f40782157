"""Tangent/adjoint flows, Gram matrix closed forms, and cone spectral probes."""

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from torusmhd.galerkin import (
    EMPTY_NOISE,
    EquationParams,
    ModeBasis,
    NoiseSpec,
    SpectralState,
    bilinear_transform,
    simulate,
    trajectory_seed,
    triad_table,
    unit_mode_state,
    zero_state,
)
from torusmhd.lattice import COS, SIN, VELOCITY, MAGNETIC, make_mode, norm_sq
from torusmhd.malliavin import (
    ConeSpec,
    FrozenPath,
    MalliavinMatrix,
    adjoint_apply,
    assemble_malliavin,
    cone_infimum,
    jacobian_apply,
    sample_cone_state,
    second_variation_apply,
    unstable_quadratic_form,
)
from torusmhd.reachability import ForcedSet, check_hypothesis

from oracles import adjoint_profile, triad_jacobian

EXAMPLE_Z0 = [(0, 1), (1, 1), (1, 0), (1, 2)]


def nonlinear_path(seed=11, horizon=0.2, n_cut=3, scale=0.4):
    basis = ModeBasis(n_cut)
    params = EquationParams(alpha=1.5, beta=1.5, n_cut=n_cut, dt=1e-3)
    noise = NoiseSpec.uniform(EXAMPLE_Z0, 1.0)
    rng = np.random.default_rng(seed)
    u0 = SpectralState(basis, scale * rng.standard_normal(basis.dim))
    rec = simulate(u0, params, noise, horizon, seed=seed, snapshot_stride=1,
                   store_noise=True)
    return FrozenPath(rec), basis, params, noise, u0, rng


def linear_path(horizon=1.0, dt=1e-4, beta=1.0, n_cut=3,
                amplitudes=None, seed=4):
    basis = ModeBasis(n_cut)
    params = EquationParams(alpha=1.5, beta=beta, n_cut=n_cut, dt=dt,
                            nonlinearity_enabled=False)
    if amplitudes is None:
        amplitudes = {(0, 1): (0.7, 1.3), (1, 2): (0.5, 0.9)}
    noise = NoiseSpec.from_amplitudes(amplitudes)
    rec = simulate(zero_state(basis), params, noise, horizon, seed=seed,
                   snapshot_stride=1, store_noise=True)
    return FrozenPath(rec), basis, params, noise


class TestJacobian:
    def test_zero_path_is_heat_flow(self):
        basis = ModeBasis(3)
        params = EquationParams(alpha=1.4, beta=1.6, n_cut=3, dt=1e-3)
        rec = simulate(zero_state(basis), params, EMPTY_NOISE, 0.1, seed=0,
                       snapshot_stride=1)
        path = FrozenPath(rec)
        rng = np.random.default_rng(1)
        xi = SpectralState(basis, rng.standard_normal(basis.dim))
        out = jacobian_apply(path, xi, 0.0, 0.1)
        lam = basis.dissipation_array(params)
        assert np.max(np.abs(out.coeffs - np.exp(-lam * 0.1) * xi.coeffs)) < 1e-12

    def test_identity_at_equal_times(self):
        path, basis, *_ = nonlinear_path()
        rng = np.random.default_rng(2)
        xi = SpectralState(basis, rng.standard_normal(basis.dim))
        out = jacobian_apply(path, xi, 0.1, 0.1)
        assert np.array_equal(out.coeffs, xi.coeffs)

    def test_off_grid_time_rejected(self):
        path, basis, *_ = nonlinear_path()
        xi = SpectralState(basis, np.zeros(basis.dim))
        with pytest.raises(ValueError):
            jacobian_apply(path, xi, 0.00037, 0.1)

    def test_finite_difference_first_order(self):
        path, basis, params, noise, u0, rng = nonlinear_path()
        xi = SpectralState(basis, rng.standard_normal(basis.dim))
        jac = jacobian_apply(path, xi, 0.0, 0.2).coeffs
        errs = []
        for eps in (1e-3, 1e-4):
            up = SpectralState(basis, u0.coeffs + eps * xi.coeffs)
            rec_p = simulate(up, params, noise, 0.2, seed=0, snapshot_stride=1,
                             increments=path.record.noise_increments)
            fd = (rec_p.states[-1] - path.states[-1]) / eps
            errs.append(np.linalg.norm(fd - jac))
        assert errs[0] / errs[1] == pytest.approx(10.0, rel=0.25)


class TestAdjoint:
    def test_zero_path_is_heat_flow(self):
        basis = ModeBasis(3)
        params = EquationParams(alpha=1.4, beta=1.6, n_cut=3, dt=1e-3)
        rec = simulate(zero_state(basis), params, EMPTY_NOISE, 0.1, seed=0,
                       snapshot_stride=1)
        path = FrozenPath(rec)
        rng = np.random.default_rng(3)
        phi = SpectralState(basis, rng.standard_normal(basis.dim))
        out = adjoint_apply(path, phi, 0.02, 0.1)
        lam = basis.dissipation_array(params)
        assert np.max(np.abs(out.coeffs - np.exp(-lam * 0.08) * phi.coeffs)) < 1e-12

    def test_terminal_identity(self):
        path, basis, *_ = nonlinear_path()
        phi = SpectralState(basis, np.ones(basis.dim))
        out = adjoint_apply(path, phi, 0.2, 0.2)
        assert np.array_equal(out.coeffs, phi.coeffs)

    def test_triad_jacobian_matches_grid_linearization(self):
        # the adjoint multiplies by the transpose of this very matrix
        path, basis, *_ = nonlinear_path()
        u, eye = path.states[37], np.eye(basis.dim)
        grid = bilinear_transform(basis, u, eye) + bilinear_transform(basis, eye, u)
        jac = triad_jacobian(triad_table(basis.n_cut), path.states[37])
        assert np.max(np.abs(jac - grid.T)) < 1e-12  # grid rows are L e_i

    def test_duality(self):
        path, basis, *_ = nonlinear_path()
        rng = np.random.default_rng(4)
        for _ in range(3):
            xi = SpectralState(basis, rng.standard_normal(basis.dim))
            phi = SpectralState(basis, rng.standard_normal(basis.dim))
            a = jacobian_apply(path, xi, 0.0, 0.2).coeffs @ phi.coeffs
            b = xi.coeffs @ adjoint_apply(path, phi, 0.0, 0.2).coeffs
            assert abs(a - b) <= 1e-8 * max(abs(a), abs(b))


class TestSecondVariation:
    def test_vanishes_without_nonlinearity(self):
        path, basis, params, noise = linear_path(horizon=0.01, dt=1e-3)
        rng = np.random.default_rng(5)
        xi = SpectralState(basis, rng.standard_normal(basis.dim))
        xi2 = SpectralState(basis, rng.standard_normal(basis.dim))
        out = second_variation_apply(path, xi, xi2, 0.0, 0.01)
        assert np.max(np.abs(out.coeffs)) == 0.0

    def test_symmetry(self):
        path, basis, params, noise, u0, rng = nonlinear_path()
        xi = SpectralState(basis, rng.standard_normal(basis.dim))
        xi2 = SpectralState(basis, rng.standard_normal(basis.dim))
        a = second_variation_apply(path, xi, xi2, 0.0, 0.2)
        b = second_variation_apply(path, xi2, xi, 0.0, 0.2)
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-10

    def test_finite_difference_of_jacobian(self):
        path, basis, params, noise, u0, rng = nonlinear_path()
        xi = SpectralState(basis, rng.standard_normal(basis.dim))
        xi2 = SpectralState(basis, rng.standard_normal(basis.dim))
        second = second_variation_apply(path, xi, xi2, 0.0, 0.2).coeffs

        def jac_at(u_init):
            rec = simulate(u_init, params, noise, 0.2, seed=0, snapshot_stride=1,
                           increments=path.record.noise_increments)
            return jacobian_apply(FrozenPath(rec), xi, 0.0, 0.2).coeffs

        base = jac_at(u0)
        errs = []
        for eps in (1e-3, 1e-4):
            up = SpectralState(basis, u0.coeffs + eps * xi2.coeffs)
            fd = (jac_at(up) - base) / eps
            errs.append(np.linalg.norm(fd - second))
        assert errs[0] / errs[1] == pytest.approx(10.0, rel=0.25)


def quadratic_form(path, noise, phi):
    """<M_{0,T} phi, phi> from the Gram matrix over the whole truncation."""
    return float(phi.coeffs @ assemble_malliavin(path, noise).gram @ phi.coeffs)


class TestQuadraticForm:
    def test_velocity_mode_on_linear_path_gives_zero(self):
        path, basis, params, noise = linear_path(horizon=0.05, dt=1e-3)
        phi = unit_mode_state(basis, make_mode(VELOCITY, (1, 1), COS))
        assert quadratic_form(path, noise, phi) == 0.0

    def test_forced_mode_ou_integral(self):
        path, basis, params, noise = linear_path(
            horizon=1.0, dt=1e-4, amplitudes={(0, 1): (0.7, 1.3)})
        phi = unit_mode_state(basis, make_mode(MAGNETIC, (0, 1), COS))
        got = quadratic_form(path, noise, phi)
        want = 0.7**2 * (1.0 - math.exp(-2.0)) / 2.0
        assert got == pytest.approx(want, rel=1e-6)

    def test_nonnegative_on_random_states(self):
        path, basis, params, noise, u0, rng = nonlinear_path()
        gram = assemble_malliavin(path, noise).gram
        for _ in range(5):
            phi = rng.standard_normal(basis.dim)
            assert phi @ gram @ phi >= -1e-12


class TestAssemble:
    def test_linear_regime_diagonal_closed_form(self):
        path, basis, params, noise = linear_path(horizon=1.0, dt=1e-4)
        mat = assemble_malliavin(path, noise)
        g = mat.gram
        off = g - np.diag(np.diag(g))
        assert np.max(np.abs(off)) < 1e-10
        forced = {(e.k, e.parity): e.amplitude for e in noise.entries}
        for i, mode in enumerate(mat.modes):
            key = (mode.k, mode.parity)
            if mode.slot == MAGNETIC and key in forced:
                lam = float(norm_sq(mode.k)) ** params.beta
                want = forced[key] ** 2 * (1 - math.exp(-2 * lam)) / (2 * lam)
                assert g[i, i] == pytest.approx(want, rel=1e-6)
            else:
                assert abs(g[i, i]) < 1e-10

    def test_diagonal_consistent_with_quadratic_form(self):
        # <M phi, phi> summed by the trapezoid rule over the buffered levels of phi
        path, basis, params, noise = linear_path(horizon=0.2, dt=1e-3)
        mat = assemble_malliavin(path, noise)
        mode = make_mode(MAGNETIC, (0, 1), SIN)
        phi = unit_mode_state(basis, mode)
        forced = adjoint_profile(path, phi.coeffs, 0.0, 0.2)[:, noise.mode_indices(basis)]
        w = np.full(path.n_steps + 1, path.dt)
        w[0] = w[-1] = 0.5 * path.dt
        qf = float(w @ (forced**2 @ noise.amplitudes() ** 2))
        i = list(mat.mode_indices).index(basis.mode_index(mode))
        assert abs(qf - mat.gram[i, i]) < 1e-12

    def test_symmetry_raw(self):
        path, basis, params, noise, u0, rng = nonlinear_path(horizon=0.1)
        mat = assemble_malliavin(path, noise)
        assert np.max(np.abs(mat.gram - mat.gram.T)) < 1e-12

    def test_psd_and_finite_nonlinear(self):
        path, basis, params, noise, u0, rng = nonlinear_path(horizon=0.3)
        mat = assemble_malliavin(path, noise)
        assert np.all(np.isfinite(mat.gram))
        assert np.trace(mat.gram) > 0
        eigs = mat.eigenvalues()
        assert eigs[0] >= -1e-10 * max(eigs[-1], 1.0)

    def test_sub_level_assembly(self):
        path, basis, params, noise = linear_path(horizon=0.1, dt=1e-3)
        mat = assemble_malliavin(path, noise, n_level=1)
        assert all(norm_sq(m.k) <= 1 for m in mat.modes)
        assert mat.gram.shape == (len(mat.modes),) * 2


class TestStreamedSweep:
    """The one backward sweep against the buffered levels it replaced."""

    @staticmethod
    def buffered_gram(path, noise, n_level):
        sel = path.basis.level_indices(n_level)
        phi0 = np.zeros((len(sel), path.basis.dim))
        phi0[np.arange(len(sel)), sel] = 1.0
        prof = adjoint_profile(path, phi0, 0.0, 0.2)[:, :, noise.mode_indices(path.basis)]
        w = np.full(path.n_steps + 1, path.dt)
        w[0] = w[-1] = 0.5 * path.dt
        flat = np.moveaxis(prof * np.sqrt(w)[:, None, None] * noise.amplitudes(), 1, 0)
        flat = flat.reshape(len(sel), -1)
        return flat @ flat.T

    @pytest.mark.parametrize("n_level", [None, 1])
    def test_gram_matches_buffered_levels(self, n_level):
        path, basis, params, noise, u0, rng = nonlinear_path()
        mat = assemble_malliavin(path, noise, n_level=n_level)
        want = self.buffered_gram(path, noise, n_level or basis.n_cut)
        assert np.max(np.abs(mat.gram - want)) < 1e-12 * np.max(np.abs(want))
        assert np.array_equal(mat.gram, mat.gram.T)
        assert mat.probe_profiles is None

    def test_probe_profiles_match_adjoint_profile(self):
        path, basis, params, noise, u0, rng = nonlinear_path()
        probes = rng.standard_normal((2, basis.dim))
        mat = assemble_malliavin(path, noise, n_level=1, probes=probes)
        want = adjoint_profile(path, probes, 0.0, 0.2)[:, :, noise.mode_indices(basis)]
        assert mat.probe_profiles.shape == (path.n_steps + 1, 2, noise.dim)
        assert np.max(np.abs(mat.probe_profiles - want)) < 1e-12 * np.max(np.abs(want))
        # the probes ride along without entering the Gram matrix
        alone = assemble_malliavin(path, noise, n_level=1).gram
        assert np.max(np.abs(mat.gram - alone)) < 1e-12 * np.max(np.abs(alone))

    def test_step_matrix_is_decayed_jacobian_step(self):
        path, basis, *_ = nonlinear_path()
        for n in (0, 37, path.n_steps - 1):
            jac = triad_jacobian(triad_table(basis.n_cut), path.states[n])
            want = path.decay[:, None] * (np.eye(basis.dim) - path.dt * jac)
            assert np.max(np.abs(path.step_matrix(n) - want)) < 1e-14

    def test_memory_independent_of_step_count(self):
        # the buffered levels, (n + 1, 96, 96) float64, would take 37 MB at
        # T=0.5 and 147 MB at T=2
        code = textwrap.dedent("""
            import tracemalloc
            from torusmhd.galerkin import (EquationParams, ModeBasis, NoiseSpec,
                                           simulate, zero_state)
            from torusmhd.malliavin import FrozenPath, assemble_malliavin

            params = EquationParams(alpha=1.5, beta=1.5, n_cut=4, dt=1e-3)
            noise = NoiseSpec.uniform([(0, 1), (1, 1), (1, 0), (1, 2)], 1.0)
            for horizon in (0.5, 2.0):
                rec = simulate(zero_state(ModeBasis(4)), params, noise, horizon,
                               seed=3, snapshot_stride=1)
                path = FrozenPath(rec)
                tracemalloc.start()
                assemble_malliavin(path, noise, probes=path.states[:1])
                print(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        """)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True)
        peaks = [int(v) for v in out.stdout.split()]
        assert len(peaks) == 2 and max(peaks) < 2 * 2**20, peaks


def diag_matrix(values, modes):
    return MalliavinMatrix(gram=np.diag(np.asarray(values, dtype=float)),
                           modes=modes, mode_indices=np.arange(len(modes)),
                           horizon=1.0, quadrature_steps=10)


class TestConeInfimum:
    def test_full_space_diag(self):
        modes = [make_mode(MAGNETIC, (0, 1), COS), make_mode(MAGNETIC, (0, 1), SIN)]
        rep = cone_infimum(diag_matrix([2.0, 3.0], modes),
                           ConeSpec(alpha=1.0, n=1), samples=40, seed=0)
        assert rep.compressed_min_eig == pytest.approx(2.0, abs=1e-12)
        assert rep.sampled_inf == pytest.approx(2.0, abs=1e-12)
        assert rep.dual_lower_bound == pytest.approx(2.0, abs=1e-9)

    def test_two_dim_cone_hand_optimum(self):
        # G = diag(1, 0), P selects the first coordinate, alpha = 1/2:
        # the cone minimum is 1/2 and strong duality happens to hold
        modes = [make_mode(MAGNETIC, (0, 1), COS), make_mode(MAGNETIC, (2, 0), COS)]
        rep = cone_infimum(diag_matrix([1.0, 0.0], modes),
                           ConeSpec(alpha=0.5, n=1), samples=200, seed=1)
        assert rep.sampled_inf == pytest.approx(0.5, abs=1e-9)
        assert rep.dual_lower_bound <= rep.sampled_inf + 1e-12
        assert rep.dual_lower_bound == pytest.approx(0.5, abs=1e-3)
        assert rep.compressed_min_eig == pytest.approx(1.0, abs=1e-12)

    def test_bound_ordering_random_psd(self):
        rng = np.random.default_rng(7)
        basis = ModeBasis(2)
        modes = basis.modes()
        a = rng.standard_normal((len(modes), len(modes)))
        mat = MalliavinMatrix(gram=a @ a.T, modes=modes,
                              mode_indices=np.arange(len(modes)),
                              horizon=1.0, quadrature_steps=10)
        rep = cone_infimum(mat, ConeSpec(alpha=0.5, n=1), samples=100, seed=2)
        assert rep.dual_lower_bound <= rep.sampled_inf + 1e-10

    @staticmethod
    def grid_and_brent_dual(mat, cone):
        """The dual bound by a 62-point mu grid refined by scipy's bounded Brent search."""
        from scipy.optimize import minimize_scalar

        g = mat.symmetrized()
        shift = np.diag([(norm_sq(m.k) <= cone.n**2) - cone.alpha for m in mat.modes])
        dual_val = lambda mu: float(np.linalg.eigvalsh(g - mu * shift)[0])
        scale = np.trace(g) / len(g)
        grid = np.concatenate([[0.0], np.geomspace(1e-6 * scale, 1e3 * scale, 61)])
        values = [dual_val(mu) for mu in grid]
        i = int(np.argmax(values))
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
        res = minimize_scalar(lambda mu: -dual_val(mu), bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-12 * max(hi, 1.0)})
        return max(values[i], -float(res.fun))

    @pytest.fixture(scope="class")
    def gram_matrices(self):
        rng = np.random.default_rng(17)
        modes = ModeBasis(3).modes()
        mats = []
        for rank in (len(modes), len(modes) // 2, 5):
            a = rng.standard_normal((len(modes), rank)) * np.exp(rng.uniform(-3, 3, (len(modes), 1)))
            mats.append(MalliavinMatrix(gram=a @ a.T, modes=modes, horizon=1.0,
                                        mode_indices=np.arange(len(modes)), quadrature_steps=10))
        # Gram matrices of the criterion-6 probe
        params = EquationParams(alpha=1.5, beta=1.5, n_cut=3, dt=1e-3)
        noise = NoiseSpec.uniform(EXAMPLE_Z0, 1.0)
        for p in range(2):
            rec = simulate(zero_state(ModeBasis(3)), params, noise, 1.0, trajectory_seed(1234, p))
            mats.append(assemble_malliavin(FrozenPath(rec), noise))
        return mats

    @pytest.mark.parametrize("alpha, n", [(0.5, 1), (0.1, 2), (0.9, 1)])
    def test_golden_section_dual_keeps_the_grid_and_brent_bound(self, gram_matrices, alpha, n):
        cone = ConeSpec(alpha=alpha, n=n)
        for mat in gram_matrices:
            rep = cone_infimum(mat, cone, samples=50, seed=3)
            assert rep.dual_lower_bound <= rep.sampled_inf
            tol = 1e-9 * np.trace(mat.gram) / len(mat.gram)
            assert rep.dual_lower_bound >= self.grid_and_brent_dual(mat, cone) - tol

    def test_bad_cone_spec_rejected(self):
        with pytest.raises(ValueError):
            ConeSpec(alpha=0.0, n=1)
        with pytest.raises(ValueError):
            ConeSpec(alpha=1.2, n=1)


class TestUnstableQuadraticForm:
    def test_forced_unit_mode_counts_once(self):
        basis = ModeBasis(3)
        forced = ForcedSet.from_wavevectors(EXAMPLE_Z0)
        phi = unit_mode_state(basis, make_mode(MAGNETIC, (0, 1), COS))
        assert unstable_quadratic_form(phi, forced, 2) == pytest.approx(1.0)

    def test_unreachable_support_gives_zero(self):
        basis = ModeBasis(3)
        forced = ForcedSet.from_wavevectors([(0, 1), (0, 2)])  # collinear
        phi = unit_mode_state(basis, make_mode(VELOCITY, (1, 1), SIN))
        assert unstable_quadratic_form(phi, forced, 3) == 0.0

    def test_lower_bound_on_certified_coverage(self):
        # gate: generations up to 2N+1 must span the level-N block before
        # the alpha/2 bound is asserted
        n_level = 2
        basis = ModeBasis(3)
        forced = ForcedSet.from_wavevectors(EXAMPLE_Z0)
        report = check_hypothesis(forced, radius=n_level, max_depth=2 * n_level + 1)
        assert report.even_covered and report.odd_covered
        alpha = 0.5
        cone = ConeSpec(alpha=alpha, n=n_level)
        rng = np.random.default_rng(3)
        for _ in range(200):
            phi = sample_cone_state(basis, cone, rng)
            q = unstable_quadratic_form(phi, forced, n_level)
            assert q >= 0.5 * alpha * float(phi.coeffs @ phi.coeffs) - 1e-12
