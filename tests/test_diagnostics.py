"""Time averages, CLT machinery, mixing decay and the moment probe."""

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from torusmhd import diagnostics, galerkin
from torusmhd.diagnostics import (
    PATH_STREAM,
    PILOT_STREAM,
    Observable,
    clt_sample,
    cone_seed,
    exp_moment_ensemble,
    ks_against_fitted_normal,
    mixing_decay_estimate,
    normalized_integral,
    time_average,
    trajectory_seed,
)
from torusmhd.galerkin import (
    EMPTY_NOISE,
    EquationParams,
    ModeBasis,
    NoiseSpec,
    SpectralState,
    simulate,
    trajectory_rngs,
    unit_mode_state,
    zero_state,
)
from torusmhd.lattice import COS, MAGNETIC, make_mode


def ou_setup(dt=0.02, amp=1.0):
    basis = ModeBasis(2)
    params = EquationParams(alpha=1.5, beta=1.0, n_cut=2, dt=dt,
                            nonlinearity_enabled=False)
    noise = NoiseSpec.from_amplitudes({(0, 1): (amp, amp)})
    mode = make_mode(MAGNETIC, (0, 1), COS)
    return basis, params, noise, mode


class TestObservable:
    def test_kinds(self):
        basis, params, noise, mode = ou_setup()
        s = unit_mode_state(basis, mode, 0.3)
        assert Observable("mode_coefficient", mode)(s) == pytest.approx(0.3)
        assert Observable("mode_coefficient_squared", mode)(s) == pytest.approx(0.09)
        assert Observable("total_energy")(s) == pytest.approx(0.09)
        assert Observable("bounded_lipschitz", mode, scale=2.0)(s) == \
            pytest.approx(math.tanh(0.6))

    def test_bounded_lipschitz_is_bounded(self):
        basis, params, noise, mode = ou_setup()
        obs = Observable("bounded_lipschitz", mode, scale=5.0)
        s = unit_mode_state(basis, mode, 1e6)
        assert abs(obs(s)) <= 1.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Observable("energy_flux")

    def test_mode_required(self):
        with pytest.raises(ValueError):
            Observable("mode_coefficient")


class TestTimeAverage:
    def test_constant_observable(self):
        basis, params, noise, mode = ou_setup()
        rec = simulate(zero_state(basis), params, EMPTY_NOISE, 1.0, seed=0)
        obs = Observable("total_energy")  # identically zero trajectory
        rep = time_average(rec, obs)
        assert rep.estimate == 0.0 and rep.standard_error == 0.0
        # a genuinely constant nonzero observable stream
        rec.states[:] = 0.0
        rec.states[:, basis.mode_index(mode)] = 2.0
        rep = time_average(rec, Observable("mode_coefficient", mode))
        assert rep.estimate == pytest.approx(2.0, abs=1e-14)
        assert rep.standard_error == 0.0

    def test_ou_second_moment(self):
        basis, params, noise, mode = ou_setup()
        rec = simulate(zero_state(basis), params, noise, 2000.0, seed=42)
        rep = time_average(rec, Observable("mode_coefficient_squared", mode),
                           burn_in=20.0)
        assert rep.estimate == pytest.approx(0.5, rel=0.10)

    def test_two_windows_agree(self):
        basis, params, noise, mode = ou_setup()
        obs = Observable("mode_coefficient_squared", mode)
        rec = simulate(zero_state(basis), params, noise, 3000.0, seed=7)
        n = len(rec.times)
        first = rec.times[n // 4]
        half = rec.times[n // 2]
        rec_a = type(rec)(basis=rec.basis, params=rec.params, noise=rec.noise,
                          seed=rec.seed, dt=rec.dt, n_steps=rec.n_steps,
                          snapshot_stride=1, times=rec.times[rec.times <= half],
                          states=rec.states[rec.times <= half])
        rep_a = time_average(rec_a, obs, burn_in=float(first))
        rep_b = time_average(rec, obs, burn_in=float(half))
        combined = math.hypot(rep_a.standard_error, rep_b.standard_error)
        assert abs(rep_a.estimate - rep_b.estimate) <= 3.0 * combined

    def test_dissipative_decay_to_zero(self):
        basis, params, noise, mode = ou_setup(dt=1e-2)
        u0 = unit_mode_state(basis, mode, 1.0)
        rec = simulate(u0, params, EMPTY_NOISE, 8.0, seed=0)
        rep = time_average(rec, Observable("mode_coefficient", mode), burn_in=4.0)
        assert abs(rep.estimate) <= math.exp(-4.0)

    def test_empty_window_rejected(self):
        basis, params, noise, mode = ou_setup()
        rec = simulate(zero_state(basis), params, EMPTY_NOISE, 0.1, seed=0)
        with pytest.raises(ValueError):
            time_average(rec, Observable("total_energy"), burn_in=1.0)

    def test_reduces_before_masking(self):
        # reducing the whole record and then masking equals the old route,
        # which copied the kept states first, on a nonlinear record
        basis = ModeBasis(3)
        params = EquationParams(alpha=1.5, beta=1.5, n_cut=3, dt=0.01)
        noise = NoiseSpec.uniform([(0, 1), (1, 1), (1, 0), (1, 2)], 0.8)
        mode = make_mode(MAGNETIC, (1, 1), COS)
        u0 = SpectralState(basis, 0.3 * np.random.default_rng(2).standard_normal(basis.dim))
        rec = simulate(u0, params, noise, 1.0, seed=4, snapshot_stride=3)
        burn_in = 0.25
        mask = rec.times >= burn_in - 1e-12
        times = rec.times[mask]
        for obs in (Observable("total_energy"), Observable("mode_coefficient", mode),
                    Observable("bounded_lipschitz", mode, scale=2.0)):
            values = obs.of_states(basis, rec.states[mask])
            estimate = float(np.trapezoid(values, times) / (times[-1] - times[0]))
            batches = values[:(len(values) // 20) * 20].reshape(20, -1).mean(axis=1)
            se = float(batches.std(ddof=1) / math.sqrt(20))
            rep = time_average(rec, obs, burn_in=burn_in)
            assert (rep.estimate, rep.standard_error, rep.sample_count) == \
                (estimate, se, len(values))


class TestClt:
    def test_ks_calibration_on_synthetic_normals(self):
        rng = np.random.default_rng(0)
        samples = rng.standard_normal(400)
        stat, p = ks_against_fitted_normal(samples)
        assert p > 0.01

    def test_normalized_integral_of_constant_is_zero(self):
        times = np.linspace(0.0, 4.0, 101)
        vals = np.full_like(times, 2.5)
        assert normalized_integral(vals, times, 2.5) == pytest.approx(0.0, abs=1e-14)

    def test_degenerate_variance_rejected(self):
        with pytest.raises(ValueError):
            ks_against_fitted_normal(np.ones(50))

    def test_ou_long_run_variance_smoke(self):
        # squared-coefficient observable of a unit-amplitude OU mode with
        # lam = 1: long-run variance of the normalized integral is
        # 2 * integral of cov(s) ds = amp^4 / (2 lam^3) = 1/2.
        # Desk-size run here; the acceptance suite runs the full version.
        basis, params, noise, mode = ou_setup()
        obs = Observable("mode_coefficient_squared", mode)
        rep = clt_sample(zero_state(basis), params, noise, obs, horizon=100.0,
                         n_replicas=150, seed=31, pilot_horizon=1000.0)
        assert rep.sample_variance == pytest.approx(0.5, rel=0.35)
        assert rep.ks_pvalue > 0.01

    def test_replica_floor(self):
        basis, params, noise, mode = ou_setup()
        with pytest.raises(ValueError):
            clt_sample(zero_state(basis), params, noise,
                       Observable("total_energy"), 1.0, 1, seed=0)


class TestMixing:
    def test_identical_initial_states_not_identifiable(self):
        basis, params, noise, mode = ou_setup()
        obs = Observable("mode_coefficient", mode)
        u0 = zero_state(basis)
        u1 = zero_state(basis)
        rep = mixing_decay_estimate(u0, u1, params, noise, obs, horizon=2.0,
                                    n_replicas=60, seed=3, snapshot_stride=10)
        assert not rep.identifiable
        assert math.isnan(rep.gamma_hat)

    def test_ou_mean_decay_rate(self):
        basis, params, noise, mode = ou_setup()
        obs = Observable("mode_coefficient", mode)
        u0a = zero_state(basis)
        u0b = unit_mode_state(basis, mode, 4.0)
        rep = mixing_decay_estimate(u0a, u0b, params, noise, obs, horizon=4.0,
                                    n_replicas=400, seed=9, snapshot_stride=5)
        assert rep.identifiable
        assert rep.gamma_hat == pytest.approx(1.0, rel=0.15)
        assert rep.r_squared > 0.8

    def test_worker_count_invariance(self):
        # the estimator takes no worker count; a rerun with the
        # same seed must reproduce the decay curve bit for bit
        basis, params, noise, mode = ou_setup()
        obs = Observable("mode_coefficient", mode)
        u0a = zero_state(basis)
        u0b = unit_mode_state(basis, mode, 2.0)
        rep1, rep2 = (mixing_decay_estimate(u0a, u0b, params, noise, obs, horizon=1.0,
                                            n_replicas=40, seed=5, snapshot_stride=10)
                      for _ in range(2))
        assert np.array_equal(rep1.abs_diff, rep2.abs_diff)


class TestBatchedEnsembles:
    """One batched time loop against per-seed simulate and the same reduction."""

    @pytest.mark.parametrize("n_cut", [3, 9])
    def test_matches_per_seed_simulate(self, n_cut):
        basis = ModeBasis(n_cut)
        params = EquationParams(alpha=1.5, beta=1.5, n_cut=n_cut, dt=0.01)
        noise = NoiseSpec.uniform([(0, 1), (1, 1), (1, 0), (1, 2)], 0.8)
        mode = make_mode(MAGNETIC, (0, 1), COS)
        obs = Observable("bounded_lipschitz", mode, scale=2.0)
        u0 = SpectralState(basis, 0.3 * np.random.default_rng(n_cut).standard_normal(basis.dim))
        u1 = unit_mode_state(basis, mode, 2.0)
        # 20 steps on a stride-3 grid, so the last snapshot is off the stride
        horizon, stride, burn_in, pilot_horizon, n, seed = 0.2, 3, 0.05, 0.4, 3, 11

        def record(u, stream, T=horizon):
            return simulate(u, params, noise, T, trajectory_seed(seed, stream),
                            snapshot_stride=stride)

        m_hat = time_average(record(u0, PILOT_STREAM, pilot_horizon), obs,
                             burn_in=burn_in).estimate
        samples = []
        for i in range(n):
            rec = record(u0, i)
            keep = rec.times >= burn_in - 1e-12
            samples.append(normalized_integral(obs.of_states(basis, rec.states[keep]),
                                               rec.times[keep], m_hat))
        clt = clt_sample(u0, params, noise, obs, horizon, n, seed,
                         pilot_horizon=pilot_horizon, burn_in=burn_in,
                         snapshot_stride=stride)
        assert clt.m_hat == m_hat
        assert np.array_equal(clt.samples, samples)

        def moments(u, tag):
            vals = np.array([obs.of_states(basis, record(u, tag * n + i).states)
                             for i in range(n)])
            return vals.mean(axis=0), vals.var(axis=0, ddof=1) / n

        (mean_a, var_a), (mean_b, var_b) = moments(u0, 1), moments(u1, 2)
        mix = mixing_decay_estimate(u0, u1, params, noise, obs, horizon, n, seed,
                                    snapshot_stride=stride)
        assert np.array_equal(mix.times, record(u0, 0).times)
        assert np.array_equal(mix.abs_diff, np.abs(mean_a - mean_b))
        assert np.array_equal(mix.noise_floor, 3.0 * np.sqrt(var_a + var_b))

        probes = exp_moment_ensemble(u0, params, noise, horizon, n, seed, 0.05,
                                     snapshot_stride=stride)
        for i, probe in enumerate(probes):
            rec = record(u0, i)
            alone = diagnostics._moment_series(
                rec.times, *diagnostics._energy_and_dissipation(basis, rec.states, params).T,
                0.05)
            assert np.array_equal(probe.times, alone.times)
            assert np.array_equal(probe.log_statistic, alone.log_statistic)

    def test_reducing_in_chunks_changes_no_bit(self, monkeypatch):
        # the time loop reduces the snapshots of each block of steps as the
        # block ends; blocks of one step, and blocks that end partway through
        # the stride-3 snapshot grid and the noise blocks, must give the same
        # values as the default blocks, which hold each whole run
        basis = ModeBasis(3)
        params = EquationParams(alpha=1.5, beta=1.5, n_cut=3, dt=0.01)
        noise = NoiseSpec.uniform([(0, 1), (1, 1)], 0.8)
        obs = Observable("total_energy")
        u0 = SpectralState(basis, 0.3 * np.random.default_rng(2).standard_normal(basis.dim))
        u1 = SpectralState(basis, np.zeros(basis.dim))

        def run():
            clt = clt_sample(u0, params, noise, obs, 0.1, 3, seed=4, pilot_horizon=0.2)
            moments = exp_moment_ensemble(u0, params, noise, 0.1, 2, seed=4, eta=0.1)
            mix = mixing_decay_estimate(u0, u1, params, noise, obs, 0.1, 3, seed=4,
                                        snapshot_stride=3)
            return ([clt.m_hat, *clt.samples] + [m.log_statistic for m in moments]
                    + [mix.times, mix.abs_diff, mix.noise_floor])

        whole = run()
        assert galerkin.STEP_BLOCK > 21 * 3 * basis.dim
        # 15 dim: blocks of 14 pilot steps, 6 steps of two rows, 4 of three
        for step_block in (1, 15 * basis.dim):
            with monkeypatch.context() as patch:
                patch.setattr(galerkin, "STEP_BLOCK", step_block)
                patch.setattr(galerkin, "NOISE_BLOCK", 5 * 3 * noise.dim)
                assert all(np.array_equal(a, b) for a, b in zip(whole, run()))

    @pytest.mark.parametrize("probe", [
        "clt_sample(u0, params, noise, obs, horizon=50.0, n_replicas=50, seed=3)",
        "mixing_decay_estimate(u0, unit_mode_state(basis, mode, 3.0), params, noise, obs, "
        "horizon=50.0, n_replicas=50, seed=3)",
    ], ids=["clt_sample", "mixing_decay_estimate"])
    def test_clt_memory_holds_reduced_values_only(self, probe):
        # the states of all replicas of one ensemble, (50, 2501, 24) float64,
        # would take 24 MB
        code = textwrap.dedent("""
            import tracemalloc
            from torusmhd.diagnostics import Observable, clt_sample, mixing_decay_estimate
            from torusmhd.galerkin import (EquationParams, NoiseSpec, ModeBasis,
                                           unit_mode_state, zero_state)
            from torusmhd.lattice import COS, MAGNETIC, make_mode

            basis = ModeBasis(2)
            params = EquationParams(alpha=1.5, beta=1.0, n_cut=2, dt=0.02,
                                    nonlinearity_enabled=False)
            noise = NoiseSpec.from_amplitudes({(0, 1): (1.0, 1.0)})
            mode = make_mode(MAGNETIC, (0, 1), COS)
            obs = Observable("mode_coefficient_squared", mode)
            u0 = zero_state(basis)
            from scipy import stats  # clt_sample imports it; keep the import untraced
            tracemalloc.start()
            %s
            print(tracemalloc.get_traced_memory()[1])
        """) % probe
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True)
        assert int(out.stdout) < 50 * 2501 * 24 * 8 / 4


class TestStreams:
    @staticmethod
    def state(seed):
        return tuple(np.random.default_rng(seed).integers(0, 2**63, size=2))

    def test_cone_streams_disjoint_from_trajectory_streams(self):
        # cone sampling once used trajectory_seed(master, 10_000 + p), which is
        # the stream of path 10_000 + p
        master = 1234
        paths = {self.state(trajectory_seed(master, i)) for i in range(20_050)}
        paths.add(self.state(trajectory_seed(master, PILOT_STREAM)))
        cones = {self.state(cone_seed(master, p)) for p in range(50)}
        assert len(cones) == 50
        assert not cones & paths
        assert self.state(cone_seed(master, 7)) == self.state(cone_seed(master, 7))
        assert self.state(cone_seed(master, 7)) != self.state(cone_seed(master + 1, 7))

    def test_master_seeds_stop_below_2_to_the_32(self):
        # SeedSequence splits a seed into 32-bit words and zero-pads them to
        # four, so stream 0 of 2**32 + 5 is stream 1 of 5
        assert self.state((2**32 + 5, 0)) == self.state(trajectory_seed(5, 1))
        for master in (2**32, 2**32 + 5, -1):
            with pytest.raises(ValueError, match="master seed"):
                trajectory_seed(master, 0)
            with pytest.raises(ValueError, match="master seed"):
                cone_seed(master, 0)
        assert trajectory_seed(2**32 - 1, 0) == (2**32 - 1, 0)
        assert cone_seed(2**32 - 1, 0).entropy == 2**32 - 1

    def test_stream_indices_stop_below_2_to_the_64(self):
        # a longer index hashes more than four words and can then reach a cone
        # stream: (1234, 2**96 + 3 * 2**128) is the entropy of cone_seed(1234, 3)
        assert self.state((1234, 2**96 + 3 * 2**128)) == self.state(cone_seed(1234, 3))
        for index in (2**64, 2**96 + 3 * 2**128, -1):
            with pytest.raises(ValueError, match="stream index"):
                trajectory_seed(1234, index)
            with pytest.raises(ValueError, match="stream index"):
                trajectory_rngs(1234, [0, index])
        assert trajectory_seed(1234, 2**64 - 1) == (1234, 2**64 - 1)

    @pytest.mark.parametrize("master", [0, 1, 2**31, 2**32 - 1])
    def test_vectorized_seeding_draws_the_default_rng_streams(self, master):
        # one, two and three entropy words before the pool's padding, both
        # halves of the index at their extremes, and the reserved streams
        streams = [0, 1, 199, 2**31, 2**32 - 1, 2**32, 2**40 + 7, 2**64 - 1,
                   PILOT_STREAM, PATH_STREAM]
        rngs = trajectory_rngs(master, streams)
        assert len(rngs) == len(streams)
        for index, rng in zip(streams, rngs):
            want = np.random.default_rng(trajectory_seed(master, index))
            assert np.array_equal(rng.standard_normal(4), want.standard_normal(4)), index
            assert np.array_equal(rng.random(4), want.random(4)), index
            assert np.array_equal(rng.integers(0, 2**63, 4), want.integers(0, 2**63, 4)), index
        assert trajectory_rngs(master, []) == []


class TestMomentProbe:
    def test_zero_state_statistic_is_one(self):
        basis, params, noise, mode = ou_setup()
        probe, = exp_moment_ensemble(zero_state(basis), params, EMPTY_NOISE, 1.0, 1,
                                     seed=0, eta=0.5)
        assert np.max(np.abs(probe.log_statistic)) == 0.0
        assert np.all(probe.statistic() == 1.0)

    def test_zero_noise_log_statistic_nonincreasing(self):
        basis, params, noise, mode = ou_setup(dt=1e-3)
        rng = np.random.default_rng(6)
        u0 = SpectralState(basis, 0.8 * rng.standard_normal(basis.dim))
        params_nl = EquationParams(alpha=1.5, beta=1.2, n_cut=2, dt=1e-3)
        probe, = exp_moment_ensemble(u0, params_nl, EMPTY_NOISE, 2.0, 1, seed=0, eta=0.3)
        assert np.all(np.diff(probe.log_statistic) <= 1e-12)

    def test_forced_run_stays_bounded(self):
        basis, params, noise, mode = ou_setup(dt=1e-2)
        params_nl = EquationParams(alpha=1.5, beta=1.5, n_cut=2, dt=1e-2)
        probe, = exp_moment_ensemble(zero_state(basis), params_nl, noise, 50.0, 1,
                                     seed=17, eta=0.05)
        assert np.all(np.isfinite(probe.log_statistic))
        assert np.max(probe.log_statistic) < 5.0

    def test_eta_must_be_positive(self):
        basis, params, noise, mode = ou_setup()
        with pytest.raises(ValueError):
            exp_moment_ensemble(zero_state(basis), params, EMPTY_NOISE, 0.1, 1, seed=0,
                                eta=0.0)
