"""Integrator exactness, bilinear form equivalence, and the energy identity."""

import math

import numpy as np
import pytest

from torusmhd import galerkin
from torusmhd.galerkin import (
    EMPTY_NOISE,
    EquationParams,
    ModeBasis,
    NoiseSpec,
    SimulationError,
    SpectralState,
    bilinear_convolution,
    bilinear_transform,
    default_grid,
    energy_balance_residual,
    ensemble,
    simulate,
    snapshot_steps,
    sobolev_energy,
    trajectory_seed,
    transform_square,
    triad_table,
    unit_mode_state,
    zero_state,
)
from torusmhd.lattice import BASIS_NORM, COS, SIN, VELOCITY, MAGNETIC, make_mode, norm_sq

from oracles import embed_coeffs, fft_bilinear, triad_jacobian


def make_params(**kw):
    defaults = dict(alpha=1.5, beta=1.5, n_cut=3, dt=1e-3, nonlinearity_enabled=True)
    defaults.update(kw)
    return EquationParams(**defaults)


def one_step(state, params, noise, dw=None):
    """One step of the time loop: ``simulate`` over one dt on the given increments."""
    dw = np.zeros(noise.dim) if dw is None else np.asarray(dw, dtype=float)
    rec = simulate(state, params, noise, params.dt, seed=0, increments=dw[None])
    return SpectralState(state.basis, rec.states[-1], float(rec.times[-1]))


class TestBasis:
    def test_dimension_counts_full_ball(self):
        basis = ModeBasis(2)
        # canonical wavevectors with 0 < |k| <= 2: (0,1),(0,2),(1,-1),(1,0),(1,1),(2,0)
        assert basis.n_k == 6
        assert basis.dim == 24

    def test_mode_index_roundtrip(self):
        basis = ModeBasis(3)
        for i, mode in enumerate(basis.modes()):
            assert basis.mode_index(mode) == i
            assert basis.mode_at(i) == mode

    def test_grid_default_excludes_boundary_aliasing(self):
        assert default_grid(8) >= 25
        assert default_grid(8) % 2 == 0
        with pytest.raises(ValueError):
            ModeBasis(4, grid=12)

    def test_transform_roundtrip(self):
        basis = ModeBasis(4)
        rng = np.random.default_rng(0)
        c = rng.standard_normal(2 * basis.n_k)
        assert np.max(np.abs(basis.gather(basis.synthesize(c)) - c)) < 1e-13

    def test_parseval(self):
        basis = ModeBasis(3)
        rng = np.random.default_rng(1)
        c = rng.standard_normal(2 * basis.n_k)
        w = basis.synthesize(c)
        quad = np.sum(w**2) * (2 * math.pi / basis.grid) ** 2
        assert quad == pytest.approx(float(c @ c), rel=1e-12)

    def test_roundtrip_and_parseval_on_a_larger_grid(self):
        basis = ModeBasis(4, grid=20)
        rng = np.random.default_rng(6)
        c = rng.standard_normal((3, 2 * basis.n_k))
        w = basis.synthesize(c)
        assert w.shape == (3, 2, 20, 20)
        assert np.max(np.abs(basis.gather(w) - c)) < 1e-13
        quad = np.sum(w**2, axis=(-3, -2, -1)) * (2 * math.pi / basis.grid) ** 2
        assert quad == pytest.approx((c * c).sum(-1), rel=1e-12)

    @pytest.mark.parametrize("n_cut", [2, 5])
    def test_passes_take_a_batch_of_no_states(self, n_cut):
        # a batch of no states, of one slot each or of both slots, goes
        # through both passes as a batch of no fields
        basis = ModeBasis(n_cut)
        m, w = basis.grid, 2 * basis.n_k
        for lead in ((0,), (0, 2), (3, 0)):
            fields = basis.synthesize(np.zeros(lead + (w,)))
            assert fields.shape == lead + (2, m, m)
            assert basis.gather(fields).shape == lead + (w,)

    @pytest.mark.parametrize("n_cut, grid", [
        *(pytest.param(n, None, id=str(n)) for n in (1, 3, 5, 8, 10, 16, 24)),
        pytest.param(4, 20, id="4-grid20"),
    ])
    def test_pruned_passes_equal_full_half_spectrum(self, n_cut, grid):
        # both passes transform only the retained band; numpy's full-spectrum
        # irfft2 and rfft2 are their reference, equal up to roundoff (1e-13 of
        # the largest reference value).  The analysis sums at the canonical
        # modes are the real part and minus the imaginary part of rfft2.
        # n_cut=24 has the default grid 74 = 2 * 37, and grid=20 is not a
        # default grid
        basis = ModeBasis(n_cut, grid)
        m, half, cols = basis.grid, basis.grid // 2 + 1, n_cut + 1
        rng = np.random.default_rng(60 + n_cut)
        c = rng.standard_normal((3, 2 * basis.n_k))
        k1, k2 = basis.kvec[:, 0], basis.kvec[:, 1]
        edge = k1 == 0
        amp = c.view(complex)
        hat = np.zeros((3, 2, m, half), dtype=complex)
        for comp in range(2):
            d = basis.dir0[:, comp] / (2.0 * BASIS_NORM)
            hat[:, comp, k2 % m, k1] = amp * d
            hat[:, comp, -k2[edge] % m, 0] = np.conj(amp[:, edge]) * d[edge]
        want = np.fft.irfft2(hat, s=(m, m), norm="forward")
        assert np.max(np.abs(basis.synthesize(c) - want)) <= 1e-13 * np.max(np.abs(want))
        fields = rng.standard_normal((3, 2, m, m))
        want = np.fft.rfft2(fields)[..., k2 % m, k1]
        sums = basis._retained(fields)
        assert sums.shape == (3, 2, cols, 4 * cols)
        cos_at = 2 * cols * (k2 < 0) + k1
        for got, ref in ((sums[..., np.abs(k2), cos_at], want.real),
                         (sums[..., np.abs(k2), cos_at + cols], -want.imag)):
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(want))


class TestDissipation:
    def test_hand_values(self):
        basis = ModeBasis(3)

        def symbol(mode, params):
            return basis.dissipation_array(params)[basis.mode_index(mode)]

        p = make_params(alpha=1.5)
        assert symbol(make_mode(VELOCITY, (1, 2), COS), p) == pytest.approx(5.0**1.5, rel=1e-15)
        p1 = make_params(beta=1.0)
        assert symbol(make_mode(MAGNETIC, (1, 0), SIN), p1) == 1.0
        p2 = make_params(alpha=1.0)
        assert symbol(make_mode(VELOCITY, (2, 2), COS), p2) == 8.0


class TestBilinear:
    def test_single_mode_self_advection_zero(self):
        basis = ModeBasis(3)
        u = unit_mode_state(basis, make_mode(VELOCITY, (1, 2), COS))
        for route in (bilinear_transform, bilinear_convolution):
            assert np.max(np.abs(route(basis, u.coeffs, u.coeffs))) < 1e-14

    def test_unidirectional_magnetic_field_is_steady(self):
        # b depending on x2 only and pointing along x1 self-advects to zero
        basis = ModeBasis(3)
        rng = np.random.default_rng(2)
        s = zero_state(basis)
        for k2 in (1, 2, 3):
            for parity in (COS, SIN):
                idx = basis.mode_index(make_mode(MAGNETIC, (0, k2), parity))
                s.coeffs[idx] = rng.standard_normal()
        assert np.max(np.abs(bilinear_convolution(basis, s.coeffs, s.coeffs))) < 1e-14

    def test_paths_agree_on_random_states(self):
        basis = ModeBasis(4)
        rng = np.random.default_rng(3)
        for _ in range(3):
            cu = rng.standard_normal(basis.dim)
            cv = rng.standard_normal(basis.dim)
            bt = bilinear_transform(basis, cu, cv)
            bc = bilinear_convolution(basis, cu, cv)
            assert np.max(np.abs(bt - bc)) < 1e-10

    @pytest.mark.parametrize("axis", [0, 1])
    def test_edge_supported_states_match_triads(self, axis):
        # k1 = 0 modes sit on the edge column of the half spectrum, whose
        # conjugates the grid route stores explicitly; k2 = 0 modes sit on
        # its edge row
        basis = ModeBasis(5)
        rng = np.random.default_rng(11 + axis)
        edge = np.repeat(basis.kvec[:, axis] == 0, 2)
        cu = np.where(np.concatenate([edge, edge]), rng.standard_normal(basis.dim), 0.0)
        cv = rng.standard_normal(basis.dim)
        for a, b in ((cu, cv), (cv, cu), (cu, cu)):
            want = bilinear_convolution(basis, a, b)
            assert np.max(np.abs(bilinear_transform(basis, a, b) - want)) < 1e-12
        assert np.max(np.abs(bilinear_convolution(basis, cu, cv))) > 0.1

    @pytest.mark.parametrize("n_cut", range(2, 11))
    def test_grid_square_matches_general_form_and_triads(self, n_cut):
        # three products against eight, and against the exact triads, on a
        # random state and on states supported on the k1 = 0 column and on
        # the k2 = 0 row
        basis = ModeBasis(n_cut)
        rng = np.random.default_rng(20 + n_cut)
        states = [rng.standard_normal(basis.dim)]
        for axis in (0, 1):
            edge = np.repeat(basis.kvec[:, axis] == 0, 2)
            states.append(np.where(np.concatenate([edge, edge]), rng.standard_normal(basis.dim),
                                   0.0))
        for c in states:
            got = transform_square(basis, c)
            for want in (bilinear_transform(basis, c, c.copy()), bilinear_convolution(basis, c, c)):
                assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1.0)

    @pytest.mark.parametrize("n_cut", range(1, 17))
    def test_grid_route_matches_numpy_fft_oracle(self, n_cut):
        # the divergence form from numpy's irfft2 and rfft2 with the weights
        # i q_d omega_c written out, none of the grid route's tables: pins
        # every folded sign and weight of both grid forms' passes, on a batch
        basis = ModeBasis(n_cut)
        cu, cv = np.random.default_rng(70 + n_cut).standard_normal((2, 3, basis.dim))
        for got, want in ((bilinear_transform(basis, cu, cv), fft_bilinear(basis, cu, cv)),
                          (transform_square(basis, cu), fft_bilinear(basis, cu, cu))):
            assert np.max(np.abs(got - want)) <= 1e-13 * max(np.max(np.abs(want)), 1.0)

    @pytest.mark.parametrize("n_cut", [4, 7, 10])
    def test_grid_square_is_energy_neutral(self, n_cut):
        basis = ModeBasis(n_cut)
        c = 3.0 * np.random.default_rng(30 + n_cut).standard_normal(basis.dim)
        norm = np.linalg.norm(c)
        assert abs(transform_square(basis, c) @ c) <= 1e-12 * max(norm**3, 1.0)

    @pytest.mark.parametrize("n_cut", [1, 2, 3, 4, 5, 9, 10, 12, 16])
    def test_grid_route_batched_rows_equal_lone_calls(self, n_cut):
        # 5 rows, and 120 rows: the ensemble size of ``clt`` and ``mix``; 5 is
        # one partial block of ``SQUARE_BLOCK`` rows and 120 ends in one
        assert 5 < galerkin.SQUARE_BLOCK < 120 and 120 % galerkin.SQUARE_BLOCK
        basis = ModeBasis(n_cut)
        rng = np.random.default_rng(n_cut)
        for rows in (5, 120):
            cu, cv = rng.standard_normal((2, rows, basis.dim))
            for a, b in ((cu, cu), (cu, cv), (cu, cv[:1])):  # the last broadcasts one row
                batch = bilinear_transform(basis, a, b)
                for row in range(rows):
                    assert np.array_equal(batch[row],
                                          bilinear_transform(basis, a[row], b[row % len(b)]))
            batch = transform_square(basis, cu)
            for row in range(rows):
                assert np.array_equal(batch[row], transform_square(basis, cu[row]))

    @pytest.mark.parametrize("n_cut", [2, 5])
    def test_grid_route_takes_an_empty_batch(self, n_cut):
        # a batch of no rows is a batch of no rows of B, and an ensemble of no
        # streams steps through it
        basis = ModeBasis(n_cut)
        none = np.zeros((0, basis.dim))
        assert transform_square(basis, none).shape == (0, basis.dim)
        assert bilinear_transform(basis, none, none).shape == (0, basis.dim)
        times, states = ensemble(zero_state(basis), make_params(n_cut=n_cut),
                                 NoiseSpec.uniform([(0, 1)]), 0.005, seed=0, streams=[])
        assert states.shape == (len(times), 0, basis.dim)

    def test_merged_jacobian_matches_unmerged_triads(self):
        # apply sums the unmerged triads, so its rows L e_j = B(U, e_j) + B(e_j, U)
        # check the entries merged per (cell, state) pair
        basis, table = ModeBasis(4), triad_table(4)
        u, eye = np.random.default_rng(8).standard_normal(basis.dim), np.eye(basis.dim)
        want = (table.apply(u, eye) + table.apply(eye, u)).T
        assert np.max(np.abs(triad_jacobian(table, u) - want)) < \
            1e-14 * np.max(np.abs(want))
        pairs = table.jac_cell * basis.dim + table.jac_state
        assert len(np.unique(pairs)) == len(pairs) < 8 * len(table.coeff)  # 8 terms per triad

    @pytest.mark.parametrize("nonlinear", [pytest.param(False, id="linear"),
                                           pytest.param(True, id="grid")])
    def test_route_is_the_named_square(self, monkeypatch, nonlinear):
        # the time loop's B(U, U) is ``transform_square``, once per step of a
        # lone state or of a batch, and no run builds or looks up a triad
        # table; a run binds the name when it starts, so it binds the wrapper
        basis = ModeBasis(3)
        params = make_params(n_cut=3, nonlinearity_enabled=nonlinear)
        noise = NoiseSpec.uniform([(0, 1)])
        calls = []

        def counted(basis, cu):
            calls.append(cu.shape)
            return transform_square(basis, cu)

        monkeypatch.setattr(galerkin, "transform_square", counted)
        lookups = lambda: triad_table.cache_info().hits + triad_table.cache_info().misses
        before = lookups()
        simulate(zero_state(basis), params, noise, 0.01, seed=0)
        ensemble(zero_state(basis), params, noise, 0.01, seed=0, streams=[0, 1, 2])
        assert lookups() == before
        want = [(basis.dim,)] * 10 + [(3, basis.dim)] * 10 if nonlinear else []
        assert calls == want

    def test_skew_symmetry_both_paths(self):
        basis = ModeBasis(4)
        rng = np.random.default_rng(4)
        c = rng.standard_normal(basis.dim)
        for route in (bilinear_transform, bilinear_convolution):
            b = route(basis, c, c)
            assert abs(b @ c) < 1e-10 * float(c @ c)


class TestStep:
    def test_exact_linear_decay(self):
        basis = ModeBasis(3)
        params = make_params(alpha=1.3, nonlinearity_enabled=False)
        mode = make_mode(VELOCITY, (1, 2), COS)
        s = one_step(unit_mode_state(basis, mode), params, EMPTY_NOISE)
        assert s.coefficient(mode) == pytest.approx(
            math.exp(-5.0**1.3 * params.dt), rel=1e-14)

    def test_nonlinearity_preserves_single_mode_decay(self):
        # a single mode self-advects to zero, so decay stays exact
        basis = ModeBasis(3)
        params = make_params()
        mode = make_mode(VELOCITY, (0, 1), SIN)
        s = one_step(unit_mode_state(basis, mode), params, EMPTY_NOISE)
        want = math.exp(-params.dt)
        assert s.coefficient(mode) == pytest.approx(want, rel=1e-13)

    def test_zero_fixed_point(self):
        basis = ModeBasis(2)
        s = one_step(zero_state(basis), make_params(n_cut=2), EMPTY_NOISE)
        assert np.all(s.coeffs == 0.0)

    def test_dw_length_checked(self):
        basis = ModeBasis(2)
        noise = NoiseSpec.uniform([(0, 1)])
        with pytest.raises(ValueError):
            one_step(zero_state(basis), make_params(n_cut=2), noise, np.zeros(3))

    def test_ou_stationary_variance(self):
        # forced magnetic mode with |k| = 1, beta arbitrary: lam = 1,
        # stationary variance amp^2 / 2
        basis = ModeBasis(2)
        params = make_params(n_cut=2, dt=5e-2, beta=1.0, nonlinearity_enabled=False)
        noise = NoiseSpec.from_amplitudes({(0, 1): (0.8, 0.8)})
        rec = simulate(zero_state(basis), params, noise, 3000.0, seed=11)
        idx = basis.mode_index(make_mode(MAGNETIC, (0, 1), COS))
        samples = rec.states[1000:, idx]
        assert samples.var() == pytest.approx(0.8**2 / 2.0, rel=0.1)


class TestSimulate:
    def test_deterministic_bitwise(self):
        basis = ModeBasis(3)
        params = make_params()
        noise = NoiseSpec.uniform([(0, 1), (1, 1)], 0.5)
        a = simulate(zero_state(basis), params, noise, 0.1, seed=9, store_noise=True)
        b = simulate(zero_state(basis), params, noise, 0.1, seed=9, store_noise=True)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.noise_increments, b.noise_increments)

    def test_single_mode_exact_trajectory(self):
        basis = ModeBasis(2)
        params = make_params(n_cut=2, alpha=1.7, dt=1e-2)
        mode = make_mode(VELOCITY, (0, 1), COS)
        rec = simulate(unit_mode_state(basis, mode), params, EMPTY_NOISE, 1.0, seed=0)
        # |k| = 1 so the decay rate is 1 regardless of alpha
        assert rec.states[-1, basis.mode_index(mode)] == pytest.approx(
            math.exp(-1.0), rel=1e-12)
        others = np.delete(rec.states[-1], basis.mode_index(mode))
        assert np.max(np.abs(others)) < 1e-14

    def test_zero_noise_energy_monotone(self):
        basis = ModeBasis(3)
        params = make_params()
        rng = np.random.default_rng(8)
        u0 = SpectralState(basis, 0.7 * rng.standard_normal(basis.dim))
        rec = simulate(u0, params, EMPTY_NOISE, 0.5, seed=0)
        energy = (rec.states**2).sum(axis=1)
        assert np.all(np.diff(energy) <= 1e-12)

    def test_forcing_acts_only_on_magnetic_slot(self):
        basis = ModeBasis(3)
        params = make_params(nonlinearity_enabled=False)
        noise = NoiseSpec.uniform([(0, 1), (1, 2)], 1.0)
        rec = simulate(zero_state(basis), params, noise, 0.2, seed=5)
        vel = rec.states[:, basis.slot_block(VELOCITY)]
        assert np.max(np.abs(vel)) == 0.0

    def test_snapshot_stride(self):
        basis = ModeBasis(2)
        params = make_params(n_cut=2)
        rec = simulate(zero_state(basis), params, EMPTY_NOISE, 0.01, seed=0,
                       snapshot_stride=3)
        assert rec.times[0] == 0.0
        assert rec.times[-1] == pytest.approx(0.01)

    def test_example_forcing_smoke(self):
        basis = ModeBasis(4)
        params = make_params(n_cut=4)
        noise = NoiseSpec.uniform([(0, 1), (1, 1), (1, 0), (1, 2)], 1.0)
        rec = simulate(zero_state(basis), params, noise, 10.0, seed=21,
                       snapshot_stride=100)
        assert np.all(np.isfinite(rec.states))

    def test_huge_finite_states_are_no_blowup(self):
        # the squared norm of 1e200 entries overflows; the entries do not
        basis = ModeBasis(2)
        params = make_params(n_cut=2, nonlinearity_enabled=False)
        noise = NoiseSpec.uniform([(0, 1)], 1.0)
        rec = simulate(SpectralState(basis, 1e200 * np.ones(basis.dim)), params, noise, 0.005,
                       seed=0)
        assert np.all(np.isfinite(rec.states)) and np.min(rec.states[-1]) > 1e199

    def test_blowup_reported_with_time(self):
        basis = ModeBasis(2)
        params = make_params(n_cut=2, dt=1.0, alpha=1.01, beta=1.01)
        huge = SpectralState(basis, 1e200 * np.ones(basis.dim))
        with np.errstate(all="ignore"), pytest.raises(SimulationError):
            simulate(huge, params, EMPTY_NOISE, 5.0, seed=0)

    def test_blowup_names_step_replica_and_last_norm(self):
        basis = ModeBasis(2)
        params = make_params(n_cut=2, dt=1.0, alpha=1.01, beta=1.01)
        huge = SpectralState(basis, 1e200 * np.ones(basis.dim))
        noise = NoiseSpec.uniform([(0, 1)], 1.0)
        with np.errstate(all="ignore"), pytest.raises(SimulationError) as err:
            ensemble(huge, params, noise, 5.0, seed=0, streams=[4, 7])
        assert (err.value.step, err.value.replica, err.value.time) == (1, 4, 1.0)
        assert err.value.last_norm == pytest.approx(1e200 * math.sqrt(basis.dim))
        with np.errstate(all="ignore"), pytest.raises(SimulationError) as err:
            simulate(huge, params, noise, 5.0, seed=0)
        assert (err.value.step, err.value.replica) == (1, None)

    @pytest.mark.parametrize("amplitude, noise_amp, streams, stride, block, steps, expect", [
        pytest.param(1e200, 1.0, [4, 7], 1, None, None, (1, 4), id="first_step"),
        pytest.param(0.0, 10**77.95, [0, 1, 9, 7], 2, None, None, (3, 9),
                     id="off_snapshot_grid"),
        pytest.param(0.0, 10**77.95, [0, 1, 9, 7], 1, 2, None, (3, 9), id="second_noise_block"),
        pytest.param(0.0, 10**77.95, [0, 1, 9, 7], 1, None, 2, (3, 9), id="first_of_step_block"),
        pytest.param(0.0, 10**77.95, [0, 1, 9, 7], 2, None, 3, (3, 9), id="last_of_step_block"),
        pytest.param(0.0, 10**77.95, [0, 1, 9, 7], 1, None, 1, (3, 9), id="one_step_blocks"),
        pytest.param(1e200, None, [4, 7], 1, None, 2, (1, 4), id="empty_noise"),
        pytest.param(1e200, 1.0, [], 1, None, 2, None, id="empty_streams"),
    ])
    def test_blowup_matches_per_step_reference(self, monkeypatch, amplitude, noise_amp,
                                               streams, stride, block, steps, expect):
        # noise of amplitude 10^77.95 overflows stream 9, in row 2, at step 3
        # and the other streams at step 4: below 10^77.85 no stream overflows
        # at step 3, and from 10^78.05 streams 1, 5 and 7 do too.  The 1e200
        # states blow up in the first step.
        # ``steps`` is the length of a block of steps: 2 puts step 3 first in
        # its block, 3 puts it last
        basis = ModeBasis(2)
        params = make_params(n_cut=2, dt=1.0, alpha=1.01, beta=1.01)
        u0 = SpectralState(basis, amplitude * np.ones(basis.dim))
        noise = EMPTY_NOISE if noise_amp is None else NoiseSpec.uniform([(0, 1), (1, 1)], noise_amp)
        n_steps = 6

        def step_block(rows):
            if steps is not None:
                monkeypatch.setattr(galerkin, "STEP_BLOCK", (steps + 1) * rows * basis.dim)

        def reference(stream):
            """(step, last finite norm) of chained one-step runs on the stream's increments."""
            rng = np.random.default_rng(trajectory_seed(0, stream))
            state = u0
            for n, dw in enumerate(rng.standard_normal((n_steps, noise.dim)), 1):
                try:
                    state = one_step(state, params, noise, dw * math.sqrt(params.dt))
                except SimulationError:
                    return n, math.hypot(*state.coeffs)
            return n_steps + 1, None

        with np.errstate(all="ignore"):
            refs = [reference(s) for s in streams]
            if block is not None:  # increments in blocks of 2 steps: step 3 is in the second
                monkeypatch.setattr(galerkin, "NOISE_BLOCK", block * len(streams) * noise.dim)
            step_block(len(streams))
            run = lambda: ensemble(u0, params, noise, n_steps * params.dt, seed=0,
                                   streams=streams, snapshot_stride=stride)
            if expect is None:  # no replica, so nothing to blow up
                times, states = run()
                assert np.array_equal(times, snapshot_steps(n_steps, stride))
                assert states.shape == (len(times), 0, basis.dim)
                return
            first = min(range(len(streams)), key=lambda i: refs[i][0])  # earliest, then row
            want_step, want_norm = refs[first]
            assert (want_step, streams[first]) == expect  # off the stride-2 grid
            with pytest.raises(SimulationError) as err:
                run()
            assert (err.value.step, err.value.replica, err.value.last_norm, err.value.time) == \
                (want_step, streams[first], want_norm, want_step * params.dt)
            step_block(1)
            with pytest.raises(SimulationError) as err:
                simulate(u0, params, noise, n_steps * params.dt,
                         seed=trajectory_seed(0, streams[first]), snapshot_stride=stride)
            assert (err.value.step, err.value.replica, err.value.last_norm) == \
                (want_step, None, want_norm)

    def test_snapshot_grid_keeps_last_step(self):
        assert snapshot_steps(6, 2) == [0, 2, 4, 6]
        assert snapshot_steps(7, 3) == [0, 3, 6, 7]
        assert snapshot_steps(1, 5) == [0, 1]

    def test_ensemble_rows_are_the_lone_trajectories(self):
        noise = NoiseSpec.uniform([(0, 1), (1, 1)], 1.0)
        for n_cut in (3, 6):
            basis = ModeBasis(n_cut)
            params = make_params(n_cut=n_cut)
            u0 = SpectralState(basis, 0.2 * np.random.default_rng(4).standard_normal(basis.dim))
            times, states = ensemble(u0, params, noise, 0.05, seed=9, streams=[2, 0, 5],
                                     snapshot_stride=2)
            for row, stream in enumerate([2, 0, 5]):
                rec = simulate(u0, params, noise, 0.05, trajectory_seed(9, stream),
                               snapshot_stride=2)
                assert np.array_equal(times, rec.times)
                assert np.array_equal(states[:, row], rec.states)

    def test_block_size_changes_no_bit(self, monkeypatch):
        # blocks of one step, and blocks of 4 ensemble steps (14 lone ones) that
        # end partway through the stride-3 snapshot grid and through the noise
        # blocks of 10 steps, against the default blocks that hold the whole run;
        # a reduced ensemble, which reduces block by block, equals the reduction
        # of the whole states
        noise = NoiseSpec.uniform([(0, 1), (1, 1)], 1.0)
        streams = [2, 0, 5]
        reduce = lambda states: np.stack([(states**2).sum(-1), np.tanh(states[..., 1])], -1)
        for n_cut in (3, 5):
            basis = ModeBasis(n_cut)
            params = make_params(n_cut=n_cut)
            u0 = SpectralState(basis, 0.2 * np.random.default_rng(4).standard_normal(basis.dim))
            horizon = 25 * params.dt
            assert galerkin.STEP_BLOCK > 26 * len(streams) * basis.dim

            def run():
                rec = simulate(u0, params, noise, horizon, seed=9, snapshot_stride=3)
                times, states = ensemble(u0, params, noise, horizon, seed=9, streams=streams,
                                         snapshot_stride=3)
                reduced_times, values = ensemble(u0, params, noise, horizon, seed=9,
                                                 streams=streams, snapshot_stride=3,
                                                 reduce=reduce)
                assert np.array_equal(reduced_times, times)
                assert np.array_equal(values, reduce(states))
                return rec.times, rec.states, times, states, values

            whole = run()
            for step_block in (1, 15 * basis.dim):
                with monkeypatch.context() as patch:
                    patch.setattr(galerkin, "STEP_BLOCK", step_block)
                    patch.setattr(galerkin, "NOISE_BLOCK", 10 * len(streams) * noise.dim)
                    assert all(np.array_equal(a, b) for a, b in zip(whole, run()))


    @pytest.mark.parametrize("n_cut, nonlinear, given", [
        pytest.param(2, False, False, id="linear"),
        pytest.param(3, True, False, id="nonlinear_n3"),
        pytest.param(5, True, False, id="nonlinear_n5"),
        pytest.param(3, True, True, id="given_increments"),
    ])
    def test_simulate_equals_chained_steps(self, n_cut, nonlinear, given):
        basis = ModeBasis(n_cut)
        params = make_params(n_cut=n_cut, dt=0.01, nonlinearity_enabled=nonlinear)
        noise = NoiseSpec.uniform([(0, 1), (1, 1)], 1.0)
        u0 = SpectralState(basis, 0.3 * np.random.default_rng(5).standard_normal(basis.dim))
        dws = np.random.default_rng(6).standard_normal((20, noise.dim)) * 0.1 if given else None
        rec = simulate(u0, params, noise, 0.2, seed=8, store_noise=True, increments=dws)
        state = u0
        for n, dw in enumerate(rec.noise_increments, 1):
            state = one_step(state, params, noise, dw)
            assert np.array_equal(state.coeffs, rec.states[n])
            assert state.time == pytest.approx(rec.times[n])  # summed, not t0 + n dt
        assert n == 20


class TestEnergyBalance:
    def test_zero_state_zero_noise_identically_zero(self):
        basis = ModeBasis(2)
        params = make_params(n_cut=2)
        rec = simulate(zero_state(basis), params, EMPTY_NOISE, 0.05, seed=0,
                       store_noise=True)
        res = energy_balance_residual(rec, params, EMPTY_NOISE)
        assert np.max(np.abs(res)) == 0.0

    def test_linear_decay_residual_first_order(self):
        # pure decay: the residual is the quadrature mismatch of the
        # dissipation integral and shrinks linearly in dt
        basis = ModeBasis(2)
        mode = make_mode(MAGNETIC, (0, 1), COS)
        totals = []
        for dt in (2e-3, 1e-3):
            params = make_params(n_cut=2, dt=dt, nonlinearity_enabled=False)
            rec = simulate(unit_mode_state(basis, mode), params, EMPTY_NOISE,
                           0.5, seed=0, store_noise=True)
            res = energy_balance_residual(rec, params, EMPTY_NOISE)
            totals.append(np.sum(np.abs(res)))
        assert totals[0] / totals[1] == pytest.approx(2.0, abs=0.2)

    def test_residual_halves_on_refined_common_path(self):
        basis = ModeBasis(3)
        noise = NoiseSpec.uniform([(0, 1), (1, 1), (1, 0), (1, 2)], 1.0)
        rng = np.random.default_rng(77)
        u0 = SpectralState(basis, 0.3 * rng.standard_normal(basis.dim))
        dt = 2e-3
        horizon = 0.5
        n = int(round(horizon / dt))
        fine = rng.standard_normal((2 * n, noise.dim)) * math.sqrt(dt / 2)
        coarse = fine.reshape(n, 2, noise.dim).sum(axis=1)
        means = []
        for step_dt, incs in ((dt, coarse), (dt / 2, fine)):
            params = make_params(dt=step_dt)
            rec = simulate(u0, params, noise, horizon, seed=0, store_noise=True,
                           increments=incs)
            res = energy_balance_residual(rec, params, noise)
            means.append(np.mean(np.abs(res)))
        assert means[0] / means[1] == pytest.approx(2.0, abs=0.4)

    def test_forcing_trace_matches_sum_of_squares(self):
        noise = NoiseSpec.from_amplitudes({(0, 1): (0.5, 1.5), (1, 2): (2.0, 0.25)})
        assert noise.e0() == pytest.approx(0.25 + 2.25 + 4.0 + 0.0625)


class TestGalerkinConsistency:
    def test_doubling_cutoff_barely_moves_low_modes(self):
        # spectral-accuracy report for a smooth decaying state; bound is
        # generous, the number itself is the interesting artifact
        coarse = ModeBasis(3)
        fine = ModeBasis(6)
        rng = np.random.default_rng(12)
        c0 = np.zeros(coarse.dim)
        for mode in coarse.modes():
            n2 = mode.k[0] ** 2 + mode.k[1] ** 2
            c0[coarse.mode_index(mode)] = rng.standard_normal() * math.exp(-2.0 * n2)
        params_c = make_params(dt=1e-3)
        params_f = make_params(n_cut=6, dt=1e-3)
        rec_c = simulate(SpectralState(coarse, c0), params_c, EMPTY_NOISE, 0.1, seed=0)
        rec_f = simulate(SpectralState(fine, embed_coeffs(coarse, c0, fine)),
                         params_f, EMPTY_NOISE, 0.1, seed=0)
        low_f = embed_coeffs(fine, rec_f.states[-1], coarse)
        diff = np.max(np.abs(low_f - rec_c.states[-1]))
        print(f"galerkin consistency: low-mode drift {diff:.3e} at n_cut 3 -> 6")
        assert diff < 1e-4


class TestSobolevEnergy:
    def test_matches_direct_sum(self):
        basis = ModeBasis(3)
        params = make_params()
        rng = np.random.default_rng(13)
        c = rng.standard_normal(basis.dim)
        e_u, e_b = sobolev_energy(basis, c, params)
        want_u = sum(
            c[basis.mode_index(m)] ** 2 * norm_sq(m.k) ** params.alpha
            for m in basis.modes() if m.slot == VELOCITY)
        want_b = sum(
            c[basis.mode_index(m)] ** 2 * norm_sq(m.k) ** params.beta
            for m in basis.modes() if m.slot == MAGNETIC)
        assert e_u == pytest.approx(want_u, rel=1e-12)
        assert e_b == pytest.approx(want_b, rel=1e-12)
