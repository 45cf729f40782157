"""Lattice geometry, basis fields, and quadrature projection."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from torusmhd.lattice import (
    BASIS_NORM,
    COS,
    SIN,
    VELOCITY,
    MAGNETIC,
    canonical_rep,
    direction,
    field_values,
    grid_mesh,
    is_canonical,
    make_mode,
    norm_sq,
    pairing_coefficient,
    perp_dot,
    project_onto_modes,
)

from oracles import spectral_divergence

nonzero_vec = st.tuples(st.integers(-6, 6), st.integers(-6, 6)).filter(
    lambda k: k != (0, 0))


class TestPairingCoefficient:
    def test_hand_values(self):
        assert pairing_coefficient((0, 1), (1, 1)) == pytest.approx(1 / math.sqrt(2), abs=1e-15)
        assert pairing_coefficient((1, 0), (2, 0)) == 0.0
        assert pairing_coefficient((1, 2), (0, 1)) == pytest.approx(-1 / math.sqrt(5), abs=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            pairing_coefficient((0, 0), (1, 1))
        with pytest.raises(ValueError):
            pairing_coefficient((1, 1), (0, 0))

    @given(nonzero_vec, nonzero_vec)
    def test_antisymmetry_and_range(self, k, l):
        a = pairing_coefficient(k, l)
        assert a == pytest.approx(-pairing_coefficient(l, k), abs=1e-15)
        assert -1.0 <= a <= 1.0


class TestCanonicalRep:
    def test_hand_values(self):
        assert canonical_rep((-1, -2), COS) == ((1, 2), -1)
        assert canonical_rep((1, 2), SIN) == ((1, 2), +1)
        assert canonical_rep((0, -3), SIN) == ((0, 3), +1)
        assert canonical_rep((0, -3), COS) == ((0, 3), -1)

    @given(nonzero_vec, st.sampled_from([COS, SIN]))
    def test_sign_matches_pointwise_identity(self, k, m):
        kc, sign = canonical_rep(k, m)
        assert is_canonical(kc)
        x = np.array([0.37, -1.21])
        lhs = field_values(k, m, x[0], x[1])
        rhs = sign * field_values(kc, m, x[0], x[1])
        assert np.allclose(lhs, rhs, atol=1e-14)


class TestParityIdentities:
    def test_negation_flips_cos_keeps_sin(self):
        # cos mode flips sign under k -> -k, sin mode does not
        rng = np.random.default_rng(0)
        xs = rng.uniform(-math.pi, math.pi, size=(100, 2))
        for k in [(1, 0), (0, 2), (2, -3), (-1, 4)]:
            mk = (-k[0], -k[1])
            c_neg = field_values(mk, COS, xs[:, 0], xs[:, 1])
            c_pos = field_values(k, COS, xs[:, 0], xs[:, 1])
            assert np.max(np.abs(c_neg + c_pos)) < 1e-12
            s_neg = field_values(mk, SIN, xs[:, 0], xs[:, 1])
            s_pos = field_values(k, SIN, xs[:, 0], xs[:, 1])
            assert np.max(np.abs(s_neg - s_pos)) < 1e-12


class TestEvalBasisField:
    def test_velocity_cos_at_origin(self):
        mode = make_mode(VELOCITY, (0, 1), COS)
        val = field_values(mode.k, mode.parity, 0.0, 0.0) / BASIS_NORM
        assert val == pytest.approx([1.0 / BASIS_NORM, 0.0], abs=1e-15)

    def test_sin_vanishes_at_origin(self):
        mode = make_mode(MAGNETIC, (1, 0), SIN)
        val = field_values(mode.k, mode.parity, 0.0, 0.0) / BASIS_NORM
        assert val == pytest.approx([0.0, 0.0], abs=1e-15)

    def test_unit_norm_by_quadrature(self):
        mode = make_mode(VELOCITY, (2, 1), SIN)
        x1, x2 = grid_mesh(16)
        vals = field_values((2, 1), SIN, x1, x2) / BASIS_NORM
        weight = (2 * math.pi / 16) ** 2
        assert np.sum(vals**2) * weight == pytest.approx(1.0, abs=1e-12)

    def test_divergence_free_on_grid(self):
        for k, m in [((1, 2), COS), ((3, -1), SIN), ((0, 2), COS)]:
            x1, x2 = grid_mesh(4 * max(abs(k[0]), abs(k[1]), 1) + 4)
            div = spectral_divergence(field_values(k, m, x1, x2))
            assert np.max(np.abs(div)) < 1e-12
            # the underlying exact reason: direction is perpendicular to k
            assert abs(direction(k, m) @ np.array(k)) < 1e-14


class TestProjection:
    def test_orthonormality(self):
        m = 16
        x1, x2 = grid_mesh(m)
        f = field_values((1, 1), COS, x1, x2) / BASIS_NORM
        assert project_onto_modes(f, [(1, 1)])[0, COS] == pytest.approx(1.0, abs=1e-12)
        assert project_onto_modes(f, [(1, 2)])[0, COS] == pytest.approx(0.0, abs=1e-12)
        assert project_onto_modes(f, [(1, 1)])[0, SIN] == pytest.approx(0.0, abs=1e-12)

    def test_linearity(self):
        m = 16
        x1, x2 = grid_mesh(m)
        f = (3.0 * field_values((2, 1), SIN, x1, x2)
             - 2.0 * field_values((1, 0), COS, x1, x2)) / BASIS_NORM
        assert project_onto_modes(f, [(2, 1)])[0, SIN] == pytest.approx(3.0, abs=1e-12)
        assert project_onto_modes(f, [(1, 0)])[0, COS] == pytest.approx(-2.0, abs=1e-12)

    def test_exact_for_random_combination(self):
        rng = np.random.default_rng(4)
        modes = [((1, 1), COS), ((2, -1), SIN), ((0, 3), COS), ((3, 2), SIN)]
        coeffs = rng.standard_normal(len(modes))
        m = 24
        x1, x2 = grid_mesh(m)
        f = sum(c * field_values(k, p, x1, x2) for c, (k, p) in zip(coeffs, modes))
        f = f / BASIS_NORM
        for c, (k, p) in zip(coeffs, modes):
            assert project_onto_modes(f, [k])[0, p] == pytest.approx(c, abs=1e-12)

    def test_under_resolved_grid_rejected(self):
        x1, x2 = grid_mesh(8)
        f = field_values((3, 0), COS, x1, x2)
        with pytest.raises(ValueError, match="under-resolves"):
            project_onto_modes(f, [(3, 0)])

    def test_odd_grid_rejected(self):
        f = np.zeros((2, 9, 9))
        with pytest.raises(ValueError):
            project_onto_modes(f, [(1, 0)])

    @pytest.mark.parametrize("m", [8, 12, 20, 28])
    def test_dft_read_off_is_the_rectangle_rule(self, m):
        # any grid values, not just trigonometric ones: the read-off is the
        # explicit sum over the grid of f . e_hat(q, parity) (2 pi / m)^2
        rng = np.random.default_rng(m)
        values = rng.standard_normal((3, 2, m, m))
        r = m // 4
        qs = [(a, b) for a in range(0, r + 1) for b in range(-r, r + 1)
              if (a > 0 or b > 0)]
        got = project_onto_modes(values, qs)
        assert got.shape == (3, len(qs), 2)
        x1, x2 = grid_mesh(m)
        weight = (2.0 * math.pi / m) ** 2
        for i, q in enumerate(qs):
            for p in (COS, SIN):
                basis = field_values(q, p, x1, x2) / BASIS_NORM
                want = (values * basis).sum(axis=(1, 2, 3)) * weight
                scale = (np.abs(values * basis).sum(axis=(1, 2, 3)) * weight).max()
                assert np.max(np.abs(got[:, i, p] - want)) <= 1e-13 * scale
            assert project_onto_modes(values[0], [q])[0, SIN] == \
                pytest.approx(got[0, i, SIN], abs=1e-15 * scale)

    def test_batched_read_off_checks_every_wavevector(self):
        values = np.zeros((4, 2, 8, 8))
        with pytest.raises(ValueError, match="under-resolves"):
            project_onto_modes(values, [(1, 0), (2, 1), (3, 0)])


def test_norm_and_perp_are_exact_integers():
    assert norm_sq((3, -4)) == 25
    assert perp_dot((1, 2), (3, 4)) == 2 * 3 - 1 * 4
    assert isinstance(perp_dot((10**6, 1), (1, -(10**6))), int)
