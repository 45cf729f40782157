"""Symbolic advection, direction selection rules, and the quadrature cross-check."""

import math

import numpy as np
import pytest

from torusmhd.brackets import (
    COMBOS,
    TrigTerm,
    advect,
    closed_form_weight,
    combo_target,
    field_from_terms,
    leray_project,
    magnetic_direction,
    velocity_direction,
    verification_sweep,
    verify_bracket_identity,
)
from torusmhd.lattice import (
    BASIS_NORM,
    COS,
    SIN,
    VELOCITY,
    MAGNETIC,
    canonical_rep,
    field_values,
    norm_sq,
    pairing_coefficient,
)

SQ2 = math.sqrt(2.0)


class TestAdvect:
    def test_self_advection_vanishes(self):
        assert advect((2, 1), SIN, (2, 1), SIN).is_zero()

    def test_collinear_vanishes(self):
        assert advect((1, 0), COS, (2, 0), SIN).is_zero()
        assert advect((0, 1), SIN, (0, -3), COS).is_zero()

    def test_sin_sin_hand_case(self):
        # advecting the (1,1) sin mode by the (0,1) sin mode produces
        # (1/sqrt2) sin((0,1).x) cos((1,1).x) (1,-1)/sqrt2, i.e. terms of
        # amplitude 1/(2 sqrt2) * (1,-1) at the sum and difference wavevectors
        f = advect((0, 1), SIN, (1, 1), SIN)
        terms = {t.k: t for t in f.terms}
        assert set(terms) == {(1, 2), (1, 0)}
        amp = 1.0 / (2.0 * SQ2)
        assert terms[(1, 2)].parity == SIN
        assert terms[(1, 2)].amp == pytest.approx((amp, -amp), abs=1e-15)
        # (0,1)-(1,1) = (-1,0) canonicalizes to (1,0) with a sin sign flip
        assert terms[(1, 0)].amp == pytest.approx((-amp, amp), abs=1e-15)

    def test_reduced_form_matches_raw_product_pointwise(self):
        # reduced sum form must evaluate identically to the unreduced
        # product-of-trig formula: coefficient * trig(k.x) trig'(l.x) * dir
        from torusmhd.lattice import direction, scalar_values
        rng = np.random.default_rng(3)
        for k, m, l, m2 in [((0, 1), SIN, (1, 1), SIN), ((1, 2), COS, (2, -1), SIN),
                            ((2, 0), COS, (1, 3), COS), ((1, -1), SIN, (3, 1), COS)]:
            f = advect(k, m, l, m2)
            xs = rng.uniform(-math.pi, math.pi, size=(100, 2))
            got = f.evaluate(xs[:, 0], xs[:, 1])
            c0 = float(np.array(direction(k, m)) @ np.array(l, dtype=float))
            first = scalar_values(k, m, xs[:, 0], xs[:, 1])
            if m2 == COS:
                raw = -c0 * first * scalar_values(l, SIN, xs[:, 0], xs[:, 1])
            else:
                raw = c0 * first * scalar_values(l, COS, xs[:, 0], xs[:, 1])
            want = np.array(direction(l, m2))[:, None] * raw
            assert np.max(np.abs(got - want)) < 1e-12

    def test_pointwise_against_finite_differences(self):
        # independent sanity route: compare with a numerical directional
        # derivative of the advected field
        rng = np.random.default_rng(3)
        for k, m, l, m2 in [((0, 1), SIN, (1, 1), SIN), ((1, 2), COS, (2, -1), SIN)]:
            f = advect(k, m, l, m2)
            xs = rng.uniform(-math.pi, math.pi, size=(50, 2))
            got = f.evaluate(xs[:, 0], xs[:, 1])
            u = field_values(k, m, xs[:, 0], xs[:, 1])
            eps = 1e-7
            vdx = (field_values(l, m2, xs[:, 0] + eps, xs[:, 1])
                   - field_values(l, m2, xs[:, 0] - eps, xs[:, 1])) / (2 * eps)
            vdy = (field_values(l, m2, xs[:, 0], xs[:, 1] + eps)
                   - field_values(l, m2, xs[:, 0], xs[:, 1] - eps)) / (2 * eps)
            want = u[0] * vdx + u[1] * vdy
            assert np.max(np.abs(got - want)) < 1e-6

    def test_zero_wavevector_rejected(self):
        with pytest.raises(ValueError):
            advect((0, 0), COS, (1, 0), COS)


class TestReduction:
    def test_merge_and_canonicalize(self):
        f = field_from_terms([
            TrigTerm((1.0, 0.0), SIN, (-1, 0)),     # flips to -(1,0) sin
            TrigTerm((0.5, 0.0), SIN, (1, 0)),
            TrigTerm((2.0, 1.0), COS, (0, -2)),     # flips amp-invariant
        ])
        terms = {(t.k, t.parity): t.amp for t in f.terms}
        assert terms[((1, 0), SIN)] == pytest.approx((-0.5, 0.0))
        assert terms[((0, 2), COS)] == pytest.approx((2.0, 1.0))

    def test_zero_wavevector_sin_dropped_cos_kept(self):
        f = field_from_terms([TrigTerm((1.0, 2.0), SIN, (0, 0)),
                              TrigTerm((3.0, 4.0), COS, (0, 0))])
        assert len(f.terms) == 1
        val = f.evaluate(0.3, -0.8)
        assert val == pytest.approx([3.0, 4.0])

    def test_exact_cancellation_pruned(self):
        f = field_from_terms([TrigTerm((1.0, -2.0), COS, (1, 1)),
                              TrigTerm((-1.0, 2.0), COS, (1, 1))])
        assert f.is_zero()

    def test_reduction_invariant_under_order_and_negation(self):
        # a field is determined by its pointwise values: permuting raw terms
        # or presenting them at negated wavevectors must not change anything
        rng = np.random.default_rng(9)
        raw = [TrigTerm((0.7, -0.2), COS, (1, 2)),
               TrigTerm((0.1, 0.4), SIN, (2, -1)),
               TrigTerm((-0.3, 0.8), SIN, (0, 1))]
        flipped = [TrigTerm((t.amp[0], t.amp[1]) if t.parity == COS
                            else (-t.amp[0], -t.amp[1]), t.parity,
                            (-t.k[0], -t.k[1])) for t in raw]
        a = field_from_terms(raw)
        b = field_from_terms(reversed(flipped))
        xs = rng.uniform(-math.pi, math.pi, size=(40, 2))
        assert np.max(np.abs(a.evaluate(xs[:, 0], xs[:, 1])
                             - b.evaluate(xs[:, 0], xs[:, 1]))) < 1e-14
        assert a.terms == b.terms


    def test_float_pair_accumulation_matches_numpy_reference(self, monkeypatch):
        # field_from_terms sums in Python floats; a numpy 2-vector accumulator
        # does the same IEEE operations, so sweep reports and triad entries
        # must come out identical bit for bit
        from torusmhd import brackets, galerkin

        calls = []

        def numpy_reference(raw_terms):
            calls.append(1)
            acc = {}
            for amp, parity, k in raw_terms:
                if k == (0, 0):
                    if parity == SIN:
                        continue
                    key, sign = (COS, (0, 0)), 1.0
                elif k[0] > 0 or (k[0] == 0 and k[1] > 0):
                    key, sign = (parity, k), 1.0
                else:
                    key = (parity, (-k[0], -k[1]))
                    sign = -1.0 if parity == SIN else 1.0
                vec = acc.setdefault(key, np.zeros(2))
                vec += sign * np.asarray(amp, dtype=float)
            return brackets.TrigVectorField(tuple(
                TrigTerm((float(a[0]), float(a[1])), parity, k)
                for (parity, k), a in sorted(acc.items()) if a[0] != 0.0 or a[1] != 0.0))

        def build():
            galerkin._pair_projection.cache_clear()
            table = galerkin.TriadTable(4)
            sweep = [r.to_dict() for r in verification_sweep(2)]
            return (table.a, table.b, table.out, table.coeff), repr(sweep)

        got = build()
        monkeypatch.setattr(brackets, "field_from_terms", numpy_reference)
        want = build()
        galerkin._pair_projection.cache_clear()
        assert len(calls) > 1000
        assert all(np.array_equal(g, w) for g, w in zip(got[0], want[0]))
        assert got[1] == want[1]


class TestLerayProject:
    def test_identity_on_basis_field(self):
        f = field_from_terms([TrigTerm(tuple(
            np.array([2.0, -1.0]) / math.sqrt(5)), COS, (1, 2))])
        exp = leray_project(f, VELOCITY)
        (mode, coeff), = exp.coefficients.items()
        assert mode.k == (1, 2) and mode.parity == COS and mode.slot == VELOCITY
        assert coeff == pytest.approx(BASIS_NORM, abs=1e-14)

    def test_pure_gradient_killed(self):
        f = field_from_terms([TrigTerm((1.0, 0.0), COS, (1, 0))])
        assert leray_project(f, VELOCITY).is_empty()

    def test_partial_projection_value(self):
        # cos((1,1).x) (1,0): component along the unit (1,1) cos mode is
        # <(1,0), (1,-1)/sqrt2> * sqrt(2 pi^2) = pi, confirmed by quadrature
        f = field_from_terms([TrigTerm((1.0, 0.0), COS, (1, 1))])
        exp = leray_project(f, MAGNETIC)
        (mode, coeff), = exp.coefficients.items()
        assert mode.k == (1, 1) and mode.slot == MAGNETIC
        assert coeff == pytest.approx(math.pi, abs=1e-13)
        # independent quadrature oracle
        from torusmhd.lattice import grid_mesh, project_onto_modes, scalar_values
        x1, x2 = grid_mesh(12)
        vals = np.stack([scalar_values((1, 1), COS, x1, x2), np.zeros_like(x1)])
        assert project_onto_modes(vals, [(1, 1)])[0, COS] == pytest.approx(math.pi, abs=1e-12)


class TestVelocityDirections:
    def test_sum01_single_mode_and_magnitude(self):
        exp = velocity_direction((0, 1), (1, 1), "sum01")
        (mode, coeff), = exp.coefficients.items()
        assert mode.slot == VELOCITY and mode.k == (1, 2) and mode.parity == COS
        # |a| (|l|^2-|k|^2)/|k+l| with the empirically pinned constant sqrt(2 pi^2)
        want = (1 / SQ2) * (2 - 1) / math.sqrt(5) * BASIS_NORM
        assert abs(coeff) == pytest.approx(want, rel=1e-13)

    def test_equal_moduli_kills_all_four_combos(self):
        for k, l in [((1, 0), (0, 1)), ((1, 2), (2, 1)), ((2, -1), (1, 2))]:
            for combo in COMBOS:
                exp = velocity_direction(k, l, combo)
                assert exp.is_empty()
                assert exp.degenerate == "degenerate: equal moduli"

    def test_collinear_flagged(self):
        exp = velocity_direction((1, 0), (2, 0), "diff01")
        assert exp.is_empty()
        assert exp.degenerate == "degenerate: parallel"

    def test_diff01_difference_target(self):
        exp = velocity_direction((1, 1), (1, 0), "diff01")
        (mode, _), = exp.coefficients.items()
        assert mode.k == (0, 1) and mode.parity == COS

    def test_selection_rules_all_combos(self):
        for k, l in [((0, 1), (1, 1)), ((1, 2), (1, 0)), ((2, -1), (0, 1))]:
            for combo in COMBOS:
                exp = velocity_direction(k, l, combo)
                target, parity = combo_target(k, l, combo, VELOCITY)
                kc, _ = canonical_rep(target, parity)
                (mode, _), = exp.coefficients.items()
                assert mode.k == kc and mode.parity == parity


class TestMagneticDirections:
    def test_sum01_difference_target(self):
        exp = magnetic_direction((1, 2), (0, 1), "sum01")
        (mode, coeff), = exp.coefficients.items()
        assert mode.slot == MAGNETIC and mode.k == (1, 1) and mode.parity == COS
        want = (1 / math.sqrt(5)) * SQ2 * BASIS_NORM
        assert abs(coeff) == pytest.approx(want, rel=1e-13)

    def test_collinear_flagged(self):
        exp = magnetic_direction((1, 0), (2, 0), "sum01")
        assert exp.is_empty() and exp.degenerate == "degenerate: parallel"

    def test_diff01_sum_target(self):
        exp = magnetic_direction((0, 1), (1, 1), "diff01")
        (mode, coeff), = exp.coefficients.items()
        assert mode.k == (1, 2) and mode.parity == COS
        want = (1 / SQ2) * math.sqrt(5) * BASIS_NORM
        assert abs(coeff) == pytest.approx(want, rel=1e-13)

    def test_zero_mode_flagged(self):
        exp = magnetic_direction((1, 1), (1, 1), "sum01")
        assert exp.is_empty() and exp.degenerate == "degenerate: zero mode"

    def test_equal_moduli_still_generates(self):
        # unlike the velocity family, equal moduli only kill velocity combos
        exp = magnetic_direction((1, 0), (0, 1), "sum01")
        assert not exp.is_empty()


class TestVerification:
    def test_single_identity(self):
        rep = verify_bracket_identity((0, 1), (1, 1), "sum01", VELOCITY)
        assert rep.selection_ok
        assert rep.coefficient_ratio == pytest.approx(1.0, rel=1e-12)
        assert abs(rep.pinned_constant) == pytest.approx(BASIS_NORM, rel=1e-12)
        assert rep.max_stray < 1e-10

    def test_degenerate_is_vacuously_ok(self):
        rep = verify_bracket_identity((1, 0), (0, 1), "sum01", VELOCITY)
        assert rep.selection_ok and rep.degenerate == "degenerate: equal moduli"
        assert rep.max_stray < 1e-10

    def test_small_sweep_constant(self):
        points = [(0, 1), (1, 0), (1, 1), (1, -1), (0, 2), (1, 2)]
        ratios, consts = [], []
        for k in points:
            for l in points:
                for slot in (VELOCITY, MAGNETIC):
                    for combo in COMBOS:
                        rep = verify_bracket_identity(k, l, combo, slot)
                        assert rep.selection_ok, (k, l, combo, slot)
                        if np.isfinite(rep.coefficient_ratio):
                            ratios.append(rep.coefficient_ratio)
                            consts.append(abs(rep.pinned_constant))
        ratios, consts = np.array(ratios), np.array(consts)
        assert np.ptp(ratios) < 1e-8 * np.abs(ratios).max()
        assert np.ptp(consts) < 1e-8 * consts.max()
        assert consts.mean() == pytest.approx(BASIS_NORM, rel=1e-12)

    def test_sweep_equals_per_call_reports(self):
        # the sweep shares one quadrature per pair; each report must equal
        # the one verify_bracket_identity builds alone, field by field
        reports = verification_sweep(2)
        assert len(reports) == 12 * 12 * 2 * len(COMBOS)
        for rep in reports:
            alone = verify_bracket_identity(rep.k, rep.l, rep.combo, rep.slot)
            for key, value in rep.to_dict().items():
                want = alone.to_dict()[key]
                if isinstance(want, float) and math.isnan(want):
                    assert math.isnan(value), (rep.k, rep.l, rep.combo, key)
                else:
                    assert value == want, (rep.k, rep.l, rep.combo, key)

    def test_sweep_equals_per_call_reports_on_every_grid(self):
        # at kmax=3 the quadrature grids 4 (|k|_inf + |l|_inf) + 4 run from 12
        # to 28; the sweep samples each basis field once per grid for all its
        # pairs, a lone call samples its own.  repr prints every float exactly
        # and NaN as nan, so equal reprs are equal bits with NaN equal to NaN.
        reports = verification_sweep(3)
        first, last = {}, {}  # (|k|_inf, |l|_inf) -> a pair of that shape
        for rep in reports:
            shape = (max(map(abs, rep.k)), max(map(abs, rep.l)))
            first.setdefault(shape, (rep.k, rep.l))
            last[shape] = (rep.k, rep.l)
        assert {4 * (a + b) + 4 for a, b in first} == {12, 16, 20, 24, 28}
        picked = set(first.values()) | set(last.values())
        checked = [rep for rep in reports if (rep.k, rep.l) in picked]
        assert len(checked) == len(picked) * 2 * len(COMBOS)
        for rep in checked:
            alone = verify_bracket_identity(rep.k, rep.l, rep.combo, rep.slot)
            assert repr(rep.to_dict()) == repr(alone.to_dict()), (rep.k, rep.l, rep.combo)

    def test_repeated_sweeps_agree(self):
        # nothing a sweep samples or builds carries over to the next one
        first = [repr(r.to_dict()) for r in verification_sweep(2)]
        assert [repr(r.to_dict()) for r in verification_sweep(2)] == first

    def test_under_resolved_candidate_rejected(self):
        # the pair (1,1), (1,-1) has the candidate (2,2), which needs a grid of
        # 8; the quadrature's own grid of 12 resolves it (project_onto_modes
        # rejects a coarser one, see test_lattice)
        rep = verify_bracket_identity((1, 1), (1, -1), "sum01", MAGNETIC)
        assert rep.selection_ok and rep.target_mode is not None
        assert rep.coefficient_ratio == pytest.approx(1.0, rel=1e-12)


def test_closed_form_weight_structure():
    # velocity weight carries the moduli difference, magnetic the target modulus
    k, l = (0, 1), (1, 1)
    a = pairing_coefficient(k, l)
    w = closed_form_weight(k, l, "sum01", VELOCITY)
    assert w == pytest.approx(a * (norm_sq(l) - norm_sq(k)) / math.sqrt(5))
    w = closed_form_weight(k, l, "diff01", MAGNETIC)
    assert w == pytest.approx(a * math.sqrt(5))
