"""Generation recursion, window coverage, and derivation certificates."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusmhd.brackets import magnetic_direction, velocity_direction
from torusmhd.cli import main
from torusmhd.reachability import (
    Certificate,
    ForcedSet,
    _admissible_sums,
    _generations,
    admissible,
    check_hypothesis,
    generation_certificate,
    next_generation,
    parity_unions,
    verify_chain,
)

EXAMPLE_Z0 = [(0, 1), (1, 1), (1, 0), (1, 2)]


class TestForcedSet:
    def test_symmetrization(self):
        f = ForcedSet.from_wavevectors([(1, 2)])
        assert f.symmetrized == {(1, 2), (-1, -2)}

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            ForcedSet.from_wavevectors([(0, 0)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ForcedSet.from_wavevectors([])

    def test_coordinates_beyond_exact_int64_rejected(self):
        # the vectorized transition multiplies coordinates in int64
        with pytest.raises(ValueError, match="below"):
            ForcedSet.from_wavevectors([(2**30, 1)])
        forced = ForcedSet.from_wavevectors([(2**30 - 1, 1)])
        with pytest.raises(ValueError, match="below"):
            next_generation({(2**31, 1)}, forced)
        assert next_generation({(1, 0)}, forced) == {(2**30, 1), (2 - 2**30, -1)}
        # a target is checked before its search window is sized from it
        with pytest.raises(ValueError, match="below"):
            generation_certificate(forced, (-(2**30), 0))


class TestNextGeneration:
    def test_single_pair(self):
        forced = ForcedSet.from_wavevectors([(1, 0)])
        assert next_generation({(1, 1)}, forced) == {(2, 1), (0, 1)}

    def test_collinear_empty(self):
        forced = ForcedSet.from_wavevectors([(0, 2)])
        assert next_generation({(0, 1)}, forced) == set()

    def test_hat_set_first_generation(self):
        # the two-mode seed produces exactly four admissible sums
        hat = ForcedSet.from_wavevectors([(0, 1), (1, 1)])
        z1 = next_generation(set(hat.symmetrized), hat)
        assert z1 == {(-1, 0), (-1, -2), (1, 0), (1, 2)}

    @given(st.sets(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(
        lambda k: k != (0, 0)), min_size=1, max_size=4))
    def test_negation_closure_propagates(self, z0):
        # symmetric input stays symmetric under the recursion
        forced = ForcedSet.from_wavevectors(z0)
        gen = set(forced.symmetrized)
        for _ in range(3):
            gen = next_generation(gen, forced)
            assert gen == {(-a, -b) for a, b in gen}


class TestCheckHypothesis:
    def test_example_forcing_covers(self):
        forced = ForcedSet.from_wavevectors(EXAMPLE_Z0)
        rep = check_hypothesis(forced, radius=10, max_depth=40)
        assert rep.even_covered and rep.odd_covered
        assert not rep.missing_even and not rep.missing_odd
        assert rep.depth_used <= 40

    def test_collinear_pair_fails(self):
        forced = ForcedSet.from_wavevectors([(0, 1), (0, 2)])
        rep = check_hypothesis(forced, radius=2)
        assert not rep.even_covered and not rep.odd_covered
        assert (1, 0) in rep.missing_even and (1, 0) in rep.missing_odd

    def test_singleton_fails(self):
        rep = check_hypothesis(ForcedSet.from_wavevectors([(1, 0)]), radius=2)
        assert not rep.even_covered and not rep.odd_covered

    def test_monotone_in_depth(self):
        forced = ForcedSet.from_wavevectors(EXAMPLE_Z0)
        covered_even, covered_odd = set(), set()
        for depth in (1, 2, 4, 8):
            even, odd = parity_unions(forced, depth, window_bound=12)
            assert even >= covered_even and odd >= covered_odd
            covered_even, covered_odd = even, odd

    def test_determinism(self):
        forced = ForcedSet.from_wavevectors(EXAMPLE_Z0)
        a = check_hypothesis(forced, radius=6).to_dict()
        b = check_hypothesis(forced, radius=6).to_dict()
        assert a == b


class TestCertificates:
    def test_length_zero_for_forced_target(self):
        forced = ForcedSet.from_wavevectors(EXAMPLE_Z0)
        cert = generation_certificate(forced, (1, 2), "even")
        assert cert.chain == [(1, 2)]
        assert cert.length() == 0
        assert verify_chain(forced, cert)

    def test_odd_chain_to_neighbor(self):
        forced = ForcedSet.from_wavevectors(EXAMPLE_Z0)
        cert = generation_certificate(forced, (2, 1), "odd")
        assert cert.chain is not None and cert.length() == 1
        assert verify_chain(forced, cert)

    def test_two_mode_seed_reaches_axis(self):
        forced = ForcedSet.from_wavevectors([(0, 1), (1, 1)])
        cert = generation_certificate(forced, (1, 0), "odd")
        assert cert.chain is not None and cert.length() == 1
        assert verify_chain(forced, cert)

    def test_absence_is_verified(self):
        forced = ForcedSet.from_wavevectors([(0, 1), (0, 2)])
        cert = generation_certificate(forced, (1, 0), "even", max_depth=6)
        assert cert.chain is None
        assert not verify_chain(forced, cert)

    def test_replay_rejects_tampered_chain(self):
        forced = ForcedSet.from_wavevectors(EXAMPLE_Z0)
        cert = generation_certificate(forced, (2, 1), "odd")
        cert.chain[-1] = (5, 5)
        assert not verify_chain(forced, cert)

    def test_empty_chain_is_rejected(self):
        forced = ForcedSet.from_wavevectors(EXAMPLE_Z0)
        assert not verify_chain(forced, Certificate((1, 2), "even", [], 0, 3))

    def test_replays_cli_certificates_as_written(self, tmp_path):
        # reach_report.json holds wavevectors as lists; replay them unconverted
        out = tmp_path / "reach"
        assert main(["reach", "--z0", "0,1;1,1;1,0;1,2", "--radius", "6",
                     "--certify", "1,2;3,5;-7,2", "--out", str(out)]) == 0
        doc = json.loads((out / "reach_report.json").read_text())
        forced = ForcedSet.from_wavevectors(doc["z0"])
        assert sum(c["found"] for c in doc["certificates"]) == 6
        for c in doc["certificates"]:
            cert = Certificate(c["target"], c["parity"], c["chain"], c["depth_searched"],
                               c["window_bound"])
            assert verify_chain(forced, cert), c

    def test_certificate_steps_feed_bracket_engine(self):
        # every admissible derivation step generates nonempty directions
        forced = ForcedSet.from_wavevectors(EXAMPLE_Z0)
        for target in [(2, 1), (3, 2), (-2, 3)]:
            cert = generation_certificate(forced, target, "even")
            assert cert.chain is not None
            acc = cert.chain[0]
            for l in cert.chain[1:]:
                assert admissible(acc, l)
                vel = velocity_direction(acc, l, "sum01")
                mag = magnetic_direction(acc, l, "diff01")
                assert not vel.is_empty()
                assert not mag.is_empty()
                exp_k = (acc[0] + l[0], acc[1] + l[1])
                got_vel = {m.k for m in vel.coefficients}
                got_mag = {m.k for m in mag.coefficients}
                want = {exp_k, (-exp_k[0], -exp_k[1])}
                assert got_vel & want and got_mag & want
                acc = exp_k


def _derivations(forced, depth, wsq):
    """Generations 0..depth as sets, and each later row with its first derivation."""
    gens, derived, prev = [set(forced.symmetrized)], [], forced.rows
    for n, rows, k_idx, l_idx in _generations(forced, depth, wsq):
        gens.append(set(map(tuple, rows.tolist())))
        derived += [(tuple(v), tuple(k), tuple(l), n) for v, k, l in
                    zip(rows.tolist(), prev[k_idx].tolist(), forced.rows[l_idx].tolist())]
        prev = rows
    return gens, derived


class TestGenerationTable:
    def test_parent_records_valid_derivations(self):
        forced = ForcedSet.from_wavevectors(EXAMPLE_Z0)
        gens, derived = _derivations(forced, 3, 64)
        for v, k, l, n in derived:
            assert admissible(k, l)
            assert (k[0] + l[0], k[1] + l[1]) == v
            assert v in gens[n] and k in gens[n - 1]


# ---------------------------------------------------------------------------
# The vectorized transition against a brute-force set-based reference.
# ---------------------------------------------------------------------------

def _ref_step(prev, forced, wsq=None):
    out = set()
    for k in prev:
        for l in forced.symmetrized:
            v = (k[0] + l[0], k[1] + l[1])
            if (k[1] * l[0] - k[0] * l[1] != 0
                    and k[0] ** 2 + k[1] ** 2 != l[0] ** 2 + l[1] ** 2
                    and v != (0, 0)
                    and (wsq is None or v[0] ** 2 + v[1] ** 2 <= wsq)):
                out.add(v)
    return out


def _ref_window(forced, radius, max_depth):
    max_mod = max(a * a + b * b for a, b in forced.symmetrized) ** 0.5
    return radius + min(math.ceil(2.0 * max_mod) * max_depth, 4 * radius)


def _ref_hypothesis(forced, radius, max_depth):
    wsq = _ref_window(forced, radius, max_depth) ** 2
    target = {(a, b) for a in range(-radius, radius + 1) for b in range(-radius, radius + 1)
              if 0 < a * a + b * b <= radius * radius}
    unions = [set(forced.symmetrized) & target, set()]
    current, depth_used = set(forced.symmetrized), 0
    for n in range(1, max_depth + 1):
        current, depth_used = _ref_step(current, forced, wsq), n
        if not current:
            break
        unions[n % 2] |= current & target
        if unions[0] >= target and unions[1] >= target:
            break
    return {"radius": radius, "even_covered": unions[0] >= target,
            "odd_covered": unions[1] >= target,
            "missing_even": sorted(list(v) for v in target - unions[0]),
            "missing_odd": sorted(list(v) for v in target - unions[1]),
            "depth_used": depth_used, "max_depth": max_depth,
            "window_bound": _ref_window(forced, radius, max_depth)}


small_forced = st.sets(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(
    lambda k: k != (0, 0)), min_size=1, max_size=4).map(ForcedSet.from_wavevectors)
small_target = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(lambda k: k != (0, 0))


class TestTransitionAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(small_forced, st.integers(1, 6), st.integers(1, 8),
           st.one_of(st.none(), st.integers(1, 6)))
    def test_generations_and_coverage(self, forced, radius, max_depth, window):
        wsq = None if window is None else window * window
        gens = [set(forced.symmetrized)]
        for _ in range(3):
            gens.append(_ref_step(gens[-1], forced, wsq))
            assert next_generation(gens[-2], forced, window_norm_sq=wsq) == gens[-1]

        got, derived = _derivations(forced, 3, wsq)
        assert got == gens[:len(got)]
        assert len(got) == 4 or not got[-1]
        assert sorted(v for v, *_ in derived) == sorted(v for g in got[1:] for v in g)
        for v, k, l, n in derived:
            # every row of generation n comes with a derivation from generation n - 1
            assert k in gens[n - 1] and l in forced.symmetrized
            assert (k[0] + l[0], k[1] + l[1]) == v and admissible(k, l)
        assert parity_unions(forced, 3, window_bound=window) == \
            (set().union(*gens[0::2]), set().union(*gens[1::2]))

        assert check_hypothesis(forced, radius, max_depth).to_dict() == \
            _ref_hypothesis(forced, radius, max_depth)

    @settings(max_examples=60, deadline=None)
    @given(small_forced, st.lists(small_target, max_size=12),
           st.one_of(st.none(), st.integers(1, 6)))
    def test_transition_keeps_row_major_order(self, forced, prev, window):
        # first derivations, and so certificates, depend on this order
        wsq = None if window is None else window * window
        want = []
        for i, k in enumerate(prev):
            for j, l in enumerate(forced.rows.tolist()):
                v = (k[0] + l[0], k[1] + l[1])
                if (admissible(k, l) and v != (0, 0)
                        and (wsq is None or v[0] ** 2 + v[1] ** 2 <= wsq)):
                    want.append((i, j, v))
        k_idx, l_idx, v = _admissible_sums(np.array(prev, dtype=np.int64).reshape(-1, 2),
                                           forced, wsq)
        assert list(zip(k_idx.tolist(), l_idx.tolist(), map(tuple, v.tolist()))) == want

    @settings(max_examples=40, deadline=None)
    @given(small_forced, small_target, st.sampled_from(["even", "odd"]),
           st.integers(1, 6))
    def test_certificates_replay_with_minimal_length(self, forced, target, parity,
                                                     max_depth):
        cert = generation_certificate(forced, target, parity, max_depth=max_depth)
        radius = max(1, math.isqrt(target[0] ** 2 + target[1] ** 2) + 1)
        window = _ref_window(forced, radius, max_depth)
        assert cert.window_bound == window
        want = 0 if parity == "even" else 1
        gen, lengths = set(forced.symmetrized), [0] if target in forced.symmetrized else []
        for n in range(1, max_depth + 1):
            gen = _ref_step(gen, forced, window * window)
            if target in gen:
                lengths.append(n)
        lengths = [n for n in lengths if n % 2 == want]
        if not lengths:
            assert cert.chain is None
        else:
            assert verify_chain(forced, cert)
            assert cert.length() == lengths[0]
