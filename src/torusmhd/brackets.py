"""Symbolic advection and direction generation on trigonometric vector fields.

The advective nonlinearity maps a pair of basis fields to a field of the form

    (directional wavenumber) * trig(k.x) * trig(l.x) * (direction vector),

which product-to-sum identities reduce to plain trigonometric terms at the
wavevectors k + l and k - l.  This module carries out that algebra exactly
(coefficients in double precision, wavevectors exact integers), projects the
results back onto the divergence-free unit basis, and assembles the two
families of state-space directions that the noise cascade produces:

  * velocity directions: symmetrized advections of two magnetic modes,
    surviving at a single velocity mode with weight proportional to
    a * (|l|^2 - |k|^2) / |k +- l|, where a = <k, l_perp>/(|k||l|);
  * magnetic directions: antisymmetrized velocity-magnetic advections,
    surviving at a single magnetic mode with weight proportional to
    a * |k -+ l|.

Everything is computed from first principles (advect, then project); the
closed forms above serve only as cross-checks.  ``verify_bracket_identity``
re-derives each direction by an independent numerical route (pointwise field
evaluation, FFT differentiation, grid quadrature) and reports the ratio of
the two computations, which must be one global constant across every
admissible (k, l, combo, slot).  Both routes read the signed sums of
advections that define the combinations from ``_COMBO_TABLE``, and share no
arithmetic.  The symbolic route's scalar geometry is plain arithmetic on
Python floats; it does not go through numpy or BLAS.

``verification_sweep`` does each piece of work once.  On the symbolic route a
pair (k, l) builds its eight advections ``_ADVECTIONS`` once
(``_pair_advections``), and all eight (slot, combo) fields of the pair are
signed sums of them.  On the quadrature route ``_pair_quadrature`` projects
all eight fields of a pair onto every candidate mode at once, and each basis
field is sampled and differentiated once per quadrature grid for the whole
sweep (``_SampledFields``), not once per pair.  ``verify_bracket_identity``
runs the same helpers for its one pair, with sampled fields of its own.
Nothing is kept between calls.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .lattice import (
    BASIS_NORM,
    COS,
    MAGNETIC,
    SIN,
    SLOT_NAMES,
    VELOCITY,
    Mode,
    Vec,
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
    scalar_values,
)

#: Expansion coefficients below this are discarded as double-precision dust.
PRUNE_TOL = 1e-14

COMBOS = ("sum01", "diff01", "sum11_00", "diff11_00")


class TrigTerm(NamedTuple):
    """amp * trig(k.x) with a constant 2-vector amplitude.

    ``k`` is canonical after reduction; ``k == (0, 0)`` with cos parity is a
    constant vector (the mean component), kept so that pointwise evaluation
    stays faithful until a Leray projection drops it.
    """

    amp: tuple[float, float]
    parity: int
    k: Vec


@dataclass(frozen=True)
class TrigVectorField:
    """A finite, fully reduced sum of trigonometric terms."""

    terms: tuple[TrigTerm, ...]

    def evaluate(self, x1, x2) -> np.ndarray:
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        out = np.zeros((2,) + np.broadcast(x1, x2).shape)
        for amp, parity, k in self.terms:
            if k == (0, 0):
                s = np.ones_like(x1)
            else:
                s = scalar_values(k, parity, x1, x2)
            out[0] += amp[0] * s
            out[1] += amp[1] * s
        return out

    def is_zero(self) -> bool:
        return not self.terms


def field_from_terms(raw_terms) -> TrigVectorField:
    """Canonicalize wavevectors, merge duplicate (parity, k) keys, drop zeros."""
    acc: dict[tuple[int, Vec], tuple[float, float]] = {}
    for amp, parity, k in raw_terms:
        if k == (0, 0):
            if parity == SIN:
                continue  # sin(0) vanishes identically
            key = (COS, (0, 0))
            sign = 1.0
        elif is_canonical(k):
            key, sign = (parity, k), 1.0
        else:
            # cos(-q.x) = cos(q.x); sin(-q.x) = -sin(q.x)
            key = (parity, (-k[0], -k[1]))
            sign = -1.0 if parity == SIN else 1.0
        a0, a1 = acc.get(key, (0.0, 0.0))
        acc[key] = (a0 + sign * amp[0], a1 + sign * amp[1])
    terms = []
    for (parity, k), amp in sorted(acc.items()):
        if amp[0] == 0.0 and amp[1] == 0.0:
            continue
        terms.append(TrigTerm(amp, parity, k))
    return TrigVectorField(tuple(terms))


ZERO_FIELD = TrigVectorField(())


def advect(k: Vec, m: int, l: Vec, m2: int) -> TrigVectorField:
    """Advection of one unnormalized basis field by another: (e_k^m . grad) e_l^m2.

    The gradient of the scalar factor contributes the directional wavenumber
    (direction(k, m) . l); the result is a product of two trig factors times
    the direction vector of the advected field, reduced to sum form.
    """
    if k == (0, 0) or l == (0, 0):
        raise ValueError("advection requires nonzero wavevectors")
    dk = direction(k, m)
    c0 = dk[0] * l[0] + dk[1] * l[1]
    if m2 == COS:
        coef, second = -c0, SIN  # grad cos(l.x) = -l sin(l.x)
    else:
        coef, second = c0, COS
    if coef == 0.0:
        return ZERO_FIELD
    dl = direction(l, m2)
    first = COS if m == COS else SIN
    ksum = (k[0] + l[0], k[1] + l[1])
    kdif = (k[0] - l[0], k[1] - l[1])
    half = (0.5 * (coef * dl[0]), 0.5 * (coef * dl[1]))
    neg_half = (-half[0], -half[1])
    if first == COS and second == COS:
        raw = [TrigTerm(half, COS, kdif), TrigTerm(half, COS, ksum)]
    elif first == COS and second == SIN:
        raw = [TrigTerm(half, SIN, ksum), TrigTerm(neg_half, SIN, kdif)]
    elif first == SIN and second == COS:
        raw = [TrigTerm(half, SIN, ksum), TrigTerm(half, SIN, kdif)]
    else:
        raw = [TrigTerm(half, COS, kdif), TrigTerm(neg_half, COS, ksum)]
    return field_from_terms(raw)


@dataclass
class DirectionExpansion:
    """Projection of a trig field onto unit modes of one slot."""

    coefficients: dict[Mode, float] = field(default_factory=dict)
    degenerate: Optional[str] = None

    def is_empty(self) -> bool:
        return not self.coefficients

    def single_mode(self) -> tuple[Mode, float]:
        if len(self.coefficients) != 1:
            raise ValueError(f"expansion is not single-mode: {self.coefficients}")
        return next(iter(self.coefficients.items()))


def leray_project(f: TrigVectorField, slot: int) -> DirectionExpansion:
    """Orthogonal projection onto the divergence-free mean-zero unit basis.

    A cos term pairs with the parity-0 mode at its wavevector and a sin term
    with the parity-1 mode; only the amplitude component along the mode's
    direction vector survives.  Terms at the zero wavevector are mean
    components and are dropped.
    """
    coeffs: dict[Mode, float] = {}
    for amp, parity, q in f.terms:
        if q == (0, 0):
            continue
        d = direction(q, parity)
        c = (amp[0] * d[0] + amp[1] * d[1]) * BASIS_NORM
        if abs(c) > PRUNE_TOL:
            mode = make_mode(slot, q, parity)
            coeffs[mode] = coeffs.get(mode, 0.0) + c
    coeffs = {m: c for m, c in coeffs.items() if abs(c) > PRUNE_TOL}
    return DirectionExpansion(coeffs)


#: The eight advections (e_a . grad) e_b between the four unnormalized basis
#: fields of a pair (k, l), indexed 0 = (k, cos), 1 = (k, sin), 2 = (l, cos),
#: 3 = (l, sin).
_ADVECTIONS = ((0, 3), (3, 0), (2, 1), (1, 2), (1, 3), (3, 1), (2, 0), (0, 2))

#: _COMBO_TABLE[slot, combo] weights the advections into the pre-projection
#: field of that direction combination.  Velocity combos pair magnetic modes
#: symmetrically, b(e, e') + b(e', e), and the double bracket of the drift
#: with two noise directions carries an overall minus sign; magnetic combos
#: pair a velocity mode with a magnetic one antisymmetrically, b(e, e') -
#: b(e', e).  For the parity-(1,1)/(0,0) magnetic combos both brackets keep
#: the (k, l) argument order.
_COMBO_TABLE = np.array([
    [[-1, -1, -1, -1, 0, 0, 0, 0],  # velocity sum01
     [-1, -1, 1, 1, 0, 0, 0, 0],  # diff01
     [0, 0, 0, 0, -1, -1, -1, -1],  # sum11_00
     [0, 0, 0, 0, -1, -1, 1, 1]],  # diff11_00
    [[1, -1, 1, -1, 0, 0, 0, 0],  # magnetic sum01
     [1, -1, -1, 1, 0, 0, 0, 0],  # diff01
     [0, 0, 0, 0, 1, -1, -1, 1],  # sum11_00
     [0, 0, 0, 0, 1, -1, 1, -1]],  # diff11_00
], dtype=float)


def _pair_advections(k: Vec, l: Vec) -> list[TrigVectorField]:
    """The eight advections :data:`_ADVECTIONS` between the basis fields of (k, l)."""
    fields = [(q, p) for q in (k, l) for p in (COS, SIN)]
    return [advect(*fields[a], *fields[b]) for a, b in _ADVECTIONS]


def _combo_field(advections: list[TrigVectorField], combo: str, slot: int) -> TrigVectorField:
    """Pre-projection field of one direction combination, reduced exactly."""
    weights = _COMBO_TABLE[slot, COMBOS.index(combo)].tolist()
    return field_from_terms(
        ((w * amp[0], w * amp[1]), parity, q)
        for w, advection in zip(weights, advections) if w
        for amp, parity, q in advection.terms)


def combo_target(k: Vec, l: Vec, combo: str, slot: int) -> tuple[Vec, int]:
    """Raw (uncanonicalized) wavevector and parity where the combo survives."""
    s = (k[0] + l[0], k[1] + l[1])
    d = (k[0] - l[0], k[1] - l[1])
    if slot == VELOCITY:
        table = {"sum01": (s, COS), "diff01": (d, COS),
                 "sum11_00": (d, SIN), "diff11_00": (s, SIN)}
    else:
        table = {"sum01": (d, COS), "diff01": (s, COS),
                 "sum11_00": (d, SIN), "diff11_00": (s, SIN)}
    return table[combo]


def closed_form_weight(k: Vec, l: Vec, combo: str, slot: int) -> float:
    """Modulus structure of the surviving coefficient, without the global constant.

    Velocity: a * (|l|^2 - |k|^2) / |target| up to a combo-fixed sign;
    magnetic: a * |target|.  Returned unsigned relative to those shapes.
    """
    a = pairing_coefficient(k, l)
    target, _ = combo_target(k, l, combo, slot)
    tnorm = math.sqrt(norm_sq(target))
    if slot == VELOCITY:
        if tnorm == 0.0:
            return 0.0
        return a * (norm_sq(l) - norm_sq(k)) / tnorm
    return a * tnorm


def _direction_expansion(k: Vec, l: Vec, combo: str, slot: int,
                         advections: Optional[list[TrigVectorField]] = None
                         ) -> DirectionExpansion:
    """Leray projection of one combo field; ``advections`` are the pair's
    :func:`_pair_advections`, built here when not given."""
    if combo not in COMBOS:
        raise ValueError(f"unknown combo {combo!r}")
    if k == (0, 0) or l == (0, 0):
        raise ValueError("direction generation requires nonzero wavevectors")
    target, _ = combo_target(k, l, combo, slot)
    if slot == MAGNETIC and target == (0, 0):
        return DirectionExpansion(degenerate="degenerate: zero mode")
    if perp_dot(k, l) == 0:
        return DirectionExpansion(degenerate="degenerate: parallel")
    if slot == VELOCITY and norm_sq(k) == norm_sq(l):
        return DirectionExpansion(degenerate="degenerate: equal moduli")
    if advections is None:
        advections = _pair_advections(k, l)
    return leray_project(_combo_field(advections, combo, slot), slot)


def velocity_direction(k: Vec, l: Vec, combo: str) -> DirectionExpansion:
    """Velocity-slot direction generated from magnetic modes at k and l.

    Empty with a reason flag when the pair is collinear or has equal moduli.
    """
    return _direction_expansion(k, l, combo, VELOCITY)


def magnetic_direction(k: Vec, l: Vec, combo: str) -> DirectionExpansion:
    """Magnetic-slot direction generated from a velocity mode at k and a magnetic one at l."""
    return _direction_expansion(k, l, combo, MAGNETIC)


# ---------------------------------------------------------------------------
# Independent numerical verification.
# ---------------------------------------------------------------------------

def _quadrature_grid(k: Vec, l: Vec) -> int:
    """Points per axis of the pair's quadrature grid, 4 (|k|_inf + |l|_inf) + 4."""
    return 4 * (max(abs(k[0]), abs(k[1])) + max(abs(l[0]), abs(l[1]))) + 4


class _SampledFields(dict):
    """Basis fields and their FFT gradients on one quadrature grid, on first use.

    ``self[q]`` is (fields, grads) for the cos and sin fields at the wavevector
    q sampled on the m x m :func:`grid_mesh`: fields has shape (2, 2, m, m),
    indexed [parity, component], and grads (2, 2, 2, m, m), indexed
    [derivative axis, parity, component].  An instance lives for one grid of
    one sweep, or for one lone report.
    """

    def __init__(self, grid: int):
        super().__init__()
        self.mesh = grid_mesh(grid)
        self.freq = np.fft.fftfreq(grid, d=1.0 / grid)

    def __missing__(self, q: Vec) -> tuple[np.ndarray, np.ndarray]:
        fields = np.stack([field_values(q, p, *self.mesh) for p in (COS, SIN)])
        spectrum = np.fft.fft2(fields)
        grads = np.real(np.fft.ifft2(1j * np.stack([self.freq[:, None] * spectrum,
                                                    self.freq[None, :] * spectrum])))
        self[q] = fields, grads
        return fields, grads


def _pair_quadrature(k: Vec, l: Vec, sampled: _SampledFields
                     ) -> tuple[list[Vec], np.ndarray]:
    """Grid projections of all eight (slot, combo) fields of the pair (k, l).

    Reads the four basis fields and their FFT gradients from ``sampled``, whose
    grid must be the pair's :func:`_quadrature_grid`, forms the eight
    advections pointwise and combines them by :data:`_COMBO_TABLE`; every
    combo field is then projected onto every candidate mode by
    :func:`project_onto_modes`.  Returns the candidate wavevectors and the
    projections indexed [slot, combo, candidate, parity].
    """
    (k_fields, k_grads), (l_fields, l_grads) = sampled[k], sampled[l]
    fields = np.concatenate([k_fields, l_fields])
    grads = np.concatenate([k_grads, l_grads], axis=1)
    a, b = np.array(_ADVECTIONS).T
    advections = fields[a, 0, None] * grads[0, b] + fields[a, 1, None] * grads[1, b]
    combos = np.tensordot(_COMBO_TABLE, advections, axes=1)
    candidates = _candidate_wavevectors(k, l)
    return candidates, project_onto_modes(combos, candidates)


@dataclass
class VerificationReport:
    k: Vec
    l: Vec
    combo: str
    slot: int
    selection_ok: bool
    degenerate: Optional[str] = None
    target_mode: Optional[Mode] = None
    symbolic_coeff: float = 0.0
    quadrature_coeff: float = 0.0
    coefficient_ratio: float = float("nan")
    pinned_constant: float = float("nan")
    max_stray: float = 0.0

    def to_dict(self) -> dict:
        return {
            "k": list(self.k),
            "l": list(self.l),
            "combo": self.combo,
            "slot": SLOT_NAMES[self.slot],
            "selection_ok": self.selection_ok,
            "degenerate": self.degenerate,
            "target_mode": self.target_mode.label() if self.target_mode else None,
            "symbolic_coeff": self.symbolic_coeff,
            "quadrature_coeff": self.quadrature_coeff,
            "coefficient_ratio": self.coefficient_ratio,
            "pinned_constant": self.pinned_constant,
            "max_stray": self.max_stray,
        }


def _candidate_wavevectors(k: Vec, l: Vec) -> list[Vec]:
    bound = norm_sq((abs(k[0]) + abs(l[0]), abs(k[1]) + abs(l[1])))
    r = math.isqrt(bound)  # no coordinate of a candidate exceeds it
    return [(q1, q2) for q1 in range(r + 1) for q2 in range(-r, r + 1)
            if is_canonical((q1, q2)) and norm_sq((q1, q2)) <= bound]


def _pair_reports(k: Vec, l: Vec, sampled: _SampledFields) -> list[VerificationReport]:
    """The pair's eight reports, slot-major in :data:`COMBOS` order, each comparing a
    symbolic expansion with its projections on ``sampled``; one array pass takes
    the magnitudes, survivors and strays of all eight."""
    advections = _pair_advections(k, l)
    candidates, projections = _pair_quadrature(k, l, sampled)
    rows = projections.reshape(8, -1)  # [slot, combo] by [candidate, parity]
    magnitudes = np.abs(rows)
    survivors = (magnitudes > 1e-10).sum(axis=1).tolist()  # smaller ones count as vanishing
    reports = []
    for r, (slot, combo) in enumerate(itertools.product((VELOCITY, MAGNETIC), COMBOS)):
        symbolic = _direction_expansion(k, l, combo, slot, advections)
        if symbolic.degenerate is not None or symbolic.is_empty():
            reports.append(VerificationReport(k, l, combo, slot, selection_ok=not survivors[r],
                                              degenerate=symbolic.degenerate))
            continue
        mode, sym_coeff = symbolic.single_mode()
        at = 2 * candidates.index(mode.k) + mode.parity
        ok = bool(magnitudes[r, at] > 1e-10) and survivors[r] == 1
        quad_coeff = float(rows[r, at])
        magnitudes[r, at] = 0.0
        ratio = sym_coeff / quad_coeff if quad_coeff else float("nan")
        raw_target, parity = combo_target(k, l, combo, slot)
        _, sign = canonical_rep(raw_target, parity)
        weight = closed_form_weight(k, l, combo, slot)
        pinned = sym_coeff * sign / weight if weight else float("nan")
        reports.append(VerificationReport(
            k, l, combo, slot, selection_ok=ok, target_mode=mode,
            symbolic_coeff=sym_coeff, quadrature_coeff=quad_coeff,
            coefficient_ratio=ratio, pinned_constant=pinned))
    for report, stray in zip(reports, magnitudes.max(axis=1).tolist()):
        report.max_stray = stray
    return reports


def verify_bracket_identity(k: Vec, l: Vec, combo: str, slot: int) -> VerificationReport:
    """Cross-check one symbolic direction against brute-force grid projection.

    The brute-force route samples the basis fields pointwise, differentiates
    by FFT, and projects the combined advection field by quadrature onto every
    candidate mode (:func:`_pair_quadrature`).  ``selection_ok`` requires both
    routes to agree on the single surviving mode (or on total vanishing);
    ``coefficient_ratio`` is symbolic/quadrature on that mode and must equal
    the same constant for every admissible input.  ``pinned_constant`` is the
    surviving coefficient relative to the closed-form weight, i.e. the
    empirically determined normalization constant of the direction lemmas
    (unit-basis convention).  The pair's other seven reports are built too.
    """
    if combo not in COMBOS or slot not in (VELOCITY, MAGNETIC):
        raise ValueError(f"unknown combo {combo!r} or slot {slot!r}")
    reports = _pair_reports(k, l, _SampledFields(_quadrature_grid(k, l)))
    return reports[slot * len(COMBOS) + COMBOS.index(combo)]


def verification_sweep(kmax: int) -> list[VerificationReport]:
    """All (k, l, combo, slot) reports with nonzero |k|, |l| <= kmax.

    Each (k, l) pair builds its eight advections once and runs one quadrature
    for its eight reports.  Pairs run grid by grid, and each basis field is
    sampled and differentiated once per grid; only one grid's fields are held
    at a time.  The reports come back in (k, l) order.
    """
    points = [
        (a, b)
        for a in range(-kmax, kmax + 1)
        for b in range(-kmax, kmax + 1)
        if (a, b) != (0, 0) and a * a + b * b <= kmax * kmax
    ]
    pairs = list(itertools.product(points, repeat=2))
    by_grid: dict[int, list[int]] = {}
    for i, (k, l) in enumerate(pairs):
        by_grid.setdefault(_quadrature_grid(k, l), []).append(i)
    reports: list[list[VerificationReport]] = [[] for _ in pairs]
    for grid, indices in by_grid.items():
        sampled = _SampledFields(grid)
        for i in indices:
            reports[i] = _pair_reports(*pairs[i], sampled)
    return [r for pair_reports in reports for r in pair_reports]
