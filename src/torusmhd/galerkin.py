"""Dealiased pseudo-spectral Galerkin integrator for the forced fractional MHD system.

State is the pair (velocity, magnetic) truncated to the Euclidean ball
0 < |k| <= n_cut and stored as real coefficients over the unit-normalized
cos/sin basis, so the squared coefficient norm is the L^2 energy and the
forcing covariance constant is literally the sum of squared amplitudes.

The quadratic advection term B(U, V) has two independent realizations:

  * the triad table - every non-zero mode-pair coupling of the truncation,
                      built once per n_cut from the symbolic advection engine;
                      B(U, V) is one gather, multiply and ``bincount``.  The
                      same entries, merged, assemble the dense linearization
                      whose transpose is the adjoint; merged once more over
                      unordered pairs and sorted by output, they give the
                      time loop's B(U, U) as two gathers, a multiply and one
                      ``np.add.reduceat``;
  * the grid route  - the conservative (divergence) form div(u (x) v) of
                      the advection, which holds because the advecting
                      fields are divergence-free, in real arithmetic on the
                      retained band: one take of the weighted coefficients
                      and two real products with the band's cos and sin
                      tables build the fields; two more take their
                      pointwise products to cos and sin sums on the band,
                      and one take of those sums times real weights, where
                      the derivative and the Leray projection are folded
                      in, gives the coefficients.  B(U, V) transforms eight
                      product fields and the time loop's B(U, U) three,
                      because the Leray projection removes the trace part of
                      the symmetric flux.  The grid has at least 3*n_cut + 1
                      points per axis, which keeps the retained band free of
                      aliased images of quadratic products (the 2/3 rule
                      with the boundary case excluded).

Each route is called by name, ``bilinear_convolution`` or
``bilinear_transform``.  The time loop takes its B(U, U) from ``_route``,
where n_cut alone picks the route: the table up to ``TRIAD_MAX_N_CUT`` and
the grid above it.

Time stepping is an exponential (integrating-factor) Euler-Maruyama scheme:
the fractional dissipation factors e^{-|k|^{2a} dt} are applied exactly, the
nonlinearity is explicit, and the one-step stochastic convolution of each
forced magnetic mode is sampled with its exact variance
amp^2 (1 - e^{-2 lam dt}) / (2 lam).  This is unconditionally stable for the
stiff fractional multipliers and reproduces the linear regime exactly, which
the test oracles rely on.

There is one time loop, and its state may carry a leading replica axis:
coefficients of shape (R, dim), one row per trajectory, each driven by its
own stream.  Both routes of B and the step broadcast over that axis and
treat the rows independently, so a replica batch steps R trajectories for
the Python overhead of one, and each row equals the lone trajectory on its
stream bit for bit.  ``simulate`` is the one-trajectory case with its
record; ``ensemble`` returns the batch's snapshots as one array, or only
what a ``reduce`` keeps of them.  The loop's contract: the route of B is
chosen once per run from n_cut, each block of increments is scaled to noise
kicks in one expression, each step writes its state in place into a
preallocated block of steps, every block is tested for finiteness once, and
each block's snapshots, reduced if asked, are written into one output array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Optional

import numpy as np

from . import brackets
from .lattice import (
    BASIS_NORM,
    COS,
    MAGNETIC,
    SIN,
    VELOCITY,
    Mode,
    Vec,
    canonical_rep,
    direction,
    is_canonical,
    make_mode,
    norm_sq,
)


class SimulationError(RuntimeError):
    """Raised when the integration produces non-finite values.

    ``step`` is the index of the step that did, ``replica`` the trajectory
    stream index of the first replica it hit (None outside an ensemble), and
    ``last_norm`` the coefficient norm of that replica's last finite state.
    """

    def __init__(self, time: float, step: int, replica: Optional[int], last_norm: float):
        who = "" if replica is None else f", replica {replica}"
        super().__init__(f"integration produced non-finite values at t={time:g} "
                         f"(step {step}{who}, last finite norm {last_norm:g})")
        self.time = time
        self.step = step
        self.replica = replica
        self.last_norm = last_norm


def default_grid(n_cut: int) -> int:
    """Smallest even grid with at least 3*n_cut + 1 points per axis.

    At exactly 3*n_cut the aliased images of products of two retained modes
    can land on the truncation boundary, so the inequality is kept strict.
    """
    m = 3 * n_cut + 1
    return m + (m % 2)


@dataclass(frozen=True)
class EquationParams:
    """Dissipation exponents and discretization knobs.

    The experiment layer enforces alpha, beta > 1; the dataclass itself stays
    permissive so that linear (Ornstein-Uhlenbeck) oracle regimes with
    beta = 1 can be constructed directly in tests.
    """

    alpha: float
    beta: float
    n_cut: int
    dt: float
    nonlinearity_enabled: bool = True
    grid: Optional[int] = None


class ModeBasis:
    """Enumeration of the truncated mode set and its transform machinery.

    Coefficient layout: the velocity block precedes the magnetic block; inside
    a block the canonical wavevectors are sorted by (|k|^2, k1, k2) and each
    carries its cos coefficient followed by its sin coefficient.

    The grid transforms are real matrix products with the cos and sin tables
    of the retained band, built here once.  At these sizes a matrix product
    beats an FFT, whose cost is mostly per-call overhead.  Only k2 >= 0 enters
    the tables, and the synthesis uses the analysis tables transposed, so no
    pass reorders an axis.  ``transform_square`` on a lone state, per call on
    a 2-vCPU x86 VM, medians in three fresh processes that time both routes
    interleaved, against complex DFT matrices on the full band: 53-91 against
    79-131 us at n_cut=10, 34-50 against 48-67 us at 5, and 620-689 against
    652-722 us at 32.
    """

    def __init__(self, n_cut: int, grid: Optional[int] = None):
        if n_cut < 1:
            raise ValueError("n_cut must be >= 1")
        self.n_cut = n_cut
        self.grid = grid if grid is not None else default_grid(n_cut)
        if self.grid % 2 or self.grid < 3 * n_cut + 1:
            raise ValueError(
                f"grid {self.grid} too small to dealias quadratic products at "
                f"n_cut={n_cut}: need an even grid >= {3 * n_cut + 1}"
            )
        self.canon: list[Vec] = sorted(
            (
                (a, b)
                for a in range(0, n_cut + 1)
                for b in range(-n_cut, n_cut + 1)
                if (a, b) != (0, 0) and is_canonical((a, b)) and a * a + b * b <= n_cut * n_cut
            ),
            key=lambda k: (norm_sq(k), k),
        )
        self.n_k = len(self.canon)
        self.dim = 4 * self.n_k
        self.kvec = np.array(self.canon, dtype=int)
        self.ksq = np.array([norm_sq(k) for k in self.canon], dtype=float)
        self.dir0 = np.array([direction(k, COS) for k in self.canon])
        # The retained band is k1 in [0, n_cut] along x1 and q = |k2| in
        # [0, n_cut] along x2: the sums at k2 = -q follow from those at q by
        # the parity of cos and sin.  Each angle is the exact integer (j k) mod m
        # before the scaling by 2 pi / m.
        m, cols, n_k = self.grid, n_cut + 1, self.n_k
        angle = (2.0 * math.pi / m) * (np.outer(np.arange(m), np.arange(cols)) % m)
        cos, sin = np.cos(angle), np.sin(angle)                            # (m, cols)
        # analysis of a plane P: [cos(q x2); sin(q x2)], rows interleaved per q,
        # then along x1 the four sums [Pc+ | Ps+ | Pc- | Ps-] per q, where Pc+-
        # is sum P cos(k.x) and Ps+- sum P sin(k.x) at k = (k1, +-q)
        self._sum_x2 = np.stack([cos.T, sin.T], 1).reshape(2 * cols, m)
        self._sum_x1 = np.block([[cos, sin, cos, sin], [-sin, cos, sin, -cos]])  # (2m, 4 cols)
        # synthesis is the transposed analysis: a band of coefficients on those
        # four sums gives the field sum_k Bc cos(k.x) + Bs sin(k.x)
        self._field_x1, self._field_x2 = self._sum_x1.T.copy(), self._sum_x2.T.copy()
        # position in a plane's (cols, 4 cols) sums of each slot coefficient's
        # own sum (Pc for the cos, Ps for the sin coefficient) and of the other
        k1, k2 = self.kvec.T
        at = np.abs(k2) * 4 * cols + 2 * (k2 < 0) * cols + k1
        own, other = np.stack([at, at + cols], 1).ravel(), np.stack([at + cols, at], 1).ravel()
        plane = cols * 4 * cols
        # the band of one slot, (component, cols, 4 cols): a take of the slot
        # padded with a zero (entry 2 n_k), times weights, so that component
        # c's field is sum_k dir0_c (c_cos cos(k.x) - c_sin sin(k.x)) / BASIS_NORM
        sign = np.tile([1.0, -1.0], n_k)  # on the (cos, sin) coefficient of each k
        band, weight = np.full((2, plane), 2 * n_k), np.zeros((2, plane))
        band[:, own] = np.arange(2 * n_k)
        weight[:, own] = np.repeat(self.dir0.T, 2, 1) * sign / BASIS_NORM
        self._band, self._band_weight = band.reshape(2, cols, -1), weight.reshape(2, cols, -1)
        # ``_fold`` terms, (index, weight) of shape (terms, coefficients).  The
        # projection onto the unit directions has the real rectangle-rule
        # weight omega_c = (2 pi / m)^2 dir0_c / BASIS_NORM on (Pc - i Ps), whose
        # (Re, Im) are the (cos, sin) coefficients: one term per component
        omega = (2.0 * math.pi / m) ** 2 / BASIS_NORM * self.dir0          # (n_k, c)
        self._gather_terms = (own + plane * np.arange(2)[:, None], np.repeat(omega.T, 2, 1) * sign)
        # the divergence form's weight i q_d omega_c is imaginary, so the cos
        # coefficient is q_d omega_c Ps and the sin coefficient q_d omega_c Pc
        div = np.repeat(self.kvec[:, :, None] * omega[:, None, :], 2, 0).reshape(-1, 4).T
        on = lambda planes: other + plane * np.array(planes)[:, None]  # one term per plane
        # B(U, V): the velocity row over the planes T_dc, the magnetic row over
        # S_dc, term 2d + c on plane 2d + c of each
        self._flux_terms = (np.concatenate([on(range(4)), on(range(4, 8))], 1), np.tile(div, 2))
        # B(U, U) over the planes (2A, C, w): the velocity row is (div0 - div3) / 2
        # on 2A plus (div1 + div2) on C, the magnetic row (div1 - div2) on w plus
        # w again, weighted 0
        self._square_terms = (np.concatenate([on([0, 1]), on([2, 2])], 1),
                              np.concatenate([[0.5 * (div[0] - div[3]), div[1] + div[2]],
                                              [div[1] - div[2], np.zeros(2 * n_k)]], 1))
        self._kindex = {k: j for j, k in enumerate(self.canon)}

    # -- indexing ----------------------------------------------------------

    def mode_index(self, mode: Mode) -> int:
        j = self._kindex.get(mode.k)
        if j is None:
            raise ValueError(f"wavevector {mode.k} outside truncation n_cut={self.n_cut}")
        return mode.slot * 2 * self.n_k + 2 * j + mode.parity

    def modes(self) -> list[Mode]:
        return [
            make_mode(slot, k, parity)
            for slot in (VELOCITY, MAGNETIC)
            for k in self.canon
            for parity in (COS, SIN)
        ]

    def mode_at(self, index: int) -> Mode:
        slot, rest = divmod(index, 2 * self.n_k)
        j, parity = divmod(rest, 2)
        return make_mode(slot, self.canon[j], parity)

    def slot_block(self, slot: int) -> slice:
        w = 2 * self.n_k
        return slice(slot * w, (slot + 1) * w)

    def level_indices(self, n_level: int) -> np.ndarray:
        """Coefficient indices of all modes with |k| <= n_level."""
        keep = self.ksq <= n_level * n_level
        cols = np.repeat(keep, 2)
        return np.where(np.concatenate([cols, cols]))[0]

    def dissipation_array(self, params: EquationParams) -> np.ndarray:
        lam_v = self.ksq ** params.alpha
        lam_b = self.ksq ** params.beta
        return np.concatenate([np.repeat(lam_v, 2), np.repeat(lam_b, 2)])

    # -- transforms ---------------------------------------------------------
    #
    # A physical field (..., 2, m, m) holds component c at x = 2 pi (j1, j2) / m
    # in [..., c, j2, j1].  Both passes are two real matrix products with the
    # cos and sin tables of the retained band, one per axis, so no grid mode
    # outside the band is formed.  Each product is one plane's, one
    # component's or one state's own, repeated over the leading axes and never
    # merged across them: a batched row makes the BLAS calls of a lone state,
    # with the same shapes, and equals it bit for bit, where one product over
    # all rows would not.

    def synthesize(self, c_slot: np.ndarray) -> np.ndarray:
        """Slot coefficients (..., 2*n_k) -> physical field (..., 2, m, m).

        One take of the zero-padded coefficients times the weights builds each
        component's band, one product along x1 per leading index (the slots
        of one state) and one along x2 per component turn it into the field.
        """
        c = np.asarray(c_slot, dtype=float)
        lead, cols = c.shape[:-1], self.n_cut + 1
        padded = np.zeros(lead + (c.shape[-1] + 1,))
        padded[..., :-1] = c
        band = np.take(padded, self._band, -1)                           # (..., 2, cols, 4 cols)
        band *= self._band_weight
        g = band.reshape(lead[:-1] + (-1, 4 * cols)) @ self._field_x1     # (..., 2 cols, 2m)
        return self._field_x2 @ g.reshape(lead + (2, 2 * cols, self.grid))

    def _retained(self, planes: np.ndarray) -> np.ndarray:
        """Cos and sin sums of real planes (..., P, m, m) on the retained band.

        Returns (..., P, cols, 4 cols): in row |k2|, sum P cos(k.x) at column
        k1 for k2 >= 0 and 2 cols + k1 for k2 < 0, and sum P sin(k.x) a block of
        cols to the right.  They are the real part and minus the imaginary
        part of the planes' DFT.  One product along x2 per plane, and one along
        x1 per leading index (the planes of one state).
        """
        lead = planes.shape[:-2]
        y = self._sum_x2 @ planes                                        # (..., P, 2 cols, m)
        sums = y.reshape(lead[:-1] + (-1, 2 * self.grid)) @ self._sum_x1
        return sums.reshape(lead + (self.n_cut + 1, -1))

    def gather(self, fields: np.ndarray) -> np.ndarray:
        """Physical field (..., 2, m, m) -> slot coefficients (..., 2*n_k).

        Projecting onto the divergence-free unit directions performs the
        Leray projection and the spectral truncation in one stroke.
        """
        return _fold(self._retained(fields), *self._gather_terms)


def _fold(sums: np.ndarray, index: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Coefficients out[..., i] = sum_t weight[t, i] * sums[..., index[t, i]].

    ``sums`` is ``_retained``'s (..., P, cols, 4 cols), read flat per leading
    index; the terms t are added in order, so a batched row adds as a lone
    call does.
    """
    terms = np.take(sums.reshape(sums.shape[:-3] + (-1,)), index, -1)  # (..., T, out)
    terms *= weight
    out = np.add(terms[..., 0, :], terms[..., 1, :])
    for t in range(2, len(index)):
        out += terms[..., t, :]
    return out


@dataclass
class SpectralState:
    """Truncated (velocity, magnetic) pair as a flat coefficient vector."""

    basis: ModeBasis
    coeffs: np.ndarray
    time: float = 0.0

    def copy(self) -> "SpectralState":
        return SpectralState(self.basis, self.coeffs.copy(), self.time)

    def coefficient(self, mode: Mode) -> float:
        return float(self.coeffs[self.basis.mode_index(mode)])


def zero_state(basis: ModeBasis) -> SpectralState:
    return SpectralState(basis, np.zeros(basis.dim))


def unit_mode_state(basis: ModeBasis, mode: Mode, amplitude: float = 1.0) -> SpectralState:
    s = zero_state(basis)
    s.coeffs[basis.mode_index(mode)] = amplitude
    return s


# ---------------------------------------------------------------------------
# Noise specification.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseEntry:
    k: Vec
    parity: int
    amplitude: float


@dataclass(frozen=True)
class NoiseSpec:
    """Degenerate magnetic forcing: one Brownian motion per (k, parity) entry.

    Wavevectors are stored canonically, with the sign flip of a
    canonicalized cos mode folded into the amplitude.
    """

    entries: tuple[NoiseEntry, ...]

    @classmethod
    def from_amplitudes(cls, amplitudes: dict[Vec, tuple[float, float]]) -> "NoiseSpec":
        entries = []
        for k, (a0, a1) in amplitudes.items():
            for parity, amp in ((COS, a0), (SIN, a1)):
                if amp == 0.0:
                    raise ValueError(f"zero amplitude for forced mode {k}, parity {parity}")
                kc, sign = canonical_rep(tuple(k), parity)
                entries.append(NoiseEntry(kc, parity, sign * amp))
        return cls(entries=tuple(entries))

    @classmethod
    def uniform(cls, wavevectors, amplitude: float = 1.0) -> "NoiseSpec":
        return cls.from_amplitudes({tuple(k): (amplitude, amplitude) for k in wavevectors})

    @property
    def dim(self) -> int:
        return len(self.entries)

    def e0(self) -> float:
        """Trace of the forcing covariance, sum of squared amplitudes (inf past the
        float range: ``a * a`` overflows to inf where ``a**2`` raises)."""
        return float(sum(e.amplitude * e.amplitude for e in self.entries))

    def amplitudes(self) -> np.ndarray:
        return np.array([e.amplitude for e in self.entries])

    def mode_indices(self, basis: ModeBasis) -> np.ndarray:
        return np.array(
            [basis.mode_index(make_mode(MAGNETIC, e.k, e.parity)) for e in self.entries],
            dtype=int,
        )


EMPTY_NOISE = NoiseSpec(entries=())


# ---------------------------------------------------------------------------
# The advective bilinear form, two ways.
# ---------------------------------------------------------------------------

def bilinear_transform(basis: ModeBasis, cu: np.ndarray, cv: np.ndarray) -> np.ndarray:
    """B(U, V) by grid transform in divergence form: advecting fields from U.

    The advecting fields are divergence-free, so (u . grad) v = div(u (x) v):
    with U = (u, b) and V = (u', b'), the velocity row is the Leray
    projection of div T and the magnetic row that of div S, where

        T_dc = u_d u'_c - b_d b'_c,    S_dc = u_d b'_c - b_d u'_c.

    ``synthesize`` builds the fields of U and V, ``_retained`` takes the eight
    products to their cos and sin sums on the band, and ``_fold`` those to the
    retained modes, where the derivative and the projection are the weights
    i q_d dir0_c(q), four real terms per coefficient.
    Broadcasts over the leading axes of both arguments, and runs a batch in
    blocks of up to ``SQUARE_BLOCK`` rows, as the squares do.  This is the
    general form, and the oracle of ``transform_square``, which the time loop
    calls for B(U, U).
    """
    slots = lambda c: c.reshape(len(c), 2, -1)  # (rows, velocity/magnetic, 2 n_k)

    def pair(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        f, g = basis.synthesize(np.stack([slots(u), slots(v)]))
        # (rows, s', d, c, m, m): u_d against (u', b')_c minus b_d against (b', u')_c
        flux = f[:, 0, None, :, None, :, :] * g[:, :, None, :, :, :]
        flux -= f[:, 1, None, :, None, :, :] * g[:, ::-1, None, :, :, :]
        sums = basis._retained(flux.reshape((len(u), 8) + flux.shape[-2:]))
        return _fold(sums, *basis._flux_terms)

    return _in_row_blocks(pair, *np.broadcast_arrays(cu, cv))


def transform_square(basis: ModeBasis, cu: np.ndarray) -> np.ndarray:
    """B(U, U) by grid transform: three products where ``bilinear_transform`` takes eight.

    With V = U the flux T_dc = u_d u_c - b_d b_c is symmetric.  Its trace part
    P delta_dc, P = (|u|^2 - |b|^2) / 2, has divergence grad P, which the Leray
    projection removes (q . dir0(q) = 0), so T_11 = P + A and T_22 = P - A
    leave only A = (u1^2 - u2^2 - b1^2 + b2^2) / 2 and C = T_12 = T_21.  And
    S_dc = u_d b_c - b_d u_c is antisymmetric, S_12 = -S_21 = w = u1 b2 - u2 b1.
    So the velocity row is (i q_1 dir0_1 - i q_2 dir0_2) A + (i q_1 dir0_2 +
    i q_2 dir0_1) C and the magnetic row (i q_1 dir0_2 - i q_2 dir0_1) w.
    A state (dim,) or a batch (..., dim), in blocks of up to ``SQUARE_BLOCK``
    rows; a batched row equals the lone call bit for bit.
    """
    def square(rows: np.ndarray) -> np.ndarray:
        f = basis.synthesize(rows.reshape(len(rows), 2, -1))  # (rows, s, c, m, m)
        u1, u2, b1, b2 = f[:, 0, 0], f[:, 0, 1], f[:, 1, 0], f[:, 1, 1]
        planes = np.empty((len(rows), 3) + f.shape[-2:])
        a, c, w = planes[:, 0], planes[:, 1], planes[:, 2]  # 2A, C, w
        t = np.multiply(u2, u2)
        np.multiply(u1, u1, out=a)
        a -= t
        np.multiply(b1, b1, out=t)
        a -= t
        np.multiply(b2, b2, out=t)
        a += t
        np.multiply(u1, u2, out=c)
        np.multiply(b1, b2, out=t)
        c -= t
        np.multiply(u1, b2, out=w)
        np.multiply(u2, b1, out=t)
        w -= t
        return _fold(basis._retained(planes), *basis._square_terms)

    return _in_row_blocks(square, cu)


@lru_cache(maxsize=200_000)
def _pair_projection(k: Vec, m: int, l: Vec, m2: int) -> tuple:
    """Unit-basis projection of the advection of one unnormalized mode pair."""
    expansion = brackets.leray_project(brackets.advect(k, m, l, m2), VELOCITY)
    return tuple((mode.k, mode.parity, coeff) for mode, coeff in expansion.coefficients.items())


#: Largest n_cut at which the simulator takes B from the triad table.  Its
#: work grows like n_cut^4, the grid route's like n_cut^3 in its matrix
#: products plus a fixed per-call overhead.  B(U, U) per state on a 2-vCPU x86
#: VM, ``TriadTable.squarer`` against ``transform_square``, both in blocks of
#: 16 rows, medians of three fresh processes: a lone state 22-34 against 43-53
#: us at n_cut=4 and 57-78 against 47-55 us at 5; a row of a 120-row batch
#: 17-22 against 11-14 us at 4 and 64-70 against 13-15 us at 5.  At 5 both
#: favour the grid, so the table stops at 4, where a lone state still favours
#: the table and a batch the grid.  The route depends on n_cut only, so that
#: a batched row equals the lone state bit for bit.
TRIAD_MAX_N_CUT = 4


#: Rows of a batch per pass of B, on either route.  A block's temporaries
#: stay small; those of a whole 120-row batch (4.5 MB of gathered terms at
#: n_cut = 4, 7 MB of grid planes at n_cut = 10) are, in a fresh process,
#: handed back to the system after each step and faulted in again.
#: ``bilinear_transform`` per row of a 120-row batch on a 2-vCPU x86 VM,
#: medians in three fresh processes: 127-132 us in blocks against 162-229 us
#: unblocked at n_cut = 10, and 25-26 against 50-71 us at n_cut = 5.
SQUARE_BLOCK = 16


def _in_row_blocks(fn, *args: np.ndarray) -> np.ndarray:
    """``fn`` of states (dim,) or batches (..., dim) of one shape, called on
    (k, dim) blocks of at most ``SQUARE_BLOCK`` rows of each argument.

    A lone state is the one-row block; rows are independent, so blocking
    changes no bit.
    """
    shape = np.shape(args[0])
    rows = [np.reshape(a, (-1, shape[-1])) for a in args]
    if len(rows[0]) <= SQUARE_BLOCK:
        return fn(*rows).reshape(shape)
    blocks = range(0, len(rows[0]), SQUARE_BLOCK)
    return np.concatenate([fn(*(r[i:i + SQUARE_BLOCK] for r in rows))
                           for i in blocks]).reshape(shape)


def _scatter_add(index: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """Sum ``weights`` (..., nnz) into ``size`` bins along the last axis."""
    rows = weights.reshape(math.prod(weights.shape[:-1]), weights.shape[-1])
    offsets = (np.arange(len(rows)) * size)[:, None] + index
    out = np.bincount(offsets.ravel(), rows.ravel(), len(rows) * size)
    return out.reshape(weights.shape[:-1] + (size,))


class TriadTable:
    """Every non-zero triad of the truncated advection of one slot by another.

    With T(x, y)_o = sum c x_a y_b over the entries (a, b, o, c), the MHD
    nonlinearity of U = (u, b) and V = (u', b') is

        B(U, V) = (T(u, u') - T(b, b'),  T(u, b') - T(b, u')).

    The entries are exact mode-pair projections from the symbolic advection
    engine, so this route shares no code with the grid transforms.  The same
    entries give the linearization at a state as a dense matrix, whose
    transpose is then the exact adjoint, and B(U, U) for the time loop
    (``square``).
    """

    def __init__(self, n_cut: int):
        basis = ModeBasis(n_cut)
        # only pairs with k + l or k - l inside the ball can reach a retained mode
        ks, ls = basis.kvec[:, None, :], basis.kvec[None, :, :]
        near = np.minimum(((ks + ls) ** 2).sum(-1), ((ks - ls) ** 2).sum(-1)) <= n_cut**2
        entries = []
        for ja, jb in zip(*np.nonzero(near)):
            for m in (COS, SIN):
                for m2 in (COS, SIN):
                    for q, parity, coeff in _pair_projection(basis.canon[ja], m,
                                                             basis.canon[jb], m2):
                        jq = basis._kindex.get(q)
                        if jq is not None:
                            entries.append((2 * ja + m, 2 * jb + m2, 2 * jq + parity, coeff))
        table = np.array(entries, dtype=float).reshape(-1, 4)
        self.a, self.b, self.out = np.ascontiguousarray(table[:, :3].T, dtype=np.intp)
        self.coeff = table[:, 3] / (2.0 * math.pi**2)  # two unit-normalized factors
        self.width = w = 2 * basis.n_k
        # L x = B(U, x) + B(x, U) term by term: (row, column, index into U, sign),
        # four velocity-row terms, then four magnetic-row terms
        o, a, b = self.out, self.a, self.b
        terms = ((o, b, a, 1.0), (o, a, b, 1.0),
                 (o, w + b, w + a, -1.0), (o, w + a, w + b, -1.0),
                 (w + o, w + b, a, 1.0), (w + o, a, w + b, 1.0),
                 (w + o, b, w + a, -1.0), (w + o, w + a, b, -1.0))
        dim = 2 * w
        cell = np.concatenate([row * dim + col for row, col, _, _ in terms])
        state = np.concatenate([u for _, _, u, _ in terms])
        coeff = np.concatenate([sign * self.coeff for _, _, _, sign in terms])
        # the triads (a, b) and (b, a) land on the same (cell, state) pair:
        # merge them, sorted by cell, so L_ij = sum jac_coeff * U[jac_state]
        # over the entries with jac_cell = i * dim + j
        keys, inverse = np.unique(cell * dim + state, return_inverse=True)
        self.jac_cell, self.jac_state = np.divmod(keys, dim)
        self.jac_coeff = np.bincount(inverse.ravel(), coeff, len(keys))
        # L(U) U = 2 B(U, U): merge those entries once more over the unordered
        # pair {column, state}, sorted by row, so B(U, U)_i = sum sq_coeff *
        # U[sq_first] * U[sq_second] over the entries from sq_starts[i].  Entries
        # that merge to exactly 0 are kept: at an overflow they give inf * 0 = NaN,
        # as the unmerged triads of ``apply`` do.  Every row has entries from
        # n_cut = 2 on; at n_cut = 1 no two modes couple and the list is empty.
        row, col = np.divmod(self.jac_cell, dim)
        lo, hi = np.minimum(col, self.jac_state), np.maximum(col, self.jac_state)
        keys, inverse = np.unique((row * dim + lo) * dim + hi, return_inverse=True)
        row, pair = np.divmod(keys, dim * dim)
        self.sq_first, self.sq_second = np.divmod(pair, dim)
        self.sq_coeff = 0.5 * np.bincount(inverse.ravel(), self.jac_coeff, len(keys))
        self.sq_starts = np.searchsorted(row, np.arange(dim))

    def squarer(self):
        """B(U, U) for a state (dim,) or a batch (..., dim), as a function: two
        gathers and one ``reduceat`` per block of rows.

        The function keeps its two gather buffers between calls.  They hold
        the largest block of rows seen so far and are filled in place by
        ``np.take(..., out=..., mode="clip")``, so a time loop that binds one
        squarer per run allocates them once: allocated per call, the (16,
        4704) blocks at n_cut = 4 are, in a fresh process, handed back to the
        system and faulted in again at every step.
        """
        buffers = np.empty((2, 0, self.sq_coeff.size))

        def square_rows(rows: np.ndarray) -> np.ndarray:
            nonlocal buffers
            if not self.sq_coeff.size:
                return np.zeros(rows.shape)
            if len(rows) > buffers.shape[1]:
                buffers = np.empty((2, len(rows), self.sq_coeff.size))
            terms, other = buffers[:, :len(rows)]
            np.take(rows, self.sq_first, -1, out=terms, mode="clip")
            np.take(rows, self.sq_second, -1, out=other, mode="clip")
            terms *= other
            terms *= self.sq_coeff  # last: (c U_j) U_k would overflow at another step
            return np.add.reduceat(terms, self.sq_starts, -1)

        return partial(_in_row_blocks, square_rows)

    def apply(self, cu: np.ndarray, cv: np.ndarray) -> np.ndarray:
        """B(U, V), broadcast over the leading axes of both arguments."""
        w = self.width
        cu, cv = np.asarray(cu), np.asarray(cv)
        u, b = np.take(cu[..., :w], self.a, -1), np.take(cu[..., w:], self.a, -1)
        u2, b2 = np.take(cv[..., :w], self.b, -1), np.take(cv[..., w:], self.b, -1)
        vel, mag = self.coeff * (u * u2 - b * b2), self.coeff * (u * b2 - b * u2)
        return np.concatenate([_scatter_add(self.out, vel, w), _scatter_add(self.out, mag, w)], -1)


@lru_cache(maxsize=None)
def triad_table(n_cut: int) -> TriadTable:
    """The triad table of a truncation, built on first use and then kept."""
    return TriadTable(n_cut)


def bilinear_convolution(basis: ModeBasis, cu: np.ndarray, cv: np.ndarray) -> np.ndarray:
    """B(U, V) from the exact triad table; broadcasts over leading axes."""
    return triad_table(basis.n_cut).apply(cu, cv)


def _route(basis: ModeBasis):
    """The time loop's B(U, U) as a function, chosen from n_cut alone.

    Up to ``TRIAD_MAX_N_CUT`` it is a ``TriadTable.squarer`` of its own, whose
    gather buffers live as long as the run that bound it; above, it is
    ``transform_square``, not ``bilinear_transform`` on (U, U).  That name is
    looked up each time this runs, so a run started after a wrapper is
    installed on it binds the wrapper."""
    if basis.n_cut <= TRIAD_MAX_N_CUT:
        return triad_table(basis.n_cut).squarer()
    return partial(transform_square, basis)


# ---------------------------------------------------------------------------
# Time stepping.
# ---------------------------------------------------------------------------

#: Master seeds lie in [0, SEED_BOUND).  ``SeedSequence`` splits a seed into
#: 32-bit words and zero-pads its entropy to four words, so stream 0 of the
#: master 2**32 + 5 would draw what stream 1 of the master 5 draws.
SEED_BOUND = 1 << 32


def trajectory_seed(master, index: int):
    """Seed of trajectory stream ``index`` of a run seeded with ``master``."""
    if not 0 <= int(master) < SEED_BOUND:
        raise ValueError(f"master seed must be in [0, 2**32), got {master}")
    if index < 0:
        raise ValueError("trajectory stream index must be non-negative")
    return (int(master), int(index))


def snapshot_steps(n_steps: int, snapshot_stride: int) -> list[int]:
    """Step indices of the snapshot grid: every stride-th step, and the last."""
    snaps = list(range(0, n_steps + 1, snapshot_stride))
    if snaps[-1] != n_steps:
        snaps.append(n_steps)
    return snaps


def _step_count(horizon: float, dt: float, snapshot_stride: int) -> int:
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if snapshot_stride < 1:
        raise ValueError("snapshot_stride must be >= 1")
    n_steps = int(round(horizon / dt))
    if abs(n_steps * dt - horizon) > 1e-9 * max(1.0, horizon) or n_steps < 1:
        raise ValueError(f"horizon {horizon} is not a multiple of dt {dt}")
    return n_steps


#: Coefficients in each of the time loop's two blocks, the states of its
#: steps and their noise kicks: 256 KiB of float64 apiece.  A block costs one
#: finiteness test and one write of its snapshots for all its steps.  Per linear
#: step at n_cut = 2, reduction included, medians in three fresh processes on
#: a 2-vCPU x86 VM, against a loop that allocates, tests and hands out each
#: step on its own: a lone state 1.0-1.7 against 3.7-5.8 us, a row-batch of 50
#: replicas 5.9-6.4 against 8.7-12.6 us.  Blocks of 1 MiB step that batch
#: about 1.5 times slower, the two blocks no longer sitting in the core's
#: cache, and hold four times the memory.
STEP_BLOCK = 1 << 15


def _integrate(basis: ModeBasis, coeffs: np.ndarray, t0: float,
               params: EquationParams, noise: NoiseSpec, n_steps: int,
               snapshot_stride: int, dw_blocks, streams=None, reduce=None):
    """The time loop: (times (n_snap,), values (n_snap, ...)) on the snapshot grid.

    ``coeffs`` is (dim,) or (R, dim), and ``dw_blocks`` gives the Brownian
    increments as (steps, d) or (steps, R, d) blocks that together cover
    ``n_steps`` steps.  The values are the states, (n_snap,) + ``coeffs.shape``,
    or ``reduce`` of them: it maps (k,) + ``coeffs.shape`` states to (k, ...)
    values.  Every replica row evolves on its own, so a row's values do not
    depend on the rows batched with it.  ``streams`` names the rows in a
    blow-up report.

    Each step writes its state in place into the next row of a block of at
    most ``STEP_BLOCK`` coefficients, and adds its kicks as the matching row
    of a kick block whose unforced entries are -0.0 (x + (-0.0) == x for
    every x).  A finished block is tested for finiteness once.  No operation
    of a step (x d, x - dt B, x + k) makes a non-finite entry finite, so the
    block's first non-finite row is the step that a test after every step
    would have stopped at.  Then its snapshots, passed through ``reduce`` when
    one is given, are written into the output array, which the first block
    allocates, and its last row starts the next block.
    """
    dt = params.dt
    lam = basis.dissipation_array(params)
    idx = noise.mode_indices(basis)
    lam_f = lam[idx]
    # the exact one-step stddev of each forced entry, for increments of variance dt
    scale = noise.amplitudes() * np.sqrt(-np.expm1(-2.0 * lam_f * dt) / (2.0 * lam_f))
    sqrt_dt = math.sqrt(dt)
    shape, n_rows = coeffs.shape, coeffs.size // basis.dim
    # tiled over the rows once: a multiply of equal shapes is cheaper than a broadcast
    decay = np.tile(np.exp(-lam * dt), (n_rows, 1)).reshape(shape)
    # flat indices of every row's forced entries, in the row-major order of a kick
    forced = (np.arange(n_rows)[:, None] * basis.dim + idx).ravel()
    square = _route(basis) if params.nonlinearity_enabled else None
    steps = max(1, min(n_steps, STEP_BLOCK // max(1, coeffs.size) - 1))
    block = np.empty((steps + 1,) + shape)
    kicks = np.full((steps,) + shape, -0.0)
    states, kick_rows = list(block), list(kicks)  # the row views, made once
    block[0] = coeffs
    snaps = np.array(snapshot_steps(n_steps, snapshot_stride))
    values = None
    n, row = 0, 0  # steps taken, snapshots written
    for dw in dw_blocks:
        dw_kicks = (scale * (dw / sqrt_dt)).reshape(len(dw), -1)
        for start in range(0, len(dw), steps):
            k = min(steps, len(dw) - start)
            kicks.reshape(steps, -1)[:k, forced] = dw_kicks[start:start + k]
            with np.errstate(over="ignore", invalid="ignore"):
                for src, dst, kick in zip(states[:k], states[1:k + 1], kick_rows):
                    if square is None:
                        np.multiply(src, decay, out=dst)
                    else:
                        sq = square(src)
                        sq *= dt
                        np.subtract(src, sq, out=dst)
                        dst *= decay
                    dst += kick
            if not np.isfinite(block[1:k + 1]).all():
                finite = np.isfinite(block[1:k + 1].reshape(k, n_rows, basis.dim)).all(-1)
                step, bad = (int(i) for i in np.argwhere(~finite)[0])  # earliest, then row
                raise SimulationError(t0 + (n + step + 1) * dt, n + step + 1,
                                      None if streams is None else streams[bad],
                                      math.hypot(*block[step].reshape(n_rows, basis.dim)[bad]))
            end = int(np.searchsorted(snaps, n + k, side="right"))
            if end > row:
                got = block[snaps[row:end] - n]
                if reduce is not None:
                    got = reduce(got)
                if values is None:
                    values = np.empty((len(snaps),) + got.shape[1:], got.dtype)
                values[row:end] = got
            n, row = n + k, end
            block[0] = block[k]
    return t0 + dt * snaps, values


#: Normals drawn per block of an ensemble's increments, over all replicas.
NOISE_BLOCK = 1 << 15


def ensemble(state0: SpectralState, params: EquationParams, noise: NoiseSpec,
             horizon: float, seed, streams, snapshot_stride: int = 1, reduce=None):
    """Replicas of ``state0`` in one time loop: (times (n_snap,), values (n_snap, R, ...)).

    Row i is the trajectory on stream ``trajectory_seed(seed, streams[i])``
    and equals bit for bit the states of ``simulate`` with that seed.  Its
    increments are drawn in blocks of steps, which concatenate to the single
    draw ``simulate`` makes.  The values are the states (n_snap, R, dim), or,
    with ``reduce``, what it maps them to: each block of steps
    (``STEP_BLOCK``) passes its snapshots through ``reduce`` before the next
    block runs, so such an ensemble never holds its states, and the values
    equal ``reduce`` of the whole states bit for bit when ``reduce`` treats
    the snapshots independently.
    """
    streams = [int(i) for i in streams]
    n_steps = _step_count(horizon, params.dt, snapshot_stride)
    rngs = [np.random.default_rng(trajectory_seed(seed, i)) for i in streams]
    coeffs = np.tile(state0.coeffs, (len(rngs), 1))
    return _integrate(state0.basis, coeffs, state0.time, params, noise, n_steps,
                      snapshot_stride, _increment_blocks(rngs, n_steps, noise.dim, params.dt),
                      streams, reduce)


def _increment_blocks(rngs, n_steps: int, d: int, dt: float):
    """Yield the Brownian increments of the replicas on ``rngs`` as (steps, R, d) blocks.

    Each replica's block is drawn in place into its row of one (R, steps, d)
    buffer, and a block is the transposed view of that buffer: the time loop
    scales it to noise kicks before it asks for the next block.
    """
    block = max(1, NOISE_BLOCK // max(1, len(rngs) * d))
    buffer = np.empty((len(rngs), min(block, n_steps), d))
    for start in range(0, n_steps, block):
        draws = buffer[:, :min(block, n_steps - start)]
        for rng, row in zip(rngs, draws):
            rng.standard_normal(out=row)
        draws *= math.sqrt(dt)
        yield draws.transpose(1, 0, 2)


@dataclass
class TrajectoryRecord:
    """States on a snapshot grid, plus the driving increments when requested."""

    basis: ModeBasis
    params: EquationParams
    noise: NoiseSpec
    seed: object
    dt: float
    n_steps: int
    snapshot_stride: int
    times: np.ndarray                      # (n_snapshots,)
    states: np.ndarray                     # (n_snapshots, dim)
    noise_increments: Optional[np.ndarray] = None  # (n_steps, d)


def simulate(state0: SpectralState, params: EquationParams, noise: NoiseSpec,
             horizon: float, seed, snapshot_stride: int = 1,
             store_noise: bool = False,
             increments: Optional[np.ndarray] = None) -> TrajectoryRecord:
    """Integrate up to the horizon; deterministic in (inputs, seed).

    The one-replica case of the time loop, whose states on the snapshot grid
    are the record.  ``increments`` overrides the generated Brownian
    increments (used by the refinement studies that share one underlying path
    across step sizes).
    """
    dt = params.dt
    n_steps = _step_count(horizon, dt, snapshot_stride)
    if increments is not None:
        dws = np.asarray(increments, dtype=float)
        if dws.shape != (n_steps, noise.dim):
            raise ValueError(f"increments must have shape {(n_steps, noise.dim)}")
    else:
        rng = np.random.default_rng(seed)
        dws = rng.standard_normal((n_steps, noise.dim)) * math.sqrt(dt)

    times, states = _integrate(state0.basis, state0.coeffs, state0.time, params, noise,
                               n_steps, snapshot_stride, [dws])
    return TrajectoryRecord(
        basis=state0.basis, params=params, noise=noise, seed=seed, dt=dt,
        n_steps=n_steps, snapshot_stride=snapshot_stride, times=times,
        states=states, noise_increments=dws if store_noise else None,
    )


# ---------------------------------------------------------------------------
# Energy bookkeeping.
# ---------------------------------------------------------------------------

def sobolev_energy(basis: ModeBasis, coeffs: np.ndarray,
                   params: EquationParams) -> tuple[np.ndarray, np.ndarray]:
    """Dissipation quadratic forms (velocity, magnetic), batched over rows."""
    lam = basis.dissipation_array(params)
    c2 = np.asarray(coeffs) ** 2
    vel, mag = basis.slot_block(VELOCITY), basis.slot_block(MAGNETIC)
    return (c2[..., vel] * lam[vel]).sum(-1), (c2[..., mag] * lam[mag]).sum(-1)


def energy_balance_residual(rec: TrajectoryRecord, params: EquationParams,
                            noise: NoiseSpec) -> np.ndarray:
    """Per-step residual of the discrete Ito energy identity.

    residual_n = ||U_{n+1}||^2 - ||U_n||^2 + 2 dt (dissipation at U_n)
                 - E_0 dt - 2 <b_n, forcing increment_n>.
    """
    if rec.noise_increments is None:
        raise ValueError("record does not store noise increments")
    if rec.snapshot_stride != 1:
        raise ValueError("energy residual requires stride-1 snapshots")
    dt = rec.dt
    nsq = (rec.states**2).sum(1)
    e_u, e_b = sobolev_energy(rec.basis, rec.states[:-1], params)
    res = nsq[1:] - nsq[:-1] + 2.0 * dt * (e_u + e_b) - noise.e0() * dt
    if noise.dim:
        idx = noise.mode_indices(rec.basis)
        amps = noise.amplitudes()
        pair = (rec.states[:-1, idx] * rec.noise_increments) @ amps
        res = res - 2.0 * pair
    return res
