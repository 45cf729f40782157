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
                      fields are divergence-free: one inverse real FFT builds
                      the fields, their pointwise products take one forward
                      real FFT, and the derivative and the Leray projection
                      are weights on the retained modes.  B(U, V) takes eight
                      products; the time loop's B(U, U) takes three, because
                      the Leray projection removes the trace part of the
                      symmetric flux.  Both passes transform along x2 only
                      the n_cut + 1 columns of the half spectrum that hold
                      retained modes.  The grid has at least 3*n_cut + 1
                      points per axis, which keeps the retained band free of
                      aliased images of quadratic products (the 2/3 rule
                      with the boundary case excluded).

The simulator uses the table up to ``TRIAD_MAX_N_CUT`` and the FFT above it.

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
stream bit for bit.  ``simulate`` is the one-trajectory case that keeps the
whole record; ``ensemble`` yields the batch at each snapshot, for callers
that reduce the states as the loop steps.  The loop's contract: the route
of B is chosen once per run from n_cut, each block of increments is scaled
to noise kicks in one expression, every snapshot is a fresh array, and every
step is tested for finiteness.
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
        # flat index of each canonical k in the (m, n_cut + 1) columns k1 <= n_cut
        # of the half spectrum, the only ones a retained mode touches, and where
        # synthesis puts each mode and, for k1 = 0, its conjugate at -k2
        m, cols = self.grid, n_cut + 1
        k1, k2 = self.kvec[:, 0], self.kvec[:, 1]
        self._pick = (k2 % m) * cols + k1
        edge = np.flatnonzero(k1 == 0)
        self._put = np.concatenate([self._pick, (-k2[edge]) % m * cols])
        self._put_src = np.concatenate([np.arange(self.n_k), edge])
        self._put_dir = self.dir0.T[:, self._put_src] / (2.0 * BASIS_NORM)
        # rectangle-rule weights of the projection onto the unit directions,
        # (c, n_k), and of i q_d dir0_c(q) for the divergence form, (2d + c, n_k)
        self._proj = (2.0 * math.pi / m) ** 2 / BASIS_NORM * self.dir0.T
        self._div = 1j * (self.kvec.T[:, None, :] * self._proj).reshape(4, -1)
        # the same weights on the three products (A, C, w) of ``transform_square``
        self._div_sq = np.array([self._div[0] - self._div[3], self._div[1] + self._div[2],
                                 self._div[1] - self._div[2]])
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
    # in [..., c, j2, j1]: x1 runs along the last axis, the one that rfft
    # halves, so the canonical wavevectors (k1 >= 0) need no conjugate fold
    # except on the k1 = 0 column.  Both passes transform along x2 only the
    # columns k1 <= n_cut, the only ones a retained mode touches.  irfft2 runs
    # that transform first and rfft2 last, column by column, so pruning the
    # other columns changes no bit.

    def synthesize(self, c_slot: np.ndarray) -> np.ndarray:
        """Slot coefficients (..., 2*n_k) -> physical field (..., 2, m, m)."""
        m, cols = self.grid, self.n_cut + 1
        # c_cos + i c_sin per canonical mode, then the edge-column conjugates
        amp = np.ascontiguousarray(c_slot, dtype=float).view(complex)[..., self._put_src]
        np.conjugate(amp[..., self.n_k:], out=amp[..., self.n_k:])
        hat = np.zeros(amp.shape[:-1] + (2, m * cols), dtype=complex)
        hat[..., self._put] = amp[..., None, :] * self._put_dir
        hat = np.fft.ifft(hat.reshape(hat.shape[:-1] + (m, cols)), axis=-2, norm="forward")
        return np.fft.irfft(hat, n=m, axis=-1, norm="forward")  # zero-pads k1 > n_cut

    def _retained(self, fields: np.ndarray) -> np.ndarray:
        """Fourier sums of real fields (..., m, m) at the canonical modes, (..., n_k)."""
        hat = np.fft.fft(np.fft.rfft(fields)[..., :self.n_cut + 1], axis=-2)
        return np.take(hat.reshape(hat.shape[:-2] + (-1,)), self._pick, -1)

    def gather(self, fields: np.ndarray) -> np.ndarray:
        """Physical field (..., 2, m, m) -> slot coefficients (..., 2*n_k).

        Projecting onto the divergence-free unit directions performs the
        Leray projection and the spectral truncation in one stroke.
        """
        picked = self._retained(fields)  # (..., 2, n_k)
        z = self._proj[0] * picked[..., 0, :] + self._proj[1] * picked[..., 1, :]
        return z.view(float)  # (Re, Im) pairs are the (cos, sin) coefficients


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
    canonicalized cos mode folded into the amplitude.  ``z0`` keeps the
    forced set as given for reachability bookkeeping.
    """

    entries: tuple[NoiseEntry, ...]
    z0: frozenset[Vec]

    @classmethod
    def from_amplitudes(cls, amplitudes: dict[Vec, tuple[float, float]]) -> "NoiseSpec":
        entries = []
        for k, (a0, a1) in amplitudes.items():
            for parity, amp in ((COS, a0), (SIN, a1)):
                if amp == 0.0:
                    raise ValueError(f"zero amplitude for forced mode {k}, parity {parity}")
                kc, sign = canonical_rep(tuple(k), parity)
                entries.append(NoiseEntry(kc, parity, sign * amp))
        return cls(entries=tuple(entries), z0=frozenset(tuple(k) for k in amplitudes))

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


EMPTY_NOISE = NoiseSpec(entries=(), z0=frozenset())


# ---------------------------------------------------------------------------
# The advective bilinear form, two ways.
# ---------------------------------------------------------------------------

def bilinear_transform(basis: ModeBasis, cu: np.ndarray, cv: np.ndarray) -> np.ndarray:
    """B(U, V) by grid transform in divergence form: advecting fields from U.

    The advecting fields are divergence-free, so (u . grad) v = div(u (x) v):
    with U = (u, b) and V = (u', b'), the velocity row is the Leray
    projection of div T and the magnetic row that of div S, where

        T_dc = u_d u'_c - b_d b'_c,    S_dc = u_d b'_c - b_d u'_c.

    One inverse real transform builds the fields of U and V (only U's when
    ``cv is cu``), one forward real transform takes the eight products, and
    on the retained modes the derivative and the projection are the weights
    i q_d dir0_c(q).  Broadcasts over the leading axes of both arguments.
    This is the general form, and the oracle of ``transform_square``, which
    the time loop calls for B(U, U).
    """
    n = 2 * basis.n_k
    slots = lambda c: c.reshape(c.shape[:-1] + (2, n))  # (velocity, magnetic)
    if cv is cu:
        f = g = basis.synthesize(slots(np.asarray(cu)))
    else:
        f, g = basis.synthesize(slots(np.stack(np.broadcast_arrays(cu, cv))))
    # (..., s', d, c, m, m): u_d against (u', b')_c minus b_d against (b', u')_c
    flux = f[..., 0, None, :, None, :, :] * g[..., :, None, :, :, :]
    flux -= f[..., 1, None, :, None, :, :] * g[..., ::-1, None, :, :, :]
    hat = basis._retained(flux.reshape(flux.shape[:-5] + (2, 4) + flux.shape[-2:]))
    # term by term, so that a batched row adds in the order of a lone state
    z = sum(basis._div[j] * hat[..., j, :] for j in range(4))  # (..., 2, n_k)
    return z.view(float).reshape(z.shape[:-2] + (2 * n,))


def transform_square(basis: ModeBasis, cu: np.ndarray) -> np.ndarray:
    """B(U, U) by grid transform: three products where ``bilinear_transform`` takes eight.

    With V = U the flux T_dc = u_d u_c - b_d b_c is symmetric.  Its trace part
    P delta_dc, P = (|u|^2 - |b|^2) / 2, has divergence grad P, which the Leray
    projection removes (q . dir0(q) = 0), so T_11 = P + A and T_22 = P - A
    leave only A = (u1^2 - u2^2 - b1^2 + b2^2) / 2 and C = T_12 = T_21.  And
    S_dc = u_d b_c - b_d u_c is antisymmetric, S_12 = -S_21 = w = u1 b2 - u2 b1.
    So the velocity row is (i q_1 dir0_1 - i q_2 dir0_2) A + (i q_1 dir0_2 +
    i q_2 dir0_1) C and the magnetic row (i q_1 dir0_2 - i q_2 dir0_1) w.
    Broadcasts over leading axes; a batched row equals the lone call bit for bit.
    """
    cu = np.asarray(cu)
    f = basis.synthesize(cu.reshape(cu.shape[:-1] + (2, 2 * basis.n_k)))
    (u1, u2), (b1, b2) = np.moveaxis(f, (-4, -3), (0, 1))
    products = np.stack([0.5 * ((u1 * u1 - u2 * u2) - (b1 * b1 - b2 * b2)),
                         u1 * u2 - b1 * b2, u1 * b2 - u2 * b1], -3)
    hat = basis._retained(products)  # (..., 3, n_k)
    w = basis._div_sq
    z = np.stack([w[0] * hat[..., 0, :] + w[1] * hat[..., 1, :], w[2] * hat[..., 2, :]], -2)
    return z.view(float).reshape(cu.shape)


@lru_cache(maxsize=200_000)
def _pair_projection(k: Vec, m: int, l: Vec, m2: int) -> tuple:
    """Unit-basis projection of the advection of one unnormalized mode pair."""
    expansion = brackets.leray_project(brackets.advect(k, m, l, m2), VELOCITY)
    return tuple((mode.k, mode.parity, coeff) for mode, coeff in expansion.coefficients.items())


#: Largest n_cut at which the simulator takes B from the triad table.  Its
#: work grows like n_cut^4, the FFT's like n_cut^2 log n_cut plus a fixed
#: per-call overhead.  B(U, U) per state on a 2-vCPU x86 VM, ``TriadTable.square``
#: in blocks of 16 rows against ``transform_square``, over two runs: a lone
#: state 19-25 against 89-110 us at n_cut=4, 45-65 against 115-139 us at 5 and
#: 120-127 against 144-162 us at 6; a row of a 120-row batch 13-14 against
#: 30-34 us at 4, 59-62 against 40-45 us at 5 and 325-328 against 62-65 us
#: at 6.  At 5 the two disagree, so the table stops at 4.  The route depends
#: on n_cut only, so that a batched row equals the lone state bit for bit.
TRIAD_MAX_N_CUT = 4


#: Rows of a batch per pass of ``TriadTable.square``.  A block's gathered terms
#: stay small; those of a whole 120-row batch (4.5 MB at n_cut = 4) are, in a
#: fresh process, handed back to the system after each step and faulted in
#: again.  Rows are independent, so blocking changes no bit.
SQUARE_BLOCK = 16


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

    def square(self, cu: np.ndarray) -> np.ndarray:
        """B(U, U) for a state (dim,) or a batch (R, dim): gathers and one ``reduceat``
        per block of up to ``SQUARE_BLOCK`` rows.

        A lone state takes the (1, dim) view of a batch row, so that each batch
        row equals the lone call bit for bit.
        """
        cu = np.asarray(cu)
        if not self.sq_coeff.size:
            return np.zeros(cu.shape)
        rows = cu.reshape(-1, cu.shape[-1])
        if len(rows) > SQUARE_BLOCK:
            blocks = range(0, len(rows), SQUARE_BLOCK)
            return np.concatenate([self.square(rows[i:i + SQUARE_BLOCK]) for i in blocks]
                                  ).reshape(cu.shape)
        terms = np.take(rows, self.sq_first, -1)
        terms *= np.take(rows, self.sq_second, -1)
        terms *= self.sq_coeff  # last: (c U_j) U_k would overflow at another step
        return np.add.reduceat(terms, self.sq_starts, -1).reshape(cu.shape)

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


def _route(basis: ModeBasis, path: Optional[str] = None):
    """(B(U, V), B(U, U)) as functions: the named route, or the faster one at this n_cut.

    The grid route's B(U, U) is ``transform_square``, not ``bilinear_transform``
    on (U, U).  Both names are looked up each time this runs, so a run started
    after a wrapper is installed on either binds the wrapper."""
    if path is None:
        path = "convolution" if basis.n_cut <= TRIAD_MAX_N_CUT else "transform"
    if path == "transform":
        return partial(bilinear_transform, basis), partial(transform_square, basis)
    if path == "convolution":
        table = triad_table(basis.n_cut)
        return table.apply, table.square
    raise ValueError(f"unknown bilinear path {path!r}")


def bilinear_B(basis: ModeBasis, cu: np.ndarray, cv: np.ndarray,
               path: Optional[str] = None) -> np.ndarray:
    """B(U, V) by the named route, or by the faster one for this truncation."""
    return _route(basis, path)[0](cu, cv)


# ---------------------------------------------------------------------------
# Time stepping.
# ---------------------------------------------------------------------------

def trajectory_seed(master, index: int):
    """Seed of trajectory stream ``index`` of a run seeded with ``master``."""
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


def _integrate(basis: ModeBasis, coeffs: np.ndarray, t0: float,
               params: EquationParams, noise: NoiseSpec, n_steps: int,
               snapshot_stride: int, dw_blocks, streams=None):
    """The time loop: yield (t, coeffs) at every snapshot step.

    ``coeffs`` is (dim,) or (R, dim), and ``dw_blocks`` yields the Brownian
    increments as (steps, d) or (steps, R, d) blocks that together cover
    ``n_steps`` steps.  Every replica row evolves on its own, so a row's
    values do not depend on the rows batched with it.  ``streams`` names the
    rows in a blow-up report.  Each step makes one fresh array and updates it
    in place, so a yielded snapshot is never written again.
    """
    dt = params.dt
    lam = basis.dissipation_array(params)
    decay = np.exp(-lam * dt)
    idx = noise.mode_indices(basis)
    lam_f = lam[idx]
    # the exact one-step stddev of each forced entry, for increments of variance dt
    scale = noise.amplitudes() * np.sqrt(-np.expm1(-2.0 * lam_f * dt) / (2.0 * lam_f))
    sqrt_dt = math.sqrt(dt)
    # flat indices of every row's forced entries, in the row-major order of a kick
    forced = (np.arange(coeffs.size // basis.dim)[:, None] * basis.dim + idx).ravel()
    square = _route(basis)[1] if params.nonlinearity_enabled else None
    snaps = snapshot_steps(n_steps, snapshot_stride)
    times = t0 + dt * np.array(snaps)
    yield times[0], coeffs
    snaps.append(-1)  # no step is due after the last snapshot
    row, n, due = 1, 0, snaps[1]
    for block in dw_blocks:
        for kick in (scale * (block / sqrt_dt)).reshape(len(block), -1):
            if square is None:
                advanced = coeffs * decay
            else:
                advanced = coeffs - dt * square(coeffs)
                advanced *= decay
            if forced.size:
                # one flat fancy add, the cheapest for one row and for many
                advanced.reshape(-1)[forced] += kick
            n += 1
            # a non-finite entry makes the squared norm non-finite; the entrywise
            # test runs only then, or when the norm overflows past 1e154
            if not math.isfinite(np.vdot(advanced, advanced)) and not np.isfinite(advanced).all():
                finite = np.isfinite(advanced.reshape(-1, basis.dim)).all(-1)
                bad = int(np.flatnonzero(~finite)[0])
                raise SimulationError(t0 + n * dt, n,
                                      None if streams is None else streams[bad],
                                      math.hypot(*coeffs.reshape(-1, basis.dim)[bad]))
            coeffs = advanced
            if n == due:
                yield times[row], coeffs
                row += 1
                due = snaps[row]


#: Normals drawn per block of an ensemble's increments, over all replicas.
NOISE_BLOCK = 1 << 15


def ensemble(state0: SpectralState, params: EquationParams, noise: NoiseSpec,
             horizon: float, seed, streams, snapshot_stride: int = 1):
    """Replicas of ``state0`` in one time loop; yields (t, coeffs (R, dim)).

    Row i is the trajectory on stream ``trajectory_seed(seed, streams[i])``
    and equals, bit for bit, the states of ``simulate`` with that seed.  Its
    increments are drawn in blocks of steps, which concatenate to the single
    draw ``simulate`` makes, and only the current snapshot is held.
    """
    streams = [int(i) for i in streams]
    n_steps = _step_count(horizon, params.dt, snapshot_stride)
    rngs = [np.random.default_rng(trajectory_seed(seed, i)) for i in streams]
    coeffs = np.tile(state0.coeffs, (len(rngs), 1))
    return _integrate(state0.basis, coeffs, state0.time, params, noise, n_steps,
                      snapshot_stride, _increment_blocks(rngs, n_steps, noise.dim, params.dt),
                      streams)


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

    The one-replica case of the ensemble loop, with the whole record kept.
    ``increments`` overrides the generated Brownian increments (used by the
    refinement studies that share one underlying path across step sizes).
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

    n_snaps = len(snapshot_steps(n_steps, snapshot_stride))
    times, states = np.empty(n_snaps), np.empty((n_snaps, state0.basis.dim))
    for row, (t, coeffs) in enumerate(_integrate(state0.basis, state0.coeffs, state0.time,
                                                 params, noise, n_steps, snapshot_stride,
                                                 [dws])):
        times[row], states[row] = t, coeffs

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
