"""Variational flows along a frozen trajectory and the Malliavin spectral probe.

The forward tangent flow linearizes the one-step map of the nonlinear solver
exactly: with E the diagonal integrating factor and L_n the linearized
advection at the frozen state U_n, L_n x = B(U_n, x) + B(x, U_n), both flows
step with the one matrix A_n = E (I - dt L_n),

    tangent:  xi   -> A_n xi
    adjoint:  rho  -> A_n^T rho.

A_n is assembled densely from the merged triad-Jacobian entries of the
truncation (:class:`~torusmhd.galerkin.TriadTable`), pre-scaled once per path,
and the adjoint multiplies by the transpose of that same matrix, so the
backward flow is the exact transpose of the forward one by construction and
the duality <J xi, phi> = <xi, K phi> holds to floating-point precision, not
just to discretization order.  The second variation takes its quadratic
source from the same table.

The response Gram matrix over a low-mode block,

    G[i, j] = sum_entries amp^2 * int_0^T <forced mode, K_{r,T} phi_i>
                                          <forced mode, K_{r,T} phi_j> dr,

comes from one streamed backward sweep that carries every basis vector phi_i
of the block at once and adds each level's trapezoid-weighted forced
components into G as it goes, so no level is stored and the memory does not
grow with the number of steps.  G is symmetric positive semidefinite by
construction.  Spectral probes report three honest quantities for the cone
of states holding at least an alpha fraction of their norm in the low-mode
block: the compressed minimal eigenvalue, a sampled infimum over the cone,
and a weak-duality lower bound; the exact constrained minimum is a nonconvex
problem we deliberately do not claim to solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .diagnostics import _seed_repr
from .galerkin import (
    EquationParams,
    ModeBasis,
    NoiseSpec,
    SpectralState,
    TrajectoryRecord,
    bilinear_convolution,
    triad_table,
)
from .lattice import COS, MAGNETIC, SIN, VELOCITY, Mode, is_canonical, make_mode, norm_sq
from .reachability import ForcedSet, inflation_slack, parity_unions


class FrozenPath:
    """A stride-1 trajectory along which the solver is linearized."""

    def __init__(self, record: TrajectoryRecord):
        if record.snapshot_stride != 1:
            raise ValueError("linearized flows require a stride-1 trajectory record")
        self.record = record
        self.basis: ModeBasis = record.basis
        self.params: EquationParams = record.params
        self.dt: float = record.dt
        self.n_steps: int = record.n_steps
        self.states: np.ndarray = record.states
        lam = self.basis.dissipation_array(self.params)
        self.decay = np.exp(-lam * self.dt)
        if self.params.nonlinearity_enabled:
            # entries of A_n - E: the triad-Jacobian coefficients scaled by
            # -dt times the decay of their row, once for the whole path
            table = triad_table(self.basis.n_cut)
            self._cell, self._state = table.jac_cell, table.jac_state
            row_decay = self.decay[table.jac_cell // self.basis.dim]
            self._weight = -self.dt * row_decay * table.jac_coeff

    def index_of(self, t: float) -> int:
        rel = (t - float(self.record.times[0])) / self.dt
        i = int(round(rel))
        if abs(rel - i) > 1e-8 or i < 0 or i > self.n_steps:
            raise ValueError(f"time {t} is not on the step grid of the path")
        return i

    def step_matrix(self, n: int) -> np.ndarray:
        """A_n = E (I - dt L_n), the one-step map of both flows at step n.

        The tangent step is xi -> A_n xi and the adjoint step rho -> A_n^T rho.
        """
        if not self.params.nonlinearity_enabled:
            return np.diag(self.decay)
        dim = self.basis.dim
        weights = self._weight * np.take(self.states[n], self._state)
        a = np.bincount(self._cell, weights, dim * dim).reshape(dim, dim)
        a.flat[::dim + 1] += self.decay
        return a


def _backward_sweep(path: FrozenPath, phi: np.ndarray, i: int, j: int):
    """Yield (n, K_{n,j} phi) for n = j, j - 1, ..., i, one adjoint step apart.

    ``phi`` is a single vector (dim,) or a batch of rows (ncols, dim).  The
    first level is ``phi`` itself and every later one a fresh array, so only
    the level in hand is held.
    """
    rho = phi
    yield j, rho
    for n in range(j - 1, i - 1, -1):
        rho = rho @ path.step_matrix(n)
        yield n, rho


def jacobian_apply(path: FrozenPath, xi: SpectralState, s: float, t: float) -> SpectralState:
    """Tangent flow J_{s,t} xi along the frozen path, same scheme and grid."""
    i, j = path.index_of(s), path.index_of(t)
    if i > j:
        raise ValueError("need s <= t")
    v = xi.coeffs.copy()
    for n in range(i, j):
        v = v @ path.step_matrix(n).T
    return SpectralState(path.basis, v, t)


def adjoint_apply(path: FrozenPath, phi: SpectralState, r: float, t: float) -> SpectralState:
    """Backward dual flow K_{r,t} phi, the exact transpose of the tangent flow."""
    i, j = path.index_of(r), path.index_of(t)
    if i > j:
        raise ValueError("need r <= t")
    for _, v in _backward_sweep(path, phi.coeffs.copy(), i, j):
        pass
    return SpectralState(path.basis, v, r)


def second_variation_apply(path: FrozenPath, xi: SpectralState, xi2: SpectralState,
                           s: float, t: float) -> SpectralState:
    """Second derivative of the flow map in directions (xi, xi2), from s to t.

    Propagates both tangents alongside and accumulates the symmetric
    quadratic source, which is the exact second derivative of the discrete
    one-step map; the output is symmetric in (xi, xi2) by construction.
    """
    i, j = path.index_of(s), path.index_of(t)
    if i > j:
        raise ValueError("need s <= t")
    basis = path.basis
    a, b = xi.coeffs.copy(), xi2.coeffs.copy()
    rho = np.zeros(basis.dim)
    for n in range(i, j):
        step = path.step_matrix(n).T
        src = np.zeros(basis.dim)
        if path.params.nonlinearity_enabled:
            src = bilinear_convolution(basis, a, b) + bilinear_convolution(basis, b, a)
        rho = rho @ step - path.dt * path.decay * src
        a = a @ step
        b = b @ step
    return SpectralState(basis, rho, t)


def adjoint_profile(path: FrozenPath, phi: np.ndarray, r: float, t: float) -> np.ndarray:
    """All backward levels K_{s,t} phi for s on the grid between r and t.

    ``phi`` may be a single vector (dim,) or a batch (ncols, dim); the result
    gains a leading time axis of length j - i + 1 with index 0 at time r.
    """
    i, j = path.index_of(r), path.index_of(t)
    if i > j:
        raise ValueError("need r <= t")
    levels = np.empty((j - i + 1,) + phi.shape)
    for n, v in _backward_sweep(path, phi, i, j):
        levels[n - i] = v
    return levels


# ---------------------------------------------------------------------------
# Malliavin matrix assembly and spectral probes.
# ---------------------------------------------------------------------------

@dataclass
class MalliavinMatrix:
    """Response Gram matrix over a low-mode block of the truncation basis.

    ``probe_profiles`` holds the forced components <forced mode, K_{s,T} phi>
    of the probe rows phi at every grid time s, shape (n + 1, n_probes, d),
    when probes were swept along; otherwise None.
    """

    gram: np.ndarray
    modes: list[Mode]
    mode_indices: np.ndarray
    horizon: float
    quadrature_steps: int
    probe_profiles: Optional[np.ndarray] = None

    def symmetrized(self) -> np.ndarray:
        return 0.5 * (self.gram + self.gram.T)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.symmetrized())


def _trapezoid_weights(n: int, dt: float) -> np.ndarray:
    w = np.full(n + 1, dt)
    w[0] = w[-1] = 0.5 * dt
    return w


def malliavin_quadratic_form(path: FrozenPath, noise: NoiseSpec,
                             phi: SpectralState) -> float:
    """<M_{0,T} phi, phi>: forced-mode response energy of the backward flow.

    Sums w_n amp^2 (K_{n,T} phi)_e^2 level by level as one backward sweep
    runs, so no level is stored.
    """
    idx = noise.mode_indices(path.basis)
    w = _trapezoid_weights(path.n_steps, path.dt)
    amp_sq = noise.amplitudes() ** 2
    total = 0.0
    for n, rho in _backward_sweep(path, phi.coeffs, 0, path.n_steps):
        total += w[n] * float(rho[idx] ** 2 @ amp_sq)
    return total


def assemble_malliavin(path: FrozenPath, noise: NoiseSpec,
                       n_level: Optional[int] = None,
                       probes: Optional[np.ndarray] = None) -> MalliavinMatrix:
    """Gram matrix over the modes with |k| <= n_level (default: full truncation).

    One backward sweep carries the unit rows of the block, and the optional
    ``probes`` rows (n_probes, dim) beside them, from T down to 0.  Each level
    adds F_n F_n^T to the Gram matrix, with F_n the forced components of the
    block rows times sqrt(w_n) amp, so the result is symmetric and PSD up to
    roundoff and the memory does not grow with the number of steps.
    """
    basis = path.basis
    if n_level is None:
        n_level = basis.n_cut
    sel = basis.level_indices(n_level)
    ncols = len(sel)
    rows = np.zeros((ncols, basis.dim))
    rows[np.arange(ncols), sel] = 1.0
    if probes is not None:
        rows = np.vstack([rows, probes])
    idx = noise.mode_indices(basis)
    scale = np.sqrt(_trapezoid_weights(path.n_steps, path.dt))[:, None] * noise.amplitudes()
    gram = np.zeros((ncols, ncols))
    profiles = None if probes is None else np.empty((path.n_steps + 1, len(probes), len(idx)))
    for n, rho in _backward_sweep(path, rows, 0, path.n_steps):
        forced = rho[:, idx]
        f = forced[:ncols] * scale[n]
        gram += f @ f.T
        if profiles is not None:
            profiles[n] = forced[ncols:]
    t0 = float(path.record.times[0])
    return MalliavinMatrix(gram=gram, modes=[basis.mode_at(i) for i in sel],
                           mode_indices=sel,
                           horizon=float(path.record.times[-1]) - t0,
                           quadrature_steps=path.n_steps, probe_profiles=profiles)


@dataclass(frozen=True)
class ConeSpec:
    """States keeping at least an ``alpha`` fraction of norm in modes |k| <= n."""

    alpha: float
    n: int

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("cone fraction alpha must lie in (0, 1]")
        if self.n < 1:
            raise ValueError("cone level n must be >= 1")


@dataclass
class ConeReport:
    compressed_min_eig: float
    sampled_inf: float
    dual_lower_bound: float
    samples: int
    seed: object

    def to_dict(self) -> dict:
        return {
            "compressed_min_eig": self.compressed_min_eig,
            "sampled_inf": self.sampled_inf,
            "dual_lower_bound": self.dual_lower_bound,
            "samples": self.samples,
            "seed": _seed_repr(self.seed),
        }


def cone_infimum(matrix: MalliavinMatrix, cone: ConeSpec, samples: int = 200,
                 seed=0) -> ConeReport:
    """Three spectral statistics of the Gram matrix over the cone.

    compressed_min_eig is exact on the low-mode subspace; sampled_inf is an
    upper bound on the cone infimum from explicit candidates plus random cone
    points; dual_lower_bound is a valid lower bound from weak Lagrangian
    duality and is reported as a bound, never as the infimum itself.
    """
    g = matrix.symmetrized()
    dim = g.shape[0]
    in_p = np.array([norm_sq(m.k) <= cone.n * cone.n for m in matrix.modes])
    p_idx = np.where(in_p)[0]
    q_idx = np.where(~in_p)[0]
    if p_idx.size == 0:
        raise ValueError(f"cone level n={cone.n} selects no modes of the matrix")

    evals_p, evecs_p = np.linalg.eigh(g[np.ix_(p_idx, p_idx)])
    compressed = float(evals_p[0])

    rng = np.random.default_rng(seed)
    candidates = []
    vp = np.zeros(dim)
    vp[p_idx] = evecs_p[:, 0]
    candidates.append(vp)
    if q_idx.size:
        evals_q, evecs_q = np.linalg.eigh(g[np.ix_(q_idx, q_idx)])
        vq = np.zeros(dim)
        vq[q_idx] = evecs_q[:, 0]
        # boundary candidate: minimal P-direction mixed with minimal Q-direction
        candidates.append(math.sqrt(cone.alpha) * vp + math.sqrt(1.0 - cone.alpha) * vq)
    candidates.extend(_cone_point(rng, in_p, cone.alpha) for _ in range(samples))
    sampled = float(min(phi @ g @ phi for phi in candidates))

    # weak duality: for unit phi on the cone and mu >= 0,
    # phi' G phi >= lambda_min(G - mu (P - alpha I)); the left side is a
    # concave function of mu, so a coarse grid plus a bounded 1-D
    # refinement around its best point recovers the optimum.
    pmat = np.zeros(dim)
    pmat[p_idx] = 1.0
    shift = np.diag(pmat - cone.alpha)
    dual_val = lambda mu: float(np.linalg.eigvalsh(g - mu * shift)[0])
    scale = max(float(np.trace(g)) / dim, 1e-300)
    grid = np.concatenate([[0.0], np.geomspace(1e-6 * scale, 1e3 * scale, 61)])
    values = [dual_val(mu) for mu in grid]
    i_best = int(np.argmax(values))
    best = values[i_best]
    lo = grid[max(i_best - 1, 0)]
    hi = grid[min(i_best + 1, len(grid) - 1)]
    if hi > lo:
        from scipy.optimize import minimize_scalar
        res = minimize_scalar(lambda mu: -dual_val(mu), bounds=(lo, hi),
                              method="bounded", options={"xatol": 1e-12 * max(hi, 1.0)})
        best = max(best, -float(res.fun))
    return ConeReport(compressed_min_eig=compressed, sampled_inf=sampled,
                      dual_lower_bound=best, samples=samples, seed=seed)


def unstable_quadratic_form(state: SpectralState, forced: ForcedSet, depth: int) -> float:
    """Energy of a state on the bracket-reachable directions up to a depth.

    Magnetic components are collected on the union of even-indexed
    generations and velocity components on the union of odd-indexed ones
    (each reachable mode counted once), both intersected with the state's
    truncation.  Generations are tracked inside an inflated window so that
    excursions slightly beyond the truncation are not starved.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    basis = state.basis
    n_gen = 2 * depth + 1
    window = basis.n_cut + inflation_slack(forced, basis.n_cut, n_gen + 1)
    even, odd = parity_unions(forced, n_gen, window_bound=window)
    c = state.coeffs
    total = 0.0
    for slot, union in ((MAGNETIC, even), (VELOCITY, odd)):
        seen = set()
        for v in union:
            k = v if is_canonical(v) else (-v[0], -v[1])
            if k in seen or norm_sq(k) > basis.n_cut**2:
                continue
            seen.add(k)
            i_cos = basis.mode_index(make_mode(slot, k, COS))
            i_sin = basis.mode_index(make_mode(slot, k, SIN))
            total += float(c[i_cos] ** 2 + c[i_sin] ** 2)
    return total


def _cone_point(rng, inside: np.ndarray, alpha: float) -> np.ndarray:
    """Random unit vector on the cone over the boolean mask ``inside``.

    A fraction t of its squared norm, uniform in [alpha, 1], lies inside the
    mask and the rest outside; all of it when the mask covers every index.
    """
    n_in = np.count_nonzero(inside)
    xp = rng.standard_normal(n_in)
    xp /= np.linalg.norm(xp)
    phi = np.zeros(inside.size)
    if n_in == inside.size:
        phi[inside] = xp
        return phi
    t = alpha + (1.0 - alpha) * rng.random()
    xq = rng.standard_normal(inside.size - n_in)
    xq /= np.linalg.norm(xq)
    phi[inside] = math.sqrt(t) * xp
    phi[~inside] = math.sqrt(1.0 - t) * xq
    return phi


def sample_cone_state(basis: ModeBasis, cone: ConeSpec, rng) -> SpectralState:
    """Random unit state on the cone (uniform mixing fraction in [alpha, 1])."""
    inside = np.zeros(basis.dim, dtype=bool)
    inside[basis.level_indices(cone.n)] = True
    return SpectralState(basis, _cone_point(rng, inside, cone.alpha))
