"""Variational flows along a frozen trajectory and the Malliavin spectral probe.

The forward tangent flow linearizes the one-step map of the nonlinear solver
exactly: with E the diagonal integrating factor and L_n the linearized
advection at the frozen state U_n, L_n x = B(U_n, x) + B(x, U_n), both flows
step with the one matrix A_n = E (I - dt L_n),

    tangent:  xi   -> A_n xi
    adjoint:  rho  -> A_n^T rho.

A_n is assembled densely from the merged triad-Jacobian entries of the
truncation (:class:`~torusmhd.galerkin.TriadTable`), pre-scaled and laid out
over the dim * dim cells once per path, so a step takes one gather of the
frozen state and one product, plus one short add where a cell holds a second
entry; the adjoint multiplies by the transpose of that same matrix, so the
backward flow is the exact transpose of the forward one by construction and
the duality <J xi, phi> = <xi, K phi> holds to floating-point precision, not
just to discretization order.  The second variation takes its quadratic
source from the same table.

The response Gram matrix over a low-mode block,

    G[i, j] = sum_entries amp^2 * int_0^T <forced mode, K_{r,T} phi_i>
                                          <forced mode, K_{r,T} phi_j> dr,

comes from one streamed backward sweep that carries every basis vector phi_i
of the block at once.  It buffers the forced components of ``GRAM_BLOCK``
levels and adds each full buffer's trapezoid-weighted components into G in
one product, so only one block of levels is stored and the memory does not
grow with the number of steps.  G is symmetric positive semidefinite by
construction.  Spectral probes report three honest quantities for the cone
of states holding at least an alpha fraction of their norm in the low-mode
block: the compressed minimal eigenvalue, a sampled infimum over the cone,
whose candidates take their quadratic forms in one product, and a
weak-duality lower bound; the exact constrained minimum is a nonconvex
problem we deliberately do not claim to solve.  The spectrum of G is solved
once per matrix and serves both the bound at mu = 0 and the report.

``malliavin_paths`` runs the probe over many noise paths.  It steps them
forward as one ``ensemble``, whose rows equal the lone paths bit for bit,
then sweeps and probes each path on its own, in path order.  Up to
``ONE_THREAD_MAX_N_CUT`` the sweep, the cone and the eigenvalues run with
every loaded OpenBLAS on one thread: at those sizes a second thread buys no
wall time for twice the CPU, and the results no longer depend on the
machine's thread count.  The paths themselves run one after another.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .diagnostics import _seed_repr, cone_seed
from .galerkin import (
    EquationParams,
    ModeBasis,
    NoiseSpec,
    SpectralState,
    TrajectoryRecord,
    _step_count,
    bilinear_convolution,
    ensemble,
    trajectory_seed,
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
            # -dt times the decay of their row, once for the whole path.  They
            # come sorted by cell, at most two to a cell, as the state's
            # wavevector is the row's minus or plus the column's.  A step
            # gathers them all at once: each cell's first entry in a dense
            # (dim * dim) layout, where an empty cell has weight 0, then the
            # second entries of the cells that have one.
            table = triad_table(self.basis.n_cut)
            cell, state = table.jac_cell, table.jac_state
            weight = -self.dt * self.decay[cell // self.basis.dim] * table.jac_coeff
            second = np.zeros(cell.size, dtype=bool)
            second[1:] = cell[1:] == cell[:-1]
            if np.any(second[1:] & second[:-1]):
                raise RuntimeError("a cell holds more than two triad-Jacobian entries")
            first = ~second
            dense_state = np.zeros(self.basis.dim ** 2, dtype=np.intp)
            dense_weight = np.zeros(self.basis.dim ** 2)
            dense_state[cell[first]] = state[first]
            dense_weight[cell[first]] = weight[first]
            self._state = np.concatenate([dense_state, state[second]])
            self._weight = np.concatenate([dense_weight, weight[second]])
            self._second_cell = cell[second]

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
        n_cells = self.basis.dim ** 2
        values = np.take(self.states[n], self._state)
        values *= self._weight
        a = values[:n_cells]
        # a cell sums its entries in table order, as a bincount would
        a[self._second_cell] += values[n_cells:]
        a[::self.basis.dim + 1] += self.decay
        return a.reshape(self.basis.dim, self.basis.dim)


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
    _eigenvalues: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    def symmetrized(self) -> np.ndarray:
        return 0.5 * (self.gram + self.gram.T)

    def eigenvalues(self) -> np.ndarray:
        """Ascending spectrum of the symmetrized Gram matrix, solved on the
        first call and handed out again after."""
        if self._eigenvalues is None:
            self._eigenvalues = np.linalg.eigvalsh(self.symmetrized())
        return self._eigenvalues


def _trapezoid_weights(n: int, dt: float) -> np.ndarray:
    w = np.full(n + 1, dt)
    w[0] = w[-1] = 0.5 * dt
    return w


#: Levels of the backward sweep per Gram product.  Each level's forced
#: components go to a (GRAM_BLOCK, rows, d) buffer, and once per block the
#: trapezoid-scaled (ncols, GRAM_BLOCK * d) factor F adds F F^T to the Gram
#: matrix in one product, in place of one small product per level.
#: ``assemble_malliavin`` per path on one BLAS thread, medians in three fresh
#: processes on a 2-vCPU x86 VM, at blocks of 1, 8, 32 and 128 levels:
#: n_cut = 4 (dim 96, 1,000 steps) 72, 57, 55 and 56 ms; n_cut = 6 (dim 224,
#: 200 steps) 109, 100, 79 and 98 ms.  The n_cut = 4 buffer holds 0.2 MB.
GRAM_BLOCK = 32


def assemble_malliavin(path: FrozenPath, noise: NoiseSpec,
                       n_level: Optional[int] = None,
                       probes: Optional[np.ndarray] = None) -> MalliavinMatrix:
    """Gram matrix over the modes with |k| <= n_level (default: full truncation).

    One backward sweep carries the unit rows of the block, and the optional
    ``probes`` rows (n_probes, dim) beside them, from T down to 0.  The forced
    components of every level go to a buffer of ``GRAM_BLOCK`` levels; each
    full buffer, and the last part-filled one, adds F F^T to the Gram matrix,
    with F the block rows' components times sqrt(w_n) amp side by side over
    the buffered levels, and hands the probe rows' components to
    ``probe_profiles``.  So the result is symmetric and PSD up to roundoff
    and the memory does not grow with the number of steps.
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
    block = np.empty((GRAM_BLOCK, len(rows), len(idx)))
    for n, rho in _backward_sweep(path, rows, 0, path.n_steps):
        k = (path.n_steps - n) % GRAM_BLOCK
        # "clip" writes straight into the buffer; every index is in range
        np.take(rho, idx, axis=1, out=block[k], mode="clip")
        if k + 1 < GRAM_BLOCK and n > 0:
            continue
        # the buffer holds levels n + k down to n, in sweep order
        f = block[:k + 1, :ncols] * scale[n:n + k + 1][::-1, None, :]
        f = f.transpose(1, 0, 2).reshape(ncols, -1)
        gram += f @ f.T
        if profiles is not None:
            profiles[n:n + k + 1] = block[k::-1, ncols:]
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


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# golden-section steps of the cone dual after its first two points: they
# shrink the log-mu bracket, ln(1e9) wide, to about 1e-5
_GOLDEN_STEPS = 30


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

    # one candidate a row: the minimal P-direction; the boundary candidate,
    # that direction mixed with the minimal Q-direction (without Q, the
    # P-direction again); then the random cone points
    candidates = np.zeros((samples + 2, dim))
    candidates[0, p_idx] = evecs_p[:, 0]
    candidates[1] = candidates[0]
    if q_idx.size:
        _, evecs_q = np.linalg.eigh(g[np.ix_(q_idx, q_idx)])
        candidates[1, p_idx] *= math.sqrt(cone.alpha)
        candidates[1, q_idx] = math.sqrt(1.0 - cone.alpha) * evecs_q[:, 0]
    _cone_points(np.random.default_rng(seed), in_p, cone.alpha, candidates[2:])
    sampled = float(np.min(np.sum(candidates @ g * candidates, axis=1)))

    # weak duality: for unit phi on the cone and mu >= 0,
    # phi' G phi >= lambda_min(G - mu (P - alpha I)).  Every mu >= 0 gives a
    # valid bound, so the search below decides only how tight it is.  The
    # right side is concave in mu, hence unimodal in log mu: take mu = 0 and a
    # golden-section search on log mu over [1e-6, 1e3] * (trace / dim), whose
    # bracket shrinks by 1/phi per eigensolve.
    shift = np.diag(in_p - cone.alpha)
    dual_val = lambda log_mu: float(np.linalg.eigvalsh(g - math.exp(log_mu) * shift)[0])
    scale = max(float(np.trace(g)) / dim, 1e-300)
    lo, hi = math.log(1e-6 * scale), math.log(1e3 * scale)
    left, right = hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo)
    f_left, f_right = dual_val(left), dual_val(right)
    for _ in range(_GOLDEN_STEPS):
        if f_left >= f_right:  # the maximum is not right of ``right``
            hi, right, f_right = right, left, f_left
            left = hi - _INV_PHI * (hi - lo)
            f_left = dual_val(left)
        else:
            lo, left, f_left = left, right, f_right
            right = lo + _INV_PHI * (hi - lo)
            f_right = dual_val(right)
    best = max(float(matrix.eigenvalues()[0]), f_left, f_right)
    return ConeReport(compressed_min_eig=compressed, sampled_inf=sampled,
                      dual_lower_bound=best, samples=samples, seed=seed)


# ---------------------------------------------------------------------------
# The probe over many paths, each on one BLAS thread.
# ---------------------------------------------------------------------------

#: Largest n_cut whose paths are swept and probed on one BLAS thread.  On a
#: 2-vCPU x86 VM with OpenBLAS 0.3.31, two threads take twice the wall time
#: in CPU at every n_cut, and one thread takes CPU equal to wall.  Wall time
#: of one path's assembly and cone, one thread against two, medians of 12
#: alternating runs in one process: n_cut = 4 (dim 96, 1,000 steps) 88
#: against 85 ms, n_cut = 5 (dim 160, 200 steps) 79 against 83 ms, n_cut = 6
#: (dim 224) 169 against 155 ms and n_cut = 8 (dim 392) 699 against 580 ms.
#: In fresh processes at n_cut = 4, the assembly took 72-78 ms of wall on one
#: thread against 77-142 ms on two.
ONE_THREAD_MAX_N_CUT = 5

#: The thread-count getter of an OpenBLAS build, by its symbol prefix
#: (scipy's wheels prefix ``scipy_``) and suffix (``64_`` on 64-bit integers).
_OPENBLAS_GETTERS = tuple(f"{prefix}openblas_get_num_threads{suffix}"
                          for prefix in ("", "scipy_") for suffix in ("", "64_"))


@lru_cache(maxsize=None)
def _openblas_controls(path: str):
    """(get, set) of the thread count of the OpenBLAS at ``path``, or None."""
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for name in _OPENBLAS_GETTERS:
        if hasattr(lib, name):
            get, set_ = getattr(lib, name), getattr(lib, name.replace("_get_", "_set_"))
            get.restype, get.argtypes = ctypes.c_int, []
            set_.restype, set_.argtypes = None, [ctypes.c_int]
            return get, set_
    return None


@lru_cache(maxsize=None)
def loaded_openblas() -> tuple:
    """(get, set) thread-count controls of every OpenBLAS the process has loaded.

    Read from ``/proc/self/maps`` (empty where it does not exist or lists no
    OpenBLAS) once per process, as libraries are never unmapped.  One loaded
    later, such as scipy's inside ``clt``, is missed: only numpy's, mapped on
    import, runs the sweep, the cone and the eigenvalues.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
        paths = {f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5].lower()}
    except OSError:
        return ()
    return tuple(c for c in map(_openblas_controls, sorted(paths)) if c is not None)


@contextlib.contextmanager
def one_blas_thread(n_cut: int):
    """Run the body with every loaded OpenBLAS on one thread, when n_cut is at
    most ``ONE_THREAD_MAX_N_CUT``; put the previous counts back on exit."""
    saved = []
    if n_cut <= ONE_THREAD_MAX_N_CUT:
        saved = [(set_, get()) for get, set_ in loaded_openblas()]
    for set_, _ in saved:
        set_(1)
    try:
        yield
    finally:
        for set_, count in saved:
            set_(count)


#: Bytes of stride-1 records that one forward ensemble of paths may hold, so
#: the 10 paths of config.example.json (n_cut = 4, 1,001 snapshots, 7.7 MB)
#: step forward as one group.
PATH_GROUP_BYTES = 1 << 24


@dataclass
class PathProbe:
    """One Malliavin path: its record, its Gram matrix, cone statistics and spectrum."""

    record: TrajectoryRecord
    matrix: MalliavinMatrix
    cone: ConeReport
    eigenvalues: np.ndarray


def malliavin_paths(u0: SpectralState, params: EquationParams, noise: NoiseSpec,
                    horizon: float, seed, paths: int, cone: ConeSpec, samples: int = 200,
                    n_level: Optional[int] = None, probes: Optional[np.ndarray] = None):
    """Yield the :class:`PathProbe` of paths 0..paths-1, in path order.

    Path p runs on stream ``trajectory_seed(seed, p)`` and samples its cone on
    ``cone_seed(seed, p)``; path 0 carries the ``probes`` rows through its
    sweep.  The paths step forward as one ``ensemble`` per group of paths whose
    stride-1 records fit in ``PATH_GROUP_BYTES``.  The record of the i-th
    path of a group holds the view ``states[:, i]`` of the group's (n_snap,
    group, dim) states and equals the lone ``simulate`` of its stream bit for
    bit; a blow-up names its stream.  Each path is then swept and probed on
    its own inside :func:`one_blas_thread`: batching the sweep across paths is
    slower, as it is bound by its dim^3 flops per step.
    """
    basis = u0.basis
    n_steps = _step_count(horizon, params.dt, 1)
    group = max(1, PATH_GROUP_BYTES // ((n_steps + 1) * basis.dim * 8))
    for first in range(0, paths, group):
        streams = range(first, min(paths, first + group))
        times, states = ensemble(u0, params, noise, horizon, seed, streams)
        for i, p in enumerate(streams):
            record = TrajectoryRecord(basis=basis, params=params, noise=noise,
                                      seed=trajectory_seed(seed, p), dt=params.dt,
                                      n_steps=n_steps, snapshot_stride=1, times=times,
                                      states=states[:, i])
            with one_blas_thread(basis.n_cut):
                matrix = assemble_malliavin(FrozenPath(record), noise, n_level=n_level,
                                            probes=probes if p == 0 else None)
                report = cone_infimum(matrix, cone, samples=samples, seed=cone_seed(seed, p))
                eigenvalues = matrix.eigenvalues()
            yield PathProbe(record, matrix, report, eigenvalues)


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


def _cone_points(rng, inside: np.ndarray, alpha: float, out: np.ndarray) -> np.ndarray:
    """Fill each row of the zeroed ``out`` with a random unit vector on the
    cone over the boolean mask ``inside``, drawing row after row; return ``out``.

    A fraction t of a row's squared norm, uniform in [alpha, 1], lies inside
    the mask and the rest outside; all of it when the mask covers every index.
    """
    p_idx, q_idx = np.flatnonzero(inside), np.flatnonzero(~inside)
    for phi in out:
        xp = rng.standard_normal(p_idx.size)
        xp /= np.linalg.norm(xp)
        if not q_idx.size:
            phi[p_idx] = xp
            continue
        t = alpha + (1.0 - alpha) * rng.random()
        xq = rng.standard_normal(q_idx.size)
        xq /= np.linalg.norm(xq)
        phi[p_idx] = math.sqrt(t) * xp
        phi[q_idx] = math.sqrt(1.0 - t) * xq
    return out


def sample_cone_state(basis: ModeBasis, cone: ConeSpec, rng) -> SpectralState:
    """Random unit state on the cone (uniform mixing fraction in [alpha, 1])."""
    inside = np.zeros(basis.dim, dtype=bool)
    inside[basis.level_indices(cone.n)] = True
    return SpectralState(basis, _cone_points(rng, inside, cone.alpha, np.zeros((1, basis.dim)))[0])
