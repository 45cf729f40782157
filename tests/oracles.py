"""Reference computations that only the tests use."""

import math

import numpy as np

from torusmhd.galerkin import ModeBasis, triad_table
from torusmhd.lattice import BASIS_NORM, COS, direction, norm_sq
from torusmhd.malliavin import FrozenPath, _backward_sweep


def triad_jacobian(table, cu):
    """Dense L with L x = B(U, x) + B(x, U) for a single state U, from ``table``'s
    merged Jacobian entries (``FrozenPath.step_matrix`` assembles the same)."""
    dim = 2 * table.width
    weights = table.jac_coeff * np.take(cu, table.jac_state)
    return np.bincount(table.jac_cell, weights, dim * dim).reshape(dim, dim)


def bincount_step_matrix(path: FrozenPath, n: int) -> np.ndarray:
    """A_n = E (I - dt L_n) from one ``bincount`` of the scaled triad-Jacobian
    entries into the dim * dim cells, each cell summed in table order."""
    dim = path.basis.dim
    if not path.params.nonlinearity_enabled:
        return np.diag(path.decay)
    table = triad_table(path.basis.n_cut)
    weight = -path.dt * path.decay[table.jac_cell // dim] * table.jac_coeff
    weights = weight * np.take(path.states[n], table.jac_state)
    a = np.bincount(table.jac_cell, weights, dim * dim).reshape(dim, dim)
    a.flat[::dim + 1] += path.decay
    return a


def fft_bilinear(basis: ModeBasis, cu: np.ndarray, cv: np.ndarray) -> np.ndarray:
    """B(U, V) for states (..., dim) in divergence form from numpy's FFTs alone.

    The fields come from ``irfft2`` of the half spectrum, and coefficient k of
    the velocity (magnetic) row is sum_dc i q_d omega_c rfft2(T_dc) (of S_dc),
    with T_dc = u_d u'_c - b_d b'_c, S_dc = u_d b'_c - b_d u'_c and the
    rectangle-rule projection weight omega_c = (2 pi / m)^2 dir0_c / BASIS_NORM;
    (Re, Im) of a sum are the (cos, sin) coefficients.
    """
    m, n_k = basis.grid, basis.n_k
    k1, k2 = np.array(basis.canon).T
    dir0 = np.array([direction(k, COS) for k in basis.canon])          # (n_k, c)
    edge = k1 == 0

    def fields(c):  # (..., dim) -> (..., slot, component, m, m)
        amp = np.ascontiguousarray(c).reshape(c.shape[:-1] + (2, n_k, 2)).view(complex)[..., 0]
        hat = np.zeros(c.shape[:-1] + (2, 2, m, m // 2 + 1), dtype=complex)
        for comp in range(2):
            d = dir0[:, comp] / (2.0 * BASIS_NORM)
            hat[..., comp, k2 % m, k1] = amp * d
            hat[..., comp, -k2[edge] % m, 0] = np.conj(amp[..., edge]) * d[edge]
        return np.fft.irfft2(hat, s=(m, m), norm="forward")

    f, g = fields(np.asarray(cu, dtype=float)), fields(np.asarray(cv, dtype=float))
    u, b, u2, b2 = f[..., 0, :, :, :], f[..., 1, :, :, :], g[..., 0, :, :, :], g[..., 1, :, :, :]
    flux = np.stack([u[..., :, None, :, :] * u2[..., None, :, :, :]
                     - b[..., :, None, :, :] * b2[..., None, :, :, :],
                     u[..., :, None, :, :] * b2[..., None, :, :, :]
                     - b[..., :, None, :, :] * u2[..., None, :, :, :]], -5)  # (..., s, d, c, m, m)
    hat = np.fft.rfft2(flux)[..., k2 % m, k1]                             # (..., s, d, c, n_k)
    omega = (2.0 * np.pi / m) ** 2 / BASIS_NORM * dir0.T                   # (c, n_k)
    q = np.array([k1, k2])                                                 # (d, n_k)
    z = (1j * q[:, None, :] * omega[None, :, :] * hat).sum((-3, -2))       # (..., s, n_k)
    return np.stack([z.real, z.imag], -1).reshape(np.shape(cu))


def spectral_divergence(values):
    """Divergence of a grid-sampled 2-vector field via Fourier differentiation."""
    values = np.asarray(values)
    m = values.shape[-1]
    q = np.fft.fftfreq(m, d=1.0 / m)
    f1 = np.fft.fft2(values[0])
    f2 = np.fft.fft2(values[1])
    div_hat = 1j * (q[:, None] * f1 + q[None, :] * f2)
    return np.real(np.fft.ifft2(div_hat))


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


def embed_coeffs(src: ModeBasis, coeffs: np.ndarray, dst: ModeBasis) -> np.ndarray:
    """Re-express coefficients on another truncation (zero-padding or cutting)."""
    out = np.zeros(dst.dim)
    for mode in src.modes():
        if norm_sq(mode.k) <= dst.n_cut**2:
            out[dst.mode_index(mode)] = coeffs[src.mode_index(mode)]
    return out


def cone_point(rng, inside: np.ndarray, alpha: float) -> np.ndarray:
    """One random unit vector on the cone over the boolean mask ``inside``.

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


def looped_sampled_inf(matrix, cone, samples: int, seed) -> float:
    """The sampled cone infimum of ``cone_infimum``, one quadratic form per
    candidate: the minimal P-direction, the boundary candidate mixing it with
    the minimal Q-direction, then ``samples`` draws of ``cone_point``."""
    g = matrix.symmetrized()
    in_p = np.array([norm_sq(m.k) <= cone.n * cone.n for m in matrix.modes])
    p_idx, q_idx = np.flatnonzero(in_p), np.flatnonzero(~in_p)
    vp = np.zeros(len(g))
    vp[p_idx] = np.linalg.eigh(g[np.ix_(p_idx, p_idx)])[1][:, 0]
    candidates = [vp]
    if q_idx.size:
        vq = np.zeros(len(g))
        vq[q_idx] = np.linalg.eigh(g[np.ix_(q_idx, q_idx)])[1][:, 0]
        candidates.append(math.sqrt(cone.alpha) * vp + math.sqrt(1.0 - cone.alpha) * vq)
    rng = np.random.default_rng(seed)
    candidates.extend(cone_point(rng, in_p, cone.alpha) for _ in range(samples))
    return min(float(phi @ g @ phi) for phi in candidates)
