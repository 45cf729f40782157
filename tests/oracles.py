"""Reference computations that only the tests use."""

import numpy as np

from torusmhd.galerkin import ModeBasis
from torusmhd.lattice import norm_sq
from torusmhd.malliavin import FrozenPath, _backward_sweep


def triad_jacobian(table, cu):
    """Dense L with L x = B(U, x) + B(x, U) for a single state U, from ``table``'s
    merged Jacobian entries (``FrozenPath.step_matrix`` assembles the same)."""
    dim = 2 * table.width
    weights = table.jac_coeff * np.take(cu, table.jac_state)
    return np.bincount(table.jac_cell, weights, dim * dim).reshape(dim, dim)


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
