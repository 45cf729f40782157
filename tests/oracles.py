"""Reference computations that only the tests use."""

import numpy as np


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
