"""Reference computations that only the tests use."""

import numpy as np


def triad_jacobian(table, cu):
    """Dense L with L x = B(U, x) + B(x, U) for a single state U, from ``table``'s
    merged Jacobian entries (``FrozenPath.step_matrix`` assembles the same)."""
    dim = 2 * table.width
    weights = table.jac_coeff * np.take(cu, table.jac_state)
    return np.bincount(table.jac_cell, weights, dim * dim).reshape(dim, dim)
