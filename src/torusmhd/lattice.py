"""Integer-lattice geometry and the divergence-free trigonometric basis on the 2-torus.

The building blocks are vector fields on the square torus [-pi, pi]^2 indexed
by a nonzero integer wavevector k = (k1, k2) and a parity bit:

    cos mode:  ( k2/|k|, -k1/|k|) cos(k.x)
    sin mode:  (-k2/|k|,  k1/|k|) sin(k.x)

Both are divergence-free (the direction vector is perpendicular to k) and
mean-zero, and together they span the solenoidal mean-free subspace of
L^2([-pi,pi]^2)^2.  An unnormalized mode has L^2 norm sqrt(2*pi^2); all
coefficients in this package refer to the unit-normalized fields
e_hat = e / sqrt(2*pi^2), so Parseval identities and Gram matrices hold with
unit weights.

Negating the wavevector acts as

    cos mode(-k) = -cos mode(k),     sin mode(-k) = +sin mode(k),

so each +-k pair carries one independent mode per parity.  We fix the
canonical representative k1 > 0, or k1 == 0 and k2 > 0, and record the sign
picked up while canonicalizing.

All lattice predicates (perpendicular pairing, squared moduli) are exact
integer arithmetic; floating point enters only through field evaluation and
quadrature.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

Vec = tuple[int, int]

# Parity of the scalar factor.
COS = 0
SIN = 1

# Slot of a state-space mode.
VELOCITY = 0
MAGNETIC = 1

SLOT_NAMES = {VELOCITY: "velocity", MAGNETIC: "magnetic"}

#: L^2 norm of an unnormalized basis field on [-pi, pi]^2.
BASIS_NORM = math.sqrt(2.0 * math.pi**2)


class Mode(NamedTuple):
    """One basis element of the (velocity, magnetic) state space.

    ``k`` must be a canonical wavevector; use :func:`make_mode` to validate.
    """

    slot: int
    k: Vec
    parity: int

    def label(self) -> str:
        prefix = "psi" if self.slot == VELOCITY else "sigma"
        return f"{prefix}[{self.k[0]},{self.k[1]}]^{self.parity}"


def norm_sq(k: Vec) -> int:
    return k[0] * k[0] + k[1] * k[1]


def perp_dot(k: Vec, l: Vec) -> int:
    """Exact pairing <k, l_perp> with l_perp = (-l2, l1)."""
    return k[1] * l[0] - k[0] * l[1]


def is_canonical(k: Vec) -> bool:
    return k[0] > 0 or (k[0] == 0 and k[1] > 0)


def canonical_rep(k: Vec, parity: int) -> tuple[Vec, int]:
    """Canonical wavevector k' and the sign s with e_k = s * e_k'.

    Flipping k negates the direction vector and leaves cos(k.x) invariant
    while negating sin(k.x), so the cos mode flips sign and the sin mode
    does not.
    """
    if k == (0, 0):
        raise ValueError("zero wavevector is not a basis index")
    if is_canonical(k):
        return k, +1
    return (-k[0], -k[1]), (-1 if parity == COS else +1)


def make_mode(slot: int, k: Vec, parity: int) -> Mode:
    if slot not in (VELOCITY, MAGNETIC):
        raise ValueError(f"bad slot {slot!r}")
    if parity not in (COS, SIN):
        raise ValueError(f"bad parity {parity!r}")
    if not is_canonical(k):
        raise ValueError(f"wavevector {k} is not canonical")
    return Mode(slot, (int(k[0]), int(k[1])), parity)


def pairing_coefficient(k: Vec, l: Vec) -> float:
    """Geometric interaction coefficient <k, l_perp> / (|k| |l|), in [-1, 1]."""
    if k == (0, 0) or l == (0, 0):
        raise ValueError("pairing coefficient requires nonzero wavevectors")
    return perp_dot(k, l) / math.sqrt(norm_sq(k) * norm_sq(l))


def direction(k: Vec, parity: int) -> tuple[float, float]:
    """Unit direction vector of the basis field: (k2,-k1)/|k| for cos, negated for sin."""
    n = math.sqrt(norm_sq(k))
    d = (k[1] / n, -k[0] / n)
    return d if parity == COS else (-d[0], -d[1])


def scalar_values(k: Vec, parity: int, x1, x2):
    phase = k[0] * np.asarray(x1) + k[1] * np.asarray(x2)
    return np.cos(phase) if parity == COS else np.sin(phase)


def field_values(k: Vec, parity: int, x1, x2) -> np.ndarray:
    """Unnormalized basis field sampled at (x1, x2); shape (2, *broadcast)."""
    d = direction(k, parity)
    s = scalar_values(k, parity, x1, x2)
    return np.stack([d[0] * s, d[1] * s])


# ---------------------------------------------------------------------------
# Quadrature on the periodic grid.
# ---------------------------------------------------------------------------

def grid_mesh(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform periodic grid x_j = 2*pi*j/m per axis; by periodicity it tiles [-pi, pi)."""
    x = 2.0 * math.pi * np.arange(m) / m
    return np.meshgrid(x, x, indexing="ij")


def project_onto_modes(values: np.ndarray, wavevectors) -> np.ndarray:
    """Inner products of grid-sampled 2-vector fields with the unit modes at each wavevector.

    ``values`` has shape (..., 2, m, m) sampled on :func:`grid_mesh`; the
    result has shape (..., len(wavevectors), 2), indexed by wavevector and
    parity.  The tensor rectangle rule is read off one DFT F = fft2(values) at
    q mod m: the cos projection is direction(q, COS) . Re F and the sin one
    direction(q, COS) . Im F, up to the quadrature weight.  The rule is exact
    for trigonometric integrands below the Nyquist limit, which the resolution
    precondition enforces for every wavevector.
    """
    values = np.asarray(values)
    if values.ndim < 3 or values.shape[-3] != 2 or values.shape[-2] != values.shape[-1]:
        raise ValueError(f"expected fields of shape (..., 2, m, m), got {values.shape}")
    m = values.shape[-1]
    q = np.array(wavevectors, dtype=np.int64).reshape(-1, 2)
    need = 4 * max(int(np.abs(q).max()), 1)  # the widest wavevector sets it
    if m % 2 != 0 or m < need:
        raise ValueError(f"grid {m}x{m} under-resolves a wavevector of |q|_inf "
                         f"{need // 4}: need an even resolution >= {need}")
    spectrum = np.fft.fft2(values)[..., q[:, 0] % m, q[:, 1] % m]
    n = np.sqrt((q * q).sum(axis=1))
    cos_dirs = np.stack([q[:, 1] / n, -q[:, 0] / n], axis=1)  # direction(q, COS)
    weight = (2.0 * math.pi / m) ** 2 / BASIS_NORM
    return np.stack([np.einsum("...cn,nc->...n", spectrum.real, cos_dirs),
                     np.einsum("...cn,nc->...n", spectrum.imag, cos_dirs)], axis=-1) * weight

