"""Spectral toolkit for stochastically forced fractional MHD on the 2-torus.

Subpackages cover the divergence-free trigonometric basis (:mod:`~torusmhd.lattice`),
symbolic advective brackets (:mod:`~torusmhd.brackets`), lattice reachability
(:mod:`~torusmhd.reachability`), the dealiased Galerkin integrator
(:mod:`~torusmhd.galerkin`), linearized flows and the Malliavin spectral probe
(:mod:`~torusmhd.malliavin`), ergodicity diagnostics
(:mod:`~torusmhd.diagnostics`), and the experiment CLI (:mod:`~torusmhd.cli`).
"""

__version__ = "0.1.0"
