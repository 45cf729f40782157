"""Spectral toolkit for stochastically forced fractional MHD on the 2-torus.

Subpackages cover the divergence-free trigonometric basis (:mod:`~torusmhd.lattice`),
symbolic advective brackets (:mod:`~torusmhd.brackets`), lattice reachability
(:mod:`~torusmhd.reachability`), the dealiased Galerkin integrator
(:mod:`~torusmhd.galerkin`), linearized flows and the Malliavin spectral probe
(:mod:`~torusmhd.malliavin`), ergodicity diagnostics
(:mod:`~torusmhd.diagnostics`), and the experiment CLI (:mod:`~torusmhd.cli`).
"""

__version__ = "0.1.0"

from .lattice import (  # noqa: F401
    BASIS_NORM,
    COS,
    MAGNETIC,
    SIN,
    VELOCITY,
    Mode,
    canonical_rep,
    make_mode,
    pairing_coefficient,
)
from .brackets import (  # noqa: F401
    DirectionExpansion,
    TrigTerm,
    TrigVectorField,
    advect,
    leray_project,
    magnetic_direction,
    velocity_direction,
    verify_bracket_identity,
)
from .reachability import (  # noqa: F401
    Certificate,
    ForcedSet,
    HypothesisReport,
    check_hypothesis,
    generation_certificate,
    next_generation,
)
from .galerkin import (  # noqa: F401
    EquationParams,
    ModeBasis,
    NoiseSpec,
    SpectralState,
    TrajectoryRecord,
    bilinear_B,
    energy_balance_residual,
    ensemble,
    simulate,
    unit_mode_state,
    zero_state,
)
from .malliavin import (  # noqa: F401
    ConeSpec,
    FrozenPath,
    MalliavinMatrix,
    adjoint_apply,
    assemble_malliavin,
    cone_infimum,
    jacobian_apply,
    second_variation_apply,
    unstable_quadratic_form,
)
from .diagnostics import (  # noqa: F401
    Observable,
    clt_sample,
    exp_moment_ensemble,
    mixing_decay_estimate,
    time_average,
)
