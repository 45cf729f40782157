"""Empirical ergodicity probes: time averages, CLT histograms, mixing decay
and exponential-moment statistics.

Mixing is probed through differences of ensemble expectations of fixed
observables rather than through a Wasserstein distance: estimating the latter
at desk scale is statistically infeasible, while the decay of
|E_a Phi(U_t) - E_b Phi(U_t)| is the directly testable shadow of exponential
mixing.  Every stochastic routine takes an explicit seed and derives one
independent stream per trajectory from (seed, index), so estimates are
reproducible bit-for-bit.

Replica ensembles step all their trajectories in one time loop
(``galerkin.ensemble``) and reduce each snapshot to the observable values
they need as the loop steps, so no ensemble holds its trajectories' states.
Each replica's values equal those of a lone ``simulate`` on its stream, so
the batching changes no result.

In the linear regime (nonlinearity disabled) every forced mode is an exactly
discretized Ornstein-Uhlenbeck process, which supplies closed-form oracles:
stationary variance amp^2/(2 lam), mean decay rate lam, and long-run CLT
variance amp^4/(2 lam^3) for the squared coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import stats

from .galerkin import (
    EquationParams,
    ModeBasis,
    NoiseSpec,
    SpectralState,
    TrajectoryRecord,
    ensemble,
    sobolev_energy,
    trajectory_seed,
)
from .lattice import Mode


# ---------------------------------------------------------------------------
# Observables.
# ---------------------------------------------------------------------------

#: What an ``Observable`` can measure.
OBSERVABLE_KINDS = ("mode_coefficient", "mode_coefficient_squared", "total_energy",
                    "bounded_lipschitz")


@dataclass(frozen=True)
class Observable:
    """A functional of the state, measurable from the coefficients alone.

    kinds: ``mode_coefficient``, ``mode_coefficient_squared``,
    ``total_energy``, and ``bounded_lipschitz`` (tanh of a scaled mode
    coefficient, bounded with bounded gradient by construction).
    """

    kind: str
    mode: Optional[Mode] = None
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in OBSERVABLE_KINDS:
            raise ValueError(f"unknown observable kind {self.kind!r}")
        if self.kind != "total_energy" and self.mode is None:
            raise ValueError(f"observable {self.kind!r} needs a mode")

    def reducer(self, basis: ModeBasis) -> Callable[[np.ndarray], np.ndarray]:
        """The values of (..., dim) states on ``basis``, its mode index looked up once."""
        if self.kind == "total_energy":
            return lambda states: (states**2).sum(axis=-1)
        j = basis.mode_index(self.mode)
        if self.kind == "mode_coefficient":
            return lambda states: states[..., j]
        if self.kind == "mode_coefficient_squared":
            return lambda states: states[..., j] ** 2
        return lambda states: np.tanh(self.scale * states[..., j])

    def of_states(self, basis: ModeBasis, states: np.ndarray) -> np.ndarray:
        return self.reducer(basis)(np.atleast_2d(states))

    def __call__(self, state: SpectralState) -> float:
        return float(self.of_states(state.basis, state.coeffs[None, :])[0])


@dataclass
class ErgodicReport:
    estimate: float
    standard_error: float
    sample_count: int
    seed: object

    def to_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "standard_error": self.standard_error,
            "sample_count": self.sample_count,
            "seed": _seed_repr(self.seed),
        }


def _seed_repr(seed):
    if isinstance(seed, np.random.SeedSequence):
        return [seed.entropy, *seed.spawn_key]
    return seed if isinstance(seed, (int, type(None))) else str(seed)


#: stream index reserved for pilot/centering runs, clear of replica indices
PILOT_STREAM = 1_000_000_007
#: spawn-key family of the cone-sampling streams, one stream per Malliavin path
CONE_STREAM = 1


#: Coefficients of the snapshots an ensemble holds before it reduces them.
HELD_COEFFS = 1 << 15


def _replica_series(u0: SpectralState, params: EquationParams, noise: NoiseSpec,
                    horizon: float, seed, streams, reduce: Callable[[np.ndarray], np.ndarray],
                    snapshot_stride: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Snapshot times and ``reduce(coeffs)`` of every snapshot of an ensemble.

    The ensemble runs one replica of ``u0`` per stream index in ``streams``;
    ``reduce`` maps (..., R, dim) states to (..., R, ...) values, which are
    stacked as (n_snapshots, R, ...).  Snapshots are reduced in chunks of at
    most ``HELD_COEFFS`` coefficients, so only reduced values are kept.
    """
    times, held, values = [], [], []

    def reduce_held():
        values.append(np.array(reduce(np.array(held))))  # a copy: no view keeps the chunk alive
        held.clear()

    for t, coeffs in ensemble(u0, params, noise, horizon, seed, streams, snapshot_stride):
        times.append(t)
        held.append(coeffs)  # a fresh array that the time loop never writes again
        if len(held) * coeffs.size >= HELD_COEFFS:
            reduce_held()
    if held:
        reduce_held()
    return np.array(times), np.concatenate(values)


def cone_seed(master, path: int) -> np.random.SeedSequence:
    """Stream for sampling the cone of one Malliavin path.

    A spawned SeedSequence zero-pads its entropy to four 32-bit words before
    appending the spawn key, so it hashes at least six words, while a
    ``trajectory_seed`` stream with master and index below 2**64 hashes at
    most four: the two families never share a stream.
    """
    if path < 0:
        raise ValueError("cone stream path index must be non-negative")
    return np.random.SeedSequence(int(master), spawn_key=(CONE_STREAM, int(path)))


# ---------------------------------------------------------------------------
# Law of large numbers.
# ---------------------------------------------------------------------------

def _window(times: np.ndarray, burn_in: float) -> np.ndarray:
    """Mask of the snapshot times from ``burn_in`` on; it must hold two or more."""
    mask = times >= burn_in - 1e-12
    if mask.sum() < 2:
        raise ValueError("averaging window is empty")
    return mask


def _trapezoid_mean(values: np.ndarray, times: np.ndarray) -> float:
    return float(np.trapezoid(values, times) / (times[-1] - times[0]))


def time_average(rec: TrajectoryRecord, obs: Observable,
                 burn_in: float = 0.0) -> ErgodicReport:
    """Trapezoid time average over [burn_in, T] with error bars from 20 batch means."""
    mask = _window(rec.times, burn_in)
    times = rec.times[mask]
    values = obs.of_states(rec.basis, rec.states)[mask]
    estimate = _trapezoid_mean(values, times)
    nb = min(20, len(values))
    usable = (len(values) // nb) * nb
    batches = values[:usable].reshape(nb, -1).mean(axis=1)
    se = float(batches.std(ddof=1) / math.sqrt(nb))  # nb >= 2: the window has two points or more
    return ErgodicReport(estimate=estimate, standard_error=se,
                         sample_count=len(values), seed=rec.seed)


# ---------------------------------------------------------------------------
# Central limit theorem.
# ---------------------------------------------------------------------------

@dataclass
class CltReport:
    samples: np.ndarray
    m_hat: float
    sample_variance: float
    ks_statistic: float
    ks_pvalue: float
    seed: int

    def to_dict(self) -> dict:
        return {
            "samples": self.samples.tolist(),
            "m_hat": self.m_hat,
            "sample_variance": self.sample_variance,
            "ks_statistic": self.ks_statistic,
            "ks_pvalue": self.ks_pvalue,
            "seed": self.seed,
        }


def normalized_integral(values: np.ndarray, times: np.ndarray, m_hat: float) -> float:
    """(1/sqrt(T)) integral of (values - m_hat) over the record's time span."""
    span = times[-1] - times[0]
    return float(np.trapezoid(values - m_hat, times) / math.sqrt(span))


def ks_against_fitted_normal(samples: np.ndarray) -> tuple[float, float]:
    mu, sd = float(np.mean(samples)), float(np.std(samples, ddof=1))
    if sd == 0.0:
        raise ValueError("degenerate sample variance")
    res = stats.kstest(samples, "norm", args=(mu, sd))
    return float(res.statistic), float(res.pvalue)


def clt_sample(u0: SpectralState, params: EquationParams, noise: NoiseSpec,
               obs: Observable, horizon: float, n_replicas: int, seed: int,
               pilot_horizon: Optional[float] = None, burn_in: float = 0.0,
               snapshot_stride: int = 1) -> CltReport:
    """Normalized-deviation samples of the time integral across replicas.

    The centering constant m_hat is the time average of one long pilot run on
    stream ``PILOT_STREAM``, a one-row ensemble that keeps only the observable's
    values; each replica then contributes (1/sqrt(T)) * integral of (Phi - m_hat).
    """
    if n_replicas < 2:
        raise ValueError("need at least two replicas")
    if pilot_horizon is None:
        pilot_horizon = 4.0 * horizon
    reduce = obs.reducer(u0.basis)
    times, values = _replica_series(u0, params, noise, pilot_horizon, seed, [PILOT_STREAM],
                                    reduce, snapshot_stride)
    mask = _window(times, min(burn_in, 0.5 * pilot_horizon))
    m_hat = _trapezoid_mean(values[mask, 0], times[mask])

    times, values = _replica_series(u0, params, noise, horizon, seed, range(n_replicas),
                                    reduce, snapshot_stride)
    mask = times >= burn_in - 1e-12
    samples = np.array([normalized_integral(values[mask, i], times[mask], m_hat)
                        for i in range(n_replicas)])
    ks_stat, ks_p = ks_against_fitted_normal(samples)
    return CltReport(samples=samples, m_hat=m_hat,
                     sample_variance=float(samples.var(ddof=1)),
                     ks_statistic=ks_stat, ks_pvalue=ks_p, seed=seed)


# ---------------------------------------------------------------------------
# Two-ensemble mixing decay.
# ---------------------------------------------------------------------------

@dataclass
class MixingReport:
    gamma_hat: float
    gamma_stderr: float
    r_squared: float
    identifiable: bool
    times: np.ndarray
    abs_diff: np.ndarray
    noise_floor: np.ndarray
    fit_count: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "gamma_hat": self.gamma_hat,
            "gamma_stderr": self.gamma_stderr,
            "r_squared": self.r_squared,
            "identifiable": self.identifiable,
            "times": self.times.tolist(),
            "abs_diff": self.abs_diff.tolist(),
            "noise_floor": self.noise_floor.tolist(),
            "fit_count": self.fit_count,
            "seed": self.seed,
        }


def mixing_decay_estimate(u0_a: SpectralState, u0_b: SpectralState,
                          params: EquationParams, noise: NoiseSpec,
                          obs: Observable, horizon: float, n_replicas: int,
                          seed: int, snapshot_stride: int = 1) -> MixingReport:
    """Log-linear decay rate of |E_a Phi(U_t) - E_b Phi(U_t)| from two ensembles.

    Points whose ensemble difference falls below three combined standard
    errors are excluded from the fit; if fewer than five usable points
    remain, the report is flagged unidentifiable instead of raising.
    """

    def run(u0: SpectralState, tag: int):
        streams = range(tag * n_replicas, (tag + 1) * n_replicas)
        times, values = _replica_series(u0, params, noise, horizon, seed, streams,
                                        obs.reducer(u0.basis), snapshot_stride)
        vals = np.ascontiguousarray(values.T)  # (replica, time), as reduced replica by replica
        return times, vals.mean(axis=0), vals.var(axis=0, ddof=1) / n_replicas

    times, mean_a, var_a = run(u0_a, 1)
    _, mean_b, var_b = run(u0_b, 2)
    diff = np.abs(mean_a - mean_b)
    floor = 3.0 * np.sqrt(var_a + var_b)

    usable = diff > floor
    if usable.sum() < 5:
        return MixingReport(gamma_hat=float("nan"), gamma_stderr=float("nan"),
                            r_squared=float("nan"), identifiable=False,
                            times=times, abs_diff=diff, noise_floor=floor,
                            fit_count=int(usable.sum()), seed=seed)
    t_fit = times[usable]
    y_fit = np.log(diff[usable])
    design = np.column_stack([np.ones_like(t_fit), -t_fit])
    coef, residuals, *_ = np.linalg.lstsq(design, y_fit, rcond=None)
    fitted = design @ coef
    ss_res = float(((y_fit - fitted) ** 2).sum())
    ss_tot = float(((y_fit - y_fit.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else float("nan")
    dof = max(len(t_fit) - 2, 1)
    cov = ss_res / dof * np.linalg.inv(design.T @ design)
    return MixingReport(gamma_hat=float(coef[1]), gamma_stderr=float(np.sqrt(cov[1, 1])),
                        r_squared=r2, identifiable=True, times=times,
                        abs_diff=diff, noise_floor=floor,
                        fit_count=int(usable.sum()), seed=seed)


# ---------------------------------------------------------------------------
# Exponential-moment statistic.
# ---------------------------------------------------------------------------

@dataclass
class MomentProbe:
    times: np.ndarray
    log_statistic: np.ndarray

    def statistic(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.exp(self.log_statistic)

    def to_dict(self) -> dict:
        return {"times": self.times.tolist(),
                "log_statistic": self.log_statistic.tolist()}


def _energy_and_dissipation(basis: ModeBasis, states: np.ndarray,
                            params: EquationParams) -> np.ndarray:
    """||U||^2 and the dissipation of each state row, stacked on a last axis."""
    e_u, e_b = sobolev_energy(basis, states, params)
    return np.stack([(states**2).sum(axis=-1), e_u + e_b], axis=-1)


def _moment_series(times: np.ndarray, nsq: np.ndarray, diss: np.ndarray,
                   eta: float) -> MomentProbe:
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (diss[1:] + diss[:-1]) * np.diff(times))])
    rel_t = times - times[0]
    log_stat = eta * nsq + 0.5 * eta * np.exp(-rel_t / 2.0) * cum
    return MomentProbe(times=times, log_statistic=log_stat)


def exp_moment_ensemble(u0: SpectralState, params: EquationParams, noise: NoiseSpec,
                        horizon: float, n_replicas: int, seed: int, eta: float,
                        snapshot_stride: int = 1) -> list[MomentProbe]:
    """Pathwise series eta ||U_t||^2 + (eta/2) e^{-t/2} * cumulative dissipation
    of each trajectory on streams 0 .. n_replicas - 1.

    The ensemble is reduced to ||U||^2 and the dissipation as it steps.  Values
    are produced in log space; exponentiate via the probe when the magnitudes
    allow it.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    times, values = _replica_series(u0, params, noise, horizon, seed, range(n_replicas),
                                    lambda c: _energy_and_dissipation(u0.basis, c, params),
                                    snapshot_stride)
    return [_moment_series(times, *values[:, i].T, eta) for i in range(n_replicas)]
