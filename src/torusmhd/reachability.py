"""Lattice reachability: generation recursion, window coverage, genealogy certificates.

Starting from a finite forced set of wavevectors (symmetrized under negation),
each generation adds every admissible sum k + l with k in the previous
generation and l forced, where admissibility demands an exact nonzero
perpendicular pairing and distinct squared moduli:

    <k, l_perp> != 0   and   |k|^2 != |l|^2.

Even-indexed generations correspond to reachable magnetic directions and
odd-indexed ones to reachable velocity directions.  The full spanning
condition asks both parity chains to exhaust the nonzero lattice; this module
decides it on bounded windows |k| <= R only, reporting the depth used and any
missing wavevectors rather than asserting the unbounded statement.

Intermediate sums may need to leave the reporting window before re-entering
it, so generations are tracked inside an inflated window whose slack is
recorded in every report.  All predicates are exact integer arithmetic.

Every generation comes from one vectorized transition, :func:`_admissible_sums`
over all (previous, forced) pairs at once; the recursion, the coverage check
and the certificate search all run through it.  It broadcasts the previous
generation's coordinate columns against the forced ones, so each predicate is
a (previous, forced) table built from the four columns, and it accepts pairs
in row-major (previous, forced) order, which fixes each row's first
derivation.  The scalar :func:`admissible`
serves :func:`verify_chain`, so that certificate replay stays independent.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from .lattice import Vec, norm_sq, perp_dot


@dataclass(frozen=True)
class ForcedSet:
    """A forced wavevector set and its closure under negation."""

    z0: frozenset[Vec]
    symmetrized: frozenset[Vec]

    @classmethod
    def from_wavevectors(cls, vectors: Iterable[Vec]) -> "ForcedSet":
        z0 = frozenset((int(a), int(b)) for a, b in vectors)
        if not z0:
            raise ValueError("forced set must be nonempty")
        if (0, 0) in z0:
            raise ValueError("forced set must not contain the zero wavevector")
        if max(max(abs(a), abs(b)) for a, b in z0) >= COORD_LIMIT:
            raise ValueError(f"forced wavevector coordinates must be below {COORD_LIMIT}")
        sym = frozenset(z0 | {(-a, -b) for a, b in z0})
        return cls(z0=z0, symmetrized=sym)

    def max_modulus(self) -> float:
        return math.sqrt(max(norm_sq(v) for v in self.symmetrized))

    @functools.cached_property
    def rows(self) -> np.ndarray:
        """The symmetrized set as sorted (F, 2) int64 rows."""
        return np.array(sorted(self.symmetrized), dtype=np.int64)


#: Coordinates stay below this so that every product and key of the vectorized
#: transition is exact in int64.
COORD_LIMIT = 2**30


def admissible(k: Vec, l: Vec) -> bool:
    return perp_dot(k, l) != 0 and norm_sq(k) != norm_sq(l)


def _admissible_sums(prev: np.ndarray, forced: ForcedSet,
                     window_norm_sq: Optional[int] = None
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every admissible nonzero sum prev[i] + forced.rows[j], optionally windowed.

    Returns (k_idx, l_idx, v) over the accepted pairs in row-major (i, j)
    order, with v = prev[k_idx] + forced.rows[l_idx].
    """
    if np.abs(prev).max(initial=0) >= COORD_LIMIT:
        raise ValueError(f"wavevector coordinates must be below {COORD_LIMIT}")
    # (P, 1) columns of the previous generation against (F,) forced columns
    k0, k1 = prev[:, :1], prev[:, 1:]
    l0, l1 = forced.rows[:, 0], forced.rows[:, 1]
    v0, v1 = k0 + l0, k1 + l1
    ok = k1 * l0 != k0 * l1
    ok &= k0 * k0 + k1 * k1 != l0 * l0 + l1 * l1
    ok &= (v0 != 0) | (v1 != 0)
    if window_norm_sq is not None:
        ok &= v0 * v0 + v1 * v1 <= window_norm_sq
    flat = np.flatnonzero(ok)
    v = np.empty((len(flat), 2), dtype=np.int64)
    v[:, 0] = v0.ravel()[flat]
    v[:, 1] = v1.ravel()[flat]
    del v0, v1  # so that the (P, F) sums and the index arrays are never all held
    k_idx, l_idx = np.divmod(flat, len(l0))
    return k_idx, l_idx, v


def _generations(forced: ForcedSet, max_depth: int, window_norm_sq: Optional[int]
                 ) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Yield (n, rows, k_idx, l_idx) for n = 1, 2, ..., max_depth.

    ``rows`` is generation n as sorted distinct rows, each with its first
    derivation: ``k_idx`` indexes the previous generation's rows (generation
    0 is ``forced.rows``) and ``l_idx`` the forced rows.  Stops after the
    first empty generation.
    """
    prev = forced.rows
    for n in range(1, max_depth + 1):
        k_idx, l_idx, v = _admissible_sums(prev, forced, window_norm_sq)
        span = 2 * int(np.abs(v[:, 1]).max(initial=0)) + 1
        _, first = np.unique(v[:, 0] * span + v[:, 1], return_index=True)
        prev = v[first]
        yield n, prev, k_idx[first], l_idx[first]
        if not len(prev):
            return


def next_generation(prev: set[Vec], forced: ForcedSet,
                    window_norm_sq: Optional[int] = None) -> set[Vec]:
    """Exact set {k + l : k in prev, l forced, admissible}, optionally windowed."""
    rows = np.array(list(prev), dtype=np.int64).reshape(-1, 2)
    _, _, v = _admissible_sums(rows, forced, window_norm_sq)
    return set(map(tuple, v.tolist()))


def default_max_depth(radius: int) -> int:
    return 4 * radius


def inflation_slack(forced: ForcedSet, radius: int, max_depth: int) -> int:
    """Extra window radius for intermediate excursions, capped at 4*radius."""
    return min(math.ceil(2.0 * forced.max_modulus()) * max_depth, 4 * radius)


@dataclass
class HypothesisReport:
    radius: int
    even_covered: bool
    odd_covered: bool
    missing_even: set[Vec]
    missing_odd: set[Vec]
    depth_used: int
    max_depth: int
    window_bound: int

    def to_dict(self) -> dict:
        return {
            "radius": self.radius,
            "even_covered": self.even_covered,
            "odd_covered": self.odd_covered,
            "missing_even": sorted(list(v) for v in self.missing_even),
            "missing_odd": sorted(list(v) for v in self.missing_odd),
            "depth_used": self.depth_used,
            "max_depth": self.max_depth,
            "window_bound": self.window_bound,
        }


def check_hypothesis(forced: ForcedSet, radius: int,
                     max_depth: Optional[int] = None) -> HypothesisReport:
    """Window-bounded coverage check of the two parity chains.

    Stops as soon as both the even- and odd-indexed unions cover every
    wavevector with 0 < |k| <= radius; exhausting ``max_depth`` without
    saturation produces a report with the missing sets, not an exception.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    if max_depth is None:
        max_depth = default_max_depth(radius)
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")

    window_bound = radius + inflation_slack(forced, radius, max_depth)
    rsq = radius * radius
    a, b = np.meshgrid(np.arange(-radius, radius + 1), np.arange(-radius, radius + 1),
                       indexing="ij")
    target = (a * a + b * b <= rsq) & ((a != 0) | (b != 0))
    covered = np.zeros((2,) + target.shape, dtype=bool)  # [even, odd]

    def cover(rows: np.ndarray, n: int) -> None:
        inside = rows[(rows * rows).sum(axis=1) <= rsq] + radius
        covered[n % 2, inside[:, 0], inside[:, 1]] = True

    cover(forced.rows, 0)
    depth_used = 0
    for n, rows, _, _ in _generations(forced, max_depth, window_bound**2):
        depth_used = n
        cover(rows, n)
        if (covered | ~target).all():
            break

    missing = [{(int(x), int(y)) for x, y in zip(a[m], b[m])}
               for m in target & ~covered]
    return HypothesisReport(
        radius=radius,
        even_covered=not missing[0],
        odd_covered=not missing[1],
        missing_even=missing[0],
        missing_odd=missing[1],
        depth_used=depth_used,
        max_depth=max_depth,
        window_bound=window_bound,
    )


@dataclass
class Certificate:
    """A derivation chain target = k0 + l1 + ... + ln with admissible partial sums.

    ``chain`` is None when no chain of the requested parity exists within the
    searched depth and window.
    """

    target: Vec
    parity: str
    chain: Optional[list[Vec]]
    depth_searched: int
    window_bound: int

    def length(self) -> int:
        if self.chain is None:
            raise ValueError("no chain found")
        return len(self.chain) - 1

    def to_dict(self) -> dict:
        return {
            "target": list(self.target),
            "parity": self.parity,
            "found": self.chain is not None,
            "chain": [list(v) for v in self.chain] if self.chain else None,
            "depth_searched": self.depth_searched,
            "window_bound": self.window_bound,
        }


def generation_certificate(forced: ForcedSet, target: Vec, parity: str = "even",
                           max_depth: Optional[int] = None) -> Certificate:
    """Breadth-first search for a minimal chain of the requested step parity."""
    if target == (0, 0):
        raise ValueError("target must be nonzero")
    if max(abs(target[0]), abs(target[1])) >= COORD_LIMIT:
        raise ValueError(f"target coordinates must be below {COORD_LIMIT}")
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    radius = max(1, math.isqrt(norm_sq(target)) + 1)
    if max_depth is None:
        max_depth = default_max_depth(radius)
    window_bound = radius + inflation_slack(forced, radius, max_depth)
    want = 0 if parity == "even" else 1

    if want == 0 and target in forced.symmetrized:
        return Certificate(target, parity, [target], 0, window_bound)

    # steps[n - 1] holds generation n's first derivations; a hit at generation
    # n is minimal for its parity, and the chain is read back through them.
    steps = []
    depth = 0
    for n, rows, k_idx, l_idx in _generations(forced, max_depth, window_bound**2):
        depth = n
        steps.append((k_idx, l_idx))
        hit = np.flatnonzero((rows == target).all(axis=1))
        if n % 2 == want and hit.size:
            i, ls = hit[0], []
            for back_k, back_l in reversed(steps):
                ls.append(tuple(forced.rows[back_l[i]].tolist()))
                i = back_k[i]
            chain = [tuple(forced.rows[i].tolist())] + ls[::-1]
            return Certificate(target, parity, chain, n, window_bound)
    return Certificate(target, parity, None, depth, window_bound)


def verify_chain(forced: ForcedSet, cert: Certificate) -> bool:
    """Replay a certificate through the admissibility predicates.

    Wavevectors may be tuples or lists, as ``reach_report.json`` holds them.
    """
    if not cert.chain:
        return False
    head, *steps = (tuple(v) for v in cert.chain)
    if head not in forced.symmetrized:
        return False
    acc = head
    for l in steps:
        if l not in forced.symmetrized or not admissible(acc, l):
            return False
        acc = (acc[0] + l[0], acc[1] + l[1])
        if acc == (0, 0):
            return False
    if acc != tuple(cert.target):
        return False
    want = 0 if cert.parity == "even" else 1
    return len(steps) % 2 == want


def parity_unions(forced: ForcedSet, depth: int,
                  window_bound: Optional[int] = None) -> tuple[set[Vec], set[Vec]]:
    """Union of even- and odd-indexed generations up to ``depth`` inclusive."""
    wsq = window_bound**2 if window_bound is not None else None
    unions = (set(forced.symmetrized), set())
    for n, rows, _, _ in _generations(forced, depth, wsq):
        unions[n % 2].update(map(tuple, rows.tolist()))
    return unions
