"""Orbit windows and the critical-density certificate.

The orbit of a point c under pullback along phi is indexed so that
c_{n+1} = pullback(phi, c_n) and c_{-1} = point_image(phi, c).  For the
diagonal family the criterion for critical density is that the
multipliers generate a free abelian group of rank d; the certificate
factors the multipliers over the primes by trial division and decides
independence by the kernel of the exponent matrix.  Dependent inputs
come with an explicit verified relation prod p_i^{a_i} = 1.

Window distinctness and evaluation ranks at orbit samples are finite
evidence, reported as observed facts, never as proofs of density.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .automorphism import AutoMap, ProjPoint, point_image, pullback_point
from .fields import QQ, int_row
from .linalg import kernel, rank_rows
from .poly import basis_dim, monomial_values

__all__ = [
    "FactorBoundError",
    "IndependenceCertificate",
    "OrbitWindow",
    "centred_indices",
    "distinct_window",
    "general_position_rank",
    "multiplicative_independence",
    "orbit_point",
    "orbit_points",
]

TRIAL_DIVISION_BOUND = 10**6


class FactorBoundError(ValueError):
    """A multiplier has a prime factor beyond the trial-division bound."""


@dataclass(frozen=True)
class OrbitWindow:
    lo: int
    hi: int
    points: dict[int, ProjPoint]

    def point(self, n: int) -> ProjPoint:
        return self.points[n]


def orbit_point(auto: AutoMap, start: ProjPoint, n: int) -> ProjPoint:
    """The single point c_n, c_0 = start, in |n| steps along n's side of the orbit."""
    step = pullback_point if n > 0 else point_image
    pt = start
    for _ in range(abs(n)):
        pt = step(auto, pt)
    return pt


def orbit_points(auto: AutoMap, start: ProjPoint, window: int) -> OrbitWindow:
    """Points c_n for -window <= n <= window, c_0 = start."""
    pts = {0: start}
    fwd = start
    back = start
    for n in range(1, window + 1):
        fwd = pullback_point(auto, fwd)
        back = point_image(auto, back)
        pts[n] = fwd
        pts[-n] = back
    return OrbitWindow(-window, window, pts)


def distinct_window(window: OrbitWindow) -> tuple[bool, tuple[int, int] | None]:
    """Pairwise distinctness of the canonical forms; returns a witness pair."""
    seen: dict[tuple, int] = {}
    for n in range(window.lo, window.hi + 1):
        key = window.points[n].coords
        if key in seen:
            return False, (seen[key], n)
        seen[key] = n
    return True, None


def _trial_factor(n: int, bound: int) -> dict[int, int]:
    """Factor n > 0 by trial division; exact or FactorBoundError."""
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n and f <= bound:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        # a remainder is prime if trial division reached sqrt(n), or if it
        # has no factor up to bound and is at most bound^2
        if f * f > n or n <= bound * bound:
            out[n] = out.get(n, 0) + 1
        else:
            raise FactorBoundError(
                "factor %d exceeds the trial-division bound %d" % (n, bound)
            )
    return out


@dataclass(frozen=True)
class IndependenceCertificate:
    multipliers: tuple[Fraction, ...]
    verdict: str  # "independent" | "dependent"
    primes: tuple[int, ...]
    exponent_matrix: tuple[tuple[int, ...], ...]  # rows = multipliers, cols = primes
    relation: tuple[int, ...] | None
    relation_verified: bool

    def payload(self) -> dict:
        return {
            "multipliers": [str(p) for p in self.multipliers],
            "verdict": self.verdict,
            "primes": list(self.primes),
            "exponent_matrix": [list(r) for r in self.exponent_matrix],
            "relation": list(self.relation) if self.relation is not None else None,
            "relation_verified": self.relation_verified,
        }


def multiplicative_independence(
    multipliers, bound: int = TRIAL_DIVISION_BOUND
) -> IndependenceCertificate:
    """Decide whether nonzero rationals are multiplicatively independent.

    Independence means prod p_i^{a_i} = 1 forces a = 0.  The sign of a
    dependent combination can always be repaired by doubling, so the
    verdict depends only on the kernel of the exponent matrix of the
    absolute values.
    """
    ps = tuple(Fraction(p) for p in multipliers)
    if any(p == 0 for p in ps):
        raise ValueError("multipliers must be nonzero")
    factored = []
    for p in ps:
        num = _trial_factor(abs(p.numerator), bound)
        den = _trial_factor(p.denominator, bound)
        expts = dict(num)
        for q, e in den.items():
            expts[q] = expts.get(q, 0) - e
        factored.append({q: e for q, e in expts.items() if e})
    primes = tuple(sorted({q for f in factored for q in f}))
    matrix = tuple(tuple(f.get(q, 0) for q in primes) for f in factored)

    # unknowns a_i; one equation per prime q: sum_i a_i e_i(q) = 0
    combos = kernel([list(col) for col in zip(*matrix)], len(ps), QQ)
    if not combos:
        return IndependenceCertificate(ps, "independent", primes, matrix, None, False)
    rel = int_row(combos[0], QQ)  # the primitive multiple
    lead = next((a for a in rel if a), 0)
    if lead < 0:
        # negation inverts the product, so it stays 1; fixes a sign convention
        rel = [-a for a in rel]
    sign = 1
    for p, a in zip(ps, rel):
        if p < 0 and a % 2:
            sign = -sign
    if sign < 0:
        rel = [2 * a for a in rel]
    value = Fraction(1)
    for p, a in zip(ps, rel):
        value *= p**a
    return IndependenceCertificate(
        ps, "dependent", primes, matrix, tuple(rel), value == 1
    )


def centred_indices(count: int) -> list[int]:
    """count consecutive orbit indices centred on 0, the odd one below."""
    lo = -((count + 1) // 2)
    return list(range(lo, lo + count))


def general_position_rank(
    auto: AutoMap, start: ProjPoint, degree: int, indices, field
) -> dict:
    """Rank of the evaluation matrix of degree-m monomials at orbit points."""
    window = max(abs(i) for i in indices) if indices else 0
    orbit = orbit_points(auto, start, window)
    space_dim = basis_dim(start.nvars, degree)
    rows = [monomial_values(orbit.points[k].coords, field, degree) for k in indices]
    rank = rank_rows(rows, space_dim, field)
    return {
        "degree": degree,
        "indices": list(indices),
        "rank": rank,
        "points": len(rows),
        "space_dim": space_dim,
        "full": rank == min(len(rows), space_dim),
    }
