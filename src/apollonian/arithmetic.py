"""Diophantine statistics of integral packings: prime and twin-prime circle
counts, residue classes mod 24, distinct-curvature density, and the empirical
exception list for the local-global behaviour of curvatures."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadruples import PackingOrbit, is_primitive

# Deterministic Miller-Rabin witness set, valid for n < 3.4e14; curvatures
# and sieve products at desk scale stay far below this.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17)
_MR_LIMIT = 3 * 10**14
# a bound below one period of the residues mod 24 gives no density
MIN_DENSITY_BOUND = 24
# prime_mask sieves values up to this; above it, Miller-Rabin per value
_SIEVE_MAX = 10**8
# quadruples whose entries no_odd_prime_triple looks up at once
_TRIPLE_CHUNK = 1 << 16


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality for 0 <= n < 3e14."""
    n = int(n)
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} exceeds the certified witness range {_MR_LIMIT}")
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_squarefree(n: int) -> bool:
    """True iff no square of a prime divides n."""
    n = int(n)
    if n < 1:
        return False
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        while n % p == 0:
            n //= p
        p += 1
    return True


def prime_mask(values: np.ndarray) -> np.ndarray:
    """Vectorized primality over non-negative int64 values via a smallest
    prime factor sieve (values must stay modest, <= ~1e8)."""
    values = np.asarray(values)
    if values.size == 0:
        return np.zeros(0, dtype=bool)
    vmax = int(values.max(initial=0))
    if vmax < 2:
        return np.zeros(values.shape, dtype=bool)
    if vmax > _SIEVE_MAX:
        return np.fromiter((is_prime(int(v)) for v in values), dtype=bool, count=values.size)
    return _prime_table(vmax)[np.clip(values, 0, vmax)] & (values >= 2)


def _prime_table(vmax: int) -> np.ndarray:
    """Boolean table over 0..vmax, True at the primes (Eratosthenes)."""
    sieve = np.ones(vmax + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(math.isqrt(vmax)) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return sieve


@dataclass
class CurvatureTally:
    """Multiset of positive curvatures up to the bound."""

    multiset: dict[int, int]
    distinct: np.ndarray
    bound: int

    @property
    def total(self) -> int:
        return sum(self.multiset.values())


@dataclass
class PrimeStats:
    pi: int
    pi2: int
    bound: int


def tally(orbit: PackingOrbit) -> CurvatureTally:
    """Exact multiset of positive unsigned curvatures <= the orbit bound
    (lines contribute curvature zero and are excluded)."""
    u = orbit.unsigned_curvatures
    u = u[u > 0]
    vals, counts = np.unique(u, return_counts=True)
    return CurvatureTally(
        multiset={int(v): int(c) for v, c in zip(vals, counts)},
        distinct=vals.astype(np.int64),
        bound=orbit.bound,
    )


def prime_stats(orbit: PackingOrbit) -> PrimeStats:
    """Prime circle count (with multiplicity) and twin-prime tangent pair
    count over the enumerated orbit; requires a primitive root and a
    tangency graph."""
    if not is_primitive(orbit.root):
        raise ValueError(f"root {orbit.root} is not primitive")
    return prime_count_curve(orbit, [orbit.bound])[0]


def residues_mod(t: CurvatureTally, m: int) -> frozenset[int]:
    """Residues mod m attained by the distinct curvatures."""
    if m < 1:
        raise ValueError("modulus must be >= 1")
    return frozenset(int(r) for r in np.unique(t.distinct % m))


def distinct_density(t: CurvatureTally) -> float:
    """Number of distinct curvatures divided by the bound; compare with
    (number of attained residues mod 24) / 24."""
    if t.bound < MIN_DENSITY_BOUND:
        raise ValueError(f"bound below {MIN_DENSITY_BOUND} gives a meaningless density")
    return t.distinct.size / t.bound


def missing_integers(t: CurvatureTally) -> np.ndarray:
    """Integers n <= bound whose residue mod 24 is attained by the packing
    but which do not occur as a curvature: the empirical local-global
    exception list."""
    adm = residues_mod(t, 24)
    n = np.arange(1, t.bound + 1, dtype=np.int64)
    mask = np.isin(n % 24, np.array(sorted(adm), dtype=np.int64))
    present = np.zeros(t.bound + 1, dtype=bool)
    present[t.distinct] = True
    return n[mask & ~present[n]]


def no_odd_prime_triple(orbit: PackingOrbit) -> bool:
    """True iff no three mutually tangent circles all have odd prime
    curvature.

    Any tangency triangle lies inside the creation quadruple of its youngest
    circle, so scanning enumerated quadruples covers the whole graph.
    """
    if orbit.quads is None:
        raise ValueError("orbit lacks stored quadruples; enumerate with keep_quads=True")
    quads = orbit.quads
    vmax = max(int(quads.max(initial=0)), -int(quads.min(initial=0)))
    # one table of the odd primes up to max |entry|, read a chunk of rows at
    # a time, so no temporary is as large as the quadruples
    table = _prime_table(vmax) if vmax <= _SIEVE_MAX else None
    if table is not None:
        table[2:3] = False
    for start in range(0, len(quads), _TRIPLE_CHUNK):
        q = np.abs(quads[start : start + _TRIPLE_CHUNK])
        if table is not None:
            odd_prime = table[q]
        else:
            odd_prime = prime_mask(q.ravel()).reshape(q.shape) & (q % 2 == 1)
        if (np.count_nonzero(odd_prime, axis=1) >= 3).any():
            return False
    return True


def prime_count_curve(orbit: PackingOrbit, ts) -> list[PrimeStats]:
    """PrimeStats at each threshold, from one enumerated orbit."""
    if orbit.edges is None:
        raise ValueError("orbit lacks a tangency graph; enumerate with tangency=True")
    u = orbit.unsigned_curvatures
    pm = prime_mask(u)
    out = []
    for t in ts:
        t = int(t)
        if t > orbit.bound:
            raise ValueError(f"threshold {t} exceeds orbit bound {orbit.bound}")
        below = u <= t
        pi = int((pm & below).sum())
        e = orbit.edges
        em = below[e[:, 0]] & below[e[:, 1]] & pm[e[:, 0]] & pm[e[:, 1]]
        out.append(PrimeStats(pi=pi, pi2=int(em.sum()), bound=t))
    return out
