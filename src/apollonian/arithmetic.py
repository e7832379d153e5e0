"""Diophantine statistics of integral packings: prime and twin-prime circle
counts, residue classes mod 24, distinct-curvature density, and the empirical
exception list for the local-global behaviour of curvatures."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadruples import PackingOrbit, prime_table

# Deterministic Miller-Rabin witness set, valid for n < 3.4e14: is_prime is
# the reference the tests check the sieve against
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17)
_MR_LIMIT = 3 * 10**14
# a bound below one period of the residues mod 24 gives no density
MIN_DENSITY_BOUND = 24
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
    """Vectorized primality over integer values, read from one
    ``prime_table`` up to the largest of them (ValueError above
    ``MAX_BOUND``); values below 2 are not prime."""
    values = np.asarray(values)
    vmax = int(values.max(initial=0))
    if vmax < 2:
        return np.zeros(values.shape, dtype=bool)
    return prime_table(vmax)[np.clip(values, 0, vmax)] & (values >= 2)


@dataclass
class CurvatureTally:
    """Multiset of positive curvatures up to the bound."""

    multiset: dict[int, int]
    distinct: np.ndarray
    bound: int


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


def residues_mod(t: CurvatureTally, m: int) -> frozenset[int]:
    """Residues mod m attained by the distinct curvatures, marked in a (m,)
    table: ``np.unique`` without counts imports ``numpy.ma`` (numpy 2.4)."""
    if m < 1:
        raise ValueError("modulus must be >= 1")
    seen = np.zeros(m, dtype=bool)
    seen[t.distinct % m] = True
    return frozenset(np.flatnonzero(seen).tolist())


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
    # one table of the odd primes up to the bound, which holds every
    # |entry|, read a chunk of rows at a time, so no temporary is as large
    # as the quadruples
    table = orbit.primes.copy()
    table[2:3] = False
    for start in range(0, len(quads), _TRIPLE_CHUNK):
        odd_prime = table[np.abs(quads[start : start + _TRIPLE_CHUNK])]
        if (np.count_nonzero(odd_prime, axis=1) >= 3).any():
            return False
    return True


def prime_count_curve(orbit: PackingOrbit, ts) -> list[PrimeStats]:
    """PrimeStats at each threshold, from one enumerated orbit.  A twin
    pair lies within t exactly when the circle that counts it does
    (``PackingOrbit.twins``), so pi_2(t) is a masked sum."""
    if orbit.twins is None:
        raise ValueError("orbit lacks twin counts; enumerate with twins=True")
    u = orbit.unsigned_curvatures
    # every |b| is at most the bound, so it indexes the orbit's table as it
    # is, where prime_mask would clip a copy of it
    pm = orbit.primes[u]
    out = []
    for t in map(int, ts):
        if t > orbit.bound:
            raise ValueError(f"threshold {t} exceeds orbit bound {orbit.bound}")
        below = u <= t
        pi2 = orbit.twins.sum(where=below, dtype=np.int64)
        out.append(PrimeStats(pi=int(np.count_nonzero(pm & below)), pi2=int(pi2), bound=t))
    return out
