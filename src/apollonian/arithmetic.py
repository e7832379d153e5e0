"""Diophantine statistics of integral packings: prime and twin-prime circle
counts, residue classes mod 24, distinct-curvature density, and the empirical
exception list for the local-global behaviour of curvatures."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadruples import PackingOrbit

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


@dataclass
class PrimeStats:
    pi: int
    pi2: int
    bound: int


def tally(orbit: PackingOrbit) -> np.ndarray:
    """Presence bitmap over 0..bound: True at each |curvature| of the orbit
    other than 0 (lines carry curvature 0), the bounding circle's included."""
    present = np.zeros(orbit.bound + 1, dtype=bool)
    present[orbit.unsigned_curvatures] = True
    present[0] = False
    return present


def residues_mod(present: np.ndarray, m: int) -> frozenset[int]:
    """Residues mod m of the curvatures marked in the bitmap ``present``:
    the columns of its rows of m that hold a mark."""
    if m < 1:
        raise ValueError("modulus must be >= 1")
    rows = np.zeros(-(-len(present) // m) * m, dtype=bool)
    rows[: len(present)] = present
    return frozenset(np.flatnonzero(rows.reshape(-1, m).any(axis=0)).tolist())


def distinct_density(present: np.ndarray) -> float:
    """Number of distinct curvatures divided by the bound; compare with
    (number of attained residues mod 24) / 24."""
    bound = len(present) - 1
    if bound < MIN_DENSITY_BOUND:
        raise ValueError(f"bound below {MIN_DENSITY_BOUND} gives a meaningless density")
    return np.count_nonzero(present) / bound


def missing_integers(present: np.ndarray) -> np.ndarray:
    """Integers n <= bound whose residue mod 24 is attained by the packing
    but which do not occur as a curvature: the empirical local-global
    exception list."""
    admissible = np.zeros(24, dtype=bool)
    admissible[list(residues_mod(present, 24))] = True
    n = np.flatnonzero(~present[1:]) + 1
    return n[admissible[n % 24]]


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
    # every |b| is at most the bound, so it indexes the orbit's table as it is
    pm = orbit.primes[u]
    out = []
    for t in map(int, ts):
        if t > orbit.bound:
            raise ValueError(f"threshold {t} exceeds orbit bound {orbit.bound}")
        below = u <= t
        pi2 = orbit.twins.sum(where=below, dtype=np.int64)
        out.append(PrimeStats(pi=int(np.count_nonzero(pm & below)), pi2=int(pi2), bound=t))
    return out
