"""Combinatorial sieve bookkeeping over orbit data: congruence slices, the
orbit-density function g, remainder terms r_q, and almost-prime counts.

A series is the multiset of values f(v) over the enumerated quadruples v with
max-norm at most T, for a coordinate or coordinate-product selector f.
For square-free q the slice |A_q| counts values divisible by q;
its expected mass g(q) * X uses the exactly computed proportion of the orbit
mod q with f = 0, so the remainder r_q = |A_q| - g(q) * X measures genuine
equidistribution error, which the level-distribution report aggregates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arithmetic import is_squarefree
from .congruence import orbit_mod
from .quadruples import PackingOrbit, prime_table

Selector = tuple


def parse_selector(spec: str) -> Selector:
    """'coord:i' or 'product:i:j' (1-based coordinates)."""
    parts = spec.strip().split(":")
    if parts[0] == "coord" and len(parts) == 2:
        i = int(parts[1])
        if i not in (1, 2, 3, 4):
            raise ValueError(f"coordinate index out of range in {spec!r}")
        return ("coord", i)
    if parts[0] == "product" and len(parts) == 3:
        i, j = int(parts[1]), int(parts[2])
        if i not in (1, 2, 3, 4) or j not in (1, 2, 3, 4) or i == j:
            raise ValueError(f"bad product selector {spec!r}")
        return ("product", i, j)
    raise ValueError(f"unknown selector {spec!r}; the selectors are coord:i and product:i:j")


def selector_name(selector: Selector) -> str:
    if selector[0] == "coord":
        return f"coord:{selector[1]}"
    return f"product:{selector[1]}:{selector[2]}"


def apply_selector(selector: Selector, quads: np.ndarray) -> np.ndarray:
    if selector[0] == "coord":
        return quads[:, selector[1] - 1]
    if selector[0] == "product":
        return quads[:, selector[1] - 1] * quads[:, selector[2] - 1]
    raise ValueError(f"unknown selector {selector!r}")


@dataclass
class SieveSeries:
    root: tuple
    selector: Selector
    bound: int
    values: np.ndarray

    @property
    def X(self) -> int:
        """Total mass |A(T)| = number of enumerated quadruples."""
        return int(self.values.size)


@dataclass
class CongruenceSlice:
    q: int
    mass: int
    g_hat: float
    r_hat: float


def build_series(orbit: PackingOrbit, selector: Selector) -> SieveSeries:
    """The multiset {f(v)} over the orbit's enumerated quadruples."""
    if orbit.quads is None:
        raise ValueError("orbit lacks stored quadruples; enumerate with keep_quads=True")
    return SieveSeries(
        root=orbit.root,
        selector=selector,
        bound=orbit.bound,
        values=apply_selector(selector, orbit.quads),
    )


def slice_series(series: SieveSeries, q: int) -> CongruenceSlice:
    """Mass, orbit-density estimate, and remainder of the congruence slice
    f = 0 mod q."""
    q = int(q)
    if q < 2:
        raise ValueError("slice moduli start at 2")
    if not is_squarefree(q):
        raise ValueError(f"slice moduli must be square-free; got {q}")
    mass = int((series.values % q == 0).sum())
    om = orbit_mod(series.root, q)
    if series.selector[0] == "product":
        # uint8 entries; their product, at most 254^2, fits in int32
        fvals = om[:, series.selector[1] - 1].astype(np.int32) * om[:, series.selector[2] - 1]
    else:
        fvals = apply_selector(series.selector, om)
    g_hat = float((fvals % q == 0).sum() / len(om))
    return CongruenceSlice(q=q, mass=mass, g_hat=g_hat, r_hat=mass - g_hat * series.X)


def sieve_primes(z: float, excluded=frozenset()) -> list[int]:
    """Primes p < z outside the excluded set, read from one ``prime_table``
    up to the largest integer below z."""
    table = prime_table(max(math.ceil(z) - 1, 0))
    return [p for p in np.flatnonzero(table).tolist() if p not in excluded]


def almost_prime_counts(series: SieveSeries, zs, excluded=frozenset()) -> list[int]:
    """S(A, P_z) for each z in zs, in the order given: the number of series
    values coprime to every prime p < z outside the excluded set.  One mask
    runs through the primes below max(zs) in ascending order, so each prime is
    tested once.  z=2 leaves the empty product, so S = X."""
    zs = list(zs)
    if min(zs) < 2:
        raise ValueError("z must be >= 2")
    order = sorted(range(len(zs)), key=lambda k: zs[k])
    primes = sieve_primes(max(zs), excluded)
    mask = np.ones(series.values.size, dtype=bool)
    counts = [0] * len(zs)
    i = 0
    for k in order:
        while i < len(primes) and primes[i] < zs[k]:
            mask &= series.values % primes[i] != 0
            i += 1
        counts[k] = int(mask.sum())
    return counts


def almost_prime_count(series: SieveSeries, z: float, excluded=frozenset()) -> int:
    """S(A, P_z) for one z; see almost_prime_counts."""
    return almost_prime_counts(series, [z], excluded)[0]


def detect_excluded_primes(series: SieveSeries) -> frozenset[int]:
    """{2} when parity forces every value even (mass(2) = X), else empty."""
    if int((series.values % 2 == 0).sum()) == series.X:
        return frozenset({2})
    return frozenset()


@dataclass
class LevelDistributionReport:
    X: int
    slices: list[CongruenceSlice]
    sum_abs_r: float

    @property
    def empirical_exponent(self) -> float:
        """log(sum |r_q|) / log X; below 1 is consistent with a power-saving
        level distribution."""
        if self.sum_abs_r <= 0:
            return float("-inf")
        if self.X < 2:
            raise ValueError(f"a level exponent divides by log X and needs X >= 2; got X = {self.X}")
        return math.log(self.sum_abs_r) / math.log(self.X)


def level_distribution_report(series: SieveSeries, D: int) -> LevelDistributionReport:
    """Sum of |r_q| over square-free q < D together with the total mass."""
    if D < 2:
        raise ValueError("level D must be >= 2")
    slices = [slice_series(series, q) for q in range(2, D) if is_squarefree(q)]
    return LevelDistributionReport(
        X=series.X,
        slices=slices,
        sum_abs_r=float(sum(abs(s.r_hat) for s in slices)),
    )


def sieve_dimension_trace(slices, zs, excluded=frozenset()) -> list[tuple[int, float]]:
    """(z, sum over primes p < z of g(p) log p), with g(p) read from the
    slices, which must include every prime p < max(zs) outside the excluded
    set: the empirical slope in log z estimates the sieve dimension."""
    g = {s.q: s.g_hat for s in slices}
    zs = sorted(int(z) for z in zs)
    primes = sieve_primes(zs[-1], excluded)
    missing = [p for p in primes if p not in g]
    if missing:
        raise ValueError(f"no slice for primes {missing}")
    out = []
    acc = 0.0
    i = 0
    for z in zs:
        while i < len(primes) and primes[i] < z:
            acc += g[primes[i]] * math.log(primes[i])
            i += 1
        out.append((z, acc))
    return out
