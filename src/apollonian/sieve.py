"""Combinatorial sieve bookkeeping over orbit data: congruence slices, the
orbit-density function g, remainder terms r_q, and almost-prime counts.

A series is the multiset of values f(v) over the enumerated quadruples v with
max-norm at most T, for a coordinate or coordinate-product selector f.
For square-free q the slice |A_q| counts values divisible by q;
its expected mass g(q) * X uses the exactly computed proportion of the orbit
mod q with f = 0, so the remainder r_q = |A_q| - g(q) * X measures genuine
equidistribution error, which the level-distribution report aggregates.

Every count is read from tables over 0..T, looked up at the |entries| of
the selector's columns, never from the values f(v) themselves: a product of
two entries has the prime factors of both, so one lookup per column answers
divisibility, and the least prime factor, for the product too.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .arithmetic import is_squarefree
from .congruence import MAX_ORBIT_MODULUS, orbit_mod
from .quadruples import PackingOrbit, prime_table

Selector = tuple

# the primes with a bit in a divisor mask: every prime of a slice modulus,
# as orbit_mod takes q <= MAX_ORBIT_MODULUS
_MASK_PRIMES = np.flatnonzero(prime_table(MAX_ORBIT_MODULUS)).tolist()
# rows a table lookup reads at once
_CHUNK = 1 << 18


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


def selector_columns(selector: Selector, quads: np.ndarray) -> tuple:
    """The columns of quads whose product is f: one for coord:i, two for
    product:i:j."""
    if selector[0] not in ("coord", "product"):
        raise ValueError(f"unknown selector {selector!r}")
    return tuple(quads[:, i - 1] for i in selector[1:])


@dataclass
class SieveSeries:
    """The multiset {f(v)} over quadruples v of max-norm at most ``bound``,
    held as the selector's columns of the quadruples (one for ``coord``, two
    for ``product``; views, not copies), f(v) the product of a row's
    entries.  The tables span 0..bound, as no |entry| exceeds it: reading
    max |entry| instead would cost two more passes over the quadruples.

    ``masks`` are the distinct divisor masks of the values, ascending, and
    ``mask_counts`` how many values have each.  Bit i of a value's mask is
    set when the i-th prime below 256 (``_MASK_PRIMES``) divides it: the OR
    over its columns of ``_divisor_masks(bound)``, 8 bytes an integer.  0
    has every bit set."""

    root: tuple
    selector: Selector
    bound: int
    columns: tuple
    masks: np.ndarray = field(init=False, repr=False)
    mask_counts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        table = _divisor_masks(self.bound)
        chunks = _lookups(self, table, np.bitwise_or)
        keys, counts = zip(*(np.unique(m, return_counts=True) for m in chunks))
        # merge the chunks' distinct masks
        self.masks, inverse = np.unique(np.concatenate(keys), return_inverse=True)
        self.mask_counts = np.zeros(self.masks.size, dtype=np.int64)
        np.add.at(self.mask_counts, inverse, np.concatenate(counts))

    @property
    def X(self) -> int:
        """Total mass |A(T)| = number of enumerated quadruples."""
        return int(self.columns[0].size)


def _lookups(series: SieveSeries, table: np.ndarray, combine):
    """Chunks of at most ``_CHUNK`` rows, at least one: the table read at
    |entry| for each column, combined over the columns by the ufunc
    ``combine``.  Each pass reads a column once, and no temporary is as
    large as a column."""
    first, *rest = series.columns
    for start in range(0, max(series.X, 1), _CHUNK):
        out = table[np.abs(first[start : start + _CHUNK])]
        for col in rest:
            combine(out, table[np.abs(col[start : start + _CHUNK])], out=out)
        yield out


def _divisor_masks(vmax: int) -> np.ndarray:
    """uint64 table over 0..vmax: bit i set at n when _MASK_PRIMES[i] | n."""
    table = np.zeros(vmax + 1, dtype=np.uint64)
    for i, p in enumerate(_MASK_PRIMES):
        table[::p] |= np.uint64(1 << i)
    return table


def _mass(series: SieveSeries, q: int) -> int:
    """|A_q| for square-free q <= MAX_ORBIT_MODULUS: the values whose mask
    holds the bit of every prime dividing q."""
    bits = np.uint64(sum(1 << i for i, p in enumerate(_MASK_PRIMES) if q % p == 0))
    return int(series.mask_counts[(series.masks & bits) == bits].sum())


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
        columns=selector_columns(selector, orbit.quads),
    )


def slice_series(series: SieveSeries, q: int) -> CongruenceSlice:
    """Mass, orbit-density estimate, and remainder of the congruence slice
    f = 0 mod q."""
    q = int(q)
    if q < 2:
        raise ValueError("slice moduli start at 2")
    if not is_squarefree(q):
        raise ValueError(f"slice moduli must be square-free; got {q}")
    # orbit_mod rejects q > MAX_ORBIT_MODULUS, so every prime of q has a bit
    om = orbit_mod(series.root, q)
    mass = _mass(series, q)
    cols = selector_columns(series.selector, om)
    # uint8 entries; a product of two, at most 254^2, fits in int32
    fvals = cols[0] if len(cols) == 1 else cols[0].astype(np.int32) * cols[1]
    g_hat = float((fvals % q == 0).sum() / len(om))
    return CongruenceSlice(q=q, mass=mass, g_hat=g_hat, r_hat=mass - g_hat * series.X)


def sieve_primes(z: float, excluded=frozenset()) -> list[int]:
    """Primes p < z outside the excluded set, read from one ``prime_table``
    up to the largest integer below z."""
    table = prime_table(max(math.ceil(z) - 1, 0))
    return [p for p in np.flatnonzero(table).tolist() if p not in excluded]


def almost_prime_counts(series: SieveSeries, zs, excluded=frozenset()) -> list[int]:
    """S(A, P_z) for each z in zs, in the order given: the number of series
    values coprime to every prime p < z outside the excluded set.  With
    p_0 < p_1 < ... those primes below max(zs), a value's least-factor index
    is the least k with p_k dividing it (0 for the value 0, len(primes)
    where none does), the minimum over its columns of one table over
    0..bound.  A value survives z when its index is at least the number of
    primes below z, so every z reads one suffix sum of a ``bincount``.
    z=2 leaves the empty product, so S = X."""
    zs = list(zs)
    if min(zs) < 2:
        raise ValueError("z must be >= 2")
    primes = sieve_primes(max(zs), excluded)
    table = np.full(series.bound + 1, len(primes), dtype=np.min_scalar_type(len(primes)))
    # descending, so the least prime dividing n writes last
    for k in range(len(primes) - 1, -1, -1):
        table[:: primes[k]] = k
    counts = np.zeros(len(primes) + 1, dtype=np.int64)
    for index in _lookups(series, table, np.minimum):
        counts += np.bincount(index, minlength=len(primes) + 1)
    survivors = np.cumsum(counts[::-1])[::-1]
    return [int(survivors[bisect_left(primes, z)]) for z in zs]


def almost_prime_count(series: SieveSeries, z: float, excluded=frozenset()) -> int:
    """S(A, P_z) for one z; see almost_prime_counts."""
    return almost_prime_counts(series, [z], excluded)[0]


def detect_excluded_primes(series: SieveSeries) -> frozenset[int]:
    """{2} when parity forces every value even (mass(2) = X), else empty."""
    if _mass(series, 2) == series.X:
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
