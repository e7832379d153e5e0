"""The benchmark's workloads: what each one runs, and on which input.

Every workload uses the standard root (-1, 2, 2, 3) for seed 0.  Only
``exponent-3e5`` depends on the seed: it takes its root from ``EXPONENT_ROOTS``,
each with the bound at which its orbit holds the same number of quadruples
as the standard root at T = 3e5 (5,705,494 +- 0.03%).  The roots on the list
were also picked for a peak RSS within 4% of each other, so that a seed
changes the input but not the amount of work.
"""

from __future__ import annotations

STANDARD_ROOT = (-1, 2, 2, 3)

# (root, bound): equal quadruple counts, see the module docstring
EXPONENT_ROOTS = [
    ((-1, 2, 2, 3), 300_000),
    ((-2, 3, 6, 7), 612_449),
    ((-4, 5, 20, 21), 1_304_951),
]
EXPONENT_GRID_POINTS = 51
EXPONENT_FIT_DECADES = 1.5  # fit window (bound / 10**1.5, bound)

CONFIGS = {
    "report": """\
[packing]
root = -1, 2, 2, 3
bound = 10000
[grid]
t_min = 10
t_max = 10000
points_per_decade = 20
[fit]
window = 1000, 10000
window_alt = 100, 10000
[congruence]
moduli = 2, 3, 5, 6, 10
[sieve]
selectors = coord:4 product:1:2
level_D = 50
""",
    "generate": """\
[packing]
root = -1, 2, 2, 3
bound = 20000
""",
    "render": """\
[packing]
root = -1, 2, 2, 3
bound = 3000
[render]
bound = 3000
""",
    "expander": """\
[packing]
root = -1, 2, 2, 3
bound = 1000
[congruence]
moduli = 5, 7
element_cap = 2000000
[sieve]
selectors = coord:4
[boxcount]
eps_exponents = 4 5 6 7 8
""",
}

# workload -> (cli command, config name); the library workload has neither
WORKLOADS = {
    "report-1e4": ("report", "report"),
    "generate-2e4": ("generate", "generate"),
    # runnable by name but not in BENCHMARK.json: this pure-Python workload
    # swings with host CPU contention more than the largest allowed bound
    "render-3e3": ("render", "render"),
    "expander-q7": ("report", "expander"),
    "exponent-3e5": (None, None),
}


def exponent_input(seed: int) -> tuple[tuple[int, int, int, int], int]:
    """Root and bound of the ``exponent-3e5`` workload for a seed."""
    return EXPONENT_ROOTS[seed % len(EXPONENT_ROOTS)]
