"""Exhaustive check of orbit_mod against the breadth-first walk; too slow for
the test suite (about 18 minutes on one core, 1.3 GB peak at q = 253).

Compares ``orbit_mod(root, q)`` with the orbit that ``_swap_closure`` walks
mod the whole of q, for every square-free q <= 255 on the standard root and
for every prime 5 <= p <= 255 on each of the four test roots, and checks
that the walk's neighbour table is an involution in each swap.  The walk
holds that (n, 4) int32 table beside the orbit: at q = 253 it is 16 bytes
for each of the 14.2 million orbit vectors, and it took the peak from 1.1 to
1.3 GB.  Run from the repository root:

    PYTHONPATH=src python tests/exhaustive_orbit_mod.py

Prints one line per mismatch and a summary; exits 1 on any mismatch.
"""

import sys
import time

import numpy as np

from apollonian import congruence as cg
from apollonian.arithmetic import is_prime, is_squarefree
from conftest import STANDARD_ROOT, TEST_ROOTS


def walked(root, q):
    """The orbit ``_swap_closure`` walks mod the whole of q, as an (n, 4)
    array, and whether its neighbour table undoes itself: each swap is an
    involution, so table[table[:, i], i] must be every index in turn."""
    start = (np.array(root) % q).astype(np.uint8).reshape(1, 1, 4)
    elements, _, table = cg._swap_closure(start, q, cg._pack_vecs)
    idx = np.arange(len(table))
    involution = all(np.array_equal(table[table[:, i], i], idx) for i in range(4))
    return elements.reshape(-1, 4), involution


def main() -> int:
    cases = [(STANDARD_ROOT, q) for q in range(1, 256) if is_squarefree(q)]
    cases += [(root, p) for root in TEST_ROOTS for p in range(5, 256) if is_prime(p)]
    bad, walk_s, built_s = 0, 0.0, 0.0
    for root, q in cases:
        cg._orbit_memo.clear()
        t0 = time.perf_counter()
        ref, involution = walked(root, q)
        t1 = time.perf_counter()
        orbit = cg.orbit_mod(root, q)
        built_s += time.perf_counter() - t1
        walk_s += t1 - t0
        if not np.array_equal(orbit, ref):
            bad += 1
            print(f"mismatch: root {root}, q {q}", flush=True)
        if not involution:
            bad += 1
            print(f"table not an involution: root {root}, q {q}", flush=True)
        del orbit, ref
    print(
        f"{len(cases)} cases, {bad} mismatches; walk {walk_s:.1f} s, "
        f"orbit_mod {built_s:.1f} s"
    )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
