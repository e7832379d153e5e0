"""Sweep of ``spectrum`` against the dense symmetric solver; too slow for the
test suite (a few minutes on one core).

Compares lambda_0, lambda_1 and lambda_min of ``spectrum`` with
``np.linalg.eigvalsh`` of the dense adjacency matrix on the Cayley graphs of
the swap group mod 3 and mod 6 (120 vertices each) and on 2,000 random
connected regular multigraphs from ``conftest.random_regular``, half of them
bipartite (degree 3 to 6) and half general (degree 4 or 6), with n drawn
log-uniformly from 2 to 2,000.  Run from the repository root:

    PYTHONPATH=src python tests/exhaustive_spectrum.py

Prints one line per failure (an error above 1e-8, or an exception) and the
worst error; exits 1 on any failure.
"""

import math
import sys
import time

import numpy as np

from apollonian import congruence as cg
from conftest import adjacency_matrix, random_regular

GRAPHS = 2000
MAX_VERTICES = 2000
TOLERANCE = 1e-8


def cases():
    """(name, graph) pairs: the Cayley graphs, then the random ones."""
    for q in (3, 6):
        yield f"cayley mod {q}", cg.build_cayley(cg.reduce_group_mod(q))
    rng = np.random.default_rng(0)
    for i in range(GRAPHS):
        bipartite = i % 2 == 0
        n = int(round(math.exp(rng.uniform(math.log(2), math.log(MAX_VERTICES)))))
        if bipartite:
            n, k = max(2, n - n % 2), int(rng.integers(3, 7))
        else:
            n, k = max(2, n), int(rng.choice([4, 6]))
        seed = int(rng.integers(2**32))
        name = f"{'bipartite' if bipartite else 'general'} n={n} k={k} seed={seed}"
        yield name, random_regular(n, k, bipartite, seed)


def main() -> int:
    worst, bad, count = 0.0, 0, 0
    spectrum_s, dense_s = 0.0, 0.0
    for name, graph in cases():
        count += 1
        t0 = time.perf_counter()
        try:
            rep = cg.spectrum(graph)
        except (cg.EigenConvergenceError, ValueError) as exc:
            bad += 1
            print(f"{name}: {exc!r}", flush=True)
            continue
        t1 = time.perf_counter()
        ref = np.linalg.eigvalsh(adjacency_matrix(graph))
        dense_s += time.perf_counter() - t1
        spectrum_s += t1 - t0
        err = max(
            abs(rep.lambda0 - ref[-1]), abs(rep.lambda1 - ref[-2]), abs(rep.lambda_min - ref[0])
        )
        worst = max(worst, err)
        if not err <= TOLERANCE:
            bad += 1
            print(f"{name}: error {err:.2e}", flush=True)
    print(
        f"{count} graphs, {bad} failures, worst error {worst:.2e}; "
        f"spectrum {spectrum_s:.1f} s, eigvalsh {dense_s:.1f} s"
    )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
