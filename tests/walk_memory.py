"""Time and memory of the orbit walk; a probe, not part of the test suite.

Runs, each in a fresh subprocess, the bare curvature walk
``enumerate_orbit(root, T)`` (the walk behind the N(T) fit) for each root
of the ``exponent-3e5`` benchmark workload at T = 3e5 and T = 1e6, then
the report's walk (twin counts, quads and exact rows, standard root) at
T = 1e5 and T = 3e5.  For each it prints the walk's wall time, its
tracemalloc peak, the bytes the walk returns and the subprocess's
``ru_maxrss``.  The subprocess walks twice: untraced first, for the time
and ``ru_maxrss``, then under tracemalloc, for the traced peak.  The
largest case holds about 0.5 GB.  Run from the repository root:

    PYTHONPATH=src python tests/walk_memory.py
"""

import resource
import subprocess
import sys
import time
import tracemalloc

ROOTS = [(-1, 2, 2, 3), (-2, 3, 6, 7), (-4, 5, 20, 21)]
# what each kind of walk keeps
KINDS = {
    "curvatures": {},
    "report": dict(twins=True, keep_quads=True, embedding="auto"),
}
CASES = [
    *(("curvatures", root, bound) for bound in (300_000, 1_000_000) for root in ROOTS),
    *(("report", (-1, 2, 2, 3), bound) for bound in (100_000, 300_000)),
]


def measure(kind, root, bound) -> str:
    """One case, in this process: the line ``main`` prints."""
    from apollonian.quadruples import enumerate_orbit

    kw = KINDS[kind]
    enumerate_orbit(root, 100, **kw)  # first-use allocations
    t0 = time.perf_counter()
    orbit = enumerate_orbit(root, bound, **kw)
    walk_s = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    circles = orbit.circle_count
    arrays = (orbit.curvatures, orbit.twins, orbit.quads, orbit.quad_depths, orbit.acc_rows)
    returned_mb = sum(a.nbytes for a in arrays if a is not None) / 1e6
    del orbit, arrays
    tracemalloc.start()
    enumerate_orbit(root, bound, **kw)
    peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    tracemalloc.stop()
    return (
        f"{kind} root {root} T {bound}: {circles:,} circles, walk {walk_s:.3f} s, "
        f"traced peak {peak_mb:.1f} MB, returned {returned_mb:.1f} MB, ru_maxrss {rss_mb:.1f} MB"
    )


def main() -> int:
    for kind, root, bound in CASES:
        args = [sys.executable, __file__, kind, ",".join(map(str, root)), str(bound)]
        done = subprocess.run(args, capture_output=True, text=True)
        if done.returncode:
            print(f"{kind} root {root} T {bound}: failed\n{done.stderr}", flush=True)
            return 1
        print(done.stdout.strip(), flush=True)
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 4:
        print(measure(sys.argv[1], tuple(int(x) for x in sys.argv[2].split(",")), int(sys.argv[3])))
        sys.exit(0)
    sys.exit(main())
