"""Time and memory of the bare curvature walk; a probe, not part of the
test suite.

For each root of the ``exponent-3e5`` benchmark workload at T = 3e5 and
T = 1e6, runs ``enumerate_orbit(root, T)`` with curvatures only (the walk
behind the N(T) fit) in a fresh subprocess, and prints the walk's wall
time, its tracemalloc peak and the subprocess's ``ru_maxrss``.  The
subprocess walks twice: untraced first, for the time and ``ru_maxrss``,
then under tracemalloc, for the traced peak.  A T = 1e6 case holds about
0.2 GB.  Run from the repository root:

    PYTHONPATH=src python tests/walk_memory.py
"""

import resource
import subprocess
import sys
import time
import tracemalloc

ROOTS = [(-1, 2, 2, 3), (-2, 3, 6, 7), (-4, 5, 20, 21)]
BOUNDS = [300_000, 1_000_000]


def measure(root, bound) -> str:
    """One case, in this process: the line ``main`` prints."""
    from apollonian.quadruples import enumerate_orbit

    enumerate_orbit(root, 100)  # first-use allocations
    t0 = time.perf_counter()
    orbit = enumerate_orbit(root, bound)
    walk_s = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    circles = orbit.circle_count
    del orbit
    tracemalloc.start()
    enumerate_orbit(root, bound)
    peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    tracemalloc.stop()
    return (
        f"root {root} T {bound}: {circles:,} circles, walk {walk_s:.3f} s, "
        f"traced peak {peak_mb:.1f} MB, ru_maxrss {rss_mb:.1f} MB"
    )


def main() -> int:
    for bound in BOUNDS:
        for root in ROOTS:
            args = [sys.executable, __file__, ",".join(map(str, root)), str(bound)]
            done = subprocess.run(args, capture_output=True, text=True)
            if done.returncode:
                print(f"root {root} T {bound}: failed\n{done.stderr}", flush=True)
                return 1
            print(done.stdout.strip(), flush=True)
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 3:
        print(measure(tuple(int(x) for x in sys.argv[1].split(",")), int(sys.argv[2])))
        sys.exit(0)
    sys.exit(main())
