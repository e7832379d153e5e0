"""Memory of each stage of ``apollonian report``; a probe, not part of the
test suite.

For each config, runs the report in a fresh subprocess and prints, per
stage, the subprocess's ``ru_maxrss`` when the stage starts and when it
ends, and the tracemalloc peak while it ran (of all traced memory, the
orbit included).  The stages are the report's own
(``counts/fit``, ``primes``, ``residues``, ``spectral q=...``, ``sieve
...``, ``boxcount``, ...) plus ``enumerate``, the orbit walk before them.
The subprocess reports twice: untraced first, for ``ru_maxrss``, then under
tracemalloc, for the peaks.  Outputs go to a temporary directory.

With no arguments it probes the ``report-1e4`` benchmark config at T = 1e4
and at T = 1e5 (grid and fit windows stretched to the bound; about 0.4 GB):

    PYTHONPATH=src python tests/report_memory.py
    PYTHONPATH=src python tests/report_memory.py path/to/run.ini ...
"""

import contextlib
import os
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))


def default_configs(tmp: str) -> list[str]:
    """The ``report-1e4`` config as written, and at T = 1e5."""
    from workloads import CONFIGS

    base = CONFIGS["report"]
    big = (
        base.replace("bound = 10000", "bound = 100000")
        .replace("t_max = 10000", "t_max = 100000")
        .replace("window = 1000, 10000", "window = 10000, 100000")
        .replace("window_alt = 100, 10000", "window_alt = 1000, 100000")
    )
    paths = []
    for name, text in (("report-1e4.ini", base), ("report-1e5.ini", big)):
        paths.append(os.path.join(tmp, name))
        with open(paths[-1], "w", encoding="ascii") as fh:
            fh.write(text)
    return paths


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_report(config: str, out: str, traced: bool) -> list[tuple[str, float, float, float]]:
    """One report in this process: (stage, ru_maxrss at start and at end in
    MB, tracemalloc peak in MB, 0 when untraced) in the order the stages
    end.  A stage nested in another counts toward both peaks."""
    from apollonian import cli

    rows = []
    open_peaks: list[list] = []

    def fold():
        # the peak since the last reset belongs to every open stage
        if traced:
            peak = tracemalloc.get_traced_memory()[1]
            for entry in open_peaks:
                entry[0] = max(entry[0], peak)
            tracemalloc.reset_peak()

    @contextlib.contextmanager
    def measured(label):
        fold()
        entry = [0]
        open_peaks.append(entry)
        start = _rss_mb()
        try:
            yield
        finally:
            fold()
            open_peaks.remove(entry)
            rows.append((label, start, _rss_mb(), entry[0] / 1e6))

    real_stage, real_enumerate = cli._stage, cli._enumerate

    @contextlib.contextmanager
    def stage(label, failures):
        with measured(label), real_stage(label, failures):
            yield

    def enumerate_(*args, **kwargs):
        with measured("enumerate"):
            return real_enumerate(*args, **kwargs)

    cli._stage, cli._enumerate = stage, enumerate_
    if traced:
        tracemalloc.start()
    try:
        with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
            rc = cli.main(["report", "--config", config, "--out", out])
    finally:
        if traced:
            tracemalloc.stop()
        cli._stage, cli._enumerate = real_stage, real_enumerate
    if rc:
        raise RuntimeError(f"report exited {rc}")
    return rows


def measure(config: str) -> str:
    """One config, in this process: the lines ``main`` prints."""
    with tempfile.TemporaryDirectory() as out:
        t0 = time.perf_counter()
        untraced = run_report(config, out, traced=False)
        wall = time.perf_counter() - t0
        traced = run_report(config, out, traced=True)
    peak = max(end for _, _, end, _ in untraced)
    lines = [f"{config}: report {wall:.2f} s, ru_maxrss {peak:.1f} MB untraced"]
    for (label, start, end, _), (_, _, _, peak) in zip(untraced, traced):
        lines.append(
            f"  {label:<24} ru_maxrss {start:7.1f} -> {end:7.1f} MB   traced peak {peak:7.1f} MB"
        )
    return "\n".join(lines)


def main(configs) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for config in configs or default_configs(tmp):
            done = subprocess.run(
                [sys.executable, __file__, "--one", config], capture_output=True, text=True
            )
            if done.returncode:
                print(f"{config}: failed\n{done.stderr}", flush=True)
                return 1
            print(done.stdout.strip(), flush=True)
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--one"]:
        print(measure(sys.argv[2]))
        sys.exit(0)
    sys.exit(main(sys.argv[1:]))
