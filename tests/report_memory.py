"""Memory of each stage of ``apollonian report``; a probe, not part of the
test suite.

For each config, runs the report in a fresh subprocess and prints, per
stage, its wall time, the subprocess's ``ru_maxrss`` when the stage starts
and when it ends, and the tracemalloc peak while it ran (of all traced memory, the
orbit included).  The stages are the report's own
(``counts/fit``, ``primes``, ``residues``, ``spectral q=...``, ``sieve
...``, ``boxcount``, ...) plus ``enumerate``, the orbit walk before them.
The subprocess reports twice: untraced first, for wall times and
``ru_maxrss``, then under tracemalloc, for the peaks.  Outputs go to a temporary directory.

With no arguments it probes the ``report-1e4`` benchmark config at T = 1e4
and at T = 1e5 (grid and fit windows stretched to the bound; about 0.4 GB),
then the ``expander-q7`` config as written and with moduli 11 (about
0.3 GB), whose ``spectral q=...`` stages show the Cayley graphs' cost.
``--repeat N`` runs each config in N fresh subprocesses and prints, per
stage, the median and the range of its wall time, with the medians of the
other columns:

    PYTHONPATH=src python tests/report_memory.py
    PYTHONPATH=src python tests/report_memory.py --repeat 5 path/to/run.ini ...
"""

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))


def default_configs(tmp: str) -> list[str]:
    """The ``report-1e4`` config as written and at T = 1e5, then the
    ``expander-q7`` config as written and with moduli 11."""
    from workloads import CONFIGS

    base = CONFIGS["report"]
    big = (
        base.replace("bound = 10000", "bound = 100000")
        .replace("t_max = 10000", "t_max = 100000")
        .replace("window = 1000, 10000", "window = 10000, 100000")
        .replace("window_alt = 100, 10000", "window_alt = 1000, 100000")
    )
    expander = CONFIGS["expander"]
    # the cap is already 2,000,000, above the 1,771,440 elements mod 11
    q11 = expander.replace("moduli = 5, 7", "moduli = 11")
    assert q11 != expander and "element_cap = 2000000" in q11
    paths = []
    for name, text in (
        ("report-1e4.ini", base),
        ("report-1e5.ini", big),
        ("expander-q7.ini", expander),
        ("expander-q11.ini", q11),
    ):
        paths.append(os.path.join(tmp, name))
        with open(paths[-1], "w", encoding="ascii") as fh:
            fh.write(text)
    return paths


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_report(config: str, out: str, traced: bool) -> list[tuple[str, float, float, float, float]]:
    """One report in this process: (stage, ru_maxrss at start and at end in
    MB, tracemalloc peak in MB, 0 when untraced, wall time in s) in the
    order the stages end.  A stage nested in another counts toward both
    peaks and both times."""
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
        t0 = time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - t0
            fold()
            open_peaks.remove(entry)
            rows.append((label, start, _rss_mb(), entry[0] / 1e6, wall))

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


def measure(config: str) -> dict:
    """One config, in this process: the report's wall time and its stages'
    rows, untraced and traced (see ``run_report``)."""
    with tempfile.TemporaryDirectory() as out:
        t0 = time.perf_counter()
        untraced = run_report(config, out, traced=False)
        wall = time.perf_counter() - t0
        traced = run_report(config, out, traced=True)
    return {"wall": wall, "untraced": untraced, "traced": traced}


def summary(config: str, runs: list[dict]) -> str:
    """The lines ``main`` prints for one config: medians over the runs, and
    the range of each wall time when there is more than one run."""

    def timing(values):
        mid = f"{statistics.median(values):6.3f} s"
        if len(values) == 1:
            return mid
        return f"{mid} ({min(values):.3f}-{max(values):.3f})"

    peak = statistics.median(max(row[2] for row in run["untraced"]) for run in runs)
    lines = [
        f"{config}: report {timing([run['wall'] for run in runs])}, "
        f"ru_maxrss {peak:.1f} MB untraced, {len(runs)} run(s)"
    ]
    for i, (label, *_) in enumerate(runs[0]["untraced"]):
        rows = [run["untraced"][i] for run in runs]
        traced = [run["traced"][i] for run in runs]
        if {row[0] for row in rows + traced} != {label}:
            raise RuntimeError(f"{config}: the runs end their stages in different orders")
        start = statistics.median(row[1] for row in rows)
        end = statistics.median(row[2] for row in rows)
        traced_peak = statistics.median(row[3] for row in traced)
        lines.append(
            f"  {label:<24} {timing([row[4] for row in rows])}"
            f"   ru_maxrss {start:7.1f} -> {end:7.1f} MB   traced peak {traced_peak:7.1f} MB"
        )
    return "\n".join(lines)


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=1, help="fresh subprocesses per config")
    parser.add_argument("configs", nargs="*")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat takes a count of at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        for config in args.configs or default_configs(tmp):
            runs = []
            for _ in range(args.repeat):
                done = subprocess.run(
                    [sys.executable, __file__, "--one", config], capture_output=True, text=True
                )
                if done.returncode:
                    print(f"{config}: failed\n{done.stderr}", flush=True)
                    return 1
                runs.append(json.loads(done.stdout))
            print(summary(config, runs), flush=True)
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--one"]:
        print(json.dumps(measure(sys.argv[2])))
        sys.exit(0)
    sys.exit(main(sys.argv[1:]))
