"""One timed operation of one workload, in a fresh interpreter.

Usage: python3 worker.py SPEC_JSON

SPEC_JSON holds ``workload``, ``seed``, ``dir`` (the iteration directory;
outputs go to ``dir/out``) and ``trace``.  The worker imports apollonian,
reads the monotonic clock just before its first call into the package and
again when that call returns, and writes ``dir/result.json``.  ``run.py``
started the process and read the same clock before, so set-up time is the
difference.  Output facts and trace metrics are computed after the second
clock read, outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import numpy as np

import apollonian.cli
import apollonian.counting
import apollonian.quadruples

import checks
import workloads


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes

    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _exponent(seed: int):
    root, bound = workloads.exponent_input(seed)
    grid = np.geomspace(1e3, bound, workloads.EXPONENT_GRID_POINTS)
    window = (bound / 10 ** workloads.EXPONENT_FIT_DECADES, bound)
    orbit = apollonian.quadruples.enumerate_orbit(root, bound)
    curve = apollonian.counting.count_by_curvature(orbit, grid)
    fit = apollonian.counting.fit_exponent(curve, window)
    return orbit, curve, fit


def main(spec: dict) -> dict:
    workload, seed, trace = spec["workload"], int(spec["seed"]), bool(spec["trace"])
    out_dir = os.path.join(spec["dir"], "out")
    os.makedirs(out_dir)
    command, config = workloads.WORKLOADS[workload]
    argv = None
    if command is not None:
        config_path = os.path.join(spec["dir"], "run.ini")
        with open(config_path, "w", encoding="ascii") as fh:
            fh.write(workloads.CONFIGS[config])
        argv = [command, "--config", config_path, "--out", out_dir]

    tracer = None
    if trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        missing = tracer.install()
    captured = io.StringIO()
    result: dict = {"rc": None, "error": None}
    try:
        cpu0 = resource.getrusage(resource.RUSAGE_SELF)
        t_call = time.monotonic()
        try:
            if argv is not None:
                with contextlib.redirect_stdout(captured):
                    result["rc"] = apollonian.cli.main(argv)
            else:
                orbit, curve, fit = _exponent(seed)
                result["rc"] = 0
        except Exception:
            result["error"] = traceback.format_exc()
        t_end = time.monotonic()
        cpu1 = resource.getrusage(resource.RUSAGE_SELF)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["t_call"] = t_call
    result["t_end"] = t_end
    result["peak_rss_mb"] = cpu1.ru_maxrss / 1024.0
    # user + system time of all threads: above wall_s when BLAS runs threads
    result["cpu_s"] = (cpu1.ru_utime + cpu1.ru_stime) - (cpu0.ru_utime + cpu0.ru_stime)

    if result["error"] is None:
        if argv is not None:
            result["facts"] = checks.cli_facts(command, out_dir, captured.getvalue())
        else:
            root, bound = workloads.exponent_input(seed)
            result["facts"] = {
                "root": list(root),
                "bound": bound,
                "quad_count": int(orbit.quad_count),
                "circle_count": int(orbit.circle_count),
                "generations": int(orbit.generations),
                "grid": curve.ts.tolist(),
                "counts": [int(n) for n in curve.counts],
                "alpha_hat": float(fit.alpha_hat),
                "c_hat": float(fit.c_hat),
            }
    if tracer is not None:
        written = sum(
            os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(out_dir) for f in fs
        )
        result["trace"] = {
            "missing": missing,
            "metrics": tracer_mod.metrics(tracer, written),
            "spans": tracer_mod.span_records(tracer.spans),
        }
    result["blas_threads"] = _blas_threads()
    return result


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    res = main(spec)
    with open(os.path.join(spec["dir"], "result.json"), "w", encoding="utf-8") as fh:
        json.dump(res, fh)
