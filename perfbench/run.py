"""Benchmark runner for the apollonian pipeline.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one table
    python3 perfbench/run.py --record            # rewrite reference.json

Run from the root of a source checkout; the package is imported from
``src/``.  Each iteration is a fresh ``worker.py`` process, started one at a
time, so every iteration pays interpreter start and ``import apollonian``
as a CLI user does.  The runner repeats iterations for ``--seconds``
(at least ``MIN_ITERS``) and reports medians.  Outputs go to a directory
under ``.perfbench_tmp/`` in the checkout, are checked against
``reference.json`` after the worker exits, and are deleted.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics;
with ``--trace 1`` every second iteration runs under the tracer and the
last line carries the per-layer metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP = os.path.join(ROOT, ".perfbench_tmp")
REFERENCE = os.path.join(HERE, "reference.json")

sys.path.insert(0, HERE)
import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_ITERS = 3
MAX_RUN_S = 150  # never start an optional iteration past this
WORKER_TIMEOUT_S = 120

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _worker_env(hash_seed: int = 0) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # String hashing decides the heap layout import leaves behind, and with
    # it where later arrays land: one exponent-3e5 call peaks anywhere from
    # 215 to 320 MB depending on the hash seed alone.  Iteration k of every
    # run uses seed k, so runs of equal length see the same layouts and the
    # median spans several of them.
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def environment() -> dict:
    """Machine and library facts recorded with every result."""
    info = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "blas_env": {k: os.environ[k] for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                     if k in os.environ},
    }
    for pkg in ("numpy", "scipy"):
        try:
            info[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            info[pkg] = None
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            info["cpu"] = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None
            )
    except OSError:
        info["cpu"] = None
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(base):
        for idx in sorted(os.listdir(base)):
            try:
                level, kind, size = (_read(os.path.join(base, idx, f)) for f in
                                     ("level", "type", "size"))
            except OSError:
                continue
            suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
            caches[f"L{level}{suffix}"] = size
    info["cache_per_instance"] = caches
    return info


def _read(path: str) -> str:
    with open(path, encoding="ascii") as fh:
        return fh.read().strip()


def _run_worker(workload: str, seed: int, trace: bool, hash_seed: int) -> dict:
    """Start one worker and wait for it; its result, or ``problems`` if it
    died.  Its output directory is deleted either way."""
    os.makedirs(TMP, exist_ok=True)
    it_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP)
    spec = {"workload": workload, "seed": seed, "dir": it_dir, "trace": trace}
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
            env=_worker_env(hash_seed), cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S,
        )
        res_path = os.path.join(it_dir, "result.json")
        if proc.returncode != 0 or not os.path.exists(res_path):
            return {"problems": [f"worker exit {proc.returncode}: {proc.stderr[-2000:]}"],
                    "elapsed": time.monotonic() - t_spawn}
        with open(res_path, encoding="utf-8") as fh:
            res = json.load(fh)
    except subprocess.TimeoutExpired:
        return {"problems": ["worker timed out"], "elapsed": time.monotonic() - t_spawn}
    finally:
        shutil.rmtree(it_dir, ignore_errors=True)
    res["elapsed"] = time.monotonic() - t_spawn
    res["setup_s"] = res["t_call"] - t_spawn
    res["wall_s"] = res["t_end"] - res["t_call"]
    return res


def run_iteration(workload: str, seed: int, trace: bool, hash_seed: int,
                  reference: dict) -> dict:
    """One worker, its outputs checked against the reference."""
    res = _run_worker(workload, seed, trace, hash_seed)
    if "problems" not in res:
        res["problems"] = check(workload, res, reference)
    res["ok"] = not res["problems"]
    return res


def check(workload: str, res: dict, reference: dict) -> list[str]:
    if res.get("error"):
        return [res["error"].strip().splitlines()[-1]]
    if res.get("rc") != 0:
        return [f"exit code {res.get('rc')}"]
    facts = res["facts"]
    problems = []
    if workloads.WORKLOADS[workload][0] is None:
        problems += checks.exponent_invariants(facts)
        if tuple(facts["root"]) != workloads.STANDARD_ROOT:
            return problems
    ref = reference.get(workload)
    if ref is None:
        return problems + [f"no reference for {workload}"]
    return problems + checks.compare(ref, facts)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Iterate the workload for ``seconds`` and summarise the iterations."""
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    start = time.monotonic()
    iters: list[dict] = []
    while True:
        elapsed = time.monotonic() - start
        if len(iters) >= MIN_ITERS:
            est = statistics.median(it["elapsed"] for it in iters)
            if elapsed + est > min(seconds, MAX_RUN_S):
                break
        traced = trace and len(iters) % 2 == 1
        it = run_iteration(workload, seed, traced, len(iters) + 1, reference)
        it["traced"] = traced
        iters.append(it)
        status = "ok" if it["ok"] else "FAILED: " + "; ".join(it["problems"])
        if "wall_s" in it:
            print(f"iter {len(iters)}{' traced' if traced else ''}: wall {it['wall_s']:.4f} s, "
                  f"cpu {it['cpu_s']:.4f} s, setup {it['setup_s']:.4f} s, "
                  f"rss {it['peak_rss_mb']:.1f} MB, {status}",
                  flush=True)
        else:
            print(f"iter {len(iters)}: {status}", flush=True)
    return summarise(iters, trace)


def summarise(iters: list[dict], trace: bool) -> dict:
    failed = sum(not it["ok"] for it in iters)
    plain = [it for it in iters if not it["traced"] and "wall_s" in it]
    summary = {
        "attempted": len(iters),
        "failed": failed,
        "failed_frac": failed / len(iters),
        "blas_threads": next((it.get("blas_threads") for it in iters if "blas_threads" in it), None),
    }
    if plain:
        summary["end_to_end"] = {
            name: statistics.median(it[name] for it in plain) for name in END_TO_END
        }
        summary["cpu_s"] = statistics.median(it["cpu_s"] for it in plain)
    traced = [it for it in iters if it["traced"] and "trace" in it]
    if trace and traced and plain:
        layer = {
            name: statistics.median(it["trace"]["metrics"][name] for it in traced)
            for name in tracer.PER_LAYER if name != "trace.overhead_s"
        }
        layer["trace.overhead_s"] = (
            statistics.median(it["wall_s"] for it in traced) - summary["end_to_end"]["wall_s"]
        )
        summary["per_layer"] = layer
        summary["spans"] = traced[0]["trace"]["spans"]
        summary["unwrapped"] = traced[0]["trace"]["missing"]
    return summary


def precheck() -> str | None:
    """Why the benchmark cannot run here, or None.  Also warms the
    interpreter's bytecode and file caches before anything is timed."""
    if not os.path.isfile(os.path.join(SRC, "apollonian", "__init__.py")):
        return f"no apollonian package under {SRC}"
    if not os.path.isfile(REFERENCE):
        return f"missing {REFERENCE}"
    proc = subprocess.run(
        [sys.executable, "-c", "import apollonian.cli"], env=_worker_env(), cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        return "cannot import apollonian: " + proc.stderr.strip()[-500:]
    return None


def input_record(workload: str, seed: int) -> dict:
    if workloads.WORKLOADS[workload][0] is None:
        root, bound = workloads.exponent_input(seed)
        return {"root": list(root), "bound": bound}
    command, config = workloads.WORKLOADS[workload]
    return {"command": command, "config": workloads.CONFIGS[config]}


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    load0 = os.getloadavg()
    print(json.dumps({"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                      "input": input_record(workload, seed), "env": environment()}), flush=True)
    summary = measure(workload, seed, seconds, trace)
    summary["env"] = {"blas_threads": summary.pop("blas_threads"),
                      "cpu_s": summary.pop("cpu_s", None),
                      "loadavg_start": load0, "loadavg_end": os.getloadavg()}
    if "spans" in summary:
        print(json.dumps({"unwrapped": summary.pop("unwrapped"), "spans": summary.pop("spans")}),
              flush=True)
    print(json.dumps({"env": summary["env"]}), flush=True)
    for name, unit in END_TO_END.items():
        if "end_to_end" in summary:
            print(f"{workload} {name} = {summary['end_to_end'][name]:.4f} {unit}")
    print(f"{workload} failed_frac = {summary['failed_frac']:.4f} ratio "
          f"({summary['failed']} of {summary['attempted']})", flush=True)
    return summary


def result_line(summary: dict, trace: bool) -> dict:
    if trace:
        metrics = {name: {"value": summary["per_layer"][name], "unit": unit}
                   for name, (unit, _) in tracer.PER_LAYER.items()}
    else:
        metrics = {name: {"value": summary["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {"correct": summary["failed"] == 0, "attempted": summary["attempted"],
            "failed": summary["failed"], "metrics": metrics}


def record() -> int:
    """Write reference.json from one untraced seed-0 iteration per workload."""
    ref = {}
    for workload in workloads.WORKLOADS:
        res = _run_worker(workload, 0, False, hash_seed=0)
        if res.get("problems") or res.get("error") or res.get("rc") != 0:
            why = res.get("problems") or res.get("error") or f"exit code {res.get('rc')}"
            print(f"{workload} failed: {why}", file=sys.stderr)
            return 1
        ref[workload] = res["facts"]
        print(f"recorded {workload}: {len(res['facts'])} facts", flush=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", action="store_true", help="rewrite reference.json and exit")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    if args.record:
        if not os.path.isfile(os.path.join(SRC, "apollonian", "__init__.py")):
            print(f"error: no apollonian package under {SRC}", file=sys.stderr)
            return 2
        try:
            return record()
        finally:
            _cleanup_tmp()

    why = precheck()
    if why is not None:
        print(f"error: {why}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    try:
        if args.workload != "all":
            summary = run_one(args.workload, args.seed, args.seconds, trace)
            if ("per_layer" if trace else "end_to_end") not in summary:
                print("error: no iteration completed", file=sys.stderr)
                return 1
            print(json.dumps(result_line(summary, trace)))
            return 0
        table = {}
        for workload in workloads.WORKLOADS:
            summary = run_one(workload, args.seed, args.seconds, trace)
            if ("per_layer" if trace else "end_to_end") not in summary:
                print(f"error: no iteration of {workload} completed", file=sys.stderr)
                return 1
            table[workload] = result_line(summary, trace)
            table[workload]["metrics"]["failed_frac"] = {"value": summary["failed_frac"],
                                                         "unit": "ratio"}
        print()
        for workload, line in table.items():
            cells = ", ".join(f"{k} {v['value']:.4f} {v['unit']}" for k, v in line["metrics"].items())
            print(f"{workload}: {cells}")
        print(json.dumps(table))
        return 0
    finally:
        _cleanup_tmp()


def _cleanup_tmp() -> None:
    try:
        os.rmdir(TMP)
    except OSError:
        pass


if __name__ == "__main__":
    sys.exit(main())
