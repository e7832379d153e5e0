"""Timing spans installed around the public entry functions of each module.

The tracer replaces module attributes with wrappers, at the place where the
caller looks the name up (``apollonian.cli.enumerate_orbit`` is the name
``cmd_report`` calls, ``apollonian.counting.box_counts`` is also the name
``boxcount_dimension`` calls).  Spans stay in memory; ``metrics`` turns them
into per-layer numbers after the traced call returns.

Only functions called at most about a hundred times per run are wrapped,
never per-element helpers, so the wrappers add microseconds, not seconds.
"""

from __future__ import annotations

import importlib
import os
import resource
import threading
import time
from dataclasses import dataclass, field

# (module, attribute) -> span name.  A function reachable under two names is
# wrapped at both, with one span name.
WRAPPED = {
    ("apollonian.cli", "load_config"): "config.load_config",
    ("apollonian.cli", "cmd_generate"): "cli.cmd_generate",
    ("apollonian.cli", "cmd_render"): "cli.cmd_render",
    ("apollonian.cli", "cmd_report"): "cli.cmd_report",
    ("apollonian.cli", "enumerate_orbit"): "quadruples.enumerate_orbit",
    ("apollonian.cli", "write_orbit_dump"): "quadruples.write_orbit_dump",
    ("apollonian.quadruples", "enumerate_orbit"): "quadruples.enumerate_orbit",
    ("apollonian.geometry", "generate_packing_geometric"): "geometry.generate_packing_geometric",
    ("apollonian.geometry", "circles_from_rows"): "geometry.circles_from_rows",
    ("apollonian.counting", "count_by_curvature"): "counting.count_by_curvature",
    ("apollonian.counting", "fit_exponent"): "counting.fit_exponent",
    ("apollonian.counting", "box_counts"): "counting.box_counts",
    ("apollonian.counting", "boxcount_dimension"): "counting.boxcount_dimension",
    ("apollonian.arithmetic", "tally"): "arithmetic.tally",
    ("apollonian.arithmetic", "prime_count_curve"): "arithmetic.prime_count_curve",
    ("apollonian.arithmetic", "no_odd_prime_triple"): "arithmetic.no_odd_prime_triple",
    ("apollonian.sieve", "build_series"): "sieve.build_series",
    ("apollonian.sieve", "slice_series"): "sieve.slice_series",
    ("apollonian.sieve", "almost_prime_count"): "sieve.almost_prime_count",
    ("apollonian.sieve", "orbit_mod"): "sieve.orbit_mod",
    ("apollonian.congruence", "reduce_group_mod"): "congruence.reduce_group_mod",
    ("apollonian.congruence", "build_cayley"): "congruence.build_cayley",
    ("apollonian.congruence", "spectrum"): "congruence.spectrum",
    ("apollonian.render", "write_svg"): "render.write_svg",
}

# Per-layer metrics: name -> (unit, better).  Every traced run reports all of
# them; a layer the workload never enters reads 0.
PER_LAYER = {
    "quadruples.enumerate_orbit.s": ("s", "lower"),
    "quadruples.quads_per_s": ("1/s", "higher"),
    "quadruples.enumerate_orbit.rss_rise_mb": ("MB", "lower"),
    "quadruples.generations": ("count", "lower"),
    "quadruples.write_orbit_dump.s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_written": ("B", "lower"),
    "cli.write_mb_per_s": ("MB/s", "higher"),
    "geometry.generate_packing_geometric.s": ("s", "lower"),
    "geometry.circles_per_s": ("1/s", "higher"),
    "geometry.max_int_drift": ("abs", "lower"),
    "geometry.circles_from_rows.s": ("s", "lower"),
    "geometry.circles_from_rows.rss_rise_mb": ("MB", "lower"),
    "counting.box_counts.s": ("s", "lower"),
    "counting.box_counts.calls": ("count", "lower"),
    "counting.box_counts.useful_ratio": ("ratio", "higher"),
    "counting.count_by_curvature.s": ("s", "lower"),
    "arithmetic.prime_count_curve.s": ("s", "lower"),
    "arithmetic.no_odd_prime_triple.s": ("s", "lower"),
    "sieve.slice_series.s": ("s", "lower"),
    "sieve.almost_prime_count.s": ("s", "lower"),
    "sieve.orbit_mod.s": ("s", "lower"),
    "sieve.orbit_mod.calls": ("count", "lower"),
    "sieve.orbit_mod.useful_ratio": ("ratio", "higher"),
    "congruence.reduce_group_mod.s": ("s", "lower"),
    "congruence.build_cayley.s": ("s", "lower"),
    "congruence.spectrum.s": ("s", "lower"),
    "congruence.vertices": ("count", "lower"),
    "congruence.vertices_per_s": ("1/s", "higher"),
    "congruence.build_cayley.rss_rise_mb": ("MB", "lower"),
    "render.write_svg.s": ("s", "lower"),
    "render.bytes": ("B", "lower"),
    "config.load_config.s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    rss_rise_mb: float = 0.0


@dataclass
class Tracer:
    """Collects spans from wrapped functions; ``install`` and ``uninstall``
    patch and restore the module attributes in ``WRAPPED``."""

    spans: list[Span] = field(default_factory=list)
    # per-span facts taken from arguments and results: counts, sizes
    facts: dict[int, dict] = field(default_factory=dict)
    _saved: dict = field(default_factory=dict)
    _local: threading.local = field(default_factory=threading.local)
    _main_stack: list[int] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _parent(self, stack: list[int]) -> int | None:
        # a span opened on a helper thread descends from the innermost span
        # open on the main thread, which is the one that started the pool
        if stack:
            return stack[-1]
        if self._main_stack:
            return self._main_stack[-1]
        return None

    def wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            with tracer._lock:
                sid = len(tracer.spans)
                span = Span(sid, name, 0.0, 0.0, tracer._parent(stack))
                tracer.spans.append(span)
            stack.append(sid)
            rss0 = _maxrss_mb()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.rss_rise_mb = _maxrss_mb() - rss0
                stack.pop()
            try:
                tracer.facts[sid] = _facts(name, args, result)
            except Exception as exc:  # a changed signature must not fail the run
                tracer.facts[sid] = {"error": repr(exc)}
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> list[str]:
        """Wrap every name in ``WRAPPED``; returns the names not found, which
        a refactor may have removed (their metrics then read 0)."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        missing = []
        for (mod_name, attr), span_name in WRAPPED.items():
            try:
                mod = importlib.import_module(mod_name)
            except ImportError:
                missing.append(f"{mod_name}.{attr}")
                continue
            original = getattr(mod, attr, None)
            if not callable(original):
                missing.append(f"{mod_name}.{attr}")
                continue
            self._saved[(mod_name, attr)] = original
            setattr(mod, attr, self.wrap(span_name, original))
        return missing

    def uninstall(self) -> None:
        for (mod_name, attr), original in self._saved.items():
            setattr(importlib.import_module(mod_name), attr, original)
        self._saved.clear()


def _facts(name: str, args, result) -> dict:
    """Counts read off a call's arguments and result, outside its span."""
    if name == "quadruples.enumerate_orbit":
        return {"quads": int(result.quad_count), "generations": int(result.generations)}
    if name == "geometry.generate_packing_geometric":
        return {"circles": result}
    if name == "counting.box_counts":
        circles, eps = args[0], args[1]
        return {"key": (id(circles), len(circles), tuple(float(e) for e in eps))}
    if name == "sieve.orbit_mod":
        return {"key": (tuple(int(x) for x in args[0]), int(args[1]))}
    if name == "congruence.build_cayley":
        return {"vertices": int(result.n)}
    if name == "render.write_svg":
        return {"bytes": os.path.getsize(args[0])}
    if name == "quadruples.write_orbit_dump":
        return {"bytes": os.path.getsize(args[1])}
    return {}


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (children may overlap when they ran on other threads)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(s.id, []), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = (s.end - s.start) - covered
    return out


def metrics(tracer: Tracer, bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of one traced call, except ``trace.overhead_s``,
    which needs untraced runs and is filled in by ``run.py``."""
    spans = tracer.spans
    self_t = self_times(spans)

    def named(name):
        return [s for s in spans if s.name == name]

    def self_s(name):
        return sum(self_t[s.id] for s in named(name))

    def total_s(name):
        return sum(s.end - s.start for s in named(name))

    def fact_sum(name, key):
        return sum(tracer.facts.get(s.id, {}).get(key, 0) for s in named(name))

    def rss_rise(name):
        return max((s.rss_rise_mb for s in named(name)), default=0.0)

    def useful_ratio(name):
        calls = named(name)
        if not calls:
            return 0.0
        keys = {tracer.facts.get(s.id, {}).get("key", s.id) for s in calls}
        return len(keys) / len(calls)

    def per_s(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    m = {name: 0.0 for name in PER_LAYER}
    m["quadruples.enumerate_orbit.s"] = self_s("quadruples.enumerate_orbit")
    m["quadruples.quads_per_s"] = per_s(
        fact_sum("quadruples.enumerate_orbit", "quads"), total_s("quadruples.enumerate_orbit")
    )
    m["quadruples.enumerate_orbit.rss_rise_mb"] = rss_rise("quadruples.enumerate_orbit")
    m["quadruples.generations"] = fact_sum("quadruples.enumerate_orbit", "generations")
    m["quadruples.write_orbit_dump.s"] = self_s("quadruples.write_orbit_dump")

    cli_self = sum(self_s(f"cli.cmd_{c}") for c in ("generate", "render", "report"))
    # the rate counts only what the CLI's own code wrote, not its children
    child_bytes = fact_sum("render.write_svg", "bytes") + fact_sum(
        "quadruples.write_orbit_dump", "bytes")
    m["cli.self_s"] = cli_self
    m["cli.bytes_written"] = bytes_written
    m["cli.write_mb_per_s"] = per_s((bytes_written - child_bytes) / 1e6, cli_self)

    gen_s = self_s("geometry.generate_packing_geometric")
    circles = [c for s in named("geometry.generate_packing_geometric")
               for c in tracer.facts.get(s.id, {}).get("circles", [])]
    m["geometry.generate_packing_geometric.s"] = gen_s
    m["geometry.circles_per_s"] = per_s(len(circles), gen_s)
    m["geometry.max_int_drift"] = max(
        (abs(c.unsigned_curvature - round(c.unsigned_curvature)) for c in circles),
        default=0.0,
    )
    m["geometry.circles_from_rows.s"] = self_s("geometry.circles_from_rows")
    m["geometry.circles_from_rows.rss_rise_mb"] = rss_rise("geometry.circles_from_rows")

    m["counting.box_counts.s"] = self_s("counting.box_counts")
    m["counting.box_counts.calls"] = len(named("counting.box_counts"))
    m["counting.box_counts.useful_ratio"] = useful_ratio("counting.box_counts")
    m["counting.count_by_curvature.s"] = self_s("counting.count_by_curvature")

    m["arithmetic.prime_count_curve.s"] = self_s("arithmetic.prime_count_curve")
    m["arithmetic.no_odd_prime_triple.s"] = self_s("arithmetic.no_odd_prime_triple")

    m["sieve.slice_series.s"] = self_s("sieve.slice_series")
    m["sieve.almost_prime_count.s"] = self_s("sieve.almost_prime_count")
    m["sieve.orbit_mod.s"] = self_s("sieve.orbit_mod")
    m["sieve.orbit_mod.calls"] = len(named("sieve.orbit_mod"))
    m["sieve.orbit_mod.useful_ratio"] = useful_ratio("sieve.orbit_mod")

    cong_s = 0.0
    for part in ("reduce_group_mod", "build_cayley", "spectrum"):
        m[f"congruence.{part}.s"] = self_s(f"congruence.{part}")
        cong_s += m[f"congruence.{part}.s"]
    m["congruence.vertices"] = fact_sum("congruence.build_cayley", "vertices")
    m["congruence.vertices_per_s"] = per_s(m["congruence.vertices"], cong_s)
    m["congruence.build_cayley.rss_rise_mb"] = rss_rise("congruence.build_cayley")

    m["render.write_svg.s"] = self_s("render.write_svg")
    m["render.bytes"] = fact_sum("render.write_svg", "bytes")
    m["config.load_config.s"] = self_s("config.load_config")
    return m


def span_records(spans: list[Span]) -> list[dict]:
    """Spans as plain dicts, times relative to the first span's start."""
    t0 = min((s.start for s in spans), default=0.0)
    return [
        {"id": s.id, "name": s.name, "start": s.start - t0, "end": s.end - t0,
         "parent": s.parent, "rss_rise_mb": s.rss_rise_mb}
        for s in spans
    ]
