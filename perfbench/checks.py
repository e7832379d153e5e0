"""Output checks: what each run must have produced.

Facts are a flat dict of name -> value.  For the CLI workloads they are the
sha256 of every output file plus the integers and fit values read from the
outputs; ``compare`` matches them against ``reference.json``, recorded from
the seed code.  The library workload is also checked by invariants that
hold for any root, including N(T) from an independent pure-Python walk of
the Descartes tree, so a seed whose root has no reference is still checked.
"""

from __future__ import annotations

import hashlib
import math
import os

FLOAT_REL_TOL = 1e-9
ORACLE_MAX_CIRCLES = 20_000  # largest N(T) the pure-Python walk recounts


def file_facts(out_dir: str) -> dict:
    """sha256 of every file under ``out_dir``, keyed by relative path."""
    facts = {}
    for dirpath, _, files in os.walk(out_dir):
        for name in files:
            path = os.path.join(dirpath, name)
            h = hashlib.sha256()
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
            facts["sha256:" + os.path.relpath(path, out_dir)] = h.hexdigest()
    return facts


def _csv_column(path: str, col: int) -> list[int]:
    with open(path, encoding="ascii") as fh:
        next(fh)
        return [int(line.rstrip("\n").split(",")[col]) for line in fh]


def _summary_value(lines: list[str], prefix: str, index: int) -> str:
    for line in lines:
        if line.startswith(prefix):
            return line.split()[index].rstrip(",")
    return "missing"


def cli_facts(command: str, out_dir: str, stdout: str) -> dict:
    """Integers and fit values read from a CLI run, plus file hashes."""
    facts = file_facts(out_dir)
    lines = stdout.splitlines()
    if command == "generate":
        facts["circles"] = _summary_value(lines, "N_P(", 2)
        facts["quadruples"] = _summary_value(lines, "quadruples enumerated", 3)
    elif command == "render":
        facts["circles"] = _summary_value(lines, "wrote", 1)
    else:
        with open(os.path.join(out_dir, "summary.txt"), encoding="ascii") as fh:
            summary = fh.read().splitlines()
        facts["circles"] = _summary_value(summary, "circles", 1)
        facts["quadruples"] = _summary_value(summary, "circles", 3)
        facts["alpha_hat"] = _summary_value(summary, "alpha_hat", 1)
        facts["group_orders"] = _csv_column(os.path.join(out_dir, "spectral.csv"), 1)
        counts = os.path.join(out_dir, "counts.csv")
        if os.path.exists(counts):
            facts["N_T"] = _csv_column(counts, 1)
    return facts


def compare(expected: dict, actual: dict) -> list[str]:
    """Every expected fact that is missing or differs; floats within
    FLOAT_REL_TOL."""
    problems = []
    for key, want in expected.items():
        if key not in actual:
            problems.append(f"{key}: missing")
            continue
        got = actual[key]
        if isinstance(want, float) and isinstance(got, (int, float)):
            same = math.isclose(got, want, rel_tol=FLOAT_REL_TOL)
        else:
            same = got == want
        if not same:
            problems.append(f"{key}: expected {_short(want)}, got {_short(got)}")
    # an output file the reference lacks is not checked: the reference has
    # nothing to hold it to, and a later run.json of timings never repeats
    return problems


def _short(v) -> str:
    s = repr(v)
    return s if len(s) <= 80 else s[:77] + "..."


def oracle_counts(root, ts) -> list[int]:
    """N(t) for each t: circles of the packing with |curvature| <= t, found by
    a depth-first walk of reduced swap words in plain Python integers."""
    top = max(ts)
    found = [abs(x) for x in root]
    stack = [(tuple(root), -1)]
    while stack:
        quad, last = stack.pop()
        total = sum(quad)
        for i in range(4):
            if i == last:
                continue
            new = 2 * (total - quad[i]) - quad[i]
            if new > top:  # new entries never decrease along a reduced word
                continue
            found.append(new)
            if len(found) > ORACLE_MAX_CIRCLES * 10:
                raise RuntimeError("oracle walk ran away")
            child = quad[:i] + (new,) + quad[i + 1:]
            stack.append((child, i))
    found.sort()
    out = []
    k = 0
    for t in sorted(ts):
        while k < len(found) and found[k] <= t:
            k += 1
        out.append(k)
    return out


def exponent_invariants(facts: dict) -> list[str]:
    """Checks that hold for the orbit of any primitive root."""
    problems = []
    counts, grid = facts["counts"], facts["grid"]
    if facts["circle_count"] != facts["quad_count"] + 3:
        problems.append("circle count is not quadruple count + 3")
    if any(b < a for a, b in zip(counts, counts[1:])):
        problems.append("N(T) decreases along the grid")
    if counts[-1] != facts["circle_count"] or grid[-1] != facts["bound"]:
        problems.append("N(bound) differs from the circle count")
    if not 1.28 < facts["alpha_hat"] < 1.33:
        problems.append(f"alpha_hat {facts['alpha_hat']} outside (1.28, 1.33)")
    small = [t for t, n in zip(grid, counts) if n <= ORACLE_MAX_CIRCLES]
    if small:
        want = oracle_counts(facts["root"], small)
        if want != counts[: len(small)]:
            problems.append(f"N(T) on T <= {small[-1]:.0f} differs from the pure-Python walk")
    return problems
