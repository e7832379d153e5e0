"""Tests of the benchmark's own code: output checks, span arithmetic and the
tracer's install/restore.  Run with ``PYTHONPATH=src python -m pytest perfbench``."""

import importlib
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import tracer  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402


def _write(path, data: bytes):
    with open(path, "wb") as fh:
        fh.write(data)


def test_checker_flags_one_flipped_byte(tmp_path):
    _write(tmp_path / "counts.csv", b"T,N\n10.000000,9\n")
    _write(tmp_path / "summary.txt", b"circles 9, quadruples 6\n")
    ref = checks.file_facts(str(tmp_path))
    assert checks.compare(ref, checks.file_facts(str(tmp_path))) == []

    data = bytearray((tmp_path / "counts.csv").read_bytes())
    data[-2] ^= 0x01
    _write(tmp_path / "counts.csv", bytes(data))
    problems = checks.compare(ref, checks.file_facts(str(tmp_path)))
    assert len(problems) == 1 and problems[0].startswith("sha256:counts.csv")


def test_checker_flags_a_missing_file_and_ignores_a_new_one(tmp_path):
    _write(tmp_path / "a.csv", b"x\n")
    ref = checks.file_facts(str(tmp_path))
    _write(tmp_path / "run.json", b"{}\n")
    assert checks.compare(ref, checks.file_facts(str(tmp_path))) == []
    os.remove(tmp_path / "a.csv")
    assert checks.compare(ref, checks.file_facts(str(tmp_path))) == ["sha256:a.csv: missing"]


def test_checker_flags_wrong_count_and_float():
    ref = {"circles": "3329", "group_orders": [14400, 117600], "alpha_hat": 1.3057}
    assert checks.compare(ref, dict(ref)) == []
    assert checks.compare(ref, {**ref, "circles": "3330"}) == [
        "circles: expected '3329', got '3330'"
    ]
    assert len(checks.compare(ref, {**ref, "group_orders": [14400, 117601]})) == 1
    assert checks.compare(ref, {**ref, "alpha_hat": 1.3057 * (1 + 1e-12)}) == []
    assert len(checks.compare(ref, {**ref, "alpha_hat": 1.3058})) == 1


def _exponent_facts(root, bound):
    from apollonian import counting, quadruples
    import numpy as np

    orbit = quadruples.enumerate_orbit(root, bound)
    grid = np.geomspace(100, bound, 9)
    curve = counting.count_by_curvature(orbit, grid)
    fit = counting.fit_exponent(curve, (bound / 30, bound))
    return {
        "root": list(root), "bound": bound, "quad_count": orbit.quad_count,
        "circle_count": orbit.circle_count, "grid": curve.ts.tolist(),
        "counts": [int(n) for n in curve.counts], "alpha_hat": fit.alpha_hat,
    }


@pytest.mark.parametrize("root", [(-1, 2, 2, 3), (-2, 3, 6, 7), (-4, 5, 20, 21)])
def test_exponent_invariants_hold_and_catch_a_wrong_count(root):
    facts = _exponent_facts(root, 30000)
    assert checks.exponent_invariants(facts) == []
    bad = dict(facts, counts=list(facts["counts"]))
    bad["counts"][2] += 1
    assert checks.exponent_invariants(bad)
    assert checks.exponent_invariants(dict(facts, quad_count=facts["quad_count"] + 1))


def test_oracle_matches_enumerate_orbit():
    from apollonian import counting, quadruples

    ts = [1, 2, 3, 6, 50, 400]
    orbit = quadruples.enumerate_orbit((-3, 5, 8, 8), 400)
    assert checks.oracle_counts((-3, 5, 8, 8), ts) == counting.count_by_curvature(orbit, ts).counts.tolist()
    # the standard packing: |curvature| 1, 2, 2, 3, 3, then four circles of 6
    assert checks.oracle_counts((-1, 2, 2, 3), [1, 2, 3, 6]) == [1, 3, 5, 9]


def test_self_times_on_nested_and_overlapping_spans():
    spans = [
        Span(0, "cli.cmd_report", 0.0, 10.0, None),
        Span(1, "a", 1.0, 3.0, 0),
        Span(2, "b", 2.0, 5.0, 0),  # overlaps span 1, as on a helper thread
        Span(3, "c", 8.0, 9.0, 0),
        Span(4, "d", 1.5, 2.0, 1),
        Span(5, "e", 9.5, 11.0, 0),  # ends after its parent: clipped
    ]
    st = self_times(spans)
    assert st[0] == pytest.approx(10.0 - (4.0 + 1.0 + 0.5))
    assert st[1] == pytest.approx(1.5)
    assert st[2] == pytest.approx(3.0)
    assert st[4] == pytest.approx(0.5)


def _attrs():
    return {key: getattr(importlib.import_module(key[0]), key[1], None) for key in tracer.WRAPPED}


def test_tracer_restores_every_wrapped_name(tmp_path):
    import apollonian.cli
    import apollonian.congruence

    before = _attrs()
    config = tmp_path / "run.ini"
    config.write_text(
        "[packing]\nroot = -1, 2, 2, 3\nbound = 300\n[congruence]\nmoduli = 2, 3\n"
        "[sieve]\nselectors = coord:4 product:1:2\nlevel_D = 12\n"
        "[boxcount]\neps_exponents = 3 4 5\n"
    )
    tr = Tracer()
    tr.install()
    try:
        wrapped = _attrs()
        assert all(wrapped[k] is not before[k] for k in before)
        assert all(wrapped[k].__wrapped__ is before[k] for k in before)
        rc = apollonian.cli.main(["report", "--config", str(config), "--out", str(tmp_path / "o")])
    finally:
        tr.uninstall()
    assert rc == 0
    after = _attrs()
    assert all(after[k] is before[k] for k in before)

    m = tracer.metrics(tr, bytes_written=1000)
    assert set(m) == set(tracer.PER_LAYER)
    assert m["counting.box_counts.calls"] == 2
    assert m["counting.box_counts.useful_ratio"] == 0.5
    # one orbit_mod per slice; the dimension trace re-slices primes < D
    slices = [s for s in tr.spans if s.name == "sieve.slice_series"]
    assert m["sieve.orbit_mod.calls"] == len(slices)
    assert 0 < m["sieve.orbit_mod.useful_ratio"] < 1
    orders = [apollonian.congruence.reduce_group_mod(q).order for q in (2, 3)]
    assert m["congruence.vertices"] == sum(orders)
    assert m["quadruples.generations"] > 0
    assert m["cli.self_s"] > 0
    names = {s.name for s in tr.spans}
    assert "cli.cmd_report" in names and "sieve.orbit_mod" in names
    # the congruence spans ran on a pool thread but descend from cmd_report
    report = next(s for s in tr.spans if s.name == "cli.cmd_report")
    assert all(s.parent == report.id for s in tr.spans if s.name == "congruence.spectrum")


def test_tracer_restores_names_after_an_exception():
    import apollonian.quadruples

    before = _attrs()
    tr = Tracer()
    tr.install()
    try:
        with pytest.raises(ValueError):
            apollonian.quadruples.enumerate_orbit((-1, 2, 2, 4), 100)
    finally:
        tr.uninstall()
    assert _attrs() == before
    assert [s.name for s in tr.spans] == ["quadruples.enumerate_orbit"]


def test_tracer_skips_a_name_a_refactor_removed(monkeypatch):
    monkeypatch.setitem(tracer.WRAPPED, ("apollonian.sieve", "no_such_function"), "sieve.gone")
    before = _attrs()
    tr = Tracer()
    assert tr.install() == ["apollonian.sieve.no_such_function"]
    tr.uninstall()
    assert _attrs() == before
