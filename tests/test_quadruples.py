import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apollonian.quadruples import (
    SWAP_MATRICES,
    NotDescartesError,
    WalkFaultError,
    apply_swap,
    descartes_form,
    embedding_for_root,
    enumerate_orbit,
    is_primitive,
    is_root,
    reduce_to_root,
    write_circles,
    write_orbit_dump,
)
from apollonian import quadruples
from apollonian.arithmetic import is_prime, prime_count_curve

from conftest import STRIP_WINDOW, TEST_ROOTS

STANDARD = (-1, 2, 2, 3)


@pytest.mark.parametrize(
    "quad,expected",
    [
        ((-1, 2, 2, 3), 0),
        ((1, -2, -2, -3), 0),
        ((1, 1, 1, 1), -8),
        ((0, 0, 1, 1), 0),
        ((-2, 3, 6, 7), 0),
        ((-3, 4, 12, 13), 0),
        ((-6, 10, 15, 19), 0),
    ],
)
def test_descartes_form(quad, expected):
    assert descartes_form(quad) == expected


def test_descartes_form_huge_ints_exact():
    v = (10**30, -(10**30), 7, 11)
    # exact Python arithmetic; just check it matches a direct evaluation
    s = sum(v)
    assert descartes_form(v) == 2 * sum(x * x for x in v) - s * s


@pytest.mark.parametrize(
    "quad,i,expected",
    [
        (STANDARD, 1, (15, 2, 2, 3)),
        (STANDARD, 4, (-1, 2, 2, 3)),
        (STANDARD, 2, (-1, 6, 2, 3)),
        (STANDARD, 3, (-1, 2, 6, 3)),
    ],
)
def test_apply_swap(quad, i, expected):
    assert apply_swap(quad, i) == expected
    # cross-check against the printed reflection matrices
    prod = np.array(quad, dtype=np.int64) @ SWAP_MATRICES[i - 1]
    assert tuple(prod.tolist()) == expected


def test_swap_matrices_are_involutions_preserving_form():
    rng = np.random.default_rng(7)
    vs = rng.integers(-10**6, 10**6, size=(10_000, 4)).astype(object)
    for i in range(4):
        s = SWAP_MATRICES[i]
        assert np.array_equal(s @ s, np.eye(4, dtype=np.int64))
        w = vs @ s
        q_v = 2 * (vs * vs).sum(axis=1) - vs.sum(axis=1) ** 2
        q_w = 2 * (w * w).sum(axis=1) - w.sum(axis=1) ** 2
        assert (q_v == q_w).all()


@given(
    st.tuples(*[st.integers(min_value=-(10**9), max_value=10**9)] * 4),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=300, deadline=None)
def test_swap_involution_property(v, i):
    assert apply_swap(apply_swap(v, i), i) == tuple(v)
    assert descartes_form(apply_swap(v, i)) == descartes_form(v)


def test_swap_index_validation():
    with pytest.raises(ValueError):
        apply_swap(STANDARD, 0)
    with pytest.raises(ValueError):
        apply_swap(STANDARD, 5)


@pytest.mark.parametrize(
    "quad,root",
    [
        ((15, 2, 2, 3), STANDARD),
        ((-1, 2, 2, 3), STANDARD),
        ((-1, 6, 2, 3), STANDARD),
        ((23, 6, 2, 3), STANDARD),
    ],
)
def test_reduce_to_root(quad, root):
    assert reduce_to_root(quad) == root


def test_reduce_rejects_non_descartes():
    with pytest.raises(NotDescartesError):
        reduce_to_root((1, 1, 1, 1))
    with pytest.raises(ValueError):
        reduce_to_root((0, 0, 0, 0))


def test_is_root():
    assert is_root(STANDARD)
    assert is_root((0, 0, 1, 1))
    assert not is_root((15, 2, 2, 3))


@pytest.mark.parametrize(
    "quad,expected",
    [(STANDARD, True), ((-2, 4, 4, 6), False), ((0, 0, 1, 1), True)],
)
def test_is_primitive(quad, expected):
    assert is_primitive(quad) == expected


# --- orbit enumeration ---


def test_enumerate_small_bounds():
    orb = enumerate_orbit(STANDARD, 3)
    assert sorted(abs(int(x)) for x in orb.curvatures) == [1, 2, 2, 3, 3]
    # the mirror-symmetric packing carries four curvature-6 circles
    orb = enumerate_orbit(STANDARD, 6)
    assert sorted(abs(int(x)) for x in orb.curvatures) == [1, 2, 2, 3, 3, 6, 6, 6, 6]
    orb = enumerate_orbit(STANDARD, 15)
    assert sorted(abs(int(x)) for x in orb.curvatures) == [
        1, 2, 2, 3, 3, 6, 6, 6, 6, 11, 11, 11, 11, 14, 14, 14, 14, 15, 15,
    ]


def test_enumerate_bounding_only():
    orb = enumerate_orbit(STANDARD, 1)
    assert orb.curvatures.tolist() == [-1]
    assert orb.quad_count == 0


def test_enumerate_bound_below_smallest_curvature():
    with pytest.raises(ValueError):
        enumerate_orbit(STANDARD, 0)


def test_enumerate_rejects_non_root():
    with pytest.raises(ValueError):
        enumerate_orbit((15, 2, 2, 3), 100)
    with pytest.raises(NotDescartesError):
        enumerate_orbit((1, 1, 1, 1), 100)


def test_enumerate_unbounded_needs_region():
    with pytest.raises(ValueError, match=r"pass region=\.\.\.$") as err:
        enumerate_orbit((0, 0, 1, 1), 10)
    assert "depth" not in str(err.value)
    with pytest.raises(TypeError, match="max_depth"):
        enumerate_orbit((0, 0, 1, 1), 10, max_depth=3)


def test_all_enumerated_quadruples_satisfy_form(std_orbit_1e4):
    q = std_orbit_1e4.quads.astype(object)
    form = 2 * (q * q).sum(axis=1) - q.sum(axis=1) ** 2
    assert (form == 0).all()


def test_integer_curvatures_stay_integer(std_orbit_1e4):
    assert std_orbit_1e4.curvatures.dtype == np.int64


def test_new_entries_nondecreasing_along_branches():
    # along any word the newly created curvature never decreases; with the
    # stored generation depths this shows as sorted new-entry sequences per
    # branch, which we spot-check by replaying swaps
    orb = enumerate_orbit(STANDARD, 500, keep_quads=True)
    depths = orb.quad_depths
    quads = orb.quads
    by_depth = {}
    for d, row in zip(depths, quads):
        by_depth.setdefault(int(d), []).append(tuple(int(x) for x in row))
    for d in range(1, max(by_depth)):
        floor_prev = min(max(q) for q in by_depth[d])
        for q in by_depth[d + 1]:
            assert max(q) >= floor_prev


def test_root_uniqueness_over_orbit(std_orbit_1e4):
    rng = np.random.default_rng(11)
    quads = std_orbit_1e4.quads
    sample = quads[rng.choice(len(quads), size=200, replace=False)]
    for row in sample:
        assert reduce_to_root(tuple(int(x) for x in row)) == STANDARD


def test_count_consistency_between_bounds():
    big = enumerate_orbit(STANDARD, 200)
    small = enumerate_orbit(STANDARD, 60)
    ub = np.sort(np.abs(big.curvatures))
    us = np.sort(np.abs(small.curvatures))
    assert us.size <= ub.size
    assert np.array_equal(us, ub[ub <= 60])


def test_tangency_edges_match_quadruple_cooccurrence():
    # the edges of the per-swap reference walk, the oracle of the twin fold
    ref = _reference_walk(STANDARD, 6, twins=True, keep_quads=True)
    # every edge pair must co-occur in a quadruple of matching curvatures
    curv = ref["curvatures"]
    quads = {tuple(sorted(abs(int(x)) for x in row)) for row in ref["quads"]}
    for a, b in ref["edges"]:
        ca, cb = abs(int(curv[a])), abs(int(curv[b]))
        assert any(ca in q and cb in q for q in quads)
    # at T=3 the two curvature-3 circles are not tangent to each other
    ref3 = _reference_walk(STANDARD, 3, twins=True)
    pairs = [tuple(sorted((abs(int(ref3["curvatures"][a])), abs(int(ref3["curvatures"][b]))))) for a, b in ref3["edges"]]
    assert (3, 3) not in pairs
    assert len(pairs) == 9
    # the walk's fold counts the prime ones: (2, 2) once and (2, 3) four times
    orb3 = enumerate_orbit(STANDARD, 3, twins=True)
    assert sorted(p for p in pairs if 1 not in p) == [(2, 2)] + [(2, 3)] * 4
    assert int(orb3.twins.sum()) == 5


def test_strip_region_enumeration():
    orb = enumerate_orbit(
        (0, 0, 1, 1), 1, embedding="auto", region=(0.0, 2.0, 0.0, 2.0)
    )
    vals = sorted(int(abs(x)) for x in orb.curvatures)
    assert vals == [0, 0, 1, 1]


def test_embedding_rows_reproduce_centers(std_orbit_1e4):
    rows = std_orbit_1e4.acc_rows
    curv = std_orbit_1e4.curvatures
    assert rows is not None
    # inversive norm: |w|^2 - cocurv*curv = 1 exactly, in integers
    w2 = rows[:, 2].astype(object) ** 2 + rows[:, 3].astype(object) ** 2
    assert (w2 - rows[:, 0].astype(object) * rows[:, 1].astype(object) == 1).all()
    assert np.array_equal(rows[:, 1], curv)
    m = np.abs(curv) == 6
    centers = sorted(
        (int(r[2]) / int(r[1]), int(r[3]) / int(r[1])) for r in rows[m]
    )
    assert centers == [(-0.5, -2 / 3), (-0.5, 2 / 3), (0.5, -2 / 3), (0.5, 2 / 3)]


def test_orbit_dump_format(tmp_path, std_orbit_1e4):
    orb = enumerate_orbit(STANDARD, 15, keep_quads=True)
    path = tmp_path / "orbit.txt"
    n = write_orbit_dump(orb, path)
    lines = path.read_text().splitlines()
    assert len(lines) == n == orb.quad_count
    assert lines[0] == "0 -1,2,2,3"
    for line in lines:
        depth, quad = line.split(" ")
        assert int(depth) >= 0
        parts = [int(x) for x in quad.split(",")]
        assert len(parts) == 4


def _per_row_outputs(orbit):
    """orbit.txt and circles.csv as the former per-row writers made them: the
    byte-for-byte reference for the bulk writers."""
    dump = "".join(
        f"{d} {row[0]},{row[1]},{row[2]},{row[3]}\n"
        for d, row in zip(orbit.quad_depths, orbit.quads)
    )
    if orbit.acc_rows is None:
        lines = ["curvature\n"] + [f"{b}\n" for b in sorted(orbit.curvatures.tolist(), key=abs)]
        return dump, "".join(lines)
    lines = ["curvature,x,y\n"]
    for b, row in sorted(
        zip(orbit.curvatures.tolist(), orbit.acc_rows.tolist()),
        key=lambda t: (abs(t[0]), t[1]),
    ):
        if b == 0:
            lines.append("0,,\n")
        else:
            x, y = row[2] / b + 0.0, row[3] / b + 0.0
            lines.append(f"{b},{x if x != 0 else 0.0:.9f},{y if y != 0 else 0.0:.9f}\n")
    return dump, "".join(lines)


WRITER_CASES = [
    pytest.param(STANDARD, 3000, None, id="standard-3000"),
    pytest.param(STANDARD, 5000, (-0.2, 0.2, -0.2, 0.2), id="standard-window-5000"),
    pytest.param((0, 0, 1, 1), 300, (0.0, 2.0, 0.0, 2.0), id="strip-300"),
    pytest.param((0, 0, 1, 1), 150, (-0.3, 0.7, -0.1, 1.3), id="strip-offset-150"),
    pytest.param((-2, 3, 6, 7), 20000, None, id="unembedded-20000"),
    pytest.param(STANDARD, 2, None, id="empty-orbit"),
    # |b| up to 99,999: every sort key needs a second 16-bit digit
    pytest.param(STANDARD, 100_000, (-0.2, 0.2, -0.2, 0.2), id="standard-window-1e5"),
]


def _assert_writers_match_reference(tmp_path, root, bound, window):
    orbit = enumerate_orbit(root, bound, keep_quads=True, embedding="auto", region=window)
    dump, circles = _per_row_outputs(orbit)
    assert write_orbit_dump(orbit, tmp_path / "orbit.txt") == orbit.quad_count
    write_circles(orbit, tmp_path / "circles.csv")
    assert (tmp_path / "orbit.txt").read_bytes() == dump.encode("ascii")
    assert (tmp_path / "circles.csv").read_bytes() == circles.encode("ascii")
    return orbit


@pytest.mark.parametrize("rows_per_chunk", [pytest.param(quadruples.ROWS_PER_CHUNK, id="default"), 97])
@pytest.mark.parametrize("root, bound, window", WRITER_CASES)
def test_writers_match_per_row_reference(tmp_path, monkeypatch, root, bound, window, rows_per_chunk):
    monkeypatch.setattr(quadruples, "ROWS_PER_CHUNK", rows_per_chunk)
    _assert_writers_match_reference(tmp_path, root, bound, window)


def test_writers_match_per_row_reference_across_chunks(tmp_path):
    orbit = _assert_writers_match_reference(tmp_path, STANDARD, 20000, None)
    assert orbit.circle_count > 2 * quadruples.ROWS_PER_CHUNK


def _formatted(columns, ends):
    return quadruples._format_rows([np.asarray(c) for c in columns], ends).tobytes().decode("ascii")


INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)


def _full_mantissa(min_exp, max_exp):
    """Floats +-m * 2**e with a random 53-bit mantissa m, below 2**(max_exp + 53)."""
    return st.builds(
        lambda m, e, sign: sign * math.ldexp(m, e),
        st.integers(min_value=2**52, max_value=2**53 - 1),
        st.integers(min_value=min_exp, max_value=max_exp),
        st.sampled_from([1, -1]),
    )


# k / 1024 with k odd is an exact tie at the ninth decimal; (k + 1/2) * 1e-9
# lies within an ulp of one; from 2**52 / 1e9 up, the double y * 1e9 no
# longer holds the fraction of the exact product
FIXED_POINT_CASES = st.one_of(
    st.integers(min_value=-(10**7), max_value=10**7).map(lambda k: k / 1024),
    st.integers(min_value=-(10**6), max_value=10**6).map(lambda k: (k + 0.5) * 1e-9),
    st.floats(min_value=-1e-9, max_value=-0.0),
    _full_mantissa(-30, 11),
    st.floats(min_value=-1e4, max_value=1e4),
    _full_mantissa(-1074, 11),
    st.floats(min_value=-(2.0**64), max_value=2.0**64, exclude_min=True, exclude_max=True),
)


@given(st.lists(INT64, min_size=1, max_size=40))
@example([2**63 - 1, -(2**63 - 1), -(2**63), 0, -1, 9999, 10000, -10**8])
@settings(max_examples=300, deadline=None)
def test_format_rows_prints_integers_as_percent_d(values):
    col = np.array(values, dtype=np.int64)
    assert _formatted([col], b"\n") == "".join("%d\n" % v for v in values)


@given(st.lists(FIXED_POINT_CASES, min_size=1, max_size=40))
@example([0.5e-9, 2.5e-9, 1 / 1024, 3 / 1024, -1e-12, -0.0, 0.0, 2**52 / 1e9, 2.0**64 - 2**11, 999.9999999995])
@settings(max_examples=500, deadline=None)
def test_format_rows_prints_floats_as_percent_9f(values):
    col = np.array(values, dtype=np.float64)
    assert _formatted([col], b"\n") == "".join("%.9f\n" % v for v in values)


def test_format_rows_ties_round_half_even():
    assert _formatted([[1 / 1024, 3 / 1024, -1e-12]], b"\n") == "0.000976562\n0.002929688\n-0.000000000\n"


@given(st.lists(st.tuples(INT64, FIXED_POINT_CASES, st.integers(-(2**31), 2**31 - 1)), min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_format_rows_mixed_columns(rows):
    ints, floats, small = (list(c) for c in zip(*rows))
    columns = [np.array(ints), np.array(floats), np.array(small, dtype=np.int32)]
    assert _formatted(columns, b", \n") == "".join("%d,%.9f %d\n" % row for row in rows)


# spans of one key: constant, one 16-bit digit, two, three, four, and the
# whole int64 range, where an offset from the minimum needs all 64 bits
KEY_SPANS = [0, 2**16 - 1, 2**16, 2**17 + 3, 2**32 + 5, 2**48 + 7, 2**64 - 1]


@st.composite
def _int64_keys(draw):
    n = draw(st.integers(min_value=0, max_value=40))
    keys = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        span = draw(st.sampled_from(KEY_SPANS))
        low = draw(st.integers(min_value=-(2**63), max_value=2**63 - 1 - span))
        values = draw(st.lists(st.integers(min_value=low, max_value=low + span), min_size=n, max_size=n))
        keys.append(values)
    return keys


@given(_int64_keys())
@example([[]])
@example([[], [], [], [], []])
@example([[5], [-(2**63)]])
@example([[2**62, -(2**63), 2**63 - 1]])  # taken in int64, the offsets wrap to a maximum of 0
@example([[2**63 - 1, -(2**63), 0, -1, 2**62, -(2**62), 2**63 - 1]])
@example([[3, 1, 2, 1, 3, 2], [2**63 - 1, -(2**63), 2**63 - 1, -(2**63), 0, 0]])
@example([[7] * 4, [2**16, 0, 2**16 - 1, 2**16]])
@settings(max_examples=300, deadline=None)
def test_lexsort_int64_matches_np_lexsort(keys):
    keys = [np.array(k, dtype=np.int64) for k in keys]
    order = quadruples._lexsort_int64(keys)
    expected = np.lexsort(keys)
    assert order.dtype == expected.dtype
    assert np.array_equal(order, expected)
    # the uint64 view of an int32 key would read pairs of its entries as one
    with pytest.raises(TypeError, match="keys must be int64"):
        quadruples._lexsort_int64([*keys[:-1], keys[-1].astype(np.int32)])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 2.0**64, -1e300])
def test_format_rows_rejects_floats_it_cannot_print(bad):
    with pytest.raises(ValueError, match="finite floats below 2"):
        quadruples._format_rows([np.array([1.0, bad])], b"\n")


def test_embedding_lookup():
    assert embedding_for_root((-1, 2, 2, 3)) is not None
    assert embedding_for_root((0, 0, 1, 1)) is not None
    assert embedding_for_root((-2, 3, 6, 7)) is None


def test_bound_cap_guard():
    from apollonian.quadruples import OverflowBoundError

    with pytest.raises(OverflowBoundError):
        enumerate_orbit(STANDARD, 10**9)


def test_duplicate_vectors_are_distinct_circles(std_orbit_1e4):
    # the standard root is fixed by swap 4, so curvature vectors repeat...
    quads = std_orbit_1e4.quads
    uniq = np.unique(quads, axis=0)
    assert uniq.shape[0] < quads.shape[0]
    # ...but every word still creates a geometrically new circle: no two
    # exact inversive rows are equal
    rows = std_orbit_1e4.acc_rows
    assert np.unique(rows, axis=0).shape[0] == rows.shape[0]


def test_any_decreasing_swap_choice_reaches_same_root(std_orbit_1e4):
    """The reduction fixed point does not depend on which max-decreasing swap
    is taken at each step."""
    rng = np.random.default_rng(23)
    quads = std_orbit_1e4.quads
    sample = quads[rng.choice(len(quads), size=60, replace=False)]
    for row in sample:
        cur = tuple(int(x) for x in row)
        for _ in range(10_000):
            m = max(cur)
            options = [
                apply_swap(cur, i) for i in (1, 2, 3, 4)
                if max(apply_swap(cur, i)) < m
            ]
            if not options:
                break
            cur = options[rng.integers(len(options))]
        assert cur == STANDARD


# --- the generation kernel against the per-swap reference walk ---


def _reference_walk(root, bound, *, twins=False, keep_quads=False, embedding=None,
                    region=None):
    """The former body of ``enumerate_orbit``: one masked pass over the
    frontier per swap index.  Takes validated arguments and returns the
    ``PackingOrbit`` fields as a dict, with ``twins`` replaced by
    ``edges``, the tangent pairs of kept circles: the six root pairs, and
    each child with the three entries its swap kept, by circle id."""
    from apollonian.region import branch_alive, meets

    rows0 = embedding_for_root(root) if embedding == "auto" else None
    with_rows = rows0 is not None
    track_ids = twins
    circ_curv = [np.array(root, dtype=np.int64)]
    circ_rows = [rows0] if with_rows else None
    root_in_ball = max(abs(x) for x in root) <= bound
    quad_count = 1 if root_in_ball else 0
    quads_acc = [np.array([root], dtype=np.int64)] if (keep_quads and root_in_ball) else []
    depths_acc = [np.array([0], dtype=np.int32)] if (keep_quads and root_in_ball) else []
    edge_acc = [np.array([[i, j] for i in range(4) for j in range(i + 1, 4)], dtype=np.int64)]

    frontier_q = np.array([root], dtype=np.int64)
    frontier_last = np.array([-1], dtype=np.int8)
    frontier_ids = np.array([[0, 1, 2, 3]], dtype=np.int64)
    frontier_rows = rows0[None, :, :].copy() if with_rows else None
    next_id = 4
    depth = 0
    while frontier_q.shape[0] > 0:
        depth += 1
        nq, nlast, nids, nrows = [], [], [], []
        for i in range(4):
            mask = frontier_last != i
            if not mask.any():
                continue
            q = frontier_q[mask]
            new_entry = 2 * (q.sum(axis=1) - q[:, i]) - q[:, i]
            keep = new_entry <= bound
            if not keep.any():
                continue
            child = q[keep].copy()
            child[:, i] = new_entry[keep]
            keep_idx = np.flatnonzero(keep)
            crows = None
            if with_rows:
                r = frontier_rows[mask][keep]
                crows = r.copy()
                crows[:, i, :] = 2 * r.sum(axis=1) - 3 * r[:, i, :]
            if region is not None:
                # the doubled dual circle of the swap, 2D = S - 2*C_old
                alive = branch_alive(r.sum(axis=1) - 2 * r[:, i, :], region)
                child, crows, keep_idx = child[alive], crows[alive], keep_idx[alive]
            n = child.shape[0]
            if n == 0:
                continue
            quad_count += n
            circ_curv.append(child[:, i].copy())
            if with_rows:
                circ_rows.append(crows[:, i, :].copy())
            if keep_quads:
                quads_acc.append(child)
                depths_acc.append(np.full(n, depth, dtype=np.int32))
            if track_ids:
                ids = frontier_ids[mask][keep_idx].copy()
                new_ids = np.arange(next_id, next_id + n, dtype=np.int64)
                kept_pos = [p for p in range(4) if p != i]
                e = np.empty((3 * n, 2), dtype=np.int64)
                for k, p in enumerate(kept_pos):
                    e[k * n : (k + 1) * n, 0] = ids[:, p]
                    e[k * n : (k + 1) * n, 1] = new_ids
                edge_acc.append(e)
                ids[:, i] = new_ids
                nids.append(ids)
            next_id += n
            nq.append(child)
            nlast.append(np.full(n, i, dtype=np.int8))
            if with_rows:
                nrows.append(crows)
        if not nq:
            break
        frontier_q = np.concatenate(nq)
        frontier_last = np.concatenate(nlast)
        if track_ids:
            frontier_ids = np.concatenate(nids)
        if with_rows:
            frontier_rows = np.concatenate(nrows)

    curv = np.concatenate(circ_curv)
    rows_all = np.concatenate(circ_rows) if with_rows else None
    keep_mask = np.abs(curv) <= bound
    if region is not None:
        keep_mask &= meets(rows_all, region)
    edges = None
    if track_ids:
        edges = np.concatenate(edge_acc)
        if not keep_mask.all():
            edges = edges[keep_mask[edges[:, 0]] & keep_mask[edges[:, 1]]]
            edges = (np.cumsum(keep_mask) - 1)[edges]
    return {
        "curvatures": curv[keep_mask],
        "quad_count": quad_count,
        "edges": edges,
        "quads": np.concatenate(quads_acc) if quads_acc else (np.empty((0, 4), dtype=np.int64) if keep_quads else None),
        "quad_depths": np.concatenate(depths_acc) if depths_acc else (np.empty(0, dtype=np.int32) if keep_quads else None),
        "acc_rows": rows_all[keep_mask] if with_rows else None,
        "generations": depth,
    }


def _prime_by_miller_rabin(u):
    """Bool mask over the non-negative ints ``u``: which are prime, by
    ``arithmetic.is_prime`` on each distinct value, apart from the walk's
    sieve."""
    values = np.unique(u)
    return np.isin(u, [v for v in values.tolist() if is_prime(v)])


def _twin_steps(curvatures, edges, bound):
    """pi_2 of the edges as steps: entry t counts the tangent pairs of
    circles of prime |curvature| whose larger |curvature| is t, so that
    pi_2(t) is the sum of the entries up to t."""
    u = np.abs(curvatures.astype(np.int64))
    prime = _prime_by_miller_rabin(u)
    e = edges[prime[edges[:, 0]] & prime[edges[:, 1]]]
    return np.bincount(np.maximum(u[e[:, 0]], u[e[:, 1]]), minlength=bound + 1)


def _assert_matches_reference(root, bound, **kw):
    orbit = enumerate_orbit(root, bound, **kw)
    expected = _reference_walk(root, bound, **kw)
    edges = expected.pop("edges")
    if edges is None:
        assert orbit.twins is None
    else:
        # the fold against the edges at every t: the counts per |b| agree
        assert orbit.twins.dtype == np.uint8
        u = np.abs(orbit.curvatures.astype(np.int64))
        folded = np.bincount(u, weights=orbit.twins, minlength=bound + 1)
        assert np.array_equal(folded, _twin_steps(expected["curvatures"], edges, bound)), "twins"
    for name, want in expected.items():
        got = getattr(orbit, name)
        if want is None or got is None:
            assert got is None and want is None, name
        elif isinstance(want, np.ndarray):
            # a walk without rows returns its curvatures in its lane dtype;
            # every other array has the int64 (depths int32) of the reference
            if name == "curvatures" and expected["acc_rows"] is None:
                assert got.dtype == quadruples._lane_dtype(root, bound), name
            else:
                assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name
        else:
            assert got == want, name
    if orbit.acc_rows is not None:
        assert np.array_equal(orbit.curvatures, orbit.acc_rows[:, 1])


FULL = dict(twins=True, keep_quads=True, embedding="auto")
STRIP = (0, 0, 1, 1)

# (id, root, bound, enumerate_orbit keywords)
KERNEL_CASES = [
    ("standard-2", STANDARD, 2, FULL),
    ("standard-2e4", STANDARD, 20_000, FULL),
    ("standard-1e5", STANDARD, 100_000, FULL),
    # what the exponent fit asks for: curvatures only
    ("standard-3e5", STANDARD, 300_000, {}),
    ("standard-window", STANDARD, 20_000, {**FULL, "region": (-0.2, 0.2, -0.2, 0.2)}),
    ("strip-window", STRIP, 2000, {**FULL, "region": (0.0, 2.0, 0.0, 2.0)}),
    ("strip-offset-window", STRIP, 2000, {**FULL, "region": (-0.3, 0.7, -0.1, 1.3)}),
    ("unembedded-2e4", (-2, 3, 6, 7), 20_000, FULL),
]


@pytest.mark.parametrize("root, bound, kw", [pytest.param(*case[1:], id=case[0]) for case in KERNEL_CASES])
def test_generation_kernel_matches_per_swap_walk(root, bound, kw):
    _assert_matches_reference(root, bound, **kw)


# the cases with twins, quads or rows; standard-3e5 already spans many
# pieces at the default size.  A piece costs about 0.1 ms of Python, so the
# widest orbits are cut only into the larger pieces: standard-2e4 (166,020
# quads) at 7 and 97, standard-1e5 (1,359,168) at 97
PIECE_CUTS = [
    pytest.param(piece, *case[1:], id=f"{case[0]}-piece-{piece}")
    for piece in (1, 7, 97)
    for case in KERNEL_CASES
    if case[0] != "standard-3e5"
    and (case[0], piece) not in {("standard-2e4", 1), ("standard-1e5", 1), ("standard-1e5", 7)}
]


@pytest.mark.parametrize("piece, root, bound, kw", PIECE_CUTS)
def test_pieces_cut_inside_swap_blocks_match_per_swap_walk(monkeypatch, piece, root, bound, kw):
    # pieces this small cut every wide generation, and most of its swap
    # blocks, at many places; ids, twin counts, quads, depths and region
    # pruning must not see the cuts
    monkeypatch.setattr(quadruples, "PIECE", piece)
    _assert_matches_reference(root, bound, **kw)


@given(st.sampled_from([STANDARD, (-2, 3, 6, 7)]), st.integers(min_value=1, max_value=3000))
@settings(max_examples=60, deadline=None)
def test_generation_kernel_matches_per_swap_walk_any_bound(root, bound):
    if bound < min(abs(x) for x in root):
        with pytest.raises(ValueError, match="below every root curvature"):
            enumerate_orbit(root, bound)
        return
    _assert_matches_reference(root, bound, **FULL)


# the roots of the exponent benchmark, walked as it walks them: curvatures
# only, one lane
EXPONENT_ROOTS = [STANDARD, (-2, 3, 6, 7), (-4, 5, 20, 21)]


@given(st.sampled_from(EXPONENT_ROOTS), st.integers(min_value=4, max_value=30_000))
@example(root=(-4, 5, 20, 21), bound=20)
@example(root=(-4, 5, 20, 21), bound=21)
@settings(max_examples=40, deadline=None)
def test_curvature_walk_matches_per_swap_walk_any_bound(root, bound):
    _assert_matches_reference(root, bound)


# n = 23171: (-n, n + 1, n(n + 1), n(n + 1) + 1) has 2*S = 2,147,673,652,
# past 2**31, so int32 lanes would wrap on its first generation
WIDE_ROOT = (-23171, 23172, 536_918_412, 536_918_413)
# n = 16383: its largest entry is 268,419,073 < 2**28, just inside the
# int32 limit
NARROW_ROOT = (-16383, 16384, 268_419_072, 268_419_073)


@pytest.mark.parametrize(
    "root, bound, kw, lanes",
    [
        pytest.param(WIDE_ROOT, 100_000, {}, np.int64, id="past-int32"),
        pytest.param(WIDE_ROOT, 100_000, dict(twins=True, keep_quads=True), np.int64, id="past-int32-full"),
        pytest.param(NARROW_ROOT, 100_000, dict(twins=True, keep_quads=True), np.int32, id="inside-int32"),
        pytest.param((-4, 5, 20, 21), 5000, dict(twins=True, keep_quads=True), np.int32, id="unembedded-full"),
    ],
)
def test_lane_dtype_guard_matches_per_swap_walk(root, bound, kw, lanes):
    assert descartes_form(root) == 0 and is_root(root)
    # checked before the walk: wrapped int32 sums make negative children,
    # which pass the bound, so a walk past the limit would never end
    assert quadruples._lane_dtype(root, bound) is lanes
    _assert_matches_reference(root, bound, **kw)
    # no embedding: the curvatures keep the lane dtype, quads are int64 and
    # twin counts uint8
    orbit = enumerate_orbit(root, bound, **kw)
    assert orbit.curvatures.dtype == lanes
    assert orbit.quads is None or orbit.quads.dtype == np.int64
    assert orbit.twins is None or orbit.twins.dtype == np.uint8


def test_enumerate_rejects_two_negative_curvatures():
    # is_root accepts it, but no packing has two bounding circles, and every
    # child of it is negative, so a walk would never end; the bound is below
    # every root curvature, so no walk starts even without the check
    root = (-24, -12, -1, -1)
    assert descartes_form(root) == 0 and is_root(root)
    with pytest.raises(ValueError, match="more than one negative curvature"):
        enumerate_orbit(root, 0)


def test_bound_below_a_root_circle_drops_it_and_its_twin_pairs():
    # the root circle of curvature 7 is id 1 and every child is larger, so
    # the walk keeps three circles; 7 is prime and tangent to |-2| and 3,
    # which are prime, but only the pair (|-2|, 3) is kept, counted on 3
    root = (-2, 7, 3, 6)
    _assert_matches_reference(root, 6, twins=True, keep_quads=True)
    orbit = enumerate_orbit(root, 6, twins=True, keep_quads=True)
    assert orbit.curvatures.tolist() == [-2, 3, 6]
    assert orbit.twins.tolist() == [0, 1, 0]
    assert orbit.quad_count == 0 and orbit.quads.shape == (0, 4)


# the twin fold against the reference walk's edges: the four test roots, a
# window, the strip, and roots with a circle past the bound (every child of
# such a root is larger still, so the walk keeps only root circles)
TWIN_CASES = [
    *(pytest.param(root, 20_000, None, id=str(root).replace(" ", "")) for root in TEST_ROOTS),
    pytest.param(STANDARD, 20_000, (0.1, 0.3, 0.3, 0.5), id="window"),
    pytest.param(STRIP, 2000, STRIP_WINDOW, id="strip"),
    pytest.param((-2, 7, 3, 6), 6, None, id="past-bound-(-2,7,3,6)"),
    pytest.param((-2, 3, 6, 7), 6, None, id="past-bound-(-2,3,6,7)"),
]
# the decades, and thresholds between them
TWIN_THRESHOLDS = [1, 2, 3, 6, 10, 47, 100, 555, 1000, 1999, 2000, 7777, 10_000, 19_999, 20_000]


@pytest.mark.parametrize("piece", [quadruples.PIECE, 97, 7])
@pytest.mark.parametrize("root, bound, window", TWIN_CASES)
def test_twin_fold_matches_pi2_on_the_reference_edges(monkeypatch, piece, root, bound, window):
    monkeypatch.setattr(quadruples, "PIECE", piece)
    kw = dict(twins=True, embedding="auto", region=window)
    orbit = enumerate_orbit(root, bound, **kw)
    ref = _reference_walk(root, bound, **kw)
    u = np.abs(ref["curvatures"].astype(np.int64))
    assert np.array_equal(orbit.unsigned_curvatures, u)
    prime = _prime_by_miller_rabin(u)
    i, j = ref["edges"].T
    ts = [t for t in TWIN_THRESHOLDS if t <= bound]
    for s in prime_count_curve(orbit, ts):
        below = prime & (u <= s.bound)
        assert (s.pi, s.pi2) == (np.count_nonzero(below), np.count_nonzero(below[i] & below[j])), s.bound


JOIN = quadruples._join


def faulty_join(parts):
    """``quadruples._join`` with a fault: the joined piece takes its first
    part's swap-block ends, not their sums, so a swap can repeat and give
    back its parent, and the walk cycles."""
    quads, _, flags = JOIN(parts)
    return quads, list(parts[0][1]), flags


@pytest.mark.parametrize("bound, piece", [(100, 7), (1000, 97)])
def test_area_guard_stops_a_walk_that_repeats_swaps(monkeypatch, bound, piece):
    # without the guard this walk never ends; pieces this small make
    # _cut join parts at these bounds
    monkeypatch.setattr(quadruples, "_join", faulty_join)
    monkeypatch.setattr(quadruples, "PIECE", piece)
    with pytest.raises(WalkFaultError, match=f"at most {bound**2 + 1} fit"):
        enumerate_orbit(STANDARD, bound)


@pytest.mark.parametrize("root", [*TEST_ROOTS, (-4, 5, 20, 21)])
def test_area_guard_holds_on_valid_walks(root):
    # at most (bound / a)**2 + 1 circles of curvature at most the bound fit
    # in a bounded packing; the smallest bounds come closest
    a = min(root)
    for bound in [*range(-a, 400), 10**4, 10**5]:
        assert enumerate_orbit(root, bound).circle_count <= bound**2 // a**2 + 1


def test_walk_logs_each_generation(caplog):
    caplog.set_level(logging.DEBUG, logger="apollonian")
    orbit = enumerate_orbit(STANDARD, 2000, keep_quads=True)
    records = [r for r in caplog.records if r.name == "apollonian.quadruples"]
    # the last generation is empty and ends the walk
    widths = np.bincount(orbit.quad_depths, minlength=orbit.generations + 1)
    want = [(depth, int(widths[depth]), int(widths[: depth + 1].sum())) for depth in range(1, orbit.generations + 1)]
    assert [r.args for r in records] == want
    assert all(r.levelno == logging.DEBUG for r in records)
    assert want[-1][1:] == (0, orbit.quad_count)


# tracemalloc peaks, in bytes, of the same calls on the walk that swaps its
# frontier one piece of at most 2**16 quads at a time and keeps a
# curvature-only result in int32 (numpy 2.4.6).  The walk that swapped each
# generation whole into an int64 result read 18,642,486, 57,433,712,
# 53,892,388 and 48,800,788; the one that also joined its per-generation
# pieces at the end 18,801,017 and 91,340,194 on the standard root; and the
# walk that swapped a curvature frontier and a row frontier separately
# (commit c18c4f9) 19,353,368 and 119,845,440.  The report's walk, with
# twin counts, quads and rows, read 27,290,146 while it built a tangency
# edge list from circle ids carried on the frontier; it now folds the twin
# count into the walk
BLOCK_WALK_PEAKS = {
    "rows-2e4": 18_637_589,
    "report-2e4": 18_824_128,
    "curvatures-3e5": 27_588_761,
    "curvatures-(-2,3,6,7)": 26_427_065,
    "curvatures-(-4,5,20,21)": 25_615_588,
}


@pytest.mark.parametrize(
    "case, root, bound, kw",
    [
        pytest.param("rows-2e4", STANDARD, 20_000, dict(keep_quads=True, embedding="auto"), id="rows-2e4"),
        pytest.param("report-2e4", STANDARD, 20_000, FULL, id="report-2e4"),
        # the exponent benchmark's roots at the bounds where each orbit holds
        # as many quads as the standard root's at T = 3e5
        pytest.param("curvatures-3e5", STANDARD, 300_000, {}, id="curvatures-3e5"),
        pytest.param("curvatures-(-2,3,6,7)", (-2, 3, 6, 7), 612_449, {}, id="curvatures-(-2,3,6,7)"),
        pytest.param("curvatures-(-4,5,20,21)", (-4, 5, 20, 21), 1_304_951, {}, id="curvatures-(-4,5,20,21)"),
    ],
)
def test_walk_traced_peak_stays_within_two_frontier_walk(case, root, bound, kw):
    enumerate_orbit(root, 100, **kw)  # first-use allocations
    tracemalloc.start()
    try:
        enumerate_orbit(root, bound, **kw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * BLOCK_WALK_PEAKS[case], f"{peak / 1e6:.2f} MB"


def test_walk_traced_peak_is_the_bytes_it_returns():
    # the report's walk at T = 1e5 returns 104.7 MB.  Its results grow in
    # place with at most an eighth of slack (1.125), and beside them the
    # walk holds its frontier, which late in the walk, when the results are
    # largest, is one piece of at most PIECE = 2**16 quads of 4 rows of 4
    # int64 lanes, 8.4 MB or 0.08 of the returned bytes: a peak within 1.21
    # of them, 1.25 with a margin.  The walk that joined per-generation quads
    # and depths at the end and filtered its circles through a mask read 1.47
    kw = FULL
    enumerate_orbit(STANDARD, 100, **kw)  # first-use allocations
    tracemalloc.start()
    try:
        orbit = enumerate_orbit(STANDARD, 100_000, **kw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = sum(a.nbytes for a in (orbit.curvatures, orbit.twins, orbit.quads, orbit.quad_depths, orbit.acc_rows))
    assert peak <= 1.25 * returned, f"{peak / returned:.3f}"
