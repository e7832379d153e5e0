import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apollonian.quadruples import (
    SWAP_MATRICES,
    NotDescartesError,
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


def test_enumerate_unbounded_needs_region_or_depth():
    with pytest.raises(ValueError):
        enumerate_orbit((0, 0, 1, 1), 10)
    orb = enumerate_orbit((0, 0, 1, 1), 10, max_depth=3)
    assert orb.circle_count > 0


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
    orb = enumerate_orbit(STANDARD, 6, tangency=True, keep_quads=True)
    assert orb.edges is not None
    # every edge pair must co-occur in a quadruple of matching curvatures
    curv = orb.curvatures
    quads = {tuple(sorted(abs(int(x)) for x in row)) for row in orb.quads}
    for a, b in orb.edges:
        ca, cb = abs(int(curv[a])), abs(int(curv[b]))
        assert any(ca in q and cb in q for q in quads)
    # at T=3 the two curvature-3 circles are not tangent to each other
    orb3 = enumerate_orbit(STANDARD, 3, tangency=True)
    pairs = {
        tuple(sorted((abs(int(orb3.curvatures[a])), abs(int(orb3.curvatures[b])))))
        for a, b in orb3.edges
    }
    assert (3, 3) not in pairs
    assert len(orb3.edges) == 9


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
]


def _assert_writers_match_reference(tmp_path, root, bound, window):
    orbit = enumerate_orbit(root, bound, keep_quads=True, embedding="auto", region=window)
    dump, circles = _per_row_outputs(orbit)
    assert write_orbit_dump(orbit, tmp_path / "orbit.txt") == orbit.quad_count
    write_circles(orbit, tmp_path / "circles.csv")
    assert (tmp_path / "orbit.txt").read_bytes() == dump.encode("ascii")
    assert (tmp_path / "circles.csv").read_bytes() == circles.encode("ascii")
    return orbit


@pytest.mark.parametrize("rows_per_chunk", [quadruples.ROWS_PER_CHUNK, 97])
@pytest.mark.parametrize("root, bound, window", WRITER_CASES)
def test_writers_match_per_row_reference(tmp_path, monkeypatch, root, bound, window, rows_per_chunk):
    monkeypatch.setattr(quadruples, "ROWS_PER_CHUNK", rows_per_chunk)
    _assert_writers_match_reference(tmp_path, root, bound, window)


def test_writers_match_per_row_reference_across_chunks(tmp_path):
    orbit = _assert_writers_match_reference(tmp_path, STANDARD, 20000, None)
    assert orbit.circle_count > 2 * quadruples.ROWS_PER_CHUNK


def test_embedding_lookup():
    assert embedding_for_root((-1, 2, 2, 3)) is not None
    assert embedding_for_root((0, 0, 1, 1)) is not None
    assert embedding_for_root((-2, 3, 6, 7)) is None


def test_bound_cap_guard():
    from apollonian.quadruples import OverflowBoundError

    with pytest.raises(OverflowBoundError):
        enumerate_orbit(STANDARD, 10**9)


def test_duplicate_vectors_are_distinct_circles(std_orbit_1e4):
    from apollonian.quadruples import verify_distinct_circles

    # the standard root is fixed by swap 4, so curvature vectors repeat...
    quads = std_orbit_1e4.quads
    uniq = np.unique(quads, axis=0)
    assert uniq.shape[0] < quads.shape[0]
    # ...but every word still creates a geometrically new circle
    assert verify_distinct_circles(std_orbit_1e4)


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
