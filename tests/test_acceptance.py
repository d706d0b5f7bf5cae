"""Acceptance suite.

Each criterion is one test that prints a single verdict line (visible
with ``pytest -s``; the per-test PASSED/FAILED line of ``pytest -v``
carries the same information).  All tolerances are asserted; the stated
time budgets are printed for inspection.
"""

import hashlib
import math
import random
import time
from fractions import Fraction

import pytest

from scl import census, cli, currents, geometry, graphs, mcg, ribbon, words
from conftest import (
    hall_count,
    random_mapping_class,
    random_multicurve,
    random_subgroup_class,
)

W = words.word_from_str

BIG_BALL_L = 140.0
BIG_BALL_MIN_ELEMENTS = 10_000


def _verdict(num, ok, detail, t0):
    line = "[criterion %2d] %s %s (%.2fs)" % (num, "PASS" if ok else "FAIL",
                                              detail, time.time() - t0)
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def big_ball(torus):
    h = graphs.subgroup_class([W("aa"), W("b")], surface=torus, rank=2)
    seed = currents.RationalSubsetCurrent.of_subgroup(h)
    return mcg.orbit_ball(seed, (1, 0), BIG_BALL_L, margin=1.5, surface=torus)


def test_criterion_01_paper_example(torus):
    t0 = time.time()
    ok, checks = cli.verify_example(torus)
    _verdict(1, ok and time.time() - t0 < 1.0,
             "worked example: " + ", ".join(k for k, v in checks.items() if v), t0)


def test_criterion_02_ribbon_sanity(torus):
    t0 = time.time()
    rng = random.Random(92)
    n_cyclic = 0
    for i in range(1000):
        h = random_subgroup_class(rng, torus, max_rank=4, max_len=12,
                                  cyclic_ok=(i % 5 == 0))
        g = graphs.from_key(h.key)
        cycles = ribbon.boundary_cycles(g, torus.ribbon_order)
        assert sum(len(c) for c in cycles) == 2 * len(g.edges)
        rep = ribbon.classify_boundary(g, torus)
        assert rep.genus >= 0
        if h.rank == 1:
            n_cyclic += 1
            assert len(cycles) == 2
            assert words.conj_class(cycles[0]) == words.conj_class(cycles[1])
    assert n_cyclic >= 50
    n_covers = 0
    for k in (1, 2, 3, 4):
        for g in graphs.subgroups_of_index(2, k):
            n_covers += 1
            rep = ribbon.classify_boundary(g, torus)
            assert not rep.geodesic_cycles
            assert sum(p for _, _, p in rep.cusp_cycles) == k * torus.cusps
            h = graphs.subgroup_class(g, surface=torus)
            assert currents.subgroup_boundary(h, torus).is_zero()
    _verdict(2, True,
             f"1000 random subgroups ({n_cyclic} cyclic) + {n_covers} covers", t0)


def test_criterion_03_projection_fixes_multicurves(torus):
    t0 = time.time()
    rng = random.Random(93)
    for _ in range(100):
        mc = random_multicurve(rng, torus)
        as_current = currents.RationalSubsetCurrent.from_terms(
            (graphs.subgroup_class([c.letters], surface=torus, rank=2), w)
            for c, w in mc.items)
        assert currents.boundary_projection(as_current, torus) == mc
    _verdict(3, True, "100 random multicurves fixed exactly", t0)


def test_criterion_04_scaling_laws(torus):
    t0 = time.time()
    rng = random.Random(94)
    checked = 0
    while checked < 50:
        h = random_subgroup_class(rng, torus, max_rank=3, max_len=8)
        k = rng.randint(2, 4)
        if h.rank >= 3 and k == 4:
            k = rng.randint(2, 3)
        base_eta = currents.RationalSubsetCurrent.of_subgroup(h)
        base_b = currents.boundary_projection(base_eta, torus)
        base_lsc = currents.length_sc(base_eta, torus)
        covers = graphs.finite_index_subgroups(h, k)
        cover = covers[rng.randrange(len(covers))]
        eta = currents.RationalSubsetCurrent.of_subgroup(cover)
        assert currents.boundary_projection(eta, torus) == base_b.scale(k)
        assert cover.euler_char == k * h.euler_char
        lsc = currents.length_sc(eta, torus)
        assert abs(lsc - k * base_lsc) <= 1e-6 * max(k * base_lsc, 1e-12)
        checked += 1
    _verdict(4, True, "50 random covers: B, chi exact; lsc within 1e-6", t0)


def test_criterion_05_equivariance_and_area_invariance(torus):
    t0 = time.time()
    rng = random.Random(95)
    for _ in range(200):
        phi = random_mapping_class(rng, torus, 6)
        h = random_subgroup_class(rng, torus, max_rank=3, max_len=8)
        eta = currents.RationalSubsetCurrent.of_subgroup(
            h, Fraction(rng.randint(1, 5), rng.randint(1, 5)))
        acted = mcg.act_on_current(phi, eta, torus)
        assert currents.boundary_projection(acted, torus) == \
            mcg.act_on_multicurve(phi, currents.boundary_projection(eta, torus))
        assert currents.euler_char(acted) == currents.euler_char(eta)
    _verdict(5, True, "200 random (phi, H): equivariance + area exact", t0)


def test_criterion_06_hall_counts():
    t0 = time.time()
    assert len(graphs.subgroups_of_index(2, 2)) == 3
    assert len(graphs.subgroups_of_index(2, 3)) == 13
    for rank in (1, 2, 3):
        for k in range(1, 6):
            assert len(graphs.subgroups_of_index(rank, k)) == hall_count(rank, k)
    _verdict(6, True, "low-index counts match the transitive-action recursion", t0)


def test_criterion_07_curve_counting(torus):
    t0 = time.time()
    oracle = census.scc_classes(torus, 30.0)
    lengths = sorted(l for _, _, l in oracle)
    assert sum(1 for l in lengths if l <= 2.0) == 3
    assert sum(1 for l in lengths if l <= 4.0) == 6

    grid = [10.0 + 20.0 * i / 3 for i in range(4)]
    table = census.scc_census(torus, 30.0, grid)
    fit = census.fit_exponent(table, (10.0, 30.0))
    assert 1.85 <= fit.slope <= 2.15
    assert fit.r2 >= 0.999

    h = graphs.subgroup_class([W("a")], surface=torus, rank=2)
    ball = mcg.orbit_ball(currents.RationalSubsetCurrent.of_subgroup(h),
                          (1, 0), 15.0, margin=1.5, surface=torus)
    assert ball.frontier_exhausted
    ball_rows = ball.members()
    ball_classes = {b[0][0] for _, _, b in ball_rows}
    oracle15 = [(c, l) for _, c, l in oracle if l <= 15.0]
    assert ball_classes == {c.letters for c, _ in oracle15}
    oracle_lengths = {c.letters: l for c, l in oracle15}
    for _, value, b in ball_rows:
        assert value == pytest.approx(oracle_lengths[b[0][0]], rel=1e-12)
    _verdict(7, True,
             "slope %.3f r2 %.5f; ball = oracle at L<=15 (%d classes)" %
             (fit.slope, fit.r2, len(ball_classes)), t0)


def test_criterion_08_subgroup_counting(torus, big_ball):
    t0 = time.time()
    n = big_ball.count_leq(BIG_BALL_L)
    assert n >= BIG_BALL_MIN_ELEMENTS
    assert big_ball.frontier_exhausted
    grid = census.make_grid(BIG_BALL_L, 28)
    table = census.count_by_length(big_ball, grid)
    fit = census.fit_exponent(table, (40.0, BIG_BALL_L))
    assert 1.7 <= fit.slope <= 2.3
    hist = census.fiber_histogram(big_ball)
    assert len(hist) == 1
    fiber_size = next(iter(hist))
    _verdict(8, True,
             "ball %d elements, slope %.3f (r2 %.5f), constant fiber size %d" %
             (n, fit.slope, fit.r2, fiber_size), t0)


def test_big_ball_is_pinned(big_ball):
    # criterion 8's ball, member for member: any change of key, weight or
    # value float in the curve walk or the lift moves this digest
    digest = hashlib.sha256(repr((big_ball.members(), big_ball.frontier_exhausted)).encode())
    assert digest.hexdigest() == \
        "888aa7693f9d4a69fd5b279160241d33906d1184482b251d8baa72610ed98f46"
    counts = tuple(big_ball.stats[name] for name in ("seen", "explored", "members"))
    assert counts == (47304, 23652, 10440)


def test_headline_census_is_the_curve_oracle(torus, big_ball):
    """Criterion 8's ball of <aa, b> is the slope oracle's, value for value.

    The boundary image of <aa, b> is half the curve gamma = aabAAB =
    a^2 (bAB)^2.  Cutting the torus along the simple curve a leaves a pair
    of pants whose group is free on a and bAB = b a^-1 b^-1 (the two sides
    of a; the cusp is the third boundary), so gamma lies in the pants
    group and fills the pants.  The twist about a fixes a and bAB, hence
    gamma, and a mapping class that fixes gamma fixes the one simple curve
    it misses, a: Stab(gamma) = Stab(a).  The mapping class group acts
    transitively on the simple closed curves (Farb and Margalit, A Primer
    on Mapping Class Groups, 2012), so phi(a) -> phi(gamma) is a bijection
    from the simple curves alpha onto the orbit of gamma.

    With x = tr a, y = tr b, z = tr ab, Fricke's identities (Goldman,
    Trace coordinates on Fricke spaces of some simple hyperbolic surfaces,
    2009) give
    tr [a^2, b] = 2 - 4x^2 + x^2 (x^2 + y^2 + z^2 - xyz), and the cusp makes
    tr [a, b] = x^2 + y^2 + z^2 - xyz - 2 = -2, so tr gamma = 2 - 4x^2.  The
    same holds for phi(a), phi(b): gamma_alpha has |trace| 4x^2 - 2 with
    x = |tr alpha|, and its lsc value, half its length, is
    arccosh(2x^2 - 1) = 2 arccosh(x).  Each boundary image carries a fiber
    of two subgroups, so each value is taken twice.

    x is the exact integer trace of the slope's Christoffel word.  A curve
    of value at most L has length 2 arccosh(x / 2) < L, so the slope walk
    to L finds every one.
    """
    assert geometry.holonomy_trace(W("aabAAB"), torus) == 2 - 4 * 3 ** 2
    predicted = []
    for slope, _ in census._slope_lengths(torus, BIG_BALL_L)[0]:
        x = abs(geometry.holonomy_trace(census.christoffel_word(*slope), torus))
        value = 2 * math.acosh(x)
        if value <= BIG_BALL_L:
            predicted += [value, value]
    predicted.sort()
    got = big_ball.member_values()
    assert len(got) == len(predicted) == 10440
    assert all(abs(v - p) <= 1e-12 * p for v, p in zip(got, predicted))


def _swap_counts(torus, seed_text, limit):
    seed = currents.parse_current(seed_text, torus)
    shift = currents.area(seed)[0]
    ball_la = mcg.orbit_ball(seed, (1, 1), limit, margin=1.5, surface=torus)
    ball_lsc = mcg.orbit_ball(seed, (1, 0), limit, margin=1.5, surface=torus)
    assert ball_la.frontier_exhausted and ball_lsc.frontier_exhausted
    grid = [limit * (i - 0.63) / 10 for i in range(1, 11)]  # strictly inside the cutoff
    la_values = ball_la.member_values()
    lsc_values = ball_lsc.member_values()
    for L in grid:
        sep_a = min((abs(v - L) for v in la_values), default=1.0)
        sep_b = min((abs(v - (L - shift)) for v in lsc_values), default=1.0)
        assert min(sep_a, sep_b) > 1e-6, "grid point sits on an orbit value"
    rows_la = [sum(1 for v in la_values if v <= L) for L in grid]
    rows_lsc = [sum(1 for v in lsc_values if v <= L - shift) for L in grid]
    return rows_la, rows_lsc


def test_criterion_09_functional_swap(torus):
    t0 = time.time()
    for seed_text, limit in (("1:a", 14.0), ("1:aa,b", 26.0)):
        rows_la, rows_lsc = _swap_counts(torus, seed_text, limit)
        assert rows_la == rows_lsc
    _verdict(9, True, "N_la(L) = N_lsc(L - Area) row-by-row, two seeds", t0)


def test_criterion_10_thurston_skeleton(torus):
    t0 = time.time()
    table, ratios = census.mlz_census(torus, 60.0, [4.0, 30.0, 60.0])
    assert table.rows[0] == (4.0, 9)
    r30, r60 = ratios[1], ratios[2]
    drift = abs(r60 - r30) / r30
    assert drift < 0.05
    _verdict(10, True,
             "N(4)=9; N(L)/L^2 drift over last doubling %.2f%% (%.4f -> %.4f)" %
             (100 * drift, r30, r60), t0)
