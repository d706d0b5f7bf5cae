import math
from fractions import Fraction

import pytest

from scl import census, currents, geometry, graphs, mcg, words
from scl.errors import ConfigError, InputError, LemmaHypothesisError

W = words.word_from_str


def test_christoffel_words():
    assert words.word_to_str(census.christoffel_word(1, 0)) == "a"
    assert words.word_to_str(census.christoffel_word(0, 1)) == "b"
    assert words.word_to_str(census.christoffel_word(1, 1)) == "ab"
    assert words.word_to_str(census.christoffel_word(2, 1)) == "aab"
    assert words.word_to_str(census.christoffel_word(1, -1)) == "aB"
    assert words.word_to_str(census.christoffel_word(3, 2)) == "aabab"


def test_christoffel_sign_symmetry():
    for p, q in ((1, 0), (0, 1), (2, 1), (3, -2), (5, 3)):
        c1 = words.conj_class(census.christoffel_word(p, q))
        c2 = words.conj_class(census.christoffel_word(-p, -q))
        assert c1 == c2


def test_christoffel_rejects_bad_input():
    with pytest.raises(InputError):
        census.christoffel_word(0, 0)
    with pytest.raises(InputError):
        census.christoffel_word(2, 4)


def test_christoffel_words_are_primitive_and_distinct(torus):
    seen = set()
    for p in range(6):
        for q in range(-5, 6):
            if (p == 0 and q != 1) or (p > 0 and math.gcd(p, abs(q)) != 1):
                continue
            if p == 0 and q == 0:
                continue
            c = words.conj_class(census.christoffel_word(p, q))
            _, mult = words.primitive_root(c)
            assert mult == 1
            assert c not in seen
            seen.add(c)


def test_scc_census_anchors(torus):
    assert len(census.scc_classes(torus, 1.0)) == 0
    assert len(census.scc_classes(torus, 2.0)) == 3
    assert len(census.scc_classes(torus, 4.0)) == 6
    table = census.scc_census(torus, 4.0, [2.0, 4.0])
    assert table.rows == ((2.0, 3), (4.0, 6))


def test_scc_counts_match_orbit_ball(torus):
    h = graphs.subgroup_class([W("a")], surface=torus, rank=2)
    seed = currents.RationalSubsetCurrent.of_subgroup(h)
    ball = mcg.orbit_ball(seed, (1, 0), 15.0, margin=1.5, surface=torus)
    oracle = census.scc_classes(torus, 15.0)
    ball_classes = set()
    for _, _, b_key in ball.members():
        ((letters, weight),) = b_key
        assert weight == Fraction(1)
        ball_classes.add(letters)
    assert ball_classes == {c.letters for _, c, _ in oracle}


def test_scc_tree_pruning_loses_nothing(torus):
    # brute force over all coprime pairs in a box that safely contains
    # every slope of length <= 8 (word length grows with the slope height)
    limit = 8.0
    expect = set()
    for p in range(0, 31):
        for q in range(-30, 31):
            if p == 0 and q != 1:
                continue
            if p > 0 and math.gcd(p, abs(q)) != 1:
                continue
            if p == 0 and q == 0:
                continue
            c = words.conj_class(census.christoffel_word(p, q))
            if geometry.geodesic_length(c, torus) <= limit:
                expect.add(c)
    got = {c for _, c, _ in census.scc_classes(torus, limit)}
    assert got == expect


def _letterwise_scc_classes(surface, limit):
    # the same Stern-Brocot walk, measuring every node by its Christoffel
    # word's class and a letter-by-letter trace
    def measure(p, q):
        c = words.conj_class(census.christoffel_word(p, q))
        return c, geometry.geodesic_length(c, surface)

    out = []
    for p, q in ((1, 0), (0, 1)):
        c, ell = measure(p, q)
        if ell <= limit:
            out.append(((p, q), c, ell))
    stack = [((1, 0), (0, 1), False), ((1, 0), (0, -1), False)]
    while stack:
        left, right, over = stack.pop()
        p, q = left[0] + right[0], left[1] + right[1]
        c, ell = measure(p, q)
        if ell <= limit:
            out.append(((p, q), c, ell))
            stack.append((left, (p, q), False))
            stack.append(((p, q), right, False))
        elif not over:
            stack.append((left, (p, q), True))
            stack.append(((p, q), right, True))
    return sorted(out)


def test_scc_rows_are_their_christoffel_classes(torus):
    rows = census.scc_classes(torus, 40.0)
    assert rows
    for slope, c, ell in rows:
        assert c == words.conj_class(census.christoffel_word(*slope))
        assert ell == geometry.geodesic_length(c, torus)


def test_mediant_product_is_the_christoffel_holonomy(torus):
    # down to depth 12 on both branches, a node's matrix (the product of
    # its parents', smaller slope first) has the trace of its word
    mats = torus._letter_matrices
    level = [((1, 0), mats[1], (0, 1), mats[2]), ((1, 0), mats[1], (0, -1), mats[-2])]
    checked = 0
    for _ in range(12):
        nxt = []
        for left, lm, right, rm in level:
            slope = (left[0] + right[0], left[1] + right[1])
            m = geometry._product(lm, rm)
            assert m[0] + m[3] == geometry.holonomy_trace(census.christoffel_word(*slope), torus)
            checked += 1
            nxt += [(left, lm, slope, m), (slope, m, right, rm)]
        level = nxt
    assert checked == 2 * (2 ** 12 - 1)


def test_scc_classes_on_a_float_surface_match_the_letterwise_walk(torus):
    # the dyadic conjugate of the modular torus by diag(2, 1/2) takes the
    # float path; products associated in another order may move a length
    # by an ulp, never a slope or a class
    dyadic = geometry.SurfaceStructure(
        "dyadic", torus.genus, torus.cusps, (((1, 4), (0.25, 2)), ((1, -4), (-0.25, 2))),
        torus.peripheral_words, torus.ribbon_order)
    assert not dyadic.exact
    got = sorted(census.scc_classes(dyadic, 60.0))
    want = _letterwise_scc_classes(dyadic, 60.0)
    assert [row[:2] for row in got] == [row[:2] for row in want]
    for (_, _, ell), (_, _, ref) in zip(got, want):
        assert abs(ell - ref) <= 1e-12 * ref


def test_slope_oracle_needs_a_punctured_torus(torus):
    wide = geometry.SurfaceStructure("wide", 2, torus.cusps, torus.matrices * 2,
                                     torus.peripheral_words, torus.ribbon_order)
    twice = geometry.SurfaceStructure("twice-punctured", torus.genus, 2, torus.matrices,
                                      torus.peripheral_words, torus.ribbon_order)
    for surface in (wide, twice):
        for run, grid in ((census.scc_classes, ()), (census.scc_census, ([10.0],)),
                          (census.mlz_census, ([10.0],))):
            with pytest.raises(ConfigError):
                run(surface, 10.0, *grid)


def test_census_grid_is_checked_before_the_slope_walk(torus, monkeypatch):
    # a bad grid is rejected before any slope is measured, however large L
    def measured(*args):
        raise AssertionError("the slope walk ran before the grid check")

    monkeypatch.setattr(geometry, "checked_length", measured)
    with pytest.raises(InputError, match="at least one point"):
        census.scc_census(torus, 180.0, [])
    with pytest.raises(InputError, match="NaN"):
        census.mlz_census(torus, 180.0, [float("nan")])
    with pytest.raises(InputError, match="beyond limit"):
        census.scc_census(torus, 180.0, [200.0])


def test_fit_exponent_synthetic():
    quad = census.CensusTable(
        rows=tuple((L, L * L) for L in range(2, 40)), meta={})
    fit = census.fit_exponent(quad, (2, 40))
    assert abs(fit.slope - 2.0) <= 1e-9
    assert fit.r2 >= 1.0 - 1e-12
    lin = census.CensusTable(rows=tuple((L, L) for L in range(2, 40)), meta={})
    assert abs(census.fit_exponent(lin, (2, 40)).slope - 1.0) <= 1e-9


def test_fit_exponent_needs_rows():
    t = census.CensusTable(rows=((1.0, 1), (2.0, 4)), meta={})
    with pytest.raises(InputError):
        census.fit_exponent(t, (0.5, 3.0))


def test_count_by_length_grid_guard(torus):
    h = graphs.subgroup_class([W("a")], surface=torus, rank=2)
    ball = mcg.orbit_ball(currents.RationalSubsetCurrent.of_subgroup(h),
                          (1, 0), 4.0, surface=torus)
    for bad in ([2.0, 8.0], [math.nan], [2.0, math.nan], [8.0, math.nan]):
        with pytest.raises(InputError):
            census.count_by_length(ball, bad)
    table = census.count_by_length(ball, [1.0, 2.0, 4.0])
    assert table.rows == ((1.0, 0), (2.0, 3), (4.0, 6))
    assert table.meta["exponent"] == 2


def test_fiber_histogram_cyclic_ball(torus):
    h = graphs.subgroup_class([W("a")], surface=torus, rank=2)
    ball = mcg.orbit_ball(currents.RationalSubsetCurrent.of_subgroup(h),
                          (1, 0), 6.0, surface=torus)
    hist = census.fiber_histogram(ball)
    assert set(hist) == {1}
    assert hist[1] == ball.count_leq(6.0)


def test_fiber_histogram_rejects_zero_seed(torus):
    cover = graphs.subgroup_class([W("a"), W("bb"), W("baB")], surface=torus)
    ball = mcg.orbit_ball(currents.RationalSubsetCurrent.of_subgroup(cover),
                          (1, 0), 5.0, surface=torus)
    with pytest.raises(LemmaHypothesisError):
        census.fiber_histogram(ball)


def test_mlz_census(torus):
    table, ratios = census.mlz_census(torus, 4.0, [4.0])
    assert table.rows == ((4.0, 9),)
    assert ratios == [9 / 16]
    below, _ = census.mlz_census(torus, 1.0, [1.0])
    assert below.rows == ((1.0, 0),)


def test_mlz_counts_dominate_scc(torus):
    scc = census.scc_census(torus, 12.0, [6.0, 12.0])
    mlz, _ = census.mlz_census(torus, 12.0, [6.0, 12.0])
    for (_, a), (_, b) in zip(scc.rows, mlz.rows):
        assert b >= a


def test_make_grid(torus):
    assert census.make_grid(30.0, 3) == [10.0, 20.0, 30.0]
    # 20.3 * 13 / 13 rounds to 20.300000000000004, beyond the limit
    assert census.make_grid(20.3, 13)[-1] == 20.3
    assert census.make_grid(0.1, 3)[-1] == 0.1
    assert census.make_grid(1e308, 2) == [5e307, 1e308]
    with pytest.raises(InputError, match="overflows"):
        census.make_grid(1e308, 3)
    with pytest.raises(InputError):
        census.make_grid(0.0, 3)
    # a non-finite limit gives NaN rows or a Stern-Brocot walk that never ends
    for bad in (math.nan, math.inf):
        with pytest.raises(InputError):
            census.make_grid(bad, 3)
        with pytest.raises(InputError):
            census.scc_classes(torus, bad)
    # an empty grid has no last point to hold against the limit, and a NaN
    # point sorts anywhere, so a point beyond the limit can hide behind it
    for run in (census.scc_census, census.mlz_census):
        for bad in ([], [100.0, math.nan], [math.nan], [5.0, math.nan]):
            with pytest.raises(InputError):
                run(torus, 10.0, bad)
