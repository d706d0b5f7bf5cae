import hashlib
import math
import random
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from scl import census, currents, geometry, graphs, mcg, words
from scl.errors import ConfigError, InputError, LemmaHypothesisError, ResourceLimitError

W = words.word_from_str
DATA = Path(__file__).resolve().parent / "data"


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


def _marked(torus, name, a, b):
    # the modular torus's structure under another pair of matrices
    return geometry.SurfaceStructure(name, torus.genus, torus.cusps, (a, b),
                                     torus.peripheral_words, torus.ribbon_order)


def _times(m, n):
    (a, b), (c, d) = m
    (e, f), (g, h) = n
    return (a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h)


def _twisted(torus, k, which):
    # the re-marking b -> a^k b, or a -> b^k a for which = "a"
    a, b = torus.matrices
    for _ in range(k):
        if which == "a":
            a = _times(b, a)
        else:
            b = _times(a, b)
    return _marked(torus, f"{which}-twisted-{k}", a, b)


def _conjugates(torus):
    # by diag(2, 1/2), whose entries stay dyadic, and by diag(3, 1/3),
    # whose entries 1/9 are not
    return (_marked(torus, "dyadic", ((1, 4), (0.25, 2)), ((1, -4), (-0.25, 2))),
            _marked(torus, "diag-3", ((1, 9), (1 / 9, 2)), ((1, -9), (-1 / 9, 2))))


_RE_MARKED_ROOTS = ((-3, 3, -3), (3, -3, -3), (-3, -3, 3), (3, 3, 3))


def _re_markings(torus):
    # (-a, b), (a, -b), (-a, -b) and the swap (b, a): exact markings of the
    # same surface whose signed root traces are _RE_MARKED_ROOTS
    a, b = torus.matrices
    minus = lambda m: tuple(tuple(-x for x in row) for row in m)
    return tuple(_marked(torus, "re-marked", ma, mb)
                 for ma, mb in ((minus(a), b), (a, minus(b)), (minus(a), minus(b)), (b, a)))


def _pushed_walk(surface, limit):
    # the slope walk with every node pushed: the children of an over-limit
    # node are popped and measured by a full product and checked_length
    mats = surface._letter_matrices
    a, b = mats[1], mats[2]
    out = []
    for slope, m in (((1, 0), a), ((0, 1), b)):
        ell = geometry.checked_length(m[0] + m[3], surface, slope)
        if ell <= limit:
            out.append((slope, ell))
    measured = 2
    stack = [((1, 0), a, (0, 1), b, False), ((1, 0), a, (0, -1), mats[-2], False)]
    while stack:
        left, lm, right, rm, over = stack.pop()
        measured += 1
        slope = (left[0] + right[0], left[1] + right[1])
        m = geometry._product(lm, rm)
        ell = geometry.checked_length(m[0] + m[3], surface, slope)
        if ell <= limit:
            out.append((slope, ell))
            stack += [(left, lm, slope, m, False), (slope, m, right, rm, False)]
        elif not over:
            stack += [(left, lm, slope, m, True), (slope, m, right, rm, True)]
    out.sort(key=lambda row: (row[1], row[0]))
    return out, measured


def _measured_by_popping(rows):
    # the two roots and every popped slope: the two root edges and both
    # children of each kept slope that is not a root
    roots_kept = sum(slope in ((1, 0), (0, 1)) for slope, _ in rows)
    return 4 + 2 * (len(rows) - roots_kept)


def test_slope_walk_equals_the_pushed_walk(torus):
    # the same floats, not within a tolerance: the float walk sums a
    # trace as _product does, on the non-dyadic conjugate too; the exact
    # re-markings walk signed traces by Fricke's identity
    for surface in (torus, *_conjugates(torus), *_re_markings(torus)):
        for limit in (0.5, 2.0, 4.0, 15.0, 30.0, 60.0, 90.0, 140.0):
            rows, measured = census._slope_lengths(surface, limit)
            assert rows == _pushed_walk(surface, limit)[0]
            assert measured == _measured_by_popping(rows)


def _inverse(m):
    (a, b), (c, d) = m
    return (d, -b), (-c, a)


def _negated(m):
    return tuple(tuple(-x for x in row) for row in m)


# Nielsen moves on a pair (a, b): transvections, sign flips and the swap
_NIELSEN_MOVES = (
    lambda a, b: (_times(a, b), b), lambda a, b: (_times(a, _inverse(b)), b),
    lambda a, b: (_times(b, a), b), lambda a, b: (a, _times(b, a)),
    lambda a, b: (a, _times(b, _inverse(a))), lambda a, b: (a, _times(a, b)),
    lambda a, b: (_negated(a), b), lambda a, b: (a, _negated(b)), lambda a, b: (b, a))


def _nielsen_markings(torus, rng, count):
    # exact markings of the modular torus, each 1 to 5 random moves away
    for _ in range(count):
        a, b = torus.matrices
        for _ in range(rng.randint(1, 5)):
            a, b = rng.choice(_NIELSEN_MOVES)(a, b)
        yield _marked(torus, "nielsen", a, b)


def _fricke_tori(torus, rng, count):
    # float punctured tori with traces (x, y, z), 2 < x, y < 6 and z either
    # root of x^2 + y^2 + z^2 = xyz: a = [[x, -1], [1, 0]] and
    # b = [[0, s], [-1/s, y]], so that tr ab = s + 1/s = z
    while count:
        x, y = rng.uniform(2.0, 6.0), rng.uniform(2.0, 6.0)
        disc = (x * y) ** 2 - 4.0 * (x * x + y * y)
        if disc < 0.0:
            continue
        z = (x * y + rng.choice((-1.0, 1.0)) * math.sqrt(disc)) / 2.0
        s = (z + math.sqrt(z * z - 4.0)) / 2.0
        count -= 1
        yield _marked(torus, "fricke", ((x, -1.0), (1.0, 0.0)), ((0.0, s), (-1.0 / s, y)))


def test_the_guard_is_enough_for_the_slope_walk(torus):
    # every random marking is refused by the guard or walked to the rows
    # of the pushed walk, which measures the children of an over-limit
    # slope too; both outcomes come up for exact and float markings
    rng = random.Random(2025)
    outcomes = Counter()
    for surface in (*_nielsen_markings(torus, rng, 1500), *_fricke_tori(torus, rng, 400)):
        try:
            census._check_slope_oracle(surface, 15.0)
        except ConfigError:
            outcomes[surface.name, "refused"] += 1
            continue
        outcomes[surface.name, "walked"] += 1
        for limit in (2.0, 4.0, 8.0, 15.0):
            rows, measured = census._slope_lengths(surface, limit)
            assert rows == _pushed_walk(surface, limit)[0]
            assert measured == _measured_by_popping(rows)
    for kind in ("nielsen", "fricke"):
        assert outcomes[kind, "refused"] >= 50 and outcomes[kind, "walked"] >= 50, outcomes


def test_re_markings_with_negative_traces_give_the_torus_lengths(torus):
    # each re-marking is exact, valid and passes the guard, and its walk
    # starts from signed root traces yet finds the modular torus's lengths
    for surface, root in zip(_re_markings(torus), _RE_MARKED_ROOTS):
        assert surface.exact
        assert geometry.validate(surface) == []
        assert census._check_slope_oracle(surface, 90.0) == root
        for limit in (0.5, 2.0, 4.0, 15.0, 30.0, 90.0):
            rows, _ = census._slope_lengths(surface, limit)
            ref, _ = census._slope_lengths(torus, limit)
            assert [ell for _, ell in rows] == [ell for _, ell in ref]


def test_slope_walk_rows_are_pinned(torus):
    # sha256 of repr of the (slope, length) rows on the modular torus
    pins = {30.0: ("75c724ddbcd3d09354432205628710e569ce4b2381e838b84386385a40b92c43", 234),
            90.0: ("59062dc702e132118cab90096493df16d4f55d45e469cf4979d1cf7666a21fd8", 2202),
            140.0: ("d61baeaf3c93ce3cadacec283a8fa768a727c975104138df04ec93d5ef176fca", 5328)}
    for limit, (digest, count) in pins.items():
        rows, _ = census._slope_lengths(torus, limit)
        assert len(rows) == count
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


def test_slopes_measured_counts_the_roots_and_every_slope_popped(torus):
    # 2 roots and 4,402 popped slopes: the two root edges and both
    # children of each of the 2,200 kept slopes that are not roots
    assert census._slope_lengths(torus, 90.0)[1] == 4404
    assert census.scc_census(torus, 90.0, [90.0]).meta["slopes_measured"] == 4404
    table, _ = census.mlz_census(torus, 90.0, [4.0, 90.0])
    assert table.meta["slopes_measured"] == 4404


def test_slope_walk_stops_past_the_cap(torus, monkeypatch):
    # 234 slopes are kept at L = 30: a cap of 234 holds them, one of 50 does not.
    # Past L ~ 1420 the trace bound is inf and only the cap ends the walk
    monkeypatch.setattr(mcg, "DEFAULT_BALL_CAP", 234)
    assert census.scc_census(torus, 30.0, [30.0]).rows == ((30.0, 234),)
    monkeypatch.setattr(mcg, "DEFAULT_BALL_CAP", 50)
    for run in (census.scc_census, census.mlz_census):
        with pytest.raises(ResourceLimitError,
                           match=r"^slope walk exceeded cap of 50 slopes: kept 51, longest kept"):
            run(torus, 30.0, [30.0])


def test_only_slopes_under_the_trace_bound_take_a_length(torus, monkeypatch):
    calls = []

    def checked_length(t, surface, curve):
        calls.append(curve)
        return geometry.trace_length(t)

    monkeypatch.setattr(geometry, "checked_length", checked_length)
    rows, measured = census._slope_lengths(torus, 90.0)
    # on the modular torus the bound is tight: every slope measured by a
    # length is kept, half the slopes walked
    assert sorted(calls) == sorted(slope for slope, _ in rows)
    assert 2 * len(calls) == measured
    assert census._trace_bound(90.0) > 2 * math.cosh(45.0)
    assert census._trace_bound(1500.0) == math.inf


def test_slope_oracle_refuses_a_marking_whose_root_is_not_the_trace_minimum(torus):
    # under b -> a^5 b the walk found 1 curve of length <= 4 where there
    # are 6; the count of curves does not depend on the marking
    for which in "ab":
        for k in (2, 5, 10):
            surface = _twisted(torus, k, which)
            assert geometry.validate(surface) == []
            for run, grid in ((census.scc_classes, ()), (census.scc_census, ([4.0],)),
                              (census.mlz_census, ([4.0],))):
                with pytest.raises(ConfigError, match="local minimum"):
                    run(surface, 4.0, *grid)
        for k in (0, 1):
            surface = _twisted(torus, k, which)
            for limit in (2.0, 4.0, 8.0, 15.0):
                assert (len(census.scc_classes(surface, limit))
                        == len(census.scc_classes(torus, limit)))
    loaded = geometry.surface_from_file(str(DATA / "modular_torus.json"))
    for surface in (loaded, *_conjugates(torus)):
        assert len(census.scc_classes(surface, 15.0)) == 60


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


def test_each_census_checks_the_slope_oracle_once(torus, monkeypatch):
    # the guard returns the root triple the walk starts from, so one call
    # checks the surface and the limit; a census checks its grid first
    calls = []
    check = census._check_slope_oracle

    def counted(surface, limit):
        calls.append(limit)
        return check(surface, limit)

    monkeypatch.setattr(census, "_check_slope_oracle", counted)
    for run in (lambda: census.scc_classes(torus, 10.0),
                lambda: census.scc_census(torus, 10.0, [5.0, 10.0]),
                lambda: census.mlz_census(torus, 10.0, [5.0, 10.0])):
        calls.clear()
        run()
        assert calls == [10.0]
    # so a bad grid on a refused surface is an input error, not a config one
    calls.clear()
    refused = _twisted(torus, 5, "b")
    for run in (census.scc_census, census.mlz_census):
        with pytest.raises(InputError, match="at least one point"):
            run(refused, 4.0, [])
    assert calls == []


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


def test_fit_exponent_needs_two_abscissae():
    # three positive rows, all at one L, have no slope
    t = census.CensusTable(rows=((2.0, 1), (2.0, 2), (2.0, 3)), meta={})
    with pytest.raises(InputError, match="^window collapses to a single abscissa$"):
        census.fit_exponent(t, (1.0, 3.0))


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


def test_fiber_histogram_rejects_a_cap_hit_partial(torus):
    # a partial's fibers may be cut short by the cap
    with pytest.raises(ResourceLimitError) as info:
        mcg.orbit_ball(currents.parse_current("1:a", torus), (1, 0), 6.0, surface=torus, cap=4)
    with pytest.raises(InputError, match="^fiber statistics need a frontier-exhausted ball$"):
        census.fiber_histogram(info.value.partial)


def test_mlz_census(torus):
    table, ratios = census.mlz_census(torus, 4.0, [4.0])
    assert table.rows == ((4.0, 9),)
    assert ratios == [9 / 16]
    below, _ = census.mlz_census(torus, 1.0, [1.0])
    assert below.rows == ((1.0, 0),)


def _per_length_sum(lengths, L):
    # the count as mlz_census took it before it bisected: int(L / ell) for
    # each curve with ell <= L, the divisions mapped at C speed
    return sum(map(int, map(L.__truediv__, lengths[:bisect_right(lengths, L)])))


def test_mlz_multiples_equal_the_per_length_sum(torus):
    rng = random.Random(24)
    for surface, limit in ((torus, 4.0), (torus, 30.0), (torus, 60.0), (torus, 90.0),
                           (torus, 140.0), (_conjugates(torus)[0], 60.0)):
        lengths = [ell for _, ell in census._slope_lengths(surface, limit)[0]]
        grid = (census.make_grid(limit, 30) + census.make_grid(limit, 300)
                + [rng.uniform(0.0, limit) for _ in range(300)])
        # every multiple m * ell of the shortest lengths and its two neighbours,
        # where a quotient sits on an integer
        for ell in lengths[:200]:
            for m in range(1, int(limit / ell) + 1):
                x = m * ell
                grid += [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]
        # the rows and ratios, on the 30-point grid of the CLI among the rest
        grid = sorted(L for L in grid if L <= limit)
        table, ratios = census.mlz_census(surface, limit, grid)
        assert table.rows == tuple((L, _per_length_sum(lengths, L)) for L in grid), surface
        assert ratios == [n / (L * L) for L, n in table.rows]


def test_mlz_multiples_on_random_lengths_with_ties():
    rng = random.Random(2024)
    for _ in range(3000):
        pool = [rng.uniform(0.01, 3.0) for _ in range(rng.randint(1, 6))]
        lengths = sorted(rng.choice(pool) for _ in range(rng.randint(0, 40)))
        for L in ([rng.uniform(0.0, 40.0) for _ in range(3)]
                  + [m * rng.choice(pool) for m in (1, 2, 7)]):
            assert census._multiples(lengths, L) == _per_length_sum(lengths, L), (lengths, L)


def test_census_grid_points_must_be_positive(torus):
    h = graphs.subgroup_class([W("a")], surface=torus, rank=2)
    ball = mcg.orbit_ball(currents.RationalSubsetCurrent.of_subgroup(h),
                          (1, 0), 4.0, surface=torus)
    for table_of in (lambda grid: census.scc_census(torus, 4.0, grid),
                     lambda grid: census.mlz_census(torus, 4.0, grid)[0],
                     lambda grid: census.count_by_length(ball, grid)):
        for bad in ([0.0], [-0.0], [-1.0, 2.0], [2.0, -math.inf], [0.0, 4.0]):
            with pytest.raises(InputError, match="not positive"):
                table_of(bad)
        # a tiny positive point counts nothing
        assert table_of([1e-320, 4.0]).rows[0] == (1e-320, 0)
    # L * L underflows to 0 at L = 1e-320, so a count of 0 takes no division
    for tiny in (1e-320, 5e-324, 1e-160):
        table, ratios = census.mlz_census(torus, 4.0, [tiny, 4.0])
        assert table.rows == ((tiny, 0), (4.0, 9))
        assert ratios == [0.0, 9 / 16]


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
