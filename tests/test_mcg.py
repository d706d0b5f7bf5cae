import hashlib
import math
import time
from collections import deque
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from scl import currents, geometry, graphs, mcg, words
from scl.errors import (
    ConfigError,
    InputError,
    InternalConsistencyError,
    ParabolicError,
    PeripheralSubgroupError,
    ResourceLimitError,
)
from conftest import (
    random_mapping_class,
    random_multicurve,
    random_reduced_word,
    random_subgroup_class,
)

W = words.word_from_str


@pytest.fixture(scope="module")
def twists(torus):
    return {t.label: t for t in mcg.twist_generators(torus)}


def seed_of(torus, *gens):
    h = graphs.subgroup_class([W(g) for g in gens], surface=torus, rank=2)
    return currents.RationalSubsetCurrent.of_subgroup(h)


def test_twist_generators_act_as_expected(twists):
    ta = twists["ta"]
    assert words.word_to_str(words.apply(ta, W("b"))) == "ab"
    tb = twists["tb"]
    assert words.apply(tb, W("abAB")) == W("abAB")


def test_twist_abelianizations(twists):
    def abelianized(phi):
        # column j = exponent vector of the image of generator j
        cols = []
        for im in phi.images:
            cols.append((sum(1 if l == 1 else -1 for l in im if abs(l) == 1),
                         sum(1 if l == 2 else -1 for l in im if abs(l) == 2)))
        return ((cols[0][0], cols[1][0]), (cols[0][1], cols[1][1]))

    got = {abelianized(twists["ta"]), abelianized(twists["tb"])}
    # the standard unipotent shears, which generate SL(2, Z)
    assert got == {((1, 1), (0, 1)), ((1, 0), (1, 1))}
    for m in got:
        assert m[0][0] * m[1][1] - m[0][1] * m[1][0] == 1


def test_twist_inverses_compose_to_identity(twists, rng):
    for name in ("ta", "tb"):
        phi = words.compose(twists[name], twists[name + "'"])
        for _ in range(20):
            w = words.reduce([rng.choice([1, -1, 2, -2]) for _ in range(10)])
            assert words.apply(phi, w) == w


def test_mapping_class_rejects_non_surjective(torus):
    with pytest.raises(InputError):
        mcg.mapping_class([W("a"), W("a")], torus)
    with pytest.raises(InputError):
        mcg.mapping_class([W("aa"), W("b")], torus)


def test_mapping_class_needs_one_image_per_generator_and_keeps_the_cusps(torus):
    with pytest.raises(InputError, match="^need 2 generator images, got 1$"):
        mcg.mapping_class([W("a")], torus)
    # a -> ab is onto, but sends the cusp a of a four-punctured sphere to a
    # non-peripheral class; mapping_class reads only the rank and the cusps
    sphere = geometry.SurfaceStructure(
        name="four-punctured", genus=0, cusps=4, matrices=(((1, 0), (0, 1)),) * 3,
        peripheral_words=tuple(map(W, ("a", "b", "c", "CBA"))),
        ribbon_order=((0, 1), (0, -1), (1, 1), (1, -1), (2, 1), (2, -1)))
    with pytest.raises(InputError, match="^automorphism does not preserve the cusp set$"):
        mcg.mapping_class([W("ab"), W("b"), W("c")], sphere)


def test_mapping_class_refuses_orientation_reversing_automorphisms(torus):
    # the swap a <-> b sends the cusp abAB to baBA, its inverse; so do the
    # reflections a -> A and b -> B.  Each reverses the surface's orientation
    for images in (("b", "a"), ("A", "b"), ("a", "B"), ("B", "A")):
        with pytest.raises(InputError, match="^automorphism does not preserve the cusp set$"):
            mcg.mapping_class(list(map(W, images)), torus)
    # a -> A, b -> B is the hyperelliptic involution, which keeps it; so
    # does each built-in twist, which twist_generators passes through
    # mapping_class (the CLI tests configure the same four images)
    assert mcg.mapping_class([W("A"), W("B")], torus).images == (W("A"), W("B"))
    assert [t.label for t in mcg.twist_generators(torus)] == ["ta", "ta'", "tb", "tb'"]


def test_twist_generators_need_config(torus):
    wide = torus.__class__(
        name="wide", genus=2, cusps=1, matrices=torus.matrices * 2,
        peripheral_words=torus.peripheral_words,
        ribbon_order=torus.ribbon_order)
    with pytest.raises(ConfigError):
        mcg.twist_generators(wide)


def test_act_on_subgroup_examples(torus, twists):
    ta = twists["ta"]
    ha = graphs.subgroup_class([W("a")], surface=torus, rank=2)
    assert mcg.act_on_subgroup(ta, ha, torus) == ha
    hb = graphs.subgroup_class([W("b")], surface=torus, rank=2)
    hab = graphs.subgroup_class([W("ab")], surface=torus, rank=2)
    assert mcg.act_on_subgroup(ta, hb, torus) == hab


def test_act_on_paper_subgroup(torus, twists):
    h = graphs.subgroup_class(
        [W(w) for w in ("aaaa", "ab", "bb", "aaba", "aaBa")], surface=torus)
    listed = graphs.subgroup_class(
        [W(w) for w in ("aaaa", "aab", "abab", "aaaba", "aaB")], surface=torus)
    acted = mcg.act_on_subgroup(twists["ta"], h, torus)
    assert acted == listed
    assert acted != h
    assert graphs.index(graphs.from_key(acted.key)) == 4


def _reference_action(phi, h, torus):
    """The action read off a free basis: map each basis word and refold."""
    gens = graphs.spanning_generators(graphs.from_key(h.key))
    return graphs.subgroup_class([words.apply(phi, w) for w in gens], surface=torus, rank=2)


def _random_action_source(rng, torus, kind):
    """A subgroup class of the given kind, built from a random generator list."""
    while True:
        if kind == "cyclic":
            gens = [random_reduced_word(rng, 2, 10)]
        elif kind == "finite-index":
            covers = graphs.subgroups_of_index(2, rng.randint(2, 4))
            return graphs.subgroup_class(covers[rng.randrange(len(covers))], surface=torus)
        else:
            u = random_reduced_word(rng, 2, 6)
            gens = [words.concat(u, random_reduced_word(rng, 2, 8), words.inverse(u))
                    for _ in range(rng.randint(1, 3))]
        try:
            return graphs.subgroup_class(gens, surface=torus, rank=2)
        except PeripheralSubgroupError:
            continue


def test_act_on_subgroup_matches_basis_action(rng, torus):
    kinds = ("cyclic", "finite-index", "conjugated", "random")
    for i in range(520):
        kind = kinds[i % len(kinds)]
        if kind == "random":
            h = random_subgroup_class(rng, torus, max_rank=3, max_len=8)
        else:
            h = _random_action_source(rng, torus, kind)
        phi = random_mapping_class(rng, torus, 5)
        assert mcg.act_on_subgroup(phi, h, torus).key == _reference_action(phi, h, torus).key


def test_act_on_multicurve(torus, twists):
    ta = twists["ta"]
    mc = currents.Multicurve.from_terms({words.conj_class(W("a")): 1}.items())
    assert mcg.act_on_multicurve(ta, mc) == mc
    mb = currents.Multicurve.from_terms({words.conj_class(W("b")): Fraction(3, 2)}.items())
    expect = currents.Multicurve.from_terms({words.conj_class(W("ab")): Fraction(3, 2)}.items())
    assert mcg.act_on_multicurve(ta, mb) == expect


def test_action_laws(rng, torus):
    ident = words.identity_automorphism(torus.rank)
    for _ in range(25):
        phi = random_mapping_class(rng, torus, 4)
        psi = random_mapping_class(rng, torus, 4)
        h = random_subgroup_class(rng, torus, max_rank=3, max_len=8)
        assert mcg.act_on_subgroup(ident, h, torus) == h
        assert mcg.act_on_subgroup(words.compose(phi, psi), h, torus) == \
            mcg.act_on_subgroup(phi, mcg.act_on_subgroup(psi, h, torus), torus)


def test_equivariance_and_area_invariance(rng, torus):
    for _ in range(30):
        phi = random_mapping_class(rng, torus, 6)
        h = random_subgroup_class(rng, torus, max_rank=3, max_len=8)
        eta = currents.RationalSubsetCurrent.of_subgroup(h, Fraction(2, 3))
        acted = mcg.act_on_current(phi, eta, torus)
        left = currents.boundary_projection(acted, torus)
        right = mcg.act_on_multicurve(phi, currents.boundary_projection(eta, torus))
        assert left == right
        assert currents.euler_char(acted) == currents.euler_char(eta)


def test_act_on_multicurve_returns_canonical_classes(rng, torus):
    # the image kernel leaves each image cyclically reduced in no fixed
    # rotation; act_on_multicurve canonicalizes it
    for _ in range(50):
        mc = random_multicurve(rng, torus)
        phi = random_mapping_class(rng, torus, 5)
        want = currents.Multicurve.from_terms(
            (words.conj_class(words.apply(phi, c.letters)), w) for c, w in mc.items)
        assert mcg.act_on_multicurve(phi, mc) == want


def test_action_preserves_primitivity(rng, torus):
    for _ in range(50):
        mc = random_multicurve(rng, torus)
        phi = random_mapping_class(rng, torus, 5)
        for c, _ in mcg.act_on_multicurve(phi, mc).items:
            _, mult = words.primitive_root(c)
            assert mult == 1


def test_orbit_ball_systoles(torus):
    ball = mcg.orbit_ball(seed_of(torus, "a"), (1, 0), 2.0, surface=torus)
    rows = ball.members()
    assert len(rows) == 3
    got = {b for _, _, b in rows}
    expect = {((words.conj_class(W(w)).letters, Fraction(1)),) for w in ("a", "b", "ab")}
    assert got == expect


def test_orbit_ball_depth_two(torus):
    ball = mcg.orbit_ball(seed_of(torus, "a"), (1, 0), 4.0, surface=torus)
    assert ball.count_leq(4.0) == 6
    assert ball.count_leq(2.0) == 3


def test_orbit_ball_finite_index_seed(torus):
    seed = seed_of(torus, "a", "bb", "baB")
    for L in (1.0, 5.0, 40.0):
        ball = mcg.orbit_ball(seed, (1, 0), L, surface=torus)
        assert len(ball.members()) == 3
        assert ball.frontier_exhausted


def test_orbit_ball_monotone_and_margin_stable(torus):
    seed = seed_of(torus, "aa", "b")
    small = mcg.orbit_ball(seed, (1, 0), 12.0, surface=torus)
    large = mcg.orbit_ball(seed, (1, 0), 20.0, surface=torus)
    small_keys = {k for k, _, _ in small.members()}
    large_keys_at_12 = {k for k, _, _ in large.members(12.0)}
    assert small_keys <= {k for k, _, _ in large.members()}
    assert small_keys == large_keys_at_12
    wider = mcg.orbit_ball(seed, (1, 0), 12.0, margin=2.0, surface=torus)
    assert small_keys == {k for k, _, _ in wider.members()}


def test_orbit_ball_cap_carries_partial(torus):
    # seed <a> (value 1.92) and <aa,b> (value 3.53) with a cap hit inside the
    # walk that finds the seed's fiber, at cutoff the seed's value, and
    # <aa,b> with one inside the curve walk, at cutoff L, whose frontier of
    # 10 curves is 20 elements, two over each
    for gens, L, cap, in_fiber_walk, frontier in (
            (("a",), 6.0, 4, True, 1), (("aa", "b"), 30.0, 3, True, 3),
            (("aa", "b"), 30.0, 40, False, 20)):
        seed = seed_of(torus, *gens)
        with pytest.raises(ResourceLimitError) as info:
            mcg.orbit_ball(seed, (1, 0), L, surface=torus, cap=cap)
        partial = info.value.partial
        assert partial is not None
        assert partial.cutoff == L
        assert not partial.frontier_exhausted
        assert len(partial.elements) > cap
        assert partial.stats["seen"] == len(partial.elements)
        # the message is read off the partial: seen, explored, largest
        # explored, each against the bound of the walk that hit the cap, and
        # names the frontier that walk left
        cutoff = currents.evaluate((1, 0), seed.terms, torus)[0] if in_fiber_walk else L
        explored = [v for v, _ in partial.elements.values() if v <= partial.margin * cutoff]
        assert partial.stats["explored"] == len(explored)
        top = max(explored)
        assert str(info.value) == (
            f"orbit ball exceeded cap of {cap} elements: seen {partial.stats['seen']}, "
            f"explored {partial.stats['explored']}, frontier {frontier}, "
            f"largest value explored {top:.6g}")


def test_a_cap_hit_in_the_fiber_walk_counts_against_that_walks_bound(torus):
    # the walk that finds F0 explores up to 1.5 * 4.48792 = 6.73188, the
    # seed's value with the margin, not up to 1.5 * L = 45
    seed = currents.parse_current("1:aa,b;1/2:a", torus)
    with pytest.raises(ResourceLimitError) as info:
        mcg.orbit_ball(seed, (1, 0), 30.0, surface=torus, cap=10)
    assert str(info.value) == ("orbit ball exceeded cap of 10 elements: seen 11, "
                               "explored 9, frontier 5, largest value explored 6.71852")
    assert info.value.partial.stats["explored"] == 9


def test_a_capped_walk_returns_its_queue():
    # the integers under x + 1 and x - 1, each the other's inverse, valued
    # |x|: 0 yields 1 and -1, 1 yields 2, -1 yields -2, and 2 yields 3, the
    # sixth node seen, which stops the walk with [-2, 3] queued
    def walk(bound, cap):
        return mcg._walk(0, (0,), lambda i, x: x + 1 - 2 * i, lambda y: (abs(y),),
                         bound, cap, [1, 0])

    records, tree, frontier = walk(100, 5)
    assert (list(records), frontier) == ([0, 1, -1, 2, -2, 3], 2)
    assert tree[3] == (2, 0)
    # 3 lies outside the bound, so it is seen and not queued
    assert walk(2, 5)[2] == 1
    records, _, frontier = walk(2, 100)
    assert (sorted(records), frontier) == (list(range(-3, 4)), None)


def test_orbit_ball_rejects_a_cap_below_one(torus):
    for cap in (0, -3):
        with pytest.raises(InputError, match="cap"):
            mcg.orbit_ball(seed_of(torus, "a"), (1, 0), 6.0, surface=torus, cap=cap)


def test_orbit_ball_input_guards(torus):
    seed = seed_of(torus, "a")
    with pytest.raises(InputError):
        mcg.orbit_ball(seed, (0, 0), 2.0, surface=torus)
    with pytest.raises(InputError):
        mcg.orbit_ball(seed, (1, 0), -1.0, surface=torus)
    with pytest.raises(InputError):
        mcg.orbit_ball(seed, (1, 0), 2.0, margin=0.5, surface=torus)
    # non-finite cutoffs and margins would count nothing or never finish
    for L, margin in ((math.nan, 1.5), (2.0, math.nan), (math.inf, 1.5), (2.0, math.inf)):
        with pytest.raises(InputError):
            mcg.orbit_ball(seed, (1, 0), L, margin=margin, surface=torus)
    # finite each, but margin * L is not: the walk would stop only at the cap
    with pytest.raises(InputError, match="overflows"):
        mcg.orbit_ball(seed, (1, 0), 1e300, margin=1e300, surface=torus, cap=50)
    # no length term and a nonzero boundary image: the orbit is infinite
    with pytest.raises(InputError):
        mcg.orbit_ball(seed_of(torus, "aa", "b"), (0, 1), 10.0, surface=torus)
    # 1e-400 is a positive Fraction, but values are weighted by its float, 0.0
    with pytest.raises(InputError, match="^with alpha = 0 every element"):
        mcg.orbit_ball(seed_of(torus, "aa", "b"), (Fraction("1e-400"), 0), 40.0,
                       surface=torus, cap=2000)
    # a twist list without inverses would miss every element reached through one
    ta, _, tb, _ = mcg.twist_generators(torus)
    with pytest.raises(InputError, match="'ta'"):
        mcg.orbit_ball(seed, (1, 0), 8.0, surface=torus, twists=[ta, tb])
    # a finite-index seed has zero boundary image and a finite orbit
    index2 = mcg.orbit_ball(seed_of(torus, "aa", "b", "abA"), (0, 1), 13.0, surface=torus)
    assert index2.frontier_exhausted and index2.count_leq(13.0) == 3


def test_a_configured_twist_list_without_inverses_is_a_config_error(torus):
    # the orbit's inverse table is the one inverse check; twists read from
    # the surface are its configuration, so their fault is a ConfigError
    images = ((((1,), (1, 2)), "ta"), (((1, 2), (2,)), "tb"))
    surface = geometry.SurfaceStructure(torus.name, torus.genus, torus.cusps, torus.matrices,
                                        torus.peripheral_words, torus.ribbon_order, images)
    assert [t.label for t in mcg.twist_generators(surface)] == ["ta", "tb"]
    with pytest.raises(ConfigError, match="^twist 'ta' has no inverse in the twist list$"):
        mcg.orbit_ball(seed_of(surface, "a"), (1, 0), 8.0, surface=surface)


def test_orbit_ball_values_are_the_public_shadows(torus):
    seed = currents.parse_current("1:aa,b;1/2:a", torus)
    spec = currents.parse_functional("la")
    ball = mcg.orbit_ball(seed, spec, 12.0, surface=torus)
    value, b_key = ball.elements[tuple((h.key, w) for h, w in seed.terms)]
    assert value == currents.evaluate_functional(spec, seed, torus)
    projection = currents.boundary_projection(seed, torus)
    assert b_key == tuple((c.letters, w) for c, w in projection.items)


def test_orbit_ball_modes(torus):
    h1 = graphs.subgroup_class([W("a")], surface=torus, rank=2)
    h2 = graphs.subgroup_class([W("ab")], surface=torus, rank=2)
    seed = currents.RationalSubsetCurrent.from_terms([(h1, 1), (h2, 1)])
    ball_eta = mcg.orbit_ball(seed, (1, 0), 4.5, surface=torus, mode="eta")
    ball_j = mcg.orbit_ball(seed.terms, (1, 0), 4.5, surface=torus, mode="J")
    assert ball_j.count_leq(4.5) >= ball_eta.count_leq(4.5)


def test_orbit_ball_refuses_a_query_past_its_cutoff_and_an_unknown_mode(torus):
    seed = seed_of(torus, "a")
    ball = mcg.orbit_ball(seed, (1, 0), 4.0, surface=torus)
    with pytest.raises(InputError, match="^query 5.0 beyond ball cutoff 4.0$"):
        ball.members(5.0)
    with pytest.raises(InputError, match="^mode must be 'eta' or 'J', got 'K'$"):
        mcg.orbit_ball(seed, (1, 0), 4.0, surface=torus, mode="K")


def test_orbit_ball_matches_fold_free_curve_oracle(torus):
    # B(<aa,b>) = 1/2 [aabAAB] and every fiber has two elements, so the lsc
    # ball at L is twice the twist orbit of the curve [aabAAB] with
    # length <= 2L; the orbit is walked with words.apply alone, no folding.
    L, margin = 30.0, 1.5
    ball = mcg.orbit_ball(seed_of(torus, "aa", "b"), (1, 0), L, margin, surface=torus)
    assert ball.frontier_exhausted

    twists = mcg.twist_generators(torus)
    start = words.conj_class(W("aabAAB"))
    lengths = {start: geometry.geodesic_length(start, torus)}
    queue = deque([start])
    while queue:
        c = queue.popleft()
        for phi in twists:
            img = words.conj_class(words.apply(phi, c.letters))
            if img not in lengths:
                lengths[img] = geometry.geodesic_length(img, torus)
                if lengths[img] <= margin * 2 * L:
                    queue.append(img)
    curves = {c.letters for c, ell in lengths.items() if ell <= 2 * L}

    rows = ball.members()
    assert len(curves) == 222
    assert len(rows) == 2 * len(curves) == 444
    assert {b for _, _, b in rows} == {((c, Fraction(1, 2)),) for c in curves}


def test_orbit_ball_reads_the_inverse_edge(torus, monkeypatch):
    # t(H) = K gives t^-1(K) = H, so the twist back to an element's parent
    # is never acted out: at most three actions per explored element
    # (the subgroup-level walk: the public ball of a cyclic seed acts only
    # to find the seed's fiber)
    calls = []
    act = mcg.act_on_subgroup
    monkeypatch.setattr(mcg, "act_on_subgroup", lambda *a: calls.append(1) or act(*a))
    L = 24.0
    ball = mcg._Orbit(seed_of(torus, "a"), (1, 0), L, 1.5, surface=torus, twists=None,
                      cap=None, mode="eta").subgroup_ball()
    seen, explored = ball.stats["seen"], ball.stats["explored"]
    assert (seen, explored, len(ball.members())) == (732, 366, 162)
    assert len(calls) <= 3 * explored + 1


@pytest.mark.parametrize("text, spec, L, mode", [
    ("1:a", "lsc", 24.0, "eta"),
    ("1:aa,b", "lsc", 30.0, "eta"),
    ("1:aa,b", "la", 20.0, "eta"),
    ("1:aa,b;1/2:a", "la", 14.0, "eta"),
    ("3/7:aab,bA;2:b", "la", 16.0, "eta"),
    ("1:aab,bA,ab;2:b", "lsc", 12.0, "eta"),
    ("1:a;1:ab", "1,1/2", 8.0, "J"),
    ("1:aa,b", "lsc", 3.0, "eta"),   # seed value 3.525: explored, not a member
    ("1:aa,b", "lsc", 2.2, "eta"),   # seed beyond margin * L: never explored
    ("1:aa,b,abA", "area", 13.0, "eta"),  # zero boundary image, finite orbit
    ("1:aa", "lsc", 30.0, "eta"),    # cyclic seeds: a proper power,
    ("5/3:aab", "lsc", 24.0, "eta"),  # a weight other than 1,
    ("1:aabb", "lsc", 30.0, "eta"),  # a non-simple curve,
    ("1:a", "lsc", 20.0, "J"),       # and J mode
])
def test_orbit_ball_lift_matches_the_subgroup_walk(torus, text, spec, L, mode):
    # the public ball lifts members from the boundary-multicurve orbit; the
    # subgroup-level walk at the full L folds and keys every element seen
    seed = currents.parse_current(text, torus)
    if mode == "J":
        seed = seed.terms
    spec = currents.parse_functional(spec)
    ball = mcg.orbit_ball(seed, spec, L, surface=torus, mode=mode)
    walked = mcg._Orbit(seed, spec, L, 1.5, surface=torus, twists=None, cap=None,
                        mode=mode).subgroup_ball()
    assert ball.members() == walked.members()  # keys, b_keys, and values by ==
    assert ball.frontier_exhausted == walked.frontier_exhausted
    for name in ("seen", "explored", "members", "fiber_size", "curves_seen"):
        assert ball.stats[name] == walked.stats[name], name
    assert ball.stats["seen"] == ball.stats["fiber_size"] * ball.stats["curves_seen"]


def test_cyclic_members_are_the_folded_classes_of_their_curves(torus):
    # a cyclic seed's member over the curve mu is <mu>, keyed from the
    # cycle of mu's letters; folding mu from scratch gives the same key
    ball = mcg.orbit_ball(seed_of(torus, "a"), (1, 0), 24.0, surface=torus)
    assert len(ball.elements) == ball.stats["members"] == 162
    for key, _, b_key in ball.members():
        ((letters, weight),) = b_key
        h = graphs.subgroup_class([letters], surface=torus, rank=2)
        assert key == ((h.key, Fraction(1)),) and weight == 1


@pytest.mark.parametrize("text, L", [("1:a", 24.0), ("1:aa", 30.0), ("5/3:aab", 24.0)])
def test_cyclic_ball_acts_only_to_find_the_seed_fiber(torus, text, L):
    seed = currents.parse_current(text, torus)
    orbit = mcg._Orbit(seed, (1, 0), L, 1.5, surface=torus, twists=None, cap=None,
                       mode="eta")
    orbit.walk(orbit.seed_record[0])
    ball = mcg.orbit_ball(seed, (1, 0), L, surface=torus)
    assert ball.stats["actions"] == orbit.actions > 0
    assert set(ball.elements) == {k for k, _, _ in ball.members()}


def test_cyclic_push_rule_needs_the_seed_alone_over_its_curve(torus):
    # t(c <r^m>) lies over c m t(r), which is B(seed) only when t fixes r,
    # so any other fiber size for a cyclic seed is a bug, not a bigger fiber
    orbit = mcg._Orbit(seed_of(torus, "a"), (1, 0), 8.0, 1.5, surface=torus, twists=None,
                       cap=None, mode="eta")
    assert callable(orbit.push_rule(1))
    with pytest.raises(InternalConsistencyError):
        orbit.push_rule(2)


def test_cyclic_ball_pins_the_curve_ball_at_60(torus):
    ball = mcg.orbit_ball(seed_of(torus, "a"), (1, 0), 60.0, 1.5, surface=torus)
    digest = hashlib.sha256(repr((ball.members(), ball.frontier_exhausted)).encode())
    assert digest.hexdigest() == \
        "d591e2b4ca6ebaf5890bf5f5d3318ebd2ee2bf23bce579861682f4347c704df6"
    counts = tuple(ball.stats[name] for name in ("seen", "explored", "members"))
    assert counts == (4404, 2202, 984)


# (seed, L, cap) -> sha256 of the sorted partial elements and frontier flag,
# and its (seen, explored, members, curves_seen, fiber_size)
CAP_HIT_PARTIALS = {
    ("1:a", 6.0, 4): ("28f23b611945e3578ffe47e26f7c46b3527de0105172380ca8b76decf942a6c7",
                      (5, 3, 5, 5, 1)),
    ("1:a", 24.0, 10): ("37f5c3f0b2dafa63db3da82902c20e0610b3637dfbd5c7ba9f0a6ec1cbdbe5de",
                        (11, 11, 11, 11, 1)),
    ("1:a", 24.0, 57): ("12beccee4ca2424121bfdc85cd738a2b9ef865008f5cf5cd8ae17b95cb21f94f",
                        (58, 58, 58, 58, 1)),
    ("1:a", 24.0, 300): ("b489fd463aa9a7d661781b846448ce4f07cbc91cd9acaf18d929382408244aed",
                         (301, 226, 134, 301, 1)),
    ("1:aa", 30.0, 57): ("e124a4388bf95e64de870d5f2c50b5d2b29b0353589558722bae0fcf1b2987b1",
                         (58, 57, 49, 58, 1)),
    ("5/3:aab", 24.0, 57): ("a31bbaa3323bede290299bbb1015e313a106ca5721f51fb2ce2a9b46284369d3",
                            (58, 57, 43, 58, 1)),
    ("1:aa,b", 30.0, 3): ("2d381fb8444cd9efd5501618d556fc6984514bf9654a4312f6e2b8a6cd11467f",
                          (4, 4, 4, 3, 2)),
    ("1:aa,b", 30.0, 40): ("40bfd704e871f0a26566192a8e3fd406188d9f927960625ada43fd6c13d7f08a",
                           (42, 42, 42, 21, 2)),
    ("1:aa,b", 30.0, 300): ("9a77c39fe778c953cee2c4b1032690d681306ba81a8a374d3939c7db88896dca",
                            (302, 302, 256, 151, 2)),
}


@pytest.mark.parametrize("text, L, cap", list(CAP_HIT_PARTIALS))
def test_cap_hit_partials_are_pinned(torus, text, L, cap):
    # a cap hit in the curve walk lifts every curve seen, not only the
    # members, so the lift runs over every node of the walk's tree
    with pytest.raises(ResourceLimitError) as info:
        mcg.orbit_ball(currents.parse_current(text, torus), (1, 0), L, 1.5,
                       surface=torus, cap=cap)
    partial = info.value.partial
    digest = hashlib.sha256(
        repr((sorted(partial.elements.items()), partial.frontier_exhausted)).encode())
    names = ("seen", "explored", "members", "curves_seen", "fiber_size")
    assert (digest.hexdigest(), tuple(partial.stats[n] for n in names)) == \
        CAP_HIT_PARTIALS[text, L, cap]


def test_orbit_ball_stats_record_cap_cache_hits_and_seconds(torus):
    seconds = ("subgroup_walk_s", "curve_walk_s", "lift_s")
    start = time.perf_counter()
    lifted = mcg.orbit_ball(seed_of(torus, "aa", "b"), (1, 0), 12.0, surface=torus)
    elapsed = time.perf_counter() - start
    walked = mcg.orbit_ball(seed_of(torus, "aa", "b", "abA"), (0, 1), 13.0, surface=torus,
                            cap=500)
    assert lifted.stats["cap"] == mcg.DEFAULT_BALL_CAP
    assert walked.stats["cap"] == 500
    for ball in (lifted, walked):
        assert isinstance(ball.stats["act_cache_hits"], int)
        assert ball.stats["act_cache_hits"] >= 0
        assert all(ball.stats[name] >= 0.0 for name in seconds)
    # the three spans are disjoint parts of one call
    assert all(lifted.stats[name] > 0.0 for name in seconds)
    assert sum(lifted.stats[name] for name in seconds) <= elapsed
    assert walked.stats["curve_walk_s"] == walked.stats["lift_s"] == 0.0
    assert walked.stats["subgroup_walk_s"] > 0.0
    # a cap hit inside the fiber walk and inside the curve walk
    for cap, walk in ((3, "subgroup_walk_s"), (40, "curve_walk_s")):
        with pytest.raises(ResourceLimitError) as info:
            mcg.orbit_ball(seed_of(torus, "aa", "b"), (1, 0), 30.0, surface=torus, cap=cap)
        stats = info.value.partial.stats
        assert stats["cap"] == cap
        assert {"act_cache_hits", *seconds} <= set(stats)
        assert stats[walk] > 0.0


def test_a_walked_curve_is_named_in_ascii_letters(torus):
    # the walk hands its byte words to the length check, which spells one
    # out only when it raises
    with pytest.raises(ParabolicError, match="curve abAB is parabolic"):
        currents._length([(1.0, 2, words._Spelled(words._encode(W("abAB"))))], torus)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(("1:a", "1:aa,b", "1:aa,b;1/2:a", "3/7:aab,bA;2:b")),
       st.sampled_from(("lsc", "la")), st.floats(4.0, 12.0))
def test_float_surface_values_are_the_letterwise_ones(text, spec, L):
    # conjugating by diag(3, 1/3) puts 1/9 in the matrices, so a product
    # associated in another order would move a value; the walk measures
    # each curve's own letters there, as length_gc does
    torus = geometry.modular_torus()
    ninefold = geometry.SurfaceStructure(
        "ninefold", torus.genus, torus.cusps, (((1, 9), (1 / 9, 2)), ((1, -9), (-1 / 9, 2))),
        torus.peripheral_words, torus.ribbon_order)
    assert not ninefold.exact
    seed = currents.parse_current(text, ninefold)
    spec = currents.parse_functional(spec)
    area = currents.area(seed)[0]
    ball = mcg.orbit_ball(seed, spec, L, surface=ninefold)
    assert ball.elements
    for value, b_key in ball.elements.values():
        mc = currents.Multicurve(items=tuple((words.ConjClass(c), w) for c, w in b_key))
        assert value == currents.functional_value(
            spec, currents.length_gc(mc, ninefold), area)


@pytest.mark.parametrize("text, L", [("1:aa,b", 12.0), ("1:aa,b", 3.0), ("1:a", 12.0)])
def test_the_seed_is_valued_once(text, L):
    # the lifted ball (L = 12) and the subgroup walk (1:aa,b at L = 3,
    # below the seed's value) both start from the seed's one record; the
    # curve walk of the lifted ball measures its nodes on the exact torus
    # four letters at a time, through the torus's table of letter blocks
    torus = geometry.modular_torus()  # a new surface, its block table not built yet
    seed = currents.parse_current(text, torus)
    with mock.patch.object(currents, "evaluate", wraps=currents.evaluate) as evaluate:
        ball = mcg.orbit_ball(seed, (1, 0), L, surface=torus)
    assert sum(list(c.args[1]) == list(seed.terms) for c in evaluate.call_args_list) == 1
    lifted = ball.stats["curve_walk_s"] > 0.0
    assert lifted == (L == 12.0)
    assert bool(torus.__dict__.get("_letter_blocks")) == lifted


def test_curve_walk_pins_the_aab_ball_at_50(torus):
    seed = currents.parse_current("1:aa,b", torus)
    ball = mcg.orbit_ball(seed, (1, 0), 50.0, 1.5, surface=torus)
    digest = hashlib.sha256(repr((ball.members(), ball.frontier_exhausted)).encode())
    assert digest.hexdigest() == \
        "b01af07a1325e6e5a3e8b5acbf2bbde44b3f92138112402083dbc90fceffb8c8"
    counts = tuple(ball.stats[name] for name in ("seen", "explored", "members"))
    assert counts == (5880, 2940, 1284)


# multi-component boundary images: a node's components keep the order of
# their int letters, so the b_keys and the float sum of each value do not move
@pytest.mark.parametrize("text, L, digest, counts", [
    ("1:aa,b;1/2:a", 30.0,
     "0efe2f14e3392cc01a54b365b4e9ab0c5e644446db529b29cd9539aeaa3378bd", (696, 348, 120)),
    ("3/7:aab,bA;2:b", 24.0,
     "8f49d202a0917c5564d54a1650288669fde6bc30e0f1ac71a4a98ee1ad0540f3", (2436, 1212, 456)),
])
def test_curve_walk_pins_multi_component_balls(torus, text, L, digest, counts):
    seed = currents.parse_current(text, torus)
    ball = mcg.orbit_ball(seed, currents.parse_functional("la"), L, 1.5, surface=torus)
    assert all(len(b_key) == 2 for _, _, b_key in ball.members())
    got = hashlib.sha256(repr((ball.members(), ball.frontier_exhausted)).encode())
    assert got.hexdigest() == digest
    assert tuple(ball.stats[name] for name in ("seen", "explored", "members")) == counts


@pytest.mark.parametrize("text, L", [
    ("1:a", 16.0), ("1:aa,b;1/2:a", 20.0), ("1:aa,b", 20.0), ("1:a", 8.0), ("1:a", 24.0),
    ("1:aab", 24.0), ("1:aabb", 24.0), ("1:aaBAbb", 7.5), ("1:aaBAbb", 8.5), ("1:aaBAbb", 12.0),
])
def test_orbit_ball_members_are_margin_stable(torus, text, L):
    seed = currents.parse_current(text, torus)
    narrow = mcg.orbit_ball(seed, (1, 0), L, 1.5, surface=torus)
    wide = mcg.orbit_ball(seed, (1, 0), L, 3.0, surface=torus)
    assert narrow.frontier_exhausted and wide.frontier_exhausted
    assert narrow.members() == wide.members()
    # every boundary image in the ball has a twist image of strictly smaller
    # value or the ball's least value, so each member descends to a minimum
    # through values <= L; 1:aaBAbb has six minima, no two of them adjacent
    area = currents.area(seed)[0]
    values = {b: v for _, v, b in wide.members()}
    least = min(values.values())
    minima = 0
    for b_key, value in values.items():
        mc = currents.Multicurve(items=tuple((words.ConjClass(c), w) for c, w in b_key))
        below = [currents.functional_value(
                     (1, 0), currents.length_gc(mcg.act_on_multicurve(t, mc), torus), area)
                 < value for t in mcg.twist_generators(torus)]
        if not any(below):
            assert value == least, b_key
            minima += 1
    assert minima == (6 if text == "1:aaBAbb" else 3)


DYADIC = geometry.surface_from_file(str(Path(__file__).parent / "data" / "dyadic_torus.json"))
# conjugated by diag(3, 1/3): a float trace here moves with the letter order
_TORUS = geometry.modular_torus()
NINEFOLD = geometry.SurfaceStructure(
    "ninefold", _TORUS.genus, _TORUS.cusps, (((1, 9), (1 / 9, 2)), ((1, -9), (-1 / 9, 2))),
    _TORUS.peripheral_words, _TORUS.ribbon_order)
SURFACES = pytest.mark.parametrize("surface", [_TORUS, DYADIC, NINEFOLD],
                                   ids=["exact", "dyadic", "ninefold"])
# one curve, one proper power, two curves and three curves (a + b + ab)
SEEDS = pytest.mark.parametrize("text, L", [
    ("1:a", 16.0), ("1:aa,b", 20.0), ("1:aa,b;1/2:a", 20.0), ("1:aaBAbb", 12.0),
    ("1:a;1:b;1:ab", 12.0)])


# the curve walk's intern table holds one word per class; with every key
# made to clash, each class is told apart by the exact rotation test alone
@SURFACES
@SEEDS
def test_curve_walk_is_the_same_when_every_class_key_clashes(monkeypatch, surface, text, L):
    seed = currents.parse_current(text, surface)
    ball = mcg.orbit_ball(seed, (1, 0), L, surface=surface)
    assert ball.stats["curve_walk_s"] > 0.0
    monkeypatch.setattr(mcg, "_class_hash", lambda w, rank: 0)
    clashed = mcg.orbit_ball(seed, (1, 0), L, surface=surface)
    assert clashed.elements == ball.elements  # keys, values by ==, b_keys
    assert clashed.members() == ball.members()
    for name in ("seen", "explored", "members", "curves_seen"):
        assert clashed.stats[name] == ball.stats[name], name
    assert clashed.stats["class_clashes"] > ball.stats["class_clashes"]
    assert clashed.stats["class_clashes"] > 0


@pytest.mark.parametrize("clash", [False, True])
@SURFACES
@SEEDS
def test_curve_walk_values_are_length_gc_of_the_canonical_multicurve(
        monkeypatch, surface, text, L, clash):
    # every node the walk sees, kept or not: its value is the one that
    # length_gc gives its canonical multicurve, == on the float surface too
    if clash:
        monkeypatch.setattr(mcg, "_class_hash", lambda w, rank: 0)
    seed = currents.parse_current(text, surface)
    orbit = mcg._Orbit(seed, (1, 0), L, 1.5, surface=surface, twists=None, cap=None,
                       mode="eta")
    curves, _, frontier, weights = orbit.curve_walk(1)
    assert frontier is None and len(curves) > 1
    area = currents.area(seed)[0]
    classes = set()
    for node, (value,) in curves.items():
        mc = currents.Multicurve.from_terms(
            (words.ConjClass(words._decode(words._canonical(letters))), weights[i])
            for letters, i in node)
        assert value == currents.functional_value((1, 0), currents.length_gc(mc, surface), area)
        classes.add(mc)
    assert len(classes) == len(curves)  # one node per multicurve
