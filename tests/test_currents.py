import math
import random
from fractions import Fraction

import pytest

from scl import currents, graphs, words
from scl.errors import InputError, PeripheralSubgroupError
from conftest import random_multicurve, random_subgroup_class

W = words.word_from_str


@pytest.fixture
def cyclic_a(torus):
    return graphs.subgroup_class([W("a")], surface=torus, rank=2)


@pytest.fixture
def rank2(torus):
    return graphs.subgroup_class([W("aa"), W("b")], surface=torus, rank=2)


@pytest.fixture
def cover2(torus):
    return graphs.subgroup_class([W("a"), W("bb"), W("baB")], surface=torus, rank=2)


def eta(*pairs):
    return currents.RationalSubsetCurrent.from_terms(pairs)


def test_subgroup_universe_rejects_peripheral_cyclic(torus):
    with pytest.raises(PeripheralSubgroupError):
        graphs.subgroup_class([W("abAB")], surface=torus, rank=2)
    # peripheral root detected through powers and conjugation too
    with pytest.raises(PeripheralSubgroupError):
        graphs.subgroup_class([W("babABabABB")], surface=torus, rank=2)


def test_boundary_projection_examples(torus, cyclic_a, rank2, cover2):
    b = currents.boundary_projection(eta((cyclic_a, 1)), torus)
    assert b.items == ((words.conj_class(W("a")), Fraction(1)),)
    assert currents.boundary_projection(eta((cover2, 1)), torus).is_zero()
    b2 = currents.boundary_projection(eta((rank2, 1)), torus)
    assert b2.items == ((words.conj_class(W("aaBAAb")), Fraction(1, 2)),)


def test_boundary_projection_of_power_scales(torus, cyclic_a):
    sq = graphs.subgroup_class([W("aa")], surface=torus, rank=2)
    b = currents.boundary_projection(eta((sq, 1)), torus)
    assert b.items == ((words.conj_class(W("a")), Fraction(2)),)


def test_length_gc(torus):
    la = 2.0 * math.acosh(1.5)
    mc = currents.Multicurve.from_terms({words.conj_class(W("a")): 1}.items())
    assert currents.length_gc(mc, torus) == pytest.approx(la, rel=1e-12)
    assert currents.length_gc(currents.Multicurve.from_terms([]), torus) == 0.0
    doubled = mc.scale(2)
    assert currents.length_gc(doubled, torus) == pytest.approx(2 * la, rel=1e-12)


def test_multicurve_sum_merges_sorts_and_rejects_nonpositive_weights():
    a, b = words.conj_class(W("a")), words.conj_class(W("b"))
    mc = currents.Multicurve.from_terms([(b, 1), (a, Fraction(1, 2)), (b, Fraction(1, 3))])
    assert mc.items == ((a, Fraction(1, 2)), (b, Fraction(4, 3)))
    assert mc + mc == mc.scale(2)
    for bad in (0, -1):
        with pytest.raises(InputError):
            currents.Multicurve.from_terms([(a, 1), (b, bad)])


def test_length_sc_examples(torus, cyclic_a, cover2):
    la = 2.0 * math.acosh(1.5)
    assert currents.length_sc(eta((cyclic_a, 1)), torus) == pytest.approx(la, rel=1e-12)
    assert currents.length_sc(eta((cover2, 1)), torus) == 0.0
    assert currents.length_sc(eta((cyclic_a, 2)), torus) == pytest.approx(2 * la, rel=1e-12)


def test_length_sc_is_projection_then_length(torus, rank2, cyclic_a):
    e = eta((rank2, Fraction(2, 3)), (cyclic_a, Fraction(1, 7)))
    assert currents.length_sc(e, torus) == \
        currents.length_gc(currents.boundary_projection(e, torus), torus)


def test_area_examples(torus, cyclic_a):
    value, chi = currents.area(eta((cyclic_a, 1)))
    assert value == 0.0 and chi == 0
    f2 = graphs.subgroup_class([W("a"), W("b")], surface=torus)
    value, chi = currents.area(eta((f2, 1)))
    assert chi == -1 and value == pytest.approx(2 * math.pi, rel=1e-12)
    paper = graphs.subgroup_class(
        [W(w) for w in ("aaaa", "ab", "bb", "aaba", "aaBa")], surface=torus)
    value, chi = currents.area(eta((paper, 1)))
    assert chi == -4 and value == pytest.approx(8 * math.pi, rel=1e-12)


def test_area_zero_iff_all_cyclic(rng, torus):
    for _ in range(50):
        h = random_subgroup_class(rng, torus)
        _, chi = currents.area(eta((h, Fraction(3, 2))))
        assert (chi == 0) == (h.rank == 1)


def test_evaluate_functional(torus, cyclic_a, rank2):
    la = 2.0 * math.acosh(1.5)
    assert currents.evaluate_functional((1, 1), eta((cyclic_a, 1)), torus) == \
        pytest.approx(la, rel=1e-12)
    f2 = graphs.subgroup_class([W("a"), W("b")], surface=torus)
    assert currents.evaluate_functional((1, 1), eta((f2, 1)), torus) == \
        pytest.approx(2 * math.pi, rel=1e-12)
    lsc = currents.length_sc(eta((rank2, 1)), torus)
    assert currents.evaluate_functional((1, 1), eta((rank2, 1)), torus) == \
        pytest.approx(lsc + 2 * math.pi, rel=1e-12)
    with pytest.raises(InputError):
        currents.evaluate_functional((0, 0), eta((rank2, 1)), torus)
    # one formula: every caller gets alpha * length_sc + beta * area, bit for bit
    rng = random.Random(7)
    specs = ((1, 0), (0, 1), (1, 1), (Fraction(2, 3), Fraction(5, 2)))
    for _ in range(300):
        e = eta(*((random_subgroup_class(rng, torus),
                   Fraction(rng.randint(1, 9), rng.randint(1, 9)))
                  for _ in range(rng.randint(1, 3))))
        lsc, area = currents.length_sc(e, torus), currents.area(e)[0]
        for a, b in specs:
            assert currents.evaluate_functional((a, b), e, torus) == \
                float(a) * lsc + float(b) * area


def test_projection_is_rational_linear(rng, torus):
    for _ in range(30):
        h1 = random_subgroup_class(rng, torus, max_rank=3, max_len=8)
        h2 = random_subgroup_class(rng, torus, max_rank=3, max_len=8)
        p = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        q = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        combined = currents.boundary_projection(
            eta((h1, p)) + eta((h2, q)), torus)
        separate = currents.boundary_projection(eta((h1, 1)), torus).scale(p) + \
            currents.boundary_projection(eta((h2, 1)), torus).scale(q)
        assert combined == separate


def test_projection_fixes_multicurves(rng, torus):
    for _ in range(100):
        mc = random_multicurve(rng, torus)
        as_current = currents.RationalSubsetCurrent.from_terms(
            (graphs.subgroup_class([c.letters], surface=torus, rank=2), w)
            for c, w in mc.items)
        assert currents.boundary_projection(as_current, torus) == mc


def test_scaling_laws(rng, torus):
    for _ in range(12):
        h = random_subgroup_class(rng, torus, max_rank=3, max_len=8)
        k = rng.randint(2, 4)
        base = currents.boundary_projection(eta((h, 1)), torus)
        base_lsc = currents.length_sc(eta((h, 1)), torus)
        for cover in graphs.finite_index_subgroups(h, k):
            ec = eta((cover, 1))
            assert currents.boundary_projection(ec, torus) == base.scale(k)
            assert cover.euler_char == k * h.euler_char
            lsc = currents.length_sc(ec, torus)
            assert abs(lsc - k * base_lsc) <= 1e-6 * max(k * base_lsc, 1e-12)


def test_parse_current(torus):
    e = currents.parse_current("1:aa,b;1/2:a", torus)
    assert len(e) == 2
    weights = sorted(w for _, w in e.terms)
    assert weights == [Fraction(1, 2), Fraction(1)]
    with pytest.raises(InputError):
        currents.parse_current("x:aa", torus)
    with pytest.raises(InputError):
        currents.parse_current("1:", torus)
    with pytest.raises(InputError):
        currents.parse_current("-1:aa,b", torus)


def test_parse_current_merges_equal_classes(torus):
    e = currents.parse_current("1:a;1/2:bab", torus)
    assert len(e) == 2
    # Bab is a conjugate of a, so the classes merge and the weights add
    same = currents.parse_current("1:a;1/2:Bab", torus)
    assert len(same) == 1
    assert same.terms[0][1] == Fraction(3, 2)
