import pytest

from scl import graphs, ribbon, words
from scl.errors import InputError
from conftest import random_subgroup_class

W = words.word_from_str


def cycles_of(gens, torus, pruned=True):
    g = graphs.fold([W(w) for w in gens], rank=2)
    if pruned:
        g = graphs.core(g)
    return g, ribbon.boundary_cycles(g, torus.ribbon_order)


def test_bouquet_single_commutator_cycle(torus):
    cycles = ribbon.boundary_cycles(graphs.bouquet(2), torus.ribbon_order)
    assert [words.word_to_str(c) for c in cycles] == ["aBAb"]
    assert words.conj_class(cycles[0]) == words.conj_class(W("abAB"))


def test_annulus_of_cyclic_subgroup(torus):
    _, cycles = cycles_of(["a"], torus)
    assert sorted(words.word_to_str(c) for c in cycles) == ["A", "a"]
    assert words.conj_class(cycles[0]) == words.conj_class(cycles[1])


def test_rank_two_example_cycle(torus):
    g, cycles = cycles_of(["aa", "b"], torus)
    assert len(cycles) == 1
    assert len(cycles[0]) == 6 == 2 * len(g.edges)
    assert words.conj_class(cycles[0]) == words.conj_class(W("aaBAAb"))


def test_order_validation(torus):
    bad = torus.ribbon_order[:3]
    assert ribbon.check_order(bad, 2)
    with pytest.raises(InputError):
        ribbon.boundary_cycles(graphs.bouquet(2), bad)


def test_order_validation_names_repeated_and_foreign_darts(torus):
    assert ribbon.check_order(((0, 1), *torus.ribbon_order), 2) == [
        "ribbon order repeats a dart type"]
    assert ribbon.check_order((*torus.ribbon_order, (2, 1)), 2) == [
        "ribbon order has foreign dart types: [(2, 1)]"]
    with pytest.raises(InputError, match=r"^bad dart type 'a\*'; expected like 'a\+'$"):
        ribbon.order_from_strings(["a*"])


def test_order_string_round_trip(torus):
    assert ribbon.order_from_strings(["a+", "b+", "a-", "b-"]) == torus.ribbon_order


def test_classify_bouquet(torus):
    rep = ribbon.classify_boundary(graphs.bouquet(2), torus)
    assert rep.euler_char == -1
    assert rep.genus == 1
    assert len(rep.cusp_cycles) == 1 and not rep.geodesic_cycles


def test_classify_index_two_cover(torus):
    g = graphs.core(graphs.fold([W("a"), W("bb"), W("baB")], rank=2))
    rep = ribbon.classify_boundary(g, torus)
    assert rep.euler_char == -2
    assert rep.genus == 1
    assert len(rep.cusp_cycles) == 2
    assert all(power == 1 for _, _, power in rep.cusp_cycles)


def test_classify_rank_two(torus):
    g = graphs.core(graphs.fold([W("aa"), W("b")], rank=2))
    rep = ribbon.classify_boundary(g, torus)
    assert rep.euler_char == -1 and rep.genus == 1
    ((root, kind, power),) = rep.cycles
    assert kind == "geodesic" and power == 1
    assert root == words.conj_class(W("aaBAAb"))


def test_one_root_split_per_boundary_walk(torus, monkeypatch):
    cases = [graphs.bouquet(2), graphs.core(graphs.fold([W("aa"), W("b")], rank=2)),
             *graphs.subgroups_of_index(2, 4)]
    torus.peripheral_roots  # split the peripheral words before counting
    calls = []
    split = words.primitive_root
    monkeypatch.setattr(words, "primitive_root", lambda c: calls.append(c) or split(c))
    for g in cases:
        calls.clear()
        rep = ribbon.classify_boundary(g, torus)
        assert len(calls) == len(rep.cycles) == len(ribbon.boundary_cycles(g, torus.ribbon_order))


def test_dart_partition_and_genus(rng, torus):
    for _ in range(300):
        h = random_subgroup_class(rng, torus)
        g = graphs.from_key(h.key)
        cycles = ribbon.boundary_cycles(g, torus.ribbon_order)
        assert sum(len(c) for c in cycles) == 2 * len(g.edges)
        rep = ribbon.classify_boundary(g, torus)
        assert rep.genus >= 0


def test_cyclic_gives_annulus(rng, torus):
    for _ in range(50):
        h = random_subgroup_class(rng, torus, max_rank=1)
        cycles = ribbon.boundary_cycles(graphs.from_key(h.key), torus.ribbon_order)
        assert len(cycles) == 2
        assert words.conj_class(cycles[0]) == words.conj_class(cycles[1])


def test_complete_covers_are_all_cusp(rng, torus):
    for k in (1, 2, 3, 4):
        for g in graphs.subgroups_of_index(2, k):
            rep = ribbon.classify_boundary(g, torus)
            assert not rep.geodesic_cycles
            assert sum(p for _, _, p in rep.cusp_cycles) == k * torus.cusps


def _boundary_weights(g, torus):
    acc = {}
    for cyc in ribbon.boundary_cycles(g, torus.ribbon_order):
        root, mult = words.primitive_root(words.conj_class(cyc))
        acc[root] = acc.get(root, 0) + mult
    return acc


def test_cover_boundary_projects_with_degree(rng, torus):
    for _ in range(15):
        h = random_subgroup_class(rng, torus, max_rank=3, max_len=8)
        base = _boundary_weights(graphs.from_key(h.key), torus)
        k = rng.randint(2, 3)
        for cover in graphs.finite_index_subgroups(h, k):
            got = _boundary_weights(graphs.from_key(cover.key), torus)
            assert got == {root: k * m for root, m in base.items()}
