from array import array
from collections import Counter
from pathlib import Path

import pytest

from scl import geometry, graphs, ribbon, words
from scl.errors import InputError, TrivialSubgroupError
from conftest import random_reduced_word, random_subgroup_class

W = words.word_from_str
DYADIC = Path(__file__).resolve().parent / "data" / "dyadic_torus.json"


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


def test_a_surface_order_is_not_rechecked_per_walk(torus, monkeypatch):
    # the surface's validation checked its order; a bare call checks its own
    calls = []
    check = ribbon.check_order

    def counted(sigma, rank):
        calls.append(sigma)
        return check(sigma, rank)

    monkeypatch.setattr(ribbon, "check_order", counted)
    for g in (graphs.bouquet(2), *graphs.subgroups_of_index(2, 3)):
        ribbon.classify_boundary(g, torus)
    assert calls == []
    ribbon.boundary_cycles(graphs.bouquet(2), torus.ribbon_order)
    assert calls == [torus.ribbon_order]
    for bad in (torus.ribbon_order[:3], (*torus.ribbon_order, (2, 1))):
        with pytest.raises(InputError):
            ribbon.boundary_cycles(graphs.bouquet(2), bad)
    assert len(calls) == 3


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


def test_classify_rank_two():
    torus = geometry.modular_torus()
    g = graphs.core(graphs.fold([W("aa"), W("b")], rank=2))
    rep = ribbon.classify_boundary(g, torus)
    assert rep.euler_char == -1 and rep.genus == 1
    ((root, kind, power),) = rep.cycles
    assert kind == "geodesic" and power == 1
    assert root == words.conj_class(W("aaBAAb"))
    assert torus._cusp_walks == {}  # a geodesic walk is not stored


def _is_cusp(split, surface):
    return words.is_peripheral(*split, surface)


def test_one_root_split_per_boundary_walk(monkeypatch):
    # a geodesic walk is split each time it is classified, a cusp walk once
    # per surface: on its first sight
    torus = geometry.modular_torus()
    cases = [graphs.bouquet(2), graphs.core(graphs.fold([W("aa"), W("b")], rank=2)),
             *graphs.subgroups_of_index(2, 4)]
    walks = [w for g in cases for w in ribbon.boundary_cycles(g, torus.ribbon_order)]
    # this also splits the peripheral words before counting
    cusp_walks = [w for w in walks if _is_cusp(words.primitive_root(words.conj_class(w)), torus)]
    geodesic_count = len(walks) - len(cusp_walks)
    assert geodesic_count == 1 and len(set(cusp_walks)) < len(cusp_walks)
    splits = []
    split = words.primitive_root

    def counted(c):
        splits.append(split(c))
        return splits[-1]

    monkeypatch.setattr(words, "primitive_root", counted)
    for expected in (geodesic_count + len(set(cusp_walks)), geodesic_count):
        splits.clear()
        for g in cases:
            ribbon.classify_boundary(g, torus)
        assert len(splits) == expected
    assert not any(_is_cusp(s, torus) for s in splits)


def _reference(g, surface):
    """Each walk split and tested from scratch, with no table."""
    out = []
    for w in ribbon.boundary_cycles(g, surface.ribbon_order):
        root, mult = words.primitive_root(words.conj_class(w))
        out.append((root, "cusp" if words.is_peripheral(root, mult, surface) else "geodesic",
                    mult))
    return tuple(out)


def _rank_one():
    # unvalidated: the matrix is never read; the walks of the index-k cover
    # are a^k and A^k, powers of a single-letter cusp
    return geometry.SurfaceStructure(
        name="annulus", genus=0, cusps=2, matrices=(((1, 1), (0, 1)),),
        peripheral_words=(W("a"),), ribbon_order=((0, 1), (0, -1)))


def _four_punctured():
    # unvalidated, as in test_mcg: cusps a, b, c and CBA
    return geometry.SurfaceStructure(
        name="four-punctured", genus=0, cusps=4, matrices=(((1, 0), (0, 1)),) * 3,
        peripheral_words=tuple(map(W, ("a", "b", "c", "CBA"))),
        ribbon_order=((0, 1), (0, -1), (1, 1), (1, -1), (2, 1), (2, -1)))


@pytest.mark.parametrize("make_surface, max_index", [
    (geometry.modular_torus, 5),
    (lambda: geometry.surface_from_file(str(DYADIC)), 5),
    (_rank_one, 4),
    (_four_punctured, 4),
], ids=["modular", "dyadic", "rank-1", "four-punctured"])
def test_cusp_walk_table_keeps_every_classification(rng, make_surface, max_index):
    surface = make_surface()
    inputs = [g for k in range(1, max_index + 1) for g in graphs.subgroups_of_index(surface.rank, k)]
    if surface.rank > 1:
        inputs += [graphs.from_key(random_subgroup_class(rng, surface).key) for _ in range(300)]
    cases = [(g, _reference(g, surface)) for g in inputs]
    for _ in range(2):
        rng.shuffle(cases)
        for g, reference in cases:
            assert ribbon.classify_boundary(g, surface).cycles == reference
    # the table holds the cusp walks seen, each with its entry, and nothing else
    assert surface._cusp_walks == {
        w: entry for g, reference in cases
        for w, entry in zip(ribbon.boundary_cycles(g, surface.ribbon_order), reference)
        if entry[1] == "cusp"}
    assert any(entry[2] > 1 for entry in surface._cusp_walks.values())


def _edge_walk(edges, rank, sigma):
    """Reference boundary walk on edge ids, sharing no code with the walk
    on the slot table.

    Darts are numbered 2*eid (+label traversal) and 2*eid+1 (inverse);
    with succ[d] the next outgoing dart at the tail of d, the walk steps
    by dart -> succ[dart ^ 1], starting at the darts in edge order.
    """
    ne2 = 2 * len(edges)
    pos = [0] * (2 * rank)
    for i, (lab, d) in enumerate(sigma):
        pos[2 * lab + (0 if d > 0 else 1)] = i
    vertex_count = 1 + max(max(u, v) for u, v, _ in edges)
    outgoing = [[] for _ in range(vertex_count)]
    for eid, (u, v, lab) in enumerate(edges):
        outgoing[u].append((pos[2 * lab], 2 * eid))
        outgoing[v].append((pos[2 * lab + 1], 2 * eid + 1))
    succ = [0] * ne2
    for lst in outgoing:
        lst.sort()
        k = len(lst)
        for i in range(k):
            succ[lst[i][1]] = lst[(i + 1) % k][1]
    seen = bytearray(ne2)
    cycles = []
    for d0 in range(ne2):
        if seen[d0]:
            continue
        cycle = []
        d = d0
        while not seen[d]:
            seen[d] = 1
            lab = edges[d >> 1][2]
            cycle.append(-(lab + 1) if d & 1 else lab + 1)
            d = succ[d ^ 1]
        cycles.append(tuple(cycle))
    return cycles


def _key_edges(key):
    """A key's edges label by label, sources ascending, read off its bytes."""
    rank, _, body = key.split(b";", 2)
    rank, enc = int(rank), array("i", body)
    return [(u, v, lab) for lab in range(rank)
            for u, v in enumerate(enc[2 * lab::2 * rank]) if v >= 0]


@pytest.mark.parametrize("make_surface, max_index", [
    (geometry.modular_torus, 5),
    (lambda: geometry.surface_from_file(str(DYADIC)), 5),
    (_rank_one, 4),
    (_four_punctured, 4),
], ids=["modular", "dyadic", "rank-1", "four-punctured"])
def test_table_walk_is_the_edge_walk_on_keyed_graphs(rng, make_surface, max_index):
    # the same cycles, in the same order and rotation, as the edge-id walk
    # over a key's edges read label by label
    surface = make_surface()
    sigma = surface.ribbon_order
    keys = [graphs.subgroup_class(g).key
            for k in range(1, max_index + 1) for g in graphs.subgroups_of_index(surface.rank, k)]
    if surface.rank > 1:
        keys += [random_subgroup_class(rng, surface).key for _ in range(300)]
    for key in keys:
        assert ribbon.boundary_cycles(graphs.from_key(key), sigma) == \
            _edge_walk(_key_edges(key), surface.rank, sigma)


def test_table_walk_is_the_edge_walk_up_to_order(rng, torus):
    # on folds, cores and enumerated covers, whose readers never relied on
    # the order of the walks: equal as multisets of conjugacy classes
    cases = [g for k in range(1, 5) for g in graphs.subgroups_of_index(2, k)]
    for _ in range(300):
        gens = [random_reduced_word(rng, 2, 10) for _ in range(rng.randint(1, 3))]
        try:
            g = graphs.fold(gens, rank=2)
            cases += [g, graphs.core(g)]
        except TrivialSubgroupError:
            continue
    for g in cases:
        want = _edge_walk(g.edges, g.rank, torus.ribbon_order)
        got = ribbon.boundary_cycles(g, torus.ribbon_order)
        assert Counter(map(words.conj_class, got)) == Counter(map(words.conj_class, want))


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
