import hashlib
import itertools
import random
from array import array

import pytest

from scl import graphs, mcg, words
from scl.errors import InputError, ResourceLimitError, TrivialSubgroupError
from conftest import (
    hall_count,
    random_mapping_class,
    random_reduced_word,
    random_subgroup_class,
)

W = words.word_from_str

PAPER_H = [W(w) for w in ("aaaa", "ab", "bb", "aaba", "aaBa")]
PAPER_PHI_H = [W(w) for w in ("aaaa", "aab", "abab", "aaaba", "aaB")]


def test_fold_examples():
    g = graphs.fold([W("a"), W("b")])
    assert (g.vertex_count, len(g.edges)) == (1, 2)
    g = graphs.fold([W("aa"), W("b")])
    assert (g.vertex_count, len(g.edges)) == (2, 3)
    g = graphs.fold(PAPER_H)
    assert (g.vertex_count, len(g.edges)) == (4, 8)


def test_fold_rejects_trivial():
    with pytest.raises(TrivialSubgroupError):
        graphs.fold([W("aA"), ()])


def test_fold_is_folded(rng):
    for _ in range(200):
        gens = [random_reduced_word(rng, 3, 12) for _ in range(rng.randint(1, 4))]
        g = graphs.fold(gens, rank=3)
        for lab in range(g.rank):
            outs = [u for u, _, l in g.edges if l == lab]
            ins = [v for _, v, l in g.edges if l == lab]
            assert len(outs) == len(set(outs))
            assert len(ins) == len(set(ins))


def test_contains():
    g = graphs.fold([W("aa"), W("b")])
    assert graphs.contains(g, W("aabb"))
    assert graphs.contains(g, W("aab"))  # aa * b
    assert not graphs.contains(g, W("a"))
    assert not graphs.contains(g, W("ab"))
    assert graphs.contains(g, ())


def test_contains_generators(rng):
    for _ in range(100):
        gens = [random_reduced_word(rng, 2, 10) for _ in range(rng.randint(1, 3))]
        g = graphs.fold(gens, rank=2)
        for w in gens:
            assert graphs.contains(g, w)


def test_index():
    assert graphs.index(graphs.bouquet(2)) == 1
    assert graphs.index(graphs.fold([W("aa"), W("b")])) is None
    assert graphs.index(graphs.fold(PAPER_H)) == 4
    assert graphs.index(graphs.fold(PAPER_PHI_H)) == 4


def test_canonical_key_conjugate_cyclic():
    a = graphs.core(graphs.fold([W("abA")], rank=2))
    b = graphs.core(graphs.fold([W("b")], rank=2))
    assert graphs.canonical_key(a) == graphs.canonical_key(b)


def test_cycle_is_the_core_of_a_cyclic_subgroup(rng):
    # the one-cycle core graph of a cyclically reduced word, in any rotation
    # or power, is the folded core graph of the subgroup it generates, and
    # cycle_key keys it from the word's letters alone
    for _ in range(60):
        rank = rng.randint(1, 3)
        w = words.conj_class(random_reduced_word(rng, rank, 14)).letters
        w = (w[rng.randrange(len(w)):] + w)[:len(w)] * rng.randint(1, 3)
        g = graphs.core(graphs.fold([w], rank=rank))
        assert (g.vertex_count, g.cycle_rank, g.basepoint) == (len(w), 1, None)
        assert graphs.cycle_key(words._encode(w), rank) == graphs.canonical_key(g)
    assert graphs.core(graphs.fold([W("aB")], rank=2)).edges == ((0, 1, 0), (0, 1, 1))


def test_canonical_key_separates_paper_example():
    h = graphs.core(graphs.fold(PAPER_H))
    ph = graphs.core(graphs.fold(PAPER_PHI_H))
    assert graphs.canonical_key(h) != graphs.canonical_key(ph)


def _relabel(g, perm):
    edges = sorted((perm[u], perm[v], lab) for u, v, lab in g.edges)
    return graphs.CoreGraph(g.vertex_count, edges, g.rank)


def test_canonical_key_relabel_invariant(rng, torus):
    for _ in range(100):
        h = random_subgroup_class(rng, torus)
        g = graphs.from_key(h.key)
        perm = list(range(g.vertex_count))
        rng.shuffle(perm)
        assert graphs.canonical_key(_relabel(g, perm)) == h.key


def _brute_force_isomorphic(g1, g2):
    if (g1.vertex_count, len(g1.edges), g1.rank) != (g2.vertex_count, len(g2.edges), g2.rank):
        return False
    target = set(g2.edges)
    for perm in itertools.permutations(range(g1.vertex_count)):
        if all((perm[u], perm[v], lab) in target for u, v, lab in g1.edges):
            return True
    return False


def test_canonical_key_complete(rng, torus):
    pool = [graphs.from_key(random_subgroup_class(rng, torus, max_rank=2, max_len=5).key)
            for _ in range(60)]
    pool = [g for g in pool if g.vertex_count <= 6]
    checked = 0
    for g1, g2 in itertools.combinations(pool, 2):
        if checked >= 200:
            break
        checked += 1
        same_key = graphs.canonical_key(g1) == graphs.canonical_key(g2)
        assert same_key == _brute_force_isomorphic(g1, g2)


def _exhaustive_key(g):
    """The key as the least of the full BFS encodings from every start of
    best profile, built from dict tables and sorted-tuple profiles and
    sharing no code with ``canonical_key``."""
    darts = [[] for _ in range(g.vertex_count)]
    tables = [{} for _ in range(2 * g.rank)]
    for u, v, lab in g.edges:
        darts[u].append(2 * lab)
        darts[v].append(2 * lab + 1)
        tables[2 * lab][u] = v
        tables[2 * lab + 1][v] = u
    profiles = [(len(d), tuple(sorted(d))) for d in darts]

    def encode_from(start):
        order = {start: 0}
        verts = [start]
        enc = []
        for v in verts:
            for table in tables:
                w = table.get(v)
                if w is None:
                    enc.append(-1)
                    continue
                if w not in order:
                    order[w] = len(verts)
                    verts.append(w)
                enc.append(order[w])
        return enc

    best = max(profiles)
    enc = min(encode_from(s) for s, p in enumerate(profiles) if p == best)
    return b"%d;%d;" % (g.rank, g.vertex_count) + array("i", enc).tobytes()


def _random_cyclic_word(rng, rank, n):
    """A cyclically reduced word of exactly ``n`` letters."""
    w = []
    while len(w) < n:
        l = rng.choice([1, -1]) * rng.randint(1, rank)
        if w and (l == -w[-1] or len(w) == n - 1 and l == -w[0]):
            continue
        w.append(l)
    return w


def test_canonical_key_is_the_exhaustive_minimum(rng):
    cores = []
    for n in range(1, 9):
        for w in itertools.product((1, -1, 2, -2), repeat=n):
            if all(w[i] != -w[i - 1] for i in range(n)):
                cores.append(graphs.core(graphs.fold([w], rank=2)))
    assert len(cores) == 9856
    for k in range(1, 7):
        cores += graphs.subgroups_of_index(2, k)
    for _ in range(300):
        rank = rng.randint(2, 4)
        gens = [random_reduced_word(rng, rank, 12) for _ in range(rng.randint(2, 4))]
        cores.append(graphs.core(graphs.fold(gens, rank=rank)))
    # one-cycle graphs as long as the members of a curve's orbit ball
    for _ in range(200):
        w = _random_cyclic_word(rng, 2, rng.randint(20, 61))
        cores.append(graphs.core(graphs.fold([w], rank=2)))
    for g in cores:
        key = graphs.canonical_key(g)
        assert key == _exhaustive_key(g)
        assert graphs.canonical_key(graphs.from_key(key)) == key
        h = graphs.SubgroupClass(key)
        assert (h.rank, h.euler_char) == (g.cycle_rank, g.vertex_count - len(g.edges))


def _cyclic_words(rank, n):
    """Every cyclically reduced word of ``n`` letters over ``rank`` generators."""
    letters = [l for g in range(1, rank + 1) for l in (g, -g)]
    for w in itertools.product(letters, repeat=n):
        if all(w[i] != -w[i - 1] for i in range(n)):
            yield w


def _cycle_key_matches(w, rank):
    want = graphs.canonical_key(graphs.core(graphs.fold([w], rank=rank)))
    return graphs.cycle_key(words._encode(w), rank) == want


def test_cycle_key_is_the_key_of_the_folded_cycle(rng):
    checked = 0
    for rank, longest in ((1, 8), (2, 8), (3, 5)):
        for n in range(1, longest + 1):
            for w in _cyclic_words(rank, n):
                assert _cycle_key_matches(w, rank), (rank, w)
                checked += 1
    assert checked == 16 + 9856 + 3918
    # long words, and powers, where starts of best profile tie
    for _ in range(150):
        rank = rng.randint(1, 4)
        w = tuple(_random_cyclic_word(rng, rank, rng.randint(1, 120)))
        assert _cycle_key_matches(w, rank), (rank, w)
        mu = words.conj_class(w[:rng.randint(1, 30)]).letters
        for m in range(1, 5):
            assert _cycle_key_matches(mu * m, rank), (rank, mu, m)


def _pruned(g):
    """Reference core: drop the first vertex of degree <= 1 until there is
    none, then number the survivors in order."""
    alive = list(range(g.vertex_count))
    edges = list(g.edges)
    while True:
        deg = dict.fromkeys(alive, 0)
        for u, v, _ in edges:
            deg[u] += 1
            deg[v] += 1
        spur = next((v for v in alive if deg[v] <= 1), None)
        if spur is None:
            break
        alive.remove(spur)
        edges = [e for e in edges if spur not in e[:2]]
    number = {v: i for i, v in enumerate(alive)}
    return len(alive), tuple(sorted((number[u], number[v], lab) for u, v, lab in edges)), None


def _min_degree(g):
    deg = [0] * g.vertex_count
    for u, v, _ in g.edges:
        deg[u] += 1
        deg[v] += 1
    return min(deg)


def test_core_returns_a_spur_free_graph_as_it_is(rng):
    spur_free = list(graphs.subgroups_of_index(2, 4))
    for _ in range(50):
        c = graphs.core(graphs.fold([_random_cyclic_word(rng, 2, rng.randint(1, 30))], rank=2))
        spur_free.append(graphs.CoreGraph(c.vertex_count, c.edges, c.rank, basepoint=0))
    for _ in range(100):
        rank = rng.randint(2, 3)
        gens = [random_reduced_word(rng, rank, 10) for _ in range(rng.randint(1, 3))]
        try:
            c = graphs.core(graphs.fold(gens, rank=rank))
        except TrivialSubgroupError:
            continue
        edges = list(c.edges)
        rng.shuffle(edges)
        spur_free.append(graphs.CoreGraph(c.vertex_count, edges, c.rank, basepoint=0))
    for g in spur_free:
        assert g.basepoint == 0 and _min_degree(g) > 1
        c = graphs.core(g)
        assert (c.vertex_count, c.edges, c.basepoint) == _pruned(g)


def test_core_still_prunes_spurs(rng):
    c = graphs.core(graphs.fold([W("abA")]))
    assert (c.vertex_count, c.edges, c.basepoint) == (1, ((0, 0, 1),), None)
    pruned = 0
    for _ in range(200):
        # conjugating every generator by one word grows a stem at the basepoint
        u = random_reduced_word(rng, 2, 6)
        gens = [words.concat(u, random_reduced_word(rng, 2, 10), words.inverse(u))
                for _ in range(rng.randint(1, 3))]
        try:
            g = graphs.fold(gens, rank=2)
        except TrivialSubgroupError:
            continue
        if _min_degree(g) > 1:
            continue
        c = graphs.core(g)
        assert (c.vertex_count, c.edges, c.basepoint) == _pruned(g)
        assert c.vertex_count < g.vertex_count
        pruned += 1
    assert pruned > 100


def test_edge_list_round_trips_through_the_slot_table(rng):
    # a graph rebuilt from its edges, in any order, is the same table
    for _ in range(500):
        rank = rng.randint(1, 3)
        gens = [random_reduced_word(rng, rank, 12) for _ in range(rng.randint(1, 4))]
        g = graphs.fold(gens, rank=rank)
        for h in (g, graphs.core(g)):
            edges = list(h.edges)
            assert edges == sorted(edges) and len(edges) == h.cycle_rank + h.vertex_count - 1
            rng.shuffle(edges)
            rebuilt = graphs.CoreGraph(h.vertex_count, edges, h.rank, basepoint=h.basepoint)
            assert (rebuilt.table, rebuilt.edges) == (h.table, h.edges)
            assert graphs.canonical_key(rebuilt) == graphs.canonical_key(h)


@pytest.mark.parametrize("vertex_count, edges, rank, basepoint", [
    (2, [(0, 1, 0), (0, 0, 0)], 1, None),
    (2, [(0, 1, 0), (1, 1, 0)], 1, None),
    (2, [(0, 2, 0)], 2, None),
    (2, [(-1, 0, 0)], 2, None),
    (2, [(0, 1, 2)], 2, None),
    (2, [(0, 0, 0), (1, 1, 0)], 2, None),
    (3, [(0, 0, 0), (1, 2, 0), (2, 1, 0)], 1, None),
    (2, [(v, v, lab) for v in (0, 1) for lab in (0, 1)], 2, None),
    (1, [(0, 0, 0)], 1, 1),
    (1, [(0, 0, 0)], 1, -1),
    (0, [], 2, 0),
], ids=["out-slot-twice", "in-slot-twice", "vertex-high", "vertex-negative", "label-high",
        "two-loops", "loop-beside-2-cycle", "two-bouquets", "basepoint-high",
        "basepoint-negative", "basepoint-without-vertices"])
def test_core_graph_refuses_an_edge_list_no_folded_graph_has(vertex_count, edges, rank,
                                                             basepoint):
    with pytest.raises(InputError):
        graphs.CoreGraph(vertex_count, edges, rank, basepoint=basepoint)


def test_core_of_a_graph_without_cycles_is_trivial():
    for g in (graphs.CoreGraph(0, [], 2),
              graphs.CoreGraph(1, [], 2, basepoint=0),
              graphs.CoreGraph(3, [(0, 1, 0), (2, 1, 1)], 2, basepoint=0)):
        with pytest.raises(TrivialSubgroupError):
            graphs.core(g)


def test_folding_confluent(rng):
    for _ in range(50):
        gens = [random_reduced_word(rng, 2, 10) for _ in range(rng.randint(2, 4))]
        k0 = graphs.canonical_key(graphs.core(graphs.fold(gens, rank=2)))
        shuffled = gens[:]
        rng.shuffle(shuffled)
        k1 = graphs.canonical_key(graphs.core(graphs.fold(shuffled, rank=2)))
        assert k0 == k1


def test_pushforward_identity(rng):
    identity = [(1,), (2,), (3,)]
    for _ in range(200):
        gens = [random_reduced_word(rng, 3, 12) for _ in range(rng.randint(1, 4))]
        g = graphs.fold(gens, rank=3)
        image = graphs.pushforward(g, identity)
        assert (image.edges, image.basepoint) == (g.edges, g.basepoint)
        assert graphs.canonical_key(graphs.core(image)) == graphs.canonical_key(graphs.core(g))
    bouquet = graphs.bouquet(2)
    image = graphs.pushforward(bouquet, [(1,), (2,)])
    assert (image.vertex_count, image.edges, image.basepoint) == (1, bouquet.edges, 0)


def test_pushforward_is_the_image_subgroup(rng, torus):
    # equal basepointed subgroups: each contains the other's generators
    for _ in range(200):
        phi = random_mapping_class(rng, torus, 5)
        gens = [random_reduced_word(rng, 2, 10) for _ in range(rng.randint(1, 3))]
        try:
            g = graphs.fold(gens, rank=2)
        except TrivialSubgroupError:
            continue
        image = graphs.pushforward(g, phi.images)
        reference = graphs.fold([words.apply(phi, w) for w in gens], rank=2)
        assert all(graphs.contains(image, words.apply(phi, w)) for w in gens)
        assert all(graphs.contains(reference, w) for w in graphs.spanning_generators(image))


def _transvections(rank):
    """Every elementary Nielsen transvection of the rank-n free group: one
    label x sent to x·y or y·x, for each letter y other than x^±1."""
    out = []
    for x in range(rank):
        for y in (s * (lab + 1) for lab in range(rank) if lab != x for s in (1, -1)):
            for moved in ((x + 1, y), (y, x + 1)):
                images = [(lab + 1,) for lab in range(rank)]
                images[x] = moved
                out.append(tuple(images))
    return out


@pytest.mark.parametrize("rank", [2, 3])
def test_transvection_rewrite_is_the_fold(rng, torus, monkeypatch, rank):
    # the one-pass rewrite against the subdivide-and-fold it replaces: the
    # same class, the image subgroup at the same basepoint, and a folded table
    transvections = _transvections(rank)
    assert len(transvections) == len(set(transvections)) == 4 * rank * (rank - 1)
    if rank == 2:
        assert {t.images for t in mcg.twist_generators(torus)} <= set(transvections)
    cases = []  # (graph, generators of its subgroup at its basepoint)
    for i in range(60):
        gens = [random_reduced_word(rng, rank, 8) for _ in range(rng.randint(1, 3))]
        if i % 2:  # conjugated, for a basepoint on a spur
            u = random_reduced_word(rng, rank, 3)
            gens = [words.concat(u, w, words.inverse(u)) for w in gens]
        g = graphs.fold(gens, rank=rank)
        c = graphs.from_key(graphs.canonical_key(graphs.core(g)))
        cases += [(g, gens), (c, graphs.spanning_generators(c))]
    spurs = [g for g, _ in cases if graphs.core(g).vertex_count < g.vertex_count]
    assert len(spurs) > 10
    covers = [g for k in (1, 2, 3) for g in graphs.subgroups_of_index(rank, k)]
    index4 = graphs.subgroups_of_index(rank, 4)
    covers += index4 if rank == 2 else rng.sample(index4, 100)
    cases += [(g, graphs.spanning_generators(g)) for g in covers]

    fold = graphs._fold
    monkeypatch.setattr(graphs, "_fold", lambda *a, **kw: pytest.fail("the rewrite folded"))
    for g, gens in cases:
        for images in transvections:
            image = graphs.pushforward(g, images)
            folded = fold(g.vertex_count, [(u, v, images[lab]) for u, v, lab in g.edges],
                          rank, g.basepoint)
            assert graphs.canonical_key(graphs.core(image)) == \
                graphs.canonical_key(graphs.core(folded))
            assert image.basepoint == g.basepoint
            phi = words.Automorphism(images=images)
            assert all(graphs.contains(image, words.apply(phi, w)) for w in gens)
            # each edge fills its two slots and no slot twice
            assert graphs.CoreGraph(image.vertex_count, image.edges, rank).table == image.table


def test_only_elementary_transvections_skip_the_fold(monkeypatch):
    g = graphs.core(graphs.fold([W("aab"), W("bAb")], rank=2))
    folds = []
    fold = graphs._fold
    monkeypatch.setattr(graphs, "_fold", lambda *a, **kw: folds.append(a) or fold(*a, **kw))
    others = [
        ((1,), (2,)),            # the identity
        ((1, 2, 2), (2,)),       # a power of b
        ((1, 1), (2,)),          # y = x
        ((1, -2), (2, -1)),      # two moved labels
        ((-2, 1, 2), (2,)),      # a conjugate
        ((-1,), (2,)),           # an inversion
        ((2,), (1,)),            # a swap
    ]
    for images in others:
        assert graphs._transvection(images) is None
        graphs.pushforward(g, images)
    assert len(folds) == len(others)
    assert [graphs._transvection(t) for t in (((1, 2), (2,)), ((1,), (-1, 2)))] == \
        [(0, 2, True), (1, -1, False)]


def test_pushforward_rejects_bad_images():
    for images in ([(1,)], [(1,), (3,)], [(), (2,)]):
        with pytest.raises(InputError):
            graphs.pushforward(graphs.bouquet(2), images)


def test_spanning_generators():
    assert sorted(graphs.spanning_generators(graphs.bouquet(2))) == [(1,), (2,)]
    g = graphs.fold([W("aa"), W("b")])
    basis = graphs.spanning_generators(g)
    assert len(basis) == g.cycle_rank == 2
    refolded = graphs.fold(basis, rank=2)
    assert graphs.canonical_key(graphs.core(refolded)) == graphs.canonical_key(graphs.core(g))
    cyc = graphs.core(graphs.fold([W("b")], rank=2))
    assert graphs.spanning_generators(cyc) == [(2,)]


def test_subgroups_of_index_counts():
    assert len(graphs.subgroups_of_index(2, 1)) == 1
    assert len(graphs.subgroups_of_index(2, 2)) == 3
    assert len(graphs.subgroups_of_index(2, 3)) == 13
    for rank in (1, 2, 3):
        for k in range(1, 6):
            assert len(graphs.subgroups_of_index(rank, k)) == hall_count(rank, k)


def test_subgroups_of_index_structure():
    for g in graphs.subgroups_of_index(2, 3):
        assert graphs.index(g) == 3
        assert g.vertex_count == 3
        assert g.cycle_rank == 3 * (2 - 1) + 1


def test_subgroups_of_index_cap():
    with pytest.raises(ResourceLimitError):
        graphs.subgroups_of_index(2, 9)
    with pytest.raises(InputError):
        graphs.subgroups_of_index(0, 1)


def test_subgroups_of_index_refuses_more_covers_than_the_cap(monkeypatch):
    # Hall's count is taken before enumerating: 461 index-5 covers of F2
    monkeypatch.setattr(graphs, "DEFAULT_BALL_CAP", 100)
    assert len(graphs.subgroups_of_index(2, 4)) == 71
    with pytest.raises(ResourceLimitError, match="^the rank-2 free group has 461 subgroups of "
                                                 "index 5, above cap of 100 covers$"):
        graphs.subgroups_of_index(2, 5)


def _digest(data):
    return hashlib.sha256(data).hexdigest()


def test_subgroups_of_index_pins_the_covers_and_keys(torus):
    # the index-6 enumeration, in order, and the key of each cover
    covers = graphs.subgroups_of_index(2, 6)
    assert len(covers) == 3447
    assert _digest(repr([(g.vertex_count, g.edges, g.basepoint) for g in covers]).encode()) == \
        "4c65fbf552e70448e4cfc27a349c29046697e54f8cbc6b5f30abf1d38c985581"
    keys = [graphs.subgroup_class(g, surface=torus).key for g in covers]
    assert len(set(keys)) == 624
    assert _digest(b"\n".join(k.hex().encode() for k in keys)) == \
        "ace5f147dd83e52167f6b65fcb3676da3ce923d601299b5a2350055835e72002"


def test_subgroups_of_index_pins_the_kernel_keys():
    # subgroup_class reads most of those keys from its memo; the kernel
    # itself, run on every cover, must give the same digest
    keys = [graphs.canonical_key(graphs.core(g)) for g in graphs.subgroups_of_index(2, 6)]
    assert _digest(b"\n".join(k.hex().encode() for k in keys)) == \
        "ace5f147dd83e52167f6b65fcb3676da3ce923d601299b5a2350055835e72002"


def test_finite_index_subgroups_cyclic(torus):
    h = graphs.subgroup_class([W("a")], surface=torus, rank=2)
    subs = graphs.finite_index_subgroups(h, 3)
    assert len(subs) == 1
    expected = graphs.subgroup_class([W("aaa")], surface=torus, rank=2)
    assert subs[0] == expected


def test_finite_index_subgroups_bouquet(torus):
    f2 = graphs.subgroup_class([W("a"), W("b")], surface=torus)
    subs = graphs.finite_index_subgroups(f2, 2)
    assert len(subs) == 3
    assert all(h.rank == 3 for h in subs)
    assert len({h.key for h in subs}) == 3


def test_finite_index_subgroups_cover_shape(rng, torus):
    for _ in range(20):
        h = random_subgroup_class(rng, torus, max_rank=3, max_len=8)
        k = rng.randint(1, 3)
        for cover in graphs.finite_index_subgroups(h, k):
            assert graphs.from_key(cover.key).vertex_count == k * graphs.from_key(h.key).vertex_count
            assert len(graphs.from_key(cover.key).edges) == k * len(graphs.from_key(h.key).edges)


@pytest.mark.parametrize("k, count, digest", [
    (2, 3, "0a546daac1e5a0c83a5a8ed4905057f37eb1347965094aa8de38e9cc0fe54100"),
    (3, 13, "fc4a1065ddd2c1a04fa3eee96bd2d62590489f1f3e65d8ec07c17d94a8962b87"),
])
def test_finite_index_subgroups_pins_the_keys(torus, k, count, digest):
    h = graphs.subgroup_class([(1, 1), (2,)], surface=torus)
    covers = graphs.finite_index_subgroups(h, k)
    assert len(covers) == count
    assert _digest(b"\n".join(c.key.hex().encode() for c in covers)) == digest


def test_subgroup_class_keys_each_conjugacy_class_of_covers_once(monkeypatch, torus):
    # every cover of F2 of index <= 6 and of F3 of index <= 4, shuffled, on
    # an empty memo: each class is the kernel's, conjugate covers share one
    # object, and the memo ends with one entry per cover
    rng = random.Random(32)
    for rank, k_max, surface, classes in ((2, 6, torus, 758), (3, 4, None, 653)):
        monkeypatch.setattr(graphs, "_COVER_CLASSES", {})
        covers = [g for k in range(1, k_max + 1) for g in graphs.subgroups_of_index(rank, k)]
        rng.shuffle(covers)
        got = [graphs.subgroup_class(g, surface=surface) for g in covers]
        assert got == [graphs.SubgroupClass(graphs.canonical_key(graphs.core(g))) for g in covers]
        assert len({id(h) for h in got}) == len(set(got)) == classes
        assert len({id(h) for h, g in zip(got, covers) if g.vertex_count == k_max}) == \
            {2: 624, 3: 604}[rank]
        assert graphs._COVER_CLASSES.keys() == {bytes(g.table) for g in covers}

    # a cover numbered any other way, basepoint and all, is found by a
    # re-rooted table
    for g, h in list(zip(covers, got))[:50]:
        perm = list(range(g.vertex_count))
        rng.shuffle(perm)
        moved = graphs.CoreGraph(g.vertex_count, [(perm[u], perm[v], lab) for u, v, lab in g.edges],
                                 rank, basepoint=perm[0])
        assert graphs.subgroup_class(moved) is h
    assert graphs._COVER_CLASSES.keys() == {bytes(g.table) for g in covers}

    # rank-1 covers (cyclic), graphs with an empty slot, no basepoint or 256
    # vertices and more, and word sources are keyed as before, and none of
    # them touches the memo; two bouquets side by side are no graph at all
    memo = graphs._COVER_CLASSES.copy()
    for g in graphs.subgroups_of_index(1, 5):
        assert graphs.subgroup_class(g).key == graphs.canonical_key(graphs.core(g))
    spur = graphs.fold([W("aa"), W("b")])
    assert -1 in spur.table
    assert graphs.subgroup_class(spur, surface=torus).key == \
        graphs.canonical_key(graphs.core(spur))
    for g in graphs.subgroups_of_index(2, 3):
        unrooted = graphs.CoreGraph(g.vertex_count, g.edges, 2)
        assert graphs.subgroup_class(unrooted, surface=torus).key == graphs.canonical_key(g)
    n = 300  # a shifts the vertices along a cycle, b fixes each one
    big = graphs.CoreGraph(n, [(v, (v + 1) % n, 0) for v in range(n)] +
                           [(v, v, 1) for v in range(n)], 2, basepoint=0)
    assert graphs.subgroup_class(big).key == graphs.canonical_key(big)
    with pytest.raises(InputError, match="not connected"):
        graphs.CoreGraph(2, [(v, v, lab) for v in (0, 1) for lab in (0, 1)], 2, basepoint=0)
    assert graphs.subgroup_class([W("aa"), W("b")], surface=torus).key == \
        graphs.canonical_key(graphs.core(spur))
    assert graphs._COVER_CLASSES == memo


def test_an_orbit_walk_of_finite_index_classes_leaves_the_memo_alone(monkeypatch, torus):
    # a twist's image of a class has no basepoint: it is keyed by the kernel,
    # as before, and files nothing
    monkeypatch.setattr(graphs, "_COVER_CLASSES", {})
    twists = mcg.twist_generators(torus)
    for g in graphs.subgroups_of_index(2, 4):
        h = graphs.SubgroupClass(graphs.canonical_key(graphs.core(g)))
        for phi in twists:
            image = graphs.pushforward(graphs.from_key(h.key), phi.images)
            assert mcg.act_on_subgroup(phi, h, torus).key == graphs.canonical_key(graphs.core(image))
    assert graphs._COVER_CLASSES == {}


def test_rerootings_are_the_enumerated_conjugates():
    # the memo files a class under the tables its conjugate covers are
    # enumerated with: a change to either numbering fails here
    for rank in (1, 2, 3):
        for k in range(1, 6):
            tables = {}
            for g in graphs.subgroups_of_index(rank, k):
                rerooted = graphs._rerootings(g)
                assert len(rerooted) == k and rerooted[0] == bytes(g.table)
                covers, seen = tables.setdefault(graphs.canonical_key(g), (set(), set()))
                covers.add(rerooted[0])
                seen.update(rerooted)
            for covers, seen in tables.values():
                assert seen == covers
