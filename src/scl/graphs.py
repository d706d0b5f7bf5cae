"""Stallings core graphs for finitely generated subgroups of a free group.

A graph is *folded* when no vertex carries two outgoing or two incoming
edges with the same label; the folded basepointed graph of a generator
list recognizes exactly the subgroup they generate.  Forgetting the
basepoint and pruning degree-1 spurs yields the core graph, a complete
conjugacy invariant.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from . import words
from .errors import (
    InputError,
    PeripheralSubgroupError,
    ResourceLimitError,
    TrivialSubgroupError,
)

DEFAULT_INDEX_CAP = 8


class CoreGraph:
    """Labeled directed graph over a rank-n alphabet.

    ``edges`` is a tuple of ``(src, dst, label)`` with labels in ``[0, n)``.
    Plain immutable data: derived forms (neighbor tables, the canonical
    key) are computed where they are needed, never cached on the graph.
    """

    __slots__ = ("vertex_count", "edges", "rank", "basepoint")

    def __init__(self, vertex_count, edges, rank, basepoint=None):
        self.vertex_count = vertex_count
        self.edges = tuple(edges)
        self.rank = rank
        self.basepoint = basepoint

    @property
    def cycle_rank(self):
        """E - V + 1, the rank of the represented subgroup."""
        return len(self.edges) - self.vertex_count + 1

    def __repr__(self):
        return (f"CoreGraph(V={self.vertex_count}, E={len(self.edges)}, "
                f"rank={self.rank}, basepoint={self.basepoint})")


def _tables(g: CoreGraph):
    """Neighbor maps ``v -> w``, two per label: ``tables[2 * lab]``
    follows the edge forward, ``tables[2 * lab + 1]`` backward."""
    tables = [dict() for _ in range(2 * g.rank)]
    for u, v, lab in g.edges:
        tables[2 * lab][u] = v
        tables[2 * lab + 1][v] = u
    return tables


def _find(parent, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _fold(vertex_count, edges, rank, basepoint) -> CoreGraph:
    """Stallings fold of a graph whose edges ``(u, v, word)`` read nonempty
    words.

    Each edge is subdivided into a path spelling its word.  Identification
    of same-label edge pairs is processed through a union-find merge
    queue, so the cost is near-linear in the total word length.
    """
    edge_list = []
    nv = vertex_count
    for u, v, w in edges:
        path = (u, *range(nv, nv + len(w) - 1), v)
        nv += len(w) - 1
        for j, l in enumerate(w):
            edge_list.append((path[j], path[j + 1], l - 1) if l > 0
                             else (path[j + 1], path[j], -l - 1))

    parent = list(range(nv))
    out_m = [dict() for _ in range(nv)]
    in_m = [dict() for _ in range(nv)]
    merges = []

    for u, v, lab in edge_list:
        u, v = _find(parent, u), _find(parent, v)
        if (t := out_m[u].get(lab)) is not None:
            t = _find(parent, t)
            if t != v:
                merges.append((t, v))
        elif (s := in_m[v].get(lab)) is not None:
            s = _find(parent, s)
            if s != u:
                merges.append((s, u))
        else:
            out_m[u][lab] = v
            in_m[v][lab] = u
        while merges:
            a, b = merges.pop()
            a, b = _find(parent, a), _find(parent, b)
            if a == b:
                continue
            if len(out_m[a]) + len(in_m[a]) < len(out_m[b]) + len(in_m[b]):
                a, b = b, a
            parent[b] = a
            for side in (out_m, in_m):
                kept, gone = side[a], side[b]
                side[b] = None
                for lab2, t2 in gone.items():
                    cur = kept.get(lab2)
                    if cur is None:
                        kept[lab2] = t2
                    else:
                        cur, t2 = _find(parent, cur), _find(parent, t2)
                        if cur != t2:
                            merges.append((cur, t2))

    roots = [v for v in range(nv) if _find(parent, v) == v]
    number = {r: i for i, r in enumerate(roots)}
    out = []
    for r in roots:
        for lab, t in out_m[r].items():
            out.append((number[r], number[_find(parent, t)], lab))
    out.sort()
    if basepoint is not None:
        basepoint = number[_find(parent, basepoint)]
    return CoreGraph(len(roots), out, rank, basepoint=basepoint)


def fold(generators, rank=None) -> CoreGraph:
    """Fold the wedge of generator loops into the basepointed graph of
    ``H = <generators>``."""
    ws = [w for w in map(words.reduce, generators) if w]
    if not ws:
        raise TrivialSubgroupError("all generators reduce to the identity")
    if rank is None:
        rank = max(max(abs(l) for l in w) for w in ws)
    else:
        for w in ws:
            words.check_rank(w, rank)
    return _fold(1, [(0, 0, w) for w in ws], rank, basepoint=0)


def pushforward(g: CoreGraph, images) -> CoreGraph:
    """Folded image of ``g`` under the endomorphism sending generator
    ``lab`` to the word ``images[lab]``: every label-``lab`` edge becomes a
    path spelling its image (Stallings 1983), and the basepoint follows."""
    if len(images) != g.rank or not all(images):
        raise InputError(f"need {g.rank} nontrivial generator images, got {images!r}")
    for w in images:
        words.check_rank(w, g.rank)
    return _fold(g.vertex_count, [(u, v, images[lab]) for u, v, lab in g.edges],
                 g.rank, basepoint=g.basepoint)


def cycle(letters, rank) -> CoreGraph:
    """Core graph of ``<w>`` for a nontrivial cyclically reduced word ``w``:
    one cycle, letter ``j`` read along the edge from vertex ``j`` to
    vertex ``j + 1`` (mod ``len(w)``), already folded and with no spurs."""
    n = len(letters)
    edges = [(j, (j + 1) % n, l - 1) if l > 0 else ((j + 1) % n, j, -l - 1)
             for j, l in enumerate(letters)]
    return CoreGraph(n, sorted(edges), rank)


def core(g: CoreGraph) -> CoreGraph:
    """Basepoint-free core: prune degree-1 spurs until min degree is 2."""
    nv, ne = g.vertex_count, len(g.edges)
    deg = [0] * nv
    incident = [[] for _ in range(nv)]
    for eid, (u, v, _) in enumerate(g.edges):
        deg[u] += 1
        deg[v] += 1
        incident[u].append(eid)
        incident[v].append(eid)
    dead_v = [False] * nv
    dead_e = [False] * ne
    stack = [v for v in range(nv) if deg[v] <= 1]
    while stack:
        v = stack.pop()
        if dead_v[v] or deg[v] > 1:
            continue
        dead_v[v] = True
        for eid in incident[v]:
            if dead_e[eid]:
                continue
            dead_e[eid] = True
            u, w, _ = g.edges[eid]
            other = w if u == v else u
            deg[v] -= 1
            deg[other] -= 1
            if not dead_v[other] and deg[other] <= 1:
                stack.append(other)
    keep = [v for v in range(nv) if not dead_v[v]]
    if not keep:
        raise TrivialSubgroupError("graph has no cycles; subgroup is trivial")
    number = {v: i for i, v in enumerate(keep)}
    edges = sorted(
        (number[u], number[v], lab)
        for eid, (u, v, lab) in enumerate(g.edges)
        if not dead_e[eid]
    )
    return CoreGraph(len(keep), edges, g.rank, basepoint=None)


def contains(g: CoreGraph, w) -> bool:
    """Membership: does ``w`` trace a closed path at the basepoint?"""
    w = words.reduce(w)
    words.check_rank(w, g.rank)
    tables = _tables(g)
    base = g.basepoint if g.basepoint is not None else 0
    v = base
    for l in w:
        v = tables[2 * l - 2 if l > 0 else -2 * l - 1].get(v)
        if v is None:
            return False
    return v == base


def index(g: CoreGraph):
    """Covering index: vertex count for a complete cover, else None."""
    per_label = [0] * g.rank
    for _, _, lab in g.edges:
        per_label[lab] += 1
    if all(c == g.vertex_count for c in per_label):
        return g.vertex_count
    return None


def _vertex_profiles(g: CoreGraph):
    """Degree-first local invariant; ties broken by incident dart types."""
    prof = [[] for _ in range(g.vertex_count)]
    for u, v, lab in g.edges:
        prof[u].append(2 * lab)
        prof[v].append(2 * lab + 1)
    return [(len(p), tuple(sorted(p))) for p in prof]


def _encode_min(tables, starts, width):
    """Least BFS encoding over ``starts``, grown in lockstep.

    Each step reads the next discovered vertex of every surviving start
    and appends its 2 * rank entries; only the starts whose encoding so
    far is the least survive the step.  All encodings have length
    ``width``, so the survivors' common encoding is the lexicographic
    minimum over all starts.
    """
    runs = [({s: 0}, [s]) for s in starts]
    enc = []
    for step in range(width // len(tables)):
        best = None
        for order, verts in runs:
            v = verts[step]
            chunk = []
            for table in tables:
                w = table.get(v)
                if w is None:
                    chunk.append(-1)
                    continue
                j = order.get(w)
                if j is None:
                    j = order[w] = len(verts)
                    verts.append(w)
                chunk.append(j)
            if best is None or chunk < best:
                best, kept = chunk, [(order, verts)]
            elif chunk == best:
                kept.append((order, verts))
        runs = kept
        enc += best
    return enc


def canonical_key(g: CoreGraph) -> bytes:
    """Isomorphism-complete key of a connected folded graph.

    Minimum over distinguished start vertices of a deterministic BFS
    encoding; the encoding lists, per discovered vertex and (label,
    direction), the discovery index of the neighbor, which reconstructs
    the graph up to relabeling.
    """
    profiles = _vertex_profiles(g)
    best_profile = max(profiles)
    starts = [v for v, p in enumerate(profiles) if p == best_profile]
    width = 2 * g.rank * g.vertex_count
    tables = _tables(g)
    enc = _encode_min(tables, starts, width)
    return b"%d;%d;" % (g.rank, g.vertex_count) + array("i", enc).tobytes()


def from_key(key: bytes) -> CoreGraph:
    """The one reader of ``canonical_key``: vertices in discovery order, no
    basepoint.  Label ``lab``'s edges are column ``2 * lab`` of the
    2 * rank entries listed per vertex."""
    rank, vertex_count, body = key.split(b";", 2)
    rank, enc = int(rank), array("i", body)
    edges = [(u, v, lab) for lab in range(rank)
             for u, v in enumerate(enc[2 * lab::2 * rank]) if v >= 0]
    return CoreGraph(int(vertex_count), edges, rank)


def _spanning_tree(g: CoreGraph):
    """BFS spanning tree from the basepoint (vertex 0 if there is none).

    Returns ``parent``, mapping each vertex to ``(previous vertex, signed
    letter into it)`` or None at the root, and the tree edges as
    ``(src, dst, label)`` triples, which name an edge of a folded graph.
    """
    base = g.basepoint if g.basepoint is not None else 0
    tables = _tables(g)
    parent = {base: None}
    order = [base]
    tree = set()
    for v in order:
        for lab in range(g.rank):
            w = tables[2 * lab].get(v)
            if w is not None and w not in parent:
                parent[w] = (v, lab + 1)
                order.append(w)
                tree.add((v, w, lab))
            w = tables[2 * lab + 1].get(v)
            if w is not None and w not in parent:
                parent[w] = (v, -(lab + 1))
                order.append(w)
                tree.add((w, v, lab))
    return parent, tree


def spanning_generators(g: CoreGraph):
    """Free basis of the subgroup: one word per non-tree edge of a BFS tree."""
    parent, tree = _spanning_tree(g)

    def path_to(v):
        rev = []
        link = parent[v]
        while link is not None:
            rev.append(link[1])
            link = parent[link[0]]
        rev.reverse()
        return rev

    gens = []
    for u, v, lab in g.edges:
        if (u, v, lab) in tree:
            continue
        gens.append(words.concat(path_to(u), (lab + 1,), words.inverse(path_to(v))))
    return gens


@dataclass(frozen=True, slots=True)
class SubgroupClass:
    """Conjugacy class of a finitely generated subgroup: the canonical key
    of its basepoint-free core graph, which ``from_key`` decodes."""

    key: bytes

    @property
    def euler_char(self):
        """V - E, read off the key: V from the header, and each edge is
        listed twice (at its source and its target) among the entries."""
        _, vertex_count, body = self.key.split(b";", 2)
        enc = array("i", body)
        return int(vertex_count) - (len(enc) - enc.count(-1)) // 2

    @property
    def rank(self):
        return 1 - self.euler_char


def subgroup_class(source, surface=None, rank=None) -> SubgroupClass:
    """Build a SubgroupClass from generator words or a folded graph.

    With a surface given, rejects cyclic subgroups whose root is
    peripheral (their limit set is a single point).
    """
    if isinstance(source, CoreGraph):
        g = source
    else:
        if rank is None and surface is not None:
            rank = surface.rank
        g = fold(source, rank=rank)
    g = core(g)
    if surface is not None and g.cycle_rank == 1:
        check_not_peripheral(words.conj_class(spanning_generators(g)[0]), surface)
    return SubgroupClass(canonical_key(g))


def check_not_peripheral(c: words.ConjClass, surface) -> None:
    """Raise unless the cyclic subgroup generated by ``c`` is in the
    subgroup universe: a peripheral root has a single-point limit set."""
    if words.is_peripheral(c, surface)[0]:
        raise PeripheralSubgroupError(
            "cyclic subgroup with peripheral root is outside the subgroup universe"
        )


def bouquet(rank: int) -> CoreGraph:
    """The whole group: one vertex, one loop per generator."""
    return CoreGraph(1, [(0, 0, lab) for lab in range(rank)], rank, basepoint=0)


def subgroups_of_index(rank: int, k: int, cap: int = DEFAULT_INDEX_CAP):
    """All index-k subgroups of the rank-n free group, one per subgroup.

    Enumerated as transitive permutation actions on {0..k-1} with marked
    point 0, using first-appearance numbering of points so each subgroup
    appears exactly once.  Returned as complete basepointed cover graphs.
    """
    if rank < 1 or k < 1:
        raise InputError("rank and index must be positive")
    if k > cap:
        raise ResourceLimitError(f"index {k} above cap {cap}")
    tables = []
    table = [[None] * k for _ in range(rank)]
    used = [[False] * k for _ in range(rank)]

    def rec(slot, introduced):
        if slot == rank * k:
            tables.append([row[:] for row in table])
            return
        p, gidx = divmod(slot, rank)
        if p >= introduced:
            return
        for q in range(min(introduced + 1, k)):
            if used[gidx][q]:
                continue
            table[gidx][p] = q
            used[gidx][q] = True
            rec(slot + 1, introduced + 1 if q == introduced else introduced)
            used[gidx][q] = False
        table[gidx][p] = None

    rec(0, 1)
    graphs = []
    for tab in tables:
        edges = [(p, tab[gidx][p], gidx) for gidx in range(rank) for p in range(k)]
        edges.sort()
        graphs.append(CoreGraph(k, edges, rank, basepoint=0))
    return graphs


def finite_index_subgroups(h: SubgroupClass, k: int, cap: int = DEFAULT_INDEX_CAP):
    """All index-k subgroups of ``h``, as covers of its core graph.

    The monodromy of each non-tree edge runs over the index-k actions of
    the free group on the basis; tree edges lift sheet-by-sheet.  Every
    returned graph is a connected k-sheeted cover: V' = kV, E' = kE.
    """
    g = from_key(h.key)
    _, tree = _spanning_tree(g)
    non_tree = [e for e in g.edges if e not in tree]
    m = len(non_tree)
    assert m == g.cycle_rank

    covers = []
    for action in subgroups_of_index(m, k, cap=cap):
        perms = [[None] * k for _ in range(m)]
        for p, q, lab in action.edges:
            perms[lab][p] = q
        edges = []
        for u, v, lab in g.edges:
            if (u, v, lab) in tree:
                for s in range(k):
                    edges.append((u * k + s, v * k + s, lab))
            else:
                perm = perms[non_tree.index((u, v, lab))]
                for s in range(k):
                    edges.append((u * k + s, v * k + perm[s], lab))
        edges.sort()
        cover = CoreGraph(g.vertex_count * k, edges, g.rank, basepoint=None)
        covers.append(SubgroupClass(canonical_key(cover)))
    return covers
