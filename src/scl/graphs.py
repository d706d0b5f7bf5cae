"""Stallings core graphs for finitely generated subgroups of a free group.

A graph is *folded* when no vertex carries two outgoing or two incoming
edges with the same label; the folded basepointed graph of a generator
list recognizes exactly the subgroup they generate.  Forgetting the
basepoint and pruning degree-1 spurs yields the core graph, a complete
conjugacy invariant.
"""

from __future__ import annotations

import math
from array import array
from functools import lru_cache
from operator import add

from . import words
from .errors import (
    InputError,
    PeripheralSubgroupError,
    Record,
    ResourceLimitError,
    TrivialSubgroupError,
)

DEFAULT_INDEX_CAP = 8
# the most elements one census may hold: orbit ball members, slopes kept by
# the slope walk (both read it as ``mcg.DEFAULT_BALL_CAP``) and the covers
# of one low-index enumeration
DEFAULT_BALL_CAP = 1_000_000

# _LEAVE[b] is the dart slot at which the letter of byte b leaves its vertex
# (2 * lab, or 2 * lab + 1 for an inverse letter); it arrives at the next
# vertex at the slot ^ 1, _ARRIVE[b].  _FLIP maps a slot to its ^ 1.
_LEAVE = bytes([0, *range(0, 52, 2), *range(1, 52, 2)]).ljust(256, b"\0")
_FLIP = bytes(x ^ 1 for x in range(256))
_ARRIVE = _LEAVE.translate(_FLIP)
_UNSET = array("i", [-1])


class CoreGraph:
    """Labeled directed graph over a rank-n alphabet.

    ``edges`` is a tuple of ``(src, dst, label)`` with labels in ``[0, n)``.
    Plain immutable data: derived forms (the neighbor table, the canonical
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


def _rows(g: CoreGraph):
    """The one neighbor table: per vertex a list of 2 * rank slots, slot
    ``2 * lab`` following its label-``lab`` edge forward and ``2 * lab + 1``
    backward (-1 where there is none), and the bitmask of those slots."""
    rows = [[-1] * (2 * g.rank) for _ in range(g.vertex_count)]
    masks = [0] * g.vertex_count
    for u, v, lab in g.edges:
        rows[u][2 * lab] = v
        rows[v][2 * lab + 1] = u
        masks[u] |= 1 << 2 * lab
        masks[v] |= 2 << 2 * lab
    return rows, masks


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


def core(g: CoreGraph) -> CoreGraph:
    """Basepoint-free core: prune degree-1 spurs until min degree is 2.

    A graph with no spur (every complete cover, every cycle, every core)
    is returned as it is, with sorted edges and no basepoint; incident
    lists are built only when there is something to prune.
    """
    nv = g.vertex_count
    deg = [0] * nv
    for u, v, _ in g.edges:
        deg[u] += 1
        deg[v] += 1
    if nv and min(deg) > 1:
        return CoreGraph(nv, sorted(g.edges), g.rank)
    ne = len(g.edges)
    incident = [[] for _ in range(nv)]
    for eid, (u, v, _) in enumerate(g.edges):
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
    rows, _ = _rows(g)
    base = g.basepoint if g.basepoint is not None else 0
    v = base
    for l in w:
        v = rows[v][2 * l - 2 if l > 0 else -2 * l - 1]
        if v < 0:
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


def canonical_key(g: CoreGraph) -> bytes:
    """Isomorphism-complete key of a connected folded graph.

    The least breadth-first encoding over the start vertices of best
    profile.  A vertex's profile is the set of its dart types (``2 * lab``
    out, ``2 * lab + 1`` in), kept as a bitmask and ordered by size, then
    by its sorted types.  From a start, the encoding lists for each
    discovered vertex its 2 * rank neighbor slots as discovery indices (-1
    where there is no edge), which reconstructs the graph up to
    relabeling.

    The encodings from all starts grow in lockstep, one vertex per step,
    and only the starts whose encoding so far is least survive a step.
    Once one start is left, its encoding is finished without comparing.
    """
    n, slots = g.vertex_count, 2 * g.rank
    rows, masks = _rows(g)
    best = max(set(masks), key=lambda m: (
        m.bit_count(), [t for t in range(slots) if m >> t & 1]))
    runs = []
    for s, m in enumerate(masks):
        if m == best:
            order = [-1] * n
            order[s] = 0
            runs.append((order, [s]))
    enc = []
    step = 0
    while len(runs) > 1 and step < n:
        least = None
        for order, verts in runs:
            chunk = []
            for w in rows[verts[step]]:
                if w >= 0:
                    j = order[w]
                    if j < 0:
                        j = order[w] = len(verts)
                        verts.append(w)
                    w = j
                chunk.append(w)
            if least is None or chunk < least:
                least, kept = chunk, [(order, verts)]
            elif chunk == least:
                kept.append((order, verts))
        runs = kept
        enc += least
        step += 1
    # one start left: the same reads, written straight into the encoding
    order, verts = runs[0]
    for i in range(step, n):
        for w in rows[verts[i]]:
            if w >= 0:
                j = order[w]
                if j < 0:
                    j = order[w] = len(verts)
                    verts.append(w)
                w = j
            enc.append(w)
    return b"%d;%d;" % (g.rank, n) + array("i", enc).tobytes()


@lru_cache(maxsize=None)
def _profile_grams(rank):
    """For each vertex profile {lo, hi} of a cycle, best first, the slot
    2-gram (hi ^ 1, lo) of a vertex reached through slot hi and left
    through slot lo."""
    return tuple(bytes((hi ^ 1, lo)) for lo in range(2 * rank - 1, -1, -1)
                 for hi in range(2 * rank - 1, lo, -1))


def cycle_key(word: bytes, rank) -> bytes:
    """``canonical_key`` of the one-cycle core graph of ``<w>`` (Stallings
    1983), for a nontrivial cyclically reduced byte word ``w``
    (``words._encode``), read off its letters without building the graph.

    Vertex v sits between letters v - 1 and v, and its profile is the slot
    pair {arrival of letter v - 1, departure of letter v}; the best is the
    largest (lo, hi).  From a start of best profile the breadth-first search
    runs along two directions, X leaving through slot lo and Y through hi,
    and gives the k-th vertex along X the index 2k - 1 and along Y 2k.  So
    its encoding is fixed by the interleaved slot string z = X1 Y1 X2 Y2
    ...: z[j] is the edge from vertex j - 1 to vertex j + 1 (from vertex 0
    for j <= 1; the last, z[n - 1], joins n - 2 and n - 1).  Where the
    encodings from two starts first differ, they differ in the onward slot
    of one vertex, and the larger slot leaves -1 where the smaller has an
    index: the least encoding is that of the greatest z, one ``bytes``
    comparison per start.  Y read forwards is X on the reversed word with
    its slots flipped, so the starts are the 2-gram (hi ^ 1, lo) in the
    slot words of ``w`` and of its inverse.
    """
    n, width = len(word), 2 * rank
    enc = _UNSET * (width * n)
    fwd = word.translate(_LEAVE)
    if n == 1:  # a loop
        enc[fwd[0]] = enc[fwd[0] ^ 1] = 0
        return b"%d;%d;" % (rank, n) + enc.tobytes()
    back = word[::-1].translate(_ARRIVE)
    fwd, back = fwd + fwd, back + back
    # the (n + 1)-byte cut from n - 1 holds the 2-gram of vertex v at v
    cuts = fwd[n - 1:2 * n], back[n - 1:2 * n]
    gram = next(g for g in _profile_grams(rank) if g in cuts[0] or g in cuts[1])
    h = (n + 2) // 2
    best = b""
    for x, y, cut in ((fwd, back, cuts[0]), (back, fwd, cuts[1])):
        v = cut.find(gram)
        while v >= 0:
            z = bytearray(2 * h)
            z[0::2] = x[v:v + h]
            z[1::2] = y[n - v:n - v + h]
            if z > best:
                best = z
            v = cut.find(gram, v + 1)
    # edge z[j] from row a to row b: b at row a's slot z[j], a at row b's
    # z[j] ^ 1.  map writes at C speed, and any() runs it to the end.
    z, inner = best, best[1:n - 1]
    enc[z[0]] = 1
    enc[width + (z[0] ^ 1)] = 0
    any(map(enc.__setitem__, map(add, range(0, width * (n - 2), width), inner),
            range(2, n)))
    any(map(enc.__setitem__, map(add, range(2 * width, width * n, width),
                                 inner.translate(_FLIP)), range(n - 2)))
    enc[width * (n - 2) + z[n - 1]] = n - 1
    enc[width * (n - 1) + (z[n - 1] ^ 1)] = n - 2
    return b"%d;%d;" % (rank, n) + enc.tobytes()


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
    rows, _ = _rows(g)
    parent = {base: None}
    order = [base]
    tree = set()
    for v in order:
        for t, w in enumerate(rows[v]):
            if w >= 0 and w not in parent:
                lab = t >> 1
                parent[w] = (v, -(lab + 1) if t & 1 else lab + 1)
                order.append(w)
                tree.add((w, v, lab) if t & 1 else (v, w, lab))
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


class SubgroupClass(Record):
    """Conjugacy class of a finitely generated subgroup: the canonical
    ``key`` bytes of its basepoint-free core graph, which ``from_key``
    decodes."""

    __slots__ = _fields = ("key",)

    # built, hashed and compared per cover: spelled out, __init__ and
    # __eq__ cost what the frozen dataclass's did, a quarter and a third of
    # the generic Record methods (an __eq__ needs its own __hash__)
    def __init__(self, key):
        object.__setattr__(self, "key", key)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.key == other.key
        return NotImplemented

    def __hash__(self):
        return hash((self.key,))

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
        c = words.conj_class(spanning_generators(g)[0])
        check_not_peripheral(*words.primitive_root(c), surface)
    return SubgroupClass(canonical_key(g))


def check_not_peripheral(root: words.ConjClass, mult: int, surface) -> None:
    """Raise unless the cyclic subgroup generated by ``root^mult`` is in
    the subgroup universe: a peripheral root has a single-point limit set.

    Takes the split ``(root, mult)`` that ``words.primitive_root`` returns,
    or one known already, such as a primitive curve and a power of it.
    """
    if words.is_peripheral(root, mult, surface)[0]:
        raise PeripheralSubgroupError(
            "cyclic subgroup with peripheral root is outside the subgroup universe"
        )


def bouquet(rank: int) -> CoreGraph:
    """The whole group: one vertex, one loop per generator."""
    return CoreGraph(1, [(0, 0, lab) for lab in range(rank)], rank, basepoint=0)


def _hall_count(rank: int, k: int) -> int:
    """Number of index-k subgroups of the rank-n free group (Hall 1949):
    a_j = j (j!)^(n-1) - sum over i < j of ((j-i)!)^(n-1) a_i."""
    powers = [math.factorial(j) ** (rank - 1) for j in range(k + 1)]
    counts = [0]
    for j in range(1, k + 1):
        counts.append(j * powers[j] - sum(powers[j - i] * counts[i] for i in range(1, j)))
    return counts[k]


def subgroups_of_index(rank: int, k: int, cap: int = DEFAULT_INDEX_CAP):
    """All index-k subgroups of the rank-n free group, one per subgroup.

    Enumerated as transitive permutation actions on {0..k-1} with marked
    point 0, using first-appearance numbering of points so each subgroup
    appears exactly once.  Returned as complete basepointed cover graphs.
    An enumeration of more than ``DEFAULT_BALL_CAP`` covers, by Hall's
    count, is refused before it starts.
    """
    if rank < 1 or k < 1:
        raise InputError("rank and index must be positive")
    if k > cap:
        raise ResourceLimitError(f"index {k} above cap {cap}")
    count = _hall_count(rank, k)
    if count > DEFAULT_BALL_CAP:
        raise ResourceLimitError(f"the rank-{rank} free group has {count} subgroups of index {k}, "
                                 f"above cap of {DEFAULT_BALL_CAP} covers")
    covers = []
    darts = [None] * (rank * k)  # slot p * rank + gidx holds (p, q, gidx)
    used = [[False] * k for _ in range(rank)]

    def rec(slot, introduced):
        if slot == rank * k:
            covers.append(CoreGraph(k, sorted(darts), rank, basepoint=0))
            return
        p, gidx = divmod(slot, rank)
        if p >= introduced:
            return
        row = used[gidx]
        for q in range(min(introduced + 1, k)):
            if row[q]:
                continue
            darts[slot] = (p, q, gidx)
            row[q] = True
            rec(slot + 1, introduced + 1 if q == introduced else introduced)
            row[q] = False

    rec(0, 1)
    return covers


def finite_index_subgroups(h: SubgroupClass, k: int, cap: int = DEFAULT_INDEX_CAP):
    """All index-k subgroups of ``h``, as covers of its core graph.

    The monodromy of each non-tree edge runs over the index-k actions of
    the free group on the basis; tree edges lift sheet-by-sheet.  Every
    returned graph is a connected k-sheeted cover: V' = kV, E' = kE.
    """
    g = from_key(h.key)
    _, tree = _spanning_tree(g)
    non_tree = {e: i for i, e in enumerate(e for e in g.edges if e not in tree)}
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
                perm = perms[non_tree[u, v, lab]]
                for s in range(k):
                    edges.append((u * k + s, v * k + perm[s], lab))
        edges.sort()
        cover = CoreGraph(g.vertex_count * k, edges, g.rank, basepoint=None)
        covers.append(SubgroupClass(canonical_key(cover)))
    return covers
