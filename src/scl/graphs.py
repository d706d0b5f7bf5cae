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
_LEAVE = bytes([0, *(2 * abs(l) - 2 + (l < 0) for l in words._LETTER[1:])]).ljust(256, b"\0")
_FLIP = bytes(x ^ 1 for x in range(256))
_ARRIVE = _LEAVE.translate(_FLIP)
_UNSET = array("i", [-1])
_IN_SIDE = 1 << 62  # the fold's stamps of in slots come after those of out slots


class CoreGraph:
    """Folded labeled directed graph over a rank-n alphabet, kept as its
    slot table (Sims 1994).

    ``table`` is a flat tuple of ``vertex_count * 2 * rank`` ints: slot
    ``2 * lab`` of vertex u holds the head of u's label-``lab`` edge, slot
    ``2 * lab + 1`` the tail of the label-``lab`` edge into u, and -1 marks
    an empty slot.  It is the graph's one stored form: ``edges`` lists it
    as sorted ``(src, dst, label)`` triples with labels in ``[0, n)``.

    It is connected, and its basepoint, if any, is a vertex: the
    constructor refuses any other graph, and every producer builds one.
    """

    __slots__ = ("vertex_count", "table", "rank", "basepoint")

    def __init__(self, vertex_count, edges, rank, basepoint=None):
        width = 2 * rank
        table = [-1] * (vertex_count * width)
        for u, v, lab in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count and 0 <= lab < rank):
                raise InputError(f"edge {(u, v, lab)} is outside {vertex_count} vertices "
                                 f"and rank {rank}")
            out, into = u * width + 2 * lab, v * width + 2 * lab + 1
            if table[out] >= 0 or table[into] >= 0:
                raise InputError(f"edge {(u, v, lab)} fills a slot twice: not a folded graph")
            table[out], table[into] = v, u
        if basepoint is not None and not 0 <= basepoint < vertex_count:
            raise InputError(f"basepoint {basepoint} is outside {vertex_count} vertices")
        self.vertex_count, self.table, self.rank = vertex_count, tuple(table), rank
        self.basepoint = basepoint
        if vertex_count and len(_spanning_tree(self)[0]) < vertex_count:
            raise InputError(f"{self!r} is not connected: not a subgroup's graph")

    @classmethod
    def _of(cls, vertex_count, table, rank, basepoint=None):
        """The graph of a finished slot table, for the producers here."""
        g = object.__new__(cls)
        g.vertex_count, g.table, g.rank, g.basepoint = vertex_count, table, rank, basepoint
        return g

    @property
    def edges(self):
        """The sorted ``(src, dst, label)`` triples, one per filled out slot."""
        width = 2 * self.rank
        return tuple(sorted((i // width, v, i % width >> 1)
                            for i, v in enumerate(self.table) if v >= 0 and not i & 1))

    @property
    def cycle_rank(self):
        """E - V + 1, the rank of the represented subgroup: each edge fills
        two slots."""
        return (len(self.table) - self.table.count(-1)) // 2 - self.vertex_count + 1

    def __repr__(self):
        return (f"CoreGraph(V={self.vertex_count}, E={len(self.edges)}, "
                f"rank={self.rank}, basepoint={self.basepoint})")


def _edges_by_label(g: CoreGraph):
    """The edges label by label, sources ascending: the order in which the
    readers of a ``from_key`` graph walk it."""
    return [(u, v, lab) for lab in range(g.rank)
            for u, v in enumerate(g.table[2 * lab::2 * g.rank]) if v >= 0]


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
    queue on the slot rows of the roots, so the cost is near-linear in the
    total word length.
    """
    edge_list = []
    nv = vertex_count
    for u, v, w in edges:
        path = (u, *range(nv, nv + len(w) - 1), v)
        nv += len(w) - 1
        for j, l in enumerate(w):
            edge_list.append((path[j], path[j + 1], l - 1) if l > 0
                             else (path[j + 1], path[j], -l - 1))

    width = 2 * rank
    parent = list(range(nv))
    slots = [-1] * (nv * width)
    # stamp[i]: when slot i was filled, in slots offset past every out
    # slot.  A merge walks the lost root's slots by stamp, out slots first
    # and each side in the order the root gained them; that order decides
    # which roots survive later merges, and so the vertex numbers
    stamp = [0] * (nv * width)
    clock = 0
    merges = []

    for u, v, lab in edge_list:
        u, v = _find(parent, u), _find(parent, v)
        out, into = u * width + 2 * lab, v * width + 2 * lab + 1
        if (t := slots[out]) >= 0:
            t = _find(parent, t)
            if t != v:
                merges.append((t, v))
        elif (s := slots[into]) >= 0:
            s = _find(parent, s)
            if s != u:
                merges.append((s, u))
        else:
            slots[out], slots[into] = v, u
            clock += 1
            stamp[out], stamp[into] = clock, clock + _IN_SIDE
        while merges:
            a, b = merges.pop()
            a, b = _find(parent, a), _find(parent, b)
            if a == b:
                continue
            # the root with more filled slots survives
            if slots[a * width:a * width + width].count(-1) > \
                    slots[b * width:b * width + width].count(-1):
                a, b = b, a
            parent[b] = a
            for i in sorted(range(b * width, b * width + width), key=stamp.__getitem__):
                if (t2 := slots[i]) < 0:
                    continue
                if (cur := slots[kept := i + (a - b) * width]) < 0:
                    slots[kept] = t2
                    clock += 1
                    stamp[kept] = clock + (_IN_SIDE if i & 1 else 0)
                else:
                    cur, t2 = _find(parent, cur), _find(parent, t2)
                    if cur != t2:
                        merges.append((cur, t2))

    roots = [v for v in range(nv) if parent[v] == v]
    number = [-1] * nv
    for i, r in enumerate(roots):
        number[r] = i
    table = [number[_find(parent, x)] if x >= 0 else -1
             for r in roots for x in slots[r * width:r * width + width]]
    if basepoint is not None:
        basepoint = number[_find(parent, basepoint)]
    return CoreGraph._of(len(roots), tuple(table), rank, basepoint=basepoint)


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


def _transvection(images):
    """``(x, y, right)`` when ``images`` fix every generator but label x and
    send x to x·y (``right``) or to y·x, for a letter y other than x^±1:
    an elementary Nielsen transvection.  None for any other images."""
    moved = [lab for lab, w in enumerate(images) if len(w) != 1 or w[0] != lab + 1]
    if len(moved) != 1:
        return None
    x = moved[0]
    w = images[x]
    if len(w) == 2:
        if w[0] == x + 1 and abs(w[1]) != x + 1:
            return x, w[1], True
        if w[1] == x + 1 and abs(w[0]) != x + 1:
            return x, w[0], False
    return None


def _transvect(g: CoreGraph, x, y, right) -> CoreGraph:
    """The folded image of the folded ``g`` under the transvection
    ``_transvection`` names, in one pass over its label-x column: see
    ``pushforward``.  Vertices of ``g`` keep their numbers, and each new
    middle vertex is appended."""
    width, nv, src = 2 * g.rank, g.vertex_count, g.table
    table = list(src)
    xo = 2 * x
    # the y step is read from v backwards (x·y) or from u forwards (y·x);
    # s is the slot it leaves that end through
    s = 2 * y - 2 if y > 0 else -2 * y - 1
    if right:
        s ^= 1
    # every x-edge is rewritten, so each vertex's slot on the w side of its
    # x-edge is refilled by the loop or stays empty
    side = xo + 1 if right else xo
    table[side:nv * width:width] = [-1] * nv
    for u, v in enumerate(src[xo::width]):
        if v < 0:
            continue
        end = v if right else u
        w = src[end * width + s]
        if w < 0:
            w = nv
            nv += 1
            table += [-1] * width
            table[end * width + s] = w
            table[w * width + (s ^ 1)] = end
        a, b = (u, w) if right else (w, v)
        table[a * width + xo] = b
        table[b * width + xo + 1] = a
    return CoreGraph._of(nv, tuple(table), g.rank, basepoint=g.basepoint)


def pushforward(g: CoreGraph, images) -> CoreGraph:
    """Folded image of ``g`` under the endomorphism sending generator
    ``lab`` to the word ``images[lab]``: every label-``lab`` edge becomes a
    path spelling its image (Stallings 1983), and the basepoint follows.

    An elementary Nielsen transvection, which fixes every generator but
    one, x, and sends x to x·y or y·x for a letter y other than x^±1 (each
    built-in twist of the punctured torus is one), needs no union-find.
    Each x-edge u -> v becomes u -x-> w -y-> v (or u -y-> w -x-> v) and the
    y-edges stay, so the middle vertex w is forced: the vertex v reaches
    by y^-1 (or u by y) when that slot is filled, else a new one.  The map
    from x-edges to their w is injective, because ``g`` is folded: w
    determines v (or u) through its y slot, and v (or u) its one x-edge.
    So no two rewritten edges meet at a slot, the table written in one
    pass over the label-x column is already folded, and being a folding of
    the subdivided graph it is the fold's result up to vertex numbering.
    Every other image (the identity, composites, any other configured
    mapping class generator) is subdivided and folded by ``_fold``.
    """
    if len(images) != g.rank or not all(images):
        raise InputError(f"need {g.rank} nontrivial generator images, got {images!r}")
    for w in images:
        words.check_rank(w, g.rank)
    if shape := _transvection(images):
        return _transvect(g, *shape)
    return _fold(g.vertex_count, [(u, v, images[lab]) for u, v, lab in _edges_by_label(g)],
                 g.rank, basepoint=g.basepoint)


def core(g: CoreGraph) -> CoreGraph:
    """Basepoint-free core: prune degree-1 spurs until min degree is 2.

    A vertex's degree is the count of its filled slots.  A graph with no
    spur (every complete cover, every cycle, every core) is returned on
    its own table with no basepoint; the table is copied only when there
    is something to prune.
    """
    nv, width, table = g.vertex_count, 2 * g.rank, g.table
    if nv and -1 not in table:  # complete: every degree is 2 * rank
        return CoreGraph._of(nv, table, g.rank)
    deg = [width - table[i:i + width].count(-1) for i in range(0, nv * width, width)]
    if nv and min(deg) > 1:
        return CoreGraph._of(nv, table, g.rank)
    table = list(table)
    dead = [False] * nv
    stack = [v for v in range(nv) if deg[v] <= 1]
    while stack:
        v = stack.pop()
        if dead[v] or deg[v] > 1:
            continue
        dead[v] = True
        for i in range(v * width, v * width + width):
            if (w := table[i]) >= 0:
                table[i] = table[w * width + (i % width ^ 1)] = -1
                deg[v] -= 1
                deg[w] -= 1
                if not dead[w] and deg[w] <= 1:
                    stack.append(w)
    keep = [v for v in range(nv) if not dead[v]]
    if not keep:
        raise TrivialSubgroupError("graph has no cycles; subgroup is trivial")
    number = [-1] * (nv + 1)  # number[-1] stays -1: an empty slot stays empty
    for i, v in enumerate(keep):
        number[v] = i
    return CoreGraph._of(len(keep), tuple([number[w] for v in keep
                                           for w in table[v * width:v * width + width]]), g.rank)


def contains(g: CoreGraph, w) -> bool:
    """Membership: does ``w`` trace a closed path at the basepoint?"""
    w = words.reduce(w)
    words.check_rank(w, g.rank)
    width = 2 * g.rank
    base = g.basepoint if g.basepoint is not None else 0
    v = base
    for l in w:
        v = g.table[v * width + (2 * l - 2 if l > 0 else -2 * l - 1)]
        if v < 0:
            return False
    return v == base


def index(g: CoreGraph):
    """Covering index: vertex count for a complete cover (no empty slot),
    else None."""
    return g.vertex_count if -1 not in g.table else None


def canonical_key(g: CoreGraph) -> bytes:
    """Isomorphism-complete key of a connected folded graph.

    The least breadth-first encoding over the start vertices of best
    profile.  A vertex's profile is the set of its filled slots (``2 *
    lab`` out, ``2 * lab + 1`` in), ordered by size, then by its sorted
    slots; a table with no empty slot makes every vertex a start.  From a
    start, the encoding lists for each discovered vertex its row of 2 *
    rank slots as discovery indices (-1 where there is no edge), which
    reconstructs the graph up to relabeling.

    The encodings from all starts grow in lockstep, one vertex per step,
    and only the starts whose encoding so far is least survive a step.
    Once one start is left, its encoding is finished without comparing.
    """
    n, width, table = g.vertex_count, 2 * g.rank, g.table
    rows = [table[i:i + width] for i in range(0, n * width, width)]
    starts = range(n)
    if -1 in table:
        # fewest empty slots, then the least filled pattern: for sets of
        # one size, that is the greatest list of sorted slots
        profiles = [(row.count(-1), [w >= 0 for w in row]) for row in rows]
        best = min(profiles)
        starts = [s for s, p in enumerate(profiles) if p == best]
    runs = []
    for s in starts:
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
    basepoint.  The key's body is the graph's slot table."""
    rank, vertex_count, body = key.split(b";", 2)
    return CoreGraph._of(int(vertex_count), tuple(array("i", body)), int(rank))


def _spanning_tree(g: CoreGraph):
    """BFS spanning tree from the basepoint (vertex 0 if there is none).

    Returns ``parent``, mapping each vertex to ``(previous vertex, signed
    letter into it)`` or None at the root, and the tree edges as
    ``(src, dst, label)`` triples, which name an edge of a folded graph.
    """
    base = g.basepoint if g.basepoint is not None else 0
    width = 2 * g.rank
    parent = {base: None}
    order = [base]
    tree = set()
    for v in order:
        for t, w in enumerate(g.table[v * width:v * width + width]):
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
    for u, v, lab in _edges_by_label(g):
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
        """V - E = 1 - the cycle rank of the core graph ``from_key`` reads."""
        return 1 - from_key(self.key).cycle_rank

    @property
    def rank(self):
        return 1 - self.euler_char


# subgroup_class's memo: bytes(table) of each re-rooting of each basepointed
# cover keyed so far, to the class they share
_COVER_CLASSES = {}


def _rerootings(g: CoreGraph):
    """``bytes`` of the complete graph ``g`` re-rooted at each vertex s, in
    order of s.

    From s the vertices are numbered by first appearance along out-slots,
    vertex by vertex and label by label: the numbering ``subgroups_of_index``
    lists its covers in, so item 0 is ``g``'s own table when ``g`` is one of
    them.  The cover re-rooted at s is that of the subgroup's conjugate by a
    word from the basepoint to s, and every conjugate is one of these (Sims
    1994, ch. 5).
    """
    n, width = g.vertex_count, 2 * g.rank
    table = bytes(g.table)
    rows = [table[i:i + width] for i in range(0, n * width, width)]
    tables = []
    for s in range(n):
        number = [-1] * n
        number[s] = 0
        verts = [s]
        for v in verts:  # grows as it is read: a breadth-first queue
            for w in rows[v][::2]:
                if number[w] < 0:
                    number[w] = len(verts)
                    verts.append(w)
        tables.append(b"".join(map(rows.__getitem__, verts)).translate(bytes(number).ljust(256)))
    return tables


def subgroup_class(source, surface=None, rank=None) -> SubgroupClass:
    """Build a SubgroupClass from generator words or a folded graph.

    With a surface given, rejects cyclic subgroups whose root is
    peripheral (their limit set is a single point).

    A graph with a basepoint, rank >= 2, no empty slot and fewer than 256
    vertices (every cover ``subgroups_of_index`` returns) is a finite-index
    subgroup, never cyclic, and its conjugates are its re-rootings: it is
    keyed once per class.  The memo maps ``bytes`` of a table to the class
    (a complete table's largest entry is its vertex count less one, and its
    length then fixes the rank).  The graph is looked up by its own table,
    then by its re-rooting at vertex 0 (``_rerootings``), so any numbering
    of a cover finds its class; a miss keys ``core(g)`` and files the class
    under every re-rooted table, so each conjugate gets the same object.
    The memo lives as long as the process and holds one entry per subgroup
    in each class keyed.

    A graph with no basepoint stands for a class, not a subgroup
    (``from_key``, and an orbit walk's images of it under ``pushforward``),
    and takes the path below with every other source.
    """
    if isinstance(source, CoreGraph):
        g = source
        if (g.basepoint is not None and g.rank > 1 and g.vertex_count < 256
                and -1 not in g.table):
            h = _COVER_CLASSES.get(bytes(g.table))
            if h is not None:
                return h
            tables = _rerootings(g)
            h = _COVER_CLASSES.get(tables[0])
            if h is None:
                h = SubgroupClass(canonical_key(core(g)))
                _COVER_CLASSES.update(dict.fromkeys(tables, h))
            return h
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
    if words.is_peripheral(root, mult, surface):
        raise PeripheralSubgroupError(
            "cyclic subgroup with peripheral root is outside the subgroup universe"
        )


def bouquet(rank: int) -> CoreGraph:
    """The whole group: one vertex, one loop per generator."""
    return CoreGraph._of(1, (0,) * (2 * rank), rank, basepoint=0)


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
    width = 2 * rank
    table = [-1] * (k * width)  # step p * rank + gidx fills slot 2 * gidx of p

    def rec(step, introduced):
        if step == rank * k:
            covers.append(CoreGraph._of(k, tuple(table), rank, basepoint=0))
            return
        p, gidx = divmod(step, rank)
        if p >= introduced:
            return
        for q in range(min(introduced + 1, k)):
            into = q * width + 2 * gidx + 1
            if table[into] >= 0:
                continue
            table[p * width + 2 * gidx] = q
            table[into] = p
            rec(step + 1, introduced + 1 if q == introduced else introduced)
            table[into] = -1

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
    edges = _edges_by_label(g)
    non_tree = {e: i for i, e in enumerate(e for e in edges if e not in tree)}
    m = len(non_tree)
    assert m == g.cycle_rank

    n, width = g.vertex_count * k, 2 * g.rank
    covers = []
    for action in subgroups_of_index(m, k, cap=cap):
        table = [-1] * (n * width)
        for u, v, lab in edges:
            # sheet s of u reaches sheet s of v along a tree edge, and
            # sheet perm[s] along the non-tree edge that perm acts on
            i = non_tree.get((u, v, lab))
            perm = range(k) if i is None else action.table[2 * i::2 * m]
            for s in range(k):
                src, dst = u * k + s, v * k + perm[s]
                table[src * width + 2 * lab] = dst
                table[dst * width + 2 * lab + 1] = src
        covers.append(SubgroupClass(canonical_key(CoreGraph._of(n, tuple(table), g.rank))))
    return covers
