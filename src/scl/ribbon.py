"""Ribbon (fat-graph) structure and boundary-cycle extraction.

Every vertex of a core graph inherits the cyclic dart order fixed at the
base vertex of the surface, restricted to the dart types present there.
Thickening along that order turns the graph into a compact surface whose
boundary cycles are the orbits of the successor map traced here.

Dart types are ``(label, +1)`` for an outgoing edge and ``(label, -1)``
for an incoming one; a dart is ``(edge_id, direction)`` where direction
``+1`` traverses src -> dst.
"""

from __future__ import annotations

from . import words
from .errors import InputError, InternalConsistencyError, Record


def check_order(sigma, rank: int) -> list:
    """Violation strings for a would-be ribbon order (empty list = valid)."""
    need = {(lab, d) for lab in range(rank) for d in (1, -1)}
    seen = list(sigma)
    problems = []
    if len(seen) != len(set(seen)):
        problems.append("ribbon order repeats a dart type")
    missing = need - set(seen)
    extra = set(seen) - need
    if missing:
        problems.append(f"ribbon order missing dart types: {sorted(missing)}")
    if extra:
        problems.append(f"ribbon order has foreign dart types: {sorted(extra)}")
    return problems


def order_from_strings(items) -> tuple:
    """Parse ["a+", "b+", "a-", "b-"]-style dart type lists."""
    out = []
    for it in items:
        if len(it) != 2 or not it[0].isalpha() or not it[0].islower() or it[1] not in "+-":
            raise InputError(f"bad dart type {it!r}; expected like 'a+'")
        out.append((ord(it[0]) - ord("a"), 1 if it[1] == "+" else -1))
    return tuple(out)


def boundary_cycles(g, sigma):
    """Boundary walks of the thickened graph, as cyclic letter words.

    The successor of a dart arriving at v is the next dart type after its
    reversal in the cyclic order induced at v.  Every dart lies on exactly
    one cycle, so the total cycle length is 2E.

    Darts are numbered 2*eid (+label traversal) and 2*eid+1 (inverse);
    with succ[d] the next outgoing dart at the tail of d, the walk steps
    by dart -> succ[dart ^ 1].
    """
    problems = check_order(sigma, g.rank)
    if problems:
        raise InputError("; ".join(problems))
    edges = g.edges
    ne2 = 2 * len(edges)
    pos = [0] * (2 * g.rank)
    for i, (lab, d) in enumerate(sigma):
        pos[2 * lab + (0 if d > 0 else 1)] = i

    outgoing = [[] for _ in range(g.vertex_count)]
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


class BoundaryReport(Record):
    """Classified boundary of a thickened core graph.

    ``cycles`` holds ``(root_class, kind, power)`` per boundary walk: the
    walk reads ``root^power``, and kind is "cusp" when the class is
    peripheral, else "geodesic".
    """

    _fields = ("cycles", "euler_char", "genus")

    @property
    def geodesic_cycles(self):
        return tuple(c for c in self.cycles if c[1] == "geodesic")

    @property
    def cusp_cycles(self):
        return tuple(c for c in self.cycles if c[1] == "cusp")


def classify_boundary(g, surface) -> BoundaryReport:
    """Boundary cycles under ``surface.ribbon_order`` with cusp/geodesic
    kinds, Euler characteristic and genus of the thickened surface."""
    raw = boundary_cycles(g, surface.ribbon_order)
    # every walk of a finite-index cover is a cusp, and a surface's cusp
    # walks spell few words: each is split and tested on its first sight only
    cusp_walks = surface._cusp_walks
    entries = []
    for cyc in raw:
        entry = cusp_walks.get(cyc)
        if entry is None:
            root, mult = words.primitive_root(words.conj_class(cyc))
            if words.is_peripheral(root, mult, surface)[0]:
                entry = cusp_walks[cyc] = (root, "cusp", mult)
            else:
                entry = (root, "geodesic", mult)
        entries.append(entry)
    chi = g.vertex_count - len(g.edges)
    b = len(raw)
    two_genus = 2 - b - chi
    if two_genus < 0 or two_genus % 2:
        raise InternalConsistencyError(
            f"non-integer genus from chi={chi}, boundary={b}; ribbon order is broken"
        )
    return BoundaryReport(cycles=tuple(entries), euler_char=chi, genus=two_genus // 2)
