"""Ribbon (fat-graph) structure and boundary-cycle extraction.

Every vertex of a core graph inherits the cyclic dart order fixed at the
base vertex of the surface, restricted to the dart types present there.
Thickening along that order turns the graph into a compact surface whose
boundary cycles are the orbits of the successor map traced here.

Dart types are ``(label, +1)`` for an outgoing edge and ``(label, -1)``
for an incoming one, the slots ``2 * label`` and ``2 * label + 1`` of the
graph's table.  A dart is a pair (vertex, slot t), kept as its table index:
it leaves the vertex along the edge in slot t.
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


def boundary_cycles(g, sigma, *, checked=False):
    """Boundary walks of the thickened graph, as cyclic letter words.

    The successor of a dart arriving at v is the next dart type after its
    reversal in the cyclic order induced at v.  Every dart lies on exactly
    one cycle, so the total cycle length is 2E.

    A dart (v, t) reads the letter of slot t and arrives at its head
    through slot t ^ 1; its successor leaves the head through the first
    slot after t ^ 1 in the cyclic order that is filled there.  Walks
    start label by label, at each edge's out dart and then its in dart.

    ``sigma`` is checked by ``check_order`` unless ``checked`` says it
    already was, as a validated surface's ``ribbon_order`` is.
    """
    if not checked and (problems := check_order(sigma, g.rank)):
        raise InputError("; ".join(problems))
    table, width = g.table, 2 * g.rank
    cyclic = [2 * lab + (d < 0) for lab, d in sigma]
    # leave[t]: the slots after t ^ 1 in the cyclic order, ending with t ^ 1
    leave = [None] * width
    for i, t in enumerate(cyclic):
        leave[t ^ 1] = cyclic[i + 1:] + cyclic[:i + 1]
    letter = [-(t // 2 + 1) if t & 1 else t // 2 + 1 for t in range(width)]

    seen = bytearray(len(table))
    cycles = []
    for lab in range(g.rank):
        for u, v in enumerate(table[2 * lab::width]):
            if v < 0:
                continue
            for d in (u * width + 2 * lab, v * width + 2 * lab + 1):
                cycle = []
                while not seen[d]:
                    seen[d] = 1
                    t = d % width
                    cycle.append(letter[t])
                    head = table[d] * width
                    for s in leave[t]:
                        if table[head + s] >= 0:
                            break
                    d = head + s
                if cycle:
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
    # the surface's validation checked its order once (geometry.validate)
    raw = boundary_cycles(g, surface.ribbon_order, checked=True)
    # every walk of a finite-index cover is a cusp, and a surface's cusp
    # walks spell few words: each is split and tested on its first sight only
    cusp_walks = surface._cusp_walks
    entries = []
    for cyc in raw:
        entry = cusp_walks.get(cyc)
        if entry is None:
            root, mult = words.primitive_root(words.conj_class(cyc))
            if words.is_peripheral(root, mult, surface):
                entry = cusp_walks[cyc] = (root, "cusp", mult)
            else:
                entry = (root, "geodesic", mult)
        entries.append(entry)
    chi = 1 - g.cycle_rank
    b = len(raw)
    two_genus = 2 - b - chi
    if two_genus < 0 or two_genus % 2:
        raise InternalConsistencyError(
            f"non-integer genus from chi={chi}, boundary={b}; ribbon order is broken"
        )
    return BoundaryReport(cycles=tuple(entries), euler_char=chi, genus=two_genus // 2)
