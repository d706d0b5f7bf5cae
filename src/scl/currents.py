"""Rational geodesic and subset currents and their computable shadows.

A rational subset current is a finite positive-rational combination of
subgroup classes; a multicurve is the geodesic-current special case,
supported on primitive non-peripheral classes.  The current itself is
never materialized as a measure: everything downstream factors through
the boundary projection, the Euler characteristic, and lengths.

Weights are exact ``Fraction``s throughout.  One constructor,
:func:`_weighted_sum`, adds up every weighted sum: ``Multicurve.from_terms``
and ``RationalSubsetCurrent.from_terms`` merge equal items through it, and
the boundary map B is ``from_terms`` over the boundary walks of each term.
The half weight each boundary walk contributes is structural: it is what
makes the projection restrict to the identity on multicurves.

A current's value is :func:`functional_value`, alpha * length + beta *
area, on the weighted length of its boundary image B: ``length_gc(B)`` in
:func:`evaluate`, the :func:`_length` of its own traces in the curve walk.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from . import geometry, graphs, ribbon, words
from .errors import InputError, Record
from .graphs import SubgroupClass


def _as_positive_fraction(w) -> Fraction:
    f = Fraction(w)
    if f <= 0:
        raise InputError(f"weights must be positive, got {w}")
    return f


def _weighted_sum(pairs, order) -> tuple:
    """The one weighted sum: equal items of the ``(item, weight)`` pairs
    merged, their positive weights added, sorted by ``order(item)``."""
    acc = {}
    for x, w in pairs:
        acc[x] = acc.get(x, 0) + _as_positive_fraction(w)
    return tuple(sorted(acc.items(), key=lambda xw: order(xw[0])))


class Multicurve(Record):
    """Rational weighted multicurve; zero is the empty sum, ``from_terms([])``.

    ``items`` is sorted by class letters, one ``(ConjClass, Fraction)``
    entry per primitive class.
    """

    _fields = ("items",)

    @classmethod
    def from_terms(cls, pairs) -> "Multicurve":
        return cls(items=_weighted_sum(pairs, lambda c: c.letters))

    def is_zero(self) -> bool:
        return not self.items

    def scale(self, factor) -> "Multicurve":
        factor = _as_positive_fraction(factor)
        return Multicurve(items=tuple((c, w * factor) for c, w in self.items))

    def __add__(self, other: "Multicurve") -> "Multicurve":
        return Multicurve.from_terms(self.items + other.items)

    @property
    def key(self) -> tuple:
        """Canonical item tuple ``((letters, weight), ...)``, the ``b_key``
        of every current whose boundary image this is."""
        return tuple((c.letters, w) for c, w in self.items)


class RationalSubsetCurrent(Record):
    """Finite positive-rational sum of subgroup classes: ``terms`` holds
    ``(SubgroupClass, Fraction)`` pairs sorted by key."""

    _fields = ("terms",)

    @classmethod
    def from_terms(cls, pairs) -> "RationalSubsetCurrent":
        return cls(terms=_weighted_sum(pairs, lambda h: h.key))

    @classmethod
    def of_subgroup(cls, h: SubgroupClass, weight=1) -> "RationalSubsetCurrent":
        return cls.from_terms([(h, weight)])

    def __add__(self, other) -> "RationalSubsetCurrent":
        return RationalSubsetCurrent.from_terms(self.terms + other.terms)

    def __len__(self):
        return len(self.terms)


def boundary_report(h: SubgroupClass, surface) -> ribbon.BoundaryReport:
    return ribbon.classify_boundary(graphs.from_key(h.key), surface)


@lru_cache(maxsize=None)
def subgroup_boundary(h: SubgroupClass, surface) -> Multicurve:
    """B(eta_H): half the boundary of the thickened core graph; the one
    cache keyed by subgroup class.

    A boundary walk reading u^m puts weight m/2 on the primitive class u;
    cusp walks contribute nothing.  A cyclic subgroup has two mutually
    inverse walks, so it projects to its own class with full weight, and
    a complete cover has all-cusp boundary and projects to zero.
    """
    return Multicurve.from_terms((root, Fraction(power, 2))
                                 for root, kind, power in boundary_report(h, surface).cycles
                                 if kind != "cusp")


def boundary_projection(eta: RationalSubsetCurrent, surface) -> Multicurve:
    """Q-linear extension of the subgroup boundary map."""
    return Multicurve.from_terms((c, w * bw) for h, w in eta.terms
                                 for c, bw in subgroup_boundary(h, surface).items)


def _length(weighted_traces, surface) -> float:
    """Sum of weight * length over (weight, trace, curve) triples, in
    order; the one length formula, so a multicurve gets one float whether
    ``length_gc`` or the curve walk measures it."""
    return sum(float(w) * geometry.checked_length(t, surface, c) for w, t, c in weighted_traces)


def length_gc(mc: Multicurve, surface) -> float:
    """Weighted length of a multicurve (R-linear in the weights)."""
    return _length(((w, geometry.holonomy_trace(c.letters, surface), c) for c, w in mc.items),
                   surface)


def length_sc(eta: RationalSubsetCurrent, surface) -> float:
    """Generalized length: plain length after boundary projection."""
    return length_gc(boundary_projection(eta, surface), surface)


def euler_char(eta: RationalSubsetCurrent) -> Fraction:
    return sum((w * h.euler_char for h, w in eta.terms), Fraction(0))


def area(eta: RationalSubsetCurrent):
    """Gauss-Bonnet area of the convex cores, with the exact chi alongside.

    Zero exactly when every term is cyclic, i.e. when the current is a
    geodesic current.
    """
    chi = euler_char(eta)
    return -2.0 * math.pi * float(chi), chi


def check_functional(spec) -> None:
    """Raise unless spec = (alpha, beta) is nonnegative and not both zero."""
    alpha, beta = spec
    if alpha < 0 or beta < 0 or (alpha == 0 and beta == 0):
        raise InputError(
            f"functional weights must be nonnegative and not both zero, got {alpha},{beta}")


def functional_value(spec, length: float, area_value: float) -> float:
    """alpha * length + beta * area_value for spec = (alpha, beta), with
    ``length`` the weighted length of the boundary image: the one value
    formula, so a current gets one float whoever measures its length."""
    return float(spec[0]) * length + float(spec[1]) * area_value


def evaluate(spec, terms, surface):
    """Value of alpha * length_sc + beta * area on the (class, weight)
    ``terms``, and the canonical item key of their boundary image.

    The terms are projected once, and the value is
    ``functional_value(spec, length_gc(B), -2 pi chi)``.
    """
    eta = RationalSubsetCurrent.from_terms(terms)
    bnd = boundary_projection(eta, surface)
    return functional_value(spec, length_gc(bnd, surface), area(eta)[0]), bnd.key


def evaluate_functional(spec, eta: RationalSubsetCurrent, surface) -> float:
    """alpha * length_sc + beta * area for spec = (alpha, beta) >= 0."""
    check_functional(spec)
    return evaluate(spec, eta.terms, surface)[0]


FUNCTIONAL_PRESETS = {"lsc": (1, 0), "area": (0, 1), "la": (1, 1)}


def parse_functional(text: str):
    """'lsc' | 'area' | 'la' | 'alpha,beta' with nonnegative rationals."""
    if text in FUNCTIONAL_PRESETS:
        return FUNCTIONAL_PRESETS[text]
    parts = text.split(",")
    if len(parts) != 2:
        raise InputError(f"bad functional {text!r}; expected lsc|area|la|alpha,beta")
    try:
        alpha, beta = Fraction(parts[0]), Fraction(parts[1])
    except (ValueError, ZeroDivisionError):
        raise InputError(f"bad functional weights in {text!r}")
    check_functional((alpha, beta))
    return alpha, beta


def parse_current(text: str, surface) -> RationalSubsetCurrent:
    """Parse the CLI current literal: semicolon-separated "weight:w1,w2,..."
    terms, e.g. "1:aa,b;1/2:a"."""
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise InputError(f"bad current term {chunk!r}; expected weight:gens")
        wtext, gtext = chunk.split(":", 1)
        try:
            weight = Fraction(wtext.strip())
        except (ValueError, ZeroDivisionError):
            raise InputError(f"bad weight {wtext!r}")
        gens = [words.word_from_str(w.strip()) for w in gtext.split(",") if w.strip()]
        if not gens:
            raise InputError(f"term {chunk!r} lists no generators")
        h = graphs.subgroup_class(gens, surface=surface, rank=surface.rank)
        pairs.append((h, weight))
    if not pairs:
        raise InputError("empty current literal")
    return RationalSubsetCurrent.from_terms(pairs)


def multicurve_payload(mc: Multicurve):
    """JSON-ready form: [{class, weight}] with weights as p/q strings."""
    return [{"class": str(c), "weight": str(w)} for c, w in mc.items]
