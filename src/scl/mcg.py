"""Mapping classes, each a peripheral-preserving ``words.Automorphism``,
their action on subgroup classes and multicurves, and orbit-ball
enumeration.

Orbit balls are grown breadth-first under an inverse-closed twist
generating set, exploring every element whose functional value stays
within ``margin * L`` and reporting those within ``L``.  The margin is a
completeness heuristic (the orbit graph restricted to a metric ball need
not be connected), so every ball carries a frontier-exhausted flag and
callers re-check stability under a larger margin where it matters.
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from . import currents, graphs, words
from .currents import Multicurve, RationalSubsetCurrent
from .errors import ConfigError, InputError, ResourceLimitError
from .graphs import SubgroupClass

DEFAULT_BALL_CAP = 1_000_000
BALL_CAP_ENV = "SCL_MAX_BALL"


def mapping_class(images, surface, label="") -> words.Automorphism:
    """Validate generator images as a peripheral-preserving automorphism.

    Folding the images must give back the full bouquet (surjectivity; for
    a free group of finite rank that already forces bijectivity), and each
    peripheral class must map to a peripheral class.
    """
    images = tuple(words.reduce(im) for im in images)
    if len(images) != surface.rank:
        raise InputError(f"need {surface.rank} generator images, got {len(images)}")
    folded = graphs.fold(images, rank=surface.rank)
    if graphs.index(folded) != 1:
        raise InputError("images do not generate the whole group; not an automorphism")
    phi = words.Automorphism(images=images, label=label)
    for p in surface.peripheral_words:
        img = words.conj_class(words.apply(phi, p))
        peripheral, power = words.is_peripheral(img, surface)
        if not peripheral or power != 1:
            raise InputError("automorphism does not preserve the cusp set")
    return phi


def _undoes(s: words.Automorphism, t: words.Automorphism) -> bool:
    """Whether ``s`` after ``t`` is the identity automorphism."""
    return words.compose(s, t).images == words.identity_automorphism(t.rank).images


def twist_generators(surface):
    """Inverse-closed twist generating set for the mapping class group.

    Built-in for the once-punctured torus; user surfaces must supply an
    inverse-closed list in their config, or orbit balls would silently
    miss every element reached only through a missing inverse.
    """
    if surface.mcg_images:
        gens = [mapping_class(imgs, surface, label or f"t{i}")
                for i, (imgs, label) in enumerate(surface.mcg_images)]
        for t in gens:
            if not any(_undoes(s, t) for s in gens):
                raise ConfigError(f"mcg_generators must be inverse-closed: {t.label!r} "
                                  "has no listed inverse")
        return gens
    if (surface.genus, surface.cusps) == (1, 1) and surface.rank == 2:
        a, b = (1,), (2,)
        table = [
            ((a, (1, 2)), "ta"),    # a -> a,  b -> ab
            ((a, (-1, 2)), "ta'"),  # a -> a,  b -> Ab
            (((1, 2), b), "tb"),    # a -> ab, b -> b
            (((1, -2), b), "tb'"),  # a -> aB, b -> b
        ]
        return [mapping_class(imgs, surface, label) for imgs, label in table]
    raise ConfigError(
        f"surface {surface.name!r} has no configured mapping class generators")


def act_on_subgroup(phi: words.Automorphism, h: SubgroupClass, surface) -> SubgroupClass:
    """Push a subgroup class through a mapping class: fold the core graph
    with every edge replaced by the image of its label."""
    image = graphs.pushforward(graphs.from_key(h.key), phi.images)
    return graphs.subgroup_class(image, surface=surface)


def act_on_multicurve(phi: words.Automorphism, mc: Multicurve) -> Multicurve:
    acc = {}
    for c, w in mc.items:
        img = words.conj_class(words.apply(phi, c.letters))
        acc[img] = acc.get(img, 0) + w
    return Multicurve.from_dict(acc)


def act_on_current(phi: words.Automorphism, eta: RationalSubsetCurrent,
                   surface) -> RationalSubsetCurrent:
    return RationalSubsetCurrent.from_terms(
        (act_on_subgroup(phi, h, surface), w) for h, w in eta.terms)


@dataclass
class OrbitBall:
    """Explored region of a mapping-class orbit of rational currents.

    ``elements`` maps the canonical element key to ``(value, b_key)`` for
    everything *seen*; members of the ball proper are the keys with value
    at most ``cutoff``.  ``b_key`` is the canonical item tuple of the
    boundary image, shared verbatim by elements in the same fiber.
    """

    seed: RationalSubsetCurrent
    functional: tuple
    cutoff: float
    margin: float
    surface: object
    mode: str
    elements: dict
    frontier_exhausted: bool

    def members(self, limit=None):
        """Deterministically ordered (key, value, b_key) rows inside the ball."""
        limit = self.cutoff if limit is None else limit
        if not limit <= self.cutoff:
            raise InputError(f"query {limit} beyond ball cutoff {self.cutoff}")
        rows = [(k, v, b) for k, (v, b) in self.elements.items() if v <= limit]
        rows.sort(key=lambda r: r[0])
        return rows

    def member_values(self, limit=None):
        return sorted(v for _, v, _ in self.members(limit))

    def count_leq(self, limit) -> int:
        return len(self.members(limit))


def _ball_cap(cap):
    if cap is not None:
        return cap
    env = os.environ.get(BALL_CAP_ENV)
    if not env:
        return DEFAULT_BALL_CAP
    try:
        cap = int(env)
    except ValueError:
        raise InputError(f"{BALL_CAP_ENV} must be an integer, got {env!r}")
    if cap <= 0:
        raise InputError(f"{BALL_CAP_ENV} must be positive, got {cap}")
    return cap


def orbit_ball(seed, functional, L, margin=1.5, *,
               surface, twists=None, cap=None, mode="eta") -> OrbitBall:
    """Breadth-first orbit ball around ``seed``.

    ``seed`` is a RationalSubsetCurrent, or an ordered (class, weight)
    sequence for "J" mode.  ``functional`` is an ``(alpha, beta)`` pair
    weighting generalized length and area.  Dedup key: the weighted
    multiset of term keys in "eta" mode, the ordered term tuple in "J"
    mode (the two orbit counts differ exactly by the term-permutation
    stabilizer).

    With alpha = 0 every element of an orbit with nonzero boundary image
    has the seed's value, so a seed inside ``margin * L`` would explore
    the whole infinite orbit; that input is rejected up front.
    """
    currents.check_functional(functional)
    if not 0 < L < math.inf:
        raise InputError(f"cutoff L must be finite and positive, got {L}")
    if not 1 <= margin < math.inf:
        raise InputError(f"margin must be finite and at least 1, got {margin}")
    if mode not in ("eta", "J"):
        raise InputError(f"mode must be 'eta' or 'J', got {mode!r}")
    cap = _ball_cap(cap)
    if twists is None:
        twists = twist_generators(surface)

    registry = {}   # class key -> the one SubgroupClass kept for it
    act_cache = {}  # (twist index, class key) -> image SubgroupClass
    # twists[inverse[i]] undoes twists[i], so t(H) = K also gives t^-1(K) = H
    inverse = [next((j for j, s in enumerate(twists) if _undoes(s, t)), None)
               for t in twists]
    for t, inv in zip(twists, inverse):
        if inv is None:
            raise InputError(f"twist {t.label!r} has no inverse in the twist list")

    def canon(term_pairs):
        if mode == "J":
            return tuple((h.key, w) for h, w in term_pairs)
        acc = {}
        for h, w in term_pairs:
            acc[h.key] = acc.get(h.key, 0) + w
        return tuple(sorted(acc.items()))

    if isinstance(seed, RationalSubsetCurrent):
        term_source = seed.terms
    else:
        term_source = tuple((h, Fraction(w)) for h, w in seed)
        seed = RationalSubsetCurrent.from_terms(term_source)
    seed_pairs = [(registry.setdefault(h.key, h), Fraction(w)) for h, w in term_source]
    seed_key = canon(seed_pairs)

    explore_bound = margin * L
    seed_record = currents.evaluate(functional, seed_pairs, surface)
    if not functional[0] and seed_record[1] and seed_record[0] <= explore_bound:
        raise InputError(
            f"with alpha = 0 every element of this orbit has value {seed_record[0]} "
            "<= margin * L, so the ball would be the whole infinite orbit")
    elements = {seed_key: seed_record}
    ball = OrbitBall(seed=seed, functional=functional, cutoff=L, margin=margin,
                     surface=surface, mode=mode, elements=elements,
                     frontier_exhausted=False)
    queue = deque()
    if seed_record[0] <= explore_bound:
        queue.append(seed_key)

    while queue:
        key = queue.popleft()
        for t_idx, phi in enumerate(twists):
            new_pairs = []
            for cls_key, w in key:
                img = act_cache.get((t_idx, cls_key))
                if img is None:
                    h = registry[cls_key]
                    img = act_on_subgroup(phi, h, surface)
                    img = registry.setdefault(img.key, img)
                    act_cache[(t_idx, cls_key)] = img
                    act_cache.setdefault((inverse[t_idx], img.key), h)
                new_pairs.append((img, w))
            new_key = canon(new_pairs)
            if new_key in elements:
                continue
            record = currents.evaluate(functional, new_pairs, surface)
            elements[new_key] = record
            if len(elements) > cap:
                raise ResourceLimitError(
                    f"orbit ball exceeded cap of {cap} elements", partial=ball)
            if record[0] <= explore_bound:
                queue.append(new_key)

    ball.frontier_exhausted = True
    return ball
