"""Mapping classes, each a peripheral-preserving ``words.Automorphism``,
their action on subgroup classes and multicurves, and orbit-ball
enumeration.  A twist that is an elementary Nielsen transvection, as
each built-in one is, acts on a subgroup class by one pass over the slot
table of its core graph (``graphs.pushforward``); any other mapping
class subdivides and folds it.

Orbit balls are grown breadth-first under an inverse-closed twist
generating set, exploring every element whose functional value stays
within ``margin * L`` and reporting those within ``L``.  The margin is a
completeness heuristic (the orbit graph restricted to a metric ball need
not be connected), so every ball carries a frontier-exhausted flag and
callers re-check stability under a larger margin where it matters.

A value depends only on the boundary image B and on the area, which the
action keeps, and B is equivariant.  So the ball of a seed with nonzero
boundary image is grown on the orbit of the multicurve B(seed), and only
the members are lifted to subgroup classes: the fiber over t(mu) is t
applied to the fiber over mu, and every fiber is a copy of the seed's.
One breadth-first routine walks both levels, and one loop pushes fibers
down the curve walk's tree.  For a cyclic seed c <r^m> its push rule gives
the curve mu = t(r) the one class c <mu^m>, keyed by ``graphs.cycle_key``
in one pass over the byte word of mu^m, with no twist action and no
graph.

The curve walk keeps its nodes as tuples of ``(bytes, i)`` components:
a curve's letters one byte each (``words._encode``), and ``i`` indexing
the seed's distinct weights, so dedup hashes bytes.  Each twist maps a
curve through its ``words._image_kernel``, which reduces the image with
``bytes`` methods and leaves it cyclically reduced, in no fixed rotation.
An intern table gives each class one word: an image is that word when it
is a rotation of it or of its inverse, a test made at C speed.  A new
node is measured from its own letters by ``geometry._byte_trace``, as
``length_gc`` measures a multicurve.  Canonical letters
(``words._canonical``) are made only where they are read: for the
``b_key`` of a lifted node, and, where a float trace or the order of a
sum depends on them, for a new class before it is measured.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from time import perf_counter

from . import currents, geometry, graphs, words
from .currents import Multicurve, RationalSubsetCurrent
from .errors import ConfigError, InputError, InternalConsistencyError, Record, ResourceLimitError
from .graphs import DEFAULT_BALL_CAP, SubgroupClass


# maps the byte of each letter to the byte of its generator
_UNSIGNED = bytes([0, *(words._BYTE[abs(l)] for l in words._LETTER[1:])]).ljust(256, b"\0")


def _class_hash(w: bytes, rank) -> int:
    """The curve walk's intern key of a cyclically reduced byte word: its
    length and how often each generator occurs in it with either sign.
    Rotation and inversion keep both, so conjugate words share a key."""
    unsigned = w.translate(_UNSIGNED)
    return hash((len(w), *map(unsigned.count, range(1, rank + 1))))


def mapping_class(images, surface, label="") -> words.Automorphism:
    """Validate generator images as a peripheral-preserving automorphism.

    Folding the images must give back the full bouquet (surjectivity; for
    a free group of finite rank that already forces bijectivity), and each
    cusp's oriented class must map to a cusp's oriented class, not to its
    inverse: an automorphism that reverses the orientation of the surface
    is not a mapping class here (Dehn-Nielsen-Baer).
    """
    images = tuple(words.reduce(im) for im in images)
    if len(images) != surface.rank:
        raise InputError(f"need {surface.rank} generator images, got {len(images)}")
    folded = graphs.fold(images, rank=surface.rank)
    if graphs.index(folded) != 1:
        raise InputError("images do not generate the whole group; not an automorphism")
    phi = words.Automorphism(images=images, label=label)
    image, cusps = words._image_kernel(phi), surface._oriented_cusps
    for cusp in cusps:
        y = image(cusp)
        if words._least_rotation_bytes(y, min(y)) not in cusps:
            raise InputError("automorphism does not preserve the cusp set")
    return phi


def _undoes(s: words.Automorphism, t: words.Automorphism) -> bool:
    """Whether ``s`` after ``t`` is the identity automorphism."""
    return words.compose(s, t).images == words.identity_automorphism(t.rank).images


def twist_generators(surface):
    """Twist generating set for the mapping class group: the surface's
    configured ``mcg_generators``, else the built-in inverse-closed set of
    the once-punctured torus.

    A configured list must be inverse-closed, or orbit balls would
    silently miss every element reached only through a missing inverse.
    The orbit checks that when it builds its inverse table, and refuses a
    list without inverses.
    """
    if surface.mcg_images:
        return [mapping_class(imgs, surface, label or f"t{i}")
                for i, (imgs, label) in enumerate(surface.mcg_images)]
    if surface.is_punctured_torus:
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
    """Push a subgroup class through a mapping class: the image of its core
    graph under ``graphs.pushforward``, which rewrites the table in one pass
    for a twist that is an elementary transvection (each built-in twist) and
    folds the subdivided graph for any other mapping class."""
    image = graphs.pushforward(graphs.from_key(h.key), phi.images)
    return graphs.subgroup_class(image, surface=surface)


def act_on_multicurve(phi: words.Automorphism, mc: Multicurve) -> Multicurve:
    """The image multicurve: each class mapped by ``phi``'s image kernel,
    which leaves it cyclically reduced, and canonicalized."""
    image = words._image_kernel(phi)
    return Multicurve.from_terms(
        (words.ConjClass(words._decode(words._canonical(image(words._encode(c.letters))))), w)
        for c, w in mc.items)


def act_on_current(phi: words.Automorphism, eta: RationalSubsetCurrent,
                   surface) -> RationalSubsetCurrent:
    return RationalSubsetCurrent.from_terms(
        (act_on_subgroup(phi, h, surface), w) for h, w in eta.terms)


class OrbitBall(Record):
    """Explored region of a mapping-class orbit of rational currents.

    ``elements`` maps a canonical element key to ``(value, b_key)``, where
    ``b_key`` is the canonical item tuple of the boundary image, shared
    verbatim by the elements of one fiber; members of the ball proper are
    the keys with value at most ``cutoff``.  A ball grown on the boundary
    multicurve holds the lifted members and their breadth-first ancestors,
    not every element seen; a ball grown on subgroup classes (zero
    boundary image, or a seed valued at least ``cutoff``) holds every
    element seen.  A cap hit's partial holds the lift of every multicurve
    seen.

    ``stats`` counts the orbit elements ``seen``, ``explored`` (value at
    most ``margin * cutoff``) and ``members``, the distinct boundary
    images seen (``curves_seen``), the elements over the seed's boundary
    image (``fiber_size``), the ``act_on_subgroup`` calls made
    (``actions``; for a cyclic seed's lifted ball, those of the walk that
    finds the seed's fiber only), the actions read from the cache
    instead (``act_cache_hits``) and the curve walk's exact conjugacy
    tests that found a class other than the image's (``class_clashes``;
    0 with no curve walk), so a weak intern key shows.  A lifted ball
    counts ``fiber_size`` elements per multicurve, which are the elements
    the subgroup-level walk would see.
    It also records the ``cap`` in force and the ``perf_counter`` seconds
    of the subgroup-level walk (``subgroup_walk_s``; in a lifted ball, the
    walk that finds the seed's fiber), the curve walk (``curve_walk_s``)
    and the lift (``lift_s``); a step that did not run reads 0.0.
    """

    _fields = ("seed", "functional", "cutoff", "margin", "surface", "mode", "elements",
               "frontier_exhausted", "stats")

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


def _walk(start, start_record, act, record, bound, cap, inverse):
    """Breadth-first walk of an orbit from ``start`` under the twists.

    A node valued at most ``bound`` is explored: ``act(i, x)`` is its
    image under twist ``i``, taken under every twist except the inverse of
    the one that reached it, which gives back its parent.  ``record(y)``
    is the record of a node not seen before, its value first;
    ``start_record`` is the start's, measured once by the caller.
    Returns ``(records, tree, frontier)``: ``records`` maps each seen node
    to its record, in the order seen; ``tree`` maps it to ``(parent, twist
    index)``, or ``None`` for ``start``; ``frontier`` is None for a walk
    that ran out of nodes to explore, and for one that stopped on seeing
    more than ``cap`` nodes the length of its queue: the nodes within the
    bound that it saw, the last one included, and had not begun to explore.
    """
    records = {start: start_record}
    tree = {start: None}
    queue = deque([start] if start_record[0] <= bound else ())
    while queue:
        x = queue.popleft()
        back = inverse[tree[x][1]] if tree[x] else None
        for t_idx in range(len(inverse)):
            if t_idx == back:
                continue
            y = act(t_idx, x)
            if y in records:
                continue
            rec = records[y] = record(y)
            tree[y] = (x, t_idx)
            if rec[0] <= bound:
                queue.append(y)
            if len(records) > cap:
                return records, tree, len(queue)
    return records, tree, None


class _Orbit:
    """The inputs of one orbit ball and the cached arithmetic on its
    element keys: the weighted multiset of term class keys in "eta" mode,
    the ordered term tuple in "J" mode."""

    def __init__(self, seed, functional, L, margin, *, surface, twists, cap, mode):
        currents.check_functional(functional)
        if not 0 < L < math.inf:
            raise InputError(f"cutoff L must be finite and positive, got {L}")
        if not 1 <= margin < math.inf:
            raise InputError(f"margin must be finite and at least 1, got {margin}")
        if not margin * L < math.inf:
            raise InputError(f"exploration bound margin * L = {margin} * {L} overflows")
        if mode not in ("eta", "J"):
            raise InputError(f"mode must be 'eta' or 'J', got {mode!r}")
        cap = DEFAULT_BALL_CAP if cap is None else cap
        if cap < 1:
            raise InputError(f"orbit ball cap must be at least 1, got {cap}")
        self.functional, self.L, self.margin = functional, L, margin
        self.surface, self.mode, self.cap = surface, mode, cap
        self.twists = twist_generators(surface) if twists is None else twists
        # twists[inverse[i]] undoes twists[i], so t(H) = K also gives t^-1(K) = H
        self.inverse = [next((j for j, s in enumerate(self.twists) if _undoes(s, t)), None)
                        for t in self.twists]
        for t, inv in zip(self.twists, self.inverse):
            if inv is None:
                # twists read from the surface are its configuration (exit 3);
                # a list passed in is the caller's input
                raise (ConfigError if twists is None else InputError)(
                    f"twist {t.label!r} has no inverse in the twist list")
        self.act_cache = {}  # (twist index, class key) -> image class key
        self.actions = self.cache_hits = self.clashes = 0
        self.seconds = dict.fromkeys(("subgroup_walk_s", "curve_walk_s", "lift_s"), 0.0)

        if isinstance(seed, RationalSubsetCurrent):
            term_source = seed.terms
        else:
            term_source = tuple((h, Fraction(w)) for h, w in seed)
            seed = RationalSubsetCurrent.from_terms(term_source)
        self.seed = seed
        self.seed_key = self.canon((h.key, Fraction(w)) for h, w in term_source)
        value, b_key = self.seed_record = self.evaluate(self.seed_key)
        if not float(functional[0]) and b_key and value <= margin * L:
            raise InputError(
                f"with alpha = 0 every element of this orbit has value {value} "
                "<= margin * L, so the ball would be the whole infinite orbit")

    def canon(self, term_pairs):
        """The element key of ``(class key, weight)`` pairs."""
        if self.mode == "J":
            return tuple(term_pairs)
        # the seed's weights are checked; _weighted_sum would recheck them
        acc = {}
        for k, w in term_pairs:
            acc[k] = acc.get(k, 0) + w
        return tuple(sorted(acc.items()))

    def act(self, t_idx, key):
        """The element key of twist ``t_idx`` applied to ``key``."""
        pairs = []
        for cls_key, w in key:
            img = self.act_cache.get((t_idx, cls_key))
            if img is None:
                img = act_on_subgroup(
                    self.twists[t_idx], SubgroupClass(cls_key), self.surface).key
                self.act_cache[(t_idx, cls_key)] = img
                self.act_cache.setdefault((self.inverse[t_idx], img), cls_key)
                self.actions += 1
            else:
                self.cache_hits += 1
            pairs.append((img, w))
        return self.canon(pairs)

    def evaluate(self, key):
        return currents.evaluate(
            self.functional, [(SubgroupClass(k), w) for k, w in key], self.surface)

    def walk(self, cutoff):
        """The subgroup-level walk of a ball with this cutoff, timed."""
        start = perf_counter()
        found = _walk(self.seed_key, self.seed_record, self.act, self.evaluate,
                      self.margin * cutoff, self.cap, self.inverse)
        self.seconds["subgroup_walk_s"] = perf_counter() - start
        return found

    def counts(self, values, weight, cutoff):
        """Elements seen, explored by a walk with this cutoff, and members,
        counting ``weight`` elements per value."""
        bound = self.margin * cutoff
        return {"seen": weight * len(values),
                "explored": weight * sum(v <= bound for v in values),
                "members": weight * sum(v <= self.L for v in values)}

    def subgroup_stats(self, elements, cutoff):
        b0 = self.seed_record[1]
        return {**self.counts([v for v, _ in elements.values()], 1, cutoff),
                "curves_seen": len({b for _, b in elements.values()}),
                "fiber_size": sum(b == b0 for _, b in elements.values())}

    def finish(self, elements, frontier, stats, cutoff) -> OrbitBall:
        """The ball at cutoff L; raise it as the partial of a cap hit
        unless its walk, the one with this ``cutoff``, completed (its
        ``frontier`` is None).  The error names the elements seen and
        explored, the frontier the walk left queued and the largest value
        explored by that walk, of which there is one: a walk can hit the
        cap only once it has explored its start."""
        complete = frontier is None
        ball = OrbitBall(seed=self.seed, functional=self.functional, cutoff=self.L,
                         margin=self.margin, surface=self.surface, mode=self.mode,
                         elements=elements, frontier_exhausted=complete,
                         stats={**stats, "actions": self.actions,
                                "act_cache_hits": self.cache_hits,
                                "class_clashes": self.clashes, "cap": self.cap,
                                **self.seconds})
        if not complete:
            bound = self.margin * cutoff
            top = max(v for v, _ in elements.values() if v <= bound)
            raise ResourceLimitError(
                f"orbit ball exceeded cap of {self.cap} elements: seen {stats['seen']}, "
                f"explored {stats['explored']}, frontier {frontier}, "
                f"largest value explored {top:.6g}",
                partial=ball)
        return ball

    def subgroup_ball(self) -> OrbitBall:
        """The ball from the subgroup-level walk at cutoff L."""
        elements, _, frontier = self.walk(self.L)
        return self.finish(elements, frontier, self.subgroup_stats(elements, self.L), self.L)

    def lifted_ball(self) -> OrbitBall:
        """The ball grown on the orbit of B(seed), each member's fiber
        lifted to subgroup classes.

        F0, the fiber over B(seed), is read off the subgroup-level walk at
        cutoff v0, the seed's value.  A complete walk lifts the members
        and their tree ancestors; a cap hit lifts every multicurve seen, so
        the partial holds more than ``cap`` elements.
        """
        v0, b0 = self.seed_record
        found, _, frontier = self.walk(v0)
        if frontier is not None:
            return self.finish(found, frontier, self.subgroup_stats(found, v0), v0)
        fiber0 = [k for k, (_, b) in found.items() if b == b0]
        push = self.push_rule(len(fiber0))
        curves, tree, frontier, weights = self.curve_walk(len(fiber0))
        start = perf_counter()
        kept = [mu for mu, (value,) in curves.items() if frontier is not None or value <= self.L]
        elements = self.lift(curves, kept, tree, {k: found[k] for k in fiber0}, weights, push)
        self.seconds["lift_s"] = perf_counter() - start
        stats = {**self.counts([v for v, in curves.values()], len(fiber0), self.L),
                 "curves_seen": len(curves), "fiber_size": len(fiber0)}
        if frontier is not None:  # in elements, as seen and explored count them
            frontier *= len(fiber0)
        return self.finish(elements, frontier, stats, self.L)

    def push_rule(self, fiber_size):
        """The lift's rule ``push(fiber, t_idx, node, b_key)``: the fiber over
        the tree child ``node`` of the curve walk, with boundary image
        ``b_key``, reached by twist ``t_idx``, from its parent's.

        In general fiber(t(mu)) = t(fiber(mu)).  For a seed c <r^m> (one
        term of rank 1) every node is one curve mu = t(r), and the one
        element over it is c <mu^m>: the rule keys it with
        ``graphs.cycle_key`` on mu's byte word repeated m times, in one
        pass over its letters, with no twist action, fold or graph.  That
        word is the one the curve walk holds for mu's class, some rotation
        of some orientation of it, and every one gives the same key.
        """
        (cls_key, c), *rest = self.seed_key
        if rest or SubgroupClass(cls_key).rank != 1:
            return lambda fiber, t_idx, *_: [self.act(t_idx, k) for k in fiber]
        # t(c <r^m>) lies over c m t(r), which is B(seed) only when t fixes r
        if fiber_size != 1:
            raise InternalConsistencyError(
                f"a cyclic seed has {fiber_size} elements over its boundary image, not 1")
        ((root, _),) = self.seed_record[1]
        m, surface = graphs.from_key(cls_key).vertex_count // len(root), self.surface

        def push(fiber, t_idx, node, b_key):
            # cyclically reduced, as the m-th power of a cyclically reduced
            # word; mu is the image of the primitive r, so (mu, m) is
            # already the split
            ((word, _),), ((letters, _),) = node, b_key
            graphs.check_not_peripheral(words.ConjClass(letters), m, surface)
            return [((graphs.cycle_key(word * m, surface.rank), c),)]
        return push

    def lift(self, curves, kept, tree, fiber0, weights, push):
        """The fibers over the ``kept`` nodes of the curve walk, pushed
        along its breadth-first tree by ``push`` from F0 (``fiber0``, the
        elements over its first node, B(seed)).  The result also holds the
        lifted ancestors."""
        elements = dict(fiber0)
        fibers = {next(iter(curves)): list(fiber0)}
        for mu in kept:
            path = []
            while mu not in fibers:
                path.append(mu)
                mu = tree[mu][0]
            for nu in reversed(path):
                parent, t_idx = tree[nu]
                b_key = tuple(sorted((words._decode(words._canonical(letters)), weights[i])
                                     for letters, i in nu))
                fibers[nu] = push(fibers[parent], t_idx, nu, b_key)
                elements.update(dict.fromkeys(fibers[nu], (curves[nu][0], b_key)))
        return elements

    def curve_walk(self, fiber_size):
        """The walk of the orbit of B(seed) at cutoff L, timed, and the
        seed's sorted distinct weights.

        A node is the tuple of its components ``(letters, i)``, with
        ``letters`` the byte word (``words._encode``) that the walk's
        intern table holds for the curve's class and ``weights[i]`` the
        component's weight, so dedup hashes bytes.  Each image comes from
        the twist's ``words._image_kernel``, cyclically reduced, and is
        replaced by the word of its class: cyclically reduced words are
        conjugate exactly when one is a rotation of the other, so a word u
        of the same ``_class_hash`` is the class's when the image or its
        inverse occurs in u + u.  Each test that finds another class is
        counted in ``self.clashes``.

        A trace on an exact surface is a class function, and a float sum of
        two terms does not depend on their order, so a node of one or two
        curves there is measured from whatever words their classes hold.
        Otherwise (a float trace depends on letter order, and a sum of
        three or more lengths on the order of its terms) a new class is
        canonicalized before it is stored.  A node's components are in the
        order of their int letters, then ``i``: for canonical words, the
        order of its ``b_key`` and of the sum ``length_gc`` takes.  B(seed)
        keeps the seed's value; a new node's traces are
        ``geometry._byte_trace`` of its components' letters.
        """
        start = perf_counter()
        surface, rank = self.surface, self.surface.rank
        v0, b0 = self.seed_record
        weights = sorted({w for _, w in b0})
        float_weights = [float(w) for w in weights]
        area = currents.area(self.seed)[0]
        kernels = [words._image_kernel(t) for t in self.twists]
        trace = geometry._byte_trace
        invert, class_hash = words._INVERT, _class_hash
        canonical = not surface.exact or len(b0) > 2
        table = {}  # class hash -> the word of its class, or a list of words on a clash

        def intern(y):
            h = class_hash(y, rank)
            held = table.get(h, ())
            for u in (held,) if held.__class__ is bytes else held:
                if len(u) == len(y) and (y in (uu := u + u) or y.translate(invert)[::-1] in uu):
                    return u
                self.clashes += 1
            if canonical:
                y = words._canonical(y)
            if not held:
                table[h] = y
            elif held.__class__ is bytes:
                table[h] = [held, y]
            else:
                held.append(y)
            return y

        def act(t_idx, node):
            image = kernels[t_idx]
            if len(node) == 1:
                ((src, i),) = node
                return ((intern(image(src)), i),)
            return tuple(sorted(((intern(image(src)), i) for src, i in node),
                                key=lambda c: (c[0].translate(words._INT_ORDER), c[1])))

        def record(node):
            length = currents._length(
                ((float_weights[i], trace(letters, surface), words._Spelled(letters))
                 for letters, i in node), surface)
            return (currents.functional_value(self.functional, length, area),)

        node0 = tuple((intern(words._encode(letters)), weights.index(w)) for letters, w in b0)
        found = _walk(node0, (v0,), act, record, self.margin * self.L,
                      self.cap // fiber_size, self.inverse)
        self.seconds["curve_walk_s"] = perf_counter() - start
        return (*found, weights)


def orbit_ball(seed, functional, L, margin=1.5, *,
               surface, twists=None, cap=None, mode="eta") -> OrbitBall:
    """Breadth-first orbit ball around ``seed``.

    ``seed`` is a RationalSubsetCurrent, or an ordered (class, weight)
    sequence for "J" mode.  ``functional`` is an ``(alpha, beta)`` pair
    weighting generalized length and area.  Dedup key: the weighted
    multiset of term keys in "eta" mode, the ordered term tuple in "J"
    mode (the two orbit counts differ exactly by the term-permutation
    stabilizer).

    A seed with nonzero boundary image and value below ``L`` grows the
    ball on the orbit of its boundary multicurve and lifts the members;
    any other seed grows it on subgroup classes.  Both give the same
    members, values and ``b_key``s, and the same frontier flag.  A cap
    hit raises ``ResourceLimitError`` whose partial ball has cutoff ``L``.

    With alpha = 0 (as a float: values are weighted by ``float(alpha)``)
    every element of an orbit with nonzero boundary image has the seed's
    value, so a seed inside ``margin * L`` would explore the whole
    infinite orbit; that input is rejected up front.
    """
    orbit = _Orbit(seed, functional, L, margin,
                   surface=surface, twists=twists, cap=cap, mode=mode)
    value, b_key = orbit.seed_record
    if b_key and value < L:
        return orbit.lifted_ball()
    return orbit.subgroup_ball()
