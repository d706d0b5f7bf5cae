"""Marked hyperbolic structures: holonomy, traces, translation lengths.

The built-in surface is the modular torus, the once-punctured torus with
a | -> [[1,1],[1,2]] and b |-> [[1,-1],[-1,2]].  Integer matrices keep
every trace exact (Python ints never overflow), so censuses stay honest
at any depth; lengths only pass through floats at the final arccosh.
"""

from __future__ import annotations

import json
import math
import sys
from functools import cached_property

from . import graphs, ribbon, words
from .errors import (
    ConfigError,
    DiscretenessError,
    InputError,
    ParabolicError,
    Record,
    TrivialWordError,
)

PARABOLIC_TOL = 1e-9  # only used for non-integer user surfaces


class SurfaceStructure(Record):
    """A marked cusped hyperbolic surface of genus g with r >= 1 cusps.

    ``matrices`` holds one determinant-1 2x2 matrix per generator as a
    ((a, b), (c, d)) tuple with int or float entries.  ``mcg_images``
    optionally holds ``((word, ...), label)`` pairs for user surfaces.
    """

    _fields = ("name", "genus", "cusps", "matrices", "peripheral_words", "ribbon_order",
               "mcg_images")
    _defaults = {"mcg_images": ()}

    # hashed by every call of the subgroup_boundary cache, so the hash of
    # the fields is taken once, like the tables below
    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self):
        return hash(self._values(self))

    @property
    def rank(self):
        return len(self.matrices)

    @cached_property
    def exact(self):
        return all(isinstance(x, int) for row_pair in self.matrices
                   for row in row_pair for x in row)

    @property
    def is_punctured_torus(self):
        """Genus 1, one cusp, rank 2: the surface of the built-in twists
        and of the slope oracle."""
        return (self.genus, self.cusps) == (1, 1) and self.rank == 2

    @cached_property
    def _letter_matrices(self):
        mats = {}
        for i, ((a, b), (c, d)) in enumerate(self.matrices):
            mats[i + 1] = (a, b, c, d)
            mats[-(i + 1)] = (d, -b, -c, a)  # inverse, det 1
        return mats

    @cached_property
    def _byte_matrices(self):
        """``_letter_matrices`` keyed by the byte of each letter."""
        return {words._BYTE[l]: m for l, m in self._letter_matrices.items()}

    @cached_property
    def _letter_blocks(self):
        return _Blocks(self._byte_matrices)

    @cached_property
    def _cusp_walks(self):
        """``ribbon.classify_boundary``'s entry ``(root, "cusp", mult)`` per
        boundary walk, keyed by the walk's letters, for walks found
        peripheral.  It holds only rotations, orientations and powers of
        the peripheral roots; geodesic walks are not stored."""
        return {}

    @cached_property
    def _oriented_cusps(self):
        """Each cusp's oriented class, as the least rotation of the byte
        word of a boundary walk of the thickened bouquet, whose ribbon
        order fixes the orientation (``mcg.mapping_class``)."""
        walks = ribbon.boundary_cycles(graphs.bouquet(self.rank), self.ribbon_order)
        return frozenset(words._least_rotation_bytes(w, min(w))
                         for w in map(words._encode, walks))

    @cached_property
    def peripheral_roots(self):
        """(primitive root class, multiplicity) per peripheral word."""
        return tuple(words.primitive_root(words.conj_class(p))
                     for p in self.peripheral_words)


def modular_torus() -> SurfaceStructure:
    return SurfaceStructure(
        name="modular-torus",
        genus=1,
        cusps=1,
        matrices=(((1, 1), (1, 2)), ((1, -1), (-1, 2))),
        peripheral_words=(words.word_from_str("abAB"),),
        ribbon_order=((0, 1), (1, 1), (0, -1), (1, -1)),
    )


def validate(s: SurfaceStructure) -> list:
    """All invariant violations, each tagged with the offending field."""
    problems = []
    n = s.rank
    if n < 1 or n > 26:
        problems.append(f"matrices: rank {n} outside [1, 26]")
        return problems
    if s.cusps < 1:
        problems.append(f"cusps: need r >= 1, got {s.cusps}")
    if 2 * s.genus - 2 + s.cusps <= 0:
        problems.append(f"genus/cusps: ({s.genus}, {s.cusps}) has 2g - 2 + r <= 0, not hyperbolic")
    if (s.genus, s.cusps) == (0, 3):
        problems.append("genus/cusps: (0, 3) excluded, its mapping class group is finite")
    if n != 2 * s.genus + s.cusps - 1:
        problems.append(
            f"matrices: rank {n} != 2g + r - 1 = {2 * s.genus + s.cusps - 1}")
    for i, ((a, b), (c, d)) in enumerate(s.matrices):
        det = a * d - b * c
        ok = det == 1 if s.exact else abs(det - 1) <= PARABOLIC_TOL
        if not ok:
            problems.append(f"matrices[{i}]: determinant {det} != 1")
    problems.extend("ribbon_order: " + p for p in ribbon.check_order(s.ribbon_order, n))
    if len(s.peripheral_words) != s.cusps:
        problems.append(
            f"peripheral_words: {len(s.peripheral_words)} words for {s.cusps} cusps")
    for j, p in enumerate(s.peripheral_words):
        if not p:
            problems.append(f"peripheral_words[{j}]: trivial word")
            continue
        try:
            t = holonomy_trace(p, s)
        except InputError as exc:
            problems.append(f"peripheral_words[{j}]: {exc}")
            continue
        if not _is_parabolic_trace(t, s.exact):
            problems.append(f"peripheral_words[{j}]: |trace| = {abs(t)}, not parabolic")
    if not problems:
        # the thickened bouquet must close up to this surface: one boundary
        # cycle per cusp, matching the peripheral classes up to inversion
        cycles = ribbon.boundary_cycles(graphs.bouquet(n), s.ribbon_order, checked=True)
        got = sorted(words.conj_class(c).letters for c in cycles)
        want = sorted(words.conj_class(p).letters for p in s.peripheral_words)
        if got != want:
            problems.append(
                "ribbon_order: bouquet boundary does not reproduce the peripheral classes")
    return problems


def validated(s: SurfaceStructure) -> SurfaceStructure:
    problems = validate(s)
    if problems:
        raise ConfigError("; ".join(problems))
    return s


def _product(m, n):
    """Product of two 2x2 matrices held as (a, b, c, d) tuples."""
    a, b, c, d = m
    e, f, g, h = n
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def _trace(steps, table):
    """Trace of the product of ``table[x]`` over ``steps``, each matrix an
    (a, b, c, d) tuple; the one trace loop."""
    a, b, c, d = 1, 0, 0, 1
    for e, f, g, h in map(table.__getitem__, steps):
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    return a + d


def holonomy_trace(w, s: SurfaceStructure):
    """Trace of the holonomy along ``w``; exact for integer surfaces."""
    try:
        return _trace(w, s._letter_matrices)
    except KeyError as exc:
        l = exc.args[0]
        raise InputError(
            f"letter index {abs(l) - 1} out of range for rank {s.rank}") from None


class _Blocks(dict):
    """Matrices of blocks of up to four byte letters, keyed by the
    native-order four-byte code of the block padded with zero bytes; a
    block's matrix is built the first time it is read, so only the blocks
    a surface's words hold are ever built."""

    def __init__(self, byte_matrices):
        super().__init__()
        self.letters = {0: (1, 0, 0, 1), **byte_matrices}

    def __missing__(self, code):
        m = (1, 0, 0, 1)
        for x in code.to_bytes(4, sys.byteorder):
            m = _product(m, self.letters[x])
        self[code] = m
        return m


def _byte_trace(w: bytes, s: SurfaceStructure):
    """Trace of the holonomy along the byte word ``w`` (``words._encode``),
    the one trace of a byte word.

    An exact surface steps four letters at a time through its table of
    letter blocks; a float surface steps one letter at a time, left to
    right, as :func:`holonomy_trace` does, since a float product associated
    in another order may move an ulp.
    """
    if s.exact:
        return _trace(memoryview(w + b"\0" * (-len(w) % 4)).cast("I"), s._letter_blocks)
    return _trace(w, s._byte_matrices)


def _is_parabolic_trace(t, exact: bool) -> bool:
    return abs(t) == 2 if exact else abs(abs(t) - 2) <= PARABOLIC_TOL


def classify(w, s: SurfaceStructure) -> str:
    """"parabolic" or "hyperbolic"; raises on the identity."""
    w = words.reduce(w)
    if not w:
        raise TrivialWordError("identity element has no type")
    t = holonomy_trace(w, s)
    if _is_parabolic_trace(t, s.exact):
        return "parabolic"
    if abs(t) < 2:
        raise DiscretenessError(
            f"|trace| = {abs(t)} < 2 for nontrivial word; representation not discrete")
    return "hyperbolic"


def trace_length(t) -> float:
    """2 arccosh(|t|/2) without overflow; relative error <= 1e-9.

    Traces grow like exp(length/2), so above 2**52 the arccosh collapses
    to 2 log|t| with correction below 2/t^2, far inside tolerance.
    """
    a = abs(t)
    if a <= 2.0 ** 52:
        return 2.0 * math.acosh(a / 2.0)
    return 2.0 * math.log(a)


def checked_length(t, s: SurfaceStructure, curve) -> float:
    """Length of the closed geodesic whose holonomy has trace ``t``.

    Raises if ``t`` is parabolic or elliptic; ``curve`` names the curve in
    the message and is formatted only then.
    """
    if _is_parabolic_trace(t, s.exact):
        raise ParabolicError(f"curve {curve} is parabolic; it has no geodesic length")
    if abs(t) < 2:
        raise DiscretenessError(f"|trace| = {abs(t)} < 2; surface configuration broken")
    return trace_length(t)


def geodesic_length(c: words.ConjClass, s: SurfaceStructure) -> float:
    """Hyperbolic length of the closed geodesic in class ``c``."""
    return checked_length(holonomy_trace(c.letters, s), s, c)


def _parse_matrix_entry(x):
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, float):
        return int(x) if x.is_integer() else x
    raise InputError(f"matrix entry {x!r} is not a number")


def _field(data, key, kind, *default):
    """``data[key]``, which must be a JSON ``kind`` (``null`` is not one);
    an absent key reads as ``default``, or is missing if none is given."""
    if key not in data:
        if default:
            return default[0]
        raise InputError(f"surface config missing field {key!r}")
    value = data[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise InputError(f"surface config field {key!r} must be a {kind.__name__}: {value!r}")
    return value


def _strings(data, key):
    items = _field(data, key, list)
    if not all(isinstance(x, str) for x in items):
        raise InputError(f"surface config field {key!r} must list strings, got {items!r}")
    return items


def _known_keys(data, allowed, where):
    """Raise naming the first key of ``data`` outside ``allowed``."""
    for key in data:
        if key not in allowed:
            raise InputError(f"{where}: unknown key {key!r}")


def surface_from_dict(data) -> SurfaceStructure:
    """Load the documented surface-config JSON object; any other shape,
    an unknown key included, is an InputError."""
    if not isinstance(data, dict):
        raise InputError("surface config must be a JSON object")
    _known_keys(data, ("name", "genus", "cusps", "ribbon_order", "peripherals", "matrices",
                       "mcg_generators"), "surface config")
    name = _field(data, "name", str, "user-surface")
    genus = _field(data, "genus", int)
    cusps = _field(data, "cusps", int)
    sigma = ribbon.order_from_strings(_strings(data, "ribbon_order"))
    peripherals = tuple(map(words.word_from_str, _strings(data, "peripherals")))
    matrices = _field(data, "matrices", dict)
    rank = 2 * genus + cusps - 1
    if not 1 <= rank <= 26:
        raise InputError(f"genus/cusps: 2g + r - 1 = {rank} is outside [1, 26]")
    letters = [chr(ord("a") + i) for i in range(rank)]
    _known_keys(matrices, letters, "matrices")
    mats = []
    for letter in letters:
        if letter not in matrices:
            raise InputError(f"matrices: missing generator {letter!r}")
        m = matrices[letter]
        if not (isinstance(m, list) and len(m) == 2
                and all(isinstance(row, list) and len(row) == 2 for row in m)):
            raise InputError(f"matrices: {letter!r} must be a 2x2 array, got {m!r}")
        mats.append(tuple(tuple(_parse_matrix_entry(x) for x in row) for row in m))
    mcg_images = []
    for entry in _field(data, "mcg_generators", list, []):
        if not isinstance(entry, dict):
            raise InputError(f"mcg_generators entry {entry!r} is not an object")
        _known_keys(entry, ("images", "label"), "mcg_generators entry")
        images = tuple(map(words.word_from_str, _strings(entry, "images")))
        mcg_images.append((images, _field(entry, "label", str, "")))
    return SurfaceStructure(
        name=name, genus=genus, cusps=cusps, matrices=tuple(mats),
        peripheral_words=peripherals, ribbon_order=sigma,
        mcg_images=tuple(mcg_images),
    )


def surface_from_file(path: str) -> SurfaceStructure:
    with open(path) as fh:
        return surface_from_dict(json.load(fh))
