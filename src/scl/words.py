"""Free-group word algebra.

Words are tuples of nonzero ints: letter ``+(i+1)`` is generator ``i``,
``-(i+1)`` is its inverse.  The ASCII form writes generator ``i`` as the
i-th lowercase letter and its inverse as the matching uppercase letter,
so rank is capped at 26.

Conjugacy classes are unoriented: the canonical representative is the
lexicographic minimum over all rotations of the cyclic word and of its
inverse, under the letter order a < b < ... < A < B < ...

That order is the byte order of the byte form of a word, one letter per
byte (a..z are 1..26, A..Z are 27..52).  :func:`_canonical` is the one
canonicalizer of cyclic words: it cuts (:func:`_cyclic_reduce`), inverts
and rotates a byte word with ``bytes`` methods only.  :func:`conj_class`
encodes its tuple word for it.  The curve walk of :mod:`scl.mcg` holds
words as ``bytes`` and maps them through :func:`_image_kernel`, which
stops at the cyclically reduced image: the walk tells classes apart by
rotation, and canonicalizes only the words it reads letters of.
"""

from __future__ import annotations

from operator import neg

from .errors import InputError, Record, TrivialWordError

Word = tuple  # tuple of nonzero ints

_ALPHABET = "abcdefghijklmnopqrstuvwxyz"  # string.ascii_lowercase, without importing string

# _BYTE[l] is the byte of letter l, so byte order is letter order;
# _LETTER[b] is the letter of byte b, _INVERT maps a byte to its inverse's,
# _INT_ORDER to a byte of the same rank among the int letters -26 < ... < 26
_ORD, _BYTE = {}, {}
for _i, _ch in enumerate(_ALPHABET):
    _ORD[_ch], _ORD[_ch.upper()] = _i + 1, -(_i + 1)
    _BYTE[_i + 1], _BYTE[-(_i + 1)] = _i + 1, _i + 27
_LETTER = (0, *sorted(_BYTE, key=_BYTE.__getitem__))
_INVERT = bytes([0, *(_BYTE[-l] for l in _LETTER[1:])]).ljust(256, b"\0")
_INT_ORDER = bytes([0, *(l + 26 for l in _LETTER[1:])]).ljust(256, b"\0")
_ASCII = (b"?" + _ALPHABET.encode() + _ALPHABET.upper().encode()).ljust(256, b"?")


def word_from_str(s: str) -> Word:
    """Parse an ASCII word and freely reduce it ("" gives the empty word)."""
    try:
        raw = [_ORD[ch] for ch in s]
    except KeyError as exc:
        raise InputError(f"bad letter {exc.args[0]!r} in word {s!r}; expected [a-zA-Z]")
    return reduce(raw)


def word_to_str(w) -> str:
    return _encode(w).translate(_ASCII).decode("ascii")


def check_rank(w, rank: int) -> None:
    for l in w:
        if not 1 <= abs(l) <= rank:
            raise InputError(f"letter index {abs(l) - 1} out of range for rank {rank}")


def _encode(w) -> bytes:
    """The bytes of a word's letters; a letter that is 0 or beyond rank 26
    raises ``InputError``."""
    try:
        return bytes(map(_BYTE.__getitem__, w))
    except KeyError as exc:
        raise InputError(f"letter {exc.args[0]!r} is not a generator of rank at most 26 "
                         "or its inverse") from None


def _decode(b) -> Word:
    return tuple(map(_LETTER.__getitem__, b))


class _Spelled:
    """A byte word that formats as its ASCII letters, so an error message
    can name a curve that is only decoded if the message is made."""

    __slots__ = ("word",)

    def __init__(self, word):
        self.word = word

    def __str__(self):
        return self.word.translate(_ASCII).decode("ascii")


def reduce(raw) -> Word:
    """Freely reduce a letter sequence (stack cancellation)."""
    if 0 in raw:
        raise InputError("letter 0 is not a generator")
    return concat(raw)


def inverse(w) -> Word:
    return tuple(map(neg, reversed(w)))


def concat(*ws) -> Word:
    """Free reduction of the concatenated words (stack cancellation)."""
    out = []
    for w in ws:
        for l in w:
            if out and out[-1] == -l:
                out.pop()
            else:
                out.append(l)
    return tuple(out)


class ConjClass(Record):
    """Canonical unoriented cyclic word, the tuple ``letters``; build via
    :func:`conj_class` only, or from letters it returned."""

    __slots__ = _fields = ("letters",)

    # built and compared per boundary walk: spelled out, __init__ and
    # __eq__ cost what the frozen dataclass's did, a quarter and a third of
    # the generic Record methods (an __eq__ needs its own __hash__)
    def __init__(self, letters):
        object.__setattr__(self, "letters", letters)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.letters == other.letters
        return NotImplemented

    def __hash__(self):
        return hash((self.letters,))

    def __str__(self):
        return word_to_str(self.letters)


def _least_rotation(s):
    """Start of the least rotation of ``s``: two candidate starts i < j
    agree on k keys, and at a mismatch the larger one moves past them."""
    n = len(s)
    s = s + s
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = s[i + k], s[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i = max(i + k + 1, j)
            j = i + 1
        else:
            j += k + 1
        k = 0
    return i


def conj_class(w) -> ConjClass:
    """Canonical unoriented conjugacy class of a nontrivial word."""
    return ConjClass(_decode(_canonical(_encode(reduce(w)))))


def primitive_root(c: ConjClass):
    """Return ``(root, m)`` with ``c`` the class of ``root^m`` and root primitive.

    Detected as the minimal cyclic period of the canonical word: d is a
    period when ``w`` shifted by d is itself, one tuple comparison.
    """
    w = c.letters
    n = len(w)
    for d in range(1, n + 1):
        if n % d:
            continue
        if w[d:] == w[:n - d]:
            # w = r^m is least among the rotations of w and w^-1, and those
            # are the m-th powers of the rotations of r and r^-1, so r is
            # already least among its own: no second canonicalization
            return ConjClass(w[:d]), n // d
    raise AssertionError("unreachable: every word has period len(w)")


class Automorphism(Record):
    """Endomorphism given by generator ``images``, one Word per generator;
    ``label`` records provenance and plays no algebraic role.
    :func:`scl.mcg.mapping_class` checks that it is a peripheral-preserving
    automorphism, i.e. a mapping class."""

    __slots__ = _fields = ("images", "label")
    _defaults = {"label": ""}

    @property
    def rank(self):
        return len(self.images)


def apply(phi: Automorphism, w) -> Word:
    """Image of ``w`` under ``phi``, freely reduced."""
    blocks = {}
    for i, im in enumerate(phi.images):
        blocks[i + 1], blocks[-(i + 1)] = im, inverse(im)
    try:
        return concat(*map(blocks.__getitem__, w))
    except KeyError as exc:
        raise InputError(
            f"letter {exc.args[0]!r} is not a generator of rank {phi.rank} or its inverse"
        ) from None


def _image_kernel(phi: Automorphism):
    """The function that maps a cyclically reduced nontrivial byte word w
    to the cyclically reduced byte word of ``phi(w)``, some rotation of
    some orientation of its class: the one image kernel of the curve walk
    and of :func:`scl.mcg.act_on_multicurve`, which canonicalizes it.

    Every step is a ``bytes`` method, so it runs at C speed.  One
    ``translate`` turns each letter whose image is not itself into a
    marker byte above the letters (and a letter beyond the rank into 0),
    and one ``replace`` per marker writes its image.  Deleting every
    cancelling pair, one ``replace`` per pair, until the length stops
    changing leaves the reduced image, and :func:`_cyclic_reduce` cuts
    the letters that cancel around the cycle.
    """
    rank = phi.rank
    table = bytearray(256)
    swaps = []
    for i, im in enumerate(phi.images):
        for l, block in ((i + 1, _encode(im)), (-(i + 1), _encode(inverse(im)))):
            b = _BYTE[l]
            if block == bytes((b,)):
                table[b] = b
            else:
                table[b] = 128 + b
                swaps.append((bytes((128 + b,)), block))
    table = bytes(table)
    top = max([rank, *(abs(l) for im in phi.images for l in im)])
    cancelling = [bytes((_BYTE[l], _BYTE[-l])) for l in range(-top, top + 1) if l]

    def image(src: bytes) -> bytes:
        w = src.translate(table)
        for marker, block in swaps:
            w = w.replace(marker, block)
        if 0 in w:
            bad = next(b for b in src if not table[b])
            raise InputError(f"letter {_LETTER[bad]!r} is not a generator of rank {rank} "
                             "or its inverse")
        n = -1
        while n != len(w):
            n = len(w)
            for pair in cancelling:
                w = w.replace(pair, b"")
        return _cyclic_reduce(w)
    return image


def _cyclic_reduce(w: bytes) -> bytes:
    """The freely reduced byte word ``w`` with the letters that cancel
    cyclically cut from both ends; the trivial word raises
    ``TrivialWordError``."""
    if not w:
        raise TrivialWordError("trivial word has no conjugacy class")
    n, d = len(w), 0
    while n - 2 * d > 1 and w[d] == _INVERT[w[n - 1 - d]]:
        d += 1
    return w[d:n - d] if d else w


def _canonical(w: bytes) -> bytes:
    """The canonical byte word of the class of a freely reduced byte word.

    The letters that cancel cyclically are cut.  The least rotation of an
    orientation starts with its least letter, so the class is the least
    rotation of the orientation whose least letter is less, or the lesser
    of the two when they tie; a simple curve on the punctured torus never
    ties.
    """
    w = _cyclic_reduce(w)
    v = w.translate(_INVERT)[::-1]
    least, inv_least = min(w), min(v)
    if least < inv_least:
        return _least_rotation_bytes(w, least)
    if inv_least < least:
        return _least_rotation_bytes(v, inv_least)
    return min(_least_rotation_bytes(w, least), _least_rotation_bytes(v, least))


# a curve of the L = 140 lsc ball of 1:aa,b that the ball keeps, the only
# curves its walk canonicalizes, has 35 on average and at most 79
_MAX_STARTS = 256


def _least_rotation_bytes(w: bytes, least: int) -> bytes:
    """The least rotation of ``w``, whose least byte is ``least``: the
    least of the slices of ``w + w`` that start at that byte.  Past
    ``_MAX_STARTS`` such starts the linear scan of :func:`_least_rotation`
    is cheaper than the quadratic run of slices."""
    if w.count(least) > _MAX_STARTS:
        i = _least_rotation(w)
        return w[i:] + w[:i]
    n, ww = len(w), w + w
    i = w.index(least)
    best = ww[i:i + n]
    i = w.find(least, i + 1)
    while i >= 0:
        s = ww[i:i + n]
        if s < best:
            best = s
        i = w.find(least, i + 1)
    return best


def compose(phi: Automorphism, psi: Automorphism) -> Automorphism:
    """phi after psi."""
    return Automorphism(
        images=tuple(apply(phi, im) for im in psi.images),
        label=(phi.label + psi.label),
    )


def identity_automorphism(rank: int) -> Automorphism:
    return Automorphism(images=tuple((i + 1,) for i in range(rank)), label="")


def is_peripheral(root: ConjClass, mult: int, surface):
    """Whether ``root^mult`` is a power of a peripheral class of ``surface``.

    Takes the split ``(root, mult)`` that :func:`primitive_root` returns.
    Decided combinatorially: ``root^mult`` equals ``class(p^m)`` for a
    peripheral word ``p`` iff their primitive roots agree and the
    multiplicities divide.
    """
    for p_root, p_mult in surface.peripheral_roots:
        if root == p_root and mult % p_mult == 0:
            return True
    return False
