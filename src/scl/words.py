"""Free-group word algebra.

Words are tuples of nonzero ints: letter ``+(i+1)`` is generator ``i``,
``-(i+1)`` is its inverse.  The ASCII form writes generator ``i`` as the
i-th lowercase letter and its inverse as the matching uppercase letter,
so rank is capped at 26.

Conjugacy classes are unoriented: the canonical representative is the
lexicographic minimum over all rotations of the cyclic word and of its
inverse, under the letter order a < b < ... < A < B < ...
"""

from __future__ import annotations

from dataclasses import dataclass
from string import ascii_lowercase

from .errors import InputError, TrivialWordError

Word = tuple  # tuple of nonzero ints

_ORD = {}
for _i, _ch in enumerate(ascii_lowercase):
    _ORD[_ch] = _i + 1
    _ORD[_ch.upper()] = -(_i + 1)


def word_from_str(s: str) -> Word:
    """Parse an ASCII word and freely reduce it ("" gives the empty word)."""
    try:
        raw = [_ORD[ch] for ch in s]
    except KeyError as exc:
        raise InputError(f"bad letter {exc.args[0]!r} in word {s!r}; expected [a-zA-Z]")
    return reduce(raw)


def word_to_str(w) -> str:
    out = []
    for l in w:
        ch = ascii_lowercase[abs(l) - 1]
        out.append(ch if l > 0 else ch.upper())
    return "".join(out)


def check_rank(w, rank: int) -> None:
    for l in w:
        if not 1 <= abs(l) <= rank:
            raise InputError(f"letter index {abs(l) - 1} out of range for rank {rank}")


def reduce(raw) -> Word:
    """Freely reduce a letter sequence (stack cancellation)."""
    if 0 in raw:
        raise InputError("letter 0 is not a generator")
    return concat(raw)


def inverse(w) -> Word:
    return tuple(-l for l in reversed(w))


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


@dataclass(frozen=True, slots=True)
class ConjClass:
    """Canonical unoriented cyclic word; build via :func:`conj_class` only."""

    letters: Word

    def __str__(self):
        return word_to_str(self.letters)


def _least_rotation(keys):
    """Start index of the lexicographically least rotation (Booth)."""
    s = keys + keys
    n = len(s)
    f = [-1] * n
    k = 0
    for j in range(1, n):
        sj = s[j]
        i = f[j - k - 1]
        while i != -1 and sj != s[k + i + 1]:
            if sj < s[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != s[k + i + 1]:
            if sj < s[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return k


def _min_rotation(keys):
    n = len(keys)
    k = _least_rotation(keys)
    return (keys + keys)[k:k + n]


def conj_class(w) -> ConjClass:
    """Canonical unoriented conjugacy class of a nontrivial word."""
    w = reduce(w)
    while len(w) > 1 and w[0] == -w[-1]:
        w = w[1:-1]
    if not w:
        raise TrivialWordError("trivial word has no conjugacy class")
    keys = tuple((-l - 1 + 32) if l < 0 else l - 1 for l in w)
    inv_keys = tuple((l - 1 + 32) if l > 0 else -l - 1 for l in reversed(w))
    best = min(_min_rotation(keys), _min_rotation(inv_keys))
    # undo the key map: key k < 32 is generator k, key k >= 32 is inverse k-32
    letters = tuple(-(k - 31) if k >= 32 else k + 1 for k in best)
    return ConjClass(letters)


def primitive_root(c: ConjClass):
    """Return ``(root, m)`` with ``c`` the class of ``root^m`` and root primitive.

    Detected as the minimal cyclic period of the canonical word.
    """
    w = c.letters
    n = len(w)
    for d in range(1, n + 1):
        if n % d:
            continue
        if all(w[i] == w[i % d] for i in range(d, n)):
            if d == n:
                return c, 1
            return conj_class(w[:d]), n // d
    raise AssertionError("unreachable: every word has period len(w)")


@dataclass(frozen=True, slots=True)
class Automorphism:
    """Endomorphism given by generator images; ``label`` records provenance
    and plays no algebraic role.  :func:`scl.mcg.mapping_class` checks that
    it is a peripheral-preserving automorphism, i.e. a mapping class."""

    images: tuple  # one Word per generator
    label: str = ""

    @property
    def rank(self):
        return len(self.images)


def apply(phi: Automorphism, w) -> Word:
    """Image of ``w`` under ``phi``, freely reduced."""
    images = phi.images
    inverses = [inverse(im) for im in images]
    return concat(*(images[l - 1] if l > 0 else inverses[-l - 1] for l in w))


def compose(phi: Automorphism, psi: Automorphism) -> Automorphism:
    """phi after psi."""
    return Automorphism(
        images=tuple(apply(phi, im) for im in psi.images),
        label=(phi.label + psi.label),
    )


def identity_automorphism(rank: int) -> Automorphism:
    return Automorphism(images=tuple((i + 1,) for i in range(rank)), label="")


def is_peripheral(c: ConjClass, surface):
    """Whether ``c`` is a power of a peripheral class of ``surface``.

    Decided combinatorially: ``c`` equals ``class(p^m)`` for a peripheral
    word ``p`` iff their primitive roots agree and the multiplicities divide.
    Returns ``(True, m)`` or ``(False, None)``.
    """
    root_c, mult_c = primitive_root(c)
    for p_root, p_mult in surface.peripheral_roots:
        if root_c == p_root and mult_c % p_mult == 0:
            return True, mult_c // p_mult
    return False, None
