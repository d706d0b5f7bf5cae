import random
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from scl import currents, geometry, mcg, words
from scl.errors import InputError, TrivialWordError
from conftest import random_mapping_class, random_reduced_word

W = words.word_from_str


def test_reduce_examples():
    assert words.word_to_str(W("aAb")) == "b"
    assert words.word_to_str(W("abAB")) == "abAB"
    assert words.word_to_str(W("xxYyXx")) == "xx"


def test_parse_rejects_garbage():
    with pytest.raises(InputError):
        W("a&&b")
    with pytest.raises(InputError):
        W("a b")


letters = st.integers(min_value=-4, max_value=4).filter(lambda x: x != 0)


@given(st.lists(letters, max_size=30))
def test_reduce_idempotent(raw):
    once = words.reduce(raw)
    assert words.reduce(once) == once


@given(st.lists(letters, max_size=30))
def test_reduce_cancels_inverse(raw):
    w = words.reduce(raw)
    assert words.reduce(w + words.inverse(w)) == ()


def test_conj_class_examples():
    assert str(words.conj_class(W("abA"))) == "b"
    assert str(words.conj_class(W("ba"))) == "ab"
    assert str(words.conj_class(W("BA"))) == "ab"


def test_conj_class_trivial():
    with pytest.raises(TrivialWordError):
        words.conj_class(W("aA"))


@given(st.lists(letters, min_size=1, max_size=20), st.integers(0, 19))
def test_conj_class_rotation_and_inversion_invariant(raw, shift):
    w = words.reduce(raw)
    if not w:
        return
    c = words.conj_class(w)
    k = shift % len(w)
    assert words.conj_class(w[k:] + w[:k]) == c
    assert words.conj_class(words.inverse(w)) == c


def test_primitive_root_examples():
    root, m = words.primitive_root(words.conj_class(W("abab")))
    assert (str(root), m) == ("ab", 2)
    root, m = words.primitive_root(words.conj_class(W("a")))
    assert (str(root), m) == ("a", 1)
    root, m = words.primitive_root(words.conj_class(W("abaaba")))
    assert (str(root), m) == ("aab", 2)


@given(st.lists(letters, min_size=1, max_size=16))
def test_primitive_root_round_trip(raw):
    w = words.reduce(raw)
    if not w:
        return
    try:
        c = words.conj_class(w)
    except TrivialWordError:
        return
    root, m = words.primitive_root(c)
    assert words.conj_class(root.letters) == root
    assert words.conj_class(root.letters * m) == c


def _brute_period(w):
    """The least d dividing len(w) with w[i] == w[i % d] for every i."""
    n = len(w)
    return next(d for d in range(1, n + 1)
                if n % d == 0 and all(w[i] == w[i % d] for i in range(n)))


def test_primitive_root_is_the_brute_force_period(rng):
    for _ in range(400):
        c = words.conj_class(random_reduced_word(rng, rng.randint(1, 3), 12))
        d = _brute_period(c.letters)
        for m in range(1, 5):
            # the m-th power of a canonical word is canonical
            power = words.ConjClass(c.letters * m)
            root, mult = words.primitive_root(power)
            assert (root.letters, mult) == (c.letters[:d], m * len(c.letters) // d)


def _letter_order(l):
    """The documented order a < b < ... < A < B < ... as a sort key."""
    return l if l > 0 else 26 - l


def _brute_conj_class(w):
    """Least of all 2n rotations of the cyclically reduced w and of w^-1,
    each keyed as its list of letter orders."""
    w = _cyclically_reduced(words.reduce(w))
    rotations = []
    for v in (w, words.inverse(w)):
        keys = [_letter_order(l) for l in v]
        rotations += [(keys[i:] + keys[:i], v[i:] + v[:i]) for i in range(len(v))]
    return min(rotations)[1]


def _cyclically_reduced_rank2(max_len):
    out = [()]
    for _ in range(max_len):
        out = [w + (l,) for w in out for l in (1, 2, -1, -2) if not w or w[-1] != -l]
        yield from (w for w in out if w[0] != -w[-1])


def test_conj_class_matches_brute_force_on_all_short_rank2_words():
    short = list(_cyclically_reduced_rank2(8))
    assert len(short) == 9856
    for w in short:
        assert words.conj_class(w).letters == _brute_conj_class(w)


def test_conj_class_matches_brute_force_on_powers_conjugates_and_rank4(rng):
    for i in range(600):
        rank = rng.randint(1, 4)
        w = random_reduced_word(rng, rank, 16)
        if i % 3 == 1:
            w = w * rng.randint(2, 4)
        elif i % 3 == 2:
            u = random_reduced_word(rng, rank, 200)
            w = words.concat(u, w, words.inverse(u))
        assert words.conj_class(w).letters == _brute_conj_class(w)


@given(st.data())
def test_reduced_entry_matches_brute_force_on_one_sign_words(data):
    # each generator appears with one sign, so the orientations' least
    # letters differ and one rotation scan decides
    rank = data.draw(st.integers(1, 4))
    signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=rank, max_size=rank))
    w = tuple(data.draw(st.lists(
        st.integers(1, rank).map(lambda g: signs[g - 1] * g), min_size=1, max_size=30)))
    with mock.patch.object(words, "_least_rotation_bytes",
                           wraps=words._least_rotation_bytes) as scan:
        got = words.conj_class(w)
    assert scan.call_count == 1
    assert got.letters == _brute_conj_class(w)


@given(st.lists(letters, min_size=1, max_size=30))
def test_reduced_entry_matches_brute_force_on_mixed_words(raw):
    w = words.reduce(raw)
    if not w:
        with pytest.raises(TrivialWordError):
            words.conj_class(w)
        return
    assert words.conj_class(w).letters == _brute_conj_class(w)


def test_reduced_entry_takes_both_paths():
    # the least generator with both signs (after cyclic reduction) needs
    # both orientations scanned; otherwise one scan decides
    for text, scans in (("aab", 1), ("aB", 1), ("AAb", 1), ("aabAAB", 2), ("baBA", 2),
                        ("baaBaa", 1), ("AbaBa", 1), ("bcBC", 2)):
        with mock.patch.object(words, "_least_rotation_bytes",
                               wraps=words._least_rotation_bytes) as scan:
            got = words.conj_class(W(text))
        assert scan.call_count == scans, text
        assert got.letters == _brute_conj_class(W(text)), text


def test_conj_class_matches_brute_force_around_the_linear_fallback(rng):
    # just below and just past _MAX_STARTS starts of the least letter, where
    # _least_rotation_bytes hands over to the linear scan of _least_rotation
    assert words._MAX_STARTS == 256
    for text, past in (("b" + "a" * 256, False), ("b" + "a" * 257, True),
                       ("A" * 300 + "b", True), ("aab" * 200 + "b", True)):
        w = W(text)
        cases = [w, words.inverse(w)]
        cases += [w[k:] + w[:k] for k in rng.sample(range(1, len(w)), 3)]
        cases += [words.concat(u, w, words.inverse(u))
                  for u in (random_reduced_word(rng, 2, 20) for _ in range(3))]
        with mock.patch.object(words, "_least_rotation", wraps=words._least_rotation) as scan:
            got = [words.conj_class(v).letters for v in cases]
        assert (scan.call_count == len(cases)) if past else not scan.called, text
        assert got == [_brute_conj_class(v) for v in cases], text


def test_conj_class_matches_brute_force_on_rank_26_words(rng):
    used = set()
    for i in range(300):
        w = random_reduced_word(rng, 26, 40)
        if i % 3 == 1:
            w = w * rng.randint(2, 3)
        elif i % 3 == 2:
            w = words.concat(w, W("z"), w, W("Z"))  # both z and Z in one class
        used.update(w)
        assert words.conj_class(w).letters == _brute_conj_class(w)
    assert {26, -26} <= used


def test_least_rotation_matches_brute_force(rng):
    cases = [tuple(rng.randrange(k) for _ in range(rng.randint(1, 24)))
             for k in (1, 2, 3, 52) for _ in range(150)]
    cases += [tuple(rng.randrange(2) for _ in range(rng.randint(1, 5))) * rng.randint(2, 6)
              for _ in range(300)]
    for s in cases:
        i = words._least_rotation(s)
        assert 0 <= i < len(s)
        assert s[i:] + s[:i] == min(s[j:] + s[:j] for j in range(len(s)))


PHI1 = words.Automorphism(images=(W("a"), W("ab")), label="ta")


def test_apply_examples():
    assert words.word_to_str(words.apply(PHI1, W("b"))) == "ab"
    assert words.word_to_str(words.apply(PHI1, W("ab"))) == "aab"
    assert words.word_to_str(words.apply(PHI1, W("abAB"))) == "aabABA"
    assert words.conj_class(W("aabABA")) == words.conj_class(W("abAB"))


@pytest.mark.parametrize("letter", [0, 3, -3])
def test_apply_rejects_a_letter_outside_the_rank(letter):
    with pytest.raises(InputError, match=f"letter {letter} "):
        words.apply(PHI1, (1, letter))


letters_rank2 = st.integers(min_value=-2, max_value=2).filter(lambda x: x != 0)


@given(st.lists(letters_rank2, max_size=12), st.lists(letters_rank2, max_size=12))
def test_apply_is_homomorphism(u, v):
    left = words.apply(PHI1, words.reduce(list(u) + list(v)))
    right = words.reduce(words.apply(PHI1, words.reduce(u))
                         + words.apply(PHI1, words.reduce(v)))
    assert left == right


def test_apply_respects_composition(rng):
    psi = words.Automorphism(images=(W("ab"), W("b")), label="tb")
    comp = words.compose(PHI1, psi)
    for _ in range(50):
        w = random_reduced_word(rng, 2, 12)
        assert words.apply(comp, w) == words.apply(PHI1, words.apply(psi, w))


def _apply_letterwise(phi, w):
    """Reference image: append one letter's image (or its inverse) at a time."""
    out = ()
    for l in w:
        im = phi.images[abs(l) - 1]
        out = words.concat(out, im if l > 0 else words.inverse(im))
    return out


def test_apply_matches_letterwise_reference(rng, torus):
    for i in range(300):
        if i % 2:
            phi = random_mapping_class(rng, torus, 6)
            rank = 2
        else:
            rank = rng.randint(1, 4)
            phi = words.Automorphism(images=tuple(
                random_reduced_word(rng, rank, 6) for _ in range(rank)))
        w = random_reduced_word(rng, rank, 20)
        assert words.apply(phi, w) == _apply_letterwise(phi, w)


def test_is_peripheral_examples(torus):
    def split(text):
        return words.primitive_root(words.conj_class(W(text)))

    assert words.is_peripheral(*split("abAB"), torus) is True
    assert words.is_peripheral(*split("abABabAB"), torus) is True
    assert words.is_peripheral(*split("a"), torus) is False


def test_is_peripheral_conjugated_powers(torus):
    w = words.reduce(W("ba") + W("abABabAB") + W("AB"))
    assert words.is_peripheral(*words.primitive_root(words.conj_class(w)), torus) is True


def test_peripheral_matches_trace_classification(torus, rng):
    for _ in range(500):
        w = random_reduced_word(rng, 2, 20)
        try:
            c = words.conj_class(w)
        except TrivialWordError:
            continue
        peripheral = words.is_peripheral(*words.primitive_root(c), torus)
        assert peripheral == (geometry.classify(w, torus) == "parabolic")


# ---------------------------------------------------------------- byte words

def test_byte_letters_round_trip_in_key_order():
    letters = [l for g in range(1, 27) for l in (g, -g)]
    assert words._decode(words._encode(letters)) == tuple(letters)
    in_key_order = sorted(letters, key=_letter_order)
    assert list(words._encode(in_key_order)) == list(range(1, 53))
    assert str(words._Spelled(words._encode(W("aabAzBZ")))) == "aabAzBZ"


def test_every_letter_spells_as_its_ascii_letter():
    for g, ch in enumerate("abcdefghijklmnopqrstuvwxyz", start=1):
        assert words.word_to_str((g,)) == ch
        assert words.word_to_str((-g,)) == ch.upper()


@pytest.mark.parametrize("bad", [0, 27, -27])
def test_a_letter_beyond_the_alphabet_is_named(torus, bad):
    # letters run over +-1..+-26, one per ASCII letter; anything else is
    # an input error that names it, not a wrong spelling or a KeyError
    with pytest.raises(InputError, match=f"letter {bad} "):
        words.word_to_str((1, bad))
    with pytest.raises(InputError, match=f"letter {bad} "):
        words.conj_class((bad, 1))
    foreign = currents.Multicurve(items=((words.ConjClass((1, bad)), 1),))
    with pytest.raises(InputError, match=f"letter {bad} "):
        mcg.act_on_multicurve(mcg.twist_generators(torus)[0], foreign)


@given(st.lists(letters, max_size=12), st.lists(letters, max_size=12))
def test_byte_order_is_the_canonical_letter_order(u, v):
    # equal-length byte words compare as their letter orders, so the least
    # bytes rotation is the least rotation of the documented order
    n = min(len(u), len(v))
    u, v = u[:n], v[:n]
    keys = (tuple(map(_letter_order, u)), tuple(map(_letter_order, v)))
    assert (words._encode(u) < words._encode(v)) == (keys[0] < keys[1])


def _kernel_matches_tuple_path(phi, w):
    """The byte kernel gives the tuple image apply(phi, w), cyclically
    reduced, and that canonicalizes to its brute-force class."""
    image = words.apply(phi, w)
    got = words._image_kernel(phi)(words._encode(w))
    assert words._decode(got) == _cyclically_reduced(image), (phi, w)
    assert words._decode(words._canonical(got)) == _brute_conj_class(image), (phi, w)


def _nielsen_automorphism(rng, rank, moves):
    """A random product of elementary Nielsen moves: x_i -> x_i x_j^(+-1),
    x_i -> x_j^(+-1) x_i, x_i -> x_i^-1."""
    phi = words.identity_automorphism(rank)
    for _ in range(moves):
        images = [(g + 1,) for g in range(rank)]
        i = rng.randrange(rank)
        others = [g for g in range(rank) if g != i]
        if others and rng.random() < 0.8:
            y = (rng.choice(others) + 1) * rng.choice((1, -1))
            images[i] = (i + 1, y) if rng.random() < 0.5 else (y, i + 1)
        else:
            images[i] = (-(i + 1),)
        phi = words.compose(words.Automorphism(images=tuple(images)), phi)
    return phi


def _cyclically_reduced(w):
    while len(w) > 1 and w[0] == -w[-1]:
        w = w[1:-1]
    return w


@given(st.data())
def test_image_kernel_matches_the_tuple_path(data):
    rank = data.draw(st.sampled_from((2, 3)))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    if rank == 2 and rng.random() < 0.5:
        phi = random_mapping_class(rng, geometry.modular_torus(), 8)
    else:
        phi = _nielsen_automorphism(rng, rank, rng.randint(1, 8))
    raw = data.draw(st.lists(st.integers(1, rank).flatmap(
        lambda g: st.sampled_from((g, -g))), min_size=1, max_size=40))
    w = _cyclically_reduced(words.reduce(raw))
    if w:
        _kernel_matches_tuple_path(phi, w)


def test_image_kernel_matches_the_tuple_path_on_the_aab_ball(torus):
    ball = mcg.orbit_ball(currents.parse_current("1:aa,b", torus), (1, 0), 50.0, surface=torus)
    curves = {letters for _, _, b_key in ball.members() for letters, _ in b_key}
    assert len(curves) == 642
    for t in mcg.twist_generators(torus):
        for letters in curves:
            _kernel_matches_tuple_path(t, letters)


def test_image_kernel_matches_the_tuple_path_on_adversarial_words():
    ta = words.Automorphism(images=(W("a"), W("ab")))
    tb = words.Automorphism(images=(W("ab"), W("b")))
    # a -> abc, b -> CB, c -> c: the image of ab is ab cC B, so the pair bB
    # cancels only once cC has gone, a second reduction pass
    nested = words.Automorphism(images=(W("abc"), W("CB"), W("c")))
    cases = [(phi, W(text)) for phi in (ta, tb)
             for text in ("a" * 60 + "b", "ab" * 40, "a" * 90, "aab" * 30, "aabAAB" * 12,
                          "aB" * 25, "AB" + "a" * 40, "b" + "A" * 33 + "b" * 7,
                          # past _MAX_STARTS rotation starts: the linear scan
                          "b" + "a" * 700, "ba" * 300, "b" + "aab" * 200, "a" * 500)]
    cases += [(nested, W(text)) for text in ("ab", "abab", "abc" * 5 + "b", "aBc", "ab" * 20)]
    # a block that cancels whole: b -> Ab meets a
    cases += [(words.Automorphism(images=(W("a"), W("Ab"))), W(text))
              for text in ("ab", "abab", "aab" * 9, "ab" * 30 + "b")]
    for phi, w in cases:
        _kernel_matches_tuple_path(phi, w)


def test_image_kernel_on_rank_26_letters():
    rank = 26
    images = [(g + 1,) for g in range(rank)]
    images[25] = W("za")  # z -> za
    phi = words.Automorphism(images=tuple(images))
    for text in ("z", "zZ" + "y", "zazb", "ZyZyaqa", "zzzzAy", "Z" * 9 + "a"):
        w = _cyclically_reduced(W(text))
        if w:
            _kernel_matches_tuple_path(phi, w)


def test_image_kernel_rejects_trivial_images_and_foreign_letters():
    collapse = words.Automorphism(images=(W("a"), W("a")))  # b -> a: aB maps to 1
    with pytest.raises(TrivialWordError):
        words._image_kernel(collapse)(words._encode(W("aB")))
    with pytest.raises(TrivialWordError):
        words.conj_class(words.apply(collapse, W("aB")))
    with pytest.raises(InputError, match="letter 3 "):
        words._image_kernel(PHI1)(words._encode(W("abc")))
