import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from scl import geometry, words
from scl.errors import ConfigError, DiscretenessError, InputError, ParabolicError, TrivialWordError
from conftest import random_reduced_word

W = words.word_from_str


def test_builtin_validates(torus):
    assert geometry.validate(torus) == []
    assert geometry.holonomy_trace(W("abAB"), torus) == -2


def test_validation_catches_bad_determinant(torus):
    broken = geometry.SurfaceStructure(
        name="det2", genus=1, cusps=1,
        matrices=(((1, 1), (1, 2)), ((2, 0), (0, 1))),
        peripheral_words=torus.peripheral_words,
        ribbon_order=torus.ribbon_order)
    assert any("determinant" in p for p in geometry.validate(broken))
    with pytest.raises(ConfigError):
        geometry.validated(broken)


def test_validation_catches_missing_dart(torus):
    broken = geometry.SurfaceStructure(
        name="short-ribbon", genus=1, cusps=1,
        matrices=torus.matrices,
        peripheral_words=torus.peripheral_words,
        ribbon_order=torus.ribbon_order[:3])
    assert any("ribbon" in p for p in geometry.validate(broken))


def test_validation_excludes_thrice_punctured_sphere(torus):
    sphere = geometry.SurfaceStructure(
        name="0-3", genus=0, cusps=3,
        matrices=torus.matrices,
        peripheral_words=torus.peripheral_words,
        ribbon_order=torus.ribbon_order)
    assert any("(0, 3)" in p for p in geometry.validate(sphere))


def test_validation_excludes_the_annulus():
    # rank 1 = 2g + r - 1 and the ribbon closes up, but 2g - 2 + r = 0
    annulus = geometry.surface_from_dict({
        "genus": 0, "cusps": 2, "ribbon_order": ["a+", "a-"], "peripherals": ["a", "A"],
        "matrices": {"a": [[1, 1], [0, 1]]}})
    problems = geometry.validate(annulus)
    assert problems and all(p.startswith("genus/cusps:") for p in problems)
    with pytest.raises(ConfigError, match="genus/cusps"):
        geometry.validated(annulus)


def _with(torus, **fields):
    values = {"name": "changed", "genus": torus.genus, "cusps": torus.cusps,
              "matrices": torus.matrices, "peripheral_words": torus.peripheral_words,
              "ribbon_order": torus.ribbon_order, **fields}
    return geometry.SurfaceStructure(**values)


@pytest.mark.parametrize("fields, problems", [
    # one letter per generator: 28 matrices have no alphabet, so nothing else is checked
    ({"genus": 13, "cusps": 3, "matrices": ((((1, 1), (1, 2)),) * 28)},
     ["matrices: rank 28 outside [1, 26]"]),
    ({"cusps": 0},
     ["cusps: need r >= 1, got 0",
      "genus/cusps: (1, 0) has 2g - 2 + r <= 0, not hyperbolic",
      "matrices: rank 2 != 2g + r - 1 = 1",
      "peripheral_words: 1 words for 0 cusps"]),
    ({"genus": 2}, ["matrices: rank 2 != 2g + r - 1 = 4"]),
    ({"peripheral_words": ((),)}, ["peripheral_words[0]: trivial word"]),
    # a+ a- b+ b- thickens the bouquet to a sphere with three boundary cycles
    ({"ribbon_order": ((0, 1), (0, -1), (1, 1), (1, -1))},
     ["ribbon_order: bouquet boundary does not reproduce the peripheral classes"]),
], ids=["rank-28", "no-cusps", "rank-not-2g+r-1", "trivial-peripheral", "ribbon-boundary"])
def test_validation_names_each_broken_invariant(torus, fields, problems):
    broken = _with(torus, **fields)
    assert geometry.validate(broken) == problems
    with pytest.raises(ConfigError, match=f"^{re.escape('; '.join(problems))}$"):
        geometry.validated(broken)


def test_traces(torus):
    assert geometry.holonomy_trace(W("a"), torus) == 3
    assert geometry.holonomy_trace(W("b"), torus) == 3
    assert geometry.holonomy_trace(W("ab"), torus) == 3
    assert geometry.holonomy_trace(W("aab"), torus) == 6
    assert geometry.holonomy_trace((), torus) == 2


def test_lengths(torus):
    la = geometry.geodesic_length(words.conj_class(W("a")), torus)
    assert la == pytest.approx(2.0 * math.acosh(1.5), rel=1e-12)
    laab = geometry.geodesic_length(words.conj_class(W("aab")), torus)
    assert laab == pytest.approx(2.0 * math.acosh(3.0), rel=1e-12)
    with pytest.raises(ParabolicError):
        geometry.geodesic_length(words.conj_class(W("abAB")), torus)


def test_classify(torus):
    assert geometry.classify(W("abAB"), torus) == "parabolic"
    assert geometry.classify(W("a"), torus) == "hyperbolic"
    with pytest.raises(TrivialWordError):
        geometry.classify((), torus)


def test_trace_conjugation_invariant(torus, rng):
    for _ in range(500):
        w = random_reduced_word(rng, 2, 12)
        u = random_reduced_word(rng, 2, 6)
        conj = words.concat(u, w, words.inverse(u))
        assert geometry.holonomy_trace(conj, torus) == geometry.holonomy_trace(w, torus)


def test_trace_inversion_invariant(torus, rng):
    for _ in range(200):
        w = random_reduced_word(rng, 2, 15)
        assert geometry.holonomy_trace(words.inverse(w), torus) == \
            geometry.holonomy_trace(w, torus)


def test_length_monotone_in_trace(torus):
    lengths = [geometry.geodesic_length(words.conj_class(w), torus)
               for w in (W("a"), W("aab"), W("aabab"))]
    traces = [geometry.holonomy_trace(w, torus) for w in (W("a"), W("aab"), W("aabab"))]
    assert traces == sorted(traces) and traces[0] < traces[-1]
    assert lengths == sorted(lengths) and lengths[0] < lengths[-1]


def test_power_length_linear(torus, rng):
    la = geometry.geodesic_length(words.conj_class(W("a")), torus)
    for m in (2, 5, 37, 300):
        lm = geometry.geodesic_length(words.conj_class((1,) * m), torus)
        assert abs(lm - m * la) <= 1e-9 * m * la


def test_huge_trace_stays_accurate(torus):
    # trace of a^600 is ~ e^577; the log-domain branch must agree with the
    # doubling identity length(a^(2m)) = 2 length(a^m)
    l300 = geometry.geodesic_length(words.conj_class((1,) * 300), torus)
    l600 = geometry.geodesic_length(words.conj_class((1,) * 600), torus)
    assert abs(l600 - 2 * l300) <= 1e-9 * l600
    t = geometry.holonomy_trace((1,) * 600, torus)
    assert isinstance(t, int) and t > 2 ** 800


def _surface(name, *matrices):
    """A bare structure with these matrices, for tracing words only."""
    return geometry.SurfaceStructure(name, 0, 0, matrices, (), ())


def _reduced(rank, picks):
    """The reduced word of this rank spelled by ``picks``: each pick
    chooses among the letters that do not cancel the one before."""
    letters = [l for i in range(1, rank + 1) for l in (i, -i)]
    w = []
    for p in picks:
        options = [l for l in letters if not w or l != -w[-1]]
        w.append(options[p % len(options)])
    return tuple(w)


_EXACT = (geometry.modular_torus(), _surface("rank-1", ((2, 1), (1, 1))),
          _surface("rank-3", ((1, 1), (1, 2)), ((1, -1), (-1, 2)), ((3, 2), (1, 1))))
# conjugate by diag(3, 1/3): 1/9 in the matrices, so a product associated
# in another order would move a trace
_NINEFOLD = _surface("ninefold", ((1, 9), (1 / 9, 2)), ((1, -9), (-1 / 9, 2)))


@given(st.lists(st.integers(0, 5), max_size=41))
def test_byte_trace_is_the_holonomy_trace(picks):
    # words of 0 to 41 letters, so every length mod 4: integers four
    # letters at a time on exact surfaces, the same float letter by letter
    for s in _EXACT:
        w = _reduced(s.rank, picks)
        got = geometry._byte_trace(words._encode(w), s)
        assert type(got) is int and got == geometry.holonomy_trace(w, s)
    w = _reduced(2, picks)
    got = geometry._byte_trace(words._encode(w), _NINEFOLD)
    want = geometry.holonomy_trace(w, _NINEFOLD)
    assert (type(got), repr(got)) == (type(want), repr(want))


def test_byte_trace_builds_only_the_blocks_it_reads():
    # rank 26 has 52 ** 4 blocks of four letters; a trace builds its own few
    wide = _surface("rank-26", *(((1, i), (1, i + 1)) for i in range(1, 27)))
    w = W("azByZcxYw")
    code = words._encode(w)
    assert geometry._byte_trace(code, wide) == geometry.holonomy_trace(w, wide)
    read = set(memoryview(code + b"\0" * 3).cast("I"))
    assert len(read) == 3 and set(wide._letter_blocks) == read


def test_holonomy_trace_rejects_letters_out_of_range(torus):
    for letter, index in ((3, 2), (-3, 2), (0, -1)):
        msg = f"letter index {index} out of range for rank 2"
        with pytest.raises(InputError, match=msg):
            geometry.holonomy_trace((1, letter, 2), torus)


def test_discreteness_guard():
    bad = geometry.SurfaceStructure(
        name="bad", genus=1, cusps=1,
        matrices=(((0, 1), (-1, 0)), ((1, -1), (-1, 2))),  # elliptic a
        peripheral_words=(W("abAB"),),
        ribbon_order=((0, 1), (1, 1), (0, -1), (1, -1)))
    with pytest.raises(DiscretenessError):
        geometry.geodesic_length(words.conj_class(W("a")), bad)
    with pytest.raises(DiscretenessError,
                       match=r"^\|trace\| = 0 < 2 for nontrivial word; representation not discrete$"):
        geometry.classify(W("a"), bad)


def test_surface_json_round_trip(torus):
    payload = {
        "name": "modular-torus-copy",
        "genus": 1,
        "cusps": 1,
        "ribbon_order": ["a+", "b+", "a-", "b-"],
        "peripherals": ["abAB"],
        "matrices": {"a": [[1, 1], [1, 2]], "b": [[1, -1], [-1, 2]]},
    }
    s = geometry.surface_from_dict(payload)
    assert geometry.validate(s) == []
    assert s.matrices == torus.matrices
    assert s.exact
    # conjugating by diag(2, 1/2) keeps every entry a dyadic float
    payload["matrices"] = {"a": [[1, 4], [0.25, 2]], "b": [[1, -4], [-0.25, 2]]}
    s = geometry.surface_from_dict(payload)
    assert geometry.validate(s) == []
    assert not s.exact


def test_readme_surface_config_is_the_committed_torus():
    # the README's example config is tests/data/modular_torus.json, and it
    # loads to the built-in surface
    root = Path(__file__).resolve().parent.parent
    section = (root / "README.md").read_text().split("## Surface configs", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    path = root / "tests" / "data" / "modular_torus.json"
    assert json.loads(block) == json.loads(path.read_text())
    assert geometry.surface_from_file(str(path)) == geometry.modular_torus()


def test_surface_json_missing_field():
    with pytest.raises(InputError):
        geometry.surface_from_dict({"genus": 1, "cusps": 1})


@pytest.mark.parametrize("entry, key, kind", [
    ({"name": None}, "name", "str"),
    ({"mcg_generators": None}, "mcg_generators", "list"),
    ({"mcg_generators": [{"images": ["a", "ab"], "label": None}]}, "label", "str"),
])
def test_surface_json_null_is_the_wrong_type_not_a_missing_field(entry, key, kind):
    # the key is there, so the message names the type its value must have
    path = Path(__file__).resolve().parent / "data" / "modular_torus.json"
    payload = {**json.loads(path.read_text()), **entry}
    with pytest.raises(InputError, match=rf"field '{key}' must be a {kind}: None$"):
        geometry.surface_from_dict(payload)


@pytest.mark.parametrize("genus, cusps", [
    (1000000, 1), (10 ** 30, 1), (13, 2), (-1, 1), (-5, 3), (0, 1), (0, 0)])
def test_surface_json_rank_outside_the_alphabet(genus, cusps):
    # 2g + r - 1 generators need one letter each, a to z: any other rank is
    # an input error before the alphabet is built, not a chr() ValueError
    # or an empty alphabet
    path = Path(__file__).resolve().parent / "data" / "modular_torus.json"
    payload = {**json.loads(path.read_text()), "genus": genus, "cusps": cusps}
    rank = 2 * genus + cusps - 1
    with pytest.raises(InputError, match=rf"2g \+ r - 1 = {rank} is outside \[1, 26\]$"):
        geometry.surface_from_dict(payload)


@pytest.mark.parametrize("matrices, message", [
    ({"a": [["1", 1], [1, 2]], "b": [[1, -1], [-1, 2]]}, "matrix entry '1' is not a number"),
    ({"a": [[1, 1], [1, 2]]}, "matrices: missing generator 'b'"),
], ids=["string-entry", "missing-generator"])
def test_surface_json_matrices_are_numbers_for_every_generator(matrices, message):
    path = Path(__file__).resolve().parent / "data" / "modular_torus.json"
    payload = {**json.loads(path.read_text()), "matrices": matrices}
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        geometry.surface_from_dict(payload)


def test_surface_json_absent_field_is_its_default_or_missing():
    path = Path(__file__).resolve().parent / "data" / "modular_torus.json"
    payload = json.loads(path.read_text())
    del payload["name"]
    assert geometry.surface_from_dict(payload).name == "user-surface"
    del payload["cusps"]
    with pytest.raises(InputError, match="missing field 'cusps'"):
        geometry.surface_from_dict(payload)
