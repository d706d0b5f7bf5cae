"""The value records' contract: how each one prints, hashes, compares and
refuses change.  Set orders, dict orders and cache keys all follow from it."""

import json
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from scl import census, currents, geometry, graphs, mcg, ribbon, words

SRC = Path(__file__).resolve().parent.parent / "src"

CONJ = words.ConjClass((1, 2, -1))
SUBGROUP = graphs.SubgroupClass(b"2;1;0,0,0,0")
MULTICURVE = currents.Multicurve(((CONJ, Fraction(1, 2)),))

# (class, field names in order, field values); every record class is here
RECORDS = [
    (census.CensusTable, ("rows", "meta"), (((1.0, 2),), {"kind": "scc"})),
    (census.FitResult, ("slope", "intercept", "r2", "window"), (2.0, -1.5, 0.99, (10.0, 20.0))),
    (currents.Multicurve, ("items",), (((CONJ, Fraction(1, 2)),),)),
    (currents.RationalSubsetCurrent, ("terms",), (((SUBGROUP, Fraction(3)),),)),
    (geometry.SurfaceStructure,
     ("name", "genus", "cusps", "matrices", "peripheral_words", "ribbon_order", "mcg_images"),
     ("t", 1, 1, (((1, 1), (1, 2)), ((1, -1), (-1, 2))), ((1, 2, -1, -2),),
      ((1, 0), (2, 1), (-1, 0), (-2, 1)), ((((1,), (1, 2)), "ta"),))),
    (graphs.SubgroupClass, ("key",), (b"2;1;0,0,0,0",)),
    (mcg.OrbitBall,
     ("seed", "functional", "cutoff", "margin", "surface", "mode", "elements",
      "frontier_exhausted", "stats"),
     (currents.RationalSubsetCurrent(()), (1, 0), 10.0, 1.5, "s", "eta", {"k": (1.0, ())},
      True, {"seen": 1})),
    (ribbon.BoundaryReport, ("cycles", "euler_char", "genus"), (((CONJ, "geodesic", 1),), -1, 0)),
    (words.ConjClass, ("letters",), ((1, 2, -1),)),
    (words.Automorphism, ("images", "label"), (((1,), (1, 2)), "ta")),
]
IDS = [r[0].__name__ for r in RECORDS]


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_repr_names_every_field_in_order(cls, names, values):
    x = cls(*values)
    fields = ", ".join(f"{n}={v!r}" for n, v in zip(names, values))
    assert repr(x) == f"{cls.__name__}({fields})"
    assert tuple(getattr(x, n) for n in names) == values


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, names, values):
    x = cls(*values)
    assert x == cls(**dict(zip(names, values)))
    assert x == cls(*values[:1], **dict(zip(names[1:], values[1:])))
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*values, spare=1)
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})


def test_defaults():
    assert words.Automorphism(((1,), (2,))).label == ""
    s = geometry.SurfaceStructure("t", 1, 1, (), (), ())
    assert s.mcg_images == ()


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_hash_is_the_hash_of_the_field_tuple(cls, names, values):
    x = cls(*values)
    try:
        want = hash(values)
    except TypeError:
        # a dict field (CensusTable.meta, OrbitBall.elements) makes record and
        # tuple unhashable alike
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == want


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_equal_only_to_a_record_of_its_own_type(cls, names, values):
    x = cls(*values)
    assert x == cls(*values) and not x != cls(*values)
    assert x != values and values != x
    assert x != list(values)
    for other, other_names, _ in RECORDS:
        if other is not cls and len(other_names) == len(names):
            assert x != other(*values)
    assert x != cls(*values[:-1], ("changed",))


def test_a_zero_multicurve_is_not_a_zero_current():
    assert currents.Multicurve(()) != currents.RationalSubsetCurrent(())
    assert words.ConjClass((1,)) != graphs.SubgroupClass((1,))
    assert words.ConjClass((1,)) != ((1,),)


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_frozen_records_refuse_change(cls, names, values):
    x = cls(*values)
    with pytest.raises(AttributeError):
        setattr(x, names[0], values[0])
    with pytest.raises(AttributeError):
        delattr(x, names[-1])
    assert getattr(x, names[-1]) == values[-1]


def test_records_have_no_length():
    with pytest.raises(TypeError):
        len(CONJ)
    with pytest.raises(TypeError):
        len(MULTICURVE)
    assert len(currents.RationalSubsetCurrent(((SUBGROUP, Fraction(3)),))) == 1


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_records_survive_pickling(cls, names, values):
    x = cls(*values)
    assert pickle.loads(pickle.dumps(x)) == x


def test_surface_caches_are_per_instance(torus):
    # the cached properties of a surface are computed on it, never shared
    dyadic = geometry.SurfaceStructure(
        "dyadic", torus.genus, torus.cusps, (((1, 4), (0.25, 2)), ((1, -4), (-0.25, 2))),
        torus.peripheral_words, torus.ribbon_order)
    assert torus.exact and not dyadic.exact
    assert torus.peripheral_roots == dyadic.peripheral_roots


def test_surface_hash_is_taken_once_and_equal_surfaces_hash_equal(torus):
    # the subgroup_boundary cache hashes its surface on every call
    twin = geometry.SurfaceStructure(*(getattr(torus, f) for f in torus._fields))
    assert twin is not torus and twin == torus and hash(twin) == hash(torus)
    assert "_hash" in vars(twin)
    assert {torus: 1}[twin] == 1
    assert hash(pickle.loads(pickle.dumps(twin))) == hash(twin)
    other = geometry.SurfaceStructure("other", *(getattr(torus, f) for f in torus._fields[1:]))
    assert other != torus and hash(other) == hash(tuple(getattr(other, f) for f in other._fields))


def test_importing_scl_loads_no_introspection_modules():
    # dataclasses pulls in inspect, ast and dis: two thirds of scl's import
    # time in a fresh process.  string and datetime are not needed either:
    # the alphabet is a literal and the meta time stamp comes from time.
    # -S keeps site hooks out of the check.
    heavy = ("dataclasses", "inspect", "ast", "dis", "string", "datetime")
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import scl, scl.cli; "
            f"import json; print(json.dumps([m for m in {heavy!r} if m in sys.modules]))")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
