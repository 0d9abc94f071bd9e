"""The library's records behave like frozen dataclasses of the same fields.

Every subclass of extpack._record.Record is checked against a reference
that dataclasses.make_dataclass(..., frozen=True) builds from the class's
annotations, its class-level defaults and its uncompared fields.
"""

import dataclasses
import importlib

import pytest

from extpack import _record
from extpack import complexes as cx
from extpack.errors import InvalidComplexError
from extpack.geometry import HolonomyReport

MODULES = ("catalog", "complexes", "covers", "feasibility", "geometry", "grafting", "trigroup")


def _records():
    for name in MODULES:
        importlib.import_module("extpack." + name)
    out, todo = [], list(_record.Record.__subclasses__())
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo += cls.__subclasses__()
    return sorted((c for c in out if c.__module__.startswith("extpack.")), key=lambda c: c.__qualname__)


RECORDS = _records()


def reference(cls):
    """A frozen dataclass with cls's fields, defaults and compared fields."""
    fields = []
    for name in cls.__annotations__:
        spec = {"compare": name not in cls._uncompared}
        if name in vars(cls):
            spec["default"] = vars(cls)[name]
        fields.append((name, object, dataclasses.field(**spec)))
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


def sample(cls, tag=0):
    """Field values for cls, different for each tag; a complex needs real words."""
    if cls is cx.PolygonComplex:
        return {"polygons": (((1, 2, -1, 2),), ((1, 2, 1, 2),))[tag], "name": "K%d" % tag}
    return {name: "%s.%s/%d" % (cls.__name__, name, tag) for name in cls.__annotations__}


def values(obj, fields):
    return [getattr(obj, name) for name in fields]


def test_the_records_are_the_former_dataclasses():
    assert [cls.__name__ for cls in RECORDS] == sorted([
        "CatalogEntry", "DiskLayout", "ExtremalParams", "ExtremalityReport", "GenusProgression",
        "GraftSite", "HolonomyReport", "LineLN", "NgonGeometry", "PolygonComplex", "Rewrite",
        "SubgroupRecord", "SurfaceInvariants", "VertexCycle", "VoltageAssignment",
    ])


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_construction_matches_the_reference(cls):
    ref = reference(cls)
    vals = sample(cls)
    fields = list(cls.__annotations__)
    args = [vals[name] for name in fields]
    required = [vals[name] for name in fields if name not in vars(cls)]
    rest = {name: vals[name] for name in fields[1:]}
    pairs = [
        (cls(*args), ref(*args)),
        (cls(**vals), ref(**vals)),
        (cls(args[0], **rest), ref(args[0], **rest)),
        (cls(*required), ref(*required)),
    ]
    for rec, want in pairs:
        assert values(rec, fields) == values(want, fields)
        assert hash(rec) == hash(want)
        if cls is not cx.PolygonComplex:  # it keeps its own repr
            assert repr(rec) == repr(want)
        assert rec == cls(*values(want, fields))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_bad_arguments_raise_type_error(cls):
    ref = reference(cls)
    vals = sample(cls)
    fields = list(cls.__annotations__)
    args = tuple(vals[name] for name in fields)
    cases = [
        ((), {name: vals[name] for name in fields[1:]}),  # the first field missing
        (args, {"no_such_field": 1}),  # unknown
        (args[:1], {fields[0]: args[0]}),  # repeated
        (args + (1,), {}),  # one positional too many
    ]
    for make in (cls, ref):
        for a, kw in cases:
            with pytest.raises(TypeError):
                make(*a, **kw)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    vals = sample(cls)
    fields = list(cls.__annotations__)
    for obj in (cls(**vals), reference(cls)(**vals)):
        for name in fields + ["no_such_field"]:
            with pytest.raises(AttributeError):
                setattr(obj, name, 1)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        assert values(obj, fields) == [vals[name] for name in fields]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_equality_and_hash_follow_the_reference(cls):
    ref = reference(cls)
    base, other = sample(cls, 0), sample(cls, 1)
    rec, want = cls(**base), ref(**base)
    for name in cls.__annotations__:
        changed = {**base, name: other[name]}
        rec2, want2 = cls(**changed), ref(**changed)
        assert (rec == rec2, rec != rec2) == (want == want2, want != want2), name
        assert (hash(rec) == hash(rec2)) == (hash(want) == hash(want2)), name
    # a record never equals the tuple of its fields, in either order
    fields = tuple(base.values())
    assert rec != fields and fields != rec and not rec == fields
    assert want != fields and fields != want


def test_records_of_different_classes_are_never_equal():
    pairs = [cls for cls in RECORDS if len(cls._compared) == 2 and cls is not cx.PolygonComplex]
    assert len(pairs) >= 3
    refs = {cls: reference(cls) for cls in pairs}
    for a in pairs:
        assert a(1, 2) == a(1, 2) and refs[a](1, 2) == refs[a](1, 2)
        for b in pairs:
            if b is not a:
                assert a(1, 2) != b(1, 2) and refs[a](1, 2) != refs[b](1, 2)


def test_nan_fields_compare_by_identity_like_a_dataclass():
    nan = float("nan")
    ref = reference(HolonomyReport)
    assert HolonomyReport(nan, 0.0) == HolonomyReport(nan, 0.0)
    assert ref(nan, 0.0) == ref(nan, 0.0)
    assert HolonomyReport(float("nan"), 0.0) != HolonomyReport(float("nan"), 0.0)
    assert ref(float("nan"), 0.0) != ref(float("nan"), 0.0)


def test_a_complex_s_name_and_a_cycle_s_crossings_are_not_compared():
    a = cx.PolygonComplex(((1, 2, -1, 2),), name="a")
    b = cx.PolygonComplex([[1, 2, -1, 2]], name="b")
    assert a == b and hash(a) == hash(b) and a.name != b.name
    assert a != cx.PolygonComplex(((1, 2, 1, 2),), name="a")
    assert repr(a) == "<PolygonComplex a k=1 sides=[4]>"
    u = cx.VertexCycle(((0, 0), (0, 1)), ((1, 1), (2, -1)))
    v = cx.VertexCycle(((0, 0), (0, 1)), ((3, -1), (4, 1)))
    assert u == v and hash(u) == hash(v) and u.crossings != v.crossings
    assert u != cx.VertexCycle(((0, 1), (0, 0)), u.crossings)


def test_post_init_runs_once_per_complex_through_the_class(monkeypatch):
    # the benchmark tracer wraps PolygonComplex.__post_init__ on the class to
    # count every complex created
    calls = []
    original = cx.PolygonComplex.__post_init__

    def counted(self):
        calls.append(id(self))
        original(self)

    monkeypatch.setattr(cx.PolygonComplex, "__post_init__", counted)
    made = [
        cx.PolygonComplex(((1, 2, -1, 2),)),
        cx.PolygonComplex(polygons=[[1, 1]], name="s"),
        cx.PolygonComplex([(1, -1)], "p"),
        cx.PolygonComplex(name="t", polygons=((1, 2, 1, 2),)),
    ]
    assert calls == [id(c) for c in made]
    with pytest.raises(InvalidComplexError, match="unpaired label 1"):
        cx.PolygonComplex(((1, 2, 2),))
    assert len(calls) == len(made) + 1
