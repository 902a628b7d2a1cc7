"""The value types against the frozen dataclasses they replaced.

Each value type is a ``__slots__`` class on ``lattice.Value``;
``oracles.dataclass_values`` keeps the ``@dataclass(frozen=True)``
definitions. Both are built from the same fields on the values a fan in
dimensions 2 to 5 (a builtin fan, a second build of it, a GL_n(Z) image and
a fan that is not complete) and the polytopes ``cube 3`` and
``dsimplex 3 4`` produce, and must agree on ``repr``, ``==`` and ``hash``.
The values must also be frozen, build from keywords with the old defaults,
reject bad fields with the old errors, and survive copy and pickle with
their stored data. A ``Fan`` compares, hashes and prints by its dim, rays
and maximal cones alone; its faces are derived data in one index. The
constructor ``Value`` generates for a type that only stores its fields is
tested on value types defined here, and so are copy and pickle of
subclasses of the library's types.
"""

import copy
import dataclasses
import inspect
import pickle
import random
from itertools import combinations

import pytest

import oracles
import toricroots
from helpers import quadrant_fan
from test_kernel import random_unimodular
from toricroots import (
    Constraint,
    DemazureRoot,
    Fan,
    LatticeAutomorphism,
    LatticePolytope,
    RayRoots,
    action_formulas,
    admits_additive,
    all_roots,
    apply_automorphism,
    build_fan,
    builtin_polytope,
    check_polytope_theorem,
    complete_collections,
    cox_presentation,
    derivation,
    facets,
    find_equivalence,
    hirzebruch,
    inscribed_in_rectangle,
    is_complete,
    normal_fan,
    product_p1,
    projective_space,
    theorem3con_report,
    wps_one,
)
from toricroots import lattice
from toricroots.polytope import FacetInequality, RectangleWitness

OLD = oracles.dataclass_values
VALUE_TYPES = sorted(name for name, cls in vars(OLD).items() if isinstance(cls, type))


class Pair(lattice.Value):
    """A value type with a generated constructor."""

    __slots__ = _fields = ("left", "right")


class SubPair(Pair):
    """Adds no field, so it inherits Pair's constructor."""

    __slots__ = ()


class Triple(Pair):
    """Adds a field, so it gets a constructor of its own."""

    __slots__ = ("third",)
    _fields = ("left", "right", "third")


class Checked(lattice.Value):
    """Writes its own constructor, which checks its argument."""

    __slots__ = _fields = ("left",)

    def __init__(self, left):
        if left < 0:
            raise ValueError("left must be nonnegative")
        object.__setattr__(self, "left", left)


class SubFacet(FacetInequality):
    __slots__ = ()


class SubRoot(DemazureRoot):
    __slots__ = ()


FANS = {
    2: lambda: hirzebruch(2),
    3: lambda: wps_one(1, 2, 3),
    4: lambda: product_p1(4),
    5: lambda: projective_space(5),
}


def values_of_fan(fan):
    """Every kind of value the fan layer, the roots, the collections and the
    Cox data produce for one fan."""
    out = [fan, *fan.all_faces]
    bound = None if is_complete(fan) else 1
    roots = all_roots(fan, bound)
    out += [roots, *roots.per_ray, *roots.roots()]
    out += [derivation(fan, r) for r in roots.roots()]
    out.append(Constraint(fan.rays[0], "=", -1))
    out += [Constraint(p, ">=", 0) for p in fan.rays[1:]]
    out.append(admits_additive(fan))
    collections = complete_collections(fan)
    out += collections
    if collections:
        out += action_formulas(fan, collections[0])
        out.append(find_equivalence(fan, collections[0], collections[-1]))
    if is_complete(fan):
        out.append(theorem3con_report(fan))
    out.append(cox_presentation(fan))
    return out


def fan_corpus(dim):
    rng = random.Random(dim)
    g = LatticeAutomorphism(random_unimodular(rng, dim))
    fan = FANS[dim]()
    fans = [fan, FANS[dim](), apply_automorphism(fan, g), cone_fan(dim)]
    return [g, g.inverse(), *(v for f in fans for v in values_of_fan(f))]


def cone_fan(dim):
    """The fan of one orthant with its faces: not complete, infinite roots."""
    if dim == 2:
        return quadrant_fan()
    return build_fan(dim, lattice.identity(dim), [tuple(range(dim))])


def polytope_corpus(name, *params):
    p = builtin_polytope(name, *params)
    out = [p, builtin_polytope(name, *params), *facets(p), check_polytope_theorem(p)]
    witness = inscribed_in_rectangle(p)
    if witness is not None:
        out.append(witness)
    return out + values_of_fan(normal_fan(p))


CORPUS = {
    **{f"dim{d}": (lambda d=d: fan_corpus(d)) for d in FANS},
    "cube3": lambda: polytope_corpus("cube", 3),
    "dsimplex34": lambda: polytope_corpus("dsimplex", 3, 4),
}


def init_fields(cls):
    """The names of the old dataclass's ``__init__`` arguments."""
    return [f.name for f in dataclasses.fields(getattr(OLD, cls.__name__)) if f.init]


def old_of(value):
    """The dataclass built from the same fields as ``value``."""
    kwargs = {name: getattr(value, name) for name in init_fields(type(value))}
    return getattr(OLD, type(value).__name__)(**kwargs)


def new_of(value):
    """A second library value built from the same fields, by keyword."""
    return type(value)(**{name: getattr(value, name) for name in init_fields(type(value))})


@pytest.fixture(scope="module", params=sorted(CORPUS))
def corpus(request):
    return CORPUS[request.param]()


def test_repr_eq_and_hash_agree_with_the_dataclasses(corpus):
    olds = [old_of(v) for v in corpus]
    for v, o in zip(corpus, olds):
        assert repr(o) == f"dataclass_values.{v!r}"
        assert hash(o) == hash(v)
        assert v == new_of(v) and o == old_of(new_of(v))
        assert v != o and o != v  # different classes
    by_type = {}
    for v, o in zip(corpus, olds):
        by_type.setdefault(type(v), []).append((v, o))
    seen = set()
    for pairs in by_type.values():
        for (v, o), (w, p) in combinations(pairs, 2):
            assert (v == w) == (o == p)
            assert (v != w) == (o != p)
            seen.add(v == w)
    assert seen == {True, False}


def test_the_corpus_has_every_value_type():
    kinds = {type(v).__name__ for case in CORPUS.values() for v in case()}
    assert kinds == set(VALUE_TYPES) and len(VALUE_TYPES) == 18


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_fields_repr_fields_and_signature_match_the_dataclass(name):
    cls, old = getattr(toricroots, name), getattr(OLD, name)
    assert issubclass(cls, lattice.Value) and not dataclasses.is_dataclass(cls)
    assert cls._fields == tuple(f.name for f in dataclasses.fields(old) if f.compare)
    assert cls._fields == tuple(f.name for f in dataclasses.fields(old) if f.repr)

    def params(c):
        return [(p.name, p.default, p.kind) for p in inspect.signature(c).parameters.values()]

    assert params(cls) == params(old)


def test_values_are_frozen(corpus):
    one = {type(v): v for v in corpus}
    for v in one.values():
        o = old_of(v)
        assert not hasattr(v, "__dict__")
        before = repr(v)
        for name in (*init_fields(type(v)), "_complete", "unknown"):
            for target in (v, o):
                with pytest.raises(AttributeError):
                    setattr(target, name, 0)
                with pytest.raises(AttributeError):
                    delattr(target, name)
        assert repr(v) == before


def test_values_are_unequal_to_tuples_and_to_other_types():
    f = FacetInequality((1, 0), 0)
    w = RectangleWitness((1, 0), 0)
    for v, other in ((f, w), (old_of(f), old_of(w))):
        assert v != ((1, 0), 0) and not v == ((1, 0), 0)
        assert v != other and not v == other

    class Sub(FacetInequality):
        __slots__ = ()

    assert Sub((1, 0), 0) != f and f != Sub((1, 0), 0)
    assert repr(Sub((1, 0), 0)).endswith(".<locals>.Sub(normal=(1, 0), rhs=0)")


def test_keyword_construction_and_defaults():
    r = RayRoots(ray=0, status="finite", roots=())
    assert r.bound is None and r == RayRoots(0, "finite", (), None)
    assert repr(r) == repr(OLD.RayRoots(ray=0, status="finite", roots=()))[len("dataclass_values."):]
    c = Constraint(rhs=0, relation=">=", normal=(1, 2))
    assert c == Constraint((1, 2), ">=", 0)
    with pytest.raises(TypeError):
        Constraint((1, 2), ">=")
    with pytest.raises(TypeError):
        Constraint((1, 2), ">=", 0, 1)
    p = LatticePolytope(vertices=((0, 0), (1, 0), (0, 1)), dim=2)
    assert p.vertices == ((0, 0), (0, 1), (1, 0))


def test_a_generated_constructor_binds_like_a_written_one():
    assert Pair(1, 2) == Pair(right=2, left=1) == Pair(1, right=2)
    assert (Pair(1, 2).left, Pair(1, 2).right) == (1, 2)
    assert repr(Pair(1, (2,))) == "Pair(left=1, right=(2,))"
    assert Pair(1, 2) != Pair(2, 1) and hash(Pair(1, 2)) == hash((1, 2))
    for args, kwargs in [((1,), {}), ((), {"right": 2}), ((1, 2, 3), {}),
                         ((1, 2), {"other": 3}), ((1,), {"top": 2}),
                         ((1, 2), {"left": 1})]:
        with pytest.raises(TypeError):
            Pair(*args, **kwargs)
    assert Triple(1, 2, 3)._values() == (1, 2, 3)
    with pytest.raises(TypeError):
        Triple(1, 2)


def test_a_generated_constructor_makes_frozen_values():
    v = Pair(1, 2)
    assert not hasattr(v, "__dict__")
    for name in ("left", "right", "unknown"):
        with pytest.raises(AttributeError):
            setattr(v, name, 0)
        with pytest.raises(AttributeError):
            delattr(v, name)
    assert v == Pair(1, 2)


def test_a_generated_constructor_is_named_for_its_class():
    for cls in (Pair, Triple):
        assert cls.__init__.__qualname__ == f"{cls.__name__}.__init__"
        assert cls.__init__.__module__ == __name__

    class Local(lattice.Value):
        __slots__ = _fields = ("only",)

    assert Local.__init__.__qualname__.endswith(".<locals>.Local.__init__")
    assert Local(1).only == 1
    with pytest.raises(TypeError, match=r"Local\.__init__\(\)"):
        Local()


def test_constructors_are_inherited_generated_or_kept():
    assert SubPair.__init__ is Pair.__init__ and "__init__" not in vars(SubPair)
    assert SubPair(1, right=2).right == 2 and SubPair(1, 2) != Pair(1, 2)
    assert Triple.__init__ is not Pair.__init__
    assert SubRoot.__init__ is DemazureRoot.__init__
    assert Checked(0).left == 0
    with pytest.raises(ValueError, match="nonnegative"):
        Checked(-1)
    written = {name for name in VALUE_TYPES
               if getattr(toricroots, name).__init__.__code__.co_filename != "<string>"}
    assert written == {"Constraint", "LatticeAutomorphism", "Fan", "LatticePolytope", "RayRoots"}


BAD_FIELDS = [
    (Constraint, ((1, 0), "<=", 0)),
    (LatticeAutomorphism, (((2, 0), (0, 1)),)),
    (LatticeAutomorphism, (((1, 0),),)),
    (LatticePolytope, ("2", ((0, 0), (1, 0), (0, 1)))),
    (LatticePolytope, (0, ((1.5,),))),
    (LatticePolytope, (0, ((1,),))),
    (LatticePolytope, (2, ((0, 0), (1,)))),
    (LatticePolytope, (2, ((0, 0), (0, 0), (1, 0)))),
    (LatticePolytope, (2, ((0, 0), (1, 1)))),
    (LatticePolytope, (2, ((0, 0), (2, 0), (0, 2), (1, 0)))),
]


@pytest.mark.parametrize("cls, args", BAD_FIELDS)
def test_bad_fields_raise_the_old_errors(cls, args):
    with pytest.raises(Exception) as new:
        cls(*args)
    with pytest.raises(Exception) as old:
        getattr(OLD, cls.__name__)(*args)
    assert new.type is old.type and str(new.value) == str(old.value)


def pickled(v, protocol):
    return pickle.loads(pickle.dumps(v, protocol))


ROUND_TRIPS = [copy.copy, copy.deepcopy] + [
    (lambda v, k=k: pickled(v, k)) for k in range(pickle.HIGHEST_PROTOCOL + 1)]


def test_every_value_type_survives_copy_and_pickle(corpus):
    one = {type(v): v for v in corpus}
    for v in one.values():
        for trip in ROUND_TRIPS:
            r = trip(v)
            assert type(r) is type(v) and r == v and hash(r) == hash(v) and repr(r) == repr(v)


SUBCLASSED = [SubFacet((1, 0), 0), SubRoot((0, 1), 0, (-1, 0, 1)),
              SubPair(1, (2,)), Triple(1, 2, (3,))]


def test_subclasses_of_value_types_survive_copy_and_pickle():
    """The state holds the slots of every class in the MRO, so a subclass
    that adds no slot keeps its base's fields."""
    for v in SUBCLASSED:
        assert v.__getstate__() == dict(zip(v._fields, v._values()))
        for trip in ROUND_TRIPS:
            r = trip(v)
            assert type(r) is type(v) and r == v and hash(r) == hash(v) and repr(r) == repr(v)


def test_stored_fields_survive_copy_and_pickle():
    fans = [product_p1(3), quadrant_fan()]
    scanned = [product_p1(3), quadrant_fan()]
    for f in scanned:
        complete_collections(f)
    fresh, used = builtin_polytope("cube", 3), builtin_polytope("cube", 3)
    normal_fan(used)
    assert [f._complete for f in fans] == [True, False]
    assert [len(f._collections) for f in scanned] == [8, 1]
    for trip in ROUND_TRIPS:
        for f in fans + scanned:
            r = trip(f)
            assert r._complete is f._complete and r._by_rays == f._by_rays
            assert r.all_faces == f.all_faces and r.face_sets == f.face_sets
            assert all(r.cone(c.ray_indices) == c for c in f.all_faces)
            assert is_complete(r) is f._complete
            assert r._collections == f._collections
        assert all(trip(f)._collections is None for f in fans)
        for f in scanned:
            r = trip(f)
            assert complete_collections(r) is r._collections == f._collections
        for p in (fresh, used):
            r = trip(p)
            assert r._facets == p._facets and r._on == p._on
            assert r._normal_fan == p._normal_fan
        assert trip(fresh)._normal_fan is None
        assert trip(used)._normal_fan is not None
        assert admits_additive(normal_fan(trip(used))).admits


@pytest.mark.parametrize("make", [lambda: product_p1(3), quadrant_fan,
                                  lambda: normal_fan(builtin_polytope("cube", 3))])
def test_a_fan_copies_before_and_after_its_index_is_built(make):
    """A copy keeps the index if the original had built it, and builds an
    equal one on first use if not."""
    for trip in ROUND_TRIPS:
        for built in (False, True):
            f = make()
            if built:
                f.all_faces
            r = trip(f)
            assert (r._by_rays is not None) is built and (f._by_rays is not None) is built
            assert r == f and hash(r) == hash(f) and repr(r) == repr(f)
            assert r.all_faces == f.all_faces and r.face_sets == f.face_sets


def defining(fan):
    return fan.dim, fan.rays, fan.max_cones


def test_a_fan_is_its_dim_rays_and_max_cones():
    """Two fans are equal, with equal hashes, exactly when their dim, rays
    and maximal cones are; the faces they carry play no part."""
    fans = [f for d in FANS for f in (FANS[d](), FANS[d]())] + [quadrant_fan(), cone_fan(3)]
    p1 = product_p1(3)
    p1.all_faces  # builds its index
    empty, partial = Fan(p1.dim, p1.rays, p1.max_cones), Fan(p1.dim, p1.rays, p1.max_cones)
    object.__setattr__(empty, "_by_rays", {})
    object.__setattr__(partial, "_by_rays", dict(list(p1._by_rays.items())[:5]))
    fans += [
        p1,
        Fan(p1.dim, p1.rays, p1.max_cones),
        empty,
        partial,
        Fan(p1.dim + 1, p1.rays, p1.max_cones),
        Fan(p1.dim, p1.rays[::-1], p1.max_cones),
        Fan(p1.dim, p1.rays, p1.max_cones[1:]),
    ]
    seen = set()
    for f, g in combinations(fans, 2):
        assert (f == g) == (defining(f) == defining(g)) == (not f != g)
        if f == g:
            assert hash(f) == hash(g) == hash(defining(f))
        seen.add(f == g)
    assert seen == {True, False}


def test_a_fan_repr_shows_no_faces():
    fan = product_p1(4)
    assert repr(fan) == f"Fan(dim=4, rays={fan.rays!r}, max_cones={fan.max_cones!r})"
    assert repr(fan).count("Cone(") == len(fan.max_cones) == 16 < len(fan.all_faces) == 81


@pytest.mark.parametrize("make", [*FANS.values(), quadrant_fan, lambda: cone_fan(3)])
def test_the_face_sets_are_the_faces_ray_sets(make):
    fan = make()
    assert fan.face_sets == {c.ray_indices for c in fan.all_faces}
    assert list(fan.face_sets) == [c.ray_indices for c in fan.all_faces]
    assert fan.all_faces == tuple(sorted(fan.all_faces,
                                         key=lambda c: (len(c.ray_indices), c.ray_indices)))
    assert all(fan.cone(c.ray_indices) is c for c in fan.all_faces)
    assert set(fan.max_cones) <= set(fan.all_faces)
