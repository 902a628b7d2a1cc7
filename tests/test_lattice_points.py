"""lattice_points on the double description against Fourier-Motzkin.

``lattice.lattice_points`` decides emptiness and boundedness by the double
description of the homogenized system, bounds every row over the vertices
and lists the points by the lattice search over a basis of the narrowest
rows (the proofs are in its docstring). ``oracles.chernikov_lattice_points``
is the Fourier-Motzkin elimination with Chernikov's rule that it replaced,
which runs neither the double description nor the search. The two must
give the same answer (the same points, UNBOUNDED or none) on the
condition-(1) systems of fans that are not complete, with no bound and
inside the boxes of sup-norm 1 to 3 that ``roots --bound`` adds, and on
seeded systems with equations, empty ones and ones that contain a line.

The fans: the quadrant, the orthants of dimensions 2 to 4, the torsion
fan, BLOWUP_FAN (one 5-dimensional cone in Z^6, so every system contains
a line) and the Z^5 fixture of six one-ray cones; and seeded subfans, each
without 1 to 3 of its maximal cones, of product_p1(6..8), of the
cross-polytope fans of dimensions 3 to 5 and of their GL_n(Z) images. A
ray's condition-(1) system reads only the fan's rays, so a subfan is taken
as the rays its cones use, as ``test_face_index.subfan`` keeps them,
without building it (validating the subfans of product_p1(8) took 2.5 s
each). On the fans with 32 rays the oracle takes up to 0.6 s per boxed
system, so those check one seeded ray per bound.
"""

import random
import time

import pytest

import oracles
from oracles import _condition1_system
from helpers import quadrant_fan, torsion_fan
from test_elimination import BLOWUP_FAN, SMITH_BLOWUP
from test_face_index import cross_polytope_fan, orthant
from test_kernel import random_unimodular
from toricroots import fan_from_json_dict, product_p1
from toricroots.lattice import UNBOUNDED, Constraint, identity, lattice_points, mat_vec, primitive

BOUNDS = (None, 1, 2, 3)
SAMPLED_RAYS = 1


def boxed(system, dim, bound):
    """The system inside the box of sup-norm `bound`, as roots_for_ray
    truncates it; the system itself for no bound."""
    if bound is None:
        return list(system)
    return (list(system) + [Constraint(u, ">=", -bound) for u in identity(dim)]
            + [Constraint(tuple(-x for x in u), ">=", -bound) for u in identity(dim)])


def z5_fan():
    return fan_from_json_dict({"dim": 5, "rays": [list(primitive(r)) for r in SMITH_BLOWUP],
                               "max_cones": [[i] for i in range(len(SMITH_BLOWUP))]})


FIXED = {
    "quadrant": quadrant_fan,
    "orthant2": lambda: orthant(2),
    "orthant3": lambda: orthant(3),
    "orthant4": lambda: orthant(4),
    "torsion": torsion_fan,
    "blowup": lambda: fan_from_json_dict(BLOWUP_FAN),
    "z5": z5_fan,
}

BASES = {
    **{f"p1^{n}": (lambda n=n: product_p1(n)) for n in (6, 7, 8)},
    **{f"cross{n}": (lambda n=n: cross_polytope_fan(n)) for n in (3, 4, 5)},
}


def seeded_subfan_rays(name, image):
    """The rays of the base fan, or of its image by random_unimodular,
    that its maximal cones but 1 to 3 use, drawn from a seed named after
    it."""
    fan = BASES[name]()
    rng = random.Random(f"{name} {image}")
    g = random_unimodular(rng, fan.dim) if image else identity(fan.dim)
    count = len(fan.max_cones)
    keep = rng.sample(range(count), count - rng.randint(1, 3))
    used = sorted(set().union(*(fan.max_cones[k].ray_indices for k in keep)))
    return fan.dim, [mat_vec(g, fan.rays[i]) for i in used]


def condition1_system(rays, ray):
    """_condition1_system of a fan with these rays."""
    return [Constraint(rays[ray], "=", -1)] + [Constraint(p, ">=", 0)
                                               for i, p in enumerate(rays) if i != ray]


def assert_matches_oracle(dim, rays, name):
    """Every ray's condition-(1) system, with no bound and in the boxes of
    sup-norm 1 to 3, gives the oracle's answer; returns the outcomes."""
    rng = random.Random(name)
    outcomes = set()
    for bound in BOUNDS:
        sample = range(len(rays))
        if len(rays) >= 32:
            sample = rng.sample(sample, SAMPLED_RAYS)
        for ray in sample:
            system = boxed(condition1_system(rays, ray), dim, bound)
            got = lattice_points(system, dim)
            assert got == oracles.chernikov_lattice_points(system, dim), (name, ray, bound)
            outcomes.add("unbounded" if got is UNBOUNDED else "points" if got else "none")
    return outcomes


@pytest.mark.parametrize("name", FIXED)
def test_fixed_fans_match_fourier_motzkin(name):
    """Each of these fans has rays with infinitely many roots, and their
    boxes hold some."""
    fan = FIXED[name]()
    assert all(condition1_system(fan.rays, ray) == _condition1_system(fan, ray)
               for ray in range(len(fan.rays)))
    assert {"unbounded", "points"} <= assert_matches_oracle(fan.dim, fan.rays, name)


@pytest.mark.parametrize("image", (False, True), ids=("fan", "image"))
@pytest.mark.parametrize("name", BASES)
def test_subfans_match_fourier_motzkin(name, image):
    """The systems are bounded: each of product_p1 has one point (which a
    box may cut off in the image), each of the cross-polytope fans none."""
    dim, rays = seeded_subfan_rays(name, image)
    outcomes = assert_matches_oracle(dim, rays, f"{name} {image}")
    if name.startswith("cross"):
        assert outcomes == {"none"}
    assert "points" in outcomes or name.startswith("cross")
    assert "unbounded" not in outcomes


def test_the_blowup_fan_takes_its_narrow_rows_first():
    """BLOWUP_FAN's ray 4 inside the box of sup-norm 3 has 224 points. With
    the basis taken from the rows in input order the wide rows branch
    first, and the search took 6.6 s (1.7 s at sup-norm 2; 2 shared
    vCPUs); by increasing width it takes a few milliseconds."""
    fan = fan_from_json_dict(BLOWUP_FAN)
    system = boxed(_condition1_system(fan, 4), fan.dim, 3)
    start = time.perf_counter()
    got = lattice_points(system, fan.dim)
    assert time.perf_counter() - start < 2
    assert len(got) == 224
    assert got == oracles.chernikov_lattice_points(system, fan.dim)


def random_rows(rng, dim, count):
    """Seeded rows a.x >= b or a.x = b, entries in [-2, 2] and [-3, 3]."""
    return [Constraint(tuple(rng.randint(-2, 2) for _ in range(dim)),
                       "=" if rng.random() < 0.2 else ">=", rng.randint(-3, 3))
            for _ in range(count)]


def random_case(rng, dim, kind):
    """A seeded system of one kind: "equations" (at least one, half of them
    in a box), "empty" (a row and its opposite shifted past it, so empty
    over Q) or "line" (normals of rank below dim: rows in fewer variables
    moved by a GL_n(Z) map, sometimes made empty the same way)."""
    if kind == "line":
        k = rng.randint(0, dim - 1)
        g = random_unimodular(rng, dim)
        rows = [Constraint(mat_vec(g, c.normal + (0,) * (dim - k)), c.relation, c.rhs)
                for c in random_rows(rng, k, rng.randint(1, dim + 2))]
    else:
        rows = random_rows(rng, dim, rng.randint(1, dim + 2))
    if kind == "equations":
        a = tuple(rng.randint(-2, 2) for _ in range(dim))
        rows.append(Constraint(a, "=", rng.randint(-3, 3)))
        if rng.random() < 0.5:
            r = rng.randint(1, 3)
            rows += [Constraint(e, ">=", -r) for e in identity(dim)]
            rows += [Constraint(tuple(-x for x in e), ">=", -r) for e in identity(dim)]
    if kind == "empty" or kind == "line" and rng.random() < 0.5:
        c = rng.choice(rows)
        rows.append(Constraint(tuple(-x for x in c.normal), ">=", 1 - c.rhs))
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("dim", (1, 2, 3, 4, 5))
def test_random_systems_match_fourier_motzkin(dim):
    """Equations, empty systems and systems with a line: the oracle's
    answer every time. An empty one has no points; one with a line is
    UNBOUNDED or empty."""
    rng = random.Random(2600 + dim)
    seen = set()
    for k in range(240):
        kind = ("equations", "empty", "line")[k % 3]
        rows = random_case(rng, dim, kind)
        got = lattice_points(rows, dim)
        assert got == oracles.chernikov_lattice_points(rows, dim), rows
        outcome = "unbounded" if got is UNBOUNDED else "points" if got else "none"
        if kind == "empty":
            assert got == ()
        if kind == "line":
            assert outcome != "points"
        seen.add((kind, outcome))
    assert {("line", "unbounded"), ("line", "none"), ("equations", "points")} <= seen
    assert ("equations", "unbounded") in seen or dim == 1
