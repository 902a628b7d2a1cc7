"""Cox-ring presentation and explicit vector-group action formulas.

The Cox ring has one variable per ray, graded by the divisor class group:
the cokernel of the pairing map sending a character to its values on the
ray generators. Degrees are reported in a Smith-normal-form basis of the
free part, and the torsion is read off its invariant factors. This is the
one Smith form left in the package: the ``degrees`` of every ``cox``
report are rows of its transform, and the benchmark's golden reports pin
them byte for byte. Comparisons go through a Hermite canonicalization
(:func:`canonical_degrees`), since the basis choice is not unique.
"""

from __future__ import annotations

from . import lattice
from .demazure import _monomial, derivation
from .errors import RaysDoNotSpan
from .fan import Fan
from .lattice import Mat, Value

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .additive import CompleteCollection


class CoxPresentation(Value):
    """The Cox ring's grading: ``degrees`` holds each variable's free-part
    degree, in ray order, and ``torsion`` the invariant factors > 1."""

    __slots__ = _fields = ("num_vars", "class_rank", "degrees", "torsion")


def cox_presentation(fan: Fan) -> CoxPresentation:
    """The Cox presentation; RaysDoNotSpan, before any Smith form, if the
    rays have rank below the dimension. A maximal cone with no equations
    is full-dimensional, so its rays span N_Q, and then no rank is
    computed."""
    m, n = len(fan.rays), fan.dim
    if all(c.equations for c in fan.max_cones) and lattice.rank(fan.rays, n) < n:
        raise RaysDoNotSpan("the rays do not span N_Q")
    u, d, _ = lattice.smith_normal_form(fan.rays)
    torsion = tuple(d[j][j] for j in range(n) if d[j][j] > 1)
    degrees = tuple(tuple(u[i][var] for i in range(n, m)) for var in range(m))
    return CoxPresentation(m, m - n, degrees, torsion)


def canonical_degrees(pres: CoxPresentation) -> Mat:
    """Degrees canonicalized under unimodular change of basis of the free part."""
    return lattice.hermite_column_form(pres.degrees)


class GaActionFormula(Value):
    """One coordinate rule x_target -> x_target + s_k * monomial:
    ``param_index`` is the 1-based k, and ``exponents`` holds the
    monomial's (variable, power) pairs, the target omitted."""

    __slots__ = _fields = ("target", "param_index", "exponents")


def action_formulas(fan: Fan, collection: CompleteCollection) -> tuple[GaActionFormula, ...]:
    """The coordinate rules of the normalized action of a complete collection."""
    return tuple(GaActionFormula(root.ray, k, derivation(fan, root).exponents)
                 for k, root in enumerate(collection.roots, start=1))


def format_formula(f: GaActionFormula) -> str:
    """ASCII rendering, e.g. ``x3 -> x3 + s1*x1^2*x2``; variables 1-based,
    exponent 1 omitted, factors in variable order."""
    x = f"x{f.target + 1}"
    mono = _monomial(f.exponents)
    return f"{x} -> {x} + s{f.param_index}{'*' if mono else ''}{mono}"
