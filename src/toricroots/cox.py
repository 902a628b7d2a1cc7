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
from .errors import RaysDoNotSpan, TorsionClassGroup
from .fan import Fan
from .lattice import Mat, Value, Vec

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .additive import CompleteCollection


class CoxPresentation(Value):
    __slots__ = _fields = ("num_vars", "class_rank", "degrees", "torsion")

    def __init__(self, num_vars: int, class_rank: int, degrees: tuple[Vec, ...],
                 torsion: tuple[int, ...]):
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "class_rank", class_rank)
        object.__setattr__(self, "degrees", degrees)  # free-part degree per variable, in ray order
        object.__setattr__(self, "torsion", torsion)  # invariant factors > 1


def cox_presentation(fan: Fan) -> CoxPresentation:
    """The Cox presentation; RaysDoNotSpan, before any Smith form, if the
    rays have rank below the dimension."""
    m, n = len(fan.rays), fan.dim
    if lattice.rank(fan.rays, n) < n:
        raise RaysDoNotSpan("the rays do not span N_Q")
    u, d, _ = lattice.smith_normal_form(fan.rays)
    torsion = tuple(d[j][j] for j in range(n) if d[j][j] > 1)
    degrees = tuple(tuple(u[i][var] for i in range(n, m)) for var in range(m))
    return CoxPresentation(m, m - n, degrees, torsion)


def canonical_degrees(pres: CoxPresentation) -> Mat:
    """Degrees canonicalized under unimodular change of basis of the free part."""
    return lattice.hermite_column_form(pres.degrees)


class GaActionFormula(Value):
    """One coordinate rule x_target -> x_target + s_k * monomial."""

    __slots__ = _fields = ("target", "param_index", "exponents")

    def __init__(self, target: int, param_index: int, exponents: tuple[tuple[int, int], ...]):
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "param_index", param_index)  # 1-based k of the parameter s_k
        object.__setattr__(self, "exponents", exponents)  # (variable, power), target omitted


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


def degree_zero_check(pres: CoxPresentation, f: GaActionFormula) -> bool:
    """True iff the rule's monomial degree equals the target variable degree."""
    if pres.torsion:
        raise TorsionClassGroup("degree check requires a free class group")
    total = [0] * pres.class_rank
    for var, power in f.exponents:
        for i, x in enumerate(pres.degrees[var]):
            total[i] += power * x
    return tuple(total) == pres.degrees[f.target]
