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

from dataclasses import dataclass

from . import lattice
from .additive import CompleteCollection
from .demazure import _monomial, derivation
from .errors import RaysDoNotSpan, TorsionClassGroup
from .fan import Fan
from .lattice import Mat, Vec


@dataclass(frozen=True)
class CoxPresentation:
    num_vars: int
    class_rank: int
    degrees: tuple[Vec, ...]  # free-part degree of each variable, in ray order
    torsion: tuple[int, ...]  # invariant factors > 1


def cox_presentation(fan: Fan) -> CoxPresentation:
    m, n = len(fan.rays), fan.dim
    u, d, _ = lattice.smith_normal_form(fan.rays)
    r = sum(1 for j in range(min(m, n)) if d[j][j] != 0)
    if r < n:
        raise RaysDoNotSpan("the rays do not span N_Q")
    torsion = tuple(d[j][j] for j in range(n) if d[j][j] > 1)
    degrees = tuple(tuple(u[i][var] for i in range(n, m)) for var in range(m))
    return CoxPresentation(m, m - n, degrees, torsion)


def canonical_degrees(pres: CoxPresentation) -> Mat:
    """Degrees canonicalized under unimodular change of basis of the free part."""
    return lattice.hermite_column_form(pres.degrees)


@dataclass(frozen=True)
class GaActionFormula:
    """One coordinate rule x_target -> x_target + s_k * monomial."""

    target: int
    param_index: int  # 1-based k of the parameter s_k
    exponents: tuple[tuple[int, int], ...]  # (variable, power), target omitted


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
