"""Induced action of the relative Fourier-Mukai autoequivalences on
cohomology vectors, plus the twisted row-swap rule for fiber-degree-zero
classes.

Both directions are implemented as independent closed forms rather than one
being derived from the other; their compositions are pinned down by the
relation "inverse transform after transform equals shift by one", which on
cohomology is plain negation.  When the base is numerically canonically
trivial (h = 0) each transform degenerates to swapping the two rows of the
matrix notation and negating the second row.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError
from .ring import BaseGeometry, ChernVector, DimensionError, pair_h


def phi(g: BaseGeometry, v: ChernVector) -> ChernVector:
    """Forward transform of a cohomology vector."""
    if v.rank_lattice != g.rank:
        raise DimensionError("vector rank does not match geometry rank")
    h, hb, hh2 = g.h, g.hb_divisor, g.h * g.h * g.hb2
    heta = pair_h(g, v.eta)
    hS = pair_h(g, v.S)
    n2 = v.x
    x2 = -v.n
    S2 = v.eta + hb.scale(v.x * h / 2)
    eta2 = -(v.S + hb.scale(v.n * h / 2))
    a2 = (v.s + h * heta / 2 + Fraction(1, 8) * v.x * hh2) - Fraction(1, 24) * v.x * hh2
    s2 = -(v.a + h * hS / 2 + Fraction(1, 8) * v.n * hh2) - Fraction(1, 24) * v.n * hh2
    return ChernVector(n2, x2, S2, eta2, a2, s2)


def phi_hat(g: BaseGeometry, v: ChernVector) -> ChernVector:
    """Inverse-direction transform of a cohomology vector."""
    if v.rank_lattice != g.rank:
        raise DimensionError("vector rank does not match geometry rank")
    h, hb, hh2 = g.h, g.hb_divisor, g.h * g.h * g.hb2
    heta = pair_h(g, v.eta)
    hS = pair_h(g, v.S)
    n2 = v.x
    x2 = -v.n
    S2 = v.eta - hb.scale(v.x * h / 2)
    eta2 = hb.scale(v.n * h / 2) - v.S
    a2 = v.s - h * heta / 2 + Fraction(1, 12) * v.x * hh2
    s2 = -Fraction(1, 6) * v.n * hh2 - v.a + h * hS / 2
    return ChernVector(n2, x2, S2, eta2, a2, s2)


def fiber_swap_rule(g: BaseGeometry, tw: ChernVector) -> ChernVector:
    """Row swap with sign for twisted fiber-degree-zero classes.

    Input is a suitably twisted vector of an object with n = x = 0; the
    output is the matching twist of its transform: rows are swapped and the
    new second row negated, i.e. (S, eta, a, s) -> (eta, -S, s, -a).
    """
    if tw.rank_lattice != g.rank:
        raise DimensionError("vector rank does not match geometry rank")
    if tw.n != 0 or tw.x != 0:
        raise DomainError("swap rule requires a fiber-degree-trivial class (n = x = 0)")
    return ChernVector(0, 0, tw.eta, -tw.S, tw.s, -tw.a)
