"""Induced action of the relative Fourier-Mukai autoequivalences on
cohomology vectors, plus the twisted row-swap rule for fiber-degree-zero
classes.

Both directions are implemented as independent closed forms rather than one
being derived from the other; their compositions are pinned down by the
relation "inverse transform after transform equals shift by one", which on
cohomology is plain negation.  When the base is numerically canonically
trivial (h = 0) each transform degenerates to swapping the two rows of the
matrix notation and negating the second row.

Both maps are linear in the flat coordinates (n, x, S, eta, a, s), so each
is an integer table in the layout of ``ring._contract`` (right factor the
unit), written from the geometry's integer fields (h, hb, the row
hb * gram and H^2, each over its own den, ``ring.BaseGeometry``) by
``_phi_table`` and ``_phi_hat_table``, each from its own sign
pattern, kept on the geometry by ``ring._kept`` and applied to a vector's
numerators at every scalar by ``ring._contract``.  On rational vectors the
result is fraction-free with one gcd.  On any other vector the value is
the closed form's, with one declared difference in type: zero coordinates
are skipped, so an output that only zero or ``Fraction`` coordinates reach
is a ``Fraction`` where the closed form, adding zero terms of the other
type, gave a ``Poly2`` (equal, with the same hash) or a series.
"""

from __future__ import annotations

from .errors import DomainError
from .ring import BaseGeometry, ChernVector, DimensionError, _contract, _kept, _written


def phi(g: BaseGeometry, v: ChernVector) -> ChernVector:
    """Forward transform of a cohomology vector: the table
    ``_phi_table`` applied by ``ring._contract`` (types on symbolic
    vectors: module docstring)."""
    return _apply(g, v, _phi_table)


def phi_hat(g: BaseGeometry, v: ChernVector) -> ChernVector:
    """Inverse-direction transform of a cohomology vector: the table
    ``_phi_hat_table`` applied by ``ring._contract``."""
    return _apply(g, v, _phi_hat_table)


def _apply(g: BaseGeometry, v: ChernVector, writer) -> ChernVector:
    """The transform of v through the table of writer, kept on g."""
    if v.rank_lattice != g.rank:
        raise DimensionError("vector rank does not match geometry rank")
    return ChernVector._ints(*_contract(_kept(g, writer), (v._nums, v._den), ((1,), 1)))


def _slots(r: int) -> tuple:
    """The flat indices of n, x, S, eta, a and s at lattice rank r."""
    return 0, 1, range(2, 2 + r), range(2 + r, 2 + 2 * r), 2 * r + 2, 2 * r + 3


def _half_h_terms(g: BaseGeometry) -> tuple:
    """(h/2) hb, (h/2) hb * gram and h^2 H^2 / 12 as integer numerators over
    one den, from g's integer fields: (shift, pairing, hh2, den)."""
    (hn, hd), (hb, bd), (row, rd), (q, qd) = g.h_nums, g.hb_nums, g.hb_row_nums, g.hb2_nums
    den = 12 * hd * hd * qd * bd * rd
    half = 6 * hn * hd * qd  # h/2 times den / (bd rd)
    return [half * rd * c for c in hb], [half * bd * c for c in row], hn * hn * q * bd * rd, den


def _phi_table(g: BaseGeometry) -> tuple[list, int, int]:
    """The forward transform's table, written from g's integer fields
    (``_half_h_terms``):

        n' = x,   x' = -n,   S' = eta + (h/2) x H,   eta' = -S - (h/2) n H,
        a' = s + (h/2) H.eta + (1/12) x h^2 H^2,
        s' = -a - (h/2) H.S - (1/6) n h^2 H^2.
    """
    n, x, S, eta, a, s = _slots(g.rank)
    shift, pairing, hh2, one = _half_h_terms(g)
    return _written([
        (x, 0, n, one), (n, 0, x, -one),
        *((eta[p], 0, S[p], one) for p in range(g.rank)), *((x, 0, S[p], c) for p, c in enumerate(shift)),
        *((S[p], 0, eta[p], -one) for p in range(g.rank)), *((n, 0, eta[p], -c) for p, c in enumerate(shift)),
        (s, 0, a, one), *((eta[p], 0, a, c) for p, c in enumerate(pairing)), (x, 0, a, hh2),
        (a, 0, s, -one), *((S[p], 0, s, -c) for p, c in enumerate(pairing)), (n, 0, s, -2 * hh2),
    ], s + 1, s + 1, one)


def _phi_hat_table(g: BaseGeometry) -> tuple[list, int, int]:
    """The inverse-direction transform's table, written from g's integer
    fields, independently of ``_phi_table``:

        n' = x,   x' = -n,   S' = eta - (h/2) x H,   eta' = -S + (h/2) n H,
        a' = s - (h/2) H.eta + (1/12) x h^2 H^2,
        s' = -a + (h/2) H.S - (1/6) n h^2 H^2.
    """
    n, x, S, eta, a, s = _slots(g.rank)
    shift, pairing, hh2, one = _half_h_terms(g)
    return _written([
        (x, 0, n, one), (n, 0, x, -one),
        *((eta[p], 0, S[p], one) for p in range(g.rank)), *((x, 0, S[p], -c) for p, c in enumerate(shift)),
        *((S[p], 0, eta[p], -one) for p in range(g.rank)), *((n, 0, eta[p], c) for p, c in enumerate(shift)),
        (s, 0, a, one), *((eta[p], 0, a, -c) for p, c in enumerate(pairing)), (x, 0, a, hh2),
        (a, 0, s, -one), *((S[p], 0, s, c) for p, c in enumerate(pairing)), (n, 0, s, -2 * hh2),
    ], s + 1, s + 1, one)


def _a3_table(g: BaseGeometry) -> tuple[list, int, int]:
    """``ChernVector.a3``, the fiber coefficient that the transform carries
    to degree two, as a one-output table on the class, written from g's
    integer fields: s + (h/2) H.eta + (1/12) x h^2 H^2."""
    _, x, _, eta, _, s = _slots(g.rank)
    _, pairing, hh2, one = _half_h_terms(g)
    return _written([(s, 0, 0, one), *((eta[p], 0, 0, c) for p, c in enumerate(pairing)), (x, 0, 0, hh2)],
                    s + 1, 1, one)


def fiber_swap_rule(g: BaseGeometry, tw: ChernVector) -> ChernVector:
    """Row swap with sign for twisted fiber-degree-zero classes.

    Input is a suitably twisted vector of an object with n = x = 0; the
    output is the matching twist of its transform: rows are swapped and the
    new second row negated, i.e. (S, eta, a, s) -> (eta, -S, s, -a).  A
    signed permutation of the numerators over the same denominator, at
    every scalar.
    """
    r, nums = g.rank, tw._nums
    if tw.rank_lattice != r:
        raise DimensionError("vector rank does not match geometry rank")
    if nums[0] or nums[1]:
        raise DomainError("swap rule requires a fiber-degree-trivial class (n = x = 0)")
    S, eta = nums[2 : 2 + r], nums[2 + r : 2 + 2 * r]
    return ChernVector._ints([0, 0, *eta, *(-t for t in S), nums[-1], -nums[-2]], tw._den)
