"""Charges as Laurent germs along a constraint curve, phase limits, the
asymptotic phase order, and finite-parameter wall scanning.

A charge germ is the pair of truncated Laurent series obtained by pushing
the exact expansion of u(v) through the charge's closed form: the
class-independent germs of that form are built once per (curve, order,
kind) and kept in a module-level cache, and each class is then one integer
linear combination of them with its class coefficients
(``charges._coefficients``, one table per kind for every class, in one
layout of 3 re and 4 im slots; the full kind's x and n germs are exact
zeros, since its classes here have n = x = 0).  Two germs
are ordered by the sign of the leading coefficient of the cross series
re(M) im(N) - im(M) re(N): for phases ranged in a common half plane this
sign equals the sign of sin(pi (phi_N - phi_M)) pointwise, so a positive
lead means M eventually has the smaller phase.  A cross series with no
stored coefficients is reported as equal-through-order unless the data is
exact, in which case the germs are genuinely proportional as stored.
Two classes are compared without germs first: their cross is the sum of
m_k G_i H_j over the products of the kind's germs (1 included), with m_k
the integer 2 x 2 minors of their coefficients, so it is read top down off
one cross table per (curve, kind), whose rows are the products'
coefficients from the closed form of u, down to a cutoff never below the
germs' floor; a cross that vanishes there goes to the germs.
At finite parameters the cross value is a polynomial in (u, v), the same
sum over the reduced kind's products at symbols, whose sign at each curve
point is exact, zero included;
its walls are read off the positive roots of its norm modulo the curve
polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import gcd

from . import charges as charges_mod
from .charges import ChargeKind
from .curves import CurveConstraint, _whole_order, admissible_bracket, constraint_poly, expand_u
from .errors import ConfigurationError, DimensionError, DomainError
from .poly import Poly2, RootInterval, _isolated_roots, _monomial_product, norm_mod_u, sign_at_root
from .ring import BaseGeometry, ChernVector, DivisorB, _contract, _kept, _q
from .series import LaurentSeries, _product_floor


class Side(Enum):
    PLUS = "plus"
    MINUS = "minus"
    EXACT = "exact"


@dataclass(frozen=True)
class PhaseLimit:
    limit: Fraction
    side: Side


@dataclass(frozen=True)
class AsymptoticCharge:
    re: LaurentSeries
    im: LaurentSeries
    kind: ChargeKind

    def is_stored_zero(self) -> bool:
        return self.re.is_stored_zero() and self.im.is_stored_zero()

    def is_exact(self) -> bool:
        return self.re.is_exact() and self.im.is_exact()


class OrderKind(Enum):
    PREC = "prec"
    SUCC = "succ"
    EQUAL_THROUGH_ORDER = "equal_through_order"
    EXACT_EQUAL = "exact_equal"


@dataclass(frozen=True)
class PhaseOrder:
    """Outcome of an asymptotic phase comparison; the floor records how
    deep a vanishing cross series was trusted (equal_through_order only)."""

    kind: OrderKind
    floor: int | None = None

    @property
    def is_prec(self) -> bool:
        return self.kind is OrderKind.PREC

    @property
    def is_succ(self) -> bool:
        return self.kind is OrderKind.SUCC

    @property
    def is_equalish(self) -> bool:
        return self.kind in (OrderKind.EQUAL_THROUGH_ORDER, OrderKind.EXACT_EQUAL)


def charge_series(
    g: BaseGeometry,
    v: ChernVector,
    c: CurveConstraint,
    kind: ChargeKind,
    order: int = 8,
    d: DivisorB | None = None,
) -> AsymptoticCharge:
    """Charge of a vector of Fractions along the curve as a pair of Laurent
    series in v.

    The charge is ``charges._reduced_germs`` combined with the kind's class
    coefficients (``charges._coefficients``): the reduced form's, or for
    the full charge with B = pull(d), d = 0 by default, those of the
    product by exp(-pull(d)).  The germs are evaluated once per (curve,
    order, kind) at the germ point (u(v), v), with u(v) expanded through
    ``order`` terms, and each class combines them in one integer pass;
    germs and truncation floors are those the chained series arithmetic
    gives.  The full kind raises ``DomainError`` unless the class is
    fiber-degree-trivial (n = x = 0), and its x and n germs are exact
    zeros.  ``order`` is made an int by ``curves._whole_order`` before the
    germ cache is read.
    """
    coeffs, den = _class_coefficients(g, v, c, kind, d)
    germs = _charge_germs(c, _whole_order(order), kind)
    re, im = (
        LaurentSeries._combination(part[0], zip(part[1:], part_germs), den)
        for part, part_germs in zip((coeffs[:3], coeffs[3:]), germs)
    )
    return AsymptoticCharge(re, im, kind)


def _class_coefficients(g: BaseGeometry, v: ChernVector, c: CurveConstraint, kind: ChargeKind, d) -> tuple:
    """``charge_series``'s checks (``_check_class``), with no germ built,
    then the kind's coefficients of v (``charges._coefficients``):
    (integers, den).  A d of another rank than g's raises
    ``DimensionError`` there."""
    _check_class(g, v, c, kind)
    return charges_mod._coefficients(g, v, kind, d)


def _check_class(g: BaseGeometry, v: ChernVector, c: CurveConstraint, kind: ChargeKind) -> None:
    """Refuse a kind, curve or class that ``charge_series`` refuses."""
    _check_kind(kind)
    if g.h != c.h:
        raise ConfigurationError("curve and geometry disagree on h")
    _check_rational(v)
    if kind is ChargeKind.FULL and (v._nums[0] or v._nums[1]):
        raise DomainError("flat full charge requires a fiber-degree-trivial class (n = x = 0)")
    if v.rank_lattice != g.rank:
        raise DimensionError("vector rank does not match geometry rank")


def _check_rational(*classes: ChernVector) -> None:
    """Refuse a class with a coordinate that is no rational number, as
    every germ verdict does, before anything is compared."""
    for v in classes:
        if type(v._nums[0]) is not int:
            raise DomainError("a charge germ needs a rational class (every coordinate a Fraction)")


def _check_kind(kind) -> None:
    if not isinstance(kind, ChargeKind):
        raise DomainError(f"unknown charge kind {kind}")


@lru_cache(maxsize=None)
def _charge_germs(c: CurveConstraint, order: int, kind: ChargeKind) -> tuple:
    """The class-independent germs of a charge kind at (u(v), v) on the curve."""
    u, vv = expand_u(c, order), LaurentSeries.monomial(1, 1)
    return charges_mod._reduced_germs(c.h, u, vv, kind is ChargeKind.FULL)


def phase_limit(ac: AsymptoticCharge) -> PhaseLimit:
    """Limit of the phase (argument over pi) as v grows, with the approach
    side when a subleading term decides it.

    The reduced kind treats a vanishing charge as the fixed phase one half.
    Germs heading into the open third quadrant have no phase in either
    supported range and raise; a full-kind zero charge is indeterminate.
    """
    re, im = ac.re, ac.im
    re_lead, im_lead = re.leading(), im.leading()

    if re_lead is None and im_lead is None:
        if ac.kind is ChargeKind.REDUCED:
            return PhaseLimit(Fraction(1, 2), Side.EXACT)
        raise DomainError("zero full-kind charge has indeterminate phase")

    if im_lead is None:
        if re_lead[1] > 0:
            return PhaseLimit(Fraction(0), Side.EXACT)
        return PhaseLimit(Fraction(1), Side.EXACT)

    if re_lead is None:
        if im_lead[1] > 0:
            return PhaseLimit(Fraction(1, 2), Side.EXACT)
        return PhaseLimit(Fraction(-1, 2), Side.EXACT)

    if re_lead[1] < 0 and im_lead[1] < 0:
        raise DomainError("charge germ leaves both supported phase ranges")

    if re_lead[0] > im_lead[0]:
        if re_lead[1] > 0:
            side = Side.PLUS if im_lead[1] > 0 else Side.MINUS
            return PhaseLimit(Fraction(0), side)
        return PhaseLimit(Fraction(1), Side.MINUS if im_lead[1] > 0 else Side.PLUS)

    if im_lead[0] > re_lead[0]:
        if im_lead[1] > 0:
            side = Side.MINUS if re_lead[1] > 0 else Side.PLUS
            return PhaseLimit(Fraction(1, 2), side)
        side = Side.PLUS if re_lead[1] > 0 else Side.MINUS
        return PhaseLimit(Fraction(-1, 2), side)

    raise DomainError("real and imaginary leads share an order; the limit is not rational")


def _with_zero_convention(ac: AsymptoticCharge) -> tuple[LaurentSeries, LaurentSeries]:
    if ac.kind is ChargeKind.REDUCED and ac.is_stored_zero() and ac.is_exact():
        return LaurentSeries.zero(), LaurentSeries.const(1)
    if ac.kind is ChargeKind.FULL and ac.is_stored_zero() and ac.is_exact():
        raise DomainError("zero full-kind charge has indeterminate phase")
    return ac.re, ac.im


def compare_phases(acm: AsymptoticCharge, acn: AsymptoticCharge) -> PhaseOrder:
    """Asymptotic order of two charge germs of the same kind.

    Decided by the sign of the leading cross coefficient, read top down
    in integers until one is nonzero (``_leading_cross``), with no cross
    series built.  A vanishing cross with a negatively oriented dot series
    means the germs are antipodal (phases one apart, where the cross is
    blind); those are ordered by their phase limits.  Identical germs are
    exactly equal only when they are exact; identical truncated germs are
    equal through the cross series' floor, like any other vanishing cross.
    """
    if acm == acn and acm.is_exact():
        return PhaseOrder(OrderKind.EXACT_EQUAL)
    sign, _, floor = _leading_cross(acm, acn)
    if sign:
        return PhaseOrder(OrderKind.PREC if sign > 0 else OrderKind.SUCC)
    (m_re, m_im), (n_re, n_im) = _with_zero_convention(acm), _with_zero_convention(acn)
    dot = m_re * n_re + m_im * n_im
    dot_lead = dot.leading()
    if dot_lead is not None and dot_lead[1] < 0:
        lm = phase_limit(AsymptoticCharge(m_re, m_im, acm.kind))
        ln = phase_limit(AsymptoticCharge(n_re, n_im, acn.kind))
        if lm.limit < ln.limit:
            return PhaseOrder(OrderKind.PREC)
        if lm.limit > ln.limit:
            return PhaseOrder(OrderKind.SUCC)
    if floor is None:
        return PhaseOrder(OrderKind.EXACT_EQUAL)
    return PhaseOrder(OrderKind.EQUAL_THROUGH_ORDER, floor)


def _leading_cross(acm: AsymptoticCharge, acn: AsymptoticCharge) -> tuple:
    """The sign and exponent of the leading stored coefficient of the cross
    series re(M) im(N) - im(M) re(N) of two germs of one kind, under the
    zero convention ((0, None) if it stores none), and that series' floor,
    with no series built.  The floor is the one ``*`` and ``-`` give it:
    the larger of the two products' ``_product_floor``.  The coefficients
    are read from the top exponent down to the floor, each as the integer
    sum of a_i b_j times den(c) den(d) minus the sum of c_i d_j times
    den(a) den(b), a positive multiple of the coefficient, until one is
    nonzero."""
    if acm.kind is not acn.kind:
        raise DomainError("cannot compare charges of different kinds")
    (a, c), (d, b) = _with_zero_convention(acm), _with_zero_convention(acn)
    floors = [f for f in (_product_floor(a, b), _product_floor(c, d)) if f is not None]
    floor = max(floors) if floors else None
    pairs = [(x._nums, y._nums, f) for x, y, f in ((a, b, c._den * d._den), (c, d, -a._den * b._den))
             if x._nums and y._nums]
    if not pairs:
        return 0, None, floor
    top = max(x[0][0] + y[0][0] for x, y, _ in pairs)
    bottom = min(x[-1][0] + y[-1][0] for x, y, _ in pairs)
    if floor is not None:
        bottom = max(bottom, floor)
    pairs = [(x, dict(y), f) for x, y, f in pairs]
    for e in range(top, bottom - 1, -1):
        total = sum(f * sum(n * y[e - i] for i, n in x if e - i in y) for x, y, f in pairs)
        if total:
            return (1 if total > 0 else -1), e, floor
    return 0, None, floor


def _cross_products(g: BaseGeometry, kind: ChargeKind) -> tuple:
    """What a kind's cross tables need of g alone, kept by ``ring._kept``.

    The products G_i H_j of the kind's germs (1 first in both lists;
    product k = 4 i + j), multiplied by integer convolution
    (``poly._monomial_product``) of the germs' monomial rows kept on g
    (``charges._germ_rows``, the full kind's flat rows), as their terms
    (b - a, a, k, n) for n u^a v^b over one den > 0, the least (all the
    products over den^2, content divided out), by the parity of b - a and
    then by descending b - a (a product with the full kind's zero x or n
    germ is empty, with none); the
    ``ring._contract`` table of the minors m_k = re_i(M) im_j(N) -
    im_j(M) re_i(N) of two classes' coefficients (``_class_coefficients``)
    on the products with terms, so that the cross of M and N is the sum of
    m_k G_i H_j over their dens; the largest and smallest b - a of each
    product (None for one with no terms); and the den."""
    _, rows, gden = _kept(g, charges_mod._germ_rows, kind is ChargeKind.FULL)
    re, im = rows[:2], rows[2:]
    square = gden * gden
    values = [({(0, 0): 1}, square), *((y, gden) for y in im)]  # each row with its factor to den^2
    for x in re:
        values += [(x, gden), *((_monomial_product(x, y), 1) for y in im)]
    terms = [(b - a, a, k, n * f) for k, (x, f) in enumerate(values) for (a, b), n in x.items() if n]
    content = gcd(square, *(t[3] for t in terms))
    if content != 1:
        terms = [(s, a, k, n // content) for s, a, k, n in terms]
    terms.sort(reverse=True)
    spans: list = [[] for _ in values]
    for s, _, k, _ in terms:
        spans[k].append(s)
    live = {k for k, s in enumerate(spans) if s}
    minors = [[(3 + j, 4 * i + j, 1) for j in range(4) if 4 * i + j in live] for i in range(3)]
    minors += [[(i, 4 * i + j, -1) for i in range(3) if 4 * i + j in live] for j in range(4)]
    extents = [(s[0], s[-1]) if s else None for s in spans]
    by_parity = ([t for t in terms if t[0] % 2 == 0], [t for t in terms if t[0] % 2])
    return by_parity, (minors, 1, len(values)), extents, square // content


class _CrossTable:
    """The v^e coefficients of a kind's products G_i H_j along one curve,
    built as they are read.

    ``top`` is the largest exponent of any product with terms, ``largest``
    the largest power A of u in one.  ``row(e, ks)`` is every product's v^e
    coefficient at (u(v), v), as integers over one positive denominator (so
    a cross coefficient is the sum of m_k times entry k, up to a positive
    factor), with the entries of products ks known.  With u = U(v^-2)/v,
    the term n u^a v^b gives n [x^t] U^a at t = (b - a - e)/2; U's
    coefficients are the numerators of ``expand_u`` over its den D,
    ``powers[a]`` holds U^a D^(A - a) through the known depth, and an entry
    that needs a deeper one is None until a row asks for it, when
    ``expand_u`` is called at the depth the asked entries need and the row
    is rebuilt.  At h = 0, U is the exact constant u1, so every entry is
    exact."""

    def __init__(self, c: CurveConstraint, kept: tuple):
        self.c = c
        self.terms, self.minors, extents, _ = kept
        self.top = max(x[0] for x in extents if x)
        self.largest = max(t[1] for part in self.terms for t in part)
        self.exact = c.h == 0
        self.rows: dict[int, list] = {}
        self.depth = 0

    def _expand(self, depth: int) -> None:
        u = expand_u(self.c, 2 * depth - 1)
        coeffs = [0] * depth
        for e, n in u._nums:
            coeffs[(-1 - e) // 2] = n
        powers, A = [coeffs], self.largest
        for _ in range(A - 1):
            last = powers[-1]
            powers.append([sum(last[i] * coeffs[t - i] for i in range(t + 1)) for t in range(depth)])
        self.powers = [[u._den**A]] + [[x * u._den ** (A - a) for x in p] for a, p in enumerate(powers, 1)]
        self.depth = depth

    def row(self, e: int, ks: list[int]) -> list:
        out = self.rows.get(e)
        if out is None or any(out[k] is None for k in ks):
            terms = self.terms[e % 2]
            depth = 1 if self.exact else max(
                ((s - e) // 2 + 1 for s, a, k, _ in terms if a and s >= e and k in ks), default=1)
            if depth > self.depth:
                self._expand(depth)
            out, unknown = [0] * self.minors[2], []
            for s, a, k, n in terms:
                if s < e:
                    break  # terms are held by descending b - a
                pw, t = self.powers[a], (s - e) // 2
                if t < len(pw):
                    out[k] += n * pw[t]
                elif a and not self.exact:
                    unknown.append(k)
            for k in unknown:
                out[k] = None
            self.rows[e] = out
        return out


@lru_cache(maxsize=None)
def _cross_table(g: BaseGeometry, c: CurveConstraint, kind: ChargeKind) -> _CrossTable:
    """The cross table of (curve, kind), on the products kept on g."""
    return _CrossTable(c, _kept(g, _cross_products, kind))


def _cross_coefficients(
    g: BaseGeometry,
    m: ChernVector,
    n: ChernVector,
    c: CurveConstraint,
    kind: ChargeKind,
    order: int = 8,
    d: DivisorB | None = None,
):
    """The coefficients of the cross re(M) im(N) - im(M) re(N) of two
    classes along the curve, read top down off their cross table as
    (exponent, an integer of the coefficient's sign), zeros included, with
    no series built; nothing when every minor vanishes (the cross is zero).

    Both classes are checked as ``charge_series`` checks them, with its
    errors, and share one right factor (``charges._right_factor``; the
    full kind's classes here have n = x = 0).  The read starts at the top
    of the products with a nonzero minor.  At h = 0 every entry is exact
    and the read ends at their bottom.  Otherwise it ends at the cutoff top + 1 - order, with the
    table's ``top``, never below the floor that ``_leading_cross`` gives
    on ``charge_series`` germs at this order: u(v), expanded with floor
    -order = deg u - order + 1, is exact at or above its degree - order + 1;
    products and sums of such series keep that (their floors are the
    largest of the candidates of ``series._product_floor``), and so does
    the cross, whose degree is at most top."""
    _check_class(g, m, c, kind)
    factor = charges_mod._right_factor(g, kind, d, False)
    left = charges_mod._coefficients(g, m, kind, d, factor)
    order = _whole_order(order)
    _check_class(g, n, c, kind)
    right = charges_mod._coefficients(g, n, kind, d, factor)
    if left == right:  # every minor is zero; no products are built for it
        return
    _, minor_table, extents, _ = _kept(g, _cross_products, kind)
    minors = [(k, x) for k, x in enumerate(_contract(minor_table, left, right)[0]) if x]
    if not minors:
        return
    table, ks = _cross_table(g, c, kind), [k for k, _ in minors]
    top = max(extents[k][0] for k in ks)
    stop = min(extents[k][1] for k in ks) if table.exact else table.top + 1 - order
    for e in range(top, stop - 1, -1):
        row = table.row(e, ks)
        yield e, sum(x * row[k] for k, x in minors)


def _germ_verdict(
    g: BaseGeometry,
    m: ChernVector,
    n: ChernVector,
    c: CurveConstraint,
    kind: ChargeKind,
    order: int,
    d: DivisorB | None = None,
) -> tuple[PhaseOrder, int | None]:
    """``compare_phases`` of two classes' ``charge_series`` germs at
    ``order``, with the exponent of the cross's leading stored coefficient
    (None if it stores none, as ``_leading_cross`` gives it).

    The first nonzero coefficient of ``_cross_coefficients`` decides the
    pair, with no series built.  A cross that vanishes identically or
    through the cutoff (equal or proportional classes, a zero charge,
    antipodal germs, a pair equal on the whole curve) goes to
    ``compare_phases`` on the germs; the lead of a strict verdict there is
    read off them by ``_leading_cross``."""
    for e, x in _cross_coefficients(g, m, n, c, kind, order, d):
        if x:
            return PhaseOrder(OrderKind.PREC if x > 0 else OrderKind.SUCC), e
    acm, acn = (charge_series(g, v, c, kind, order, d) for v in (m, n))
    verdict = compare_phases(acm, acn)
    return verdict, _leading_cross(acm, acn)[1] if verdict.is_prec or verdict.is_succ else None


def compare_vectors(
    g: BaseGeometry,
    m: ChernVector,
    n: ChernVector,
    c: CurveConstraint,
    kind: ChargeKind,
    order: int = 8,
    d: DivisorB | None = None,
) -> PhaseOrder:
    """Compare two vectors along a curve: ``compare_phases`` of their
    ``charge_series`` germs at ``order``, escalating the order once if the
    cross series vanishes through the first truncation floor.  Identical
    vectors that pass ``charge_series``'s checks are exactly equal at once.

    The leading cross coefficient is read off the cross table of (curve,
    kind) (``_germ_verdict``), so a pair it decides builds no series; a
    cross that vanishes there goes to the germs."""
    order = _whole_order(order)
    if m == n:
        _class_coefficients(g, m, c, kind, d)
        return PhaseOrder(OrderKind.EXACT_EQUAL)
    first = _germ_verdict(g, m, n, c, kind, order, d)[0]
    if first.kind is not OrderKind.EQUAL_THROUGH_ORDER:
        return first
    return _germ_verdict(g, m, n, c, kind, 2 * order, d)[0]


def _cross_poly(
    g: BaseGeometry, m: ChernVector, n: ChernVector, kind: ChargeKind, d: DivisorB | None
) -> Poly2:
    """The exact cross value re(M) im(N) - im(M) re(N) as a polynomial in (u, v).

    It is the sum of m_k G_i H_j over the reduced kind's products kept on g
    (``_cross_products``), for m_k the integer 2 x 2 minors of the two
    classes' coefficients on the reduced germs (``charges._coefficients``,
    for the full kind with B = pull(d), d = 0 by default), for any class.
    So it is one integer sum, with no ``Poly2`` product.  The closed form's
    ring guard is proved once per geometry (``charges.prove_closed_form``).
    A class of another lattice rank than g's raises ``DimensionError``, as
    does a d of another rank for the full kind, and a class with a
    coordinate that is no rational number ``DomainError``."""
    _check_kind(kind)
    if m.rank_lattice != g.rank or n.rank_lattice != g.rank:
        raise DimensionError("vector rank does not match geometry rank")
    _check_rational(m, n)
    charges_mod.prove_closed_form(g)
    terms, minor_table, _, den = _kept(g, _cross_products, ChargeKind.REDUCED)
    factor = charges_mod._right_factor(g, kind, d, any(v._nums[0] or v._nums[1] for v in (m, n)))
    left, right = (charges_mod._coefficients(g, v, kind, d, factor) for v in (m, n))
    minors, mden = _contract(minor_table, left, right)
    totals: dict = {}
    for part in terms:
        for s, a, k, c in part:
            if minors[k]:
                key = a, s + a
                totals[key] = totals.get(key, 0) + minors[k] * c
    return Poly2._ints(totals, den * mden)


def _cross_sign(cross: Poly2, c: CurveConstraint, vpar) -> int:
    """Exact sign of the cross polynomial at the curve point over vpar."""
    p, bracket = admissible_bracket(c, vpar)
    return sign_at_root(cross.eval_v(vpar), p, bracket)


def cross_sign_at(
    g: BaseGeometry,
    m: ChernVector,
    n: ChernVector,
    c: CurveConstraint,
    kind: ChargeKind,
    vpar,
    d: DivisorB | None = None,
) -> int:
    """Exact sign of the cross value at a finite curve point, zero included.

    The cross value is a polynomial in (u, v) from the charge closed forms
    (``_cross_poly``).  At v = vpar it is a polynomial q in u, and u is the
    root of the curve polynomial p that ``curves.admissible_bracket``
    isolates in closed form (or gives exactly, at a rational root);
    ``poly.sign_at_root(q, p, bracket)`` gives the sign of q there, with no
    refinement of the bracket.
    """
    return _cross_sign(_cross_poly(g, m, n, kind, d), c, vpar)


@dataclass(frozen=True)
class WallScanResult:
    """The walls of a scan, each a bracket over which the exact cross value
    changes sign on the admissible branch, in ascending order; ``degenerate``
    when the cross vanishes on the whole curve (then there are no walls)."""

    walls: tuple[RootInterval, ...]
    degenerate: bool


def wall_scan(
    g: BaseGeometry,
    m: ChernVector,
    n: ChernVector,
    c: CurveConstraint,
    kind: ChargeKind,
    vrange: tuple,
    precision: Fraction = Fraction(1, 2**16),
    d: DivisorB | None = None,
    samples: int = 64,
) -> WallScanResult:
    """Every wall of two classes in [vmin, vmax]: a v where the exact cross
    value on the admissible branch changes sign, bracketed to ``precision``.

    The cross value X is built once as a polynomial in (u, v)
    (``_cross_poly``).  The curve polynomial P is irreducible over Q(v), so
    X vanishes on the whole curve exactly when its norm R = ``norm_mod_u(X,
    P)`` is zero (reported as degenerate), and otherwise every wall is a
    root of R.  R's positive roots are isolated only in the cells that meet
    the range (``poly._isolated_roots``), so a root outside it is neither
    counted nor refined.  Each bracket that meets the range is clipped to
    it and is a wall when the exact signs of the cross (``_cross_sign``) at
    its two ends are opposite; a collapsed bracket [r, r] is a wall when
    the signs at points of the root-free gaps on either side of r, inside
    the range, are (a neighbour dropped outside the range moves such a
    point, never out of its gap).  So a root where the cross only touches
    zero, one on another branch of P, and one at an end of the range are
    not walls.  The range ends and ``precision`` are exact scalars; a float
    raises ``TypeError`` (``ring._q``).  vmin off the curve raises
    ``CurveDomainError``.  ``samples`` has no effect; it is accepted for
    callers that pass it positionally.
    """
    lo, hi, precision = _q(vrange[0]), _q(vrange[1]), _q(precision)
    if not (0 < lo < hi):
        raise DomainError("wall scan requires 0 < vmin < vmax")
    if precision <= 0:
        raise DomainError("wall scan precision must be positive")
    cross = _cross_poly(g, m, n, kind, d)
    admissible_bracket(c, lo)  # vmin off the curve raises; every v above it is on it
    norm = norm_mod_u(cross, constraint_poly(c))
    if not norm:
        return WallScanResult((), True)
    roots = _isolated_roots(norm, precision, (lo, hi))
    walls = []
    for k, root in enumerate(roots):
        if root.hi < lo or root.lo > hi:
            continue
        if root.exact:  # test points in the gaps to the neighbouring brackets
            left = roots[k - 1].hi if k else Fraction(0)
            right = roots[k + 1].lo if k + 1 < len(roots) else root.hi + 1
            ends = max(lo, (left + root.lo) / 2), min(hi, (root.hi + right) / 2)
        else:
            ends = max(lo, root.lo), min(hi, root.hi)
        if _cross_sign(cross, c, ends[0]) * _cross_sign(cross, c, ends[1]) < 0:
            walls.append(root if root.exact else RootInterval(*ends))
    return WallScanResult(tuple(walls), False)
