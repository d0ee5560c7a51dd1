"""Series charges, phase limits, the comparator, and wall scanning."""

import itertools
import random
from fractions import Fraction
from math import lcm

import pytest
import sympy

from ellstab import asymptotics, charges, poly, ring, suites, verify
from ellstab.asymptotics import (
    AsymptoticCharge,
    ChargeKind,
    OrderKind,
    PhaseOrder,
    Side,
    charge_series,
    compare_phases,
    compare_vectors,
    cross_sign_at,
    phase_limit,
    wall_scan,
)
from ellstab.charges import full_charge, reduced_charge
from ellstab.curves import OneDimCurve, TiltCurve, admissible_bracket, constraint_poly, expand_u, solve_u
from ellstab.errors import (
    ComputationFault,
    ConfigurationError,
    CurveDomainError,
    DimensionError,
    DomainError,
)
from ellstab.fmt import phi
from ellstab.poly import Poly2, RootInterval
from ellstab.ring import BaseGeometry, ChernVector, DivisorB, DivisorX, pair, pair_h
from ellstab.series import LaurentSeries
from ellstab.verify import slope_correspondence_check as correspondence_check
from ellstab.verify import threshold_equiv_check as threshold_check
from ellstab.suites import (
    geometry_for,
    phase_table_cases,
    _rand_divisor,
    _rand_onedim_class,
    _rand_tilt,
    _rand_vector,
)

from conftest import (
    _reference_full_coefficients,
    _reference_monomial_coefficients,
    _reference_reduced_coefficients,
    as_table,
    count_symbolic_products,
    cv,
    d,
    deadline,
    fresh_geometries,
    table_sets,
)
from test_charges import _reference_full_parts, _with_entry
from test_poly import _reference_isolate_positive_roots
from test_poly2 import _reference_norm_mod_u
from test_ring import signature_geometries, table_geometries


def _reference_flat_full_germs(h, u, vpar):
    """Germs of the full charge of a class with n = x = 0, twisted by hand
    rather than in the ring: (u (hu + 2 vpar),) and (hu, u, vpar)."""
    hu = h * u
    return (u * (hu + 2 * vpar),), (hu, u, vpar)


def _reference_flat_full_coefficients(g, v, d):
    """The hand-twisted coefficients on ``_reference_flat_full_germs``, with
    B = pull(d): re = -(s - d.eta) + (H.S / 2) germ, im = H.eta (hu + vpar)
    + (a - d.S) u."""
    heta = pair_h(g, v.eta)
    return (
        (-(v.s - pair(g, d, v.eta)), (pair_h(g, v.S) / 2,)),
        (0, (heta, v.a - pair(g, d, v.S), heta)),
    )


def _reference_charge_series(g, v, c, kind, order, d):
    """The germ formulas as separately hand-written series expressions."""
    u = expand_u(c, order)
    vv = LaurentSeries.monomial(1, 1)
    h, hb2 = g.h, g.hb2
    if kind is ChargeKind.REDUCED:
        hS = pair_h(g, v.S)
        heta = pair_h(g, v.eta)
        hu = h * u
        re = (
            (hu * (hu + 2 * vv) + vv * vv) * Fraction(hb2 * v.x, 2)
            + u * (hu + 2 * vv) * Fraction(hS, 2)
        )
        im = (
            (hu + vv) * heta
            + u * v.a
            - u * (hu * hu + 3 * hu * vv + 3 * vv * vv) * Fraction(hb2 * v.n, 6)
        )
        return re, im
    if d is None:
        d = g.zero_divisor()
    return charges._combine(_reference_flat_full_coefficients(g, v, d), _reference_flat_full_germs(h, u, vv))


def _reference_product_coefficients(g, v, factor):
    """The reduced charge's (re, im) of the product factor * v (``ring.mul``
    in that order), with -ch3 of the product as re's constant."""
    product = ring.mul(g, factor, v)
    (const, re), im = _reference_reduced_coefficients(g, product)
    return (const - product.s, re), im


def _reference_coefficient_rows(g, kind):
    """A kind's class coefficients (re constant and coefficients, then im's)
    as integer rows over one denominator: row k lists the (i, j, c) of its
    terms c v_i e_j, for e the kind's right factor: the unit (j = 0) for
    the reduced kind, exp(-pull(d)) for the full one.  Read off one
    evaluation at ``Poly2`` monomials: class coordinate i is u^(i+1), and
    for the full kind the coefficients of the product by the factor whose
    coordinate j is v^(j+1) on the n, S and a slots that exp(-pull(d))
    has, and zero elsewhere."""
    r = g.rank
    dim = 2 * r + 4
    v = ChernVector._ints([Poly2._ints({(i + 1, 0): 1}, 1) for i in range(dim)], 1)
    if kind is ChargeKind.FULL:
        slots = (0, *range(2, 2 + r), dim - 2)
        factor = ChernVector._ints([Poly2._ints({(0, j + 1): 1}, 1) if j in slots else Fraction(0)
                                    for j in range(dim)], 1)
        parts = _reference_product_coefficients(g, v, factor)
    else:
        parts = _reference_reduced_coefficients(g, v)
    values = [x for const, coeffs in parts for x in (const, *coeffs)]
    entries, den = _reference_monomial_coefficients(values)
    rows = [[] for _ in values]
    for k, (i, j), c in entries:
        rows[k].append((i - 1, max(j - 1, 0), c))
    return rows, den


def _reference_applied_charge_series(g, v, c, kind, order=8, d=None):
    """``charge_series`` applying ``_reference_coefficient_rows`` by its own
    sums, with exp(-pull(d)) from ``ring._exp_minus`` as the full kind's
    right factor, as it did before the kept tables."""
    asymptotics._class_coefficients(g, v, c, kind, d)
    germs = asymptotics._charge_germs(c, order, kind)
    rows, row_den = _reference_coefficient_rows(g, kind)
    if kind is ChargeKind.FULL:
        e = ring._exp_minus(g, DivisorX.pullback(d if d is not None else g.zero_divisor()))
        factor, fden = e._nums, e._den
    else:
        factor, fden = (1,), 1
    coeffs = [sum(x * v._nums[i] * factor[j] for i, j, x in row) for row in rows]
    den = v._den * row_den * fden
    re, im = (
        LaurentSeries._combination(part[0], zip(part[1:], part_germs), den)
        for part, part_germs in zip((coeffs[:3], coeffs[3:]), germs)
    )
    return AsymptoticCharge(re, im, kind)


GERM_H = (Fraction(-2), Fraction(-1), Fraction(0), Fraction(1, 3), Fraction(1, 2))
ZEROABLE = ("x", "n", "S", "eta", "a")


def _with_zero(v, field):
    """v with one coordinate set to zero (None keeps v)."""
    if field is None:
        return v
    coords = {"n": v.n, "x": v.x, "S": v.S, "eta": v.eta, "a": v.a, "s": v.s}
    coords[field] = coords[field].scale(0) if field in ("S", "eta") else Fraction(0)
    return ChernVector(**coords)


def _reference_verdict(g, m, n, c, kind, order):
    """compare_phases on the reference germs of m and n at one order."""
    acm, acn = (AsymptoticCharge(*_reference_charge_series(g, x, c, kind, order, None), kind)
                for x in (m, n))
    return compare_phases(acm, acn)


class TestChargeSeries:
    def test_reduced_theta_leading_term(self, g0):
        c = TiltCurve(0, 1, 2)
        ac = charge_series(g0, cv(0, 1, d(0), d(0), 0, 0), c, ChargeKind.REDUCED, 8)
        assert ac.re.terms == ((2, Fraction(1, 2)),)
        assert ac.im.is_stored_zero()

    def test_a_fractional_order_is_refused(self, g1):
        """It used to truncate u(v) and cache the germs under the key 8.5."""
        v, c = cv(1, 0, d(0), d(1), 0, 0), TiltCurve(-1, 1, 2)
        with pytest.raises(CurveDomainError, match="whole number"):
            charge_series(g1, v, c, ChargeKind.REDUCED, Fraction(17, 2))
        with pytest.raises(TypeError):
            charge_series(g1, v, c, ChargeKind.REDUCED, 8.5)

    def test_the_order_is_an_int_before_the_germ_cache_is_read(self, g1, monkeypatch):
        """8.0 and 8 are one cache key, so a float order used to be refused
        only while the cache was cold; a string order reached the cache as
        it was, and ``compare_vectors`` escalated "8" to "88"."""
        v, c = cv(1, 0, d(0), d(1), 0, 0), TiltCurve(-1, 1, 2)
        charge_series(g1, v, c, ChargeKind.REDUCED, 8)
        with pytest.raises(TypeError):
            charge_series(g1, v, c, ChargeKind.REDUCED, 8.0)
        orders, germs = [], asymptotics._charge_germs
        monkeypatch.setattr(asymptotics, "_charge_germs",
                            lambda c, order, kind: orders.append(order) or germs(c, order, kind))
        m, n = cv(-1, -1, d(-1), d(-1), -1, -1), cv(-1, -1, d(-1), d(-1), -1, 0)  # equal through order 8
        want = compare_vectors(g1, m, n, c, ChargeKind.REDUCED, 8)
        assert compare_vectors(g1, m, n, c, ChargeKind.REDUCED, "8") == want
        assert orders == [8, 8, 16, 16] * 2
        assert {type(order) for order in orders} == {int}

    def test_the_kind_is_checked_before_any_expansion(self, g1, monkeypatch):
        """A kind that is not a ``ChargeKind`` raises before u(v) is
        expanded; ``compare_vectors`` on equal classes used to return
        EXACT_EQUAL for it."""
        expanded = []
        monkeypatch.setattr(asymptotics, "expand_u", lambda c, order: expanded.append(order))
        v, c = cv(0, 0, d(0), d(1), 2, 0), OneDimCurve(-1, 1, 3)
        for call in (lambda: charge_series(g1, v, c, "full", 11),
                     lambda: compare_vectors(g1, v, v, c, "full", 11)):
            with pytest.raises(DomainError, match="unknown charge kind full"):
                call()
        assert expanded == []

    def test_full_fiber_vector(self, g0):
        c = OneDimCurve(0, 1, 1)
        v = cv(0, 0, d(0), d(0), 3, 5)
        ac = charge_series(g0, v, c, ChargeKind.FULL, 8, d(0))
        assert ac.re.terms == ((0, Fraction(-5)),)
        assert ac.re.is_exact()
        assert ac.im.terms == ((-1, Fraction(3)),)

    def test_zero_vector(self, g0):
        c = TiltCurve(0, 1, 2)
        ac = charge_series(g0, ChernVector.zero(1), c, ChargeKind.REDUCED, 8)
        assert ac.is_stored_zero()

    def test_full_requires_fiber_trivial(self, g0):
        c = OneDimCurve(0, 1, 1)
        with pytest.raises(DomainError):
            charge_series(g0, ChernVector.unit(1), c, ChargeKind.FULL, 8)

    def test_non_rational_class_is_refused(self):
        """A germ combines the class's integer numerators; a class with a
        Poly2 (or series) coordinate has none and is refused by name."""
        g, c = geometry_for(-1), TiltCurve(-1, 1, 2)
        v = ChernVector(Poly2.const(1), 0, DivisorB([0]), DivisorB([1]), 0, 1)
        for kind in ChargeKind:
            with pytest.raises(DomainError, match="rational class"):
                charge_series(g, v, c, kind, 8)

    def test_curve_geometry_mismatch(self, g1):
        c = TiltCurve(0, 1, 2)
        with pytest.raises(ConfigurationError):
            charge_series(g1, ChernVector.zero(1), c, ChargeKind.REDUCED, 8)

    def test_series_matches_pointwise_charge(self):
        """Germ coefficients reproduce exact charge values on the curve."""
        from ellstab.charges import full_charge
        from ellstab.ring import DivisorX

        rng = random.Random(16)
        g = geometry_for(0)
        c = OneDimCurve(0, 2, 3)
        dd = d(Fraction(1, 2))
        for _ in range(40):
            v = cv(
                0,
                0,
                d(Fraction(rng.randint(-4, 4))),
                d(Fraction(rng.randint(-4, 4))),
                Fraction(rng.randint(-4, 4)),
                Fraction(rng.randint(-4, 4)),
            )
            ac = charge_series(g, v, c, ChargeKind.FULL, 8, dd)
            for vp in (Fraction(7), Fraction(19)):
                u = c.q / vp
                om = DivisorX(u, g.hb_divisor.scale(vp))
                z = full_charge(g, v, om, DivisorX.pullback(dd))
                assert ac.re.eval(vp) == z.re
                assert ac.im.eval(vp) == z.im

    def test_germs_match_reference_formulas(self):
        """Terms, scalar types and truncation floors of both germ kinds
        equal those of the separately written series expressions (for the
        full kind, the hand-twisted flat form), on the first call and on
        repeated calls that reuse the cached germs, for classes with a zero
        coordinate too."""
        rng = random.Random(17)
        grid = itertools.product(
            GERM_H,
            (False, True),
            (1, 2, 3, 8, 9, 16),
            (ChargeKind.REDUCED, ChargeKind.FULL),
            (False, True),
            (True, False),
        )
        for h, rank2, order, kind, with_d, tilt in grid:
            g = geometry_for(h, rank2)
            c = _rand_tilt(rng, h) if tilt else OneDimCurve(h, 1, rng.randint(3, 9))
            dd = _rand_divisor(rng, g.rank, -4, 4) if with_d else None
            for zeroed in (None,) + ZEROABLE:
                v = _with_zero(_rand_vector(rng, g.rank), zeroed)
                if kind is ChargeKind.FULL:
                    v = ChernVector(0, 0, v.S, v.eta, v.a, v.s)
                re, im = _reference_charge_series(g, v, c, kind, order, dd)
                for _ in range(2):
                    ac = charge_series(g, v, c, kind, order, dd)
                    for got, want in ((ac.re, re), (ac.im, im)):
                        assert got.terms == want.terms
                        assert got.trunc == want.trunc
                        assert all(type(cf) is Fraction for _, cf in got.terms)

    def test_tables_are_the_reference_reader_s(self):
        """Entry for entry, with the same denominator, as the rows of
        ``_reference_coefficient_rows``, on the same right coordinates; on
        every lattice of ``table_geometries``."""
        for g in table_geometries():
            for kind in ChargeKind:
                rows, den = _reference_coefficient_rows(g, kind)
                ref = as_table(rows, den, 2 * g.rank + 4)
                assert table_sets(ring._kept(g, charges._charge_table, kind)) == ref

    def test_equals_the_reference_applier(self):
        """Equal in value and hash to ``_reference_applied_charge_series``,
        for both kinds, with and without d."""
        rng = random.Random(19)
        for g in fresh_geometries():
            tilt, onedim = _rand_tilt(rng, g.h), OneDimCurve(g.h, 1, rng.randint(3, 9))
            for _ in range(6):
                v = _rand_vector(rng, g.rank)
                flat = ChernVector._ints([0, 0, *v._nums[2:]], v._den)
                dd = _rand_divisor(rng, g.rank)
                for w, c, kind, dv in ((v, tilt, ChargeKind.REDUCED, None), (flat, onedim, ChargeKind.FULL, dd),
                                       (flat, tilt, ChargeKind.FULL, None)):
                    got = charge_series(g, w, c, kind, 8, dv)
                    want = _reference_applied_charge_series(g, w, c, kind, 8, dv)
                    assert got == want and hash(got) == hash(want)

    def test_full_rows_leave_out_the_x_and_n_germs(self, monkeypatch):
        """At n = x = 0 the full coefficients on the two germs that carry x
        and n vanish: no entry of the seven-output full table from another
        coordinate reaches them, and the full kind's germs hold them as
        exact zeros.  A reduced table with a term on either of them, in a
        coordinate that a class with n = x = 0 has, makes the composed full
        table raise."""
        for g in fresh_geometries():
            r = g.rank
            flat = [Fraction(0), Fraction(0)] + [Poly2._ints({(i + 3, 0): 1}, 1) for i in range(2 * r + 2)]
            dsym = DivisorB._raw(tuple(Poly2._ints({(0, j + 1): 1}, 1) for j in range(r)))
            (_, (re_x, _)), (_, (_, _, im_n)) = _reference_full_coefficients(g, ChernVector._ints(flat, 1), dsym)
            assert re_x == 0 and im_n == 0
            rows, _, width = ring._kept(g, charges._charge_table, ChargeKind.FULL)
            assert width == 7
            assert not [k for row in rows[2:] for _, k, _ in row if k in (1, 6)]
            (x_germ, _), (_, _, n_germ) = asymptotics._charge_germs(OneDimCurve(g.h, 1, 3), 8, ChargeKind.FULL)
            assert x_germ == 0 and n_germ == 0
        carrying_n = _with_entry(charges._reduced_table, -1, 6)  # im's n germ, + s
        carrying_x = _with_entry(charges._reduced_table, -2, 1)  # re's x germ, + a
        for patched in (carrying_n, carrying_x):
            monkeypatch.setattr(charges, "_reduced_table", patched)
            g = fresh_geometries()[0]
            with pytest.raises(ComputationFault):
                charges._charge_table(g, ChargeKind.FULL)
            with pytest.raises(ComputationFault):
                charge_series(g, ChernVector(0, 0, d(1), d(2), 3, 4), OneDimCurve(g.h, 1, 3), ChargeKind.FULL)

    def test_rational_class_reads_no_field(self, monkeypatch):
        """The class and d enter as integers: on vectors made from their
        integer form, neither kind builds a field of a rational vector, on a
        fresh geometry or once its coefficient rows are kept.  (The rows and
        transform matrices of a fresh geometry are read off vectors of
        Poly2 monomials, whose fields are built on read too.)"""
        reads = []
        original = ring._Field.__get__

        def counted(self, v, owner=None):
            if v is not None and type(v._nums[0]) is int:
                reads.append(self.name)
            return original(self, v, owner)

        monkeypatch.setattr(ring._Field, "__get__", counted)
        rng = random.Random(18)
        for g in fresh_geometries():
            tilt, onedim = _rand_tilt(rng, g.h), OneDimCurve(g.h, 1, rng.randint(3, 9))
            for _ in range(3):
                v = _rand_vector(rng, g.rank)
                flat = ChernVector._ints([0, 0, *v._nums[2:]], v._den)
                for w in (phi(g, v), ChernVector._ints(v._nums, v._den)):
                    charge_series(g, w, tilt, ChargeKind.REDUCED, 8)
                charge_series(g, flat, onedim, ChargeKind.FULL, 8, _rand_divisor(rng, g.rank))
                charge_series(g, flat, onedim, ChargeKind.FULL, 8)
        assert reads == []
        phi(g, v).s  # reading a field goes through the counted descriptor
        assert reads == ["s"]

    def test_verdicts_match_reference_through_escalation(self):
        """compare_vectors gives the verdict and floor of the reference germs,
        escalating to twice the order exactly when they vanish through it."""
        rng = random.Random(19)
        escalated = 0
        for h, kind, order in itertools.product(GERM_H, ChargeKind, (1, 8)):
            g = geometry_for(h)
            c = _rand_tilt(rng, h) if kind is ChargeKind.REDUCED else OneDimCurve(h, 1, 4)
            for k in range(12):
                m = _with_zero(_rand_vector(rng, g.rank), ZEROABLE[k % len(ZEROABLE)])
                if kind is ChargeKind.FULL:
                    m = ChernVector(0, 0, m.S, m.eta, m.a, m.s)
                n = m.scale(rng.randint(2, 3)) if k % 3 == 0 else _rand_vector(rng, g.rank)
                if kind is ChargeKind.FULL:
                    n = ChernVector(0, 0, n.S, n.eta, n.a, n.s)
                first = _reference_verdict(g, m, n, c, kind, order)
                want = first
                if first.kind is OrderKind.EQUAL_THROUGH_ORDER:
                    escalated += 1
                    want = _reference_verdict(g, m, n, c, kind, 2 * order)
                assert compare_vectors(g, m, n, c, kind, order) == want
        assert escalated >= 10

    def test_second_call_makes_no_series_product(self, monkeypatch):
        """The class-independent germs are built once per (curve, order,
        kind); a later class on them makes no series x series product."""
        products = []
        mul = LaurentSeries.__mul__

        def counting_mul(self, other):
            if isinstance(other, LaurentSeries):
                products.append(other)
            return mul(self, other)

        monkeypatch.setattr(LaurentSeries, "__mul__", counting_mul)
        rng = random.Random(20)
        g = geometry_for(-1)
        for c, kind in ((TiltCurve(-1, 1, 2), ChargeKind.REDUCED),
                        (OneDimCurve(-1, 1, 3), ChargeKind.FULL)):
            asymptotics._charge_germs.cache_clear()
            m, n = _rand_onedim_class(rng, g, 1, 3), _rand_onedim_class(rng, g, 1, 3)
            charge_series(g, m, c, kind, 8)
            assert products  # the counter does see the germ build
            products.clear()
            charge_series(g, n, c, kind, 8)
            charge_series(g, m, c, kind, 8)
            assert products == []

    def test_germ_cache_is_a_module_level_lru_cache(self):
        """Cache emptying that walks the package's module-level callables with
        ``cache_clear`` (as perfbench's ``fresh_unit`` does) finds the germ
        cache and the cross tables."""
        caches = [f for f in vars(asymptotics).values() if callable(getattr(f, "cache_clear", None))]
        g, c = geometry_for(-1), TiltCurve(-1, 1, 2)
        charge_series(g, ChernVector.unit(1), c, ChargeKind.REDUCED, 8)
        compare_vectors(g, ChernVector.unit(1), cv(1, 2, d(1), d(0), 1, 1), c, ChargeKind.REDUCED, 8)
        for cache in (asymptotics._charge_germs, asymptotics._cross_table):
            assert cache in caches
            assert cache.cache_info().currsize >= 1
            cache.cache_clear()
            assert cache.cache_info().currsize == 0

    @pytest.mark.parametrize("order", [0, -1])
    def test_nonpositive_order_raises_before_caching(self, order):
        asymptotics._charge_germs.cache_clear()
        with pytest.raises(CurveDomainError):
            charge_series(geometry_for(-1), ChernVector.unit(1), TiltCurve(-1, 1, 2),
                          ChargeKind.REDUCED, order)
        assert asymptotics._charge_germs.cache_info().currsize == 0


class TestPhaseLimit:
    def test_tables(self):
        tilt_cases, onedim_cases = phase_table_cases()
        g = geometry_for(-1)
        c = TiltCurve(-1, 1, 2)
        for name, v, expected in tilt_cases:
            got = phase_limit(charge_series(g, v, c, ChargeKind.REDUCED, 8))
            assert (got.limit, got.side) == expected, name
        g0 = geometry_for(0)
        c0 = OneDimCurve(0, 1, 1)
        for name, v, expected in onedim_cases:
            got = phase_limit(charge_series(g0, v, c0, ChargeKind.FULL, 8, d(0)))
            assert (got.limit, got.side) == expected, name

    def test_fiber_positive_ch3(self, g0):
        c0 = OneDimCurve(0, 1, 1)
        ac = charge_series(g0, cv(0, 0, d(0), d(0), 1, 2), c0, ChargeKind.FULL, 8, d(0))
        got = phase_limit(ac)
        assert (got.limit, got.side) == (Fraction(1), Side.MINUS)

    def test_flat_class_side_tracks_imaginary_sign(self, g0):
        c0 = OneDimCurve(0, 1, 1)
        for a, side in ((1, Side.PLUS), (-1, Side.MINUS), (0, Side.EXACT)):
            ac = charge_series(g0, cv(0, 0, d(1), d(0), a, 0), c0, ChargeKind.FULL, 8, d(0))
            got = phase_limit(ac)
            assert (got.limit, got.side) == (Fraction(0), side)

    def test_reduced_positive_fiber_degree(self, g1):
        c = TiltCurve(-1, 1, 2)
        ac = charge_series(g1, cv(0, 1, d(0), d(0), 0, 0), c, ChargeKind.REDUCED, 8)
        assert phase_limit(ac).limit == 0

    def test_zero_full_charge_rejected(self, g0):
        c0 = OneDimCurve(0, 1, 1)
        ac = charge_series(g0, ChernVector.zero(1), c0, ChargeKind.FULL, 8, d(0))
        with pytest.raises(DomainError):
            phase_limit(ac)


class TestComparePhases:
    def test_transform_order_matches_slope_order(self, g0):
        c0 = OneDimCurve(0, 1, 1)
        m = phi(g0, cv(0, 0, d(0), d(1), 0, 1))
        n = phi(g0, cv(0, 0, d(0), d(1), 0, 2))
        acm = charge_series(g0, m, c0, ChargeKind.FULL, 8, d(0))
        acn = charge_series(g0, n, c0, ChargeKind.FULL, 8, d(0))
        assert compare_phases(acm, acn).is_prec

    def test_self_compare_exact_equal(self, g0):
        c0 = OneDimCurve(0, 1, 1)
        ac = charge_series(g0, cv(0, 0, d(1), d(0), 1, 1), c0, ChargeKind.FULL, 8, d(0))
        assert compare_phases(ac, ac).kind is OrderKind.EXACT_EQUAL

    def test_identical_truncated_germs_equal_through_order(self):
        """Identical truncated germs are equal only through the cross
        series' floor; identical vectors are exactly equal at once."""
        g = geometry_for(-1)
        c = TiltCurve(-1, 1, 2)
        m = cv(1, 2, d(1), d(0), 1, 1)
        ac = charge_series(g, m, c, ChargeKind.REDUCED, 8)
        assert not ac.is_exact()
        floor = _reference_cross_series(ac, ac).trunc
        assert compare_phases(ac, ac) == PhaseOrder(OrderKind.EQUAL_THROUGH_ORDER, floor)
        assert compare_vectors(g, m, m, c, ChargeKind.REDUCED, 8) == PhaseOrder(OrderKind.EXACT_EQUAL)

    def test_identical_vectors_skip_series_work(self, monkeypatch):
        def no_series(*args):
            raise AssertionError("series built for identical vectors")

        monkeypatch.setattr(asymptotics, "charge_series", no_series)
        g = geometry_for(-1)
        m = cv(1, 2, d(1), d(0), 1, 1)
        verdict = compare_vectors(g, m, m.scale(1), TiltCurve(-1, 1, 2), ChargeKind.REDUCED, 8)
        assert verdict.kind is OrderKind.EXACT_EQUAL

    def test_identical_vectors_are_checked_as_charge_series_checks_them(self, monkeypatch):
        """The identical-vector shortcut still refuses what charge_series
        refuses: a full-kind class with n or x nonzero, a curve of another
        h, a divisor of another rank; it builds no germ."""
        g, flat1 = geometry_for(-1), OneDimCurve(-1, 1, 2)
        n = cv(Fraction(5, 6), 2, d(Fraction(-4, 3)), d(-2), Fraction(1, 2), Fraction(-5, 6))
        with pytest.raises(DomainError, match="fiber-degree-trivial"):
            compare_vectors(g, n, n, flat1, ChargeKind.FULL, 8)
        with pytest.raises(ConfigurationError):
            compare_vectors(g, n, n, TiltCurve(0, 1, 2), ChargeKind.REDUCED, 8)
        flat = cv(0, 0, d(1), d(2), 3, 4)
        with pytest.raises(DimensionError):
            compare_vectors(g, flat, flat, flat1, ChargeKind.FULL, 8, d(1, 2))

        def no_germs(*args):
            raise AssertionError("germs built for identical vectors")

        monkeypatch.setattr(asymptotics, "_charge_germs", no_germs)
        for kind in ChargeKind:
            assert compare_vectors(g, flat, flat, flat1, kind, 8).kind is OrderKind.EXACT_EQUAL

    def test_extreme_limits_order(self, g0):
        c0 = OneDimCurve(0, 1, 1)
        fiber_pos = charge_series(g0, cv(0, 0, d(0), d(0), 1, 1), c0, ChargeKind.FULL, 8, d(0))
        flat = charge_series(g0, cv(0, 0, d(1), d(0), 1, 0), c0, ChargeKind.FULL, 8, d(0))
        assert compare_phases(fiber_pos, flat).is_succ
        assert compare_phases(flat, fiber_pos).is_prec

    def test_proportional_exact_series_equal(self, g0):
        c0 = OneDimCurve(0, 1, 1)
        m = cv(0, 0, d(1), d(0), 1, 1)
        acm = charge_series(g0, m, c0, ChargeKind.FULL, 8, d(0))
        acn = charge_series(g0, m.scale(2), c0, ChargeKind.FULL, 8, d(0))
        assert compare_phases(acm, acn).kind is OrderKind.EXACT_EQUAL

    def test_proportional_truncated_series_equal_through_order(self):
        g = geometry_for(-1)
        c = TiltCurve(-1, 1, 2)
        m = cv(1, 2, d(1), d(0), 1, 1)
        acm = charge_series(g, m, c, ChargeKind.REDUCED, 8)
        acn = charge_series(g, m.scale(3), c, ChargeKind.REDUCED, 8)
        verdict = compare_phases(acm, acn)
        assert verdict.kind is OrderKind.EQUAL_THROUGH_ORDER

    def test_reduced_zero_charge_takes_half_phase(self, g1):
        c = TiltCurve(-1, 1, 2)
        zero = charge_series(g1, ChernVector.zero(1), c, ChargeKind.REDUCED, 8)
        pos_re = charge_series(g1, cv(0, 1, d(0), d(0), 0, 0), c, ChargeKind.REDUCED, 8)
        neg_im = charge_series(g1, cv(2, 0, d(0), d(0), 0, 0), c, ChargeKind.REDUCED, 8)
        assert compare_phases(pos_re, zero).is_prec
        assert compare_phases(zero, pos_re).is_succ
        assert compare_phases(neg_im, zero).is_prec

    def test_kind_mismatch(self, g0):
        c0 = OneDimCurve(0, 1, 1)
        ct = TiltCurve(0, 1, 2)
        a = charge_series(g0, cv(0, 0, d(1), d(0), 1, 0), c0, ChargeKind.FULL, 8, d(0))
        b = charge_series(g0, cv(0, 1, d(0), d(0), 0, 0), ct, ChargeKind.REDUCED, 8)
        with pytest.raises(DomainError):
            compare_phases(a, b)

    def test_germ_point_consistency(self):
        """A prec verdict shows up as eventually positive exact cross values."""
        rng = random.Random(17)
        g = geometry_for(-1)
        c = OneDimCurve(-1, 1, 2)
        checked = 0
        for _ in range(25):
            m = _rand_onedim_class(rng, g, 1, 2)
            n = _rand_onedim_class(rng, g, 1, 2)
            verdict = compare_vectors(g, m, n, c, ChargeKind.FULL, 8, d(0))
            if not (verdict.is_prec or verdict.is_succ):
                continue
            want = 1 if verdict.is_prec else -1
            for vp in (Fraction(100), Fraction(10**4), Fraction(10**6)):
                assert cross_sign_at(g, m, n, c, ChargeKind.FULL, vp, d(0)) == want
            checked += 1
        assert checked >= 10

    def test_truncation_stability(self):
        rng = random.Random(18)
        g = geometry_for(-1)
        c = TiltCurve(-1, 1, 2)
        from ellstab.suites import _rand_vector

        for _ in range(100):
            m, n = _rand_vector(rng, 1), _rand_vector(rng, 1)
            v8 = compare_vectors(g, m, n, c, ChargeKind.REDUCED, 8)
            v16 = compare_vectors(g, m, n, c, ChargeKind.REDUCED, 16)
            if v8.is_prec or v8.is_succ:
                assert v8.kind == v16.kind


class TestGermHalfPlane:
    def test_tilt_heart_generators_stay_in_rotated_half_plane(self):
        """Necessary condition at germ level: asserted heart members have a
        positive real lead, or a vanishing real part with nonnegative
        imaginary lead, or a zero charge."""
        g = geometry_for(-1)
        c = TiltCurve(-1, 1, 2)
        generators = [
            cv(0, 1, d(0), d(0), 0, 0),
            cv(0, 0, d(0), d(1), 0, 0),
            cv(0, 0, d(0), d(0), 0, 1),
            cv(0, 0, d(1), d(1), 2, 0),
            cv(-2, 0, d(1), d(0), 0, 0),
            cv(1, 1, d(0), d(0), 0, 0),
        ]
        for v in generators:
            ac = charge_series(g, v, c, ChargeKind.REDUCED, 8)
            re_lead, im_lead = ac.re.leading(), ac.im.leading()
            if re_lead is None and im_lead is None:
                continue
            if re_lead is None:
                assert im_lead[1] >= 0
            else:
                assert re_lead[1] > 0


def _reference_cross_series(acm, acn):
    """The whole cross series re(M) im(N) - im(M) re(N), as
    ``asymptotics.cross_series`` built it."""
    if acm.kind is not acn.kind:
        raise DomainError("cannot compare charges of different kinds")
    m_re, m_im = asymptotics._with_zero_convention(acm)
    n_re, n_im = asymptotics._with_zero_convention(acn)
    return m_re * n_im - m_im * n_re


def _reference_compare_phases(acm, acn):
    """``compare_phases`` as first written: the whole cross series built,
    then its leading coefficient read."""
    if acm.kind is not acn.kind:
        raise DomainError("cannot compare charges of different kinds")
    if acm == acn and acm.is_exact():
        return PhaseOrder(OrderKind.EXACT_EQUAL)
    m_re, m_im = asymptotics._with_zero_convention(acm)
    n_re, n_im = asymptotics._with_zero_convention(acn)
    x = m_re * n_im - m_im * n_re
    lead = x.leading()
    if lead is not None:
        return PhaseOrder(OrderKind.PREC if lead[1] > 0 else OrderKind.SUCC)
    dot = m_re * n_re + m_im * n_im
    dot_lead = dot.leading()
    if dot_lead is not None and dot_lead[1] < 0:
        lm = phase_limit(AsymptoticCharge(m_re, m_im, acm.kind))
        ln = phase_limit(AsymptoticCharge(n_re, n_im, acn.kind))
        if lm.limit < ln.limit:
            return PhaseOrder(OrderKind.PREC)
        if lm.limit > ln.limit:
            return PhaseOrder(OrderKind.SUCC)
    if x.is_exact():
        return PhaseOrder(OrderKind.EXACT_EQUAL)
    return PhaseOrder(OrderKind.EQUAL_THROUGH_ORDER, x.trunc)


def _outcome(compare, acm, acn):
    """A comparison's PhaseOrder, or the DomainError it raises."""
    try:
        return compare(acm, acn)
    except DomainError as e:
        return "DomainError", str(e)


def _random_series(rng):
    terms = [(rng.randint(-8, 3), Fraction(rng.randint(-5, 5), rng.randint(1, 4))) for _ in range(rng.randint(0, 5))]
    return LaurentSeries(terms, rng.choice([None, None, -6, -3, 0, 2]))


def _germ_pairs(seed):
    """Pairs of germs of one kind: random pairs of both kinds at orders 4,
    8 and 16 (exact at h = 0), antipodal and identical pairs, stored zeros,
    exact and truncated, and random hand-built series."""
    rng = random.Random(seed)
    out = []
    for order in (4, 8, 16):
        for h in (Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(-2)):
            g = geometry_for(h)
            c, flat = _rand_tilt(rng, h), OneDimCurve(h, 1, 3)
            for _ in range(4):
                m, n = _rand_vector(rng, 1), _rand_vector(rng, 1)
                germs = [charge_series(g, v, c, ChargeKind.REDUCED, order) for v in (m, n, -m)]
                out += [(germs[0], germs[1]), (germs[0], germs[2]), (germs[0], germs[0])]
                fm, fn = (phi(g, _rand_onedim_class(rng, g, 1, 3)) for _ in range(2))
                germs = [charge_series(g, v, flat, ChargeKind.FULL, order, d(1)) for v in (fm, fn, -fm)]
                out += [(germs[0], germs[1]), (germs[0], germs[2]), (germs[0], germs[0])]
            zero = charge_series(g, ChernVector.zero(1), c, ChargeKind.REDUCED, order)
            other = charge_series(g, _rand_vector(rng, 1), c, ChargeKind.REDUCED, order)
            stored = AsymptoticCharge(LaurentSeries.zero(-order), LaurentSeries.zero(-order), ChargeKind.REDUCED)
            out += [(zero, other), (other, zero), (zero, zero), (stored, other), (other, stored), (stored, zero)]
            full_zero = AsymptoticCharge(LaurentSeries.zero(), LaurentSeries.zero(), ChargeKind.FULL)
            out += [(full_zero, germs[0]), (germs[0], full_zero)]
    for _ in range(300):
        kind = rng.choice(list(ChargeKind))
        acm, acn = (AsymptoticCharge(_random_series(rng), _random_series(rng), kind) for _ in range(2))
        out += [(acm, acn), (acm, AsymptoticCharge(-acm.re, -acm.im, kind))]
    return out


class TestLazyCross:
    """``compare_phases`` reads the cross series one coefficient at a time;
    the whole series of ``_reference_compare_phases`` is the reference."""

    def test_verdicts_kinds_and_floors_match_the_whole_cross_series(self):
        pairs = _germ_pairs(90)
        got = [_outcome(compare_phases, *p) for p in pairs]
        assert got == [_outcome(_reference_compare_phases, *p) for p in pairs]
        kinds = {o.kind for o in got if isinstance(o, PhaseOrder)}
        assert kinds == set(OrderKind)
        assert any(o.floor is not None for o in got if isinstance(o, PhaseOrder))
        assert ("DomainError", "zero full-kind charge has indeterminate phase") in got

    def test_leading_sign_and_floor_are_the_cross_series(self):
        """The tie to ``_reference_cross_series``, the whole series that the
        threshold check's boundary case read before."""
        checked = 0
        for acm, acn in _germ_pairs(91):
            try:
                x = _reference_cross_series(acm, acn)
            except DomainError:
                continue
            lead = x.leading()
            want = (0, None) if lead is None else (1 if lead[1] > 0 else -1, lead[0])
            assert asymptotics._leading_cross(acm, acn) == (*want, x.trunc)
            checked += 1
        assert checked > 500

    def test_a_nonzero_leading_cross_multiplies_no_series(self, monkeypatch):
        pairs = [(acm, acn) for acm, acn in _germ_pairs(92)
                 if _outcome(_reference_cross_series, acm, acn)
                 != ("DomainError", "zero full-kind charge has indeterminate phase")
                 and _reference_cross_series(acm, acn).leading() is not None]
        want = [_reference_compare_phases(*p) for p in pairs]
        calls = []
        original = LaurentSeries.__mul__

        def counted(self, other):
            calls.append(1)
            return original(self, other)

        monkeypatch.setattr(LaurentSeries, "__mul__", counted)
        monkeypatch.setattr(LaurentSeries, "__rmul__", counted)
        assert [compare_phases(*p) for p in pairs] == want
        assert len(pairs) > 250 and calls == []
        _reference_cross_series(*pairs[0])  # the whole series multiplies, counted
        assert calls


def _cross_pairs(seed):
    """Random class pairs on both curves and both kinds, at every h of
    ``GERM_H`` and ranks 1 and 2: random classes for the reduced kind, and
    for the full kind transforms of one-dimensional classes with a random
    d."""
    rng = random.Random(seed)
    out = []
    for h in GERM_H:
        for rank2 in (False, True):
            g = geometry_for(h, rank2)
            y, z = Fraction(rng.randint(1, 2)), Fraction(rng.randint(5, 9))  # h + z/y > 0
            for c in (_rand_tilt(rng, h), OneDimCurve(h, y, z)):
                for _ in range(3):
                    out.append((g, _rand_vector(rng, g.rank), _rand_vector(rng, g.rank), c, ChargeKind.REDUCED, None))
                    fm, fn = (phi(g, _rand_onedim_class(rng, g, y, z)) for _ in range(2))
                    out.append((g, fm, fn, c, ChargeKind.FULL, _rand_divisor(rng, g.rank, -4, 4)))
    return out


def _table_lead(g, m, n, c, kind, order, d=None):
    """(sign, exponent) of the first nonzero coefficient the cross table
    reads, or None."""
    for e, x in asymptotics._cross_coefficients(g, m, n, c, kind, order, d):
        if x:
            return (1 if x > 0 else -1), e
    return None


class TestCrossTable:
    """Verdicts read off one cross table per (curve, kind); ``_leading_cross``
    and ``compare_phases`` on ``charge_series`` germs are the reference."""

    def test_leads_floors_and_verdicts_match_the_germs(self):
        """The first nonzero coefficient the table reads is the germs'
        ``_leading_cross`` lead at orders 1, 2, 3, 8 and 16, and a lead
        below the cutoff is left to the germs; at h = 0, where the germs are
        exact, every lead is read.  The cutoff, class-independent, is never
        below the germs' floor: it is the floor for the reduced kind's
        random classes and two above it for the full kind's transforms,
        whose re germ is exact.  ``_germ_verdict`` is ``compare_phases`` on
        the germs with that lead."""
        pairs = _cross_pairs(93)
        decided = 0
        gaps = set()
        for order in (1, 2, 3, 8, 16):
            for g, m, n, c, kind, d in pairs:
                acm, acn = (charge_series(g, v, c, kind, order, d) for v in (m, n))
                sign, lead, floor = asymptotics._leading_cross(acm, acn)
                got = _table_lead(g, m, n, c, kind, order, d)
                if c.h == 0:
                    assert floor is None and got == ((sign, lead) if sign else None)
                else:
                    cutoff = asymptotics._cross_table(g, c, kind).top + 1 - order
                    assert got == ((sign, lead) if sign and lead >= cutoff else None)
                    gaps.add((kind, cutoff - floor))
                decided += got is not None
                assert asymptotics._germ_verdict(g, m, n, c, kind, order, d) == (compare_phases(acm, acn), lead)
        assert decided > 0.8 * 5 * len(pairs)
        assert gaps == {(ChargeKind.REDUCED, 0), (ChargeKind.FULL, 2)}

    def test_vanishing_crosses_reach_compare_phases(self, monkeypatch):
        """Pairs whose cross vanishes on the whole curve go to
        ``compare_phases`` on the germs, with the verdicts it gave before:
        identical classes, zero classes (the zero convention, and its
        DomainError for the full kind), at h = 0 a class whose im part
        cancels (d1 + 3 u1 d3 = 0) and one whose whole charge does, and
        ROADMAP defect 2's delta and s-only pairs, equal on the whole curve."""
        calls = []
        original = asymptotics.compare_phases
        monkeypatch.setattr(asymptotics, "compare_phases", lambda a, b: calls.append(1) or original(a, b))

        def reached(g, m, n, c, kind, order=8, d=None):
            calls.clear()
            germs = [charge_series(g, v, c, kind, order, d) for v in (m, n)]
            want = _outcome(original, *germs)
            got = _outcome(lambda a, b: asymptotics._germ_verdict(g, a, b, c, kind, order, d)[0], m, n)
            assert got == want and calls
            return got

        rng = random.Random(94)
        for h in (Fraction(-1), Fraction(0)):
            g, flat = geometry_for(h), OneDimCurve(h, 1, 3)
            m, fm = _rand_vector(rng, 1), phi(g, _rand_onedim_class(rng, g, 1, 3))
            exact = OrderKind.EXACT_EQUAL if h == 0 else OrderKind.EQUAL_THROUGH_ORDER
            assert reached(g, m, m, _rand_tilt(rng, h), ChargeKind.REDUCED).kind is exact
            assert reached(g, fm, fm, flat, ChargeKind.FULL, 8, d(1)).kind is exact
            reached(g, ChernVector.zero(1), m, _rand_tilt(rng, h), ChargeKind.REDUCED)
            assert reached(g, ChernVector.zero(1), fm, flat, ChargeKind.FULL) == (
                "DomainError", "zero full-kind charge has indeterminate phase")

        g, c = geometry_for(0), TiltCurve(0, 1, 2)  # u1 = b/a = 2 and H^2 = 1, so d1 + 3 u1 d3 = H.eta - n
        real, zero = cv(1, 1, d(0), d(1), 0, 0), cv(1, 0, d(0), d(1), 0, 0)
        germ = charge_series(g, real, c, ChargeKind.REDUCED, 8)
        assert germ.im.is_stored_zero() and germ.is_exact() and not germ.re.is_stored_zero()
        assert charge_series(g, zero, c, ChargeKind.REDUCED, 8).is_stored_zero()
        assert reached(g, real, -real, c, ChargeKind.REDUCED).is_prec  # antipodal: phases 0 and 1
        assert reached(g, real, cv(1, 3, d(0), d(1), 0, 0), c, ChargeKind.REDUCED).kind is OrderKind.EXACT_EQUAL
        assert reached(g, zero, real, c, ChargeKind.REDUCED).is_succ  # the zero convention: phase 1/2

        m = cv(0, 2, d(0), d(1), 0, 0)
        for h, a, b in ((-1, 1, 2), (Fraction(1, 2), 1, 1), (-2, 1, 3)):
            g, c = geometry_for(h), TiltCurve(h, a, b)
            delta = cv(6, 0, d(0), d(6 * c.beta / c.alpha), 0, 0)
            for first, second in ((m, m + delta), (delta, m)):
                for order, floor in ((8, -12), (16, -28)):
                    calls.clear()
                    verdict = compare_vectors(g, first, second, c, ChargeKind.REDUCED, order)
                    assert verdict == PhaseOrder(OrderKind.EQUAL_THROUGH_ORDER, floor) and calls
        s_only = cv(0, 1, d(0), d(Fraction(-1, 2)), 0, Fraction(1, 6))
        calls.clear()
        verdict = compare_vectors(geometry_for(-1), s_only, s_only + cv(0, 0, d(0), d(0), 0, 1),
                                  TiltCurve(-1, 1, 2), ChargeKind.REDUCED, 8)
        assert verdict == PhaseOrder(OrderKind.EQUAL_THROUGH_ORDER, -14) and calls

    def test_a_decided_verdict_builds_no_series(self, monkeypatch):
        """On the threshold and correspondence suites' pairs at orders 8 and
        16, each on a cold table, a verdict the table decides builds no
        ``LaurentSeries`` but ``expand_u``'s and calls ``expand_u`` at order
        1 only: the suites' leads (v^1 and v^-1) need only u's leading
        coefficient."""
        pairs = []
        recorded = verify._germ_verdict
        monkeypatch.setattr(verify, "_germ_verdict", lambda *args: pairs.append(args) or recorded(*args))
        for order in (8, 16):
            suites.suite_threshold(30, 4, order)
            suites.suite_correspondence(30, 5, order)
        monkeypatch.undo()
        built, expanded, inside = [], [], []
        ints, expand = LaurentSeries._ints.__func__, asymptotics.expand_u

        def counted_ints(cls, *args):
            if not inside:
                built.append(1)
            return ints(cls, *args)

        def counted_expand(c, order):
            expanded.append(order)
            inside.append(1)
            try:
                return expand(c, order)
            finally:
                inside.pop()

        monkeypatch.setattr(LaurentSeries, "_ints", classmethod(counted_ints))
        monkeypatch.setattr(asymptotics, "expand_u", counted_expand)
        decided = 0
        for g, m, n, c, kind, order, *rest in pairs:
            if _table_lead(g, m, n, c, kind, order, *rest) is None:
                continue
            asymptotics._cross_table.cache_clear()
            built.clear(), expanded.clear()
            verdict, _ = asymptotics._germ_verdict(g, m, n, c, kind, order, *rest)
            assert verdict.is_prec or verdict.is_succ
            assert built == [] and expanded == [1]
            decided += 1
        assert len(pairs) == 120 and decided > 108

    def test_a_row_expands_u_only_as_deep_as_its_terms_reach(self, monkeypatch):
        """Reading a cold table's rows top down calls ``expand_u`` at the
        order each row needs: the term n u^a v^b (a > 0) of a product
        G_i H_j reaches v^e through u's coefficient at v^-(b - a - e + 1), so
        order b - a - e + 1 (the products here are multiplied afresh as
        ``Poly2``s).  A row read again calls nothing."""
        expanded, expand = [], asymptotics.expand_u
        monkeypatch.setattr(asymptotics, "expand_u", lambda c, order: expanded.append(order) or expand(c, order))
        for c, kind in ((TiltCurve(-1, Fraction(3, 2), Fraction(5, 3)), ChargeKind.REDUCED),
                        (OneDimCurve(Fraction(1, 2), 2, 3), ChargeKind.FULL)):
            g = geometry_for(c.h)
            re, im = charges._reduced_germs(c.h, Poly2.u(), Poly2.v(), kind is ChargeKind.FULL)
            products = [x * y for x in (1, *re) for y in (1, *im)]
            spans = [j - i for p in products if isinstance(p, Poly2) for i, j in p.terms if i]
            asymptotics._cross_table.cache_clear()
            table, every = asymptotics._cross_table(g, c, kind), list(range(len(products)))
            deepest = 0
            for e in range(table.top, table.top - 12, -1):
                expanded.clear()
                row = table.row(e, every)
                need = max([s - e + 1 for s in spans if s >= e and (s - e) % 2 == 0], default=1)
                assert expanded == ([need] if need > deepest else [])
                assert None not in row
                deepest = max(deepest, need)
                expanded.clear()
                assert table.row(e, every) is row and expanded == []
            assert deepest >= 11

    def test_rows_are_the_products_coefficients(self):
        """Every known entry of a row is the v^e coefficient of its product
        G_i H_j at u = ``expand_u(c, 41)`` (series products, exact far below
        the rows read), up to one positive factor per row, whichever
        products a pair asked for first: rows read for the constant product
        alone, then for one product, then for all."""
        for c, kind in ((TiltCurve(-1, Fraction(3, 2), Fraction(5, 3)), ChargeKind.REDUCED),
                        (OneDimCurve(Fraction(1, 2), 2, 3), ChargeKind.FULL),
                        (TiltCurve(0, 1, 2), ChargeKind.REDUCED)):
            u, v = expand_u(c, 41), LaurentSeries.monomial(1, 1)
            re, im = charges._reduced_germs(c.h, u, v, kind is ChargeKind.FULL)
            one = LaurentSeries.const(1)
            products = [x * y or LaurentSeries.zero() for x in (one, *re) for y in (one, *im)]
            asymptotics._cross_table.cache_clear()
            table = asymptotics._cross_table(geometry_for(c.h), c, kind)
            for ks in ([0], [len(products) - 1], list(range(len(products)))):
                for e in range(table.top, table.top - 12, -1):
                    row = table.row(e, ks)
                    known = [(x, p.coefficient(e)) for x, p in zip(row, products) if x is not None]
                    assert all(row[k] is not None for k in ks)
                    assert all((x > 0) - (x < 0) == (y > 0) - (y < 0) for x, y in known)
                    assert all(x * y2 == x2 * y for x, y in known for x2, y2 in known)
            assert table.depth == (1 if c.h == 0 else 6)

    def test_the_checks_raise_as_before(self):
        """``compare_vectors`` and the threshold and correspondence checks
        raise, for each fault alone, the error they raised when every
        verdict read ``charge_series`` germs: a kind that is not a
        ``ChargeKind``, a curve of another h, a class that is not rational,
        n or x nonzero for the full kind, a rank mismatch and orders 0 and
        2.5.  A class that is not rational is refused by the threshold
        check as by ``compare_vectors``, with the same ``DomainError``.  A
        class of another rank is named as a vector, as the threshold check
        named it, and a d of another rank as a divisor."""
        g, tilt, flat = geometry_for(-1), TiltCurve(-1, 1, 2), OneDimCurve(-1, 1, 3)
        m, n = cv(1, 2, d(1), d(0), 1, 1), cv(2, 1, d(0), d(1), 3, -1)
        fm, fn = cv(0, 0, d(1), d(2), 3, 4), cv(0, 0, d(2), d(1), -1, 2)
        symbolic = ChernVector(Poly2.u(), 0, d(0), d(1), 0, 0)
        t, e, e2 = cv(0, 0, d(0), d(1), 0, 0), cv(2, 1, d(0), d(0), 0, 0), cv(2, 1, d(0, 0), d(0, 0), 0, 0)
        o1, o2, o3 = cv(0, 0, d(0), d(1), 0, 1), cv(0, 0, d(0), d(1), 0, 2), cv(0, 0, d(0, 0), d(1, 0), 0, 2)
        reduced, full = ChargeKind.REDUCED, ChargeKind.FULL
        rational = "a charge germ needs a rational class (every coordinate a Fraction)"
        rank, vector_rank = "divisor rank does not match geometry rank", "vector rank does not match geometry rank"
        cases = [
            (lambda: compare_vectors(g, m, n, tilt, "full", 8), DomainError, "unknown charge kind full"),
            (lambda: compare_vectors(g, m, n, TiltCurve(0, 1, 2), reduced, 8), ConfigurationError,
             "curve and geometry disagree on h"),
            (lambda: compare_vectors(g, symbolic, n, tilt, reduced, 8), DomainError, rational),
            (lambda: compare_vectors(g, m, symbolic, tilt, reduced, 8), DomainError, rational),
            (lambda: compare_vectors(g, fm, m, flat, full, 8), DomainError,
             "flat full charge requires a fiber-degree-trivial class (n = x = 0)"),
            (lambda: compare_vectors(g, m, e2, tilt, reduced, 8), DimensionError, vector_rank),
            (lambda: compare_vectors(g, fm, fn, flat, full, 8, d(1, 2)), DimensionError, rank),
            (lambda: threshold_check(g, t, e, TiltCurve(0, 1, 2)), ConfigurationError,
             "curve and geometry disagree on h"),
            (lambda: threshold_check(g, t, symbolic, tilt), DomainError, rational),
            (lambda: threshold_check(g, t, e2, tilt), DimensionError, vector_rank),
            (lambda: correspondence_check(g, m, o2, 1, 3, d(0)), DomainError, "inputs must be one-dimensional classes"),
            (lambda: correspondence_check(g, o1, o3, 1, 3, d(0)), DimensionError, vector_rank),
            (lambda: correspondence_check(g, o1, o2, 1, 3, d(0, 0)), DimensionError, "divisor rank mismatch"),
        ]
        for order, error, text in ((0, CurveDomainError, "expansion order must be at least 1"),
                                   (2.5, TypeError, "exact scalars are int, Fraction or str, not float (2.5)"),
                                   (Fraction(5, 2), CurveDomainError,
                                    "expansion order must be a whole number, not 5/2")):
            cases += [(lambda o=order: compare_vectors(g, m, n, tilt, reduced, o), error, text),
                      (lambda o=order: threshold_check(g, t, e, tilt, o), error, text),
                      (lambda o=order: correspondence_check(g, o1, o2, 1, 3, d(0), o), error, text)]
        for call, error, text in cases:
            with pytest.raises(error) as raised:
                call()
            assert str(raised.value) == text


    def test_rank_errors_name_the_vector_or_the_divisor(self):
        """A class of another lattice rank raises "vector rank ..." on every
        germ entry point, and a d of another rank "divisor rank ..." on
        every full-kind entry point, the equal pair, the cross sign and the
        wall scan included."""
        g, flat = geometry_for(-1), OneDimCurve(-1, 1, 3)
        fm, fn, wide = cv(0, 0, d(1), d(2), 3, 4), cv(0, 0, d(2), d(1), -1, 2), cv(0, 0, d(1, 0), d(2, 0), 3, 4)
        full, dd = ChargeKind.FULL, d(1, 2)
        for call in (lambda: charge_series(g, wide, flat, full), lambda: compare_vectors(g, fm, wide, flat, full),
                     lambda: compare_vectors(g, wide, wide, flat, full),
                     lambda: charge_series(g, wide, TiltCurve(-1, 1, 2), ChargeKind.REDUCED)):
            with pytest.raises(DimensionError, match="^vector rank does not match geometry rank$"):
                call()
        for call in (lambda: charge_series(g, fm, flat, full, 8, dd),
                     lambda: compare_vectors(g, fm, fn, flat, full, 8, dd),
                     lambda: compare_vectors(g, fm, fm, flat, full, 8, dd),
                     lambda: cross_sign_at(g, fm, fn, flat, full, 2, dd),
                     lambda: wall_scan(g, fm, fn, flat, full, (1, 4), Fraction(1, 8), dd),
                     lambda: verify.h0_independence_check(geometry_for(0), cv(0, 0, d(1), d(0), 1, 0),
                                                          cv(0, 0, d(2), d(0), -1, 3), 1, 3, dd)):
            with pytest.raises(DimensionError, match="^divisor rank does not match geometry rank$"):
                call()


class TestWallScan:
    def test_proportional_is_degenerate(self, g0):
        c0 = OneDimCurve(0, 1, 1)
        m = cv(0, 0, d(1), d(1), 1, 0)
        res = wall_scan(g0, m, m.scale(2), c0, ChargeKind.FULL, (1, 10), Fraction(1, 2**10), d(0))
        assert res.degenerate and res.walls == ()

    def test_single_constructed_crossing(self, g0):
        c0 = OneDimCurve(0, 1, 1)
        m = cv(0, 0, d(1), d(1), 1, 0)
        n = cv(0, 0, d(1), d(1), 5, -1)
        res = wall_scan(g0, m, n, c0, ChargeKind.FULL, (1, 10), Fraction(1, 2**12), d(0))
        assert not res.degenerate
        assert len(res.walls) == 1
        w = res.walls[0]
        # crossing sits at v = sqrt(3)
        assert w.lo * w.lo <= 3 <= w.hi * w.hi

    def test_non_positive_precision_raises(self, g1):
        """Used to bisect a wall forever: no bracket gets narrower than 0."""
        m = cv(0, Fraction(-2, 3), d(-8), d(2), -4, Fraction(2, 3))
        n = cv(Fraction(5, 6), 2, d(Fraction(-4, 3)), d(-2), Fraction(1, 2), Fraction(-5, 6))
        c = TiltCurve(-1, 1, 2)
        assert len(wall_scan(g1, m, n, c, ChargeKind.REDUCED, (Fraction(1, 2), 5)).walls) == 2
        with deadline(20):
            for precision in (Fraction(0), Fraction(-1, 2**16)):
                with pytest.raises(DomainError, match="precision must be positive"):
                    wall_scan(g1, m, n, c, ChargeKind.REDUCED, (Fraction(1, 2), 5), precision)

    def test_floats_are_refused(self, g1):
        """The range ends and the precision used to be compared as given, a
        float precision against the Fraction grid."""
        m, n, c = cv(1, 0, d(0), d(1), 0, 0), cv(0, 1, d(1), d(0), 1, 0), TiltCurve(-1, 1, 2)
        for vrange, precision in (((Fraction(1, 2), 5), 0.001), ((0.5, 5), Fraction(1, 2**10)),
                                  ((Fraction(1, 2), 5.0), Fraction(1, 2**10))):
            with pytest.raises(TypeError, match="float"):
                wall_scan(g1, m, n, c, ChargeKind.REDUCED, vrange, precision)
        exact = wall_scan(g1, m, n, c, ChargeKind.REDUCED, (Fraction(1, 2), 5), Fraction(1, 2**10))
        assert wall_scan(g1, m, n, c, ChargeKind.REDUCED, ("1/2", 5), "1/1024") == exact

    def test_no_crossing(self, g0):
        c0 = OneDimCurve(0, 1, 1)
        m = cv(0, 0, d(1), d(1), 1, 0)
        n = cv(0, 0, d(1), d(1), 2, -1)
        res = wall_scan(g0, m, n, c0, ChargeKind.FULL, (1, 4), Fraction(1, 2**10), d(0))
        # here the cross value is -v: one fixed sign, no walls
        signs = {cross_sign_at(g0, m, n, c0, ChargeKind.FULL, vv, d(0)) for vv in (2, 3, 4)}
        assert signs == {-1}
        assert res.walls == ()
        assert not res.degenerate


_U, _V = sympy.symbols("u v")


def _sympy(p: Poly2):
    return sum((sympy.Rational(x.numerator, x.denominator) * _U**i * _V**j for (i, j), x in p.terms.items()),
               sympy.Integer(0))


def _resultant(cross: Poly2, c) -> sympy.Poly:
    """Res_u(X, P) of the cross and the curve polynomial, by sympy."""
    return sympy.Poly(sympy.resultant(_sympy(cross), _sympy(constraint_poly(c)), _U), _V)


# Known defect 1 (ROADMAP): walls near v = 0.77695 and 3.73666, which a
# 64-sample grid over [1/100, 1000] misses.
_DEFECT_ONE = (cv(0, Fraction(-2, 3), d(-8), d(2), -4, Fraction(2, 3)),
               cv(Fraction(5, 6), 2, d(Fraction(-4, 3)), d(-2), Fraction(1, 2), Fraction(-5, 6)))


class TestExactWalls:
    """Walls read off the isolated positive roots of the cross's norm."""

    def test_defect_one_shows_both_walls(self, g1):
        m, n = _DEFECT_ONE
        c = TiltCurve(-1, 1, 2)
        res = wall_scan(g1, m, n, c, ChargeKind.REDUCED, (Fraction(1, 100), 1000))
        assert not res.degenerate and len(res.walls) == 2
        oracle = _resultant(asymptotics._cross_poly(g1, m, n, ChargeKind.REDUCED, None), c).sqf_part()
        for w, near in zip(res.walls, (Fraction(77695, 100000), Fraction(373666, 100000))):
            assert w.hi - w.lo <= Fraction(1, 2**16) and abs(w.lo - near) < Fraction(1, 10**4)
            assert oracle.count_roots(w.lo, w.hi) == 1
            signs = [cross_sign_at(g1, m, n, c, ChargeKind.REDUCED, v) for v in (w.lo, w.hi)]
            assert signs[0] * signs[1] < 0
        assert wall_scan(g1, m, n, c, ChargeKind.REDUCED, (Fraction(1, 100), 1000), samples=1) == res

    @pytest.mark.parametrize("h", [Fraction(-1), Fraction(1, 2), Fraction(0)])
    def test_the_norm_is_the_resultant(self, h):
        """``poly.norm_mod_u`` of the cross and the curve polynomial is
        sympy's resultant up to a constant, on random tilt pairs (the
        reduced kind, and the full kind on any class) and one-dimensional
        pairs of both kinds (the full kind on one-dimensional classes: the
        reduced cross of two of them is zero)."""
        rng = random.Random(f"norm-{h}")
        g = geometry_for(h)
        for case in range(8):
            kind = (ChargeKind.REDUCED, ChargeKind.FULL)[case % 2]
            if case < 4:
                c, dd = _rand_tilt(rng, h), None if kind is ChargeKind.REDUCED else _rand_divisor(rng, 1)
                m, n = _rand_vector(rng, 1), _rand_vector(rng, 1)
            else:
                y, z = Fraction(rng.randint(1, 2)), Fraction(rng.randint(3, 5))
                c, dd = OneDimCurve(h, y, z), d(rng.randint(-2, 2))
                if kind is ChargeKind.REDUCED:
                    m, n = _rand_vector(rng, 1), _rand_vector(rng, 1)
                else:
                    m, n = _rand_onedim_class(rng, g, y, z), _rand_onedim_class(rng, g, y, z)
            cross = asymptotics._cross_poly(g, m, n, kind, dd)
            norm = poly.norm_mod_u(cross, constraint_poly(c))
            want = _resultant(cross, c)
            got = sympy.Poly([sympy.Rational(x.numerator, x.denominator) for x in reversed(norm.c)], _V)
            assert norm and not want.is_zero
            assert (got * want.LC() - want * got.LC()).is_zero

    def test_defect_two_pairs_have_a_zero_norm(self, g1):
        """The delta family and the s-only pair vanish on the whole curve:
        their norm is zero and the scan reports them degenerate."""
        c = TiltCurve(-1, 1, 2)
        delta, m = cv(6, 0, d(0), d(2), 0, 0), cv(0, 2, d(0), d(1), 0, 0)
        s_only = cv(0, 1, d(0), d(Fraction(-1, 2)), 0, Fraction(1, 6))
        pairs = [(m, m + delta, (1, 50)), (delta, m, (1, 50)),
                 (s_only, cv(0, 1, d(0), d(Fraction(-1, 2)), 0, Fraction(7, 6)), (1, 10))]
        for a, b, vrange in pairs:
            cross = asymptotics._cross_poly(g1, a, b, ChargeKind.REDUCED, None)
            assert not poly.norm_mod_u(cross, constraint_poly(c))
            assert wall_scan(g1, a, b, c, ChargeKind.REDUCED, vrange) == asymptotics.WallScanResult((), True)

    # Pairs whose cross vanishes on the admissible branch at a rational v that
    # is no dyadic point: at h = 0 and on a one-dimensional curve with h < 0.
    _RATIONAL_ROOTS = [
        (Fraction(0), OneDimCurve(0, 2, 2), cv(0, 0, d(1), d(-1), 2, 0), cv(0, 0, d(-2), d(-3), 4, 4),
         Fraction(4, 3)),
        (Fraction(-1), OneDimCurve(-1, 2, 6), cv(0, 0, d(-2), d(-1), 4, -4), cv(0, 0, d(4), d(-4), -4, -2),
         Fraction(10, 3)),
    ]

    @pytest.mark.parametrize("h, c, m, n, root", _RATIONAL_ROOTS)
    def test_a_rational_root_lies_in_its_wall(self, h, c, m, n, root):
        g = geometry_for(h)
        assert cross_sign_at(g, m, n, c, ChargeKind.FULL, root, d(0)) == 0
        res = wall_scan(g, m, n, c, ChargeKind.FULL, (root - 1, root + 2), Fraction(1, 2**10), d(0))
        assert len(res.walls) == 1 and root in res.walls[0]
        w = res.walls[0]
        assert w.exact or cross_sign_at(g, m, n, c, ChargeKind.FULL, w.lo, d(0)) * \
            cross_sign_at(g, m, n, c, ChargeKind.FULL, w.hi, d(0)) < 0

    @pytest.mark.parametrize("h, c, m, n, root", _RATIONAL_ROOTS)
    def test_a_root_at_an_end_of_the_range_is_no_wall(self, h, c, m, n, root):
        """The cross takes one sign on the range and zero at its end, so
        the order does not flip inside it."""
        g = geometry_for(h)
        for vrange in ((root, root + 2), (root - 1, root)):
            assert wall_scan(g, m, n, c, ChargeKind.FULL, vrange, Fraction(1, 2**10), d(0)).walls == ()
        assert len(wall_scan(g, m, n, c, ChargeKind.FULL, (root - 1, root + 2), Fraction(1, 2**10),
                             d(0)).walls) == 1

    def test_a_collapsed_root_is_tested_in_the_gaps_beside_it(self, g0, monkeypatch):
        """A root that the isolation reports exactly, [2, 2], is a wall when
        the signs in the root-free gaps on either side of it differ inside
        the range: over [1, 3], not over [2, 3] or [1, 2].  (Isolation
        collapses a bracket only at a root on its dyadic grid; here the
        bracket of the root v = 2 is collapsed by hand.)"""
        c0 = OneDimCurve(0, 1, 1)
        m, n = cv(0, 0, d(1), d(1), 1, 0), cv(0, 0, d(1), d(1), -4, 1)
        isolate = poly._isolated_roots
        monkeypatch.setattr(asymptotics, "_isolated_roots", lambda p, precision, vrange: [
            RootInterval(Fraction(2), Fraction(2)) if 2 in r else r for r in isolate(p, precision, vrange)])
        for vrange, walls in (((1, 3), (RootInterval(Fraction(2), Fraction(2)),)), ((2, 3), ()), ((1, 2), ())):
            assert wall_scan(g0, m, n, c0, ChargeKind.FULL, vrange, Fraction(1, 2**10), d(0)).walls == walls

    def test_a_zero_on_the_other_branch_is_no_wall(self):
        """On a one-dimensional curve with h < 0 both roots of P are
        positive: the norm has a root near v = 6.789 where the cross
        vanishes on the other branch, and the admissible sign does not
        change there."""
        g, c, dd = geometry_for(-1), OneDimCurve(-1, 1, 5), d(1)
        m, n = cv(0, 0, d(0), d(2), 0, Fraction(6, 5)), cv(0, 0, d(0), d(4), Fraction(5, 2), Fraction(9, 2))
        cross = asymptotics._cross_poly(g, m, n, ChargeKind.FULL, dd)
        roots = [r for r in poly.isolate_positive_roots(poly.norm_mod_u(cross, constraint_poly(c)), Fraction(1, 2**10))
                 if 3 <= r.lo and r.hi <= 14]
        assert len(roots) == 1 and 6 < roots[0].lo < 7
        assert len({cross_sign_at(g, m, n, c, ChargeKind.FULL, v, dd) for v in (3, roots[0].lo, roots[0].hi, 14)}) == 1
        assert wall_scan(g, m, n, c, ChargeKind.FULL, (3, 14), Fraction(1, 2**10), dd) == \
            asymptotics.WallScanResult((), False)

    @pytest.mark.parametrize("kind", [ChargeKind.REDUCED, ChargeKind.FULL])
    def test_classes_of_another_rank_are_refused(self, kind):
        """Two rank-2 classes on a rank-1 geometry used to give a sign and
        a wall, because the tables read only the first coordinates."""
        g, c = BaseGeometry(1, [[1]], [1], -1), TiltCurve(-1, 1, 2)
        one = cv(1, 0, d(1), d(0), 0, 0)
        wide = [cv(1, 0, d(1, 2), d(0, 1), 0, 0), cv(0, 1, d(-1, 0), d(2, 1), 1, 0)]
        for m, n in ((wide[0], wide[1]), (one, wide[1]), (wide[0], one)):
            with pytest.raises(DimensionError, match="vector rank does not match geometry rank"):
                cross_sign_at(g, m, n, c, kind, 3)
            with pytest.raises(DimensionError, match="vector rank does not match geometry rank"):
                wall_scan(g, m, n, c, kind, (1, 10))


def _reference_wall_scan(g, m, n, c, kind, vrange, precision=Fraction(1, 2**16), dd=None,
                         isolate=_reference_isolate_positive_roots):
    """``wall_scan`` as it was before the range pruning: every positive root
    of the norm isolated and refined (both as they were, on ``Poly2`` and
    Fraction ends), then the brackets that meet the range clipped to it."""
    lo, hi, precision = Fraction(vrange[0]), Fraction(vrange[1]), Fraction(precision)
    cross = asymptotics._cross_poly(g, m, n, kind, dd)
    admissible_bracket(c, lo)
    norm = _reference_norm_mod_u(cross, constraint_poly(c))
    if not norm:
        return asymptotics.WallScanResult((), True)
    roots = isolate(norm, precision)
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
        if asymptotics._cross_sign(cross, c, ends[0]) * asymptotics._cross_sign(cross, c, ends[1]) < 0:
            walls.append(root if root.exact else RootInterval(*ends))
    return asymptotics.WallScanResult(tuple(walls), False)


def _scan_outcome(scan, *args):
    """A scan's result, or the domain error it raises."""
    try:
        return scan(*args)
    except (CurveDomainError, DomainError) as e:
        return type(e).__name__, str(e)


class TestPrunedScan:
    """The scan that isolates only the cells meeting its range against the
    one that isolated every positive root of the norm and then clipped."""

    def test_random_pairs_and_ranges_that_cut_a_bracket(self):
        """Both kinds, tilt and one-dimensional curves, h in {-1, 1/2, 0};
        the ranges include ends strictly inside a bracket of the norm's
        roots and ends in the gaps between them."""
        cut = 0
        for h in (Fraction(-1), Fraction(1, 2), Fraction(0)):
            rng = random.Random(f"pruned-{h}")
            g = geometry_for(h)
            for case in range(8):
                kind = (ChargeKind.REDUCED, ChargeKind.FULL)[case % 2]
                if case < 4:
                    c, dd = _rand_tilt(rng, h), None if kind is ChargeKind.REDUCED else _rand_divisor(rng, 1)
                    m, n = _rand_vector(rng, 1), _rand_vector(rng, 1)
                else:
                    y, z = Fraction(rng.randint(1, 2)), Fraction(rng.randint(3, 5))
                    c, dd = OneDimCurve(h, y, z), d(rng.randint(-2, 2))
                    if kind is ChargeKind.REDUCED:
                        m, n = _rand_vector(rng, 1), _rand_vector(rng, 1)
                    else:
                        m, n = _rand_onedim_class(rng, g, y, z), _rand_onedim_class(rng, g, y, z)
                precision = Fraction(1, 2 ** rng.choice([4, 10]))
                cross = asymptotics._cross_poly(g, m, n, kind, dd)
                roots = _reference_isolate_positive_roots(
                    _reference_norm_mod_u(cross, constraint_poly(c)), precision)
                inside = [(r.lo + r.hi) / 2 for r in roots if not r.exact]
                gaps = [(a.hi + b.lo) / 2 for a, b in zip(roots, roots[1:])]
                points = sorted({x for x in inside + gaps if x > 0} | {Fraction(1, 4), Fraction(3), Fraction(40)})
                ranges = list(itertools.combinations(points, 2))
                rng.shuffle(ranges)
                for vrange in ranges[:12]:
                    args = (g, m, n, c, kind, vrange, precision, dd)
                    assert _scan_outcome(wall_scan, *args) == _scan_outcome(_reference_wall_scan, *args), args
                    cut += any(x in inside for x in vrange)
        assert cut >= 60, cut

    @pytest.mark.parametrize("h, c, m, n, root", TestExactWalls._RATIONAL_ROOTS)
    def test_a_rational_root_whose_neighbours_lie_outside(self, h, c, m, n, root):
        """4/3 at h = 0 and 10/3 at h = -1, in narrow ranges that leave the
        norm's other positive roots outside, and with the root at vmin and
        at vmax."""
        g = geometry_for(h)
        for lo, hi in ((root - 1, root + 2), (root - Fraction(1, 100), root + Fraction(1, 100)),
                       (root - Fraction(1, 2**20), root + Fraction(1, 3)), (root, root + 2), (root - 1, root)):
            for precision in (Fraction(1, 2**10), Fraction(1, 2**40)):
                args = (g, m, n, c, ChargeKind.FULL, (lo, hi), precision, d(0))
                assert wall_scan(*args) == _reference_wall_scan(*args)

    def test_a_collapsed_root_with_its_neighbours_outside(self, g0, monkeypatch):
        """A bracket collapsed to [2, 2] by hand in both scans: its gap test
        points move when the neighbours are dropped, inside the same gaps."""
        c0 = OneDimCurve(0, 1, 1)
        m, n = cv(0, 0, d(1), d(1), 1, 0), cv(0, 0, d(1), d(1), -4, 1)
        isolate = poly._isolated_roots

        def collapse(roots):
            return [RootInterval(Fraction(2), Fraction(2)) if 2 in r else r for r in roots]

        monkeypatch.setattr(asymptotics, "_isolated_roots", lambda p, precision, vrange: collapse(
            isolate(p, precision, vrange)))
        for vrange in ((1, 3), (2, 3), (1, 2), (Fraction(15, 8), Fraction(17, 8)), (Fraction(1, 100), 1000)):
            args = (g0, m, n, c0, ChargeKind.FULL, vrange, Fraction(1, 2**10), d(0))
            assert wall_scan(*args) == _reference_wall_scan(
                *args, isolate=lambda p, precision: collapse(_reference_isolate_positive_roots(p, precision)))

    def test_defect_one_and_defect_two(self, g1):
        """Both walls of defect 1 over [1/100, 1000] and over ranges holding
        one of them; defect 2's pairs stay degenerate."""
        c = TiltCurve(-1, 1, 2)
        for vrange in ((Fraction(1, 100), 1000), (Fraction(1, 100), 2), (2, 1000), (Fraction(3, 4), Fraction(4, 5))):
            args = (g1, *_DEFECT_ONE, c, ChargeKind.REDUCED, vrange)
            assert wall_scan(*args) == _reference_wall_scan(*args)
        delta, m = cv(6, 0, d(0), d(2), 0, 0), cv(0, 2, d(0), d(1), 0, 0)
        s_only = cv(0, 1, d(0), d(Fraction(-1, 2)), 0, Fraction(1, 6))
        for a, b, vrange in ((m, m + delta, (1, 50)), (delta, m, (1, 50)),
                             (s_only, cv(0, 1, d(0), d(Fraction(-1, 2)), 0, Fraction(7, 6)), (1, 10))):
            args = (g1, a, b, c, ChargeKind.REDUCED, vrange)
            assert wall_scan(*args) == _reference_wall_scan(*args) == asymptotics.WallScanResult((), True)

    def test_a_warm_scan_multiplies_no_poly2_in_the_norm(self, g1, monkeypatch):
        """On defect 1's pair, a warm scan's norm runs on integer u-rows (no
        ``Poly2`` product), and its isolation builds a Fraction (counted at
        ``Fraction.__new__``) only for the ends it returns."""
        c = TiltCurve(-1, 1, 2)
        args = (g1, *_DEFECT_ONE, c, ChargeKind.REDUCED, (Fraction(1, 100), 1000))
        want = wall_scan(*args)
        inside, products, built, returned = [], [], [], []

        def within(name, fn, out=None):
            def run(*a):
                inside.append(name)
                try:
                    result = fn(*a)
                finally:
                    inside.pop()
                if out is not None:
                    out.append(result)
                return result
            return run

        mul, new = Poly2.__mul__, Fraction.__new__

        def counting_mul(self, other):
            if "norm" in inside:
                products.append(other)
            return mul(self, other)

        def counting_new(cls, *a, **kw):
            if "isolate" in inside:
                built.append(a)
            return new(cls, *a, **kw)

        monkeypatch.setattr(asymptotics, "norm_mod_u", within("norm", poly.norm_mod_u))
        monkeypatch.setattr(asymptotics, "_isolated_roots", within("isolate", poly._isolated_roots, returned))
        monkeypatch.setattr(Poly2, "__mul__", counting_mul)
        monkeypatch.setattr(Poly2, "__rmul__", counting_mul)
        monkeypatch.setattr(Fraction, "__new__", counting_new)
        assert wall_scan(*args) == want
        (roots,) = returned
        assert products == [] and len(roots) >= 2
        assert len(built) == len({id(x) for r in roots for x in (r.lo, r.hi)})


def _pointwise_sign(g, m, n, c, kind, vpar, dd):
    """Sign of the cross value from the charges at rational points alone: at
    both ends of the 2^-64 curve bracket, which must agree."""
    root = solve_u(c, vpar, Fraction(1, 2**64))
    signs = set()
    for u in (root.lo, root.hi):
        if kind is ChargeKind.REDUCED:
            zm, zn = (reduced_charge(g, v, u, vpar) for v in (m, n))
        else:
            omega = DivisorX(u, g.hb_divisor.scale(vpar))
            bfield = DivisorX.pullback(dd if dd is not None else g.zero_divisor())
            zm, zn = (full_charge(g, v, omega, bfield) for v in (m, n))
        val = zm.re * zn.im - zm.im * zn.re
        signs.add((val > 0) - (val < 0))
    assert len(signs) == 1, (vpar, signs)
    return signs.pop()


def _pointwise_walls(sign, vrange, precision, samples):
    """Sign changes on the grid bisected with the given sign function, for
    scans with no zero sample: a reference search that may miss walls but
    reports none that is not one."""
    lo, hi = Fraction(vrange[0]), Fraction(vrange[1])
    grid = [lo + (hi - lo) * k / samples for k in range(samples + 1)]
    signs = [sign(v) for v in grid]
    assert 0 not in signs
    walls = []
    for (a, b), sa, sb in zip(zip(grid, grid[1:]), signs, signs[1:]):
        if sa == sb:
            continue
        while b - a > precision:
            mid = (a + b) / 2
            sm = sign(mid)
            if sm == 0:
                a = b = mid
                break
            a, b = (mid, b) if sm == sa else (a, mid)
        walls.append(RootInterval(a, b))
    return tuple(walls)


def _assert_holds_grid_walls(walls, grid_walls, sign):
    """Every exact wall has opposite signs at its ends (``sign``, the
    pointwise sign; a collapsed wall a zero), and the sign change that each
    grid wall brackets lies in exactly one exact wall: the two brackets
    meet, and where they meet the signs are again opposite.  The brackets
    themselves need not nest, since they are cells of different dyadic
    grids."""
    for w in walls:
        assert sign(w.lo) == 0 if w.exact else sign(w.lo) * sign(w.hi) < 0, w
    for gw in grid_walls:
        met = [w for w in walls if w.lo <= gw.hi and gw.lo <= w.hi]
        assert len(met) == 1, (gw, walls)
        lo, hi = max(gw.lo, met[0].lo), min(gw.hi, met[0].hi)
        assert lo == hi or sign(lo) * sign(hi) < 0, (gw, met[0])


def _reference_cross_poly(g, m, n, kind=ChargeKind.REDUCED, d=None):
    """The cross polynomial as built before its symbolic germ numerators
    were kept on the geometry: rebuilt for each class, and for the full
    kind combined with the full coefficients (``_reference_full_parts``)."""
    usym, vsym = Poly2.u(), Poly2.v()
    if kind is ChargeKind.FULL:
        dd = d if d is not None else g.zero_divisor()
        zm, zn = (_reference_full_parts(g, v, usym, vsym, dd) for v in (m, n))
    else:
        zm, zn = (tuple(ring._divided(*part) for part in
                        charges._reduced_numerators(g, v, charges._germ_numerators(g.h, usym, vsym)))
                  for v in (m, n))
    return zm[0] * zn[1] - zm[1] * zn[0]


def _reference_cross_products(g: BaseGeometry, kind: ChargeKind) -> tuple:
    """``asymptotics._cross_products`` as written before the germ rows were
    kept on the geometry, kept verbatim as its reference: the germs'
    products taken at ``Poly2`` symbols."""
    re, im = charges._reduced_germs(g.h, Poly2.u(), Poly2.v(), kind is ChargeKind.FULL)
    values = [Poly2._ints({(0, 0): 1}, 1), *im]
    for x in re:
        values += [x, *(x * y if x and y else 0 for y in im)]
    live = {k for k, x in enumerate(values) if x}
    den = lcm(*(values[k]._den for k in live))
    terms = sorted(((b - a, a, k, n * (den // values[k]._den)) for k in live
                    for (a, b), n in values[k]._nums.items()), reverse=True)
    minors = [[(3 + j, 4 * i + j, 1) for j in range(4) if 4 * i + j in live] for i in range(3)]
    minors += [[(i, 4 * i + j, -1) for i in range(3) if 4 * i + j in live] for j in range(4)]
    spans = [[b - a for a, b in x._nums] if k in live else None for k, x in enumerate(values)]
    by_parity = ([t for t in terms if t[0] % 2 == 0], [t for t in terms if t[0] % 2])
    return by_parity, (minors, 1, len(values)), [(max(x), min(x)) if x else None for x in spans], den


class TestCrossProducts:
    def test_equal_the_poly2_products(self):
        """The products by integer convolution of the kept germ rows are
        the reference's, tuple for tuple, for both kinds on every lattice
        the table writers are pinned on."""
        for g in table_geometries():
            for kind in (ChargeKind.REDUCED, ChargeKind.FULL):
                assert asymptotics._cross_products(g, kind) == _reference_cross_products(g, kind), (g, kind)

    def test_a_cold_build_makes_one_germ_read(self, monkeypatch):
        """A fresh geometry reads each kind's germs once, at the symbols
        (counted at ``charges._reduced_germs``), and builds no ``Poly2``
        after that read (counted at ``Poly2._store``)."""
        germs, built = [], []
        read, store = charges._reduced_germs, Poly2._store
        monkeypatch.setattr(charges, "_reduced_germs", lambda *a: germs.append(a[-1]) or read(*a))
        monkeypatch.setattr(Poly2, "_store", lambda self, *form: built.append(1) or store(self, *form))
        for g in fresh_geometries():
            for kind in (ChargeKind.REDUCED, ChargeKind.FULL):
                ring._kept(g, charges._germ_rows, kind is ChargeKind.FULL)
                built.clear()
                asymptotics._cross_products(g, kind)
                assert built == []
        assert germs == [False, True] * len(fresh_geometries())


class TestCrossPolynomial:
    """Scans and signs through the cross polynomial equal evaluation of the
    charges point by point."""

    @pytest.mark.parametrize("h", [Fraction(0), Fraction(-1), Fraction(1, 2)])
    @pytest.mark.parametrize("kind", [ChargeKind.REDUCED, ChargeKind.FULL])
    def test_walls_and_signs_match_pointwise(self, h, kind):
        rng = random.Random(f"{h}-{kind.value}")
        g = geometry_for(h)
        precision, samples, vrange = Fraction(1, 2**10), 6, (Fraction(3), Fraction(14))
        walls = 0
        for case in range(10):
            # the first half are pairs whose pointwise signs differ across the range
            for _ in range(200):
                if kind is ChargeKind.REDUCED:
                    a = rng.randint(1, 3)
                    c, dd = TiltCurve(h, a, a + rng.randint(1, 2)), None
                    m, n = _rand_vector(rng, 1), _rand_vector(rng, 1)
                else:
                    y, z = Fraction(rng.randint(1, 2)), Fraction(rng.randint(3, 5))
                    c, dd = OneDimCurve(h, y, z), d(rng.randint(-2, 2))
                    m, n = _rand_onedim_class(rng, g, y, z), _rand_onedim_class(rng, g, y, z)

                def sign(vpar):
                    return _pointwise_sign(g, m, n, c, kind, vpar, dd)

                if case >= 5 or sign(vrange[0]) * sign(vrange[1]) < 0:
                    break
            res = wall_scan(g, m, n, c, kind, vrange, precision, dd)
            assert not res.degenerate
            _assert_holds_grid_walls(res.walls, _pointwise_walls(sign, vrange, precision, samples), sign)
            walls += len(res.walls)
            points = [Fraction(rng.randint(12, 60), rng.randint(1, 4)) for _ in range(3)]
            points += [v for w in res.walls for v in (w.lo, w.hi)]
            for vpar in points:
                assert cross_sign_at(g, m, n, c, kind, vpar, dd) == sign(vpar)
        assert walls >= 5

    @pytest.mark.parametrize("h", [Fraction(-1), Fraction(0), Fraction(1, 2)])
    def test_full_kind_on_classes_of_nonzero_fiber_degree(self, h):
        """The full kind for classes with n != 0 or x != 0, which have no
        flat closed form: the cross polynomial equals the one the ring path
        gives at symbols, and scans and signs equal the pointwise ring path."""
        rng = random.Random(f"nonflat-{h}")
        g = geometry_for(h)
        usym, vsym = Poly2.u(), Poly2.v()
        omega = DivisorX(usym, g.hb_divisor.scale(vsym))
        precision, samples, vrange = Fraction(1, 2**10), 6, (Fraction(3), Fraction(14))
        walls = 0
        for case in range(8):
            for _ in range(200):
                y, z = Fraction(rng.randint(1, 2)), Fraction(rng.randint(3, 5))
                c, dd = OneDimCurve(h, y, z), d(rng.randint(-2, 2))
                m, n = _rand_vector(rng, 1), _rand_vector(rng, 1)
                assert (m.n, m.x) != (0, 0) and (n.n, n.x) != (0, 0)

                def sign(vpar):
                    return _pointwise_sign(g, m, n, c, ChargeKind.FULL, vpar, dd)

                if case >= 4 or sign(vrange[0]) * sign(vrange[1]) < 0:
                    break
            zm, zn = (full_charge(g, v, omega, DivisorX.pullback(dd)) for v in (m, n))
            ring_cross = zm.re * zn.im - zm.im * zn.re
            assert asymptotics._cross_poly(g, m, n, ChargeKind.FULL, dd) == ring_cross
            res = wall_scan(g, m, n, c, ChargeKind.FULL, vrange, precision, dd)
            _assert_holds_grid_walls(res.walls, _pointwise_walls(sign, vrange, precision, samples), sign)
            walls += len(res.walls)
            for vpar in [Fraction(rng.randint(12, 60), rng.randint(1, 4)) for _ in range(3)]:
                assert cross_sign_at(g, m, n, c, ChargeKind.FULL, vpar, dd) == sign(vpar)
        assert walls >= 4

    def test_guard_is_proved_once_per_geometry(self, monkeypatch):
        """The first cross polynomial on a geometry runs the proof of the
        closed form (``charges._proved_closed_form``, one comparison of
        integer matrices) and later ones do not; none makes a ring product
        at symbolic scalars."""
        proofs = []
        original = charges._proved_closed_form
        monkeypatch.setattr(charges, "_proved_closed_form", lambda g: proofs.append(1) or original(g))
        products = count_symbolic_products(monkeypatch)
        rng = random.Random(41)
        for rank, gram, hb in ((1, [[1]], [1]), (2, [[2, 3], [3, -1]], [1, 2])):
            g = BaseGeometry(rank, gram, hb, Fraction(-1, 2), 0, 1)
            m, n, dd = _rand_vector(rng, rank), _rand_vector(rng, rank), _rand_divisor(rng, rank)
            asymptotics._cross_poly(g, m, n, ChargeKind.REDUCED, None)
            assert len(proofs) == 1
            proofs.clear()
            for kind in (ChargeKind.REDUCED, ChargeKind.FULL):
                asymptotics._cross_poly(g, n, m, kind, dd)
                asymptotics._cross_poly(g, m, m.scale(2), kind, None)
            assert proofs == [] and products == []

    def test_a_warm_reduced_cross_polynomial_builds_no_germ(self, monkeypatch):
        self._builds_no_warm_germ(ChargeKind.REDUCED, monkeypatch)

    def test_a_warm_full_cross_polynomial_builds_no_germ(self, monkeypatch):
        self._builds_no_warm_germ(ChargeKind.FULL, monkeypatch)

    def _builds_no_warm_germ(self, kind, monkeypatch):
        """The products of the reduced germs at symbols depend on h alone
        and are kept per geometry (``_cross_products``), and both kinds read
        them: after the first cross polynomial on a geometry no call builds
        a germ (counted at ``charges._reduced_germs``, which the products
        and the ring guard's germ numerators call), and every polynomial
        equals the one built from germs rebuilt per class (for the full
        kind, any class and d)."""
        rng = random.Random(f"warm-{kind.value}")
        built = []
        original = charges._reduced_germs
        for g in fresh_geometries():
            asymptotics._cross_poly(g, _rand_vector(rng, g.rank), _rand_vector(rng, g.rank), kind, None)
            pairs = [(_rand_vector(rng, g.rank), _rand_vector(rng, g.rank), _rand_divisor(rng, g.rank))
                     for _ in range(4)]
            pairs.append((pairs[0][0], pairs[0][0].scale(3), None))
            monkeypatch.setattr(charges, "_reduced_germs", lambda *a, **k: built.append(1) or original(*a, **k))
            got = [asymptotics._cross_poly(g, m, n, kind, dd) for m, n, dd in pairs]
            monkeypatch.undo()
            assert built == []
            want = [_reference_cross_poly(g, m, n, kind, dd) for m, n, dd in pairs]
            assert [(type(x), x) for x in got] == [(type(x), x) for x in want]
        monkeypatch.setattr(charges, "_reduced_germs", lambda *a, **k: built.append(1) or original(*a, **k))
        m, n = _rand_vector(rng, 1), _rand_vector(rng, 1)
        asymptotics._cross_poly(BaseGeometry(1, [[1]], [1], Fraction(-1, 3)), m, n, kind, None)
        assert built == [1, 1]  # the counter sees the cold builds: the ring guard's and the products'

    def test_matches_the_reference_on_every_lattice(self):
        """The integer sum over the kept products equals the cross of the
        charges built at symbols, in ``_nums``, ``_den`` and type: both
        kinds on fresh lattices (h = 0 among them, ranks 1 and 2) and on
        diag(1, -1), for zero, proportional and flat partners, full-kind
        classes with n, x != 0, and random d."""
        rng = random.Random(44)
        nonflat = 0
        for g in fresh_geometries() + signature_geometries()[2:]:
            zero = ChernVector.zero(g.rank)
            for kind in ChargeKind:
                for _ in range(6):
                    m, n = _rand_vector(rng, g.rank), _rand_vector(rng, g.rank)
                    flat = ChernVector._ints([0, 0, *n._nums[2:]], n._den)
                    dd = _rand_divisor(rng, g.rank, -3, 3) if rng.random() < 0.8 else None
                    for a, b in ((m, n), (m, flat), (zero, m), (m, m.scale(Fraction(-2, 3)))):
                        got = asymptotics._cross_poly(g, a, b, kind, dd)
                        want = _reference_cross_poly(g, a, b, kind, dd)
                        assert (type(got), got._nums, got._den) == (type(want), want._nums, want._den)
                    nonflat += kind is ChargeKind.FULL and m.n != 0 and m.x != 0
        assert nonflat >= 20

    def test_a_warm_cross_polynomial_multiplies_no_poly2(self, monkeypatch):
        """After the first cross polynomial on a geometry, either kind is one
        integer sum over the kept products, with no ``Poly2`` product
        (counted at ``Poly2.__mul__`` and ``__rmul__``); the counter sees
        the cold build's."""
        rng = random.Random(45)
        products = []
        original = Poly2.__mul__

        def counted(self, other):
            products.append(1)
            return original(self, other)

        def count():
            monkeypatch.setattr(Poly2, "__mul__", counted)
            monkeypatch.setattr(Poly2, "__rmul__", counted)

        for g in fresh_geometries():
            asymptotics._cross_poly(g, _rand_vector(rng, g.rank), _rand_vector(rng, g.rank), ChargeKind.REDUCED, None)
            count()
            for kind in ChargeKind:
                for dd in (None, _rand_divisor(rng, g.rank)):
                    asymptotics._cross_poly(g, _rand_vector(rng, g.rank), _rand_vector(rng, g.rank), kind, dd)
            monkeypatch.undo()
        assert products == []
        m = _rand_vector(rng, 1)
        count()
        asymptotics._cross_poly(BaseGeometry(1, [[1]], [1], Fraction(-1, 3)), m, m.scale(2), ChargeKind.FULL, None)
        assert products

    def test_a_class_that_is_not_rational_is_refused(self, g1):
        """``cross_sign_at`` and ``wall_scan`` refuse a class with a ``Poly2``
        coordinate, as every germ verdict does, before any cross is built."""
        m, n, c = cv(Poly2.u(), 0, d(0), d(1), 0, 0), cv(0, 1, d(1), d(0), 1, 0), TiltCurve(-1, 1, 2)
        for kind in ChargeKind:
            with pytest.raises(DomainError, match="rational class"):
                cross_sign_at(g1, m, n, c, kind, Fraction(3))
            with pytest.raises(DomainError, match="rational class"):
                wall_scan(g1, n, m, c, kind, (Fraction(1, 2), 5))

    def test_signs_and_scans_match_germs_rebuilt_per_class(self, monkeypatch):
        self._match_germs_rebuilt_per_class(ChargeKind.REDUCED, monkeypatch)

    def test_full_signs_and_scans_match_germs_rebuilt_per_class(self, monkeypatch):
        self._match_germs_rebuilt_per_class(ChargeKind.FULL, monkeypatch)

    def _match_germs_rebuilt_per_class(self, kind, monkeypatch):
        """``cross_sign_at`` and ``wall_scan`` on random pairs give what
        they gave with the germs rebuilt for each class (reduced pairs on
        tilt curves; full pairs of one-dimensional classes on their curves,
        with a random d)."""
        rng = random.Random(f"rebuilt-{kind.value}")
        cases = []
        for h in (Fraction(-1), Fraction(0), Fraction(1, 2)):
            for rank2 in (False, True):
                g = geometry_for(h, rank2)
                for _ in range(3):
                    points = [Fraction(rng.randint(3, 40), rng.randint(1, 3)) for _ in range(3)]
                    if kind is ChargeKind.REDUCED:
                        a = rng.randint(1, 3)
                        c, dd = TiltCurve(h, a, a + rng.randint(1, 2)), None
                        m, n = _rand_vector(rng, g.rank), _rand_vector(rng, g.rank)
                    else:
                        y, z = Fraction(rng.randint(1, 2)), Fraction(rng.randint(3, 5))
                        c, dd = OneDimCurve(h, y, z), _rand_divisor(rng, g.rank, -2, 2)
                        m, n = _rand_onedim_class(rng, g, y, z), _rand_onedim_class(rng, g, y, z)
                    cases.append((g, m, n, c, dd, points))

        def run():
            return [(wall_scan(g, m, n, c, kind, (3, 14), Fraction(1, 2**10), dd),
                     [cross_sign_at(g, m, n, c, kind, vpar, dd) for vpar in points])
                    for g, m, n, c, dd, points in cases]

        got = run()
        monkeypatch.setattr(asymptotics, "_cross_poly", _reference_cross_poly)
        assert run() == got
        assert {s for _, signs in got for s in signs} == {-1, 1}
        assert kind is ChargeKind.FULL or sum(len(scan.walls) for scan, _ in got) >= 1

    def test_guard_catches_a_perturbed_closed_form(self, monkeypatch):
        """A wrong class coefficient in the reduced closed form makes the
        first cross polynomial on a fresh geometry raise, for either kind
        (re's coefficient on the x germ, H^2 x / 2, written with one x more)."""
        monkeypatch.setattr(charges, "_reduced_table", _with_entry(charges._reduced_table, 1, 1))
        m, n = cv(1, 0, d(1), d(0), 0, 0), cv(0, 0, d(0), d(1), 1, 0)
        for kind in (ChargeKind.REDUCED, ChargeKind.FULL):
            g = BaseGeometry(1, [[1]], [1], -1)
            with pytest.raises(ComputationFault):
                asymptotics._cross_poly(g, m, n, kind, d(0))

    def test_exact_zero_sign(self, g0):
        # at h = 0 the curve point over v is u = 1/v and the cross value
        # vanishes at v = 2, which the scan's one wall holds
        c0 = OneDimCurve(0, 1, 1)
        m = cv(0, 0, d(1), d(1), 1, 0)
        n = cv(0, 0, d(1), d(1), -4, 1)
        signs = [cross_sign_at(g0, m, n, c0, ChargeKind.FULL, v, d(0)) for v in (1, 2, 3)]
        assert signs == [-1, 0, 1]
        assert signs == [_pointwise_sign(g0, m, n, c0, ChargeKind.FULL, v, d(0)) for v in (1, 2, 3)]
        res = wall_scan(g0, m, n, c0, ChargeKind.FULL, (1, 3), Fraction(1, 2**10), d(0))
        assert len(res.walls) == 1 and 2 in res.walls[0]


class TestCrossSignExact:
    def test_sign_at_an_algebraic_point(self):
        """The Sturm-Tarski query gives the sign the point charges give at
        both ends of the curve bracket."""
        g = geometry_for(-1)
        c = OneDimCurve(-1, 1, 2)
        m = cv(0, 0, d(1), d(1), 1, 0)
        n = cv(0, 0, d(1), d(2), 5, -1)
        assert not solve_u(c, Fraction(3), Fraction(1, 2**64)).exact
        assert cross_sign_at(g, m, n, c, ChargeKind.FULL, Fraction(3), d(0)) == 1
        assert _pointwise_sign(g, m, n, c, ChargeKind.FULL, Fraction(3), d(0)) == 1

    @pytest.mark.parametrize("h", [Fraction(-1), Fraction(1, 2)])
    def test_proportional_pair_is_zero_at_algebraic_points(self, h):
        g = geometry_for(h)
        c = TiltCurve(h, 1, 2)
        m = cv(1, Fraction(1, 2), d(2), d(-1), 3, Fraction(1, 3))
        for vpar in (Fraction(3), Fraction(7, 2), Fraction(40)):
            assert not solve_u(c, vpar, Fraction(1, 2**64)).exact
            assert cross_sign_at(g, m, m.scale(-3), c, ChargeKind.REDUCED, vpar) == 0


    def test_a_kind_that_is_not_a_charge_kind_is_refused(self, g1):
        """Every kind but ``ChargeKind.REDUCED`` used to be taken as the full
        charge, so "reduced" gave the full charge's sign."""
        m, n, c = cv(1, 0, d(0), d(1), 0, 0), cv(0, 1, d(1), d(0), 1, 0), TiltCurve(-1, 1, 2)
        for kind in ("reduced", "bogus"):
            with pytest.raises(DomainError, match=f"unknown charge kind {kind}"):
                cross_sign_at(g1, m, n, c, kind, Fraction(3))
            with pytest.raises(DomainError, match=f"unknown charge kind {kind}"):
                wall_scan(g1, m, n, c, kind, (Fraction(1, 2), 5))


def test_cross_sign_builds_no_fraction_but_the_bracket_end(monkeypatch):
    """A cross sign at a curve point with an inexact bracket runs in
    integers: the cross polynomial at v, the curve polynomial's Cauchy
    bound and the Sturm-Tarski chain.  The one Fraction built in poly,
    asymptotics or ring (whose ``_IntegerForm`` holds the polynomial
    arithmetic) is that bound, the upper end of the bracket that
    ``admissible_bracket`` hands out."""
    rng = random.Random(81)
    cases = []
    for h in (Fraction(-1), Fraction(1, 2), Fraction(-2)):
        g = geometry_for(h)
        for _ in range(3):
            c = _rand_tilt(rng, h)
            cross = asymptotics._cross_poly(g, _rand_vector(rng, 1), _rand_vector(rng, 1),
                                            ChargeKind.REDUCED, None)
            for vpar in (Fraction(rng.randint(2, 40)), Fraction(rng.randint(5, 90), 8)):
                bracket = admissible_bracket(c, vpar)[1]
                assert not bracket.exact
                cases.append((cross, c, vpar, bracket.hi, asymptotics._cross_sign(cross, c, vpar)))
    built = []

    def counting(*args, **kwargs):
        built.append(Fraction(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(poly, "Fraction", counting)
    monkeypatch.setattr(asymptotics, "Fraction", counting)
    monkeypatch.setattr(ring, "Fraction", counting)
    for cross, c, vpar, hi, sign in cases:
        built.clear()
        assert asymptotics._cross_sign(cross, c, vpar) == sign
        assert built == [hi]
