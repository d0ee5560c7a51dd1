"""Series charges, phase limits, the comparator, and wall scanning."""

import itertools
import random
from fractions import Fraction

import pytest

from ellstab import asymptotics
from ellstab.asymptotics import (
    ChargeKind,
    OrderKind,
    PhaseOrder,
    Side,
    charge_series,
    compare_phases,
    compare_vectors,
    cross_series,
    cross_sign_at,
    phase_limit,
    wall_scan,
)
from ellstab.curves import OneDimCurve, TiltCurve, expand_u, solve_u
from ellstab.errors import ConfigurationError, DomainError
from ellstab.fmt import phi
from ellstab.poly import RootInterval
from ellstab.ring import ChernVector, pair, pair_h
from ellstab.series import LaurentSeries
from ellstab.suites import (
    geometry_for,
    phase_table_cases,
    _rand_divisor,
    _rand_onedim_class,
    _rand_tilt,
    _rand_vector,
)

from conftest import cv, d


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
    hS = pair_h(g, v.S)
    heta = pair_h(g, v.eta)
    re = LaurentSeries.const(-(v.s - pair(g, d, v.eta))) + u * (h * u + 2 * vv) * Fraction(hS, 2)
    im = h * u * heta + u * (v.a - pair(g, d, v.S)) + vv * heta
    return re, im


class TestChargeSeries:
    def test_reduced_theta_leading_term(self, g0):
        c = TiltCurve(0, 1, 2)
        ac = charge_series(g0, cv(0, 1, d(0), d(0), 0, 0), c, ChargeKind.REDUCED, 8)
        assert ac.re.terms == ((2, Fraction(1, 2)),)
        assert ac.im.is_stored_zero()

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
        equal those of the separately written series expressions."""
        rng = random.Random(17)
        grid = itertools.product(
            (Fraction(-1), Fraction(0), Fraction(1, 2)),
            (False, True),
            (1, 8, 16),
            (ChargeKind.REDUCED, ChargeKind.FULL),
            (False, True),
            (True, False),
        )
        for h, rank2, order, kind, with_d, tilt in grid:
            g = geometry_for(h, rank2)
            c = _rand_tilt(rng, h) if tilt else OneDimCurve(h, 1, rng.randint(2, 9))
            dd = _rand_divisor(rng, g.rank, -4, 4) if with_d else None
            v = _rand_vector(rng, g.rank)
            if kind is ChargeKind.FULL:
                v = ChernVector(0, 0, v.S, v.eta, v.a, v.s)
            ac = charge_series(g, v, c, kind, order, dd)
            re, im = _reference_charge_series(g, v, c, kind, order, dd)
            for got, want in ((ac.re, re), (ac.im, im)):
                assert got.terms == want.terms
                assert got.trunc == want.trunc
                assert all(type(cf) is Fraction for _, cf in got.terms)


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
        floor = cross_series(ac, ac).trunc
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


class TestWallScan:
    def test_proportional_is_degenerate(self, g0):
        c0 = OneDimCurve(0, 1, 1)
        m = cv(0, 0, d(1), d(1), 1, 0)
        res = wall_scan(g0, m, m.scale(2), c0, ChargeKind.FULL, (1, 10), Fraction(1, 2**10), d(0), 16)
        assert res.degenerate and res.walls == ()

    def test_single_constructed_crossing(self, g0):
        c0 = OneDimCurve(0, 1, 1)
        m = cv(0, 0, d(1), d(1), 1, 0)
        n = cv(0, 0, d(1), d(1), 5, -1)
        res = wall_scan(g0, m, n, c0, ChargeKind.FULL, (1, 10), Fraction(1, 2**12), d(0), 32)
        assert not res.degenerate
        assert len(res.walls) == 1
        w = res.walls[0]
        # crossing sits at v = sqrt(3)
        assert w.lo * w.lo <= 3 <= w.hi * w.hi

    def test_no_crossing(self, g0):
        c0 = OneDimCurve(0, 1, 1)
        m = cv(0, 0, d(1), d(1), 1, 0)
        n = cv(0, 0, d(1), d(1), 2, -1)
        res = wall_scan(g0, m, n, c0, ChargeKind.FULL, (1, 4), Fraction(1, 2**10), d(0), 16)
        # here the cross value is -v: one fixed sign, no walls
        signs = {cross_sign_at(g0, m, n, c0, ChargeKind.FULL, vv, d(0)) for vv in (2, 3, 4)}
        assert signs == {-1}
        assert res.walls == ()
        assert not res.degenerate


def _pointwise_sign(g, m, n, c, kind, vpar, dd):
    """Sign of the cross value from the charges at rational points alone: at
    both ends of the 2^-64 curve bracket, which must agree."""
    root = solve_u(c, vpar, Fraction(1, 2**64))
    signs = set()
    for u in (root.lo, root.hi):
        zm = asymptotics._charge_at_point(g, m, kind, u, vpar, dd)
        zn = asymptotics._charge_at_point(g, n, kind, u, vpar, dd)
        val = zm.re * zn.im - zm.im * zn.re
        signs.add((val > 0) - (val < 0))
    assert len(signs) == 1, (vpar, signs)
    return signs.pop()


def _pointwise_walls(sign, vrange, precision, samples):
    """Sign changes on the grid bisected with the given sign function, for
    scans with no zero sample."""
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
            res = wall_scan(g, m, n, c, kind, vrange, precision, dd, samples)
            assert not res.degenerate
            assert res.walls == _pointwise_walls(sign, vrange, precision, samples)
            walls += len(res.walls)
            points = [Fraction(rng.randint(12, 60), rng.randint(1, 4)) for _ in range(3)]
            points += [v for w in res.walls for v in (w.lo, w.hi)]
            for vpar in points:
                assert cross_sign_at(g, m, n, c, kind, vpar, dd) == sign(vpar)
        assert walls >= 5

    def test_exact_zero_sign(self, g0):
        # at h = 0 the curve point over v is u = 1/v and the cross value
        # vanishes at v = 2, where the scan reports a collapsed wall
        c0 = OneDimCurve(0, 1, 1)
        m = cv(0, 0, d(1), d(1), 1, 0)
        n = cv(0, 0, d(1), d(1), -4, 1)
        signs = [cross_sign_at(g0, m, n, c0, ChargeKind.FULL, v, d(0)) for v in (1, 2, 3)]
        assert signs == [-1, 0, 1]
        assert signs == [_pointwise_sign(g0, m, n, c0, ChargeKind.FULL, v, d(0)) for v in (1, 2, 3)]
        res = wall_scan(g0, m, n, c0, ChargeKind.FULL, (1, 3), Fraction(1, 2**10), d(0), 4)
        assert res.walls == (RootInterval(Fraction(2), Fraction(2)),)


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
