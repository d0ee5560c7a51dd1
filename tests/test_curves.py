"""Constraint curves: polynomials, roots, expansions, the cycle identity."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ellstab.curves import (
    OneDimCurve,
    TiltCurve,
    chow_identity_check,
    chow_identity_symbolic_remainder,
    _eval_poly2_series,
    constraint_poly,
    expand_u,
    solve_u,
)
from ellstab.errors import ComputationFault, ConfigurationError, CurveDomainError
from ellstab.poly import Poly1, Poly2, RootInterval, isolate_positive_roots
from ellstab.series import LaurentSeries
from ellstab.suites import geometry_for, _rand_tilt


def expansion_residual(c, order: int) -> LaurentSeries:
    """Residual of the order-``order`` expansion inside the curve polynomial."""
    return _eval_poly2_series(constraint_poly(c), expand_u(c, order))


class TestConstraintPoly:
    def test_tilt_h0_reduces_to_uv_eq_ratio(self):
        c = TiltCurve(0, 1, 2)
        p = constraint_poly(c)
        rng = random.Random(1)
        for _ in range(50):
            u = Fraction(rng.randint(1, 40), rng.randint(1, 10))
            v = Fraction(rng.randint(1, 40), rng.randint(1, 10))
            assert (p.eval(u, v) == 0) == (u * v == 2)

    def test_onedim_h0(self):
        c = OneDimCurve(0, 1, 1)
        p = constraint_poly(c)
        assert p.eval(Fraction(1, 3), 3) == 0
        assert p.eval(1, 2) == 1

    def test_tilt_cubic_example(self):
        c = TiltCurve(-1, 1, 2)
        p = constraint_poly(c).eval_v(2)
        reference = Poly1([-4, 14, -6, 1]) * Fraction(1, 2)
        assert p == reference

    def test_invariants_enforced(self):
        with pytest.raises(ConfigurationError):
            TiltCurve(-2, 1, 1)  # ha + 2b = 0
        with pytest.raises(ConfigurationError):
            TiltCurve(-1, 1, 0)
        with pytest.raises(ConfigurationError):
            OneDimCurve(-1, 2, 1)  # h + z/y < 0


class TestSolveU:
    def test_tilt_h0_exact(self):
        root = solve_u(TiltCurve(0, 1, 2), 4, Fraction(1, 2**20))
        assert root.exact and root.lo == Fraction(1, 2)

    def test_onedim_h0_exact(self):
        root = solve_u(OneDimCurve(0, 1, 3), 6, Fraction(1, 2**20))
        assert root.exact and root.lo == Fraction(1, 2)

    def test_tilt_cubic_bracket(self):
        c = TiltCurve(-1, 1, 2)
        root = solve_u(c, 2, Fraction(1, 2**64))
        assert root.width <= Fraction(1, 2**64)
        assert 0 < root.lo and root.hi < 1
        p = constraint_poly(c).eval_v(2)
        assert p(root.lo) * p(root.hi) < 0

    def test_onedim_closed_form_agreement(self):
        # u = (-v + sqrt(v^2 + 2hq)) / h: check (h u + v)^2 = v^2 + 2 h q.
        # For h < 0 the curve has two positive roots here; only the admissible
        # one has h u + v = sqrt(v^2 + 2hq) > 0.
        vpar = Fraction(5)
        for c, count in ((OneDimCurve(Fraction(1, 2), 1, 1), 1), (OneDimCurve(-1, 1, 2), 2)):
            roots = isolate_positive_roots(constraint_poly(c).eval_v(vpar), Fraction(1, 2**40))
            assert len(roots) == count
            root = solve_u(c, vpar, Fraction(1, 2**40))
            target = vpar * vpar + 2 * c.h * c.q
            vals = sorted(((c.h * e + vpar) ** 2 for e in (root.lo, root.hi)))
            assert vals[0] <= target <= vals[1]
            assert all(c.h * e + vpar > 0 for e in (root.lo, root.hi))

    def test_onedim_negative_h_no_root(self):
        c = OneDimCurve(-1, 1, 2)  # q = 1; discriminant v^2 - 2 < 0 at v = 1
        with pytest.raises(CurveDomainError):
            solve_u(c, 1, Fraction(1, 2**20))

    def test_random_brackets_contain_sign_change(self):
        rng = random.Random(2)
        precision = Fraction(1, 2**32)
        for i in range(1000):
            h = [Fraction(-1), Fraction(1, 2), Fraction(-2), Fraction(1, 3)][i % 4]
            c = _rand_tilt(rng, h)
            for vpar in (Fraction(10), Fraction(1000)):
                root = solve_u(c, vpar, precision)
                p = constraint_poly(c).eval_v(vpar)
                if root.exact:
                    assert p(root.lo) == 0
                else:
                    assert root.width <= precision
                    assert p(root.lo) * p(root.hi) < 0

    @settings(max_examples=200, deadline=None)
    @given(
        h=st.sampled_from([Fraction(n, d) for n, d in ((-2, 1), (-1, 1), (-1, 2), (1, 3), (1, 2), (2, 1))]),
        a=st.fractions(min_value=Fraction(1, 8), max_value=8, max_denominator=8),
        b=st.fractions(min_value=Fraction(1, 8), max_value=8, max_denominator=8),
        vpar=st.fractions(min_value=Fraction(1, 9), max_value=200, max_denominator=9),
    )
    def test_tilt_curve_has_one_positive_root(self, h, a, b, vpar):
        # the proof in solve_u: w = hu + v gives w^3 - (6h beta/alpha) w = v^3,
        # which has exactly one solution on the side of v that u > 0 selects
        assume(h * a + 2 * b > 0 and h * a + b != 0)
        p = constraint_poly(TiltCurve(h, a, b)).eval_v(vpar)
        assert len(isolate_positive_roots(p, Fraction(1, 2**16))) == 1

    def test_branch_tracks_leading_coefficient(self):
        c = TiltCurve(-1, 1, 2)
        u1 = c.leading_coefficient
        for vpar, rel in ((Fraction(1000), Fraction(1, 100)), (Fraction(10**6), Fraction(1, 10**5))):
            root = solve_u(c, vpar, Fraction(1, 2**64))
            assert abs(root.midpoint * vpar - u1) <= rel * u1


class TestExpandU:
    def test_tilt_h0_is_exact_single_term(self):
        series = expand_u(TiltCurve(0, 1, 2), 8)
        assert series.terms == ((-1, Fraction(2)),)
        assert series.is_exact()

    def test_tilt_leading_coefficient(self):
        series = expand_u(TiltCurve(-1, 1, 2), 8)
        assert series.coefficient(-1) == Fraction(2, 3)

    def test_onedim_example(self):
        series = expand_u(OneDimCurve(-1, 1, 2), 8)
        assert series.coefficient(-1) == 1
        assert series.coefficient(-2) == 0
        assert series.coefficient(-3) == Fraction(1, 2)

    def test_odd_exponents_only(self):
        rng = random.Random(3)
        for h in (Fraction(-1), Fraction(1, 2)):
            for _ in range(10):
                c = _rand_tilt(rng, h)
                series = expand_u(c, 10)
                assert all(e % 2 == 1 for e, _ in series.terms)

    def test_residual_vanishes_through_truncation(self):
        for order in (8, 16):
            res_t = expansion_residual(TiltCurve(-1, 1, 2), order)
            assert res_t.is_stored_zero()
            assert res_t.trunc <= 2 - order
            res_o = expansion_residual(OneDimCurve(-1, 1, 2), order)
            assert res_o.is_stored_zero()
            assert res_o.trunc <= 1 - order

    def test_series_matches_solver_numerically(self):
        c = TiltCurve(-1, 1, 2)
        series = expand_u(c, 8)
        vpar = Fraction(10**6)
        root = solve_u(c, vpar, Fraction(1, 2**128))
        approx = series.eval(vpar)
        assert abs(approx - root.midpoint) < Fraction(1, 10**30)


def _reference_expand_u(c, order):
    """The reversion as first written: an exact working series, the
    derivative re-evaluated at every step and products through powers of u."""
    poly = constraint_poly(c)
    dpoly = Poly2.from_ucoefficients(
        [(k + 1) * poly.ucoefficient(k + 1) for k in range(poly.udegree())]
    )
    u = LaurentSeries.monomial(-1, c.leading_coefficient)
    while True:
        residual = _reference_eval(poly, u)
        if residual.is_stored_zero() and residual.is_exact():
            return u
        lead = residual.leading()
        if lead is None:
            raise ComputationFault("reversion stalled with an inexact zero residual")
        deriv_lead = _reference_eval(dpoly, u).leading()
        if deriv_lead is None:
            raise ComputationFault("degenerate curve: derivative vanishes along the expansion")
        exp = lead[0] - deriv_lead[0]
        if exp < -order:
            return u.truncate(-order)
        u = u + LaurentSeries.monomial(exp, -lead[1] / deriv_lead[1])


def _reference_eval(p, u):
    powers = {0: LaurentSeries.const(1)}
    max_u = p.udegree()
    for k in range(1, max_u + 1):
        powers[k] = powers[k - 1] * u
    total = LaurentSeries.zero()
    for (i, j), coeff in p.terms.items():
        total = total + powers[i] * LaurentSeries.monomial(j, coeff)
    return total


REFERENCE_H = (Fraction(-2), Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(3))


def _rand_onedim(rng, h):
    while True:
        y = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        z = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        if h + z / y > 0:
            return OneDimCurve(h, y, z)


def _reference_curves(seed):
    rng = random.Random(seed)
    for h in REFERENCE_H:
        yield _rand_tilt(rng, h)
        yield _rand_onedim(rng, h)


def _same_series(x, y):
    return (
        x.terms == y.terms
        and x.trunc == y.trunc
        and all(type(cx) is Fraction and type(cy) is Fraction for (_, cx), (_, cy) in zip(x.terms, y.terms))
    )


class TestExpandUReference:
    """The floor-aware Horner reversion returns the first-written reversion's
    series: the same terms, Fraction coefficients and floor."""

    def test_expand_u_matches_reference(self):
        for c in _reference_curves(11):
            for order in range(1, 25):
                assert _same_series(expand_u(c, order), _reference_expand_u(c, order)), (c, order)

    def test_expansion_residual_matches_reference(self):
        for c in _reference_curves(12):
            for order in (1, 8, 16):
                expected = _reference_eval(constraint_poly(c), _reference_expand_u(c, order))
                got = expansion_residual(c, order)
                assert got.terms == expected.terms and got.trunc == expected.trunc, (c, order)

    def test_h0_expansion_is_exact_and_solves_the_curve(self):
        for c in (TiltCurve(0, 3, Fraction(5, 2)), OneDimCurve(0, Fraction(2, 3), 7)):
            for k in (1, 2, 8, 16):
                series = expand_u(c, k)
                assert series.is_exact()
                assert series.terms == ((-1, c.leading_coefficient),)
                for vpar in (Fraction(1, 3), Fraction(1), Fraction(7, 2), Fraction(10**6)):
                    root = solve_u(c, vpar, Fraction(1, 2**64))
                    assert root.lo == root.hi == series.eval(vpar)

    def test_nonzero_h_series_never_terminates(self):
        rng = random.Random(13)
        for _ in range(20):
            h = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
            order = rng.randint(1, 20)
            for c in (_rand_tilt(rng, h), _rand_onedim(rng, h)):
                assert expand_u(c, order).trunc == -order, (c, order)


class TestChowIdentity:
    def test_on_and_off_curve_rational(self):
        g = geometry_for(0)
        c = TiltCurve(0, 1, 2)
        assert chow_identity_check(g, c, Fraction(1, 2), 4)
        assert not chow_identity_check(g, c, Fraction(1, 2), 5)

    def test_matches_constraint_poly_zero_set(self):
        rng = random.Random(4)
        g = geometry_for(0)
        for _ in range(100):
            c = _rand_tilt(rng, Fraction(0))
            u = Fraction(rng.randint(1, 30), rng.randint(1, 8))
            v = Fraction(rng.randint(1, 30), rng.randint(1, 8))
            assert chow_identity_check(g, c, u, v) == (constraint_poly(c).eval(u, v) == 0)

    def test_symbolic_remainder_zero(self):
        rng = random.Random(5)
        for h in (Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(-2)):
            g = geometry_for(h)
            for _ in range(6):
                c = _rand_tilt(rng, h)
                rems = chow_identity_symbolic_remainder(g, c)
                assert all(r.is_zero() for r in rems)

    def test_algebraic_point_within_tolerance(self):
        g = geometry_for(-1)
        c = TiltCurve(-1, 1, 2)
        root = solve_u(c, 9, Fraction(1, 2**128))
        assert chow_identity_check(g, c, root, 9)

    @pytest.mark.parametrize("rank2", [False, True])
    @pytest.mark.parametrize("h", [Fraction(-1), Fraction(1, 2)], ids=["h=-1", "h=1/2"])
    def test_algebraic_point_wide_bracket(self, h, rank2):
        # the identity is decided exactly, so a coarse isolating bracket suffices
        g = geometry_for(h, rank2)
        rng = random.Random(7)
        for _ in range(5):
            c = _rand_tilt(rng, h)
            vpar = Fraction(rng.randint(2, 30))
            root = solve_u(c, vpar, Fraction(1, 2**8))
            assert not root.exact
            assert chow_identity_check(g, c, root, vpar)

    @pytest.mark.parametrize("rank2", [False, True])
    def test_bracket_must_isolate_a_root(self, rank2):
        # the v = 9 bracket holds no root of the v = 10 polynomial, so an
        # exact query without the isolation check would vacuously report a
        # vanishing difference at a point that is not on the curve
        g = geometry_for(-1, rank2)
        c = TiltCurve(-1, 1, 2)
        root = solve_u(c, 9, Fraction(1, 2**64))
        with pytest.raises(CurveDomainError):
            chow_identity_check(g, c, root, 10)
        # a bracket whose end is itself a root is refused as well
        bracket = RootInterval(Fraction(1, 2), Fraction(1))
        with pytest.raises(CurveDomainError):
            chow_identity_check(geometry_for(0, rank2), TiltCurve(0, 1, 2), bracket, 4)
