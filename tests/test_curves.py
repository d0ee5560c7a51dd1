"""Constraint curves: polynomials, roots, expansions, the cycle identity."""

import dataclasses
import random
from fractions import Fraction
from math import factorial, lcm, prod

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ellstab import curves, poly, ring, series
from ellstab.curves import (
    OneDimCurve,
    TiltCurve,
    _fixed_cycles,
    _symbolic_difference_parts,
    admissible_bracket,
    chow_identity_check,
    chow_identity_symbolic_remainder,
    constraint_poly,
    expand_u,
    solve_u,
)
from ellstab.errors import ComputationFault, ConfigurationError, CurveDomainError
from ellstab.poly import Poly1, Poly2, RootInterval, count_roots, isolate_positive_roots
from ellstab.ring import ChernVector, DivisorX, divisor_vector, mul
from ellstab.series import LaurentSeries
from ellstab.suites import geometry_for, _rand_tilt

from conftest import fresh_geometries, truncate
from test_charges import _typed
from test_poly import _reference_add, _reference_divmod, _reference_mul, _reference_sign_at_root
from test_poly2 import _ucoefficient
from test_ring import fractional_geometries


def _eval_poly2_series(p: Poly2, u: LaurentSeries) -> LaurentSeries:
    """Evaluate a (u, v)-polynomial at u = series, v = the series variable,
    by Horner's rule in u over the rows p_k(v) of p = sum_k p_k(v) u^k."""
    rows: dict[int, dict[int, Fraction]] = {}
    for (i, j), coeff in p.terms.items():
        rows.setdefault(i, {})[j] = coeff
    total = LaurentSeries.zero()
    for k in range(p.udegree(), -1, -1):
        total = total * u + LaurentSeries(rows.get(k, {}).items())
    return total


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
        assert root.hi - root.lo <= Fraction(1, 2**64)
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

    def test_onedim_double_root(self):
        # v^2 + 2hq = 0 at v = 1: the curve polynomial -(u - 1)^2 / 2 is not squarefree
        c = OneDimCurve(-1, 2, 3)
        assert constraint_poly(c).eval_v(1) == Poly1([-1, 2, -1]) * Fraction(1, 2)
        assert solve_u(c, 1, Fraction(1, 2**64)) == RootInterval(Fraction(1), Fraction(1))

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
                    assert root.hi - root.lo <= precision
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
            assert abs((root.lo + root.hi) / 2 * vpar - u1) <= rel * u1


def _reference_solve_u(c, vpar, precision):
    """solve_u as first written: isolate every positive root of the curve
    polynomial to the given width and keep the smallest."""
    vpar = Fraction(vpar)
    if c.h == 0:
        root = c.leading_coefficient / vpar
        return RootInterval(root, root)
    roots = isolate_positive_roots(constraint_poly(c).eval_v(vpar), precision)
    if not roots:
        raise CurveDomainError(f"no positive root on the curve at vpar = {vpar}")
    return roots[0]


def _certified(p, root, precision):
    """A collapsed bracket at a root, or a sign change no wider than precision."""
    if root.exact:
        return p(root.lo) == 0
    return root.hi - root.lo <= precision and p(root.lo) * p(root.hi) < 0


class TestSolveUReference:
    """The closed-form bracket plus one bisection against the isolation of
    every positive root: identical brackets wherever the isolation's first
    bracket is the Cauchy bound's, and a certified bracket of the same root
    on the one-dimensional curve with h < 0."""

    def test_random_cases(self):
        rng = random.Random(41)
        same = moved = no_root = 0
        for i in range(1200):
            h = Fraction(rng.choice((-1, 0, 1, 1, -1)) * rng.randint(1, 9), rng.randint(1, 4))
            c = _rand_tilt(rng, h) if i % 2 else _rand_onedim(rng, h)
            vpar = Fraction(rng.randint(1, 400), rng.randint(1, 9))
            precision = Fraction(1, 2 ** rng.choice((1, 8, 32, 64, 128)))
            p = constraint_poly(c).eval_v(vpar)
            if isinstance(c, OneDimCurve) and h < 0 and vpar * vpar + 2 * h * c.q < 0:
                for solve in (solve_u, _reference_solve_u):
                    with pytest.raises(CurveDomainError):
                        solve(c, vpar, precision)
                no_root += 1
                continue
            got, want = solve_u(c, vpar, precision), _reference_solve_u(c, vpar, precision)
            if isinstance(c, TiltCurve) or h >= 0:
                assert got == want, (c, vpar, precision)
                same += 1
                continue
            assert max(got.lo, want.lo) <= min(got.hi, want.hi), (c, vpar, got, want)
            assert _certified(p, got, precision), (c, vpar, got)
            moved += 1
        assert same >= 800 and moved >= 150 and no_root >= 10, (same, moved, no_root)

    def test_bracket_isolates_the_admissible_root(self):
        rng = random.Random(42)
        for i in range(400):
            h = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
            c = _rand_tilt(rng, h) if i % 2 else _rand_onedim(rng, h)
            vpar = Fraction(rng.randint(1, 400), rng.randint(1, 9))
            if isinstance(c, OneDimCurve) and vpar * vpar + 2 * h * c.q < 0:
                continue
            p, bracket = admissible_bracket(c, vpar)
            assert p == constraint_poly(c).eval_v(vpar)
            smallest = _reference_solve_u(c, vpar, Fraction(1, 2**64))
            if bracket.exact:
                assert smallest == bracket
                continue
            assert p(bracket.lo) != 0 and p(bracket.hi) != 0
            assert count_roots(p, bracket.lo, bracket.hi) == 1
            assert bracket.lo <= smallest.lo and smallest.hi <= bracket.hi

    def test_onedim_discriminant_zero_and_just_above(self):
        # q = 1 at (h, y, z) = (-2, 1, 3): v^2 + 2hq = v^2 - 4, a double root at v = 2
        c = OneDimCurve(-2, 1, 3)
        assert solve_u(c, 2, Fraction(1, 2**64)) == RootInterval(Fraction(1), Fraction(1))
        assert admissible_bracket(c, 2)[1] == RootInterval(Fraction(1), Fraction(1))
        with pytest.raises(CurveDomainError):
            solve_u(c, 2 - Fraction(1, 2**60), Fraction(1, 2**64))
        for k in (1, 8, 30, 60, 100):
            vpar = 2 + Fraction(1, 2**k)
            p, bracket = admissible_bracket(c, vpar)
            assert bracket.lo == 0 and bracket.hi == 2 / vpar
            # two positive roots about 2^(1 - k/2) apart; only the smaller lies in the bracket
            assert len(isolate_positive_roots(p, Fraction(1, 2**200))) == 2
            assert count_roots(p, bracket.lo, bracket.hi) == 1 and p(bracket.hi) > 0
            for bits in (16, 64, 128):
                got = solve_u(c, vpar, Fraction(1, 2**bits))
                want = _reference_solve_u(c, vpar, Fraction(1, 2**bits))
                assert max(got.lo, want.lo) <= min(got.hi, want.hi), (k, bits)
                assert _certified(p, got, Fraction(1, 2**bits))


class TestExpandU:
    def test_tilt_h0_is_exact_single_term(self):
        series = expand_u(TiltCurve(0, 1, 2), 8)
        assert series.terms == ((-1, Fraction(2)),)
        assert series.is_exact()

    def test_tilt_leading_coefficient(self):
        series = expand_u(TiltCurve(-1, 1, 2), 8)
        assert series.coefficient(-1) == Fraction(2, 3)

    def test_tilt_alpha_beta_closed_forms(self):
        rng = random.Random(105)
        for h in (Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(-2)):
            for _ in range(10):
                c = _rand_tilt(rng, h)
                assert c.alpha == c.a * (h * c.a + 2 * c.b) > 0
                assert c.beta == (h * c.a + c.b) ** 2
                assert c.leading_coefficient == 2 * (h * c.a + c.b) ** 2 / (c.a * (h * c.a + 2 * c.b))

    def test_derivative_lead_closed_form(self):
        # the leading term of dP/du at u = u1/v, which a reversion divides
        # by: (alpha/2) v^2 (tilt) or v (one-dimensional)
        for c in _reference_curves(14):
            poly = constraint_poly(c)
            dpoly = _reference_from_ucoefficients(
                [(k + 1) * _ucoefficient(poly, k + 1) for k in range(poly.udegree())]
            )
            u0 = LaurentSeries.monomial(-1, c.leading_coefficient)
            want = (2, c.alpha / 2) if isinstance(c, TiltCurve) else (1, 1)
            assert _reference_eval(dpoly, u0).leading() == want, c

    def test_order_is_a_whole_number(self):
        """A fractional order used to be truncated silently (2.5 and 7/2 gave
        floors -2 and -3); a float is refused as a float precision is."""
        c = TiltCurve(-1, 1, 2)
        for order in (Fraction(5, 2), Fraction(7, 2), "7/2", Fraction(1, 2), 0):
            with pytest.raises(CurveDomainError):
                expand_u(c, order)
        for order in (2.5, 8.0):
            with pytest.raises(TypeError):
                expand_u(c, order)
        want = expand_u(c, 8)
        for order in (Fraction(8), Fraction(16, 2), "8"):
            got = expand_u(c, order)
            assert (got, got.trunc) == (want, -8)

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
        assert abs(approx - (root.lo + root.hi) / 2) < Fraction(1, 10**30)


def _reference_expand_u(c, order):
    """The reversion as first written: an exact working series, the
    derivative re-evaluated at every step and products through powers of u."""
    poly = constraint_poly(c)
    dpoly = _reference_from_ucoefficients(
        [(k + 1) * _ucoefficient(poly, k + 1) for k in range(poly.udegree())]
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
            return truncate(u, -order)
        u = u + LaurentSeries.monomial(exp, -lead[1] / deriv_lead[1])


def _reference_closed_form_expand_u(c, order):
    """The closed form as first written: each coefficient a Fraction, the
    series through the coercing constructor."""
    u1 = c.leading_coefficient
    if c.h == 0:
        return LaurentSeries.monomial(-1, u1)
    p = 3 if isinstance(c, TiltCurve) else 2
    terms, power, step = [], u1, u1 * c.h  # power = u1^k h^(k-1)
    for k in range(1, (order + 1) // 2 + 1):
        m = (p - 2) * k + 1
        coeff = Fraction(prod(m - p * i for i in range(k)), factorial(k) * m)
        terms.append((1 - 2 * k, coeff * power))
        power *= step
    return LaurentSeries(terms, -order)


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
    """The closed-form coefficients give the first-written reversion's
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


INTEGER_FORM_H = (Fraction(-3, 4), Fraction(-1), Fraction(-2, 3), Fraction(0), Fraction(1, 3),
                  Fraction(5, 2), Fraction(2))


class TestExpandUIntegerForm:
    """The closed form written as integer numerators over one denominator
    gives the Fraction closed form's series: numerators, denominator, floor
    and hash."""

    def test_matches_the_fraction_closed_form(self):
        rng = random.Random(14)
        checked = 0
        for h in INTEGER_FORM_H:
            for c in (_rand_tilt(rng, h), _rand_onedim(rng, h), TiltCurve(h, Fraction(3, 2), Fraction(7, 3))):
                for order in (1, 2, 3, 4, 7, 8, 15, 16, 25):
                    got, want = expand_u(c, order), _reference_closed_form_expand_u(c, order)
                    assert (got._nums, got._den, got.trunc, hash(got)) == (
                        want._nums, want._den, want.trunc, hash(want)), (c, order)
                    checked += 1
        assert checked == len(INTEGER_FORM_H) * 3 * 9

    def test_a_cold_expansion_builds_no_fraction(self, monkeypatch):
        """Like the ring's counting guards: no Fraction constructed in
        curves, series or ring, at every h (the exact monomial too)."""
        cases = [(c, order) for h in INTEGER_FORM_H
                 for c in (TiltCurve(h, Fraction(3, 2), Fraction(7, 3)), OneDimCurve(h, Fraction(2, 3), 5))
                 for order in (1, 8, 16)]
        want = [_reference_closed_form_expand_u(c, order) for c, order in cases]
        built = []

        def counting(*args, **kwargs):
            built.append(args)
            return Fraction(*args, **kwargs)

        for module in (curves, series, ring):
            monkeypatch.setattr(module, "Fraction", counting)
        curves._expand_u_cached.cache_clear()
        assert [expand_u(c, order) for c, order in cases] == want
        assert built == []
        LaurentSeries.monomial(-1, 2)  # the coercing constructors build Fractions, counted
        assert built


def _sym(x: Fraction):
    return sympy.Rational(x.numerator, x.denominator)


def _oracle_curves(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        h = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
        yield _rand_tilt(rng, h), rng.randint(1, 16)
        yield _rand_onedim(rng, h), rng.randint(1, 16)


class TestExpandUOracle:
    """The closed-form coefficients of u(v) against sympy, which never runs
    outside the tests."""

    def test_against_sympy(self):
        v, t = sympy.symbols("v t", positive=True)
        for c, order in _oracle_curves(15, 6):
            series = expand_u(c, order)
            assert series.trunc == -order
            h = _sym(c.h)
            if isinstance(c, OneDimCurve):
                # u = (sqrt(v^2 + 2hq) - v)/h, expanded in t = 1/v
                u_t = (sympy.sqrt(1 + 2 * h * _sym(c.q) * t**2) - 1) / (h * t)
                expected = sympy.series(u_t, t, 0, order + 1).removeO()
                for k in range(1, order + 1):
                    want = expected.coeff(t, k)
                    assert _sym(series.coefficient(-k)) == want, (c, order, k)
                continue
            # w = hu + v solves w^3 - (6h beta/alpha) w = v^3: the residual
            # has no term above the floor that a v^(-order) error reaches
            u = sum(_sym(coeff) * v**e for e, coeff in series.terms)
            w = h * u + v
            residual = sympy.expand(w**3 - 6 * h * _sym(c.beta / c.alpha) * w - v**3)
            shift = 6 * order + 6
            poly = sympy.Poly(sympy.expand(residual * v**shift), v)
            kept = [m[0] - shift for m, coeff in poly.terms() if coeff != 0]
            assert all(e < 2 - order for e in kept), (c, order)
            assert kept, (c, order)


def _filtered_tilt(rng, h):
    """The generator as first written, with TiltCurve's rules inline."""
    while True:
        a = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        b = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        if h * a + 2 * b > 0 and h * a + b != 0:
            return TiltCurve(h, a, b)


class TestCurveHash:
    """A curve's hash is computed once, at construction, with the value of
    its field tuple, so the germ cache hashes no Fraction per lookup."""

    @staticmethod
    def _curves(rng):
        for _ in range(30):
            h = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
            y, z = Fraction(rng.randint(1, 5), rng.randint(1, 3)), Fraction(rng.randint(1, 9), rng.randint(1, 2))
            yield _rand_tilt(rng, h)
            if h + z / y > 0:
                yield OneDimCurve(h, y, z)

    def test_value_is_the_field_tuple_s(self):
        for c in self._curves(random.Random(61)):
            fields = (c.h, c.a, c.b) if isinstance(c, TiltCurve) else (c.h, c.y, c.z)
            assert hash(c) == hash(fields)
        assert hash(TiltCurve(-1, 1, 2)) == hash((Fraction(-1), Fraction(1), Fraction(2)))
        assert hash(OneDimCurve(Fraction(1, 2), 3, 1)) == hash((Fraction(1, 2), Fraction(3), Fraction(1)))

    def test_onedim_q_is_kept_outside_equality_and_repr(self, monkeypatch):
        """q = h + z/y is computed at construction, read with no Fraction
        operator, and left out of ==, the hash and repr, as alpha and beta
        are on the tilt curve."""
        onedim = [c for c in self._curves(random.Random(64)) if isinstance(c, OneDimCurve)]
        for c in onedim:
            assert c.q == c.h + c.z / c.y and type(c.q) is Fraction
            assert c.leading_coefficient == c.q
            assert "q=" not in repr(c)
        twin = OneDimCurve(Fraction(-2, 2), Fraction(2, 1), 6)
        assert twin == OneDimCurve(-1, 2, 6) and hash(twin) == hash(OneDimCurve(-1, 2, 6))
        assert not next(f for f in dataclasses.fields(OneDimCurve) if f.name == "q").compare
        calls = []
        monkeypatch.setattr(Fraction, "__add__", lambda *args: calls.append(1))
        monkeypatch.setattr(Fraction, "__truediv__", lambda *args: calls.append(1))
        assert [c.q for c in onedim] and calls == []

    def test_hashing_a_built_curve_hashes_no_fraction(self, monkeypatch):
        curves = list(self._curves(random.Random(62)))
        calls = []
        original = Fraction.__hash__
        monkeypatch.setattr(Fraction, "__hash__", lambda x: calls.append(1) or original(x))
        for c in curves:
            hash(c)
        assert calls == []

    def test_equal_curves_built_apart_share_one_germ_entry(self):
        from ellstab.asymptotics import ChargeKind, _charge_germs, charge_series
        from ellstab.suites import _rand_vector

        g = geometry_for(-1)
        v = _rand_vector(random.Random(63), 1)
        _charge_germs.cache_clear()
        for c in (TiltCurve(-1, 1, 2), TiltCurve(Fraction(-2, 2), Fraction(3, 3), 2)):
            charge_series(g, v, c, ChargeKind.REDUCED, 8)
        for c in (OneDimCurve(-1, 1, 3), OneDimCurve(Fraction(-1), 2 * Fraction(1, 2), Fraction(6, 2))):
            charge_series(g, ChernVector._ints([0, 0, *v._nums[2:]], v._den), c, ChargeKind.FULL, 8)
        info = _charge_germs.cache_info()
        assert (info.currsize, info.hits) == (2, 2)


def _reference_tilt_fields(h, a, b) -> tuple:
    """TiltCurve's checks and (alpha, beta) in Fraction arithmetic, as the
    constructor first wrote them."""
    if a <= 0 or b <= 0:
        raise ConfigurationError("tilt curve: a and b must be positive")
    if h * a + 2 * b <= 0:
        raise ConfigurationError("tilt curve: requires h*a + 2*b > 0")
    if h * a + b == 0:
        raise ConfigurationError("tilt curve: requires h*a + b != 0")
    return a * (h * a + 2 * b), (h * a + b) ** 2


def _reference_onedim_q(h, y, z) -> Fraction:
    """OneDimCurve's checks and q in Fraction arithmetic."""
    if y <= 0 or z <= 0:
        raise ConfigurationError("one-dimensional curve: y and z must be positive")
    q = h + z / y
    if q <= 0:
        raise ConfigurationError("one-dimensional curve: requires h + z/y > 0")
    return q


def _outcome(build, *args):
    try:
        return build(*args)
    except ConfigurationError as e:
        return str(e)


def test_curves_are_built_from_numerators_as_from_fractions():
    """Fields, hash and error messages of both curves against the Fraction
    formulas, on random points of which about half are refused."""
    rng = random.Random(65)
    built = 0
    for _ in range(1500):
        h, a, b = (Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(3))
        tilt = _outcome(TiltCurve, h, a, b)
        want = _outcome(_reference_tilt_fields, h, a, b)
        if isinstance(want, str):
            assert tilt == want
        else:
            assert (tilt.alpha, tilt.beta) == want and hash(tilt) == hash((h, a, b))
            assert type(tilt.alpha) is Fraction and type(tilt.beta) is Fraction
            built += 1
        onedim = _outcome(OneDimCurve, h, a, b)
        want = _outcome(_reference_onedim_q, h, a, b)
        if isinstance(want, str):
            assert onedim == want
        else:
            assert onedim.q == want and type(onedim.q) is Fraction and hash(onedim) == hash((h, a, b))
            built += 1
    assert 500 < built < 2500
    assert _outcome(TiltCurve, -1, 1, 1) == "tilt curve: requires h*a + b != 0"
    assert _outcome(TiltCurve, "-5/2", 1, 1) == "tilt curve: requires h*a + 2*b > 0"


def test_rand_tilt_draws_as_the_inline_filter():
    for seed in range(5):
        for h in (Fraction(-2), Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1, 3)):
            rng, ref = random.Random(seed), random.Random(seed)
            for _ in range(200):
                assert _rand_tilt(rng, h) == _filtered_tilt(ref, h)
                assert rng.getstate() == ref.getstate()


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


class TestAlgebraicBracket:
    """The algebraic cycle check refuses a bracket that does not isolate
    one root of the curve polynomial with neither end a root, on one
    squarefree Sturm chain (``poly._isolates_one_root``)."""

    @pytest.mark.parametrize("rank2", [False, True])
    def test_an_end_at_a_root(self, rank2):
        c = TiltCurve(Fraction(1, 2), 1, 2)
        root = solve_u(c, 1, Fraction(1, 2**16))
        p = curves._curve_row(c, Fraction(1))
        lo = Fraction(1, 3)  # p is a positive multiple of 3u^3 + 18u^2 - 14u - 100 at v = 1
        assert p(lo) != 0 and count_roots(p, lo, root.hi) == 1
        g = geometry_for(Fraction(1, 2), rank2)
        assert chow_identity_check(g, c, RootInterval(lo, root.hi), 1)
        line = TiltCurve(0, 1, 2)  # u = 1/2 at v = 4
        for bracket in (RootInterval(Fraction(1, 2), Fraction(1)), RootInterval(Fraction(1, 4), Fraction(1, 2))):
            with pytest.raises(CurveDomainError):
                chow_identity_check(geometry_for(0, rank2), line, bracket, 4)

    @pytest.mark.parametrize("rank2", [False, True])
    def test_two_roots_or_none(self, rank2):
        c = TiltCurve(Fraction(1, 2), 1, 2)
        p = curves._curve_row(c, Fraction(1))
        g = geometry_for(Fraction(1, 2), rank2)
        two, none = RootInterval(Fraction(-3), Fraction(3)), RootInterval(Fraction(3), Fraction(4))
        assert count_roots(p, two.lo, two.hi) == 2 and count_roots(p, none.lo, none.hi) == 0
        for bracket in (two, none):
            with pytest.raises(CurveDomainError):
                chow_identity_check(g, c, bracket, 1)


def _reference_algebraic_chow(parts, c, u: RootInterval, vpar) -> bool:
    """The algebraic verdict as first computed: each part at v reduced mod
    the curve polynomial by long division over Fraction, and the sum of
    squares signed at the root by the Fraction Sturm-Tarski chain."""
    p = Poly1(_reference_ucoefficients(c, vpar))
    total = ()
    for part in parts:
        r = _reference_divmod(part.eval_v(vpar).c, p.c)[1]
        total = _reference_add(total, _reference_mul(r, r))
    return _reference_sign_at_root(Poly1(total), p, u) == 0


class TestAlgebraicChowPath:
    """The pseudo-remainder path of chow_identity_check gives the exact
    remainder path's verdicts, on the real cycle differences and on
    substituted parts that vanish at the curve point or do not."""

    def _points(self, rng, c):
        for _ in range(2):
            vpar = Fraction(rng.randint(2, 60), rng.choice([1, 1, 2, 3]))
            root = solve_u(c, vpar, Fraction(1, 2 ** rng.choice([2, 8, 64])))
            if not root.exact:
                yield root, vpar

    def test_verdicts_match_reference(self, monkeypatch):
        rng = random.Random(74)
        verdicts = []
        for h in (Fraction(-1), Fraction(1, 2), Fraction(-2), Fraction(1, 3)):
            for rank2 in (False, True):
                g = geometry_for(h, rank2)
                c = _rand_tilt(rng, h)
                cp = constraint_poly(c)
                rand = [Poly2({(rng.randint(0, 3), rng.randint(0, 2)):
                               Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)})
                        for _ in range(3)]
                substitutes = [list(_symbolic_difference_parts(g, c)), [cp * rand[0], cp * rand[1]],
                               [cp * rand[0], rand[1] + cp], [rand[2]], [Poly2(), cp * cp * rand[1]]]
                for u, vpar in self._points(rng, c):
                    for parts in substitutes:
                        monkeypatch.setattr(curves, "_symbolic_difference_parts", lambda g, c: parts)
                        got = chow_identity_check(g, c, u, vpar)
                        assert got == _reference_algebraic_chow(parts, c, u, vpar), (c, vpar, parts)
                        verdicts.append(got)
                    monkeypatch.undo()
        assert verdicts.count(True) >= 40 and verdicts.count(False) >= 10, verdicts


def _reference_ucoefficients(c, v) -> list:
    """The u-coefficients (ascending) of the curve polynomial as first
    written, over any scalar v with +, - and *, in Fraction arithmetic."""
    h = c.h
    if isinstance(c, TiltCurve):
        alpha, beta = c.alpha, c.beta
        return [v * -beta, v * v * (alpha / 2) - beta * h, v * (alpha * h / 2), alpha * h * h / 6]
    return [-(c.h + c.z / c.y), v, h / 2]


def _reference_from_ucoefficients(coeffs: list) -> Poly2:
    """sum_i coeffs[i] u^i for Poly1s in v, as ``Poly2.from_ucoefficients``
    built it before the curve polynomial became one integer table."""
    den = lcm(*(p._den for p in coeffs))
    return Poly2._ints({(i, j): n * (den // p._den) for i, p in enumerate(coeffs)
                        for j, n in enumerate(p._nums)}, den)


def _reference_constraint_poly(c) -> Poly2:
    """The curve polynomial as first written, in Poly2 arithmetic."""
    u, v = Poly2.u(), Poly2.v()
    h = c.h
    if isinstance(c, TiltCurve):
        cubic = h * h * u * u * u + 3 * h * (u * u * v) + 3 * (u * v * v)
        return cubic * Fraction(c.alpha, 6) - (h * u + v) * c.beta
    return (h * (u * u) + 2 * (u * v)) * Fraction(1, 2) - Poly2.const(c.q)


CURVE_POLY_H = (Fraction(-2), Fraction(-1), Fraction(0), Fraction(1, 3), Fraction(1, 2))


class TestCurvePolynomial:
    """The integer table gives the first-written Poly2 and the first-written
    u-coefficients at rational v, term for term."""

    def _curves(self):
        rng = random.Random(70)
        for h in CURVE_POLY_H:
            for _ in range(8):
                yield _rand_tilt(rng, h)
                yield _rand_onedim(rng, h)

    def test_constraint_poly_matches_reference(self):
        for c in self._curves():
            got, want = constraint_poly(c), _reference_constraint_poly(c)
            assert got.terms == want.terms, c
            assert all(type(a) is Fraction for a in got.terms.values())

    def test_coefficients_at_rational_v_match_reference(self):
        rng = random.Random(71)
        for c in self._curves():
            for vpar in (Fraction(1), Fraction(rng.randint(1, 400), rng.randint(1, 9)), Fraction(1, 7)):
                got, want = curves._curve_row(c, vpar), _reference_constraint_poly(c).eval_v(vpar)
                assert got.c == want.c, (c, vpar)
                assert all(type(a) is Fraction for a in got.c)
                if isinstance(c, TiltCurve) or vpar * vpar + 2 * c.h * c.q >= 0:
                    assert admissible_bracket(c, vpar)[0].c == want.c

    def test_integer_table_matches_reference_ucoefficients(self):
        """At v = 1, 1/7 and random rational v, the table read homogeneously
        is the Poly1 of the first-written u-coefficients, in storage form."""
        rng = random.Random(73)
        checked = 0
        for c in self._curves():
            rows, den = curves._curve_table(c)
            assert den > 0 and all(type(x) is int for row in rows for x in row)
            for vpar in (Fraction(1), Fraction(1, 7), Fraction(rng.randint(1, 10**6), rng.randint(1, 10**4)),
                         Fraction(rng.randint(1, 50), 2 ** rng.randint(0, 40))):
                got, want = curves._curve_row(c, vpar), Poly1(_reference_ucoefficients(c, vpar))
                assert (got._nums, got._den) == (want._nums, want._den), (c, vpar)
                checked += 1
        assert checked == 4 * 2 * 8 * len(CURVE_POLY_H)

    def test_cold_solve_u_does_no_fraction_arithmetic(self, monkeypatch):
        """From the curve's constants to the returned bracket a cold
        ``solve_u`` works on integers: no Fraction operator runs, and the
        only Fractions built in curves, poly and ring are the ends of
        ``admissible_bracket``'s bracket and of the returned interval."""
        rng = random.Random(74)
        cases = []
        for h in CURVE_POLY_H:
            for _ in range(6):
                for c in (_rand_tilt(rng, h), _rand_onedim(rng, h)):
                    for vpar in (Fraction(rng.randint(1, 900), rng.randint(1, 9)), Fraction(rng.randint(1, 40))):
                        if isinstance(c, TiltCurve) or vpar * vpar + 2 * c.h * c.q > 0:
                            precision = Fraction(1, 2 ** rng.choice([1, 8, 64, 128]))
                            cases.append((c, vpar, precision, admissible_bracket(c, vpar)[1],
                                          solve_u(c, vpar, precision)))
        operators = []
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
                     "__rtruediv__", "__floordiv__", "__rfloordiv__", "__mod__", "__rmod__", "__pow__",
                     "__rpow__", "__neg__", "__pos__", "__abs__"):
            monkeypatch.setattr(Fraction, name, lambda *args, _op=getattr(Fraction, name):
                                operators.append(_op) or _op(*args))
        built = []

        def counting(*args, **kwargs):
            built.append(Fraction(*args, **kwargs))
            return built[-1]

        for module in (curves, poly, ring):
            monkeypatch.setattr(module, "Fraction", counting)
        exact = 0
        for c, vpar, precision, bracket, root in cases:
            built.clear()
            for cache in (constraint_poly, curves._expand_u_cached, _fixed_cycles, _symbolic_difference_parts):
                cache.cache_clear()
            assert solve_u(c, vpar, precision) == root
            assert operators == [], (c, vpar)
            assert 1 <= len(built) <= 4 and set(built) <= {bracket.lo, bracket.hi, root.lo, root.hi}, built
            exact += root.exact
        assert len(cases) >= 100 and exact >= 10, (len(cases), exact)
        Fraction(1, 2) + 1  # the counter does see an operator
        assert operators

    def test_cold_solve_u_builds_no_poly2(self, monkeypatch):
        """Counted at ``Poly2._store``, which every Poly2 constructor
        (``__init__`` and ``_ints``) goes through."""
        built = []
        store = Poly2._store

        def counting_store(p, nums, den):
            built.append(nums)
            store(p, nums, den)

        monkeypatch.setattr(Poly2, "_store", counting_store)
        rng = random.Random(72)
        for h in CURVE_POLY_H:
            for c in (_rand_tilt(rng, h), _rand_onedim(rng, h)):
                for cache in (constraint_poly, curves._expand_u_cached, _fixed_cycles,
                              _symbolic_difference_parts):
                    cache.cache_clear()
                solve_u(c, Fraction(rng.randint(700, 900), 7), Fraction(1, 2**128))
        assert built == []
        constraint_poly(TiltCurve(-1, 1, 2))  # the counter does see Poly2 construction
        assert built


def _reference_cycle_sides(g, c, u, vpar):
    """The two cycles as first built, every product at each call."""
    hb = g.hb_divisor
    obar1 = divisor_vector(g, DivisorX(c.a, g.zero_divisor()))
    obar2 = divisor_vector(g, DivisorX(0, hb.scale(c.b)))
    obar = obar1 + obar2
    om = divisor_vector(g, DivisorX(u, hb.scale(vpar)))
    theta = divisor_vector(g, DivisorX(1, g.zero_divisor()))
    left_cycle = mul(g, obar1, obar1 + obar2.scale(2))
    om3_over6 = mul(g, mul(g, om, om), om).s / 6
    lhs = left_cycle.scale(om3_over6)
    theta_obar2 = mul(g, theta, mul(g, obar, obar)).s
    rhs = mul(g, om, theta).scale(theta_obar2)
    return lhs, rhs


def _reference_parts(g, c) -> tuple:
    """The symbolic parts as first built: the flat coordinates of the
    reference cycles' difference at the symbols (u, v), in the order
    (n, x, a, s, S..., eta...)."""
    lhs, rhs = _reference_cycle_sides(g, c, Poly2.u(), Poly2.v())
    diff = lhs - rhs
    return (diff.n, diff.x, diff.a, diff.s, *diff.S.coords, *diff.eta.coords)


# (h, u, v, a, b): rational points of tilt curves at h != 0, where they are
# sparse (found by a search over small u and v)
RATIONAL_CURVE_POINTS = (
    (Fraction(-1), Fraction(1, 4), Fraction(2), Fraction(16, 13), Fraction(29, 13)),
    (Fraction(-1), Fraction(32, 5), Fraction(16), Fraction(1, 112), Fraction(113, 112)),
    (Fraction(-2), Fraction(1, 4), Fraction(4), Fraction(8, 13), Fraction(29, 13)),
    (Fraction(-2), Fraction(1, 6), Fraction(35), Fraction(27, 181), Fraction(235, 181)),
    (Fraction(1, 2), Fraction(1), Fraction(7, 2), Fraction(4, 13), Fraction(11, 13)),
)


def _chow_cases(rng):
    """(g, c, points) on fresh rank-1 and rank-2 geometries and the
    fractional lattices: random rational points off the curve, and points on
    it (dense at h = 0, ``RATIONAL_CURVE_POINTS`` elsewhere)."""
    for g in fresh_geometries() + fractional_geometries():
        for _ in range(3):
            c = _rand_tilt(rng, g.h)
            points = [(Fraction(rng.randint(1, 30), rng.randint(1, 8)), Fraction(rng.randint(1, 30), rng.randint(1, 4)))
                      for _ in range(3)]
            if g.h == 0:
                points += [((c.b / c.a) / v, v) for v in (Fraction(rng.randint(1, 30), rng.randint(1, 4)), Fraction(7))]
            yield g, c, points
        for h, u, vpar, a, b in RATIONAL_CURVE_POINTS:
            if h == g.h:
                yield g, TiltCurve(h, a, b), [(u, vpar), (u, vpar + 1)]


class TestChowFixedParts:
    """The cycle identity decided on kept integer products gives the
    symbolic parts and the rational verdicts of the cycles built through
    ring products at each call (``_reference_cycle_sides``), with the
    curve-only data built once per (geometry, curve)."""

    def _check_against_reference(self, rng) -> list:
        verdicts = []
        for g, c, points in _chow_cases(rng):
            assert _typed(_symbolic_difference_parts(g, c)) == _typed(_reference_parts(g, c)), (g, c)
            for u, vpar in points:
                lhs, rhs = _reference_cycle_sides(g, c, u, vpar)
                verdicts.append(chow_identity_check(g, c, u, vpar))
                assert verdicts[-1] == (lhs == rhs), (g, c, u, vpar)
        return verdicts

    def test_cycle_sides_match_reference(self):
        """Restated once the ring-product sides were deleted: parts by value
        and type, verdicts on and off the curve."""
        verdicts = self._check_against_reference(random.Random(73))
        assert verdicts.count(True) >= 20 and verdicts.count(False) >= 100, verdicts.count(True)

    def test_match_reference_under_a_mutated_table(self, monkeypatch):
        """A relation typo (Theta^2 reaching Theta pull(A_0) once more, both
        orders) read into every fresh geometry's structure constants: the
        kept products follow the ring path's order, so parts and verdicts
        still equal the reference's, which the typo breaks."""
        original = ring._structure_constants

        def mutant(g):
            table, den, width = original(g)
            eta0 = 2 + g.rank
            return [[(j, k, c + den * (i == j == 1 and k == eta0)) for j, k, c in row]
                    for i, row in enumerate(table)], den, width

        monkeypatch.setattr(ring, "_structure_constants", mutant)
        _clear_chow_caches()
        try:
            verdicts = self._check_against_reference(random.Random(75))
            rng = random.Random(78)
            broken = [any(not r.is_zero() for r in chow_identity_symbolic_remainder(g, _rand_tilt(rng, g.h)))
                      for g in fresh_geometries() if g.h != 0]
        finally:
            _clear_chow_caches()
        assert verdicts.count(False) >= 100 and all(broken), broken

    def test_warm_rational_check_builds_no_chern_vector(self, monkeypatch):
        """Counted at ``ChernVector._store``, which every vector goes
        through: once the curve's cycles and the geometry's products are
        kept, a rational check builds no vector."""
        rng = random.Random(76)
        cases = [(g, c, points) for g, c, points in _chow_cases(rng)]
        for g, c, points in cases:
            chow_identity_check(g, c, *points[0])
        built = []
        store = ChernVector._store
        monkeypatch.setattr(ChernVector, "_store", lambda v, nums, den: built.append(1) or store(v, nums, den))
        verdicts = [chow_identity_check(g, c, u, vpar) for g, c, points in cases for u, vpar in points]
        assert built == [] and True in verdicts and False in verdicts
        ChernVector.zero(1)  # the counter does see a vector built
        assert built

    def test_symbolic_parts_multiply_no_poly2(self, monkeypatch):
        """Counted at ``Poly2.__mul__`` and ``__rmul__``: the parts are
        written as integer numerators, from cold caches on."""
        calls = []
        for name in ("__mul__", "__rmul__"):
            original = getattr(Poly2, name)
            monkeypatch.setattr(Poly2, name, lambda *args, _op=original: calls.append(1) or _op(*args))
        _clear_chow_caches()
        rng = random.Random(77)
        for g in fresh_geometries() + fractional_geometries():
            parts = _symbolic_difference_parts(g, _rand_tilt(rng, g.h))
            assert len(parts) == 2 * g.rank + 4 and all(type(x) is Poly2 for x in parts)
        assert calls == []
        Poly2.u() * Poly2.v()  # the counter does see a product
        assert calls

    def test_built_once_per_geometry_and_curve(self):
        g, c = geometry_for(Fraction(-1)), TiltCurve(-1, 1, 2)
        _fixed_cycles.cache_clear()
        _symbolic_difference_parts.cache_clear()
        for vpar in (9, 10, 11):
            assert chow_identity_check(g, c, solve_u(c, vpar, Fraction(1, 2**64)), vpar)
            assert not chow_identity_check(g, c, Fraction(1, 3), vpar)
        chow_identity_symbolic_remainder(g, c)
        assert _fixed_cycles.cache_info().misses == 1
        assert _symbolic_difference_parts.cache_info().misses == 1
        assert isinstance(_symbolic_difference_parts(g, c), tuple)


def _clear_chow_caches():
    """Empty the curve memos, which key on geometry values, so that a fresh
    geometry equal to an earlier one builds its cycles again."""
    for cache in (_fixed_cycles, _symbolic_difference_parts, constraint_poly):
        cache.cache_clear()
