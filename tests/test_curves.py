"""Constraint curves: polynomials, roots, expansions, the cycle identity."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ellstab.curves import (
    OneDimCurve,
    TiltCurve,
    admissible_bracket,
    chow_identity_check,
    chow_identity_symbolic_remainder,
    constraint_poly,
    expand_u,
    solve_u,
)
from ellstab.errors import ComputationFault, ConfigurationError, CurveDomainError
from ellstab.poly import Poly1, Poly2, RootInterval, count_roots, isolate_positive_roots
from ellstab.series import LaurentSeries
from ellstab.suites import geometry_for, _rand_tilt


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
            dpoly = Poly2.from_ucoefficients(
                [(k + 1) * poly.ucoefficient(k + 1) for k in range(poly.udegree())]
            )
            u0 = LaurentSeries.monomial(-1, c.leading_coefficient)
            want = (2, c.alpha / 2) if isinstance(c, TiltCurve) else (1, 1)
            assert _reference_eval(dpoly, u0).leading() == want, c

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
