"""Certified isolation of positive real roots."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ellstab.errors import CurveDomainError
from ellstab.poly import (
    Poly1,
    RootInterval,
    count_roots,
    isolate_positive_roots,
    refine_root,
    sign_at_root,
    sturm_chain,
)


def _product(roots, squares=()):
    """The monic polynomial with the given rational roots, times x^2 - k for each k."""
    p = Poly1([1])
    for r in roots:
        p = p * Poly1([-r, 1])
    for k in squares:
        p = p * Poly1([-k, 0, 1])
    return p


def _contains(bracket: RootInterval, root) -> bool:
    """Whether the bracket holds the root, given as a Fraction or as ('sqrt', k)."""
    if isinstance(root, tuple):
        k = root[1]
        return bracket.lo * bracket.lo <= k <= bracket.hi * bracket.hi
    return bracket.lo <= root <= bracket.hi


def _check_brackets(p, want, precision):
    """One bracket per wanted root, each within precision, and no two
    brackets sharing a point that is a root."""
    got = isolate_positive_roots(p, precision)
    assert len(got) == len(want), got
    for bracket in got:
        assert bracket.width <= precision
        assert sum(_contains(bracket, r) for r in want) == 1, bracket
    for left, right in zip(got, got[1:]):
        assert left.hi < right.lo or (left.hi == right.lo and p(left.hi) != 0), (left, right)


def test_dyadic_roots_reported_once():
    roots = isolate_positive_roots(_product([1, 2]), Fraction(1, 256))
    assert roots == [RootInterval(Fraction(1), Fraction(1)), RootInterval(Fraction(2), Fraction(2))]
    # a midpoint hits the root 3/4 while the root 1 lies within the precision above it
    roots = [Fraction(1, 4), Fraction(3, 4), Fraction(1)]
    _check_brackets(_product(roots), roots, Fraction(1, 2))


def test_one_disjoint_bracket_per_positive_root():
    candidates = [Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2),
                  Fraction(3), Fraction(4), Fraction(6), Fraction(-1)]
    cases = 0
    for size in (1, 2, 3):
        for chosen in combinations(candidates, size):
            for squares in ((), (2,)):
                want = [r for r in chosen if r > 0] + [("sqrt", k) for k in squares]
                _check_brackets(_product(chosen, squares), want, Fraction(1, 2**10))
                cases += 1
    assert cases == 2 * (9 + 36 + 84)


def _sturm_bisect(p, lo, hi, precision):
    """Reference refinement: bisection by Sturm counts, as the root layer
    did it before refining by sign alone."""
    chain = sturm_chain(p)
    while hi - lo > precision:
        mid = (lo + hi) / 2
        if p(mid) == 0:
            return RootInterval(mid, mid)
        if count_roots(p, lo, mid, chain) == 1:
            hi = mid
        else:
            lo = mid
    return RootInterval(lo, hi)


# wider than any isolating bracket below, so the isolation is returned unrefined
UNREFINED = Fraction(10**6)


def _random_poly(rng):
    """Products of small rational (often dyadic) roots, sometimes times an
    irreducible quadratic, or dense random rational coefficients."""
    if rng.random() < 0.6:
        p = Poly1([1])
        for _ in range(rng.randint(1, 4)):
            p = p * Poly1([-Fraction(rng.randint(-4, 24), rng.choice([1, 2, 4, 8, 3])), 1])
        if rng.random() < 0.5:
            p = p * Poly1([-rng.choice([2, 3, 5]), 0, 1])
        return p
    while True:
        p = Poly1([Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(rng.randint(2, 5))])
        if p.degree >= 1:
            return p


def _rational_roots(p):
    """Rational roots of p among small fractions, the only ones _random_poly builds."""
    return [x for x in {Fraction(k, d) for k in range(-4, 25) for d in (1, 2, 3, 4, 8)} if p(x) == 0]


def test_sign_refinement_matches_sturm_bisection():
    """isolate_positive_roots and refine_root give the brackets of the
    Sturm-count bisection bit for bit, also when a midpoint is a root and
    when an end of the given bracket is a root."""
    rng = random.Random(20)
    # refining these hits a dyadic root at a midpoint
    hits = [_product([Fraction(a, 8), Fraction(b, 8)], (2,)) for a, b in ((1, 27), (2, 13), (3, 9))]
    collapsed = root_ends = 0
    for p in hits + [_random_poly(rng) for _ in range(100)]:
        sf = p.squarefree()
        precision = Fraction(1, 2 ** rng.randint(20, 64))
        isolated = isolate_positive_roots(p, UNREFINED)
        want = [r if r.exact else _sturm_bisect(sf, r.lo, r.hi, precision) for r in isolated]
        assert isolate_positive_roots(p, precision) == want
        collapsed += sum(w.exact and not r.exact for r, w in zip(isolated, want))
        for r, w in zip(isolated, want):
            assert refine_root(p, r, precision) == w
        # brackets (x, y] with a root at one end or both, holding one root
        ends = sorted({r.hi for r in isolated} | {x for x in _rational_roots(sf) if x > 0})
        for x, y in combinations(ends, 2):
            if (sf(x) == 0 or sf(y) == 0) and count_roots(sf, x, y) == 1:
                got = refine_root(p, RootInterval(x, y), precision)
                assert got == _sturm_bisect(sf, x, y, precision)
                root_ends += 1
    with pytest.raises(CurveDomainError):
        refine_root(_product([1, 2]), RootInterval(Fraction(1, 2), Fraction(3)), Fraction(1, 8))
    assert collapsed >= 5 and root_ends >= 100, (collapsed, root_ends)


def test_midpoint_root_collapses_refinement():
    # (1/2, 2] isolates the root 5/4 of (x - 5/4)(x - 4); the second midpoint is 5/4
    p = _product([Fraction(5, 4), 4])
    assert refine_root(p, RootInterval(Fraction(1, 2), Fraction(2)), Fraction(1, 2**20)) == (
        RootInterval(Fraction(5, 4), Fraction(5, 4))
    )
    # both ends are roots: the root of (1, 2] is its upper end
    p = _product([1, 2])
    got = refine_root(p, RootInterval(Fraction(1), Fraction(2)), Fraction(1, 8))
    assert got == RootInterval(Fraction(15, 8), Fraction(2))


_X = sympy.Symbol("x")


def _rat(x: Fraction):
    return sympy.Rational(x.numerator, x.denominator)


@st.composite
def _polys(draw):
    small = st.fractions(min_value=-3, max_value=12, max_denominator=8)
    if draw(st.booleans()):
        p = Poly1([1])
        for r in draw(st.lists(small, min_size=1, max_size=4)):
            p = p * Poly1([-r, 1])
        k = draw(st.sampled_from([0, 2, 3, 7]))
        return p * Poly1([-k, 0, 1]) if k else p
    coeffs = draw(st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=6),
                           min_size=2, max_size=5))
    p = Poly1(coeffs)
    return p if p.degree >= 1 else Poly1([coeffs[0] - 1, 1])


@settings(max_examples=120, deadline=None)
@given(p=_polys(), bits=st.integers(min_value=1, max_value=128))
def test_brackets_against_sympy(p, bits):
    """One bracket per distinct positive real root, counted by sympy; each
    inexact bracket holds exactly one root and each exact one is a root."""
    precision = Fraction(1, 2**bits)
    oracle = sympy.Poly([_rat(a) for a in reversed(p.c)], _X)
    oracle = oracle.sqf_part()
    positive = oracle.count_roots(0, None) - (oracle.eval(0) == 0)
    got = isolate_positive_roots(p, precision)
    assert len(got) == positive
    for left, right in zip(got, got[1:]):
        assert left.hi <= right.lo
    for r in got:
        assert r.width <= precision and r.lo >= 0
        if r.exact:
            assert oracle.eval(_rat(r.lo)) == 0
        else:
            assert oracle.count_roots(_rat(r.lo), _rat(r.hi)) == 1
    assert [refine_root(p, r, precision) for r in isolate_positive_roots(p, UNREFINED)] == got


def _sympy_sign_at_root(q: Poly1, p: Poly1, bracket: RootInterval) -> int:
    """Sign of q at the root of p in the bracket, by sympy: zero when
    gcd(p, q) has a root in the bracket, else read off a 100-digit value."""
    oracle_p = sympy.Poly([_rat(a) for a in reversed(p.c)] or [0], _X)
    oracle_q = sympy.Poly([_rat(a) for a in reversed(q.c)] or [0], _X)
    lo, hi = _rat(bracket.lo), _rat(bracket.hi)
    common = sympy.gcd(oracle_p, oracle_q)
    if common.degree() >= 1 and common.count_roots(lo, hi) >= 1:
        return 0
    (root,) = [r for r in oracle_p.sqf_part().real_roots() if lo <= r <= hi]
    value = oracle_q.as_expr().subs(_X, root).evalf(100)
    return 1 if value > 0 else -1


def _brackets(p: Poly1, rng: random.Random) -> list[RootInterval]:
    return isolate_positive_roots(p, Fraction(1, 2 ** rng.choice([1, 8, 64])))


class TestSignAtRoot:
    """The Sturm-Tarski sign query against sympy."""

    def test_random_polynomials(self):
        rng = random.Random(31)
        checked = 0
        while checked < 120:
            p = Poly1([rng.randint(-9, 9) for _ in range(rng.randint(3, 5))])
            if p.degree < 2:
                continue
            if rng.random() < 0.2:
                p = p * p  # not squarefree: signs at distinct roots are still exact
            for bracket in _brackets(p, rng):
                q = Poly1([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                           for _ in range(rng.randint(1, 5))])
                assert sign_at_root(q, p, bracket) == _sympy_sign_at_root(q, p, bracket)
                checked += 1

    def test_common_factor_zero_and_constant(self):
        rng = random.Random(32)
        for _ in range(20):
            factor = Poly1([-rng.randint(1, 30), 0, 1])  # x^2 - k
            other = Poly1([rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 3)])
            p = factor * Poly1([-rng.randint(1, 9), 1])
            q = factor * other
            const = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))
            for bracket in _brackets(p, rng):
                want_zero = factor(bracket.lo) * factor(bracket.hi) < 0 or factor(bracket.lo) == 0
                assert sign_at_root(q, p, bracket) == _sympy_sign_at_root(q, p, bracket)
                if want_zero:
                    assert sign_at_root(q, p, bracket) == 0
                assert sign_at_root(Poly1([]), p, bracket) == 0
                assert sign_at_root(Poly1([const]), p, bracket) == (1 if const > 0 else -1)

    def test_root_of_q_just_outside_the_bracket(self):
        """q vanishes 2^-90 beyond either end, so q is tiny at the root of p
        and an interval enclosure over the bracket straddles zero."""
        p = Poly1([-2, 0, 1])
        (bracket,) = isolate_positive_roots(p, Fraction(1, 2**64))
        tiny = Fraction(1, 2**90)
        above = Poly1([-(bracket.hi + tiny), 1])  # negative at sqrt 2
        below = Poly1([bracket.lo - tiny, -1])  # negative at sqrt 2 as well
        for q in (above, below, -above, -below, above * below):
            assert sign_at_root(q, p, bracket) == _sympy_sign_at_root(q, p, bracket)
        assert sign_at_root(above, p, bracket) == -1
        assert sign_at_root(-below, p, bracket) == 1
