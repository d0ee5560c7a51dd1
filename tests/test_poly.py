"""Certified isolation of positive real roots."""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

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


_X = sympy.Symbol("x")


def _rat(x: Fraction):
    return sympy.Rational(x.numerator, x.denominator)


def _sqf_part(p: Poly1) -> Poly1:
    """The squarefree part of p, by sympy."""
    oracle = sympy.Poly([_rat(a) for a in reversed(p.c)], _X).sqf_part()
    return Poly1([Fraction(int(a.p), int(a.q)) for a in reversed(oracle.all_coeffs())])


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
        assert bracket.hi - bracket.lo <= precision
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
    Sturm-count bisection on the squarefree part bit for bit, also when a
    midpoint is a root, when an end of the given bracket is a root and when
    p has repeated roots."""
    rng = random.Random(20)
    # refining these hits a dyadic root at a midpoint
    hits = [_product([Fraction(a, 8), Fraction(b, 8)], (2,)) for a, b in ((1, 27), (2, 13), (3, 9))]
    # repeated positive roots: 1/8 is hit by a midpoint, 1 ends a bracket (1, y]
    # around sqrt 2, and squares of random polynomials
    repeated = [_product([Fraction(1, 8), Fraction(1, 8), Fraction(1, 2)]), _product([1, 1, 3], (2,))]
    repeated += [q * q for q in (_random_poly(random.Random(21 + k)) for k in range(12))]
    collapsed = root_ends = 0
    for p in hits + [_random_poly(rng) for _ in range(100)] + repeated:
        sf = _sqf_part(p)
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
    assert all(_sqf_part(p).degree < p.degree for p in repeated)
    assert isolate_positive_roots(repeated[0], Fraction(1, 2**30))[0] == (
        RootInterval(Fraction(1, 8), Fraction(1, 8))
    )


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
        assert r.hi - r.lo <= precision and r.lo >= 0
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


def _reference_sturm_chain(p: Poly1, second: Poly1 | None = None) -> list[Poly1]:
    """The signed remainder sequence on Fraction polynomials, by exact
    division, as the root layer first computed it."""
    chain = [p, p.derivative() if second is None else second]
    while not chain[-1].is_zero() and chain[-1].degree > 0:
        _, r = chain[-2].divmod(chain[-1])
        if r.is_zero():
            break
        chain.append(-r)
    return [q for q in chain if not q.is_zero()]


def _reference_variations(chain, x) -> int:
    signs = [1 if q(x) > 0 else -1 for q in chain if q(x) != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _reference_squarefree_chain(p: Poly1) -> list[Poly1]:
    chain = _reference_sturm_chain(p)
    if chain and chain[-1].degree > 0:
        chain = _reference_sturm_chain(p.divmod(chain[-1])[0])
    return chain


def _reference_sign_at_root(q: Poly1, p: Poly1, bracket: RootInterval) -> int:
    if bracket.exact:
        value = q(bracket.lo)
        return (value > 0) - (value < 0)
    chain = _reference_sturm_chain(p, (p.derivative() * q.divmod(p)[1]).divmod(p)[1])
    return _reference_variations(chain, bracket.lo) - _reference_variations(chain, bracket.hi)


def _chain_cases(rng):
    """Random polynomials, their squares (repeated roots) and their
    negations (negative leading coefficients), scaled by random rationals,
    and products with roots in eighths, which isolation hits at midpoints."""
    for k in range(150):
        p = _random_poly(rng)
        p = p * Fraction(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 30))
        yield p
        if k % 3 == 0:
            yield -(p * p)
        if k % 3 == 1:
            yield _product([Fraction(rng.randint(1, 40), 8) for _ in range(2)], (2,))


class TestIntegerSturmChain:
    """The integer chain against the Fraction chain it replaced."""

    def test_members_are_positive_multiples(self):
        rng = random.Random(51)
        for p in _chain_cases(rng):
            seconds = [None, _random_poly(rng), -p.derivative(), Poly1([]), p * Poly1([1, 1])]
            for second in seconds:
                got, want = sturm_chain(p, second), _reference_sturm_chain(p, second)
                assert len(got) == len(want), (p, second)
                for g, w in zip(got, want):
                    assert all(type(a) is int for a in g) and gcd(*g) == 1
                    ratio = w.c[-1] / g[-1]
                    assert ratio > 0 and Poly1(g) * ratio == w, (p, second)

    def test_count_roots_matches_reference(self):
        rng = random.Random(52)
        checked = dyadic_ends = 0
        for p in _chain_cases(rng):
            ends = sorted({Fraction(rng.randint(-40, 200), 2 ** rng.randint(0, 5)) for _ in range(6)})
            ends += [x for x in _rational_roots(p)]  # roots, often dyadic, as ends
            for r in isolate_positive_roots(p, Fraction(1, 2 ** rng.choice([1, 8]))):
                ends += [r.lo, r.hi, (r.lo + r.hi) / 2]
            ends = sorted(set(ends))
            dyadic_ends += sum(p(x) == 0 and x.denominator > 1 for x in ends)
            ref = _reference_squarefree_chain(p)
            variations = {x: _reference_variations(ref, x) for x in ends}
            for lo, hi in combinations(ends, 2):
                assert count_roots(p, lo, hi) == variations[lo] - variations[hi], (p, lo, hi)
                checked += 1
        assert checked >= 5000 and dyadic_ends >= 20, (checked, dyadic_ends)

    def test_sign_at_root_matches_reference(self):
        rng = random.Random(53)
        checked = multiples = exact = 0
        for p in _chain_cases(rng):
            brackets = isolate_positive_roots(p, Fraction(1, 2 ** rng.choice([1, 8, 64])))
            for r in _rational_roots(p):  # a dyadic root: collapsed, or a bisection's middle
                brackets += [RootInterval(r, r), RootInterval(r - Fraction(1, 64), r + Fraction(1, 64))]
            for bracket in brackets:
                if not bracket.exact and (p(bracket.lo) == 0 or p(bracket.hi) == 0
                                          or count_roots(p, bracket.lo, bracket.hi) != 1):
                    continue
                qs = [_random_poly(rng) * Fraction(rng.choice((-1, 1)), rng.randint(1, 9)),
                      p * _random_poly(rng),  # q = 0 mod p
                      Poly1([rng.randint(-5, 5)]), -p.derivative()]
                for q in qs:
                    got = sign_at_root(q, p, bracket)
                    assert got == _reference_sign_at_root(q, p, bracket), (q, p, bracket)
                    checked += 1
                multiples += sign_at_root(qs[1], p, bracket) == 0
                exact += bracket.exact
        assert checked >= 1000 and multiples >= 250 and exact >= 20, (checked, multiples, exact)
