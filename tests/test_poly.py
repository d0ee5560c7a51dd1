"""Certified isolation of positive real roots."""

import random
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ellstab import poly, ring
from ellstab.curves import OneDimCurve, admissible_bracket, solve_u
from ellstab.errors import ComputationFault, CurveDomainError
from ellstab.poly import (
    Poly1,
    Poly2,
    RootInterval,
    _bisect_by_sign,
    count_roots,
    isolate_positive_roots,
    refine_root,
    sign_at_root,
    sturm_chain,
)

from conftest import deadline


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
        with pytest.raises(ZeroDivisionError):  # no root to sign at: p = 0
            sign_at_root(Poly1([1]), Poly1([]), RootInterval(Fraction(1), Fraction(2)))

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


def _trim(c) -> tuple:
    """Fraction coefficients, ascending, with trailing zeros removed."""
    c = [Fraction(x) for x in c]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _reference_add(a, b) -> tuple:
    n = max(len(a), len(b))
    return _trim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def _reference_mul(a, b) -> tuple:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _reference_value(a, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _reference_derivative(a) -> tuple:
    return _trim([i * c for i, c in enumerate(a)][1:])


def _reference_divmod(a, b) -> tuple[tuple, tuple]:
    """Long division of Fraction coefficient rows (ascending), as
    ``Poly1.divmod`` first computed it: quotient and remainder rows."""
    rem, div = list(a), b
    qdeg = len(rem) - len(div)
    if qdeg < 0:
        return (), _trim(rem)
    quot = [Fraction(0)] * (qdeg + 1)
    lead = div[-1]
    for k in range(qdeg, -1, -1):
        coeff = rem[k + len(div) - 1] / lead
        quot[k] = coeff
        if coeff != 0:
            for j, x in enumerate(div):
                rem[k + j] -= coeff * x
    return _trim(quot), _trim(rem[: len(div) - 1])


def _reference_sturm_chain(p: Poly1, second: Poly1 | None = None) -> list[tuple]:
    """The signed remainder sequence on Fraction rows, by exact division,
    as the root layer first computed it."""
    chain = [p.c, _reference_derivative(p.c) if second is None else second.c]
    while chain[-1] and len(chain[-1]) > 1:
        r = _reference_divmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append(tuple(-x for x in r))
    return [q for q in chain if q]


def _reference_variations(chain, x) -> int:
    values = [_reference_value(q, x) for q in chain]
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _reference_squarefree_chain(p: Poly1) -> list[tuple]:
    chain = _reference_sturm_chain(p)
    if chain and len(chain[-1]) > 1:
        chain = _reference_sturm_chain(Poly1(_reference_divmod(p.c, chain[-1])[0]))
    return chain


def _reference_sign_at_root(q: Poly1, p: Poly1, bracket: RootInterval) -> int:
    """sign_at_root as first written: the chain of p and p' (q mod p) mod p,
    every remainder by long division over Fraction."""
    if bracket.exact:
        value = _reference_value(q.c, bracket.lo)
        return (value > 0) - (value < 0)
    q_mod_p = _reference_divmod(q.c, p.c)[1]
    second = _reference_divmod(_reference_mul(_reference_derivative(p.c), q_mod_p), p.c)[1]
    chain = _reference_sturm_chain(p, Poly1(second))
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
                    ratio = w[-1] / g[-1]
                    assert ratio > 0 and tuple(a * ratio for a in g) == w, (p, second)

    def test_squarefree_chain_members_are_positive_multiples(self):
        """p over gcd(p, p') by the exact integer quotient gives the chain
        that the Fraction long division gave, member by member up to a
        positive factor."""
        rng = random.Random(54)
        repeated = 0
        for p in _chain_cases(rng):
            got, want = poly._squarefree_chain(p), _reference_squarefree_chain(p)
            repeated += len(_reference_sturm_chain(p)[-1]) > 1
            assert len(got) == len(want), p
            for g, w in zip(got, want):
                ratio = w[-1] / g[-1]
                assert gcd(*g) == 1 and ratio > 0 and tuple(a * ratio for a in g) == w, p
        assert repeated >= 40

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


def _reference_bisect_by_sign(p: Poly1, lo: Fraction, hi: Fraction, precision) -> RootInterval:
    """_bisect_by_sign as first written: one bit per exact evaluation, on
    den * p(lo + (hi - lo) t) shifted by Horner's rule over Fraction."""
    width = hi - lo
    shifted: list[Fraction] = []
    for a in reversed(p.c):  # Horner: shifted <- shifted * (lo + width t) + a
        nxt = [x * lo for x in shifted] + [Fraction(0)]
        for i, x in enumerate(shifted):
            nxt[i + 1] += x * width
        nxt[0] += a
        shifted = nxt
    den = lcm(*(x.denominator for x in shifted))
    q = [x.numerator * (den // x.denominator) for x in shifted]
    d = len(q) - 1
    sign = lambda x: (x > 0) - (x < 0)
    ref = sign(q[0]) if q[0] else -sign(sum(q))

    precision = Fraction(precision)
    wide = width.numerator * precision.denominator
    narrow = precision.numerator * width.denominator
    m = j = 0  # the bracket is t in [m / 2^j, (m + 1) / 2^j]
    while wide > narrow << j:
        j += 1
        mid = 2 * m + 1
        value = q[d]
        for i in range(d - 1, -1, -1):
            value = value * mid + (q[i] << (j * (d - i)))
        if value == 0:
            root = lo + width * Fraction(mid, 1 << j)
            return RootInterval(root, root)
        m = 2 * m if sign(value) == -ref else mid
    step = width / (1 << j)
    return RootInterval(lo + step * m, lo + step * (m + 1))


def _refinement_brackets(p: Poly1, rng: random.Random):
    """Brackets (lo, hi] of p's squarefree part sf holding one root: the
    isolation's, ones with a root at either end or both, and random ones,
    which often hold a dyadic root inside."""
    sf = _sqf_part(p)
    ends = {r.hi for r in isolate_positive_roots(p, UNREFINED)}
    ends |= {x for x in _rational_roots(sf) if x > 0}
    ends |= {Fraction(rng.randint(-8, 200), rng.choice([1, 2, 3, 4, 8, 16])) for _ in range(6)}
    for lo, hi in combinations(sorted(ends), 2):
        if count_roots(sf, lo, hi) == 1:
            yield sf, lo, hi


class TestQuadraticRefinement:
    """_bisect_by_sign refines by QIR on the bisection's dyadic grid; its
    brackets are the one-bit bisection's, bit for bit."""

    def test_matches_reference_on_random_brackets(self):
        rng = random.Random(60)
        checked = collapsed = lo_roots = hi_roots = 0
        for k in range(60):
            p = _random_poly(rng) * Fraction(rng.choice((-1, 1)), rng.randint(1, 9))
            for sf, lo, hi in _refinement_brackets(p, rng):
                width = hi - lo
                for precision in (Fraction(1, 2 ** rng.randint(1, 128)), Fraction(1, 2**200),
                                  width, 2 * width, width / 3, Fraction(1, 3**rng.randint(1, 40))):
                    for f in (sf, -sf):  # either leading sign
                        got = _bisect_by_sign(f, lo, hi, precision)
                        assert got == _reference_bisect_by_sign(f, lo, hi, precision), (f, lo, hi)
                        assert all(type(x) is Fraction for x in (got.lo, got.hi))
                        checked += 1
                        collapsed += got.exact
                lo_roots += sf(lo) == 0
                hi_roots += sf(hi) == 0
        assert checked >= 5000 and collapsed >= 30, (checked, collapsed)
        assert lo_roots >= 50 and hi_roots >= 50, (lo_roots, hi_roots)

    def test_dyadic_root_below_at_and_above_the_target_level(self):
        """A root at grid level L of (0, 4] collapses exactly when L <= J."""
        for level in (1, 2, 5, 17, 60, 130):
            root = 4 - Fraction(4, 2**level)  # 4 (2^level - 1) / 2^level, an odd numerator
            for f in (_product([root], (17,)), -_product([root, 5])):
                for top in (level - 1, level, level + 1, 200):
                    precision = Fraction(4, 2**top)
                    got = _bisect_by_sign(f, Fraction(0), Fraction(4), precision)
                    assert got == _reference_bisect_by_sign(f, Fraction(0), Fraction(4), precision)
                    assert got.exact == (top >= level), (level, top, got)
                    assert root in got

    def test_matches_reference_on_shaped_brackets(self):
        """Brackets of each shape the integer numerators must keep: lo != 0
        with non-dyadic ends (as ``isolate_positive_roots`` passes), hi a
        root, lo a root, and a root on a grid point of level L above,
        at and below the target level J."""
        rng = random.Random(61)
        shapes = {"inside": 0, "hi": 0, "lo": 0, "grid": 0}
        for _ in range(150):
            lo = Fraction(rng.randint(-60, 60), rng.choice([3, 5, 7, 9, 11]))
            width = Fraction(rng.randint(1, 90), rng.choice([3, 7, 13, 1, 6]))
            level = rng.randint(1, 70)
            grid_root = lo + width * Fraction(rng.randrange(1, 1 << level, 2), 1 << level)
            outside = [lo - Fraction(rng.randint(1, 9), 5), lo + width + Fraction(rng.randint(1, 9), 4)]
            inner = lo + width * Fraction(rng.randint(1, 20), 21)
            cases = [("inside", _product([inner, *outside]), lo, lo + width),
                     ("hi", _product([lo + width, *outside]), lo, lo + width),
                     ("lo", _product([lo, inner, *outside]), lo, lo + width),
                     ("grid", _product([grid_root, *outside]), lo, lo + width)]
            for shape, p, a, b in cases:
                if count_roots(p, a, b) != 1:
                    continue
                for precision in (Fraction(1, 2 ** rng.randint(1, 90)), width / 3, Fraction(1, 10**20)):
                    for f in (p, -p):
                        got = _bisect_by_sign(f, a, b, precision)
                        assert got == _reference_bisect_by_sign(f, a, b, precision), (shape, f, a, b)
                        assert all(type(x) is Fraction for x in (got.lo, got.hi))
                    shapes[shape] += 1
                    if shape == "grid":
                        top = next(j for j in range(400) if width / (1 << j) <= precision)
                        assert got.exact == (level <= top), (level, top, got)
        assert min(shapes.values()) >= 100, shapes

    def test_root_at_an_end(self):
        p = _product([1, 2], (3,))
        # hi is the root: the rightmost level-J cell
        assert _bisect_by_sign(p, Fraction(1, 2), Fraction(1), Fraction(1, 16)) == (
            RootInterval(Fraction(15, 16), Fraction(1)))
        # lo is the root, as refine_root receives it after its Sturm count
        for precision in (Fraction(1, 2), Fraction(1, 2**64), Fraction(1, 2**200)):
            want = _reference_bisect_by_sign(_sqf_part(p), Fraction(1), Fraction(7, 4), precision)
            assert refine_root(p, RootInterval(Fraction(1), Fraction(7, 4)), precision) == want
            assert want.lo ** 2 < 3 < want.hi ** 2
        # precision no finer than the width: the bracket itself
        assert _bisect_by_sign(p, Fraction(1, 2), Fraction(3, 2), 1) == (
            RootInterval(Fraction(1, 2), Fraction(3, 2)))


def test_non_positive_precision_raises():
    """Used to loop forever: the refinement never reached a width <= 0."""
    p = Poly1([-2, 0, 1])
    with deadline(20):
        for precision in (Fraction(0), Fraction(-1), 0):
            with pytest.raises(CurveDomainError, match="precision must be positive"):
                isolate_positive_roots(p, precision)
            with pytest.raises(CurveDomainError, match="precision must be positive"):
                refine_root(p, RootInterval(Fraction(1), Fraction(2)), precision)


_FRACTIONS = st.fractions(min_value=-20, max_value=20, max_denominator=12)
_ROWS = st.lists(_FRACTIONS | st.integers(-9, 9), max_size=6)


def _assert_canonical(p: Poly1) -> None:
    """Integer numerators, no trailing zero, coprime with a positive
    denominator; the zero polynomial is ((), 1); ``c`` all Fractions."""
    assert type(p._den) is int and p._den > 0
    assert type(p._nums) is tuple and all(type(n) is int for n in p._nums)
    assert not p._nums or p._nums[-1] != 0
    assert gcd(p._den, *p._nums) == 1
    assert all(type(c) is Fraction for c in p.c)


class TestPoly1Storage:
    """Poly1 on integer numerators over one denominator, against Fraction
    rows computed as the class first computed them, and sympy."""

    @settings(max_examples=300, deadline=None)
    @given(a=_ROWS, b=_ROWS, s=_FRACTIONS | st.integers(-6, 6), x=_FRACTIONS)
    def test_operations_match_fraction_rows(self, a, b, s, x):
        p, q = Poly1(a), Poly1(b)
        ra, rb, rs = _trim(a), _trim(b), _trim([s])
        negb = tuple(-c for c in rb)
        for got, want in (
            (p, ra), (p + q, _reference_add(ra, rb)), (p - q, _reference_add(ra, negb)),
            (-q, negb), (p * q, _reference_mul(ra, rb)), (p * s, _reference_mul(ra, rs)),
            (s * p, _reference_mul(ra, rs)), (p + s, _reference_add(ra, rs)),
            (s - q, _reference_add(rs, negb)), (p.derivative(), _reference_derivative(ra)),
            (s + p, _reference_add(rs, ra)), (p - s, _reference_add(ra, _trim([-s]))),
            (p.scale(s), _reference_mul(ra, rs)),
            *([(p / x, _reference_mul(ra, _trim([1 / x])))] if x else []),
        ):
            _assert_canonical(got)
            assert got.c == want
            assert got == Poly1(want) and hash(got) == hash(Poly1(want))
        value = p(x)
        assert value == _reference_value(ra, x) and type(value) is Fraction
        assert p.degree == len(ra) - 1 and p.is_zero() == (not ra)

    def test_ints_content_reduces(self):
        p = Poly1._ints([6, -4, 0, 0], 10)
        assert (p._nums, p._den) == ((3, -2), 5)
        assert p == Poly1([Fraction(3, 5), Fraction(-2, 5)])
        zero = Poly1._ints([0, 0], 7)
        assert (zero._nums, zero._den) == ((), 1) and zero == Poly1([]) == 0
        assert (Poly1._ints([4], 6)._nums, Poly1._ints([4], 6)._den) == ((2,), 3)
        assert Poly1([0, "1/2", 0]).c == (Fraction(0), Fraction(1, 2))

    def test_equal_polynomials_hash_equal(self):
        routes = [Poly1([1, 2]) * 2, Poly1([2, 4]), Poly1._ints([6, 12], 3), Poly1([4, 8]) - Poly1([2, 4])]
        assert len({(p._nums, p._den) for p in routes}) == 1
        assert len({hash(p) for p in routes}) == 1 and len(set(routes)) == 1
        for const, value in ((Poly1._ints([3], 2), Fraction(3, 2)), (Poly1([-5]), -5),
                             (Poly1([0, 0]), 0), (Poly1([1, 1]) - Poly1([0, 1]), 1)):
            assert const == value and value == const and hash(const) == hash(value)
            assert len({const, value}) == 1
        assert Poly1([1, 2]) != Poly1([1, 3]) and Poly1([1, 2]) != 1 and Poly1([2]) != Fraction(1, 2)

    def test_c_is_built_once(self):
        p = Poly1._ints([1, 2], 3)
        assert p.c == (Fraction(1, 3), Fraction(2, 3)) and p.c is p.c
        assert Poly1([]).c == ()


class TestExactCoefficients:
    """Poly1 and Poly2 take ints, Fractions and numeric strings only."""

    def test_floats_are_refused(self):
        with pytest.raises(TypeError, match="float"):
            Poly1([0.5, 1])
        with pytest.raises(TypeError, match="float"):
            Poly1.const(2.0)
        with pytest.raises(TypeError, match="float"):
            isolate_positive_roots(Poly1([-0.5, 1]), Fraction(1, 8))
        with pytest.raises(TypeError, match="float"):
            Poly2({(0, 0): 0.5})
        with pytest.raises(TypeError, match="float"):
            Poly2({(1, 0): 1, (0, 1): 1.0})

    def test_other_types_are_refused(self):
        for bad in (Decimal("0.5"), 1j, None, Poly2.u()):
            with pytest.raises(TypeError, match=type(bad).__name__):
                Poly1([1, bad])
            with pytest.raises(TypeError, match=type(bad).__name__):
                Poly2({(0, 0): bad})

    def test_exact_coefficients_are_taken(self):
        assert Poly1([1, "1/2", Fraction(3, 4), True]).c == (
            Fraction(1), Fraction(1, 2), Fraction(3, 4), Fraction(1))
        assert Poly2({(0, 0): "2/3", (1, 1): 2}).terms == {(0, 0): Fraction(2, 3), (1, 1): Fraction(2)}


@st.composite
def _sign_cases(draw):
    """(q, p): p = shared * own, products of x - r and x^2 - k; q free, a
    multiple of the shared factor, a multiple of p (q = 0 mod p), a
    constant or zero."""
    root = st.fractions(min_value=-3, max_value=12, max_denominator=8)

    def factor(rs, k):
        p = Poly1([1])
        for r in rs:
            p = p * Poly1([-r, 1])
        return p * Poly1([-k, 0, 1]) if k else p

    shared = factor(draw(st.lists(root, max_size=2)), draw(st.sampled_from([0, 2, 3])))
    own = factor(draw(st.lists(root, min_size=1, max_size=2)), draw(st.sampled_from([0, 5, 7])))
    p = shared * own * (draw(_FRACTIONS) or 1)
    other = Poly1(draw(_ROWS))
    kind = draw(st.sampled_from(["free", "shared", "multiple", "constant", "zero"]))
    q = {"free": other, "shared": shared * other, "multiple": p * other,
         "constant": Poly1([draw(_FRACTIONS)]), "zero": Poly1([])}[kind]
    return q, p


@settings(max_examples=100, deadline=None)
@given(case=_sign_cases(), bits=st.sampled_from([1, 8, 64]))
def test_sign_at_root_against_both_references(case, bits):
    """The integer Sturm-Tarski sign against the Fraction chain and sympy,
    on isolating and exact brackets, and for linear q vanishing 2^-90
    beyond either end of a bracket."""
    q, p = case
    brackets = isolate_positive_roots(p, Fraction(1, 2**bits))
    brackets += [RootInterval(r, r) for r in _rational_roots(p) if r > 0]
    tiny = Fraction(1, 2**90)
    for bracket in brackets:
        qs = [q]
        if not bracket.exact:
            qs += [Poly1([-(bracket.hi + tiny), 1]), Poly1([bracket.lo - tiny, -1]) * q]
        for f in qs:
            got = sign_at_root(f, p, bracket)
            assert got == _reference_sign_at_root(f, p, bracket) == _sympy_sign_at_root(f, p, bracket)


def test_sign_at_root_builds_no_fraction(monkeypatch):
    """On non-exact brackets the Sturm-Tarski sign runs in integers: it
    constructs no Fraction in poly or in ring, whose ``_IntegerForm``
    holds Poly1's arithmetic."""
    rng = random.Random(80)
    cases = []
    for _ in range(40):
        p = _random_poly(rng)
        for bracket in isolate_positive_roots(p, Fraction(1, 2 ** rng.choice([1, 8, 64]))):
            if not bracket.exact:
                cases += [(q, p, bracket) for q in (_random_poly(rng) * Fraction(1, 3), p * p, Poly1([2]))]
    want = [_reference_sign_at_root(q, p, bracket) for q, p, bracket in cases]
    built = []

    def counting(*args, **kwargs):
        built.append(args)
        return Fraction(*args, **kwargs)

    monkeypatch.setattr(poly, "Fraction", counting)
    monkeypatch.setattr(ring, "Fraction", counting)
    assert [sign_at_root(q, p, bracket) for q, p, bracket in cases] == want
    assert len(cases) >= 60 and built == []
    Poly1._ints([1, 2], 3).c  # reading coefficients builds Fractions, counted
    assert built


def _reference_isolate_positive_roots(p: Poly1, precision: Fraction) -> list[RootInterval]:
    """``isolate_positive_roots`` as it was before the integer cells: Sturm
    counts with ``count_roots`` at Fraction ends, each end counted again by
    every interval it bounds, the midpoints tested by evaluating p."""
    precision = poly._positive(precision)
    chain = poly._squarefree_chain(p)
    if not chain or len(chain[0]) < 2:
        return []
    p = Poly1._ints(chain[0], 1)
    stack = [(Fraction(0), poly._root_bound(p), p(0) == 0, False)]
    isolated: list[tuple[Fraction, Fraction]] = []
    while stack:
        lo, hi, lo_root, hi_root = stack.pop()
        k = count_roots(p, lo, hi, chain) - hi_root
        if k == 0:
            continue
        if k == 1 and not (lo_root or hi_root):
            isolated.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        mid_root = p(mid) == 0
        if mid_root:
            isolated.append((mid, mid))
        stack.append((lo, mid, lo_root, mid_root))
        stack.append((mid, hi, mid_root, hi_root))
    out = [
        RootInterval(lo, hi) if lo == hi else _bisect_by_sign(p, lo, hi, precision)
        for lo, hi in isolated
    ]
    out.sort(key=lambda r: r.lo)
    return out


def _on_the_grid(p: Poly1) -> bool:
    """Whether a positive rational root r of p's squarefree part lies on the
    isolation grid B m / 2^j, B the Cauchy bound of its primitive row."""
    sqf = Poly1._ints(poly._squarefree_chain(p)[0], 1)
    bound = poly._root_bound(sqf)
    ratios = [r / bound for r in _rational_roots(sqf) if r > 0]
    return any(x.denominator & (x.denominator - 1) == 0 for x in ratios)


class TestIntegerIsolation:
    """The isolation on integer cells against the Fraction loop it replaced."""

    PRECISIONS = (UNREFINED, Fraction(1, 2**10), Fraction(1, 2**64))

    @settings(max_examples=300, deadline=None)
    @given(c=st.lists(st.integers(-40, 40), min_size=1, max_size=10), bits=st.sampled_from([1, 10, 64]))
    def test_random_integer_polynomials(self, c, bits):
        """Integer polynomials of degree <= 9, the degree of a wall norm."""
        p = Poly1(c)
        assert isolate_positive_roots(p, Fraction(1, 2**bits)) == (
            _reference_isolate_positive_roots(p, Fraction(1, 2**bits)))

    def test_edge_cases(self):
        """Dyadic roots on the isolation grid, a root at the first midpoint
        B/2 ((x - 1)(x - 2) and (2x - 1)(2x - 3), B = 4 and 3), double roots,
        several positive roots and a root at 0."""
        first_midpoint = [_product([1, 2]), Poly1([3, -8, 4])]
        for p in first_midpoint:
            assert p(poly._root_bound(p) / 2) == 0
        candidates = [Fraction(k, 2**j) for k in range(1, 13) for j in range(3)]
        grid = [p for p in (_product(r) for r in combinations(candidates, 2)) if _on_the_grid(p)]
        double = [_product([1, 1, 3]), _product([Fraction(5, 3)] * 2, (2,)), _product([Fraction(1, 8)] * 3, (5,))]
        several = [_product([Fraction(1, 3), 1, Fraction(7, 4), 3, 5], (2, 7)), _product(range(1, 10))]
        zero = [_product([0, 1, 2]), _product([0, 0, 3], (2,)), _product([0, -1, Fraction(1, 2)])]
        assert len(grid) >= 20
        for p in first_midpoint + grid + double + several + zero:
            for precision in self.PRECISIONS:
                got = isolate_positive_roots(p, precision)
                assert got == _reference_isolate_positive_roots(p, precision), (p, precision)
        assert RootInterval(Fraction(2), Fraction(2)) in isolate_positive_roots(first_midpoint[0], UNREFINED)
        assert len(isolate_positive_roots(several[1], UNREFINED)) == 9

    def test_only_the_returned_ends_are_built(self, monkeypatch):
        """The counts and tests run on integer pairs: every Fraction built
        (counted at ``Fraction.__new__``) is an end of a returned bracket."""
        rng = random.Random(44)
        polys = [_random_poly(rng) for _ in range(60)] + [_product([1, 1, 3]), _product([0, 1, 2], (2,))]
        built = []
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        precisions = [Fraction(1, 2 ** rng.choice([1, 10, 64])) for _ in polys]
        monkeypatch.setattr(Fraction, "__new__", counting)
        for p, precision in zip(polys, precisions):
            built.clear()
            got = isolate_positive_roots(p, precision)
            assert len(built) == len({id(x) for r in got for x in (r.lo, r.hi)})


def _counting(monkeypatch, name: str) -> list:
    """Count the calls of poly's function ``name``, which still runs."""
    calls = []
    original = getattr(poly, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(poly, name, counted)
    return calls


class TestClosedFormCells:
    """A degree-1 or degree-2 cell is written down (``poly._closed_cell``)
    and is the one-bit bisection's, bit for bit."""

    PRECISIONS = (Fraction(1, 2), Fraction(1, 2**10), Fraction(1, 2**64), Fraction(1, 2**128),
                  Fraction(1, 2**256), Fraction(1, 3**50))

    def _check(self, f, lo, hi):
        for precision in self.PRECISIONS:
            got = _bisect_by_sign(f, lo, hi, precision)
            assert got == _reference_bisect_by_sign(f, lo, hi, precision), (f._nums, lo, hi, precision)
            assert all(type(x) is Fraction for x in (got.lo, got.hi))

    def test_degrees_one_and_two_on_random_brackets(self, monkeypatch):
        """Linear and quadratic polynomials with rational and irrational
        roots, either leading sign, on the brackets of
        ``_refinement_brackets``."""
        calls = _counting(monkeypatch, "_closed_cell")
        rng = random.Random(90)
        degrees = {1: 0, 2: 0}
        for _ in range(120):
            if rng.random() < 0.5:
                p = _product([Fraction(rng.randint(-4, 40), rng.choice([1, 2, 3, 8]))
                              for _ in range(rng.randint(1, 2))])
            else:
                p = Poly1([rng.randint(-40, 40), rng.randint(-40, 40), rng.choice([-3, -1, 1, 2, 5])])
            p = p * Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
            for sf, lo, hi in _refinement_brackets(p, rng):
                for f in (sf, -sf):
                    self._check(f, lo, hi)
                degrees[sf.degree] = degrees.get(sf.degree, 0) + 1
        assert degrees[1] >= 50 and degrees[2] >= 100, degrees
        assert len(calls) >= 1500

    def test_shaped_cells(self, monkeypatch):
        """Roots on the grid of levels below, at and above J (collapsed
        exactly when the level is at most J), a root at hi, a root at lo
        that is divided out, and a quadratic with both roots positive and
        only one in the cell."""
        calls = _counting(monkeypatch, "_closed_cell")
        for level in (1, 2, 7, 64, 200):
            root = Fraction(5, 3) + Fraction(4, 3) * Fraction(2**level - 1, 2**level)
            for f in (_product([root]), -_product([root, 7]), _product([root, Fraction(-1, 3)])):
                for top in (level - 1, level, level + 1, 260):
                    precision = Fraction(4, 3) / 2**top
                    got = _bisect_by_sign(f, Fraction(5, 3), Fraction(3), precision)
                    assert got == _reference_bisect_by_sign(f, Fraction(5, 3), Fraction(3), precision)
                    assert got.exact == (top >= level) and root in got
        lo, hi = Fraction(1, 7), Fraction(9, 7)
        for f in (_product([hi]), _product([hi, 5]), -_product([hi, Fraction(1, 9)])):  # a root at hi
            self._check(f, lo, hi)
            assert _bisect_by_sign(f, lo, hi, Fraction(1, 2**20)).hi == hi
        for other in (Fraction(2, 3), Fraction(1, 2**30) + lo):  # a root at lo, divided out
            self._check(_product([lo, other]), lo, hi)
        self._check(-_product([lo], (2,)) * Fraction(1, 3), lo, Fraction(3, 2))
        for k in (2, 3, 5, 99):  # (x - 1/k)(x - k): only the smaller root in (0, 1]
            self._check(_product([Fraction(1, k), k]), Fraction(0), Fraction(1))
            self._check(Poly1([1, -3 * k, k]), Fraction(0), Fraction(1, 3))  # irrational roots
        assert len(calls) >= 100

    def test_the_one_dimensional_curve_at_negative_h(self, monkeypatch):
        """Both roots positive, the bracket (0, 2q/v] holding the smaller:
        ``solve_u`` writes the cell down, and it is the reference's."""
        calls = _counting(monkeypatch, "_closed_cell")
        rng = random.Random(91)
        checked = 0
        while checked < 60:
            h, y = Fraction(-rng.randint(1, 6), rng.randint(1, 3)), rng.randint(1, 5)
            c = OneDimCurve(h, y, -h * y + Fraction(rng.randint(1, 9), rng.randint(1, 3)))
            vpar = Fraction(rng.randint(1, 90), rng.randint(1, 4))
            try:
                p, bracket = admissible_bracket(c, vpar)
            except CurveDomainError:
                continue
            if bracket.exact:
                continue
            assert len(isolate_positive_roots(p, UNREFINED)) == 2
            for precision in self.PRECISIONS:
                assert solve_u(c, vpar, precision) == _reference_bisect_by_sign(p, bracket.lo, bracket.hi, precision)
            checked += 1
        assert len(calls) >= 60 * 4  # the coarsest precisions may leave the bracket as it is

    @pytest.mark.parametrize("shift", [-2, 2])
    def test_an_off_guess_fails_the_certificate(self, monkeypatch, shift):
        """A floor moved by two cells, at a collapsed root or inside a cell,
        is refused by the exact signs, with no silent fallback."""
        guess = poly._closed_floor
        monkeypatch.setattr(poly, "_closed_floor", lambda q, top: (guess(q, top)[0] + shift, guess(q, top)[1]))
        cases = [(_product([Fraction(1, 3)]), Fraction(0), Fraction(1)),  # degree 1, inside a cell
                 (_product([Fraction(5, 8)]), Fraction(0), Fraction(1)),  # degree 1, on the grid
                 (_product([], (2,)), Fraction(1), Fraction(2)),  # degree 2, irrational
                 (_product([Fraction(3, 4), 9]), Fraction(0), Fraction(1))]  # degree 2, on the grid
        for f, lo, hi in cases:
            for g in (f, -f):
                with pytest.raises(ComputationFault, match="certificate"):
                    _bisect_by_sign(g, lo, hi, Fraction(1, 2**16))


def _reference_unstripped_isolated_roots(p: Poly1, precision, vrange) -> list[RootInterval]:
    """``poly._isolated_roots`` before it divided out x^k: the squarefree
    chain of p itself, 0 flagged a root by the chain's constant term."""
    precision = poly._positive(precision)
    chain = poly._squarefree_chain(p)
    if not chain or len(chain[0]) < 2:
        return []
    sqf = chain[0]
    bn, bd = poly._cauchy_bound(sqf)
    if vrange is not None:
        (a, b), (c, e) = ((x.numerator, x.denominator) for x in vrange)
    sqf_poly = Poly1._ints(sqf, 1)
    out = []
    stack = [(0, 0, poly._sign_variations(chain, 0, bd), poly._sign_variations(chain, bn, bd), sqf[0] == 0, False)]
    while stack:
        m, j, at_lo, at_hi, lo_root, hi_root = stack.pop()
        if vrange is not None and (bn * (m + 1) * b < a * (bd << j) or bn * m * e > c * (bd << j)):
            continue
        k = at_lo - at_hi - hi_root
        if k == 0:
            continue
        if k == 1 and not (lo_root or hi_root):
            out.append(poly._refined(sqf_poly, bn * m, bn, bd << j, precision))
            continue
        n, d = bn * (2 * m + 1), bd << (j + 1)
        head = poly._horner(sqf, n, d)
        at_mid, mid_root = poly._variations_after(head, chain, n, d), head == 0
        if mid_root:
            out.append(RootInterval(Fraction(n, d), Fraction(n, d)))
        stack.append((2 * m, j + 1, at_lo, at_mid, lo_root, mid_root))
        stack.append((2 * m + 1, j + 1, at_mid, at_hi, mid_root, hi_root))
    out.sort(key=lambda r: r.lo)
    return out


class TestStrippedIsolation:
    """``_isolated_roots`` divides out x^k before its squarefree chain and
    still flags 0 as a root, so every bracket is the unstripped one."""

    def test_times_powers_of_x_match_the_unstripped_isolation(self, monkeypatch):
        rng = random.Random(92)
        chains = _counting(monkeypatch, "sturm_chain")
        stripped = 0
        for _ in range(600):
            f = Poly1([rng.randint(-30, 30) for _ in range(rng.randint(1, 8))])
            f = _random_poly(rng) if rng.random() < 0.5 else f
            k = rng.choice([0, 1, 1, 2, 3])
            p = Poly1._ints((0,) * k + f._nums, f._den) if f else f
            precision = Fraction(1, 2 ** rng.choice([1, 10, 64])) if rng.random() < 0.8 else UNREFINED
            lo = Fraction(rng.randint(0, 30), rng.choice([1, 3, 8]))
            vrange = (lo, lo + Fraction(rng.randint(1, 60), rng.choice([1, 2, 7])))
            for r in (None, vrange):
                chains.clear()
                got = poly._isolated_roots(p, precision, r)
                assert got == _reference_unstripped_isolated_roots(p, precision, r), (p._nums, precision, r)
                if k and p:
                    assert all(b.exact or b.lo > 0 for b in got)  # 0 is a root no bracket touches
                    assert chains[0][0]._nums[0] and len(chains[0][0]._nums) <= len(f._nums)  # x^k is gone
            stripped += bool(k and p)
        assert stripped >= 250

    def test_a_wall_norm_loses_its_double_chain(self, monkeypatch):
        """R = v^3 S(v^2) builds one Sturm chain, where the unstripped
        isolation built two (p's, then its squarefree part's)."""
        chains = _counting(monkeypatch, "sturm_chain")
        s = Poly1([-7, 3, 11, -2])
        r = Poly1._ints((0, 0, 0, *(c for x in s._nums for c in (x, 0)))[:-1], 1)
        got = isolate_positive_roots(r, Fraction(1, 2**10))
        assert len(chains) == 1
        chains.clear()
        assert got == _reference_unstripped_isolated_roots(r, Fraction(1, 2**10), None)
        assert len(chains) == 2 and got


def _reference_isolates_one_root(p, lo, hi) -> bool:
    """The bracket check of the algebraic cycle identity as first written:
    p at both ends by Fraction evaluation, then a Sturm count of (lo, hi]."""
    return p(lo) != 0 and p(hi) != 0 and count_roots(p, lo, hi) == 1


class TestIsolatesOneRoot:
    """``_isolates_one_root``, one squarefree chain read at both ends,
    against two evaluations of p and a Sturm count."""

    def test_matches_the_reference(self):
        rng = random.Random(95)
        verdicts = []
        for _ in range(200):
            p = _random_poly(rng) if rng.random() < 0.95 else Poly1([])
            points = [Fraction(rng.randint(-30, 30), rng.choice([1, 2, 3, 8])) for _ in range(4)]
            for b in isolate_positive_roots(p, Fraction(1, 2 ** rng.choice([1, 4, 16]))) if p else []:
                points += [b.lo, b.hi, -b.hi]
            for lo, hi in combinations(sorted(set(points)), 2):
                got = poly._isolates_one_root(p, lo, hi)
                assert got == _reference_isolates_one_root(p, lo, hi), (p._nums, lo, hi)
                verdicts.append(got)
        assert verdicts.count(True) >= 200 and verdicts.count(False) >= 200, (verdicts.count(True), len(verdicts))

    def test_ends_at_roots_and_root_counts(self):
        p = _product([Fraction(1, 3), 2, -1])
        cases = {(Fraction(1, 3), 1): False, (0, Fraction(1, 3)): False, (0, 1): True,
                 (Fraction(-3, 2), 1): False, (Fraction(1, 2), Fraction(3, 2)): False, (Fraction(3, 2), 3): True}
        for (lo, hi), want in cases.items():
            assert poly._isolates_one_root(p, Fraction(lo), Fraction(hi)) == want, (lo, hi)
        assert not poly._isolates_one_root(Poly1([]), Fraction(0), Fraction(1))
        assert not poly._isolates_one_root(Poly1([3]), Fraction(0), Fraction(1))


class TestVanishAtRoot:
    """``vanish_at_root``, one gcd and one Sturm count, against one
    ``sign_at_root`` per polynomial."""

    def _brackets(self, p, rng):
        return [b for b in isolate_positive_roots(p, Fraction(1, 2 ** rng.choice([1, 8, 64]))) if not b.exact]

    def test_random_parts_against_sign_at_root(self):
        rng = random.Random(93)
        verdicts = []
        for _ in range(150):
            p = _random_poly(rng)
            if p.degree < 1:
                continue
            factor = _product([Fraction(rng.randint(1, 20), rng.choice([1, 3, 7]))], (rng.choice([2, 3, 5]),))
            p = p * factor if rng.random() < 0.5 else p
            for bracket in self._brackets(p, rng):
                parts = [Poly1([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(0, 4))])
                         * rng.choice([p, factor, Poly1([1])]) for _ in range(rng.randint(0, 4))]
                want = all(sign_at_root(q, p, bracket) == 0 for q in parts)
                assert poly.vanish_at_root(parts, p, bracket) == want, (p._nums, [q._nums for q in parts], bracket)
                assert poly.vanish_at_root(iter(parts), p, bracket) == want
                verdicts.append(want)
        assert verdicts.count(True) >= 100 and verdicts.count(False) >= 100, (verdicts.count(True), len(verdicts))

    def test_one_failing_part_first_or_last(self):
        p = _product([Fraction(1, 3), 2], (3,))
        vanishing = [p * Poly1([1, 2]), p * Fraction(5, 7), Poly1([])]
        for bracket in isolate_positive_roots(p, Fraction(1, 2**30)):
            failing = Poly1([-bracket.hi - 1, 1])  # x - hi - 1: no zero at the root
            assert poly.vanish_at_root(vanishing, p, bracket)
            assert not poly.vanish_at_root([failing, *vanishing], p, bracket)
            assert not poly.vanish_at_root([*vanishing, failing], p, bracket)

    def test_a_rational_non_dyadic_root_with_a_linear_gcd(self, monkeypatch):
        """p = (3x - 1)(x^2 - 2)(x - 5): parts sharing only 3x - 1 with p
        vanish at 1/3 and nowhere else, and the gcd is linear."""
        p = _product([Fraction(1, 3), 5], (2,))
        parts = [Poly1([-1, 3]) * Poly1([1, 1]), Poly1([-1, 3]) * Poly1([-4, 0, 1]) * Fraction(2, 9)]
        counts = _counting(monkeypatch, "count_roots")
        brackets = isolate_positive_roots(p, Fraction(1, 2**40))
        counts.clear()
        got = [poly.vanish_at_root(parts, p, b) for b in brackets]
        assert [b.lo < Fraction(1, 3) < b.hi for b in brackets] == [True, False, False]
        assert got == [True, False, False]
        assert [len(c[0]._nums) for c in counts] == [2, 2, 2]  # one count a bracket, of the linear gcd

    def test_parts_all_zero_mod_p(self, monkeypatch):
        """Multiples of p (and no parts at all) vanish, with no count."""
        p = Poly1([-2, 0, 1]) * Poly1([-3, 1])
        counts = _counting(monkeypatch, "count_roots")
        brackets = isolate_positive_roots(p, Fraction(1, 2**64))
        counts.clear()
        for bracket in brackets:
            assert poly.vanish_at_root([p * Poly1([1, 1, 1]), Poly1([]), p * p * Fraction(-3, 2)], p, bracket)
            assert poly.vanish_at_root([], p, bracket)
        assert counts == []

    def test_exact_brackets_and_zero_p(self):
        p = _product([1, 2])
        one = RootInterval(Fraction(1), Fraction(1))
        assert poly.vanish_at_root([Poly1([-1, 1]), p * p], p, one)
        assert not poly.vanish_at_root([Poly1([-1, 1]), Poly1([-2, 1])], p, one)
        with pytest.raises(ZeroDivisionError):
            poly.vanish_at_root([Poly1([1])], Poly1([]), RootInterval(Fraction(1), Fraction(2)))
