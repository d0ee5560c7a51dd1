"""Laurent series arithmetic and truncation-floor bookkeeping."""

import os
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ellstab
from ellstab.errors import DomainError
from ellstab.ring import _over_common_denominator
from ellstab.series import LaurentSeries, _product_floor

from conftest import truncate


def s(*terms, trunc=None):
    return LaurentSeries(terms, trunc)


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def series_strategy():
    term = st.tuples(st.integers(min_value=-6, max_value=6), rationals)
    return st.builds(lambda ts: LaurentSeries(ts), st.lists(term, max_size=5))


def truncated_series_strategy():
    """Series with an optional floor, built through the public constructor
    (so terms drawn below the floor are dropped)."""
    term = st.tuples(st.integers(min_value=-6, max_value=6), rationals)
    floor = st.none() | st.integers(min_value=-6, max_value=4)
    return st.builds(LaurentSeries, st.lists(term, max_size=6), floor)


nonzero_rationals = rationals.filter(lambda q: q != 0)


def _max_floor(a, b):
    floors = [f for f in (a.trunc, b.trunc) if f is not None]
    return max(floors) if floors else None


def _public_sum(a, b):
    return LaurentSeries(a.terms + b.terms, _max_floor(a, b))


def _public_product(a, b):
    floor = _product_floor(a, b)
    return LaurentSeries([(e1 + e2, c1 * c2) for e1, c1 in a.terms for e2, c2 in b.terms], floor)


def assert_stored_form(x):
    exps = [e for e, _ in x.terms]
    assert all(e1 > e2 for e1, e2 in zip(exps, exps[1:]))
    assert all(c != 0 for _, c in x.terms)
    assert all(type(c) is Fraction for _, c in x.terms)
    assert x.trunc is None or all(e >= x.trunc for e in exps)


@settings(max_examples=300)
@given(a=truncated_series_strategy(), b=truncated_series_strategy(), q=nonzero_rationals)
def test_truncated_arithmetic_matches_public_constructor(a, b, q):
    negated = LaurentSeries([(e, -c) for e, c in b.terms], b.trunc)
    negated_a = LaurentSeries([(e, -c) for e, c in a.terms], a.trunc)
    cases = [
        (a * b, _public_product(a, b)),
        (a + b, _public_sum(a, b)),
        (a - b, _public_sum(a, negated)),
        (-a, negated_a),
        (a * q, LaurentSeries([(e, c * q) for e, c in a.terms], a.trunc)),
        (q * a, LaurentSeries([(e, c * q) for e, c in a.terms], a.trunc)),
        (a / q, LaurentSeries([(e, c / q) for e, c in a.terms], a.trunc)),
        (a.scale(q), LaurentSeries([(e, c * q) for e, c in a.terms], a.trunc)),
        (a + q, _public_sum(a, LaurentSeries.const(q))),
        (q + a, _public_sum(a, LaurentSeries.const(q))),
        (a - q, _public_sum(a, LaurentSeries.const(-q))),
        (q - a, _public_sum(negated_a, LaurentSeries.const(q))),
    ]
    for got, expected in cases:
        assert got == expected
        assert_stored_form(got)


def assert_canonical(x):
    """The stored integer form: nonzero numerators by descending exponent
    over a positive denominator sharing no factor with all of them."""
    assert x._den > 0
    assert gcd(x._den, *(n for _, n in x._nums)) == 1
    assert all(type(n) is int and n != 0 for _, n in x._nums)
    assert x.terms == tuple((e, Fraction(n, x._den)) for e, n in x._nums)
    assert_stored_form(x)
    assert x.leading() == (x.terms[0] if x.terms else None)
    for e, c in x.terms:
        assert x.coefficient(e) == c and type(x.coefficient(e)) is Fraction


@settings(max_examples=300)
@given(a=truncated_series_strategy(), b=truncated_series_strategy(), q=nonzero_rationals, k=st.integers(1, 36))
def test_stored_form_is_canonical(a, b, q, k):
    for x in (a, b, a * b, a + b, a - b, -a, a * q, a / q, truncate(a, -1), a * b - b * a):
        assert_canonical(x)
        # equal terms and floor give an equal series with an equal hash,
        # however the same rationals were written
        same = LaurentSeries(x.terms, x.trunc)
        scaled = LaurentSeries._ints({e: n * k for e, n in x._nums}, x._den * k, x.trunc)
        for y in (same, scaled):
            assert y == x and hash(y) == hash(x)
            assert y.terms == x.terms and y.trunc == x.trunc
    assert (a == b) == (a.terms == b.terms and a.trunc == b.trunc)


coefficients = st.just(Fraction(0)) | st.integers(-3, 3) | rationals


def _chained(const, pairs):
    out = LaurentSeries.const(const)
    for c, x in pairs:
        out = out + c * x
    return out


@settings(max_examples=300)
@given(const=st.just(Fraction(0)) | rationals,
       pairs=st.lists(st.tuples(coefficients, truncated_series_strategy()), max_size=5))
@example(const=Fraction(0), pairs=[])
@example(const=Fraction(3), pairs=[(Fraction(0), s((1, 2), trunc=-2)), (0, s((2, 1)))])
@example(const=Fraction(5, 2), pairs=[(Fraction(1, 3), s((4, 1), (2, 3), trunc=2))])
@example(const=Fraction(-1), pairs=[(2, s((3, 1), trunc=1)), (Fraction(-2), s((3, 1), trunc=-4))])
def test_combination_matches_chained_arithmetic(const, pairs):
    """One integer pass equals ``const + c1 * s1 + ...`` in stored form and
    floor, with the rationals passed as integers over one denominator: zero
    coefficients add exact zeros, and entries below the floor, the constant
    included, are dropped."""
    nums, den = _over_common_denominator([Fraction(const)] + [Fraction(c) for c, _ in pairs])
    got = LaurentSeries._combination(nums[0], zip(nums[1:], (x for _, x in pairs)), den)
    want = _chained(const, pairs)
    assert (got._nums, got._den, got.trunc) == (want._nums, want._den, want.trunc)
    assert_canonical(got)


def test_cancellation_reduces_the_denominator():
    x = s((1, Fraction(1, 6)), (0, Fraction(1, 2))) - s((1, Fraction(1, 6)))
    assert (x._nums, x._den) == (((0, 1),), 2)
    zero = x - s((0, Fraction(1, 2)))
    assert zero.is_stored_zero() and zero._den == 1 and zero == LaurentSeries.zero()


def test_terms_sorted_and_clean():
    x = s((2, 1), (5, 0), (-1, Fraction(1, 2)), (2, -1))
    assert x.terms == ((-1, Fraction(1, 2)),)


def test_truncation_drops_low_terms():
    x = s((1, 1), (-3, 2), trunc=-2)
    assert x.terms == ((1, 1),)
    assert x.trunc == -2


def test_add_floor_is_max():
    x = s((0, 1), trunc=-4) + s((1, 2), trunc=-2)
    assert x.trunc == -2
    assert x.terms == ((1, 2), (0, 1))


def test_mul_floor():
    x = s((0, 1), (-2, 1), trunc=-4)
    y = s((1, 3))
    z = x * y
    assert z.trunc == -3
    assert z.terms == ((1, 3), (-1, 3))


def test_mul_by_zero_scalar_is_exact_zero():
    x = s((0, 1), trunc=-4)
    z = x * Fraction(0)
    assert z.is_stored_zero() and z.is_exact()
    # no series equals a number, zero included: a zero germ with a floor is
    # a coordinate that a product keeps, not an exact zero it may drop
    floored = LaurentSeries.zero(-2)
    assert floored != 0 and LaurentSeries.zero() != 0 and z != Fraction(0)
    assert floored and (floored or None) is floored  # truthy: its floor is carried, not dropped


def test_zero_times_truncated_is_exact_zero():
    z = LaurentSeries.zero() * s((3, 1), trunc=-2)
    assert z.is_stored_zero() and z.is_exact()


def test_coefficient_below_floor_raises():
    x = s((0, 1), trunc=-2)
    assert x.coefficient(-2) == 0
    with pytest.raises(DomainError):
        x.coefficient(-3)


@settings(max_examples=150)
@given(a=series_strategy(), b=series_strategy(), c=series_strategy())
def test_exact_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=100)
@given(a=series_strategy(), b=series_strategy())
def test_eval_is_homomorphism_on_exact_series(a, b):
    v = Fraction(3, 2)
    assert (a + b).eval(v) == a.eval(v) + b.eval(v)
    assert (a * b).eval(v) == a.eval(v) * b.eval(v)


def test_stored_coefficients_survive_truncated_multiplication():
    """Coefficients above the product floor match the exact product."""
    exact_u = s((-1, Fraction(2, 3)), (-3, Fraction(1, 9)), (-5, Fraction(4, 27)))
    trunc_u = truncate(exact_u, -4)
    w = s((2, 1), (1, -2), (0, 3))
    full = exact_u * w
    part = trunc_u * w
    assert part.trunc is not None
    for e, coeff in part.terms:
        assert full.coefficient(e) == coeff


def test_hash_is_the_same_in_every_process():
    """Exact and truncated series hash alike in two interpreters with one
    hash seed: the hash of an exact series does not include hash(None),
    which is an address before Python 3.12.  Equal series hash equal."""
    assert LaurentSeries.const(1) == s((0, 2)) * Fraction(1, 2)
    assert hash(LaurentSeries.const(1)) == hash(s((0, 2)) * Fraction(1, 2))
    assert hash(s((1, 3), trunc=-2)) == hash(s((1, 3), (-5, 1), trunc=-2))
    code = (
        "from ellstab.series import LaurentSeries as L\n"
        "print(hash(L.const(1)), hash(L.zero()), hash(L([(2, 1), (-1, 3)])),"
        " hash(L([(2, 1)], -4)), hash(L.zero(-2)))"
    )
    src = str(Path(ellstab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": "0"}
    outs = {
        subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env).stdout
        for _ in range(2)
    }
    assert len(outs) == 1
