"""Small exact polynomial toolkit.

Univariate polynomials (``Poly1``) and bivariate polynomials in (u, v)
(``Poly2``, used both numerically and as symbolic ring scalars) over the
rationals, held under the storage rule of ``ring._IntegerForm``.
Root isolation divides out the power of x first and runs on one signed
remainder sequence per polynomial (its last term, gcd(p, p') up to a
constant, gives the squarefree part), and refinement by sign on the dyadic
grid of bisection (a degree-1 or degree-2 cell written down in closed form,
by a floor division or an integer square root; quadratic interval
refinement, secant guesses checked by exact signs, above that; either way
the bisection's output, certified by exact signs), no floating point
anywhere.  Remainder sequences are integer pseudo-remainders, each member
up to a positive factor, so root counts and Sturm-Tarski signs read integer
values at each rational point, as the refinement does on an integer Taylor
shift of the polynomial; whether several polynomials all vanish at a
bracketed root is one gcd of their remainders and one Sturm count of it.
Isolation counts at the integer pairs of its dyadic cells of (0, B], each
point once, and builds Fractions only for the ends it returns.  Reduction
modulo a polynomial in u and the norm over Q(v) work on u-rows, integer
coefficient rows in v: each elimination step multiplies by the least
integer that makes the division of the top row by the lead row exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, isqrt, lcm

from .errors import ComputationFault, CurveDomainError
from .ring import _RATIONAL, _IntegerForm, _over_common_denominator, _q


class Poly1(_IntegerForm):
    """Univariate polynomial over the rationals: its numerators by ascending
    power, trailing zeros trimmed (zero is ((), 1)).  Evaluation works on
    integers; ``c``, the ``Fraction`` coefficients, is built on first read.
    ``__init__`` takes ints, Fractions and numeric strings."""

    __slots__ = ("_nums", "_den", "_c")

    def __init__(self, coeffs):
        self._store(*_over_common_denominator([_exact(x) for x in coeffs]))

    def _store(self, nums, den: int) -> None:
        """Hold sum nums[i]/den x^i: trailing zeros trimmed, content-reduced."""
        nums = list(nums)
        while nums and not nums[-1]:
            nums.pop()
        g = gcd(den, *nums)
        if g != 1:
            nums = [n // g for n in nums]
            den //= g
        self._nums, self._den, self._c = tuple(nums), den, None

    @property
    def c(self) -> tuple:
        """The coefficients, ascending, as Fractions."""
        if self._c is None:
            self._c = tuple(Fraction(n, self._den) for n in self._nums)
        return self._c

    @classmethod
    def const(cls, value) -> "Poly1":
        return cls([value])

    @property
    def degree(self) -> int:
        return len(self._nums) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self._nums

    def __bool__(self) -> bool:
        return bool(self._nums)

    def _constant(self):
        return self._nums[0] if self._nums else 0

    def _add(self, other, sign: int):
        if isinstance(other, Poly1):
            nums, oden = other._nums, other._den
        elif isinstance(other, _RATIONAL):
            nums, oden = (other.numerator,), other.denominator
        else:
            return NotImplemented
        den = lcm(self._den, oden)
        f1, f2 = den // self._den, sign * (den // oden)
        out = [n * f1 for n in self._nums] + [0] * (len(nums) - len(self._nums))
        for i, n in enumerate(nums):
            out[i] += n * f2
        return Poly1._ints(out, den)

    def __neg__(self):
        return Poly1._ints([-n for n in self._nums], self._den)

    def __mul__(self, other):
        if isinstance(other, Poly1):
            return Poly1._ints(_convolve(self._nums, other._nums), self._den * other._den)
        if isinstance(other, _RATIONAL):
            return self._times(other.numerator, other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def _times(self, p: int, q: int) -> "Poly1":
        return Poly1._ints([n * p for n in self._nums], self._den * q)

    def __call__(self, x):
        """The value at a rational x = n/d: d^k p(x) summed in integers, one Fraction."""
        nums = self._nums
        if not nums:
            return Fraction(0)
        d = x.denominator
        return Fraction(_horner(nums, x.numerator, d), self._den * d ** (len(nums) - 1))

    def derivative(self) -> "Poly1":
        return Poly1._ints([i * n for i, n in enumerate(self._nums)][1:], self._den)


def _exact(x) -> Fraction:
    """An exact polynomial coefficient as a Fraction: an int, a Fraction or a
    numeric string; anything else (a float above all) is refused."""
    if isinstance(x, _RATIONAL) or isinstance(x, str):
        return _q(x)
    raise TypeError(f"exact polynomial coefficients are int, Fraction or str, not {type(x).__name__}")


def _convolve(a, b) -> list[int]:
    """The product of two integer coefficient rows (ascending)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _horner(c, n: int, d: int) -> int:
    """d^k c(n/d) for a nonzero integer row c of degree k: the integer sum
    of c_i n^i d^(k-i)."""
    value, scale = c[-1], d
    for i in range(len(c) - 2, -1, -1):
        value = value * n + c[i] * scale
        scale *= d
    return value


def sturm_chain(p: Poly1, second: Poly1 | None = None) -> list[tuple[int, ...]]:
    """p, then ``second`` (p' by default), then each negated remainder of
    the last two: the signed remainder sequence, nonzero terms only, each
    up to a positive factor, as primitive integer coefficients (ascending).

    The remainders are pseudo-remainders: eliminating a top coefficient c
    against the divisor's lead l multiplies the dividend by |l| / gcd(l, c)
    first, so no step divides, and the content goes after each step.
    """
    chain = [_primitive(p), _primitive(p.derivative() if second is None else second)]
    while len(chain[-1]) > 1:
        r = _negated_remainder(chain[-2], chain[-1])
        if not r:
            break
        chain.append(r)
    return [q for q in chain if q]


def _primitive(p: Poly1) -> tuple[int, ...]:
    """p times the positive rational that makes its coefficients coprime
    integers (() for the zero polynomial)."""
    content = gcd(*p._nums)
    return p._nums if content == 1 else tuple(n // content for n in p._nums)


def _negated_remainder(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """-(a mod b) up to a positive factor, primitive; b has degree >= 1."""
    r = list(a)
    lead, db = b[-1], len(b) - 1
    for top in range(len(r) - 1, db - 1, -1):
        c = r.pop()
        if c == 0:
            continue
        g = gcd(lead, c)
        m, c = abs(lead) // g, (c if lead > 0 else -c) // g  # m * old top = c * lead
        shift = top - db
        r = [m * x for x in r]
        for j in range(db):
            r[shift + j] -= c * b[j]
    while r and r[-1] == 0:
        r.pop()
    content = gcd(*r)
    return tuple(-x // content for x in r)


def _squarefree_chain(p: Poly1) -> list[tuple[int, ...]]:
    """The Sturm chain of p's squarefree part, that part first ([] for p = 0)."""
    chain = sturm_chain(p)
    if chain and len(chain[-1]) > 1:  # p / gcd(p, p'), up to a positive factor
        chain = sturm_chain(Poly1._ints(_exact_quotient(p._nums, chain[-1])[1], 1))
    return chain


def _sign_variations(chain, n: int, d: int) -> int:
    """Sign changes along the chain at x = n/d, d > 0: each member of
    degree k is read as the integer sum of c_i n^i d^(k-i), which has the
    sign of its value at x."""
    return _variations_after(_horner(chain[0], n, d), chain, n, d) if chain else 0


def _variations_after(head: int, chain, n: int, d: int) -> int:
    """``_sign_variations`` given head, the first member's value there."""
    last = (head > 0) - (head < 0)
    count = 0
    for k in range(1, len(chain)):
        value = _horner(chain[k], n, d)
        if value:
            sign = 1 if value > 0 else -1
            count += sign == -last
            last = sign
    return count


def count_roots(p: Poly1, lo: Fraction, hi: Fraction, chain=None) -> int:
    """Number of distinct real roots of p in the half-open interval (lo, hi]."""
    if chain is None:
        chain = _squarefree_chain(p)
    return (_sign_variations(chain, lo.numerator, lo.denominator)
            - _sign_variations(chain, hi.numerator, hi.denominator))


def _isolates_one_root(p: Poly1, lo: Fraction, hi: Fraction) -> bool:
    """Whether (lo, hi] holds exactly one root of p and neither end is a
    root, on one squarefree chain: its head, which has p's roots, is read
    at each end first, and a zero there is a root at that end."""
    chain = _squarefree_chain(p)
    if not chain:
        return False  # p = 0: every point is a root
    variations = []
    for x in (lo, hi):
        n, d = x.numerator, x.denominator
        head = _horner(chain[0], n, d)
        if not head:
            return False
        variations.append(_variations_after(head, chain, n, d))
    return variations[0] - variations[1] == 1


def sign_at_root(q: Poly1, p: Poly1, bracket: RootInterval) -> int:
    """Exact sign of q at the one root of p in a bracket: lo itself when the
    bracket is exact, else the one root inside ends that are not roots of p.
    Sturm-Tarski: across (lo, hi) the sign variations of the signed
    remainders of p and p' q (mod p) drop by the sum of sign q(x) over the
    distinct roots x of p there.

    The chain is taken in integers, each member up to a positive factor,
    which changes no sign: with P and Q the primitive rows of p and q,
    -NR(Q, P) is a positive multiple of q mod p (NR the negated
    pseudo-remainder of ``_negated_remainder``), so NR(P' NR(Q, P), P) is
    one of p' q mod p; q = 0 mod p gives 0.
    """
    if bracket.exact:
        return _sign(q(bracket.lo))
    P = _primitive(p)
    if not P:
        raise ZeroDivisionError("polynomial division by zero")
    r = _negated_remainder(_primitive(q), P)
    if not r:
        return 0
    dP = [i * n for i, n in enumerate(P)][1:]
    chain = sturm_chain(p, Poly1._ints(_negated_remainder(_convolve(dP, r), P), 1))
    lo, hi = bracket.lo, bracket.hi
    return (_sign_variations(chain, lo.numerator, lo.denominator)
            - _sign_variations(chain, hi.numerator, hi.denominator))


def vanish_at_root(qs, p: Poly1, bracket: RootInterval) -> bool:
    """Whether every polynomial of qs vanishes at the one root of p in a
    bracket, taken as ``sign_at_root`` takes it.

    The remainders of the qs mod p fold into one gcd g with p, each taken
    mod the gcd so far (Euclid on ``_negated_remainder``, every member up
    to a nonzero factor), so g's roots are the roots of p where every q
    vanishes.  A constant g ends the fold with False; a g still equal to p
    gives True; otherwise one Sturm count of g on (lo, hi], whose ends are
    no roots of p and so none of g, decides.
    """
    if bracket.exact:
        return all(not q(bracket.lo) for q in qs)
    P = _primitive(p)
    if not P:
        raise ZeroDivisionError("polynomial division by zero")
    g = P
    for q in qs:
        r = _negated_remainder(_primitive(q), g)
        while r:  # g <- gcd(g, r)
            if len(r) == 1:
                return False
            g, r = r, _negated_remainder(g, r)
    if g is P:
        return True
    g = Poly1._ints(g, 1)
    return count_roots(g, bracket.lo, bracket.hi, sturm_chain(g)) > 0


@dataclass(frozen=True)
class RootInterval:
    """A certified root enclosure [lo, hi]; lo == hi means an exact root."""

    lo: Fraction
    hi: Fraction

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    def __contains__(self, x) -> bool:
        return self.lo <= x <= self.hi


def isolate_positive_roots(p: Poly1, precision: Fraction) -> list[RootInterval]:
    """All positive real roots of p, each bracketed to the given width.

    p = x^k f with f(0) != 0 loses x^k first, which has no positive root
    and no sign change on (0, B].  Sturm counting on f's squarefree part
    isolates the roots in the cells (B m / 2^j, B (m + 1) / 2^j] of (0, B],
    B = Bn / Bd its Cauchy bound, which is also that of p's squarefree
    part (x times f's); each isolating cell is then refined on the dyadic
    grid by the sign of f's part alone, so every returned interval is
    certified exactly, and 0 stays a root that no bracket touches.  The
    counts are taken in integers at the pairs (Bn m, Bd 2^j), each point
    once, and only the returned ends are built as Fractions.
    """
    return _isolated_roots(p, precision, None)


def _isolated_roots(p: Poly1, precision, vrange: tuple | None) -> list[RootInterval]:
    """``isolate_positive_roots``, with the cells that miss the closed
    range vrange = (vmin, vmax), if one is given, dropped before they are
    counted or refined.  Every cell that meets the range is split and
    refined as without it, so the brackets that meet the range are the
    same; a bracket outside it may still be returned."""
    precision = _positive(precision)
    nums, k = p._nums, 0
    while k < len(nums) and not nums[k]:
        k += 1
    chain = _squarefree_chain(Poly1._ints(nums[k:], 1) if k else p)
    if not chain or len(chain[0]) < 2:
        return []
    sqf = chain[0]
    bn, bd = _cauchy_bound(sqf)
    if vrange is not None:
        (a, b), (c, e) = ((x.numerator, x.denominator) for x in vrange)
    sqf_poly = Poly1._ints(sqf, 1)
    out: list[RootInterval] = []
    # Each pending cell (m, j) carries the sign variations at its ends and
    # whether its ends are roots of p (0 is when k > 0).  A cell is taken
    # only when neither end is, so no bracket touches a root that is
    # reported exactly, and no root is reported twice.
    stack = [(0, 0, _sign_variations(chain, 0, bd), _sign_variations(chain, bn, bd), k > 0, False)]
    while stack:
        m, j, at_lo, at_hi, lo_root, hi_root = stack.pop()
        if vrange is not None and (bn * (m + 1) * b < a * (bd << j) or bn * m * e > c * (bd << j)):
            continue  # the closed cell [B m / 2^j, B (m + 1) / 2^j] misses the range
        k = at_lo - at_hi - hi_root
        if k == 0:
            continue
        if k == 1 and not (lo_root or hi_root):
            out.append(_refined(sqf_poly, bn * m, bn, bd << j, precision))
            continue
        n, d = bn * (2 * m + 1), bd << (j + 1)
        head = _horner(sqf, n, d)
        at_mid, mid_root = _variations_after(head, chain, n, d), head == 0
        if mid_root:
            root = Fraction(n, d)
            out.append(RootInterval(root, root))
        stack.append((2 * m, j + 1, at_lo, at_mid, lo_root, mid_root))
        stack.append((2 * m + 1, j + 1, at_mid, at_hi, mid_root, hi_root))
    out.sort(key=lambda r: r.lo)
    return out


def _positive(precision) -> Fraction:
    """The precision as a Fraction; a width <= 0 is never reached, so refused."""
    precision = _q(precision)
    if precision <= 0:
        raise CurveDomainError("precision must be positive")
    return precision


def _root_bound(p: Poly1) -> Fraction:
    """Cauchy's bound 1 + max |p_i| / |lead|, above every |root| of p."""
    return Fraction(*_cauchy_bound(p._nums))


def _cauchy_bound(c) -> tuple[int, int]:
    """Cauchy's bound of a nonzero integer row as (numerator, denominator)."""
    lead = abs(c[-1])
    return lead + max(map(abs, c)), lead


def refine_root(p: Poly1, bracket: RootInterval, precision: Fraction) -> RootInterval:
    """Shrink an isolating bracket of a root of p to the given width.

    A Sturm count on p's squarefree part first certifies that (lo, hi] holds
    exactly one root; the refinement after it needs only signs of that part.
    """
    precision = _positive(precision)
    if bracket.exact:
        return bracket
    chain = _squarefree_chain(p)
    lo, hi = bracket.lo, bracket.hi
    if count_roots(p, lo, hi, chain) != 1:
        raise CurveDomainError("bracket does not isolate a single root")
    return _bisect_by_sign(Poly1._ints(chain[0], 1), lo, hi, precision)


def _bisect_by_sign(p: Poly1, lo: Fraction, hi: Fraction, precision) -> RootInterval:
    """Refine (lo, hi], which holds exactly one root of the squarefree p,
    to the dyadic cell of width (hi - lo) / 2^J no wider than precision, by
    quadratic interval refinement (Abbott, 2006) on the bisection's grid;
    a grid point that is a root collapses it.

    Works on integer numerators over one denominator, lo = A/D and
    hi - lo = W/D, and on q(t), a positive multiple of p(lo + (hi - lo) t)
    with integer coefficients (``_shifted``), at dyadic points t = m / 2^j,
    where 2^(jd) q(t) is the integer sum of q_i m^i 2^(j(d-i)).  A root at
    lo is divided out of q (a factor t, positive on the cell), so the
    current cell always has ends of opposite exact signs and the root
    strictly inside.  Each step splits the cell into N = 2^k sub-cells and
    takes the one the secant through the end values points at (an integer
    floor division), if its ends have opposite signs; k then doubles.
    Otherwise the cell is bisected and k halves, down to 2.  The level
    never passes J.  Only the returned ends are built as Fractions, each
    (A 2^j + W m) / (D 2^j) (``_grid``).  When q, after the root at lo is
    divided out, has degree 1 or 2, the level-J cell is written down
    instead (``_closed_cell``), with no refinement step.

    The output is bisection's, which is unique: [hi - step, hi] for
    step = (hi - lo) / 2^J if hi is the root; else the root itself if it is
    a grid point of level at most J, and otherwise the level-J cell holding
    it.  The root stays strictly inside the cell, and no grid point of
    level at most J lies strictly inside a level-J cell, so a root on the
    grid is met by an evaluation before the level reaches J.
    """
    den = lcm(lo.denominator, hi.denominator)
    base = lo.numerator * (den // lo.denominator)
    return _refined(p, base, hi.numerator * (den // hi.denominator) - base, den, precision)


def _refined(p: Poly1, base: int, width: int, den: int, precision) -> RootInterval:
    """``_bisect_by_sign`` on the cell lo = base/den, hi - lo = width/den
    given as integers, building Fractions only for the returned ends."""
    wide = width * precision.denominator
    narrow = precision.numerator * den
    top = max(0, wide.bit_length() - narrow.bit_length())  # J: the least with wide <= narrow << J
    if narrow << top < wide:
        top += 1
    if top == 0:
        return RootInterval(_grid(base, width, den, 0, 0), _grid(base, width, den, 1, 0))
    q = _shifted(p, base, width, den)
    if sum(q) == 0:  # hi is the root: no sign change inside, bisection keeps right
        return RootInterval(_grid(base, width, den, (1 << top) - 1, top), _grid(base, width, den, 1, 0))
    while q[0] == 0:  # lo is a root: q / t has q's signs on the cell
        q = q[1:]
    d = len(q) - 1
    if d <= 2:
        return _closed_cell(q, base, width, den, top)

    def value(m: int, j: int) -> int:
        acc = q[d]
        for i in range(d - 1, -1, -1):
            acc = acc * m + (q[i] << (j * (d - i)))
        return acc

    m = j = 0  # the cell is t in [m / 2^j, (m + 1) / 2^j]
    a, b, k = q[0], sum(q), 2  # q at the cell's ends, times 2^(jd)
    while j < top:
        k = min(k, top - j)
        if k > 1:
            n = 1 << k
            i = n * a // (a - b)
            left = a << (k * d) if i == 0 else value(m * n + i, j + k)
            right = b << (k * d) if i == n - 1 else value(m * n + i + 1, j + k)
            if left == 0 or right == 0:
                root = _grid(base, width, den, m * n + i + (left != 0), j + k)
                return RootInterval(root, root)
            if (left > 0) != (right > 0):
                m, j, a, b, k = m * n + i, j + k, left, right, 2 * k
                continue
            k = max(2, k // 2)
        mid = value(2 * m + 1, j + 1)
        if mid == 0:
            root = _grid(base, width, den, 2 * m + 1, j + 1)
            return RootInterval(root, root)
        if (mid > 0) == (a > 0):
            m, a, b = 2 * m + 1, mid, b << d
        else:
            m, a, b = 2 * m, a << d, mid
        j += 1
    return RootInterval(_grid(base, width, den, m, top), _grid(base, width, den, m + 1, top))


def _closed_cell(q: list[int], base: int, width: int, den: int, top: int) -> RootInterval:
    """``_refined``'s output for q of degree 1 or 2 with q(0) q(1) < 0, so
    one root t* in (0, 1): with M = 2^J t*, the collapsed grid point M when
    M is an integer, else the cell [floor(M), floor(M) + 1] / 2^J, as
    ``_closed_floor`` writes it down.  The cell is certified by the exact
    values of Q(x) = 2^(Jd) q(x / 2^J) at its ends, zero at a collapsed
    point and of opposite signs otherwise; a failed certificate raises
    ``ComputationFault``."""
    if q[-1] < 0:
        q = [-x for x in q]
    m, exact = _closed_floor(q, top)
    scale = 1 << top
    at_m = _horner(q, m, scale)
    if exact:
        if at_m or not 0 < m < scale:
            raise ComputationFault("closed-form root fails its exact certificate")
        root = _grid(base, width, den, m, top)
        return RootInterval(root, root)
    at_next = _horner(q, m + 1, scale)
    if not (0 <= m < scale and at_m and at_next and (at_m > 0) != (at_next > 0)):
        raise ComputationFault("closed-form cell fails its exact sign certificate")
    return RootInterval(_grid(base, width, den, m, top), _grid(base, width, den, m + 1, top))


def _closed_floor(q: list[int], top: int) -> tuple[int, bool]:
    """floor(M) and whether M is an integer, for M = 2^J t*, t* the root in
    (0, 1) of q of degree 1 or 2 with q(0) q(1) < 0 and a positive lead.

    Degree 1: M = -q0 2^J / q1, one floor division.  Degree 2, with
    Q(x) = 2^(2J) q(x / 2^J) = a x^2 + b x + c: M = (-b + e s) / 2a for
    s = sqrt(D), D = b^2 - 4ac, with e = 1 if q0 < 0 (q is negative from 0
    up to its larger root) and e = -1 if q0 > 0 (positive up to its smaller
    root).  For r = isqrt(D) that is (-b + e r) / 2a when D = r^2;
    otherwise s lies strictly between r and r + 1, so -b + e s lies
    strictly between the integers N = -b + e r - (1 if e < 0) and N + 1,
    and no multiple of 2a does, whence floor(M) = floor(N / 2a)."""
    if len(q) == 2:
        m, rest = divmod(-q[0] << top, q[1])
        return m, not rest
    a, b, c = q[2], q[1] << top, q[0] << (2 * top)
    disc = b * b - 4 * a * c
    r = isqrt(disc)
    if r * r == disc:
        m, rest = divmod(-b + r if q[0] < 0 else -b - r, 2 * a)
        return m, not rest
    return (-b + r if q[0] < 0 else -b - r - 1) // (2 * a), False


def _grid(base: int, width: int, den: int, m: int, j: int) -> Fraction:
    """The grid point lo + (hi - lo) m / 2^j, for lo = base/den and
    hi - lo = width/den."""
    return Fraction((base << j) + width * m, den << j)


def _shifted(p: Poly1, base: int, width: int, den: int) -> list[int]:
    """Primitive integer coefficients (ascending) of a positive multiple of
    p(lo + (hi - lo) t), for lo = A/D and hi - lo = W/D (``base``, ``width``
    and ``den``): with p's coefficients cleared to integers P_i, the t^k
    coefficient of D^n p(lo + (hi - lo) t) is
    W^k sum_(i>=k) C(i, k) P_i A^(i-k) D^(n-i), which is P_k W^k D^(n-k)
    when lo = 0, as on every curve bracket."""
    c = _primitive(p)
    n = len(c) - 1
    if base == 0:
        q = [x * width**k * den ** (n - k) for k, x in enumerate(c)]
    else:
        q = [width**k * sum(comb(i, k) * c[i] * base ** (i - k) * den ** (n - i) for i in range(k, n + 1))
             for k in range(n + 1)]
    content = gcd(*q)
    return [x // content for x in q]


def _sign(x) -> int:
    return (x > 0) - (x < 0)


class Poly2(_IntegerForm):
    """Bivariate polynomial in (u, v) with rational coefficients: its
    numerators by monomial (i, j), for u^i v^j (zero is ({}, 1)).
    ``eval`` sums them at a rational point in integers (``_evaluated``),
    and ``eval_v`` hands an integer row to ``Poly1._ints``;
    ``terms``, the {(i, j): Fraction} view, is built on first use and
    cached.  ``__init__`` builds a polynomial from such a view.

    Also usable as a generic scalar inside the cohomology arithmetic, which
    turns ring computations into symbolic identities in (u, v).
    """

    __slots__ = ("_nums", "_den", "_terms")

    def __init__(self, terms: dict | None = None):
        values = {key: _exact(val) for key, val in terms.items()} if terms else {}
        nums, den = _over_common_denominator(values.values())
        self._store(dict(zip(values, nums)), den)

    def _store(self, nums: dict, den: int) -> None:
        """Hold sum nums[key]/den: nonzero numerators, content-reduced."""
        nums = {key: n for key, n in nums.items() if n}
        g = gcd(den, *nums.values())
        if g != 1:
            nums = {key: n // g for key, n in nums.items()}
            den //= g
        self._nums, self._den, self._terms = nums, den, None

    @property
    def terms(self) -> dict:
        """The nonzero coefficients, as {(i, j): Fraction}."""
        if self._terms is None:
            den = self._den
            self._terms = {key: Fraction(n, den) for key, n in self._nums.items()}
        return self._terms

    @classmethod
    def const(cls, value) -> "Poly2":
        return cls({(0, 0): value})

    @classmethod
    def u(cls) -> "Poly2":
        return cls._ints({(1, 0): 1}, 1)

    @classmethod
    def v(cls) -> "Poly2":
        return cls._ints({(0, 1): 1}, 1)

    def is_zero(self) -> bool:
        return not self._nums

    def __bool__(self) -> bool:
        return bool(self._nums)

    def _constant(self):
        return self._nums.get((0, 0)) if self._nums else 0

    def _add(self, other, sign: int):
        if isinstance(other, Poly2):
            nums, oden = other._nums, other._den
        elif isinstance(other, _RATIONAL):
            nums, oden = {(0, 0): other.numerator}, other.denominator
        else:
            return NotImplemented
        den = lcm(self._den, oden)
        f1, f2 = den // self._den, sign * (den // oden)
        out = {key: n * f1 for key, n in self._nums.items()}
        for key, n in nums.items():
            out[key] = out[key] + n * f2 if key in out else n * f2
        return Poly2._ints(out, den)

    def __neg__(self):
        return Poly2._ints({key: -n for key, n in self._nums.items()}, self._den)

    def __mul__(self, other):
        if isinstance(other, Poly2):
            return Poly2._ints(_monomial_product(self._nums, other._nums), self._den * other._den)
        if isinstance(other, _RATIONAL):
            return self._times(other.numerator, other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def _times(self, p: int, q: int) -> "Poly2":
        return Poly2._ints({key: n * p for key, n in self._nums.items()}, self._den * q)

    def eval(self, u, v) -> Fraction:
        return _evaluated(self._nums, self._den, _q(u), _q(v))

    def eval_v(self, v) -> Poly1:
        """Substitute a rational v, leaving a univariate polynomial in u."""
        v = _q(v)
        top = max((j for _, j in self._nums), default=0)
        p, q = v.numerator, v.denominator
        powers = [p**j * q ** (top - j) for j in range(top + 1)]  # v^j times q^top
        coeffs = [0] * (self.udegree() + 1)
        for (i, j), n in self._nums.items():
            coeffs[i] += n * powers[j]
        return Poly1._ints(coeffs, self._den * q**top)

    def udegree(self) -> int:
        return max((i for (i, _) in self._nums), default=-1)


def _evaluated(nums: dict, den: int, u, v) -> Fraction:
    """The value of the integer monomial row nums over den, sum n u^i v^j
    / den, at rational u = p/q and v = r/s: the sum cleared to integers
    over q^I s^J, for I and J the top powers of u and v, one Fraction."""
    (p, q), (r, s) = (u.numerator, u.denominator), (v.numerator, v.denominator)
    top_i = top_j = 0
    for i, j in nums:
        if i > top_i:
            top_i = i
        if j > top_j:
            top_j = j
    total = 0
    for (i, j), n in nums.items():
        total += n * p**i * q ** (top_i - i) * r**j * s ** (top_j - j)
    return Fraction(total, den * q**top_i * s**top_j)


def _monomial_product(a: dict, b: dict) -> dict:
    """The product of two integer monomial rows {(i, j): n} (n u^i v^j),
    by convolution; a term that cancels stays, as a zero."""
    out: dict = {}
    for (i1, j1), x in a.items():
        for (i2, j2), y in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out[key] + x * y if key in out else x * y
    return out


def reduce_mod_u(dividend: Poly2, divisor: Poly2) -> Poly2:
    """Remainder of dividend modulo divisor, eliminating the variable u.

    Works on the u-rows of both (``_urows``), integer coefficient rows in v
    over the dividend's den (``_reduced_rows``), and requires every
    elimination step to divide exactly in Q[v]; raises if it cannot (which
    never happens for the identities this package reduces).
    """
    return _reduced_mod_u(dividend._nums, dividend._den, divisor)


def _reduced_mod_u(nums: dict, den: int, divisor: Poly2) -> Poly2:
    """``reduce_mod_u`` of the dividend held as integers, its nonzero
    numerators nums over den: one ``Poly2``, the remainder."""
    p = _urows(divisor._nums)
    if not p:
        raise ZeroDivisionError("reduction modulo the zero polynomial")
    rows, scale = _reduced_rows(_urows(nums), p)
    return Poly2._ints({(i, j): n for i, row in enumerate(rows) for j, n in enumerate(row) if n}, den * scale)


def _urows(nums: dict) -> list[list[int]]:
    """Nonzero numerators {(i, j): n} by u-row: rows[i][j] at u^i v^j, each
    row ascending in v and free of trailing zeros, the top row nonzero."""
    rows: list[list[int]] = [[] for _ in range(max((i for i, _ in nums), default=-1) + 1)]
    for (i, j), n in nums.items():
        row = rows[i]
        if len(row) <= j:
            row.extend([0] * (j + 1 - len(row)))
        row[j] = n
    return rows


def _reduced_rows(rows: list[list[int]], p: list[list[int]]) -> tuple[list[list[int]], int]:
    """The u-rows of s times (rows mod p), zero top rows stripped, and the
    int s > 0, for integer u-rows with p's top row nonzero.  Each step
    takes the top row t: for s' t = q l in Q[v], l p's top row and s' > 0
    least (``_exact_quotient``, which raises where l does not divide t), it
    multiplies the other rows by s' and subtracts q u^(deg t - deg p) times
    p's lower rows, so the top row cancels; for a constant l, s' is |l|
    over its gcd with t's coefficients."""
    lead, d0 = p[-1], len(p) - 1
    rows, scale = list(rows), 1
    while rows and not any(rows[-1]):
        rows.pop()
    while len(rows) > d0:
        s, q = _exact_quotient(rows.pop(), lead)
        if s != 1:
            rows = [[s * x for x in row] for row in rows]
            scale *= s
        shift = len(rows) - d0
        for i, prow in enumerate(p[:-1]):
            if prow:
                rows[shift + i] = _added(rows[shift + i], _convolve(q, prow), -1)
        while rows and not any(rows[-1]):
            rows.pop()
    return rows, scale


def _exact_quotient(a: list[int], b: list[int]) -> tuple[int, list[int]]:
    """(s, q) with s a = q b for the least int s > 0, q an integer row,
    where the nonzero row b divides the row a as polynomials; otherwise
    ``ComputationFault``.  Each step multiplies by |lead| / gcd(lead, c)
    for the top coefficient c only, as ``_negated_remainder`` does."""
    lead, n = b[-1], len(b) - 1
    scale, r, q = 1, list(a), [0] * (len(a) - n)
    for k in range(len(a) - 1 - n, -1, -1):
        c = r.pop()
        if not c:
            continue
        g = gcd(lead, c)
        m, c = abs(lead) // g, (c if lead > 0 else -c) // g  # m * old top = c * lead
        if m != 1:
            scale *= m
            r = [m * x for x in r]
            q = [m * x for x in q]
        q[k] = c
        for j in range(n):
            r[k + j] -= c * b[j]
    if any(r):
        raise ComputationFault("non-exact coefficient division during reduction")
    return scale, q


def norm_mod_u(x: Poly2, p: Poly2) -> Poly1:
    """The norm R(v) of x modulo p over Q(v), for p of u-degree d >= 1, up
    to a nonzero rational factor.

    R is the determinant of the u-coefficients of u^i rho mod p,
    i = 0 .. d - 1, for rho = x mod p: multiplication by x on
    Q(v)[u]/(p) in the basis 1, u, ..., u^(d-1), whose determinant is the
    product of x over the roots of p, Res_u(x, p) over lead^(deg_u x) for
    p's u-lead (Collins, 1967).  Each dividend y is multiplied by lead^k
    first, k = deg_u y - d + 1, up to a constant (by the lead's primitive
    part, so not at all when the lead is constant), so that every
    elimination divides exactly.  So R is Res_u(x, p) times a constant
    when the lead is constant or d = 1 (the curves: a constant lead for
    h != 0, and c v^j with d = 1 at h = 0), and times a power of the lead
    otherwise.  R = 0 exactly when x = 0 mod p, if p is irreducible over
    Q(v).  All of it runs on integer u-rows (``_reduced_rows``), each
    reduction and the d x d determinant up to a positive factor.
    """
    prows = _urows(p._nums)
    d = len(prows) - 1
    if d < 1:
        raise ZeroDivisionError("norm modulo a polynomial free of u")
    content = gcd(*prows[-1])
    unit = [x // content for x in prows[-1]]  # the lead's primitive part

    def reduced(rows: list[list[int]]) -> list[list[int]]:
        if len(unit) > 1:
            for _ in range(len(rows) - d):
                rows = [_convolve(row, unit) for row in rows]
        return _reduced_rows(rows, prows)[0]

    y = reduced(_urows(x._nums))
    matrix = [y]
    for _ in range(d - 1):
        y = reduced([[]] + y)
        matrix.append(y)
    return Poly1._ints(_determinant([y + [[]] * (d - len(y)) for y in matrix]), 1)


def _determinant(m: list) -> list[int]:
    """Laplace expansion along the first row of a square matrix of integer
    rows (polynomials in v, ascending)."""
    if len(m) == 1:
        return m[0][0]
    out: list[int] = []
    for j, a in enumerate(m[0]):
        if a:
            minor = _determinant([row[:j] + row[j + 1:] for row in m[1:]])
            out = _added(out, _convolve(a, minor), -1 if j % 2 else 1)
    return out


def _added(row: list[int], term: list[int], sign: int) -> list[int]:
    """row + sign * term for integer rows, as a new list."""
    out = list(row) + [0] * (len(term) - len(row))
    for k, x in enumerate(term):
        out[k] += sign * x
    return out
