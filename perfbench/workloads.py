"""The benchmark's three workloads.

Each workload is a closed loop with one caller.  Its inputs come from the
seed alone.  Work is organised in *units*: one suite run (what one
``ellstab verify`` process does) or one query (what one ``ellstab curve
solve`` / ``compare`` / ``wall-scan`` process does).  Every unit starts with
the package's caches empty, as a fresh process does, so a caching change
gains only from reuse inside a unit.

An *operation* is one suite check (``SuiteReport.check``) or one query.
Each operation is timed, and counted as failed when its check fails, when
it raises, or when its output breaks a certified property (see checks.py).
"""

from __future__ import annotations

import random
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from fractions import Fraction

from checks import bracket_problem, curve_values, overlaps, roots_problem

from ellstab import asymptotics, config, curves, fmt, poly, slopes, suites
from ellstab.asymptotics import ChargeKind
from ellstab.ring import ChernVector, DivisorB, DivisorX

# The suites' own generators draw the benchmark's inputs too.
_rand_q = suites._rand_q
_rand_tilt = suites._rand_tilt

WORKLOADS = ("ring-identities", "germ-verdicts", "curve-queries")

# Passes per workload: the distinct work of one run, which the timed loop
# repeats and the traced run does once.
PASSES = {"ring-identities": 4, "germ-verdicts": 4, "curve-queries": 2}

# Nominal seconds of one round (every pass once) on a 2-vCPU x86 VM.  A run
# makes round(--seconds / this) rounds, a number that depends on the
# arguments alone, never on how fast the code under test is.
ROUND_SECONDS = {"ring-identities": 2.6, "germ-verdicts": 3.0, "curve-queries": 2.9}


def rounds(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


# Tail percentile per workload, fixed so that op_tail_ms means the same thing
# on every commit.  Each leaves at least 25 of the PASSES' operations beyond
# it (the count is printed) and falls inside one class of operations rather
# than between two, where a percentile jumps from run to run: h0 checks,
# order-16 threshold checks, 128-bit solves (just below the wall scans).
TAIL_PERCENTILE = {
    "ring-identities": 99.0,
    "germ-verdicts": 95.0,
    "curve-queries": 90.0,
}

# Units per pass of each workload (see the workload classes below).
RING_CASES = {"involution": 75, "swap": 100, "h0": 10, "im-identity": 50}
GERM_CASES = {"threshold": 20, "correspondence": 40, "compare": 30}
GERM_ORDERS = (8, 16)
# Equal-width v strata covering [1, 41): each pass queries every geometry and
# curve kind once per stratum, so v is uniform over the range as a whole but
# every pass gets the same spread of sizes.
V_STRATA = ((1, 9), (9, 17), (17, 25), (25, 33), (33, 41))
# Wall-scan pairs per pass: one expected to cross inside the range, one not.
WALL_PATTERN = (True, False)
WALL_RANGE = (Fraction(2), Fraction(10))
CHOW_SYMBOLIC_CASES = 4
WALL_SAMPLES = 8
WALL_PRECISION = Fraction(1, 2**10)
ISOLATE_PRECISION = Fraction(1, 2**64)


def _package_caches():
    seen = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "ellstab" or name.startswith("ellstab.")):
            continue
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                seen[id(value)] = value
    return list(seen.values())


@dataclass
class Recorder:
    """Latency samples and failure accounting for one measurement."""

    latencies: list = field(default_factory=list)
    kinds: list = field(default_factory=list)
    failed: int = 0
    wrong: int = 0  # failed operations whose output was wrong, not raised
    failures: list = field(default_factory=list)

    def op(self, kind: str, seconds: float, problem: str | None, raised: bool = False) -> None:
        self.latencies.append(seconds)
        self.kinds.append(kind)
        if problem is not None:
            self.failed += 1
            self.wrong += not raised
            if len(self.failures) < 8:
                self.failures.append(problem)

    @property
    def attempted(self) -> int:
        return len(self.latencies)


class Bench:
    """Shared machinery: cache clearing, the check clock and the tracer."""

    name = ""

    def __init__(self, seed: int, tracer=None):
        self.seed = seed
        self.rec = Recorder()
        self.tracer = tracer
        self._caches = _package_caches()
        self._last_check = None
        original = suites.SuiteReport.check
        bench = self

        def timed_check(report, ok, label):
            now = time.perf_counter()
            bench.rec.op(report.name, now - bench._last_check, None if ok else f"{report.name}: {label}")
            bench._last_check = now
            return original(report, ok, label)

        self._original_check = original
        suites.SuiteReport.check = timed_check

    def close(self) -> None:
        suites.SuiteReport.check = self._original_check

    def fresh_unit(self) -> None:
        """Empty every package cache, as at the start of a new process."""
        for cache in self._caches:
            cache.cache_clear()
        if self.tracer is not None:
            self.tracer.reset_reuse()

    def span(self, name):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def paused(self):
        return self.tracer.paused() if self.tracer is not None else nullcontext()

    @contextmanager
    def traced_setup(self):
        """Trace a set-up step (config parsing) when a tracer is attached."""
        if self.tracer is None:
            yield
            return
        self.tracer.on = True
        try:
            with self.tracer.span("op.setup"):
                yield
        finally:
            self.tracer.on = False

    def run_suite(self, runner, name: str, *args):
        """One suite run as one unit; its checks are the operations."""
        self.fresh_unit()
        self._last_check = time.perf_counter()
        try:
            with self.span("op.suite." + name):
                return runner(*args)
        except Exception as exc:  # the operation in progress failed
            self.rec.op(name, time.perf_counter() - self._last_check, f"{name}: {exc!r}", raised=True)
            return None

    def timed(self, kind: str, fn, *args):
        """One query as one unit; returns (result, seconds, error), the error
        describing an exception the query raised."""
        self.fresh_unit()
        start = time.perf_counter()
        try:
            with self.span("op." + kind):
                result = fn(*args)
        except Exception as exc:
            return None, time.perf_counter() - start, f"{kind}: {exc!r}"
        return result, time.perf_counter() - start, None

    def run_pass(self, k: int) -> None:
        raise NotImplementedError


def _sub_seed(seed: int, k: int) -> int:
    return seed * 100_003 + k


class RingIdentities(Bench):
    """involution, swap, h0 and im-identity suite runs, one of each per pass."""

    name = "ring-identities"

    def run_pass(self, k: int) -> None:
        s = _sub_seed(self.seed, k)
        self.run_suite(suites.suite_involution, "involution", RING_CASES["involution"], s)
        self.run_suite(suites.suite_swap, "swap", RING_CASES["swap"], s)
        self.run_suite(suites.suite_h0, "h0", RING_CASES["h0"], s, 8)
        self.run_suite(suites.suite_im_identity, "im-identity", RING_CASES["im-identity"], s)


# -- germ-verdicts ----------------------------------------------------------


@dataclass(frozen=True)
class ComparePair:
    """One ``compare`` query with the order the theorems predict.

    ``expected`` is "prec", "succ" or "not-strict" (neither strict order
    may be claimed; at a threshold boundary "any" accepts every verdict).
    """

    g: object
    m: ChernVector
    n: ChernVector
    curve: object
    kind: ChargeKind
    d: DivisorB | None
    expected: str


def _correspondence_pair(rng, i) -> ComparePair:
    """Transforms of two one-dimensional classes along the one-dimensional
    curve; the phase order equals the twisted slope order of the sources."""
    h = (Fraction(-1), Fraction(0))[i % 2]
    g = suites.geometry_for(h)
    while True:
        y, z = Fraction(rng.randint(1, 5)), Fraction(rng.randint(1, 5))
        if h + z / y > 0:
            break
    dbar = DivisorB([_rand_q(rng, -4, 4)])
    m = suites._rand_onedim_class(rng, g, y, z)
    n = suites._rand_onedim_class(rng, g, y, z) if i % 7 else m
    kind = slopes.SlopeKind.mu_bar(DivisorX(y, g.hb_divisor.scale(z)), dbar)
    mu_m, mu_n = slopes.slope(g, kind, m), slopes.slope(g, kind, n)
    expected = "prec" if mu_m < mu_n else "succ" if mu_n < mu_m else "not-strict"
    d = dbar + g.hb_divisor.scale(h / 2)
    curve = curves.OneDimCurve(h, y, z)
    return ComparePair(g, fmt.phi(g, m), fmt.phi(g, n), curve, ChargeKind.FULL, d, expected)


def _threshold_pair(rng, i) -> ComparePair:
    """A one-dimensional class against the shifted transform of a positive
    rank class along the tilt curve; the slope threshold decides the order."""
    h = (Fraction(-1), Fraction(0), Fraction(1, 2))[i % 3]
    g = suites.geometry_for(h)
    c = _rand_tilt(rng, h)
    zd = DivisorB.zero(1)
    t = ChernVector(0, 0, zd, DivisorB([Fraction(rng.randint(1, 6), rng.randint(1, 3))]),
                    _rand_q(rng), _rand_q(rng))
    e = ChernVector(Fraction(rng.randint(1, 5)), _rand_q(rng), DivisorB([_rand_q(rng)]),
                    DivisorB([_rand_q(rng)]), _rand_q(rng), _rand_q(rng))
    mu_t = slopes.slope(g, slopes.SlopeKind.mu_star_b(), t).finite
    obar = DivisorX(c.a, g.hb_divisor.scale(c.b))
    mu_e = slopes.slope(g, slopes.SlopeKind.mu_omega_b(obar, g.half_canonical_bfield()), e).finite
    threshold = 2 * mu_e / (c.a * (c.h * c.a + 2 * c.b) * g.hb2)
    expected = "prec" if mu_t < threshold else "succ" if mu_t > threshold else "any"
    return ComparePair(g, fmt.phi(g, t), -fmt.phi(g, e), c, ChargeKind.REDUCED, None, expected)


def compare_problem(pair: ComparePair, verdict) -> str | None:
    ok = {
        "prec": verdict.is_prec,
        "succ": verdict.is_succ,
        "not-strict": verdict.is_equalish,
        "any": verdict.is_prec or verdict.is_succ or verdict.is_equalish,
    }[pair.expected]
    return None if ok else f"compare: expected {pair.expected}, got {verdict.kind}"


class GermVerdicts(Bench):
    """threshold and correspondence suite runs at order 8 and again at 16,
    then ``compare`` queries on pairs drawn the same way."""

    name = "germ-verdicts"
    POOL = PASSES["germ-verdicts"] * GERM_CASES["compare"]

    def __init__(self, seed: int, tracer=None):
        super().__init__(seed, tracer)
        rng = random.Random(seed)
        makers = (_correspondence_pair, _threshold_pair)
        self.pairs = [makers[i % 2](rng, i // 2) for i in range(self.POOL)]

    def run_pass(self, k: int) -> None:
        # The same cases run at each order.  These two suites record only
        # whether each check passed, so the verdicts at orders 8 and 16 agree
        # exactly when both runs pass their checks.
        s = _sub_seed(self.seed, k)
        for order in GERM_ORDERS:
            self.run_suite(suites.suite_threshold, "threshold", GERM_CASES["threshold"], s, order)
            self.run_suite(suites.suite_correspondence, "correspondence",
                           GERM_CASES["correspondence"], s, order)
        n = GERM_CASES["compare"]
        for j in range(n):
            pair = self.pairs[k * n + j]
            verdict, seconds, error = self.timed(
                "compare", asymptotics.compare_vectors,
                pair.g, pair.m, pair.n, pair.curve, pair.kind, GERM_ORDERS[0], pair.d,
            )
            problem = error or compare_problem(pair, verdict)
            self.rec.op("compare", seconds, problem, raised=error is not None)


# -- curve-queries ----------------------------------------------------------

CURVE_HS = (Fraction(-1), Fraction(1, 2))
WALL_CURVE = (1, 2)  # a, b of the h = -1 tilt curve the wall scans follow


def _rank1_vector(rng) -> str:
    n, x = rng.randint(-2, 2), rng.randint(-2, 2)
    s_, eta = _rand_q(rng, -4, 4, 3), _rand_q(rng, -4, 4, 3)
    return f"{n} {x} [{s_}] [{eta}] {_rand_q(rng, -4, 4, 3)} {_rand_q(rng, -4, 4, 3)}"


def _float_cross(m, n, a, b, vpar: float) -> float:
    """Approximate reduced-charge cross value on the h = -1 tilt curve (a, b)
    for the rank-one lattice with H^2 = 1; used only to pick wall pairs."""
    h = -1.0
    alpha, beta = a * (h * a + 2 * b), (h * a + b) ** 2

    def p(u):
        return alpha / 6 * (h * h * u**3 + 3 * h * u * u * vpar + 3 * u * vpar**2) - beta * (h * u + vpar)

    lo, hi = 0.0, 1.0
    while p(hi) < 0:
        hi *= 2
    for _ in range(80):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if p(mid) < 0 else (lo, mid)
    u = (lo + hi) / 2

    def charge(v):
        vn, vx, vs, ve, va, _ = v
        re = (h * u * (h * u + 2 * vpar) + vpar**2) * vx / 2 + u * (h * u + 2 * vpar) * vs / 2
        im = (h * u + vpar) * ve + u * va - u * (h * h * u * u + 3 * h * u * vpar + 3 * vpar**2) * vn / 6
        return re, im

    (mr, mi), (nr, ni) = charge(m), charge(n)
    return mr * ni - mi * nr


def _vector_floats(text: str):
    parts = text.replace("[", "").replace("]", "").split()
    return tuple(float(Fraction(p)) for p in parts)


def _rand_v(rng, lo: int, hi: int) -> Fraction:
    d = rng.randint(1, 3)
    return Fraction(rng.randint(lo * d, hi * d - 1), d)


def _curve_spec(rng, h: Fraction, tilt: bool, vrange):
    """Config lines of a random curve and a v in ``vrange`` where it has a
    positive root."""
    if tilt:
        c = _rand_tilt(rng, h)
        return ["kind = tilt", f"a = {c.a}", f"b = {c.b}"], _rand_v(rng, *vrange)
    while True:
        y, z = rng.randint(1, 5), rng.randint(1, 5)
        q, v = h + Fraction(z, y), _rand_v(rng, *vrange)
        # h + z/y > 0, and for h < 0 v must pass the turning point u = v/|h|
        if q > 0 and (h > 0 or v * v > -2 * h * q):
            return ["kind = onedim", f"y = {y}", f"z = {z}"], v


def curve_config(rng, h: Fraction, passes: int, wall_pairs: int):
    """A configuration file for one geometry and the queries on it.

    Each pass gets, for every v stratum, one random tilt and one random
    one-dimensional curve with a v drawn from that stratum.  When
    ``wall_pairs`` > 0 the h = -1 wall-scan curve and object pairs following
    WALL_PATTERN are added; whether a pair crosses inside WALL_RANGE is
    judged from a floating-point estimate, so an expected wall may be
    missing.  Returns the text and the (curve name, v) queries in order.
    """
    m0 = 1 if h + 2 > 0 else -h
    lines = ["[geometry]", "rank = 1", "gram = [[1]]", "hb = [1]", f"h = {h}", "vprime = 0",
             f"m0 = {m0}", ""]
    queries = []
    for _ in range(passes):
        for vrange in V_STRATA:
            for tilt in (True, False):
                spec, v = _curve_spec(rng, h, tilt, vrange)
                name = f"c{len(queries)}"
                lines += [f"[curve {name}]", *spec, ""]
                queries.append((name, v))
    if wall_pairs:
        a, b = WALL_CURVE
        lines += ["[curve wall]", "kind = tilt", f"a = {a}", f"b = {b}", ""]
        made = 0
        while made < wall_pairs:
            want_wall = WALL_PATTERN[made % len(WALL_PATTERN)]
            m, n = _rank1_vector(rng), _rank1_vector(rng)
            fm, fn = _vector_floats(m), _vector_floats(n)
            c1, c2 = (_float_cross(fm, fn, a, b, float(v)) for v in WALL_RANGE)
            if min(abs(c1), abs(c2)) < 1e-6 or ((c1 > 0) != (c2 > 0)) != want_wall:
                continue
            lines += [f"[object w{made}m]", f"vector = {m}", "", f"[object w{made}n]", f"vector = {n}", ""]
            made += 1
    lines += ["[defaults]", "precision = 64", "order = 8", f"seed = {rng.randint(0, 10**6)}"]
    return "\n".join(lines) + "\n", queries


@dataclass(frozen=True)
class CurveItem:
    curve: object
    vpar: Fraction
    poly: object  # the curve polynomial at vpar, input of the isolation query


class CurveQueries(Bench):
    """solve_u at 64 and 128 bits and root isolation on (curve, v) items,
    wall scans on the h = -1 tilt curve, and chow suite runs."""

    name = "curve-queries"

    def __init__(self, seed: int, tracer=None):
        super().__init__(seed, tracer)
        rng = random.Random(seed)
        per_config = []
        passes = PASSES[self.name]
        wall_pairs = passes * len(WALL_PATTERN)
        for h in CURVE_HS:
            text, queries = curve_config(rng, h, passes, wall_pairs if h < 0 else 0)
            with self.traced_setup():
                cfg = config.parse_config(text)
            per_config.append([
                CurveItem(cfg.curves[name], v, curves.constraint_poly(cfg.curves[name]).eval_v(v))
                for name, v in queries
            ])
            if h < 0:
                o = cfg.objects
                self.walls = [
                    (cfg.geometry, o[f"w{j}m"].vector, o[f"w{j}n"].vector, cfg.curves["wall"])
                    for j in range(wall_pairs)
                ]
        # interleave the two geometries' items
        self.items = [it for pair in zip(*per_config) for it in pair]
        self.fresh_unit()

    def run_pass(self, k: int) -> None:
        """Pass k's items, split into groups each followed by one wall scan,
        then one chow suite run."""
        per_pass = len(self.items) // PASSES[self.name]
        group = per_pass // len(WALL_PATTERN)
        for w in range(len(WALL_PATTERN)):
            for j in range(group):
                self.query_item(self.items[k * per_pass + w * group + j])
            self.query_wall(self.walls[k * len(WALL_PATTERN) + w])
        self.run_suite(suites.suite_chow, "chow", CHOW_SYMBOLIC_CASES, _sub_seed(self.seed, k))

    def query_item(self, item: CurveItem) -> None:
        coeffs = curve_values(item.curve, item.vpar)
        solved = {}
        for bits in (64, 128):
            width = Fraction(1, 2**bits)
            root, seconds, error = self.timed("solve_u", curves.solve_u, item.curve, item.vpar, width)
            problem = error
            if error is None:
                solved[bits] = root
                problem = bracket_problem(coeffs, root.lo, root.hi, width)
            if problem is None and bits == 128 and 64 in solved and not overlaps(solved[64], root):
                problem = f"128-bit bracket {root} misses the 64-bit one {solved[64]}"
            where = f" (curve {item.curve}, v={item.vpar})"
            self.rec.op(f"solve_u.{bits}", seconds, problem and f"solve_u: {problem}{where}",
                        raised=error is not None)
        roots, seconds, error = self.timed(
            "isolate_positive_roots", poly.isolate_positive_roots, item.poly, ISOLATE_PRECISION
        )
        problem = error or roots_problem(coeffs, roots, ISOLATE_PRECISION)
        self.rec.op("isolate", seconds, problem and f"isolate: {problem}{where}",
                    raised=error is not None)

    def query_wall(self, wall) -> None:
        g, m, n, c = wall
        result, seconds, error = self.timed(
            "wall_scan", asymptotics.wall_scan,
            g, m, n, c, ChargeKind.REDUCED, WALL_RANGE, WALL_PRECISION, None, WALL_SAMPLES,
        )
        problem = error
        if error is None:
            with self.paused():
                problem = self.wall_problem(g, m, n, c, WALL_RANGE, result)
        self.rec.op("wall_scan", seconds, problem, raised=error is not None)

    @staticmethod
    def wall_problem(g, m, n, c, vrange, result) -> str | None:
        """Each wall lies in the range and has certified opposite cross signs
        at its ends (or an exact zero there)."""
        last = None
        for w in result.walls:
            if not (vrange[0] <= w.lo <= w.hi <= vrange[1]):
                return f"wall_scan: wall [{w.lo}, {w.hi}] outside {vrange}"
            if last is not None and w.lo <= last:
                return "wall_scan: walls overlap"
            last = w.hi
            s_lo = asymptotics.cross_sign_at(g, m, n, c, ChargeKind.REDUCED, w.lo)
            s_hi = asymptotics.cross_sign_at(g, m, n, c, ChargeKind.REDUCED, w.hi)
            if s_lo * s_hi > 0:
                return f"wall_scan: cross sign {s_lo} at both ends of [{w.lo}, {w.hi}]"
        return None


BENCHES = {b.name: b for b in (RingIdentities, GermVerdicts, CurveQueries)}


def build(name: str, seed: int, tracer=None) -> Bench:
    return BENCHES[name](seed, tracer)

