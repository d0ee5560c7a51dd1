"""In-memory span tracer that wraps the package's public functions from outside.

The package imports many functions by name into other modules (``from .ring
import mul``), and classes alias operators (``__radd__ = __add__``).  Wrapping
only the defining attribute would miss those call paths, so ``install``
replaces every binding of each traced function object: module globals of
every loaded ``ellstab`` module and class attributes of every class they
define.  ``uninstall`` restores the originals.

Each call of a traced function records a span (name, start, end, parent span)
in preallocated integer arrays; spans are kept in memory and written out by
``write_spans`` when the run ends.  Self time is accumulated online: a span's
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import array
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

PACKAGE = "ellstab"


@dataclass(frozen=True)
class Target:
    """A traced layer boundary: one label over one or more functions.

    ``functions`` name attributes of ``module``; a dotted name reaches into
    a class (``LaurentSeries.__mul__``).
    """

    label: str
    module: str
    functions: tuple[str, ...]


TARGETS = (
    Target("ring.mul", "ring", ("mul",)),
    Target("ring.twist", "ring", ("twist",)),
    Target("ring.pair", "ring", ("pair",)),
    Target("fmt.phi", "fmt", ("phi",)),
    Target("fmt.phi_hat", "fmt", ("phi_hat",)),
    Target("fmt.fiber_swap_rule", "fmt", ("fiber_swap_rule",)),
    Target("slopes.slope", "slopes", ("slope",)),
    Target("charges.reduced_charge", "charges", ("reduced_charge",)),
    Target("charges.full_charge", "charges", ("full_charge",)),
    Target("series.mul", "series", ("LaurentSeries.__mul__",)),
    Target("series.add", "series", ("LaurentSeries.__add__",)),
    Target("curves.expand_u", "curves", ("expand_u",)),
    Target("curves.solve_u", "curves", ("solve_u",)),
    Target("curves.chow_identity_symbolic_remainder", "curves", ("chow_identity_symbolic_remainder",)),
    Target("poly.isolate_positive_roots", "poly", ("isolate_positive_roots",)),
    Target("poly.count_roots", "poly", ("count_roots",)),
    Target("poly.refine_root", "poly", ("refine_root",)),
    Target("poly.reduce_mod_u", "poly", ("reduce_mod_u",)),
    Target("asymptotics.charge_series", "asymptotics", ("charge_series",)),
    Target("asymptotics.compare_phases", "asymptotics", ("compare_phases",)),
    Target("asymptotics.compare_vectors", "asymptotics", ("compare_vectors",)),
    Target("asymptotics.cross_sign_at", "asymptotics", ("cross_sign_at",)),
    Target("asymptotics.wall_scan", "asymptotics", ("wall_scan",)),
    Target("verify.threshold_equiv_check", "verify", ("threshold_equiv_check",)),
    Target("verify.slope_correspondence_check", "verify", ("slope_correspondence_check",)),
    Target("verify.h0_independence_check", "verify", ("h0_independence_check",)),
    Target("verify.im_identity_check", "verify", ("im_identity_check",)),
    # the suites' seeded case generators, nested calls included
    Target(
        "suites.generate",
        "suites",
        (
            "_rand_q",
            "_rand_divisor",
            "_rand_vector",
            "_rand_tilt",
            "_rational_tilt_points",
            "_rand_onedim_class",
        ),
    ),
    Target("config.parse_config", "config", ("parse_config",)),
)

LABELS = tuple(t.label for t in TARGETS)

# Spans opened by the benchmark itself around each operation; they are the
# roots that the package spans hang under.
OP_PREFIX = "op."


def _resolve(module, dotted: str):
    owner = module
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner.__dict__[parts[-1]]


def _package_modules():
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def _bindings(originals: dict):
    """Every (owner, attribute) pair in the package bound to a traced function.

    Owners are the package's modules and the classes defined in them, so a
    function imported by name elsewhere, or aliased inside a class, is found.
    """
    modules = _package_modules()
    owners = list(modules)
    for m in modules:
        for value in list(vars(m).values()):
            if isinstance(value, type) and getattr(value, "__module__", "").startswith(PACKAGE):
                owners.append(value)
    seen = set()
    for owner in owners:
        if id(owner) in seen:
            continue
        seen.add(id(owner))
        for attr, value in list(vars(owner).items()):
            if id(value) in originals:
                yield owner, attr, value


@dataclass
class Tracer:
    """Span recorder; wrappers pass straight through while ``on`` is false."""

    run_id: str
    on: bool = False
    names: list = field(default_factory=list)
    calls: dict = field(default_factory=dict)
    self_ns: dict = field(default_factory=dict)
    # expand_u calls repeating a (curve, order) pair since the caches were
    # last cleared, and brackets returned by isolate_positive_roots
    expand_repeats: int = 0
    roots_returned: int = 0

    def __post_init__(self):
        self._name_index: dict[str, int] = {}
        self._span_id = array.array("q")
        self._parent = array.array("q")
        self._name = array.array("q")
        self._start = array.array("q")
        self._end = array.array("q")
        # open spans, innermost last: [span id, child ns, name]
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list = []
        self._seen_expansions: set = set()
        for label in LABELS:
            self.calls[label] = 0
            self.self_ns[label] = 0

    # -- span recording -------------------------------------------------

    def _index(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        return idx

    def _enter(self, name: str) -> None:
        self._stack.append([self._next_id, 0, name])
        self._next_id += 1

    def _exit(self, name: str, start: int, end: int) -> int:
        span_id, child_ns, _ = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        self._span_id.append(span_id)
        self._parent.append(parent[0] if parent is not None else -1)
        self._name.append(self._index(name))
        self._start.append(start)
        self._end.append(end)
        return duration - child_ns

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark (an operation), when tracing is on."""
        if not self.on:
            yield
            return
        start = time.perf_counter_ns()
        self._enter(name)
        try:
            yield
        finally:
            self._exit(name, start, time.perf_counter_ns())

    @contextmanager
    def paused(self):
        """Run benchmark-side checks without recording their calls."""
        was_on, self.on = self.on, False
        try:
            yield
        finally:
            self.on = was_on

    def _count(self, label: str, args, result) -> None:
        if label == "curves.expand_u":
            key = (args[0], int(args[1]))
            if key in self._seen_expansions:
                self.expand_repeats += 1
            else:
                self._seen_expansions.add(key)
        elif label == "poly.isolate_positive_roots":
            self.roots_returned += len(result)

    def _wrap(self, label: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            start = time.perf_counter_ns()
            tracer._enter(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer.self_ns[label] += tracer._exit(label, start, end)
                tracer.calls[label] += 1
            tracer._count(label, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", label)
        return traced

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Replace every package binding of each traced function."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        originals: dict[int, tuple] = {}
        for t in TARGETS:
            module = sys.modules[f"{PACKAGE}.{t.module}"]
            for dotted in t.functions:
                fn = _resolve(module, dotted)
                originals[id(fn)] = (fn, self._wrap(t.label, fn))
        for owner, attr, value in _bindings(originals):
            setattr(owner, attr, originals[id(value)][1])
            self._patched.append((owner, attr, value))
        missing = set(originals) - {id(v) for _, _, v in self._patched}
        if missing:
            raise RuntimeError("a traced function has no binding in the package")

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def reset_reuse(self) -> None:
        """Forget seen expansions; called whenever the package caches are cleared."""
        self._seen_expansions.clear()

    # -- output ---------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self._span_id)

    def write_spans(self, path) -> None:
        """Write spans as a JSON header line followed by one TSV line each:
        span id, parent id (-1 for a root), name, start ns, end ns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"run_id": self.run_id, "spans": self.span_count}) + "\n")
            names = self.names
            for sid, parent, name, start, end in zip(
                self._span_id, self._parent, self._name, self._start, self._end
            ):
                fh.write(f"{sid}\t{parent}\t{names[name]}\t{start}\t{end}\n")


def read_spans(path):
    """Inverse of ``Tracer.write_spans``: (header, list of span tuples)."""
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        spans = []
        for line in fh:
            sid, parent, name, start, end = line.rstrip("\n").split("\t")
            spans.append((int(sid), int(parent), name, int(start), int(end)))
    return header, spans


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _span_counts(tracer: Tracer) -> tuple[int, int]:
    """From the recorded spans: count_roots calls made inside an
    isolate_positive_roots call, and compare_vectors calls that compared
    phases more than once (escalated to a doubled order)."""
    index = tracer._name_index
    count_roots = index.get("poly.count_roots")
    isolate = index.get("poly.isolate_positive_roots")
    compare_vectors = index.get("asymptotics.compare_vectors")
    compare_phases = index.get("asymptotics.compare_phases")
    name_of = dict(zip(tracer._span_id, tracer._name))
    parent_of = dict(zip(tracer._span_id, tracer._parent))
    in_isolation = 0
    phases_under: dict[int, int] = {}
    for parent, name in zip(tracer._parent, tracer._name):
        if name == count_roots:
            p = parent
            while p != -1 and name_of[p] != isolate:
                p = parent_of[p]
            in_isolation += p != -1
        elif name == compare_phases and parent != -1 and name_of[parent] == compare_vectors:
            phases_under[parent] = phases_under.get(parent, 0) + 1
    escalations = sum(1 for n in phases_under.values() if n > 1)
    return in_isolation, escalations


def layer_metrics(tracer: Tracer, traced_ns: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a finished traced run.

    For every label: ``calls`` and ``self_pct``, its self time as a
    percentage of the traced wall time ``traced_ns`` (the base, reported as
    ``trace.traced_s``).  Ratios whose denominator is zero read 0.
    """
    out: dict[str, tuple[float, str]] = {}
    for label in LABELS:
        out[f"{label}.calls"] = (tracer.calls[label], "count")
        out[f"{label}.self_pct"] = (100.0 * _ratio(tracer.self_ns[label], traced_ns), "%")
    calls = tracer.calls
    in_isolation, escalations = _span_counts(tracer)
    out["curves.expand_u.repeat_share"] = (
        _ratio(tracer.expand_repeats, calls["curves.expand_u"]),
        "share",
    )
    out["poly.isolate_positive_roots.roots_per_call"] = (
        _ratio(tracer.roots_returned, calls["poly.isolate_positive_roots"]),
        "count",
    )
    out["poly.count_roots.per_solve"] = (
        _ratio(in_isolation, calls["poly.isolate_positive_roots"]),
        "count",
    )
    out["asymptotics.compare_vectors.escalation_ratio"] = (
        _ratio(escalations, calls["asymptotics.compare_vectors"]),
        "share",
    )
    out["asymptotics.cross_sign_at.per_scan"] = (
        _ratio(calls["asymptotics.cross_sign_at"], calls["asymptotics.wall_scan"]),
        "count",
    )
    return out
