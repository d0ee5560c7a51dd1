"""Sectioned key-value configuration files.

The format is deliberately small: ``[geometry]`` holds the lattice data,
each ``[curve NAME]`` one constraint curve, each ``[object NAME]`` one
Chern vector under its only key ``vector``, and ``[defaults]`` the run
parameters.  Rationals are written ``p/q`` or as integers, vectors as
``[r, r, ...]``, matrices as ``[[...], [...]]``.
Syntax problems raise ``ConfigParseError`` (exit code 2), semantic ones
``ConfigValidationError`` (exit code 1); both carry line and field
information.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .curves import OneDimCurve, TiltCurve
from .errors import ConfigurationError, EllstabError
from .ring import BaseGeometry, ChernVector, DivisorB


class ConfigParseError(EllstabError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ConfigValidationError(EllstabError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass
class ObjectSpec:
    vector: ChernVector


@dataclass
class Defaults:
    """Run parameters of the ``[defaults]`` section; keys the section omits
    keep the built-in values, and ``cases = None`` means each suite's own size."""

    precision_bits: int = 64
    order: int = 8
    cases: int | None = None
    seed: int = 0


# ``[defaults]`` keys, which are also the CLI flag names, and their fields
_RUN_PARAMETERS = (
    ("precision", "precision_bits"),
    ("order", "order"),
    ("cases", "cases"),
    ("seed", "seed"),
)
# the least value of each run parameter (the CLI flags check the same); a
# seed is non-negative because ``random.Random(-s)`` seeds with |s|
_RUN_PARAMETER_LEAST = {"precision": 1, "order": 1, "cases": 1, "seed": 0}


# each curve kind's class and its parameter keys, in constructor order
_CURVE_KINDS = {"tilt": (TiltCurve, ("a", "b")), "onedim": (OneDimCurve, ("y", "z"))}


@dataclass
class Config:
    geometry: BaseGeometry
    curves: dict = field(default_factory=dict)
    objects: dict = field(default_factory=dict)
    defaults: Defaults = field(default_factory=Defaults)


def _parse_fraction(text: str, line: int) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ConfigParseError(line, f"expected a rational, got {text!r}")


_INTEGER_KINDS = {None: "an integer", 0: "a non-negative integer", 1: "a positive integer"}


def _parse_int(text: str, line: int, path: str, least: int | None = None) -> int:
    value = _parse_fraction(text, line)
    if value.denominator != 1 or (least is not None and value < least):
        raise ConfigValidationError(path, f"expected {_INTEGER_KINDS[least]}, got {value} (line {line})")
    return int(value)


def _split_top_level(text: str, line: int, sep: str | None = None) -> list[str]:
    """Split ``text`` at ``sep`` (whitespace when None, as in vector
    literals) outside brackets, dropping empty parts."""
    where = " in vector literal" if sep is None else ""
    parts, depth, current = [], 0, []
    for ch in text:
        depth += (ch == "[") - (ch == "]")
        if depth < 0:
            raise ConfigParseError(line, "unbalanced brackets" + where)
        if depth == 0 and (ch.isspace() if sep is None else ch == sep):
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise ConfigParseError(line, "unbalanced brackets" + where)
    parts.append("".join(current))
    return [p.strip() for p in parts if p.strip()]


def _parse_vector(text: str, line: int) -> list[Fraction]:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ConfigParseError(line, f"expected a bracketed vector, got {text!r}")
    return [_parse_fraction(p, line) for p in _split_top_level(text[1:-1], line, ",")]


def _parse_matrix(text: str, line: int) -> list[list[Fraction]]:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ConfigParseError(line, f"expected a bracketed matrix, got {text!r}")
    rows = _split_top_level(text[1:-1], line, ",")
    return [_parse_vector(row, line) for row in rows]


def _parse_sections(text: str):
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ConfigParseError(lineno, "malformed section header")
            header = stripped[1:-1].strip()
            if not header:
                raise ConfigParseError(lineno, "empty section header")
            current = {"header": header, "line": lineno, "entries": {}}
            sections.append(current)
            continue
        if "=" not in stripped:
            raise ConfigParseError(lineno, f"expected key = value, got {stripped!r}")
        if current is None:
            raise ConfigParseError(lineno, "entry outside of any section")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if not key:
            raise ConfigParseError(lineno, "empty key")
        if key in current["entries"]:
            raise ConfigParseError(lineno, f"duplicate key {key!r}")
        current["entries"][key] = (value.strip(), lineno)
    return sections


def _take(entries: dict, key: str, path: str):
    if key not in entries:
        raise ConfigValidationError(f"{path}.{key}", "missing required key")
    return entries.pop(key)


def _optional(entries: dict, key: str, parse, default):
    if key not in entries:
        return default
    value, line = entries.pop(key)
    return parse(value, line)


def parse_config(text: str) -> Config:
    sections = _parse_sections(text)
    geometry = None
    curves: dict = {}
    objects_raw: list = []
    defaults = Defaults()

    for sec in sections:
        header, entries = sec["header"], dict(sec["entries"])
        parts = header.split(None, 1)
        kind = parts[0].lower()

        if kind == "geometry":
            value, line = _take(entries, "rank", "geometry")
            rank = _parse_int(value, line, "geometry.rank")
            value, line = _take(entries, "gram", "geometry")
            gram = _parse_matrix(value, line)
            value, line = _take(entries, "hb", "geometry")
            hb = _parse_vector(value, line)
            value, line = _take(entries, "h", "geometry")
            h = _parse_fraction(value, line)
            vprime = _optional(entries, "vprime", _parse_fraction, Fraction(0))
            m0 = _optional(entries, "m0", _parse_fraction, Fraction(1))
            _reject_extras(entries, "geometry")
            try:
                geometry = BaseGeometry(rank, gram, hb, h, vprime, m0)
            except ConfigurationError as exc:
                raise ConfigValidationError(*str(exc).split(": ", 1)) from exc
            continue

        if kind == "curve":
            if len(parts) != 2:
                raise ConfigParseError(sec["line"], "curve section needs a name")
            name = parts[1]
            value, line = _take(entries, "kind", f"curve.{name}")
            ckind = value.lower()
            if ckind not in _CURVE_KINDS:
                raise ConfigValidationError(f"curve.{name}.kind", f"unknown curve kind {ckind!r}")
            curve_class, keys = _CURVE_KINDS[ckind]
            raw = [_take(entries, key, f"curve.{name}") for key in keys]
            params = [_parse_fraction(v, line) for v, line in raw]
            _reject_extras(entries, f"curve.{name}")
            curves[name] = (curve_class, params)
            continue

        if kind == "object":
            if len(parts) != 2:
                raise ConfigParseError(sec["line"], "object section needs a name")
            name = parts[1]
            value, line = _take(entries, "vector", f"object.{name}")
            objects_raw.append((name, value, line, entries))
            continue

        if kind == "defaults":
            for key, attr in _RUN_PARAMETERS:
                if key in entries:
                    value, line = entries.pop(key)
                    least = _RUN_PARAMETER_LEAST[key]
                    setattr(defaults, attr, _parse_int(value, line, f"defaults.{key}", least))
            _reject_extras(entries, "defaults")
            continue

        raise ConfigParseError(sec["line"], f"unknown section {header!r}")

    if geometry is None:
        raise ConfigValidationError("geometry", "missing [geometry] section")

    cfg = Config(geometry=geometry)
    for name, (curve_class, params) in curves.items():
        try:
            cfg.curves[name] = curve_class(geometry.h, *params)
        except ConfigurationError as exc:
            raise ConfigValidationError(f"curve.{name}", str(exc)) from exc

    for name, value, line, entries in objects_raw:
        vector = parse_vector_literal(value, geometry.rank, line)
        _reject_extras(entries, f"object.{name}")
        cfg.objects[name] = ObjectSpec(vector)

    cfg.defaults = defaults
    return cfg


def _reject_extras(entries: dict, path: str) -> None:
    for key, (_, line) in entries.items():
        raise ConfigValidationError(f"{path}.{key}", f"unknown key (line {line})")


def parse_vector_literal(text: str, rank: int, line: int = 0) -> ChernVector:
    """Parse ``n x [S...] [eta...] a s`` into a Chern vector."""
    tokens = _split_top_level(text, line)
    if len(tokens) != 6:
        raise ConfigParseError(line, "vector literal needs six fields: n x [S] [eta] a s")
    n = _parse_fraction(tokens[0], line)
    x = _parse_fraction(tokens[1], line)
    s_div = DivisorB(_parse_vector(tokens[2], line))
    eta_div = DivisorB(_parse_vector(tokens[3], line))
    a = _parse_fraction(tokens[4], line)
    s = _parse_fraction(tokens[5], line)
    if s_div.rank != rank or eta_div.rank != rank:
        raise ConfigValidationError("vector", f"divisor parts must have rank {rank}")
    return ChernVector(n, x, s_div, eta_div, a, s)


def format_vector(v: ChernVector) -> str:
    """Inverse of ``parse_vector_literal``; round-trips exactly."""

    def fmt_div(d: DivisorB) -> str:
        return "[" + ",".join(str(c) for c in d.coords) + "]"

    return f"{v.n} {v.x} {fmt_div(v.S)} {fmt_div(v.eta)} {v.a} {v.s}"
