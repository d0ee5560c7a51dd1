"""Command-line interface.

Commands read a configuration file, act on named objects and curves, and
print either aligned tables or tab-separated records with a header line.
Rationals are always printed exactly as p/q; algebraic curve roots appear
as certified dyadic intervals [lo, hi].  Exit codes: 0 success, 1 domain
or validation errors, 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import suites
from .asymptotics import ChargeKind, compare_vectors, charge_series, phase_limit, wall_scan
from .charges import full_charge, onedim_transform_charge, reduced_charge
from .config import (
    _RUN_PARAMETERS,
    Config,
    ConfigParseError,
    ConfigValidationError,
    Defaults,
    _parse_vector,
    format_vector,
    parse_config,
)
from .curves import TiltCurve, chow_identity_check, constraint_poly, expand_u, solve_u
from .errors import EllstabError
from .fmt import fiber_swap_rule, phi, phi_hat
from .poly import RootInterval
from .ring import DivisorB, DivisorX, twist
from .slopes import SLOPE_PARAMETERS, SlopeKind, SlopeTag, slope

USAGE_EXIT = 2
DOMAIN_EXIT = 1


class _Output:
    def __init__(self, fmt: str):
        self.fmt = fmt

    def emit(self, headers: list[str], rows: list[list[str]]) -> None:
        if self.fmt == "records":
            print("\t".join(headers))
            for row in rows:
                print("\t".join(row))
            return
        widths = [len(h) for h in headers]
        for row in rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        print("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
        for row in rows:
            print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())


def _fmt_root(r: RootInterval) -> str:
    if r.exact:
        return str(r.lo)
    return f"[{r.lo}, {r.hi}]"


def _fmt_series(s) -> str:
    if s.is_stored_zero():
        body = "0"
    else:
        body = " ".join(f"({e},{c})" for e, c in s.terms)
    floor = "exact" if s.trunc is None else str(s.trunc)
    return f"{body} ; floor={floor}"


def _load_config(path: str) -> Config:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)
    return parse_config(text)


def _object(cfg: Config, name: str):
    if name not in cfg.objects:
        raise EllstabError(f"unknown object {name!r}")
    return cfg.objects[name].vector


def _curve(cfg: Config, name: str):
    if name not in cfg.curves:
        raise EllstabError(f"unknown curve {name!r}")
    return cfg.curves[name]


def _divisor_arg(cfg: Config, text: str | None) -> DivisorB:
    if text is None:
        return cfg.geometry.zero_divisor()
    coords = _parse_vector(text, 0)
    if len(coords) != cfg.geometry.rank:
        raise EllstabError(f"divisor must have rank {cfg.geometry.rank}")
    return DivisorB(coords)


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise EllstabError(f"expected a rational, got {text!r}")


def cmd_transform(args, cfg: Config, out: _Output) -> int:
    v = _object(cfg, args.object)
    g = cfg.geometry
    if args.map == "phi":
        image = phi(g, v)
    elif args.map == "phi-hat":
        image = phi_hat(g, v)
    else:
        image = fiber_swap_rule(g, v)
    out.emit(["object", "map", "image"], [[args.object, args.map, format_vector(image)]])
    return 0


def cmd_twist(args, cfg: Config, out: _Output) -> int:
    v = _object(cfg, args.object)
    base = _divisor_arg(cfg, args.base)
    bfield = DivisorX(_fraction_arg(args.theta), base)
    image = twist(cfg.geometry, v, bfield)
    out.emit(["object", "theta", "base", "image"], [
        [args.object, str(bfield.theta), args.base or "0", format_vector(image)]
    ])
    return 0


def _command(args) -> str:
    """The command as typed, with its action or kind."""
    if args.command == "curve":
        return f"curve {args.action}"
    return f"{args.command} --kind {args.kind}"


def _rational_flag(args, name: str) -> Fraction:
    value = getattr(args, name)
    if value is None:
        raise EllstabError(f"{_command(args)} requires --{name}")
    return _fraction_arg(value)


def _reject_unused_flags(args, taken, offered=None) -> None:
    """Fail on a flag of ``offered`` (every parameter flag by default) that
    is set but not in ``taken``."""
    for flag in _ALL_PARAMETER_FLAGS if offered is None else offered:
        if flag not in taken and getattr(args, flag[2:].replace("-", "_")) is not None:
            raise EllstabError(f"{_command(args)} does not take {flag}")


def _flags_of(parameters) -> tuple[str, ...]:
    return sum((_PARAMETER_FLAGS[p] for p in parameters), ())


def _omega_from(cfg: Config, args) -> DivisorX:
    u, vpar = _rational_flag(args, "u"), _rational_flag(args, "v")
    return DivisorX(u, cfg.geometry.hb_divisor.scale(vpar))


def _bfield_from(cfg: Config, args) -> DivisorX:
    if args.b_theta is None and args.b_base is None:
        return DivisorX(0, cfg.geometry.zero_divisor())
    theta = _fraction_arg(args.b_theta) if args.b_theta else Fraction(0)
    return DivisorX(theta, _divisor_arg(cfg, args.b_base))


# one builder per slope parameter, reading the flags that parameter needs
_SLOPE_PARAMETER_BUILDERS = {
    "omega": _omega_from,
    "bfield": _bfield_from,
    "omegabar": lambda cfg, args: DivisorX(
        _rational_flag(args, "y"), cfg.geometry.hb_divisor.scale(_rational_flag(args, "z"))
    ),
    "dbar": lambda cfg, args: _divisor_arg(cfg, args.dbar),
    "d": lambda cfg, args: _divisor_arg(cfg, args.d),
}


def cmd_slope(args, cfg: Config, out: _Output) -> int:
    tag = SlopeTag(args.kind)
    _reject_unused_flags(args, _flags_of(SLOPE_PARAMETERS[tag]))
    kind = SlopeKind(
        tag, **{p: _SLOPE_PARAMETER_BUILDERS[p](cfg, args) for p in SLOPE_PARAMETERS[tag]}
    )
    v = _object(cfg, args.object)
    value = slope(cfg.geometry, kind, v)
    out.emit(["object", "kind", "value"], [[args.object, args.kind, str(value)]])
    return 0


def cmd_charge(args, cfg: Config, out: _Output) -> int:
    _reject_unused_flags(args, _flags_of(_CHARGE_PARAMETERS[args.kind]))
    v = _object(cfg, args.object)
    g = cfg.geometry
    if args.kind == "full":
        value = full_charge(g, v, _omega_from(cfg, args), _bfield_from(cfg, args))
    else:
        u, vpar = _rational_flag(args, "u"), _rational_flag(args, "v")
        if args.kind == "reduced":
            value = reduced_charge(g, v, u, vpar)
        else:
            y, z = _rational_flag(args, "y"), _rational_flag(args, "z")
            value = onedim_transform_charge(g, v, y, z, u, vpar, _divisor_arg(cfg, args.dbar))
    out.emit(
        ["object", "kind", "re", "im"],
        [[args.object, args.kind, str(value.re), str(value.im)]],
    )
    return 0


def cmd_curve(args, cfg: Config, out: _Output) -> int:
    _reject_unused_flags(args, _CURVE_FLAGS[args.action], ("--u", "--v"))
    c = _curve(cfg, args.curve)
    g = cfg.geometry
    if args.action == "solve":
        vpar = _rational_flag(args, "v")
        precision = Fraction(1, 2**args.precision)
        root = solve_u(c, vpar, precision)
        out.emit(["curve", "v", "u"], [[args.curve, str(vpar), _fmt_root(root)]])
        return 0
    if args.action == "expand":
        series = expand_u(c, args.order)
        out.emit(["curve", "series"], [[args.curve, _fmt_series(series)]])
        return 0
    u, vpar = _rational_flag(args, "u"), _rational_flag(args, "v")
    if isinstance(c, TiltCurve):
        ok = chow_identity_check(g, c, u, vpar)
    else:
        ok = constraint_poly(c).eval(u, vpar) == 0
    out.emit(
        ["curve", "u", "v", "on_curve"],
        [[args.curve, str(u), str(vpar), "true" if ok else "false"]],
    )
    return 0 if ok else DOMAIN_EXIT


def cmd_phase(args, cfg: Config, out: _Output) -> int:
    v = _object(cfg, args.object)
    c = _curve(cfg, args.curve)
    ac = charge_series(
        cfg.geometry, v, c, ChargeKind(args.kind), args.order, _divisor_arg(cfg, args.d)
    )
    limit = phase_limit(ac)
    out.emit(
        ["object", "curve", "kind", "limit", "side", "re", "im"],
        [
            [
                args.object,
                args.curve,
                args.kind,
                str(limit.limit),
                limit.side.value,
                _fmt_series(ac.re),
                _fmt_series(ac.im),
            ]
        ],
    )
    return 0


def _object_pair(cfg: Config, text: str):
    names = [n.strip() for n in text.split(",")]
    if len(names) != 2:
        raise EllstabError("--objects takes exactly two comma-separated names")
    return names, _object(cfg, names[0]), _object(cfg, names[1])


def cmd_compare(args, cfg: Config, out: _Output) -> int:
    names, m, n = _object_pair(cfg, args.objects)
    c = _curve(cfg, args.curve)
    verdict = compare_vectors(
        cfg.geometry, m, n, c, ChargeKind(args.kind), args.order, _divisor_arg(cfg, args.d)
    )
    row = [names[0], names[1], args.curve, verdict.kind.value,
           "" if verdict.floor is None else str(verdict.floor)]
    out.emit(["first", "second", "curve", "verdict", "floor"], [row])
    return 0


def cmd_wall_scan(args, cfg: Config, out: _Output) -> int:
    names, m, n = _object_pair(cfg, args.objects)
    c = _curve(cfg, args.curve)
    result = wall_scan(
        cfg.geometry,
        m,
        n,
        c,
        ChargeKind(args.kind),
        (_fraction_arg(args.vmin), _fraction_arg(args.vmax)),
        Fraction(1, 2**args.precision),
        _divisor_arg(cfg, args.d),
        args.samples,
    )
    rows = [[names[0], names[1], "degenerate", "", ""]] if result.degenerate else []
    for w in result.walls:
        rows.append([names[0], names[1], "wall", str(w.lo), str(w.hi)])
    if not rows:
        rows = [[names[0], names[1], "none", "", ""]]
    out.emit(["first", "second", "result", "lo", "hi"], rows)
    return 0


def cmd_verify(args, cfg: Config | None, out: _Output) -> int:
    names = list(suites.SUITE_NAMES) if args.suite == "all" else [args.suite]
    rows = []
    all_passed = True
    for name in names:
        report = suites.run_suite(name, args.cases, args.seed, args.order)
        rows.append([name, str(report.cases), "pass" if report.passed else "FAIL"])
        if not report.passed:
            all_passed = False
            rows.append([name, "counterexample", report.failures[0]])
    out.emit(["suite", "cases", "status"], rows)
    return 0 if all_passed else DOMAIN_EXIT


# the flags of each slope parameter; ``slope`` and ``charge`` take those of
# the parameters their kind reads
_PARAMETER_FLAGS = {"omega": ("--u", "--v"), "omegabar": ("--y", "--z"), "d": ("--d",),
                    "dbar": ("--dbar",), "bfield": ("--b-theta", "--b-base")}
_ALL_PARAMETER_FLAGS = _flags_of(_PARAMETER_FLAGS)
_CHARGE_PARAMETERS = {"full": ("omega", "bfield"), "reduced": ("omega",),
                      "onedim": ("omega", "omegabar", "dbar")}
_CURVE_FLAGS = {"solve": ("--v",), "expand": (), "check": ("--u", "--v")}


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) == 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellstab",
        description="Exact transform, slope, charge and phase calculator for "
        "elliptically fibered threefolds.",
    )
    parser.add_argument("--config", help="path to the configuration file")
    parser.add_argument("--format", choices=["table", "records"], default="table")
    # Run parameters default to None so that _resolve_defaults can tell an
    # explicit flag from an omitted one.
    parser.add_argument("--precision", type=_positive_int, default=None, help="precision in bits")
    parser.add_argument("--order", type=int, default=None, help="series truncation order")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--cases", type=_positive_int, default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="apply a transform to an object")
    p.add_argument("--object", required=True)
    p.add_argument("--map", choices=["phi", "phi-hat", "swap"], default="phi")

    p = sub.add_parser("twist", help="twist an object by a divisor field")
    p.add_argument("--object", required=True)
    p.add_argument("--theta", default="0")
    p.add_argument("--base", default=None)

    p = sub.add_parser("slope", help="evaluate a slope function")
    p.add_argument("--kind", required=True, choices=sorted(t.value for t in SlopeTag))
    p.add_argument("--object", required=True)
    for flag in _ALL_PARAMETER_FLAGS:
        p.add_argument(flag, default=None)

    p = sub.add_parser("charge", help="evaluate a central charge")
    p.add_argument("--kind", required=True, choices=["reduced", "full", "onedim"])
    p.add_argument("--object", required=True)
    for flag in _ALL_PARAMETER_FLAGS:
        p.add_argument(flag, default=None)

    p = sub.add_parser("curve", help="solve, expand or check a constraint curve")
    p.add_argument("action", choices=["solve", "expand", "check"])
    p.add_argument("--curve", required=True)
    p.add_argument("--u", default=None)
    p.add_argument("--v", default=None)

    p = sub.add_parser("phase", help="phase limit of an object along a curve")
    p.add_argument("--object", required=True)
    p.add_argument("--curve", required=True)
    p.add_argument("--kind", choices=["reduced", "full"], required=True)
    p.add_argument("--d", default=None)

    p = sub.add_parser("compare", help="asymptotic phase comparison of two objects")
    p.add_argument("--objects", required=True, help="two comma-separated object names")
    p.add_argument("--curve", required=True)
    p.add_argument("--kind", choices=["reduced", "full"], required=True)
    p.add_argument("--d", default=None)

    p = sub.add_parser("wall-scan", help="scan for phase crossings at finite v")
    p.add_argument("--objects", required=True)
    p.add_argument("--curve", required=True)
    p.add_argument("--kind", choices=["reduced", "full"], required=True)
    p.add_argument("--vmin", required=True)
    p.add_argument("--vmax", required=True)
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--d", default=None)

    p = sub.add_parser("verify", help="run a randomized identity suite")
    p.add_argument("--suite", required=True, choices=list(suites.SUITE_NAMES) + ["all"])

    return parser


_COMMANDS = {
    "transform": cmd_transform,
    "twist": cmd_twist,
    "slope": cmd_slope,
    "charge": cmd_charge,
    "curve": cmd_curve,
    "phase": cmd_phase,
    "compare": cmd_compare,
    "wall-scan": cmd_wall_scan,
    "verify": cmd_verify,
}


def _resolve_defaults(args, cfg: Config | None) -> None:
    """Give each run parameter without a flag its ``[defaults]`` value, which
    is the built-in value when the section (or the whole config) omits it."""
    defaults = cfg.defaults if cfg is not None else Defaults()
    for flag, key in _RUN_PARAMETERS:
        if getattr(args, flag) is None:
            setattr(args, flag, getattr(defaults, key))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = _Output(args.format)
    try:
        if args.config is None and args.command != "verify":
            print("error: --config is required for this command", file=sys.stderr)
            return USAGE_EXIT
        cfg = None if args.config is None else _load_config(args.config)
        _resolve_defaults(args, cfg)
        return _COMMANDS[args.command](args, cfg, out)
    except ConfigParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except ConfigValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return DOMAIN_EXIT
    except EllstabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_EXIT


if __name__ == "__main__":
    sys.exit(main())
