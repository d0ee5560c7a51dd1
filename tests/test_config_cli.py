"""Configuration parsing, validation diagnostics, CLI dispatch."""

import hashlib
import io
import os
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import ellstab
from ellstab import suites
from ellstab.cli import main
from ellstab.config import (
    ConfigParseError,
    ConfigValidationError,
    format_vector,
    parse_config,
    parse_vector_literal,
)
from ellstab.errors import DomainError
from ellstab.ring import ChernVector, DivisorB, DivisorX
from ellstab.slopes import SlopeKind, SlopeTag, slope

SAMPLE = """
# sample configuration
[geometry]
rank = 1
gram = [[1]]
hb = [1]
h = 0
vprime = 0
m0 = 1

[curve tilt1]
kind = tilt
a = 1
b = 2

[curve flat1]
kind = onedim
y = 1
z = 1

[object point]
vector = 0 0 [0] [0] 0 1

[object theta]
vector = 0 1 [0] [0] 0 0

[object curvecl]
vector = 0 0 [0] [1] 0 1

[defaults]
precision = 64
order = 8
cases = 50
seed = 7
"""


@pytest.fixture
def cfg_path(tmp_path):
    p = tmp_path / "sample.cfg"
    p.write_text(SAMPLE)
    return str(p)


def run_cli(*args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(args))
    return code, buf.getvalue()


class TestConfigParsing:
    def test_minimal_config_loads(self):
        cfg = parse_config("[geometry]\nrank = 1\ngram = [[1]]\nhb = [1]\nh = 0\n")
        assert cfg.geometry.rank == 1

    def test_full_sample(self):
        cfg = parse_config(SAMPLE)
        assert set(cfg.curves) == {"tilt1", "flat1"}
        assert cfg.objects["point"].vector.s == 1
        assert cfg.defaults.seed == 7

    def test_asymmetric_gram_names_field(self):
        text = "[geometry]\nrank = 2\ngram = [[1, 2], [0, 1]]\nhb = [1, 0]\nh = 0\n"
        with pytest.raises(ConfigValidationError) as err:
            parse_config(text)
        assert "geometry.gram" in str(err.value)

    @pytest.mark.parametrize("key, value, message", [
        ("rank", "0", "must be positive"),
        ("m0", "-1", "requires h + 2*m0 > 0"),
        ("hb", "[0]", "self-intersection must be positive"),
    ])
    def test_geometry_error_names_path_once(self, tmp_path, capsys, key, value, message):
        text = re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", SAMPLE)
        with pytest.raises(ConfigValidationError) as err:
            parse_config(text)
        assert err.value.path == f"geometry.{key}"
        assert str(err.value) == f"geometry.{key}: {message}"
        p = tmp_path / "bad.cfg"
        p.write_text(text)
        code, _ = run_cli("--config", str(p), "transform", "--object", "point")
        assert code == 1
        stderr = capsys.readouterr().err
        assert f"geometry.{key}: {message}" in stderr
        assert stderr.count(f"geometry.{key}") == 1

    def test_undeclared_curve_reference(self):
        text = (
            "[geometry]\nrank = 1\ngram = [[1]]\nhb = [1]\nh = 0\n"
            "[object o]\nvector = 0 0 [0] [0] 0 1\ncurve = nope\n"
        )
        with pytest.raises(ConfigValidationError) as err:
            parse_config(text)
        assert "object.o.curve" in str(err.value)

    @pytest.mark.parametrize(
        "key, value", [("class", "ONE_DIM"), ("eta-effective", "true"), ("s-effective", "true")]
    )
    def test_object_annotation_keys_rejected(self, key, value):
        text = (
            "[geometry]\nrank = 1\ngram = [[1]]\nhb = [1]\nh = 0\n"
            f"[object o]\nvector = 0 0 [0] [0] 0 1\n{key} = {value}\n"
        )
        with pytest.raises(ConfigValidationError) as err:
            parse_config(text)
        assert f"object.o.{key}" in str(err.value)

    def test_syntax_error_carries_line(self):
        with pytest.raises(ConfigParseError) as err:
            parse_config("[geometry]\nrank 1\n")
        assert err.value.line == 2

    def test_unknown_key_rejected(self):
        text = "[geometry]\nrank = 1\ngram = [[1]]\nhb = [1]\nh = 0\nwat = 3\n"
        with pytest.raises(ConfigValidationError):
            parse_config(text)

    def test_vector_round_trip(self):
        v = ChernVector(
            Fraction(-3, 2), 4, DivisorB([Fraction(1, 3)]), DivisorB([-2]), Fraction(7, 5), 0
        )
        assert parse_vector_literal(format_vector(v), 1) == v


class TestCli:
    def test_transform_skyscraper(self, cfg_path):
        code, out = run_cli("--config", cfg_path, "--format", "records", "transform", "--object", "point")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "object\tmap\timage"
        assert lines[1].split("\t")[2] == "0 0 [0] [0] 1 0"

    def test_transform_matches_library(self, cfg_path):
        from ellstab.fmt import phi
        from ellstab.suites import geometry_for

        code, out = run_cli("--config", cfg_path, "--format", "records", "transform", "--object", "theta")
        image = out.strip().splitlines()[1].split("\t")[2]
        g = geometry_for(0)
        expected = phi(g, ChernVector(0, 1, DivisorB([0]), DivisorB([0]), 0, 0))
        assert parse_vector_literal(image, 1) == expected

    def test_slope_command(self, cfg_path):
        code, out = run_cli(
            "--config", cfg_path, "--format", "records", "slope",
            "--kind", "MU_STAR", "--object", "curvecl",
        )
        assert code == 0
        assert out.strip().splitlines()[1].split("\t")[2] == "1"

    def test_charge_command(self, cfg_path):
        code, out = run_cli(
            "--config", cfg_path, "--format", "records", "charge",
            "--kind", "reduced", "--object", "theta", "--u", "1", "--v", "3",
        )
        assert code == 0
        row = out.strip().splitlines()[1].split("\t")
        assert (row[2], row[3]) == ("9/2", "0")

    def test_curve_solve_and_check(self, cfg_path):
        code, out = run_cli("--config", cfg_path, "--format", "records", "curve", "solve",
                            "--curve", "tilt1", "--v", "4")
        assert code == 0
        assert out.strip().splitlines()[1].split("\t")[2] == "1/2"
        code, _ = run_cli("--config", cfg_path, "curve", "check", "--curve", "tilt1",
                          "--u", "1/2", "--v", "4")
        assert code == 0
        code, _ = run_cli("--config", cfg_path, "curve", "check", "--curve", "tilt1",
                          "--u", "1/2", "--v", "5")
        assert code == 1

    @pytest.mark.parametrize(
        "curve, u, v",
        [("flat1", "-1", "-1"), ("tilt1", "-2", "-1"), ("flat1", "0", "1"), ("tilt1", "0", "4"),
         ("flat1", "1", "0"), ("tilt1", "1/2", "0")],
    )
    def test_curve_check_outside_quarter_plane(self, cfg_path, capsys, curve, u, v):
        # (-1, -1) and (-2, -1) are zeros of the curve polynomials, outside u, v > 0
        code, out = run_cli("--config", cfg_path, "curve", "check", "--curve", curve,
                            "--u", u, "--v", v)
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == "error: curve check requires u > 0 and v > 0\n"

    def test_phase_and_compare(self, cfg_path):
        code, out = run_cli("--config", cfg_path, "--format", "records", "phase",
                            "--object", "point", "--curve", "flat1", "--kind", "full")
        assert code == 0
        row = out.strip().splitlines()[1].split("\t")
        assert (row[3], row[4]) == ("1", "exact")
        code, out = run_cli("--config", cfg_path, "--format", "records", "compare",
                            "--objects", "point,curvecl", "--curve", "flat1", "--kind", "full")
        assert code == 0
        assert out.strip().splitlines()[1].split("\t")[3] == "succ"

    def test_wall_scan_command(self, cfg_path):
        code, out = run_cli("--config", cfg_path, "--format", "records", "wall-scan",
                            "--objects", "point,curvecl", "--curve", "flat1", "--kind", "full",
                            "--vmin", "1", "--vmax", "4")
        assert code == 0

    def test_wall_scan_takes_no_samples(self, cfg_path, capsys):
        """The scan has no grid, so ``--samples`` is no longer a flag."""
        with pytest.raises(SystemExit) as exc:
            run_cli("--config", cfg_path, "wall-scan", "--objects", "point,curvecl", "--curve", "flat1",
                    "--kind", "full", "--vmin", "1", "--vmax", "4", "--samples", "8")
        assert exc.value.code == 2
        assert "--samples" in capsys.readouterr().err

    def test_wall_scan_shows_both_walls_of_defect_one(self, tmp_path):
        """Both walls of the pair near v = 0.77695 and 3.73666 over
        [1/100, 1000], which the 64-sample grid missed (it printed none)."""
        cfg = tmp_path / "walls.cfg"
        cfg.write_text("[geometry]\nrank = 1\ngram = [[1]]\nhb = [1]\nh = -1\n\n"
                       "[curve tilt]\nkind = tilt\na = 1\nb = 2\n\n"
                       "[object m]\nvector = 0 -2/3 [-8] [2] -4 2/3\n\n"
                       "[object n]\nvector = 5/6 2 [-4/3] [-2] 1/2 -5/6\n")
        code, out = run_cli("--config", str(cfg), "--format", "records", "--precision", "20", "wall-scan",
                            "--objects", "m,n", "--curve", "tilt", "--kind", "reduced",
                            "--vmin", "1/100", "--vmax", "1000")
        assert code == 0
        rows = [line.split("\t") for line in out.strip().splitlines()[1:]]
        assert [row[:3] for row in rows] == [["m", "n", "wall"]] * 2
        for row, near in zip(rows, (Fraction(77695, 100000), Fraction(373666, 100000))):
            lo, hi = Fraction(row[3]), Fraction(row[4])
            assert lo < hi <= lo + Fraction(1, 2**20) and abs(lo - near) < Fraction(1, 10**4)

    def test_verify_suite(self, cfg_path):
        code, out = run_cli("--config", cfg_path, "--cases", "100", "--seed", "7",
                            "verify", "--suite", "involution")
        assert code == 0
        assert "pass" in out

    def test_readme_examples(self, tmp_path):
        """Every command under the README's "Command line" runs against the
        README's example config."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme[readme.index("## Command line"):]
        ini = re.search(r"```ini\n(.*?)```", section, re.S).group(1)
        sh = re.search(r"```sh\n(.*?)```", section, re.S).group(1).replace("\\\n", " ")
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(ini)
        commands = [shlex.split(line)[1:] for line in sh.splitlines() if line.startswith("ellstab ")]
        assert len(commands) >= 9
        for argv in commands:
            argv = [str(cfg) if arg == "demo.cfg" else arg for arg in argv]
            try:
                code, _ = run_cli(*argv)
            except SystemExit as exc:
                code = exc.code
            assert code == 0, argv

    def test_readme_library_example(self):
        """The Python block under the README's "Library use" runs and prints
        the phase limit it shows."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme[readme.index("## Library use"):]
        code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
        buf = io.StringIO()
        with redirect_stdout(buf):
            exec(code, {})
        assert buf.getvalue() == "PhaseLimit(limit=Fraction(0, 1), side=<Side.MINUS: 'minus'>)\n"

    def test_unknown_object_is_domain_error(self, cfg_path):
        code, _ = run_cli("--config", cfg_path, "transform", "--object", "nope")
        assert code == 1

    def test_bad_config_exit_codes(self, tmp_path):
        bad_syntax = tmp_path / "bad1.cfg"
        bad_syntax.write_text("[geometry]\nrank 1\n")
        code, _ = run_cli("--config", str(bad_syntax), "transform", "--object", "x")
        assert code == 2
        bad_sem = tmp_path / "bad2.cfg"
        bad_sem.write_text("[geometry]\nrank = 2\ngram = [[1, 2], [0, 1]]\nhb = [1, 0]\nh = 0\n")
        code, _ = run_cli("--config", str(bad_sem), "transform", "--object", "x")
        assert code == 1

    def test_unknown_subcommand_usage_exit(self):
        # the child interpreter must import the package under test, which
        # pytest's own pythonpath setting does not pass on
        src = str(Path(ellstab.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "ellstab.cli", "frobnicate"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 2

    # sha256 of ``verify --suite all`` records at --cases 200, as the suites
    # ran when they drew through ``random.Random.randint``: as they run, and
    # with every check failing, so that each suite prints its first label
    VERIFY_ALL_DIGESTS = {
        "7": ("e9d13ab60b24b378907c3ce1d9fc266a36c3f244d073825afc3b62a16c5e0d2c",
              "38a9936307b5fe105f4a1ac5eba8e9819bdfcfc866cb93fa63b0688e97ab6c42"),
        "11": ("e9d13ab60b24b378907c3ce1d9fc266a36c3f244d073825afc3b62a16c5e0d2c",
               "11e088b15716acd58cf7c32f607a79dd5478e509a3fe0923484cc8efef230735"),
    }

    @pytest.mark.parametrize("seed", sorted(VERIFY_ALL_DIGESTS))
    def test_verify_all_records_are_pinned(self, seed, monkeypatch):
        args = ("--format", "records", "--seed", seed, "--cases", "200", "verify", "--suite", "all")
        passing, failing = self.VERIFY_ALL_DIGESTS[seed]
        code, out = run_cli(*args)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == passing
        original = suites.SuiteReport.check
        monkeypatch.setattr(suites.SuiteReport, "check",
                            lambda report, ok, label: original(report, False, label))
        code, out = run_cli(*args)
        assert code == 1 and hashlib.sha256(out.encode()).hexdigest() == failing

    def test_record_determinism(self, cfg_path):
        args = ("--config", cfg_path, "--format", "records", "--seed", "7", "--cases", "60",
                "verify", "--suite", "swap")
        _, out1 = run_cli(*args)
        _, out2 = run_cli(*args)
        assert out1 == out2


DEFAULTS_SAMPLE = """
[geometry]
rank = 1
gram = [[1]]
hb = [1]
h = -1

[curve tilt1]
kind = tilt
a = 1
b = 2

[defaults]
order = 2
precision = 8
cases = 3
"""


class TestConfigDefaults:
    """Run parameters resolve as: explicit flag, then [defaults], then built-in."""

    @pytest.fixture
    def defaults_path(self, tmp_path):
        p = tmp_path / "defaults.cfg"
        p.write_text(DEFAULTS_SAMPLE)
        return str(p)

    @staticmethod
    def _bracket_width(out):
        lo, hi = out.strip().splitlines()[1].split("\t")[2].strip("[]").split(", ")
        return Fraction(hi) - Fraction(lo)

    def test_order_from_defaults(self, defaults_path):
        code, out = run_cli("--config", defaults_path, "--format", "records", "curve", "expand",
                            "--curve", "tilt1")
        assert code == 0
        assert out.strip().endswith("floor=-2")

    def test_precision_from_defaults(self, defaults_path):
        code, out = run_cli("--config", defaults_path, "--format", "records", "curve", "solve",
                            "--curve", "tilt1", "--v", "3")
        assert code == 0
        assert Fraction(1, 2**9) < self._bracket_width(out) <= Fraction(1, 2**8)

    def test_cases_from_defaults(self, defaults_path):
        code, out = run_cli("--config", defaults_path, "--format", "records", "verify",
                            "--suite", "swap")
        assert code == 0
        assert out.strip().splitlines()[1].split("\t")[1] == "3"

    def test_flags_override_defaults(self, defaults_path):
        _, out = run_cli("--config", defaults_path, "--format", "records", "--order", "5",
                         "curve", "expand", "--curve", "tilt1")
        assert out.strip().endswith("floor=-5")
        _, out = run_cli("--config", defaults_path, "--format", "records", "--precision", "12",
                         "curve", "solve", "--curve", "tilt1", "--v", "3")
        assert Fraction(1, 2**13) < self._bracket_width(out) <= Fraction(1, 2**12)

    def test_builtin_defaults_without_section(self, tmp_path):
        p = tmp_path / "plain.cfg"
        p.write_text(DEFAULTS_SAMPLE.split("[defaults]")[0])
        _, out = run_cli("--config", str(p), "--format", "records", "curve", "expand",
                         "--curve", "tilt1")
        assert out.strip().endswith("floor=-8")
        _, out = run_cli("--config", str(p), "--format", "records", "curve", "solve",
                         "--curve", "tilt1", "--v", "3")
        assert Fraction(1, 2**65) < self._bracket_width(out) <= Fraction(1, 2**64)


def _x(g, theta, c):
    return DivisorX(theta, g.hb_divisor.scale(c))


d2 = DivisorB([2])


# per slope kind: its CLI flags and the same kind built through the library
SLOPE_CASES = {
    SlopeTag.MU_F: ([], lambda g: SlopeKind(SlopeTag.MU_F)),
    SlopeTag.MU_THETA_M: ([], lambda g: SlopeKind(SlopeTag.MU_THETA_M)),
    SlopeTag.MU_STAR: ([], lambda g: SlopeKind(SlopeTag.MU_STAR)),
    SlopeTag.MU_STAR_B: ([], lambda g: SlopeKind.mu_star_b()),
    SlopeTag.MU_OMEGA_B: (
        ["--u", "1/2", "--v", "3", "--b-theta", "1/3", "--b-base", "[2]"],
        lambda g: SlopeKind.mu_omega_b(_x(g, Fraction(1, 2), 3), DivisorX(Fraction(1, 3), d2)),
    ),
    SlopeTag.NU_OMEGA_B: (
        ["--u", "1/2", "--v", "3", "--b-theta", "1/3", "--b-base", "[2]"],
        lambda g: SlopeKind(
            SlopeTag.NU_OMEGA_B, omega=_x(g, Fraction(1, 2), 3), bfield=DivisorX(Fraction(1, 3), d2)
        ),
    ),
    SlopeTag.MU_BAR: (
        ["--y", "2", "--z", "3", "--dbar", "[2]"],
        lambda g: SlopeKind.mu_bar(_x(g, 2, 3), d2),
    ),
    SlopeTag.MU_PHB_PD: (["--d", "[2]"], lambda g: SlopeKind(SlopeTag.MU_PHB_PD, d=d2)),
    SlopeTag.MU_THETA_MPHB_PD: (["--d", "[2]"], lambda g: SlopeKind(SlopeTag.MU_THETA_MPHB_PD, d=d2)),
    SlopeTag.MU_OMEGA_PD: (
        ["--u", "1", "--v", "2", "--d", "[2]"],
        lambda g: SlopeKind(SlopeTag.MU_OMEGA_PD, omega=_x(g, 1, 2), d=d2),
    ),
}


@pytest.mark.parametrize("tag", list(SlopeTag), ids=lambda t: t.value)
def test_slope_kinds_through_cli(tmp_path, capsys, tag):
    """Each slope kind prints the library's value, and a kind whose
    parameters need rational flags names the first one missing."""
    text = SAMPLE + "\n[object generic]\nvector = 2 1 [1] [3] 1/2 5/3\n"
    path = tmp_path / "generic.cfg"
    path.write_text(text)
    cfg = parse_config(text)
    flags, build = SLOPE_CASES[tag]
    base = ["--config", str(path), "--format", "records", "slope", "--kind", tag.value,
            "--object", "generic"]
    code, out = run_cli(*base, *flags)
    assert code == 0
    expected = slope(cfg.geometry, build(cfg.geometry), cfg.objects["generic"].vector)
    assert out.strip().splitlines()[1].split("\t")[2] == str(expected)

    required = [i for i in range(0, len(flags), 2) if flags[i] in ("--u", "--v", "--y", "--z")]
    if required:
        last = required[-1]
        code, out = run_cli(*base, *flags[:last], *flags[last + 2:])
        assert code == 1
        assert f"requires {flags[last]}" in capsys.readouterr().err


# a value each parameter flag accepts
FLAG_VALUES = {"--u": "1/2", "--v": "3", "--y": "2", "--z": "3", "--d": "[2]", "--dbar": "[2]",
               "--b-theta": "1/3", "--b-base": "[2]"}
CHARGE_FLAGS = {
    "full": ("--u", "--v", "--b-theta", "--b-base"),
    "reduced": ("--u", "--v"),
    "onedim": ("--u", "--v", "--dbar"),
}


CURVE_FLAGS = {"solve": ("--v",), "expand": (), "check": ("--u", "--v")}


class TestFlagErrors:
    """A missing flag names the command; a flag the command ignores is an error."""

    def test_curve_solve_without_v_names_the_command(self, cfg_path, capsys):
        code, _ = run_cli("--config", cfg_path, "curve", "solve", "--curve", "tilt1")
        assert code == 1
        err = capsys.readouterr().err
        assert "curve solve requires --v" in err and "slope" not in err

    def test_reduced_charge_without_u_names_the_command(self, cfg_path, capsys):
        code, _ = run_cli("--config", cfg_path, "charge", "--kind", "reduced", "--object", "point",
                          "--v", "3")
        assert code == 1
        err = capsys.readouterr().err
        assert "charge --kind reduced requires --u" in err and "slope" not in err

    @pytest.mark.parametrize("tag", list(SlopeTag), ids=lambda t: t.value)
    def test_slope_rejects_each_flag_its_kind_does_not_take(self, cfg_path, capsys, tag):
        flags, _ = SLOPE_CASES[tag]
        taken = set(flags[::2])
        base = ["--config", cfg_path, "slope", "--kind", tag.value, "--object", "curvecl", *flags]
        for flag in FLAG_VALUES.keys() - taken:
            code, _ = run_cli(*base, flag, FLAG_VALUES[flag])
            assert code == 1
            assert f"slope --kind {tag.value} does not take {flag}" in capsys.readouterr().err

    def test_onedim_charge_rejects_the_curve_flags(self, cfg_path, capsys):
        # the one-dimensional transform charge reads no (y, z): it is the
        # same at (1, 3) and (5, 7)
        code, _ = run_cli("--config", cfg_path, "charge", "--kind", "onedim", "--object", "curvecl",
                          "--u", "1/2", "--v", "4", "--y", "1", "--z", "3")
        assert code == 1
        assert "charge --kind onedim does not take --y" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", sorted(CHARGE_FLAGS))
    def test_charge_takes_exactly_the_flags_of_its_kind(self, cfg_path, capsys, kind):
        taken = [arg for flag in CHARGE_FLAGS[kind] for arg in (flag, FLAG_VALUES[flag])]
        base = ["--config", cfg_path, "charge", "--kind", kind, "--object", "curvecl"]
        code, _ = run_cli(*base, *taken)
        assert code == 0
        for flag in FLAG_VALUES.keys() - set(CHARGE_FLAGS[kind]):
            code, _ = run_cli(*base, *taken, flag, FLAG_VALUES[flag])
            assert code == 1
            assert f"charge --kind {kind} does not take {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("action", sorted(CURVE_FLAGS))
    def test_curve_takes_exactly_the_flags_of_its_action(self, cfg_path, capsys, action):
        values = {"--u": "1/2", "--v": "4"}  # on tilt1 at h = 0, where u v = 2
        taken = [arg for flag in CURVE_FLAGS[action] for arg in (flag, values[flag])]
        base = ["--config", cfg_path, "curve", action, "--curve", "tilt1"]
        code, _ = run_cli(*base, *taken)
        assert code == 0
        for flag in values.keys() - set(CURVE_FLAGS[action]):
            code, _ = run_cli(*base, *taken, flag, values[flag])
            assert code == 1
            assert f"curve {action} does not take {flag}" in capsys.readouterr().err


    @pytest.mark.parametrize("flag, command", [
        ("--d", ["phase", "--object", "point", "--curve", "flat1", "--kind", "full"]),
        ("--d", ["slope", "--kind", "MU_PHB_PD", "--object", "curvecl"]),
        ("--dbar", ["charge", "--kind", "onedim", "--object", "curvecl", "--u", "1/2", "--v", "4"]),
        ("--base", ["twist", "--object", "point"]),
        ("--b-base", ["charge", "--kind", "full", "--object", "curvecl", "--u", "1/2", "--v", "4"]),
    ], ids=lambda c: c if isinstance(c, str) else c[0])
    @pytest.mark.parametrize("value", ["[1", "[x]", "[1,2]"])
    def test_malformed_divisor_flag_names_the_flag(self, cfg_path, capsys, flag, command, value):
        """A divisor flag is command-line input, not config: a malformed or
        wrong-rank value is a domain error (exit 1) naming the flag."""
        code, out = run_cli("--config", cfg_path, *command, flag, value)
        assert code == 1 and out == ""
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}: ") and "parse error" not in err

    @pytest.mark.parametrize("flag, command", [
        ("--theta", ["twist", "--object", "point"]),
        ("--u", ["charge", "--kind", "reduced", "--object", "curvecl", "--v", "4"]),
        ("--v", ["charge", "--kind", "reduced", "--object", "curvecl", "--u", "1/2"]),
        ("--y", ["slope", "--kind", "MU_BAR", "--object", "curvecl", "--z", "3", "--dbar", "[1]"]),
        ("--z", ["slope", "--kind", "MU_BAR", "--object", "curvecl", "--y", "2", "--dbar", "[1]"]),
        ("--b-theta", ["charge", "--kind", "full", "--object", "curvecl", "--u", "1/2", "--v", "4"]),
        ("--vmin", ["wall-scan", "--objects", "point,curvecl", "--curve", "tilt1", "--kind",
                    "reduced", "--vmax", "10"]),
        ("--vmax", ["wall-scan", "--objects", "point,curvecl", "--curve", "tilt1", "--kind",
                    "reduced", "--vmin", "1"]),
    ], ids=lambda c: c if isinstance(c, str) else c[0])
    def test_malformed_rational_flag_names_the_flag(self, cfg_path, capsys, flag, command):
        """With two rational flags on one command, the message says which
        one is wrong; the exit code stays 1."""
        code, out = run_cli("--config", cfg_path, *command, flag, "x")
        assert code == 1 and out == ""
        assert capsys.readouterr().err == f"error: {flag}: expected a rational, got 'x'\n"

    @pytest.mark.parametrize("flag, command", [
        ("--b-theta", ["charge", "--kind", "full", "--object", "curvecl", "--u", "1/2", "--v", "4"]),
        ("--b-theta", ["slope", "--kind", "MU_OMEGA_B", "--object", "curvecl", "--u", "1/2", "--v", "4"]),
        ("--theta", ["twist", "--object", "point"]),
        ("--u", ["charge", "--kind", "reduced", "--object", "curvecl", "--v", "4"]),
    ], ids=lambda c: c if isinstance(c, str) else c[0])
    def test_empty_rational_flag_names_the_flag(self, cfg_path, capsys, flag, command):
        """An empty value is not a rational, so it is an error naming the
        flag, never read as zero."""
        code, out = run_cli("--config", cfg_path, *command, f"{flag}=")
        assert code == 1 and out == ""
        assert capsys.readouterr().err == f"error: {flag}: expected a rational, got ''\n"

    @pytest.mark.parametrize("command", [
        ["phase", "--object", "point"],
        ["compare", "--objects", "point,curvecl"],
        ["wall-scan", "--objects", "point,curvecl", "--vmin", "1", "--vmax", "10"],
    ], ids=lambda c: c[0])
    def test_germ_commands_take_d_only_with_the_full_kind(self, cfg_path, capsys, command):
        """The reduced charge has no B-field, so --d with --kind reduced is
        an error rather than silently ignored."""
        base = ["--config", cfg_path, *command]
        code, _ = run_cli(*base, "--curve", "flat1", "--kind", "full", "--d", "[2]")
        assert code == 0
        code, out = run_cli(*base, "--curve", "tilt1", "--kind", "reduced", "--d", "[5]")
        assert code == 1 and out == ""
        assert f"{command[0]} --kind reduced does not take --d" in capsys.readouterr().err
        code, _ = run_cli(*base, "--curve", "tilt1", "--kind", "reduced")
        assert code == 0


class TestRunParameters:
    """precision, order and cases are positive, and integer keys are integral: a bad
    flag is a usage error, a bad config key a validation error naming it."""

    @pytest.mark.parametrize("value", ["-3", "0"])
    @pytest.mark.parametrize("command", [
        ["curve", "solve", "--curve", "tilt1", "--v", "3"],
        ["wall-scan", "--objects", "point,curvecl", "--curve", "flat1", "--kind", "full",
         "--vmin", "1", "--vmax", "10"],
    ])
    def test_nonpositive_precision_flag(self, cfg_path, capsys, value, command):
        with pytest.raises(SystemExit) as exc:
            run_cli("--config", cfg_path, "--precision", value, *command)
        assert exc.value.code == 2
        assert "--precision" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_nonpositive_cases_flag(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            run_cli("--cases", value, "verify", "--suite", "swap")
        assert exc.value.code == 2
        assert "--cases" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-3", "-1"])
    def test_negative_seed_flag(self, capsys, value):
        """``random.Random(-s)`` seeds with |s|, so a negative seed would
        silently rerun the positive one; it is refused as ``--cases 0`` is."""
        with pytest.raises(SystemExit) as exc:
            run_cli("--seed", value, "verify", "--suite", "swap")
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_zero_seed_flag_runs(self):
        code, out = run_cli("--format", "records", "--seed", "0", "--cases", "2", "verify", "--suite", "swap")
        assert code == 0 and out == "suite\tcases\tstatus\nswap\t2\tpass\n"

    def test_zero_seed_key(self):
        assert parse_config(re.sub(r"(?m)^seed = .*$", "seed = 0", SAMPLE)).defaults.seed == 0

    @pytest.mark.parametrize("name", suites.SUITE_NAMES)
    def test_run_suite_refuses_a_negative_seed(self, name):
        with pytest.raises(DomainError, match=f"suite {name}: seed must be non-negative, got -3"):
            suites.run_suite(name, 1, -3)

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("command", [
        ["curve", "expand", "--curve", "flat1"],
        ["phase", "--object", "point", "--curve", "flat1", "--kind", "full"],
        ["verify", "--suite", "involution"],
    ])
    def test_nonpositive_order_flag(self, cfg_path, capsys, value, command):
        with pytest.raises(SystemExit) as exc:
            run_cli("--config", cfg_path, "--order", value, *command)
        assert exc.value.code == 2
        assert "--order" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("defaults", "precision", "-3"),
        ("defaults", "precision", "0"),
        ("defaults", "cases", "0"),
        ("defaults", "order", "-1"),
        ("defaults", "order", "0"),
        ("defaults", "order", "17/2"),
        ("defaults", "seed", "1/3"),
        ("defaults", "seed", "-3"),
        ("geometry", "rank", "3/2"),
    ])
    def test_bad_integer_key(self, tmp_path, capsys, section, key, value):
        text = re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", SAMPLE)
        with pytest.raises(ConfigValidationError) as exc:
            parse_config(text)
        assert exc.value.path == f"{section}.{key}"
        p = tmp_path / "bad.cfg"
        p.write_text(text)
        code, _ = run_cli("--config", str(p), "transform", "--object", "point")
        assert code == 1
        assert f"{section}.{key}" in capsys.readouterr().err
