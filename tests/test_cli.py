"""End-to-end command line tests driven through main(argv)."""

import argparse
import contextlib
import copy
import gc
import io
import json
import math
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricflex import cli
from toricflex.cli import COMMANDS, main
from toricflex.cover import certificate_to_dict, certificate_to_json, build_cover
from toricflex.fans import (
    fan_from_json,
    fan_hirzebruch,
    fan_product,
    fan_projective_space,
    fan_punctured_affine,
    fan_to_json,
    make_fan,
    report_to_dict,
    validate_fan,
)

P2_JSON = fan_to_json(fan_projective_space(2))

DEGENERATE_JSON = '{"rank": 2, "rays": [[1, 0]], "max_cones": [[0]]}'
NONSMOOTH_JSON = '{"rank": 2, "rays": [[1, 0], [1, 2]], "max_cones": [[0, 1]]}'
DUP_CONE_JSON = '{"rank": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[0, 1], [0, 1]]}'


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestValidate:
    def test_valid_fan(self, tmp_path, capsys):
        path = write(tmp_path, "p2.json", P2_JSON)
        assert main(["validate", "--input", path]) == 0
        out = capsys.readouterr()
        assert out.out.strip() == "valid, smooth, nondegenerate, complete"
        assert out.err == ""

    def test_invalid_fan_reports_findings(self, tmp_path, capsys):
        path = write(tmp_path, "dup.json", DUP_CONE_JSON)
        assert main(["validate", "--input", path]) == 1
        out = capsys.readouterr()
        assert out.out.startswith("invalid")
        assert "finding:" in out.err
        assert "appears more than once" in out.err

    def test_unparsable_input(self, tmp_path, capsys):
        path = write(tmp_path, "junk.json", "{{{")
        assert main(["validate", "--input", path]) == 2
        assert capsys.readouterr().err.startswith("toricflex: ")

    def test_missing_file(self, capsys):
        assert main(["validate", "--input", "/no/such/file.json"]) == 2
        assert capsys.readouterr().err.startswith("toricflex: ")

    def test_stdin_input(self, monkeypatch, capsys):
        stdin = io.TextIOWrapper(io.BytesIO(P2_JSON.encode()), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        assert main(["validate"]) == 0
        assert capsys.readouterr().out.strip() == (
            "valid, smooth, nondegenerate, complete"
        )


class TestAnalyze:
    def test_report_json(self, tmp_path, capsys):
        path = write(tmp_path, "p2.json", P2_JSON)
        assert main(["analyze", "--input", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == report_to_dict(validate_fan(fan_projective_space(2)))

    def test_output_file(self, tmp_path, capsys):
        src = write(tmp_path, "p2.json", P2_JSON)
        dst = tmp_path / "report.json"
        assert main(["analyze", "--input", src, "--output", str(dst)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(dst.read_text())["valid"] is True

    def test_invalid_fan_still_writes_report(self, tmp_path, capsys):
        path = write(tmp_path, "dup.json", DUP_CONE_JSON)
        assert main(["analyze", "--input", path]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["valid"] is False
        assert doc["diagnostics"]


class TestCoverAndVerify:
    def test_cover_then_verify(self, tmp_path, capsys):
        fan_path = write(tmp_path, "p2.json", P2_JSON)
        cert_path = str(tmp_path / "cert.json")
        assert main(["cover", "--input", fan_path, "--output", cert_path]) == 0
        capsys.readouterr()
        assert (
            main(["verify", "--input", fan_path, "--cert", cert_path, "--verbose"])
            == 0
        )
        out = capsys.readouterr()
        assert "certificate verified" in out.err

    def test_cover_verbose_note(self, tmp_path, capsys):
        # One quadrant and an opposite half-line: one chart of each kind.
        fan = make_fan(2, [(1, 0), (0, 1), (-1, 0)], [(0, 1), (2,)])
        fan_path = write(tmp_path, "mixed.json", fan_to_json(fan))
        assert main(["cover", "--input", fan_path, "--output", str(tmp_path / "c.json")]) == 0
        assert capsys.readouterr().err == ""
        argv = ["cover", "--input", fan_path, "--output", str(tmp_path / "c.json"), "--verbose"]
        assert main(argv) == 0
        assert capsys.readouterr().err == (
            "toricflex: built 2 charts (AffineSpace, FlexibleComplement); a_covered = False\n"
        )

    def test_indented_certificate_still_verifies(self, tmp_path, capsys):
        fan_path = write(tmp_path, "p2.json", P2_JSON)
        cert_path = tmp_path / "cert.json"
        assert main(["cover", "--input", fan_path, "--output", str(cert_path)]) == 0
        text = cert_path.read_text(encoding="utf-8")
        assert text.count("\n") == 1
        cert_path.write_text(json.dumps(json.loads(text), indent=2), encoding="utf-8")
        assert main(["verify", "--input", fan_path, "--cert", str(cert_path)]) == 0
        assert capsys.readouterr().err == ""

    def test_cover_is_byte_deterministic(self, tmp_path):
        fan_path = write(tmp_path, "p2.json", P2_JSON)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["cover", "--input", fan_path, "--output", str(a)]) == 0
        assert main(["cover", "--input", fan_path, "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_cover_pipes_through_stdout(self, tmp_path, monkeypatch, capsys):
        fan_path = write(tmp_path, "pa2.json", fan_to_json(make_fan(2, [(1, 0), (0, 1)], [(0,), (1,)])))
        assert main(["cover", "--input", fan_path]) == 0
        cert_text = capsys.readouterr().out
        stdin = io.TextIOWrapper(io.BytesIO(cert_text.encode()), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        assert main(["verify", "--input", fan_path, "--cert", "-"]) == 0

    def test_cover_degenerate_fan(self, tmp_path, capsys):
        path = write(tmp_path, "deg.json", DEGENERATE_JSON)
        assert main(["cover", "--input", path]) == 3
        err = capsys.readouterr().err
        assert "hypothesis failure" in err
        assert "torus_factor_rank = 1" in err

    def test_cover_nonsmooth_fan(self, tmp_path, capsys):
        path = write(tmp_path, "skew.json", NONSMOOTH_JSON)
        assert main(["cover", "--input", path]) == 3
        assert "hypothesis failure" in capsys.readouterr().err

    def test_cover_invalid_fan(self, tmp_path, capsys):
        path = write(tmp_path, "dup.json", DUP_CONE_JSON)
        assert main(["cover", "--input", path]) == 1

    def test_verify_tampered_certificate(self, tmp_path, capsys):
        fan = fan_projective_space(2)
        fan_path = write(tmp_path, "p2.json", P2_JSON)
        doc = certificate_to_dict(build_cover(fan))
        del doc["charts"][1]
        cert_path = write(tmp_path, "bad.json", json.dumps(doc))
        assert main(["verify", "--input", fan_path, "--cert", cert_path]) == 4
        err = capsys.readouterr().err
        assert "finding: maximal cone 1 uncovered" in err
        assert "verification failed with" in err

    def test_verify_refuses_a_format_1_certificate(self, tmp_path, capsys):
        # A format 2 certificate given back the fields format 1 also wrote:
        # the fan report and each chart's k and n.  The reader ignores them,
        # so the version is the one finding.
        fan = fan_punctured_affine(3)
        fan_path = write(tmp_path, "a3.json", fan_to_json(fan))
        doc = certificate_to_dict(build_cover(fan))
        doc["format_version"] = 1
        doc["report"] = report_to_dict(validate_fan(fan))
        for chart in doc["charts"]:
            chart["k"] = len(fan.max_cones[chart["cone_index"]])
            chart["n"] = fan.ambient_rank
        cert_path = write(tmp_path, "v1.json", json.dumps(doc))
        assert main(["verify", "--input", fan_path, "--cert", cert_path]) == 4
        err = capsys.readouterr().err
        findings = [line for line in err.splitlines() if line.startswith("toricflex: finding: ")]
        assert findings == ["toricflex: finding: format_version is 1, this verifier handles 2"]

    def test_verify_malformed_certificate(self, tmp_path, capsys):
        fan_path = write(tmp_path, "p2.json", P2_JSON)
        cert_path = write(tmp_path, "shape.json", '{"format_version": 1}')
        assert main(["verify", "--input", fan_path, "--cert", cert_path]) == 2
        assert capsys.readouterr().err.startswith("toricflex: ")


class TestExample:
    def test_projective_round_trips(self, capsys):
        assert main(["example", "--name", "projective", "--param", "2"]) == 0
        fan = fan_from_json(capsys.readouterr().out)
        assert fan == fan_projective_space(2)

    def test_hirzebruch(self, capsys):
        assert main(["example", "--name", "hirzebruch", "--param", "3"]) == 0
        fan = fan_from_json(capsys.readouterr().out)
        assert len(fan.rays) == 4
        assert (-1, 3) in fan.rays

    def test_product_takes_two_params(self, capsys):
        assert main(
            ["example", "--name", "product", "--param", "1", "--param", "2"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rank"] == 3
        assert len(doc["rays"]) == 5

    def test_wrong_arity(self, capsys):
        assert main(["example", "--name", "product", "--param", "1"]) == 2
        assert main(["example", "--name", "projective"]) == 2
        capsys.readouterr()

    def test_bad_parameter_value(self, capsys):
        assert main(["example", "--name", "projective", "--param", "0"]) == 2
        assert capsys.readouterr().err.startswith("toricflex: ")

    def test_rank_bound_edges(self, tmp_path, capsys):
        assert main(["example", "--name", "projective", "--param", "32"]) == 0
        assert fan_from_json(capsys.readouterr().out).ambient_rank == 32
        assert main(["example", "--name", "product", "--param", "1", "--param", "31"]) == 0
        assert fan_from_json(capsys.readouterr().out).ambient_rank == 32
        for params in (["33"], ["16", "17"], ["40", "-8"]):
            name = "product" if len(params) == 2 else "projective"
            out = tmp_path / f"{name}.json"
            argv = ["example", "--name", name, "--output", str(out)]
            for p in params:
                argv += ["--param", p]
            assert main(argv) == 2
            stdout, stderr = capsys.readouterr()
            assert stdout == "" and not out.exists()
            assert stderr.startswith("toricflex: ") and stderr.count("\n") == 1
            assert "above the limit of 32" in stderr
        for name in ("affine", "punctured"):
            assert main(["example", "--name", name, "--param", "33"]) == 2
            assert "above the limit of 32" in capsys.readouterr().err

    def test_hirzebruch_twist_is_not_a_rank(self, capsys):
        assert main(["example", "--name", "hirzebruch", "--param", "1000"]) == 0
        assert (-1, 1000) in fan_from_json(capsys.readouterr().out).rays

    def test_unknown_name(self, capsys):
        assert main(["example", "--name", "weighted", "--param", "1"]) == 2
        capsys.readouterr()

    def test_verbose_note(self, capsys):
        assert main(
            ["example", "--name", "projective", "--param", "2", "--verbose"]
        ) == 0
        assert "3 rays" in capsys.readouterr().err


class TestSubdivide:
    def test_blowup_of_projective_plane(self, tmp_path, capsys):
        path = write(tmp_path, "p2.json", P2_JSON)
        assert main(["subdivide", "--input", path, "--cone", "1,2"]) == 0
        fan = fan_from_json(capsys.readouterr().out)
        assert fan.rays == ((-1, -1), (0, 1), (1, 0), (1, 1))
        assert fan.max_cones == ((0, 1), (0, 2), (1, 3), (2, 3))

    def test_verbose_note(self, tmp_path, capsys):
        # The star subdivision of P^2 at the cone on (0, 1) and (1, 0).
        path = write(tmp_path, "p2.json", P2_JSON)
        argv = ["subdivide", "--input", path, "--cone", "1,2", "--output", str(tmp_path / "b.json")]
        assert main(argv + ["--verbose"]) == 0
        assert capsys.readouterr() == (
            "", "toricflex: added ray (1, 1); fan now has 4 maximal cones\n"
        )

    def test_one_dimensional_cone_is_usage_error(self, tmp_path, capsys):
        path = write(tmp_path, "p2.json", P2_JSON)
        assert main(["subdivide", "--input", path, "--cone", "0"]) == 2
        assert capsys.readouterr().err.startswith("toricflex: ")

    def test_unparsable_cone(self, tmp_path, capsys):
        path = write(tmp_path, "p2.json", P2_JSON)
        assert main(["subdivide", "--input", path, "--cone", "a,b"]) == 2
        assert "--cone expects" in capsys.readouterr().err

    def test_nonsmooth_fan(self, tmp_path, capsys):
        path = write(tmp_path, "skew.json", NONSMOOTH_JSON)
        assert main(["subdivide", "--input", path, "--cone", "0,1"]) == 3
        assert "hypothesis failure" in capsys.readouterr().err

    def test_invalid_fan(self, tmp_path, capsys):
        path = write(tmp_path, "dup.json", DUP_CONE_JSON)
        assert main(["subdivide", "--input", path, "--cone", "0,1"]) == 1
        assert "refusing to subdivide an invalid fan" in capsys.readouterr().err


class TestParser:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "the following arguments are required: command\n"),
            (["bogus"], "argument command: invalid choice: 'bogus' (choose from "),
        ],
    )
    def test_errors_name_the_command_argument(self, capsys, argv, message):
        assert main(argv) == 2
        assert f"toricflex: error: {message}" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert main(["validate", "--frobnicate"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["validate", "analyze"])
    def test_verbose_is_refused_where_it_did_nothing(self, tmp_path, capsys, command):
        path = write(tmp_path, "p2.json", P2_JSON)
        out = tmp_path / "out.json"
        argv = [command, "--input", path, "--verbose"]
        if command == "analyze":
            argv += ["--output", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --verbose" in captured.err
        assert not out.exists()


# One successful run of each command on P^2, from a directory holding
# p2.json and its certificate cert.json (the p2_dir fixture).
RUNS = {
    "validate": ["validate", "--input", "p2.json"],
    "analyze": ["analyze", "--input", "p2.json"],
    "cover": ["cover", "--input", "p2.json"],
    "verify": ["verify", "--input", "p2.json", "--cert", "cert.json", "--verbose"],
    "example": ["example", "--name", "projective", "--param", "2"],
    "subdivide": ["subdivide", "--input", "p2.json", "--cone", "0,1"],
}

PARSER_CORPUS = (
    [[], ["--help"], ["-h"], ["-h", "cover"], ["bogus"], ["--input", "x"]]
    + [[name, flag] for name in COMMANDS for flag in ("--help", "-h")]
    + [
        ["verify", "--input", "p2.json"],
        ["subdivide", "--input", "p2.json"],
        ["validate", "--input"],
        ["example", "--name", "weighted", "--param", "1"],
        ["validate", "--frobnicate"],
        ["validate", "--input", "p2.json", "extra"],
        ["validate", "--input", "p2.json", "--verbose"],
        ["cover", "--input=p2.json", "--output=-"],
        ["cover", "--inp", "p2.json"],
        ["cover", "--", "x"],
        ["validate", "--input", "missing.json", "--input", "p2.json"],
        ["cover", "--input", "p2.json", "validate"],
    ]
    + list(RUNS.values())
)


@pytest.fixture
def p2_dir(tmp_path, monkeypatch):
    (tmp_path / "p2.json").write_text(P2_JSON, encoding="utf-8")
    cert = certificate_to_json(build_cover(fan_projective_space(2)))
    (tmp_path / "cert.json").write_text(cert, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.fixture
def parsers_built(monkeypatch):
    """The prog of each argparse.ArgumentParser constructed, in order."""
    progs = []
    original = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    return progs


# The full parser: the top-level parser, then one per command.
FULL_PARSER = ["toricflex"] + [f"toricflex {name}" for name in COMMANDS]


@pytest.mark.parametrize("columns", [None, "30", "200"], ids=["columns-unset", "30", "200"])
@pytest.mark.parametrize("argv", PARSER_CORPUS, ids=lambda argv: " ".join(argv) or "no-args")
def test_one_command_parser_matches_the_full_parser(p2_dir, monkeypatch, capsys, columns, argv):
    # The oracle parses with every command's parser built, whatever argv names.
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    code = main(argv)
    fast = (code, *capsys.readouterr())
    try:
        args = cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        code = int(exc.code or 0)
    else:
        code = args.handler(args)
    assert fast == (code, *capsys.readouterr())


@pytest.mark.parametrize("name", list(RUNS))
def test_a_named_command_builds_one_subparser(p2_dir, capsys, parsers_built, name):
    assert main(RUNS[name]) == 0
    assert parsers_built == [f"toricflex {name}"]


@pytest.mark.parametrize(
    "argv, code",
    [(["--help"], 0), ([], 2), (["bogus"], 2), (["validate", "--input", "p2.json", "extra"], 2)],
)
def test_other_argv_builds_every_subparser(capsys, parsers_built, argv, code):
    assert main(argv) == code
    # A named command's own parser comes first; it leaves "extra" over.
    own = [f"toricflex {name}" for name in argv[:1] if name in COMMANDS]
    assert parsers_built == own + FULL_PARSER


def test_main_reads_sys_argv(p2_dir, monkeypatch, capsys, parsers_built):
    monkeypatch.setattr(sys, "argv", ["toricflex", "validate", "--input", "p2.json"])
    assert main() == 0
    assert capsys.readouterr().out == "valid, smooth, nondegenerate, complete\n"
    assert parsers_built == ["toricflex validate"]


# One run per exit code from the p2_dir directory, each decided inside the
# command: 1 and 3 are raised and mapped, 2 is a missing input file.
EXIT_RUNS = {
    0: ["validate", "--input", "p2.json"],
    1: ["cover", "--input", "overlap.json"],
    2: ["validate", "--input", "missing.json"],
    3: ["cover", "--input", "nonsmooth.json"],
    4: ["verify", "--input", "f1.json", "--cert", "cert.json"],
}


class TestCollectorPause:
    """main runs the command with the cycle collector off, then turns it
    back on only if it was on at entry."""

    @pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
    def collecting(self, request):
        before = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if before else gc.disable)()

    @staticmethod
    def use_handler(monkeypatch, handler):
        help_line, _, options = COMMANDS["validate"]
        monkeypatch.setitem(COMMANDS, "validate", (help_line, handler, options))

    def test_the_handler_runs_with_the_collector_off(self, monkeypatch, collecting):
        seen = []

        def handler(args):
            seen.append(gc.isenabled())
            return 0

        self.use_handler(monkeypatch, handler)
        assert main(["validate"]) == 0
        assert seen == [False]
        assert gc.isenabled() is collecting

    @pytest.mark.parametrize("code", list(EXIT_RUNS))
    def test_each_exit_code_restores_the_collector(self, p2_dir, capsys, collecting, code):
        (p2_dir / "overlap.json").write_text(
            '{"rank": 2, "rays": [[1, 0], [0, 1], [1, 1]], "max_cones": [[0, 1], [0, 2]]}',
            encoding="utf-8",
        )
        (p2_dir / "nonsmooth.json").write_text(NONSMOOTH_JSON, encoding="utf-8")
        (p2_dir / "f1.json").write_text(fan_to_json(fan_hirzebruch(1)), encoding="utf-8")
        assert main(EXIT_RUNS[code]) == code
        assert gc.isenabled() is collecting
        capsys.readouterr()

    def test_a_traceback_restores_the_collector(self, monkeypatch, collecting):
        def handler(args):
            raise RuntimeError("stray")

        self.use_handler(monkeypatch, handler)
        with pytest.raises(RuntimeError, match="stray"):
            main(["validate"])
        assert gc.isenabled() is collecting


# Inputs that once escaped the exit-code contract as tracebacks with exit 1.
DEEP_JSON = b"[" * 100_000 + b"]" * 100_000
NOT_UTF8 = b'{"rank": 2, "rays": [[1, 0]], "max_cones": [[0]]} \xff\xfe'
LONG_INT = b'{"rank": 2, "rays": [[' + b"7" * 5000 + b', 1]], "max_cones": [[0]]}'

# A smooth fan whose charts have quotient order A^2 - 1, too long to write.
_A = 10**2200 + 1
LONG_QUOTIENT_FAN = json.dumps(
    {"rank": 3, "rays": [[1, 0, 0], [0, _A, 1], [0, 1, _A]], "max_cones": [[0], [1], [2]]}
)
# A smooth cone whose star subdivision adds a ray too long to write.
_B = 5 * 10**4299
LONG_RAY_FAN = json.dumps({"rank": 2, "rays": [[_B, 1], [_B + 1, 1]], "max_cones": [[0, 1]]})


def _hostile_cases():
    """(files to write, argv, bytes on stdin) for each hostile case."""
    for name, data in (("deep", DEEP_JSON), ("not-utf8", NOT_UTF8), ("long-int", LONG_INT)):
        yield pytest.param(
            {"in.json": data}, ["validate", "--input", "in.json"], None, id=f"validate-file-{name}"
        )
        yield pytest.param({}, ["validate"], data, id=f"validate-stdin-{name}")
        yield pytest.param(
            {"p2.json": P2_JSON.encode(), "cert.json": data},
            ["verify", "--input", "p2.json", "--cert", "cert.json"],
            None,
            id=f"verify-cert-{name}",
        )
    yield pytest.param(
        {"fan.json": LONG_QUOTIENT_FAN.encode()},
        ["cover", "--input", "fan.json", "--output", "out.json"],
        None,
        id="cover-long-quotient",
    )
    yield pytest.param(
        {"fan.json": LONG_RAY_FAN.encode()},
        ["subdivide", "--input", "fan.json", "--cone", "0,1", "--output", "out.json"],
        None,
        id="subdivide-long-ray",
    )


@pytest.mark.parametrize("files, argv, stdin_bytes", _hostile_cases())
def test_hostile_input_is_a_usage_error(tmp_path, monkeypatch, capsys, files, argv, stdin_bytes):
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    monkeypatch.chdir(tmp_path)
    if stdin_bytes is not None:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin_bytes), encoding="utf-8"))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("toricflex: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "out.json").exists()


def test_verify_names_a_recomputed_quotient_too_long_to_print(tmp_path, monkeypatch, capsys):
    # The reader accepts the trivial quotients; the recomputed order,
    # _A^2 - 1, has more digits than str() may print.
    doc = certificate_to_dict(build_cover(fan_from_json(LONG_QUOTIENT_FAN)))
    for chart in doc["charts"]:
        chart["quotient"] = {"invariant_factors": [], "order": 1}
    (tmp_path / "fan.json").write_text(LONG_QUOTIENT_FAN, encoding="utf-8")
    (tmp_path / "cert.json").write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    limit = sys.get_int_max_str_digits()
    assert main(["verify", "--input", "fan.json", "--cert", "cert.json"]) == 4
    assert sys.get_int_max_str_digits() == limit
    err = capsys.readouterr().err
    assert "Traceback" not in err
    size = f"an integer of {(_A * _A - 1).bit_length()} bits"
    for i in range(3):
        tag = f"toricflex: finding: chart for maximal cone {i}: quotient"
        assert f"{tag} invariant factors [] differ from recomputed [{size}]\n" in err
        assert f"{tag} order 1 differs from recomputed {size}\n" in err


def test_stdin_is_decoded_as_utf8_whatever_the_locale(tmp_path, monkeypatch, capsys):
    path = tmp_path / "in.json"
    path.write_bytes(NOT_UTF8)
    assert main(["validate", "--input", str(path)]) == 2
    from_file = capsys.readouterr().err
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(NOT_UTF8), encoding="latin-1"))
    assert main(["validate"]) == 2
    from_stdin = capsys.readouterr().err
    assert "'utf-8' codec can't decode" in from_stdin
    assert from_stdin == from_file


def _json_values():
    leaves = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-3, 6),
        st.floats(allow_nan=False),
        st.text(max_size=3),
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)
        ),
        max_leaves=6,
    )


def _paths(node, prefix=()):
    """Every key path into a parsed JSON document, the root included."""
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, prefix + (i,))


def _similar(node):
    """Values of the same JSON type as node, so that more mutants still parse."""
    if isinstance(node, bool):
        return st.booleans()
    if isinstance(node, int):
        return st.integers(-3, 6)
    if isinstance(node, str):
        return st.text(max_size=3)
    if isinstance(node, list) and node:
        return st.lists(st.sampled_from(node), max_size=len(node) + 1)
    return _json_values()


def _mutate(data, doc):
    """Replace or delete the value at one drawn path into the document."""
    path = data.draw(st.sampled_from(list(_paths(doc))))
    parent, node = None, doc
    for key in path:
        parent, node = node, node[key]
    similar = _similar(node)
    value = data.draw(st.one_of(similar, similar, similar, _json_values()))
    if parent is None:
        return value
    if data.draw(st.integers(0, 3)) == 0:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _run_quietly(argv, stdin_text):
    stdin = io.TextIOWrapper(io.BytesIO(stdin_text.encode()), encoding="utf-8")
    with (
        mock.patch("sys.stdin", stdin),
        contextlib.redirect_stdout(io.StringIO()),
        contextlib.redirect_stderr(io.StringIO()),
    ):
        return main(argv)


CERTIFIED_FANS = {
    "p2": fan_projective_space(2),
    "punctured-a3": fan_punctured_affine(3),
    "f2": fan_hirzebruch(2),
    "p1xp1": fan_product(fan_projective_space(1), fan_projective_space(1)),
}


@pytest.fixture(scope="module")
def certified_fan_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("certified")
    files = {}
    for name, fan in CERTIFIED_FANS.items():
        path = root / f"{name}.json"
        path.write_text(fan_to_json(fan), encoding="utf-8")
        files[name] = (str(path), certificate_to_dict(build_cover(fan)))
    return files


@settings(deadline=None)
@given(
    data=st.data(),
    command=st.sampled_from(
        [
            ["validate"],
            ["analyze"],
            ["cover"],
            ["subdivide", "--cone", "0,1"],
            ["subdivide", "--cone", "1,2,0"],
            ["subdivide", "--cone", "0"],
            ["subdivide", "--cone", "3,x"],
        ]
    ),
)
def test_random_fans_stay_within_the_exit_codes(data, command):
    n = data.draw(st.integers(1, 3))
    primitive = st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(
        lambda v: math.gcd(*v) == 1
    )
    rays = data.draw(st.lists(primitive, min_size=1, max_size=5, unique_by=tuple))
    cone = st.lists(st.integers(0, len(rays) - 1), min_size=1, max_size=n, unique=True)
    doc = {"rank": n, "rays": rays, "max_cones": data.draw(st.lists(cone, min_size=1, max_size=5))}
    for _ in range(data.draw(st.integers(0, 2))):
        doc = _mutate(data, doc)
    assert _run_quietly(command, json.dumps(doc)) in range(5)


@settings(deadline=None)
@given(name=st.sampled_from(sorted(CERTIFIED_FANS)), data=st.data())
def test_mutated_certificates_stay_within_the_exit_codes(certified_fan_files, name, data):
    fan_path, cert = certified_fan_files[name]
    doc = copy.deepcopy(cert)
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _mutate(data, doc)
    code = _run_quietly(["verify", "--input", fan_path, "--cert", "-"], json.dumps(doc))
    assert code in range(5)
