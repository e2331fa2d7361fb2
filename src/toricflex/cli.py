"""Command-line interface.

Exit codes are a stable contract: 0 success, 1 invalid fan, 2 parse or
usage error, 3 hypothesis failure (degenerate or non-smooth input where
the cover construction needs both), 4 certificate verification failure.
Machine-readable payloads go to stdout (or --output); everything else
goes to stderr.  The path "-" means the standard stream.

COMMANDS is the one list of commands and of the options each takes;
OPTIONS holds each option's argparse keywords.  main parses a command's
arguments with that command's parser alone (_command_parser), and builds
the full parser (build_parser) only when arguments are left over or no
command is named: argparse's top-level help and usage errors come from it.
"""

from __future__ import annotations

import argparse
import gc
import sys

from .cover import build_cover, certificate_from_json, certificate_to_json, verify_certificate
from .errors import (
    BadConeError,
    BadParameterError,
    CertificateFormatError,
    DegenerateError,
    FanFormatError,
    InvalidFanError,
    NotSmoothError,
)
from .fans import (
    HYPOTHESIS_PREFIX,
    Fan,
    FanReport,
    fan_affine_space,
    fan_diagnostics,
    fan_from_json,
    fan_hirzebruch,
    fan_product,
    fan_projective_space,
    fan_punctured_affine,
    fan_to_json,
    report_to_dict,
    star_subdivision,
    validate_fan,
)
from .jsonfmt import pretty_json

EXIT_OK = 0
EXIT_INVALID_FAN = 1
EXIT_USAGE = 2
EXIT_HYPOTHESIS = 3
EXIT_VERIFY_FAILED = 4

# The exit-code contract for every error a command lets propagate.  An
# exception takes the code of the first class on its MRO listed here, so
# NotSimplicialError exits like InvalidFanError.  Bare ValueError is left
# out on purpose: a stray one is a bug and should surface as a traceback.
EXIT_CODES = {
    OSError: EXIT_USAGE,
    UnicodeDecodeError: EXIT_USAGE,
    FanFormatError: EXIT_USAGE,
    CertificateFormatError: EXIT_USAGE,
    BadConeError: EXIT_USAGE,
    BadParameterError: EXIT_USAGE,
    InvalidFanError: EXIT_INVALID_FAN,
    NotSmoothError: EXIT_HYPOTHESIS,
    DegenerateError: EXIT_HYPOTHESIS,
}

# Building an example fan costs about the rank to the power 4.7 (one rank
# test per maximal cone), so `example` refuses larger ranks outright.
MAX_EXAMPLE_RANK = 32

# The named examples: how many --param values each takes, and its builder.
# The order is the order of the --name choices in help and usage text.
EXAMPLES = {
    "affine": (1, fan_affine_space),
    "projective": (1, fan_projective_space),
    "hirzebruch": (1, fan_hirzebruch),
    "product": (2, lambda a, b: fan_product(fan_projective_space(a), fan_projective_space(b))),
    "punctured": (1, fan_punctured_affine),
}


def _read_text(path: str) -> str:
    # Standard input is decoded like a file, as strict UTF-8 whatever the
    # locale, so the same bytes give the same error from either.
    if path == "-":
        return sys.stdin.buffer.read().decode("utf-8")
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _note(message: str) -> None:
    print(f"toricflex: {message}", file=sys.stderr)


def _fail(code: int, message: str) -> int:
    _note(message)
    return code


def _load_fan(path: str) -> Fan:
    return fan_from_json(_read_text(path))


def _summary(report: FanReport) -> str:
    return ", ".join(
        (
            "valid" if report.valid else "invalid",
            "smooth" if report.smooth else "not smooth",
            "nondegenerate" if report.nondegenerate else "degenerate",
            "complete" if report.complete else "not complete",
        )
    )


def _cmd_validate(args: argparse.Namespace) -> int:
    fan = _load_fan(args.input)
    report = validate_fan(fan)
    print(_summary(report))
    for line in report.diagnostics:
        _note(f"finding: {line}")
    return EXIT_OK if report.valid else EXIT_INVALID_FAN


def _cmd_analyze(args: argparse.Namespace) -> int:
    fan = _load_fan(args.input)
    report = validate_fan(fan)
    _write_text(args.output, pretty_json(report_to_dict(report)))
    return EXIT_OK if report.valid else EXIT_INVALID_FAN


def _cmd_cover(args: argparse.Namespace) -> int:
    fan = _load_fan(args.input)
    cert = build_cover(fan)
    if args.verbose:
        kinds = ", ".join(sorted({ch.kind for ch in cert.charts}))
        _note(f"built {len(cert.charts)} charts ({kinds}); a_covered = {cert.a_covered}")
    _write_text(args.output, certificate_to_json(cert))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    fan = _load_fan(args.input)
    cert = certificate_from_json(_read_text(args.cert))
    report = verify_certificate(fan, cert)
    for line in report.findings:
        _note(f"finding: {line}")
    if report.passed:
        if args.verbose:
            _note("certificate verified")
        return EXIT_OK
    return _fail(EXIT_VERIFY_FAILED, f"verification failed with {len(report.findings)} findings")


def _cmd_example(args: argparse.Namespace) -> int:
    params = args.param or []
    arity, builder = EXAMPLES[args.name]
    if len(params) != arity:
        count = "two --param values" if arity == 2 else "one --param value"
        return _fail(EXIT_USAGE, f"example {args.name} needs {count}")
    # The builders refuse a parameter below 1 themselves; counting it as 0
    # here keeps a negative factor from hiding a huge one.  A Hirzebruch
    # surface has rank 2 whatever its twist.
    ambient = 2 if args.name == "hirzebruch" else sum(max(p, 0) for p in params)
    if ambient > MAX_EXAMPLE_RANK:
        raise BadParameterError(
            f"example {args.name} would have ambient rank {ambient}, "
            f"above the limit of {MAX_EXAMPLE_RANK}"
        )
    fan = builder(*params)
    if args.verbose:
        _note(f"{args.name} fan with {len(fan.rays)} rays and {len(fan.max_cones)} maximal cones")
    _write_text(args.output, fan_to_json(fan))
    return EXIT_OK


def _parse_cone(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok.strip()) for tok in text.split(","))
    except ValueError:
        raise BadConeError(
            f"--cone expects comma-separated ray indices, got {text!r}"
        ) from None


def _cmd_subdivide(args: argparse.Namespace) -> int:
    fan = _load_fan(args.input)
    # Only the axioms are checked here: star_subdivision tests smoothness
    # itself, after the cone, so the exit codes come in the order 1, 2, 3.
    diagnostics = fan_diagnostics(fan)
    if diagnostics:
        for line in diagnostics:
            _note(f"finding: {line}")
        return _fail(EXIT_INVALID_FAN, "refusing to subdivide an invalid fan")
    child = star_subdivision(fan, _parse_cone(args.cone))
    # Serialize first: once the fan is known to be writable, its new ray
    # is also short enough to print in the note.
    text = fan_to_json(child)
    if args.verbose:
        _note(f"added ray {child.rays[-1]}; fan now has {len(child.max_cones)} maximal cones")
    _write_text(args.output, text)
    return EXIT_OK


# Every option a command can take, with its add_argument keywords.
OPTIONS = {
    "--input": dict(default="-", help="fan file, or - for stdin (default)"),
    "--output": dict(default="-", help="destination file, or - for stdout (default)"),
    "--verbose": dict(action="store_true", help="extra progress notes on stderr"),
    "--cert": dict(required=True, help="certificate file, or - for stdin"),
    "--cone": dict(required=True, help="comma-separated ray indices, e.g. 0,2"),
    "--name": dict(required=True, choices=list(EXAMPLES)),
    "--param": dict(action="append", type=int,
                    help="integer parameter; repeat for product (two projective factors)"),
}

# The one list of commands: help line, handler and options, in help order.
COMMANDS = {
    "validate": ("check the fan axioms; exit 0 iff valid", _cmd_validate, ("--input",)),
    "analyze": ("write the full fan report as JSON", _cmd_analyze, ("--input", "--output")),
    "cover": ("build a flexibility cover certificate", _cmd_cover,
              ("--input", "--output", "--verbose")),
    "verify": ("independently check a cover certificate", _cmd_verify,
               ("--input", "--cert", "--verbose")),
    "example": ("write a named example fan", _cmd_example,
                ("--name", "--param", "--output", "--verbose")),
    "subdivide": ("star subdivision at a cone of the fan", _cmd_subdivide,
                  ("--input", "--cone", "--output", "--verbose")),
}


def _command_parser(name: str, parent=None) -> argparse.ArgumentParser:
    """One command's parser, alone or in the full parser's subparsers action.

    add_parser makes a plain ArgumentParser with the same prog, so both write
    the same bytes; its help line only feeds the full parser's listing.
    """
    help_line, handler, options = COMMANDS[name]
    parser = (parent.add_parser(name, help=help_line) if parent is not None
              else argparse.ArgumentParser(prog=f"toricflex {name}"))
    for option in options:
        parser.add_argument(option, **OPTIONS[option])
    parser.set_defaults(handler=handler)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricflex",
        description="Fan toolkit: validation, star subdivisions, and flexibility cover certificates.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        _command_parser(name, commands)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = rest = None
        if argv[:1] and argv[0] in COMMANDS:
            args, rest = _command_parser(argv[0]).parse_known_args(argv[1:])
        if args is None or rest:
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help; keep its code.
        return int(exc.code or 0)
    # The command's data hold no reference cycles (a test checks this), so
    # the cycle collector would only walk them in vain; it is paused for
    # the command alone.  The parser, which does hold cycles, is built and
    # run outside the pause, and a caller that turned the collector off
    # finds it off still.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.handler(args)
    except tuple(EXIT_CODES) as exc:
        code = next(EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in EXIT_CODES)
        message = f"{HYPOTHESIS_PREFIX}{exc}" if code == EXIT_HYPOTHESIS else str(exc)
        return _fail(code, message)
    finally:
        if collecting:
            gc.enable()


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
