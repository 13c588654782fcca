"""The argparse parser that needlecomp.cli had before its commands were parsed
by hand, with the negative-number pattern it set on the jacobian and profile
subparsers.  tests/test_parse_args.py and tests/test_cli.py hold
cli.parse_args to the command and values this parser gives, and to its exit
status 0 on a help request and 2 on a malformed line."""

import argparse
import contextlib
import io
import re

from needlecomp import __version__
from needlecomp.cli import FORMATS, _cmd_jacobian, _cmd_profile, _cmd_run

# A negative number as a command-line value, exponent included.
_NEGATIVE_NUMBER = re.compile(r"^-\d*\.?\d+([eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="needlecomp",
        description="tube-volume bounds and rigidity detection on model spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment configuration")
    p_run.add_argument("config", help="path to the configuration file")
    p_run.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                       help="override a configuration key (repeatable)")
    p_run.add_argument("--format", choices=FORMATS,
                       help="override the output format")
    p_run.add_argument("--path", help="override the output path")
    p_run.set_defaults(fn=_cmd_run)

    for name, text, flags, fn in (
            ("jacobian", "evaluate the distortion profile", "HKNr", _cmd_jacobian),
            ("profile", "evaluate the model isoperimetric profile", "KNv", _cmd_profile)):
        p_eval = sub.add_parser(name, help=text)
        # argparse's own pattern takes a value such as -1e-5 for an option
        p_eval._negative_number_matcher = _NEGATIVE_NUMBER
        for flag in flags:
            p_eval.add_argument(f"--{flag}", type=float, required=True)
        p_eval.set_defaults(fn=fn)

    p_ver = sub.add_parser("version", help="print the version")
    p_ver.set_defaults(fn=lambda args: print(f"needlecomp {__version__}") or 0)

    return parser


def argparse_outcome(argv):
    """(command, values by name) as build_parser parses argv, or the status it
    exits with: 0 after a help text, 2 after a usage error."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            values = vars(build_parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code
    del values["fn"]
    return values.pop("command"), values

