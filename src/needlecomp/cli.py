"""Batch front end.

Parses flat [section]/key=value experiment configurations, runs the requested
checks against the configured geometry/surface pair, and emits human-readable
reports, CSV tables, or two-column plot data.  Exit status 0 means every
theorem-mandated inequality passed and every requested expectation matched.
"""

from __future__ import annotations

import math
import os
import sys
from _thread import get_ident
from collections import namedtuple
from typing import Callable, NamedTuple, Optional, Sequence

from . import __version__
from .errors import ConfigError, NeedlecompError, ParameterError
from .geometry import (GEOMETRY_KINDS, GeometryKind, GeometrySpec, NeedleDecomposition,
                       decompose, minkowski_content_from_dec, radial_model)
from .hk import (HKReport, closed_form_bounds, equality_detect, equality_tolerance,
                 hk_full, hk_outer, levy_gromov_check)
from .model1d import (J_OVERFLOWS, Checked, CurvatureDimension, JacobianParams, jacobian,
                      model_profile)
from .needle import check_cd_density, density_ratio_check, sturm_bound_check
from .numerics import INEQ_SLACK

FORMATS = ("report", "csv", "plotdata")
MINKOWSKI_REL_TOL = 1e-6
# The largest run.grid_size: cd-density makes grid_size**2 density calls, and at
# 1,500 a run takes about 1 s and 66 MB on a 2-CPU host.
MAX_GRID_SIZE = 1500


class ExperimentConfig(Checked, namedtuple("ExperimentConfig", (
        "geometry surface checks t_values tolerance expect grid_size H0 "
        "output_format output_path"), defaults=((), None, None, 24, None, "report", None))):
    """One experiment: the geometry/surface pair, the checks to run on it and
    how to emit them.  A bad value is a ConfigError naming its config key."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        if not self.checks:
            raise ConfigError("checks must name at least one check", key="checks")
        for name in self.checks:
            if name not in CHECKS:
                raise ConfigError(f"unknown check {name!r}; expected one of "
                                  f"{', '.join(CHECKS)}", key="checks")
        if "hk-outer" in self.checks and not self.t_values:
            raise ConfigError("hk-outer needs at least one tube width", key="t_values")
        for t in self.t_values:
            if not t > 0.0:
                raise ConfigError(f"t_values must be positive, got {t}", key="t_values")
        if self.expect not in (None, "rigid", "not-rigid"):
            raise ConfigError(f"expect must be 'rigid' or 'not-rigid', got {self.expect!r}",
                              key="expect")
        tolerance = self.tolerance
        if tolerance is not None and not (math.isfinite(tolerance) and tolerance > 0.0):
            raise ConfigError(f"tolerance must be finite and positive, got {tolerance}",
                              key="tolerance")
        if self.H0 is not None and not math.isfinite(self.H0):
            raise ConfigError(f"H0 must be finite, got {self.H0}", key="H0")
        if not 3 <= self.grid_size <= MAX_GRID_SIZE:
            raise ConfigError(f"grid_size must be between 3 and {MAX_GRID_SIZE}, "
                              f"got {self.grid_size}", key="grid_size")
        if self.output_format not in FORMATS:
            raise ConfigError(f"format must be report, csv or plotdata, "
                              f"got {self.output_format!r}", key="format")


class Row(NamedTuple):
    """One CSV/plotdata record; None fields render as empty cells."""

    statement: str
    kind: str  # "summary" or "needle"
    t: Optional[float] = None
    lhs: Optional[float] = None
    rhs: Optional[float] = None
    gap: Optional[float] = None
    relative_gap: Optional[float] = None
    equality: Optional[bool] = None
    H_plus: Optional[float] = None
    H_minus: Optional[float] = None
    H: Optional[float] = None


class CheckOutcome(NamedTuple):
    """A check's rows and failure messages; it fails when it has a message."""

    name: str
    rows: list[Row]
    messages: list[str]


# ----------------------------------------------------------------- parsing

def _as_float(value: str, expected: str = "a real number") -> float:
    try:
        out = float(value)
    except ValueError:
        raise ConfigError(f"expected {expected}, got {value!r}") from None
    if math.isnan(out):
        raise ConfigError("NaN is not a valid value")
    return out


def _as_int(value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"expected an integer, got {value!r}") from None


def _as_items(value: str) -> tuple[str, ...]:
    return tuple(piece.strip() for piece in value.split(",") if piece.strip())


def _as_float_list(value: str) -> tuple[float, ...]:
    return tuple(_as_float(piece, "a comma-separated list of reals")
                 for piece in _as_items(value))


# Each key of a section -> (the field it sets, its converter from text).  The
# value types check the converted values; [geometry] is read by its kind's keys.
_FIELDS = {
    "surface": {"r0": ("r0", _as_float)},
    "run": {"checks": ("checks", _as_items), "t_values": ("t_values", _as_float_list),
            "expect": ("expect", str), "tolerance": ("tolerance", _as_float),
            "grid_size": ("grid_size", _as_int), "H0": ("H0", _as_float)},
    "output": {"format": ("output_format", str), "path": ("output_path", str)},
}
_SECTIONS = ("geometry", *_FIELDS)
# A configuration value and where it was given: a line number of the file,
# or a '--set #k' label for the k-th override.
_Value = tuple[str, int | str]


def _tokenize(text: str) -> dict[str, dict[str, _Value]]:
    sections: dict[str, dict[str, _Value]] = {}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ConfigError(f"unknown section '{name}'", line=lineno)
            if name in sections:
                raise ConfigError(f"duplicate section '{name}'", line=lineno)
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=lineno)
        if current is None:
            raise ConfigError("key outside of any [section]", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError("empty key", line=lineno)
        if key in sections[current]:
            raise ConfigError("duplicate key", line=lineno, key=key)
        sections[current][key] = (value, lineno)
    return sections


def _apply_overrides(sections, overrides: Sequence[str]):
    """Apply section.key=value overrides; each value records its position,
    such as '--set #2', where a file value records its line number."""
    for position, item in enumerate(overrides, start=1):
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        target, _, value = item.partition("=")
        section, _, key = target.strip().partition(".")
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section '{section}'")
        sections.setdefault(section, {})[key.strip()] = (value.strip(), f"--set #{position}")
    return sections


def _read(section: str, data: dict[str, _Value], fields: dict, required=()) -> dict:
    """The section's values converted by fields (key -> (field, converter)), in
    the order of fields; an unknown or missing key, or a value that does not
    convert, is a ConfigError naming the key and where it was given."""
    for key, (unused_value, line) in data.items():
        if key not in fields:
            raise ConfigError(f"unknown key in [{section}]", line=line, key=key)
    values = {}
    for key, (field, convert) in fields.items():
        if key not in data:
            if key in required:
                raise ConfigError(f"missing required key in [{section}]", key=key)
            continue
        text, line = data[key]
        try:
            values[field] = convert(text)
        except ConfigError as exc:
            raise ConfigError(exc.reason, line=line, key=key) from None
    return values


def _build(build: Callable, values: dict, data: dict[str, _Value], line=None):
    """build(**values); an error naming a key gets the line that key was given
    on, any other the line given here."""
    try:
        return build(**values)
    except NeedlecompError as exc:
        if exc.key is not None:  # a key left at its default was given on no line
            line = data[exc.key][1] if exc.key in data else None
        raise ConfigError(exc.reason, line=line, key=exc.key) from None


# n is the one integer [geometry] key and density the one string; the rest are reals.
_GEOMETRY_CONVERTERS = {"n": _as_int, "density": str}


def _build_geometry(data: dict[str, _Value]) -> tuple[GeometrySpec, GeometryKind]:
    if "kind" not in data:
        raise ConfigError("missing required key in [geometry]", key="kind")
    name, line = data["kind"]
    kind = GEOMETRY_KINDS.get(name)
    if kind is None:
        raise ConfigError(f"unknown geometry kind {name!r}; expected one of "
                          f"{', '.join(GEOMETRY_KINDS)}", line=line, key="kind")
    fields = {key: (key, _GEOMETRY_CONVERTERS.get(key, _as_float))
              for key in kind.keys + kind.optional}
    values = _read("geometry", {k: v for k, v in data.items() if k != "kind"}, fields,
                   required=kind.keys)
    return _build(kind.build, values, data, line), kind


def parse_config(text: str, overrides: Sequence[str] = ()) -> ExperimentConfig:
    """Parse one experiment configuration document into a checked ExperimentConfig.

    Unknown sections or keys are hard errors naming the line and key; value
    and range validation errors carry the offending key as well.
    """
    sections = _apply_overrides(_tokenize(text), overrides)
    for required in ("geometry", "surface", "run"):
        if required not in sections:
            raise ConfigError(f"missing required section [{required}]")

    geometry, kind = _build_geometry(sections["geometry"])

    r0 = _read("surface", sections["surface"], _FIELDS["surface"], required=("r0",))["r0"]
    length = radial_model(geometry).length
    if not 0.0 < r0 < length:
        raise ConfigError(f"surface touches {kind.end}: r0={r0} must lie strictly "
                          f"inside (0, {length})", line=sections["surface"]["r0"][1], key="r0")

    run_data, output_data = sections["run"], sections.get("output", {})
    values = _read("run", run_data, _FIELDS["run"], required=("checks",))
    values.update(_read("output", output_data, _FIELDS["output"]))
    return _build(ExperimentConfig, dict(values, geometry=geometry, surface=kind.surface(r0)),
                  {**run_data, **output_data})


# ------------------------------------------------------------------ checks

def _needle_check(name: str, dec: NeedleDecomposition, worst: float, passed: bool,
                  failure: str) -> tuple[list[Row], list[str]]:
    """The needle's row of a needle check, against the slack INEQ_SLACK, and
    the failure message of a failed check."""
    row = Row(statement=name, kind="needle", lhs=worst, rhs=INEQ_SLACK, equality=passed,
              H_plus=dec.H_plus, H_minus=dec.H_minus, H=dec.H)
    return [row], [] if passed else [f"needle 0: {failure}"]


# Each check takes (config, dec) and returns its rows and its failure messages.

def _cd_density(config: ExperimentConfig, dec: NeedleDecomposition):
    report = check_cd_density(dec.needle.profile, dec.cd, config.grid_size)
    return _needle_check("cd-density", dec, report.worst_violation, report.passed,
                         f"density inequality violated by {report.worst_violation:.3e} "
                         f"at {report.witness}")


def _sturm(config: ExperimentConfig, dec: NeedleDecomposition):
    u = dec.needle.profile.power(1.0 / (dec.cd.N - 1.0))
    reports = [sturm_bound_check(u, dec.cd.kappa, u.a + (u.b - u.a) * (j + 1.0) / 11.0,
                                 grid_size=config.grid_size) for j in range(10)]
    worst = max(report.max_excess for report in reports)
    return _needle_check("sturm", dec, worst, all(report.passed for report in reports),
                         f"comparison bound exceeded by {worst:.3e}")


def _ratio(config: ExperimentConfig, dec: NeedleDecomposition):
    report = density_ratio_check(dec.needle, dec.cd, grid_size=config.grid_size)
    return _needle_check("ratio", dec, report.max_excess, report.passed,
                         f"density ratio exceeds the distortion profile "
                         f"by {report.max_excess:.3e}")


# The statements whose rhs is no integral of J over the needle: they get no needle row.
_SUMMARY_ONLY = ("levy-gromov", "rigidity")


def _hk_check(reports: Sequence[HKReport], dec: NeedleDecomposition):
    """The rows of an hk check and no failure message: for each report its
    needle row (its rhs and the needle's curvatures), unless its statement is
    summary-only, then its summary row."""
    rows = []
    for report in reports:
        if report.statement not in _SUMMARY_ONLY:
            rows.append(Row(report.statement, "needle", report.t, rhs=report.rhs,
                            H_plus=dec.H_plus, H_minus=dec.H_minus, H=dec.H))
        rows.append(Row(report.statement, "summary", report.t, report.lhs, report.rhs,
                        report.gap, report.relative_gap, report.equality))
    return rows, []


def _rigidity(config: ExperimentConfig, dec: NeedleDecomposition):
    report = equality_detect(dec, tolerance=config.tolerance)
    rows, messages = _hk_check([report], dec)
    if config.expect == "rigid" and not report.equality:
        messages.append(f"expected rigid but conditions failed: {report.failed}")
    elif config.expect == "not-rigid" and report.equality:
        messages.append("expected not-rigid but rigidity was detected")
    return rows, messages


def _minkowski(config: ExperimentConfig, dec: NeedleDecomposition):
    content = minkowski_content_from_dec(dec)
    deviation = abs(content - dec.surface_total) / dec.surface_total
    agree = deviation <= MINKOWSKI_REL_TOL
    row = Row(statement="minkowski", kind="summary", lhs=content, rhs=dec.surface_total,
              gap=dec.surface_total - content, relative_gap=deviation, equality=agree)
    return [row], [] if agree else [
        f"tube extrapolation {content!r} deviates from surface total "
        f"{dec.surface_total!r} by {deviation:.3e}"]


# The checks a configuration can name, in the order the README lists them.  Each
# value calls the library through this module's globals, where a tracer can rebind it.
CHECKS = {
    "cd-density": _cd_density, "sturm": _sturm, "ratio": _ratio,
    "hk-outer": lambda config, dec: _hk_check(
        [hk_outer(dec, t, config.tolerance) for t in config.t_values], dec),
    "hk-full": lambda config, dec: _hk_check([hk_full(dec, config.tolerance)], dec),
    "corollaries": lambda config, dec: _hk_check(
        closed_form_bounds(dec, config.H0, config.tolerance), dec),
    "levy-gromov": lambda config, dec: _hk_check(
        [levy_gromov_check(dec, config.tolerance)], dec),
    "rigidity": _rigidity, "minkowski": _minkowski}


def _outcome(name: str, check: Callable, config: ExperimentConfig,
             dec: NeedleDecomposition) -> CheckOutcome:
    """check's outcome; a NeedlecompError it raises is its one failure message."""
    try:
        return CheckOutcome(name, *check(config, dec))
    except NeedlecompError as exc:
        return CheckOutcome(name, [], [f"{type(exc).__name__}: {exc}"])


def run(config: ExperimentConfig) -> int:
    """Execute the configured checks, emit artifacts, return the exit status."""
    try:
        dec = decompose(config.geometry, config.surface)
    except NeedlecompError as exc:
        print(f"FAIL check=decompose reason={type(exc).__name__}: {exc}")
        # parameters the model cannot represent are a configuration error
        return 2 if isinstance(exc, ParameterError) else 1
    outcomes = [_outcome(name, CHECKS[name], config, dec) for name in config.checks]
    if config.expect is not None and "rigidity" not in config.checks:
        # The expectation holds whether or not the rigidity rows were asked
        # for; only a miss shows, as a failed "expect" check without rows.
        expect = _outcome("expect", _rigidity, config, dec)
        if expect.messages:
            outcomes.append(expect._replace(rows=[]))

    rows = [row for outcome in outcomes for row in outcome.rows]
    try:
        emit(rows, config.output_format, config.output_path, outcomes)
    except OSError as exc:
        print(f"FAIL check=output reason=cannot write {config.output_path}: "
              f"{exc.strerror or exc}")
        return 2

    failures = [(o.name, msg) for o in outcomes for msg in o.messages]
    for name, msg in failures:
        print(f"FAIL check={name} reason={msg}")
    return 1 if failures else 0


# -------------------------------------------------------------------- emit

def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


# The output columns: every field of Row but kind.
COLUMNS = tuple(field for field in Row._fields if field != "kind")
CSV_HEADER = ",".join(COLUMNS)


def _render_csv(rows: Sequence[Row]) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join(_cell(getattr(row, column)) for column in COLUMNS))
    return "\n".join(lines) + "\n"


def _render_plotdata(rows: Sequence[Row]) -> str:
    chunks = []
    summaries = [row for row in rows if row.kind == "summary"]
    statements = []
    for row in summaries:
        if row.statement not in statements:
            statements.append(row.statement)
    for statement in statements:
        block = [row for row in summaries if row.statement == statement]
        for label in ("lhs", "rhs"):
            points = []
            for index, row in enumerate(block):
                y = getattr(row, label)
                if y is None:
                    continue
                x = row.t if row.t is not None else float(index)
                points.append((x, y))
            if not points:
                continue
            chunks.append(f"# series: {statement} {label}")
            chunks.extend(f"{_cell(x)} {_cell(y)}" for x, y in points)
            chunks.append("")
    return "\n".join(chunks)


def _render_report(rows: Sequence[Row], outcomes: Sequence[CheckOutcome]) -> str:
    lines = ["needlecomp report"]
    for outcome in outcomes:
        lines.append(f"check {outcome.name}: {'FAIL' if outcome.messages else 'PASS'}")
        lines.extend(f"  note: {msg}" for msg in outcome.messages)
    for row in rows:
        parts = [f"statement={row.statement}", f"kind={row.kind}"]
        for label in COLUMNS[1:]:
            value = getattr(row, label)
            if value is not None:
                parts.append(f"{label}={_cell(value)}")
        lines.append("  " + " ".join(parts))
    return "\n".join(lines) + "\n"


def emit(rows: Sequence[Row], format: str, path: Optional[str],
         outcomes: Sequence[CheckOutcome]) -> None:
    """Write rows in the requested format; files are written atomically."""
    if format == "csv":
        text = _render_csv(rows)
    elif format == "plotdata":
        text = _render_plotdata(rows)
    elif format == "report":
        text = _render_report(rows, outcomes)
    else:
        raise ConfigError(f"unknown output format {format!r}")
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    # A name of this process and thread beside the target, so that the rename
    # stays on one filesystem; "x" refuses a file or link already there.
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.{get_ident()}")
    out = open(tmp, "x", encoding="utf-8")
    try:
        with out:
            out.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# --------------------------------------------------------------------- cli

def _cmd_run(args: dict) -> int:
    try:
        with open(args["config"], encoding="utf-8") as file:
            text = file.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"FAIL check=config reason={exc}")
        return 2
    overrides = list(args["set"] or [])
    if args["format"]:
        overrides.append(f"output.format={args['format']}")
    if args["path"]:
        overrides.append(f"output.path={args['path']}")
    try:
        config = parse_config(text, overrides=overrides)
        config = config._replace(tolerance=equality_tolerance(config.tolerance))
        return run(config)
    except NeedlecompError as exc:
        print(f"FAIL check=config reason={type(exc).__name__}: {exc}")
        return 2


def _cmd_jacobian(args: dict) -> int:
    params = JacobianParams(args["H"], CurvatureDimension(args["K"], args["N"]))
    try:
        value = jacobian(params, args["r"])
    except OverflowError:
        raise ParameterError(J_OVERFLOWS) from None
    print(repr(value))
    return 0


def _cmd_profile(args: dict) -> int:
    print(repr(model_profile(CurvatureDimension(args["K"], args["N"]), args["v"])))
    return 0


def _cmd_version(args: dict) -> int:
    print(f"needlecomp {__version__}")
    return 0


class _Flag(NamedTuple):
    """A command's --flag: the placeholder and help text of its value, the
    converter of its value, and whether it must be given or may repeat."""

    metavar: str
    help: str
    convert: Callable[[str], object] = str
    required: bool = False
    repeat: bool = False


class _Command(NamedTuple):
    """A command: its help line, the function that runs it on the parsed
    values, the name and help text of its operand if it takes one, and its
    flags by name."""

    help: str
    fn: Callable[[dict], int]
    operand: Optional[tuple[str, str]]
    flags: dict[str, _Flag]


def _as_format(value: str) -> str:
    if value not in FORMATS:
        raise ValueError(value)
    return value


def _real(text: str) -> _Flag:
    return _Flag("FLOAT", text, float, required=True)


_CURVATURE_DIMENSION = {"K": _real("curvature bound"), "N": _real("dimension bound (> 1)")}

# The commands, in the order the help lists them.
COMMANDS = {
    "run": _Command("run an experiment configuration", _cmd_run,
                    ("config", "path to the configuration file"), {
                        "set": _Flag("SECTION.KEY=VALUE",
                                     "override a configuration key (repeatable)", repeat=True),
                        "format": _Flag("{" + ",".join(FORMATS) + "}",
                                        "override the output format", _as_format),
                        "path": _Flag("PATH", "override the output path ('-': stdout)")}),
    "jacobian": _Command("evaluate the distortion profile J_{H,K,N}(r)", _cmd_jacobian, None,
                         {"H": _real("mean curvature"), **_CURVATURE_DIMENSION,
                          "r": _real("signed distance")}),
    "profile": _Command("evaluate the model isoperimetric profile", _cmd_profile, None,
                        {**_CURVATURE_DIMENSION, "v": _real("volume fraction in [0, 1]")}),
    "version": _Command("print the version", _cmd_version, None, {}),
}


class _UsageError(Exception):
    """A malformed command line; command is the command it was parsed for,
    None at the top level."""

    def __init__(self, message: str, command: Optional[str] = None):
        super().__init__(message)
        self.command = command


def _usage(command: Optional[str]) -> str:
    if command is None:
        return f"usage: needlecomp [-h] {{{','.join(COMMANDS)}}} ..."
    spec = COMMANDS[command]
    words = [f"usage: needlecomp {command} [-h]"]
    if spec.operand:
        words.append(spec.operand[0].upper())
    for name, flag in spec.flags.items():
        option = f"--{name} {flag.metavar}"
        words.append(option if flag.required else f"[{option}]..." if flag.repeat
                     else f"[{option}]")
    return " ".join(words)


def _help(command: Optional[str]) -> str:
    if command is None:
        lines = [_usage(None), "", "tube-volume bounds and rigidity detection on model spaces",
                 "", "commands:"]
        lines += [f"  {name:<10}{spec.help}" for name, spec in COMMANDS.items()]
        lines += ["", "'needlecomp COMMAND --help' lists the flags of a command."]
    else:
        spec = COMMANDS[command]
        entries = [(spec.operand[0].upper(), spec.operand[1])] if spec.operand else []
        entries += [(f"--{name} {flag.metavar}", flag.help) for name, flag in spec.flags.items()]
        entries.append(("-h, --help", "show this help and exit"))
        lines = [_usage(command), "", spec.help, ""]
        lines += [f"  {option:<34}{text}".rstrip() for option, text in entries]
    return "\n".join(lines) + "\n"


def _is_option(token: str) -> bool:
    """Whether a command-line token is an option: it starts with '-' and is
    neither '-' nor a negative number such as -1e-5, which are values."""
    if not token.startswith("-") or token == "-":
        return False
    if token[1] in "0123456789.":
        try:
            float(token)
            return False
        except ValueError:
            pass
    return True


def _option(token: str, flags: dict[str, _Flag], command: Optional[str]):
    """The flag that an option token names, by its name or a unique prefix of
    it, and the value given after '=' (None without one); None for -h or a
    prefix of --help."""
    name, equals, value = token[2:].partition("=")
    if token == "-h":
        matches = ["help"]
    elif token.startswith("--") and name:
        matches = [name] if name in flags else [
            flag for flag in (*flags, "help") if flag.startswith(name)]
    else:
        matches = []
    if len(matches) > 1:
        raise _UsageError(f"ambiguous option: {token} could match "
                          f"{', '.join('--' + match for match in matches)}", command)
    if not matches:
        raise _UsageError(f"unrecognized arguments: {token}", command)
    if matches[0] != "help":
        return matches[0], value if equals else None
    if equals:
        raise _UsageError(f"argument -h/--help: ignored explicit argument {value!r}", command)
    return None


def parse_args(argv: Sequence[str]) -> tuple[Optional[str], Optional[dict]]:
    """The command that argv names and its values by name.  An absent flag has
    the value None and a repeated one the list of its values.  On -h or --help
    the values are None, and the command is None at the top level.  A
    malformed argv raises _UsageError."""
    for index, token in enumerate(argv):
        if not _is_option(token):
            break
        _option(token, {}, None)  # the top level has no flag but help
        return None, None
    else:
        raise _UsageError("the following arguments are required: command")
    command = argv[index]
    spec = COMMANDS.get(command)
    if spec is None:
        raise _UsageError(f"argument command: invalid choice: {command!r} "
                          f"(choose from {', '.join(COMMANDS)})")
    values = dict.fromkeys(spec.flags)
    operands = []
    tokens = iter(argv[index + 1:])
    for token in tokens:
        if not _is_option(token):
            operands.append(token)
            continue
        option = _option(token, spec.flags, command)
        if option is None:
            return command, None
        name, value = option
        if value is None:
            value = next(tokens, None)
            if value is None or _is_option(value):
                raise _UsageError(f"argument --{name}: expected one argument", command)
        flag = spec.flags[name]
        try:
            value = flag.convert(value)
        except ValueError:
            raise _UsageError(f"argument --{name}: expected {flag.metavar}, got {value!r}",
                              command) from None
        values[name] = (values[name] or []) + [value] if flag.repeat else value
    wanted = [spec.operand[0]] if spec.operand else []
    if len(operands) > len(wanted):
        raise _UsageError(f"unrecognized arguments: {' '.join(operands[len(wanted):])}",
                          command)
    values.update(zip(wanted, operands))
    missing = [name.upper() for name in wanted[len(operands):]]
    missing += [f"--{name}" for name, flag in spec.flags.items()
                if flag.required and values[name] is None]
    if missing:
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}",
                          command)
    return command, values


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        command, args = parse_args(sys.argv[1:] if argv is None else argv)
    except _UsageError as exc:
        where = f"needlecomp {exc.command}" if exc.command else "needlecomp"
        sys.stderr.write(f"{_usage(exc.command)}\n{where}: error: {exc}\n")
        return 2
    if args is None:
        sys.stdout.write(_help(command))
        return 0
    try:
        return COMMANDS[command].fn(args)
    except NeedlecompError as exc:
        print(f"FAIL check=cli reason={type(exc).__name__}: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
