"""Batch front end.

Parses flat [section]/key=value experiment configurations, runs the requested
checks against the configured geometry/surface pair, and emits human-readable
reports, CSV tables, or two-column plot data.  Exit status 0 means every
theorem-mandated inequality passed and every requested expectation matched.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

from . import __version__
from .errors import ConfigError, NeedlecompError, ParameterError
from .geometry import (GEOMETRY_KINDS, GeometryKind, GeometrySpec, NeedleDecomposition,
                       SurfaceSpec, decompose, minkowski_content_from_dec, radial_model)
from .hk import (closed_form_bounds, equality_detect, equality_tolerance, hk_full,
                 hk_outer, levy_gromov_check)
from .model1d import CurvatureDimension, JacobianParams, jacobian, model_profile
from .needle import check_cd_density, density_ratio_check, sturm_bound_check
from .numerics import INEQ_SLACK

CHECK_NAMES = ("cd-density", "sturm", "ratio", "hk-outer", "hk-full",
               "corollaries", "levy-gromov", "rigidity", "minkowski")
MINKOWSKI_REL_TOL = 1e-6

_SECTION_KEYS = {
    "surface": {"r0"},
    "run": {"checks", "t_values", "expect", "tolerance", "grid_size", "H0",
            "epsilons"},
    "output": {"format", "path"},
}
_SECTIONS = ("geometry",) + tuple(_SECTION_KEYS)
# A configuration value and where it was given: a line number of the file,
# or a '--set #k' label for the k-th override.
_Value = tuple[str, int | str]


class ExperimentConfig(NamedTuple):
    geometry: GeometrySpec
    surface: SurfaceSpec
    checks: tuple[str, ...]
    t_values: tuple[float, ...] = ()
    tolerance: Optional[float] = None
    expect: Optional[str] = None
    grid_size: int = 24
    H0: Optional[float] = None
    epsilons: Optional[tuple[float, ...]] = None
    output_format: str = "report"
    output_path: Optional[str] = None


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


class CheckOutcome:
    def __init__(self, name: str, rows: Optional[list[Row]] = None, passed: bool = True,
                 messages: Optional[list[str]] = None):
        self.name = name
        self.rows = [] if rows is None else rows
        self.passed = passed
        self.messages = [] if messages is None else messages


# ----------------------------------------------------------------- parsing

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


class _SectionView:
    """Tracks key consumption so leftovers become hard errors."""

    def __init__(self, name: str, data: dict[str, _Value]):
        self.name = name
        self.data = dict(data)
        self.seen: set[str] = set()

    def take(self, key: str) -> Optional[_Value]:
        self.seen.add(key)
        return self.data.get(key)

    def require(self, key: str) -> _Value:
        got = self.take(key)
        if got is None:
            raise ConfigError(f"missing required key in [{self.name}]", key=key)
        return got

    def reject_unknown(self, allowed: set[str]) -> None:
        for key, (unused_value, lineno) in self.data.items():
            if key not in allowed:
                raise ConfigError(f"unknown key in [{self.name}]", line=lineno, key=key)


def _as_float(raw: _Value, key: str) -> float:
    value, lineno = raw
    try:
        out = float(value)
    except ValueError:
        raise ConfigError(f"expected a real number, got {value!r}", line=lineno, key=key)
    if math.isnan(out):
        raise ConfigError("NaN is not a valid value", line=lineno, key=key)
    return out


def _as_int(raw: _Value, key: str) -> int:
    value, lineno = raw
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"expected an integer, got {value!r}", line=lineno, key=key)


def _as_float_list(raw: _Value, key: str) -> tuple[float, ...]:
    value, lineno = raw
    items = [piece.strip() for piece in value.split(",") if piece.strip()]
    out = []
    for piece in items:
        try:
            out.append(float(piece))
        except ValueError:
            raise ConfigError(f"expected a comma-separated list of reals, got {piece!r}",
                              line=lineno, key=key)
    return tuple(out)


def _as_geometry_value(raw: _Value, key: str):
    """A [geometry] value: n is the only integer key and density the only string."""
    if key == "n":
        return _as_int(raw, key)
    return raw[0] if key == "density" else _as_float(raw, key)


def _build_geometry(view: _SectionView) -> tuple[GeometrySpec, GeometryKind]:
    name, lineno = view.require("kind")
    kind = GEOMETRY_KINDS.get(name)
    if kind is None:
        raise ConfigError(f"unknown geometry kind {name!r}; expected one of "
                          f"{', '.join(GEOMETRY_KINDS)}", line=lineno, key="kind")
    view.reject_unknown({"kind", *kind.keys, *kind.optional})
    values, lines = {}, {}
    for key in kind.keys + kind.optional:
        raw = view.require(key) if key in kind.keys else view.take(key)
        if raw is not None:
            values[key], lines[key] = _as_geometry_value(raw, key), raw[1]
    try:
        return kind.build(**values), kind
    except ConfigError as exc:  # it names a key: add the line that key came from
        raise ConfigError(exc.reason, line=lines.get(exc.key), key=exc.key) from None
    except NeedlecompError as exc:
        raise ConfigError(str(exc), line=lineno)


def parse_config(text: str, overrides: Sequence[str] = ()) -> ExperimentConfig:
    """Parse and validate one experiment configuration document.

    Unknown sections or keys are hard errors naming the line and key; value
    and range validation errors carry the offending key as well.
    """
    sections = _apply_overrides(_tokenize(text), overrides)
    for required in ("geometry", "surface", "run"):
        if required not in sections:
            raise ConfigError(f"missing required section [{required}]")

    geometry, kind = _build_geometry(_SectionView("geometry", sections["geometry"]))

    surf_view = _SectionView("surface", sections["surface"])
    surf_view.reject_unknown(_SECTION_KEYS["surface"])
    r0_raw = surf_view.require("r0")
    r0 = _as_float(r0_raw, "r0")
    length = radial_model(geometry).length
    if not 0.0 < r0 < length:
        raise ConfigError(f"surface touches {kind.end}: r0={r0} must lie strictly "
                          f"inside (0, {length})", line=r0_raw[1], key="r0")
    surface = kind.surface(r0)

    run_view = _SectionView("run", sections["run"])
    run_view.reject_unknown(_SECTION_KEYS["run"])
    checks_raw = run_view.require("checks")
    checks = tuple(piece.strip() for piece in checks_raw[0].split(",") if piece.strip())
    if not checks:
        raise ConfigError("checks must name at least one check",
                          line=checks_raw[1], key="checks")
    for name in checks:
        if name not in CHECK_NAMES:
            raise ConfigError(f"unknown check {name!r}; expected one of "
                              f"{', '.join(CHECK_NAMES)}",
                              line=checks_raw[1], key="checks")
    t_raw = run_view.take("t_values")
    t_values = _as_float_list(t_raw, "t_values") if t_raw else ()
    for t in t_values:
        if t <= 0.0:
            raise ConfigError(f"t_values must be positive, got {t}",
                              line=t_raw[1], key="t_values")
    expect_raw = run_view.take("expect")
    expect = None
    if expect_raw is not None:
        expect = expect_raw[0]
        if expect not in ("rigid", "not-rigid"):
            raise ConfigError(f"expect must be 'rigid' or 'not-rigid', got {expect!r}",
                              line=expect_raw[1], key="expect")
    tol_raw = run_view.take("tolerance")
    tolerance = _as_float(tol_raw, "tolerance") if tol_raw else None
    if tolerance is not None and not (math.isfinite(tolerance) and tolerance > 0.0):
        raise ConfigError(f"tolerance must be finite and positive, got {tolerance}",
                          line=tol_raw[1], key="tolerance")
    grid_raw = run_view.take("grid_size")
    grid_size = _as_int(grid_raw, "grid_size") if grid_raw else 24
    if grid_size < 1:
        raise ConfigError(f"grid_size must be >= 1, got {grid_size}",
                          line=grid_raw[1], key="grid_size")
    H0_raw = run_view.take("H0")
    H0 = _as_float(H0_raw, "H0") if H0_raw else None
    eps_raw = run_view.take("epsilons")
    epsilons = _as_float_list(eps_raw, "epsilons") if eps_raw else None

    output_format = "report"
    output_path = None
    if "output" in sections:
        out_view = _SectionView("output", sections["output"])
        out_view.reject_unknown(_SECTION_KEYS["output"])
        fmt_raw = out_view.take("format")
        if fmt_raw is not None:
            output_format = fmt_raw[0]
            if output_format not in ("report", "csv", "plotdata"):
                raise ConfigError(f"format must be report, csv or plotdata, "
                                  f"got {output_format!r}",
                                  line=fmt_raw[1], key="format")
        path_raw = out_view.take("path")
        if path_raw is not None:
            output_path = path_raw[0]

    return ExperimentConfig(geometry=geometry, surface=surface, checks=checks,
                            t_values=t_values, tolerance=tolerance, expect=expect,
                            grid_size=grid_size, H0=H0, epsilons=epsilons,
                            output_format=output_format, output_path=output_path)


# ------------------------------------------------------------------ checks

def _hk_rows(report, dec: NeedleDecomposition) -> list[Row]:
    rows = [Row(statement=report.statement, kind="needle", t=report.t,
                rhs=entry.rhs_contribution, H_plus=dec.H_plus[entry.index],
                H_minus=dec.H_minus[entry.index], H=dec.H[entry.index])
            for entry in report.per_needle]
    rows.append(Row(statement=report.statement, kind="summary", t=report.t,
                    lhs=report.lhs, rhs=report.rhs, gap=report.gap,
                    relative_gap=report.relative_gap, equality=report.equality))
    return rows


def _expectation_misses(expect: Optional[str], report) -> list[str]:
    if expect == "rigid" and not report.rigid:
        return [f"expected rigid but conditions failed: {report.failed_conditions}"]
    if expect == "not-rigid" and report.rigid:
        return ["expected not-rigid but rigidity was detected"]
    return []


def _run_check(name: str, config: ExperimentConfig,
               dec: NeedleDecomposition) -> CheckOutcome:
    out = CheckOutcome(name=name)
    tol = config.tolerance
    if name == "hk-outer":
        if not config.t_values:
            out.rows.append(Row(statement="hk-outer", kind="summary"))
        for t in config.t_values:
            out.rows.extend(_hk_rows(hk_outer(dec, t, tolerance=tol), dec))
    elif name == "hk-full":
        out.rows.extend(_hk_rows(hk_full(dec, tolerance=tol), dec))
    elif name == "corollaries":
        for report in closed_form_bounds(dec, H0=config.H0, tolerance=tol):
            out.rows.extend(_hk_rows(report, dec))
    elif name == "levy-gromov":
        report = levy_gromov_check(dec, tolerance=tol)
        out.rows.append(Row(statement="levy-gromov", kind="summary",
                            lhs=report.profile_value, rhs=report.content,
                            gap=report.gap,
                            relative_gap=report.gap / max(report.content, 1e-300),
                            equality=report.equality))
        if not report.passed:
            out.passed = False
            out.messages.append("isoperimetric comparison failed")
    elif name == "rigidity":
        report = equality_detect(dec, tolerance=tol)
        out.rows.append(Row(statement="rigidity", kind="summary", gap=report.gap,
                            relative_gap=report.relative_gap, equality=report.rigid))
        out.messages.extend(_expectation_misses(config.expect, report))
        out.passed = not out.messages
    elif name == "minkowski":
        content = minkowski_content_from_dec(dec, config.epsilons)
        deviation = abs(content - dec.surface_total) / dec.surface_total
        agree = deviation <= MINKOWSKI_REL_TOL
        out.rows.append(Row(statement="minkowski", kind="summary", lhs=content,
                            rhs=dec.surface_total, gap=dec.surface_total - content,
                            relative_gap=deviation, equality=agree))
        if not agree:
            out.passed = False
            out.messages.append(
                f"tube extrapolation {content!r} deviates from surface total "
                f"{dec.surface_total!r} by {deviation:.3e}")
    elif name == "cd-density":
        for i, needle in enumerate(dec.needles):
            try:
                report = check_cd_density(needle.profile, dec.cd, config.grid_size)
            except OverflowError:  # sinh of a strongly negative K
                raise ParameterError("the distortion coefficients of the density check "
                                     "overflow a float at these parameters") from None
            out.rows.append(Row(statement="cd-density", kind="needle",
                                lhs=report.worst_violation, rhs=INEQ_SLACK,
                                equality=report.passed, H_plus=dec.H_plus[i],
                                H_minus=dec.H_minus[i], H=dec.H[i]))
            if not report.passed:
                out.passed = False
                out.messages.append(
                    f"needle {i}: density inequality violated by "
                    f"{report.worst_violation:.3e} at {report.witness}")
    elif name == "sturm":
        kap = dec.cd.K / (dec.cd.N - 1.0)
        for i, needle in enumerate(dec.needles):
            u = needle.profile.power(1.0 / (dec.cd.N - 1.0))
            worst = -math.inf
            ok = True
            for j in range(10):
                r0 = u.a + (u.b - u.a) * (j + 1.0) / 11.0
                report = sturm_bound_check(u, kap, r0, grid_size=config.grid_size)
                worst = max(worst, report.max_excess)
                ok = ok and report.passed
            out.rows.append(Row(statement="sturm", kind="needle", lhs=worst,
                                rhs=INEQ_SLACK, equality=ok, H_plus=dec.H_plus[i],
                                H_minus=dec.H_minus[i], H=dec.H[i]))
            if not ok:
                out.passed = False
                out.messages.append(f"needle {i}: comparison bound exceeded by {worst:.3e}")
    elif name == "ratio":
        for i, needle in enumerate(dec.needles):
            report = density_ratio_check(needle, dec.cd, grid_size=config.grid_size)
            out.rows.append(Row(statement="ratio", kind="needle",
                                lhs=report.max_excess, rhs=INEQ_SLACK,
                                equality=report.passed, H_plus=dec.H_plus[i],
                                H_minus=dec.H_minus[i], H=dec.H[i]))
            if not report.passed:
                out.passed = False
                out.messages.append(
                    f"needle {i}: density ratio exceeds the distortion profile "
                    f"by {report.max_excess:.3e}")
    else:
        raise ConfigError(f"unknown check {name!r}")
    return out


def run(config: ExperimentConfig) -> int:
    """Execute the configured checks, emit artifacts, return the exit status."""
    outcomes: list[CheckOutcome] = []
    try:
        dec = decompose(config.geometry, config.surface)
    except NeedlecompError as exc:
        print(f"FAIL check=decompose reason={type(exc).__name__}: {exc}")
        # parameters the model cannot represent are a configuration error
        return 2 if isinstance(exc, ParameterError) else 1
    for name in config.checks:
        try:
            outcomes.append(_run_check(name, config, dec))
        except NeedlecompError as exc:
            failed = CheckOutcome(name=name, passed=False,
                                  messages=[f"{type(exc).__name__}: {exc}"])
            outcomes.append(failed)
    if config.expect is not None and "rigidity" not in config.checks:
        # The expectation holds whether or not the rigidity rows were asked
        # for; only a miss shows, as a failed "expect" check.
        try:
            misses = _expectation_misses(config.expect,
                                         equality_detect(dec, tolerance=config.tolerance))
        except NeedlecompError as exc:
            misses = [f"{type(exc).__name__}: {exc}"]
        if misses:
            outcomes.append(CheckOutcome(name="expect", passed=False, messages=misses))

    rows = [row for outcome in outcomes for row in outcome.rows]
    try:
        emit(rows, config.output_format, config.output_path, outcomes=outcomes)
    except OSError as exc:
        print(f"FAIL check=output reason=cannot write {config.output_path}: "
              f"{exc.strerror or exc}")
        return 2

    failures = [(o.name, msg) for o in outcomes if not o.passed
                for msg in (o.messages or ["failed"])]
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


CSV_HEADER = "statement,t,lhs,rhs,gap,relative_gap,equality,H_plus,H_minus,H"


def _render_csv(rows: Sequence[Row]) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join(_cell(v) for v in (
            row.statement, row.t, row.lhs, row.rhs, row.gap, row.relative_gap,
            row.equality, row.H_plus, row.H_minus, row.H)))
    if len(lines) == 1:
        lines.append(",".join([""] * 10))
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
    return "\n".join(chunks).rstrip("\n") + "\n"


def _render_report(rows: Sequence[Row], outcomes) -> str:
    lines = ["needlecomp report"]
    if outcomes is not None:
        for outcome in outcomes:
            status = "PASS" if outcome.passed else "FAIL"
            lines.append(f"check {outcome.name}: {status}")
            for msg in outcome.messages:
                lines.append(f"  note: {msg}")
    for row in rows:
        parts = [f"statement={row.statement}", f"kind={row.kind}"]
        for label in ("t", "lhs", "rhs", "gap", "relative_gap", "equality",
                      "H_plus", "H_minus", "H"):
            value = getattr(row, label)
            if value is not None:
                parts.append(f"{label}={_cell(value)}")
        lines.append("  " + " ".join(parts))
    return "\n".join(lines) + "\n"


def emit(rows: Sequence[Row], format: str, path: Optional[str],
         outcomes=None) -> None:
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
    target = Path(path)
    tmp = tempfile.NamedTemporaryFile("w", dir=target.parent or Path("."),
                                      prefix=f".{target.name}.", delete=False)
    try:
        with tmp:
            tmp.write(text)
        os.replace(tmp.name, target)
    except BaseException:
        try:
            os.unlink(tmp.name)
        except OSError:
            pass
        raise


# --------------------------------------------------------------------- cli

def _cmd_run(args) -> int:
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"FAIL check=config reason={exc}")
        return 2
    overrides = list(args.set or [])
    if args.format:
        overrides.append(f"output.format={args.format}")
    if args.path:
        overrides.append(f"output.path={args.path}")
    try:
        config = parse_config(text, overrides=overrides)
        config = config._replace(tolerance=equality_tolerance(config.tolerance))
        return run(config)
    except NeedlecompError as exc:
        print(f"FAIL check=config reason={type(exc).__name__}: {exc}")
        return 2


def _cmd_jacobian(args) -> int:
    params = JacobianParams(args.H, CurvatureDimension(args.K, args.N))
    print(repr(jacobian(params, args.r)))
    return 0


def _cmd_profile(args) -> int:
    print(repr(model_profile(CurvatureDimension(args.K, args.N), args.v)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="needlecomp",
        description="tube-volume bounds and rigidity detection on model spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment configuration")
    p_run.add_argument("config", help="path to the configuration file")
    p_run.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                       help="override a configuration key (repeatable)")
    p_run.add_argument("--format", choices=("report", "csv", "plotdata"),
                       help="override the output format")
    p_run.add_argument("--path", help="override the output path")
    p_run.set_defaults(fn=_cmd_run)

    p_jac = sub.add_parser("jacobian", help="evaluate the distortion profile")
    for flag in ("--H", "--K", "--N", "--r"):
        p_jac.add_argument(flag, type=float, required=True)
    p_jac.set_defaults(fn=_cmd_jacobian)

    p_prof = sub.add_parser("profile", help="evaluate the model isoperimetric profile")
    for flag in ("--K", "--N", "--v"):
        p_prof.add_argument(flag, type=float, required=True)
    p_prof.set_defaults(fn=_cmd_profile)

    p_ver = sub.add_parser("version", help="print the version")
    p_ver.set_defaults(fn=lambda args: print(f"needlecomp {__version__}") or 0)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except NeedlecompError as exc:
        print(f"FAIL check=cli reason={type(exc).__name__}: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
