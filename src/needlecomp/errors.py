"""Exception types shared across the package."""


class NeedlecompError(Exception):
    """Base class for all package errors."""


class ParameterError(NeedlecompError, ValueError):
    """A parameter is outside its admissible range."""


class DomainError(NeedlecompError, ValueError):
    """An evaluation point lies outside the admissible interval."""


class CurvatureError(NeedlecompError, ValueError):
    """A one-sided curvature quantity is infinite where finiteness is required."""


class DegenerateSurfaceError(NeedlecompError, ValueError):
    """The surface touches a pole or boundary of the radial range."""


class InequalityViolation(NeedlecompError, RuntimeError):
    """A theorem-mandated inequality failed beyond numerical slack (software defect)."""


class ConfigError(NeedlecompError, ValueError):
    """Configuration text failed to parse or validate."""

    def __init__(self, reason: str, line: int | str | None = None, key: str | None = None):
        """line is a line number of the file, or a label such as '--set #2'
        for a value given on the command line."""
        self.reason = reason
        self.line = line
        self.key = key
        parts = []
        if line is not None:
            parts.append(f"line {line}" if isinstance(line, int) else line)
        if key is not None:
            parts.append(f"key '{key}'")
        prefix = ", ".join(parts)
        super().__init__(f"{prefix}: {reason}" if prefix else reason)
