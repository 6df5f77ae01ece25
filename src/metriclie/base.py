"""Shared error types, each with its CLI ``exit_code``, the pass/fail check
result and the per-object memo."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable


class MetricLieError(Exception):
    """Base class for all errors raised by this package."""
    exit_code = 1


class InputError(MetricLieError, ValueError):
    """Bad argument: dimension mismatch, singular matrix, unknown model, ..."""


class ParseError(MetricLieError, ValueError):
    """Malformed algebra file; the message ends in (line N) when known."""
    exit_code = 2

    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"{message} (line {line})" if line else message)
        self.line = line


class JacobiError(MetricLieError, ValueError):
    """Structure constants violate the Jacobi identity."""
    exit_code = 3

    def __init__(self, message: str, triple: tuple | None = None):
        super().__init__(message)
        self.triple = triple


class DegenerateMetricError(InputError):
    """A nondegenerate form was required but the given one has a radical."""
    exit_code = 4

    def __init__(self, message: str, radical: Any = None):
        super().__init__(message)
        self.radical = radical


class NumericalError(MetricLieError, RuntimeError):
    """Floating-point computation failed (singular metric, non-finite state)."""
    exit_code = 5


@dataclass(frozen=True)
class CheckResult:
    """Outcome of an identity check.

    ``witness`` holds the first failing datum (a basis triple, a pair, an
    entry...) when ``ok`` is False; checks always report what broke, never
    just a boolean.
    """

    ok: bool
    reason: str = ""
    witness: Any = None

    @staticmethod
    def from_witness(witness: Any, reason: str) -> "CheckResult":
        """Pass when ``witness`` is None, else fail with it."""
        if witness is None:
            return CheckResult(True)
        return CheckResult(False, reason, witness)

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        if self.ok:
            return "pass"
        if self.witness is not None:
            return f"fail: {self.reason} at {self.witness}"
        return f"fail: {self.reason}"


def once(obj: Any, key: str, build: Callable[[], Any]) -> Any:
    """``build()``, kept in ``obj.__dict__[key]`` from the first call on: outside
    the dataclass fields, so ``==``, ``hash`` and ``repr`` of obj ignore it."""
    if key not in obj.__dict__:
        obj.__dict__[key] = build()
    return obj.__dict__[key]


def set_fields(obj: Any, **values: Any) -> Any:
    """obj with the given fields of its frozen dataclass set; the one setter
    of the classes that build their value in their own constructor."""
    for key, value in values.items():
        object.__setattr__(obj, key, value)
    return obj
