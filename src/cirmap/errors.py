"""Exception types shared across the package, and the settings' finiteness check."""

import dataclasses
import math


class CirmapError(Exception):
    """Base class for all package errors."""


class ShapeError(CirmapError, ValueError):
    """Operand shapes are incompatible with the requested operation."""


class ParameterError(CirmapError, ValueError):
    """A hyperparameter is outside its valid range (e.g. temperature <= 0)."""


class DegenerateInputError(CirmapError, ValueError):
    """Input is numerically degenerate (e.g. a near-zero row fed to a normalizer)."""


class ContractError(CirmapError, ValueError):
    """An operation precondition was violated (e.g. backward on a non-scalar)."""


class TemplateError(CirmapError, ValueError):
    """Unknown prompt template or slot arity mismatch."""


class FormatError(CirmapError, ValueError):
    """A file on disk does not conform to the expected binary/JSON layout."""


class ConfigError(CirmapError, ValueError):
    """Configuration document is malformed or contains unknown keys."""


class InconsistentSpecError(CirmapError, ValueError):
    """A generator spec is internally inconsistent or unsatisfiable."""


class TrainingDivergedError(CirmapError, RuntimeError):
    """Training produced a non-finite loss and was aborted."""


def check_finite_fields(settings, error: type[CirmapError]) -> None:
    """Raise ``error`` on a NaN or infinite float field; range checks miss NaN."""
    for f in dataclasses.fields(settings):
        value = getattr(settings, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise error(f"{f.name} must be finite, got {value}")
