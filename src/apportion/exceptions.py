"""Error and warning types shared across the package.

Errors raised inside the estimation pipeline derive from ApportionError;
``estimator.apportion`` sets ``stage``, the pipeline step that failed, and
``warnings``, the messages of the warnings issued before it failed.
"""

from __future__ import annotations


class ApportionError(Exception):
    """Base class for all package errors."""

    stage: str | None = None
    warnings: tuple[str, ...] = ()

    def __str__(self) -> str:
        base = super().__str__()
        if self.stage:
            return f"[{self.stage}] {base}"
        return base


class DegenerateCloud(ApportionError):
    """Point cloud is affinely dependent below the requested dimension."""


class BudgetExceeded(ApportionError):
    """Exhaustive subset enumeration would exceed the configured budget."""


class AllDegenerate(ApportionError):
    """No K-subset of the candidates spans a non-degenerate simplex."""


class ZeroDenominator(ApportionError):
    """A pollutant column is unexplained by every source."""

    def __init__(self, column: int, name: str | None = None):
        label = f"column {column}" if name is None else f"column {column} ({name!r})"
        super().__init__(
            f"{label} has zero attribution denominator: no selected profile row"
            " puts mass on this pollutant, as happens when values below a"
            " detection limit are recorded as zeros"
        )
        self.column = column


class ShapeMismatch(ApportionError):
    """Matrix operands have incompatible shapes."""


class ZeroNormRow(ApportionError):
    """A reference row has zero Euclidean norm."""


class GenerationFailed(ApportionError):
    """Synthetic-data generation exhausted its retry budget."""


class ParseError(ApportionError):
    """CSV input could not be parsed; coordinates are 1-based."""

    def __init__(self, line: int, column: int, reason: str):
        super().__init__(f"line {line}, column {column}: {reason}")
        self.line = line
        self.column = column
        self.reason = reason


class NegativeValue(ParseError):
    """Negative entry in a concentration file."""

    def __init__(self, line: int, column: int):
        super().__init__(line, column, "negative value")


class NonFinite(ParseError):
    """NaN or infinite entry in a concentration or Phi file."""

    def __init__(self, line: int, column: int):
        super().__init__(line, column, "non-finite value")


class ApportionWarning(UserWarning):
    """Base class for package warnings."""


class RankDeficientWarning(ApportionWarning):
    """Augmented profile matrix is numerically rank deficient."""


class NotContainedWarning(ApportionWarning):
    """Sample points fall outside the reference polytope."""


class NegativeMeanWarning(ApportionWarning):
    """Estimated mean vector had negative entries clipped to zero."""


class DroppedRowsWarning(ApportionWarning):
    """Zero-concentration rows were dropped during normalization."""


class HullFallbackWarning(ApportionWarning):
    """Every row kept as a hull-vertex candidate: the hull dimension is
    above the cap, or qhull could not build the hull."""
