"""The typed errors of the package, in one module that imports nothing.

``cli.main`` maps each of these to an exit code: ``UsageError`` and
``OnStarSet`` to 2 (invalid input), the others to 3 (numeric failure).
Keeping them here lets the CLI name every failure without importing the
numeric half, which loads numpy and mpmath; the modules that raise them
re-export them, so ``from chebsys.algebraic import SolverDivergence`` and the
like keep working.
"""

from __future__ import annotations


class UsageError(Exception):
    """Invalid command-line input."""


class OnStarSet(Exception):
    """The point lies (within tolerance) on the exceptional star of the largest branch."""


class SolverDivergence(Exception):
    """Branch root iteration failed to converge at the requested point."""


class DegenerateBranches(Exception):
    """Two branch moduli are numerically tied; coefficients are ill-conditioned."""


class RootRefinementError(Exception):
    """Root iteration failed to converge; the offending coefficients are attached."""

    def __init__(self, message: str, coeffs=None):
        super().__init__(message)
        self.coeffs = coeffs


class ConvergenceFailure(Exception):
    """Root extraction failed; the offending polynomial is attached."""

    def __init__(self, message: str, poly=None):
        super().__init__(message)
        self.poly = poly


class NoVariantMatches(Exception):
    """Neither sign variant reproduces an extracted h-polynomial exactly."""


class TruncationOverflow(RuntimeError):
    """An operator image reached past a truncation size chosen to contain it."""
