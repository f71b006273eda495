"""The typed errors of the package, in one module that imports nothing.

``cli.main`` maps each of these to an exit code: ``UsageError`` and
``OnStarSet`` to 2 (invalid input), the others to 3 (numeric failure).
Keeping them here lets the CLI name every failure without importing the
numeric half, which may load mpmath; the modules that raise them
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


class ConvergenceFailure(Exception):
    """``roots`` has no zeros for an index: the probe did not prove that its
    h_r has real, simple zeros.  That h_r is attached."""

    def __init__(self, message: str, poly=None):
        super().__init__(message)
        self.poly = poly


class NoVariantMatches(Exception):
    """Neither sign variant reproduces an extracted h-polynomial exactly."""
