"""The typed errors of the package, in one module that imports nothing.

``cli.main`` maps ``UsageError`` and ``OnStarSet`` to exit 2 (invalid
input) and ``SolverDivergence`` to exit 3 (numeric failure).  No command lets
the other two escape: ``roots`` writes a ``ConvergenceFailure`` as an error
row, and ``DegenerateBranches`` comes only from ``algebraic.coefficients_b``,
which no command calls, directly or through ``explicit_t``.  Keeping them
here lets the CLI name every failure without importing the numeric half,
which may load mpmath; the modules that raise them re-export them, so
``from chebsys.algebraic import SolverDivergence`` and the like keep working.
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

