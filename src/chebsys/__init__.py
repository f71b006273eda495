"""Exact generators, structural verifiers, and branch asymptotics for a dual
pair of fixed-coefficient polynomial recurrences with (m+1)-fold starlike
root geometry.

The package splits into an exact half (rational polynomial arithmetic, the
recurrence generators, the banded-operator biorthogonality checks) and a
numeric half (the algebraic branch solver, the explicit branch-sum formula,
strong-asymptotics scans, and root studies), which computes in doubles and
on the integer kernel of ``rationals``.

Every name is read from the module that defines it: ``recurrence``,
``exactpoly``, ``rationals``, ``operators``, ``algebraic``, ``probe``,
``roots``, ``errors`` and ``cli``.  Importing the package loads
``rationals`` alone, for ``BACKEND``, the name of the representation the
exact half computes in.  The package needs nothing beyond the standard
library: mpmath is in the ``test`` extra, and only the acceptance oracles
import it, when called (``Poly.eval_complex``, ``rationals.rat_to_mpf``,
``BranchSet.lambdas``, ``algebraic.coefficients_b`` and ``explicit_t``); no
command calls them.
"""

from .rationals import BACKEND

__version__ = "0.1.0"
