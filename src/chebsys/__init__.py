"""Exact generators, structural verifiers, and branch asymptotics for a dual
pair of fixed-coefficient polynomial recurrences with (m+1)-fold starlike
root geometry.

The package splits into an exact half (rational polynomial arithmetic, the
recurrence generators, the banded-operator biorthogonality checks) and a
numeric half (the algebraic branch solver, the explicit branch-sum formula,
strong-asymptotics scans, and root studies) bridged only by explicit-precision
complex evaluation.

Every name is read from the module that defines it: ``recurrence``,
``exactpoly``, ``rationals``, ``operators``, ``algebraic``, ``probe``,
``roots``, ``errors`` and ``cli``.  Importing the package loads ``rationals`` alone, for ``BACKEND``,
the name of the representation the exact half computes in.  mpmath, the one
dependency, is loaded only where a value is returned in it
(``Poly.eval_complex`` and the mpmath values of ``algebraic``); the branch
solver, scan and star geometry compute on the integer kernel.  The probe
works on integer signs, and ``roots`` takes the zeros of every h_r the probe
proved from its isolating intervals, so neither loads mpmath.
"""

from .rationals import BACKEND

__version__ = "0.1.0"
