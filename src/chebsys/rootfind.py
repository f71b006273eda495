"""An empty module, kept only because ``perfbench/tracer.py`` imports it by
name in ``install()``.

The mpmath Aberth solver that lived here is gone: every branch value is
certified on the integer kernel (``algebraic``), and ``roots`` refines the
probe's intervals.  The tracer's table looks ``complex_roots`` up with
``getattr(..., None)`` and so skips it here.  ROADMAP item 1 deletes this
file together with that import.
"""
