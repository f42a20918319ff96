"""Diagnostics for deep-ensemble uncertainty, diversity, and robustness.

Import names from their modules (``ensdiag.trends``, ``ensdiag.conditional``
and so on); the package root holds only ``__version__``.
"""

__version__ = "0.1.0"
