"""Diagnostics for deep-ensemble uncertainty, diversity, and robustness.

Import names from their modules (``ensdiag.trends``, ``ensdiag.conditional``
and so on). The package root holds only ``__version__`` and the one
default that the command line's parser shares with an analysis module, so
that building the parser loads none of them.
"""

__version__ = "0.1.0"

# Points on the evaluation grid of the conditional curves (`conditional --bins`).
DEFAULT_GRID_SIZE = 100
