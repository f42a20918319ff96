"""Diagnostics for deep-ensemble uncertainty, diversity, and robustness.

Import names from their modules (``ensdiag.trends``, ``ensdiag.conditional``
and so on). The package root holds only ``__version__``; DEFAULT_GRID_SIZE,
the one default that the command line's parser shares with an analysis
module, so that building the parser loads none of them; `stream`, the one
source of every random draw, which imports numpy only when it is called;
and SUBSAMPLE, the last key word of a `--subsample` stream.
"""

__version__ = "0.1.0"

# Points on the evaluation grid of the conditional curves (`conditional --bins`).
DEFAULT_GRID_SIZE = 100

# The last key word of a `--subsample` stream; see `stream`.
SUBSAMPLE = 1


def stream(seed: int, *key: int):
    """The random generator of one use of a run's seed: ``default_rng([seed, *key])``.

    Every draw of the package comes from here, keyed by its use:

    - ``(seed)``: the one draw of `simulate`, `gp-demo` and `trends --het-bins`;
    - ``(seed, k)``: surrogate k of `conditional`'s permutation test;
    - ``(seed, side, SUBSAMPLE)``: the `--subsample` of `conditional` or
      `improve` on one dataset of the pair, side 0 for InD and 1 for OOD.

    NumPy's SeedSequence pads a key with zeros, so ``(seed)`` is
    ``default_rng(seed)``, ``(seed, k)`` is ``(seed, k, 0)``, and no subsample
    key, whose last word is SUBSAMPLE, equals a surrogate's.
    """
    import numpy as np

    return np.random.default_rng([seed, *key])
