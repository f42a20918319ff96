"""Run one ``ensdiag`` command the way the console script does, with timestamps.

    python3 bench/child.py TIMING_FILE [ensdiag-args...]

Imports ``ensdiag.cli``, calls its ``main`` with the remaining arguments and
exits with its return code; with no arguments it only imports. Before
exiting it writes ``time.monotonic()`` after the import and after ``main``
returned to TIMING_FILE, so the parent can split interpreter set-up from
the command's own time.
"""

import sys
import time

from ensdiag.cli import main

imported = time.monotonic()
code = main(sys.argv[2:]) if len(sys.argv) > 2 else 0
finished = time.monotonic()
with open(sys.argv[1], "w") as fh:
    fh.write(f"{imported!r} {finished!r}\n")
sys.exit(code)
