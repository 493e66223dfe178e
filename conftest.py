"""Puts this checkout's src on sys.path for the test run: after every
PYTHONPATH entry, so that PYTHONPATH=<other tree>/src tests that tree, and
ahead of site-packages, so that an installed effsynth does not shadow it."""

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")

_entries = {os.path.abspath(p)
            for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p}
if SRC not in map(os.path.abspath, sys.path):
    sys.path.insert(1 + max((i for i, p in enumerate(sys.path)
                             if os.path.abspath(p) in _entries), default=0),
                    SRC)
