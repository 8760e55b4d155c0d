"""Make the program importable from the checkout's ``src/``.

Imported before NumPy by every entry point of the benchmark: it pins
the numeric libraries to one thread (the benchmark drives the program
from one client thread on a small machine) and puts ``<root>/src``
first on ``sys.path``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def prepare() -> "str | None":
    """Set up the import path; returns an error message, or None if ready."""
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(variable, "1")
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        return f"cannot import the program from {SRC}: {exc}"
    location = Path(repro.__file__).resolve()
    if SRC.resolve() not in location.parents:
        return f"imported the program from {location}, not from {SRC}"
    return None
