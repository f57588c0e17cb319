"""Print the OpenBLAS kernel that numpy's wheel runs on this machine, or "unknown":

    python tests/blas_core.py

The last bits of a BLAS dot depend on the kernel OpenBLAS picks at load,
and four golden CSVs depend on such dots, so CI prints the kernel beside
``numpy.show_config()``.  numpy's wheels ship
OpenBLAS under ``numpy.libs`` with ``scipy_openblas_get_corename64_``;
where that library or symbol is missing (another numpy build), it prints
"unknown".  It always exits 0.
"""

from __future__ import annotations

import ctypes
import glob
import os

import numpy as np


def main() -> str:
    """Print the kernel's name, or "unknown", on one line and return it."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    name = "unknown"
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        name = (corename() or b"").decode() or name
        break
    print(name)
    return name


if __name__ == "__main__":
    main()
