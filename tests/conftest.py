"""The BLAS kernel that numpy's OpenBLAS runs, named in the test session's header.

Report bytes are pinned for one numpy and OpenBLAS build on one kernel:
OpenBLAS picks its kernel per CPU (or per ``OPENBLAS_CORETYPE``), and its
LAPACK SVDs and ``zgemm`` products round differently on each.
"""

import ctypes
import glob
import os

import numpy as np


def openblas_core():
    """The name of the kernel that numpy's bundled OpenBLAS runs, or "unknown"."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def pytest_report_header():
    return f"numpy {np.__version__}, OpenBLAS kernel {openblas_core()}"
