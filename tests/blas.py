"""Which BLAS numpy runs, for reading a kernel-dependent bit difference.

``python -m tests.blas`` prints numpy's BLAS build configuration and the
core name (kernel set) that numpy's bundled OpenBLAS picked at run time;
``OPENBLAS_CORETYPE`` overrides that pick.
"""

from __future__ import annotations

import ctypes
import glob
import os

import numpy as np


def openblas_core_name() -> str:
    """The runtime core name of numpy's bundled OpenBLAS, or "unknown"
    when no loaded library has the ``scipy_openblas_get_corename64_``
    symbol."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(libs)):
        try:
            fn = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_char_p
        return fn().decode()
    return "unknown"


if __name__ == "__main__":
    np.show_config()
    print(f"numpy {np.__version__}, OpenBLAS core at run time: {openblas_core_name()}")
