"""Which BLAS numpy runs, for reading a kernel-dependent bit difference.

``python -m tests.blas`` prints numpy's BLAS build configuration and what
``run_manifest.json`` records of it, including the core name (kernel set)
that numpy's bundled OpenBLAS picked at run time; ``OPENBLAS_CORETYPE``
overrides that pick.
"""

import json

import numpy as np

from graspslip.ioutil import blas_record

if __name__ == "__main__":
    np.show_config()
    print(json.dumps(blas_record(), indent=2))
