"""Which BLAS numpy runs, for reading a kernel-dependent bit difference.

``python -m tests.blas`` prints numpy's BLAS build configuration and what
``run_manifest.json`` records of it, including the core name (kernel set)
that numpy's bundled OpenBLAS picked at run time; ``OPENBLAS_CORETYPE``
overrides that pick. Tests that sweep kernel sets run their script through
``run_on_kernel_set``.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from graspslip.ioutil import blas_record


def run_on_kernel_set(script: str, coretype: str | None, **env_updates) -> dict:
    """Run ``script`` in a child Python under ``OPENBLAS_CORETYPE=coretype``
    (None: the kernel set OpenBLAS picks) and return the JSON object on its
    last output line, whose "core" names the kernels that loaded. A kernel
    set the machine cannot load skips the calling test."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {key: val for key, val in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(root, "src"), root, os.environ.get("PYTHONPATH")]))
    env.update(env_updates)
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, cwd=root, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    if coretype and result["core"] != coretype:
        pytest.skip(f"OPENBLAS_CORETYPE={coretype} loaded the {result['core']} kernels")
    return result


if __name__ == "__main__":
    np.show_config()
    print(json.dumps(blas_record(), indent=2))
