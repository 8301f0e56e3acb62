"""Small file, RNG and BLAS-provenance helpers shared across the package."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import tempfile
import zlib
from pathlib import Path

import numpy as np


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write via a temp file in the same directory, then rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def rng_for(seed: int, label: str) -> np.random.Generator:
    """Independent, reproducible stream for one purpose under a run seed."""
    return np.random.default_rng([seed & 0xFFFFFFFF, zlib.crc32(label.encode("utf-8"))])


def openblas_core_name() -> str | None:
    """The kernel set numpy's bundled OpenBLAS picked at run time (which
    ``OPENBLAS_CORETYPE`` overrides), or None without that library."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(libs)):
        try:
            fn = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_char_p
        return fn().decode()
    return None


def blas_record() -> dict:
    """numpy's version, BLAS build and runtime OpenBLAS core: what decides
    the bits of a product, so that a byte diff between hosts can be read."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # a numpy that predates the config dicts
        blas = {}
    return {
        "numpy_version": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "openblas_core": openblas_core_name()},
    }
