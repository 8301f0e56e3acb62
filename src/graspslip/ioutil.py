"""Small file, JSON, RNG and BLAS-provenance helpers shared across the
package, and the ``Rule`` that every value from outside is checked by."""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import secrets
import zlib
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

# Each numeric kind's Python and numpy types, its test of a value of those
# types, and its words. math.isfinite reads a numpy scalar through float()
# and raises OverflowError for an int past the largest float64.
_KINDS = {int: ((int, np.integer), lambda v: -(2**63) <= int(v) < 2**63, "a 64-bit integer"),
          float: ((int, float, np.integer, np.floating), math.isfinite, "a finite number")}


def _repr(value) -> str:
    """repr(value), or the size of an int too long for repr (over 4,300 digits)."""
    try:
        return repr(value)
    except ValueError:
        return f"a {value.bit_length()}-bit integer"


class Rule(NamedTuple):
    """What a value from outside must be: of ``kind`` and taken by ``ok``, in
    the words ``want``. An int is an integer in [-2**63, 2**63), a float a
    number whose float64 value is finite, any other kind an instance of it;
    a bool is of no kind, a numpy scalar is of its Python kind, and an ``ok``
    that raises ValueError refuses."""

    kind: type
    ok: Callable = lambda value: True
    want: str = ""

    @property
    def words(self) -> str:
        return " ".join(filter(None, (_KINDS.get(self.kind, (None, None, ""))[2], self.want)))

    def takes(self, value) -> bool:
        types, fits, _ = _KINDS.get(self.kind, (self.kind, lambda v: True, ""))
        try:
            return (not isinstance(value, bool) and isinstance(value, types) and fits(value)
                    and bool(self.ok(value)))
        except (ValueError, OverflowError):
            return False

    def check(self, name: str, value, error=ValueError):
        """``value`` if this rule takes it, else ``error`` naming ``name``, rule and value."""
        if not self.takes(value):
            raise error(f"{name} must be {self.words}, got {_repr(value)}")
        return value

    def parse(self, text: str):
        """argparse type: ``text`` read as ``kind``, if this rule takes the value."""
        try:
            if self.takes(value := self.kind(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {self.words}, got {text!r}")


def one_of(*values) -> Rule:
    """The rule that takes nothing but ``values``, all of one type."""
    return Rule(type(values[0]), values.__contains__,
                f"equal to {values[0]!r}" if len(values) == 1 else f"one of {values}")


INTEGER = Rule(int)
FINITE = Rule(float)
# A natural number (a seed), a count (a size) and a positive number (a rate, a step size).
NATURAL = Rule(int, lambda v: v >= 0, ">= 0")
COUNT = Rule(int, lambda v: v >= 1, ">= 1")
POSITIVE = Rule(float, lambda v: v > 0, "> 0")


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write via a temp file in the same directory, then rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # Not tempfile.mkstemp, whose 0o600 os.replace keeps: a file created 0o666 under O_EXCL
    # gets the umask from the kernel, as open() does, with no os.umask call racing threads.
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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


def atomic_write_json(path: str | Path, obj) -> None:
    """Write ``obj`` in the one JSON format of every run artifact: 2-space
    indent, sorted keys, one trailing newline. A NaN or infinite float
    raises ValueError before anything is written."""
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def rng_for(seed: int, label: str) -> np.random.Generator:
    """Independent, reproducible stream for one purpose under a run seed (a ``NATURAL``)."""
    return np.random.default_rng([NATURAL.check("seed", seed), zlib.crc32(label.encode("utf-8"))])


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
