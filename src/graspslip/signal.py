"""Deterministic signal-processing front end.

Min/max normalization and STFT band magnitudes (20-sample window, 10 bands).
Everything here is a pure function over immutable inputs; all arithmetic is float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from graspslip.ioutil import FINITE, POSITIVE

DEFAULT_WINDOW_LEN = 20
DEFAULT_BAND_COUNT = 10
# A trace's sample rate, as the trace header, the CLI and SensorTrace check it.
FREQ_HZ = POSITIVE


def readonly_float64(a) -> np.ndarray:
    """``a`` as a read-only float64 array.

    An array that already is one, over memory that only read-only arrays
    reach, comes back as it is; anything else is copied.
    """
    a = np.asarray(a)
    owner = a
    while isinstance(owner, np.ndarray) and not owner.flags.writeable:
        owner = owner.base
    if a.dtype == np.float64 and owner is None:
        return a
    a = np.array(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class SensorTrace:
    """One channel's time-ordered readings plus its sample rate.

    Force traces are in mN, pressure traces in raw 16-bit counts.
    """

    samples: np.ndarray
    freq_hz: float

    def __post_init__(self):
        samples = readonly_float64(self.samples)
        if samples.size == 0:
            raise ValueError("empty input")
        if samples.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {samples.shape}")
        if not np.all(np.isfinite(samples)):
            raise ValueError("non-finite sample value")
        FREQ_HZ.check("freq_hz", self.freq_hz)
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return int(self.samples.size)


@dataclass(frozen=True)
class NormStats:
    """Min/max of the training data; normalization maps them to [0, 1]."""

    min_value: float
    max_value: float

    def __post_init__(self):
        FINITE.check("min_value", self.min_value)
        FINITE.check("max_value", self.max_value)
        if not (self.max_value > self.min_value):
            raise ValueError("degenerate channel")


def stft_window(window: np.ndarray) -> np.ndarray:
    """Band magnitudes |X_k|, k = 1..10, of one rectangular 20-sample window.

    X_k = sum_n x_n * exp(-i*2*pi*k*n/20). The DC bin (k = 0) is dropped:
    it carries the static grip level, not the slip vibration.
    """
    x = np.asarray(window, dtype=np.float64)
    if x.ndim != 1 or x.size != DEFAULT_WINDOW_LEN:
        raise ValueError("window size mismatch")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite sample value")
    return band_magnitudes(x, DEFAULT_BAND_COUNT)


def band_magnitudes(windows: np.ndarray, band_count: int) -> np.ndarray:
    """|X_k|, k = 1..band_count, of every window along the last axis."""
    return np.abs(np.fft.rfft(windows, axis=-1)[..., 1 : band_count + 1])


def compute_norm_stats(arrays) -> NormStats:
    """Pooled min/max over any iterable of arrays of any shape."""
    mins, maxs = [], []
    for a in arrays:
        v = np.asarray(a, dtype=np.float64)
        mins.append(float(v.min()))
        maxs.append(float(v.max()))
    if not mins:
        raise ValueError("empty input")
    return NormStats(min_value=min(mins), max_value=max(maxs))


def normalize_array(x: np.ndarray, stats: NormStats) -> np.ndarray:
    """(x - min)/(max - min), clamped to [0, 1]."""
    y = np.subtract(x, stats.min_value, dtype=np.float64)
    y /= stats.max_value - stats.min_value
    return y.clip(0.0, 1.0, out=y)  # the method skips np.clip's dispatch, ~2 us a call

