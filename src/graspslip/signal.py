"""Deterministic signal-processing front end.

Min/max normalization, short-time Fourier band magnitudes, and strided
decimation. Everything here is a pure function over immutable inputs;
all arithmetic is float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_WINDOW_LEN = 20
DEFAULT_BAND_COUNT = 10

FORCE_RANGE_MN = (0.0, 10000.0)
PRESSURE_RANGE = (0.0, 65535.0)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class SensorTrace:
    """One channel's time-ordered readings plus sampling metadata.

    Force traces are in mN, pressure traces in raw 16-bit counts. The
    ``meta`` map carries provenance strings (object, direction, weight,
    outcome, source).
    """

    samples: np.ndarray
    freq_hz: float
    channel_id: int = 0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.size == 0:
            raise ValueError("empty input")
        if samples.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {samples.shape}")
        if not np.all(np.isfinite(samples)):
            raise ValueError("non-finite sample value")
        if not (0 < self.freq_hz < np.inf):
            raise ValueError("freq_hz must be finite and > 0")
        object.__setattr__(self, "samples", _readonly(samples))
        object.__setattr__(self, "meta", dict(self.meta))

    def __len__(self) -> int:
        return int(self.samples.size)

    def with_samples(self, samples: np.ndarray, freq_hz: float | None = None) -> "SensorTrace":
        return SensorTrace(
            samples=samples,
            freq_hz=self.freq_hz if freq_hz is None else freq_hz,
            channel_id=self.channel_id,
            meta=dict(self.meta),
        )

    def validate_range(self) -> None:
        """Check the documented sensor range for the trace's source."""
        source = self.meta.get("source")
        if source == "force":
            lo, hi = FORCE_RANGE_MN
        elif source == "pressure":
            lo, hi = PRESSURE_RANGE
        else:
            return
        if self.samples.min() < lo or self.samples.max() > hi:
            raise ValueError(
                f"{source} sample outside [{lo:g}, {hi:g}]: "
                f"min={self.samples.min():g} max={self.samples.max():g}"
            )


@dataclass(frozen=True)
class NormStats:
    """Min/max of the training data; normalization maps them to [0, 1]."""

    min_value: float
    max_value: float

    def __post_init__(self):
        if not (np.isfinite(self.min_value) and np.isfinite(self.max_value)):
            raise ValueError("degenerate channel: non-finite stats")
        if not (self.max_value > self.min_value):
            raise ValueError("degenerate channel")


def stft_window(
    window: np.ndarray,
    window_len: int = DEFAULT_WINDOW_LEN,
    band_count: int | None = None,
) -> np.ndarray:
    """Band magnitudes |X_k|, k = 1..band_count, of one rectangular window.

    X_k = sum_n x_n * exp(-i*2*pi*k*n/window_len). The DC bin (k = 0) is
    dropped: it carries the static grip level, not the slip vibration.
    """
    x = np.asarray(window, dtype=np.float64)
    if x.ndim != 1 or x.size != window_len:
        raise ValueError("window size mismatch")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite sample value")
    if band_count is None:
        band_count = window_len // 2
    if not (1 <= band_count <= window_len // 2):
        raise ValueError(f"band_count must be in [1, {window_len // 2}]")
    return band_magnitudes(x, band_count)


def band_magnitudes(windows: np.ndarray, band_count: int) -> np.ndarray:
    """|X_k|, k = 1..band_count, of every window along the last axis."""
    return np.abs(np.fft.rfft(windows, axis=-1)[..., 1 : band_count + 1])


def compute_norm_stats(arrays) -> NormStats:
    """Pooled min/max over any iterable of traces or arrays."""
    mins, maxs = [], []
    for a in arrays:
        v = a.samples if isinstance(a, SensorTrace) else np.asarray(a, dtype=np.float64)
        mins.append(float(v.min()))
        maxs.append(float(v.max()))
    if not mins:
        raise ValueError("empty input")
    return NormStats(min_value=min(mins), max_value=max(maxs))


def normalize_array(x: np.ndarray, stats: NormStats) -> np.ndarray:
    """(x - min)/(max - min), clamped to [0, 1]."""
    y = (np.asarray(x, dtype=np.float64) - stats.min_value) / (
        stats.max_value - stats.min_value
    )
    return np.clip(y, 0.0, 1.0)


def downsample(trace: SensorTrace, factor: int) -> SensorTrace:
    """Keep every factor-th sample from index 0; divides the sample rate.

    Plain decimation without an anti-alias filter; aliasing above the new
    Nyquist rate is accepted, matching the documented 71 -> 17.75 Hz use.
    """
    if int(factor) != factor or factor < 1:
        raise ValueError("downsample factor must be an integer >= 1")
    factor = int(factor)
    return trace.with_samples(trace.samples[::factor], freq_hz=trace.freq_hz / factor)
