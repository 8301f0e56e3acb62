"""Independent reference implementations used as test oracles.

Nothing here imports from graspslip's numerics: the point is a second
route to the same answers (plain-loop DFT, exhaustive neighbor sort,
linear-scan drop detection, nearest-rank percentiles) so the package and
the oracle can only agree by both being right.
"""

from __future__ import annotations

import math

import numpy as np


def dft_band_magnitudes(window, band_count: int) -> np.ndarray:
    """|X_k| for k = 1..band_count by the direct DFT sum, no FFT."""
    x = list(map(float, window))
    n = len(x)
    out = []
    for k in range(1, band_count + 1):
        re = sum(x[t] * math.cos(-2.0 * math.pi * k * t / n) for t in range(n))
        im = sum(x[t] * math.sin(-2.0 * math.pi * k * t / n) for t in range(n))
        out.append(math.hypot(re, im))
    return np.array(out)


def full_dft(window) -> list[complex]:
    """All N DFT coefficients by the direct sum."""
    x = list(map(float, window))
    n = len(x)
    return [
        sum(x[t] * complex(math.cos(-2 * math.pi * k * t / n),
                           math.sin(-2 * math.pi * k * t / n))
            for t in range(n))
        for k in range(n)
    ]


def parseval_gap(window) -> float:
    """|sum|X_k|^2 - N*sum x^2|; ~0 iff full_dft is a correct DFT."""
    x = list(map(float, window))
    coeffs = full_dft(x)
    lhs = sum(abs(c) ** 2 for c in coeffs)
    rhs = len(x) * sum(v * v for v in x)
    return abs(lhs - rhs)


def causal_frames(x, window_len: int) -> list[list[float]]:
    """Left-padded sliding windows by plain slicing, one per sample."""
    x = list(map(float, x))
    padded = [x[0]] * (window_len - 1) + x
    return [padded[t : t + window_len] for t in range(len(x))]


def scan_drop(values, eps: float, arm: float, sustain: int):
    """Linear-scan drop detector: arm at the first value >= arm, then
    return the start of the first run of `sustain` values < eps."""
    values = list(map(float, values))
    start = None
    for i, v in enumerate(values):
        if v >= arm:
            start = i
            break
    if start is None:
        return None
    run = 0
    for t in range(start, len(values)):
        run = run + 1 if values[t] < eps else 0
        if run == sustain:
            return t - sustain + 1
    return None


def nearest_rank(values, pct: float) -> float:
    """Nearest-rank percentile over a plain sorted copy."""
    s = sorted(float(v) for v in values)
    rank = max(1, math.ceil(pct / 100.0 * len(s)))
    return s[rank - 1]


def parse_trace_matrix(text: str) -> list[list[int]]:
    """Minimal independent parser: integer rows after the 'data' line."""
    rows = []
    in_body = False
    for line in text.splitlines():
        line = line.strip()
        if not in_body:
            in_body = line == "data"
            continue
        if line:
            rows.append([int(c) for c in line.split()])
    return rows


def central_difference(f, x0: float, eps: float = 1e-5) -> float:
    return (f(x0 + eps) - f(x0 - eps)) / (2.0 * eps)
