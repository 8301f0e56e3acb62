import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graspslip.signal import (
    NormStats,
    SensorTrace,
    band_magnitudes,
    compute_norm_stats,
    normalize_array,
    stft_window,
)
from tests import oracles


def trace(samples, freq=16.7, **kw):
    return SensorTrace(samples=np.asarray(samples, dtype=float), freq_hz=freq, **kw)


# -- SensorTrace ---------------------------------------------------------


def test_trace_rejects_empty():
    with pytest.raises(ValueError, match="empty input"):
        trace([])


def test_trace_rejects_nonfinite():
    with pytest.raises(ValueError, match="non-finite"):
        trace([1.0, np.nan, 2.0])


def test_trace_rejects_bad_freq():
    with pytest.raises(ValueError, match="freq_hz"):
        trace([1.0], freq=0.0)


@pytest.mark.parametrize("freq", [np.inf, -np.inf, np.nan])
def test_trace_rejects_nonfinite_freq(freq):
    with pytest.raises(ValueError, match="freq_hz must be a finite number > 0"):
        trace([1.0], freq=freq)


@pytest.mark.parametrize("make, want", [
    (lambda: trace([1.0], freq=True), "freq_hz must be a finite number > 0, got True"),
    (lambda: trace([1.0], freq="1"), "freq_hz must be a finite number > 0, got '1'"),
    (lambda: NormStats(True, 2.0), "min_value must be a finite number, got True"),
    (lambda: NormStats("0", 1.0), "min_value must be a finite number, got '0'"),
], ids=["rate-bool", "rate-text", "stats-bool", "stats-text"])
def test_a_bool_or_text_rate_or_stat_raises_value_error(make, want):
    # A bool rate used to construct, and a text one raised TypeError.
    with pytest.raises(ValueError, match=re.escape(want)):
        make()


def test_trace_samples_read_only():
    t = trace([1.0, 2.0])
    with pytest.raises(ValueError):
        t.samples[0] = 5.0


def test_trace_keeps_a_read_only_float64_array_uncopied():
    owner = np.zeros((3, 4))
    owner.setflags(write=False)
    assert trace(owner[:, 1]).samples.base is owner
    assert trace(owner[0]).samples.base is owner


@pytest.mark.parametrize("dtype, writable", [
    ("<f8", True), ("<i8", False), (">f8", False),
], ids=["writable", "int", "big-endian"])
def test_trace_copies_an_array_it_cannot_keep(dtype, writable):
    a = np.arange(4).astype(dtype)
    a.setflags(write=writable)
    t = SensorTrace(a, 16.7)
    assert not np.shares_memory(t.samples, a)
    assert t.samples.dtype == np.float64 and not t.samples.flags.writeable


def test_trace_copies_a_read_only_view_of_writable_memory():
    owner = np.arange(4.0)
    view = owner[:]
    view.setflags(write=False)
    t = SensorTrace(view, 16.7)
    owner[0] = 99.0
    assert t.samples[0] == 0.0


# -- stft_window -----------------------------------------------------------


def test_stft_window_size_mismatch():
    with pytest.raises(ValueError, match="window size mismatch"):
        stft_window(np.zeros(19))


def test_stft_window_constant_is_silent():
    bands = stft_window(np.full(20, 123.0))
    assert bands.shape == (10,)
    np.testing.assert_allclose(bands, 0.0, atol=1e-9)


def test_stft_window_pure_cosine_lands_in_its_band():
    # amplitude a at exactly bin 3: |X_3| = a * 20 / 2 = 10 a
    t = np.arange(20)
    for a in (1.0, 0.25):
        x = a * np.cos(2 * np.pi * 3 * t / 20)
        bands = stft_window(x)
        assert abs(bands[2] - 10.0 * a) < 1e-9
        others = np.delete(bands, 2)
        np.testing.assert_allclose(others, 0.0, atol=1e-9)


def test_stft_window_matches_direct_dft_sum(rng):
    for _ in range(50):
        x = rng.uniform(0, 10000, size=20)
        np.testing.assert_allclose(
            stft_window(x), oracles.dft_band_magnitudes(x, 10), atol=1e-9
        )


def test_band_magnitudes_custom_band_count(rng):
    x = rng.uniform(0, 1, size=20)
    np.testing.assert_allclose(
        band_magnitudes(x, 4), oracles.dft_band_magnitudes(x, 4), atol=1e-9
    )


def test_oracle_dft_satisfies_parseval(rng):
    # Self-check of the reference DFT used throughout these tests.
    for _ in range(5):
        assert oracles.parseval_gap(rng.uniform(-1, 1, size=20)) < 1e-6


# -- band_magnitudes -----------------------------------------------------------


def test_band_magnitudes_equals_stft_window_per_window(rng):
    windows = rng.uniform(0, 100, size=(2, 7, 20))
    bands = band_magnitudes(windows, 10)
    assert bands.shape == (2, 7, 10)
    for idx in np.ndindex(2, 7):
        np.testing.assert_array_equal(bands[idx], stft_window(windows[idx]))


def test_band_magnitudes_matches_direct_dft_sum(rng):
    windows = rng.uniform(0, 1, size=(5, 20))
    for row, x in zip(band_magnitudes(windows, 4), windows):
        np.testing.assert_allclose(row, oracles.dft_band_magnitudes(x, 4), atol=1e-9)


# -- normalization ------------------------------------------------------------


def test_norm_stats_degenerate():
    with pytest.raises(ValueError, match="degenerate channel"):
        NormStats(5.0, 5.0)
    with pytest.raises(ValueError, match="degenerate channel"):
        NormStats(5.0, 4.0)


def test_normalize_maps_extremes_to_unit_interval():
    stats = NormStats(100.0, 300.0)
    out = normalize_array(np.array([100.0, 200.0, 300.0]), stats)
    np.testing.assert_allclose(out, [0.0, 0.5, 1.0])


def test_normalize_clamps_outside_training_range():
    stats = NormStats(0.0, 10.0)
    np.testing.assert_allclose(
        normalize_array(np.array([-5.0, 15.0]), stats), [0.0, 1.0]
    )


def test_compute_norm_stats_pools_inputs():
    # arrays of any shape: a window, a stack of windows, a list
    stats = compute_norm_stats([np.array([3.0, 7.0]), np.array([[2.0, 4.0], [1.0, 5.0]]), [6]])
    assert stats.min_value == 1.0
    assert stats.max_value == 7.0


def test_compute_norm_stats_empty():
    with pytest.raises(ValueError, match="empty input"):
        compute_norm_stats([])


@given(
    st.lists(st.floats(min_value=0, max_value=1e4), min_size=2, max_size=50).filter(
        lambda v: max(v) > min(v)
    )
)
def test_normalize_output_in_unit_interval(values):
    x = np.array(values)
    stats = NormStats(float(x.min()), float(x.max()))
    y = normalize_array(x, stats)
    assert y.min() >= 0.0 and y.max() <= 1.0
    assert y[np.argmin(x)] == 0.0 and y[np.argmax(x)] == 1.0
