"""Stream replay: incremental inference, grip-current policy, latency.

The replay loop maintains the causal STFT window and LSTM state
incrementally, so each step costs O(window) and produces the same
probabilities as the offline pipeline on the same samples (to 1e-12).
All channels of a frame advance together in one batched inference call,
and timing is measured around that call only: every sensor's event is
charged the whole frame's wall time. That is stricter than timing each
sensor alone, and it makes latency_report's per-frame sum (n_sensors
times the frame time) a conservative upper bound on the real frame
cost. Only latency_report applies the 4 ms per-sensor SENSOR_BUDGET_MS.
The replay models no physics, it validates decisions and latency.

Event log format (CSV): step,channel,probability,label,latency_us with
label 1 = unstable. Controller trajectory: step,pj_ma,mj_ma.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from graspslip import nn
from graspslip.ioutil import atomic_write_text
from graspslip.models import CLASS_UNSTABLE, GraspModel
from graspslip.signal import SensorTrace, normalize_array

PJ_INIT_MA = 50.0
MJ_INIT_MA = 25.0
PJ_STEP_MA = 5.0
MJ_STEP_MA = 10.0
# Bounded simulation: 2x the ~2 kg holding currents (100 / 200 mA).
PJ_MAX_MA = 200.0
MJ_MAX_MA = 400.0

SENSOR_BUDGET_MS = 4.0
MAX_SENSORS = 16


@dataclass(frozen=True)
class FrameClock:
    """Per-frame timing contract for the streaming predictor."""

    freq_hz: float
    n_sensors: int = MAX_SENSORS

    def __post_init__(self):
        if not (0 < self.freq_hz < np.inf):
            raise ValueError("freq_hz must be finite and > 0")
        if not (0 < self.n_sensors <= MAX_SENSORS):
            raise ValueError(f"n_sensors must be in 1..{MAX_SENSORS}")

    @property
    def frame_budget_ms(self) -> float:
        return self.n_sensors * SENSOR_BUDGET_MS


@dataclass
class StepEvent:
    """One per-step prediction record in the replay log."""

    step: int
    channel: int
    probability: float
    unstable: bool
    latency_us: float = 0.0


class StreamingPredictor:
    """Frame-at-a-time inference with the model's own feature pipeline.

    Keeps, for each of ``n_channels`` sensors, a window_len ring of
    normalized samples for the band magnitudes and one (h, c) LSTM state
    per stream; push_frame() advances every channel by one time step in
    one batched cell update, push() is the one-channel case.

    A non-finite sample (NaN or +-inf) is flagged unstable, the fail-safe
    answer, with a NaN probability, and leaves nothing behind in the ring
    or the LSTM state: that channel restarts, so its next finite sample
    is scored as by a fresh predictor. Other channels are unaffected.
    """

    def __init__(self, model: GraspModel, n_channels: int = 1):
        if model.stats is None:
            raise ValueError("missing normalization stats; train or load a checkpoint first")
        if n_channels < 1:
            raise ValueError("n_channels must be >= 1")
        self.model = model
        self.n_channels = n_channels
        self._kernels = [p.cell_kernel() for p in model.lstms]
        self.reset()

    def reset(self) -> None:
        n = self.n_channels
        self._ring = np.empty((n, self.model.stft_window))
        self._started = np.zeros(n, dtype=bool)
        # Per LSTM: the (D+H+1, C) columns [x_t; h; 1] whose h slot holds the
        # state, the cell state, and the gate and tanh(c') buffers.
        self._cells = [
            (np.vstack([np.zeros((p.input_dim + p.hidden_dim, n)), np.ones((1, n))]),
             np.zeros((p.hidden_dim, n)), np.empty((4 * p.hidden_dim, n)), np.empty((p.hidden_dim, n)))
            for p in self.model.lstms
        ]

    def push_frame(self, values) -> tuple[np.ndarray, np.ndarray]:
        """Consume one raw sample per channel; return (p_unstable[C], flags[C])."""
        m = self.model
        raw = np.asarray(values, dtype=np.float64)
        if raw.shape != (self.n_channels,):
            raise ValueError(f"expected {self.n_channels} sample(s), got shape {raw.shape}")
        bad = ~np.isfinite(raw)
        x = normalize_array(np.where(bad, 0.0, raw), m.stats)
        fresh = ~self._started
        self._ring[:, :-1] = self._ring[:, 1:]
        self._ring[:, -1] = x
        if fresh.any():
            self._ring[fresh] = x[fresh, None]  # causal left-pad with the first sample
            self._started[:] = True
        hs = []
        with np.errstate(over="ignore"):
            for vec, k, (z, c, gates, tanh_c) in zip(
                m.variant.features(self._ring), self._kernels, self._cells
            ):
                d = vec.shape[1]
                h = z[d:-1]
                z[:d] = vec.T
                nn.lstm_cell(z, k, c, gates, c, tanh_c, h)
                hs.append(h)
        p_unstable = m.head.probs(np.concatenate(hs).T)[:, CLASS_UNSTABLE]
        if bad.any():
            p_unstable[bad] = np.nan
            self._started[bad] = False
            for h, (_, c, _, _) in zip(hs, self._cells):
                h[:, bad] = 0.0
                c[:, bad] = 0.0
        return p_unstable, ~(p_unstable < m.threshold)

    def push(self, sample: float) -> tuple[float, bool]:
        """Consume one raw sample of a one-channel predictor."""
        p, flag = self.push_frame([sample])
        return float(p[0]), bool(flag[0])


def replay(
    traces,
    model: GraspModel,
    clock: FrameClock | None = None,
    timing: bool = True,
) -> list[StepEvent]:
    """Run every trace through one predictor, one frame at a time.

    Returns the merged log ordered by (step, channel). Each frame is one
    batched push_frame call, and every sensor's event is charged that
    call's whole wall time. latency_report counts budget overruns, never
    fatal. timing=False zeroes latencies for byte-reproducible logs.
    """
    if isinstance(traces, SensorTrace):
        traces = [traces]
    traces = list(traces)
    if not traces:
        raise ValueError("empty input: no traces")
    freqs = {t.freq_hz for t in traces}
    if len(freqs) != 1:
        raise ValueError(f"frequency mismatch across traces: {sorted(freqs)}")
    if clock is None:
        clock = FrameClock(freq_hz=traces[0].freq_hz, n_sensors=min(len(traces), MAX_SENSORS))
    if len(traces) > clock.n_sensors:
        raise ValueError(f"{len(traces)} traces exceed the {clock.n_sensors}-sensor frame")

    predictor = StreamingPredictor(model, n_channels=len(traces))
    n_steps = min(len(t) for t in traces)
    frames = np.stack([t.samples[:n_steps] for t in traces], axis=1)
    # Use the traces' own channel ids only when they are distinct.
    if len({t.channel_id for t in traces}) == len(traces):
        channels = [t.channel_id for t in traces]
    else:
        channels = list(range(len(traces)))
    events: list[StepEvent] = []
    for step in range(n_steps):
        t0 = time.perf_counter_ns()
        probs, flags = predictor.push_frame(frames[step])
        lat_us = (time.perf_counter_ns() - t0) / 1e3 if timing else 0.0
        events.extend(
            StepEvent(
                step=step,
                channel=channel,
                probability=p,
                unstable=flag,
                latency_us=lat_us,
            )
            for channel, p, flag in zip(channels, probs.tolist(), flags.tolist())
        )
    return events


def slip_events(events) -> list[StepEvent]:
    """Rising edges of the per-channel prediction streams.

    A channel whose very first prediction is unstable counts as one edge
    (the implicit prior state is stable).
    """
    last: dict[int, bool] = {}
    edges = []
    for ev in sorted(events, key=lambda e: (e.step, e.channel)):
        prev = last.get(ev.channel, False)
        if ev.unstable and not prev:
            edges.append(ev)
        last[ev.channel] = ev.unstable
    return edges


@dataclass
class GripState:
    """Joint currents driven by the slip-triggered increment policy."""

    pj_ma: float = PJ_INIT_MA
    mj_ma: float = MJ_INIT_MA
    slip_events: int = 0
    history: list = field(default_factory=list)


def grip_controller(events) -> GripState:
    """Fold the event log into a current trajectory.

    Each rising-edge slip event adds +5 mA (pj) and +10 mA (mj), clamped
    at PJ_MAX_MA / MJ_MAX_MA; currents never decrease. Replaying the
    same log reproduces the same trajectory.
    """
    state = GripState()
    for ev in slip_events(events):
        state.pj_ma = min(state.pj_ma + PJ_STEP_MA, PJ_MAX_MA)
        state.mj_ma = min(state.mj_ma + MJ_STEP_MA, MJ_MAX_MA)
        state.slip_events += 1
        state.history.append((ev.step, state.pj_ma, state.mj_ma))
    return state


def _nearest_rank(sorted_values: np.ndarray, pct: float) -> float:
    """Nearest-rank percentile: the ceil(p/100 * n)-th smallest value."""
    n = sorted_values.size
    rank = max(1, int(np.ceil(pct / 100.0 * n)))
    return float(sorted_values[rank - 1])


def latency_report(events, clock: FrameClock | None = None) -> dict:
    """p50/p95/max per-sensor latency, frame totals, overruns and a verdict."""
    events = list(events)
    if not events:
        raise ValueError("no events")
    lat_ms = np.sort(np.array([e.latency_us for e in events]) / 1e3)

    frames: dict[int, float] = {}
    channels = set()
    for e in events:
        frames[e.step] = frames.get(e.step, 0.0) + e.latency_us / 1e3
        channels.add(e.channel)
    frame_ms = np.sort(np.array(list(frames.values())))
    n_sensors = len(channels)
    frame_budget_ms = (
        clock.frame_budget_ms if clock else n_sensors * SENSOR_BUDGET_MS
    )

    p95 = _nearest_rank(lat_ms, 95.0)
    return {
        "n_events": len(events),
        "n_sensors": n_sensors,
        "per_sensor_ms": {
            "p50": _nearest_rank(lat_ms, 50.0),
            "p95": p95,
            "max": float(lat_ms[-1]),
        },
        "per_frame_ms": {
            "p50": _nearest_rank(frame_ms, 50.0),
            "p95": _nearest_rank(frame_ms, 95.0),
            "max": float(frame_ms[-1]),
        },
        "budget_ms": SENSOR_BUDGET_MS,
        "frame_budget_ms": frame_budget_ms,
        "n_over_budget": sum(1 for e in events if e.latency_us > SENSOR_BUDGET_MS * 1e3),
        "pass": bool(p95 < SENSOR_BUDGET_MS),
    }


# -- log files ---------------------------------------------------------------

_LOG_HEADER = "step,channel,probability,label,latency_us"


def write_event_log(events, path) -> None:
    lines = [_LOG_HEADER]
    for e in events:
        lines.append(
            f"{e.step},{e.channel},{e.probability:.17g},"
            f"{int(e.unstable)},{e.latency_us:.3f}"
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_event_log(path) -> list[StepEvent]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != _LOG_HEADER:
        raise ValueError(f"{path}:1: not an event log (missing header)")
    events = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != 5:
            raise ValueError(f"{path}:{ln}: expected 5 fields, got {len(cells)}")
        try:
            events.append(
                StepEvent(
                    step=int(cells[0]),
                    channel=int(cells[1]),
                    probability=float(cells[2]),
                    unstable=bool(int(cells[3])),
                    latency_us=float(cells[4]),
                )
            )
        except ValueError as exc:
            raise ValueError(f"{path}:{ln}: {exc}") from None
    return events


def write_trajectory(state: GripState, path) -> None:
    lines = ["step,pj_ma,mj_ma"]
    for step, pj, mj in state.history:
        lines.append(f"{step},{pj:g},{mj:g}")
    atomic_write_text(path, "\n".join(lines) + "\n")
