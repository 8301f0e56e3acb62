"""Stream replay: incremental inference, grip-current policy, latency.

The replay loop maintains the causal STFT window and LSTM state
incrementally, so each step costs O(window). A frame holds one sample
from each of up to FORCE_CHANNELS (16) channels, and push_frame advances
all of them through one GraspModel.step, the call predict_batch makes
per time step, so each channel gets the bits of offline inference of its
trace. Timing is measured around push_frame only: every sensor's event
is charged the whole frame's wall time. That is stricter
than timing each sensor alone, and it makes latency_report's per-frame
sum (n_sensors times the frame time) a conservative upper bound on the
real frame cost. Only latency_report applies the budgets: 4 ms per
sensor (SENSOR_BUDGET_MS) and n_sensors times that per frame, n_sensors
being the channel count of the log. The replay models no physics, it
validates decisions and latency.

Event log format (CSV): step,channel,probability,label,latency_us with
label 1 = unstable and channel the trace's position in the frame; the log
is an output only, plain CSV that any CSV reader takes. Controller
trajectory: step,pj_ma,mj_ma.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from graspslip.data import SENSORS
from graspslip.ioutil import atomic_write_text
from graspslip.models import GraspModel
from graspslip.signal import SensorTrace, normalize_array

PJ_INIT_MA = 50.0
MJ_INIT_MA = 25.0
PJ_STEP_MA = 5.0
MJ_STEP_MA = 10.0
# Bounded simulation: 2x the ~2 kg holding currents (100 / 200 mA).
PJ_MAX_MA = 200.0
MJ_MAX_MA = 400.0

SENSOR_BUDGET_MS = 4.0


@dataclass(slots=True)
class StepEvent:
    """One per-step prediction record; replay builds one per channel per frame."""

    step: int
    channel: int
    probability: float
    unstable: bool
    latency_us: float = 0.0


class StreamingPredictor:
    """Frame-at-a-time inference with the model's own feature pipeline.

    Channel c is position c of every frame. Keeps, for each of
    ``n_channels`` sensors, a ring of the last
    ``model.stft_window`` normalized samples for the band magnitudes, and
    the model's lstm_columns() for all channels; push_frame() advances them
    by one time step through the model's step(), as predict_batch does.

    A non-finite sample (NaN or +-inf) is flagged unstable, the fail-safe
    answer, with a NaN probability, and leaves nothing behind in the ring
    or the LSTM state: that channel restarts, so its next finite sample
    is scored as by a fresh predictor. Other channels are unaffected.
    """

    def __init__(self, model: GraspModel, n_channels: int = 1):
        if model.stats is None:
            raise ValueError("missing normalization stats; train or load a checkpoint first")
        self.model = model
        self.n_channels = SENSORS.check("n_channels", n_channels)
        self.reset()

    def reset(self) -> None:
        n = self.n_channels
        self._ring = np.empty((n, self.model.stft_window))
        # Channels whose ring is refilled from their next sample, or None.
        self._restart = np.ones(n, dtype=bool)
        self._columns = self.model.lstm_columns(n)

    def push_frame(self, values) -> tuple[np.ndarray, np.ndarray]:
        """Consume one raw sample per channel; return (p_unstable[C], flags[C])."""
        m = self.model
        n, raw = self.n_channels, np.asarray(values, dtype=np.float64)
        if raw.shape != (n,):
            raise ValueError(f"expected {n} sample(s), got shape {raw.shape}")
        bad = ~np.isfinite(raw)
        x = normalize_array(np.where(bad, 0.0, raw), m.stats)
        self._ring[:, :-1] = self._ring[:, 1:]
        self._ring[:, -1] = x
        if self._restart is not None:
            restart, self._restart = self._restart, None
            self._ring[restart] = x[restart, None]  # causal left-pad with the first sample
        with np.errstate(over="ignore"):
            p_unstable = m.step(self._columns, m.variant.features(self._ring))
        if bad.any():
            p_unstable[bad] = np.nan
            self._restart = bad
            for col in self._columns:
                col.h[:, bad] = 0.0
                col.c[:, bad] = 0.0
        pred = m.decide(p_unstable)
        return pred.p_unstable, pred.unstable


def replay(traces, model: GraspModel, timing: bool = True) -> list[StepEvent]:
    """Run up to FORCE_CHANNELS traces of one rate and length through one
    predictor, one frame at a time; the predictor refuses more as its
    ``n_channels``.

    Returns the merged log ordered by (step, channel), channel c being
    ``traces[c]``, as it is in the predictor's frame. Each frame is one
    batched push_frame call, and every sensor's event is charged that
    call's whole wall time. latency_report counts budget overruns, never
    fatal. timing=False zeroes latencies for byte-reproducible logs.
    """
    if isinstance(traces, SensorTrace):
        traces = [traces]
    traces = list(traces)
    if not traces:
        raise ValueError("empty input: no traces")
    for what, values in [("frequency", {t.freq_hz for t in traces}), ("length", set(map(len, traces)))]:
        if len(values) != 1:  # a frame holds one sample of every trace
            raise ValueError(f"{what} mismatch across traces: {sorted(values)}")

    predictor = StreamingPredictor(model, n_channels=len(traces))
    frames = np.stack([t.samples for t in traces], axis=1)
    channels = range(len(traces))
    events: list[StepEvent] = []
    for step, frame in enumerate(frames):
        t0 = time.perf_counter_ns()
        probs, flags = predictor.push_frame(frame)
        lat_us = (time.perf_counter_ns() - t0) / 1e3 if timing else 0.0
        events.extend(map(StepEvent, repeat(step), channels, probs.tolist(),
                          flags.tolist(), repeat(lat_us)))
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


def latency_report(events) -> dict:
    """p50/p95/max per-sensor latency, frame totals, overruns and a verdict.

    The frame budget is SENSOR_BUDGET_MS for each channel in the log.
    """
    events = list(events)
    if not events:
        raise ValueError("no events")
    lat_ms = np.array([e.latency_us for e in events]) / 1e3

    frames: dict[int, float] = {}
    channels = set()
    for e in events:
        frames[e.step] = frames.get(e.step, 0.0) + e.latency_us / 1e3
        channels.add(e.channel)
    n_sensors = len(channels)

    def spread(ms: np.ndarray) -> dict:
        # numpy's inverted_cdf is the nearest rank: the ceil(p/100 * n)-th smallest value
        p50, p95 = np.percentile(ms, [50.0, 95.0], method="inverted_cdf")
        return {"p50": float(p50), "p95": float(p95), "max": float(ms.max())}

    per_sensor = spread(lat_ms)
    return {
        "n_events": len(events),
        "n_sensors": n_sensors,
        "per_sensor_ms": per_sensor,
        "per_frame_ms": spread(np.array(list(frames.values()))),
        "budget_ms": SENSOR_BUDGET_MS,
        "frame_budget_ms": n_sensors * SENSOR_BUDGET_MS,
        "n_over_budget": sum(1 for e in events if e.latency_us > SENSOR_BUDGET_MS * 1e3),
        "pass": bool(per_sensor["p95"] < SENSOR_BUDGET_MS),
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


def write_trajectory(state: GripState, path) -> None:
    lines = ["step,pj_ma,mj_ma"]
    for step, pj, mj in state.history:
        lines.append(f"{step},{pj:g},{mj:g}")
    atomic_write_text(path, "\n".join(lines) + "\n")
