import numpy as np
import pytest

from graspslip import data, models, stream
from graspslip.signal import NormStats, SensorTrace
from graspslip.stream import (
    FrameClock,
    StepEvent,
    StreamingPredictor,
    grip_controller,
    latency_report,
    read_event_log,
    replay,
    slip_events,
    write_event_log,
    write_trajectory,
)
from tests import oracles


def constant_model(stable=True, variant="C"):
    """Zoo model whose head bias forces one class regardless of input."""
    cfg = models.TrainConfig(lstm_units=4, init_mode="literal-zeros")
    m = models.build_model(variant, cfg)
    m.stats = NormStats(0.0, 4000.0)
    m.head.b = np.array([10.0, -10.0]) if stable else np.array([-10.0, 10.0])
    return m


def force_trace(samples, channel_id=0, freq_hz=16.7):
    return SensorTrace(
        samples=np.asarray(samples, dtype=float),
        freq_hz=freq_hz,
        channel_id=channel_id,
        meta={"source": "force"},
    )


def fake_events(latencies_us, step_channels=None):
    if step_channels is None:
        step_channels = [(i, 0) for i in range(len(latencies_us))]
    return [
        StepEvent(step=s, channel=c, probability=0.1, unstable=False, latency_us=l)
        for (s, c), l in zip(step_channels, latencies_us)
    ]


# -- clock -----------------------------------------------------------------


def test_frame_clock_budget():
    clock = FrameClock(freq_hz=16.7)
    assert clock.frame_budget_ms == pytest.approx(64.0)
    assert FrameClock(freq_hz=71.0, n_sensors=4).frame_budget_ms == pytest.approx(16.0)


def test_frame_clock_validation():
    with pytest.raises(ValueError, match="freq_hz"):
        FrameClock(freq_hz=0.0)
    with pytest.raises(ValueError, match="n_sensors"):
        FrameClock(freq_hz=10.0, n_sensors=17)


@pytest.mark.parametrize("freq", [np.inf, np.nan])
def test_frame_clock_rejects_nonfinite_freq(freq):
    # an infinite rate would give a 0 s frame period
    with pytest.raises(ValueError, match="freq_hz must be finite"):
        FrameClock(freq_hz=freq)


# -- streaming predictor -------------------------------------------------------


def test_predictor_requires_stats():
    m = models.build_model("B", models.TrainConfig(lstm_units=4))
    with pytest.raises(ValueError, match="missing normalization stats"):
        StreamingPredictor(m)


def test_predictor_reset_reproduces(rng, trained_c):
    pred = StreamingPredictor(trained_c)
    x = rng.uniform(500, 3000, size=80)
    first = [pred.push(v) for v in x]
    pred.reset()
    second = [pred.push(v) for v in x]
    assert first == second


@pytest.mark.parametrize("tag", ["A", "B", "C", "D"])
def test_streaming_matches_offline(tag, rng):
    cfg = models.TrainConfig(lstm_units=6, seed=4)
    m = models.build_model(tag, cfg)
    m.stats = NormStats(0.0, 3000.0)
    x = rng.uniform(0, 3000, size=200)
    offline = m.predict_samples(x).p_unstable
    pred = StreamingPredictor(m)
    online = np.array([pred.push(v)[0] for v in x])
    np.testing.assert_allclose(online, offline, atol=1e-12)


def test_push_frame_16_channels_matches_offline(rng):
    m = models.build_model("D", models.TrainConfig(lstm_units=6, seed=3))
    m.stats = NormStats(0.0, 3000.0)
    x = rng.uniform(0, 3000, size=(16, 60))
    pred = StreamingPredictor(m, n_channels=16)
    online = np.stack([pred.push_frame(x[:, t])[0] for t in range(60)], axis=1)
    for ch in range(16):
        np.testing.assert_allclose(online[ch], m.predict_samples(x[ch]).p_unstable, atol=1e-12)


def test_push_frame_rejects_wrong_width(trained_c):
    pred = StreamingPredictor(trained_c, n_channels=3)
    with pytest.raises(ValueError, match="expected 3 sample"):
        pred.push_frame([1.0, 2.0])
    with pytest.raises(ValueError, match="n_channels"):
        StreamingPredictor(trained_c, n_channels=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_push_nonfinite_is_unstable_and_restarts(bad, rng, trained_c):
    x = rng.uniform(500, 3000, size=40)
    pred = StreamingPredictor(trained_c)
    for v in x[:20]:
        pred.push(v)
    p, flag = pred.push(bad)
    assert np.isnan(p) and flag is True
    after = [pred.push(v) for v in x[20:]]
    fresh = StreamingPredictor(trained_c)
    assert after == [fresh.push(v) for v in x[20:]]
    assert not any(np.isnan(q) for q, _ in after)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_push_frame_nonfinite_channel_leaves_others_alone(bad, rng, trained_c):
    x = rng.uniform(500, 3000, size=(4, 50))
    spoiled = x.copy()
    spoiled[2, 25] = bad
    clean_pred = StreamingPredictor(trained_c, n_channels=4)
    pred = StreamingPredictor(trained_c, n_channels=4)
    clean = [clean_pred.push_frame(x[:, t]) for t in range(50)]
    out = [pred.push_frame(spoiled[:, t]) for t in range(50)]
    others = [0, 1, 3]
    for (p_ref, f_ref), (p, f) in zip(clean, out):
        np.testing.assert_array_equal(p[others], p_ref[others])
        np.testing.assert_array_equal(f[others], f_ref[others])
    p_bad, f_bad = out[25]
    assert np.isnan(p_bad[2]) and f_bad[2]
    # Channel 2 restarts at step 26: it must score as a fresh predictor of
    # the same width fed from there. Same width, because BLAS does not
    # promise a row bit-identical results at batch sizes 4 and 1.
    restarted = StreamingPredictor(trained_c, n_channels=4)
    np.testing.assert_array_equal(
        [p[2] for p, _ in out[26:]], [restarted.push_frame(x[:, t])[0][2] for t in range(26, 50)]
    )


@pytest.mark.parametrize("tag", ["A", "B", "C", "D"])
def test_push_frame_nan_probability_is_unstable(tag, rng):
    m = models.build_model(tag, models.TrainConfig(lstm_units=6, seed=4))
    m.stats = NormStats(0.0, 3000.0)
    m.head.b = np.array([0.0, np.nan])
    pred = StreamingPredictor(m, n_channels=3)
    for values in rng.uniform(0, 3000, size=(10, 3)):
        p, flags = pred.push_frame(values)
        assert np.isnan(p).all() and flags.all()


def test_replay_16_channels_matches_offline(trained_c, synth_split):
    _, test_sets = synth_split
    grasp = test_sets[1]
    traces = [grasp.channel(c) for c in range(16)]
    events = replay(traces, trained_c, timing=False)
    assert [(e.step, e.channel) for e in events] == [
        (t, c) for t in range(grasp.n_steps) for c in range(16)
    ]
    for c in (0, 7, 15):
        offline = trained_c.predict_samples(traces[c].samples)
        np.testing.assert_allclose(
            [e.probability for e in events[c::16]], offline.p_unstable, atol=1e-12
        )
        assert [e.unstable for e in events[c::16]] == offline.unstable.tolist()


def test_replay_charges_each_sensor_the_frame_time(trained_c):
    traces = [force_trace(np.full(20, 1000.0 + 50 * c), channel_id=c) for c in range(4)]
    events = replay(traces, trained_c, timing=True)
    for step in range(20):
        lat = {e.latency_us for e in events if e.step == step}
        assert len(lat) == 1 and lat.pop() > 0


def test_replay_matches_offline_on_trained_model(trained_c, synth_split):
    _, test_sets = synth_split
    grasp = next(s for s in test_sets if s.outcome == "failure")
    trace = grasp.channel(0)
    offline = trained_c.predict_samples(trace.samples).p_unstable
    events = replay(trace, trained_c, timing=False)
    online = np.array([e.probability for e in events])
    np.testing.assert_allclose(online, offline, atol=1e-12)


def test_replay_fires_within_slip_window(trained_c, synth_split):
    # the calibrated fixture flags instability after onset, before drop
    _, test_sets = synth_split
    for grasp in test_sets:
        if grasp.outcome != "failure":
            continue
        events = replay(grasp.channel(0), trained_c, timing=False)
        first = next((e.step for e in events if e.unstable), None)
        onset = grasp.meta["slip_onset"]
        assert first is not None
        assert onset <= first <= onset + 20


def test_replay_stable_trace_is_silent(synth_split):
    train_sets, _ = synth_split
    grasp = next(s for s in train_sets if s.outcome == "success")
    model = constant_model(stable=True)
    events = replay(grasp.channel(0), model, timing=False)
    assert not any(e.unstable for e in events)
    assert slip_events(events) == []


def test_replay_multi_trace_interleaves(trained_c, synth_split):
    _, test_sets = synth_split
    grasp = test_sets[0]
    traces = [grasp.channel(i) for i in range(3)]
    events = replay(traces, trained_c, timing=False)
    assert len(events) == 3 * grasp.n_steps
    assert [(e.step, e.channel) for e in events[:6]] == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
    ]
    solo = replay(traces[1], trained_c, timing=False)
    merged = [e.probability for e in events if e.channel == 1]
    np.testing.assert_allclose(merged, [e.probability for e in solo], atol=1e-15)


def test_replay_duplicate_channel_ids_renumbered(trained_c):
    t = force_trace(np.full(40, 1000.0), channel_id=5)
    events = replay([t, t], trained_c, timing=False)
    assert {e.channel for e in events} == {0, 1}
    solo = replay(t, trained_c, timing=False)
    assert {e.channel for e in solo} == {5}


def test_replay_validation(trained_c):
    with pytest.raises(ValueError, match="empty input: no traces"):
        replay([], trained_c)
    a = force_trace(np.ones(10), 0, freq_hz=16.7)
    b = force_trace(np.ones(10), 1, freq_hz=71.0)
    with pytest.raises(ValueError, match="frequency mismatch"):
        replay([a, b], trained_c)
    clock = FrameClock(freq_hz=16.7, n_sensors=1)
    with pytest.raises(ValueError, match="exceed the 1-sensor frame"):
        replay([a, force_trace(np.ones(10), 1)], trained_c, clock=clock)


def test_replay_timing_populates_latency(trained_c):
    t = force_trace(np.full(30, 1000.0))
    timed = replay(t, trained_c, timing=True)
    assert any(e.latency_us > 0 for e in timed)
    untimed = replay(t, trained_c, timing=False)
    assert all(e.latency_us == 0.0 for e in untimed)


# -- slip events -----------------------------------------------------------------


def test_slip_events_rising_edges():
    flags = [0, 1, 1, 0, 1, 0, 0, 1]
    events = [
        StepEvent(step=i, channel=0, probability=float(f), unstable=bool(f))
        for i, f in enumerate(flags)
    ]
    edges = slip_events(events)
    assert [e.step for e in edges] == [1, 4, 7]


def test_slip_events_first_step_counts():
    events = [StepEvent(step=0, channel=2, probability=1.0, unstable=True)]
    assert [e.step for e in slip_events(events)] == [0]


def test_slip_events_per_channel_state():
    events = [
        StepEvent(step=0, channel=0, probability=1.0, unstable=True),
        StepEvent(step=0, channel=1, probability=1.0, unstable=True),
        StepEvent(step=1, channel=0, probability=1.0, unstable=True),
        StepEvent(step=1, channel=1, probability=0.0, unstable=False),
        StepEvent(step=2, channel=1, probability=1.0, unstable=True),
    ]
    edges = slip_events(events)
    assert [(e.step, e.channel) for e in edges] == [(0, 0), (0, 1), (2, 1)]


# -- grip controller ----------------------------------------------------------------


def edge_events(n):
    # alternate unstable/stable so every unstable step is a rising edge
    out = []
    for i in range(n):
        out.append(StepEvent(step=2 * i, channel=0, probability=1.0, unstable=True))
        out.append(StepEvent(step=2 * i + 1, channel=0, probability=0.0, unstable=False))
    return out


def test_controller_initial_currents():
    state = grip_controller([])
    assert (state.pj_ma, state.mj_ma) == (50.0, 25.0)
    assert state.slip_events == 0
    assert state.history == []


def test_controller_single_event():
    state = grip_controller(edge_events(1))
    assert (state.pj_ma, state.mj_ma) == (55.0, 35.0)
    assert state.slip_events == 1


def test_controller_fifteen_events():
    state = grip_controller(edge_events(15))
    assert (state.pj_ma, state.mj_ma) == (125.0, 175.0)
    assert state.slip_events == 15
    assert state.history[-1] == (28, 125.0, 175.0)


def test_controller_ceilings():
    state = grip_controller(edge_events(100))
    assert (state.pj_ma, state.mj_ma) == (200.0, 400.0)
    pjs = [pj for _, pj, _ in state.history]
    assert pjs == sorted(pjs)  # currents never decrease


def test_controller_level_streak_is_one_event():
    # sustained instability is one edge, not one event per step
    events = [
        StepEvent(step=i, channel=0, probability=1.0, unstable=True) for i in range(10)
    ]
    state = grip_controller(events)
    assert state.slip_events == 1
    assert (state.pj_ma, state.mj_ma) == (55.0, 35.0)


def test_controller_fold_reproducible():
    events = edge_events(7)
    a = grip_controller(events)
    b = grip_controller(events)
    assert (a.pj_ma, a.mj_ma, a.history) == (b.pj_ma, b.mj_ma, b.history)


# -- latency report -------------------------------------------------------------------


def test_latency_report_requires_events():
    with pytest.raises(ValueError, match="no events"):
        latency_report([])


def test_latency_report_nearest_rank_percentiles():
    lat = [float(v) for v in range(1, 101)]  # 1..100 us
    report = latency_report(fake_events(lat))
    assert report["per_sensor_ms"]["p50"] == oracles.nearest_rank(
        [v / 1e3 for v in lat], 50
    )
    assert report["per_sensor_ms"]["p95"] == pytest.approx(0.095)
    assert report["per_sensor_ms"]["max"] == pytest.approx(0.1)
    assert report["n_events"] == 100
    assert report["pass"] is True


def test_latency_report_verdict_boundary():
    # p95 exactly at the budget must fail the strict < check
    events = fake_events([4000.0] * 100)
    report = latency_report(events)
    assert report["per_sensor_ms"]["p95"] == pytest.approx(4.0)
    assert report["pass"] is False


def test_latency_report_frame_totals():
    # two channels per step: frame latency sums both
    pairs = [(s, c) for s in range(10) for c in range(2)]
    lat = [100.0] * 20
    report = latency_report(fake_events(lat, pairs))
    assert report["n_sensors"] == 2
    assert report["per_frame_ms"]["max"] == pytest.approx(0.2)
    assert report["frame_budget_ms"] == pytest.approx(8.0)


def test_latency_report_counts_over_budget():
    # strictly above the 4 ms budget, compared in microseconds
    events = fake_events([1.0, 4000.0, 4000.001])
    assert latency_report(events)["n_over_budget"] == 1


def test_latency_report_of_a_reloaded_log_matches_the_live_events(tmp_path):
    events = fake_events([5000.0] * 8 + [100.0] * 8)
    path = tmp_path / "events.csv"
    write_event_log(events, path)
    live = latency_report(events)
    assert live["n_over_budget"] == 8
    assert latency_report(read_event_log(path)) == live


# -- log files ----------------------------------------------------------------------------


def test_event_log_round_trip(tmp_path, trained_c, synth_split):
    _, test_sets = synth_split
    events = replay(test_sets[0].channel(0), trained_c, timing=False)
    path = tmp_path / "events.csv"
    write_event_log(events, path)
    again = read_event_log(path)
    assert len(again) == len(events)
    for a, b in zip(events, again):
        assert (a.step, a.channel, a.unstable) == (b.step, b.channel, b.unstable)
        assert a.probability == b.probability  # %.17g survives the round trip


def test_event_log_rejects_bad_header(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("nope\n")
    with pytest.raises(ValueError, match="not an event log"):
        read_event_log(path)


def test_event_log_reports_bad_line(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("step,channel,probability,label,latency_us\n1,2,0.5\n")
    with pytest.raises(ValueError, match=r"events\.csv:2: expected 5 fields"):
        read_event_log(path)
    path.write_text("step,channel,probability,label,latency_us\nx,2,0.5,1,0.0\n")
    with pytest.raises(ValueError, match=r"events\.csv:2"):
        read_event_log(path)


def test_write_trajectory(tmp_path):
    state = grip_controller(edge_events(3))
    path = tmp_path / "traj.csv"
    write_trajectory(state, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,pj_ma,mj_ma"
    assert lines[1] == "0,55,35"
    assert lines[3] == "4,65,55"
