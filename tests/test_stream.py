import numpy as np
import pytest

from graspslip import data, models, stream
from graspslip.signal import NormStats, SensorTrace
from graspslip.stream import (
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
from tests.blas import run_on_kernel_set


def constant_model(stable=True, variant="C"):
    """Zoo model whose head bias forces one class regardless of input."""
    m = models.GraspModel.build(variant, models.TrainConfig(lstm_units=4))
    for arr in m.stored_arrays().values():
        arr[...] = 0.0
    m.stats = NormStats(0.0, 4000.0)
    m.head.b = np.array([10.0, -10.0]) if stable else np.array([-10.0, 10.0])
    return m


def force_trace(samples, channel_id=0, freq_hz=16.7):
    return SensorTrace(
        samples=np.asarray(samples, dtype=float),
        freq_hz=freq_hz,
        channel_id=channel_id,
    )


def fake_events(latencies_us, step_channels=None):
    if step_channels is None:
        step_channels = [(i, 0) for i in range(len(latencies_us))]
    return [
        StepEvent(step=s, channel=c, probability=0.1, unstable=False, latency_us=l)
        for (s, c), l in zip(step_channels, latencies_us)
    ]


# -- streaming predictor -------------------------------------------------------


def test_predictor_requires_stats():
    m = models.GraspModel.build("B", models.TrainConfig(lstm_units=4))
    with pytest.raises(ValueError, match="missing normalization stats"):
        StreamingPredictor(m)


def test_predictor_reset_reproduces(rng, trained_c):
    pred = StreamingPredictor(trained_c)
    x = rng.uniform(500, 3000, size=80)
    first = [pred.push_frame([v]) for v in x]
    pred.reset()
    second = [pred.push_frame([v]) for v in x]
    np.testing.assert_array_equal(first, second)


@pytest.mark.parametrize("tag", ["A", "B", "C", "D"])
def test_streaming_matches_offline(tag, rng):
    cfg = models.TrainConfig(lstm_units=6, seed=4)
    m = models.GraspModel.build(tag, cfg)
    m.stats = NormStats(0.0, 3000.0)
    x = rng.uniform(0, 3000, size=200)
    offline = m.predict_samples(x).p_unstable
    pred = StreamingPredictor(m)
    online = np.concatenate([pred.push_frame([v])[0] for v in x])
    np.testing.assert_allclose(online, offline, atol=1e-12)


def test_push_frame_16_channels_matches_offline(rng):
    m = models.GraspModel.build("D", models.TrainConfig(lstm_units=6, seed=3))
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
        pred.push_frame([v])
    p, flag = pred.push_frame([bad])
    assert np.isnan(p).tolist() == [True] and flag.tolist() == [True]
    after = [pred.push_frame([v]) for v in x[20:]]
    fresh = StreamingPredictor(trained_c)
    np.testing.assert_array_equal(after, [fresh.push_frame([v]) for v in x[20:]])
    assert not any(np.isnan(q).any() for q, _ in after)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_push_frame_nonfinite_channel_leaves_others_alone(bad, rng, trained_c):
    x = rng.uniform(500, 3000, size=(4, 50))
    spoiled = x.copy()
    spoiled[2, 25] = bad
    spoiled[0, 35] = bad  # a second channel fails after channel 2 has restarted
    clean_pred = StreamingPredictor(trained_c, n_channels=4)
    pred = StreamingPredictor(trained_c, n_channels=4)
    clean = [clean_pred.push_frame(x[:, t]) for t in range(50)]
    out = [pred.push_frame(spoiled[:, t]) for t in range(50)]
    others = [1, 3]
    for (p_ref, f_ref), (p, f) in zip(clean, out):
        np.testing.assert_array_equal(p[others], p_ref[others])
        np.testing.assert_array_equal(f[others], f_ref[others])
    np.testing.assert_array_equal([p[0] for p, _ in out[:35]], [p[0] for p, _ in clean[:35]])
    for ch, step in [(2, 25), (0, 35)]:
        p_bad, f_bad = out[step]
        assert np.isnan(p_bad[ch]) and f_bad[ch]
        # The channel restarts at step + 1: it must score as a fresh predictor
        # of the same width fed from there. Same width, because BLAS does not
        # promise a row bit-identical results at batch sizes 4 and 1.
        restarted = StreamingPredictor(trained_c, n_channels=4)
        np.testing.assert_array_equal(
            [p[ch] for p, _ in out[step + 1 :]],
            [restarted.push_frame(x[:, t])[0][ch] for t in range(step + 1, 50)],
        )


@pytest.mark.parametrize("tag", ["A", "B", "C", "D"])
def test_push_frame_nan_probability_is_unstable(tag, rng):
    m = models.GraspModel.build(tag, models.TrainConfig(lstm_units=6, seed=4))
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


@pytest.mark.parametrize("seed", [5, 9, 13])
def test_replay_16_channels_equals_one_window_predict_samples_bit_for_bit(seed):
    """Whole column blocks give a trace the same bits in a 16-channel frame
    as in a one-window predict, so every event of seeded, untrained H = 128
    models A-D (as the benchmark's checkpoints) equals offline inference."""
    grasp = data.synth_force_dataset(1, seed=seed, n_steps=data.FORCE_MIN_STEPS)[0]
    for k, tag in enumerate("ABCD"):
        m = models.GraspModel.build(tag, models.TrainConfig(lstm_units=128), seed=seed * 4 + k)
        m.stats = NormStats(0.0, 4000.0)
        events = replay([grasp.channel(c) for c in range(16)], m, timing=False)
        for c in range(16):
            offline = m.predict_samples(grasp.channel(c).samples)
            assert [e.probability for e in events[c::16]] == offline.p_unstable.tolist(), (tag, c)
            assert [e.unstable for e in events[c::16]] == offline.unstable.tolist(), (tag, c)


# One child per kernel set: for variants A-D, two H = 128 models, one seeded
# and untrained as the benchmark's checkpoints and one with
# tests/golden/record.py's wide weights, replay C channels of one 242-step
# synthetic set (seed 5), C in {1, 3, 16}, and predict_batch the same C traces
# stacked, cut to 173 and all 242 steps. A replay is causal, so its first n
# frames are the replay of the traces cut to n steps. Prints the core name and
# every (variant, model, C, steps) whose probabilities or flags differ in any
# bit, with the counts that differ.
_ONLINE_OFFLINE = """
import json
import numpy as np
from graspslip import data, models, signal, stream
from graspslip.ioutil import openblas_core_name
from tests.golden import record

differ = []
sets = data.synth_force_dataset(3, seed=5, n_steps=data.FORCE_MIN_STEPS)
stats = signal.compute_norm_stats(g.samples for g in sets)
for k, tag in enumerate("ABCD"):
    for name, m in [
        ("seeded", models.GraspModel.build(tag, models.TrainConfig(lstm_units=128), seed=20 + k)),
        ("wide", record.golden_model(tag, 20 + k, hidden=128)),
    ]:
        m.stats = stats
        for n_channels, rec in zip((1, 3, 16), sets):
            traces = [rec.channel(c) for c in range(n_channels)]
            events = stream.replay(traces, m, timing=False)
            online = np.array([e.probability for e in events]).reshape(-1, n_channels).T
            flags = np.array([e.unstable for e in events]).reshape(-1, n_channels).T
            for n_steps in (173, data.FORCE_MIN_STEPS):
                samples = np.stack([t.samples[:n_steps] for t in traces])
                pred = m.predict_batch(m.featurize(samples))
                bits = int(np.sum(online[:, :n_steps].view(np.int64)
                                  != pred.p_unstable.view(np.int64)))
                flipped = int(np.sum(flags[:, :n_steps] != pred.unstable))
                if bits or flipped:
                    differ.append([tag, name, n_channels, n_steps, bits, flipped])
print(json.dumps({"core": openblas_core_name(), "differ": differ}))
"""


@pytest.mark.parametrize("coretype", [None, "Haswell", "Sandybridge"])
def test_replay_of_c_channels_equals_predict_batch_bit_for_bit(coretype):
    """A C-channel frame makes predict_batch's products for those C traces
    stacked: the same padded columns through the same cell and the same
    head, so every probability and flag is equal bit for bit at any step
    count, on every kernel set and under the caller's BLAS thread count."""
    result = run_on_kernel_set(_ONLINE_OFFLINE, coretype)
    assert result["differ"] == [], result["core"]


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
        onset = grasp.slip_onset
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
    # a frame takes one sample of every trace: no trace is cut to the shortest
    with pytest.raises(ValueError, match=r"length mismatch across traces: \[30, 50\]"):
        replay([force_trace(np.ones(50), 0), force_trace(np.ones(30), 1)], trained_c)
    with pytest.raises(ValueError, match="17 traces exceed the 16-sensor frame"):
        replay([force_trace(np.ones(10), ch) for ch in range(17)], trained_c)


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


def test_latency_report_percentiles_take_the_ceiling_rank():
    # n = 31: 0.95 * 31 = 29.45 and 0.5 * 31 = 15.5, so p95 is the 30th
    # smallest value and p50 the 16th; a floor rank would give the 29th and 15th.
    lat = [float(v) for v in range(31, 0, -1)]  # 31..1 us, largest first
    report = latency_report(fake_events(lat))
    for part in ("per_sensor_ms", "per_frame_ms"):  # one sensor: a frame is one event
        assert report[part]["p95"] == 30 / 1e3
        assert report[part]["p50"] == 16 / 1e3


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


@pytest.mark.parametrize("row, field", [
    ("0,0,0.5,7,1.0", "label"), ("0,0,0.5,-1,1.0", "label"),
    ("-1,0,0.5,1,1.0", "step"), ("0,-2,0.5,1,1.0", "channel"),
    ("0,0,0.5,1,-1.0", "latency_us"), ("0,0,0.5,1,nan", "latency_us"),
    ("0,0,0.5,1,inf", "latency_us"),
    ("0,0,1.5,1,1.0", "probability"), ("0,0,-0.1,1,1.0", "probability"),
    ("0,0,inf,1,1.0", "probability"), ("0,0,nan,0,0.000", "label"),
])
def test_event_log_refuses_a_value_the_writer_never_writes(tmp_path, row, field):
    # a label 7 used to read as unstable, and a nan latency gave latency_report a NaN p95
    path = tmp_path / "events.csv"
    path.write_text(f"step,channel,probability,label,latency_us\n0,0,0.25,0,3.5\n{row}\n")
    with pytest.raises(ValueError, match=rf"events\.csv:3: {field} out of range"):
        read_event_log(path)


def test_event_log_reads_nan_probability_and_zero_latency(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("step,channel,probability,label,latency_us\n0,0,nan,1,0.000\n2,1,1,0,0\n")
    first, second = read_event_log(path)
    assert np.isnan(first.probability) and first.unstable and first.latency_us == 0.0
    assert (second.step, second.channel, second.probability, second.unstable) == (2, 1, 1.0, False)


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
