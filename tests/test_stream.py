import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graspslip import data, models, stream
from graspslip.signal import NormStats, SensorTrace
from graspslip.stream import (
    StepEvent,
    StreamingPredictor,
    grip_controller,
    latency_report,
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


def force_trace(samples, freq_hz=16.7):
    return SensorTrace(samples=np.asarray(samples, dtype=float), freq_hz=freq_hz)


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
    traces = [force_trace(np.full(20, 1000.0 + 50 * c)) for c in range(4)]
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


def test_replay_numbers_channels_by_frame_position(trained_c, synth_split):
    # channel c is traces[c], whichever recording channel it came from, so the
    # log keeps its (step, channel) order (ids 5, 2 used to be logged as 5, 2)
    _, test_sets = synth_split
    traces = [test_sets[0].channel(5), test_sets[0].channel(2)]
    events = replay(traces, trained_c, timing=False)
    assert [(e.step, e.channel) for e in events[:4]] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert [(e.step, e.channel) for e in events] == sorted((e.step, e.channel) for e in events)
    for c, trace in enumerate(traces):
        solo = replay(trace, trained_c, timing=False)
        assert [e.probability for e in events if e.channel == c] == [e.probability for e in solo]
        assert {e.channel for e in solo} == {0}
    twice = replay([traces[0], traces[0]], trained_c, timing=False)
    assert [(e.step, e.channel) for e in twice[:4]] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_replay_validation(trained_c):
    with pytest.raises(ValueError, match="empty input: no traces"):
        replay([], trained_c)
    a = force_trace(np.ones(10), freq_hz=16.7)
    b = force_trace(np.ones(10), freq_hz=71.0)
    with pytest.raises(ValueError, match="frequency mismatch"):
        replay([a, b], trained_c)
    # a frame takes one sample of every trace: no trace is cut to the shortest
    with pytest.raises(ValueError, match=r"length mismatch across traces: \[30, 50\]"):
        replay([force_trace(np.ones(50)), force_trace(np.ones(30))], trained_c)
    with pytest.raises(ValueError, match=r"n_channels must be a 64-bit integer in 1\.\.16, got 17"):
        replay([force_trace(np.ones(10))] * 17, trained_c)


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


@given(lat=st.lists(st.sampled_from([0.0, 1.0, 2.5, 4000.0]) | st.floats(0.0, 1e5),
                   min_size=1, max_size=300),
       width=st.integers(1, 16))
@settings(derandomize=True, max_examples=200, deadline=None)
def test_latency_report_percentiles_are_the_nearest_rank(lat, width):
    """Ties included, each p50 and p95 is the oracle's ceil(p/100 * n)-th smallest value."""
    assert_nearest_rank_percentiles(fake_events(lat, [(i // width, i % width) for i in range(len(lat))]))


def test_latency_report_of_a_timed_replay_is_the_nearest_rank(trained_c, synth_split):
    _, test_sets = synth_split
    assert_nearest_rank_percentiles(
        replay([test_sets[0].channel(c) for c in range(3)], trained_c, timing=True))


def assert_nearest_rank_percentiles(events):
    report = latency_report(events)
    frames = {}  # summed in log order, as latency_report sums them
    for e in events:
        frames[e.step] = frames.get(e.step, 0.0) + e.latency_us / 1e3
    for p in (50, 95):
        assert report["per_sensor_ms"][f"p{p}"] == oracles.nearest_rank(
            [e.latency_us / 1e3 for e in events], p)
        assert report["per_frame_ms"][f"p{p}"] == oracles.nearest_rank(list(frames.values()), p)


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


# -- log files ----------------------------------------------------------------------------


def test_event_log_is_plain_csv_that_round_trips(tmp_path, trained_c, synth_split):
    # no reader ships with the package: the standard csv module gives back
    # every field, a NaN probability and %.17g probabilities exactly
    _, test_sets = synth_split
    events = replay(test_sets[0].channel(0), trained_c, timing=False)
    events.append(StepEvent(len(events), 0, float("nan"), True, 12.5))
    path = tmp_path / "events.csv"
    write_event_log(events, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["step", "channel", "probability", "label", "latency_us"]
    assert len(rows) == len(events)
    for e, row in zip(events, rows):
        assert (int(row["step"]), int(row["channel"]), row["label"]) == (e.step, e.channel,
                                                                           str(int(e.unstable)))
        assert float(row["latency_us"]) == e.latency_us
        p = float(row["probability"])
        assert p == e.probability or (np.isnan(p) and np.isnan(e.probability))


def test_write_trajectory(tmp_path):
    state = grip_controller(edge_events(3))
    path = tmp_path / "traj.csv"
    write_trajectory(state, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,pj_ma,mj_ma"
    assert lines[1] == "0,55,35"
    assert lines[3] == "4,65,55"
