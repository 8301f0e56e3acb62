import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graspslip import data
from graspslip.data import (
    LabeledWindow,
    Recording,
    SynthParams,
    convert_csv,
    detect_drop,
    label_slip,
    load_force_dataset,
    read_recording,
    save_force_dataset,
    split,
    synth_force_dataset,
    synth_grasp,
    synth_pressure_run,
    window_batches,
    write_recording,
)
from graspslip.signal import SensorTrace, band_magnitudes, normalize_array, compute_norm_stats
from tests import oracles


def force_trace(samples, channel_id=0):
    return SensorTrace(
        samples=np.asarray(samples, dtype=float),
        freq_hz=16.7,
        channel_id=channel_id,
        meta={"source": "force"},
    )


def make_set(n_steps=400, outcome="success", samples=None, **kw):
    samples = np.full((n_steps, 16), 1000.0) if samples is None else samples
    return Recording(samples=samples, freq_hz=16.7,
                     outcome=outcome, object_id=0, direction="back", **kw)


def pressure_run(samples=None, initial=(6458.0, 6263.0, 6357.0, 6458.0)):
    samples = np.full((10, 4), 20000.0) if samples is None else samples
    return Recording(samples=samples, freq_hz=71.0, kind="pressure", initial=initial)


# -- Recording validation --------------------------------------------------


def test_grasp_set_requires_16_channels():
    with pytest.raises(ValueError, match=r"expected 16 channels, got shape \(10, 4\)"):
        Recording(np.ones((10, 4)), 16.7, outcome="success", direction="back")
    with pytest.raises(ValueError, match=r"expected 16 channels, got shape \(160,\)"):
        Recording(np.ones(160), 16.7, outcome="success", direction="back")


def test_grasp_set_rejects_ragged_channels():
    rows = [[1.0] * 16] * 9 + [[1.0] * 15]
    with pytest.raises(ValueError):
        Recording(rows, 16.7, outcome="success", direction="back")


def test_grasp_set_validates_outcome_and_direction():
    with pytest.raises(ValueError, match="outcome must be"):
        make_set(outcome="meh")
    with pytest.raises(ValueError, match="direction must be one of"):
        Recording(np.ones((10, 16)), 16.7, outcome="success", object_id=0, direction="up")


def test_recording_rejects_bad_kind_values_and_rate():
    with pytest.raises(ValueError, match="kind must be one of"):
        Recording(np.ones((10, 16)), 16.7, kind="torque")
    with pytest.raises(ValueError, match="empty input"):
        make_set(n_steps=0)
    bad = np.ones((10, 16))
    bad[3, 5] = np.inf
    with pytest.raises(ValueError, match="non-finite sample value"):
        Recording(bad, 16.7, outcome="success", direction="back")
    with pytest.raises(ValueError, match="freq_hz must be finite"):
        Recording(np.ones((10, 16)), float("nan"), outcome="success", direction="back")


def test_grasp_set_matrix_shape():
    s = make_set(n_steps=50)
    assert s.as_matrix().shape == (50, 16)
    assert s.n_steps == 50
    assert s.freq_hz == 16.7


@pytest.mark.parametrize("make", [
    lambda: make_set(n_steps=50),
    lambda: synth_grasp(3),
    lambda: synth_pressure_run(1, n_steps=100),
], ids=["constructed", "synthetic", "pressure"])
def test_recording_channels_are_read_only_views_of_one_matrix(make):
    rec = make()
    matrix = rec.as_matrix()
    assert matrix is rec.as_matrix()
    for i in range(rec.n_channels):
        ch = rec.channel(i)
        assert np.shares_memory(ch.samples, matrix)
        np.testing.assert_array_equal(ch.samples, matrix[:, i])
        assert ch.channel_id == i and ch.freq_hz == rec.freq_hz
        assert ch.meta == {"source": rec.kind}
        with pytest.raises(ValueError, match="read-only"):
            ch.samples[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        matrix[0, 0] = 1.0


def test_recording_copies_a_matrix_the_caller_can_still_write():
    samples = np.full((20, 16), 1000.0)
    rec = Recording(samples, 16.7, outcome="success", direction="back")
    samples[0, 0] = 0.0
    assert rec.as_matrix()[0, 0] == 1000.0


def test_recording_channel_index_out_of_range():
    rec = make_set(n_steps=20)
    for idx in (16, -1):
        with pytest.raises(ValueError, match=r"channel .* out of range \(0\.\.15\)"):
            rec.channel(idx)


def test_pressure_recording_checks_channels_initial_and_range():
    assert pressure_run().initial == (6458.0, 6263.0, 6357.0, 6458.0)
    with pytest.raises(ValueError, match=r"expected 4 channels, got shape \(10, 16\)"):
        pressure_run(np.full((10, 16), 20000.0))
    with pytest.raises(ValueError, match="one initial value required per channel"):
        pressure_run(initial=(1.0, 2.0, 3.0))
    with pytest.raises(ValueError, match="one initial value required per channel"):
        pressure_run(initial=None)
    for bad in (-1.0, 65536.0):
        samples = np.full((10, 4), 20000.0)
        samples[7, 2] = bad
        with pytest.raises(ValueError, match=r"pressure sample outside \[0, 65535\]"):
            pressure_run(samples)
    pressure_run(np.array([[0.0, 65535.0, 1.0, 2.0]]))


# -- drop detection ----------------------------------------------------------


def test_detect_drop_basic():
    x = np.concatenate([np.zeros(5), np.full(20, 1500.0), np.zeros(10)])
    assert detect_drop(x) == 25


def test_detect_drop_ignores_unarmed_lead_in():
    # the empty-hand zeros before lift must not read as a drop
    x = np.concatenate([np.zeros(30), np.full(50, 900.0), np.zeros(5)])
    assert detect_drop(x) == 80


def test_detect_drop_requires_sustained_low():
    x = np.full(40, 800.0)
    x[10:12] = 0.0  # two-step dip recovers: not a drop
    assert detect_drop(x) is None
    x[30:33] = 0.0
    assert detect_drop(x) == 30


def test_detect_drop_never_armed():
    assert detect_drop(np.full(50, 100.0)) is None
    assert detect_drop(np.zeros(50)) is None


def test_detect_drop_accepts_trace_objects():
    t = force_trace(np.concatenate([np.full(30, 1000.0), np.zeros(8)]))
    assert detect_drop(t) == 30


@given(st.integers(min_value=5, max_value=60), st.integers(min_value=10, max_value=50))
@settings(max_examples=30)
def test_detect_drop_matches_scan_oracle(hold, tail):
    rng = np.random.default_rng(hold * 100 + tail)
    x = np.concatenate(
        [
            rng.uniform(0, 300, size=10),
            rng.uniform(200, 2000, size=hold),
            rng.uniform(0, 80, size=tail),
        ]
    )
    assert detect_drop(x) == oracles.scan_drop(x, 50.0, 200.0, 3)


# -- labeling -------------------------------------------------------------------


def test_label_slip_marks_20_steps_before_drop():
    labels = label_slip(np.zeros(160), drop_step=100)
    assert labels[:80].all()
    assert not labels[80:].any()


def test_label_slip_clamps_at_zero():
    labels = label_slip(np.zeros(50), drop_step=5)
    assert not labels.any()


def test_label_slip_no_drop_all_stable():
    assert label_slip(np.zeros(50), drop_step=None).all()


def test_label_slip_range_check():
    with pytest.raises(ValueError, match="drop_step out of range"):
        label_slip(np.zeros(50), drop_step=50)


# -- LabeledWindow ---------------------------------------------------------------


def test_labeled_window_validation():
    with pytest.raises(ValueError, match="empty input"):
        LabeledWindow(samples=np.zeros(0), labels=np.zeros(0, dtype=bool))
    with pytest.raises(ValueError, match="length mismatch"):
        LabeledWindow(samples=np.zeros(5), labels=np.zeros(4, dtype=bool))


def test_labeled_window_arrays_read_only():
    w = LabeledWindow(samples=np.zeros(5), labels=np.ones(5, dtype=bool))
    with pytest.raises(ValueError):
        w.samples[0] = 1.0
    assert w.start == 0


def test_labeled_window_leaves_the_callers_arrays_writable():
    samples, labels = np.zeros(5), np.ones(5, dtype=bool)
    w = LabeledWindow(samples=samples, labels=labels)
    assert samples.flags.writeable and labels.flags.writeable
    samples[0], labels[0] = 1.0, False
    assert w.samples[0] == 0.0 and w.labels[0]


# -- windowing ---------------------------------------------------------------------


def test_window_counts():
    assert len(window_batches(make_set(400), 160)) == 2
    assert len(window_batches(make_set(50560), 160)) == 316


def test_window_remainder_dropped():
    samples = np.full((330, 16), 1000.0)
    samples[:, 0] = np.arange(330)
    wins = window_batches(make_set(330, samples=samples), 160)
    assert len(wins) == 2
    np.testing.assert_array_equal(wins[1].samples, np.arange(160.0, 320.0))


def test_window_too_short():
    with pytest.raises(ValueError, match="trace shorter than window: 100 < 160"):
        window_batches(make_set(100), 160)
    with pytest.raises(ValueError, match="window_len must be >= 1"):
        window_batches(make_set(100), 0)


def test_window_slices_match_source():
    grasp = synth_force_dataset(2, seed=11, failure_fraction=1.0)[0]
    x = grasp.channel(3).samples
    labels = label_slip(x, detect_drop(x))
    wins = window_batches(grasp, 160, channel=3)
    for i, w in enumerate(wins):
        np.testing.assert_array_equal(w.samples, x[i * 160 : (i + 1) * 160])
        np.testing.assert_array_equal(w.labels, labels[i * 160 : (i + 1) * 160])
        assert w.start == i * 160
        assert np.shares_memory(w.samples, grasp.as_matrix())
        with pytest.raises(ValueError, match="read-only"):
            w.labels[0] = False


def test_window_drop_step_is_window_relative():
    samples = np.full((480, 16), 1000.0)
    samples[250:, 0] = 0.0
    grasp = make_set(480, outcome="failure", samples=samples)
    wins = window_batches(grasp, 160)
    assert data.drop_step(grasp) - wins[1].start == 90  # 250 - 160
    # window 1: unstable from 230 onward, i.e. local step 70
    assert wins[0].labels.all()
    assert wins[1].labels[:70].all() and not wins[1].labels[70:].any()
    assert not wins[2].labels.any()


def test_window_batches_detect_mode():
    sets = synth_force_dataset(2, seed=11, failure_fraction=1.0)
    grasp = sets[0]
    wins = window_batches(grasp, window_len=160, channel=0, labels="detect")
    assert len(wins) == grasp.n_steps // 160
    drop = detect_drop(grasp.channel(0))
    expected = label_slip(grasp.channel(0), drop)
    got = np.concatenate([w.labels for w in wins])
    np.testing.assert_array_equal(got, expected[: len(got)])


def test_window_batches_truth_mode():
    sets = synth_force_dataset(2, seed=12, failure_fraction=1.0)
    grasp = sets[0]
    onset = grasp.meta["slip_onset"]
    wins = window_batches(grasp, window_len=160, channel=0, labels="truth")
    flat = np.concatenate([w.labels for w in wins])
    assert flat[:onset].all()
    assert not flat[onset:].any()
    assert all(w.labels.all() for w in window_batches(make_set(), labels="truth"))


def test_window_batches_truth_needs_onset():
    grasp = make_set(outcome="failure")  # no slip_onset in meta
    with pytest.raises(ValueError, match="truth labels need slip_onset"):
        window_batches(grasp, labels="truth")


def test_window_batches_rejects_bad_mode():
    with pytest.raises(ValueError, match="labels must be detect|truth"):
        window_batches(make_set(), labels="guess")


def test_drop_step_prefers_recorded_truth_else_detects_on_the_channel():
    samples = np.full((300, 16), 1000.0)
    samples[200:, 2] = 0.0
    samples[120:, 5] = 0.0
    grasp = make_set(300, outcome="failure", samples=samples)
    assert data.drop_step(grasp) is None
    assert data.drop_step(grasp, channel=2) == 200
    assert data.drop_step(grasp, channel=5) == 120
    truth = make_set(300, outcome="failure", samples=samples, meta={"drop_step": 260})
    assert data.drop_step(truth, channel=2) == 260
    synth = synth_grasp(3, SynthParams(slip_onset=200, drop_step=280))
    assert data.drop_step(synth) == 280


# -- splitting -----------------------------------------------------------------------


def test_split_ratio_and_partition():
    sets = synth_force_dataset(10, seed=1)
    train, test = split(sets, ratio=0.8, seed=0)
    assert len(train) == 8 and len(test) == 2
    ids = lambda xs: {s.set_id for s in xs}
    assert ids(train) | ids(test) == ids(sets)
    assert ids(train) & ids(test) == set()


def test_split_deterministic():
    sets = synth_force_dataset(10, seed=1)
    t1, e1 = split(sets, ratio=0.7, seed=5)
    t2, e2 = split(sets, ratio=0.7, seed=5)
    assert [s.set_id for s in t1] == [s.set_id for s in t2]
    assert [s.set_id for s in e1] == [s.set_id for s in e2]
    t3, _ = split(sets, ratio=0.7, seed=6)
    assert [s.set_id for s in t1] != [s.set_id for s in t3]


def test_split_stratifies_outcomes():
    sets = synth_force_dataset(20, seed=2, failure_fraction=0.5)
    train, test = split(sets, ratio=0.8, seed=0)
    assert sum(s.outcome == "failure" for s in train) == 8
    assert sum(s.outcome == "failure" for s in test) == 2


def test_split_validation():
    sets = synth_force_dataset(4, seed=3)
    with pytest.raises(ValueError, match="ratio must be in"):
        split(sets, ratio=1.0)
    with pytest.raises(ValueError, match="need at least 2 sets"):
        split(sets[:1])


def test_split_never_leaves_a_side_empty():
    sets = synth_force_dataset(2, seed=4)
    train, test = split(sets, ratio=0.9, seed=0)
    assert len(train) == 1 and len(test) == 1


# -- synthesis ------------------------------------------------------------------------


def test_synth_grasp_deterministic():
    a = synth_grasp(42)
    b = synth_grasp(42)
    np.testing.assert_array_equal(a.as_matrix(), b.as_matrix())
    assert a.set_id == "synth-000042"
    c = synth_grasp(43)
    assert not np.array_equal(a.as_matrix(), c.as_matrix())


def test_synth_grasp_channel0_unit_gain():
    g = synth_grasp(7, SynthParams(grasp_force=2000.0, slip_onset=None, drop_step=None))
    plateau = g.channel(0).samples[60:]
    assert abs(plateau.mean() - 2000.0) < 5.0


def test_synth_success_set_holds():
    g = synth_grasp(9, SynthParams(slip_onset=None, drop_step=None))
    assert g.outcome == "success"
    assert "slip_onset" not in g.meta
    for ch in range(16):
        assert detect_drop(g.channel(ch)) is None


def test_synth_failure_set_drops_where_declared():
    p = SynthParams(slip_onset=200, drop_step=260)
    g = synth_grasp(5, p)
    assert g.outcome == "failure"
    assert g.meta["slip_onset"] == 200 and g.meta["drop_step"] == 260
    for ch in range(16):
        d = detect_drop(g.channel(ch))
        assert d is not None
        assert 260 <= d <= 260 + p.decay_steps + 1


def test_synth_vibration_lands_in_band():
    # 4 Hz on a 16.7 Hz clock: window energy concentrates near band
    # k = 4/16.7*20 ~ 4.8; compare against the pre-onset plateau.
    g = synth_grasp(3, SynthParams(slip_onset=200, drop_step=280, slip_amplitude=0.2))
    x = g.channel(0).samples
    stats = compute_norm_stats([x])
    bands = band_magnitudes(np.array(oracles.causal_frames(normalize_array(x, stats), 20)), 10)
    quiet = bands[100:190].sum(axis=1).mean()
    vibrating = bands[230:270].sum(axis=1).mean()
    assert vibrating > 5 * quiet
    peak = bands[230:270].mean(axis=0).argmax()
    assert peak in (3, 4)  # band index for bins 4..5


def test_synth_params_validation():
    with pytest.raises(ValueError, match="slip_onset given without drop_step"):
        SynthParams(slip_onset=100, drop_step=None)
    with pytest.raises(ValueError, match="0 < slip_onset < drop_step"):
        SynthParams(slip_onset=300, drop_step=260)
    with pytest.raises(ValueError, match="slip_band_hz"):
        SynthParams(slip_band_hz=7.0)
    with pytest.raises(ValueError, match="ramp_steps < drop_step"):
        SynthParams(slip_onset=10, drop_step=30, ramp_steps=40)
    with pytest.raises(ValueError, match="noise_sd"):
        SynthParams(noise_sd=-1.0)


def test_synth_dataset_balance_and_ranges():
    sets = synth_force_dataset(6, seed=0, failure_fraction=0.5)
    assert [s.outcome for s in sets] == ["failure"] * 3 + ["success"] * 3
    for s in sets[:3]:
        onset, drop = s.meta["slip_onset"], s.meta["drop_step"]
        assert 180 <= onset <= 240
        assert 50 <= drop - onset <= 90
    with pytest.raises(ValueError, match="n_sets must be >= 1"):
        synth_force_dataset(0)


def test_synth_dataset_deterministic():
    a = synth_force_dataset(4, seed=9)
    b = synth_force_dataset(4, seed=9)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.as_matrix(), y.as_matrix())


def test_synth_samples_are_integers_in_range():
    g = synth_grasp(1)
    m = g.as_matrix()
    np.testing.assert_array_equal(m, np.rint(m))
    assert m.min() >= 0 and m.max() <= 10000


def synth_digest(sets) -> str:
    """sha256 over each set's sample bytes and every field the generator sets."""
    h = hashlib.sha256()
    for g in sets:
        h.update(g.as_matrix().tobytes())
        h.update(json.dumps(
            [g.outcome, g.object_id, g.direction, g.weight, g.force_level, g.set_id,
             g.freq_hz, [g.channel(i).channel_id for i in range(16)],
             [g.channel(i).meta for i in range(16)], g.meta],
            sort_keys=True).encode())
    return h.hexdigest()


# Recorded with the per-channel generator that the whole-matrix
# ``_synth_channels`` replaced (one ``_synth_channel`` call and one noise
# draw per channel). The digests cover the samples' bytes, so a -0.0 or a
# changed random draw shows, and the provenance fields drawn after the
# noise, so a changed draw count shows too.
SYNTH_DATASET_DIGESTS = {
    0: "bcfb289264af3197670ecddfb0d2fcd9f49fef739b2b6d83fb7c1d3aab3e261f",
    11: "1bc4de27a90da966f50719b950d6f4cc3417ab896de217f2e41f3734dc375687",
    40: "f7d486c1f428172dc63805ff3029e34a95bc6fa9dea3d5ccbe5b31b266aa5598",
}
SYNTH_GRASP_DIGESTS = {
    "noiseless": (
        SynthParams(noise_sd=0.0),
        "6667d4315aa0c7b0ac8817cb257a0dce30bba51e71aaae20137a47881d65da52",
    ),
    "success": (
        SynthParams(slip_onset=None, drop_step=None),
        "de1eb543093efe1f107d34c774a58fbd8ffd97ae83335578cdbc356f9f7ae091",
    ),
    "decay-past-end": (
        SynthParams(n_steps=100, ramp_steps=10, slip_onset=60, drop_step=95, decay_steps=10),
        "137d708794958b73733ba30008f81814fd8b031381decbdb67975500e7c8b94e",
    ),
    "ramp-past-end": (
        SynthParams(n_steps=20, slip_onset=None, drop_step=None),
        "394e2eb3d2fa16db53470df9972a010d1cf1f41fa1ee234bf33266816f7ebf2a",
    ),
}


@pytest.mark.parametrize("seed", sorted(SYNTH_DATASET_DIGESTS))
def test_synth_dataset_matches_recorded_digest(seed):
    assert synth_digest(synth_force_dataset(6, seed=seed)) == SYNTH_DATASET_DIGESTS[seed]


@pytest.mark.parametrize("case", sorted(SYNTH_GRASP_DIGESTS))
def test_synth_grasp_edge_params_match_recorded_digest(case):
    params, digest = SYNTH_GRASP_DIGESTS[case]
    assert synth_digest([synth_grasp(seed, params) for seed in (3, 4)]) == digest


# -- pressure -------------------------------------------------------------------------


def pressure_drop(rec, ch):
    """detect_drop with pressure thresholds: armed 400 counts above the
    channel's zero-position count, dropped at 200 above it."""
    level = rec.initial[ch] + 200.0
    return detect_drop(rec.channel(ch), eps_drop=level, arm_level=level + 200.0)


def test_synth_pressure_run_shape_and_detection():
    run = synth_pressure_run(0, n_steps=800, drop_step=500)
    assert run.kind == "pressure"
    assert run.n_steps == 800
    assert run.freq_hz == 71.0
    for ch in range(4):
        d = pressure_drop(run, ch)
        assert d is not None and abs(d - 500) <= 2
    steady = synth_pressure_run(0, n_steps=800, drop_step=None)
    for ch in range(4):
        assert pressure_drop(steady, ch) is None
    with pytest.raises(ValueError, match="require rise < drop_step < n_steps"):
        synth_pressure_run(0, n_steps=800, drop_step=800)


def test_pressure_file_round_trip(tmp_path):
    run = synth_pressure_run(4, n_steps=300, drop_step=200)
    path = tmp_path / "run.txt"
    write_recording(run, path)
    again = read_recording(path)
    assert again.kind == "pressure"
    assert again.initial == run.initial
    assert again.freq_hz == run.freq_hz
    assert again.set_id == "run"
    np.testing.assert_array_equal(again.as_matrix(), run.as_matrix())


def test_trace_writers_bytes_unchanged(tmp_path):
    """Digests of files written by the earlier per-element str() writer."""
    write_recording(synth_force_dataset(2, seed=11)[1], tmp_path / "g.txt")
    write_recording(synth_pressure_run(seed=5), tmp_path / "p.txt")
    digest = {n: hashlib.sha256((tmp_path / n).read_bytes()).hexdigest() for n in ("g.txt", "p.txt")}
    assert digest == {
        "g.txt": "b0e8f2185f6f41ab35907afe8943666df883e3e1113692abf3998dc41d15a8fb",
        "p.txt": "5051f590c4f4ff397ba20a319953bcbbcbfecdabf8b4d2e7ccc3b5ae903cd77b",
    }


def test_read_pressure_rejects_force_file(tmp_path):
    g = synth_grasp(0, SynthParams(n_steps=60, slip_onset=None, drop_step=None))
    path = tmp_path / "f.txt"
    write_recording(g, path)
    ln = _with_header_value(path, "kind", "pressure")
    with pytest.raises(ValueError, match=rf"f\.txt:{ln + 2}: channels must be 4, got '16'"):
        read_recording(path)


def test_load_force_dataset_rejects_pressure_file(tmp_path):
    path = tmp_path / "p.txt"
    write_recording(synth_pressure_run(0, n_steps=100), path)
    with pytest.raises(ValueError, match=r"p\.txt: not a force trace file \(kind 'pressure'\)"):
        load_force_dataset(path)


@pytest.mark.parametrize("freq", ["inf", "nan", "-inf", "1e400"])
def test_read_rejects_nonfinite_freq(tmp_path, freq):
    g = synth_grasp(0, SynthParams(n_steps=60, slip_onset=None, drop_step=None))
    write_recording(g, tmp_path / "g.txt")
    write_recording(synth_pressure_run(0, n_steps=100), tmp_path / "p.txt")
    for name, rate in (("g.txt", "16.7"), ("p.txt", "71")):
        path = tmp_path / name
        path.write_text(path.read_text().replace(f"\nfreq_hz {rate}\n", f"\nfreq_hz {freq}\n", 1))
        with pytest.raises(ValueError, match="freq_hz must be finite"):
            read_recording(path)


def _with_header_value(path, key, value):
    """Rewrite header ``key`` of a trace file to ``value``; return its line number."""
    lines = path.read_text().splitlines()
    ln = next(i for i, line in enumerate(lines[: lines.index("data")], start=1)
              if line.split()[0] == key)
    lines[ln - 1] = f"{key} {value}"
    path.write_text("\n".join(lines) + "\n")
    return ln


@pytest.mark.parametrize("key, value", [
    ("freq_hz", "abc"), ("object", "x"), ("freq_hz", "inf"), ("channels", "15"),
    ("channels", "x"), ("outcome", "maybe"), ("direction", "up"), ("slip_onset", "1.5"),
    ("kind", "torque"),
])
def test_read_grasp_set_names_line_of_bad_header_value(tmp_path, key, value):
    path = tmp_path / "g.txt"
    write_recording(synth_grasp(21, SynthParams(slip_onset=200, drop_step=260)), path)
    ln = _with_header_value(path, key, value)
    with pytest.raises(ValueError, match=rf"g\.txt:{ln}: {key} must be .*, got '{value}'"):
        read_recording(path)


@pytest.mark.parametrize("key, value", [
    ("freq_hz", "abc"), ("freq_hz", "inf"), ("channels", "16"), ("initial", "1 2 x 4"),
    ("initial", "1 2 3"),
])
def test_read_pressure_run_names_line_of_bad_header_value(tmp_path, key, value):
    path = tmp_path / "p.txt"
    write_recording(synth_pressure_run(0, n_steps=100), path)
    ln = _with_header_value(path, key, value)
    with pytest.raises(ValueError, match=rf"p\.txt:{ln}: {key} must be .*, got '{value}'"):
        read_recording(path)


# -- trace files ------------------------------------------------------------------------


def test_grasp_file_round_trip(tmp_path):
    g = synth_grasp(21, SynthParams(slip_onset=200, drop_step=260))
    path = tmp_path / "g.txt"
    write_recording(g, path)
    again = read_recording(path)
    np.testing.assert_array_equal(again.as_matrix(), g.as_matrix())
    assert again.outcome == g.outcome
    assert again.direction == g.direction
    assert again.object_id == g.object_id
    assert again.meta["slip_onset"] == 200
    assert again.meta["drop_step"] == 260
    assert again.freq_hz == g.freq_hz
    assert again.set_id == "g"


def test_grasp_file_matches_independent_parser(tmp_path):
    g = synth_grasp(22)
    path = tmp_path / "g.txt"
    write_recording(g, path)
    rows = oracles.parse_trace_matrix(path.read_text())
    np.testing.assert_array_equal(np.asarray(rows, dtype=float), g.as_matrix())


def test_read_rejects_foreign_file(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("hello world\n1 2 3\n")
    with pytest.raises(ValueError, match="not a graspslip-trace v1 file"):
        read_recording(path)


def test_read_reports_malformed_header_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("graspslip-trace v1\nkind\ndata\n1\n")
    with pytest.raises(ValueError, match=r"bad\.txt:2: malformed header line"):
        read_recording(path)


def test_read_requires_data_section(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("graspslip-trace v1\nkind force\n")
    with pytest.raises(ValueError, match="missing 'data' section"):
        read_recording(path)


def test_read_reports_bad_row_width(tmp_path):
    g = synth_grasp(1, SynthParams(n_steps=50, slip_onset=None, drop_step=None))
    path = tmp_path / "g.txt"
    write_recording(g, path)
    lines = path.read_text().splitlines()
    body = lines.index("data") + 1
    lines[body + 2] = "1 2 3"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"g\.txt:{body + 3}: expected 16 channels, got 3"):
        read_recording(path)


def test_read_reports_non_numeric(tmp_path):
    g = synth_grasp(1, SynthParams(n_steps=50, slip_onset=None, drop_step=None))
    path = tmp_path / "g.txt"
    write_recording(g, path)
    text = path.read_text().replace("\ndata\n", "\ndata\n" + "x " * 15 + "x\n", 1)
    path.write_text(text)
    with pytest.raises(ValueError, match="non-numeric value"):
        read_recording(path)


def test_read_rejects_empty_body(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(
        "graspslip-trace v1\nkind force\nfreq_hz 16.7\nchannels 16\n"
        "outcome success\ndirection back\nobject 0\ndata\n"
    )
    with pytest.raises(ValueError, match="empty input"):
        read_recording(path)


# -- dataset directories -----------------------------------------------------------------


def test_save_and_load_dataset_round_trip(tmp_path):
    sets = synth_force_dataset(4, seed=13)
    out = tmp_path / "ds"
    manifest_path = save_force_dataset(sets, out)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["n_sets"] == 4
    assert len(manifest["files"]) == 4
    assert manifest["outcomes"] == {"failure": 2, "success": 2}
    again = load_force_dataset(out)
    assert len(again) == 4
    for a, b in zip(sets, again):
        np.testing.assert_array_equal(a.as_matrix(), b.as_matrix())
        assert a.outcome == b.outcome
    assert manifest_path == str(out / "manifest.json")


def test_empty_dataset_is_manifest_only(tmp_path):
    out = tmp_path / "empty"
    save_force_dataset([], out)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["n_sets"] == 0
    assert manifest["files"] == []
    assert manifest["freq_hz"] is None
    assert load_force_dataset(out) == []


def test_load_dataset_single_file(tmp_path):
    g = synth_grasp(2)
    path = tmp_path / "one.txt"
    write_recording(g, path)
    got = load_force_dataset(path)
    assert len(got) == 1
    np.testing.assert_array_equal(got[0].as_matrix(), g.as_matrix())


def test_load_dataset_missing_path(tmp_path):
    with pytest.raises(ValueError, match="no such dataset"):
        load_force_dataset(tmp_path / "nope")
    bare = tmp_path / "bare"
    bare.mkdir()
    with pytest.raises(ValueError, match="empty input"):
        load_force_dataset(bare)


# -- csv conversion ------------------------------------------------------------------------


def test_convert_csv_with_header_row(tmp_path):
    rng = np.random.default_rng(0)
    matrix = rng.integers(0, 3000, size=(50, 16))
    src = tmp_path / "raw.csv"
    header = ",".join(f"ch{i}" for i in range(16))
    body = "\n".join(",".join(str(v) for v in row) for row in matrix)
    src.write_text(header + "\n" + body + "\n")
    dst = tmp_path / "out.txt"
    g = convert_csv(src, dst, outcome="success", direction="top")
    np.testing.assert_array_equal(g.as_matrix(), matrix)
    again = read_recording(dst)
    np.testing.assert_array_equal(again.as_matrix(), matrix)
    assert again.direction == "top"


def test_convert_csv_without_header(tmp_path):
    matrix = np.arange(32).reshape(2, 16)
    src = tmp_path / "raw.csv"
    src.write_text("\n".join(",".join(str(v) for v in row) for row in matrix) + "\n")
    g = convert_csv(src, tmp_path / "out.txt")
    np.testing.assert_array_equal(g.as_matrix(), matrix)


def test_convert_csv_returns_the_rounded_samples_it_writes(tmp_path):
    src = tmp_path / "raw.csv"
    src.write_text("\n".join([",".join(["1000.5"] * 16)] * 3) + "\n")
    g = convert_csv(src, tmp_path / "out.txt")
    np.testing.assert_array_equal(g.as_matrix(), np.full((3, 16), 1000.0))
    np.testing.assert_array_equal(read_recording(tmp_path / "out.txt").as_matrix(), g.as_matrix())


def test_convert_csv_names_bad_line(tmp_path):
    src = tmp_path / "raw.csv"
    src.write_text(",".join(f"ch{i}" for i in range(16)) + "\n" + ",".join(["1"] * 15 + ["x"]) + "\n")
    with pytest.raises(ValueError, match=r"raw\.csv:2: non-numeric value"):
        convert_csv(src, tmp_path / "out.txt")


def test_convert_csv_bad_width(tmp_path):
    src = tmp_path / "raw.csv"
    src.write_text("1,2,3\n")
    with pytest.raises(ValueError, match="expected 16 channels, got 3"):
        convert_csv(src, tmp_path / "out.txt")


def test_convert_csv_rejects_sample_too_large_for_int64(tmp_path):
    # np.rint(1e20).astype(np.int64) wraps to -2**63 with only a warning.
    src = tmp_path / "raw.csv"
    src.write_text(",".join(["1e20"] * 16) + "\n" + ",".join(["5"] * 16) + "\n")
    dst = tmp_path / "out.txt"
    with pytest.raises(ValueError, match=r"sample 1e\+20 at step 0, channel 0 does not fit a 64-bit integer"):
        convert_csv(src, dst)
    assert not dst.exists()


@pytest.mark.parametrize("value", [2.0**63, -(2.0**63) - 2048.0, -1e300])
def test_writers_reject_samples_outside_int64(tmp_path, value):
    g = make_set(n_steps=5)
    samples = g.as_matrix().copy()
    samples[2, 9] = value
    bad = dataclasses.replace(g, samples=samples)
    with pytest.raises(ValueError, match="does not fit a 64-bit integer"):
        write_recording(bad, tmp_path / "bad.txt")
    with pytest.raises(ValueError, match="does not fit a 64-bit integer"):
        save_force_dataset([g, bad], tmp_path / "ds")
    assert not (tmp_path / "bad.txt").exists() and not (tmp_path / "ds").exists()


def test_writer_keeps_largest_int64_samples(tmp_path):
    g = make_set(n_steps=3)
    samples = g.as_matrix().copy()
    samples[0, :2] = [2.0**63 - 1024.0, -(2.0**63)]
    path = tmp_path / "big.txt"
    write_recording(dataclasses.replace(g, samples=samples), path)
    np.testing.assert_array_equal(read_recording(path).as_matrix(), samples)


def test_save_dataset_rejects_mixed_kinds(tmp_path):
    with pytest.raises(ValueError, match="one kind of recording"):
        save_force_dataset([make_set(n_steps=5), synth_pressure_run(0, n_steps=100)], tmp_path / "ds")
    assert not (tmp_path / "ds").exists()
