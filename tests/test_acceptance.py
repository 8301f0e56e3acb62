"""End-to-end acceptance suite.

Each test pins one shipping requirement at its stated tolerance; the
slow end-to-end ones print their timing budget in the assert message.
Criterion naming (01..10) keeps the report readable; the docstrings say
what each one guards.
"""

import json
import os
import time

import numpy as np
import pytest

from graspslip import cli, data, evaluation, models, nn, stream
from graspslip.signal import NormStats, stft_window
from tests import oracles


def timed():
    return time.monotonic()


# -- 1: STFT against a direct DFT sum ------------------------------------


def test_criterion_01_stft_oracle_equivalence():
    """1,000 seeded random windows agree with the direct DFT sum to 1e-9;
    a pure bin-frequency cosine lands at magnitude 10 in its band."""
    t0 = timed()
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(1000):
        win = rng.uniform(-1000.0, 1000.0, size=20)
        got = stft_window(win)
        ref = oracles.dft_band_magnitudes(win, 10)
        worst = max(worst, float(np.max(np.abs(got - ref))))
    assert worst < 1e-9, f"max abs error {worst:.3e}"

    t = np.arange(20)
    for k in range(1, 11):
        mags = stft_window(np.cos(2 * np.pi * k * t / 20))
        if k < 10:
            assert abs(mags[k - 1] - 10.0) < 1e-9
        else:
            # the Nyquist bin has no quadrature pair: cos sums coherently
            assert abs(mags[9] - 20.0) < 1e-9
    elapsed = timed() - t0
    assert elapsed < 5.0, f"took {elapsed:.1f} s (budget 5 s)"


# -- 2: BPTT against central finite differences --------------------------------


def _gradcheck_model(tag, hidden, seed):
    variant = models.get_variant(tag)
    rng = np.random.default_rng(seed)
    lstms = [nn.LstmParams.init(d, hidden, rng, scale=0.3) for d in variant.stream_dims]
    head = nn.FcHead.init(hidden * variant.n_streams, rng, scale=0.3)
    return models.GraspModel(variant=variant, lstms=lstms, head=head,
                             stats=NormStats(0.0, 1.0))


def test_criterion_02_gradient_correctness():
    """All four variants (hidden 4, window 12), 20 seeded instances each:
    max relative error against central differences < 1e-4."""
    t0 = timed()
    worst = {}
    for tag in "ABCD":
        variant = models.get_variant(tag)
        w = 0.0
        for inst in range(20):
            seed = 97 + 1000 * inst
            model = _gradcheck_model(tag, 4, seed)
            rng = np.random.default_rng(seed + 1)
            feats = [rng.normal(size=(12, d)) for d in variant.stream_dims]
            labels = rng.integers(0, 2, size=12)
            w = max(w, nn.grad_check(model, feats, labels, eps=1e-5))
        worst[tag] = w
    assert all(v < 1e-4 for v in worst.values()), worst
    elapsed = timed() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f} s (budget 120 s)"


# -- 3: optimizer sanity ----------------------------------------------------------


def test_criterion_03_adam_minimizes_quadratic():
    """Adam at lr 0.0006 pulls theta^2 from 1 below 1e-3 within 20k steps;
    the first bias-corrected update has magnitude lr within 1%."""
    theta = np.array([1.0])
    opt = nn.AdamState(lr=0.0006)
    nn.adam_step({"t": theta}, {"t": 2.0 * theta}, opt)
    first_delta = abs(float(theta[0]) - 1.0)
    assert abs(first_delta - 0.0006) <= 0.01 * 0.0006
    reached = None
    for step in range(2, 20001):
        nn.adam_step({"t": theta}, {"t": 2.0 * theta}, opt)
        if abs(float(theta[0])) < 1e-3:
            reached = step
            break
    assert reached is not None, f"|theta| still {abs(float(theta[0])):.3e} after 20k steps"


# -- 4: synthetic end-to-end ---------------------------------------------------------


def test_criterion_04_synthetic_end_to_end():
    """200 synthetic sets: variant C reaches success >= 0.90 and
    ahead-drop >= 0.80 held-out, and C's success >= A's on the same split.
    The two fits run through run_experiment, in parallel where CPUs allow."""
    t0 = timed()
    sets = data.synth_force_dataset(200, seed=42)
    config = models.TrainConfig(epochs=8, lstm_units=128, seed=0, labels="truth")
    result = evaluation.run_experiment(
        sets, variants=("C", "A"), seeds=(0,), config=config, ratio=0.8
    )
    for row in result["rows"]:
        assert row["ok"], f"variant {row['variant']}: {row.get('error')}"
    row_c, row_a = result["rows"]

    assert row_c["success_rate"] >= 0.90, row_c["success_rate"]
    assert row_c["ahead_drop_rate"] >= 0.80, row_c["ahead_drop_rate"]
    assert row_c["success_rate"] >= row_a["success_rate"], (
        row_c["success_rate"], row_a["success_rate"],
    )
    elapsed = timed() - t0
    assert elapsed < 900.0, f"took {elapsed:.1f} s (budget 900 s)"


# -- 5: real-dataset reproduction (conditional) ----------------------------------------


def test_criterion_05_real_dataset_reproduction():
    """Force-dataset reference numbers (success 84.60, ahead-drop 85.88
    for the force-only variant) within +/-5 pp over 3 seeds. Runs only
    when a converted copy of the external dataset is supplied."""
    path = os.environ.get("GRASPSLIP_REAL_DATA")
    if not path:
        pytest.skip(
            "external visual-tactile dataset not supplied; set "
            "GRASPSLIP_REAL_DATA to a converted dataset directory to enable"
        )
    sets = data.load_force_dataset(path)
    config = models.TrainConfig(epochs=50, lstm_units=128)
    result = evaluation.run_experiment(
        sets, variants=("A", "B", "C", "D"), seeds=(0, 1, 2), config=config
    )
    agg = {a["variant"]: a for a in result["aggregate"]}
    success = agg["A"]["success_rate"]
    ahead = agg["A"]["ahead_drop_rate"]
    assert abs(success - 0.8460) <= 0.05, f"variant A success {success:.4f}"
    assert ahead is not None and abs(ahead - 0.8588) <= 0.05, f"variant A ahead {ahead}"
    # Informational: report whether the bands+force variant leads on success.
    ordering = sorted(agg, key=lambda t: agg[t].get("success_rate", -1), reverse=True)
    print(f"success-rate ordering (informational): {ordering}; "
          f"expected C first -> {'pass' if ordering[0] == 'C' else 'fail'}")


# -- 6: metric exactness -----------------------------------------------------------------


def test_criterion_06_metric_exactness():
    """Hand-built 160-step sequences reproduce both metrics exactly."""
    ref = np.zeros(160, dtype=bool)
    pred = ref.copy()
    pred[68:92] = True  # exactly 24 mismatched steps
    assert evaluation.success_rate(pred, ref) == 0.85

    drop = 100
    flags = np.zeros(160, dtype=bool)
    flags[drop - 1] = True  # first unstable strictly before the drop
    assert evaluation.ahead_drop_rate([evaluation.first_unstable(flags)], [drop]) == 1.0
    flags = np.zeros(160, dtype=bool)
    flags[drop] = True  # exactly at the drop: not ahead
    assert evaluation.ahead_drop_rate([evaluation.first_unstable(flags)], [drop]) == 0.0


# -- 7: pre-drop labeling rule ------------------------------------------------------------


def test_criterion_07_labeling_window():
    """A drop detected at step 100 labels exactly steps 80..159 unstable."""
    x = np.concatenate([np.full(100, 1500.0), np.zeros(60)])
    drop = data.detect_drop(x)
    assert drop == 100
    labels = data.label_slip(x, drop)
    unstable = np.nonzero(~labels)[0]
    np.testing.assert_array_equal(unstable, np.arange(80, 160))


# -- 8: controller arithmetic --------------------------------------------------------------


def test_criterion_08_controller_arithmetic():
    """15 rising-edge events: (50, 25) -> exactly (125, 175) mA; zero
    events leave the currents untouched."""
    events = []
    for i in range(15):
        events.append(stream.StepEvent(step=2 * i, channel=0, probability=1.0, unstable=True))
        events.append(stream.StepEvent(step=2 * i + 1, channel=0, probability=0.0, unstable=False))
    state = stream.grip_controller(events)
    assert (state.pj_ma, state.mj_ma) == (125.0, 175.0)
    assert state.slip_events == 15

    idle = stream.grip_controller([])
    assert (idle.pj_ma, idle.mj_ma) == (50.0, 25.0)


# -- 9: streaming equivalence and latency ----------------------------------------------------


def test_criterion_09_streaming_equivalence_and_latency():
    """Online replay matches offline prediction to 1e-12 on 50 traces;
    per-step latency p95 < 4 ms per sensor, 16-channel frame < 64 ms."""
    config = models.TrainConfig(lstm_units=128, seed=0)
    model = models.GraspModel.build("C", config)
    model.stats = NormStats(0.0, 4000.0)

    sets = data.synth_force_dataset(4, seed=77, n_steps=400)
    traces = [s.channel(ch) for s in sets for ch in range(16)][:50]
    worst = 0.0
    for trace in traces:
        offline = model.predict_samples(trace.samples).p_unstable
        events = stream.replay(trace, model, timing=False)
        online = np.array([e.probability for e in events])
        worst = max(worst, float(np.max(np.abs(online - offline))))
    assert worst < 1e-12, f"online/offline max divergence {worst:.3e}"

    frame_traces = [sets[0].channel(ch) for ch in range(16)]
    events = stream.replay(frame_traces, model, timing=True)
    report = stream.latency_report(events)
    assert report["per_sensor_ms"]["p95"] < 4.0, report["per_sensor_ms"]
    assert report["per_frame_ms"]["p95"] < 64.0, report["per_frame_ms"]
    assert report["pass"] is True


# -- 10: pipeline determinism -----------------------------------------------------------------


def test_criterion_10_pipeline_determinism(tmp_path):
    """Two gen-data -> train -> eval pipelines with one seed produce
    byte-identical datasets, checkpoints, histories, and reports."""

    def pipeline(root):
        ds = root / "dataset"
        train = root / "train"
        ev = root / "eval"
        assert cli.main([
            "gen-data", "--out", str(ds), "--sets", "8", "--seed", "5",
        ]) == 0
        assert cli.main([
            "train", "--data", str(ds), "--variant", "C", "--out", str(train),
            "--epochs", "2", "--units", "16", "--seed", "0", "--labels", "truth",
        ]) == 0
        assert cli.main([
            "eval", "--checkpoint", str(train / "checkpoint.gslp"),
            "--data", str(ds), "--out", str(ev),
            "--labels", "truth", "--holdout", "0.25",
        ]) == 0
        return {
            "dataset": (ds / "set_0000.txt").read_bytes(),
            "manifest": (ds / "manifest.json").read_bytes(),
            "checkpoint": (train / "checkpoint.gslp").read_bytes(),
            "history": (train / "history.csv").read_bytes(),
            "report": (ev / "eval_C_checkpoint.json").read_bytes(),
            "table": (ev / "table.csv").read_bytes(),
        }

    first = pipeline(tmp_path / "run1")
    second = pipeline(tmp_path / "run2")
    for name, blob in first.items():
        assert blob == second[name], f"{name} differs between identical runs"
    report = json.loads(first["report"])
    assert 0.0 <= report["success_rate"] <= 1.0
