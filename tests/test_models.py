import hashlib
import json
import struct

import numpy as np
import pytest

from graspslip import data, models, nn
from graspslip.data import LabeledWindow
from graspslip.evaluation import fit_variant
from graspslip.models import (
    GraspModel,
    TrainConfig,
    build_model,
    get_variant,
    load_checkpoint,
    save_checkpoint,
    train,
)
from graspslip.signal import NormStats, compute_norm_stats
from tests import oracles


SMALL = TrainConfig(window_len=60, lstm_units=6, epochs=4, seed=3)
UNIT_STATS = NormStats(0.0, 1.0)


def small_model(tag, stats=UNIT_STATS, **over):
    cfg = TrainConfig(**{**dict(window_len=60, lstm_units=6, epochs=4, seed=3), **over})
    m = build_model(tag, cfg)
    m.stats = stats
    return m


# -- variant registry ----------------------------------------------------


def test_variant_dims():
    assert get_variant("A").stream_dims == (1,)
    assert get_variant("B").stream_dims == (10,)
    assert get_variant("C").stream_dims == (11,)
    assert get_variant("D").stream_dims == (1, 10)


def test_get_variant_by_name_and_tag():
    assert get_variant("stft-lstm").tag == "B"
    assert get_variant("b").tag == "B"
    assert get_variant("LSTM_STFT_LSTM").tag == "D"
    assert get_variant(" data-stft-lstm ").tag == "C"
    assert get_variant("lstm").tag == "A"


def test_get_variant_unknown():
    with pytest.raises(ValueError, match="unknown model variant"):
        get_variant("E")


# -- config validation -----------------------------------------------------


def test_config_rejects_short_window():
    with pytest.raises(ValueError, match="window_len must exceed"):
        TrainConfig(window_len=20)


def test_config_rejects_bad_modes():
    with pytest.raises(ValueError, match="loss_mode"):
        TrainConfig(loss_mode="всё")
    with pytest.raises(ValueError, match="init_mode"):
        TrainConfig(init_mode="xavier")
    with pytest.raises(ValueError, match="lr"):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError, match="epochs"):
        TrainConfig(epochs=-1)


@pytest.mark.parametrize("threshold", [np.nan, np.inf, 0.0, 1.0, -0.2, 1.5])
def test_config_rejects_unsafe_threshold(threshold):
    with pytest.raises(ValueError, match="threshold"):
        TrainConfig(threshold=threshold)


@pytest.mark.parametrize("units", [0, -3])
def test_config_rejects_empty_lstm(units):
    with pytest.raises(ValueError, match="lstm_units"):
        TrainConfig(lstm_units=units)


# -- construction -----------------------------------------------------------


def test_build_shapes():
    m = build_model("D", SMALL)
    assert len(m.lstms) == 2
    assert m.lstms[0].input_dim == 1 and m.lstms[1].input_dim == 10
    assert m.lstms[0].hidden_dim == 6
    assert m.head.in_dim == 12
    assert m.head.w.shape == (2, 12)


def test_build_same_seed_identical():
    a = build_model("C", SMALL, seed=9)
    b = build_model("C", SMALL, seed=9)
    for k, arr in a.param_dict().items():
        np.testing.assert_array_equal(arr, b.param_dict()[k])
    c = build_model("C", SMALL, seed=10)
    assert any(
        not np.array_equal(v, c.param_dict()[k]) for k, v in a.param_dict().items()
    )


def test_build_literal_zeros():
    m = build_model("B", TrainConfig(lstm_units=4, init_mode="literal-zeros"))
    for arr in m.param_dict().values():
        np.testing.assert_array_equal(arr, 0.0)


def test_mismatched_lstm_count_rejected():
    m = build_model("D", SMALL)
    with pytest.raises(ValueError, match="one LSTM required per input stream"):
        GraspModel(m.variant, m.lstms[:1], m.head)


# -- featurize ---------------------------------------------------------------


def test_featurize_requires_stats():
    m = build_model("A", SMALL)
    with pytest.raises(ValueError, match="missing normalization stats"):
        m.featurize(np.zeros(60))


def test_featurize_a_is_normalized_column(rng):
    m = small_model("A", stats=NormStats(0.0, 2000.0))
    x = rng.uniform(0, 2000, size=60)
    (col,) = m.featurize(x)
    assert col.shape == (60, 1)
    np.testing.assert_allclose(col[:, 0], x / 2000.0)


def test_featurize_constant_has_zero_bands():
    m = small_model("B")
    (bands,) = m.featurize(np.full(60, 0.7))
    assert bands.shape == (60, 10)
    np.testing.assert_allclose(bands, 0.0, atol=1e-9)


def test_featurize_pure_cosine_band(rng):
    # bin-3 cosine of amplitude a on a unit-stats signal: steady-state
    # frames carry 10*a in band index 2 and nothing elsewhere.
    a = 0.3
    t = np.arange(120)
    x = 0.5 + a * np.cos(2 * np.pi * 3 * t / 20)
    m = small_model("B")
    (bands,) = m.featurize(x)
    steady = bands[19:]
    np.testing.assert_allclose(steady[:, 2], 10 * a, atol=1e-9)
    mask = np.ones(10, dtype=bool)
    mask[2] = False
    np.testing.assert_allclose(steady[:, mask], 0.0, atol=1e-9)


def test_featurize_c_concatenates_bands_then_force(rng):
    x = rng.uniform(0, 1, size=80)
    fa = small_model("A").featurize(x)[0]
    fb = small_model("B").featurize(x)[0]
    fc = small_model("C").featurize(x)[0]
    assert fc.shape == (80, 11)
    np.testing.assert_array_equal(fc[:, :10], fb)
    np.testing.assert_array_equal(fc[:, 10:], fa)


def test_featurize_one_row_per_sample(rng):
    x = rng.uniform(0, 1, size=37)
    for tag in "ABCD":
        streams = small_model(tag).featurize(x)
        assert [f.shape for f in streams] == [(37, d) for d in get_variant(tag).stream_dims]


def test_featurize_bands_match_padded_slices(rng):
    x = rng.uniform(0, 100, size=30)
    (bands,) = small_model("B", stats=NormStats(0.0, 100.0)).featurize(x)
    for t_idx, frame in enumerate(oracles.causal_frames(x / 100.0, 20)):
        np.testing.assert_allclose(
            bands[t_idx], oracles.dft_band_magnitudes(frame, 10), atol=1e-9
        )


def test_featurize_is_causal(rng):
    # A prefix of the input yields a prefix of every stream.
    x = rng.uniform(0, 1, size=50)
    for tag in "ABCD":
        m = small_model(tag)
        full = m.featurize(x)
        for k in (1, 5, 20, 49):
            for got, want in zip(m.featurize(x[:k]), full):
                np.testing.assert_allclose(got, want[:k], rtol=0, atol=1e-12)


def test_featurize_first_row_sees_only_padding(rng):
    x = rng.uniform(0, 1, size=10)
    (bands,) = small_model("B").featurize(x)
    # row 0 covers 19 pad copies of x[0] plus x[0] itself: constant
    np.testing.assert_allclose(bands[0], 0.0, atol=1e-9)


@pytest.mark.parametrize("tag", "ABCD")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_featurize_rejects_nonfinite(tag, bad):
    x = np.full(40, 0.5)
    x[10] = bad
    with pytest.raises(ValueError, match="non-finite"):
        small_model(tag).featurize(x)


def test_featurize_d_streams(rng):
    x = rng.uniform(0, 1, size=80)
    fd = small_model("D").featurize(x)
    assert len(fd) == 2
    np.testing.assert_array_equal(fd[0], small_model("A").featurize(x)[0])
    np.testing.assert_array_equal(fd[1], small_model("B").featurize(x)[0])


# -- predict ------------------------------------------------------------------


@pytest.mark.parametrize("tag", "ABCD")
def test_nan_probability_is_flagged_unstable(tag, rng):
    # A NaN from anywhere in the model (here the head bias) must read
    # unstable, never stable.
    m = small_model(tag)
    m.head.b = np.array([0.0, np.nan])
    x = rng.uniform(0, 1, size=(3, 30))
    for pred in [m.predict_samples(x[0]), *m.predict_batch(m.featurize(w) for w in x)]:
        assert np.isnan(pred.p_unstable).all()
        assert pred.unstable.all()


def test_zero_params_predict_half_and_tie_unstable():
    m2 = build_model("B", TrainConfig(lstm_units=4, init_mode="literal-zeros"))
    m2.stats = UNIT_STATS
    pred = m2.predict_samples(np.linspace(0, 1, 50))
    np.testing.assert_array_equal(pred.p_unstable, 0.5)
    assert pred.unstable.all()  # ties go to the fail-safe side


def test_predict_prefix_causality(rng):
    m = small_model("C")
    feats = rng.normal(size=(50, 11))
    full = m.predict(feats)
    head = m.predict(feats[:20])
    np.testing.assert_allclose(head.p_unstable, full.p_unstable[:20], atol=1e-12)


def test_predict_feature_dim_mismatch(rng):
    m = small_model("C")
    with pytest.raises(ValueError, match="feature dimension mismatch"):
        m.predict(rng.normal(size=(30, 10)))
    d = small_model("D")
    with pytest.raises(ValueError, match="feature stream"):
        d.predict([rng.normal(size=(30, 1))])  # one stream where two are wired


def cached_p_unstable(m, streams):
    """p_unstable through lstm_forward_cache, the training forward pass."""
    h = np.concatenate([nn.lstm_forward_cache(s, p).h_all[1:] for s, p in zip(streams, m.lstms)], axis=1)
    return m.head.probs(h)[:, models.CLASS_UNSTABLE]


@pytest.mark.parametrize("tag", ["A", "B", "C", "D"])
@pytest.mark.parametrize("n_windows", [1, models.PREDICT_CHUNK + 5])
def test_predict_batch_matches_per_window(tag, n_windows, rng):
    m = small_model(tag, stats=NormStats(0.0, 3000.0))
    feats = [m.featurize(rng.uniform(0, 3000, size=30)) for _ in range(n_windows)]
    batched = m.predict_batch(feats)
    assert len(batched) == n_windows
    for f, got in zip(feats, batched):
        np.testing.assert_allclose(got.p_unstable, m.predict(f).p_unstable, atol=1e-12)
        np.testing.assert_allclose(got.p_unstable, cached_p_unstable(m, f), atol=1e-12)
        np.testing.assert_array_equal(got.unstable, got.p_unstable >= m.threshold)


def test_predict_batch_rejects_unequal_lengths(rng):
    m = small_model("C")
    with pytest.raises(ValueError, match="equal length"):
        m.predict_batch([rng.normal(size=(30, 11)), rng.normal(size=(31, 11))])
    assert m.predict_batch([]) == []


def test_c_with_zero_force_column_embeds_b(rng):
    # dropping C's force input column must reproduce a pure band model;
    # pins the wiring order (bands occupy columns 0..9, force column 10).
    c = small_model("C", seed=11)
    b_lstm = nn.LstmParams.from_gates(
        {
            name: (np.delete(arr, 10, axis=1) if name.startswith("w") else arr.copy())
            for name, arr in nn.gate_views(c.lstms[0].k).items()
        }
    )
    b = GraspModel(get_variant("B"), [b_lstm], c.head, stats=UNIT_STATS)
    bands = rng.normal(size=(40, 10))
    with_zero_force = np.concatenate([bands, np.zeros((40, 1))], axis=1)
    np.testing.assert_allclose(
        c.predict(with_zero_force).p_unstable,
        b.predict(bands).p_unstable,
        atol=1e-12,
    )


# -- loss ---------------------------------------------------------------------


def test_loss_matches_manual_mean_cross_entropy(rng):
    m = small_model("B")
    feats = rng.normal(size=(12, 10))
    y = rng.integers(0, 2, size=12)
    pred = m.predict(feats)
    p_stable = 1.0 - pred.p_unstable
    p_true = np.where(y == 1, pred.p_unstable, p_stable)
    expected = float(np.mean(-np.log(p_true)))
    assert m.loss(feats, y) == pytest.approx(expected, rel=1e-12)


def test_last_step_loss_only_sees_final_step(rng):
    m = small_model("B")
    m.loss_mode = "last-step"
    feats = rng.normal(size=(12, 10))
    y = np.zeros(12, dtype=np.int64)
    p = m.predict(feats).p_unstable[-1]
    assert m.loss(feats, y) == pytest.approx(-np.log(1 - p), rel=1e-12)
    y2 = y.copy()
    y2[:5] = 1  # earlier labels must not matter
    assert m.loss(feats, y2) == pytest.approx(m.loss(feats, y), rel=1e-12)


def test_gradients_pass_finite_difference_check(rng):
    # Small/fast version; the acceptance suite runs the full protocol.
    for tag in "ABCD":
        m = small_model(tag, lstm_units=3, seed=5)
        feats = m.featurize(rng.uniform(0.1, 0.9, size=30))
        y = rng.integers(0, 2, size=30)
        assert nn.grad_check(m, feats, y) < 1e-4, tag


def test_last_step_gradients_also_pass(rng):
    m = small_model("B", lstm_units=3, loss_mode="last-step")
    feats = m.featurize(rng.uniform(0.1, 0.9, size=30))
    y = rng.integers(0, 2, size=30)
    assert nn.grad_check(m, feats, y) < 1e-4


def test_param_dict_writes_reach_the_model(rng):
    # param_dict() gates are live views of the stored kernels.
    m = small_model("D", lstm_units=3, seed=5)
    feats = m.featurize(rng.uniform(0.1, 0.9, size=30))
    before = m.predict(feats).p_unstable
    for name in ("lstm0.w_f", "lstm1.b_g"):
        m.param_dict()[name][0] += 0.5
        after = m.predict(feats).p_unstable
        assert not np.array_equal(after, before), name
        before = after


def test_grads_are_named_as_the_stored_arrays(rng):
    # grad_check perturbs the arrays stored_arrays() returns.
    m = small_model("D", lstm_units=3, seed=5)
    feats = m.featurize(rng.uniform(0.1, 0.9, size=30))
    y = rng.integers(0, 2, size=30)
    loss, grads = m.loss_and_grads(feats, y)
    assert loss == m.loss(feats, y)
    stored = m.stored_arrays()
    assert list(stored) == ["lstm0", "lstm1", "fc.w", "fc.b"]
    assert stored["lstm1"] is m.lstms[1].k and stored["fc.w"] is m.head.w
    assert grads.keys() == stored.keys()
    for name, g in grads.items():
        assert g.shape == stored[name].shape, name


# -- training -------------------------------------------------------------------


def toy_windows(n=24, steps=60, seed=0):
    """Half constant-force (stable), half oscillating (unstable)."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        t = np.arange(steps)
        if i % 2 == 0:
            x = 1500 + rng.normal(0, 5, size=steps)
            labels = np.ones(steps, dtype=bool)
        else:
            x = 1500 + 400 * np.sin(2 * np.pi * 4 * t / 20) + rng.normal(0, 5, size=steps)
            labels = np.zeros(steps, dtype=bool)
        out.append(LabeledWindow(samples=np.clip(x, 0, 4000), labels=labels))
    return out


def fitted(windows, tag="B", **over):
    cfg = TrainConfig(**{**dict(window_len=60, lstm_units=8, epochs=15, seed=1), **over})
    model = build_model(tag, cfg)
    model.stats = compute_norm_stats([w.samples for w in windows])
    history = train(model, windows, cfg)
    return model, history


def test_train_zero_epochs_is_identity():
    windows = toy_windows()
    cfg = TrainConfig(window_len=60, lstm_units=4, epochs=0)
    model = build_model("B", cfg)
    model.stats = compute_norm_stats([w.samples for w in windows])
    before = model.copy_params()
    history = train(model, windows, cfg)
    assert history == []
    for k, v in model.param_dict().items():
        np.testing.assert_array_equal(v, before[k])


def test_train_requires_both_classes():
    windows = [w for w in toy_windows() if w.labels.all()]
    cfg = TrainConfig(window_len=60, lstm_units=4, epochs=1)
    model = build_model("B", cfg)
    model.stats = compute_norm_stats([w.samples for w in windows])
    with pytest.raises(ValueError, match="both classes"):
        train(model, windows, cfg)


def test_train_loss_decreases_and_separates():
    windows = toy_windows()
    model, history = fitted(windows)
    assert history[-1].mean_loss < history[0].mean_loss
    hits = total = 0
    for w in windows:
        pred = model.predict_samples(w.samples)
        hits += int(np.sum(pred.unstable == ~w.labels))
        total += w.labels.size
    assert hits / total > 0.95


def test_train_is_seed_deterministic():
    w1 = toy_windows()
    m1, h1 = fitted(w1, epochs=3)
    m2, h2 = fitted(toy_windows(), epochs=3)
    assert [r.mean_loss for r in h1] == [r.mean_loss for r in h2]
    for k, v in m1.param_dict().items():
        np.testing.assert_array_equal(v, m2.param_dict()[k])
    m3, _ = fitted(toy_windows(), epochs=3, seed=2)
    assert any(not np.array_equal(v, m3.param_dict()[k]) for k, v in m1.param_dict().items())


def test_train_divergence_raises():
    windows = toy_windows(n=4)
    cfg = TrainConfig(window_len=60, lstm_units=4, epochs=2)
    model = build_model("B", cfg)
    model.stats = compute_norm_stats([w.samples for w in windows])
    model.head.b[0] = np.nan
    with pytest.raises(nn.TrainingDiverged, match="diverged: non-finite loss"):
        train(model, windows, cfg)


def test_early_stop_restores_best_params():
    windows = toy_windows(n=20, seed=3)
    val = toy_windows(n=8, seed=4)
    cfg = TrainConfig(window_len=60, lstm_units=6, epochs=12, seed=1)
    model = build_model("B", cfg)
    model.stats = compute_norm_stats([w.samples for w in windows])
    history = train(model, windows, cfg, val_windows=val)
    assert len(history) <= 12
    best = max(r.val_success for r in history)
    hits = total = 0
    for w in val:
        pred = model.predict(model.featurize(w.samples))
        hits += int(np.sum(pred.unstable == ~w.labels))
        total += w.labels.size
    assert hits / total == pytest.approx(best)


def test_early_stop_stops_after_patience_epochs_without_improvement():
    # lr=1e-12 leaves validation success flat after epoch 0, so training
    # stops EARLY_STOP_PATIENCE epochs later, well before the 30 allowed.
    train_sets, val_sets = data.split(data.synth_force_dataset(10, seed=1), 0.6)
    cfg = TrainConfig(window_len=60, lstm_units=4, epochs=30, lr=1e-12, seed=0)
    _, history = fit_variant("C", train_sets, cfg, val_sets=val_sets, labels="truth")
    assert len(history) == 1 + models.EARLY_STOP_PATIENCE == 11


@pytest.mark.parametrize("over, match", [
    ({"threshold": 1.5}, "threshold"), ({"threshold": float("nan")}, "threshold"),
    ({"loss_mode": "every-step"}, "loss_mode"),
], ids=["threshold-1.5", "threshold-nan", "loss-mode"])
def test_model_rejects_threshold_and_loss_mode_out_of_range(over, match):
    m = small_model("B")
    with pytest.raises(ValueError, match=match):
        GraspModel(m.variant, m.lstms, m.head, m.stats, **over)


# -- checkpoints -----------------------------------------------------------------


def test_checkpoint_round_trip_bit_exact(tmp_path, rng):
    m = small_model("D", stats=NormStats(10.0, 3000.0))
    path = tmp_path / "model.gslp"
    save_checkpoint(m, path)
    again = load_checkpoint(path)
    assert again.variant.tag == "D"
    assert again.stats.min_value == 10.0 and again.stats.max_value == 3000.0
    assert again.threshold == m.threshold
    for k, v in m.param_dict().items():
        np.testing.assert_array_equal(v, again.param_dict()[k])
    x = rng.uniform(20, 2900, size=70)
    np.testing.assert_array_equal(
        m.predict_samples(x).p_unstable, again.predict_samples(x).p_unstable
    )


def test_checkpoint_bytes_unchanged(tmp_path):
    """Digests of seeded A-D checkpoints written when LstmParams held eight
    gate arrays; storing one kernel per LSTM must not change a byte."""
    digest = {}
    for tag in "ABCD":
        save_checkpoint(small_model(tag, stats=NormStats(0.0, 3000.0)), tmp_path / f"{tag}.gslp")
        digest[tag] = hashlib.sha256((tmp_path / f"{tag}.gslp").read_bytes()).hexdigest()
    assert digest == {
        "A": "4003e24bbd6fe707553d518da307d9ccc8befae73604674b82e0dc333634ac2f",
        "B": "403ef537d1fa74d8b71b1e9a41adce078421ddb3aff19bb51285fa192246481a",
        "C": "118d164679a1510fdaf1c2c4eb2e11ffd664925a21dff75cfef3669469440319",
        "D": "11c340e677ca25c9429ee701555370497e6c36d34ec32bb150d5c2aa74c3fe9f",
    }


def test_checkpoint_without_stats(tmp_path):
    m = build_model("A", SMALL)
    path = tmp_path / "raw.gslp"
    save_checkpoint(m, path)
    assert load_checkpoint(path).stats is None


def test_checkpoint_corruption_detected(tmp_path):
    m = small_model("B")
    path = tmp_path / "model.gslp"
    save_checkpoint(m, path)
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(models.CheckpointError, match="digest mismatch"):
        load_checkpoint(path)


def test_checkpoint_rejects_unknown_version(tmp_path):
    m = small_model("B")
    path = tmp_path / "model.gslp"
    save_checkpoint(m, path)
    raw = bytearray(path.read_bytes())
    payload = raw[:-64]
    payload[8] = 99  # little-endian u32 version right after the magic
    import hashlib

    digest = hashlib.sha256(bytes(payload)).hexdigest().encode("ascii")
    path.write_bytes(bytes(payload) + digest)
    with pytest.raises(models.CheckpointError, match="unsupported version 99"):
        load_checkpoint(path)


def test_checkpoint_rejects_truncated_file(tmp_path):
    path = tmp_path / "model.gslp"
    path.write_bytes(b"GS")
    with pytest.raises(models.CheckpointError, match="not a checkpoint file"):
        load_checkpoint(path)


def test_checkpoint_rejects_foreign_magic(tmp_path):
    path = tmp_path / "model.gslp"
    path.write_bytes(b"\x89PNG" + b"\x00" * 200)
    with pytest.raises(models.CheckpointError, match="not a checkpoint file"):
        load_checkpoint(path)


# -- hostile checkpoints with a valid digest -------------------------------------


def write_raw_blob(path, header, body: bytes) -> None:
    """A checkpoint exactly as given, with a digest that checks out."""
    meta = json.dumps(header).encode("utf-8")
    payload = models.CKPT_MAGIC + struct.pack("<II", models.CKPT_VERSION, len(meta)) + meta + body
    path.write_bytes(payload + hashlib.sha256(payload).hexdigest().encode("ascii"))


def saved_blob(tmp_path, tag="D"):
    path = tmp_path / "model.gslp"
    save_checkpoint(small_model(tag), path)
    return path, *models.read_blob(path)


@pytest.mark.parametrize("key, value", [
    ("variant", None), ("variant", "Z"), ("variant", 3),
    ("hidden_dim", 0), ("hidden_dim", "6"), ("hidden_dim", True), ("hidden_dim", 7),
    ("stft_window", 1), ("stft_window", 20.0),
    ("band_count", 0), ("band_count", 11),
    ("loss_mode", "every-step"), ("loss_mode", None),
    ("threshold", float("nan")), ("threshold", 1.0), ("threshold", "0.5"), ("threshold", None),
    ("norm_stats", {"min": 5.0, "max": 1.0}), ("norm_stats", {"min": 0.0}), ("norm_stats", [0, 1]),
    ("kind", None), ("kind", 7),
    ("stft_window", 32), ("band_count", 8),
])
def test_checkpoint_rejects_bad_header_field(tmp_path, key, value):
    path, header, arrays = saved_blob(tmp_path)
    if value is None:
        del header[key]
    else:
        header[key] = value
    del header["arrays"]
    models.write_blob(path, header, sorted(arrays.items()))
    with pytest.raises(models.CheckpointError):
        load_checkpoint(path)


@pytest.mark.parametrize("change", ["drop", "extra", "reshape"])
def test_checkpoint_rejects_wrong_array_set(tmp_path, change):
    path, header, arrays = saved_blob(tmp_path)
    del header["arrays"]
    if change == "drop":
        del arrays["lstm1.b_o"]
    elif change == "extra":
        arrays["lstm2.w_i"] = np.zeros((6, 7))
    else:
        arrays["lstm0.w_f"] = arrays["lstm0.w_f"].reshape(7, 6)
    models.write_blob(path, header, sorted(arrays.items()))
    with pytest.raises(models.CheckpointError, match="do not match"):
        load_checkpoint(path)


@pytest.mark.parametrize("manifest, body, match", [
    ([{"name": "w", "shape": [4, 1 << 40]}], b"\0" * 64, "exceeds the file"),
    ([{"name": "w", "shape": [9]}], b"\0" * 64, "exceeds the file"),
    ([{"name": "w", "shape": [-1, 4]}], b"", "malformed array entry"),
    ([{"name": "w", "shape": [2.0]}], b"\0" * 16, "malformed array entry"),
    ([{"name": "w"}], b"", "malformed array entry"),
    ([{"name": "w", "shape": [1]}, {"name": "w", "shape": [1]}], b"\0" * 16, "duplicate"),
    ({"name": "w", "shape": [1]}, b"\0" * 8, "'arrays' list"),
    (None, b"", "'arrays' list"),
])
def test_read_blob_rejects_bad_manifest(tmp_path, manifest, body, match):
    path = tmp_path / "model.gslp"
    header = {"kind": "svm"}
    if manifest is not None:
        header["arrays"] = manifest
    write_raw_blob(path, header, body)
    with pytest.raises(models.CheckpointError, match=match):
        models.read_blob(path)


def test_read_blob_rejects_non_object_header(tmp_path):
    path = tmp_path / "model.gslp"
    write_raw_blob(path, ["kind", "svm"], b"")
    with pytest.raises(models.CheckpointError, match="string 'kind'"):
        models.read_blob(path)
    meta = b"{not json"
    payload = models.CKPT_MAGIC + struct.pack("<II", models.CKPT_VERSION, len(meta)) + meta
    path.write_bytes(payload + hashlib.sha256(payload).hexdigest().encode("ascii"))
    with pytest.raises(models.CheckpointError, match="unreadable header"):
        models.read_blob(path)
    payload = models.CKPT_MAGIC + struct.pack("<II", models.CKPT_VERSION, 500) + b"{}"
    path.write_bytes(payload + hashlib.sha256(payload).hexdigest().encode("ascii"))
    with pytest.raises(models.CheckpointError, match="header length"):
        models.read_blob(path)
