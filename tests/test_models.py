import dataclasses
import hashlib
import json
import re
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

from graspslip import data, models, nn
from graspslip.data import LabeledWindow
from graspslip.evaluation import fit_variant
from graspslip.models import (
    GraspModel,
    TrainConfig,
    get_variant,
    load_checkpoint,
    save_checkpoint,
    train,
)
from graspslip.signal import NormStats, compute_norm_stats
from tests import oracles
from tests.blas import run_on_kernel_set


SMALL = TrainConfig(window_len=60, lstm_units=6, epochs=4, seed=3)
UNIT_STATS = NormStats(0.0, 1.0)


def small_model(tag, stats=UNIT_STATS, **over):
    cfg = TrainConfig(**{**dict(window_len=60, lstm_units=6, epochs=4, seed=3), **over})
    m = GraspModel.build(tag, cfg)
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
    with pytest.raises(ValueError, match=r"window_len must be a 64-bit integer > 20 "
                                         r"\(the STFT window\), got 20"):
        TrainConfig(window_len=20)


def test_config_rejects_bad_modes():
    with pytest.raises(ValueError, match="lr"):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError, match="epochs"):
        TrainConfig(epochs=-1)


@pytest.mark.parametrize("lr", [np.inf, -np.inf, np.nan, None])
def test_config_rejects_lr_that_is_not_finite_positive(lr):
    # lr=inf used to construct, and training then diverged as a numeric failure
    with pytest.raises(ValueError, match="lr must be a finite number > 0"):
        TrainConfig(lr=lr)


COUNT_RANGES = {"window_len": "> 20 (the STFT window)", "lstm_units": ">= 1", "epochs": ">= 0",
                "seed": ">= 0"}


@pytest.mark.parametrize("key", ["window_len", "lstm_units", "epochs", "seed"])
@pytest.mark.parametrize("value", [2.5, 160.0, True, "3", None])
def test_config_rejects_a_count_that_is_not_an_integer(key, value):
    # epochs=2.5 used to construct, and training then failed inside range()
    want = re.escape(f"{key} must be a 64-bit integer {COUNT_RANGES[key]}, got {value!r}")
    with pytest.raises(ValueError, match=want):
        TrainConfig(**{key: value})
    assert getattr(TrainConfig(**{key: np.int64(100)}), key) == 100


@pytest.mark.parametrize("key, value, want", [
    ("seed", -1, "seed must be a 64-bit integer >= 0, got -1"),
    ("lr", "0.1", "lr must be a finite number > 0, got '0.1'"),
    ("clip_norm", "1", "clip_norm must be a finite number > 0, got '1'"),
    ("threshold", "0.5", "threshold must be a finite number in (0, 1), got '0.5'"),
    ("lr", True, "lr must be a finite number > 0, got True"),
], ids=["seed-negative", "lr-text", "clip_norm-text", "threshold-text", "lr-bool"])
def test_config_refuses_what_the_cli_refuses_naming_field_and_value(key, value, want):
    # seed=-1 and threshold="0.5" used to construct, lr=True too, and a text
    # lr or clip_norm raised TypeError; the CLI refused all four.
    with pytest.raises(ValueError, match=re.escape(want)):
        TrainConfig(**{key: value})


@pytest.mark.parametrize("key", ["window_len", "lstm_units", "epochs", "seed"])
def test_config_refuses_an_integer_setting_outside_64_bits(key):
    # 2**63 and 10**20 used to construct; no numpy integer holds them.
    for value, shown in ((2**63, str(2**63)), (10**20, str(10**20)),
                         (10**5000, "a 16610-bit integer")):
        want = f"{key} must be a 64-bit integer {COUNT_RANGES[key]}, got {shown}"
        with pytest.raises(ValueError, match=re.escape(want)):
            TrainConfig(**{key: value})
    assert getattr(TrainConfig(**{key: 2**63 - 1}), key) == 2**63 - 1


def test_config_takes_a_numpy_float32_setting_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert TrainConfig(lr=np.float32(1e-3)).lr == np.float32(1e-3)
        assert TrainConfig(threshold=np.float32(0.25)).threshold == 0.25


def test_every_train_config_field_has_one_setting_that_takes_its_default():
    fields = dataclasses.fields(TrainConfig)
    assert list(models.TRAIN_SETTINGS) == [f.name for f in fields]
    for f in fields:
        assert models.TRAIN_SETTINGS[f.name].rule.check(f.name, f.default) == f.default


@pytest.mark.parametrize("threshold", [np.nan, np.inf, 0.0, 1.0, -0.2, 1.5])
def test_config_rejects_unsafe_threshold(threshold):
    with pytest.raises(ValueError, match="threshold"):
        TrainConfig(threshold=threshold)


@pytest.mark.parametrize("units", [0, -3])
def test_config_rejects_empty_lstm(units):
    with pytest.raises(ValueError, match="lstm_units"):
        TrainConfig(lstm_units=units)


@pytest.mark.parametrize("clip_norm", [np.nan, np.inf, 0.0, -1.0, None])
def test_config_rejects_clip_norm_that_is_not_finite_positive(clip_norm):
    with pytest.raises(ValueError, match="clip_norm must be a finite number > 0"):
        TrainConfig(clip_norm=clip_norm)
    assert TrainConfig(clip_norm=0.5).clip_norm == 0.5


# -- construction -----------------------------------------------------------


def test_build_shapes():
    m = GraspModel.build("D", SMALL)
    assert len(m.lstms) == 2
    assert m.lstms[0].input_dim == 1 and m.lstms[1].input_dim == 10
    assert m.lstms[0].hidden_dim == 6
    assert m.head.in_dim == 12
    assert m.head.w.shape == (2, 12)


def test_build_same_seed_identical():
    a = GraspModel.build("C", SMALL, seed=9)
    b = GraspModel.build("C", SMALL, seed=9)
    for k, arr in a.param_dict().items():
        np.testing.assert_array_equal(arr, b.param_dict()[k])
    c = GraspModel.build("C", SMALL, seed=10)
    assert any(
        not np.array_equal(v, c.param_dict()[k]) for k, v in a.param_dict().items()
    )


def test_mismatched_lstm_count_rejected():
    m = GraspModel.build("D", SMALL)
    with pytest.raises(ValueError, match="one LSTM required per input stream"):
        GraspModel(m.variant, m.lstms[:1], m.head)


# -- featurize ---------------------------------------------------------------


def test_featurize_requires_stats():
    m = GraspModel.build("A", SMALL)
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
    single = m.predict_samples(x[0])
    batch = m.predict_batch(m.featurize(x))
    assert batch.p_unstable.shape == batch.unstable.shape == (3, 30)
    for p, flags in [(single.p_unstable, single.unstable), *zip(batch.p_unstable, batch.unstable)]:
        assert np.isnan(p).all()
        assert flags.all()


def test_zero_params_predict_half_and_tie_unstable():
    m2 = GraspModel.build("B", TrainConfig(lstm_units=4))
    for arr in m2.stored_arrays().values():
        arr[...] = 0.0
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
    return m.head.probs(h.T)[models.CLASS_UNSTABLE]


@pytest.mark.parametrize("tag", ["A", "B", "C", "D"])
@pytest.mark.parametrize("n_windows", [1, 69])
def test_predict_batch_matches_per_window(tag, n_windows, rng):
    m = small_model(tag, stats=NormStats(0.0, 3000.0))
    samples = rng.uniform(0, 3000, size=(n_windows, 30))
    batched = m.predict_batch(m.featurize(samples))
    assert batched.p_unstable.shape == batched.unstable.shape == (n_windows, 30)
    for b, x in enumerate(samples):
        f = m.featurize(x)
        p = batched.p_unstable[b]
        np.testing.assert_allclose(p, m.predict(f).p_unstable, atol=1e-12)
        np.testing.assert_allclose(p, cached_p_unstable(m, f), atol=1e-12)
        np.testing.assert_array_equal(batched.unstable[b], p >= m.threshold)


# One child per kernel set and thread count: for A-D with tests/golden/record.py's
# wide weights at H = 8 and 128, predict_batch of a 130-window stack against
# one-window predict of every ninth window and of windows 64, 71 and 129, and
# predict_batch of its first B windows for B = 1..65 and 72 against the whole
# stack. Prints the core name and every (H, variant, case, count) whose
# probabilities differ in any bit.
_BATCH_SWEEP = """
import json
import numpy as np
from graspslip import data
from graspslip.ioutil import openblas_core_name
from tests.golden import record

sets = data.synth_force_dataset(6, seed=7)
samples = np.stack([g.samples[start : start + 16, 0] for g in sets
                    for start in range(0, g.n_steps - 15, 16)])[:130]
differ = []
for hidden in (8, 128):
    for k, tag in enumerate("ABCD"):
        m = record.golden_model(tag, 40 + k, hidden=hidden)
        feats = m.featurize(samples)
        full = m.predict_batch(feats).p_unstable
        got = {f"window {w}": (full[w], m.predict([f[w] for f in feats]))
               for w in (*range(0, 130, 9), 64, 71, 129)}
        for rows in (*range(1, 66), 72):
            got[f"B={rows}"] = (full[:rows], m.predict_batch([f[:rows] for f in feats]))
        for name, (want, pred) in got.items():
            n = int(np.sum(pred.p_unstable.view(np.int64) != want.view(np.int64)))
            if n:
                differ.append([hidden, tag, name, n])
print(json.dumps({"core": openblas_core_name(), "differ": differ}))
"""


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("coretype", ["SkylakeX", "Haswell", "Sandybridge"])
def test_predict_batch_bits_do_not_depend_on_the_batch(coretype, threads):
    """LstmColumns runs the cell on whole nn.COLUMN_BLOCKs of columns, so a
    window gets the same bits alone and in any stack size, tails and stacks
    past 64 windows included, on every kernel set and thread count."""
    result = run_on_kernel_set(_BATCH_SWEEP, coretype, OPENBLAS_NUM_THREADS=threads)
    assert result["differ"] == [], result["core"]


def test_predict_batch_rejects_unequal_lengths(rng):
    # A stack cannot hold windows of two lengths; D's two streams can
    # still disagree, in steps or in windows.
    d = small_model("D")
    want = r"expected \[\(3, 30, 1\), \(3, 30, 10\)\], got \[\(3, 30, 1\), "
    with pytest.raises(ValueError, match=want + r"\(3, 31, 10\)\]"):
        d.predict_batch([rng.normal(size=(3, 30, 1)), rng.normal(size=(3, 31, 10))])
    with pytest.raises(ValueError, match=want + r"\(2, 30, 10\)\]"):
        d.predict_batch([rng.normal(size=(3, 30, 1)), rng.normal(size=(2, 30, 10))])


@pytest.mark.parametrize("streams, message", [
    ([(0, 30, 1), (0, 30, 10)], r"at least one window, got shapes \[\(0, 30, 1\), \(0, 30, 10\)\]"),
    ([(30, 1), (30, 10)], r"\(windows, steps, dim\) streams .* got shapes \[\(30, 1\), \(30, 10\)\]"),
    ([(3, 30, 1)], r"expected 2 feature stream\(s\), got 1 of shapes \[\(3, 30, 1\)\]"),
    ([(3, 30, 1)] * 3, r"expected 2 feature stream\(s\), got 3 of shapes \[\(3, 30, 1\), "),
    ([(2, 0, 1), (2, 0, 10)], r"at least one step .* got shapes \[\(2, 0, 1\), \(2, 0, 10\)\]"),
])
def test_predict_batch_rejects_bad_stacks_naming_the_shapes(streams, message, rng):
    # Zero windows, a 2-D (steps, dim) stream, the wrong stream count, zero steps.
    with pytest.raises(ValueError, match=message):
        small_model("D").predict_batch([rng.normal(size=shape) for shape in streams])


@pytest.mark.parametrize("tag", "ABCD")
@pytest.mark.parametrize("n_windows", [1, 3, 40])
def test_stacked_featurize_equals_per_window_bit_for_bit(tag, n_windows, rng):
    m = small_model(tag, stats=NormStats(0.0, 3000.0))
    samples = rng.uniform(0, 3000, size=(n_windows, 160))
    stacked = m.featurize(samples)
    assert [s.shape for s in stacked] == [(n_windows, 160, d) for d in m.variant.stream_dims]
    for b, x in enumerate(samples):
        for got, want in zip(stacked, m.featurize(x), strict=True):
            assert got[b].tobytes() == want.tobytes()


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


def test_loss_rejects_stacked_windows_naming_the_shape(rng):
    # Training takes one window at a time; a stack is for predict_batch.
    m = small_model("C")
    with pytest.raises(ValueError, match=r"\(steps, dim\) sequence, got shape \(2, 30, 11\)"):
        m.loss(m.featurize(rng.uniform(0, 1, size=(2, 30))), np.zeros(30, dtype=int))


def test_gradients_pass_finite_difference_check(rng):
    # Small/fast version; the acceptance suite runs the full protocol.
    for tag in "ABCD":
        m = small_model(tag, lstm_units=3, seed=5)
        feats = m.featurize(rng.uniform(0.1, 0.9, size=30))
        y = rng.integers(0, 2, size=30)
        assert nn.grad_check(m, feats, y) < 1e-4, tag


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
    model = GraspModel.build(tag, cfg)
    model.stats = compute_norm_stats([w.samples for w in windows])
    history = train(model, windows, cfg)
    return model, history


def test_train_zero_epochs_is_identity():
    windows = toy_windows()
    cfg = TrainConfig(window_len=60, lstm_units=4, epochs=0)
    model = GraspModel.build("B", cfg)
    model.stats = compute_norm_stats([w.samples for w in windows])
    before = model.copy_params()
    history = train(model, windows, cfg)
    assert history == []
    for k, v in model.param_dict().items():
        np.testing.assert_array_equal(v, before[k])


def test_train_requires_both_classes():
    windows = [w for w in toy_windows() if w.labels.all()]
    cfg = TrainConfig(window_len=60, lstm_units=4, epochs=1)
    model = GraspModel.build("B", cfg)
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
    model = GraspModel.build("B", cfg)
    model.stats = compute_norm_stats([w.samples for w in windows])
    model.head.b[0] = np.nan
    with pytest.raises(nn.TrainingDiverged, match="diverged: non-finite loss"):
        train(model, windows, cfg)


def test_train_rejects_empty_validation_before_any_update():
    windows = toy_windows(n=4)
    cfg = TrainConfig(window_len=60, lstm_units=4, epochs=2)
    model = GraspModel.build("B", cfg)
    model.stats = compute_norm_stats([w.samples for w in windows])
    before = model.copy_params()
    with pytest.raises(ValueError, match="no validation windows"):
        train(model, windows, cfg, val_windows=[])
    for k, v in model.param_dict().items():
        np.testing.assert_array_equal(v, before[k])


def test_fit_variant_refuses_an_empty_validation_list_as_train_does():
    # Only None means "no validation"; an empty list used to train without any.
    train_sets = data.synth_force_dataset(2, seed=1)
    cfg = TrainConfig(window_len=60, lstm_units=4, epochs=1, seed=0, labels="truth")
    with pytest.raises(ValueError, match="no validation windows"):
        fit_variant("B", train_sets, cfg, val_sets=[])


def test_train_featurizes_each_window_set_once_as_a_stack(monkeypatch):
    calls = []
    featurize = GraspModel.featurize

    def counted(self, samples):
        calls.append(np.shape(samples))
        return featurize(self, samples)

    monkeypatch.setattr(GraspModel, "featurize", counted)
    windows, val = toy_windows(n=6), toy_windows(n=4, seed=4)
    cfg = TrainConfig(window_len=60, lstm_units=4, epochs=2)
    model = GraspModel.build("D", cfg)
    model.stats = compute_norm_stats([w.samples for w in windows])
    train(model, windows, cfg)
    assert calls == [(6, 60)]
    calls.clear()
    train(model, windows, cfg, val_windows=val)
    assert calls == [(6, 60), (4, 60)]


def test_train_refuses_windows_of_unequal_length_before_any_update():
    windows = [*toy_windows(n=3), *toy_windows(n=2, steps=61)]
    cfg = TrainConfig(window_len=60, lstm_units=4, epochs=2)
    model = GraspModel.build("B", cfg)
    model.stats = compute_norm_stats([w.samples for w in windows])
    before = model.copy_params()
    with pytest.raises(ValueError, match="same shape"):
        train(model, windows, cfg)
    for k, v in model.param_dict().items():
        np.testing.assert_array_equal(v, before[k])


def test_early_stop_restores_best_params():
    windows = toy_windows(n=20, seed=3)
    val = toy_windows(n=8, seed=4)
    cfg = TrainConfig(window_len=60, lstm_units=6, epochs=12, seed=1)
    model = GraspModel.build("B", cfg)
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


def test_views_taken_before_train_stay_live():
    # train writes every Adam step and the early-stop restore into the
    # model's own arrays, so views taken beforehand see the trained values.
    windows = toy_windows(n=20, seed=3)
    cfg = TrainConfig(window_len=60, lstm_units=6, epochs=3, seed=1)
    model = GraspModel.build("D", cfg)
    model.stats = compute_norm_stats([w.samples for w in windows])
    views, stored, initial = model.param_dict(), model.stored_arrays(), model.copy_params()
    train(model, windows, cfg, val_windows=toy_windows(n=8, seed=4))
    assert all(model.stored_arrays()[k] is a for k, a in stored.items())
    for k, v in model.param_dict().items():
        np.testing.assert_array_equal(views[k], v)
    assert all(not np.array_equal(views[k], initial[k]) for k in ("lstm0.w_i", "lstm1.w_g", "fc.w"))


def test_early_stop_stops_after_patience_epochs_without_improvement():
    # lr=1e-12 leaves validation success flat after epoch 0, so training
    # stops EARLY_STOP_PATIENCE epochs later, well before the 30 allowed.
    train_sets, val_sets = data.split(data.synth_force_dataset(10, seed=1), 0.6)
    cfg = TrainConfig(window_len=60, lstm_units=4, epochs=30, lr=1e-12, seed=0, labels="truth")
    _, history = fit_variant("C", train_sets, cfg, val_sets=val_sets)
    assert len(history) == 1 + models.EARLY_STOP_PATIENCE == 11


@pytest.mark.parametrize("over, match", [
    ({"threshold": 1.5}, "threshold"), ({"threshold": float("nan")}, "threshold"),
], ids=["threshold-1.5", "threshold-nan"])
def test_model_rejects_threshold_and_loss_mode_out_of_range(over, match):
    m = small_model("B")
    with pytest.raises(ValueError, match=match):
        GraspModel(m.variant, m.lstms, m.head, m.stats, **over)


@pytest.mark.parametrize("threshold", ["0.5", True, None])
def test_model_refuses_a_threshold_that_is_not_a_number(threshold):
    # float("0.5") used to let a text threshold through
    m = small_model("B")
    with pytest.raises(ValueError, match=re.escape(
            f"threshold must be a finite number in (0, 1), got {threshold!r}")):
        GraspModel(m.variant, m.lstms, m.head, m.stats, threshold=threshold)


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
    m = GraspModel.build("A", SMALL)
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
    ("norm_stats", {"min": "0", "max": "4000"}), ("norm_stats", {"min": False, "max": True}),
    ("norm_stats", {"min": 0.0, "max": 1.0, "mean": 0.5}), ("norm_stats", {"min": 0, "max": 10**400}),
    ("threshold", 10**400),
    ("kind", None), ("kind", 7),
    ("stft_window", 32), ("band_count", 8), ("loss_mode", "last-step"),
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


GOLDEN_C = Path(__file__).parent / "golden" / "C.gslp"
HEADER_VALUES = [True, 0, -1, 2**63, 1e308, "1", None, [], {}]


def golden_c_header_and_body():
    raw = GOLDEN_C.read_bytes()
    header, arrays = models.read_blob(GOLDEN_C)
    return header, raw[-64 - 8 * sum(a.size for a in arrays.values()) : -64]


@pytest.mark.parametrize("key", list(models.CHECKPOINT_KEYS))
def test_read_blob_refuses_a_header_value_exactly_when_its_rule_does(tmp_path, key):
    path = tmp_path / "C.gslp"
    rule = models.CHECKPOINT_KEYS[key]
    for value in HEADER_VALUES:
        header, body = golden_c_header_and_body()
        header[key] = value
        write_raw_blob(path, header, body)
        try:
            models.read_blob(path)
        except models.CheckpointError as exc:
            assert not rule.takes(value), (key, value, exc)
            named = "do not match variant C" if key == "arrays" else f"checkpoint '{key}' must be "
            assert named in str(exc)
        else:
            assert rule.takes(value), (key, value)


def test_read_blob_refuses_a_header_key_not_in_its_table(tmp_path):
    # An added key used to load silently; a later format's key must not.
    path = tmp_path / "C.gslp"
    for key, value in (("freq_hz", 71.0), ("whatever", [1, 2])):
        header, body = golden_c_header_and_body()
        header[key] = value
        write_raw_blob(path, header, body)
        with pytest.raises(models.CheckpointError, match=f"'{key}' is not a checkpoint header key"):
            models.read_blob(path)


# -- the alarm bound ----------------------------------------------------------------


def silence(m, edit):
    """Apply a named finite edit that leaves a model unable to flag any step."""
    if edit == "output gates off":  # p_unstable = sigmoid(-1) = 0.269 at every step
        for p in m.lstms:
            nn.gate_views(p.k)["b_o"][...] = -1e300
        m.head.b[1] = m.head.b[0] - 1.0
    else:
        m.head.b[1] = -1e300
    return m


def test_golden_checkpoints_clear_the_alarm_bound():
    # margin = alarm_bound - logit(threshold); all four are trained to alarm
    margins = {}
    for tag in "ABCD":
        m = load_checkpoint(GOLDEN_C.with_name(f"{tag}.gslp"))
        margins[tag] = models.alarm_bound(m) - np.log(m.threshold / (1 - m.threshold))
    assert margins == pytest.approx({"A": 3.208, "B": 3.182, "C": 3.654, "D": 7.348}, abs=1e-3)


@pytest.mark.parametrize("edit, bound", [("output gates off", "-1"), ("unstable bias", "-1e+300")])
def test_checkpoint_that_can_never_raise_an_alarm_is_refused(tmp_path, edit, bound):
    # the first edit used to load, and eval reported an ahead-drop rate of 0 on it
    path = tmp_path / "silent.gslp"
    save_checkpoint(silence(load_checkpoint(GOLDEN_C), edit), path)
    with pytest.raises(models.CheckpointError, match=re.escape(
            f"can never raise an alarm: its unstable-minus-stable logit is at most {bound}, "
            "below logit(threshold) 0")):
        load_checkpoint(path)


def test_checkpoint_that_always_alarms_loads(tmp_path):
    # the bound is one-sided: never reading "stable" is the fail-safe side
    m = load_checkpoint(GOLDEN_C)
    for p in m.lstms:
        nn.gate_views(p.k)["b_o"][...] = -1e300
    m.head.b[...] = [-1e300, 1e300]
    path = tmp_path / "loud.gslp"
    save_checkpoint(m, path)
    assert load_checkpoint(path).predict_samples(np.full(30, 1000.0)).unstable.all()


def largest_logit(m, rows):
    """The largest unstable-minus-stable logit of ``m`` over (steps, B, 11)
    feature rows, each stream stepped on its columns of them."""
    columns, seen = m.lstm_columns(rows.shape[1]), -np.inf
    with np.errstate(over="ignore"):
        for row in rows:
            h = np.concatenate([col.step(row[:, s.start : s.stop].T)[:, : len(row)]
                                for col, s in zip(columns, m.variant.streams)])
            logits = m.head.w @ h + m.head.b[:, None]
            seen = max(seen, float((logits[1] - logits[0]).max()))
    return seen


@pytest.mark.parametrize("seed", range(12))
def test_no_logit_in_the_input_box_exceeds_the_alarm_bound(seed):
    # random small models, fed features anywhere in [0, FEATURE_MAX], half
    # the columns at the box's corners, over enough steps for h to wander
    rng = np.random.default_rng(seed)
    m = GraspModel.build("ABCD"[seed % 4], TrainConfig(lstm_units=int(rng.integers(1, 5))))
    scale = rng.uniform(0.5, 4.0)
    for arr in m.stored_arrays().values():
        arr[...] = rng.uniform(-scale, scale, size=arr.shape)
    rows = rng.uniform(0.0, 1.0, size=(40, 16, models.FEATURE_MAX.size))
    rows[:, ::2] = rows[:, ::2] > 0.5
    assert largest_logit(m, rows * models.FEATURE_MAX) <= models.alarm_bound(m)


def test_alarm_bound_is_reached_by_a_saturated_cell():
    # one unit whose c grows by 1 a step and whose output gate, fed x = 1, is
    # driven up through h toward sigmoid(4 + 10 - 5): the bound is met to 1e-6, so
    # a bound that dropped the x or the h term would fall below the logit seen
    m = GraspModel.build("A", TrainConfig(lstm_units=1))
    for arr in m.stored_arrays().values():
        arr[...] = 0.0
    gates = nn.gate_views(m.lstms[0].k)
    for g in "ifg":
        gates[f"b_{g}"][...] = 30.0
    gates["w_o"][...], gates["b_o"][...] = [[4.0, 10.0]], -5.0
    m.head.w[1] = 1.0
    bound = models.alarm_bound(m)
    assert bound == pytest.approx(1 / (1 + np.exp(-9.0)), abs=1e-15)
    assert 0 <= bound - largest_logit(m, np.ones((40, 1, 11))) < 1e-6


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


@pytest.mark.parametrize("manifest, body, fault", [
    ([{"name": "w", "shape": [4, 1 << 40]}], b"\0" * 64, "exceeds the file"),
    ([{"name": "w", "shape": [9]}], b"\0" * 64, "exceeds the file"),
    ([{"name": "w", "shape": [-1, 4]}], b"", "malformed array entry"),
    ([{"name": "w", "shape": [2.0]}], b"\0" * 16, "malformed array entry"),
    ([{"name": "w"}], b"", "malformed array entry"),
    ([{"name": "w", "shape": [1]}, {"name": "w", "shape": [1]}], b"\0" * 16, "duplicate"),
    ({"name": "w", "shape": [1]}, b"\0" * 8, "'arrays' list"),
    (None, b"", "'arrays' list"),
])
def test_read_blob_rejects_bad_manifest(tmp_path, manifest, body, fault):
    # Each manifest has one fault; on a valid D header it is refused as not
    # the one manifest that header implies, before any array is read.
    path, header, _ = saved_blob(tmp_path)
    del header["arrays"]
    if manifest is not None:
        header["arrays"] = manifest
    write_raw_blob(path, header, body)
    with pytest.raises(models.CheckpointError, match="do not match variant D at hidden_dim 6"):
        models.read_blob(path)


@pytest.mark.parametrize("hidden_dim", [7, 10**12])
def test_read_blob_checks_the_body_length_before_reading_an_array(tmp_path, hidden_dim):
    # The manifest is the one the header implies, but the body holds D's
    # arrays at hidden_dim 6; 10**12 would need 8e24 bytes, so the file is
    # refused before any array is allocated.
    path, header, arrays = saved_blob(tmp_path)
    header["hidden_dim"] = hidden_dim
    header["arrays"] = [{"name": n, "shape": list(s)}
                        for n, s in models._manifest(get_variant("D"), hidden_dim)]
    body = b"".join(arrays[n].astype("<f8").tobytes() for n in sorted(arrays))
    write_raw_blob(path, header, body)
    with pytest.raises(models.CheckpointError, match=f"parameter data holds {len(body)} bytes"):
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
