import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graspslip import models, nn
from graspslip.signal import NormStats
from graspslip.stream import StreamingPredictor
from tests import oracles
from tests.blas import run_on_kernel_set


def make_params(input_dim=3, hidden_dim=4, seed=0, scale=0.4):
    rng = np.random.default_rng(seed)
    return nn.LstmParams.init(input_dim, hidden_dim, rng, scale=scale)


# -- activations ---------------------------------------------------------


def kernel_gates(a):
    """The gates i|f|o|g that lstm_cell computes for pre-activations ``a``.

    One input unit, one hidden unit, and every gate wired to a = x.
    """
    p = nn.LstmParams.from_gates({**{f"w_{g}": np.ones((1, 2)) for g in nn.GATE_NAMES},
                                  **{f"b_{g}": np.zeros(1) for g in nn.GATE_NAMES}})
    a = np.asarray(a, dtype=np.float64)
    z = np.stack([a, np.zeros_like(a), np.ones_like(a)])
    gates = np.empty((4, a.size))
    c, tc, h = (np.zeros((1, a.size)) for _ in range(3))
    with np.errstate(over="ignore"):
        nn.lstm_cell(z, p.cell_kernel(), c, gates, c, tc, h)
    return gates.T


def test_sigmoid_extremes_are_stable():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gates = kernel_gates([-1000.0, 0.0, 1000.0])
    np.testing.assert_array_equal(gates[:, :3], [[0.0] * 3, [0.5] * 3, [1.0] * 3])
    np.testing.assert_array_equal(gates[:, 3], [-1.0, 0.0, 1.0])


def test_tanh_gate_keeps_relative_precision():
    """g near 0 keeps full relative precision: 2 sigmoid(2a) - 1 would round
    these to 0 or to a multiple of ~1e-16, and batched and one-at-a-time
    passes over a state decaying toward 0 would then disagree at the
    threshold."""
    a = np.array([1e-8, -3e-17, 1e-200, 5e-324])
    np.testing.assert_array_equal(kernel_gates(a)[:, 3], np.tanh(a))


@given(st.floats(min_value=-50, max_value=50))
def test_sigmoid_symmetry(x):
    up, down = kernel_gates([x, -x])
    assert up[0] + down[0] == pytest.approx(1.0, abs=1e-12)
    assert up[3] == np.tanh(x) and down[3] == np.tanh(-x)


def logit_head(bias=(0.0, 0.0)):
    """A head whose logits are its two inputs plus ``bias``."""
    return nn.FcHead(w=np.eye(2), b=np.array(bias, dtype=np.float64))


def test_probs_rows_sum_to_one_at_large_logits(rng):
    p = logit_head().probs(rng.normal(size=(2, 6)) * 10)
    np.testing.assert_allclose(p.sum(axis=0), 1.0, atol=1e-12)
    assert p.min() >= 0


def test_probs_bias_shift_invariance(rng):
    z = rng.normal(size=(2, 4))
    np.testing.assert_allclose(logit_head().probs(z), logit_head((100.0, 100.0)).probs(z),
                               atol=1e-12)


def test_probs_extreme_logits_finite():
    p = logit_head((1000.0, -1000.0)).probs(np.zeros((2, 1)))
    np.testing.assert_allclose(p, [[1.0], [0.0]], atol=1e-12)


def reduce_softmax(logits):
    """The N-class softmax over the first axis, written with reduces."""
    z = logits - np.maximum.reduce(logits, axis=0, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=0, keepdims=True)
    return z


@pytest.mark.parametrize("bias", [(0.0, 0.0), (1e3, -1e3), (-1e3, 1e3), (1e3, 1e3),
                                  (np.inf, 0.0), (0.0, -np.inf), (np.inf, np.inf),
                                  (np.inf, -np.inf), (-np.inf, -np.inf)])
def test_probs_equal_reduce_softmax_bit_for_bit(bias, rng):
    head = nn.FcHead(w=rng.normal(size=(2, 5)), b=np.array(bias))
    h = rng.normal(size=(5, 21)) * 50
    with np.errstate(invalid="ignore"):
        p = head.probs(h)
        logits = head.w @ h
        logits += head.b[:, None]
        expected = reduce_softmax(logits)
    assert p.shape == expected.shape
    assert p.tobytes() == expected.tobytes()


# One child per kernel set and thread count: wide heads over 128 and 256
# hidden units (one LSTM, and D's two) score 20 random (in_dim, 64) blocks of
# hidden columns, then the first 8, 16, ..., 56 columns of each as a block of
# its own. Prints the core name and every (in_dim, width) whose probabilities
# differ from the 64-column block's in any bit.
_HEAD_BLOCKS = """
import json
import numpy as np
from graspslip import nn
from graspslip.ioutil import openblas_core_name

rng = np.random.default_rng(0)
differ = []
for in_dim in (128, 256):
    head = nn.FcHead(w=rng.uniform(-0.6, 0.6, size=(2, in_dim)), b=rng.uniform(-0.3, 0.3, size=2))
    for _ in range(20):
        block = rng.uniform(-1.0, 1.0, size=(in_dim, 64))
        full = head.probs(block)
        for width in range(nn.COLUMN_BLOCK, 64, nn.COLUMN_BLOCK):
            part = head.probs(np.ascontiguousarray(block[:, :width]))
            if part.tobytes() != np.ascontiguousarray(full[:, :width]).tobytes():
                differ.append([in_dim, width])
print(json.dumps({"core": openblas_core_name(), "differ": differ}))
"""


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("coretype", ["SkylakeX", "Haswell", "Sandybridge"])
def test_probs_of_a_row_do_not_depend_on_the_other_rows(coretype, threads):
    """A batch row (a window or a channel) is one column of the hidden
    block the head scores, and its probabilities get the same bits in
    every block of whole COLUMN_BLOCKs up to 64 wide, the widths
    GraspModel.step passes: online frames of C channels and offline stacks
    of windows agree, on every kernel set and thread count."""
    result = run_on_kernel_set(_HEAD_BLOCKS, coretype, OPENBLAS_NUM_THREADS=threads)
    assert result["differ"] == [], result["core"]


def test_probs_nan_bias_gives_nan_rows(rng):
    p = nn.FcHead(w=rng.normal(size=(2, 5)), b=np.array([np.nan, 0.0])).probs(
        rng.normal(size=(5, 4)))
    assert np.isnan(p).all()


# -- LSTM cell ---------------------------------------------------------------


def test_lstm_params_shapes():
    p = make_params(3, 4)
    assert p.k.shape == (8, 16) and p.k.flags.c_contiguous
    gates = nn.gate_views(p.k)
    assert gates["w_i"].shape == (4, 7)
    assert gates["b_g"].shape == (4,)
    assert p.input_dim == 3 and p.hidden_dim == 4
    gates["b_o"][...] = np.arange(4.0)  # a live view: the write lands in K
    np.testing.assert_array_equal(p.k[7, 8:12], np.arange(4.0))
    k = p.cell_kernel()
    assert k.shape == (16, 8) and k.flags.c_contiguous
    np.testing.assert_array_equal(k[:4, :7], -gates["w_i"])
    np.testing.assert_array_equal(k[8:12, 7], -gates["b_o"])
    np.testing.assert_array_equal(k[12:, :7], gates["w_g"])
    np.testing.assert_array_equal(p.k[:, 12:], k[12:].T)  # K itself stays un-negated
    assert not np.shares_memory(k, p.k)


def test_lstm_params_zero_biases():
    p = make_params()
    for name in ("b_i", "b_f", "b_o", "b_g"):
        np.testing.assert_array_equal(nn.gate_views(p.k)[name], 0.0)


def test_lstm_params_from_gates_round_trips():
    p = make_params(3, 4, seed=5)
    again = nn.LstmParams.from_gates({n: a.copy() for n, a in nn.gate_views(p.k).items()})
    np.testing.assert_array_equal(again.k, p.k)
    assert again.k.flags.c_contiguous


def test_lstm_params_init_draws_gates_in_order():
    """Seeded init draws i, f, o, g as (H, D+H) arrays, as checkpoints expect."""
    rng = np.random.default_rng(4)
    want = [rng.uniform(-0.4, 0.4, size=(4, 7)) for _ in nn.GATE_NAMES]
    gates = nn.gate_views(make_params(3, 4, seed=4).k)
    for g, w in zip(nn.GATE_NAMES, want):
        np.testing.assert_array_equal(gates[f"w_{g}"], w)


def step_cell(x, h, c, p):
    """One lstm_cell update of a (B, H) state from raw (B, D) inputs; the
    cell itself works on (H, B) columns."""
    z = np.concatenate([x, h, np.ones((x.shape[0], 1))], axis=1).T
    gates = np.empty((4 * p.hidden_dim, x.shape[0]))
    h_new, c_new, tc = np.empty_like(h.T), np.empty_like(c.T), np.empty_like(c.T)
    nn.lstm_cell(z, p.cell_kernel(), c.T, gates, c_new, tc, h_new)
    return h_new.T, c_new.T


def column_states(x, p):
    """(B, n, D) sequences -> (B, n, H) hidden states, stepped from the zero
    state through one nn.LstmColumns: the first B columns of its padded h'."""
    bsz = x.shape[0]
    cols = nn.LstmColumns(p, bsz)
    with np.errstate(over="ignore"):
        return np.stack([cols.step(x[:, t].T)[:, :bsz].T.copy() for t in range(x.shape[1])], axis=1)


def test_lstm_cell_dim_mismatch():
    p = make_params(3, 4)
    with pytest.raises(ValueError, match="input dimension mismatch"):
        nn.LstmColumns(p, 5).step(np.zeros((2, 5)))
    with pytest.raises(ValueError, match="input dimension mismatch"):
        nn.lstm_forward_cache(np.zeros((5, 2)), p)
    with pytest.raises(ValueError):  # a (B, 5) state against H = 4
        step_cell(np.zeros((2, 3)), np.zeros((2, 5)), np.zeros((2, 5)), p)


def test_lstm_cell_hidden_bounded(rng):
    p = make_params(2, 5, scale=2.0)
    h = c = np.zeros((3, 5))
    for _ in range(50):
        h, c = step_cell(rng.normal(size=(3, 2)) * 10, h, c, p)
        assert np.all(np.abs(h) < 1.0)


def test_forward_cache_matches_stepwise(rng):
    p = make_params(3, 4, seed=2)
    x = rng.normal(size=(25, 3))
    cache = nn.lstm_forward_cache(x, p)
    h = c = np.zeros((1, 4))
    for t in range(25):
        h, c = step_cell(x[t : t + 1], h, c, p)
        np.testing.assert_allclose(cache.h_all[t + 1], h[0], atol=1e-12)
        np.testing.assert_allclose(cache.c_all[t + 1], c[0], atol=1e-12)


# (128, 16) and (128, 40) are the benchmark's batched sizes, where the cell
# takes one product per gate; B = 1 sequences take the whole kernel at once.
@pytest.mark.parametrize("hd, bsz", [(4, 5), (128, 16), (128, 40)])
def test_lstm_columns_match_forward_cache_per_sequence(hd, bsz, rng):
    p = make_params(11, hd, seed=3)
    x = rng.normal(size=(bsz, 25, 11))
    hidden = column_states(x, p)
    assert hidden.shape == (bsz, 25, hd)
    for k in range(bsz):
        np.testing.assert_allclose(hidden[k], nn.lstm_forward_cache(x[k], p).h_all[1:], atol=1e-12)


class _RowLog(np.ndarray):
    """A cell kernel that logs the (start, stop) row blocks lstm_cell takes."""

    def __getitem__(self, key):
        rows = range(len(self))[key]
        self.blocks.append((rows.start, rows.stop))
        return np.asarray(self)[key]


@pytest.mark.parametrize("bsz, per_product", [(0, 4), (1, 4), (7, 4), (8, 3), (10, 2),
                                              (14, 2), (15, 1), (16, 1), (64, 1)])
def test_lstm_cell_takes_whole_gates_per_one_thread_product(bsz, per_product):
    """At H = 128, D = 11 each product is the most whole gates that stay
    below nn.ONE_THREAD_MACS multiply-adds, and at least one gate.
    bsz 0 is a 1-D z."""
    k = make_params(11, 128).cell_kernel().view(_RowLog)
    k.blocks = []
    cols = (bsz,) if bsz else ()
    nn.lstm_cell(np.ones((140,) + cols), k, np.zeros((128,) + cols), np.empty((512,) + cols),
                 *(np.empty((128,) + cols) for _ in range(3)))
    rows, macs_per_row = 128 * per_product, 140 * max(bsz, 1)
    assert k.blocks == [(j, min(j + rows, 512)) for j in range(0, 512, rows)]
    assert per_product == 1 or rows * macs_per_row < nn.ONE_THREAD_MACS
    assert per_product == 4 or (rows + 128) * macs_per_row >= nn.ONE_THREAD_MACS


# One child per kernel set: for H in {7, 128}, D in {1, 10, 11} and B = 1..64
# (a 1-D z at B = 1), lstm_cell's row blocks against the whole product (taken
# with the bound lifted) and against one product per gate (bound 1). Prints the
# core name and, per reference, the (H, D, B) cases that differ in any bit.
_SWEEP = """
import json
import numpy as np
from graspslip import nn
from graspslip.ioutil import openblas_core_name

rng = np.random.default_rng(0)
bound, differ = nn.ONE_THREAD_MACS, {"whole": [], "per_gate": []}
for hd in (7, 128):
    for d in (1, 10, 11):
        k = nn.LstmParams.init(d, hd, rng, scale=0.5).cell_kernel()
        for bsz in range(1, 65):
            cols = (bsz,) if bsz > 1 else ()
            z, c = rng.normal(size=(d + hd + 1,) + cols), rng.normal(size=(hd,) + cols)
            outs = []
            for nn.ONE_THREAD_MACS in (bound, 2**62, 1):
                bufs = [np.empty((4 * hd,) + cols)] + [np.empty((hd,) + cols) for _ in range(3)]
                with np.errstate(over="ignore"):
                    nn.lstm_cell(z, k, c, *bufs)
                outs.append(b"".join(b.tobytes() for b in bufs))
            for ref, out in zip(differ, outs[1:]):
                if out != outs[0]:
                    differ[ref].append([hd, d, bsz, k.size * bsz])
print(json.dumps({"core": openblas_core_name(), **differ}))
"""


@pytest.mark.parametrize("coretype", [None, "Haswell", "Sandybridge"])
def test_lstm_cell_blocks_equal_whole_product_per_kernel_set(coretype):
    """The rule's blocks give the whole product's bits wherever that product
    has under 1e6 multiply-adds. Above that the SkylakeX kernels leave their
    small-matrix path and the whole product rounds differently (at H = 128,
    B = 17-20, 25-28, ... here); lstm_cell never takes it there. At H = 128,
    where a gate is a whole number of the kernels' row tiles, the blocks also
    give one-product-per-gate bits at every B; at H = 7 they do not."""
    result = run_on_kernel_set(_SWEEP, coretype, OPENBLAS_NUM_THREADS="1")
    assert [case for case in result["whole"] if case[3] < 1_000_000] == [], result["core"]
    assert [case for case in result["per_gate"] if case[0] == 128] == [], result["core"]


def test_forward_cache_rejects_empty():
    p = make_params()
    with pytest.raises(ValueError, match="empty sequence"):
        nn.lstm_forward_cache(np.zeros((0, 3)), p)


# -- saturation: pre-activations of +-1e3 --------------------------------------


def saturated_params():
    """Zero weights; unit 0 gets biases (+,-,+,-)e3 on i,f,o,g, unit 1 the opposite.

    Unit 0: i = o = 1, f = 0, g = -1, so c = -1 and h = tanh(-1) every step.
    Unit 1: i = o = 0, f = 1, g = +1, so c = h = 0.
    """
    p = nn.LstmParams(np.zeros((1 + 2 + 1, 4 * 2)))
    for name, sign in zip(("b_i", "b_f", "b_o", "b_g"), (1.0, -1.0, 1.0, -1.0)):
        nn.gate_views(p.k)[name][...] = np.array([sign, -sign]) * 1e3
    return p


SATURATED_GATES = [1.0, 0.0, 0.0, 1.0, 1.0, 0.0, -1.0, 1.0]
SATURATED_H = [np.tanh(-1.0), 0.0]


def test_forward_cache_saturates_exactly(rng):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cache = nn.lstm_forward_cache(rng.normal(size=(9, 1)), saturated_params())
    np.testing.assert_array_equal(cache.gates, np.tile(SATURATED_GATES, (9, 1)))
    np.testing.assert_array_equal(cache.c_all[1:], np.tile([-1.0, 0.0], (9, 1)))
    np.testing.assert_array_equal(cache.h_all[1:], np.tile(SATURATED_H, (9, 1)))


def test_lstm_columns_saturate_exactly(rng):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hidden = column_states(rng.normal(size=(3, 9, 1)), saturated_params())
    np.testing.assert_array_equal(hidden, np.tile(SATURATED_H, (3, 9, 1)))


def test_push_frame_saturates_exactly(rng):
    head = nn.FcHead(w=np.array([[1.0, 2.0], [-1.0, 0.5]]), b=np.zeros(2))
    m = models.GraspModel(models.VARIANTS["A"], [saturated_params()], head,
                          stats=NormStats(0.0, 3000.0))
    x = rng.uniform(0, 3000, size=(4, 9))
    pred = StreamingPredictor(m, n_channels=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        online = np.stack([pred.push_frame(x[:, t])[0] for t in range(9)], axis=1)
    expected = head.probs(np.array(SATURATED_H)[:, None])[models.CLASS_UNSTABLE, 0]
    np.testing.assert_array_equal(online, np.full((4, 9), expected))


# -- BPTT against finite differences ------------------------------------------


class _BareLstm:
    """grad_check adapter: loss = sum(R * h_t) over a raw LSTM."""

    def __init__(self, params, weights):
        self.params = params
        self.weights = weights

    def stored_arrays(self):
        return {"k": self.params.k}

    def loss(self, features, labels):
        cache = nn.lstm_forward_cache(features, self.params)
        return float(np.sum(self.weights * cache.h_all[1:]))

    def loss_and_grads(self, features, labels):
        cache = nn.lstm_forward_cache(features, self.params)
        loss = float(np.sum(self.weights * cache.h_all[1:]))
        return loss, {"k": nn.lstm_backward(self.params, cache, self.weights)}


def test_lstm_backward_matches_finite_differences(rng):
    for seed in range(5):
        p = make_params(2, 3, seed=seed, scale=0.5)
        x = np.random.default_rng(seed + 100).normal(size=(9, 2))
        weights = np.random.default_rng(seed + 200).normal(size=(9, 3))
        model = _BareLstm(p, weights)
        assert nn.grad_check(model, x, None) < 1e-4


def test_grad_check_empty_params_is_zero():
    class Empty:
        def stored_arrays(self):
            return {}

    assert nn.grad_check(Empty(), None, None) == 0.0


# -- Adam ---------------------------------------------------------------------


def test_adam_first_step_magnitude_is_lr():
    opt = nn.AdamState(lr=0.0006)
    theta = {"w": np.array([1.0, -2.0])}
    grads = {"w": np.array([3.0, -0.5])}
    before = theta["w"].copy()
    nn.adam_step(theta, grads, opt)
    delta = theta["w"] - before
    # bias-corrected first step is -lr * g / (|g| + eps) = -lr * sign(g)
    np.testing.assert_allclose(np.abs(delta), 0.0006, rtol=1e-6)
    assert delta[0] < 0 and delta[1] > 0


def test_adam_accumulates_moments():
    opt = nn.AdamState(lr=0.1)
    theta = {"w": np.array([1.0])}
    g = {"w": np.array([1.0])}
    t0 = theta["w"][0]
    nn.adam_step(theta, g, opt)
    t1 = theta["w"][0]
    nn.adam_step(theta, g, opt)
    assert opt.t == 2
    assert theta["w"][0] < t1 < t0


def test_adam_creates_each_moment_once(monkeypatch, rng):
    # The two moment arrays per parameter are made on the first step only.
    calls = []

    def counting_zeros_like(a, *args, **kwargs):
        calls.append(a.shape)
        return zeros_like(a, *args, **kwargs)

    zeros_like = np.zeros_like
    monkeypatch.setattr(np, "zeros_like", counting_zeros_like)
    params = {"k": rng.normal(size=(4, 3)), "b": rng.normal(size=3)}
    opt = nn.AdamState()
    for _ in range(3):
        nn.adam_step(params, {name: rng.normal(size=p.shape) for name, p in params.items()}, opt)
    assert calls == [(4, 3), (4, 3), (3,), (3,)]
    assert opt.t == 3 and opt.m.keys() == opt.v.keys() == params.keys()


def test_adam_minimizes_quadratic_fast():
    theta = np.array([1.0])
    opt = nn.AdamState(lr=0.01)
    for _ in range(2000):
        nn.adam_step({"t": theta}, {"t": 2.0 * theta}, opt)
    assert abs(theta[0]) < 1e-3


def test_adam_rejects_nonfinite_gradient():
    opt = nn.AdamState()
    params = {"v": np.zeros(2), "w": np.zeros(2)}
    with pytest.raises(nn.TrainingDiverged, match="diverged: non-finite gradient"):
        nn.adam_step(params, {"v": np.ones(2), "w": np.array([1.0, np.nan])}, opt)
    # every gradient is checked before any array changes
    assert opt.t == 0 and not params["v"].any()


# -- clipping -------------------------------------------------------------------


def test_clip_gradients_caps_global_norm(rng):
    grads = {"a": rng.normal(size=(4, 4)) * 100, "b": rng.normal(size=3) * 100}
    clipped = nn.clip_gradients(grads, 5.0)
    total = np.sqrt(sum(np.sum(g * g) for g in clipped.values()))
    assert total == pytest.approx(5.0, rel=1e-9)
    # direction preserved
    ratio = clipped["a"] / grads["a"]
    np.testing.assert_allclose(ratio, ratio.ravel()[0])


def test_clip_gradients_below_cap_untouched():
    grads = {"a": np.array([0.3, 0.4])}
    assert nn.clip_gradients(grads, 5.0) is grads


@given(st.floats(min_value=0.1, max_value=100.0))
@settings(max_examples=25)
def test_clip_gradients_never_exceeds_cap(cap):
    grads = {"a": np.array([30.0, -40.0])}
    clipped = nn.clip_gradients(grads, cap)
    total = np.sqrt(sum(np.sum(g * g) for g in clipped.values()))
    assert total <= cap * (1 + 1e-12)


# -- fc head ---------------------------------------------------------------------


def test_head_probs_rows_sum_to_one(rng):
    head = nn.FcHead.init(4, rng)
    p = head.probs(rng.normal(size=(4, 21)))
    assert p.shape == (2, 21)
    np.testing.assert_allclose(p.sum(axis=0), 1.0, atol=1e-12)


def test_head_probs_dim_mismatch(rng):
    head = nn.FcHead.init(4, rng)
    with pytest.raises(ValueError):
        head.probs(np.zeros((3, 2)))  # 3 hidden units against 4
