"""Sequence-model numerics in plain numpy, double precision throughout.

LSTM cell, gate order i, f, o, g, over z_t = [x_t, h_{t-1}, 1]:
    a = z_t K,  K = [W_x; W_h; b]  (D+H+1, 4H), the stored ``LstmParams.k``
    i, f, o = sigmoid(a_{i,f,o}),  g = tanh(a_g)
    c' = f * c + i * g,  h' = o * tanh(c')

Every forward pass runs one folded kernel, ``lstm_cell``, on a working
copy of K^T (``LstmParams.cell_kernel``, taken once per pass) whose i/f/o
rows are scaled by -1, an exact power of two. Inference steps through
``LstmColumns``, online and offline alike, in whole column blocks, and
``FcHead.probs`` scores those same whole blocks of hidden columns, so a
sequence gets the same bits at any batch size; training's B=1 pass,
``lstm_forward_cache``, keeps every step for BPTT. A batch is laid out by
columns, z (D+H+1, B) and state (H, B), so u = K^T z holds all four
gates' pre-activations as four contiguous (H, B) blocks, and one
exp/add/reciprocal pass over the first 3H rows,

    i|f|o = 1 / (1 + exp(u_{i,f,o})),

gives the sigmoids, and g = tanh(u_g). An exp that overflows to inf
gives the saturated gate exactly (0); callers silence that overflow
warning once around each loop.

u is taken in row blocks of whole gates: each block is the most gates
whose product with z stays below ``ONE_THREAD_MACS`` multiply-adds, where
OpenBLAS runs it on one thread, and at least one gate: only a gate past
the bound fans out over BLAS threads, where a descheduled peer thread
stretches a real-time frame. At H = 128, D = 11 one column (a 1-D z) to 7 columns take the
whole kernel, 8-14 two or three gates per product, and 15 or more one
gate. On OpenBLAS 0.3.31 the blocks give the bits of the whole product
below 1e6 multiply-adds, and at H = 128 those of one gate per product.

g keeps its own tanh, not tanh(a) = 2 sigmoid(2a) - 1 from the same exp
pass: that identity's error is absolute (up to ~4e-16), so for tiny a it
is all error. A state decaying toward zero then rounds differently in
batched and one-at-a-time passes, and a probability within an ulp of the
threshold flips its flag between the two.

Training gradients come from exact backpropagation through time, so a
central finite-difference check must agree to ~1e-4 relative error; the
``grad_check`` harness below runs that comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Adam's decay rates and denominator floor: Kingma & Ba's defaults.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# OpenBLAS's interface/gemm.c keeps a GEMM on one thread while M*N*K per thread
# is below SMP_THRESHOLD_MIN (65,536) x GEMM_MULTITHREAD_THRESHOLD (4), so any
# product of fewer than 2 x 65,536 x 4 multiply-adds runs on one thread.
ONE_THREAD_MACS = 524_288
# LstmColumns pads a batch to whole blocks of this many columns, which OpenBLAS
# rounds alike: a lone column, and on SkylakeX a tail of 1-4 columns past a
# multiple of 8 (so even padding is not enough), round apart. Not a tuning knob.
COLUMN_BLOCK = 8


class TrainingDiverged(RuntimeError):
    """Raised when a loss or gradient goes non-finite."""


GATE_NAMES = ("i", "f", "o", "g")


def gate_views(k: np.ndarray) -> dict[str, np.ndarray]:
    """Live per-gate views of a (D+H+1, 4H) kernel or of its gradient.

    ``w_{g}`` is the (H, D+H) weight over [x; h] and ``b_{g}`` the (H,)
    bias of gate g; writing to a view writes to ``k``.
    """
    hd = k.shape[1] // 4
    cols = [k[:, j * hd : (j + 1) * hd] for j in range(4)]
    return {**{f"w_{g}": c[:-1].T for g, c in zip(GATE_NAMES, cols)},
            **{f"b_{g}": c[-1] for g, c in zip(GATE_NAMES, cols)}}


@dataclass
class LstmParams:
    """One LSTM's kernel K = [W_x; W_h; b], (D+H+1, 4H), gate columns
    i, f, o, g; stored un-negated and C-contiguous, so z_t K and the
    recurrent rows K[D:D+H] read whole rows."""

    k: np.ndarray

    @property
    def hidden_dim(self) -> int:
        return self.k.shape[1] // 4

    @property
    def input_dim(self) -> int:
        return self.k.shape[0] - self.hidden_dim - 1

    @classmethod
    def init(cls, input_dim: int, hidden_dim: int, rng: np.random.Generator,
             scale: float = 0.08) -> "LstmParams":
        """Biases start at zero; weights uniform in [-scale, scale], drawn
        gate by gate as (H, D+H) arrays."""
        shape = (hidden_dim, input_dim + hidden_dim)
        return cls.from_gates({
            **{f"w_{g}": rng.uniform(-scale, scale, size=shape) for g in GATE_NAMES},
            **{f"b_{g}": np.zeros(hidden_dim) for g in GATE_NAMES},
        })

    @classmethod
    def from_gates(cls, arrays: dict[str, np.ndarray]) -> "LstmParams":
        """Build K from the gate arrays ``w_i .. w_g`` (H, D+H) and ``b_i .. b_g`` (H,)."""
        hd, width = arrays["w_i"].shape
        k = np.empty((width + 1, 4 * hd))
        for name, view in gate_views(k).items():
            view[...] = arrays[name]
        return cls(k)

    def cell_kernel(self) -> np.ndarray:
        """The (4H, D+H+1) matrix ``lstm_cell`` takes: K^T, i, f, o rows negated."""
        k = self.k.T.copy()
        k[: 3 * self.hidden_dim] *= -1.0
        return k


def lstm_cell(z, k, c, gates, c_out, tanh_c, h_out) -> None:
    """One gated update of an (H, B) state, written into caller buffers.

    ``z`` holds the (D+H+1, B) columns [x_t; h_{t-1}; 1] and ``k`` is
    ``LstmParams.cell_kernel()``, multiplied in row blocks of whole gates
    (see the module docstring).
    Writes the gates i|f|o|g into ``gates`` (4H, B), c' into ``c_out``,
    tanh(c') into ``tanh_c`` and h' into ``h_out`` (all (H, B));
    ``h_out`` may be the h slot of the next z and ``c_out`` may be ``c``.
    B = 1 may drop its axis: a (D+H+1,) z and (4H,) / (H,) buffers.
    |h'| < 1 by construction.
    """
    hd = c.shape[0]  # ufunc outputs go positionally: keyword parsing shows at B=1
    fit = (ONE_THREAD_MACS - 1) // (hd * z.size)  # whole gates per product
    rows = hd * (4 if fit > 3 else max(fit, 1))
    for j in range(0, 4 * hd, rows):
        np.matmul(k[j : j + rows], z, gates[j : j + rows])
    ifo, g = gates[: 3 * hd], gates[3 * hd :]
    np.exp(ifo, ifo)
    ifo += 1.0
    np.reciprocal(ifo, ifo)
    np.tanh(g, g)
    np.multiply(gates[:hd], g, tanh_c)
    np.multiply(gates[hd : 2 * hd], c, c_out)
    c_out += tanh_c
    np.tanh(c_out, tanh_c)
    np.multiply(gates[2 * hd : 3 * hd], tanh_c, h_out)


@dataclass
class LstmCache:
    """Forward-pass tensors kept for backpropagation through time."""

    z: np.ndarray        # (n+1, D+H+1) rows [x_t, h_{t-1}, 1]; row n holds h_{n-1}
    c_all: np.ndarray    # (n+1, H), row 0 is the zero initial state
    gates: np.ndarray    # (n, 4H) post-activation, order i, f, o, g
    tanh_c: np.ndarray   # (n, H)

    @property
    def n_steps(self) -> int:
        return self.gates.shape[0]

    @property
    def h_all(self) -> np.ndarray:
        """(n+1, H) hidden states, row 0 the zero initial state (a view)."""
        return self.z[:, -1 - self.c_all.shape[1] : -1]


def lstm_forward_cache(seq: np.ndarray, params: LstmParams) -> LstmCache:
    """Fold the cell over a sequence from the zero state, caching gates.

    Step t reads the row z_t = [x_t; h_{t-1}; 1] and writes h_t into the h
    slot of z_{t+1}; z_n has no x.
    """
    x = np.asarray(seq, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a (steps, dim) sequence, got shape {x.shape}")
    n, d, hd = x.shape[0], params.input_dim, params.hidden_dim
    if n == 0:
        raise ValueError("empty sequence")
    if x.shape[1] != d:
        raise ValueError(f"input dimension mismatch: expected {d}, got {x.shape[1]}")
    k = params.cell_kernel()
    z = np.zeros((n + 1, d + hd + 1))
    z[:-1, :d] = x
    z[:, -1] = 1.0
    c_all = np.zeros((n + 1, hd))
    gates = np.empty((n, 4 * hd))
    tanh_c = np.empty((n, hd))
    with np.errstate(over="ignore"):
        for zt, c, g, c1, tc, h1 in zip(z, c_all, gates, c_all[1:], tanh_c, z[1:, d : d + hd]):
            lstm_cell(zt, k, c, g, c1, tc, h1)
    return LstmCache(z=z, c_all=c_all, gates=gates, tanh_c=tanh_c)


class LstmColumns:
    """B sequences of one LSTM stepped together from the zero state, for all
    inference. Holds z = [x; h; 1], c and the gate and tanh(c') buffers in whole
    COLUMN_BLOCKs, so a sequence's bits do not depend on B, and the cell kernel;
    ``x``, ``h`` and ``c`` are the first B columns. Callers silence exp's
    overflow warning around their loop."""

    def __init__(self, params: LstmParams, batch: int):
        d, hd = params.input_dim, params.hidden_dim
        cols = -(-batch // COLUMN_BLOCK) * COLUMN_BLOCK
        self.k = params.cell_kernel()
        self.z = np.zeros((d + hd + 1, cols))
        self.z[-1] = 1.0
        self._h, self._c = self.z[d:-1], np.zeros((hd, cols))
        self.x, self.h, self.c = self.z[:d, :batch], self._h[:, :batch], self._c[:, :batch]
        self._gates = np.empty((4 * hd, cols))
        self._tanh_c = np.empty((hd, cols))

    def step(self, x: np.ndarray) -> np.ndarray:
        """Advance every column by the (D, B) input ``x``; returns h' over the
        whole padded block, which the next step overwrites."""
        if x.shape != self.x.shape:
            raise ValueError(f"input dimension mismatch: expected {self.x.shape}, got {x.shape}")
        self.x[...] = x
        lstm_cell(self.z, self.k, self._c, self._gates, self._c, self._tanh_c, self._h)
        return self._h


def lstm_backward(params: LstmParams, cache: LstmCache, d_h_ext: np.ndarray) -> np.ndarray:
    """Exact BPTT given the upstream per-step gradient on h; returns dK.

    dK has K's (D+H+1, 4H) layout (``gate_views`` names its parts). The
    gate-derivative factors that do not depend on the carried gradient are
    computed for all steps at once; the loop keeps only the carries, the
    d_gate_pre row and the recurrent product with the rows K[D:D+H].
    """
    n = cache.n_steps
    d, hd = params.input_dim, params.hidden_dim
    i, f, o, g = (cache.gates[:, j * hd : (j + 1) * hd] for j in range(4))
    tc = cache.tanh_c
    # d a_{i,f,g} = dc * fac[:, {0,1,3}],  d a_o = dh * fac[:, 2]
    fac = np.stack([g * i * (1.0 - i), cache.c_all[:-1] * f * (1.0 - f),
                    tc * o * (1.0 - o), i * (1.0 - g * g)], axis=1)
    dc_dh = o * (1.0 - tc * tc)
    wh = params.k[d : d + hd]

    d_gate_pre = np.empty((n, 4, hd))
    dh_carry = np.zeros(hd)
    dc_carry = np.zeros(hd)
    for t in range(n - 1, -1, -1):
        dh = d_h_ext[t] + dh_carry
        dc = dc_carry + dh * dc_dh[t]
        row = d_gate_pre[t]
        np.multiply(fac[t, :2], dc, out=row[:2])
        np.multiply(fac[t, 2], dh, out=row[2])
        np.multiply(fac[t, 3], dc, out=row[3])
        dh_carry = wh @ row.reshape(-1)
        dc_carry = dc * f[t]

    return cache.z[:-1].T @ d_gate_pre.reshape(n, 4 * hd)


@dataclass
class FcHead:
    """Linear layer into the 2-class (stable/unstable) softmax."""

    w: np.ndarray  # (2, in_dim)
    b: np.ndarray  # (2,)

    @property
    def in_dim(self) -> int:
        return self.w.shape[1]

    @classmethod
    def init(cls, in_dim: int, rng: np.random.Generator, scale: float = 0.08) -> "FcHead":
        return cls(w=rng.uniform(-scale, scale, size=(2, in_dim)), b=np.zeros(2))

    def probs(self, h: np.ndarray) -> np.ndarray:
        """(in_dim, N) hidden columns -> (2, N) class probabilities: the
        softmax of the two logits w h + b, shifted by their maximum. BLAS
        rounds a column of w h by the width of the product, so inference
        passes whole COLUMN_BLOCKs, which round alike."""
        logits = self.w @ h
        logits += self.b[:, None]
        logits -= np.maximum(logits[:1], logits[1:])
        np.exp(logits, out=logits)
        logits /= logits[:1] + logits[1:]
        return logits


@dataclass
class AdamState:
    """Moment accumulators for Adam; one slot per named parameter."""

    lr: float = 0.0006
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray], opt: AdamState) -> None:
    """One bias-corrected Adam update, written into the arrays of ``params``.

    Every gradient is checked before any array changes.
    """
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise TrainingDiverged(f"diverged: non-finite gradient for '{name}'")
    opt.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** opt.t
    bc2 = 1.0 - ADAM_BETA2 ** opt.t
    for name, theta in params.items():
        g = grads[name]
        if name not in opt.m:
            opt.m[name], opt.v[name] = np.zeros_like(theta), np.zeros_like(theta)
        m, v = opt.m[name], opt.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        theta -= opt.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> dict[str, np.ndarray]:
    """Scaled copies of the gradients whose global L2 norm is at most
    max_norm; the gradients themselves when it already is."""
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total <= max_norm:
        return grads
    scale = max_norm / total
    return {name: g * scale for name, g in grads.items()}


def grad_check(model, features, labels, eps: float = 1e-5) -> float:
    """Max relative disagreement between BPTT and central finite differences.

    ``model`` must expose stored_arrays(), loss(features, labels) and
    loss_and_grads(features, labels), whose gradients carry the names of
    stored_arrays(). Parameters are perturbed in place through the arrays
    stored_arrays() returns, which must be the model's storage, and
    restored. The denominator is floored at 1e-6: below that the
    difference quotient itself carries ~1e-11 float64 roundoff, so tinier
    components are effectively compared absolutely (a wrong derivative
    still shows up as an O(1) ratio). A model with no parameters checks
    out at 0 by convention.
    """
    params = model.stored_arrays()
    if not params:
        return 0.0
    _, analytic = model.loss_and_grads(features, labels)
    worst = 0.0
    for name, arr in params.items():
        grad = np.asarray(analytic[name])
        # Index through the array itself: ravel() of a strided view copies,
        # and writes to the copy would never reach the model.
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + eps
            lo_hi = model.loss(features, labels)
            arr[idx] = orig - eps
            lo_lo = model.loss(features, labels)
            arr[idx] = orig
            numeric = (lo_hi - lo_lo) / (2.0 * eps)
            rel = abs(grad[idx] - numeric) / max(abs(grad[idx]), abs(numeric), 1e-6)
            worst = max(worst, rel)
    return worst
