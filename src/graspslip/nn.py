"""Sequence-model numerics in plain numpy, double precision throughout.

LSTM cell:
    i, f, o = sigmoid(W_{i,f,o} [x; h] + b),  g = tanh(W_g [x; h] + b_g)
    c' = f * c + i * g,  h' = o * tanh(c')

Training gradients come from exact backpropagation through time, so a
central finite-difference check must agree to ~1e-4 relative error; the
``grad_check`` harness below runs that comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class TrainingDiverged(RuntimeError):
    """Raised when a loss or gradient goes non-finite."""


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function without overflow: exp only ever sees -|x|."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by max subtraction."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(p: np.ndarray, y: int) -> float:
    """-ln p_y with p clamped to >= 1e-12 before the log."""
    return float(-math.log(max(float(p[y]), 1e-12)))


@dataclass
class LstmParams:
    """Gate weights over the concatenated [input; hidden] vector."""

    w_i: np.ndarray
    w_f: np.ndarray
    w_o: np.ndarray
    w_g: np.ndarray
    b_i: np.ndarray
    b_f: np.ndarray
    b_o: np.ndarray
    b_g: np.ndarray

    GATE_NAMES = ("i", "f", "o", "g")

    @property
    def hidden_dim(self) -> int:
        return self.w_i.shape[0]

    @property
    def input_dim(self) -> int:
        return self.w_i.shape[1] - self.w_i.shape[0]

    @classmethod
    def init(
        cls,
        input_dim: int,
        hidden_dim: int,
        rng: np.random.Generator,
        scale: float = 0.08,
        zeros: bool = False,
    ) -> "LstmParams":
        """Biases start at zero; weights uniform in [-scale, scale] unless
        ``zeros`` asks for the literal all-zero initialization."""
        shape = (hidden_dim, input_dim + hidden_dim)

        def w():
            if zeros:
                return np.zeros(shape)
            return rng.uniform(-scale, scale, size=shape)

        return cls(
            w_i=w(), w_f=w(), w_o=w(), w_g=w(),
            b_i=np.zeros(hidden_dim), b_f=np.zeros(hidden_dim),
            b_o=np.zeros(hidden_dim), b_g=np.zeros(hidden_dim),
        )

    def stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """(4H x (D+H) weights, 4H bias) in gate order i, f, o, g."""
        w = np.concatenate([self.w_i, self.w_f, self.w_o, self.w_g], axis=0)
        b = np.concatenate([self.b_i, self.b_f, self.b_o, self.b_g])
        return w, b

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "w_i": self.w_i, "w_f": self.w_f, "w_o": self.w_o, "w_g": self.w_g,
            "b_i": self.b_i, "b_f": self.b_f, "b_o": self.b_o, "b_g": self.b_g,
        }


@dataclass
class LstmState:
    h: np.ndarray
    c: np.ndarray

    @classmethod
    def zeros(cls, hidden_dim: int) -> "LstmState":
        return cls(h=np.zeros(hidden_dim), c=np.zeros(hidden_dim))


def lstm_cell(ax: np.ndarray, h: np.ndarray, c: np.ndarray, wh: np.ndarray):
    """One gated update of a (B, H) state; |h'| < 1 by construction.

    ``ax`` is the (B, 4H) input projection plus bias and ``wh`` the
    (4H, H) recurrent block of ``LstmParams.stacked()``, taken as a view.
    Returns (h', c', sigmoid gates i|f|o as (B, 3H), g, tanh(c')).
    """
    hd = h.shape[-1]
    a = ax + h @ wh.T
    ifo = sigmoid(a[:, : 3 * hd])
    g = np.tanh(a[:, 3 * hd :])
    c = ifo[:, hd : 2 * hd] * c + ifo[:, :hd] * g
    tc = np.tanh(c)
    return ifo[:, 2 * hd :] * tc, c, ifo, g, tc


def _projection(x: np.ndarray, params: LstmParams):
    """Input projection of every step at once plus the recurrent block.

    Returns (x @ W_x.T + b, W_h) for an (..., D) input.
    """
    d = params.input_dim
    if 0 in x.shape[:-1]:
        raise ValueError("empty sequence")
    if x.shape[-1] != d:
        raise ValueError(f"input dimension mismatch: expected {d}, got {x.shape[-1]}")
    w, b = params.stacked()
    return x @ w[:, :d].T + b, w[:, d:]


@dataclass
class LstmCache:
    """Forward-pass tensors kept for backpropagation through time."""

    x: np.ndarray        # (n, D)
    h_all: np.ndarray    # (n+1, H), row 0 is the zero initial state
    c_all: np.ndarray    # (n+1, H)
    gates: np.ndarray    # (n, 4H) post-activation, order i, f, o, g
    tanh_c: np.ndarray   # (n, H)

    @property
    def n_steps(self) -> int:
        return self.x.shape[0]

    def states(self) -> list[LstmState]:
        return [
            LstmState(h=self.h_all[t + 1].copy(), c=self.c_all[t + 1].copy())
            for t in range(self.n_steps)
        ]


def lstm_forward_cache(seq: np.ndarray, params: LstmParams) -> LstmCache:
    """Fold the cell over a sequence from the zero state, caching gates.

    The input projection for all steps is computed as one matrix product;
    only the recurrent term runs step by step.
    """
    x = np.asarray(seq, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("empty sequence")
    ax, wh = _projection(x, params)
    n, hd = x.shape[0], params.hidden_dim
    h_all = np.zeros((n + 1, hd))
    c_all = np.zeros((n + 1, hd))
    gates = np.empty((n, 4 * hd))
    tanh_c = np.empty((n, hd))
    h = h_all[:1]
    c = c_all[:1]
    for t in range(n):
        h, c, ifo, g, tc = lstm_cell(ax[t : t + 1], h, c, wh)
        gates[t, : 3 * hd] = ifo[0]
        gates[t, 3 * hd :] = g[0]
        tanh_c[t] = tc[0]
        h_all[t + 1] = h[0]
        c_all[t + 1] = c[0]
    return LstmCache(x=x, h_all=h_all, c_all=c_all, gates=gates, tanh_c=tanh_c)


def lstm_hidden(seqs: np.ndarray, params: LstmParams) -> np.ndarray:
    """(B, n, D) sequences -> (B, n, H) hidden states, all from the zero state.

    The forward pass without a cache: the B sequences advance together,
    one (B, H) cell update per time step.
    """
    x = np.asarray(seqs, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError(f"expected (batch, steps, dim) sequences, got shape {x.shape}")
    ax, wh = _projection(x.transpose(1, 0, 2), params)  # (n, B, 4H): one block per step
    bsz, n, hd = x.shape[0], x.shape[1], params.hidden_dim
    out = np.empty((n, bsz, hd))
    h = np.zeros((bsz, hd))
    c = np.zeros((bsz, hd))
    for t in range(n):
        h, c, _, _, _ = lstm_cell(ax[t], h, c, wh)
        out[t] = h
    return out.transpose(1, 0, 2)


def lstm_forward(seq: np.ndarray, params: LstmParams) -> tuple[list[LstmState], np.ndarray]:
    """All per-step states plus the final hidden vector."""
    cache = lstm_forward_cache(seq, params)
    states = cache.states()
    return states, states[-1].h


def lstm_backward(
    params: LstmParams, cache: LstmCache, d_h_ext: np.ndarray
) -> dict[str, np.ndarray]:
    """Exact BPTT given the upstream per-step gradient on h."""
    n = cache.n_steps
    d, hd = params.input_dim, params.hidden_dim
    w, _ = params.stacked()
    wh = w[:, d:]

    d_gate_pre = np.empty((n, 4 * hd))
    dh_carry = np.zeros(hd)
    dc_carry = np.zeros(hd)
    for t in range(n - 1, -1, -1):
        i = cache.gates[t, :hd]
        f = cache.gates[t, hd : 2 * hd]
        o = cache.gates[t, 2 * hd : 3 * hd]
        g = cache.gates[t, 3 * hd :]
        tc = cache.tanh_c[t]
        c_prev = cache.c_all[t]

        dh = d_h_ext[t] + dh_carry
        dc = dc_carry + dh * o * (1.0 - tc * tc)
        da_i = (dc * g) * i * (1.0 - i)
        da_f = (dc * c_prev) * f * (1.0 - f)
        da_o = (dh * tc) * o * (1.0 - o)
        da_g = (dc * i) * (1.0 - g * g)

        row = d_gate_pre[t]
        row[:hd] = da_i
        row[hd : 2 * hd] = da_f
        row[2 * hd : 3 * hd] = da_o
        row[3 * hd :] = da_g

        dh_carry = wh.T @ row
        dc_carry = dc * f

    z = np.concatenate([cache.x, cache.h_all[:-1]], axis=1)  # rows [x_t; h_{t-1}]
    dw = d_gate_pre.T @ z
    db = d_gate_pre.sum(axis=0)
    return {
        "w_i": dw[:hd], "w_f": dw[hd : 2 * hd],
        "w_o": dw[2 * hd : 3 * hd], "w_g": dw[3 * hd :],
        "b_i": db[:hd], "b_f": db[hd : 2 * hd],
        "b_o": db[2 * hd : 3 * hd], "b_g": db[3 * hd :],
    }


@dataclass
class FcHead:
    """Linear layer into the 2-class (stable/unstable) softmax."""

    w: np.ndarray  # (2, in_dim)
    b: np.ndarray  # (2,)

    @property
    def in_dim(self) -> int:
        return self.w.shape[1]

    @classmethod
    def init(
        cls,
        in_dim: int,
        rng: np.random.Generator,
        scale: float = 0.08,
        zeros: bool = False,
    ) -> "FcHead":
        if zeros:
            w = np.zeros((2, in_dim))
        else:
            w = rng.uniform(-scale, scale, size=(2, in_dim))
        return cls(w=w, b=np.zeros(2))

    def arrays(self) -> dict[str, np.ndarray]:
        return {"w": self.w, "b": self.b}

    def probs(self, h: np.ndarray) -> np.ndarray:
        """(..., in_dim) hidden rows -> (..., 2) class probabilities."""
        return softmax(h @ self.w.T + self.b)


@dataclass
class AdamState:
    """Moment accumulators for Adam; one slot per named parameter."""

    lr: float = 0.0006
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    opt: AdamState,
) -> tuple[dict[str, np.ndarray], AdamState]:
    """One bias-corrected Adam update; returns fresh parameter arrays."""
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise TrainingDiverged(f"diverged: non-finite gradient for '{name}'")
    opt.t += 1
    bc1 = 1.0 - opt.beta1 ** opt.t
    bc2 = 1.0 - opt.beta2 ** opt.t
    updated = {}
    for name, theta in params.items():
        g = grads[name]
        m = opt.m.setdefault(name, np.zeros_like(theta))
        v = opt.v.setdefault(name, np.zeros_like(theta))
        m *= opt.beta1
        m += (1.0 - opt.beta1) * g
        v *= opt.beta2
        v += (1.0 - opt.beta2) * (g * g)
        updated[name] = theta - opt.lr * (m / bc1) / (np.sqrt(v / bc2) + opt.eps)
    return updated, opt


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> dict[str, np.ndarray]:
    """Scale all gradients so their global L2 norm is at most max_norm."""
    if max_norm is None or max_norm <= 0:
        return grads
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total <= max_norm:
        return grads
    scale = max_norm / total
    return {name: g * scale for name, g in grads.items()}


def grad_check(model, features, labels, eps: float = 1e-5) -> float:
    """Max relative disagreement between BPTT and central finite differences.

    ``model`` must expose param_dict(), loss(features, labels) and
    loss_and_grads(features, labels). Parameters are perturbed in place
    and restored. The denominator is floored at 1e-6: below that the
    difference quotient itself carries ~1e-11 float64 roundoff, so tinier
    components are effectively compared absolutely (a wrong derivative
    still shows up as an O(1) ratio). A model with no parameters checks
    out at 0 by convention.
    """
    params = model.param_dict()
    if not params:
        return 0.0
    _, analytic = model.loss_and_grads(features, labels)
    worst = 0.0
    for name, arr in params.items():
        flat = arr.ravel()
        g_flat = np.asarray(analytic[name]).ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            lo_hi = model.loss(features, labels)
            flat[idx] = orig - eps
            lo_lo = model.loss(features, labels)
            flat[idx] = orig
            numeric = (lo_hi - lo_lo) / (2.0 * eps)
            rel = abs(g_flat[idx] - numeric) / max(abs(g_flat[idx]), abs(numeric), 1e-6)
            worst = max(worst, rel)
    return worst
