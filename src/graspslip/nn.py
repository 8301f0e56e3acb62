"""Sequence-model numerics in plain numpy, double precision throughout.

LSTM cell, gate order i, f, o, g, over the row z_t = [x_t; h_{t-1}; 1]:
    a = [W | b] z_t
    i, f, o = sigmoid(a_{i,f,o}),  g = tanh(a_g)
    c' = f * c + i * g,  h' = o * tanh(c')

Every forward pass runs one folded kernel, ``lstm_cell``. Its matrix
K = [W | b] (``LstmParams.kernel``) has the i/f/o rows scaled by -1, an
exact power of two, so one product u = z_t K^T gives all four gates'
pre-activations, one exp/add/reciprocal pass over 3H,

    i|f|o = 1 / (1 + exp(u_{i,f,o})),

gives the sigmoids, and g = tanh(u_g). An exp that overflows to inf
gives the saturated gate exactly (0); callers silence that overflow
warning once around each loop.

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


class TrainingDiverged(RuntimeError):
    """Raised when a loss or gradient goes non-finite."""


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by max subtraction."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


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

    def kernel(self) -> np.ndarray:
        """The folded (4H, D+H+1) matrix [W | b], gate rows i, f, o, g,
        with the i, f, o rows negated for ``lstm_cell``."""
        w = np.concatenate([self.w_i, self.w_f, self.w_o, self.w_g], axis=0)
        b = np.concatenate([self.b_i, self.b_f, self.b_o, self.b_g])
        k = np.concatenate([w, b[:, None]], axis=1)
        k[: 3 * self.hidden_dim] *= -1.0
        return k

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "w_i": self.w_i, "w_f": self.w_f, "w_o": self.w_o, "w_g": self.w_g,
            "b_i": self.b_i, "b_f": self.b_f, "b_o": self.b_o, "b_g": self.b_g,
        }


def lstm_cell(z, k, c, gates, c_out, tanh_c, h_out) -> None:
    """One gated update of a (B, H) state, written into caller buffers.

    ``z`` holds the (B, D+H+1) rows [x_t, h_{t-1}, 1] and ``k`` is
    ``LstmParams.kernel()``. Writes the gates i|f|o|g into ``gates``
    (B, 4H), c' into ``c_out``, tanh(c') into ``tanh_c`` and h' into
    ``h_out`` (all (B, H)); ``h_out`` may be the h slot of the next z row
    and ``c_out`` may be ``c``. B = 1 may drop its axis: a (D+H+1,) row
    and (4H,) / (H,) buffers. |h'| < 1 by construction.
    """
    hd = c.shape[-1]
    np.matmul(z, k.T, out=gates)
    ifo, g = gates[..., : 3 * hd], gates[..., 3 * hd :]
    np.exp(ifo, out=ifo)
    ifo += 1.0
    np.reciprocal(ifo, out=ifo)
    np.tanh(g, out=g)
    np.multiply(gates[..., :hd], g, out=tanh_c)
    np.multiply(gates[..., hd : 2 * hd], c, out=c_out)
    c_out += tanh_c
    np.tanh(c_out, out=tanh_c)
    np.multiply(gates[..., 2 * hd : 3 * hd], tanh_c, out=h_out)


def _check_input(x: np.ndarray, params: LstmParams) -> None:
    d = params.input_dim
    if 0 in x.shape[:-1]:
        raise ValueError("empty sequence")
    if x.shape[-1] != d:
        raise ValueError(f"input dimension mismatch: expected {d}, got {x.shape[-1]}")


def _z_rows(x: np.ndarray, hidden_dim: int) -> np.ndarray:
    """(n, ..., D) inputs -> (n+1, ..., D+H+1) rows [x_t, 0, 1]; row n has no x.

    Step t reads row t and writes h_t into the h slot of row t+1.
    """
    d = x.shape[-1]
    z = np.zeros((x.shape[0] + 1,) + x.shape[1:-1] + (d + hidden_dim + 1,))
    z[:-1, ..., :d] = x
    z[..., -1] = 1.0
    return z


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
    """Fold the cell over a sequence from the zero state, caching gates."""
    x = np.asarray(seq, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("empty sequence")
    _check_input(x, params)
    n, d, hd = x.shape[0], x.shape[1], params.hidden_dim
    k = params.kernel()
    z = _z_rows(x, hd)
    c_all = np.zeros((n + 1, hd))
    gates = np.empty((n, 4 * hd))
    tanh_c = np.empty((n, hd))
    with np.errstate(over="ignore"):
        for t in range(n):
            lstm_cell(z[t], k, c_all[t], gates[t], c_all[t + 1], tanh_c[t], z[t + 1, d : d + hd])
    return LstmCache(z=z, c_all=c_all, gates=gates, tanh_c=tanh_c)


def lstm_hidden(seqs: np.ndarray, params: LstmParams) -> np.ndarray:
    """(B, n, D) sequences -> (B, n, H) hidden states, all from the zero state.

    The forward pass without a cache: the B sequences advance together,
    one (B, H) cell update per time step.
    """
    x = np.asarray(seqs, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError(f"expected (batch, steps, dim) sequences, got shape {x.shape}")
    _check_input(x, params)
    bsz, n, d = x.shape
    hd = params.hidden_dim
    k = params.kernel()
    z = _z_rows(x.transpose(1, 0, 2), hd)  # (n+1, B, D+H+1): one block per step
    c = np.zeros((bsz, hd))
    gates = np.empty((bsz, 4 * hd))
    tanh_c = np.empty((bsz, hd))
    with np.errstate(over="ignore"):
        for t in range(n):
            lstm_cell(z[t], k, c, gates, c, tanh_c, z[t + 1, :, d : d + hd])
    return z[1:, :, d : d + hd].transpose(1, 0, 2)


def lstm_backward(
    params: LstmParams, cache: LstmCache, d_h_ext: np.ndarray
) -> dict[str, np.ndarray]:
    """Exact BPTT given the upstream per-step gradient on h.

    The gate-derivative factors that do not depend on the carried
    gradient are computed for all steps at once; the loop keeps only the
    carries, the d_gate_pre row and the recurrent product.
    """
    n = cache.n_steps
    d, hd = params.input_dim, params.hidden_dim
    i, f, o, g = (cache.gates[:, j * hd : (j + 1) * hd] for j in range(4))
    tc = cache.tanh_c
    # d a_{i,f,g} = dc * fac[:, {0,1,3}],  d a_o = dh * fac[:, 2]
    fac = np.stack([g * i * (1.0 - i), cache.c_all[:-1] * f * (1.0 - f),
                    tc * o * (1.0 - o), i * (1.0 - g * g)], axis=1)
    dc_dh = o * (1.0 - tc * tc)
    wh = np.concatenate([params.w_i, params.w_f, params.w_o, params.w_g])[:, d:]

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
        dh_carry = row.reshape(-1) @ wh
        dc_carry = dc * f[t]

    dk = d_gate_pre.reshape(n, 4 * hd).T @ cache.z[:-1]  # [dW | db]
    dw, db = dk[:, :-1], dk[:, -1]
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
