"""Sequence-model numerics in plain numpy, double precision throughout.

LSTM cell, gate order i, f, o, g, over z_t = [x_t, h_{t-1}, 1]:
    a = z_t K,  K = [W_x; W_h; b]  (D+H+1, 4H), the stored ``LstmParams.k``
    i, f, o = sigmoid(a_{i,f,o}),  g = tanh(a_g)
    c' = f * c + i * g,  h' = o * tanh(c')

Every forward pass runs one folded kernel, ``lstm_cell``, on a working
copy of K^T (``LstmParams.cell_kernel``, taken once per pass) whose i/f/o
rows are scaled by -1, an exact power of two. A batch is laid out by
columns, z (D+H+1, B) and state (H, B), so one product u = K^T z gives
all four gates' pre-activations as four contiguous (H, B) blocks, and one
exp/add/reciprocal pass over the first 3H rows,

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

# Adam's decay rates and denominator floor: Kingma & Ba's defaults.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingDiverged(RuntimeError):
    """Raised when a loss or gradient goes non-finite."""


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by max subtraction."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


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
    def init(
        cls,
        input_dim: int,
        hidden_dim: int,
        rng: np.random.Generator,
        scale: float = 0.08,
        zeros: bool = False,
    ) -> "LstmParams":
        """Biases start at zero; weights uniform in [-scale, scale], drawn
        gate by gate as (H, D+H) arrays, unless ``zeros`` asks for the
        literal all-zero initialization."""
        shape = (hidden_dim, input_dim + hidden_dim)
        return cls.from_gates({
            **{f"w_{g}": np.zeros(shape) if zeros else rng.uniform(-scale, scale, size=shape)
               for g in GATE_NAMES},
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
    ``LstmParams.cell_kernel()``. Writes the gates i|f|o|g into ``gates``
    (4H, B), c' into ``c_out``, tanh(c') into ``tanh_c`` and h' into
    ``h_out`` (all (H, B)); ``h_out`` may be the h slot of the next z
    and ``c_out`` may be ``c``. B = 1 may drop its axis: a (D+H+1,) z
    and (4H,) / (H,) buffers. |h'| < 1 by construction.
    """
    hd = c.shape[0]
    np.matmul(k, z, out=gates)
    ifo, g = gates[: 3 * hd], gates[3 * hd :]
    np.exp(ifo, out=ifo)
    ifo += 1.0
    np.reciprocal(ifo, out=ifo)
    np.tanh(g, out=g)
    np.multiply(gates[:hd], g, out=tanh_c)
    np.multiply(gates[hd : 2 * hd], c, out=c_out)
    c_out += tanh_c
    np.tanh(c_out, out=tanh_c)
    np.multiply(gates[2 * hd : 3 * hd], tanh_c, out=h_out)


def _check_input(x: np.ndarray, params: LstmParams) -> None:
    d = params.input_dim
    if 0 in x.shape[:-1]:
        raise ValueError("empty sequence")
    if x.shape[-1] != d:
        raise ValueError(f"input dimension mismatch: expected {d}, got {x.shape[-1]}")


def _z_steps(x: np.ndarray, hidden_dim: int) -> np.ndarray:
    """(n, D, ...) inputs -> (n+1, D+H+1, ...) z_t = [x_t; 0; 1]; z_n has no x.

    Step t reads z_t and writes h_t into the h slot of z_{t+1}.
    """
    d = x.shape[1]
    z = np.zeros((x.shape[0] + 1, d + hidden_dim + 1) + x.shape[2:])
    z[:-1, :d] = x
    z[:, -1] = 1.0
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
    k = params.cell_kernel()
    z = _z_steps(x, hd)
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
    one (H, B) cell update per time step.
    """
    x = np.asarray(seqs, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError(f"expected (batch, steps, dim) sequences, got shape {x.shape}")
    _check_input(x, params)
    bsz, n, d = x.shape
    hd = params.hidden_dim
    k = params.cell_kernel()
    z = _z_steps(x.transpose(1, 2, 0), hd)  # (n+1, D+H+1, B): one block per step
    c = np.zeros((hd, bsz))
    gates = np.empty((4 * hd, bsz))
    tanh_c = np.empty((hd, bsz))
    with np.errstate(over="ignore"):
        for t in range(n):
            lstm_cell(z[t], k, c, gates, c, tanh_c, z[t + 1, d : d + hd])
    return z[1:, d : d + hd].transpose(2, 0, 1)


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

    def probs(self, h: np.ndarray) -> np.ndarray:
        """(..., in_dim) hidden rows -> (..., 2) class probabilities."""
        return softmax(h @ self.w.T + self.b)


@dataclass
class AdamState:
    """Moment accumulators for Adam; one slot per named parameter."""

    lr: float = 0.0006
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
    bc1 = 1.0 - ADAM_BETA1 ** opt.t
    bc2 = 1.0 - ADAM_BETA2 ** opt.t
    updated = {}
    for name, theta in params.items():
        g = grads[name]
        m = opt.m.setdefault(name, np.zeros_like(theta))
        v = opt.v.setdefault(name, np.zeros_like(theta))
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        updated[name] = theta - opt.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
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
