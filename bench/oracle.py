"""Reference forward pass for checking benchmark outputs.

Nothing here calls graspslip's numerics: features come from a direct DFT
sum as a matrix product (no FFT), gates from one product per gate, and
the sigmoid is the plain 1/(1+e^-z). The package and this module can only
agree to 1e-12 by both computing the documented model:

    features  A: [force]  B: [bands]  C: [bands, force]  D: [force], [bands]
    force     (x - min) / (max - min) clipped to [0, 1]
    bands     |X_k|, k = 1..band_count, of the causal window ending at t,
              left-padded with the first sample
    cell      i, f, o = sig(W [x; h] + b), g = tanh(W_g [x; h] + b_g)
              c' = f c + i g,  h' = o tanh(c')
    head      p_unstable = softmax(W [h_1; h_2] + b)[1]
"""

from __future__ import annotations

import numpy as np


def _sig(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def band_features(x: np.ndarray, window_len: int, band_count: int) -> np.ndarray:
    padded = np.concatenate([np.full(window_len - 1, x[0]), x])
    frames = np.stack([padded[t : t + window_len] for t in range(x.size)])
    k = np.arange(1, band_count + 1)[:, None]
    angle = 2.0 * np.pi * k * np.arange(window_len)[None, :] / window_len
    re = frames @ np.cos(angle).T
    im = frames @ np.sin(angle).T
    return np.hypot(re, im)


def streams(samples, tag: str, lo: float, hi: float, window_len: int, band_count: int):
    force = np.clip((np.asarray(samples, dtype=np.float64) - lo) / (hi - lo), 0.0, 1.0)
    col = force[:, None]
    if tag == "A":
        return [col]
    bands = band_features(force, window_len, band_count)
    if tag == "B":
        return [bands]
    if tag == "C":
        return [np.hstack([bands, col])]
    return [col, bands]


def lstm_hidden(x: np.ndarray, p: dict, prefix: str) -> np.ndarray:
    """(n, H) hidden states of one LSTM from the zero state."""
    w = {g: p[f"{prefix}.w_{g}"] for g in "ifog"}
    b = {g: p[f"{prefix}.b_{g}"] for g in "ifog"}
    hd = w["i"].shape[0]
    h, c = np.zeros(hd), np.zeros(hd)
    out = np.empty((x.shape[0], hd))
    for t in range(x.shape[0]):
        z = np.concatenate([x[t], h])
        i = _sig(w["i"] @ z + b["i"])
        f = _sig(w["f"] @ z + b["f"])
        o = _sig(w["o"] @ z + b["o"])
        g = np.tanh(w["g"] @ z + b["g"])
        c = f * c + i * g
        h = o * np.tanh(c)
        out[t] = h
    return out


def p_unstable(samples, tag: str, params: dict, lo: float, hi: float,
               window_len: int, band_count: int) -> np.ndarray:
    """Per-step probability of the unstable class for one raw window."""
    feats = streams(samples, tag, lo, hi, window_len, band_count)
    hcat = np.hstack([lstm_hidden(x, params, f"lstm{k}") for k, x in enumerate(feats)])
    logits = hcat @ params["fc.w"].T + params["fc.b"]
    return 1.0 / (1.0 + np.exp(logits[:, 0] - logits[:, 1]))
