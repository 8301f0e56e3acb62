"""Model zoo: the four slip-classifier variants, training, checkpoints.

Every time step has one feature row, [|X_1| .. |X_10| | force]: the band
magnitudes of the causal 20-sample window ending at that step, then the
normalized force sample itself. A variant is a choice of column ranges of
that row, one per LSTM; all variants share one 2-class softmax head:
    A "lstm"            [10:11]          the force column
    B "stft-lstm"       [0:10]           the band magnitudes
    C "data-stft-lstm"  [0:11]           bands and force in one LSTM
    D "lstm-stft-lstm"  [10:11], [0:10]  two LSTMs, hidden states
                                         concatenated before the head
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from graspslip import data as gdata
from graspslip import nn
from graspslip.ioutil import COUNT, NATURAL, POSITIVE, Rule, atomic_write_bytes, one_of, sha256_bytes
from graspslip.nn import AdamState, FcHead, LstmParams, TrainingDiverged
from graspslip.signal import (
    DEFAULT_BAND_COUNT,
    DEFAULT_WINDOW_LEN,
    NormStats,
    band_magnitudes,
    normalize_array,
)

# Column ranges of the feature row.
BANDS = range(0, DEFAULT_BAND_COUNT)
FORCE = range(DEFAULT_BAND_COUNT, DEFAULT_BAND_COUNT + 1)


@dataclass(frozen=True)
class ModelVariant:
    """A variant's input wiring: one column range of the feature row per LSTM."""

    tag: str
    name: str
    streams: tuple[range, ...]

    @property
    def stream_dims(self) -> tuple[int, ...]:
        return tuple(map(len, self.streams))

    @property
    def n_streams(self) -> int:
        return len(self.streams)

    def features(self, windows: np.ndarray) -> list[np.ndarray]:
        """(..., m, stft_window) normalized windows -> one (..., m, dim) view
        per stream.

        Row t of the feature matrix is [bands of window t | its last sample].
        """
        row = np.concatenate(
            [band_magnitudes(windows, DEFAULT_BAND_COUNT), windows[..., -1:]], axis=-1
        )
        return [row[..., s.start : s.stop] for s in self.streams]


VARIANTS = {
    "A": ModelVariant("A", "lstm", (FORCE,)),
    "B": ModelVariant("B", "stft-lstm", (BANDS,)),
    "C": ModelVariant("C", "data-stft-lstm", (range(BANDS.start, FORCE.stop),)),
    "D": ModelVariant("D", "lstm-stft-lstm", (FORCE, BANDS)),
}

_BY_NAME = {v.name: v for v in VARIANTS.values()}


def get_variant(key: str) -> ModelVariant:
    """Look up a variant by tag ('A'..'D') or name ('stft-lstm', ...)."""
    k = str(key).strip()
    if k.upper() in VARIANTS:
        return VARIANTS[k.upper()]
    norm = k.lower().replace("_", "-").replace(" ", "-")
    if norm in _BY_NAME:
        return _BY_NAME[norm]
    raise ValueError(f"unknown model variant {key!r}; expected one of "
                     f"{sorted(VARIANTS)} or {sorted(_BY_NAME)}")


EARLY_STOP_PATIENCE = 10


class Setting(NamedTuple):
    """A TrainConfig field's rule and CLI flag."""

    rule: Rule
    flag: str


# Each TrainConfig field's rule, in field order. Past 1, a threshold flags no step unstable.
TRAIN_SETTINGS = {
    "window_len": Setting(gdata.WINDOW_LEN, "--window-len"),
    "lstm_units": Setting(COUNT, "--units"),
    "lr": Setting(POSITIVE, "--lr"),
    "epochs": Setting(NATURAL, "--epochs"),
    "seed": Setting(NATURAL, "--seed"),
    "clip_norm": Setting(POSITIVE, "--clip-norm"),
    "threshold": Setting(Rule(float, lambda v: 0 < v < 1, "in (0, 1)"), "--threshold"),
    "channel": Setting(gdata.CHANNEL, "--channel"),
    "labels": Setting(gdata.LABEL_SOURCE, "--labels"),
}


@dataclass(frozen=True)
class TrainConfig:
    """Training-loop and windowing knobs, each checked by its ``TRAIN_SETTINGS``
    rule. One optimizer step consumes one window of one channel."""

    window_len: int = 160
    lstm_units: int = 128
    lr: float = 0.0006
    epochs: int = 50
    seed: int = 0
    clip_norm: float = 5.0
    threshold: float = 0.5
    channel: int = 0
    labels: str = "detect"

    def __post_init__(self):
        for field, setting in TRAIN_SETTINGS.items():
            setting.rule.check(field, getattr(self, field))


@dataclass
class Prediction:
    """Per-step instability probabilities and thresholded flags: (steps,)
    arrays for one window, (windows, steps) from predict_batch."""

    p_unstable: np.ndarray
    unstable: np.ndarray

    def __len__(self) -> int:
        return int(self.p_unstable.size)


# Row of the head's output that holds p_unstable (row 0 is "stable").
CLASS_UNSTABLE = 1


class GraspModel:
    """A variant's parameters plus its frozen feature pipeline.

    Training supervises every time step; checkpoints record that as the
    fixed ``loss_mode``, as they do the STFT window and band count.
    """

    stft_window = DEFAULT_WINDOW_LEN
    band_count = DEFAULT_BAND_COUNT
    loss_mode = "per-step"

    def __init__(
        self,
        variant: ModelVariant,
        lstms: list[LstmParams],
        head: FcHead,
        stats: NormStats | None = None,
        threshold: float = 0.5,
    ):
        if len(lstms) != variant.n_streams:
            raise ValueError("one LSTM required per input stream")
        for dim, p in zip(variant.stream_dims, lstms):
            if p.input_dim != dim:
                raise ValueError(f"LSTM input dim {p.input_dim} != stream dim {dim}")
        if head.in_dim != sum(p.hidden_dim for p in lstms):
            raise ValueError("head input dim must equal total hidden dim")
        self.variant = variant
        self.lstms = lstms
        self.head = head
        self.stats = stats
        self.threshold = float(TRAIN_SETTINGS["threshold"].rule.check("threshold", threshold))

    # -- construction -------------------------------------------------

    @classmethod
    def build(cls, variant: str, config: TrainConfig, seed: int | None = None) -> "GraspModel":
        """A new model of variant tag or name ``variant``, drawn from ``seed`` or ``config.seed``."""
        variant = get_variant(variant)
        rng = np.random.default_rng(config.seed if seed is None else NATURAL.check("seed", seed))
        lstms = [LstmParams.init(dim, config.lstm_units, rng) for dim in variant.stream_dims]
        head = FcHead.init(config.lstm_units * variant.n_streams, rng)
        return cls(variant=variant, lstms=lstms, head=head, threshold=config.threshold)

    @property
    def hidden_dim(self) -> int:
        return self.lstms[0].hidden_dim

    # -- feature pipeline ---------------------------------------------

    def featurize(self, samples: np.ndarray) -> list[np.ndarray]:
        """(..., n) raw windows -> one (..., n, dim) feature array per stream:
        (n, dim) for one window, as predict() takes it, and (windows, n, dim)
        for a stack of equal-length windows, as predict_batch() takes it.

        Normalizes with the stored training stats and hands the variant
        one causal window per step: samples t-stft_window+1 .. t, left-padded
        with the window's first sample, so no step looks ahead. Accepts any
        n >= 1; training enforces the window size.
        """
        if self.stats is None:
            raise ValueError("missing normalization stats; train or load a checkpoint first")
        x = np.asarray(samples, dtype=np.float64)
        if x.ndim == 0 or x.size == 0:
            raise ValueError(f"samples must be a non-empty (..., n) array, got shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ValueError("non-finite sample value")
        norm = normalize_array(x, self.stats)
        pad = np.broadcast_to(norm[..., :1], norm.shape[:-1] + (self.stft_window - 1,))
        padded = np.concatenate([pad, norm], axis=-1)
        return self.variant.features(
            np.lib.stride_tricks.sliding_window_view(padded, self.stft_window, axis=-1)
        )

    def _coerce_streams(self, features) -> list[np.ndarray]:
        """One float array per stream, all of one leading shape, each with
        its stream's width in the last axis."""
        if isinstance(features, np.ndarray):
            streams = [features]
        else:
            streams = [np.asarray(s, dtype=np.float64) for s in features]
        got = [s.shape for s in streams]
        if len(streams) != self.variant.n_streams:
            raise ValueError(f"expected {self.variant.n_streams} feature stream(s), "
                             f"got {len(streams)} of shapes {got}")
        want = [got[0][:-1] + (dim,) for dim in self.variant.stream_dims]
        if got != want:
            raise ValueError(f"feature dimension mismatch: expected {want}, got {got}")
        return streams

    # -- forward/backward ---------------------------------------------

    def _forward_loss(self, features, labels_unstable):
        """Cached forward pass and the mean cross-entropy over all steps."""
        caches = [nn.lstm_forward_cache(s, p)
                  for s, p in zip(self._coerce_streams(features), self.lstms)]
        hcat = np.concatenate([c.h_all[1:] for c in caches], axis=1)
        probs = self.head.probs(hcat.T)
        y = np.asarray(labels_unstable, dtype=np.int64)
        steps = np.arange(probs.shape[1])
        loss = float(np.mean(-np.log(np.maximum(probs[y, steps], 1e-12))))
        return caches, hcat, probs, y, steps, loss

    def decide(self, p_unstable: np.ndarray) -> Prediction:
        """Probabilities -> Prediction. Ties at the threshold and NaN
        probabilities are flagged unstable (the fail-safe side)."""
        return Prediction(p_unstable=p_unstable, unstable=~(p_unstable < self.threshold))

    def predict(self, features) -> Prediction:
        """Per-step probability of instability plus thresholded flags of one
        window, from its (steps, dim) streams: row 0 of a one-window batch."""
        pred = self.predict_batch([s[None] for s in self._coerce_streams(features)])
        return Prediction(p_unstable=pred.p_unstable[0], unstable=pred.unstable[0])

    def predict_batch(self, features) -> Prediction:
        """predict() of stacked equal-length windows as one Prediction of
        (windows, steps) arrays, row b for window b.

        ``features`` holds one (windows, steps, dim) array per stream, as
        featurize() returns them for a (windows, steps) stack of samples.
        The whole stack advances through step() as push_frame's channels do,
        step t writing column t of p_unstable; the cell and the head take
        whole column blocks, so no window's bits depend on another.
        """
        streams = self._coerce_streams(features)
        shape = streams[0].shape
        if len(shape) != 3 or 0 in shape[:2]:
            raise ValueError("predict_batch needs (windows, steps, dim) streams with at least "
                             f"one step and at least one window, got shapes {[s.shape for s in streams]}")
        p_unstable = np.empty(shape[:2])
        columns = self.lstm_columns(shape[0])
        with np.errstate(over="ignore"):
            for t in range(shape[1]):
                p_unstable[:, t] = self.step(columns, [s[:, t] for s in streams])
        return self.decide(p_unstable)

    def lstm_columns(self, batch: int) -> list[nn.LstmColumns]:
        """Fresh zero-state columns of ``batch`` sequences, one per LSTM."""
        return [nn.LstmColumns(p, batch) for p in self.lstms]

    def step(self, columns: list[nn.LstmColumns], rows) -> np.ndarray:
        """Advance each stream's columns by its (B, dim) input rows; returns the
        (B,) p_unstable of the new state. The head scores the streams' h' over
        the whole padded column block, never its first B columns alone."""
        h = [col.step(x.T) for col, x in zip(columns, rows)]
        probs = self.head.probs(h[0] if len(h) == 1 else np.concatenate(h))
        return probs[CLASS_UNSTABLE, : len(rows[0])]

    def predict_samples(self, samples: np.ndarray) -> Prediction:
        return self.predict(self.featurize(samples))

    def loss(self, features, labels_unstable: np.ndarray) -> float:
        return self._forward_loss(features, labels_unstable)[-1]

    def loss_and_grads(self, features, labels_unstable: np.ndarray):
        """Mean per-step cross-entropy and its exact gradient with respect
        to each of stored_arrays(), under the same names."""
        caches, hcat, probs, y, steps, loss = self._forward_loss(features, labels_unstable)
        d_logits = probs.T.copy()
        d_logits[steps, y] -= 1.0
        d_logits /= steps.size

        grads: dict[str, np.ndarray] = {
            "fc.w": d_logits.T @ hcat,
            "fc.b": d_logits.sum(axis=0),
        }
        d_hcat = d_logits @ self.head.w
        offset = 0
        for idx, (cache, params) in enumerate(zip(caches, self.lstms)):
            hd = params.hidden_dim
            grads[f"lstm{idx}"] = nn.lstm_backward(params, cache, d_hcat[:, offset : offset + hd])
            offset += hd
        return loss, grads

    # -- parameter plumbing -------------------------------------------

    def param_dict(self) -> dict[str, np.ndarray]:
        """Every parameter by checkpoint name; LSTM gates are live views of K."""
        gates = {f"lstm{idx}.{g}": a for idx, p in enumerate(self.lstms)
                 for g, a in nn.gate_views(p.k).items()}
        return {**gates, "fc.w": self.head.w, "fc.b": self.head.b}

    def stored_arrays(self) -> dict[str, np.ndarray]:
        """The arrays the model holds: one kernel ``lstm{i}`` per LSTM (the
        gates' storage, see ``nn.gate_views``), then ``fc.w`` and ``fc.b``."""
        kernels = {f"lstm{idx}": p.k for idx, p in enumerate(self.lstms)}
        return {**kernels, "fc.w": self.head.w, "fc.b": self.head.b}

    def copy_params(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.param_dict().items()}


# -- training ----------------------------------------------------------


@dataclass
class EpochRecord:
    epoch: int
    mean_loss: float
    val_success: float | None = None


def train(
    model: GraspModel,
    windows,
    config: TrainConfig,
    val_windows=None,
) -> list[EpochRecord]:
    """Seeded-shuffled window iteration, one clipped Adam step per window.

    Windows must carry ``samples`` and stable-flag ``labels`` of one length:
    ``data.window_batches`` cuts them from a Recording, and callers may
    build ``data.LabeledWindow``s of their own. Each window set is featurized
    once, as one stack, from the model's frozen stats. When validation windows are
    given, training stops after EARLY_STOP_PATIENCE epochs without a
    success-rate improvement and the best parameters are restored.
    Every update, the restore included, writes into the model's own
    arrays, so views from param_dict() stay live.
    """
    def stacked(windows, name: str) -> tuple[list[np.ndarray], np.ndarray]:
        """One featurize call's features of the (windows, steps) stack, and its unstable flags."""
        if not (windows := list(windows)):
            raise ValueError(f"no {name} windows")
        return (model.featurize(np.stack([w.samples for w in windows])),
                ~np.stack([w.labels for w in windows]).astype(bool))

    feats, unstable = stacked(windows, "training")
    if unstable.all() or not unstable.any():
        raise ValueError("training windows must contain both classes")
    val_feats, val_unstable = (None, None) if val_windows is None else stacked(val_windows, "validation")

    params = model.stored_arrays()
    opt = AdamState(lr=config.lr)
    rng = np.random.default_rng(config.seed)
    history: list[EpochRecord] = []
    best_success = -1.0
    best_params = None
    stale = 0

    for epoch in range(config.epochs):
        order = rng.permutation(len(unstable))
        losses = np.empty(len(unstable))
        for step, wi in enumerate(order):
            loss, grads = model.loss_and_grads([s[wi] for s in feats], unstable[wi])
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"diverged: non-finite loss at epoch {epoch}, step {step}"
                )
            nn.adam_step(params, nn.clip_gradients(grads, config.clip_norm), opt)
            losses[step] = loss

        record = EpochRecord(epoch=epoch, mean_loss=float(losses.mean()))
        if val_feats is not None:
            hits = model.predict_batch(val_feats).unstable == val_unstable
            record.val_success = float(np.mean(hits))
            if record.val_success > best_success:
                best_success = record.val_success
                best_params = {k: v.copy() for k, v in params.items()}
                stale = 0
            else:
                stale += 1
        history.append(record)
        if val_feats is not None and stale >= EARLY_STOP_PATIENCE:
            break

    if best_params is not None:
        for name, arr in params.items():
            arr[...] = best_params[name]
    return history


# -- checkpoint container ------------------------------------------------
#
# Layout: magic, u32 version, u32 header length, JSON header (kind, dims,
# feature config, array manifest), then each array as little-endian f64 in
# manifest order, then the sha256 of everything before it.

CKPT_MAGIC = b"GSLPCKPT"
CKPT_VERSION = 1

# Each checkpoint header key's rule, in the order read_blob checks them; it
# refuses any other key. A norm_stats object must make a NormStats.
CHECKPOINT_KEYS = {
    "kind": one_of("variant"),
    "variant": Rule(str, get_variant, "a variant tag or name"),
    "hidden_dim": TRAIN_SETTINGS["lstm_units"].rule,
    **{k: one_of(getattr(GraspModel, k)) for k in ("stft_window", "band_count", "loss_mode")},
    "threshold": TRAIN_SETTINGS["threshold"].rule,
    "norm_stats": Rule(object, lambda v: v is None or (
        isinstance(v, dict) and v.keys() == {"min", "max"} and NormStats(v["min"], v["max"])),
        'null or {"min": a finite number, "max": a larger finite number}'),
    "arrays": Rule(list, bool, "the manifest of its variant and hidden_dim"),
}


class CheckpointError(ValueError):
    pass


def write_blob(path, header: dict, arrays: list[tuple[str, np.ndarray]]) -> None:
    manifest = [{"name": n, "shape": list(a.shape)} for n, a in arrays]
    header = dict(header, arrays=manifest)
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    body = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for _, a in arrays)
    payload = CKPT_MAGIC + struct.pack("<II", CKPT_VERSION, len(head)) + head + body
    digest = sha256_bytes(payload).encode("ascii")
    atomic_write_bytes(path, payload + digest)


def read_blob(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Header and arrays of a checkpoint file, checked against its digest.

    A matching digest only proves the file is intact, not that a trusted
    writer made it. So the header must hold exactly the ``CHECKPOINT_KEYS``,
    each taken by its rule, ``arrays`` must be ``_manifest`` of the header's
    variant and hidden_dim, and the body must hold exactly those arrays, all
    finite; none is read before both match.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(CKPT_MAGIC) + 8 + 64 or raw[: len(CKPT_MAGIC)] != CKPT_MAGIC:
        raise CheckpointError("not a checkpoint file")
    payload, digest = raw[:-64], raw[-64:]
    if sha256_bytes(payload).encode("ascii") != digest:
        raise CheckpointError("digest mismatch: checkpoint corrupted")
    off = len(CKPT_MAGIC)
    version, head_len = struct.unpack_from("<II", payload, off)
    if version != CKPT_VERSION:
        raise CheckpointError(f"unsupported version {version}")
    off += 8
    if off + head_len > len(payload):
        raise CheckpointError("header length exceeds the file")
    try:
        header = json.loads(payload[off : off + head_len].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nested too deep
        raise CheckpointError(f"unreadable header: {exc}") from None
    if not isinstance(header, dict):
        raise CheckpointError("header must be an object with a string 'kind'")
    for key, rule in CHECKPOINT_KEYS.items():
        if key != "arrays":  # compared with the manifest below
            rule.check(f"checkpoint '{key}'", header.get(key), CheckpointError)
    if extra := sorted(header.keys() - CHECKPOINT_KEYS.keys()):
        raise CheckpointError(f"{extra[0]!r} is not a checkpoint header key")

    variant, hd = get_variant(header["variant"]), header["hidden_dim"]
    manifest = _manifest(variant, hd)
    expected = [{"name": name, "shape": shape} for name, shape in manifest]
    if json.dumps(header.get("arrays"), sort_keys=True) != json.dumps(expected, sort_keys=True):
        raise CheckpointError(f"arrays {header.get('arrays')!r} do not match variant "
                              f"{variant.tag} at hidden_dim {hd}: expected {expected}")
    off += head_len
    size = 8 * sum(math.prod(shape) for _, shape in manifest)
    if len(payload) - off != size:
        raise CheckpointError(f"parameter data holds {len(payload) - off} bytes, not {size}")
    arrays: dict[str, np.ndarray] = {}
    for name, shape in manifest:
        a = np.frombuffer(payload, dtype="<f8", count=math.prod(shape), offset=off)
        arrays[name] = a = a.reshape(shape).astype(np.float64)
        if not np.isfinite(a).all():
            idx = tuple(map(int, np.unravel_index(np.argmin(np.isfinite(a)), a.shape)))
            raise CheckpointError(f"array {name!r} holds {float(a[idx])} at index {idx}")
        off += a.nbytes
    return header, arrays


def _manifest(variant: ModelVariant, hidden_dim: int) -> list[tuple[str, tuple[int, ...]]]:
    """The sorted (name, shape) list of a checkpoint's arrays: the order
    save_checkpoint writes them in, and the one manifest read_blob accepts."""
    shapes = {"fc.w": (2, hidden_dim * variant.n_streams), "fc.b": (2,)}
    for idx, dim in enumerate(variant.stream_dims):
        for g in nn.GATE_NAMES:
            shapes[f"lstm{idx}.w_{g}"] = (hidden_dim, dim + hidden_dim)
            shapes[f"lstm{idx}.b_{g}"] = (hidden_dim,)
    return sorted(shapes.items())


def save_checkpoint(model: GraspModel, path) -> None:
    """Serialize a zoo model deterministically."""
    header = {
        "kind": "variant",
        "variant": model.variant.tag,
        "hidden_dim": model.hidden_dim,
        "stft_window": model.stft_window,
        "band_count": model.band_count,
        "loss_mode": model.loss_mode,
        "threshold": model.threshold,
        "norm_stats": None
        if model.stats is None
        else {"min": model.stats.min_value, "max": model.stats.max_value},
    }
    params = model.param_dict()
    write_blob(path, header, [(name, params[name])
                              for name, _ in _manifest(model.variant, model.hidden_dim)])


# Each feature column's largest value: a normalized sample lies in [0, 1] (normalize_array's
# clamp), so a band magnitude |X_k| is at most a window's sum, the STFT window's length.
FEATURE_MAX = np.array([float(DEFAULT_WINDOW_LEN)] * len(BANDS) + [1.0] * len(FORCE))


def alarm_bound(model: GraspModel) -> float:
    """An upper bound on the unstable-minus-stable logit over every input the
    model can see: features in [0, FEATURE_MAX] and |h| < 1. The output gate
    reads x and h but not c, so its largest value on that box bounds
    |h_j| = o_j |tanh(c_j)|, and the head turns those bounds into the logit's."""
    o_max = []
    with np.errstate(over="ignore"):  # an overflow saturates a gate or the bound
        for cols, p in zip(model.variant.streams, model.lstms):
            d, k_o = p.input_dim, p.k[:, 2 * p.hidden_dim : 3 * p.hidden_dim]  # o's [W_x; W_h; b]
            a = (FEATURE_MAX[cols.start : cols.stop] @ np.maximum(k_o[:d], 0.0)
                 + np.abs(k_o[d:-1]).sum(axis=0) + k_o[-1])
            o_max.append(1.0 / (1.0 + np.exp(-a)))
        (w, b), o, u = (model.head.w, model.head.b), np.concatenate(o_max), CLASS_UNSTABLE
        return float(np.abs(w[u] * o - w[1 - u] * o).sum() + b[u] - b[1 - u])


def load_checkpoint(path) -> GraspModel:
    """The model a checkpoint holds, whose header read_blob has checked. One
    whose ``alarm_bound`` is below logit(threshold) can flag no step unstable
    and is refused; one that can never read "stable" is fail-safe and loads.
    Every CheckpointError names the file."""
    try:
        header, arrays = read_blob(path)
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    variant, stats = get_variant(header["variant"]), header["norm_stats"]
    lstms = [LstmParams.from_gates({f"{w}_{g}": arrays[f"lstm{idx}.{w}_{g}"]
                                    for w in "wb" for g in nn.GATE_NAMES})
             for idx in range(variant.n_streams)]
    model = GraspModel(
        variant=variant,
        lstms=lstms,
        head=FcHead(w=arrays["fc.w"], b=arrays["fc.b"]),
        stats=None if stats is None else NormStats(float(stats["min"]), float(stats["max"])),
        threshold=header["threshold"],
    )
    bound, floor = alarm_bound(model), math.log(model.threshold / (1.0 - model.threshold))
    if bound < floor:
        raise CheckpointError(f"{path}: the model can never raise an alarm: its unstable-minus-stable "
                              f"logit is at most {bound:.6g}, below logit(threshold) {floor:.6g}")
    return model
