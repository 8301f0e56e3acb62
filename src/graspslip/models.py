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
from itertools import islice

import numpy as np

from graspslip import nn
from graspslip.ioutil import atomic_write_bytes, sha256_bytes
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
        """(m, stft_window) normalized windows -> one (m, dim) view per stream.

        Row t of the feature matrix is [bands of window t | its last sample].
        """
        row = np.concatenate(
            [band_magnitudes(windows, DEFAULT_BAND_COUNT), windows[:, -1:]], axis=1
        )
        return [row[:, s.start : s.stop] for s in self.streams]


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


LOSS_MODES = ("per-step", "last-step")
INIT_MODES = ("seeded-uniform", "literal-zeros")
EARLY_STOP_PATIENCE = 10


@dataclass(frozen=True)
class TrainConfig:
    """Training-loop knobs. One optimizer step consumes one window."""

    window_len: int = 160
    lstm_units: int = 128
    lr: float = 0.0006
    epochs: int = 50
    seed: int = 0
    clip_norm: float | None = 5.0
    loss_mode: str = "per-step"
    init_mode: str = "seeded-uniform"
    threshold: float = 0.5

    def __post_init__(self):
        if self.window_len <= DEFAULT_WINDOW_LEN:
            raise ValueError("window_len must exceed the STFT window")
        if not (self.lr > 0):
            raise ValueError("lr must be > 0")
        if self.loss_mode not in LOSS_MODES:
            raise ValueError(f"loss_mode must be one of {LOSS_MODES}")
        if self.init_mode not in INIT_MODES:
            raise ValueError(f"init_mode must be one of {INIT_MODES}")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.lstm_units < 1:
            raise ValueError("lstm_units must be >= 1")
        _check_threshold(self.threshold)


def _check_threshold(threshold) -> float:
    """The decision threshold as a float; it must be finite and in (0, 1).

    A NaN threshold would compare false against every probability, so
    the model could never report unstable.
    """
    t = float(threshold)
    if not (0.0 < t < 1.0):
        raise ValueError(f"threshold must be a finite number in (0, 1), got {threshold!r}")
    return t


@dataclass
class Prediction:
    """Per-step instability probabilities and thresholded flags."""

    p_unstable: np.ndarray
    unstable: np.ndarray

    def __len__(self) -> int:
        return int(self.p_unstable.size)


# Class indices for the softmax head.
CLASS_STABLE = 0
CLASS_UNSTABLE = 1

# Windows per batched forward pass in GraspModel.predict_batch.
PREDICT_CHUNK = 64


class GraspModel:
    """A variant's parameters plus its frozen feature pipeline."""

    stft_window = DEFAULT_WINDOW_LEN
    band_count = DEFAULT_BAND_COUNT

    def __init__(
        self,
        variant: ModelVariant,
        lstms: list[LstmParams],
        head: FcHead,
        stats: NormStats | None = None,
        loss_mode: str = "per-step",
        threshold: float = 0.5,
    ):
        if len(lstms) != variant.n_streams:
            raise ValueError("one LSTM required per input stream")
        for dim, p in zip(variant.stream_dims, lstms):
            if p.input_dim != dim:
                raise ValueError(f"LSTM input dim {p.input_dim} != stream dim {dim}")
        if head.in_dim != sum(p.hidden_dim for p in lstms):
            raise ValueError("head input dim must equal total hidden dim")
        if loss_mode not in LOSS_MODES:
            raise ValueError(f"loss_mode must be one of {LOSS_MODES}, got {loss_mode!r}")
        self.variant = variant
        self.lstms = lstms
        self.head = head
        self.stats = stats
        self.loss_mode = loss_mode
        self.threshold = _check_threshold(threshold)

    # -- construction -------------------------------------------------

    @classmethod
    def build(cls, variant: ModelVariant | str, config: TrainConfig, seed: int | None = None) -> "GraspModel":
        variant = variant if isinstance(variant, ModelVariant) else get_variant(variant)
        rng = np.random.default_rng(config.seed if seed is None else seed)
        zeros = config.init_mode == "literal-zeros"
        lstms = [
            LstmParams.init(dim, config.lstm_units, rng, zeros=zeros)
            for dim in variant.stream_dims
        ]
        head = FcHead.init(config.lstm_units * variant.n_streams, rng, zeros=zeros)
        return cls(
            variant=variant,
            lstms=lstms,
            head=head,
            loss_mode=config.loss_mode,
            threshold=config.threshold,
        )

    @property
    def hidden_dim(self) -> int:
        return self.lstms[0].hidden_dim

    # -- feature pipeline ---------------------------------------------

    def featurize(self, samples: np.ndarray) -> list[np.ndarray]:
        """Raw window -> one (n, dim) feature matrix per input stream.

        Normalizes with the stored training stats and hands the variant
        one causal window per step: samples t-stft_window+1 .. t, left-padded
        with the first sample, so no step looks ahead. Accepts any length
        >= 1; training enforces the window size.
        """
        if self.stats is None:
            raise ValueError("missing normalization stats; train or load a checkpoint first")
        x = np.asarray(samples, dtype=np.float64)
        if x.ndim != 1 or x.size == 0:
            raise ValueError("samples must be a non-empty 1-D array")
        if not np.all(np.isfinite(x)):
            raise ValueError("non-finite sample value")
        norm = normalize_array(x, self.stats)
        padded = np.concatenate([np.full(self.stft_window - 1, norm[0]), norm])
        return self.variant.features(
            np.lib.stride_tricks.sliding_window_view(padded, self.stft_window)
        )

    def _coerce_streams(self, features) -> list[np.ndarray]:
        if isinstance(features, np.ndarray):
            streams = [features]
        else:
            streams = [np.asarray(s, dtype=np.float64) for s in features]
        if len(streams) != self.variant.n_streams:
            raise ValueError(
                f"expected {self.variant.n_streams} feature stream(s), got {len(streams)}"
            )
        n = streams[0].shape[0]
        for s, dim in zip(streams, self.variant.stream_dims):
            if s.ndim != 2 or s.shape != (n, dim):
                raise ValueError(
                    f"feature dimension mismatch: expected (n, {dim}), got {s.shape}"
                )
        return streams

    # -- forward/backward ---------------------------------------------

    def _forward_loss(self, features, labels_unstable):
        """Cached forward pass and the mean cross-entropy over supervised steps."""
        caches = [nn.lstm_forward_cache(s, p)
                  for s, p in zip(self._coerce_streams(features), self.lstms)]
        hcat = np.concatenate([c.h_all[1:] for c in caches], axis=1)
        probs = self.head.probs(hcat)
        y = np.asarray(labels_unstable, dtype=np.int64)
        sup = self._supervised_steps(probs.shape[0])
        loss = float(np.mean(-np.log(np.maximum(probs[sup, y[sup]], 1e-12))))
        return caches, hcat, probs, y, sup, loss

    def predict(self, features) -> Prediction:
        """Per-step probability of instability plus thresholded flags.

        Ties at the threshold and NaN probabilities resolve to unstable
        (the fail-safe side).
        """
        return self.predict_batch([features])[0]

    def predict_batch(self, windows) -> list[Prediction]:
        """predict() for each of many equal-length windows, a chunk at a time.

        ``windows`` is an iterable of features arguments as predict() takes
        them. It is consumed PREDICT_CHUNK windows at a time; each chunk
        advances together through one (B, H) cell update per step, so the
        working memory stays bounded however many windows there are.
        """
        out: list[Prediction] = []
        it = iter(windows)
        while chunk := [self._coerce_streams(f) for f in islice(it, PREDICT_CHUNK)]:
            if len({w[0].shape[0] for w in chunk} | {len(p) for p in out[:1]}) > 1:
                raise ValueError("predict_batch needs windows of equal length")
            hcat = np.concatenate(
                [nn.lstm_hidden(np.stack([w[k] for w in chunk]), p)
                 for k, p in enumerate(self.lstms)],
                axis=2,
            )
            p_unstable = self.head.probs(hcat)[..., CLASS_UNSTABLE]
            out.extend(Prediction(p_unstable=p, unstable=~(p < self.threshold)) for p in p_unstable)
        return out

    def predict_samples(self, samples: np.ndarray) -> Prediction:
        return self.predict(self.featurize(samples))

    def _supervised_steps(self, n: int) -> np.ndarray:
        if self.loss_mode == "last-step":
            return np.array([n - 1])
        return np.arange(n)

    def loss(self, features, labels_unstable: np.ndarray) -> float:
        return self._forward_loss(features, labels_unstable)[-1]

    def loss_and_grads(self, features, labels_unstable: np.ndarray):
        """Mean cross-entropy over supervised steps and its exact gradient
        with respect to each of stored_arrays(), under the same names."""
        caches, hcat, probs, y, sup, loss = self._forward_loss(features, labels_unstable)
        d_logits = np.zeros_like(probs)
        d_logits[sup] = probs[sup]
        d_logits[sup, y[sup]] -= 1.0
        d_logits[sup] /= sup.size

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

    def _restore(self, stored: dict[str, np.ndarray]) -> None:
        for idx, p in enumerate(self.lstms):
            p.k = stored[f"lstm{idx}"]
        self.head.w = stored["fc.w"]
        self.head.b = stored["fc.b"]

    def copy_params(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.param_dict().items()}


def build_model(variant, config: TrainConfig, seed: int | None = None) -> GraspModel:
    return GraspModel.build(variant, config, seed)


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
    """Seeded-shuffled window iteration, one Adam step per window.

    Windows must carry ``samples`` and stable-flag ``labels``:
    ``data.window_batches`` cuts them from a Recording, and callers may
    build ``data.LabeledWindow``s of their own. Features are derived once
    up front from the model's frozen stats. When validation windows are
    given, training stops after EARLY_STOP_PATIENCE epochs without a
    success-rate improvement and the best parameters are restored.
    """
    windows = list(windows)
    if not windows:
        raise ValueError("no training windows")
    feats = [model.featurize(w.samples) for w in windows]
    ys = [(~np.asarray(w.labels, dtype=bool)).astype(np.int64) for w in windows]
    counts = np.bincount(np.concatenate(ys), minlength=2)
    if counts.min() == 0:
        raise ValueError("training windows must contain both classes")

    val_feats = val_ys = None
    if val_windows is not None:
        val_windows = list(val_windows)
        val_feats = [model.featurize(w.samples) for w in val_windows]
        val_ys = [(~np.asarray(w.labels, dtype=bool)).astype(np.int64) for w in val_windows]

    opt = AdamState(lr=config.lr)
    rng = np.random.default_rng(config.seed)
    history: list[EpochRecord] = []
    best_success = -1.0
    best_params = None
    stale = 0

    for epoch in range(config.epochs):
        order = rng.permutation(len(windows))
        losses = np.empty(len(windows))
        for step, wi in enumerate(order):
            loss, grads = model.loss_and_grads(feats[wi], ys[wi])
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"diverged: non-finite loss at epoch {epoch}, step {step}"
                )
            grads = nn.clip_gradients(grads, config.clip_norm)
            new_params, opt = nn.adam_step(model.stored_arrays(), grads, opt)
            model._restore(new_params)
            losses[step] = loss

        record = EpochRecord(epoch=epoch, mean_loss=float(losses.mean()))
        if val_feats is not None:
            preds = model.predict_batch(val_feats)
            hit = sum(int(np.sum(p.unstable == y.astype(bool))) for p, y in zip(preds, val_ys))
            record.val_success = hit / sum(y.size for y in val_ys)
            if record.val_success > best_success:
                best_success = record.val_success
                best_params = {k: v.copy() for k, v in model.stored_arrays().items()}
                stale = 0
            else:
                stale += 1
        history.append(record)
        if val_feats is not None and stale >= EARLY_STOP_PATIENCE:
            break

    if best_params is not None:
        model._restore(best_params)
    return history


# -- checkpoint container ------------------------------------------------
#
# Layout: magic, u32 version, u32 header length, JSON header (kind, dims,
# feature config, array manifest), then each array as little-endian f64 in
# manifest order, then the sha256 of everything before it.

CKPT_MAGIC = b"GSLPCKPT"
CKPT_VERSION = 1


class CheckpointError(ValueError):
    pass


def write_blob(path, header: dict, arrays: list[tuple[str, np.ndarray]]) -> None:
    manifest = [{"name": n, "shape": list(a.shape)} for n, a in arrays]
    header = dict(header, arrays=manifest)
    meta = json.dumps(header, sort_keys=True).encode("utf-8")
    body = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for _, a in arrays)
    payload = CKPT_MAGIC + struct.pack("<II", CKPT_VERSION, len(meta)) + meta + body
    digest = sha256_bytes(payload).encode("ascii")
    atomic_write_bytes(path, payload + digest)


def read_blob(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Header and arrays of a checkpoint file, checked against its digest.

    A matching digest only proves the file is intact, not that a trusted
    writer made it, so the header and array manifest are validated too.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(CKPT_MAGIC) + 8 + 64 or raw[: len(CKPT_MAGIC)] != CKPT_MAGIC:
        raise CheckpointError("not a checkpoint file")
    payload, digest = raw[:-64], raw[-64:]
    if sha256_bytes(payload).encode("ascii") != digest:
        raise CheckpointError("digest mismatch: checkpoint corrupted")
    off = len(CKPT_MAGIC)
    version, meta_len = struct.unpack_from("<II", payload, off)
    if version != CKPT_VERSION:
        raise CheckpointError(f"unsupported version {version}")
    off += 8
    if off + meta_len > len(payload):
        raise CheckpointError("header length exceeds the file")
    try:
        header = json.loads(payload[off : off + meta_len].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nested too deep
        raise CheckpointError(f"unreadable header: {exc}") from None
    if not isinstance(header, dict) or not isinstance(header.get("kind"), str):
        raise CheckpointError("header must be an object with a string 'kind'")
    manifest = header.get("arrays")
    if not isinstance(manifest, list):
        raise CheckpointError("header lacks an 'arrays' list")
    off += meta_len
    arrays: dict[str, np.ndarray] = {}
    for entry in manifest:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)
                and all(_is_int(d) and d >= 0 for d in entry["shape"])):
            raise CheckpointError(f"malformed array entry {entry!r}")
        name, shape = entry["name"], tuple(entry["shape"])
        if name in arrays:
            raise CheckpointError(f"duplicate array {name!r}")
        count = math.prod(shape)
        if count * 8 > len(payload) - off:
            raise CheckpointError(f"array {name!r} of shape {shape} exceeds the file")
        arr = np.frombuffer(payload, dtype="<f8", count=count, offset=off)
        arrays[name] = arr.reshape(shape).astype(np.float64)
        off += count * 8
    if off != len(payload):
        raise CheckpointError("trailing bytes after parameter data")
    return header, arrays


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


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
    write_blob(path, header, sorted(model.param_dict().items()))


def _variant_from_header(header: dict, arrays: dict[str, np.ndarray]) -> GraspModel:
    """Rebuild a GraspModel, rejecting any header field or array out of range."""

    def checked(key, ok, want):
        value = header.get(key)
        if not ok(value):
            raise CheckpointError(f"checkpoint '{key}' must be {want}, got {value!r}")
        return value

    variant = checked("variant", lambda v: isinstance(v, str), "a variant tag or name")
    hd = checked("hidden_dim", lambda v: _is_int(v) and v >= 1, "an integer >= 1")
    for key in ("stft_window", "band_count"):
        fixed = getattr(GraspModel, key)
        checked(key, lambda v: _is_int(v) and v == fixed, str(fixed))
    threshold = checked("threshold", lambda v: _is_int(v) or isinstance(v, float), "a number")
    try:
        variant = get_variant(variant)
    except ValueError as exc:
        raise CheckpointError(f"bad checkpoint header: {exc}") from None

    expected = {"fc.w": (2, hd * variant.n_streams), "fc.b": (2,)}
    for idx, dim in enumerate(variant.stream_dims):
        for g in nn.GATE_NAMES:
            expected[f"lstm{idx}.w_{g}"] = (hd, dim + hd)
            expected[f"lstm{idx}.b_{g}"] = (hd,)
    got = {name: a.shape for name, a in arrays.items()}
    if got != expected:
        raise CheckpointError(f"arrays {got} do not match variant {variant.tag} at "
                              f"hidden_dim {hd}: expected {expected}")
    lstms = [
        LstmParams.from_gates({f"{w}_{g}": arrays[f"lstm{idx}.{w}_{g}"]
                               for w in "wb" for g in nn.GATE_NAMES})
        for idx in range(variant.n_streams)
    ]
    stats = header.get("norm_stats")
    try:  # the constructors check the stats, loss mode and threshold ranges
        return GraspModel(
            variant=variant,
            lstms=lstms,
            head=FcHead(w=arrays["fc.w"], b=arrays["fc.b"]),
            stats=None if stats is None else NormStats(float(stats["min"]), float(stats["max"])),
            loss_mode=header.get("loss_mode"),
            threshold=threshold,
        )
    except (ValueError, TypeError, KeyError) as exc:
        raise CheckpointError(f"bad checkpoint header: {exc}") from None


def load_checkpoint(path) -> GraspModel:
    header, arrays = read_blob(path)
    if header["kind"] != "variant":
        raise CheckpointError(f"unknown checkpoint kind {header['kind']!r}")
    return _variant_from_header(header, arrays)
