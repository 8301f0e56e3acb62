"""Dataset ingestion, labeling, windowing, splitting, and synthesis.

A recording's per-step labels (``step_labels``), its drop step (``drop_step``)
and the rules of the three windowing settings are decided here and nowhere else.

Trace file grammar (one grasp set per file, whitespace-separated):

    graspslip-trace v1
    kind force
    freq_hz 16.7
    channels 16
    outcome failure
    direction back
    object 3
    weight 1
    force_level 2
    slip_onset 192
    drop_step 255
    data
    1250 1190 ... 1303
    ...

Rows are time steps in integer mN; ``slip_onset``/``drop_step`` are optional
ground truth. Blank and ``#`` header lines are skipped; no inline comments.
Pressure runs use ``kind pressure`` with ``channels 4`` and an
``initial`` header of the four zero-position counts instead of the
grasp provenance keys. Either kind reads into one ``Recording``.
``HEADER_KEYS`` lists each kind's keys in the order written, each with
one rule that the reader and the ``Recording`` constructor both apply
(to the parsed text and to the field); both refuse the other kind's
keys. Samples and integer header values fit 64 bits; samples read as
Python float() reads them; parsing is strict and errors carry file and line.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import os
import warnings
from collections import Counter
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from graspslip.ioutil import (
    COUNT, FINITE, INTEGER, NATURAL, Rule, _repr, atomic_write_json, atomic_write_text, one_of, rng_for,
)
from graspslip.signal import DEFAULT_WINDOW_LEN, FREQ_HZ, SensorTrace, readonly_float64

TRACE_FORMAT = "graspslip-trace v1"
OUTCOMES = ("success", "failure")
DIRECTIONS = ("back", "right", "top")
LABELS = ("detect", "truth")  # step_labels' label sources: drop detection, ground truth
CONDITIONS = ("direction", "outcome")  # the fields a cross-condition matrix groups sets by

FORCE_CHANNELS = 16
# How many sensors one frame reads: at least one, at most the hand's FORCE_CHANNELS.
SENSORS = Rule(int, lambda v: 1 <= v <= FORCE_CHANNELS, f"in 1..{FORCE_CHANNELS}")
PRESSURE_CHANNELS = 4
CHANNELS = {"force": FORCE_CHANNELS, "pressure": PRESSURE_CHANNELS}
KIND = one_of(*CHANNELS)
PRESSURE_MAX = 65535.0
# The trace writer formats values in [0, TOKEN_VALUES) from a token table.
TOKEN_VALUES = 65536

# Drop detection: scan is armed at the first sample >= ARM_MN (the lift
# proxy; the dataset has no explicit lift-onset marker), then the drop is
# the first step with DROP_SUSTAIN consecutive samples below EPS_DROP_MN.
EPS_DROP_MN = 50.0
ARM_MN = 200.0
DROP_SUSTAIN = 3

# Pre-drop labeling horizon: the window of steps before a detected drop
# that is labeled unstable.
LABEL_LEAD_STEPS = 20

# A channel index into each kind's channel count, which Recording.channel checks.
CHANNEL_INDEX = {n: Rule(int, lambda v, n=n: 0 <= v < n, f"in 0..{n - 1}") for n in CHANNELS.values()}

# The windowing settings' rules, which step_labels, window_batches, TrainConfig and its flags
# apply: a window is longer than the STFT window, on one force channel, labeled from one source.
WINDOW_LEN = Rule(int, lambda v: v > DEFAULT_WINDOW_LEN, f"> {DEFAULT_WINDOW_LEN} (the STFT window)")
CHANNEL = CHANNEL_INDEX[FORCE_CHANNELS]
LABEL_SOURCE = one_of(*LABELS)

# The share of failure sets a synthetic dataset holds, and a split's train
# share and its default; gen-data's --failure-fraction and cross-eval's --ratio read them.
FAILURE_FRACTION = Rule(float, lambda v: 0 <= v <= 1, "in [0, 1]")
RATIO = Rule(float, lambda v: 0 < v < 1, "in (0, 1)")
TRAIN_RATIO = 0.8


@dataclass(frozen=True, eq=False)
class Recording:
    """One trace file: a read-only (n_steps, channels) sample matrix plus
    the header of its kind, each field checked by its ``HEADER_KEYS`` rule.

    ``kind="force"``: 16 channels in mN, the grasp provenance (outcome,
    direction, object_id, weight, force_level) and the synthetic sets'
    ground truth, 0 <= slip_onset < drop_step < n_steps (each may be None).
    ``kind="pressure"``: 4 channels of raw counts in [0, 65535] and
    ``initial``, four finite zero-position counts; force fields keep defaults.
    """

    samples: np.ndarray
    freq_hz: float
    kind: str = "force"
    outcome: str | None = None
    direction: str | None = None
    object_id: int = 0
    weight: int = 0
    force_level: int = 0
    initial: tuple | None = None
    set_id: str = ""
    slip_onset: int | None = None
    drop_step: int | None = None

    def __post_init__(self):
        samples = readonly_float64(self.samples)
        if samples.ndim != 2:
            raise ValueError(f"expected an (n_steps, channels) matrix, got shape {samples.shape}")
        object.__setattr__(self, "samples", samples)
        keys = HEADER_KEYS[KIND.check("kind", self.kind)]
        for key, spec in {**HEADER_KEYS["force"], **HEADER_KEYS["pressure"], **keys}.items():
            value = getattr(self, spec.attr)
            if key not in keys:  # a field of the other kind must hold its default
                default = getattr(Recording, spec.attr)
                if (type(value), value) != (type(default), default):
                    raise ValueError(f"{key!r} is not a {self.kind} header key, got {_repr(value)}")
            elif value is not None or spec.default is not None:
                spec.rule.check(key, value)
        if samples.shape[0] == 0:
            raise ValueError("empty input")
        if not np.all(np.isfinite(samples)):
            raise ValueError("non-finite sample value")
        if self.kind == "pressure" and (samples.min() < 0 or samples.max() > PRESSURE_MAX):
            raise ValueError(f"pressure sample outside [0, {PRESSURE_MAX:g}]")
        steps = [-1, *(v for v in (self.slip_onset, self.drop_step) if v is not None), len(samples)]
        if any(a >= b for a, b in zip(steps, steps[1:])):
            raise ValueError(f"need 0 <= slip_onset < drop_step < n_steps, got slip_onset "
                             f"{self.slip_onset}, drop_step {self.drop_step}, n_steps {steps[-1]}")
        object.__setattr__(self, "freq_hz", float(self.freq_hz))  # as the file reads it back
        object.__setattr__(self, "initial", self.initial and tuple(map(float, self.initial)))

    @property
    def n_steps(self) -> int:
        return self.samples.shape[0]

    @property
    def n_channels(self) -> int:
        return self.samples.shape[1]

    def channel(self, idx: int) -> SensorTrace:
        """Channel ``idx`` as a SensorTrace over a view of the sample matrix."""
        CHANNEL_INDEX[self.n_channels].check("channel", idx)
        return SensorTrace(self.samples[:, idx], self.freq_hz)

    def as_matrix(self) -> np.ndarray:
        """The stored (n_steps, channels) sample matrix; read-only."""
        return self.samples


@dataclass(frozen=True, eq=False)
class LabeledWindow:
    """A fixed-length slice of one channel with per-step stable=True labels.
    Both arrays are read-only; writable input is copied."""

    samples: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        samples = readonly_float64(self.samples)
        labels = np.array(self.labels, dtype=bool)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("empty input")
        if labels.shape != samples.shape:
            raise ValueError("length mismatch between samples and labels")
        labels.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "labels", labels)

    @property
    def unstable(self) -> np.ndarray:
        return ~self.labels


# -- drop detection and labeling ----------------------------------------


def _one_channel(samples) -> np.ndarray:
    """``samples`` as a float64 array, which must be 1-D: one channel's readings."""
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"samples must be 1-D, got shape {x.shape}")
    return x


def detect_drop(
    samples,
    eps_drop: float = EPS_DROP_MN,
    arm_level: float = ARM_MN,
) -> int | None:
    """First step at/after lift where the 1-D ``samples`` stay below eps_drop.

    The scan arms at the first sample >= arm_level so that the empty-hand
    lead-in does not read as an instant drop; an unarmed trace has none.
    """
    x = _one_channel(samples)
    armed = np.nonzero(x >= arm_level)[0]
    if armed.size == 0:
        return None
    # Samples that are not low, counted up to each step from the arm step:
    # a window of DROP_SUSTAIN steps is all low where the count stays level.
    high = np.concatenate(([0], np.cumsum(~(x[armed[0]:] < eps_drop))))
    starts = np.flatnonzero(high[DROP_SUSTAIN:] == high[:-DROP_SUSTAIN])
    return int(armed[0] + starts[0]) if starts.size else None


def label_slip(samples, drop_step: int | None) -> np.ndarray:
    """Per-step stable=True labels of 1-D ``samples``: unstable from drop_step - 20 onward.

    With no drop every step is stable. The unstable start clamps at 0.
    """
    labels = np.ones(len(_one_channel(samples)), dtype=bool)
    if _STEP.check("drop_step", drop_step) is None:
        return labels
    if not (0 <= drop_step < labels.size):
        raise ValueError(f"drop_step out of range: {drop_step} not in [0, {labels.size})")
    labels[max(0, drop_step - LABEL_LEAD_STEPS):] = False
    return labels


def drop_step(rec: Recording, channel: int = 0) -> int | None:
    """The step a recording's grasp drops at: the generator's ground truth
    when it recorded one, else ``detect_drop`` on ``channel``."""
    return detect_drop(rec.channel(channel).samples) if rec.drop_step is None else rec.drop_step


# -- windowing ------------------------------------------------------------


def step_labels(rec: Recording, channel: int, labels: str) -> np.ndarray:
    """Per-step stable=True labels of one channel of a Recording.

    labels="detect" runs detect_drop + the 20-step pre-drop rule on the
    channel itself; labels="truth" takes the recording's slip_onset
    (synthetic sets only) and marks [slip_onset, end) of a failure set.
    """
    x = rec.channel(CHANNEL.check("channel", channel)).samples
    if LABEL_SOURCE.check("labels", labels) == "detect":
        return label_slip(x, detect_drop(x))
    if rec.outcome != "failure":
        return np.ones(len(x), dtype=bool)
    if rec.slip_onset is None:
        raise ValueError("truth labels need slip_onset (synthetic sets only)")
    return np.arange(len(x)) < rec.slip_onset


def window_batches(rec: Recording, window_len: int, channel: int = 0,
                   labels: str = "detect") -> list[LabeledWindow]:
    """Non-overlapping LabeledWindows of one channel and its ``step_labels``.

    The trailing remainder is dropped. Each window's samples are a view of
    the recording's read-only matrix.
    """
    WINDOW_LEN.check("window_len", window_len)
    lab = step_labels(rec, channel, labels)
    x = rec.samples[:, channel]
    if len(x) < window_len:
        raise ValueError(f"trace shorter than window: {len(x)} < {window_len}")
    return [
        LabeledWindow(x[start : start + window_len], lab[start : start + window_len])
        for start in range(0, len(x) - window_len + 1, window_len)
    ]


# -- splitting -------------------------------------------------------------


def split(dataset, ratio: float = TRAIN_RATIO, seed: int = 0):
    """Seeded set-level split into (train, test), stratified by outcome.

    Windows of one grasp never straddle the split because whole recordings
    are assigned. Per outcome the train share is floor(ratio * n) < n, so each
    outcome keeps a test set; if none is left to train on, one moves across.
    """
    sets = list(dataset)
    if len(sets) < 2:
        raise ValueError("need at least 2 sets to split")
    RATIO.check("ratio", ratio)

    groups: dict[str, list] = {}
    for idx, s in enumerate(sets):
        groups.setdefault(s.outcome, []).append(idx)

    rng = rng_for(seed, "dataset-split")
    train_idx, test_idx = [], []
    for name in sorted(groups):
        idxs = np.array(groups[name])
        order = rng.permutation(idxs.size)
        n_train = int(ratio * idxs.size)
        train_idx.extend(idxs[order[:n_train]].tolist())
        test_idx.extend(idxs[order[n_train:]].tolist())
    if not train_idx:
        train_idx.append(test_idx.pop(0))
    train_idx.sort()
    test_idx.sort()
    return [sets[i] for i in train_idx], [sets[i] for i in test_idx]


# -- synthetic generators ---------------------------------------------------

# Each profile's generator defaults, which gen-data's flags fall back to: set length,
# rate (force: the hand's, convert_csv's too) and force's share of failure sets.
# SET_LENGTH: a force set fits a drop after the latest slip onset drawn (240), and
# a pressure run needs a non-empty drop draw in [n_steps // 2, n_steps - 10).
PROFILES = {"force": {"n_steps": 400, "freq_hz": 16.7, "failure_fraction": 0.5},
            "pressure": {"n_steps": 1600, "freq_hz": 71.0}}
_FORCE, _PRESSURE = PROFILES["force"], PROFILES["pressure"]
FORCE_MIN_STEPS = 242
SET_LENGTH = {kind: Rule(int, lambda n, least=least: n >= least, f">= {least} for the {kind} profile")
              for kind, least in [("force", FORCE_MIN_STEPS), ("pressure", 21)]}


# Each SynthParams field's rule, in field order: a size is a step count (slip_onset
# and drop_step are None on a success set), a level a finite number.
_STEP = Rule(object, lambda v: v is None or NATURAL.takes(v), "None or a 64-bit integer >= 0")
SYNTH_RULES = {
    "freq_hz": FREQ_HZ, "n_steps": COUNT, "grasp_force": FINITE, "ramp_steps": NATURAL,
    "slip_onset": _STEP, "slip_band_hz": FINITE, "slip_amplitude": FINITE, "drop_step": _STEP,
    "decay_steps": NATURAL, "noise_sd": Rule(float, lambda v: v >= 0, ">= 0"),
}


@dataclass(frozen=True)
class SynthParams:
    """Shape of one synthetic grasp trace (force domain, mN), each field
    checked by its ``SYNTH_RULES`` rule."""

    freq_hz: float = _FORCE["freq_hz"]
    n_steps: int = _FORCE["n_steps"]
    grasp_force: float = 2000.0
    ramp_steps: int = 40
    slip_onset: int | None = 200
    slip_band_hz: float = 4.0
    slip_amplitude: float = 0.15   # fraction of grasp_force
    drop_step: int | None = 260
    decay_steps: int = 10
    noise_sd: float = 8.0

    def __post_init__(self):
        for field, rule in SYNTH_RULES.items():
            rule.check(field, getattr(self, field))
        if self.slip_onset is not None:
            if self.drop_step is None:
                raise ValueError("slip_onset given without drop_step")
            if not (0 < self.slip_onset < self.drop_step):
                raise ValueError("require 0 < slip_onset < drop_step")
            if not (3.0 <= self.slip_band_hz <= 5.0):
                raise ValueError("slip_band_hz must lie in [3, 5]")
        if self.drop_step is not None and not (
            self.ramp_steps < self.drop_step < self.n_steps
        ):
            raise ValueError("require ramp_steps < drop_step < n_steps")


def _synth_channels(params: SynthParams, gains: np.ndarray, rng) -> np.ndarray:
    """(channels, n_steps) samples: one gain-scaled copy of the profile per gain."""
    p = params
    t = np.arange(p.n_steps)
    scale = (p.grasp_force * gains)[:, None]
    force = np.repeat(scale, p.n_steps, axis=1)
    ramp = t < p.ramp_steps
    force[:, ramp] = scale * (t[ramp] + 1) / p.ramp_steps
    if p.slip_onset is not None:
        seg = (t >= p.slip_onset) & (t < p.drop_step)
        phase = 2.0 * np.pi * p.slip_band_hz * (t[seg] - p.slip_onset) / p.freq_hz
        force[:, seg] += p.slip_amplitude * p.grasp_force * gains[:, None] * np.sin(phase)
    if p.drop_step is not None:
        d = p.drop_step
        tail = np.arange(d, min(d + p.decay_steps, p.n_steps))
        force[:, tail] = force[:, d - 1 : d] * (1.0 - (tail - d + 1) / p.decay_steps)
        force[:, d + p.decay_steps:] = 0.0
    if p.noise_sd > 0:
        # Generator.normal draws sample by sample, so one draw over the
        # row-major live mask equals one draw per channel in channel order.
        live = force > 0
        force[live] += rng.normal(0.0, p.noise_sd, size=int(live.sum()))
    return np.clip(np.rint(force), 0.0, 10000.0)


def synth_grasp(seed: int, params: SynthParams = SynthParams()) -> Recording:
    """One deterministic synthetic force Recording with exact ground truth.

    Channels are gain-scaled copies (0.8-1.2) of a shared profile with
    independent noise; channel 0 carries gain closest to 1. A failure set
    records its ground truth (slip_onset, drop_step); unstable =
    [slip_onset, end).
    """
    rng = rng_for(seed, "synth-grasp")
    gains = rng.uniform(0.8, 1.2, size=FORCE_CHANNELS)
    gains[0] = 1.0
    failure = params.slip_onset is not None
    return Recording(
        samples=_frozen(_synth_channels(params, gains, rng)).T,
        freq_hz=params.freq_hz,
        outcome="failure" if failure else "success",
        object_id=int(rng.integers(0, 10)),
        direction=DIRECTIONS[int(rng.integers(0, len(DIRECTIONS)))],
        weight=int(rng.integers(0, 3)),
        force_level=int(rng.integers(0, 3)),
        set_id=f"synth-{seed:06d}",
        slip_onset=params.slip_onset,
        drop_step=params.drop_step if failure else None,
    )


def synth_force_dataset(n_sets: int, seed: int = 0,
                        failure_fraction: float = _FORCE["failure_fraction"],
                        freq_hz: float = _FORCE["freq_hz"],
                        n_steps: int = _FORCE["n_steps"]) -> list[Recording]:
    """A balanced batch of synthetic sets with per-set randomized shape.

    Failure sets draw slip_onset in [180, 240], a 3-5 Hz slip band, a
    12-20% vibration amplitude, and a drop 50-90 steps after onset (so
    some drops land beyond the windowed span and instability must be
    read from the vibration, not just the collapse to zero).
    """
    COUNT.check("n_sets", n_sets)
    FAILURE_FRACTION.check("failure_fraction", failure_fraction)
    SET_LENGTH["force"].check("n_steps", n_steps)
    rng = rng_for(seed, "synth-dataset")
    n_failure = int(round(n_sets * failure_fraction))
    sets = []
    for i in range(n_sets):
        shape = {"grasp_force": float(rng.uniform(1200.0, 3000.0))}
        if i < n_failure:
            onset = int(rng.integers(180, 241))
            drop = onset + int(rng.integers(50, 91))
            shape.update(slip_onset=onset, slip_band_hz=float(rng.uniform(3.0, 5.0)),
                         slip_amplitude=float(rng.uniform(0.12, 0.20)),
                         drop_step=min(drop, n_steps - 1))
        else:
            shape.update(slip_onset=None, drop_step=None)
        p = SynthParams(freq_hz=freq_hz, n_steps=n_steps, **shape)
        sets.append(synth_grasp(int(rng.integers(0, 2**31)), p))
    return sets


# Synthetic pressure runs: zero-position counts, held level, noise sd.
PRESSURE_INITIAL = (6458.0, 6263.0, 6357.0, 6458.0)
PRESSURE_HOLD = 20000.0
PRESSURE_NOISE_SD = 15.0


def synth_pressure_run(seed: int, n_steps: int = _PRESSURE["n_steps"],
                       freq_hz: float = _PRESSURE["freq_hz"], drop_step: int | None = None) -> Recording:
    """Pressure-domain analogue of synth_grasp: rise, hold, optional drop;
    ``n_steps`` and ``drop_step`` take their ``SYNTH_RULES`` rules."""
    for field, value in [("n_steps", n_steps), ("drop_step", drop_step)]:
        SYNTH_RULES[field].check(field, value)
    rng = rng_for(seed, "synth-pressure")
    rise = min(80, n_steps // 4)
    if drop_step is not None and not (rise < drop_step < n_steps):
        raise ValueError("require rise < drop_step < n_steps")
    base = np.array(PRESSURE_INITIAL)[:, None]
    x = np.full((PRESSURE_CHANNELS, n_steps), PRESSURE_HOLD)
    x[:, :rise] = base + (PRESSURE_HOLD - base) * (np.arange(rise) + 1) / rise
    if drop_step is not None:
        x[:, drop_step:] = base
    # One row-major draw equals one draw per channel in channel order.
    x += rng.normal(0.0, PRESSURE_NOISE_SD, size=x.shape)
    x = np.clip(np.rint(x), 0.0, PRESSURE_MAX)
    return Recording(_frozen(x).T, freq_hz, "pressure", initial=PRESSURE_INITIAL)


def synth_pressure_dataset(n_sets: int, seed: int = 0, freq_hz: float = _PRESSURE["freq_hz"],
                           n_steps: int = _PRESSURE["n_steps"]) -> list[Recording]:
    """Alternately holding and dropping pressure runs: each odd-indexed run
    drops at a seeded step in [n_steps // 2, n_steps - 10)."""
    COUNT.check("n_sets", n_sets)
    SET_LENGTH["pressure"].check("n_steps", n_steps)
    rng = rng_for(seed, "gen-pressure")
    runs = []
    for i in range(n_sets):
        drop = int(rng.integers(n_steps // 2, n_steps - 10)) if i % 2 else None
        runs.append(synth_pressure_run(int(rng.integers(0, 2**31)), n_steps, freq_hz, drop))
    return runs


GENERATORS = {"force": synth_force_dataset, "pressure": synth_pressure_dataset}  # gen-data --profile


# -- trace file serialization ----------------------------------------------


def _frozen(a: np.ndarray) -> np.ndarray:
    """Mark a new array read-only, so that a Recording keeps it uncopied."""
    a.setflags(write=False)
    return a


@functools.cache
def _token_table() -> np.ndarray:
    """(TOKEN_VALUES, 6) uint8: each value's ASCII digits right-aligned in
    five bytes, NUL for its leading zeros, then a space."""
    v = np.arange(TOKEN_VALUES, dtype=np.int32)
    table = np.zeros((TOKEN_VALUES, 6), np.uint8)
    for k, place in enumerate((10000, 1000, 100, 10, 1)):
        table[:, k] = np.where(v >= place, v // place % 10 + ord("0"), 0)
    table[0, 4] = ord("0")
    table[:, 5] = ord(" ")
    return _frozen(table)


def _unwritable(values: np.ndarray) -> np.ndarray:
    """Where ``values`` holds a finite value no trace file can hold: one outside [-2**63, 2**63)."""
    return np.isfinite(values) & ((values < -(2.0**63)) | (values >= 2.0**63))


def _trace_lines(values: np.ndarray) -> str:
    """The rows of an (n_steps, channels) sample matrix as newline-joined
    lines of space-separated integers."""
    rounded = np.rint(values)
    if rounded.size and 0 <= rounded.min() and rounded.max() < TOKEN_VALUES:
        # Every force and pressure file: gather each value's token, end each
        # row's last token with a newline, and drop the NUL padding.
        tokens = _token_table().take(rounded.astype(np.intp), axis=0)
        tokens[:, -1, -1] = ord("\n")
        return tokens.tobytes().translate(None, b"\0")[:-1].decode("ascii")
    bad = _unwritable(rounded)
    if bad.any():
        step, ch = np.unravel_index(np.argmax(bad), bad.shape)
        raise ValueError(f"sample {float(values[step, ch])!r} at step {step}, channel {ch} "
                         "does not fit a 64-bit integer")
    ints = rounded.astype(np.int64)
    row = " ".join(["%d"] * ints.shape[1])
    return "\n".join([row] * ints.shape[0]) % tuple(ints.ravel().tolist())


_REQUIRED = object()


class _Key(NamedTuple):
    """A header key's Recording attribute, its rule, its value when absent
    (_REQUIRED: it must be given) and its text parser when not the rule's kind."""

    attr: str
    rule: Rule
    default: object = _REQUIRED
    parse: Callable | None = None


# Each kind's header keys in the order written; a None value is not written.
# The reader takes these keys, in any order, and refuses any other.
HEADER_KEYS = {
    kind: {
        "kind": _Key("kind", KIND, "force"),
        "freq_hz": _Key("freq_hz", FREQ_HZ),
        "channels": _Key("n_channels", one_of(CHANNELS[kind])),
        **keys,
    }
    for kind, keys in [
        ("force", {
            "outcome": _Key("outcome", one_of(*OUTCOMES)),
            "direction": _Key("direction", one_of(*DIRECTIONS)),
            "object": _Key("object_id", INTEGER),
            "weight": _Key("weight", INTEGER, 0),
            "force_level": _Key("force_level", INTEGER, 0),
            "slip_onset": _Key("slip_onset", INTEGER, None),
            "drop_step": _Key("drop_step", INTEGER, None),
        }),
        ("pressure", {
            "initial": _Key("initial", Rule(tuple, lambda v: len(v) == PRESSURE_CHANNELS
                                            and all(map(FINITE.takes, v)),
                                            f"{PRESSURE_CHANNELS} finite numbers"),
                            parse=lambda t: tuple(map(float, t.split()))),
        }),
    ]
}


def _text(value) -> str:
    """Header value text that the key's parser reads back as ``value``."""
    if isinstance(value, tuple):
        return " ".join(map(_text, value))
    if not isinstance(value, float):
        return str(value)
    text = f"{value:g}"
    return text if float(text) == value else repr(float(value))


def _recording_text(rec: Recording) -> str:
    lines = [TRACE_FORMAT]
    for key, spec in HEADER_KEYS[rec.kind].items():
        if (value := getattr(rec, spec.attr)) is not None:
            lines.append(f"{key} {_text(value)}")
    lines += ["data", _trace_lines(rec.samples)]
    return "\n".join(lines) + "\n"


def write_recording(rec: Recording, path) -> None:
    """Write one trace file; nothing is written if a sample cannot be."""
    atomic_write_text(path, _recording_text(rec))


def _parse_header(path, lines):
    """(header key -> (line number, value text), line number of 'data')."""
    if not lines or lines[0].strip() != TRACE_FORMAT:
        raise ValueError(f"{path}:1: not a {TRACE_FORMAT} file")
    header: dict[str, tuple[int, str]] = {}
    body_start = None
    for ln, raw in enumerate(lines[1:], start=2):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped == "data":
            body_start = ln
            break
        parts = stripped.split(None, 1)
        if len(parts) != 2:
            raise ValueError(f"{path}:{ln}: malformed header line {stripped!r}")
        if parts[0] in header:
            raise ValueError(f"{path}:{ln}: {parts[0]} already set on line {header[parts[0]][0]}")
        header[parts[0]] = (ln, parts[1])
    if body_start is None:
        raise ValueError(f"{path}: missing 'data' section")
    return header, body_start


def _parse_rows(path, lines, body_start: int, n_channels: int) -> np.ndarray:
    # numpy's C text reader splits lines as str.split() does. Its int64 parser
    # takes a non-empty ASCII body with no '-0' (so '-0' stays -0.0) of integers
    # in [-2**63, 2**63), each cast to float64 as float() reads its text. Past
    # ASCII, numpy 2.4.6 read '\U00020000' as 131024 and crashed on '\U00085650'.
    # Its DeprecationWarning is an error here, as numpy from 1.23 on may truncate
    # 1.5 or nan to an integer with only that warning. Every other body takes the
    # per-line pass, as does one with a value the writer cannot write (int64
    # reads 2**63 - 512 and up, which float64 holds as 2**63).
    body = lines[body_start:]
    text = "".join(body)  # '-' first: a one-character search is 100x faster than '-0'
    if text.isascii() and ("-" not in text or "-0" not in text) and text.strip():
        with warnings.catch_warnings(), contextlib.suppress(ValueError, DeprecationWarning):
            warnings.simplefilter("error", DeprecationWarning)
            rows = np.loadtxt(body, dtype=np.int64, comments=None, ndmin=2).astype(np.float64)
            if rows.shape[0] and rows.shape[1] == n_channels and not _unwritable(rows).any():
                return rows
    # The per-line pass reads as float() does and names a bad body's first bad line.
    rows = []
    for ln, raw in enumerate(body, start=body_start + 1):
        stripped = raw.strip()
        if not stripped:
            continue
        cells = stripped.split()
        if len(cells) != n_channels:
            raise ValueError(
                f"{path}:{ln}: expected {n_channels} channels, got {len(cells)}"
            )
        try:
            row = np.array([float(c) for c in cells])
        except ValueError:
            raise ValueError(f"{path}:{ln}: non-numeric value in {stripped!r}") from None
        if (bad := np.flatnonzero(_unwritable(row))).size:
            raise ValueError(f"{path}:{ln}: sample {float(row[bad[0]])!r} at step {len(rows)}, "
                             f"channel {bad[0]} does not fit a 64-bit integer")
        rows.append(row)
    if not rows:
        raise ValueError(f"{path}: empty input")
    return np.asarray(rows, dtype=np.float64)


def _field(path, header: dict, key: str, spec: _Key):
    """Header ``key`` parsed and checked by ``spec``. A missing required key
    raises ValueError naming the file; a bad value names file and line."""
    if key not in header:
        if spec.default is _REQUIRED:
            raise ValueError(f"{path}: missing header key {key!r}")
        return spec.default
    ln, text = header[key]
    try:
        if spec.rule.takes(value := (spec.parse or spec.rule.kind)(text)):
            return value
    except ValueError:
        pass
    raise ValueError(f"{path}:{ln}: {key} must be {spec.rule.words}, got {text!r}")


def _read_text(path) -> str:
    """A file's text, which must be UTF-8: a byte that is not raises ValueError
    naming the file and the byte's line."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Numbered as str.splitlines() splits lines; the bytes before exc.start decode.
        line = len((raw[:exc.start].decode("utf-8") + "x").splitlines())
        raise ValueError(f"{path}:{line}: {exc}") from None


def read_recording(path) -> Recording:
    """Read one trace file of either kind; errors name the file."""
    lines = _read_text(path).splitlines()
    header, body_start = _parse_header(path, lines)
    kind = _field(path, header, "kind", HEADER_KEYS["force"]["kind"])
    keys = HEADER_KEYS[kind]
    fields = {spec.attr: _field(path, header, key, spec) for key, spec in keys.items()}
    for key, (ln, _) in header.items():
        if key not in keys:
            raise ValueError(f"{path}:{ln}: {key!r} is not a {kind} header key")
    samples = _frozen(_parse_rows(path, lines, body_start, fields.pop("n_channels")))
    try:
        return Recording(samples, set_id=os.path.splitext(os.path.basename(str(path)))[0],
                         **fields)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# -- dataset directory layout -----------------------------------------------


def save_force_dataset(sets, out_dir, kind: str = "force") -> str:
    """Write one file per recording plus manifest.json; returns the manifest
    path. Every recording must be of ``kind``, which names the files (set_0000.txt
    for force, run_0000.txt for pressure). Every file's text is made before any
    is written, so a sample no file can hold leaves the directory untouched.

    An empty collection writes a manifest only (zero-set dataset).
    """
    sets = list(sets)
    KIND.check("kind", kind)
    kinds = {kind, *(rec.kind for rec in sets)}
    if len(kinds) > 1:
        raise ValueError(f"a dataset holds one kind of recording, got {sorted(kinds)}")
    texts = [_recording_text(rec) for rec in sets]
    os.makedirs(out_dir, exist_ok=True)
    files = [f"{'set' if kind == 'force' else 'run'}_{i:04d}.txt" for i in range(len(sets))]
    for name, text in zip(files, texts):
        atomic_write_text(os.path.join(out_dir, name), text)
    manifest = {
        "format": TRACE_FORMAT,
        "kind": kind,
        "files": files,
        "n_sets": len(sets),
        "freq_hz": sets[0].freq_hz if sets else None,
        "n_steps": sets[0].n_steps if sets else None,
    }
    if kind == "force":
        manifest.update(
            outcomes=Counter(g.outcome for g in sets),
            directions=Counter(g.direction for g in sets),
            # per-set bounds: pooling the samples would copy every transposed matrix
            force_range_mn=[float(min(g.samples.min() for g in sets)),
                            float(max(g.samples.max() for g in sets))] if sets else None,
        )
    manifest_path = os.path.join(out_dir, "manifest.json")
    atomic_write_json(manifest_path, manifest)
    return manifest_path


def dataset_files(path) -> tuple[str | None, list[str]]:
    """(manifest.json path or None, set file paths in load order) of a
    dataset: one trace file; a directory's manifest ``files``; or, with no
    manifest, the directory's non-hidden ``.txt`` files sorted by name."""
    if os.path.isfile(path):
        return None, [path]
    if not os.path.isdir(path):
        raise ValueError(f"no such dataset: {path}")
    manifest_path = os.path.join(path, "manifest.json")
    if not os.path.exists(manifest_path):
        names = sorted(
            f for f in os.listdir(path)
            if f.endswith(".txt") and not f.startswith(".")
        )
        if not names:
            raise ValueError(f"{path}: empty input")
        return None, [os.path.join(path, name) for name in names]
    text = _read_text(manifest_path)
    try:
        manifest = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, or nested too deep
        raise ValueError(f"{manifest_path}: {exc}") from None
    names = manifest.get("files") if isinstance(manifest, dict) else None
    if not (isinstance(names, list) and all(
        isinstance(n, str) and n not in ("", ".", "..") and os.path.basename(n) == n
        for n in names
    )):
        raise ValueError(f"{manifest_path}: 'files' must be a list of file names "
                         "in the dataset directory")
    if len(set(names)) < len(names):
        raise ValueError(f"{manifest_path}: 'files' lists a file more than once")
    return manifest_path, [os.path.join(path, name) for name in names]


def load_force_dataset(path) -> list[Recording]:
    """Read every set file of a dataset (see ``dataset_files``), in order.
    Every file must be of kind force."""
    sets = []
    for p in dataset_files(path)[1]:
        if (rec := read_recording(p)).kind != "force":
            raise ValueError(f"{p}: not a force trace file (kind {rec.kind!r})")
        sets.append(rec)
    return sets


# -- foreign format conversion -----------------------------------------------


def convert_csv(src, dst, freq_hz: float = _FORCE["freq_hz"], outcome: str = "failure",
                direction: str = "back", object_id: int = 0, weight: int = 0,
                force_level: int = 0) -> Recording:
    """CSV (one row per step, 16 numeric columns, optional header row) ->
    trace file. Returns the set as written: samples rounded to integers."""
    # csv takes its lines as a file opened with newline="" splits them.
    reader = csv.reader(io.StringIO(_read_text(src), newline=""))
    try:
        lines = [" ".join(row) for row in reader]
    except csv.Error as exc:  # a field past csv.field_size_limit()
        raise ValueError(f"{src}:{reader.line_num}: {exc}") from None
    try:
        np.array(lines[0].split() if lines else [], dtype=np.float64)
    except ValueError:
        lines[0] = ""  # a header row; the row parser skips blank lines
    grasp = Recording(
        samples=_frozen(np.rint(_parse_rows(src, lines, 0, FORCE_CHANNELS))),
        freq_hz=freq_hz,
        outcome=outcome,
        object_id=object_id,
        direction=direction,
        weight=weight,
        force_level=force_level,
        set_id=os.path.splitext(os.path.basename(str(dst)))[0],
    )
    write_recording(grasp, dst)
    return grasp
