"""Dataset ingestion, labeling, windowing, splitting, and synthesis.

A recording's per-step labels (``window_batches``) and its drop step
(``drop_step``) are decided here and nowhere else.

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
    slip_onset 192        # optional ground truth (synthetic sets)
    drop_step 255         # optional ground truth
    data
    1250 1190 ... 1303    # one row per time step, integer mN
    ...

Pressure runs use ``kind pressure`` with ``channels 4`` and an
``initial`` header of the four zero-position counts instead of the
grasp provenance keys. Either kind reads into one ``Recording``. Values
are written as integers, so each must fit a 64-bit integer, and read as
Python float() reads them; parsing is strict, a header key may appear
once, and errors carry file and line.
"""

from __future__ import annotations

import csv
import functools
import json
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from graspslip.ioutil import atomic_write_json, atomic_write_text, rng_for
from graspslip.signal import SensorTrace, readonly_float64

TRACE_FORMAT = "graspslip-trace v1"
OUTCOMES = ("success", "failure")
DIRECTIONS = ("back", "right", "top")

FORCE_CHANNELS = 16
PRESSURE_CHANNELS = 4
CHANNELS = {"force": FORCE_CHANNELS, "pressure": PRESSURE_CHANNELS}
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


@dataclass(frozen=True, eq=False)
class Recording:
    """One trace file: a read-only (n_steps, channels) sample matrix plus
    the header of its kind.

    ``kind="force"``: 16 channels in mN and the grasp provenance (outcome,
    direction, object_id, weight, force_level); ``meta`` carries the
    generator's ground truth (slip_onset, drop_step) for synthetic sets.
    ``kind="pressure"``: 4 channels of raw counts in [0, 65535] and
    ``initial``, the four zero-position counts.
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
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in CHANNELS:
            raise ValueError(f"kind must be one of {tuple(CHANNELS)}, got {self.kind!r}")
        samples = readonly_float64(self.samples)
        n_channels = CHANNELS[self.kind]
        if samples.ndim != 2 or samples.shape[1] != n_channels:
            raise ValueError(f"expected {n_channels} channels, got shape {samples.shape}")
        if samples.shape[0] == 0:
            raise ValueError("empty input")
        if not np.all(np.isfinite(samples)):
            raise ValueError("non-finite sample value")
        if not (0 < self.freq_hz < np.inf):
            raise ValueError("freq_hz must be finite and > 0")
        if self.kind == "force":
            if self.outcome not in OUTCOMES:
                raise ValueError(f"outcome must be success|failure, got {self.outcome!r}")
            if self.direction not in DIRECTIONS:
                raise ValueError(f"direction must be one of {DIRECTIONS}, got {self.direction!r}")
        else:
            initial = tuple(float(v) for v in self.initial or ())
            if len(initial) != n_channels:
                raise ValueError("one initial value required per channel")
            if samples.min() < 0 or samples.max() > PRESSURE_MAX:
                raise ValueError(f"pressure sample outside [0, {PRESSURE_MAX:g}]")
            object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "meta", dict(self.meta))

    @property
    def n_steps(self) -> int:
        return self.samples.shape[0]

    @property
    def n_channels(self) -> int:
        return self.samples.shape[1]

    def channel(self, idx: int) -> SensorTrace:
        """Channel ``idx`` as a SensorTrace over a view of the sample matrix."""
        if not 0 <= idx < self.n_channels:
            raise ValueError(f"channel {idx} out of range (0..{self.n_channels - 1})")
        return SensorTrace(self.samples[:, idx], self.freq_hz, idx)

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

    def __len__(self) -> int:
        return int(self.samples.size)

    @property
    def unstable(self) -> np.ndarray:
        return ~self.labels


# -- drop detection and labeling ----------------------------------------


def detect_drop(
    trace,
    eps_drop: float = EPS_DROP_MN,
    arm_level: float = ARM_MN,
) -> int | None:
    """First step at/after lift where the signal stays below eps_drop.

    The scan arms at the first sample >= arm_level so that the empty-hand
    lead-in does not read as an instant drop; an unarmed trace has none.
    """
    x = trace.samples if isinstance(trace, SensorTrace) else np.asarray(trace, dtype=np.float64)
    armed = np.nonzero(x >= arm_level)[0]
    if armed.size == 0:
        return None
    # Samples that are not low, counted up to each step from the arm step:
    # a window of DROP_SUSTAIN steps is all low where the count stays level.
    high = np.concatenate(([0], np.cumsum(~(x[armed[0]:] < eps_drop))))
    starts = np.flatnonzero(high[DROP_SUSTAIN:] == high[:-DROP_SUSTAIN])
    return int(armed[0] + starts[0]) if starts.size else None


def label_slip(trace, drop_step: int | None) -> np.ndarray:
    """Per-step stable=True labels: unstable from drop_step - 20 onward.

    With no drop every step is stable. The unstable start clamps at 0.
    """
    n = len(trace) if isinstance(trace, SensorTrace) else len(np.asarray(trace))
    labels = np.ones(n, dtype=bool)
    if drop_step is None:
        return labels
    if not (0 <= drop_step < n):
        raise ValueError(f"drop_step out of range: {drop_step} not in [0, {n})")
    labels[max(0, drop_step - LABEL_LEAD_STEPS):] = False
    return labels


def drop_step(rec: Recording, channel: int = 0) -> int | None:
    """The step a recording's grasp drops at: the generator's ground truth
    when it recorded one, else ``detect_drop`` on ``channel``."""
    if "drop_step" in rec.meta:
        return int(rec.meta["drop_step"])
    return detect_drop(rec.channel(channel))


# -- windowing ------------------------------------------------------------


def window_batches(
    rec: Recording,
    window_len: int = 160,
    channel: int = 0,
    labels: str = "detect",
) -> list[LabeledWindow]:
    """Non-overlapping LabeledWindows over one channel of a Recording.

    The trailing remainder is dropped. Each window's samples are a view of
    the recording's read-only matrix. labels="detect" runs detect_drop +
    the 20-step pre-drop rule on the channel itself; labels="truth" takes
    the generator's slip_onset from the set meta (synthetic sets only) and
    marks [slip_onset, end) of a failure set.
    """
    trace = rec.channel(channel)
    if labels == "truth":
        lab = np.ones(len(trace), dtype=bool)
        if rec.outcome == "failure":
            onset = rec.meta.get("slip_onset")
            if onset is None:
                raise ValueError("truth labels need slip_onset in set meta")
            lab[int(onset):] = False
    elif labels == "detect":
        lab = label_slip(trace, detect_drop(trace))
    else:
        raise ValueError(f"labels must be detect|truth, got {labels!r}")
    if window_len < 1:
        raise ValueError("window_len must be >= 1")
    if len(trace) < window_len:
        raise ValueError(f"trace shorter than window: {len(trace)} < {window_len}")
    return [
        LabeledWindow(trace.samples[start : start + window_len], lab[start : start + window_len])
        for start in range(0, len(trace) - window_len + 1, window_len)
    ]


# -- splitting -------------------------------------------------------------


def split(dataset, ratio: float = 0.8, seed: int = 0):
    """Seeded set-level split into (train, test), stratified by outcome.

    Windows of one grasp never straddle the split because whole recordings
    are assigned. Per outcome the train share is floor(ratio * n); if that
    leaves either side empty overall, one set moves across.
    """
    sets = list(dataset)
    if len(sets) < 2:
        raise ValueError("need at least 2 sets to split")
    if not (0.0 < ratio < 1.0):
        raise ValueError(f"ratio must be in (0, 1), got {ratio}")

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
    if not test_idx:
        test_idx.append(train_idx.pop(0))
    train_idx.sort()
    test_idx.sort()
    return [sets[i] for i in train_idx], [sets[i] for i in test_idx]


# -- synthetic generators ---------------------------------------------------


@dataclass(frozen=True)
class SynthParams:
    """Shape of one synthetic grasp trace (force domain, mN)."""

    freq_hz: float = 16.7
    n_steps: int = 400
    grasp_force: float = 2000.0
    ramp_steps: int = 40
    slip_onset: int | None = 200
    slip_band_hz: float = 4.0
    slip_amplitude: float = 0.15   # fraction of grasp_force
    drop_step: int | None = 260
    decay_steps: int = 10
    noise_sd: float = 8.0

    def __post_init__(self):
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
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be >= 0")


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
    independent noise; channel 0 carries gain closest to 1. Ground truth
    (slip_onset, drop_step) rides in the set meta; unstable = [slip_onset,
    end) for failure sets.
    """
    rng = rng_for(seed, "synth-grasp")
    gains = rng.uniform(0.8, 1.2, size=FORCE_CHANNELS)
    gains[0] = 1.0
    failure = params.slip_onset is not None
    meta = {"seed": seed, "synthetic": True}
    if failure:
        meta["slip_onset"] = int(params.slip_onset)
        meta["drop_step"] = int(params.drop_step)
    return Recording(
        samples=_frozen(_synth_channels(params, gains, rng)).T,
        freq_hz=params.freq_hz,
        outcome="failure" if failure else "success",
        object_id=int(rng.integers(0, 10)),
        direction=DIRECTIONS[int(rng.integers(0, len(DIRECTIONS)))],
        weight=int(rng.integers(0, 3)),
        force_level=int(rng.integers(0, 3)),
        set_id=f"synth-{seed:06d}",
        meta=meta,
    )


# The latest slip onset is 240, and a drop step must still fit after it.
FORCE_MIN_STEPS = 242


def synth_force_dataset(
    n_sets: int,
    seed: int = 0,
    failure_fraction: float = 0.5,
    freq_hz: float = 16.7,
    n_steps: int = 400,
) -> list[Recording]:
    """A balanced batch of synthetic sets with per-set randomized shape.

    Failure sets draw slip_onset in [180, 240], a 3-5 Hz slip band, a
    12-20% vibration amplitude, and a drop 50-90 steps after onset (so
    some drops land beyond the windowed span and instability must be
    read from the vibration, not just the collapse to zero).
    """
    if n_sets < 1:
        raise ValueError("n_sets must be >= 1")
    if not (0.0 <= failure_fraction <= 1.0):
        raise ValueError(f"failure_fraction must lie in [0, 1], got {failure_fraction!r}")
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


def synth_pressure_run(
    seed: int,
    n_steps: int = 1600,
    freq_hz: float = 71.0,
    drop_step: int | None = None,
) -> Recording:
    """Pressure-domain analogue of synth_grasp: rise, hold, optional drop."""
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


def _number(value: float) -> str:
    """Header number text that float() reads back as ``value``."""
    text = f"{value:g}"
    return text if float(text) == value else repr(float(value))


def _recording_text(rec: Recording) -> str:
    lines = [
        TRACE_FORMAT,
        f"kind {rec.kind}",
        f"freq_hz {_number(rec.freq_hz)}",
        f"channels {rec.n_channels}",
    ]
    if rec.kind == "force":
        lines += [
            f"outcome {rec.outcome}",
            f"direction {rec.direction}",
            f"object {rec.object_id}",
            f"weight {rec.weight}",
            f"force_level {rec.force_level}",
        ]
        lines += [f"{key} {int(rec.meta[key])}" for key in ("slip_onset", "drop_step")
                  if key in rec.meta]
    else:
        lines.append("initial " + " ".join(map(_number, rec.initial)))
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
    # numpy's C text reader splits lines as str.split() does. A body with
    # no '-' (so '-0' stays -0.0) goes to its int64 parser first: it takes
    # only ASCII integers below 2**63, each cast to float64 as float() reads
    # its text. Its DeprecationWarning is an error here, as numpy from 1.23
    # on may truncate 1.5 or nan to an integer with only that warning. The
    # float64 parser reads as float() does but rejects 1_000 and non-ASCII
    # digits, and both warn on a body with no data: those bodies take the
    # per-line pass, as do bodies with a value the writer cannot write (int64
    # reads 2**63 - 512 and up, which float64 holds as 2**63).
    body = lines[body_start:]
    if any(map(str.strip, body)):
        for dtype in (np.float64,) if "-" in "".join(body) else (np.int64, np.float64):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", DeprecationWarning)
                    rows = np.loadtxt(body, dtype=dtype, comments=None, ndmin=2)
            except (ValueError, DeprecationWarning):
                continue
            rows = rows.astype(np.float64, copy=False)
            if rows.shape[0] and rows.shape[1] == n_channels and not _unwritable(rows).any():
                return rows
    # A bad or empty body: the per-line pass names its first bad line.
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


_REQUIRED = object()


def _field(path, header: dict, key: str, parse, want: str, ok=lambda v: True, default=_REQUIRED):
    """Header ``key`` through ``parse``; ``ok`` must accept the result.

    A missing key raises ValueError naming the file unless a default is
    given; a bad value raises ValueError naming the file and line.
    """
    if key not in header:
        if default is _REQUIRED:
            raise ValueError(f"{path}: missing header key {key!r}")
        return default
    ln, text = header[key]
    try:
        value = parse(text)
    except ValueError:
        pass
    else:
        if ok(value):
            return value
    raise ValueError(f"{path}:{ln}: {key} must be {want}, got {text!r}")


def _channels_and_freq(path, header: dict, n_channels: int) -> float:
    _field(path, header, "channels", int, str(n_channels), lambda n: n == n_channels)
    return _field(path, header, "freq_hz", float, "finite and > 0", lambda f: 0 < f < np.inf)


def read_recording(path) -> Recording:
    """Read one trace file of either kind; errors name the file."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header, body_start = _parse_header(path, lines)
    kind = _field(path, header, "kind", str, f"one of {tuple(CHANNELS)}",
                  lambda v: v in CHANNELS, default="force")
    freq_hz = _channels_and_freq(path, header, CHANNELS[kind])

    def integer(key, default=_REQUIRED):
        return _field(path, header, key, int, "an integer", default=default)

    def choice(key, options):
        return _field(path, header, key, str, f"one of {options}", lambda v: v in options)

    if kind == "force":
        fields = dict(
            outcome=choice("outcome", OUTCOMES),
            object_id=integer("object"),
            direction=choice("direction", DIRECTIONS),
            weight=integer("weight", 0),
            force_level=integer("force_level", 0),
            meta={key: integer(key) for key in ("slip_onset", "drop_step") if key in header},
        )
    else:
        fields = dict(initial=_field(
            path, header, "initial", lambda t: tuple(map(float, t.split())),
            f"{PRESSURE_CHANNELS} numbers", lambda v: len(v) == PRESSURE_CHANNELS))
    samples = _frozen(_parse_rows(path, lines, body_start, CHANNELS[kind]))
    try:
        return Recording(samples, freq_hz, kind,
                         set_id=os.path.splitext(os.path.basename(str(path)))[0], **fields)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_force(path) -> Recording:
    rec = read_recording(path)
    if rec.kind != "force":
        raise ValueError(f"{path}: not a force trace file (kind {rec.kind!r})")
    return rec


# -- dataset directory layout -----------------------------------------------


def save_force_dataset(sets, out_dir, kind: str = "force") -> str:
    """Write one file per recording plus manifest.json; returns the manifest
    path. Every recording must be of ``kind``, which names the files (set_0000.txt
    for force, run_0000.txt for pressure). Every file's text is made before any
    is written, so a sample no file can hold leaves the directory untouched.

    An empty collection writes a manifest only (zero-set dataset).
    """
    sets = list(sets)
    if kind not in CHANNELS:
        raise ValueError(f"kind must be one of {tuple(CHANNELS)}, got {kind!r}")
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
        outcomes: dict[str, int] = {}
        directions: dict[str, int] = {}
        for g in sets:
            outcomes[g.outcome] = outcomes.get(g.outcome, 0) + 1
            directions[g.direction] = directions.get(g.direction, 0) + 1
        manifest.update(
            outcomes=outcomes,
            directions=directions,
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
    with open(manifest_path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except RecursionError:
            raise ValueError(f"{manifest_path}: JSON nested too deep") from None
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
    return [_read_force(p) for p in dataset_files(path)[1]]


# -- foreign format conversion -----------------------------------------------


def convert_csv(
    src,
    dst,
    freq_hz: float = 16.7,
    outcome: str = "failure",
    direction: str = "back",
    object_id: int = 0,
    weight: int = 0,
    force_level: int = 0,
) -> Recording:
    """CSV (one row per step, 16 numeric columns, optional header row) ->
    trace file. Returns the set as written: samples rounded to integers."""
    with open(src, "r", encoding="utf-8", newline="") as fh:
        lines = [" ".join(row) for row in csv.reader(fh)]
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
