"""Fuzzing of the file parsers and of the command line.

Whatever a trace file or checkpoint contains, reading it must
either succeed or raise ValueError (CheckpointError is one), which the
CLI turns into exit code 1; nothing else may escape. Checkpoints go
through load_checkpoint, so read_blob and the header checks behind it
are both exercised. Whatever flag values a subcommand gets, it must exit
0, 1 or 2 without a traceback, and an exit 1 must leave no file behind.
Runs are derandomized so every run sees the same examples.
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
import re
import struct
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from graspslip import cli, data, ioutil, models, stream
from graspslip.signal import SensorTrace, compute_norm_stats

FUZZ = settings(
    derandomize=True, max_examples=100, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# One edit of a text file: (line, position in the line, both as fractions,
# bytes to delete there, bytes to insert there). Picking the line first
# makes short header lines as likely a target as long data rows; every
# edit deletes at least one byte, so none is a no-op. Inserts are mostly
# characters the parsers give meaning to, so most edits get past UTF-8
# decoding.
INSERTS = st.text("0123456789+-.eE,# \tnaif\n", max_size=8).map(str.encode) | st.binary(max_size=8)
EDITS = st.lists(
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(1, 8), INSERTS),
    min_size=1, max_size=4,
)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)

# Values that most often break numeric code; json writes float("inf") as
# Infinity and reads it back. Every header slot is tried with each.
EDGE_VALUES = [float("inf"), float("-inf"), float("nan"), 0, -1, 2**64, 10**400, True, False, "",
               "0", None, [], {}]


def mutate(raw: bytes, edits) -> bytes:
    lines = raw.split(b"\n")
    for line_frac, pos_frac, n_delete, insert in edits:
        idx = min(int(line_frac * len(lines)), len(lines) - 1)
        line = bytearray(lines[idx])
        pos = int(pos_frac * len(line))
        line[pos : pos + n_delete] = insert
        lines[idx] = bytes(line)
    return b"\n".join(lines)


def seal(payload: bytes) -> bytes:
    """A checkpoint payload with a digest that checks out."""
    return payload + hashlib.sha256(payload).hexdigest().encode("ascii")


def checkpoint_bytes(header, body: bytes) -> bytes:
    meta = json.dumps(header).encode("utf-8")
    return seal(models.CKPT_MAGIC + struct.pack("<II", models.CKPT_VERSION, len(meta))
                + meta + body)


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """One small valid file of each kind, as bytes."""
    root = tmp_path_factory.mktemp("valid")
    grasp = data.synth_grasp(
        1, data.SynthParams(n_steps=16, ramp_steps=4, slip_onset=8, drop_step=12))
    data.write_recording(grasp, root / "set.txt")
    data.write_recording(data.synth_pressure_run(2, n_steps=12), root / "pressure.txt")
    model = models.GraspModel.build("D", models.TrainConfig(window_len=40, lstm_units=2))
    model.stats = compute_norm_stats([grasp.channel(0).samples])
    models.save_checkpoint(model, root / "model.gslp")
    return {path.name: path.read_bytes() for path in root.iterdir()}


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


READERS = {
    "set.txt": data.read_recording,
    "pressure.txt": data.read_recording,
    "model.gslp": models.load_checkpoint,
}


def read(name, path, raw: bytes) -> None:
    path.write_bytes(raw)
    try:
        READERS.get(name, models.load_checkpoint)(path)
    except ValueError:
        pass


@pytest.mark.parametrize("name", sorted(READERS))
@FUZZ
@given(raw=st.binary(max_size=512))
def test_arbitrary_bytes_raise_only_value_error(scratch, name, raw):
    read(name, scratch, raw)


@pytest.mark.parametrize("name", sorted(READERS))
@FUZZ
@given(edits=EDITS)
def test_mutated_valid_file_raises_only_value_error(valid, scratch, name, edits):
    if name == "model.gslp":  # re-sealed, so the parser gets past the digest
        raw = seal(mutate(valid[name][:-64], edits))
    else:
        raw = mutate(valid[name], edits)
    read(name, scratch, raw)


def header_slots(valid, scratch, name):
    """A checkpoint's header, its body bytes, and every (container, key)
    slot of the header: top-level fields, one added key, norm_stats bounds,
    array entries, shape dimensions.
    """
    scratch.write_bytes(valid[name])
    header, arrays = models.read_blob(scratch)
    body = valid[name][-64 - 8 * sum(a.size for a in arrays.values()) : -64]
    entries = header["arrays"]
    slots = ([(header, k) for k in sorted(header)] + [(header, "added")]
             + [(header["norm_stats"], k) for k in ("min", "max")]
             + [(e, k) for e in entries for k in ("name", "shape")]
             + [(e["shape"], j) for e in entries for j in range(len(e["shape"]))])
    return header, body, slots


CHECKPOINTS = ["model.gslp"]


@pytest.mark.parametrize("name", CHECKPOINTS)
def test_checkpoint_header_edge_values_raise_only_value_error(valid, scratch, name):
    _, _, slots = header_slots(valid, scratch, name)
    for idx in range(len(slots)):
        for value in EDGE_VALUES:
            header, body, slots = header_slots(valid, scratch, name)
            owner, key = slots[idx]
            owner[key] = value
            read(name, scratch, checkpoint_bytes(header, body))


# -- library arguments -------------------------------------------------------
#
# Each library entry point that takes a seed, a set count or a sensor count:
# the argument's name, its rule, and a CLI flag that prints that rule's words
# (with a text it refuses). gen-data's --sets also takes 0, an empty dataset,
# so a generator's n_sets prints the words of the count flags.
SEED = ("seed", ioutil.NATURAL, ("gen-data", "--seed", "-1"))
SETS = ("n_sets", ioutil.COUNT, ("grad-check", "--instances", "0"))
SENSORS = ("n_channels", data.SENSORS, ("simulate", "--channels", "17"))
ARGUMENT_VALUES = [*EDGE_VALUES, 2**63, 1.5, 2.5, 1, 16, 17]  # EDGE_VALUES holds -1
ENTRY_POINTS = {
    "rng_for": (SEED, lambda v, lib: ioutil.rng_for(v, "probe")),
    "split": (SEED, lambda v, lib: data.split(lib.sets, seed=v)),
    "synth_grasp": (SEED, lambda v, lib: data.synth_grasp(v, data.SynthParams(n_steps=300))),
    "synth_force_dataset.seed": (SEED, lambda v, lib: data.synth_force_dataset(2, seed=v)),
    "synth_force_dataset.n_sets": (SETS, lambda v, lib: data.synth_force_dataset(v)),
    "synth_pressure_run": (SEED, lambda v, lib: data.synth_pressure_run(v, n_steps=40)),
    "synth_pressure_dataset.seed": (SEED, lambda v, lib: data.synth_pressure_dataset(2, v)),
    "synth_pressure_dataset.n_sets": (SETS, lambda v, lib: data.synth_pressure_dataset(v)),
    "GraspModel.build": (SEED, lambda v, lib: models.GraspModel.build("C", lib.config, seed=v)),
    "StreamingPredictor": (SENSORS, lambda v, lib: stream.StreamingPredictor(lib.model, v)),
    "replay": (SENSORS, lambda v, lib: stream.replay([lib.trace] * v, lib.model, timing=False)),
}


def flag_words(command: str, flag: str, text: str) -> str:
    """What ``flag`` of ``command`` prints of its rule when given ``text``."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cli.main([command, flag, text]) == 1
    return re.search(rf"argument {flag}: (must be .*), got ", err.getvalue()).group(1)


@pytest.fixture(scope="module")
def lib():
    """Two small force sets, one 30-step trace, and a tiny C model with stats."""
    sets = data.synth_force_dataset(2, seed=0, n_steps=data.FORCE_MIN_STEPS)
    config = models.TrainConfig(lstm_units=2)
    model = models.GraspModel.build("C", config)
    model.stats = compute_norm_stats([sets[0].channel(0).samples])
    trace = SensorTrace(sets[0].samples[:30, 0], sets[0].freq_hz)
    return types.SimpleNamespace(sets=sets, config=config, model=model, trace=trace)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_library_arguments_raise_value_error_in_their_flags_words(lib, entry):
    (name, rule, flag), call = ENTRY_POINTS[entry]
    words = flag_words(*flag)
    assert words == f"must be {rule.words}"
    # replay takes its sensor count as a number of traces.
    for value in [16, 17] if entry == "replay" else ARGUMENT_VALUES:
        if rule.takes(value) or (entry == "GraspModel.build" and value is None):  # its default
            call(value, lib)
        else:
            with pytest.raises(ValueError, match=re.escape(f"{name} {words}, got ")):
                call(value, lib)


@pytest.mark.parametrize("name", CHECKPOINTS)
@FUZZ
@given(drawn=st.data())
def test_checkpoint_header_values_raise_only_value_error(valid, scratch, name, drawn):
    # Replace one header slot with an arbitrary JSON value; the digest
    # still checks out.
    header, body, slots = header_slots(valid, scratch, name)
    owner, key = drawn.draw(st.sampled_from(slots))
    owner[key] = drawn.draw(JSON_VALUES)
    read(name, scratch, checkpoint_bytes(header, body))


@pytest.mark.parametrize("name", CHECKPOINTS)
@FUZZ
@given(drawn=st.data())
def test_checkpoint_non_finite_array_value_is_refused(valid, scratch, name, drawn):
    # One value of the re-sealed body becomes NaN or +-inf: the loader must
    # refuse the file, naming the array and the value's index.
    header, body, _ = header_slots(valid, scratch, name)
    entries = header["arrays"]
    i = drawn.draw(st.integers(0, len(entries) - 1))
    flat = drawn.draw(st.integers(0, math.prod(entries[i]["shape"]) - 1))
    value = drawn.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    pos = 8 * (sum(math.prod(e["shape"]) for e in entries[:i]) + flat)
    body = body[:pos] + struct.pack("<d", value) + body[pos + 8 :]
    scratch.write_bytes(checkpoint_bytes(header, body))
    index = tuple(map(int, np.unravel_index(flat, entries[i]["shape"])))
    want = f"array {entries[i]['name']!r} holds {value} at index {index}"
    with pytest.raises(models.CheckpointError, match=re.escape(want)):
        models.load_checkpoint(scratch)


def test_valid_files_read_back(valid, scratch):
    for name, raw in valid.items():
        scratch.write_bytes(raw)
        READERS.get(name, models.load_checkpoint)(scratch)


# -- command lines ------------------------------------------------------------
#
# Each subcommand runs in process on drawn flags: every flag is left out
# or takes an edge value or a small int. Size flags are capped so that no
# run allocates more than a few MB.

EDGES = ("nan", "inf", "-inf", "-1", "0", "0.5", "1", "1.5", "21")


def numbers(lo=-2, hi=8):
    """An edge value or an int in [lo, hi]; no finite edge value above hi."""
    edges = [v for v in EDGES if not (math.isfinite(float(v)) and float(v) > hi)]
    return st.sampled_from(edges) | st.integers(lo, hi).map(str)


def flags(**strategies):
    """argv tokens: each ``--name`` left out or given a drawn value
    (``True`` draws a bare switch)."""
    def tokens(drawn):
        out = []
        for name, value in sorted(drawn.items()):
            out.append("--" + name.replace("_", "-"))
            if value is not True:
                out.append(value)
        return out
    return st.fixed_dictionaries({}, optional=strategies).map(tokens)


def setting_edges(setting):
    """Each bound written in a TrainConfig setting's words and the nearest
    value of its kind on either side, as flag texts."""
    bounds = [float(b) for b in re.findall(r"-?\d+(?:\.\d+)?", setting.rule.want)]
    if setting.rule.kind is int:
        return [str(int(b) + d) for b in bounds for d in (-1, 0, 1)]
    return [repr(x) for b in bounds
            for x in (math.nextafter(b, -math.inf), b, math.nextafter(b, math.inf))]


# Every TrainConfig setting's flag, its size capped as above: a number or
# an edge of its rule, or for the label source a name its rule takes.
SIZE_CAPS = {"epochs": 2, "lstm_units": 8, "window_len": 300, "channel": 16}
TRAIN_KNOBS = {
    s.flag[2:].replace("-", "_"): st.sampled_from(data.LABELS) if s.rule.kind is str
    else numbers(hi=SIZE_CAPS.get(f, 8)) | st.sampled_from(setting_edges(s))
    for f, s in models.TRAIN_SETTINGS.items()
}

ARGV = {
    "gen-data": flags(
        seed=numbers(), sets=numbers(hi=6), profile=st.sampled_from(["force", "pressure"]),
        steps=numbers(hi=500) | st.integers(230, 500).map(str), freq_hz=numbers(),
        failure_fraction=numbers(), force=st.just(True)),
    "convert": flags(
        freq_hz=numbers(), object=numbers(), weight=numbers(), force_level=numbers(),
        outcome=st.sampled_from(["success", "failure"]),
        direction=st.sampled_from(data.DIRECTIONS)),
    "train": flags(holdout=numbers(), **TRAIN_KNOBS),
    "eval": flags(
        holdout=numbers(), seed=numbers(), window_len=numbers(hi=300),
        labels=TRAIN_KNOBS["labels"], channel=TRAIN_KNOBS["channel"], dump_set=numbers()),
    "cross-eval": flags(
        ratio=numbers(), condition=st.sampled_from(["direction", "outcome"]), **TRAIN_KNOBS),
    "simulate": flags(
        set=numbers(), channels=numbers(hi=16), no_timing=st.just(True),
        strict_latency=st.just(True)),
    "grad-check": flags(
        variants=st.sampled_from(["A", "CD", "ABCD", "", "Z"]), hidden=numbers(hi=3),
        steps=numbers(hi=21), instances=numbers(hi=2), seed=numbers(), tolerance=numbers()),
}

# Examples per subcommand; each cross-eval run starts a spawn pool.
EXAMPLES = {"cross-eval": 10, "grad-check": 15}


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """Input flags per subcommand, over one tiny dataset and checkpoint,
    and a source of fresh output paths."""
    root = tmp_path_factory.mktemp("argv")
    ds, run = root / "ds", root / "run"
    assert cli.main(["gen-data", "--out", str(ds), "--sets", "4", "--steps", "330",
                     "--seed", "1"]) == 0
    assert cli.main(["train", "--data", str(ds), "--variant", "A", "--out", str(run),
                     "--epochs", "1", "--units", "2"]) == 0
    csv_path = root / "trace.csv"
    csv_path.write_text("\n".join([",".join(f"c{j}" for j in range(16))]
                                  + [",".join(str(100 * i + j) for j in range(16))
                                     for i in range(5)]) + "\n")
    ckpt = ["--checkpoint", str(run / "checkpoint.gslp")]
    fit = ["--data", str(ds), "--variant", "C"]
    inputs = {
        "gen-data": [], "convert": ["--src", str(csv_path)], "train": fit, "cross-eval": fit,
        "eval": [*ckpt, "--data", str(ds)], "simulate": [*ckpt, "--data", str(ds)],
        "grad-check": [],
    }
    counter = itertools.count()
    return inputs, lambda: root / f"out{next(counter)}"


@pytest.mark.parametrize("command", sorted(ARGV))
def test_cli_flags_exit_cleanly(cli_inputs, command):
    inputs, fresh = cli_inputs

    @settings(FUZZ, max_examples=EXAMPLES.get(command, 30))
    @given(argv=ARGV[command])
    def check(argv):
        out = fresh()
        dest = {"convert": ["--dst", str(out)], "grad-check": []}.get(command, ["--out", str(out)])
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([command, *inputs[command], *dest, *argv])
        assert code in (0, 1, 2), code
        assert "Traceback" not in err.getvalue()
        if code == 1:
            assert not out.is_file() and not any(p.is_file() for p in out.rglob("*"))

    check()
