"""Fuzzing of the file parsers: arbitrary bytes and mutated valid files.

Whatever a trace file, event log or checkpoint contains, reading it must
either succeed or raise ValueError (CheckpointError is one), which the
CLI turns into exit code 1; nothing else may escape. Checkpoints go
through load_checkpoint, so read_blob and the header checks behind it
are both exercised. Runs are derandomized so every run sees the same
examples.
"""

import hashlib
import json
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from graspslip import data, models, stream
from graspslip.signal import compute_norm_stats

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
EDGE_VALUES = [float("inf"), float("-inf"), float("nan"), 0, -1, 2**64, True, "", None, [], {}]


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
    events = [stream.StepEvent(step, ch, 0.25 * ch, ch % 2 == 1, 12.5)
              for step in range(3) for ch in range(3)]
    stream.write_event_log(events, root / "events.csv")
    model = models.GraspModel.build("D", models.TrainConfig(window_len=40, lstm_units=2))
    model.stats = compute_norm_stats([grasp.channel(0)])
    models.save_checkpoint(model, root / "model.gslp")
    return {path.name: path.read_bytes() for path in root.iterdir()}


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


READERS = {
    "set.txt": data.read_recording,
    "pressure.txt": data.read_recording,
    "events.csv": stream.read_event_log,
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
    slot of the header: top-level fields, array entries, shape dimensions.
    """
    scratch.write_bytes(valid[name])
    header, arrays = models.read_blob(scratch)
    body = valid[name][-64 - 8 * sum(a.size for a in arrays.values()) : -64]
    entries = header["arrays"]
    slots = ([(header, k) for k in sorted(header)]
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


def test_valid_files_read_back(valid, scratch):
    for name, raw in valid.items():
        scratch.write_bytes(raw)
        READERS.get(name, models.load_checkpoint)(scratch)
