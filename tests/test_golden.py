"""Golden inference fixture: frozen checkpoints, traces and probabilities.

The files under tests/golden/ were recorded (see tests/golden/record.py)
with the per-sample LSTM implementation that preceded the batched cell.
Every inference path must still reproduce them to 1e-12.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from graspslip import models
from graspslip.stream import StreamingPredictor
from tests.golden import record

GOLDEN = Path(__file__).parent / "golden"
TOL = 1e-12


@pytest.fixture(scope="module")
def expected():
    with open(GOLDEN / "expected.json", encoding="utf-8") as fh:
        blob = json.load(fh)
    traces = [np.array(t) for t in blob["traces"]]
    return traces, {tag: np.array(p) for tag, p in blob["p_unstable"].items()}


def load(tag):
    return models.load_checkpoint(GOLDEN / f"{tag}.gslp")


def assert_close(got, ref):
    gap = float(np.max(np.abs(np.asarray(got) - ref)))
    assert gap <= TOL, f"max divergence {gap:.3e}"


@pytest.mark.parametrize("tag", ["A", "B", "C", "D"])
def test_golden_checkpoint_resaves_byte_identically(tag, tmp_path):
    # The writer's order and the reader's manifest agree on the committed files.
    models.save_checkpoint(load(tag), tmp_path / "again.gslp")
    assert (tmp_path / "again.gslp").read_bytes() == (GOLDEN / f"{tag}.gslp").read_bytes()


@pytest.mark.parametrize("tag", ["A", "B", "C", "D"])
def test_golden_offline_predict(tag, expected):
    traces, ref = expected
    model = load(tag)
    for tr, p in zip(traces, ref[tag]):
        assert_close(model.predict_samples(tr).p_unstable, p)


@pytest.mark.parametrize("tag", ["A", "B", "C", "D"])
def test_golden_batched_predict(tag, expected):
    traces, ref = expected
    model = load(tag)
    pred = model.predict_batch(model.featurize(np.stack(traces)))
    assert pred.p_unstable.shape == ref[tag].shape
    assert_close(pred.p_unstable, ref[tag])


@pytest.mark.parametrize("tag", ["A", "B", "C", "D"])
def test_golden_streaming(tag, expected):
    traces, ref = expected
    model = load(tag)
    for tr, p in zip(traces, ref[tag]):
        pred = StreamingPredictor(model)
        assert_close(np.concatenate([pred.push_frame([v])[0] for v in tr]), p)
    frame_pred = StreamingPredictor(model, n_channels=len(traces))
    online = np.stack([frame_pred.push_frame(frame)[0] for frame in np.stack(traces, axis=1)])
    assert_close(online.T, ref[tag])


@pytest.mark.parametrize("k, tag", enumerate("ABCD"))
def test_recorder_rebuilds_the_committed_fixture(k, tag, expected):
    # A re-record must reproduce today's checkpoints and traces exactly.
    committed = load(tag).param_dict()
    rebuilt = record.golden_model(tag, 100 + k).param_dict()
    assert rebuilt.keys() == committed.keys()
    for name, arr in committed.items():
        np.testing.assert_array_equal(rebuilt[name], arr, err_msg=name)
    traces, _ = expected
    for got, ref in zip(record.golden_traces(), traces, strict=True):
        np.testing.assert_array_equal(got, ref)
