"""Golden training fixture: a seeded fit of each variant, frozen.

tests/golden/training.json was recorded (see tests/golden/record_training.py)
before the head scored each hidden row on its own. The same seeded fit must
still land on the recorded losses, parameters and held-out probabilities to
1e-12, so a change to the forward pass, BPTT, clipping, Adam or the
best-epoch restore shows here.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from tests.golden import record_training as record

TOL = 1e-12


@pytest.fixture(scope="module")
def recorded():
    with open(Path(__file__).parent / "golden" / "training.json", encoding="utf-8") as fh:
        return json.load(fh)


def assert_close(got, ref, what):
    got, ref = np.asarray(got, dtype=np.float64), np.asarray(ref, dtype=np.float64)
    assert got.shape == ref.shape, what
    gap = float(np.max(np.abs(got - ref)))
    assert gap <= TOL, f"{what}: max divergence {gap:.3e}"


@pytest.mark.parametrize("tag", ["A", "B", "C", "D"])
def test_recorder_rebuilds_the_fit_inputs(tag, recorded):
    assert record.inputs_digest(tag) == recorded[tag]["inputs_sha256"]


@pytest.mark.parametrize("tag", ["A", "B", "C", "D"])
def test_seeded_fit_reproduces_the_recorded_fit(tag, recorded):
    ref, got = recorded[tag], record.fit(tag)
    assert got["val_success"] == ref["val_success"]
    assert_close(got["mean_loss"], ref["mean_loss"], "per-epoch loss")
    assert got["stored_arrays"].keys() == ref["stored_arrays"].keys()
    for name, arr in ref["stored_arrays"].items():
        assert_close(got["stored_arrays"][name], arr, name)
    assert_close(got["heldout_p_unstable"], ref["heldout_p_unstable"], "held-out p_unstable")


def test_the_validated_fit_restores_an_earlier_epoch(recorded):
    # C's validation success never rises after epoch 0, so the restore
    # hands back epoch 0's parameters, not the last epoch's.
    val = recorded["C"]["val_success"]
    assert len(val) == record.CONFIG.epochs and max(val[1:]) <= val[0]
