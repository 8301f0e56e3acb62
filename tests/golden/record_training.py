"""Record the golden training fixture: a seeded fit of each variant on a
few synthetic sets, and what it leaves behind.

    PYTHONPATH=src python tests/golden/record_training.py

Writes ``training.json`` next to this file: per variant, the digest of
the fit's inputs, the per-epoch losses and validation success (only C
fits with validation windows, so only its best-epoch restore runs), the
final stored arrays and the held-out probabilities.
``tests/test_golden_training.py`` pins today's training (forward pass,
BPTT, clipping, Adam, early-stop restore) to the recorded fit. Re-record
only for a deliberate change of the training numerics, and say so in the
change log.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from graspslip import data, evaluation, models

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG = models.TrainConfig(window_len=40, lstm_units=6, epochs=3, seed=3, labels="truth")
# Variants fitted with validation windows, so the best-epoch restore runs.
VALIDATED = ("C",)


def training_sets():
    """(train, validation, held-out) sets; each split has a failure set."""
    sets = data.synth_force_dataset(8, seed=23)  # sets 0-3 fail, 4-7 succeed
    return [sets[i] for i in (0, 1, 4, 5)], [sets[2], sets[6]], [sets[3], sets[7]]


def inputs_digest(tag: str) -> str:
    """sha256 of everything a fit of ``tag`` starts from: the three splits'
    sample matrices and the freshly built model's stored arrays."""
    digest = hashlib.sha256()
    for split in training_sets():
        for rec in split:
            digest.update(rec.as_matrix().tobytes())
    for arr in models.GraspModel.build(tag, CONFIG).stored_arrays().values():
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def fit(tag: str) -> dict:
    """The seeded fit of variant ``tag``, as ``training.json`` records it."""
    train_sets, val_sets, heldout = training_sets()
    model, history = evaluation.fit_variant(
        tag, train_sets, CONFIG, val_sets=val_sets if tag in VALIDATED else None)
    windows = [w for g in heldout for w in data.window_batches(g, CONFIG.window_len, labels="truth")]
    heldout_p = model.predict_batch(model.featurize(np.stack([w.samples for w in windows]))).p_unstable
    return {
        "mean_loss": [r.mean_loss for r in history],
        "val_success": [r.val_success for r in history],
        "stored_arrays": {name: arr.tolist() for name, arr in model.stored_arrays().items()},
        "heldout_p_unstable": heldout_p.tolist(),
    }


def main() -> None:
    fixture = {tag: {"inputs_sha256": inputs_digest(tag), **fit(tag)} for tag in "ABCD"}
    with open(os.path.join(HERE, "training.json"), "w", encoding="utf-8") as fh:
        json.dump(fixture, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
