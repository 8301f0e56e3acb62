import dataclasses

import numpy as np
import pytest

from graspslip import data, evaluation, models


@pytest.fixture(scope="session")
def synth_sets():
    """40 deterministic synthetic sets, half failing."""
    return data.synth_force_dataset(40, seed=7)


@pytest.fixture(scope="session")
def synth_split(synth_sets):
    return data.split(synth_sets, 0.8, seed=0)


@pytest.fixture(scope="session")
def trained_c(synth_split):
    """A variant-C model good enough to exercise metrics and streaming."""
    train_sets, _ = synth_split
    config = models.TrainConfig(epochs=12, lstm_units=32, seed=0, labels="truth")
    model, history = evaluation.fit_variant("C", train_sets, config)
    return model


@pytest.fixture(scope="session")
def short_top_sets():
    """Ten 400-step "back" sets and four "top" sets of data.FORCE_MIN_STEPS
    steps, shorter than a 300-step window, with the error scoring one gives."""
    back = [dataclasses.replace(s, direction="back") for s in data.synth_force_dataset(10, seed=37)]
    top = [dataclasses.replace(s, direction="top")
           for s in data.synth_force_dataset(4, seed=38, n_steps=data.FORCE_MIN_STEPS)]
    return back + top, f"error: trace shorter than window: {data.FORCE_MIN_STEPS} < 300"


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
