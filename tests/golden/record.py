"""Record the golden inference fixture: four seeded checkpoints, three
fixed raw traces, and the per-step p_unstable each variant gives them.

    PYTHONPATH=src python tests/golden/record.py

Writes ``A.gslp`` .. ``D.gslp`` and ``expected.json`` next to this file.
The committed files were recorded before the batched LSTM cell replaced
the per-sample one, so ``tests/test_golden.py`` pins today's inference
to that earlier implementation. Re-record only for a deliberate change of
the model's numerics, and say so in the change log.
"""

from __future__ import annotations

import json
import os

import numpy as np

from graspslip import data, models, nn
from graspslip.signal import NormStats

HERE = os.path.dirname(os.path.abspath(__file__))
HIDDEN = 8
N_STEPS = 96
STATS = NormStats(200.0, 3800.0)


def golden_traces() -> list[np.ndarray]:
    """A synthetic failure grasp, out-of-range noise, and a stepped sine."""
    grasp = next(g for g in data.synth_force_dataset(2, seed=11) if g.outcome == "failure")
    start = grasp.slip_onset - N_STEPS // 2
    rng = np.random.default_rng(5)
    t = np.arange(N_STEPS)
    return [
        grasp.channel(3).samples[start : start + N_STEPS].astype(np.float64),
        rng.uniform(-500.0, 4500.0, size=N_STEPS),
        1500.0 + 800.0 * np.sin(2 * np.pi * t / 9.0) + 900.0 * (t >= N_STEPS // 2),
    ]


def golden_model(tag: str, seed: int, hidden: int = HIDDEN) -> models.GraspModel:
    """Wide weights and random biases, so every parameter moves the output."""
    variant = models.get_variant(tag)
    rng = np.random.default_rng(seed)
    lstms = []
    for dim in variant.stream_dims:
        p = nn.LstmParams.init(dim, hidden, rng, scale=0.6)
        gates = nn.gate_views(p.k)
        for name in ("b_i", "b_f", "b_o", "b_g"):
            gates[name][...] = rng.uniform(-0.5, 0.5, size=hidden)
        lstms.append(p)
    head = nn.FcHead.init(hidden * variant.n_streams, rng, scale=0.6)
    head.b = rng.uniform(-0.3, 0.3, size=2)
    return models.GraspModel(variant, lstms, head, stats=STATS)


def main() -> None:
    traces = golden_traces()
    expected = {"traces": [tr.tolist() for tr in traces], "p_unstable": {}}
    for k, tag in enumerate("ABCD"):
        model = golden_model(tag, 100 + k)
        models.save_checkpoint(model, os.path.join(HERE, f"{tag}.gslp"))
        expected["p_unstable"][tag] = [
            model.predict_samples(tr).p_unstable.tolist() for tr in traces
        ]
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
