"""Set-up, workloads and output checks of the graspslip benchmark.

Every input comes from the run seed: a synthetic force dataset written to
disk and read back, its seeded train / held-out split, and seeded
checkpoints of variants A-D (train-split norm stats) written and read
back as ``.gslp`` files.

A workload repeats one operation until its timed work reaches the run
length and reports one rate per operation. Output checks run after each
operation, outside the timed region; an exception or a failed check
counts the operation as failed.
"""

from __future__ import annotations

import contextlib
import gc
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

import oracle
from graspslip import data, evaluation, models, signal, stream

N_SETS = 100          # 400-step synthetic force sets per run
TRAIN_RATIO = 0.8     # 80 train sets (160 windows), 20 held-out (40 windows)
HIDDEN = 128          # the paper's default LSTM width
WINDOW_LEN = 160
CHANNELS = 16
TOL = 1e-12
CHECKED_WINDOWS = 1   # eval: windows per variant and pass compared to the oracle
CHECKED_CHANNELS = 2  # replay16: channels per set compared to offline inference


def train_config(seed: int) -> models.TrainConfig:
    """The CLI ``train`` defaults at H=128, one epoch, no holdout."""
    return models.TrainConfig(lstm_units=HIDDEN, epochs=1, seed=seed)


@dataclass
class Inputs:
    generated: list
    loaded: list
    train: list
    heldout: list
    stats: signal.NormStats
    written: dict          # tag -> parameter arrays as built, before the round trip
    checkpoints: dict      # tag -> GraspModel read back from its .gslp file


def setup(seed: int, workdir: str) -> Inputs:
    """Generate, write and load the dataset; round-trip four checkpoints."""
    generated = data.synth_force_dataset(N_SETS, seed=seed)
    data.save_force_dataset(generated, os.path.join(workdir, "data"))
    loaded = data.load_force_dataset(os.path.join(workdir, "data"))
    train, heldout = data.split(loaded, TRAIN_RATIO, seed=seed)
    stats = signal.compute_norm_stats(
        w.samples for g in train for w in data.window_batches(g, WINDOW_LEN)
    )
    written, checkpoints = {}, {}
    for k, tag in enumerate("ABCD"):
        model = models.GraspModel.build(tag, train_config(seed), seed=seed * 4 + k)
        model.stats = stats
        path = os.path.join(workdir, f"{tag}.gslp")
        models.save_checkpoint(model, path)
        written[tag] = model.copy_params()
        checkpoints[tag] = models.load_checkpoint(path)
    return Inputs(generated, loaded, train, heldout, stats, written, checkpoints)


def check_setup(inputs: Inputs) -> list[str]:
    errors = []
    if len(inputs.loaded) != len(inputs.generated):
        errors.append(f"loaded {len(inputs.loaded)} sets, wrote {len(inputs.generated)}")
    for k, (ref, got) in enumerate(zip(inputs.generated, inputs.loaded)):
        if got.outcome != ref.outcome or not np.array_equal(got.as_matrix(), ref.as_matrix()):
            errors.append(f"set {k} changed on the disk round trip")
    for tag, model in inputs.checkpoints.items():
        params = model.param_dict()
        if params.keys() != inputs.written[tag].keys() or any(
            not np.array_equal(params[k], v) for k, v in inputs.written[tag].items()
        ):
            errors.append(f"checkpoint {tag} changed on the round trip")
        if model.stats != inputs.stats:
            errors.append(f"checkpoint {tag} lost its norm stats")
    return errors


@dataclass
class Tally:
    """Per-operation rates and the attempted / failed operation counts."""

    rates: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        self.errors.append(message)


def repeat(workload, tally: Tally, seconds: float = 0.0, n_ops: int | None = None,
           span=None, untraced=contextlib.nullcontext) -> None:
    """Call workload.op(i) until ``seconds`` of timed work, or ``n_ops`` times.

    op(i) returns (work units done, check); check() runs untimed and
    returns a list of (failed operation count, message). ``span()``, when
    given, wraps each call in a tracer span, and ``untraced()`` keeps the
    checks out of the trace. The first exception ends the loop, since
    later calls would most likely fail the same way.
    """
    elapsed, i = 0.0, 0
    while (i < n_ops) if n_ops is not None else (elapsed < seconds):
        gc.collect()
        tally.attempted += workload.op_size
        t0 = time.perf_counter()
        try:
            with span() if span is not None else contextlib.nullcontext():
                units, check = workload.op(i)
            dt = time.perf_counter() - t0
            with untraced():
                failures = check()
        except Exception as exc:  # one failed operation, reported in the result
            tally.fail(workload.op_size, f"{type(exc).__name__}: {exc}")
            return
        elapsed += dt
        tally.rates.append(units / dt)
        for count, message in failures:
            tally.fail(count, message)
        i += 1


# -- train ---------------------------------------------------------------


class Train:
    """Fit variant C on the train split: one Adam step per window, B=1."""

    unit = "windows"
    alias = "train_windows_per_s"
    op_size = 1

    def __init__(self, inputs: Inputs, seed: int):
        self.inputs = inputs
        self.config = train_config(seed)
        self.n_windows = sum(len(data.window_batches(g, WINDOW_LEN)) for g in inputs.train)
        self.first = None

    def op(self, i: int):
        model, history = evaluation.fit_variant("C", self.inputs.train, self.config)

        def check():
            losses = [rec.mean_loss for rec in history]
            if len(losses) != self.config.epochs or not all(map(math.isfinite, losses)):
                return [(1, f"fit {i}: losses {losses} not finite")]
            if self.first is None:
                self.first = model
            elif any(not np.array_equal(v, ref) for v, ref in
                     zip(model.param_dict().values(), self.first.param_dict().values())):
                return [(1, f"fit {i}: parameters differ from fit 0 on the same inputs")]
            return []

        return self.n_windows, check


# -- eval ----------------------------------------------------------------


class Eval:
    """evaluate_model on the held-out split for checkpoints A-D."""

    unit = "steps"
    alias = "eval_steps_per_s"

    def __init__(self, inputs: Inputs, seed: int):
        self.inputs = inputs
        self.rng = np.random.default_rng([seed, 1])
        self.windows = [
            (s, w) for s, g in enumerate(inputs.heldout)
            for w in data.window_batches(g, WINDOW_LEN)
        ]
        self.reports = None
        self.op_size = len(inputs.checkpoints) * len(inputs.heldout)

    def op(self, i: int):
        ckpts = self.inputs.checkpoints
        reports = {tag: evaluation.evaluate_model(m, self.inputs.heldout, WINDOW_LEN)
                   for tag, m in ckpts.items()}

        def check():
            # A failed (variant, set) pair is one failed operation.
            bad, messages = set(), []
            n_sets = len(self.inputs.heldout)
            expected = len(self.windows) * WINDOW_LEN
            for tag, rep in reports.items():
                if rep.n_steps != expected:
                    problem = f"{rep.n_steps} steps, expected {expected}"
                elif self.reports is not None and rep != self.reports[tag]:
                    problem = "report differs from pass 0"
                else:
                    continue
                bad.update((tag, s) for s in range(n_sets))
                messages.append(f"eval {tag}: {problem}")
            for tag, model in ckpts.items():
                for idx in self.rng.choice(len(self.windows), CHECKED_WINDOWS, replace=False):
                    s, w = self.windows[idx]
                    err = self._oracle_error(model, w)
                    if err is not None:
                        bad.add((tag, s))
                        messages.append(f"eval {tag} set {s}: {err}")
            if self.reports is None:
                self.reports = reports
            return [(len(bad), "; ".join(messages))] if bad else []

        return sum(r.n_steps for r in reports.values()), check

    @staticmethod
    def _oracle_error(model, window) -> str | None:
        pred = model.predict(model.featurize(window.samples))
        ref = oracle.p_unstable(
            window.samples, model.variant.tag, model.param_dict(),
            model.stats.min_value, model.stats.max_value,
            model.stft_window, model.band_count,
        )
        gap = float(np.max(np.abs(pred.p_unstable - ref)))
        if not gap <= TOL:
            return f"probabilities differ from the oracle by {gap:.3e}"
        if not np.array_equal(pred.unstable, pred.p_unstable >= model.threshold):
            return "flags disagree with the threshold"
        return None


# -- replay16 ------------------------------------------------------------


class Replay16:
    """stream.replay of all 16 channels of one held-out set per operation."""

    unit = "frames"
    alias = "replay_frames_per_s"
    op_size = 1

    def __init__(self, inputs: Inputs, seed: int):
        self.inputs = inputs
        self.model = inputs.checkpoints["C"]
        self.rng = np.random.default_rng([seed, 2])

    def op(self, i: int):
        grasp = self.inputs.heldout[i % len(self.inputs.heldout)]
        traces = [grasp.channel(c) for c in range(CHANNELS)]
        events = stream.replay(traces, self.model, timing=False)

        def check():
            n = grasp.n_steps
            order = [(e.step, e.channel) for e in events]
            if order != [(t, c) for t in range(n) for c in range(CHANNELS)]:
                return [(1, f"replay {grasp.set_id}: events out of (step, channel) order")]
            for c in self.rng.choice(CHANNELS, CHECKED_CHANNELS, replace=False):
                offline = self.model.predict_samples(traces[c].samples)
                online = np.array([e.probability for e in events[c::CHANNELS]])
                flags = np.array([e.unstable for e in events[c::CHANNELS]])
                gap = float(np.max(np.abs(online - offline.p_unstable)))
                if not gap <= TOL or not np.array_equal(flags, offline.unstable):
                    return [(1, f"replay {grasp.set_id} channel {c}: "
                                f"online differs from offline by {gap:.3e}")]
            return []

        return grasp.n_steps, check


WORKLOADS = {"train": Train, "eval": Eval, "replay16": Replay16}


def make_workdir(root) -> str:
    os.makedirs(root, exist_ok=True)
    return tempfile.mkdtemp(prefix="run-", dir=root)


def remove_workdir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
