"""Metrics and experiment running: success rate, ahead-drop rate,
cross-condition matrices, and multi-seed comparison tables.

Success rate is micro-averaged at step granularity (every evaluated step
counts once); reports also carry the window-level macro average.
The ahead-drop denominator is failure sets only, and "ahead" is strict:
a first unstable prediction exactly at the drop step does not count.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from graspslip import data as gdata
from graspslip import models as gmodels
from graspslip.ioutil import atomic_write_text
from graspslip.signal import compute_norm_stats


def _as_flags(predictions, labels) -> tuple[np.ndarray, np.ndarray]:
    """Predicted and reference flags as flat bool arrays of one length."""
    p, y = np.asarray(predictions), np.asarray(labels)
    for a, name in ((p, "predictions"), (y, "labels")):
        if a.size == 0:
            raise ValueError(f"empty input: {name}")
    if p.size != y.size:
        raise ValueError(f"length mismatch: {p.size} predictions vs {y.size} labels")
    return p.astype(bool).ravel(), y.astype(bool).ravel()


def success_rate(predictions, labels) -> float:
    """Fraction of steps where the predicted flag equals the reference.

    Both arguments must use the same convention (both stable-flags or
    both unstable-flags); only equality is measured.
    """
    p, y = _as_flags(predictions, labels)
    return float(np.mean(p == y))


def confusion_counts(pred_unstable, label_unstable) -> dict[str, int]:
    """tp/fp/tn/fn with "unstable" as the positive class."""
    p, y = _as_flags(pred_unstable, label_unstable)
    return {
        "tp": int(np.sum(p & y)),
        "fp": int(np.sum(p & ~y)),
        "tn": int(np.sum(~p & ~y)),
        "fn": int(np.sum(~p & y)),
    }


def first_unstable(flags) -> int | None:
    """Index of the first True in a per-step unstable stream, if any."""
    f = np.asarray(flags).astype(bool).ravel()
    hits = np.nonzero(f)[0]
    return int(hits[0]) if hits.size else None


def ahead_drop_rate(first_unstable_steps, drop_steps) -> float:
    """Fraction of failure sets predicted unstable strictly before the drop.

    first_unstable_steps may contain None (never predicted unstable),
    which counts as not-ahead. An empty input is an error, never 0.
    """
    firsts = list(first_unstable_steps)
    drops = list(drop_steps)
    if len(firsts) != len(drops):
        raise ValueError(f"length mismatch: {len(firsts)} vs {len(drops)}")
    if not firsts:
        raise ValueError("undefined metric: no failure sets")
    ahead = sum(
        1 for f, d in zip(firsts, drops) if f is not None and f < d
    )
    return ahead / len(firsts)


@dataclass
class EvalReport:
    """One evaluation pass over a set collection."""

    success_rate: float
    ahead_drop_rate: float | None
    confusion: dict
    n_windows: int
    n_steps: int
    n_failure_sets: int
    window_success_rate: float | None = None
    breakdown: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (0.0 <= self.success_rate <= 1.0):
            raise ValueError("success_rate out of [0, 1]")
        if self.ahead_drop_rate is not None and not (0.0 <= self.ahead_drop_rate <= 1.0):
            raise ValueError("ahead_drop_rate out of [0, 1]")
        total = sum(self.confusion.get(k, 0) for k in ("tp", "fp", "tn", "fn"))
        if total != self.n_steps:
            raise ValueError("confusion counts inconsistent with n_steps")


def evaluate_model(model, sets, window_len: int = gmodels.TrainConfig.window_len,
                   channel: int = gmodels.TrainConfig.channel,
                   labels: str = gmodels.TrainConfig.labels) -> EvalReport:
    """Per-step evaluation of a zoo model over one channel of each set; the
    windowing defaults are ``TrainConfig``'s.

    Every set's windows are stacked into one (windows, window_len) array,
    featurized once and predicted in one predict_batch call. Success rate
    pools all windowed steps; the ahead-drop pass stitches each set's
    windows back into a timeline and compares the first unstable
    prediction against the set's drop step.
    """
    sets = list(sets)
    if not sets:
        raise ValueError("empty input: no sets")

    per_set = [gdata.window_batches(g, window_len, channel, labels=labels) for g in sets]
    windows = [w for ws in per_set for w in ws]
    pred = model.predict_batch(model.featurize(np.stack([w.samples for w in windows]))).unstable
    ref = np.stack([w.unstable for w in windows])
    window_rates = np.mean(pred == ref, axis=1)
    # Set i's windows are rows bounds[i]:bounds[i + 1], in time order.
    bounds = np.cumsum([0] + [len(ws) for ws in per_set])
    by_direction: dict[str, list] = {}
    firsts, drops = [], []
    for grasp, lo, hi in zip(sets, bounds, bounds[1:]):
        by_direction.setdefault(grasp.direction, []).append(window_rates[lo:hi])
        if grasp.outcome == "failure" and (drop := gdata.drop_step(grasp, channel)) is not None:
            firsts.append(first_unstable(pred[lo:hi]))
            drops.append(drop)

    adr = ahead_drop_rate(firsts, drops) if firsts else None
    return EvalReport(
        success_rate=success_rate(pred, ref),
        ahead_drop_rate=adr,
        confusion=confusion_counts(pred, ref),
        n_windows=len(windows),
        n_steps=int(pred.size),
        n_failure_sets=len(firsts),
        window_success_rate=float(np.mean(window_rates)),
        breakdown={
            d: float(np.mean(np.concatenate(v))) for d, v in sorted(by_direction.items())
        },
    )


# -- cross-condition matrix ----------------------------------------------


def cross_condition_matrix(
    sets,
    variant,
    config: gmodels.TrainConfig,
    condition: str = "direction",
    ratio: float = gdata.TRAIN_RATIO,
) -> dict:
    """Train per row condition, evaluate on every column's held-out part.

    Cells hold step-level success rates; a column with no test data
    yields "n/a", a row whose fit or any of whose scores raises ValueError
    holds that error in every cell, and a RuntimeError such as
    TrainingDiverged propagates. Rows run through ``_map_fits``, so a
    script calling this at import time needs a ``__main__`` guard.
    """
    if condition not in gdata.CONDITIONS:
        raise ValueError(f"condition must be {'|'.join(gdata.CONDITIONS)}, got {condition!r}")
    groups: dict[str, list] = {}
    for s in sets:
        groups.setdefault(getattr(s, condition), []).append(s)
    names = sorted(groups)

    # Per-condition split so the diagonal is never train-on-train.
    splits = {}
    for name in names:
        try:
            splits[name] = gdata.split(groups[name], ratio, seed=config.seed)
        except ValueError:
            splits[name] = (groups[name], [])

    results = _map_fits([
        (variant, splits[row][0], [splits[col][1] for col in names], config)
        for row in names
    ])
    cells = {}
    for row, result in zip(names, results):
        if isinstance(result, RuntimeError):
            raise result
        if isinstance(result, ValueError):
            cells[row] = dict.fromkeys(names, f"error: {result}")
        else:
            cells[row] = {col: "n/a" if r is None else r.success_rate
                          for col, r in zip(names, result[1])}
    return {"condition": condition, "rows": names, "cols": names, "cells": cells}


# -- experiment runner -----------------------------------------------------


def fit_variant(
    variant: str,
    train_sets,
    config: gmodels.TrainConfig,
    val_sets=None,
):
    """Stats from the train split, windows as ``config`` cuts them, then train;
    ``val_sets`` other than None, an empty list too, give train's validation windows."""

    def windows_of(sets):
        return [w for g in sets
                for w in gdata.window_batches(g, config.window_len, config.channel, config.labels)]

    windows = windows_of(train_sets)
    if not windows:
        raise ValueError("empty input: no training sets")
    model = gmodels.GraspModel.build(variant, config)
    model.stats = compute_norm_stats([w.samples for w in windows])
    val_windows = None if val_sets is None else windows_of(val_sets)
    history = gmodels.train(model, windows, config, val_windows=val_windows)
    return model, history


def _fit_and_score(task):
    """Fit one variant on a train split and score it on each held-out split
    (None for an empty one): ``(epochs_run, reports)``, or the ValueError or
    RuntimeError that stopped the fit or a score."""
    variant, train_sets, test_splits, config = task
    try:
        model, history = fit_variant(variant, train_sets, config)
        reports = [evaluate_model(model, sets, config.window_len, config.channel, config.labels)
                   if sets else None for sets in test_splits]
        return len(history), reports
    except (ValueError, RuntimeError) as exc:
        return exc


@contextmanager
def worker_pool(jobs: int):
    """A pool of ``jobs`` spawned processes that start with one BLAS thread each
    (read from their environment as BLAS loads), so fits do not oversubscribe."""
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    saved = {name: os.environ.pop(name, None) for name in names}
    os.environ.update(dict.fromkeys(names, "1"))
    try:
        with ProcessPoolExecutor(jobs, mp_context=multiprocessing.get_context("spawn")) as pool:
            yield pool
    finally:
        for name in names:
            os.environ.pop(name, None)
        os.environ.update({name: value for name, value in saved.items() if value is not None})


def _map_fits(tasks) -> list:
    """``[_fit_and_score(t) for t in tasks]``, in task order: in a ``worker_pool`` of
    one worker per task up to the usable CPUs when that is more than one."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(len(tasks), cpus or 1)
    if workers > 1:
        with worker_pool(workers) as pool:
            return list(pool.map(_fit_and_score, tasks))
    return [_fit_and_score(t) for t in tasks]


def run_experiment(
    sets,
    variants=("A", "B", "C", "D"),
    seeds=(0,),
    config: gmodels.TrainConfig | None = None,
    ratio: float = gdata.TRAIN_RATIO,
) -> dict:
    """Variant x seed sweep on a shared split; per-seed rows plus means.

    Every seed re-splits the data (seeded); all variants in one seed share
    that split so their comparison is paired. Failed cells carry their
    error message and do not abort the sweep. Cells run through
    ``_map_fits``, so a script calling this at import time needs a
    ``__main__`` guard.
    """
    sets = list(sets)
    config = config or gmodels.TrainConfig()
    variant_tags = [gmodels.get_variant(v).tag for v in variants]

    tasks = []
    for seed in seeds:
        train_sets, test_sets = gdata.split(sets, ratio, seed=seed)
        for tag in variant_tags:
            tasks.append((tag, train_sets, [test_sets], replace(config, seed=seed)))
    rows = []
    for task, result in zip(tasks, _map_fits(tasks)):
        row = {"variant": task[0], "seed": task[3].seed}
        if isinstance(result, Exception):
            row.update(ok=False, error=str(result))
        else:
            (report,) = result[1]
            row.update(ok=True, success_rate=report.success_rate,
                       ahead_drop_rate=report.ahead_drop_rate,
                       window_success_rate=report.window_success_rate,
                       n_windows=report.n_windows, epochs_run=result[0])
        rows.append(row)

    aggregates = []
    for tag in variant_tags:
        cells = [r for r in rows if r["variant"] == tag and r.get("ok")]
        failures = [r for r in rows if r["variant"] == tag and not r.get("ok")]
        agg = {"variant": tag, "n_ok": len(cells), "n_failed": len(failures)}
        if cells:
            agg["success_rate"] = float(np.mean([c["success_rate"] for c in cells]))
            adrs = [c["ahead_drop_rate"] for c in cells if c["ahead_drop_rate"] is not None]
            agg["ahead_drop_rate"] = float(np.mean(adrs)) if adrs else None
        aggregates.append(agg)

    return {
        "split": "shared-per-seed",
        "ratio": ratio,
        "seeds": list(seeds),
        "labels": config.labels,
        "channel": config.channel,
        "rows": rows,
        "aggregate": aggregates,
    }


def write_prediction_dump(model, grasp, path, channel: int = gmodels.TrainConfig.channel,
                          labels: str = gmodels.TrainConfig.labels) -> None:
    """Per-step plot data of the whole set, scored as one stream by ``predict_samples``."""
    stable = gdata.step_labels(grasp, channel, labels)
    samples = grasp.samples[:, channel]
    pred = model.predict_samples(samples)
    rows = ["step,force_mn,label_unstable,p_unstable,predicted_unstable"]
    rows += [f"{t},{x:g},{int(y)},{p:.9f},{int(f)}" for t, (x, y, p, f) in enumerate(
        zip(samples, ~stable, pred.p_unstable, pred.unstable))]
    atomic_write_text(path, "\n".join(rows) + "\n")
