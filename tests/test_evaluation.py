import dataclasses
import json
import os

import numpy as np
import pytest

from graspslip import data, evaluation, ioutil, models, nn
from graspslip.evaluation import (
    EvalReport,
    ahead_drop_rate,
    confusion_counts,
    cross_condition_matrix,
    evaluate_model,
    first_unstable,
    fit_variant,
    run_experiment,
    success_rate,
    write_prediction_dump,
)
from graspslip.signal import compute_norm_stats


SMALL_CONFIG = models.TrainConfig(epochs=2, lstm_units=8, seed=0)


# -- step metrics ---------------------------------------------------------


def test_success_rate_exact_fraction():
    ref = np.zeros(160, dtype=bool)
    pred = ref.copy()
    pred[:24] = True  # 24 of 160 wrong
    assert success_rate(pred, ref) == pytest.approx(0.85)


def test_success_rate_permutation_invariant(rng):
    ref = rng.integers(0, 2, size=100).astype(bool)
    pred = rng.integers(0, 2, size=100).astype(bool)
    perm = rng.permutation(100)
    assert success_rate(pred, ref) == success_rate(pred[perm], ref[perm])


def test_success_rate_validation():
    with pytest.raises(ValueError, match="empty input"):
        success_rate([], [])
    with pytest.raises(ValueError, match="length mismatch"):
        success_rate([True, False], [True])


def test_confusion_counts_by_hand():
    pred = np.array([1, 1, 0, 0, 1], dtype=bool)
    ref = np.array([1, 0, 0, 1, 1], dtype=bool)
    c = confusion_counts(pred, ref)
    assert c == {"tp": 2, "fp": 1, "tn": 1, "fn": 1}
    assert sum(c.values()) == 5


def test_first_unstable():
    assert first_unstable([0, 0, 1, 0, 1]) == 2
    assert first_unstable([0, 0, 0]) is None
    assert first_unstable([1]) == 0


def test_ahead_drop_strictness():
    # strictly before the drop counts; exactly at it does not
    assert ahead_drop_rate([99], [100]) == 1.0
    assert ahead_drop_rate([100], [100]) == 0.0
    assert ahead_drop_rate([None], [100]) == 0.0
    assert ahead_drop_rate([99, 100, None, 10], [100, 100, 100, 100]) == 0.5


def test_ahead_drop_undefined_when_no_failures():
    with pytest.raises(ValueError, match="undefined metric: no failure sets"):
        ahead_drop_rate([], [])
    with pytest.raises(ValueError, match="length mismatch"):
        ahead_drop_rate([1, 2], [3])


# -- report container ----------------------------------------------------------


def report_kwargs(**over):
    kw = dict(
        success_rate=0.9,
        ahead_drop_rate=0.8,
        confusion={"tp": 40, "fp": 5, "tn": 50, "fn": 5},
        n_windows=4,
        n_steps=100,
        n_failure_sets=2,
        window_success_rate=0.9,
        breakdown={"back": 0.9},
    )
    kw.update(over)
    return kw


def test_eval_report_round_trip(tmp_path):
    rep = EvalReport(**report_kwargs())
    ioutil.atomic_write_json(tmp_path / "eval.json", dataclasses.asdict(rep))
    again = EvalReport(**json.loads((tmp_path / "eval.json").read_text()))
    assert again == rep
    assert json.loads((tmp_path / "eval.json").read_text())["success_rate"] == 0.9


def test_eval_report_validation():
    with pytest.raises(ValueError, match="success_rate out of"):
        EvalReport(**report_kwargs(success_rate=1.5))
    with pytest.raises(ValueError, match="ahead_drop_rate out of"):
        EvalReport(**report_kwargs(ahead_drop_rate=-0.1))
    with pytest.raises(ValueError, match="confusion counts inconsistent"):
        EvalReport(**report_kwargs(n_steps=99))
    EvalReport(**report_kwargs(ahead_drop_rate=None))  # success-only runs


def test_eval_report_json_refuses_non_finite_values(tmp_path):
    rep = EvalReport(**report_kwargs(breakdown={"back": float("nan")}))
    with pytest.raises(ValueError, match="not JSON compliant"):
        ioutil.atomic_write_json(tmp_path / "eval.json", dataclasses.asdict(rep))
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_atomic_write_json_refuses_non_finite_before_writing(tmp_path, value):
    with pytest.raises(ValueError, match="not JSON compliant"):
        ioutil.atomic_write_json(tmp_path / "out.json", {"a": [1.0, {"b": value}]})
    assert os.listdir(tmp_path) == []  # neither the target nor a .tmp file


# -- model evaluation --------------------------------------------------------------


def test_evaluate_model_on_trained_variant(trained_c, synth_split):
    _, test_sets = synth_split
    report = evaluate_model(trained_c, test_sets, labels="truth")
    assert report.n_windows == 2 * len(test_sets)
    assert report.n_steps == 320 * len(test_sets)
    assert report.success_rate > 0.9
    assert report.ahead_drop_rate == 1.0
    assert report.n_failure_sets == sum(s.outcome == "failure" for s in test_sets)
    assert set(report.breakdown) <= set(data.DIRECTIONS)
    assert sum(report.confusion.values()) == report.n_steps


def test_evaluate_model_beats_constant_predictor(trained_c, synth_split):
    _, test_sets = synth_split
    trained = evaluate_model(trained_c, test_sets, labels="truth")
    constant = models.GraspModel.build("C", models.TrainConfig(lstm_units=32))
    for arr in constant.stored_arrays().values():
        arr[...] = 0.0
    constant.stats = trained_c.stats
    base = evaluate_model(constant, test_sets, labels="truth")
    # all-zero weights predict 0.5 everywhere, thresholded to unstable
    assert base.confusion["tn"] == 0
    assert trained.success_rate > base.success_rate + 0.2


def test_evaluate_model_validation(trained_c):
    with pytest.raises(ValueError, match="empty input: no sets"):
        evaluate_model(trained_c, [])


def test_evaluate_model_detect_mode_uses_detected_drop(trained_c, synth_split):
    _, test_sets = synth_split
    report = evaluate_model(trained_c, test_sets, labels="detect")
    assert 0.0 <= report.success_rate <= 1.0
    assert report.n_failure_sets > 0


def per_window_report(model, sets, window_len, labels):
    """evaluate_model's report built with loops from one predict() per window,
    and each counted failure set's first unstable step."""
    all_pred, all_ref, window_rates, firsts, drops = [], [], [], [], []
    by_direction = {}
    for grasp in sets:
        set_pred = []
        for w in data.window_batches(grasp, window_len, labels=labels):
            pred = model.predict(model.featurize(w.samples)).unstable
            all_pred.append(pred)
            all_ref.append(w.unstable)
            window_rates.append(float(np.mean(pred == w.unstable)))
            by_direction.setdefault(grasp.direction, []).append(window_rates[-1])
            set_pred.append(pred)
        if grasp.outcome == "failure" and data.drop_step(grasp) is not None:
            firsts.append(first_unstable(np.concatenate(set_pred)))
            drops.append(data.drop_step(grasp))
    pred, ref = np.concatenate(all_pred), np.concatenate(all_ref)
    return firsts, EvalReport(
        success_rate=success_rate(pred, ref),
        ahead_drop_rate=ahead_drop_rate(firsts, drops) if firsts else None,
        confusion=confusion_counts(pred, ref),
        n_windows=len(window_rates),
        n_steps=int(pred.size),
        n_failure_sets=len(firsts),
        window_success_rate=float(np.mean(window_rates)),
        breakdown={d: float(np.mean(v)) for d, v in sorted(by_direction.items())},
    )


@pytest.fixture(scope="module")
def two_direction_sets():
    """11 synthetic sets dealt to back and top, then a failure set whose
    drop goes undetected: 72 windows of 60 steps, a stack past 64 windows."""
    sets = with_directions(data.synth_force_dataset(11, seed=11), ["back", "top"])
    stable = next(s for s in sets if s.outcome == "success")
    undetected = dataclasses.replace(stable, outcome="failure", meta={"slip_onset": 200})
    assert data.drop_step(undetected) is None
    return [*sets, undetected]


@pytest.mark.parametrize("labels", ["truth", "detect"])
@pytest.mark.parametrize("k, tag", enumerate("ABCD"))
def test_evaluate_model_equals_per_window_report(k, tag, labels, two_direction_sets,
                                                 monkeypatch):
    sets = two_direction_sets
    model = models.GraspModel.build(tag, models.TrainConfig(window_len=60, lstm_units=4, seed=k))
    model.stats = compute_norm_stats([s.channel(0).samples for s in sets])
    # A threshold at the 90th percentile gives both flags in every report,
    # and first unstable steps in various windows of the failure sets.
    p = np.concatenate([model.predict_samples(s.channel(0).samples).p_unstable for s in sets])
    model.threshold = float(np.quantile(p, 0.9))
    firsts, ref = per_window_report(model, sets, 60, labels)
    assert ref.n_windows > 64
    assert 0 < ref.confusion["tp"] + ref.confusion["fp"] < ref.n_steps
    assert ref.n_failure_sets == sum(s.outcome == "failure" for s in sets) - 1
    assert set(ref.breakdown) == {"back", "top"}
    seen = []
    monkeypatch.setattr(evaluation, "ahead_drop_rate",
                        lambda f, d: seen.append(list(f)) or ahead_drop_rate(f, d))
    got = evaluate_model(model, sets, 60, labels=labels)
    assert seen == [firsts]
    assert got == ref
    assert (json.dumps(dataclasses.asdict(got), sort_keys=True)
            == json.dumps(dataclasses.asdict(ref), sort_keys=True))


# -- cross-condition matrix --------------------------------------------------------------


def with_directions(sets, directions):
    """The sets with their directions dealt out in turn from ``directions``."""
    return [dataclasses.replace(s, direction=directions[i % len(directions)])
            for i, s in enumerate(sets)]


def test_cross_matrix_single_condition_matches_plain_eval():
    # a 1x1 matrix, then a 2x2 one whose rows fit in separate workers
    for directions in (["top"], ["back", "top"]):
        sets = with_directions(data.synth_force_dataset(10 * len(directions), seed=31),
                               directions)
        matrix = cross_condition_matrix(sets, "B", SMALL_CONFIG, condition="direction")
        assert matrix["rows"] == directions and matrix["cols"] == directions
        splits = {d: data.split([s for s in sets if s.direction == d], 0.8,
                                seed=SMALL_CONFIG.seed) for d in directions}
        for row in directions:
            model, _ = fit_variant("B", splits[row][0], SMALL_CONFIG)
            for col in directions:
                expected = evaluate_model(model, splits[col][1], SMALL_CONFIG.window_len)
                assert matrix["cells"][row][col] == pytest.approx(expected.success_rate)


def test_cross_matrix_unsplittable_condition_is_na():
    sets = data.synth_force_dataset(12, seed=32)
    lone = dataclasses.replace(sets[0], object_id=0, direction="top", weight=0,
                               force_level=0, set_id="lone")
    rest = [dataclasses.replace(s, direction="back") for s in sets[1:]]
    matrix = cross_condition_matrix(rest + [lone], "B", SMALL_CONFIG)
    assert matrix["rows"] == ["back", "top"]
    # "top" holds one set: it cannot be split, so its test column is n/a
    assert matrix["cells"]["back"]["top"] == "n/a"
    assert isinstance(matrix["cells"]["back"]["back"], float)


def test_cross_matrix_records_errors_per_row():
    # all-success sets cannot train (single class): the row carries errors
    sets = data.synth_force_dataset(8, seed=33, failure_fraction=0.0)
    matrix = cross_condition_matrix(sets, "B", SMALL_CONFIG, condition="outcome")
    assert matrix["rows"] == ["success"]
    cell = matrix["cells"]["success"]["success"]
    assert isinstance(cell, str) and cell.startswith("error:")


def test_cross_matrix_records_scoring_errors_per_row(short_top_sets):
    # Every row scores the "top" column, whose held-out sets cannot be cut
    # into windows: each row holds that error, as a row whose fit fails does.
    sets, error = short_top_sets
    config = dataclasses.replace(SMALL_CONFIG, window_len=300)
    matrix = cross_condition_matrix(sets, "B", config)
    assert matrix["cells"] == {row: {"back": error, "top": error} for row in ("back", "top")}


def test_cross_matrix_divergence_propagates_from_workers(monkeypatch):
    # only a ValueError from a fit or a score becomes an error row; a divergence in a
    # pooled row reaches the caller, so cross-eval exits 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    sets = with_directions(data.synth_force_dataset(8, seed=36), ["back", "top"])
    config = models.TrainConfig(epochs=1, lstm_units=8, lr=float("inf"))
    with pytest.raises(nn.TrainingDiverged, match="diverged"):
        cross_condition_matrix(sets, "B", config, labels="truth")


def test_cross_matrix_rejects_bad_condition():
    with pytest.raises(ValueError, match="condition must be"):
        cross_condition_matrix([], "B", SMALL_CONFIG, condition="weight")


# -- experiment runner --------------------------------------------------------------------


@pytest.fixture(scope="module")
def experiment_result():
    sets = data.synth_force_dataset(12, seed=34)
    return run_experiment(
        sets,
        variants=("A", "B"),
        seeds=(0, 1),
        config=models.TrainConfig(epochs=2, lstm_units=8),
        labels="truth",
    )


def test_run_experiment_rows(experiment_result):
    rows = experiment_result["rows"]
    assert len(rows) == 4  # 2 variants x 2 seeds
    assert {(r["variant"], r["seed"]) for r in rows} == {
        ("A", 0), ("A", 1), ("B", 0), ("B", 1),
    }
    assert all(r["ok"] for r in rows)
    assert all(r["epochs_run"] == 2 for r in rows)


def test_run_experiment_aggregate_is_mean(experiment_result):
    for agg in experiment_result["aggregate"]:
        cells = [
            r["success_rate"]
            for r in experiment_result["rows"]
            if r["variant"] == agg["variant"]
        ]
        assert agg["success_rate"] == pytest.approx(np.mean(cells))
        assert agg["n_ok"] == 2 and agg["n_failed"] == 0


def test_run_experiment_deterministic(experiment_result):
    sets = data.synth_force_dataset(12, seed=34)
    again = run_experiment(
        sets,
        variants=("A", "B"),
        seeds=(0, 1),
        config=models.TrainConfig(epochs=2, lstm_units=8),
        labels="truth",
    )
    assert again == experiment_result


def test_run_experiment_records_failures():
    sets = data.synth_force_dataset(6, seed=35, failure_fraction=0.0)
    result = run_experiment(
        sets, variants=("A",), seeds=(0,), config=SMALL_CONFIG, labels="truth"
    )
    row = result["rows"][0]
    assert row["ok"] is False
    assert "both classes" in row["error"]
    agg = result["aggregate"][0]
    assert agg["n_failed"] == 1 and "success_rate" not in agg


def two_fits(driver, sets, config):
    if driver == "run_experiment":
        return run_experiment(sets, variants=("A", "B"), seeds=(0,), config=config,
                              labels="truth")
    return cross_condition_matrix(sets, "B", config, labels="truth")


@pytest.mark.parametrize("driver", ["run_experiment", "cross_condition_matrix"])
def test_pooled_fits_match_in_process_fits(driver, monkeypatch):
    sets = with_directions(data.synth_force_dataset(8, seed=36), ["back", "top"])
    config = models.TrainConfig(epochs=1, lstm_units=8)
    pools = []
    real_pool = evaluation.worker_pool

    def counted_pool(jobs):
        pools.append(jobs)
        return real_pool(jobs)

    monkeypatch.setattr(evaluation, "worker_pool", counted_pool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    pooled = two_fits(driver, sets, config)
    assert pools == [2]  # two fits, two usable CPUs: two workers
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    in_process = two_fits(driver, sets, config)
    assert pools == [2]  # one usable CPU: no pool
    assert pooled == in_process


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_threads_in_worker(_):
    """The worker's BLAS thread settings and, where /proc lists them, its
    thread count; this module imports numpy, so BLAS has loaded by now."""
    task_dir = "/proc/self/task"
    threads = len(os.listdir(task_dir)) if os.path.isdir(task_dir) else None
    return [os.environ.get(name) for name in BLAS_THREAD_VARS], threads


def test_worker_pool_workers_start_with_one_blas_thread(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    before = dict(os.environ)
    with evaluation.worker_pool(2) as pool:
        seen = list(pool.map(blas_threads_in_worker, range(4), timeout=120))
    assert dict(os.environ) == before
    for settings, threads in seen:
        assert settings == ["1"] * 3
        assert threads in (1, None)


# -- prediction dump ---------------------------------------------------------------------------


def test_write_prediction_dump(trained_c, synth_split, tmp_path):
    _, test_sets = synth_split
    grasp = next(s for s in test_sets if s.outcome == "failure")
    path = tmp_path / "dump.csv"
    write_prediction_dump(trained_c, grasp, path, labels="truth")
    lines = path.read_text().splitlines()
    assert lines[0] == "step,force_mn,label_unstable,p_unstable,predicted_unstable"
    assert len(lines) == 1 + grasp.n_steps
    step, force, label, prob, flag = lines[1].split(",")
    assert step == "0"
    assert float(force) == grasp.channel(0).samples[0]
    assert float(prob) <= 1.0 and flag in ("0", "1")
    # thresholding in the file matches the probability column
    for line in lines[1:]:
        _, _, _, p, f = line.split(",")
        assert (float(p) >= trained_c.threshold) == (f == "1")


@pytest.mark.parametrize("labels", ["truth", "detect"])
@pytest.mark.parametrize("k, tag", enumerate("ABCD"))
def test_prediction_dump_scores_the_whole_set_as_one_stream(k, tag, labels, tmp_path):
    """Every step of the set, with predict_samples' probabilities and flags:
    no restart at step 160, so its first 160 rows are the first window's
    predict and its labels are the windowed labels."""
    grasp = data.synth_force_dataset(1, seed=21 + k, failure_fraction=1.0)[0]
    model = models.GraspModel.build(tag, models.TrainConfig(lstm_units=128), seed=20 + k)
    model.stats = compute_norm_stats([grasp.channel(0)])
    x = grasp.channel(0).samples
    whole = model.predict_samples(x)
    model.threshold = float(np.median(whole.p_unstable))  # both flags occur
    whole = model.decide(whole.p_unstable)
    path = tmp_path / "dump.csv"
    write_prediction_dump(model, grasp, path, labels=labels)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert len(rows) == grasp.n_steps
    assert [r[0] for r in rows] == [str(t) for t in range(grasp.n_steps)]
    assert [r[1] for r in rows] == [f"{v:g}" for v in x]
    assert [r[3] for r in rows] == [f"{p:.9f}" for p in whole.p_unstable]
    assert [r[4] for r in rows] == [str(int(f)) for f in whole.unstable]
    windows = data.window_batches(grasp, 160, labels=labels)
    assert [r[2] for r in rows[:320]] == [str(int(u)) for w in windows for u in w.unstable]
    first = model.predict(model.featurize(windows[0].samples))
    assert [r[3] for r in rows[:160]] == [f"{p:.9f}" for p in first.p_unstable]
