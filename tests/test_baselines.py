import numpy as np
import pytest

from graspslip import baselines
from graspslip.baselines import fit, flatten_window
from graspslip.models import load_checkpoint, save_checkpoint
from tests import oracles


def two_blob_data(n=40, d=5, gap=6.0, seed=0):
    rng = np.random.default_rng(seed)
    x0 = rng.normal(0.0, 1.0, size=(n // 2, d))
    x1 = rng.normal(gap, 1.0, size=(n // 2, d))
    x = np.vstack([x0, x1])
    y = np.concatenate([np.zeros(n // 2, dtype=int), np.ones(n // 2, dtype=int)])
    return x, y


def classes(model, x) -> list[int]:
    """The predicted class of each row of x."""
    return [model.predict(row)[0] for row in x]


# -- input validation ---------------------------------------------------


def test_fit_rejects_empty():
    with pytest.raises(ValueError, match="empty input"):
        fit("nb", np.zeros((0, 3)), np.zeros(0))


def test_fit_rejects_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        fit("nb", np.zeros((4, 3)), np.zeros(3))


def test_fit_rejects_bad_labels():
    with pytest.raises(ValueError, match="labels must be 0"):
        fit("nb", np.zeros((4, 3)), np.array([0, 1, 2, 0]))


def test_fit_rejects_single_class():
    with pytest.raises(ValueError, match="single-class data"):
        fit("nb", np.zeros((4, 3)), np.zeros(4))


def test_fit_rejects_unknown_kind():
    x, y = two_blob_data()
    with pytest.raises(ValueError, match="unknown baseline kind"):
        fit("forest", x, y)


def test_query_dim_mismatch():
    x, y = two_blob_data(d=5)
    for kind in baselines.KINDS:
        model = fit(kind, x, y)
        with pytest.raises(ValueError, match="feature dimension mismatch"):
            model.predict(np.zeros(4))


def test_flatten_window_orders_streams():
    a = np.arange(6.0).reshape(3, 2)
    b = np.arange(3.0).reshape(3, 1) + 100
    flat = flatten_window([a, b])
    np.testing.assert_array_equal(flat[:6], a.ravel())
    np.testing.assert_array_equal(flat[6:], b.ravel())
    np.testing.assert_array_equal(flatten_window(a), a.ravel())


# -- naive bayes -----------------------------------------------------------


def test_nb_means_are_class_means():
    x, y = two_blob_data()
    nb = fit("nb", x, y)
    np.testing.assert_allclose(nb.means[0], x[y == 0].mean(axis=0))
    np.testing.assert_allclose(nb.means[1], x[y == 1].mean(axis=0))
    assert np.all(nb.variances >= baselines.VAR_FLOOR)


def test_nb_separates_blobs():
    x, y = two_blob_data()
    nb = fit("nb", x, y)
    assert np.array_equal(classes(nb, x), y)


def test_nb_tie_breaks_unstable():
    # symmetric classes, query exactly between them: score 0 -> unstable
    x = np.array([[-1.0], [-2.0], [1.0], [2.0]])
    y = np.array([0, 0, 1, 1])
    nb = fit("nb", x, y)
    label, score = nb.predict(np.array([0.0]))
    assert score == pytest.approx(0.0, abs=1e-12)
    assert label == 1


def test_nb_translation_invariance():
    x, y = two_blob_data(seed=2)
    q = np.full(x.shape[1], 3.0)
    shift = 17.5
    s1 = fit("nb", x, y).score(q)
    s2 = fit("nb", x + shift, y).score(q + shift)
    assert s1 == pytest.approx(s2, rel=1e-9)


def test_nb_priors_shift_score():
    x, y = two_blob_data()
    q = x.mean(axis=0)
    neutral = fit("nb", x, y).score(q)
    tilted = fit("nb", x, y, priors=(0.1, 0.9)).score(q)
    assert tilted == pytest.approx(neutral + np.log(0.9 / 0.1), rel=1e-9)


def test_nb_variance_floor_on_constant_feature():
    x = np.array([[0.0, 5.0], [0.0, 6.0], [1.0, 1.0], [1.0, 2.0]])
    y = np.array([0, 0, 1, 1])
    nb = fit("nb", x, y)
    assert nb.variances[0, 0] == baselines.VAR_FLOOR
    assert np.isfinite(nb.score(np.array([0.5, 3.0])))


# -- knn ----------------------------------------------------------------------


def test_knn_memorizes_training_set():
    x, y = two_blob_data(n=20)
    knn = fit("knn", x, y, k=1)
    assert np.array_equal(classes(knn, x), y)


def test_knn_k_validation():
    x, y = two_blob_data(n=10)
    with pytest.raises(ValueError, match="k must be odd"):
        fit("knn", x, y, k=2)
    with pytest.raises(ValueError, match="k must be odd"):
        fit("knn", x, y, k=0)
    with pytest.raises(ValueError, match="k exceeds"):
        fit("knn", x, y, k=11)


def test_knn_matches_exhaustive_oracle(rng):
    x, y = two_blob_data(n=30, d=4, gap=2.0, seed=5)
    knn = fit("knn", x, y, k=3)
    for _ in range(500):
        q = rng.normal(1.0, 2.0, size=4)
        expected = oracles.knn_predict(x, y, 3, q)
        assert knn.predict(q)[0] == expected


def test_knn_duplicate_points_stable_order():
    # three identical points at the query: storage order decides the vote
    x = np.zeros((3, 2))
    y = np.array([1, 0, 0])
    knn = baselines.NearestNeighbors(points=x, labels=y, k=1)
    assert knn.predict(np.zeros(2))[0] == 1


def test_knn_score_is_vote_margin():
    x = np.array([[0.0], [0.1], [0.2], [10.0], [11.0]])
    y = np.array([1, 1, 0, 0, 0])
    knn = fit("knn", x, y, k=3)
    label, score = knn.predict(np.array([0.0]))
    assert label == 1
    assert score == pytest.approx((2 - 1) / 3)


# -- svm ------------------------------------------------------------------------


def test_svm_separates_blobs():
    x, y = two_blob_data(n=60, gap=8.0, seed=1)
    svm = fit("svm", x, y)
    assert np.array_equal(classes(svm, x), y)


def test_svm_seed_deterministic():
    x, y = two_blob_data()
    a = fit("svm", x, y, seed=3)
    b = fit("svm", x, y, seed=3)
    np.testing.assert_array_equal(a.w, b.w)
    assert a.b == b.b


def test_svm_score_sign_orientation():
    x, y = two_blob_data(n=40, gap=10.0)
    svm = fit("svm", x, y)
    assert svm.score(np.full(x.shape[1], 10.0)) > 0  # deep in unstable blob
    assert svm.score(np.full(x.shape[1], 0.0)) < 0


# -- checkpoints -------------------------------------------------------------------


@pytest.mark.parametrize("kind", baselines.KINDS)
def test_baseline_checkpoint_round_trip(tmp_path, kind, rng):
    x, y = two_blob_data(n=30, d=4, gap=3.0, seed=7)
    model = fit(kind, x, y)
    path = tmp_path / f"{kind}.gslp"
    save_checkpoint(model, path)
    again = load_checkpoint(path)
    assert type(again) is type(model)
    queries = rng.normal(1.5, 3.0, size=(50, 4))
    np.testing.assert_array_equal(
        classes(model, queries), classes(again, queries)
    )
    scores = [model.score(q) for q in queries]
    again_scores = [again.score(q) for q in queries]
    np.testing.assert_array_equal(scores, again_scores)


def test_knn_checkpoint_keeps_k(tmp_path):
    x, y = two_blob_data(n=30)
    model = fit("knn", x, y, k=5)
    path = tmp_path / "knn.gslp"
    save_checkpoint(model, path)
    assert load_checkpoint(path).k == 5
