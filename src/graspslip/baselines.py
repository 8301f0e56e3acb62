"""Classical comparison classifiers: Gaussian NB, KNN (k=3), linear SVM.

All three consume a flattened window feature vector and emit a class in
{0: stable, 1: unstable} plus a real score oriented so that larger means
more unstable. Every tie breaks toward "unstable": for a grasp controller
the costly mistake is calling a slipping object stable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from graspslip import models as _models

KINDS = ("nb", "knn", "svm")
VAR_FLOOR = 1e-9
SVM_L2 = 1e-4
SVM_EPOCHS = 100


def _check_training_data(features: np.ndarray, labels: np.ndarray):
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels).astype(np.int64).ravel()
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("empty input")
    if y.shape[0] != x.shape[0]:
        raise ValueError("length mismatch between features and labels")
    if not set(np.unique(y)) <= {0, 1}:
        raise ValueError("labels must be 0 (stable) or 1 (unstable)")
    if np.unique(y).size < 2:
        raise ValueError("single-class data: both classes required to fit")
    return x, y


def _check_query(x, d: int) -> np.ndarray:
    q = np.asarray(x, dtype=np.float64).ravel()
    if q.shape != (d,):
        raise ValueError(f"feature dimension mismatch: expected {d}, got {q.shape[0]}")
    return q


def flatten_window(streams) -> np.ndarray:
    """Window feature streams -> one vector, in stream order."""
    if isinstance(streams, np.ndarray):
        streams = [streams]
    return np.concatenate([np.asarray(s, dtype=np.float64).ravel() for s in streams])


@dataclass
class NaiveBayes:
    """Per-class independent Gaussians, variances floored at 1e-9."""

    kind = "nb"
    means: np.ndarray       # (2, d)
    variances: np.ndarray   # (2, d)
    log_priors: np.ndarray  # (2,)

    @property
    def n_features(self) -> int:
        return self.means.shape[1]

    def score(self, x) -> float:
        """log-posterior(unstable) - log-posterior(stable)."""
        q = _check_query(x, self.n_features)
        ll = self.log_priors - 0.5 * np.sum(
            np.log(2.0 * np.pi * self.variances)
            + (q - self.means) ** 2 / self.variances,
            axis=1,
        )
        return float(ll[1] - ll[0])

    def predict(self, x) -> tuple[int, float]:
        s = self.score(x)
        return (1 if s >= 0.0 else 0), s

    def checkpoint_payload(self):
        header = {"kind": "nb", "n_features": self.n_features}
        arrays = [
            ("means", self.means),
            ("variances", self.variances),
            ("log_priors", self.log_priors),
        ]
        return header, arrays


@dataclass
class NearestNeighbors:
    """Brute-force Euclidean KNN over the memorized training set."""

    kind = "knn"
    points: np.ndarray  # (m, d)
    labels: np.ndarray  # (m,) ints in {0, 1}
    k: int = 3

    def __post_init__(self):
        if self.k < 1 or self.k % 2 == 0:
            raise ValueError("k must be odd and >= 1")
        if self.k > self.points.shape[0]:
            raise ValueError("k exceeds the number of stored points")

    @property
    def n_features(self) -> int:
        return self.points.shape[1]

    def score(self, x) -> float:
        """Vote margin: (unstable votes - stable votes) / k."""
        q = _check_query(x, self.n_features)
        d2 = np.sum((self.points - q) ** 2, axis=1)
        # Stable sort so equidistant points resolve by storage order,
        # matching an exhaustive sort oracle.
        nearest = np.argsort(d2, kind="stable")[: self.k]
        votes = self.labels[nearest]
        return float(np.sum(votes == 1) - np.sum(votes == 0)) / self.k

    def predict(self, x) -> tuple[int, float]:
        s = self.score(x)
        return (1 if s >= 0.0 else 0), s

    def checkpoint_payload(self):
        header = {"kind": "knn", "k": self.k, "n_features": self.n_features}
        arrays = [
            ("points", self.points),
            ("labels", self.labels.astype(np.float64)),
        ]
        return header, arrays


@dataclass
class LinearSvm:
    """Maximum-margin separator trained by subgradient descent."""

    kind = "svm"
    w: np.ndarray
    b: float

    @property
    def n_features(self) -> int:
        return self.w.shape[0]

    def score(self, x) -> float:
        q = _check_query(x, self.n_features)
        return float(self.w @ q + self.b)

    def predict(self, x) -> tuple[int, float]:
        s = self.score(x)
        return (1 if s >= 0.0 else 0), s

    def checkpoint_payload(self):
        header = {"kind": "svm", "n_features": self.n_features}
        arrays = [("w", self.w), ("b", np.array([self.b]))]
        return header, arrays


def _fit_nb(x: np.ndarray, y: np.ndarray, priors=None) -> NaiveBayes:
    means = np.stack([x[y == c].mean(axis=0) for c in (0, 1)])
    variances = np.stack([x[y == c].var(axis=0) for c in (0, 1)])
    variances = np.maximum(variances, VAR_FLOOR)
    if priors is None:
        log_priors = np.log(np.array([0.5, 0.5]))
    else:
        p = np.asarray(priors, dtype=np.float64)
        if p.shape != (2,) or p.min() <= 0:
            raise ValueError("priors must be two positive values")
        log_priors = np.log(p / p.sum())
    return NaiveBayes(means=means, variances=variances, log_priors=log_priors)


def _fit_knn(x: np.ndarray, y: np.ndarray, k: int = 3) -> NearestNeighbors:
    return NearestNeighbors(points=x.copy(), labels=y.copy(), k=k)


def _fit_svm(x: np.ndarray, y: np.ndarray, seed: int = 0,
             epochs: int = SVM_EPOCHS, l2: float = SVM_L2) -> LinearSvm:
    """Hinge loss + L2 penalty, per-sample subgradient steps with a 1/t
    learning-rate decay, samples visited in seeded-shuffled order."""
    m, d = x.shape
    t = y * 2.0 - 1.0  # unstable -> +1
    rng = np.random.default_rng(seed)
    w = np.zeros(d)
    b = 0.0
    step = 0
    for _ in range(epochs):
        for i in rng.permutation(m):
            step += 1
            lr = 1.0 / (l2 * step)
            margin = t[i] * (w @ x[i] + b)
            w *= 1.0 - lr * l2
            if margin < 1.0:
                w += lr * t[i] * x[i]
                b += lr * t[i]
    if not (np.all(np.isfinite(w)) and np.isfinite(b)):
        raise ValueError("diverged: non-finite SVM weights")
    return LinearSvm(w=w, b=float(b))


def fit(kind: str, features, labels, **kwargs):
    """Train one baseline. labels: 0 = stable, 1 = unstable."""
    x, y = _check_training_data(features, labels)
    kind = str(kind).lower()
    if kind == "nb":
        return _fit_nb(x, y, **kwargs)
    if kind == "knn":
        return _fit_knn(x, y, **kwargs)
    if kind == "svm":
        return _fit_svm(x, y, **kwargs)
    raise ValueError(f"unknown baseline kind {kind!r}; expected one of {KINDS}")


# -- checkpoint adapters ------------------------------------------------


def _load_nb(header, arrays):
    return NaiveBayes(
        means=arrays["means"],
        variances=arrays["variances"],
        log_priors=arrays["log_priors"],
    )


def _load_knn(header, arrays):
    k = header["k"]
    if not _models._is_int(k):  # int() would silently truncate 3.7 to 3
        raise _models.CheckpointError(f"knn checkpoint 'k' must be an integer, got {k!r}")
    return NearestNeighbors(
        points=arrays["points"],
        labels=arrays["labels"].astype(np.int64),
        k=k,
    )


def _load_svm(header, arrays):
    return LinearSvm(w=arrays["w"], b=float(arrays["b"][0]))


_models.register_checkpoint_kind("nb", _load_nb)
_models.register_checkpoint_kind("knn", _load_knn)
_models.register_checkpoint_kind("svm", _load_svm)
