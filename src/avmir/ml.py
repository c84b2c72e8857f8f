"""Classifiers, normalization, cross-validation and the bagged
weighted-majority ensemble.

Everything is deterministic given the explicit 64-bit seed; randomness is
derived exclusively through numpy SeedSequence spawning so that fold layouts
and ensemble subsamples reproduce bit-identically across runs.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError


@dataclass
class LabeledDataset:
    """Feature matrix with labels and schema.

    classes is the deduplicated label list in first-seen order; the integer
    class id used for tie-breaking is the index into it.
    """
    matrix: np.ndarray
    labels: list
    schema: list
    classes: list = field(init=False)

    def __post_init__(self):
        self.matrix = np.atleast_2d(np.asarray(self.matrix, dtype=np.float64))
        self.labels = list(self.labels)
        self.schema = list(self.schema)
        if self.matrix.shape[0] != len(self.labels):
            raise ValueError("matrix rows and labels differ in length")
        if self.matrix.shape[1] != len(self.schema):
            raise ValueError("matrix columns and schema differ in length")
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("dataset contains non-finite entries")
        seen = {}
        for lb in self.labels:
            seen.setdefault(lb, len(seen))
        self.classes = list(seen)

    @property
    def n(self):
        return self.matrix.shape[0]

    def label_ids(self, classes=None):
        classes = self.classes if classes is None else classes
        index = {lb: i for i, lb in enumerate(classes)}
        return np.array([index[lb] for lb in self.labels], dtype=np.int64)

    def subset(self, indices):
        return LabeledDataset(self.matrix[indices],
                              [self.labels[i] for i in indices], self.schema)


class Scaler:
    """Zero-mean / unit-variance column scaling; constant columns pass
    through as zeros."""

    def __init__(self):
        self.mean = None
        self.std = None

    def fit(self, matrix):
        matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
        self.mean = matrix.mean(axis=0)
        std = matrix.std(axis=0)
        self.std = np.where(std > 0, std, 1.0)
        return self

    def transform(self, matrix):
        return (np.asarray(matrix, dtype=np.float64) - self.mean) / self.std


def fit_scaler(matrix):
    return Scaler().fit(matrix)


# ---------------------------------------------------------------------------
# classifiers: each has fit(X, y, n_classes) and predict(X) -> int labels
# ---------------------------------------------------------------------------

KNN_TILE_BYTES = 720 * 2**10  # budget of one square tile of kNN differences


class KnnClassifier:
    """k-nearest neighbors with L1 or L2 metric.

    Majority vote among the k nearest; ties break by smallest summed
    distance, then lowest class id.
    """

    def __init__(self, k=1, metric="l2"):
        if metric not in ("l1", "l2"):
            raise ValueError("metric must be 'l1' or 'l2'")
        self.k = int(k)
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")
        self.metric = metric

    def fit(self, x, y, n_classes):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[0] == 0:
            raise ValueError("empty training set")
        if self.k > x.shape[0]:
            raise ValueError("k exceeds the number of training points")
        self.x = x
        self.y = np.asarray(y, dtype=np.int64)
        self.n_classes = n_classes
        return self

    def _distances(self, x):
        # the (query, train, dims) differences are formed one square tile of
        # pairs at a time in one reused buffer of at most KNN_TILE_BYTES that
        # stays in cache (8 x 8 pairs at 1440 dims, 39 x 39 at 60); each pair
        # is still reduced by numpy's sum over one contiguous dims-long row,
        # as in one broadcast, so the distances do not depend on the tiling
        n_query, n_train = x.shape[0], self.x.shape[0]
        dims = self.x.shape[1]
        tile = max(1, math.isqrt(KNN_TILE_BYTES
                                 // (self.x.itemsize * max(dims, 1))))
        out = np.empty((n_query, n_train))
        buf = np.empty((tile, tile, dims))
        magnitude = np.abs if self.metric == "l1" else np.square
        for q in range(0, n_query, tile):
            queries = x[q:q + tile, None, :]
            for t in range(0, n_train, tile):
                train = self.x[None, t:t + tile, :]
                diff = buf[:queries.shape[0], :train.shape[1]]
                np.subtract(queries, train, out=diff)
                magnitude(diff, out=diff)
                diff.sum(axis=2, out=out[q:q + tile, t:t + tile])
        if self.metric == "l2":
            np.sqrt(out, out=out)
        return out

    def predict(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        dist = self._distances(x)
        order = np.argsort(dist, axis=1, kind="stable")[:, :self.k]
        out = np.empty(x.shape[0], dtype=np.int64)
        for i in range(x.shape[0]):
            neigh = self.y[order[i]]
            counts = np.bincount(neigh, minlength=self.n_classes)
            best = counts.max()
            tied = np.flatnonzero(counts == best)
            if tied.size == 1:
                out[i] = tied[0]
                continue
            sums = np.full(self.n_classes, np.inf)
            for c in tied:
                sums[c] = dist[i, order[i]][neigh == c].sum()
            min_sum = sums.min()
            out[i] = int(np.flatnonzero(sums == min_sum)[0])
        return out


class GaussianNbClassifier:
    """Gaussian naive Bayes with per-class feature likelihoods, variance
    floored at 1e-9 and priors from class frequencies."""

    VAR_FLOOR = 1e-9

    def fit(self, x, y, n_classes):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        y = np.asarray(y, dtype=np.int64)
        self.n_classes = n_classes
        self.means = np.zeros((n_classes, x.shape[1]))
        self.vars = np.ones((n_classes, x.shape[1]))
        self.log_priors = np.full(n_classes, -np.inf)
        for c in range(n_classes):
            rows = x[y == c]
            if rows.shape[0] == 0:
                continue
            self.means[c] = rows.mean(axis=0)
            self.vars[c] = np.maximum(rows.var(axis=0), self.VAR_FLOOR)
            self.log_priors[c] = np.log(rows.shape[0] / x.shape[0])
        return self

    def scores(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        out = np.empty((x.shape[0], self.n_classes))
        for c in range(self.n_classes):
            if not np.isfinite(self.log_priors[c]):
                out[:, c] = -np.inf
                continue
            ll = -0.5 * (np.log(2.0 * np.pi * self.vars[c])
                         + (x - self.means[c]) ** 2 / self.vars[c])
            out[:, c] = self.log_priors[c] + ll.sum(axis=1)
        return out

    def predict(self, x):
        return self.scores(x).argmax(axis=1)


class LinearSvmClassifier:
    """One-vs-rest linear SVM trained by seeded deterministic subgradient
    descent on the hinge loss (Pegasos-style step sizes).

    Step t shrinks w by (1 - 1/t) and, when sample i violates the margin,
    adds y_i x_i / (lam t).  Unrolled, w_t = u_t / (lam t), where u_t sums
    y_i x_i over the violating steps so far (Shalev-Shwartz et al.,
    "Pegasos", Math. Prog. 2011), so no step shrinks anything: step t
    violates when y_i (aug_i @ u) < lam (t - 1), and step 1 always does,
    because w starts at 0.  w is formed once at the end.

    With n rows of d augmented dimensions, a step's margin aug_i @ u costs
    d multiply-adds.  When n <= d the margins aug @ u are kept instead and
    a violation adds one row of the Gram matrix aug @ aug.T (n values), so
    a step costs O(1) and a violation O(n); the n x n Gram matrix is then
    no larger than aug.  When n > d, u itself is kept: a step costs one
    d-long dot and a violation adds one row of aug.
    """

    def __init__(self, c=1.0, epochs=200, seed=0):
        self.c = float(c)
        self.epochs = int(epochs)
        self.seed = int(seed)
        if not (np.isfinite(self.c) and self.c > 0):
            raise ValueError(f"c must be positive and finite, got {self.c}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")

    def fit(self, x, y, n_classes):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        y = np.asarray(y, dtype=np.int64)
        n = x.shape[0]
        aug = np.hstack([x, np.ones((n, 1))])  # bias as an extra weight
        lam = 1.0 / (self.c * n)
        rng = np.random.default_rng(np.random.SeedSequence(self.seed))
        keep_margins = n <= aug.shape[1]
        rows = list(aug @ aug.T if keep_margins else aug)
        coef = np.zeros((n_classes, n))  # u = coef @ aug, per class
        for c in range(n_classes):
            signs = np.where(y == c, 1.0, -1.0).tolist()
            kept = np.zeros(rows[0].size)  # the margins aug @ u, or u
            t = 0  # steps taken
            for _ in range(self.epochs):
                for i in rng.permutation(n).tolist():
                    margin = (kept.item(i) if keep_margins
                              else rows[i].dot(kept))
                    if t == 0 or signs[i] * margin < lam * t:
                        coef[c, i] += signs[i]
                        if signs[i] > 0:
                            kept += rows[i]
                        else:
                            kept -= rows[i]
                    t += 1
        self.n_classes = n_classes
        self.w = (coef @ aug) / (lam * self.epochs * n)
        return self

    def scores(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        aug = np.hstack([x, np.ones((x.shape[0], 1))])
        return aug @ self.w.T

    def predict(self, x):
        return self.scores(x).argmax(axis=1)


class MajorityClassifier:
    """Baseline that always predicts the most frequent training class."""

    def fit(self, x, y, n_classes):
        counts = np.bincount(np.asarray(y, dtype=np.int64),
                             minlength=n_classes)
        self.label = int(counts.argmax())
        return self

    def predict(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return np.full(x.shape[0], self.label, dtype=np.int64)


def make_classifier(spec):
    """Build a classifier from a (name, params) spec tuple or plain name."""
    if isinstance(spec, str):
        name, params = spec, {}
    else:
        name, params = spec
    name = name.lower()
    if name == "knn":
        return KnnClassifier(**params)
    if name == "nb":
        return GaussianNbClassifier(**params)
    if name == "svm":
        return LinearSvmClassifier(**params)
    if name == "majority":
        return MajorityClassifier(**params)
    raise ValueError(f"unknown classifier: {name!r}")


# ---------------------------------------------------------------------------
# cross-validation
# ---------------------------------------------------------------------------

def stratified_kfold(labels, k=10, repeats=10, seed=0):
    """Per-repeat stratified fold assignments.

    Within each repeat every class is shuffled (seeded) and dealt
    round-robin, so per-fold class counts deviate from the exact proportion
    by at most one.  Returns a list of (n,) integer fold-id arrays, one per
    repeat.  k is reduced (with a warning) when a class has fewer members.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    labels = list(labels)
    n = len(labels)
    classes = {}
    for i, lb in enumerate(labels):
        classes.setdefault(lb, []).append(i)

    min_count = min(len(v) for v in classes.values())
    if min_count < k:
        warnings.warn(f"smallest class has {min_count} members; "
                      f"reducing folds from {k} to {min_count}")
        k = min_count
    if k < 2:
        raise ValueError("need at least 2 folds")

    root = np.random.SeedSequence(seed)
    assignments = []
    for child in root.spawn(repeats):
        rng = np.random.default_rng(child)
        folds = np.empty(n, dtype=np.int64)
        for members in classes.values():
            order = rng.permutation(len(members))
            for pos, m in enumerate(order):
                folds[members[m]] = pos % k
        assignments.append(folds)
    return assignments


@dataclass
class CvResult:
    mean_accuracy: float
    std_accuracy: float
    fold_accuracies: list
    confusion: np.ndarray      # (classes, classes), rows = truth, summed
    classes: list
    per_class: dict            # label -> {precision, recall, f1}


def _metrics_from_confusion(confusion, classes):
    per_class = {}
    for i, lb in enumerate(classes):
        tp = confusion[i, i]
        fp = confusion[:, i].sum() - tp
        fn = confusion[i, :].sum() - tp
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall > 0 else 0.0)
        per_class[lb] = {"precision": float(precision),
                         "recall": float(recall), "f1": float(f1)}
    return per_class


def cross_validate(dataset, classifier_spec, folds, paper_normalization=False):
    """Run repeated k-fold evaluation of a classifier spec on a dataset.

    The scaler is fit on each training fold only; with paper_normalization
    the test fold is instead standardized by its own statistics (train and
    test normalized separately).  Accuracies are averaged over all folds and
    repeats; the confusion matrix is summed.
    """
    y = dataset.label_ids()
    n_classes = len(dataset.classes)
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    accuracies = []

    for fold_ids in folds:
        for f in np.unique(fold_ids):
            test_mask = fold_ids == f
            train_x = dataset.matrix[~test_mask]
            test_x = dataset.matrix[test_mask]
            scaler = fit_scaler(train_x)
            train_x = scaler.transform(train_x)
            if paper_normalization:
                test_x = fit_scaler(test_x).transform(test_x)
            else:
                test_x = scaler.transform(test_x)
            clf = make_classifier(classifier_spec)
            clf.fit(train_x, y[~test_mask], n_classes)
            pred = clf.predict(test_x)
            truth = y[test_mask]
            accuracies.append(float((pred == truth).mean()))
            for t, p in zip(truth, pred):
                confusion[t, p] += 1

    accuracies = list(accuracies)
    return CvResult(
        mean_accuracy=float(np.mean(accuracies)),
        std_accuracy=float(np.std(accuracies)),
        fold_accuracies=accuracies,
        confusion=confusion,
        classes=list(dataset.classes),
        per_class=_metrics_from_confusion(confusion, dataset.classes),
    )


def first_difference(labels, expected):
    """Where two unequal label lists first differ: their row counts, or the
    first differing data row (counted from 1)."""
    if len(labels) != len(expected):
        return f"{len(labels)} data rows, expected {len(expected)}"
    row = next(i for i, (a, b) in enumerate(zip(labels, expected)) if a != b)
    return f"data row {row + 1} is {labels[row]!r}, expected {expected[row]!r}"


def early_fuse(parts):
    """Column-concatenate named feature parts into one dataset.

    parts is a sequence of (name, LabeledDataset); all parts must agree on
    row count and labels.  Schema names get the part name as prefix; column
    order follows the argument order.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("nothing to fuse")
    base_name, base = parts[0]
    matrices, schema = [], []
    for name, ds in parts:
        if ds.labels != base.labels:
            raise InputError(
                f"part {name!r} labels disagree with part {base_name!r} "
                f"({first_difference(ds.labels, base.labels)})")
        matrices.append(ds.matrix)
        schema.extend(f"{name}.{col}" for col in ds.schema)
    return LabeledDataset(np.hstack(matrices), list(base.labels), schema)


# ---------------------------------------------------------------------------
# bagged weighted-majority ensemble
# ---------------------------------------------------------------------------

BAGGING_MAX_RETRIES = 25  # subsample draws per member before giving up


@dataclass
class EnsembleMember:
    tag: str
    classifier: object
    scaler: Scaler
    confidence: float


def bagging_train(dataset, classifier_spec, n=10, holdout_fraction=0.10,
                  seed=0, tag="modality", classes=None):
    """Train n ensemble members on random subsamples of the training set.

    Each member trains on a seeded (1 - holdout_fraction) subsample; the
    held-out remainder estimates its confidence (accuracy in [0, 1]) which
    later weights its vote.  Subsamples missing a class are redrawn up to
    BAGGING_MAX_RETRIES times before raising.
    """
    if not 0.0 < holdout_fraction < 1.0:
        raise ValueError("holdout fraction must lie strictly between 0 and 1, "
                         f"got {holdout_fraction}")
    classes = list(dataset.classes) if classes is None else list(classes)
    y = dataset.label_ids(classes)
    n_rows = dataset.n
    n_train = max(1, int(round(n_rows * (1.0 - holdout_fraction))))
    if n_train >= n_rows:
        raise ValueError("holdout fraction leaves no held-out rows")

    needed = set(np.unique(y))
    members = []
    root = np.random.SeedSequence(seed)
    for child in root.spawn(n):
        rng = np.random.default_rng(child)
        for attempt in range(BAGGING_MAX_RETRIES):
            order = rng.permutation(n_rows)
            train_idx, hold_idx = order[:n_train], order[n_train:]
            if set(np.unique(y[train_idx])) == needed:
                break
        else:
            raise ValueError("could not draw a subsample containing every class")
        scaler = fit_scaler(dataset.matrix[train_idx])
        clf = make_classifier(classifier_spec)
        clf.fit(scaler.transform(dataset.matrix[train_idx]), y[train_idx],
                len(classes))
        pred = clf.predict(scaler.transform(dataset.matrix[hold_idx]))
        confidence = float((pred == y[hold_idx]).mean())
        members.append(EnsembleMember(tag=tag, classifier=clf, scaler=scaler,
                                      confidence=confidence))
    return members


def ensemble_predict(modalities, matrices, n_classes):
    """Weighted majority vote across all members of all modalities.

    modalities is a list of member lists; matrices the matching list of
    per-modality (rows, features) matrices.  Every member predicts every
    row and votes its label with its confidence as weight; per row the
    label with the highest summed weight wins, ties resolving to the lowest
    class id.  Weights are added in (modality, member) order.  Returns the
    (rows,) winning label ids.
    """
    if not any(modalities):
        raise ValueError("no ensemble members")
    if len(modalities) != len(matrices):
        raise ValueError("need one matrix per modality")
    matrices = [np.atleast_2d(np.asarray(m, dtype=np.float64))
                for m in matrices]
    rows = np.arange(matrices[0].shape[0])
    sums = np.zeros((rows.size, n_classes))
    for members, matrix in zip(modalities, matrices):
        for member in members:
            scaled = member.scaler.transform(matrix) if member.scaler \
                else matrix
            sums[rows, member.classifier.predict(scaled)] += member.confidence
    return sums.argmax(axis=1)
