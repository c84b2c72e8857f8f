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
        # np.std's own steps from the mean kept above, which it would
        # recompute: the same bits
        dev = matrix - self.mean
        np.square(dev, out=dev)
        std = np.sqrt(dev.sum(axis=0) / len(matrix))
        self.std = np.where(std > 0, std, 1.0)
        return self

    def transform(self, matrix):
        out = np.asarray(matrix, dtype=np.float64) - self.mean
        out /= self.std
        return out


# ---------------------------------------------------------------------------
# classifiers: each has fit(X, y, n_classes) and predict(X) -> int labels
# ---------------------------------------------------------------------------

KNN_TILE_BYTES = 720 * 2**10  # budget of one square tile of L1 differences
KNN_SCREEN_BYTES = 2 * 2**20  # budget of one (queries, train) L2 screen array
SVM_EPOCHS = 60  # default passes of LinearSvmClassifier, and of --epochs
SVM_DENSE_SHARE = 1 / 16  # violating share above which the next epoch steps
SVM_SCAN_STEPS = 4096  # most steps in one Pegasos skip-ahead scan window

def _gamma(n):
    """gamma_n = n u / (1 - n u), u the unit roundoff of float64: n
    roundings perturb a sum of nonnegative terms, or a dot product, by at
    most gamma_n times the sum of the terms' magnitudes, in any order of
    summation (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., 2002, 3.1)."""
    nu = n * np.finfo(np.float64).eps / 2
    return nu / (1.0 - nu)


def _l2_rows(query, rows):
    """Euclidean distances from query to each of rows: each pair's squared
    differences are summed by numpy over one contiguous dims-long row."""
    diff = query - rows
    np.square(diff, out=diff)
    return np.sqrt(diff.sum(axis=1))


class KnnClassifier:
    """k-nearest neighbors with L1 or L2 metric.

    Majority vote among the k nearest; ties break by smallest summed
    distance, then lowest class id.  Neighbours at equal distance rank by
    training index (a stable sort).
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
        if self.k > x.shape[0]:
            raise ValueError("k exceeds the number of training points")
        self.x = x
        self.y = np.asarray(y, dtype=np.int64)
        self.n_classes = n_classes
        return self

    def _distances(self, x):
        # L1 distances of every (query, train) pair; the differences are
        # formed one square tile of pairs at a time in one reused buffer of
        # at most KNN_TILE_BYTES that stays in cache (8 x 8 pairs at 1440
        # dims, 39 x 39 at 60); each pair is still reduced by numpy's sum
        # over one contiguous dims-long row, as in one broadcast, so the
        # distances do not depend on the tiling
        n_query, n_train = x.shape[0], self.x.shape[0]
        dims = self.x.shape[1]
        tile = max(1, math.isqrt(KNN_TILE_BYTES
                                 // (self.x.itemsize * max(dims, 1))))
        out = np.empty((n_query, n_train))
        buf = np.empty((tile, tile, dims))
        for q in range(0, n_query, tile):
            queries = x[q:q + tile, None, :]
            for t in range(0, n_train, tile):
                train = self.x[None, t:t + tile, :]
                diff = buf[:queries.shape[0], :train.shape[1]]
                np.subtract(queries, train, out=diff)
                np.abs(diff, out=diff)
                diff.sum(axis=2, out=out[q:q + tile, t:t + tile])
        return out

    def _l2_neighbours(self, x):
        """The k nearest training rows of each query and their distances,
        exactly as a stable argsort of every _l2_rows distance ranks them.

        A screen bounds every squared distance at once in the Gram form
        s = |q|^2 + |t|^2 - 2 q.t, one BLAS product per block of at most
        KNN_SCREEN_BYTES of (query, train) values.  With S = |q|^2 + |t|^2
        and d dims, s is within 2 gamma(d+4) S of the exact squared
        distance, and _l2_rows' sum D within 2 gamma(d+3) S of it, so
        |s - D| <= 4 gamma(d+4) S; b = 8 gamma(d+4) S covers that, the
        rounding of b from the computed S and of s +- b.  An absolute term
        covers underflow; a row with S near overflow (or not finite) gets an
        infinite b and is always a candidate.

        With K the k-th smallest s + b, k rows have D <= K, so the k-th
        smallest D is at most K, and a row with s - b > K has a larger D.
        K is padded by 2^-44 of itself, so such a row's sqrt is larger too,
        not tied.  Only the rows with s - b <= K (NaN compares as kept) are
        computed exactly by _l2_rows and ranked by a stable argsort in
        training-index order.  The BLAS and its rounding decide only how
        many candidates there are, never the neighbours or their distances.
        """
        n_query, (n_train, dims) = x.shape[0], self.x.shape
        k = self.k
        coef = 8.0 * _gamma(dims + 4)
        floor = 16.0 * (dims + 4) * np.finfo(np.float64).smallest_subnormal
        with np.errstate(over="ignore"):
            train_sq = np.einsum("ij,ij->i", self.x, self.x)
            query_sq = np.einsum("ij,ij->i", x, x)
        block = max(1, KNN_SCREEN_BYTES // (8 * n_train))
        order = np.empty((n_query, k), dtype=np.int64)
        near = np.empty((n_query, k))
        for start in range(0, n_query, block):
            queries = x[start:start + block]
            # an overflow here only makes rows candidates
            with np.errstate(over="ignore", invalid="ignore"):
                norms = np.add.outer(query_sq[start:start + block], train_sq)
                screen = queries @ self.x.T
                screen *= -2.0
                screen += norms
                unscreened = ~(norms < np.finfo(np.float64).max / 8)
                bound = norms
                bound *= coef
                bound += floor
                bound[unscreened] = np.inf
                kth = np.partition(screen + bound, k - 1, axis=1)[:, k - 1]
                kth *= 1.0 + 2.0**-44
                screen -= bound
            for i, lower in enumerate(screen):
                cand = np.flatnonzero(~(lower > kth[i]))
                dist = _l2_rows(queries[i], self.x[cand])
                first = np.argsort(dist, kind="stable")[:k]
                order[start + i] = cand[first]
                near[start + i] = dist[first]
        return order, near

    def predict(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if self.metric == "l2":
            order, near = self._l2_neighbours(x)
        else:
            dist = self._distances(x)
            order = np.argsort(dist, axis=1, kind="stable")[:, :self.k]
            near = np.take_along_axis(dist, order, axis=1)
        out = np.empty(x.shape[0], dtype=np.int64)
        for i in range(x.shape[0]):
            neigh = self.y[order[i]]
            counts = np.bincount(neigh, minlength=self.n_classes)
            best = counts.max()
            tied = np.flatnonzero(counts == best)
            if tied.size == 1:
                out[i] = tied[0]
                continue
            # the first least sum among the tied classes, in class order
            sums = [near[i][neigh == c].sum() for c in tied]
            out[i] = tied[np.argmin(sums)]
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

    Kept margins change only on a violating step, and few steps violate
    after the first epochs (on 180 planted-signal rows of 1440 dims, 1.3%
    of a 60-epoch fit's steps, most of them in epochs 1 and 2).  So epoch
    1, and any epoch after one in which more than SVM_DENSE_SHARE of the
    steps violated, runs one Python step per sample (_pegasos_steps); the
    other epochs are tested as one vector comparison per violation over a
    window of whole epochs (_pegasos_scan), which doubles over windows
    without a violation up to SVM_SCAN_STEPS steps.  Each epoch's
    permutation is drawn in the same order and every test is the same
    floating-point product and comparison, so w does not depend on which
    epochs are scanned.  The u form keeps its step loop: its margins are
    BLAS dot products, which a matrix-vector scan would not reproduce bit
    for bit.
    """

    def __init__(self, c=1.0, epochs=SVM_EPOCHS, seed=0):
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
        most = max(1, SVM_SCAN_STEPS // n)  # epochs in one scan window
        for c in range(n_classes):
            signs = np.where(y == c, 1.0, -1.0)
            kept = np.zeros(rows[0].size)  # the margins aug @ u, or u
            t = epoch = 0  # steps and epochs taken
            dense, span = True, 1  # epoch 1 starts from zero margins
            while epoch < self.epochs:
                if dense or not keep_margins:
                    span = 1
                    hits = _pegasos_steps(rng.permutation(n), t, lam, signs,
                                          rows, kept, coef[c], keep_margins)
                else:
                    span = min(span, most, self.epochs - epoch)
                    order = np.concatenate([rng.permutation(n)
                                            for _ in range(span)])
                    hits = _pegasos_scan(order, t, lam, signs, rows, kept,
                                         coef[c])
                t += span * n
                epoch += span
                dense = hits > SVM_DENSE_SHARE * span * n
                span = 2 * span if hits == 0 else 1
        self.n_classes = n_classes
        self.w = (coef @ aug) / (lam * self.epochs * n)
        return self

    def scores(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        aug = np.hstack([x, np.ones((x.shape[0], 1))])
        return aug @ self.w.T

    def predict(self, x):
        return self.scores(x).argmax(axis=1)


def _pegasos_steps(order, t, lam, signs, rows, kept, coef, keep_margins):
    """LinearSvmClassifier's steps over the samples in order, numbered from
    t, one Python step each; kept holds the margins aug @ u (keep_margins)
    or u itself.  Returns the number of violating steps."""
    hits = 0
    signs = signs.tolist()
    for i in order.tolist():
        margin = kept.item(i) if keep_margins else rows[i].dot(kept)
        if t == 0 or signs[i] * margin < lam * t:
            _violate(i, signs[i], rows, kept, coef)
            hits += 1
        t += 1
    return hits


def _pegasos_scan(order, t, lam, signs, rows, kept, coef):
    """_pegasos_steps over the kept margins from a step t > 0, with one
    vector test per violation.  The margins change only on a violating
    step, so up to the next violation every step's test is
    signs[i] * kept[i] < lam * t against the same kept: the tests of all
    the steps left are taken at once, with the same products and
    comparisons, and the scan resumes after the first that violates."""
    side = signs[order]
    limit = lam * np.arange(t, t + order.size)
    start = hits = 0
    while start < order.size:
        test = kept[order[start:]]
        test *= side[start:]
        below = test < limit[start:]
        step = below.argmax()
        if not below[step]:
            break
        start += step + 1
        i = order[start - 1]
        _violate(i, signs[i], rows, kept, coef)
        hits += 1
    return hits


def _violate(i, sign, rows, kept, coef):
    # a violating step on sample i: u gains sign * aug_i
    coef[i] += sign
    if sign > 0:
        kept += rows[i]
    else:
        kept -= rows[i]


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


CLASSIFIERS = {"knn": KnnClassifier, "nb": GaussianNbClassifier,
               "svm": LinearSvmClassifier, "majority": MajorityClassifier}


def make_classifier(spec):
    """Build a classifier from a (name, params) spec tuple or plain name,
    where name is a CLASSIFIERS key in any case."""
    name, params = (spec, {}) if isinstance(spec, str) else spec
    return CLASSIFIERS[name.lower()](**params)


def _fit_predict(classifier_spec, train_x, train_y, n_classes, test_x,
                 scale_test_alone=False):
    """(scaler, classifier, test_x label ids) of a classifier fit on scaled
    train_x; test_x is scaled by the training scaler, or with
    scale_test_alone by its own statistics."""
    scaler = Scaler().fit(train_x)
    clf = make_classifier(classifier_spec).fit(scaler.transform(train_x),
                                               train_y, n_classes)
    test_scaler = Scaler().fit(test_x) if scale_test_alone else scaler
    return scaler, clf, clf.predict(test_scaler.transform(test_x))


# ---------------------------------------------------------------------------
# cross-validation
# ---------------------------------------------------------------------------

def shuffled_by_class(labels, rng):
    """label -> its positions in labels, shuffled; labels in sorted order,
    each drawing one rng.permutation of its members in that order."""
    members = {}
    for i, lb in enumerate(labels):
        members.setdefault(lb, []).append(i)
    return {lb: [members[lb][j] for j in rng.permutation(len(members[lb]))]
            for lb in sorted(members)}


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
            _, _, pred = _fit_predict(
                classifier_spec, dataset.matrix[~test_mask], y[~test_mask],
                n_classes, dataset.matrix[test_mask], paper_normalization)
            truth = y[test_mask]
            accuracies.append(float((pred == truth).mean()))
            for t, p in zip(truth, pred):
                confusion[t, p] += 1

    return CvResult(
        mean_accuracy=float(np.mean(accuracies)),
        std_accuracy=float(np.std(accuracies)),
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
    classifier: object
    scaler: Scaler
    confidence: float


def bagging_train(dataset, classifier_spec, n=10, holdout_fraction=0.10,
                  seed=0, classes=None):
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
        scaler, clf, pred = _fit_predict(
            classifier_spec, dataset.matrix[train_idx], y[train_idx],
            len(classes), dataset.matrix[hold_idx])
        confidence = float((pred == y[hold_idx]).mean())
        members.append(EnsembleMember(classifier=clf, scaler=scaler,
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
