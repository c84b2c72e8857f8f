import itertools
import tracemalloc

import numpy as np
import pytest

from avmir import ml
from avmir.errors import InputError
from avmir.ml import LabeledDataset
from conftest import fixed_member, vote_one_row


def blob_dataset(rng, centers, per_class=20, spread=0.3, schema_dim=None):
    rows, labels = [], []
    for i, center in enumerate(centers):
        pts = rng.normal(loc=center, scale=spread,
                         size=(per_class, len(center)))
        rows.append(pts)
        labels.extend([f"c{i}"] * per_class)
    matrix = np.vstack(rows)
    schema = [f"f{j}" for j in range(matrix.shape[1])]
    return LabeledDataset(matrix, labels, schema)


def knn_oracle(train, y, probes, k, n_classes, metric="l2"):
    """Brute-force kNN: every distance from one broadcast, a stable argsort,
    and the vote with its tie-breaks written out.  Returns the predictions,
    the neighbour indices and the neighbour distances."""
    diff = probes[:, None, :] - train[None, :, :]
    if metric == "l1":
        dist = np.abs(diff).sum(axis=2)
    else:
        dist = np.sqrt((diff ** 2).sum(axis=2))
    order = np.argsort(dist, axis=1, kind="stable")[:, :k]
    near = np.take_along_axis(dist, order, axis=1)
    pred = []
    for idx, d in zip(order, near):
        labels = y[idx]
        votes = [int((labels == c).sum()) for c in range(n_classes)]
        tied = [c for c in range(n_classes) if votes[c] == max(votes)]
        pred.append(min(tied, key=lambda c: (d[labels == c].sum(), c)))
    return np.array(pred), order, near


def assert_neighbours_equal(got, expected):
    for g, e in zip(got, expected):
        assert g.shape == e.shape
        assert g.tobytes() == e.tobytes()


@pytest.fixture
def exact_pairs(monkeypatch):
    """The row count of every ml._l2_rows call: the pairs whose L2
    distance kNN computes exactly."""
    counts = []
    exact = ml._l2_rows

    def counted(query, rows):
        counts.append(rows.shape[0])
        return exact(query, rows)

    monkeypatch.setattr(ml, "_l2_rows", counted)
    return counts


class TestScaler:
    def test_constant_dim_maps_to_zero(self):
        m = np.array([[5.0, 1.0], [5.0, 3.0]])
        out = ml.Scaler().fit(m).transform(m)
        np.testing.assert_allclose(out[:, 0], 0.0)

    def test_already_standardized(self):
        m = np.array([[-1.0], [1.0]])
        np.testing.assert_allclose(ml.Scaler().fit(m).transform(m), m)

    def test_fit_stats(self, rng):
        m = rng.normal(3.0, 2.5, size=(200, 4))
        out = ml.Scaler().fit(m).transform(m)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-9)

    @pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
    @pytest.mark.parametrize("shape", [(180, 1440), (7, 3), (1, 5)])
    def test_stats_and_transform_are_numpys_bytes(self, rng, shape, scale):
        m = rng.normal(3.0, 2.5, size=shape) * scale
        # squared deviations overflow to inf at 1e200, in np.std as here
        with np.errstate(over="ignore"):
            scaler = ml.Scaler().fit(m)
            std = np.std(m, axis=0)
        mean = np.mean(m, axis=0)
        std = np.where(std > 0, std, 1.0)
        assert scaler.mean.tobytes() == mean.tobytes()
        assert scaler.std.tobytes() == std.tobytes()
        assert scaler.transform(m).tobytes() == ((m - mean) / std).tobytes()


class TestKnn:
    def test_training_point_predicts_own_label(self, rng):
        ds = blob_dataset(rng, [(0, 0), (5, 5)])
        clf = ml.KnnClassifier(k=1).fit(ds.matrix, ds.label_ids(), 2)
        pred = clf.predict(ds.matrix)
        np.testing.assert_array_equal(pred, ds.label_ids())

    def test_two_point_example(self):
        clf = ml.KnnClassifier(k=1).fit([[0.0], [10.0]], [0, 1], 2)
        assert clf.predict([[1.0]])[0] == 0

    def test_matches_exhaustive_scan(self, rng):
        # 200 random points, 100% label agreement with a brute-force oracle
        train = rng.normal(size=(200, 5))
        y = rng.integers(0, 4, size=200)
        probes = rng.normal(size=(50, 5))
        for metric in ("l1", "l2"):
            clf = ml.KnnClassifier(k=1, metric=metric).fit(train, y, 4)
            pred = clf.predict(probes)
            for i, p in enumerate(probes):
                if metric == "l1":
                    dists = [sum(abs(a - b) for a, b in zip(p, row))
                             for row in train]
                else:
                    dists = [sum((a - b) ** 2 for a, b in zip(p, row)) ** 0.5
                             for row in train]
                assert y[int(np.argmin(dists))] == pred[i]

    def test_k_larger_than_train_raises(self):
        with pytest.raises(ValueError):
            ml.KnnClassifier(k=5).fit([[0.0]], [0], 1)

    @pytest.mark.parametrize("metric", ["l1", "l2"])
    def test_chunked_distances_equal_one_broadcast(self, rng, monkeypatch,
                                                   metric):
        # 200 dims exercise numpy's pairwise summation; at 200 dims the
        # default budget gives tiles of 21 pairs a side, and the budgets set
        # below give tiles of 8 and 3, so 20 queries and 30 training rows
        # leave partial tiles (remainders 20 and 9, 4 and 6, 2 and 0); L1
        # distances come from the tiles, L2 neighbours from the screen,
        # which the tile budget must not reach
        train = rng.normal(size=(30, 200))
        y = rng.integers(0, 3, size=30)
        probes = rng.normal(size=(20, 200))
        expected = knn_oracle(train, y, probes, 3, 3, metric)
        diff = probes[:, None, :] - train[None, :, :]
        clf = ml.KnnClassifier(k=3, metric=metric).fit(train, y, 3)
        for tile in (None, 8, 3):
            if tile:
                monkeypatch.setattr(ml, "KNN_TILE_BYTES",
                                    tile * tile * 200 * 8)
            if metric == "l1":
                np.testing.assert_array_equal(clf._distances(probes),
                                              np.abs(diff).sum(axis=2))
            else:
                assert_neighbours_equal(clf._l2_neighbours(probes),
                                        expected[1:])
            np.testing.assert_array_equal(clf.predict(probes), expected[0])

    @pytest.mark.parametrize("k", [1, 5])
    @pytest.mark.parametrize("case", ["duplicate-rows", "equidistant-ties",
                                      "offset-1e8", "constant-features",
                                      "tiny-features", "huge-features",
                                      "overflowing-features",
                                      "one-query-blocks"])
    def test_l2_screen_matches_brute_force(self, rng, monkeypatch, case, k):
        train = rng.normal(size=(40, 12))
        probes = rng.normal(size=(15, 12))
        if case == "duplicate-rows":
            # every row four times, and probes on top of training rows
            train = np.repeat(train[:10], 4, axis=0)
            probes[:5] = train[::8]
        elif case == "equidistant-ties":
            # integer grid points: many exactly equal distances
            train = rng.integers(-2, 3, size=(40, 3)).astype(float)
            probes = rng.integers(-2, 3, size=(15, 3)).astype(float)
        elif case == "offset-1e8":
            # the Gram form cancels about 16 digits here
            train += 1e8
            probes += 1e8
        elif case == "constant-features":
            train[:, 4:] = 7.0
            probes[:, 4:] = 7.0
            train[20:, :4] = 0.5
        elif case == "tiny-features":
            # rows 1e-160 apart near 1e-157: their squared distances and
            # the Gram form's cancellation fall among the subnormals
            base = rng.normal(size=12) * 1e-157
            train = base + rng.integers(-3, 4, size=(40, 12)) * 1e-160
            probes = base + rng.integers(-3, 4, size=(15, 12)) * 1e-160
        elif case == "huge-features":
            # |q|^2 + |t|^2 near the largest double; some distances overflow
            train *= 2e153
            probes *= 2e153
        elif case == "overflowing-features":
            # every square overflows: the screen is NaN, every distance inf
            train *= 1e155
            probes *= 1e155
        else:
            monkeypatch.setattr(ml, "KNN_SCREEN_BYTES", 8 * 40)
        y = rng.integers(0, 3, size=40)
        if case == "overflowing-features":
            y[:] = 0  # infinite tie-break sums are not at issue here
        with np.errstate(over="ignore"):
            expected = knn_oracle(train, y, probes, k, 3)
            clf = ml.KnnClassifier(k=k).fit(train, y, 3)
            assert_neighbours_equal(clf._l2_neighbours(probes), expected[1:])
            np.testing.assert_array_equal(clf.predict(probes), expected[0])

    def test_infinite_tie_sums_pick_a_tied_class(self, rng):
        # 1e155-scaled features: every L2 distance overflows to inf, so
        # every tied class sums to inf; the vote must still go to the
        # lowest tied class, not to a class without a vote
        train = rng.normal(size=(40, 12)) * 1e155
        probes = rng.normal(size=(15, 12)) * 1e155
        y = rng.integers(0, 3, size=40)
        with np.errstate(over="ignore"):
            expected = knn_oracle(train, y, probes, 5, 3)
            got = ml.KnnClassifier(k=5).fit(train, y, 3).predict(probes)
        assert np.isinf(expected[2]).all()
        assert (expected[0] > 0).any()
        np.testing.assert_array_equal(got, expected[0])

    def test_l2_screen_k_equals_n(self, rng):
        train = np.vstack([rng.normal(size=(6, 4))] * 2)
        y = np.array([0, 1, 2] * 4)
        probes = np.vstack([train[:3], rng.normal(size=(5, 4))])
        expected = knn_oracle(train, y, probes, 12, 3)
        clf = ml.KnnClassifier(k=12).fit(train, y, 3)
        assert_neighbours_equal(clf._l2_neighbours(probes), expected[1:])
        np.testing.assert_array_equal(clf.predict(probes), expected[0])

    @pytest.mark.parametrize("k", [1, 5])
    def test_l2_screen_matches_brute_force_on_random_shapes(self, rng, k):
        for _ in range(30):
            n, dims = rng.integers(k, 50), rng.integers(0, 40)
            scale = 10.0 ** rng.integers(-3, 4)
            train = np.round(rng.normal(size=(n, dims)) * scale, 1)
            probes = np.round(rng.normal(size=(rng.integers(1, 9), dims))
                              * scale, 1)
            y = rng.integers(0, 4, size=n)
            expected = knn_oracle(train, y, probes, k, 4)
            clf = ml.KnnClassifier(k=k).fit(train, y, 4)
            assert_neighbours_equal(clf._l2_neighbours(probes), expected[1:])
            np.testing.assert_array_equal(clf.predict(probes), expected[0])

    @pytest.mark.parametrize("k", [1, 5])
    def test_l2_screen_prunes_exact_pairs(self, rng, exact_pairs, k):
        # the classify benchmark's fold shape: 40 queries, 360 rows, 1440
        # dims; the screen's bound is about 1e-12 of a squared distance, so
        # only the k nearest rows of each query are computed exactly
        train = rng.normal(size=(360, 1440))
        y = rng.integers(0, 5, size=360)
        probes = rng.normal(size=(40, 1440))
        pred = ml.KnnClassifier(k=k).fit(train, y, 5).predict(probes)
        assert exact_pairs == [k] * 40
        np.testing.assert_array_equal(
            pred, knn_oracle(train, y, probes, k, 5)[0])

    def test_l2_screen_bound_widens_with_an_offset(self, rng, exact_pairs):
        # with every coordinate offset by 1e8 the Gram form can no longer
        # separate rows whose squared distances differ by about 10, so
        # every row is a candidate
        train = rng.normal(size=(50, 5)) + 1e8
        probes = rng.normal(size=(4, 5)) + 1e8
        ml.KnnClassifier(k=1).fit(train, np.zeros(50, np.int64), 1).predict(
            probes)
        assert exact_pairs == [50] * 4


class TestGaussianNb:
    def test_separated_blobs(self, rng):
        ds = blob_dataset(rng, [(0, 0), (8, 8)], per_class=50)
        clf = ml.GaussianNbClassifier().fit(ds.matrix, ds.label_ids(), 2)
        accuracy = (clf.predict(ds.matrix) == ds.label_ids()).mean()
        assert accuracy >= 0.99

    def test_single_class(self, rng):
        x = rng.normal(size=(10, 3))
        clf = ml.GaussianNbClassifier().fit(x, np.zeros(10, np.int64), 1)
        assert np.all(clf.predict(rng.normal(size=(5, 3))) == 0)

    def test_finite_log_posteriors(self, rng):
        x = np.ones((6, 2))  # zero variance everywhere
        y = np.array([0, 0, 0, 1, 1, 1])
        clf = ml.GaussianNbClassifier().fit(x, y, 2)
        scores = clf.scores(rng.normal(size=(4, 2)) * 100)
        assert np.all(np.isfinite(scores))


class TestLinearSvm:
    def test_separable_blobs_fit_exactly(self, rng):
        ds = blob_dataset(rng, [(0, 0), (6, 6), (-6, 6)], per_class=30)
        x = ml.Scaler().fit(ds.matrix).transform(ds.matrix)
        clf = ml.LinearSvmClassifier(c=1.0, epochs=120, seed=3).fit(
            x, ds.label_ids(), 3)
        assert (clf.predict(x) == ds.label_ids()).mean() == 1.0

    def test_deterministic(self, rng):
        ds = blob_dataset(rng, [(0, 0), (4, 4)])
        a = ml.LinearSvmClassifier(seed=9).fit(ds.matrix, ds.label_ids(), 2)
        b = ml.LinearSvmClassifier(seed=9).fit(ds.matrix, ds.label_ids(), 2)
        np.testing.assert_array_equal(a.w, b.w)

    def test_scaling_absorbed_by_scaler(self, rng):
        ds = blob_dataset(rng, [(0, 0), (5, 5)])
        scaled = LabeledDataset(ds.matrix * 10.0, ds.labels, ds.schema)
        pred_a = _pipeline_predict(ds, rng)
        pred_b = _pipeline_predict(scaled, rng)
        np.testing.assert_array_equal(pred_a, pred_b)


def _pegasos_loop(x, y, n_classes, c, epochs, seed):
    """Per-step Pegasos reference: shrink w on every step, add on every
    violation.  Returns w and the share of steps that violated."""
    n = x.shape[0]
    aug = np.hstack([x, np.ones((n, 1))])
    w_all = np.zeros((n_classes, aug.shape[1]))
    lam = 1.0 / (c * n)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    violations = 0
    for k in range(n_classes):
        target = np.where(y == k, 1.0, -1.0)
        w = np.zeros(aug.shape[1])
        t = 0
        for _ in range(epochs):
            for i in rng.permutation(n):
                t += 1
                eta = 1.0 / (lam * t)
                violates = target[i] * (aug[i] @ w) < 1.0
                w *= (1.0 - eta * lam)
                if violates:
                    w += eta * target[i] * aug[i]
                    violations += 1
        w_all[k] = w
    return w_all, violations / (n_classes * epochs * n)


class TestPegasosParity:
    # (dims, spread, c, epochs, seed, bounds on the share of violating
    # steps): the bounds make sure both regimes are covered.  45 rows in 3
    # dims take the form that keeps u (n > d); 24 rows in 40 dims the form
    # that keeps the margins (n <= d)
    @pytest.mark.parametrize("dims, spread, c, epochs, seed, share", [
        (3, 0.3, 1.0, 40, 3, (0.0, 0.1)),    # separable: few violations
        (3, 3.0, 1.0, 40, 4, (0.5, 1.0)),    # overlapping: most violate
        (3, 3.0, 0.25, 30, 5, (0.5, 1.0)),
        (3, 1.0, 8.0, 30, 6, (0.0, 1.0)),
        (3, 1.0, 1.0, 1, 7, (0.0, 1.0)),     # one epoch
        (40, 0.3, 1.0, 40, 8, (0.0, 0.1)),
        (40, 6.0, 0.01, 20, 12, (0.5, 1.0)),
        (40, 1.0, 1.0, 1, 11, (0.0, 1.0)),
    ])
    def test_sum_form_matches_per_step_loop(self, rng, dims, spread, c,
                                            epochs, seed, share):
        if dims == 3:
            centers, per_class = [(0, 0, 0), (2, 2, 0), (0, 2, 2)], 15
        else:
            centers, per_class = list(rng.normal(size=(3, dims))), 8
        ds = blob_dataset(rng, centers, per_class=per_class, spread=spread)
        x = ml.Scaler().fit(ds.matrix).transform(ds.matrix)
        y = ds.label_ids()
        expected, violated = _pegasos_loop(x, y, 3, c, epochs, seed)
        assert share[0] <= violated <= share[1]
        clf = ml.LinearSvmClassifier(c=c, epochs=epochs, seed=seed).fit(
            x, y, 3)
        np.testing.assert_allclose(clf.w, expected, rtol=1e-9,
                                   atol=1e-9 * np.abs(expected).max())
        probes = np.vstack([x, rng.normal(size=(40, dims)) * 2.0])
        aug = np.hstack([probes, np.ones((len(probes), 1))])
        np.testing.assert_array_equal(clf.predict(probes),
                                      (aug @ expected.T).argmax(axis=1))


def _pegasos_sum_steps(x, y, n_classes, c, epochs, seed):
    """LinearSvmClassifier.fit as one Python step per sample, in both of
    its forms: the margins aug @ u kept for n <= d + 1 rows, u otherwise.
    The byte oracle of the skip-ahead scan."""
    n = x.shape[0]
    aug = np.hstack([x, np.ones((n, 1))])
    lam = 1.0 / (c * n)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    keep_margins = n <= aug.shape[1]
    rows = list(aug @ aug.T if keep_margins else aug)
    coef = np.zeros((n_classes, n))
    for k in range(n_classes):
        signs = np.where(y == k, 1.0, -1.0).tolist()
        kept = np.zeros(rows[0].size)
        t = 0
        for _ in range(epochs):
            for i in rng.permutation(n).tolist():
                margin = kept.item(i) if keep_margins else rows[i].dot(kept)
                if t == 0 or signs[i] * margin < lam * t:
                    coef[k, i] += signs[i]
                    if signs[i] > 0:
                        kept += rows[i]
                    else:
                        kept -= rows[i]
                t += 1
    return (coef @ aug) / (lam * epochs * n)


@pytest.fixture
def scan_hits(monkeypatch):
    """The violations found by every ml._pegasos_scan call, one entry per
    scan window."""
    hits = []
    scan = ml._pegasos_scan

    def counted(*args):
        hits.append(scan(*args))
        return hits[-1]

    monkeypatch.setattr(ml, "_pegasos_scan", counted)
    return hits


class TestPegasosScan:
    # (case, rows, dims, epochs, c, regime): "sparse" fits take scan-phase
    # violations, "dense" fits step through every epoch, "u" fits keep u
    # (n > d + 1) and never scan, "any" fits are not pinned to a regime
    @pytest.mark.parametrize("case, n, dims, epochs, c, regime", [
        ("n=d", 24, 24, 60, 1.0, "sparse"),
        ("n=d+1", 25, 24, 60, 1.0, "sparse"),
        ("n=d+2", 26, 24, 60, 1.0, "u"),
        ("epochs=1", 24, 30, 1, 1.0, "dense"),
        ("epochs=2", 24, 30, 2, 1.0, "any"),
        ("epochs=3", 24, 30, 3, 1.0, "any"),
        ("epochs=60", 24, 30, 60, 1.0, "sparse"),
        ("small-c", 24, 30, 60, 1e-4, "dense"),
        ("mixed-c", 24, 30, 60, 0.1, "sparse"),
        ("one-member-class", 24, 30, 60, 1.0, "sparse"),
        ("duplicate-rows", 24, 30, 60, 1.0, "sparse"),
        ("zero-row", 24, 30, 60, 1.0, "sparse"),
        ("one-class", 24, 30, 60, 1.0, "sparse"),
        ("one-epoch-windows", 24, 30, 60, 1.0, "sparse"),
        ("exact-ties", 24, 30, 60, 32 / 24, "sparse"),
    ])
    def test_fit_matches_step_loop_bytes(self, rng, monkeypatch, scan_hits,
                                         case, n, dims, epochs, c, regime):
        centers = rng.normal(size=(3, dims))
        y = np.arange(n) % 3
        x = centers[y] + rng.normal(scale=0.5, size=(n, dims))
        n_classes = 3
        if case == "one-member-class":
            y = np.where(np.arange(n) == 5, 3, y)
            n_classes = 4
        elif case == "duplicate-rows":
            x[n // 2:] = x[:n - n // 2]
        elif case == "zero-row":
            x[7] = 0.0
        elif case == "one-class":
            y[:] = 0
            n_classes = 2
        elif case == "one-epoch-windows":
            monkeypatch.setattr(ml, "SVM_SCAN_STEPS", 1)
        elif case == "exact-ties":
            # integer margins against thresholds lam t = t / 32: some
            # tests compare equal, where only a strict < keeps the bytes
            x = rng.integers(-1, 2, size=(n, dims)).astype(float)
        expected = _pegasos_sum_steps(x, y, n_classes, c, epochs, seed=7)
        clf = ml.LinearSvmClassifier(c=c, epochs=epochs, seed=7).fit(
            x, y, n_classes)
        assert clf.w.tobytes() == expected.tobytes()
        if regime == "sparse":
            assert sum(scan_hits) > 0
        elif regime in ("dense", "u"):
            assert scan_hits == []

    def test_long_fit_allocates_one_window(self, rng):
        # at c = 100 hardly a step violates after epoch 2, so the scan
        # window grows to its cap of 16 epochs of 256 rows within 60
        # epochs; a window that kept growing would hold several MiB by
        # epoch 6000, and epochs x n values would be 12 MiB of indices
        x = rng.normal(size=(256, 300))
        y = np.arange(256) % 2

        def peak(epochs):
            tracemalloc.start()
            try:
                ml.LinearSvmClassifier(c=100.0, epochs=epochs, seed=3).fit(
                    x, y, 2)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(6000) <= peak(60) + 64 * 2**10


def _pipeline_predict(ds, rng):
    scaler = ml.Scaler().fit(ds.matrix)
    x = scaler.transform(ds.matrix)
    clf = ml.LinearSvmClassifier(seed=1, epochs=60).fit(x, ds.label_ids(), 2)
    return clf.predict(x)


class TestStratifiedKfold:
    def test_balanced_case_exact(self):
        labels = [f"c{i}" for i in range(10) for _ in range(10)]
        folds = ml.stratified_kfold(labels, k=10, repeats=3, seed=5)
        labels = np.array(labels)
        for assignment in folds:
            for c in range(10):
                counts = np.bincount(assignment[labels == f"c{c}"],
                                     minlength=10)
                assert np.all(counts == 1)

    def test_partition(self):
        labels = ["a"] * 25 + ["b"] * 17
        folds = ml.stratified_kfold(labels, k=5, repeats=2, seed=1)
        for assignment in folds:
            assert assignment.shape == (42,)
            assert set(np.unique(assignment)) == set(range(5))

    def test_deviation_at_most_one(self, rng):
        labels = list(rng.choice(["a", "b", "c"], size=83,
                                 p=[0.5, 0.3, 0.2]))
        folds = ml.stratified_kfold(labels, k=5, repeats=4, seed=2)
        arr = np.array(labels)
        for assignment in folds:
            for c in set(labels):
                counts = np.bincount(assignment[arr == c], minlength=5)
                assert counts.max() - counts.min() <= 1

    def test_same_seed_identical(self):
        labels = ["a"] * 30 + ["b"] * 30
        a = ml.stratified_kfold(labels, k=10, repeats=2, seed=77)
        b = ml.stratified_kfold(labels, k=10, repeats=2, seed=77)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_small_class_reduces_k(self):
        labels = ["a"] * 20 + ["b"] * 3
        with pytest.warns(UserWarning, match="reducing folds"):
            folds = ml.stratified_kfold(labels, k=10, repeats=1, seed=0)
        assert set(np.unique(folds[0])) == {0, 1, 2}


class TestCrossValidate:
    def test_majority_dummy_is_chance_level(self, rng):
        ds = blob_dataset(rng, [(i, i) for i in range(8)], per_class=20,
                          spread=10.0)
        folds = ml.stratified_kfold(ds.labels, k=10, repeats=2, seed=3)
        result = ml.cross_validate(ds, "majority", folds)
        assert result.mean_accuracy == pytest.approx(0.125, abs=0.01)

    def test_perfect_classifier_on_leaked_label(self, rng):
        labels = [f"c{i}" for i in range(4) for _ in range(20)]
        leak = np.array([float(lb[1]) for lb in labels])[:, None]
        ds = LabeledDataset(leak, labels, ["leak"])
        folds = ml.stratified_kfold(labels, k=5, repeats=2, seed=4)
        result = ml.cross_validate(ds, ("knn", {"k": 1}), folds)
        assert result.mean_accuracy == 1.0

    def test_self_test_accuracy_is_one(self, rng):
        ds = blob_dataset(rng, [(0, 0), (3, 3)], per_class=10)
        clf = ml.KnnClassifier(k=1).fit(ds.matrix, ds.label_ids(), 2)
        assert (clf.predict(ds.matrix) == ds.label_ids()).mean() == 1.0

    def test_confusion_row_sums(self, rng):
        ds = blob_dataset(rng, [(0, 0), (5, 5), (9, 0)], per_class=12)
        folds = ml.stratified_kfold(ds.labels, k=4, repeats=1, seed=6)
        result = ml.cross_validate(ds, ("knn", {"k": 1}), folds)
        np.testing.assert_array_equal(result.confusion.sum(axis=1),
                                      [12, 12, 12])

    def test_paper_normalization_mode_runs(self, rng):
        ds = blob_dataset(rng, [(0, 0), (6, 6)], per_class=10)
        folds = ml.stratified_kfold(ds.labels, k=2, repeats=1, seed=0)
        result = ml.cross_validate(ds, ("knn", {"k": 1}), folds,
                                   paper_normalization=True)
        assert 0.0 <= result.mean_accuracy <= 1.0


class TestPipelineAffineInvariance:
    @pytest.mark.parametrize("spec", [("knn", {"k": 1}), ("nb", {}),
                                      ("svm", {"seed": 2, "epochs": 40})])
    def test_predictions_survive_per_dim_affine_maps(self, rng, spec):
        # scaler fitting absorbs any strictly increasing affine map applied
        # consistently to train and test
        ds = blob_dataset(rng, [(0, 0, 1), (4, 4, -1), (0, 5, 0)],
                          per_class=15)
        probes = rng.normal(1.5, 2.0, size=(20, 3))
        scale = np.array([3.0, 0.25, 11.0])
        shift = np.array([-7.0, 2.0, 0.5])

        def predict(matrix, test):
            scaler = ml.Scaler().fit(matrix)
            clf = ml.make_classifier(spec)
            clf.fit(scaler.transform(matrix), ds.label_ids(), 3)
            return clf.predict(scaler.transform(test))

        base = predict(ds.matrix, probes)
        moved = predict(ds.matrix * scale + shift, probes * scale + shift)
        np.testing.assert_array_equal(base, moved)


class TestEarlyFuse:
    def test_column_counts_add(self, rng):
        a = LabeledDataset(rng.normal(size=(6, 168)), ["x"] * 3 + ["y"] * 3,
                           [f"a{i}" for i in range(168)])
        b = LabeledDataset(rng.normal(size=(6, 2000)), ["x"] * 3 + ["y"] * 3,
                           [f"b{i}" for i in range(2000)])
        fused = ml.early_fuse([("audio", a), ("visual", b)])
        assert fused.matrix.shape == (6, 2168)
        assert fused.schema[0] == "audio.a0"
        assert fused.schema[-1] == "visual.b1999"

    def test_empty_part_is_identity(self, rng):
        a = LabeledDataset(rng.normal(size=(4, 3)), ["x", "x", "y", "y"],
                           ["f0", "f1", "f2"])
        empty = LabeledDataset(np.zeros((4, 0)), ["x", "x", "y", "y"], [])
        fused = ml.early_fuse([("a", a), ("none", empty)])
        np.testing.assert_array_equal(fused.matrix, a.matrix)

    def test_label_mismatch_raises(self, rng):
        a = LabeledDataset(np.zeros((2, 1)), ["x", "y"], ["f"])
        b = LabeledDataset(np.zeros((2, 1)), ["y", "x"], ["g"])
        with pytest.raises(InputError, match=r"part 'b' labels disagree with "
                           r"part 'a' \(data row 1 is 'y', expected 'x'\)"):
            ml.early_fuse([("a", a), ("b", b)])


class TestBagging:
    def test_member_count_and_confidence_range(self, rng):
        ds = blob_dataset(rng, [(0, 0), (6, 6)], per_class=30)
        members = ml.bagging_train(ds, ("knn", {"k": 1}), n=10, seed=5)
        assert len(members) == 10
        assert all(0.0 <= m.confidence <= 1.0 for m in members)

    def test_separable_data_confidence_one(self, rng):
        ds = blob_dataset(rng, [(0, 0), (50, 50)], per_class=30, spread=0.1)
        members = ml.bagging_train(ds, ("knn", {"k": 1}), n=10, seed=5)
        assert all(m.confidence == 1.0 for m in members)

    def test_same_seed_reproduces(self, rng):
        ds = blob_dataset(rng, [(0, 0), (4, 4)], per_class=25)
        a = ml.bagging_train(ds, ("knn", {"k": 1}), n=6, seed=11)
        b = ml.bagging_train(ds, ("knn", {"k": 1}), n=6, seed=11)
        assert [m.confidence for m in a] == [m.confidence for m in b]


class _ColumnClassifier:
    def __init__(self, column):
        self.column = column

    def predict(self, x):
        return x[:, self.column].astype(np.int64)


def _vote_oracle(votes, n_classes):
    """Weights summed per label in vote order; ties to the lowest id."""
    sums = [0.0] * n_classes
    for label, weight in votes:
        sums[label] += weight
    best = max(sums)
    return min(c for c in range(n_classes) if sums[c] == best)


class TestEnsemblePredict:
    def test_unanimous(self):
        members = [[fixed_member(0, 0.5), fixed_member(0, 0.1)]]
        assert ml.ensemble_predict(members, [np.zeros((1, 1))],
                                   2).tolist() == [0]

    def test_single_strong_vote_beats_two_weak(self):
        # sums: A = 0.9, B = 0.8 -> A wins
        modalities = [[fixed_member(0, 0.9)],
                      [fixed_member(1, 0.4), fixed_member(1, 0.4)]]
        assert ml.ensemble_predict(modalities, [np.zeros((1, 1))] * 2,
                                   2).tolist() == [0]

    def test_matches_exhaustive_enumeration(self):
        # all label assignments for up to 3 members x 3 classes against a
        # brute-force weighted-sum oracle
        weights = [0.3, 0.55, 0.8]
        for n_members in (1, 2, 3):
            for labels in itertools.product(range(3), repeat=n_members):
                votes = list(zip(labels, weights[:n_members]))
                assert vote_one_row(votes, 3) == _vote_oracle(votes, 3)

    def test_batched_vote_matches_per_row_oracle(self, rng):
        # each member reads its label from one column, so every row gets its
        # own votes; weights with equal partial sums make ties common
        labels = rng.integers(0, 3, size=(60, 4))
        weights = [0.5, 0.25, 0.25, 0.5]
        members = [ml.EnsembleMember(classifier=_ColumnClassifier(j),
                                     scaler=None, confidence=weights[j])
                   for j in range(4)]
        modalities = [members[:2], members[2:]]
        matrices = [labels.astype(float), labels.astype(float)]
        got = ml.ensemble_predict(modalities, matrices, 3)
        expected = [_vote_oracle(zip(row, weights), 3) for row in labels]
        assert got.tolist() == expected

    def test_tie_breaks_to_lowest_class_id(self):
        assert vote_one_row([(2, 0.5), (1, 0.5)], 3) == 1
