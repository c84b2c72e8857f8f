import itertools

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


class TestScaler:
    def test_constant_dim_maps_to_zero(self):
        m = np.array([[5.0, 1.0], [5.0, 3.0]])
        out = ml.fit_scaler(m).transform(m)
        np.testing.assert_allclose(out[:, 0], 0.0)

    def test_already_standardized(self):
        m = np.array([[-1.0], [1.0]])
        np.testing.assert_allclose(ml.fit_scaler(m).transform(m), m)

    def test_fit_stats(self, rng):
        m = rng.normal(3.0, 2.5, size=(200, 4))
        out = ml.fit_scaler(m).transform(m)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-9)


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
        # leave partial tiles (remainders 20 and 9, 4 and 6, 2 and 0)
        train = rng.normal(size=(30, 200))
        y = rng.integers(0, 3, size=30)
        probes = rng.normal(size=(20, 200))
        diff = probes[:, None, :] - train[None, :, :]
        if metric == "l1":
            expected = np.abs(diff).sum(axis=2)
        else:
            expected = np.sqrt((diff ** 2).sum(axis=2))
        clf = ml.KnnClassifier(k=3, metric=metric).fit(train, y, 3)
        np.testing.assert_array_equal(clf._distances(probes), expected)
        whole = clf.predict(probes)
        for tile in (8, 3):
            monkeypatch.setattr(ml, "KNN_TILE_BYTES", tile * tile * 200 * 8)
            np.testing.assert_array_equal(clf._distances(probes), expected)
            np.testing.assert_array_equal(clf.predict(probes), whole)


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
        x = ml.fit_scaler(ds.matrix).transform(ds.matrix)
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
        x = ml.fit_scaler(ds.matrix).transform(ds.matrix)
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


def _pipeline_predict(ds, rng):
    scaler = ml.fit_scaler(ds.matrix)
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
            scaler = ml.fit_scaler(matrix)
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
        members = [ml.EnsembleMember(tag="t", classifier=_ColumnClassifier(j),
                                     scaler=None, confidence=weights[j])
                   for j in range(4)]
        modalities = [members[:2], members[2:]]
        matrices = [labels.astype(float), labels.astype(float)]
        got = ml.ensemble_predict(modalities, matrices, 3)
        expected = [_vote_oracle(zip(row, weights), 3) for row in labels]
        assert got.tolist() == expected

    def test_tie_breaks_to_lowest_class_id(self):
        assert vote_one_row([(2, 0.5), (1, 0.5)], 3) == 1
