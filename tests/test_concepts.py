import numpy as np
import pytest

from avmir import concepts
from avmir.concepts import ConceptScoreSequence


def random_sequence(rng, frames=20, vocab=10):
    rows = rng.random((frames, vocab))
    rows /= rows.sum(axis=1, keepdims=True)
    names = [f"concept_{i}" for i in range(vocab)]
    return ConceptScoreSequence(names, rows)


class TestConceptSequence:
    def test_rejects_unnormalized_rows(self):
        with pytest.raises(ValueError, match="sums to"):
            ConceptScoreSequence(["a", "b"], np.array([[0.7, 0.7]]))

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            ConceptScoreSequence(["a", "b", "c"], np.array([[0.5, 0.5]]))


class TestAggregateConcepts:
    def test_preset_lengths(self, rng):
        seq = random_sequence(rng, vocab=1000)
        assert concepts.aggregate_concepts(seq, "mean").shape == (1000,)
        assert concepts.aggregate_concepts(seq, "max+mean").shape == (2000,)
        assert concepts.aggregate_concepts(seq, "max+std").shape == (2000,)

    def test_single_frame_max_equals_mean(self, rng):
        seq = random_sequence(rng, frames=1)
        out = concepts.aggregate_concepts(seq, "max+mean")
        v = len(seq.vocabulary)
        np.testing.assert_allclose(out[:v], out[v:])
        np.testing.assert_allclose(out[:v], seq.rows[0])

    def test_matches_brute_force(self, rng):
        seq = random_sequence(rng)
        out = concepts.aggregate_concepts(seq, ("min", "max", "mean",
                                                "median", "std", "variance",
                                                "kurtosis", "skewness"))
        v = len(seq.vocabulary)
        for c in range(v):
            col = [float(x) for x in seq.rows[:, c]]
            n = len(col)
            mean = sum(col) / n
            var = sum((x - mean) ** 2 for x in col) / n
            sd = var ** 0.5
            ordered = sorted(col)
            median = (ordered[n // 2] if n % 2
                      else (ordered[n // 2 - 1] + ordered[n // 2]) / 2)
            kurt = sum((x - mean) ** 4 for x in col) / n / sd ** 4
            skew = sum((x - mean) ** 3 for x in col) / n / sd ** 3
            expected = [min(col), max(col), mean, median, sd, var, kurt, skew]
            got = [out[j * v + c] for j in range(8)]
            np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_mean_of_stochastic_rows_sums_to_one(self, rng):
        seq = random_sequence(rng)
        assert concepts.aggregate_concepts(seq, "mean").sum() == \
            pytest.approx(1.0, abs=1e-6)

    def test_unknown_preset_raises(self, rng):
        with pytest.raises(ValueError):
            concepts.aggregate_concepts(random_sequence(rng), "bogus")


class TestSalientConcepts:
    def test_two_class_difference(self):
        ranked = concepts.salient_concepts({
            "x": (["a"], [0.9]),
            "y": (["a"], [0.1]),
        })
        assert ranked["x"][0] == ("a", pytest.approx(0.8))
        assert ranked["y"][0] == ("a", pytest.approx(-0.8))

    def test_identical_frequency_scores_zero(self):
        ranked = concepts.salient_concepts({
            "x": (["a", "b"], [0.5, 0.5]),
            "y": (["a", "b"], [0.5, 0.1]),
        })
        assert dict(ranked["x"])["a"] == pytest.approx(0.0)

    def test_three_class_minimum(self):
        ranked = concepts.salient_concepts({
            "x": (["a"], [0.5]),
            "y": (["a"], [0.2]),
            "z": (["a"], [0.4]),
        })
        assert dict(ranked["x"])["a"] == pytest.approx(0.1)

    def test_positive_score_iff_strict_domination(self, rng):
        vocab = [f"c{i}" for i in range(6)]
        freq = {lb: (vocab, rng.random(6)) for lb in ("x", "y", "z")}
        ranked = concepts.salient_concepts(freq)
        arr = {lb: np.asarray(f) for lb, (_, f) in freq.items()}
        for lb, rows in ranked.items():
            for name, score in rows:
                i = vocab.index(name)
                others = [arr[o][i] for o in arr if o != lb]
                dominates = all(arr[lb][i] > v for v in others)
                assert (score > 0) == dominates

    def test_exclusions_dropped(self):
        ranked = concepts.salient_concepts({
            "x": (["a", "b"], [0.9, 0.1]),
            "y": (["a", "b"], [0.1, 0.9]),
        }, exclusions={"a"})
        assert [name for name, _ in ranked["x"]] == ["b"]

    def test_vocabulary_mismatch_raises(self):
        with pytest.raises(ValueError, match="mismatch"):
            concepts.salient_concepts({
                "x": (["a"], [1.0]),
                "y": (["b"], [1.0]),
            })

    def test_single_class_raises(self):
        with pytest.raises(ValueError):
            concepts.salient_concepts({"x": (["a"], [1.0])})


class TestLbp:
    def test_constant_raster_codes_are_255(self):
        desc = concepts.lbp_descriptor(np.full((32, 32), 7, np.uint8))
        assert desc.shape == (16384,)
        cells = desc.reshape(64, 256)
        np.testing.assert_allclose(cells[:, 255], 1.0)
        np.testing.assert_allclose(cells[:, :255], 0.0)

    def test_cell_histograms_normalized(self, rng):
        face = rng.integers(0, 256, size=(40, 56), dtype=np.uint8)
        cells = concepts.lbp_descriptor(face).reshape(64, 256)
        np.testing.assert_allclose(cells.sum(axis=1), 1.0, atol=1e-9)

    def test_deterministic(self, rng):
        face = rng.integers(0, 256, size=(24, 24), dtype=np.uint8)
        np.testing.assert_array_equal(concepts.lbp_descriptor(face),
                                      concepts.lbp_descriptor(face))

    def test_gray_shift_invariance(self, rng):
        face = rng.integers(0, 200, size=(24, 24)).astype(np.int32)
        shifted = face + 10
        np.testing.assert_array_equal(concepts.lbp_descriptor(face),
                                      concepts.lbp_descriptor(shifted))

    def test_monotone_map_invariance(self, rng):
        face = rng.integers(0, 256, size=(16, 16)).astype(np.int32)
        mapped = (face.astype(np.float64) ** 1.5 + 3).astype(np.int32)
        np.testing.assert_array_equal(concepts.lbp_descriptor(face),
                                      concepts.lbp_descriptor(mapped))

    def test_too_small_raises(self):
        with pytest.raises(ValueError):
            concepts.lbp_descriptor(np.zeros((4, 4), np.uint8))


class TestChiSquare:
    def test_identical_is_zero(self, rng):
        h = rng.random(64)
        assert concepts.chi_square(h, h) == 0.0

    def test_disjoint_point_masses(self):
        assert concepts.chi_square([1.0, 0.0], [0.0, 1.0]) == pytest.approx(2.0)

    def test_symmetric(self, rng):
        a, b = rng.random(32), rng.random(32)
        assert concepts.chi_square(a, b) == pytest.approx(
            concepts.chi_square(b, a))

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            concepts.chi_square([1.0], [0.5, 0.5])


class TestRecognizeFace:
    def _texture(self, rng, scale):
        base = rng.integers(0, 256, size=(32, 32))
        return (base // scale * scale).astype(np.uint8)

    def test_exact_match_wins(self, rng):
        faces = [self._texture(rng, s) for s in (1, 9, 33)]
        gallery = [(f"p{i}", concepts.lbp_descriptor(f))
                   for i, f in enumerate(faces)]
        for i, f in enumerate(faces):
            label, dist, conf = concepts.recognize_face(
                concepts.lbp_descriptor(f), gallery)
            assert label == f"p{i}"
            assert dist == 0.0
            assert conf == 1.0

    def test_noisy_probe_recovers_source(self, rng):
        a = rng.integers(0, 2, size=(64, 64)) * 255       # checker-ish noise
        b = np.tile([[0, 255] * 32], (64, 1))             # stripes
        gallery = [("a", concepts.lbp_descriptor(a.astype(np.uint8))),
                   ("b", concepts.lbp_descriptor(b.astype(np.uint8)))]
        noisy = np.clip(a + rng.integers(-20, 21, size=a.shape), 0, 255)
        label, _, conf = concepts.recognize_face(
            concepts.lbp_descriptor(noisy.astype(np.uint8)), gallery)
        assert label == "a"
        assert 0.0 < conf <= 1.0

    def test_single_entry_gallery(self, rng):
        desc = concepts.lbp_descriptor(self._texture(rng, 5))
        probe = concepts.lbp_descriptor(self._texture(rng, 50))
        label, _, _ = concepts.recognize_face(probe, [("only", desc)])
        assert label == "only"

    def test_empty_gallery_raises(self):
        with pytest.raises(ValueError):
            concepts.recognize_face(np.zeros(16384), [])


class TestArtistScore:
    def test_single_label_wins(self):
        board = concepts.artist_score([("A", 0.2), ("A", 0.4)])
        assert board.winner == "A"
        assert board.counts["A"] == 2

    def test_log_penalty_example(self):
        votes = [("A", 0.5)] * 10 + [("B", 0.9)]
        board = concepts.artist_score(votes)
        assert board.penalized["A"] == pytest.approx(0.5 / np.log(10))
        assert board.penalized["B"] == pytest.approx(0.9 / np.log(2))
        assert board.winner == "B"

    def test_equal_counts_higher_confidence_wins(self):
        votes = [("A", 0.3)] * 5 + [("B", 0.6)] * 5
        assert concepts.artist_score(votes).winner == "B"

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            concepts.artist_score([])


class TestIngestion:
    def test_roundtrip_csv_and_vocab(self, tmp_path, rng):
        vocab = ["guitar", "hat", "truck"]
        (tmp_path / "vocab.txt").write_text("guitar\nhat\ntruck\n")
        rows = rng.random((5, 3))
        rows /= rows.sum(axis=1, keepdims=True)
        lines = ["frame_index,p_0,p_1,p_2"]
        for i, row in enumerate(rows):
            lines.append(f"{i}," + ",".join(f"{v:.12f}" for v in row))
        (tmp_path / "scores.csv").write_text("\n".join(lines) + "\n")

        names = concepts.read_vocabulary(tmp_path / "vocab.txt")
        assert names == vocab
        seq = concepts.read_concept_scores(tmp_path / "scores.csv", names)
        np.testing.assert_allclose(seq.rows, rows, atol=1e-9)

    def test_gallery_loading(self, tmp_path, rng):
        from avmir.io import write_pgm

        for label in ("alice", "bob"):
            d = tmp_path / label
            d.mkdir()
            for i in range(2):
                write_pgm(d / f"{i}.pgm",
                          rng.integers(0, 256, size=(16, 16), dtype=np.uint8))
        gallery = concepts.load_face_gallery(tmp_path)
        assert [lb for lb, _ in gallery] == ["alice", "alice", "bob", "bob"]
        assert gallery[0][1].shape == (16384,)
