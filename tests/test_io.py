import gc
import json
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avmir import cli, concepts
from avmir import io as avio
from avmir.audio import AudioClip
from avmir.errors import ArffFormatError, InputError, WavFormatError
from avmir.ml import LabeledDataset


class TestWav:
    def test_mono_16bit_sample_count(self, tmp_path):
        path = tmp_path / "t.wav"
        avio.write_wav(path, AudioClip(np.zeros(44100), 44100))
        clip = avio.read_wav(path)
        assert clip.sample_rate == 44100
        assert clip.samples.size == 44100

    def test_full_scale_square_wave(self, tmp_path):
        path = tmp_path / "sq.wav"
        square = np.where(np.arange(1000) % 2 == 0, 1.0, -1.0)
        avio.write_wav(path, AudioClip(square, 22050))
        clip = avio.read_wav(path)
        assert clip.samples.max() == pytest.approx(32767 / 32768)
        assert clip.samples.min() == pytest.approx(-32767 / 32768)

    def test_stereo_downmix_cancellation(self, tmp_path):
        path = tmp_path / "st.wav"
        x = np.round(np.random.default_rng(0).uniform(-0.5, 0.5, 500) * 32767)
        pcm = np.empty(1000, dtype="<i2")
        pcm[0::2] = x.astype("<i2")
        pcm[1::2] = (-x).astype("<i2")
        raw = pcm.tobytes()
        import struct
        header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(raw),
                             b"WAVE", b"fmt ", 16, 1, 2, 8000, 32000, 4, 16,
                             b"data", len(raw))
        path.write_bytes(header + raw)
        clip = avio.read_wav(path)
        np.testing.assert_allclose(clip.samples, 0.0, atol=1e-9)

    def test_8bit_supported(self, tmp_path):
        import struct
        raw = bytes([0, 128, 255])
        header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(raw),
                             b"WAVE", b"fmt ", 16, 1, 1, 8000, 8000, 1, 8,
                             b"data", len(raw))
        (tmp_path / "u8.wav").write_bytes(header + raw)
        clip = avio.read_wav(tmp_path / "u8.wav")
        np.testing.assert_allclose(clip.samples, [-1.0, 0.0, 127 / 128])

    def test_non_pcm_rejected_with_offset(self, tmp_path):
        import struct
        header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36, b"WAVE",
                             b"fmt ", 16, 3, 1, 8000, 32000, 4, 32,
                             b"data", 0)
        (tmp_path / "f32.wav").write_bytes(header)
        with pytest.raises(WavFormatError) as err:
            avio.read_wav(tmp_path / "f32.wav")
        assert err.value.byte_offset == 12

    def test_truncated_data_rejected(self, tmp_path):
        path = tmp_path / "t.wav"
        avio.write_wav(path, AudioClip(np.zeros(100), 8000))
        blob = path.read_bytes()
        (tmp_path / "cut.wav").write_bytes(blob[:-10])
        with pytest.raises(WavFormatError):
            avio.read_wav(tmp_path / "cut.wav")


class TestFrameStreams:
    def test_raw_stream_roundtrip(self, tmp_path, rng):
        frames = [rng.integers(0, 256, size=(4, 6, 3), dtype=np.uint8)
                  for _ in range(3)]
        path = tmp_path / "clip.rgb"
        count = avio.write_raw_stream(path, frames, fps=30.0)
        assert count == 3
        stream = avio.read_frames(path)
        assert (stream.width, stream.height, stream.fps) == (6, 4, 30.0)
        got = list(stream)
        assert len(got) == 3
        for a, b in zip(frames, got):
            np.testing.assert_array_equal(a, b)

    def test_payload_not_divisible_errors_at_frame(self, tmp_path):
        path = tmp_path / "bad.rgb"
        preamble = json.dumps({"width": 2, "height": 2, "fps": 25}).encode()
        path.write_bytes(preamble + b"\n" + bytes(12 * 2 + 5))
        with pytest.raises(InputError, match="frame 2"):
            list(avio.read_frames(path))

    def test_streaming_reads_lazily(self, tmp_path):
        # consuming only the valid prefix of a truncated stream must succeed:
        # frames are decoded on demand, not up front
        path = tmp_path / "partial.rgb"
        preamble = json.dumps({"width": 2, "height": 2, "fps": 25}).encode()
        path.write_bytes(preamble + b"\n" + bytes(12) + b"\x01\x02")
        it = iter(avio.read_frames(path))
        first = next(it)
        assert first.shape == (2, 2, 3)
        with pytest.raises(InputError):
            next(it)

    def test_dropped_streams_leave_no_open_file(self, tmp_path):
        # a leaked handle's ResourceWarning fails the test under the suite's
        # warning filters
        path = tmp_path / "clip.rgb"
        avio.write_raw_stream(path, [np.zeros((2, 2, 3), np.uint8)] * 3)
        unread = avio.read_frames(path)
        del unread
        partly_read = iter(avio.read_frames(path))
        next(partly_read)
        del partly_read
        gc.collect()

    def test_ppm_dir_in_name_order(self, tmp_path, rng):
        a = rng.integers(0, 256, size=(3, 3, 3), dtype=np.uint8)
        b = rng.integers(0, 256, size=(3, 3, 3), dtype=np.uint8)
        avio.write_ppm(tmp_path / "001.ppm", b)
        avio.write_ppm(tmp_path / "000.ppm", a)
        stream = avio.read_frames(tmp_path)
        got = list(stream)
        assert len(got) == 2
        np.testing.assert_array_equal(got[0], a)
        np.testing.assert_array_equal(got[1], b)

    @pytest.mark.parametrize("preamble", [
        "[1, 2]",
        '{"width": -2, "height": 2}',
        '{"width": 2, "height": 0}',
        '{"width": 2, "height": 2, "fps": NaN}',
        '{"width": 2, "height": 2, "fps": Infinity}',
        '{"width": 2, "height": 2, "fps": 0}',
        '{"width": 2, "height": 2, "fps": -25}',
    ])
    def test_bad_preamble_names_file(self, tmp_path, preamble):
        path = tmp_path / "bad.rgb"
        path.write_bytes(preamble.encode() + b"\n" + bytes(12 * 3))
        with pytest.raises(InputError, match="preamble") as err:
            avio.read_frames(path)
        assert str(path) in str(err.value)

    def test_pgm_roundtrip(self, tmp_path, rng):
        img = rng.integers(0, 256, size=(9, 7), dtype=np.uint8)
        avio.write_pgm(tmp_path / "x.pgm", img)
        np.testing.assert_array_equal(avio.read_pgm(tmp_path / "x.pgm"), img)


class TestArff:
    def test_roundtrip(self, tmp_path, rng):
        ds = LabeledDataset(rng.uniform(-1.0, 1.0, size=(6, 4)),
                            ["rock", "pop", "rock", "pop", "jazz", "jazz"],
                            ["a", "b c", "d,e", "f"])
        path = tmp_path / "t.arff"
        avio.write_arff(ds, "features", path)
        back = avio.read_arff(path)
        np.testing.assert_allclose(back.matrix, ds.matrix, atol=1e-9)
        assert back.labels == ds.labels
        assert len(back.schema) == 4

    def test_attribute_count(self, tmp_path, rng):
        ds = LabeledDataset(rng.normal(size=(2, 3)), ["x", "y"],
                            ["f0", "f1", "f2"])
        avio.write_arff(ds, "rel", tmp_path / "t.arff")
        text = (tmp_path / "t.arff").read_text()
        assert text.count("@ATTRIBUTE") == 4  # 3 numeric + class

    def test_class_values_in_first_seen_order(self, tmp_path):
        ds = LabeledDataset(np.zeros((3, 1)), ["zeta", "alpha", "zeta"], ["f"])
        avio.write_arff(ds, "rel", tmp_path / "t.arff")
        text = (tmp_path / "t.arff").read_text()
        assert "@ATTRIBUTE class {zeta,alpha}" in text

    def test_malformed_header_has_line_number(self, tmp_path):
        (tmp_path / "bad.arff").write_text(
            "@RELATION x\n@ATTRIBUTE f NUMERIC\nbogus line\n@DATA\n")
        with pytest.raises(ArffFormatError) as err:
            avio.read_arff(tmp_path / "bad.arff")
        assert err.value.line_number == 3

    def test_wrong_column_count_flagged(self, tmp_path):
        (tmp_path / "bad.arff").write_text(
            "@RELATION x\n@ATTRIBUTE f NUMERIC\n@ATTRIBUTE class {a}\n"
            "@DATA\n1.0,2.0,a\n")
        with pytest.raises(ArffFormatError) as err:
            avio.read_arff(tmp_path / "bad.arff")
        assert err.value.line_number == 5


def reference_data_rows(data_lines, first_line, n_features, class_values):
    """Reference parser for ARFF data rows: each cell is stripped and read
    with float(), and the checks run in read_arff's order (value count,
    numeric, finite, class).  Returns (matrix, labels) or the first fault
    as (reason, line number)."""
    rows, labels = [], []
    for ln, raw in enumerate(data_lines, start=first_line):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != n_features + 1:
            return f"expected {n_features + 1} values, got {len(cells)}", ln
        try:
            rows.append([float(c) for c in cells[:-1]])
        except ValueError:
            return "non-numeric feature value", ln
        if not np.all(np.isfinite(rows[-1])):
            return "non-finite feature value", ln
        if cells[-1] not in class_values:
            return f"undeclared class value {cells[-1]!r}", ln
        labels.append(cells[-1])
    return np.array(rows, dtype=np.float64).reshape(len(rows), n_features), \
        labels


def assert_arff_parity(path, n_features, data_lines):
    """read_arff and reference_data_rows agree bit for bit on a file with
    n_features numeric attributes, classes a and b, and these data lines."""
    header = (["@RELATION r"]
              + [f"@ATTRIBUTE f{i} NUMERIC" for i in range(n_features)]
              + ["@ATTRIBUTE class {a,b}", "@DATA"])
    path.write_bytes("\n".join(header + data_lines + [""]).encode("utf-8"))
    expected = reference_data_rows(data_lines, len(header) + 1, n_features,
                                   ["a", "b"])
    if isinstance(expected[0], str):
        with pytest.raises(ArffFormatError) as err:
            avio.read_arff(path)
        assert (err.value.reason, err.value.line_number) == expected
        assert str(err.value) == f"{path}: {expected[0]} (line {expected[1]})"
    else:
        back = avio.read_arff(path)
        assert back.matrix.shape == expected[0].shape
        assert back.matrix.tobytes() == expected[0].tobytes()
        assert back.labels == expected[1]


# spellings float() reads, and a few it rejects
ARFF_SPELLINGS = ["1_0", "+.5e-3", "1.", ".5", "-0", "-0.0", "1E+2", "5e-324",
                  "1e999", "-1e999", "nan", "-NaN", "inf", "-Infinity", "١",
                  "٣.٥", "١_٢", "0x10", "1__0", "_1", "", "1e", "--1", "1 2"]
ARFF_SPACES = ["", " ", "\t", "\x0b", "\x0c", "\xa0", "\u2003", "\x1c", "\x1f"]
ARABIC_DIGITS = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")

arff_cell = st.tuples(
    st.sampled_from(ARFF_SPACES),
    st.one_of(st.floats().map(repr),
              st.floats(width=32).map(lambda v: f"{v:.9g}"),
              st.floats(allow_nan=False).map(
                  lambda v: repr(v).translate(ARABIC_DIGITS)),
              st.sampled_from(ARFF_SPELLINGS)),
    st.sampled_from(ARFF_SPACES)).map("".join)
arff_label = st.sampled_from(["a", "b", " b\t", "a\xa0", "\x1ca", "z", "A"])


@st.composite
def arff_data(draw):
    n_features = draw(st.integers(0, 4))
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["row"] * 6 + ["short", "long", "blank"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "% note", " \x1c "])))
            continue
        count = n_features + {"row": 0, "short": -1, "long": 1}[kind]
        cells = [draw(arff_cell) for _ in range(max(count, 0))]
        lines.append(",".join(cells + [draw(arff_label)]))
    return n_features, lines


class TestArffParity:
    @pytest.mark.parametrize("n_features, lines", [
        (3, [" 1.5 ,\t-2\xa0, 3e0 , a ", "\x1c4\x1c,5,6,b"]),
        (2, ["1_0,+.5e-3,a", "١,٣.٥,b", "5e-324,-0,a"]),
        (1, ["nan,a"]),
        (1, ["1e999,a"]),
        (2, ["1,2,a", "1,2,3,a"]),
        (1, ["1,z"]),
        (0, ["a", " b ", "%", ""]),
        (0, ["1,a"]),
        (2, ["1,2,a", "x,2,a", "1,2,3,4,b"]),
        (2, ["1,2,3,4,b", "1,2,a", "x,2,a"]),
    ], ids=["whitespace", "exotic-spellings", "nan", "overflow-to-inf",
            "wrong-count", "undeclared-label", "zero-features",
            "zero-features-wrong-count", "two-faults-numeric-first",
            "two-faults-count-first"])
    def test_matches_reference(self, tmp_path, n_features, lines):
        assert_arff_parity(tmp_path / "t.arff", n_features, lines)

    @settings(max_examples=150, deadline=None)
    @given(data=arff_data())
    def test_generated_files_match_reference(self, tmp_path_factory, data):
        assert_arff_parity(tmp_path_factory.mktemp("arff") / "t.arff", *data)

    def test_zero_feature_roundtrip(self, tmp_path):
        ds = LabeledDataset(np.zeros((3, 0)), ["x", "y", "x"], [])
        avio.write_arff(ds, "rel", tmp_path / "t.arff")
        back = avio.read_arff(tmp_path / "t.arff")
        assert back.matrix.shape == (3, 0)
        assert back.labels == ["x", "y", "x"]


def build_manifest(tmp_path, per_class=6, classes=("rock", "pop"),
                   artists_per_class=3):
    entries = []
    for label in classes:
        for i in range(per_class):
            tid = f"{label}_{i}"
            entries.append({
                "track_id": tid,
                "label": label,
                "artist": f"{label}_artist_{i % artists_per_class}",
                "album": f"{label}_album_{i // 2}",
            })
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"entries": entries}))
    return path


class TestManifest:
    def test_load_and_validate(self, tmp_path):
        path = build_manifest(tmp_path)
        manifest = avio.load_manifest(path)
        assert len(manifest) == 12

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"entries": [
            {"track_id": "a", "label": "x"},
            {"track_id": "a", "label": "y"},
        ]}))
        with pytest.raises(InputError, match="duplicate"):
            avio.load_manifest(path)

    def test_missing_path_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"entries": [
            {"track_id": "a", "label": "x", "audio": "nope.wav"},
        ]}))
        with pytest.raises(InputError, match="missing"):
            avio.load_manifest(path)


    @pytest.mark.parametrize("payload, message", [
        ({"entries": 5}, "'entries' must be a list"),
        ({"entries": "a"}, "'entries' must be a list"),
        ({"entries": {"track_id": "a"}}, "'entries' must be a list"),
        ({"entries": [1, 2]}, "entry 0 is not an object"),
        ({"entries": [{"track_id": "a", "label": "x"}, ["b"]]},
         "entry 1 is not an object"),
        ({"entries": [{"track_id": "a", "label": "x", "audio": 1}]},
         "entry 0: audio must be a string"),
    ])
    def test_malformed_shape_names_file_and_entry(self, tmp_path, payload,
                                                 message):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(InputError, match=message) as err:
            avio.load_manifest(path)
        assert str(path) in str(err.value)


def wav_blob(sample_rate=8000, raw=bytes(4)):
    """Mono 16-bit PCM WAV bytes; the fmt chunk starts at byte 12."""
    return struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(raw), b"WAVE",
                       b"fmt ", 16, 1, 1, sample_rate, 2 * sample_rate, 2, 16,
                       b"data", len(raw)) + raw


def _arff_export(path):
    args = cli.build_parser().parse_args(
        ["arff-export", "--csv", str(path), "--out", str(path) + ".arff"])
    return args.func(args)


ARFF_HEAD = b"@RELATION x\n@ATTRIBUTE f NUMERIC\n@ATTRIBUTE class {a}\n@DATA\n"


@pytest.mark.parametrize("name, blob, reader, error, location", [
    ("quote.arff", b"@RELATION x\n@ATTRIBUTE 'f0 NUMERIC\n@DATA\n",
     avio.read_arff, ArffFormatError, "(line 2)"),
    ("short.ppm", b"P6\n4 4\n", avio.read_ppm, InputError, "short.ppm"),
    ("short.pgm", b"P5\n4 # comment to the end", avio.read_pgm, InputError,
     "short.pgm"),
    ("zero.ppm", b"P6\n0 4\n255\n", avio.read_ppm, InputError,
     "zero.ppm: P6 width"),
    ("flat.ppm", b"P6\n4 0\n255\n", avio.read_ppm, InputError,
     "flat.ppm: P6 height"),
    ("negative.pgm", b"P5\n-4 4\n255\n" + bytes(16), avio.read_pgm,
     InputError, "negative.pgm: P5 width"),
    ("scores.csv", b"frame_index,a,b\n0,0.5,0.5\n1,0.5,high\n",
     lambda p: concepts.read_concept_scores(p, ["a", "b"]), InputError,
     "scores.csv:3"),
    ("zero-rate.wav", wav_blob(sample_rate=0), avio.read_wav, WavFormatError,
     "zero-rate.wav: sample rate 0 (byte offset 12)"),
    ("text.wav", b"not a wav at all", avio.read_wav, WavFormatError,
     "text.wav: not a RIFF/WAVE file (byte offset 0)"),
    ("odd.wav", wav_blob(raw=bytes(3)), avio.read_wav, WavFormatError,
     "odd.wav: data size is not a whole number of frames (byte offset 46)"),
    ("class.arff", ARFF_HEAD + b"1.0,r\n", avio.read_arff, ArffFormatError,
     "class.arff: undeclared class value 'r' (line 5)"),
    ("nodata.arff", b"@RELATION x\n", avio.read_arff, ArffFormatError,
     "nodata.arff: no @DATA section (line 0)"),
    ("inf.arff", ARFF_HEAD + b"1e999,a\n", avio.read_arff, ArffFormatError,
     "inf.arff: non-finite feature value (line 5)"),
    ("sums.csv", b"0,0.5,0.7\n",
     lambda p: concepts.read_concept_scores(p, ["a", "b"]), InputError,
     "sums.csv: row 0 sums to 1.200000"),
    ("nan.csv", b"0,nan,1.0\n",
     lambda p: concepts.read_concept_scores(p, ["a", "b"]), InputError,
     "nan.csv: concept scores must lie in [0, 1]"),
    ("table.csv", b"class,f\na,1.0\nb,nan\n", _arff_export, InputError,
     "table.csv:3: non-finite feature value"),
], ids=["arff-quoted-name", "ppm-header", "pgm-header", "ppm-zero-width",
        "ppm-zero-height", "pgm-negative-width", "concept-score",
        "wav-zero-rate", "wav-file-named", "wav-odd-data-file-named",
        "arff-file-named", "arff-no-data-file-named", "arff-non-finite",
        "concept-row-sum", "concept-nan", "arff-export-non-finite"])
def test_parse_errors_are_located(tmp_path, name, blob, reader, error,
                                  location):
    path = tmp_path / name
    path.write_bytes(blob)
    with pytest.raises(error) as err:
        reader(path)
    assert location in str(err.value)


def test_format_errors_keep_their_location_when_pickled(tmp_path):
    # --jobs worker processes send a reader's error back to the parent
    for error in (WavFormatError(tmp_path / "a.wav", "bad", 12),
                  ArffFormatError(tmp_path / "a.arff", "bad", 3)):
        back = pickle.loads(pickle.dumps(error))
        assert type(back) is type(error)
        assert str(back) == str(error)
        assert back.__dict__ == error.__dict__


@pytest.mark.parametrize("reader", [
    avio.read_arff,
    avio.load_manifest,
    lambda p: concepts.read_concept_scores(p, ["a", "b"]),
    concepts.read_vocabulary,
    avio.read_id_list,
    _arff_export,
], ids=["arff", "manifest", "concept-scores", "vocabulary", "id-list",
        "arff-export-csv"])
def test_invalid_utf8_names_file_and_byte(tmp_path, reader):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"class,f\nna\xefve,1.0\n")
    with pytest.raises(InputError) as err:
        reader(path)
    assert f"{path}: not valid UTF-8 at byte 10" in str(err.value)


class TestMakeSplits:
    def test_fraction_066(self, tmp_path):
        manifest = avio.load_manifest(build_manifest(tmp_path, per_class=100,
                                                     artists_per_class=100))
        spec = avio.SplitSpec(train_fraction=0.66, seed=3)
        train, test = avio.make_splits(manifest, spec)
        assert len(train) == 132 and len(test) == 68
        for label in ("rock", "pop"):
            assert sum(t.startswith(label) for t in train) == 66

    def test_partition_property(self, tmp_path):
        manifest = avio.load_manifest(build_manifest(tmp_path))
        train, test = avio.make_splits(manifest, avio.SplitSpec(seed=1))
        all_ids = {e.track_id for e in manifest}
        assert set(train) | set(test) == all_ids
        assert set(train) & set(test) == set()

    def test_artist_filter_no_overlap(self, tmp_path):
        manifest = avio.load_manifest(build_manifest(tmp_path, per_class=30,
                                                     artists_per_class=10))
        spec = avio.SplitSpec(train_fraction=0.66, group_filter="artist",
                              seed=9)
        train, test = avio.make_splits(manifest, spec)
        by_id = {e.track_id: e.artist for e in manifest}
        assert {by_id[t] for t in train} & {by_id[t] for t in test} == set()
        assert set(train) | set(test) == set(by_id)

    def test_same_seed_identical(self, tmp_path):
        manifest = avio.load_manifest(build_manifest(tmp_path))
        spec = avio.SplitSpec(train_fraction=0.5, seed=42)
        assert avio.make_splits(manifest, spec) == \
            avio.make_splits(manifest, spec)

    def test_single_group_class_warns(self, tmp_path):
        path = tmp_path / "m.json"
        entries = [{"track_id": f"a{i}", "label": "x", "artist": "one"}
                   for i in range(4)]
        entries += [{"track_id": f"b{i}", "label": "y", "artist": f"g{i}"}
                    for i in range(4)]
        path.write_text(json.dumps({"entries": entries}))
        manifest = avio.load_manifest(path)
        with pytest.warns(UserWarning, match="one artist group"):
            avio.make_splits(manifest, avio.SplitSpec(group_filter="artist",
                                                      seed=0))

    def test_id_list_roundtrip(self, tmp_path):
        ids = ["b", "a", "c"]
        avio.write_id_list(tmp_path / "ids.txt", ids)
        assert avio.read_id_list(tmp_path / "ids.txt") == ids
