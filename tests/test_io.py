import gc
import json
import pickle
import struct
import tracemalloc
import warnings
from io import StringIO

import numpy as np
import pytest

from avmir import cli, concepts
from avmir import io as avio
from avmir.audio import AudioClip
from avmir.errors import ArffFormatError, InputError, WavFormatError
from avmir.ml import LabeledDataset

import fileutil
from arff_oracle import assert_arff_parity
from wav_oracle import read_wav_oracle


class TestWav:
    def test_mono_16bit_sample_count(self, tmp_path):
        path = tmp_path / "t.wav"
        fileutil.write_wav(path, AudioClip(np.zeros(44100), 44100))
        clip = avio.read_wav(path)
        assert clip.sample_rate == 44100
        assert clip.samples.size == 44100

    def test_full_scale_square_wave(self, tmp_path):
        path = tmp_path / "sq.wav"
        square = np.where(np.arange(1000) % 2 == 0, 1.0, -1.0)
        fileutil.write_wav(path, AudioClip(square, 22050))
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
        fileutil.write_wav(path, AudioClip(np.zeros(100), 8000))
        blob = path.read_bytes()
        (tmp_path / "cut.wav").write_bytes(blob[:-10])
        with pytest.raises(WavFormatError) as err:
            avio.read_wav(tmp_path / "cut.wav")
        # the data chunk's header starts at byte 36
        assert err.value.byte_offset == 36
        assert str(err.value) == (f"{tmp_path / 'cut.wav'}: chunk b'data' "
                                  f"truncated (byte offset 36)")


def wav_chunk(chunk_id, body):
    """One RIFF chunk: id, little-endian size, body and a pad byte if odd."""
    return (chunk_id + struct.pack("<I", len(body)) + body
            + b"\0" * (len(body) & 1))


def wav_file(*chunks):
    body = b"WAVE" + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def fmt_chunk(channels, bits, rate=22050, tag=1, size=16):
    block_align = channels * bits // 8
    body = struct.pack("<HHIIHH", tag, channels, rate, rate * block_align,
                       block_align, bits)
    return wav_chunk(b"fmt ", (body + bytes(size))[:size])


def pcm_bytes(rng, channels, bits, frames):
    """Random PCM with the extremes of the sample type at the front."""
    if bits == 16:
        pcm = rng.integers(-32768, 32768, frames * channels).astype("<i2")
        extremes = [-32768, 32767, 0, -1]
    else:
        pcm = rng.integers(0, 256, frames * channels).astype(np.uint8)
        extremes = [0, 255, 128, 127]
    pcm[:4] = extremes[:pcm.size]
    return pcm.tobytes()


# frames that fill whole WAV_BLOCK_BYTES blocks and leave a partial one
_MULTI_BLOCK_FRAMES = avio.WAV_BLOCK_BYTES + 1237


class TestWavMatchesWholeBufferDecode:
    """read_wav decodes block by block from the open file; its samples and
    errors equal those of the whole-buffer decode in wav_oracle."""

    @staticmethod
    def assert_same_clip(path):
        got, want = avio.read_wav(path), read_wav_oracle(path)
        assert got.sample_rate == want.sample_rate
        assert got.samples.dtype == np.float64
        assert np.array_equal(got.samples, want.samples)

    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize("bits", [8, 16])
    @pytest.mark.parametrize("frames", [1, 5, _MULTI_BLOCK_FRAMES])
    def test_samples(self, tmp_path, rng, channels, bits, frames):
        path = tmp_path / "a.wav"
        path.write_bytes(wav_file(
            fmt_chunk(channels, bits),
            wav_chunk(b"data", pcm_bytes(rng, channels, bits, frames))))
        self.assert_same_clip(path)

    @pytest.mark.parametrize("channels", [1, 2])
    def test_odd_length_chunks_and_other_chunks(self, tmp_path, rng,
                                                channels):
        # an odd-sized chunk before fmt, a long fmt chunk, another chunk
        # before the data, an 8-bit data chunk (of odd length when mono)
        # with its pad byte, and a chunk after the data
        data = pcm_bytes(rng, channels, 8, 2 * _MULTI_BLOCK_FRAMES + 1)
        path = tmp_path / "odd.wav"
        path.write_bytes(wav_file(
            wav_chunk(b"LIST", b"INFOabc"),
            fmt_chunk(channels, 8, rate=8000, size=18),
            wav_chunk(b"fact", b"\1\2\3"),
            wav_chunk(b"data", data),
            wav_chunk(b"junk", b"x")))
        self.assert_same_clip(path)

    @pytest.mark.parametrize("blob", [
        b"RIFF",
        b"RIFX\0\0\0\0WAVE",
        wav_file(),
        wav_file(fmt_chunk(1, 16)),
        wav_file(wav_chunk(b"data", bytes(4)), fmt_chunk(1, 16)),
        wav_file(fmt_chunk(1, 16, size=14), wav_chunk(b"data", bytes(4))),
        wav_file(fmt_chunk(1, 16, tag=3), wav_chunk(b"data", bytes(4))),
        wav_file(fmt_chunk(3, 16), wav_chunk(b"data", bytes(6))),
        wav_file(fmt_chunk(1, 24), wav_chunk(b"data", bytes(6))),
        wav_file(fmt_chunk(1, 16, rate=0), wav_chunk(b"data", bytes(4))),
        wav_file(fmt_chunk(2, 16), wav_chunk(b"data", bytes(6))),
        wav_file(fmt_chunk(1, 16), wav_chunk(b"data", b"")),
        wav_file(fmt_chunk(1, 16), wav_chunk(b"data", bytes(4000)))[:-7],
        wav_file(wav_chunk(b"LIST", bytes(9)), fmt_chunk(1, 8))[:20],
        wav_file(fmt_chunk(1, 8), wav_chunk(b"data", bytes(3)))[:-2],
    ], ids=["short", "not-riff", "no-chunks", "no-data", "data-first",
            "fmt-small", "format-tag", "channels", "bit-depth", "zero-rate",
            "partial-frame", "empty-data", "data-truncated",
            "chunk-truncated", "data-truncated-odd"])
    def test_errors(self, tmp_path, blob):
        path = tmp_path / "bad.wav"
        path.write_bytes(blob)
        with pytest.raises(WavFormatError) as got:
            avio.read_wav(path)
        with pytest.raises(WavFormatError) as want:
            read_wav_oracle(path)
        assert str(got.value) == str(want.value)
        assert got.value.byte_offset == want.value.byte_offset


class TestFrameStreams:
    def test_raw_stream_roundtrip(self, tmp_path, rng):
        frames = [rng.integers(0, 256, size=(4, 6, 3), dtype=np.uint8)
                  for _ in range(3)]
        path = tmp_path / "clip.rgb"
        count = fileutil.write_raw_stream(path, frames, fps=30.0)
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
        fileutil.write_raw_stream(path,
                                  [np.zeros((2, 2, 3), np.uint8)] * 3)
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

    def test_headerless_stream_raises_without_reading_it(self, tmp_path):
        # 32 MiB of black RGB24 frames written without the preamble line
        path = tmp_path / "headerless.rgb"
        with open(path, "wb") as fh:
            fh.truncate(32 * 1024 * 1024)
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match="no newline") as err:
                avio.read_frames(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(path) in str(err.value)
        assert peak < 1024 * 1024

    def test_fps_is_the_rate_of_a_preamble_without_one(self, tmp_path):
        path = tmp_path / "clip.rgb"
        path.write_bytes(b'{"width": 2, "height": 2}\n' + bytes(12))
        assert avio.read_frames(path, fps=30.0).fps == 30.0
        assert avio.read_frames(path).fps == 25.0
        # the preamble's fps wins
        fileutil.write_raw_stream(path, [np.zeros((2, 2, 3), np.uint8)],
                                  fps=24.0)
        assert avio.read_frames(path, fps=30.0).fps == 24.0

    def test_pgm_roundtrip(self, tmp_path, rng):
        img = rng.integers(0, 256, size=(9, 7), dtype=np.uint8)
        fileutil.write_pgm(tmp_path / "x.pgm", img)
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

    @pytest.mark.parametrize("labels, schema, message", [
        (["rock n roll", "rock_n_roll"], ["f"], "class labels 'rock n roll' "
         "and 'rock_n_roll' are both written as 'rock_n_roll'"),
        (["a", "b"], ["f 0", "f_0"],
         "attributes 'f 0' and 'f_0' are both written as 'f_0'"),
    ], ids=["class-labels", "attributes"])
    def test_names_that_sanitize_alike_rejected(self, tmp_path, labels,
                                                schema, message):
        ds = LabeledDataset(np.zeros((2, len(schema))), labels, schema)
        path = tmp_path / "t.arff"
        with pytest.raises(InputError) as err:
            avio.write_arff(ds, "rel", path)
        assert str(err.value) == f"{path}: {message}"
        assert not path.exists()

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
        (2, ["1e308,1.7e308,a", "-1e308,5,b"]),
    ], ids=["whitespace", "exotic-spellings", "nan", "overflow-to-inf",
            "wrong-count", "undeclared-label", "zero-features",
            "zero-features-wrong-count", "two-faults-numeric-first",
            "two-faults-count-first", "finite-values-whose-sum-overflows"])
    def test_matches_reference(self, tmp_path, n_features, lines):
        assert_arff_parity(tmp_path / "t.arff", n_features, lines)

    def test_written_file_takes_the_streamed_parse(self, tmp_path, rng,
                                                   monkeypatch):
        def no_line_parse(*args):
            raise AssertionError("read line by line")

        ds = LabeledDataset(rng.normal(size=(5, 3)) * 1e3,
                            ["x", "y", "x", "z", "y"], ["f0", "f1", "f2"])
        avio.write_arff(ds, "rel", tmp_path / "t.arff")
        monkeypatch.setattr(avio, "_parse_data_rows", no_line_parse)
        back = avio.read_arff(tmp_path / "t.arff")
        assert back.labels == ds.labels
        assert back.matrix.shape == (5, 3)

    @pytest.mark.parametrize("n_features", [0, 3])
    def test_header_only_file_reads_without_warnings(self, tmp_path,
                                                     n_features):
        header = (["@RELATION r"]
                  + [f"@ATTRIBUTE f{i} NUMERIC" for i in range(n_features)]
                  + ["@ATTRIBUTE class {a,b}", "@DATA", "% no rows", ""])
        (tmp_path / "t.arff").write_text("\n".join(header))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = avio.read_arff(tmp_path / "t.arff")
        assert back.matrix.shape == (0, n_features)
        assert back.labels == []

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
    ("truncated.ppm", b"P6\n2 2\n255\n" + bytes(5), avio.read_ppm,
     InputError, "truncated.ppm: expected 12 payload bytes, got 5"),
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
     "sums.csv:1: row sums to 1.200000"),
    ("nan.csv", b"0,nan,1.0\n",
     lambda p: concepts.read_concept_scores(p, ["a", "b"]), InputError,
     "nan.csv:1: concept scores must lie in [0, 1]"),
    ("index.csv", b"frame_index,a,b\n0,0.5,0.5\nnan,0.5,0.5\n",
     lambda p: concepts.read_concept_scores(p, ["a", "b"]), InputError,
     "index.csv:3: non-finite frame index"),
    ("range.csv", b"frame_index,a,b\n0,0.5,0.5\n1,1.5,-0.5\n",
     lambda p: concepts.read_concept_scores(p, ["a", "b"]), InputError,
     "range.csv:3: concept scores must lie in [0, 1]"),
    # the faulty row is the second by frame index and the third in the file
    ("order.csv", b"frame_index,a,b\n0,0.5,0.5\n2,0.5,0.5\n1,0.6,0.5\n",
     lambda p: concepts.read_concept_scores(p, ["a", "b"]), InputError,
     "order.csv:4: row sums to 1.100000"),
    ("table.csv", b"class,f\na,1.0\nb,nan\n", _arff_export, InputError,
     "table.csv:3: non-finite feature value"),
], ids=["arff-quoted-name", "ppm-header", "pgm-header", "ppm-zero-width",
        "ppm-zero-height", "pgm-negative-width", "ppm-short-payload",
        "concept-score",
        "wav-zero-rate", "wav-file-named", "wav-odd-data-file-named",
        "arff-file-named", "arff-no-data-file-named", "arff-non-finite",
        "concept-row-sum", "concept-nan", "concept-nan-frame-index",
        "concept-out-of-range", "concept-row-sum-unsorted",
        "arff-export-non-finite"])
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
    fileutil.read_id_list,
    _arff_export,
], ids=["arff", "manifest", "concept-scores", "vocabulary", "id-list",
        "arff-export-csv"])
def test_invalid_utf8_names_file_and_byte(tmp_path, reader):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"class,f\nna\xefve,1.0\n")
    with pytest.raises(InputError) as err:
        reader(path)
    assert f"{path}: not valid UTF-8 at byte 10" in str(err.value)


class TestOpenText:
    TEXTS = {
        "crlf": "a,b\r\nc,d\r\n",
        "cr": "a\rb\rc",
        "bom": "\ufeffa,b\nc\n",
        "nel": "a\x85b\nc\u2028d\r\n",
        "mixed": "x\r\ny\rz\n\n",
        # a CR LF pair and a 3-byte character astride the 8 KiB decode chunk
        "chunk-edge": "q" * 8191 + "\r\n" + "r" * 8190 + "\u20ac\n",
    }

    @pytest.mark.parametrize("newline", [None, ""], ids=["universal", "raw"])
    @pytest.mark.parametrize("name", list(TEXTS))
    def test_reads_like_open_and_stringio(self, tmp_path, name, newline):
        path = tmp_path / "t.txt"
        path.write_bytes(self.TEXTS[name].encode("utf-8"))
        with avio.open_text(path, newline=newline) as fh:
            lines = list(fh)
        with avio.open_text(path, newline=newline) as fh:
            text = fh.read()
        with open(path, encoding="utf-8", newline=newline) as fh:
            assert lines == list(fh)
        with open(path, encoding="utf-8", newline=newline) as fh:
            assert text == fh.read()
        expected = StringIO(self.TEXTS[name], newline=newline)
        assert lines == list(expected)
        assert text == expected.getvalue()

    def test_read_arff_peak_memory_below_three_file_sizes(self, tmp_path,
                                                         rng):
        # the text is held as UTF-8 bytes, not as 4-byte characters
        path = tmp_path / "big.arff"
        ds = LabeledDataset(rng.normal(size=(100, 400)),
                            ["x", "y"] * 50, [f"f{j}" for j in range(400)])
        avio.write_arff(ds, "r", path)
        tracemalloc.start()
        try:
            back = avio.read_arff(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.matrix.shape == (100, 400)
        assert peak < 3 * path.stat().st_size

    def test_read_arff_holds_ascii_text_once(self, tmp_path, rng):
        # ASCII needs no decoded copy for the UTF-8 check, so the peak is
        # the file's bytes plus the parsed rows, not twice the file size
        path = tmp_path / "big.arff"
        ds = LabeledDataset(rng.normal(size=(300, 400)),
                            ["x", "y"] * 150, [f"f{j}" for j in range(400)])
        avio.write_arff(ds, "r", path)
        tracemalloc.start()
        try:
            back = avio.read_arff(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * path.stat().st_size + back.matrix.nbytes


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
        assert fileutil.read_id_list(tmp_path / "ids.txt") == ids


class TestQuotedArffNames:
    @pytest.mark.parametrize("quote", ["'", '"'])
    def test_quoted_attribute_name_keeps_its_spaces(self, tmp_path, quote):
        path = tmp_path / "q.arff"
        path.write_text(f"@RELATION r\n@ATTRIBUTE {quote}f 0{quote} NUMERIC\n"
                        "@ATTRIBUTE g REAL\n@ATTRIBUTE class {a,b}\n"
                        "@DATA\n1.0,2.0,a\n3.0,4.0,b\n")
        ds = avio.read_arff(path)
        assert ds.schema == ["f 0", "g"]
        assert ds.labels == ["a", "b"]
        np.testing.assert_array_equal(ds.matrix, [[1.0, 2.0], [3.0, 4.0]])


class TestSplitEdges:
    @pytest.mark.parametrize("count, train_per_class", [(4, 4), (9, 5)])
    def test_per_class_count(self, tmp_path, count, train_per_class):
        # a count of the class size or more still leaves one test entry
        manifest = avio.load_manifest(build_manifest(tmp_path))
        train, test = avio.make_splits(
            manifest, avio.SplitSpec(per_class_count=count, seed=2))
        for label in ("rock", "pop"):
            assert sum(t.startswith(label) for t in train) == train_per_class
            assert sum(t.startswith(label) for t in test) == \
                6 - train_per_class

    @pytest.mark.parametrize("fraction, sizes", [(0.9, (7, 1)),
                                                 (0.1, (1, 7))])
    def test_group_split_moves_one_group_to_an_empty_side(
            self, tmp_path, fraction, sizes):
        # every class wants all (or none) of its tracks in train, so the
        # greedy pass puts every artist on one side
        manifest = avio.load_manifest(build_manifest(
            tmp_path, per_class=4, artists_per_class=4))
        train, test = avio.make_splits(manifest, avio.SplitSpec(
            train_fraction=fraction, group_filter="artist", seed=4))
        assert (len(train), len(test)) == sizes
        assert set(train) | set(test) == {e.track_id for e in manifest}
