"""File formats and dataset plumbing.

WAV reading is a self-contained RIFF/PCM parser (8/16-bit, mono or stereo)
so that format errors can report exact byte offsets.  Frame streams come
either from a raw RGB24 file with a one-line JSON preamble (the output
contract for an external decoder process) or from a directory of numbered
PPM P6 files; both are consumed streaming, one frame at a time.  ARFF export
covers the numeric-attributes-plus-nominal-class subset of the WEKA grammar.
"""

import json
import os
import re
import struct
import warnings
from dataclasses import dataclass
from io import BytesIO, TextIOWrapper
from pathlib import Path

import numpy as np

from .audio import AudioClip
from .errors import ArffFormatError, InputError, WavFormatError
from .ml import LabeledDataset, shuffled_by_class


def open_text(path, newline=None):
    """A UTF-8 text file as a stream that reads like open(path, "r",
    encoding="utf-8", newline=newline); invalid UTF-8 raises InputError
    naming the file and the byte offset of the first invalid sequence."""
    data = Path(path).read_bytes()
    # ASCII is valid UTF-8, and isascii() checks it without a decoded copy
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InputError(
                f"{path}: not valid UTF-8 at byte {exc.start}") from None
    return TextIOWrapper(BytesIO(data), encoding="utf-8", newline=newline)


# ---------------------------------------------------------------------------
# WAV
# ---------------------------------------------------------------------------

# bytes of the data chunk read and converted at a time
WAV_BLOCK_BYTES = 64 * 1024


def read_wav(path):
    """Read a PCM WAV file into a mono AudioClip in [-1, 1].

    Supports 8-bit unsigned and 16-bit signed little-endian samples; stereo
    is downmixed by channel mean.  Raises WavFormatError with the file and
    the byte offset on malformed or truncated input.

    The chunk headers are read one by one and the data chunk is decoded
    WAV_BLOCK_BYTES at a time straight into the float64 samples, so the
    samples are the only whole-file array: no copy of the file's bytes and
    no integer copy of the samples is made.
    """
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
        riff = fh.read(12)
        if len(riff) < 12 or riff[0:4] != b"RIFF" or riff[8:12] != b"WAVE":
            raise WavFormatError(path, "not a RIFF/WAVE file", 0)

        fmt = None
        pos = 12
        while pos + 8 <= file_size:
            fh.seek(pos)
            chunk_id, size = struct.unpack("<4sI", fh.read(8))
            body = pos + 8
            if body + size > file_size:
                raise WavFormatError(path, f"chunk {chunk_id!r} truncated", pos)
            if chunk_id == b"fmt ":
                if size < 16:
                    raise WavFormatError(path, "fmt chunk too small", pos)
                fmt = struct.unpack("<HHIIHH", fh.read(16))
                audio_format, channels, sample_rate, _, _, bits = fmt
                if audio_format != 1:
                    raise WavFormatError(path, f"unsupported format tag "
                                         f"{audio_format} (PCM only)", pos)
                if channels not in (1, 2):
                    raise WavFormatError(
                        path, f"unsupported channel count {channels}", pos)
                if bits not in (8, 16):
                    raise WavFormatError(path, f"unsupported bit depth {bits}",
                                         pos)
                if sample_rate == 0:
                    raise WavFormatError(path, "sample rate 0", pos)
            elif chunk_id == b"data":
                if fmt is None:
                    raise WavFormatError(path, "data chunk before fmt chunk",
                                         pos)
                return _decode_pcm(path, fh, pos, size, fmt)
            pos = body + size + (size & 1)
    raise WavFormatError(path, "no data chunk found", pos)


def _decode_pcm(path, fh, pos, size, fmt):
    """Decode the data chunk at pos, whose body fh is positioned at.

    Each block of whole frames is read into one reused buffer and converted
    into its slice of the samples.  Every step is exact (the integer sum of
    the channels, then one division by a power of two), so the samples
    equal the per-channel scaling and channel mean done on the whole
    chunk.
    """
    _, channels, sample_rate, _, _, bits = fmt
    body = pos + 8
    bytes_per_frame = channels * bits // 8
    if size % bytes_per_frame != 0:
        raise WavFormatError(path, "data size is not a whole number of frames",
                             body + size - size % bytes_per_frame)
    if size == 0:
        raise WavFormatError(path, "empty data chunk", body)
    dtype, zero, full_scale = (("<i2", 0.0, 32768.0) if bits == 16
                               else (np.uint8, 128.0, 128.0))
    samples = np.empty(size // bytes_per_frame)
    block = bytearray(WAV_BLOCK_BYTES)
    step = WAV_BLOCK_BYTES // bytes_per_frame
    for start in range(0, samples.size, step):
        out = samples[start:start + step]
        want = out.size * bytes_per_frame
        if fh.readinto(memoryview(block)[:want]) != want:
            # the file shrank after its size was read
            raise WavFormatError(path, "chunk b'data' truncated", pos)
        pcm = np.frombuffer(block, dtype=dtype, count=out.size * channels)
        if channels == 2:
            np.add(pcm[0::2], pcm[1::2], out=out, dtype=np.float64)
        else:
            out[:] = pcm
        if zero:
            out -= channels * zero
        out /= channels * full_scale
    return AudioClip(samples, sample_rate)


# ---------------------------------------------------------------------------
# frame streams
# ---------------------------------------------------------------------------

@dataclass
class FrameStream:
    """Lazily decoded frame source; iterate to get (H, W, 3) uint8 frames."""
    width: int
    height: int
    fps: float
    _iterator: object

    def __iter__(self):
        return self._iterator


def read_frames(source, fps=25.0):
    """Open a frame source: raw-RGB24 file with JSON preamble, or a
    directory of PPM P6 files (consumed in name order).

    fps is the frame rate of a PPM directory, and of a raw stream whose
    preamble names none.  Frames are yielded one at a time; nothing beyond
    the current frame is buffered.  Short reads raise InputError naming the
    frame index.
    """
    source = Path(source)
    if source.is_dir():
        return _read_ppm_dir(source, fps)
    return _read_raw_stream(source, fps)


def _read_ppm_dir(directory, fps):
    paths = sorted(directory.glob("*.ppm"))
    if not paths:
        raise InputError(f"no .ppm files in {directory}")
    first = read_ppm(paths[0])

    def gen():
        yield first
        for p in paths[1:]:
            yield read_ppm(p)

    return FrameStream(width=first.shape[1], height=first.shape[0], fps=fps,
                       _iterator=gen())


# longest raw-stream preamble line read, newline included: a file without
# a newline this early has no preamble and is not read to its end
RAW_PREAMBLE_BYTES = 4096


def _read_raw_stream(path, fps):
    with open(path, "rb") as fh:
        header = fh.readline(RAW_PREAMBLE_BYTES)
    if len(header) == RAW_PREAMBLE_BYTES and not header.endswith(b"\n"):
        raise InputError(f"bad raw-stream preamble in {path}: no newline in "
                         f"the first {RAW_PREAMBLE_BYTES} bytes")
    try:
        meta = json.loads(header.decode("ascii"))
        if not isinstance(meta, dict):
            raise ValueError("not a JSON object")
        width, height = int(meta["width"]), int(meta["height"])
        fps = float(meta.get("fps", fps))
        if width < 1 or height < 1:
            raise ValueError(f"frame size {width}x{height} is not positive")
        if not (np.isfinite(fps) and fps > 0):
            raise ValueError(f"fps {fps} is not finite and positive")
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"bad raw-stream preamble in {path}: {exc}") from None
    frame_bytes = width * height * 3

    def gen():
        # the file is opened at the first frame and closed when the stream
        # ends or is discarded, so an unread stream holds no handle
        with open(path, "rb") as fh:
            fh.seek(len(header))
            index = 0
            while True:
                payload = fh.read(frame_bytes)
                if not payload:
                    return
                if len(payload) != frame_bytes:
                    raise InputError(
                        f"{path}: short read at frame {index}: expected "
                        f"{frame_bytes} bytes, got {len(payload)}")
                yield np.frombuffer(payload, dtype=np.uint8).reshape(
                    height, width, 3)
                index += 1

    return FrameStream(width=width, height=height, fps=fps, _iterator=gen())


def _read_pnm_header(data, path, magic):
    if not data.startswith(magic):
        raise InputError(f"{path}: not a {magic.decode()} file")
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        try:
            fields.append(int(data[start:pos]))
        except ValueError:
            raise InputError(f"{path}: truncated or malformed {magic.decode()} "
                             f"header at byte {start}") from None
    return fields, pos + 1  # single whitespace after maxval


def _read_pnm(path, magic, channels):
    """Binary PNM with maxval 255 -> (H, W, channels) uint8."""
    data = Path(path).read_bytes()
    (w, h, maxval), offset = _read_pnm_header(data, path, magic)
    for field, value in (("width", w), ("height", h)):
        if value <= 0:
            raise InputError(f"{path}: {magic.decode()} {field} must be "
                             f"positive, got {value}")
    if maxval != 255:
        raise InputError(f"{path}: only maxval 255 supported")
    need = w * h * channels
    got = max(len(data) - offset, 0)
    if got < need:
        raise InputError(f"{path}: expected {need} payload bytes, got {got}")
    # a view of the file's bytes: the payload is not copied
    return np.frombuffer(data, dtype=np.uint8, count=need,
                         offset=offset).reshape(h, w, channels)


def read_ppm(path):
    """Binary PPM (P6, maxval 255) -> (H, W, 3) uint8."""
    return _read_pnm(path, b"P6", 3)


def write_ppm(path, image):
    image = np.ascontiguousarray(image, dtype=np.uint8)
    h, w = image.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(image.tobytes())


def read_pgm(path):
    """Binary PGM (P5, maxval 255) -> (H, W) uint8."""
    return _read_pnm(path, b"P5", 1)[:, :, 0]


# ---------------------------------------------------------------------------
# ARFF
# ---------------------------------------------------------------------------

_NAME_SANITIZER = re.compile(r"[^A-Za-z0-9_.+-]")


def sanitize_attribute_name(name):
    """Deterministically map arbitrary feature names to ARFF-safe ones."""
    clean = _NAME_SANITIZER.sub("_", str(name))
    return clean if clean else "_"


def _arff_names(names, kind, path):
    """Map each raw name to its sanitized ARFF name, in first-seen order.

    Two different raw names with one ARFF name would be read back as one
    attribute or one class, so they raise InputError naming both.
    """
    clean = {}
    owner = {}
    for raw in names:
        name = sanitize_attribute_name(raw)
        first = owner.setdefault(name, raw)
        if first != raw:
            raise InputError(f"{path}: {kind} {str(first)!r} and {str(raw)!r} "
                             f"are both written as {name!r}")
        clean[raw] = name
    return clean


def write_arff(dataset, relation, path):
    """Write a LabeledDataset: numeric attributes, nominal class last.

    Class values are enumerated in first-seen order; floats carry 9
    significant digits.  Two attribute names, or two class labels, that
    sanitize to one ARFF name raise InputError.
    """
    lines = [f"@RELATION {sanitize_attribute_name(relation)}", ""]
    attributes = _arff_names(dataset.schema, "attributes", path)
    for name in dataset.schema:
        lines.append(f"@ATTRIBUTE {attributes[name]} NUMERIC")
    classes = _arff_names(dataset.classes, "class labels", path)
    lines.append(f"@ATTRIBUTE class {{{','.join(classes.values())}}}")
    lines.append("")
    lines.append("@DATA")
    for row, label in zip(dataset.matrix, dataset.labels):
        # python floats format faster than numpy scalars, to the same text
        values = ",".join([f"{v:.9g}" for v in row.tolist()])
        sep = "," if values else ""
        lines.append(f"{values}{sep}{classes[label]}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_arff(path):
    """Parse the ARFF subset written by write_arff back into a dataset.

    The data block is streamed through one np.loadtxt call.  When that
    fails, or its result breaks a check (a line without a comma, a column
    count other than the schema's, a non-finite value, an undeclared label),
    _parse_data_rows reads the block again line by line: it raises the
    located error, or returns the rows that float() reads.
    """
    with open_text(path) as fh:
        schema, class_values, data_ln = _read_arff_header(fh, path)
        start = fh.tell()
        n_rows = sum(1 for _ in _data_lines(fh))
        fh.seek(start)
        labels = []
        matrix = _load_data_block(fh, n_rows, labels, len(schema),
                                  class_values)
        if matrix is None:
            fh.seek(start)
            matrix, labels = _parse_data_rows(fh, path, data_ln + 1, n_rows,
                                              len(schema), class_values)
    return LabeledDataset(matrix, labels, schema)


def _read_arff_header(fh, path):
    """Read the header up to and including @DATA: (numeric attribute names,
    class values, line number of @DATA)."""
    schema = []
    class_values = None
    # readline, not iteration, so that fh.tell() works after the header
    for ln, raw in enumerate(iter(fh.readline, ""), start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        upper = line.upper()
        if upper.startswith("@RELATION"):
            continue
        if upper.startswith("@ATTRIBUTE"):
            body = line[len("@ATTRIBUTE"):].strip()
            if body.startswith(("'", '"')):
                quote = body[0]
                end = body.find(quote, 1)
                if end < 0:
                    raise ArffFormatError(path,
                        "unterminated quoted attribute name", ln)
                name, rest = body[1:end], body[end + 1:].strip()
            else:
                parts = body.split(None, 1)
                if len(parts) != 2:
                    raise ArffFormatError(path, "malformed attribute", ln)
                name, rest = parts
            if rest.startswith("{"):
                if not rest.endswith("}"):
                    raise ArffFormatError(path, "unterminated nominal set", ln)
                class_values = [v.strip() for v in rest[1:-1].split(",")]
            elif rest.upper() in ("NUMERIC", "REAL", "INTEGER"):
                schema.append(name)
            else:
                raise ArffFormatError(path,
                    f"unsupported attribute type {rest!r}", ln)
            continue
        if upper.startswith("@DATA"):
            if class_values is None:
                raise ArffFormatError(path, "no nominal class attribute", ln)
            return schema, class_values, ln
        raise ArffFormatError(path, f"unexpected header line {line!r}", ln)
    raise ArffFormatError(path, "no @DATA section", 0)


def _data_lines(lines):
    """The stripped lines that are neither blank nor % comments."""
    for raw in lines:
        line = raw.strip()
        if line and not line.startswith("%"):
            yield line


def _load_data_block(lines, n_rows, labels, n_features, class_values):
    """The n_rows data rows of lines as one (n_rows, n_features) matrix from
    one streamed np.loadtxt call, their labels appended to labels; None
    when a line needs _parse_data_rows."""
    if n_rows == 0:  # loadtxt warns on a block without rows
        return np.zeros((0, n_features))

    def cells():
        for line in _data_lines(lines):
            values, _, label = line.rpartition(",")
            if not values:  # loadtxt would skip an empty first cell
                raise ValueError("no comma, or an empty first cell")
            labels.append(label.strip())
            yield values

    try:
        # max_rows sizes loadtxt's result once instead of growing it
        matrix = np.loadtxt(cells(), delimiter=",", comments=None, ndmin=2,
                            max_rows=n_rows)
    except ValueError:
        return None
    # the sum is finite unless a value is not or the sum overflows; either
    # way the line parser decides, and no (rows, features) mask is made
    with np.errstate(over="ignore", invalid="ignore"):
        total = matrix.sum()
    if (matrix.shape != (n_rows, n_features) or len(labels) != n_rows
            or not np.isfinite(total)
            or not set(labels).issubset(class_values)):
        return None
    return matrix


def _parse_data_rows(lines, path, first_ln, n_rows, n_features,
                     class_values):
    """The n_rows data rows of lines, numbered from first_ln, as (matrix,
    labels); each cell is read as float(cell.strip()) reads it, and the
    first faulty line raises ArffFormatError with its line number."""
    matrix = np.empty((n_rows, n_features))
    labels = []
    for ln, raw in enumerate(lines, start=first_ln):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        n_values = line.count(",") + 1
        if n_values != n_features + 1:
            raise ArffFormatError(path,
                f"expected {n_features + 1} values, got {n_values}", ln)
        if n_features:
            values, label = line.rsplit(",", 1)
            try:
                row = np.array([float(c.strip()) for c in values.split(",")])
            except ValueError:
                raise ArffFormatError(path, "non-numeric feature value",
                                      ln) from None
            if not np.isfinite(row).all():
                raise ArffFormatError(path, "non-finite feature value", ln)
        else:
            row, label = np.empty(0), line
        label = label.strip()
        if label not in class_values:
            raise ArffFormatError(path, f"undeclared class value {label!r}", ln)
        matrix[len(labels)] = row
        labels.append(label)
    return matrix, labels


# ---------------------------------------------------------------------------
# manifests and splits
# ---------------------------------------------------------------------------

@dataclass
class ManifestEntry:
    track_id: str
    label: str
    artist: str = None
    album: str = None
    audio: str = None
    frames: str = None
    concepts: str = None


@dataclass
class Manifest:
    entries: list
    base_dir: Path

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def resolve(self, relative):
        return self.base_dir / relative


def load_manifest(path, check_paths=True):
    """Load a JSON manifest; validates id uniqueness and path existence."""
    path = Path(path)
    try:
        with open_text(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict) or "entries" not in raw:
        raise InputError(f"{path}: manifest must be an object with 'entries'")
    if not isinstance(raw["entries"], list):
        raise InputError(f"{path}: 'entries' must be a list")

    base = path.parent
    entries = []
    seen = set()
    for i, item in enumerate(raw["entries"]):
        if not isinstance(item, dict):
            raise InputError(f"{path}: entry {i} is not an object")
        try:
            entry = ManifestEntry(track_id=str(item["track_id"]),
                                  label=str(item["label"]),
                                  artist=item.get("artist"),
                                  album=item.get("album"),
                                  audio=item.get("audio"),
                                  frames=item.get("frames"),
                                  concepts=item.get("concepts"))
        except KeyError as exc:
            raise InputError(f"{path}: entry {i} missing key {exc}") from None
        for kind in ("artist", "album", "audio", "frames", "concepts"):
            if not isinstance(getattr(entry, kind), (str, type(None))):
                raise InputError(f"{path}: entry {i}: {kind} must be a string")
        if entry.track_id in seen:
            raise InputError(f"{path}: duplicate track id {entry.track_id!r}")
        seen.add(entry.track_id)
        if check_paths:
            for kind in ("audio", "frames", "concepts"):
                rel = getattr(entry, kind)
                if rel is not None and not (base / rel).exists():
                    raise InputError(
                        f"{path}: entry {entry.track_id!r}: missing "
                        f"{kind} path {rel!r}")
        entries.append(entry)
    if not entries:
        raise InputError(f"{path}: empty manifest")
    return Manifest(entries=entries, base_dir=base)


@dataclass
class SplitSpec:
    train_fraction: float = 0.66
    per_class_count: int = None
    group_filter: str = "none"   # none | artist | album
    seed: int = 0

    def __post_init__(self):
        if self.per_class_count is None and not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train fraction must lie in (0, 1)")
        if self.per_class_count is not None and self.per_class_count < 1:
            raise ValueError("per-class train count must be at least 1, "
                             f"got {self.per_class_count}")
        if self.group_filter not in ("none", "artist", "album"):
            raise ValueError("group filter must be none, artist or album")


def make_splits(manifest, spec):
    """Seeded stratified train/test id lists, optionally group-filtered.

    Without a group filter each class is shuffled and cut at the train
    fraction (or fixed per-class count).  With a filter whole artist/album
    groups go to one side; classes are approximated greedily by assigning
    each group (largest first) to the side with the larger remaining deficit
    for the group's labels.  A class confined to a single group triggers a
    warning and best-effort assignment.
    """
    by_class = {}
    for e in manifest:
        by_class.setdefault(e.label, []).append(e)
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))

    def want(label):
        n = len(by_class[label])
        if spec.per_class_count is not None:
            return min(spec.per_class_count, n - 1)
        return int(round(spec.train_fraction * n))

    if spec.group_filter == "none":
        ids = [e.track_id for e in manifest]
        train, test = [], []
        for label, order in shuffled_by_class([e.label for e in manifest],
                                              rng).items():
            cut = want(label)
            train.extend(ids[i] for i in order[:cut])
            test.extend(ids[i] for i in order[cut:])
        return sorted(train), sorted(test)

    groups = {}
    for e in manifest:
        key = getattr(e, spec.group_filter)
        if key is None:
            raise InputError(
                f"entry {e.track_id!r} lacks the {spec.group_filter} key")
        groups.setdefault(key, []).append(e)

    for label, entries in by_class.items():
        keys = {getattr(e, spec.group_filter) for e in entries}
        if len(keys) == 1:
            warnings.warn(f"class {label!r} lies entirely in one "
                          f"{spec.group_filter} group; split is best-effort")

    deficit = {label: want(label) for label in by_class}
    keys = list(groups)
    keys = [keys[i] for i in rng.permutation(len(keys))]
    keys.sort(key=lambda k: -len(groups[k]))  # stable: ties keep shuffled order

    train_groups, test_groups = [], []
    for key in keys:
        entries = groups[key]
        counts = {}
        for e in entries:
            counts[e.label] = counts.get(e.label, 0) + 1
        wanted = sum(min(deficit[lb], cnt) for lb, cnt in counts.items())
        if wanted * 2 > len(entries):
            train_groups.append(key)
            for lb, cnt in counts.items():
                deficit[lb] -= cnt
        else:
            test_groups.append(key)
    # a degenerate greedy pass may leave one side empty; rebalance with the
    # smallest group from the other side
    if not test_groups and len(train_groups) > 1:
        test_groups.append(train_groups.pop())
    if not train_groups and len(test_groups) > 1:
        train_groups.append(test_groups.pop())
    if not test_groups or not train_groups:
        raise InputError("group filter produced an empty split side")

    train = [e.track_id for k in train_groups for e in groups[k]]
    test = [e.track_id for k in test_groups for e in groups[k]]
    return sorted(train), sorted(test)


def write_id_list(path, ids):
    Path(path).write_text("\n".join(ids) + "\n", encoding="utf-8")
