"""File formats and dataset plumbing.

WAV reading is a self-contained RIFF/PCM parser (8/16-bit, mono or stereo)
so that format errors can report exact byte offsets.  Frame streams come
either from a raw RGB24 file with a one-line JSON preamble (the output
contract for an external decoder process) or from a directory of numbered
PPM P6 files; both are consumed streaming, one frame at a time.  ARFF export
covers the numeric-attributes-plus-nominal-class subset of the WEKA grammar.
"""

import json
import re
import struct
import warnings
from dataclasses import dataclass
from io import StringIO
from pathlib import Path

import numpy as np

from .audio import AudioClip
from .errors import ArffFormatError, InputError, WavFormatError
from .ml import LabeledDataset


def open_text(path, newline=None):
    """A UTF-8 text file as a stream that reads like open(path, "r",
    encoding="utf-8", newline=newline); invalid UTF-8 raises InputError
    naming the file and the byte offset of the first invalid sequence."""
    try:
        return StringIO(Path(path).read_bytes().decode("utf-8"), newline=newline)
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not valid UTF-8 at byte {exc.start}") from None


# ---------------------------------------------------------------------------
# WAV
# ---------------------------------------------------------------------------

def read_wav(path):
    """Read a PCM WAV file into a mono AudioClip in [-1, 1].

    Supports 8-bit unsigned and 16-bit signed little-endian samples; stereo
    is downmixed by channel mean.  Raises WavFormatError with the file and
    the byte offset on malformed or truncated input.
    """
    data = Path(path).read_bytes()
    if len(data) < 12 or data[0:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise WavFormatError(path, "not a RIFF/WAVE file", 0)

    fmt = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos:pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        body = pos + 8
        if body + size > len(data):
            raise WavFormatError(path, f"chunk {chunk_id!r} truncated", pos)
        if chunk_id == b"fmt ":
            if size < 16:
                raise WavFormatError(path, "fmt chunk too small", pos)
            fmt = struct.unpack_from("<HHIIHH", data, body)
            audio_format, channels, sample_rate, _, _, bits = fmt
            if audio_format != 1:
                raise WavFormatError(path, f"unsupported format tag "
                                     f"{audio_format} (PCM only)", pos)
            if channels not in (1, 2):
                raise WavFormatError(
                    path, f"unsupported channel count {channels}", pos)
            if bits not in (8, 16):
                raise WavFormatError(path, f"unsupported bit depth {bits}", pos)
            if sample_rate == 0:
                raise WavFormatError(path, "sample rate 0", pos)
        elif chunk_id == b"data":
            if fmt is None:
                raise WavFormatError(path, "data chunk before fmt chunk", pos)
            return _decode_pcm(path, data, body, size, fmt)
        pos = body + size + (size & 1)
    raise WavFormatError(path, "no data chunk found", pos)


def _decode_pcm(path, data, body, size, fmt):
    _, channels, sample_rate, _, _, bits = fmt
    bytes_per_frame = channels * bits // 8
    if size % bytes_per_frame != 0:
        raise WavFormatError(path, "data size is not a whole number of frames",
                             body + size - size % bytes_per_frame)
    raw = data[body:body + size]
    if bits == 16:
        samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    else:
        samples = (np.frombuffer(raw, dtype=np.uint8).astype(np.float64)
                   - 128.0) / 128.0
    if channels == 2:
        samples = samples.reshape(-1, 2).mean(axis=1)
    if samples.size == 0:
        raise WavFormatError(path, "empty data chunk", body)
    return AudioClip(samples, sample_rate)


def write_wav(path, clip):
    """Write a mono 16-bit PCM WAV file."""
    samples = np.clip(clip.samples, -1.0, 1.0)
    pcm = np.round(samples * 32767.0).astype("<i2").tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(pcm), b"WAVE", b"fmt ", 16, 1, 1,
        clip.sample_rate, clip.sample_rate * 2, 2, 16, b"data", len(pcm))
    Path(path).write_bytes(header + pcm)


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

    Frames are yielded one at a time; nothing beyond the current frame is
    buffered.  Short reads raise InputError naming the frame index.
    """
    source = Path(source)
    if source.is_dir():
        return _read_ppm_dir(source, fps)
    return _read_raw_stream(source)


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


def _read_raw_stream(path):
    with open(path, "rb") as fh:
        header = fh.readline()
    try:
        meta = json.loads(header.decode("ascii"))
        if not isinstance(meta, dict):
            raise ValueError("not a JSON object")
        width, height = int(meta["width"]), int(meta["height"])
        fps = float(meta.get("fps", 25.0))
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


def write_raw_stream(path, frames, fps=25.0):
    """Write frames in the raw-RGB24-with-preamble format; returns the count."""
    frames = iter(frames)
    first = np.ascontiguousarray(next(frames), dtype=np.uint8)
    h, w = first.shape[:2]
    count = 0
    with open(path, "wb") as fh:
        fh.write(json.dumps({"width": w, "height": h, "fps": fps}).encode()
                 + b"\n")
        for frame in (first, *frames):
            frame = np.ascontiguousarray(frame, dtype=np.uint8)
            if frame.shape != (h, w, 3):
                raise ValueError("all frames must share the first frame's shape")
            fh.write(frame.tobytes())
            count += 1
    return count


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
    payload = data[offset:offset + need]
    if len(payload) != need:
        raise InputError(f"{path}: expected {need} payload bytes, "
                         f"got {len(payload)}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w, channels)


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


def write_pgm(path, image):
    image = np.ascontiguousarray(image, dtype=np.uint8)
    h, w = image.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(image.tobytes())


# ---------------------------------------------------------------------------
# ARFF
# ---------------------------------------------------------------------------

_NAME_SANITIZER = re.compile(r"[^A-Za-z0-9_.+-]")


def sanitize_attribute_name(name):
    """Deterministically map arbitrary feature names to ARFF-safe ones."""
    clean = _NAME_SANITIZER.sub("_", str(name))
    return clean if clean else "_"


def _format_value(x):
    return f"{x:.9g}"


def write_arff(dataset, relation, path):
    """Write a LabeledDataset: numeric attributes, nominal class last.

    Class values are enumerated in first-seen order; floats carry 9
    significant digits.
    """
    lines = [f"@RELATION {sanitize_attribute_name(relation)}", ""]
    for name in dataset.schema:
        lines.append(f"@ATTRIBUTE {sanitize_attribute_name(name)} NUMERIC")
    class_list = ",".join(sanitize_attribute_name(c) for c in dataset.classes)
    lines.append(f"@ATTRIBUTE class {{{class_list}}}")
    lines.append("")
    lines.append("@DATA")
    for row, label in zip(dataset.matrix, dataset.labels):
        values = ",".join(_format_value(v) for v in row)
        sep = "," if values else ""
        lines.append(f"{values}{sep}{sanitize_attribute_name(label)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_arff(path):
    """Parse the ARFF subset written by write_arff back into a dataset."""
    schema = []
    class_values = None
    rows = []
    labels = []
    in_data = False
    with open_text(path) as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("%"):
                continue
            if not in_data:
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
                        class_values = [v.strip() for v in
                                        rest[1:-1].split(",")]
                    elif rest.upper() in ("NUMERIC", "REAL", "INTEGER"):
                        schema.append(name)
                    else:
                        raise ArffFormatError(path,
                            f"unsupported attribute type {rest!r}", ln)
                    continue
                if upper.startswith("@DATA"):
                    if class_values is None:
                        raise ArffFormatError(path, "no nominal class attribute", ln)
                    in_data = True
                    continue
                raise ArffFormatError(path, f"unexpected header line {line!r}", ln)
            n_values = line.count(",") + 1
            if n_values != len(schema) + 1:
                raise ArffFormatError(path,
                    f"expected {len(schema) + 1} values, got {n_values}", ln)
            if schema:
                values, label = line.rsplit(",", 1)
                try:
                    row = _parse_cells(values)
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
            rows.append(row)
            labels.append(label)
    if not in_data:
        raise ArffFormatError(path, "no @DATA section", 0)
    matrix = np.stack(rows) if rows else np.zeros((0, len(schema)))
    return LabeledDataset(matrix, labels, schema)


def _parse_cells(values):
    """The comma-separated cells as float64, each read as float(cell.strip())
    reads it; ValueError when a cell is not a number.

    numpy reads a str cell exactly as float() does.  str.strip() also removes
    the information separators U+001C to U+001F, which float() rejects, so a
    row that numpy rejects is read again cell by cell.
    """
    cells = values.split(",")
    try:
        return np.array(cells, dtype=np.float64)
    except ValueError:
        return np.array([float(c.strip()) for c in cells], dtype=np.float64)


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
    date: str = None


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
        raw = json.load(open_text(path))
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
                                  concepts=item.get("concepts"),
                                  date=item.get("date"))
        except KeyError as exc:
            raise InputError(f"{path}: entry {i} missing key {exc}") from None
        for kind in ("artist", "album", "audio", "frames", "concepts", "date"):
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
        train, test = [], []
        for label in sorted(by_class):
            entries = by_class[label]
            order = rng.permutation(len(entries))
            cut = want(label)
            train.extend(entries[i].track_id for i in order[:cut])
            test.extend(entries[i].track_id for i in order[cut:])
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


def read_id_list(path):
    return [line for line in open_text(path).read().splitlines()
            if line.strip()]
