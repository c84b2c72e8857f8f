"""Visual-concept score aggregation, per-class salient-concept ranking and
LBP face recognition with chi-square matching.

Concept probabilities are produced externally (per-frame softmax vectors over
a fixed vocabulary) and ingested as CSV; faces arrive as pre-cropped
grayscale images.  Nothing here runs a detector or a network.
"""

import csv
from dataclasses import dataclass

import numpy as np

from . import _kernels, aggregate
from .errors import InputError
from .io import open_text, read_pgm

CONCEPT_PRESETS = {
    "mean": ("mean",),
    "std": ("std",),
    "max": ("max",),
    "max+mean": ("max", "mean"),
    "max+std": ("max", "std"),
}

# the "seven" statistical moments offered for concept aggregation
CONCEPT_MOMENTS = ("min", "max", "mean", "median", "std", "variance",
                   "kurtosis", "skewness")

LBP_GRID = 8


@dataclass
class ConceptScoreSequence:
    """Per-frame concept probability rows over a fixed vocabulary."""
    vocabulary: list
    rows: np.ndarray

    def __post_init__(self):
        self.rows = np.atleast_2d(np.asarray(self.rows, dtype=np.float64))
        if self.rows.shape[1] != len(self.vocabulary):
            raise ValueError("row width does not match vocabulary size")
        if not np.all((self.rows >= -1e-9) & (self.rows <= 1.0 + 1e-9)):
            raise ValueError("concept scores must lie in [0, 1]")
        sums = self.rows.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > 1e-4):
            bad = int(np.argmax(np.abs(sums - 1.0)))
            raise ValueError(f"row {bad} sums to {sums[bad]:.6f}, expected 1")


@dataclass
class ArtistScoreBoard:
    """Per-label vote summary with the log-penalized score."""
    counts: dict
    mean_confidence: dict
    penalized: dict
    winner: str


def aggregate_concepts(seq, spec=("max", "mean")):
    """Aggregate a concept-score sequence into a fixed vector.

    spec is an ordered subset of CONCEPT_MOMENTS (or one of the preset
    names in CONCEPT_PRESETS); the moments follow the aggregate module's
    convention.  The output is block-major, one block of vocabulary-size
    values per moment.
    """
    if isinstance(spec, str):
        try:
            spec = CONCEPT_PRESETS[spec.lower()]
        except KeyError:
            raise ValueError(f"unknown concept preset: {spec!r}") from None
    spec = aggregate.validate_moment_spec(spec)
    unknown = set(spec) - set(CONCEPT_MOMENTS)
    if unknown:
        raise ValueError(f"unknown moments: {sorted(unknown)}")
    if seq.rows.shape[0] == 0:
        raise ValueError("empty concept sequence")
    cols = aggregate._moment_columns(seq.rows, spec)
    return np.concatenate([cols[name] for name in spec])


def concept_schema(vocabulary, spec):
    if isinstance(spec, str):
        spec = CONCEPT_PRESETS[spec.lower()]
    return [f"{m}_{c}" for m in spec for c in vocabulary]


def salient_concepts(class_frequencies, exclusions=()):
    """Rank concepts per class by the largest minimal lead over other classes.

    class_frequencies maps class -> (vocabulary, frequency vector); for a
    class c and concept t the score is min over other classes c' of
    freq(c, t) - freq(c', t).  Excluded concept names are dropped before
    ranking.  Returns class -> list of (concept, score) sorted descending.
    """
    if len(class_frequencies) < 2:
        raise ValueError("need at least two classes")
    items = list(class_frequencies.items())
    vocab = list(items[0][1][0])
    for label, (v, _) in items:
        if list(v) != vocab:
            raise ValueError(f"vocabulary mismatch for class {label!r}")

    keep = [i for i, name in enumerate(vocab) if name not in set(exclusions)]
    names = [vocab[i] for i in keep]
    freq = np.array([np.asarray(f, dtype=np.float64)[keep]
                     for _, (_, f) in items])

    result = {}
    for ci, (label, _) in enumerate(items):
        others = np.delete(freq, ci, axis=0)
        scores = (freq[ci] - others).min(axis=0)
        order = np.argsort(-scores, kind="stable")
        result[label] = [(names[i], float(scores[i])) for i in order]
    return result


def lbp_descriptor(face):
    """Grid-of-histograms LBP face descriptor.

    Each pixel gets an 8-bit code from thresholding its 3x3 neighborhood
    against the center (neighbor >= center sets the bit, clockwise from
    top-left); the image is split into an LBP_GRID x LBP_GRID cell layout and
    each cell contributes a 256-bin histogram normalized to unit sum.  Result
    is the (LBP_GRID*LBP_GRID*256,) concatenation.
    """
    face = np.asarray(face)
    if face.ndim != 2:
        raise ValueError("face must be a 2-D grayscale raster")
    h, w = face.shape
    if h < LBP_GRID or w < LBP_GRID:
        raise ValueError(f"face raster must be at least {LBP_GRID}x{LBP_GRID}")

    codes = _kernels.lbp_codes(face)
    y_edges = np.linspace(0, h, LBP_GRID + 1).astype(np.int64)
    x_edges = np.linspace(0, w, LBP_GRID + 1).astype(np.int64)

    hists = np.empty((LBP_GRID * LBP_GRID, 256))
    cell = 0
    for gy in range(LBP_GRID):
        for gx in range(LBP_GRID):
            block = codes[y_edges[gy]:y_edges[gy + 1],
                          x_edges[gx]:x_edges[gx + 1]]
            counts = np.bincount(block.ravel(), minlength=256)
            hists[cell] = counts / counts.sum()
            cell += 1
    return hists.ravel()


def chi_square(h1, h2):
    """Chi-square histogram dissimilarity: sum (a-b)^2 / (a+b) over occupied
    bins.  Symmetric, 0 for identical histograms."""
    h1 = np.asarray(h1, dtype=np.float64).ravel()
    h2 = np.asarray(h2, dtype=np.float64).ravel()
    if h1.shape != h2.shape:
        raise ValueError("histogram lengths differ")
    total = h1 + h2
    nz = total > 0
    diff = h1[nz] - h2[nz]
    return float(np.sum(diff * diff / total[nz]))


def recognize_face(probe, gallery):
    """Nearest-neighbor identification by chi-square distance.

    gallery is a sequence of (label, descriptor); returns (label, distance,
    confidence) with confidence = 1 / (1 + distance).  Ties resolve to the
    lowest gallery index.
    """
    if not gallery:
        raise ValueError("gallery must not be empty")
    distances = np.array([chi_square(probe, desc) for _, desc in gallery])
    best = int(np.argmin(distances))
    d = float(distances[best])
    return gallery[best][0], d, 1.0 / (1.0 + d)


def artist_score(frame_predictions):
    """Aggregate per-frame (label, confidence) votes into one winner.

    Each label's mean confidence is divided by ln(count) (ln(2) guards the
    single-vote case), punishing supposedly isolated mis-classifications;
    the label with the highest penalized score wins, ties resolving to the
    lexicographically first label.
    """
    if not frame_predictions:
        raise ValueError("no predictions to score")
    counts, sums = {}, {}
    for label, conf in frame_predictions:
        counts[label] = counts.get(label, 0) + 1
        sums[label] = sums.get(label, 0.0) + float(conf)

    mean_conf = {lb: sums[lb] / counts[lb] for lb in counts}
    penalized = {lb: mean_conf[lb] / np.log(max(counts[lb], 2))
                 for lb in counts}
    winner = max(sorted(penalized), key=lambda lb: penalized[lb])
    return ArtistScoreBoard(counts=counts, mean_confidence=mean_conf,
                            penalized=penalized, winner=winner)


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def read_vocabulary(path):
    """One concept name per line; blank lines ignored."""
    with open_text(path) as fh:
        names = [line.strip() for line in fh]
    names = [n for n in names if n]
    if not names:
        raise InputError(f"empty vocabulary file: {path}")
    return names


def read_concept_scores(path, vocabulary):
    """Concept-score CSV: frame_index followed by one probability per concept.

    A header row is detected by a non-numeric first cell.  Rows are ordered
    by frame index.
    """
    rows = []
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        for ln, cells in enumerate(reader, start=1):
            if not cells:
                continue
            try:
                idx = float(cells[0])
            except ValueError:
                if ln == 1:
                    continue  # header
                raise InputError(f"{path}:{ln}: non-numeric frame index")
            try:
                values = [float(c) for c in cells[1:]]
            except ValueError:
                raise InputError(
                    f"{path}:{ln}: non-numeric concept score") from None
            if len(values) != len(vocabulary):
                raise InputError(
                    f"{path}:{ln}: expected {len(vocabulary)} scores, "
                    f"got {len(values)}")
            rows.append((idx, values))
    if not rows:
        raise InputError(f"no score rows in {path}")
    rows.sort(key=lambda r: r[0])
    try:
        return ConceptScoreSequence(vocabulary=list(vocabulary),
                                    rows=np.array([r[1] for r in rows]))
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None


def load_face_gallery(root):
    """Load `<label>/<n>.pgm` grayscale crops into (label, descriptor) pairs.

    Entries are ordered by label, then file name, so gallery indices (and
    therefore tie-breaking) are deterministic.
    """
    from pathlib import Path

    root = Path(root)
    gallery = []
    for label_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        for img_path in sorted(label_dir.glob("*.pgm")):
            gallery.append((label_dir.name, lbp_descriptor(read_pgm(img_path))))
    if not gallery:
        raise InputError(f"no gallery images under {root}")
    return gallery
