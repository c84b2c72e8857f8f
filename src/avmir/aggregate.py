"""Statistical-moment aggregation of vector sequences into fixed-length
track vectors.

_moment_columns is the toolkit's only moment arithmetic.  It serves the
EN0..EN5/TEN preset family, the seven-moment aggregation of per-frame visual
features, the statistical spectrum descriptors of module audio and the
concept-score moments of module concepts."""

import warnings
from dataclasses import dataclass

import numpy as np

# canonical eight-moment order used by the EN presets
TEN_MOMENTS = ("mean", "median", "variance", "min", "max", "range",
               "skewness", "kurtosis")

# seven-moment order used to aggregate per-frame visual features
VISUAL_MOMENTS = ("mean", "median", "std", "min", "max", "skewness",
                  "kurtosis")

# seven-moment order of the statistical spectrum descriptors (SSD, MVD and
# the temporal TSSD/TRH) in module audio
SSD_MOMENTS = ("min", "max", "mean", "median", "variance", "skewness",
               "kurtosis")

_KNOWN_MOMENTS = frozenset(TEN_MOMENTS) | {"std"}

BUNDLE_SEGMENT_SECONDS = 1.0  # segment length of segment_bundle_from_audio


@dataclass
class SegmentBundle:
    """Per-segment descriptor sequences of one track.

    timbre and pitches are (S, 12); loudness_max, loudness_max_time and
    segment_length are (S,).  All sequences share the segment count S >= 1.
    """
    timbre: np.ndarray
    pitches: np.ndarray
    loudness_max: np.ndarray
    loudness_max_time: np.ndarray
    segment_length: np.ndarray

    def __post_init__(self):
        self.timbre = np.atleast_2d(np.asarray(self.timbre, dtype=np.float64))
        self.pitches = np.atleast_2d(np.asarray(self.pitches, dtype=np.float64))
        self.loudness_max = np.asarray(self.loudness_max, dtype=np.float64).ravel()
        self.loudness_max_time = np.asarray(self.loudness_max_time,
                                            dtype=np.float64).ravel()
        self.segment_length = np.asarray(self.segment_length,
                                         dtype=np.float64).ravel()
        s = self.timbre.shape[0]
        if s < 1:
            raise ValueError("bundle needs at least one segment")
        for name in ("pitches", "loudness_max", "loudness_max_time",
                     "segment_length"):
            if getattr(self, name).shape[0] != s:
                raise ValueError(f"{name} length does not match segment count")
        if np.any(self.segment_length <= 0):
            raise ValueError("segment lengths must be positive")


def validate_moment_spec(spec, known=_KNOWN_MOMENTS):
    spec = tuple(spec)
    if not spec:
        raise ValueError("moment spec must be non-empty")
    if len(set(spec)) != len(spec):
        raise ValueError("moment spec must not contain duplicates")
    unknown = set(spec).difference(known)
    if unknown:
        raise ValueError(f"unknown moments: {sorted(unknown)}")
    return spec


def _moment_columns(seq, spec):
    """One column per moment name, each of length d."""
    mean = seq.mean(axis=0)
    # dispersion is computed on magnitude-normalized values so extreme data
    # scales cannot push the intermediate squares into the subnormal range;
    # centring after scaling keeps a subnormal spread from being centred
    # around a mean that rounded to one of its ends;
    # a dimension whose relative spread sits at float rounding level counts
    # as constant for the zero-variance convention (skew = kurt = 0)
    scale = np.abs(seq).max(axis=0)
    safe_scale = np.where(scale > 0, scale, 1.0)
    scaled = seq / safe_scale
    c = scaled - scaled.mean(axis=0)
    var_rel = (c ** 2).mean(axis=0)
    sd_rel = np.sqrt(var_rel)
    var = var_rel * safe_scale * safe_scale
    degenerate = sd_rel <= 1e-12
    z = np.where(degenerate, 0.0, c / np.where(degenerate, 1.0, sd_rel))
    cols = {}
    for name in spec:
        if name == "mean":
            cols[name] = mean
        elif name == "median":
            cols[name] = np.median(seq, axis=0)
        elif name == "variance":
            cols[name] = var
        elif name == "std":
            cols[name] = sd_rel * safe_scale
        elif name == "min":
            cols[name] = seq.min(axis=0)
        elif name == "max":
            cols[name] = seq.max(axis=0)
        elif name == "range":
            cols[name] = seq.max(axis=0) - seq.min(axis=0)
        elif name == "skewness":
            cols[name] = (z ** 3).mean(axis=0)
        elif name == "kurtosis":
            cols[name] = (z ** 4).mean(axis=0)
    return cols


def moments(seq, spec=TEN_MOMENTS):
    """Aggregate a sequence of d-vectors into a d*len(spec) vector.

    Layout is dimension-major: for each input dimension, its moments appear
    in spec order.  Population variance; skewness/kurtosis are standardized
    central moments (kurtosis not excess), 0 for zero-variance dimensions.
    """
    seq = np.atleast_2d(np.asarray(seq, dtype=np.float64))
    if seq.shape[0] == 0:
        raise ValueError("cannot aggregate an empty sequence")
    spec = validate_moment_spec(spec)
    cols = _moment_columns(seq, spec)
    stacked = np.stack([cols[name] for name in spec], axis=1)  # (d, m)
    return stacked.ravel()


def moment_schema(dim_names, spec):
    """Feature names matching the moments() layout."""
    return [f"{d}_{m}" for d in dim_names for m in spec]


def _timbre_covariance(bundle):
    """EN3: the timbre mean, then the row-major upper triangle (diagonal
    included) of the timbre's population covariance."""
    seq = bundle.timbre
    if seq.shape[0] < 2:
        warnings.warn("EN3 covariance of a single segment is degenerate")
    mean = seq.mean(axis=0)
    centered = seq - mean
    cov = centered.T @ centered / seq.shape[0]
    return np.concatenate([mean, cov[np.triu_indices(len(cov))]])


def _ten_moments(*seqs):
    return np.concatenate([moments(seq, TEN_MOMENTS) for seq in seqs])


# segment presets: name -> (values per track, function that computes them
# from one SegmentBundle); EN5 and TEN take the TEN_MOMENTS of each
# sequence.  Each entry calls its functions through the module globals, so
# a function replaced on the module after import is the one that runs.
PRESETS = {
    "EN0": (12, lambda b: b.timbre.mean(axis=0)),
    "EN1": (24, lambda b: moments(b.timbre, ("mean", "variance"))),
    "EN2": (24, lambda b: moments(b.pitches, ("mean", "variance"))),
    "EN3": (90, _timbre_covariance),
    "EN4": (96, lambda b: moments(b.timbre, TEN_MOMENTS)),
    "EN5": (192, lambda b: _ten_moments(b.timbre, b.pitches)),
    "TEN": (216, lambda b: _ten_moments(
        b.timbre, b.pitches, b.loudness_max[:, None],
        b.loudness_max_time[:, None], b.segment_length[:, None])),
}


def preset(bundle, name):
    """The PRESETS entry `name` of a segment bundle."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset: {name!r}")
    return PRESETS[name][1](bundle)


def segment_bundle_from_audio(clip):
    """Deterministic stand-in for an onset-aligned segment analyzer.

    The clip is resampled to the analysis rate and cut into
    BUNDLE_SEGMENT_SECONDS segments; per segment the timbre proxy is the
    mean of MFCC coefficients 1..12 (the gain coefficient is dropped), the
    pitch proxy the mean chroma vector, plus peak absolute amplitude, its
    offset within the segment and the segment length.

    The segments are views of the clip's samples, which stay the one
    whole-clip array: the MFCC and chroma spectra go segment by segment
    and block by block, and each peak is found from the segment's maximum
    and minimum without an absolute-value copy.
    """
    # imported here, not at load: audio imports this module, and the
    # two imports at load would form a cycle
    from . import audio

    clip = audio.resample(clip)
    if clip.duration < 2 * BUNDLE_SEGMENT_SECONDS:
        raise ValueError("clip too short: need at least two segments")
    seg_len = int(round(BUNDLE_SEGMENT_SECONDS * audio.ANALYSIS_RATE))
    n_seg = clip.samples.size // seg_len
    segments = clip.samples[:n_seg * seg_len].reshape(n_seg, seg_len)

    timbre = [audio.mfcc(audio.AudioClip(seg, audio.ANALYSIS_RATE))
              [:, 1:13].mean(axis=0) for seg in segments]
    pitches = [audio.chroma(seg)[0].mean(axis=0) for seg in segments]
    peaks = _first_abs_peaks(segments)
    return SegmentBundle(
        timbre=timbre,
        pitches=pitches,
        loudness_max=np.abs(segments[np.arange(n_seg), peaks]),
        loudness_max_time=peaks / audio.ANALYSIS_RATE,
        segment_length=np.full(n_seg, BUNDLE_SEGMENT_SECONDS),
    )


def _first_abs_peaks(rows):
    """np.abs(rows).argmax(axis=1) without the copy: the first index of
    each row's largest magnitude, which is its first maximum or its first
    minimum, whichever is larger in magnitude, or earlier on a tie.  A row
    with NaN gives its first NaN, as argmax does."""
    index = np.arange(len(rows))
    hi, lo = rows.argmax(axis=1), rows.argmin(axis=1)
    top, bottom = rows[index, hi], -rows[index, lo]
    return np.where(top > bottom, hi,
                    np.where(bottom > top, lo, np.minimum(hi, lo)))
