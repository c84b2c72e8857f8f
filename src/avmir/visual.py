"""Per-frame and per-video visual descriptors.

Covers global color statistics (GCS), pleasure/arousal/dominance emotion
values (GEV), EMD-based colorfulness (CF), the eight-color Color Names
histogram (CN), the three affective color factors (WAF), Itten-style color
contrasts (IC) and lightness fluctuation patterns (LFP).
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels, imgprep

# per-frame dimensionality of each feature set
FRAME_FEATURE_DIMS = {"gcs": 6, "gev": 3, "cf": 1, "cn": 8, "waf": 18, "ic": 4}

MAX_DEVIATION = float(np.sqrt(2.0))

# eight elementary colors: magenta, red, yellow, green, cyan, blue, black, white
CN_PALETTE = np.array([
    [255, 0, 255],
    [255, 0, 0],
    [255, 255, 0],
    [0, 255, 0],
    [0, 255, 255],
    [0, 0, 255],
    [0, 0, 0],
    [255, 255, 255],
], dtype=np.float64)

CN_COLOR_ORDER = ("magenta", "red", "yellow", "green", "cyan", "blue",
                  "black", "white")

# Color Names: CLAHE tile (width, height) and clip limit, Bayer map order
# and dither spread (RGB levels)
CN_CLAHE_TILE = (22, 22)
CN_CLAHE_CLIP_LIMIT = 1.0
CN_BAYER_ORDER = 32
CN_DITHER_SPREAD = 64.0
_CN_BAYER_MAP = imgprep.bayer_matrix(CN_BAYER_ORDER)

# Colorfulness: the RGB cube split into CF_PARTITIONS^3 cells; the EMD ground
# distance CF_COST is Euclidean between cell centers, its largest value is
# Dmax and the ideal distribution of a maximally colorful image is uniform
CF_PARTITIONS = 4
_CF_AXIS = (np.arange(CF_PARTITIONS) + 0.5) * (256.0 / CF_PARTITIONS)
CF_CENTERS = np.stack(np.meshgrid(_CF_AXIS, _CF_AXIS, _CF_AXIS, indexing="ij"),
                      axis=-1).reshape(-1, 3)
CF_COST = np.sqrt(((CF_CENTERS[:, None, :] - CF_CENTERS[None, :, :]) ** 2)
                  .sum(axis=-1))
_CF_DMAX = CF_COST.max()
_CF_IDEAL = np.full(len(CF_CENTERS), 1.0 / len(CF_CENTERS))

SEGMENT_BLOCK = 16       # side of the Itten-contrast grid cells (pixels)
LFP_MAX_MOD_FREQ = 10.0  # highest LFP modulation frequency kept (Hz)
LFP_WINDOW = 512         # LFP FFT window (frames)

# fuzzy membership centers (documented choices; see module docstrings)
WAF_LIGHTNESS_CENTERS = (10.0, 30.0, 50.0, 70.0, 90.0)
WAF_CHROMA_CENTERS = (15.0, 45.0, 80.0)
# warm hues: LCH hue angle within (-70 deg, 110 deg)
WARM_HUE_LO = np.deg2rad(-70.0)
WARM_HUE_HI = np.deg2rad(110.0)
# approximate maximal sRGB chroma, used to normalize chroma dispersions
CHROMA_RANGE = 134.0


@dataclass
class SegmentationMap:
    labels: np.ndarray          # (H, W) int segment ids, contiguous from 0
    segment_count: int
    mean_l: np.ndarray          # per-segment mean lightness
    mean_c: np.ndarray          # per-segment mean chroma
    mean_h: np.ndarray          # per-segment chroma-weighted circular mean hue
    areas: np.ndarray           # per-segment pixel counts


@dataclass
class LfpPattern:
    lightness_bins: int
    values: np.ndarray          # (B, M) nonnegative magnitudes
    mod_frequencies: np.ndarray  # (M,) Hz
    short_input: bool = False   # fewer frames than one analysis window


def is_warm(hue):
    """Classify LCH hue angles (radians) into warm (True) / cold (False)."""
    h = imgprep.wrap_angle(hue)
    return (h < WARM_HUE_HI) | (h > 2.0 * np.pi + WARM_HUE_LO)


def gcs(ihls):
    """Global color statistics, 6 values: mean saturation, mean luminance,
    angular mean/deviation of hue and their saturation-weighted variants.

    Hue statistics use chromatic pixels only; a frame without any chromatic
    pixel gets (0, sqrt(2)) for both hue stats.
    """
    mean_sat = float(ihls.saturation.mean())
    mean_lum = float(ihls.luminance.mean())

    hues = ihls.hue[ihls.chromatic]
    if hues.size == 0:
        return np.array([mean_sat, mean_lum,
                         0.0, MAX_DEVIATION, 0.0, MAX_DEVIATION])

    # both statistics share the sines and cosines of the hues
    sin_h, cos_h = np.sin(hues), np.cos(hues)
    plain = imgprep._circular_stats(hues, None, sin_h, cos_h)
    weighted = imgprep._circular_stats(
        hues, ihls.saturation[ihls.chromatic], sin_h, cos_h)
    return np.array([mean_sat, mean_lum,
                     plain.angular_mean, plain.angular_deviation,
                     weighted.angular_mean, weighted.angular_deviation])


def gev_values(brightness, saturation):
    """Pleasure/arousal/dominance from mean brightness B and saturation S."""
    b = float(brightness)
    s = float(saturation)
    return np.array([
        0.69 * b + 0.22 * s,
        -0.31 * b + 0.60 * s,
        0.76 * b + 0.32 * s,
    ])


def gev(ihls):
    """Global emotion values of a frame (3 values)."""
    return gev_values(ihls.luminance.mean(), ihls.saturation.mean())


def rgb_histogram(frame):
    """Normalized histogram over the CF_PARTITIONS^3 cells of the RGB cube,
    in CF_CENTERS order."""
    frame = imgprep.as_frame(frame)
    idx = (frame.astype(np.int64) * CF_PARTITIONS) // 256
    flat = ((idx[..., 0] * CF_PARTITIONS + idx[..., 1]) * CF_PARTITIONS
            + idx[..., 2])
    counts = np.bincount(flat.ravel(), minlength=len(CF_CENTERS))
    return counts.astype(np.float64) / counts.sum()


def colorfulness(frame):
    """Colorfulness score (1 value): Dmax - EMD(frame histogram, uniform
    ideal) over the CF cells, so a larger score means a more colorful frame.
    """
    distance = _kernels.emd(rgb_histogram(frame), _CF_IDEAL, CF_COST)
    return np.array([_CF_DMAX - distance])


def _clahe_unit(plane):
    """CN's CLAHE of a [0, 1] plane, through 8-bit levels and back."""
    levels = np.clip(np.round(plane * 255.0), 0, 255).astype(np.uint8)
    return _kernels.clahe_u8(levels, *CN_CLAHE_TILE, CN_CLAHE_CLIP_LIMIT) / 255.0


def color_names(hsv):
    """Eight-bin elementary-color histogram of an enhanced, dithered frame,
    given its (h, s, v) planes (imgprep.FrameContext.hsv).

    Pipeline: CLAHE on the value channel (and, with the same parameters, on
    saturation), ordered-dither quantization against the 8-color palette
    with a Bayer threshold map, then a normalized index histogram.  Order:
    magenta, red, yellow, green, cyan, blue, black, white.
    """
    h, s, v = hsv
    enhanced = imgprep.hsv_to_rgb(h, _clahe_unit(s), _clahe_unit(v))
    indices = _kernels.dither_indices(enhanced, CN_PALETTE, _CN_BAYER_MAP,
                                      CN_DITHER_SPREAD)
    counts = np.bincount(indices.ravel(), minlength=len(CN_PALETTE))
    return counts.astype(np.float64) / counts.sum()


def _triangular_memberships(x, centers):
    """Membership of each x in triangles peaking at the given centers.

    Interior triangles fall to zero at the neighboring centers; the
    first/last levels stay at 1 beyond their centers, which makes the
    memberships a partition of unity over the whole real line.
    """
    x = np.asarray(x, dtype=np.float64)
    n = len(centers)
    # one contiguous plane per center, so each level reads as a plain array
    out = np.empty((n,) + x.shape)
    for i, c in enumerate(centers):
        # each edge is exactly 1 at c and reaches 0 at the neighboring
        # center; the smaller edge, clipped to [0, 1], is the triangle, and
        # a missing edge (the outer levels) stays at 1
        rise = (x - centers[i - 1]) / (c - centers[i - 1]) if i > 0 else 1.0
        fall = (centers[i + 1] - x) / (centers[i + 1] - c) if i < n - 1 else 1.0
        np.clip(np.minimum(rise, fall), 0.0, 1.0, out=out[i])
    return np.moveaxis(out, 0, -1)


def blur_measure(gray):
    """No-reference sharpness in [0, 1]: 0 maximally blurred, 1 maximally
    sharp.

    Compares neighboring-pixel variation of the raster against a strongly
    box-blurred copy (9-tap, horizontal and vertical, edge-padded):
    variation that survives blurring indicates the image was already
    smooth.  An axis shorter than 2 pixels has no variation and counts as
    fully blurred, so a single row or column scores 0.
    """
    gray = np.asarray(gray, dtype=np.float64)
    if gray.ndim != 2 or gray.size == 0:
        raise ValueError("blur_measure expects a non-empty 2-D raster")

    def box1d(data, axis):
        kernel = np.ones(9) / 9.0
        pad = [(0, 0), (0, 0)]
        pad[axis] = (4, 4)
        padded = np.pad(data, pad, mode="edge")
        return np.apply_along_axis(
            lambda m: np.convolve(m, kernel, mode="valid"), axis, padded)

    blur_scores = []
    for axis in (0, 1):
        blurred = box1d(gray, axis)
        d_orig = np.abs(np.diff(gray, axis=axis))
        d_blur = np.abs(np.diff(blurred, axis=axis))
        kept = np.maximum(d_orig - d_blur, 0.0)
        total = d_orig.sum()
        if total <= 0:
            blur_scores.append(1.0)
        else:
            blur_scores.append((total - kept.sum()) / total)
    return float(1.0 - max(blur_scores))


def waf(lch, sharpness):
    """Affective color factors, 18 values.

    Factor one (10): fuzzy 5-level lightness histogram (very dark .. very
    bright) crossed with the warm/cold hue classes; achromatic pixels fall in
    the warm class through the hue-0 convention.  Factor two (7): warm and
    cool area shares at three chroma levels plus one chroma-contrast value.
    Factor three (1): the supplied sharpness.
    """
    n = lch.L.size
    # (levels, pixels): one contiguous row per membership level
    l_m = _triangular_memberships(lch.L.ravel(), WAF_LIGHTNESS_CENTERS).T
    warm_hue = is_warm(lch.H.ravel())
    # masked sums as gathers by index: the same elements in the same order
    warm, cold = np.flatnonzero(warm_hue), np.flatnonzero(~warm_hue)

    factor_one = np.empty(10)
    for i in range(5):
        factor_one[2 * i] = l_m[i].take(cold).sum() / n      # cold
        factor_one[2 * i + 1] = l_m[i].take(warm).sum() / n  # warm

    chroma = lch.C.ravel()
    c_m = _triangular_memberships(chroma, WAF_CHROMA_CENTERS).T
    c_m *= chroma >= 1.0  # achromatic pixels belong to no chroma level
    factor_two = np.empty(7)
    for i in range(3):
        factor_two[2 * i] = c_m[i].take(warm).sum() / n      # warm share
        factor_two[2 * i + 1] = c_m[i].take(cold).sum() / n  # cool share
    mad = np.abs(chroma - chroma.mean()).mean()
    factor_two[6] = min(mad / (CHROMA_RANGE / 2.0), 1.0)

    return np.concatenate([factor_one, factor_two, [float(sharpness)]])


def segment_frame(lch):
    """Split a frame's LCH planes into SEGMENT_BLOCK x SEGMENT_BLOCK grid
    cells (smaller at the right and bottom edges) and gather per-segment
    LCH statistics."""
    h, w = lch.L.shape
    by = np.arange(h) // SEGMENT_BLOCK
    bx = np.arange(w) // SEGMENT_BLOCK
    n_bx = (w + SEGMENT_BLOCK - 1) // SEGMENT_BLOCK
    labels = by[:, None] * n_bx + bx[None, :]

    count = int(labels.max()) + 1
    flat = labels.ravel()
    areas = np.bincount(flat, minlength=count).astype(np.float64)

    mean_l = np.bincount(flat, weights=lch.L.ravel(), minlength=count) / areas
    mean_c = np.bincount(flat, weights=lch.C.ravel(), minlength=count) / areas

    cw = lch.C.ravel()
    sin_sum = np.bincount(flat, weights=cw * np.sin(lch.H.ravel()), minlength=count)
    cos_sum = np.bincount(flat, weights=cw * np.cos(lch.H.ravel()), minlength=count)
    mean_h = imgprep.wrap_angle(np.arctan2(sin_sum, cos_sum))

    return SegmentationMap(labels=labels.reshape(h, w), segment_count=count,
                           mean_l=mean_l, mean_c=mean_c, mean_h=mean_h,
                           areas=areas)


def itten_contrasts(seg):
    """Four art-theory color contrasts over the segments, each in [0, 1]:
    light/dark, saturation, hue and warm/cold balance.

    Light/dark and saturation contrasts are area-weighted mean absolute
    deviations of the per-segment means, normalized by half the channel
    range; hue contrast is the area-weighted circular deviation of segment
    hues scaled by 1/sqrt(2); warm/cold is 1 - |warm - cold| of the chromatic
    segment area shares.
    """
    if seg.segment_count <= 1:
        return np.zeros(4)

    areas = seg.areas / seg.areas.sum()

    mean_l = float(np.sum(areas * seg.mean_l))
    light_dark = float(np.sum(areas * np.abs(seg.mean_l - mean_l))) / 50.0

    mean_c = float(np.sum(areas * seg.mean_c))
    sat = float(np.sum(areas * np.abs(seg.mean_c - mean_c))) / (CHROMA_RANGE / 2.0)

    chromatic = seg.mean_c >= 1.0
    if np.any(chromatic):
        stats = imgprep.circular_stats(seg.mean_h[chromatic],
                                       seg.areas[chromatic])
        hue = stats.angular_deviation / MAX_DEVIATION
        warm = is_warm(seg.mean_h[chromatic])
        chrom_area = seg.areas[chromatic].sum()
        warm_share = seg.areas[chromatic][warm].sum() / chrom_area
        warm_cold = 1.0 - abs(warm_share - (1.0 - warm_share))
    else:
        hue = 0.0
        warm_cold = 0.0

    return np.clip(np.array([light_dark, sat, hue, warm_cold]), 0.0, 1.0)


def lightness_histogram(lch, bins):
    """Normalized histogram of the CIELAB L channel over [0, 100]."""
    counts, _ = np.histogram(lch.L, bins=bins, range=(0.0, 100.0))
    return counts.astype(np.float64) / lch.L.size


def lfp_from_histograms(hists, fps):
    """Lightness fluctuation pattern from a (T, B) histogram time series.

    Per lightness bin the magnitude spectrum of the time series is taken
    over LFP_WINDOW-frame windows (averaged) and the modulation bins in
    (0, LFP_MAX_MOD_FREQ] Hz are retained; DC is excluded.  Inputs shorter
    than one window are zero-padded into a single window and flagged; beyond
    that, only complete windows enter (a partial tail is dropped) so that a
    constant video stays exactly silent.
    """
    hists = np.asarray(hists, dtype=np.float64)
    if hists.ndim != 2 or hists.shape[0] < 2:
        raise ValueError("need at least two frames of histograms")
    if fps <= 2.0 * LFP_MAX_MOD_FREQ:
        raise ValueError("fps must exceed twice the maximum modulation frequency")

    t, b = hists.shape
    n_windows = max(1, t // LFP_WINDOW)
    padded = np.zeros((n_windows * LFP_WINDOW, b))
    padded[:min(t, n_windows * LFP_WINDOW)] = hists[:n_windows * LFP_WINDOW]

    freqs = np.fft.rfftfreq(LFP_WINDOW, d=1.0 / fps)
    keep = (freqs > 0) & (freqs <= LFP_MAX_MOD_FREQ)

    acc = np.zeros((keep.sum(), b))
    for k in range(n_windows):
        seg = padded[k * LFP_WINDOW:(k + 1) * LFP_WINDOW]
        acc += np.abs(np.fft.rfft(seg, axis=0))[keep]
    acc /= n_windows

    return LfpPattern(lightness_bins=b, values=acc.T,
                      mod_frequencies=freqs[keep],
                      short_input=t < LFP_WINDOW)


def _band_sums(pattern, n_bands):
    """Group modulation bins into n_bands equal-width bands over (0, max]."""
    max_f = pattern.mod_frequencies[-1]
    edges = np.linspace(0.0, max_f, n_bands + 1)
    band_idx = np.clip(np.searchsorted(edges, pattern.mod_frequencies,
                                       side="left") - 1, 0, n_bands - 1)
    out = np.zeros((pattern.values.shape[0], n_bands))
    for col, bi in enumerate(band_idx):
        out[:, bi] += pattern.values[:, col]
    return out


def lfp_feature(pattern, preset="paper-80"):
    """Fixed-dimension LFP vector.

    preset "paper-80": 8 lightness bins x 10 one-Hz modulation bands (80);
    preset "paper-60": 60 modulation bands summed over lightness bins (60).
    """
    if preset == "paper-80":
        if pattern.lightness_bins != 8:
            raise ValueError("paper-80 preset needs 8 lightness bins")
        return _band_sums(pattern, 10).ravel()
    if preset == "paper-60":
        return _band_sums(pattern, 60).sum(axis=0)
    raise ValueError(f"unknown LFP preset: {preset!r}")


LFP_PRESET_BINS = {"paper-80": 8, "paper-60": 24}
LFP_PRESET_DIMS = {"paper-80": 80, "paper-60": 60}


def frame_features(ctx, features):
    """The requested per-frame feature sets of one imgprep.FrameContext,
    as a dict name -> float64 array.

    Each color space is converted at most once, and only if a requested
    feature reads it.
    """
    out = {}
    for name in features:
        if name == "gcs":
            out[name] = gcs(ctx.ihls)
        elif name == "gev":
            out[name] = gev(ctx.ihls)
        elif name == "cf":
            out[name] = colorfulness(ctx.frame)
        elif name == "cn":
            out[name] = color_names(ctx.hsv)
        elif name == "waf":
            out[name] = waf(ctx.lch, blur_measure(ctx.ihls.luminance * 255.0))
        elif name == "ic":
            out[name] = itten_contrasts(segment_frame(ctx.lch))
        else:
            raise ValueError(f"unknown frame feature: {name!r}")
    return out


def extract_video_features(frames, features, fps=25.0, lfp_preset="paper-80",
                           crop_letterbox=True):
    """Single-pass per-video feature extraction.

    frames is any iterable of RGB frames.  Per-frame feature sets are
    aggregated downstream (module aggregate); this function returns
    (per_frame_matrix dict, lfp_pattern or None).  The frame stream is
    consumed exactly once.
    """
    wanted = [f for f in features if f != "lfp"]
    want_lfp = "lfp" in features
    unknown = set(wanted) - set(FRAME_FEATURE_DIMS)
    if unknown:
        raise ValueError(f"unknown features: {sorted(unknown)}")

    rows = {name: [] for name in wanted}
    hists = []
    n = 0
    for frame in frames:
        if crop_letterbox:
            frame = imgprep.strip_letterbox(frame)
        ctx = imgprep.FrameContext(frame)
        feats = frame_features(ctx, wanted)
        for name in wanted:
            rows[name].append(feats[name])
        if want_lfp:
            hists.append(lightness_histogram(ctx.lch,
                                             LFP_PRESET_BINS[lfp_preset]))
        n += 1

    if n == 0:
        raise ValueError("empty frame stream")

    matrices = {name: np.array(rows[name]) for name in wanted}
    pattern = None
    if want_lfp:
        if n < 2:
            raise ValueError("lfp needs at least two frames")
        pattern = lfp_from_histograms(np.array(hists), fps)
        if pattern.short_input:
            warnings.warn("fewer frames than one LFP window; zero-padded")
    return matrices, pattern
