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
class FrameFeature:
    name: str
    values: np.ndarray
    degenerate: bool = False


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
    modulation_bins: int
    values: np.ndarray          # (B, M) nonnegative magnitudes
    mod_frequencies: np.ndarray  # (M,) Hz
    short_input: bool = False   # fewer frames than one analysis window


def is_warm(hue):
    """Classify LCH hue angles (radians) into warm (True) / cold (False)."""
    h = np.mod(np.asarray(hue, dtype=np.float64), 2.0 * np.pi)
    return (h < WARM_HUE_HI) | (h > 2.0 * np.pi + WARM_HUE_LO)


def gcs(ihls):
    """Global color statistics, 6 values: mean saturation, mean luminance,
    angular mean/deviation of hue and their saturation-weighted variants.

    Hue statistics use chromatic pixels only; a frame without any chromatic
    pixel gets (0, sqrt(2)) for both hue stats and the degenerate flag.
    """
    mean_sat = float(ihls.saturation.mean())
    mean_lum = float(ihls.luminance.mean())

    hues = ihls.hue[ihls.chromatic]
    if hues.size == 0:
        values = np.array([mean_sat, mean_lum,
                           0.0, MAX_DEVIATION, 0.0, MAX_DEVIATION])
        return FrameFeature("gcs", values, degenerate=True)

    plain = imgprep.circular_stats(hues)
    weighted = imgprep.circular_stats(hues, ihls.saturation[ihls.chromatic])
    values = np.array([mean_sat, mean_lum,
                       plain.angular_mean, plain.angular_deviation,
                       weighted.angular_mean, weighted.angular_deviation])
    return FrameFeature("gcs", values)


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
    return FrameFeature("gev", gev_values(ihls.luminance.mean(),
                                          ihls.saturation.mean()))


def _rgb_cell_centers(partitions):
    step = 256.0 / partitions
    axis = (np.arange(partitions) + 0.5) * step
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
    return grid.reshape(-1, 3)


def rgb_histogram(frame, partitions):
    """Normalized histogram over an RGB cube split into partitions^3 cells."""
    frame = imgprep.as_frame(frame)
    idx = (frame.astype(np.int64) * partitions) // 256
    flat = (idx[..., 0] * partitions + idx[..., 1]) * partitions + idx[..., 2]
    counts = np.bincount(flat.ravel(), minlength=partitions ** 3)
    return counts.astype(np.float64) / counts.sum()


def colorfulness(frame, partitions=4):
    """Colorfulness score: Dmax - EMD(frame histogram, uniform ideal).

    The ideal distribution of a maximally colorful image is uniform over all
    partitioned RGB cells; ground distance is Euclidean between cell centers
    and Dmax is the largest center distance, so a larger score means a more
    colorful frame.
    """
    if partitions < 2:
        raise ValueError("partitions must be >= 2")
    hist = rgb_histogram(frame, partitions)
    centers = _rgb_cell_centers(partitions)
    diff = centers[:, None, :] - centers[None, :, :]
    cost = np.sqrt((diff ** 2).sum(axis=-1))
    ideal = np.full(hist.shape, 1.0 / hist.size)
    distance = _kernels.emd(hist, ideal, cost)
    return FrameFeature("cf", np.array([cost.max() - distance]))


def color_names(frame):
    """Eight-bin elementary-color histogram of an enhanced, dithered frame.

    Pipeline: HSV conversion, CLAHE on the value channel (and, with the same
    parameters, on saturation), ordered-dither quantization against the
    8-color palette with a Bayer threshold map, then a normalized index
    histogram.  Order: magenta, red, yellow, green, cyan, blue, black, white.
    """
    frame = imgprep.as_frame(frame)
    h, s, v = imgprep.rgb_to_hsv(frame)

    v8 = np.clip(np.round(v * 255.0), 0, 255).astype(np.uint8)
    v = imgprep.clahe(v8, CN_CLAHE_TILE, CN_CLAHE_CLIP_LIMIT).astype(np.float64) / 255.0
    s8 = np.clip(np.round(s * 255.0), 0, 255).astype(np.uint8)
    s = imgprep.clahe(s8, CN_CLAHE_TILE, CN_CLAHE_CLIP_LIMIT).astype(np.float64) / 255.0

    enhanced = imgprep.hsv_to_rgb(h, s, v)
    indices = imgprep.ordered_dither_quantize(
        enhanced, CN_PALETTE, _CN_BAYER_MAP, CN_DITHER_SPREAD)
    counts = np.bincount(indices.ravel(), minlength=len(CN_PALETTE))
    return FrameFeature("cn", counts.astype(np.float64) / counts.sum())


def _triangular_memberships(x, centers):
    """Membership of each x in triangles peaking at the given centers.

    Interior triangles fall to zero at the neighboring centers; the
    first/last levels stay at 1 beyond their centers, which makes the
    memberships a partition of unity over the whole real line.
    """
    x = np.asarray(x, dtype=np.float64)
    n = len(centers)
    out = np.zeros(x.shape + (n,))
    for i, c in enumerate(centers):
        m = np.zeros_like(x)
        if i > 0:
            left = centers[i - 1]
            rising = (x > left) & (x <= c)
            m[rising] = (x[rising] - left) / (c - left)
        if i < n - 1:
            right = centers[i + 1]
            falling = (x > c) & (x < right)
            m[falling] = (right - x[falling]) / (right - c)
        m[x == c] = 1.0
        if i == 0:
            m[x < c] = 1.0
        if i == n - 1:
            m[x > c] = 1.0
        out[..., i] = m
    return out


def blur_measure(gray):
    """No-reference sharpness in [0, 1]: 0 maximally blurred, 1 maximally
    sharp.

    Compares neighboring-pixel variation of the raster against a strongly
    box-blurred copy (9-tap, horizontal and vertical): variation that
    survives blurring indicates the image was already smooth.
    """
    gray = np.asarray(gray, dtype=np.float64)
    if gray.ndim != 2 or gray.shape[0] < 3 or gray.shape[1] < 3:
        raise ValueError("blur_measure expects a raster of at least 3x3")

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
    l_m = _triangular_memberships(lch.L.ravel(), WAF_LIGHTNESS_CENTERS)
    warm = is_warm(lch.H.ravel())

    factor_one = np.empty(10)
    for i in range(5):
        level = l_m[:, i]
        factor_one[2 * i] = level[~warm].sum() / n      # cold
        factor_one[2 * i + 1] = level[warm].sum() / n   # warm

    chroma = lch.C.ravel()
    chromatic = chroma >= 1.0
    c_m = _triangular_memberships(chroma, WAF_CHROMA_CENTERS)
    c_m[~chromatic] = 0.0
    factor_two = np.empty(7)
    for i in range(3):
        level = c_m[:, i]
        factor_two[2 * i] = level[warm].sum() / n       # warm share
        factor_two[2 * i + 1] = level[~warm].sum() / n  # cool share
    mad = np.abs(chroma - chroma.mean()).mean()
    factor_two[6] = min(mad / (CHROMA_RANGE / 2.0), 1.0)

    values = np.concatenate([factor_one, factor_two, [float(sharpness)]])
    return FrameFeature("waf", values)


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
        return FrameFeature("ic", np.zeros(4))

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

    values = np.clip(np.array([light_dark, sat, hue, warm_cold]), 0.0, 1.0)
    return FrameFeature("ic", values)


def lightness_histogram(lch, bins=24):
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

    return LfpPattern(lightness_bins=b, modulation_bins=int(keep.sum()),
                      values=acc.T, mod_frequencies=freqs[keep],
                      short_input=t < LFP_WINDOW)


def lfp(frames, fps, bins=24):
    """Lightness fluctuation pattern of an RGB frame sequence.

    Frames are converted to CIELAB and reduced to per-frame lightness
    histograms before the modulation analysis; see lfp_from_histograms.
    """
    hists = [lightness_histogram(imgprep.rgb_to_lch(f), bins) for f in frames]
    if len(hists) < 2:
        raise ValueError("need at least two frames")
    return lfp_from_histograms(np.array(hists), fps)


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


# the per-frame feature sets that read each colour space; WAF takes its
# blur measure from IHLS luminance
IHLS_FEATURES = frozenset({"gcs", "gev", "waf"})
LCH_FEATURES = frozenset({"waf", "ic"})


def frame_features(frame, features, lch=None):
    """Compute the requested per-frame feature sets for one frame.

    Returns a dict name -> FrameFeature.  Each colour space is converted at
    most once; pass a precomputed lch to share it with the LFP histogram.
    """
    out = {}
    ihls = None
    if IHLS_FEATURES & set(features):
        ihls = imgprep.rgb_to_ihls(frame)
    if lch is None and LCH_FEATURES & set(features):
        lch = imgprep.rgb_to_lch(frame)

    for name in features:
        if name == "gcs":
            out[name] = gcs(ihls)
        elif name == "gev":
            out[name] = gev(ihls)
        elif name == "cf":
            out[name] = colorfulness(frame)
        elif name == "cn":
            out[name] = color_names(frame)
        elif name == "waf":
            out[name] = waf(lch, blur_measure(ihls.luminance * 255.0))
        elif name == "ic":
            out[name] = itten_contrasts(segment_frame(lch))
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
        lch = imgprep.rgb_to_lch(frame) if want_lfp else None
        feats = frame_features(frame, wanted, lch=lch)
        for name in wanted:
            rows[name].append(feats[name].values)
        if want_lfp:
            hists.append(lightness_histogram(lch, LFP_PRESET_BINS[lfp_preset]))
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
