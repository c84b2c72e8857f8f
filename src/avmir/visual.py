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
# CN dithers in 8-bit levels.  Its palette holds the corners of the RGB cube,
# and a Bayer value k (0 .. order^2 - 1) offsets each channel level L by
# spread * (k / order^2 - 0.5) = k / 16 - 32, so every squared RGB distance
# to a corner is exact in float64, and the nearest corners are decided
# channel by channel: L + offset > 127.5 (nearer 255 than 0) exactly when
# scale * L + k > tie, with scale = order^2 / spread = 16 and
# tie = scale * 127.5 + order^2 / 2 = 2552; equality is a tie
_CN_SCALE = int(CN_BAYER_ORDER ** 2 / CN_DITHER_SPREAD)
_CN_TIE = int(_CN_SCALE * 127.5 + CN_BAYER_ORDER ** 2 / 2)
_CN_TMAP = (imgprep.bayer_matrix(CN_BAYER_ORDER) * CN_BAYER_ORDER ** 2
            ).astype(np.int16) - np.int16(_CN_TIE)
_CN_CORNERS = _kernels.corner_table(CN_PALETTE)

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
# LCH chroma below which a pixel (WAF) or a segment mean (IC) is achromatic
ACHROMATIC_CHROMA = 1.0


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
    """Classify an array of LCH hue angles in [0, 2pi) (radians, as
    imgprep.wrap_angle gives) into warm (True) / cold (False)."""
    return (hue < WARM_HUE_HI) | (hue > 2.0 * np.pi + WARM_HUE_LO)


def gcs(ihls):
    """Global color statistics, 6 values: mean saturation, mean luminance,
    angular mean/deviation of hue and their saturation-weighted variants.

    Hue statistics use chromatic pixels only; a frame without any chromatic
    pixel gets (0, sqrt(2)) for both hue stats.
    """
    mean_sat = float(ihls.saturation.mean())
    mean_lum = float(ihls.luminance.mean())

    chromatic = ihls.chromatic.ravel()
    if not chromatic.any():
        return np.array([mean_sat, mean_lum,
                         0.0, MAX_DEVIATION, 0.0, MAX_DEVIATION])

    # both statistics read the hue vectors of every pixel, and weight 0
    # drops the achromatic ones
    cos_h, sin_h = ihls.hue_cos.ravel(), ihls.hue_sin.ravel()
    plain = imgprep.circular_stats(cos_h, sin_h, chromatic)
    weighted = imgprep.circular_stats(cos_h, sin_h,
                                      ihls.saturation.ravel() * chromatic)
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
    # a level's cell index, level * CF_PARTITIONS // 256, is level >> 6,
    # and a pixel's cell (r * 4 + g) * 4 + b packs the three into 6 bits
    idx = imgprep.as_frame(frame) >> 6
    flat = (idx[..., 0] << 4) | (idx[..., 1] << 2) | idx[..., 2]
    counts = np.bincount(flat.ravel(), minlength=len(CF_CENTERS))
    return counts.astype(np.float64) / counts.sum()


def _cf_distance(hist):
    """EMD from a normalized CF histogram to the uniform ideal."""
    # CF_COST is a metric, so by the triangle inequality some optimal flow
    # leaves min(h_i, 1/64) in place in every cell: only the surplus cells
    # send, only the deficit cells receive, and the rest cost nothing
    excess = hist - _CF_IDEAL
    surplus, deficit = excess > 0, excess < 0
    mass = excess[surplus].sum()
    if mass <= 0:
        return 0.0
    return mass * _kernels.emd(excess[surplus], -excess[deficit],
                               CF_COST[np.ix_(surplus, deficit)])


def colorfulness(frame):
    """Colorfulness score (1 value): Dmax - EMD(frame histogram, uniform
    ideal) over the CF cells, so a larger score means a more colorful frame.
    """
    return np.array([_CF_DMAX - _cf_distance(rgb_histogram(frame))])


def color_names(hue, s, v):
    """Eight-bin elementary-color histogram of an enhanced, dithered frame,
    given its HSV hue in degrees and its 8-bit s and v levels
    (imgprep.FrameContext.hsv_levels).

    Pipeline: CLAHE on the s and v levels (one pass, same parameters), then
    ordered-dither quantization of the enhanced HSV pixels against the
    8-color palette with a Bayer threshold map, then a normalized index
    histogram.  Order: magenta, red, yellow, green, cyan, blue, black,
    white.
    """
    s, v = _kernels.clahe_u8(np.stack((s, v)), *CN_CLAHE_TILE,
                             CN_CLAHE_CLIP_LIMIT)
    indices = _kernels.dither_indices(hue, s, v, _CN_TMAP, _CN_SCALE,
                                      _CN_CORNERS)
    counts = np.bincount(indices.ravel(), minlength=len(CN_PALETTE))
    return counts.astype(np.float64) / counts.sum()


def _triangular_memberships(x, centers):
    """Membership of each x in triangles peaking at the given centers (at
    least two, ascending).

    Interior triangles fall to zero at the neighboring centers; the
    first/last levels stay at 1 beyond their centers, which makes the
    memberships a partition of unity over the whole real line.
    """
    x = np.asarray(x, dtype=np.float64)
    n = len(centers)
    # one contiguous plane per center, so each level reads as a plain array
    out = np.empty((n,) + x.shape)
    fall = np.empty(x.shape)
    for i, c in enumerate(centers):
        # each edge is exactly 1 at c and reaches 0 at the neighboring
        # center; the smaller edge, clipped to [0, 1], is the triangle, and
        # a missing edge (the outer levels) stays at 1, which the clip
        # also gives
        level = out[i]
        if i > 0:
            np.subtract(x, centers[i - 1], out=level)
            level /= c - centers[i - 1]
        if i < n - 1:
            edge = fall if i > 0 else level
            np.subtract(centers[i + 1], x, out=edge)
            edge /= centers[i + 1] - c
            if i > 0:
                np.minimum(level, fall, out=level)
        np.clip(level, 0.0, 1.0, out=level)
    return np.moveaxis(out, 0, -1)


def _box_blur(data, axis):
    """The 9-tap box blur of blur_measure along axis, edge-padded.

    The lines along axis, each padded by 4 samples at both ends, are laid
    end to end, followed by 8 zeros, and blurred by one np.convolve; each
    line keeps its own valid outputs, which are the same 9-term dot
    products over the same samples as a convolve of that line alone.
    """
    lines = data if axis == 1 else data.T
    count, length = lines.shape
    flat = np.empty(count * (length + 8) + 8)
    padded = flat[:-8].reshape(count, length + 8)
    padded[:, 4:-4] = lines
    padded[:, :4] = lines[:, :1]
    padded[:, -4:] = lines[:, -1:]
    flat[-8:] = 0.0
    flat = np.convolve(flat, np.ones(9) / 9.0, mode="valid")
    # the outputs that straddle two lines or reach the zeros are cut off
    # with the padding
    out = flat.reshape(count, length + 8)[:, :length]
    return out if axis == 1 else out.T


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
    blur_scores = []
    for axis in (0, 1):
        # in place where the layout of every summed array stays as it was:
        # a sum's rounding follows its array's memory order
        d_orig = np.diff(gray, axis=axis)
        np.abs(d_orig, out=d_orig)
        d_blur = np.diff(_box_blur(gray, axis), axis=axis)
        np.abs(d_blur, out=d_blur)
        kept = d_orig - d_blur
        np.maximum(kept, 0.0, out=kept)
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
    warm_hue = is_warm(lch.H.ravel())
    # the pixels cold then warm, each in pixel order, so every class sum
    # below adds a contiguous slice: the same elements in the same order
    # as a masked sum
    order = np.concatenate([np.flatnonzero(~warm_hue),
                            np.flatnonzero(warm_hue)])
    n_cold = n - int(np.count_nonzero(warm_hue))
    chroma = lch.C.ravel()
    ordered_chroma = chroma.take(order)
    # (levels, pixels): one contiguous row per membership level
    l_m = _triangular_memberships(lch.L.ravel().take(order),
                                  WAF_LIGHTNESS_CENTERS).T
    del order
    factor_one = np.empty(10)
    for i in range(5):
        factor_one[2 * i] = l_m[i, :n_cold].sum() / n      # cold
        factor_one[2 * i + 1] = l_m[i, n_cold:].sum() / n  # warm
    del l_m

    c_m = _triangular_memberships(ordered_chroma, WAF_CHROMA_CENTERS).T
    # achromatic pixels belong to no level
    c_m *= ordered_chroma >= ACHROMATIC_CHROMA
    factor_two = np.empty(7)
    for i in range(3):
        factor_two[2 * i] = c_m[i, n_cold:].sum() / n      # warm share
        factor_two[2 * i + 1] = c_m[i, :n_cold].sum() / n  # cool share
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

    # the chroma-weighted hue vectors C * (cos H, sin H) are (a, b)
    sin_sum = np.bincount(flat, weights=lch.b.ravel(), minlength=count)
    cos_sum = np.bincount(flat, weights=lch.a.ravel(), minlength=count)
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

    chromatic = seg.mean_c >= ACHROMATIC_CHROMA
    if np.any(chromatic):
        hues = seg.mean_h[chromatic]
        stats = imgprep.circular_stats(np.cos(hues), np.sin(hues),
                                       seg.areas[chromatic])
        hue = stats.angular_deviation / MAX_DEVIATION
        warm = is_warm(hues)
        chrom_area = seg.areas[chromatic].sum()
        warm_share = seg.areas[chromatic][warm].sum() / chrom_area
        warm_cold = 1.0 - abs(warm_share - (1.0 - warm_share))
    else:
        hue = 0.0
        warm_cold = 0.0

    return np.clip(np.array([light_dark, sat, hue, warm_cold]), 0.0, 1.0)


def lightness_histogram(lch, bins):
    """Normalized histogram of the CIELAB L channel over [0, 100].

    The bins are np.histogram's: [e_i, e_i+1) between the edges
    np.linspace(0, 100, bins + 1), the last bin closed, L outside [0, 100]
    dropped.  Each count is a difference of two counts of pixels at or
    above an edge, one pass per edge instead of a bin index per pixel.
    """
    edges = np.linspace(0.0, 100.0, bins + 1)
    at_least = [np.count_nonzero(lch.L >= e) for e in edges[:-1]]
    at_least.append(np.count_nonzero(lch.L > 100.0))
    return -np.diff(at_least) / lch.L.size


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
    if len(hists) < 2:
        raise ValueError("lfp needs at least two frames")
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


# LFP presets: name -> (lightness bins, modulation bands, whether the bins
# stay apart); "paper-80" keeps 8 bins x 10 one-Hz bands (80 values),
# "paper-60" sums 60 bands over 24 bins (60 values)
LFP_PRESETS = {"paper-80": (8, 10, True), "paper-60": (24, 60, False)}


def lfp_dims(preset):
    """Length of the lfp_feature vector of an LFP_PRESETS preset."""
    bins, bands, apart = LFP_PRESETS[preset]
    return bins * bands if apart else bands


def lfp_feature(pattern, preset="paper-80"):
    """Fixed-dimension LFP vector: the pattern's modulation bins grouped
    into the preset's equal-width bands, kept per lightness bin or summed
    over them (see LFP_PRESETS)."""
    bins, bands, apart = LFP_PRESETS[preset]
    if pattern.lightness_bins != bins:
        raise ValueError(f"{preset} preset needs {bins} lightness bins")
    sums = _band_sums(pattern, bands)
    return sums.ravel() if apart else sums.sum(axis=0)


# per-frame feature sets: name -> (values per frame, function that computes
# them from one imgprep.FrameContext).  Each entry calls its functions
# through the module globals, so a function replaced on the module after
# import is the one that runs.
FRAME_FEATURES = {
    "gcs": (6, lambda ctx: gcs(ctx.ihls)),
    "gev": (3, lambda ctx: gev(ctx.ihls)),
    "cf": (1, lambda ctx: colorfulness(ctx.frame)),
    "cn": (8, lambda ctx: color_names(*ctx.hsv_levels)),
    "waf": (18, lambda ctx: waf(ctx.lch,
                                blur_measure(ctx.ihls.luminance * 255.0))),
    "ic": (4, lambda ctx: itten_contrasts(segment_frame(ctx.lch))),
}


def frame_features(ctx, features):
    """The requested per-frame feature sets (FRAME_FEATURES names) of one
    imgprep.FrameContext, as a dict name -> float64 array.

    Each color space is converted at most once, and only if a requested
    feature reads it.
    """
    return {name: FRAME_FEATURES[name][1](ctx) for name in features}


def extract_video_features(frames, features, fps=25.0, lfp_preset="paper-80",
                           crop_letterbox=True):
    """Single-pass per-video feature extraction.

    frames is any iterable of RGB frames; features are FRAME_FEATURES
    names, plus "lfp" for the LFP_PRESETS pattern.  Per-frame feature sets are
    aggregated downstream (module aggregate); this function returns
    (per_frame_matrix dict, lfp_pattern or None).  The frame stream is
    consumed exactly once.
    """
    wanted = [f for f in features if f != "lfp"]
    want_lfp = "lfp" in features
    lightness_bins = LFP_PRESETS[lfp_preset][0] if want_lfp else None

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
            hists.append(lightness_histogram(ctx.lch, lightness_bins))
        n += 1

    if n == 0:
        raise ValueError("empty frame stream")

    matrices = {name: np.array(rows[name]) for name in wanted}
    pattern = None
    if want_lfp:
        pattern = lfp_from_histograms(np.array(hists), fps)
        if pattern.short_input:
            warnings.warn("fewer frames than one LFP window; zero-padded")
    return matrices, pattern
