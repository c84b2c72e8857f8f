"""Frame substrate: letterbox removal, color-space conversions, circular hue
statistics and the Bayer threshold map of ordered dithering.

Frames are numpy arrays of shape (height, width, 3), dtype uint8, RGB order.
All functions here are pure; none mutates its input.  A FrameContext
validates a frame once and converts it to each color space at most once.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels

# saturation below this is treated as achromatic (hue undefined)
ACHROMATIC_EPS = 0.05

# dark-border thresholds of strip_letterbox
LETTERBOX_DARKNESS = 24
LETTERBOX_ROW_FRACTION = 0.98

# IHLS luminance weights (ITU-R BT.709 primaries)
_LUMA_R, _LUMA_G, _LUMA_B = 0.2126, 0.7152, 0.0722

# linear sRGB -> XYZ (D65); the reference white is taken as M @ [1,1,1] so
# that pure white maps to exactly L=100
_SRGB_TO_XYZ = np.array([
    [0.4124564, 0.3575761, 0.1804375],
    [0.2126729, 0.7151522, 0.0721750],
    [0.0193339, 0.1191920, 0.9503041],
])
_WHITE_XYZ = _SRGB_TO_XYZ @ np.ones(3)


@dataclass
class IhlsFrame:
    """Improved Hue/Luminance/Saturation planes of one frame.

    hue is in radians [0, 2pi); luminance and saturation in [0, 1];
    chromatic is False where saturation < ACHROMATIC_EPS.
    """
    hue: np.ndarray
    luminance: np.ndarray
    saturation: np.ndarray
    chromatic: np.ndarray


@dataclass
class LchFrame:
    """CIELAB lightness / chroma / hue-angle planes (D65 white)."""
    L: np.ndarray
    C: np.ndarray
    H: np.ndarray


@dataclass
class CircularStats:
    angular_mean: float
    angular_deviation: float


def _mod(x, period):
    """np.mod(x, period) for a positive period, bit for bit.

    When every |x| < period, np.mod's fmod returns x itself, so the result
    is x, or x + period below 0; this skips the much slower division.
    Adding 0.0 turns -0.0 into +0.0, as np.mod does.
    """
    x = np.asarray(x, dtype=np.float64)
    if np.all(np.abs(x) < period):
        return np.where(x < 0, x + period, x + 0.0)
    return np.mod(x, period)


def wrap_angle(theta):
    """Map angles into [0, 2pi); float dust at exactly 2pi wraps to 0."""
    out = _mod(theta, 2.0 * np.pi)
    return np.where(out >= 2.0 * np.pi, 0.0, out)


def as_frame(arr):
    """Validate and return an (H, W, 3) uint8 RGB frame."""
    arr = np.asarray(arr)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"frame must have shape (H, W, 3), got {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError("frame must contain at least one pixel")
    if arr.dtype != np.uint8:
        if arr.min() < 0 or arr.max() > 255:
            raise ValueError("frame channel values must lie in [0, 255]")
        arr = arr.astype(np.uint8)
    return arr


def _channel_max(rgb):
    # elementwise over the three planes; a reduce over a length-3 last axis
    # is several times slower
    return np.maximum(np.maximum(rgb[..., 0], rgb[..., 1]), rgb[..., 2])


def _channel_min(rgb):
    return np.minimum(np.minimum(rgb[..., 0], rgb[..., 1]), rgb[..., 2])


def _by_rows(convert, *arrays):
    """convert(*arrays) for a per-pixel conversion, computed over blocks of
    BLOCK_ROWS leading rows, whose temporaries stay in cache, and joined.
    convert returns one array or a tuple of arrays; arrays without rows
    make one empty block."""
    n = max(arrays[0].shape[0], 1)
    blocks = [convert(*(a[y:y + _kernels.BLOCK_ROWS] for a in arrays))
              for y in range(0, n, _kernels.BLOCK_ROWS)]
    if isinstance(blocks[0], tuple):
        return tuple(np.concatenate(parts) for parts in zip(*blocks))
    return np.concatenate(blocks)


class FrameContext:
    """One frame, validated once, with lazily converted color planes.

    frame is the (H, W, 3) uint8 frame.  ihls, lch and hsv are each
    converted on first read and kept, so every feature reading a color
    space shares one conversion.  shape is the frame's (perfbench's
    frame_features hook counts pixels by it).
    """

    def __init__(self, frame):
        self.frame = as_frame(frame)
        self.shape = self.frame.shape

    @cached_property
    def ihls(self):
        """The IHLS color space (brightness-independent saturation).

        Luminance is the weighted RGB sum, saturation is max-min and hue is
        the angle in the chromatic plane; achromatic pixels keep hue 0 and
        are excluded via the chromatic mask.
        """
        return IhlsFrame(*_by_rows(_ihls_planes, self.frame))

    @cached_property
    def lch(self):
        """Cylindrical CIELAB: sRGB -> linear -> XYZ (D65) -> LAB -> LCH."""
        return LchFrame(*_by_rows(_lch_planes, self.frame))

    @cached_property
    def hsv(self):
        """(h, s, v) planes with h in degrees [0, 360), s and v in [0, 1]."""
        return _by_rows(_hsv_planes, self.frame)


def strip_letterbox(frame):
    """Crop contiguous dark border rows/columns (letterboxing, pillarboxing).

    A border row/column is removed while the fraction of its pixels with
    max(R,G,B) <= LETTERBOX_DARKNESS exceeds LETTERBOX_ROW_FRACTION.  Total
    function: if everything would be removed the input is returned unchanged.
    """
    frame = as_frame(frame)
    dark = _channel_max(frame) <= LETTERBOX_DARKNESS

    h, w = dark.shape
    row_dark = dark.mean(axis=1)
    top = 0
    while top < h and row_dark[top] > LETTERBOX_ROW_FRACTION:
        top += 1
    bottom = h
    while bottom > top and row_dark[bottom - 1] > LETTERBOX_ROW_FRACTION:
        bottom -= 1
    if top >= bottom:
        return frame

    col_dark = dark[top:bottom].mean(axis=0)
    left = 0
    while left < w and col_dark[left] > LETTERBOX_ROW_FRACTION:
        left += 1
    right = w
    while right > left and col_dark[right - 1] > LETTERBOX_ROW_FRACTION:
        right -= 1
    if left >= right:
        return frame
    return frame[top:bottom, left:right]


def _ihls_planes(frame):
    rgb = frame.astype(np.float64) / 255.0
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]

    luminance = _LUMA_R * r + _LUMA_G * g + _LUMA_B * b
    saturation = _channel_max(rgb) - _channel_min(rgb)

    num = r - 0.5 * g - 0.5 * b
    den_sq = r * r + g * g + b * b - r * g - r * b - g * b
    den = np.sqrt(np.maximum(den_sq, 0.0))
    chromatic = saturation >= ACHROMATIC_EPS

    safe = den > 1e-12
    ratio = np.clip(np.divide(num, den, out=np.zeros_like(r), where=safe), -1.0, 1.0)
    hue = np.where(safe, np.arccos(ratio), 0.0)
    # an achromatic pixel flipped to 2pi falls back to 0 with the wrap below
    hue = np.where(b > g, 2.0 * np.pi - hue, hue)
    hue = np.where(hue >= 2.0 * np.pi, 0.0, hue)
    return hue, luminance, saturation, chromatic


def _srgb_to_linear(c):
    return np.where(c <= 0.04045, c / 12.92, ((c + 0.055) / 1.055) ** 2.4)


# linear-light value of each 8-bit sRGB level
_LINEAR_LEVELS = _srgb_to_linear(np.arange(256) / 255.0)


def _lab_f(t):
    delta = 6.0 / 29.0
    return np.where(t > delta ** 3,
                    np.cbrt(t),
                    t / (3.0 * delta * delta) + 4.0 / 29.0)


def _lch_planes(frame):
    xyz = _LINEAR_LEVELS[frame] @ _SRGB_TO_XYZ.T
    xyz /= _WHITE_XYZ

    fx = _lab_f(xyz[..., 0])
    fy = _lab_f(xyz[..., 1])
    fz = _lab_f(xyz[..., 2])
    L = 116.0 * fy - 16.0
    a = 500.0 * (fx - fy)
    b = 200.0 * (fy - fz)

    C = np.hypot(a, b)
    H = wrap_angle(np.arctan2(b, a))
    return L, C, H


def _hsv_planes(frame):
    rgb = frame.astype(np.float64) / 255.0
    mx = _channel_max(rgb)
    mn = _channel_min(rgb)
    delta = mx - mn
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]

    # a gray pixel divides 0 by 1 in the red branch, which gives hue 0
    d = np.where(delta > 0, delta, 1.0)
    h = np.where(mx == r, _mod((g - b) / d, 6.0),
                 np.where(mx == g, (b - r) / d + 2.0, (r - g) / d + 4.0))
    h *= 60.0

    s = np.divide(delta, mx, out=np.zeros_like(mx), where=mx > 0)
    return h, s, mx


def hsv_to_rgb(h, s, v):
    """Inverse of FrameContext.hsv; returns a uint8 frame."""
    h, s, v = np.broadcast_arrays(*(np.asarray(x, dtype=np.float64)
                                    for x in (h, s, v)))
    if h.ndim == 0:
        return _rgb_levels(h, s, v)
    return _by_rows(_rgb_levels, h, s, v)


def _rgb_levels(h, s, v):
    h = _mod(h, 360.0) / 60.0
    s = np.clip(s, 0.0, 1.0)
    v = np.clip(v, 0.0, 1.0)

    i = np.floor(h).astype(np.int64) % 6
    f = h - np.floor(h)
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))

    choices_r = [v, q, p, p, t, v]
    choices_g = [t, v, v, q, p, p]
    choices_b = [p, p, t, v, v, q]
    r = np.choose(i, choices_r)
    g = np.choose(i, choices_g)
    b = np.choose(i, choices_b)
    rgb = np.stack([r, g, b], axis=-1)
    return np.clip(np.round(rgb * 255.0), 0, 255).astype(np.uint8)


def circular_stats(hues, weights=None):
    """Angular mean and deviation of a set of hue angles (radians).

    The deviation is sqrt(2 * (1 - R)) with R the mean resultant length, so
    it lies in [0, sqrt(2)].  Optional nonnegative weights must not all be
    zero.  Raises ValueError on empty input.
    """
    hues = np.asarray(hues, dtype=np.float64).ravel()
    if hues.size == 0:
        raise ValueError("no chromatic pixels")
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64).ravel()
        if weights.shape != hues.shape:
            raise ValueError("weights must match hues in length")
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        if weights.sum() <= 0:
            raise ValueError("weights must not all be zero")
    return _circular_stats(hues, weights, np.sin(hues), np.cos(hues))


def _circular_stats(hues, weights, sin_h, cos_h):
    """circular_stats of checked hues, given their sines and cosines, so
    that several statistics of one hue set share them; weights None means
    equal weights."""
    def weighted(values):
        # unit weights would multiply every value by exactly 1
        return values if weights is None else weights * values

    total = float(hues.size) if weights is None else weights.sum()
    sin_sum = float(np.sum(weighted(sin_h)))
    cos_sum = float(np.sum(weighted(cos_h)))
    mean = float(wrap_angle(np.arctan2(sin_sum, cos_sum)))
    # sqrt(2 * (1 - R)) via the identity 2*(1 - R) = sum(w * 4*sin^2((h-mean)/2))/W,
    # which stays accurate near zero deviation where 1 - R cancels badly
    half = np.sin((hues - mean) / 2.0)
    deviation = float(2.0 * np.sqrt(np.sum(weighted(half) * half) / total))
    return CircularStats(angular_mean=mean, angular_deviation=deviation)


def bayer_matrix(order):
    """Recursive Bayer threshold map of the given power-of-two order,
    normalized to [0, 1) with every value k/order**2 appearing exactly once."""
    if order < 2 or order > 64 or order & (order - 1) != 0:
        raise ValueError("order must be a power of two in [2, 64]")
    m = np.zeros((1, 1), dtype=np.int64)
    size = 1
    while size < order:
        m = np.block([[4 * m + 0, 4 * m + 2],
                      [4 * m + 3, 4 * m + 1]])
        size *= 2
    return m.astype(np.float64) / (order * order)
