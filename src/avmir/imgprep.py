"""Frame substrate: letterbox removal, color-space conversions, circular hue
statistics and the Bayer threshold map of ordered dithering.

Frames are numpy arrays of shape (height, width, 3), dtype uint8, RGB order.
All functions here are pure; none mutates its input.  A FrameContext
validates a frame once and converts it to each color space at most once.
"""

import functools
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

_TWO_PI = 2.0 * np.pi


@dataclass
class IhlsFrame:
    """Improved Hue/Luminance/Saturation planes of one frame.

    The hue is the angle of each pixel in the chromatic plane, kept as its
    unit vector (hue_cos, hue_sin); achromatic pixels, whose angle is
    undefined, get (1, 0).  Luminance and saturation are in [0, 1];
    chromatic is False where saturation < ACHROMATIC_EPS.
    """
    hue_cos: np.ndarray
    hue_sin: np.ndarray
    luminance: np.ndarray
    saturation: np.ndarray
    chromatic: np.ndarray


@dataclass
class LchFrame:
    """CIELAB lightness / chroma / hue-angle planes (D65 white), and the
    a and b planes, which are C * cos(H) and C * sin(H).  C is formed as
    sqrt(a * a + b * b), which is within one ulp of np.hypot(a, b)."""
    L: np.ndarray
    C: np.ndarray
    H: np.ndarray
    a: np.ndarray
    b: np.ndarray


@dataclass
class CircularStats:
    angular_mean: float
    angular_deviation: float


def wrap_angle(x):
    """Map angles x in [-pi, pi], such as np.arctan2 gives, into [0, 2pi)
    as np.mod does; an array is wrapped in place and returned.  -0 turns
    into +0, negative angles gain 2pi, and a sum that rounds to 2pi itself
    wraps to 0."""
    # mask products instead of masked writes, which branch per element:
    # x + 0.0 and x * 1.0 are x itself (x + 0.0 turns -0 into +0)
    x += (x < 0.0) * _TWO_PI
    x *= x < _TWO_PI
    return x


def as_frame(arr):
    """Validate and return an (H, W, 3) uint8 RGB frame, as every frame
    reader yields; any other shape or dtype raises ValueError."""
    arr = np.asarray(arr)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"frame must have shape (H, W, 3), got {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError("frame must contain at least one pixel")
    if arr.dtype != np.uint8:
        raise ValueError(f"frame must have dtype uint8, got {arr.dtype}")
    return arr


def _channel_max(rgb):
    # elementwise over the three planes; a reduce over a length-3 last axis
    # is several times slower
    return np.maximum(np.maximum(rgb[..., 0], rgb[..., 1]), rgb[..., 2])


def _channel_min(rgb):
    return np.minimum(np.minimum(rgb[..., 0], rgb[..., 1]), rgb[..., 2])


def _by_rows(convert, planes, *inputs):
    """Fill the preallocated planes of a per-pixel conversion by
    convert(*input blocks, *plane blocks) over blocks of BLOCK_ROWS rows,
    whose temporaries stay in cache; returns planes."""
    for y in range(0, inputs[0].shape[0], _kernels.BLOCK_ROWS):
        rows = slice(y, y + _kernels.BLOCK_ROWS)
        convert(*(x[rows] for x in inputs), *(p[rows] for p in planes))
    return planes


# ---------------------------------------------------------------------------
# tables over two 8-bit levels p and q, flat at index p * 256 + q; each is
# built on first use, which keeps it out of the import
# ---------------------------------------------------------------------------

@functools.cache
def _level_differences():
    """p / 255 - q / 255 in float64: the difference of two channels of a
    frame converted to [0, 1]."""
    unit = _kernels._UNIT_LEVELS
    return (unit[:, None] - unit[None, :]).ravel()


@functools.cache
def _s_levels():
    """The 8-bit level of the HSV saturation (max - min) / max at
    (max, min) level, rounded half to even as np.rint does; 0 for black."""
    unit = _kernels._UNIT_LEVELS
    delta = _level_differences().reshape(256, 256)
    top = np.broadcast_to(unit[:, None], delta.shape)
    s = np.divide(delta, top, out=np.zeros(delta.shape), where=top > 0)
    return np.clip(np.rint(s * 255.0), 0, 255).astype(np.uint8).ravel()


class FrameContext:
    """One frame, validated once, with lazily converted color planes.

    frame is the (H, W, 3) uint8 frame.  ihls, lch and hsv_levels are each
    converted on first read and kept, so every feature reading a color
    space shares one conversion.  shape is the frame's (perfbench's
    frame_features hook counts pixels by it).
    """

    def __init__(self, frame):
        self.frame = as_frame(frame)
        self.shape = self.frame.shape

    @cached_property
    def _extremes(self):
        """The largest channel level of each pixel, and the key
        max * 256 + min of the tables over (max, min) level.  The key is
        kept as uint16, a quarter of an intp plane; take is several times
        faster with intp indices, so each block converts its rows."""
        top = _channel_max(self.frame)
        key = top.astype(np.uint16) << 8
        key |= _channel_min(self.frame)
        return top, key

    def _planes(self, *dtypes):
        return [np.empty(self.shape[:2], dtype=d) for d in dtypes]

    @cached_property
    def ihls(self):
        """The IHLS color space (brightness-independent saturation).

        Luminance is the weighted RGB sum, saturation is max-min and the
        hue is the direction in the chromatic plane; achromatic pixels are
        excluded via the chromatic mask.
        """
        planes = self._planes(*[np.float64] * 4, bool)
        return IhlsFrame(*_by_rows(_ihls_planes, planes, self.frame,
                                   self._extremes[1]))

    @cached_property
    def lch(self):
        """Cylindrical CIELAB: sRGB -> linear -> XYZ (D65) -> LAB -> LCH.
        An exact grey (r = g = b) is achromatic: a = b = C = H = 0."""
        planes = self._planes(*[np.float64] * 5)
        return LchFrame(*_by_rows(_lch_planes, planes, self.frame,
                                  *self._extremes))

    @cached_property
    def hsv_levels(self):
        """Colour Names' HSV planes: the hue in degrees [0, 360), and the
        uint8 levels of the saturation and the value (the largest
        channel), each 255 times the float s or v in [0, 1] rounded half
        to even.  No float s or v plane is built."""
        top, key = self._extremes
        hue, s = _by_rows(_hsv_planes, self._planes(np.float64, np.uint8),
                          self.frame, top, key)
        return hue, s, top


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


def _ihls_planes(frame, key, hue_cos, hue_sin, luminance, saturation,
                 chromatic):
    # one contiguous plane per channel
    rgb = np.moveaxis(frame, -1, 0).astype(np.float64)
    rgb /= 255.0
    r, g, b = rgb

    np.multiply(r, _LUMA_R, out=luminance)
    luminance += _LUMA_G * g
    luminance += _LUMA_B * b
    # max - min of the [0, 1] channels
    _level_differences().take(key.astype(np.intp), out=saturation)
    np.greater_equal(saturation, ACHROMATIC_EPS, out=chromatic)

    num = r - 0.5 * g
    num -= 0.5 * b
    # r*r + g*g + b*b - r*g - r*b - g*b, summed left to right
    den = r * r
    den += g * g
    den += b * b
    den -= r * g
    den -= r * b
    den -= g * b
    np.maximum(den, 0.0, out=den)
    np.sqrt(den, out=den)

    # cos is the clipped ratio num / den (1 where den vanishes), sin is
    # sqrt(1 - cos^2), negative where b > g
    hue_cos[...] = 1.0
    np.divide(num, den, out=hue_cos, where=den > 1e-12)
    np.clip(hue_cos, -1.0, 1.0, out=hue_cos)
    np.multiply(hue_cos, hue_cos, out=hue_sin)
    np.subtract(1.0, hue_sin, out=hue_sin)
    np.sqrt(hue_sin, out=hue_sin)
    # times -1 (exact) or 1: faster than a masked negate on noisy frames
    sign = np.less_equal(frame[..., 2], frame[..., 1]).view(np.int8)
    sign *= np.int8(2)
    sign -= np.int8(1)
    hue_sin *= sign


def _srgb_to_linear(c):
    return np.where(c <= 0.04045, c / 12.92, ((c + 0.055) / 1.055) ** 2.4)


# linear-light value of each 8-bit sRGB level
_LINEAR_LEVELS = _srgb_to_linear(np.arange(256) / 255.0)


_LAB_DELTA = 6.0 / 29.0


def _lab_f(t, out):
    """CIELAB's f(t) into out: the cube root of t, and the linear segment
    t / (3 delta^2) + 4/29 where t <= delta^3 (delta = 6/29)."""
    np.cbrt(t, out=out)
    # the segment is written only where it applies: cheaper than np.where,
    # which evaluates both branches on every pixel
    low = np.less_equal(t, _LAB_DELTA ** 3)
    np.divide(t, 3.0 * _LAB_DELTA * _LAB_DELTA, out=out, where=low)
    np.add(out, 4.0 / 29.0, out=out, where=low)
    return out


def _lch_planes(frame, top, key, L, C, H, a, b):
    # take is about twice as fast as indexing the table by the frame
    xyz = _LINEAR_LEVELS.take(frame) @ _SRGB_TO_XYZ.T
    # each XYZ plane over its own white value, the same division as a
    # broadcast over the last axis without its 3-element inner loop; f(X)
    # goes to a, f(Y) to C and f(Z) to b until L, a and b are formed
    t = np.empty(L.shape)
    for k, f in enumerate((a, C, b)):
        _lab_f(np.divide(xyz[..., k], _WHITE_XYZ[k], out=t), f)
    fy = C
    np.multiply(116.0, fy, out=L)
    L -= 16.0
    a -= fy
    a *= 500.0
    np.subtract(fy, b, out=b)
    b *= 200.0
    # an exact grey, max = min, has X, Y and Z in the white's proportions,
    # so a = b = 0; computed, they are last-bit noise whose sign follows
    # the CPU's SIMD path and would give the grey an arbitrary hue
    grey = np.equal(key & np.uint16(255), top)
    a[grey] = 0.0
    b[grey] = 0.0

    # C = sqrt(a*a + b*b), with H as the buffer of b*b; np.hypot is several
    # times slower and differs only in the last bit
    np.multiply(b, b, out=H)
    np.multiply(a, a, out=C)
    C += H
    np.sqrt(C, out=C)
    wrap_angle(np.arctan2(b, a, out=H))


def _hsv_planes(frame, top, key, hue, s):
    """The HSV hue in degrees, with the float operations of a conversion
    from channels in [0, 1]: (g - b) / d wrapped into [0, 6) where red is
    the largest channel, (b - r) / d + 2 where green is, else
    (r - g) / d + 4, times 60, d being max - min (1 for grey); and the
    saturation level."""
    key = key.astype(np.intp)
    _s_levels().take(key, out=s)
    r, g, b = frame[..., 0], frame[..., 1], frame[..., 2]
    # which channel is largest, ties to red then green, as 0 or 1 masks
    red = np.equal(r, top).view(np.uint8)
    green = np.equal(g, top).view(np.uint8)
    green &= red ^ np.uint8(1)
    blue = red | green
    blue ^= np.uint8(1)
    # the numerator's two levels and the sector offset: a negative red
    # ratio wraps by 6
    first = g * red + b * green + r * blue
    second = b * red + r * green + g * blue
    offset = red * np.less(g, b).view(np.uint8)
    offset *= np.uint8(6)
    offset += green * np.uint8(2)
    offset += blue * np.uint8(4)

    num_key = first.astype(np.intp) << 8
    num_key |= second
    diff = _level_differences()
    den = diff.take(key)
    den += den == 0.0  # grey: the numerator is 0, the divisor 1
    diff.take(num_key, out=hue)
    hue /= den
    hue += offset
    hue *= 60.0


def circular_stats(cos_h, sin_h, weights):
    """Angular mean and deviation of hue angles given as unit vectors
    (cos_h, sin_h), under nonnegative weights that are not all zero; a
    boolean mask as weights keeps the hues it marks.

    The mean is the direction of the weighted resultant, in [0, 2pi) (0
    for a zero resultant).  The deviation is sqrt(2 * (1 - R)) with R the
    mean resultant length, so it lies in [0, sqrt(2)].  It is computed as
    the weighted root mean square distance of the vectors from the mean's
    unit vector m: each |u - m|^2 is 2 - 2 cos(h - mean), and summing these
    stays accurate near zero deviation, where 1 - R cancels badly.
    """
    # one buffer for the weighted products and the squared distances
    work = np.empty_like(cos_h)

    def weighted_sum(values):
        return np.sum(np.multiply(weights, values, out=work))

    def squared_sum(values, centre):
        dist = np.subtract(values, centre, out=work)
        return weighted_sum(np.square(dist, out=dist))

    mean = float(wrap_angle(np.arctan2(weighted_sum(sin_h),
                                       weighted_sum(cos_h))))
    deviation = float(np.sqrt((squared_sum(cos_h, np.cos(mean))
                               + squared_sum(sin_h, np.sin(mean)))
                              / weights.sum()))
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
