"""The float Colour Names pipeline, the oracle of the level-domain HSV
planes of avmir.imgprep.FrameContext.hsv_levels and of the level-domain
quantizer in avmir._kernels.dither_indices.

hsv_planes converts a frame to float HSV planes.  The pipeline converts
the CLAHE-enhanced HSV planes back to 8-bit RGB (hsv_to_rgb) and dithers
them against any palette by squared RGB distance (dither_indices), one
palette entry at a time.  color_names is the float form of
avmir.visual.color_names: CLAHE of s and v, then the two above, then the
index histogram.
"""

import numpy as np

from avmir import _kernels, imgprep, visual


def hsv_planes(frame):
    """(h, s, v) planes of a uint8 RGB frame, with h in degrees [0, 360)
    and s and v in [0, 1]."""
    rgb = frame.astype(np.float64) / 255.0
    mx = np.maximum(np.maximum(rgb[..., 0], rgb[..., 1]), rgb[..., 2])
    mn = np.minimum(np.minimum(rgb[..., 0], rgb[..., 1]), rgb[..., 2])
    delta = mx - mn
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]

    # a gray pixel divides 0 by 1 in the red branch, which gives hue 0
    d = np.where(delta > 0, delta, 1.0)
    h = np.where(mx == r, np.mod((g - b) / d, 6.0),
                 np.where(mx == g, (b - r) / d + 2.0, (r - g) / d + 4.0))
    h *= 60.0

    s = np.divide(delta, mx, out=np.zeros_like(mx), where=mx > 0)
    return h, s, mx


def unit_levels(plane):
    """The 8-bit levels of a [0, 1] plane, rounded half to even."""
    return np.clip(np.round(plane * 255.0), 0, 255).astype(np.uint8)


def hsv_to_rgb(h, s, v):
    """Inverse of hsv_planes; returns a uint8 frame."""
    h, s, v = np.broadcast_arrays(*(np.asarray(x, dtype=np.float64)
                                    for x in (h, s, v)))
    return _rgb_levels(h, s, v)


def _rgb_levels(h, s, v):
    h = np.mod(h, 360.0) / 60.0
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


def dither_indices(rgb, palette, tmap, spread):
    """Ordered-dither quantization: per-pixel threshold offset, then nearest
    palette color by squared RGB distance (ties to the lowest index).

    Blocks of rows are scanned one palette entry at a time against a running
    minimum; each distance sums its three squared channel differences in
    R, G, B order, and each (channel, level) difference is squared once.
    """
    rgb = np.asarray(rgb, dtype=np.float64)
    palette = np.asarray(palette, dtype=np.float64)
    tmap = np.asarray(tmap, dtype=np.float64)
    h, w, _ = rgb.shape
    n = tmap.shape[0]
    reps = ((h + n - 1) // n, (w + n - 1) // n)
    offset = float(spread) * (np.tile(tmap, reps)[:h, :w] - 0.5)
    index = np.zeros((h, w), dtype=np.int32)
    for y in range(0, h, _kernels.BLOCK_ROWS):
        rows = slice(y, y + _kernels.BLOCK_ROWS)
        channels = [rgb[rows, :, c] + offset[rows] for c in range(3)]
        squares = {}

        def square(c, level):
            if (c, level) not in squares:
                squares[c, level] = np.square(channels[c] - level)
            return squares[c, level]

        best = np.full(channels[0].shape, np.inf)
        block = index[rows]
        for k, (r, g, b) in enumerate(palette):
            dist = square(0, r) + square(1, g)
            dist += square(2, b)
            # k exceeds every index so far: a maximum selects it where this
            # entry is strictly closer, faster than a masked write
            np.maximum(block, (dist < best) * np.int32(k), out=block)
            np.minimum(best, dist, out=best)
    return index


def clahe_unit(plane):
    """CN's CLAHE of a [0, 1] plane, through 8-bit levels and back."""
    return _kernels.clahe_u8(unit_levels(plane), *visual.CN_CLAHE_TILE,
                             visual.CN_CLAHE_CLIP_LIMIT) / 255.0


def color_names(hsv):
    """visual.color_names by the float pipeline: CLAHE of s and v one plane
    at a time, hsv_to_rgb, then dither_indices against CN_PALETTE."""
    h, s, v = hsv
    enhanced = hsv_to_rgb(h, clahe_unit(s), clahe_unit(v))
    indices = dither_indices(
        enhanced, visual.CN_PALETTE,
        imgprep.bayer_matrix(visual.CN_BAYER_ORDER), visual.CN_DITHER_SPREAD)
    counts = np.bincount(indices.ravel(), minlength=len(visual.CN_PALETTE))
    return counts.astype(np.float64) / counts.sum()
