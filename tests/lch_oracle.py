"""The direct sRGB -> CIELAB LCH conversion, the oracle of
avmir.imgprep.FrameContext.lch.

lch_planes indexes the linear-level table by the frame, divides the XYZ
triples by the white point as one broadcast over the last axis, evaluates
both branches of CIELAB's f through np.where, takes the chroma as
np.hypot(a, b) and wraps the hue angle into [0, 2pi) by np.mod, with 2pi
itself taken to 0.  An exact grey (r = g = b) has a = b = 0 by definition:
its X, Y and Z are the white's times one linear level, so f(X / Xw),
f(Y / Yw) and f(Z / Zw) are equal, and its C and H follow as 0.  lch runs
it over the frame in the row blocks that FrameContext uses.
"""

import numpy as np

from avmir import imgprep

DELTA = 6.0 / 29.0


def white_relative_xyz(frame):
    """The (..., 3) XYZ triples of a frame over the D65 white point."""
    xyz = imgprep._LINEAR_LEVELS[frame] @ imgprep._SRGB_TO_XYZ.T
    xyz /= imgprep._WHITE_XYZ
    return xyz


def lab_f(t):
    return np.where(t > DELTA ** 3,
                    np.cbrt(t),
                    t / (3.0 * DELTA * DELTA) + 4.0 / 29.0)


def lch_planes(frame, L, C, H, a, b):
    xyz = white_relative_xyz(frame)
    fx = lab_f(xyz[..., 0])
    fy = lab_f(xyz[..., 1])
    fz = lab_f(xyz[..., 2])
    np.multiply(116.0, fy, out=L)
    L -= 16.0
    np.subtract(fx, fy, out=a)
    a *= 500.0
    np.subtract(fy, fz, out=b)
    b *= 200.0
    grey = (frame[..., 0] == frame[..., 1]) & (frame[..., 1] == frame[..., 2])
    a[grey] = 0.0
    b[grey] = 0.0
    np.hypot(a, b, out=C)
    np.mod(np.arctan2(b, a), 2.0 * np.pi, out=H)
    H[H == 2.0 * np.pi] = 0.0


def lch(frame):
    """LchFrame of a uint8 frame by lch_planes."""
    planes = [np.empty(frame.shape[:2]) for _ in range(5)]
    return imgprep.LchFrame(*imgprep._by_rows(lch_planes, planes, frame))
