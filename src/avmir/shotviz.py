"""Mean-color bars, frame-activity profiles and a naive adaptive-threshold
cut detector.

The detector is a documented baseline only: threshold approaches are known
to misfire on music-video editing effects (strobes, skip frames, spotlight
flashes), and the test suite pins that failure mode as a fixture instead of
hiding it.
"""

import numpy as np

from . import imgprep
from .concepts import chi_square

HIST_CHI2_BINS = 64  # per-channel bins of the histogram-chi2 activity metric
# a level's bin, level * HIST_CHI2_BINS // 256, is level >> _BIN_SHIFT
_BIN_SHIFT = (256 // HIST_CHI2_BINS).bit_length() - 1


def _channel_planes(frame):
    """The (3, H, W) C-contiguous channel planes of a uint8 frame (a copy
    unless the frame is a view of planar storage; callers must not write).

    Copying once and summing each plane's contiguous rows is several times
    faster than reducing the interleaved frame or widening it to float64.
    """
    return np.ascontiguousarray(np.moveaxis(frame, -1, 0))


def _resample_column(row_means, height):
    """(3, H) row means -> (height, 3), each channel linearly resampled."""
    src = np.linspace(0.0, 1.0, row_means.shape[1])
    dst = np.linspace(0.0, 1.0, height)
    return np.stack([np.interp(dst, src, m) for m in row_means], axis=1)


def mean_color_bar(frames, resample_height=None):
    """Mean-color bar: an (H, n_frames, 3) uint8 image whose column k holds
    the per-row channel means of frame k, rounded half to even.

    Each mean is an exact uint64 row sum divided by the width: the sum is an
    integer below 2**53, so the quotient is the float64 mean bit for bit.
    With resample_height each column is linearly resampled to a fixed
    height, which also permits mixing frame sizes.
    """
    if resample_height is not None and resample_height < 1:
        raise ValueError(
            f"resample height must be at least 1, got {resample_height}")
    columns = []
    height = None
    for k, frame in enumerate(frames):
        planes = _channel_planes(imgprep.as_frame(frame))
        means = planes.sum(axis=2, dtype=np.uint64) / planes.shape[2]
        if resample_height is not None:
            col = _resample_column(means, resample_height)
        else:
            col = means.T
        if height is None:
            height = col.shape[0]
        elif col.shape[0] != height:
            raise ValueError(
                f"frame {k} is {col.shape[0]} rows high but frame 0 is "
                f"{height}; frames of mixed heights need a resample height")
        columns.append(col)
    if not columns:
        raise ValueError("empty frame stream (frame 0 is missing)")
    bar = np.stack(columns, axis=1)
    return np.clip(np.round(bar), 0, 255).astype(np.uint8)


def _mean_rgb(frame):
    """The frame's (3,) channel means: exact uint64 totals over H * W."""
    planes = _channel_planes(frame)
    totals = planes.reshape(3, -1).sum(axis=1, dtype=np.uint64)
    return totals / planes[0].size


def _mean_rgb_l1(ma, mb):
    return float(np.abs(ma - mb).sum() / 765.0)


def _channel_histogram(frame):
    """Normalized per-channel histograms, HIST_CHI2_BINS bins each, as one
    (3 * HIST_CHI2_BINS,) vector; a level's bin is level * bins // 256."""
    bins = _channel_planes(frame) >> _BIN_SHIFT
    h = np.concatenate([np.bincount(b.ravel(), minlength=HIST_CHI2_BINS)
                        for b in bins]).astype(np.float64)
    return h / h.sum()


def _hist_chi2(ha, hb):
    return chi_square(ha, hb) / 2.0


# metric name -> (per-frame descriptor, distance of two descriptors)
ACTIVITY_METRICS = {"mean-rgb-l1": (_mean_rgb, _mean_rgb_l1),
                    "histogram-chi2": (_channel_histogram, _hist_chi2)}


def frame_activity(frames, metric="mean-rgb-l1"):
    """Normalized distance between each consecutive frame pair, an
    (n_frames - 1,) array, under the ACTIVITY_METRICS entry metric; each
    frame's descriptor is computed once."""
    describe, distance = ACTIVITY_METRICS[metric]
    distances = []
    prev = None
    for frame in frames:
        desc = describe(imgprep.as_frame(frame))
        if prev is not None:
            distances.append(distance(prev, desc))
        prev = desc
    if not distances:
        n = 0 if prev is None else 1
        raise ValueError(f"need at least two frames, got {n} "
                         f"(frame {n} is missing)")
    return np.array(distances)


def naive_cut_detect(distances, window=15, kappa=3.0):
    """Sliding-window peak picking over frame_activity distances.

    Transition i is flagged when its distance exceeds kappa times the window
    median and is the window maximum; returned indices are the frame numbers
    where the new shot starts (distance index + 1), strictly increasing.
    Known failure modes on music-video effects are intentional and asserted
    by fixtures, not worked around.
    """
    if window < 3 or window % 2 == 0:
        raise ValueError("window must be odd and >= 3")
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    d = np.asarray(distances)
    half = window // 2
    boundaries = []
    for i in range(d.size):
        lo = max(0, i - half)
        hi = min(d.size, i + half + 1)
        win = d[lo:hi]
        if d[i] > np.median(win) * kappa and d[i] >= win.max():
            boundaries.append(i + 1)
    return boundaries
