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


def _resample_column(column, height):
    src = np.linspace(0.0, 1.0, column.shape[0])
    dst = np.linspace(0.0, 1.0, height)
    return np.stack([np.interp(dst, src, column[:, c]) for c in range(3)],
                    axis=1)


def mean_color_bar(frames, resample_height=None):
    """Mean-color bar: an (H, n_frames, 3) uint8 image whose column k holds
    the per-row channel means of frame k.

    With resample_height each column is linearly resampled to a fixed
    height, which also permits mixing frame sizes.
    """
    if resample_height is not None and resample_height < 1:
        raise ValueError(
            f"resample height must be at least 1, got {resample_height}")
    columns = []
    height = None
    for frame in frames:
        frame = imgprep.as_frame(frame)
        col = frame.astype(np.float64).mean(axis=1)  # (H, 3)
        if resample_height is not None:
            col = _resample_column(col, resample_height)
        if height is None:
            height = col.shape[0]
        elif col.shape[0] != height:
            raise ValueError("frame heights differ; pass resample_height")
        columns.append(col)
    if not columns:
        raise ValueError("empty frame stream")
    bar = np.stack(columns, axis=1)
    return np.clip(np.round(bar), 0, 255).astype(np.uint8)


def _mean_rgb_l1(a, b):
    ma = a.astype(np.float64).mean(axis=(0, 1))
    mb = b.astype(np.float64).mean(axis=(0, 1))
    return float(np.abs(ma - mb).sum() / 765.0)


def _hist_chi2(a, b):
    def hist(frame):
        h = [np.bincount((frame[..., c].ravel() * HIST_CHI2_BINS) // 256,
                         minlength=HIST_CHI2_BINS) for c in range(3)]
        h = np.concatenate(h).astype(np.float64)
        return h / h.sum()

    return chi_square(hist(a.astype(np.int64)), hist(b.astype(np.int64))) / 2.0


ACTIVITY_METRICS = {"mean-rgb-l1": _mean_rgb_l1, "histogram-chi2": _hist_chi2}


def frame_activity(frames, metric="mean-rgb-l1"):
    """Normalized distance between each consecutive frame pair, an
    (n_frames - 1,) array."""
    try:
        fn = ACTIVITY_METRICS[metric]
    except KeyError:
        raise ValueError(f"unknown activity metric: {metric!r}") from None
    distances = []
    prev = None
    for frame in frames:
        frame = imgprep.as_frame(frame)
        if prev is not None:
            distances.append(fn(prev, frame))
        prev = frame
    if len(distances) < 1:
        raise ValueError("need at least two frames")
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
