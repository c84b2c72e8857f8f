"""Psychoacoustic audio descriptors computed from raw PCM.

The sonogram pipeline follows the classic loudness-sensation chain: STFT,
grouping into the 24 Bark critical bands, then decibel, phon and sone
transformations.  On top of it sit the rhythm pattern family (modulation
spectra per band), the statistical spectrum descriptors and their temporal
variants, plus plain MFCC and chroma features.

Every spectral function expects input at ANALYSIS_RATE, so its frequency
tables and the modulation weights are built once at import.  resample is
the one function that sees other rates; the others raise ValueError for an
AudioClip at any other rate.

The equal-loudness data below is a compact piecewise-linear approximation of
the ISO 226 contours, resampled at the Bark band centers; the phon->sone map
is the standard one (doubling per 10 phon above 40, power law below).
"""

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from . import aggregate

ANALYSIS_RATE = 22050
DB_FLOOR = -72.0

# Zwicker critical band edges (Hz); 24 bands
BARK_EDGES = np.array([
    0, 100, 200, 300, 400, 510, 630, 770, 920, 1080, 1270, 1480, 1720,
    2000, 2320, 2700, 3150, 3700, 4400, 5300, 6400, 7700, 9500, 12000, 15500,
], dtype=np.float64)

# dB offset of the 40-phon equal-loudness contour relative to 1 kHz at each
# Bark center (ISO 226 shape)
_CONTOUR_40 = np.array([
    37.8, 17.8, 10.4, 6.3, 4.0, 2.1, 0.8, 0.0, 0.0, 1.4, 2.1, 2.5,
    0.5, -1.6, -3.5, -4.1, -4.2, -3.3, -0.7, 4.4, 8.4, 12.4, 13.6, 12.0,
])

# contour levels and the flattening of the frequency correction with level
_PHON_LEVELS = np.array([0.0, 20.0, 40.0, 60.0, 80.0, 100.0])
_CONTOUR_FLATTEN = np.array([1.35, 1.15, 1.0, 0.8, 0.6, 0.45])

# SPL of each phon contour per band: (levels, bands); the 0-phon contour is
# pinned at the digital silence floor (0 dB SPL after the clamp) so that
# silence maps to exactly 0 sone
_CONTOUR_SPL = _PHON_LEVELS[:, None] + _CONTOUR_FLATTEN[:, None] * _CONTOUR_40[None, :]
_CONTOUR_SPL[0] = np.maximum(_CONTOUR_SPL[0], 0.0)

N_MOD_FREQS = 60
SEGMENT_SECONDS = 6.0

# analysis windows in samples; every spectrum cuts its input into
# back-to-back frames of one window each.  The sonogram and the MFCC read
# the same SPECTRUM_WINDOW spectrum.
SPECTRUM_WINDOW = 512
CHROMA_WINDOW = 4096

# bytes of one block of windowed frames: every spectrum is transformed, and
# chroma folded, this much of its input at a time (64 frames of
# SPECTRUM_WINDOW, 8 of CHROMA_WINDOW), so a block's windowed frames,
# complex spectrum and power stay in cache and no whole-clip temporary is
# made
SPECTRUM_BLOCK_BYTES = 256 * 1024

# sonogram frames per second, and the frames of one SEGMENT_SECONDS segment
FRAME_RATE = ANALYSIS_RATE / SPECTRUM_WINDOW
SEGMENT_FRAMES = int(round(SEGMENT_SECONDS * FRAME_RATE))  # 258
MOD_FREQUENCIES = np.arange(1, N_MOD_FREQS + 1) * FRAME_RATE / SEGMENT_FRAMES

# the SPECTRUM_WINDOW bins of each Bark band (none above Nyquist)
_SPECTRUM_FREQS = np.fft.rfftfreq(SPECTRUM_WINDOW, d=1.0 / ANALYSIS_RATE)
_BARK_COLUMNS = tuple(
    np.flatnonzero((_SPECTRUM_FREQS >= lo) & (_SPECTRUM_FREQS < hi))
    for lo, hi in zip(BARK_EDGES[:-1], BARK_EDGES[1:]))

# MFCC coefficients kept and mel filters
MFCC_COEFFS = 13
MFCC_FILTERS = 26
CHROMA_MIN_FREQ = 27.5  # Hz (A0); lower bins do not enter chroma

# anti-alias low-pass applied before downsampling: cutoff as a fraction of
# ANALYSIS_RATE, and the windowed sinc's half-length in sinc zero crossings
RESAMPLE_CUTOFF = 0.45
RESAMPLE_ZERO_CROSSINGS = 32


@dataclass
class AudioClip:
    """Mono audio in [-1, 1].

    samples must not change once spectrum or rp_family has been read: each
    is computed on first read and kept.
    """
    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim == 2:
            self.samples = self.samples.mean(axis=1)
        if self.samples.size < 1:
            raise ValueError("empty audio clip")

    @property
    def duration(self):
        return self.samples.size / self.sample_rate

    @cached_property
    def spectrum(self):
        """Power spectrum of the SPECTRUM_WINDOW frames, (frames, bins),
        shared by the sonogram and the MFCC of this clip; ValueError unless
        the clip is at ANALYSIS_RATE."""
        if self.sample_rate != ANALYSIS_RATE:
            raise ValueError(f"clip at {self.sample_rate} Hz; spectra need "
                             f"ANALYSIS_RATE {ANALYSIS_RATE} Hz (resample it)")
        return _stft_power(self.samples, SPECTRUM_WINDOW)

    @cached_property
    def rp_family(self):
        """track_features of this clip, computed on first read and kept,
        so its TRACK_FEATURES entries share one sonogram."""
        return track_features(self)


def _lowpass_taps(sample_rate):
    """Blackman-windowed sinc low-pass at RESAMPLE_CUTOFF * ANALYSIS_RATE
    for a signal at sample_rate; odd length, unity gain at DC."""
    cutoff = RESAMPLE_CUTOFF * ANALYSIS_RATE / sample_rate  # cycles/sample
    half = int(np.ceil(RESAMPLE_ZERO_CROSSINGS / (2.0 * cutoff)))
    taps = (np.sinc(2.0 * cutoff * np.arange(-half, half + 1))
            * np.blackman(2 * half + 1))
    return taps / taps.sum()


def resample(clip):
    """Linear resampling to ANALYSIS_RATE; a clip already at it is returned.

    A clip above ANALYSIS_RATE is low-passed below ANALYSIS_RATE / 2 first,
    so content above the new Nyquist frequency does not fold back into the
    analysis band.
    """
    if clip.sample_rate == ANALYSIS_RATE:
        return clip
    samples = clip.samples
    if clip.sample_rate > ANALYSIS_RATE:
        taps = _lowpass_taps(clip.sample_rate)
        half = taps.size // 2
        samples = np.convolve(samples, taps)[half:half + samples.size]
    n_out = int(round(samples.size * ANALYSIS_RATE / clip.sample_rate))
    src_t = np.arange(samples.size) / clip.sample_rate
    dst_t = np.arange(n_out) / ANALYSIS_RATE
    return AudioClip(np.interp(dst_t, src_t, samples), ANALYSIS_RATE)


@cache
def _hann(window):
    """The Hann window of that length, read-only, and the power scale that
    calibrates a full-scale sine at a bin center to unit power."""
    hann = np.hanning(window)
    hann.setflags(write=False)
    return hann, (hann.sum() / 2.0) ** 2


def _block_frames(window):
    """Frames of one SPECTRUM_BLOCK_BYTES block of windowed frames."""
    return max(1, SPECTRUM_BLOCK_BYTES // (8 * window))


def _frame_count(samples, window):
    """Back-to-back frames of window samples along the last axis; a
    trailing partial frame is dropped."""
    if samples.shape[-1] < window:
        raise ValueError("clip too short for one analysis window")
    return samples.shape[-1] // window


def _stft_power(samples, window):
    """Power spectra of back-to-back Hann-windowed frames along the last
    axis: (..., frames, window // 2 + 1); a trailing partial frame is
    dropped.

    The frames are a view of samples.  They are transformed
    _block_frames(window) at a time into the preallocated result, so each
    block's windowed frames and complex spectrum stay in cache instead of
    making whole-clip temporaries.
    """
    n_frames = _frame_count(samples, window)
    frames = samples[..., :n_frames * window].reshape(
        samples.shape[:-1] + (n_frames, window))
    hann, scale = _hann(window)
    step = _block_frames(window)
    power = np.empty(frames.shape[:-1] + (window // 2 + 1,))
    for lead in np.ndindex(frames.shape[:-2]):
        for f in range(0, n_frames, step):
            block = slice(f, f + step)
            rows = power[lead][block]
            np.abs(np.fft.rfft(frames[lead][block] * hann), out=rows)
            np.square(rows, out=rows)
            rows /= scale
    return power


def bark_power(clip):
    """Per-frame power of an ANALYSIS_RATE clip summed into the 24 Bark
    bands, (24, T).  Bands above Nyquist stay zero."""
    power = clip.spectrum
    return np.stack([power[:, cols].sum(axis=1) for cols in _BARK_COLUMNS])


def db_from_power(power):
    """Power -> dB SPL with the silence floor pinned at 0."""
    return 10.0 * np.log10(power + 10.0 ** (DB_FLOOR / 10.0)) - DB_FLOOR


def phon_from_db(db_spl):
    """Loudness level per band via the equal-loudness contour table.

    Piecewise-linear interpolation between contours, linear extrapolation
    beyond them, clamped at 0 phon.
    """
    db_spl = np.asarray(db_spl, dtype=np.float64)
    out = np.empty_like(db_spl)
    for b in range(24):
        out[b] = np.interp(db_spl[b], _CONTOUR_SPL[:, b], _PHON_LEVELS)
        # linear extrapolation above the top contour
        top = _CONTOUR_SPL[-1, b]
        above = db_spl[b] > top
        if np.any(above):
            slope = (_PHON_LEVELS[-1] - _PHON_LEVELS[-2]) / \
                (_CONTOUR_SPL[-1, b] - _CONTOUR_SPL[-2, b])
            out[b][above] = _PHON_LEVELS[-1] + slope * (db_spl[b][above] - top)
        low = _CONTOUR_SPL[0, b]
        below = db_spl[b] < low
        if np.any(below):
            slope = (_PHON_LEVELS[1] - _PHON_LEVELS[0]) / \
                (_CONTOUR_SPL[1, b] - _CONTOUR_SPL[0, b])
            out[b][below] = _PHON_LEVELS[0] + slope * (db_spl[b][below] - low)
    return np.maximum(out, 0.0)


def sone_from_phon(phon):
    """Standard phon -> sone map: 2**((phon-40)/10) above 40, power law below."""
    phon = np.asarray(phon, dtype=np.float64)
    # np.where's two branches, each over every value but computed in
    # place: the same bits with one temporary less
    sone = phon - 40.0
    sone /= 10.0
    np.power(2.0, sone, out=sone)
    quiet = np.maximum(phon, 0.0)
    quiet /= 40.0
    np.power(quiet, 2.642, out=quiet)
    np.copyto(sone, quiet, where=phon < 40.0)
    return sone


def sonogram(clip):
    """Psychoacoustically transformed spectrogram (Bark / dB / phon / sone)
    of an ANALYSIS_RATE clip: loudness in sone, (24, T) at FRAME_RATE."""
    return sone_from_phon(phon_from_db(db_from_power(bark_power(clip))))


def fluctuation_weight(freqs):
    """Perceptual fluctuation-strength weighting, peaking at 4 Hz, max 1."""
    freqs = np.asarray(freqs, dtype=np.float64)
    w = np.zeros_like(freqs)
    nz = freqs > 0
    w[nz] = 1.0 / (freqs[nz] / 4.0 + 4.0 / freqs[nz])
    return w / 0.5


_MOD_WEIGHT = fluctuation_weight(MOD_FREQUENCIES)


def _smooth3(matrix, axis):
    padded = np.moveaxis(np.pad(np.moveaxis(matrix, axis, 0),
                                ((1, 1), (0, 0)), mode="edge"), 0, axis)
    sl = [slice(None)] * matrix.ndim
    out = np.zeros_like(matrix, dtype=np.float64)
    for k in range(3):
        sl[axis] = slice(k, k + matrix.shape[axis])
        out += padded[tuple(sl)]
    return out / 3.0


def rhythm_pattern(son_values):
    """Modulation magnitudes of one sonogram segment: (24, 60).

    son_values is (24, SEGMENT_FRAMES).  Per band, the DFT over time yields
    magnitudes at MOD_FREQUENCIES, the first 60 nonzero modulation
    frequencies (about 0.17..10 Hz); they get the fluctuation-strength
    weighting and a 3-point moving-average smoothing along both axes.
    """
    son_values = np.asarray(son_values, dtype=np.float64)
    if son_values.shape != (24, SEGMENT_FRAMES):
        raise ValueError(f"expected a (24, {SEGMENT_FRAMES}) sonogram "
                         f"segment, got {son_values.shape}")

    spectrum = np.abs(np.fft.rfft(son_values, axis=1))[:, 1:N_MOD_FREQS + 1]
    return _smooth3(_smooth3(spectrum * _MOD_WEIGHT[None, :], 1), 0)


def rhythm_histogram(rp):
    """Sum of the rhythm pattern over the 24 bands: 60 values."""
    rp = np.asarray(rp)
    if rp.shape != (24, N_MOD_FREQS):
        raise ValueError("expected a 24x60 rhythm pattern")
    return rp.sum(axis=0)


def ssd(son_values):
    """Statistical spectrum descriptor: the SSD moments per Bark band over
    time, shape (24, 7)."""
    son_values = np.asarray(son_values, dtype=np.float64)
    if son_values.shape[0] != 24 or son_values.shape[1] < 2:
        raise ValueError("expected (24, T>=2) sonogram values")
    return aggregate.moments(son_values.T, aggregate.SSD_MOMENTS).reshape(24, 7)


def modvar(rp):
    """Modulation-frequency variance descriptor: the SSD moments per
    modulation frequency across the 24 bands, shape (60, 7)."""
    rp = np.asarray(rp)
    if rp.shape != (24, N_MOD_FREQS):
        raise ValueError("expected a 24x60 rhythm pattern")
    return aggregate.moments(rp, aggregate.SSD_MOMENTS).reshape(N_MOD_FREQS, 7)


def track_features(clip):
    """Track-level rp_extract-style feature family.

    The clip, at any rate, is resampled to ANALYSIS_RATE, its sonogram cut
    into back-to-back SEGMENT_FRAMES (6 s) segments (skipping the first and
    last when at least 4 exist) and per-segment features are aggregated:
    element-wise median for RP/RH, mean for SSD/MVD; the temporal variants
    take the SSD moments over the per-segment SSD and RH vectors.

    Returns a dict of flat float arrays, sized as in TRACK_FEATURES.
    """
    son = sonogram(resample(clip))
    n_seg = son.shape[1] // SEGMENT_FRAMES
    if n_seg < 1:
        raise ValueError("clip too short: need at least 6 s")
    segments = range(1, n_seg - 1) if n_seg >= 4 else range(n_seg)

    rps, rhs, ssds, mvds = [], [], [], []
    for s in segments:
        sl = son[:, s * SEGMENT_FRAMES:(s + 1) * SEGMENT_FRAMES]
        rp = rhythm_pattern(sl)
        rps.append(rp)
        rhs.append(rhythm_histogram(rp))
        ssds.append(ssd(sl).ravel())
        mvds.append(modvar(rp).ravel())
    rhs, ssds, mvds = np.array(rhs), np.array(ssds), np.array(mvds)

    return {
        "rp": np.median(rps, axis=0).ravel(),
        "rh": np.median(rhs, axis=0),
        "ssd": ssds.mean(axis=0),
        "mvd": mvds.mean(axis=0),
        "tssd": aggregate.moments(ssds, aggregate.SSD_MOMENTS),
        "trh": aggregate.moments(rhs, aggregate.SSD_MOMENTS),
    }


def mfcc(samples):
    """Mel-frequency cepstral coefficients per frame of the last axis of
    ANALYSIS_RATE samples, shape (..., frames, 13).

    samples may also be an AudioClip at ANALYSIS_RATE; its kept spectrum is
    used, so a clip's MFCC and sonogram share one STFT, and its mel energies
    are one product.  Stacked rows are transformed and projected one row at
    a time, so only one row's spectrum exists at once; the stacked product
    gives each row the same bits.

    Power spectrum -> triangular mel filterbank (0..Nyquist) -> log ->
    orthonormal DCT-II, keeping the first MFCC_COEFFS coefficients.
    """
    if isinstance(samples, AudioClip):
        mel = samples.spectrum @ _MEL_BANK.T
    else:
        lead = samples.shape[:-1]
        mel = np.empty(lead + (_frame_count(samples, SPECTRUM_WINDOW),
                               MFCC_FILTERS))
        for row in np.ndindex(lead):
            mel[row] = _stft_power(samples[row], SPECTRUM_WINDOW) @ _MEL_BANK.T
    mel += 1e-20
    np.log(mel, out=mel)
    return _dct2_ortho(mel)[..., :MFCC_COEFFS]


def _mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_inv(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def _mel_filterbank(n_filters, freqs, f_max):
    points = _mel_inv(np.linspace(_mel(0.0), _mel(f_max), n_filters + 2))
    bank = np.zeros((n_filters, freqs.size))
    for i in range(n_filters):
        lo, mid, hi = points[i], points[i + 1], points[i + 2]
        rising = (freqs >= lo) & (freqs <= mid)
        falling = (freqs > mid) & (freqs <= hi)
        if mid > lo:
            bank[i, rising] = (freqs[rising] - lo) / (mid - lo)
        if hi > mid:
            bank[i, falling] = (hi - freqs[falling]) / (hi - mid)
    return bank


_MEL_BANK = _mel_filterbank(MFCC_FILTERS, _SPECTRUM_FREQS, ANALYSIS_RATE / 2.0)


def _dct2_ortho(x):
    n = x.shape[-1]
    k = np.arange(n)
    basis = np.cos(np.pi / n * (k[None, :] + 0.5) * k[:, None])
    out = 2.0 * x @ basis.T
    out[..., 0] *= np.sqrt(1.0 / (4.0 * n))
    out[..., 1:] *= np.sqrt(1.0 / (2.0 * n))
    return out


# the CHROMA_WINDOW bins from CHROMA_MIN_FREQ up, grouped by pitch class
_CHROMA_FREQS = np.fft.rfftfreq(CHROMA_WINDOW, d=1.0 / ANALYSIS_RATE)
_CHROMA_USABLE = np.flatnonzero(_CHROMA_FREQS >= CHROMA_MIN_FREQ)
_PITCH_CLASS = np.round(69.0 + 12.0 * np.log2(
    _CHROMA_FREQS[_CHROMA_USABLE] / 440.0)).astype(np.int64) % 12
_CHROMA_BINS = tuple(_CHROMA_USABLE[_PITCH_CLASS == pc] for pc in range(12))


def _pitch_class_table():
    """(longest class, 12): column pc lists class pc's bins in bin order,
    padded with the index of the zero row that _pitch_class_sums appends
    to the bins."""
    table = np.full((max(map(len, _CHROMA_BINS)), 12), _CHROMA_FREQS.size)
    for pc, bins in enumerate(_CHROMA_BINS):
        table[:bins.size, pc] = bins
    return table


_CHROMA_TABLE = _pitch_class_table()


def _pitch_class_sums(power, out):
    """Fold a block of power spectra (frames, bins) into out (frames, 12).

    Each class's bins are added one after another in bin order, the order
    in which numpy sums a gathered array of more than one frame.  They are
    gathered from a transposed copy of the block with a zero row, which
    pads the shorter classes without changing their sums.
    """
    padded = np.empty((power.shape[1] + 1, power.shape[0]))
    padded[:-1] = power.T
    padded[-1] = 0.0
    np.sum(np.take(padded, _CHROMA_TABLE, axis=0), axis=0, out=out.T)


def chroma(samples):
    """Pitch-class energy profile per frame of the last axis of
    ANALYSIS_RATE samples (A4 = 440 Hz reference).

    Returns (values (..., frames, 12), significant (..., frames)): rows are
    normalized to sum 1; near-silent frames are uniform and flagged
    non-significant.  Pitch class 0 is C.

    No whole power spectrum is made: each row is transformed
    _block_frames(CHROMA_WINDOW) frames at a time, and each block is folded
    into its pitch-class sums before the next.  Each class's bins are added
    in bin order, except that the bins of an input of one frame in all are
    summed pairwise, as numpy sums one contiguous frame.
    """
    lead = samples.shape[:-1]
    n_frames = _frame_count(samples, CHROMA_WINDOW)
    values = np.empty(lead + (n_frames, 12))
    if values.size == 12:
        power = _stft_power(samples, CHROMA_WINDOW).reshape(-1)
        values.flat = [power[bins].sum() for bins in _CHROMA_BINS]
    else:
        step = _block_frames(CHROMA_WINDOW)
        for row in np.ndindex(lead):
            for f in range(0, n_frames, step):
                block = samples[row][f * CHROMA_WINDOW:
                                     (f + step) * CHROMA_WINDOW]
                _pitch_class_sums(_stft_power(block, CHROMA_WINDOW),
                                  values[row][f:f + step])

    totals = values.sum(axis=-1)
    significant = totals > 1e-10
    values[significant] /= totals[significant][:, None]
    values[~significant] = 1.0 / 12.0
    return values, significant


PITCH_CLASS_NAMES = ("C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A",
                     "A#", "B")


# track feature sets: name -> (values per track, function that computes them
# from an ANALYSIS_RATE AudioClip); mfcc and chroma are the mean and std of
# the per-frame values.  Each entry calls its functions through the module
# globals, so a function replaced on the module after import is the one
# that runs.
TRACK_FEATURES = {
    "rp": (1440, lambda clip: clip.rp_family["rp"]),
    "rh": (60, lambda clip: clip.rp_family["rh"]),
    "ssd": (168, lambda clip: clip.rp_family["ssd"]),
    "mvd": (420, lambda clip: clip.rp_family["mvd"]),
    "tssd": (1176, lambda clip: clip.rp_family["tssd"]),
    "trh": (420, lambda clip: clip.rp_family["trh"]),
    # the clip, not its samples: the MFCC and the sonogram share the
    # clip's one spectrum
    "mfcc": (2 * MFCC_COEFFS, lambda clip: aggregate.moments(
        mfcc(clip), ("mean", "std"))),
    "chroma": (2 * len(PITCH_CLASS_NAMES), lambda clip: aggregate.moments(
        chroma(clip.samples)[0], ("mean", "std"))),
}
