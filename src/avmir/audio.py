"""Psychoacoustic audio descriptors computed from raw PCM.

The sonogram pipeline follows the classic loudness-sensation chain: STFT,
grouping into the 24 Bark critical bands, then decibel, phon and sone
transformations.  On top of it sit the rhythm pattern family (modulation
spectra per band), the statistical spectrum descriptors and their temporal
variants, plus plain MFCC and chroma features.

The equal-loudness data below is a compact piecewise-linear approximation of
the ISO 226 contours, resampled at the Bark band centers; the phon->sone map
is the standard one (doubling per 10 phon above 40, power law below).
"""

from dataclasses import dataclass

import numpy as np

from . import aggregate

ANALYSIS_RATE = 22050
DB_FLOOR = -72.0

# Zwicker critical band edges (Hz); 24 bands
BARK_EDGES = np.array([
    0, 100, 200, 300, 400, 510, 630, 770, 920, 1080, 1270, 1480, 1720,
    2000, 2320, 2700, 3150, 3700, 4400, 5300, 6400, 7700, 9500, 12000, 15500,
], dtype=np.float64)

BARK_CENTERS = np.array([
    50, 150, 250, 350, 450, 570, 700, 840, 1000, 1175, 1370, 1600, 1850,
    2150, 2500, 2900, 3400, 4000, 4800, 5800, 7000, 8500, 10750, 13750,
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
# back-to-back frames of one window each
SONOGRAM_WINDOW = 512
MFCC_WINDOW = 512
CHROMA_WINDOW = 4096

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
    """Mono audio in [-1, 1]."""
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


@dataclass
class Sonogram:
    """Bark-band x time loudness matrix in sone."""
    values: np.ndarray      # (24, T)
    frame_rate: float       # sonogram frames per second
    sample_rate: int


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


def _stft_power(samples, window):
    """Power spectra of back-to-back Hann-windowed frames along the last
    axis: (..., frames, window // 2 + 1); a trailing partial frame is
    dropped."""
    if samples.shape[-1] < window:
        raise ValueError("clip too short for one analysis window")
    n_frames = samples.shape[-1] // window
    frames = samples[..., :n_frames * window].reshape(
        samples.shape[:-1] + (n_frames, window))
    hann = np.hanning(window)
    spec = np.fft.rfft(frames * hann, axis=-1)
    # calibrated so a full-scale sine at a bin center gives unit power
    scale = (hann.sum() / 2.0) ** 2
    return np.abs(spec) ** 2 / scale


def bark_power(clip):
    """Per-frame power summed into the 24 Bark bands.

    Returns (power (24, T), frame_rate).  Bands above Nyquist stay zero.
    """
    power = _stft_power(clip.samples, SONOGRAM_WINDOW)
    freqs = np.fft.rfftfreq(SONOGRAM_WINDOW, d=1.0 / clip.sample_rate)
    band_of = np.searchsorted(BARK_EDGES, freqs, side="right") - 1
    band_of = np.clip(band_of, 0, 23)

    bands = np.zeros((24, power.shape[0]))
    for b in range(24):
        cols = (band_of == b) & (freqs < BARK_EDGES[b + 1])
        if np.any(cols):
            bands[b] = power[:, cols].sum(axis=1)
    return bands, clip.sample_rate / SONOGRAM_WINDOW


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
    return np.where(phon >= 40.0,
                    2.0 ** ((phon - 40.0) / 10.0),
                    (np.maximum(phon, 0.0) / 40.0) ** 2.642)


def sonogram(clip):
    """Psychoacoustically transformed spectrogram (Bark / dB / phon / sone)."""
    power, frame_rate = bark_power(clip)
    values = sone_from_phon(phon_from_db(db_from_power(power)))
    return Sonogram(values=values, frame_rate=frame_rate,
                    sample_rate=clip.sample_rate)


def fluctuation_weight(freqs):
    """Perceptual fluctuation-strength weighting, peaking at 4 Hz, max 1."""
    freqs = np.asarray(freqs, dtype=np.float64)
    w = np.zeros_like(freqs)
    nz = freqs > 0
    w[nz] = 1.0 / (freqs[nz] / 4.0 + 4.0 / freqs[nz])
    return w / 0.5


def _smooth3(matrix, axis):
    padded = np.moveaxis(np.pad(np.moveaxis(matrix, axis, 0),
                                ((1, 1), (0, 0)), mode="edge"), 0, axis)
    sl = [slice(None)] * matrix.ndim
    out = np.zeros_like(matrix, dtype=np.float64)
    for k in range(3):
        sl[axis] = slice(k, k + matrix.shape[axis])
        out += padded[tuple(sl)]
    return out / 3.0


def rhythm_pattern(son_values, frame_rate):
    """Modulation magnitudes of the sone time series: (24, 60).

    Per band, the DFT over time yields magnitudes at the first 60 nonzero
    modulation frequencies (about 0.17..10 Hz for 6 s segments); they get the
    fluctuation-strength weighting and a 3-point moving-average smoothing
    along both axes.
    """
    son_values = np.asarray(son_values, dtype=np.float64)
    if son_values.shape[0] != 24:
        raise ValueError("expected 24 Bark bands")
    t = son_values.shape[1]
    if t < 2 * N_MOD_FREQS + 1:
        raise ValueError("segment too short for 60 modulation frequencies")

    spectrum = np.abs(np.fft.rfft(son_values, axis=1))[:, 1:N_MOD_FREQS + 1]
    freqs = modulation_frequencies(frame_rate, t)
    weighted = spectrum * fluctuation_weight(freqs)[None, :]
    return _smooth3(_smooth3(weighted, 1), 0)


def modulation_frequencies(frame_rate, segment_frames):
    return np.arange(1, N_MOD_FREQS + 1) * frame_rate / segment_frames


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

    The clip is resampled to 22.05 kHz mono, cut into back-to-back 6 s
    sonogram segments (skipping the first and last segment when at least 4
    exist) and per-segment features are aggregated: element-wise median for
    RP/RH, mean for SSD/MVD; the temporal variants take the SSD moments
    over the per-segment SSD and RH vectors.

    Returns a dict of flat float arrays:
    rp 1440, rh 60, ssd 168, mvd 420, tssd 1176, trh 420.
    """
    clip = resample(clip)
    son = sonogram(clip)
    seg_frames = int(round(SEGMENT_SECONDS * son.frame_rate))
    n_seg = son.values.shape[1] // seg_frames
    if n_seg < 1:
        raise ValueError("clip too short: need at least 6 s")
    segments = range(1, n_seg - 1) if n_seg >= 4 else range(n_seg)

    rps, rhs, ssds, mvds = [], [], [], []
    for s in segments:
        sl = son.values[:, s * seg_frames:(s + 1) * seg_frames]
        rp = rhythm_pattern(sl, son.frame_rate)
        rps.append(rp)
        rhs.append(rhythm_histogram(rp))
        ssds.append(ssd(sl))
        mvds.append(modvar(rp))
    rps = np.array(rps)
    rhs = np.array(rhs)
    ssd_flat = np.array([s.ravel() for s in ssds])
    mvd_flat = np.array([m.ravel() for m in mvds])

    return {
        "rp": np.median(rps, axis=0).ravel(),
        "rh": np.median(rhs, axis=0),
        "ssd": ssd_flat.mean(axis=0),
        "mvd": mvd_flat.mean(axis=0),
        "tssd": aggregate.moments(ssd_flat, aggregate.SSD_MOMENTS),
        "trh": aggregate.moments(rhs, aggregate.SSD_MOMENTS),
    }


TRACK_FEATURE_DIMS = {"rp": 1440, "rh": 60, "ssd": 168, "mvd": 420,
                      "tssd": 1176, "trh": 420}


def mfcc(samples, sample_rate):
    """Mel-frequency cepstral coefficients per frame of the last axis of
    samples, shape (..., frames, 13).

    Power spectrum -> triangular mel filterbank (0..Nyquist) -> log ->
    orthonormal DCT-II, keeping the first MFCC_COEFFS coefficients.
    """
    power = _stft_power(samples, MFCC_WINDOW)
    freqs = np.fft.rfftfreq(MFCC_WINDOW, d=1.0 / sample_rate)

    fbank = _mel_filterbank(MFCC_FILTERS, freqs, sample_rate / 2.0)
    energies = power @ fbank.T
    logs = np.log(energies + 1e-20)
    return _dct2_ortho(logs)[..., :MFCC_COEFFS]


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


def _dct2_ortho(x):
    n = x.shape[-1]
    k = np.arange(n)
    basis = np.cos(np.pi / n * (k[None, :] + 0.5) * k[:, None])
    out = 2.0 * x @ basis.T
    out[..., 0] *= np.sqrt(1.0 / (4.0 * n))
    out[..., 1:] *= np.sqrt(1.0 / (2.0 * n))
    return out


def chroma(samples, sample_rate):
    """Pitch-class energy profile per frame of the last axis of samples
    (A4 = 440 Hz reference).

    Returns (values (..., frames, 12), significant (..., frames)): rows are
    normalized to sum 1; near-silent frames are uniform and flagged
    non-significant.  Pitch class 0 is C.
    """
    power = _stft_power(samples, CHROMA_WINDOW)
    freqs = np.fft.rfftfreq(CHROMA_WINDOW, d=1.0 / sample_rate)

    usable = freqs >= CHROMA_MIN_FREQ
    midi = 69.0 + 12.0 * np.log2(freqs[usable] / 440.0)
    pitch_class = np.round(midi).astype(np.int64) % 12
    power = power[..., usable]

    values = np.zeros(power.shape[:-1] + (12,))
    for pc in range(12):
        cols = pitch_class == pc
        if np.any(cols):
            values[..., pc] = power[..., cols].sum(axis=-1)

    totals = values.sum(axis=-1)
    significant = totals > 1e-10
    values[significant] /= totals[significant][:, None]
    values[~significant] = 1.0 / 12.0
    return values, significant


PITCH_CLASS_NAMES = ("C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A",
                     "A#", "B")
