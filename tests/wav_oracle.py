"""Whole-buffer reference for avmir.io.read_wav.

It reads the whole file into bytes, walks the chunks in that buffer and
decodes the data chunk in one step: every sample widened to float64, scaled
per channel, then stereo averaged by np.mean.  read_wav decodes block by
block from the open file instead; tests/test_io.py requires the same
samples and the same located errors.
"""

import struct
from pathlib import Path

import numpy as np

from avmir.audio import AudioClip
from avmir.errors import WavFormatError


def read_wav_oracle(path):
    data = Path(path).read_bytes()
    if len(data) < 12 or data[0:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise WavFormatError(path, "not a RIFF/WAVE file", 0)

    fmt = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos:pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        body = pos + 8
        if body + size > len(data):
            raise WavFormatError(path, f"chunk {chunk_id!r} truncated", pos)
        if chunk_id == b"fmt ":
            if size < 16:
                raise WavFormatError(path, "fmt chunk too small", pos)
            fmt = struct.unpack_from("<HHIIHH", data, body)
            audio_format, channels, sample_rate, _, _, bits = fmt
            if audio_format != 1:
                raise WavFormatError(path, f"unsupported format tag "
                                     f"{audio_format} (PCM only)", pos)
            if channels not in (1, 2):
                raise WavFormatError(
                    path, f"unsupported channel count {channels}", pos)
            if bits not in (8, 16):
                raise WavFormatError(path, f"unsupported bit depth {bits}", pos)
            if sample_rate == 0:
                raise WavFormatError(path, "sample rate 0", pos)
        elif chunk_id == b"data":
            if fmt is None:
                raise WavFormatError(path, "data chunk before fmt chunk", pos)
            return _decode_pcm(path, data, body, size, fmt)
        pos = body + size + (size & 1)
    raise WavFormatError(path, "no data chunk found", pos)


def _decode_pcm(path, data, body, size, fmt):
    _, channels, sample_rate, _, _, bits = fmt
    bytes_per_frame = channels * bits // 8
    if size % bytes_per_frame != 0:
        raise WavFormatError(path, "data size is not a whole number of frames",
                             body + size - size % bytes_per_frame)
    if bits == 16:
        samples = np.frombuffer(data, dtype="<i2", count=size // 2,
                                offset=body).astype(np.float64)
        samples /= 32768.0
    else:
        samples = np.frombuffer(data, dtype=np.uint8, count=size,
                                offset=body).astype(np.float64)
        samples -= 128.0
        samples /= 128.0
    if channels == 2:
        samples = samples.reshape(-1, 2).mean(axis=1)
    if samples.size == 0:
        raise WavFormatError(path, "empty data chunk", body)
    return AudioClip(samples, sample_rate)
