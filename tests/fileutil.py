"""Writers for the toolkit's input formats, and the reader of the id lists
that `avmir splits` writes; the tests build their inputs and read their
outputs with these."""

import json
import struct
from pathlib import Path

import numpy as np

from avmir.io import open_text


def write_wav(path, clip):
    """Write a mono 16-bit PCM WAV file."""
    samples = np.clip(clip.samples, -1.0, 1.0)
    pcm = np.round(samples * 32767.0).astype("<i2").tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(pcm), b"WAVE", b"fmt ", 16, 1, 1,
        clip.sample_rate, clip.sample_rate * 2, 2, 16, b"data", len(pcm))
    Path(path).write_bytes(header + pcm)


def write_raw_stream(path, frames, fps=25.0):
    """Write frames in the raw-RGB24-with-preamble format; returns the count."""
    frames = iter(frames)
    first = np.ascontiguousarray(next(frames), dtype=np.uint8)
    h, w = first.shape[:2]
    count = 0
    with open(path, "wb") as fh:
        fh.write(json.dumps({"width": w, "height": h, "fps": fps}).encode()
                 + b"\n")
        for frame in (first, *frames):
            frame = np.ascontiguousarray(frame, dtype=np.uint8)
            if frame.shape != (h, w, 3):
                raise ValueError("all frames must share the first frame's shape")
            fh.write(frame.tobytes())
            count += 1
    return count


def write_pgm(path, image):
    image = np.ascontiguousarray(image, dtype=np.uint8)
    h, w = image.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(image.tobytes())


def read_id_list(path):
    with open_text(path) as fh:
        return [line for line in fh.read().splitlines() if line.strip()]
