"""The feature tables: every entry of visual.FRAME_FEATURES,
audio.TRACK_FEATURES and aggregate.PRESETS gives exactly the value count it
declares, which is the count the CLI's column names are built from."""

import numpy as np
import pytest

from avmir import aggregate, audio, imgprep, visual
from avmir.aggregate import SegmentBundle
from avmir.audio import AudioClip
from conftest import random_frame


def _bundle(rng, segments=10):
    return SegmentBundle(timbre=rng.normal(size=(segments, 12)),
                         pitches=rng.random((segments, 12)),
                         loudness_max=rng.random(segments),
                         loudness_max_time=rng.random(segments),
                         segment_length=np.full(segments, 1.0))


# table name -> (table, small input its functions take)
TABLES = {
    "visual.FRAME_FEATURES": (
        visual.FRAME_FEATURES,
        lambda rng: imgprep.FrameContext(random_frame(rng, 24, 32))),
    "audio.TRACK_FEATURES": (
        audio.TRACK_FEATURES,
        # one 6 s segment and a bit: the shortest clip the rp family takes
        lambda rng: AudioClip(rng.normal(0.0, 0.1, int(6.5 * 22050)),
                              audio.ANALYSIS_RATE)),
    "aggregate.PRESETS": (aggregate.PRESETS, _bundle),
}


@pytest.mark.parametrize("table", TABLES)
def test_every_entry_gives_its_declared_count(rng, table):
    entries, make_input = TABLES[table]
    source = make_input(rng)
    for name, (count, compute) in entries.items():
        values = compute(source)
        assert values.dtype == np.float64, name
        assert values.shape == (count,), name
        assert np.all(np.isfinite(values)), name
