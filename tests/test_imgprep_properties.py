"""Property tests of avmir.imgprep drawn by hypothesis, kept apart from
tests/test_imgprep.py so that its other tests run without hypothesis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avmir import imgprep


class TestCircularStats:
    @given(st.lists(st.floats(0.0, 2.0 * np.pi - 1e-9), min_size=1,
                    max_size=32),
           st.floats(-10.0, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_rotation_equivariance(self, hues, delta):
        base = imgprep.circular_stats(hues)
        rotated = imgprep.circular_stats(np.mod(np.array(hues) + delta,
                                                2.0 * np.pi))
        expected = np.mod(base.angular_mean + delta, 2.0 * np.pi)
        diff = np.angle(np.exp(1j * (rotated.angular_mean - expected)))
        assert abs(diff) < 1e-9
        assert rotated.angular_deviation == pytest.approx(
            base.angular_deviation, abs=1e-9)
