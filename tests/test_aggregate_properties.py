"""Property tests of avmir.aggregate drawn by hypothesis, kept apart from
tests/test_aggregate.py so that its other tests run without hypothesis."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from avmir import aggregate


class TestMoments:
    @given(st.lists(st.floats(-100.0, 100.0), min_size=2, max_size=40),
           st.floats(0.01, 50.0), st.floats(-100.0, 100.0))
    @example([0.0, 5e-324], 0.5, 0.0)
    @settings(max_examples=80, deadline=None)
    def test_affine_transformation_law(self, values, a, b):
        spread = max(values) - min(values)
        # float64 cannot represent a spread swamped by the offset; the law
        # holds for exactly-constant input or a well-conditioned transform.
        # Below the smallest normal float a * seq rounds its subnormal
        # spread away, so it is no longer an affine image of seq.
        scale_moved = a * max(abs(v) for v in values) + abs(b)
        assume(spread == 0.0
               or (min(spread, a * spread) >= np.finfo(float).tiny
                   and scale_moved < 1e5 * a * spread))
        seq = np.array(values)[:, None]
        base = aggregate.moments(seq, aggregate.TEN_MOMENTS)
        moved = aggregate.moments(a * seq + b, aggregate.TEN_MOMENTS)
        order = aggregate.TEN_MOMENTS
        i = {name: order.index(name) for name in order}
        tol = 1e-9 * max(1.0, np.abs(base).max()) * max(1.0, a * a)
        for name in ("mean", "median", "min", "max"):
            assert moved[i[name]] == pytest.approx(a * base[i[name]] + b,
                                                   abs=tol)
        assert moved[i["variance"]] == pytest.approx(
            a * a * base[i["variance"]], abs=tol)
        assert moved[i["range"]] == pytest.approx(a * base[i["range"]],
                                                  abs=tol)
        assert moved[i["skewness"]] == pytest.approx(base[i["skewness"]],
                                                     abs=1e-6)
        assert moved[i["kurtosis"]] == pytest.approx(base[i["kurtosis"]],
                                                     rel=1e-6, abs=1e-6)
