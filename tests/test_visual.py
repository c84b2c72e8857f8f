import numpy as np
import pytest

import cn_oracle
from avmir import imgprep, visual
from conftest import angle_gap, circular_trig, random_frame, solid_frame


def make_lch(l_values, c_values, h_values):
    """Synthetic LCH frame from flat per-pixel arrays (one row)."""
    l_arr = np.atleast_2d(np.asarray(l_values, dtype=np.float64))
    c_arr = np.atleast_2d(np.asarray(c_values, dtype=np.float64))
    h_arr = np.atleast_2d(np.asarray(h_values, dtype=np.float64))
    return imgprep.LchFrame(L=l_arr, C=c_arr, H=h_arr,
                            a=c_arr * np.cos(h_arr), b=c_arr * np.sin(h_arr))


def ihls_hue_angles(frame):
    """IHLS hue angles in [0, 2pi) and saturations by the angle formulas:
    arccos of the clipped ratio num / den, mirrored where b > g."""
    r, g, b = np.moveaxis(frame.astype(np.float64) / 255.0, -1, 0)
    num = r - 0.5 * g - 0.5 * b
    den = np.sqrt(np.maximum(r * r + g * g + b * b - r * g - r * b - g * b,
                             0.0))
    ratio = np.divide(num, den, out=np.ones_like(num), where=den > 1e-12)
    hue = np.arccos(np.clip(ratio, -1.0, 1.0))
    hue = np.mod(np.where(b > g, 2.0 * np.pi - hue, hue), 2.0 * np.pi)
    rgb = np.stack([r, g, b])
    return hue, rgb.max(axis=0) - rgb.min(axis=0)


def gcs_trig(frame):
    """gcs's four hue statistics by the trig formulas."""
    hue, sat = ihls_hue_angles(frame)
    chromatic = sat >= imgprep.ACHROMATIC_EPS
    return (circular_trig(hue[chromatic])
            + circular_trig(hue[chromatic], sat[chromatic]))


class TestGcs:
    def test_all_black_is_degenerate(self):
        values = visual.gcs(imgprep.FrameContext(solid_frame(0, 0, 0)).ihls)
        assert values[0] == 0.0
        assert values[1] == 0.0
        assert values[3] == pytest.approx(np.sqrt(2.0))

    def test_pure_red(self):
        ihls = imgprep.FrameContext(solid_frame(255, 0, 0)).ihls
        sat, lum, mean_h, dev_h, wmean_h, wdev_h = visual.gcs(ihls)
        assert sat == pytest.approx(1.0)
        assert mean_h == pytest.approx(0.0, abs=1e-9)
        assert dev_h == pytest.approx(0.0, abs=1e-9)
        assert wmean_h == pytest.approx(0.0, abs=1e-9)
        assert wdev_h == pytest.approx(0.0, abs=1e-9)

    def test_opposed_hues_give_max_deviation(self):
        frame = np.zeros((2, 2, 3), np.uint8)
        frame[0, :, 0] = 255              # red: hue 0
        frame[1, :, 1] = 255              # green-cyan side
        frame[1, :, 2] = 255              # cyan: hue pi, saturation 1
        ihls = imgprep.FrameContext(frame).ihls
        _, _, mean_h, dev_h, wmean_h, wdev_h = visual.gcs(ihls)
        assert dev_h == pytest.approx(np.sqrt(2.0), abs=1e-9)
        assert wdev_h == pytest.approx(np.sqrt(2.0), abs=1e-9)
        # equal saturations: weighted and unweighted stats agree
        assert wmean_h == pytest.approx(mean_h, abs=1e-9)

    def test_dimension(self, rng):
        ihls = imgprep.FrameContext(random_frame(rng)).ihls
        assert visual.gcs(ihls).shape == (6,)

    def test_matches_trig_formulas(self, rng):
        tiles = rng.uniform(40, 255, size=(3, 4, 3))
        mosaic = np.kron(tiles, np.ones((30, 40, 1)))
        mosaic += rng.normal(0.0, 18.0, size=mosaic.shape)
        # hues near red, where the ratio is near 1, and a tight cluster
        near_red = solid_frame(250, 20, 20, 24, 24).astype(int)
        near_red[..., 1:] += rng.integers(-2, 3, size=(24, 24, 2))
        frames = {"noise": random_frame(rng, 37, 53),
                  "mosaic": np.clip(mosaic, 0, 255).astype(np.uint8),
                  "near red": near_red.astype(np.uint8),
                  "one pixel": np.array([[[200, 30, 90]]], np.uint8)}
        for name, frame in frames.items():
            got = visual.gcs(imgprep.FrameContext(frame).ihls)[2:]
            want = gcs_trig(frame)
            assert angle_gap(got[0], want[0]) <= 1e-12, name
            assert abs(got[1] - want[1]) <= 1e-12, name
            assert angle_gap(got[2], want[2]) <= 1e-12, name
            assert abs(got[3] - want[3]) <= 1e-12, name

    def test_hues_symmetric_about_zero_mean_exactly_zero(self):
        # with one channel at 0, swapping g and b keeps the ratio's bits and
        # negates the sine exactly: the resultant lies on the red axis
        for level in (1, 60, 128, 254):
            frame = np.array([[[255, 0, level], [255, level, 0]]], np.uint8)
            values = visual.gcs(imgprep.FrameContext(frame).ihls)
            assert values[2] == 0.0 and values[4] == 0.0, level
            assert not np.signbit(values[2]) and not np.signbit(values[4])

    def test_opposite_hues_zero_resultant(self):
        # red and cyan: (1, 0) and (-1, 0) sum to zero, which keeps the
        # convention mean 0, and each lies 2 or 0 away from (1, 0)
        frame = np.array([[[255, 0, 0], [0, 255, 255]]], np.uint8)
        values = visual.gcs(imgprep.FrameContext(frame).ihls)
        assert values[2] == 0.0 and values[4] == 0.0
        assert values[3] == visual.MAX_DEVIATION
        assert values[5] == visual.MAX_DEVIATION

    @pytest.mark.parametrize("rgb, sixths", [
        ((255, 0, 0), 0), ((255, 255, 0), 1), ((0, 255, 0), 2),
        ((0, 255, 255), 3), ((0, 0, 255), 4), ((255, 0, 255), 5)])
    def test_primaries_and_secondaries(self, rgb, sixths):
        values = visual.gcs(imgprep.FrameContext(solid_frame(*rgb)).ihls)
        for mean, dev in (values[2:4], values[4:6]):
            assert angle_gap(mean, sixths * np.pi / 3.0) <= 1e-12
            assert dev <= 1e-12


class TestGev:
    def test_zero_input(self):
        np.testing.assert_allclose(visual.gev_values(0.0, 0.0), [0.0, 0.0, 0.0])

    def test_unit_input(self):
        np.testing.assert_allclose(visual.gev_values(1.0, 1.0),
                                   [0.91, 0.29, 1.08], atol=1e-12)

    def test_half_brightness_no_saturation(self):
        np.testing.assert_allclose(visual.gev_values(0.5, 0.0),
                                   [0.345, -0.155, 0.38], atol=1e-12)

    def test_exactly_linear(self, rng):
        for _ in range(20):
            b, s, alpha = rng.random(3)
            np.testing.assert_allclose(visual.gev_values(alpha * b, alpha * s),
                                       alpha * visual.gev_values(b, s),
                                       atol=1e-12)


class TestColorfulness:
    def test_uniform_histogram_is_maximal(self, rng):
        # frame hitting every cell of the partitioned cube once, at its center
        frame = visual.CF_CENTERS.reshape(8, 8, 3).astype(np.uint8)
        # the farthest centers are opposite corner cells, 3/4 of 256 apart
        # along each axis
        dmax = 192.0 * np.sqrt(3.0)
        assert visual.colorfulness(frame)[0] == pytest.approx(dmax, abs=1e-9)
        # no cell has surplus, so nothing moves and the score is exact
        assert visual.colorfulness(frame)[0] == visual._CF_DMAX

    def test_single_color_closed_form(self):
        # point mass -> uniform: optimal transport is forced, cost is the
        # mean distance from the occupied cell to all cells
        for cell, center in enumerate(visual.CF_CENTERS.astype(int)):
            dists = visual.CF_COST[cell]
            expected = visual._CF_DMAX - dists.mean()
            assert visual.colorfulness(solid_frame(*center))[0] == (
                pytest.approx(expected, rel=1e-12)), cell

    def test_histogram_cells_at_the_cell_edges(self, rng):
        # every pixel of the 8^3 colours whose channels are the first and
        # last level of each cell, in random counts
        levels = np.array([0, 63, 64, 127, 128, 191, 192, 255])
        colours = np.stack(np.meshgrid(levels, levels, levels, indexing="ij"),
                           axis=-1).reshape(-1, 3)
        pixels = np.repeat(colours, rng.integers(1, 5, len(colours)), axis=0)
        frame = pixels[rng.permutation(len(pixels))][None].astype(np.uint8)
        idx = (frame.astype(np.int64) * visual.CF_PARTITIONS) // 256
        cells = ((idx[..., 0] * visual.CF_PARTITIONS + idx[..., 1])
                 * visual.CF_PARTITIONS + idx[..., 2])
        counts = np.bincount(cells.ravel(), minlength=len(visual.CF_CENTERS))
        assert visual.rgb_histogram(frame).tobytes() == \
            (counts.astype(np.float64) / counts.sum()).tobytes()

    def test_noise_beats_flat_color(self, rng):
        noisy = visual.colorfulness(random_frame(rng, 32, 32))
        flat = visual.colorfulness(solid_frame(80, 120, 200, 32, 32))
        assert noisy[0] > flat[0]

    def test_permutation_invariant(self, rng):
        frame = random_frame(rng, 12, 12)
        shuffled = frame.reshape(-1, 3)[rng.permutation(144)].reshape(12, 12, 3)
        a = visual.colorfulness(frame)[0]
        b = visual.colorfulness(shuffled)[0]
        assert a == pytest.approx(b, abs=1e-9)


def frame_color_names(frame):
    return visual.color_names(*imgprep.FrameContext(frame).hsv_levels)


def _cn_frames(rng):
    """Frames of the CN parity test: random ones of many shapes, flat, grey
    and near-grey ones, and one 480x270 mosaic with texture."""
    frames = {}
    for h, w in [(37, 41), (33, 17), (3, 5), (1, 1), (1, 9), (9, 1), (2, 2)]:
        frames[f"noise {h}x{w}"] = random_frame(rng, h, w)
        grey = rng.integers(0, 256, size=(h, w, 1), dtype=np.uint8)
        frames[f"grey {h}x{w}"] = np.repeat(grey, 3, axis=2)
        near = grey.astype(int) + rng.integers(-3, 4, size=(h, w, 3))
        frames[f"near grey {h}x{w}"] = np.clip(near, 0, 255).astype(np.uint8)
    for r, g, b in [(0, 0, 0), (255, 255, 255), (128, 128, 128),
                    (150, 150, 150), (255, 0, 0), (10, 200, 90)]:
        frames[f"flat {r},{g},{b}"] = solid_frame(r, g, b, 45, 50)
    tiles = rng.uniform(40, 255, size=(3, 4, 3))
    mosaic = np.kron(tiles, np.ones((90, 120, 1)))
    mosaic += rng.normal(0.0, 18.0, size=mosaic.shape)
    frames["mosaic 270x480"] = np.clip(mosaic, 0, 255).astype(np.uint8)
    frames["noise 270x480"] = random_frame(rng, 270, 480)
    return frames


class TestColorNames:
    def test_all_black(self):
        values = frame_color_names(solid_frame(0, 0, 0, 40, 40))
        black_idx = visual.CN_COLOR_ORDER.index("black")
        assert values[black_idx] == 1.0

    def test_pure_red(self):
        values = frame_color_names(solid_frame(255, 0, 0, 40, 40))
        assert values[visual.CN_COLOR_ORDER.index("red")] >= 0.99

    def test_histogram_sums_to_one(self, rng):
        for _ in range(5):
            values = frame_color_names(random_frame(rng, 30, 30))
            assert values.sum() == pytest.approx(1.0, abs=1e-9)
            assert values.shape == (8,)

    def test_matches_float_pipeline_bytes(self, rng):
        for name, frame in _cn_frames(rng).items():
            hsv = cn_oracle.hsv_planes(frame)
            assert (frame_color_names(frame).tobytes()
                    == cn_oracle.color_names(hsv).tobytes()), name

    def test_pinned_histogram(self):
        # computed by the float pipeline (hsv_to_rgb, then the nearest
        # palette colour by squared RGB distance) before the level-domain
        # quantizer replaced it
        rng = np.random.default_rng(0)
        tiles = rng.uniform(40, 255, (3, 4, 3))
        frame = (np.kron(tiles, np.ones((30, 40, 1)))
                 + rng.normal(0.0, 24.0, (90, 160, 3)))
        frame = np.clip(frame, 0, 255).astype(np.uint8)
        got = " ".join(x.hex() for x in frame_color_names(frame))
        assert got == (
            "0x1.002468acf1358p-3 0x1.f37c048d159e2p-4 0x1.50369d0369d03p-3 "
            "0x1.ae147ae147ae1p-5 0x1.9555555555555p-3 0x1.c28f5c28f5c29p-7 "
            "0x1.2fedcba987654p-3 0x1.68f5c28f5c28fp-3")

    def test_palette_and_offsets_admit_level_decisions(self):
        # the level-domain quantizer needs the palette on the 8 corners of
        # the RGB cube and dither offsets that are multiples of 1/16: then
        # every float distance is exact, and L + offset > 127.5 (== 127.5)
        # exactly when scale * L + k > tie (== tie)
        corners = {(r, g, b) for r in (0, 255) for g in (0, 255)
                   for b in (0, 255)}
        palette = visual.CN_PALETTE
        assert len(palette) == 8
        assert {tuple(c) for c in palette.astype(int).tolist()} == corners
        assert np.array_equal(palette, palette.astype(int))
        n = visual.CN_BAYER_ORDER ** 2
        k = np.arange(n)
        offsets = visual.CN_DITHER_SPREAD * (k / n - 0.5)
        assert np.array_equal(offsets * 16.0, np.round(offsets * 16.0))
        assert np.abs(offsets).max() < 128.0
        level = np.arange(256)[:, None]
        channel = level + offsets[None, :]
        key = visual._CN_SCALE * level + k[None, :]
        assert np.array_equal(channel > 127.5, key > visual._CN_TIE)
        assert np.array_equal(channel == 127.5, key == visual._CN_TIE)

    def test_level_round_trip(self):
        # the V channel is the v level itself: level / 255 converts back to
        # the same level, as hsv_to_rgb rounds it
        levels = np.arange(256)
        unit = levels.astype(np.uint8) / 255.0
        back = np.clip(np.round(unit * 255.0), 0, 255).astype(np.uint8)
        np.testing.assert_array_equal(back, levels)
        rgb = cn_oracle.hsv_to_rgb(0.0, 0.0, unit)
        np.testing.assert_array_equal(rgb, np.repeat(levels[:, None], 3, 1))

    def test_p_levels_match_hsv_to_rgb(self):
        # in hue sector 0 the blue channel is P = v * (1 - s)
        from avmir._kernels import _p_levels
        unit = np.arange(256) / 255.0
        rgb = cn_oracle.hsv_to_rgb(0.0, unit[None, :], unit[:, None])
        np.testing.assert_array_equal(_p_levels().reshape(256, 256),
                                      rgb[..., 2])


class TestWaf:
    def test_all_black_mass_in_very_dark(self):
        lch = imgprep.FrameContext(solid_frame(0, 0, 0)).lch
        values = visual.waf(lch, sharpness=0.37)
        # factor one: 5 levels x (cold, warm); all mass in the first level
        assert values[0] + values[1] == pytest.approx(1.0)
        assert values[2:10].sum() == pytest.approx(0.0)
        # factor two warm/cool shares vanish for achromatic input
        assert values[10:16].sum() == pytest.approx(0.0)
        assert values[17] == pytest.approx(0.37)

    def test_mid_gray_centered_lightness(self):
        lch = imgprep.FrameContext(solid_frame(128, 128, 128)).lch
        values = visual.waf(lch, 0.0)
        mid = values[4] + values[5]           # level 2 (center 50)
        assert mid > 0.5
        assert values[10:16].sum() == pytest.approx(0.0)

    def test_half_warm_half_cool_equal_shares(self):
        lch = make_lch([50.0] * 8,
                       [45.0] * 8,
                       [np.deg2rad(30)] * 4 + [np.deg2rad(200)] * 4)
        values = visual.waf(lch, 0.0)
        warm = values[10] + values[12] + values[14]
        cool = values[11] + values[13] + values[15]
        assert warm == pytest.approx(cool, abs=0.01)
        assert warm > 0

    def test_class_sums_equal_masked_gathers(self, rng):
        # the level sums gathered class by class in pixel order, as
        # separate takes of the warm and cold pixels
        for frame in (random_frame(rng, 37, 53), solid_frame(200, 40, 40),
                      solid_frame(40, 40, 200)):
            lch = imgprep.FrameContext(frame).lch
            n = lch.L.size
            warm_hue = visual.is_warm(lch.H.ravel())
            warm, cold = np.flatnonzero(warm_hue), np.flatnonzero(~warm_hue)
            l_m = visual._triangular_memberships(
                lch.L.ravel(), visual.WAF_LIGHTNESS_CENTERS).T
            chroma = lch.C.ravel()
            c_m = visual._triangular_memberships(
                chroma, visual.WAF_CHROMA_CENTERS).T
            c_m *= chroma >= 1.0
            want = []
            for level in l_m:
                want += [level.take(cold).sum() / n, level.take(warm).sum() / n]
            for level in c_m:
                want += [level.take(warm).sum() / n, level.take(cold).sum() / n]
            got = visual.waf(lch, 0.5)
            assert got[:16].tobytes() == np.array(want).tobytes()

    def test_dimension_and_range(self, rng):
        lch = imgprep.FrameContext(random_frame(rng)).lch
        values = visual.waf(lch, 0.5)
        assert values.shape == (18,)
        assert np.all(values >= 0.0) and np.all(values <= 1.0)


def _triangular_memberships_loop(x, centers):
    """Reference: each triangle's rising, falling and saturated parts set
    through boolean masks, one center at a time."""
    x = np.asarray(x, dtype=np.float64)
    n = len(centers)
    out = np.zeros(x.shape + (n,))
    for i, c in enumerate(centers):
        m = np.zeros_like(x)
        if i > 0:
            left = centers[i - 1]
            rising = (x > left) & (x <= c)
            m[rising] = (x[rising] - left) / (c - left)
        if i < n - 1:
            right = centers[i + 1]
            falling = (x > c) & (x < right)
            m[falling] = (right - x[falling]) / (right - c)
        m[x == c] = 1.0
        if i == 0:
            m[x < c] = 1.0
        if i == n - 1:
            m[x > c] = 1.0
        out[..., i] = m
    return out


@pytest.mark.parametrize("chromatic", [True, False])
def test_waf_and_itten_share_the_achromatic_chroma(chromatic):
    # chroma exactly at the threshold is chromatic, one ulp below it is not
    chroma = visual.ACHROMATIC_CHROMA
    if not chromatic:
        chroma = np.nextafter(chroma, 0.0)
    warm, cold = np.deg2rad(30.0), np.deg2rad(200.0)
    waf = visual.waf(make_lch([50.0] * 4, [chroma] * 4, [warm] * 4), 0.0)
    assert (waf[10:16].sum() > 0.0) == chromatic
    labels = np.zeros((2, 2), np.int64)
    labels[1] = 1
    seg = visual.SegmentationMap(
        labels=labels, segment_count=2, mean_l=np.full(2, 50.0),
        mean_c=np.full(2, chroma), mean_h=np.array([warm, cold]),
        areas=np.ones(2))
    _, _, hue, warm_cold = visual.itten_contrasts(seg)
    assert (hue > 0.0) == chromatic
    assert (warm_cold > 0.0) == chromatic


class TestTriangularMemberships:
    @pytest.mark.parametrize("centers", [visual.WAF_LIGHTNESS_CENTERS,
                                         visual.WAF_CHROMA_CENTERS])
    def test_matches_mask_loop(self, rng, centers):
        c = np.asarray(centers)
        at = np.concatenate([c, np.nextafter(c, -np.inf),
                             np.nextafter(c, np.inf)])
        between = np.concatenate([(c[:-1] + c[1:]) / 2.0,
                                  rng.uniform(c[0], c[-1], 2000)])
        beyond = np.array([c[0] - 1.0, c[0] - 1e9, c[-1] + 1.0, c[-1] + 1e9,
                           -np.inf, np.inf, 0.0, -0.0])
        x = np.concatenate([at, between, beyond, rng.uniform(-50, 200, 2000)])
        rng.shuffle(x)
        for shaped in (x, x[:x.size // 6 * 6].reshape(-1, 6)):
            got = visual._triangular_memberships(shaped, centers)
            want = _triangular_memberships_loop(shaped, centers)
            assert got.shape == want.shape
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def _box_blur_per_line(data, axis):
    """blur_measure's 9-tap edge-padded box blur, one np.convolve per line
    along axis: the byte oracle of the one-convolve form."""
    kernel = np.ones(9) / 9.0
    pad = [(0, 0), (0, 0)]
    pad[axis] = (4, 4)
    padded = np.pad(data, pad, mode="edge")
    return np.apply_along_axis(
        lambda m: np.convolve(m, kernel, mode="valid"), axis, padded)


def _blur_measure_per_line(gray):
    scores = []
    for axis in (0, 1):
        d_orig = np.abs(np.diff(gray, axis=axis))
        d_blur = np.abs(np.diff(_box_blur_per_line(gray, axis), axis=axis))
        total = d_orig.sum()
        kept = np.maximum(d_orig - d_blur, 0.0).sum()
        scores.append(1.0 if total <= 0 else (total - kept) / total)
    return float(1.0 - max(scores))


class TestBlurMeasure:
    def test_constant_raster_is_zero(self):
        assert visual.blur_measure(np.full((16, 16), 9.0)) == 0.0

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (2, 2),
                                       (3, 17), (31, 5), (27, 48)])
    def test_one_convolve_matches_per_line_bytes(self, rng, shape):
        for scale in (1.0, 255.0, 1e-3):
            gray = rng.random(shape) * scale
            for axis in (0, 1):
                got = visual._box_blur(gray, axis)
                want = _box_blur_per_line(gray, axis)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
            assert (visual.blur_measure(gray).hex()
                    == _blur_measure_per_line(gray).hex())

    def test_checkerboard_sharper_than_blurred(self):
        board = np.indices((32, 32)).sum(axis=0) % 2 * 255.0
        kernel = np.ones(9) / 9.0
        blurred = np.apply_along_axis(
            lambda m: np.convolve(m, kernel, mode="same"), 0, board)
        blurred = np.apply_along_axis(
            lambda m: np.convolve(m, kernel, mode="same"), 1, blurred)
        assert visual.blur_measure(board) > visual.blur_measure(blurred)

    def test_blurring_never_raises_score(self, rng):
        img = rng.random((24, 24)) * 255.0
        kernel = np.ones(9) / 9.0
        blurred = np.apply_along_axis(
            lambda m: np.convolve(m, kernel, mode="same"), 0, img)
        blurred = np.apply_along_axis(
            lambda m: np.convolve(m, kernel, mode="same"), 1, blurred)
        assert visual.blur_measure(blurred) <= visual.blur_measure(img) + 1e-9

    def test_range(self, rng):
        v = visual.blur_measure(rng.random((16, 16)) * 255.0)
        assert 0.0 <= v <= 1.0

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1)])
    def test_single_row_or_column_is_fully_blurred(self, rng, shape):
        # an axis of one pixel has no variation, so it counts as blurred
        assert visual.blur_measure(rng.random(shape) * 255.0) == 0.0

    def test_thin_rasters_are_defined(self):
        # 2 x 2 checkerboard: along either axis a 0 -> 255 step becomes a
        # 255/9 step after the edge-padded 9-tap blur, so each axis keeps
        # 1/9 of its variation and the sharpness is 8/9
        board = np.array([[0.0, 255.0], [255.0, 0.0]])
        assert visual.blur_measure(board) == pytest.approx(8.0 / 9.0)
        # two rows that are constant along each row: that axis has no
        # variation, so the raster counts as fully blurred
        two_rows = np.zeros((2, 5))
        two_rows[1] = 255.0
        assert visual.blur_measure(two_rows) == 0.0

    @pytest.mark.parametrize("raster", [np.zeros((0, 4)), np.zeros(5),
                                        np.zeros((2, 2, 2))])
    def test_empty_or_not_2d_raises(self, raster):
        with pytest.raises(ValueError):
            visual.blur_measure(raster)


class TestSegmentFrame:
    def test_grid_counts(self, rng):
        lch = imgprep.FrameContext(random_frame(rng, 64, 64)).lch
        seg = visual.segment_frame(lch)
        assert seg.segment_count == 16
        assert np.all(seg.areas == 256)

    def test_ids_contiguous(self, rng):
        lch = imgprep.FrameContext(random_frame(rng, 33, 47)).lch
        seg = visual.segment_frame(lch)
        assert set(np.unique(seg.labels)) == set(range(seg.segment_count))

    def test_mean_l_matches_brute_force(self, rng):
        frame = random_frame(rng, 32, 32)
        lch = imgprep.FrameContext(frame).lch
        seg = visual.segment_frame(lch)
        for sid in range(seg.segment_count):
            mask = seg.labels == sid
            assert seg.mean_l[sid] == pytest.approx(lch.L[mask].mean(),
                                                    abs=1e-9)

    def test_mean_hue_matches_trig_formula(self, rng):
        lch = imgprep.FrameContext(random_frame(rng, 45, 37)).lch
        seg = visual.segment_frame(lch)
        for sid in range(seg.segment_count):
            mask = seg.labels == sid
            mean, _ = circular_trig(lch.H[mask], lch.C[mask])
            assert angle_gap(seg.mean_h[sid], mean) <= 1e-12, sid
        assert np.all((seg.mean_h >= 0.0) & (seg.mean_h < 2.0 * np.pi))


class TestIttenContrasts:
    def _two_segment_map(self, l_vals, c_vals, h_vals, areas=(1.0, 1.0)):
        labels = np.zeros((2, 2), np.int64)
        labels[1] = 1
        return visual.SegmentationMap(
            labels=labels, segment_count=2,
            mean_l=np.asarray(l_vals, float), mean_c=np.asarray(c_vals, float),
            mean_h=np.asarray(h_vals, float), areas=np.asarray(areas, float))

    def test_uniform_frame_all_zero(self, rng):
        frame = solid_frame(90, 40, 160, 32, 32)
        seg = visual.segment_frame(imgprep.FrameContext(frame).lch)
        np.testing.assert_allclose(visual.itten_contrasts(seg), 0.0,
                                   atol=1e-9)

    def test_full_lightness_contrast(self):
        seg = self._two_segment_map([0.0, 100.0], [30.0, 30.0], [1.0, 1.0])
        values = visual.itten_contrasts(seg)
        assert values[0] == pytest.approx(1.0)
        assert values[2] == pytest.approx(0.0, abs=1e-9)  # same hue

    def test_warm_cold_balance(self):
        seg = self._two_segment_map([50.0, 50.0], [40.0, 40.0],
                                    [np.deg2rad(30), np.deg2rad(200)])
        values = visual.itten_contrasts(seg)
        assert values[3] == pytest.approx(1.0)

    def test_is_warm_matches_wrapped_hues(self, rng):
        # in [0, 2pi) is_warm compares the hues as they are; elsewhere it
        # wraps them first
        inside = np.concatenate([rng.uniform(0.0, 2.0 * np.pi, 200),
                                 [0.0, -0.0, np.nextafter(2.0 * np.pi, 0.0),
                                  visual.WARM_HUE_HI,
                                  2.0 * np.pi + visual.WARM_HUE_LO]])
        outside = np.concatenate([inside, [-1.0, 7.0, 2.0 * np.pi, np.nan]])
        for hues in (inside, outside, rng.uniform(-20.0, 20.0, 200)):
            h = imgprep.wrap_angle(hues)
            want = (h < visual.WARM_HUE_HI) | (h > 2.0 * np.pi
                                               + visual.WARM_HUE_LO)
            np.testing.assert_array_equal(visual.is_warm(hues), want)
        assert visual.is_warm(np.array([])).shape == (0,)

    def test_single_segment_is_zero(self, rng):
        lch = imgprep.FrameContext(random_frame(rng, 8, 8)).lch
        seg = visual.segment_frame(lch)
        assert seg.segment_count == 1
        np.testing.assert_allclose(visual.itten_contrasts(seg), 0.0)


def blink_frames(freq_hz, fps, count, low=60, high=200, size=8):
    frames = []
    for i in range(count):
        phase = int(np.floor(2.0 * freq_hz * i / fps)) % 2
        v = high if phase else low
        frames.append(np.full((size, size, 3), v, np.uint8))
    return frames


def lfp_pattern(frames, preset="paper-60"):
    """The LFP pattern extract_video_features finds in uncropped frames."""
    _, pattern = visual.extract_video_features(
        frames, ["lfp"], lfp_preset=preset, crop_letterbox=False)
    return pattern


class TestLfp:
    def test_constant_video_is_silent(self):
        frames = [solid_frame(90, 90, 90)] * 550
        pattern = lfp_pattern(frames)
        assert not pattern.short_input
        np.testing.assert_allclose(pattern.values, 0.0, atol=1e-9)

    def test_blink_located_within_one_bin(self):
        pattern = lfp_pattern(blink_frames(2.0, 25.0, 512))
        active = pattern.values.sum(axis=1).argmax()
        peak = pattern.values[active].argmax()
        target = np.abs(pattern.mod_frequencies - 2.0).argmin()
        assert abs(peak - target) <= 1

    def test_linearity(self, rng):
        hists = rng.random((128, 24))
        a = visual.lfp_from_histograms(hists, 25.0)
        b = visual.lfp_from_histograms(2.0 * hists, 25.0)
        np.testing.assert_allclose(b.values, 2.0 * a.values, atol=1e-9)

    def test_time_reversal_preserves_magnitudes(self, rng):
        hists = rng.random((512, 24))
        fwd = visual.lfp_from_histograms(hists, 25.0)
        rev = visual.lfp_from_histograms(hists[::-1], 25.0)
        np.testing.assert_allclose(fwd.values, rev.values, atol=1e-9)

    def test_short_input_flagged(self, rng):
        pattern = visual.lfp_from_histograms(rng.random((40, 24)), 25.0)
        assert pattern.short_input

    def test_preset_dimensions(self):
        frames = blink_frames(2.0, 25.0, 64)
        for preset in visual.LFP_PRESETS:
            with pytest.warns(UserWarning, match="fewer frames"):
                pattern = lfp_pattern(frames, preset)
            assert visual.lfp_feature(pattern, preset).shape == \
                (visual.lfp_dims(preset),)

    def test_presets_reject_other_bin_counts(self, rng):
        pattern = visual.lfp_from_histograms(rng.random((64, 12)), 25.0)
        for preset in visual.LFP_PRESETS:
            with pytest.raises(ValueError, match="lightness bins"):
                visual.lfp_feature(pattern, preset)

    def test_fps_too_low_raises(self, rng):
        with pytest.raises(ValueError):
            visual.lfp_from_histograms(rng.random((64, 8)), fps=15.0)


def lightness_planes(bins):
    """L planes of real frames, and arrays of every edge value of a
    bins-bin histogram over [0, 100], of the values one ulp either side of
    each edge and of values just outside [0, 100]."""
    rng = np.random.default_rng(8)
    edges = np.linspace(0.0, 100.0, bins + 1)
    greys = np.repeat(np.arange(256, dtype=np.uint8), 3).reshape(16, 16, 3)
    return {
        "noise-frame": imgprep.FrameContext(random_frame(rng, 270, 480)).lch.L,
        "all-greys": imgprep.FrameContext(greys).lch.L,
        "edges": edges,
        "edges-one-ulp-off": np.concatenate([np.nextafter(edges, -np.inf),
                                             np.nextafter(edges, np.inf)]),
        "just-outside": np.array([-5e-324, -1e-12, -np.inf, 0.0, 100.0,
                                  np.nextafter(100.0, np.inf), 100.0 + 1e-9,
                                  np.inf]),
    }


class TestLightnessHistogram:
    @pytest.mark.parametrize("name", list(lightness_planes(8)))
    @pytest.mark.parametrize("bins", [8, 24])
    def test_equals_numpy_histogram(self, bins, name):
        plane = lightness_planes(bins)[name]
        got = visual.lightness_histogram(
            make_lch(plane, np.zeros_like(plane), np.zeros_like(plane)), bins)
        counts, _ = np.histogram(plane, bins=bins, range=(0.0, 100.0))
        assert got.tobytes() == (counts.astype(np.float64)
                                 / plane.size).tobytes()


def _parity_frames():
    rng = np.random.default_rng(41)
    noise = random_frame(rng, 37, 53)
    boxed = np.zeros((48, 40, 3), np.uint8)
    boxed[6:42] = random_frame(rng, 36, 40)
    return {"noise": noise, "letterboxed": boxed,
            "black": np.zeros((24, 24, 3), np.uint8),
            "one pixel": np.array([[[200, 30, 90]]], np.uint8)}


class TestFrameContext:
    FEATURES = list(visual.FRAME_FEATURES)

    @staticmethod
    def _separately(frame):
        """Each feature from planes converted on their own."""
        ihls = imgprep.FrameContext(frame).ihls
        lch = imgprep.FrameContext(frame).lch
        return {
            "gcs": visual.gcs(ihls), "gev": visual.gev(ihls),
            "cf": visual.colorfulness(frame), "cn": frame_color_names(frame),
            "waf": visual.waf(lch, visual.blur_measure(ihls.luminance * 255.0)),
            "ic": visual.itten_contrasts(visual.segment_frame(lch)),
        }

    @pytest.mark.parametrize("name", list(_parity_frames()))
    def test_frame_features_equal_separate_features(self, name):
        frame = _parity_frames()[name]
        before = frame.copy()
        want = self._separately(frame)
        got = visual.frame_features(imgprep.FrameContext(frame), self.FEATURES)
        assert list(got) == self.FEATURES
        for feat in self.FEATURES:
            assert np.array_equal(got[feat], want[feat]), feat
        assert np.array_equal(frame, before)

    @pytest.mark.parametrize("name", list(_parity_frames()))
    def test_video_rows_and_lfp_histograms_equal_per_frame(self, name):
        frame = _parity_frames()[name]
        frames = [frame, frame[::-1].copy(), 255 - frame]
        copies = [f.copy() for f in frames]
        with pytest.warns(UserWarning, match="fewer frames"):
            matrices, pattern = visual.extract_video_features(
                frames, self.FEATURES + ["lfp"], lfp_preset="paper-60")
        cropped = [imgprep.strip_letterbox(f) for f in frames]
        for feat in self.FEATURES:
            want = [self._separately(c)[feat] for c in cropped]
            assert np.array_equal(matrices[feat], np.array(want)), feat
        hists = [visual.lightness_histogram(imgprep.FrameContext(c).lch, 24)
                 for c in cropped]
        want_lfp = visual.lfp_from_histograms(np.array(hists), 25.0)
        assert np.array_equal(pattern.values, want_lfp.values)
        assert all(np.array_equal(f, c) for f, c in zip(frames, copies))

    def test_planes_are_converted_once_and_kept(self, rng):
        ctx = imgprep.FrameContext(random_frame(rng))
        visual.frame_features(ctx, self.FEATURES)
        assert ctx.lch is ctx.lch and ctx.ihls is ctx.ihls
        fresh = imgprep.FrameContext(ctx.frame).lch
        assert np.array_equal(ctx.lch.L, fresh.L)
        assert np.array_equal(ctx.lch.H, fresh.H)
        assert ctx.hsv_levels is ctx.hsv_levels
        fresh = imgprep.FrameContext(ctx.frame).hsv_levels
        assert all(np.array_equal(a, b) for a, b in zip(ctx.hsv_levels, fresh))


class TestFrameDims:
    def test_per_frame_dimensions_match_table(self, rng):
        frame = random_frame(rng, 33, 44)
        feats = visual.frame_features(imgprep.FrameContext(frame),
                                      list(visual.FRAME_FEATURES))
        for name, (dim, _) in visual.FRAME_FEATURES.items():
            assert feats[name].shape == (dim,), name
            assert feats[name].dtype == np.float64, name
            assert np.all(np.isfinite(feats[name])), name
