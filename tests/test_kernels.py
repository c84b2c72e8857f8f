"""Kernel oracles: the vectorized kernels must equal per-pixel loop
references on rasters of many shapes, and the EMD solver must match an
independent LP oracle.

The loop references below are the straightforward per-pixel definitions of
LBP codes, CLAHE interpolation and ordered dithering, and the per-tile
definition of the CLAHE lookup tables.  They run as plain Python, so the
rasters stay small.  The level-domain Colour Names quantizer is checked
against the float pipeline of tests/cn_oracle.py and the dithering loop.
"""

import numpy as np
import pytest

import cn_oracle
from avmir import _kernels, imgprep, visual
from avmir._kernels import (_clahe_maps, _transport_simplex, clahe_u8, emd,
                            lbp_codes)
from avmir.visual import CF_COST, _CF_IDEAL, _cf_distance, rgb_histogram
from cn_oracle import dither_indices
from conftest import SHAPES, random_frame


@pytest.fixture
def rng():
    return np.random.default_rng(99)


# ---------------------------------------------------------------------------
# per-pixel loop references
# ---------------------------------------------------------------------------

# neighbor offsets clockwise from top-left; first offset becomes the MSB
_LBP_OFFSETS = ((-1, -1), (-1, 0), (-1, 1), (0, 1),
                (1, 1), (1, 0), (1, -1), (0, -1))


def _lbp_codes_loop(gray):
    h, w = gray.shape
    codes = np.zeros((h, w), dtype=np.uint8)
    for y in range(h):
        for x in range(w):
            c = gray[y, x]
            code = 0
            for k in range(8):
                dy, dx = _LBP_OFFSETS[k]
                ny = min(max(y + dy, 0), h - 1)
                nx = min(max(x + dx, 0), w - 1)
                code = code << 1
                if gray[ny, nx] >= c:
                    code |= 1
            codes[y, x] = code
    return codes


def _clahe_maps_loop(img, n_ty, n_tx, tile_h, tile_w, clip_limit):
    h, w = img.shape
    maps = np.zeros((n_ty, n_tx, 256), dtype=np.float64)
    for ty in range(n_ty):
        y0 = ty * tile_h
        y1 = min(y0 + tile_h, h)
        for tx in range(n_tx):
            x0 = tx * tile_w
            x1 = min(x0 + tile_w, w)
            tile = img[y0:y1, x0:x1]
            hist = np.bincount(tile.ravel(), minlength=256).astype(np.float64)
            if np.count_nonzero(hist) == 1:
                # flat tile: equalization is the identity
                maps[ty, tx] = np.arange(256, dtype=np.float64)
                continue
            area = float((y1 - y0) * (x1 - x0))
            if clip_limit > 0:
                limit = max(1.0, clip_limit * area / 256.0)
                excess = np.maximum(hist - limit, 0.0).sum()
                hist = np.minimum(hist, limit) + excess / 256.0
            cdf = np.cumsum(hist) / hist.sum()
            cdf_min = cdf[np.nonzero(hist)[0][0]]
            maps[ty, tx] = (np.maximum(cdf - cdf_min, 0.0) / (1.0 - cdf_min)
                            * 255.0)
    return maps


def _clahe_interp_loop(img, maps, n_ty, n_tx, tile_h, tile_w):
    h, w = img.shape
    out = np.empty((h, w), dtype=np.uint8)
    for y in range(h):
        fy = (y + 0.5) / tile_h - 0.5
        ty0 = int(np.floor(fy))
        wy = fy - ty0
        if ty0 < 0:
            ty0, wy = 0, 0.0
        ty1 = ty0 + 1
        if ty1 >= n_ty:
            ty1, wy = n_ty - 1, 0.0 if ty0 == n_ty - 1 else wy
        for x in range(w):
            fx = (x + 0.5) / tile_w - 0.5
            tx0 = int(np.floor(fx))
            wx = fx - tx0
            if tx0 < 0:
                tx0, wx = 0, 0.0
            tx1 = tx0 + 1
            if tx1 >= n_tx:
                tx1, wx = n_tx - 1, 0.0 if tx0 == n_tx - 1 else wx
            v = img[y, x]
            m = ((1.0 - wy) * (1.0 - wx) * maps[ty0, tx0, v]
                 + (1.0 - wy) * wx * maps[ty0, tx1, v]
                 + wy * (1.0 - wx) * maps[ty1, tx0, v]
                 + wy * wx * maps[ty1, tx1, v])
            out[y, x] = np.uint8(int(m + 0.5))
    return out


def _dither_loop(rgb, palette, tmap, spread):
    h, w, _ = rgb.shape
    n = tmap.shape[0]
    p = palette.shape[0]
    out = np.empty((h, w), dtype=np.int32)
    for y in range(h):
        for x in range(w):
            off = spread * (tmap[y % n, x % n] - 0.5)
            r = rgb[y, x, 0] + off
            g = rgb[y, x, 1] + off
            b = rgb[y, x, 2] + off
            best = 0
            best_d = (r - palette[0, 0]) ** 2 + (g - palette[0, 1]) ** 2 \
                + (b - palette[0, 2]) ** 2
            for k in range(1, p):
                d = (r - palette[k, 0]) ** 2 + (g - palette[k, 1]) ** 2 \
                    + (b - palette[k, 2]) ** 2
                if d < best_d:
                    best_d = d
                    best = k
            out[y, x] = best
    return out


# ---------------------------------------------------------------------------
# vectorized kernels against the loop references
# ---------------------------------------------------------------------------

def test_lbp_backends_agree(rng):
    for h, w in SHAPES:
        for top in (256, 3):  # few levels make neighbor == center common
            img = rng.integers(0, top, size=(h, w)).astype(np.int32)
            np.testing.assert_array_equal(
                lbp_codes(img), _lbp_codes_loop(img),
                err_msg=f"{h}x{w}, levels < {top}")


def test_dither_backends_agree(rng):
    random_palette = rng.integers(0, 256, size=(8, 3)).astype(np.float64)
    # duplicate entries and a pair equidistant from (128, 128, 128) force
    # ties; both kernels must pick the lowest index
    tie_palette = np.array([[0, 0, 0], [255, 255, 255], [0, 0, 0],
                            [128, 0, 128], [128, 255, 128], [128, 0, 128],
                            [255, 255, 255], [128, 128, 128]], dtype=np.float64)
    for h, w in SHAPES:
        for palette in (random_palette, tie_palette):
            for n, spread in ((4, 64.0), (8, 0.0), (2, 32.0)):
                rgb = rng.integers(0, 256, size=(h, w, 3)).astype(np.float64)
                rgb[::2, ::2] = 128.0
                tmap = rng.integers(0, n * n, size=(n, n)) / (n * n)
                np.testing.assert_array_equal(
                    dither_indices(rgb, palette, tmap, spread),
                    _dither_loop(rgb, palette, tmap, spread),
                    err_msg=f"{h}x{w}, {n}x{n} map, spread {spread}")


def test_clahe_backends_agree(rng):
    cases = [((45, 57), (16, 16)), ((33, 17), (8, 5)), ((33, 17), (5, 8)),
             ((10, 12), (22, 22)), ((1, 1), (22, 22)), ((1, 9), (4, 4)),
             ((9, 1), (4, 4))]
    for (h, w), (tile_w, tile_h) in cases:
        for clip_limit in (0.0, 1.0, 2.0):
            img = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
            # a dark band beside bright tiles exercises levels below a
            # tile's first occupied bin
            img[:, :w // 2] //= 8
            img[:, w // 2:] |= 0xC0
            th, tw = min(tile_h, h), min(tile_w, w)
            n_ty, n_tx = -(-h // th), -(-w // tw)
            maps = _clahe_maps_loop(img, n_ty, n_tx, th, tw, clip_limit)
            np.testing.assert_array_equal(
                clahe_u8(img, tile_w, tile_h, clip_limit),
                _clahe_interp_loop(img, maps, n_ty, n_tx, th, tw),
                err_msg=f"{h}x{w}, tile {tile_w}x{tile_h}, clip {clip_limit}")


def test_clahe_stack_matches_each_plane(rng):
    # the planes of a stack share the tile grid, blend weights and table
    # offsets; each must come out as alone and as the loop references give
    cases = [((45, 57), (16, 16)), ((33, 17), (8, 5)), ((10, 12), (22, 22)),
             ((1, 1), (22, 22)), ((1, 9), (4, 4)), ((9, 1), (4, 4)),
             ((70, 50), (22, 22))]
    for (h, w), (tile_w, tile_h) in cases:
        for clip_limit in (0.0, 1.0):
            stack = rng.integers(0, 256, size=(3, h, w), dtype=np.uint8)
            stack[1] //= 16                      # few levels: flat tiles
            stack[2] = 200                       # a flat plane
            th, tw = min(tile_h, h), min(tile_w, w)
            n_ty, n_tx = -(-h // th), -(-w // tw)
            out = clahe_u8(stack, tile_w, tile_h, clip_limit)
            assert out.shape == stack.shape and out.dtype == np.uint8
            for plane, got in zip(stack, out):
                maps = _clahe_maps_loop(plane, n_ty, n_tx, th, tw, clip_limit)
                np.testing.assert_array_equal(
                    got, _clahe_interp_loop(plane, maps, n_ty, n_tx, th, tw),
                    err_msg=f"{h}x{w}, tile {tile_w}x{tile_h}, "
                            f"clip {clip_limit}")
                np.testing.assert_array_equal(
                    got, clahe_u8(plane, tile_w, tile_h, clip_limit))


def test_clahe_maps_match_tile_loop(rng):
    # (raster, tile (w, h)): whole tiles, partial edge tiles in one or both
    # directions, a raster smaller than one tile and a single pixel
    cases = [((44, 66), (22, 22)), ((45, 57), (16, 16)), ((33, 17), (8, 5)),
             ((33, 17), (5, 8)), ((10, 12), (22, 22)), ((1, 1), (22, 22)),
             ((1, 9), (4, 4))]
    for (h, w), (tile_w, tile_h) in cases:
        th, tw = min(tile_h, h), min(tile_w, w)
        n_ty, n_tx = -(-h // th), -(-w // tw)
        noise = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
        two_level = np.where(rng.random((h, w)) < 0.9, 40, 200).astype(np.uint8)
        flat_corner = noise.copy()
        flat_corner[:th, :tw] = 77      # a flat tile beside busy ones
        rasters = {"noise": noise, "two levels": two_level,
                   "flat tile": flat_corner,
                   "flat raster": np.full((h, w), 9, np.uint8)}
        for name, img in rasters.items():
            for clip_limit in (0.0, 1.0, 2.0):
                np.testing.assert_array_equal(
                    _clahe_maps(img, n_ty, n_tx, th, tw, clip_limit),
                    _clahe_maps_loop(img, n_ty, n_tx, th, tw, clip_limit),
                    err_msg=f"{name} {h}x{w}, tile {tile_w}x{tile_h}, "
                            f"clip {clip_limit}")


# ---------------------------------------------------------------------------
# Colour Names quantizer against the float pipeline
# ---------------------------------------------------------------------------

_CN_ORDER = visual.CN_BAYER_ORDER
# Bayer values k = 0 .. order^2 - 1 of CN's threshold map
_CN_K = (imgprep.bayer_matrix(_CN_ORDER) * _CN_ORDER ** 2).astype(np.int64)


def _tie_pixels(rng, hue, s, v, k):
    """Overwrite, in place, the pixels whose Bayer value k admits a tie
    (scale * level + k == tie for a level in 0..255) with pixels whose V,
    P or middle level is that level, in turn; returns how many."""
    scale, tie = visual._CN_SCALE, visual._CN_TIE
    target, rest = np.divmod(tie - k, scale)
    where = np.flatnonzero((rest == 0) & (target >= 0) & (target <= 255))
    target = target.ravel()[where]
    kind = np.arange(len(where)) % 3
    sector = rng.integers(0, 6, size=len(where))
    # V is the v level; with v = 255, P is 255 - s; with s = v = 255 the
    # middle level is 255 f in even sectors and 255 (1 - f) in odd ones
    frac = (target + 0.25) / 255.0
    frac = np.where(sector % 2 == 0, frac, 1.0 - frac)
    v.ravel()[where] = np.where(kind == 0, target, 255)
    s.ravel()[where] = np.select([kind == 1, kind == 2],
                                 [255 - target, 255], s.ravel()[where])
    hue.ravel()[where] = np.where(kind == 2, 60.0 * (sector + frac),
                                  hue.ravel()[where])
    return len(where)


def _cn_planes(rng, h, w, kmap):
    """A hue plane (degrees) and s, v level planes: random pixels, exact
    sector starts, then forced ties wherever kmap admits one."""
    hue = rng.uniform(0.0, 360.0, size=(h, w))
    hue.ravel()[::5] = 60.0 * rng.integers(0, 6, size=hue.size)[::5]
    s = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
    v = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
    reps = (-(-h // len(kmap)), -(-w // len(kmap)))
    ties = _tie_pixels(rng, hue, s, v, np.tile(kmap, reps)[:h, :w])
    return hue, s, v, ties


def _quantize(hue, s, v, kmap):
    return _kernels.dither_indices(hue, s, v, kmap - visual._CN_TIE,
                                   visual._CN_SCALE, visual._CN_CORNERS)


def _quantize_float(hue, s, v, kmap, loop=False):
    """The float pipeline: hsv_to_rgb of s / 255 and v / 255, then the
    nearest palette color by squared distance after the Bayer offset."""
    rgb = cn_oracle.hsv_to_rgb(hue, s / 255.0, v / 255.0)
    dither = _dither_loop if loop else dither_indices
    return dither(rgb, visual.CN_PALETTE, kmap / _CN_ORDER ** 2,
                  visual.CN_DITHER_SPREAD)


def test_cn_quantizer_matches_float_pipeline(rng):
    # CN's map, and the map shifted so that its first pixel admits a tie
    shift = np.argwhere((visual._CN_TIE - _CN_K) % visual._CN_SCALE == 0)[0]
    kmaps = {"bayer": _CN_K, "shifted": np.roll(_CN_K, -shift, axis=(0, 1))}
    ties = 0
    for name, kmap in kmaps.items():
        for h, w in SHAPES + [(270, 480)]:
            hue, s, v, n = _cn_planes(rng, h, w, kmap)
            ties += n
            got = _quantize(hue, s, v, kmap)
            np.testing.assert_array_equal(
                got, _quantize_float(hue, s, v, kmap),
                err_msg=f"{h}x{w}, {name} map")
            if h * w < 2000:
                np.testing.assert_array_equal(
                    got, _quantize_float(hue, s, v, kmap, loop=True),
                    err_msg=f"{h}x{w}, {name} map, loop")
    assert ties > 1000


def test_cn_quantizer_every_sector_and_tie(rng):
    # per hue sector: each forced tie kind, and pixels on either side
    h, w = 96, 96
    for sector in range(6):
        hue, s, v, ties = _cn_planes(rng, h, w, _CN_K)
        hue[::2] = rng.uniform(60.0 * sector, 60.0 * (sector + 1),
                               size=(h // 2, w))
        assert ties > 0
        np.testing.assert_array_equal(_quantize(hue, s, v, _CN_K),
                                      _quantize_float(hue, s, v, _CN_K),
                                      err_msg=f"sector {sector}")


def test_cn_quantizer_rounds_middle_half_to_even(rng):
    # middle values whose 255 * value is exactly an even level + 0.5, each
    # at a map value that puts that level below the midpoint and the next
    # one above it: rounding half up instead of half to even shows
    unit = np.arange(256) / 255.0
    cases = []
    for sector in range(6):
        for hue in 60.0 * (sector + np.arange(1, 64) / 64.0):
            x = hue / 60.0
            f = x - np.floor(x)
            g = f if sector % 2 else 1.0 - f
            m = unit[:, None] * (1.0 - unit[None, :] * g) * 255.0
            low = np.floor(m)
            half = (m - low == 0.5) & (low % 2 == 0) & (low >= 96) \
                & (low < 159)
            for v, s in np.argwhere(half)[:4]:
                cases.append((hue, s, v, int(low[v, s])))
    n = int(np.ceil(np.sqrt(len(cases))))
    hue = rng.uniform(0.0, 360.0, size=n * n)
    s = rng.integers(0, 256, size=n * n).astype(np.uint8)
    v = rng.integers(0, 256, size=n * n).astype(np.uint8)
    kmap = rng.integers(0, _CN_ORDER ** 2, size=n * n)
    for i, (h_i, s_i, v_i, level) in enumerate(cases):
        hue[i], s[i], v[i] = h_i, s_i, v_i
        kmap[i] = visual._CN_TIE - visual._CN_SCALE * level - 8
    planes = hue.reshape(n, n), s.reshape(n, n), v.reshape(n, n)
    kmap = kmap.reshape(n, n)
    assert len(cases) > 100
    np.testing.assert_array_equal(_quantize(*planes, kmap),
                                  _quantize_float(*planes, kmap))


def test_cn_quantizer_flat_and_grey_frames(rng):
    h, w = 64, 70
    cases = {"black": (0.0, 0, 0), "white": (0.0, 0, 255),
             "mid grey": (0.0, 0, 128), "tie grey": (0.0, 0, 150),
             "red": (0.0, 255, 255), "hue 360": (360.0, 200, 200),
             "negative hue": (-30.0, 128, 140), "wrapped hue": (725.0, 90, 99),
             # np.mod wraps it to 360 itself
             "tiny negative hue": (-1e-20, 210, 160)}
    for name, (hue, s, v) in cases.items():
        planes = (np.full((h, w), hue), np.full((h, w), s, np.uint8),
                  np.full((h, w), v, np.uint8))
        np.testing.assert_array_equal(_quantize(*planes, _CN_K),
                                      _quantize_float(*planes, _CN_K),
                                      err_msg=name)
    grey = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
    planes = (np.zeros((h, w)), np.zeros((h, w), np.uint8), grey)
    np.testing.assert_array_equal(_quantize(*planes, _CN_K),
                                  _quantize_float(*planes, _CN_K))


def test_cn_quantizer_any_corner_order(rng):
    # the table follows the palette's order, ties included
    h, w = 64, 96
    for trial in range(3):
        palette = visual.CN_PALETTE[rng.permutation(8)]
        hue, s, v, ties = _cn_planes(rng, h, w, _CN_K)
        got = _kernels.dither_indices(hue, s, v, _CN_K - visual._CN_TIE,
                                      visual._CN_SCALE,
                                      _kernels.corner_table(palette))
        rgb = cn_oracle.hsv_to_rgb(hue, s / 255.0, v / 255.0)
        np.testing.assert_array_equal(
            got, dither_indices(rgb, palette, _CN_K / _CN_ORDER ** 2,
                                visual.CN_DITHER_SPREAD),
            err_msg=f"trial {trial}")


def test_corner_table_rejects_other_palettes():
    corners = visual.CN_PALETTE
    for palette in (corners[:7], np.vstack([corners[:7], [[128, 0, 0]]]),
                    np.vstack([corners[:7], corners[:1]])):
        with pytest.raises(ValueError):
            _kernels.corner_table(palette)


# ---------------------------------------------------------------------------
# earth mover's distance
# ---------------------------------------------------------------------------

def _emd_linprog(supply, demand, cost):
    """Independent oracle: solve the transportation LP with scipy."""
    from scipy.optimize import linprog

    n, m = cost.shape
    a_eq = []
    for i in range(n):
        row = np.zeros(n * m)
        row[i * m:(i + 1) * m] = 1.0
        a_eq.append(row)
    for j in range(m):
        row = np.zeros(n * m)
        row[j::m] = 1.0
        a_eq.append(row)
    b_eq = np.concatenate([supply, demand])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.success
    return res.fun


def test_emd_matches_lp_oracle(rng):
    scipy = pytest.importorskip("scipy")  # noqa: F841 - oracle dependency
    cases = []
    for trial in range(10):
        n = int(rng.integers(2, 65))
        m = int(rng.integers(2, 65))
        supply = rng.random(n) + 0.01
        supply /= supply.sum()
        demand = rng.random(m) + 0.01
        demand /= demand.sum()
        cost = rng.random((n, m)) * 10.0
        cases.append((f"random {trial}", supply, demand, cost))

    # colourfulness input: frame histograms over the 4^3 RGB cell centres
    # against the uniform ideal, Euclidean ground distance, both directions
    uniform = np.full(64, 1.0 / 64.0)
    hists = []
    for occupied in range(1, 10):
        sparse = np.zeros(64)
        cells = rng.choice(64, size=occupied, replace=False)
        sparse[cells] = rng.random(occupied) + 0.01
        hists.append((f"sparse {occupied}", sparse / sparse.sum()))

    # integer costs: many tied reduced costs and degenerate pivots, which
    # the solver's anti-cycling rule must carry to the optimum
    for trial in range(10):
        n = int(rng.integers(2, 65))
        m = int(rng.integers(2, 65))
        supply = rng.random(n) + 0.01
        demand = rng.random(m) + 0.01
        cost = rng.integers(0, 4, size=(n, m)).astype(np.float64)
        cases.append((f"integer {trial}", supply / supply.sum(),
                      demand / demand.sum(), cost))

    # dense histograms: a noise frame, and a noise frame between black bars
    for trial in range(3):
        boxed = np.zeros((24, 16, 3), dtype=np.uint8)
        boxed[4:20] = random_frame(rng)
        hists.append((f"noise {trial}", rgb_histogram(random_frame(rng))))
        hists.append((f"letterboxed {trial}", rgb_histogram(boxed)))
    for name, hist in hists:
        cases.append((name, hist, uniform, CF_COST))
        cases.append((name + " reversed", uniform, hist, CF_COST))

    for name, supply, demand, cost in cases:
        got = emd(supply, demand, cost)
        want = _emd_linprog(supply, demand, cost)
        assert got == pytest.approx(want, abs=1e-9), name


def test_emd_point_mass_closed_form():
    # all mass in one cell moving to a uniform target: cost is the mean
    # distance from that cell to every cell
    cost = np.abs(np.arange(8)[:, None] - np.arange(8)[None, :]).astype(float)
    supply = np.zeros(8)
    supply[0] = 1.0
    demand = np.full(8, 1.0 / 8.0)
    assert emd(supply, demand, cost) == pytest.approx(cost[0].mean(), abs=1e-12)


def test_emd_identical_distributions_is_zero(rng):
    supply = rng.random(16)
    supply /= supply.sum()
    cost = rng.random((16, 16)) * 5.0
    np.fill_diagonal(cost, 0.0)
    assert emd(supply, supply, cost) == pytest.approx(0.0, abs=1e-12)


def _check_plan(supply, demand, cost, name):
    """The solver's plan is a feasible flow: nonnegative, with row and
    column sums equal to the normalized masses; returns its cost."""
    supply, demand = supply / supply.sum(), demand / demand.sum()
    plan = _transport_simplex(supply, demand, cost)
    assert plan.shape == cost.shape, name
    assert (plan >= 0).all(), name
    np.testing.assert_allclose(plan.sum(axis=1), supply, rtol=0, atol=1e-12,
                               err_msg=name)
    np.testing.assert_allclose(plan.sum(axis=0), demand, rtol=0, atol=1e-12,
                               err_msg=name)
    return float((plan * cost).sum())


@pytest.mark.parametrize("degenerate_run", ["default", 0])
def test_emd_degenerate_instances_match_lp_oracle(monkeypatch, degenerate_run):
    # ties everywhere: integer masses (zeros included) over integer costs
    # 0-3, single-row and single-column problems, an all-zero cost, and
    # colourfulness histograms of integer pixel counts in both directions;
    # with a degenerate run of 0, Bland's entering rule picks every pivot
    scipy = pytest.importorskip("scipy")  # noqa: F841 - oracle dependency
    if degenerate_run != "default":
        monkeypatch.setattr(_kernels, "EMD_DEGENERATE_RUN", degenerate_run)
    rng = np.random.default_rng(2024)
    cases = []
    for trial in range(80):
        n, m = (int(k) for k in rng.integers(2, 25, size=2))
        supply = rng.integers(0, 4, size=n).astype(np.float64)
        demand = rng.integers(0, 4, size=m).astype(np.float64)
        supply[rng.integers(n)] += 1.0
        demand[rng.integers(m)] += 1.0
        cost = rng.integers(0, 4, size=(n, m)).astype(np.float64)
        cases.append((f"integer {trial}", supply, demand, cost))
    for trial in range(10):
        m = int(rng.integers(1, 40))
        supply = rng.integers(1, 5, size=1).astype(np.float64)
        demand = rng.integers(0, 5, size=m).astype(np.float64) + 0.5
        cost = rng.integers(0, 4, size=(1, m)).astype(np.float64)
        cases.append((f"1 x {m}", supply, demand, cost))
        cases.append((f"{m} x 1", demand, supply, cost.T.copy()))
    for trial in range(10):
        n, m = (int(k) for k in rng.integers(1, 30, size=2))
        cases.append((f"zero cost {n} x {m}", rng.random(n) + 0.01,
                      rng.random(m) + 0.01, np.zeros((n, m))))
    uniform = np.full(64, 1.0 / 64.0)
    for trial in range(20):
        pixels = int(rng.choice([48, 768, 3072]))
        weights = rng.dirichlet(np.full(64, [0.1, 1.0, 10.0][trial % 3]))
        hist = rng.multinomial(pixels, weights).astype(np.float64)
        cases.append((f"cf counts {trial}", hist, uniform, CF_COST))
        cases.append((f"cf counts {trial} reversed", uniform, hist, CF_COST))

    assert len(cases) >= 150
    for name, supply, demand, cost in cases:
        want = _emd_linprog(supply / supply.sum(), demand / demand.sum(), cost)
        assert emd(supply, demand, cost) == pytest.approx(want, abs=1e-9), name
        assert _check_plan(supply, demand, cost, name) == pytest.approx(
            want, abs=1e-9), name


def test_emd_with_zero_mass_lines_matches_lp_oracle():
    # emd drops zero-mass supply rows and demand columns before solving;
    # the oracle solves the full problem, zero lines included
    scipy = pytest.importorskip("scipy")  # noqa: F841 - oracle dependency
    rng = np.random.default_rng(61)
    cases = []
    for trial in range(30):
        n, m = (int(k) for k in rng.integers(2, 40, size=2))
        supply = rng.random(n) * (rng.random(n) < 0.3)
        demand = rng.random(m) * (rng.random(m) < 0.6)
        supply[rng.integers(n)] += 0.1
        demand[rng.integers(m)] += 0.1
        cases.append((f"sparse {trial}", supply, demand,
                      rng.random((n, m)) * 10.0))
    for trial in range(10):
        n, m = (int(k) for k in rng.integers(2, 40, size=2))
        cost = rng.integers(0, 4, size=(n, m)).astype(np.float64)
        point_s, point_d = np.zeros(n), np.zeros(m)
        point_s[rng.integers(n)] = 2.0
        point_d[rng.integers(m)] = 3.0
        dense_s, dense_d = rng.random(n) + 0.01, rng.random(m) + 0.01
        cases.append((f"one supply row {trial}", point_s, dense_d, cost))
        cases.append((f"one demand column {trial}", dense_s, point_d, cost))
        cases.append((f"one cell {trial}", point_s, point_d, cost))

    for name, supply, demand, cost in cases:
        want = _emd_linprog(supply / supply.sum(), demand / demand.sum(), cost)
        assert emd(supply, demand, cost) == pytest.approx(want, abs=1e-9), name


def test_emd_on_a_line_is_the_cdf_distance(rng):
    # with ground cost |i - j| * w the EMD is w times the L1 distance
    # between the two cumulative distributions
    for trial in range(20):
        n, m = (int(k) for k in rng.integers(2, 65, size=2))
        supply = rng.random(n) * (rng.random(n) < 0.7)
        demand = rng.random(m) * (rng.random(m) < 0.7)
        supply[0] += 0.01
        demand[-1] += 0.01
        w = float(rng.uniform(0.1, 10.0))
        cost = np.abs(np.arange(n)[:, None] - np.arange(m)[None, :]) * w
        size = max(n, m)
        cdf_s = np.cumsum(np.pad(supply / supply.sum(), (0, size - n)))
        cdf_d = np.cumsum(np.pad(demand / demand.sum(), (0, size - m)))
        want = w * np.abs(cdf_s - cdf_d).sum()
        name = f"{n} x {m}, w={w:.3f}"
        assert emd(supply, demand, cost) == pytest.approx(
            want, rel=1e-12, abs=0.0), name
        _check_plan(supply, demand, cost, name)


@pytest.mark.parametrize("supply, demand, cost", [
    pytest.param([np.nan, 1.0], [1.0, 1.0], np.ones((2, 2)), id="nan-mass"),
    pytest.param([1.0, 1.0], [np.inf, 1.0], np.ones((2, 2)), id="inf-mass"),
    pytest.param([-1.0, 2.0, 1.0], [1.0], np.ones((3, 1)),
                 id="negative-mass"),
    pytest.param([1.0, 1.0], [1.0, 1.0], np.full((2, 2), np.inf),
                 id="inf-cost"),
    pytest.param([1.0, 1.0], [1.0, 1.0], [[0.0, np.nan], [1.0, 0.0]],
                 id="nan-cost"),
    pytest.param([1.0, 1.0], [1.0, 1.0, 1.0], np.ones((2, 2)),
                 id="demand-longer-than-cost"),
    pytest.param([1.0, 1.0], [1.0, 1.0], np.ones((2, 2, 1)),
                 id="cost-not-2d"),
    pytest.param([0.0, 0.0], [1.0, 1.0], np.ones((2, 2)), id="zero-total"),
])
def test_emd_rejects_invalid_input(supply, demand, cost):
    with pytest.raises(ValueError):
        emd(supply, demand, cost)


def test_emd_raises_at_the_pivot_cap(monkeypatch):
    # a solve that cannot finish raises instead of returning a partial flow
    monkeypatch.setattr(_kernels, "EMD_PIVOTS_PER_LINE", 0)
    with pytest.raises(RuntimeError, match="did not converge"):
        emd([1.0, 1.0], [1.0, 1.0], np.ones((2, 2)))


def test_cf_surplus_to_deficit_matches_full_solve(rng):
    # colourfulness routes only the surplus cells' excess to the deficit
    # cells; on the oracle's colourfulness histograms (sparse 1-9 cells,
    # noise, letterboxed noise) that equals the full 64 x 64 solve
    scipy = pytest.importorskip("scipy")  # noqa: F841 - oracle dependency
    hists = []
    for occupied in range(1, 10):
        sparse = np.zeros(64)
        cells = rng.choice(64, size=occupied, replace=False)
        sparse[cells] = rng.random(occupied) + 0.01
        hists.append((f"sparse {occupied}", sparse / sparse.sum()))
    for trial in range(3):
        boxed = np.zeros((24, 16, 3), dtype=np.uint8)
        boxed[4:20] = random_frame(rng)
        hists.append((f"noise {trial}", rgb_histogram(random_frame(rng))))
        hists.append((f"letterboxed {trial}", rgb_histogram(boxed)))

    for name, hist in hists:
        reduced = _cf_distance(hist)
        full = emd(hist, _CF_IDEAL, CF_COST)
        assert reduced == pytest.approx(full, rel=1e-12, abs=0.0), name
        assert reduced == pytest.approx(
            _emd_linprog(hist, _CF_IDEAL, CF_COST), abs=1e-9), name
