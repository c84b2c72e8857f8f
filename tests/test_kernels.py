"""Kernel oracles: the vectorized kernels must equal per-pixel loop
references on rasters of many shapes, and the EMD solver must match an
independent LP oracle.

The loop references below are the straightforward per-pixel definitions of
LBP codes, CLAHE interpolation and ordered dithering, and the per-tile
definition of the CLAHE lookup tables.  They run as plain Python, so the
rasters stay small.
"""

import numpy as np
import pytest

from avmir._kernels import (_clahe_maps, clahe_u8, dither_indices, emd,
                            lbp_codes)
from avmir.visual import CF_COST, rgb_histogram
from conftest import random_frame


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

# (height, width): smaller than a tile or threshold map, not a multiple of
# one, a single pixel, single rows and columns
_SHAPES = [(37, 41), (33, 17), (3, 5), (1, 1), (1, 9), (9, 1), (2, 2)]


def test_lbp_backends_agree(rng):
    for h, w in _SHAPES:
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
    for h, w in _SHAPES:
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

    # integer costs: many equal-cost augmenting paths, which the solver's
    # strict-improvement rule must keep from closing parent cycles
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
