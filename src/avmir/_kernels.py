"""Hot numeric kernels: LBP codes, CLAHE, ordered dithering and the exact
earth mover's distance.

LBP, CLAHE and dithering are vectorized numpy: the CLAHE tables come from
one histogram of all tiles, and the CLAHE blend and dithering run over
blocks of rows that stay in cache.  The per-pixel and per-tile loops they
replace live in tests/test_kernels.py as reference oracles, and the kernel
tests require equal results from both.  The earth mover's
distance solver runs successive shortest paths found by whole-array
Bellman-Ford sweeps; tests check it against scipy's LP solver.
"""

import numpy as np

# perfbench/passes.py reports the backend from this flag; numpy is the only one
NUMBA_ENABLED = False

# rows per block of the per-pixel passes (CLAHE blend, dithering, color
# conversions): a block's working planes stay in cache, which whole-frame
# passes over every plane do not
BLOCK_ROWS = 32


# ---------------------------------------------------------------------------
# local binary pattern codes
# ---------------------------------------------------------------------------

# neighbor offsets clockwise from top-left; first offset becomes the MSB
_LBP_OFFSETS = ((-1, -1), (-1, 0), (-1, 1), (0, 1),
                (1, 1), (1, 0), (1, -1), (0, -1))


def lbp_codes(gray):
    """8-bit LBP code per pixel (neighbor >= center sets the bit, clockwise
    from top-left, borders edge-replicated)."""
    gray = np.ascontiguousarray(gray, dtype=np.int32)
    padded = np.pad(gray, 1, mode="edge")
    h, w = gray.shape
    codes = np.zeros((h, w), dtype=np.uint8)
    for dy, dx in _LBP_OFFSETS:
        neigh = padded[1 + dy:1 + dy + h, 1 + dx:1 + dx + w]
        codes = (codes << 1) | (neigh >= gray).astype(np.uint8)
    return codes


# ---------------------------------------------------------------------------
# CLAHE
# ---------------------------------------------------------------------------

def _clahe_maps(img, n_ty, n_tx, tile_h, tile_w, clip_limit):
    """Per-tile 256-entry lookup tables from clipped, equalized histograms.

    All tile histograms come from one bincount over tile * 256 + value and
    are clipped, accumulated and normalized row by row.  A flat tile maps by
    the identity.  Levels below a tile's first occupied bin (after
    clipping) map to 0, so blending with a neighboring tile never yields a
    negative value.
    """
    h, w = img.shape
    n_tiles = n_ty * n_tx
    tile = ((np.arange(h) // tile_h)[:, None] * n_tx
            + (np.arange(w) // tile_w)[None, :])
    hist = np.bincount((tile * 256 + img).ravel(), minlength=n_tiles * 256)
    hist = hist.reshape(n_tiles, 256).astype(np.float64)
    flat = np.count_nonzero(hist, axis=1) == 1
    maps = np.empty((n_tiles, 256), dtype=np.float64)
    maps[flat] = np.arange(256, dtype=np.float64)

    hist = hist[~flat]
    if clip_limit > 0:
        area = hist.sum(axis=1)  # pixel counts: exact in float64
        limit = np.maximum(1.0, clip_limit * area / 256.0)[:, None]
        excess = np.maximum(hist - limit, 0.0).sum(axis=1)
        hist = np.minimum(hist, limit) + (excess / 256.0)[:, None]
    cdf = np.cumsum(hist, axis=1) / hist.sum(axis=1)[:, None]
    first = np.argmax(hist > 0, axis=1)
    cdf_min = cdf[np.arange(len(cdf)), first][:, None]
    maps[~flat] = np.maximum(cdf - cdf_min, 0.0) / (1.0 - cdf_min) * 255.0
    return maps.reshape(n_ty, n_tx, 256)


def _axis_blend(n, tile, n_tiles):
    """Lower and upper tile index of each pixel centre along one axis, and
    the upper tile's blending weight (0 beyond the outer tile centres)."""
    f = (np.arange(n) + 0.5) / tile - 0.5
    t0 = np.floor(f).astype(np.int64)
    weight = f - t0
    weight[t0 < 0] = 0.0
    t0 = np.clip(t0, 0, n_tiles - 1)
    t1 = np.minimum(t0 + 1, n_tiles - 1)
    weight[t1 == t0] = 0.0
    return t0, t1, weight


def clahe_u8(img, tile_w, tile_h, clip_limit):
    """Contrast-limited adaptive histogram equalization of a uint8 raster.

    Each pixel blends the lookup tables of its four surrounding tiles; the
    four terms are summed in the order (top-left, top-right, bottom-left,
    bottom-right).  Pixels are blended in blocks of rows.
    """
    img = np.ascontiguousarray(img, dtype=np.uint8)
    h, w = img.shape
    tile_h = min(tile_h, h)
    tile_w = min(tile_w, w)
    n_ty = (h + tile_h - 1) // tile_h
    n_tx = (w + tile_w - 1) // tile_w
    lut = _clahe_maps(img, n_ty, n_tx, tile_h, tile_w, clip_limit).ravel()
    ty0, ty1, wy = _axis_blend(h, tile_h, n_ty)
    tx0, tx1, wx = _axis_blend(w, tile_w, n_tx)
    wx = wx[None, :]
    out = np.empty((h, w), dtype=np.uint8)
    for y in range(0, h, BLOCK_ROWS):
        rows = slice(y, y + BLOCK_ROWS)
        level = img[rows].astype(np.intp)
        left = level + tx0 * 256
        right = level + tx1 * 256
        top = (ty0[rows] * (n_tx * 256))[:, None]
        bottom = (ty1[rows] * (n_tx * 256))[:, None]
        wyb = wy[rows, None]
        m = (1.0 - wyb) * (1.0 - wx) * lut.take(left + top)
        m += (1.0 - wyb) * wx * lut.take(right + top)
        m += wyb * (1.0 - wx) * lut.take(left + bottom)
        m += wyb * wx * lut.take(right + bottom)
        m += 0.5
        out[rows] = np.floor(m, out=m)
    return out


# ---------------------------------------------------------------------------
# ordered dithering
# ---------------------------------------------------------------------------

def dither_indices(rgb, palette, tmap, spread):
    """Ordered-dither quantization: per-pixel threshold offset, then nearest
    palette color by squared RGB distance (ties to the lowest index).

    Blocks of rows are scanned one palette entry at a time against a running
    minimum; each distance sums its three squared channel differences in
    R, G, B order, and each (channel, level) difference is squared once.
    """
    rgb = np.asarray(rgb, dtype=np.float64)
    palette = np.asarray(palette, dtype=np.float64)
    tmap = np.asarray(tmap, dtype=np.float64)
    h, w, _ = rgb.shape
    n = tmap.shape[0]
    reps = ((h + n - 1) // n, (w + n - 1) // n)
    offset = float(spread) * (np.tile(tmap, reps)[:h, :w] - 0.5)
    index = np.zeros((h, w), dtype=np.int32)
    for y in range(0, h, BLOCK_ROWS):
        rows = slice(y, y + BLOCK_ROWS)
        channels = [rgb[rows, :, c] + offset[rows] for c in range(3)]
        squares = {}

        def square(c, level):
            if (c, level) not in squares:
                squares[c, level] = np.square(channels[c] - level)
            return squares[c, level]

        best = np.full(channels[0].shape, np.inf)
        block = index[rows]
        for k, (r, g, b) in enumerate(palette):
            dist = square(0, r) + square(1, g)
            dist += square(2, b)
            # k exceeds every index so far: a maximum selects it where this
            # entry is strictly closer, faster than a masked write
            np.maximum(block, (dist < best) * np.int32(k), out=block)
            np.minimum(best, dist, out=best)
    return index


# ---------------------------------------------------------------------------
# earth mover's distance (transportation problem)
# ---------------------------------------------------------------------------

def _emd_ssp(supply, demand, cost):
    """Exact EMD by successive shortest augmenting paths.

    supply and demand must have equal totals; returns sum(flow * cost).
    Each path search is Bellman-Ford over the dense bipartite residual graph
    (arcs i -> j at cost[i, j]; j -> i at -cost[i, j] where flow[i, j] > 0).
    Labels change only on a strict improvement, so ties cannot close a
    parent cycle through a zero-cost forward/backward arc pair.  Every open
    sink at the shortest distance is served from one search: the labels stay
    feasible after each augmentation, so a tree path whose arcs all keep
    residual capacity is still a shortest path.
    """
    n, m = cost.shape
    eps = 1e-12
    rem_s, rem_d = supply.copy(), demand.copy()
    flow = np.zeros((n, m))
    rows, cols = np.arange(n), np.arange(m)
    while rem_s.max() > eps:
        back_cost = np.where(flow > eps, -cost, np.inf)
        ds, dt = np.where(rem_s > eps, 0.0, np.inf), np.full(m, np.inf)
        ps, pt = np.full(n, -1), np.full(m, -1)
        for _ in range(n + m):
            reach = ds[:, None] + cost
            via = reach.argmin(axis=0)
            new = reach[via, cols]
            better_t = new < dt - 1e-9
            dt[better_t], pt[better_t] = new[better_t], via[better_t]
            reach = dt[None, :] + back_cost
            via = reach.argmin(axis=1)
            new = reach[rows, via]
            better_s = new < ds - 1e-9
            ds[better_s], ps[better_s] = new[better_s], via[better_s]
            if not (better_t.any() or better_s.any()):
                break
        open_dt = np.where(rem_d > eps, dt, np.inf)
        nearest = open_dt.min()
        if nearest == np.inf:
            break  # numerically exhausted

        for target in np.flatnonzero(open_dt == nearest):
            # walk back: forward arcs (srcs[k], snks[k]), back arcs
            # (srcs[k], snks[k + 1])
            srcs, snks = [pt[target]], [target]
            while ps[srcs[-1]] >= 0:
                snks.append(ps[srcs[-1]])
                srcs.append(pt[snks[-1]])
            back = (srcs[:-1], snks[1:])
            step = min(rem_d[target], rem_s[srcs[-1]], *flow[back])
            if step <= eps:
                continue  # an earlier path in this round used up an arc
            flow[srcs, snks] += step
            flow[back] -= step
            rem_s[srcs[-1]] -= step
            rem_d[target] -= step
    return float((flow * cost).sum())


def emd(supply, demand, cost):
    """Earth mover's distance between two nonnegative distributions.

    Totals are normalized to 1 before solving, so inputs may be unnormalized
    histograms.  cost[i, j] is the ground distance from supply cell i to
    demand cell j.
    """
    supply = np.ascontiguousarray(supply, dtype=np.float64)
    demand = np.ascontiguousarray(demand, dtype=np.float64)
    cost = np.ascontiguousarray(cost, dtype=np.float64)
    s_tot = supply.sum()
    d_tot = demand.sum()
    if s_tot <= 0 or d_tot <= 0:
        raise ValueError("supply and demand must each have positive total")
    return _emd_ssp(supply / s_tot, demand / d_tot, cost)
