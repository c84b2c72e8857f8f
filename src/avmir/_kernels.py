"""Hot numeric kernels: LBP codes, CLAHE, ordered dithering and the exact
earth mover's distance.

LBP, CLAHE interpolation and dithering are vectorized numpy.  The per-pixel
loops they replace live in tests/test_kernels.py as reference oracles, and
the kernel tests require equal results from both.  The earth mover's
distance solver runs successive shortest paths found by whole-array
Bellman-Ford sweeps; tests check it against scipy's LP solver.
"""

import numpy as np

# perfbench/passes.py reports the backend from this flag; numpy is the only one
NUMBA_ENABLED = False


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

    Levels below a tile's first occupied bin map to 0, so blending with a
    neighboring tile never yields a negative value.
    """
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


def clahe_u8(img, tile_w, tile_h, clip_limit):
    """Contrast-limited adaptive histogram equalization of a uint8 raster."""
    img = np.ascontiguousarray(img, dtype=np.uint8)
    h, w = img.shape
    tile_h = min(tile_h, h)
    tile_w = min(tile_w, w)
    n_ty = (h + tile_h - 1) // tile_h
    n_tx = (w + tile_w - 1) // tile_w
    maps = _clahe_maps(img, n_ty, n_tx, tile_h, tile_w, clip_limit)

    fy = (np.arange(h) + 0.5) / tile_h - 0.5
    ty0 = np.floor(fy).astype(np.int64)
    wy = fy - ty0
    wy[ty0 < 0] = 0.0
    ty0 = np.clip(ty0, 0, n_ty - 1)
    ty1 = np.minimum(ty0 + 1, n_ty - 1)
    wy[ty1 == ty0] = 0.0

    fx = (np.arange(w) + 0.5) / tile_w - 0.5
    tx0 = np.floor(fx).astype(np.int64)
    wx = fx - tx0
    wx[tx0 < 0] = 0.0
    tx0 = np.clip(tx0, 0, n_tx - 1)
    tx1 = np.minimum(tx0 + 1, n_tx - 1)
    wx[tx1 == tx0] = 0.0

    ty0 = ty0[:, None]
    ty1 = ty1[:, None]
    wy = wy[:, None]
    tx0 = tx0[None, :]
    tx1 = tx1[None, :]
    wx = wx[None, :]

    m = ((1.0 - wy) * (1.0 - wx) * maps[ty0, tx0, img]
         + (1.0 - wy) * wx * maps[ty0, tx1, img]
         + wy * (1.0 - wx) * maps[ty1, tx0, img]
         + wy * wx * maps[ty1, tx1, img])
    return np.floor(m + 0.5).astype(np.uint8)


# ---------------------------------------------------------------------------
# ordered dithering
# ---------------------------------------------------------------------------

def dither_indices(rgb, palette, tmap, spread):
    """Ordered-dither quantization: per-pixel threshold offset, then nearest
    palette color by squared RGB distance (ties to the lowest index)."""
    rgb = np.ascontiguousarray(rgb, dtype=np.float64)
    palette = np.ascontiguousarray(palette, dtype=np.float64)
    tmap = np.ascontiguousarray(tmap, dtype=np.float64)
    h, w, _ = rgb.shape
    n = tmap.shape[0]
    reps = ((h + n - 1) // n, (w + n - 1) // n)
    tiled = np.tile(tmap, reps)[:h, :w]
    perturbed = rgb + (float(spread) * (tiled - 0.5))[:, :, None]
    diff = perturbed[:, :, None, :] - palette[None, None, :, :]
    dist = (diff ** 2).sum(axis=-1)
    return dist.argmin(axis=-1).astype(np.int32)


# ---------------------------------------------------------------------------
# earth mover's distance (transportation problem)
# ---------------------------------------------------------------------------

def _emd_ssp(supply, demand, cost):
    """Exact EMD by successive shortest augmenting paths.

    supply and demand must have equal totals; returns sum(flow * cost).
    Each path search is Bellman-Ford over the dense bipartite residual graph
    (arcs i -> j at cost[i, j]; j -> i at -cost[i, j] where flow[i, j] > 0).
    Labels change only on a strict improvement, so ties cannot close a
    parent cycle through a zero-cost forward/backward arc pair.
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
        target = int(open_dt.argmin())
        if open_dt[target] == np.inf:
            break  # numerically exhausted

        # walk back: arcs (srcs[k], snks[k]) forward, (srcs[k], snks[k+1]) back
        srcs, snks = [pt[target]], [target]
        while ps[srcs[-1]] >= 0:
            snks.append(ps[srcs[-1]])
            srcs.append(pt[snks[-1]])
        back = (srcs[:-1], snks[1:])
        step = min(rem_d[target], rem_s[srcs[-1]], *flow[back])
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
