"""Hot numeric kernels: LBP codes, CLAHE, ordered dithering and the exact
earth mover's distance.

LBP, CLAHE and dithering are vectorized numpy: the CLAHE tables come from
one histogram of all tiles (of every plane of a stack), and the CLAHE blend
and dithering run over blocks of rows that stay in cache.  Dithering is
Colour Names' ordered dither to the corners of the RGB cube, decided on
8-bit levels without building an RGB frame.  The per-pixel and per-tile
loops they replace live in tests/test_kernels.py as reference oracles, the
float HSV to RGB and nearest-colour pipeline in tests/cn_oracle.py, and the
kernel tests require equal results.  The earth mover's distance is
solved by the transportation simplex: a least-cost start, one whole-matrix
reduced-cost pass per pivot, a parent/depth basis tree of which each pivot
re-hangs only the subtree it cuts off, Bland's rule after a run of
degenerate pivots, and a hard pivot cap; tests check it against scipy's LP
solver and against the closed form on a line.
"""

import functools

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
    """Per-tile 256-entry lookup tables from clipped, equalized histograms,
    shaped (n_ty, n_tx, 256), or (n, n_ty, n_tx, 256) for an (n, h, w)
    stack of rasters.

    All tile histograms of all planes come from one bincount over
    (plane * tiles + tile) * 256 + value and are clipped, accumulated and
    normalized row by row.  A flat tile maps by the identity.  Levels below
    a tile's first occupied bin (after clipping) map to 0, so blending with
    a neighboring tile never yields a negative value.
    """
    h, w = img.shape[-2:]
    planes = img.reshape(-1, h, w)
    n_tiles = n_ty * n_tx
    # (plane * tiles + tile) * 256 + value, as a row part plus a column part
    rows = ((np.arange(len(planes)) * n_tiles)[:, None]
            + (np.arange(h) // tile_h * n_tx)[None, :]) * 256
    cols = np.arange(w) // tile_w * 256
    key = np.add(rows[:, :, None], cols, dtype=np.intp)
    key += planes
    hist = np.bincount(key.ravel(), minlength=len(planes) * n_tiles * 256)
    hist = hist.reshape(-1, 256).astype(np.float64)
    flat = np.count_nonzero(hist, axis=1) == 1
    if flat.any():
        maps = np.empty(hist.shape, dtype=np.float64)
        maps[flat] = np.arange(256, dtype=np.float64)
        hist = hist[~flat]

    # every step below works row by row, in place where it can
    if clip_limit > 0:
        area = hist.sum(axis=1)  # pixel counts: exact in float64
        limit = np.maximum(1.0, clip_limit * area / 256.0)[:, None]
        excess = np.subtract(hist, limit)
        excess = np.maximum(excess, 0.0, out=excess).sum(axis=1)
        np.minimum(hist, limit, out=hist)
        hist += (excess / 256.0)[:, None]
    first = np.argmax(hist > 0, axis=1)
    total = hist.sum(axis=1)[:, None]
    cdf = np.cumsum(hist, axis=1, out=hist)
    cdf /= total
    cdf_min = cdf[np.arange(len(cdf)), first][:, None]
    cdf -= cdf_min
    np.maximum(cdf, 0.0, out=cdf)
    cdf /= 1.0 - cdf_min
    cdf *= 255.0
    if flat.any():
        maps[~flat] = cdf
    else:
        maps = cdf
    return maps.reshape(img.shape[:-2] + (n_ty, n_tx, 256))


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
    """Contrast-limited adaptive histogram equalization of a uint8 raster,
    or of each plane of an (n, h, w) stack of rasters.

    Each pixel blends the lookup tables of its four surrounding tiles; the
    four terms are summed in the order (top-left, top-right, bottom-left,
    bottom-right).  Pixels are blended in blocks of rows.  The planes of a
    stack share one tile grid, so each block's four blend weights and four
    table offsets are computed once for all planes.
    """
    img = np.ascontiguousarray(img, dtype=np.uint8)
    h, w = img.shape[-2:]
    planes = img.reshape(-1, h, w)
    tile_h = min(tile_h, h)
    tile_w = min(tile_w, w)
    n_ty = (h + tile_h - 1) // tile_h
    n_tx = (w + tile_w - 1) // tile_w
    luts = _clahe_maps(planes, n_ty, n_tx, tile_h, tile_w, clip_limit)
    luts = luts.reshape(len(planes), -1)
    ty0, ty1, wy = _axis_blend(h, tile_h, n_ty)
    tx0, tx1, wx = _axis_blend(w, tile_w, n_tx)
    left, right = tx0 * 256, tx1 * 256
    wx0, wx1 = 1.0 - wx, wx
    out = np.empty(planes.shape, dtype=np.uint8)
    # one set of block buffers, reused by every block and plane
    block = (min(BLOCK_ROWS, h), w)
    weights = np.empty((4,) + block)
    bases = np.empty((4,) + block, dtype=np.intp)
    level, index = np.empty(block, np.intp), np.empty(block, np.intp)
    m, term = np.empty(block), np.empty(block)
    for y in range(0, h, BLOCK_ROWS):
        rows = slice(y, y + BLOCK_ROWS)
        n = len(wy[rows])
        top = (ty0[rows] * (n_tx * 256))[:, None]
        bottom = (ty1[rows] * (n_tx * 256))[:, None]
        wy1 = wy[rows, None]
        wy0 = 1.0 - wy1
        # (top-left, top-right, bottom-left, bottom-right)
        for k, (wa, wb, a, b) in enumerate((
                (wy0, wx0, top, left), (wy0, wx1, top, right),
                (wy1, wx0, bottom, left), (wy1, wx1, bottom, right))):
            np.multiply(wa, wb, out=weights[k, :n])
            np.add(b, a, out=bases[k, :n])
        lv, ix, mb, tb = level[:n], index[:n], m[:n], term[:n]
        for lut, plane, dst in zip(luts, planes, out):
            lv[...] = plane[rows]
            for k in range(4):
                np.add(lv, bases[k, :n], out=ix)
                # every index is in range: clip skips the buffered error
                # check of take with out
                lut.take(ix, out=tb, mode="clip")
                if k == 0:
                    np.multiply(weights[k, :n], tb, out=mb)
                else:
                    tb *= weights[k, :n]
                    mb += tb
            mb += 0.5
            dst[rows] = np.floor(mb, out=mb)
    return out.reshape(img.shape)


# ---------------------------------------------------------------------------
# ordered dithering
# ---------------------------------------------------------------------------

# the float value s / 255 of each 8-bit level s
_UNIT_LEVELS = np.arange(256) / 255.0


def _rounded_levels(x):
    """Nearest 8-bit level of each value x in [0, 1] (half to even)."""
    return np.rint(x * 255.0)


@functools.cache
def _p_levels():
    """The level of p = v * (1 - s) at v level * 256 + s level: the level
    of the smallest channel of an HSV pixel converted back to RGB.  Built
    on first use, which keeps it out of the import."""
    return _rounded_levels(
        _UNIT_LEVELS[:, None] * (1.0 - _UNIT_LEVELS[None, :])
    ).astype(np.int16).ravel()


# the channel (0 R, 1 G, 2 B) that holds V, P and the middle value in each
# hue sector of the HSV to RGB conversion
_SECTOR_CHANNELS = ((0, 2, 1), (1, 2, 0), (1, 0, 2), (2, 0, 1), (2, 1, 0),
                    (0, 1, 2))


def corner_table(palette):
    """dither_indices' (6, 3, 3, 3) table of a palette that holds the eight
    corners of the RGB cube: the lowest palette index among the corners
    nearest to a pixel, by hue sector and the decisions for V, P and the
    middle value (0 below, 1 on, 2 above the midpoint).  Raises ValueError
    for any other palette."""
    palette = np.asarray(palette, dtype=np.float64)
    top = palette == 255.0
    if palette.ndim != 2 or palette.shape[1] != 3 \
            or not (top | (palette == 0.0)).all() \
            or not np.bincount(top @ [4, 2, 1], minlength=8).all():
        raise ValueError("palette must hold the 8 corners of the RGB cube")
    # allowed[d, t]: a corner whose channel is at 255 (t = 1) or 0 (t = 0)
    # is among the nearest for decision d (0 below, 1 on, 2 above)
    allowed = np.array([[True, False], [True, True], [False, True]])
    # per role (V, P, middle): (sector, decision, palette entry)
    ok = [allowed[:, top[:, list(channels)].T.astype(int)].swapaxes(0, 1)
          for channels in zip(*_SECTOR_CHANNELS)]
    ok = (ok[0][:, :, None, None] & ok[1][:, None, :, None]
          & ok[2][:, None, None, :])
    # the first True along the palette: the lowest tied index
    return ok.argmax(axis=-1).astype(np.uint8)


def dither_indices(hue, s, v, tmap, scale, corners):
    """Ordered dither of HSV pixels to the eight corners of the RGB cube,
    decided channel by channel on 8-bit levels.

    hue is in degrees (finite), wrapped into [0, 360) as np.mod does; s
    and v are uint8 levels standing for s / 255 and v / 255.  A pixel's RGB
    levels are those of the HSV to RGB conversion: V (the v level itself),
    P = v * (1 - s) and a middle value, placed by the hue sector.  The
    middle value is q = v * (1 - s * f) in odd sectors and
    t = v * (1 - s * (1 - f)) in even ones, f being the hue's fraction
    within its sector.  tmap is the integer threshold map, already shifted
    by the midpoint: a channel at level L lies above, on or below the
    midpoint between corner levels 0 and 255 as scale * L + tmap is > 0,
    == 0 or < 0 at the pixel's map position.  corners[sector, V, P, middle]
    gives the index for the three channel decisions, each 0 below, 1 on
    and 2 above the midpoint.  Pixels are quantized in blocks of rows.
    """
    hue = np.asarray(hue, dtype=np.float64)
    if not (hue.min() >= 0.0 and hue.max() < 360.0):
        hue = np.mod(hue, 360.0)
        # a tiny negative hue wraps to 360 itself: sector 6, which is
        # sector 0 with f = 0, as for hue 0
        hue[hue == 360.0] = 0.0
    # inside [0, 360) np.mod is the identity up to the sign of zero, which
    # neither the sector nor f sees, and hue / 60 stays below 6
    h, w = hue.shape
    n = tmap.shape[0]
    reps = ((h + n - 1) // n, (w + n - 1) // n)
    bias = np.tile(np.asarray(tmap, dtype=np.int16), reps)[:h, :w]
    corners = np.asarray(corners).ravel()
    p_levels = _p_levels()
    index = np.empty((h, w), dtype=corners.dtype)

    for y in range(0, h, BLOCK_ROWS):
        rows = slice(y, y + BLOCK_ROWS)
        sb, vb, bb = s[rows], v[rows], bias[rows]

        def side(level):
            # -1, 0 or 1: the level lies below, on or above the midpoint
            level = level * np.int16(scale)
            level += bb
            return np.sign(level, out=level)

        x = hue[rows] / 60.0
        whole = np.floor(x)
        f = np.subtract(x, whole, out=x)
        sector = whole.astype(np.int16)
        # g = f in odd sectors, |f - 1| = 1 - f in even ones
        g = np.subtract(f, (sector & np.int16(1)) ^ np.int16(1), out=whole)
        np.abs(g, out=g)
        g *= _UNIT_LEVELS.take(sb)
        middle = np.subtract(1.0, g, out=g)
        middle *= _UNIT_LEVELS.take(vb)
        v16 = vb.astype(np.int16)
        # corners' flat index, each side shifted from -1..1 to 0..2
        key = sector * np.int16(27)
        key += np.int16(13)
        key += side(v16) * np.int16(9)
        key += side(p_levels.take((v16.view(np.uint16) << 8) | sb)) \
            * np.int16(3)
        key += side(_rounded_levels(middle).astype(np.int16))
        index[rows] = corners.take(key)
    return index


# ---------------------------------------------------------------------------
# earth mover's distance (transportation problem)
# ---------------------------------------------------------------------------

# the simplex gives up after this many pivots per row and column of the
# problem; CF-sized solves take about one pivot per line
EMD_PIVOTS_PER_LINE = 50
# degenerate pivots in a row after which the entering cell is Bland's
EMD_DEGENERATE_RUN = 8


def _least_cost_start(supply, demand, cost):
    """Initial basic flow by the least-cost (matrix-minimum) rule.

    Cells are visited in ascending cost order (ties to the lower flat
    index).  An open cell gets min(remaining supply, remaining demand) and
    closes one line: its row when the row runs out, even when the column
    runs out with it, else its column.  The last open row (column) instead
    closes every column (row) it meets, so the n + m - 1 cells, zero flows
    included, form a spanning tree of the rows and columns.  Returns
    {flat cell index: flow}.
    """
    n, m = cost.shape
    rem_s, rem_d = supply.tolist(), demand.tolist()
    row_open, col_open = [True] * n, [True] * m
    rows_left, cols_left = n, m
    flow = {}
    for cell in np.argsort(cost, axis=None, kind="stable").tolist():
        i, j = divmod(cell, m)
        if not (row_open[i] and col_open[j]):
            continue
        if cols_left == 1 or (rows_left > 1 and rem_s[i] <= rem_d[j]):
            q = rem_s[i]
            row_open[i] = False
            rows_left -= 1
        else:
            q = rem_d[j]
            col_open[j] = False
            cols_left -= 1
        flow[cell] = max(q, 0.0)  # the last cell may see a rounding residue
        rem_s[i] -= q
        rem_d[j] -= q
        if not rows_left:
            break
    return flow


def _transport_simplex(supply, demand, cost):
    """Optimal transport plan by the transportation simplex.

    supply and demand must have equal totals.  The basis is a spanning tree
    over the rows (nodes 0..n-1) and columns (nodes n..n+m-1), rooted at
    row 0: edge[x] is the basic cell joining node x to parent[x], and the
    potentials satisfy u_i + v_j = cost[i, j] on every basic cell.  Each
    pivot enters the cell of least reduced cost, found in one whole-matrix
    pass, and walks both of its ends up to their common ancestor to find the
    cycle.  The leaving cell is the blocking cell of lowest flat index, and
    after EMD_DEGENERATE_RUN degenerate pivots in a row the entering cell is
    the negative one of lowest flat index until flow moves again: Bland's
    rule, so the solver cannot cycle.  Only the subtree that the leaving
    cell cuts off is re-hung and re-priced.  The solve stops when no
    reduced cost is below -1e-12 times the largest |cost|, and raises
    RuntimeError after EMD_PIVOTS_PER_LINE * (n + m) pivots instead of
    returning a partial flow.
    """
    n, m = cost.shape
    flow = _least_cost_start(supply, demand, cost)
    costs = cost.ravel().tolist()
    nodes = n + m
    neighbours = [[] for _ in range(nodes)]
    for cell in flow:
        i, j = divmod(cell, m)
        neighbours[i].append((n + j, cell))
        neighbours[n + j].append((i, cell))
    parent, edge = [-1] * nodes, [-1] * nodes
    depth, pot = [0] * nodes, [0.0] * nodes
    children = [set() for _ in range(nodes)]
    order = [0]
    for x in order:
        for y, cell in neighbours[x]:
            if y != parent[x]:
                parent[y], edge[y] = x, cell
                children[x].add(y)
                order.append(y)

    def settle(root):
        # depth and potentials below root, from root's own
        stack = [root]
        while stack:
            x = stack.pop()
            for y in children[x]:
                depth[y] = depth[x] + 1
                pot[y] = costs[edge[y]] - pot[x]
                stack.append(y)

    settle(0)
    tol = 1e-12 * float(np.abs(cost).max())
    degenerate = 0
    for _ in range(EMD_PIVOTS_PER_LINE * nodes):
        p = np.array(pot)
        reduced = cost - p[:n, None] - p[None, n:]
        enter = int(reduced.argmin())
        if reduced.flat[enter] >= -tol:
            plan = np.zeros(n * m)
            plan[list(flow)] = list(flow.values())
            return plan.reshape(n, m)
        if degenerate >= EMD_DEGENERATE_RUN:
            enter = int(np.argmax(reduced.ravel() < -tol))

        # the cycle: the entering cell, then the tree path between its row
        # and column; on each side the cells alternate -, +, -, ... from
        # the entering cell's end
        i, j = divmod(enter, m)
        a, b = i, n + j
        up_a, up_b = [], []
        while depth[a] > depth[b]:
            up_a.append(a)
            a = parent[a]
        while depth[b] > depth[a]:
            up_b.append(b)
            b = parent[b]
        while a != b:
            up_a.append(a)
            a = parent[a]
            up_b.append(b)
            b = parent[b]
        minus = up_a[0::2] + up_b[0::2]
        theta = min(flow[edge[x]] for x in minus)
        _, leave = min((edge[x], x) for x in minus if flow[edge[x]] == theta)
        for x in minus:
            flow[edge[x]] -= theta
        for x in up_a[1::2] + up_b[1::2]:
            flow[edge[x]] += theta
        del flow[edge[leave]]
        flow[enter] = theta
        degenerate = 0 if theta > 0 else degenerate + 1

        # cut the leaving cell, then re-hang its subtree from the entering
        # cell's end inside it, reversing the parent links up to the cut
        inside, outside = (i, n + j) if leave in up_a else (n + j, i)
        children[parent[leave]].remove(leave)
        node, up, cell = inside, outside, enter
        while True:
            next_up, next_cell = parent[node], edge[node]
            parent[node], edge[node] = up, cell
            children[up].add(node)
            if node == leave:
                break
            children[next_up].remove(node)
            node, up, cell = next_up, node, next_cell
        depth[inside] = depth[outside] + 1
        pot[inside] = costs[enter] - pot[outside]
        settle(inside)
    raise RuntimeError(f"transportation simplex did not converge in "
                       f"{EMD_PIVOTS_PER_LINE * nodes} pivots")


def emd(supply, demand, cost):
    """Earth mover's distance between two nonnegative distributions.

    Totals are normalized to 1 before solving, so inputs may be unnormalized
    histograms.  cost[i, j] is the ground distance from supply cell i to
    demand cell j.  Raises ValueError for non-finite or negative masses, a
    zero total, non-finite costs, or a cost not shaped
    (len(supply), len(demand)).
    """
    supply = np.ascontiguousarray(supply, dtype=np.float64)
    demand = np.ascontiguousarray(demand, dtype=np.float64)
    cost = np.ascontiguousarray(cost, dtype=np.float64)
    if supply.ndim != 1 or demand.ndim != 1:
        raise ValueError("supply and demand must be 1-D")
    if cost.shape != (len(supply), len(demand)):
        raise ValueError(f"cost has shape {cost.shape}, expected "
                         f"{(len(supply), len(demand))}")
    for name, mass in (("supply", supply), ("demand", demand)):
        if not np.isfinite(mass).all() or (mass < 0).any():
            raise ValueError(f"{name} must be finite and nonnegative")
        if not 0 < mass.sum() < np.inf:
            raise ValueError(f"{name} must have a positive, finite total")
    if not np.isfinite(cost).all():
        raise ValueError("cost must be finite")
    supply, demand = supply / supply.sum(), demand / demand.sum()
    # a zero-mass line carries no flow; left in, its cells only add
    # degenerate pivots
    rows, cols = supply > 0, demand > 0
    cost = cost[np.ix_(rows, cols)]
    plan = _transport_simplex(supply[rows], demand[cols], cost)
    return float((plan * cost).sum())
