"""Hot numeric kernels: LBP codes, CLAHE, ordered dithering and the exact
earth mover's distance.

LBP, CLAHE and dithering are vectorized numpy: the CLAHE tables come from
one histogram of all tiles, and the CLAHE blend and dithering run over
blocks of rows that stay in cache.  The per-pixel and per-tile loops they
replace live in tests/test_kernels.py as reference oracles, and the kernel
tests require equal results from both.  The earth mover's distance is
solved by the transportation simplex: a least-cost start, one whole-matrix
reduced-cost pass per pivot, a parent/depth basis tree of which each pivot
re-hangs only the subtree it cuts off, Bland's rule after a run of
degenerate pivots, and a hard pivot cap; tests check it against scipy's LP
solver and against the closed form on a line.
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
