"""Small numerical kernels: finite differences, line search, quadrature,
crossings, cubic Hermite and monotone interpolation."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import NoConvergence

TWO_PI = 2.0 * np.pi

# parameters per stencil block of `differentiate` (7 points each, so one call
# of `f` sees at most 7168 points) and segments per node block of
# `gauss5_segments` (5 nodes each, 5120 points). Even, so a full block is
# never padded (see `_stencil_sums`), and the blocks change no bit of the result
DIFF_BLOCK = 1024

# golden_minimize: most steps, and the bracket width relative to
# 1 + |a| + |b| at which it stops
GOLDEN_ITERS = 200
GOLDEN_TOL = 1e-12

# 5-point Gauss-Legendre rule on [0, 1]
_G5_X = np.array([
    0.5 - 0.45308992296933199640, 0.5 - 0.26923465505284154552, 0.5,
    0.5 + 0.26923465505284154552, 0.5 + 0.45308992296933199640,
])
_G5_W = np.array([
    0.11846344252809454376, 0.23931433524968323402, 0.28444444444444444444,
    0.23931433524968323402, 0.11846344252809454376,
])


def fd_weights(offsets, order):
    """Finite-difference weights for the given derivative order at 0.

    Fornberg's recursion on arbitrary nodes; exact for polynomials up to
    degree len(offsets)-1, so a 7-point stencil is at least 4th-order
    accurate for derivative orders up to 3. Computed once per (offsets,
    order) and shared, read-only.
    """
    return _fornberg(tuple(np.asarray(offsets, dtype=float).tolist()), int(order))


@lru_cache(maxsize=256)
def _fornberg(x, order):
    n = len(x)
    if order >= n:
        raise ValueError("stencil too short for requested order")
    z = 0.0
    c = np.zeros((n, order + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = x[0] - z
    for i in range(1, n):
        mn = min(i, order)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - z
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    w = c[:, order]
    w.flags.writeable = False
    return w


def differentiate(f, t, order, h, domain=None, closed=False):
    """Derivative of a (possibly vector valued) callable by a 7-point stencil.

    The window t + {-3h..3h} is shifted to stay inside an open domain; closed
    domains sample through the wrap instead. `t` may be scalar or an array.
    `f` sees the stencils of at most DIFF_BLOCK parameters per call, each
    distinct point once (see `_distinct_call`), and each parameter's result
    has the same bits in any batch (see `_stencil_sums`).
    `order` may be a tuple of orders, all read from one evaluation of the
    stencils and returned as a tuple; order 0 is the value of f at t itself,
    the stencil point at offset 0 (f is called at t apart from the stencil
    only where a shifted window leaves it out: t outside an open domain).
    """
    if isinstance(order, tuple):
        return _differentiate(f, t, order, h, domain, closed)
    return _differentiate(f, t, (order,), h, domain, closed)[0]


def _differentiate(f, t, orders, h, domain, closed):
    t = np.asarray(t, dtype=float)
    t_flat = t.ravel()
    base = np.arange(-3, 4, dtype=float)
    if closed or domain is None:
        shifts = np.zeros(t_flat.shape, dtype=int)
    else:
        t0, t1 = domain
        # fmax: a NaN parameter keeps the unshifted window, and its NaN values
        lo = np.ceil(np.fmax(0.0, (t0 - (t_flat - 3.0 * h)) / h - 1e-9)).astype(int)
        hi = np.ceil(np.fmax(0.0, ((t_flat + 3.0 * h) - t1) / h - 1e-9)).astype(int)
        shifts = lo - hi
    outs = [None] * len(orders)
    if not t_flat.size:
        empty = np.asarray(f(t_flat), dtype=float)
        outs = [empty.copy() for _ in orders]
    for s in np.unique(shifts):
        offs = (base + s) * h
        weights = [None if order == 0 else fd_weights(offs, order) for order in orders]
        idx = np.nonzero(shifts == s)[0]
        for rows in np.split(idx, range(DIFF_BLOCK, idx.size, DIFF_BLOCK)):
            ts = t_flat[rows][:, None] + offs[None, :]
            vals = _distinct_call(f, ts.ravel())
            vals = vals.reshape(ts.shape + vals.shape[1:])
            for k, w in enumerate(weights):
                if w is not None:
                    acc = _stencil_sums(w, vals)
                elif abs(s) <= 3:
                    acc = vals[:, 3 - s]
                else:
                    acc = np.asarray(f(t_flat[rows]), dtype=float)
                if outs[k] is None:
                    outs[k] = np.zeros(t_flat.shape + acc.shape[1:])
                outs[k][rows] = acc
    return tuple(out.reshape(t.shape + out.shape[1:])[()] for out in outs)


def _stencil_sums(w, vals):
    """The weighted sums of w over axis 1 of a block's stencil values vals,
    by BLAS. BLAS reduces a block of one parameter by its dot product, and the
    last parameter of an odd block of 2-vectors by a tail kernel, to other
    bits than it gives the same stencil inside an even block; an odd block is
    therefore padded with a copy of its last row, so every parameter's sum
    has the bits it has in any batch."""
    n = vals.shape[0]
    if n % 2:
        vals = np.concatenate([vals, vals[-1:]])
    return np.tensordot(w, np.moveaxis(vals, 1, 0), axes=(0, 0))[:n]


def _distinct_call(f, pts):
    """f(pts), with f called once per distinct parameter. Parameters are told
    apart by their bits, so -0.0 and 0.0 stay two. Every function normplane
    differentiates evaluates point by point, a finite difference included,
    so this gives the bits of f(pts)."""
    keys = pts.view(np.int64)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    first = np.empty(pts.shape, dtype=bool)
    first[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    if np.all(first):
        return np.asarray(f(pts), dtype=float)
    vals = np.asarray(f(pts[order[first]]), dtype=float)
    slot = np.empty(pts.shape, dtype=np.intp)
    slot[order] = np.cumsum(first) - 1
    return vals[slot]


def wrap(t, t0, period):
    """t reduced into [t0, t0 + period) on a closed curve; unchanged on an
    open one (period None). Parameters that lie there already keep every
    bit, whatever else the array holds, so a batch wraps as its elements
    would one by one (np.mod of an in-range grid is also the costly part of
    an evaluation). A tiny negative offset, which np.mod rounds up to the
    period, maps to t0; NaN and +/-inf, which lie nowhere on the curve, map
    to NaN; a scalar stays a scalar."""
    if period is None:
        return t
    inside = (t >= t0) & (t < t0 + period)
    if np.all(inside):
        return t
    with np.errstate(invalid="ignore"):
        moved = t0 + np.mod(t - t0, period)
    return np.where(inside, t, np.where(moved >= t0 + period, t0, moved))[()]


def index_runs(idx, n, closed):
    """Runs of consecutive indices of an n-node grid; on a closed grid a run
    through the seam is one run, its indices before the seam negative."""
    runs = np.split(idx, np.nonzero(np.diff(idx) > 1)[0] + 1) if idx.size else []
    if closed and len(runs) > 1 and runs[0][0] == 0 and runs[-1][-1] == n - 1:
        runs = [np.concatenate([runs[-1] - n, runs[0]])] + runs[1:-1]
    return runs


def merge_events(ts, tol, t0, period):
    """Sorted event parameters, wrapped into [t0, t0 + period) on a closed
    curve, with events closer than `tol` counted once, across the seam too.
    The earlier event of each cluster is kept."""
    out = []
    for t in np.sort(wrap(np.asarray(ts, dtype=float), t0, period)).tolist():
        if not out or t - out[-1] > tol:
            out.append(t)
    if period is not None and len(out) >= 2 and abs((out[-1] - out[0]) - period) < tol:
        out.pop()
    return out


def polish_dips(f, ts, idx, step, domain, closed):
    """Golden-section minima of f near the grid nodes ts[idx], found by one
    lock-step search (no search, and two empty arrays, for an empty idx).

    Each search brackets ts[i] -/+ step; on an open curve the bracket is
    clipped to the domain, on a closed one it runs through the seam.
    Returns the arrays (t_min, f_min) in the order of idx.
    """
    i = np.asarray(idx, dtype=int)
    lo, hi = ts[i] - step, ts[i] + step
    if not closed:
        lo, hi = np.maximum(lo, domain[0]), np.minimum(hi, domain[1])
    return golden_minimize(f, lo, hi) if i.size else (lo, hi)


def golden_minimize(f, a, b):
    """Golden-section minima of unimodal functions on the brackets [a_i, b_i]
    in lock-step: at most GOLDEN_ITERS steps, until a bracket is below
    GOLDEN_TOL relative. Each step calls the array-capable `f` once, on the
    brackets still open, so each ends with the bits of its search alone; a 0-d
    bracket is the scalar search, on 0-d parameters. Returns (t_min, f_min)."""
    a, b = (np.array(v, dtype=float) for v in np.broadcast_arrays(a, b))
    shape, a, b = a.shape, a.ravel(), b.ravel()
    call = lambda x: np.asarray(f(x if shape else x.reshape(())), dtype=float).ravel()
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = b - invphi * (b - a), a + invphi * (b - a)
    f1, f2 = call(x1), call(x2)
    for _ in range(GOLDEN_ITERS):
        i = np.flatnonzero(~(b - a < GOLDEN_TOL * (1.0 + np.abs(a) + np.abs(b))))
        if not i.size:
            break
        left = f1[i] <= f2[i]
        lt, rt = i[left], i[~left]
        b[lt], x2[lt], f2[lt] = x2[lt], x1[lt], f1[lt]
        a[rt], x1[rt], f1[rt] = x1[rt], x2[rt], f2[rt]
        x1[lt] = b[lt] - invphi * (b[lt] - a[lt])
        x2[rt] = a[rt] + invphi * (b[rt] - a[rt])
        f1[lt], f2[rt] = np.split(call(np.concatenate([x1[lt], x2[rt]])), [lt.size])
    xm = 0.5 * (a + b)
    return xm.reshape(shape)[()], call(xm).reshape(shape)[()]


def gauss5_segments(fn, a, b):
    """Integral of fn over each segment [a_i, b_i] by 5-point Gauss. `fn`
    sees the nodes of at most DIFF_BLOCK segments per call, and the node sums
    reduce through `_stencil_sums`, so a segment's integral has the same bits
    alone (scalar a, b), in a one-element array or in any batch."""
    a = np.asarray(a, dtype=float)
    span = np.asarray(b, dtype=float) - a
    starts = np.broadcast_to(a, span.shape).ravel()
    spans = span.ravel()
    out = np.empty(spans.shape)
    for lo in range(0, spans.size, DIFF_BLOCK):
        s = spans[lo:lo + DIFF_BLOCK]
        nodes = starts[lo:lo + DIFF_BLOCK, None] + s[:, None] * _G5_X
        vals = fn(nodes.ravel()).reshape(nodes.shape)
        out[lo:lo + DIFF_BLOCK] = s * _stencil_sums(_G5_W, vals)
    return out.reshape(span.shape)[()]


# Brent's iteration cap, and the relative part of its convergence half-width
# as in scipy's brentq
BRENT_ITERS = 120
BRENT_RTOL = 4.0 * np.finfo(float).eps


def brent_root(f, a, b, fa, fb, xtol=1e-12):
    """Roots of f in the brackets [a_i, b_i], refined in lock-step.

    Brent's method step for step as scipy's brentq codes it (Zeros/brentq.c,
    after Brent 1973, ch. 4): the same secant / inverse quadratic / bisection
    choice, the half-width delta = (xtol + BRENT_RTOL |x|)/2 and BRENT_ITERS
    iterations. All brackets advance together: each iteration makes one call
    of the array-capable `f` on the brackets still open. The endpoint values
    `fa`, `fb` are taken as given and never re-evaluated, so a caller holding
    sampled values seeds the solver with exactly the signs it bracketed on.
    Each pair must have opposite signs or a zero; a zero endpoint is its own
    root. Returns an array of roots in bracket order; raises NoConvergence if
    a bracket is still open after BRENT_ITERS iterations.
    """
    xpre = np.array(a, dtype=float).ravel()
    xcur = np.array(b, dtype=float).ravel()
    fpre = np.array(fa, dtype=float).ravel()
    fcur = np.array(fb, dtype=float).ravel()
    roots = np.where(fpre == 0.0, xpre, xcur)
    live = (fpre != 0.0) & (fcur != 0.0)
    if np.any(np.signbit(fpre[live]) == np.signbit(fcur[live])):
        raise ValueError("brent_root needs f(a) and f(b) of opposite signs")
    idx = np.nonzero(live)[0]
    xpre, xcur, fpre, fcur = xpre[idx], xcur[idx], fpre[idx], fcur[idx]
    xblk = np.zeros_like(xcur)
    fblk = np.zeros_like(xcur)
    spre = np.zeros_like(xcur)
    scur = np.zeros_like(xcur)
    for _ in range(BRENT_ITERS):
        # keep [xcur, xblk] a sign-change bracket
        fresh = (fpre != 0.0) & (fcur != 0.0) & (np.signbit(fpre) != np.signbit(fcur))
        xblk = np.where(fresh, xpre, xblk)
        fblk = np.where(fresh, fpre, fblk)
        spre = np.where(fresh, xcur - xpre, spre)
        scur = np.where(fresh, xcur - xpre, scur)
        # make xcur the endpoint with the smaller |f|
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = (np.where(swap, xcur, xpre), np.where(swap, xblk, xcur),
                            np.where(swap, xcur, xblk))
        fpre, fcur, fblk = (np.where(swap, fcur, fpre), np.where(swap, fblk, fcur),
                            np.where(swap, fcur, fblk))

        delta = (xtol + BRENT_RTOL * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = (fcur == 0.0) | (np.abs(sbis) < delta)
        roots[idx[done]] = xcur[done]
        open_ = ~done
        idx = idx[open_]
        if not idx.size:
            return roots
        xpre, xcur, xblk = xpre[open_], xcur[open_], xblk[open_]
        fpre, fcur, fblk = fpre[open_], fcur[open_], fblk[open_]
        spre, scur = spre[open_], scur[open_]
        delta, sbis = delta[open_], sbis[open_]

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            secant = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            quad = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        stry = np.where(xpre == xblk, secant, quad)
        short = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                 & (2 * np.abs(stry) < np.minimum(np.abs(spre), 3 * np.abs(sbis) - delta)))
        spre = np.where(short, scur, sbis)
        scur = np.where(short, stry, sbis)

        xpre, fpre = xcur, fcur
        xcur = xcur + np.where(np.abs(scur) > delta, scur,
                               np.where(sbis > 0, delta, -delta))
        fcur = np.asarray(f(xcur), dtype=float).reshape(xcur.shape)
        if np.any(np.isnan(fcur)):
            raise NoConvergence("function value is NaN in Brent refinement")
    # the loop returns as soon as no bracket is open
    raise NoConvergence(f"Brent refinement did not converge in {BRENT_ITERS} iterations "
                        f"on {idx.size} bracket(s)")


def sign_crossings(ts, vals, noise, refine, period=None):
    """Refined zero crossings of a sampled function.

    Nodes with |value| <= noise count as zeros; a crossing needs flanking
    values of opposite sign exceeding 10x the noise floor. With `period`
    given, the sample sequence is treated cyclically. Every crossing is
    refined by one lock-step `brent_root` call over all brackets, seeded with
    the sampled values `vals` at the bracket ends, so `refine` must accept an
    array of parameters. Returns refined parameters in ascending order.
    """
    ts = np.asarray(ts, dtype=float)
    vals = np.asarray(vals, dtype=float)
    n = len(ts)
    s = np.where(np.abs(vals) <= noise, 0, np.sign(vals)).astype(int)
    strong = np.abs(vals) > 10.0 * noise
    nz = np.nonzero(s != 0)[0]
    if len(nz) < 2:
        return []
    i, j_raw = nz[:-1], nz[1:]
    if period is not None:
        i, j_raw = np.append(i, nz[-1]), np.append(j_raw, nz[0] + n)
    j = j_raw % n
    keep = (s[i] * s[j] < 0) & strong[i] & strong[j]
    i, j, j_raw = i[keep], j[keep], j_raw[keep]
    if not i.size:
        return []
    b = ts[j]
    if period is not None:
        b = np.where(j_raw < n, b, b + period)
    roots = brent_root(refine, ts[i], b, vals[i], vals[j], xtol=1e-10)
    return merge_events(roots, 1e-9, ts[0], period)


def _pchip_end_slope(h0, h1, m0, m1):
    """One-sided three-point slope at an end node, kept shape preserving."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


class Hermite:
    """Piecewise cubic Hermite interpolant through (x_i, y_i) with slopes
    dy_i, x strictly increasing; y and dy of shape (n,) or (n, 2). Called
    on q it returns y(q), of shape q.shape or q.shape + (2,). The
    coefficients and term order are scipy's CubicHermiteSpline in PPoly form
    (the end cubics extrapolate). One table of (x_i, c3, c2, c1, c0) per
    interval (and per component) keeps a query to one search (`interval`)
    and one gather (`at`), so a caller that needs the intervals of its
    queries too searches once."""

    def __init__(self, x, y, dy):
        x, y, dy = (np.asarray(a, dtype=float) for a in (x, y, dy))
        self._vector = y.ndim > 1
        h = np.diff(x)[:, None] if self._vector else np.diff(x)
        m = np.diff(y, axis=0) / h
        t = (dy[:-1] + dy[1:] - 2.0 * m) / h
        x0 = np.broadcast_to(x[:-1].reshape(h.shape), m.shape)
        self._table = np.stack([x0, y[:-1], dy[:-1], (m - dy[:-1]) / h - t, t / h])
        self._inner = x[1:-1]

    def interval(self, q):
        """The interval i of each query, x_i <= q < x_(i+1), with the end
        intervals taking the queries beyond them (and NaN the last)."""
        return np.searchsorted(self._inner, q, side="right")

    def at(self, q, interval):
        """y(q) on the given intervals of the queries q (an array)."""
        x0, c3, c2, c1, c0 = np.take(self._table, interval, axis=1)
        s = (q[..., None] if self._vector else q) - x0
        ss = s * s
        return c3 + c2 * s + c1 * ss + c0 * (ss * s)

    def __call__(self, q):
        q = np.asarray(q, dtype=float)
        return self.at(q, self.interval(q))


def pchip(x, y):
    """Monotone cubic Hermite interpolant (Fritsch & Carlson, SIAM J. Numer.
    Anal. 17, 1980) through (x_i, y_i), x strictly increasing, n >= 3; returns
    q -> y(q). Bit for bit scipy's PchipInterpolator: its node slopes and end
    rule, then `Hermite`."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    h = np.diff(x)
    m = np.diff(y) / h
    w1 = 2.0 * h[1:] + h[:-1]
    w2 = h[1:] + 2.0 * h[:-1]
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0.0) | (m[:-1] == 0.0)
    d = np.zeros_like(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
    d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    return Hermite(x, y, d)


def unwrap_mod(raw, period):
    """Continuous lift of angles known only modulo `period`."""
    raw = np.asarray(raw, dtype=float)
    d = np.diff(raw)
    jumps = (d + period / 2.0) % period - period / 2.0
    out = np.empty_like(raw)
    out[0] = raw[0]
    out[1:] = raw[0] + np.cumsum(jumps)
    return out
