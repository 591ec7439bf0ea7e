"""Independent geometric oracles that only the tests use: characterizations
from the paper (orthogonality, the anti-norm as a supremum, envelopes of line
families, osculating circles, the parallel sweep of the evolute, the evolute's
predicted curvature pair) that check what the package computes, a unit vector
carried to another norm, the analysis grid of a curve with its speeds, the
unit circle's arc-length table built at once, finite differences that
evaluate every stencil point, the scalar golden-section search of one
bracket, the lp radial jet as its own formula, the plane kernels as they were
when every circle evaluation built all its rows, distances between sampled
curves, a cusp classification read off the curve alone, a cyclic word reduced
by cancelling one pair at a time, a printer of expression trees that the
parser must read back, and the tuple-tree parser and recursive evaluator that
the expression programs must match. They use public normplane names only, so
they do not share the code they check."""

import re

import numpy as np

from normplane.analysis import REL_ZERO, curvature_pair
from normplane.derived import RHO_FLOOR
from normplane.errors import (
    ExpressionDomainError,
    InputError,
    KappaVanishes,
    NoConvergence,
    NotUnit,
    ParseError,
    SingularPoint,
    ZeroVector,
)
from normplane.expressions import CONSTANTS, FUNCTIONS, OPERATORS
from normplane.numerics import (
    DIFF_BLOCK,
    GOLDEN_ITERS,
    GOLDEN_TOL,
    fd_weights,
    gauss5_segments,
    golden_minimize,
    pchip,
    unwrap_mod,
)
from normplane.plane import (
    ARCLENGTH_STEPS,
    ARCLENGTH_TOL,
    BISECT_LEVELS,
    BISECT_ROUNDS,
    NEWTON_STEPS,
    NEWTON_TOL,
    TANGENT_BLOCK,
    THETA_RESOLUTION,
    TURNING_RATE_MIN,
    UNIT_TOL,
    symplectic,
)

# relative slack of is_birkhoff_orthogonal's line search
ORTHO_TOL = 1e-7
# offsets d of the parallel family that evolute_as_parallel_singularities sweeps
N_OFFSETS = 512
# evolute_curvature trusts the predicted pair where rho(nu) exceeds this
RHO_MASK = 1e-3


class DegenerateLine(Exception):
    """A pedal line direction is undefined because the base point was hit."""


def is_birkhoff_orthogonal(plane, x, y) -> bool:
    """Brute-force test of ||x + t y|| >= ||x|| (1 - ORTHO_TOL) by
    golden-section line search: the independent oracle for the birkhoff map."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    nx = float(plane.norm(x))
    ny = float(plane.norm(y))
    if nx == 0.0 or ny == 0.0:
        raise ZeroVector("orthogonality test needs nonzero vectors")
    span = 4.0 * nx / ny
    _, fmin = golden_minimize(lambda t: float(plane.norm(x + t * y)), -span, span)
    return fmin >= nx * (1.0 - ORTHO_TOL)


def antinorm_supremum(plane, x):
    """Sampled sup over the unit circle of |[x, c]| for the anti-norm of x, on
    plane.spec.table_size nodes with a parabolic refinement of the argmax."""
    x = np.asarray(x, dtype=float)
    n = int(plane.spec.table_size)
    step = 2.0 * np.pi / n
    th = np.linspace(0.0, 2.0 * np.pi, n + 1)[:-1]
    vals = np.abs(symplectic(x, plane.circle_point(th)))
    j = int(np.argmax(vals))

    def f(t):
        return float(np.abs(symplectic(x, plane.circle_point(t))))

    fm, f0, fp = f(th[j] - step), vals[j], f(th[j] + step)
    denom = fm - 2.0 * f0 + fp
    if denom < 0.0:
        return max(f0, f(th[j] + 0.5 * step * (fm - fp) / denom))
    return float(f0)


def transfer_unit(plane1, plane2, v):
    """The unit vector of plane2 whose supporting direction is that of the
    unit vector v of plane1, with matching orientation: where a normal goes
    when its pair moves to another norm."""
    v = np.asarray(v, dtype=float)
    if np.max(np.abs(plane1.norm(v) - 1.0)) > UNIT_TOL:
        raise NotUnit("transfer_unit expects a unit vector of the source plane")
    return plane2.normal_from_tangent(plane1.birkhoff(v))



def grid_speeds(plane, curve):
    """The analysis grid of a curve, gamma' and ||gamma'|| on it, the arrays
    that extend_normal and find_singular_params are handed."""
    ts = curve.grid()
    d1 = curve.derivative(ts, 1)
    return ts, d1, plane.norm(d1)


class EagerArclength:
    """The unit circle's arc-length table of a plane, built at once with the
    expressions a plane build used when it made the table itself: u on the
    table's theta nodes by 5-point Gauss of ||c'||, the length u(2 pi) and
    the monotone-cubic inverse, with u(theta) and its Newton inverse read
    from them. A table the plane builds on first read must equal it bit for
    bit."""

    def __init__(self, plane):
        n = int(plane.spec.table_size)
        self.n, self.dtheta = n, 2.0 * np.pi / n
        self.plane = plane
        self.nodes = np.linspace(0.0, 2.0 * np.pi, n + 1)
        self.u = np.zeros(n + 1)
        self.u[1:] = np.cumsum(gauss5_segments(self.speed, self.nodes[:-1], self.nodes[1:]))
        self.length = float(self.u[-1])
        self.theta_of_u = pchip(self.u, self.nodes)

    def speed(self, theta):
        return self.plane.norm(self.plane.circle_d1(theta))

    def arclength_of_theta(self, theta):
        th = np.mod(np.asarray(theta, dtype=float), 2.0 * np.pi)
        j = np.clip((th / self.dtheta).astype(int), 0, self.n - 1)
        return self.u[j] + gauss5_segments(self.speed, self.nodes[j], th)

    def theta_of_arclength(self, u):
        u = np.mod(np.asarray(u, dtype=float), self.length)
        theta = np.asarray(self.theta_of_u(u), dtype=float)
        for step in range(ARCLENGTH_STEPS + 1):
            F = self.arclength_of_theta(theta) - u
            if (step == ARCLENGTH_STEPS
                    or np.max(np.abs(F)) <= ARCLENGTH_TOL * max(1.0, self.length)):
                break
            theta = theta - F / self.speed(theta)
        return np.mod(theta, 2.0 * np.pi)



class FrozenKernels:
    """The kernels of the plane of a NormSpec as they were when every circle
    evaluation built all its rows: the radial profile jet seeded with arrays
    (|.|^(p-2) of lp held above `guard` for p < 2), the circle jet
    [c, c', c''][:order + 1] as one array, c' as its second row, `norm`,
    `birkhoff`, the tangent-angle tables a build made from them, and the
    supporting-map inversion whose Newton steps read the whole order-2 jet
    and whose bisection takes 42 halvings in 7 rounds of circle evaluations.
    A plane's kernels must give their bits."""

    def __init__(self, spec, guard):
        self.kind, self.p, self.guard = spec.kind, float(spec.p), guard
        self.coef = np.asarray(spec.coefficients if spec.kind == "fourier_radial" else (1.0,),
                               dtype=float)
        self.n = int(spec.table_size)
        self.theta_nodes = np.linspace(0.0, 2.0 * np.pi, self.n + 1)
        d1 = self.circle_jet(self.theta_nodes[:-1], 2)[1]
        self.d1_nodes = np.vstack([d1, d1[:1]])
        self.psi_nodes = unwrap_mod(np.arctan2(self.d1_nodes[:, 1], self.d1_nodes[:, 0]),
                                    2.0 * np.pi)
        self.theta_of_psi = pchip(self.psi_nodes, self.theta_nodes)

    def profile_jet(self, theta, order, cos_sin=None):
        theta = np.asarray(theta, dtype=float)
        if self.kind != "lp":
            out = [np.full_like(theta, self.coef[0])] + [np.zeros_like(theta)
                                                         for _ in range(order)]
            for k, a in enumerate(self.coef[1:], start=1):
                w = 2.0 * k
                cos = np.cos(w * theta)
                out[0] = out[0] + a * cos
                if order >= 1:
                    out[1] = out[1] - a * w * np.sin(w * theta)
                if order >= 2:
                    out[2] = out[2] - a * w * w * cos
            return out
        pw = np.power
        p = self.p
        c, s = (np.cos(theta), np.sin(theta)) if cos_sin is None else cos_sin
        ac, asn = np.abs(c), np.abs(s)
        cp, sp = pw(ac, p), pw(asn, p)
        g = cp + sp
        e = -1.0 / p
        out = [pw(g, e)]
        if order >= 1:
            g1 = p * (-s * np.sign(c) * pw(ac, p - 1.0) + c * np.sign(s) * pw(asn, p - 1.0))
            ge1 = pw(g, e - 1.0)
            out.append(e * ge1 * g1)
        if order >= 2:
            if p < 2.0:
                ac = np.maximum(ac, self.guard)
                asn = np.maximum(asn, self.guard)
            g2 = p * (-cp - sp + (p - 1.0) * (s * s * pw(ac, p - 2.0) + c * c * pw(asn, p - 2.0)))
            out.append(e * (e - 1.0) * pw(g, e - 2.0) * (g1 * g1) + e * ge1 * g2)
        return out

    def circle_jet(self, theta, order):
        theta = np.asarray(theta, dtype=float)
        c, s = np.cos(theta), np.sin(theta)
        r = self.profile_jet(theta, order, (c, s))
        out = np.empty((order + 1,) + theta.shape + (2,))
        out[0, ..., 0] = r[0] * c
        out[0, ..., 1] = r[0] * s
        if order >= 1:
            out[1, ..., 0] = r[1] * c - r[0] * s
            out[1, ..., 1] = r[1] * s + r[0] * c
        if order >= 2:
            curl = r[2] - r[0]
            out[2, ..., 0] = curl * c - 2.0 * r[1] * s
            out[2, ..., 1] = curl * s + 2.0 * r[1] * c
        return out

    def circle_d1(self, theta):
        return self.circle_jet(theta, 1)[1]

    def norm(self, v):
        v = np.asarray(v, dtype=float)
        mag = np.hypot(v[..., 0], v[..., 1])
        theta = np.arctan2(v[..., 1], v[..., 0])
        return mag / self.profile_jet(theta, 0)[0]

    def birkhoff(self, v):
        v = np.asarray(v, dtype=float)
        w = self.circle_d1(np.arctan2(v[..., 1], v[..., 0]))
        return w / self.norm(w)[..., None]

    @staticmethod
    def swept_angle(w0, w):
        return np.arctan2(symplectic(w0, w), w0[..., 0] * w[..., 0] + w0[..., 1] * w[..., 1])

    @staticmethod
    def direction_gap(w, chi):
        return (np.arctan2(w[..., 1], w[..., 0]) - chi + np.pi) % (2.0 * np.pi) - np.pi

    @staticmethod
    def turning_rate(d1, d2):
        return symplectic(d1, d2) / (d1[..., 0] ** 2 + d1[..., 1] ** 2)

    def tangent_theta(self, chi, order=2):
        """(theta, jet) for finite directions chi, jet of shape
        (order + 1,) + chi.shape + (2,)."""
        chi = np.asarray(chi, dtype=float)
        shape = chi.shape
        chi = np.atleast_1d(chi).ravel()
        theta = np.empty_like(chi)
        for s in range(0, chi.size, TANGENT_BLOCK):
            theta[s:s + TANGENT_BLOCK] = self.newton_block(chi[s:s + TANGENT_BLOCK])
        theta = np.mod(theta, 2.0 * np.pi)
        jet = self.circle_jet(theta, order)
        miss = np.abs(self.direction_gap(jet[1], chi)) > 1e-9
        if np.any(miss):
            t, c = theta[miss], chi[miss]
            below = self.direction_gap(self.circle_d1(t - THETA_RESOLUTION), c)
            above = self.direction_gap(self.circle_d1(t + THETA_RESOLUTION), c)
            if not np.all((below <= 0.0) & (above >= 0.0)):
                raise NoConvergence("supporting-direction inversion did not converge")
        return theta.reshape(shape), jet.reshape((order + 1,) + shape + (2,))

    def newton_block(self, chi):
        psi_nodes, theta_nodes = self.psi_nodes, self.theta_nodes
        psi0 = psi_nodes[0]
        lift = psi0 + np.mod(chi - psi0, 2.0 * np.pi)
        j = np.clip(np.searchsorted(psi_nodes, lift) - 1, 0, self.n - 1)
        cell_lo, cell_hi = theta_nodes[j], theta_nodes[j + 1]
        target = lift - psi_nodes[j]
        w_lo = self.d1_nodes[j]
        theta = np.clip(self.theta_of_psi(lift), cell_lo, cell_hi)
        converged = np.zeros(chi.shape, dtype=bool)
        live = np.arange(chi.size)
        th, lo, hi, w0, aim = theta, cell_lo, cell_hi, w_lo, target
        for _ in range(NEWTON_STEPS):
            _, w, wp = self.circle_jet(th, 2)
            rate = self.turning_rate(w, wp)
            excess = self.swept_angle(w0, w) - aim
            hi = np.where(excess > 0.0, th, hi)
            lo = np.where(excess > 0.0, lo, th)
            steep = rate > TURNING_RATE_MIN
            step = excess / np.where(steep, rate, 1.0)
            newton = th - step
            safe = steep & (newton >= lo) & (newton <= hi)
            th = np.where(safe, newton, 0.5 * (lo + hi))
            theta[live] = th
            done = safe & (np.abs(step) <= NEWTON_TOL)
            converged[live[done]] = True
            keep = steep & ~done
            if not np.any(keep):
                break
            live, th, lo, hi, w0, aim = (a[keep] for a in (live, th, lo, hi, w0, aim))
        flat = ~converged
        if np.any(flat):
            theta[flat] = self.bisect(cell_lo[flat], cell_hi[flat], w_lo[flat], target[flat])
        return theta

    def bisect(self, lo, hi, w_lo, target):
        cells = 1 << BISECT_LEVELS
        rows = np.arange(lo.size)
        for _ in range(BISECT_ROUNDS):
            ends = np.empty((lo.size, cells + 1))
            ends[:, 0], ends[:, cells] = lo, hi
            for level in range(BISECT_LEVELS):
                half = cells >> (level + 1)
                ends[:, half::2 * half] = 0.5 * (ends[:, :-half:2 * half]
                                                 + ends[:, 2 * half::2 * half])
            w = self.circle_d1(ends[:, 1:cells])
            high = self.swept_angle(w_lo[:, None], w) > target[:, None]
            at = np.zeros(lo.size, dtype=int)
            for level in range(BISECT_LEVELS):
                mid = at + (cells >> (level + 1))
                at = np.where(high[rows, mid - 1], at, mid)
            lo, hi = ends[rows, at], ends[rows, at + 1]
        return 0.5 * (lo + hi)


class FrozenArclength(EagerArclength):
    """`EagerArclength` of a plane with the speed ||c'|| of its frozen
    kernels `FrozenKernels(plane.spec, guard)`."""

    def __init__(self, plane, guard):
        self.kernels = FrozenKernels(plane.spec, guard)
        super().__init__(plane)

    def speed(self, theta):
        return self.kernels.norm(self.kernels.circle_d1(theta))


def differentiate_every_point(f, t, orders, h, domain=None, closed=False):
    """The tuple of 7-point finite differences of the given orders at t that
    `numerics.differentiate(f, t, orders, h, domain, closed)` returns, with f
    called on every stencil point of a block, repeated parameters included:
    the same windows, blocks and stencil reduction (an odd block reduced with
    a copy of its last row appended), so its results must equal the
    package's bit for bit."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    t_flat = t_arr.ravel()
    base = np.arange(-3, 4, dtype=float)
    if closed or domain is None:
        shifts = np.zeros(t_flat.shape, dtype=int)
    else:
        t0, t1 = domain
        lo = np.ceil(np.maximum(0.0, (t0 - (t_flat - 3.0 * h)) / h - 1e-9)).astype(int)
        hi = np.ceil(np.maximum(0.0, ((t_flat + 3.0 * h) - t1) / h - 1e-9)).astype(int)
        shifts = lo - hi
    outs = [None] * len(orders)
    for s in np.unique(shifts):
        offs = (base + s) * h
        idx = np.nonzero(shifts == s)[0]
        for rows in np.split(idx, range(DIFF_BLOCK, idx.size, DIFF_BLOCK)):
            ts = t_flat[rows][:, None] + offs[None, :]
            vals = np.asarray(f(ts.ravel()), dtype=float)
            vals = vals.reshape(ts.shape + vals.shape[1:])
            even = np.concatenate([vals, vals[-1:]]) if rows.size % 2 else vals
            for k, order in enumerate(orders):
                if order:
                    acc = np.tensordot(fd_weights(offs, order), np.moveaxis(even, 1, 0),
                                       axes=(0, 0))[:rows.size]
                elif abs(s) <= 3:
                    acc = vals[:, 3 - s]
                else:
                    acc = np.asarray(f(t_flat[rows]), dtype=float)
                if outs[k] is None:
                    outs[k] = np.zeros(t_flat.shape + acc.shape[1:])
                outs[k][rows] = acc
    return tuple(out.reshape(t_arr.shape + out.shape[1:]) for out in outs)


def scalar_golden_minimize(f, a, b):
    """The golden-section search of one bracket, one scalar call of f per
    step: the loop `numerics.golden_minimize` runs for every bracket in
    lock-step, so each of its brackets must end with these bits."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(GOLDEN_ITERS):
        if b - a < GOLDEN_TOL * (1.0 + abs(a) + abs(b)):
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    xm = 0.5 * (a + b)
    return xm, f(xm)


def lp_radial_jet(p, theta, order, guard):
    """[r, r', r''][:order + 1] of the lp circle r = (|cos|^p + |sin|^p)^(-1/p),
    each order by its own power of g = |cos|^p + |sin|^p, with |.|^(p-2)
    held above `guard` for p < 2: the package's lp jet must give these bits."""
    c, s = np.cos(theta), np.sin(theta)
    ac, asn = np.abs(c), np.abs(s)
    cp, sp = ac ** p, asn ** p
    g = cp + sp
    out = [g ** (-1.0 / p)]
    if order >= 1:
        g1 = p * (-s * np.sign(c) * ac ** (p - 1.0) + c * np.sign(s) * asn ** (p - 1.0))
        out.append((-1.0 / p) * g ** (-1.0 / p - 1.0) * g1)
    if order >= 2:
        if p < 2.0:
            ac, asn = np.maximum(ac, guard), np.maximum(asn, guard)
        g2 = p * (-cp - sp + (p - 1.0) * (s * s * ac ** (p - 2.0) + c * c * asn ** (p - 2.0)))
        e = -1.0 / p
        out.append(e * (e - 1.0) * g ** (e - 2.0) * g1 ** 2 + e * g ** (e - 1.0) * g2)
    return out


def evolute_as_parallel_singularities(L) -> np.ndarray:
    """Singular points swept by the parallel family; should trace the evolute.

    Offsets cover the range of -alpha/kappa expanded by 1%. Crossings of
    alpha + d kappa are located by inverse-linear interpolation on the grid,
    which is ample for the 1e-3 sweep tolerance.
    """
    cp = curvature_pair(L)
    if np.min(np.abs(cp.kappa)) <= REL_ZERO * cp.kappa_scale:
        raise KappaVanishes("the parallel sweep needs a nonvanishing kappa")
    ratio = -cp.alpha / cp.kappa
    lo, hi = float(np.min(ratio)), float(np.max(ratio))
    pad = 0.005 * max(hi - lo, 1e-12)
    ds = np.linspace(lo - pad, hi + pad, N_OFFSETS)

    alpha, kappa, eta_pts = cp.alpha, cp.kappa, cp.normals
    gamma_pts = L.gamma.point(cp.ts)
    points = []
    for d in ds:
        f = alpha + d * kappa
        idx = np.nonzero(f[:-1] * f[1:] < 0.0)[0]
        if L.closed and f[-1] * f[0] < 0.0:
            idx = np.append(idx, len(f) - 1)
        for i in idx:
            j = (i + 1) % len(f)
            frac = f[i] / (f[i] - f[j])
            g = gamma_pts[i] + frac * (gamma_pts[j] - gamma_pts[i])
            e = eta_pts[i] + frac * (eta_pts[j] - eta_pts[i])
            points.append(g + d * e)
    return np.asarray(points)


def evolute_curvature(base, pair):
    """(rho(nu) > RHO_MASK, (alpha/kappa)', kappa/rho(nu)) on the base grid:
    the curvature pair the paper predicts for the evolute `pair` of `base`,
    whose normal is nu; the last NaN where rho is degenerate."""
    rho_vals = pair.plane.rho(pair.normals)
    pred_kappa = np.where(rho_vals > RHO_FLOOR, base.kappa / rho_vals, np.nan)
    return rho_vals > RHO_MASK, base.ratio_rate_at(base.ts), pred_kappa


def normal_envelope_residual(L, t, v):
    """(F, dF/dt) for the normal-line family F(t, v) = [gamma(t) - v, eta(t)].

    Both vanish exactly when v is the center of curvature at t.
    """
    v = np.asarray(v, dtype=float)
    g = L.gamma.point(t)
    e = L.eta(t)
    F = symplectic(g - v, e)
    dF = symplectic(L.gamma.derivative(t, 1), e) + symplectic(g - v, L.eta.derivative(t, 1))
    return F, dF


def pedal_envelope_residual(L, p, t, v, ped, allow_limit=False):
    """(F, dF/dt) for the pedal line family F = [gamma_p - v, b(gamma_p - p)]
    of the pedal `ped` of L from p.

    Both vanish exactly when v = gamma(t), reconstructing the base curve
    from its pedal. Raises DegenerateLine when gamma_p(t) hits p, unless a
    one-sided limit is allowed.
    """
    plane = L.plane
    p = np.asarray(p, dtype=float)
    g = ped.gamma_p.point(t)
    w = g - p
    scale = max(float(np.max(plane.norm(ped.gamma_p.point(ped.gamma_p.grid()) - p))), 1.0)
    if float(plane.norm(w)) < 1e-9 * scale:
        if not allow_limit:
            raise DegenerateLine("pedal point coincides with the base point")
        t = t + 1e-5 * ped.gamma_p.span
        g = ped.gamma_p.point(t)
        w = g - p
    dg = ped.gamma_p.derivative(t, 1)
    b, db = plane.unit_tangent_with_derivative(w, dg)
    v = np.asarray(v, dtype=float)
    F = symplectic(g - v, b)
    dF = symplectic(dg, b) + symplectic(g - v, db)
    return float(F), float(dF)


def osculating_data(L, t) -> dict:
    """Center/radius of the best-fitting circle plus distance-squared checks.

    D(s) = ||gamma(s) - center||^2 in the plane's norm, differentiated in
    the arc-length variable; both derivatives vanish at the true center.
    """
    cp = curvature_pair(L)
    a = float(cp.alpha_at(t))
    k = float(cp.kappa_at(t))
    if abs(a) <= REL_ZERO * cp.alpha_scale:
        raise SingularPoint(f"t = {t:.6g} is a singular parameter")
    if abs(k) <= REL_ZERO * cp.kappa_scale:
        raise KappaVanishes(f"kappa vanishes at t = {t:.6g}")
    center = L.gamma.point(t) - (a / k) * L.eta(t)
    d1, d2 = distance_squared_rates(L, t, center)
    return {"center": center, "radius": abs(a / k), "D1": d1, "D2": d2}


def distance_squared_rates(L, t, point):
    """First and second arc-length derivatives of ||gamma - point||^2 at t."""
    plane, gamma = L.plane, L.gamma
    point = np.asarray(point, dtype=float)

    def dist2(s):
        return plane.norm(gamma.point(s) - point) ** 2

    def speed(s):
        return plane.norm(gamma.derivative(s, 1))

    def rate(f, order):
        return float(L.rate_at(f, t, order))

    v = float(speed(t))
    D1 = rate(dist2, 1) / v
    D2 = (rate(dist2, 2) - D1 * rate(speed, 1)) / (v * v)
    return D1, D2


def vertex_residual(L, t) -> float:
    """Second t-derivative of the normal-line function at the evolute point.

    Vanishes exactly at vertices; cross-validates the vertex detector.
    """
    cp = curvature_pair(L)
    k = float(cp.kappa_at(t))
    if abs(k) <= REL_ZERO * cp.kappa_scale:
        raise KappaVanishes(f"kappa vanishes at t = {t:.6g}")
    a = float(cp.alpha_at(t))
    g2 = L.gamma.derivative(t, 2)
    e = L.eta(t)
    e2 = L.eta.derivative(t, 2)
    return float(symplectic(g2, e) + (a / k) * symplectic(e, e2))


def point_segment_dist2(points, seg_a, seg_b):
    """Squared distances from each point to the nearest of the given segments."""
    d = seg_b - seg_a                      # (m, 2)
    l2 = np.maximum(np.einsum("ij,ij->i", d, d), 1e-300)
    best = np.full(len(points), np.inf)
    chunk = max(1, 262144 // max(len(d), 1))
    for s in range(0, len(points), chunk):
        p = points[s:s + chunk]
        ap = p[:, None, :] - seg_a[None, :, :]          # (c, m, 2)
        tt = np.clip(np.einsum("cmj,mj->cm", ap, d) / l2, 0.0, 1.0)
        diff = ap - tt[..., None] * d[None, :, :]
        best[s:s + chunk] = np.min(np.einsum("cmj,cmj->cm", diff, diff), axis=1)
    return best


def hausdorff_polyline(pts_a, pts_b, closed_a=False, closed_b=False):
    """Symmetric Hausdorff distance between two sampled curves.

    Point-to-polyline distances are used on both sides so the result measures
    geometric deviation rather than sampling phase.
    """
    pts_a = np.asarray(pts_a, dtype=float)
    pts_b = np.asarray(pts_b, dtype=float)

    def segs(p, closed):
        if closed:
            return p, np.roll(p, -1, axis=0)
        return p[:-1], p[1:]

    a0, a1 = segs(pts_a, closed_a)
    b0, b1 = segs(pts_b, closed_b)
    d_ab = np.sqrt(np.max(point_segment_dist2(pts_a, b0, b1)))
    d_ba = np.sqrt(np.max(point_segment_dist2(pts_b, a0, a1)))
    return max(d_ab, d_ba)


def lateral_tangent_sign(L, t0, offset=1e-3):
    """Independent cusp classification from [gamma'(t0-offset), gamma'(t0+offset)];
    negative means zig."""
    w1 = L.gamma.derivative(t0 - offset, 1)
    w2 = L.gamma.derivative(t0 + offset, 1)
    return "zig" if float(symplectic(w1, w2)) < 0.0 else "zag"


def cyclic_word_length(letters):
    """Length of a cyclic word once equal neighbours, the last letter next to
    the first, are cancelled one pair at a time until none are left."""
    word = list(letters)
    while len(word) >= 2:
        n = len(word)
        pair = next((i for i in range(n) if word[i] == word[(i + 1) % n]), None)
        if pair is None:
            break
        del word[max(pair, (pair + 1) % n)], word[min(pair, (pair + 1) % n)]
    return len(word)


def to_text(tree):
    """Fully parenthesized rendering of an expression tree;
    tree_parse_expression(to_text(tree)) == tree."""
    kind = tree[0]
    if kind == "num":
        return repr(tree[1])
    if kind == "var":
        return "t"
    if kind == "const":
        return tree[1]
    if kind == "neg":
        return f"-({to_text(tree[1])})"
    if kind == "call":
        return f"{tree[1]}({to_text(tree[2])})"
    _, op, a, b = tree
    return f"({to_text(a)}){op}({to_text(b)})"


def postorder(tree):
    """The program of a tree: its steps in post-order, `pi` and `e` folded to
    their numbers; parse_expression(to_text(tree)) == postorder(tree)."""
    kind = tree[0]
    if kind == "const":
        return [("num", CONSTANTS[tree[1]])]
    if kind == "neg":
        return postorder(tree[1]) + [("neg",)]
    if kind == "call":
        return postorder(tree[2]) + [("call", tree[1])]
    if kind == "bin":
        return postorder(tree[2]) + postorder(tree[3]) + [("bin", tree[1])]
    return [tree]


# The expression front end as it was when it parsed to tuple trees and
# evaluated them recursively, kept verbatim (names prefixed with `tree_`) as
# the reference every program must match in bits, shapes, types and errors.

_TREE_PRECEDENCE = {"+": 0, "-": 0, "*": 1, "/": 1}
_TREE_TOKEN = re.compile(r"\s*(?:([-+*/^()])|([\d.]+(?:[eE][-+]?\d+)?)|([^\W\d]\w*)|(.)|\Z)")


def _tree_tokens(text):
    toks = []
    for m in _TREE_TOKEN.finditer(text):
        if m.lastindex is None:
            toks.append(("eof", None, m.end()))
            return toks[::-1]
        op, number, name, other = m.groups()
        at = m.start(m.lastindex)
        if op:
            toks.append((op, op, at))
        elif name:
            toks.append(("name", name, at))
        elif other:
            raise ParseError(f"unexpected character {other!r} at offset {at}", at, ("token",))
        else:
            try:
                value = float(number)
            except ValueError:
                raise ParseError(f"bad number at offset {at}", at, ("number",))
            if not np.isfinite(value):
                raise ParseError(f"number too large at offset {at}", at, ("number",))
            toks.append(("num", value, at))


def _tree_expect(toks, kind):
    tok = toks.pop()
    if tok[0] != kind:
        raise ParseError(f"expected {kind!r} at offset {tok[2]}, found {tok[0]!r}", tok[2], (kind,))


def tree_parse_expression(text):
    """Parse to a tuple tree; raises ParseError with offset and expectations."""
    toks = _tree_tokens(text)
    try:
        tree = _tree_parse_expr(toks)
    except RecursionError:
        raise InputError("expression is too deep to parse") from None
    tok = toks[-1]
    if tok[0] != "eof":
        raise ParseError(f"trailing input at offset {tok[2]}", tok[2], ("eof",))
    return tree


def _tree_parse_expr(toks, level=0):
    node = _tree_parse_factor(toks)
    while _TREE_PRECEDENCE.get(toks[-1][0], -1) >= level:
        op = toks.pop()[0]
        node = ("bin", op, node, _tree_parse_expr(toks, _TREE_PRECEDENCE[op] + 1))
    return node


def _tree_parse_factor(toks):
    base = _tree_parse_unary(toks)
    if toks[-1][0] == "^":
        toks.pop()
        return ("bin", "^", base, _tree_parse_factor(toks))
    return base


def _tree_parse_unary(toks):
    if toks[-1][0] == "-":
        toks.pop()
        return ("neg", _tree_parse_unary(toks))
    return _tree_parse_primary(toks)


def _tree_parse_primary(toks):
    kind, value, at = toks.pop()
    if kind == "num":
        return ("num", value)
    if kind == "name":
        if value == "t":
            return ("var",)
        if value in CONSTANTS:
            return ("const", value)
        if value not in FUNCTIONS:
            raise ParseError(f"unknown name {value!r} at offset {at}", at,
                             ("t", "pi", "e") + tuple(FUNCTIONS))
        _tree_expect(toks, "(")
    elif kind != "(":
        raise ParseError(f"expected a value at offset {at}, found {kind!r}", at,
                         ("number", "t", "(", "function"))
    node = _tree_parse_expr(toks)
    _tree_expect(toks, ")")
    return node if kind == "(" else ("call", value, node)


def tree_evaluate(tree, t):
    """Evaluate a tuple tree at t of any shape, on the flat array, one
    recursive call per node."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        try:
            return _tree_eval(tree, t.ravel()).reshape(t.shape)[()]
        except FloatingPointError as exc:
            raise ExpressionDomainError(f"expression domain error: {exc}") from exc
        except RecursionError:
            raise InputError("expression is too deep to evaluate") from None


def _tree_eval(tree, t):
    kind = tree[0]
    if kind == "var":
        return t
    if kind in ("num", "const"):
        return np.full_like(t, tree[1] if kind == "num" else CONSTANTS[tree[1]])
    if kind == "neg":
        return -_tree_eval(tree[1], t)
    if kind == "call":
        return FUNCTIONS[tree[1]](_tree_eval(tree[2], t))
    return OPERATORS[tree[1]](_tree_eval(tree[2], t), _tree_eval(tree[3], t))
