"""Smooth, strictly convex normed planes and their orthogonality machinery.

A plane is represented by a positive radial profile r(theta): the unit circle
is c(theta) = r(theta) (cos theta, sin theta). All derived objects (arc
length, supporting directions, anti-norm, distortion) are built from cached
tables over a uniform theta grid plus local Newton polishing, so point
queries are deterministic and accurate to ~1e-12 in theta. A plane build
makes the tangent-angle tables; the arc-length table is built on its first
read, since only the arc-length parametrization of the circle needs it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadParameter,
    ConvexityViolation,
    NoConvergence,
    NotUnit,
    PositivityViolation,
    ZeroVector,
)
from .numerics import TWO_PI, gauss5_segments, pchip, unwrap_mod

UNIT_TOL = 1e-9

# tangent_theta: Newton steps before the bisection fallback, the step size
# accepted as converged, the turning rate below which a direction counts as a
# flat point, the block size that bounds the memory of large batches, and the
# theta half-width that must bracket the root where psi outruns float theta
NEWTON_STEPS = 4
NEWTON_TOL = 1e-10
TURNING_RATE_MIN = 1e-2
# nested stencils send batches above 8192 directions: unblocked, the
# `derived` bench's peak RSS rose from 47.6-48.0 to 55.1-56.9 MB
TANGENT_BLOCK = 8192
THETA_RESOLUTION = 1e-15
# the bisection fallback's 42 halvings: rounds of halvings, each round
# evaluating the circle once at the ends of all its cells
BISECT_ROUNDS = 7
BISECT_LEVELS = 6

# theta_of_arclength: most Newton steps, and the arc-length residual relative
# to max(1, length) at which it stops early
ARCLENGTH_STEPS = 4
ARCLENGTH_TOL = 1e-13


def _parts(v):
    """The parts (x, y) of vectors of shape (..., 2)."""
    return v[..., 0], v[..., 1]


def _cross(a, b):
    """[a, b] of vectors given by their parts (x, y)."""
    return a[0] * b[1] - a[1] * b[0]


def symplectic(a, b):
    """Fixed area form [a, b] = a_x b_y - a_y b_x."""
    return _cross(_parts(np.asarray(a, dtype=float)), _parts(np.asarray(b, dtype=float)))


def _swept_angle(w0, w):
    """Angle from w0 to w, given by their parts, for directions less than pi
    apart (every psi table cell sweeps less than pi/2)."""
    return np.arctan2(_cross(w0, w), w0[0] * w[0] + w0[1] * w[1])


def _direction_gap(w, chi):
    """Angle of w minus chi, wrapped into [-pi, pi)."""
    return (np.arctan2(w[..., 1], w[..., 0]) - chi + np.pi) % TWO_PI - np.pi


def _angle(v, message):
    """arg v, refusing a zero vector with ZeroVector(message)."""
    x, y = _parts(v)
    if np.any((x == 0.0) & (y == 0.0)):
        raise ZeroVector(message)
    return np.arctan2(y, x)


def _circle_row(k, cos, sin, r):
    """The parts (x, y) of [c, c', c''][k] for c = r(theta) (cos theta,
    sin theta), from cos, sin and the profile jet r = [r, r', r'']."""
    if k == 0:
        return r[0] * cos, r[0] * sin
    if k == 1:
        return r[1] * cos - r[0] * sin, r[1] * sin + r[0] * cos
    curl = r[2] - r[0]
    return curl * cos - 2.0 * r[1] * sin, curl * sin + 2.0 * r[1] * cos


def _turning_rate(d1, d2):
    """[w, w']/|w|^2, the rate of the angle of a field w = d1 with rate d2,
    both given by their parts; psi' for w = c', the turning rate of the
    tangent along the circle."""
    return _cross(d1, d2) / (d1[0] ** 2 + d1[1] ** 2)


@dataclass(frozen=True)
class NormSpec:
    """Recipe for a norm: 'euclidean', 'lp' (needs p > 1), or 'fourier_radial'
    with r(theta) = coefficients[0] + sum_k coefficients[k] cos(2 k theta)."""

    kind: str
    p: float = 2.0
    coefficients: tuple = ()
    table_size: int = 4096


class _RadialProfile:
    """r, r', r'' for the supported norm families."""

    # theta guard band for the |.|^(p-2) factor when 1 < p < 2 (axis cusp in r'')
    GUARD = 1e-3

    def __init__(self, spec: NormSpec):
        kind = spec.kind
        if kind not in ("euclidean", "lp", "fourier_radial"):
            raise BadParameter(f"unknown norm kind {kind!r}")
        self.kind = kind
        if kind == "lp":
            p = float(spec.p)
            if not np.isfinite(p) or p <= 1.0:
                raise BadParameter(
                    "lp norm requires p > 1: the unit ball is not smooth and "
                    "strictly convex otherwise")
            self.p = p
        else:   # the euclidean profile is the fourier profile r = 1
            coefficients = spec.coefficients if kind == "fourier_radial" else (1.0,)
            if not coefficients:
                raise BadParameter("fourier_radial needs at least one coefficient")
            self.coef = np.asarray(coefficients, dtype=float)

    def jet(self, theta, order, cos_sin=None):
        """[r, r', r''][:order + 1] at theta; the orders share their work.
        `cos_sin`, when given, is (cos theta, sin theta), which lp reads
        instead of evaluating them again. A fourier order with no k >= 1
        term (all of euclidean) is a scalar, which broadcasts."""
        theta = np.asarray(theta, dtype=float)
        if self.kind != "lp":
            # the sums start from scalars: the k = 0 term, the constant
            # coef[0] (no cos(0 theta) to evaluate), and 0.0 for the rates,
            # which subtract their terms (0.0 - x, not -x, keeps the sign of
            # a zero term)
            out = [self.coef[0]] + [0.0] * order
            for k, a in enumerate(self.coef[1:], start=1):
                w = 2.0 * k
                wt = w * theta
                cos = np.cos(wt)
                out[0] = out[0] + a * cos
                if order >= 1:
                    out[1] = out[1] - a * w * np.sin(wt)
                if order >= 2:
                    out[2] = out[2] - a * w * w * cos
            return out
        # np.power, not **: a numpy scalar's ** calls C pow, an array numpy's
        # own power loop, and the two differ in the last bits
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
                # keep |.|^(p-2) bounded inside the guard band near axis points
                ac = np.maximum(ac, self.GUARD)
                asn = np.maximum(asn, self.GUARD)
            g2 = p * (-cp - sp + (p - 1.0) * (s * s * pw(ac, p - 2.0) + c * c * pw(asn, p - 2.0)))
            out.append(e * (e - 1.0) * pw(g, e - 2.0) * (g1 * g1) + e * ge1 * g2)
        return out


class NormedPlane:
    """Immutable geometry of one smooth strictly convex norm.

    Built by :func:`build_plane`; all methods are pure reads and accept
    vectors of shape (..., 2) (scalar points included).
    """

    def __init__(self, spec: NormSpec):
        self.spec = spec
        self._profile = _RadialProfile(spec)
        n = int(spec.table_size)
        if n < 64:
            raise BadParameter("table_size must be at least 64")
        self._n = n
        self._dtheta = TWO_PI / n
        self._theta_nodes = np.linspace(0.0, TWO_PI, n + 1)
        self._arclength = None
        self._build_tables()

    # -- radial boundary -------------------------------------------------

    def circle_jet(self, theta, orders):
        """The rows [c, c', c''][k] at theta for each k of the tuple `orders`,
        in that order, as one array of shape (len(orders),) + theta.shape +
        (2,): one profile jet of the highest order asked and one cos/sin,
        and no row that is not asked for."""
        theta = np.asarray(theta, dtype=float)
        basis = self._circle_basis(theta, max(orders))
        # made after the profile jet's temporaries are freed; each row's
        # parts are freed before the next row is built
        out = np.empty((len(orders),) + theta.shape + (2,))
        for i, k in enumerate(orders):
            out[i, ..., 0], out[i, ..., 1] = _circle_row(k, *basis)
        return out

    def _circle_basis(self, theta, order):
        """(cos theta, sin theta, [r, r', r''][:order + 1]), from which
        `_circle_row` builds the rows of the circle jet up to `order`."""
        cos, sin = np.cos(theta), np.sin(theta)
        return cos, sin, self._profile.jet(theta, order, (cos, sin))

    def circle_point(self, theta):
        return self.circle_jet(theta, (0,))[0]

    def circle_d1(self, theta):
        return self.circle_jet(theta, (1,))[0]

    def circle_d2(self, theta):
        return self.circle_jet(theta, (2,))[0]

    # -- build ------------------------------------------------------------

    def _build_tables(self):
        th = self._theta_nodes
        fine = np.linspace(0.0, TWO_PI, 4 * self._n, endpoint=False)
        with np.errstate(all="ignore"):     # a profile that overflows is refused here
            r, r1, r2 = self._profile.jet(fine, 2)
        if not np.all(np.isfinite(r) & np.isfinite(r1) & np.isfinite(r2)):
            raise BadParameter("radial profile or its derivatives are not finite")
        if np.min(r) <= 0.0:
            raise PositivityViolation("radial profile must be strictly positive")

        # the seam node theta = 2 pi repeats theta = 0; re-evaluating it would
        # let sign(sin 2 pi) = -1 leak an r' error (lp with p < 2) into psi
        c, d1, d2 = self.circle_jet(th[:-1], (0, 1, 2))
        c, d1 = np.vstack([c, c[:1]]), np.vstack([d1, d1[:1]])

        if np.min(symplectic(c, d1)) <= 1e-9:
            raise ConvexityViolation("[c, c'] must stay positive on the unit circle")
        # lp circles with odd p have isolated axis points of zero turning, so
        # strictness is enforced through monotonicity of psi, not pointwise;
        # [c', c''] = r^2 + 2 r'^2 - r r''
        if np.min(r * r + 2.0 * r1 * r1 - r * r2) < -1e-9:
            raise ConvexityViolation("boundary turns clockwise somewhere: not convex")

        half = self._n // 2
        sym = np.max(np.abs(c[:half] + c[half:2 * half]))
        if sym > 1e-10 * np.max(np.abs(c)):
            raise BadParameter("radial profile is not centrally symmetric")

        psi = unwrap_mod(np.arctan2(d1[:, 1], d1[:, 0]), TWO_PI)
        if np.any(np.diff(psi) <= 0.0):
            raise ConvexityViolation("tangent angle is not strictly increasing")
        if np.max(np.diff(psi)) > 0.5 * np.pi:
            raise BadParameter("table_size too small to resolve this unit circle")
        if abs((psi[-1] - psi[0]) - TWO_PI) > 1e-8:
            raise ConvexityViolation("tangent angle winding differs from one turn")
        self._psi_nodes = psi
        self._d1_nodes = d1
        self._theta_of_psi = pchip(psi, th)

        norm_on_circle = self.norm(c)
        if np.max(np.abs(norm_on_circle - 1.0)) > 1e-12:
            raise NoConvergence("norm/boundary self-consistency check failed")

        rho = self._rho_of(d1[:-1], d2)
        if np.max(np.abs(rho[:half] - rho[half:])) > 1e-6 * max(1.0, np.max(rho)):
            raise NoConvergence("distortion table is not centrally symmetric")

    def _arclength_table(self):
        """(u on the theta nodes, the length, the monotone-cubic inverse of u),
        built on the first read and published as one tuple."""
        table = self._arclength
        if table is None:
            th = self._theta_nodes
            u = np.zeros(self._n + 1)
            u[1:] = np.cumsum(gauss5_segments(lambda t: self.norm(self.circle_d1(t)),
                                              th[:-1], th[1:]))
            if np.any(np.diff(u) <= 0.0):
                raise ConvexityViolation("arc length is not strictly increasing")
            table = self._arclength = (u, float(u[-1]), pchip(u, th))
        return table

    @property
    def _u_nodes(self):
        return self._arclength_table()[0]

    @property
    def length(self):
        """Arc length of the unit circle."""
        return self._arclength_table()[1]

    # -- basic queries ----------------------------------------------------

    def norm(self, v):
        """Norm of v: |v|_2 / r(arg v)."""
        v = np.asarray(v, dtype=float)
        mag = np.hypot(v[..., 0], v[..., 1])
        theta = np.arctan2(v[..., 1], v[..., 0])
        return mag / self._profile.jet(theta, 0)[0]

    def birkhoff(self, v):
        """The unit vector b(v) supporting the circle through v, [v, b(v)] > 0."""
        v = np.asarray(v, dtype=float)
        w = self.circle_d1(_angle(v, "birkhoff map needs a nonzero vector"))
        return w / self.norm(w)[..., None]

    def arclength_of_theta(self, theta):
        """u(theta): boundary arc length from c(0) to c(theta)."""
        theta = np.asarray(theta, dtype=float)
        with np.errstate(invalid="ignore"):     # NaN and +/-inf give NaN
            th = np.mod(theta, TWO_PI)
            j = np.clip((th / self._dtheta).astype(int), 0, self._n - 1)
        base = self._u_nodes[j]
        local = gauss5_segments(lambda t: self.norm(self.circle_d1(t)),
                                self._theta_nodes[j], th)
        return base + local

    def theta_of_arclength(self, u):
        """Inverse of u(theta), exact to ~1e-12 via monotone-cubic init + Newton.

        Newton stops once max |u(theta) - u| <= ARCLENGTH_TOL max(1, length),
        after at most ARCLENGTH_STEPS steps; the residual of the theta
        returned is the one the convergence check reads, so a regular norm
        costs two arc-length passes. A NaN or infinite u gets NaN and takes
        no part in the maximum."""
        _, length, theta_of_u = self._arclength_table()
        with np.errstate(invalid="ignore"):     # NaN and +/-inf give NaN
            u = np.mod(np.asarray(u, dtype=float), length)
        theta = np.asarray(theta_of_u(u), dtype=float)
        scale = max(1.0, length)
        for step in range(ARCLENGTH_STEPS + 1):
            F = self.arclength_of_theta(theta) - u
            # fmax: a NaN residual (NaN or infinite u) moves no other u's
            # bits; initial: an empty batch has converged
            worst = np.fmax.reduce(np.abs(F), axis=None, initial=0.0)
            if step == ARCLENGTH_STEPS or worst <= ARCLENGTH_TOL * scale:
                break
            theta = theta - F / self.norm(self.circle_d1(theta))
        if worst > 1e-9 * scale:
            raise NoConvergence("arc-length inversion did not converge")
        return np.mod(theta, TWO_PI)

    def unit_circle_point(self, u):
        """Arc-length parametrization of the unit circle."""
        return self.circle_point(self.theta_of_arclength(u))

    def tangent_theta(self, chi, order=2):
        """theta whose tangent direction has angle chi.

        Each direction is solved inside its psi table cell by Newton on the
        swept angle, seeded from the monotone-cubic inverse table and kept
        inside a shrinking bracket (a step that leaves it is replaced by the
        midpoint). psi is monotone but its rate may vanish at isolated points
        (lp with odd p), where Newton is ill-conditioned: directions whose
        turning rate falls below TURNING_RATE_MIN, or that do not converge
        within NEWTON_STEPS, are solved by bisection on their whole cell.
        Each Newton step evaluates the circle at the directions still live
        only. Large batches are processed in blocks of TANGENT_BLOCK
        directions. Returns (theta, jet): theta in [0, 2 pi), and the circle
        jet [c, c', c''][:order + 1] at it (order 1 or 2), of shape
        (order + 1,) + theta.shape + (2,), so a caller needs no second
        evaluation of the circle; its c' is the one the convergence check
        reads. A NaN or infinite direction gets NaN.
        """
        shape = np.shape(chi)
        chi = np.asarray(chi, dtype=float).ravel()
        if not np.all(np.isfinite(chi)):
            chi = np.where(np.isinf(chi), np.nan, chi)
        theta = np.empty_like(chi)
        for s in range(0, chi.size, TANGENT_BLOCK):
            theta[s:s + TANGENT_BLOCK] = self._tangent_theta_block(
                chi[s:s + TANGENT_BLOCK])
        theta = np.mod(theta, TWO_PI)
        theta[np.isnan(chi)] = np.nan    # no direction, no supporting point
        jet = self.circle_jet(theta, tuple(range(order + 1)))
        miss = np.abs(_direction_gap(jet[1], chi)) > 1e-9
        if np.any(miss):
            # at the axis points of lp with p < 2, psi rises like
            # |theta - theta*|^(p - 1): the float theta nearest the root can
            # leave a psi gap above 1e-9, so accept it only if the gap changes
            # sign within THETA_RESOLUTION of it
            t, c = theta[miss], chi[miss]
            below = _direction_gap(self.circle_d1(t - THETA_RESOLUTION), c)
            above = _direction_gap(self.circle_d1(t + THETA_RESOLUTION), c)
            if not np.all((below <= 0.0) & (above >= 0.0)):
                raise NoConvergence("supporting-direction inversion did not converge")
        return theta.reshape(shape), jet.reshape((order + 1,) + shape + (2,))

    def _tangent_theta_block(self, chi):
        psi = self._psi_nodes
        lift = psi[0] + np.mod(chi - psi[0], TWO_PI)
        # one search of the psi nodes serves the monotone-cubic seed and the
        # psi cell j, psi_j < lift <= psi_(j+1): the seed's interval, less
        # one where lift is the node that starts it (the first cell also
        # takes lift = psi_0)
        seed = self._theta_of_psi
        interval = seed.interval(lift)
        j = np.maximum(interval - (psi[interval] == lift), 0)
        cell_lo = self._theta_nodes[j]
        cell_hi = self._theta_nodes[j + 1]
        target = lift - psi[j]
        w_lo = self._d1_nodes[j]
        theta = np.clip(seed.at(lift, interval), cell_lo, cell_hi)
        converged = np.zeros(chi.shape, dtype=bool)
        # the live directions: their indices, iterates, brackets, targets and
        # the parts of c' at their cells' lower ends
        live = np.arange(chi.size)
        th, lo, hi, aim, w0x, w0y = theta, cell_lo, cell_hi, target, *_parts(w_lo)
        for _ in range(NEWTON_STEPS):
            basis = self._circle_basis(th, 2)
            w, wp = _circle_row(1, *basis), _circle_row(2, *basis)
            rate = _turning_rate(w, wp)
            excess = _swept_angle((w0x, w0y), w) - aim
            above = excess > 0.0
            hi = np.where(above, th, hi)
            lo = np.where(above, lo, th)
            steep = rate > TURNING_RATE_MIN
            step = excess / np.where(steep, rate, 1.0)
            newton = th - step
            safe = steep & (newton >= lo) & (newton <= hi)
            th = np.where(safe, newton, 0.5 * (lo + hi))
            theta[live] = th
            done = safe & (np.abs(step) <= NEWTON_TOL)
            converged[live[done]] = True
            # flat points leave Newton for good: the bisection below takes them
            keep = steep & ~done
            if not np.any(keep):
                break
            live, th, lo, hi, aim, w0x, w0y = (a[keep] for a in (live, th, lo, hi, aim,
                                                                w0x, w0y))
        flat = ~converged
        if np.any(flat):
            theta[flat] = self._bisect_cell(cell_lo[flat], cell_hi[flat],
                                            w_lo[flat], target[flat])
        return theta

    def _bisect_cell(self, lo, hi, w_lo, target):
        """Root of swept angle = target on [lo, hi] by 42 halvings, in
        BISECT_ROUNDS rounds of BISECT_LEVELS. A round splits each bracket
        into 2^BISECT_LEVELS cells, each end the midpoint 0.5 (lo + hi) of
        the bracket it halves, evaluates the circle once at all inner ends
        and walks the halvings down: the midpoints and comparisons of one
        halving at a time, with one circle evaluation per round."""
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
            high = _swept_angle(_parts(w_lo[:, None]), _parts(w)) > target[:, None]
            at = np.zeros(lo.size, dtype=int)
            for level in range(BISECT_LEVELS):
                mid = at + (cells >> (level + 1))
                at = np.where(high[rows, mid - 1], at, mid)
            lo, hi = ends[rows, at], ends[rows, at + 1]
        return 0.5 * (lo + hi)

    def normal_from_tangent(self, w):
        """Unit z whose supporting direction b(z) is positively parallel to w."""
        w = np.asarray(w, dtype=float)
        return self.tangent_theta(_angle(w, "tangent direction must be nonzero"), 1)[1][0]

    def normal_from_tangent_with_derivative(self, w, dw):
        """(z, dz/dt, psi_rate) for z = normal_from_tangent(w(t)), w' = dw.

        psi_rate is the boundary turning rate at z; the chain rule divides by
        it, so callers should treat dz as unreliable where psi_rate is tiny
        (flat spots of lp circles with odd p).
        """
        w = np.asarray(w, dtype=float)
        dw = np.asarray(dw, dtype=float)
        _, (z, d1, d2) = self.tangent_theta(_angle(w, "tangent direction must be nonzero"))
        chi_rate = _turning_rate(_parts(w), _parts(dw))
        psi_rate = _turning_rate(_parts(d1), _parts(d2))
        theta_rate = chi_rate / np.where(np.abs(psi_rate) < 1e-300, 1e-300, psi_rate)
        return z, d1 * theta_rate[..., None], psi_rate

    def unit_tangent_with_derivative(self, v, dv):
        """(xi, dxi/dt) for xi = b(v(t)) along a field v with rate dv.

        v may be any nonzero field, unit or not: b depends on the direction
        of v only, and its rate on the angular rate [v, dv]/|v|^2. Uses the
        analytic derivative of b along the circle, so it stays well
        conditioned even where the turning rate vanishes.
        """
        v = np.asarray(v, dtype=float)
        dv = np.asarray(dv, dtype=float)
        theta = _angle(v, "birkhoff map needs a nonzero vector")
        theta_rate = _turning_rate(_parts(v), _parts(dv))
        w, wp = self.circle_jet(theta, (1, 2))
        norm_w, db = self._db(w, wp)
        return w / norm_w[..., None], db * theta_rate[..., None]

    def birkhoff_inverse(self, w):
        """Inverse of b restricted to the unit circle; w must be unit."""
        w = np.asarray(w, dtype=float)
        if np.max(np.abs(self.norm(w) - 1.0), initial=0.0) > UNIT_TOL:
            raise NotUnit("birkhoff_inverse expects a unit vector")
        return self.normal_from_tangent(w)

    # -- derived scalars ---------------------------------------------------

    def antinorm(self, x):
        """sup over unit y of |[x, y]|, x of shape (..., 2), via the supporting-point identity."""
        x = np.asarray(x, dtype=float)
        n = self.norm(x)
        out = np.zeros(n.shape)
        nz = n > 0.0
        xh = x[nz] / n[nz][:, None]
        out[nz] = n[nz] * symplectic(self.normal_from_tangent(xh), xh)
        return out[()]

    def rho(self, v):
        """Distortion ||Db_v(b(v))|| of the supporting map along the circle."""
        v = np.asarray(v, dtype=float)
        if np.max(np.abs(self.norm(v) - 1.0), initial=0.0) > UNIT_TOL:
            raise NotUnit("rho expects a unit vector")
        w, wp = self.circle_jet(np.arctan2(v[..., 1], v[..., 0]), (1, 2))
        return self._rho_of(w, wp)

    def _db(self, w, wp):
        """(||w||, d/dtheta of b(c(theta)) = c'(theta)/||c'(theta)||), from
        w = c'(theta) and wp = c''(theta), with one profile jet at arg w;
        ||w|| is hypot(w)/r, as in `norm`."""
        e2 = w[..., 0] ** 2 + w[..., 1] ** 2
        e = np.sqrt(e2)
        de = (w[..., 0] * wp[..., 0] + w[..., 1] * wp[..., 1]) / e
        ang = np.arctan2(w[..., 1], w[..., 0])
        dang = symplectic(w, wp) / e2
        r, r1 = self._profile.jet(ang, 1)
        n = e / r
        dn = de / r - e * r1 * dang / (r * r)
        return (np.hypot(w[..., 0], w[..., 1]) / r,
                wp / n[..., None] - w * (dn / (n * n))[..., None])

    def _rho_of(self, w, wp):
        """rho at the circle point whose c' and c'' are w and wp."""
        norm_w, db = self._db(w, wp)
        return self.norm(db) / norm_w

    def radon_defect(self):
        """sup over circle nodes of |b(b(v)) + v|; zero iff orthogonality is symmetric."""
        v = self.circle_point(self._theta_nodes[:-1])
        bb = self.birkhoff(self.birkhoff(v))
        return float(np.max(np.hypot(bb[:, 0] + v[:, 0], bb[:, 1] + v[:, 1])))


def build_plane(spec: NormSpec) -> NormedPlane:
    """Validate a norm specification and build its cached geometry."""
    return NormedPlane(spec)
