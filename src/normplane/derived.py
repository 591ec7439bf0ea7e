"""Parallels, evolutes, involutes, pedal curves and envelope diagnostics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .analysis import (
    CurvaturePair,
    LegendreCurve,
    REL_ZERO,
    curvature_pair,
    make_legendre,
    scalar_derivative,
    _require_front,
)
from .curves import NormalField, ParamCurve, normal_jet
from .errors import (
    DegenerateLine,
    KappaVanishes,
    RhoDegenerate,
    SingularPoint,
)
from .numerics import gauss5_segments, sign_crossings
from .plane import symplectic

RHO_FLOOR = 1e-6


def _require_kappa(cp: CurvaturePair):
    if np.min(np.abs(cp.kappa)) <= REL_ZERO * cp.kappa_scale:
        t_bad = float(cp.ts[int(np.argmin(np.abs(cp.kappa)))])
        raise KappaVanishes(f"kappa vanishes near t = {t_bad:.6g}")
    prod = cp.kappa[:-1] * cp.kappa[1:]
    if cp.closed:
        prod = np.append(prod, cp.kappa[-1] * cp.kappa[0])
    if np.any(prod < 0.0):
        t_bad = float(cp.ts[int(np.argmax(prod < 0.0))])
        raise KappaVanishes(f"kappa changes sign near t = {t_bad:.6g}")


def parallel(L: LegendreCurve, d: float) -> LegendreCurve:
    """Offset curve gamma + d eta with the same normal field."""
    cp = curvature_pair(L)
    _require_front(cp)
    gamma, eta = L.gamma, L.eta

    def pos(t):
        return gamma.point(t) + d * eta(t)

    def d1(t):
        return gamma.derivative(t, 1) + d * eta.derivative(t, 1)

    curve = ParamCurve(pos, gamma.domain, gamma.closed, (d1,), gamma.samples,
                       name=f"parallel[{d}]")
    return make_legendre(L.plane, curve, eta)


@dataclass
class EvoluteFrame:
    """Evolute curve with its own normal field, and the base pair its
    predicted curvature pair comes from."""

    evolute: ParamCurve
    nu: NormalField
    pair: LegendreCurve
    base: CurvaturePair

    def predicted(self, mask_floor=1e-3):
        """(rho(nu) > mask_floor, (alpha/kappa)', kappa/rho(nu)) on the base
        grid, the last NaN where rho is degenerate."""
        cp = self.base
        rho_vals = self.pair.plane.rho(self.pair.pair.eta)
        pred_kappa = np.where(rho_vals > RHO_FLOOR, cp.kappa / rho_vals, np.nan)
        return rho_vals > mask_floor, cp.ratio_rate_at(cp.ts), pred_kappa


def evolute(L: LegendreCurve) -> EvoluteFrame:
    """Centers of curvature gamma - (alpha/kappa) eta as a new pair.

    The frame normal is nu = -b^{-1}(eta); its curvature pair is
    ((alpha/kappa)', kappa/rho(nu)) with rho the circle distortion, masked
    where rho falls below 1e-3.
    """
    cp = curvature_pair(L)
    _require_front(cp)
    _require_kappa(cp)
    plane, gamma, eta = L.plane, L.gamma, L.eta

    def pos(t):
        g = cp.ratio_at(t)
        return gamma.point(t) - np.asarray(g)[..., None] * eta(t)

    def d1(t):
        dg = cp.ratio_rate_at(t)
        return -np.asarray(dg)[..., None] * eta(t)

    e_curve = ParamCurve(pos, gamma.domain, gamma.closed, (d1,), gamma.samples,
                         name="evolute")

    def nu_eval(t):
        return -plane.normal_from_tangent(eta(t))

    def nu_jet(t):
        z, dz = normal_jet(plane, gamma, t, *eta.value_and_rate(t),
                           lambda s: plane.normal_from_tangent(eta(s)))
        return -z, -dz

    nu = NormalField(nu_eval, gamma.domain, gamma.closed, "induced_regular", nu_jet)
    frame = make_legendre(plane, e_curve, nu, residual_tol=1e-4)
    return EvoluteFrame(e_curve, nu, frame, cp)


def evolute_as_parallel_singularities(L: LegendreCurve, n_offsets: int = 512) -> np.ndarray:
    """Singular points swept by the parallel family; should trace the evolute.

    Offsets cover the range of -alpha/kappa expanded by 1%. Crossings of
    alpha + d kappa are located by inverse-linear interpolation on the grid,
    which is ample for the 1e-3 sweep tolerance.
    """
    cp = curvature_pair(L)
    _require_front(cp)
    _require_kappa(cp)
    ratio = -cp.alpha / cp.kappa
    lo, hi = float(np.min(ratio)), float(np.max(ratio))
    pad = 0.005 * max(hi - lo, 1e-12)
    ds = np.linspace(lo - pad, hi + pad, n_offsets)

    ts, alpha, kappa, eta_pts = cp.ts, cp.alpha, cp.kappa, cp.eta
    gamma_pts = L.gamma.point(ts)
    points = []
    for d in ds:
        f = alpha + d * kappa
        s = f[:-1] * f[1:]
        idx = np.nonzero(s < 0.0)[0]
        if L.closed and f[-1] * f[0] < 0.0:
            idx = np.append(idx, len(f) - 1)
        for i in idx:
            j = (i + 1) % len(f)
            frac = f[i] / (f[i] - f[j])
            g = gamma_pts[i] + frac * (gamma_pts[j] - gamma_pts[i])
            e = eta_pts[i] + frac * (eta_pts[j] - eta_pts[i])
            points.append(g + d * e)
    return np.asarray(points)


def normal_envelope_residual(L: LegendreCurve, t, v):
    """(F, dF/dt) for the normal-line family F(t, v) = [gamma(t) - v, eta(t)].

    Both vanish exactly when v is the center of curvature at t.
    """
    v = np.asarray(v, dtype=float)
    g = L.gamma.point(t)
    e = L.eta(t)
    de = L.eta.derivative(t, 1)
    dg = L.gamma.derivative(t, 1)
    F = symplectic(g - v, e)
    dF = symplectic(dg, e) + symplectic(g - v, de)
    return F, dF


def involute(L: LegendreCurve, d: float) -> LegendreCurve:
    """Unwinding curve sigma = gamma - (A - d) xi, A(t) = integral of alpha.

    Its normal field is xi = b(eta); the evolute of the result reproduces
    gamma. Requires nonvanishing kappa and nondegenerate distortion along
    eta (the xi rate is proportional to rho).
    """
    cp = curvature_pair(L)
    _require_front(cp)
    _require_kappa(cp)
    plane, gamma, eta = L.plane, L.gamma, L.eta

    rho_vals = plane.rho(cp.eta)
    if np.min(rho_vals) <= RHO_FLOOR:
        t_bad = float(cp.ts[int(np.argmin(rho_vals))])
        raise RhoDegenerate(f"distortion vanishes along eta near t = {t_bad:.6g}")

    t0 = gamma.domain[0]
    ts = cp.ts
    seg = gauss5_segments(cp.alpha_at, ts[:-1], ts[1:])
    A_nodes = np.concatenate([[0.0], np.cumsum(seg)])

    def A_at(t):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        j = np.clip(np.searchsorted(ts, t_arr) - 1, 0, len(ts) - 2)
        out = A_nodes[j] + gauss5_segments(cp.alpha_at, ts[j], t_arr)
        if np.isscalar(t) or np.asarray(t).ndim == 0:
            return float(out[0])
        return out

    def xi_eval(t):
        return plane.birkhoff(eta(t))

    def xi_jet(t):
        return plane.unit_tangent_with_derivative(*eta.value_and_rate(t))

    def pos(t):
        A = np.asarray(A_at(t), dtype=float)
        return gamma.point(t) - (A - d)[..., None] * xi_eval(t)

    def d1(t):
        A = np.asarray(A_at(t), dtype=float)
        return (d - A)[..., None] * xi_jet(t)[1]

    span_A = float(A_nodes[-1])
    closed = bool(gamma.closed and abs(span_A) < 1e-9)
    curve = ParamCurve(pos, gamma.domain, closed, (d1,), gamma.samples,
                       name=f"involute[{d}]")
    xi_field = NormalField(xi_eval, gamma.domain, gamma.closed, "analytic", xi_jet)
    return make_legendre(plane, curve, xi_field)


@dataclass
class PedalResult:
    """Pedal curve of a pair with respect to a fixed point."""

    gamma_p: ParamCurve
    frontal_claimed: bool         # false when the base point lies on the curve
    singular_ts: list
    pair: Optional[LegendreCurve]


def pedal(L: LegendreCurve, p) -> PedalResult:
    """Feet of the orthogonal drops from p onto the tangent lines.

    gamma_p = gamma + [gamma - p, eta] xi / [eta, xi]; the analytic
    derivative is kappa/[eta,xi] times the front field zeta built from the
    distortion rho, and the singular parameters are the kappa zeros when p
    is off the curve.
    """
    cp = curvature_pair(L)
    plane, gamma, eta = L.plane, L.gamma, L.eta
    p = np.asarray(p, dtype=float)

    def pieces(t, e):
        g = gamma.point(t)
        xi = plane.birkhoff(e)
        denom = symplectic(e, xi)       # anti-norm of xi; positive
        return g, xi, denom

    def pos(t):
        e = eta(t)
        g, xi, denom = pieces(t, e)
        lever = symplectic(g - p, e) / denom
        return g + lever[..., None] * xi

    def zeta_at(t, e):
        """(zeta(t), [eta, xi](t)) from the normal e = eta(t)."""
        g, xi, denom = pieces(t, e)
        rho = plane.rho(e)
        bxi = plane.birkhoff(xi)
        rel = g - p
        coef_xi = (symplectic(rel, xi)
                   - rho * symplectic(rel, e) * symplectic(e, bxi) / denom)
        coef_b = rho * symplectic(rel, e)
        return coef_xi[..., None] * xi + coef_b[..., None] * bxi, denom

    def d1(t):
        # kappa = [eta, eta'] / [eta, xi], from the one jet evaluation
        e, e_rate = eta.value_and_rate(t)
        zeta, denom = zeta_at(t, e)
        kap = symplectic(e, e_rate) / denom
        return (kap / denom)[..., None] * zeta

    curve = ParamCurve(pos, gamma.domain, gamma.closed, (d1,), gamma.samples,
                       name="pedal")

    ts = cp.ts
    min_dist = float(np.min(plane.norm(gamma.point(ts) - p)))
    claimed = min_dist > 1e-6

    singular = sign_crossings(ts, cp.kappa, 1e-7 * cp.kappa_scale, cp.kappa_at,
                              period=cp.period)

    pair = None
    if claimed:
        def nu_eval(t):
            return plane.normal_from_tangent(zeta_at(t, eta(t))[0])

        nu_field = NormalField(nu_eval, gamma.domain, gamma.closed, "induced_regular")
        pair = make_legendre(plane, curve, nu_field)
    return PedalResult(curve, claimed, list(singular), pair)


def pedal_envelope_residual(L: LegendreCurve, p, t, v,
                            ped: Optional[PedalResult] = None,
                            allow_limit: bool = False):
    """(F, dF/dt) for the pedal line family F = [gamma_p - v, b(gamma_p - p)].

    Both vanish exactly when v = gamma(t), reconstructing the base curve
    from its pedal. Raises DegenerateLine when gamma_p(t) hits p, unless a
    one-sided limit is allowed. Pass a precomputed PedalResult to avoid
    rebuilding it per query.
    """
    plane = L.plane
    if ped is None:
        ped = pedal(L, p)
    g = ped.gamma_p.point(t)
    w = g - np.asarray(p, dtype=float)
    scale = max(float(np.max(plane.norm(ped.gamma_p.point(ped.gamma_p.grid())
                                        - np.asarray(p)))), 1.0)
    if float(plane.norm(w)) < 1e-9 * scale:
        if not allow_limit:
            raise DegenerateLine("pedal point coincides with the base point")
        t = t + 1e-5 * ped.gamma_p.span
        g = ped.gamma_p.point(t)
        w = g - np.asarray(p, dtype=float)
    dg = ped.gamma_p.derivative(t, 1)
    b, db = plane.unit_tangent_with_derivative(w, dg)
    v = np.asarray(v, dtype=float)
    F = symplectic(g - v, b)
    dF = symplectic(dg, b) + symplectic(g - v, db)
    return float(F), float(dF)


def osculating_data(L: LegendreCurve, t) -> dict:
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
    radius = abs(a / k)
    d1, d2 = distance_squared_rates(L, t, center)
    return {"center": center, "radius": radius, "D1": d1, "D2": d2}


def distance_squared_rates(L: LegendreCurve, t, point):
    """First and second arc-length derivatives of ||gamma - point||^2 at t."""
    plane, gamma = L.plane, L.gamma
    point = np.asarray(point, dtype=float)

    def dist2(s):
        return plane.norm(gamma.point(s) - point) ** 2

    def speed(s):
        return plane.norm(gamma.derivative(s, 1))

    Dt = float(scalar_derivative(dist2, t, 1, gamma.span,
                                 domain=gamma.domain, closed=gamma.closed))
    Dtt = float(scalar_derivative(dist2, t, 2, gamma.span,
                                  domain=gamma.domain, closed=gamma.closed))
    v = float(speed(t))
    dv = float(scalar_derivative(speed, t, 1, gamma.span,
                                 domain=gamma.domain, closed=gamma.closed))
    D1 = Dt / v
    D2 = (Dtt - D1 * dv) / (v * v)
    return D1, D2


def vertex_residual(L: LegendreCurve, t) -> float:
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
