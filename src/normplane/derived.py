"""Parallels, evolutes, involutes and pedal curves."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .analysis import LegendreCurve, REL_ZERO, make_legendre, _require_front
from .curves import NormalField, ParamCurve, normal_jet
from .errors import KappaVanishes, RhoDegenerate
from .numerics import gauss5_segments, sign_crossings
from .plane import symplectic

RHO_FLOOR = 1e-6


def _require_kappa(L: LegendreCurve):
    if np.min(np.abs(L.kappa)) <= REL_ZERO * L.kappa_scale:
        t_bad = float(L.ts[int(np.argmin(np.abs(L.kappa)))])
        raise KappaVanishes(f"kappa vanishes near t = {t_bad:.6g}")
    prod = L.kappa[:-1] * L.kappa[1:]
    if L.closed:
        prod = np.append(prod, L.kappa[-1] * L.kappa[0])
    if np.any(prod < 0.0):
        t_bad = float(L.ts[int(np.argmax(prod < 0.0))])
        raise KappaVanishes(f"kappa changes sign near t = {t_bad:.6g}")


def parallel(L: LegendreCurve, d: float) -> LegendreCurve:
    """Offset curve gamma + d eta with the same normal field."""
    _require_front(L)
    gamma, eta = L.gamma, L.eta

    def pos(t):
        return gamma.point(t) + d * eta(t)

    def frame(t, rate):
        d1, e, e_rate = L.frame(t, True)
        return (d1 + d * e_rate, e, e_rate) if rate else (d1 + d * e_rate, e)

    curve = ParamCurve(pos, gamma.domain, gamma.closed, (lambda t: frame(t, False)[0],),
                       gamma.samples, name=f"parallel[{d}]")
    return make_legendre(L.plane, curve, eta, frame=frame)


def evolute(L: LegendreCurve) -> LegendreCurve:
    """Centers of curvature gamma - (alpha/kappa) eta as a new pair.

    Its normal is nu = -b^{-1}(eta), and its curvature pair is
    ((alpha/kappa)', kappa/rho(nu)) with rho the circle distortion.
    """
    _require_front(L)
    _require_kappa(L)
    plane, gamma, eta = L.plane, L.gamma, L.eta

    def pos(t):
        g = L.ratio_at(t)
        return gamma.point(t) - np.asarray(g)[..., None] * eta(t)

    def nu_jet(t, e, e_rate):
        z, dz = normal_jet(plane, gamma, t, e, e_rate,
                           lambda s: plane.normal_from_tangent(eta(s)))
        return -z, -dz

    def d1(t, e):
        return -np.asarray(L.ratio_rate_at(t))[..., None] * e

    def frame(t, rate):
        # gamma' = -(alpha/kappa)' eta and nu, from one value or jet of eta
        if not rate:
            e = eta(t)
            return d1(t, e), -plane.normal_from_tangent(e)
        e, e_rate = eta.value_and_rate(t)
        return (d1(t, e), *nu_jet(t, e, e_rate))

    e_curve = ParamCurve(pos, gamma.domain, gamma.closed, (lambda t: d1(t, eta(t)),),
                         gamma.samples, name="evolute")
    nu = NormalField(lambda t: -plane.normal_from_tangent(eta(t)), gamma.domain, gamma.closed,
                     lambda t: nu_jet(t, *eta.value_and_rate(t)))
    return make_legendre(plane, e_curve, nu, residual_tol=1e-4, frame=frame)


def involute(L: LegendreCurve, d: float) -> LegendreCurve:
    """Unwinding curve sigma = gamma - (A - d) xi, A(t) = integral of alpha.

    Its normal field is xi = b(eta); the evolute of the result reproduces
    gamma. Requires nonvanishing kappa and nondegenerate distortion along
    eta (the xi rate is proportional to rho).
    """
    _require_front(L)
    _require_kappa(L)
    plane, gamma, eta = L.plane, L.gamma, L.eta

    rho_vals = plane.rho(L.normals)
    if np.min(rho_vals) <= RHO_FLOOR:
        t_bad = float(L.ts[int(np.argmin(rho_vals))])
        raise RhoDegenerate(f"distortion vanishes along eta near t = {t_bad:.6g}")

    t0 = gamma.domain[0]
    ts = L.ts
    seg = gauss5_segments(L.alpha_at, ts[:-1], ts[1:])
    A_nodes = np.concatenate([[0.0], np.cumsum(seg)])

    def A_at(t):
        t = np.asarray(t, dtype=float)
        # a node reads its cumulative sum plus a zero-width segment
        j = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(ts) - 2)
        return A_nodes[j] + gauss5_segments(L.alpha_at, ts[j], t)

    def xi_eval(t):
        return plane.birkhoff(eta(t))

    def pos(t):
        return gamma.point(t) - (A_at(t) - d)[..., None] * xi_eval(t)

    xi_field = NormalField(xi_eval, gamma.domain, gamma.closed,
                           lambda t: plane.unit_tangent_with_derivative(*eta.value_and_rate(t)))

    def frame(t, rate):
        xi, xi_rate = xi_field.value_and_rate(t)
        d1 = (d - A_at(t))[..., None] * xi_rate
        return (d1, xi, xi_rate) if rate else (d1, xi)

    span_A = float(A_nodes[-1])
    closed = bool(gamma.closed and abs(span_A) < 1e-9)
    curve = ParamCurve(pos, gamma.domain, closed, (lambda t: frame(t, False)[0],),
                       gamma.samples, name=f"involute[{d}]")
    return make_legendre(plane, curve, xi_field, frame=frame)


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

    ts = L.ts
    min_dist = float(np.min(plane.norm(gamma.point(ts) - p)))
    claimed = min_dist > 1e-6

    singular = sign_crossings(ts, L.kappa, 1e-7 * L.kappa_scale, L.kappa_at,
                              period=L.period)

    pair = None
    if claimed:
        def nu_eval(t):
            return plane.normal_from_tangent(zeta_at(t, eta(t))[0])

        nu_field = NormalField(nu_eval, gamma.domain, gamma.closed)
        pair = make_legendre(plane, curve, nu_field)
    return PedalResult(curve, claimed, list(singular), pair)
