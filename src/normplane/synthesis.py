"""Reconstruction of a curve/normal pair from a prescribed curvature pair.

Given smooth alpha, kappa on [t0, t1] and initial data (point p, unit normal
v), the normal is eta(t) = phi(u0 + integral of kappa) with phi the
arc-length parametrization of the unit circle, and the curve integrates
gamma' = alpha b(eta). Both integrals use the classical 4th-order one-step
scheme with fixed step; since the right-hand sides depend only on t (and on
the accumulated u), all stage values are evaluated on the half-step grid in
one vectorized pass per stage, which inverts the stage arc lengths to circle
angles theta with one `theta_of_arclength` call.

Between the nodes the pair is carried by cubic Hermite pieces whose node
slopes the integration already has: the turning angle theta(t), with
theta' = kappa / ||c'(theta)||, and gamma(t), with gamma' = alpha b(c(theta)).
The normal is then eta(t) = c(theta(t)): one profile jet per point, unit by
construction, with no arc-length inversion per query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analysis import LegendreCurve, make_legendre
from .curves import NormalField, ParamCurve, check_domain
from .errors import BadParameter, NotAnIsometry, NotUnit
from .numerics import TWO_PI, Hermite, unwrap_mod
from .plane import NormedPlane


@dataclass
class SynthesisSpec:
    """Curvature-pair data for reconstruction on domain = (t0, t1); the
    initial data are the point and unit normal at t0."""

    alpha: Callable
    kappa: Callable
    gamma0: tuple
    eta0: tuple
    domain: tuple
    steps: int = 4096


def synthesize(plane: NormedPlane, spec: SynthesisSpec) -> LegendreCurve:
    """Unique pair with curvature (alpha, kappa) and the given initial data."""
    t0, t1 = map(float, spec.domain)
    check_domain((t0, t1))    # before the integration can overflow
    v = np.asarray(spec.eta0, dtype=float)
    if abs(float(plane.norm(v)) - 1.0) > 1e-9:
        raise NotUnit("initial normal must be a unit vector of the plane")
    p = np.asarray(spec.gamma0, dtype=float)
    m = int(spec.steps)
    if m < 8:
        raise BadParameter("steps must be at least 8")

    u0 = float(plane.arclength_of_theta(np.arctan2(v[1], v[0])))
    h = (t1 - t0) / m
    t_half = np.linspace(t0, t1, 2 * m + 1)
    k_half = np.asarray(spec.kappa(t_half), dtype=float)
    a_half = np.asarray(spec.alpha(t_half), dtype=float)

    # u' = kappa(t): the four stage slopes collapse to Simpson on half steps
    u_nodes = np.zeros(m + 1)
    with np.errstate(all="ignore"):     # an integral that overflows is refused below
        u_nodes[1:] = np.cumsum(h / 6.0 * (k_half[0:-1:2] + 4.0 * k_half[1::2]
                                           + k_half[2::2]))

    # gamma' = alpha(t) b(phi(u0 + u)): stage u-values per classical RK4
    kn, km = k_half[0:-1:2], k_half[1::2]
    un = u_nodes[:-1]
    u_s2 = un + 0.5 * h * kn          # stage 2 (midpoint, Euler half step)
    u_s3 = un + 0.5 * h * km          # stage 3 (midpoint, stage-2 slope)
    u_s4 = un + h * km                # stage 4 (endpoint, stage-3 slope)

    def stage(u):
        """theta of the arc length u0 + u, b(c(theta)) and du/dtheta = ||c'(theta)||."""
        theta = plane.theta_of_arclength(u0 + u)
        w = plane.circle_d1(theta)
        speed = plane.norm(w)
        return theta, w / speed[:, None], speed

    theta_n, xi_n, speed_n = stage(u_nodes)
    f1 = a_half[0:-1:2, None] * xi_n[:-1]
    xi_s2 = stage(u_s2)[1]
    # equal stage arc lengths (kappa equal at every node and midpoint) share
    # one inversion; the inversion stops on the residual of its whole batch,
    # so only whole arrays are shared
    xi_s3 = xi_s2 if u_s2.tobytes() == u_s3.tobytes() else stage(u_s3)[1]
    f2 = a_half[1::2, None] * xi_s2
    f3 = a_half[1::2, None] * xi_s3
    f4 = a_half[2::2, None] * stage(u_s4)[1]
    with np.errstate(all="ignore"):
        steps_xy = h / 6.0 * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
        gamma_nodes = np.vstack([p, p + np.cumsum(steps_xy, axis=0)])
    if not np.all(np.isfinite(gamma_nodes)):
        raise BadParameter("the curve integrated from alpha and kappa is not finite")
    # the stage arrays are not read again: free them before the pair is built
    del f1, f2, f3, f4, xi_s2, xi_s3, u_s2, u_s3, u_s4, t_half, steps_xy

    # cubic Hermite pieces through the nodes, with the slopes the integration
    # knows: theta' = kappa / ||c'(theta)||, gamma' = alpha b(c(theta))
    t_nodes = np.linspace(t0, t1, m + 1)
    theta_of_t = Hermite(t_nodes, unwrap_mod(theta_n, TWO_PI), k_half[::2] / speed_n)
    pos = Hermite(t_nodes, gamma_nodes, a_half[::2, None] * xi_n)

    def turn(t, *fields):
        """eta = c(theta(t)) and f(t) xi, xi = b(eta), for each scalar field f,
        from one circle jet."""
        t = np.asarray(t, dtype=float)
        e, w = plane.circle_jet(theta_of_t(t), (0, 1))
        xi = w / plane.norm(w)[..., None]
        return (e, *(np.asarray(f(t), dtype=float)[..., None] * xi for f in fields))

    def frame(t, rate):
        e, d1, *e_rate = turn(t, spec.alpha, *((spec.kappa,) if rate else ()))
        return (d1, e, *e_rate)

    def gamma_d1(t):
        return turn(t, spec.alpha)[1]

    seam = float(np.linalg.norm(gamma_nodes[-1] - gamma_nodes[0]))
    d_seam = float(np.max(np.abs(gamma_d1(t0) - gamma_d1(t1))))
    closed = seam < 1e-9 and d_seam < 1e-6

    curve = ParamCurve(pos, (t0, t1), closed=closed, derivatives=(gamma_d1,),
                       name="synthesized")
    eta = NormalField(lambda t: plane.circle_point(theta_of_t(t)), (t0, t1), closed,
                      lambda t: turn(t, spec.kappa))
    return make_legendre(plane, curve, eta, frame=frame)


def apply_linear_map(L: LegendreCurve, matrix, is_isometry_of_plane: bool = False) -> LegendreCurve:
    """Transform a pair by a linear map, revalidating the result.

    With the isometry flag set, norm preservation is checked on 64 sampled
    unit vectors first.
    """
    M = np.asarray(matrix, dtype=float)
    if M.shape != (2, 2):
        raise BadParameter("expected a 2x2 matrix")

    def image(v):
        # elementwise, not a BLAS product: a 2-vector maps to the same bits
        # alone or in any batch
        v = np.asarray(v, dtype=float)
        return v[..., :1] * M[:, 0] + v[..., 1:] * M[:, 1]

    plane = L.plane
    if is_isometry_of_plane:
        thetas = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        err = float(np.max(np.abs(plane.norm(image(plane.circle_point(thetas))) - 1.0)))
        if err > 1e-9:
            raise NotAnIsometry(f"map distorts the unit circle by {err:.2e}")

    gamma, eta = L.gamma, L.eta

    def mapped(f):
        return lambda t: image(f(t))

    new_gamma = ParamCurve(mapped(gamma.position), gamma.domain, gamma.closed,
                           tuple(map(mapped, gamma.derivatives)), gamma.samples, gamma.name)
    jet = None if eta.jet is None else (lambda t: tuple(map(image, eta.jet(t))))
    new_eta = NormalField(mapped(eta.evaluate), eta.domain, eta.closed, jet)
    return make_legendre(plane, new_gamma, new_eta)
