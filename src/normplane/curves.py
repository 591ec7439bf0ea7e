"""Sampled smooth plane curves, derivative access, and normal-field builders."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import BadParameter, LimitsDisagree, OutOfDomain, SingularPoint
from .numerics import brent_root, differentiate
from .plane import NormedPlane, symplectic

FD_STEP_FACTOR = 1e-4          # derivative stencil step, relative to the domain span
SINGULAR_SPEED_FACTOR = 1e-7   # grid point is singular below this fraction of max speed


@dataclass
class ParamCurve:
    """A smooth curve t -> (x, y) on [t0, t1] with derivative access to order 3.

    `position` must accept scalars and arrays. Analytic derivative evaluators
    may be supplied for orders 1..3 (a shorter tuple is fine); missing orders
    fall back to 4th-order finite differences, sampling through the wrap for
    closed curves and shifting the stencil inside the domain for open ones.
    """

    position: Callable
    domain: tuple
    closed: bool = False
    derivatives: tuple = ()
    samples: int = 2048
    name: str = ""

    def __post_init__(self):
        t0, t1 = self.domain
        if not (np.isfinite(t0) and np.isfinite(t1) and t1 > t0):
            raise BadParameter("curve domain must be a finite increasing interval")
        if self.closed:
            seam = np.linalg.norm(np.asarray(self.position(t0), dtype=float)
                                  - np.asarray(self.position(t1), dtype=float))
            if seam > 1e-9:
                raise BadParameter(f"closed curve endpoints differ by {seam:.3e}")
            d0 = self._raw_derivative(t0, 1)
            d1 = self._raw_derivative(t1, 1)
            if np.max(np.abs(d0 - d1)) > 1e-6 * max(1.0, float(np.max(np.abs(d0)))):
                raise BadParameter("closed curve derivative seam mismatch")

    @property
    def span(self):
        return self.domain[1] - self.domain[0]

    def _wrap(self, t):
        t0, t1 = self.domain
        t = np.asarray(t, dtype=float)
        if self.closed:
            return t0 + np.mod(t - t0, t1 - t0)
        tol = 1e-9 * self.span
        if np.any(t < t0 - tol) or np.any(t > t1 + tol):
            raise OutOfDomain(f"parameter outside [{t0}, {t1}]")
        return np.clip(t, t0, t1)

    def point(self, t):
        return np.asarray(self.position(self._wrap(t)), dtype=float)

    def _raw_derivative(self, t, order):
        if len(self.derivatives) >= order and self.derivatives[order - 1] is not None:
            return np.asarray(self.derivatives[order - 1](self._wrap(t)), dtype=float)
        base_order = 0
        base = self.position
        for m in range(order - 1, 0, -1):
            if len(self.derivatives) >= m and self.derivatives[m - 1] is not None:
                base_order = m
                base = self.derivatives[m - 1]
                break
        h = self.span * FD_STEP_FACTOR
        return differentiate(lambda s: np.asarray(base(self._wrap(s)), dtype=float),
                             t, order - base_order, h,
                             domain=self.domain, closed=self.closed)

    def derivative(self, t, order):
        """Derivative of the given order (1..3)."""
        if order not in (1, 2, 3):
            raise BadParameter("derivative order must be 1, 2 or 3")
        self._wrap(t)
        return self._raw_derivative(t, order)

    def grid(self):
        """Default analysis grid; excludes the duplicate endpoint when closed."""
        t0, t1 = self.domain
        return np.linspace(t0, t1, self.samples, endpoint=not self.closed)


@dataclass
class NormalField:
    """A unit field t -> eta(t) along a curve.

    `jet`, when given, maps t to (eta(t), eta'(t)) in one evaluation, and its
    first part equals `evaluate` bit for bit; without it the rate is a finite
    difference of `evaluate`.
    """

    evaluate: Callable
    domain: tuple
    closed: bool
    provenance: str
    jet: Optional[Callable] = None

    def __call__(self, t):
        return np.asarray(self.evaluate(t), dtype=float)

    @property
    def span(self):
        return self.domain[1] - self.domain[0]

    def value_and_rate(self, t):
        """(eta(t), eta'(t)), from one jet evaluation when the field has one."""
        if self.jet is None:
            return self(t), self.derivative(t, 1)
        eta, rate = self.jet(t)
        return np.asarray(eta, dtype=float), np.asarray(rate, dtype=float)

    def derivative(self, t, order=1):
        h = self.span * FD_STEP_FACTOR
        if self.jet is None:
            return differentiate(lambda s: np.asarray(self.evaluate(s), dtype=float),
                                 t, order, h, domain=self.domain, closed=self.closed)
        rate = lambda s: np.asarray(self.jet(s)[1], dtype=float)
        if order == 1:
            return rate(t)
        return differentiate(rate, t, order - 1, h, domain=self.domain, closed=self.closed)


def find_singular_params(plane: NormedPlane, curve: ParamCurve,
                         rel_threshold=SINGULAR_SPEED_FACTOR):
    """Parameters where the speed vanishes, refined between grid nodes.

    Returns a sorted list of (t, speed) pairs. Candidate dips of the sampled
    speed are polished by golden section so singularities that fall between
    nodes are still found.
    """
    from .numerics import golden_minimize

    ts = curve.grid()
    n = len(ts)
    speeds = plane.norm(curve.derivative(ts, 1))
    smax = float(np.max(speeds))
    step = curve.span / n

    def speed_at(t):
        return float(plane.norm(curve.derivative(t, 1)))

    found = []
    for i in range(n):
        im = (i - 1) % n if curve.closed else max(i - 1, 0)
        ip = (i + 1) % n if curve.closed else min(i + 1, n - 1)
        if speeds[i] > 0.05 * smax:
            continue
        if speeds[i] > min(speeds[im], speeds[ip]) and speeds[i] > 0.0:
            continue
        lo = ts[i] - step if (curve.closed or i > 0) else ts[i]
        hi = ts[i] + step if (curve.closed or i < n - 1) else ts[i]
        t_star, s_star = golden_minimize(speed_at, lo, hi)
        if s_star < rel_threshold * smax:
            found.append((t_star, s_star))
    if curve.closed:
        t0, period = curve.domain[0], curve.span
        found = [(t0 + (t - t0) % period, s) for t, s in found]
    found.sort()
    out = []
    for t, s in found:
        if not out or abs(t - out[-1][0]) > 2.0 * step:
            out.append((t, s))
    if curve.closed and len(out) >= 2 and abs((out[-1][0] - out[0][0]) - curve.span) < 2.0 * step:
        out.pop()
    return out


def normal_jet(plane: NormedPlane, curve: ParamCurve, t, w, dw, fallback):
    """(z, z') at the parameters t (an array) of the curve, for
    z = normal_from_tangent(w) with w' = dw.

    The chain rule divides by the boundary turning rate at z; at flat
    supporting directions, where it is 0/0, z' is a finite difference of
    `fallback`, which evaluates z.
    """
    z, dz, psi_rate = plane.normal_from_tangent_with_derivative(w, dw)
    flat = np.abs(psi_rate) < 1e-6
    if np.any(flat):
        dz[flat] = differentiate(fallback, t[flat], 1, curve.span * FD_STEP_FACTOR,
                                 domain=curve.domain, closed=curve.closed)
    return z, dz


def induced_normal(plane: NormedPlane, curve: ParamCurve) -> NormalField:
    """Left normal of a regular curve: unit, orthogonal-to-tangent, [eta, gamma'] > 0."""
    singular = find_singular_params(plane, curve, rel_threshold=1e-8)
    if singular:
        raise SingularPoint(f"curve is singular near t = {singular[0][0]:.6g}")

    def evaluate(t):
        return plane.normal_from_tangent(curve.derivative(t, 1))

    def jet(t):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        z, dz = normal_jet(plane, curve, t_arr, curve.derivative(t_arr, 1),
                           curve.derivative(t_arr, 2), evaluate)
        if np.isscalar(t) or np.asarray(t).ndim == 0:
            return z[0], dz[0]
        return z, dz

    return NormalField(evaluate, curve.domain, curve.closed, "induced_regular", jet)


def extend_normal(plane: NormedPlane, curve: ParamCurve) -> NormalField:
    """Normal field through isolated singular points.

    The raw left normal flips sign wherever the normalized tangent does (an
    ordinary cusp); flips are located precisely and a sign function with
    those breakpoints makes the field smooth across each singularity.
    """
    ts = curve.grid()
    n = len(ts)
    period = curve.span if curve.closed else None
    d1 = curve.derivative(ts, 1)
    speeds = plane.norm(d1)
    smax = float(np.max(speeds))
    step = curve.span / n
    singular = find_singular_params(plane, curve)

    flips = []
    for t_star, _ in singular:
        ta, tb = t_star - 2.0 * step, t_star + 2.0 * step
        if not curve.closed:
            t0, t1 = curve.domain
            if ta < t0 or tb > t1:
                raise SingularPoint("singularity too close to an open endpoint")
        def line_gap(d):
            wa = np.asarray(curve.derivative(t_star - d, 1), dtype=float)
            wb = np.asarray(curve.derivative(t_star + d, 1), dtype=float)
            wa = wa / np.linalg.norm(wa)
            wb = wb / np.linalg.norm(wb)
            return wa, wb, float(np.arcsin(min(1.0, abs(symplectic(wa, wb)))))

        # the lateral tangents close linearly in the offset at a smooth
        # singularity; Richardson-extrapolate the gap to offset zero
        wa, wb, g1 = line_gap(2.0 * step)
        _, _, g2 = line_gap(step)
        if abs(2.0 * g2 - g1) > 1e-4:
            raise LimitsDisagree(
                "one-sided tangent directions are not parallel at the singularity")
        if float(wa @ wb) < 0.0:
            # tangent reverses: locate the crossing of the tangent component
            f = lambda t, w=wa: curve.derivative(t, 1) @ w
            fa, fb = f(np.array([ta, tb]))
            flips.append(brent_root(f, ta, tb, fa, fb, xtol=1e-12)[0])

    flips = np.sort(np.asarray(flips, dtype=float))
    t0 = curve.domain[0]
    if curve.closed:
        flips = t0 + np.mod(flips - t0, period)
        flips = np.sort(flips)

    # orientation anchor: the raw left normal holds on the arc just after the
    # first singular parameter (counted cyclically from the domain start)
    if singular:
        sing_ts = np.asarray([t for t, _ in singular], dtype=float)
        if curve.closed:
            sing_ts = t0 + np.mod(sing_ts - t0, period)
            sing_ts[sing_ts > t0 + period - 2.0 * step] -= period
        anchor = float(np.min(sing_ts)) + step
    else:
        anchor = ts[0] + step
    base_parity = int(np.searchsorted(flips, t0 + np.mod(anchor - t0, period)
                                      if curve.closed else anchor, side="right"))

    def sign_of(t):
        t = np.asarray(t, dtype=float)
        if curve.closed:
            t = t0 + np.mod(t - t0, period)
        par = np.searchsorted(flips, t, side="right")
        return np.where((par - base_parity) % 2 == 0, 1.0, -1.0)

    delta = curve.span * 1e-6

    def evaluate(t):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        w = curve.derivative(t_arr, 1)
        sp = plane.norm(w)
        near = sp < 1e-6 * smax
        if np.any(near):
            # symmetric average from both sides kills the O(delta) error
            lo = evaluate_regular(t_arr[near] - delta)
            hi = evaluate_regular(t_arr[near] + delta)
            mid = 0.5 * (lo + hi)
            mid /= plane.norm(mid)[..., None]
            out = np.empty(t_arr.shape + (2,))
            if np.any(~near):
                out[~near] = evaluate_regular(t_arr[~near])
            out[near] = mid
        else:
            out = evaluate_regular(t_arr)
        if np.isscalar(t) or np.asarray(t).ndim == 0:
            return out[0]
        return out

    def unsigned(t):
        return plane.normal_from_tangent(curve.derivative(t, 1))

    def evaluate_regular(t):
        return unsigned(t) * sign_of(t)[..., None]

    h = curve.span * FD_STEP_FACTOR

    def jet(t):
        # away from the singular points one inversion of the supporting map
        # gives both parts; near them the averaged value and its difference
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        w = curve.derivative(t_arr, 1)
        far = plane.norm(w) >= 1e-3 * smax
        z = np.empty(t_arr.shape + (2,))
        dz = np.empty(t_arr.shape + (2,))
        if np.any(far):
            sign = sign_of(t_arr[far])[..., None]
            z_far, dz_far = normal_jet(plane, curve, t_arr[far], w[far],
                                       curve.derivative(t_arr[far], 2), unsigned)
            z[far], dz[far] = z_far * sign, dz_far * sign
        if np.any(~far):
            z[~far] = evaluate(t_arr[~far])
            dz[~far] = differentiate(evaluate, t_arr[~far], 1, h,
                                     domain=curve.domain, closed=curve.closed)
        if np.isscalar(t) or np.asarray(t).ndim == 0:
            return z[0], dz[0]
        return z, dz

    fieldv = NormalField(evaluate, curve.domain, curve.closed,
                         "extended_through_singularities", jet)

    # audit continuity: a corner (tangent line jump) cannot be smoothed
    vals = fieldv(ts)
    gaps = np.linalg.norm(np.diff(vals, axis=0), axis=1)
    if curve.closed:
        gaps = np.append(gaps, np.linalg.norm(vals[0] - vals[-1]))
    if np.max(gaps) > 0.5:
        raise LimitsDisagree("normal field is discontinuous: tangent lines jump")
    return fieldv


@dataclass
class Jet:
    """Derivatives d0..dk of a curve/pair component at one parameter."""

    t: float
    derivs: tuple

    def __post_init__(self):
        if len(self.derivs) > 5:
            raise BadParameter("jet order is limited to 4")
        if not all(np.all(np.isfinite(d)) for d in self.derivs):
            raise BadParameter("jet entries must be finite")
