"""Sampled smooth plane curves, derivative access, and normal-field builders."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import BadParameter, LimitsDisagree, OutOfDomain, SingularPoint
from .numerics import differentiate, fd_weights, merge_events, polish_dips, wrap
from .plane import NormedPlane, symplectic

FD_STEP_FACTOR = 1e-4          # derivative stencil step, relative to the domain span
SINGULAR_SPEED_FACTOR = 1e-7   # grid point is singular below this fraction of max speed


def check_domain(domain):
    """Refuse a curve domain that is not a finite increasing interval, or
    whose derivative stencils would not have finite weights at its step."""
    t0, t1 = domain
    if not (np.isfinite(t0) and np.isfinite(t1) and t1 > t0):
        raise BadParameter("curve domain must be a finite increasing interval")
    offsets = np.arange(-3.0, 4.0) * ((t1 - t0) * FD_STEP_FACTOR)
    with np.errstate(all="ignore"):
        weights = [fd_weights(offsets, order) for order in (1, 2, 3)]
    if not np.all(np.isfinite(weights)):
        raise BadParameter(f"curve domain [{t0:g}, {t1:g}] is too long or too short "
                           "for finite-difference derivatives")


class _Field:
    """What a curve and its normal field share. A parameter is put on the
    `domain` by one rule: wrapped when `closed`; else refused with
    OutOfDomain more than 1e-9 of the span outside, and clipped. Finite
    differences step FD_STEP_FACTOR of the span.
    """

    @property
    def span(self):
        return self.domain[1] - self.domain[0]

    @property
    def period(self):
        return self.span if self.closed else None

    def _wrap(self, t):
        t0, t1 = self.domain
        t = np.asarray(t, dtype=float)
        if self.closed:
            return wrap(t, t0, self.period)
        tol = 1e-9 * self.span
        if np.any(t < t0 - tol) or np.any(t > t1 + tol):
            raise OutOfDomain(f"parameter outside [{t0}, {t1}]")
        return np.clip(t, t0, t1)

    def difference(self, f, t, order):
        """Finite difference of f at t of the given order, or tuple of orders;
        t off an open domain is refused, not reached by a shifted stencil."""
        self._wrap(t)
        return differentiate(f, t, order, self.span * FD_STEP_FACTOR,
                             domain=self.domain, closed=self.closed)


@dataclass(frozen=True)
class ParamCurve(_Field):
    """A smooth curve t -> (x, y) on [t0, t1] with derivative access to order 3.

    `position` must accept scalars and arrays. `derivatives` holds analytic
    evaluators of the orders 1..k, k <= 3; the orders above k fall back to
    finite differences.
    """

    position: Callable
    domain: tuple
    closed: bool = False
    derivatives: tuple = ()
    samples: int = 2048
    name: str = ""

    def __post_init__(self):
        check_domain(self.domain)
        t0, t1 = self.domain
        if self.closed:
            seam = np.linalg.norm(np.asarray(self.position(t0), dtype=float)
                                  - np.asarray(self.position(t1), dtype=float))
            if seam > 1e-9:
                raise BadParameter(f"closed curve endpoints differ by {seam:.3e}")
            # gamma' at both ends, read without the wrap that maps t1 to t0
            ends = np.array([t0, t1])
            with np.errstate(all="ignore"):     # a pair that is not finite is refused later
                d0, d1 = (np.asarray(self.derivatives[0](ends), dtype=float) if self.derivatives
                          else differentiate(self.position, ends, 1, self.span * FD_STEP_FACTOR,
                                             domain=self.domain))
                if np.max(np.abs(d0 - d1)) > 1e-6 * max(1.0, float(np.max(np.abs(d0)))):
                    raise BadParameter("closed curve derivative seam mismatch")

    def point(self, t):
        return np.asarray(self.position(self._wrap(t)), dtype=float)

    def derivative(self, t, order):
        """Derivative of the given order (1..3); for a tuple of orders, the
        tuple of derivatives. The orders above the analytic evaluators are
        finite differences of the highest one (the position when there are
        none), read from one stencil."""
        orders = order if isinstance(order, tuple) else (order,)
        if not orders or any(k not in (1, 2, 3) for k in orders):
            raise BadParameter("derivative order must be 1, 2 or 3")
        m = len(self.derivatives)
        out = {k: np.asarray(self.derivatives[k - 1](self._wrap(t)), dtype=float)
               for k in orders if k <= m}
        group = tuple(k - m for k in orders if k > m)
        if group:
            base = self.position if m == 0 else self.derivatives[m - 1]
            values = self.difference(lambda s: np.asarray(base(self._wrap(s)), dtype=float),
                                     t, group)
            out.update(zip((k + m for k in group), values))
        out = tuple(out[k] for k in orders)
        return out if isinstance(order, tuple) else out[0]

    def grid(self):
        """Default analysis grid; excludes the duplicate endpoint when closed."""
        t0, t1 = self.domain
        return np.linspace(t0, t1, self.samples, endpoint=not self.closed)


@dataclass(frozen=True)
class NormalField(_Field):
    """A unit field t -> eta(t) along a curve, on the curve's domain by its rule.

    `evaluate` maps parameters of any shape (a scalar is 0-d) to normals of
    that shape + (2,). `jet`, when given, maps t to (eta(t), eta'(t)) in one
    evaluation, whose first part must equal `evaluate` bit for bit. Without
    it the rate is a finite difference of `evaluate`, and `value_and_rate`
    reads the value from the centre of the same stencil.
    """

    evaluate: Callable
    domain: tuple
    closed: bool
    jet: Optional[Callable] = None

    def __call__(self, t):
        return np.asarray(self.evaluate(self._wrap(t)), dtype=float)

    def value_and_rate(self, t):
        """(eta(t), eta'(t)), from one jet evaluation when the field has one,
        else from one stencil evaluation."""
        if self.jet is None:
            return self.difference(self, t, (0, 1))
        return self.jet(self._wrap(t))

    def derivative(self, t, order=1):
        if self.jet is None:
            return self.difference(self, t, order)
        if order == 1:
            return self.value_and_rate(t)[1]
        return self.difference(lambda s: self.value_and_rate(s)[1], t, order - 1)


def find_singular_params(plane: NormedPlane, curve: ParamCurve, ts, d1, speeds):
    """Parameters where the speed vanishes, refined between grid nodes.

    Returns the sorted parameters whose speed falls below SINGULAR_SPEED_FACTOR
    times the fastest of `speeds`, ||gamma'|| of `d1` = gamma' on the grid `ts`.
    Candidates are the speed dips below 5 % of it (one node per tie) and the
    slower node of each chord across which gamma' reverses (the closing chord
    too), each polished by golden section within a grid step.
    """
    smax, step = float(np.max(speeds)), curve.span / len(ts)
    beside = (np.pad(speeds, 1, mode="wrap") if curve.closed
              else np.pad(speeds, 1, constant_values=np.inf))
    candidates = (speeds <= 0.05 * smax) & (
        ((speeds < beside[:-2]) & (speeds <= beside[2:])) | (speeds <= 0.0))
    ends = np.concatenate([d1, d1[:1]]) if curve.closed else d1
    k = np.flatnonzero(np.sum(ends[:-1] * ends[1:], axis=-1) < 0.0)
    k1 = (k + 1) % len(ts)
    candidates[np.where(speeds[k1] < speeds[k], k1, k)] = True
    t_star, s_star = polish_dips(lambda t: plane.norm(curve.derivative(t, 1)),
                                 ts, np.flatnonzero(candidates), step, curve.domain, curve.closed)
    return merge_events(t_star[s_star < SINGULAR_SPEED_FACTOR * smax], 2.0 * step,
                        curve.domain[0], curve.period)


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
        dz[flat] = curve.difference(fallback, t[flat], 1)
    return z, dz


def _left_normal(plane: NormedPlane, curve: ParamCurve):
    """normal_from_tangent(gamma') as value(t, w) and jet(t, w, dw) of the
    parameters t, w = gamma'(t) and dw = gamma''(t), with its normal_jet rate."""

    def value(t, w):
        return plane.normal_from_tangent(w)

    def jet(t, w, dw):
        return normal_jet(plane, curve, t, w, dw, lambda s: value(s, curve.derivative(s, 1)))

    return value, jet


def _field(curve: ParamCurve, value, jet) -> NormalField:
    """The field of a normal given as value(t, w) and jet(t, w, dw)."""
    return NormalField(lambda t: value(t, curve.derivative(t, 1)), curve.domain, curve.closed,
                       lambda t: jet(t, *curve.derivative(t, (1, 2))))


def induced_normal(plane: NormedPlane, curve: ParamCurve) -> NormalField:
    """Left normal of a regular curve: unit, orthogonal-to-tangent, [eta, gamma'] > 0;
    extend_normal's field, refused with SingularPoint at any singular point."""
    ts = curve.grid()
    d1 = curve.derivative(ts, 1)
    if find_singular_params(plane, curve, ts, d1, plane.norm(d1)):
        raise SingularPoint("curve has singular points; its normal must be extended")
    return _field(curve, *_left_normal(plane, curve))


def extend_normal(plane: NormedPlane, curve: ParamCurve, ts, d1, speeds) -> NormalField:
    """Left normal of the curve, kept smooth through isolated singular points
    (see tangent_normal)."""
    return _field(curve, *tangent_normal(plane, curve, ts, d1, speeds))


def tangent_normal(plane: NormedPlane, curve: ParamCurve, ts, d1, speeds):
    """Left normal of the curve, kept smooth through isolated singular points,
    as value(t, w) and jet(t, w, dw) of t, w = gamma'(t) and dw = gamma''(t).

    normal_from_tangent(gamma') flips sign where gamma' reverses, as at an
    ordinary cusp (gamma' = alpha xi, alpha changing sign), so the field flips
    at a singular point t* (find_singular_params on the grid `ts`, `d1` and
    `speeds`) where gamma'(t* - delta) . gamma'(t* + delta) < 0, delta = 1e-6
    of the span, and refuses t* as a corner where those two lines are not near parallel.
    """
    singular = find_singular_params(plane, curve, ts, d1, speeds)
    left_value, left_jet = _left_normal(plane, curve)
    if not singular:
        return left_value, left_jet

    (t0, t1), period = curve.domain, curve.period
    smax, step = float(np.max(speeds)), curve.span / len(ts)
    delta = curve.span * 1e-6
    sing_ts = np.asarray(singular, dtype=float)
    if not curve.closed and (sing_ts[0] - 2.0 * step < t0 or sing_ts[-1] + 2.0 * step > t1):
        raise SingularPoint("singularity too close to an open endpoint")
    # gamma' at t* -/+ 2, 1 and 1/2 grid steps, where it must not vanish (a
    # lateral tangent of one singular point is not taken at the next), and at
    # t* -/+ delta, across which it reverses where the field flips
    w = curve.derivative(sing_ts[:, None, None] + np.multiply.outer(
        [2.0 * step, step, 0.5 * step, delta], [-1.0, 1.0]), 1)
    if np.min(plane.norm(w[:, :3])) < SINGULAR_SPEED_FACTOR * smax:
        raise LimitsDisagree("singular points closer than two grid steps")
    # a corner: the lines of gamma'(t* -/+ delta) cross at over half their angle at 1/2 step
    u = w[:, 2:] / np.linalg.norm(w[:, 2:], axis=-1)[..., None]
    gap = np.abs(symplectic(u[:, :, 0], u[:, :, 1]))
    if np.any((gap[:, 1] > 1e-4) & (gap[:, 1] > 0.5 * gap[:, 0])):
        raise LimitsDisagree("one-sided tangent directions are not parallel at the singularity")
    flips = sing_ts[np.sum(w[:, 3, 0] * w[:, 3, 1], axis=-1) < 0.0]

    # orientation anchor: the raw left normal holds on the arc just after the
    # first singular parameter (counted cyclically from the domain start)
    if curve.closed:
        sing_ts[sing_ts > t0 + period - 2.0 * step] -= period
    anchor = float(np.min(sing_ts)) + step
    base_parity = int(np.searchsorted(flips, wrap(anchor, t0, period), side="right"))

    def sign_of(t):
        par = np.searchsorted(flips, wrap(t, t0, period), side="right")
        return np.where((par - base_parity) % 2 == 0, 1.0, -1.0)[..., None]

    def signed(t):
        return plane.normal_from_tangent(curve.derivative(t, 1)) * sign_of(t)

    def value(t, w):
        near = plane.norm(w) < 1e-6 * smax
        out = np.empty(t.shape + (2,))
        if np.any(~near):
            out[~near] = plane.normal_from_tangent(w[~near]) * sign_of(t[~near])
        if np.any(near):
            # symmetric average from both sides kills the O(delta) error
            mid = 0.5 * (signed(t[near] - delta) + signed(t[near] + delta))
            out[near] = mid / plane.norm(mid)[..., None]
        return out

    def jet(t, w, dw):
        # away from the singular points one inversion of the supporting map
        # gives both parts; near them the averaged value and its difference
        far = plane.norm(w) >= 1e-3 * smax
        z = np.empty(t.shape + (2,))
        dz = np.empty(t.shape + (2,))
        if np.any(far):
            sign = sign_of(t[far])
            z_far, dz_far = left_jet(t[far], w[far], dw[far])
            z[far], dz[far] = z_far * sign, dz_far * sign
        if np.any(~far):
            z[~far] = value(t[~far], w[~far])
            dz[~far] = curve.difference(lambda s: value(s, curve.derivative(s, 1)), t[~far], 1)
        return z, dz

    return value, jet
