"""Sampled smooth plane curves, derivative access, and normal-field builders."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import BadParameter, LimitsDisagree, OutOfDomain, SingularPoint
from .numerics import brent_root, differentiate, fd_weights, merge_events, polish_dips, wrap
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


@dataclass
class ParamCurve:
    """A smooth curve t -> (x, y) on [t0, t1] with derivative access to order 3.

    `position` must accept scalars and arrays. `derivatives` holds analytic
    evaluators of the orders 1..k, k <= 3; the orders above k fall back to
    4th-order finite differences, sampling through the wrap for closed
    curves and shifting the stencil inside the domain for open ones.

    The curve keeps its last derivative evaluation, the way `NormalField`
    keeps its last jet: read-only arrays of the orders held, keyed by the
    exact bytes and shape of the parameters as given, before any wrap, so a
    parameter outside a closed domain never reads the derivatives of its
    wrapped twin. A call at those parameters reads the orders held and
    evaluates only the others.
    """

    position: Callable
    domain: tuple
    closed: bool = False
    derivatives: tuple = ()
    samples: int = 2048
    name: str = ""
    _kept: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

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
            d0, d1 = (np.asarray(self.derivatives[0](ends), dtype=float) if self.derivatives
                      else differentiate(self.position, ends, 1, self.span * FD_STEP_FACTOR,
                                         domain=self.domain))
            if np.max(np.abs(d0 - d1)) > 1e-6 * max(1.0, float(np.max(np.abs(d0)))):
                raise BadParameter("closed curve derivative seam mismatch")

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

    def point(self, t):
        return np.asarray(self.position(self._wrap(t)), dtype=float)

    def _raw_derivative(self, t, orders):
        """The derivatives of the given orders at t, as a tuple. The orders
        above the analytic evaluators are finite differences of the highest
        one (the position when there are none), read from one stencil."""
        m = len(self.derivatives)
        out = {order: np.asarray(self.derivatives[order - 1](self._wrap(t)), dtype=float)
               for order in orders if order <= m}
        group = [order for order in orders if order > m]
        if group:
            base = self.position if m == 0 else self.derivatives[m - 1]
            values = differentiate(lambda s: np.asarray(base(self._wrap(s)), dtype=float),
                                   t, tuple(order - m for order in group),
                                   self.span * FD_STEP_FACTOR,
                                   domain=self.domain, closed=self.closed)
            out.update(zip(group, values))
        return tuple(out[order] for order in orders)

    def derivative(self, t, order):
        """Derivative of the given order (1..3); for a tuple of orders, the
        tuple of derivatives, those that are finite differences of one
        evaluator taken from one stencil evaluation."""
        orders = order if isinstance(order, tuple) else (order,)
        if not orders or any(k not in (1, 2, 3) for k in orders):
            raise BadParameter("derivative order must be 1, 2 or 3")
        t = np.asarray(t, dtype=float)
        key = (t.shape, t.tobytes())
        kept = self._kept
        held = kept[1] if kept is not None and kept[0] == key else {}
        missing = tuple(k for k in orders if k not in held)
        if missing:
            self._wrap(t)
            held = dict(held)
            held.update(zip(missing, map(_read_only, self._raw_derivative(t, missing))))
            self._kept = (key, held)
        out = tuple(held[k] for k in orders)
        return out if isinstance(order, tuple) else out[0]

    def grid(self):
        """Default analysis grid; excludes the duplicate endpoint when closed."""
        t0, t1 = self.domain
        return np.linspace(t0, t1, self.samples, endpoint=not self.closed)


def _read_only(values):
    """A read-only float view of values."""
    view = np.asarray(values, dtype=float).view()
    view.flags.writeable = False
    return view


@dataclass
class NormalField:
    """A unit field t -> eta(t) along a curve.

    `evaluate` maps a parameter array to the array of normals; a scalar
    parameter is passed as a one-element array and unpacked here, and a
    closed field's parameter is wrapped into its domain first. `jet`,
    when given, maps t to (eta(t), eta'(t)) in one evaluation, and its first
    part must equal `evaluate` bit for bit; without it the rate is a finite
    difference of `evaluate`, and `value_and_rate` reads the value from the
    centre of the same stencil.

    The field keeps its last jet: one (eta, eta') pair, keyed by the exact
    bytes and shape of the wrapped parameters it was evaluated at. A call or
    a `value_and_rate` at those parameters reads it instead of evaluating
    again, which is why the jet's first part must be `evaluate`'s bits. The
    kept arrays are read-only views, so a caller that writes into them fails
    instead of changing a later read.
    """

    evaluate: Callable
    domain: tuple
    closed: bool
    jet: Optional[Callable] = None
    _kept: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def _param(self, t):
        return wrap(np.atleast_1d(np.asarray(t, dtype=float)), self.domain[0], self.period)

    def _recall(self, p):
        """The kept (eta, eta') if it was evaluated at the parameters p."""
        kept = self._kept
        if kept is not None and kept[0] == p.shape and kept[1] == p.tobytes():
            return kept[2]
        return None

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        p = self._param(t)
        kept = self._recall(p)
        eta = kept[0] if kept is not None else np.asarray(self.evaluate(p), dtype=float)
        return eta if t.ndim else eta[0]

    @property
    def span(self):
        return self.domain[1] - self.domain[0]

    @property
    def period(self):
        return self.span if self.closed else None

    def value_and_rate(self, t):
        """(eta(t), eta'(t)), from one jet evaluation when the field has one,
        else from one stencil evaluation."""
        if self.jet is None:
            return differentiate(self._evaluate_at, t, (0, 1), self.span * FD_STEP_FACTOR,
                                 domain=self.domain, closed=self.closed)
        t = np.asarray(t, dtype=float)
        p = self._param(t)
        kept = self._recall(p)
        if kept is None:
            kept = tuple(_read_only(v) for v in self.jet(p))
            self._kept = (p.shape, p.tobytes(), kept)
        eta, rate = kept
        return (eta, rate) if t.ndim else (eta[0], rate[0])

    def _evaluate_at(self, s):
        return np.asarray(self.evaluate(self._param(s)), dtype=float)

    def derivative(self, t, order=1):
        h = self.span * FD_STEP_FACTOR
        if self.jet is None:
            return differentiate(self._evaluate_at, t, order, h,
                                 domain=self.domain, closed=self.closed)
        if order == 1:
            return self.value_and_rate(t)[1]
        rate = lambda s: self.value_and_rate(s)[1]
        return differentiate(rate, t, order - 1, h, domain=self.domain, closed=self.closed)


def find_singular_params(plane: NormedPlane, curve: ParamCurve):
    """Parameters where the speed vanishes, refined between grid nodes.

    Returns the sorted parameters whose speed falls below SINGULAR_SPEED_FACTOR
    times the fastest sample. Candidate dips of the sampled speed are polished
    by golden section so singularities that fall between nodes are still found.
    """
    ts = curve.grid()
    speeds = plane.norm(curve.derivative(ts, 1))
    smax = float(np.max(speeds))
    step = curve.span / len(ts)
    beside = np.pad(speeds, 1, mode="wrap" if curve.closed else "edge")
    dips = (speeds <= 0.05 * smax) & (
        (speeds <= np.minimum(beside[:-2], beside[2:])) | (speeds <= 0.0))
    t_star, s_star = polish_dips(lambda t: float(plane.norm(curve.derivative(t, 1))),
                                 ts, np.nonzero(dips)[0], step, curve.domain, curve.closed)
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
        dz[flat] = differentiate(fallback, t[flat], 1, curve.span * FD_STEP_FACTOR,
                                 domain=curve.domain, closed=curve.closed)
    return z, dz


def _left_normal(plane: NormedPlane, curve: ParamCurve) -> NormalField:
    """normal_from_tangent(gamma') with its normal_jet rate."""

    def left(t):
        return plane.normal_from_tangent(curve.derivative(t, 1))

    return NormalField(left, curve.domain, curve.closed,
                       lambda t: normal_jet(plane, curve, t, *curve.derivative(t, (1, 2)),
                                            left))


def induced_normal(plane: NormedPlane, curve: ParamCurve) -> NormalField:
    """Left normal of a regular curve: unit, orthogonal-to-tangent, [eta, gamma'] > 0;
    extend_normal's field, refused with SingularPoint at any singular point."""
    if find_singular_params(plane, curve):
        raise SingularPoint("curve has singular points; its normal must be extended")
    return _left_normal(plane, curve)


def extend_normal(plane: NormedPlane, curve: ParamCurve) -> NormalField:
    """Left normal of the curve, kept smooth through isolated singular points.

    The left normal normal_from_tangent(gamma') flips sign wherever the
    normalized tangent does (an ordinary cusp); flips are located precisely
    and a sign function with those breakpoints makes the field smooth across
    each singularity. A curve without singular points gets the plain left
    normal. The field is not checked for continuity here: a corner shows as
    a jump of the pair's sampled tangent line (analysis.legendre_from_curve).
    """
    singular = find_singular_params(plane, curve)
    if not singular:
        return _left_normal(plane, curve)
    left = _left_normal(plane, curve).evaluate

    ts = curve.grid()
    (t0, t1), period = curve.domain, curve.period
    smax = float(np.max(plane.norm(curve.derivative(ts, 1))))
    step = curve.span / len(ts)
    offsets = (2.0 * step, step, 0.5 * step)

    def lateral(t_star, d):
        # derivatives at t_star -/+ d, their directions and the angle between
        # their tangent lines
        w = curve.derivative(t_star + np.array([-d, d]), 1)
        if np.min(plane.norm(w)) < SINGULAR_SPEED_FACTOR * smax:
            raise LimitsDisagree("singular points closer than two grid steps")
        u = w / np.linalg.norm(w, axis=1)[:, None]
        return w, u, float(np.arcsin(min(1.0, abs(symplectic(u[0], u[1])))))

    flips = []
    for t_star in singular:
        if not curve.closed and (t_star - offsets[0] < t0 or t_star + offsets[0] > t1):
            raise SingularPoint("singularity too close to an open endpoint")
        # the lateral tangent lines close linearly in the offset at a smooth
        # singularity, so the Richardson residual |2 g(d) - g(2d)| of the gap
        # shrinks faster than d; at a corner it does not shrink
        sides = [lateral(t_star, d) for d in offsets]
        g = [gap for _, _, gap in sides]
        coarse, fine = abs(2.0 * g[1] - g[0]), abs(2.0 * g[2] - g[1])
        if coarse > 1e-4 and fine > 0.5 * coarse:
            raise LimitsDisagree(
                "one-sided tangent directions are not parallel at the singularity")
        # the tangent reverses where its component along the left direction
        # changes sign; decide on the widest bracket whose right tangent lies
        # within 60 degrees of the left tangent's line, from the end values
        # the root search is seeded with
        for d, (w, u, _) in zip(offsets, sides):
            fa, fb = w @ u[0]
            if abs(fb) >= 0.5 * np.linalg.norm(w[1]):
                break
        else:
            raise LimitsDisagree(
                "the grid does not resolve whether the tangent reverses at the singularity")
        if fb < 0.0:
            f = lambda t, wa=u[0]: curve.derivative(t, 1) @ wa
            flips.append(brent_root(f, t_star - d, t_star + d, fa, fb, xtol=1e-12)[0])

    flips = np.sort(wrap(np.asarray(flips, dtype=float), t0, period))

    # orientation anchor: the raw left normal holds on the arc just after the
    # first singular parameter (counted cyclically from the domain start)
    sing_ts = np.asarray(singular, dtype=float)
    if curve.closed:
        sing_ts[sing_ts > t0 + period - 2.0 * step] -= period
    anchor = float(np.min(sing_ts)) + step
    base_parity = int(np.searchsorted(flips, wrap(anchor, t0, period), side="right"))

    def sign_of(t):
        par = np.searchsorted(flips, wrap(t, t0, period), side="right")
        return np.where((par - base_parity) % 2 == 0, 1.0, -1.0)[..., None]

    def signed(t):
        return left(t) * sign_of(t)

    delta = curve.span * 1e-6

    def from_tangent(t, w):
        # the field at t from gamma'(t) = w
        near = plane.norm(w) < 1e-6 * smax
        out = np.empty(t.shape + (2,))
        if np.any(~near):
            out[~near] = plane.normal_from_tangent(w[~near]) * sign_of(t[~near])
        if np.any(near):
            # symmetric average from both sides kills the O(delta) error
            mid = 0.5 * (signed(t[near] - delta) + signed(t[near] + delta))
            out[near] = mid / plane.norm(mid)[..., None]
        return out

    def evaluate(t):
        return from_tangent(t, curve.derivative(t, 1))

    h = curve.span * FD_STEP_FACTOR

    def jet(t):
        # away from the singular points one inversion of the supporting map
        # gives both parts; near them the averaged value and its difference
        w = curve.derivative(t, 1)
        far = plane.norm(w) >= 1e-3 * smax
        z = np.empty(t.shape + (2,))
        dz = np.empty(t.shape + (2,))
        if np.any(far):
            sign = sign_of(t[far])
            z_far, dz_far = normal_jet(plane, curve, t[far], w[far],
                                       curve.derivative(t[far], 2), left)
            z[far], dz[far] = z_far * sign, dz_far * sign
        if np.any(~far):
            z[~far] = from_tangent(t[~far], w[~far])
            dz[~far] = differentiate(evaluate, t[~far], 1, h,
                                     domain=curve.domain, closed=curve.closed)
        return z, dz

    return NormalField(evaluate, curve.domain, curve.closed, jet)

