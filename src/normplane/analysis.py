"""Curvature pairs of curve/normal pairs and their singular structure.

The central object is a pair (gamma, eta) with eta unit and orthogonal to
gamma' in the Birkhoff sense. Writing xi = b(eta) for the induced tangent
direction, the two scalar fields

    gamma'(t) = alpha(t) xi(t),        eta'(t) = kappa(t) xi(t)

classify everything observable: cusps are sign crossings of alpha,
inflections of kappa, vertices are critical points of alpha/kappa, and the
zigzag invariant of a closed generic front is computed three independent
ways from (alpha, kappa).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .curves import FD_STEP_FACTOR, NormalField, ParamCurve, _field, tangent_normal
from .errors import (
    BadParameter,
    DegenerateFrame,
    GeometryError,
    LimitsDisagree,
    MethodsDisagree,
    NotAFront,
    NotClosed,
    PreconditionViolated,
    ResidualViolation,
)
from .numerics import (differentiate, index_runs, merge_events, polish_dips, sign_crossings,
                       unwrap_mod, wrap)
from .plane import NormedPlane, symplectic

RESIDUAL_TOL = 1e-5
REL_ZERO = 1e-6          # relative threshold below which a sampled field counts as zero
NOISE_FLOOR = 1e-7       # relative noise floor for crossing admission

# steps for scalar finite differences relative to the span, per derivative
# order; higher orders use wider steps to stay above the roundoff floor of
# the evaluators
SCALAR_FD_STEPS = {1: FD_STEP_FACTOR, 2: 8e-4, 3: 3e-3}


def sampled_noise_floor(values):
    """Robust noise scale of a sampled signal via second differences.

    Smooth content contributes O(h^2) to the second difference, so the
    median-absolute estimate isolates evaluator noise (finite differences,
    interpolated inputs) without being fooled by genuine variation.
    """
    if len(values) < 8:
        return 0.0
    dd = np.diff(values, n=2)
    return 1.4826 * float(np.median(np.abs(dd))) / np.sqrt(6.0)


@dataclass
class LegendreCurve:
    """A validated (curve, unit normal) pair over one normed plane with its
    curvature pair: gamma' = alpha xi and eta' = kappa xi, xi = b(eta).

    `frame(t, rate)` evaluates the pair at an array t of parameters on the
    curve's domain: (gamma', eta), or (gamma', eta, eta') when `rate` is set,
    each part with the bits of gamma.derivative(t, 1), eta(t) and
    eta.value_and_rate(t).
    `alpha`, `kappa` and the normals are sampled on the grid `ts` in the pass
    that validated the pair; the methods evaluate the pair at any parameter,
    by one frame call at the parameter the curve puts on its domain.
    A parameter with the bits of a grid node reads the samples there, which
    are the bits its evaluation gives, since every evaluator works point by
    point; any other parameter, -0.0, NaN and a wrapped twin of a node
    included, is evaluated.
    """

    plane: NormedPlane
    gamma: ParamCurve
    eta: NormalField
    frame: Callable
    residual: float
    ts: np.ndarray
    alpha: np.ndarray
    kappa: np.ndarray
    normals: np.ndarray      # eta on ts

    @property
    def span(self):
        return self.gamma.span

    @property
    def domain(self):
        return self.gamma.domain

    @property
    def closed(self):
        return self.gamma.closed

    @property
    def period(self):
        return self.gamma.period

    def seam_gap(self, a, b):
        """|a - b|, measured the short way around the seam of a closed pair."""
        return np.abs(wrap(np.asarray(a, dtype=float) - b, -0.5 * self.span, self.period))

    @property
    def alpha_scale(self):
        return max(float(np.max(np.abs(self.alpha))), 1e-300)

    @property
    def kappa_scale(self):
        return max(float(np.max(np.abs(self.kappa))), 1e-300)

    def _pair_at(self, t, rate):
        """(alpha,), or (alpha, kappa) when rate is set, from one frame call."""
        d1, e, *e_rate = self.frame(self.gamma._wrap(t), rate)
        return _frame_values(e, self.plane.birkhoff(e), d1, *e_rate)

    def _read_grid(self, t, samples, evaluate):
        """The samples at the parameters of t that are grid nodes, bit for
        bit, and evaluate(s) at the others s, as a tuple of fields."""
        t = np.asarray(t, dtype=float)
        ts = self.ts
        with np.errstate(over="ignore"):     # a huge t is no node either
            pos = np.rint((t - ts[0]) * ((len(ts) - 1) / (ts[-1] - ts[0])))
        hit = (pos >= 0) & (pos < len(ts))
        i = np.where(hit, pos, 0).astype(np.intp)
        hit &= ts.view(np.int64)[i] == t.view(np.int64)
        if not np.any(hit):
            return evaluate(t)
        out = tuple(s[i] for s in samples)
        if not np.all(hit):
            for o, v in zip(out, evaluate(t[~hit])):
                o[~hit] = v
        return out

    def values_at(self, t):
        """(alpha(t), kappa(t)) from one frame with the normal's rate."""
        return self._read_grid(t, (self.alpha, self.kappa), lambda s: self._pair_at(s, True))

    def alpha_at(self, t):
        """alpha(t) from a frame without the normal's rate, bit for bit values_at(t)[0]."""
        return self._read_grid(t, (self.alpha,), lambda s: self._pair_at(s, False))[0]

    def kappa_at(self, t):
        return self.values_at(t)[1]

    def ratio_at(self, t):
        """alpha/kappa, the signed curvature radius field."""
        a, k = self.values_at(t)
        return a / k

    def rate_at(self, f, t, order=1):
        """Derivative of the given order of a field f along the pair, a
        finite difference at the step SCALAR_FD_STEPS[order] of the span."""
        return differentiate(f, t, order, self.span * SCALAR_FD_STEPS[order],
                             domain=self.domain, closed=self.closed)

    def ratio_rate_at(self, t):
        return self.rate_at(self.ratio_at, t)


def _frame_values(eta, xi, d1, *eta_rate):
    """alpha from gamma' = alpha xi, and kappa from eta' = kappa xi when the
    rate eta' is given; xi = b(eta)."""
    denom = symplectic(eta, xi)
    if np.any(denom < 1e-10):
        raise DegenerateFrame("[eta, xi] collapsed; plane tables corrupt")
    return tuple(symplectic(eta, v) / denom for v in (d1,) + eta_rate)


def make_legendre(plane: NormedPlane, gamma: ParamCurve, eta: NormalField,
                  residual_tol: float = RESIDUAL_TOL, frame=None) -> LegendreCurve:
    """Validate the pair and sample its curvature pair (see _validate) from
    one call of its frame (see LegendreCurve) on the grid; without one,
    gamma' and the normal are evaluated apart."""
    if frame is None:
        def frame(t, rate):
            return (gamma.derivative(t, 1), *(eta.value_and_rate(t) if rate else (eta(t),)))

    ts = gamma.grid()
    with np.errstate(all="ignore"):     # NaN and inf are refused by _validate, with no warning
        d1, e, e_rate = frame(ts, True)
        res, alpha, kappa, _ = _validate(plane, e, e_rate, d1, plane.norm(d1), residual_tol)
    return LegendreCurve(plane, gamma, eta, frame, res, ts, alpha, kappa, e)


def _validate(plane, e, e_rate, d1, speeds, residual_tol):
    """(residual, alpha, kappa, xi = b(eta)) of a pair, from eta, eta',
    gamma' and ||gamma'|| on its grid: check the unit constraint on eta and
    the orthogonality residual max |[gamma', b(eta)]| / (||gamma'|| + eps),
    and sample the curvature pair. Orthogonality is vacuous where gamma'
    vanishes, so points whose speed sits below the numerical noise floor of
    the pair (relative to the faster of gamma and eta) are excluded rather
    than divided through. NaN fails both checks, and a pair that is not
    finite on the grid is refused; the callers ignore floating-point errors.
    """
    unit_err = float(np.max(np.abs(plane.norm(e) - 1.0)))
    if not unit_err <= 1e-8:
        raise ResidualViolation(f"normal field is not unit (max error {unit_err:.2e})")
    xi = plane.birkhoff(e)
    # the floor only needs the magnitude of the pair's motion: coarse subgrid
    eta_speed = plane.norm(e_rate[:: max(1, len(e_rate) // 128)])
    floor = 1e-6 * max(float(np.max(speeds)), float(np.max(eta_speed)), 1e-300)
    vals = np.abs(symplectic(d1, xi)) / (speeds + 1e-12)
    vals[speeds < floor] = 0.0
    res = float(np.max(vals))
    if not res < residual_tol:
        raise ResidualViolation(f"orthogonality residual {res:.3e} exceeds {residual_tol:.1e}")

    alpha, kappa = _frame_values(e, xi, d1, e_rate)
    if not (np.all(np.isfinite(alpha)) and np.all(np.isfinite(kappa))):
        raise ResidualViolation("curvature pair is not finite on the grid")
    return res, alpha, kappa, xi


def _jumps(xi, closed):
    """Flags of the chords k, from xi[k] to xi[k + 1], across which the
    sampled unit tangent direction xi jumps: one chord, or two neighbouring
    chords, spanning more than 0.5 and each longer than 3 times the chords
    beside them. Beyond the ends of an open sequence the chords are 0."""
    if closed:
        xi = np.concatenate([xi, xi[:1]])
    # d[k + 2] is the chord from sample k to k + 1
    d = np.pad(np.diff(xi, axis=0), ((2, 2), (0, 0)), mode="wrap" if closed else "constant")
    size = np.hypot(d[:, 0], d[:, 1])
    left, first, second, right = size[1:-3], size[2:-2], size[3:-1], size[4:]
    span = np.hypot(*(d[2:-2] + d[3:-1]).T)
    return (((first > 0.5) & (first > 3.0 * np.maximum(left, second)))
            | ((span > 0.5) & (np.minimum(first, second) > 3.0 * np.maximum(left, right))))


def _jump_persists(plane, curve, eta, t, h):
    """Whether the tangent direction still jumps on the flagged chord or
    chord pair from t, of grid spacing h, sampled at a quarter of the spacing
    from t - h to t + 3h. Each line is that of a position secant, exact
    beside a corner, where a finite-difference gamma' would blur it across
    its stencil; b(eta) at the secant's middle orients it, so the secants
    that reverse through a cusp do not jump, and a corner that reverses the
    tangent does. Within a grid step of an open end a side may be shorter
    than a secant, and the jump is kept."""
    v = t + 0.25 * h * np.arange(-4.0, 13.0)
    if not curve.closed and (v[0] < curve.domain[0] or v[-1] > curve.domain[1]):
        return True
    secants = np.diff(curve.point(v), axis=0)
    side = np.sum(secants * plane.birkhoff(eta(0.5 * (v[:-1] + v[1:]))), axis=-1)
    u = secants * (np.sign(side) / np.hypot(*secants.T))[:, None]
    return not np.all(np.isfinite(u)) or np.any(_jumps(u, closed=False))


def legendre_from_curve(plane: NormedPlane, curve: ParamCurve) -> LegendreCurve:
    """Build the pair with the curve's left normal, extended through isolated
    singular points, and refuse it where its tangent line jumps. The jump is
    read on xi = b(eta), parallel to gamma' and so smooth under any norm,
    unlike eta, by the rule of _jumps. A corner between grid nodes makes one
    long chord; one on a node, whose tangent lies between the two sides,
    splits it in two. A coarse grid of a smooth tangent line has even chords
    (0.765 on the 8-sample circle), but one that does not resolve a sharp
    turn shows a jump there too, so a flagged chord is refused only if the
    jump is still there at a finer spacing (_jump_persists)."""
    ts = curve.grid()
    d1, d2 = curve.derivative(ts, (1, 2))
    speeds = plane.norm(d1)
    value, jet = tangent_normal(plane, curve, ts, d1, speeds)

    def frame(t, rate):
        if rate:
            w, dw = curve.derivative(t, (1, 2))
            return (w, *jet(t, w, dw))
        w = curve.derivative(t, 1)
        return w, value(t, w)

    eta = _field(curve, value, jet)
    with np.errstate(all="ignore"):     # NaN and inf are refused below, with no warning
        e, e_rate = jet(ts, d1, d2)
        res, alpha, kappa, xi = _validate(plane, e, e_rate, d1, speeds, RESIDUAL_TOL)
        for k in np.nonzero(_jumps(xi, curve.closed))[0]:
            if _jump_persists(plane, curve, eta, ts[k], ts[1] - ts[0]):
                raise LimitsDisagree(
                    f"normal field jumps after t = {float(ts[k]):.6g}: tangent lines do not join")
    return LegendreCurve(plane, curve, eta, frame, res, ts, alpha, kappa, e)


def curvature_pair(L: LegendreCurve) -> LegendreCurve:
    """The pair itself: (alpha, kappa) of gamma' = alpha xi and
    eta' = kappa xi, sampled on the grid when the pair was validated."""
    return L


def circular_curvature(cp: LegendreCurve) -> np.ndarray:
    """kappa/alpha where alpha is resolvably nonzero, NaN elsewhere."""
    mask = np.abs(cp.alpha) > REL_ZERO * cp.alpha_scale
    out = np.full_like(cp.alpha, np.nan)
    out[mask] = cp.kappa[mask] / cp.alpha[mask]
    return out


@dataclass
class ProjectiveCurvatureMap:
    """Continuous angle lift of the direction [alpha : kappa]."""

    theta: np.ndarray
    total_change: float


def projective_curvature_map(cp: LegendreCurve) -> ProjectiveCurvatureMap:
    raw = np.arctan2(cp.kappa, cp.alpha)
    theta = unwrap_mod(raw, np.pi)
    jumps = np.abs(np.diff(theta))
    closing = 0.0
    if cp.closed:
        closing = ((raw[0] - theta[-1]) + np.pi / 2.0) % np.pi - np.pi / 2.0
        jumps = np.append(jumps, abs(closing))
    if np.max(jumps) > np.pi / 2.0 - 1e-9:
        raise MethodsDisagree("projective lift under-resolved; refine the grid")
    total = (theta[-1] + closing) - theta[0] if cp.closed else theta[-1] - theta[0]
    return ProjectiveCurvatureMap(theta, float(total))


@dataclass
class Cusp:
    t: float
    kind: str          # zig | zag
    alpha_rate: float


@dataclass
class Inflection:
    t: float
    kind: str          # flip | flop


@dataclass
class Vertex:
    t: float
    regular: bool


@dataclass
class SingularityReport:
    cusps: list
    inflections: list
    vertices: list
    maslov: Optional[dict]
    counts: dict
    is_immersion: bool
    maslov_error: Optional[GeometryError] = None   # why maslov is None; not reported

    def to_json_dict(self):
        return {
            "cusps": [{"t": c.t, "type": c.kind, "alpha_prime": c.alpha_rate}
                      for c in self.cusps],
            "inflections": [{"t": i.t, "type": i.kind} for i in self.inflections],
            "vertices": [{"t": v.t, "regular": bool(v.regular)} for v in self.vertices],
            "maslov": self.maslov,
            "counts": self.counts,
            "is_front": True,   # _require_front refuses a pair that is not
            "is_immersion": bool(self.is_immersion),
        }


def _immersion_gap(cp: LegendreCurve):
    """Smallest joint magnitude of (alpha, kappa), refined between nodes."""
    def rel(a, k):
        return np.maximum(np.abs(a) / cp.alpha_scale, np.abs(k) / cp.kappa_scale)

    grid = rel(cp.alpha, cp.kappa)
    j = int(np.argmin(grid))
    best, t_best = float(grid[j]), float(cp.ts[j])
    if best > 1e-3:
        return best, t_best
    t_star, r_star = polish_dips(lambda t: rel(*cp.values_at(t)), cp.ts,
                                 np.nonzero(grid <= min(1e-3, 10.0 * best))[0],
                                 cp.span / len(cp.ts), cp.domain, cp.closed)
    k = int(np.argmin(r_star))
    if r_star[k] < best:
        best, t_best = float(r_star[k]), float(t_star[k])
    return best, t_best


def _require_front(cp: LegendreCurve):
    gap, t_bad = _immersion_gap(cp)
    if gap < REL_ZERO:
        raise NotAFront(f"alpha and kappa both vanish near t = {t_bad:.6g}")


def _detect_cusps(cp: LegendreCurve):
    """Refined alpha crossings split into ordinary cusps and degenerate zeros."""
    floor = max(NOISE_FLOOR * cp.alpha_scale, sampled_noise_floor(cp.alpha))
    roots = sign_crossings(cp.ts, cp.alpha, floor, cp.alpha_at, period=cp.period)
    arate_scale = max(float(np.max(np.abs(
        np.gradient(cp.alpha, cp.ts)))), 1e-300)
    cusps, degenerate = [], []
    if roots:
        rates = cp.rate_at(cp.alpha_at, np.asarray(roots)).tolist()
        kvals = cp.kappa_at(np.asarray(roots)).tolist()
        for t, da, kv in zip(roots, rates, kvals):
            if abs(da) > REL_ZERO * arate_scale and abs(kv) > REL_ZERO * cp.kappa_scale:
                cusps.append(Cusp(t, "zig" if kv > 0.0 else "zag", da))
            else:
                degenerate.append(t)
    # alpha zeros that are not sign crossings (even-order contact) are
    # singular too; refine the deepest dip of each |alpha| valley not already
    # known and keep those where alpha' vanishes as well
    dip_idx = np.nonzero(np.abs(cp.alpha) <= 1e-3 * cp.alpha_scale)[0]
    known = np.asarray([c.t for c in cusps] + degenerate, dtype=float)
    step = cp.span / len(cp.ts)
    groups = index_runs(dip_idx, len(cp.ts), cp.closed)
    deepest = [grp[int(np.argmin(np.abs(cp.alpha[grp])))] for grp in groups]
    fresh = [i for i in deepest
             if not (known.size and np.min(cp.seam_gap(known, cp.ts[i])) < 4.0 * step)]
    t_star, a_star = polish_dips(lambda t: np.abs(cp.alpha_at(t)), cp.ts, fresh, step,
                                 cp.domain, cp.closed)
    zeros = t_star[a_star <= REL_ZERO * cp.alpha_scale]
    if zeros.size:
        rates = np.abs(cp.rate_at(cp.alpha_at, zeros))
        degenerate += zeros[rates <= REL_ZERO * arate_scale].tolist()
    return cusps, merge_events(degenerate, 4.0 * step, cp.domain[0], cp.period)


def _detect_inflections(cp: LegendreCurve):
    floor = max(NOISE_FLOOR * cp.kappa_scale, sampled_noise_floor(cp.kappa))
    roots = sign_crossings(cp.ts, cp.kappa, floor, cp.kappa_at, period=cp.period)
    if not roots:
        return []
    avals = cp.alpha_at(np.asarray(roots)).tolist()
    rates = cp.rate_at(cp.kappa_at, np.asarray(roots)).tolist()
    return [Inflection(t, "flip" if av * dk > 0.0 else "flop")
            for t, av, dk in zip(roots, avals, rates)
            if abs(av) > REL_ZERO * cp.alpha_scale]


def _detect_vertices(cp: LegendreCurve, degenerate_singular):
    """Critical points of alpha/kappa on windows where kappa is resolvable."""
    ok = np.abs(cp.kappa) > REL_ZERO * cp.kappa_scale
    roots = []
    all_vertices = False
    if np.all(ok):
        g_rate = cp.ratio_rate_at(cp.ts)
        g_scale = max(float(np.max(np.abs(cp.alpha / cp.kappa))), 1.0)
        noise = max(1e-7 * float(np.max(np.abs(g_rate))),
                    1e-12 * g_scale / cp.span,
                    sampled_noise_floor(g_rate))
        if np.max(np.abs(g_rate)) <= max(1e-6 * g_scale / cp.span, 10.0 * noise):
            # resolution-limited constant ratio: every parameter is critical
            all_vertices = True
        else:
            roots = sign_crossings(cp.ts, g_rate, noise, cp.ratio_rate_at,
                                   period=cp.period)
    else:
        # vertex search restricted to contiguous windows of resolvable kappa
        for blk in index_runs(np.nonzero(ok)[0], len(cp.ts), cp.closed):
            if len(blk) < 9:
                continue
            tw = cp.ts[blk % len(cp.ts)] + np.where(blk < 0, -cp.span, 0.0)
            g_rate = cp.ratio_rate_at(tw[4:-4])
            noise = max(1e-7 * float(np.max(np.abs(g_rate))),
                        sampled_noise_floor(g_rate), 1e-300)
            roots += [wrap(t, cp.domain[0], cp.period) for t in
                      sign_crossings(tw[4:-4], g_rate, noise, cp.ratio_rate_at)]
    verts = []
    if roots:
        avals = cp.alpha_at(np.asarray(roots)).tolist()
        verts = [Vertex(t, abs(av) > REL_ZERO * cp.alpha_scale)
                 for t, av in zip(roots, avals)]
    # a degenerate singular point is itself a vertex; keep one entry when the
    # crossing scan already found it
    tol = 1e-6 * cp.span
    for t in degenerate_singular:
        verts = [v for v in verts if cp.seam_gap(v.t, t) > tol]
        verts.append(Vertex(t, False))
    verts.sort(key=lambda v: v.t)
    return verts, all_vertices


def _reduce_cyclic_word(letters):
    stack = []
    for ch in letters:
        if stack and stack[-1] == ch:
            stack.pop()
        else:
            stack.append(ch)
    # what is left alternates, so an even-length word (odd ones are refused
    # before the call) ends in two different letters: cyclically reduced too
    return len(stack) // 2


def maslov_index(L: LegendreCurve) -> dict:
    """Zigzag invariant of a closed front, three independent ways.

    word_reduction counts the reduced alternating zig/zag word; flip_flop is
    half the flip/flop imbalance; rotation counts full turns of the
    projective direction [alpha : kappa] (one turn per 2 pi of angle lift,
    since the projective line is covered twice per turn of the plane).
    Raises MethodsDisagree on any pairwise mismatch.
    """
    if not L.closed:
        raise NotClosed("the zigzag invariant needs a closed front")
    rep = singularity_report(L)
    if rep.maslov is None:
        raise rep.maslov_error
    return rep.maslov


def _zigzag_word(cusps, degenerate):
    """Reduced zig/zag word length of a closed front's cusps."""
    if degenerate:
        raise NotAFront("degenerate singular points present; front is not generic")
    if len(cusps) % 2 != 0:
        raise MethodsDisagree("odd cusp count on a closed front; grid too coarse")
    return _reduce_cyclic_word(["a" if c.kind == "zig" else "b" for c in cusps])


def _zigzag_invariant(cp: LegendreCurve, word: int, infl) -> dict:
    """Check the word against the flip/flop and rotation counts (see
    maslov_index) and return all three."""
    n_flip = sum(1 for i in infl if i.kind == "flip")
    n_flop = sum(1 for i in infl if i.kind == "flop")
    if (n_flip - n_flop) % 2 != 0:
        raise MethodsDisagree("odd flip/flop imbalance; grid too coarse")
    flip_flop = abs(n_flip - n_flop) // 2

    lift = projective_curvature_map(cp)
    turns = abs(lift.total_change) / (2.0 * np.pi)
    rotation = int(round(turns))
    if abs(turns - rotation) > 0.05:
        raise MethodsDisagree("projective rotation is far from an integer")

    if not (word == flip_flop == rotation):
        raise MethodsDisagree(
            f"zigzag computations disagree: word={word} flips={flip_flop} "
            f"rotation={rotation}")
    return {"word_reduction": word, "flip_flop": flip_flop, "rotation": rotation}


def singularity_report(L: LegendreCurve) -> SingularityReport:
    """Full singular-structure classification of a validated pair."""
    cp = curvature_pair(L)
    _require_front(cp)

    cusps, degenerate = _detect_cusps(cp)
    inflections = _detect_inflections(cp)
    vertices, all_vertices = _detect_vertices(cp, degenerate)

    maslov, maslov_error = None, NotClosed("the zigzag invariant needs a closed front")
    if L.closed:
        try:
            maslov, maslov_error = _zigzag_invariant(
                cp, _zigzag_word(cusps, degenerate), inflections), None
        except (NotAFront, MethodsDisagree) as exc:
            maslov_error = exc

    counts = {
        "cusps": len(cusps),
        "zigs": sum(1 for c in cusps if c.kind == "zig"),
        "zags": sum(1 for c in cusps if c.kind == "zag"),
        "inflections": len(inflections),
        "flips": sum(1 for i in inflections if i.kind == "flip"),
        "flops": sum(1 for i in inflections if i.kind == "flop"),
        "vertices": len(vertices),
        "degenerate_singular": len(degenerate),
        "all_vertices": bool(all_vertices),
        "genericity_verified": False,
    }
    return SingularityReport(cusps, inflections, vertices, maslov, counts,
                             is_immersion=not (cusps or degenerate),
                             maslov_error=maslov_error)


def _pair_derivatives(L: LegendreCurve, t: float, order: int):
    """Derivatives 0..order of the curve and of its normal at t, each
    refused unless finite."""
    out = []
    for value, derivative in ((L.gamma.point, L.gamma.derivative), (L.eta, L.eta.derivative)):
        d = np.asarray([value(t)] + [derivative(t, k) for k in range(1, order + 1)])
        if not np.all(np.isfinite(d)):
            raise BadParameter("jet entries must be finite")
        out.append(d)
    return out


def contact_order(L1: LegendreCurve, t0: float, L2: LegendreCurve, u0: float,
                  kmax: int = 4) -> int:
    """Largest j <= kmax with pair derivatives 0..j-1 agreeing componentwise."""
    if not 1 <= kmax <= 4:
        raise BadParameter("kmax must be between 1 and 4")
    g1, e1 = _pair_derivatives(L1, t0, kmax - 1)
    g2, e2 = _pair_derivatives(L2, u0, kmax - 1)
    scale = max(float(np.max(np.abs(np.concatenate([g1, e1, g2, e2])))), 1e-300)
    tol = 1e-5 * scale
    j = 0
    while j < kmax:
        if np.max(np.abs(g1[j] - g2[j])) > tol or np.max(np.abs(e1[j] - e2[j])) > tol:
            break
        j += 1
    return j


def contact_implies_curvature_match(L1: LegendreCurve, t0: float,
                                    L2: LegendreCurve, u0: float, k: int) -> dict:
    """Residuals of d^j (alpha, kappa) across two pairs for j = 0..k-1.

    Requires contact of order at least k at the matched parameters.
    """
    if contact_order(L1, t0, L2, u0, kmax=k) < k:
        raise PreconditionViolated("pairs do not have the required contact order")
    residuals = {}
    for j in range(k):
        vals = []
        for L, t in ((L1, t0), (L2, u0)):
            if j == 0:
                a, kk = float(L.alpha_at(t)), float(L.kappa_at(t))
            else:
                a = float(L.rate_at(L.alpha_at, t, j))
                kk = float(L.rate_at(L.kappa_at, t, j))
            vals.append((a, kk))
        residuals[j] = max(abs(vals[0][0] - vals[1][0]), abs(vals[0][1] - vals[1][1]))
    return {"order": k, "residuals": residuals}


def transfer_legendre(L: LegendreCurve, plane2: NormedPlane) -> LegendreCurve:
    """Re-normalize the pair for another norm; gamma is untouched."""
    plane1 = L.plane

    def evaluate(t):
        return plane2.normal_from_tangent(plane1.birkhoff(L.eta(t)))

    eta2 = NormalField(evaluate, L.gamma.domain, L.gamma.closed)
    return make_legendre(plane2, L.gamma, eta2)
