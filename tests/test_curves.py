import numpy as np
import pytest

from normplane import catalog
from normplane.analysis import contact_order, legendre_from_curve, make_legendre
from normplane.curves import (
    SINGULAR_SPEED_FACTOR,
    NormalField,
    ParamCurve,
    extend_normal,
    find_singular_params,
    induced_normal,
    normal_jet,
)
from normplane.errors import BadParameter, LimitsDisagree, OutOfDomain, SingularPoint
from normplane.numerics import differentiate, fd_weights, golden_minimize, merge_events
from normplane.plane import NormSpec, build_plane
from normplane.synthesis import SynthesisSpec, synthesize
from oracles import grid_speeds, is_birkhoff_orthogonal

TWO_PI = 2.0 * np.pi


def _plain(curve):
    """Strip analytic derivatives to exercise the finite-difference path."""
    return ParamCurve(curve.position, curve.domain, curve.closed,
                      samples=curve.samples)


def test_fd_weights_match_classical_stencils():
    assert np.allclose(fd_weights(np.array([-2.0, -1.0, 1.0, 2.0]), 1) * 12.0,
                       [1.0, -8.0, 8.0, -1.0])
    assert np.allclose(fd_weights(np.arange(-2.0, 3.0), 2) * 12.0,
                       [-1.0, 16.0, -30.0, 16.0, -1.0])
    assert np.allclose(fd_weights(np.arange(0.0, 5.0), 1) * 12.0,
                       [-25.0, 48.0, -36.0, 16.0, -3.0])


def test_derivative_circle_first_order():
    c = _plain(catalog.circle())
    assert np.max(np.abs(c.derivative(0.0, 1) - np.array([0.0, 1.0]))) < 1e-10


def test_catalog_circle_is_the_literal_cosine_and_sine():
    c = catalog.circle()
    t = np.linspace(-1.0, 7.0, 1001)
    cos, sin = np.cos(t), np.sin(t)
    assert c.name == "circle" and c.domain == (0.0, TWO_PI) and c.closed
    assert len(c.derivatives) == 3
    d1, d2, d3 = (d(t) for d in c.derivatives)
    for got, want in ((c.position(t), (cos, sin)), (d1, (-sin, cos)),
                      (d2, (-cos, -sin)), (d3, (sin, -cos))):
        want = np.stack(want, axis=-1)
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_derivative_astroid_hand_value():
    c = _plain(catalog.astroid())
    got = c.derivative(np.pi / 4.0, 1)
    want = np.array([-3.0 / (2.0 * np.sqrt(2.0)), 3.0 / (2.0 * np.sqrt(2.0))])
    assert np.max(np.abs(got - want)) < 1e-8


def test_derivative_third_order_polynomial():
    c = _plain(catalog.cusp_t2t3())
    assert np.max(np.abs(c.derivative(0.0, 3) - np.array([0.0, 6.0]))) < 1e-6
    # one-sided stencils at the open endpoints
    assert np.max(np.abs(c.derivative(-1.0, 3) - np.array([0.0, 6.0]))) < 1e-3
    assert np.max(np.abs(c.derivative(1.0, 2) - np.array([2.0, 6.0]))) < 1e-6


def test_derivative_halving_step_gains_16x():
    f = lambda t: np.sin(np.asarray(t))
    errs = []
    for h in (2e-2, 1e-2):
        got = differentiate(f, 1.0, 1, h)
        errs.append(abs(got - np.cos(1.0)))
    assert errs[0] / errs[1] > 8.0


def test_derivative_out_of_domain():
    c = catalog.cusp_t2t3()
    with pytest.raises(OutOfDomain):
        c.derivative(2.0, 1)
    with pytest.raises(BadParameter):
        c.derivative(0.0, 4)


def test_closed_curve_seam_validated():
    with pytest.raises(BadParameter, match="closed curve endpoints differ by 1.995"):
        ParamCurve(lambda t: np.stack([np.cos(t), np.sin(t)], -1), (0.0, 3.0),
                   closed=True)
    # (cos t, sin t + 1e-8 t) misses its start by 2 pi 1e-8 > 1e-9
    with pytest.raises(BadParameter, match="closed curve endpoints differ by 6.283e-08"):
        ParamCurve(lambda t: np.stack([np.cos(t), np.sin(t) + 1e-8 * t], -1),
                   (0.0, TWO_PI), closed=True)


def _drop(t):
    """x = t (2 pi - t), y = sin t: both ends at the origin, gamma' = (2 pi, 1)
    at t = 0 and (-2 pi, 1) at t = 2 pi."""
    return np.stack([t * (TWO_PI - t), np.sin(t)], -1)


def _drop_d1(t):
    return np.stack([TWO_PI - 2.0 * t, np.cos(t)], -1)


@pytest.mark.parametrize("derivatives", [(_drop_d1,), ()], ids=["analytic", "fd"])
def test_closed_curve_derivative_seam_is_read_at_both_ends(derivatives):
    # the check must not wrap t1 to t0, which compares gamma'(t0) with itself
    with pytest.raises(BadParameter, match="closed curve derivative seam mismatch"):
        ParamCurve(_drop, (0.0, TWO_PI), closed=True, derivatives=derivatives)
    open_drop = ParamCurve(_drop, (0.0, TWO_PI), derivatives=derivatives)
    assert np.allclose(open_drop.derivative(np.array([0.0, TWO_PI]), 1),
                       [[TWO_PI, 1.0], [-TWO_PI, 1.0]])


def test_induced_normal_circle(euclidean):
    nf = induced_normal(euclidean, catalog.circle())
    ts = np.linspace(0.0, TWO_PI, 64, endpoint=False)
    want = np.stack([np.cos(ts), np.sin(ts)], -1)
    assert np.max(np.abs(nf(ts) - want)) < 1e-9


def test_induced_normal_l3_self_circle(l3):
    nf = induced_normal(l3, catalog.unit_circle_of_norm(l3))
    ts = np.linspace(0.0, TWO_PI, 64, endpoint=False)
    assert np.max(np.abs(nf(ts) - l3.circle_point(ts))) < 1e-6


def test_induced_normal_rejects_singular_curve(euclidean, l3):
    # also where extending the normal would fail: at the singular corner of
    # (t|t|, t^2) and at cusps two grid steps apart
    for plane, curve in ((euclidean, catalog.cusp_t2t3()), (euclidean, _kink_analytic(256)),
                         (l3, catalog.astroid(samples=8))):
        with pytest.raises(SingularPoint):
            induced_normal(plane, curve)


def test_induced_normal_satisfies_oracle(euclidean, l3, fourier_oval):
    curve = catalog.ellipse(1.7, 0.9)
    rng = np.random.default_rng(2)
    ts = rng.uniform(0.0, TWO_PI, 64)
    for plane in (euclidean, l3, fourier_oval):
        nf = induced_normal(plane, curve)
        etas = nf(ts)
        d1 = curve.derivative(ts, 1)
        for e, w in zip(etas, d1):
            assert is_birkhoff_orthogonal(plane, e, w)


def test_closed_normal_field_wraps_its_parameter():
    # the lp1.5 circle's own table misses closing by about 3e-9 at t = 2 pi
    field = catalog.unit_circle_normal(build_plane(NormSpec("lp", p=1.5)))
    t0, t1 = field.domain
    assert np.array_equal(field(t1), field(t0))
    assert np.array_equal(np.stack(field.value_and_rate(t1)),
                          np.stack(field.value_and_rate(t0)))
    # shifts by the span that are exact in floating point
    t = np.array([0.25, 1.0, 1.5])
    assert np.array_equal(field(t + field.span), field(t))
    assert np.array_equal(field(t - field.span), field(t))
    assert np.array_equal(field.derivative(t + field.span), field.derivative(t))


@pytest.mark.parametrize("jet", [True, False], ids=["jet", "stencil"])
def test_open_normal_field_keeps_its_curve_domain(euclidean, jet):
    # a field on an open domain used to extrapolate where its curve refused
    ones = lambda t: np.ones_like(np.asarray(t, dtype=float))
    L = synthesize(euclidean, SynthesisSpec(ones, ones, (0.0, 0.0), (1.0, 0.0), (0.0, 3.0)))
    eta = L.eta if jet else NormalField(L.eta.evaluate, L.eta.domain, L.eta.closed)
    assert not eta.closed and eta.domain == L.gamma.domain == (0.0, 3.0)
    for call in (L.gamma.point, eta, eta.value_and_rate, eta.derivative):
        with pytest.raises(OutOfDomain):
            call(100.0)
        with pytest.raises(OutOfDomain):
            call(np.array([1.0, -1.0]))
    # within 1e-9 of the span the parameter is clipped, as the curve's is
    assert np.array_equal(L.gamma.point(3.0 + 1e-12), L.gamma.point(3.0))
    assert np.array_equal(eta(3.0 + 1e-12), eta(3.0))
    assert np.array_equal(eta(np.array([-1e-12, 3.0 + 1e-12])), eta(np.array([0.0, 3.0])))


def _singular_params_node_loop(plane, curve):
    """Reference: the candidate nodes picked one by one, then polished and
    merged. A candidate is a speed dip (the first node of a tie) or the slower
    node of a chord across which gamma' reverses (its first node on a tie)."""
    ts = curve.grid()
    n = len(ts)
    d1 = curve.derivative(ts, 1)
    speeds = plane.norm(d1)
    smax, step = float(np.max(speeds)), curve.span / n
    found = []
    for i in range(n):
        im = (i - 1) % n if curve.closed else i - 1
        ip = (i + 1) % n if curve.closed else i + 1
        left = speeds[im] if im >= 0 else np.inf
        right = speeds[ip] if ip < n else np.inf
        dip = speeds[i] <= 0.05 * smax and (
            (speeds[i] < left and speeds[i] <= right) or speeds[i] <= 0.0)
        slower_end = ((ip < n and d1[i] @ d1[ip] < 0.0 and speeds[i] <= speeds[ip])
                      or (im >= 0 and d1[im] @ d1[i] < 0.0 and speeds[i] < speeds[im]))
        if not (dip or slower_end):
            continue
        lo = ts[i] - step if (curve.closed or i > 0) else ts[i]
        hi = ts[i] + step if (curve.closed or i < n - 1) else ts[i]
        t_star, s_star = golden_minimize(lambda t: float(plane.norm(curve.derivative(t, 1))),
                                         lo, hi)
        if s_star < SINGULAR_SPEED_FACTOR * smax:
            found.append(t_star)
    return merge_events(found, 2.0 * step, curve.domain[0], curve.period)


@pytest.mark.parametrize("make", [
    lambda: catalog.astroid(samples=256),
    lambda: catalog.astroid(samples=33),
    lambda: catalog.cusp_t2t3(samples=255),
    lambda: catalog.circle(samples=64),
    lambda: ParamCurve(lambda t: np.stack([t ** 2 + 1e-4 * t, t ** 3], -1), (0.0, 1.0),
                       samples=64),
], ids=["astroid", "astroid-33", "t2t3", "circle", "endpoint-dip"])
def test_find_singular_params_matches_the_node_loop(euclidean, l3, make):
    for plane in (euclidean, l3):
        curve = make()
        assert (find_singular_params(plane, curve, *grid_speeds(plane, curve))
                == _singular_params_node_loop(plane, curve))


def test_find_singular_params_between_nodes(euclidean):
    curve = catalog.cusp_t2t3()
    found = find_singular_params(euclidean, curve, *grid_speeds(euclidean, curve))
    assert len(found) == 1
    assert abs(found[0]) < 1e-8


def test_extend_normal_astroid(euclidean):
    curve = catalog.astroid()
    nf = extend_normal(euclidean, curve, *grid_speeds(euclidean, curve))
    ts = np.linspace(0.0, TWO_PI, 257)
    want = np.stack([np.sin(ts), np.cos(ts)], -1)
    assert np.max(np.abs(nf(ts) - want)) < 1e-7
    # smooth through every cusp, including the wrap point
    for t0 in (0.0, np.pi / 2.0, np.pi, 3.0 * np.pi / 2.0):
        assert np.max(np.abs(nf(t0) - np.array([np.sin(t0), np.cos(t0)]))) < 1e-7


def test_extend_normal_t2t3(euclidean):
    curve = catalog.cusp_t2t3()
    nf = extend_normal(euclidean, curve, *grid_speeds(euclidean, curve))
    ts = np.linspace(-0.95, 0.95, 41)
    want = np.stack([3.0 * ts, -2.0 * np.ones_like(ts)], -1)
    want /= np.sqrt(4.0 + 9.0 * ts ** 2)[:, None]
    assert np.max(np.abs(nf(ts) - want)) < 1e-7


def test_extend_normal_corner_rejected(euclidean):
    corner = ParamCurve(lambda t: np.stack([np.abs(t), np.asarray(t)], -1),
                        (-1.0, 1.0))
    with pytest.raises(LimitsDisagree):
        legendre_from_curve(euclidean, corner)


def test_extend_equals_induced_on_regular_curves(euclidean, l3, fourier_oval):
    # with no singular point both fields are normal_from_tangent(gamma') with
    # the jet of normal_jet, bit for bit
    curve = catalog.ellipse(1.3, 0.8)
    ts = np.linspace(0.0, TWO_PI, 128, endpoint=False)
    for plane in (euclidean, l3, fourier_oval):
        left = lambda s: plane.normal_from_tangent(curve.derivative(s, 1))
        z, dz = normal_jet(plane, curve, ts, curve.derivative(ts, 1),
                           curve.derivative(ts, 2), left)
        for eta in (induced_normal(plane, curve),
                    extend_normal(plane, curve, *grid_speeds(plane, curve))):
            value, rate = eta.value_and_rate(ts)
            assert np.array_equal(eta(ts), left(ts))
            assert np.array_equal(value, z) and np.array_equal(rate, dz)
            assert np.array_equal(eta(ts[5]), eta(ts)[5])


def test_normal_sign_convention_left(euclidean):
    from normplane.plane import symplectic
    curve = catalog.ellipse(1.3, 0.8)
    nf = induced_normal(euclidean, curve)
    ts = np.linspace(0.0, TWO_PI, 128, endpoint=False)
    assert np.all(symplectic(nf(ts), curve.derivative(ts, 1)) > 0.0)


def test_legendre_residual_values(euclidean, astroid_pair):
    circle = catalog.circle()
    good = NormalField(lambda t: np.stack([np.cos(t), np.sin(t)], -1),
                       (0.0, TWO_PI), True)
    bad = NormalField(lambda t: np.stack([-np.sin(t), np.cos(t)], -1),
                      (0.0, TWO_PI), True)
    assert make_legendre(euclidean, circle, good, np.inf).residual < 1e-8
    assert make_legendre(euclidean, circle, bad, np.inf).residual > 0.5
    assert make_legendre(euclidean, astroid_pair.gamma, astroid_pair.eta,
                         np.inf).residual < 1e-6


def test_contact_order_reads_finite_derivatives_up_to_kmax(euclidean):
    # a circle whose third derivative is NaN: contact to order 3 reads the
    # derivatives up to the second only, order 4 reads the NaN and is refused
    circle = ParamCurve(lambda t: np.stack([np.cos(t), np.sin(t)], -1), (0.0, TWO_PI),
                        closed=True,
                        derivatives=(lambda t: np.stack([-np.sin(t), np.cos(t)], -1),
                                     lambda t: np.stack([-np.cos(t), -np.sin(t)], -1),
                                     lambda t: np.full(np.shape(t) + (2,), np.nan)),
                        samples=64)
    L = legendre_from_curve(euclidean, circle)
    assert contact_order(L, 0.5, L, 0.5, kmax=3) == 3
    with pytest.raises(BadParameter, match="finite"):
        contact_order(L, 0.5, L, 0.5, kmax=4)
    for kmax in (0, 5):
        with pytest.raises(BadParameter, match="kmax"):
            contact_order(L, 0.5, L, 0.5, kmax=kmax)


def test_extended_normal_rate_keeps_its_sign_at_flat_directions(l3):
    # cusp_t2t3 turned by 30 degrees: at t_flat < 0, where the extended field
    # carries sign -1, the tangent is horizontal and its lp3 normal sits at an
    # axis point of zero turning, so the rate falls back to a finite difference
    c, s = np.cos(np.pi / 6.0), np.sin(np.pi / 6.0)

    def turned(x, y):
        return np.stack([c * x - s * y, s * x + c * y], axis=-1)

    curve = ParamCurve(
        lambda t: turned(np.asarray(t) ** 2, np.asarray(t) ** 3), (-1.0, 1.0),
        derivatives=(lambda t: turned(2.0 * np.asarray(t), 3.0 * np.asarray(t) ** 2),
                     lambda t: turned(2.0 + 0.0 * np.asarray(t), 6.0 * np.asarray(t))))
    eta = extend_normal(l3, curve, *grid_speeds(l3, curve))
    t_flat = -np.tan(np.pi / 6.0) / 1.5
    w, dw = curve.derivative(t_flat, 1), curve.derivative(t_flat, 2)
    assert abs(l3.normal_from_tangent_with_derivative(w, dw)[2]) < 1e-6
    want = differentiate(eta, t_flat, 1, curve.span * 1e-4,
                         domain=curve.domain, closed=False)
    assert np.allclose(eta.derivative(t_flat, 1), want, rtol=1e-12, atol=0.0)


def test_extended_normal_jet_inverts_the_supporting_map_once_per_point(l3, monkeypatch):
    curve = catalog.cusp_t2t3()
    eta = extend_normal(l3, curve, *grid_speeds(l3, curve))
    ts = np.linspace(0.2, 0.9, 50)
    points = []
    invert = l3.tangent_theta
    monkeypatch.setattr(l3, "tangent_theta",
                        lambda chi: points.append(np.size(chi)) or invert(chi))
    value, _ = eta.value_and_rate(ts)
    assert sum(points) == len(ts)
    monkeypatch.undo()
    assert np.array_equal(value, eta(ts))


def _corner(n):
    return ParamCurve(lambda t: np.stack([np.abs(t), np.asarray(t)], -1),
                      (-1.0, 1.0), samples=n)


def _kink(n):
    # singular at t = 0, where gamma' = (2|t|, 2t) turns by a right angle
    return ParamCurve(lambda t: np.stack([t * np.abs(t), np.asarray(t) ** 2], -1),
                      (-1.0, 1.0), samples=n)


def _kink_analytic(n):
    # the same corner with its analytic gamma', so that the search finds it
    return ParamCurve(_kink(n).position, (-1.0, 1.0), samples=n,
                      derivatives=(lambda t: np.stack([2.0 * np.abs(t), 2.0 * np.asarray(t)], -1),))


def _turn_corner(n):
    # singular at t = 0, where the analytic gamma' turns by 160 degrees:
    # gamma = -t^2 (1, 0) before and t^2 (cos 160, sin 160) after
    d_out = np.array([np.cos(np.radians(160.0)), np.sin(np.radians(160.0))])
    side = lambda t: np.where(np.asarray(t)[..., None] < 0.0, np.array([-1.0, 0.0]), d_out)
    return ParamCurve(lambda t: np.asarray(t)[..., None] ** 2 * side(t), (-1.0, 1.0), samples=n,
                      derivatives=(lambda t: 2.0 * np.asarray(t)[..., None] * side(t),))


@pytest.mark.parametrize("n", [64, 65, 256, 257, 2048, 2049])
@pytest.mark.parametrize("make, rule", [
    (_corner, "normal field jumps"), (_kink, "normal field jumps"),
    (_kink_analytic, "not parallel at the singularity"),
    (_turn_corner, "not parallel at the singularity"),
], ids=["abs_t", "t_abs_t", "t_abs_t_analytic", "turn160_analytic"])
def test_corners_are_refused_at_every_grid(euclidean, make, rule, n):
    # the corner of (|t|, t) is regular, so only the samples show it; that of
    # (t|t|, t^2) is singular, but its finite-difference speed stays above the
    # threshold, so again the samples show it. With its analytic gamma' the
    # search finds it, and the tangent lines just either side of it are not
    # parallel; so too where gamma' turns by 160 degrees, whose tangent line
    # turns by 20 and whose samples the jump rule passes
    with pytest.raises(LimitsDisagree, match=rule):
        legendre_from_curve(euclidean, make(n))


def test_coarse_smooth_pairs_still_build(euclidean):
    # a coarse grid of a smooth tangent line has long but even chords, not a jump
    lp15 = build_plane(NormSpec("lp", p=1.5))
    for plane, curve in ((euclidean, catalog.circle(samples=8)),
                         (euclidean, catalog.ellipse(2.0, 1.0, samples=16)),
                         (lp15, catalog.circle(samples=12))):
        L = legendre_from_curve(plane, curve)
        xi = plane.birkhoff(L.normals)
        assert np.max(np.linalg.norm(np.diff(xi, axis=0), axis=1)) > 0.5


@pytest.mark.parametrize("a, n", [(20.0, 64), (20.0, 65), (5.0, 16)])
def test_thin_ellipses_the_grid_does_not_resolve_still_build(euclidean, l3, fourier_oval, a, n):
    # each tip turns the tangent line within about a chord, which the grid
    # rule flags as it would a corner; at a quarter of the spacing the turn
    # spreads over even chords, so the flag is cleared, and the tangent
    # direction b(eta) of the pair has no jump
    from normplane.analysis import _jumps

    for plane in (euclidean, l3, fourier_oval):
        L = legendre_from_curve(plane, catalog.ellipse(a, 1.0, samples=n))
        assert np.any(_jumps(plane.birkhoff(L.normals), closed=True))
        xi = plane.birkhoff(L.eta(np.linspace(0.0, TWO_PI, 4097)))
        assert np.max(np.linalg.norm(np.diff(xi, axis=0), axis=1)) < 0.1


def _shifted_circle(n):
    # the tangent crosses each axis direction midway between two grid nodes
    s = np.pi / n
    return ParamCurve(lambda t: np.stack([np.cos(t + s), np.sin(t + s)], -1),
                      (0.0, TWO_PI), closed=True,
                      derivatives=(lambda t: np.stack([-np.sin(t + s), np.cos(t + s)], -1),),
                      samples=n)


@pytest.mark.parametrize("p, n", [(5.0, 512), (6.0, 2048), (6.0, 64)])
def test_steep_normals_of_smooth_curves_still_build(p, n):
    # under lp with p > 2 the normal runs across the flat axis points of the
    # unit circle in one long chord as the tangent crosses an axis direction
    # between two nodes; the tangent line does not jump there
    plane = build_plane(NormSpec("lp", p=p))
    L = legendre_from_curve(plane, _shifted_circle(n))
    chords = np.linalg.norm(np.diff(L.normals, axis=0), axis=1)
    assert np.max(chords) > 0.5 and np.max(chords) > 3.0 * np.median(chords)


@pytest.mark.parametrize("n", [16, 32, 64])
def test_t2t3_builds_on_coarse_grids(euclidean, l3, n):
    # the one-sided tangent lines of a smooth cusp are far from parallel a
    # grid step away on coarse grids; the flip is read across the cusp itself
    for plane in (euclidean, l3):
        eta = legendre_from_curve(plane, catalog.cusp_t2t3(samples=n)).eta
        assert np.max(np.abs(eta(-1e-3) - eta(1e-3))) < 0.1
    ts = np.linspace(-0.95, 0.95, 41)
    want = np.stack([3.0 * ts, -2.0 * np.ones_like(ts)], -1)
    want /= np.sqrt(4.0 + 9.0 * ts ** 2)[:, None]
    curve = catalog.cusp_t2t3(samples=n)
    eta = extend_normal(euclidean, curve, *grid_speeds(euclidean, curve))
    assert np.max(np.abs(eta(ts) - want)) < 1e-7


_ASTROID_NORMS = pytest.mark.parametrize(
    "norm", [NormSpec("lp", p=3.0), NormSpec("fourier_radial", coefficients=(1.0, 0.08)),
             NormSpec("lp", p=1.5)], ids=["lp3", "fourier", "lp1.5"])


def _astroid_normal_chord(norm, n):
    """The longest chord of the astroid pair's normal at 4097 points, for the
    pair built on n samples; a flip in the wrong place makes one of about 2."""
    eta = legendre_from_curve(build_plane(norm), catalog.astroid(samples=n)).eta
    values = eta(np.linspace(0.0, TWO_PI, 4097))
    return np.max(np.linalg.norm(np.diff(values, axis=0), axis=1))


@_ASTROID_NORMS
def test_astroid_flips_at_its_cusps_on_16_samples(norm):
    # the tangents two grid steps either side of each cusp are perpendicular
    # here; the reversal is read across each cusp itself
    assert _astroid_normal_chord(norm, 16) < 0.1


@pytest.mark.parametrize("n", [31, 33, 63, 65])
@_ASTROID_NORMS
def test_astroid_flips_at_its_cusps_between_nodes(norm, n):
    # the interior cusps fall between two nodes that move faster than 5 % of
    # the top speed, so no speed dip marks them: the chords across which
    # gamma' reverses do
    assert _astroid_normal_chord(norm, n) < 0.1


def _t2_t3(c, s, n):
    """((t - s)^2, c (t - s)^3) on [-1, 1], with its cusp at t = s."""
    u = lambda t: np.asarray(t) - s
    return ParamCurve(lambda t: np.stack([u(t) ** 2, c * u(t) ** 3], -1), (-1.0, 1.0),
                      samples=n)


@pytest.mark.parametrize("c, s, n", [(10.0, 0.0, 24), (10.0, 0.0, 25), (10.0, 0.0, 33),
                                     (100.0, 0.0123, 256), (100.0, 0.0123, 257)])
@pytest.mark.parametrize("norm", ["euclidean", "l3", "fourier_oval"])
def test_steep_cusps_flip_the_normal(request, norm, c, s, n):
    # ((t - s)^2, c (t - s)^3) turns its tangent line by more than 90 degrees
    # within two grid steps of the cusp, so a reversal read there looks like
    # none; read across the cusp itself it flips the normal, which otherwise
    # jumps by a chord of 1.3 to 2. Under lp3 eta crosses the flat axis
    # points of the unit circle in one longer chord. The cusp counts of these
    # coarse grids are not asserted (ROADMAP items 1 and 17)
    plane = request.getfixturevalue(norm)
    eta = legendre_from_curve(plane, _t2_t3(c, s, n)).eta
    values = eta(np.linspace(-1.0, 1.0, 64 * (n - 1) + 1))
    assert np.max(np.linalg.norm(np.diff(values, axis=0), axis=1)) < 0.5


def test_singular_points_two_steps_apart_are_refused(l3):
    # on 8 samples the astroid's cusps are two grid steps apart, so a lateral
    # tangent of one cusp would be taken at the next, where it has no direction
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LimitsDisagree, match="closer than two grid steps"):
            legendre_from_curve(l3, catalog.astroid(samples=8))


def test_legendre_from_curve_searches_singular_points_once(euclidean, monkeypatch):
    import normplane.curves as curves

    calls = []
    search = curves.find_singular_params
    monkeypatch.setattr(curves, "find_singular_params",
                        lambda *args: calls.append(1) or search(*args))
    legendre_from_curve(euclidean, catalog.cusp_t2t3())
    assert len(calls) == 1


def test_extended_pair_inverts_the_supporting_map_once_per_point(l3, monkeypatch):
    # the continuity check reads the pair's samples instead of the field
    points = []
    invert = l3.tangent_theta
    monkeypatch.setattr(l3, "tangent_theta",
                        lambda chi: points.append(np.size(chi)) or invert(chi))
    legendre_from_curve(l3, catalog.cusp_t2t3(samples=256))
    assert sum(points) == 256


def test_expression_derivatives_read_one_position_stencil(euclidean):
    # gamma' and gamma'' of a curve given by its position alone are both
    # finite differences of it: one 7-point stencil per parameter serves both
    points = []

    def position(t):
        points.append(np.size(t))
        return np.stack([np.cos(t) + 0.3 * np.cos(2.0 * t), np.sin(t) - 0.3 * np.sin(2.0 * t)], -1)

    def fresh():
        return ParamCurve(position, (0.0, TWO_PI), closed=True, samples=64)

    curve = fresh()
    ts = curve.grid()
    apart = curve.derivative(ts, 1), curve.derivative(ts, 2)
    field = induced_normal(euclidean, fresh())
    points.clear()
    field.value_and_rate(ts)
    assert sum(points) == 7 * ts.size
    curve = fresh()
    points.clear()
    both = curve.derivative(ts, (1, 2))
    assert sum(points) == 7 * ts.size
    assert all(np.array_equal(a, b) for a, b in zip(both, apart))
    assert np.array_equal(fresh().derivative(0.5, (2, 1))[0], fresh().derivative(0.5, 2))
    with pytest.raises(BadParameter):
        curve.derivative(ts, (1, 4))


@pytest.mark.parametrize("norm", ["euclidean", "l3"])
def test_the_extended_normal_jet_reads_both_derivatives_from_one_stencil(request, norm):
    # gamma' and gamma'' of a curve given by its position alone come from one
    # 7-point stencil per parameter; asking for gamma'' apart at the regular
    # parameters cost a second stencil there
    points = []

    def position(t):
        points.append(np.size(t))
        t = np.asarray(t)
        return np.stack([t ** 2, t ** 3], -1)

    curve = ParamCurve(position, (-1.0, 1.0), samples=2048)
    plane = request.getfixturevalue(norm)
    field = extend_normal(plane, curve, *grid_speeds(plane, curve))
    ts = curve.grid()
    points.clear()
    value, rate = field.value_and_rate(ts)
    assert sum(points) < 8 * ts.size
    assert np.array_equal(value, field.evaluate(ts))
