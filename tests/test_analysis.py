import dataclasses
import itertools

import numpy as np
import pytest

from normplane import catalog
from normplane.analysis import (
    circular_curvature,
    contact_implies_curvature_match,
    contact_order,
    curvature_pair,
    legendre_from_curve,
    make_legendre,
    maslov_index,
    projective_curvature_map,
    singularity_report,
    transfer_legendre,
)
from normplane.curves import NormalField, ParamCurve, find_singular_params
from normplane.derived import evolute
from normplane.errors import NotClosed, PreconditionViolated, ResidualViolation
from normplane.numerics import GOLDEN_ITERS
from normplane.plane import symplectic
from oracles import cyclic_word_length, grid_speeds, lateral_tangent_sign, scalar_golden_minimize

TWO_PI = 2.0 * np.pi


# -- curvature pairs ---------------------------------------------------------

def test_circle_pair_is_unit(circle_pair):
    cp = curvature_pair(circle_pair)
    assert np.max(np.abs(cp.alpha - 1.0)) < 1e-7
    assert np.max(np.abs(cp.kappa - 1.0)) < 1e-7


def test_astroid_pair_closed_form(astroid_pair):
    cp = curvature_pair(astroid_pair)
    want = 3.0 * np.sin(cp.ts) * np.cos(cp.ts)
    assert np.max(np.abs(cp.alpha - want)) < 1e-6
    assert np.max(np.abs(cp.kappa + 1.0)) < 1e-6


def test_self_circle_pair_equals_speed(l3_circle_pair, fourier_oval):
    cp = curvature_pair(l3_circle_pair)
    speed = l3_circle_pair.plane.norm(l3_circle_pair.plane.circle_d1(cp.ts))
    assert np.max(np.abs(cp.alpha - speed)) < 1e-6
    assert np.max(np.abs(cp.kappa - speed)) < 1e-6

    curve = catalog.unit_circle_of_norm(fourier_oval)
    pair = make_legendre(fourier_oval, curve, catalog.unit_circle_normal(fourier_oval))
    cp2 = curvature_pair(pair)
    speed2 = fourier_oval.norm(fourier_oval.circle_d1(cp2.ts))
    assert np.max(np.abs(cp2.alpha - speed2)) < 1e-6
    assert np.max(np.abs(cp2.kappa - speed2)) < 1e-6


def test_frame_reconstruction_residuals(astroid_pair, ellipse_pair):
    for pair in (astroid_pair, ellipse_pair):
        cp = curvature_pair(pair)
        xi = pair.plane.birkhoff(pair.eta(cp.ts))
        d1 = pair.gamma.derivative(cp.ts, 1)
        de = pair.eta.derivative(cp.ts, 1)
        scale_a = max(1.0, float(np.max(np.abs(cp.alpha))))
        scale_k = max(1.0, float(np.max(np.abs(cp.kappa))))
        assert np.max(np.abs(d1 - cp.alpha[:, None] * xi)) < 1e-5 * scale_a
        assert np.max(np.abs(de - cp.kappa[:, None] * xi)) < 1e-5 * scale_k


def test_circular_curvature_values(euclidean, l3_circle_pair, t2t3_pair):
    two = ParamCurve(lambda t: np.stack([2.0 * np.cos(t), 2.0 * np.sin(t)], -1),
                     (0.0, TWO_PI), closed=True)
    pair = legendre_from_curve(euclidean, two)
    k = circular_curvature(curvature_pair(pair))
    assert np.nanmax(np.abs(k - 0.5)) < 1e-7

    k3 = circular_curvature(curvature_pair(l3_circle_pair))
    assert np.nanmax(np.abs(k3 - 1.0)) < 1e-5

    cp = curvature_pair(t2t3_pair)
    got = cp.kappa_at(1.0) / cp.alpha_at(1.0)
    assert got == pytest.approx(6.0 / 13.0 ** 1.5, abs=1e-8)


def test_circular_curvature_masks_singular_points(astroid_pair):
    cp = curvature_pair(astroid_pair)
    k = circular_curvature(cp)
    assert np.any(np.isnan(k))
    mask = np.abs(cp.alpha) > 1e-6 * np.max(np.abs(cp.alpha))
    assert not np.any(np.isnan(k[mask]))


def _independent_circular_curvature(pair, ts, h=1e-3):
    """Arc-length rate of the boundary parameter of the tangent direction."""
    plane = pair.plane

    def u_of(t):
        d1 = pair.gamma.derivative(t, 1)
        theta, _ = plane.tangent_theta(np.arctan2(d1[..., 1], d1[..., 0]))
        return plane.arclength_of_theta(theta)

    du = u_of(ts + h) - u_of(ts - h)
    du = (du + plane.length / 2.0) % plane.length - plane.length / 2.0
    return du / (2.0 * h) / plane.norm(pair.gamma.derivative(ts, 1))


def test_curvature_ratio_matches_arclength_composition(ellipse_pair, l3_circle_pair):
    for pair in (ellipse_pair, l3_circle_pair):
        cp = curvature_pair(pair)
        ts = np.linspace(0.05, TWO_PI - 0.05, 301)
        k_ind = _independent_circular_curvature(pair, ts)
        k_ratio = cp.kappa_at(ts) / cp.alpha_at(ts)
        assert np.max(np.abs(k_ind - k_ratio)) < 1e-4


# -- singular structure ------------------------------------------------------

def test_astroid_report(astroid_pair):
    rep = singularity_report(astroid_pair)
    assert rep.counts["cusps"] == 4
    wanted = np.array([0.0, np.pi / 2.0, np.pi, 3.0 * np.pi / 2.0])
    got = np.sort([c.t for c in rep.cusps])
    assert np.max(np.abs(got - wanted)) < 1e-9
    assert all(c.kind == "zag" for c in rep.cusps)
    assert rep.counts["inflections"] == 0
    assert rep.counts["cusps"] % 2 == 0
    assert rep.counts["vertices"] >= 4
    verts = np.sort([v.t for v in rep.vertices])
    assert np.max(np.abs(verts - (np.pi / 4.0 + np.arange(4) * np.pi / 2.0))) < 1e-8
    assert all(v.regular for v in rep.vertices)


def test_t2t3_report(t2t3_pair):
    rep = singularity_report(t2t3_pair)
    assert rep.counts["cusps"] == 1
    cusp = rep.cusps[0]
    assert abs(cusp.t) < 1e-9
    assert cusp.kind == "zig"
    assert cusp.alpha_rate == pytest.approx(2.0, abs=1e-6)
    cp = curvature_pair(t2t3_pair)
    assert cp.kappa_at(0.0) == pytest.approx(1.5, abs=1e-9)
    assert rep.maslov is None


def test_circle_report_all_vertices(circle_pair):
    rep = singularity_report(circle_pair)
    assert rep.counts["cusps"] == 0
    assert rep.counts["inflections"] == 0
    assert rep.counts["all_vertices"] is True


def test_lateral_tangent_oracle_agrees(astroid_pair, t2t3_pair, maslov_pair):
    for pair in (astroid_pair, t2t3_pair, maslov_pair):
        rep = singularity_report(pair)
        for cusp in rep.cusps:
            assert lateral_tangent_sign(pair, cusp.t) == cusp.kind


def test_even_cusp_count_on_closed_fronts(astroid_pair, maslov_pair, circle_pair):
    for pair in (astroid_pair, maslov_pair, circle_pair):
        rep = singularity_report(pair)
        assert rep.counts["cusps"] % 2 == 0


def test_interleaving_cusps_and_inflections(maslov_pair):
    rep = singularity_report(maslov_pair)
    cusps = sorted(rep.cusps, key=lambda c: c.t)
    infl = np.sort([i.t for i in rep.inflections])
    span = maslov_pair.gamma.span
    for a, b in zip(cusps, cusps[1:] + [cusps[0]]):
        lo, hi = a.t, b.t if b.t > a.t else b.t + span
        inside = np.sum((infl > lo) & (infl < hi)) + \
            np.sum((infl + span > lo) & (infl + span < hi))
        if a.kind == b.kind:
            assert inside % 2 == 0
        else:
            assert inside % 2 == 1


def test_vertex_between_consecutive_cusps(astroid_pair):
    rep = singularity_report(astroid_pair)
    cusps = np.sort([c.t for c in rep.cusps])
    verts = np.sort([v.t for v in rep.vertices])
    span = astroid_pair.gamma.span
    for a, b in zip(cusps, np.append(cusps[1:], cusps[0] + span)):
        inside = np.sum((verts > a) & (verts < b)) + \
            np.sum((verts + span > a) & (verts + span < b))
        assert inside >= 1


def test_degenerate_singularity_counted_as_vertex(euclidean):
    # gamma' = t^2 (3, 4t): the speed has an even-order zero, so t = 0 is a
    # singular point that is not an ordinary cusp
    curve = ParamCurve(lambda t: np.stack([np.asarray(t) ** 3,
                                           np.asarray(t) ** 4], -1),
                       (-1.0, 1.0),
                       derivatives=(lambda t: np.stack([3.0 * np.asarray(t) ** 2,
                                                        4.0 * np.asarray(t) ** 3], -1),))
    pair = legendre_from_curve(euclidean, curve)
    rep = singularity_report(pair)
    assert rep.counts["cusps"] == 0
    assert rep.counts["degenerate_singular"] == 1
    degenerate_vertices = [v for v in rep.vertices if not v.regular]
    assert len(degenerate_vertices) == 1
    assert abs(degenerate_vertices[0].t) < 1e-6


def test_is_immersion_means_no_singular_points(euclidean, circle_pair, ellipse_pair,
                                               astroid_pair, t2t3_pair):
    degenerate = ParamCurve(lambda t: np.stack([np.asarray(t) ** 3,
                                                np.asarray(t) ** 4], -1), (-1.0, 1.0))
    for pair, immersed in ((circle_pair, True), (ellipse_pair, True),
                           (astroid_pair, False), (t2t3_pair, False),
                           (legendre_from_curve(euclidean, degenerate), False)):
        rep = singularity_report(pair)
        assert rep.is_immersion is immersed


def test_not_a_front_when_alpha_and_kappa_vanish_together(euclidean):
    from normplane.errors import NotAFront
    from normplane.synthesis import SynthesisSpec, synthesize
    ramp = lambda t: np.asarray(t, dtype=float) - 1.0
    L = synthesize(euclidean, SynthesisSpec(ramp, ramp, (0.0, 0.0), (1.0, 0.0),
                                            (0.0, 2.0)))
    with pytest.raises(NotAFront):
        singularity_report(L)


def test_contact_out_of_domain(circle_pair, t2t3_pair):
    from normplane.errors import OutOfDomain
    with pytest.raises(OutOfDomain):
        contact_order(circle_pair, 0.0, t2t3_pair, 5.0, kmax=2)


# -- zigzag invariant --------------------------------------------------------

def test_maslov_astroid_and_circle(astroid_pair, circle_pair):
    for pair in (astroid_pair, circle_pair):
        assert maslov_index(pair) == {"word_reduction": 0, "flip_flop": 0,
                                      "rotation": 0}


def test_maslov_synthesized_fixture(maslov_pair, maslov_coefficients):
    a0, a1, a2 = maslov_coefficients
    alpha0 = a0 + a1 + a2
    alpha_pi = a0 - a1 + a2
    expected = 1 if alpha0 * alpha_pi < 0.0 else 0
    mi = maslov_index(maslov_pair)
    assert mi["word_reduction"] == mi["flip_flop"] == mi["rotation"] == expected


def test_maslov_nonzero_fixture(euclidean):
    # enlarge the closure nullspace with a cos(3t) term so an even alpha
    # with alpha(0) * alpha(pi) < 0 exists; the zigzag invariant is then 1
    from normplane.synthesis import SynthesisSpec, synthesize
    n = 4096
    ts = np.linspace(0.0, TWO_PI, n, endpoint=False)
    f1 = np.sin(1.0 - np.cos(ts))
    f2 = np.cos(1.0 - np.cos(ts))
    basis = np.stack([np.ones_like(ts), np.cos(ts), np.cos(2.0 * ts),
                      np.cos(3.0 * ts)], -1)
    m = np.stack([f1, f2], 0) @ basis * (TWO_PI / n)
    _, _, vt = np.linalg.svd(m)
    null = vt[2:]
    e0 = np.array([1.0, 1.0, 1.0, 1.0])
    epi = np.array([1.0, -1.0, 1.0, -1.0])
    coef = None
    for c1 in np.linspace(-1.0, 1.0, 41):
        for c2 in np.linspace(-1.0, 1.0, 41):
            a = c1 * null[0] + c2 * null[1]
            if abs(c1) + abs(c2) > 1e-9 and (a @ e0) * (a @ epi) < 0.0:
                coef = a / np.max(np.abs(a))
                break
        if coef is not None:
            break
    assert coef is not None

    alpha = lambda t: (coef[0] + coef[1] * np.cos(t) + coef[2] * np.cos(2.0 * t)
                       + coef[3] * np.cos(3.0 * t))
    L = synthesize(euclidean, SynthesisSpec(alpha, np.sin, (0.1, 0.2),
                                            (np.cos(0.5), np.sin(0.5)), (0.0, TWO_PI)))
    assert L.gamma.closed
    assert maslov_index(L) == {"word_reduction": 1, "flip_flop": 1, "rotation": 1}
    rep = singularity_report(L)
    assert rep.counts["cusps"] == 6
    assert abs(rep.counts["flips"] - rep.counts["flops"]) == 2


def test_maslov_requires_closed(t2t3_pair):
    with pytest.raises(NotClosed):
        maslov_index(t2t3_pair)


def test_projective_lift_is_continuous(maslov_pair):
    lift = projective_curvature_map(curvature_pair(maslov_pair))
    assert np.max(np.abs(np.diff(lift.theta))) < np.pi / 2.0


def test_maslov_word_reduction_cases():
    from normplane.analysis import _reduce_cyclic_word
    assert _reduce_cyclic_word([]) == 0
    assert _reduce_cyclic_word(list("ab")) == 1
    assert _reduce_cyclic_word(list("abab")) == 2
    assert _reduce_cyclic_word(list("aabb")) == 0
    assert _reduce_cyclic_word(list("abba")) == 0
    assert _reduce_cyclic_word(list("aababb")) == 1


def test_maslov_word_reduction_matches_cancelling_pairs_on_every_even_word():
    from normplane.analysis import _reduce_cyclic_word
    for n in range(0, 13, 2):
        for word in itertools.product("ab", repeat=n):
            assert 2 * _reduce_cyclic_word(word) == cyclic_word_length(word), word


# -- contact -----------------------------------------------------------------

def test_contact_identical_pairs(circle_pair):
    assert contact_order(circle_pair, 0.3, circle_pair, 0.3, kmax=4) == 4
    rep = contact_implies_curvature_match(circle_pair, 0.3, circle_pair, 0.3, 4)
    assert all(r < 1e-8 for r in rep["residuals"].values())


def test_contact_shifted_domain_copy(euclidean):
    a = catalog.circle()
    b = ParamCurve(lambda t: np.stack([np.cos(t), np.sin(t)], -1),
                   (-np.pi, np.pi), closed=True,
                   derivatives=a.derivatives)
    pa = legendre_from_curve(euclidean, a)
    pb = legendre_from_curve(euclidean, b)
    assert contact_order(pa, 0.4, pb, 0.4, kmax=4) == 4
    rep = contact_implies_curvature_match(pa, 0.4, pb, 0.4, 3)
    assert all(r < 1e-5 for r in rep["residuals"].values())


def _two_circle_fixture(euclidean, phi=0.0):
    """Unit circle against the radius-2 circle tangent at angle phi, unit speed."""
    shift = np.array([np.cos(phi), np.sin(phi)])
    big = ParamCurve(
        lambda t: np.stack([2.0 * np.cos(phi + t / 2.0) - shift[0],
                            2.0 * np.sin(phi + t / 2.0) - shift[1]], -1),
        (-np.pi, np.pi), closed=False,
        derivatives=(
            lambda t: np.stack([-np.sin(phi + t / 2.0), np.cos(phi + t / 2.0)], -1),
            lambda t: np.stack([-0.5 * np.cos(phi + t / 2.0),
                                -0.5 * np.sin(phi + t / 2.0)], -1),
            lambda t: np.stack([0.25 * np.sin(phi + t / 2.0),
                                -0.25 * np.cos(phi + t / 2.0)], -1),
        ))
    return legendre_from_curve(euclidean, big)


def test_two_circle_fixture_contact_is_first_order(euclidean, circle_pair):
    # positions and gamma' agree at the touch point, but the normals of the
    # radius-2 circle rotate at half rate, so the pair jets split at order 1
    big = _two_circle_fixture(euclidean)
    assert contact_order(circle_pair, 0.0, big, 0.0, kmax=4) == 1
    with pytest.raises(PreconditionViolated):
        contact_implies_curvature_match(circle_pair, 0.0, big, 0.0, 2)
    cpb = curvature_pair(big)
    assert cpb.alpha_at(0.0) == pytest.approx(1.0, abs=1e-9)
    assert cpb.kappa_at(0.0) == pytest.approx(0.5, abs=1e-9)


def _reparametrized_circle(euclidean, phi=0.0):
    def pos(t):
        u = phi + np.asarray(t) + np.asarray(t) ** 2
        return np.stack([np.cos(u), np.sin(u)], -1)

    curve = ParamCurve(pos, (-0.3, 0.3))
    return legendre_from_curve(euclidean, curve)


def test_reparametrized_circle_contact_exactly_two(euclidean, circle_pair):
    other = _reparametrized_circle(euclidean)
    assert contact_order(circle_pair, 0.0, other, 0.0, kmax=4) == 2
    rep = contact_implies_curvature_match(circle_pair, 0.0, other, 0.0, 1)
    assert all(r < 1e-4 for r in rep["residuals"].values())
    # order-1 curvature data differ: the second pair is not unit speed
    cpo = curvature_pair(other)
    assert abs(float(cpo.rate_at(cpo.alpha_at, 0.0)) - 2.0) < 1e-4


# -- norm transfer -----------------------------------------------------------

def test_transfer_preserves_gamma_and_cusps(astroid_pair, l3):
    moved = transfer_legendre(astroid_pair, l3)
    assert moved.residual < 1e-5
    ts = np.linspace(0.0, TWO_PI, 33)
    assert np.max(np.abs(moved.gamma.point(ts) - astroid_pair.gamma.point(ts))) == 0.0
    rep = singularity_report(moved)
    got = np.sort([c.t for c in rep.cusps])
    want = np.array([0.0, np.pi / 2.0, np.pi, 3.0 * np.pi / 2.0])
    assert len(got) == 4
    assert np.max(np.abs(got - want)) < 1e-8


def test_transfer_identity_same_plane(astroid_pair, euclidean):
    same = transfer_legendre(astroid_pair, euclidean)
    ts = np.linspace(0.0, TWO_PI, 65)
    assert np.max(np.abs(same.eta(ts) - astroid_pair.eta(ts))) < 1e-9


def test_transfer_preserves_contact_order(euclidean, l3, circle_pair):
    # contact at a generic direction: the flat spots of the l3 circle have
    # vanishing turning, where the transferred normal loses smoothness in t
    phi = 0.4
    other = _reparametrized_circle(euclidean, phi)
    before = contact_order(circle_pair, phi, other, 0.0, kmax=4)
    a3 = transfer_legendre(circle_pair, l3)
    b3 = transfer_legendre(other, l3)
    assert contact_order(a3, phi, b3, 0.0, kmax=4) == before == 2

    big = _two_circle_fixture(euclidean, phi)
    before1 = contact_order(circle_pair, phi, big, 0.0, kmax=4)
    big3 = transfer_legendre(big, l3)
    assert contact_order(a3, phi, big3, 0.0, kmax=4) == before1 == 1


def test_transferred_pair_satisfies_orthogonality(astroid_pair, l3):
    moved = transfer_legendre(astroid_pair, l3)
    ts = np.linspace(0.1, 1.4, 16)
    d1 = moved.gamma.derivative(ts, 1)
    xi = moved.plane.birkhoff(moved.eta(ts))
    assert np.max(np.abs(symplectic(d1, xi))) < 1e-6


# -- which root the detectors return -----------------------------------------

_EXPRESSION = {"kind": "expression", "x": "cos(t) + 0.3*cos(2*t)",
               "y": "sin(t) - 0.3*sin(2*t)", "domain": [0.0, TWO_PI],
               "closed": True}

# vertex parameters at 2048 samples from scalar brentq refinement, one root
# per bracket; the close vertex pairs of the expression curve put several
# roots of (alpha/kappa)' in a single bracket, and the ellipse's fourth vertex
# sits on the seam t = 2 pi, where it must not wrap to 0
_PINNED_VERTICES = {
    "euclid-expr": ({"kind": "euclidean"}, _EXPRESSION, [
        0.6835531950407774, 0.6873231057366407, 2.777948296775853,
        2.780461570722339, 3.5027237361801764, 3.505237010061564,
        5.595862201319269, 5.599632112843692]),
    "lp3-expr": ({"kind": "lp", "p": 3.0}, _EXPRESSION, [
        0.6835531946395946, 0.6873231056122867, 2.5559034844027058,
        2.7779482971542304, 2.780461571580372, 3.141592653588189,
        3.5027237363243473, 3.5052370096908856, 3.7272818227769076,
        5.595862201157839, 5.599632112576707]),
    "euclid-ellipse": ({"kind": "euclidean"},
                       {"kind": "catalog", "name": "ellipse", "a": 2.0, "b": 1.0}, [
        1.5707963267949345, 3.1415926535897727, 4.712388980384728,
        6.2831853071795845]),
}


@pytest.mark.parametrize("case", sorted(_PINNED_VERTICES))
def test_detectors_keep_their_vertex_roots(case):
    from normplane.cli import _norm_spec, build_curve_and_pair
    from normplane.plane import build_plane

    norm, curve, want = _PINNED_VERTICES[case]
    L = build_curve_and_pair(build_plane(_norm_spec(norm)), curve, 2048)
    got = [v.t for v in singularity_report(L).vertices]
    assert len(got) == len(want)
    assert np.max(np.abs(np.subtract(got, want))) <= 1e-9


def test_pair_values_invert_the_supporting_map_once_per_point(l3, monkeypatch):
    cp = curvature_pair(legendre_from_curve(l3, catalog.ellipse(2.0, 1.0, samples=256)))
    # off the parameters whose normal is an lp3 axis point, where the rate of
    # the normal falls back to a finite difference
    ts = np.linspace(0.1, 6.0, 50)
    points = []
    invert = l3.tangent_theta
    monkeypatch.setattr(l3, "tangent_theta",
                        lambda chi: points.append(np.size(chi)) or invert(chi))
    cp.values_at(ts)
    assert sum(points) == len(ts)
    cp.values_at(1.0)
    assert sum(points) == len(ts) + 1


@pytest.mark.parametrize("samples", [256, 512, 2048])
@pytest.mark.parametrize("curve", ["circle", "ellipse"])
@pytest.mark.parametrize("norm", ["euclidean", "fourier_oval"])
def test_total_curvature_is_the_self_perimeter(request, norm, curve, samples):
    """eta' = kappa b(eta) with b(eta) the unit tangent of the unit circle, so
    kappa is eta's speed along it in the norm's own length: on a closed front
    whose normal turns once, the integral of kappa is P(B), `plane.length`.
    The sum over the periodic grid is spectrally accurate (measured 0 and at
    most 3.7e-15 here). Under lp3 the sum misses P(B) by 0.035-0.57 at these
    sample counts: kappa grows like |t - t*|^(-1/2) where gamma' is
    axis-parallel, which is ROADMAP item 2's open case, not checked here."""
    plane = request.getfixturevalue(norm)
    L = legendre_from_curve(plane, getattr(catalog, curve)(samples=samples))
    total = float(np.sum(L.kappa)) * L.span / samples
    assert abs(total / plane.length - 1.0) <= 1e-12


def _counted(f, counts):
    return lambda t: counts.append(np.size(t)) or f(t)


def test_pair_values_evaluate_gamma_prime_once_per_point(euclidean, l3, monkeypatch):
    # the frame hands the normal's jet the gamma' and gamma'' of one curve
    # call; at parameters between grid nodes 64 and 65, off the samples
    import normplane.cli as cli

    points = []
    compile_expression = cli.compile_expression
    monkeypatch.setattr(cli, "compile_expression",
                        lambda text: _counted(compile_expression(text), points))
    expr = cli.build_curve_and_pair(euclidean, {
        "kind": "expression", "x": "cos(t) + 0.3*cos(2*t)", "y": "sin(t) - 0.3*sin(2*t)",
        "domain": [0.0, TWO_PI], "closed": True}, 256)
    mid = 0.5 * (expr.ts[64] + expr.ts[65])
    points.clear()
    expr.values_at(np.array([mid]))
    assert sum(points) == 14      # one 7-point stencil of x and of y
    points.clear()
    expr.alpha_at(np.array([mid + 1e-4]))
    assert sum(points) == 14

    calls = []
    base = catalog.ellipse(samples=256)
    ellipse = legendre_from_curve(euclidean, ParamCurve(
        base.position, base.domain, True,
        (_counted(base.derivatives[0], calls),) + base.derivatives[1:], 256))
    calls.clear()
    ellipse.values_at(np.array([mid]))
    assert calls == [1]

    base = catalog.cusp_t2t3(samples=256)
    cusp = legendre_from_curve(l3, ParamCurve(
        base.position, base.domain, False,
        tuple(_counted(d, calls) for d in base.derivatives[:2]) + base.derivatives[2:], 256))
    calls.clear()
    cusp.values_at(np.array([0.5 * (cusp.ts[64] + cusp.ts[65])]))
    assert calls == [1, 1]        # gamma' and gamma'' of the extended normal's jet


def test_an_expression_pair_at_no_parameters_is_empty(euclidean):
    import normplane.cli as cli

    L = cli.build_curve_and_pair(euclidean, _EXPRESSION, 64)
    none = np.array([])
    assert L.gamma.derivative(none, 1).shape == (0, 2)
    assert [d.shape for d in L.gamma.derivative(np.empty((0, 3)), (1, 2))] == [(0, 3, 2)] * 2
    assert [v.shape for v in L.values_at(none)] == [(0,), (0,)]
    assert L.alpha_at(none).shape == (0,)
    assert L.ratio_rate_at(none).shape == (0,)


@pytest.mark.parametrize("poisoned, marker", [
    ("normal", "not unit"),
    ("tangent", "orthogonality residual nan"),
    ("normal rate", "not finite"),
])
def test_make_legendre_refuses_a_nan_on_the_grid(euclidean, poisoned, marker):
    # a NaN at one grid node of the normal, the tangent or the normal's rate
    # is refused by the check that reads it, not sampled into the pair
    t_bad = catalog.circle(samples=64).grid()[5]

    def poison(part, values, t):
        values = np.array(values, dtype=float)
        if part == poisoned:
            values[np.asarray(t) == t_bad] = np.nan
        return values

    base = catalog.circle(samples=64)
    curve = ParamCurve(base.position, base.domain, True,
                       (lambda t: poison("tangent", base.derivative(t, 1), t),), 64)
    normal = NormalField(euclidean.circle_point, base.domain, True,
                         lambda t: (poison("normal", euclidean.circle_point(t), t),
                                    poison("normal rate", euclidean.circle_d1(t), t)))
    with pytest.raises(ResidualViolation, match=marker):
        make_legendre(euclidean, curve, normal)


def test_pair_is_sampled_in_the_pass_that_validates_it(fourier_oval, monkeypatch):
    # the unit check, the orthogonality residual and the sampled pair read one
    # evaluation of the normal's jet on the grid: one inversion per point
    points = []
    invert = fourier_oval.tangent_theta
    monkeypatch.setattr(fourier_oval, "tangent_theta",
                        lambda chi: points.append(np.size(chi)) or invert(chi))
    L = legendre_from_curve(fourier_oval, catalog.ellipse(2.0, 1.0, samples=256))
    cp = curvature_pair(L)
    assert sum(points) == 256
    assert cp is L
    # the samples are the evaluator's bits: the frame formula on the jet of
    # the normal, here in the reverse batch
    ts = cp.ts[::-1]
    e, rate = L.eta.value_and_rate(ts)
    denom = symplectic(e, fourier_oval.birkhoff(e))
    assert np.array_equal(symplectic(e, L.gamma.derivative(ts, 1)) / denom, cp.alpha[::-1])
    assert np.array_equal(symplectic(e, rate) / denom, cp.kappa[::-1])


def test_a_curve_pair_maps_its_normals_by_birkhoff_once(fourier_oval, monkeypatch):
    # the tangent-line jump check reads the xi = b(eta) that validation took
    points = []
    tangent = fourier_oval.birkhoff
    monkeypatch.setattr(fourier_oval, "birkhoff",
                        lambda v: points.append(np.size(v) // 2) or tangent(v))
    legendre_from_curve(fourier_oval, catalog.ellipse(2.0, 1.0, samples=256))
    assert points == [256]


@pytest.mark.parametrize("norm, make, n, passes, norms", [
    ("euclidean", lambda n: catalog.ellipse(2.0, 1.0, samples=n), 1024, 1, 3),
    ("l3", lambda n: catalog.ellipse(2.0, 1.0, samples=n), 2048, 1, 3),
    ("euclidean", catalog.cusp_t2t3, 512, 1, 4),
    ("euclidean", catalog.cusp_t2t3, 2048, 1, 4),
    ("euclidean", catalog.astroid, 2048, 1, 4),
    ("l3", catalog.cusp_t2t3, 2048, 1, 4),
], ids=["ellipse-1024", "ellipse-lp3-2048", "t2t3-512", "t2t3-2048", "astroid-2048",
        "t2t3-lp3-2048"])
def test_a_curve_pair_reads_its_grid_once(request, monkeypatch, norm, make, n, passes, norms):
    """gamma' and gamma'' are read on the grid once and handed to the singular
    search (as the speeds), the normal's jet and the validation, with or
    without singular points. The grid-sized norms are the speeds, the unit
    check of eta, b(eta) and, with singular points, the jet's mask of the
    points far from them."""
    plane, curve = request.getfixturevalue(norm), make(n)
    grid_reads, grid_norms = [], []
    d1 = curve.derivatives[0]
    curve = dataclasses.replace(
        curve, derivatives=(lambda t: grid_reads.append(np.shape(t) == (n,)) or d1(t),
                            *curve.derivatives[1:]))
    norm_of = plane.norm
    monkeypatch.setattr(plane, "norm",
                        lambda v: grid_norms.append(np.shape(v) == (n, 2)) or norm_of(v))
    legendre_from_curve(plane, curve)
    assert (sum(grid_reads), sum(grid_norms)) == (passes, norms)


@pytest.mark.parametrize("sign", [-1.0, 1.0], ids=["seam-at-zero", "seam-shifted"])
@pytest.mark.parametrize("steps", [512, 2048, 8192])
def test_degenerate_points_do_not_depend_on_the_seam(euclidean, sign, steps):
    # alpha = 1 -/+ cos 2t has double zeros at 0, pi or at pi/2, 3pi/2; the
    # two fronts differ only in where the closed parameter starts
    from normplane.synthesis import SynthesisSpec, synthesize

    spec = SynthesisSpec(lambda t: 1.0 + sign * np.cos(2.0 * np.asarray(t)),
                         lambda t: np.ones_like(np.asarray(t, dtype=float)),
                         (0.0, 0.0), (1.0, 0.0), (0.0, 2.0 * np.pi), steps)
    L = synthesize(euclidean, spec)
    assert L.closed
    rep = singularity_report(L)
    assert rep.counts["degenerate_singular"] == 2
    assert rep.counts["vertices"] == 4
    ts = [v.t for v in rep.vertices]
    assert all(0.0 <= t < 2.0 * np.pi for t in ts)


def _record_searches(monkeypatch):
    """The list that each golden_minimize call then appends its
    (f, a, b, t_min, f_min, calls) to, calls the parameters of each f call."""
    from normplane import numerics

    searches = []
    search = numerics.golden_minimize

    def record(f, a, b):
        calls = []
        out = search(lambda t: calls.append(np.array(t)) or f(t), a, b)
        searches.append((f, a, b, *out, calls))
        return out

    monkeypatch.setattr(numerics, "golden_minimize", record)
    return searches


def _seam_valleys(plane, sign):
    """The pair of alpha = 1 + sign cos 2t, kappa = 1: |alpha| has double
    zeros at 0 and pi (sign -1) or at pi/2 and 3 pi/2 (sign 1)."""
    from normplane.synthesis import SynthesisSpec, synthesize

    spec = SynthesisSpec(lambda t: 1.0 + sign * np.cos(2.0 * np.asarray(t)),
                         lambda t: np.ones_like(np.asarray(t, dtype=float)),
                         (0.0, 0.0), (1.0, 0.0), (0.0, 2.0 * np.pi), 2048)
    return curvature_pair(synthesize(plane, spec))


@pytest.mark.parametrize("sign", [-1.0, 1.0], ids=["seam-at-zero", "seam-shifted"])
def test_a_dip_across_the_seam_is_searched_once(euclidean, sign, monkeypatch):
    # |alpha| of 1 - cos 2t has one valley through the seam and one at pi;
    # each valley is refined by one golden bracket, wherever the seam falls
    from normplane import analysis

    cp = _seam_valleys(euclidean, sign)
    searches = _record_searches(monkeypatch)
    _, degenerate = analysis._detect_cusps(cp)
    assert [a.size for _, a, *_ in searches] == [2]
    assert len(degenerate) == 2
    assert all(0.0 <= t < 2.0 * np.pi for t in degenerate)


@pytest.mark.parametrize("case, brackets", [
    ("t2t3", 1), ("t2t3-l3", 1), ("endpoint-dip", 1), ("seam", 2), ("circle-evolute", 17),
])
def test_each_polished_dip_has_the_bits_of_the_scalar_search(euclidean, l3, monkeypatch,
                                                               case, brackets):
    # every dip the fixtures polish, searched in lock-step, ends with the bits
    # of the scalar loop on its bracket alone: the singular point of
    # cusp_t2t3 between two nodes (at 2048 samples the nodes at -/+4.885e-4
    # have equal speeds, and one node of such a tie is searched), the
    # endpoint dip of test_find_singular_params_matches_the_node_loop (its
    # bracket clipped at the domain start), the valley through the seam of
    # test_a_dip_across_the_seam_is_searched_once, and the round-off valleys
    # of |alpha| on the evolute of a circle
    from normplane import analysis

    if case.startswith("t2t3"):
        plane, curve = l3 if case == "t2t3-l3" else euclidean, catalog.cusp_t2t3()
        run = lambda: find_singular_params(plane, curve, *grid_speeds(plane, curve))
    elif case == "endpoint-dip":
        curve = ParamCurve(lambda t: np.stack([t ** 2 + 1e-4 * t, t ** 3], -1), (0.0, 1.0),
                           samples=64)
        run = lambda: find_singular_params(euclidean, curve, *grid_speeds(euclidean, curve))
    elif case == "seam":
        cp = _seam_valleys(euclidean, -1.0)
        run = lambda: analysis._detect_cusps(cp)
    else:
        E = evolute(legendre_from_curve(euclidean, catalog.circle(samples=128)))
        run = lambda: singularity_report(E)
    searches = _record_searches(monkeypatch)
    run()
    assert [a.size for _, a, *_ in searches] == [brackets]
    f, a, b, t_min, f_min, calls = searches[0]
    if case == "endpoint-dip":
        assert a[0] == 0.0
    points = []
    want = np.array([scalar_golden_minimize(lambda t: points.append(t) or f(t), lo, hi)
                     for lo, hi in zip(a.tolist(), b.tolist())], dtype=float)
    assert np.array_equal(np.stack([t_min, f_min], -1).view(np.int64), want.view(np.int64))
    # f saw the points the scalar searches evaluate, each as often
    assert np.array_equal(np.sort(np.concatenate(calls)), np.sort(points))


def test_the_circle_evolute_polishes_its_dips_in_one_search(euclidean, monkeypatch):
    # alpha of the evolute of a circle, its centre, is round-off everywhere:
    # at 2048 samples |alpha| has 212 valleys, all refined by one lock-step
    # search that calls |alpha| once per step, and none is a singular point
    E = evolute(legendre_from_curve(euclidean, catalog.circle(samples=2048)))
    searches = _record_searches(monkeypatch)
    report = singularity_report(E).to_json_dict()
    assert [a.size for _, a, *_ in searches] == [212]
    assert len(searches[0][-1]) <= GOLDEN_ITERS + 3
    assert report == {
        "cusps": [], "inflections": [], "vertices": [],
        "maslov": {"word_reduction": 0, "flip_flop": 0, "rotation": 0},
        "counts": {"cusps": 0, "zigs": 0, "zags": 0, "inflections": 0, "flips": 0,
                   "flops": 0, "vertices": 0, "degenerate_singular": 0,
                   "all_vertices": True, "genericity_verified": False},
        "is_front": True, "is_immersion": True,
    }
