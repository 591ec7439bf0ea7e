import sys
import threading

import numpy as np
import pytest

from normplane import catalog
from normplane.analysis import (
    curvature_pair,
    legendre_from_curve,
    make_legendre,
    singularity_report,
    transfer_legendre,
)
from normplane.curves import NormalField, ParamCurve, extend_normal, induced_normal
from normplane.derived import evolute, involute, parallel, pedal
from normplane.errors import KappaVanishes, RhoDegenerate
from normplane.plane import symplectic
from normplane.synthesis import SynthesisSpec, apply_linear_map, synthesize
from oracles import (
    DegenerateLine,
    distance_squared_rates,
    evolute_as_parallel_singularities,
    evolute_curvature,
    grid_speeds,
    normal_envelope_residual,
    osculating_data,
    pedal_envelope_residual,
    point_segment_dist2,
    vertex_residual,
)

TWO_PI = 2.0 * np.pi


def _dist_to_polyline(points, poly, closed=True):
    a = poly
    b = np.roll(poly, -1, axis=0) if closed else None
    if not closed:
        a, b = poly[:-1], poly[1:]
    return np.sqrt(point_segment_dist2(np.atleast_2d(points), a, b))


# -- parallels ---------------------------------------------------------------

def test_parallel_zero_is_identity(astroid_pair):
    ts = np.linspace(0.0, TWO_PI, 65)
    p0 = parallel(astroid_pair, 0.0)
    assert np.max(np.abs(p0.gamma.point(ts) - astroid_pair.gamma.point(ts))) == 0.0


def test_parallel_collapses_circle_to_center(circle_pair):
    ts = np.linspace(0.0, TWO_PI, 65)
    pm = parallel(circle_pair, -1.0)
    assert np.max(np.abs(pm.gamma.point(ts))) < 1e-12
    cp = curvature_pair(pm)
    assert np.max(np.abs(cp.alpha)) < 1e-12
    assert np.max(np.abs(cp.kappa - 1.0)) < 1e-9


def test_parallel_curvature_shift(astroid_pair):
    d = 0.25
    pd = parallel(astroid_pair, d)
    cp0 = curvature_pair(astroid_pair)
    cpd = curvature_pair(pd)
    assert np.max(np.abs(cpd.alpha - (cp0.alpha + d * cp0.kappa))) < 1e-5
    assert np.max(np.abs(cpd.kappa - cp0.kappa)) < 1e-5


def test_parallel_singularities_solve_offset_equation(astroid_pair):
    pd = parallel(astroid_pair, 0.3)
    rep = singularity_report(pd)
    got = np.sort([c.t for c in rep.cusps])
    # alpha + 0.3 kappa = 1.5 sin 2t - 0.3 = 0
    base = np.arcsin(0.2)
    want = np.sort(np.mod(np.array([base / 2.0, (np.pi - base) / 2.0,
                                    np.pi + base / 2.0,
                                    np.pi + (np.pi - base) / 2.0]), TWO_PI))
    assert len(got) == len(want)
    assert np.max(np.abs(got - want)) < 1e-6


# -- evolutes ----------------------------------------------------------------

def test_evolute_of_own_circle_is_origin(l3_circle_pair):
    ev = evolute(l3_circle_pair)
    ts = np.linspace(0.0, TWO_PI, 65)
    assert np.max(np.abs(ev.gamma.point(ts))) < 1e-7


def test_evolute_of_ellipse_closed_form(ellipse_pair):
    ev = evolute(ellipse_pair)
    ts = np.linspace(0.0, TWO_PI, 129)
    want = np.stack([1.5 * np.cos(ts) ** 3, -3.0 * np.sin(ts) ** 3], -1)
    assert np.max(np.abs(ev.gamma.point(ts) - want)) < 1e-9
    assert np.max(np.abs(ev.gamma.point(0.0) - np.array([1.5, 0.0]))) < 1e-6


def test_evolute_meets_front_at_cusps(astroid_pair):
    ev = evolute(astroid_pair)
    for t0 in (0.0, np.pi / 2.0, np.pi, 3.0 * np.pi / 2.0):
        assert np.max(np.abs(ev.gamma.point(t0)
                             - astroid_pair.gamma.point(t0))) < 1e-7


def test_evolute_tangent_parallel_to_eta(ellipse_pair, astroid_pair):
    rng = np.random.default_rng(9)
    for pair in (ellipse_pair, astroid_pair):
        ev = evolute(pair)
        rep = singularity_report(pair)
        verts = np.array([v.t for v in rep.vertices])
        ts = rng.uniform(0.0, TWO_PI, 64)
        # vertices are evolute cusps; the tangent direction degenerates there
        ts = np.array([t for t in ts if np.min(np.abs(t - verts)) > 0.05])
        d1 = ev.gamma.derivative(ts, 1)
        eta = pair.eta(ts)
        sin_angle = np.abs(symplectic(d1, eta)) / (
            np.linalg.norm(d1, axis=1) * np.linalg.norm(eta, axis=1))
        assert np.max(sin_angle) < 1e-4


def test_evolute_frame_curvature_euclidean(ellipse_pair):
    ev = evolute(ellipse_pair)
    cp = curvature_pair(ev)
    ok, pred_a, pred_k = evolute_curvature(ellipse_pair, ev)
    assert np.max(np.abs(cp.alpha - pred_a)[ok]) < 1e-4
    assert np.max(np.abs(cp.kappa - pred_k)[ok]) < 1e-4


def test_evolute_frame_curvature_l3(l3, l3_circle_pair):
    # point evolute, but the frame still moves; distortion enters kappa
    ev = evolute(l3_circle_pair)
    cp = curvature_pair(ev)
    ok, pred_a, pred_k = evolute_curvature(l3_circle_pair, ev)
    assert np.sum(ok) > len(ok) // 2
    assert np.max(np.abs(cp.alpha - pred_a)[ok]) < 1e-4
    assert np.max(np.abs(cp.kappa - pred_k)[ok]) < 1e-4

    # generic synthesized front in l3
    alpha = lambda t: 1.1 + 0.3 * np.cos(t)
    kappa = lambda t: 1.0 + 0.25 * np.sin(t)
    L = synthesize(l3, SynthesisSpec(alpha, kappa, (0.0, 0.0),
                                     tuple(l3.circle_point(0.8)), (0.0, 4.0)))
    ev2 = evolute(L)
    cp2 = curvature_pair(ev2)
    ok2, pa2, pk2 = evolute_curvature(L, ev2)
    assert np.max(np.abs(cp2.alpha - pa2)[ok2]) < 1e-4
    assert np.max(np.abs(cp2.kappa - pk2)[ok2]) < 1e-4


def test_evolute_requires_nonvanishing_kappa(euclidean):
    wave = ParamCurve(lambda t: np.stack([np.asarray(t), np.sin(t)], -1),
                      (-1.0, 1.0))
    pair = legendre_from_curve(euclidean, wave)
    with pytest.raises(KappaVanishes):
        evolute(pair)


def test_parallel_sweep_lies_on_evolute(ellipse_pair, astroid_pair, circle_pair):
    for pair in (ellipse_pair, astroid_pair):
        swept = evolute_as_parallel_singularities(pair)
        ev = evolute(pair).gamma.point(np.linspace(0.0, TWO_PI, 4096, endpoint=False))
        d = _dist_to_polyline(swept, ev, closed=True)
        assert np.max(d) < 1e-3
    # circle: every offset but -1 is regular; the sweep collapses to the center
    swept = evolute_as_parallel_singularities(circle_pair)
    if len(swept):
        assert np.max(np.abs(swept)) < 1e-6


def test_normal_envelope_residual(ellipse_pair, circle_pair):
    ev = evolute(ellipse_pair)
    for t0 in (0.7, 2.2, 4.0):
        F, dF = normal_envelope_residual(ellipse_pair, t0, ev.gamma.point(t0))
        assert abs(F) < 1e-8 and abs(dF) < 1e-8
        F2, dF2 = normal_envelope_residual(ellipse_pair, t0,
                                           ev.gamma.point(t0) + np.array([0.1, 0.0]))
        assert max(abs(F2), abs(dF2)) > 1e-3
    for t0 in (0.0, 1.0, 2.5):
        F, dF = normal_envelope_residual(circle_pair, t0, np.zeros(2))
        assert abs(F) < 1e-12 and abs(dF) < 1e-12


# -- involutes ---------------------------------------------------------------

def test_involute_round_trips(euclidean, fourier_oval, l3):
    # evolute o involute = gamma to round-off: at most 5.0e-15 measured over
    # these norms, curves, offsets and sample counts
    ts = np.linspace(0.0, TWO_PI, 257)
    for samples in (512, 2048):
        for curve in (catalog.circle(samples), catalog.ellipse(2.0, 1.0, samples)):
            for plane in (euclidean, fourier_oval):
                pair = legendre_from_curve(plane, curve)
                for d in (0.0, 0.5, -1.0):
                    ev = evolute(involute(pair, d))
                    err = np.max(np.abs(ev.gamma.point(ts) - pair.gamma.point(ts)))
                    assert err < 1e-13, (plane.spec.kind, curve.name, samples, d, err)
            # the lp3 distortion vanishes at the axes: every involute is refused
            with pytest.raises(RhoDegenerate):
                involute(legendre_from_curve(l3, curve), 0.5)


@pytest.mark.parametrize("norm", ["euclidean", "fourier_oval", "l3"])
@pytest.mark.parametrize("curve", [catalog.cusp_t2t3, catalog.astroid], ids=["t2t3", "astroid"])
def test_involute_round_trips_through_cusps(request, norm, curve):
    # normals extended through the cusps: at most 8.9e-16 measured over these
    # norms, curves and offsets
    pair = legendre_from_curve(request.getfixturevalue(norm), curve(512))
    if norm == "l3" and curve is catalog.astroid:
        # the astroid's normal sweeps the lp3 axes, where the distortion vanishes
        with pytest.raises(RhoDegenerate):
            involute(pair, 0.5)
        return
    ts = np.linspace(*pair.domain, 257)
    for d in (0.0, 0.5, -1.0):
        err = np.max(np.abs(evolute(involute(pair, d)).gamma.point(ts) - pair.gamma.point(ts)))
        assert err < 1e-13, (norm, curve.__name__, d, err)


def test_involute_closed_form_circle(circle_pair):
    inv = involute(circle_pair, 0.0)
    ts = np.linspace(0.0, TWO_PI, 257)
    want = np.stack([np.cos(ts) + ts * np.sin(ts), np.sin(ts) - ts * np.cos(ts)], -1)
    assert np.max(np.abs(inv.gamma.point(ts) - want)) < 1e-9


def test_involute_offset_is_linear_in_d(circle_pair):
    ts = np.linspace(0.0, TWO_PI, 65)
    s0 = involute(circle_pair, 0.0).gamma.point(ts)
    s5 = involute(circle_pair, 0.5).gamma.point(ts)
    assert np.max(np.abs(s5 - s0 - 0.5 * circle_pair.plane.birkhoff(circle_pair.eta(ts)))) < 1e-12


def test_involute_cusp_at_offset_parameter(circle_pair):
    inv = involute(circle_pair, 0.5)
    rep = singularity_report(inv)
    assert rep.counts["cusps"] == 1
    assert rep.cusps[0].t == pytest.approx(0.5, abs=1e-6)


def test_involute_curvature_pair_structure(circle_pair, euclidean):
    # involute normal rate carries kappa * rho; for the euclidean circle the
    # measured pair is (kappa rho (d - t), kappa rho) = (d - t, 1)
    d = 0.5
    inv = involute(circle_pair, d)
    cp = curvature_pair(inv)
    assert np.max(np.abs(cp.alpha - (d - cp.ts))) < 1e-9
    assert np.max(np.abs(cp.kappa - 1.0)) < 1e-9


def test_involute_l3_sector_round_trip(l3):
    # eta confined to a sector away from the flat axis directions
    alpha = lambda t: 1.0 + 0.2 * np.sin(t)
    kappa = lambda t: 0.5 + 0.1 * np.cos(t)
    L = synthesize(l3, SynthesisSpec(alpha, kappa, (0.0, 0.0),
                                     tuple(l3.circle_point(0.6)), (0.0, 1.0)))
    inv = involute(L, 0.3)
    ev = evolute(inv)
    ts = np.linspace(0.0, 1.0, 101)
    assert np.max(np.abs(ev.gamma.point(ts) - L.gamma.point(ts))) < 1e-4


def test_involute_gated_on_degenerate_distortion(l3_circle_pair):
    with pytest.raises(RhoDegenerate):
        involute(l3_circle_pair, 0.0)


def test_involute_gated_on_kappa(maslov_pair):
    with pytest.raises(KappaVanishes):
        involute(maslov_pair, 0.5)


# -- pedals ------------------------------------------------------------------

def test_pedal_of_circle_about_center_is_identity(circle_pair):
    res = pedal(circle_pair, (0.0, 0.0))
    ts = np.linspace(0.0, TWO_PI, 65)
    assert np.max(np.abs(res.gamma_p.point(ts) - circle_pair.gamma.point(ts))) < 1e-12
    assert res.frontal_claimed


def test_pedal_cardioid_spot_values(circle_pair):
    res = pedal(circle_pair, (1.0, 0.0))
    assert np.allclose(res.gamma_p.point(np.pi / 2.0), [1.0, 1.0], atol=1e-12)
    assert np.allclose(res.gamma_p.point(np.pi), [-1.0, 0.0], atol=1e-12)
    assert not res.frontal_claimed  # base point lies on the circle


def test_pedal_derivative_formula_matches_fd(ellipse_pair, l3_circle_pair):
    for pair, p in ((ellipse_pair, (0.3, 0.4)), (l3_circle_pair, (0.2, -0.3))):
        res = pedal(pair, p)
        plain = ParamCurve(res.gamma_p.position, res.gamma_p.domain,
                           res.gamma_p.closed)
        ts = np.linspace(0.0, TWO_PI, 48, endpoint=False)
        fd = plain.derivative(ts, 1)
        an = res.gamma_p.derivative(ts, 1)
        scale = max(1.0, float(np.max(np.abs(an))))
        assert np.max(np.abs(fd - an)) < 1e-4 * scale


def test_pedal_singularities_are_kappa_zeros(maslov_pair):
    res = pedal(maslov_pair, (5.0, 5.0))
    assert res.frontal_claimed
    got = np.sort(res.singular_ts)
    assert len(got) == 2
    assert np.max(np.abs(got - np.array([0.0, np.pi]))) < 1e-8
    # the pedal pair validates as a curve/normal pair
    assert res.pair is not None and res.pair.residual < 1e-5


def test_pedal_envelope_reconstructs_base(circle_pair):
    p = (0.0, 0.3)
    ped = pedal(circle_pair, p)
    for t0 in (0.4, 1.7, 3.9):
        F, dF = pedal_envelope_residual(circle_pair, p, t0,
                                        circle_pair.gamma.point(t0), ped=ped)
        assert abs(F) < 1e-6 and abs(dF) < 1e-6
        F2, dF2 = pedal_envelope_residual(
            circle_pair, p, t0,
            circle_pair.gamma.point(t0) + 0.05 * circle_pair.eta(t0), ped=ped)
        assert max(abs(F2), abs(dF2)) > 1e-3


def test_pedal_envelope_on_cardioid_fixture(circle_pair):
    # base point on the circle: the pedal is the cardioid; reconstruction
    # still holds away from the degenerate parameter
    p = (1.0, 0.0)
    ped = pedal(circle_pair, p)
    for t0 in (0.9, 2.4, 4.2):
        F, dF = pedal_envelope_residual(circle_pair, p, t0,
                                        circle_pair.gamma.point(t0), ped=ped)
        assert abs(F) < 1e-6 and abs(dF) < 1e-6


def test_pedal_envelope_l3_fixture(l3_circle_pair):
    p = (0.0, 1.0)
    ped = pedal(l3_circle_pair, p)
    plane = l3_circle_pair.plane
    for t0 in (0.9, 2.7, 5.1):
        F, dF = pedal_envelope_residual(l3_circle_pair, p, t0,
                                        plane.circle_point(t0), ped=ped)
        assert abs(F) < 1e-4 and abs(dF) < 1e-4


def test_pedal_envelope_degenerate_line(circle_pair):
    # base point on the curve: the pedal hits it where the lever vanishes
    p = (1.0, 0.0)
    ped = pedal(circle_pair, p)
    with pytest.raises(DegenerateLine):
        pedal_envelope_residual(circle_pair, p, 0.0, np.array([1.0, 0.0]), ped=ped)
    F, dF = pedal_envelope_residual(circle_pair, p, 0.0, np.array([1.0, 0.0]),
                                    ped=ped, allow_limit=True)
    assert np.isfinite(F) and np.isfinite(dF)


# -- osculating circles and vertices ----------------------------------------

def test_osculating_circle_radius_two(euclidean):
    two = ParamCurve(lambda t: np.stack([2.0 * np.cos(t), 2.0 * np.sin(t)], -1),
                     (0.0, TWO_PI), closed=True)
    pair = legendre_from_curve(euclidean, two)
    data = osculating_data(pair, 0.9)
    assert np.max(np.abs(data["center"])) < 1e-6
    assert data["radius"] == pytest.approx(2.0, abs=1e-6)
    assert abs(data["D1"]) < 1e-6 and abs(data["D2"]) < 1e-6


def test_osculating_ellipse_axis_point(ellipse_pair):
    data = osculating_data(ellipse_pair, 0.0)
    assert np.allclose(data["center"], [1.5, 0.0], atol=1e-9)
    assert data["radius"] == pytest.approx(0.5, abs=1e-9)
    assert abs(data["D1"]) < 1e-4 and abs(data["D2"]) < 1e-4
    D1, D2 = distance_squared_rates(ellipse_pair, 0.0,
                                    data["center"] + np.array([0.07, 0.05]))
    assert max(abs(D1), abs(D2)) > 1e-2


def test_osculating_l3_circle(l3_circle_pair):
    data = osculating_data(l3_circle_pair, 0.8)
    assert np.max(np.abs(data["center"])) < 1e-7
    assert data["radius"] == pytest.approx(1.0, abs=1e-7)
    assert abs(data["D1"]) < 1e-4 and abs(data["D2"]) < 1e-4


def test_vertex_residual_locates_vertices(ellipse_pair, circle_pair):
    assert abs(vertex_residual(ellipse_pair, 0.0)) < 1e-6
    assert abs(vertex_residual(ellipse_pair, np.pi / 5.0)) > 1e-3
    for t0 in (0.3, 1.9, 5.0):
        assert abs(vertex_residual(circle_pair, t0)) < 1e-8


def test_vertex_count_inequalities_astroid(astroid_pair):
    rep = singularity_report(astroid_pair)
    inv = involute(astroid_pair, 0.5)
    rep_inv = singularity_report(inv)
    n_sing_gamma = rep.counts["cusps"] + rep.counts["degenerate_singular"]
    n_sing_sigma = rep_inv.counts["cusps"] + rep_inv.counts["degenerate_singular"]
    assert n_sing_sigma <= n_sing_gamma <= rep.counts["vertices"]
    assert rep.counts["vertices"] >= 4


def test_four_vertex_conditions_hold(astroid_pair, maslov_pair):
    # four singular points force at least four vertices when kappa permits
    rep = singularity_report(astroid_pair)
    assert rep.counts["cusps"] >= 4
    assert rep.counts["vertices"] >= 4


# -- relations between derived pairs -----------------------------------------
# The parallel at offset d keeps eta and has the pair (alpha + d kappa, kappa),
# so its centres of curvature are the base's, its vertices are the base's
# ((alpha/kappa + d)' = (alpha/kappa)'), and its cusps are the zeros of
# alpha + d kappa; the evolute's alpha is (alpha/kappa)' = -W/kappa^2, so its
# cusps are the base's vertices. Checked on the ellipse (2, 1) under three
# norms, away from any analytic count.

# the grid sign changes of alpha + d kappa on each (norm, d)
_PARALLEL_CUSPS = {("lp3", -0.2): 8}


@pytest.fixture(scope="module", params=["euclidean", "fourier", "lp3"])
def ellipse_512(request):
    """(norm name, base pair, its report, its evolute, the evolute's report)."""
    fixture = {"euclidean": "euclidean", "fourier": "fourier_oval", "lp3": "l3"}[request.param]
    base = legendre_from_curve(request.getfixturevalue(fixture),
                               catalog.ellipse(2.0, 1.0, samples=512))
    ev = evolute(base)
    return request.param, base, singularity_report(base), ev, singularity_report(ev)


@pytest.fixture(scope="module", params=[0.3, -0.2])
def parallel_of_ellipse(request, ellipse_512):
    """(d, the parallel at d of ellipse_512's base, its report)."""
    pair = parallel(ellipse_512[1], request.param)
    return request.param, pair, singularity_report(pair)


def _circular_gap(a, b):
    """Largest distance, modulo 2 pi, from an event of a or b to the nearest
    event of the other."""
    d = np.abs(np.subtract.outer(a, b)) % TWO_PI
    d = np.minimum(d, TWO_PI - d)
    return max(np.max(np.min(d, axis=1)), np.max(np.min(d, axis=0)))


def test_the_evolute_of_a_parallel_is_the_evolute(ellipse_512, parallel_of_ellipse):
    _, base, _, ev, ev_report = ellipse_512
    _, pair, _ = parallel_of_ellipse
    of_parallel = evolute(pair)
    gap = of_parallel.gamma.point(base.ts) - ev.gamma.point(base.ts)
    assert np.max(np.abs(gap)) < 1e-14
    counts = singularity_report(of_parallel).counts
    assert counts["cusps"] == ev_report.counts["cusps"]
    assert counts["vertices"] == ev_report.counts["vertices"]


def test_a_parallel_has_the_vertices_of_its_base(ellipse_512, parallel_of_ellipse):
    _, _, report, _, _ = ellipse_512
    _, _, parallel_report = parallel_of_ellipse
    assert parallel_report.counts["vertices"] == report.counts["vertices"] >= 4
    assert _circular_gap([v.t for v in parallel_report.vertices],
                         [v.t for v in report.vertices]) < 1e-9


def test_a_parallels_cusps_are_the_sign_changes_of_alpha_plus_d_kappa(ellipse_512,
                                                                     parallel_of_ellipse):
    name, base, _, _, _ = ellipse_512
    d, _, parallel_report = parallel_of_ellipse
    signs = np.sign(base.alpha + d * base.kappa)
    signs = signs[signs != 0.0]
    changes = int(np.sum(signs != np.roll(signs, 1)))
    assert changes == _PARALLEL_CUSPS.get((name, d), 0)
    assert parallel_report.counts["cusps"] == changes


def test_the_evolutes_cusps_are_the_base_vertices(ellipse_512):
    name, _, report, _, ev_report = ellipse_512
    assert ev_report.counts["cusps"] == report.counts["vertices"] == (8 if name == "lp3" else 4)
    assert _circular_gap([c.t for c in ev_report.cusps],
                         [v.t for v in report.vertices]) < 1e-9


def _turn(angle):
    return np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])


def _extended_t2t3(plane):
    curve = catalog.cusp_t2t3()
    return extend_normal(plane, curve, *grid_speeds(plane, curve))


# every normal-field builder that gives its field a (value, rate) jet
_JET_FIELDS = {
    "induced-euclid": lambda fx: induced_normal(fx("euclidean"), catalog.ellipse()),
    "induced-lp3": lambda fx: induced_normal(fx("l3"), catalog.ellipse()),
    "extended-t2t3": lambda fx: _extended_t2t3(fx("euclidean")),
    "evolute-nu": lambda fx: evolute(fx("ellipse_pair")).eta,
    "involute-xi": lambda fx: involute(fx("circle_pair"), 0.5).eta,
    "synthesized": lambda fx: fx("maslov_pair").eta,
    "catalog-astroid": lambda fx: catalog.astroid_normal(),
    "unit-circle-of-norm": lambda fx: catalog.unit_circle_normal(fx("l3")),
    "linear-map": lambda fx: apply_linear_map(fx("ellipse_pair"), _turn(0.3)).eta,
}


@pytest.mark.parametrize("name", sorted(_JET_FIELDS))
def test_value_and_rate_is_value_and_derivative(request, name):
    field = _JET_FIELDS[name](request.getfixturevalue)
    assert field.jet is not None
    for t in (np.linspace(field.domain[0], field.domain[1], 257), 0.37):
        eta, rate = field.value_and_rate(t)
        assert np.array_equal(eta, field(t))
        assert np.array_equal(rate, field.derivative(t, 1))


@pytest.mark.parametrize("name", sorted(_JET_FIELDS))
def test_the_jet_begins_with_the_bits_of_evaluate(request, name):
    # alpha_at reads a pair's normal without its rate and values_at with it,
    # so the two must agree bit for bit
    field = _JET_FIELDS[name](request.getfixturevalue)
    p = field._wrap(np.linspace(field.domain[0], field.domain[1], 257))
    assert np.array_equal(np.asarray(field.jet(p)[0]), np.asarray(field.evaluate(p)))


def _fresh(field):
    return NormalField(field.evaluate, field.domain, field.closed, field.jet)


def test_threads_sharing_a_field_read_their_own_bits(l3):
    # a field holds no evaluation: threads that share it, each at its own
    # parameters, always get their own bits
    field = induced_normal(l3, catalog.ellipse())
    grids = [np.linspace(0.1 * k, 6.0, 64 + k) for k in range(4)]
    wants = [_fresh(field).value_and_rate(ts) for ts in grids]
    failures = []

    def work(k):
        for _ in range(25):
            got = field.value_and_rate(grids[k])
            value = field(grids[k])
            if not (np.array_equal(got[0], wants[k][0]) and np.array_equal(got[1], wants[k][1])
                    and np.array_equal(value, wants[k][0])):
                failures.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(grids))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


# pairs of every kind of normal field: with and without a jet, built and derived
_PAIRS = {
    "induced-lp3": lambda fx: legendre_from_curve(fx("l3"), catalog.ellipse(samples=256)),
    "extended-t2t3": lambda fx: fx("t2t3_pair"),
    "astroid": lambda fx: fx("astroid_pair"),
    "transferred": lambda fx: transfer_legendre(fx("ellipse_pair"), fx("l3")),
    "pedal": lambda fx: pedal(fx("ellipse_pair"), (0.1, 0.2)).pair,
    "evolute": lambda fx: evolute(fx("ellipse_pair")),
    "involute": lambda fx: involute(fx("circle_pair"), 0.5),
}


@pytest.mark.parametrize("name", sorted(_PAIRS))
def test_alpha_at_is_the_first_part_of_values_at(request, monkeypatch, name):
    # alpha_at reads the normal alone, values_at its jet: the same bits
    L = _PAIRS[name](request.getfixturevalue)
    cp = curvature_pair(L)
    ts = np.linspace(*cp.domain, 257)
    off = ts[~np.isin(ts, cp.ts)]       # the parameters off the sample grid
    assert off.size
    for t in (off, 0.37):
        assert np.array_equal(cp.alpha_at(t), cp.values_at(t)[0])
    # one frame per call, without the normal's rate: no jet of the normal
    # and no finite difference of it
    calls = []
    frame = L.frame
    monkeypatch.setattr(L, "frame", lambda t, rate: calls.append((np.size(t), rate))
                        or frame(t, rate))
    cp.alpha_at(off)
    assert calls == [(off.size, False)]
    # a grid node reads its sample and evaluates nothing; the sample is the
    # bits the normal alone gives the node in another batch
    nodes = cp.ts[::-1]
    assert np.array_equal(cp.alpha_at(nodes), cp.alpha[::-1])
    assert np.array_equal(cp.values_at(nodes)[1], cp.kappa[::-1])
    assert calls == [(off.size, False)]
    e = L.eta(nodes)
    want = symplectic(e, L.gamma.derivative(nodes, 1)) / symplectic(e, L.plane.birkhoff(e))
    assert np.array_equal(cp.alpha[::-1], want)


# pairs of every kind of frame: built from a curve's jet, derived from a
# base frame or a base jet, and the default of a pair's curve and normal apart
_FRAME_PAIRS = {
    **_PAIRS,
    "parallel": lambda fx: parallel(fx("ellipse_pair"), 0.3),
    "synthesized": lambda fx: fx("maslov_pair"),
    "linear-map": lambda fx: apply_linear_map(fx("ellipse_pair"), _turn(0.3)),
    "unit-circle": lambda fx: make_legendre(fx("l3"), catalog.unit_circle_of_norm(fx("l3"), 256),
                                            catalog.unit_circle_normal(fx("l3"))),
}


@pytest.mark.parametrize("name", sorted(_FRAME_PAIRS))
def test_the_frame_has_the_bits_of_the_curve_and_the_normal(request, name):
    # the pair's one evaluator gives gamma', eta and eta' the bits that the
    # curve and its normal give them apart, on and off the grid
    L = _FRAME_PAIRS[name](request.getfixturevalue)
    t0, t1 = L.domain
    off = np.linspace(t0, t1, 101)[1:-1]
    for t in (L.ts, L.ts[::-3], off, off[::-1], np.asarray(t0 + 0.37 * (t1 - t0))):
        want = (L.gamma.derivative(t, 1), *L.eta.value_and_rate(t))
        got = L.frame(t, True)
        assert len(got) == 3 and all(np.array_equal(g, w) for g, w in zip(got, want))
        d1, e = L.frame(t, False)
        assert np.array_equal(d1, want[0]) and np.array_equal(e, L.eta(t))


# derived pairs by the base pair
_DERIVED = {
    "evolute": evolute,
    "involute": lambda L: involute(L, 0.5),
    "parallel": lambda L: parallel(L, 0.3),
    "pedal": lambda L: pedal(L, (0.1, 0.2)).pair,
}

# supporting-map inversions per point of one values_at call, the base's eta
# and the derived normal together:
#   evolute   eta's jet, shared by nu's jet and the evolute's gamma' in its
#             frame (1), nu itself (1), the 7-point stencil of (alpha/kappa)' (7)
#   involute  eta's jet, shared by xi's jet and the involute's gamma' in its
#             frame (1), alpha at the 5 Gauss nodes of A (5)
#   parallel  the base frame, shared with gamma' + d eta' (1)
#   pedal     the jetless nu's 7-point stencil, eta and nu at each (14),
#             eta's jet for gamma_p' (1)
_INVERSIONS_PER_POINT = {"evolute": 9, "involute": 6, "parallel": 1, "pedal": 15}


@pytest.mark.parametrize("name", sorted(_DERIVED))
def test_derived_pair_values_invert_the_supporting_map_a_fixed_number_of_times(
        fourier_oval, monkeypatch, name):
    pair = _DERIVED[name](legendre_from_curve(fourier_oval, catalog.ellipse(2.0, 1.0, samples=256)))
    ts = np.linspace(0.1, 6.0, 50)
    points = []
    invert = fourier_oval.tangent_theta
    monkeypatch.setattr(fourier_oval, "tangent_theta",
                        lambda chi, *order: points.append(np.size(chi)) or invert(chi, *order))
    pair.values_at(ts)
    assert sum(points) == _INVERSIONS_PER_POINT[name] * ts.size


@pytest.mark.parametrize("norm, make, inversions", [
    ("euclidean", lambda: catalog.ellipse(2.0, 1.0, samples=512), 4114),
    ("l3", lambda: catalog.cusp_t2t3(samples=512), 4116),
], ids=["euclidean-ellipse", "lp3-t2t3"])
def test_building_an_evolute_inverts_the_supporting_map_a_fixed_number_of_times(
        euclidean, l3, monkeypatch, norm, make, inversions):
    # make_legendre reads the evolute's frame on the grid once: eta's jet
    # (1 per node), nu's jet from it (1) and the stencil of (alpha/kappa)'
    # (6, its centre the node's sample), 4096 here. The rest is the closed
    # ellipse's seam check (18: the position and gamma' at both ends) and
    # the finite differences of the normal beside the cusp of t2t3 (20).
    # Each is evaluated: fields keep no jet, so neither the base jet on the
    # grid nor eta(t1) after values_at(t1) is read from an earlier call
    plane = {"euclidean": euclidean, "l3": l3}[norm]
    L = legendre_from_curve(plane, make())
    points = []
    invert = plane.tangent_theta
    monkeypatch.setattr(plane, "tangent_theta",
                        lambda chi, *order: points.append(np.size(chi)) or invert(chi, *order))
    evolute(L)
    assert sum(points) == inversions


def test_an_evolute_ratio_rate_inverts_each_distinct_point_once(fourier_oval, monkeypatch):
    # ratio_rate_at reads the fresh evolute pair at 7 points per parameter: 9
    # inversions each (see above), 7 of them the stencil of (alpha/kappa)', so
    # 49 base points per parameter, which repeat bit for bit where
    # (t + i h) + j h rounds alike. Each distinct base point is inverted once:
    # 1544 inversions here, where evaluating every point made 63 * 50 = 3150
    pair = evolute(legendre_from_curve(fourier_oval, catalog.ellipse(2.0, 1.0, samples=256)))
    ts = np.linspace(0.1, 6.0, 50)
    points = []
    invert = fourier_oval.tangent_theta
    monkeypatch.setattr(fourier_oval, "tangent_theta",
                        lambda chi, *order: points.append(np.size(chi)) or invert(chi, *order))
    pair.ratio_rate_at(ts)
    assert sum(points) == 1544


def test_a_field_without_a_jet_evaluates_seven_points_per_point(ellipse_pair, l3):
    # the value is the centre of the stencil that gives the rate
    base = transfer_legendre(ellipse_pair, l3).eta
    assert base.jet is None
    ts = np.linspace(0.1, 6.0, 50)
    want = base(ts), base.derivative(ts, 1)
    points = []
    eta = NormalField(lambda t: points.append(np.size(t)) or base.evaluate(t),
                      base.domain, base.closed)
    got = eta.value_and_rate(ts)
    assert sum(points) == 7 * ts.size
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    value, rate = eta.value_and_rate(1.0)
    assert value.shape == rate.shape == (2,) and np.array_equal(value, eta(1.0))
