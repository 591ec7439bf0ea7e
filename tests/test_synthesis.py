import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from normplane import catalog
from normplane.analysis import curvature_pair, legendre_from_curve, singularity_report
from normplane.cli import build_curve_and_pair
from normplane.errors import BadParameter, NotAnIsometry, NotUnit
from normplane.plane import NormSpec, build_plane
from normplane.synthesis import SynthesisSpec, apply_linear_map, synthesize

TWO_PI = 2.0 * np.pi
_EUCLID = build_plane(NormSpec("euclidean", table_size=512))


def _ones(t):
    return np.ones_like(np.asarray(t, dtype=float))


def test_unit_circle_reconstruction(euclidean):
    spec = SynthesisSpec(_ones, _ones, (1.0, 0.0), (1.0, 0.0), (0.0, TWO_PI))
    L = synthesize(euclidean, spec)
    ts = np.linspace(0.0, TWO_PI, 413)
    want = np.stack([np.cos(ts), np.sin(ts)], -1)
    assert np.max(np.abs(L.gamma.point(ts) - want)) < 1e-7
    assert L.gamma.closed
    assert L.residual < 1e-5


@pytest.mark.parametrize("domain", [(0.0, 1e300), (0.0, 1e-300)])
def test_a_domain_without_finite_stencils_is_refused_before_the_integration(domain):
    # the integration used to overflow first, and numpy warned on stderr
    spec = SynthesisSpec(_ones, _ones, (0.0, 0.0), (1.0, 0.0), domain)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadParameter, match="too long or too short"):
            synthesize(_EUCLID, spec)


def test_astroid_reconstruction(euclidean):
    spec = SynthesisSpec(lambda t: 1.5 * np.sin(2.0 * t), lambda t: -_ones(t),
                         (1.0, 0.0), (0.0, 1.0), (0.0, TWO_PI))
    L = synthesize(euclidean, spec)
    ts = np.linspace(0.0, TWO_PI, 413)
    want = np.stack([np.cos(ts) ** 3, np.sin(ts) ** 3], -1)
    assert np.max(np.abs(L.gamma.point(ts) - want)) < 1e-5


def test_minkowski_circle_characterization(l3):
    eta0 = l3.circle_point(1.0)
    spec = SynthesisSpec(lambda t: 2.0 * _ones(t), _ones, (0.5, -0.25), eta0,
                         (0.0, l3.length))
    L = synthesize(l3, spec)
    center = np.array([0.5, -0.25]) - 2.0 * L.eta(0.0)
    ts = np.linspace(0.0, l3.length, 801)
    radii = l3.norm(L.gamma.point(ts) - center)
    assert np.max(np.abs(radii - 2.0)) < 1e-5


def test_requires_unit_initial_normal(euclidean):
    with pytest.raises(NotUnit):
        synthesize(euclidean, SynthesisSpec(_ones, _ones, (0.0, 0.0), (2.0, 0.0),
                                            (0.0, 1.0)))


def test_round_trip_synthesis_then_analysis(euclidean, l3):
    alpha = lambda t: 1.3 + 0.4 * np.cos(t) - 0.2 * np.sin(2.0 * t)
    kappa = lambda t: 0.9 + 0.3 * np.sin(t) + 0.1 * np.cos(2.0 * t)
    for plane, v in ((euclidean, (1.0, 0.0)), (l3, tuple(l3.circle_point(0.7)))):
        L = synthesize(plane, SynthesisSpec(alpha, kappa, (0.2, 0.1), v, (0.0, TWO_PI)))
        cp = curvature_pair(L)
        assert np.max(np.abs(cp.alpha - alpha(cp.ts))) < 1e-5
        assert np.max(np.abs(cp.kappa - kappa(cp.ts))) < 1e-5


def test_round_trip_analysis_then_synthesis(astroid_pair, euclidean):
    cp = curvature_pair(astroid_pair)
    spec = SynthesisSpec(cp.alpha_at, cp.kappa_at,
                         tuple(astroid_pair.gamma.point(0.0)),
                         tuple(astroid_pair.eta(0.0)), (0.0, TWO_PI), steps=2048)
    L = synthesize(euclidean, spec)
    ts = np.linspace(0.0, TWO_PI, 301)
    assert np.max(np.abs(L.gamma.point(ts) - astroid_pair.gamma.point(ts))) < 1e-5


@given(st.floats(-0.4, 0.4), st.floats(-0.4, 0.4), st.floats(-0.4, 0.4),
       st.floats(0.6, 2.0))
@settings(max_examples=10, deadline=None)
def test_round_trip_property_random_trig(a1, b1, a2, k0):
    alpha = lambda t: 1.0 + a1 * np.cos(t) + b1 * np.sin(t)
    kappa = lambda t: k0 + a2 * np.sin(2.0 * t)
    L = synthesize(_EUCLID, SynthesisSpec(alpha, kappa, (0.0, 0.0), (1.0, 0.0),
                                          (0.0, TWO_PI), steps=512))
    cp = curvature_pair(L)
    assert np.max(np.abs(cp.alpha - alpha(cp.ts))) < 1e-5
    assert np.max(np.abs(cp.kappa - kappa(cp.ts))) < 1e-5


def test_uniqueness_under_step_refinement(euclidean):
    alpha = lambda t: 1.0 + 0.2 * np.sin(t)
    kappa = lambda t: 0.8 + 0.1 * np.cos(2.0 * t)
    a = synthesize(euclidean, SynthesisSpec(alpha, kappa, (0.0, 0.0), (1.0, 0.0),
                                            (0.0, TWO_PI), steps=2048))
    b = synthesize(euclidean, SynthesisSpec(alpha, kappa, (0.0, 0.0), (1.0, 0.0),
                                            (0.0, TWO_PI), steps=4096))
    ts = np.linspace(0.0, TWO_PI, 301)
    assert np.max(np.abs(a.gamma.point(ts) - b.gamma.point(ts))) < 1e-6


def test_perturbed_initial_normal_moves_solution(euclidean):
    base = synthesize(euclidean, SynthesisSpec(_ones, _ones, (1.0, 0.0), (1.0, 0.0),
                                               (0.0, TWO_PI)))
    turned = synthesize(euclidean, SynthesisSpec(_ones, _ones, (1.0, 0.0),
                                                 (np.cos(0.2), np.sin(0.2)), (0.0, TWO_PI)))
    ts = np.linspace(0.5, 2.5, 64)
    assert np.max(np.abs(base.gamma.point(ts) - turned.gamma.point(ts))) > 1e-2


def test_fourth_order_convergence(euclidean):
    errs = []
    for steps in (256, 512, 1024):
        L = synthesize(euclidean, SynthesisSpec(_ones, _ones, (1.0, 0.0),
                                                (1.0, 0.0), (0.0, TWO_PI), steps=steps))
        tn = np.linspace(0.0, TWO_PI, steps + 1)
        want = np.stack([np.cos(tn), np.sin(tn)], -1)
        errs.append(float(np.max(np.abs(L.gamma.point(tn) - want))))
    assert 10.0 < errs[0] / errs[1] < 24.0
    assert 10.0 < errs[1] / errs[2] < 24.0


def test_rotation_invariance_euclidean(circle_pair):
    ang = np.deg2rad(37.0)
    rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    moved = apply_linear_map(circle_pair, rot, is_isometry_of_plane=True)
    cp = curvature_pair(moved)
    assert np.max(np.abs(cp.alpha - 1.0)) < 1e-8
    assert np.max(np.abs(cp.kappa - 1.0)) < 1e-8


def test_l3_quarter_turn_invariance_and_swap_negation(l3):
    alpha = lambda t: 1.2 + 0.3 * np.cos(t)
    kappa = lambda t: 1.0 + 0.2 * np.sin(t)
    L = synthesize(l3, SynthesisSpec(alpha, kappa, (0.0, 0.0),
                                     tuple(l3.circle_point(0.7)), (0.0, 3.0)))
    cp = curvature_pair(L)

    quarter = np.array([[0.0, -1.0], [1.0, 0.0]])
    rotated = apply_linear_map(L, quarter, is_isometry_of_plane=True)
    cpr = curvature_pair(rotated)
    assert np.max(np.abs(cpr.alpha - cp.alpha)) < 1e-7
    assert np.max(np.abs(cpr.kappa - cp.kappa)) < 1e-7

    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    swapped = apply_linear_map(L, swap, is_isometry_of_plane=True)
    cps = curvature_pair(swapped)
    assert np.max(np.abs(cps.alpha + cp.alpha)) < 1e-7
    assert np.max(np.abs(cps.kappa + cp.kappa)) < 1e-7


def test_non_isometry_rejected(circle_pair, l3, euclidean):
    with pytest.raises(NotAnIsometry):
        apply_linear_map(circle_pair, 2.0 * np.eye(2), is_isometry_of_plane=True)
    # a euclidean rotation by a generic angle does not preserve the l3 norm
    ang = 0.3
    rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    L = legendre_from_curve(l3, catalog.unit_circle_of_norm(l3))
    with pytest.raises(NotAnIsometry):
        apply_linear_map(L, rot, is_isometry_of_plane=True)


def test_synthesis_integrates_from_the_start_of_its_domain(euclidean):
    # the pair on [t0, t1] is the pair of the shifted data on [0, t1 - t0], shifted
    t0 = 1.0
    alpha = lambda t: np.cos(3.0 * np.asarray(t, dtype=float))
    kappa = lambda t: 1.0 + 0.2 * np.sin(np.asarray(t, dtype=float))
    L = synthesize(euclidean, SynthesisSpec(alpha, kappa, (0.0, 0.0), (1.0, 0.0),
                                            (t0, t0 + TWO_PI), steps=1024))
    ref = synthesize(euclidean, SynthesisSpec(lambda s: alpha(s + t0), lambda s: kappa(s + t0),
                                              (0.0, 0.0), (1.0, 0.0), (0.0, TWO_PI),
                                              steps=1024))
    assert L.gamma.domain == L.eta.domain == (t0, t0 + TWO_PI)
    ts = np.linspace(t0, t0 + TWO_PI, 301)
    assert np.max(np.abs(L.gamma.point(ts) - ref.gamma.point(ts - t0))) < 1e-9
    assert np.max(np.abs(L.eta(ts) - ref.eta(ts - t0))) < 1e-9
    cp = curvature_pair(L)
    assert cp.ts[0] == t0 and abs(cp.alpha[0] - np.cos(3.0)) < 1e-5
    assert np.max(np.abs(cp.alpha - alpha(cp.ts))) < 1e-5
    assert np.max(np.abs(cp.kappa - kappa(cp.ts))) < 1e-5


@pytest.mark.parametrize("kappa, calls", [(_ones, 3), (lambda t: 1.0 + 0.1 * np.cos(t), 4)],
                         ids=["kappa=1", "kappa=1+0.1cos"])
def test_equal_stage_arc_lengths_share_one_inversion(fourier_oval, monkeypatch, kappa, calls):
    # the nodes and the four stages invert their arc lengths: stage 3 shares
    # stage 2's inversion exactly when its arc lengths are the same bits,
    # which kappa = 1 gives at every step and 1 + 0.1 cos t at none
    seen = []
    invert = fourier_oval.theta_of_arclength
    monkeypatch.setattr(fourier_oval, "theta_of_arclength",
                        lambda u: seen.append((u, invert(u))) or seen[-1][1])
    spec = SynthesisSpec(lambda t: np.cos(3.0 * np.asarray(t, dtype=float)), kappa,
                         (0.0, 0.0), tuple(fourier_oval.circle_point(0.0)), (0.0, TWO_PI),
                         steps=512)
    synthesize(fourier_oval, spec)
    assert len(seen) == calls
    u2, theta2 = seen[1]
    if calls == 4:
        assert u2.tobytes() != seen[2][0].tobytes()
    # the inversion keeps no state, so a shared stage gets the bits its own
    # inversion would
    assert np.array_equal(invert(u2), theta2)


_QUARTER = np.array([[0.0, -1.0], [1.0, 0.0]])
_REFLECTIONS = {"y->-y": np.diag([1.0, -1.0]), "x->-x": np.diag([-1.0, 1.0])}
_REPORT_CURVES = (
    {"kind": "catalog", "name": "ellipse", "a": 2.0, "b": 1.0},
    {"kind": "catalog", "name": "cusp_t2t3"},
    {"kind": "expression", "x": "cos(t) + 0.3*cos(2*t)", "y": "sin(t) - 0.3*sin(2*t)",
     "domain": [0.0, TWO_PI], "closed": True},
)


def _event_ts(report):
    return {key: np.array([e.t for e in getattr(report, key)])
            for key in ("cusps", "inflections", "vertices")}


@pytest.mark.parametrize("norm", ["euclidean", "l3", "fourier_oval"])
def test_isometries_keep_the_report(request, norm):
    # an isometry M of the plane maps the pair (gamma, eta) to (M gamma, M eta).
    # A rotation keeps (alpha, kappa); a reflection reverses the orientation,
    # so b(M v) = -M b(v) and (alpha, kappa) -> (-alpha, -kappa): cusps swap
    # zig and zag, while inflections keep flip and flop (alpha kappa' keeps
    # its sign). Measured at 512 samples: alpha and kappa agree to 7.1e-15
    # absolute, events move at most 4.4e-13
    plane = request.getfixturevalue(norm)
    maps = dict(_REFLECTIONS)
    if norm == "fourier_oval":
        with pytest.raises(NotAnIsometry):
            apply_linear_map(build_curve_and_pair(plane, dict(_REPORT_CURVES[0]), 512),
                             _QUARTER, is_isometry_of_plane=True)
    else:
        maps["quarter"] = _QUARTER
    for ccfg in _REPORT_CURVES:
        L = build_curve_and_pair(plane, dict(ccfg), 512)
        report = singularity_report(L)
        events = _event_ts(report)
        for name, M in maps.items():
            moved = apply_linear_map(L, M, is_isometry_of_plane=True)
            sign = np.sign(np.linalg.det(M))
            assert np.max(np.abs(moved.alpha - sign * L.alpha)) <= 1e-14 * L.alpha_scale
            assert np.max(np.abs(moved.kappa - sign * L.kappa)) <= 1e-14 * L.kappa_scale
            got = singularity_report(moved)
            want = dict(report.counts)
            if sign < 0:
                want["zigs"], want["zags"] = want["zags"], want["zigs"]
            assert got.counts == want, (ccfg, name)
            for key, ts in _event_ts(got).items():
                assert ts.size == events[key].size and np.all(
                    np.abs(ts - events[key]) <= 1e-12), (ccfg, name, key)
