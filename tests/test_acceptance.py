"""Acceptance gate: one test per shipped criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Two sub-criteria are implemented exactly as specified but are expected to
fail for documented reasons (strict xfail); see notes in the repository's
review ledger: the two-circle contact fixture has pair-contact order 1, and
the sin-kappa zigzag fixture violates the nonvanishing-kappa hypothesis its
vertex/involute clause needs.
"""

import functools
import os

import numpy as np
import pytest

from normplane import catalog
from normplane.analysis import (
    contact_implies_curvature_match,
    contact_order,
    curvature_pair,
    legendre_from_curve,
    make_legendre,
    maslov_index,
    singularity_report,
    transfer_legendre,
)
from normplane.cli import main
from normplane.curves import ParamCurve
from normplane.derived import evolute, involute, pedal
from normplane.errors import KappaVanishes, PreconditionViolated
from normplane.plane import symplectic
from normplane.synthesis import SynthesisSpec, apply_linear_map, synthesize
from oracles import (
    antinorm_supremum,
    distance_squared_rates,
    evolute_as_parallel_singularities,
    evolute_curvature,
    hausdorff_polyline,
    is_birkhoff_orthogonal,
    lateral_tangent_sign,
    normal_envelope_residual,
    osculating_data,
    point_segment_dist2,
)

TWO_PI = 2.0 * np.pi
HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(HERE, os.pardir, "configs")


def criterion(label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {label}: FAIL")
                raise
            print(f"ACCEPTANCE {label}: PASS")
        return run
    return wrap


@criterion("01 euclidean circle regression")
def test_criterion_01_circle_regression(circle_pair):
    cp = curvature_pair(circle_pair)
    assert len(cp.ts) == 2048
    assert np.max(np.abs(cp.alpha - 1.0)) < 1e-7
    assert np.max(np.abs(cp.kappa - 1.0)) < 1e-7
    assert np.max(np.abs(cp.kappa / cp.alpha - 1.0)) < 1e-7


def _printed_pedal_branch(t):
    p, q = 3.0, 1.5
    t = np.asarray(t, dtype=float)
    s1 = np.clip(1.0 - t, 0.0, None)
    s2 = np.clip(t - 1.0, 0.0, None)
    x = np.where(t <= 1.0,
                 t ** (1 / p) - t ** (1 / p) * s1 ** (1 / q),
                 (2.0 - t) ** (1 / p) + (2.0 - t) ** (1 / p) * s2 ** (1 / q))
    y = np.where(t <= 1.0, t + s1 ** (1 / p), 2.0 - t - s2 ** (1 / p))
    return np.stack([x, y], -1)


def _smootherstep(w):
    return w ** 3 * (10.0 - 15.0 * w + 6.0 * w * w)


@criterion("02 right pedal of the l3 circle")
def test_criterion_02_l3_pedal(l3):
    curve = catalog.unit_circle_of_norm(l3, samples=4096)
    pair = make_legendre(l3, curve, catalog.unit_circle_normal(l3))
    res = pedal(pair, (0.0, 1.0))
    ours = res.gamma_p.point(res.gamma_p.grid())

    # spot checks straight from the printed formula
    assert np.max(np.abs(_printed_pedal_branch(1.0) - np.array([1.0, 1.0]))) < 1e-12
    spot = _printed_pedal_branch(0.5)
    assert np.max(np.abs(spot - np.array([0.29372, 1.29370]))) < 3e-5
    # our pedal at the matching boundary point reproduces the formula value
    theta_mid = np.arctan2(2.0 ** (-1.0 / 3.0), 2.0 ** (-1.0 / 3.0))
    assert np.max(np.abs(res.gamma_p.point(theta_mid) - spot)) < 1e-6

    # reference sampled with cube-root clustering at the branch ends, where
    # the printed parametrization has unbounded speed
    w = np.linspace(0.0, 1.0, 2048)
    seg1 = _smootherstep(w)
    seg2 = 1.0 + _smootherstep(w)
    right = _printed_pedal_branch(np.concatenate([seg1, seg2[1:]]))
    mirror = right * np.array([-1.0, 1.0])
    ref = np.vstack([right, mirror[::-1][1:-1]])
    d = hausdorff_polyline(ours, ref, closed_a=True, closed_b=True)
    assert d < 1e-4


@criterion("03 circles have proportional curvature pair")
def test_criterion_03_minkowski_circle(l3):
    eta0 = l3.circle_point(1.0)
    spec = SynthesisSpec(lambda t: 2.0 * np.ones_like(np.asarray(t, dtype=float)),
                         lambda t: np.ones_like(np.asarray(t, dtype=float)),
                         (0.5, -0.25), eta0, (0.0, l3.length))
    L = synthesize(l3, spec)
    center = np.asarray([0.5, -0.25]) - 2.0 * L.eta(0.0)
    ts = np.linspace(0.0, l3.length, 1025)
    assert np.max(np.abs(l3.norm(L.gamma.point(ts) - center) - 2.0)) < 1e-5


@criterion("04 synthesis and analysis invert each other")
def test_criterion_04_round_trips(euclidean, astroid_pair):
    ones = lambda t: np.ones_like(np.asarray(t, dtype=float))
    fixtures = [
        ("circle", ones, ones, (1.0, 0.0), (1.0, 0.0)),
        ("astroid", lambda t: 1.5 * np.sin(2.0 * t), lambda t: -ones(t),
         (1.0, 0.0), (0.0, 1.0)),
        ("trig", lambda t: 1.3 + 0.4 * np.cos(t) - 0.2 * np.sin(2.0 * t),
         lambda t: 0.9 + 0.3 * np.sin(t) + 0.1 * np.cos(2.0 * t),
         (0.2, 0.1), (1.0, 0.0)),
    ]
    for name, alpha, kappa, p0, v0 in fixtures:
        L = synthesize(euclidean, SynthesisSpec(alpha, kappa, p0, v0, (0.0, TWO_PI)))
        cp = curvature_pair(L)
        assert np.max(np.abs(cp.alpha - alpha(cp.ts))) < 1e-5, name
        assert np.max(np.abs(cp.kappa - kappa(cp.ts))) < 1e-5, name

    # gamma round trip against the closed forms
    ts = np.linspace(0.0, TWO_PI, 413)
    circ = synthesize(euclidean, SynthesisSpec(ones, ones, (1.0, 0.0), (1.0, 0.0),
                                               (0.0, TWO_PI)))
    assert np.max(np.abs(circ.gamma.point(ts)
                         - np.stack([np.cos(ts), np.sin(ts)], -1))) < 1e-5
    ast = synthesize(euclidean, SynthesisSpec(lambda t: 1.5 * np.sin(2.0 * t),
                                              lambda t: -ones(t), (1.0, 0.0),
                                              (0.0, 1.0), (0.0, TWO_PI)))
    assert np.max(np.abs(ast.gamma.point(ts)
                         - np.stack([np.cos(ts) ** 3, np.sin(ts) ** 3], -1))) < 1e-5

    # reverse round trip from a measured pair
    cpa = curvature_pair(astroid_pair)
    L2 = synthesize(euclidean, SynthesisSpec(
        cpa.alpha_at, cpa.kappa_at, tuple(astroid_pair.gamma.point(0.0)),
        tuple(astroid_pair.eta(0.0)), (0.0, TWO_PI), steps=2048))
    assert np.max(np.abs(L2.gamma.point(ts) - astroid_pair.gamma.point(ts))) < 1e-5

    errs = []
    for steps in (256, 512, 1024):
        L = synthesize(euclidean, SynthesisSpec(ones, ones, (1.0, 0.0), (1.0, 0.0),
                                                (0.0, TWO_PI), steps=steps))
        tn = np.linspace(0.0, TWO_PI, steps + 1)
        errs.append(float(np.max(np.abs(
            L.gamma.point(tn) - np.stack([np.cos(tn), np.sin(tn)], -1)))))
    assert 10.0 < errs[0] / errs[1] < 24.0
    assert 10.0 < errs[1] / errs[2] < 24.0


@criterion("05 zigzag invariant three ways")
def test_criterion_05_maslov(astroid_pair, maslov_pair, maslov_coefficients):
    assert maslov_index(astroid_pair) == {"word_reduction": 0, "flip_flop": 0,
                                          "rotation": 0}
    seam = np.linalg.norm(maslov_pair.gamma.point(0.0)
                          - maslov_pair.gamma.point(TWO_PI))
    assert seam < 1e-6
    a0, a1, a2 = maslov_coefficients
    expected = 1 if (a0 + a1 + a2) * (a0 - a1 + a2) < 0.0 else 0
    mi = maslov_index(maslov_pair)
    assert mi["word_reduction"] == mi["flip_flop"] == mi["rotation"] == expected


@criterion("06 cusp detection and classification")
def test_criterion_06_cusps(astroid_pair, t2t3_pair, maslov_pair, circle_pair):
    rep = singularity_report(astroid_pair)
    got = np.sort([c.t for c in rep.cusps])
    want = np.array([0.0, np.pi / 2.0, np.pi, 3.0 * np.pi / 2.0])
    assert len(got) == 4
    assert np.max(np.abs(got - want)) < 1e-9
    assert len({c.kind for c in rep.cusps}) == 1

    rep23 = singularity_report(t2t3_pair)
    assert rep23.counts["cusps"] == 1
    assert rep23.cusps[0].kind == "zig"
    assert abs(rep23.cusps[0].t) < 1e-9

    for pair in (astroid_pair, maslov_pair, circle_pair):
        assert singularity_report(pair).counts["cusps"] % 2 == 0

    for pair in (astroid_pair, t2t3_pair, maslov_pair):
        for cusp in singularity_report(pair).cusps:
            assert lateral_tangent_sign(pair, cusp.t) == cusp.kind


@criterion("07 evolute suite")
def test_criterion_07_evolute(ellipse_pair, l3):
    ev = evolute(ellipse_pair)
    assert np.max(np.abs(ev.gamma.point(0.0) - np.array([1.5, 0.0]))) < 1e-6

    rng = np.random.default_rng(4)
    rep = singularity_report(ellipse_pair)
    verts = np.array([v.t for v in rep.vertices])
    ts = rng.uniform(0.0, TWO_PI, 64)
    ts = np.array([t for t in ts if np.min(np.abs(t - verts)) > 0.05])
    d1 = ev.gamma.derivative(ts, 1)
    eta = ellipse_pair.eta(ts)
    sin_angle = np.abs(symplectic(d1, eta)) / (
        np.linalg.norm(d1, axis=1) * np.linalg.norm(eta, axis=1))
    assert np.max(sin_angle) < 1e-4

    # the evolute pair's curvature against ((alpha/kappa)', kappa/rho(nu)) where rho > 1e-3
    for pair in (ellipse_pair,
                 synthesize(l3, SynthesisSpec(
                     lambda t: 1.1 + 0.3 * np.cos(t),
                     lambda t: 1.0 + 0.25 * np.sin(t),
                     (0.0, 0.0), tuple(l3.circle_point(0.8)), (0.0, 4.0)))):
        fr = evolute(pair)
        cp = curvature_pair(fr)
        ok, pred_a, pred_k = evolute_curvature(pair, fr)
        assert np.max(np.abs(cp.alpha - pred_a)[ok]) < 1e-4
        assert np.max(np.abs(cp.kappa - pred_k)[ok]) < 1e-4

    # offset-family singular points lie on the evolute
    swept = evolute_as_parallel_singularities(ellipse_pair)
    pts = ev.gamma.point(np.linspace(0.0, TWO_PI, 4096, endpoint=False))
    dists = np.sqrt(point_segment_dist2(swept, pts, np.roll(pts, -1, axis=0)))
    assert np.max(dists) < 1e-3

    for t0 in (0.7, 2.2):
        F, dF = normal_envelope_residual(ellipse_pair, t0, ev.gamma.point(t0))
        assert abs(F) < 1e-6 and abs(dF) < 1e-6
        F2, dF2 = normal_envelope_residual(
            ellipse_pair, t0, ev.gamma.point(t0) + np.array([0.1, 0.0]))
        assert max(abs(F2), abs(dF2)) > 1e-3


@criterion("08 involute round trip")
def test_criterion_08_involute(circle_pair):
    ts = np.linspace(0.0, TWO_PI, 257)
    for d in (0.0, 0.5, -1.0):
        inv = involute(circle_pair, d)
        assert np.max(np.abs(evolute(inv).gamma.point(ts)
                             - circle_pair.gamma.point(ts))) < 1e-4
    rep = singularity_report(involute(circle_pair, 0.5))
    assert rep.counts["cusps"] == 1
    assert rep.cusps[0].t == pytest.approx(0.5, abs=1e-6)


@criterion("09 osculating circle diagnostics")
def test_criterion_09_osculating(ellipse_pair, l3_circle_pair):
    for pair, t0 in ((ellipse_pair, 0.0), (ellipse_pair, 0.9),
                     (l3_circle_pair, 0.8), (l3_circle_pair, 2.0)):
        data = osculating_data(pair, t0)
        assert abs(data["D1"]) < 1e-4 and abs(data["D2"]) < 1e-4
        D1, D2 = distance_squared_rates(pair, t0,
                                        data["center"] + np.array([0.07, 0.05]))
        assert max(abs(D1), abs(D2)) > 1e-2


@criterion("10 isometry invariance")
def test_criterion_10_isometries(l3):
    L = synthesize(l3, SynthesisSpec(lambda t: 1.2 + 0.3 * np.cos(t),
                                     lambda t: 1.0 + 0.2 * np.sin(t),
                                     (0.0, 0.0), tuple(l3.circle_point(0.7)), (0.0, 3.0)))
    cp = curvature_pair(L)
    quarter = np.array([[0.0, -1.0], [1.0, 0.0]])
    cpr = curvature_pair(apply_linear_map(L, quarter, is_isometry_of_plane=True))
    assert np.max(np.abs(cpr.alpha - cp.alpha)) < 1e-7
    assert np.max(np.abs(cpr.kappa - cp.kappa)) < 1e-7
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    cps = curvature_pair(apply_linear_map(L, swap, is_isometry_of_plane=True))
    assert np.max(np.abs(cps.alpha + cp.alpha)) < 1e-7
    assert np.max(np.abs(cps.kappa + cp.kappa)) < 1e-7


@criterion("11 plane-kernel oracles")
def test_criterion_11_plane_oracles(euclidean, l3):
    rng = np.random.default_rng(11)
    angles = rng.uniform(0.0, TWO_PI, 64)
    vs = np.stack([np.cos(angles), np.sin(angles)], -1)
    for v in vs:
        assert is_birkhoff_orthogonal(l3, v, l3.birkhoff(v))
    xs = rng.normal(size=(64, 2)) * rng.uniform(0.2, 5.0, (64, 1))
    for x in xs:
        sup = antinorm_supremum(l3, x)
        assert abs(l3.antinorm(x) - sup) <= 1e-6 * sup
    thetas = np.linspace(0.0, TWO_PI, 64, endpoint=False)
    assert np.max(np.abs(euclidean.rho(euclidean.circle_point(thetas)) - 1.0)) < 1e-6
    assert l3.rho(np.array([1.0, 0.0])) < 1e-3
    assert 6.0 <= l3.length <= 8.0


@criterion("12 vertex-count inequalities (astroid)")
def test_criterion_12_vertex_inequalities_astroid(astroid_pair):
    rep = singularity_report(astroid_pair)
    inv = involute(astroid_pair, 0.5)
    rep_inv = singularity_report(inv)
    n_gamma = rep.counts["cusps"] + rep.counts["degenerate_singular"]
    n_sigma = rep_inv.counts["cusps"] + rep_inv.counts["degenerate_singular"]
    assert n_sigma <= n_gamma <= rep.counts["vertices"]
    assert rep.counts["vertices"] >= 4


@pytest.mark.xfail(
    strict=True, raises=KappaVanishes,
    reason="criterion defect: the sin-kappa zigzag fixture has vanishing "
           "kappa, so its involute is gated and the vertex inequality's "
           "hypothesis fails (it has 4 cusps but only 2 vertices)")
@criterion("12 vertex-count inequalities (sin-kappa fixture)")
def test_criterion_12_vertex_inequalities_maslov_fixture(maslov_pair):
    rep = singularity_report(maslov_pair)
    inv = involute(maslov_pair, 1.0)
    rep_inv = singularity_report(inv)
    n_gamma = rep.counts["cusps"] + rep.counts["degenerate_singular"]
    n_sigma = rep_inv.counts["cusps"] + rep_inv.counts["degenerate_singular"]
    assert n_sigma <= n_gamma <= rep.counts["vertices"]


def _two_circle_fixture(euclidean):
    return legendre_from_curve(euclidean, ParamCurve(
        lambda t: np.stack([2.0 * np.cos(t / 2.0) - 1.0,
                            2.0 * np.sin(t / 2.0)], -1),
        (-np.pi, np.pi), closed=False,
        derivatives=(
            lambda t: np.stack([-np.sin(t / 2.0), np.cos(t / 2.0)], -1),
            lambda t: np.stack([-0.5 * np.cos(t / 2.0), -0.5 * np.sin(t / 2.0)], -1),
            lambda t: np.stack([0.25 * np.sin(t / 2.0), -0.25 * np.cos(t / 2.0)], -1),
        )))


@pytest.mark.xfail(
    strict=True,
    reason="criterion defect: the radius-2 circle's normal turns at half "
           "rate, so the pair jets split at order 1 and pair contact is "
           "exactly 1, not 2")
@criterion("13 contact order of the two-circle fixture")
def test_criterion_13_contact_order_as_specified(euclidean, circle_pair):
    big = _two_circle_fixture(euclidean)
    assert contact_order(circle_pair, 0.0, big, 0.0, kmax=4) == 2


@pytest.mark.xfail(
    strict=True, raises=PreconditionViolated,
    reason="criterion defect: the fixtures' kappa values differ already at "
           "order 0 (1 vs 1/2) and the contact-order precondition fails")
@criterion("13 curvature match to order 1 on the two-circle fixture")
def test_criterion_13_curvature_match_as_specified(euclidean, circle_pair):
    big = _two_circle_fixture(euclidean)
    rep = contact_implies_curvature_match(circle_pair, 0.0, big, 0.0, 2)
    assert all(r < 1e-4 for r in rep["residuals"].values())


@criterion("13 contact order preserved under norm transfer")
def test_criterion_13_contact_preserved_under_transfer(euclidean, l3, circle_pair):
    # tangency placed at a generic direction: the flat axis directions of the
    # l3 circle have zero turning and the transferred normals lose smoothness
    phi = 0.4

    def pos(t):
        u = phi + np.asarray(t) + np.asarray(t) ** 2
        return np.stack([np.cos(u), np.sin(u)], -1)

    other = legendre_from_curve(euclidean, ParamCurve(pos, (-0.3, 0.3)))
    before = contact_order(circle_pair, phi, other, 0.0, kmax=4)
    assert before == 2
    a3 = transfer_legendre(circle_pair, l3)
    b3 = transfer_legendre(other, l3)
    assert contact_order(a3, phi, b3, 0.0, kmax=4) == before


@criterion("14 deterministic cli and exit codes")
def test_criterion_14_cli(tmp_path):
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        for cfg in ("circle_analyze.json", "astroid_analyze.json",
                    "ellipse_evolute.json"):
            assert main(["run", os.path.join(CONFIGS, cfg), "--out", str(out)]) == 0
        outs.append(out)
    for rel in ("circle.csv", "circle.json", "astroid.csv", "astroid.json",
                "ellipse_evolute.csv", "ellipse_evolute.json"):
        a = outs[0] / "out" / rel
        b = outs[1] / "out" / rel
        assert a.read_bytes() == b.read_bytes()
    assert main(["run", os.path.join(CONFIGS, "l1_reject.json"),
                 "--out", str(tmp_path)]) == 3
    assert main(["run", os.path.join(CONFIGS, "evolute_kappa_refusal.json"),
                 "--out", str(tmp_path)]) == 5
