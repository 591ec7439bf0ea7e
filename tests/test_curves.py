import numpy as np
import pytest

from normplane import catalog
from normplane.analysis import make_legendre
from normplane.curves import (
    Jet,
    NormalField,
    ParamCurve,
    extend_normal,
    find_singular_params,
    induced_normal,
)
from normplane.errors import BadParameter, LimitsDisagree, OutOfDomain, SingularPoint
from normplane.numerics import differentiate, fd_weights
from normplane.plane import is_birkhoff_orthogonal

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
    with pytest.raises(BadParameter):
        ParamCurve(lambda t: np.stack([np.cos(t), np.sin(t)], -1), (0.0, 3.0),
                   closed=True)


def test_induced_normal_circle(euclidean):
    nf = induced_normal(euclidean, catalog.circle())
    ts = np.linspace(0.0, TWO_PI, 64, endpoint=False)
    want = np.stack([np.cos(ts), np.sin(ts)], -1)
    assert np.max(np.abs(nf(ts) - want)) < 1e-9
    assert nf.provenance == "induced_regular"


def test_induced_normal_l3_self_circle(l3):
    nf = induced_normal(l3, catalog.unit_circle_of_norm(l3))
    ts = np.linspace(0.0, TWO_PI, 64, endpoint=False)
    assert np.max(np.abs(nf(ts) - l3.circle_point(ts))) < 1e-6


def test_induced_normal_rejects_singular_curve(euclidean):
    with pytest.raises(SingularPoint):
        induced_normal(euclidean, catalog.cusp_t2t3())


def test_induced_normal_satisfies_oracle(euclidean, l3, fourier_oval):
    curve = catalog.ellipse(1.7, 0.9)
    rng = np.random.default_rng(2)
    ts = rng.uniform(0.0, TWO_PI, 64)
    for plane in (euclidean, l3, fourier_oval):
        nf = induced_normal(plane, curve)
        etas = nf(ts)
        d1 = curve.derivative(ts, 1)
        for e, w in zip(etas, d1):
            assert is_birkhoff_orthogonal(plane, e, w, 1e-7)


def test_find_singular_params_between_nodes(euclidean):
    found = find_singular_params(euclidean, catalog.cusp_t2t3())
    assert len(found) == 1
    assert abs(found[0][0]) < 1e-8


def test_extend_normal_astroid(euclidean):
    nf = extend_normal(euclidean, catalog.astroid())
    ts = np.linspace(0.0, TWO_PI, 257)
    want = np.stack([np.sin(ts), np.cos(ts)], -1)
    assert np.max(np.abs(nf(ts) - want)) < 1e-7
    # smooth through every cusp, including the wrap point
    for t0 in (0.0, np.pi / 2.0, np.pi, 3.0 * np.pi / 2.0):
        assert np.max(np.abs(nf(t0) - np.array([np.sin(t0), np.cos(t0)]))) < 1e-7


def test_extend_normal_t2t3(euclidean):
    nf = extend_normal(euclidean, catalog.cusp_t2t3())
    ts = np.linspace(-0.95, 0.95, 41)
    want = np.stack([3.0 * ts, -2.0 * np.ones_like(ts)], -1)
    want /= np.sqrt(4.0 + 9.0 * ts ** 2)[:, None]
    assert np.max(np.abs(nf(ts) - want)) < 1e-7


def test_extend_normal_corner_rejected(euclidean):
    corner = ParamCurve(lambda t: np.stack([np.abs(t), np.asarray(t)], -1),
                        (-1.0, 1.0))
    with pytest.raises(LimitsDisagree):
        extend_normal(euclidean, corner)


def test_extend_equals_induced_on_regular_curves(euclidean):
    curve = catalog.ellipse(1.3, 0.8)
    a = induced_normal(euclidean, curve)
    b = extend_normal(euclidean, curve)
    ts = np.linspace(0.0, TWO_PI, 128, endpoint=False)
    assert np.max(np.abs(a(ts) - b(ts))) < 1e-7


def test_normal_sign_convention_left(euclidean):
    from normplane.plane import symplectic
    curve = catalog.ellipse(1.3, 0.8)
    nf = induced_normal(euclidean, curve)
    ts = np.linspace(0.0, TWO_PI, 128, endpoint=False)
    assert np.all(symplectic(nf(ts), curve.derivative(ts, 1)) > 0.0)


def test_legendre_residual_values(euclidean, astroid_pair):
    circle = catalog.circle()
    good = NormalField(lambda t: np.stack([np.cos(t), np.sin(t)], -1),
                       (0.0, TWO_PI), True, "analytic")
    bad = NormalField(lambda t: np.stack([-np.sin(t), np.cos(t)], -1),
                      (0.0, TWO_PI), True, "analytic")
    assert make_legendre(euclidean, circle, good, np.inf).residual < 1e-8
    assert make_legendre(euclidean, circle, bad, np.inf).residual > 0.5
    assert make_legendre(euclidean, astroid_pair.gamma, astroid_pair.eta,
                         np.inf).residual < 1e-6


def test_jet_validation():
    with pytest.raises(BadParameter):
        Jet(0.0, tuple(np.zeros(2) for _ in range(6)))
    with pytest.raises(BadParameter):
        Jet(0.0, (np.array([np.nan, 0.0]),))


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
    eta = extend_normal(l3, curve)
    t_flat = -np.tan(np.pi / 6.0) / 1.5
    w, dw = curve.derivative(t_flat, 1), curve.derivative(t_flat, 2)
    assert abs(l3.normal_from_tangent_with_derivative(w, dw)[2]) < 1e-6
    want = differentiate(eta, t_flat, 1, curve.span * 1e-4,
                         domain=curve.domain, closed=False)
    assert np.allclose(eta.derivative(t_flat, 1), want, rtol=1e-12, atol=0.0)


def test_extended_normal_jet_inverts_the_supporting_map_once_per_point(l3, monkeypatch):
    eta = extend_normal(l3, catalog.cusp_t2t3())
    ts = np.linspace(0.2, 0.9, 50)
    points = []
    invert = l3.tangent_theta
    monkeypatch.setattr(l3, "tangent_theta",
                        lambda chi: points.append(np.size(chi)) or invert(chi))
    value, _ = eta.value_and_rate(ts)
    assert sum(points) == len(ts)
    monkeypatch.undo()
    assert np.array_equal(value, eta(ts))
