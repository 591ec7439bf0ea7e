import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from normplane.errors import (
    BadParameter,
    ConvexityViolation,
    NoConvergence,
    NotUnit,
    PositivityViolation,
    ZeroVector,
)
from normplane.plane import (
    TANGENT_BLOCK,
    NormSpec,
    build_plane,
    symplectic,
)
from oracles import (
    EagerArclength,
    antinorm_supremum,
    is_birkhoff_orthogonal,
    lp_radial_jet,
    transfer_unit,
)

TWO_PI = 2.0 * np.pi


def test_symplectic_form_is_antisymmetric_and_normalized():
    rng = np.random.default_rng(7)
    xs = rng.normal(size=(32, 2))
    ys = rng.normal(size=(32, 2))
    assert np.allclose(symplectic(xs, ys), -symplectic(ys, xs))
    assert symplectic(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0


def test_euclidean_circumference(euclidean):
    assert abs(euclidean.length - TWO_PI) < 1e-9


def test_l3_circumference_between_golab_bounds(l3):
    assert 6.0 <= l3.length <= 8.0


def test_norm_values(euclidean, l3):
    assert euclidean.norm(np.array([3.0, 4.0])) == pytest.approx(5.0)
    assert l3.norm(np.array([1.0, 1.0])) == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-12)
    assert euclidean.norm(np.array([0.0, 0.0])) == 0.0


@given(st.floats(-50, 50), st.floats(-50, 50), st.floats(0.01, 20))
@settings(max_examples=50, deadline=None)
def test_norm_homogeneity_l3(x, y, lam):
    plane = _L3
    v = np.array([x, y])
    assert plane.norm(lam * v) == pytest.approx(lam * plane.norm(v), rel=1e-12, abs=1e-12)


@given(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5))
@settings(max_examples=50, deadline=None)
def test_triangle_inequality_l3(x1, y1, x2, y2):
    plane = _L3
    a = np.array([x1, y1])
    b = np.array([x2, y2])
    assert plane.norm(a + b) <= plane.norm(a) + plane.norm(b) + 1e-12


_L3 = build_plane(NormSpec("lp", p=3.0, table_size=512))


def test_birkhoff_map_euclidean_is_quarter_turn(euclidean):
    assert np.allclose(euclidean.birkhoff(np.array([1.0, 0.0])), [0.0, 1.0])
    assert np.allclose(euclidean.birkhoff(np.array([2.0, 0.0])), [0.0, 1.0])


def test_birkhoff_map_l3_axis_and_diagonal(l3):
    assert np.allclose(l3.birkhoff(np.array([1.0, 0.0])), [0.0, 1.0], atol=1e-12)
    d = 2.0 ** (-1.0 / 3.0)
    got = l3.birkhoff(np.array([d, d]))
    assert np.allclose(got, [-d, d], atol=1e-9)


def test_birkhoff_map_zero_vector_rejected(euclidean):
    with pytest.raises(ZeroVector):
        euclidean.birkhoff(np.array([0.0, 0.0]))


def test_birkhoff_map_degree_zero_homogeneous(l3):
    rng = np.random.default_rng(3)
    v = rng.normal(size=(16, 2))
    b = l3.birkhoff(v)
    # power-of-two scalings leave the direction bit-identical; a general
    # factor moves atan2 by at most an ulp
    assert np.array_equal(l3.birkhoff(0.5 * v), b)
    assert np.array_equal(l3.birkhoff(2.0 * v), b)
    assert np.max(np.abs(l3.birkhoff(10.0 * v) - b)) < 1e-12


def test_birkhoff_inverse_round_trip(euclidean, l3):
    assert np.allclose(euclidean.birkhoff_inverse(np.array([0.0, 1.0])),
                       [1.0, 0.0], atol=1e-12)
    d = 2.0 ** (-1.0 / 3.0)
    w = np.array([-d, d])
    z = l3.birkhoff_inverse(w)
    assert np.allclose(z, [d, d], atol=1e-8)
    assert np.max(np.abs(l3.birkhoff(z) - w)) < 1e-8
    with pytest.raises(NotUnit):
        l3.birkhoff_inverse(np.array([2.0, 0.0]))


def test_birkhoff_oracle_64_random_directions(euclidean, l3, fourier_oval):
    rng = np.random.default_rng(11)
    angles = rng.uniform(0.0, TWO_PI, 64)
    vs = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    for plane in (euclidean, l3, fourier_oval):
        for v in vs:
            assert is_birkhoff_orthogonal(plane, v, plane.birkhoff(v))


def test_birkhoff_oracle_rejects_non_orthogonal(euclidean):
    assert is_birkhoff_orthogonal(euclidean, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert not is_birkhoff_orthogonal(euclidean, np.array([1.0, 0.0]),
                                      np.array([1.0, 1.0]))


def test_antinorm_values(euclidean, l3):
    assert euclidean.antinorm(np.array([3.0, 4.0])) == pytest.approx(5.0, abs=1e-10)
    assert l3.antinorm(np.array([1.0, 0.0])) == pytest.approx(1.0, abs=1e-9)
    # dual exponent identity, used only as an external cross-check
    assert l3.antinorm(np.array([1.0, 1.0])) == pytest.approx(2.0 ** (2.0 / 3.0),
                                                              abs=1e-9)
    assert euclidean.antinorm(np.array([0.0, 0.0])) == 0.0


def test_antinorm_matches_supremum_oracle(l3, fourier_oval):
    rng = np.random.default_rng(5)
    xs = rng.normal(size=(64, 2)) * rng.uniform(0.2, 5.0, (64, 1))
    for plane in (l3, fourier_oval):
        for x in xs:
            sup = antinorm_supremum(plane, x)
            assert abs(plane.antinorm(x) - sup) <= 1e-6 * sup


def test_unit_circle_point_and_speed(euclidean, l3):
    assert np.allclose(euclidean.unit_circle_point(np.pi / 2.0), [0.0, 1.0],
                       atol=1e-9)
    assert np.allclose(euclidean.unit_circle_point(0.0), euclidean.circle_point(0.0))
    for plane in (euclidean, l3):
        h = plane.length * 1e-5
        for u in (0.1, 0.37 * plane.length, 0.81 * plane.length):
            sp = (plane.unit_circle_point(u + h) - plane.unit_circle_point(u - h)) / (2 * h)
            assert abs(plane.norm(sp) - 1.0) < 1e-4


def test_arclength_consistency_small_steps(l3):
    h = l3.length * 1e-5
    us = np.linspace(0.0, l3.length, 17, endpoint=False)
    steps = l3.norm(l3.unit_circle_point(us + h) - l3.unit_circle_point(us))
    assert np.max(np.abs(steps / h - 1.0)) < 1e-4


def test_rho_euclidean_is_one(euclidean):
    thetas = np.linspace(0.0, TWO_PI, 32, endpoint=False)
    rho = euclidean.rho(euclidean.circle_point(thetas))
    assert np.max(np.abs(rho - 1.0)) < 1e-9


def test_rho_l3_axis_vanishes_and_diagonal_regression(l3):
    assert l3.rho(l3.circle_point(0.0)) < 1e-4
    # regression constant computed from the analytic boundary derivatives
    assert l3.rho(l3.circle_point(np.pi / 4.0)) == pytest.approx(2.0, abs=1e-9)


def test_rho_central_symmetry(l3, fourier_oval):
    thetas = np.linspace(0.0, np.pi, 64, endpoint=False)
    for plane in (l3, fourier_oval):
        a = plane.rho(plane.circle_point(thetas))
        b = plane.rho(plane.circle_point(thetas + np.pi))
        assert np.max(np.abs(a - b)) < 1e-6


def test_rho_requires_unit_vector(l3):
    with pytest.raises(NotUnit):
        l3.rho(np.array([2.0, 0.0]))


def test_radon_defect(euclidean, l3, fourier_round):
    assert euclidean.radon_defect() < 1e-9
    assert fourier_round.radon_defect() < 1e-9
    assert l3.radon_defect() > 0.1


def test_euclidean_plane_is_the_round_fourier_plane_bit_for_bit(euclidean, fourier_round):
    rng = np.random.default_rng(3)
    v = rng.normal(size=(512, 2))
    v[:4] = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
    unit = v / np.hypot(v[:, 0], v[:, 1])[:, None]
    chi = np.arctan2(v[:, 1], v[:, 0])
    for method, arg in (("norm", v), ("birkhoff", v), ("rho", unit), ("norm", v[0])):
        got, want = getattr(euclidean, method)(arg), getattr(fourier_round, method)(arg)
        assert np.array_equal(got, want), method
    for order in (1, 2):
        (th, jet), (th_r, jet_r) = (p.tangent_theta(chi, order)
                                    for p in (euclidean, fourier_round))
        assert np.array_equal(th, th_r) and np.array_equal(jet, jet_r)


def test_radon_antinorm_coupling_round_plane(fourier_round):
    thetas = np.linspace(0.0, TWO_PI, 64, endpoint=False)
    pts = fourier_round.circle_point(thetas)
    ratios = np.array([fourier_round.antinorm(p) for p in pts])
    assert np.max(ratios) - np.min(ratios) < 1e-6


def test_transfer_unit(euclidean, l3):
    thetas = np.linspace(0.0, TWO_PI, 16, endpoint=False)
    pts = euclidean.circle_point(thetas)
    assert np.max(np.abs(transfer_unit(euclidean, euclidean, pts) - pts)) < 1e-9
    assert np.allclose(transfer_unit(euclidean, l3, np.array([1.0, 0.0])),
                       [1.0, 0.0], atol=1e-9)
    d = 2.0 ** (-1.0 / 3.0)
    got = transfer_unit(euclidean, l3, np.array([1.0, 1.0]) / np.sqrt(2.0))
    assert np.allclose(got, [d, d], atol=1e-9)
    with pytest.raises(NotUnit):
        transfer_unit(euclidean, l3, np.array([3.0, 0.0]))
    # orientation: [T(v), b1(v)] > 0 on a sample of directions
    b1 = euclidean.birkhoff(pts)
    tv = transfer_unit(euclidean, l3, pts)
    assert np.all(symplectic(tv, b1) > 0.0)


def test_build_rejects_bad_specs():
    with pytest.raises(PositivityViolation):
        build_plane(NormSpec("fourier_radial", coefficients=(1.0, -2.0)))
    with pytest.raises(BadParameter):
        build_plane(NormSpec("lp", p=1.0))
    with pytest.raises(BadParameter):
        build_plane(NormSpec("lp", p=0.5))
    with pytest.raises(ConvexityViolation):
        build_plane(NormSpec("fourier_radial", coefficients=(1.0, 0.8)))
    with pytest.raises(BadParameter):
        build_plane(NormSpec("chebyshev"))


def test_build_refuses_a_non_finite_profile():
    # r' and r'' of lp with a huge p overflow to NaN, which every later table
    # check would compare against and pass
    with np.errstate(all="ignore"), pytest.raises(BadParameter, match="not finite"):
        build_plane(NormSpec("lp", p=1e300))


def test_plane_tables_self_consistent(l3, fourier_oval):
    for plane in (l3, fourier_oval):
        th = np.linspace(0.0, TWO_PI, 257)
        assert np.max(np.abs(plane.norm(plane.circle_point(th)) - 1.0)) < 1e-12
        assert np.max(np.abs(plane.circle_point(th + np.pi) + plane.circle_point(th))) < 1e-12
        u = plane.arclength_of_theta(th)
        assert np.all(np.diff(u[:-1]) > 0.0)
        back = plane.theta_of_arclength(u[:-1])
        assert np.max(np.abs(back - np.mod(th[:-1], TWO_PI))) < 1e-8


def test_the_arclength_table_is_built_on_its_first_read_only(monkeypatch):
    import normplane.plane as plane_module

    # segments per call of the plane's 5-point Gauss quadrature
    calls = []
    quadrature = plane_module.gauss5_segments
    monkeypatch.setattr(plane_module, "gauss5_segments",
                        lambda fn, a, b: calls.append(np.size(b)) or quadrature(fn, a, b))
    plane = build_plane(NormSpec("lp", p=3.0, table_size=512))
    assert calls == []
    length = plane.length
    assert calls == [512]
    assert plane.length == length and plane._u_nodes[-1] == length
    plane.theta_of_arclength(0.3 * length)
    assert calls[:1] == [512] and all(size == 1 for size in calls[1:])


_ARCLENGTH_SPECS = [
    NormSpec("euclidean"), NormSpec("lp", p=1.5), NormSpec("lp", p=3.0),
    NormSpec("lp", p=6.0), NormSpec("fourier_radial", coefficients=(1.0, 0.08)),
    NormSpec("lp", p=3.0, table_size=512)]


@pytest.mark.parametrize("first", ["theta_of_arclength", "arclength_of_theta", "length"])
@pytest.mark.parametrize("spec", _ARCLENGTH_SPECS,
                         ids=lambda s: f"{s.kind}-{s.p}-{s.table_size}")
def test_the_deferred_arclength_table_is_the_eager_one_bit_for_bit(spec, first):
    plane = build_plane(spec)
    eager = EagerArclength(plane)
    rng = np.random.default_rng(7)
    us = rng.uniform(-1.0, 8.0, 1000)
    thetas = rng.uniform(-7.0, 7.0, 1000)
    # whichever read builds the table, it is the same table
    reads = {"theta_of_arclength": lambda: plane.theta_of_arclength(us),
             "arclength_of_theta": lambda: plane.arclength_of_theta(thetas),
             "length": lambda: plane.length}
    reads[first]()
    assert plane.length == eager.length
    assert np.array_equal(plane._u_nodes, eager.u)
    assert np.array_equal(plane.arclength_of_theta(thetas), eager.arclength_of_theta(thetas))
    assert np.array_equal(plane.theta_of_arclength(us), eager.theta_of_arclength(us))
    assert np.array_equal(plane.unit_circle_point(us),
                          plane.circle_point(eager.theta_of_arclength(us)))


def test_a_failing_arclength_table_is_refused_by_its_first_read(tmp_path, capsys,
                                                                monkeypatch):
    # every build check passes; the arc-length check runs where the table is
    # built, keeps its class and message, and publishes no table
    import normplane.plane as plane_module
    from normplane.cli import main

    plane = build_plane(NormSpec("euclidean", table_size=256))
    monkeypatch.setattr(plane_module, "gauss5_segments",
                        lambda fn, a, b: np.zeros(np.shape(b)))
    for _ in range(2):
        with pytest.raises(ConvexityViolation,
                           match="^arc length is not strictly increasing$") as err:
            plane.theta_of_arclength(1.0)
        assert err.value.exit_code == 3
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"curve": {"kind": "synthesis", "alpha": "1", "kappa": "1", '
                   '"samples": 64}}')
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == (
        "validation error: arc length is not strictly increasing\n")


@pytest.mark.parametrize("spec, regular", [
    (NormSpec("euclidean"), True), (NormSpec("lp", p=3.0), True),
    (NormSpec("lp", p=1.5), False),
    (NormSpec("fourier_radial", coefficients=(1.0, 0.08)), True)],
    ids=["euclidean", "lp3", "lp1.5", "fourier"])
def test_theta_of_arclength_round_trip_stops_once_converged(spec, regular, monkeypatch):
    plane = build_plane(spec)
    u = np.random.default_rng(3).uniform(0.0, plane.length, 100_000)
    passes = []
    forward = plane.arclength_of_theta
    monkeypatch.setattr(plane, "arclength_of_theta",
                        lambda theta: passes.append(1) or forward(theta))
    theta = plane.theta_of_arclength(u)
    monkeypatch.undo()
    gap = (plane.arclength_of_theta(theta) - u + plane.length / 2.0) % plane.length
    assert np.max(np.abs(gap - plane.length / 2.0)) <= 1e-12 * plane.length
    # the seed's residual, then that of one Newton step; never more than 5
    assert len(passes) <= (3 if regular else 5)


def _bisection_tangent_theta(plane, chi):
    """Reference inverse of the supporting map: 42 lock-step bisection steps
    on the psi table cell of each direction."""
    chi = np.atleast_1d(np.asarray(chi, dtype=float))
    psi0 = plane._psi_nodes[0]
    lift = psi0 + np.mod(chi - psi0, TWO_PI)
    j = np.clip(np.searchsorted(plane._psi_nodes, lift) - 1, 0, plane._n - 1)
    lo = plane._theta_nodes[j].copy()
    hi = plane._theta_nodes[j + 1].copy()
    target = lift - plane._psi_nodes[j]
    w_lo = plane.circle_d1(lo)
    for _ in range(42):
        mid = 0.5 * (lo + hi)
        w = plane.circle_d1(mid)
        dpsi = np.arctan2(symplectic(w_lo, w),
                          w_lo[..., 0] * w[..., 0] + w_lo[..., 1] * w[..., 1])
        high = dpsi > target
        hi = np.where(high, mid, hi)
        lo = np.where(high, lo, mid)
    return np.mod(0.5 * (lo + hi), TWO_PI)


def _angle_gap(a, b):
    return np.abs((a - b + np.pi) % TWO_PI - np.pi)


@pytest.mark.parametrize("spec", [
    NormSpec("euclidean"),
    NormSpec("lp", p=1.5),
    NormSpec("lp", p=2.5),
    NormSpec("lp", p=3.0),
    NormSpec("lp", p=5.0),
    NormSpec("fourier_radial", coefficients=(1.0, 0.08)),
], ids=["euclidean", "lp1.5", "lp2.5", "lp3", "lp5", "fourier"])
def test_tangent_theta_matches_bisection_reference(spec):
    plane = build_plane(spec)
    rng = np.random.default_rng(17)
    # axis and diagonal directions are the flat points of odd-p lp circles
    special = np.arange(8) * (np.pi / 4.0)
    special = np.concatenate([special + d for d in (0.0, 1e-12, -1e-12, 1e-9, -1e-9)])
    special = (special + np.pi) % TWO_PI - np.pi
    chi = np.concatenate([special, rng.uniform(-np.pi, np.pi, 20000)])
    assert chi.size > TANGENT_BLOCK

    got, _ = plane.tangent_theta(chi)
    assert got.shape == chi.shape
    assert np.max(_angle_gap(got, _bisection_tangent_theta(plane, chi))) <= 1e-12

    # batch entries, in both blocks, equal their scalar calls bit for bit
    idx = np.concatenate([np.arange(special.size),
                          np.arange(special.size, chi.size, 97),
                          [TANGENT_BLOCK - 1, TANGENT_BLOCK, chi.size - 1]])
    scalar = np.array([plane.tangent_theta(chi[i])[0] for i in idx])
    assert np.array_equal(scalar, got[idx])

    one, _ = plane.tangent_theta(0.3)
    assert isinstance(one, np.ndarray) and one.shape == ()


@pytest.mark.parametrize("spec", [
    NormSpec("lp", p=3.0),
    NormSpec("lp", p=1.5),
    NormSpec("lp", p=6.0),
    NormSpec("fourier_radial", coefficients=(1.0, 0.08)),
], ids=["lp3", "lp1.5", "lp6", "fourier"])
def test_bisect_cell_is_the_one_halving_loop_with_seven_circle_evaluations(spec, monkeypatch):
    plane = build_plane(spec)
    axes = np.arange(4) * (np.pi / 2.0)
    chi = np.concatenate([axes + d for d in (0.0, 1e-12, -1e-12, 1e-7, -1e-7)]
                         + [np.random.default_rng(5).uniform(-np.pi, np.pi, 200)])
    psi0 = plane._psi_nodes[0]
    lift = psi0 + np.mod(chi - psi0, TWO_PI)
    j = np.clip(np.searchsorted(plane._psi_nodes, lift) - 1, 0, plane._n - 1)
    lo, hi = plane._theta_nodes[j], plane._theta_nodes[j + 1]
    assert np.array_equal(plane._d1_nodes[j], plane.circle_d1(lo))
    calls = []
    d1 = plane.circle_d1
    monkeypatch.setattr(plane, "circle_d1", lambda theta: calls.append(1) or d1(theta))
    w_lo, target = plane._d1_nodes[j], lift - plane._psi_nodes[j]
    got = plane._bisect_cell(lo, hi, w_lo, target)
    assert len(calls) == 7
    monkeypatch.undo()
    assert np.array_equal(np.mod(got, TWO_PI), _bisection_tangent_theta(plane, chi))
    # one direction alone has the bits it has in the batch
    assert np.array_equal(plane._bisect_cell(lo[:1], hi[:1], w_lo[:1], target[:1]), got[:1])


@pytest.mark.parametrize("p", [1.5, 3.0, 6.0])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_lp_radial_jet_keeps_the_bits_of_its_formula(p, order):
    profile = build_plane(NormSpec("lp", p=p))._profile
    axes = np.arange(-4, 5) * (np.pi / 2.0)
    theta = np.concatenate([axes + d for d in (0.0, 1e-12, -1e-12, 1e-7, -1e-7, 1e-3, -1e-3)]
                           + [np.linspace(-np.pi, np.pi, 1001)])
    got = profile.jet(theta, order)
    want = lp_radial_jet(p, theta, order, profile.GUARD)
    assert len(got) == order + 1
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("spec", [
    NormSpec("euclidean"),
    NormSpec("lp", p=3.0),
    NormSpec("lp", p=1.5),
    NormSpec("fourier_radial", coefficients=(1.0, 0.08)),
], ids=["euclidean", "lp3", "lp1.5", "fourier"])
def test_circle_jet_matches_centred_differences(spec):
    plane = build_plane(spec)
    # off-axis angles in every quadrant: lp1.5 clamps r'' next to the axes
    th = np.concatenate([np.linspace(0.15, 1.42, 9) + k * np.pi / 2.0 for k in range(4)])
    c, d1, d2 = plane.circle_jet(th, (0, 1, 2))
    h = 1e-4
    ahead, behind = plane.circle_point(th + h), plane.circle_point(th - h)
    assert np.max(np.abs((ahead - behind) / (2.0 * h) - d1)) < 1e-6
    assert np.max(np.abs((ahead - 2.0 * c + behind) / (h * h) - d2)) < 1e-6
    # any choice of rows, in any order, and the single-row views are the same numbers
    for orders in ((0,), (1,), (2,), (0, 1), (1, 2), (2, 0)):
        rows = plane.circle_jet(th, orders)
        assert rows.shape == (len(orders),) + th.shape + (2,)
        for got, k in zip(rows, orders):
            assert np.array_equal(got, (c, d1, d2)[k])
    assert np.array_equal(plane.circle_point(th), c)
    assert np.array_equal(plane.circle_d1(th), d1)
    assert np.array_equal(plane.circle_d2(th), d2)


def test_unit_tangent_with_derivative_on_a_non_unit_field(euclidean, l3, fourier_oval):
    # v(t) = s(t) (cos phi(t), sin phi(t)) with s from 1 to 3: never unit
    def field(t):
        phi = t + 0.3 * np.sin(2.0 * t)
        u = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
        du = np.stack([-np.sin(phi), np.cos(phi)], axis=-1) * (1.0 + 0.6 * np.cos(2.0 * t))[:, None]
        s = 2.0 + np.sin(t)
        return s[:, None] * u, np.cos(t)[:, None] * u + s[:, None] * du

    t = np.linspace(0.0, TWO_PI, 41)[:-1] + 0.05
    h = 1e-5
    for plane in (euclidean, l3, fourier_oval):
        v, dv = field(t)
        xi, dxi = plane.unit_tangent_with_derivative(v, dv)
        assert np.array_equal(xi, plane.birkhoff(v))
        fd = (plane.birkhoff(field(t + h)[0]) - plane.birkhoff(field(t - h)[0])) / (2.0 * h)
        assert np.max(np.abs(fd - dxi)) < 1e-6
        with pytest.raises(ZeroVector):
            plane.unit_tangent_with_derivative(np.zeros(2), np.ones(2))


@pytest.mark.parametrize("spec, root_at_two_pi", [
    (NormSpec("euclidean"), False),
    (NormSpec("lp", p=3.0), True),
    (NormSpec("lp", p=1.5), True),
    (NormSpec("fourier_radial", coefficients=(1.0, 0.08)), True),
], ids=["euclidean", "lp3", "lp1.5", "fourier"])
def test_tangent_theta_returns_the_circle_jet_at_its_angles(spec, root_at_two_pi):
    plane = build_plane(spec)
    psi0 = plane._psi_nodes[0]
    # the direction just below psi0 lifts into the last psi cell, whose root
    # is theta = 2 pi for these norms; it is returned as 0
    below = np.nextafter(psi0, -np.inf)
    assert (plane._tangent_theta_block(np.array([below]))[0] == TWO_PI) == root_at_two_pi
    rng = np.random.default_rng(11)
    chi = np.concatenate([[below, psi0], np.arange(8) * (np.pi / 4.0),
                          rng.uniform(-np.pi, np.pi, 500)])
    theta, theta_jet = plane.tangent_theta(chi)
    assert np.all((theta >= 0.0) & (theta < TWO_PI))
    for got, jet in ((theta, theta_jet), plane.tangent_theta(below),
                     plane.tangent_theta(chi.reshape(2, -1))):
        want = plane.circle_jet(got, (0, 1, 2))
        assert jet.shape == want.shape and np.array_equal(jet, want)
    # both normal builders return the circle at the angles tangent_theta returns
    w = rng.normal(size=(50, 2))
    at, _ = plane.tangent_theta(np.arctan2(w[:, 1], w[:, 0]))
    assert np.array_equal(plane.normal_from_tangent(w), plane.circle_point(at))
    z = plane.normal_from_tangent_with_derivative(w, rng.normal(size=(50, 2)))[0]
    assert np.array_equal(z, plane.circle_point(at))


@pytest.mark.parametrize("spec", [
    NormSpec("lp", p=3.0),
    NormSpec("lp", p=1.5),
    NormSpec("fourier_radial", coefficients=(1.0, 0.08)),
], ids=["lp3", "lp1.5", "fourier"])
def test_tangent_theta_of_a_batch_is_its_directions_one_by_one(spec, monkeypatch):
    # Newton steps only the directions still live, so a batch must give each
    # direction the bits of its own call: random directions, and the axis
    # directions and their neighbours, where lp3's turning rate vanishes and
    # the bisection takes over
    plane = build_plane(spec)
    axes = np.arange(4) * (np.pi / 2.0)
    near = np.concatenate([axes + d for d in (0.0, 1e-12, -1e-12, 1e-7, -1e-7)])
    rng = np.random.default_rng(5)
    chi = np.concatenate([near, rng.uniform(-np.pi, np.pi, 300)])
    bisected = []
    bisect = plane._bisect_cell
    monkeypatch.setattr(plane, "_bisect_cell",
                        lambda lo, *rest: bisected.append(lo.size) or bisect(lo, *rest))
    theta, jet = plane.tangent_theta(chi)
    if spec.p == 3.0:
        assert sum(bisected) >= 4
    for i, c in enumerate(chi):
        one, one_jet = plane.tangent_theta(c)
        assert one == theta[i] and np.array_equal(one_jet, jet[:, i])
    # the order-1 jet is the order-2 jet without c''
    theta1, jet1 = plane.tangent_theta(chi, 1)
    assert np.array_equal(theta1, theta) and np.array_equal(jet1, jet[:2])


@pytest.mark.parametrize("spec", [
    NormSpec("euclidean"),
    NormSpec("lp", p=3.0),
    NormSpec("lp", p=1.5),
    NormSpec("fourier_radial", coefficients=(1.0, 0.08)),
], ids=["euclidean", "lp3", "lp1.5", "fourier"])
def test_normal_from_tangent_is_the_first_part_of_its_jet(spec):
    # normal_from_tangent asks for the circle to order 1 only: the same bits
    plane = build_plane(spec)
    rng = np.random.default_rng(23)
    w = np.concatenate([[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
                        rng.normal(size=(400, 2))])
    dw = rng.normal(size=w.shape)
    assert np.array_equal(plane.normal_from_tangent(w),
                          plane.normal_from_tangent_with_derivative(w, dw)[0])
    assert np.array_equal(plane.normal_from_tangent(w[7]),
                          plane.normal_from_tangent_with_derivative(w[7], dw[7])[0])


THREE_NORMS = [NormSpec("euclidean"), NormSpec("lp", p=3.0),
               NormSpec("fourier_radial", coefficients=(1.0, 0.08))]


@pytest.mark.parametrize("spec", THREE_NORMS, ids=["euclidean", "lp3", "fourier"])
def test_an_empty_batch_gives_empty_arrays(spec):
    plane = build_plane(spec)
    vectors, params = np.zeros((0, 2)), np.zeros(0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for got, shape in ((plane.rho(vectors), (0,)),
                           (plane.birkhoff_inverse(vectors), (0, 2)),
                           (plane.theta_of_arclength(params), (0,)),
                           (plane.unit_circle_point(params), (0, 2)),
                           (plane.arclength_of_theta(params), (0,)),
                           (plane.tangent_theta(params)[1], (3, 0, 2)),
                           (plane.normal_from_tangent(vectors), (0, 2)),
                           (plane.antinorm(vectors), (0,))):
            assert got.shape == shape


@pytest.mark.parametrize("spec", THREE_NORMS, ids=["euclidean", "lp3", "fourier"])
def test_a_non_finite_input_gives_nan_without_a_warning(spec):
    plane = build_plane(spec)
    finite = np.array([0.3, -2.0, 4.0])
    bad = np.array([np.inf, -np.inf, np.nan])
    mixed = np.array([0.3, np.inf, -2.0, np.nan, -np.inf, 4.0])
    at_finite = np.array([0, 2, 5])
    at_bad = np.array([1, 4, 3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kernel in (lambda x: plane.tangent_theta(x)[0], plane.arclength_of_theta,
                       plane.theta_of_arclength):
            for x in bad:
                assert np.isnan(kernel(x))
            got = kernel(mixed)
            assert np.all(np.isnan(got[at_bad]))
            # a non-finite input moves no other element's bits
            assert np.array_equal(got[at_finite], kernel(finite))
        jet = plane.tangent_theta(mixed)[1]
        assert np.all(np.isnan(jet[:, at_bad])) and np.all(np.isfinite(jet[:, at_finite]))


def test_the_lp_builds_of_the_readme_table():
    # measured in README: p = 1.3 fails at every table size, p = 7 builds only
    # on a table of at most 1024 nodes, and no table has fewer than 64
    with pytest.raises(NoConvergence,
                       match="^distortion table is not centrally symmetric$") as err:
        build_plane(NormSpec("lp", 1.3))
    assert err.value.exit_code == 4
    with pytest.raises(ConvexityViolation,
                       match="^tangent angle is not strictly increasing$") as err:
        build_plane(NormSpec("lp", 7.0))
    assert err.value.exit_code == 3
    assert build_plane(NormSpec("lp", 7.0, table_size=1024)).norm([1.0, 0.0]) == 1.0
    with pytest.raises(BadParameter, match="^table_size must be at least 64$") as err:
        build_plane(NormSpec("lp", 3.0, table_size=63))
    assert err.value.exit_code == 3
