"""The plane kernels build only the rows of the circle jet that a caller reads,
and give every quantity the bits it had when each evaluation built all of
them: `tests/oracles.FrozenKernels` keeps that code. Checked byte for byte
(the sign of a zero counts) under five norms, on 0-d, one-element, odd,
TANGENT_BLOCK and TANGENT_BLOCK + 1 batches and on strided views (numpy's
SIMD loops may round a strided input differently), at signed zeros, +/-pi,
2 pi and the axes +/- 1e-12 and +/- 1e-7, where odd-p lp circles take the
bisection."""

import numpy as np
import pytest

from normplane.plane import TANGENT_BLOCK, NormSpec, build_plane
from oracles import FrozenArclength, FrozenKernels

TWO_PI = 2.0 * np.pi

SPECS = {
    "euclidean": NormSpec("euclidean"),
    "lp3": NormSpec("lp", p=3.0),
    "lp1.5": NormSpec("lp", p=1.5),
    "lp6": NormSpec("lp", p=6.0),
    "fourier": NormSpec("fourier_radial", coefficients=(1.0, 0.08)),
}

AXES = np.arange(-2, 5) * (np.pi / 2.0)
SPECIAL = np.concatenate([[0.0, -0.0, np.pi, -np.pi, TWO_PI]]
                         + [AXES + d for d in (1e-12, -1e-12, 1e-7, -1e-7)])
SIZES = (1, 7, 257, TANGENT_BLOCK, TANGENT_BLOCK + 1)


@pytest.fixture(scope="module", params=list(SPECS))
def kernels(request):
    plane = build_plane(SPECS[request.param])
    return plane, FrozenKernels(plane.spec, plane._profile.GUARD)


def _angle_batches():
    """Batches of angles: the special angles alone (0-d), then arrays of
    each size led by them, then a strided view."""
    rng = np.random.default_rng(24)
    for x in SPECIAL:
        yield np.float64(x)
    for n in SIZES:
        fill = rng.uniform(-np.pi, 3.0 * np.pi, n)
        k = min(n, SPECIAL.size)
        fill[:k] = SPECIAL[:k]
        yield fill
    big = rng.uniform(-np.pi, np.pi, 3 * 601)
    big[:3 * SPECIAL.size:3] = SPECIAL
    yield big[::3]


def _vector_batches():
    """Vectors of varied lengths in the directions of `_angle_batches`,
    strided where the angles are, with the axis vectors (+/-1, +/-0)."""
    for a in _angle_batches():
        scale = 0.5 + np.abs(np.sin(3.0 * a))
        v = np.stack([scale * np.cos(a), scale * np.sin(a)], axis=-1)
        yield v
    rows = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0],
                     [1.0, -0.0], [-1.0, -0.0], [0.3, 2.0]])
    yield rows
    yield np.repeat(rows, 3, axis=0)[::3]
    wide = np.zeros((rows.shape[0], 4))
    wide[:, ::2] = rows
    yield wide[:, ::2]


def _equal(got, want):
    """Same shape and the same bits: -0.0 is not 0.0."""
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def test_tables_keep_their_bits(kernels):
    plane, frozen = kernels
    for got, want in ((plane._theta_nodes, frozen.theta_nodes),
                      (plane._d1_nodes, frozen.d1_nodes),
                      (plane._psi_nodes, frozen.psi_nodes)):
        assert _equal(got, want)


def test_circle_rows_keep_their_bits(kernels):
    plane, frozen = kernels
    for theta in _angle_batches():
        full = frozen.circle_jet(theta, 2)
        for orders in ((0,), (1,), (2,), (0, 1), (1, 2), (0, 2), (0, 1, 2), (2, 0)):
            rows = plane.circle_jet(theta, orders)
            assert len(rows) == len(orders)
            for k, row in zip(orders, rows):
                assert _equal(row, full[k]), (orders, k, np.shape(theta))
        assert _equal(plane.circle_point(theta), full[0])
        assert _equal(plane.circle_d1(theta), frozen.circle_d1(theta))
        assert _equal(plane.circle_d2(theta), full[2])


def test_norm_and_birkhoff_keep_their_bits(kernels):
    plane, frozen = kernels
    for v in _vector_batches():
        assert _equal(plane.norm(v), frozen.norm(v)), v.shape
        assert _equal(plane.birkhoff(v), frozen.birkhoff(v)), v.shape


@pytest.mark.parametrize("order", [1, 2])
def test_supporting_map_inverse_keeps_its_bits(kernels, order):
    plane, frozen = kernels
    # directions whose lift is a psi node, which ends one table cell and
    # starts the next, and their neighbours
    psi = frozen.psi_nodes
    on_nodes = np.concatenate([psi, np.nextafter(psi, -np.inf), np.nextafter(psi, np.inf)])
    for chi in [*_angle_batches(), on_nodes]:
        theta, jet = plane.tangent_theta(chi, order)
        want_theta, want_jet = frozen.tangent_theta(chi, order)
        assert _equal(theta, want_theta), np.shape(chi)
        assert len(jet) == order + 1
        for row, want in zip(jet, want_jet):
            assert _equal(row, want), np.shape(chi)


def test_arc_length_keeps_its_bits(kernels):
    plane, frozen = kernels
    eager = FrozenArclength(plane, plane._profile.GUARD)
    assert plane.length == eager.length
    for theta in _angle_batches():
        assert _equal(plane.arclength_of_theta(theta), eager.arclength_of_theta(theta))
    length = eager.length
    special_u = np.array([0.0, -0.0, 0.5 * length, length, -length, 2.0 * length,
                          np.nextafter(length, 0.0), 1e-12, -1e-12])
    rng = np.random.default_rng(7)
    for u in ([np.float64(x) for x in special_u]
              + [np.concatenate([special_u, rng.uniform(-length, 2.0 * length, n)])
                 for n in (0, 8, TANGENT_BLOCK)]
              + [rng.uniform(0.0, length, 3 * 101)[::3]]):
        assert _equal(plane.theta_of_arclength(u), eager.theta_of_arclength(u))
