"""A pair answers a parameter whose bits are those of one of its grid nodes
from the samples its validation took there, and evaluates every other one.
The read is exact only because every evaluator gives a node the bits it has
in the validating batch (see test_pointwise.py), so the checks are bit for
bit."""

import warnings

import numpy as np
import pytest

from normplane import catalog
from normplane.analysis import curvature_pair, legendre_from_curve
from normplane.derived import evolute, involute
from normplane.numerics import gauss5_segments


def _pair(fourier_oval, samples=256):
    return curvature_pair(legendre_from_curve(
        fourier_oval, catalog.ellipse(2.0, 1.0, samples=samples)))


def _count_inversions(monkeypatch, plane):
    points = []
    invert = plane.tangent_theta
    monkeypatch.setattr(plane, "tangent_theta",
                        lambda chi, *order: points.append(np.size(chi)) or invert(chi, *order))
    return points


def test_a_vertex_scan_on_the_grid_inverts_six_directions_per_node(fourier_oval, monkeypatch):
    # the centre of each 7-point stencil of (alpha/kappa)' is the node itself
    cp = _pair(fourier_oval)
    points = _count_inversions(monkeypatch, fourier_oval)
    cp.ratio_rate_at(cp.ts)
    assert sum(points) == 6 * len(cp.ts)


def test_a_derived_pair_reads_its_base_at_the_shared_nodes(fourier_oval, monkeypatch):
    # the evolute's grid is its base's: its position reads alpha/kappa there
    cp = _pair(fourier_oval)
    ev = evolute(cp)
    points = _count_inversions(monkeypatch, fourier_oval)
    ratio = cp.ratio_at(ev.ts)
    assert points == []
    assert np.array_equal(ratio, cp.alpha / cp.kappa)


@pytest.mark.parametrize("norm", ["euclidean", "l3"])
def test_an_involute_reads_its_integral_of_alpha_at_the_base_nodes(request, monkeypatch, norm):
    # integral of alpha to a node is its cumulative sum of segment integrals,
    # bit for bit; only the last node integrates a segment again, at 5 Gauss
    # nodes off the grid. The base normal is inverted once per node
    plane = request.getfixturevalue(norm)
    base = legendre_from_curve(plane, catalog.cusp_t2t3(samples=512))
    ts, d = base.ts, 0.5
    inv = involute(base, d)
    A = np.concatenate([[0.0], np.cumsum(gauss5_segments(base.alpha_at, ts[:-1], ts[1:]))])
    want = base.gamma.point(ts) - (A - d)[:, None] * plane.birkhoff(base.eta(ts))
    points = _count_inversions(monkeypatch, plane)
    assert np.array_equal(inv.gamma.point(ts), want)
    assert sum(points) <= len(ts) + 5


def test_nodes_read_their_samples_inside_any_batch(fourier_oval, monkeypatch):
    cp = _pair(fourier_oval)
    ts = cp.ts
    off = [0.5 * (ts[3] + ts[4]), 1.0]
    batch = np.array([ts[7], off[0], ts[2], off[1], ts[7]])
    points = _count_inversions(monkeypatch, fourier_oval)
    a, k = cp.values_at(batch)
    assert sum(points) == 2
    alone = [cp.values_at(t) for t in off]
    assert np.array_equal(a, [cp.alpha[7], alone[0][0], cp.alpha[2], alone[1][0], cp.alpha[7]])
    assert np.array_equal(k, [cp.kappa[7], alone[0][1], cp.kappa[2], alone[1][1], cp.kappa[7]])
    # a scalar node reads a scalar
    a, k = cp.values_at(float(ts[5]))
    assert np.ndim(a) == np.ndim(k) == 0 and a == cp.alpha[5] and k == cp.kappa[5]
    assert float(cp.alpha_at(ts[5])) == cp.alpha[5]
    assert sum(points) == 4


def test_parameters_that_are_not_nodes_bit_for_bit_are_evaluated(fourier_oval, monkeypatch):
    cp = _pair(fourier_oval)
    ts, (t0, t1) = cp.ts, cp.domain
    assert t0 == 0.0 and cp.closed
    misses = [-0.0, np.nextafter(ts[9], np.inf), np.nextafter(ts[9], -np.inf), t1,
              ts[9] + cp.period]
    points = _count_inversions(monkeypatch, fourier_oval)
    for t in misses:
        cp.values_at(t)
    assert sum(points) == len(misses)
    # the wrapped twin of a node, t1 for t0 included, is evaluated and so
    # agrees with the sample only to rounding
    for t, i in ((-0.0, 0), (t1, 0), (ts[9] + cp.period, 9)):
        a, k = cp.values_at(t)
        assert abs(a - cp.alpha[i]) <= 1e-12 and abs(k - cp.kappa[i]) <= 1e-12


def test_a_non_finite_parameter_is_evaluated_to_nan(euclidean):
    # once wrap mapped nan and inf to t0, so a closed pair gave its values there
    L = legendre_from_curve(euclidean, catalog.ellipse(2.0, 1.0, samples=256))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (np.nan, np.inf, -np.inf):
            assert np.all(np.isnan(L.values_at(t)))
            assert np.all(np.isnan(L.gamma.point(t)))
            assert np.isnan(L.alpha_at(t))
        a, k = L.values_at(np.array([L.ts[4], np.nan]))
    assert a[0] == L.alpha[4] and k[0] == L.kappa[4]
    assert np.isnan(a[1]) and np.isnan(k[1])

