import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline, PchipInterpolator
from scipy.optimize import brentq

from normplane import catalog, numerics
from normplane.analysis import curvature_pair, legendre_from_curve
from normplane.curves import ParamCurve
from normplane.derived import evolute, involute
from normplane.errors import NoConvergence
from normplane.numerics import (DIFF_BLOCK, GOLDEN_ITERS, Hermite, brent_root, differentiate,
                                fd_weights, gauss5_segments, golden_minimize, index_runs,
                                merge_events, pchip, polish_dips, wrap)
from normplane.plane import NormSpec, build_plane
from normplane.synthesis import SynthesisSpec, synthesize
from oracles import differentiate_every_point, scalar_golden_minimize

# polynomials evaluate to the same bits in batch and one point at a time


def _cubic(x):
    return (x + 1.2) * (x - 0.3) * (x - 2.5)


def _quintic(x):
    return (x + 2.0) * (x + 0.7) * (x - 0.1) * (x - 1.3) * (x - 2.2) - 0.01


class _Counted:
    """Array-only callable that records the size and a copy of the
    parameters of every call."""

    def __init__(self, f):
        self.f = f
        self.sizes = []
        self.calls = []

    def __call__(self, x):
        assert isinstance(x, np.ndarray) and x.ndim == 1
        self.sizes.append(x.size)
        self.calls.append(np.array(x))
        return self.f(x)

    def bits(self):
        return [x.view(np.int64) for x in self.calls]


@pytest.mark.parametrize("f, brackets", [
    (_cubic, [(-2.0, 3.0), (-3.0, 2.9), (-1.5, 0.0), (0.0, 1.0), (2.0, 3.0),
              (-1.2, 0.0), (0.0, 0.3), (0.3, 2.5), (-2.0, 1e-3)]),
    (_quintic, [(-3.0, 3.0), (-1.0, 2.0), (-1.0, 0.0), (0.0, 0.5), (0.5, 2.0),
                (2.0, 2.6), (-2.5, -1.0)]),
], ids=["cubic", "quintic"])
@pytest.mark.parametrize("xtol", [1e-10, 1e-12])
def test_brent_root_matches_scipy_brentq(f, brackets, xtol):
    a = np.array([lo for lo, _ in brackets])
    b = np.array([hi for _, hi in brackets])
    assert all(brentq(f, lo, hi, xtol=xtol, full_output=True)[1].converged
               for lo, hi in brackets)
    counted = _Counted(f)
    got = brent_root(counted, a, b, f(a), f(b), xtol=xtol)

    want, calls = [], []
    for lo, hi in brackets:
        root, info = brentq(f, lo, hi, xtol=xtol, maxiter=120, full_output=True)
        want.append(root)
        calls.append(info.function_calls - 2)      # brentq evaluates both ends
    # bit-identical, whichever of several roots in a bracket brentq picks
    assert got.tolist() == want
    # one call per iteration, each on the brackets still open
    assert len(counted.sizes) == max(calls)
    assert counted.sizes == sorted(counted.sizes, reverse=True)
    assert counted.sizes[0] <= len(brackets)


def test_brent_root_matches_scipy_brentq_on_random_brackets():
    rng = np.random.default_rng(5)
    a = rng.uniform(-3.0, 0.05, 400)
    b = rng.uniform(0.15, 3.0, 400)
    keep = np.signbit(_quintic(a)) != np.signbit(_quintic(b))
    a, b = a[keep], b[keep]
    got = brent_root(_quintic, a, b, _quintic(a), _quintic(b), xtol=1e-10)
    assert got.tolist() == [brentq(_quintic, lo, hi, xtol=1e-10, maxiter=120)
                            for lo, hi in zip(a, b)]


def test_brent_root_zero_end_is_its_own_root():
    calls = []

    def f(x):
        calls.append(x)
        return _cubic(x)

    got = brent_root(f, [-1.2, 0.0], [0.0, 0.3], [0.0, _cubic(0.0)], [_cubic(0.0), 0.0])
    assert got.tolist() == [-1.2, 0.3]
    assert calls == []


def test_brent_root_raises_when_a_bracket_does_not_converge(monkeypatch):
    with pytest.raises(RuntimeError):
        brentq(_cubic, -2.0, 3.0, xtol=1e-12, maxiter=3)
    monkeypatch.setattr(numerics, "BRENT_ITERS", 3)
    with pytest.raises(NoConvergence):
        brent_root(_cubic, [0.0, -2.0], [1.0, 3.0], _cubic(np.array([0.0, -2.0])),
                   _cubic(np.array([1.0, 3.0])), xtol=1e-12)


def test_brent_root_rejects_a_bracket_without_sign_change():
    with pytest.raises(ValueError):
        brent_root(_cubic, [0.5], [2.0], [_cubic(0.5)], [_cubic(2.0)])


def test_wrap_reduces_into_the_period():
    two_pi = 2.0 * np.pi
    assert np.array_equal(wrap(np.array([two_pi, 1.0 + two_pi, -1.0, 2.0]), 0.0, two_pi),
                          np.array([0.0, 1.0, two_pi - 1.0, 2.0]))
    inside = np.array([0.0, 3.0, two_pi - 1e-12])
    assert wrap(inside, 0.0, two_pi) is inside
    t = np.array([-3.0, 7.0])
    assert wrap(t, 0.0, None) is t
    # np.mod rounds a tiny negative offset up to the period
    w = wrap(-1e-17, 0.0, two_pi)
    assert w == 0.0 and isinstance(w, float)


def test_merge_events_counts_one_event_across_the_seam():
    two_pi = 2.0 * np.pi
    assert merge_events([0.1, two_pi - 1e-10, 1e-11, 0.1 + 1e-10], 1e-9, 0.0, two_pi) \
        == [1e-11, 0.1]
    # wrapped into the domain first: -1e-10 and 2 pi + 3 are 2 pi - 1e-10 and 3
    assert merge_events([two_pi + 3.0, -1e-10], 1e-9, 0.0, two_pi) \
        == [3.0, two_pi - 1e-10]
    assert merge_events([1.0, 0.0, 5.0 + 1e-10], 1e-9, 0.0, None) == [0.0, 1.0, 5.0 + 1e-10]
    assert merge_events([-1e-17, 3.0], 1e-9, 0.0, two_pi) == [0.0, 3.0]


def test_index_runs_joins_the_run_through_the_seam():
    idx = np.array([0, 1, 5, 6, 8, 9])
    assert [r.tolist() for r in index_runs(idx, 10, closed=True)] == [[-2, -1, 0, 1], [5, 6]]
    assert [r.tolist() for r in index_runs(idx, 10, closed=False)] == [[0, 1], [5, 6], [8, 9]]
    assert index_runs(np.array([], dtype=int), 10, closed=True) == []


def test_polish_dips_stays_inside_an_open_domain():
    ts = np.linspace(0.0, 1.0, 5)
    t_open, f_open = polish_dips(lambda t: t, ts, [0, 4], 0.25, (0.0, 1.0), closed=False)
    assert np.all((t_open >= 0.0) & (t_open <= 1.0))
    assert abs(t_open[0]) < 1e-9 and np.array_equal(f_open, t_open)
    t_closed, _ = polish_dips(lambda t: t, ts, [0], 0.25, (0.0, 1.0), closed=True)
    assert abs(t_closed[0] + 0.25) < 1e-9


def _parabola(t):
    return (t - 1.1) * (t - 1.1)


def test_golden_minimize_is_the_scalar_search_on_every_bracket_in_lock_step():
    # the brackets stop at different steps: a zero-width and a reversed one
    # at once, one within three steps of GOLDEN_TOL, random ones of widths
    # 1e-11 to 10, and the widest only at the GOLDEN_ITERS cap, which
    # therefore bounds the calls of f
    rng = np.random.default_rng(7)
    starts = rng.uniform(-3.0, 2.0, 64)
    a = np.concatenate([[0.9, 0.5, -1.0, 1.0, 2.0, 3.0, 0.0, 7.0], starts])
    b = np.concatenate([[1.2, 1.5, 2.0, 1.0 + 1e-11, 2.0, 2.0, 1e100, 7.5],
                        starts + 10.0 ** rng.uniform(-11.0, 1.0, 64)])
    counted = _Counted(_parabola)
    t_min, f_min = golden_minimize(counted, a, b)
    points = []
    want = np.array([scalar_golden_minimize(lambda t: points.append(t) or _parabola(t), lo, hi)
                     for lo, hi in zip(a.tolist(), b.tolist())])
    assert np.array_equal(np.stack([t_min, f_min], -1).view(np.int64), want.view(np.int64))
    # and f saw the points the scalar searches evaluate, each as often
    assert np.array_equal(np.sort(np.concatenate(counted.calls)), np.sort(points))
    # both inner points of every bracket, one call per step on the brackets
    # still open, then every midpoint
    assert len(counted.sizes) == GOLDEN_ITERS + 3
    steps = counted.sizes[2:-1]
    assert counted.sizes[:2] == [a.size, a.size] and counted.sizes[-1] == a.size
    assert steps == sorted(steps, reverse=True) and steps[0] == a.size - 2 and steps[-1] == 1
    # a batch of any shape returns its shape
    t2, f2 = golden_minimize(_parabola, a.reshape(8, 9), b.reshape(8, 9))
    assert np.array_equal(t2.ravel().view(np.int64), t_min.view(np.int64))
    assert np.array_equal(f2.ravel().view(np.int64), f_min.view(np.int64))


def test_golden_minimize_of_a_0d_bracket_is_the_scalar_search_on_0d_parameters():
    shapes = []
    got = golden_minimize(lambda t: shapes.append(np.shape(t)) or _parabola(t), 0.5, 1.5)
    assert set(shapes) == {()} and all(np.ndim(v) == 0 for v in got)
    want = scalar_golden_minimize(_parabola, 0.5, 1.5)
    assert np.array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64))
    # the scalar callers' float(...) functions take 0-d parameters
    assert golden_minimize(lambda t: float(_parabola(t)), 0.5, 1.5)[1] == want[1]


def test_golden_minimize_of_no_bracket_finds_nothing():
    t_min, f_min = golden_minimize(_parabola, np.empty(0), np.empty(0))
    assert t_min.shape == f_min.shape == (0,)


def _assert_pchip_is_scipys(x, y, queries):
    ours, theirs = pchip(x, y), PchipInterpolator(x, y)
    assert np.array_equal(ours(queries), theirs(queries))
    for q in queries[::97].tolist() + [x[0], x[-1]]:
        assert ours(q) == theirs(q)
        zero_d = ours(np.array(q))
        assert np.shape(zero_d) == () and zero_d == theirs(np.array(q))


@pytest.mark.parametrize("spec", [
    NormSpec("euclidean"), NormSpec("lp", p=1.5), NormSpec("lp", p=3.0),
    NormSpec("lp", p=6.0), NormSpec("fourier_radial", coefficients=(1.0, 0.08)),
    NormSpec("lp", p=3.0, table_size=512)], ids=lambda s: f"{s.kind}-{s.p}-{s.table_size}")
def test_pchip_matches_scipy_bit_for_bit(spec):
    plane = build_plane(spec)
    rng = np.random.default_rng(0)
    for nodes in (plane._u_nodes, plane._psi_nodes):
        queries = np.concatenate([
            rng.uniform(nodes[0], nodes[-1], 100_000), nodes,
            np.nextafter(nodes, -np.inf), np.nextafter(nodes, np.inf),
            [nodes[0], nodes[-1]]])
        _assert_pchip_is_scipys(nodes, plane._theta_nodes, queries)


def test_pchip_matches_scipy_where_the_data_turn():
    # zero and sign-changing secant slopes and both end-slope corrections,
    # which the monotone plane tables never reach
    rng = np.random.default_rng(1)
    x = np.cumsum(rng.uniform(0.1, 1.0, 200))
    y = rng.normal(size=200)
    y[50:53] = 0.25
    queries = np.concatenate([rng.uniform(x[0] - 1.0, x[-1] + 1.0, 10_000), x])
    _assert_pchip_is_scipys(x, y, queries)
    for ends in ([0.0, 1.0, 3.0, 2.9], [0.0, 1.0, -1.0, 0.0], [1.0, 1.0, 2.0, 3.0]):
        _assert_pchip_is_scipys(np.array([0.0, 1.0, 1.5, 3.0]), np.array(ends),
                                np.linspace(-0.5, 3.5, 41))


def test_hermite_reproduces_a_cubic():
    cubic = lambda t: np.stack([2.0 - t + 0.5 * t ** 2 - 0.25 * t ** 3, 1.0 + 3.0 * t ** 3], -1)
    slope = lambda t: np.stack([-1.0 + t - 0.75 * t ** 2, 9.0 * t ** 2], -1)
    x = np.cumsum(np.random.default_rng(2).uniform(0.1, 0.5, 30)) - 3.0
    q = np.linspace(x[0] - 0.5, x[-1] + 0.5, 1001)
    vector = Hermite(x, cubic(x), slope(x))
    assert vector(q).shape == (1001, 2) and vector(0.3).shape == (2,)
    assert np.allclose(vector(q), cubic(q), rtol=1e-13, atol=1e-13)
    scalar = Hermite(x, cubic(x)[:, 0], slope(x)[:, 0])
    assert scalar(q).shape == (1001,) and np.shape(scalar(0.3)) == ()
    assert np.allclose(scalar(q), cubic(q)[:, 0], rtol=1e-13, atol=1e-13)
    assert np.array_equal(scalar(q), vector(q)[:, 0])
    assert np.array_equal(vector(q), CubicHermiteSpline(x, cubic(x), slope(x))(q))


def test_wrap_keeps_the_bits_of_in_range_parameters_of_any_batch():
    # t0 + mod(t - t0) moves an in-range t by an ulp when t0 != 0; a batch
    # must wrap as its elements would one by one
    t0, period = -1.0, 2.0 * np.pi
    inside = np.round(np.random.default_rng(2).uniform(t0, t0 + period, 1000), 3)
    batch = np.concatenate([inside, [t0 - 0.25, t0 + period + 0.5]])
    got = wrap(batch, t0, period)
    assert np.array_equal(got[:-2], inside)
    assert np.array_equal(got, [wrap(t, t0, period) for t in batch.tolist()])
    assert np.all((got >= t0) & (got < t0 + period))


def test_wrap_maps_a_non_finite_parameter_to_nan():
    # nan and +/-inf lie nowhere on a closed curve: NaN, not t0, and no
    # warning; every finite parameter keeps the bits it wraps to alone
    t0, period = -1.0, 2.0 * np.pi
    finite = np.array([t0, 0.3, -0.0, t0 + period, t0 - 0.25, 40.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (np.nan, np.inf, -np.inf):
            assert np.isnan(wrap(t, t0, period))
        got = wrap(np.concatenate([finite, [np.nan, np.inf, -np.inf]]), t0, period)
    assert np.all(np.isnan(got[-3:]))
    want = np.array([wrap(t, t0, period) for t in finite.tolist()])
    assert np.array_equal(got[:-3].view(np.int64), want.view(np.int64))


def test_fd_weights_are_computed_once_per_stencil_and_read_only():
    offsets = (np.arange(-3, 4) + 1) * 0.0123
    w = fd_weights(offsets, 2)
    assert fd_weights(list(offsets), 2) is w and not w.flags.writeable
    assert fd_weights(offsets, 1) is not w
    # a quadratic's second derivative is exact
    assert w @ (offsets ** 2) == pytest.approx(2.0, rel=1e-9)
    # the cache fills when a stencil is first used, not when the module loads
    code = "import normplane.cli, normplane.numerics as n; print(n._fornberg.cache_info().currsize)"
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "0"


def test_differentiate_calls_f_on_bounded_blocks():
    sizes = []

    def f(s):
        sizes.append(s.size)
        return np.sin(s)

    for n, largest in ((3 * DIFF_BLOCK + 5, DIFF_BLOCK), (2 * DIFF_BLOCK + 1, DIFF_BLOCK)):
        sizes.clear()
        t = np.linspace(0.0, 1.0, n)
        d = differentiate(f, t, 1, 1e-4)
        assert max(sizes) == 7 * largest and sum(sizes) == 7 * n
        assert np.max(np.abs(d - np.cos(t))) < 1e-9


@pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
@pytest.mark.parametrize("domain, closed, t", [
    (None, False, np.linspace(-1.0, 2.0, 200)),
    ((0.0, 1.0), False, np.linspace(0.0, 1.0, 200)),
    ((-1.0, 2.0 * np.pi - 1.0), True, np.linspace(-1.0, 2.0 * np.pi - 1.0, 200, endpoint=False)),
], ids=["free", "open-shifted", "closed"])
def test_a_parameters_difference_does_not_depend_on_its_batch(vector, domain, closed, t):
    # BLAS reduces a one-parameter block, and the last parameter of an odd
    # block of 2-vectors, by other kernels than an even block; every slice of
    # the batch must still give each parameter the bits the whole batch gives
    f = _periodic_pair if vector else _periodic
    h = 1e-3
    whole = differentiate(f, t, (1, 2), h, domain=domain, closed=closed)
    for n in range(1, 41):
        for i in (0, 1, 7, 100, t.size - n):
            part = differentiate(f, t[i:i + n], (1, 2), h, domain=domain, closed=closed)
            for a, b in zip(part, whole):
                assert np.array_equal(a, b[i:i + n]), (n, i)


def _open_curve_rate(fx, ts):
    # finite-difference derivatives only; stencils shift inside [0, 1] at both ends
    curve = ParamCurve(lambda t: np.stack([t ** 2 + 0.1 * t, np.sin(3.0 * t)], -1), (0.0, 1.0))
    return curve.derivative(ts, 2)


def _closed_curve_rate(fx, ts):
    # a closed domain that does not start at 0: stencils run through the seam
    t0 = -1.0
    curve = ParamCurve(lambda t: np.stack([2.0 * np.cos(t), np.sin(t)], -1),
                       (t0, t0 + 2.0 * np.pi), closed=True)
    return curve.derivative(t0 + (ts - ts[0]) * (2.0 * np.pi / (ts[-1] - ts[0])), 1)


def _pair_ratio_rate(fx, ts):
    # a scalar field through the lp3 supporting-map inversion
    cp = curvature_pair(legendre_from_curve(fx("l3"), catalog.ellipse(samples=256)))
    return cp.ratio_rate_at(ts * (2.0 * np.pi / ts[-1]))


def _evolute_second_rate(fx, ts):
    # a finite difference of the evolute's d1, itself a finite difference
    e = evolute(legendre_from_curve(fx("euclidean"), catalog.ellipse(samples=256))).gamma
    return e.derivative(ts * (2.0 * np.pi / ts[-1]), 2)


@pytest.mark.parametrize("n", [DIFF_BLOCK - 1, DIFF_BLOCK, DIFF_BLOCK + 1, 2 * DIFF_BLOCK + 1,
                               3 * DIFF_BLOCK + 5])
@pytest.mark.parametrize("rate", [_open_curve_rate, _closed_curve_rate, _pair_ratio_rate,
                                  _evolute_second_rate],
                         ids=["open-curve", "closed-seam", "pair-ratio", "evolute-fd-of-fd"])
def test_blocked_differentiate_equals_one_block(request, monkeypatch, rate, n):
    ts = np.linspace(0.0, 1.0, n)
    blocked = rate(request.getfixturevalue, ts)
    monkeypatch.setattr(numerics, "DIFF_BLOCK", 10 * n)
    assert np.array_equal(blocked, rate(request.getfixturevalue, ts))


@pytest.mark.parametrize("domain, closed, t", [
    (None, False, np.linspace(-1.0, 2.0, 2100)),
    ((0.0, 1.0), False, np.linspace(0.0, 1.0, 1500)),
    ((0.0, 2.0 * np.pi), True, np.linspace(0.0, 2.0 * np.pi, 777, endpoint=False)),
    ((0.0, 1.0), False, np.array([-1e-12, 0.0, 0.5, 1.0, 1.0 + 1e-12])),
    ((0.0, 1.0), False, 0.9999),
], ids=["free", "open-shifted", "closed", "just-outside-open", "scalar"])
def test_differentiate_reads_several_orders_from_one_stencil(domain, closed, t):
    def curve(s):
        return np.stack([np.sin(3.0 * s), _quintic(s)], -1)

    counted = _Counted(curve)
    h = 1e-4
    got = differentiate(counted, t, (0, 1, 2), h, domain=domain, closed=closed)
    outside = np.sum((np.asarray(t) < 0.0) | (np.asarray(t) > 1.0)) if domain == (0.0, 1.0) else 0
    assert sum(counted.sizes) == 7 * np.size(t) + outside
    # order 0 is f at t; the others are the single-order results, bit for bit
    assert np.array_equal(got[0], curve(np.asarray(t, dtype=float)))
    for k in (1, 2):
        want = differentiate(curve, t, k, h, domain=domain, closed=closed)
        assert got[k].shape == want.shape and np.array_equal(got[k], want)


def _nested(differ, f, h, domain, closed):
    """The rate of f, read along with f itself from one stencil: a function
    that takes a finite difference of its own."""
    return lambda s: differ(f, s, (0, 1), h, domain=domain, closed=closed)[1]


def test_nested_stencils_call_f_once_per_distinct_parameter():
    # on a grid of spacing 16h with h a power of two every sum (t + i h) + j h
    # is exact: the 49 points of a parameter's stencil of stencils are its 13
    # points t - 6h .. t + 6h, apart from its neighbours'
    h = 2.0 ** -8
    t = np.arange(-20, 21) * (16.0 * h)
    inner = _Counted(_quintic)
    outer = _Counted(_nested(differentiate, inner, h, None, False))
    got = differentiate(outer, t, 1, h)
    assert outer.sizes == [7 * t.size]
    assert inner.sizes == [13 * t.size]
    assert np.array_equal(np.sort(inner.calls[0]), np.sort(
        (t[:, None] + np.arange(-6, 7) * h).ravel()))
    assert np.array_equal(got, differentiate_every_point(
        _nested(differentiate_every_point, _quintic, h, None, False), t, (1,), h)[0])


def test_a_function_that_takes_differences_is_called_once_per_distinct_point():
    # on a grid of spacing h the outer stencils repeat too: 47 distinct of
    # 7 * 41 = 287 points. The function there takes a finite difference, whose
    # bits do not depend on its batch, so it is called on the 47 only, and the
    # pure function below it once per distinct point of their stencils
    h = 2.0 ** -8
    t = np.arange(-20, 21) * h
    inner = _Counted(_quintic)
    outer = _Counted(_nested(differentiate, inner, h, None, False))
    got = differentiate(outer, t, 1, h)
    assert outer.sizes == [47]
    assert np.array_equal(np.sort(outer.calls[0]), np.arange(-23, 24) * h)
    assert inner.sizes == [53]
    assert np.array_equal(np.sort(inner.calls[0]), np.arange(-26, 27) * h)
    assert np.array_equal(got, differentiate_every_point(
        _nested(differentiate_every_point, _quintic, h, None, False), t, (1,), h)[0])


def test_threads_taking_nested_differences_at_once_get_their_lone_bits():
    # a distinct evaluation keeps no state between calls: threads whose
    # functions take differences of their own, on grids whose stencils repeat
    # and on grids whose stencils do not, each get the bits of a lone run
    h = 2.0 ** -8
    jobs = [np.arange(-20, 21) * (h if k % 2 else 16.0 * h) + k * h for k in range(4)]

    def slow_quintic(s):
        time.sleep(1e-4)    # other threads run while an evaluation is open
        return _quintic(s)

    def rate(t):
        return differentiate(_nested(differentiate, slow_quintic, h, None, False), t, 1, h)

    wants = [rate(t) for t in jobs]
    failures = []

    def work(k):
        try:
            for _ in range(20):
                if not np.array_equal(rate(jobs[k]), wants[k]):
                    failures.append(k)
        except Exception as exc:
            failures.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(jobs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


def _periodic(s):
    return np.sin(3.0 * s) + 0.2 * np.cos(s)


def _periodic_pair(s):
    return np.stack([np.sin(3.0 * s), np.cos(s) - 0.1 * np.sin(2.0 * s)], -1)


@pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
@pytest.mark.parametrize("domain, closed, t, h", [
    (None, False, np.arange(-40, 41) * 2.0 ** -8, 2.0 ** -8),
    ((0.0, 1.0), False, np.linspace(0.0, 1.0, 257), 2.0 ** -8),
    ((0.0, 1.0), False, np.concatenate([np.arange(40) * 1e-4, 1.0 - np.arange(40) * 1e-4]), 1e-4),
    ((0.0, 1.0), False, np.linspace(0.0, 1.0, 97), 1e-3),
    ((-1.0, 2.0 * np.pi - 1.0), True, -1.0 + np.arange(300) * (2.0 * np.pi / 300), 1e-3),
    ((-1.0, 2.0 * np.pi - 1.0), True, 0.3 + np.arange(51) * 1e-3, 1e-3),
], ids=["free-exact", "open-shifted-exact", "open-shifted-rounded", "open-apart", "closed",
        "closed-rounded"])
def test_distinct_parameters_give_every_point_evaluation_bit_for_bit(vector, domain, closed, t,
                                                                     h):
    f = _periodic_pair if vector else _periodic
    inner = _Counted(f)
    got = differentiate(_nested(differentiate, inner, h, domain, closed), t, (0, 1, 2), h,
                        domain=domain, closed=closed)
    every = _Counted(f)
    want = differentiate_every_point(_nested(differentiate_every_point, every, h, domain, closed),
                                     t, (0, 1, 2), h, domain, closed)
    for a, b in zip(got, want):
        assert a.shape == b.shape and np.array_equal(a, b)
    # f sees no parameter twice in a call, and the calls together reach the
    # parameters that evaluating every point reaches, fewer times
    for bits in inner.bits():
        assert np.unique(bits).size == bits.size
    reached = np.unique(np.concatenate(inner.bits()))
    assert np.array_equal(reached, np.unique(np.concatenate(every.bits())))
    assert sum(inner.sizes) < sum(every.sizes)


def test_distinct_parameters_keep_minus_zero_apart():
    f = _Counted(lambda s: np.stack([np.copysign(1.0, s), s], -1))
    pts = np.array([0.0, -0.0, 0.0, 1.0, -0.0, 1.0])
    got = numerics._distinct_call(f, pts)
    assert f.sizes == [3]
    assert np.array_equal(got[:, 0], [1.0, -1.0, 1.0, 1.0, -1.0, 1.0])
    assert np.array_equal(np.signbit(got[:, 1]), np.signbit(pts))
    # parameters that do not repeat go to f as they are, in their order
    f = _Counted(np.sin)
    pts = np.array([0.5, -0.0, 0.0, 0.25])
    numerics._distinct_call(f, pts)
    assert np.array_equal(f.bits(), [pts.view(np.int64)])


@pytest.mark.parametrize("shape", [(0,), (2, 0)])
def test_differentiate_of_no_parameters_is_empty(shape):
    t = np.empty(shape)
    h = 1e-3
    assert differentiate(np.sin, t, 1, h).shape == shape
    got = differentiate(_periodic_pair, t, (0, 1, 2), h, domain=(0.0, 1.0))
    assert [a.shape for a in got] == [shape + (2,)] * 3
    assert differentiate(_periodic_pair, t, 2, h, closed=True).shape == shape + (2,)


# -- Gauss sums ----------------------------------------------------------------


def _gauss5_one_call(fn, a, b):
    # every node of every segment in one call of fn, summed at once
    a = np.asarray(a, dtype=float)
    span = np.asarray(b, dtype=float) - a
    nodes = (a[..., None] + span[..., None] * numerics._G5_X).reshape(-1, numerics._G5_X.size)
    vals = fn(nodes.ravel()).reshape(nodes.shape)
    return span * numerics._stencil_sums(numerics._G5_W, vals).reshape(span.shape)


@pytest.mark.parametrize("n", [0, 1, DIFF_BLOCK - 1, DIFF_BLOCK, DIFF_BLOCK + 1,
                               2 * DIFF_BLOCK + 1, 3 * DIFF_BLOCK + 5])
def test_gauss_sums_call_fn_on_bounded_blocks_with_one_call_bits(n):
    rng = np.random.default_rng(n)
    a = rng.uniform(-3.0, 3.0, n)
    b = a + rng.uniform(-0.5, 0.5, n)
    b[::7] = a[::7]     # empty segments: a zero whose sign the integrand sets
    sizes = []

    def f(x):
        sizes.append(x.size)
        return np.sin(3.0 * x) * np.exp(np.cos(x))

    got = gauss5_segments(f, a, b)
    assert max(sizes, default=0) <= 5 * DIFF_BLOCK and sum(sizes) == 5 * n
    assert got.shape == (n,)
    want = _gauss5_one_call(f, a, b)
    assert got.tobytes() == want.tobytes()
    if n > 7:
        assert np.any(np.signbit(got[::7])) and not np.all(np.signbit(got[::7]))
    # a scalar start against an array of ends, and a 0-d pair
    for a0, b0 in ((np.asarray(-0.7), b), (np.float64(-0.25), 1.5)):
        sizes.clear()
        got = gauss5_segments(f, a0, b0)
        assert max(sizes, default=0) <= 5 * DIFF_BLOCK
        want = _gauss5_one_call(f, a0, b0)
        assert np.shape(got) == np.shape(want) and np.asarray(got).tobytes() == want.tobytes()


def _peak_bytes_per_sample(build):
    """Slope of build(n)'s tracemalloc peak from 2048 to 8192 samples."""
    build(256)  # lazy plane tables and stencil weights are filled outside the trace
    peaks = []
    for n in (2048, 8192):
        tracemalloc.start()
        try:
            build(n)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return (peaks[1] - peaks[0]) / (8192 - 2048)


def test_an_involute_holds_bounded_memory_per_sample(l3):
    # A = integral of alpha at every sample's 5 Gauss nodes once held a circle
    # jet of all of them, about 950 bytes a sample at the peak
    slope = _peak_bytes_per_sample(
        lambda n: involute(legendre_from_curve(l3, catalog.cusp_t2t3(n)), 0.5))
    assert slope <= 400.0


def test_a_synthesis_holds_bounded_memory_per_sample(fourier_oval):
    # the unit circle's arc length at Gauss nodes, and the RK4 stage arrays
    # while the pair is built, once held about 580 bytes a sample
    spec = dict(alpha=lambda t: np.cos(3.0 * t), kappa=lambda t: np.ones_like(t),
                gamma0=(0.0, 0.0), eta0=tuple(fourier_oval.circle_point(0.0)),
                domain=(0.0, 2.0 * np.pi))
    slope = _peak_bytes_per_sample(
        lambda n: synthesize(fourier_oval, SynthesisSpec(**spec, steps=n)))
    assert slope <= 350.0
