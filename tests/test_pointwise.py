"""Every evaluator works point by point: a parameter or vector gets the same
bits alone (a scalar), in a one-element array and inside any batch. The
distinct evaluation of `numerics.differentiate` and every scalar refinement
rely on it, so the checks are bit for bit."""

import numpy as np
import pytest

from normplane import catalog
from normplane.analysis import make_legendre, transfer_legendre
from normplane.cli import build_curve_and_pair
from normplane.derived import evolute, involute, parallel, pedal
from normplane.errors import ExpressionDomainError
from normplane.expressions import evaluate, parse_expression
from normplane.numerics import gauss5_segments, wrap
from normplane.plane import NormSpec, build_plane
from normplane.synthesis import apply_linear_map
from oracles import to_text
from test_expressions import _random_tree

TWO_PI = 2.0 * np.pi
SAMPLES = 512

SPECS = {
    "euclidean": NormSpec("euclidean"),
    "lp3": NormSpec("lp", p=3.0),
    "lp1.5": NormSpec("lp", p=1.5),
    "fourier": NormSpec("fourier_radial", coefficients=(1.0, 0.08)),
}


@pytest.fixture(scope="module")
def planes():
    return {name: build_plane(spec) for name, spec in SPECS.items()}


def _same(alone, batch):
    """alone and batch hold the same values, bit for bit (both may be tuples)."""
    if isinstance(batch, tuple):
        return all(_same(a, b) for a, b in zip(alone, batch))
    return np.array_equal(np.asarray(alone), np.asarray(batch))


def _assert_pointwise(f, xs, name):
    """f at each element of xs, alone and as a one-element slice, equals the
    element of f(xs); a scalar's result has no element axis."""
    batch = f(xs)

    def item(i):
        return tuple(b[i] for b in batch) if isinstance(batch, tuple) else batch[i]

    lone = [i for i in range(len(xs)) if not _same(f(xs[i]), item(i))]
    one = [i for i in range(len(xs)) if not _same(f(xs[i:i + 1]), item(slice(i, i + 1)))]
    assert lone == [] and one == [], (name, len(lone), len(one), len(xs))


# -- plane kernels -----------------------------------------------------------

@pytest.mark.parametrize("name", list(SPECS))
def test_plane_kernels_give_a_vector_its_batch_bits(planes, name):
    plane = planes[name]
    rng = np.random.default_rng(17)
    angles = rng.uniform(-np.pi, np.pi, 400)
    units = plane.circle_point(angles)
    kernels = {
        "norm": plane.norm,
        "birkhoff": plane.birkhoff,
        "rho": plane.rho,
        "normal_from_tangent": plane.normal_from_tangent,
    }
    for kernel, f in kernels.items():
        _assert_pointwise(f, units, (name, kernel))

    def tangent_theta(chi):
        # the jet holds the parameter axis second: move it first
        theta, jet = plane.tangent_theta(chi)
        return theta, np.moveaxis(jet, 0, -2)

    _assert_pointwise(tangent_theta, angles[:120], (name, "tangent_theta"))


def test_gauss_sums_give_a_segment_its_batch_bits():
    rng = np.random.default_rng(17)
    a = np.sort(rng.uniform(-3.0, 3.0, 200))
    b = a + rng.uniform(1e-3, 0.5, 200)

    def f(x):
        return np.sin(3.0 * x) * np.exp(np.cos(x))

    whole = gauss5_segments(f, a, b)
    lone = gauss5_segments(f, a[7], b[7])
    assert np.shape(lone) == ()
    assert [i for i in range(a.size) if gauss5_segments(f, a[i], b[i]) != whole[i]] == []
    for n in range(1, 41):
        for i in (0, 1, 7, 100, a.size - n):
            part = gauss5_segments(f, a[i:i + n], b[i:i + n])
            assert np.array_equal(part, whole[i:i + n]), (n, i)


# -- pairs -------------------------------------------------------------------

def _turn(angle):
    return np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])


_CURVES = {
    "ellipse": {"kind": "catalog", "name": "ellipse", "a": 2.0, "b": 1.0},
    "cusp_t2t3": {"kind": "catalog", "name": "cusp_t2t3"},
    "expression": {"kind": "expression", "x": "cos(t) + 0.3*cos(2*t)",
                   "y": "sin(t) - 0.3*sin(2*t)", "domain": [0.0, TWO_PI], "closed": True},
    "synth": {"kind": "synthesis", "alpha": "cos(3*t)", "kappa": "1"},
}


def _base(plane, curve):
    return build_curve_and_pair(plane, dict(_CURVES[curve]), SAMPLES)


_PAIRS = {
    **{f"{curve}-{norm}": (lambda planes, c=curve, n=norm: _base(planes[n], c))
       for curve in _CURVES for norm in ("euclidean", "lp3", "fourier")},
    "astroid-euclidean": lambda planes: make_legendre(
        planes["euclidean"], catalog.astroid(SAMPLES), catalog.astroid_normal()),
    **{f"evolute-{norm}": (lambda planes, n=norm: evolute(_base(planes[n], "ellipse")))
       for norm in ("euclidean", "lp3", "fourier")},
    # lp3 refuses every involute (its distortion vanishes at the axes)
    **{f"involute-{norm}": (lambda planes, n=norm: involute(_base(planes[n], "ellipse"), 0.5))
       for norm in ("euclidean", "fourier")},
    **{f"parallel-{norm}": (lambda planes, n=norm: parallel(_base(planes[n], "ellipse"), 0.3))
       for norm in ("euclidean", "lp3", "fourier")},
    **{f"pedal-{norm}": (lambda planes, n=norm: pedal(_base(planes[n], "ellipse"), (0.3, 0.2)).pair)
       for norm in ("euclidean", "lp3", "fourier")},
    "transfer-euclidean-lp3": lambda planes: transfer_legendre(
        _base(planes["euclidean"], "ellipse"), planes["lp3"]),
    "transfer-lp3-fourier": lambda planes: transfer_legendre(
        _base(planes["lp3"], "expression"), planes["fourier"]),
    # a linear map keeps the pair in its plane only as an isometry of it
    "turn-euclidean": lambda planes: apply_linear_map(
        _base(planes["euclidean"], "ellipse"), _turn(0.3), is_isometry_of_plane=True),
    "quarter-turn-lp3": lambda planes: apply_linear_map(
        _base(planes["lp3"], "ellipse"), _turn(0.5 * np.pi), is_isometry_of_plane=True),
}


@pytest.mark.parametrize("pair", list(_PAIRS))
def test_pair_evaluators_give_a_parameter_its_batch_bits(planes, pair):
    L = _PAIRS[pair](planes)
    t0, t1 = L.domain
    ts = np.random.default_rng(5).uniform(t0, t1, 12)
    for name in ("values_at", "alpha_at", "ratio_rate_at"):
        _assert_pointwise(getattr(L, name), ts, (pair, name))
    _assert_pointwise(L.gamma.point, ts, (pair, "gamma.point"))


# closed pairs whose gamma' (the expression curve) or eta' (the transferred
# and pedal normals, which have no jet) is a finite difference
_PERIODIC = [*(f"expression-{norm}" for norm in ("euclidean", "lp3", "fourier")),
             "transfer-euclidean-lp3", "pedal-fourier"]


@pytest.mark.parametrize("pair", _PERIODIC)
def test_a_closed_pair_gives_a_parameter_the_bits_of_its_wrapped_twin(planes, pair):
    # the pair's frame is evaluated at the wrapped parameter, so no stencil
    # is centred on the raw one
    L = _PAIRS[pair](planes)
    t0, t1 = L.domain
    ts = np.random.default_rng(11).uniform(t0, t1, 200)
    for shift in (-L.span, L.span, 3.0 * L.span):
        outside = ts + shift
        twin = wrap(outside, t0, L.period)
        assert _same(L.values_at(outside), L.values_at(twin)), (pair, shift)
        assert _same(L.alpha_at(outside), L.alpha_at(twin)), (pair, shift)


# -- the shape rule: a scalar is a 0-d array and runs the batch code ---------

_CONSTANT_FAULTS = ["1/0", "0/0", "1e308*10", "-1e308-1e308", "t + 1e308*10"]


def _bits_or_refusal(text, t):
    try:
        return np.asarray(evaluate(parse_expression(text), t)).tobytes()
    except ExpressionDomainError:
        return "refused"


def test_an_expression_gives_a_scalar_its_one_element_bits():
    # a number or constant node used to be a Python float at a scalar t, so a
    # constant subtree divided by zero with ZeroDivisionError and overflowed
    # to inf where an array refuses; and numpy's power loop takes a 0-d
    # exponent 0.5 as a square root, one ulp off its pow at 7.65^0.5
    rng = np.random.default_rng(42)
    texts = [to_text(_random_tree(rng, int(rng.integers(1, 7)))) for _ in range(400)]
    for text in texts + _CONSTANT_FAULTS + ["7.65^t"]:
        assert _bits_or_refusal(text, 0.5) == _bits_or_refusal(text, np.array([0.5])), text
    for text in _CONSTANT_FAULTS:
        assert _bits_or_refusal(text, 0.5) == "refused", text


@pytest.mark.parametrize("name", list(SPECS))
def test_antinorm_takes_any_batch_of_vectors(planes, name):
    plane = planes[name]
    x = np.random.default_rng(3).normal(size=(3, 4, 2))
    x[1, 2] = 0.0
    got = plane.antinorm(x)
    assert got.shape == (3, 4) and got[1, 2] == 0.0
    assert np.array_equal(got, plane.antinorm(x.reshape(-1, 2)).reshape(3, 4))
    assert np.array_equal(got[0, 1], plane.antinorm(x[0, 1]))
