import numpy as np
import pytest
from scipy.optimize import brentq

from normplane.errors import NoConvergence
from normplane.numerics import brent_root

# polynomials evaluate to the same bits in batch and one point at a time


def _cubic(x):
    return (x + 1.2) * (x - 0.3) * (x - 2.5)


def _quintic(x):
    return (x + 2.0) * (x + 0.7) * (x - 0.1) * (x - 1.3) * (x - 2.2) - 0.01


class _Counted:
    """Array-only callable that records the size of every call."""

    def __init__(self, f):
        self.f = f
        self.sizes = []

    def __call__(self, x):
        assert isinstance(x, np.ndarray) and x.ndim == 1
        self.sizes.append(x.size)
        return self.f(x)


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


def test_brent_root_raises_when_a_bracket_does_not_converge():
    with pytest.raises(RuntimeError):
        brentq(_cubic, -2.0, 3.0, xtol=1e-12, maxiter=3)
    with pytest.raises(NoConvergence):
        brent_root(_cubic, [0.0, -2.0], [1.0, 3.0], _cubic(np.array([0.0, -2.0])),
                   _cubic(np.array([1.0, 3.0])), xtol=1e-12, maxiter=3)


def test_brent_root_rejects_a_bracket_without_sign_change():
    with pytest.raises(ValueError):
        brent_root(_cubic, [0.5], [2.0], [_cubic(0.5)], [_cubic(2.0)])
