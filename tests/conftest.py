import numpy as np
import pytest

from normplane import catalog
from normplane.analysis import legendre_from_curve, make_legendre
from normplane.plane import NormSpec, build_plane
from normplane.synthesis import SynthesisSpec, synthesize

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="session")
def euclidean():
    return build_plane(NormSpec("euclidean"))


@pytest.fixture(scope="session")
def l3():
    return build_plane(NormSpec("lp", p=3.0))


@pytest.fixture(scope="session")
def fourier_round():
    # r identically 1 through the fourier family: euclidean-equivalent
    return build_plane(NormSpec("fourier_radial", coefficients=(1.0,)))


@pytest.fixture(scope="session")
def fourier_oval():
    return build_plane(NormSpec("fourier_radial", coefficients=(1.0, 0.08)))


@pytest.fixture(scope="session")
def circle_pair(euclidean):
    return legendre_from_curve(euclidean, catalog.circle())


@pytest.fixture(scope="session")
def ellipse_pair(euclidean):
    return legendre_from_curve(euclidean, catalog.ellipse(2.0, 1.0))


@pytest.fixture(scope="session")
def astroid_pair(euclidean):
    return make_legendre(euclidean, catalog.astroid(), catalog.astroid_normal())


@pytest.fixture(scope="session")
def t2t3_pair(euclidean):
    return legendre_from_curve(euclidean, catalog.cusp_t2t3())


@pytest.fixture(scope="session")
def l3_circle_pair(l3):
    curve = catalog.unit_circle_of_norm(l3)
    return make_legendre(l3, curve, catalog.unit_circle_normal(l3))


def maslov_alpha_coefficients(n=4096):
    """Nullspace of the closure conditions: alpha in span{1, cos t, cos 2t}
    orthogonal to sin(1 - cos t) and cos(1 - cos t) over one period."""
    ts = np.linspace(0.0, TWO_PI, n, endpoint=False)
    f1 = np.sin(1.0 - np.cos(ts))
    f2 = np.cos(1.0 - np.cos(ts))
    basis = np.stack([np.ones_like(ts), np.cos(ts), np.cos(2.0 * ts)], axis=-1)
    m = np.stack([f1, f2], axis=0) @ basis * (TWO_PI / n)
    _, _, vt = np.linalg.svd(m)
    coef = vt[-1]
    return coef / coef[np.argmax(np.abs(coef))]


@pytest.fixture(scope="session")
def maslov_coefficients():
    return maslov_alpha_coefficients()


@pytest.fixture(scope="session")
def maslov_pair(euclidean, maslov_coefficients):
    a0, a1, a2 = maslov_coefficients

    def alpha(t):
        return a0 + a1 * np.cos(t) + a2 * np.cos(2.0 * t)

    spec = SynthesisSpec(alpha, np.sin, (0.3, -0.2),
                         (np.cos(0.5), np.sin(0.5)), (0.0, TWO_PI))
    return synthesize(euclidean, spec)
