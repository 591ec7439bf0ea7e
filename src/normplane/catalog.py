"""Named fixture curves, each with analytic derivatives where available."""

from __future__ import annotations

import numpy as np

from .curves import NormalField, ParamCurve
from .errors import BadParameter, ConfigError
from .plane import NormedPlane

TWO_PI = 2.0 * np.pi


def _xy(x, y):
    return np.stack([np.asarray(x, dtype=float), np.asarray(y, dtype=float)], axis=-1)


def circle(samples=2048):
    return ellipse(1.0, 1.0, samples, name="circle")


def ellipse(a=2.0, b=1.0, samples=2048, name=None):
    if a <= 0.0 or b <= 0.0:
        raise BadParameter("ellipse needs positive semi-axes")
    return ParamCurve(
        lambda t: _xy(a * np.cos(t), b * np.sin(t)), (0.0, TWO_PI), closed=True,
        derivatives=(
            lambda t: _xy(-a * np.sin(t), b * np.cos(t)),
            lambda t: _xy(-a * np.cos(t), -b * np.sin(t)),
            lambda t: _xy(a * np.sin(t), -b * np.cos(t)),
        ),
        samples=samples, name=name or f"ellipse({a},{b})")


def astroid(samples=2048):
    # arrays, 0-d for a scalar t, so that ** takes numpy's power loop, not C pow
    c, s = (lambda t: np.cos(t)[...]), (lambda t: np.sin(t)[...])
    return ParamCurve(
        lambda t: _xy(c(t) ** 3, s(t) ** 3), (0.0, TWO_PI), closed=True,
        derivatives=(
            lambda t: _xy(-3.0 * c(t) ** 2 * s(t), 3.0 * s(t) ** 2 * c(t)),
            lambda t: 3.0 * _xy(2.0 * c(t) * s(t) ** 2 - c(t) ** 3,
                                2.0 * s(t) * c(t) ** 2 - s(t) ** 3),
            lambda t: 3.0 * _xy(-2.0 * s(t) ** 3 + 7.0 * s(t) * c(t) ** 2,
                                2.0 * c(t) ** 3 - 7.0 * s(t) ** 2 * c(t)),
        ),
        samples=samples, name="astroid")


def astroid_normal():
    """Closed-form smooth normal of the astroid (unit in the Euclidean norm)."""
    return NormalField(
        lambda t: _xy(np.sin(t), np.cos(t)), (0.0, TWO_PI), True,
        lambda t: (_xy(np.sin(t), np.cos(t)), _xy(np.cos(t), -np.sin(t))))


def cusp_t2t3(samples=2048):
    one = np.ones_like
    zero = np.zeros_like
    return ParamCurve(
        lambda t: _xy(np.asarray(t) ** 2, np.asarray(t) ** 3), (-1.0, 1.0),
        derivatives=(
            lambda t: _xy(2.0 * np.asarray(t), 3.0 * np.asarray(t) ** 2),
            lambda t: _xy(2.0 * one(np.asarray(t, dtype=float)),
                          6.0 * np.asarray(t)),
            lambda t: _xy(zero(np.asarray(t, dtype=float)),
                          6.0 * one(np.asarray(t, dtype=float))),
        ),
        samples=samples, name="cusp_t2t3")


def unit_circle_of_norm(plane: NormedPlane, samples=2048):
    return ParamCurve(plane.circle_point, (0.0, TWO_PI), closed=True,
                      derivatives=(plane.circle_d1, plane.circle_d2),
                      samples=samples, name="unit_circle_of_norm")


def unit_circle_normal(plane: NormedPlane):
    """A Minkowski circle is its own normal field."""
    return NormalField(plane.circle_point, (0.0, TWO_PI), True,
                       lambda t: plane.circle_jet(t, (0, 1)))


def get_curve(name: str, plane: NormedPlane, samples=2048, **params) -> ParamCurve:
    if params and name != "ellipse":
        raise ConfigError(f"catalog curve {name!r} takes no {next(iter(params))!r}")
    if name == "circle":
        return circle(samples)
    if name == "ellipse":
        return ellipse(params.get("a", 2.0), params.get("b", 1.0), samples)
    if name == "astroid":
        return astroid(samples)
    if name == "cusp_t2t3":
        return cusp_t2t3(samples)
    if name == "unit_circle_of_norm":
        return unit_circle_of_norm(plane, samples)
    raise ConfigError(f"unknown catalog curve {name!r}")


def get_normal(name: str, plane: NormedPlane):
    """Shipped analytic normal fields, where the catalog knows one."""
    if name == "astroid" and plane.spec.kind == "euclidean":
        return astroid_normal()
    if name == "unit_circle_of_norm":
        return unit_circle_normal(plane)
    return None
