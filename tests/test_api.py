"""The package exports the paper's operations; the checks of those operations
live in tests/oracles.py and read only public normplane names."""

import ast
import dataclasses
import inspect
import os

import numpy as np

import normplane
from normplane import derived, errors, expressions, numerics, plane

HERE = os.path.dirname(os.path.abspath(__file__))

ORACLES = {
    plane: ("is_birkhoff_orthogonal", "ORTHO_TOL", "TangentTheta", "EagerArclength",
            "lp_radial_jet", "transfer_unit"),
    numerics: ("differentiate_every_point",),
    derived: ("evolute_as_parallel_singularities", "evolute_curvature", "RHO_MASK",
              "normal_envelope_residual", "pedal_envelope_residual", "vertex_residual",
              "osculating_data", "distance_squared_rates"),
    errors: ("DegenerateLine",),
    expressions: ("to_text", "postorder", "tree_parse_expression", "tree_evaluate"),
}


def test_oracles_live_with_the_tests_and_read_public_names_only():
    for module, names in ORACLES.items():
        for name in names:
            assert not hasattr(normplane, name), name
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert not hasattr(plane.NormedPlane, "antinorm_supremum")
    # an evolute is returned as its pair; no frame type wraps it
    assert not hasattr(normplane, "EvoluteFrame") and not hasattr(derived, "EvoluteFrame")
    assert not hasattr(normplane.LegendreCurve, "xi")

    with open(os.path.join(HERE, "oracles.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("normplane"):
            private += [a.name for a in node.names if a.name.startswith("_")]
        elif isinstance(node, ast.Attribute) and node.attr[:1] == "_" != node.attr[1:2]:
            private.append(node.attr)
    assert private == []


def test_the_validated_pair_is_its_own_curvature_pair(circle_pair):
    # one object: the evaluators are methods, and the only callables it holds
    # are the normal field eta itself and the frame that evaluates the pair
    assert not hasattr(normplane, "CurvaturePair")
    assert normplane.curvature_pair(circle_pair) is circle_pair
    for field in dataclasses.fields(normplane.LegendreCurve):
        value = getattr(circle_pair, field.name)
        assert (not callable(value) or isinstance(value, normplane.NormalField)
                or field.name == "frame"), field.name


def test_curves_and_normal_fields_hold_no_evaluations():
    # each call evaluates: nothing is kept between calls, and nothing can be
    for cls in (normplane.ParamCurve, normplane.NormalField):
        assert cls.__dataclass_params__.frozen
        assert not any(hasattr(cls, name) for name in ("_kept", "_held", "_keep"))


def test_parallels_evolutes_and_involutes_are_pairs(ellipse_pair):
    # the evolute's normal is nu = -b^{-1}(eta), evaluated as written
    for derive in (lambda L: normplane.parallel(L, 0.3), normplane.evolute,
                   lambda L: normplane.involute(L, 0.5)):
        assert type(derive(ellipse_pair)) is normplane.LegendreCurve
    ts = ellipse_pair.ts
    nu = -ellipse_pair.plane.normal_from_tangent(ellipse_pair.eta(ts))
    assert np.array_equal(normplane.evolute(ellipse_pair).eta(ts), nu)


def test_settings_that_nothing_varies_or_reads_are_gone():
    from normplane import analysis, catalog, expressions, numerics

    def fields(cls):
        return {f.name for f in dataclasses.fields(cls)}

    assert "provenance" not in fields(normplane.NormalField)
    assert not hasattr(normplane.ParamCurve, "_base_order")
    assert "maxiter" not in inspect.signature(numerics.brent_root).parameters
    assert numerics.BRENT_ITERS == 120
    for getter in (catalog.get_curve, catalog.get_normal):
        assert inspect.signature(getter).parameters["plane"].default is inspect.Parameter.empty
    assert catalog.circle().position.__qualname__.startswith("ellipse.")
    assert not hasattr(plane._RadialProfile, "r")
    assert plane._RadialProfile(plane.NormSpec("euclidean")).coef.tolist() == [1.0]
    for name in ("DomainWarning", "GUARDED", "_uses", "_eval"):
        assert not hasattr(expressions, name), name
    assert "is_front" not in fields(analysis.SingularityReport)
    assert "ts" not in fields(analysis.ProjectiveCurvatureMap)
    assert "length" not in fields(normplane.SynthesisSpec)
