"""Config-driven command line front end.

A run is a JSON document: build the plane, build the curve and its normal,
validate the pair, apply one operation, emit CSV/SVG/report outputs. Runs
are deterministic: identical configs produce byte-identical outputs.

Exit codes: 0 success, 2 config or expression error, 3 validation failure
(plane convexity, orthogonality residual), 4 numerical non-convergence,
5 operation precondition unmet.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np
from scipy.interpolate import CubicSpline

from . import catalog
from .analysis import (
    LegendreCurve,
    circular_curvature,
    contact_implies_curvature_match,
    contact_order,
    curvature_pair,
    legendre_from_curve,
    make_legendre,
    singularity_report,
    transfer_legendre,
)
from .curves import ParamCurve
from .derived import evolute, involute, parallel, pedal
from .emit import emit_csv, emit_report, emit_svg
from .errors import (
    ConfigError,
    DegenerateFrame,
    DegenerateLine,
    ExpressionDomainError,
    GeometryError,
    IoError,
    KappaVanishes,
    LimitsDisagree,
    MethodsDisagree,
    NoConvergence,
    NotAFront,
    NotAnIsometry,
    NotClosed,
    NotUnit,
    OutOfDomain,
    ParseError,
    PlaneValidationError,
    PreconditionViolated,
    ResidualViolation,
    RhoDegenerate,
    SingularPoint,
    ZeroVector,
)
from .expressions import compile_expression
from .plane import NormSpec, build_plane
from .synthesis import SynthesisSpec, synthesize

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_NUMERIC = 4
EXIT_PRECONDITION = 5

MIN_SAMPLES = 8     # the shortest grid the detectors' noise estimate accepts

_VALIDATION_ERRORS = (PlaneValidationError, ResidualViolation, LimitsDisagree)
_NUMERIC_ERRORS = (NoConvergence, MethodsDisagree, DegenerateFrame)
_PRECONDITION_ERRORS = (KappaVanishes, RhoDegenerate, NotAFront, NotClosed,
                        PreconditionViolated, DegenerateLine, SingularPoint,
                        NotUnit, ZeroVector, OutOfDomain, NotAnIsometry)


def _norm_spec(cfg) -> NormSpec:
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError("norm config needs a 'kind'")
    coefficients = cfg.get("coefficients", [])
    if not isinstance(coefficients, list):
        raise ConfigError(f"norm 'coefficients' must be a list, got {coefficients!r}")
    try:
        p = float(cfg.get("p", 2.0))
        table_size = int(cfg.get("grid", 4096))
        coefficients = tuple(float(c) for c in coefficients)
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            f"norm 'p', 'grid' and 'coefficients' must be numbers: {exc}") from exc
    return NormSpec(
        kind=cfg["kind"],
        p=p,
        coefficients=coefficients,
        table_size=table_size,
    )


def _section(cfg, key, default):
    """cfg[key] (or `default`), which must be a JSON object."""
    value = cfg.get(key, default)
    if not isinstance(value, dict):
        raise ConfigError(f"'{key}' must be a JSON object, got {value!r}")
    return value


def _samples(value):
    if isinstance(value, bool) or not isinstance(value, int) or value < MIN_SAMPLES:
        raise ConfigError(f"'samples' must be an integer >= {MIN_SAMPLES}, got {value!r}")
    return value


def _domain(value):
    try:
        t0, t1 = (float(v) for v in value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"curve domain must be two numbers [t0, t1], got {value!r}") from exc
    return t0, t1


def _curve_from_csv(path, closed, samples):
    try:
        raw = np.genfromtxt(path, delimiter=",", names=True)
    except OSError as exc:
        raise ConfigError(f"cannot read csv {path}: {exc}") from exc
    for col in ("t", "x", "y"):
        if col not in (raw.dtype.names or ()):
            raise ConfigError(f"csv {path} lacks column {col!r}")
    ts = np.asarray(raw["t"], dtype=float)
    pts = np.stack([raw["x"], raw["y"]], axis=-1).astype(float)
    if len(ts) < MIN_SAMPLES:
        raise ConfigError(f"csv curve needs at least {MIN_SAMPLES} samples")
    if closed:
        ts = np.append(ts, ts[0] + (ts[1] - ts[0]) * len(ts))
        pts = np.vstack([pts, pts[:1]])
        spline = CubicSpline(ts, pts, bc_type="periodic")
    else:
        spline = CubicSpline(ts, pts)
    return ParamCurve(lambda t: np.asarray(spline(t), dtype=float),
                      (float(ts[0]), float(ts[-1])), closed=closed,
                      samples=samples, name=f"csv:{os.path.basename(path)}")


def build_curve_and_pair(plane, ccfg, samples_override=None):
    if not isinstance(ccfg, dict):
        raise ConfigError(f"a curve must be a JSON object, got {ccfg!r}")
    kind = ccfg.get("kind")
    samples = _samples(ccfg.get("samples", 2048) if samples_override is None
                       else samples_override)
    if kind == "expression":
        fx = compile_expression(ccfg["x"])
        fy = compile_expression(ccfg["y"])
        domain = _domain(ccfg["domain"])

        def pos(t):
            t = np.asarray(t, dtype=float)
            return np.stack([np.broadcast_to(fx(t), t.shape),
                             np.broadcast_to(fy(t), t.shape)], axis=-1)

        curve = ParamCurve(pos, domain, closed=bool(ccfg.get("closed", False)),
                           samples=samples, name="expression")
        return legendre_from_curve(plane, curve)
    if kind == "catalog":
        name = ccfg["name"]
        params = {k: ccfg[k] for k in ("a", "b") if k in ccfg}
        curve = catalog.get_curve(name, plane=plane, samples=samples, **params)
        normal = catalog.get_normal(name, plane=plane)
        if normal is not None:
            return make_legendre(plane, curve, normal)
        return legendre_from_curve(plane, curve)
    if kind == "csv":
        curve = _curve_from_csv(ccfg["path"], bool(ccfg.get("closed", False)),
                                samples)
        return legendre_from_curve(plane, curve)
    if kind == "synthesis":
        domain = _domain(ccfg.get("domain", (0.0, 2.0 * np.pi)))
        spec = SynthesisSpec(
            alpha=compile_expression(ccfg["alpha"]),
            kappa=compile_expression(ccfg["kappa"]),
            gamma0=tuple(float(v) for v in ccfg.get("gamma0", (0.0, 0.0))),
            eta0=tuple(plane.circle_point(float(ccfg.get("eta0_angle", 0.0)))),
            length=domain[1] - domain[0],
            steps=samples,
        )
        return synthesize(plane, spec)
    raise ConfigError(f"unknown curve kind {kind!r}")


def _analysis_outputs(L: LegendreCurve, report_extra=None, require_maslov=False):
    cp = curvature_pair(L)
    rep = singularity_report(L)
    if require_maslov and rep.maslov is None:
        # surface the reason instead of emitting a null index
        raise rep.maslov_error
    rep_dict = rep.to_json_dict()
    if report_extra:
        rep_dict.update(report_extra)
    k = circular_curvature(cp)
    ts = cp.ts
    pts = L.gamma.point(ts)
    markers = {
        "cusps": L.gamma.point(np.asarray([c.t for c in rep.cusps]))
        if rep.cusps else np.zeros((0, 2)),
        "vertices": L.gamma.point(np.asarray([v.t for v in rep.vertices]))
        if rep.vertices else np.zeros((0, 2)),
        "inflections": L.gamma.point(np.asarray([i.t for i in rep.inflections]))
        if rep.inflections else np.zeros((0, 2)),
    }
    return cp, rep_dict, k, ts, pts, markers


def run(config: dict, out_dir: str = None, samples: int = None) -> int:
    """Execute one configuration; returns the exit code."""
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    plane = build_plane(_norm_spec(config.get("norm", {"kind": "euclidean"})))
    L = build_curve_and_pair(plane, config.get("curve", {}), samples)
    op = _section(config, "operation", {"kind": "analyze"})
    kind = op.get("kind", "analyze")
    outputs = dict(_section(config, "output", {}))
    if out_dir:
        outputs = {k: os.path.join(out_dir, v) for k, v in outputs.items()}

    legend = [f"op: {kind}", f"curve: {L.gamma.name}",
              f"norm: {plane.spec.kind}"]

    if kind in ("analyze", "maslov"):
        cp, rep_dict, k, ts, pts, markers = _analysis_outputs(
            L, require_maslov=kind == "maslov")
        result_curves = [{"points": pts, "closed": L.closed}]
        _emit(outputs, ts, pts, cp, k, rep_dict, result_curves, markers, legend)
        return EXIT_OK

    if kind == "parallel":
        Ld = parallel(L, float(op.get("d", 0.0)))
        return _emit_derived(outputs, L, Ld, legend)

    if kind == "evolute":
        frame = evolute(L)
        return _emit_derived(outputs, L, frame.pair, legend)

    if kind == "involute":
        Li = involute(L, float(op.get("d", 0.0)))
        return _emit_derived(outputs, L, Li, legend)

    if kind == "transfer":
        plane2 = build_plane(_norm_spec(op["norm"]))
        Lt = transfer_legendre(L, plane2)
        return _emit_derived(outputs, L, Lt, legend)

    if kind == "pedal":
        point = tuple(float(v) for v in op.get("point", (0.0, 0.0)))
        res = pedal(L, point)
        ts = res.gamma_p.grid()
        pts = res.gamma_p.point(ts)
        rep_extra = {"frontal_claimed": bool(res.frontal_claimed),
                     "singular_parameters": [float(t) for t in res.singular_ts]}
        if res.pair is not None:
            cp, rep_dict, k, ts, pts, markers = _analysis_outputs(res.pair, rep_extra)
        else:
            cp, k, markers = None, None, {"cusps": np.zeros((0, 2)),
                                          "vertices": np.zeros((0, 2)),
                                          "inflections": np.zeros((0, 2))}
            rep_dict = rep_extra
        base = L.gamma.point(L.grid())
        curves = [{"points": base, "closed": L.closed},
                  {"points": pts, "closed": res.gamma_p.closed}]
        _emit(outputs, ts, pts, cp, k, rep_dict, curves, markers, legend)
        return EXIT_OK

    if kind == "contact":
        L2 = build_curve_and_pair(plane, op["curve2"], samples)
        t0 = float(op.get("t0", 0.0))
        u0 = float(op.get("u0", 0.0))
        kmax = int(op.get("kmax", 4))
        order = contact_order(L, t0, L2, u0, kmax)
        rep = {"contact_order": order, "t0": t0, "u0": u0, "kmax": kmax}
        if order >= 1:
            match = contact_implies_curvature_match(L, t0, L2, u0, order)
            rep["curvature_match_residuals"] = {
                str(j): match["residuals"][j] for j in sorted(match["residuals"])}
        if outputs.get("report"):
            emit_report(outputs["report"], rep)
        return EXIT_OK

    raise ConfigError(f"unknown operation kind {kind!r}")


def _emit_derived(outputs, L_base, L_out, legend):
    cp, rep_dict, k, ts, pts, markers = _analysis_outputs(L_out)
    base_pts = L_base.gamma.point(L_base.grid())
    curves = [{"points": base_pts, "closed": L_base.closed},
              {"points": pts, "closed": L_out.closed}]
    _emit(outputs, ts, pts, cp, k, rep_dict, curves, markers, legend)
    return EXIT_OK


def _emit(outputs, ts, pts, cp, k, rep_dict, curves, markers, legend):
    if outputs.get("csv"):
        emit_csv(outputs["csv"], ts, pts,
                 None if cp is None else cp.alpha,
                 None if cp is None else cp.kappa, k)
    if outputs.get("report"):
        emit_report(outputs["report"], rep_dict)
    if outputs.get("svg"):
        emit_svg(outputs["svg"], curves, cusps=markers["cusps"],
                 vertices=markers["vertices"], inflections=markers["inflections"],
                 legend=legend)


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"config is not valid JSON: {exc}", exc.pos) from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="normplane",
        description="curvature analysis of plane curves in smooth strictly "
                    "convex normed planes")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a JSON run configuration")
    runp.add_argument("config")
    runp.add_argument("--samples", type=int, default=None,
                      help="override the curve sample count")
    runp.add_argument("--out", default=None,
                      help="directory prefixed to all output paths")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
        return run(config, out_dir=args.out, samples=args.samples)
    except (ParseError, ConfigError, ExpressionDomainError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _VALIDATION_ERRORS as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except _NUMERIC_ERRORS as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except _PRECONDITION_ERRORS as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except IoError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
