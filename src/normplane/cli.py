"""Config-driven command line front end.

A run is a JSON document: build the plane, build the curve and its normal,
validate the pair, apply one operation, emit CSV/SVG/report outputs. Runs
are deterministic: identical configs produce byte-identical outputs.

Exit codes: 0 success; an error exits with the code and the stderr label
of its class in `errors.py`: 2 config or expression error, 3 validation
failure (plane convexity, orthogonality residual), 4 numerical
non-convergence, 5 operation precondition unmet or output refused.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from math import isfinite

import numpy as np

from . import catalog
from .analysis import (circular_curvature, contact_implies_curvature_match, contact_order,
                       curvature_pair, legendre_from_curve, make_legendre,
                       singularity_report, transfer_legendre)
from .curves import ParamCurve
from .derived import evolute, involute, parallel, pedal
from .emit import emit_csv, emit_report, emit_svg
from .errors import ConfigError, GeometryError, ParseError
from .expressions import compile_expression
from .plane import NormSpec, build_plane
from .synthesis import SynthesisSpec, synthesize

MIN_SAMPLES = 8     # the shortest grid the detectors' noise estimate accepts

_REQUIRED = object()


def _is_number(value):    # json.load reads NaN and Infinity, which JSON does not have
    return isinstance(value, (int, float)) and not isinstance(value, bool) and isfinite(value)


def _numbers(value):
    return isinstance(value, list) and all(map(_is_number, value))


def _floats(values):
    return tuple(float(v) for v in values)


# kind -> (what a value must be, its check, its conversion)
_KINDS = {
    "number": ("a finite number", _is_number, float),
    "integer": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool), int),
    "flag": ("true or false", lambda v: isinstance(v, bool), bool),
    "text": ("a string", lambda v: isinstance(v, str), str),
    "pair": ("two numbers", lambda v: _numbers(v) and len(v) == 2, _floats),
    "numbers": ("a list of numbers", _numbers, _floats),
}

# section -> the keys every kind of it reads; a section is read as the kind of its name
_SECTIONS = {
    "config": ("norm", "curve", "operation", "output"),
    "norm": ("kind", "grid"),
    "curve": ("kind", "samples"),
    "operation": ("kind",),
    "output": ("csv", "svg", "report"),
}

# section -> its kinds -> the keys each kind reads besides its section's
_KIND_KEYS = {
    "norm": {"euclidean": (), "lp": ("p",), "fourier_radial": ("coefficients",)},
    "curve": {"expression": ("x", "y", "domain", "closed"), "catalog": ("name", "a", "b"),
              "csv": ("path", "closed"),
              "synthesis": ("alpha", "kappa", "gamma0", "eta0_angle", "domain")},
    "operation": {"analyze": (), "maslov": (), "evolute": (), "involute": ("d",),
                  "parallel": ("d",), "pedal": ("point",), "transfer": ("norm",),
                  "contact": ("curve2", "t0", "u0", "kmax")},
}


def _read(cfg, key, kind, default=_REQUIRED):
    """cfg[key] as a value of `kind`, or `default` when the key is absent.

    A missing required key, a value of the wrong kind, an unknown kind of a
    section and a key that its section's kind does not read raise
    ConfigError naming the kind or the key.
    """
    if key not in cfg:
        if default is _REQUIRED:
            raise ConfigError(f"missing key {key!r}")
        return default
    return _check(cfg[key], key, kind)


def _check(value, key, kind):
    if kind in _SECTIONS:
        if not isinstance(value, dict):
            raise ConfigError(f"{key!r} must be a JSON object, got {value!r}")
        keys, kinds = _SECTIONS[kind], _KIND_KEYS.get(kind, {})
        if kinds:
            # an operation with no kind is analyze
            chosen = _read(value, "kind", "text", "analyze" if kind == "operation" else _REQUIRED)
            if chosen not in kinds:
                raise ConfigError(f"unknown {kind} kind {chosen!r}")
            keys += kinds[chosen]
        for name in value:
            if name not in keys:   # a key that another kind reads names this kind
                foreign = any(name in more for more in kinds.values())
                raise ConfigError(f"unknown key {name!r} in {key!r}"
                                  + (f" of kind {chosen!r}" if foreign else ""))
        return value
    what, ok, convert = _KINDS[kind]
    if not ok(value):
        raise ConfigError(f"{key!r} must be {what}, got {value!r}")
    return convert(value)


def _sized(key, build, *args):
    """build(*args); a size numpy cannot allocate is a config error naming `key`."""
    try:
        return build(*args)
    except MemoryError:
        raise ConfigError(f"{key!r} is too large: numpy cannot allocate its arrays") from None


# the bytes per grid node or sample that bound a run's largest array: the
# largest seen, the circle jet [c, c', c''] that `tangent_theta` returns for a
# normal field's rate on the samples, holds 6 float64 a sample, as does the
# CSV table (Gauss nodes and stencils are evaluated in blocks)
_BYTES_PER_POINT = 256


def _indexable(key, size):
    """`size`; a size whose largest array numpy cannot index is a config
    error naming `key` (numpy would refuse it with a ValueError)."""
    if size * _BYTES_PER_POINT > np.iinfo(np.intp).max:
        raise ConfigError(f"{key!r} is too large: numpy cannot index its arrays")
    return size


def _norm_spec(cfg) -> NormSpec:
    return NormSpec(_read(cfg, "kind", "text"), _read(cfg, "p", "number", 2.0),
                    _read(cfg, "coefficients", "numbers", ()),
                    _indexable("grid", _read(cfg, "grid", "integer", 4096)))


def _curve_from_csv(path, closed, samples):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")     # an empty file warns, then raises
            raw = np.atleast_1d(np.genfromtxt(path, delimiter=",", names=True))
    except OSError as exc:
        raise ConfigError(f"cannot read csv {path}: {exc}") from exc
    except (IndexError, ValueError):
        raise ConfigError(f"csv {path} needs a header row over rows of as many cells") from None
    for col in ("t", "x", "y"):
        if col not in (raw.dtype.names or ()):
            raise ConfigError(f"csv {path} lacks column {col!r}")
    ts = np.asarray(raw["t"], dtype=float)
    pts = np.stack([raw["x"], raw["y"]], axis=-1).astype(float)
    if len(ts) < MIN_SAMPLES:
        raise ConfigError(f"csv {path} needs at least {MIN_SAMPLES} samples")
    if not (np.all(np.isfinite(ts)) and np.all(np.isfinite(pts))):
        raise ConfigError(f"csv {path} holds a t, x or y cell that is not a finite number")
    if closed:
        ts = np.append(ts, ts[0] + (ts[1] - ts[0]) * len(ts))
        pts = np.vstack([pts, pts[:1]])
    if not np.all(np.diff(ts) > 0.0):
        raise ConfigError(f"csv {path} column 't' does not increase strictly"
                          + (f" up to its closing value {ts[-1]:g}" if closed else ""))
    from scipy.interpolate import CubicSpline  # only CSV curves load scipy (no workload times them)
    spline = CubicSpline(ts, pts, bc_type="periodic" if closed else "not-a-knot")
    return ParamCurve(lambda t: np.asarray(spline(t), dtype=float),
                      (float(ts[0]), float(ts[-1])), closed=closed,
                      samples=samples, name=f"csv:{os.path.basename(path)}")


def build_curve_and_pair(plane, ccfg, samples_override=None):
    samples = (_read(ccfg, "samples", "integer", 2048) if samples_override is None
               else samples_override)
    if samples < MIN_SAMPLES:
        raise ConfigError(f"'samples' must be an integer >= {MIN_SAMPLES}, got {samples!r}")
    _indexable("samples", samples)
    kind = _read(ccfg, "kind", "text")
    if kind == "expression":
        fx = compile_expression(_read(ccfg, "x", "text"))
        fy = compile_expression(_read(ccfg, "y", "text"))
        domain = _read(ccfg, "domain", "pair")

        def pos(t):
            return np.stack([fx(t), fy(t)], axis=-1)

        curve = ParamCurve(pos, domain, closed=_read(ccfg, "closed", "flag", False),
                           samples=samples, name="expression")
        return legendre_from_curve(plane, curve)
    if kind == "catalog":
        name = _read(ccfg, "name", "text")
        params = {k: _read(ccfg, k, "number") for k in ("a", "b") if k in ccfg}
        curve = catalog.get_curve(name, plane, samples, **params)
        normal = catalog.get_normal(name, plane)
        if normal is not None:
            return make_legendre(plane, curve, normal)
        return legendre_from_curve(plane, curve)
    if kind == "csv":
        curve = _curve_from_csv(_read(ccfg, "path", "text"),
                                _read(ccfg, "closed", "flag", False), samples)
        return legendre_from_curve(plane, curve)
    domain = _read(ccfg, "domain", "pair", (0.0, 2.0 * np.pi))    # synthesis
    spec = SynthesisSpec(
        alpha=compile_expression(_read(ccfg, "alpha", "text")),
        kappa=compile_expression(_read(ccfg, "kappa", "text")),
        gamma0=_read(ccfg, "gamma0", "pair", (0.0, 0.0)),
        eta0=tuple(plane.circle_point(_read(ccfg, "eta0_angle", "number", 0.0))),
        domain=domain,
        steps=samples,
    )
    return synthesize(plane, spec)


# operation kind -> the pair it derives from L
_DERIVED = {
    "parallel": lambda L, op: parallel(L, _read(op, "d", "number", 0.0)),
    "evolute": lambda L, op: evolute(L),
    "involute": lambda L, op: involute(L, _read(op, "d", "number", 0.0)),
    "transfer": lambda L, op: transfer_legendre(
        L, _sized("grid", build_plane, _norm_spec(_read(op, "norm", "norm")))),
}


def run(config: dict, out_dir: str = None, samples: int = None) -> int:
    """Execute one configuration; returns the exit code."""
    config = _check(config, "config", "config")
    plane = _sized("grid", build_plane,
                   _norm_spec(_read(config, "norm", "norm", {"kind": "euclidean"})))
    L = _sized("samples", build_curve_and_pair, plane, _read(config, "curve", "curve", {}), samples)
    op = _read(config, "operation", "operation", {"kind": "analyze"})
    kind = _read(op, "kind", "text", "analyze")
    output = _read(config, "output", "output", {})
    outputs = {k: os.path.join(out_dir or "", _read(output, k, "text")) for k in output}

    legend = [f"op: {kind}", f"curve: {L.gamma.name}", f"norm: {plane.spec.kind}"]

    if kind in ("analyze", "maslov"):
        _emit(outputs, legend, L.gamma, L, require_maslov=kind == "maslov")
    elif kind in _DERIVED:
        Ld = _DERIVED[kind](L, op)
        _emit(outputs, legend, Ld.gamma, Ld, base=L)
    elif kind == "pedal":
        res = pedal(L, _read(op, "point", "pair", (0.0, 0.0)))
        extra = {"frontal_claimed": bool(res.frontal_claimed),
                 "singular_parameters": [float(t) for t in res.singular_ts]}
        _emit(outputs, legend, res.gamma_p, res.pair, base=L, extra=extra)
    else:   # contact
        L2 = _sized("samples", build_curve_and_pair, plane, _read(op, "curve2", "curve"),
                    samples)
        t0 = _read(op, "t0", "number", 0.0)
        u0 = _read(op, "u0", "number", 0.0)
        kmax = _read(op, "kmax", "integer", 4)
        order = contact_order(L, t0, L2, u0, kmax)
        rep = {"contact_order": order, "t0": t0, "u0": u0, "kmax": kmax}
        if order >= 1:
            match = contact_implies_curvature_match(L, t0, L2, u0, order)
            rep["curvature_match_residuals"] = {
                str(j): match["residuals"][j] for j in sorted(match["residuals"])}
        if outputs.get("report"):
            emit_report(outputs["report"], rep)
    return 0


def _emit(outputs, legend, curve, L, base=None, extra=None, require_maslov=False):
    """Write the requested CSV, report and SVG of `curve`.

    `L` is the pair analysed along `curve`; None emits the curve with no
    curvature and no events. `base` is a pair drawn beneath the curve and
    `extra` is merged into the report.
    """
    if L is None:
        ts, cp, report, events = curve.grid(), None, {}, ((), (), ())
    else:
        cp = curvature_pair(L)
        rep = singularity_report(L)
        if require_maslov and rep.maslov is None:
            # surface the reason instead of emitting a null index
            raise rep.maslov_error
        ts, report = cp.ts, rep.to_json_dict()
        events = (rep.cusps, rep.vertices, rep.inflections)
    report.update(extra or {})
    pts = curve.point(ts)
    if outputs.get("csv"):
        emit_csv(outputs["csv"], ts, pts, *((None, None, None) if cp is None else
                                            (cp.alpha, cp.kappa, circular_curvature(cp))))
    if outputs.get("report"):
        emit_report(outputs["report"], report)
    if outputs.get("svg"):
        cusps, vertices, inflections = (
            curve.point(np.asarray([e.t for e in found])) if found else np.zeros((0, 2))
            for found in events)
        drawn = [] if base is None else [{"points": base.gamma.point(base.ts),
                                          "closed": base.closed}]
        emit_svg(outputs["svg"], drawn + [{"points": pts, "closed": curve.closed}],
                 cusps=cusps, vertices=vertices, inflections=inflections, legend=legend)


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
    except GeometryError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code

if __name__ == "__main__":
    sys.exit(main())
