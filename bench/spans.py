"""Per-layer span tracing of normplane, installed from outside the package.

`Tracer.install()` rebinds each traced function or method to a wrapper that
records a span: name, start, end, parent span, case id, points passed in and
whether it exited by exception. Names that other modules imported with
`from .x import y` are rebound there too, so every call site goes through the
wrapper. Spans stay in memory and are written when the run ends.

A layer is a package module. Stats per traced name:
  calls   number of spans
  points  vectors (or parameters) passed in, summed over calls
  s       inclusive time
  self_s  time minus the part covered by child spans
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

import numpy as np

# (metric prefix, module, attribute path, stats, points argument)
# The points argument is (index into args, per) where `per` is 2 when the
# argument holds 2-vectors and 1 when it holds parameters.
_V1 = (1, 2)
_P1 = (1, 1)
TRACED = (
    ("plane.build_plane", "plane", "build_plane", ("calls", "s"), None),
    ("plane.norm", "plane", "NormedPlane.norm", ("calls", "points", "self_s"), _V1),
    ("plane.birkhoff", "plane", "NormedPlane.birkhoff", ("calls", "points", "self_s"), _V1),
    ("plane.normal_from_tangent", "plane", "NormedPlane.normal_from_tangent",
     ("calls", "points", "self_s"), _V1),
    ("plane.normal_from_tangent_with_derivative", "plane",
     "NormedPlane.normal_from_tangent_with_derivative", ("calls", "points", "self_s"), _V1),
    ("plane.tangent_theta", "plane", "NormedPlane.tangent_theta",
     ("calls", "points", "self_s"), _P1),
    ("plane.theta_of_arclength", "plane", "NormedPlane.theta_of_arclength",
     ("calls", "points", "self_s"), _P1),
    ("plane.rho", "plane", "NormedPlane.rho", ("calls", "points", "self_s"), _V1),
    ("plane.circle_d1", "plane", "NormedPlane.circle_d1", ("calls", "points", "self_s"), _P1),
    ("curves.induced_normal", "curves", "induced_normal", ("calls", "s"), None),
    ("curves.extend_normal", "curves", "extend_normal", ("calls", "s"), None),
    ("curves.find_singular_params", "curves", "find_singular_params", ("calls", "s"), None),
    ("curves.ParamCurve.derivative", "curves", "ParamCurve.derivative",
     ("calls", "points", "self_s"), _P1),
    ("curves.NormalField.__call__", "curves", "NormalField.__call__",
     ("calls", "points", "self_s"), _P1),
    ("curves.NormalField.derivative", "curves", "NormalField.derivative",
     ("calls", "points", "self_s"), _P1),
    ("analysis.make_legendre", "analysis", "make_legendre", ("calls", "s", "self_s"), None),
    ("analysis.curvature_pair", "analysis", "curvature_pair", ("calls", "s", "self_s"), None),
    ("analysis.singularity_report", "analysis", "singularity_report",
     ("calls", "s", "self_s"), None),
    ("analysis.maslov_index", "analysis", "maslov_index", ("calls", "s", "self_s"), None),
    ("analysis.transfer_legendre", "analysis", "transfer_legendre",
     ("calls", "s", "self_s"), None),
    ("analysis._immersion_gap", "analysis", "_immersion_gap", ("calls", "s", "self_s"), None),
    ("analysis._detect_cusps", "analysis", "_detect_cusps", ("calls", "s", "self_s"), None),
    ("analysis._detect_inflections", "analysis", "_detect_inflections",
     ("calls", "s", "self_s"), None),
    ("analysis._detect_vertices", "analysis", "_detect_vertices",
     ("calls", "s", "self_s"), None),
    ("numerics.differentiate", "numerics", "differentiate", ("calls", "points"), _P1),
    ("numerics.brent_root", "numerics", "brent_root", ("calls", "self_s"), None),
    ("numerics.golden_minimize", "numerics", "golden_minimize", ("calls", "self_s"), None),
    ("numerics.sign_crossings", "numerics", "sign_crossings", ("calls", "self_s"), None),
    ("numerics.gauss5_segments", "numerics", "gauss5_segments", ("calls", "self_s"), None),
    ("derived.evolute", "derived", "evolute", ("s",), None),
    ("derived.involute", "derived", "involute", ("s",), None),
    ("derived.pedal", "derived", "pedal", ("s",), None),
    ("derived.parallel", "derived", "parallel", ("s",), None),
    ("synthesis.synthesize", "synthesis", "synthesize", ("s", "self_s"), None),
    ("emit.emit_csv", "emit", "emit_csv", ("s",), None),
    ("emit.emit_svg", "emit", "emit_svg", ("s",), None),
    ("emit.emit_report", "emit", "emit_report", ("s",), None),
    ("cli.build_curve_and_pair", "cli", "build_curve_and_pair", ("s",), None),
    ("expressions.compile_expression", "expressions", "compile_expression", ("calls",), None),
)

# ROADMAP aim 1 splits the point kernels into per-scalar-call and per-point
# batch cost; calls of at most SCALAR_MAX points count as scalar, calls of at
# least BATCH_MIN points as batches (inclusive time in both)
SPLIT = ("plane.normal_from_tangent", "plane.tangent_theta")
SCALAR_MAX = 8
BATCH_MIN = 1024

MODULES = ("plane", "curves", "analysis", "numerics", "derived", "synthesis",
           "emit", "cli", "expressions")

UNITS = {"calls": "count", "points": "count", "s": "s", "self_s": "s",
         "scalar_us_per_call": "us", "batch_ns_per_point": "ns"}


def metric_units() -> dict:
    """Every per-layer metric name the traced run prints, with its unit."""
    out = {}
    for prefix, _, _, stats, _ in TRACED:
        for stat in stats:
            out[f"{prefix}.{stat}"] = UNITS[stat]
        if prefix in SPLIT:
            out[f"{prefix}.scalar_us_per_call"] = "us"
            out[f"{prefix}.batch_ns_per_point"] = "ns"
    out["analysis.events_per_refine"] = "ratio"
    out["emit.bytes"] = "B"
    for module in MODULES:
        out[f"{module}.errors"] = "count"
    return out


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.names = [entry[0] for entry in TRACED]
        # one column per span field; spans are appended in entry order
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_s = array("d")
        self.parent = array("l")
        self.case = array("i")
        self.points = array("q")
        self.error = array("b")
        self.case_ids = []
        self._case = -1
        self._stack = []     # open span indices
        self._child = []     # time covered by children of each open span
        self._rebound = []   # (owner, attribute, original) for uninstall

    def begin_case(self, case_id: str):
        self.case_ids.append(case_id)
        self._case = len(self.case_ids) - 1

    def _wrap(self, fn, name_id, points_arg):
        def traced(*args, **kwargs):
            idx = len(self.start)
            pts = 0
            if points_arg is not None and len(args) > points_arg[0]:
                pts = int(np.size(args[points_arg[0]])) // points_arg[1]
            self.name.append(name_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self.self_s.append(0.0)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.case.append(self._case)
            self.points.append(pts)
            self.error.append(0)
            self._stack.append(idx)
            self._child.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.error[idx] = 1
                raise
            finally:
                t1 = perf_counter()
                self._stack.pop()
                child = self._child.pop()
                if self._child:
                    self._child[-1] += t1 - t0
                self.start[idx] = t0
                self.end[idx] = t1
                self.self_s[idx] = (t1 - t0) - child

        return traced

    def install(self):
        """Rebind every traced name in every normplane module."""
        import normplane  # noqa: F401

        package = [m for n, m in sys.modules.items()
                   if m is not None and (n == "normplane" or n.startswith("normplane."))]
        for name_id, (_, module, attr, _, points_arg) in enumerate(TRACED):
            owner = sys.modules[f"normplane.{module}"]
            *cls_path, leaf = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            wrapper = self._wrap(original, name_id, points_arg)
            targets = [(owner, leaf)]
            if not cls_path:
                targets = [(mod, key) for mod in package
                           for key, value in vars(mod).items() if value is original]
            for target, key in targets:
                setattr(target, key, wrapper)
                self._rebound.append((target, key, original))

    def uninstall(self):
        """Restore every name `install` rebound."""
        for target, key, original in reversed(self._rebound):
            setattr(target, key, original)
        self._rebound = []

    def __len__(self):
        return len(self.start)

    def metrics(self, lo: int, hi: int, events: int, emitted_bytes: int) -> dict:
        """Aggregate spans lo..hi-1 into the per-layer metrics."""
        name = np.array(self.name[lo:hi], dtype=np.int32)
        dur = np.array(self.end[lo:hi]) - np.array(self.start[lo:hi])
        self_s = np.array(self.self_s[lo:hi])
        points = np.array(self.points[lo:hi], dtype=np.int64)
        error = np.array(self.error[lo:hi], dtype=np.int8)
        out = {}
        errors = dict.fromkeys(MODULES, 0)
        for name_id, (prefix, module, _, stats, _) in enumerate(TRACED):
            sel = name == name_id
            values = {"calls": int(np.count_nonzero(sel)),
                      "points": int(points[sel].sum()),
                      "s": float(dur[sel].sum()),
                      "self_s": float(self_s[sel].sum())}
            for stat in stats:
                out[f"{prefix}.{stat}"] = values[stat]
            if prefix in SPLIT:
                scalar = sel & (points <= SCALAR_MAX)
                batch = sel & (points >= BATCH_MIN)
                n_scalar = int(np.count_nonzero(scalar))
                n_batch_pts = int(points[batch].sum())
                out[f"{prefix}.scalar_us_per_call"] = (
                    1e6 * float(dur[scalar].sum()) / n_scalar if n_scalar else 0.0)
                out[f"{prefix}.batch_ns_per_point"] = (
                    1e9 * float(dur[batch].sum()) / n_batch_pts if n_batch_pts else 0.0)
            errors[module] += int(error[sel].sum())
        refines = out["numerics.brent_root.calls"] + out["numerics.golden_minimize.calls"]
        out["analysis.events_per_refine"] = events / refines if refines else 0.0
        out["emit.bytes"] = emitted_bytes
        for module in MODULES:
            out[f"{module}.errors"] = errors[module]
        return out

    def write(self, path):
        """Write the spans, one JSON array per line:
        [name, start, end, parent index, case id, points, error]."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps([self.names[self.name[i]], self.start[i], self.end[i],
                                     self.parent[i], self.case_ids[self.case[i]],
                                     self.points[i], self.error[i]]) + "\n")
