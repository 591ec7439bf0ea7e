"""CSV, SVG and JSON report emission. Outputs are deterministic byte-for-byte."""

from __future__ import annotations

import itertools
import json
import os

import numpy as np

from .errors import IoError

CSV_HEADER = "t,x,y,alpha,kappa,k"

# rows per call of the cell kernel (`cells.csv_cells`): its temporaries (the
# largest, 1.2 MB of gather indices at 1024 rows) are bounded by the block,
# never by the table
EMIT_BLOCK = 1024


def emit_csv(path, ts, xy, alpha=None, kappa=None, k=None):
    """Write `t,x,y,alpha,kappa,k` rows; NaN cells are left empty.

    Every cell holds the bytes of `"%.17g" % v` (see `cells.csv_cells`).
    """
    # imported on the first CSV, not with the package: compiling the kernel
    # would lengthen the start of every run that finds no cached bytecode
    from .cells import csv_cells

    ts = np.asarray(ts, dtype=float)
    if ts.size == 0:
        raise IoError("refusing to write a CSV with zero samples")
    xy = np.asarray(xy, dtype=float)

    def col(c):
        if c is None:
            return np.full(len(ts), np.nan)
        return np.asarray(c, dtype=float)

    table = np.column_stack([ts, xy, col(alpha), col(kappa), col(k)])
    _write(path, itertools.chain(
        [CSV_HEADER.encode() + b"\n"],
        (csv_cells(table[s:s + EMIT_BLOCK]) for s in range(0, len(table), EMIT_BLOCK))))


def emit_report(path, report_dict):
    """JSON report mirroring the singularity-report field names."""
    _write_text(path, json.dumps(report_dict, indent=2, ensure_ascii=True) + "\n")


def emit_svg(path, curves, cusps=(), vertices=(), inflections=(), legend=()):
    """Standalone SVG: curves as polylines, cusps filled, vertices open,
    inflections as crosses, plus legend text."""
    pts_all = [np.asarray(c["points"], dtype=float) for c in curves]
    for extra in (cusps, vertices, inflections):
        if len(extra):
            pts_all.append(np.asarray(extra, dtype=float).reshape(-1, 2))
    if not pts_all or all(p.size == 0 for p in pts_all):
        raise IoError("refusing to write an SVG with no geometry")
    allpts = np.vstack([p for p in pts_all if p.size])
    lo = allpts.min(axis=0)
    hi = allpts.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    margin = 0.05 * span
    lo -= margin
    hi += margin
    w, h = hi - lo
    diag = float(np.hypot(w, h))
    r = 0.005 * diag
    stroke = 0.003 * diag

    def sx(p):
        return _fmt6(p[0])

    def sy(p):
        # svg y axis points down
        return _fmt6(lo[1] + hi[1] - p[1])

    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_fmt6(lo[0])} {_fmt6(lo[1])} {_fmt6(w)} {_fmt6(h)}">')
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]
    for i, c in enumerate(curves):
        pts = np.asarray(c["points"], dtype=float)
        if pts.size == 0:
            continue
        color = palette[i % len(palette)]
        # x and the flipped y of every point, formatted in one call
        xy = np.column_stack([pts[:, 0], (lo[1] + hi[1]) - pts[:, 1]])
        d = "M " + " L ".join(["%.6g %.6g"] * len(xy)) % tuple(xy.ravel().tolist())
        if c.get("closed"):
            d += " Z"
        out.append(f'<path d="{d}" fill="none" stroke="{color}" '
                   f'stroke-width="{_fmt6(stroke)}"/>')
    for p in np.asarray(cusps, dtype=float).reshape(-1, 2):
        out.append(f'<circle cx="{sx(p)}" cy="{sy(p)}" r="{_fmt6(r)}" '
                   f'fill="#d62728"/>')
    for p in np.asarray(vertices, dtype=float).reshape(-1, 2):
        out.append(f'<circle cx="{sx(p)}" cy="{sy(p)}" r="{_fmt6(r)}" '
                   f'fill="none" stroke="#2ca02c" stroke-width="{_fmt6(stroke)}"/>')
    for p in np.asarray(inflections, dtype=float).reshape(-1, 2):
        out.append(
            f'<path d="M {_fmt6(p[0]-r)} {sy(p)} L {_fmt6(p[0]+r)} {sy(p)} '
            f'M {sx(p)} {_fmt6(float(sy(p))-r)} L {sx(p)} {_fmt6(float(sy(p))+r)}" '
            f'stroke="#9467bd" stroke-width="{_fmt6(stroke)}" fill="none"/>')
    fs = 0.03 * diag
    for i, text in enumerate(legend):
        text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        out.append(
            f'<text x="{_fmt6(lo[0] + 0.02 * w)}" '
            f'y="{_fmt6(lo[1] + (0.05 + 0.05 * i) * h)}" '
            f'font-size="{_fmt6(fs)}" font-family="monospace">{text}</text>')
    out.append("</svg>")
    _write_text(path, "\n".join(out) + "\n")


def _fmt6(x):
    return "%.6g" % float(x)


def _write_text(path, text):
    _write(path, [text.encode("utf-8")])


def _write(path, chunks):
    """Write the bytes of `chunks` to `path`, making its directory."""
    try:
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        with open(path, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
