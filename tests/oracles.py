"""Independent geometric oracles that only the tests use: distances between
sampled curves and a cusp classification read off the curve alone."""

import numpy as np

from normplane.plane import symplectic


def point_segment_dist2(points, seg_a, seg_b):
    """Squared distances from each point to the nearest of the given segments."""
    d = seg_b - seg_a                      # (m, 2)
    l2 = np.maximum(np.einsum("ij,ij->i", d, d), 1e-300)
    best = np.full(len(points), np.inf)
    chunk = max(1, 262144 // max(len(d), 1))
    for s in range(0, len(points), chunk):
        p = points[s:s + chunk]
        ap = p[:, None, :] - seg_a[None, :, :]          # (c, m, 2)
        tt = np.clip(np.einsum("cmj,mj->cm", ap, d) / l2, 0.0, 1.0)
        diff = ap - tt[..., None] * d[None, :, :]
        best[s:s + chunk] = np.min(np.einsum("cmj,cmj->cm", diff, diff), axis=1)
    return best


def hausdorff_polyline(pts_a, pts_b, closed_a=False, closed_b=False):
    """Symmetric Hausdorff distance between two sampled curves.

    Point-to-polyline distances are used on both sides so the result measures
    geometric deviation rather than sampling phase.
    """
    pts_a = np.asarray(pts_a, dtype=float)
    pts_b = np.asarray(pts_b, dtype=float)

    def segs(p, closed):
        if closed:
            return p, np.roll(p, -1, axis=0)
        return p[:-1], p[1:]

    a0, a1 = segs(pts_a, closed_a)
    b0, b1 = segs(pts_b, closed_b)
    d_ab = np.sqrt(np.max(point_segment_dist2(pts_a, b0, b1)))
    d_ba = np.sqrt(np.max(point_segment_dist2(pts_b, a0, a1)))
    return max(d_ab, d_ba)


def lateral_tangent_sign(L, t0, offset=1e-3):
    """Independent cusp classification from [gamma'(t0-offset), gamma'(t0+offset)];
    negative means zig."""
    w1 = L.gamma.derivative(t0 - offset, 1)
    w2 = L.gamma.derivative(t0 + offset, 1)
    return "zig" if float(symplectic(w1, w2)) < 0.0 else "zag"
