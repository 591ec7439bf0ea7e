"""Workload definitions: the `normplane run` configs each workload sends.

Seed 0 reproduces the documented case list exactly; any other seed perturbs
the ellipse scale and the offsets `d` inside ranges that keep every case's
exit code and report `counts` unchanged, so one reference serves all seeds.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 0

EUCLID = {"kind": "euclidean"}
LP3 = {"kind": "lp", "p": 3.0}
FOURIER = {"kind": "fourier_radial", "coefficients": [1.0, 0.08]}

# Why each workload exists is recorded in BENCHMARK.json and NOTES.md.
WORKLOADS = ("analyze", "derived", "dense_grid")


class _Params:
    """Seeded geometric parameters; seed 0 gives the documented values.

    Only parameters whose report `counts` were checked to stay unchanged over
    the whole drawn range vary: the ellipse scale (both semi-axes together)
    and the offsets `d`. The expression coefficient, the pedal point and the
    fourier-ellipse involute stay fixed, because their counts change under
    perturbations of 0.001 to 0.01. The euclidean ellipse evolute stays fixed
    too: about one scale in three adds two dip refinements to its cusp search
    and 40 % to its time, so a drawn scale would make a run's time depend on
    its seed (see NOTES.md).
    """

    def __init__(self, seed: int):
        self._rng = None if seed == DEFAULT_SEED else random.Random(seed)

    def _draw(self, base, half_width):
        if self._rng is None:
            return base
        return round(base + self._rng.uniform(-half_width, half_width), 6)

    def ellipse(self):
        s = self._draw(1.0, 0.02)
        return {"kind": "catalog", "name": "ellipse", "a": 2.0 * s, "b": s}

    def d(self, base):
        return self._draw(base, 0.05)


EXPRESSION = {"kind": "expression", "x": "cos(t) + 0.3*cos(2*t)",
              "y": "sin(t) - 0.3*sin(2*t)", "domain": [0.0, 6.283185307179586],
              "closed": True}
SYNTH_FRONT = {"kind": "synthesis", "alpha": "cos(3*t)", "kappa": "1",
               "domain": [0.0, 6.283185307179586]}
FIXED_ELLIPSE = {"kind": "catalog", "name": "ellipse", "a": 2.0, "b": 1.0}
# a scale at which the euclidean evolute's cusp search refines two spurious dips
DIP_ELLIPSE = {"kind": "catalog", "name": "ellipse", "a": 2.001758, "b": 1.000879}
PEDAL_POINT = [0.1, 0.2]


def _catalog(name):
    return {"kind": "catalog", "name": name}


def _case(name, norm, curve, op, samples, expect=0):
    """One run config; `expect` is the exit code the reference must record."""
    return {"name": name, "samples": samples, "expect": expect,
            "config": {"norm": norm, "curve": curve, "operation": op,
                       "output": {"csv": "out.csv", "svg": "out.svg",
                                  "report": "out.json"}}}


def cases(workload: str, seed: int = DEFAULT_SEED) -> list:
    """The ordered case list of one workload for one seed."""
    p = _Params(seed)
    analyze = {"kind": "analyze"}
    if workload == "analyze":
        n = 2048
        return [
            _case("euclid-ellipse", EUCLID, p.ellipse(), analyze, n),
            _case("euclid-cusp", EUCLID, _catalog("cusp_t2t3"), analyze, n),
            _case("euclid-astroid", EUCLID, _catalog("astroid"), analyze, n),
            _case("euclid-expr", EUCLID, EXPRESSION, analyze, n),
            _case("euclid-synth", EUCLID, SYNTH_FRONT, analyze, n),
            _case("lp3-circle", LP3, _catalog("circle"), analyze, n),
            _case("lp3-ellipse", LP3, p.ellipse(), analyze, n),
            _case("lp3-cusp", LP3, _catalog("cusp_t2t3"), analyze, n),
            _case("lp3-expr", LP3, EXPRESSION, analyze, n),
            _case("fourier-circle", FOURIER, _catalog("circle"), analyze, n),
            _case("fourier-ellipse", FOURIER, p.ellipse(), analyze, n),
            _case("fourier-cusp", FOURIER, _catalog("cusp_t2t3"), analyze, n),
            _case("fourier-expr", FOURIER, EXPRESSION, analyze, n),
            _case("fourier-synth", FOURIER, SYNTH_FRONT, analyze, n),
        ]
    if workload == "derived":
        n = 1024
        evo = {"kind": "evolute"}
        return [
            _case("evolute-euclid-ellipse", EUCLID, FIXED_ELLIPSE, evo, n),
            _case("evolute-euclid-ellipse-dip", EUCLID, DIP_ELLIPSE, evo, n),
            _case("evolute-lp3-cusp", LP3, _catalog("cusp_t2t3"), evo, n),
            _case("involute-lp3-cusp", LP3, _catalog("cusp_t2t3"),
                  {"kind": "involute", "d": p.d(0.5)}, n),
            _case("involute-fourier-ellipse", FOURIER, FIXED_ELLIPSE,
                  {"kind": "involute", "d": 0.5}, n),
            _case("pedal-fourier-cusp", FOURIER, _catalog("cusp_t2t3"),
                  {"kind": "pedal", "point": PEDAL_POINT}, n),
            _case("transfer-euclid-ellipse-lp3", EUCLID, p.ellipse(),
                  {"kind": "transfer", "norm": LP3}, n),
            _case("parallel-fourier-ellipse", FOURIER, p.ellipse(),
                  {"kind": "parallel", "d": p.d(0.3)}, n),
            # documented refusals: kappa changes sign / rho vanishes along eta
            _case("refuse-evolute-euclid-expr", EUCLID, EXPRESSION, evo, n,
                  expect=5),
            _case("refuse-involute-lp3-circle", LP3, _catalog("circle"),
                  {"kind": "involute", "d": p.d(0.5)}, n, expect=5),
        ]
    if workload == "dense_grid":
        n = 16384
        return [
            _case("euclid-ellipse", EUCLID, p.ellipse(), analyze, n),
            _case("fourier-ellipse", FOURIER, p.ellipse(), analyze, n),
            _case("lp3-circle", LP3, _catalog("circle"), analyze, n),
            _case("fourier-synth", FOURIER, SYNTH_FRONT, analyze, n),
        ]
    raise KeyError(workload)

