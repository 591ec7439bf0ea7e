import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import warnings
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from normplane.cli import main
from normplane.emit import emit_csv, emit_svg
from normplane.errors import IoError

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(HERE, os.pardir, "configs")


def _cfg(name):
    return os.path.join(CONFIGS, name)


def _run(tmp_path, name, extra=()):
    return main(["run", _cfg(name), "--out", str(tmp_path), *extra])


def test_circle_analyze(tmp_path):
    assert _run(tmp_path, "circle_analyze.json") == 0
    rows = np.genfromtxt(tmp_path / "out" / "circle.csv", delimiter=",", names=True)
    assert np.max(np.abs(rows["alpha"] - 1.0)) < 1e-7
    assert np.max(np.abs(rows["kappa"] - 1.0)) < 1e-7
    assert np.max(np.abs(rows["k"] - 1.0)) < 1e-7
    report = json.loads((tmp_path / "out" / "circle.json").read_text())
    assert list(report.keys()) == ["cusps", "inflections", "vertices", "maslov",
                                   "counts", "is_front", "is_immersion"]


def test_import_and_catalog_run_do_not_load_scipy(tmp_path):
    # a fresh interpreter, which cannot import scipy (this one has loaded it
    # for other tests): a catalog run and a synthesized run both exit 0
    script = (
        "import sys\n"
        "class NoScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'scipy' or name.startswith('scipy.'):\n"
        "            raise ImportError('scipy is blocked: ' + name)\n"
        "sys.meta_path.insert(0, NoScipy())\n"
        "from normplane import cli\n"
        f"for config in {[_cfg('circle_analyze.json'), _cfg('synth_front_analyze.json')]!r}:\n"
        f"    assert cli.main(['run', config, '--out', {str(tmp_path)!r}]) == 0, config\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(HERE, os.pardir, "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "[]"


def test_expression_analyze(tmp_path):
    # the shipped expression config: a closed regular curve given by text
    assert _run(tmp_path, "expression_analyze.json") == 0
    rows = np.genfromtxt(tmp_path / "out" / "expression.csv", delimiter=",", names=True)
    t = rows["t"]
    assert np.max(np.abs(rows["x"] - (np.cos(t) + 0.3 * np.cos(2.0 * t)))) < 1e-12
    assert np.max(np.abs(rows["y"] - (np.sin(t) - 0.3 * np.sin(2.0 * t)))) < 1e-12
    assert np.min(rows["alpha"]) > 0.0
    report = json.loads((tmp_path / "out" / "expression.json").read_text())
    assert report["cusps"] == [] and report["is_front"]


def test_astroid_report_contents(tmp_path):
    assert _run(tmp_path, "astroid_analyze.json") == 0
    report = json.loads((tmp_path / "out" / "astroid.json").read_text())
    ts = sorted(c["t"] for c in report["cusps"])
    want = [0.0, np.pi / 2.0, np.pi, 3.0 * np.pi / 2.0]
    assert len(ts) == 4
    assert max(abs(a - b) for a, b in zip(ts, want)) < 1e-9
    assert all(c["type"] == "zag" for c in report["cusps"])
    assert report["maslov"] == {"word_reduction": 0, "flip_flop": 0, "rotation": 0}


def test_determinism_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert _run(out, "astroid_analyze.json") == 0
        assert _run(out, "circle_analyze.json") == 0
    for rel in (("out", "astroid.csv"), ("out", "astroid.json"),
                ("out", "astroid.svg"), ("out", "circle.csv"),
                ("out", "circle.json")):
        assert (a.joinpath(*rel)).read_bytes() == (b.joinpath(*rel)).read_bytes()


def test_exit_code_l1_rejection(tmp_path, capsys):
    assert _run(tmp_path, "l1_reject.json") == 3
    assert "convex" in capsys.readouterr().err


def test_exit_code_vanishing_kappa_evolute(tmp_path):
    assert _run(tmp_path, "evolute_kappa_refusal.json") == 5


def test_exit_code_bad_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 2


def test_exit_code_bad_expression(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "norm": {"kind": "euclidean"},
        "curve": {"kind": "expression", "x": "cos(t", "y": "sin(t)",
                  "domain": [0.0, 6.283185307179586], "closed": True},
        "operation": {"kind": "analyze"},
        "output": {},
    }))
    assert main(["run", str(cfg)]) == 2


def test_exit_code_unknown_catalog(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "norm": {"kind": "euclidean"},
        "curve": {"kind": "catalog", "name": "lemniscate"},
        "operation": {"kind": "analyze"},
        "output": {},
    }))
    assert main(["run", str(cfg)]) == 2


def test_expression_curve_runs(tmp_path):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "res.json"
    cfg.write_text(json.dumps({
        "norm": {"kind": "euclidean"},
        "curve": {"kind": "expression", "x": "cos(t)^3", "y": "sin(t)^3",
                  "domain": [0.0, 6.283185307179586], "closed": True,
                  "samples": 1024},
        "operation": {"kind": "analyze"},
        "output": {"report": str(out)},
    }))
    assert main(["run", str(cfg)]) == 0
    report = json.loads(out.read_text())
    assert len(report["cusps"]) == 4


def test_synthesis_curve_runs(tmp_path):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "res.json"
    cfg.write_text(json.dumps({
        "norm": {"kind": "euclidean"},
        "curve": {"kind": "synthesis", "alpha": "1", "kappa": "1",
                  "gamma0": [1.0, 0.0], "eta0_angle": 0.0,
                  "domain": [0.0, 6.283185307179586], "samples": 1024},
        "operation": {"kind": "analyze"},
        "output": {"report": str(out)},
    }))
    assert main(["run", str(cfg)]) == 0
    report = json.loads(out.read_text())
    assert report["counts"]["all_vertices"] is True


def test_csv_round_trip_reproduces_curvature(tmp_path):
    first = tmp_path / "first"
    assert _run(first, "circle_analyze.json", ("--samples", "512")) == 0
    csv_path = first / "out" / "circle.csv"
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "round.csv"
    cfg.write_text(json.dumps({
        "norm": {"kind": "euclidean"},
        "curve": {"kind": "csv", "path": str(csv_path), "closed": True,
                  "samples": 512},
        "operation": {"kind": "analyze"},
        "output": {"csv": str(out)},
    }))
    assert main(["run", str(cfg)]) == 0
    rows = np.genfromtxt(out, delimiter=",", names=True)
    sl = slice(4, -4)
    assert np.max(np.abs(rows["alpha"][sl] - 1.0)) < 1e-4
    assert np.max(np.abs(rows["kappa"][sl] - 1.0)) < 1e-4


def _circle_rows(ts):
    return "".join(f"{t},{np.cos(t)},{np.sin(t)}\n" for t in ts)


_T16 = np.linspace(0.0, 6.0, 16)


@pytest.mark.parametrize("text, message", [
    ("", "needs a header row over rows of as many cells"),
    ("t,x,y\n" + _circle_rows(_T16[::-1]), "column 't' does not increase strictly"),
    ("t,x,y\n" + _circle_rows(np.concatenate([_T16[:5], _T16[4:]])),
     "column 't' does not increase strictly"),
    ("t,x,y\n" + _circle_rows(_T16[:3]) + "0.9,abc,0.5\n" + _circle_rows(_T16[4:]),
     "holds a t, x or y cell that is not a finite number"),
    ("t,x,y\n" + _circle_rows(_T16[:3]) + "0.9,0.5\n" + _circle_rows(_T16[4:]),
     "needs a header row over rows of as many cells"),
    ("t,x,y\n" + _circle_rows(_T16[:1]), "needs at least 8 samples"),
], ids=["empty", "descending", "repeated", "non-numeric", "short-row", "one-row"])
@pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
def test_malformed_csv_curves_exit_2_naming_the_file(tmp_path, capsys, text, message, closed):
    # each used to end in a traceback from numpy or scipy
    path = tmp_path / "curve.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = _exit_and_stderr(tmp_path, capsys, {
            "curve": {"kind": "csv", "path": str(path), "closed": closed}})
    assert code == 2 and err.count("\n") == 1
    assert err.startswith(f"config error: csv {path} {message}")


def test_a_closed_csv_curve_must_increase_up_to_its_closing_value(tmp_path, capsys):
    # uneven steps can put the period that the first step implies below the last row
    path = tmp_path / "curve.csv"
    ts = np.concatenate([[0.0], 0.5 + _T16[1:] ** 2])
    path.write_text("t,x,y\n" + _circle_rows(ts))
    code, err = _exit_and_stderr(tmp_path, capsys, {
        "curve": {"kind": "csv", "path": str(path), "closed": True}})
    assert (code, err) == (2, f"config error: csv {path} column 't' does not increase "
                              f"strictly up to its closing value {ts[1] * 16:g}\n")


def test_maslov_operation(tmp_path):
    out = tmp_path / "maslov.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "norm": {"kind": "euclidean"},
        "curve": {"kind": "catalog", "name": "astroid"},
        "operation": {"kind": "maslov"},
        "output": {"report": str(out)},
    }))
    assert main(["run", str(cfg)]) == 0
    rep = json.loads(out.read_text())
    assert rep["maslov"] == {"word_reduction": 0, "flip_flop": 0, "rotation": 0}


@pytest.mark.parametrize("curve, marker", [
    ({"kind": "synthesis", "alpha": "cos(t)^2", "kappa": "1"}, "not generic"),
    ({"kind": "catalog", "name": "cusp_t2t3"}, "needs a closed front"),
], ids=["degenerate-closed-front", "open-curve"])
def test_maslov_refusal_runs_the_detectors_once(tmp_path, capsys, monkeypatch,
                                                curve, marker):
    from normplane import analysis

    calls = []
    detect = analysis._detect_cusps
    monkeypatch.setattr(analysis, "_detect_cusps",
                        lambda cp: calls.append(cp) or detect(cp))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "norm": {"kind": "euclidean"},
        "curve": curve,
        "operation": {"kind": "maslov"},
        "output": {"report": str(tmp_path / "maslov.json")},
    }))
    assert main(["run", str(cfg)]) == 5
    assert marker in capsys.readouterr().err
    assert len(calls) == 1


def test_parallel_and_involute_operations(tmp_path):
    for kind, d, n_cusps in (("parallel", 0.3, 4), ("involute", 0.5, 1)):
        out = tmp_path / f"{kind}.json"
        cfg = tmp_path / f"{kind}_cfg.json"
        name = "astroid" if kind == "parallel" else "circle"
        cfg.write_text(json.dumps({
            "norm": {"kind": "euclidean"},
            "curve": {"kind": "catalog", "name": name},
            "operation": {"kind": kind, "d": d},
            "output": {"report": str(out)},
        }))
        assert main(["run", str(cfg)]) == 0
        rep = json.loads(out.read_text())
        assert len(rep["cusps"]) == n_cusps


def test_contact_operation(tmp_path):
    out = tmp_path / "contact.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "norm": {"kind": "euclidean"},
        "curve": {"kind": "catalog", "name": "circle"},
        "operation": {"kind": "contact",
                      "curve2": {"kind": "catalog", "name": "circle"},
                      "t0": 0.25, "u0": 0.25, "kmax": 4},
        "output": {"report": str(out)},
    }))
    assert main(["run", str(cfg)]) == 0
    rep = json.loads(out.read_text())
    assert rep["contact_order"] == 4


def test_transfer_operation(tmp_path):
    out = tmp_path / "transfer.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "norm": {"kind": "euclidean"},
        "curve": {"kind": "catalog", "name": "astroid"},
        "operation": {"kind": "transfer", "norm": {"kind": "lp", "p": 3.0}},
        "output": {"report": str(out)},
    }))
    assert main(["run", str(cfg)]) == 0
    rep = json.loads(out.read_text())
    assert len(rep["cusps"]) == 4


def test_pedal_config_matches_shipped(tmp_path):
    assert _run(tmp_path, "l3_circle_pedal.json") == 0
    rep = json.loads((tmp_path / "out" / "l3_pedal.json").read_text())
    assert rep["frontal_claimed"] is False  # (0, 1) lies on the circle
    svg = (tmp_path / "out" / "l3_pedal.svg").read_text()
    assert svg.count("<svg") == 1 and "viewBox" in svg


def test_lp3_cusp_evolute_config_bisects_and_evaluates_distinct_points(tmp_path, monkeypatch):
    # the shipped config that CI byte-compares for both shortcuts: lp3 flat
    # points take the bisection fallback, and the evolute's nested stencils
    # repeat parameters
    from normplane import numerics, plane

    seen = {"bisect": 0, "repeats": 0}
    bisect, distinct = plane.NormedPlane._bisect_cell, numerics._distinct_call

    def counted_bisect(self, *args):
        seen["bisect"] += 1
        return bisect(self, *args)

    def counted_distinct(f, pts):
        seen["repeats"] += np.unique(pts.view(np.int64)).size < pts.size
        return distinct(f, pts)

    monkeypatch.setattr(plane.NormedPlane, "_bisect_cell", counted_bisect)
    monkeypatch.setattr(numerics, "_distinct_call", counted_distinct)
    assert _run(tmp_path, "evolute_lp3_cusp.json") == 0
    assert seen["bisect"] > 0 and seen["repeats"] > 0
    rep = json.loads((tmp_path / "out" / "evolute_lp3_cusp.json").read_text())
    assert rep["counts"]["vertices"] == 1 and rep["is_front"]


def test_csv_format_and_masking(tmp_path):
    path = tmp_path / "x.csv"
    ts = np.array([0.0, 1.0])
    xy = np.array([[1.0, 2.0], [3.0, 4.0]])
    emit_csv(path, ts, xy, alpha=np.array([1.0, 2.0]),
             kappa=np.array([0.5, 0.25]), k=np.array([np.nan, 0.125]))
    text = path.read_text()
    lines = text.split("\n")
    assert lines[0] == "t,x,y,alpha,kappa,k"
    assert lines[1].endswith(",")          # masked k cell is empty
    assert "\r" not in text
    with pytest.raises(IoError):
        emit_csv(tmp_path / "empty.csv", np.array([]), np.zeros((0, 2)))


def _hard_cells(rng):
    """Cells the CSV kernel finds hard, each in every column of some row."""
    decades = np.array([float(f"1e{k}") for k in range(-324, 309)])
    switches = np.array([1e-5, 1e-4, 1e16, 1e17])
    values = np.concatenate([
        # random 64-bit patterns, subnormals and magnitudes beyond 1e280
        rng.integers(0, 2 ** 64, 600, dtype=np.uint64).view(np.float64),
        rng.integers(1, 2 ** 52, 60, dtype=np.uint64).view(np.float64),
        rng.uniform(1.0, 10.0, 60) * 10.0 ** rng.integers(280, 308, 60),
        # every decade and the %g switch points with both float neighbours;
        # 14 of the decades lie just below their power of ten and round up to it
        *(np.nextafter(v, w) for v in (decades, switches) for w in (-np.inf, np.inf)),
        decades, switches,
        # 9.99999999999999999e-300 and its kind, 20 of which print as a power of ten
        [float(f"9.99999999999999999{d}e{k}") for d in (5, 9) for k in range(-300, 300, 23)],
        # exact 18-digit ties such as 2^-25 = 2.98023223876953125e-08, half to even
        [m * 2.0 ** -e for e in range(20, 60, 3) for m in range(1, 400, 2)
         if len(str(m * 5 ** e)) == 18],
        [0.0, np.inf, np.nan]])
    values = np.concatenate([values, -values])
    return np.stack([np.roll(values, j) for j in range(6)], axis=1)


def test_csv_rows_match_a_cell_by_cell_reference(tmp_path):
    # every finiteness pattern of the alpha, kappa, k cells, each cell as
    # "%.17g" or, when not finite, empty; then the kernel's hard cells
    rng = np.random.default_rng(3)
    n = 400
    ts = np.linspace(-1.0, 1.0, n)
    xy = rng.normal(size=(n, 2)) * 10.0 ** rng.integers(-300, 300, (n, 2))
    xy[7] = (np.nan, -0.0)
    fields = rng.normal(size=(3, n)) * 10.0 ** rng.integers(-300, 300, (3, n))
    bad = rng.random((3, n)) < 0.3
    fields[bad] = rng.choice([np.nan, np.inf, -np.inf], int(bad.sum()))
    fields[:, 0] = -0.0
    hard = _hard_cells(rng)
    ts = np.concatenate([ts, hard[:, 0]])
    xy = np.concatenate([xy, hard[:, 1:3]])
    fields = np.concatenate([fields, hard[:, 3:].T], axis=1)
    n = len(ts)
    emit_csv(tmp_path / "x.csv", ts, xy, *fields)

    def cell(v):
        return "%.17g" % v if np.isfinite(v) else ""

    want = ["t,x,y,alpha,kappa,k"] + [
        ",".join(["%.17g" % v for v in (ts[i], *xy[i])] + [cell(v) for v in fields[:, i]])
        for i in range(n)]
    assert (tmp_path / "x.csv").read_text() == "\n".join(want) + "\n"
    assert {tuple(np.isfinite(fields[:, i])) for i in range(n)} == {
        (a, b, c) for a in (False, True) for b in (False, True) for c in (False, True)}


def _cell_reference(row):
    return ",".join(["%.17g" % v for v in row[:3]]
                    + ["%.17g" % v if np.isfinite(v) else "" for v in row[3:]]) + "\n"


@given(st.lists(st.floats(), min_size=6, max_size=6))
@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_a_csv_row_holds_each_cell_as_percent_17g(tmp_path, row):
    emit_csv(tmp_path / "x.csv", row[:1], [row[1:3]], *([v] for v in row[3:]))
    assert (tmp_path / "x.csv").read_text() == "t,x,y,alpha,kappa,k\n" + _cell_reference(row)


@pytest.mark.parametrize("n", [1, 1025, 2049])
def test_csv_blocks_of_hard_cells_match_a_per_row_reference(tmp_path, n):
    # the kernel formats a block of rows at once, and its fallback cells
    # fall on both sides of the block boundaries
    rng = np.random.default_rng(n)
    table = rng.permutation(_hard_cells(rng))[:n]
    emit_csv(tmp_path / "x.csv", table[:, 0], table[:, 1:3], *table[:, 3:].T)
    assert (tmp_path / "x.csv").read_text() == "t,x,y,alpha,kappa,k\n" + "".join(
        map(_cell_reference, table))


def test_svg_legend_text_is_escaped(tmp_path, capsys):
    # a CSV curve's file name is drawn in the legend
    path = tmp_path / "a&b<c>.csv"
    path.write_text("t,x,y\n" + _circle_rows(np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)))
    assert _exit_and_stderr(tmp_path, capsys, {
        "curve": {"kind": "csv", "path": str(path), "closed": True, "samples": 64},
        "output": {"svg": "fig.svg"}}) == (0, "")
    texts = ElementTree.parse(tmp_path / "fig.svg").iter("{http://www.w3.org/2000/svg}text")
    assert "curve: csv:a&b<c>.csv" in [t.text for t in texts]


@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 16384])
def test_csv_and_svg_paths_match_a_per_row_reference(tmp_path, n):
    # emit formats by the block; the reference formats one row (one point) at a time
    rng = np.random.default_rng(n)
    ts = np.linspace(0.0, 1.0, n)
    xy = rng.normal(size=(n, 2)) * 10.0 ** rng.integers(-5, 5, (n, 2))
    xy[0, 1] = -0.0
    fields = rng.normal(size=(3, n))
    bad = rng.random((3, n)) < 0.2
    fields[bad] = rng.choice([np.nan, np.inf, -np.inf], int(bad.sum()))
    emit_csv(tmp_path / "x.csv", ts, xy, *fields)
    rows = ["t,x,y,alpha,kappa,k"]
    for i in range(n):
        cells = ["%.17g" % v for v in (ts[i], *xy[i])]
        cells += ["%.17g" % v if np.isfinite(v) else "" for v in fields[:, i]]
        rows.append(",".join(cells))
    assert (tmp_path / "x.csv").read_text() == "\n".join(rows) + "\n"

    # the wider curve sets the view box; y is flipped about its centre
    curves = [{"points": xy, "closed": True}, {"points": 3.0 * xy[::-1]}]
    emit_svg(tmp_path / "x.svg", curves)
    allpts = np.vstack([xy, 3.0 * xy])
    lo, hi = allpts.min(axis=0), allpts.max(axis=0)
    margin = 0.05 * np.maximum(hi - lo, 1e-9)
    lo, hi = lo - margin, hi + margin
    paths = ["M " + " L ".join("%.6g %.6g" % (p[0], lo[1] + hi[1] - p[1]) for p in c["points"])
             for c in curves]
    svg = (tmp_path / "x.svg").read_text()
    assert [line.split('"')[1] for line in svg.split("\n") if line.startswith("<path")] == [
        paths[0] + " Z", paths[1]]


def test_svg_structure(tmp_path):
    path = tmp_path / "fig.svg"
    ts = np.linspace(0.0, 2.0 * np.pi, 100)
    pts = np.stack([np.cos(ts), np.sin(ts)], -1)
    emit_svg(path, [{"points": pts, "closed": True}],
             cusps=pts[:2], vertices=pts[2:3], inflections=pts[3:4],
             legend=["demo"])
    svg = path.read_text()
    assert svg.count("<svg") == 1
    assert "viewBox" in svg and "demo" in svg
    assert svg.count("<circle") == 3
    with pytest.raises(IoError):
        emit_svg(tmp_path / "none.svg", [])


@pytest.mark.parametrize("norm", [{"kind": "lp", "p": 3.0},
                                  {"kind": "fourier_radial",
                                   "coefficients": [1.0, 0.08]}])
def test_astroid_analyze_non_euclidean(tmp_path, norm):
    # the catalog's closed-form astroid normal is unit only in the euclidean
    # norm; other norms take the induced normal extended through the cusps
    out = tmp_path / "astroid.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "norm": norm,
        "curve": {"kind": "catalog", "name": "astroid"},
        "operation": {"kind": "analyze"},
        "output": {"report": str(out)},
    }))
    assert main(["run", str(cfg)]) == 0
    assert json.loads(out.read_text())["counts"]["cusps"] == 4


_CIRCLE = {"kind": "catalog", "name": "circle"}
_CIRCLE_64 = {**_CIRCLE, "samples": 64}
# sizes that numpy refuses before it allocates anything: each array would
# take petabytes. _INDEX_BOUND is the largest `samples` or `grid` whose
# arrays of 256 bytes a point numpy can still index
_HUGE = 10 ** 15
_INDEX_BOUND = np.iinfo(np.intp).max // 256


@pytest.mark.parametrize("config, extra, marker", [
    ({"norm": {"kind": "lp", "p": "abc"}}, (), "config error:"),
    ([], (), "config error:"),
    ({"curve": {"kind": "expression", "x": "cos(t)", "y": "sin(t)",
                "domain": [0.0]}}, (), "config error:"),
    ({"curve": {**_CIRCLE, "samples": 0}}, (), "config error:"),
    ({"curve": {**_CIRCLE, "samples": 1}}, (), "config error:"),
    ({"curve": {**_CIRCLE, "samples": "x"}}, (), "config error:"),
    ({"curve": {**_CIRCLE, "samples": 512.5}}, (), "config error:"),
    ({"curve": _CIRCLE}, ("--samples", "0"), "config error:"),
    ({"curve": _CIRCLE}, ("--samples", "1"), "config error:"),
    ({"curve": _CIRCLE}, ("--samples", "x"), "invalid int value"),
    ({"curve": "circle"}, (), "config error:"),
    ({"curve": _CIRCLE, "operation": "analyze"}, (), "config error:"),
    ({"curve": _CIRCLE, "output": "out.json"}, (), "config error:"),
    ({"norm": {"kind": "fourier_radial", "coefficients": ["a", 0.08]}}, (),
     "config error:"),
    ({"norm": {"kind": "fourier_radial", "coefficients": 1.0}}, (),
     "config error:"),
    ({"curve": {"kind": "expression", "x": "sqrt(t)", "y": "t",
                "domain": [-1.0, 1.0]}}, (), "config error: expression domain error"),
    ({"curve": _CIRCLE_64, "operation": {"kind": "parallel", "d": "abc"}}, (),
     "config error: 'd'"),
    ({"curve": _CIRCLE_64, "operation": {"kind": "parallel", "d": None}}, (),
     "config error: 'd'"),
    ({"curve": _CIRCLE_64, "operation": {"kind": "pedal", "point": "ab"}}, (),
     "config error: 'point'"),
    ({"curve": _CIRCLE_64, "operation": {"kind": "contact", "curve2": _CIRCLE_64,
                                         "kmax": "x"}}, (), "config error: 'kmax'"),
    ({"curve": _CIRCLE_64, "operation": {"kind": "contact", "curve2": _CIRCLE_64,
                                         "t0": None}}, (), "config error: 't0'"),
    ({"curve": {"kind": "catalog", "name": "ellipse", "a": "x"}}, (),
     "config error: 'a'"),
    ({"curve": {"kind": "expression", "x": 3, "y": "t", "domain": [0.0, 1.0]}}, (),
     "config error: 'x'"),
    ({"curve": {"kind": "synthesis", "alpha": "1", "kappa": "1", "gamma0": [1]}}, (),
     "config error: 'gamma0'"),
    ({"curve": {"kind": "synthesis", "alpha": "1", "kappa": "1", "eta0_angle": "x"}},
     (), "config error: 'eta0_angle'"),
    ({"curve": _CIRCLE_64, "output": {"csv": 3}}, (), "config error: 'csv'"),
    ({"curve": _CIRCLE_64, "operation": {"kind": "pedal", "point": [1]}}, (),
     "config error: 'point'"),
    ({"curve": {"kind": "expression", "x": "cos(t)", "y": "sin(t)",
                "domain": [0.0, 6.283185307179586], "closed": "no"}}, (),
     "config error: 'closed'"),
    ({"curve": {**_CIRCLE, "sampels": 512}}, (), "config error: unknown key 'sampels'"),
    ({"curve": _CIRCLE_64, "outputs": {}}, (), "config error: unknown key 'outputs'"),
    ({"norm": {"kind": "lp", "P": 3.0}}, (), "config error: unknown key 'P'"),
    ({"curve": {**_CIRCLE_64, "radius": 2.0}}, (), "config error: unknown key 'radius'"),
    ({"curve": _CIRCLE_64, "operation": {"kind": "parallel", "dist": 0.3}}, (),
     "config error: unknown key 'dist'"),
    ({"curve": _CIRCLE_64, "output": {"png": "out.png"}}, (),
     "config error: unknown key 'png'"),
    ({"norm": {"kind": 3}}, (), "config error: 'kind'"),
    ({"curve": _CIRCLE_64, "operation": {"kind": "parallel", "d": float("nan")}}, (),
     "config error: 'd'"),
    ({"curve": {**_CIRCLE_64, "a": 3.0, "b": 0.5}}, (),
     "config error: catalog curve 'circle' takes no 'a'"),
    *(({"curve": {"kind": "catalog", "name": name, "b": 0.5}}, (),
       f"config error: catalog curve {name!r} takes no 'b'")
      for name in ("astroid", "cusp_t2t3", "unit_circle_of_norm")),
    # sizes whose arrays numpy cannot index (it refuses them before allocating)
    ({"curve": {**_CIRCLE, "samples": 2 ** 62}}, (),
     "config error: 'samples' is too large: numpy cannot index its arrays"),
    ({"norm": {"kind": "euclidean", "grid": 2 ** 62}, "curve": _CIRCLE_64}, (),
     "config error: 'grid' is too large: numpy cannot index its arrays"),
    ({"curve": _CIRCLE_64}, ("--samples", str(2 ** 63)),
     "config error: 'samples' is too large: numpy cannot index its arrays"),
    ({"curve": {"kind": "synthesis", "alpha": "1", "kappa": "1", "samples": 2 ** 59}}, (),
     "config error: 'samples' is too large: numpy cannot index its arrays"),
    # one past the largest size `cli._indexable` lets through (see _INDEX_BOUND)
    ({"curve": {**_CIRCLE, "samples": _INDEX_BOUND + 1}}, (),
     "config error: 'samples' is too large: numpy cannot index its arrays"),
    ({"norm": {"kind": "euclidean", "grid": _INDEX_BOUND + 1}, "curve": _CIRCLE_64}, (),
     "config error: 'grid' is too large: numpy cannot index its arrays"),
    # a literal whose float overflows, and expressions nested past the parser's bound
    ({"curve": {"kind": "expression", "x": "cos(t) + 1e999", "y": "sin(t)",
                "domain": [0.0, 6.283185307179586], "closed": True}}, (),
     "config error: number too large at offset 9"),
    ({"curve": {"kind": "synthesis", "alpha": "1e999", "kappa": "1"}}, (),
     "config error: number too large at offset 0"),
    ({"curve": {"kind": "expression", "x": "(" * 1000 + "t" + ")" * 1000, "y": "t",
                "domain": [0.0, 1.0]}}, (), "config error: expression is too deep to parse"),
    ({"curve": {"kind": "expression", "x": "-" * 598 + "t", "y": "t",
                "domain": [0.0, 1.0]}}, (), "config error: expression is too deep to parse"),
], ids=["p-not-a-number", "top-level-list", "one-element-domain",
        "samples-zero", "samples-one", "samples-not-a-number",
        "samples-not-an-integer", "samples-flag-zero", "samples-flag-one",
        "samples-flag-not-a-number", "curve-not-an-object",
        "operation-not-an-object", "output-not-an-object",
        "coefficients-not-numbers", "coefficients-not-a-list",
        "expression-outside-its-domain", "offset-not-a-number", "offset-null",
        "pedal-point-text", "kmax-not-a-number", "t0-null", "catalog-a-text",
        "expression-x-number", "gamma0-one-number", "eta0-angle-text",
        "output-path-number", "pedal-point-one-number", "closed-text",
        "samples-typo", "unknown-top-level-key", "unknown-norm-key",
        "unknown-curve-key", "unknown-operation-key", "unknown-output-key",
        "norm-kind-number", "offset-nan", "circle-semi-axes", "astroid-semi-axis",
        "cusp-semi-axis", "unit-circle-semi-axis", "samples-beyond-index",
        "grid-beyond-index", "samples-flag-beyond-int64", "synthesis-steps-beyond-index",
        "samples-past-index-bound", "grid-past-index-bound",
        "literal-overflows", "synthesis-literal-overflows", "nested-parentheses-1000",
        "minus-signs-598"])
def test_malformed_config_exits_2(tmp_path, capsys, config, extra, marker):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    try:
        code = main(["run", str(cfg), "--out", str(tmp_path), *extra])
    except SystemExit as exc:       # argparse rejects a non-integer flag
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert marker in err
    assert "Traceback" not in err


def test_unwritable_output_exits_5(tmp_path, capsys):
    # the report's directory would have to be made under a regular file
    (tmp_path / "blocker").write_text("")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"curve": {**_CIRCLE, "samples": 64},
                               "output": {"report": "blocker/out.json"}}))
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 5
    err = capsys.readouterr().err
    assert "io error:" in err
    assert "Traceback" not in err


# the exit code and stderr label of every error class
_EXITS = {
    (2, "config error"): {"InputError", "ConfigError", "ParseError",
                          "ExpressionDomainError"},
    (3, "validation error"): {"ValidationError", "PlaneValidationError",
                              "ConvexityViolation", "PositivityViolation",
                              "BadParameter", "ResidualViolation", "LimitsDisagree"},
    (4, "numerical error"): {"NumericalError", "NoConvergence", "MethodsDisagree",
                             "DegenerateFrame"},
    (5, "precondition error"): {"PreconditionError", "KappaVanishes", "RhoDegenerate",
                                "NotAFront", "NotClosed", "PreconditionViolated",
                                "SingularPoint", "NotUnit",
                                "ZeroVector", "OutOfDomain", "NotAnIsometry"},
    (5, "io error"): {"IoError"},
    (4, "error"): {"GeometryError"},
}


def test_every_error_class_keeps_its_exit_code_and_label(tmp_path, capsys, monkeypatch):
    from normplane import cli
    from normplane.errors import GeometryError, ParseError

    classes, todo = [], [GeometryError]
    while todo:
        cls = todo.pop()
        classes.append(cls)
        todo.extend(cls.__subclasses__())
    want = {name: code for code, names in _EXITS.items() for name in names}
    assert sorted(c.__name__ for c in classes) == sorted(want)
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    for cls in classes:
        exc = cls("boom", 0) if issubclass(cls, ParseError) else cls("boom")

        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "run", fail)
        code, label = want[cls.__name__]
        assert (cls.exit_code, cls.label) == (code, label)
        assert main(["run", str(cfg)]) == code
        assert capsys.readouterr().err == f"{label}: boom\n"


def test_lp_below_two_circle_analyze(tmp_path):
    # p < 2: the plane tables take the seam node from theta = 0, and the
    # axis directions, where psi outruns float theta, invert without error
    out = tmp_path / "circle.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "norm": {"kind": "lp", "p": 1.5},
        "curve": _CIRCLE,
        "operation": {"kind": "analyze"},
        "output": {"report": str(out)},
    }))
    assert main(["run", str(cfg)]) == 0
    assert json.loads(out.read_text())["counts"]["cusps"] == 0


_SMOKE_NORMS = {"euclidean": {"kind": "euclidean"}, "lp3": {"kind": "lp", "p": 3.0},
                "fourier": {"kind": "fourier_radial", "coefficients": [1.0, 0.08]}}
_SMOKE_OPERATIONS = {"analyze": {"kind": "analyze"}, "evolute": {"kind": "evolute"},
                     "involute": {"kind": "involute", "d": 0.5},
                     "pedal": {"kind": "pedal", "point": [0.1, 0.2]},
                     "parallel": {"kind": "parallel", "d": 0.3}}


@pytest.mark.parametrize("operation", list(_SMOKE_OPERATIONS))
@pytest.mark.parametrize("curve", ["circle", "ellipse", "astroid", "cusp_t2t3",
                                   "unit_circle_of_norm"])
@pytest.mark.parametrize("norm", list(_SMOKE_NORMS))
def test_catalog_smoke_matrix_exits_with_a_documented_code(tmp_path, norm, curve, operation):
    # a coarse grid may refuse an input, but only with a documented exit code
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "norm": _SMOKE_NORMS[norm],
        "curve": {"kind": "catalog", "name": curve},
        "operation": _SMOKE_OPERATIONS[operation],
        "output": {"csv": "out.csv", "svg": "out.svg", "report": "out.json"},
    }))
    assert main(["run", str(cfg), "--out", str(tmp_path), "--samples", "16"]) in (0, 2, 3, 4, 5)


def test_corner_reject_config_exits_3(tmp_path, capsys):
    assert _run(tmp_path, "corner_reject.json") == 3
    assert "jumps" in capsys.readouterr().err


def test_thin_ellipse_config_builds(tmp_path):
    # a 20:1 ellipse on 64 samples turns its tangent line at each tip within
    # about one chord; it is smooth, so it is not refused as a corner
    assert _run(tmp_path, "thin_ellipse_analyze.json") == 0


def test_cusp_between_nodes_config_builds(tmp_path):
    # the cusp of ((t - 1/16)^2, 0.2 (t - 1/16)^3) lies midway between two
    # nodes of the 17-sample grid that move faster than 5 % of the top speed;
    # gamma' reverses across their chord, so it is found and the normal flips
    assert _run(tmp_path, "cusp_between_nodes_analyze.json") == 0
    report = json.loads((tmp_path / "out" / "cusp_between_nodes.json").read_text())
    assert report["counts"]["cusps"] == 1
    assert abs(report["cusps"][0]["t"] - 0.0625) < 1e-12


_ELLIPSE = {"kind": "catalog", "name": "ellipse", "a": 2.0, "b": 1.0}
_SYNTH = {"kind": "synthesis", "alpha": "cos(3*t)", "kappa": "1",
          "domain": [0.0, 6.283185307179586]}
_HUGE_P = {"kind": "lp", "p": 1e300}


@pytest.mark.parametrize("config", [
    "huge_domain_reject.json",
    "huge_p_reject.json",
    {"norm": _HUGE_P, "curve": {"kind": "catalog", "name": "circle"}},
    {"norm": _HUGE_P, "curve": _SYNTH},
], ids=["expression-domain", "lp-unit-circle", "lp-catalog-circle", "lp-synthesis"])
def test_non_finite_profile_or_pair_exits_3(tmp_path, capsys, config):
    # NaN used to pass every check and reach the detectors as a traceback
    if isinstance(config, str):
        path = _cfg(config)
    else:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(config, operation={"kind": "analyze"},
                                        output={"report": "out.json"})))
    with np.errstate(all="ignore"):
        assert main(["run", str(path), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "validation error:" in err and "Traceback" not in err


@pytest.mark.parametrize("config", [
    "huge_domain_reject.json",
    "huge_p_reject.json",
    pytest.param({"curve": _ELLIPSE, "operation": {"kind": "parallel", "d": 1e308}},
                 id="parallel-huge-d"),
    pytest.param({"curve": _ELLIPSE, "operation": {"kind": "involute", "d": 1e308}},
                 id="involute-huge-d"),
    pytest.param({"curve": {**_ELLIPSE, "samples": 256},
                  "operation": {"kind": "pedal", "point": [1e308, 0.0]}}, id="pedal-huge-point"),
    pytest.param({"curve": {**_SYNTH, "kappa": "1e308"}}, id="synthesis-huge-kappa"),
    pytest.param({"curve": {**_SYNTH, "alpha": "1e308"}}, id="synthesis-huge-alpha"),
])
def test_non_finite_refusals_print_one_line_and_no_warning(tmp_path, capsys, config):
    # the profile, the stencil weights and the synthesis integrals are checked
    # before numpy can warn, and a pair's checks run with numpy's warnings off
    if not isinstance(config, str):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**config, "output": {"report": "out.json"}}))
        config = str(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run(tmp_path, config) == 3
    assert capsys.readouterr().err.count("\n") == 1
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("config, extra, key", [
    ({"norm": {"kind": "euclidean", "grid": _HUGE}, "curve": _CIRCLE_64}, (), "grid"),
    ({"curve": _CIRCLE_64, "operation": {"kind": "transfer",
                                         "norm": {"kind": "lp", "p": 3.0, "grid": _HUGE}}},
     (), "grid"),
    ({"curve": {**_CIRCLE, "samples": _HUGE}}, (), "samples"),
    ({"curve": {**_SYNTH, "samples": _HUGE}}, (), "samples"),
    ({"curve": _CIRCLE_64}, ("--samples", str(_HUGE)), "samples"),
    ({"curve": _CIRCLE_64, "operation": {"kind": "contact",
                                         "curve2": {**_CIRCLE, "samples": _HUGE}}},
     (), "samples"),
    ({"curve": {**_CIRCLE, "samples": _INDEX_BOUND}}, (), "samples"),
    ({"norm": {"kind": "euclidean", "grid": _INDEX_BOUND}, "curve": _CIRCLE_64}, (), "grid"),
], ids=["grid", "transfer-grid", "catalog-samples", "synthesis-samples", "samples-option",
        "contact-samples", "samples-at-index-bound", "grid-at-index-bound"])
def test_sizes_numpy_cannot_allocate_exit_2(tmp_path, capsys, config, extra, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", str(cfg), "--out", str(tmp_path), *extra]) == 2
    assert capsys.readouterr().err == (
        f"config error: {key!r} is too large: numpy cannot allocate its arrays\n")


_ENDPOINT_DIPS = {"x-dip": ("t^2 + 0.0001*t", "t^3"),
                  "x-dip-y-quadratic": ("t^2 + 0.001*t", "t^3 + 0.1*t^2")}


@pytest.mark.parametrize("samples", [64, 512, 2048])
@pytest.mark.parametrize("norm", ["euclidean", "lp3", "fourier"])
@pytest.mark.parametrize("curve", list(_ENDPOINT_DIPS))
def test_speed_dips_at_an_open_endpoint_stay_in_the_domain(tmp_path, curve, norm, samples):
    # both curves are regular on [0, 1], but their speed and |alpha| are
    # smallest at t = 0, where a search of t +/- one step would leave the domain
    x, y = _ENDPOINT_DIPS[curve]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "norm": _SMOKE_NORMS[norm],
        "curve": {"kind": "expression", "x": x, "y": y, "domain": [0.0, 1.0]},
        "operation": {"kind": "analyze"},
        "output": {"report": "out.json"},
    }))
    assert main(["run", str(cfg), "--out", str(tmp_path),
                 "--samples", str(samples)]) == 0


@pytest.mark.parametrize("samples", [16, 64, 256, 2048])
def test_lp_below_two_circle_pedal(tmp_path, samples):
    # the pedal reads the circle's normal at t1, which is the normal at t0
    assert _run(tmp_path, "l15_circle_pedal.json", ("--samples", str(samples))) == 0


def test_synthesis_starts_at_the_start_of_its_domain(tmp_path):
    assert _run(tmp_path, "synth_shifted_domain.json") == 0
    rows = np.genfromtxt(tmp_path / "out" / "synth_shifted.csv", delimiter=",", names=True)
    assert rows["t"][0] == 1.0 and rows["t"][-1] < 1.0 + 2.0 * np.pi
    assert np.max(np.abs(rows["alpha"] - np.cos(3.0 * rows["t"]))) < 1e-5


def test_catalog_param_reject_config_exits_2(tmp_path, capsys):
    assert _run(tmp_path, "catalog_param_reject.json") == 2
    assert capsys.readouterr().err == "config error: catalog curve 'circle' takes no 'a'\n"
    assert not (tmp_path / "out").exists()


# each kind -> every key it reads, written out here and not read from cli
_READS = {
    "norm": {"euclidean": ("kind", "grid"), "lp": ("kind", "grid", "p"),
             "fourier_radial": ("kind", "grid", "coefficients")},
    "curve": {"expression": ("kind", "samples", "x", "y", "domain", "closed"),
              "catalog": ("kind", "samples", "name", "a", "b"),
              "csv": ("kind", "samples", "path", "closed"),
              "synthesis": ("kind", "samples", "alpha", "kappa", "gamma0", "eta0_angle",
                            "domain")},
    "operation": {"analyze": ("kind",), "maslov": ("kind",), "evolute": ("kind",),
                  "involute": ("kind", "d"), "parallel": ("kind", "d"),
                  "pedal": ("kind", "point"), "transfer": ("kind", "norm"),
                  "contact": ("kind", "curve2", "t0", "u0", "kmax")},
}
_ACCEPTED = [(section, kind, key) for section, kinds in _READS.items()
             for kind, keys in kinds.items() for key in keys]
_FOREIGN = [(section, kind, key) for section, kinds in _READS.items()
            for kind, keys in kinds.items()
            for key in sorted(set().union(*kinds.values()) - set(keys))]


def _exit_and_stderr(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    return main(["run", str(cfg), "--out", str(tmp_path)]), capsys.readouterr().err


def test_the_kinds_read_46_pairs_of_the_132_their_sections_held():
    assert (len(_ACCEPTED), len(_FOREIGN)) == (46, 86)


@pytest.mark.parametrize("section, kind, key", _FOREIGN,
                         ids=["-".join(pair) for pair in _FOREIGN])
def test_a_key_of_another_kind_exits_2(tmp_path, capsys, section, kind, key):
    # {"kind": "euclidean", "p": 3.0} used to run the Euclidean plane
    code, err = _exit_and_stderr(tmp_path, capsys,
                                 {"curve": _CIRCLE_64, section: {"kind": kind, key: 1.0}})
    assert code == 2
    assert err == f"config error: unknown key {key!r} in {section!r} of kind {kind!r}\n"


@pytest.mark.parametrize("section, kind, key",
                         [pair for pair in _ACCEPTED if pair[2] != "kind"],
                         ids=["-".join(pair) for pair in _ACCEPTED if pair[2] != "kind"])
def test_a_key_of_its_own_kind_is_read(tmp_path, capsys, section, kind, key):
    # null is no value of any key, so the run stops at the read, not at the key check
    code, err = _exit_and_stderr(tmp_path, capsys,
                                 {"curve": _CIRCLE_64, section: {"kind": kind, key: None}})
    assert code == 2 and err.startswith("config error: ")
    assert "unknown" not in err


@pytest.mark.parametrize("config, message", [
    ({"norm": {"kind": "l2"}}, "unknown norm kind 'l2'"),
    ({"curve": {"kind": "spline"}}, "unknown curve kind 'spline'"),
    ({"operation": {"kind": "rotate"}}, "unknown operation kind 'rotate'"),
    ({"operation": {"kind": "contact", "curve2": {"kind": "spline"}}},
     "unknown curve kind 'spline'"),
    ({"operation": {"kind": "transfer", "norm": {"kind": "l2"}}}, "unknown norm kind 'l2'"),
    ({"operation": {"kind": "contact", "curve2": {**_CIRCLE_64, "x": "t"}}},
     "unknown key 'x' in 'curve2' of kind 'catalog'"),
    ({"operation": {"kind": "transfer", "norm": {"kind": "euclidean", "p": 3.0}}},
     "unknown key 'p' in 'norm' of kind 'euclidean'"),
    ({"operation": {"d": 0.3}}, "unknown key 'd' in 'operation' of kind 'analyze'"),
], ids=["norm", "curve", "operation", "curve2", "transfer-norm", "curve2-foreign-key",
        "transfer-norm-foreign-key", "kindless-operation-is-analyze"])
def test_unknown_kinds_and_foreign_keys_exit_2_where_they_are_read(tmp_path, capsys,
                                                                   config, message):
    # an unknown norm kind used to exit 3, from the radial profile
    code, err = _exit_and_stderr(tmp_path, capsys, {"curve": _CIRCLE_64, **config})
    assert (code, err) == (2, f"config error: {message}\n")


@pytest.mark.parametrize("name, message", [
    ("foreign_key_reject.json", "unknown key 'p' in 'norm' of kind 'euclidean'"),
    ("unknown_norm_kind_reject.json", "unknown norm kind 'l2'"),
    ("huge_grid_reject.json", "'grid' is too large: numpy cannot allocate its arrays"),
    ("huge_samples_reject.json", "'samples' is too large: numpy cannot allocate its arrays"),
    ("huge_index_reject.json", "'samples' is too large: numpy cannot index its arrays"),
    ("literal_overflow_reject.json", "number too large at offset 9"),
    ("deep_nesting_reject.json", "expression is too deep to parse"),
])
def test_shipped_kind_rejects_exit_2(tmp_path, capsys, name, message):
    assert _run(tmp_path, name) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_a_long_sum_writes_the_bytes_of_its_one_term_twin(tmp_path):
    # evaluation has no depth limit, and each of the 999 terms 0*t adds an exact zero
    with open(_cfg("long_sum_analyze.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    assert config["curve"]["x"] == "cos(t)" + "+0*t" * 999
    assert _run(tmp_path / "long", "long_sum_analyze.json") == 0
    config["curve"]["x"] = "cos(t)"
    twin = tmp_path / "twin.json"
    twin.write_text(json.dumps(config))
    assert main(["run", str(twin), "--out", str(tmp_path / "twin")]) == 0
    for name in ("long_sum.csv", "long_sum.json"):
        assert (tmp_path / "long" / "out" / name).read_bytes() == \
            (tmp_path / "twin" / "out" / name).read_bytes()


def test_a_constant_division_exits_2_with_one_line(tmp_path, capsys):
    # the closed curve's seam check evaluates x at a scalar t, where the
    # constant 1/0 used to escape as a ZeroDivisionError traceback
    assert _run(tmp_path, "constant_division_reject.json") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: expression domain error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config, message", [
    ({"norm": {"kind": "euclidean", "grid": 63}}, "table_size must be at least 64"),
    ({"curve": {"kind": "catalog", "name": "ellipse", "a": 0}},
     "ellipse needs positive semi-axes"),
], ids=["grid-63", "ellipse-a-0"])
def test_a_small_table_or_a_flat_ellipse_exits_3(tmp_path, capsys, config, message):
    code, err = _exit_and_stderr(tmp_path, capsys, {"curve": _CIRCLE_64, **config})
    assert (code, err) == (3, f"validation error: {message}\n")


def test_a_csv_without_y_and_missing_files_exit_2_with_one_line(tmp_path, capsys):
    path = tmp_path / "curve.csv"
    path.write_text("t,x,z\n" + _circle_rows(_T16))
    code, err = _exit_and_stderr(tmp_path, capsys, {"curve": {"kind": "csv", "path": str(path)}})
    assert (code, err) == (2, f"config error: csv {path} lacks column 'y'\n")
    path = tmp_path / "missing.csv"
    code, err = _exit_and_stderr(tmp_path, capsys, {"curve": {"kind": "csv", "path": str(path)}})
    assert code == 2 and err.count("\n") == 1
    assert err.startswith(f"config error: cannot read csv {path}: ")
    path = tmp_path / "missing.json"
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"config error: cannot read config {path}: ")


# valid values first and last, which Hypothesis draws most often, and
# values that a run may refuse between them
_TWO_PI = 2.0 * np.pi
_DOMAINS = st.sampled_from([[0.0, _TWO_PI], [-1.0, 1.0], [0.0, 1e300], [0.0, 1.0],
                            [0.0, _TWO_PI]])
_TEXTS = st.sampled_from(["cos(t)", "sin(t)", "t", "sqrt(t)", "cos(", "t^3",
                          "1 + 0.5*sin(t)", "cos(3*t)", "1"])
_NORMS = {"euclidean": {},
          "lp": {"p": st.one_of(st.floats(1.5, 6.0), st.sampled_from([0.5, 1.2, 7.0]))},
          "fourier_radial": {"coefficients": st.sampled_from(
              [[1.0, 0.08], [1.0, 0.9], [1.0], [1.0, 0.08, 0.01]])}}
_CURVES = {"catalog": {"name": st.sampled_from(["circle", "ellipse", "astroid", "nope",
                                                "cusp_t2t3", "unit_circle_of_norm"]),
                       "a": st.floats(-0.5, 3.0), "b": st.floats(-0.5, 3.0)},
           "expression": {"x": _TEXTS, "y": _TEXTS, "domain": _DOMAINS,
                          "closed": st.booleans()},
           "synthesis": {"alpha": _TEXTS, "kappa": _TEXTS, "domain": _DOMAINS,
                         "gamma0": st.sampled_from([[0.0, 0.0], [1.0, 2.0]]),
                         "eta0_angle": st.floats(-7.0, 7.0)}}


@st.composite
def _section(draw, kinds, always=()):
    """A section of a drawn kind with a drawn subset of that kind's own keys.
    One section in four is spoilt: an unknown kind, or a value of the wrong
    type for one of its keys."""
    kind = draw(st.sampled_from(sorted(kinds)))
    keys = [key for key in sorted(kinds[kind]) if key in always or draw(st.booleans())]
    body = {"kind": kind, **{key: draw(kinds[kind][key]) for key in keys}}
    if draw(st.integers(0, 3)) == 3:
        spoilt = draw(st.sampled_from(["kind"] + keys))
        body[spoilt] = "nope" if spoilt == "kind" else draw(
            st.sampled_from(["x", None, [1.0], True, float("nan")]))
    return body


# curves stay at 64 samples or fewer: samples is always given, as are the
# keys that a kind requires
_SAMPLES = {"samples": st.sampled_from([16, 8, 32, 64])}
_CURVE = _section({kind: {**keys, **_SAMPLES} for kind, keys in _CURVES.items()},
                  always=("samples", "name", "x", "y", "domain", "alpha", "kappa"))
_NORM = _section({kind: {**keys, "grid": st.sampled_from([256, 512])}
                  for kind, keys in _NORMS.items()}, always=("grid",))
_POINTS = st.floats(-1.0, 7.0)
_OPERATION = _section({
    "analyze": {}, "maslov": {}, "evolute": {}, "involute": {"d": st.floats(-1.0, 1.0)},
    "parallel": {"d": st.floats(-1.0, 1.0)},
    "pedal": {"point": st.sampled_from([[0.1, 0.2], [1.0, 0.0], [0.0, 0.0]])},
    "transfer": {"norm": _NORM},
    "contact": {"curve2": _CURVE, "t0": _POINTS, "u0": _POINTS,
                "kmax": st.sampled_from([1, 0, 2, 4])}})


@given(norm=_NORM, curve=_CURVE, operation=_OPERATION)
@settings(max_examples=50, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_drawn_configs_exit_with_a_documented_code(tmp_path, norm, curve, operation):
    # each kind with its own keys: whatever the values, a run ends in a
    # documented exit code with no traceback and no warning
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"norm": norm, "curve": curve, "operation": operation,
                               "output": {"csv": "o.csv", "svg": "o.svg",
                                          "report": "o.json"}}))
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(["run", str(cfg), "--out", str(tmp_path)])
    assert code in (0, 2, 3, 4, 5)
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
    assert [str(w.message) for w in caught] == []


# --samples at valid counts and at the spoilt 0, 7 and -1, with outputs in a
# new nested directory or under a regular file
_FLAG_CURVES = st.sampled_from([
    {"kind": "catalog", "name": "circle"}, {"kind": "catalog", "name": "ellipse"},
    {"kind": "expression", "x": "cos(t)", "y": "2*sin(t)", "domain": [0.0, _TWO_PI],
     "closed": True},
    {"kind": "synthesis", "alpha": "cos(3*t)", "kappa": "1"}])
_FLAG_RUNS = itertools.count()


@given(curve=_FLAG_CURVES, samples=st.one_of(st.integers(8, 64), st.sampled_from([0, 7, -1])),
       blocked=st.booleans())
@settings(max_examples=50, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_drawn_samples_and_output_paths_exit_with_their_code(tmp_path, curve, samples,
                                                             blocked):
    run = tmp_path / f"run{next(_FLAG_RUNS)}"
    run.mkdir()
    cfg = run / "cfg.json"
    cfg.write_text(json.dumps({"norm": {"kind": "euclidean", "grid": 256}, "curve": curve,
                               "output": {"csv": "o.csv", "svg": "o.svg",
                                          "report": "o.json"}}))
    if blocked:
        (run / "file").write_text("")
    out = run / ("file" if blocked else "new") / "nested"
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(["run", str(cfg), "--out", str(out), "--samples", str(samples)])
    assert code == (2 if samples < 8 else 5 if blocked else 0)
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
    assert [str(w.message) for w in caught] == []
    if code == 0:
        assert sorted(os.listdir(out)) == ["o.csv", "o.json", "o.svg"]


@pytest.mark.parametrize("value", ["1.5", "x", "1e3", ""])
def test_a_non_integer_samples_flag_exits_2(tmp_path, capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["run", _cfg("circle_analyze.json"), "--out", str(tmp_path), "--samples", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--samples: invalid int value" in err and "Traceback" not in err
