"""Benchmark of `normplane run` on fixed workloads of run configs.

    python3 bench/run.py --workload analyze --seed 0 --seconds 36 --trace 0

Every case goes through the real CLI entry,
`normplane.cli.main(["run", config, "--out", dir, "--samples", n])`, in this
one process: a closed loop with one client, BLAS pinned to one thread.

Gated times are in reference seconds (see `calibration.py`): while a timed
case runs, a fixed calibration chunk is timed every 50 ms, and the case's own
time is scaled by the reference chunk time over the mean chunk time, so the
shared host's drifting speed cancels out.

Untraced (`--trace 0`): set-up is repeated in fresh interpreters and its
median reported as `setup_s`. The workload's cases then run in passes, in order,
until `--seconds` is used up (at least MIN_PASSES passes). `wall_s` is the
cost of one pass: the sum over cases of each case's median time.

Traced (`--trace 1`): one warm-up and one timed pass untraced, then two
traced passes. The per-layer metrics come from the first traced pass; the
`calls` and `points` counts of both traced passes must be identical.

Every executed case is checked against `reference.json`: exit code, report
`counts`, and (seed 0 only) cusp, inflection and vertex parameters within
EVENT_TOL; its report and CSV bytes must not change between passes. The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
from prepare import BLAS_ENV, OUT_ROOT, ROOT, prepare  # noqa: E402  (pins BLAS first)
from calibration import REFERENCE_S, Sampler  # noqa: E402
import workloads  # noqa: E402

REFERENCE = BENCH / "reference.json"
SETUP_REPEATS = 5       # each in a fresh interpreter
MIN_PASSES = 2          # same-run determinism needs two outputs per case
EVENT_TOL = 1e-9        # ROADMAP aim 1 output-equality rule for event parameters
EVENTS = ("cusps", "inflections", "vertices")
OUTPUTS = ("out.json", "out.csv", "out.svg")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def run_case(cli, case, calibrate=False):
    """One CLI run of one case; returns (exit code or error text, Sampler
    that timed it)."""
    for name in OUTPUTS:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(case["out_dir"], name))
    gc.collect()
    argv = ["run", case["config_path"], "--out", case["out_dir"],
            "--samples", str(case["samples"])]
    with contextlib.redirect_stderr(io.StringIO()), Sampler(calibrate) as clock:
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a traceback is a failed case, not a crash
            rc = f"{type(exc).__name__}: {exc}"
    return rc, clock


def case_outputs(case):
    """(report dict or None, digest of report+CSV bytes, bytes of all outputs)."""
    digest = hashlib.sha256()
    size = 0
    report = None
    for name in OUTPUTS:
        path = os.path.join(case["out_dir"], name)
        if not os.path.exists(path):
            continue
        with open(path, "rb") as fh:
            data = fh.read()
        size += len(data)
        if name != "out.svg":
            digest.update(name.encode() + data)
        if name == "out.json":
            report = json.loads(data)
    return report, digest.hexdigest(), size


def event_times(report):
    return {kind: [float(e["t"]) for e in report.get(kind, [])] for kind in EVENTS}


def check_case(rc, report, ref, exact):
    """Reasons the case failed against its reference entry (empty if it passed)."""
    if ref is None:
        return ["no reference entry"]
    if rc != ref["exit"]:
        return [f"exit {rc!r}, expected {ref['exit']}"]
    if rc != 0:
        return []
    if report is None:
        return ["no report written"]
    problems = []
    if report.get("counts") != ref["counts"]:
        problems.append(f"counts {report.get('counts')} != {ref['counts']}")
    if exact:
        got = event_times(report)
        for kind in EVENTS:
            want = ref[kind]
            if len(got[kind]) != len(want) or any(
                    abs(a - b) > EVENT_TOL for a, b in zip(got[kind], want)):
                problems.append(f"{kind} parameters {got[kind]} != {want}")
    return problems


class Pass:
    """Results of one pass over a workload's cases."""

    def __init__(self):
        self.seconds = {}   # case name -> seconds (reference seconds if calibrated)
        self.raw = {}       # case name -> seconds as elapsed
        self.digest = {}    # case name -> output digest
        self.events = 0     # events reported over the pass
        self.bytes = 0      # bytes emitted over the pass
        self.failures = []  # (case name, reason)

    @property
    def wall(self):
        return sum(self.seconds.values())

    @property
    def raw_wall(self):
        return sum(self.raw.values())


def run_pass(cli, cases, reference, exact, first=None, tracer=None,
             calibrate=False):
    """Run every case once, checking outputs; `first` is an earlier pass
    whose output digests this pass must reproduce."""
    result = Pass()
    for case in cases:
        if tracer is not None:
            tracer.begin_case(case["name"])
        rc, clock = run_case(cli, case, calibrate)
        report, digest, size = case_outputs(case)
        result.raw[case["name"]] = clock.elapsed
        result.seconds[case["name"]] = (clock.reference_seconds if calibrate
                                        else clock.elapsed)
        result.digest[case["name"]] = digest
        result.bytes += size
        if report is not None:
            result.events += sum(len(report.get(kind, [])) for kind in EVENTS)
        problems = check_case(rc, report, reference.get(case["name"]), exact)
        if first is not None and first.digest.get(case["name"]) != digest:
            problems.append("report or CSV bytes differ between passes")
        result.failures += [(case["name"], p) for p in problems]
    return result


def measure_setup(workload, seed):
    """Set up SETUP_REPEATS times, each in a fresh interpreter; returns the
    median set-up in reference seconds. A child times its set-up, then the
    calibration chunk (which needs numpy, so it cannot run before)."""
    samples = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, str(BENCH / "prepare.py"), workload, str(seed),
             str(OUT_ROOT / f"seed{seed}" / "setup_probe")],
            capture_output=True, text=True, timeout=120, check=True)
        seconds, chunk = child.stdout.strip().splitlines()[-1].split()
        samples.append(float(seconds) * REFERENCE_S / float(chunk))
    return statistics.median(samples)


def src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def context(seed):
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "src_lines": src_lines(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "seed": seed, "blas_threads": BLAS_ENV}


def timed_run(cli, cases, reference, exact, seconds):
    """Passes until `seconds` is spent; returns the list of passes."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cli, cases, reference, exact,
                               first=passes[0] if passes else None,
                               calibrate=True))
        spent = time.perf_counter() - start
        # start another pass only if it is expected to end within the budget
        if len(passes) >= MIN_PASSES and spent + spent / len(passes) > seconds:
            return passes


def case_medians(passes):
    return {name: statistics.median(p.seconds[name] for p in passes)
            for name in passes[0].seconds}


def op_shares(cases, medians):
    shares = {}
    for case in cases:
        key = f"{case['config']['operation']['kind']}_s"
        shares[key] = shares.get(key, 0.0) + medians[case["name"]]
    return shares


def traced_run(cli, cases, reference, exact, spans_path):
    """Warm-up and one untraced pass, then two traced passes.

    Returns (passes, per-layer metrics of the first traced pass, names of
    `calls`/`points` metrics that differ between the two traced passes).
    """
    from spans import Tracer

    run_pass(cli, cases, reference, exact)                          # warm-up
    plain = run_pass(cli, cases, reference, exact)
    tracer = Tracer()
    tracer.install()
    bounds = [0]
    traced = []
    try:
        for _ in range(2):
            traced.append(run_pass(cli, cases, reference, exact, first=plain,
                                   tracer=tracer))
            bounds.append(len(tracer))
    finally:
        tracer.uninstall()
    layer = [tracer.metrics(bounds[i], bounds[i + 1], p.events, p.bytes)
             for i, p in enumerate(traced)]
    unstable = sorted(k for k in layer[0] if k.endswith((".calls", ".points"))
                      and layer[0][k] != layer[1][k])
    tracer.write(spans_path)
    overhead = traced[0].wall - plain.wall
    print("trace " + json.dumps({
        "untraced_wall_s": plain.wall, "traced_wall_s": traced[0].wall,
        "overhead_s": overhead, "overhead_share": overhead / plain.wall,
        "spans_per_pass": bounds[1], "unstable_counts": unstable}))
    return [plain] + traced, layer[0], unstable


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    out_root = OUT_ROOT / f"seed{args.seed}"
    reference = load_reference()["workloads"][args.workload]
    try:
        setup_s = measure_setup(args.workload, args.seed)
        _, cases = prepare(args.workload, args.seed, out_root)
    except (ImportError, subprocess.CalledProcessError) as exc:
        print(f"set-up failed: cannot import normplane from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 1
    from normplane import cli

    exact = args.seed == workloads.DEFAULT_SEED
    print("context " + json.dumps({"workload": args.workload, **context(args.seed)}))

    if args.trace:
        from spans import metric_units

        passes, layer, unstable = traced_run(cli, cases, reference, exact,
                                             out_root / args.workload / "spans.jsonl")
        metrics = {k: {"value": layer[k], "unit": u} for k, u in metric_units().items()}
    else:
        passes = timed_run(cli, cases, reference, exact, args.seconds)
        unstable = []
        medians = case_medians(passes)
        values = {"wall_s": sum(medians.values()), "setup_s": setup_s,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}

    attempted = sum(len(p.seconds) for p in passes)
    failed_cases = sum(len({name for name, _ in p.failures}) for p in passes)
    if not args.trace:
        print("summary " + json.dumps({
            "passes": len(passes), "pass_wall_s": [p.wall for p in passes],
            "pass_raw_wall_s": [p.raw_wall for p in passes],
            "error_rate": failed_cases / attempted, **op_shares(cases, medians),
            "case_median_s": medians}))
    for p in passes:
        for name, reason in p.failures:
            print(f"FAIL {args.workload}/{name}: {reason}", file=sys.stderr)
    failed = failed_cases + (1 if unstable else 0)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
