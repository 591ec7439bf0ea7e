"""Record `reference.json`: the expected result of every case at the default seed.

    python3 bench/make_reference.py

For each case it stores the exit code, the report `counts` and the cusp,
inflection and vertex parameters. Run it only when the workloads change; a
change that claims a speed-up must leave the reference as it is.
"""

from __future__ import annotations

import json

from prepare import OUT_ROOT, prepare
from run import REFERENCE, case_outputs, event_times, run_case
import workloads


def main():
    out = {"seed": workloads.DEFAULT_SEED, "workloads": {}}
    for workload in workloads.WORKLOADS:
        _, cases = prepare(workload, workloads.DEFAULT_SEED, OUT_ROOT / "reference")
        from normplane import cli

        entries = {}
        for case in cases:
            rc, clock = run_case(cli, case)
            if rc != case["expect"]:
                raise SystemExit(f"{workload}/{case['name']}: exit {rc!r}, "
                                 f"expected {case['expect']}")
            report, _, _ = case_outputs(case)
            entry = {"exit": rc}
            if rc == 0:
                entry["counts"] = report["counts"]
                entry.update(event_times(report))
            entries[case["name"]] = entry
            print(f"{workload}/{case['name']}: exit {rc} in {clock.elapsed:.2f} s", flush=True)
        out["workloads"][workload] = entries
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
