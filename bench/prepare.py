"""Benchmark set-up: import normplane and write one workload's run configs.

`prepare()` is the set-up a timed run pays before its first case. Run as a
script it performs the same set-up in a fresh interpreter and prints the
seconds it took and the calibration chunk's time right after it, so
`run.py` can repeat set-up in child processes and report the median: the
import can only be timed once per process.

    python3 bench/prepare.py <workload> <seed> <out_root>
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".bench_out"

# one client, one thread: BLAS pools must not compete with the measured loop
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402  (pure Python; imports no numpy)


def prepare(workload: str, seed: int, out_root: Path):
    """Import normplane and write each case's config.

    Returns (seconds, cases); each case dict gains `config_path` and
    `out_dir`.
    """
    t0 = time.perf_counter()
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import normplane.cli  # noqa: F401  (the import is the measured set-up)

    cases = workloads.cases(workload, seed)
    for case in cases:
        case_dir = Path(out_root) / workload / case["name"]
        case_dir.mkdir(parents=True, exist_ok=True)
        case["config_path"] = str(case_dir / "config.json")
        case["out_dir"] = str(case_dir)
        with open(case["config_path"], "w", encoding="utf-8") as fh:
            json.dump(case["config"], fh, indent=1, sort_keys=True)
    return time.perf_counter() - t0, cases


if __name__ == "__main__":
    seconds, _ = prepare(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
    from calibration import chunk_seconds  # after the set-up: it imports numpy

    print(repr(seconds), repr(chunk_seconds()))
