"""Check that traced runs repeat every count metric exactly.

Runs ``run.py --trace 1`` twice per workload on the same seed and fails
(exit 1) unless both runs report the same set of count metrics
(``*_calls``, ``*_passes``, ``*_evals``, ``*_steps``, ``*_bytes``,
``bootstrap.replicates``) with identical values, every op passed its
output checks (so the traced reports matched the untraced warm-up
reports byte for byte), and both runs give the same report digest.

    python3 perfbench/check_counts.py [workload ...]
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = 1
TIMEOUT_S = 300


def _traced_run(workload):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                          timeout=TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited with {proc.returncode}\n{proc.stderr}")
    detail_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(detail_line), json.loads(result_line)


def _counts(detail):
    return {m: v for m, v in detail["layers"].items() if not m.endswith(("_s", "_ratio"))}


def main(argv):
    workloads = argv or ["var_test", "garch_test", "var_mc"]
    failures = []
    for workload in workloads:
        (first, r1), (second, r2) = _traced_run(workload), _traced_run(workload)
        c1, c2 = _counts(first), _counts(second)
        print(f"{workload}: sha256 {first['report_sha256']} "
              f"(recorded {first['recorded_sha256']})\n  counts {json.dumps(c1, sort_keys=True)}"
              f"\n  shares {json.dumps(first['shares'])}"
              f"\n  trace.overhead_ratio {first['layers']['trace.overhead_ratio']:.3f}")
        if first["report_sha256"] != second["report_sha256"]:
            failures.append(f"{workload}: report digests differ between runs")
        if not c1:
            failures.append(f"{workload}: no count metrics reported")
        if c1 != c2:
            diff = {m: (c1.get(m), c2.get(m)) for m in set(c1) | set(c2) if c1.get(m) != c2.get(m)}
            failures.append(f"{workload}: counts differ between runs: {diff}")
        for detail, result in ((first, r1), (second, r2)):
            if not result["correct"] or not detail["counts_repeat_across_rounds"]:
                failures.append(f"{workload}: incorrect run or counts differ across rounds: "
                                f"{detail['problems']}")
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
