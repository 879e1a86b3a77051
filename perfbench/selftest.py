"""Self-test of the benchmark on small inputs; takes about 20 s.

    python3 perfbench/selftest.py

Checks that
1. every workload, untraced and traced, at the default seed and at another
   seed, passes its correctness gate and prints exactly the metrics that
   BENCHMARK.json names;
2. a corrupted saved output is caught (failed > 0, correct false) on
   every workload;
3. in a directory holding only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.
Exits 0 when all hold and prints one line per failed check otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".bench_work" / "selftest"


def bench(*args, root=ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 else None
    except (IndexError, ValueError):
        result = None
    return proc.returncode, result, proc


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"] for m in spec["end_to_end"]},
            1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)

    for wl in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            for seed in (0, 7):
                args = ["--workload", wl, "--seed", str(seed), "--seconds", "1",
                        "--trace", str(trace), "--small"]
                code, res, proc = bench(*args)
                what = f"{wl} trace={trace} seed={seed}"
                if res is None:
                    problems.append(f"{what}: exit {code}\n{proc.stderr}")
                    continue
                if not res["correct"] or res["failed"] or res["attempted"] < 1:
                    problems.append(f"{what}: gate failed\n{proc.stdout}")
                if set(res["metrics"]) != want[trace]:
                    problems.append(
                        f"{what}: metrics differ: "
                        f"{sorted(set(res['metrics']) ^ want[trace])}")

    corrupt = SCRATCH / "expected"
    shutil.copytree(BENCH / "expected", corrupt)
    entry = corrupt / "catalog-24" / "ii-q4.json"
    entry.write_text(entry.read_text().replace('"rho": 2', '"rho": 3', 1))
    report = corrupt / "analyze" / "iv_q9_n3.json"
    report.write_text(report.read_text().replace("true", "false", 1))
    census = json.loads((corrupt / "census.json").read_text())
    census["3,2,4"][1] += 1
    (corrupt / "census.json").write_text(json.dumps(census))
    for wl in (w["name"] for w in spec["workloads"]):
        code, res, proc = bench("--workload", wl, "--seconds", "1", "--small",
                                "--expected", str(corrupt))
        if res is None or res["correct"] or res["failed"] < 1:
            problems.append(f"{wl}: corrupted saved output not caught\n{proc.stdout}")

    bare = SCRATCH / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, res, proc = bench("--workload", "catalog", "--seconds", "1", root=bare)
    if code == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {code}, stdout {proc.stdout!r}")

    shutil.rmtree(SCRATCH, ignore_errors=True)
    for problem in problems:
        print("FAIL", problem)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
