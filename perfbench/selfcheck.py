"""Self-check of the benchmark, at a tiny size.

Usage (from the root of a checkout): python3 perfbench/selfcheck.py

For every workload it runs ``run.py --size tiny`` untraced and traced and
requires a correct result whose metrics are exactly the ones
``BENCHMARK.json`` names, each with the unit named there.  It then feeds
the correctness gate corrupted reports and requires each to be caught.
Exits 0 when every check passes; prints one line per failed check.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(1, str(ROOT / "src"))
import run  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, check_report, golden_digest, prepare, sha256  # noqa: E402


def check_runs(spec: dict) -> list[str]:
    failures = []
    for name in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", "7", "--seconds", "1", "--trace", str(trace),
                 "--size", "tiny"],
                capture_output=True, text=True, cwd=ROOT, timeout=170)
            label = f"{name} trace={trace}"
            try:
                result = json.loads(done.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                failures.append(f"{label}: no result (exit {done.returncode}) "
                                f"{done.stderr.strip()[-300:]}")
                continue
            if done.returncode != 0 or not result["correct"] or result["failed"]:
                failures.append(f"{label}: not correct: {done.stdout[-500:]}")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                failures.append(f"{label}: metrics/units differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, "
                                f"unit mismatches {sorted(k for k in want.keys() & got.keys() if want[k] != got[k])}")
    return failures


def _record(job, data: bytes) -> dict:
    return {"ok": True, "sha256": sha256(data), "tests": job.tests}


def check_gate() -> list[str]:
    """A corrupted report must trip each layer of the gate."""
    failures = []
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for name, workload in WORKLOADS.items():
            job = prepare(workload, "tiny", DEFAULT_SEED, 1, Path(tmp) / name)
            report = Path(tmp) / f"{name}.csv"
            code = subprocess.run(
                [sys.executable, "-m", "graphtest.cli", *job.argv(report)],
                cwd=ROOT, env={**os.environ, **run.THREAD_ENV,
                               "PYTHONPATH": str(ROOT / "src")},
                capture_output=True, timeout=170).returncode
            data = report.read_bytes() if code == 0 else b""
            expected = golden_digest(name, "tiny")
            if sha256(data) != expected or check_report(job, data):
                failures.append(f"{name}: the genuine report fails the gate")
                continue
            # Change one digit of the last statistic: still well formed.
            cut = data.rstrip(b"\n").rfind(b",") - 1
            swapped = b"1" if data[cut:cut + 1] != b"1" else b"2"
            corrupted = data[:cut] + swapped + data[cut + 1:]
            golden, timed = _record(job, corrupted), [_record(job, data)]
            run.gate(golden, expected, timed, DEFAULT_SEED)
            if golden["ok"]:
                failures.append(f"{name}: digest gate passed a corrupted report")
            golden, timed = _record(job, data), [_record(job, data), _record(job, corrupted)]
            run.gate(golden, expected, timed, DEFAULT_SEED + 1)
            if timed[1]["ok"]:
                failures.append(f"{name}: same-seed gate passed a corrupted report")
            truncated = data[:data.rstrip(b"\n").rfind(b"\n") + 1]
            if not check_report(job, truncated):
                failures.append(f"{name}: structural check passed a truncated report")
    return failures


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = check_gate() + check_runs(spec)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selfcheck: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
