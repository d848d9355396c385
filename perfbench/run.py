"""Benchmark of the ``graphtest`` CLI: one workload, one seed, one run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's inputs are written from ``--seed`` before anything is timed.
A run first invokes the CLI once at the workload's default seed and checks
the report's SHA-256 against the digest recorded in ``golden.json``; this
also warms the byte-code and page caches.  It then invokes the CLI at
``--seed`` in fresh interpreters, one after another (a closed loop with one
client), until ``--seconds`` have passed.  Every report must be well formed
and byte-identical to the others of the run.

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
medians over the timed invocations.  With ``--trace 1`` each invocation is
followed by a traced replay of the same work (``replay.py``) whose rebuilt
report must equal the CLI's, and the last line carries per-layer metrics,
medians over the replays.  Earlier stdout lines list the environment and
every metric with its unit, including ``failed_frac``.  The full record,
with the spans of a traced run, is written to
``.perfbench/<workload>-s<seed>-t<trace>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
CHILD_TIMEOUT_S = 120

# Child interpreters get one BLAS/OpenMP thread each, so the only
# parallelism is the simulate worker pool.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"tests_per_s": "1/s", "setup_s": "s",
                    "cpu_ms_per_test": "ms", "peak_rss_mb": "MB"}

# Per-layer metrics whose values are counts; they must repeat exactly
# between the replays of one run.
COUNT_SUFFIXES = (".calls", ".na_count", ".input_bytes", ".spans")


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for suffix, unit in ((".calls", "count"), ("na_count", "count"),
                         ("spans", "count"), ("input_bytes", "B_computed"),
                         ("mb_per_s", "MB/s"), ("_ms", "ms"), ("_s", "s"),
                         ("tail_pct", "percentile"), ("ns_per_draw", "ns"),
                         ("ns_per_edge_value", "ns")):
        if name.endswith(suffix):
            return unit
    return "ratio"


sys.path.insert(1, str(SRC))
import spans  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED, WORKLOADS, check_report, golden_digest, prepare, sha256)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="tiny runs each invocation at minimal size (self-check)")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("seed must be an unsigned 64-bit integer")
    return args


def environment() -> dict:
    """What a reader needs to reproduce the run."""
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() if done.returncode == 0 else None
    digest = hashlib.sha256()
    for path in sorted((SRC / "graphtest").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = version(package)
        except PackageNotFoundError:
            versions[package] = None
    return {"commit": commit, "source_sha256": digest.hexdigest(),
            "python": platform.python_version(), **versions,
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_at_start": os.getloadavg()}


def spawn(args: list[str], env: dict) -> tuple[float, int, str, str]:
    """Run ``python3 <args>`` in a new session and wait for it.

    Returns the CLOCK_MONOTONIC time of the spawn, the exit code and the
    output.  The whole process group is killed afterwards, so no pool worker
    outlives a crashed or timed-out child.
    """
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += f"\ntimed out after {CHILD_TIMEOUT_S} s"
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    return spawned, proc.returncode, out, err


def _last_json(text: str):
    lines = text.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def run_cli(job, report: Path, env: dict) -> dict:
    """One CLI invocation in a fresh interpreter, with its report checked."""
    spawned, code, out, err = spawn([str(HERE / "cli_child.py"), *job.argv(report)], env)
    record = {"seed": job.seed, "tests": job.tests, "ok": False, "ran": False}
    info = _last_json(out)
    if code != 0 or info is None or info["exit"] != 0:
        record["problems"] = [f"exit {code}: {err.strip()[-500:]}"]
        return record
    record.update(info, ran=True, setup_s=info["ready"] - spawned)
    data = report.read_bytes()
    record["sha256"] = sha256(data)
    record["problems"] = check_report(job, data)
    record["ok"] = not record["problems"]
    return record


def run_replay(job_json: Path, round_: int, workdir: Path, env: dict) -> dict:
    """One traced replay in a fresh interpreter."""
    report = workdir / f"replay-{round_}.csv"
    spans_path = workdir / f"spans-{round_}.json"
    _, code, out, err = spawn([str(HERE / "replay.py"), str(job_json), str(report),
                               str(spans_path)], env)
    info = _last_json(out)
    if code != 0 or info is None:
        return {"ok": False, "problems": [f"replay exit {code}: {err.strip()[-500:]}"]}
    return {**info, "ok": True, "sha256": sha256(report.read_bytes()),
            "spans": json.loads(spans_path.read_text(encoding="utf-8"))}


def gate(golden: dict, expected: str | None, timed: list[dict],
         seed: int) -> None:
    """Mark invocations whose report differs from what it must be: the
    default-seed report from its recorded digest, and every timed report
    from the first one of the run (and from the digest at the default seed).
    """
    if golden["ok"] and golden["sha256"] != expected:
        golden["ok"] = False
        golden["problems"] = [f"report digest {golden['sha256']} != recorded {expected}"]
    reference = expected if seed == DEFAULT_SEED else next(
        (r["sha256"] for r in timed if r["ok"]), None)
    for record in timed:
        if record["ok"] and record["sha256"] != reference:
            record["ok"] = False
            record["problems"] = [f"report digest {record['sha256']} differs "
                                  f"from {reference} at the same seed"]


def end_to_end(timed: list[dict]) -> dict[str, float]:
    ran = [r for r in timed if r["ran"]]
    return {
        "tests_per_s": statistics.median(r["tests"] / r["main_s"] for r in ran),
        "setup_s": statistics.median(r["setup_s"] for r in ran),
        "cpu_ms_per_test": statistics.median(r["cpu_s"] * 1e3 / r["tests"] for r in ran),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in ran),
    }


def per_layer(replays: list[dict], timed: list[dict], workers: int) -> tuple[dict, list]:
    """Medians over the replays that ran of each layer metric, plus any
    count that did not repeat exactly."""
    done = [r for r in replays if "spans" in r]
    rounds = [spans.layer_metrics(r["spans"], workers) for r in done]
    metrics = {name: statistics.median(m[name] for m in rounds) for name in rounds[0]}
    unsteady = [name for name in metrics if name.endswith(COUNT_SUFFIXES)
                and len({m[name] for m in rounds}) > 1]
    metrics["cli.import_s"] = statistics.median(r["import_s"] for r in done)
    metrics["trace.overhead_frac"] = (
        statistics.median(r["wall_s"] for r in done)
        / statistics.median(r["main_s"] for r in timed if r["ran"]) - 1.0)
    return metrics, unsteady


def main(argv) -> int:
    args = parse_args(argv)
    if not (SRC / "graphtest" / "cli.py").is_file():
        print(f"perfbench: no graphtest sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    workload = WORKLOADS[args.workload]
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "size": args.size, "seconds": args.seconds, "env": environment()}
    workdir = OUT_DIR / f"tmp-{os.getpid()}"
    env = {**os.environ, "PYTHONPATH": str(SRC), "TMPDIR": str(workdir)}
    # Never more pool workers than usable cores.
    threads = min(workload.threads, record["env"]["nproc"])
    try:
        golden_job = prepare(workload, args.size, DEFAULT_SEED, threads, workdir)
        job = (golden_job if args.seed == DEFAULT_SEED
               else prepare(workload, args.size, args.seed, threads, workdir))
        job_json = workdir / "job.json"
        job_json.write_text(json.dumps(job.to_json()), encoding="utf-8")

        golden = run_cli(golden_job, workdir / "golden.csv", env)
        timed, replays = [], []
        start = time.monotonic()
        while not timed or time.monotonic() - start < args.seconds:
            timed.append(run_cli(job, workdir / f"report-{len(timed)}.csv", env))
            if args.trace:
                replay = run_replay(job_json, len(replays), workdir, env)
                if replay["ok"] and replay["sha256"] != timed[-1].get("sha256"):
                    replay["ok"] = False
                    replay["problems"] = ["replayed report differs from the CLI's"]
                replays.append(replay)
                if not replay["ok"]:
                    timed[-1]["ok"] = False
        gate(golden, golden_digest(workload.name, args.size), timed, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not any(r["ran"] for r in timed):
        print(f"perfbench: no invocation ran: {timed[0]['problems']}", file=sys.stderr)
        return 1
    invocations = [golden, *timed]
    attempted = sum(r["tests"] for r in invocations)
    failed = sum(r["tests"] for r in invocations if not r["ok"])
    problems = [p for r in invocations + replays for p in r.get("problems", [])]

    if not args.trace:
        metrics, units = end_to_end(timed), END_TO_END_UNITS
    elif any("spans" in r for r in replays):
        metrics, unsteady = per_layer(replays, timed, threads)
        problems += [f"count {name} differs between replays" for name in unsteady]
        units = {name: unit_of(name) for name in metrics}
    else:
        print(f"perfbench: no replay ran: {problems}", file=sys.stderr)
        return 1
    correct = not problems and failed == 0

    record.update(invocations=invocations, metrics=metrics, problems=problems,
                  replays=[{k: v for k, v in r.items() if k != "spans"} for r in replays],
                  spans=[r.get("spans", []) for r in replays])
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{workload.name}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record), encoding="utf-8")

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"size={args.size} invocations={len(timed)}")
    print("env " + json.dumps(record["env"]))
    for problem in problems[:20]:
        print(f"problem: {problem}")
    shown = {**metrics, "failed_frac": failed / attempted}
    for name, value in shown.items():
        print(f"  {name:<40} {value:>14.6g} {units.get(name, 'ratio')}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
