"""End-to-end benchmark of the repro pipeline.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-batch --seed 1 --seconds 30 --trace 0

Workloads: ``paper-batch``, ``shard-sweep`` and ``query-serve`` (see
``README.md``).  Every timed run is a fresh interpreter running
``child.py``; this process only schedules them, checks their outputs
were correct and aggregates.

* ``--trace 0`` starts timed runs while the next one is expected to end
  within ``--seconds`` (at least one) and reports the median of each
  end-to-end metric over them.  ``setup_s``
  is the median of at least ``SETUP_SAMPLES`` set-ups (extra set-up-only
  runs make up the count).
* ``--trace 1`` runs each traced run between two untraced ones, and
  reports the per-layer metrics of the traced runs (medians) with the
  tracing overhead against their untraced neighbours.

The metric names and units printed are those of ``BENCHMARK.json``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the full record (every sample, stamped with the source revision,
``nproc`` and the Python and numpy versions), also appended to
``.perfbench/records.jsonl``.  Chrome trace-event JSON from the first
traced run goes to ``.perfbench/trace-<workload>-seed<seed>.json``.
The exit code is 1 when an output check fails or a run crashes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = ("paper-batch", "shard-sweep", "query-serve")
#: Set-up samples behind the reported ``setup_s`` median.
SETUP_SAMPLES = 3
#: One child run may take this long before it counts as hung.
CHILD_TIMEOUT_S = 100.0


def fail(message: str) -> "NoReturn":  # noqa: F821
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def child_env(tmp: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    # Keep every file the program writes inside the checkout, and pin
    # the interpreter so that run-to-run timing varies as little as it
    # can (the program's outputs do not depend on any of these).
    env["TMPDIR"] = str(tmp)
    env["REPRO_SEGMENT_REGISTRY_DIR"] = str(tmp / "segments")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(workload: str, seed: int, mode: str, tmp: Path, trace_file=None):
    """One fresh-interpreter run; returns its result dictionary."""
    out = tmp / f"child-{os.getpid()}.json"
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--mode", mode,
        "--workdir", str(tmp),
        "--out", str(out),
    ]
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)],
            env=child_env(tmp),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"{workload} {mode} run exceeded {CHILD_TIMEOUT_S:.0f} s")
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        fail(f"{workload} {mode} run exited with {proc.returncode}")
    result = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    result["elapsed_s"] = elapsed
    return result


def source_stamp() -> Dict[str, object]:
    """Revision, machine and toolchain the record was measured with."""
    import numpy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def git_sha():
    """HEAD's commit from ``.git`` in the checkout, or ``None`` outside
    a git repository (read directly: ``git`` would search parent
    directories)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(workload: str, seed: int, seconds: float, tmp: Path):
    """Timed runs until the budget is spent, then set-up probes."""
    runs: List[dict] = []
    began = time.perf_counter()
    longest = 0.0
    while not runs or time.perf_counter() - began + longest <= seconds:
        runs.append(run_child(workload, seed, "timed", tmp))
        longest = max(longest, runs[-1]["elapsed_s"])
    setups = [r["setup_s"] for r in runs]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_child(workload, seed, "setup", tmp)["setup_s"])
    return runs, setups


def measure_traced(workload: str, seed: int, seconds: float, tmp: Path):
    """Traced runs, each between two untraced ones, while the budget
    lasts; returns the untraced runs, the traced runs and each traced
    run's overhead against the mean of its two neighbours (which
    cancels a steady drift in machine speed)."""
    plain = [run_child(workload, seed, "timed", tmp)]
    traced: List[dict] = []
    overheads: List[float] = []
    began = time.perf_counter()
    longest = 0.0
    while not traced or time.perf_counter() - began + longest <= seconds:
        first = not traced
        trace_file = OUT / f"trace-{workload}-seed{seed}.json" if first else None
        pair_start = time.perf_counter()
        traced.append(run_child(workload, seed, "traced", tmp, trace_file))
        plain.append(run_child(workload, seed, "timed", tmp))
        longest = max(longest, time.perf_counter() - pair_start)
        untraced = (plain[-2]["wall_s"] + plain[-1]["wall_s"]) / 2
        overheads.append(traced[-1]["wall_s"] / untraced - 1.0)
    return plain, traced, overheads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no program to measure: {SRC / 'repro'} is missing")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        if args.trace:
            plain, traced, overheads = measure_traced(
                args.workload, args.seed, args.seconds, tmp
            )
            runs = plain + traced
            samples = {
                name: [r["layers"][name] for r in traced]
                for name in traced[0]["layers"]
            }
            samples["trace.overhead"] = overheads
        else:
            runs, setups = measure(args.workload, args.seed, args.seconds, tmp)
            samples = {
                "setup_s": setups,
                "wall_s": [r["wall_s"] for r in runs],
                "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
            }
            for name in runs[0]["metrics"]:
                samples[name] = [r["metrics"][name] for r in runs]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    problems = [p for r in runs for p in r["problems"]]
    metrics = {}
    for entry in wanted:
        values = samples.get(entry["name"])
        if values is None:
            # A layer this workload never reaches reads 0.
            if args.trace:
                values = [0.0]
            else:
                fail(f"{args.workload} does not report {entry['name']}")
        metrics[entry["name"]] = {"value": median(values), "unit": entry["unit"]}
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "runs": len(runs),
        "samples": samples,
        "problems": problems[:20],
        "stamp": source_stamp(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    line = json.dumps(record, sort_keys=True)
    with open(OUT / "records.jsonl", "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    for problem in problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
