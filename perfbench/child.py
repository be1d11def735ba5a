"""One benchmark sub-run, in a fresh interpreter.

Started by ``run.py``; never run by hand.  A fresh interpreter per run
means the program's module-level memos (the cached BENCH datasets,
``compute_schedules``/``packed_schedules``, the sharded views) start
empty every time, as they do for a user's first command.

Modes:

* ``setup``: import and set up, then stop (a set-up time sample);
* ``timed``: set up, run the timed part, check the outputs;
* ``traced``: as ``timed``, with spans around every layer.

``--t0`` is the parent's ``time.perf_counter()`` just before it started
this process.  On Linux that clock is ``CLOCK_MONOTONIC``, shared by all
processes, so ``setup_s`` runs from interpreter start to the first timed
call.  The result is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--mode", choices=("setup", "timed", "traced"), required=True
    )
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace-file", type=Path)
    args = parser.parse_args(argv)

    import repro  # noqa: F401  (imports count towards setup_s)
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    tracer = None
    if args.mode == "traced":
        tracer = tracing.Tracer()
        tracing.install(tracer)
        workload.on_request = lambda i: setattr(tracer, "rid", i)

    workload.setup(args.seed, args.workdir)
    start = time.perf_counter()
    result = {"setup_s": start - args.t0}
    if args.mode != "setup":
        root = tracer.open("workload") if tracer else None
        outputs = workload.run()
        wall = time.perf_counter() - start
        if tracer:
            tracer.close(root)
            tracer.rid = None
        result.update(
            wall_s=wall,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            attempted=outputs["attempted"],
            failed=outputs["failed"],
            metrics=workload.metrics(outputs, wall),
        )
        result["problems"] = workload.check(outputs)
        if tracer:
            tracer.patches.undo()
            layers = tracing.layer_metrics(
                tracer,
                root,
                experiment_ids=workload.experiment_ids(),
                cohort_size=workload.cohort_size(),
                survivor_users=workload.survivor_users(),
            )
            layers.update(workload.layer_metrics(tracer, outputs))
            result["layers"] = layers
            if args.trace_file:
                tracer.write_chrome(args.trace_file)
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
