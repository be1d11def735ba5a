"""Regenerate the committed reference outputs.

Usage (from the repository root)::

    PYTHONPATH=src python3 perfbench/make_reference.py [--seeds 0 1 2 ...]

Writes ``reference/paper_batch.json`` (every experiment's ``data``
section) and ``reference/shard_sweep_seed<N>.json`` (the merged sweep
series) for each seed.  Run it only when a change to the program is
meant to change its outputs, and say so in the change.
"""

from __future__ import annotations

import argparse
import shutil
import tempfile

import reference
from workloads import REFERENCE_DIR, PaperBatch, ShardSweep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, nargs="*", default=list(range(10)))
    args = parser.parse_args(argv)
    REFERENCE_DIR.mkdir(exist_ok=True)
    work = tempfile.mkdtemp()
    try:
        from repro.experiments import load_result

        batch = PaperBatch()
        batch.setup(0, work)
        batch.run()
        reference.store(
            REFERENCE_DIR / "paper_batch.json",
            {
                eid: load_result(batch.out / f"{eid}.json")["data"]
                for eid in batch.ids
            },
        )
        for seed in args.seeds:
            sweep = ShardSweep()
            sweep.setup(seed, work)
            reference.store(
                REFERENCE_DIR / f"shard_sweep_seed{seed}.json",
                sweep.run()["series"],
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
