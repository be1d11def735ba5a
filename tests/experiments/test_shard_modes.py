"""Experiment-level sharding: ``shards`` slices every degree sweep, and
``shard_mode="dataset"`` agrees with the default cohort mode.

Cohort mode with ``shards > 1`` dispatches each sweep's cohort one
contiguous slice at a time; the per-user cells are concatenated before
the rollup, so the result data is identical to ``shards=1``.  Dataset
mode streams one shard dataset at a time and merges per-shard
aggregates, so it agrees with cohort mode exactly on integer fields
and up to float-summation order (rel 1e-9) on float fields.
"""

import json
import math

import pytest

from repro.experiments import run_batch, run_experiment
from tests.experiments.test_config_and_registry import TINY

SHARDS = 3
#: Every experiment whose result comes from a degree sweep.
SWEEP_EXPERIMENTS = ["fig3", "fig4", "fig8", "fig9", "fig10", "x3"]


def _assert_close(got, want, path="data"):
    """Ints (and every non-float leaf) exact, floats within rel 1e-9."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), path
        for key in want:
            _assert_close(got[key], want[key], f"{path}[{key!r}]")
    elif isinstance(want, (list, tuple)):
        assert type(got) is type(want) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float), path
        if math.isinf(want) or math.isnan(want):
            assert got == want or (math.isnan(got) and math.isnan(want)), path
        else:
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12), path
    else:
        assert got == want, path


class TestCohortModeSlicing:
    def test_x3_slices_every_sweep_phase(self):
        sliced = run_experiment("x3", TINY, shards=SHARDS)
        whole = run_experiment("x3", TINY, shards=1)
        phases = [
            p for p in sliced.timings["phases"] if p.startswith("sweep[")
        ]
        assert phases
        assert all(f"/{SHARDS}]" in p for p in phases), phases
        for model_phase in whole.timings["phases"]:
            for i in range(1, SHARDS + 1):
                assert f"{model_phase}[shard {i}/{SHARDS}]" in phases
        assert sliced.data == whole.data


class TestDatasetShardMode:
    @pytest.mark.parametrize("experiment_id", SWEEP_EXPERIMENTS)
    def test_dataset_mode_matches_cohort_mode(self, experiment_id):
        cohort = run_experiment(experiment_id, TINY, shards=SHARDS)
        dataset = run_experiment(
            experiment_id, TINY, shards=SHARDS, shard_mode="dataset"
        )
        assert dataset.timings["shard_mode"] == "dataset"
        _assert_close(dataset.data, cohort.data)

    def test_run_batch_records_the_mode(self, tmp_path):
        run_batch(
            tmp_path,
            scale=TINY,
            ids=["fig4"],
            shards=SHARDS,
            shard_mode="dataset",
            use_cache=False,
        )
        summary = json.loads((tmp_path / "batch_summary.json").read_text())
        assert summary["shard_mode"] == "dataset"
        assert summary["shards"] == SHARDS
        assert summary["experiments"]["fig4"]["shard_mode"] == "dataset"
        saved = json.loads((tmp_path / "fig4.json").read_text())
        assert saved["timings"]["shard_mode"] == "dataset"
