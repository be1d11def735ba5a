"""ShardedDataset: shard-vs-eager equivalence and content addressing."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cache.keys import dataset_fingerprint
from repro.datasets import ShardedDataset, SyntheticSpec

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _assert_shards_match_eager(spec, num_shards):
    eager = spec.eager()
    sharded = ShardedDataset(spec, num_shards)
    assert tuple(sorted(eager.graph.users())) == sharded.survivors
    seen = []
    for k in range(num_shards):
        shard = sharded.shard(k)
        cohort = sharded.shard_users(k)
        seen.extend(cohort)
        for user in cohort:
            assert shard.graph.replica_candidates(
                user
            ) == eager.graph.replica_candidates(user)
            assert list(shard.trace.created_by(user)) == list(
                eager.trace.created_by(user)
            )
            assert list(shard.trace.received_by(user)) == list(
                eager.trace.received_by(user)
            )
        assert set(shard.trace.activities) <= set(eager.trace.activities)
    # Shards partition the surviving cohort, in order, without overlap.
    assert tuple(seen) == sharded.survivors


class TestShardEquivalence:
    def test_facebook_shards_match_eager_slices(self):
        _assert_shards_match_eager(
            SyntheticSpec(kind="facebook", num_users=300, seed=7), 4
        )

    def test_twitter_shards_match_eager_slices(self):
        # Twitter also exercises the candidate filter in the fixpoint.
        _assert_shards_match_eager(
            SyntheticSpec(kind="twitter", num_users=300, seed=11), 3
        )

    def test_unfiltered_fast_path(self):
        _assert_shards_match_eager(
            SyntheticSpec(
                kind="facebook", num_users=120, seed=5, min_activities=0
            ),
            2,
        )

    def test_single_shard_covers_everything(self):
        spec = SyntheticSpec(kind="facebook", num_users=200, seed=3)
        sharded = ShardedDataset(spec, 1)
        assert sharded.shard_users(0) == sharded.survivors

    def test_more_shards_than_survivors(self):
        spec = SyntheticSpec(kind="facebook", num_users=60, seed=1)
        sharded = ShardedDataset(spec, 500)
        seen = []
        for shard in range(500):
            seen.extend(sharded.shard_users(shard))
        assert tuple(seen) == sharded.survivors

    def test_shard_index_validated(self):
        sharded = ShardedDataset(
            SyntheticSpec(kind="facebook", num_users=60, seed=1), 2
        )
        with pytest.raises(IndexError):
            sharded.shard_users(2)
        with pytest.raises(IndexError):
            sharded.shard_users(-1)

    def test_num_shards_validated(self):
        with pytest.raises(ValueError):
            ShardedDataset(
                SyntheticSpec(kind="facebook", num_users=60, seed=1), 0
            )


class TestSpecValidation:
    def test_kind_checked(self):
        with pytest.raises(ValueError):
            SyntheticSpec(kind="myspace", num_users=100)

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            SyntheticSpec(kind="facebook", num_users=1)
        with pytest.raises(ValueError):
            SyntheticSpec(kind="facebook", num_users=100, min_activities=-1)


class TestContentAddressing:
    def test_shard_fingerprint_prestamped(self):
        # The sweep cache must address a shard without hashing its
        # edges/activities: the fingerprint is stamped at build time and
        # distinct per (spec, shard, num_shards).
        sharded = ShardedDataset(
            SyntheticSpec(kind="facebook", num_users=120, seed=2), 2
        )
        a, b = sharded.shard(0), sharded.shard(1)
        assert dataset_fingerprint(a) == sharded.shard_fingerprint(0)
        assert dataset_fingerprint(a) != dataset_fingerprint(b)

    def test_spec_fingerprint_covers_knobs(self):
        base = SyntheticSpec(kind="facebook", num_users=120, seed=2)
        assert base.fingerprint() == SyntheticSpec(
            kind="facebook", num_users=120, seed=2
        ).fingerprint()
        for other in (
            SyntheticSpec(kind="facebook", num_users=120, seed=3),
            SyntheticSpec(kind="facebook", num_users=121, seed=2),
            SyntheticSpec(kind="twitter", num_users=120, seed=2),
            SyntheticSpec(
                kind="facebook", num_users=120, seed=2, max_degree=9
            ),
        ):
            assert other.fingerprint() != base.fingerprint()


_HANDOVER_SPECS = [
    SyntheticSpec(
        kind="facebook",
        num_users=400,
        seed=4,
        max_degree=20,
        graph_layout="stream",
    ),
    SyntheticSpec(kind="twitter", num_users=300, seed=11),
]


def _shard_key(shard):
    """Everything a sweep reads from a shard, in comparable form."""
    return (
        sorted(shard.graph.users()),
        sorted(shard.graph.edges()),
        shard.trace.activities,
        dataset_fingerprint(shard),
    )


class TestNextShardHandover:
    """Shard ``k + 1`` inherits shard ``k``'s overlap, changing nothing."""

    @pytest.mark.parametrize("spec", _HANDOVER_SPECS, ids=lambda s: s.kind)
    def test_ascending_regenerates_each_new_user_once(
        self, spec, monkeypatch
    ):
        import repro.datasets.sharding as sharding

        calls = []
        real = sharding.user_activities

        def counted(partners, params, seed, user):
            calls.append(user)
            return real(partners, params, seed, user)

        monkeypatch.setattr(sharding, "user_activities", counted)
        sharded = ShardedDataset(spec, 4)
        closures, retained = [], []
        for k in range(4):
            closures.append(set(sharded.shard(k).graph.users()))
            handover = sharded._handover
            retained.append(set(handover[2]) if handover else set())
        expected = len(closures[0]) + sum(
            len(closures[k] - closures[k - 1]) for k in range(1, 4)
        )
        assert len(calls) == expected
        # Only the overlap with the next shard is held, and nothing
        # once the last shard is built.
        for k in range(3):
            assert retained[k] == closures[k] & closures[k + 1]
        assert retained[3] == set()
        # The handover is what saves work: without it every shard
        # would regenerate its whole closure.
        assert expected < sum(
            len(list(ShardedDataset(spec, 4).shard(k).graph.users()))
            for k in range(4)
        )

    @pytest.mark.parametrize("spec", _HANDOVER_SPECS, ids=lambda s: s.kind)
    def test_any_access_order_gives_the_same_shards(self, spec):
        # Each reference shard comes from its own fresh instance, so
        # nothing is inherited.
        reference = [
            _shard_key(ShardedDataset(spec, 4).shard(k)) for k in range(4)
        ]
        skipping = ShardedDataset(spec, 4)
        for k in (3, 1, 1, 2):
            assert _shard_key(skipping.shard(k)) == reference[k], k
        twice = ShardedDataset(spec, 4)
        for _ in range(2):
            assert [_shard_key(shard) for shard in twice] == reference


_SUBPROCESS_SCRIPT = """
import json, random, sys
from repro.datasets import ShardedDataset, SyntheticSpec

kind = sys.argv[1]
spec = SyntheticSpec(kind=kind, num_users=200, seed=13)
eager = spec.eager()
sharded = ShardedDataset(spec, 3)
assert tuple(sorted(eager.graph.users())) == sharded.survivors
shard = random.Random(99).randrange(3)
ds = sharded.shard(shard)
cohort = sharded.shard_users(shard)
for u in cohort:
    assert ds.graph.replica_candidates(u) == eager.graph.replica_candidates(u)
    assert list(ds.trace.created_by(u)) == list(eager.trace.created_by(u))
    assert list(ds.trace.received_by(u)) == list(eager.trace.received_by(u))
print(json.dumps({
    "shard": shard,
    "cohort": list(cohort),
    "activities": [
        (a.timestamp, a.creator, a.receiver) for a in ds.trace.activities
    ],
}))
"""


def _run_under_hashseed(hashseed, kind):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_SCRIPT, kind],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


class TestHashSeedIndependence:
    @pytest.mark.parametrize("kind", ["facebook", "twitter"])
    def test_shard_equals_eager_slice_across_hash_seeds(self, kind):
        # The property (shard == eager slice) is asserted *inside* each
        # subprocess under a random string-hash salt, and the shard's
        # materialised activities must be identical across salts.
        a = _run_under_hashseed("random", kind)
        b = _run_under_hashseed("random", kind)
        c = _run_under_hashseed("0", kind)
        assert a == b == c
