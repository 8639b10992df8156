"""Stateful actor-pool apply path: oracle equivalence, key-level
idempotence, actor-loss recovery from the committed manifest."""

import pyarrow as pa
import pytest
import ray
import ray.data as rd

from standardized_omop_data_etl_ray.datagen import make_change_events, micro_batches
from standardized_omop_data_etl_ray.oracle import (
    assert_states_equal,
    canonical_state,
    oracle_apply,
)
from standardized_omop_data_etl_ray.pipelines.actor_apply import ActorLake
from standardized_omop_data_etl_ray.pipelines.cdc import CDCLake
from standardized_omop_data_etl_ray.spec import TableSpec

WINDOW = 400
EVENTS = make_change_events(n_keys=250, n_events=3000, seed=31, window=WINDOW)
ORACLE = oracle_apply(EVENTS)
BATCHES = list(micro_batches(EVENTS, batch_windows=3, window=WINDOW))


def _state(lake) -> pa.Table:
    tabs = [t for t in ray.get(lake.read_state().to_arrow_refs()) if t.num_rows]
    return pa.concat_tables(tabs) if tabs else pa.table({})


def test_actor_replay_matches_oracle(tmp_path):
    lake = ActorLake(tmp_path, TableSpec(name="cdc", num_partitions=8),
                     pool_size=3)
    for b in BATCHES:
        rec = lake.apply_events(rd.from_arrow(b))
        assert rec["committed"]
    assert_states_equal(_state(lake), ORACLE)
    assert rec["live_keys"] == ORACLE.num_rows


def test_actor_and_batch_paths_agree(tmp_path):
    a = ActorLake(tmp_path / "a", TableSpec(name="cdc", num_partitions=8),
                  pool_size=2)
    b = CDCLake(tmp_path / "b", TableSpec(name="cdc", num_partitions=8))
    for batch in BATCHES:
        a.apply_events(rd.from_arrow(batch))
        b.apply_events(rd.from_arrow(batch))
    assert canonical_state(_state(a)).equals(canonical_state(_state(b)))


def test_key_level_stale_rejection(tmp_path):
    """A stale per-key event inside an otherwise-new window is rejected
    by the live index (stronger than the partition watermark)."""
    lake = ActorLake(tmp_path, TableSpec(name="cdc", num_partitions=4),
                     pool_size=2)
    t1 = pa.table(
        {
            "op": ["I", "U"], "lsn": pa.array([1, 5], pa.int64()),
            "repo": ["r", "r"], "path": ["p", "p"],
            "commit": ["a", "b"], "lang": ["py", "py"],
            "content": ["v1", "v5"],
        }
    )
    lake.apply_events(rd.from_arrow(t1))
    # window 2: new key at lsn 10 plus a STALE update (lsn 3) for p
    t2 = pa.table(
        {
            "op": ["U", "I"], "lsn": pa.array([3, 10], pa.int64()),
            "repo": ["r", "r"], "path": ["p", "q"],
            "commit": ["c", "d"], "lang": ["py", "py"],
            "content": ["v3-stale", "q10"],
        }
    )
    rec = lake.apply_events(rd.from_arrow(t2))
    state = canonical_state(_state(lake))
    assert state.column("content").to_pylist() == ["v5", "q10"]
    assert rec["rows_upserted"] == 1  # only the new key landed


def test_actor_loss_recovery(tmp_path):
    lake = ActorLake(tmp_path, TableSpec(name="cdc", num_partitions=8),
                     pool_size=2)
    lake.apply_events(rd.from_arrow(BATCHES[0]))
    committed = canonical_state(_state(lake))

    # crash mid-epoch: phase 1 done, no commit, then ALL actors lost
    rec = lake.apply_events(rd.from_arrow(BATCHES[1]), _fail_before_commit=True)
    assert rec["committed"] is False
    lake.kill_pool()

    # fresh pool rebuilds indexes from the last committed manifest only
    lake.rebuild_pool()
    assert canonical_state(_state(lake)).equals(committed)
    for b in BATCHES[1:]:
        lake.apply_events(rd.from_arrow(b))
    assert_states_equal(_state(lake), ORACLE)


def test_replay_whole_log_is_noop(tmp_path):
    lake = ActorLake(tmp_path, TableSpec(name="cdc", num_partitions=8),
                     pool_size=2)
    for b in BATCHES:
        lake.apply_events(rd.from_arrow(b))
    before = canonical_state(_state(lake))
    rec = lake.apply_events(rd.from_arrow(EVENTS))  # full at-least-once replay
    assert rec["rows_upserted"] == 0 and rec["tombstones"] == 0
    assert canonical_state(_state(lake)).equals(before)


def test_uncommitted_retry_does_not_lose_data(tmp_path):
    """The exactly-once window two-phase commit exists for: phase 1 done,
    phase 2 (manifest commit) fails, SAME driver retries apply_events.
    The key-index epoch transaction must roll the uncommitted mutations
    back so the retry re-accepts the events instead of committing an
    empty epoch (silent data loss)."""
    lake = ActorLake(tmp_path, TableSpec(name="cdc", num_partitions=8),
                     pool_size=2)
    rec = lake.apply_events(rd.from_arrow(BATCHES[0]), _fail_before_commit=True)
    assert rec["committed"] is False and rec["rows_upserted"] > 0
    # in-process retry with the same events (same actors, mutated indexes)
    rec2 = lake.apply_events(rd.from_arrow(BATCHES[0]))
    assert rec2["committed"] is True
    assert rec2["rows_upserted"] == rec["rows_upserted"]
    assert rec2["epoch"] == rec["epoch"]
    # state equals a clean single-shot apply of the batch
    clean = ActorLake(tmp_path / "clean", TableSpec(name="cdc", num_partitions=8),
                      pool_size=2)
    clean.apply_events(rd.from_arrow(BATCHES[0]))
    assert canonical_state(_state(lake)).equals(canonical_state(_state(clean)))
    # and the rest of the log still lands on the oracle
    for b in BATCHES[1:]:
        lake.apply_events(rd.from_arrow(b))
    assert_states_equal(_state(lake), ORACLE)


def test_uncommitted_retry_spillable(tmp_path):
    """Same retry window with spilling indexes (flushes are deferred
    while an epoch is pending, so rollback stays exact)."""
    lake = ActorLake(tmp_path, TableSpec(name="cdc", num_partitions=4),
                     pool_size=2, spill_threshold=40)
    lake.apply_events(rd.from_arrow(BATCHES[0]))
    rec = lake.apply_events(rd.from_arrow(BATCHES[1]), _fail_before_commit=True)
    assert rec["committed"] is False
    rec2 = lake.apply_events(rd.from_arrow(BATCHES[1]))
    assert rec2["rows_upserted"] == rec["rows_upserted"]
    for b in BATCHES[2:]:
        lake.apply_events(rd.from_arrow(b))
    assert_states_equal(_state(lake), ORACLE)


def test_actor_lake_generic_key_spec(tmp_path):
    """ActorLake on a NON-default TableSpec (OMOP-shaped composite key):
    the applier must use spec.key_cols for LWW + deterministic sort, not
    the default (repo, path)."""
    spec = TableSpec(
        name="condition_occurrence",
        key_cols=("person_id", "concept_id"),
        content_col="condition_source_value",
        schema=pa.schema(
            [
                ("op", pa.string()),
                ("lsn", pa.int64()),
                ("person_id", pa.string()),
                ("concept_id", pa.int64()),
                ("condition_source_value", pa.string()),
            ]
        ),
        num_partitions=4,
    )
    base = pa.table(
        {
            "op": ["I", "I", "I"],
            "lsn": pa.array([1, 2, 3], pa.int64()),
            "person_id": ["CASE1", "CTRL1", "CTRL1"],
            "concept_id": pa.array([373182, 373182, 99999], pa.int64()),
            "condition_source_value": ["als dx", "wrong", "unrelated"],
        }
    )
    patch = pa.table(
        {
            "op": ["D", "I"],
            "lsn": pa.array([10, 11], pa.int64()),
            "person_id": ["CTRL1", "CASE2"],
            "concept_id": pa.array([373182, 373182], pa.int64()),
            "condition_source_value": [None, "patched in"],
        }
    )
    lake = ActorLake(tmp_path, spec, pool_size=2)
    lake.apply_events(rd.from_arrow(base))
    lake.apply_events(rd.from_arrow(patch))
    df = lake.read_state().to_pandas()
    got = set(zip(df["person_id"], df["concept_id"]))
    assert got == {("CASE1", 373182), ("CASE2", 373182), ("CTRL1", 99999)}


def test_actor_schema_evolution(tmp_path):
    """Mid-stream column add through the actor path (delta files across
    epochs carry different schemas; read resolves with nulls)."""
    ev = make_change_events(
        n_keys=150, n_events=900, seed=41, window=150, evolve_after_frac=0.5
    )
    early = ev.filter(pa.compute.less(ev["lsn"], 450)).drop_columns(
        ["size_bytes"]
    )
    late = ev.filter(pa.compute.greater_equal(ev["lsn"], 450))
    lake = ActorLake(tmp_path, TableSpec(name="cdc", num_partitions=4),
                     pool_size=2)
    lake.apply_events(rd.from_arrow(early))
    lake.apply_events(rd.from_arrow(late))
    tabs = [t for t in ray.get(lake.read_state().to_arrow_refs()) if t.num_rows]
    state = pa.concat_tables(tabs, promote_options="permissive")
    assert "size_bytes" in state.column_names
    assert_states_equal(state, oracle_apply(ev))


def test_spillable_index_matches_oracle(tmp_path):
    """Tiny spill threshold forces every index through the LSM run path
    (flushes, fence lookups, run compaction) — result must still equal
    the oracle, and stale events must still be rejected from runs."""
    ev = make_change_events(n_keys=400, n_events=5000, seed=55, window=500)
    lake = ActorLake(tmp_path, TableSpec(name="cdc", num_partitions=4),
                     pool_size=2, spill_threshold=50)
    for b in micro_batches(ev, batch_windows=2, window=500):
        lake.apply_events(rd.from_arrow(b))
    tabs = [t for t in ray.get(lake.read_state().to_arrow_refs()) if t.num_rows]
    assert_states_equal(pa.concat_tables(tabs), oracle_apply(ev))
    # spill runs actually exist on disk
    import pathlib
    runs = list(pathlib.Path(tmp_path).glob("cdc/_spill/part=*/run-*.parquet"))
    assert runs, "expected LSM runs on disk with threshold=50"
    # full replay after spilling: still a no-op
    rec = lake.apply_events(rd.from_arrow(ev))
    assert rec["rows_upserted"] == 0 and rec["tombstones"] == 0


def test_spillable_index_unit(tmp_path):
    from standardized_omop_data_etl_ray.state.keyindex import SpillableKeyIndex

    idx = SpillableKeyIndex(tmp_path, spill_threshold=10, max_runs=2)
    t = pa.table(
        {
            "op": ["I"] * 100,
            "lsn": pa.array(range(100), pa.int64()),
            "key_hash": pa.array([i % 40 for i in range(100)], pa.uint64()),
            "content_sha": [f"s{i}" for i in range(100)],
        }
    )
    mask = idx.accept_mask(t)
    # per key: only increasing lsns accepted (all here: each key's lsns rise)
    assert mask.all()
    # stale re-apply rejected even though most keys live in spill runs
    stale = pa.table(
        {
            "op": ["U"] * 40,
            "lsn": pa.array([0] * 40, pa.int64()),
            "key_hash": pa.array(range(40), pa.uint64()),
            "content_sha": ["x"] * 40,
        }
    )
    assert not idx.accept_mask(stale).any()
    assert len(idx) == 40
    # deletes tracked across spill
    d = pa.table(
        {
            "op": ["D"] * 5,
            "lsn": pa.array([1000 + i for i in range(5)], pa.int64()),
            "key_hash": pa.array(range(5), pa.uint64()),
            "content_sha": pa.array([None] * 5, pa.string()),
        }
    )
    assert idx.accept_mask(d).all()
    assert len(idx) == 35


def test_spillable_actor_loss_recovery(tmp_path):
    """Kill actors whose indexes live mostly in spill runs; rebuilt
    actors (fresh spill dirs) must recover from the manifest exactly."""
    ev = make_change_events(n_keys=300, n_events=3000, seed=66, window=300)
    batches = list(micro_batches(ev, batch_windows=3, window=300))
    lake = ActorLake(tmp_path, TableSpec(name="cdc", num_partitions=4),
                     pool_size=2, spill_threshold=40)
    lake.apply_events(rd.from_arrow(batches[0]))
    lake.kill_pool()
    lake.rebuild_pool()
    for b in batches[1:]:
        lake.apply_events(rd.from_arrow(b))
    tabs = [t for t in ray.get(lake.read_state().to_arrow_refs()) if t.num_rows]
    assert_states_equal(pa.concat_tables(tabs), oracle_apply(ev))


def test_actor_lake_compact_and_recover(tmp_path):
    """Maintenance surface parity: compaction + gc on the shared
    manifests, then a rebuilt pool recovers from the compacted files and
    further epochs still land on the oracle."""
    lake = ActorLake(tmp_path, TableSpec(name="cdc", num_partitions=8),
                     pool_size=2)
    for b in BATCHES[:2]:
        lake.apply_events(rd.from_arrow(b))
    before = canonical_state(_state(lake))
    rec = lake.compact()
    removed = lake.gc()
    assert rec["partitions_touched"] > 0 and removed
    assert canonical_state(_state(lake)).equals(before)
    lake.kill_pool(); lake.rebuild_pool()  # recovery from compacted files
    for b in BATCHES[2:]:
        lake.apply_events(rd.from_arrow(b))
    assert_states_equal(_state(lake), ORACLE)
    assert len(lake.lineage()) >= len(BATCHES)


def test_no_resurrection_after_compaction(tmp_path):
    """Compaction drops tombstones from rewritten delta files, so a
    rebuilt actor's index forgets deleted keys; a re-delivered PRE-delete
    event must still be rejected (by the recovered partition watermark)
    instead of resurrecting the key — the batch path is protected by
    _watermark_filter, the actor path by the filter in apply()."""
    lake = ActorLake(tmp_path, TableSpec(name="cdc", num_partitions=4),
                     pool_size=2)
    ins = pa.table(
        {
            "op": ["I", "I"], "lsn": pa.array([1, 2], pa.int64()),
            "repo": ["r", "r"], "path": ["p", "q"],
            "commit": ["a", "b"], "lang": ["py", "py"],
            "content": ["v1", "q2"],
        }
    )
    dele = pa.table(
        {
            "op": ["D"], "lsn": pa.array([5], pa.int64()),
            "repo": ["r"], "path": ["p"],
            "commit": ["c"], "lang": ["py"], "content": [""],
        }
    )
    lake.apply_events(rd.from_arrow(ins))
    lake.apply_events(rd.from_arrow(dele))
    lake.compact()            # rewrites without tombstones, rebuilds pool
    lake.kill_pool()
    lake.rebuild_pool()       # indexes recovered from tombstone-free files
    # redelivery of the original pre-delete insert (lsn 1 <= watermark 5)
    rec = lake.apply_events(rd.from_arrow(ins))
    assert rec["rows_upserted"] == 0
    state = canonical_state(_state(lake))
    assert state.column("path").to_pylist() == ["q"]  # p stays deleted


def test_sha_rollup_parity_across_paths(tmp_path):
    """Byte-identical partition content must produce the same lineage
    checksum whether the batch writer or the actor applier wrote it."""
    from standardized_omop_data_etl_ray.state import manifest as mf

    a = ActorLake(tmp_path / "a", TableSpec(name="cdc", num_partitions=4),
                  pool_size=2)
    b = CDCLake(tmp_path / "b", TableSpec(name="cdc", num_partitions=4))
    a.apply_events(rd.from_arrow(BATCHES[0]))
    b.apply_events(rd.from_arrow(BATCHES[0]))
    ma = mf.read_manifest(tmp_path / "a", "cdc")["partitions"]
    mb = mf.read_manifest(tmp_path / "b", "cdc")["partitions"]
    assert set(ma) == set(mb)
    for p in ma:
        assert ma[p]["sha_rollup"] == mb[p]["sha_rollup"], p


def test_actor_lake_dml_verbs_apply_or_refuse(tmp_path):
    """The DML verbs ActorLake inherits (``delete_where``,
    ``merge_into``) apply through its ``apply_events`` and land on the
    same state as on a CDCLake over the same log; a transactional call
    refuses clearly, because the key index cannot roll back a staged
    epoch."""
    import pyarrow.compute as pc

    from standardized_omop_data_etl_ray.pipelines.cdc import LakeTransaction

    def is_py(t):
        return pc.equal(t.column("lang"), "py").to_numpy(zero_copy_only=False)

    source = rd.from_arrow(pa.table({
        "repo": ["merge_repo", "merge_repo"],
        "path": ["new_0.py", "new_1.py"],
        "commit": ["m1", "m1"], "lang": ["go", "go"],
        "content": ["merged", "merged"],
    }))
    a = ActorLake(tmp_path / "a", TableSpec(name="cdc", num_partitions=4),
                  pool_size=2)
    try:
        b = CDCLake(tmp_path / "b", TableSpec(name="cdc", num_partitions=4))
        for lake in (a, b):
            for batch in BATCHES:
                lake.apply_events(rd.from_arrow(batch))
            assert lake.delete_where(is_py)["tombstones"] > 0
            lake.merge_into(source)
        got = canonical_state(_state(a))
        assert got.equals(canonical_state(_state(b)))
        assert "py" not in got.column("lang").to_pylist()

        with pytest.raises(NotImplementedError, match="CDCLake"):
            a.delete_where(is_py, txn=LakeTransaction(str(tmp_path / "a")))
        assert canonical_state(_state(a)).equals(got)
    finally:
        a.kill_pool()
