"""Lake semantics: exactly-once, crash/resume, schema evolution, compaction.

The north rule's sink guarantees (BASELINE.json): idempotent two-phase
manifest commit, per-epoch lineage records, resumability from
the last checkpoint manifest after induced failures, replay-equivalence
to the single-process oracle.
"""

import json
import time
from pathlib import Path

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray
import ray.data as rd

from standardized_omop_data_etl_ray.datagen import make_change_events, micro_batches
from standardized_omop_data_etl_ray.oracle import (
    assert_states_equal,
    canonical_state,
    oracle_apply,
)
from standardized_omop_data_etl_ray.pipelines.cdc import CDCLake
from standardized_omop_data_etl_ray.spec import SchemaEvolutionError, TableSpec
from standardized_omop_data_etl_ray.state import manifest as mf

WINDOW = 400
EVENTS = make_change_events(n_keys=300, n_events=4000, seed=13, window=WINDOW)
ORACLE = oracle_apply(EVENTS)
BATCHES = list(micro_batches(EVENTS, batch_windows=3, window=WINDOW))


def _state(lake: CDCLake, at_epoch: int | None = None) -> pa.Table:
    refs = lake.read_state(at_epoch=at_epoch).to_arrow_refs()
    tabs = [t for t in ray.get(refs) if t.num_rows]
    return pa.concat_tables(tabs) if tabs else pa.table({})


def _spec(p=8):
    return TableSpec(name="cdc", num_partitions=p)


@pytest.mark.parametrize("blocks", [1, 3], ids=["one_block", "three_blocks"])
def test_replay_matches_oracle_and_lineage(tmp_path, blocks):
    """One block per epoch runs phase 1 map-only, several run the
    ``part`` exchange; both must replay to the oracle."""
    lake = CDCLake(tmp_path, _spec())
    for b in BATCHES:
        ds = rd.from_arrow(b)
        rec = lake.apply_events(ds if blocks == 1 else ds.repartition(blocks))
        assert rec["committed"]
    assert_states_equal(_state(lake), ORACLE)
    lin = lake.lineage()
    assert len(lin) == len(BATCHES)
    assert all("rows_upserted" in r and "wall_sec" in r for r in lin)
    # the manifest is the one record of phase 1: no marker files
    assert not (Path(tmp_path) / "cdc" / "_markers").exists()


def test_lake_read_blocks_resolve_each_partition_once(tmp_path, monkeypatch):
    """``read_state()``'s schema cannot be inferred from its plan, so
    ``to_arrow_refs()`` reruns the resolver under ``limit(1)``; the
    package's block loops over lake reads run it once per partition.
    The resolver counts its calls in a file (it runs in Ray workers)."""
    from standardized_omop_data_etl_ray.pipelines import cdc, views

    lake = CDCLake(tmp_path / "lake", _spec(4))
    for b in BATCHES[:2]:
        lake.apply_events(rd.from_arrow(b))
    calls = tmp_path / "resolver_calls"
    real = cdc._partition_resolver

    def counting(*args, **kwargs):
        fn = real(*args, **kwargs)

        def resolve_partition(batch):
            with open(calls, "a") as f:
                f.write("x\n")
            return fn(batch)

        return resolve_partition

    monkeypatch.setattr(cdc, "_partition_resolver", counting)
    state = lake.read_state()
    files = views._write_rows(tmp_path / "view", "v", 1, state)
    assert len(calls.read_text().split()) == 4
    rows = sum(pq.read_metadata(tmp_path / "view" / f).num_rows for f in files)
    assert rows == _state(lake).num_rows


def test_exactly_once_replay_is_noop(tmp_path):
    lake = CDCLake(tmp_path, _spec())
    for b in BATCHES:
        lake.apply_events(rd.from_arrow(b))
    before = canonical_state(_state(lake))
    epoch_before = mf.read_manifest(str(tmp_path), "cdc")["epoch"]
    lineage_before = len(lake.lineage())
    # re-deliver the first batch (at-least-once source): watermark skips
    # all, and an epoch with nothing to write commits nothing
    rec = lake.apply_events(rd.from_arrow(BATCHES[0]))
    assert rec["events_seen"] == 0 and rec["partitions_touched"] == 0
    assert rec["committed"] is False
    after = canonical_state(_state(lake))
    assert before.equals(after)
    assert mf.read_manifest(str(tmp_path), "cdc")["epoch"] == epoch_before
    assert len(lake.lineage()) == lineage_before


def test_crash_between_phase1_and_phase2_then_resume(tmp_path, monkeypatch):
    lake = CDCLake(tmp_path, _spec())
    lake.apply_events(rd.from_arrow(BATCHES[0]))
    committed = canonical_state(_state(lake))
    epoch = mf.read_manifest(str(tmp_path), "cdc")["epoch"] + 1

    # crash: phase-1 files written (by the workers), then the
    # driver dies at its first root-manifest write
    real = mf.durable_write

    def crash_at_manifest(path, write):
        if Path(path).name.startswith("manifest-"):
            raise RuntimeError("crash before phase 2")
        real(path, write)

    monkeypatch.setattr(mf, "durable_write", crash_at_manifest)
    with pytest.raises(RuntimeError, match="crash before phase 2"):
        lake.apply_events(rd.from_arrow(BATCHES[1]))
    monkeypatch.undo()
    # orphan delta files exist on disk but are invisible to readers
    assert list(tmp_path.glob(f"cdc/part=*/epoch={epoch:06d}/*.parquet"))
    assert canonical_state(_state(lake)).equals(committed)

    # resume: a NEW lake instance (fresh driver) re-applies the open window
    lake2 = CDCLake(tmp_path, _spec())
    rec2 = lake2.apply_events(rd.from_arrow(BATCHES[1]))
    assert rec2["committed"]
    for b in BATCHES[2:]:
        lake2.apply_events(rd.from_arrow(b))
    assert_states_equal(_state(lake2), ORACLE)


def test_micro_batch_sizing_invariance(tmp_path):
    a = CDCLake(tmp_path / "a", _spec(5))
    for b in micro_batches(EVENTS, batch_windows=1, window=WINDOW):
        a.apply_events(rd.from_arrow(b))
    b_ = CDCLake(tmp_path / "b", _spec(16))
    b_.apply_events(rd.from_arrow(EVENTS))  # one giant epoch
    assert canonical_state(_state(a)).equals(canonical_state(_state(b_)))


def test_hot_key_apply_matches(tmp_path):
    """Half of all events on ONE key (a 39-key catalog has a single hot
    key), each epoch split over several blocks: the per-block combiner
    and the partition reduce still land on the oracle."""
    ev = make_change_events(n_keys=39, n_events=3000, seed=5,
                            hot_share=0.5, window=WINDOW)
    lake = CDCLake(tmp_path, _spec(4))
    for b in micro_batches(ev, batch_windows=2, window=WINDOW):
        lake.apply_events(rd.from_arrow(b).repartition(3))
    assert_states_equal(_state(lake), oracle_apply(ev))


def test_schema_evolution_column_add(tmp_path):
    ev = make_change_events(
        n_keys=600, n_events=1500, seed=21, window=250, evolve_after_frac=0.5
    )
    early = ev.filter(pa.compute.less(ev["lsn"], 750)).drop_columns(["size_bytes"])
    late = ev.filter(pa.compute.greater_equal(ev["lsn"], 750))
    lake = CDCLake(tmp_path, _spec())
    lake.apply_events(rd.from_arrow(early))       # no size_bytes column yet
    lake.apply_events(rd.from_arrow(late))        # column appears mid-stream
    state = _state(lake)
    assert "size_bytes" in state.column_names
    assert_states_equal(state, oracle_apply(ev))
    # rows whose winner predates the evolution have null size_bytes
    assert state.column("size_bytes").null_count > 0


def test_schema_narrowing_rejected():
    spec = TableSpec(name="t", schema=pa.schema([("a", pa.int64())]))
    with pytest.raises(SchemaEvolutionError):
        spec.evolve(pa.schema([("a", pa.string())]))
    widened = spec.evolve(pa.schema([("a", pa.int32()), ("b", pa.float64())]))
    assert widened.field("a").type == pa.int64()
    assert widened.field("b").type == pa.float64()


def test_compact_and_gc(tmp_path):
    lake = CDCLake(tmp_path, _spec(4))
    for b in BATCHES:
        lake.apply_events(rd.from_arrow(b))
    pre = canonical_state(_state(lake))
    rec = lake.compact()
    assert rec["compaction"]
    post = canonical_state(_state(lake))
    assert pre.equals(post)
    removed = lake.gc()
    assert removed, "gc should reclaim superseded delta files"
    assert pre.equals(canonical_state(_state(lake)))
    # no tombstones survive compaction
    m = mf.read_manifest(str(tmp_path), "cdc")
    assert m["compacted"]


def test_watermark_survives_all_deleted_partition(tmp_path):
    """A partition whose keys are all deleted keeps its watermark across
    compaction; replaying a stale pre-delete event must not resurrect."""
    t = pa.table(
        {
            "op": ["I", "U", "D"],
            "lsn": pa.array([1, 2, 3], pa.int64()),
            "repo": ["r", "r", "r"],
            "path": ["p", "p", "p"],
            "commit": ["a", "b", "b"],
            "lang": ["py", "py", None],
            "content": ["x", "y", None],
        }
    )
    lake = CDCLake(tmp_path, _spec(2))
    lake.apply_events(rd.from_arrow(t))
    lake.compact()
    assert _state(lake).num_rows == 0
    # stale redelivery of the U(2) event
    lake2 = CDCLake(tmp_path, _spec(2))
    rec = lake2.apply_events(rd.from_arrow(t.slice(1, 1)))
    assert rec["events_seen"] == 0
    assert _state(lake2).num_rows == 0


def test_partition_metrics_view(tmp_path):
    lake = CDCLake(tmp_path, _spec(4))
    for b in BATCHES[:2]:
        lake.apply_events(rd.from_arrow(b))
    pm = lake.partition_metrics().to_pandas()
    assert len(pm) == 4
    assert (pm["n_files"] >= 1).all()
    assert pm["watermark"].max() > 0
    assert pm["rows"].sum() > 0
    # every file written by this engine carries zone-map stats
    assert (pm["files_with_stats"] == pm["n_files"]).all()


def test_partial_compaction_size_tiered(tmp_path):
    """compact(max_files=K) rewrites only partitions with >K delta files;
    state unchanged; a later full compact flips the fast-scan flag."""
    lake = CDCLake(tmp_path, _spec(4))
    for b in BATCHES:
        lake.apply_events(rd.from_arrow(b))
    pre = canonical_state(_state(lake))
    m0 = mf.read_manifest(str(tmp_path), "cdc")
    max_files_before = max(len(p["files"]) for p in m0["partitions"].values())
    assert max_files_before >= 3

    rec = lake.compact(max_files=2)
    assert rec["partitions_touched"] >= 1
    m1 = mf.read_manifest(str(tmp_path), "cdc")
    assert all(len(p["files"]) <= 2 for p in m1["partitions"].values())
    assert canonical_state(_state(lake)).equals(pre)

    # threshold higher than any count → no-op
    rec2 = lake.compact(max_files=10)
    assert rec2["partitions_touched"] == 0

    # full compact → single base file everywhere, fast-scan flag set
    lake.compact()
    m2 = mf.read_manifest(str(tmp_path), "cdc")
    assert m2["compacted"]
    assert canonical_state(_state(lake)).equals(pre)


def test_bootstrap_from_parquet_then_cdc_wins(tmp_path):
    """S7 passthrough: seed the lake from a plain (non-CDC) parquet
    table, then let real CDC windows override seeded keys under LWW."""
    import pyarrow.parquet as pq

    seed = pa.table(
        {
            "repo": ["r1", "r1", "r2"],
            "path": ["a", "b", "c"],
            "commit": ["s1", "s2", "s3"],
            "lang": ["py", "py", "go"],
            "content": ["seed-a", "seed-b", "seed-c"],
        }
    )
    src = tmp_path / "seed.parquet"
    pq.write_table(seed, src)
    lake = CDCLake(tmp_path / "lake", TableSpec(name="cdc", num_partitions=4))
    rec = lake.bootstrap_from_parquet(str(src))
    assert rec["committed"] and rec["rows_upserted"] == 3

    # a real CDC window at lsn > seed_lsn overrides one key, deletes one
    ev = pa.table(
        {
            "op": ["U", "D"],
            "lsn": pa.array([10, 11], pa.int64()),
            "repo": ["r1", "r2"],
            "path": ["a", "c"],
            "commit": ["c10", "c11"],
            "lang": ["py", None],
            "content": ["updated-a", None],
        }
    )
    lake.apply_events(rd.from_arrow(ev))
    df = lake.read_state().to_pandas().sort_values(["repo", "path"])
    got = dict(zip(zip(df["repo"], df["path"]), df["content"]))
    assert got == {("r1", "a"): "updated-a", ("r1", "b"): "seed-b"}


def test_apply_stream_pipelined_matches_serial(tmp_path):
    """Cross-epoch pipelining (max_inflight=2) must produce the same
    committed state and lineage epochs as the serial loop."""
    from standardized_omop_data_etl_ray.datagen import make_change_events, micro_batches
    from standardized_omop_data_etl_ray.oracle import assert_states_equal, oracle_apply

    ev = make_change_events(n_keys=400, n_events=6000, seed=83, window=500)
    batches = list(micro_batches(ev, batch_windows=2, window=500))

    serial = CDCLake(tmp_path / "s", TableSpec(name="cdc", num_partitions=8))
    srecs = [serial.apply_events(rd.from_arrow(b)) for b in batches]

    piped = CDCLake(tmp_path / "p", TableSpec(name="cdc", num_partitions=8))
    recs = piped.apply_stream(
        (rd.from_arrow(b) for b in batches), max_inflight=2
    )
    assert [r["epoch"] for r in recs] == list(range(1, len(batches) + 1))
    assert all(r["committed"] for r in recs)

    import pyarrow as pa
    import ray

    def state(lake):
        tabs = [t for t in ray.get(lake.read_state().to_arrow_refs()) if t.num_rows]
        return pa.concat_tables(tabs)

    oracle = oracle_apply(ev)
    assert_states_equal(state(serial), oracle)
    assert_states_equal(state(piped), oracle)
    # resumable: a further window applies on top of the piped lake
    more = make_change_events(n_keys=400, n_events=6000, seed=83, window=500)
    rec = piped.apply_events(rd.from_arrow(more))  # full replay → no-op
    assert rec["rows_upserted"] == 0 and rec["tombstones"] == 0

    # one record builder: both apply paths return one key set, with
    # the commit split (commit_sec / commit_wait_sec) on every record
    assert {frozenset(r) for r in srecs + recs} == {frozenset(srecs[0])}
    assert {"commit_sec", "commit_wait_sec"} <= set(srecs[0])


def test_apply_stream_watermark_tightens_across_commits(tmp_path):
    """ADVICE r2: a long stream must refresh its watermark snapshot as
    epochs commit — a later window re-delivering rows at or below an
    EARLIER window's committed watermark (max_inflight=1, so the commit
    precedes the submit) must not re-write them into new delta files."""
    t1 = pa.table(
        {
            "op": ["I", "I"], "lsn": pa.array([1, 2], pa.int64()),
            "repo": ["r", "r"], "path": ["a", "b"],
            "commit": ["c1", "c2"], "lang": ["py", "py"],
            "content": ["a1", "b2"],
        }
    )
    # window 2 re-delivers lsn 1 (straddling segment) plus a new row
    t2 = pa.table(
        {
            "op": ["I", "U"], "lsn": pa.array([1, 5], pa.int64()),
            "repo": ["r", "r"], "path": ["a", "a"],
            "commit": ["c1", "c5"], "lang": ["py", "py"],
            "content": ["a1", "a5"],
        }
    )
    lake = CDCLake(tmp_path, TableSpec(name="cdc", num_partitions=2))
    recs = lake.apply_stream(
        iter([rd.from_arrow(t1), rd.from_arrow(t2)]), max_inflight=1
    )
    assert all(r["committed"] for r in recs)
    # epoch 2 wrote ONLY the new row — the redelivery was dropped by the
    # refreshed watermark, not re-resolved into the delta
    assert recs[1]["events_seen"] == 1
    assert recs[1]["rows_upserted"] == 1
    df = lake.read_state().to_pandas().sort_values("path")
    assert df["content"].tolist() == ["a5", "b2"]


def test_apply_stream_with_mid_stream_schema_evolution(tmp_path):
    """Column added partway through a pipelined stream: earlier in-flight
    epochs may standardize against the already-evolved (wider) spec —
    legal, since evolution is add/widen-only and reads unify; the final
    state must still equal the oracle."""
    from standardized_omop_data_etl_ray.datagen import make_change_events
    from standardized_omop_data_etl_ray.oracle import assert_states_equal, oracle_apply

    ev = make_change_events(
        n_keys=200, n_events=1200, seed=19, window=200, evolve_after_frac=0.5
    )
    early = ev.filter(pa.compute.less(ev["lsn"], 600)).drop_columns(["size_bytes"])
    late = ev.filter(pa.compute.greater_equal(ev["lsn"], 600))
    lake = CDCLake(tmp_path, TableSpec(name="cdc", num_partitions=4))
    recs = lake.apply_stream(
        iter([rd.from_arrow(early), rd.from_arrow(late)]), max_inflight=2
    )
    assert all(r["committed"] for r in recs)
    import ray

    tabs = [t for t in ray.get(lake.read_state().to_arrow_refs()) if t.num_rows]
    state = pa.concat_tables(tabs, promote_options="permissive")
    assert "size_bytes" in state.column_names
    assert_states_equal(state, oracle_apply(ev))


def test_apply_stream_mid_stream_failure_leaves_orphans_invisible(tmp_path):
    """A window that fails during phase 1 aborts the stream: earlier
    epochs are committed, the failed/later epochs' files are invisible
    orphans (gc reclaims them), and a resumed stream lands on the
    oracle."""
    import pytest

    from standardized_omop_data_etl_ray.datagen import make_change_events, micro_batches
    from standardized_omop_data_etl_ray.oracle import assert_states_equal, oracle_apply

    ev = make_change_events(n_keys=200, n_events=2400, seed=29, window=400)
    batches = list(micro_batches(ev, batch_windows=2, window=400))
    assert len(batches) == 3

    def boom(t: pa.Table) -> pa.Table:
        raise RuntimeError("injected mid-stream failure")

    lake = CDCLake(tmp_path, TableSpec(name="cdc", num_partitions=4))

    def windows():
        yield rd.from_arrow(batches[0])
        yield rd.from_arrow(batches[1]).map_batches(boom, batch_format="pyarrow")
        yield rd.from_arrow(batches[2])

    with pytest.raises(Exception, match="injected|RayTaskError|Failed"):
        lake.apply_stream(windows(), max_inflight=2)

    # epoch 1 may or may not have committed before the abort; whatever
    # IS committed must be a prefix of the log and readable
    import ray

    from standardized_omop_data_etl_ray.state import manifest as mf

    m = mf.read_manifest(tmp_path, "cdc")
    committed_epoch = m["epoch"] if m else 0
    assert committed_epoch <= 1
    # orphan delta files from uncommitted epochs are invisible + reclaimable
    removed = lake.gc()
    if committed_epoch == 0:
        assert not list((tmp_path / "cdc").rglob("epoch=*/delta.parquet"))
    # resume: re-apply the whole log (idempotent) → oracle state
    for b in batches:
        lake.apply_events(rd.from_arrow(b))
    tabs = [t for t in ray.get(lake.read_state().to_arrow_refs()) if t.num_rows]
    assert_states_equal(pa.concat_tables(tabs), oracle_apply(ev))


def test_schema_rename_remapping_through_lake(tmp_path):
    """OMOP-style field remapping (spec.rename): later windows deliver
    the content under a RENAMED source column; the spec maps it back to
    the target name, and the renamed column must NOT appear as a
    spurious new field in the evolved schema."""
    spec = TableSpec(name="cdc", num_partitions=4, rename={"body": "content"})
    lake = CDCLake(tmp_path, spec)
    w1 = pa.table(
        {
            "op": ["I", "I"], "lsn": pa.array([1, 2], pa.int64()),
            "repo": ["r", "r"], "path": ["a", "b"],
            "commit": ["c1", "c2"], "lang": ["py", "py"],
            "content": ["v1", "v2"],
        }
    )
    # upstream renamed content -> body
    w2 = pa.table(
        {
            "op": ["U"], "lsn": pa.array([5], pa.int64()),
            "repo": ["r"], "path": ["a"],
            "commit": ["c5"], "lang": ["py"],
            "body": ["v5-renamed"],
        }
    )
    lake.apply_events(rd.from_arrow(w1))
    lake.apply_events(rd.from_arrow(w2))
    df = lake.read_state().to_pandas().sort_values("path")
    assert list(df["content"]) == ["v5-renamed", "v2"]
    assert "body" not in df.columns
    assert "body" not in [f.name for f in lake.spec.schema]


def test_curation_gate_retracts_and_passes_deletes(tmp_path):
    """make_curation_gate inside the apply path: an UPDATE that fails
    the gate retracts its key (the earlier accepted version must NOT
    survive by LWW), a failing INSERT never appears, a real delete
    passes through, and passing rows are untouched."""
    from standardized_omop_data_etl_ray.stages.standardize import (
        make_curation_gate,
    )

    spec = _spec(4)

    def content_ok(batch: pa.Table):
        import numpy as np

        c = batch.column("content").to_pandas().fillna("")
        return (~c.str.contains("BAD")).to_numpy()

    def ev(op, lsn, path, content):
        return {"op": op, "lsn": lsn, "repo": "r", "path": path,
                "commit": f"c{lsn}", "content": content}

    events = rd.from_items([
        ev("I", 1, "keep.txt", "good v0"),
        ev("U", 2, "keep.txt", "good v1"),
        ev("I", 3, "retract.txt", "good v0"),
        ev("U", 4, "retract.txt", "BAD v1"),      # gate → tombstone
        ev("I", 5, "nevergood.txt", "BAD v0"),    # gated insert
        ev("I", 6, "deleted.txt", "good v0"),
        ev("D", 7, "deleted.txt", None),           # real delete passes
    ])
    lake = CDCLake(tmp_path, spec, gate=make_curation_gate(spec, content_ok))
    lake.apply_events(events)
    st = _state(lake)
    by_path = {r["path"]: r for r in st.to_pylist()}
    assert set(by_path) == {"keep.txt"}
    assert by_path["keep.txt"]["content"] == "good v1"
    # a later GOOD update revives a retracted key (gate is per-version)
    lake.apply_events(rd.from_items([ev("U", 8, "retract.txt", "good v2")]))
    st2 = _state(lake)
    paths = {r["path"]: r["content"] for r in st2.to_pylist()}
    assert paths == {"keep.txt": "good v1", "retract.txt": "good v2"}


def test_curation_gate_on_sliced_batch_keeps_passing_rows():
    """Ray hands the gate zero-copy slices (non-zero array offsets):
    nulling the gated rows' payload must leave valid arrays and the
    passing rows' values untouched."""
    from standardized_omop_data_etl_ray.stages.standardize import (
        make_curation_gate,
    )

    full = pa.table({
        "op": ["I", "U", "U", "U", "U", "U"],
        "lsn": pa.array(range(6), pa.int64()),
        "repo": ["r"] * 6, "path": [f"p{i}" for i in range(6)],
        "commit": [str(i) for i in range(6)], "lang": ["py"] * 6,
        "content": [f"v{i}" for i in range(6)],
    })
    batch = full.slice(2, 4)
    gate = make_curation_gate(
        _spec(4), lambda t: pa.array([False, True, False, True]))
    out = gate(batch)
    out.validate(full=True)
    assert out.column("op").to_pylist() == ["D", "U", "D", "U"]
    assert out.column("__gated").to_pylist() == [True, False, True, False]
    for c in ("commit", "lang", "content"):
        got = out.column(c).to_pylist()
        assert got[0] is None and got[2] is None, c
        assert [got[1], got[3]] == batch.column(c).to_pylist()[1::2], c


def test_gate_audit_counts_in_commit_and_metrics(tmp_path):
    """ROADMAP #19: per-epoch gated-row counts surface in the commit
    record (`rows_gated`, distinct from organic deletes) and accumulate
    in partition_metrics()."""
    from standardized_omop_data_etl_ray.stages.standardize import (
        make_curation_gate,
    )

    spec = _spec(4)

    def content_ok(batch: pa.Table):
        import numpy as np

        c = batch.column("content").to_pandas().fillna("")
        return (~c.str.contains("BAD")).to_numpy()

    def ev(op, lsn, path, content):
        return {"op": op, "lsn": lsn, "repo": "r", "path": path,
                "commit": f"c{lsn}", "content": content}

    lake = CDCLake(tmp_path, spec,
                   gate=make_curation_gate(spec, content_ok))
    rec1 = lake.apply_events(rd.from_items([
        ev("I", 1, "a.txt", "good"),
        ev("I", 2, "b.txt", "BAD one"),      # gated
        ev("I", 3, "c.txt", "BAD two"),      # gated
        ev("I", 4, "d.txt", "good"),
        ev("D", 5, "a.txt", None),           # organic delete, NOT gated
    ]))
    assert rec1["rows_gated"] == 2
    assert rec1["tombstones"] == 3          # 2 gated + 1 organic
    rec2 = lake.apply_events(rd.from_items([
        ev("U", 6, "d.txt", "BAD now"),      # gated update
    ]))
    assert rec2["rows_gated"] == 1
    pm = lake.partition_metrics().to_pandas()
    assert int(pm["gated"].sum()) == 3       # cumulative across epochs
    # state has only the surviving good row; no __gated column leaks
    st = lake.read_state().to_pandas()
    assert "__gated" not in st.columns
    assert len(st) == 0  # d gated, a deleted, b/c never in


def test_auto_compaction_caps_delta_files(tmp_path):
    """Size-tiered compaction fires from the commit path once any
    partition exceeds auto_compact_files deltas; state stays exact and
    file counts drop back to one base per partition."""
    spec = _spec(2)
    lake = CDCLake(tmp_path, spec, auto_compact_files=3)

    def ev(op, lsn, path, content):
        return {"op": op, "lsn": lsn, "repo": "r", "path": path,
                "commit": f"c{lsn}", "content": content}

    for e in range(6):
        lake.apply_events(rd.from_items([
            ev("I" if e == 0 else "U", 10 * e + 1, "x.txt", f"v{e}"),
            ev("I" if e == 0 else "U", 10 * e + 2, "y.txt", f"w{e}"),
        ]))
    pm = lake.partition_metrics().to_pandas()
    assert int(pm["n_files"].max()) <= 4     # capped, not 6
    assert any(r.get("compaction") for r in lake.lineage())
    st = lake.read_state().to_pandas().sort_values("path")
    assert list(st["content"]) == ["v5", "w5"]
    # exactly-once survives compaction: replaying an old window is a no-op
    lake.apply_events(rd.from_items([ev("U", 3, "x.txt", "stale")]))
    st2 = lake.read_state().to_pandas().sort_values("path")
    assert list(st2["content"]) == ["v5", "w5"]


def test_epoch_change_set_matches_snapshot_diff_and_prunes(tmp_path):
    """Delta-sourced change set (epoch_change_set) equals the full-state
    snapshot_diff for the same epoch, and a sparse epoch reads ONLY the
    touched partitions (rows-processed evidence, VERDICT r3 #5)."""
    import pandas as pd

    from standardized_omop_data_etl_ray.pipelines.cdc import (
        epoch_change_set,
    )
    from standardized_omop_data_etl_ray.stages.merge import snapshot_diff

    spec = _spec(8)
    lake = CDCLake(tmp_path, spec)

    def ev(op, lsn, path, content):
        return {"op": op, "lsn": lsn, "repo": "r", "path": path,
                "commit": f"c{lsn}", "content": content}

    # epoch 1: broad insert
    lake.apply_events(rd.from_items([
        ev("I", i, f"f{i}.txt", f"v0 of {i}") for i in range(1, 33)
    ]))
    state1 = lake.read_state(drop_engine_cols=True).materialize()

    # epoch 2 (sparse): one update, one delete, one insert, one no-op
    # tombstone of a never-live key
    rec = lake.apply_events(rd.from_items([
        ev("U", 100, "f3.txt", "v1 of 3"),
        ev("D", 101, "f7.txt", None),
        ev("I", 102, "new.txt", "brand new"),
        ev("D", 103, "ghost.txt", None),
    ]))
    state2 = lake.read_state(drop_engine_cols=True).materialize()

    stats = {}
    got = (
        epoch_change_set(lake, rec["epoch"], carry_cols=["content"],
                         stats_out=stats)
        .to_pandas().sort_values("path").reset_index(drop=True)
    )
    want = (
        snapshot_diff(state1, state2, ["repo", "path"], "lsn",
                      carry_cols=["content"])
        .to_pandas().sort_values("path").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got[["repo", "path", "change", "old_content", "new_content"]],
        want[["repo", "path", "change", "old_content", "new_content"]],
    )
    assert set(got["change"]) == {"updated", "deleted", "added"}
    # pruning: 4 touched keys can touch at most 4 of 8 partitions
    assert stats["partitions_touched"] <= 4
    assert stats["partitions_total"] == 8


def test_midstream_autocompaction_no_epoch_collision(tmp_path):
    """A compaction fired from the commit path while later stream
    windows are still in flight must not share an epoch with any
    pre-assigned window (review finding, round 4: the collision
    overwrote an in-flight window's delta file).  Final state must be
    the last version of every key."""
    spec = _spec(2)
    lake = CDCLake(tmp_path, spec, auto_compact_files=3)

    def win(e):
        return pa.table({
            "op": ["I" if e == 0 else "U"] * 2,
            "lsn": pa.array([10 * e + 1, 10 * e + 2], pa.int64()),
            "repo": ["r", "r"],
            "path": ["x.txt", "y.txt"],
            "commit": [f"c{e}a", f"c{e}b"],
            "content": [f"vx{e}", f"vy{e}"],
        })

    windows = (rd.from_arrow(win(e)) for e in range(8))
    records = lake.apply_stream(windows, max_inflight=6)
    assert len(records) == 8
    # unique epochs across data commits AND compactions
    data_epochs = [r["epoch"] for r in records]
    comp_epochs = [r["epoch"] for r in lake.lineage()
                   if r.get("compaction")]
    assert comp_epochs, "compaction should have fired"
    all_epochs = data_epochs + comp_epochs
    assert len(all_epochs) == len(set(all_epochs)), all_epochs
    st = lake.read_state().to_pandas().sort_values("path")
    assert list(st["content"]) == ["vx7", "vy7"]
    # manifest rows accounting: each file appears once
    m = mf.read_manifest(str(tmp_path), "cdc")
    for p, info in m["partitions"].items():
        assert len(info["files"]) == len(set(info["files"])), info


def test_epoch_change_set_survives_same_commit_compaction(tmp_path):
    """epoch_change_set reads the epoch's OWN manifest snapshot, so a
    compaction triggered by that very commit (or any later one) cannot
    zero out the change set (review finding, round 4)."""
    from standardized_omop_data_etl_ray.pipelines.cdc import (
        epoch_change_set,
    )

    spec = _spec(2)
    lake = CDCLake(tmp_path, spec, auto_compact_files=2)

    def ev(op, lsn, path, content):
        return {"op": op, "lsn": lsn, "repo": "r", "path": path,
                "commit": f"c{lsn}", "content": content}

    recs = []
    for e in range(5):
        recs.append(lake.apply_events(rd.from_items([
            ev("I" if e == 0 else "U", 10 * e + 1, "x.txt", f"v{e}"),
            ev("I" if e == 0 else "U", 10 * e + 2, "y.txt", f"w{e}"),
        ])))
    assert any(r.get("compaction") for r in lake.lineage())
    # every epoch's change set is non-empty and correct, even those
    # whose commit fired the compaction
    for e, rec in enumerate(recs):
        diff = epoch_change_set(
            lake, rec["epoch"], carry_cols=["content"]
        ).to_pandas().sort_values("path").reset_index(drop=True)
        assert len(diff) == 2, (e, rec["epoch"], diff)
        want = "added" if e == 0 else "updated"
        assert set(diff["change"]) == {want}
        assert list(diff["new_content"]) == [f"v{e}", f"w{e}"]
        if e > 0:
            assert list(diff["old_content"]) == [f"v{e-1}", f"w{e-1}"]


def test_time_travel_read_and_retention(tmp_path):
    """read_state(at_epoch=e) reproduces the state as of each commit via
    the COW manifest log; compaction never perturbs a snapshot; gc's
    retention window controls when snapshots expire (loudly)."""
    lake = CDCLake(tmp_path, _spec())
    states, epochs = [], []
    for b in BATCHES:
        lake.apply_events(rd.from_arrow(b))
        epochs.append(mf.read_manifest(str(tmp_path), "cdc")["epoch"])
        states.append(canonical_state(_state(lake)))
    assert lake.snapshot_epochs() == epochs

    for e, want in zip(epochs, states):
        assert canonical_state(_state(lake, at_epoch=e)).equals(want)

    # compaction commits a NEW manifest; old snapshots read the old
    # files (copy-on-write), byte-identical
    lake.compact()
    assert canonical_state(_state(lake, at_epoch=epochs[0])).equals(states[0])

    # delta files are shared across manifest snapshots (merge-on-read
    # accumulates), so retaining the last pre-compaction manifest keeps
    # EVERY earlier epoch readable too
    lake.gc(retain_manifests=2)
    assert canonical_state(_state(lake, at_epoch=epochs[0])).equals(states[0])

    # tight retention reclaims the superseded deltas: the snapshot read
    # fails loudly at plan time, never mid-pipeline
    lake.gc(retain_manifests=1)
    with pytest.raises(ValueError, match="expired"):
        lake.read_state(at_epoch=epochs[0])
    with pytest.raises(ValueError, match="no manifest snapshot"):
        lake.read_state(at_epoch=9999)

    # current state unaffected throughout
    assert canonical_state(_state(lake)).equals(states[-1])


def test_zone_map_lookup_and_lsn_pruned_reads(tmp_path):
    """Manifest zone maps (per-file lsn/key min-max): point lookups
    read only surviving files and match the oracle; lsn-range delta
    reads prune cold files at plan time; compaction rewrites stats."""
    lake = CDCLake(tmp_path, _spec())
    for b in BATCHES:
        lake.apply_events(rd.from_arrow(b))

    m = mf.read_manifest(str(tmp_path), "cdc")
    n_files = sum(len(i["files"]) for i in m["partitions"].values())
    for info in m["partitions"].values():
        assert set(info["file_stats"]) == set(info["files"])
        for st in info["file_stats"].values():
            assert set(st) == {"lsn", "repo", "path"}

    # point lookup of known keys == oracle rows for those keys
    odf = ORACLE.to_pandas()
    sought = odf[["repo", "path"]].drop_duplicates().head(5)
    keys = sought.to_dict("records")
    stats = {}
    got = lake.lookup(keys, stats_out=stats)
    want = odf.merge(sought, on=["repo", "path"])
    gdf = got.to_pandas()[["repo", "path", "commit", "content"]]
    wdf = want[["repo", "path", "commit", "content"]]
    pd.testing.assert_frame_equal(
        gdf.sort_values(["repo", "path"], ignore_index=True),
        wdf.sort_values(["repo", "path"], ignore_index=True),
    )
    assert 0 < stats["files_read"] <= stats["files_total"] <= n_files

    # a key above every zone map prunes ALL files
    stats = {}
    miss = lake.lookup([{"repo": "￿", "path": "￿"}],
                       stats_out=stats)
    assert miss.num_rows == 0 and stats["files_read"] == 0
    assert stats["files_total"] > 0

    # lsn-range read: plan-time file pruning + exact row filter
    lo, hi = WINDOW, 2 * WINDOW - 1  # exactly batch window 1
    pruned = lake.read_deltas(lsn_range=(lo, hi))
    assert len(pruned.input_files()) < n_files
    # regression: the pruned plan used to hive-inject an `epoch` path
    # column the full-scan plan didn't — one verb, one output schema
    assert pruned.schema().names == lake.read_deltas().schema().names
    lsns = pruned.to_pandas()["lsn"]
    full = lake.read_deltas().to_pandas()
    assert sorted(lsns) == sorted(
        full[(full["lsn"] >= lo) & (full["lsn"] <= hi)]["lsn"]
    )

    # compaction: fresh stats for base files, stale ones dropped;
    # lookup still oracle-exact afterwards
    lake.compact()
    m2 = mf.read_manifest(str(tmp_path), "cdc")
    for info in m2["partitions"].values():
        assert set(info["file_stats"]) == set(info["files"])
    got2 = lake.lookup(keys)
    assert canonical_state(got2).equals(canonical_state(got))


def test_changes_between_equals_endpoint_snapshot_diff(tmp_path):
    """The composed net change set over an epoch span equals
    snapshot_diff of the two endpoint time-travel snapshots — including
    add→delete netting to nothing, delete→re-add, update chains, and a
    changed-and-reverted key dropping out."""
    from standardized_omop_data_etl_ray.stages.merge import snapshot_diff

    spec = _spec(4)
    lake = CDCLake(tmp_path, spec, auto_compact_files=None)

    def ev(op, lsn, path, content):
        return {"op": op, "lsn": lsn, "repo": "r", "path": path,
                "commit": f"c{lsn}", "content": content}

    epochs = []
    for batch in (
        # epoch 1 (baseline for the span)
        [ev("I", 1, "a", "a0"), ev("I", 2, "b", "b0"),
         ev("I", 3, "c", "c0"), ev("I", 4, "r1", "r0")],
        # epoch 2: add d, update a, delete b, revert-prep r1
        [ev("I", 11, "d", "d0"), ev("U", 12, "a", "a1"),
         ev("D", 13, "b", None), ev("U", 14, "r1", "r1x")],
        # epoch 3: delete d (added in span → nets out), update a again,
        # delete-then-readd b nets to updated, add e (pure add), delete
        # c (pure delete of a baseline key)
        [ev("D", 21, "d", None), ev("U", 22, "a", "a2"),
         ev("I", 23, "b", "b1"), ev("I", 24, "e", "e0"),
         ev("D", 25, "c", None)],
    ):
        rec = lake.apply_events(rd.from_items(batch))
        epochs.append(rec["epoch"])

    got = (
        lake.changes_between(epochs[0], carry_cols=["content"])
        .to_pandas().sort_values("path", ignore_index=True)
    )
    want = (
        snapshot_diff(
            lake.read_state(drop_engine_cols=True, at_epoch=epochs[0]),
            lake.read_state(drop_engine_cols=True),
            ["repo", "path"], "lsn", carry_cols=["content"],
        )
        .to_pandas().sort_values("path", ignore_index=True)
    )
    cols = ["repo", "path", "change", "old_content", "new_content"]
    pd.testing.assert_frame_equal(got[cols], want[cols])
    # d was added AND deleted inside the span — absent from the net
    assert "d" not in set(got["path"])
    assert set(got["change"]) == {"updated", "deleted", "added"}

    # empty span
    assert lake.changes_between(epochs[-1]).count() == 0


def test_reshard_preserves_state_and_exactly_once(tmp_path):
    """reshard(new_P) re-hashes the lake (cluster-resize): state is
    byte-identical before/after, later applies land on the new layout,
    a fresh instance adopts it from the manifest, and re-delivering
    already-applied windows across the boundary stays a no-op —
    including a delete whose tombstone must survive the rewrite (the
    resurrect hazard the retained tombstones + min-watermark prevent)."""
    lake = CDCLake(tmp_path, _spec(4))
    for b in BATCHES[:2]:
        lake.apply_events(rd.from_arrow(b))
    before = canonical_state(_state(lake))

    rec = lake.reshard(11)
    assert rec["reshard"] and rec["partitions_touched"] > 0
    m = mf.read_manifest(str(tmp_path), "cdc")
    assert m["num_partitions"] == 11
    assert len([p for p, i in m["partitions"].items() if i["files"]]) <= 11
    assert canonical_state(_state(lake)).equals(before)

    # re-deliver BOTH already-applied windows on the new layout: no-op
    for b in BATCHES[:2]:
        lake.apply_events(rd.from_arrow(b))
    assert canonical_state(_state(lake)).equals(before)

    # the remaining windows apply correctly post-reshard; final state
    # equals the oracle of the full event log
    for b in BATCHES[2:]:
        lake.apply_events(rd.from_arrow(b))
    assert_states_equal(_state(lake), ORACLE)

    # a fresh instance adopts the resharded layout from the manifest
    lake2 = CDCLake(tmp_path, TableSpec(name="cdc"))
    assert lake2.spec.num_partitions == 11
    assert_states_equal(_state(lake2), ORACLE)

    # compact afterwards drops the retained tombstones; state unchanged
    lake2.compact()
    assert_states_equal(_state(lake2), ORACLE)

    # change-set readers skip the reshard epoch (compaction-class)
    reshard_epochs = [r["epoch"] for r in lake2.lineage()
                      if r.get("reshard")]
    assert reshard_epochs
    net = lake2.changes_between(reshard_epochs[0] - 1)
    # only the genuinely-applied window 3 shows up in the span
    assert net.count() > 0


def test_reshard_guards_redelivery_into_empty_partitions(tmp_path):
    """A new partition the reshard rewrite leaves EMPTY still carries
    the min of the old watermarks: a key deleted and compacted away
    before the reshard must not be resurrected by a redelivered
    pre-delete insert that hashes into such a partition."""
    ins = pa.table({"op": ["I", "I"], "lsn": pa.array([1, 2], pa.int64()),
                    "repo": ["r", "r"], "path": ["a", "b"],
                    "commit": ["c", "c"], "lang": ["py", "py"],
                    "content": ["x", "y"]})
    dele = pa.table({"op": ["D"], "lsn": pa.array([3], pa.int64()),
                     "repo": ["r"], "path": ["a"], "commit": [None],
                     "lang": [None], "content": [None]}).cast(ins.schema)
    lake = CDCLake(tmp_path, _spec(2))
    lake.apply_events(rd.from_arrow(ins))
    lake.apply_events(rd.from_arrow(dele))
    lake.compact()  # drops a's tombstone (at/below the watermark)
    lake.reshard(16)
    m = mf.read_manifest(str(tmp_path), "cdc")
    assert len(m["partitions"]) == 16
    assert all(i["watermark"] >= 2 for i in m["partitions"].values())
    lake.apply_events(rd.from_arrow(ins))  # redeliver the insert
    assert sorted(_state(lake).column("path").to_pylist()) == ["b"]


def test_dead_letter_queue(tmp_path):
    """dead_letter=True diverts malformed events (null key, null lsn,
    unknown op) to _dead_letter/ instead of failing the epoch; clean
    rows apply exactly as without the poison pills; the default lake
    still fails loudly; a missing key COLUMN is a schema error either
    way."""
    import numpy as np

    def ev_table(rows):
        cols = {k: [r.get(k) for r in rows]
                for k in ("op", "lsn", "repo", "path", "commit", "content")}
        return pa.table({
            "op": pa.array(cols["op"], pa.string()),
            "lsn": pa.array(cols["lsn"], pa.int64()),
            "repo": pa.array(cols["repo"], pa.string()),
            "path": pa.array(cols["path"], pa.string()),
            "commit": pa.array(cols["commit"], pa.string()),
            "content": pa.array(cols["content"], pa.string()),
        })

    good = [
        {"op": "I", "lsn": 1, "repo": "r", "path": "a", "commit": "c1",
         "content": "a0"},
        {"op": "I", "lsn": 2, "repo": "r", "path": "b", "commit": "c2",
         "content": "b0"},
    ]
    poison = [
        {"op": "I", "lsn": 3, "repo": None, "path": "x", "commit": "c3",
         "content": "x"},                                    # null key
        {"op": "U", "lsn": None, "repo": "r", "path": "a", "commit": "c4",
         "content": "a?"},                                   # null lsn
        {"op": "Z", "lsn": 5, "repo": "r", "path": "b", "commit": "c5",
         "content": "b?"},                                   # unknown op
        {"op": None, "lsn": 6, "repo": "r", "path": "b", "commit": "c6",
         "content": "b?"},                                   # null op
    ]
    mixed = ev_table(good + poison)

    # default lake: fail loudly on the poison batch
    strict = CDCLake(tmp_path / "strict", _spec(2))
    with pytest.raises(Exception):
        strict.apply_events(rd.from_arrow(mixed))

    # DLQ lake: clean rows commit, poison rows diverted with reasons
    lake = CDCLake(tmp_path / "dlq", _spec(2), dead_letter=True)
    rec = lake.apply_events(rd.from_arrow(mixed))
    assert rec["committed"] and rec["rows_dead_lettered"] == 4
    st = canonical_state(_state(lake))
    want = CDCLake(tmp_path / "clean", _spec(2))
    want.apply_events(rd.from_arrow(ev_table(good)))
    assert st.equals(canonical_state(_state(want)))

    dl = lake.read_dead_letters().to_pandas()
    assert len(dl) == 4
    assert set(dl["__dlq_reason"]) == {"null key repo", "null lsn",
                                       "invalid op"}

    # a missing key COLUMN raises even with the DLQ on
    with pytest.raises(Exception, match="schema error|missing"):
        lake.apply_events(
            rd.from_arrow(ev_table(good).drop_columns(["repo"]))
        )


def test_clone_branches_independently(tmp_path):
    """clone(dest) forks the lake by hardlinking immutable data files:
    the branch reads the same state (or a time-travel snapshot), both
    sides evolve independently, and gc on the SOURCE cannot break the
    branch (shared inodes survive unlink)."""
    lake = CDCLake(tmp_path / "src", _spec(4))
    for b in BATCHES[:2]:
        lake.apply_events(rd.from_arrow(b))
    fork_state = canonical_state(_state(lake))
    epochs = lake.snapshot_epochs()

    branch = lake.clone(str(tmp_path / "branch"))
    assert canonical_state(_state(branch)).equals(fork_state)

    # time-travel clone: the branch is the FIRST epoch's state
    early = lake.clone(str(tmp_path / "early"), at_epoch=epochs[0])
    assert canonical_state(_state(early)).equals(
        canonical_state(_state(lake, at_epoch=epochs[0]))
    )

    # diverge: source applies the remaining windows, branch applies a
    # patch of its own — neither sees the other's writes
    for b in BATCHES[2:]:
        lake.apply_events(rd.from_arrow(b))
    patch = pa.table({
        "op": ["I"], "lsn": pa.array([10_000_000], pa.int64()),
        "repo": ["branch-only"], "path": ["p"], "commit": ["c"],
        "content": ["z"],
    })
    branch.apply_events(rd.from_arrow(patch))
    assert_states_equal(_state(lake), ORACLE)
    bdf = _state(branch).to_pandas()
    assert "branch-only" in set(bdf["repo"])
    assert canonical_state(_state(lake)).num_rows == ORACLE.num_rows

    # source compact + tight gc reclaims ITS directory entries; the
    # branch's hardlinked files keep the inodes alive
    lake.compact()
    lake.gc(retain_manifests=1)
    assert "branch-only" in set(_state(branch).to_pandas()["repo"])
    assert canonical_state(_state(branch)).num_rows == fork_state.num_rows + 1

    # cloning onto an existing lake refuses
    with pytest.raises(ValueError, match="already has a lake"):
        lake.clone(str(tmp_path / "branch"))


def test_clone_at_epoch_links_only_its_lineage(tmp_path):
    """clone(at_epoch=e) carries only the manifests of the fork
    snapshot's lineage: later source snapshots are not the branch's
    history, so time travel to one fails as a missing snapshot instead
    of resolving a snapshot the branch never had (and misreporting its
    data files as reclaimed by gc)."""
    lake = CDCLake(tmp_path / "src", _spec(4))
    e1, _e2, e3 = [lake.apply_events(rd.from_arrow(b))["epoch"]
                   for b in BATCHES[:3]]
    early = lake.clone(str(tmp_path / "early"), at_epoch=e1)
    assert early.snapshot_epochs() == [e1]
    with pytest.raises(ValueError, match="no manifest snapshot"):
        early.read_state(at_epoch=e3)


def test_multi_table_transaction(tmp_path):
    """LakeTransaction: two tables' epochs become visible TOGETHER at
    txn.commit(); an abandoned transaction leaves both invisible and a
    clean retry succeeds; a crash between the group-commit record and
    the pointer roll-forward is recovered at lake open."""
    from standardized_omop_data_etl_ray.pipelines.cdc import LakeTransaction

    def ev(op, lsn, path, content):
        return {"op": op, "lsn": lsn, "repo": "r", "path": path,
                "commit": f"c{lsn}", "content": content}

    a = CDCLake(tmp_path, TableSpec(name="ta", num_partitions=2))
    b = CDCLake(tmp_path, TableSpec(name="tb", num_partitions=2))

    # abandoned transaction: phase 1 ran, nothing visible
    txn0 = LakeTransaction(tmp_path)
    r1 = a.apply_events(rd.from_items([ev("I", 1, "x", "ax")]), txn=txn0)
    r2 = b.apply_events(rd.from_items([ev("I", 1, "x", "bx")]), txn=txn0)
    assert not r1["committed"] and not r2["committed"]
    assert mf.read_manifest(str(tmp_path), "ta") is None
    assert mf.read_manifest(str(tmp_path), "tb") is None
    assert a.read_state().count() == 0 and b.read_state().count() == 0
    # staged manifests are invisible to time travel too
    assert a.snapshot_epochs() == []

    # retry in a fresh transaction and commit: both visible at once
    txn = LakeTransaction(tmp_path)
    a.apply_events(rd.from_items([ev("I", 1, "x", "ax")]), txn=txn)
    b.apply_events(rd.from_items([ev("I", 1, "x", "bx")]), txn=txn)
    gid = txn.commit()
    assert gid
    assert a.read_state().count() == 1 and b.read_state().count() == 1
    assert (Path(tmp_path) / "_txn" / f"group-{gid}.done").exists()

    # exactly-once: replaying the same windows WITHOUT a txn is a no-op
    a.apply_events(rd.from_items([ev("I", 1, "x", "ax")]))
    assert a.read_state().count() == 1

    # simulate a crash between the group record and the roll-forward:
    # stage a second epoch for both tables, write the group record
    # manually, do NOT roll forward — a fresh lake open recovers it
    txn2 = LakeTransaction(tmp_path)
    a.apply_events(rd.from_items([ev("I", 10, "y", "ay")]), txn=txn2)
    b.apply_events(rd.from_items([ev("I", 10, "y", "by")]), txn=txn2)
    names = {t: mf.stage_manifest(str(tmp_path), t, m)
             for t, m in txn2._manifests.items()}
    gdir = Path(tmp_path) / "_txn"
    gdir.mkdir(exist_ok=True)
    (gdir / "group-crash.json").write_text(
        json.dumps({"tables": names, "id": "crash"}))
    a2 = CDCLake(tmp_path, TableSpec(name="ta"))   # open → recovery
    b2 = CDCLake(tmp_path, TableSpec(name="tb"))
    assert a2.read_state().count() == 2 and b2.read_state().count() == 2
    assert (gdir / "group-crash.done").exists()

    # recovery never rewinds: a later direct commit, then re-running
    # recovery over an old group record leaves the newer state current
    a2.apply_events(rd.from_items([ev("I", 20, "z", "az")]))
    (gdir / "group-crash.done").rename(gdir / "group-crash.json")
    mf.recover_groups(str(tmp_path))
    assert a2.read_state().count() == 3


def test_reshard_then_compact_keeps_guarding_tombstones(tmp_path):
    """The review-found exactly-once hole: post-reshard partitions hold
    wm = min(old wms), BELOW some tombstones' lsns.  compact() must
    retain those above-watermark tombstones (delete-marker GC rule) so
    a redelivered pre-delete event cannot resurrect the key."""
    from standardized_omop_data_etl_ray.functions.hashing import (
        key_hash_u64,
        partition_of,
    )

    # two keys in DIFFERENT partitions of a 2-partition lake
    import pyarrow as _pa
    paths = ["a.txt", "b.txt", "c.txt", "d.txt"]
    parts = {
        p: partition_of(
            key_hash_u64(_pa.array(["r"]), _pa.array([p])), 2
        )[0].as_py()
        for p in paths
    }
    k1 = next(p for p in paths if parts[p] == 0)
    k2 = next(p for p in paths if parts[p] == 1)

    def ev(op, lsn, path, content):
        return {"op": op, "lsn": lsn, "repo": "r", "path": path,
                "commit": f"c{lsn}", "content": content}

    lake = CDCLake(tmp_path, _spec(2), auto_compact_files=None)
    # k1: insert, update, DELETE at lsn 190 (wm[part k1] = 190)
    # k2: insert at lsn 50 only (wm[part k2] = 50)
    lake.apply_events(rd.from_items([
        ev("I", 10, k1, "v0"), ev("I", 50, k2, "w0")]))
    lake.apply_events(rd.from_items([
        ev("U", 80, k1, "v1"), ev("D", 190, k1, None)]))
    assert _state(lake).num_rows == 1  # only k2 lives

    lake.reshard(3)  # every new partition: wm = min(190, 50) = 50
    m = mf.read_manifest(str(tmp_path), "cdc")
    assert all(i["watermark"] == 50 for i in m["partitions"].values())

    rec = lake.compact()
    # the lsn-190 tombstone is ABOVE wm 50 → retained, not a clean base
    m2 = mf.read_manifest(str(tmp_path), "cdc")
    assert not m2["compacted"]
    assert _state(lake).num_rows == 1

    # redeliver the pre-delete update: passes the coarse filter
    # (80 > 50) but must DIE against the retained tombstone
    lake.apply_events(rd.from_items([ev("U", 80, k1, "v1")]))
    st = _state(lake).to_pandas()
    assert set(st["path"]) == {k2}

    # once real progress raises the watermark past the tombstone, a
    # later compact may finally drop it — and the key stays dead
    lake.apply_events(rd.from_items([ev("U", 500, k2, "w1")]))
    lake.compact()
    assert set(_state(lake).to_pandas()["path"]) == {k2}


def test_gc_never_reclaims_dead_letters(tmp_path):
    """gc()/compact-time gc must not delete the DLQ (it lives outside
    the manifest's file accounting)."""
    lake = CDCLake(tmp_path, _spec(2), dead_letter=True)
    bad = pa.table({
        "op": ["I", "Z", "I"], "lsn": pa.array([1, 5, None], pa.int64()),
        "repo": ["r", "r", "r"], "path": ["a", "b", "c"],
        "commit": ["c", "c", "c"], "content": ["x", "y", "z"],
    })
    rec = lake.apply_events(rd.from_arrow(bad))
    assert rec["rows_dead_lettered"] == 2
    lake.compact()
    removed = lake.gc()
    assert lake.read_dead_letters().count() == 2
    assert not any("_dead_letter" in f for f in removed)


def test_clone_carries_manifest_log_for_change_sets(tmp_path):
    """A branch must answer change-set questions about pre-fork epochs
    (the COW manifest log travels with the clone); a lake without the
    needed snapshot fails loudly instead of diffing against future
    state."""
    from standardized_omop_data_etl_ray.pipelines.cdc import (
        epoch_change_set,
    )

    lake = CDCLake(tmp_path / "src", _spec(4))
    epochs = []
    for b in BATCHES[:3]:
        rec = lake.apply_events(rd.from_arrow(b))
        epochs.append(rec["epoch"])
    branch = lake.clone(str(tmp_path / "branch"))

    want = (
        lake.changes_between(epochs[0], carry_cols=["content"])
        .to_pandas().sort_values(["repo", "path"], ignore_index=True)
    )
    got = (
        branch.changes_between(epochs[0], carry_cols=["content"])
        .to_pandas().sort_values(["repo", "path"], ignore_index=True)
    )
    cols = ["repo", "path", "change", "old_content", "new_content"]
    pd.testing.assert_frame_equal(got[cols], want[cols])

    # missing snapshot → loud error, never a silent wrong diff
    with pytest.raises(ValueError, match="no manifest snapshot"):
        epoch_change_set(branch, 99999)


def test_transaction_lineage_records_committed_true(tmp_path):
    """The durable manifest lineage of a transactional epoch must say
    committed: true (the record is serialized at txn.commit time)."""
    from standardized_omop_data_etl_ray.pipelines.cdc import LakeTransaction

    a = CDCLake(tmp_path, TableSpec(name="ta", num_partitions=2))
    txn = LakeTransaction(tmp_path)
    a.apply_events(rd.from_items([
        {"op": "I", "lsn": 1, "repo": "r", "path": "x", "commit": "c",
         "content": "v"}]), txn=txn)
    txn.commit()
    lin = mf.read_manifest(str(tmp_path), "ta")["lineage"]
    assert lin[-1]["committed"] is True


def test_declarative_row_constraints(tmp_path):
    """CDCLake(constraints=[(name, fn)]): CHECK-style contracts divert
    violators to the DLQ with constraint:<name> reasons; deletes are
    exempt (no payload); clean rows apply normally."""
    import numpy as np

    def min_content(batch: pa.Table) -> np.ndarray:
        import pyarrow.compute as pc
        # cast first: a one-row block whose content is null types the
        # column as null, not string
        col = pc.cast(batch.column("content"), pa.string())
        n = pc.utf8_length(pc.fill_null(col, ""))
        return pc.greater_equal(n, 3).to_numpy(zero_copy_only=False)

    lake = CDCLake(tmp_path, _spec(2),
                   constraints=[("content_min_3", min_content)])
    assert lake.dead_letter  # implied
    rows = [
        {"op": "I", "lsn": 1, "repo": "r", "path": "a", "commit": "c1",
         "content": "long enough"},
        {"op": "I", "lsn": 2, "repo": "r", "path": "b", "commit": "c2",
         "content": "x"},                      # violates
        {"op": "D", "lsn": 3, "repo": "r", "path": "a", "commit": "c3",
         "content": None},                     # delete: exempt
    ]
    rec = lake.apply_events(rd.from_items(rows))
    assert rec["rows_dead_lettered"] == 1
    dl = lake.read_dead_letters().to_pandas()
    assert dl["__dlq_reason"].tolist() == ["constraint:content_min_3"]
    # state: a inserted then deleted; b diverted → empty live state
    assert _state(lake).num_rows == 0


def test_clustered_compaction_prunes_point_lookups(tmp_path):
    """compact(cluster_files=N) splits each partition's base into
    key-range slices with their own zone maps: state is unchanged and
    a point lookup reads ~1 file per touched partition instead of all
    of them (accumulated deltas each span the whole key range, so
    pruning was ineffective before clustering)."""
    lake = CDCLake(tmp_path, _spec(2), auto_compact_files=None)
    for b in BATCHES:
        lake.apply_events(rd.from_arrow(b))
    before = canonical_state(_state(lake))
    keys = (
        ORACLE.to_pandas()[["repo", "path"]].drop_duplicates()
        .head(3).to_dict("records")
    )

    stats_pre = {}
    lake.lookup(keys, stats_out=stats_pre)

    lake.compact(cluster_files=6)
    m = mf.read_manifest(str(tmp_path), "cdc")
    for info in m["partitions"].values():
        assert len(info["files"]) == 6
        assert set(info["file_stats"]) == set(info["files"])
        # slices carry DISJOINT, ordered key ranges on the leading key
        # (boundary rows may share a repo → equality allowed)
        ranges = [info["file_stats"][f]["repo"] for f in info["files"]]
        for a, b in zip(ranges, ranges[1:]):
            assert a[1] <= b[0]
    assert canonical_state(_state(lake)).equals(before)
    assert_states_equal(_state(lake), ORACLE)

    stats_post = {}
    got = lake.lookup(keys, stats_out=stats_post)
    assert canonical_state(got).num_rows == len(keys)
    # ≤2 slices per touched partition (a key can straddle one boundary
    # only via duplicate boundary values); strictly better than
    # reading all 6
    touched_parts = min(len(keys), 2)
    assert stats_post["files_read"] <= 2 * touched_parts
    assert stats_post["files_read"] < stats_post["files_total"]


def test_clustered_compact_interleaved_with_applies(tmp_path):
    """Clustered compaction mid-stream: later epochs stack deltas on
    top of the key-range slices; state stays oracle-exact and lookups
    resolve winners across slice + fresh-delta files."""
    lake = CDCLake(tmp_path, _spec(2), auto_compact_files=None)
    for b in BATCHES[:2]:
        lake.apply_events(rd.from_arrow(b))
    lake.compact(cluster_files=4)
    for b in BATCHES[2:]:
        lake.apply_events(rd.from_arrow(b))
    assert_states_equal(_state(lake), ORACLE)

    odf = ORACLE.to_pandas()
    keys = odf[["repo", "path"]].drop_duplicates().head(4).to_dict("records")
    got = lake.lookup(keys).to_pandas()
    want = odf.merge(pd.DataFrame(keys), on=["repo", "path"])
    pd.testing.assert_frame_equal(
        got[["repo", "path", "commit", "content"]]
        .sort_values(["repo", "path"], ignore_index=True),
        want[["repo", "path", "commit", "content"]]
        .sort_values(["repo", "path"], ignore_index=True),
    )
    # a second clustered compact over the mixed layout stays exact
    lake.compact(cluster_files=3)
    assert_states_equal(_state(lake), ORACLE)


def test_constraints_survive_clone_and_rename(tmp_path):
    """Constraints are written against CANONICAL names (enforced on the
    renamed view even though the splitter runs pre-rename) and carry
    through clone() — a branch must keep the source's contracts."""
    import numpy as np

    def min_content(batch: pa.Table) -> np.ndarray:
        col = pc.cast(batch.column("content"), pa.string())
        n = pc.utf8_length(pc.fill_null(col, ""))
        return pc.greater_equal(n, 3).to_numpy(zero_copy_only=False)

    import pyarrow.compute as pc
    spec = TableSpec(name="cdc", num_partitions=2,
                     rename={"body": "content"})
    lake = CDCLake(tmp_path / "src", spec,
                   constraints=[("content_min_3", min_content)])
    rows = pa.table({
        "op": ["I", "I"], "lsn": pa.array([1, 2], pa.int64()),
        "repo": ["r", "r"], "path": ["a", "b"],
        "commit": ["c1", "c2"],
        "body": ["long enough", "x"],   # source-name payload column
    })
    rec = lake.apply_events(rd.from_arrow(rows))
    assert rec["rows_dead_lettered"] == 1  # 'x' violates, via rename

    branch = lake.clone(str(tmp_path / "branch"))
    assert branch.constraints and branch.dead_letter
    rec2 = branch.apply_events(rd.from_arrow(pa.table({
        "op": ["I"], "lsn": pa.array([9], pa.int64()),
        "repo": ["r"], "path": ["c"], "commit": ["c9"], "body": ["y"],
    })))
    assert rec2["rows_dead_lettered"] == 1
    assert branch.read_dead_letters(epoch=rec2["epoch"]).count() == 1


def test_delete_where_and_update_where_dml(tmp_path):
    import pyarrow.compute as pc

    lake = CDCLake(tmp_path, _spec())
    for b in BATCHES:
        lake.apply_events(rd.from_arrow(b))
    before = _state(lake).to_pandas()

    # DELETE WHERE lang = 'py' — erasure by CURRENT payload
    assert (before["lang"] == "py").sum() > 0  # non-vacuous
    rec = lake.delete_where(lambda t: pc.equal(
        t.column("lang"), "py").to_numpy(zero_copy_only=False))
    after = _state(lake).to_pandas()
    want = before[before["lang"] != "py"]
    assert len(after) == len(want)
    assert set(after["path"]) == set(want["path"])
    assert (after["lang"] != "py").all()
    assert rec["tombstones"] == (before["lang"] == "py").sum()

    # redelivering the FULL historical log must not resurrect them
    # (tombstone lsn sits above every committed row)
    for b in BATCHES:
        lake.apply_events(rd.from_arrow(b))
    again = _state(lake).to_pandas()
    assert set(again["path"]) == set(want["path"])
    assert (again["lang"] != "py").all()

    # UPDATE WHERE lang = 'go' SET content = upper(content)
    def to_upper(t: pa.Table) -> pa.Table:
        i = t.schema.get_field_index("content")
        return t.set_column(i, "content", pc.utf8_upper(t.column("content")))

    lake.update_where(
        lambda t: pc.equal(t.column("lang"), "go").to_numpy(
            zero_copy_only=False),
        to_upper,
    )
    upd = _state(lake).to_pandas().set_index(["repo", "path"])
    base = again.set_index(["repo", "path"])
    for idx, row in base.iterrows():
        got = upd.loc[idx, "content"]
        assert got == (row["content"].upper() if row["lang"] == "go"
                       else row["content"])

    # time travel still shows the pre-DML state
    tt = _state(lake, at_epoch=rec["epoch"] - 1).to_pandas()
    assert set(tt["path"]) == set(before["path"])


def test_update_where_refuses_dropped_payload_column(tmp_path):
    """update_where's set_fn must return every payload column: the
    event builder nulls absent columns (MERGE INTO's contract), so an
    UPDATE whose set_fn dropped one would silently erase live values."""
    lake = CDCLake(tmp_path, _spec(4))
    lake.apply_events(rd.from_arrow(BATCHES[0]))
    before = canonical_state(_state(lake))
    with pytest.raises(Exception, match="dropped payload columns"):
        lake.update_where(lambda t: [True] * t.num_rows,
                          lambda t: t.drop_columns(["content"]))
    assert canonical_state(_state(lake)).equals(before)


def test_merge_into_upsert_update_only_and_delete(tmp_path):
    lake = CDCLake(tmp_path, _spec())
    for b in BATCHES:
        lake.apply_events(rd.from_arrow(b))
    before = _state(lake).to_pandas()
    live_keys = set(zip(before["repo"], before["path"]))
    some_live = sorted(live_keys)[:40]
    new_keys = [("merge_repo", f"new_{i}.py") for i in range(25)]

    def src(keys, content):
        return rd.from_arrow(pa.table({
            "repo": pa.array([k[0] for k in keys], pa.string()),
            "path": pa.array([k[1] for k in keys], pa.string()),
            "commit": pa.array(["m1"] * len(keys), pa.string()),
            "lang": pa.array(["go"] * len(keys), pa.string()),
            "content": pa.array([content] * len(keys), pa.string()),
        }))

    # upsert: matched keys update, new keys insert — ops labeled exactly
    lake.merge_into(src(some_live + new_keys, "merged v1"))
    st = _state(lake).to_pandas()
    assert len(st) == len(before) + len(new_keys)
    merged = st.set_index(["repo", "path"])
    for k in some_live:
        assert merged.loc[k, "content"] == "merged v1"
        assert merged.loc[k, "op"] == "U"
    for k in new_keys:
        assert merged.loc[k, "content"] == "merged v1"
        assert merged.loc[k, "op"] == "I"

    # update-only: not-matched rows are dropped, no spurious inserts
    ghost = [("merge_repo", "ghost.py")]
    lake.merge_into(src(some_live[:5] + ghost, "merged v2"),
                    when_not_matched="ignore")
    st2 = _state(lake).to_pandas().set_index(["repo", "path"])
    assert ("merge_repo", "ghost.py") not in st2.index
    for k in some_live[:5]:
        assert st2.loc[k, "content"] == "merged v2"

    # delete-cascade: matched keys erased, unmatched ignored
    lake.merge_into(src(new_keys + ghost, "ignored"),
                    when_matched="delete", when_not_matched="ignore")
    st3 = _state(lake).to_pandas()
    keys3 = set(zip(st3["repo"], st3["path"]))
    assert keys3 == live_keys  # new_keys gone, originals intact


def test_drop_column_ddl(tmp_path):
    lake = CDCLake(tmp_path, _spec())
    for b in BATCHES[:2]:
        lake.apply_events(rd.from_arrow(b))
    pre_epoch = mf.read_manifest(str(tmp_path), "cdc")["epoch"]
    before = _state(lake).to_pandas()
    assert "lang" in before.columns

    rec = lake.drop_column("lang")
    assert rec["ddl"] == "drop_column" and rec["compaction"]

    # instantly gone from every read path, rows untouched
    after = _state(lake).to_pandas()
    assert "lang" not in after.columns
    assert len(after) == len(before)
    assert "lang" not in lake.read_deltas().schema().names

    # protected columns refuse; double-drop refuses
    with pytest.raises(ValueError):
        lake.drop_column("lsn")
    with pytest.raises(ValueError):
        lake.drop_column("lang")

    # time travel resurrects the column (drop is lineage, not rewrite)
    tt = _state(lake, at_epoch=pre_epoch).to_pandas()
    assert "lang" in tt.columns

    # arriving events still carrying the column have it stripped —
    # schema evolution must not re-add it (batch AND stream paths)
    for b in BATCHES[2:]:
        lake.apply_events(rd.from_arrow(b))
    st = _state(lake).to_pandas()
    assert "lang" not in st.columns

    # compaction physically rewrites without the column and the state
    # still matches the oracle on the surviving columns
    lake.compact()
    st2 = _state(lake).to_pandas()
    assert "lang" not in st2.columns
    want = ORACLE.to_pandas().drop(columns=["lang"])
    got = (st2[["repo", "path", "commit", "content", "content_sha"]]
           .sort_values(["repo", "path"], ignore_index=True))
    pd.testing.assert_frame_equal(
        got, want[got.columns.tolist()].sort_values(
            ["repo", "path"], ignore_index=True))

    # a reopened lake restores the narrowed spec + dropped set
    lake2 = CDCLake(tmp_path, _spec())
    assert "lang" not in lake2.spec.schema.names
    assert lake2.dropped_cols == {"lang"}

    # stream path strips too
    lake2.apply_stream([rd.from_arrow(BATCHES[2])], max_inflight=2)
    assert "lang" not in _state(lake2).to_pandas().columns


def test_restore_rollback_and_converge(tmp_path):
    lake = CDCLake(tmp_path, _spec())
    lake.apply_events(rd.from_arrow(BATCHES[0]))
    e1 = mf.read_manifest(str(tmp_path), "cdc")["epoch"]
    want1 = canonical_state(_state(lake))
    for b in BATCHES[1:]:
        lake.apply_events(rd.from_arrow(b))
    bad_epoch = mf.read_manifest(str(tmp_path), "cdc")["epoch"]

    rec = lake.restore(e1)
    assert rec["restore_of"] == e1 and rec["compaction"]
    # state is exactly the snapshot again (watermarks reverted with it)
    assert_states_equal(canonical_state(_state(lake)), want1)

    # the rolled-back epochs stay readable as snapshots (audit) ...
    assert _state(lake, at_epoch=bad_epoch).num_rows > 0
    # ... and re-tailing the log from the restore point converges
    # exactly-once onto the oracle
    for b in BATCHES[1:]:
        lake.apply_events(rd.from_arrow(b))
    assert_states_equal(canonical_state(_state(lake)),
                        canonical_state(ORACLE))

    # a fresh open sees the restored lineage; restoring to a
    # never-committed epoch refuses
    lake2 = CDCLake(tmp_path, _spec())
    assert any(r.get("restore_of") == e1 for r in lake2.lineage())
    with pytest.raises(ValueError):
        lake2.restore(99999)


def test_dml_after_reshard_still_wins_lww(tmp_path):
    """Review finding (round 4d): reshard resets watermarks to the old
    MIN, so a DML base LSN derived from watermarks alone would lose
    LWW to live rows — the committed-LSN floor must come from zone
    maps."""
    import pyarrow.compute as pc

    lake = CDCLake(tmp_path, _spec())
    for b in BATCHES:
        lake.apply_events(rd.from_arrow(b))
    lake.reshard(5)  # watermarks become the pre-reshard MIN
    before = _state(lake).to_pandas()
    target = (before["lang"] == "py").sum()
    assert target > 0
    rec = lake.delete_where(lambda t: pc.equal(
        t.column("lang"), "py").to_numpy(zero_copy_only=False))
    after = _state(lake).to_pandas()
    assert rec["tombstones"] == target
    assert (after["lang"] != "py").all()
    assert len(after) == len(before) - target


def test_changes_between_refuses_rolled_back_cursor(tmp_path):
    lake = CDCLake(tmp_path, _spec())
    for b in BATCHES[:3]:
        lake.apply_events(rd.from_arrow(b))
    cursor = mf.read_manifest(str(tmp_path), "cdc")["epoch"]
    lake.restore(cursor - 2)
    with pytest.raises(ValueError, match="rolled back"):
        lake.changes_between(cursor)
    # a surviving cursor still works
    lake.changes_between(cursor - 2).count()


def test_writer_lease_fencing(tmp_path):
    """Opt-in single-writer lease: a live lease refuses a second
    writer; expiry allows a steal; a stolen-from writer is FENCED at
    its next commit instead of clobbering the thief's epochs."""
    a = CDCLake(tmp_path, _spec())
    a.acquire_writer(lease_s=60)
    a.apply_events(rd.from_arrow(BATCHES[0]))  # renews via commit

    b = CDCLake(tmp_path, _spec())
    with pytest.raises(RuntimeError, match="holds the lease"):
        b.acquire_writer()

    # release → b may acquire; then a (stale token) is refused
    a.release_writer()
    b.acquire_writer(lease_s=60)
    with pytest.raises(RuntimeError, match="holds the lease"):
        a.acquire_writer()

    # force-expire b's lease on disk; a steals it; b's next write is
    # fenced at epoch allocation, BEFORE any commit
    lock = Path(str(tmp_path)) / "cdc" / "_WRITER.json"
    cur = json.loads(lock.read_text())
    cur["expires"] = 0
    lock.write_text(json.dumps(cur))
    a._writer_token = None
    a.acquire_writer(lease_s=60)
    with pytest.raises(RuntimeError, match="lease lost"):
        b.apply_events(rd.from_arrow(BATCHES[1]))
    # the fenced writer wrote nothing; the thief can proceed
    rec = a.apply_events(rd.from_arrow(BATCHES[1]))
    assert rec["epoch"] >= 2
    a.release_writer()


def _after_alloc(lake, action):
    """Hook ``lake._alloc_epoch`` so ``action()`` runs once, right after
    the verb has claimed its epoch and before it commits."""
    orig = lake._alloc_epoch

    def alloc():
        epoch = orig()
        lake._alloc_epoch = orig
        action()
        return epoch

    lake._alloc_epoch = alloc


_FENCED_VERBS = {
    "drop_column": lambda lake, e0: lake.drop_column("lang"),
    "rename_column": lambda lake, e0: lake.rename_column("commit",
                                                         "commit_id"),
    "add_column": lambda lake, e0: lake.add_column("stars", pa.int64(),
                                                   default=0),
    "compact": lambda lake, e0: lake.compact(),
    "reshard": lambda lake, e0: lake.reshard(4),
    "restore": lambda lake, e0: lake.restore(e0),
}


@pytest.mark.parametrize("verb", sorted(_FENCED_VERBS))
def test_every_verb_fenced_at_commit_point(tmp_path, verb):
    """Every verb re-validates the writer lease at its commit point: a
    lease stolen between epoch allocation and commit refuses the DDL,
    layout and maintenance commits too, and the manifest stays put."""
    lake = CDCLake(tmp_path, _spec())
    lake.acquire_writer(lease_s=60)
    e0 = lake.apply_events(rd.from_arrow(BATCHES[0]))["epoch"]
    lake.apply_events(rd.from_arrow(BATCHES[1]))
    before = mf.read_manifest(str(tmp_path), "cdc")["epoch"]
    lease = Path(str(tmp_path)) / "cdc" / "_WRITER.json"

    def steal():
        lease.write_text(json.dumps({
            "token": "another-writer", "pid": 0,
            "expires": time.time() + 600,
        }))

    _after_alloc(lake, steal)
    with pytest.raises(RuntimeError, match="lease lost"):
        _FENCED_VERBS[verb](lake, e0)
    assert mf.read_manifest(str(tmp_path), "cdc")["epoch"] == before


def test_ddl_refused_when_manifest_advances(tmp_path):
    """Quiesced rule: a DDL verb whose planned snapshot was overtaken by
    another writer's commit refuses instead of overwriting it."""
    from standardized_omop_data_etl_ray.pipelines.cdc import (
        ConcurrentCommitError,
    )

    lake_a = CDCLake(tmp_path, _spec())
    lake_b = CDCLake(tmp_path, _spec())
    lake_a.apply_events(rd.from_arrow(BATCHES[0]))
    _after_alloc(lake_a,
                 lambda: lake_b.apply_events(rd.from_arrow(BATCHES[1])))
    with pytest.raises(ConcurrentCommitError, match="quiesced"):
        lake_a.drop_column("lang")
    m = mf.read_manifest(str(tmp_path), "cdc")
    assert "lang" in mf.schema_from_b64(m["schema"]).names
    assert not m.get("dropped_cols")


def test_compact_folds_over_newer_data_commit(tmp_path):
    """Maintenance rule: a compaction raced by a newer DATA commit still
    commits; the newer epoch's files survive as leftovers and the state
    is the LWW of every window."""
    lake_a = CDCLake(tmp_path, _spec())
    lake_b = CDCLake(tmp_path, _spec())
    lake_a.apply_events(rd.from_arrow(BATCHES[0]))
    lake_a.apply_events(rd.from_arrow(BATCHES[1]))
    racer = {}
    _after_alloc(lake_a, lambda: racer.update(
        lake_b.apply_events(rd.from_arrow(BATCHES[2]))))
    rec = lake_a.compact()
    assert rec["partitions_touched"] > 0
    e_b = racer["epoch"]
    assert e_b > rec["epoch"]
    m = mf.read_manifest(str(tmp_path), "cdc")
    files = [f for info in m["partitions"].values() for f in info["files"]]
    assert any(f"epoch={e_b:06d}" in f for f in files), "leftovers lost"
    assert any(f"epoch={rec['epoch']:06d}" in f for f in files)
    assert_states_equal(_state(lake_a), oracle_apply(
        pa.concat_tables([BATCHES[0], BATCHES[1], BATCHES[2]])))


def test_compact_refused_after_newer_ddl(tmp_path):
    """Maintenance rule: a compaction raced by a newer DDL epoch refuses
    (its rewrite was planned against the pre-DDL schema)."""
    from standardized_omop_data_etl_ray.pipelines.cdc import (
        ConcurrentCommitError,
    )

    lake_a = CDCLake(tmp_path, _spec())
    lake_b = CDCLake(tmp_path, _spec())
    lake_a.apply_events(rd.from_arrow(BATCHES[0]))
    lake_a.apply_events(rd.from_arrow(BATCHES[1]))
    _after_alloc(lake_a, lambda: lake_b.drop_column("lang"))
    with pytest.raises(ConcurrentCommitError, match="raced layout/DDL"):
        lake_a.compact()
    m = mf.read_manifest(str(tmp_path), "cdc")
    assert m["lineage"][-1].get("ddl") == "drop_column"


def test_restore_before_drop_column_resurrects_it(tmp_path):
    """restore() reverts the SCHEMA too: rolling back to a snapshot
    before a drop_column brings the column back for reads AND for
    future applies (the dropped set reverts with the manifest)."""
    lake = CDCLake(tmp_path, _spec())
    lake.apply_events(rd.from_arrow(BATCHES[0]))
    pre = mf.read_manifest(str(tmp_path), "cdc")["epoch"]
    lake.drop_column("lang")
    assert "lang" not in _state(lake).to_pandas().columns

    lake.restore(pre)
    assert lake.dropped_cols == set()
    assert "lang" in lake.spec.schema.names
    st = _state(lake).to_pandas()
    assert "lang" in st.columns and st["lang"].notna().any()
    # future applies keep the column again
    lake.apply_events(rd.from_arrow(BATCHES[1]))
    assert "lang" in _state(lake).to_pandas().columns


def test_replicate_changefeed_lake_to_lake(tmp_path):
    """Lake→lake replication through the changefeed outbox
    (pipelines/cdc.replicate_changefeed): exported spans fold into an
    independent replica lake (different partition count) that never
    reads the source log or state; the replica equals the LWW oracle.
    Drills: a crashed consumer (cursor rewound past a committed span)
    re-applies the span and dies at the replica watermark; a
    half-written span beyond the exporter's durable cursor is
    invisible; a pruned feed (chain gap) fails loudly."""
    import shutil

    from standardized_omop_data_etl_ray.pipelines.cdc import (
        replicate_changefeed,
    )

    carry = ["commit", "lang", "content"]
    src = CDCLake(tmp_path / "src", _spec())
    feed = tmp_path / "feed"
    dst = CDCLake(tmp_path / "dst",
                  TableSpec(name="replica", num_partitions=3))
    src.apply_events(rd.from_arrow(BATCHES[0]))
    src.export_changefeed(str(feed), carry_cols=carry)
    r1 = replicate_changefeed(str(feed), dst)
    assert r1["spans_applied"] == 1
    # second span nets the REMAINING source epochs
    for b in BATCHES[1:]:
        src.apply_events(rd.from_arrow(b))
    src.export_changefeed(str(feed), carry_cols=carry)
    # a half-written span beyond the exporter cursor must be invisible
    fake = feed / "span=000099-000199"
    fake.mkdir()
    r2 = replicate_changefeed(str(feed), dst)
    fake.rmdir()
    assert r2["spans_applied"] == 1 and r2["cursor"] == len(BATCHES)
    assert_states_equal(_state(dst), ORACLE)
    # crash drill: rewind the replica cursor (commit landed, cursor
    # write lost) → the re-applied span is a watermark-killed no-op
    cur = Path(dst.root) / "replica" / "_replica_cursor.json"
    cur.write_text(json.dumps({"epoch": r1["cursor"]}))
    r3 = replicate_changefeed(str(feed), dst)
    assert r3["spans_applied"] == 1
    assert_states_equal(_state(dst), ORACLE)
    # caught up → no-op
    assert replicate_changefeed(str(feed), dst)["spans_applied"] == 0
    # a pruned feed (gap before the next span) fails loudly for a
    # fresh replica instead of silently skipping changes
    shutil.rmtree(feed / "span=000000-000001")
    dst2 = CDCLake(tmp_path / "dst2",
                   TableSpec(name="replica", num_partitions=2))
    with pytest.raises(ValueError, match="gap"):
        replicate_changefeed(str(feed), dst2)
    # a feed exported without the replica's payload columns fails
    # loudly instead of replicating nulls
    feed2 = tmp_path / "feed2"
    src.export_changefeed(str(feed2), carry_cols=["content"])
    dst3 = CDCLake(tmp_path / "dst3",
                   TableSpec(name="replica", num_partitions=2))
    with pytest.raises(Exception, match="lacks payload"):
        replicate_changefeed(str(feed2), dst3)


def test_replicate_changefeed_row_filter(tmp_path):
    """Predicate-filtered replication (row-filtered subscription):
    classification is per row image, so a key whose lang CHANGES across
    spans transitions in/out of the replica — update-out-of-scope must
    become a replica delete, update-into-scope an insert.  Invariant:
    replica state == predicate-filtered source state."""
    import pyarrow.compute as pc

    from standardized_omop_data_etl_ray.pipelines.cdc import (
        replicate_changefeed,
    )

    ev = make_change_events(n_keys=200, n_events=3000, seed=29,
                            window=300, lang_change_rate=0.3)
    batches = list(micro_batches(ev, batch_windows=2, window=300))
    carry = ["commit", "lang", "content"]
    src = CDCLake(tmp_path / "src", _spec())
    feed = tmp_path / "feed"
    dst = CDCLake(tmp_path / "dst",
                  TableSpec(name="replica", num_partitions=3))

    def pred(img):
        return pc.fill_null(
            pc.equal(img.column("lang"), "py"), False
        ).to_numpy(zero_copy_only=False)

    # one span per epoch → lang transitions cross span boundaries
    for b in batches:
        src.apply_events(rd.from_arrow(b))
        src.export_changefeed(str(feed), carry_cols=carry)
        replicate_changefeed(str(feed), dst, predicate=pred)
    oracle = oracle_apply(ev)
    want = oracle.filter(pc.equal(oracle.column("lang"), "py"))
    assert want.num_rows > 0, "vacuous: no py rows in the oracle"
    assert_states_equal(_state(dst), want)


def test_prune_changefeed_and_seed_replica(tmp_path):
    """Outbox retention + snapshot seeding: pruned early spans gap out a
    fresh consumer; seed_replica time-travels the source to the span
    boundary and hands the cursor to replicate_changefeed, which then
    converges on the oracle.  Crash drill: a seed that dies before its
    cursor write resumes via the _seed_pending marker (re-apply is a
    watermark no-op); a stale replica without the marker refuses."""
    from standardized_omop_data_etl_ray.pipelines.cdc import (
        prune_changefeed,
        replicate_changefeed,
        seed_replica,
    )

    carry = ["commit", "lang", "content"]
    src = CDCLake(tmp_path / "src", _spec())
    feed = tmp_path / "feed"
    # span per epoch; prune everything before the last epoch
    marks = []
    for b in BATCHES:
        marks.append(src.apply_events(rd.from_arrow(b))["epoch"])
        src.export_changefeed(str(feed), carry_cols=carry)
    with pytest.raises(ValueError, match="exporter cursor"):
        prune_changefeed(str(feed), marks[-1] + 5)
    rec = prune_changefeed(str(feed), marks[-2])
    assert rec["spans_removed"] == len(BATCHES) - 1
    # a fresh consumer now gaps out
    dst = CDCLake(tmp_path / "dst",
                  TableSpec(name="replica", num_partitions=3))
    with pytest.raises(ValueError, match="gap"):
        replicate_changefeed(str(feed), dst)
    # seed at the span boundary, then resume the feed
    seed = seed_replica(src, dst, at_epoch=marks[-2])
    assert seed["seed_epoch"] == marks[-2] and seed["rows"] > 0
    r = replicate_changefeed(str(feed), dst)
    assert r["spans_applied"] == 1
    assert_states_equal(_state(dst), ORACLE)
    # crash drill: pending marker present, no cursor → seed resumes
    dst2 = CDCLake(tmp_path / "dst2",
                   TableSpec(name="replica", num_partitions=2))
    tdir = Path(dst2.root) / "replica"
    seed_replica(src, dst2, at_epoch=marks[-2])
    (tdir / "_replica_cursor.json").unlink()  # lost cursor write
    tdir.joinpath("_seed_pending.json").write_text(
        json.dumps({"epoch": marks[-2]})
    )
    seed_replica(src, dst2, at_epoch=marks[-2])  # resumes, no dupes
    replicate_changefeed(str(feed), dst2)
    assert_states_equal(_state(dst2), ORACLE)
    # a stale replica (cursor present / no marker) refuses a re-seed
    with pytest.raises(ValueError, match="empty replica"):
        seed_replica(src, dst2, at_epoch=marks[-2])


def test_seed_replica_filtered_and_lag(tmp_path):
    """A row-filtered subscription seeded late: seed_replica(predicate=)
    ships only in-scope snapshot rows, the filtered feed resume keeps
    the invariant (replica == filtered source state), and changefeed_lag
    reports the consumer's position."""
    import pyarrow.compute as pc

    from standardized_omop_data_etl_ray.pipelines.cdc import (
        changefeed_lag,
        prune_changefeed,
        replicate_changefeed,
        seed_replica,
    )

    def pred(img):
        return pc.fill_null(
            pc.equal(img.column("lang"), "py"), False
        ).to_numpy(zero_copy_only=False)

    carry = ["commit", "lang", "content"]
    src = CDCLake(tmp_path / "src", _spec())
    feed = tmp_path / "feed"
    marks = []
    for b in BATCHES:
        marks.append(src.apply_events(rd.from_arrow(b))["epoch"])
        src.export_changefeed(str(feed), carry_cols=carry)
    prune_changefeed(str(feed), marks[-2])
    dst = CDCLake(tmp_path / "dst",
                  TableSpec(name="replica", num_partitions=3))
    seed_replica(src, dst, at_epoch=marks[-2], predicate=pred)
    lag = changefeed_lag(str(feed), dst)
    assert lag["epochs_behind"] == 1 and lag["spans_pending"] == 1
    replicate_changefeed(str(feed), dst, predicate=pred)
    lag = changefeed_lag(str(feed), dst)
    assert lag["epochs_behind"] == 0 and lag["spans_pending"] == 0
    want = ORACLE.filter(pc.equal(ORACLE.column("lang"), "py"))
    assert want.num_rows > 0
    assert_states_equal(_state(dst), want)


def test_seed_replica_feed_cursor_default(tmp_path):
    """seed_replica(feed_root=...) defaults the seed epoch to the
    EXPORTER cursor — the boundary that is always resumable.  Seeding
    at the source manifest epoch instead would gap out here, because
    the last epoch is not yet exported."""
    from standardized_omop_data_etl_ray.pipelines.cdc import (
        replicate_changefeed,
        seed_replica,
    )

    carry = ["commit", "lang", "content"]
    src = CDCLake(tmp_path / "src", _spec())
    feed = tmp_path / "feed"
    for i, b in enumerate(BATCHES):
        src.apply_events(rd.from_arrow(b))
        if i < len(BATCHES) - 1:  # exports lag: last epoch unexported
            src.export_changefeed(str(feed), carry_cols=carry)
    dst = CDCLake(tmp_path / "dst",
                  TableSpec(name="replica", num_partitions=3))
    rec = seed_replica(src, dst, feed_root=str(feed))
    assert rec["seed_epoch"] == len(BATCHES) - 1
    # the missing tail arrives with the next export + replicate
    src.export_changefeed(str(feed), carry_cols=carry)
    r = replicate_changefeed(str(feed), dst)
    assert r["spans_applied"] == 1
    assert_states_equal(_state(dst), ORACLE)


def test_replicate_changefeed_schema_evolution(tmp_path):
    """Schema evolution across the feed: the subscription schema is
    pinned at the CONSUMER.  (a) a base-schema replica keeps consuming
    an evolved feed (extra carried columns are simply not part of its
    payload); (b) an evolved replica refuses pre-evolution spans
    LOUDLY (those exports never carried the column — nulls would be
    silently wrong); (c) the migration path is a re-seed at the
    exporter cursor, which ships the evolved snapshot."""
    from standardized_omop_data_etl_ray.pipelines.cdc import (
        replicate_changefeed,
        seed_replica,
    )
    from standardized_omop_data_etl_ray.spec import CDC_EVENT_SCHEMA

    ev = make_change_events(
        n_keys=200, n_events=1200, seed=19, window=200,
        evolve_after_frac=0.5,
    )
    early = ev.filter(
        pa.compute.less(ev["lsn"], 600)).drop_columns(["size_bytes"])
    late = ev.filter(pa.compute.greater_equal(ev["lsn"], 600))
    src = CDCLake(tmp_path / "src", _spec())
    feed = tmp_path / "feed"
    base = ["commit", "lang", "content"]
    src.apply_events(rd.from_arrow(early))
    src.export_changefeed(str(feed), carry_cols=base)
    src.apply_events(rd.from_arrow(late))  # size_bytes appears
    src.export_changefeed(str(feed), carry_cols=base + ["size_bytes"])
    want = oracle_apply(ev)
    # (a) base-schema subscription consumes both spans
    dst = CDCLake(tmp_path / "dst",
                  TableSpec(name="replica", num_partitions=3))
    replicate_changefeed(str(feed), dst, payload_cols=base)
    assert_states_equal(_state(dst), want)
    evolved = pa.schema(
        list(CDC_EVENT_SCHEMA) + [pa.field("size_bytes", pa.int64())]
    )
    # (b) an evolved subscription cannot read pre-evolution spans
    dst2 = CDCLake(tmp_path / "dst2",
                   TableSpec(name="replica", num_partitions=3,
                             schema=evolved))
    with pytest.raises(Exception, match="lacks payload"):
        replicate_changefeed(str(feed), dst2)
    # (c) migration: re-seed at the exporter cursor from the evolved
    # source snapshot, then resume the feed (already caught up here)
    dst3 = CDCLake(tmp_path / "dst3",
                   TableSpec(name="replica", num_partitions=3,
                             schema=evolved))
    seed_replica(src, dst3, feed_root=str(feed))
    assert replicate_changefeed(str(feed), dst3)["spans_applied"] == 0
    st = _state(dst3)
    assert "size_bytes" in st.column_names
    assert st.column("size_bytes").null_count > 0  # pre-evolution winners
    assert st.column("size_bytes").null_count < st.num_rows
    assert_states_equal(st, want)


def test_verify_replica_checksum(tmp_path):
    """Checksum drift detection: a healthy replica verifies equal under
    different partition counts (the fold is order/partitioning
    insensitive); a single rogue write on the replica is caught; a
    row-filtered subscription verifies against the predicate-scoped
    source."""
    import pyarrow.compute as pc

    from standardized_omop_data_etl_ray.pipelines.cdc import (
        replicate_changefeed,
        verify_replica,
    )

    carry = ["commit", "lang", "content"]
    src = CDCLake(tmp_path / "src", _spec())
    feed = tmp_path / "feed"
    dst = CDCLake(tmp_path / "dst",
                  TableSpec(name="replica", num_partitions=3))

    def pred(img):
        return pc.fill_null(
            pc.equal(img.column("lang"), "py"), False
        ).to_numpy(zero_copy_only=False)

    dstf = CDCLake(tmp_path / "dstf",
                   TableSpec(name="replica", num_partitions=5))
    for b in BATCHES:
        src.apply_events(rd.from_arrow(b))
        src.export_changefeed(str(feed), carry_cols=carry)
        replicate_changefeed(str(feed), dst)
        replicate_changefeed(str(feed), dstf, predicate=pred)
    v = verify_replica(src, dst)
    assert v["equal"] and v["src"]["rows"] == ORACLE.num_rows
    vf = verify_replica(src, dstf, predicate=pred)
    assert vf["equal"] and vf["replica"]["rows"] < v["replica"]["rows"]
    # drift: one rogue replica write flips the verdict
    k = ORACLE.slice(0, 1)
    rogue = pa.table({
        "op": pa.array(["U"]), "lsn": pa.array([10**9], pa.int64()),
        "repo": k.column("repo"), "path": k.column("path"),
        "commit": pa.array(["deadbeef"]), "lang": k.column("lang"),
        "content": pa.array(["tampered"]),
    })
    dst.apply_events(rd.from_arrow(rogue))
    assert not verify_replica(src, dst)["equal"]


def test_replicate_group_multi_table_atomic(tmp_path):
    """Multi-table atomic replication: two tables' feeds with UNEQUAL
    span counts drain in lockstep rounds through LakeTransaction group
    commits; both replicas land on their oracles; re-running after
    lost cursors (one or both) is a watermark no-op; replicas under
    different roots are refused."""
    from standardized_omop_data_etl_ray.pipelines.cdc import (
        replicate_group,
    )

    carry = ["commit", "lang", "content"]
    ev_b = make_change_events(n_keys=150, n_events=1500, seed=83,
                              window=300)
    src_a = CDCLake(tmp_path / "src_a", _spec())
    src_b = CDCLake(tmp_path / "src_b",
                    TableSpec(name="cdc_b", num_partitions=4))
    feed_a, feed_b = tmp_path / "feed_a", tmp_path / "feed_b"
    # table A: one span per epoch (4 spans); table B: one span total
    for b in BATCHES:
        src_a.apply_events(rd.from_arrow(b))
        src_a.export_changefeed(str(feed_a), carry_cols=carry)
    src_b.apply_events(rd.from_arrow(ev_b))
    src_b.export_changefeed(str(feed_b), carry_cols=carry)

    root = tmp_path / "replicas"
    dst_a = CDCLake(root, TableSpec(name="rep_a", num_partitions=3))
    dst_b = CDCLake(root, TableSpec(name="rep_b", num_partitions=5))
    rec = replicate_group([(str(feed_a), dst_a), (str(feed_b), dst_b)])
    assert rec["rounds"] == len(BATCHES)  # A drains over all rounds
    assert rec["spans_applied"] == len(BATCHES) + 1
    assert_states_equal(_state(dst_a), ORACLE)
    assert_states_equal(_state(dst_b), oracle_apply(ev_b))
    # every replica epoch went through a group commit (txn lineage)
    assert all(r.get("committed") for r in dst_a.lineage())
    # crash drill: lose ONE cursor, then BOTH → re-runs are no-ops
    (Path(root) / "rep_a" / "_replica_cursor.json").unlink()
    rec2 = replicate_group([(str(feed_a), dst_a), (str(feed_b), dst_b)])
    assert rec2["spans_applied"] == len(BATCHES)  # A re-walks, B done
    assert_states_equal(_state(dst_a), ORACLE)
    (Path(root) / "rep_a" / "_replica_cursor.json").unlink()
    (Path(root) / "rep_b" / "_replica_cursor.json").unlink()
    rec3 = replicate_group([(str(feed_a), dst_a), (str(feed_b), dst_b)])
    assert rec3["spans_applied"] == len(BATCHES) + 1
    assert_states_equal(_state(dst_a), ORACLE)
    assert_states_equal(_state(dst_b), oracle_apply(ev_b))
    # replicas under different roots are refused
    stray = CDCLake(tmp_path / "elsewhere",
                    TableSpec(name="rep_c", num_partitions=2))
    with pytest.raises(ValueError, match="ONE root"):
        replicate_group([(str(feed_a), dst_a), (str(feed_b), stray)])


def test_replicate_group_feed_rules(tmp_path):
    """replicate_group walks a feed by replicate_changefeed's rules: a
    span whose end is above the exporter cursor (a half-written export)
    is not applied and the replica cursor stays put; a fresh consumer
    whose first span was pruned fails with a gap."""
    import shutil

    from standardized_omop_data_etl_ray.pipelines.cdc import (
        prune_changefeed,
        replicate_group,
    )

    carry = ["commit", "lang", "content"]
    src = CDCLake(tmp_path / "src", _spec())
    feed = tmp_path / "feed"
    marks = []
    for b in BATCHES[:2]:
        marks.append(src.apply_events(rd.from_arrow(b))["epoch"])
        src.export_changefeed(str(feed), carry_cols=carry)
    root = tmp_path / "replicas"
    dst = CDCLake(root, TableSpec(name="rep", num_partitions=3))
    assert replicate_group([(str(feed), dst)])["spans_applied"] == 2
    cur = Path(root) / "rep" / "_replica_cursor.json"
    assert json.loads(cur.read_text())["epoch"] == marks[-1]
    # a span starting at the replica cursor but ending above the
    # exporter cursor, with real change files in it
    half = feed / f"span={marks[-1]:06d}-{marks[-1] + 5:06d}"
    shutil.copytree(feed / f"span=000000-{marks[0]:06d}", half)
    epochs = dst.snapshot_epochs()
    rec = replicate_group([(str(feed), dst)])
    assert rec == {"rounds": 0, "spans_applied": 0}
    assert json.loads(cur.read_text())["epoch"] == marks[-1]
    assert dst.snapshot_epochs() == epochs
    # a fresh consumer of a feed whose first span was pruned
    prune_changefeed(str(feed), marks[0])
    fresh = CDCLake(root, TableSpec(name="rep2", num_partitions=2))
    with pytest.raises(ValueError, match="gap"):
        replicate_group([(str(feed), fresh)])


def test_synthesized_tombstones_carry_no_payload(tmp_path):
    """One rule for every synthesized event: a tombstone carries no
    payload.  The source's D events carry their last-known commit, yet
    the tombstones of an unfiltered replica, a row-filtered replica and
    a merged branch all have null payload columns."""
    import pyarrow.compute as pc

    from standardized_omop_data_etl_ray.pipelines.cdc import (
        replicate_changefeed,
    )

    carry = ["commit", "lang", "content"]
    dels = EVENTS.filter(pc.equal(EVENTS.column("op"), "D"))
    assert dels.column("commit").null_count < dels.num_rows, \
        "vacuous: source tombstones carry no commit"

    def pred(img):
        return pc.fill_null(
            pc.equal(img.column("lang"), "py"), False
        ).to_numpy(zero_copy_only=False)

    src = CDCLake(tmp_path / "src", _spec())
    feed = tmp_path / "feed"
    dst = CDCLake(tmp_path / "dst",
                  TableSpec(name="replica", num_partitions=3))
    dstf = CDCLake(tmp_path / "dstf",
                   TableSpec(name="replica", num_partitions=3))
    for b in BATCHES:
        src.apply_events(rd.from_arrow(b))
        src.export_changefeed(str(feed), carry_cols=carry)
        replicate_changefeed(str(feed), dst)
        replicate_changefeed(str(feed), dstf, predicate=pred)
    for lake in (dst, dstf):
        deltas = lake.read_deltas().to_pandas()
        tomb = deltas[deltas["op"] == "D"]
        assert len(tomb) > 0, "vacuous: no replica tombstones"
        assert tomb[carry].isna().all().all(), tomb[carry].head()

    # a branch tombstone carrying a commit merges as a payload-free one
    branch = src.clone(str(tmp_path / "branch"))
    k = ORACLE.slice(0, 1)
    branch.apply_events(rd.from_arrow(pa.table({
        "op": ["D"], "lsn": pa.array([10**9], pa.int64()),
        "repo": k.column("repo"), "path": k.column("path"),
        "commit": ["feedface"], "lang": pa.array([None], pa.string()),
        "content": pa.array([None], pa.string()),
    })))
    src.merge_branch(branch)
    key = {"repo": k.column("repo")[0].as_py(),
           "path": k.column("path")[0].as_py()}
    hist = src.key_history([key]).to_pandas().sort_values("lsn")
    assert hist["op"].iloc[-1] == "D"
    assert hist[carry].iloc[-1].isna().all()


def test_agg_view_over_replica(tmp_path):
    """A replica is a first-class lake: an incremental aggregate view
    maintained on the REPLICA's own epochs (one per consumed span)
    tracks the source state across span arrivals — the full stack
    composes: outbox → replicate → change sets → differential view."""
    from standardized_omop_data_etl_ray.pipelines.cdc import (
        replicate_changefeed,
    )
    from standardized_omop_data_etl_ray.pipelines.views import (
        MaterializedAggView,
    )
    from standardized_omop_data_etl_ray.stages.incremental import (
        IncAggSpec,
        view_result,
    )

    carry = ["commit", "lang", "content"]
    src = CDCLake(tmp_path / "src", _spec())
    feed = tmp_path / "feed"
    dst = CDCLake(tmp_path / "dst",
                  TableSpec(name="replica", num_partitions=3))
    spec = IncAggSpec(group_cols=["lang"], count="n")
    view = MaterializedAggView(str(tmp_path / "v"), spec, dst)
    changed = 0
    for b in BATCHES:
        src.apply_events(rd.from_arrow(b))
        src.export_changefeed(str(feed), carry_cols=carry)
        replicate_changefeed(str(feed), dst)
        changed += bool(view.refresh()["changed"])
    assert changed == len(BATCHES)
    got = view_result(view.read(), spec).to_pandas()
    got = {r["lang"]: int(r["n"]) for _, r in got.iterrows()}
    want = ORACLE.to_pandas().groupby("lang").size().to_dict()
    assert got == {k: int(v) for k, v in want.items()}


def test_replicate_changefeed_cascade(tmp_path):
    """CASCADING replication (A → B → C): a replica is a first-class
    lake, so B can export its OWN changefeed (its epochs are the spans
    it consumed) and feed a second-tier replica C that never sees A's
    log, state, or feed.  Each tier re-nets the change set, so C's
    state must still equal the LWW oracle; re-driving the chain after
    catch-up is a no-op at every tier."""
    from standardized_omop_data_etl_ray.pipelines.cdc import (
        replicate_changefeed,
    )

    carry = ["commit", "lang", "content"]
    a = CDCLake(tmp_path / "a", _spec())
    b = CDCLake(tmp_path / "b",
                TableSpec(name="tier1", num_partitions=3))
    c = CDCLake(tmp_path / "c",
                TableSpec(name="tier2", num_partitions=5))
    feed_ab = tmp_path / "feed_ab"
    feed_bc = tmp_path / "feed_bc"
    for batch in BATCHES:
        a.apply_events(rd.from_arrow(batch))
        a.export_changefeed(str(feed_ab), carry_cols=carry)
        replicate_changefeed(str(feed_ab), b)
        # tier 2: B exports the net of the spans it just consumed
        b.export_changefeed(str(feed_bc), carry_cols=carry)
        replicate_changefeed(str(feed_bc), c)
    assert_states_equal(_state(b), ORACLE)
    assert_states_equal(_state(c), ORACLE)
    # caught-up chain is a no-op end to end
    a.export_changefeed(str(feed_ab), carry_cols=carry)
    assert replicate_changefeed(str(feed_ab), b)["spans_applied"] == 0
    b.export_changefeed(str(feed_bc), carry_cols=carry)
    assert replicate_changefeed(str(feed_bc), c)["spans_applied"] == 0
    assert_states_equal(_state(c), ORACLE)


def test_replicate_projected_subscription(tmp_path):
    """COLUMN-PROJECTED subscription: the replica's TableSpec declares a
    subset of the source payload (here just ``lang``), and the span
    fold ships/stores only those columns — the schema-mapped complement
    of the row-filtered subscription.  The replica equals the projected
    LWW oracle, and verify_replica (which scopes the checksum to the
    REPLICA's columns) agrees across the width mismatch."""
    import pyarrow.compute as pc

    from standardized_omop_data_etl_ray.pipelines.cdc import (
        replicate_changefeed,
        verify_replica,
    )

    carry = ["commit", "lang", "content"]
    src = CDCLake(tmp_path / "src", _spec())
    feed = tmp_path / "feed"
    narrow = TableSpec(
        name="replica_lang",
        content_col="lang",
        schema=pa.schema(
            [("op", pa.string()), ("lsn", pa.int64()),
             ("repo", pa.string()), ("path", pa.string()),
             ("lang", pa.string())]
        ),
        num_partitions=3,
    )
    dst = CDCLake(tmp_path / "dst", narrow)
    for batch in BATCHES:
        src.apply_events(rd.from_arrow(batch))
    src.export_changefeed(str(feed), carry_cols=carry)
    replicate_changefeed(str(feed), dst)
    got = _state(dst)
    assert set(got.column_names) >= {"repo", "path", "lang"}
    assert "content" not in got.column_names
    want = ORACLE.select(["repo", "path", "lang"])
    got = got.select(["repo", "path", "lang"]).sort_by(
        [("repo", "ascending"), ("path", "ascending")]
    )
    want = want.sort_by(
        [("repo", "ascending"), ("path", "ascending")]
    )
    assert got.equals(want), "projected replica != projected oracle"
    chk = verify_replica(src, dst)
    assert chk["equal"], chk
    # drift on the projected column flips the verdict
    import pyarrow.parquet as pq

    for f in sorted((Path(dst.root) / "replica_lang").rglob("*.parquet")):
        t = pq.read_table(str(f))
        live = pc.not_equal(t.column("op"), "D") if "op" in t.column_names \
            else pa.array([True] * t.num_rows)
        idx = next((i for i, ok in enumerate(live.to_pylist()) if ok), None)
        if idx is None:
            continue
        lang = t.column("lang").to_pylist()
        lang[idx] = "zz-rogue"
        t = t.set_column(t.schema.get_field_index("lang"), "lang",
                         pa.array(lang, pa.string()))
        pq.write_table(t, str(f))
        break
    else:
        raise AssertionError("no live row found to corrupt")
    assert not verify_replica(src, dst)["equal"]


def test_bloom_sidecar_file_skipping(tmp_path):
    """Key-hash bloom sidecars (state/bloom.py): on an UN-compacted
    multi-epoch lake, zone maps rarely prune (each hash-scattered delta
    spans its partition's key range) but the sidecars skip every file
    whose epoch never touched a sought key; removing the sidecars
    degrades to conservative reads with the SAME rows; gc reclaims
    sidecars with their files (and crash orphans); a clone carries
    them."""
    import shutil

    lake = CDCLake(tmp_path / "lake", _spec())
    for b in BATCHES:
        lake.apply_events(rd.from_arrow(b))
    troot = Path(lake.root) / "cdc"
    n_sidecars = len(list(troot.rglob("*.parquet.bloom")))
    n_files = len(list(troot.rglob("*.parquet")))
    assert n_sidecars == n_files > 0

    # keys only EVER touched in the last batch window: earlier epochs'
    # files hold none of them and must be bloom-skipped
    ev = EVENTS.to_pandas()
    last = ev[ev["lsn"] >= 3 * WINDOW][["repo", "path"]]
    early = ev[ev["lsn"] < 3 * WINDOW][["repo", "path"]]
    fresh = (
        last.merge(early.drop_duplicates(), on=["repo", "path"],
                   how="left", indicator=True)
        .query("_merge == 'left_only'")[["repo", "path"]]
        .drop_duplicates()
    )
    assert len(fresh) > 0, "vacuous: no keys unique to the last window"
    keys = fresh.head(5).to_dict("records")
    stats = {}
    got = lake.lookup(keys, stats_out=stats)
    assert stats["files_bloom_skipped"] > 0
    assert stats["files_read"] < stats["files_total"]
    odf = ORACLE.to_pandas()
    want = odf.merge(fresh.head(5), on=["repo", "path"])
    pd.testing.assert_frame_equal(
        got.to_pandas()[["repo", "path", "commit", "content"]]
        .sort_values(["repo", "path"], ignore_index=True),
        want[["repo", "path", "commit", "content"]]
        .sort_values(["repo", "path"], ignore_index=True),
    )

    # clone carries sidecars; the branch prunes identically
    branch_root = tmp_path / "branch"
    branch = lake.clone(str(branch_root))
    bstats = {}
    bgot = branch.lookup(keys, stats_out=bstats)
    assert bstats["files_bloom_skipped"] == stats["files_bloom_skipped"]
    assert canonical_state(bgot).equals(canonical_state(got))

    # sidecars removed → conservative reads, same rows, more files
    for bfile in troot.rglob("*.parquet.bloom"):
        bfile.unlink()
    stats2 = {}
    got2 = lake.lookup(keys, stats_out=stats2)
    assert stats2["files_bloom_skipped"] == 0
    assert stats2["files_read"] > stats["files_read"]
    assert canonical_state(got2).equals(canonical_state(got))

    # gc: compaction supersedes the old deltas; their sidecars (plus a
    # planted crash orphan) are reclaimed with them, retained files
    # keep theirs, and no sidecar is left without its data file
    branch.compact()
    orphan = (Path(branch.root) / "cdc" / "part=00000"
              / "epoch=999999" / "delta.parquet.bloom")
    orphan.parent.mkdir(parents=True, exist_ok=True)
    orphan.write_bytes(b"BLM1junk")
    removed = branch.gc()
    assert not orphan.exists()
    btroot = Path(branch.root) / "cdc"
    for bfile in btroot.rglob("*.parquet.bloom"):
        assert Path(str(bfile)[: -len(".bloom")]).exists()
    live = {str(p) for p in btroot.rglob("*.parquet")}
    assert live, "compacted lake must retain base files"
    assert all(str(p) not in live for p in removed)
    # post-gc lookups on the branch stay oracle-exact
    got3 = branch.lookup(keys)
    assert canonical_state(got3).equals(canonical_state(got))
    shutil.rmtree(branch_root)


def test_read_state_projection_and_predicate(tmp_path):
    """read_state(columns=, predicate=): projected/filtered reads equal
    the post-hoc projection/filter of the full state on BOTH layouts —
    un-compacted (predicate evaluated on resolved winners inside the
    partition task) and fully compacted (projection AND predicate
    pushed into the parquet scan) — and the projected output schema is
    exactly key_cols + columns."""
    import pyarrow.compute as pc

    lake = CDCLake(tmp_path / "lake", _spec())
    for b in BATCHES:
        lake.apply_events(rd.from_arrow(b))
    full = (
        _state(lake).to_pandas()
        .sort_values(["repo", "path"], ignore_index=True)
    )

    def collect(**kw):
        refs = lake.read_state(**kw).to_arrow_refs()
        tabs = [t for t in ray.get(refs) if t.num_rows]
        df = (pa.concat_tables(tabs).to_pandas() if tabs
              else pd.DataFrame())
        return df.sort_values(["repo", "path"], ignore_index=True)

    pred = pc.field("lang") == "py"
    assert (full["lang"] == "py").any(), "vacuous predicate fixture"
    for _layout in ("deltas", "compacted"):
        proj = collect(columns=["lang", "content"])
        assert list(proj.columns) == ["repo", "path", "lang", "content"]
        pd.testing.assert_frame_equal(
            proj, full[["repo", "path", "lang", "content"]])

        filt = collect(predicate=pred)
        pd.testing.assert_frame_equal(
            filt[["repo", "path", "commit", "content"]],
            full[full["lang"] == "py"]
            .reset_index(drop=True)[["repo", "path", "commit", "content"]],
        )

        both = collect(columns=["commit"], predicate=pred)
        assert list(both.columns) == ["repo", "path", "commit"]
        pd.testing.assert_frame_equal(
            both,
            full[full["lang"] == "py"]
            .reset_index(drop=True)[["repo", "path", "commit"]],
        )

        # nothing-matches predicate: empty, schema intact
        none = lake.read_state(columns=["lang"],
                               predicate=pc.field("lang") == "nope")
        assert none.count() == 0

        lake.compact()  # second iteration exercises the scan pushdown
    # empty lake: projected empty table keeps the contract schema
    empty_lake = CDCLake(tmp_path / "empty", _spec())
    e = empty_lake.read_state(columns=["lang"])
    assert e.schema().names == ["repo", "path", "lang"]
    assert e.count() == 0


def test_timestamp_time_travel(tmp_path):
    """epoch_at_ts: commits are stamped with committed_at at the commit
    point; a wall-clock ts resolves to the newest snapshot at or before
    it, composing with every at_epoch verb.  A ts before the table's
    first commit fails loudly; a ts after the last resolves to the
    current epoch (including compaction commits)."""
    import time as _time

    lake = CDCLake(tmp_path, _spec())
    marks = []  # (ts_after_commit, epoch, canonical state)
    for b in BATCHES:
        rec = lake.apply_events(rd.from_arrow(b))
        _time.sleep(0.02)
        marks.append((_time.time(), rec["epoch"],
                      canonical_state(_state(lake))))
        _time.sleep(0.02)

    for ts, epoch, snap in marks:
        e = lake.epoch_at_ts(ts)
        assert e == epoch
        assert canonical_state(
            _state(lake, at_epoch=e)
        ).equals(snap)

    # between two commits → the earlier one; monotone stamps
    mids = [(marks[i][0] + marks[i + 1][0]) / 2 for i in range(2)]
    assert lake.epoch_at_ts(mids[0]) == marks[0][1]
    assert lake.epoch_at_ts(mids[1]) == marks[1][1]

    # before the first commit: loud failure
    with pytest.raises(ValueError, match="no snapshot committed"):
        lake.epoch_at_ts(marks[0][0] - 10.0)

    # a later maintenance commit is a time-travel target too
    rec = lake.compact()
    _time.sleep(0.02)
    assert lake.epoch_at_ts(_time.time()) == rec["epoch"]
    # and the pre-compaction marks still resolve to their epochs
    assert lake.epoch_at_ts(marks[-1][0]) == marks[-1][1]


def test_timestamp_monotone_after_restore(tmp_path):
    """restore() spreads the TARGET snapshot's manifest — the new
    commit must get a FRESH committed_at (inheriting the old stamp
    would break the monotone-in-epoch contract epoch_for_ts scans by),
    and a now-ts resolves to the restore epoch."""
    import time as _time

    lake = CDCLake(tmp_path, _spec())
    recs = [lake.apply_events(rd.from_arrow(b)) for b in BATCHES]
    _time.sleep(0.02)
    r = lake.restore(recs[0]["epoch"])
    _time.sleep(0.02)
    assert lake.epoch_at_ts(_time.time()) == r["epoch"]
    stamps = [
        mf.read_manifest_at(str(tmp_path), "cdc", e)["committed_at"]
        for e in mf.list_manifest_epochs(str(tmp_path), "cdc")
    ]
    assert stamps == sorted(stamps), "committed_at not monotone"
    assert stamps[-1] > stamps[0]


def test_key_history_audit(tmp_path):
    """key_history: every RETAINED version of a key (epoch-granular —
    the write-path combiner keeps one winner per key per epoch, the
    same commit granularity the SCD2 view documents), key+lsn ordered,
    served through the pruned point-read path.  Oracle: the UNPRUNED
    full delta scan filtered to the same keys.  After compaction only
    winners survive, but at_epoch still serves the deep chain from the
    retained snapshot."""
    lake = CDCLake(tmp_path, _spec())
    last_epoch = None
    for b in BATCHES:
        last_epoch = lake.apply_events(rd.from_arrow(b))["epoch"]

    ev = EVENTS.to_pandas()
    multi = (
        ev.groupby(["repo", "path"]).size().reset_index(name="n")
        .query("n >= 3").head(3)[["repo", "path"]]
    )
    assert len(multi) == 3, "fixture: need multi-version keys"
    keys = multi.to_dict("records")
    cols = ["repo", "path", "lsn", "op", "commit", "content"]

    def oracle(at_epoch=None):
        raw = lake.read_deltas(at_epoch).to_pandas()
        return (
            raw.merge(multi, on=["repo", "path"])
            .sort_values(["repo", "path", "lsn"], ignore_index=True)
        )[cols]

    stats = {}
    hist = lake.key_history(keys, stats_out=stats).to_pandas()
    want = oracle()
    assert len(want) > 3, "vacuous: no multi-version chains retained"
    pd.testing.assert_frame_equal(hist[cols].reset_index(drop=True), want)
    assert stats["files_total"] >= stats["files_read"] > 0
    assert (hist.groupby(["repo", "path"])["lsn"]
            .apply(lambda s: s.is_monotonic_increasing).all())
    # the chain tail agrees with the resolved point lookup
    live = lake.lookup(keys).to_pandas()
    tails = (hist[hist["op"] != "D"]
             .sort_values("lsn").groupby(["repo", "path"]).tail(1))
    dead = set(map(tuple, hist.sort_values("lsn")
                   .groupby(["repo", "path"]).tail(1)
                   .query("op == 'D'")[["repo", "path"]].values))
    assert set(map(tuple, live[["repo", "path"]].values)) == (
        set(map(tuple, tails[["repo", "path"]].values)) - dead
    )

    # compaction collapses superseded versions ...
    lake.compact()
    flat = lake.key_history(keys).to_pandas()
    assert len(flat) <= len(multi)
    # ... but the retained pre-compaction snapshot serves the deep chain
    deep = lake.key_history(keys, at_epoch=last_epoch).to_pandas()
    pd.testing.assert_frame_equal(deep[cols].reset_index(drop=True), want)


def test_concurrent_epoch_claims_are_unique(tmp_path):
    """Two writer INSTANCES on one table can never share an epoch:
    allocation claims a cross-process O_EXCL marker, so deterministic
    delta paths cannot collide.  gc reclaims claims at or below the
    committed epoch, keeps in-flight ones above it."""
    lake1 = CDCLake(tmp_path, _spec())
    lake2 = CDCLake(tmp_path, _spec())
    es = [lake1._alloc_epoch(), lake2._alloc_epoch(),
          lake1._alloc_epoch(), lake2._alloc_epoch()]
    assert len(set(es)) == 4
    lake1.apply_events(rd.from_arrow(BATCHES[0]))
    committed = mf.read_manifest(str(tmp_path), "cdc")["epoch"]
    inflight = lake2._alloc_epoch()
    assert inflight > committed
    lake1.gc()
    edir = Path(tmp_path) / "cdc" / "_epochs"
    left = sorted(int(p.stem) for p in edir.glob("*.claim"))
    assert all(e > committed for e in left)
    assert inflight in left


def test_concurrent_commit_rebase_preserves_both(tmp_path):
    """Optimistic concurrency, in-order case: writer A claims an epoch
    and commits; writer B — whose manifest view is STALE (read before
    A's commit) but whose claim is newer — commits after and must
    REBASE: A's files survive in B's manifest, the state is the LWW of
    both windows, and all commits appear in lineage."""
    from standardized_omop_data_etl_ray.pipelines.cdc import CDCLake

    lake_a = CDCLake(tmp_path, _spec())
    lake_b = CDCLake(tmp_path, _spec())
    lake_a.apply_events(rd.from_arrow(BATCHES[0]))  # epoch 1

    m_stale = mf.read_manifest(str(tmp_path), "cdc")
    e_a = lake_a._alloc_epoch()
    stats_a = lake_a._phase1(rd.from_arrow(BATCHES[1]), e_a,
                             lake_a._watermarks(m_stale), lake_a.spec)
    e_b = lake_b._alloc_epoch()
    assert e_b > e_a
    stats_b = lake_b._phase1(rd.from_arrow(BATCHES[2]), e_b,
                             lake_b._watermarks(m_stale), lake_b.spec)
    # A commits first (cur.epoch < e_a: plain fold) ...
    lake_a._commit(m_stale, e_a, stats_a, {"epoch": e_a}, lake_a.spec)
    # ... then B commits with its STALE prev: the rebase must fold
    # against the CURRENT manifest, keeping A's files
    lake_b._commit(m_stale, e_b, stats_b, {"epoch": e_b}, lake_b.spec)

    m = mf.read_manifest(str(tmp_path), "cdc")
    assert m["epoch"] == e_b
    committed_epochs = {r["epoch"] for r in m["lineage"]}
    assert {1, e_a, e_b} <= committed_epochs
    files = [f for info in m["partitions"].values() for f in info["files"]]
    assert any(f"epoch={e_a:06d}" in f for f in files), "A's files lost"
    assert any(f"epoch={e_b:06d}" in f for f in files)
    # the merged state equals the full-log oracle for the 3 windows
    want = oracle_apply(
        pa.concat_tables([BATCHES[0], BATCHES[1], BATCHES[2]])
    )
    n_batches = len(BATCHES)
    if n_batches == 3:
        assert_states_equal(_state(lake_b), ORACLE)
    else:
        assert_states_equal(_state(lake_b), want)


def test_concurrent_commit_inversion_refused(tmp_path):
    """Optimistic concurrency, inversion case: an OLDER claim trying to
    commit after a NEWER claim already landed is refused loudly
    (snapshot numbers must not regress — cursors, change sets and time
    travel order by them); its files stay invisible orphans, gc
    reclaims them, and the DOCUMENTED recovery — restore() to the
    pre-race snapshot (watermarks revert with it) + re-tail from the
    lost window — converges to the oracle exactly-once."""
    from standardized_omop_data_etl_ray.pipelines.cdc import (
        ConcurrentCommitError,
    )

    lake_a = CDCLake(tmp_path, _spec())
    lake_b = CDCLake(tmp_path, _spec())
    lake_a.apply_events(rd.from_arrow(BATCHES[0]))

    m_stale = mf.read_manifest(str(tmp_path), "cdc")
    e_a = lake_a._alloc_epoch()          # older claim
    stats_a = lake_a._phase1(rd.from_arrow(BATCHES[1]), e_a,
                             lake_a._watermarks(m_stale), lake_a.spec)
    lake_b.apply_events(rd.from_arrow(BATCHES[2]))  # newer claim commits
    with pytest.raises(ConcurrentCommitError, match="lost the commit"):
        lake_a._commit(m_stale, e_a, stats_a, {"epoch": e_a}, lake_a.spec)

    # the refused epoch's files are invisible and reclaimable
    m = mf.read_manifest(str(tmp_path), "cdc")
    files = [f for info in m["partitions"].values() for f in info["files"]]
    assert not any(f"epoch={e_a:06d}" in f for f in files)
    removed = lake_a.gc()
    assert any(f"epoch={e_a:06d}" in r for r in removed)
    # recovery per the error contract: a PLAIN re-apply would skip the
    # lost window (its lsns sit below the watermark BATCHES[2] raised)
    # — restore to the pre-race snapshot, then re-tail in order
    lake_a.restore(m_stale["epoch"])
    for b in BATCHES[1:]:
        lake_a.apply_events(rd.from_arrow(b))
    for b in BATCHES:
        lake_a.apply_events(rd.from_arrow(b))  # full redelivery no-op
    assert_states_equal(_state(lake_a), ORACLE)


def test_stale_commit_lock_is_stolen(tmp_path):
    """A crashed writer's abandoned _COMMIT_LOCK must not wedge the
    table: commits steal locks older than the staleness bound and
    proceed; a FRESH lock from a live writer blocks until released
    (bounded wait)."""
    import os
    import time as _time

    lake = CDCLake(tmp_path, _spec())
    lock = Path(tmp_path) / "cdc" / "_COMMIT_LOCK"
    lock.parent.mkdir(parents=True, exist_ok=True)
    lock.write_text("99999 0.0")
    old = _time.time() - 3600
    os.utime(lock, (old, old))  # crashed holder, an hour ago
    rec = lake.apply_events(rd.from_arrow(BATCHES[0]))
    assert rec["committed"]
    assert not lock.exists(), "stolen lock must be released after commit"

    # a LIVE lock delays but does not deadlock: hold it briefly from a
    # thread, start a commit, assert it lands after the release
    import threading

    lock.write_text(f"{os.getpid()} {_time.time()}")
    released = threading.Timer(1.0, lock.unlink)
    released.start()
    t0 = _time.time()
    rec2 = lake.apply_events(rd.from_arrow(BATCHES[1]))
    released.join()
    assert rec2["committed"]
    assert _time.time() - t0 >= 0.9, "commit should have waited"


def test_lookup_after_schema_evolution(tmp_path):
    """Review-finding regression: an epoch that ADDS a column must
    commit a manifest schema in canonical order (payload first, engine
    columns last) — pa.unify_schemas appends new fields after the
    engine columns, and lookup()/key_history() cast with field-ORDER-
    sensitive Table.cast, so the un-reordered union crashed every
    point read on an evolved lake."""
    lake = CDCLake(tmp_path, _spec())
    lake.apply_events(rd.from_arrow(BATCHES[0]))
    evolved = BATCHES[1].append_column(
        "stars", pa.array(range(BATCHES[1].num_rows), pa.int64()))
    lake.apply_events(rd.from_arrow(evolved))

    m = mf.read_manifest(str(tmp_path), "cdc")
    names = mf.schema_from_b64(m["schema"]).names
    assert names[-3:] == ["content_sha", "key_hash", "part"]
    assert "stars" in names[:-3]

    ev = evolved.to_pandas()
    keys = (ev[["repo", "path"]].drop_duplicates().head(3)
            .to_dict("records"))
    got = lake.lookup(keys)        # crashed before the fix
    assert got.num_rows > 0
    assert "stars" in got.schema.names
    hist = lake.key_history(keys)
    assert hist.num_rows >= got.num_rows


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP direction H: the per-partition watermark drops an event "
    "at or below it as if already applied, so a late event is lost "
    "with no counter and no DLQ row"))
def test_late_events_below_watermark_are_applied(tmp_path):
    def ev(rows):
        return pa.table({
            "op": [r[1] for r in rows],
            "lsn": pa.array([r[0] for r in rows], pa.int64()),
            "repo": ["r"] * len(rows), "path": [r[2] for r in rows],
            "commit": [f"c{r[0]}" for r in rows],
            "lang": ["py"] * len(rows),
            "content": [f"{r[2]}@{r[0]}" for r in rows],
        })

    first = ev([(10, "I", "a"), (100, "I", "b")])
    late = ev([(50, "I", "c"), (60, "U", "a")])
    lake = CDCLake(tmp_path, _spec(1))
    lake.apply_events(rd.from_arrow(first))
    lake.apply_events(rd.from_arrow(late))
    assert_states_equal(
        _state(lake), oracle_apply(pa.concat_tables([first, late])))


def _two_part_keys():
    """Two paths under repo 'r' that hash to different partitions of a
    2-partition lake."""
    from standardized_omop_data_etl_ray.functions.hashing import (
        key_hash_u64,
        partition_of,
    )

    paths = [f"k{i}" for i in range(16)]
    parts = partition_of(
        key_hash_u64(pa.array(["r"] * len(paths)), pa.array(paths)), 2
    ).to_pylist()
    return (next(p for p, q in zip(paths, parts) if q == 0),
            next(p for p, q in zip(paths, parts) if q == 1))


def _events(rows) -> pa.Table:
    """(op, lsn, path, content) rows → CDC events under repo 'r'."""
    return pa.table({
        "op": [r[0] for r in rows],
        "lsn": pa.array([r[1] for r in rows], pa.int64()),
        "repo": ["r"] * len(rows), "path": [r[2] for r in rows],
        "commit": [f"c{r[1]}" for r in rows],
        "lang": ["py"] * len(rows),
        "content": [r[3] for r in rows],
    })


def test_change_set_ignores_stale_redelivery_after_reshard(tmp_path):
    """reshard() gives every new partition the minimum old watermark,
    so a redelivered stale event passes the watermark filter and lands
    in a delta file.  It loses to the key's winner in ``read_state``;
    the epoch's change set, the net change feed and a replica built
    from that feed must agree with it and report nothing."""
    from standardized_omop_data_etl_ray.pipelines.cdc import (
        epoch_change_set,
        replicate_changefeed,
        verify_replica,
    )

    a, b = _two_part_keys()
    lake = CDCLake(tmp_path / "src", _spec(2), auto_compact_files=None)
    lake.apply_events(rd.from_arrow(_events([
        ("I", 50, a, "a0"), ("U", 100, a, "a1"), ("I", 5, b, "b0")])))
    lake.reshard(3)  # every new partition: wm = min(100, 5) = 5
    rec = lake.apply_events(rd.from_arrow(_events([("I", 50, a, "a0")])))
    assert rec["committed"] and rec["epoch"] == 3
    st = _state(lake).to_pandas().set_index("path")
    assert st.loc[a, "lsn"] == 100 and st.loc[a, "content"] == "a1"

    assert epoch_change_set(lake, rec["epoch"],
                            carry_cols=["content"]).count() == 0
    assert lake.changes_between(2).count() == 0

    feed = tmp_path / "feed"
    lake.export_changefeed(str(feed), carry_cols=["commit", "lang", "content"])
    replica = CDCLake(tmp_path / "dst", TableSpec(name="replica",
                                                  num_partitions=2))
    replicate_changefeed(str(feed), replica)
    assert verify_replica(lake, replica)["equal"]


def test_stream_change_set_ignores_stale_redelivery(tmp_path):
    """With ``max_inflight=2`` the second window filters against the
    watermarks from before the first window committed, so its stale
    redelivery reaches a delta file.  The epoch's change set must not
    report the stale version as an update."""
    from standardized_omop_data_etl_ray.pipelines.cdc import epoch_change_set

    a, _b = _two_part_keys()
    lake = CDCLake(tmp_path, _spec(2), auto_compact_files=None)
    recs = lake.apply_stream(
        [rd.from_arrow(_events([("I", 50, a, "a0"), ("U", 100, a, "a1")])),
         rd.from_arrow(_events([("I", 50, a, "a0")]))],
        max_inflight=2,
    )
    assert [r["committed"] for r in recs] == [True, True]
    assert _state(lake).to_pandas().set_index("path").loc[a, "lsn"] == 100
    assert epoch_change_set(lake, recs[1]["epoch"],
                            carry_cols=["content"]).count() == 0
