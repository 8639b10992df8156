"""Sources (typed CSV, binlog tail) + CLI replay resume semantics."""

import json
import subprocess
import sys

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray
import ray.data as rd

from standardized_omop_data_etl_ray.datagen import make_change_events
from standardized_omop_data_etl_ray.oracle import assert_states_equal, oracle_apply
from standardized_omop_data_etl_ray.pipelines.cdc import CDCLake
from standardized_omop_data_etl_ray.sources.binlog import BinlogTail
from standardized_omop_data_etl_ray.sources.csv_source import read_csv_typed
from standardized_omop_data_etl_ray.spec import TableSpec


def test_read_csv_typed(tmp_path):
    # reference S1: codes as nullable Int64, ids as str, blanks as null
    p = tmp_path / "demo.csv"
    p.write_text(
        "Participant_ID,sex,score\n"
        "001,1,4.5\n"
        "002,,\n"
        "010,2,1.0\n"
    )
    ds = read_csv_typed(
        str(p), int_cols=["sex"], str_cols=["Participant_ID"],
        float_cols=["score"],
    )
    t = ds.to_pandas()
    assert t["Participant_ID"].tolist() == ["001", "002", "010"]  # not 1,2,10
    assert t["sex"].isna().sum() == 1
    assert str(t["score"].dtype) == "float64"


def _write_segments(tmp_path, events, n_segments=6):
    import numpy as np

    d = tmp_path / "binlog"
    d.mkdir()
    lsn = events.column("lsn").to_numpy()
    step = (int(lsn.max()) + n_segments) // n_segments
    for i in range(n_segments):
        sub = events.filter(pa.array(lsn // step == i))
        if sub.num_rows:
            pq.write_table(sub, d / f"seg-{i * step:012d}.parquet")
    return d


def test_binlog_tail_windows_and_watermark_skip(tmp_path):
    events = make_change_events(n_keys=150, n_events=1800, seed=5, window=300)
    d = _write_segments(tmp_path, events)
    tail = BinlogTail(d)
    assert len(tail.segments()) == 6
    windows = list(tail.windows(start_after=-1, segments_per_window=2))
    assert len(windows) == 3
    total = sum(w.count() for w in windows)
    assert total == events.num_rows
    # after "committing" up to some lsn, fully-applied segments are skipped
    mid = tail.segment_max_lsn(tail.segments()[2])
    later = tail.new_segments(after_lsn=mid)
    assert len(later) == 3


def test_binlog_to_lake_matches_oracle(tmp_path):
    events = make_change_events(n_keys=200, n_events=2400, seed=6, window=300)
    d = _write_segments(tmp_path, events)
    lake = CDCLake(tmp_path / "lake", TableSpec(name="cdc", num_partitions=6))
    tail = BinlogTail(d)
    for w in tail.windows(segments_per_window=2):
        lake.apply_events(w)
    tabs = [t for t in ray.get(lake.read_state().to_arrow_refs()) if t.num_rows]
    assert_states_equal(pa.concat_tables(tabs), oracle_apply(events))


def test_cli_replay_and_resume(tmp_path):
    """The ray-job surface: run the CLI, kill nothing, re-run → resume is
    a no-op; final state matches the oracle."""
    events = make_change_events(n_keys=120, n_events=1500, seed=9, window=250)
    d = _write_segments(tmp_path, events)
    lake_dir = tmp_path / "lake"

    def run():
        out = subprocess.run(
            [sys.executable, "-m", "standardized_omop_data_etl_ray.replay",
             "--segments", str(d), "--lake", str(lake_dir),
             "--num-partitions", "4", "--segments-per-window", "2",
             "--num-cpus", "2"],
            capture_output=True, text=True, cwd="/root/repo", timeout=300,
        )
        assert out.returncode == 0, out.stderr[-2000:]
        return [json.loads(l) for l in out.stdout.strip().splitlines()]

    first = run()
    assert first[-1]["summary"] and first[-1]["events_applied"] > 0
    second = run()  # resume: everything already applied
    assert second[-1]["events_applied"] == 0

    # admin flags: reshard to a new partition count, then resume again —
    # still a no-op, and the resharded lake adopts the new layout
    out = subprocess.run(
        [sys.executable, "-m", "standardized_omop_data_etl_ray.replay",
         "--segments", str(d), "--lake", str(lake_dir),
         "--num-partitions", "4", "--segments-per-window", "2",
         "--num-cpus", "2", "--reshard", "7", "--compact",
         "--retain-manifests", "2"],
        capture_output=True, text=True, cwd="/root/repo", timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    recs = [json.loads(l) for l in out.stdout.strip().splitlines()]
    assert recs[0]["reshard"] and recs[0]["to"] == 7
    assert recs[-1]["events_applied"] == 0


def test_cli_export_and_replicate(tmp_path):
    """The deployment shape of the replication arc: a primary replay
    with --export-feed, a replica lake fed by --replicate-from; the
    replica checksum-verifies against the primary, and a consumer
    re-run is a no-op."""
    events = make_change_events(n_keys=100, n_events=1200, seed=31,
                                window=200)
    d = _write_segments(tmp_path, events)
    lake_dir, feed, rep = tmp_path / "lake", tmp_path / "feed", tmp_path / "rep"

    def run(args):
        out = subprocess.run(
            [sys.executable, "-m", "standardized_omop_data_etl_ray.replay", *args],
            capture_output=True, text=True, cwd="/root/repo", timeout=300,
        )
        assert out.returncode == 0, out.stderr[-2000:]
        return [json.loads(l) for l in out.stdout.strip().splitlines()]

    run(["--segments", str(d), "--lake", str(lake_dir),
         "--num-partitions", "4", "--segments-per-window", "2",
         "--num-cpus", "2", "--export-feed", str(feed)])
    recs = run(["--lake", str(rep), "--table", "replica",
                "--num-partitions", "3", "--num-cpus", "2",
                "--replicate-from", str(feed)])
    assert recs[0]["replicated"] and recs[0]["spans_applied"] >= 1
    recs2 = run(["--lake", str(rep), "--table", "replica",
                 "--num-partitions", "3", "--num-cpus", "2",
                 "--replicate-from", str(feed)])
    assert recs2[0]["spans_applied"] == 0  # consumer resume is a no-op
    # replica checksum-verifies against the primary (in-process)
    from standardized_omop_data_etl_ray.pipelines.cdc import (
        CDCLake,
        verify_replica,
    )
    from standardized_omop_data_etl_ray.spec import TableSpec

    src = CDCLake(str(lake_dir), TableSpec(name="cdc", num_partitions=4))
    dst = CDCLake(str(rep), TableSpec(name="replica", num_partitions=3))
    v = verify_replica(src, dst)
    assert v["equal"] and v["src"]["rows"] > 0


def test_binlog_missing_stats_and_missing_lsn(tmp_path):
    """Stats-less segments must be INCLUDED (unknown ≠ already applied:
    skipping silently loses data for writers that disable column stats);
    a segment without an lsn column must raise, not vanish."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import pytest

    from standardized_omop_data_etl_ray.sources.binlog import BinlogTail

    d = tmp_path / "segs"
    d.mkdir()
    t = pa.table({"lsn": pa.array([5, 6, 7], pa.int64()), "v": ["a", "b", "c"]})
    pq.write_table(t, d / "seg-000005.parquet", write_statistics=False)
    tail = BinlogTail(d)
    assert tail.segment_max_lsn(d / "seg-000005.parquet") is None
    # watermark already beyond every row — still included (unknown)
    assert tail.new_segments(after_lsn=100) == [d / "seg-000005.parquet"]

    bad = pa.table({"x": [1]})
    pq.write_table(bad, d / "seg-000009.parquet")
    with pytest.raises(ValueError, match="no 'lsn' column"):
        tail.new_segments()


def test_read_jsonl_typed(tmp_path):
    """JSONL shards with disagreeing per-shard inference (all-null col,
    float-typed ints, missing col) coerce to one declared schema."""
    import json

    import ray.data as rd  # noqa: F401

    from standardized_omop_data_etl_ray.sources.jsonl_source import (
        read_jsonl_typed,
    )

    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    a.write_text("\n".join(json.dumps(r) for r in [
        {"id": 1, "code": None, "score": 1.5},
        {"id": 2, "code": None, "score": 2.0},
    ]))
    b.write_text("\n".join(json.dumps(r) for r in [
        {"id": 3.0, "code": "x7"},
        {"id": 4.0, "code": "x8"},
    ]))
    out = read_jsonl_typed(
        [str(a), str(b)],
        int_cols=["id"], str_cols=["code"], float_cols=["score"],
    )
    df = out.to_pandas().sort_values("id").reset_index(drop=True)
    assert list(df["id"]) == [1, 2, 3, 4]
    assert str(df["id"].dtype) == "int64"
    assert df.loc[2, "code"] == "x7"
    assert df.loc[0, "code"] is None or pd.isna(df.loc[0, "code"])
    assert pd.isna(df.loc[2, "score"]) and df.loc[0, "score"] == 1.5


def test_debezium_envelope_roundtrip(tmp_path):
    """Debezium envelope JSONL → canonical events → lake replay equals
    the single-process oracle over the same flat log; snapshot-read 'r'
    maps to insert; deletes take keys from `before` with null payload;
    an unknown op flattens to null and is DLQ-diverted."""
    import json as _json

    import pyarrow as pa
    import ray.data as rd

    from standardized_omop_data_etl_ray.oracle import (
        assert_states_equal,
        oracle_apply,
    )
    from standardized_omop_data_etl_ray.pipelines.cdc import CDCLake
    from standardized_omop_data_etl_ray.sources.debezium import read_debezium
    from standardized_omop_data_etl_ray.spec import TableSpec

    def env(op, lsn, repo, path, content=None, commit=None):
        row = {"repo": repo, "path": path, "commit": commit,
               "lang": "py", "content": content}
        return {"op": op, "source": {"lsn": lsn, "db": "x"},
                "before": row if op == "d" else None,
                "after": None if op == "d" else row}

    events = [
        env("r", 1, "r1", "a", "a0", "c1"),     # snapshot read = insert
        env("c", 2, "r1", "b", "b0", "c2"),
        env("u", 4, "r1", "a", "a1", "c4"),     # out of order vs lsn 3
        env("d", 3, "r1", "b"),
        env("c", 5, "r1", "b", "b1", "c5"),     # delete-then-reinsert
        env("u", 6, "r2", "a", "z0", "c6"),
    ]
    p = tmp_path / "feed.jsonl"
    p.write_text("\n".join(_json.dumps(e) for e in events) + "\n")

    ds = read_debezium(
        str(p), key_cols=["repo", "path"],
        payload_cols=["commit", "lang", "content"],
    )
    flat = pa.concat_tables(
        [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    )
    assert sorted(flat["op"].to_pylist()) == ["D", "I", "I", "I", "U", "U"]

    lake = CDCLake(tmp_path / "lake", TableSpec(name="dbz",
                                                num_partitions=2))
    lake.apply_events(ds)
    state = pa.concat_tables(
        [t for t in ray.get(lake.read_state().to_arrow_refs())
         if t.num_rows])
    assert_states_equal(state, oracle_apply(flat))

    # unknown op code → null op → diverted, not applied, not fatal
    bad = tmp_path / "bad.jsonl"
    bad.write_text(_json.dumps(env("x", 9, "r9", "q", "qq", "c9")) + "\n")
    dlq = CDCLake(tmp_path / "lake2", TableSpec(name="dbz",
                                                num_partitions=2),
                  dead_letter=True)
    rec = dlq.apply_events(read_debezium(
        str(bad), key_cols=["repo", "path"],
        payload_cols=["commit", "lang", "content"],
    ))
    assert rec["rows_dead_lettered"] == 1
    assert dlq.read_state().count() == 0


def test_debezium_missing_envelope_fields(tmp_path):
    """Producers that omit null fields: a file whose rows all lack
    `before`, or whose source struct lacks the lsn field, must degrade
    to typed nulls (DLQ-divertible) — never fail the read (review
    finding)."""
    import json as _json

    import pyarrow as pa

    from standardized_omop_data_etl_ray.sources.debezium import read_debezium

    rows = [
        # no `before` key at all (insert-only producer)
        {"op": "c", "source": {"lsn": 1},
         "after": {"repo": "r", "path": "a", "commit": "c1",
                   "lang": "py", "content": "x"}},
        # source struct without lsn → null lsn (poison, DLQ shape)
        {"op": "c", "source": {"db": "d"},
         "after": {"repo": "r", "path": "b", "commit": "c2",
                   "lang": "py", "content": "y"}},
    ]
    p = tmp_path / "feed.jsonl"
    p.write_text("\n".join(_json.dumps(r) for r in rows) + "\n")
    ds = read_debezium(str(p), key_cols=["repo", "path"],
                       payload_cols=["commit", "lang", "content"])
    flat = pa.concat_tables(
        [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows])
    assert flat.num_rows == 2
    assert flat.column("lsn").to_pylist() == [1, None]
    assert flat.column("op").to_pylist() == ["I", "I"]


def test_cli_ddl_verbs(tmp_path):
    """--rename-column / --widen-column on the ray-job surface: DDL
    applies before tailing, the resumed tail is still a no-op, and the
    state answers the new name."""
    events = make_change_events(n_keys=80, n_events=900, seed=23,
                                window=200, evolve_after_frac=0.0)
    d = _write_segments(tmp_path, events)
    lake_dir = tmp_path / "lake"

    def run(*extra):
        out = subprocess.run(
            [sys.executable, "-m", "standardized_omop_data_etl_ray.replay",
             "--segments", str(d), "--lake", str(lake_dir),
             "--num-partitions", "4", "--segments-per-window", "2",
             "--num-cpus", "2", *extra],
            capture_output=True, text=True, cwd="/root/repo", timeout=300,
        )
        assert out.returncode == 0, out.stderr[-2000:]
        return [json.loads(l) for l in out.stdout.strip().splitlines()]

    run()
    recs = run("--rename-column", "lang", "language",
               "--widen-column", "size_bytes", "double")
    assert recs[0]["ddl"] == "rename_column" and recs[0]["to"] == "language"
    assert recs[1]["ddl"] == "widen_column" and recs[1]["to"] == "double"
    assert recs[-1]["events_applied"] == 0  # resume stays a no-op

    lake = CDCLake(lake_dir, TableSpec(name="cdc", num_partitions=4))
    st = lake.read_state().to_pandas()
    assert "language" in st.columns and "lang" not in st.columns
    assert str(st.dtypes["size_bytes"]) == "float64"

    recs = run("--add-column", "stars", "int64", "3")
    assert recs[0]["ddl"] == "add_column"
    assert recs[0]["files_rewritten"] > 0
    st = CDCLake(lake_dir, TableSpec(name="cdc", num_partitions=4)) \
        .read_state().to_pandas()
    assert (st["stars"] == 3).all()
