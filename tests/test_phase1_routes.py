"""Phase-1 routes: one planned block runs map-only, several run the
``part`` exchange.  Both must write the same files, a block that Ray
splits at run time must not lose rows, and an epoch that writes nothing
must neither commit nor use up an epoch number."""

import hashlib
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data as rd
from ray.data import DataContext

from standardized_omop_data_etl_ray.datagen import make_change_events, micro_batches
from standardized_omop_data_etl_ray.oracle import assert_states_equal, oracle_apply
from standardized_omop_data_etl_ray.pipelines.cdc import CDCLake, _planned_blocks
from standardized_omop_data_etl_ray.sources.binlog import BinlogTail
from standardized_omop_data_etl_ray.spec import TableSpec
from standardized_omop_data_etl_ray.state import manifest as mf

WINDOW = 300
EVENTS = make_change_events(n_keys=200, n_events=3000, seed=7, window=WINDOW)
BATCHES = list(micro_batches(EVENTS, batch_windows=1, window=WINDOW))


def _state(lake: CDCLake) -> pa.Table:
    tabs = [t for t in ray.get(lake.read_state().to_arrow_refs()) if t.num_rows]
    return pa.concat_tables(tabs)


def _file_hashes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("part=*/epoch=*/*"))
        if p.suffix in (".parquet", ".bloom")
    }


def test_map_only_and_exchange_write_identical_files(tmp_path):
    one = CDCLake(tmp_path / "one", TableSpec(name="cdc", num_partitions=4))
    many = CDCLake(tmp_path / "many", TableSpec(name="cdc", num_partitions=4))
    for b in BATCHES[:3]:
        ds1, ds3 = rd.from_arrow(b), rd.from_arrow(b).repartition(3)
        assert (_planned_blocks(ds1), _planned_blocks(ds3)) == (1, 3)
        r1, r3 = one.apply_events(ds1), many.apply_events(ds3)
        for k in ("rows_upserted", "tombstones", "partitions_touched",
                  "events_seen"):
            assert r1[k] == r3[k], k
    h1 = _file_hashes(tmp_path / "one" / "cdc")
    h3 = _file_hashes(tmp_path / "many" / "cdc")
    assert h1 and h1 == h3
    assert any(k.endswith(".bloom") for k in h1)


def test_block_split_at_run_time_reruns_through_exchange(tmp_path):
    """A small ``target_max_block_size`` makes Ray split each one-file
    window (one planned block, so the map-only route) into several
    blocks before the write.  Two writes of one partition would replace
    each other's ``delta.parquet``; the split must be caught and the
    epoch rerun, so the state still equals the oracle and every
    partition holds one delta file per epoch."""
    d = tmp_path / "segs"
    d.mkdir()
    for i, b in enumerate(BATCHES):
        pq.write_table(b, d / f"seg-{i:04d}.parquet")
    ctx = DataContext.get_current()
    old = ctx.target_max_block_size
    ctx.target_max_block_size = 16 * 1024
    try:
        first = d / "seg-0000.parquet"
        assert first.stat().st_size > ctx.target_max_block_size
        probe = (
            rd.read_parquet(str(first), override_num_blocks=1)
            .map_batches(lambda b: b, batch_format="pyarrow")
            .map_batches(lambda b: pa.table({"n": [b.num_rows]}),
                         batch_size=None, batch_format="pyarrow")
        )
        assert _planned_blocks(probe) == 1
        assert probe.count() > 1, "the window must reach the write split"
        lake = CDCLake(tmp_path / "lake",
                       TableSpec(name="cdc", num_partitions=4),
                       auto_compact_files=None)
        for w in BinlogTail(str(d)).windows(segments_per_window=1):
            assert _planned_blocks(w) == 1
            assert lake.apply_events(w)["committed"]
    finally:
        ctx.target_max_block_size = old
    assert_states_equal(_state(lake), oracle_apply(EVENTS))
    m = mf.read_manifest(str(tmp_path / "lake"), "cdc")
    for info in m["partitions"].values():
        epochs = [Path(f).parent.name for f in info["files"]]
        assert len(epochs) == len(set(epochs))


def test_binlog_windows_are_sized_by_bytes(tmp_path):
    d = tmp_path / "segs"
    d.mkdir()
    for i, b in enumerate(BATCHES[:4]):
        pq.write_table(b, d / f"seg-{i:04d}.parquet")
    tail = BinlogTail(str(d))
    assert [_planned_blocks(w) for w in tail.windows(segments_per_window=4)] == [1]
    ctx = DataContext.get_current()
    old = ctx.target_max_block_size
    smallest = min(p.stat().st_size for p in tail.segments())
    ctx.target_max_block_size = smallest
    try:
        # every segment now exceeds a block: one block per segment
        assert [_planned_blocks(w)
                for w in tail.windows(segments_per_window=4)] == [4]
    finally:
        ctx.target_max_block_size = old


def test_stream_redelivery_commits_nothing(tmp_path):
    lake = CDCLake(tmp_path, TableSpec(name="cdc", num_partitions=2))
    lake.apply_stream([rd.from_arrow(b) for b in BATCHES[:2]])
    assert len(lake.lineage()) == 2
    epoch = mf.read_manifest(str(tmp_path), "cdc")["epoch"]
    recs = lake.apply_stream([rd.from_arrow(b) for b in BATCHES[:2]],
                             max_inflight=1)
    assert [(r["committed"], r["commit_sec"]) for r in recs] == [(False, 0.0)] * 2
    assert len(lake.lineage()) == 2
    assert mf.read_manifest(str(tmp_path), "cdc")["epoch"] == epoch


def test_noop_epoch_gives_its_number_back(tmp_path):
    lake = CDCLake(tmp_path, TableSpec(name="cdc", num_partitions=4))
    for b in BATCHES[:5]:
        lake.apply_events(rd.from_arrow(b))
    assert mf.read_manifest(str(tmp_path), "cdc")["epoch"] == 5
    for _ in range(4):
        assert lake.apply_events(rd.from_arrow(BATCHES[0]))["committed"] is False
    rec = lake.apply_events(rd.from_arrow(BATCHES[5]))
    assert rec["committed"] and rec["epoch"] == 6
    claims = [int(c.stem) for c in (Path(tmp_path) / "cdc" / "_epochs").glob("*.claim")]
    assert max(claims) == 6
    assert [r["epoch"] for r in lake.lineage()] == [1, 2, 3, 4, 5, 6]
